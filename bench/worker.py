"""Run one repetition of a workload in a fresh process and write result.json.

    python3 bench/worker.py WORKLOAD SEED DIR [--trace] [--setup-only]

Set-up is everything before the first op: importing quotientlab and
writing the seeded input files into DIR.  The worker stamps the end of
set-up on CLOCK_MONOTONIC, which the parent shares, so the parent can time
set-up from the moment it started the interpreter.  The ops then run in
process through `quotientlab.cli.main`, with DIR as working directory.
With --trace, spans are recorded around each layer and written to
DIR/spans.json after the last op.

The worker also samples the host's speed (bench/calibration.py) right
after set-up, at the start and end of every op and every 0.1 s inside it,
and reports set-up and op times also scaled to the reference speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from quotientlab import cli  # noqa: E402

import workloads  # noqa: E402
from calibration import SpeedSampler, speed_scale  # noqa: E402
from tracer import Tracer  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


SETUP_SAMPLES = 20


def run_ops(workload: workloads.Workload, tracer: Tracer | None = None) -> tuple[dict, list[dict]]:
    """Run the ops in the current directory; return timings and per-op outcomes.

    Timings: `wall_s` is the sum of the ops' wall times net of speed
    sampling, `scaled_wall_s` the same in reference seconds.
    """
    outcomes = []
    wall = scaled_wall = 0.0
    sampler = SpeedSampler()
    with sampler.running():
        for index, argv in enumerate(workload.ops):
            since = sampler.mark()
            started = time.perf_counter()
            sampler.sample()
            try:
                if tracer is None:
                    code = cli.main(list(argv))
                else:
                    with tracer.op_span(index):
                        code = cli.main(list(argv))
                error = None
            except SystemExit as exc:  # argparse rejects the flags
                code, error = exc.code, f"SystemExit({exc.code})"
            except Exception:  # an op that raises is counted as failed, the run goes on
                code, error = None, traceback.format_exc(limit=3)
            sampler.sample()
            net, scaled = sampler.scaled(time.perf_counter() - started, since)
            wall += net
            scaled_wall += scaled
            outcomes.append({"exit": code, "error": error})
    timings = {"wall_s": wall, "scaled_wall_s": scaled_wall, "speed_samples": len(sampler.samples)}
    for argv, outcome in zip(workload.ops, outcomes):
        out = Path(argv[-1])
        outcome["digest"] = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return timings, outcomes


def main(argv: list[str]) -> int:
    name, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    trace, setup_only = "--trace" in argv[3:], "--setup-only" in argv[3:]
    workload = workloads.build(name, seed)
    workloads.write_inputs(workload, directory)
    result: dict = {"ready": clock()}
    sampler = SpeedSampler()
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    result["setup_scale"] = speed_scale(sampler.samples)
    if not setup_only:
        os.chdir(directory)
        tracer = Tracer() if trace else None
        if tracer is None:
            timings, result["ops"] = run_ops(workload)
        else:
            with tracer.installed():
                timings, result["ops"] = run_ops(workload, tracer)
            result["layers"] = tracer.layer_metrics()
            Path("spans.json").write_text(json.dumps(tracer.span_records()), encoding="utf-8")
        result.update(timings)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (directory / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
