"""quotientlab benchmark: time seeded CLI workloads and check every report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition runs the workload's ops in a
fresh single-threaded Python process (bench/worker.py), so set-up time and
peak memory are those a CLI user pays.  With --trace 0 the run repeats the
workload for about S seconds (at least twice) and reports the medians of
the end-to-end metrics; with --trace 1 it alternates plain and traced
repetitions and reports per-layer metrics plus the tracing overhead.

Times and rates, end-to-end and per layer, are in reference seconds: each
measured interval is scaled by the host's speed, sampled while it ran by
timing a fixed stdlib-only loop (bench/calibration.py), to the speed that
loop has on the host the benchmark was written on.  On a shared host raw
times of the same code drift by up to ~1.8x between runs; scaled ones by a
few percent.  Raw times are printed next to them for every repetition.

Every op's report is compared with the digest recorded in
bench/reference.json for the seed's variant; an op that exits non-zero,
raises, or writes other bytes counts as failed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Each run is also appended, with its metadata, to
.bench_out/runs.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORKER = BENCH / "worker.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 15  # extra set-up-only processes per run, so set-up has a steady median
MIN_REPS = 2
HARD_LIMIT_S = 165.0  # stop starting work past this, well inside the 180 s contract

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "units/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "cli.op_s": "s",
    "cli.self_s": "s",
    "sequences.build_s": "s",
    "setfn.evals": "count",
    "setfn.fill_s": "s",
    "setfn.evals_per_s": "evals/s",
    "matroid.rank_calls": "count",
    "matroid.rank_s": "s",
    "matroid.flats_s": "s",
    "matroid.flat_count": "count",
    "matroid.union_calls": "count",
    "matroid.union_s": "s",
    "matroid.union_feasible_ratio": "ratio",
    "profiles.assignments": "count",
    "profiles.points": "count",
    "profiles.distinct_ratio": "ratio",
    "profiles.self_s": "s",
    "profiles.assign_per_s": "assignments/s",
    "metric.directed_calls": "count",
    "metric.point_pairs": "count",
    "metric.hausdorff_s": "s",
    "metric.pairs_per_s": "pairs/s",
    "graphs.cut_dist_calls": "count",
    "graphs.cut_dist_s": "s",
    "graphs.search_self_s": "s",
    "serialize.emit_s": "s",
    "serialize.bytes": "bytes",
    "trace.overhead_s": "s",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_digest() -> str:
    """sha256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    """HEAD of the repository the benchmark sits in; None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(args, workload: workloads.Workload) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "src_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": workload.variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "work": workload.work,
        "work_unit": workload.work_unit,
        "ops_per_rep": len(workload.ops),
    }


class Runner:
    """Starts worker processes one at a time and keeps their results."""

    def __init__(self, args, run_dir: Path, deadline: float):
        self.args = args
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, kind: str) -> dict:
        """One fresh worker; kind is setup, plain or traced."""
        self.count += 1
        rep_dir = self.run_dir / f"rep{self.count}"
        rep_dir.mkdir()
        cmd = [sys.executable, str(WORKER), self.args.workload, str(self.args.seed), str(rep_dir)]
        if kind == "traced":
            cmd.append("--trace")
        if kind == "setup":
            cmd.append("--setup-only")
        record: dict = {"kind": kind}
        with open(rep_dir / "stderr.txt", "wb") as err:
            spawned = clock()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env)
            try:
                proc.wait(timeout=max(1.0, self.deadline - clock()))
            except subprocess.TimeoutExpired:
                record["error"] = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_file = rep_dir / "result.json"
        if proc.returncode == 0 and result_file.exists():
            result = json.loads(result_file.read_text(encoding="utf-8"))
            record["setup_raw_s"] = result["ready"] - spawned
            record["setup_s"] = record["setup_raw_s"] * result["setup_scale"]
            for key in ("wall_s", "scaled_wall_s", "speed_samples", "ops", "layers",
                        "peak_rss_kb"):
                if key in result:
                    record[key] = result[key]
            if kind == "traced":
                shutil.move(str(rep_dir / "spans.json"), str(self.run_dir / f"spans{self.count}.json"))
        else:
            record.setdefault("error", f"worker exited {proc.returncode}")
            tail = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"worker failed ({kind}): {record['error']}\n{tail}", file=sys.stderr)
        shutil.rmtree(rep_dir)
        return record


def schedule(runner: Runner, kinds: list[str], seconds: float, started: float) -> list[dict]:
    """Cycle through kinds until the next repetition would overrun the run length."""
    reps: list[dict] = []
    last: dict[str, float] = {}
    while True:
        kind = kinds[len(reps) % len(kinds)]
        elapsed = clock() - started
        if len(reps) >= MIN_REPS and elapsed + last.get(kind, 0.0) > seconds:
            break
        if clock() > runner.deadline:
            break
        t0 = clock()
        rep = runner.spawn(kind)
        last[kind] = clock() - t0
        reps.append(rep)
        if "error" in rep:
            break
    return reps


def check(reps: list[dict], expected: list[str]) -> tuple[int, int, bool]:
    """Attempted and failed op counts; traced reports must equal plain ones."""
    attempted = failed = 0
    seen: dict[str, set] = {}
    for rep in reps:
        if rep["kind"] == "setup":
            continue
        attempted += len(expected)
        ops = rep.get("ops")
        if ops is None:
            failed += len(expected)
            continue
        for outcome, digest in zip(ops, expected):
            if outcome["exit"] != 0 or outcome["digest"] != digest:
                failed += 1
        seen.setdefault(rep["kind"], set()).add(tuple(o["digest"] for o in ops))
    agree = len({d for digests in seen.values() for d in digests}) <= 1
    return attempted, failed, agree


def end_to_end(reps: list[dict], workload: workloads.Workload) -> dict:
    plain = [r for r in reps if r["kind"] == "plain" and "wall_s" in r]
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    values = {
        "wall_s": statistics.median(r["scaled_wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "work_per_s": statistics.median(workload.work / r["scaled_wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in plain),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def scaled_layer(rep: dict, name: str) -> float:
    """A traced layer metric in reference seconds, by its repetition's speed scale."""
    value = rep["layers"][name]
    speed = rep["scaled_wall_s"] / rep["wall_s"]
    unit = LAYER_UNITS[name]
    if unit == "s":
        return value * speed
    return value / speed if unit.endswith("/s") else value


def per_layer(reps: list[dict]) -> dict:
    plain = [r["scaled_wall_s"] for r in reps if r["kind"] == "plain" and "wall_s" in r]
    traced = [r for r in reps if r["kind"] == "traced" and "layers" in r]
    values = {
        name: statistics.median(scaled_layer(r, name) for r in traced)
        for name in LAYER_UNITS if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = (
        statistics.median(r["scaled_wall_s"] for r in traced) - statistics.median(plain)
    )
    return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quotientlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = clock()
    if not (ROOT / "src" / "quotientlab" / "cli.py").is_file():
        print(f"no quotientlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    reference = workloads.load_reference()
    workload = workloads.build(args.workload, args.seed, reference)
    expected = reference[args.workload]["variants"][workload.variant]["digests"]
    meta = metadata(args, workload)
    print("meta " + json.dumps(meta, sort_keys=True))

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    runner = Runner(args, run_dir, started + HARD_LIMIT_S)
    reps: list[dict] = []
    if args.trace:
        reps += schedule(runner, ["plain", "traced"], args.seconds, started)
    else:
        reps += [runner.spawn("setup") for _ in range(SETUP_PROBES)]
        reps += schedule(runner, ["plain"], args.seconds, started)

    attempted, failed, agree = check(reps, expected)
    timed = [r for r in reps if r["kind"] != "setup"]
    for i, rep in enumerate(timed, 1):
        nan = float("nan")
        print(f"rep {i} {rep['kind']}: wall {rep.get('wall_s', nan):.4f} s "
              f"(scaled {rep.get('scaled_wall_s', nan):.4f} s), "
              f"set-up {rep.get('setup_raw_s', nan):.4f} s "
              f"(scaled {rep.get('setup_s', nan):.4f} s), "
              f"{rep.get('speed_samples', 0)} speed samples, "
              f"peak rss {rep.get('peak_rss_kb', 0) / 1024:.1f} MB, "
              f"work {workload.work} {workload.work_unit}, ops {len(workload.ops)}")
    print(f"ops attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted if attempted else 1.0:g}"
          + ("" if agree else "; traced reports differ from plain ones"))
    complete = all("error" not in r for r in reps)
    try:
        metrics = per_layer(reps) if args.trace else end_to_end(reps, workload)
    except statistics.StatisticsError:  # no repetition finished
        metrics = {}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and agree and complete and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }
    record = {"meta": meta, "reps": reps, "result": result}
    with contextlib.suppress(OSError):  # kept only when it holds spans
        run_dir.rmdir()
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
