"""Self-tests of the benchmark: inputs, tracing and the metric names it declares."""

from __future__ import annotations

import json
import os
import re
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic_per_seed():
    reference = workloads.load_reference()
    for name in workloads.NAMES:
        for seed in (0, 7, 45):
            assert workloads.build(name, seed, reference) == workloads.build(name, seed, reference)
    a = workloads.build("converge-cut", 1, reference)
    b = workloads.build("converge-cut", 2, reference)
    assert a.files != b.files
    assert workloads.build("converge-cut", 1 + workloads.VARIANTS, reference).files == a.files


def test_seeded_graphs_have_fixed_size_and_edges():
    reference = workloads.load_reference()
    for seed in range(workloads.VARIANTS):
        for text in workloads.build("converge-cut", seed, reference).files.values():
            assert text.splitlines()[0] == "8 12"
        files = workloads.build("sparse-search", seed, reference).files
        assert [files[f].splitlines()[0] for f in ("a.txt", "b.txt")] == ["3 2", "4 3"]
    band = reference["screening"]["converge-cut"]
    for entry in reference["converge-cut"]["variants"]:
        assert abs(entry["visited_pairs"] - band["visited_target"]) <= band["visited_slack"]


def test_traced_and_plain_reports_agree(tmp_path, monkeypatch):
    full = workloads.build("sparse-search", 0)
    flats_op = 1  # matroid flats and union; the cheapest op of the workload
    workload = workloads.Workload(full.name, full.variant, full.files,
                                  full.ops[flats_op:flats_op + 1], 1, "ops")
    expected = workloads.load_reference()["sparse-search"]["variants"][0]["digests"][flats_op]
    monkeypatch.chdir(tmp_path)
    _, plain = worker.run_ops(workload)
    os.remove(workload.ops[0][-1])
    tracer = Tracer()
    with tracer.installed():
        _, traced = worker.run_ops(workload, tracer)
    assert [o["digest"] for o in plain] == [o["digest"] for o in traced] == [expected]
    assert all(o["exit"] == 0 for o in plain + traced)
    layers = tracer.layer_metrics()
    assert layers["matroid.union_calls"] > 0 and layers["matroid.flat_count"] > 0
    from quotientlab import cli, profiles
    from quotientlab.matroid import Matroid, disjoint_bases

    assert profiles.disjoint_bases is disjoint_bases
    assert cli.profile is profiles.profile
    assert Matroid.rank.__qualname__ == "Matroid.rank"


def test_self_time_subtracts_children_and_hot_calls():
    tracer = Tracer()
    tracer.spans = [
        Span("cli.op", 0.0, 10.0, None, 0),
        Span("profiles.profile", 1.0, 9.0, 0, 0, hot=2.0),
        Span("setfn.fill", 1.0, 4.0, 1, 0),
    ]
    assert tracer.self_times() == [2.0, 3.0, 3.0]


def test_scaled_time_is_net_of_sampling_and_weighted_by_speed():
    sampler = calibration.SpeedSampler()
    since = sampler.mark()
    sampler.samples += [calibration.REFERENCE_S, calibration.REFERENCE_S / 3]
    sampler.stolen_s += 0.5
    net, scaled = sampler.scaled(10.5, since)
    assert net == 10.0
    assert abs(scaled - 10.0 * (1 + 3) / 2) < 1e-9


def test_speed_sampler_samples_on_alarm_and_restores_the_timer():
    sampler = calibration.SpeedSampler()
    before = signal.getsignal(signal.SIGALRM)
    deadline = time.perf_counter() + 5
    with sampler.running():
        while len(sampler.samples) < 2 and time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layers == run.LAYER_UNITS
    assert set(Tracer().layer_metrics()) | {"trace.overhead_s"} == set(run.LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for name in [*declared_e2e, *declared_layers, *workloads.NAMES]:
        assert NAME.fullmatch(name), name
