"""Write reference.json: the inputs each variant uses and the digest of every op's report.

Run from the repository root:  python3 bench/make_reference.py

Seeded workloads are screened on a deterministic work count, so that a
seed changes the structure of the inputs and not the amount of work:

* converge-cut keeps the first disjoint quadruple of graphs of the
  variant's stream whose partition profiles (k=3) have CLOUD_TARGET +-
  CLOUD_SLACK points each and whose twelve directed Hausdorff distances
  visit VISITED_TARGET +- VISITED_SLACK point pairs together;
* sparse-search keeps the first attempt whose blow-up bijection search
  makes CUTDIST_CALLS labeled cut-distance evaluations.

The digests are those of the commit this script runs on; the benchmark
counts every op whose report differs from them as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from run import git_revision, source_digest  # noqa: E402

ROOT = workloads.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from quotientlab import cli, graphs  # noqa: E402
from quotientlab.metric import _point_list  # noqa: E402
from quotientlab.profiles import EXACT, Mode, profile  # noqa: E402

CLOUD_TARGET = 280
CLOUD_SLACK = 6
VISITED_TARGET = 386_000
VISITED_SLACK = 8_000
CUTDIST_CALLS = 399


def cloud(text: str):
    oracle = graphs.cut_capacity_oracle(graphs.parse_graph(text), "nodes-squared")
    return profile(oracle, 3, Mode.PARTITION, EXACT)


def visited_pairs(a_cloud, b_cloud) -> int:
    """(a, b) pairs the pruned loop of metric.directed_distance visits at this commit.

    A copy of that loop with a counter: the pruning makes its cost depend on
    the clouds' structure, by up to 16% between quadruples of equal size.
    """
    a_pts, b_pts = _point_list(a_cloud), _point_list(b_cloud)
    best, visited = Fraction(-1), 0
    for a in a_pts:
        nearest = None
        for b in b_pts:
            visited += 1
            d = Fraction(0)
            for x, y in zip(a.coords, b.coords):
                g = abs(x - y)
                if g > d:
                    d = g
                    if nearest is not None and d >= nearest:
                        break
            if nearest is None or d < nearest:
                nearest = d
                if nearest <= best:
                    break
        best = max(best, nearest)
    return visited


def screen_converge(variant: int) -> dict:
    """First disjoint quadruple of in-band graphs whose Hausdorff loop visits an in-band count."""
    draws, clouds = [], []
    for index, text in enumerate(workloads.converge_stream(variant)):
        c = cloud(text)
        if abs(len(c) - CLOUD_TARGET) > CLOUD_SLACK:
            continue
        draws.append(index)
        clouds.append(c)
        if len(draws) < 4:
            continue
        visited = sum(visited_pairs(a, b) for a in clouds for b in clouds if a is not b)
        if abs(visited - VISITED_TARGET) <= VISITED_SLACK:
            break
        draws, clouds = [], []
    sizes = [len(c) for c in clouds]
    pairs = sum(a * b for i, a in enumerate(sizes) for j, b in enumerate(sizes) if i != j)
    return {"draws": draws, "cloud_sizes": sizes, "point_pairs": pairs, "visited_pairs": visited}


def labeled_calls(a: str, b: str, seed: int) -> int:
    calls = 0
    real = graphs.cut_dist_labeled

    def counted(g, h):
        nonlocal calls
        calls += 1
        return real(g, h)

    graphs.cut_dist_labeled = counted
    try:
        graphs.cut_dist_unlabeled_upper(graphs.parse_graph(a), graphs.parse_graph(b), 1, 8, seed)
    finally:
        graphs.cut_dist_labeled = real
    return calls


def screen_sparse(variant: int) -> dict:
    attempt = 0
    while labeled_calls(*workloads.cutdist_pair(variant, attempt), variant) != CUTDIST_CALLS:
        attempt += 1
    return {"attempt": attempt, "cut_dist_calls": CUTDIST_CALLS}


def op_digests(workload: workloads.Workload) -> list[str]:
    """Run every op in a scratch directory; digest its report or fail loudly."""
    out = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_inputs(workload, Path(tmp))
        os.chdir(tmp)
        try:
            for argv in workload.ops:
                code = cli.main(list(argv))
                if code != 0:
                    raise SystemExit(f"{workload.name}: {' '.join(argv)} exited {code}")
                out.append(hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest())
        finally:
            os.chdir(here)
    return out


def main() -> int:
    reference: dict = {
        "source": {"git_revision": git_revision(), "src_digest": source_digest()},
        "screening": {
            "converge-cut": {"cloud_target": CLOUD_TARGET, "cloud_slack": CLOUD_SLACK,
                             "visited_target": VISITED_TARGET,
                             "visited_slack": VISITED_SLACK},
            "sparse-search": {"cut_dist_calls": CUTDIST_CALLS},
        },
    }
    screens = {"converge-cut": screen_converge, "sparse-search": screen_sparse}
    for name in workloads.NAMES:
        count = workloads.VARIANTS if name in workloads.SEEDED else 1
        entries = []
        for variant in range(count):
            entry = screens[name](variant) if name in screens else {}
            partial = {name: {"variants": [{}] * variant + [entry]}}
            entry["digests"] = op_digests(workloads.build(name, variant, partial))
            entries.append(entry)
            print(f"{name} variant {variant}: {entry}", file=sys.stderr, flush=True)
        reference[name] = {"variants": entries}
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
