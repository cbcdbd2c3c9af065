"""Workload definitions: seeded input files and the CLI ops each workload runs.

A workload is a list of `quotientlab` CLI invocations.  `build(name, seed)`
returns the input files to write (name -> text) and the argv of every op.
Paths in argv are bare file names: the worker runs the ops with the
directory holding the inputs as its working directory, because reports
echo the paths they were given and must not depend on where a run happens.

Seeded workloads draw their graphs from a stream keyed by the variant
`seed % VARIANTS`.  Which draws of that stream are used is read from
`reference.json`, written by `make_reference.py`: it keeps only draws whose
work counts lie in fixed bands (cloud sizes and point pairs visited by
the pruned Hausdorff loop for `converge-cut`, labeled cut-distance calls
for `sparse-search`), so seeds differ in structure and not in size or
cost, and it records the digest of every op's report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

VARIANTS = 32

# converge-cut: four random graphs with these node and edge counts
CONVERGE_NODES = 8
CONVERGE_EDGES = 12
# sparse-search: cutdist between one graph of each shape; both have edges,
# so the bijection search cannot stop at distance 0 on the first candidate
CUTDIST_SHAPES = ((3, 2), (4, 3))
SAMPLED_SAMPLES = 20000

NAMES = ("enum-rank", "enum-blowup", "converge-cut", "sparse-search")
SEEDED = ("converge-cut", "sparse-search")

K3_TEXT = "3 3\n0 1\n0 2\n1 2\n"


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    files: dict[str, str]
    ops: tuple[tuple[str, ...], ...]
    work: int
    work_unit: str


def variant_of(name: str, seed: int) -> int:
    """Index of the reference entry a seed uses; fixed workloads have one."""
    return seed % VARIANTS if name in SEEDED else 0


def random_graph_text(rng: random.Random, nodes: int, edges: int) -> str:
    """Edge-list file of a uniform graph with exactly `edges` edges."""
    pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    chosen = sorted(rng.sample(pairs, edges))
    return f"{nodes} {edges}\n" + "".join(f"{u} {v}\n" for u, v in chosen)


def converge_stream(variant: int):
    """Endless stream of candidate graphs for one converge-cut variant."""
    rng = random.Random(f"converge-cut:{variant}")
    while True:
        yield random_graph_text(rng, CONVERGE_NODES, CONVERGE_EDGES)


def cutdist_pair(variant: int, attempt: int) -> tuple[str, str]:
    rng = random.Random(f"sparse-search:{variant}:{attempt}")
    (na, ma), (nb, mb) = CUTDIST_SHAPES
    return random_graph_text(rng, na, ma), random_graph_text(rng, nb, mb)


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def converge_files(draws: list[int], variant: int) -> dict[str, str]:
    wanted = set(draws)
    picked = {}
    for index, text in enumerate(converge_stream(variant)):
        if index in wanted:
            picked[index] = text
            if len(picked) == len(wanted):
                break
    return {f"g{slot}.txt": picked[d] for slot, d in enumerate(draws, start=1)}


def out_name(op_index: int) -> str:
    return f"op{op_index}.json"


def build(name: str, seed: int, reference: dict | None = None) -> Workload:
    """Inputs, ops and work count of a workload at a seed."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    variant = variant_of(name, seed)
    if name == "enum-rank":
        files: dict[str, str] = {}
        ops = [["profile", "--family", "example51", "--n", "10", "--k", "2"]]
        work, unit = 2 ** 18, "assignments"
    elif name == "enum-blowup":
        files = {"k3.txt": K3_TEXT}
        ops = [["profile", "--family", "cutcap-blowup", "--graph", "k3.txt",
                "--n", "4", "--k", "3"]]
        work, unit = 3 ** 12, "assignments"
    else:
        entry = (reference or load_reference())[name]["variants"][variant]
        if name == "converge-cut":
            files = converge_files(entry["draws"], variant)
            ops = [["converge", "--family", "cutcap-files", "--graphs", *sorted(files),
                    "--start", "1", "--end", "4", "--k", "3", "--norm", "nodes-squared"]]
            work, unit = entry["point_pairs"], "point-pairs"
        else:
            a, b = cutdist_pair(variant, entry["attempt"])
            files = {"a.txt": a, "b.txt": b}
            ops = [
                ["profile", "--family", "complete-cycle", "--n", "6", "--k", "3",
                 "--strategy", "sampled", "--seed", str(variant),
                 "--samples", str(SAMPLED_SAMPLES)],
                ["profile", "--family", "gf-space", "--q", "2", "--n", "4", "--k", "2",
                 "--mode", "disjoint", "--strategy", "flats"],
                ["cutdist", "a.txt", "b.txt", "--upper-bound", "--t-max", "1",
                 "--seed", str(variant)],
            ]
            work, unit = len(ops), "ops"
    argv = tuple(tuple(op) + ("--out", out_name(i)) for i, op in enumerate(ops))
    return Workload(name, variant, files, argv, work, unit)


def write_inputs(workload: Workload, directory: Path) -> None:
    for fname, text in workload.files.items():
        (directory / fname).write_text(text, encoding="utf-8")
