"""Golden-file tests pinning full report payloads for every subcommand.

Profile payloads are also written through the Fraction serialization that
the int path replaced, kept here as the reference: it must give the same
bytes on every profile golden, on random oracles whose numerators all
share a factor with the denominator, and on an empty profile.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from quotientlab import EXACT, Mode, SimpleGraph, cli, limit_set_filter, profile, serialize
from quotientlab.cli import main
from quotientlab.graphs import cut_capacity_oracle
from quotientlab.setfn import SetFunctionOracle

GOLDEN = Path(__file__).parent / "golden"

K3_TEXT = "3 3\n0 1\n0 2\n1 2\n"
P3_TEXT = "3 2\n0 1\n1 2\n"
K2_TEXT = "2 1\n0 1\n"
P4_TEXT = "4 3\n0 1\n1 2\n2 3\n"
STAR4_TEXT = "4 3\n0 1\n0 2\n0 3\n"
HALF_GRAPHON = "1\n1\n1/2\n"

CASES = {
    "profile_gf22.json": [
        "profile", "--family", "gf-space", "--q", "2", "--n", "2",
        "--k", "2", "--mode", "partition",
    ],
    "profile_example51_4.json": [
        "profile", "--family", "example51", "--n", "4", "--k", "2",
        "--mode", "partition",
    ],
    "profile_sampled.json": [
        "profile", "--family", "gf-space", "--q", "2", "--n", "3", "--k", "2",
        "--mode", "disjoint", "--strategy", "sampled", "--seed", "5",
        "--samples", "50",
    ],
    "converge_gf2.json": [
        "converge", "--family", "gf-space", "--q", "2", "--start", "2",
        "--end", "3", "--k", "2", "--mode", "partition",
    ],
    "cutcap_k3.json": [
        "cutcap", "k3.txt", "--k", "2", "--mode", "partition",
        "--norm", "nodes-squared",
    ],
    "hom_k2_k3.json": ["hom", "K2", "--graph", "k3.txt", "--graphon", "half.txt"],
    "cutdist_k3_k3.json": [
        "cutdist", "k3.txt", "k3.txt", "--t-max", "1", "--trials", "2",
        "--seed", "0", "--upper-bound",
    ],
    "verify_limit_filter.json": ["verify", "limit-filter"],
    "profile_complete_cycle_3_covering.json": [
        "profile", "--family", "complete-cycle", "--n", "3", "--k", "2",
        "--mode", "covering",
    ],
    "profile_example51_4_any.json": [
        "profile", "--family", "example51", "--n", "4", "--k", "2", "--mode", "any",
    ],
    "profile_gf23_flats.json": [
        "profile", "--family", "gf-space", "--q", "2", "--n", "3", "--k", "2",
        "--mode", "disjoint", "--strategy", "flats",
    ],
    "profile_sampled_any.json": [
        "profile", "--family", "gf-space", "--q", "2", "--n", "3", "--k", "2",
        "--mode", "any", "--strategy", "sampled", "--seed", "5", "--samples", "50",
    ],
    "profile_gf22.csv": [
        "profile", "--family", "gf-space", "--q", "2", "--n", "2", "--k", "2",
        "--format", "csv",
    ],
    # trials 0 still searches t = 2 (the 12-node blow-ups), so the bound is truncated
    "cutdist_p3_k2_truncated.json": [
        "cutdist", "p3.txt", "k2.txt", "--upper-bound", "--t-max", "3", "--trials", "0",
    ],
    # the blow-up families declare twins; P4 has none, so its exact profiles read every mask
    "profile_cutcap_blowup_p3_2_covering.json": [
        "profile", "--family", "cutcap-blowup", "--graph", "p3.txt", "--n", "2", "--k", "2",
        "--mode", "covering",
    ],
    "profile_tau_blowup_p3_2.json": [
        "profile", "--family", "tau-blowup", "--graph", "p3.txt", "--motif", "P3", "--n", "2",
        "--k", "2", "--mode", "partition",
    ],
    "profile_cutcap_files_p4_disjoint.json": [
        "profile", "--family", "cutcap-files", "--graphs", "k3.txt", "p4.txt", "--n", "2",
        "--k", "3", "--mode", "disjoint", "--norm", "twice-edges",
    ],
    "profile_tau_files_k3_any.json": [
        "profile", "--family", "tau-files", "--motif", "P3", "--graphs", "p4.txt", "k3.txt",
        "--n", "2", "--k", "2", "--mode", "any",
    ],
    # the sparse-search shape: a 3-node against a 4-node graph, 12-node blow-ups at t = 1
    "cutdist_p3_star4_t1.json": [
        "cutdist", "p3.txt", "s4.txt", "--upper-bound", "--t-max", "1", "--trials", "1",
        "--seed", "3",
    ],
    # t = 1 (6-node blow-ups) finds the bound, t = 2 (12 nodes) is searched and does not improve it
    "cutdist_k2_p3_t2.json": [
        "cutdist", "k2.txt", "p3.txt", "--upper-bound", "--t-max", "2", "--trials", "1",
        "--seed", "1",
    ],
    # twin classes at k = 3 partitions, the enum-blowup shape
    "profile_cutcap_blowup_k3_2_k3_partition.json": [
        "profile", "--family", "cutcap-blowup", "--graph", "k3.txt", "--n", "2", "--k", "3",
        "--mode", "partition",
    ],
    # k = 4: 15 unions per point
    "profile_example51_3_k4_partition.json": [
        "profile", "--family", "example51", "--n", "3", "--k", "4", "--mode", "partition",
    ],
}

# sha256 of the `verify all` report (14,526 bytes); a digest keeps the repo small
VERIFY_ALL_SHA256 = "7b2c1130cd66efef06028879b6bfd01e577b052b73d0dcc6618a9611394c9b85"


def reference_frac_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def reference_profile_payload(pset):
    """The profile payload built by sorting, bounding and formatting Fraction points."""
    points = sorted(pset.points, key=lambda p: p.coords)
    coords_flat = [c for p in points for c in p.coords]
    summary = {
        "count": len(points),
        "coord_min": reference_frac_str(min(coords_flat)) if coords_flat else None,
        "coord_max": reference_frac_str(max(coords_flat)) if coords_flat else None,
    }
    return {
        "format": "profile-set",
        "version": serialize.FORMAT_VERSION,
        "k": pset.k,
        "mode": pset.mode.value,
        "strategy": pset.strategy,
        "source": pset.source,
        "summary": summary,
        "points": [[reference_frac_str(c) for c in p.coords] for p in points],
    }


def reference_profile_csv(pset):
    lines = [",".join(f"I={m}" for m in range(1 << pset.k))]
    for point in sorted(pset.points, key=lambda p: p.coords):
        lines.append(",".join(reference_frac_str(c) for c in point.coords))
    return "\n".join(lines) + "\n"


def assert_serializes_like_reference(pset):
    payload = serialize.profile_payload(pset)
    assert serialize.dumps(payload) == serialize.dumps(reference_profile_payload(pset))
    assert cli._profile_csv(pset) == reference_profile_csv(pset)
    return payload


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_golden_payloads(golden_name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.txt").write_text(K3_TEXT, encoding="utf-8")
    (tmp_path / "p3.txt").write_text(P3_TEXT, encoding="utf-8")
    (tmp_path / "k2.txt").write_text(K2_TEXT, encoding="utf-8")
    (tmp_path / "p4.txt").write_text(P4_TEXT, encoding="utf-8")
    (tmp_path / "s4.txt").write_text(STAR4_TEXT, encoding="utf-8")
    (tmp_path / "half.txt").write_text(HALF_GRAPHON, encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(CASES[golden_name] + ["--out", str(out)]) == 0
    expected = (GOLDEN / golden_name).read_bytes()
    assert out.read_bytes() == expected
    if golden_name.startswith(("profile_", "cutcap_")):
        monkeypatch.setattr(serialize, "profile_payload", reference_profile_payload)
        monkeypatch.setattr(cli, "_profile_csv", reference_profile_csv)
        out.unlink()
        assert main(CASES[golden_name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected


@pytest.mark.parametrize("seed", range(8))
def test_profile_serialization_matches_reference_on_random_oracles(seed):
    rng = Random(seed)
    n, k, den = rng.randint(2, 4), rng.randint(1, 3), 6 * rng.randint(1, 5)
    # each numerator is a multiple of 2 or 3, and so is den: every string needs reducing
    values = [0] + [rng.choice((2, 3)) * rng.randint(-4, 9) for _ in range((1 << n) - 1)]
    oracle = SetFunctionOracle(n, values.__getitem__, den, label=f"random{seed}")
    for mode in Mode:
        assert_serializes_like_reference(profile(oracle, k, mode, EXACT))


def test_empty_profile_serializes_like_reference():
    # K3's largest cut is 2 of its 3 edges, so no point reaches the limit 1
    pset = profile(cut_capacity_oracle(SimpleGraph.complete(3)), 2, Mode.PARTITION, EXACT)
    empty = limit_set_filter(pset, 2, 1, at_limit=True)
    payload = assert_serializes_like_reference(empty)
    assert payload["summary"] == {"count": 0, "coord_min": None, "coord_max": None}


def test_verify_all_report_digest(tmp_path):
    out = tmp_path / "verify_all.json"
    assert main(["verify", "all", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ALL_SHA256


# sparse-search's sampled op (the first of its three), against the digests the
# benchmark's reference records, so a slip in draw order fails here as well
BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


@pytest.mark.parametrize("variant", [0, 5, 11])
def test_sparse_search_sampled_op_matches_bench_reference(variant, tmp_path, monkeypatch):
    digests = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))["sparse-search"]["variants"][variant]["digests"]
    monkeypatch.chdir(tmp_path)
    argv = [
        "profile", "--family", "complete-cycle", "--n", "6", "--k", "3", "--strategy", "sampled",
        "--seed", str(variant), "--samples", "20000", "--out", "op0.json",
    ]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "op0.json").read_bytes()).hexdigest() == digests[0]
