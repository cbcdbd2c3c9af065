"""Golden-file tests pinning full report payloads for every subcommand.

Profile payloads are also written through the Fraction serialization that
the int path replaced, kept here as the reference, and through plain
`json.dumps` instead of the point writer in `serialize.dumps`: it must give
the same bytes on every profile golden, on random oracles whose numerators
all share a factor with the denominator, on random point sets with
negative and 64-bit numerators, on a one-point and an empty profile, and
on reports whose strings hold quotes, backslashes, newlines and non-ASCII.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from quotientlab import EXACT, Mode, ProfileSet, SimpleGraph, cli, limit_set_filter, profile, serialize
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

# sha256 of `cutcap` on K_{1,6}, k = 3 `any`: 10,584 points, thousands of distinct rows
STAR6_TEXT = "7 6\n" + "".join(f"0 {leaf}\n" for leaf in range(1, 7))
STAR6_CUTCAP_SHA256 = {
    "json": "2f7ba71e2090d9cff76cb667d54661b20522fb8364253b5ef050be6deb2bd2e7",  # 1,651,688 bytes
    "csv": "73fe99e01350e2519f41b1ca181f4920c5c4a82b5e2423b9c2692e0878a8a1e5",  # 338,720 bytes
}


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


def reference_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def assert_serializes_like_reference(pset, params=None):
    """The payload alone and inside a report, and the CSV, against the references."""
    payload = serialize.profile_payload(pset)
    reference = reference_profile_payload(pset)
    assert serialize.dumps(payload) == reference_dumps(reference)
    params = {"graph": "g.txt"} if params is None else params
    wrapped = serialize.report("profile", params, {"profile": payload, "generator": None})
    expected = serialize.report("profile", params, {"profile": reference, "generator": None})
    assert serialize.dumps(wrapped) == reference_dumps(expected)
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
        monkeypatch.setattr(serialize, "dumps", reference_dumps)
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


def random_point_set(rng, k, count, source="random"):
    """`count` random points on k parts: small, negative and past-2^63 numerators over a den > 1."""
    den = rng.choice((3, 7, 12, 1 << 64, 3**41))
    width = (1 << k) - 1
    draws = (
        lambda: rng.randint(-20, 20),
        lambda: rng.randint(-(1 << 70), 1 << 70),
        lambda: rng.choice((1 << 63, (1 << 63) + 1, -(1 << 63), 1 << 64, -(1 << 64) - 1)),
    )
    nums = frozenset(tuple(rng.choice(draws)() for _ in range(width)) for _ in range(count))
    return ProfileSet(k, den, nums, Mode.ANY, "exact", source)


@pytest.mark.parametrize("seed", range(12))
def test_point_sets_with_wide_and_negative_numerators_serialize_like_reference(seed):
    rng = Random(seed)
    for k in range(1, 5):
        pset = random_point_set(rng, k, rng.randint(1, 40))
        assert pset.den > 1
        payload = assert_serializes_like_reference(pset)
        coords = [c for p in pset.points for c in p.coords]
        assert payload["summary"]["coord_min"] == reference_frac_str(min(coords))
        assert payload["summary"]["coord_max"] == reference_frac_str(max(coords))


@pytest.mark.parametrize("row", [(-3, 5, 1 << 63), (7, 7, 7), (0, 0, 0)])
def test_one_point_profile_serializes_like_reference(row):
    pset = ProfileSet(2, 6, frozenset([row]), Mode.PARTITION, "exact", "one")
    payload = assert_serializes_like_reference(pset)
    assert payload["summary"]["count"] == 1


# quotes, backslashes, a newline, non-ASCII, an empty string and JSON-looking text
ODD_STRINGS = ('q"uo\\te', 'back\\slash\\', "new\nline", "comp∘se", "", '""', '[\n  "0/1"\n]', "\u2028")


def test_odd_strings_in_source_and_params_serialize_like_reference():
    rng = Random(5)
    for text in ODD_STRINGS:
        pset = random_point_set(rng, 2, 5, source=text)
        assert_serializes_like_reference(pset, params={"graph": text, text: [text, 1], "z": {"label": text}})


def test_points_anywhere_in_a_payload_are_written_like_json_dumps():
    rng = Random(9)
    small, empty = random_point_set(rng, 1, 3), ProfileSet(1, 1, frozenset(), Mode.ANY, "exact", "none")
    wide = random_point_set(rng, 3, 4)
    parts = [(serialize.ProfilePoints(p), reference_profile_payload(p)["points"]) for p in (small, empty, wide)]
    (a, ra), (b, rb), (c, rc) = parts
    assert serialize.dumps(a) == reference_dumps(ra)
    payload = {"list": [a, "x", [b, c]], "deep": {"deeper": {"p": c, "q": b}}, "first": a}
    expected = {"list": [ra, "x", [rb, rc]], "deep": {"deeper": {"p": rc, "q": rb}}, "first": ra}
    assert serialize.dumps(payload) == reference_dumps(expected)
    with pytest.raises(TypeError, match="not JSON serializable"):
        serialize.dumps({"points": a, "other": object()})


@pytest.mark.parametrize("name", ['we"ird\\name ∘', "line\nbreak"])
def test_odd_graph_file_names_reach_the_report_like_reference(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.txt").write_text(P3_TEXT, encoding="utf-8")
    argv = ["cutcap", f"{name}.txt", "--k", "2", "--mode", "any", "--out", "out.json"]
    assert main(argv) == 0
    written = (tmp_path / "out.json").read_bytes()
    assert json.loads(written)["results"]["profile"]["source"] == f"kappa({name};edges)"
    calls = []

    def counted_reference(pset):
        calls.append(pset)
        return reference_profile_payload(pset)

    monkeypatch.setattr(serialize, "profile_payload", counted_reference)
    monkeypatch.setattr(serialize, "dumps", reference_dumps)
    assert main(argv) == 0
    assert len(calls) == 1
    assert (tmp_path / "out.json").read_bytes() == written


@pytest.mark.parametrize("golden_name", sorted(n for n in CASES if not n.startswith(("profile_", "cutcap_"))))
def test_reports_without_points_are_plain_json_dumps(golden_name):
    text = (GOLDEN / golden_name).read_text(encoding="utf-8")
    payload = json.loads(text)
    assert serialize.dumps(payload) == reference_dumps(payload) == text


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


@pytest.mark.parametrize("fmt", sorted(STAR6_CUTCAP_SHA256))
def test_mid_size_cutcap_report_digest(fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "star6.txt").write_text(STAR6_TEXT, encoding="utf-8")
    argv = ["cutcap", "star6.txt", "--k", "3", "--mode", "any", "--format", fmt, "--out", "out"]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == STAR6_CUTCAP_SHA256[fmt]


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
