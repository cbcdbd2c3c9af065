"""CLI surface: subcommands, formats, exit codes, reproducibility."""

import json
from pathlib import Path

import pytest

from quotientlab.cli import main


def run(args):
    return main(args)


@pytest.fixture()
def k3_file(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text("3 3\n0 1\n0 2\n1 2\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def k2_file(tmp_path):
    p = tmp_path / "k2.txt"
    p.write_text("2 1\n0 1\n", encoding="utf-8")
    return str(p)


def test_profile_gf_space(tmp_path):
    out = tmp_path / "p.json"
    code = run([
        "profile", "--family", "gf-space", "--q", "2", "--n", "2",
        "--k", "2", "--mode", "partition", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["profile"]["summary"]["count"] == 4
    assert ["0/1", "1/2", "1/1", "1/1"] in payload["results"]["profile"]["points"]


def test_profile_complete_cycle_k1(tmp_path):
    out = tmp_path / "p.json"
    code = run([
        "profile", "--family", "complete-cycle", "--n", "1",
        "--k", "1", "--mode", "partition", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["profile"]["points"] == [["0/1", "1/1"]]


def test_profile_example51_contains_two_tree_point(tmp_path):
    out = tmp_path / "p.json"
    code = run([
        "profile", "--family", "example51", "--n", "8",
        "--k", "2", "--mode", "partition", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert ["0/1", "7/8", "7/8", "7/8"] in payload["results"]["profile"]["points"]


def test_converge_writes_matrix_and_verdict(tmp_path):
    out = tmp_path / "c.json"
    csv_prefix = str(tmp_path / "mat")
    code = run([
        "converge", "--family", "example51", "--start", "5", "--end", "9",
        "--k", "2", "--mode", "partition", "--out", str(out),
        "--csv-out", csv_prefix,
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["verdict"] == "diverging"
    exact = Path(csv_prefix + ".exact.csv").read_text()
    assert "31/72" in exact
    assert Path(csv_prefix + ".float.csv").exists()


def test_converge_csv_format_is_the_exact_matrix_csv(tmp_path):
    args = ["converge", "--family", "example51", "--start", "3", "--end", "5", "--k", "2",
            "--mode", "partition"]
    out, csv_prefix = tmp_path / "c.csv", str(tmp_path / "mat")
    assert run(args + ["--format", "csv", "--out", str(out)]) == 0
    assert run(args + ["--csv-out", csv_prefix, "--out", str(tmp_path / "c.json")]) == 0
    exact = Path(csv_prefix + ".exact.csv").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == exact
    assert len(exact.splitlines()) == 4  # a header and one row per member


def test_converge_single_member_inconclusive(tmp_path):
    out = tmp_path / "c.json"
    code = run([
        "converge", "--family", "gf-space", "--start", "2", "--end", "2",
        "--k", "2", "--mode", "partition", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["verdict"] == "inconclusive"
    assert payload["results"]["diagnostic"] is None


def test_verify_suite_pass(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "limit-filter", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["passed"] is True


def test_verify_unknown_suite():
    assert run(["verify", "no-such-suite"]) == 2


def test_cutdist_labeled(tmp_path, k2_file):
    empty = tmp_path / "empty2.txt"
    empty.write_text("2 0\n", encoding="utf-8")
    out = tmp_path / "d.json"
    assert run(["cutdist", k2_file, str(empty), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["labeled"] == "1/2"


def test_cutdist_blowup_alignment(tmp_path, k2_file):
    c4 = tmp_path / "c4.txt"
    c4.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n", encoding="utf-8")
    out = tmp_path / "d.json"
    assert run(["cutdist", k2_file, str(c4), "--t-max", "1", "--trials", "8",
                "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["unlabeled_upper_bound"] == "0/1"


def test_cutdist_two_empty_graphs_at_once(tmp_path):
    empty = tmp_path / "empty0.txt"
    empty.write_text("0 0\n", encoding="utf-8")
    out = tmp_path / "d.json"
    assert run(["cutdist", str(empty), str(empty), "--upper-bound", "--t-max", "1000000000",
                "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert results["labeled"] == results["unlabeled_upper_bound"] == "0/1"
    assert results["bound_truncated"] is False


def test_cutdist_parse_error_exit_code(tmp_path, k3_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n", encoding="utf-8")
    assert run(["cutdist", str(bad), k3_file]) == 2


def test_hom_graph_and_graphon(tmp_path, k3_file):
    graphon = tmp_path / "half.txt"
    graphon.write_text("1\n1\n1/2\n", encoding="utf-8")
    out = tmp_path / "h.json"
    assert run(["hom", "K3", "--graph", k3_file, "--graphon", str(graphon),
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["density"] == "2/9"
    assert payload["results"]["step_representation_consistent"] is True
    assert payload["results"]["graphon_density"] == "1/8"


def test_hom_edgeless_motif(tmp_path, k3_file):
    empty2 = tmp_path / "e2.txt"
    empty2.write_text("2 0\n", encoding="utf-8")
    out = tmp_path / "h.json"
    assert run(["hom", str(empty2), "--graph", k3_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["density"] == "1/1"


def test_cutcap_profile(tmp_path):
    c4 = tmp_path / "c4.txt"
    c4.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n", encoding="utf-8")
    out = tmp_path / "cc.json"
    assert run(["cutcap", str(c4), "--k", "2", "--mode", "partition",
                "--norm", "edges", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    points = payload["results"]["profile"]["points"]
    assert ["0/1", "1/2", "1/2", "0/1"] in points


def test_cap_exceeded_exit_code():
    assert run(["profile", "--family", "gf-space", "--q", "2", "--n", "4",
                "--k", "2", "--mode", "any", "--strategy", "exact"]) == 3


def test_sampled_needs_seed():
    assert run(["profile", "--family", "gf-space", "--q", "2", "--n", "2",
                "--k", "2", "--mode", "partition", "--strategy", "sampled"]) == 2


def test_reports_byte_identical(tmp_path, k2_file):
    invocations = [
        ["profile", "--family", "gf-space", "--q", "2", "--n", "3",
         "--k", "2", "--mode", "partition"],
        ["profile", "--family", "gf-space", "--q", "2", "--n", "3",
         "--k", "2", "--mode", "disjoint", "--strategy", "sampled",
         "--seed", "11", "--samples", "64"],
        ["converge", "--family", "example51", "--start", "5", "--end", "8",
         "--k", "2", "--mode", "partition"],
        ["cutcap", k2_file, "--k", "2", "--mode", "partition", "--norm",
         "nodes-squared"],
        ["hom", "K2", "--graph", k2_file],
    ]
    for i, args in enumerate(invocations):
        out1 = tmp_path / f"a{i}.json"
        out2 = tmp_path / f"b{i}.json"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), args


# config files with values their flags reject: a non-integer k, a mode
# outside the choices, a non-numeric count, a non-boolean switch, and a
# single string for a multi-value flag; then two valid files, given twice
CONFIGS = {
    "float-k.json": {"k": 2.5},
    "bad-mode.json": {"mode": "sideways"},
    "text-samples.json": {"samples": "many"},
    "text-switch.json": {"upper_bound": "yes"},
    "scalar-list.json": {"graphs": "a.txt"},
    "unknown-key.json": {"kk": 3},
    "k1.json": {"k": 1},
    "k3.json": {"k": 3},
}

# step graphon files with a zero denominator in a breakpoint or a value,
# and with rows after the value rows;
# graph files with an edge in both orientations and with one edge line
# too many; a valid 8-node graph whose 2-fold blow-up exceeds
# HOM_TARGET_NODE_CAP (also a valid cutdist input); P3 and K3, whose
# cut-distance search with 10^8 trials plans more calls than
# ENUM_ITERATION_CAP
TEXT_FILES = {
    "zero-breakpoint.txt": "1\n1/0\n1/2\n",
    "zero-value.txt": "1\n1\n1/0\n",
    "extra-row.txt": "1\n1\n1/2\n0 0 0\nrubbish\n",
    "both-orientations.txt": "3 2\n0 1\n1 0\n",
    "extra-edge.txt": "3 1\n0 1\n1 2\n",
    "sparse8.txt": "8 1\n0 1\n",
    "p3.txt": "3 2\n0 1\n1 2\n",
    "k3.txt": "3 3\n0 1\n0 2\n1 2\n",
    "empty0.txt": "0 0\n",
    "empty.txt": "",
    "letter-endpoint.txt": "2 1\n0 x\n",
    "far-endpoint.txt": "2 1\n0 5\n",
    "short-row.txt": "2\n1/2 1\n0 1\n1\n",
    "huge-header.txt": "100000000000 0\n",
}


@pytest.mark.parametrize("args, code, prefix", [
    (["profile", "--family", "gf-space", "--n", "2", "--k", "0"], 2, "usage error:"),
    (["profile", "--family", "example51", "--n", "0"], 2, "usage error:"),
    (["profile", "--family", "gf-space", "--q", "6", "--n", "2"], 2, "usage error:"),
    (["profile", "--family", "gf-space", "--n", "2", "--samples", "-5"], 2, "usage error:"),
    (["profile", "--family", "gf-space", "--n", "2", "--samples", "0",
      "--strategy", "sampled", "--seed", "1"], 2, "usage error:"),
    (["profile", "--family", "cutcap-blowup", "--graph", "missing.txt", "--n", "2"],
     2, "usage error:"),
    (["profile", "--family", "gf-space", "--n", "2", "--k", "9"], 3, "cap exceeded:"),
    (["converge", "--family", "example51", "--start", "0", "--end", "2"], 2, "usage error:"),
    (["cutcap", "missing.txt"], 2, "usage error:"),
    (["cutdist", "missing.txt", "missing.txt"], 2, "usage error:"),
    (["hom", "K2", "--graphon", "missing.txt"], 2, "usage error:"),
    (["verify", "no-such-suite"], 2, "usage error:"),
    (["profile", "--family", "gf-space", "--n", "0"], 2, "usage error:"),
    (["profile", "--family", "gf-space", "--n", "5"], 3, "cap exceeded:"),
    (["profile", "--family", "complete-cycle", "--n", "7"], 3, "cap exceeded:"),
    (["--config", "float-k.json", "profile", "--family", "gf-space", "--n", "2"],
     2, "usage error:"),
    (["--config", "bad-mode.json", "profile", "--family", "gf-space", "--n", "2"],
     2, "usage error:"),
    (["--config", "text-samples.json", "profile", "--family", "gf-space", "--n", "2"],
     2, "usage error:"),
    (["--config", "text-switch.json", "cutdist", "missing.txt", "missing.txt"],
     2, "usage error:"),
    (["--config", "scalar-list.json", "converge", "--family", "cutcap-files",
      "--start", "1", "--end", "2"], 2, "usage error:"),
    (["profile", "--family", "not-a-family", "--n", "1"], 2, "usage error:"),
    (["--config=float-k.json", "profile", "--family", "gf-space", "--n", "2"],
     2, "usage error:"),
    (["profile", "--family", "gf-space", "--n", "2", "--config=bad-mode.json"],
     2, "usage error:"),
    (["--config", "unknown-key.json", "profile", "--family", "gf-space", "--n", "2"],
     2, "usage error:"),
    (["hom", "K2", "--graphon", "zero-breakpoint.txt"], 2, "usage error:"),
    (["hom", "K2", "--graphon", "zero-value.txt"], 2, "usage error:"),
    (["cutcap", "both-orientations.txt"], 2, "usage error:"),
    (["hom", "K2", "--graph", "extra-edge.txt"], 2, "usage error:"),
    (["--config", "k1.json", "--config", "k3.json", "profile", "--family", "gf-space",
      "--n", "2"], 2, "usage error:"),
    (["profile", "--family", "gf-space", "--n", "2", "--config", "k1.json",
      "--config=k3.json"], 2, "usage error:"),
    (["profile", "--family", "example51", "--n", "6", "--strategy", "sampled",
      "--seed", "1", "--samples", "300000000"], 3, "cap exceeded:"),
    (["profile", "--family", "tau-blowup", "--graph", "sparse8.txt", "--motif", "K2",
      "--n", "2", "--k", "1"], 3, "cap exceeded:"),
    (["hom", "K2", "--graphon", "extra-row.txt"], 2, "usage error:"),
    (["cutdist", "sparse8.txt", "sparse8.txt", "--upper-bound", "--trials", "-3"],
     2, "usage error:"),
    (["cutdist", "p3.txt", "k3.txt", "--upper-bound", "--trials", "100000000"],
     3, "cap exceeded:"),
    (["cutdist", "empty0.txt", "k3.txt"], 2, "usage error:"),
    (["cutdist", "k3.txt", "empty0.txt", "--upper-bound"], 2, "usage error:"),
    (["cutcap", "empty0.txt", "--norm", "nodes-squared"], 2, "error: nodes-squared"),
    (["profile", "--family", "cutcap-files", "--graphs", "empty0.txt", "--n", "1",
      "--norm", "nodes-squared"], 2, "error: nodes-squared"),
    (["converge", "--family", "example51", "--start", "2", "--end", "2", "--csv-out", "m"],
     2, "usage error:"),
    # gf(2)^5 exceeds GROUND_SIZE_CAP, so a refusal after the profile would be a cap error
    (["converge", "--family", "gf-space", "--start", "5", "--end", "5", "--format", "csv"],
     2, "usage error:"),
    (["converge", "--family", "gf-space", "--start", "5", "--end", "5", "--csv-out", "m"],
     2, "usage error:"),
    (["cutcap", "empty.txt"], 2, "usage error: line 1: missing header"),
    (["cutcap", "letter-endpoint.txt"], 2, "usage error: line 2: edge lines must be two integers"),
    (["cutcap", "far-endpoint.txt"], 2, "usage error: line 2: endpoint out of range 0..1"),
    (["hom", "K2", "--graphon", "empty.txt"], 2, "usage error: line 1: empty graphon file"),
    (["hom", "K2", "--graphon", "short-row.txt"], 2, "usage error: line 4: expected 2 values"),
    (["cutdist", "p3.txt", "k3.txt", "--upper-bound", "--t-max", "0"],
     2, "usage error: t_max must be positive"),
    (["profile", "--family", "complete-cycle", "--n", "0"], 2, "usage error: family index must be positive"),
    (["hom", "K2", "--graph", "empty0.txt"], 2, "usage error: homomorphism density needs a nonempty target"),
    (["profile", "--family", "tau-files", "--motif", "K2", "--graphs", "empty0.txt", "--n", "1"],
     2, "usage error: homomorphism density needs a nonempty target"),
    # the header's node count is refused before a node is allocated
    (["cutcap", "huge-header.txt", "--k", "2"],
     3, "cap exceeded: graph huge-header needs 100000000000, cap GROUND_SIZE_CAP=24"),
    (["hom", "K2", "--graph", "huge-header.txt"],
     3, "cap exceeded: graph huge-header needs 100000000000, cap GROUND_SIZE_CAP=24"),
    # every member's oracle is built, and its caps checked, before the range is listed or profiled
    (["converge", "--family", "example51", "--start", "1", "--end", "1000000000000", "--k", "2"],
     3, "cap exceeded: ground set needs 26, cap GROUND_SIZE_CAP=24"),
    # member 4's profile would exceed ENUM_ITERATION_CAP, but member 14's oracle is refused first
    (["converge", "--family", "example51", "--start", "4", "--end", "14", "--k", "8"],
     3, "cap exceeded: ground set needs 26, cap GROUND_SIZE_CAP=24"),
    # a range longer than sys.maxsize is never measured with len()
    (["converge", "--family", "example51", "--start", "1", "--end", "99999999999999999999", "--k", "2"],
     3, "cap exceeded: ground set needs 26, cap GROUND_SIZE_CAP=24"),
])
def test_bad_input_exit_code_and_one_stderr_line(args, code, prefix, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, data in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    for name, text in TEXT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run(args + ["--out", "out.json"]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    assert not (tmp_path / "out.json").exists()


# usage errors that stop a command before any output, with the reason each names
USAGE_ERRORS = {
    "cutcap-files-without-graphs": (
        ["profile", "--family", "cutcap-files", "--n", "1"], "needs --graphs"),
    "tau-files-without-graphs": (
        ["profile", "--family", "tau-files", "--motif", "K2", "--n", "1"], "needs --graphs"),
    "cutcap-files-index-above-list": (
        ["profile", "--family", "cutcap-files", "--graphs", "k3.txt", "--n", "2"],
        "index 2 outside"),
    "tau-files-index-below-list": (
        ["profile", "--family", "tau-files", "--motif", "K2", "--graphs", "k3.txt", "--n", "0"],
        "index 0 outside"),
    "cutcap-blowup-without-graph": (
        ["profile", "--family", "cutcap-blowup", "--n", "2"], "needs --graph"),
    "tau-blowup-without-motif": (
        ["profile", "--family", "tau-blowup", "--graph", "k3.txt", "--n", "2"], "--motif"),
    "tau-files-without-motif": (
        ["profile", "--family", "tau-files", "--graphs", "k3.txt", "--n", "1"], "needs --motif"),
    "converge-start-above-end": (
        ["converge", "--family", "gf-space", "--start", "3", "--end", "2"], "empty index range"),
    "converge-csv-one-member": (
        ["converge", "--family", "gf-space", "--start", "2", "--end", "2", "--format", "csv"],
        "at least two members"),
    "hom-without-target": (["hom", "K2"], "needs --graph and/or --graphon"),
    "config-without-path": (
        ["profile", "--family", "gf-space", "--n", "2", "--config"], "needs a file path"),
    "config-directory": (
        ["--config", "a-directory", "profile", "--family", "gf-space", "--n", "2"],
        "cannot read config"),
    "config-not-an-object": (
        ["--config", "list.json", "profile", "--family", "gf-space", "--n", "2"],
        "must hold a JSON object"),
    # Random(-s) seeds as Random(s) does, so a negative seed is refused, from a flag or a config
    "profile-negative-seed": (
        ["profile", "--family", "gf-space", "--n", "2", "--strategy", "sampled", "--seed=-1"],
        "--seed must be at least 0, got -1"),
    "cutdist-negative-seed": (
        ["cutdist", "k3.txt", "k3.txt", "--seed", "-3"], "--seed must be at least 0, got -3"),
    "config-negative-seed-converge": (
        ["--config", "negative-seed.json", "converge", "--family", "gf-space", "--start", "1",
         "--end", "2"], "--seed must be at least 0, got -1"),
    "config-negative-seed-cutdist": (
        ["--config", "negative-seed.json", "cutdist", "k3.txt", "k3.txt", "--upper-bound"],
        "--seed must be at least 0, got -1"),
}


@pytest.mark.parametrize("args, reason", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_2_with_one_stderr_line_and_no_stdout(
    args, reason, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.txt").write_text(TEXT_FILES["k3.txt"], encoding="utf-8")
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "negative-seed.json").write_text('{"seed": -1}', encoding="utf-8")
    assert run(args) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:") and reason in lines[0], lines
    assert captured.out == ""


@pytest.mark.parametrize("family, n", [("complete-cycle", "6"), ("example51", "12"),
                                       ("example51", "19")])
def test_sampled_any_profile_skips_flats_beyond_their_caps(family, n, tmp_path):
    # 21 and 22 elements exceed FLAT_GROUND_CAP; ex51[19] has more than FLAT_COUNT_CAP flats
    out = tmp_path / "p.json"
    assert run(["profile", "--family", family, "--n", n, "--k", "2", "--mode", "any",
                "--strategy", "sampled", "--seed", "1", "--samples", "10",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["profile"]["summary"]["count"] > 0


def test_k3_blowup_t6_profile_within_cap(tmp_path, k3_file):
    # 3^18 labeled partitions, but 28^3 = 21,952 orbits of the blow-up's twin swaps
    out = tmp_path / "b.json"
    assert run(["profile", "--family", "cutcap-blowup", "--graph", k3_file,
                "--n", "6", "--k", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["profile"]["summary"]["count"] == 3118


def test_config_sets_defaults_and_flags_win(tmp_path):
    config = tmp_path / "k3.json"
    config.write_text(json.dumps({"k": 3, "mode": "any"}), encoding="utf-8")
    base = ["--config", str(config), "profile", "--family", "gf-space", "--n", "2"]
    from_config = tmp_path / "config.json"
    from_flag = tmp_path / "flag.json"
    assert run(base + ["--out", str(from_config)]) == 0
    assert run(base + ["--k", "2", "--out", str(from_flag)]) == 0
    params = json.loads(from_config.read_text())["params"]
    assert (params["k"], params["mode"]) == (3, "any")
    params = json.loads(from_flag.read_text())["params"]
    assert (params["k"], params["mode"]) == (2, "any")


@pytest.mark.parametrize("where", ["before", "after"])
def test_config_equals_form_before_or_after_the_command(where, tmp_path):
    config = tmp_path / "k3.json"
    config.write_text(json.dumps({"k": 3}), encoding="utf-8")
    out = tmp_path / "p.json"
    command = ["profile", "--family", "gf-space", "--n", "2", "--out", str(out)]
    flag = [f"--config={config}"]
    assert run(flag + command if where == "before" else command + flag) == 0
    assert json.loads(out.read_text())["params"]["k"] == 3
