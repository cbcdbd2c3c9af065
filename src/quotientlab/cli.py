"""Command-line front end.

Subcommands: profile, converge, verify, cutdist, hom, cutcap.  Reports
are canonical JSON (rationals as "num/den" strings next to float
renderings), so a rerun with the same flags and seeds is byte-identical;
`--format csv` switches the point/matrix payloads to CSV.  Defaults can
be preloaded from a JSON file via `--config` (flags still win).  Timings
go to stderr only.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import NoReturn

from . import __version__, serialize
from .errors import CapExceededError, GraphFormatError, QuotientLabError, StrategyError
from .graphon import StepGraphon, hom_density_step, parse_step_graphon
from .graphs import (
    CutNormalization,
    SimpleGraph,
    cut_capacity_oracle,
    cut_dist_labeled,
    cut_dist_unlabeled_upper,
    hom_density,
    parse_graph,
    shifted_tau_oracle,
)
from .metric import cauchy_diagnostic
from .profiles import EXACT, FLATS, Mode, Sampled, profile
from .sequences import (
    MOTIFS,
    complete_cycle_oracle,
    cutcap_blowup_oracle,
    example51_oracle,
    family_metadata,
    gf_space_oracle,
    tau_blowup_oracle,
)
from .suites import available_suites, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

FAMILIES = (
    "example51",
    "complete-cycle",
    "gf-space",
    "cutcap-blowup",
    "tau-blowup",
    "cutcap-files",
    "tau-files",
)


def _load_graph(path: str) -> SimpleGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"), name=Path(path).stem)


def _load_motif(name: str) -> SimpleGraph:
    if name in MOTIFS:
        return MOTIFS[name]
    return _load_graph(name)


def _strategy_from_args(args) -> object:
    if args.samples < 1:
        raise StrategyError(f"--samples must be at least 1, got {args.samples}")
    if args.strategy == "exact":
        return EXACT
    if args.strategy == "flats":
        return FLATS
    if args.strategy == "sampled":
        if args.seed is None:
            raise StrategyError("sampled strategy needs an explicit --seed")
        return Sampled(args.seed, args.samples)
    raise StrategyError(f"unknown strategy {args.strategy!r}")


def _indexed_file(args, index: int) -> str:
    if not args.graphs:
        raise StrategyError(f"{args.family} needs --graphs FILE [FILE ...]")
    if not 1 <= index <= len(args.graphs):
        raise StrategyError(
            f"index {index} outside the supplied list of {len(args.graphs)} graphs"
        )
    return args.graphs[index - 1]


def _family_oracle(args, index: int):
    if args.family == "example51":
        return example51_oracle(index)
    if args.family == "complete-cycle":
        return complete_cycle_oracle(index)
    if args.family == "gf-space":
        return gf_space_oracle(args.q, index)
    if args.family == "cutcap-blowup":
        if not args.graph:
            raise StrategyError("cutcap-blowup needs --graph FILE")
        return cutcap_blowup_oracle(_load_graph(args.graph), index, args.norm)
    if args.family == "tau-blowup":
        if not args.graph or not args.motif:
            raise StrategyError("tau-blowup needs --graph FILE and --motif NAME|FILE")
        return tau_blowup_oracle(_load_motif(args.motif), _load_graph(args.graph), index)
    if args.family == "cutcap-files":
        return cut_capacity_oracle(_load_graph(_indexed_file(args, index)), args.norm)
    if args.family == "tau-files":
        if not args.motif:
            raise StrategyError("tau-files needs --motif NAME|FILE")
        return shifted_tau_oracle(
            _load_motif(args.motif), _load_graph(_indexed_file(args, index))
        )
    raise StrategyError(f"unknown family {args.family!r}")


def _echo_params(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _profile_csv(pset) -> str:
    header = ",".join(f"I={m}" for m in range(1 << pset.k))
    return "\n".join([header, *map(",".join, serialize.point_rows(pset))]) + "\n"


def _emit_profile(args, pset, params) -> None:
    if args.format == "csv":
        serialize.write_text(args.out, _profile_csv(pset))
        return
    results = {"profile": serialize.profile_payload(pset)}
    meta = family_metadata(getattr(args, "family", ""), getattr(args, "n", -1))
    if meta:
        results["generator"] = meta
    payload = serialize.report(args.command, params, results)
    serialize.write_text(args.out, serialize.dumps(payload))


PROFILE_PARAM_KEYS = (
    "family", "n", "q", "k", "mode", "strategy", "seed", "samples", "norm",
    "graph", "motif", "graphs",
)


def cmd_profile(args) -> int:
    oracle = _family_oracle(args, args.n)
    pset = profile(oracle, args.k, Mode(args.mode), _strategy_from_args(args))
    _emit_profile(args, pset, _echo_params(args, PROFILE_PARAM_KEYS))
    return EXIT_OK


def cmd_converge(args) -> int:
    indices = range(args.start, args.end + 1)
    if not indices:
        raise StrategyError("empty index range")
    if args.start == args.end and (args.csv_out or args.format == "csv"):
        flag = "--csv-out" if args.csv_out else "--format csv"
        raise StrategyError(f"{flag} needs at least two members")
    strategy = _strategy_from_args(args)
    mode = Mode(args.mode)
    # every member's caps and files are checked before the first profile;
    # each oracle is dropped once profiled, so only one memo lives at a time
    oracles = [_family_oracle(args, n) for n in indices]
    psets = [profile(oracles.pop(0), args.k, mode, strategy) for _ in indices]
    labels = [str(n) for n in indices]
    diag = cauchy_diagnostic(psets) if len(psets) > 1 else None
    results = {
        "indices": list(indices),
        "point_counts": [len(p) for p in psets],
        "diagnostic": serialize.diagnostic_payload(diag) if diag else None,
        "verdict": diag.verdict if diag else "inconclusive",
    }
    if args.csv_out:
        for suffix, exact in ((".exact.csv", True), (".float.csv", False)):
            text = serialize.matrix_csv(diag.pairwise, labels, exact=exact)
            Path(args.csv_out + suffix).write_text(text, encoding="utf-8")
    certificates = {}
    for n in indices:
        meta = family_metadata(args.family, n)
        if meta:
            certificates[str(n)] = meta
    if certificates:
        results["generator"] = certificates
    if args.format == "csv":
        serialize.write_text(args.out, serialize.matrix_csv(diag.pairwise, labels, exact=True))
        return EXIT_OK
    params = _echo_params(args, ("family", "start", "end") + PROFILE_PARAM_KEYS[2:])
    serialize.write_text(args.out, serialize.dumps(serialize.report("converge", params, results)))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = available_suites() if args.suite == "all" else [args.suite]
    if any(name not in available_suites() for name in names):
        raise StrategyError(
            f"unknown suite {args.suite!r}; available: all, {', '.join(available_suites())}"
        )
    suites_payload = []
    all_passed = True
    for name in names:
        started = time.perf_counter()
        result = run_suite(name)
        elapsed = time.perf_counter() - started
        print(f"suite {name}: {elapsed:.2f}s", file=sys.stderr)
        for check in result.checks:
            status = "PASS" if check.passed else "FAIL"
            line = f"[{status}] {name}: {check.name}"
            if check.detail and not check.passed:
                line += f" ({check.detail})"
            print(line, file=sys.stderr)
        all_passed = all_passed and result.passed
        suites_payload.append(
            {
                "suite": name,
                "passed": result.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in result.checks
                ],
            }
        )
    payload = serialize.report(
        "verify", {"suite": args.suite}, {"passed": all_passed, "suites": suites_payload}
    )
    serialize.write_text(args.out, serialize.dumps(payload))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_cutdist(args) -> int:
    g = _load_graph(args.graph_a)
    h = _load_graph(args.graph_b)
    results: dict = {}
    if g.node_count == h.node_count:
        labeled = cut_dist_labeled(g, h)
        results["labeled"] = serialize.frac_str(labeled)
        results["labeled_float"] = float(labeled)
    if args.upper_bound or g.node_count != h.node_count:
        bound = cut_dist_unlabeled_upper(g, h, args.t_max, args.trials, args.seed)
        results["unlabeled_upper_bound"] = serialize.frac_str(bound.value)
        results["unlabeled_upper_bound_float"] = float(bound.value)
        results["bound_t"] = bound.t
        results["bound_mapping"] = list(bound.mapping)
        results["bound_truncated"] = bound.truncated
    payload = serialize.report(
        "cutdist",
        _echo_params(args, ("graph_a", "graph_b", "t_max", "trials", "seed", "upper_bound")),
        results,
    )
    serialize.write_text(args.out, serialize.dumps(payload))
    return EXIT_OK


def cmd_hom(args) -> int:
    motif = _load_motif(args.motif)
    results: dict = {}
    if args.graph:
        g = _load_graph(args.graph)
        density = hom_density(motif, g)
        results["density"] = serialize.frac_str(density)
        results["density_float"] = float(density)
        step_density = hom_density_step(motif, StepGraphon.from_graph(g))
        results["step_representation_density"] = serialize.frac_str(step_density)
        results["step_representation_consistent"] = step_density == density
    if args.graphon:
        w = parse_step_graphon(Path(args.graphon).read_text(encoding="utf-8"))
        wd = hom_density_step(motif, w)
        results["graphon_density"] = serialize.frac_str(wd)
        results["graphon_density_float"] = float(wd)
    if not results:
        raise StrategyError("hom needs --graph and/or --graphon")
    payload = serialize.report(
        "hom", _echo_params(args, ("motif", "graph", "graphon")), results
    )
    serialize.write_text(args.out, serialize.dumps(payload))
    return EXIT_OK


def cmd_cutcap(args) -> int:
    g = _load_graph(args.graph)
    oracle = cut_capacity_oracle(g, args.norm)
    pset = profile(oracle, args.k, Mode(args.mode), _strategy_from_args(args))
    _emit_profile(args, pset, _echo_params(args, ("graph", "k", "mode", "strategy", "seed", "samples", "norm")))
    return EXIT_OK


def _add_profile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.PARTITION.value)
    p.add_argument("--strategy", choices=("exact", "flats", "sampled"), default="exact")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--norm", choices=CutNormalization.ALL, default=CutNormalization.EDGES)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--q", type=int, default=2, help="field size for gf-space")
    p.add_argument("--graph", help="base graph file for blow-up families")
    p.add_argument("--motif", help="motif name (K2..C5) or file for tau families")
    p.add_argument("--graphs", nargs="+", help="graph files for the *-files families")


class _Parser(argparse.ArgumentParser):
    """An argument parser that keeps each option's action by destination
    and raises its usage errors, so they end in one stderr line."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.dest != "help":
            self.options[action.dest] = action
        return action

    def error(self, message: str) -> NoReturn:
        raise StrategyError(message)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog="quotientlab",
        description="Exact profile sets of setfunctions and Hausdorff convergence diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"quotientlab {__version__}")
    parser.add_argument(
        "--config",
        help="JSON file with default flag values (explicit flags take precedence)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="enumerate one profile set")
    _add_family_flags(p)
    p.add_argument("--n", type=int, required=True, help="family index")
    _add_profile_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_profile, command="profile")

    p = sub.add_parser("converge", help="pairwise Hausdorff diagnostics along a family")
    _add_family_flags(p)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--end", type=int, required=True)
    _add_profile_flags(p)
    p.add_argument("--out")
    p.add_argument("--csv-out", help="prefix for exact and float CSV matrices")
    p.set_defaults(fn=cmd_converge, command="converge")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify, command="verify")

    p = sub.add_parser("cutdist", help="labeled cut distance and blow-up upper bounds")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--t-max", type=int, default=1)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--upper-bound", action="store_true", help="also search blow-up bijections")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cutdist, command="cutdist")

    p = sub.add_parser("hom", help="exact homomorphism densities")
    p.add_argument("motif", help="motif name (K2..C5) or graph file")
    p.add_argument("--graph", help="target graph file")
    p.add_argument("--graphon", help="step graphon file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_hom, command="hom")

    p = sub.add_parser("cutcap", help="profile the cut-capacity setfunction of a graph")
    p.add_argument("graph")
    _add_profile_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cutcap, command="cutcap")

    return parser, sub.choices


def _extract_config(parser: _Parser, argv: list[str]) -> tuple[list[str], dict]:
    """Take `--config FILE` or `--config=FILE` out of argv, wherever it stands."""
    found = [i for i, arg in enumerate(argv) if arg == "--config" or arg.startswith("--config=")]
    if not found:
        return argv, {}
    if len(found) > 1:
        parser.error("--config may be given only once")
    i = found[0]
    if argv[i] == "--config":
        if i + 1 >= len(argv):
            parser.error("--config needs a file path")
        path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    else:
        path, rest = argv[i][len("--config="):], argv[:i] + argv[i + 1:]
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object of flag defaults")
    return rest, data


def _flag_value(action: argparse.Action, value):
    """Convert and check one config value as argparse does the flag's text."""
    text = value if isinstance(value, str) else json.dumps(value)
    converted = action.type(text) if action.type else text
    if action.choices is not None and converted not in action.choices:
        raise ValueError(text)
    return converted


def _config_defaults(command: _Parser, config: dict) -> dict:
    """The config entries naming options of `command`, checked like the flags.

    Values are JSON strings or numbers, lists of them for multi-value
    flags and true or false for switches; other entries are ignored.
    """
    defaults = {}
    for key, value in config.items():
        action = command.options.get(key)
        if action is None:
            continue
        switch, many = action.nargs == 0, action.nargs == "+"
        try:
            if switch != isinstance(value, bool) or many != isinstance(value, list):
                raise ValueError(value)
            items = [v if switch else _flag_value(action, v) for v in (value if many else [value])]
        except (TypeError, ValueError):
            command.error(
                f"config value {json.dumps(value)} is invalid for {action.option_strings[0]}"
            )
        defaults[key] = items if many else items[0]
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        argv, config = _extract_config(parser, argv)
        unknown = sorted(set(config).difference(*(sub.options for sub in commands.values())))
        if unknown:
            parser.error(f"config keys name no option of any subcommand: {', '.join(unknown)}")
        for sub in commands.values():
            sub.set_defaults(**_config_defaults(sub, config))
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            # Random(-s) is seeded as Random(s), so a negative seed would repeat its positive twin
            raise StrategyError(f"--seed must be at least 0, got {args.seed}")
        # an output path in a missing directory is refused before the work, not after it
        for path in filter(None, (args.out, getattr(args, "csv_out", None))):
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(f"no directory to write {path} in")
        started = time.perf_counter()
        code = args.fn(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (GraphFormatError, StrategyError, ValueError, OSError) as exc:
        # library functions raise ValueError on bad parameters (k, family
        # index, field size) and file access raises OSError
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuotientLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"total {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
