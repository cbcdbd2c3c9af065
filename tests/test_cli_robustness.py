"""Seeded robustness harness for `cli.main`: random argv, documented exit codes only.

Each case draws a subcommand and then, for every option of that
subcommand's parser, whether to pass it and which value, so a flag added
to `build_parser()` is drawn without an edit here.  Values come from
bounded pools: family indices at most 6, k at most 3, a few samples and
trials, and the graph, graphon and config files of `test_cli`.  `verify
all` is never drawn.  The work caps are lowered to `SMALL_CAPS`, so a
drawn profile big enough to take seconds ends in the cap check instead.
A case passes when `main` returns 0, 1, 2 or 3, and exits 2 and 3
write exactly one stderr line; the only exception that may leave
`main` is `SystemExit(0)` from `--help` or `--version`.  A SIGALRM timer
fails a case that runs past its budget.
"""

import json
import random
import signal

import pytest

from quotientlab import config
from quotientlab.cli import build_parser, main
from test_cli import CONFIGS, TEXT_FILES

SEEDS, CASES_PER_SEED = 8, 100
SECONDS_PER_CASE = 20
# at the real caps, some profiles of indices up to 6 and k up to 3 run for seconds to minutes
SMALL_CAPS = {"GROUND_SIZE_CAP": 12, "ENUM_ITERATION_CAP": 1 << 14, "HOM_TARGET_NODE_CAP": 8}

# two more readable files: a 4-cycle and a two-step graphon
READABLE = {"c4.txt": "4 4\n0 1\n0 3\n1 2\n2 3\n", "w2.txt": "2\n1/2 1\n0 1\n1 1/2\n"}
GOOD = ["p3.txt", "k3.txt", "c4.txt", "sparse8.txt"]
BAD = sorted(TEXT_FILES.keys() - GOOD) + ["missing.txt", "", "x", "1.5", "-"]
MOTIFS = ["K2", "K3", "P3", "C4", "c4.txt", "nope"]

# values for options with a known meaning; every other option draws by its type
INT_POOLS = {
    "n": [0, 1, 2, 3, 4, 5, 6],
    "start": [0, 1, 2, 3],
    "end": [1, 2, 3, 6],
    "k": [0, 1, 2, 3],
    "q": [1, 2, 3, 4, 6],
    "samples": [0, 1, 16, 64],
    "seed": [0, 1, 7, -1],
    "trials": [-1, 0, 1, 3],
    "t_max": [0, 1, 2],
}
PATH_POOLS = {
    "out": ["out.json", "missing/x.json", "."],
    "csv_out": ["m", "missing/m"],
    "motif": MOTIFS,
    "graphon": ["w2.txt", "w2.txt", "zero-value.txt", "short-row.txt"],
    "config": sorted(CONFIGS) + ["drawn.json", "missing.json"],
}


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler inside `main` takes it."""


def _file(rng):
    return rng.choice(GOOD if rng.random() < 0.7 else BAD)


def _value(rng, action):
    """Mostly a value the option takes; now and then one it refuses."""
    if rng.random() < 0.05:
        return rng.choice(BAD)
    if action.choices is not None:
        return str(rng.choice(sorted(action.choices)))
    if action.type is int:
        return str(rng.choice(INT_POOLS.get(action.dest, [-1, 0, 1, 2])))
    return rng.choice(PATH_POOLS[action.dest]) if action.dest in PATH_POOLS else _file(rng)


def _option(rng, action):
    flag = rng.choice(action.option_strings)
    if action.nargs == 0:
        return [flag]
    if action.nargs == "+":
        return [flag] + [_file(rng) for _ in range(rng.randrange(1, 3))]
    value = _value(rng, action)
    return [f"{flag}={value}"] if rng.random() < 0.2 else [flag, value]


def _options(rng, parser, rate):
    drawn = [_option(rng, action) for action in parser.options.values()
             if rng.random() < (0.95 if action.required else rate)]
    rng.shuffle(drawn)
    return [token for option in drawn for token in option]


def draw_argv(rng, parser, commands):
    """Rarely a top-level option, a subcommand, its positionals, some of its options, rarely help."""
    name = rng.choice(sorted(commands))
    command = commands[name]
    positionals = [rng.choice(MOTIFS) if action.dest == "motif" else _file(rng)
                   for action in command._actions if not action.option_strings]
    argv = _options(rng, parser, 0.03) + [name] + positionals + _options(rng, command, 0.3)
    if rng.random() < 0.02:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--help", "-h"]))
    return argv


def draw_config(rng, commands):
    """A config of one or two options of any subcommand, with a drawn or a wrongly typed value."""
    actions = [action for parser in commands.values() for action in parser.options.values()]
    config = {}
    for action in rng.sample(actions, rng.randrange(1, 3)):
        if action.nargs == 0:
            value = rng.choice([True, False, "yes"])
        elif action.nargs == "+":
            value = rng.choice([[_file(rng)], _file(rng)])
        else:
            text = _value(rng, action)
            value = int(text) if action.type is int and text.lstrip("-").isdigit() else text
        config[action.dest] = value
    return config


def _on_alarm(signum, frame):
    raise CaseTimeout


@pytest.mark.parametrize("seed", range(SEEDS))
def test_random_argv_end_in_a_documented_exit(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, cap in SMALL_CAPS.items():
        monkeypatch.setattr(config, name, cap)
    for name, data in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    for name, text in {**TEXT_FILES, **READABLE}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    parser, commands = build_parser()
    rng = random.Random(seed)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for case in range(CASES_PER_SEED):
            (tmp_path / "drawn.json").write_text(json.dumps(draw_config(rng, commands)), encoding="utf-8")
            argv = draw_argv(rng, parser, commands)
            signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CASE)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = None
                assert exc.code == 0 and {"--help", "-h", "--version"} & set(argv), (case, argv, exc)
            except CaseTimeout:
                pytest.fail(f"case {case} ran past {SECONDS_PER_CASE} s: {argv}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err.splitlines()
            assert code in (None, 0, 1, 2, 3), (case, argv, code)
            if code in (2, 3):
                assert len(err) == 1, (case, argv, err)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_the_draws_cover_every_option():
    parser, commands = build_parser()
    drawn = set()
    for seed in range(SEEDS):
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            draw_config(rng, commands)
            drawn.update(token.split("=")[0] for token in draw_argv(rng, parser, commands))
    flags = {flag for p in (parser, *commands.values()) for action in p.options.values()
             for flag in action.option_strings}
    assert flags - drawn == set()
