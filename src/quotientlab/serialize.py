"""Report serialization: canonical JSON and CSV with exact rationals.

Rationals are serialized as "num/den" strings (lowest terms, positive
denominator) next to a float rendering where convenient.  Reports are
`json.dumps(..., sort_keys=True, indent=2, ensure_ascii=False)` text, so
identical runs produce identical bytes.  A profile's points, the bulk of
its report, are written by `ProfilePoints` from the sorted int tuples, one
`str.join` per point, and spliced by `dumps` into the encoder's output
with the same bytes; `--format csv` joins the same rows with commas.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__

FORMAT_VERSION = 1
INDENT = "  "


def ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def frac_str(x: Fraction | int) -> str:
    return ratio_str(x.numerator, x.denominator)


class ProfilePoints:
    """A profile's points in coordinate order, each distinct numerator formatted once.

    `text` maps every numerator a point holds, 0 (coordinate 0) included,
    to its "num/den" string.  `profile_payload` puts the object where the
    points list goes and `dumps` writes it through its `json` method.
    """

    def __init__(self, pset) -> None:
        self.rows = sorted(pset.nums)
        self.text = {x: ratio_str(x, pset.den) for x in {0}.union(*self.rows)}

    def lines(self, head: str = "", sep: str = ",", tail: str = "", quote: str = "") -> list[str]:
        """One string per point: head, its cells quoted and joined by sep, then tail."""
        cells = {x: sep + quote + s + quote for x, s in self.text.items()}
        first = head + quote + self.text[0] + quote
        return ["".join([first, *map(cells.__getitem__, row), tail]) for row in self.rows]

    def json(self, margin: str) -> str:
        """The points list as `json.dumps` writes it on a line indented by margin.

        A "num/den" string holds only digits, "-" and "/", so quoting it needs no escape.
        """
        if not self.rows:
            return "[]"
        row = "\n" + margin + INDENT
        cell = row + INDENT
        points = self.lines("[" + cell, "," + cell, row + "]", '"')
        return "[" + row + ("," + row).join(points) + "\n" + margin + "]"


def profile_payload(pset) -> dict:
    points = ProfilePoints(pset)
    text = points.text  # holds every numerator, 0 included, and den > 0: the extremes are its end keys
    summary = {
        "count": len(points.rows),
        "coord_min": text[min(text)] if points.rows else None,
        "coord_max": text[max(text)] if points.rows else None,
    }
    return {
        "format": "profile-set",
        "version": FORMAT_VERSION,
        "k": pset.k,
        "mode": pset.mode.value,
        "strategy": pset.strategy,
        "source": pset.source,
        "summary": summary,
        "points": points,
    }


def diagnostic_payload(diag) -> dict:
    return {
        "pairwise": [[frac_str(d) for d in row] for row in diag.pairwise],
        "pairwise_float": [[float(d) for d in row] for row in diag.pairwise],
        "tail_sup": [frac_str(t) for t in diag.tail_sup],
        "verdict": diag.verdict,
        "consistency_factor": frac_str(diag.consistency_factor),
        "divergence_factor": frac_str(diag.divergence_factor),
        "witness": list(diag.witness) if diag.witness else None,
    }


def matrix_csv(matrix: Sequence[Sequence[Fraction]], labels: Sequence[str], exact: bool = True) -> str:
    head = "," + ",".join(labels)
    lines = [head]
    for label, row in zip(labels, matrix):
        if exact:
            cells = [frac_str(x) for x in row]
        else:
            cells = [repr(float(x)) for x in row]
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def report(command: str, params: dict, results: dict) -> dict:
    return {
        "tool": {"name": "quotientlab", "version": __version__},
        "format_version": FORMAT_VERSION,
        "command": command,
        "params": params,
        "results": results,
    }


def dumps(payload: dict) -> str:
    """The payload as canonical JSON text, `ProfilePoints` values written by their own `json`.

    The encoder asks `default` for a value it cannot write just before it
    yields that value's chunk, so the chunk after each call is the one to
    replace: no placeholder text is searched for, and none can collide
    with a string of the report.  No string chunk holds a raw newline, so
    the last chunk with one ends in the margin of the line being written.
    """
    pending: list[ProfilePoints] = []

    def default(o):
        if not isinstance(o, ProfilePoints):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        pending.append(o)
        return ""

    encoder = json.JSONEncoder(sort_keys=True, indent=INDENT, ensure_ascii=False, default=default)
    out: list[str] = []
    for chunk in encoder.iterencode(payload):
        if pending:
            line = next((c for c in reversed(out) if "\n" in c), "")
            chunk = pending.pop().json(line.rpartition("\n")[2])
        out.append(chunk)
    out.append("\n")
    return "".join(out)


def write_text(path: str | None, text: str) -> None:
    if path is None:
        print(text, end="")
    else:
        Path(path).write_text(text, encoding="utf-8")
