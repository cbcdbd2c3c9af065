"""Report serialization: canonical JSON and CSV with exact rationals.

Rationals are serialized as "num/den" strings (lowest terms, positive
denominator) next to a float rendering where convenient.  Points are
sorted before serialization, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__

FORMAT_VERSION = 1


def ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def frac_str(x: Fraction | int) -> str:
    return ratio_str(x.numerator, x.denominator)


def point_rows(pset) -> list[list[str]]:
    """A profile's points in coordinate order as strings, each distinct numerator formatted once."""
    rows = sorted(pset.nums)
    text = {x: ratio_str(x, pset.den) for x in {0}.union(*rows)}
    return [[text[0], *map(text.__getitem__, row)] for row in rows]


def profile_payload(pset) -> dict:
    nums, den = pset.nums, pset.den
    # coordinate 0 of every point is 0, so it takes part in the extremes
    summary = {
        "count": len(nums),
        "coord_min": ratio_str(min(0, min(map(min, nums))), den) if nums else None,
        "coord_max": ratio_str(max(0, max(map(max, nums))), den) if nums else None,
    }
    return {
        "format": "profile-set",
        "version": FORMAT_VERSION,
        "k": pset.k,
        "mode": pset.mode.value,
        "strategy": pset.strategy,
        "source": pset.source,
        "summary": summary,
        "points": point_rows(pset),
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
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_text(path: str | None, text: str) -> None:
    if path is None:
        print(text, end="")
    else:
        Path(path).write_text(text, encoding="utf-8")
