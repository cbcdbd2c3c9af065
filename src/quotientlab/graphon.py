"""Step graphons: symmetric piecewise-constant kernels on [0,1)^2.

A step graphon is given by breakpoints 0 = b_0 < ... < b_r = 1 and a
symmetric r x r matrix of rational values in [0,1].  Node subsets are
represented as masks over step indices; callers needing a finer subset
refine the graphon first so the subset respects step boundaries.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GraphFormatError
from .graphs import SimpleGraph, hom_sum, token_rows
from .setfn import SetFunctionOracle, check_mask


def _check_breakpoints(bp: tuple[Fraction, ...]) -> None:
    if len(bp) < 2 or bp[0] != 0 or bp[-1] != 1:
        raise ValueError("breakpoints must run from 0 to 1")
    if any(a >= b for a, b in zip(bp, bp[1:])):
        raise ValueError("breakpoints must be strictly increasing")


def _check_value_row(earlier: Sequence[Sequence[Fraction]], row: Sequence[Fraction]) -> None:
    """Row i of the value matrix: entries in [0,1] and equal to column i of the rows before it."""
    if any(not 0 <= v <= 1 for v in row):
        raise ValueError("values must lie in [0,1]")
    i = len(earlier)
    if any(above[i] != v for above, v in zip(earlier, row)):
        raise ValueError("value matrix must be symmetric")


@dataclass(frozen=True)
class StepGraphon:
    breakpoints: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_breakpoints(self.breakpoints)
        r = len(self.breakpoints) - 1
        if len(self.values) != r or any(len(row) != r for row in self.values):
            raise ValueError("value matrix must be r x r")
        for i, row in enumerate(self.values):
            _check_value_row(self.values[:i], row)

    @property
    def steps(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def lengths(self) -> tuple[Fraction, ...]:
        bp = self.breakpoints
        return tuple(b - a for a, b in zip(bp, bp[1:]))

    @classmethod
    def constant(cls, p: Fraction | int) -> "StepGraphon":
        return cls((Fraction(0), Fraction(1)), ((Fraction(p),),))

    @classmethod
    def from_graph(cls, g: SimpleGraph) -> "StepGraphon":
        """Equal steps of width 1/n; value 1 on adjacent blocks, 0 otherwise."""
        n = g.node_count
        if n == 0:
            raise ValueError("graphon representation needs at least one node")
        bp = tuple(Fraction(i, n) for i in range(n + 1))
        vals = [
            [Fraction(1) if g.adjacency[i] >> j & 1 else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
        return cls(bp, tuple(tuple(row) for row in vals))

    def refine(self, extra: Iterable[Fraction]) -> "StepGraphon":
        """Equivalent graphon on the breakpoint grid extended by `extra`."""
        pts = sorted(set(self.breakpoints) | {Fraction(x) for x in extra})
        if pts[0] < 0 or pts[-1] > 1:
            raise ValueError("refinement points must lie in [0,1]")
        # the old step i holding [x, next point): breakpoints[i] <= x < breakpoints[i + 1], as 0 <= x < 1
        owners = [bisect_right(self.breakpoints, x) - 1 for x in pts[:-1]]
        vals = tuple(
            tuple(self.values[oi][oj] for oj in owners) for oi in owners
        )
        return StepGraphon(tuple(pts), vals)

    def total_weight(self) -> Fraction:
        lens = self.lengths
        return sum(
            self.values[i][j] * lens[i] * lens[j]
            for i in range(self.steps)
            for j in range(self.steps)
        )


def graphon_cut_capacity(w: StepGraphon, step_mask: int) -> Fraction:
    """Weight crossing a union of steps, divided by the total weight."""
    check_mask(step_mask, w.steps)
    total = w.total_weight()
    if total == 0:
        raise ZeroDivisionError("cut capacity of a graphon needs positive total weight")
    lens = w.lengths
    crossing = Fraction(0)
    for i in range(w.steps):
        if not step_mask >> i & 1:
            continue
        for j in range(w.steps):
            if step_mask >> j & 1:
                continue
            crossing += w.values[i][j] * lens[i] * lens[j]
    return crossing / total


def graphon_cut_capacity_oracle(w: StepGraphon) -> SetFunctionOracle:
    """Cut capacity of a step graphon as a setfunction on its step indices.

    Lets the profile machinery enumerate quotient sets of the graphon;
    parts finer than the current steps require refining first.  Each
    step pair's share w_ij * l_i * l_j / total is an integer multiple of
    the shares' least common denominator, which the oracle takes as its
    denominator, so a value's numerator is an int sum over crossing pairs.
    """
    total = w.total_weight()
    if total == 0:
        raise ZeroDivisionError("cut capacity of a graphon needs positive total weight")
    lens, steps = w.lengths, range(w.steps)
    shares = [[w.values[i][j] * lens[i] * lens[j] / total for j in steps] for i in steps]
    den = math.lcm(*(x.denominator for row in shares for x in row))
    weights = [[x.numerator * (den // x.denominator) for x in row] for row in shares]

    def crossing(mask: int) -> int:
        return sum(
            weights[i][j]
            for i in steps if mask >> i & 1
            for j in steps if not mask >> j & 1
        )

    return SetFunctionOracle(w.steps, crossing, den, label=f"kappa(step-graphon r={w.steps})")


def hom_density_step(pattern: SimpleGraph, w: StepGraphon) -> Fraction:
    """Exact motif density in a step graphon (weighted sum over step maps)."""
    return Fraction(hom_sum(pattern, w.lengths, lambda a, b: w.values[a][b]))


def parse_step_graphon(text: str) -> StepGraphon:
    """Parse a line r, then the r breakpoints b_1..b_r, then exactly r rows of r rationals.

    Lines are read as `parse_graph` reads them: "#" lines are comments, and
    errors name the line of the file.
    """
    rows = token_rows(text)
    if not rows:
        raise GraphFormatError(1, "empty graphon file")
    (number, header), rest = rows[0], rows[1:]
    try:
        (r,) = map(int, header)
    except ValueError:
        raise GraphFormatError(number, "first line must be the number of steps") from None
    if r < 1:
        raise GraphFormatError(number, "the number of steps must be positive")
    if len(rest) != 1 + r:
        number = rest[1 + r][0] if len(rest) > 1 + r else rows[-1][0]
        raise GraphFormatError(
            number, f"expected a breakpoints line and {r} value rows after the step count, "
                    f"found {len(rest)} lines")
    (number, bp_tokens), value_rows = rest[0], rest[1:]
    try:
        breakpoints = (Fraction(0), *(Fraction(tok) for tok in bp_tokens))
    except (ValueError, ZeroDivisionError):
        raise GraphFormatError(number, "breakpoints must be rationals like 1/3") from None
    if len(breakpoints) != r + 1:
        raise GraphFormatError(number, f"expected {r} breakpoints")
    try:
        _check_breakpoints(breakpoints)
    except ValueError as exc:
        raise GraphFormatError(number, str(exc)) from None
    values: list[tuple[Fraction, ...]] = []
    for number, toks in value_rows:
        if len(toks) != r:
            raise GraphFormatError(number, f"expected {r} values")
        try:
            row = tuple(Fraction(tok) for tok in toks)
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError(number, "values must be rationals") from None
        try:
            _check_value_row(values, row)
        except ValueError as exc:
            raise GraphFormatError(number, str(exc)) from None
        values.append(row)
    return StepGraphon(breakpoints, tuple(values))


def format_step_graphon(w: StepGraphon) -> str:
    lines = [str(w.steps)]
    lines.append(" ".join(str(b) for b in w.breakpoints[1:]))
    for row in w.values:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
