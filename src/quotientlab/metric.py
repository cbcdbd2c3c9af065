"""Sup-norm Hausdorff distances between finite rational point clouds.

Everything is brute force and exact: distances between quotient points
are maxima of coordinate-wise absolute differences of Fractions, and the
Hausdorff distance is the larger of the two directed max-min distances.
Witnesses are chosen canonically (smallest coordinate tuple among the
maximizers) so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import ClassVar, Optional, Sequence

from .errors import EmptyProfileError
from .setfn import QuotientPoint


def linf_distance(p: QuotientPoint, q: QuotientPoint) -> Fraction:
    """Largest coordinate-wise gap between two quotient points."""
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: k={p.k} vs k={q.k}")
    return max(abs(a - b) for a, b in zip(p.coords, q.coords))


def _point_list(cloud) -> list[QuotientPoint]:
    points = getattr(cloud, "points", cloud)
    out = sorted(set(points), key=lambda p: p.coords)
    if not out:
        raise EmptyProfileError("point cloud is empty")
    if any(p.k != out[0].k for p in out):
        raise ValueError("mixed dimensions in one point cloud")
    return out


def directed_distance(a_cloud, b_cloud) -> tuple[Fraction, QuotientPoint]:
    """sup over a of inf over b of the sup-norm distance, with a witness."""
    a_pts = _point_list(a_cloud)
    b_pts = _point_list(b_cloud)
    if a_pts[0].k != b_pts[0].k:
        raise ValueError("clouds live in different dimensions")
    zero = Fraction(0)
    best = Fraction(-1)
    witness = a_pts[0]
    for a in a_pts:
        ac = a.coords
        nearest = None
        for b in b_pts:
            # abandon this b once its partial max reaches the current min,
            # and this a once its min cannot raise the overall max
            d = zero
            for x, y in zip(ac, b.coords):
                g = x - y if x >= y else y - x
                if g > d:
                    d = g
                    if nearest is not None and d >= nearest:
                        break
            if nearest is None or d < nearest:
                nearest = d
                if nearest <= best:
                    break
        if nearest > best:
            best = nearest
            witness = a
    return best, witness


@dataclass(frozen=True)
class HausdorffReport:
    distance: Fraction
    directed_ab: Fraction
    directed_ba: Fraction
    witness_ab: QuotientPoint
    witness_ba: QuotientPoint


def hausdorff(a_cloud, b_cloud) -> HausdorffReport:
    """Exact Hausdorff distance between two nonempty point clouds."""
    d_ab, w_ab = directed_distance(a_cloud, b_cloud)
    d_ba, w_ba = directed_distance(b_cloud, a_cloud)
    return HausdorffReport(max(d_ab, d_ba), d_ab, d_ba, w_ab, w_ba)


@dataclass(frozen=True)
class EpsContainment:
    holds: bool
    epsilon: Fraction
    witness: Optional[QuotientPoint]


def eps_contained(a_cloud, b_cloud, eps: Fraction | int) -> EpsContainment:
    """Is every point of A within eps (sup norm) of some point of B?

    That is, is the directed distance from A to B at most eps.  On failure
    the witness is the directed distance's: the point of A farthest from
    B, the smallest coordinate tuple among ties.
    """
    eps = Fraction(eps)
    distance, farthest = directed_distance(a_cloud, b_cloud)
    holds = distance <= eps
    return EpsContainment(holds, eps, None if holds else farthest)


# Verdict thresholds on the ratio of the last tail value to the first.
CONSISTENCY_FACTOR = Fraction(1, 2)
DIVERGENCE_FACTOR = Fraction(9, 10)


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Pairwise Hausdorff matrix of a sequence of profile sets.

    tail_sup[i] is the largest pairwise distance among sets with both
    indices >= i, so it is nonincreasing in i.  The verdict compares the
    last tail value with the first; the two factors are report metadata,
    not a claim about the infinite sequence.
    """

    pairwise: tuple[tuple[Fraction, ...], ...]
    tail_sup: tuple[Fraction, ...]
    verdict: str
    witness: Optional[tuple[int, int]]
    consistency_factor: ClassVar[Fraction] = CONSISTENCY_FACTOR
    divergence_factor: ClassVar[Fraction] = DIVERGENCE_FACTOR


def cauchy_diagnostic(clouds: Sequence) -> ConvergenceDiagnostic:
    """Empirical Cauchy-in-Hausdorff diagnostic over a finite prefix."""
    count = len(clouds)
    if count < 1:
        raise ValueError("need at least one profile set")
    matrix = [[Fraction(0)] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            d = hausdorff(clouds[i], clouds[j]).distance
            matrix[i][j] = d
            matrix[j][i] = d
    # tail_sup[i] = max(largest entry right of the diagonal in row i, tail_sup[i + 1])
    row_max = [max(matrix[a][a + 1:]) for a in range(count - 1)]
    tails = list(accumulate(reversed(row_max), max))[::-1]
    pairwise = tuple(tuple(row) for row in matrix)
    if not tails:
        return ConvergenceDiagnostic(pairwise, (), "inconclusive", None)
    first, last = tails[0], tails[-1]
    witness = None
    if first == 0:
        verdict = "consistent-with-cauchy"
    elif len(tails) < 2:
        verdict = "inconclusive"
    elif last <= first * CONSISTENCY_FACTOR:
        verdict = "consistent-with-cauchy"
    elif last >= first * DIVERGENCE_FACTOR:
        verdict = "diverging"
        witness = (count - 2, count - 1)  # the one pair of the last tail
    else:
        verdict = "inconclusive"
    return ConvergenceDiagnostic(pairwise, tuple(tails), verdict, witness)
