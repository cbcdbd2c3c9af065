"""Sup-norm Hausdorff distances between finite rational point clouds.

Everything is exact: distances between quotient points are maxima of
coordinate-wise absolute differences, and the Hausdorff distance is the
larger of the two directed max-min distances.  A `ProfileSet` is read as
its stored int numerators (a plain iterable of points is converted once),
and the directed kernel works on ints over the LCM of both denominators;
only the distance and the witness come back as a Fraction and a point.
Points of A that also lie in B are removed by a set difference, and only
the rest are searched for their nearest point of B.  Work on one cloud
is done once per cloud and cached on it: its search index (the rows
sorted on the widest-spread axis) and whether it is closed under
relabeling the parts.  When both clouds are closed, relabeling keeps
every sup-norm distance, so only the smallest point of each S_k orbit
of A - B is searched.  Witnesses are chosen canonically (smallest
coordinate tuple among the maximizers) so reports are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import ClassVar, Optional, Sequence

from .errors import EmptyProfileError
from .setfn import PointCloud, QuotientPoint, close_under_relabeling


def linf_distance(p: QuotientPoint, q: QuotientPoint) -> Fraction:
    """Largest coordinate-wise gap between two quotient points."""
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: k={p.k} vs k={q.k}")
    return max(abs(a - b) for a, b in zip(p.coords, q.coords))


def _canonical(cloud) -> PointCloud:
    """A nonempty cloud as int numerators over one denominator; a `PointCloud` is returned as it is."""
    if not isinstance(cloud, PointCloud):
        points = list(cloud)
        cloud = PointCloud.from_points(points[0].k if points else 1, points)
    if not cloud.nums:
        raise EmptyProfileError("point cloud is empty")
    return cloud


def _point_list(cloud) -> list[QuotientPoint]:
    """The distinct points of a cloud in coordinate order."""
    return _canonical(cloud).sorted_points()


def _orbit_minima(rows: set[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    """The rows of a set closed under relabeling the parts that are the smallest of their S_k orbit, in order."""
    minima, seen = [], set()
    for row in sorted(rows):
        if row not in seen:
            minima.append(row)
            orbit = {row}
            close_under_relabeling(orbit, k)
            seen |= orbit
    return minima


def directed_distance(a_cloud, b_cloud) -> tuple[Fraction, QuotientPoint]:
    """sup over a of inf over b of the sup-norm distance, with a witness.

    Both clouds are put on integer numerators over one denominator.  The
    points of A that lie in B, found by set difference, are at distance 0,
    so only A - B is searched, in coordinate order, so the witness is the
    smallest maximizer; if A lies inside B, the distance is 0 and the
    witness is A's smallest point.  When both clouds are closed under
    relabeling the parts, so is A - B, and every point of an S_k orbit is
    at one distance from B; the smallest maximizer is the smallest of its
    orbit, so only orbit minima are searched.  B is read from its
    `search_index` (rescaled when the denominators differ): each a scans
    B outward from its place on the widest axis, nearer side first, until
    the gap on the axis alone reaches the nearest distance found.
    """
    a_cloud, b_cloud = _canonical(a_cloud), _canonical(b_cloud)
    k = a_cloud.k
    if k != b_cloud.k:
        raise ValueError("clouds live in different dimensions")
    den = lcm(a_cloud.den, b_cloud.den)
    rest = a_cloud.nums_over(den) - b_cloud.nums_over(den)
    if not rest:
        return Fraction(0), QuotientPoint.over(k, a_cloud.den, min(a_cloud.nums))
    if a_cloud.closed_under_relabeling and b_cloud.closed_under_relabeling:
        a_rows = _orbit_minima(rest, k)
    else:
        a_rows = sorted(rest)
    axis, b_rows, keys = b_cloud.search_index
    factor = den // b_cloud.den
    if factor != 1:
        b_rows = [tuple(x * factor for x in row) for row in b_rows]
        keys = [x * factor for x in keys]
    size = len(b_rows)
    best = -1
    witness = a_rows[0]
    for a in a_rows:
        x = a[axis]
        hi = bisect_left(keys, x)
        lo = hi - 1
        nearest = None
        while lo >= 0 or hi < size:
            if hi < size and (lo < 0 or keys[hi] - x <= x - keys[lo]):
                gap, b = keys[hi] - x, b_rows[hi]
                hi += 1
            else:
                gap, b = x - keys[lo], b_rows[lo]
                lo -= 1
            # gaps only grow from here, so no later b can come nearer
            if nearest is not None and gap >= nearest:
                break
            # abandon this b once its partial max reaches the current min,
            # and this a once its min cannot raise the overall max
            d = 0
            for u, v in zip(a, b):
                g = u - v if u >= v else v - u
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
    return Fraction(best, den), QuotientPoint.over(k, den, witness)


@dataclass(frozen=True)
class HausdorffReport:
    distance: Fraction
    directed_ab: Fraction
    directed_ba: Fraction
    witness_ab: QuotientPoint
    witness_ba: QuotientPoint


def hausdorff(a_cloud, b_cloud) -> HausdorffReport:
    """Exact Hausdorff distance between two nonempty point clouds."""
    # each cloud goes to integer numerators once, not once per direction
    a_cloud, b_cloud = _canonical(a_cloud), _canonical(b_cloud)
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
    B, the smallest coordinate tuple among ties.  eps must be an int or a
    Fraction: a float would be compared as its binary expansion.
    """
    if not isinstance(eps, (int, Fraction)):
        raise TypeError(f"eps must be an int or a Fraction, got {type(eps).__name__}")
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
    # each cloud goes to integer numerators once, not once per pair it is in
    clouds = [_canonical(cloud) for cloud in clouds]
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
