"""Subset masks, exact setfunction oracles, quotient vectors.

A ground set is its size n, with elements 0..n-1, and its subsets are
encoded as integer bitmasks: element i belongs to the subset iff bit i
is set.  Inside the package an oracle's values are int numerators over
one positive denominator of the oracle (rank over d, cut count over its
normalization, hom count over n^p), so hot loops hash and compare ints;
at the API `evaluate` returns `fractions.Fraction`, so every computation
downstream (deduplication, Hausdorff distances, bound checks) is exact;
floats appear only when reports are rendered.

Quotient vectors over k labeled parts use the same index convention: the
value for a set I of part indices sits at position sum(2**i for i in I).
The serialization format relies on this convention, do not change it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from .errors import MaskWidthError, check_cap

SubsetMask = int


def iter_elements(mask: SubsetMask) -> Iterator[int]:
    """Yield the element indices of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_ground_size(size: int) -> None:
    if size < 0:
        raise ValueError("ground set size must be nonnegative")
    check_cap("GROUND_SIZE_CAP", size, "ground set")


def check_mask(mask: SubsetMask, size: int) -> None:
    if mask < 0 or mask >> size:
        raise MaskWidthError(f"mask {bin(mask)} does not fit a ground set of size {size}")


class Memo(dict):
    """A dict that computes a missing key's value with `kernel` and keeps it.

    A hit is one C-level `dict.__getitem__`; only a miss calls into Python.
    """

    __slots__ = ("kernel",)

    def __init__(self, kernel: Callable, known: dict | None = None):
        super().__init__(known or ())
        self.kernel = kernel

    def __missing__(self, key: int) -> int:
        value = self[key] = self.kernel(key)
        return value


# table entries built in the time of one lazy miss: one kernel call each, as a miss
DENSE_ENTRIES_PER_MISS = 1


def dense_numerators(num: Callable[[SubsetMask], int], n: int) -> Sequence[int]:
    """num(X) for every mask X of an n-element ground, indexed by mask; one call per mask."""
    masks = range(1 << n)
    try:
        return array("q", map(num, masks))
    except OverflowError:  # a numerator beyond 64 bits
        return list(map(num, masks))


class SetFunctionOracle:
    """A total, deterministic, exactly-valued function on all subsets.

    The value on X is num(X) / den: `num` is a pure int kernel and `den` a
    positive int shared by every value.  Numerators are memoized per mask
    as ints; `evaluate` returns the Fraction.  Oracles are immutable after
    construction (the memo only memoizes) and safe to share.  f(empty) may
    be nonzero, as for the motif-deletion function tau; quotient vectors
    need f(empty) = 0, which `check_quotient_args` checks when they are
    formed.

    `lookup(mask)` is `numerator` without the mask check, for callers that
    build their masks inside the ground set.

    The values come from exactly one of `num` and `matroid`.  With a
    matroid the oracle is a view of its rank: the memo is the matroid's
    `rank_memo`, `lookup` is its `rank_lookup()` and the flats strategy
    reads its flats.

    Every oracle carries its own zero-argument table builder, which
    `numerator_table` calls: `table` if given (a cut-capacity oracle
    passes `graphs.cut_table`, which doubles over the nodes), else the
    matroid's `rank_table`, else `dense_numerators` over `num`, one call
    per mask.  `entries_per_miss`, the entries that builder makes in the
    time of one lazy miss, is a measured constant kept beside it.

    `twins` optionally partitions the ground set into classes of
    interchangeable elements: swapping any two members of a class must
    leave every value unchanged.  The default () claims nothing (every
    element is its own class); exact profile enumeration visits one
    assignment per orbit of these swaps.
    """

    __slots__ = (
        "size", "full_mask", "den", "label", "matroid", "twins", "lookup", "entries_per_miss", "_memo", "_table"
    )

    def __init__(
        self,
        size: int,
        num: Callable[[SubsetMask], int] | None = None,
        den: int = 1,
        label: str = "",
        matroid=None,
        twins: tuple[tuple[int, ...], ...] = (),
        table: Callable[[], Sequence[int]] | None = None,
        entries_per_miss: int = DENSE_ENTRIES_PER_MISS,
    ):
        check_ground_size(size)
        if (num is None) == (matroid is None):
            raise ValueError("an oracle takes its values from exactly one of num and matroid")
        if twins and sorted(e for cls in twins for e in cls) != list(range(size)):
            raise ValueError("twin classes must partition the ground set")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if matroid is None:
            empty = num(0)
            if not isinstance(empty, int):
                raise TypeError(f"numerators must be ints, got {type(empty).__name__}")
            self._memo = Memo(num, {0: empty})
            self.lookup = self._memo.__getitem__
            self._table = table or functools.partial(dense_numerators, num, size)
            self.entries_per_miss = entries_per_miss
        else:
            self._memo = matroid.rank_memo
            self.lookup = matroid.rank_lookup()
            self._table = table or matroid.rank_table
            self.entries_per_miss = entries_per_miss if table else matroid.TABLE_ENTRIES_PER_MISS
        self.size = size
        self.full_mask = (1 << size) - 1
        self.den = den
        self.label = label
        self.matroid = matroid
        self.twins = twins

    def numerator(self, mask: SubsetMask) -> int:
        """den * f(mask), memoized."""
        check_mask(mask, self.size)
        return self._memo[mask]

    def evaluate(self, mask: SubsetMask) -> Fraction:
        return Fraction(self.numerator(mask), self.den)

    def numerator_table(self) -> Sequence[int]:
        """Every numerator, indexed by mask, built fresh by the oracle's table builder and not memoized."""
        return self._table()

    def __repr__(self) -> str:  # pragma: no cover
        return f"SetFunctionOracle({self.label or 'anonymous'}, n={self.size})"


def oracle_from_table(values: Sequence[Fraction | int], label: str = "table") -> SetFunctionOracle:
    """Build an oracle from a dense table indexed by subset mask.

    Numerators are taken over the least common multiple of the values'
    denominators.
    """
    n = (len(values) - 1).bit_length()
    if len(values) != 1 << n:
        raise ValueError("table length must be a power of two")
    fractions = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fractions))
    table = tuple(f.numerator * (den // f.denominator) for f in fractions)
    return SetFunctionOracle(n, table.__getitem__, den, label=label)


@dataclass(frozen=True)
class QuotientPoint:
    """The vector of values a setfunction takes on unions of k labeled parts.

    coords[I] = phi(union of the parts named by the bits of I); in
    particular coords[0] = 0 and coords has length 2**k.
    """

    k: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("quotient points need at least one part")
        if len(self.coords) != 1 << self.k:
            raise ValueError("coords must have length 2**k")
        if self.coords[0] != 0:
            raise ValueError("coords[empty] must be 0")

    def singleton(self, i: int) -> Fraction:
        return self.coords[1 << i]

    def scale(self, factor: Fraction | int) -> "QuotientPoint":
        c = Fraction(factor)
        return QuotientPoint(self.k, tuple(x * c for x in self.coords))

    def max_singleton(self) -> Fraction:
        return max(self.coords[1 << i] for i in range(self.k))

    def as_oracle(self, label: str = "derived") -> SetFunctionOracle:
        """Reinterpret the point as a setfunction on ground set [k], k <= QUOTIENT_K_CAP."""
        check_cap("QUOTIENT_K_CAP", self.k, "point as a setfunction")
        return oracle_from_table(self.coords, label)

    @classmethod
    def over(cls, k: int, den: int, nums: Sequence[int]) -> "QuotientPoint":
        """The point whose coordinates I >= 1 are nums[I - 1] / den (coordinate 0 is 0)."""
        return cls(k, (Fraction(0), *(Fraction(x, den) for x in nums)))


@dataclass(frozen=True)
class PointCloud:
    """Quotient points on k parts as `nums`, their coordinates I >= 1 times `den` (coordinate 0 is 0).

    `den` > 0, so the tuples sort as the points do, and it is kept in lowest terms with every
    numerator, so equal point sets compare and hash equal.  Points are built on request, and so
    is what a Hausdorff distance reads of the cloud: its `search_index` as the cloud searched
    for nearest points, and whether it is `closed_under_relabeling` the parts.  Each is built
    at most once per cloud.
    """

    k: int
    den: int
    nums: frozenset[tuple[int, ...]]

    def __post_init__(self):
        g = self.den
        for row in self.nums:
            if (g := math.gcd(g, *row)) == 1:
                return
        object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "nums", frozenset(tuple(x // g for x in row) for row in self.nums))

    @classmethod
    def from_points(cls, k: int, points: Iterable[QuotientPoint], **fields) -> "PointCloud":
        """The cloud of the points over the LCM of their coordinates' reduced denominators."""
        points = list(points)
        if any(p.k != k for p in points):
            raise ValueError("mixed dimensions in one point cloud")
        den = math.lcm(*(x.denominator for p in points for x in p.coords))
        nums = frozenset(tuple(x.numerator * (den // x.denominator) for x in p.coords[1:]) for p in points)
        return cls(k, den, nums, **fields)

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self) -> Iterator[QuotientPoint]:
        return iter(self.points)

    def __contains__(self, point: QuotientPoint) -> bool:
        return point in self.points

    @functools.cached_property
    def points(self) -> frozenset[QuotientPoint]:
        return frozenset(self.sorted_points())

    def sorted_points(self) -> list[QuotientPoint]:
        return [QuotientPoint.over(self.k, self.den, row) for row in sorted(self.nums)]

    def nums_over(self, den: int) -> frozenset[tuple[int, ...]]:
        """The numerator tuples over `den`, a multiple of `self.den`."""
        factor = den // self.den
        return self.nums if factor == 1 else frozenset(tuple(x * factor for x in row) for row in self.nums)

    @functools.cached_property
    def search_index(self) -> tuple[int, list[tuple[int, ...]], list[int]]:
        """(axis, rows, keys) over `den`: the widest-spread coordinate, the rows sorted on it, and their values on it.

        A constant axis (the full set's, for partitions) would leave every
        row inside a nearest-point window, so the widest one is taken.
        """
        spreads = [max(col) - min(col) for col in zip(*self.nums)]
        axis = spreads.index(max(spreads))
        rows = sorted(self.nums, key=itemgetter(axis))
        return axis, rows, [row[axis] for row in rows]

    @functools.cached_property
    def closed_under_relabeling(self) -> bool:
        """Does every permutation of the k part labels map the cloud onto itself?

        The adjacent swaps generate S_k, so it is enough that each maps
        every row into `nums`.  Exact profiles are closed; a sampled one
        need not be.
        """
        nums = self.nums
        return all(all(map(nums.__contains__, map(swap, nums))) for swap in _relabel_swaps(self.k))


@functools.cache
def _relabel_swaps(k: int) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], ...]:
    """The k - 1 adjacent part swaps as maps of numerator tuples; together they generate S_k.

    Relabeling by sigma sends coordinate I to sigma(I), so swapping parts i
    and i + 1 is one `itemgetter` over a numerator tuple (entry I - 1 is
    coordinate I).
    """
    swaps = []
    for i in range(k - 1):
        lo, hi = 1 << i, 2 << i
        swaps.append(itemgetter(*[
            (s & ~(lo | hi) | (s & lo) << 1 | (s & hi) >> 1) - 1 for s in range(1, 1 << k)
        ]))
    return tuple(swaps)


def close_under_relabeling(nums: set[tuple[int, ...]], k: int) -> None:
    """Add to nums, in place, every point a permutation of the k part labels makes of one of its points.

    The k - 1 adjacent swaps generate S_k, so applying them to each new
    point until none appears closes the set, at (final points) x (k - 1)
    tuple builds.
    """
    swaps = _relabel_swaps(k)
    new = nums
    while new:
        images: set[tuple[int, ...]] = set()
        for swap in swaps:
            images.update(map(swap, new))
        new = images - nums
        nums |= new


def union_table(parts: Sequence[SubsetMask]) -> list[SubsetMask]:
    """Table of unions of parts over all part-index sets, in index order."""
    k = len(parts)
    unions = [0] * (1 << k)
    for im in range(1, 1 << k):
        low = im & -im
        unions[im] = unions[im ^ low] | parts[low.bit_length() - 1]
    return unions


def check_quotient_args(oracle: SetFunctionOracle, k: int) -> None:
    """Reject part counts outside [1, QUOTIENT_K_CAP] and oracles nonzero on the empty set."""
    if k < 1:
        raise ValueError(f"k={k}: need at least one part")
    check_cap("QUOTIENT_K_CAP", k, "quotient point")
    if oracle.numerator(0) != 0:
        raise ValueError("quotient vectors are defined only for functions vanishing on the empty set")


def quotient_point(oracle: SetFunctionOracle, parts: Sequence[SubsetMask]) -> QuotientPoint:
    """Evaluate the oracle on all unions of the given (ordered) parts.

    Parts may overlap or be empty; partition/disjointness/covering
    disciplines are the caller's business (see the profiles module).
    """
    k = len(parts)
    check_quotient_args(oracle, k)
    for p in parts:
        check_mask(p, oracle.size)
    ev = oracle.evaluate
    return QuotientPoint(k, tuple(ev(u) for u in union_table(parts)))


@dataclass(frozen=True)
class PairViolation:
    """Witness of a failed two-set inequality; slack is the (negative) margin."""

    x: SubsetMask
    y: SubsetMask
    slack: Fraction


def check_submodular(oracle: SetFunctionOracle) -> list[PairViolation]:
    """Exhaustively certify submodularity; return violating pairs if any.

    Scans the exchange form f(X+e) + f(X+f) >= f(X) + f(X+e+f) over all
    X and distinct e, f outside X, which is equivalent to the two-set
    inequality over all pairs; reported violations are genuine pairs
    (X+e, X+f) with negative slack.  Empty result means submodular.
    All values share the oracle's denominator, so the scan compares
    numerators; a slack becomes a Fraction only for a violation.
    """
    n = oracle.size
    check_cap("EXHAUSTIVE_CHECK_CAP", n, "check_submodular (else check_submodular_sampled)")
    ev, den = oracle.numerator, oracle.den
    violations = []
    for base in range(1 << n):
        free = [i for i in range(n) if not base >> i & 1]
        fb = ev(base)
        for a, e in enumerate(free):
            xe = base | 1 << e
            fxe = ev(xe)
            for f_ in free[a + 1:]:
                xf = base | 1 << f_
                slack = fxe + ev(xf) - fb - ev(xe | 1 << f_)
                if slack < 0:
                    violations.append(PairViolation(xe, xf, Fraction(slack, den)))
    return violations


def check_monotone(oracle: SetFunctionOracle) -> list[PairViolation]:
    """Exhaustively certify monotonicity on numerators; violations are pairs X < X+e."""
    n = oracle.size
    check_cap("EXHAUSTIVE_CHECK_CAP", n, "check_monotone (else check_monotone_sampled)")
    ev, den = oracle.numerator, oracle.den
    violations = []
    for base in range(1 << n):
        fb = ev(base)
        for e in range(n):
            if base >> e & 1:
                continue
            bigger = ev(base | 1 << e)
            if bigger < fb:
                violations.append(PairViolation(base, base | 1 << e, Fraction(bigger - fb, den)))
    return violations


def check_submodular_sampled(oracle: SetFunctionOracle, seed: int, samples: int) -> list[PairViolation]:
    """Seeded random-pair submodularity probe for larger grounds, on numerators."""
    rng = Random(seed)
    full = oracle.full_mask
    ev, den = oracle.numerator, oracle.den
    violations = []
    for _ in range(samples):
        x = rng.randint(0, full)
        y = rng.randint(0, full)
        slack = ev(x) + ev(y) - ev(x & y) - ev(x | y)
        if slack < 0:
            violations.append(PairViolation(x, y, Fraction(slack, den)))
    return violations


def check_monotone_sampled(oracle: SetFunctionOracle, seed: int, samples: int) -> list[PairViolation]:
    """Seeded random-chain monotonicity probe for larger grounds, on numerators."""
    rng = Random(seed)
    full = oracle.full_mask
    ev, den = oracle.numerator, oracle.den
    violations = []
    for _ in range(samples):
        x = rng.randint(0, full)
        y = x | rng.randint(0, full)
        fx, fy = ev(x), ev(y)
        if fy < fx:
            violations.append(PairViolation(x, y, Fraction(fy - fx, den)))
    return violations
