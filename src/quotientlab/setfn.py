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

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, Sequence

from . import config
from .errors import GroundTooLargeError, KTooLargeError, MaskWidthError

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
    if size > config.GROUND_SIZE_CAP:
        raise GroundTooLargeError("GROUND_SIZE_CAP", config.GROUND_SIZE_CAP, size, "ground set")


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
    `rank_memo`, `lookup` is its `rank_lookup()`, the flats strategy reads
    its flats and `numerator_table` its rank table.

    `twins` optionally partitions the ground set into classes of
    interchangeable elements: swapping any two members of a class must
    leave every value unchanged.  The default () claims nothing (every
    element is its own class); exact profile enumeration visits one
    assignment per orbit of these swaps.
    """

    __slots__ = ("size", "full_mask", "den", "label", "matroid", "twins", "lookup", "_memo")

    def __init__(
        self,
        size: int,
        num: Callable[[SubsetMask], int] | None = None,
        den: int = 1,
        label: str = "",
        matroid=None,
        twins: tuple[tuple[int, ...], ...] = (),
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
        else:
            self._memo = matroid.rank_memo
            self.lookup = matroid.rank_lookup()
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
        """Every numerator, indexed by mask, built fresh and not memoized."""
        if self.matroid is not None:
            return self.matroid.rank_table()
        return dense_numerators(self._memo.kernel, self.size)

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
        if self.k > config.QUOTIENT_K_CAP:
            raise KTooLargeError(
                "QUOTIENT_K_CAP", config.QUOTIENT_K_CAP, self.k, "point as a setfunction"
            )
        return oracle_from_table(self.coords, label)


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
    if k > config.QUOTIENT_K_CAP:
        raise KTooLargeError("QUOTIENT_K_CAP", config.QUOTIENT_K_CAP, k, "quotient point")
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
    if n > config.EXHAUSTIVE_CHECK_CAP:
        raise GroundTooLargeError(
            "EXHAUSTIVE_CHECK_CAP", config.EXHAUSTIVE_CHECK_CAP, n,
            "check_submodular (else check_submodular_sampled)",
        )
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
    if n > config.EXHAUSTIVE_CHECK_CAP:
        raise GroundTooLargeError(
            "EXHAUSTIVE_CHECK_CAP", config.EXHAUSTIVE_CHECK_CAP, n,
            "check_monotone (else check_monotone_sampled)",
        )
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
