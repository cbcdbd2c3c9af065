"""Profile sets: the quotient vectors a setfunction induces on k parts.

Four tuple disciplines:

* PARTITION: every element in exactly one part (labeled, parts may be empty);
* DISJOINT:  every element in at most one part;
* COVERING:  every element in at least one part;
* ANY:       arbitrary k-tuples of subsets, overlaps allowed.

Three enumeration strategies:

* Exact       -- one assignment per orbit of the oracle's twin swaps
                 (choices per element depend on the mode): a twin class
                 ranges over multisets of choices, so an oracle without
                 twins gets all labeled assignments; the orbit count is
                 capped by ENUM_ITERATION_CAP;
* Sampled     -- seeded uniform assignments plus a small deterministic
                 portfolio of structured tuples; always a subset of Exact;
                 the sample count is capped by ENUM_ITERATION_CAP; the
                 choices come from one lazy C-level stream of accepted
                 draws, getrandbits(c.bit_length()) kept when below the
                 choice count c, which is the stream randrange(c) makes;
* FlatsOnly   -- for matroid rank oracles, iterate k-tuples of flats.
                 Exact for ANY (closures do not change any value of the
                 tuple), for COVERING (filter: the flats' union must be
                 the ground set), and for DISJOINT (the flats must admit
                 disjoint spanning sets, decided by matroid union; every
                 tuple is streamed, and the scan asks this only for a
                 tuple whose point it has not kept yet).
                 Invalid for PARTITION, where no flat reduction is sound.

Each assignment is handled as a packed union table: one int whose bit
I*n + e is set when element e lies in U_I, the union of the parts named
by the index set I.  An element's choice contributes a fixed spread of
bits, so a table is a sum of per-element (or per-twin-class) options.

`profile()` is the one place that evaluates the oracle on the unions
U_I and deduplicates the resulting points, by exact coordinate equality;
no tolerances.  It works on the oracle's int numerators, which share one
denominator, and builds Fractions only for the distinct points.  Every
strategy goes through one blocked scan: it passes a list of outer
tables, a stream of inner tables and the count it checked against the
cap; the scan reads the stream in blocks of isqrt(count) tables, and
every outer table reads a whole inner column per index set in one
C-level call: from a dense array of numerators, one `itemgetter` over
the block's inner unions applied to a memoryview of the table offset by
the outer union (outer and inner tables use disjoint elements, so the
OR of their unions is their sum); otherwise the outer union ORed onto
the column and the lookup mapped over it.  Exact enumeration splits the
twin classes into an outer and an inner block of about sqrt(orbits)
tables each; sampled and flats profiles pass the empty table as their
one outer table.  A DISJOINT flats profile also passes a feasibility
predicate on a packed table: the scan still computes every point, keeps
a point at its first table that passes, and asks the predicate only
about points not kept yet.  A point is in the profile exactly when some
feasible tuple maps to it, so this is exact, and matroid union runs only
for tuples whose point is still missing.  The predicate first answers
False when the flats' ranks sum to more than the non-loops of their
union, since disjoint bases would need that many elements; of gf(2)^4's
sorted pairs for k = 2 only the 23 feasible ones reach matroid union,
not all 2,278.  An exact
profile reads a dense table of all 2^n numerators when it looks up at
least as many unions as there are masks (orbits * 2^k >= 2^n);
otherwise, and always for the other strategies, the scan reads the
oracle's lazy memo through its unchecked `lookup`, which for a rank
oracle is `Matroid.rank_lookup`.  A dense table is an `array` unless a
numerator exceeds 64 bits, when it is a list.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from random import Random
from typing import Callable, Iterator, Optional, Sequence

from . import config
from .errors import EnumCapError, FlatExplosionError, GroundTooLargeError, StrategyError
from .matroid import Matroid, check_richness, disjoint_bases
from .metric import hausdorff
from .setfn import (
    Memo,
    QuotientPoint,
    SetFunctionOracle,
    SubsetMask,
    check_quotient_args,
    union_table,
)


class Mode(str, Enum):
    PARTITION = "partition"
    DISJOINT = "disjoint"
    COVERING = "covering"
    ANY = "any"

    def element_choices(self, k: int) -> tuple[int, ...]:
        """Per-element options, as masks over the k parts."""
        if self is Mode.PARTITION:
            return tuple(1 << i for i in range(k))
        if self is Mode.DISJOINT:
            return (0,) + tuple(1 << i for i in range(k))
        if self is Mode.COVERING:
            return tuple(range(1, 1 << k))
        return tuple(range(1 << k))


@dataclass(frozen=True)
class Exact:
    def describe(self) -> str:
        return "exact"


@dataclass(frozen=True)
class Sampled:
    seed: int
    samples: int

    def describe(self) -> str:
        return f"sampled(seed={self.seed},samples={self.samples})"


@dataclass(frozen=True)
class FlatsOnly:
    def describe(self) -> str:
        return "flats"


Strategy = Exact | Sampled | FlatsOnly

EXACT = Exact()
FLATS = FlatsOnly()


@dataclass(frozen=True)
class ProfileSet:
    """A deduplicated finite set of quotient points with its provenance."""

    k: int
    mode: Mode
    strategy: str
    source: str
    points: frozenset[QuotientPoint]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[QuotientPoint]:
        return iter(self.points)

    def __contains__(self, point: QuotientPoint) -> bool:
        return point in self.points

    def sorted_points(self) -> list[QuotientPoint]:
        return sorted(self.points, key=lambda p: p.coords)


def _spread(k: int, mode: Mode, n: int) -> list[int]:
    """Per choice, the packed union table of element 0 taking it.

    Bit I*n of a choice's entry is set when the choice meets the index
    set I, i.e. when element 0 lies in the union of the parts I names;
    shifted left by e, it places element e instead.
    """
    return [
        sum(1 << i * n for i in range(1, 1 << k) if i & pm)
        for pm in mode.element_choices(k)
    ]


def _union_options(cls: Sequence[int], spread: Sequence[int]) -> Iterator[int]:
    """One packed union table per multiset of choices for a twin class, lazily.

    The class's members take the multiset's choices in order; members of
    different classes never share a bit, so tables of disjoint classes add.
    The multisets come in `combinations_with_replacement` order.  Each
    table is the previous one with only the members whose choice changed
    replaced, and the last member's run of choices is one C-level pass.
    """
    if not cls:
        yield 0
        return
    *head, last = cls
    tail = [c << last for c in spread]
    top = len(spread) - 1
    picks = [0] * len(head)  # choice index of each head member, nondecreasing
    table = sum(spread[0] << e for e in head)
    while True:
        yield from map(table.__add__, tail[picks[-1] if picks else 0:])
        j = len(head) - 1
        while j >= 0 and picks[j] == top:
            j -= 1
        if j < 0:
            return
        # the next multiset raises member j by one and resets the members after it to match
        v = picks[j] + 1
        for p in range(j, len(head)):
            table += (spread[v] - spread[picks[p]]) << head[p]
            picks[p] = v


def _tables(classes: Sequence[Sequence[int]], spread: Sequence[int]) -> list[int]:
    """The packed union tables of every choice of one option per class."""
    tables = [0]
    for cls in classes:
        tables = [t + c for c in _union_options(cls, spread) for t in tables]
    return tables


def _exact_tables(oracle: SetFunctionOracle, k: int, mode: Mode) -> tuple[list[int], Iterator[int], int]:
    """One packed union table per twin orbit: an outer list, an inner stream, and the orbit count.

    Within a twin class only how many members take each choice matters,
    so each class ranges over multisets of choices; without declared twins
    every class is a single element and this is the plain |choices|^n scan.
    The orbit count is checked against the cap before any table is built.
    The classes split into an outer prefix, kept as a list of at most
    isqrt(orbits) + 2 packed tables, and the shortest suffix whose product
    reaches isqrt(orbits).  The suffix's first class may alone be far
    larger, so its options stream past a list of the rest's tables.
    """
    n = oracle.size
    spread = _spread(k, mode, n)
    classes = oracle.twins or tuple((e,) for e in range(n))
    counts = [math.comb(len(cls) + len(spread) - 1, len(cls)) for cls in classes]
    orbits = math.prod(counts)
    if orbits > config.ENUM_ITERATION_CAP:
        raise EnumCapError(
            "ENUM_ITERATION_CAP", config.ENUM_ITERATION_CAP, orbits,
            f"exact profile (n={n}, k={k}, mode={mode.value})",
        )
    block = math.isqrt(orbits)
    split, size = len(classes), 1
    while size < block:
        split -= 1
        size *= counts[split]
    rest = _tables(classes[split + 1:], spread)
    pivot = _union_options(classes[split], spread) if split < len(classes) else (0,)
    return _tables(classes[:split], spread), (c + t for c in pivot for t in rest), orbits


def _flat_tables(
    oracle: SetFunctionOracle, k: int, mode: Mode
) -> tuple[Iterator[int], int, Optional[Callable[[int], bool]]]:
    """The packed union tables of k-tuples of flats, the count of all k-tuples, and a feasibility predicate.

    COVERING streams only the tuples whose union is the ground set.
    DISJOINT streams every tuple and returns a predicate on a packed
    table: flat i is read back from U_{i}, at shift (1 << i) * n, and the
    sorted flats key one memoized `disjoint_bases` call.  The scan asks it
    only for a point it has not kept yet.  ANY has no predicate.
    """
    matroid: Optional[Matroid] = oracle.matroid
    if matroid is None:
        raise StrategyError("flats strategy needs a matroid-backed rank oracle")
    if mode is Mode.PARTITION:
        raise StrategyError(
            "flats strategy is unsound for partitions (partitions into flats need not exist)"
        )
    flats = matroid.flats()
    total = len(flats) ** k
    if total > config.ENUM_ITERATION_CAP:
        raise EnumCapError(
            "ENUM_ITERATION_CAP", config.ENUM_ITERATION_CAP, total, f"flats profile ({len(flats)} flats, k={k})"
        )
    n, full = matroid.size, matroid.full_mask
    tuples = itertools.product(flats, repeat=k)
    keep = None
    if mode is Mode.COVERING:
        tuples = (tup for tup in tuples if functools.reduce(int.__or__, tup) == full)
    elif mode is Mode.DISJOINT:
        # keyed by the sorted flats; the kernel looks `disjoint_bases` up when called, so a
        # replacement of the module global is the one it calls.  Disjoint bases B_i of the
        # F_i hold r(F_i) non-loops each, so a rank sum above the non-loops of the union
        # answers False without a union call; the scan has looked up every r(F_i) already
        rank, nonloops = oracle.lookup, full & ~matroid.closure(0)

        def fits(key: tuple[SubsetMask, ...]) -> bool:
            if sum(map(rank, key)) > (functools.reduce(int.__or__, key) & nonloops).bit_count():
                return False
            return disjoint_bases(matroid, key).bases is not None

        feasible = Memo(fits)
        shifts = [(1 << i) * n for i in range(k)]

        def keep(table: int) -> bool:
            return feasible[tuple(sorted([table >> s & full for s in shifts]))]

    return (_pack(tup, n) for tup in tuples), total, keep


def _pack(parts: Sequence[SubsetMask], n: int) -> int:
    """The packed union table of explicit parts: bit I*n + e set when e lies in U_I."""
    return sum(u << i * n for i, u in enumerate(union_table(parts)))


def _sampled_tables(
    oracle: SetFunctionOracle, k: int, mode: Mode, seed: int, samples: int
) -> Iterator[int]:
    if samples > config.ENUM_ITERATION_CAP:
        raise EnumCapError("ENUM_ITERATION_CAP", config.ENUM_ITERATION_CAP, samples, "sampled profile")
    n = oracle.size
    rng = Random(seed)
    full = oracle.full_mask
    # structured portfolio: whole ground in one part, then balanced round-robins;
    # both are partitions, hence legal in every mode
    for i in range(k):
        parts = [0] * k
        parts[i] = full
        yield _pack(parts, n)
    for _ in range(3):
        order = list(range(n))
        rng.shuffle(order)
        parts = [0] * k
        for pos, e in enumerate(order):
            parts[pos % k] |= 1 << e
        yield _pack(parts, n)
    matroid = oracle.matroid
    # the closures of a basis's 2^rank subsets are distinct flats, so above
    # the cap flats() could only fail, after enumerating the cap's worth
    if matroid is not None and mode is Mode.ANY and 1 << matroid.full_rank() <= config.FLAT_COUNT_CAP:
        try:
            flats = matroid.flats()
        except (GroundTooLargeError, FlatExplosionError):
            pass  # no flat portfolio when the flats do not enumerate within their caps
        else:
            for _ in range(min(samples, 32)):
                yield _pack([rng.choice(flats) for _ in range(k)], n)
    # each sample draws one choice per element, in element order, as an exact
    # assignment would; a choice is rng.randrange(c), which draws
    # getrandbits(c.bit_length()) until the value is below c, so the stream
    # of accepted draws is the same one randrange would make
    spread = _spread(k, mode, n)
    options = [[c << e for c in spread] for e in range(n)]
    c = len(spread)
    stream = filter(c.__gt__, map(rng.getrandbits, itertools.repeat(c.bit_length())))
    for _ in range(samples):
        yield sum(map(list.__getitem__, options, itertools.islice(stream, n)))


def profile(
    oracle: SetFunctionOracle,
    k: int,
    mode: Mode,
    strategy: Strategy = EXACT,
) -> ProfileSet:
    """Enumerate (or sample) the profile set of the oracle for k labeled parts."""
    check_quotient_args(oracle, k)
    n = oracle.size
    outer, value, view, keep = (0,), oracle.lookup, None, None
    if isinstance(strategy, Exact):
        outer, inner, count = _exact_tables(oracle, k, mode)
        if count << k >= 1 << n:
            table = oracle.numerator_table()
            if isinstance(table, array):
                view = memoryview(table)
            else:  # a list holds numerators beyond 64 bits
                value = table.__getitem__
    elif isinstance(strategy, FlatsOnly):
        inner, count, keep = _flat_tables(oracle, k, mode)
    elif isinstance(strategy, Sampled):
        inner = _sampled_tables(oracle, k, mode, strategy.seed, strategy.samples)
        count = strategy.samples
    else:  # pragma: no cover
        raise TypeError(f"unknown strategy {strategy!r}")
    # the blocked scan: each block of isqrt(count) inner tables is unpacked once per
    # index set, and every outer table reads a whole column per index set in one
    # C-level call.  An outer and an inner table use disjoint elements, so
    # u_I | c_I = u_I + c_I: on a dense array the column is one itemgetter over the
    # block's c_I applied to the view offset by u_I.  The getter also repeats the
    # block's first union, a point already in the block, so a one-table block still
    # gets a tuple.  Otherwise each outer table ORs its own union onto the column (no
    # pass when that union is empty) and maps the lookup over it.  U_0 is empty and
    # check_quotient_args saw f(0) = 0, so coordinate 0 is never looked up.  With a
    # predicate (only beside the one empty outer table) a point is kept at its first
    # table that passes, and no table of a point already kept is asked
    full = oracle.full_mask
    shifts = [i * n for i in range(1, 1 << k)]
    block = math.isqrt(count) or 1
    nums: set[tuple[int, ...]] = set()
    while chunk := list(itertools.islice(inner, block)):
        cols = [(s, [t >> s & full for t in chunk]) for s in shifts]
        if view is not None:
            gets = [(s, itemgetter(*col, col[0])) for s, col in cols]
        for u in outer:
            if view is None:
                points = zip(*[map(value, map(o.__or__, col) if (o := u >> s & full) else col) for s, col in cols])
            else:
                points = zip(*[get(view[u >> s & full:]) for s, get in gets])
            if keep is None:
                nums.update(points)
            else:
                for t, p in zip(chunk, points):
                    if p not in nums and keep(t):
                        nums.add(p)
    den = oracle.den
    zero = Fraction(0)
    points = frozenset(QuotientPoint(k, (zero, *(Fraction(x, den) for x in c))) for c in nums)
    return ProfileSet(k, mode, strategy.describe(), oracle.label, points)


def derived_profile(point: QuotientPoint, k: int, mode: Mode) -> ProfileSet:
    """Exact profile of a quotient point, reinterpreted as a setfunction on its parts."""
    return profile(point.as_oracle(label="derived-point"), k, mode)


def compose(inner: ProfileSet, outer_k: int, outer_mode: Mode) -> ProfileSet:
    """Union of outer profiles taken over every point of the inner profile.

    With an exact inner ANY profile of m >= k parts, outer PARTITION (or
    ANY) reproduces the full ANY profile for k parts; the same holds for
    inner PARTITION profiles with at least 2**k parts.  The inner profile
    is taken as given, so one profile can serve several compositions.
    """
    points: set[QuotientPoint] = set()
    for p in inner:
        points.update(derived_profile(p, outer_k, outer_mode).points)
    return ProfileSet(
        outer_k,
        outer_mode,
        f"composed({outer_mode.value}∘{inner.mode.value},m={inner.k})",
        inner.source,
        frozenset(points),
    )


@dataclass(frozen=True)
class InclusionReport:
    """Point-set inclusion results for the two containment chains."""

    k: int
    source: str
    chains: tuple[tuple[str, bool], ...]
    witness: Optional[QuotientPoint]

    @property
    def all_hold(self) -> bool:
        return all(ok for _, ok in self.chains)


def verify_inclusions(oracle: SetFunctionOracle, k: int) -> InclusionReport:
    """Check partition ⊆ disjoint ⊆ any and partition ⊆ covering ⊆ any, exactly."""
    sets = {m: profile(oracle, k, m, EXACT).points for m in Mode}
    table = (
        ("partition⊆disjoint", Mode.PARTITION, Mode.DISJOINT),
        ("disjoint⊆any", Mode.DISJOINT, Mode.ANY),
        ("partition⊆covering", Mode.PARTITION, Mode.COVERING),
        ("covering⊆any", Mode.COVERING, Mode.ANY),
    )
    witness = None
    for _, small, big in table:
        missing = sets[small] - sets[big]
        if missing:
            witness = min(missing, key=lambda p: p.coords)
            break
    chains = tuple((name, sets[small] <= sets[big]) for name, small, big in table)
    return InclusionReport(k, oracle.label, chains, witness)


@dataclass(frozen=True)
class DeltaBoundReport:
    """Hausdorff gaps between tuple disciplines against the k*m/rank bound."""

    k: int
    m: int
    precondition_met: bool
    richness_witness: Optional[tuple[SubsetMask, SubsetMask]]
    bound: Optional[Fraction]
    any_vs_disjoint: Optional[Fraction]
    covering_vs_partition: Optional[Fraction]

    @property
    def holds(self) -> bool:
        if not self.precondition_met:
            return False
        return (
            self.any_vs_disjoint <= self.bound
            and self.covering_vs_partition <= self.bound
        )


def delta_approx_bound_check(matroid: Matroid, k: int, m: int) -> DeltaBoundReport:
    """Check d(ANY, DISJOINT) and d(COVERING, PARTITION) against k*m/rank.

    The bound is claimed only when the matroid satisfies the richness
    condition for (k, m) and m >= k; otherwise the report states that the
    precondition failed and computes nothing.
    """
    richness = check_richness(matroid, k, m)
    if not richness.holds or m < k:
        return DeltaBoundReport(k, m, False, richness.witness, None, None, None)
    oracle = matroid.normalized_rank_oracle()
    bound = Fraction(k * m, matroid.full_rank())
    p_any = profile(oracle, k, Mode.ANY, FLATS)
    p_disj = profile(oracle, k, Mode.DISJOINT, FLATS)
    p_cov = profile(oracle, k, Mode.COVERING, FLATS)
    p_part = profile(oracle, k, Mode.PARTITION, EXACT)
    d1 = hausdorff(p_any, p_disj).distance
    d2 = hausdorff(p_cov, p_part).distance
    return DeltaBoundReport(k, m, True, None, bound, d1, d2)


def limit_set_filter(
    pset: ProfileSet, q: int, n: int, at_limit: bool = False
) -> ProfileSet:
    """Points whose largest singleton value clears the full-dimension threshold.

    For the normalized rank of GF(q)^n the finite-n threshold is
    1 - log_q(k)/n, compared exactly via integer powers; at_limit=True
    uses the limiting threshold 1 instead.
    """
    k = pset.k
    kept = []
    for p in pset.points:
        mx = p.max_singleton()
        if at_limit:
            ok = mx >= 1
        else:
            # mx >= 1 - log_q(k)/n  <=>  q**(n*(1-mx)) <= k
            expo = n * (1 - mx)
            if expo <= 0:
                ok = True
            else:
                ok = q ** expo.numerator <= k ** expo.denominator
        if ok:
            kept.append(p)
    suffix = "limit" if at_limit else f"threshold(q={q},n={n})"
    return ProfileSet(
        k, pset.mode, f"{pset.strategy}|{suffix}", pset.source, frozenset(kept)
    )
