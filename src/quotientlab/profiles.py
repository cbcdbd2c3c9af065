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
                 capped by ENUM_ITERATION_CAP.  The first singleton
                 class is fixed up to relabeling the parts: it takes one
                 choice per S_k orbit (the low j parts, for each j the
                 mode allows), and the points are closed under S_k by
                 the k - 1 adjacent part swaps, each an itemgetter over
                 the numerator tuple;
* Sampled     -- seeded uniform assignments plus a small deterministic
                 portfolio of structured tuples; always a subset of Exact;
                 the sample count is capped by ENUM_ITERATION_CAP; the c
                 choices are randrange(c)'s draws, getrandbits(c.bit_length())
                 kept when below c.  In CPython getrandbits(b <= 32) is the
                 top b bits of a 32-bit word and getrandbits(32 * W) the
                 next W words, first lowest, so for c <= 255 one call draws
                 W words, and one bytes.translate of their top bytes shifts
                 them to b bits and drops the rejected ones (c = 256: one
                 call per draw); words past the last sample change nothing,
                 the Random being private.  A byte holds g elements'
                 choices as base-c digits, c^g <= 256, and indexes their
                 table of c^g option sums;
* FlatsOnly   -- for matroid rank oracles, iterate the nondecreasing
                 k-tuples of flats, one per S_k orbit, and close the
                 points under S_k as Exact does.  Exact for ANY (closures
                 do not change any value of the tuple), for COVERING
                 (filter: the flats' union must be the ground set), and
                 for DISJOINT (the flats must admit disjoint spanning
                 sets, decided by matroid union and asked only for a
                 tuple whose point the scan has not kept yet).
                 Invalid for PARTITION, where no flat reduction is sound.

Each assignment is handled as a packed union table: one int whose bit
I*n + e is set when element e lies in U_I, the union of the parts named
by the index set I.  An element's choice contributes a fixed spread of
bits, so a table is a sum of per-element (or per-twin-class) options.

`profile()` is the one place that evaluates the oracle on the unions
U_I and deduplicates the resulting points, by exact coordinate equality;
no tolerances.  It works on the oracle's int numerators, which share one
denominator, and stores the distinct points as those int tuples (a
`PointCloud`); no Fraction is built until a caller asks for points.  Every
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
feasible tuple maps to it, and both filters ignore the parts' order, so
this is exact, and matroid union runs only for tuples whose point is
still missing.  The predicate first answers
False when some two or more flats' ranks sum to more than the non-loops
of their union, since disjoint bases would need that many elements; of
gf(2)^4's 2,278 nondecreasing pairs for k = 2 only the 23 feasible ones
reach matroid union.

One cost rule, `_reads_table`, picks for every strategy a dense table of
all 2^n numerators or the oracle's lazy memo through its unchecked
`lookup` (`Matroid.rank_lookup` for a rank oracle): the table when
lookups * (the builder's entries per lazy miss) >= 2^n.  The lookups are
orbits * 2^k for Exact, (samples + portfolio) * (2^k - 1) for Sampled,
nondecreasing tuples * (2^k - 1) for FlatsOnly.  The builders are
`Matroid.rank_table`, `graphs.cut_table` (doubling over the nodes) for a
cut-capacity oracle, and otherwise one kernel call per mask, whose
constant 1 keeps orbits * 2^k >= 2^n for exact profiles.  The table is
an `array` unless a numerator exceeds 64 bits, when it is a list.
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
from .errors import CapExceededError, StrategyError, check_cap
from .matroid import Matroid, check_richness, disjoint_bases
from .metric import hausdorff
from .setfn import (
    PointCloud,
    QuotientPoint,
    SetFunctionOracle,
    SubsetMask,
    check_quotient_args,
    close_under_relabeling,
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
class ProfileSet(PointCloud):
    """A deduplicated finite set of quotient points with its provenance."""

    mode: Mode
    strategy: str
    source: str


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


def _tables(classes: Sequence[Sequence[int]], spreads: Sequence[Sequence[int]]) -> list[int]:
    """The packed union tables of every choice of one option per class, each class from its own spread."""
    tables = [0]
    for cls, spread in zip(classes, spreads):
        tables = [t + c for c in _union_options(cls, spread) for t in tables]
    return tables


def _relabel_representatives(k: int, mode: Mode) -> tuple[int, ...]:
    """One choice per S_k orbit of the mode's choices: the low pm.bit_count() parts.

    Permuting the part labels permutes a choice's bits, so the orbits are
    the popcount classes, and each mode's choices are a union of them.
    """
    return tuple(pm for pm in mode.element_choices(k) if pm == (1 << pm.bit_count()) - 1)


def _exact_tables(oracle: SetFunctionOracle, k: int, mode: Mode) -> tuple[list[int], Iterator[int], int, bool]:
    """One packed union table per twin orbit: an outer list, an inner stream, the orbit count, and whether to relabel.

    Within a twin class only how many members take each choice matters,
    so each class ranges over multisets of choices; without declared twins
    every class is a single element and this is the plain |choices|^n scan.
    The first singleton class takes only one choice per S_k orbit
    (`_relabel_representatives`): every assignment is a relabeling of one
    that gives that element a representative, so the points are to be
    closed under relabeling when such a class exists.  The orbit count,
    checked against the cap before any table is built and returned, is
    the unreduced one.
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
    check_cap("ENUM_ITERATION_CAP", orbits, f"exact profile (n={n}, k={k}, mode={mode.value})")
    spreads = [spread] * len(classes)
    fixed = next((j for j, cls in enumerate(classes) if len(cls) == 1), None)
    if fixed is not None:
        reps = _relabel_representatives(k, mode)
        spreads[fixed] = [c for pm, c in zip(mode.element_choices(k), spread) if pm in reps]
    block = math.isqrt(orbits)
    split, size = len(classes), 1
    while size < block:
        split -= 1
        size *= counts[split]
    rest = _tables(classes[split + 1:], spreads[split + 1:])
    pivot = _union_options(classes[split], spreads[split]) if split < len(classes) else (0,)
    return _tables(classes[:split], spreads[:split]), (c + t for c in pivot for t in rest), orbits, fixed is not None


def _flat_tables(
    oracle: SetFunctionOracle, k: int, mode: Mode
) -> tuple[Iterator[int], int, int, Optional[Callable[[int], bool]], bool]:
    """The packed union tables of nondecreasing k-tuples of flats, the count of all k-tuples, the lookups, a predicate, and True.

    Every k-tuple relabels a nondecreasing one, so the points are to be
    closed under relabeling (the True).  COVERING streams only the tuples
    whose union is the ground set.  DISJOINT streams them all and
    returns a feasibility predicate on a packed table: flat i is read back
    from U_{i}, at shift (1 << i) * n.  The scan asks it only for a point
    it has not kept yet.  ANY has no predicate.  The lookups bound
    COVERING's from above.
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
    check_cap("ENUM_ITERATION_CAP", total, f"flats profile ({len(flats)} flats, k={k})")
    n, full = matroid.size, matroid.full_mask
    tuples = itertools.combinations_with_replacement(flats, k)
    keep = None
    if mode is Mode.COVERING:
        tuples = (tup for tup in tuples if functools.reduce(int.__or__, tup) == full)
    elif mode is Mode.DISJOINT:
        # the kernel looks `disjoint_bases` up when called, so a replacement of the module
        # global is the one it calls.  Disjoint bases B_i of the F_i hold r(F_i) non-loops
        # each, so a subfamily I (of two or more) whose rank sum exceeds the non-loops of
        # U_I, at shift I * n, answers False without a union call
        rank, nonloops = oracle.lookup, full & ~matroid.closure(0)
        shifts = [(1 << i) * n for i in range(k)]
        families = [
            (i * n, [(1 << j) * n for j in range(k) if i >> j & 1]) for i in range(3, 1 << k) if i & i - 1
        ]

        def keep(table: int) -> bool:
            for at, members in families:
                if sum(rank(table >> s & full) for s in members) > (table >> at & nonloops).bit_count():
                    return False
            return disjoint_bases(matroid, tuple([table >> s & full for s in shifts])).bases is not None

    lookups = math.comb(len(flats) + k - 1, k) * ((1 << k) - 1)
    return (_pack(tup, n) for tup in tuples), total, lookups, keep, True


def _pack(parts: Sequence[SubsetMask], n: int) -> int:
    """The packed union table of explicit parts: bit I*n + e set when e lies in U_I."""
    return sum(u << i * n for i, u in enumerate(union_table(parts)))


# generator words per block of choice draws; fixed, so no buffer grows with the samples
_DRAW_WORDS = 4096


def _choice_bytes(rng: Random, c: int) -> Iterator[bytes]:
    """Blocks of rng.randrange(c)'s accepted draws, one byte each, for 1 <= c <= 256 (see Sampled)."""
    b = c.bit_length()
    if b > 8:
        draws = filter(c.__gt__, map(rng.getrandbits, itertools.repeat(b)))
        return (bytes(itertools.islice(draws, _DRAW_WORDS)) for _ in itertools.repeat(0))
    shift = bytes(x >> 8 - b for x in range(256))
    rejected = bytes(x for x in range(256) if x >> 8 - b >= c)
    bits = 32 * _DRAW_WORDS
    tops = (rng.getrandbits(bits).to_bytes(bits // 8, "little")[3::4] for _ in itertools.repeat(0))
    return (top.translate(shift, rejected) for top in tops)


def _sampled_tables(
    oracle: SetFunctionOracle, k: int, mode: Mode, seed: int, samples: int
) -> Iterator[int]:
    """The portfolio's packed union tables, then the samples'; the cap is checked first."""
    check_cap("ENUM_ITERATION_CAP", samples, "sampled profile")
    return _sampled_stream(oracle, k, mode, seed, samples)


def _sampled_stream(
    oracle: SetFunctionOracle, k: int, mode: Mode, seed: int, samples: int
) -> Iterator[int]:
    n = oracle.size
    rng = Random(seed)
    # structured portfolio: the whole ground in one part (its spread at each element),
    # then balanced round-robins; both are partitions, so legal in any mode
    yield from (s * oracle.full_mask for s in _spread(k, Mode.PARTITION, n))
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
        except CapExceededError:
            pass  # no flat portfolio when the flats do not enumerate within their caps
        else:
            for _ in range(min(samples, 32)):
                yield _pack([rng.choice(flats) for _ in range(k)], n)
    if not n:
        yield from itertools.repeat(0, samples)
        return
    # choices in element order; a group's first element is its byte's lowest digit
    spread = _spread(k, mode, n)
    c = len(spread)
    g = max(j for j in range(1, 9) if c**j <= 256)
    h = -(-n // g)  # groups of <= g elements, as even as possible
    groups = [range(j * n // h, (j + 1) * n // h) for j in range(h)]
    getters = [_tables([(e,) for e in grp], [spread] * len(grp)).__getitem__ for grp in groups]
    # a chunk is m samples' choices, sample-major; the carry is under n bytes + a block
    blocks, carry, left = _choice_bytes(rng, c), b"", samples
    while left:
        carry += next(blocks)
        m = min(len(carry) // n, left)
        chunk, carry, left = carry[:m * n], carry[m * n:], left - m
        cols = (sum(int.from_bytes(chunk[e::n], "little") * c**i for i, e in enumerate(grp)) for grp in groups)
        yield from map(sum, zip(*[map(get, col.to_bytes(m, "little")) for get, col in zip(getters, cols)]))


def _reads_table(oracle: SetFunctionOracle, lookups: int) -> bool:
    """Whether a dense table's 2^n entries cost no more than the lookups would miss."""
    return lookups * oracle.entries_per_miss >= 1 << oracle.size


def profile(
    oracle: SetFunctionOracle,
    k: int,
    mode: Mode,
    strategy: Strategy = EXACT,
) -> ProfileSet:
    """Enumerate (or sample) the profile set of the oracle for k labeled parts."""
    check_quotient_args(oracle, k)
    n = oracle.size
    outer, value, view, keep, relabel = (0,), oracle.lookup, None, None, False
    if isinstance(strategy, Exact):
        outer, inner, count, relabel = _exact_tables(oracle, k, mode)
        lookups = count << k
    elif isinstance(strategy, FlatsOnly):
        inner, count, lookups, keep, relabel = _flat_tables(oracle, k, mode)
    elif isinstance(strategy, Sampled):
        inner = _sampled_tables(oracle, k, mode, strategy.seed, strategy.samples)
        count = strategy.samples
        # the portfolio: k + 3 partitions and at most 32 tuples of flats
        lookups = (count + k + 3 + min(count, 32)) * ((1 << k) - 1)
    else:  # pragma: no cover
        raise TypeError(f"unknown strategy {strategy!r}")
    if _reads_table(oracle, lookups):
        table = oracle.numerator_table()
        if isinstance(table, array):
            view = memoryview(table)
        else:  # a list holds numerators beyond 64 bits
            value = table.__getitem__
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
    if relabel:
        close_under_relabeling(nums, k)
    return ProfileSet(k, oracle.den, frozenset(nums), mode, strategy.describe(), oracle.label)


def derived_profile(point: QuotientPoint, k: int, mode: Mode) -> ProfileSet:
    """Exact profile of a quotient point, reinterpreted as a setfunction on its parts."""
    return profile(point.as_oracle(label="derived-point"), k, mode)


def compose(inner: ProfileSet, outer_k: int, outer_mode: Mode) -> ProfileSet:
    """Union of outer profiles taken over every point of the inner profile.

    With an exact inner ANY profile of m >= k parts, outer PARTITION (or
    ANY) reproduces the full ANY profile for k parts; the same holds for
    inner PARTITION profiles with at least 2**k parts.  The inner profile
    is taken as given, so one profile can serve several compositions.

    Each inner row is read as the numerator table of a setfunction on
    the inner parts, over `inner.den`; every outer profile's `den`
    divides it, so the outer points are united as numerators over it.
    """
    check_cap("QUOTIENT_K_CAP", inner.k, "point as a setfunction")
    nums: set[tuple[int, ...]] = set()
    for row in inner.nums:
        oracle = SetFunctionOracle(inner.k, (0, *row).__getitem__, inner.den, label="derived-point")
        nums |= profile(oracle, outer_k, outer_mode).nums_over(inner.den)
    return ProfileSet(
        outer_k,
        inner.den,
        frozenset(nums),
        mode=outer_mode,
        strategy=f"composed({outer_mode.value}∘{inner.mode.value},m={inner.k})",
        source=inner.source,
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
    # every profile of one oracle is over a divisor of oracle.den, so over it they compare as ints
    sets = {m: profile(oracle, k, m, EXACT).nums_over(oracle.den) for m in Mode}
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
            witness = QuotientPoint.over(k, oracle.den, min(missing))
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
    k, den = pset.k, pset.den
    kept = []
    for row in pset.nums:
        # part i's singleton, coordinate 1 << i, sits at row[(1 << i) - 1]; the largest, mx,
        # is compared with 1 at the limit, else mx >= 1 - log_q(k)/n <=> q**(n*(1-mx)) <= k
        gap = 1 - Fraction(max(row[(1 << i) - 1] for i in range(k)), den)
        expo = n * gap
        if (gap <= 0) if at_limit else (expo <= 0 or q ** expo.numerator <= k ** expo.denominator):
            kept.append(row)
    suffix = "limit" if at_limit else f"threshold(q={q},n={n})"
    return ProfileSet(k, den, frozenset(kept), pset.mode, f"{pset.strategy}|{suffix}", pset.source)
