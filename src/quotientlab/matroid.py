"""Matroid oracles: graphic, linear over GF(q), and direct sums.

Rank calls are exact.  A matroid keeps one rank memo, `rank_memo`, and
one closure memo, `setfn.Memo`s over `_rank` and `_closure` that compute
their misses; rank, closure, flats, union and richness read them.  A
restriction reads its base's rank memo, and a rank oracle is a view of
its matroid whose memo is `rank_memo` and whose unchecked lookup is
`rank_lookup`, so each value has one cache.  `rank_lookup` counts a
mask's coloops and keys the rank memo by the union of the closures of
two halves of its other elements.

Each class supplies one independence step, `_extender()`: a triple (add,
undo, key) over one growing independent set B, where add(e) puts e into
B and returns a token (possibly 0) when B + e is independent, and
returns None otherwise, undo(token) takes the last added element back
out, and key(s) names the contraction M/B on the low elements 0..s-1:
equal keys mean equal ranks r_{M/B}(X) for every X among them.  The
default step reads independence from `_rank` and has key None;
linear matroids eliminate one column at a time (over GF(2) against a
basis keyed by leading bit, otherwise against a stack of normalized
pivot rows), key by the low columns reduced to zero at every pivot
position, and their `_rank` counts the columns the step accepts; the
cycle matroid labels each node by the least node of its tree in B and
keys by the labels of the low edges' ends.  Everything else comes from
that step (Oxley, *Matroid Theory*, 2nd ed., 2011, §1.3-1.4, §3.1):
`rank_table`, which exact profiles read, is one include/exclude walk
over the elements that copies, shifted, the block of masks P | X below a
prefix P whose key it has met at that level, as r(P | X) = r(P) +
r_{M/P}(X); `_closure` grows a basis of X and adds every element the
step refuses.  Direct sums and restrictions have no key and walk every
element.  The cycle matroid answers a single rank or closure with one
pass of the same labeling over the mask's edges, `_forest`.

On top of rank and closure the module provides flat enumeration
(breadth-first closure extension), the flat-pair richness condition,
matroid union via augmenting paths with a min-formula certificate
(searched only from elements that are not loops in every matroid, and
stopped once the union reaches min(their count, sum_i r_i(E))) and its
brute-force check over rank tables, the quotient of the normalized
cycle-matroid rank by an edge coloring, and the two lattice embeddings
between full linear spaces GF(q)^m -> GF(q)^n (zero padding, which
preserves ranks and is the identity on ground indices, and block
repetition, which preserves normalized ranks when m divides n).
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from .errors import DivisibilityError, check_cap
from .gfq import field, index_from_vector, vector_from_index
from .graphs import SimpleGraph
from .setfn import (
    Memo,
    QuotientPoint,
    SetFunctionOracle,
    SubsetMask,
    check_ground_size,
    check_mask,
    iter_elements,
    quotient_point,
)


# `rank_table`: bytes per copied slice, so no block holds a second copy of
# itself; first prefixes stored, about 100 traced bytes each, one per 2^SHIFT
# entries and at least FLOOR (K6's 2^15 entries use 290)
_COPY_CHUNK = 1 << 14
_FIRSTS_FLOOR, _FIRSTS_SHIFT = 512, 9

# (add, undo, key): one independence step, see the module docstring
_Step = tuple[
    Callable[[int], object], Callable[[object], None], Optional[Callable[[int], Hashable]]
]


class Matroid:
    """Base class: subclasses implement _rank(mask) on ground 0..size-1.

    A subclass may also supply `_extender`, its own independence step;
    the default reads independence from `_rank` and has no contraction key.
    """

    def __init__(self, size: int):
        check_ground_size(size)
        self.size = size
        self.full_mask = (1 << size) - 1
        self.rank_memo = Memo(self._rank, {0: 0})
        self._closure_cache = Memo(self._closure)

    def _rank(self, mask: SubsetMask) -> int:  # pragma: no cover
        raise NotImplementedError

    def _extender(self) -> _Step:
        """(add, undo, key) over one growing independent set B, starting empty.

        add(e) puts e into B and returns a token when B + e is
        independent, and returns None otherwise; undo(token) takes the
        last added element back out.  Tokens may be 0.  key(s) names the
        contraction M/B on elements 0..s-1: two sets B with equal keys
        give M/B equal ranks on every subset of them.  This default tests
        r(B + e) = |B| + 1, keeps B on a stack of masks, and has no key.
        """
        rank, stack = self._rank, [0]

        def add(e: int) -> Optional[int]:
            grown = stack[-1] | 1 << e
            if rank(grown) != len(stack):
                return None
            stack.append(grown)
            return len(stack) - 1

        return add, stack.pop, None

    def rank(self, mask: SubsetMask) -> int:
        check_mask(mask, self.size)
        return self.rank_memo[mask]

    def full_rank(self) -> int:
        return self.rank(self.full_mask)

    # rank-table entries walked in the time of one lazy lookup, kept from a walk
    # keyed at one level so no profile changes side.  Keyed at every level, per
    # entry and per lookup (20,000 random masks, Python 3.11, 2 vCPUs): K7 2.2 ns,
    # 1.25 us; ex51(10) 29 ns, 2.7 us; gf(4)^2 21 ns, 1.06 us; gf(2)^4 20 ns, 0.55 us
    TABLE_ENTRIES_PER_MISS = 40

    def rank_table(self) -> array:
        """r(X) for every mask X, indexed by mask, from one include/exclude walk.

        The walk decides elements from the highest index down and keeps
        one independent set, a basis of the elements included so far,
        through `_extender`: including an element adds it when it can,
        and backing out undoes that add.  Once the prefix P above element
        e is decided, its block of entries P | X, X among elements e..0,
        is r(P) + r_{M/P}(X) (Oxley, §3.1), and key(e + 1) names M/P.  The
        first P of a key at level e walks on and is stored by its mask; a
        later one copies that block shifted by r(P) minus its first entry,
        one `bytes.translate` per `_COPY_CHUNK` bytes.  Past the budget of
        stored prefixes, keys are still looked up.  A step without a key
        walks every element.
        """
        add, undo, key = self._extender()
        table = array("B", [0]) * (1 << self.size)  # allocated once, in place; a rank is at most size <= GROUND_SIZE_CAP
        view = memoryview(table)  # a slice of the view takes bytes, which an array slice does not
        firsts = [{} for _ in range(self.size)]  # level e -> {key(e + 1): its first prefix}
        room = max(_FIRSTS_FLOOR, len(table) >> _FIRSTS_SHIFT)
        top = self.size - 1 if key else 0  # keyed levels 0 < e < top: one prefix reaches the top
        shift = Memo(lambda d: bytes(range(d, 256)) + bytes(range(d)))  # d -> the byte map x -> x + d (mod 256)

        def walk(e: int, mask: SubsetMask, rank: int) -> None:
            nonlocal room
            if 0 < e < top:
                minor = key(e + 1)
                at = firsts[e].get(minor)
                if at is not None:
                    d, step = rank - table[at] & 255, min(2 << e, _COPY_CHUNK)
                    for i in range(0, 2 << e, step):
                        view[mask + i:mask + i + step] = view[at + i:at + i + step].tobytes().translate(shift[d])
                    return
                if room:
                    firsts[e][minor] = mask
                    room -= 1
            if e:
                walk(e - 1, mask, rank)
                token = add(e)
                walk(e - 1, mask | 1 << e, rank if token is None else rank + 1)
            else:  # element 0 decides two entries
                table[mask] = rank
                token = add(0)
                table[mask | 1] = rank if token is None else rank + 1
            if token is not None:
                undo(token)

        if self.size:
            walk(self.size - 1, 0, 0)
        del walk  # the closure refers to itself: break the cycle so the table goes with its last reader
        return table

    def _closure(self, mask: SubsetMask) -> SubsetMask:
        """cl(X): X plus every element a basis of X cannot take (Oxley, §1.4)."""
        add, undo, _ = self._extender()
        for e in iter_elements(mask):
            add(e)
        out = mask
        for e in iter_elements(self.full_mask & ~mask):
            token = add(e)
            if token is None:
                out |= 1 << e
            else:
                undo(token)
        return out

    def closure(self, mask: SubsetMask) -> SubsetMask:
        check_mask(mask, self.size)
        return self._closure_cache[mask]

    def is_flat(self, mask: SubsetMask) -> bool:
        return self.closure(mask) == mask

    def flats(self) -> tuple[SubsetMask, ...]:
        """All flats, sorted, found by closing single-element extensions."""
        check_cap("FLAT_GROUND_CAP", self.size, "flat enumeration")
        start = self.closure(0)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for flat in frontier:
                rest = self.full_mask & ~flat
                for e in iter_elements(rest):
                    bigger = self.closure(flat | 1 << e)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
                        check_cap("FLAT_COUNT_CAP", len(seen), "flat enumeration")
            frontier = nxt
        return tuple(sorted(seen))

    def rank_lookup(self) -> Callable[[SubsetMask], int]:
        """r(X) for masks X inside the ground set, unchecked, read through the memos.

        A coloop is a direct summand, so r(X) = |X & C| + r(X - C) for the
        coloops C (Oxley, *Matroid Theory*, 2nd ed., ch. 4).  With L the
        lower half of the other elements and H the rest, the union
        cl(X & L) | cl(X & H) lies between X - C and cl(X - C), so it has
        rank r(X - C) (§1.4): the rank memo is keyed by that union, and
        masks whose halves close alike share one entry.  A coloop lies in
        a closure only when it lies in the set closed, so counting the
        coloops instead of closing them merges every mask that differs
        only in coloops.  Finding the coloops fills at most n + 1 entries.
        """
        rank, cl = self.rank_memo, self._closure_cache
        full = self.full_mask
        top = rank[full]
        coloops = sum(1 << e for e in range(self.size) if rank[full ^ 1 << e] < top)
        rest = list(iter_elements(full ^ coloops))
        low = sum(1 << e for e in rest[:len(rest) // 2])
        high = full ^ coloops ^ low
        return lambda mask: (mask & coloops).bit_count() + rank[cl[mask & low] | cl[mask & high]]

    def rank_oracle(self) -> SetFunctionOracle:
        return self.normalized_rank_oracle(1, f"rank({self._name()})")

    def normalized_rank_oracle(
        self, denominator: int | None = None, label: str | None = None
    ) -> SetFunctionOracle:
        """Rank divided by a constant, by default the rank of the ground set."""
        denom = self.full_rank() if denominator is None else denominator
        return SetFunctionOracle(
            self.size, den=denom, label=label or f"rank({self._name()})/{denom}", matroid=self
        )

    def _name(self) -> str:
        return type(self).__name__


class GraphicMatroid(Matroid):
    """Cycle matroid of a simple graph; ground set = edges in canonical order.

    Nodes are numbered once, by first appearance among the edges' ends,
    so the low edges 0..s-1 touch the first seen[s] nodes.  A labeling
    is a `str` whose character x is the least number in x's tree: two
    numbered nodes are connected exactly when their labels agree.
    Joining two trees replaces the larger label by the smaller, one
    `str.replace`.  The rank walk's step and the one-shot `_forest`
    behind `_rank`, `_closure` and the coloring quotient use that rule.
    """

    def __init__(self, graph: SimpleGraph):
        self.graph = graph
        number: dict[int, int] = {}  # node -> its number, below 2 * GROUND_SIZE_CAP: ASCII
        ends, seen = [], [0]  # seen[s]: how many nodes edges 0..s-1 touch
        for u, v in graph.edges:
            ends.append((number.setdefault(u, len(number)), number.setdefault(v, len(number))))
            seen.append(len(number))
        self._number, self._ends, self._seen = number, ends, seen
        self._singletons = bytes(range(len(number))).decode()
        super().__init__(len(graph.edges))

    def _forest(self, mask: SubsetMask) -> tuple[str, int]:
        """(labels, joins) of the forest of mask; joins is its rank.

        The scan stops once the joins reach the numbered nodes less one:
        the forest is one tree on them, so every other edge closes a cycle.
        """
        comp, ends, joins = self._singletons, self._ends, 0
        spanning = len(comp) - 1
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = ends[low.bit_length() - 1]
            a, b = comp[u], comp[v]
            if a != b:
                comp = comp.replace(b, a) if a < b else comp.replace(a, b)
                joins += 1
                if joins == spanning:
                    break
        return comp, joins

    def _rank(self, mask: SubsetMask) -> int:
        return self._forest(mask)[1]

    def _extender(self) -> _Step:
        """A quick-find that rolls back over the labeling, from all singletons.

        Adding an edge between two trees relabels the tree of the larger
        label; the token is the labels before, which undo restores.  M/B
        is the cycle matroid with each tree of B shrunk to a node, so the
        key is the low nodes' labels, one slice of the labeling.
        """
        ends, seen, comp = self._ends, self._seen, self._singletons

        def add(e: int) -> Optional[str]:
            nonlocal comp
            u, v = ends[e]
            a, b = comp[u], comp[v]
            if a == b:
                return None
            if a > b:
                a, b = b, a
            token, comp = comp, comp.replace(b, a)
            return token

        def undo(token: str) -> None:
            nonlocal comp
            comp = token

        return add, undo, lambda s: comp[:seen[s]]

    def _closure(self, mask: SubsetMask) -> SubsetMask:
        """The edges whose ends the forest of mask labels alike."""
        comp = self._forest(mask)[0]
        return sum([1 << i for i, (u, v) in enumerate(self._ends) if comp[u] == comp[v]])

    def _name(self) -> str:
        return f"cycle[{self.graph.name or self.graph.node_count}]"


class LinearMatroid(Matroid):
    """Column matroid of a list of vectors over GF(q)."""

    def __init__(self, q: int, columns: Sequence[tuple[int, ...]], name: str = ""):
        self.q = q
        self.field = field(q)
        cols = [tuple(c) for c in columns]
        if cols:
            dim = len(cols[0])
            if any(len(c) != dim for c in cols):
                raise ValueError("columns must share one dimension")
            if any(not 0 <= x < q for c in cols for x in c):
                raise ValueError("column entries must lie in 0..q-1")
        self.columns = tuple(cols)
        self.name = name
        super().__init__(len(cols))
        if q == 2:
            self._bits = tuple(index_from_vector(c, 2) for c in cols)
        else:
            self._bits = None

    @classmethod
    def full_space(cls, q: int, n: int) -> "LinearMatroid":
        """All q**n vectors of GF(q)^n, the zero vector included (a loop)."""
        cols = [vector_from_index(j, q, n) for j in range(q**n)]
        return cls(q, cols, name=f"gf({q})^{n}")

    def _extender(self) -> _Step:
        """Gaussian elimination of one column at a time against the added columns.

        Over GF(2) the added columns are kept reduced in a basis keyed by
        leading bit, which is the token; over GF(q) as normalized pivot
        rows on a stack, whose index is the token.  M/B is the matroid of
        the columns modulo the span of B, and a column reduced to zero at
        every pivot position is the one representative of its coset in
        the coordinates off the pivots, so the key is the low columns
        reduced that way: over GF(2) from the highest leading bit down,
        over GF(q) in stack order (each pivot row is already zero at the
        earlier pivots).
        """
        if self._bits is not None:
            bits, basis = self._bits, {}

            def add(e: int) -> Optional[int]:
                v = bits[e]
                while v:
                    lead = v.bit_length() - 1
                    if lead not in basis:
                        basis[lead] = v
                        return lead
                    v ^= basis[lead]
                return None

            def key(low: int) -> tuple[int, ...]:
                leads = sorted(basis, reverse=True)
                out = []
                for v in bits[:low]:
                    for lead in leads:
                        if v >> lead & 1:
                            v ^= basis[lead]
                    out.append(v)
                return tuple(out)

            return add, basis.__delitem__, key
        sub, mul, inv, columns = self.field.sub, self.field.mul, self.field.inv, self.columns
        pivots: list[tuple[int, list[int]]] = []

        def reduce(v: Sequence[int]) -> Sequence[int]:
            for pi, pv in pivots:
                c = v[pi]
                if c:
                    v = [sub(a, mul(c, b)) for a, b in zip(v, pv)]
            return v

        def add(e: int) -> Optional[int]:
            v = reduce(columns[e])
            lead = next((i for i, x in enumerate(v) if x), None)
            if lead is None:
                return None
            scale = inv(v[lead])
            pivots.append((lead, [mul(scale, x) for x in v]))
            return len(pivots) - 1

        def key(low: int) -> tuple[tuple[int, ...], ...]:
            return tuple(tuple(reduce(v)) for v in columns[:low])

        return add, pivots.pop, key

    def _rank(self, mask: SubsetMask) -> int:
        """Size of a basis grown from the columns in mask."""
        add = self._extender()[0]
        return sum(add(e) is not None for e in iter_elements(mask))

    def _name(self) -> str:
        return self.name or f"linear(q={self.q},m={self.size})"


class DirectSumMatroid(Matroid):
    """Disjoint union of matroids; ranks add across the parts."""

    def __init__(self, parts: Sequence[Matroid]):
        self.parts = tuple(parts)
        self.offsets = []
        off = 0
        for part in self.parts:
            self.offsets.append(off)
            off += part.size
        super().__init__(off)

    def _rank(self, mask: SubsetMask) -> int:
        return sum(
            part.rank((mask >> off) & part.full_mask)
            for part, off in zip(self.parts, self.offsets)
        )

    def _name(self) -> str:
        return "⊕".join(p._name() for p in self.parts)


class Restriction(Matroid):
    """The base matroid with every element outside `support` turned into a loop.

    `rank` reads the base's memo, so a rank is memoized once however many
    restrictions of one base ask for it.
    """

    def __init__(self, base: Matroid, support: SubsetMask):
        check_mask(support, base.size)
        self.base = base
        self.support = support
        super().__init__(base.size)

    def rank(self, mask: SubsetMask) -> int:
        check_mask(mask, self.size)
        return self.base.rank_memo[mask & self.support]

    # one body for both: matroid union's rank calls land here, and a `rank`
    # that called `_rank` slowed the gf(2)^4 flats profile by about 3%
    _rank = rank


@dataclass(frozen=True)
class EdgeColoringQuotient:
    """Quotient of the normalized cycle-matroid rank by color classes.

    component_sizes[c][u] is the number of nodes in the color-c component
    containing u (an isolated node counts as a component of size 1).
    """

    point: QuotientPoint
    component_sizes: tuple[tuple[int, ...], ...]


def edge_coloring_quotient(g: SimpleGraph, colors: Sequence[int], num_colors: int) -> EdgeColoringQuotient:
    """Quotient vector of rank/|V| under the partition of edges by color."""
    if num_colors < 1:
        raise ValueError("need at least one color class")
    check_cap("QUOTIENT_K_CAP", num_colors, "edge-coloring quotient")
    if len(colors) != g.edge_count:
        raise ValueError("need one color per edge")
    if any(not 0 <= c < num_colors for c in colors):
        raise ValueError("colors must lie in 0..num_colors-1")
    if g.node_count == 0:
        raise ValueError("normalization by |V| needs at least one node")
    parts = [0] * num_colors
    for i, c in enumerate(colors):
        parts[c] |= 1 << i
    matroid = GraphicMatroid(g)
    oracle = matroid.normalized_rank_oracle(denominator=g.node_count)
    point = quotient_point(oracle, parts)
    number, sizes = matroid._number, []
    for part in parts:
        comp = matroid._forest(part)[0]
        size = Counter(comp)  # label -> its tree's node count; a node no edge touches is alone
        sizes.append(tuple(size[comp[number[x]]] if x in number else 1 for x in range(g.node_count)))
    return EdgeColoringQuotient(point, tuple(sizes))


@dataclass(frozen=True)
class RichnessReport:
    """Outcome of the flat-pair density condition for parameters (k, m)."""

    k: int
    m: int
    holds: bool
    witness: Optional[tuple[SubsetMask, SubsetMask]]


def check_richness(matroid: Matroid, k: int, m: int) -> RichnessReport:
    """Check |A \\ F| >= k * (r(A) - r(F)) over all flat pairs F <= A with r(A) >= m."""
    flats = matroid.flats()
    ranks = {f: matroid.rank(f) for f in flats}
    for a in flats:
        ra = ranks[a]
        if ra < m:
            continue
        for f in flats:
            if f & ~a:
                continue
            if (a & ~f).bit_count() < k * (ra - ranks[f]):
                return RichnessReport(k, m, False, (f, a))
    return RichnessReport(k, m, True, None)


@dataclass(frozen=True)
class MatroidUnionResult:
    """Largest set partitionable into per-matroid independent parts.

    `certificate` is a set Y attaining rank == |Y| + sum_i r_i(E \\ Y).
    With live = the elements that are not loops in every matroid, Y is
    the live elements the final, failed search did not reach or, when
    the rank meets its bound min(|live|, sum_i r_i(E)), live itself
    (if |live| is the bound) or the empty set.
    """

    rank: int
    parts: tuple[SubsetMask, ...]
    certificate: SubsetMask
    certificate_value: int


def matroid_union(matroids: Sequence[Matroid]) -> MatroidUnionResult:
    """Matroid union by breadth-first augmenting paths over element swaps.

    Only live elements, those independent in at least one matroid, can
    join a part, so the searches start from uncovered live elements only.
    The union's rank is at most min(|live|, sum_i r_i(E)), and the
    augmentation stops as soon as the covered count reaches that bound:
    Y = live (when |live| is the smaller) or Y = 0 then attains it.  A
    search that finds no augmenting path leaves Y = the live elements it
    did not reach.
    """
    if not matroids:
        raise ValueError("need at least one matroid")
    n = matroids[0].size
    if any(m.size != n for m in matroids):
        raise ValueError("matroids must share a common ground set")
    live = sum(1 << e for e in range(n) if any(m.rank(1 << e) for m in matroids))
    bound = min(live.bit_count(), sum(m.full_rank() for m in matroids))
    part_masks = [0] * len(matroids)
    covered = 0
    cert = live if bound == live.bit_count() else 0
    while covered.bit_count() < bound:
        sources = list(iter_elements(live & ~covered))
        parent: dict[int, tuple[int, int] | None] = {e: None for e in sources}
        queue = deque(sources)
        augmented = False
        while queue and not augmented:
            y = queue.popleft()
            for i, part in enumerate(part_masks):
                if part >> y & 1:
                    continue
                size = part.bit_count()
                if matroids[i].rank(part | 1 << y) == size + 1:
                    cur, place = y, i
                    while True:
                        part_masks[place] |= 1 << cur
                        prev = parent[cur]
                        if prev is None:
                            break
                        prev_elem, prev_part = prev
                        part_masks[prev_part] &= ~(1 << cur)
                        cur, place = prev_elem, prev_part
                    augmented = True
                    break
                # x joins the search when part i + y - x is independent
                for x in iter_elements(part):
                    if x not in parent and matroids[i].rank(part ^ (1 << x) | 1 << y) == size:
                        parent[x] = (y, i)
                        queue.append(x)
        if not augmented:
            cert = live & ~sum(1 << e for e in parent)
            break
        covered = sum(part_masks)  # the parts are disjoint
    full = matroids[0].full_mask
    value = cert.bit_count() + sum(m.rank(full & ~cert) for m in matroids)
    return MatroidUnionResult(covered.bit_count(), tuple(part_masks), cert, value)


def matroid_union_rank_brute(matroids: Sequence[Matroid]) -> tuple[int, SubsetMask]:
    """min over Y of |Y| + sum_i r_i(E \\ Y), read from rank tables; exponential, for verification."""
    n = matroids[0].size
    check_cap("UNION_BRUTE_FORCE_CAP", n, "brute-force union rank")
    full = matroids[0].full_mask
    tables = [m.rank_table() for m in matroids]
    best, best_y = None, 0
    for y in range(1 << n):
        value = y.bit_count() + sum(t[full & ~y] for t in tables)
        if best is None or value < best:
            best, best_y = value, y
    return best, best_y


@dataclass(frozen=True)
class DisjointBasesResult:
    bases: Optional[tuple[SubsetMask, ...]]
    certificate: Optional[SubsetMask]


def disjoint_bases(matroid: Matroid, flats: Sequence[SubsetMask]) -> DisjointBasesResult:
    """Disjoint sets B_i inside the given flats, each spanning its flat.

    Runs matroid union on the restrictions to the flats.  Their full
    ranks sum to the target sum_i r(A_i), so a feasible union stops at
    its last augmentation.  On failure the certificate Y satisfies
    |Y| + sum_i r(A_i \\ Y) < sum_i r(A_i).
    """
    for a in flats:
        if not matroid.is_flat(a):
            raise ValueError("disjoint_bases expects flats as input")
    restrictions = [Restriction(matroid, a) for a in flats]
    target = sum(matroid.rank(a) for a in flats)
    result = matroid_union(restrictions)
    if result.rank == target:
        return DisjointBasesResult(result.parts, None)
    return DisjointBasesResult(None, result.certificate)


def pad_embed_flat(q: int, m: int, n: int, flat: SubsetMask) -> SubsetMask:
    """Embed a flat of GF(q)^m into GF(q)^n by appending zero coordinates.

    Ground index j is the vector whose base-q digits, low first, are its
    coordinates (`vector_from_index`).  Zero coordinates appended at the
    top leave every index as it is, so the map is the identity on masks.
    Rank preserving; joins and meets of flats are preserved as well.
    """
    if m > n:
        raise ValueError("pad embedding needs m <= n")
    check_mask(flat, q**m)
    return flat


def stretch_embed_flat(q: int, m: int, n: int, flat: SubsetMask) -> SubsetMask:
    """Embed a flat A of GF(q)^m into GF(q)^n as the block subspace A x ... x A.

    Needs m | n; ranks scale by n/m, so normalized ranks are preserved.
    The vector with blocks a_0, ..., a_{t-1} of A has index
    sum_j a_j * (q^m)^j, so each block shifts copies of the mask so far
    by a_j times the width of the blocks below it.
    """
    if m <= 0 or n % m:
        raise DivisibilityError(f"stretch embedding needs m | n, got m={m}, n={n}")
    block = q**m
    check_mask(flat, block)
    members = list(iter_elements(flat))
    out, width = 1, 1
    for _ in range(n // m):
        out = sum(out << a * width for a in members)
        width *= block
    return out
