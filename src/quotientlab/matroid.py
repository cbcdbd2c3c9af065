"""Matroid oracles: graphic, linear over GF(q), and direct sums.

Rank calls are exact.  A matroid keeps one rank memo, `rank_memo`, and
one closure memo, `setfn.Memo`s over `_rank` and `_closure` that compute
their misses; rank, closure, flats, union and richness read them.  A
restriction reads its base's rank memo, and a rank oracle is a view of
its matroid whose memo is `rank_memo` and whose unchecked lookup is
`rank_lookup`, so each value has one cache.  `rank_lookup` counts a
mask's coloops and keys the rank memo by the union of the closures of
two halves of its other elements.

Each class supplies one independence step, `_extender()`: a triple
(add, undo, key) over one growing independent set B, where add(e) puts e
into B and returns a token (possibly 0) when B + e is independent, and
returns None otherwise, undo(token) takes the last added element back
out, and key(s) names the contraction M/B on the low elements 0..s-1:
equal keys mean equal ranks r_{M/B}(X) for every X among them.  The
default step reads independence from `_rank` and has no key (None);
linear matroids eliminate one column at a time (over GF(2) against a
basis keyed by leading bit, otherwise against a stack of normalized
pivot rows), key by the low columns reduced to zero at every pivot
position, and their `_rank` counts the columns the step accepts; the
cycle matroid keeps a union-find by size that it can roll back, and
keys by the components of B that the low edges' ends lie in.
Everything else comes from that step (Oxley, *Matroid Theory*, 2nd ed.,
2011, §1.3-1.4, §3.1): `rank_table`, which exact profiles read, is one
include/exclude walk over the elements, and `_closure` grows a basis of
X and adds every element the step refuses.  The walk decides the
elements above the low s = floor(n/3) first; at each prefix P the
entries P | X, X in the low block, are r(P) + r_{M/P}(X), so the walk
goes on over the low elements only for the first P of each key and
copies a slice of that pattern, shifted by r(P), for every later one.
Direct sums and restrictions have no key and walk every element.  The
cycle matroid answers a single rank or closure with `spanning_forest`
instead, one pass with path halving and one root lookup per node.

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
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from .errors import DivisibilityError, check_cap
from .gfq import field, index_from_vector, vector_from_index
from .graphs import SimpleGraph, spanning_forest
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


# (add, undo, key): one independence step, see the module docstring
_Step = tuple[
    Callable[[int], Optional[int]], Callable[[int], None], Optional[Callable[[int], Hashable]]
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

    # rank-table entries walked in the time of one lazy lookup.  Python 3.11,
    # 2-vCPU host: K7's 2^21 entries take 36-40 ms (18 ns each), and a lookup
    # from the memo 0.6-0.9 us; sampled K7 profiles break even at 35-60.
    TABLE_ENTRIES_PER_MISS = 40

    def rank_table(self) -> array:
        """r(X) for every mask X, indexed by mask, from one include/exclude walk.

        The walk decides elements from the highest index down and keeps
        one independent set, a basis of the elements included so far,
        through `_extender`: including an element adds it when it can,
        and backing out undoes that add.  With a contraction key, the
        low s = floor(n/3) elements are decided last: once the prefix P
        above them is decided, the entries P | X for X inside the low
        block are the contiguous slice r(P) + r_{M/P}(X) (Oxley, §3.1),
        and M/P is named by the step's key.  The first P of a key walks
        the low elements and stores their contraction ranks as its
        pattern, one byte each; every later P writes the pattern, shifted
        by r(P) in one `bytes.translate`, as one slice.  A step without a
        key walks every element.
        """
        add, undo, key = self._extender()
        low = self.size // 3 if key is not None else 0
        split, width = low - 1, 1 << low  # the walk reaches element `split` once per prefix
        table = array("B", [0]) * (1 << self.size)  # allocated once, in place; a rank is at most size <= GROUND_SIZE_CAP
        view = memoryview(table)  # a slice of the view takes bytes, which an array slice does not
        patterns: dict[Hashable, bytes] = {}  # key -> r_{M/P}(X) for X in the low block
        # d -> the byte map x -> x + d (mod 256), built on first use
        shift = Memo(lambda d: bytes(range(d, 256)) + bytes(range(d)))

        def walk(e: int, mask: SubsetMask, rank: int) -> None:
            if e == split:
                minor = key(low)
                if minor in patterns:
                    view[mask:mask + width] = patterns[minor].translate(shift[rank])
                    return
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
            if e == split:
                patterns[minor] = view[mask:mask + width].tobytes().translate(shift[-rank % 256])

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
    """Cycle matroid of a simple graph; ground set = edges in canonical order."""

    def __init__(self, graph: SimpleGraph):
        self.graph = graph
        super().__init__(len(graph.edges))

    def _rank(self, mask: SubsetMask) -> int:
        return spanning_forest(self.graph, mask)[1]

    def _extender(self) -> _Step:
        """A union-find by size over the added edges, without path compression.

        An edge joining two trees is added by hanging the smaller root
        under the larger; that root is the token, and with no compression
        undoing is one parent reset.  M/B is the cycle matroid of the graph
        with each tree of B shrunk to a node, so the key numbers the
        roots of the low edges' ends in order of first appearance.
        `_rank` and `_closure` keep `spanning_forest`, whose path halving
        answers one mask faster.
        """
        edges = self.graph.edges
        ends = [x for edge in edges for x in edge]
        parent = list(range(self.graph.node_count))
        weight = [1] * self.graph.node_count

        def add(e: int) -> Optional[int]:
            ru, rv = edges[e]
            while parent[ru] != ru:
                ru = parent[ru]
            while parent[rv] != rv:
                rv = parent[rv]
            if ru == rv:
                return None
            if weight[ru] < weight[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            weight[ru] += weight[rv]
            return rv

        def undo(rv: int) -> None:
            weight[parent[rv]] -= weight[rv]
            parent[rv] = rv

        lows: dict[int, list[int]] = {}  # low -> the low edges' ends, each once

        def key(low: int) -> tuple[int, ...]:
            nodes = lows.get(low)
            if nodes is None:
                nodes = lows[low] = list(dict.fromkeys(ends[:2 * low]))
            labels: dict[int, int] = {}
            out = []
            for x in nodes:
                while parent[x] != x:
                    x = parent[x]
                out.append(labels.setdefault(x, len(labels)))
            return tuple(out)

        return add, undo, key

    def _closure(self, mask: SubsetMask) -> SubsetMask:
        """The edges whose ends the spanning forest of mask connects: one root lookup per node."""
        find, _ = spanning_forest(self.graph, mask)
        root = list(map(find, range(self.graph.node_count)))
        return sum([1 << i for i, (u, v) in enumerate(self.graph.edges) if root[u] == root[v]])

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
    sizes = []
    for part in parts:
        find, _ = spanning_forest(g, part)
        csize: dict[int, int] = {}
        for v in range(g.node_count):
            root = find(v)
            csize[root] = csize.get(root, 0) + 1
        sizes.append(tuple(csize[find(v)] for v in range(g.node_count)))
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
