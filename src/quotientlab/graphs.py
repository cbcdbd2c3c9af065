"""Simple graphs and the setfunctions they induce.

Covers blow-ups, labeled and unlabeled cut distances, cut-capacity
oracles under three normalizations, homomorphism densities, the
motif-deletion setfunction tau, weighted quotients with their node/edge
weight vectors, the exact translation between edge-weight matrices and
cut-capacity quotient vectors, and blow-up respecting partition
rounding.

Pair counts follow the ordered-incidence convention: e(S, T) counts an
edge once for each of its (endpoint in S, endpoint in T) orientations,
so an edge inside S ∩ T counts twice.  This makes the inner maximization
of the labeled cut distance separable per node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import config
from .errors import (
    BlowUpCapError,
    DegenerateNormalizationError,
    EnumCapError,
    GraphFormatError,
    GroundTooLargeError,
    KTooLargeError,
)
from .setfn import (
    QuotientPoint,
    SetFunctionOracle,
    SubsetMask,
    check_ground_size,
    quotient_point,
)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; edges are canonical (u < v, sorted)."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    name: str = ""
    adjacency: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError("node count must be nonnegative")
        adj = [0] * self.node_count
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.node_count):
                raise ValueError(f"edge ({u},{v}) is not canonical for n={self.node_count}")
            if prev is not None and (u, v) <= prev:
                raise ValueError(f"edges must be sorted and distinct, found ({u},{v}) after {prev}")
            prev = (u, v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adjacency", tuple(adj))

    @classmethod
    def make(cls, node_count: int, edges: Iterable[tuple[int, int]], name: str = "") -> "SimpleGraph":
        canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return cls(node_count, tuple(canon), name)

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, (), name=f"empty{n}")

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        return cls.make(n, itertools.combinations(range(n), 2), name=f"K{n}")

    @classmethod
    def path(cls, n: int) -> "SimpleGraph":
        return cls.make(n, ((i, i + 1) for i in range(n - 1)), name=f"P{n}")

    @classmethod
    def cycle(cls, n: int) -> "SimpleGraph":
        if n < 3:
            raise ValueError("cycles need at least three nodes")
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return cls.make(n, edges, name=f"C{n}")

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "SimpleGraph":
        edges = ((i, a + j) for i in range(a) for j in range(b))
        return cls.make(a + b, edges, name=f"K{a},{b}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_node_mask(self) -> int:
        return (1 << self.node_count) - 1

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def without_edges(self, edge_mask: SubsetMask) -> "SimpleGraph":
        kept = tuple(e for i, e in enumerate(self.edges) if not edge_mask >> i & 1)
        return SimpleGraph(self.node_count, kept)


def spanning_forest(g: SimpleGraph, edge_mask: SubsetMask) -> tuple[Callable[[int], int], int]:
    """Union-find over the nodes of g, joined by the edges in edge_mask.

    Returns the root lookup of the resulting forest (two nodes share a
    root iff they are connected) and the number of merges, which is the
    rank of edge_mask in the cycle matroid.  The scan stops after
    node_count - 1 merges: the forest spans the graph by then, so the
    remaining edges could only close cycles.
    """
    parent = list(range(g.node_count))
    spanning = g.node_count - 1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    edges = g.edges
    rest = edge_mask
    while rest:
        low = rest & -rest
        rest ^= low
        u, v = edges[low.bit_length() - 1]
        # find(u) and find(v) inlined, with the same path halving
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            merges += 1
            if merges == spanning:
                break
    return find, merges


def token_rows(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of every line that is neither blank nor a "#" comment."""
    return [(number, toks) for number, line in enumerate(text.splitlines(), 1)
            if (toks := line.split()) and not toks[0].startswith("#")]


def parse_graph(text: str, name: str = "") -> SimpleGraph:
    """Parse a header "n m", then exactly m distinct edges "u v"; "#" lines are comments."""
    rows = token_rows(text)
    if not rows:
        raise GraphFormatError(1, "missing header line 'n m'")
    (number, header), edge_rows = rows[0], rows[1:]
    try:
        n, m = map(int, header)
    except ValueError:
        raise GraphFormatError(number, "header must be two integers 'n m'") from None
    if n < 0 or m < 0:
        raise GraphFormatError(number, "header counts must be nonnegative")
    if len(edge_rows) != m:
        number = edge_rows[m][0] if len(edge_rows) > m else rows[-1][0]
        raise GraphFormatError(number, f"header declares {m} edges, found {len(edge_rows)}")
    edges: set[tuple[int, int]] = set()
    for number, pieces in edge_rows:
        try:
            u, v = map(int, pieces)
        except ValueError:
            raise GraphFormatError(number, "edge lines must be two integers 'u v'") from None
        if u == v:
            raise GraphFormatError(number, "loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(number, f"endpoint out of range 0..{n - 1}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise GraphFormatError(number, f"duplicate edge {u} {v}")
        edges.add(edge)
    return SimpleGraph(n, tuple(sorted(edges)), name)


def format_graph(g: SimpleGraph) -> str:
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def blow_up(g: SimpleGraph, t: int) -> SimpleGraph:
    """Replace every node u by t twins; twins of adjacent nodes are fully joined.

    New node u*t + c is the c-th twin of u, so `new // t` recovers the class.
    """
    if t < 1:
        raise ValueError("blow-up factor must be positive")
    edges = []
    for u, v in g.edges:
        for cu in range(t):
            for cv in range(t):
                edges.append((u * t + cu, v * t + cv))
    return SimpleGraph.make(g.node_count * t, edges, name=f"{g.name or 'G'}({t})")


def pair_count(g: SimpleGraph, s_mask: int, t_mask: int) -> int:
    """Ordered incidence count e(S, T); edges inside S ∩ T count twice."""
    adj = g.adjacency
    total = 0
    rest = t_mask
    while rest:
        low = rest & -rest
        total += (adj[low.bit_length() - 1] & s_mask).bit_count()
        rest ^= low
    return total


def cut_count(g: SimpleGraph, x_mask: int) -> int:
    """Number of edges with exactly one endpoint in X."""
    return pair_count(g, x_mask, g.full_node_mask & ~x_mask)


def cut_dist_labeled(g: SimpleGraph, h: SimpleGraph) -> Fraction:
    """max over S, T of |e_G(S,T) - e_H(S,T)| / n^2 on a common node set."""
    if g.node_count != h.node_count:
        raise ValueError("labeled cut distance needs a common node set")
    n = g.node_count
    if n > config.CUT_DIST_NODE_CAP:
        raise GroundTooLargeError("CUT_DIST_NODE_CAP", config.CUT_DIST_NODE_CAP, n, "labeled cut distance")
    if n == 0:
        return Fraction(0)
    # e_G(S, T) - e_H(S, T) = s^T D t for D = A_G - A_H.  Nodes with one row
    # of D, keyed by their neighbours in G only and in H only, also share a
    # column and are not adjacent in exactly one graph (there are no loops),
    # so s^T D t is bilinear in the per-class counts of S and T, and its
    # extremes over the box of counts sit at vertices: S and T take each
    # class whole.  For fixed S, e[c] is size[c] times the gap
    # e_G(S, w) - e_H(S, w) of each node w of class c, and the largest gap
    # either way is pos or neg, the sums of the positive and negative parts
    # of e.  S walks the 2^m sets of the m classes with a nonzero row in
    # Gray-code order (a zero row never moves e), so each step flips one
    # class x, which moves e[c] by size[c] * size[x] for the c in its row.
    # pos - neg, the sum of e, moves by shift[x], so neg is read off it.
    ga, ha = g.adjacency, h.adjacency
    classes: dict[tuple[int, int], list[int]] = {}
    for x in range(n):
        classes.setdefault((ga[x] & ~ha[x], ha[x] & ~ga[x]), []).append(x)
    classes.pop((0, 0), None)
    first = [members[0] for members in classes.values()]
    size = [len(members) for members in classes.values()]
    # (class c, change of e[c]) for the G-only and the H-only part of each row
    g_rows, h_rows, shift = [], [], []
    for (g_only, h_only), s in zip(classes, size):
        g_rows.append([(c, size[c] * s) for c, w in enumerate(first) if g_only >> w & 1])
        h_rows.append([(c, size[c] * s) for c, w in enumerate(first) if h_only >> w & 1])
        shift.append(s * (g_only.bit_count() - h_only.bit_count()))
    e = [0] * len(first)
    pos = total = best = 0
    for i in range(1, 1 << len(first)):
        x = (i & -i).bit_length() - 1
        # S_i = i ^ (i >> 1) differs from S_(i-1) in bit x, which it has iff bit x+1 of i is 0
        if i >> (x + 1) & 1:
            up, down = h_rows[x], g_rows[x]
            total -= shift[x]
        else:
            up, down = g_rows[x], h_rows[x]
            total += shift[x]
        for c, step in up:
            old = e[c]
            e[c] = new = old + step
            if old >= 0:
                pos += step
            elif new > 0:
                pos += new
        for c, step in down:
            old = e[c]
            e[c] = new = old - step
            if new >= 0:
                pos -= step
            elif old > 0:
                pos -= old
        if pos > best:
            best = pos
        if pos - total > best:
            best = pos - total
    return Fraction(best, n * n)


@dataclass(frozen=True)
class CutDistanceBound:
    """Upper bound on the blow-up/bijection infimum of the labeled distance."""

    value: Fraction
    t: int
    mapping: tuple[int, ...]
    truncated: bool


def _relabel(g: SimpleGraph, perm: Sequence[int]) -> SimpleGraph:
    return SimpleGraph.make(g.node_count, ((perm[u], perm[v]) for u, v in g.edges))


def _candidates(n: int, budget: int, rng: Random) -> Iterator[list[int]]:
    """The identity, then `budget` seeded shuffles, each drawn when it is needed."""
    yield list(range(n))
    for _ in range(budget):
        perm = list(range(n))
        rng.shuffle(perm)
        yield perm


def cut_dist_unlabeled_upper(
    g: SimpleGraph,
    h: SimpleGraph,
    t_max: int = 1,
    trials: int = 8,
    seed: int = 0,
) -> CutDistanceBound:
    """Search blow-ups and bijections for a small labeled distance.

    Returns an upper bound only: candidate bijections are the identity
    plus seeded random permutations, each improved by greedy pairwise
    swaps.  One labeled-distance evaluation walks the 2^m sets of the m
    overlay cells (defined below) a bijection fills, since the nodes of
    one cell share a row of the difference of the adjacency matrices (see
    cut_dist_labeled), and m is at most the common blow-up size n.
    Blow-up pairs above BLOWUP_NODE_CAP nodes are skipped and sizes above
    9 get a trimmed random portfolio; the result notes the truncation.

    A bijection between the blow-ups is scored by its overlay table, whose
    cell (i, j) counts the twins of h's node j mapped onto twins of g's
    node i.  Swapping twins inside a blow-up class is an automorphism of
    that blow-up, so bijections with one table have one labeled distance
    (the tables are the double cosets of two Young subgroups), and each
    plan entry computes it once per distinct table.

    The search is planned before the first labeled distance, and one loop
    runs the plan in order.  For same-size graphs on at most 6 nodes,
    entry 0 exhausts the direct bijections (blow-up factors 1 and 1, no
    swaps; blow-ups cannot beat the best block-respecting alignment they
    induce) and reports t = 1.  Then comes one (t, blow-up size, shuffle
    budget) entry per blow-up searched.  With no entry it raises
    BlowUpCapError; above ENUM_ITERATION_CAP planned calls, EnumCapError.
    The planned calls are the sum over plan entries, entry 0 included:
    n! for entry 0, and (1 + budget)(1 + 4 C(n, 2)) for a blow-up, one
    per candidate and per swap of its at most four sweeps; they bound the
    labeled distances computed, which are one per distinct table.  A graph
    without nodes has a blow-up of the other's size only if the other has
    none either.
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if (g.node_count == 0) != (h.node_count == 0):
        empty = g if g.node_count == 0 else h
        raise ValueError(f"graph {empty.name!r} has no nodes, so no blow-up matches the other graph")
    rng = Random(seed)
    # (t, g's blow-up factor, h's, node count, candidate count, candidates, sweeps)
    plan = []
    exhaustive = g.node_count == h.node_count and g.node_count <= 6
    if exhaustive:
        n = g.node_count
        plan.append((1, 1, 1, n, math.factorial(n), itertools.permutations(range(n)), 0))
    # n grows by at least one per t unless both graphs are empty
    for t in range(1, min(t_max, config.BLOWUP_NODE_CAP) + 1):
        n = g.node_count * h.node_count * t
        if n > config.BLOWUP_NODE_CAP:
            break
        budget = trials if n <= 9 else min(trials, 2)
        candidates = _candidates(n, budget, rng)
        plan.append((t, h.node_count * t, g.node_count * t, n, 1 + budget, candidates, 4))
    if not plan:
        needed = g.node_count * h.node_count
        raise BlowUpCapError("BLOWUP_NODE_CAP", config.BLOWUP_NODE_CAP, needed, "common blow-up")
    needed = sum(count * (1 + sweeps * math.comb(n, 2)) for _, _, _, n, count, _, sweeps in plan)
    if needed > config.ENUM_ITERATION_CAP:
        raise EnumCapError("ENUM_ITERATION_CAP", config.ENUM_ITERATION_CAP, needed, "cut-distance search")
    best: Optional[tuple[Fraction, int, tuple[int, ...]]] = None
    for t, g_factor, h_factor, n, _, candidates, max_sweeps in plan:
        gb = blow_up(g, g_factor)
        hb = blow_up(h, h_factor)
        # cell of the overlay table that hb node v falls into when mapped to gb node w
        row = [w // g_factor * h.node_count for w in range(n)]
        col = [v // h_factor for v in range(n)]
        scores: dict[tuple[int, ...], Fraction] = {}

        def score(perm: Sequence[int]) -> Fraction:
            table = [0] * (g.node_count * h.node_count)
            for v, w in enumerate(perm):
                table[row[w] + col[v]] += 1
            key = tuple(table)
            value = scores.get(key)
            if value is None:
                value = scores[key] = cut_dist_labeled(gb, _relabel(hb, perm))
            return value

        for perm in candidates:
            current = score(perm)
            sweeps = 0
            improved = True
            while improved and current > 0 and sweeps < max_sweeps:
                improved = False
                sweeps += 1
                for i in range(n):
                    for j in range(i + 1, n):
                        perm[i], perm[j] = perm[j], perm[i]
                        trial = score(perm)
                        if trial < current:
                            current = trial
                            improved = True
                        else:
                            perm[i], perm[j] = perm[j], perm[i]
            if best is None or current < best[0]:
                best = (current, t, tuple(perm))
            if best[0] == 0:
                break
        if best[0] == 0:
            break
    # the cap cut the blow-ups (all entries but entry 0) short of t_max, and no zero ended the search
    blowups = len(plan) - exhaustive
    return CutDistanceBound(best[0], best[1], best[2], blowups < t_max and best[0] > 0)


class CutNormalization:
    """Denominator conventions for the cut capacity function."""

    EDGES = "edges"
    TWICE_EDGES = "twice-edges"
    NODES_SQUARED = "nodes-squared"

    ALL = (EDGES, TWICE_EDGES, NODES_SQUARED)

    @staticmethod
    def denominator(g: SimpleGraph, norm: str) -> int:
        if norm in (CutNormalization.EDGES, CutNormalization.TWICE_EDGES):
            if g.edge_count == 0:
                raise DegenerateNormalizationError("edge normalization needs at least one edge")
            return g.edge_count * (2 if norm == CutNormalization.TWICE_EDGES else 1)
        if norm == CutNormalization.NODES_SQUARED:
            if g.node_count == 0:
                raise DegenerateNormalizationError("nodes-squared normalization needs at least one node")
            return g.node_count * g.node_count
        raise ValueError(f"unknown normalization {norm!r}")


def twin_classes(g: SimpleGraph) -> tuple[tuple[int, ...], ...]:
    """Classes of nodes with equal neighbourhoods apart from each other.

    u and v are twins when adj(u) - v == adj(v) - u; swapping them is then
    an automorphism of g.  The relation is transitive (a false twin of v
    cannot be a true twin of v's twin), so classes are found by comparing
    each node with the first member of every class so far.  Blow-up
    classes are twin classes.
    """
    adj = g.adjacency
    classes: list[list[int]] = []
    for v in range(g.node_count):
        for cls in classes:
            u = cls[0]
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                cls.append(v)
                break
        else:
            classes.append([v])
    return tuple(tuple(cls) for cls in classes)


def cut_capacity_oracle(g: SimpleGraph, norm: str = CutNormalization.EDGES) -> SetFunctionOracle:
    """Crossing-edge count on node subsets, divided by the chosen constant.

    Symmetric (X and its complement give the same value) and submodular;
    vanishes on the empty set and on the whole node set.  Twin nodes
    (see twin_classes) are declared as interchangeable on the oracle.
    """
    denom = CutNormalization.denominator(g, norm)
    return SetFunctionOracle(
        g.node_count,
        lambda m: cut_count(g, m),
        denom,
        label=f"kappa({g.name or g.node_count};{norm})",
        twins=twin_classes(g),
    )


def hom_sum(pattern: SimpleGraph, node_weights: Sequence, edge_weight: Callable[[int, int], object]):
    """Sum over maps phi of prod_v node_weights[phi(v)] * prod_uv edge_weight(phi(u), phi(v)).

    A graph has unit node weights and 0/1 adjacency edge weights (the sum
    counts homomorphisms); a step graphon has its step lengths and values
    (the sum is its motif density).  Both caps are checked before the
    edge-weight table is built; a zero factor prunes the branch.
    """
    pk = pattern.node_count
    if pk > config.HOM_PATTERN_NODE_CAP:
        raise GroundTooLargeError(
            "HOM_PATTERN_NODE_CAP", config.HOM_PATTERN_NODE_CAP, pk, "homomorphism pattern"
        )
    # graph nodes and step-graphon steps are the targets of the same kernel
    targets = range(len(node_weights))
    if len(targets) > config.HOM_TARGET_NODE_CAP:
        raise GroundTooLargeError(
            "HOM_TARGET_NODE_CAP", config.HOM_TARGET_NODE_CAP, len(targets), "homomorphism target"
        )
    edge_weights = [[edge_weight(a, b) for b in targets] for a in targets]
    # neighbors of pattern node v among the nodes assigned before it (edges are u < v)
    earlier = [[u for u, w in pattern.edges if w == v] for v in range(pk)]
    assignment = [0] * pk

    def rec(v: int):
        if v == pk:
            return 1
        total = 0
        for s in targets:
            factor = node_weights[s]
            for u in earlier[v]:
                factor *= edge_weights[assignment[u]][s]
                if not factor:
                    break
            if factor:
                assignment[v] = s
                total += factor * rec(v + 1)
        return total

    return rec(0)


def hom_count(pattern: SimpleGraph, target: SimpleGraph) -> int:
    """Number of adjacency-preserving maps V(pattern) -> V(target)."""
    adj = target.adjacency
    return hom_sum(pattern, [1] * target.node_count, lambda a, b: adj[a] >> b & 1)


def hom_density(pattern: SimpleGraph, target: SimpleGraph) -> Fraction:
    """Fraction of maps V(pattern) -> V(target) preserving adjacency."""
    if target.node_count == 0:
        raise ValueError("homomorphism density needs a nonempty target")
    return Fraction(hom_count(pattern, target), target.node_count ** pattern.node_count)


def _motif_deletion(
    pattern: SimpleGraph, g: SimpleGraph
) -> tuple[int, Callable[[SubsetMask], int], int]:
    """The edge count of g, the map X -> hom(F, G minus X), and the map count.

    t(F, G minus X) is the homomorphism count over the |V(G)|^|V(F)| maps,
    so both tau oracles take their numerators over that count.
    """
    check_ground_size(g.edge_count)  # before any homomorphism is counted
    if g.node_count == 0:
        raise ValueError("homomorphism density needs a nonempty target")

    def count(mask: SubsetMask) -> int:
        return hom_count(pattern, g.without_edges(mask))

    return g.edge_count, count, g.node_count ** pattern.node_count


def tau_oracle(pattern: SimpleGraph, g: SimpleGraph) -> SetFunctionOracle:
    """Density lost when all edges outside X are kept: 1 - t(F, G minus X).

    Ground set is the edge set of g.  The value on the empty set is
    1 - t(F, G), which is nonzero in general, so quotient vectors are not
    defined for this oracle, but submodularity and monotonicity checks are.
    """
    size, count, maps = _motif_deletion(pattern, g)
    return SetFunctionOracle(
        size, lambda m: maps - count(m), maps, label=f"tau({pattern.name or 'F'};{g.name or 'G'})"
    )


def shifted_tau_oracle(pattern: SimpleGraph, g: SimpleGraph) -> SetFunctionOracle:
    """Motif-deletion function rebased to vanish on the empty set.

    Subtracting the empty-set value t-gap keeps submodularity and
    monotonicity and makes quotient vectors well defined; the shift
    (the motif density of g) is recorded in the label.
    """
    size, count, maps = _motif_deletion(pattern, g)
    base = count(0)
    return SetFunctionOracle(
        size,
        lambda m: base - count(m),
        maps,
        label=f"tau({pattern.name or 'F'};{g.name or 'G'}) rebased at t={Fraction(base, maps)}",
    )


@dataclass(frozen=True)
class WeightedQuotient:
    """Node weights, pairwise edge densities, and raw pair fractions of a partition.

    alpha[i] = |V_i| / |V|; beta[i][j] = e(V_i, V_j) / (|V_i| |V_j|) with the
    convention 0 for empty classes; gamma[i][j] = e(V_i, V_j) / |V|^2.
    """

    k: int
    alpha: tuple[Fraction, ...]
    beta: tuple[tuple[Fraction, ...], ...]
    gamma: tuple[tuple[Fraction, ...], ...]


def _check_node_partition(g: SimpleGraph, parts: Sequence[int]) -> None:
    union = 0
    total = 0
    for p in parts:
        union |= p
        total += p.bit_count()
    if union != g.full_node_mask or total != g.node_count:
        raise ValueError(f"parts must form a partition of the {g.node_count} nodes")


def weighted_quotient(g: SimpleGraph, parts: Sequence[int]) -> WeightedQuotient:
    """Weight data of the quotient of g by a labeled partition of its nodes."""
    _check_node_partition(g, parts)
    k = len(parts)
    n = g.node_count
    sizes = [p.bit_count() for p in parts]
    alpha = tuple(Fraction(s, n) for s in sizes)
    beta = []
    gamma = []
    for i in range(k):
        brow = []
        grow = []
        for j in range(k):
            e = pair_count(g, parts[i], parts[j])
            brow.append(Fraction(e, sizes[i] * sizes[j]) if sizes[i] and sizes[j] else Fraction(0))
            grow.append(Fraction(e, n * n))
        beta.append(tuple(brow))
        gamma.append(tuple(grow))
    return WeightedQuotient(k, alpha, tuple(beta), tuple(gamma))


def kappa_from_gamma(wq: WeightedQuotient) -> QuotientPoint:
    """Cut-capacity quotient vector (nodes-squared normalization) from gamma."""
    k = wq.k
    if k > config.QUOTIENT_K_CAP:
        raise KTooLargeError("QUOTIENT_K_CAP", config.QUOTIENT_K_CAP, k, "quotient point")
    coords = []
    for subset in range(1 << k):
        total = Fraction(0)
        for i in range(k):
            if not subset >> i & 1:
                continue
            for j in range(k):
                if subset >> j & 1:
                    continue
                total += wq.gamma[i][j]
        coords.append(total)
    return QuotientPoint(k, tuple(coords))


def gamma_from_kappa(point: QuotientPoint) -> dict[tuple[int, int], Fraction]:
    """Off-diagonal gamma entries recovered from singleton and pair cut values."""
    out = {}
    for i in range(point.k):
        for j in range(i + 1, point.k):
            out[(i, j)] = (
                point.coords[1 << i] + point.coords[1 << j] - point.coords[(1 << i) | (1 << j)]
            ) / 2
    return out


@dataclass(frozen=True)
class RoundingResult:
    parts: tuple[int, ...]
    deviation: Fraction
    point_before: QuotientPoint
    point_after: QuotientPoint


def rounding_partition(
    base: SimpleGraph,
    t: int,
    parts: Sequence[int],
    seed: int,
) -> RoundingResult:
    """Round a partition of the t-fold blow-up so no twin class is split.

    Each twin class moves wholly into part i with probability
    |U_i ∩ class| / t (seeded).  The report carries the sup-norm gap
    between the cut-capacity quotient vectors before and after.
    """
    gt = blow_up(base, t)
    _check_node_partition(gt, parts)
    rng = Random(seed)
    k = len(parts)
    rounded = [0] * k
    for u in range(base.node_count):
        block = ((1 << t) - 1) << (u * t)
        counts = [(p & block).bit_count() for p in parts]
        threshold = rng.randrange(t)
        acc = 0
        chosen = k - 1
        for i, c in enumerate(counts):
            acc += c
            if threshold < acc:
                chosen = i
                break
        rounded[chosen] |= block
    oracle = cut_capacity_oracle(gt)
    before = quotient_point(oracle, list(parts))
    after = quotient_point(oracle, rounded)
    deviation = max(abs(a - b) for a, b in zip(before.coords, after.coords))
    return RoundingResult(tuple(rounded), deviation, before, after)
