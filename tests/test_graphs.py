"""Graphs: blow-ups, cut distances, cut capacities, motifs, quotients."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from quotientlab import (
    CutNormalization,
    DegenerateNormalizationError,
    GraphFormatError,
    GraphicMatroid,
    Mode,
    SimpleGraph,
    blow_up,
    check_monotone,
    check_submodular,
    cut_capacity_oracle,
    cut_dist_labeled,
    cut_dist_unlabeled_upper,
    edge_coloring_quotient,
    gamma_from_kappa,
    hom_count,
    hom_density,
    kappa_from_gamma,
    pair_count,
    parse_graph,
    profile,
    quotient_point,
    rounding_partition,
    tau_oracle,
    weighted_quotient,
)
from quotientlab import config, graphs
from quotientlab.errors import EnumCapError, KTooLargeError
from quotientlab.graphs import format_graph
from quotientlab.metric import hausdorff


def naive_pair_count(g, s_mask, t_mask):
    total = 0
    for u, v in g.edges:
        if s_mask >> u & 1 and t_mask >> v & 1:
            total += 1
        if s_mask >> v & 1 and t_mask >> u & 1:
            total += 1
    return total


def naive_hom_count(pattern, target):
    count = 0
    for assign in itertools.product(range(target.node_count), repeat=pattern.node_count):
        if all(target.adjacency[assign[u]] >> assign[v] & 1 for u, v in pattern.edges):
            count += 1
    return count


def test_pair_count_double_counts_inside_intersection():
    k2 = SimpleGraph.complete(2)
    full = 0b11
    assert pair_count(k2, full, full) == 2
    rng = random.Random(3)
    g = SimpleGraph.make(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    for _ in range(50):
        s, t = rng.randrange(64), rng.randrange(64)
        assert pair_count(g, s, t) == naive_pair_count(g, s, t)


def plain_components(g, edge_mask):
    """Merges and node labels of a union-find without path compression, edge by edge."""
    parent = list(range(g.node_count))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merges = 0
    for i, (u, v) in enumerate(g.edges):
        if edge_mask >> i & 1 and root(u) != root(v):
            parent[root(u)] = root(v)
            merges += 1
    return merges, [root(x) for x in range(g.node_count)]


def same_partition(labels_a, labels_b):
    n = len(labels_a)
    return all((labels_a[x] == labels_a[y]) == (labels_b[x] == labels_b[y])
               for x in range(n) for y in range(x + 1, n))


# K4 and a triangle side by side, plus an isolated node: no mask spans it
SPLIT_GRAPH = SimpleGraph.make(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])


def test_spanning_forest_matches_plain_union_find():
    k5, k7 = SimpleGraph.complete(5), SimpleGraph.complete(7)
    rng = random.Random(8)
    masks = [(g, m) for g in (k5, SPLIT_GRAPH) for m in range(1 << g.edge_count)]
    masks += [(k7, rng.getrandbits(k7.edge_count)) for _ in range(2000)]
    # dense masks, about one edge in eight left out, span K7 well before their last edge
    m = k7.edge_count
    masks += [(k7, (1 << m) - 1 & ~(rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m)))
              for _ in range(500)]
    for g, mask in masks:
        find, merges = graphs.spanning_forest(g, mask)
        plain_merges, labels = plain_components(g, mask)
        assert merges == plain_merges, (g.name, mask)
        assert same_partition([find(x) for x in range(g.node_count)], labels), (g.name, mask)


def test_graphic_closure_matches_rank_closure_on_every_mask():
    """The spanning-forest closure and the one through the union-find step, both against
    the rank definition cl(X) = X + {e : r(X + e) = r(X)} with forest ranks."""
    from quotientlab.matroid import Matroid

    for g in (SimpleGraph.complete(5), SPLIT_GRAPH):
        matroid = GraphicMatroid(g)
        for mask in range(1 << g.edge_count):
            r = matroid._rank(mask)
            expected = mask | sum(1 << e for e in range(g.edge_count) if matroid._rank(mask | 1 << e) == r)
            assert matroid._closure(mask) == Matroid._closure(matroid, mask) == expected, (g.name, mask)


def test_blow_up_identity():
    g = SimpleGraph.cycle(4)
    assert blow_up(g, 1).edges == g.edges


def test_blow_up_k2_gives_square():
    b = blow_up(SimpleGraph.complete(2), 2)
    assert b.node_count == 4 and b.edge_count == 4
    # complete bipartite between {0,1} and {2,3}: a 4-cycle
    assert all(d.bit_count() == 2 for d in b.adjacency)


def test_blow_up_counts_and_density():
    b = blow_up(SimpleGraph.complete(3), 2)
    assert b.node_count == 6 and b.edge_count == 12
    assert hom_density(SimpleGraph.complete(3), b) == Fraction(2, 9)


def test_cut_dist_labeled_zero_on_self():
    g = SimpleGraph.cycle(5)
    assert cut_dist_labeled(g, g) == 0


def test_cut_dist_labeled_k2_vs_empty():
    assert cut_dist_labeled(SimpleGraph.complete(2), SimpleGraph.empty(2)) == Fraction(1, 2)


def naive_cut_dist(g, h):
    n = g.node_count
    best = 0
    for s in range(1 << n):
        for t in range(1 << n):
            gap = abs(naive_pair_count(g, s, t) - naive_pair_count(h, s, t))
            best = max(best, gap)
    return Fraction(best, n * n)


def test_cut_dist_labeled_c4_vs_p4():
    c4, p4 = SimpleGraph.cycle(4), SimpleGraph.path(4)
    expected = naive_cut_dist(c4, p4)
    assert expected == Fraction(1, 8)
    assert cut_dist_labeled(c4, p4) == expected


def test_cut_dist_labeled_matches_naive_random():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randrange(2, 6)
        pairs = list(itertools.combinations(range(n), 2))
        g = SimpleGraph.make(n, [e for e in pairs if rng.random() < 0.5])
        h = SimpleGraph.make(n, [e for e in pairs if rng.random() < 0.5])
        assert cut_dist_labeled(g, h) == naive_cut_dist(g, h)


def reference_cut_dist_labeled(g, h):
    """The per-set popcount loop the Gray-code kernel replaces: 2n popcounts for each S."""
    n = g.node_count
    if n == 0:
        return Fraction(0)
    ga, ha = g.adjacency, h.adjacency
    best = 0
    for s in range(1 << n):
        pos = neg = 0
        for w in range(n):
            d = (ga[w] & s).bit_count() - (ha[w] & s).bit_count()
            if d > 0:
                pos += d
            else:
                neg -= d
        best = max(best, pos, neg)
    return Fraction(best, n * n)


def gray_cut_dist_labeled(g, h):
    """The unreduced Gray-code walk the class walk replaces: all 2^n node sets, unit steps."""
    n = g.node_count
    if n == 0:
        return Fraction(0)
    ga, ha = g.adjacency, h.adjacency
    g_only = [[w for w in range(n) if (ga[x] & ~ha[x]) >> w & 1] for x in range(n)]
    h_only = [[w for w in range(n) if (ha[x] & ~ga[x]) >> w & 1] for x in range(n)]
    d = [0] * n
    pos = neg = best = 0
    for i in range(1, 1 << n):
        x = (i & -i).bit_length() - 1
        up, down = (h_only[x], g_only[x]) if i >> (x + 1) & 1 else (g_only[x], h_only[x])
        for w in up:
            if d[w] < 0:
                neg -= 1
            else:
                pos += 1
            d[w] += 1
        for w in down:
            if d[w] > 0:
                pos -= 1
            else:
                neg += 1
            d[w] -= 1
        best = max(best, pos, neg)
    return Fraction(best, n * n)


def random_graph(rng, n, p):
    return SimpleGraph.make(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def complement(g):
    return SimpleGraph.make(g.node_count, set(itertools.combinations(range(g.node_count), 2)) - set(g.edges))


def relabeled_blowup_pairs(rng, count):
    """12-node pairs shaped like the sparse-search cutdist inputs, h relabeled at random."""
    def shaped(nodes, edges):
        return SimpleGraph.make(nodes, rng.sample(list(itertools.combinations(range(nodes), 2)), edges))

    pairs = []
    for _ in range(count):
        g, h = blow_up(shaped(3, 2), 4), blow_up(shaped(4, 3), 3)
        perm = list(range(12))
        rng.shuffle(perm)
        pairs.append((g, SimpleGraph.make(12, ((perm[u], perm[v]) for u, v in h.edges))))
    return pairs


def test_cut_dist_labeled_matches_reference_on_shaped_pairs():
    rng = random.Random(2024)
    for n in range(13):
        g = random_graph(rng, n, rng.random())
        edges = list(itertools.combinations(range(n), 2))
        rng.shuffle(edges)
        half = len(edges) // 2
        pairs = [
            (g, g),
            (g, complement(g)),
            (SimpleGraph.complete(n), SimpleGraph.empty(n)),
            (SimpleGraph.empty(n), SimpleGraph.complete(n)),
            (SimpleGraph.make(n, edges[:half]), SimpleGraph.make(n, edges[half:])),
        ]
        pairs += [(random_graph(rng, n, rng.random()), random_graph(rng, n, rng.random()))
                  for _ in range(3)]
        for a, b in pairs:
            assert cut_dist_labeled(a, b) == reference_cut_dist_labeled(a, b), (a.edges, b.edges)


def test_cut_dist_labeled_matches_reference_on_relabeled_blowups():
    for g, h in relabeled_blowup_pairs(random.Random(99), 12):
        assert cut_dist_labeled(g, h) == reference_cut_dist_labeled(g, h), h.edges


def flipped(rng, g, flips):
    """g with `flips` node pairs drawn at random toggled (a pair may be drawn twice)."""
    edges = set(g.edges)
    for _ in range(flips if g.node_count >= 2 else 0):
        edges ^= {tuple(sorted(rng.sample(range(g.node_count), 2)))}
    return SimpleGraph.make(g.node_count, edges)


def twin_edge_pair(rng, k):
    """The false-twin pairs (2i, 2i+1) of a 2-blow-up, each pair joined in g, in h, in both or
    in neither: joined twins differ in their row of A_G - A_H when only one graph joins them."""
    base = blow_up(random_graph(rng, k, rng.random()), 2)
    joins = [rng.randrange(4) for _ in range(k)]
    g = SimpleGraph.make(2 * k, set(base.edges) | {(2 * i, 2 * i + 1) for i, j in enumerate(joins) if j & 1})
    h = SimpleGraph.make(2 * k, set(base.edges) | {(2 * i, 2 * i + 1) for i, j in enumerate(joins) if j & 2})
    return g, h


def test_cut_dist_labeled_matches_both_references_where_classes_merge_or_split():
    rng = random.Random(4242)
    pairs = [(SimpleGraph.empty(0), SimpleGraph.empty(0)), (SimpleGraph.empty(1), SimpleGraph.empty(1))]
    # near-equal pairs: most rows of A_G - A_H are zero and those nodes merge
    for n in range(2, 12):
        g = random_graph(rng, n, rng.random())
        pairs += [(g, flipped(rng, g, flips)) for flips in range(4)]
    pairs += [twin_edge_pair(rng, k) for k in range(1, 6) for _ in range(3)]
    # relabeled blow-ups at t = 2: a 2-node against a 3-node graph on 12 nodes
    for _ in range(4):
        g, h = blow_up(random_graph(rng, 2, 1), 6), blow_up(random_graph(rng, 3, 0.5), 4)
        perm = list(range(12))
        rng.shuffle(perm)
        pairs.append((g, SimpleGraph.make(12, ((perm[u], perm[v]) for u, v in h.edges))))
    for g, h in pairs:
        expected = reference_cut_dist_labeled(g, h)
        assert gray_cut_dist_labeled(g, h) == expected, (g.edges, h.edges)
        assert cut_dist_labeled(g, h) == expected, (g.edges, h.edges)


def test_cut_dist_labeled_is_blowup_invariant_up_to_the_node_cap():
    # blow-up classes are classes of equal rows, so even 24-node pairs walk at most 2^4 sets
    rng = random.Random(31)
    for n in range(1, 5):
        for _ in range(3):
            g, h = random_graph(rng, n, 0.5), random_graph(rng, n, 0.5)
            expected = cut_dist_labeled(g, h)
            assert expected == reference_cut_dist_labeled(g, h)
            for t in range(2, config.CUT_DIST_NODE_CAP // n + 1):
                assert cut_dist_labeled(blow_up(g, t), blow_up(h, t)) == expected, (g.edges, h.edges, t)


@pytest.mark.parametrize("g, h, t_max, trials, seed", [
    (SimpleGraph.path(3), SimpleGraph.complete(2), 1, 4, 3),
    (SimpleGraph.complete(3), SimpleGraph.path(3), 2, 2, 5),
    (SimpleGraph.path(3), SimpleGraph.make(4, [(0, 1), (0, 2), (0, 3)]), 1, 8, 7),
])
def test_unlabeled_upper_same_with_reference_kernel(g, h, t_max, trials, seed, monkeypatch):
    fast = cut_dist_unlabeled_upper(g, h, t_max, trials, seed)
    monkeypatch.setattr(graphs, "cut_dist_labeled", reference_cut_dist_labeled)
    assert cut_dist_unlabeled_upper(g, h, t_max, trials, seed) == fast


def reference_unlabeled_upper(g, h, t_max, trials, seed, scored):
    """The bijection search scoring every bijection with cut_dist_labeled, without a memo.

    Appends (plan entry, bijection) to `scored` for each bijection scored;
    the exhaustive pass over direct bijections is entry 0, blow-up t is entry t.
    """
    def relabeled(graph, perm):
        return SimpleGraph.make(graph.node_count, ((perm[u], perm[v]) for u, v in graph.edges))

    best = None
    if g.node_count == h.node_count <= 6:
        for perm in itertools.permutations(range(h.node_count)):
            scored.append((0, perm))
            value = cut_dist_labeled(g, relabeled(h, perm))
            if best is None or value < best[0]:
                best = (value, 1, perm)
            if best[0] == 0:
                return graphs.CutDistanceBound(best[0], 1, best[2], False)
    rng = random.Random(seed)
    entries = [t for t in range(1, t_max + 1)
               if g.node_count * h.node_count * t <= config.BLOWUP_NODE_CAP]
    for t in entries:
        n = g.node_count * h.node_count * t
        gb, hb = blow_up(g, h.node_count * t), blow_up(h, g.node_count * t)

        def score(perm):
            scored.append((t, tuple(perm)))
            return cut_dist_labeled(gb, relabeled(hb, perm))

        for candidate in range(1 + (trials if n <= 9 else min(trials, 2))):
            perm = list(range(n))
            if candidate:
                rng.shuffle(perm)
            current = score(perm)
            for _ in range(4):
                if current == 0:
                    break
                improved = False
                for i, j in itertools.combinations(range(n), 2):
                    perm[i], perm[j] = perm[j], perm[i]
                    trial = score(perm)
                    if trial < current:
                        current, improved = trial, True
                    else:
                        perm[i], perm[j] = perm[j], perm[i]
                if not improved:
                    break
            if best is None or current < best[0]:
                best = (current, t, tuple(perm))
            if best[0] == 0:
                return graphs.CutDistanceBound(best[0], t, best[2], False)
    return graphs.CutDistanceBound(best[0], best[1], best[2], len(entries) < t_max)


def overlay_table(g, h, t, perm):
    """Sorted (class of the image in g's blow-up, class in h's blow-up) pair of every node."""
    return tuple(sorted((w // (h.node_count * t), v // (g.node_count * t)) for v, w in enumerate(perm)))


def distinct_tables(g, h, scored):
    """Distinct (plan entry, overlay table) pairs; direct bijections are their own tables."""
    return {(t, perm if t == 0 else overlay_table(g, h, t, perm)) for t, perm in scored}


def test_unlabeled_upper_matches_unmemoized_reference():
    rng = random.Random(404)
    # (g, h, t_max, trials); the unmemoized reference takes about 0.5 s on a
    # 3-node against a 4-node graph, so random pairs stay below 9 nodes at t = 1,
    # and 12-node blow-ups get at most one shuffle
    cases = [
        (SimpleGraph.path(3), SimpleGraph.make(4, [(0, 1), (0, 2), (0, 3)]), 1, 1),
        (SimpleGraph.path(4), SimpleGraph.path(3), 1, 0),
        (SimpleGraph.complete(2), SimpleGraph.path(3), 2, 1),
    ]
    while len(cases) < 16:
        a, b, t_max = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 2)
        if a * b < 9:
            trials = rng.randint(0, 2 if a * b * t_max <= 9 else 1)
            cases.append((random_graph(rng, a, 0.5), random_graph(rng, b, 0.5), t_max, trials))
    twin_sizes = {max(map(len, graphs.twin_classes(x))) > 1 for case in cases for x in case[:2]}
    assert twin_sizes == {False, True}
    assert {t_max for *_, t_max, _ in cases} == {1, 2}
    for g, h, t_max, trials in cases:
        seed = rng.randint(0, 99)
        expected = reference_unlabeled_upper(g, h, t_max, trials, seed, [])
        assert cut_dist_unlabeled_upper(g, h, t_max, trials, seed) == expected, (g.edges, h.edges)


def test_twin_shuffles_keep_the_table_and_the_labeled_distance():
    rng = random.Random(77)
    for g, h, t in [
        (SimpleGraph.path(3), SimpleGraph.make(4, [(0, 1), (0, 2), (0, 3)]), 1),
        (SimpleGraph.complete(2), SimpleGraph.path(3), 2),
        (SimpleGraph.path(3), SimpleGraph.cycle(4), 1),
    ]:
        n = g.node_count * h.node_count * t
        gb, hb = blow_up(g, h.node_count * t), blow_up(h, g.node_count * t)
        g_size, h_size = h.node_count * t, g.node_count * t
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            # shuffle inside each class of hb before mapping, and inside each class of gb after
            before = [c * h_size + x for c in range(n // h_size)
                      for x in rng.sample(range(h_size), h_size)]
            after = [c * g_size + x for c in range(n // g_size)
                     for x in rng.sample(range(g_size), g_size)]
            twin = [after[perm[before[v]]] for v in range(n)]
            assert overlay_table(g, h, t, twin) == overlay_table(g, h, t, perm)
            assert (cut_dist_labeled(gb, graphs._relabel(hb, twin))
                    == cut_dist_labeled(gb, graphs._relabel(hb, perm)))


def test_unlabeled_upper_scores_each_candidate_through_the_module_kernel(monkeypatch):
    # the kernel and the relabeling are looked up on the module, once per
    # distinct overlay table of the bijections the search scores
    counts = {"kernel": 0, "relabel": 0}
    kernel, relabel = graphs.cut_dist_labeled, graphs._relabel

    def counted_kernel(g, h):
        counts["kernel"] += 1
        return kernel(g, h)

    def counted_relabel(g, perm):
        counts["relabel"] += 1
        return relabel(g, perm)

    star = SimpleGraph.make(4, [(0, 1), (0, 2), (0, 3)])
    for g, h, t_max, trials in [
        (SimpleGraph.path(3), star, 1, 8),
        (SimpleGraph.complete(3), SimpleGraph.path(3), 1, 2),
        (SimpleGraph.path(3), SimpleGraph.complete(2), 1, 4),
        (SimpleGraph.complete(2), SimpleGraph.path(3), 2, 1),
    ]:
        scored = []
        expected = reference_unlabeled_upper(g, h, t_max, trials, 0, scored)
        counts.update(kernel=0, relabel=0)
        with monkeypatch.context() as m:
            m.setattr(graphs, "cut_dist_labeled", counted_kernel)
            m.setattr(graphs, "_relabel", counted_relabel)
            assert cut_dist_unlabeled_upper(g, h, t_max, trials, 0) == expected
        assert counts["kernel"] == counts["relabel"] == len(distinct_tables(g, h, scored)) > trials
        if h is star:
            assert counts["kernel"] < len(scored)


def test_unlabeled_upper_draws_shuffles_only_when_needed(monkeypatch):
    shuffles = 0
    shuffle = random.Random.shuffle

    def counted(self, x):
        nonlocal shuffles
        shuffles += 1
        shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counted)
    k2 = SimpleGraph.complete(2)
    # the identity bijection of the common 8-node blow-up already scores 0
    assert cut_dist_unlabeled_upper(k2, blow_up(k2, 2), 1, 400_000, 0).value == 0
    assert shuffles == 0
    # a positive distance never stops the search, so all the trials are drawn
    bound = cut_dist_unlabeled_upper(SimpleGraph.path(3), k2, 1, 5, 0)
    assert bound.value > 0 and shuffles == 5


def test_unlabeled_upper_plan_above_cap_raises_before_any_call(monkeypatch):
    calls = 0
    kernel = graphs.cut_dist_labeled

    def counted_kernel(g, h):
        nonlocal calls
        calls += 1
        return kernel(g, h)

    monkeypatch.setattr(graphs, "cut_dist_labeled", counted_kernel)
    p3, k3 = SimpleGraph.path(3), SimpleGraph.complete(3)
    with pytest.raises(EnumCapError) as info:
        cut_dist_unlabeled_upper(p3, k3, 1, 10**8, 0)
    # 3! exhaustive calls, then 1 + 10^8 candidates of 1 + 4 * C(9, 2) calls each
    assert info.value.needed == 6 + (1 + 10**8) * 145
    assert calls == 0
    # P3 against K2 plans 6 candidates of 1 + 4 * C(6, 2) calls on the 6-node blow-ups
    monkeypatch.setattr(config, "ENUM_ITERATION_CAP", 365)
    with pytest.raises(EnumCapError) as info:
        cut_dist_unlabeled_upper(p3, SimpleGraph.complete(2), 1, 5, 0)
    assert info.value.needed == 366 and calls == 0
    monkeypatch.setattr(config, "ENUM_ITERATION_CAP", 366)
    assert cut_dist_unlabeled_upper(p3, SimpleGraph.complete(2), 1, 5, 0).value > 0
    assert 0 < calls <= 366


def test_unlabeled_upper_truncation_counts_blowups_not_the_direct_pass():
    # P3 and K3 plan the direct pass and t = 1 (9 nodes); t = 2 (18 nodes) is over the cap.
    # P4 and C4 plan only the direct pass, since their t = 1 blow-ups have 16 nodes
    for g, h, t_max in [(SimpleGraph.path(3), SimpleGraph.complete(3), 2),
                        (SimpleGraph.path(4), SimpleGraph.cycle(4), 1)]:
        bound = cut_dist_unlabeled_upper(g, h, t_max, 0, 0)
        assert bound.value > 0 and bound.t == 1 and bound.truncated


def test_unlabeled_upper_rejects_negative_trials():
    g = SimpleGraph.path(3)
    with pytest.raises(ValueError, match="trials must be nonnegative"):
        cut_dist_unlabeled_upper(g, g, 1, -3, 0)


def test_cut_dist_unlabeled_zero_on_self():
    g = SimpleGraph.cycle(4)
    assert cut_dist_unlabeled_upper(g, g, t_max=1, trials=2, seed=1).value == 0


def test_cut_dist_unlabeled_k2_vs_its_blowup():
    k2 = SimpleGraph.complete(2)
    c4 = blow_up(k2, 2)
    bound = cut_dist_unlabeled_upper(k2, c4, t_max=1, trials=8, seed=0)
    assert bound.value == 0


def test_cut_dist_unlabeled_exhaustible_tiny():
    k3 = SimpleGraph.complete(3)
    e3 = SimpleGraph.empty(3)
    bound = cut_dist_unlabeled_upper(k3, e3, t_max=1, trials=4, seed=2)
    # bound at least the density gap, at most from the labeled distance
    assert bound.value == cut_dist_labeled(blow_up(k3, 3), blow_up(e3, 3))


def test_cut_capacity_values():
    k2 = cut_capacity_oracle(SimpleGraph.complete(2), CutNormalization.EDGES)
    assert k2.evaluate(0b01) == 1
    c4 = cut_capacity_oracle(SimpleGraph.cycle(4), CutNormalization.EDGES)
    assert c4.evaluate(0b0011) == Fraction(1, 2)
    assert c4.evaluate(c4.full_mask) == 0
    assert c4.evaluate(0) == 0


def test_cut_capacity_submodular_and_symmetric():
    for g in (SimpleGraph.cycle(5), SimpleGraph.complete(4), SimpleGraph.complete_bipartite(2, 3)):
        oracle = cut_capacity_oracle(g, CutNormalization.NODES_SQUARED)
        assert check_submodular(oracle) == []
        full = g.full_node_mask
        for mask in range(1 << g.node_count):
            assert oracle.evaluate(mask) == oracle.evaluate(full ^ mask)


def test_cut_capacity_degenerate_normalization():
    for nodes, norm in ((3, CutNormalization.EDGES), (0, CutNormalization.NODES_SQUARED)):
        with pytest.raises(DegenerateNormalizationError):
            cut_capacity_oracle(SimpleGraph.empty(nodes), norm)
    oracle = cut_capacity_oracle(SimpleGraph.empty(3), CutNormalization.NODES_SQUARED)
    assert oracle.evaluate(0b101) == 0


def test_hom_densities():
    k2, k3 = SimpleGraph.complete(2), SimpleGraph.complete(3)
    assert hom_count(k2, k3) == naive_hom_count(k2, k3) == 6
    assert hom_density(k2, k3) == Fraction(2, 3)
    assert hom_density(k3, k3) == Fraction(2, 9)
    assert hom_density(k3, SimpleGraph.empty(4)) == 0
    edgeless = SimpleGraph.empty(2)
    assert hom_density(edgeless, k3) == 1


def test_hom_count_matches_naive_random():
    rng = random.Random(23)
    motifs = [
        SimpleGraph.complete(2),
        SimpleGraph.path(3),
        SimpleGraph.cycle(4),
        SimpleGraph.make(4, [(0, 1), (2, 3)]),  # disconnected: two edges
        SimpleGraph.make(5, [(0, 1), (1, 2)]),  # disconnected: P3 and two isolated nodes
        SimpleGraph.empty(3),
    ]
    for _ in range(10):
        n = rng.randrange(2, 6)
        pairs = list(itertools.combinations(range(n), 2))
        g = SimpleGraph.make(n, [e for e in pairs if rng.random() < 0.5])
        for f in motifs:
            assert hom_count(f, g) == naive_hom_count(f, g)


def test_tau_values_k2_k3():
    oracle = tau_oracle(SimpleGraph.complete(2), SimpleGraph.complete(3))
    assert oracle.evaluate(0) == Fraction(1, 3)
    assert oracle.evaluate(oracle.full_mask) == 1
    assert check_submodular(oracle) == []
    assert check_monotone(oracle) == []


def test_tau_removing_one_edge_kills_triangles():
    oracle = tau_oracle(SimpleGraph.complete(3), SimpleGraph.complete(3))
    assert oracle.evaluate(0b001) == 1


def test_weighted_quotient_k2():
    wq = weighted_quotient(SimpleGraph.complete(2), [0b01, 0b10])
    assert wq.alpha == (Fraction(1, 2), Fraction(1, 2))
    assert wq.beta[0][1] == 1
    assert wq.gamma[0][1] == Fraction(1, 4)


def test_weighted_quotient_single_class():
    g = SimpleGraph.cycle(4)
    wq = weighted_quotient(g, [g.full_node_mask])
    assert wq.alpha == (Fraction(1),)
    assert wq.gamma[0][0] == Fraction(2 * g.edge_count, 16)


def test_weighted_quotient_bipartition_of_square():
    g = SimpleGraph.cycle(4)
    color_a = 0b0101
    wq = weighted_quotient(g, [color_a, g.full_node_mask ^ color_a])
    assert wq.beta[0][1] == 1
    assert wq.gamma[0][1] == Fraction(1, 4)


def test_weighted_quotient_empty_class_beta_zero():
    g = SimpleGraph.complete(3)
    wq = weighted_quotient(g, [g.full_node_mask, 0])
    assert wq.beta[0][1] == 0
    assert wq.beta[1][1] == 0
    assert wq.gamma[0][1] == 0


def test_weighted_quotient_rejects_non_partition():
    g = SimpleGraph.complete(3)
    with pytest.raises(ValueError):
        weighted_quotient(g, [0b011, 0b110])


def test_kappa_from_gamma_examples():
    g = SimpleGraph.complete(2)
    wq = weighted_quotient(g, [0b01, 0b10])
    point = kappa_from_gamma(wq)
    assert point.coords == (Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(0))
    single = kappa_from_gamma(weighted_quotient(g, [g.full_node_mask]))
    assert all(c == 0 for c in single.coords)


def test_kappa_from_gamma_checks_the_k_cap_before_any_coordinate():
    class Untouched(tuple):
        def __getitem__(self, i):
            raise AssertionError("a coordinate was built")

    path = SimpleGraph.path(config.QUOTIENT_K_CAP + 1)
    wq = weighted_quotient(path, [1 << v for v in range(path.node_count)])
    with pytest.raises(KTooLargeError) as info:
        kappa_from_gamma(dataclasses.replace(wq, gamma=Untouched(wq.gamma)))
    assert "QUOTIENT_K_CAP=" in str(info.value) and info.value.needed == path.node_count


def test_gamma_kappa_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 7)
        pairs = list(itertools.combinations(range(n), 2))
        g = SimpleGraph.make(n, [e for e in pairs if rng.random() < 0.6])
        k = rng.randrange(2, 4)
        parts = [0] * k
        for v in range(n):
            parts[rng.randrange(k)] |= 1 << v
        wq = weighted_quotient(g, parts)
        point = kappa_from_gamma(wq)
        oracle = cut_capacity_oracle(g, CutNormalization.NODES_SQUARED)
        assert point == quotient_point(oracle, parts)
        recovered = gamma_from_kappa(point)
        for i in range(k):
            for j in range(i + 1, k):
                assert recovered[(i, j)] == wq.gamma[i][j]


def test_k3_gamma_from_kappa_example():
    g = SimpleGraph.complete(3)
    parts = [0b001, 0b110]
    point = quotient_point(cut_capacity_oracle(g, CutNormalization.NODES_SQUARED), parts)
    assert gamma_from_kappa(point)[(0, 1)] == Fraction(2, 9)


def test_quotient_gap_bounded_by_cut_distance():
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.randrange(3, 8)
        pairs = list(itertools.combinations(range(n), 2))
        g1 = SimpleGraph.make(n, [e for e in pairs if rng.random() < 0.5])
        g2 = SimpleGraph.make(n, [e for e in pairs if rng.random() < 0.5])
        q1 = profile(cut_capacity_oracle(g1, CutNormalization.NODES_SQUARED), 2, Mode.PARTITION)
        q2 = profile(cut_capacity_oracle(g2, CutNormalization.NODES_SQUARED), 2, Mode.PARTITION)
        assert hausdorff(q1, q2).distance <= cut_dist_labeled(g1, g2)


def test_rounding_partition_respecting_is_fixed_point():
    base = SimpleGraph.complete(3)
    t = 2
    parts = [0b000011, 0b111100]  # blocks of node 0 vs nodes 1,2
    result = rounding_partition(base, t, parts, seed=9)
    assert result.parts == tuple(parts)
    assert result.deviation == 0


def test_rounding_partition_split_class_exact_deviation():
    base = SimpleGraph.complete(2)
    t = 3
    # split node 0's block 2/1 between the parts
    parts = [0b000011, 0b111100]
    result = rounding_partition(base, t, parts, seed=4)
    assert result.parts != tuple(parts)
    union = result.parts[0] | result.parts[1]
    assert union == blow_up(base, t).full_node_mask
    assert result.parts[0] & result.parts[1] == 0
    oracle = cut_capacity_oracle(blow_up(base, t), CutNormalization.EDGES)
    before = quotient_point(oracle, parts)
    after = quotient_point(oracle, list(result.parts))
    expected = max(abs(a - b) for a, b in zip(before.coords, after.coords))
    assert result.deviation == expected


def test_rounding_partition_mean_deviation_small():
    base = SimpleGraph.cycle(12)
    t = 2
    k = 2
    rng = random.Random(88)
    gt = blow_up(base, t)
    parts = [0, 0]
    for v in range(gt.node_count):
        parts[rng.randrange(k)] |= 1 << v
    epsilon_sq = Fraction(32 * (k + 1), base.node_count)
    deviations = [rounding_partition(base, t, parts, seed=s).deviation for s in range(40)]
    mean = sum(deviations) / len(deviations)
    # eps = sqrt(32 (k+1) / m); mean deviation stays below eps / 4
    assert float(mean) < (float(epsilon_sq) ** 0.5) / 4


def test_rounding_partition_seed_deterministic():
    base = SimpleGraph.complete(3)
    parts = [0b010101, 0b101010]
    a = rounding_partition(base, 2, parts, seed=5)
    b = rounding_partition(base, 2, parts, seed=5)
    assert a.parts == b.parts and a.deviation == b.deviation


def test_edge_coloring_tree_single_color():
    tree = SimpleGraph.path(6)
    result = edge_coloring_quotient(tree, [0] * tree.edge_count, 2)
    assert result.point.coords == (
        Fraction(0),
        Fraction(5, 6),
        Fraction(0),
        Fraction(5, 6),
    )
    assert result.component_sizes[0] == (6,) * 6
    assert result.component_sizes[1] == (1,) * 6


def test_edge_coloring_k4_perfect_matchings():
    k4 = SimpleGraph.complete(4)
    index = k4.edge_index()
    colors = [0] * 6
    colors[index[(0, 1)]] = 0
    colors[index[(2, 3)]] = 0
    colors[index[(0, 2)]] = 1
    colors[index[(1, 3)]] = 1
    colors[index[(0, 3)]] = 2
    colors[index[(1, 2)]] = 2
    result = edge_coloring_quotient(k4, colors, 3)
    for i in range(3):
        assert result.point.singleton(i) == Fraction(1, 2)
    assert result.point.coords[-1] == Fraction(3, 4)
    for c in range(3):
        assert result.component_sizes[c] == (2, 2, 2, 2)


def test_edge_coloring_matches_matroid_quotient():
    g = SimpleGraph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    colors = [0, 1, 0, 1, 2, 2]
    result = edge_coloring_quotient(g, colors, 3)
    parts = [0, 0, 0]
    for i, c in enumerate(colors):
        parts[c] |= 1 << i
    oracle = GraphicMatroid(g).normalized_rank_oracle(denominator=5)
    assert result.point == quotient_point(oracle, parts)


def test_edge_coloring_edgeless():
    result = edge_coloring_quotient(SimpleGraph.empty(3), [], 2)
    assert all(c == 0 for c in result.point.coords)


def test_parse_and_format_round_trip():
    g = SimpleGraph.make(4, [(0, 1), (2, 3), (1, 2)])
    text = format_graph(g)
    assert parse_graph(text) == SimpleGraph(g.node_count, g.edges)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("2 1\n0 0\n")
    assert err.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("oops\n")
    with pytest.raises(GraphFormatError):
        parse_graph("3 2\n0 1\n")
    for text, line in [
        ("3 2\n0 1\n1 0\n", 3),  # one edge in both orientations
        ("3 2\n0 1\n0 1\n", 3),
        ("3 1\n0 1\n1 2\n", 3),  # more edge lines than the header declares
        ("# two edges\n3 1\n\n0 1\n# extra\n1 2\n", 6),
        ("3 -1\n", 1),
    ]:
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.line == line, text


def test_cut_dist_unlabeled_exhausts_small_same_size():
    # C4 and the relabeled square 0-2-1-3 align perfectly
    c4 = SimpleGraph.cycle(4)
    twisted = SimpleGraph.make(4, [(0, 2), (1, 2), (1, 3), (0, 3)])
    bound = cut_dist_unlabeled_upper(c4, twisted, t_max=1, trials=0, seed=0)
    assert bound.value == 0
    assert bound.t == 1


def test_tau_p3_motif_shape():
    oracle = tau_oracle(SimpleGraph.path(3), SimpleGraph.cycle(5))
    assert check_submodular(oracle) == []
    assert check_monotone(oracle) == []
    assert oracle.evaluate(oracle.full_mask) == 1


def test_blowup_cap_error():
    from quotientlab import BlowUpCapError

    big = SimpleGraph.complete(5)
    with pytest.raises(BlowUpCapError):
        cut_dist_unlabeled_upper(big, SimpleGraph.cycle(7), t_max=1)


def test_unlabeled_upper_plan_decides_blowup_cap_before_any_call(monkeypatch):
    from quotientlab import BlowUpCapError

    calls = 0

    def counted_kernel(g, h):
        nonlocal calls
        calls += 1
        return Fraction(0)

    monkeypatch.setattr(graphs, "cut_dist_labeled", counted_kernel)
    with pytest.raises(BlowUpCapError) as info:
        cut_dist_unlabeled_upper(SimpleGraph.complete(5), SimpleGraph.cycle(7), t_max=1)
    assert info.value.needed == 35 and calls == 0


def test_unlabeled_upper_empty_graphs():
    empty = SimpleGraph.make(0, [], name="nothing")
    for g, h in ((empty, SimpleGraph.path(3)), (SimpleGraph.path(3), empty)):
        with pytest.raises(ValueError, match="'nothing' has no nodes"):
            cut_dist_unlabeled_upper(g, h, t_max=2)
    # both empty: the exhaustive pass over the one empty bijection ends the search
    bound = cut_dist_unlabeled_upper(empty, empty, t_max=10**9)
    assert (bound.value, bound.t, bound.mapping, bound.truncated) == (0, 1, (), False)


def test_shifted_tau_matches_raw_up_to_base():
    from quotientlab import shifted_tau_oracle

    motif, g = SimpleGraph.complete(2), SimpleGraph.complete(3)
    raw = tau_oracle(motif, g)
    shifted = shifted_tau_oracle(motif, g)
    base = raw.evaluate(0)
    assert shifted.evaluate(0) == 0
    for mask in range(1 << g.edge_count):
        assert shifted.evaluate(mask) == raw.evaluate(mask) - base
    assert check_submodular(shifted) == []
    assert check_monotone(shifted) == []


INT_KERNEL_GRAPHS = (
    SimpleGraph.path(5),
    SimpleGraph.cycle(5),
    SimpleGraph.complete_bipartite(2, 3),
    blow_up(SimpleGraph.path(3), 2),
)


def test_cut_capacity_numerators_match_fraction_values():
    from quotientlab.graphs import cut_count

    for g in INT_KERNEL_GRAPHS:
        for norm in CutNormalization.ALL:
            oracle = cut_capacity_oracle(g, norm)
            denominator = CutNormalization.denominator(g, norm)
            for mask in range(1 << g.node_count):
                num = oracle.numerator(mask)
                assert type(num) is int
                expected = Fraction(cut_count(g, mask), denominator)
                assert Fraction(num, oracle.den) == oracle.evaluate(mask) == expected


def test_tau_numerators_match_fraction_values():
    from quotientlab import shifted_tau_oracle

    for motif in (SimpleGraph.complete(2), SimpleGraph.path(3), SimpleGraph.complete(3)):
        for g in INT_KERNEL_GRAPHS[:3]:
            raw, shifted = tau_oracle(motif, g), shifted_tau_oracle(motif, g)
            assert raw.den == shifted.den == g.node_count ** motif.node_count
            base = hom_density(motif, g)
            for mask in range(1 << g.edge_count):
                density = hom_density(motif, g.without_edges(mask))
                assert type(raw.numerator(mask)) is type(shifted.numerator(mask)) is int
                assert Fraction(raw.numerator(mask), raw.den) == raw.evaluate(mask) == 1 - density
                assert shifted.evaluate(mask) == base - density
