"""Matroid oracles, flats, richness, union, embeddings."""

import gc
import itertools
import random
import re
import tracemalloc
import weakref
from array import array
from fractions import Fraction

import pytest

from quotientlab import (
    DirectSumMatroid,
    DivisibilityError,
    GraphicMatroid,
    LinearMatroid,
    MaskWidthError,
    Matroid,
    Restriction,
    SetFunctionOracle,
    SimpleGraph,
    check_richness,
    disjoint_bases,
    edge_coloring_quotient,
    matroid_union,
    matroid_union_rank_brute,
    pad_embed_flat,
    stretch_embed_flat,
)
from quotientlab.gfq import field, index_from_vector, vector_from_index
from quotientlab.setfn import iter_elements


def gf2_independent_naive(vectors):
    """Independence by scanning all nonempty sub-multisets for an XOR of zero."""
    for r in range(1, len(vectors) + 1):
        for combo in itertools.combinations(vectors, r):
            acc = 0
            for v in combo:
                acc ^= v
            if acc == 0:
                return False
    return True


def gf2_rank_naive(vectors):
    best = 0
    for r in range(len(vectors), 0, -1):
        for combo in itertools.combinations(vectors, r):
            if gf2_independent_naive(list(combo)):
                return r
    return best


# References that do not go through `_extender`: the per-mask Gaussian
# eliminations LinearMatroid._rank ran before it counted its extender's adds,
# and the closure defined from rank alone.


def _reduce_gf2(basis, v):
    """Remainder of a GF(2) bit vector against a basis keyed by leading bit."""
    while v:
        msb = v.bit_length() - 1
        if msb not in basis:
            break
        v ^= basis[msb]
    return v


def _reduce_general(f, pivots, col):
    """Remainder of a GF(q) vector against normalized pivot rows."""
    v = list(col)
    for pi, pv in pivots:
        c = v[pi]
        if c:
            v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, pv)]
    return v


def eliminated_rank(matroid, mask):
    """Rank of the columns in mask by one Gaussian elimination."""
    if matroid.q == 2:
        basis = {}
        for e in iter_elements(mask):
            v = _reduce_gf2(basis, index_from_vector(matroid.columns[e], 2))
            if v:
                basis[v.bit_length() - 1] = v
        return len(basis)
    f = field(matroid.q)
    pivots = []
    for e in iter_elements(mask):
        v = _reduce_general(f, pivots, matroid.columns[e])
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            scale = f.inv(v[lead])
            pivots.append((lead, [f.mul(scale, x) for x in v]))
    return len(pivots)


def reference_rank(matroid):
    """The rank function of matroid, with linear ranks by elimination and graphic ones by spanning forest."""
    if isinstance(matroid, LinearMatroid):
        return lambda mask: eliminated_rank(matroid, mask)
    if isinstance(matroid, GraphicMatroid):
        return matroid._rank
    if isinstance(matroid, Restriction):
        base = reference_rank(matroid.base)
        return lambda mask: base(mask & matroid.support)
    parts = [(reference_rank(part), part.full_mask, off) for part, off in zip(matroid.parts, matroid.offsets)]
    return lambda mask: sum(rank(mask >> off & full) for rank, full, off in parts)


def rank_closure(rank, size, mask):
    """cl(X) = X + {e : r(X + e) = r(X)}, one rank call per element outside X."""
    r = rank(mask)
    return mask | sum(1 << e for e in iter_elements((1 << size) - 1 & ~mask) if rank(mask | 1 << e) == r)


def test_rank_complete_graph():
    k5 = GraphicMatroid(SimpleGraph.complete(5))
    assert k5.rank(k5.full_mask) == 4


def test_rank_full_space():
    space = LinearMatroid.full_space(2, 3)
    assert space.rank(space.full_mask) == 3
    # cross-check against the exhaustive XOR-dependence oracle
    bits = [int("".join(str(x) for x in reversed(c)), 2) for c in space.columns]
    rng = random.Random(5)
    for _ in range(25):
        mask = rng.randrange(1 << space.size)
        chosen = [bits[e] for e in iter_elements(mask)]
        assert space.rank(mask) == gf2_rank_naive(chosen)


def test_rank_direct_sum():
    part = GraphicMatroid(SimpleGraph.complete(3))
    both = DirectSumMatroid([part, part])
    assert both.rank(0b000111) == 2
    assert both.rank(both.full_mask) == 4


def test_direct_sum_matches_glued_graph():
    # two triangles sharing one node: the cycle matroid splits as a direct sum
    glued = SimpleGraph.make(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    direct = DirectSumMatroid(
        [GraphicMatroid(SimpleGraph.complete(3)), GraphicMatroid(SimpleGraph.complete(3))]
    )
    glued_m = GraphicMatroid(glued)
    index = glued.edge_index()
    # map: part0 edges (0,1),(0,2),(1,2); part1 edges (2,3),(2,4),(3,4)
    order = [index[(0, 1)], index[(0, 2)], index[(1, 2)], index[(2, 3)], index[(2, 4)], index[(3, 4)]]
    for mask in range(1 << 6):
        glued_mask = 0
        for i in range(6):
            if mask >> i & 1:
                glued_mask |= 1 << order[i]
        assert direct.rank(mask) == glued_m.rank(glued_mask)


def test_closure_of_empty_is_loops():
    space = LinearMatroid.full_space(2, 2)
    assert space.closure(0) == 0b0001  # just the zero vector
    triangle = GraphicMatroid(SimpleGraph.complete(3))
    assert triangle.closure(0) == 0


def test_closure_single_vector():
    space = LinearMatroid.full_space(2, 2)
    # span of "01" (index 2) is {00, 01}
    assert space.closure(0b0100) == 0b0101


def test_closure_triangle_in_k4():
    k4 = GraphicMatroid(SimpleGraph.complete(4))
    index = k4.graph.edge_index()
    mask = (1 << index[(0, 1)]) | (1 << index[(1, 2)])
    expected = mask | (1 << index[(0, 2)])
    assert k4.closure(mask) == expected


def test_closure_properties_random():
    rng = random.Random(11)
    matroids = [
        GraphicMatroid(SimpleGraph.cycle(5)),
        GraphicMatroid(SimpleGraph.complete(4)),
        LinearMatroid.full_space(2, 3),
        LinearMatroid(3, [(1, 0), (0, 1), (1, 1), (2, 1), (0, 0)]),
        LinearMatroid.full_space(4, 2),
    ]
    for m in matroids:
        for _ in range(40):
            x = rng.randrange(1 << m.size)
            cl = m.closure(x)
            assert cl == rank_closure(reference_rank(m), m.size, x)
            assert cl & x == x
            assert m.rank(cl) == m.rank(x)
            assert m.closure(cl) == cl
            y = x | rng.randrange(1 << m.size)
            assert m.closure(x) & ~m.closure(y) == 0


def test_flats_gf22():
    space = LinearMatroid.full_space(2, 2)
    assert len(space.flats()) == 5


def test_flats_gf24_subspace_count():
    # 1 + 15 + 35 + 15 + 1 subspaces of dimensions 0..4
    space = LinearMatroid.full_space(2, 4)
    flats = space.flats()
    assert len(flats) == 67
    by_rank = {}
    for f in flats:
        by_rank.setdefault(space.rank(f), 0)
        by_rank[space.rank(f)] += 1
    assert by_rank == {0: 1, 1: 15, 2: 35, 3: 15, 4: 1}


def test_flats_triangle():
    triangle = GraphicMatroid(SimpleGraph.complete(3))
    assert len(triangle.flats()) == 5


def test_flats_all_loops():
    loops = LinearMatroid(2, [(0, 0), (0, 0)])
    assert loops.flats() == (0b11,)


def test_flats_are_closed_under_join_and_meet():
    for m in (LinearMatroid.full_space(2, 3), GraphicMatroid(SimpleGraph.complete(4))):
        flats = set(m.flats())
        for f, g in itertools.combinations(flats, 2):
            assert f & g in flats
            assert m.closure(f | g) in flats


def test_richness_vacuous_above_rank():
    triangle = GraphicMatroid(SimpleGraph.complete(3))
    assert check_richness(triangle, 3, 5).holds


def test_richness_triangle_fails_k2_m1():
    report = check_richness(GraphicMatroid(SimpleGraph.complete(3)), 2, 1)
    assert not report.holds
    f, a = report.witness
    assert f == 0 and a.bit_count() == 1


def test_richness_gf2():
    for n in (2, 3, 4):
        assert check_richness(LinearMatroid.full_space(2, n), 2, 4).holds


def test_disjoint_bases_single_flat():
    space = LinearMatroid.full_space(2, 3)
    result = disjoint_bases(space, [space.full_mask])
    (basis,) = result.bases
    assert basis.bit_count() == 3
    assert space.rank(basis) == 3


def test_disjoint_bases_two_full_spaces():
    space = LinearMatroid.full_space(2, 3)
    result = disjoint_bases(space, [space.full_mask, space.full_mask])
    b1, b2 = result.bases
    assert b1 & b2 == 0
    assert space.rank(b1) == space.rank(b2) == 3
    assert b1.bit_count() == b2.bit_count() == 3


def test_disjoint_bases_triangle_certificate():
    triangle = GraphicMatroid(SimpleGraph.complete(3))
    full = triangle.full_mask
    result = disjoint_bases(triangle, [full, full])
    assert result.bases is None
    y = result.certificate
    rest = full & ~y
    assert y.bit_count() + 2 * triangle.rank(rest) < 4


def test_disjoint_bases_requires_flats():
    k4 = GraphicMatroid(SimpleGraph.complete(4))
    index = k4.graph.edge_index()
    not_flat = (1 << index[(0, 1)]) | (1 << index[(1, 2)])
    with pytest.raises(ValueError):
        disjoint_bases(k4, [not_flat])


def test_union_single_matroid():
    k4 = GraphicMatroid(SimpleGraph.complete(4))
    assert matroid_union([k4]).rank == 3


def test_union_two_k4_copies_decomposes():
    k4 = GraphicMatroid(SimpleGraph.complete(4))
    result = matroid_union([k4, k4])
    assert result.rank == 6
    t1, t2 = result.parts
    assert t1 | t2 == k4.full_mask and t1 & t2 == 0
    assert k4.rank(t1) == 3 and k4.rank(t2) == 3


def test_union_two_triangles_capped_by_ground():
    triangle = GraphicMatroid(SimpleGraph.complete(3))
    assert matroid_union([triangle, triangle]).rank == 3


def test_union_matches_brute_force_random():
    rng = random.Random(99)
    for _ in range(40):
        ground = rng.randrange(3, 10)
        mats = []
        for _ in range(rng.randrange(2, 4)):
            if rng.random() < 0.5:
                nodes = rng.randrange(3, 7)
                pairs = list(itertools.combinations(range(nodes), 2))
                while len(pairs) < ground:
                    nodes += 1
                    pairs = list(itertools.combinations(range(nodes), 2))
                mats.append(GraphicMatroid(SimpleGraph.make(nodes, rng.sample(pairs, ground))))
            else:
                dim = rng.randrange(2, 4)
                cols = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(ground)]
                mats.append(LinearMatroid(2, cols))
        result = matroid_union(mats)
        brute, _ = matroid_union_rank_brute(mats)
        assert result.rank == brute
        assert result.certificate_value == result.rank
        taken = 0
        for m, pm in zip(mats, result.parts):
            assert pm & taken == 0
            taken |= pm
            assert m.rank(pm) == pm.bit_count()


def test_pad_embed_identity_and_examples():
    space1 = LinearMatroid.full_space(2, 1)
    line = space1.full_mask  # {0, 1}
    assert pad_embed_flat(2, 1, 1, line) == line
    image = pad_embed_flat(2, 1, 2, line)
    # vectors (0,0) index 0 and (1,0) index 1
    assert image == 0b0011
    space2 = LinearMatroid.full_space(2, 2)
    assert space2.is_flat(image)
    assert space2.rank(image) == 1


def test_pad_embed_rank_preserved_gf23():
    src = LinearMatroid.full_space(2, 2)
    dst = LinearMatroid.full_space(2, 3)
    for f in src.flats():
        img = pad_embed_flat(2, 2, 3, f)
        assert dst.is_flat(img)
        assert dst.rank(img) == src.rank(f)


def test_pad_embed_rejects_shrinking():
    with pytest.raises(ValueError):
        pad_embed_flat(2, 3, 2, 0b1)


def test_stretch_embed_examples():
    space1 = LinearMatroid.full_space(2, 1)
    space2 = LinearMatroid.full_space(2, 2)
    image = stretch_embed_flat(2, 1, 2, space1.full_mask)
    assert image == space2.full_mask
    assert space2.rank(image) == 2
    # a rank-1 flat of gf(2)^2 stretches to a rank-2 flat of gf(2)^4
    space4 = LinearMatroid.full_space(2, 4)
    line = 0b0011  # {00, 10}
    img = stretch_embed_flat(2, 2, 4, line)
    assert space4.is_flat(img)
    assert space4.rank(img) == 2
    assert Fraction(space4.rank(img), 4) == Fraction(space2.rank(line), 2)


def test_stretch_embed_divisibility():
    with pytest.raises(DivisibilityError):
        stretch_embed_flat(2, 2, 3, 0b1)


def pad_embed_by_vectors(q, m, n, flat):
    """Zero padding one member at a time: decode, append zeros, encode."""
    pad = (0,) * (n - m)
    return sum(1 << index_from_vector(vector_from_index(e, q, m) + pad, q) for e in iter_elements(flat))


def stretch_embed_by_vectors(q, m, n, flat):
    """Block repetition over every tuple of member vectors, one per block."""
    members = [vector_from_index(e, q, m) for e in iter_elements(flat)]
    return sum(
        1 << index_from_vector(tuple(x for block in combo for x in block), q)
        for combo in itertools.product(members, repeat=n // m)
    )


@pytest.mark.parametrize("q, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_embeddings_match_the_vector_reference(q, m):
    rng = random.Random(q * 10 + m)
    space = LinearMatroid.full_space(q, m)
    masks = sorted(space.flats()) + [rng.getrandbits(q**m) for _ in range(10)]
    for n in range(m, 3 * m + 1):
        for flat in masks:
            assert pad_embed_flat(q, m, n, flat) == pad_embed_by_vectors(q, m, n, flat)
            if n % m == 0:
                assert stretch_embed_flat(q, m, n, flat) == stretch_embed_by_vectors(q, m, n, flat)


@pytest.mark.parametrize("embed", [pad_embed_flat, stretch_embed_flat])
def test_embeddings_reject_masks_wider_than_the_source_space(embed):
    # bit 2 is no vector of gf(2)^1; it used to fold onto index 1
    with pytest.raises(MaskWidthError):
        embed(2, 1, 2, 0b100)
    with pytest.raises(MaskWidthError):
        embed(2, 1, 2, -1)


def test_rank_axioms_random_masks():
    rng = random.Random(21)
    matroids = [
        GraphicMatroid(SimpleGraph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])),
        LinearMatroid.full_space(3, 2),
        DirectSumMatroid([GraphicMatroid(SimpleGraph.complete(3)), LinearMatroid.full_space(2, 2)]),
    ]
    for m in matroids:
        for _ in range(60):
            x = rng.randrange(1 << m.size)
            y = rng.randrange(1 << m.size)
            rx, ry = m.rank(x), m.rank(y)
            assert 0 <= rx <= x.bit_count()
            if x & ~y == 0:
                assert rx <= ry
            assert rx + ry >= m.rank(x & y) + m.rank(x | y)


def test_flat_cap_override_raises(monkeypatch):
    from quotientlab import FlatExplosionError, config

    monkeypatch.setattr(config, "FLAT_COUNT_CAP", 3)
    space = LinearMatroid.full_space(2, 3)
    with pytest.raises(FlatExplosionError):
        space.flats()


def test_k_too_large():
    from quotientlab import KTooLargeError, quotient_point
    from quotientlab.setfn import oracle_from_table

    oracle = oracle_from_table([0, 1])
    with pytest.raises(KTooLargeError):
        quotient_point(oracle, [1] * 9)


def test_rank_axioms_exhaustive_k4():
    k4 = GraphicMatroid(SimpleGraph.complete(4))
    n = k4.size
    for x in range(1 << n):
        rx = k4.rank(x)
        assert 0 <= rx <= x.bit_count()
        for e in range(n):
            if not x >> e & 1:
                assert rx <= k4.rank(x | 1 << e) <= rx + 1
    for x in range(1 << n):
        for y in range(x, 1 << n):
            assert k4.rank(x) + k4.rank(y) >= k4.rank(x & y) + k4.rank(x | y)


def test_disjoint_bases_exist_whenever_richness_holds():
    # every flat family with ranks >= m admits disjoint spanning sets
    # once the (k, m) flat-pair condition holds
    cases = [
        (LinearMatroid.full_space(2, 3), 2, 3),
        (LinearMatroid.full_space(2, 4), 2, 4),
        (LinearMatroid.full_space(2, 4), 2, 3),
    ]
    for matroid, k, m in cases:
        assert check_richness(matroid, k, m).holds
        big = [f for f in matroid.flats() if matroid.rank(f) >= m]
        for tup in itertools.product(big, repeat=k):
            assert disjoint_bases(matroid, list(tup)).bases is not None


GRAPHIC_FAMILIES = [("complete-cycle", n) for n in range(1, 5)] + [
    ("example51", n) for n in range(1, 9)
]


@pytest.mark.parametrize("family,n", GRAPHIC_FAMILIES)
def test_graphic_rank_table_matches_rank_on_every_mask(family, n):
    from quotientlab.sequences import complete_cycle_oracle, example51_oracle

    build = complete_cycle_oracle if family == "complete-cycle" else example51_oracle
    matroid = build(n).matroid
    before = dict(matroid.rank_memo)
    table = matroid.rank_table()
    assert len(table) == 1 << matroid.size
    assert list(table) == [matroid._rank(mask) for mask in range(1 << matroid.size)]
    assert matroid.rank_memo == before


def _gf2_columns_with_a_zero_and_repeats():
    return LinearMatroid(2, [(1, 0, 1), (0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)])


@pytest.mark.parametrize("name", ["gf(2)^1", "gf(2)^2", "gf(2)^3", "gf(2)^4", "zero and repeated columns"])
def test_gf2_rank_table_walk_matches_rank_on_every_mask(name):
    if name.startswith("gf"):
        matroid = LinearMatroid.full_space(2, int(name[-1]))
    else:
        matroid = _gf2_columns_with_a_zero_and_repeats()
    masks = range(1 << matroid.size)
    expected = [eliminated_rank(matroid, mask) for mask in masks]
    table = matroid.rank_table()
    assert len(table) == 1 << matroid.size
    assert list(table) == expected
    assert [matroid._rank(mask) for mask in masks] == expected
    assert matroid.rank_memo == {0: 0}


def _random_columns(q, count, dim, seed):
    rng = random.Random(seed)
    return LinearMatroid(q, [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(count)])


GFQ_MATROIDS = {
    "gf(3)^1": lambda: LinearMatroid.full_space(3, 1),
    "gf(3)^2": lambda: LinearMatroid.full_space(3, 2),
    "gf(4)^1": lambda: LinearMatroid.full_space(4, 1),
    "gf(4)^2": lambda: LinearMatroid.full_space(4, 2),
    "gf(5) columns": lambda: _random_columns(5, 12, 3, 5),
    "gf(7) columns": lambda: _random_columns(7, 12, 4, 7),
}


@pytest.mark.parametrize("name", sorted(GFQ_MATROIDS))
def test_gfq_rank_table_and_rank_match_elimination(name):
    """Every mask up to 12 elements, and 4,096 seeded masks of gf(4)^2's 16."""
    matroid = GFQ_MATROIDS[name]()
    masks = range(1 << matroid.size)
    if matroid.size > 12:
        rng = random.Random(name)
        masks = [rng.getrandbits(matroid.size) for _ in range(4096)]
    expected = [eliminated_rank(matroid, mask) for mask in masks]
    table = matroid.rank_table()
    assert len(table) == 1 << matroid.size
    assert [table[mask] for mask in masks] == expected
    assert [matroid._rank(mask) for mask in masks] == expected
    assert matroid.rank_memo == {0: 0}


def test_rank_table_matches_rank_on_every_mask_of_gf3_and_a_direct_sum():
    for matroid in (
        LinearMatroid.full_space(3, 2),
        DirectSumMatroid([GraphicMatroid(SimpleGraph.complete(3)), LinearMatroid.full_space(2, 2)]),
    ):
        table = matroid.rank_table()
        assert list(table) == [matroid.rank(mask) for mask in range(1 << matroid.size)]


@pytest.mark.parametrize("name", ["direct sum", "restriction"])
def test_default_extender_rank_table_and_closure_match_the_references(name):
    if name == "direct sum":
        parts = [GraphicMatroid(SimpleGraph.complete(3)), LinearMatroid.full_space(3, 1)]
        matroid = DirectSumMatroid(parts + [_gf2_columns_with_a_zero_and_repeats()])
    else:
        matroid = Restriction(LinearMatroid.full_space(3, 2), 0b110110101)
    assert matroid._extender()[2] is None  # no contraction key: the walk decides every element
    assert_blocked_table(matroid, name)
    rank = reference_rank(matroid)
    masks = range(1 << matroid.size)
    assert [matroid.closure(mask) for mask in masks] == [rank_closure(rank, matroid.size, mask) for mask in masks]


@pytest.mark.parametrize("name", ["gf(2)^3", "gf(3)^2", "zero and repeated columns"])
def test_linear_closure_matches_rank_definition_on_every_mask(name):
    if name.startswith("gf"):
        matroid = LinearMatroid.full_space(int(name[3]), int(name[-1]))
    else:
        matroid = _gf2_columns_with_a_zero_and_repeats()
    rank = reference_rank(matroid)
    for mask in range(1 << matroid.size):
        assert matroid.closure(mask) == rank_closure(rank, matroid.size, mask), mask
    assert matroid.rank_memo == {0: 0}


# A rank table is r(P) + r_{M/P}(X) on each block of masks P | X, X among the
# elements below the prefix P, so `rank_table` walks a block only for the first
# prefix of each contraction key at its level and copies it, shifted, for every
# later one.  The reference below is the walk without blocks: every element in
# index order, one add per walk call, no key.


def unblocked_rank_table(matroid):
    """r(X) for every mask X from one include/exclude walk over every element in index order."""
    add, undo = matroid._extender()[:2]
    last = matroid.size - 1
    table = array("B", bytes(1 << matroid.size))

    def walk(i, mask, rank):
        if i == last:
            table[mask] = rank
            token = add(i)
            table[mask | 1 << i] = rank if token is None else rank + 1
        else:
            walk(i + 1, mask, rank)
            token = add(i)
            walk(i + 1, mask | 1 << i, rank if token is None else rank + 1)
        if token is not None:
            undo(token)

    if matroid.size:
        walk(0, 0, 0)
    return table


def assert_blocked_table(matroid, seed):
    """The blocked table is byte-identical to the unblocked walk and agrees with the reference rank.

    Every mask is ranked up to 14 elements, 4,096 seeded masks beyond.
    """
    before = dict(matroid.rank_memo)
    table = matroid.rank_table()
    assert table.typecode == "B"
    assert table.tobytes() == unblocked_rank_table(matroid).tobytes()
    masks = range(1 << matroid.size)
    if matroid.size > 14:
        rng = random.Random(seed)
        masks = [rng.getrandbits(matroid.size) for _ in range(4096)]
    rank = reference_rank(matroid)
    assert [table[mask] for mask in masks] == [rank(mask) for mask in masks]
    assert matroid.rank_memo == before


def _bundled_matroids():
    from quotientlab.sequences import example51_oracle

    out = {f"ex51({n})": lambda n=n: example51_oracle(n).matroid for n in range(1, 13)}
    out.update({f"K{n}": lambda n=n: GraphicMatroid(SimpleGraph.complete(n)) for n in range(1, 8)})
    out.update({f"gf(2)^{n}": lambda n=n: LinearMatroid.full_space(2, n) for n in range(1, 5)})
    out.update({f"gf(3)^{n}": lambda n=n: LinearMatroid.full_space(3, n) for n in range(1, 3)})
    out["gf(4)^2"] = lambda: LinearMatroid.full_space(4, 2)
    return out


@pytest.mark.parametrize("name", sorted(_bundled_matroids()))
def test_blocked_rank_table_of_every_bundled_family(name):
    matroid = _bundled_matroids()[name]()
    assert matroid._extender()[2] is not None
    assert_blocked_table(matroid, name)


# no nodes, an isolated node, and one or two edges with isolated nodes beside them:
# fewer than three edges, so the low block is empty
SMALL_GRAPHS = [(0, ()), (1, ()), (2, ((0, 1),)), (4, ((1, 3),)), (3, ((0, 1), (1, 2))), (5, ((0, 4), (2, 3)))]


def _random_graph(seed):
    """The small graphs for seeds 0-5, then 3-9 joined nodes, up to 16 edges and up to two isolated nodes."""
    if seed < len(SMALL_GRAPHS):
        return SimpleGraph.make(*SMALL_GRAPHS[seed])
    rng = random.Random(seed)
    nodes = rng.randrange(3, 10)
    density = rng.uniform(0.2, 0.9)
    edges = [pair for pair in itertools.combinations(range(nodes), 2) if rng.random() < density][:16]
    return SimpleGraph.make(nodes + rng.randrange(3), edges)


@pytest.mark.parametrize("seed", range(30))
def test_blocked_rank_table_of_random_graphs(seed):
    assert_blocked_table(GraphicMatroid(_random_graph(seed)), seed)


def test_graphic_key_names_the_partition_of_the_low_ends():
    """Equal keys exactly when B's trees split the low edges' ends alike, whatever else B joins.

    A key that named anything finer, such as the order the trees were
    joined in, would still give right tables, only with fewer copied blocks.
    """
    from quotientlab.graphs import spanning_forest

    for seed in range(6, 30):
        graph = _random_graph(seed)
        matroid = GraphicMatroid(graph)
        rng = random.Random(seed)
        for s in range(1, matroid.size + 1):
            ends = {x for edge in graph.edges[:s] for x in edge}
            keys = {}  # partition of the low ends -> the keys it was given
            for _ in range(20):
                add, _, key = matroid._extender()
                order = rng.sample(range(matroid.size), rng.randrange(matroid.size + 1))
                forest = sum(1 << e for e in order if add(e) is not None)
                find = spanning_forest(graph, forest)[0]
                partition = frozenset(frozenset(x for x in ends if find(x) == find(y)) for y in ends)
                keys.setdefault(partition, set()).add(key(s))
            assert all(len(named) == 1 for named in keys.values())
            assert len(set.union(*keys.values())) == len(keys)


def _columns_with_zero_and_parallels(q, seed):
    """Random columns, a zero column, and nonzero multiples of some of them, shuffled."""
    rng = random.Random(seed)
    f = field(q)
    dim, count = rng.randrange(2, 5), rng.randrange(4, 10)
    cols = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(count)]
    cols.append((0,) * dim)
    for col in rng.sample(cols, 3):
        scale = rng.randrange(1, q)
        cols.append(tuple(f.mul(scale, x) for x in col))
    rng.shuffle(cols)
    return LinearMatroid(q, cols)


@pytest.mark.parametrize("q,seed", [(q, seed) for q in (2, 3, 4) for seed in range(5)])
def test_blocked_rank_table_of_random_columns(q, seed):
    assert_blocked_table(_columns_with_zero_and_parallels(q, seed), seed)


def count_adds(monkeypatch, matroid, build):
    """How many times `build(matroid)` calls its step's add."""
    step = matroid._extender
    calls = 0

    def counting_step():
        add, undo, key = step()

        def counted(e):
            nonlocal calls
            calls += 1
            return add(e)

        return counted, undo, key

    with monkeypatch.context() as patch:
        patch.setattr(matroid, "_extender", counting_step)
        table = build(matroid)
    return calls, table


# how many times fewer adds the blocked walk makes than the plain one, at least:
# ex51(10) makes 4,297 adds against 262,143 and K7 1,308 against 2,097,151, where
# a block per key at one split level alone made 13,356 and 40,259
FEWER_ADDS = {"ex51(10)": 50, "K7": 1000}


@pytest.mark.parametrize("name", ["ex51(10)", "K7"])
def test_blocked_rank_table_makes_under_a_third_of_the_walks_adds(monkeypatch, name):
    """Work, not time: a fall back to the unblocked walk, or to one split level, fails this."""
    matroid = _bundled_matroids()[name]()
    blocked, table = count_adds(monkeypatch, matroid, Matroid.rank_table)
    plain, reference = count_adds(monkeypatch, matroid, unblocked_rank_table)
    assert table == reference
    assert plain == (1 << matroid.size) - 1
    assert FEWER_ADDS[name] * blocked < plain


def _budget_cases():
    bundled = _bundled_matroids()
    yield from (bundled[name]() for name in ("K7", "ex51(10)", "gf(4)^2"))
    yield from (GraphicMatroid(_random_graph(seed)) for seed in range(30))
    yield from (_columns_with_zero_and_parallels(q, seed) for q in (2, 3, 4) for seed in range(5))


def test_rank_table_with_a_full_memo_budget_matches_the_unblocked_walk(monkeypatch):
    """Past its budget the walk still copies the blocks of stored keys and walks the rest."""
    from quotientlab import matroid as matroid_module

    extra = []  # adds with the budget full, less adds with the default one
    for matroid in _budget_cases():
        roomy, _ = count_adds(monkeypatch, matroid, Matroid.rank_table)
        with monkeypatch.context() as patch:
            patch.setattr(matroid_module, "_FIRSTS_FLOOR", 3)
            patch.setattr(matroid_module, "_FIRSTS_SHIFT", 64)
            full, table = count_adds(monkeypatch, matroid, Matroid.rank_table)
        assert table.tobytes() == unblocked_rank_table(matroid).tobytes()
        extra.append(full - roomy)
    # K7, ex51(10) and gf(4)^2 meet more keys than three stored prefixes hold
    assert min(extra[:3]) > 0 and min(extra) >= 0


def test_rank_table_is_allocated_in_place():
    matroid = _bundled_matroids()["K7"]()
    tracemalloc.start()
    try:
        table = matroid.rank_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 1 << 21
    # a temporary bytes of the table's size, copied into the array, reads 2.06x
    assert peak < 1.5 * len(table) * table.itemsize


def test_rank_table_memo_of_first_prefixes_stays_within_its_budget():
    matroid = _bundled_matroids()["ex51(10)"]()
    tracemalloc.start()
    try:
        table = matroid.rank_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 1 << 18
    # the first prefix of every key at every level, with no budget, read 2.30x
    # the table's bytes; the 512 the budget keeps read 1.18x
    assert peak < 1.3 * len(table) * table.itemsize


def test_rank_table_leaves_nothing_alive_without_the_cyclic_collector():
    # the walk is a closure that calls itself; as a cycle it would keep the
    # table, its view and its memo of first prefixes alive until the collector runs
    matroid = _bundled_matroids()["ex51(10)"]()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        table = matroid.rank_table()
        size, alive = len(table) * table.itemsize, weakref.ref(table)
        del table
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert alive() is None
    # 1.93x the table's bytes stayed with the cycle; small tuples left on
    # the interpreter's free lists stay traced
    assert after - before < size // 2


def reference_union_rank_brute(matroids):
    """min over Y of |Y| + sum_i r_i(E - Y), one reference rank call per matroid and mask."""
    full = matroids[0].full_mask
    ranks = [reference_rank(m) for m in matroids]
    best, best_y = None, 0
    for y in range(1 << matroids[0].size):
        value = y.bit_count() + sum(rank(full & ~y) for rank in ranks)
        if best is None or value < best:
            best, best_y = value, y
    return best, best_y


def test_brute_union_from_rank_tables_matches_per_mask_ranks_and_leaves_the_memos():
    rng = random.Random(31)
    for _ in range(30):
        ground = rng.randrange(2, 10)
        mats = []
        for _ in range(rng.randrange(1, 4)):
            pick = rng.randrange(3)
            if pick == 0:
                nodes = rng.randrange(3, 7)
                while nodes * (nodes - 1) // 2 < ground:
                    nodes += 1
                edges = rng.sample(list(itertools.combinations(range(nodes), 2)), ground)
                mats.append(GraphicMatroid(SimpleGraph.make(nodes, edges)))
            else:
                base = _random_columns(pick + 1, ground, rng.randrange(1, 4), rng.getrandbits(32))
                mats.append(Restriction(base, rng.getrandbits(ground)) if rng.random() < 0.3 else base)
        assert matroid_union_rank_brute(mats) == reference_union_rank_brute(mats)
        assert all(m.rank_memo == {0: 0} for m in mats)


# The augmenting-path union matroid_union ran before it searched from live
# elements only and stopped at its rank bound: every uncovered element seeds
# each search, and the loop ends with a search that finds no path.


def reference_matroid_union(matroids):
    from collections import deque

    full = matroids[0].full_mask
    part_masks = [0] * len(matroids)
    while True:
        covered = sum(part_masks)
        sources = list(iter_elements(full & ~covered))
        if not sources:
            return covered.bit_count(), tuple(part_masks), full
        parent = {e: None for e in sources}
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
                        part_masks[prev[1]] &= ~(1 << cur)
                        cur, place = prev
                    augmented = True
                    break
                for x in iter_elements(part):
                    if x not in parent and matroids[i].rank(part ^ (1 << x) | 1 << y) == size:
                        parent[x] = (y, i)
                        queue.append(x)
        if not augmented:
            return covered.bit_count(), tuple(part_masks), full & ~sum(1 << e for e in parent)


def _random_union_instance(rng):
    """Matroids on one ground, some of them restrictions of one base to random supports."""
    ground = rng.randrange(0, 11)
    pairs = list(itertools.combinations(range(5), 2))
    base = rng.choice([
        GraphicMatroid(SimpleGraph.make(5, rng.sample(pairs, ground))),
        LinearMatroid(2, [tuple(rng.randrange(2) for _ in range(3)) for _ in range(ground)]),
    ])
    # about a quarter of the elements lie outside every support, so the
    # restrictions share loops
    shared = rng.getrandbits(ground) | rng.getrandbits(ground)
    mats = [
        Restriction(base, shared & (rng.getrandbits(ground) | rng.getrandbits(ground)))
        for _ in range(rng.randrange(1, 4))
    ]
    if rng.random() < 0.3:
        mats.append(LinearMatroid(2, [tuple(rng.randrange(2) for _ in range(2)) for _ in range(ground)]))
    return mats


def _assert_union_agrees(mats):
    result = matroid_union(mats)
    rank, parts, cert = reference_matroid_union(mats)
    assert result.rank == rank == matroid_union_rank_brute(mats)[0]
    # the searches run in the same order, so they make the same augmentations
    assert result.parts == parts
    taken = 0
    for m, pm in zip(mats, result.parts):
        assert pm & taken == 0
        taken |= pm
        assert m.rank(pm) == pm.bit_count()
    assert taken.bit_count() == result.rank
    full = mats[0].full_mask
    y = result.certificate
    assert result.certificate_value == y.bit_count() + sum(m.rank(full & ~y) for m in mats)
    assert result.certificate_value == result.rank
    live = sum(1 << e for e in range(mats[0].size) if any(m.rank(1 << e) for m in mats))
    if result.rank == live.bit_count():
        assert y == live == cert
    elif result.rank == sum(m.full_rank() for m in mats):
        assert y == 0
    else:
        assert y == cert  # a failed search: the live elements it did not reach


def test_union_matches_reference_with_shared_loops():
    rng = random.Random(16)
    for _ in range(300):
        _assert_union_agrees(_random_union_instance(rng))


def test_union_of_all_loops_and_of_the_empty_ground():
    k4 = GraphicMatroid(SimpleGraph.complete(4))
    loops = LinearMatroid(2, [(0, 0)] * 5)
    for mats in (
        [Restriction(k4, 0), Restriction(k4, 0)],
        [loops],
        [loops, Restriction(loops, 0b101)],
        [LinearMatroid(2, [])],
        [LinearMatroid(2, []), GraphicMatroid(SimpleGraph.make(3, []))],
    ):
        _assert_union_agrees(mats)
        assert matroid_union(mats).rank == 0


@pytest.mark.parametrize(
    "q,n,k,tuples,infeasible",
    [(2, 3, 2, 136, 14), (3, 2, 2, 21, 0), (2, 4, 2, 2278, 50), (2, 3, 3, 816, 253)],
)
def test_disjoint_bases_feasibility_matches_reference(q, n, k, tuples, infeasible):
    space = LinearMatroid.full_space(q, n)
    full = space.full_mask
    flat_tuples = list(itertools.combinations_with_replacement(space.flats(), k))
    assert len(flat_tuples) == tuples
    failures = 0
    for tup in flat_tuples:
        target = sum(space.rank(a) for a in tup)
        rank, _, cert = reference_matroid_union([Restriction(space, a) for a in tup])
        result = disjoint_bases(space, tup)
        assert (result.bases is not None) == (rank == target), tup
        if result.bases is None:
            failures += 1
            y = result.certificate
            assert y == cert, tup
            assert y.bit_count() + sum(space.rank(a & full & ~y) for a in tup) < target, tup
        else:
            assert result.certificate is None
            taken = 0
            for a, b in zip(tup, result.bases):
                assert b & ~a == 0 and b & taken == 0
                taken |= b
                assert space.rank(b) == b.bit_count() == space.rank(a)
    assert failures == infeasible


# A rank oracle's lookup counts the mask's coloops and keys the matroid's rank
# memo by the union of the closures of two halves of its other elements; that
# union has the rank of the mask without its coloops.


def _lookup_matroids():
    from quotientlab.sequences import complete_cycle_oracle, example51_oracle

    return {
        "cycle:K4": complete_cycle_oracle(3).matroid,
        "cycle:K5": complete_cycle_oracle(4).matroid,
        "ex51(5)": example51_oracle(5).matroid,
        "ex51(6)": example51_oracle(6).matroid,
        "gf(2)^3": LinearMatroid.full_space(2, 3),
        "gf(3)^2": LinearMatroid.full_space(3, 2),
        # a circuit, a loop and two parallel elements, and a coloop
        "K3+gf(2)^2+edge": DirectSumMatroid(
            [GraphicMatroid(SimpleGraph.complete(3)), LinearMatroid.full_space(2, 2),
             GraphicMatroid(SimpleGraph.complete(2))]
        ),
        "no edges": GraphicMatroid(SimpleGraph.complete(1)),
        "one edge": GraphicMatroid(SimpleGraph.complete(2)),
        "one loop": LinearMatroid(2, [(0,)]),
    }


@pytest.mark.parametrize("name", sorted(_lookup_matroids()))
def test_rank_lookup_matches_rank_on_every_mask(name):
    matroid = _lookup_matroids()[name]
    oracle = matroid.rank_oracle()
    masks = list(range(1 << matroid.size))
    random.Random(name).shuffle(masks)  # so later lookups hit keys that earlier ones stored
    assert [oracle.lookup(mask) for mask in masks] == [matroid._rank(mask) for mask in masks]
    assert all(value == matroid._rank(key) for key, value in oracle._memo.items())
    rank = reference_rank(matroid)
    assert all(value == rank_closure(rank, matroid.size, key) for key, value in matroid._closure_cache.items())


def test_rank_lookup_closes_no_coloops():
    from quotientlab.sequences import example51_oracle

    oracle = example51_oracle(9)  # a path: every edge is a coloop
    assert [oracle.lookup(mask) for mask in range(1 << oracle.size)] == [
        mask.bit_count() for mask in range(1 << oracle.size)
    ]
    assert oracle.matroid._closure_cache == {0: 0}


@pytest.mark.parametrize("name", sorted(_lookup_matroids()))
def test_rank_oracles_share_their_matroids_one_rank_memo(name):
    matroid = _lookup_matroids()[name]
    assert matroid.rank_oracle()._memo is matroid.normalized_rank_oracle(7)._memo is matroid.rank_memo


def test_an_oracle_takes_its_values_from_num_or_from_a_matroid_never_both():
    matroid = GraphicMatroid(SimpleGraph.complete(3))
    with pytest.raises(ValueError):
        SetFunctionOracle(matroid.size, lambda m: 0, matroid=matroid)
    with pytest.raises(ValueError):
        SetFunctionOracle(matroid.size)
    oracle = SetFunctionOracle(matroid.size, den=2, matroid=matroid)
    assert [oracle.evaluate(m) for m in range(8)] == [Fraction(min(m.bit_count(), 2), 2) for m in range(8)]


def test_restriction_rank_reads_its_base_rank_memo():
    base = GraphicMatroid(SimpleGraph.complete(4))
    restricted = Restriction(base, 0b101011)
    for mask in range(1 << base.size):
        assert restricted.rank(mask) == base._rank(mask & 0b101011)
    assert set(base.rank_memo) == {mask & 0b101011 for mask in range(1 << base.size)}


@pytest.mark.parametrize("build, message", [
    (lambda: LinearMatroid(2, [(1, 0), (1,)]), "columns must share one dimension"),
    (lambda: LinearMatroid(3, [(1, 3)]), "column entries must lie in 0..q-1"),
    (lambda: LinearMatroid(3, [(-1, 0)]), "column entries must lie in 0..q-1"),
    (lambda: edge_coloring_quotient(SimpleGraph.complete(3), [0, 0, 0], 0), "need at least one color class"),
    (lambda: edge_coloring_quotient(SimpleGraph.complete(3), [0, 1], 2), "need one color per edge"),
    (lambda: edge_coloring_quotient(SimpleGraph.complete(3), [0, 1, 2], 2), "colors must lie in 0..num_colors-1"),
    (lambda: edge_coloring_quotient(SimpleGraph.make(0, []), [], 1), "normalization by |V| needs at least one node"),
    (lambda: matroid_union([]), "need at least one matroid"),
    (lambda: matroid_union([GraphicMatroid(SimpleGraph.complete(3)), LinearMatroid.full_space(2, 2)]),
     "matroids must share a common ground set"),
])
def test_matroid_input_checks(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
