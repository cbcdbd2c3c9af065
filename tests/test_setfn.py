"""Core setfunction oracle, quotient vectors, shape checks."""

import math
import random
from fractions import Fraction

import pytest

from quotientlab import (
    CutNormalization,
    DirectSumMatroid,
    GraphicMatroid,
    LinearMatroid,
    MaskWidthError,
    Matroid,
    Mode,
    QuotientPoint,
    Restriction,
    SetFunctionOracle,
    SimpleGraph,
    GroundTooLargeError,
    check_monotone,
    check_monotone_sampled,
    check_submodular,
    check_submodular_sampled,
    blow_up,
    cut_capacity_oracle,
    profile,
    quotient_point,
    shifted_tau_oracle,
)
from quotientlab.sequences import gf_space_oracle
from quotientlab.setfn import oracle_from_table, union_table


def dfs_components(n_nodes, edges, mask):
    """Independent component counter (DFS on adjacency dicts)."""
    adj = {v: [] for v in range(n_nodes)}
    for i, (u, v) in enumerate(edges):
        if mask >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    comps = 0
    for v in range(n_nodes):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x])
    return comps


def test_evaluate_empty_is_zero():
    oracle = oracle_from_table([0, 1, 1, 2])
    assert oracle.evaluate(0) == 0


def test_evaluate_triangle_rank():
    g = SimpleGraph.complete(3)
    oracle = GraphicMatroid(g).rank_oracle()
    # spanning-tree rank: |V| - #components
    expected = 3 - dfs_components(3, g.edges, 0b111)
    assert expected == 2
    assert oracle.evaluate(0b111) == 2


def test_evaluate_two_unit_vectors():
    oracle = LinearMatroid.full_space(2, 2).rank_oracle()
    # ground order: 00, 10, 01, 11; {10, 01} spans the plane
    assert oracle.evaluate(0b110) == 2


def test_evaluate_mask_width():
    oracle = oracle_from_table([0, 1])
    with pytest.raises(MaskWidthError):
        oracle.evaluate(0b10)


def test_nonzero_empty_rejected_unless_waived():
    # an oracle may be nonzero on the empty set; quotient vectors of it are rejected
    shifted = SetFunctionOracle(1, lambda m: 1 + m.bit_count())
    assert shifted.evaluate(0) == 1
    with pytest.raises(ValueError):
        quotient_point(shifted, [0b1])


def test_quotient_point_empty_parts():
    oracle = oracle_from_table([0, 1, 1, 2, 1, 2, 2, 3])
    point = quotient_point(oracle, [0, 0, 0])
    assert all(c == 0 for c in point.coords)


def test_quotient_point_single_part_whole_ground():
    oracle = oracle_from_table([0, 2, 3, 4])
    point = quotient_point(oracle, [0b11])
    assert point.coords == (Fraction(0), Fraction(4))


def test_quotient_point_gf22():
    oracle = LinearMatroid.full_space(2, 2).normalized_rank_oracle(denominator=2)
    # parts {10, 11} and {01}: ranks 2, 1, 2
    point = quotient_point(oracle, [0b1010, 0b0100])
    assert point.coords == (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1))


def test_quotient_point_triangle():
    g = SimpleGraph.complete(3)
    oracle = GraphicMatroid(g).normalized_rank_oracle(denominator=3)
    point = quotient_point(oracle, [0b001, 0b110])
    assert point.coords == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(2, 3),
    )


def test_union_table_order():
    assert union_table([0b01, 0b10]) == [0, 0b01, 0b10, 0b11]


def naive_submodular_violations(oracle):
    """Full scan over all ordered pairs (X, Y), the quadratic definition."""
    n = oracle.size
    ev = oracle.evaluate
    out = []
    for x in range(1 << n):
        for y in range(1 << n):
            slack = ev(x) + ev(y) - ev(x & y) - ev(x | y)
            if slack < 0:
                out.append((x, y, slack))
    return out


def test_submodular_matroid_ranks():
    for oracle in (
        GraphicMatroid(SimpleGraph.complete(4)).rank_oracle(),
        LinearMatroid.full_space(2, 3).rank_oracle(),
    ):
        assert check_submodular(oracle) == []


def test_submodular_cut_capacity_square():
    from quotientlab import CutNormalization, cut_capacity_oracle

    oracle = cut_capacity_oracle(SimpleGraph.cycle(4), CutNormalization.EDGES)
    assert check_submodular(oracle) == []
    # symmetry kappa(X) == kappa(complement)
    for mask in range(1 << 4):
        assert oracle.evaluate(mask) == oracle.evaluate(0b1111 ^ mask)


def test_supermodular_squares_detected():
    squares = SetFunctionOracle(3, lambda m: m.bit_count() ** 2)
    violations = check_submodular(squares)
    assert violations
    x, y = violations[0].x, violations[0].y
    assert squares.evaluate(x) + squares.evaluate(y) < squares.evaluate(x & y) + squares.evaluate(x | y)


def test_exchange_check_agrees_with_naive_pair_scan():
    import random

    rng = random.Random(7)
    for trial in range(20):
        n = rng.randrange(2, 5)
        table = [Fraction(0)] + [
            Fraction(rng.randrange(-6, 10), rng.randrange(1, 5)) for _ in range((1 << n) - 1)
        ]
        oracle = oracle_from_table(table, label=f"rand{trial}")
        assert bool(check_submodular(oracle)) == bool(naive_submodular_violations(oracle))


def test_monotone_checks():
    rank = GraphicMatroid(SimpleGraph.complete(3)).rank_oracle()
    assert check_monotone(rank) == []
    decreasing = SetFunctionOracle(3, lambda m: -m.bit_count())
    assert check_monotone(decreasing)


def test_sampled_checks_find_gross_violations():
    squares = SetFunctionOracle(8, lambda m: m.bit_count() ** 2)
    assert check_submodular_sampled(squares, seed=3, samples=300)
    rank = GraphicMatroid(SimpleGraph.complete(4)).rank_oracle()
    assert check_submodular_sampled(rank, seed=3, samples=300) == []


def test_sampled_monotone_probe_both_directions():
    # |X| on four elements, except that the whole set drops to 0
    dip = oracle_from_table([m.bit_count() for m in range(15)] + [0])
    violations = check_monotone_sampled(dip, seed=5, samples=64)
    assert violations
    for v in violations:
        assert v.x & ~v.y == 0 and v.y == 0b1111
        assert v.slack == dip.evaluate(v.y) - dip.evaluate(v.x) < 0
    # 16 elements: above EXHAUSTIVE_CHECK_CAP, so only the probe applies
    space = LinearMatroid.full_space(2, 4).normalized_rank_oracle()
    with pytest.raises(GroundTooLargeError, match="check_monotone_sampled"):
        check_monotone(space)
    assert check_monotone_sampled(space, seed=5, samples=400) == []


def fraction_submodular_sampled(oracle, seed, samples):
    """The Fraction probe the numerator scan replaces: four evaluate calls per pair."""
    rng = random.Random(seed)
    full, ev = oracle.full_mask, oracle.evaluate
    out = []
    for _ in range(samples):
        x, y = rng.randint(0, full), rng.randint(0, full)
        slack = ev(x) + ev(y) - ev(x & y) - ev(x | y)
        if slack < 0:
            out.append((x, y, slack))
    return out


def fraction_monotone_sampled(oracle, seed, samples):
    rng = random.Random(seed)
    full, ev = oracle.full_mask, oracle.evaluate
    out = []
    for _ in range(samples):
        x = rng.randint(0, full)
        y = x | rng.randint(0, full)
        if ev(y) < ev(x):
            out.append((x, y, ev(y) - ev(x)))
    return out


def test_sampled_checks_match_fraction_reference():
    rng = random.Random(31)
    for n in (3, 5, 7):
        # random values over mixed denominators: neither submodular nor monotone
        table = [Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
                                 for _ in range((1 << n) - 1)]
        oracle = oracle_from_table(table)
        assert oracle.den > 1
        for seed in range(3):
            sub = check_submodular_sampled(oracle, seed, 200)
            mono = check_monotone_sampled(oracle, seed, 200)
            assert sub and mono
            assert [(v.x, v.y, v.slack) for v in sub] == fraction_submodular_sampled(oracle, seed, 200)
            assert [(v.x, v.y, v.slack) for v in mono] == fraction_monotone_sampled(oracle, seed, 200)
            assert all(type(v.slack) is Fraction for v in sub + mono)


def test_exact_arithmetic_is_reproducible():
    oracle = GraphicMatroid(SimpleGraph.cycle(5)).normalized_rank_oracle()
    for mask in (0b10101, 0b01110, 0b11111):
        assert oracle.evaluate(mask) == oracle.evaluate(mask)
        assert oracle.evaluate(mask).denominator > 0


def test_point_scale_and_singletons():
    p = QuotientPoint(2, (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)))
    assert p.singleton(0) == Fraction(1, 2)
    assert p.max_singleton() == Fraction(1, 2)
    assert p.scale(2).coords == (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(2))


def test_composition_identity_exhaustive():
    # (phi/A)/X == phi/B with B_j the union of the A_i named by X_j
    import itertools

    g = SimpleGraph.make(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    oracle = GraphicMatroid(g).normalized_rank_oracle()
    n = oracle.size
    for assign in itertools.product(range(3), repeat=n):
        parts = [0, 0, 0]
        for e, c in enumerate(assign):
            parts[c] |= 1 << e
        inner = quotient_point(oracle, parts)
        for regroup in itertools.product(range(2), repeat=3):
            outer_parts = [0, 0]
            for i, c in enumerate(regroup):
                outer_parts[c] |= 1 << i
            composed = quotient_point(inner.as_oracle(), outer_parts)
            merged = [0, 0]
            for j in range(2):
                for i in range(3):
                    if outer_parts[j] >> i & 1:
                        merged[j] |= parts[i]
            assert composed == quotient_point(oracle, merged)


def test_quotient_coords_monotone_for_monotone_oracles():
    import random

    oracles = [
        GraphicMatroid(SimpleGraph.complete(4)).rank_oracle(),
        SetFunctionOracle(5, int.bit_count),
    ]
    rng = random.Random(13)
    for oracle in oracles:
        assert check_monotone(oracle) == []
        for _ in range(20):
            parts = [rng.randrange(1 << oracle.size) for _ in range(3)]
            point = quotient_point(oracle, parts)
            for small in range(8):
                for big in range(8):
                    if small & ~big == 0:
                        assert point.coords[small] <= point.coords[big]


def _random_parts(rng, size, k, mode):
    """Parts of a random assignment of each of `size` elements to a choice of `mode`."""
    parts = [0] * k
    for e in range(size):
        pick = rng.choice(mode.element_choices(k))
        for i in range(k):
            if pick >> i & 1:
                parts[i] |= 1 << e
    return parts


def test_quotient_points_of_submodular_functions_are_submodular():
    # f(A_X) + f(A_Y) >= f(A_X | A_Y) + f(A_X & A_Y), and A_{X&Y} = A_X & A_Y
    # for disjoint parts; overlapping parts only give A_{X&Y} <= A_X & A_Y,
    # so there the step to f(A_{X&Y}) needs f increasing as well
    rng = random.Random(20251018)
    increasing = [
        GraphicMatroid(SimpleGraph.complete(4)).normalized_rank_oracle(),
        gf_space_oracle(2, 3),
    ]
    cuts = [
        cut_capacity_oracle(SimpleGraph.cycle(5), CutNormalization.EDGES),
        cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 2), CutNormalization.EDGES),
    ]
    disjoint_modes = (Mode.PARTITION, Mode.DISJOINT)
    for oracles, modes in ((increasing, tuple(Mode)), (cuts, disjoint_modes)):
        for oracle in oracles:
            assert check_submodular(oracle) == []
            for k in (2, 3):
                for mode in modes:
                    for _ in range(12):
                        parts = _random_parts(rng, oracle.size, k, mode)
                        point = quotient_point(oracle, parts)
                        assert check_submodular(point.as_oracle()) == [], (oracle.label, mode, parts)
    # a cut capacity is not increasing, and overlapping parts can break it
    overlap = quotient_point(cuts[0], [0b11100, 0b11110, 0b00111])
    assert check_submodular(overlap.as_oracle()) != []
    # the check can fail: with one singleton part per element the point is f itself
    supermodular = oracle_from_table([0, 0, 0, 1], label="supermodular")
    point = quotient_point(supermodular, [0b01, 0b10])
    assert point.coords == (0, 0, 0, 1)
    assert check_submodular(point.as_oracle()) != []


def test_numerators_are_ints_over_one_denominator():
    with pytest.raises(TypeError):
        SetFunctionOracle(1, lambda m: Fraction(0))
    with pytest.raises(ValueError):
        SetFunctionOracle(1, lambda m: 0, 0)
    halves = SetFunctionOracle(2, lambda m: m.bit_count(), 2)
    assert [halves.evaluate(m) for m in range(4)] == [0, Fraction(1, 2), Fraction(1, 2), 1]
    with pytest.raises(MaskWidthError):
        halves.numerator(0b100)
    # the scans compare numerators; each recorded slack is the Fraction margin
    squares = SetFunctionOracle(3, lambda m: m.bit_count() ** 2, 3)
    ev = squares.evaluate
    violations = check_submodular(squares)
    assert violations
    for v in violations:
        assert v.slack == ev(v.x) + ev(v.y) - ev(v.x & v.y) - ev(v.x | v.y) < 0
    decreasing = check_monotone(SetFunctionOracle(2, lambda m: -m.bit_count(), 4))
    assert [v.slack for v in decreasing] == [Fraction(-1, 4)] * 4


def test_table_oracle_numerators_match_fraction_values():
    rng = random.Random(4)
    for trial in range(20):
        n = rng.randint(0, 4)
        values = [Fraction(0)] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range((1 << n) - 1)
        ]
        oracle = oracle_from_table(values)
        assert oracle.den == math.lcm(*(v.denominator for v in values))
        for mask, value in enumerate(values):
            assert type(oracle.numerator(mask)) is int
            assert Fraction(oracle.numerator(mask), oracle.den) == oracle.evaluate(mask) == value
        assert list(oracle.numerator_table()) == [oracle.numerator(m) for m in range(1 << n)]


def test_numerators_beyond_64_bits_fill_a_list():
    values = [0, Fraction(1, 2**70), Fraction(3, 4), Fraction(5, 2**70 + 1)]
    oracle = oracle_from_table(values)
    assert oracle.den > 2**128
    table = oracle.numerator_table()
    assert list(table) == [oracle.numerator(m) for m in range(4)]
    assert [Fraction(x, oracle.den) for x in table] == values
    pset = profile(oracle, 2, Mode.ANY)
    assert len(pset) == len({quotient_point(oracle, [a, b]).coords for a in range(4) for b in range(4)})


def _loops(n):
    return LinearMatroid(2, [(0,)] * n)


def _mask_too_wide(n):
    return MaskWidthError, f"mask {bin(1 << n)} does not fit a ground set of size {n}"


TOO_LARGE = GroundTooLargeError, "ground set needs 25, cap GROUND_SIZE_CAP=24"
NEGATIVE = ValueError, "ground set size must be nonnegative"

# (constructor, input, the call, expected error type and message); sizes enter
# only through SetFunctionOracle and Matroid, so each reports as they do
SIZE_AND_MASK_ROWS = [
    ("SetFunctionOracle", "size 25", lambda: SetFunctionOracle(25, int.bit_count), TOO_LARGE),
    ("SetFunctionOracle", "size -1", lambda: SetFunctionOracle(-1, int.bit_count), NEGATIVE),
    ("SetFunctionOracle", "wide mask", lambda: SetFunctionOracle(3, int.bit_count).numerator(8),
     _mask_too_wide(3)),
    ("Matroid", "size 25", lambda: Matroid(25), TOO_LARGE),
    ("Matroid", "size -1", lambda: Matroid(-1), NEGATIVE),
    ("Matroid", "wide rank mask", lambda: Matroid(3).rank(8), _mask_too_wide(3)),
    ("Matroid", "wide closure mask", lambda: Matroid(3).closure(8), _mask_too_wide(3)),
    ("GraphicMatroid", "size 25",
     lambda: GraphicMatroid(SimpleGraph.make(26, [(0, v) for v in range(1, 26)])), TOO_LARGE),
    ("GraphicMatroid", "wide mask", lambda: GraphicMatroid(SimpleGraph.complete(3)).rank(8),
     _mask_too_wide(3)),
    ("LinearMatroid", "size 25", lambda: _loops(25), TOO_LARGE),
    ("LinearMatroid", "wide mask", lambda: LinearMatroid.full_space(2, 2).rank(16),
     _mask_too_wide(4)),
    ("DirectSumMatroid", "size 25", lambda: DirectSumMatroid([_loops(12), _loops(13)]), TOO_LARGE),
    ("DirectSumMatroid", "wide mask", lambda: DirectSumMatroid([_loops(1), _loops(2)]).rank(8),
     _mask_too_wide(3)),
    ("Restriction", "wide support", lambda: Restriction(_loops(3), 8), _mask_too_wide(3)),
    ("Restriction", "wide query mask", lambda: Restriction(_loops(3), 0b11).rank(8),
     _mask_too_wide(3)),
    ("oracle_from_table", "wide mask", lambda: oracle_from_table([0, 1, 1, 2]).numerator(4),
     _mask_too_wide(2)),
    ("cut_capacity_oracle", "size 25", lambda: cut_capacity_oracle(SimpleGraph.path(25)), TOO_LARGE),
    ("cut_capacity_oracle", "wide mask",
     lambda: cut_capacity_oracle(SimpleGraph.complete(3)).numerator(8), _mask_too_wide(3)),
    ("shifted_tau_oracle", "size 25, before the 16-node hom cap",
     lambda: shifted_tau_oracle(SimpleGraph.complete(2), SimpleGraph.make(
         16, [(0, v) for v in range(1, 16)] + [(v, v + 1) for v in range(1, 11)])), TOO_LARGE),
    ("quotient_point", "wide mask",
     lambda: quotient_point(SetFunctionOracle(3, int.bit_count), [1, 8]), _mask_too_wide(3)),
]


@pytest.mark.parametrize("call, expected", [row[2:] for row in SIZE_AND_MASK_ROWS],
                         ids=[f"{row[0]}-{row[1]}" for row in SIZE_AND_MASK_ROWS])
def test_size_and_mask_errors_keep_type_and_message(call, expected):
    error, message = expected
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
