"""Sup-norm distances, Hausdorff reports, convergence diagnostics."""

import itertools
import random
from fractions import Fraction

import pytest

from quotientlab import (
    EXACT,
    EmptyProfileError,
    Mode,
    QuotientPoint,
    cauchy_diagnostic,
    directed_distance,
    eps_contained,
    hausdorff,
    linf_distance,
    profile,
)
from quotientlab.graphs import SimpleGraph, cut_capacity_oracle
from quotientlab.matroid import GraphicMatroid
from quotientlab.metric import _point_list
from quotientlab.sequences import complete_cycle_oracle, example51_oracle, gf_space_oracle


def pt(*values):
    return QuotientPoint(
        (len(values) + 1).bit_length() - 1, tuple(Fraction(v) for v in (0, *values))
    )


def test_linf_zero_on_equal():
    p = pt("1/2", "1/3", 1)
    assert linf_distance(p, p) == 0


def test_linf_examples():
    assert linf_distance(pt(0, 0, 0), pt("1/2", "1/3", 1)) == 1
    a = pt("7/8", "7/8", "7/8")
    b = pt("4/9", "4/9", "8/9")
    assert linf_distance(a, b) == Fraction(31, 72)


def test_linf_dimension_mismatch():
    with pytest.raises(ValueError):
        linf_distance(pt(1), pt(1, 1, 1))


def naive_hausdorff(a_pts, b_pts):
    def naive_linf(p, q):
        return max(abs(x - y) for x, y in zip(p.coords, q.coords))

    d_ab = max(min(naive_linf(a, b) for b in b_pts) for a in a_pts)
    d_ba = max(min(naive_linf(b, a) for a in a_pts) for b in b_pts)
    return max(d_ab, d_ba)


def test_hausdorff_identity():
    cloud = [pt("1/2"), pt("1/3"), pt(0)]
    report = hausdorff(cloud, cloud)
    assert report.distance == 0


def test_hausdorff_singletons():
    report = hausdorff([pt(0)], [pt(1)])
    assert report.distance == 1
    assert report.witness_ab == pt(0)
    assert report.witness_ba == pt(1)


def test_hausdorff_asymmetric_directed_parts():
    u = [pt(0), pt(1)]
    v = [pt("2/5")]
    report = hausdorff(u, v)
    assert report.directed_ab == Fraction(3, 5)
    assert report.directed_ba == Fraction(2, 5)
    assert report.distance == Fraction(3, 5)


def test_hausdorff_empty_cloud():
    with pytest.raises(EmptyProfileError):
        hausdorff([], [pt(0)])


def test_hausdorff_matches_naive_on_random_clouds():
    rng = random.Random(31337)
    for _ in range(50):
        a = [
            pt(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
               Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
               Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
            for _ in range(rng.randrange(1, 12))
        ]
        b = [
            pt(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
               Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
               Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
            for _ in range(rng.randrange(1, 12))
        ]
        assert hausdorff(a, b).distance == naive_hausdorff(a, b)


def test_empty_second_cloud_raises():
    with pytest.raises(EmptyProfileError, match="point cloud is empty"):
        directed_distance([pt(0)], [])
    with pytest.raises(EmptyProfileError):
        hausdorff([pt(0)], [])


def test_mixed_dimensions_raise():
    mixed = [pt(0), pt(1, 1, 1)]
    for a, b in ((mixed, [pt(0)]), ([pt(0)], mixed)):
        with pytest.raises(ValueError, match="^mixed dimensions in one point cloud$"):
            directed_distance(a, b)
    with pytest.raises(ValueError, match="^clouds live in different dimensions$"):
        directed_distance([pt(0)], [pt(1, 1, 1)])


def reference_directed(a_cloud, b_cloud):
    """The pruned Fraction loop over every pair, which the integer kernel replaced."""
    a_pts = _point_list(a_cloud)
    b_pts = _point_list(b_cloud)
    zero = Fraction(0)
    best = Fraction(-1)
    witness = a_pts[0]
    for a in a_pts:
        ac = a.coords
        nearest = None
        for b in b_pts:
            d = zero
            for x, y in zip(ac, b.coords):
                g = x - y if x >= y else y - x
                if g > d:
                    d = g
                    if nearest is not None and d >= nearest:
                        break
            if nearest is None or d < nearest:
                nearest = d
                if nearest <= best:
                    break
        if nearest > best:
            best = nearest
            witness = a
    return best, witness


def random_cloud(rng, k, size):
    dens = (1, 2, 3, 4, 6, 8, 64)
    return [
        QuotientPoint(k, (Fraction(0),) + tuple(
            Fraction(rng.randrange(-12, 13), rng.choice(dens)) for _ in range((1 << k) - 1)))
        for _ in range(size)
    ]


def assert_matches_reference(a, b):
    distance, witness = directed_distance(a, b)
    assert (distance, witness) == reference_directed(a, b)
    assert type(distance) is Fraction


def test_directed_distance_matches_reference_on_random_clouds():
    rng = random.Random(20261018)
    for _ in range(400):
        k = rng.randrange(1, 4)
        assert_matches_reference(random_cloud(rng, k, rng.randrange(1, 61)),
                                 random_cloud(rng, k, rng.randrange(1, 61)))


def test_directed_distance_matches_reference_on_shaped_clouds():
    rng = random.Random(8)
    base = random_cloud(rng, 2, 30)
    # duplicates, and one cloud inside the other
    assert_matches_reference(base + base[:10], base[5:15] * 2)
    assert_matches_reference(base[5:15], base)
    assert_matches_reference(base[:20], base[10:])
    # a constant coordinate, as the full set's is for partitions
    flat = [QuotientPoint(2, p.coords[:3] + (Fraction(1),)) for p in base]
    assert_matches_reference(flat[:15], flat[15:])
    # few distinct values on every axis, so the window axis has long ties
    grid = [QuotientPoint(2, (Fraction(0),) + c)
            for c in itertools.product((Fraction(-1, 2), Fraction(0), Fraction(3, 4)), repeat=3)]
    rng.shuffle(grid)
    assert_matches_reference(grid[:9], grid[9:])
    assert_matches_reference(grid[9:], grid[:9])
    assert_matches_reference(random_cloud(rng, 2, 25), grid[::2])


def test_directed_distance_matches_reference_on_cut_capacity_clouds():
    # converge-cut's shape: 8 nodes, 12 edges, k = 3, nodes-squared; such
    # clouds share most of their points
    rng = random.Random(1234)
    clouds = []
    for _ in range(4):
        edges = rng.sample(list(itertools.combinations(range(8), 2)), 12)
        oracle = cut_capacity_oracle(SimpleGraph.make(8, edges), "nodes-squared")
        clouds.append(profile(oracle, 3, Mode.PARTITION, EXACT))
    for a, b in itertools.permutations(clouds, 2):
        assert a.den == b.den and len(a.nums & b.nums) > len(a.nums) // 2
        assert_matches_reference(a, b)


def test_directed_distance_matches_reference_on_overlapping_clouds():
    rng = random.Random(20261019)
    base = random_cloud(rng, 2, 40)
    extra = random_cloud(rng, 2, 8)
    assert_matches_reference(base, base)  # A = B
    assert_matches_reference(base[:25], base)  # A inside B
    assert_matches_reference(base, base[:25])  # B inside A
    assert_matches_reference(base[17:18], base)  # one point of B
    assert_matches_reference(base + extra, base)
    assert_matches_reference(base, base + extra)
    assert_matches_reference(base[:30] + extra, base[10:] + extra[:3])


def test_directed_distance_ties_among_the_unshared_points():
    # B is a grid of step 10; six added points miss it by exactly 5 (one
    # more by 3) and lie between shared points, so the witness is the
    # smallest of the tie
    grid = [pt(x, y, z) for x, y, z in itertools.product(range(0, 50, 10), repeat=3)]
    off = [pt(x + 5, y, z) for x, y, z in itertools.product((30, 0, 20), (40, 10), (0,))]
    off.append(pt(0, 0, 3))
    a = grid[::2] + off
    distance, witness = directed_distance(a, grid)
    assert (distance, witness) == (5, pt(5, 10, 0))
    assert_matches_reference(a, grid)
    assert_matches_reference(grid + off, grid[1:] + off[::2])


def test_directed_distance_shared_points_meet_over_the_lcm():
    # halves and thirds: the clouds share only their integral points, which
    # are equal rows only after both are rescaled to sixths
    ints = [pt(x, y, z) for x, y, z in itertools.product((0, 1, -1), repeat=3)]
    halves = ints[::2] + [pt(Fraction(1, 2), 0, 1), pt(0, Fraction(-3, 2), 1)]
    thirds = ints[1::2] + ints[:6] + [pt(Fraction(1, 3), 1, 0), pt(0, 0, Fraction(2, 3))]
    sixths = halves + [pt(Fraction(1, 3), 0, 0)]
    for a, b in ((halves, thirds), (thirds, halves), (halves, sixths), (sixths, halves),
                 (ints, sixths), (thirds, ints)):
        assert_matches_reference(a, b)
    assert directed_distance(halves, sixths) == (0, min(halves, key=lambda p: p.coords))


def test_eps_contained():
    a = [pt(1)]
    b = [pt(0)]
    assert eps_contained(a, a, 0).holds
    failed = eps_contained(a, b, Fraction(1, 2))
    assert not failed.holds
    assert failed.witness == pt(1)
    d, _ = directed_distance(a, b)
    assert eps_contained(a, b, d).holds
    assert not eps_contained(a, b, d - Fraction(1, 1000)).holds


def test_eps_contained_witness_is_the_farthest_point():
    # all three miss B by more than 1/2; the first in coordinate order is
    # nearest, and the two farthest tie, so the smaller tuple is chosen
    a = [pt(-1, 0, 0), pt(0, 3, 0), pt(0, 0, 3)]
    failed = eps_contained(a, [pt(0, 0, 0)], Fraction(1, 2))
    assert not failed.holds
    assert failed.witness == pt(0, 0, 3)


def test_eps_contained_profiles():
    small = profile(gf_space_oracle(2, 2), 2, Mode.PARTITION, EXACT)
    large = profile(gf_space_oracle(2, 4), 2, Mode.PARTITION, EXACT)
    assert eps_contained(small, large, Fraction(1, 2)).holds


def test_eps_contained_takes_exact_eps_only():
    a, b = [pt(0)], [pt(Fraction(3, 10))]
    assert eps_contained(a, b, Fraction(3, 10)).holds
    # 0.3 is a little below 3/10 in binary, so a float would say no
    with pytest.raises(TypeError, match="^eps must be an int or a Fraction, got float$"):
        eps_contained(a, b, 0.3)
    with pytest.raises(TypeError, match="got str$"):
        eps_contained(a, b, "3/10")


@pytest.mark.parametrize("oracle", [
    GraphicMatroid(SimpleGraph.complete(4)).rank_oracle(),
    complete_cycle_oracle(3),
], ids=["rank", "normalized"])
def test_inclusion_chains_through_the_kernel(oracle):
    # K4's cycle matroid at k = 2: partition ⊆ disjoint ⊆ any and
    # partition ⊆ covering ⊆ any, so the smaller set is at distance 0
    sets = {mode: profile(oracle, 2, mode, EXACT) for mode in Mode}
    # 7 < 18 < 20 points; covering adds nothing to partition here
    assert len(sets[Mode.PARTITION]) < len(sets[Mode.DISJOINT]) < len(sets[Mode.ANY])
    for small, big in ((Mode.PARTITION, Mode.ANY), (Mode.DISJOINT, Mode.ANY),
                       (Mode.PARTITION, Mode.COVERING)):
        assert directed_distance(sets[small], sets[big]) == (0, _point_list(sets[small])[0])
        assert eps_contained(sets[small], sets[big], 0).holds
        assert_matches_reference(sets[small], sets[big])
        assert_matches_reference(sets[big], sets[small])


def test_cauchy_identical_sets():
    cloud = profile(gf_space_oracle(2, 2), 2, Mode.PARTITION, EXACT)
    diag = cauchy_diagnostic([cloud, cloud, cloud])
    assert diag.verdict == "consistent-with-cauchy"
    assert all(d == 0 for row in diag.pairwise for d in row)


def test_cauchy_matrix_shape_and_symmetry():
    sets = [profile(example51_oracle(n), 2, Mode.PARTITION, EXACT) for n in (5, 6, 7, 8)]
    diag = cauchy_diagnostic(sets)
    assert len(diag.pairwise) == 4
    for i in range(4):
        assert diag.pairwise[i][i] == 0
        for j in range(4):
            assert diag.pairwise[i][j] == diag.pairwise[j][i]
    assert all(a >= b for a, b in zip(diag.tail_sup, diag.tail_sup[1:]))


def test_cauchy_oscillating_family_diverges():
    sets = [profile(example51_oracle(n), 2, Mode.PARTITION, EXACT) for n in range(5, 10)]
    diag = cauchy_diagnostic(sets)
    assert diag.verdict == "diverging"
    assert diag.tail_sup[-1] >= Fraction(31, 72)
    assert diag.witness is not None


def test_cauchy_linear_spaces_shrink():
    sets = [profile(gf_space_oracle(2, n), 2, Mode.PARTITION, EXACT) for n in (2, 3, 4)]
    diag = cauchy_diagnostic(sets)
    # later pair strictly closer than the worst early pair
    assert diag.pairwise[1][2] < diag.pairwise[0][1]
    assert diag.tail_sup[-1] <= diag.tail_sup[0]


def test_cauchy_single_set_inconclusive():
    cloud = profile(gf_space_oracle(2, 2), 2, Mode.PARTITION, EXACT)
    diag = cauchy_diagnostic([cloud])
    assert diag.verdict == "inconclusive"
    assert diag.tail_sup == ()


def test_cauchy_tail_ratio_between_the_factors_is_inconclusive():
    # pairwise 3, 10 and 7: the tail sup falls from 10 to 7, a ratio in (1/2, 9/10)
    diag = cauchy_diagnostic([[pt(0)], [pt(3)], [pt(10)]])
    assert diag.tail_sup == (Fraction(10), Fraction(7))
    assert diag.verdict == "inconclusive" and diag.witness is None


def test_cauchy_needs_a_cloud():
    with pytest.raises(ValueError, match="at least one profile set"):
        cauchy_diagnostic([])


def test_cauchy_permutation_covariant():
    sets = [profile(example51_oracle(n), 2, Mode.PARTITION, EXACT) for n in (5, 6, 7)]
    forward = cauchy_diagnostic(sets)
    backward = cauchy_diagnostic(list(reversed(sets)))
    for i in range(3):
        for j in range(3):
            assert forward.pairwise[i][j] == backward.pairwise[2 - i][2 - j]


def test_cauchy_canonicalizes_each_cloud_once(monkeypatch):
    from quotientlab import metric
    from quotientlab.setfn import PointCloud

    sets = [profile(example51_oracle(n), 2, Mode.PARTITION, EXACT) for n in (5, 6, 7, 8)]
    expected = cauchy_diagnostic(sets)
    built = []
    real = PointCloud.from_points.__func__

    def counted(cls, k, points, **fields):
        points = list(points)
        built.append(len(points))
        return real(cls, k, points, **fields)

    monkeypatch.setattr(PointCloud, "from_points", classmethod(counted))
    # a profile set is read as stored; a list of points is converted once,
    # where each directed distance used to convert both of its clouds
    assert cauchy_diagnostic(sets) == expected and built == []
    assert cauchy_diagnostic([list(s) for s in sets]) == expected
    assert built == [len(s) for s in sets]
    assert metric._canonical(sets[0]) is sets[0]
