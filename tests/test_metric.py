"""Sup-norm distances, Hausdorff reports, convergence diagnostics."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from quotientlab import (
    EXACT,
    FLATS,
    EmptyProfileError,
    Mode,
    QuotientPoint,
    cauchy_diagnostic,
    directed_distance,
    eps_contained,
    hausdorff,
    limit_set_filter,
    linf_distance,
    profile,
)
from quotientlab import metric
from quotientlab.graphs import SimpleGraph, cut_capacity_oracle
from quotientlab.matroid import GraphicMatroid
from quotientlab.metric import _point_list
from quotientlab.profiles import Sampled
from quotientlab.setfn import PointCloud, close_under_relabeling
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


def cut_capacity_clouds(seed):
    """converge-cut's shape: 8 nodes, 12 edges, k = 3, nodes-squared; such clouds share most of their points."""
    rng = random.Random(seed)
    clouds = []
    for _ in range(4):
        edges = rng.sample(list(itertools.combinations(range(8), 2)), 12)
        oracle = cut_capacity_oracle(SimpleGraph.make(8, edges), "nodes-squared")
        clouds.append(profile(oracle, 3, Mode.PARTITION, EXACT))
    return clouds


def test_directed_distance_matches_reference_on_cut_capacity_clouds():
    clouds = cut_capacity_clouds(1234)
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


# Orbit representatives: relabeling the parts keeps every sup-norm distance,
# so when both clouds are closed under it only the smallest point of each
# S_k orbit of A - B is searched.  These pin the kernel, filter and index
# together against `reference_directed`, which scans every point of A.


def relabel_closure(rows, k):
    """The rows and every image of them under a permutation of the k parts."""
    rows = set(rows)
    close_under_relabeling(rows, k)
    return rows


def closed_cloud(rng, k, size, den=1, span=6):
    """The S_k closure of `size` random integer rows over den."""
    rows = [tuple(rng.randrange(-span, span + 1) for _ in range((1 << k) - 1)) for _ in range(size)]
    return PointCloud(k, den, frozenset(relabel_closure(rows, k)))


@pytest.fixture
def orbit_calls(monkeypatch):
    """The sizes of the A - B sets the orbit filter was asked to reduce."""
    calls = []
    real = metric._orbit_minima

    def counted(rows, k):
        calls.append(len(rows))
        return real(rows, k)

    monkeypatch.setattr(metric, "_orbit_minima", counted)
    return calls


def assert_filtered(a, b, orbit_calls, filtered=True):
    """The kernel agrees with the reference, and the orbit filter ran exactly when it should."""
    orbit_calls.clear()
    assert_matches_reference(a, b)
    assert bool(orbit_calls) == filtered


def star_profile(a):
    oracle = cut_capacity_oracle(SimpleGraph.make(a + 1, [(0, i) for i in range(1, a + 1)]))
    return profile(oracle, 3, Mode.ANY, EXACT)


def test_orbit_filter_matches_reference_on_exact_and_flats_profiles(orbit_calls):
    stars = [star_profile(a) for a in (1, 2, 3)]
    families = [stars]
    for k in (2, 3):
        families.append([profile(example51_oracle(n), k, Mode.PARTITION, EXACT) for n in (4, 5, 6, 7)])
    families.append([profile(gf_space_oracle(2, n), 2, Mode.ANY, FLATS) for n in (2, 3)])
    families.append([profile(gf_space_oracle(2, n), 3, Mode.DISJOINT, FLATS) for n in (2, 3)])
    for clouds in families:
        for a, b in itertools.permutations(clouds, 2):
            assert a.closed_under_relabeling and b.closed_under_relabeling
            assert_filtered(a, b, orbit_calls, filtered=bool(a.nums_over(b.den * a.den) - b.nums_over(b.den * a.den)))
    # the filter drops every orbit but its smallest point: K_{1,3} against K_{1,2}
    assert_filtered(stars[2], stars[1], orbit_calls)
    assert len(metric._orbit_minima(stars[2].nums_over(6) - stars[1].nums_over(6), 3)) < orbit_calls[0] // 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orbit_filter_matches_reference_on_random_closed_clouds(k, orbit_calls):
    rng = random.Random(4100 + k)
    for _ in range(12):
        a = closed_cloud(rng, k, rng.randrange(1, 6), den=rng.choice((1, 2, 3)))
        b = closed_cloud(rng, k, rng.randrange(1, 6), den=rng.choice((1, 2, 3)))
        assert_filtered(a, b, orbit_calls, filtered=not a.nums_over(6) <= b.nums_over(6))


def test_orbit_filter_with_fixed_points_and_tied_orbit_minima(orbit_calls):
    # every point of A is at distance 1 from B = {0}: the fixed point
    # (1, 1, 1), the orbit {(0, 1, 1), (1, 0, 1)} and {(-1, 0, 0), (0, -1, 0)};
    # the smallest maximizer, (-1, 0, 0), is its orbit's minimum
    a = PointCloud(2, 1, frozenset({(1, 1, 1), (0, 1, 1), (1, 0, 1), (-1, 0, 0), (0, -1, 0)}))
    b = PointCloud(2, 1, frozenset({(0, 0, 0)}))
    assert a.closed_under_relabeling and b.closed_under_relabeling
    assert directed_distance(a, b) == (1, pt(-1, 0, 0))
    assert_filtered(a, b, orbit_calls)
    # k = 3 on a small span: long ties among orbit minima, and many points
    # with equal singletons that some swaps fix
    rng = random.Random(77)
    for _ in range(20):
        rows = [tuple(rng.choice((0, 1, 2)) for _ in range(7)) for _ in range(4)]
        rows += [(x, x, y, x, y, y, z) for x, y, z in [tuple(rng.randrange(3) for _ in range(3))]]
        a = PointCloud(3, 1, frozenset(relabel_closure(rows, 3)))
        b = closed_cloud(rng, 3, 2, span=2)
        assert_filtered(a, b, orbit_calls, filtered=not a.nums <= b.nums)
        assert_filtered(b, a, orbit_calls, filtered=not b.nums <= a.nums)


def test_sampled_and_mixed_pairs_skip_the_orbit_filter(orbit_calls):
    sampled = profile(example51_oracle(5), 3, Mode.PARTITION, Sampled(1, 30))
    exact = profile(example51_oracle(5), 3, Mode.PARTITION, EXACT)
    other = profile(example51_oracle(6), 3, Mode.PARTITION, EXACT)
    assert not sampled.closed_under_relabeling and sampled.nums < exact.nums
    rng = random.Random(5)
    loose = PointCloud(3, 6, frozenset(tuple(rng.randrange(7) for _ in range(7)) for _ in range(40)))
    assert not loose.closed_under_relabeling
    for a, b in ((sampled, other), (other, sampled), (exact, sampled), (sampled, loose),
                 (loose, exact), (exact, loose)):
        assert_filtered(a, b, orbit_calls, filtered=False)
    assert directed_distance(sampled, exact) == (0, _point_list(sampled)[0])


def test_orbit_filter_edge_cases(orbit_calls):
    rng = random.Random(12)
    halves = closed_cloud(rng, 3, 4, den=2)
    thirds = closed_cloud(rng, 3, 4, den=3)
    # different denominators, both ways
    assert_filtered(halves, thirds, orbit_calls)
    assert_filtered(thirds, halves, orbit_calls)
    # one-point clouds: a point with equal singletons and pairs is its whole orbit
    one = PointCloud(3, 2, frozenset({(1, 1, 3, 1, 3, 3, 4)}))
    assert one.closed_under_relabeling
    assert_filtered(one, halves, orbit_calls)
    assert_filtered(halves, one, orbit_calls)
    lopsided = PointCloud(3, 2, frozenset({(1, 0, 3, 0, 3, 3, 4)}))
    assert_filtered(lopsided, halves, orbit_calls, filtered=False)
    # A inside B: distance 0 and A's smallest point, with no search at all
    inner = PointCloud(3, 2, frozenset(relabel_closure([min(halves.nums)], 3)))
    assert_filtered(inner, halves, orbit_calls, filtered=False)
    assert directed_distance(inner, halves) == (0, _point_list(inner)[0])
    # a constant coordinate, as the full set's is for partitions: the index
    # never takes it as its axis
    flat = PointCloud(3, 1, frozenset(row[:6] + (5,) for row in relabel_closure(
        [tuple(rng.randrange(4) for _ in range(7)) for _ in range(5)], 3)))
    assert flat.closed_under_relabeling and flat.search_index[0] != 6
    assert_filtered(flat, closed_cloud(rng, 3, 3, span=3), orbit_calls)
    assert_filtered(closed_cloud(rng, 3, 3, span=3), flat, orbit_calls)


def test_closed_under_relabeling():
    assert profile(example51_oracle(5), 3, Mode.PARTITION, EXACT).closed_under_relabeling
    assert star_profile(2).closed_under_relabeling
    flats = profile(gf_space_oracle(2, 3), 3, Mode.ANY, FLATS)
    assert flats.closed_under_relabeling
    kept = limit_set_filter(flats, 2, 3)
    assert 0 < len(kept) < len(flats) and kept.closed_under_relabeling
    assert not profile(example51_oracle(5), 3, Mode.PARTITION, Sampled(1, 30)).closed_under_relabeling
    # one point whose singletons differ: a swap moves it out of the cloud
    assert not PointCloud(2, 1, frozenset({(1, 2, 3)})).closed_under_relabeling
    assert PointCloud(2, 1, frozenset({(2, 2, 3)})).closed_under_relabeling
    rng = random.Random(3)
    for k in (1, 2, 3, 4):
        for _ in range(10):
            rows = {tuple(rng.randrange(3) for _ in range((1 << k) - 1)) for _ in range(rng.randrange(1, 9))}
            # k = 1 has no swaps: every cloud is closed
            assert PointCloud(k, 1, frozenset(rows)).closed_under_relabeling == (rows == relabel_closure(rows, k))


def test_cauchy_builds_one_search_index_per_cloud(monkeypatch):
    sets = cut_capacity_clouds(1234)
    expected = cauchy_diagnostic([dataclasses.replace(s) for s in sets])
    built, sorts = [], []
    real = PointCloud.__dict__["search_index"].func

    def counted(cloud):
        built.append(cloud)
        return real(cloud)

    index = functools.cached_property(counted)
    index.__set_name__(PointCloud, "search_index")
    monkeypatch.setattr(PointCloud, "search_index", index)

    def counted_sort(rows, **kw):
        rows = sorted(rows, **kw)
        sorts.append(len(rows))
        return rows

    monkeypatch.setattr(metric, "sorted", counted_sort, raising=False)
    fresh = [dataclasses.replace(s) for s in sets]
    assert cauchy_diagnostic(fresh) == expected
    # one index per cloud, where each of the 12 directed distances used to
    # sort both of its clouds; the kernel itself sorts only points of A - B
    assert sorted(map(id, built)) == sorted(map(id, fresh))
    assert sorts and max(sorts) < min(map(len, sets))
    assert cauchy_diagnostic(fresh) == expected and len(built) == len(fresh)
