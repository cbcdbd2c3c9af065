"""Sup-norm distances, Hausdorff reports, convergence diagnostics."""

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
from quotientlab.sequences import example51_oracle, gf_space_oracle


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


def test_cauchy_permutation_covariant():
    sets = [profile(example51_oracle(n), 2, Mode.PARTITION, EXACT) for n in (5, 6, 7)]
    forward = cauchy_diagnostic(sets)
    backward = cauchy_diagnostic(list(reversed(sets)))
    for i in range(3):
        for j in range(3):
            assert forward.pairwise[i][j] == backward.pairwise[2 - i][2 - j]
