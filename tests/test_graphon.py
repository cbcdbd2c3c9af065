"""Step graphons: cut capacity, motif densities, parsing."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from quotientlab import (
    CutNormalization,
    GroundTooLargeError,
    SimpleGraph,
    GraphFormatError,
    MaskWidthError,
    StepGraphon,
    cut_capacity_oracle,
    graphon_cut_capacity,
    graphon_cut_capacity_oracle,
    hom_density,
    hom_density_step,
    parse_step_graphon,
)
from quotientlab.graphon import format_step_graphon


def test_constant_graphon_cut():
    w = StepGraphon(
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3))),
    )
    assert graphon_cut_capacity(w, 0b00) == 0
    assert graphon_cut_capacity(w, 0b01) == Fraction(1, 4)


def test_graph_representation_matches_twice_edges():
    g = SimpleGraph.complete(2)
    w = StepGraphon.from_graph(g)
    oracle = cut_capacity_oracle(g, CutNormalization.TWICE_EDGES)
    assert graphon_cut_capacity(w, 0b01) == oracle.evaluate(0b01) == Fraction(1, 2)
    c4 = SimpleGraph.cycle(4)
    wc4 = StepGraphon.from_graph(c4)
    oc4 = cut_capacity_oracle(c4, CutNormalization.TWICE_EDGES)
    for mask in range(16):
        assert graphon_cut_capacity(wc4, mask) == oc4.evaluate(mask)


def test_cut_capacity_rejects_masks_wider_than_the_steps():
    w = StepGraphon.from_graph(SimpleGraph.complete(2))
    for mask in (0b101, 0b100, -1):
        with pytest.raises(MaskWidthError):
            graphon_cut_capacity(w, mask)
        with pytest.raises(MaskWidthError):
            graphon_cut_capacity_oracle(w).evaluate(mask)


def test_zero_total_weight_raises():
    w = StepGraphon.from_graph(SimpleGraph.empty(2))
    with pytest.raises(ZeroDivisionError):
        graphon_cut_capacity(w, 0b01)
    from quotientlab.graphon import graphon_cut_capacity_oracle

    with pytest.raises(ZeroDivisionError, match="positive total weight"):
        graphon_cut_capacity_oracle(w)


def test_hom_density_step_constant():
    half = StepGraphon.constant(Fraction(1, 2))
    assert hom_density_step(SimpleGraph.complete(2), half) == Fraction(1, 2)
    assert hom_density_step(SimpleGraph.complete(3), half) == Fraction(1, 8)


def test_hom_density_step_matches_graph():
    for g in (SimpleGraph.complete(3), SimpleGraph.cycle(4), SimpleGraph.path(4)):
        w = StepGraphon.from_graph(g)
        for f in (SimpleGraph.complete(2), SimpleGraph.path(3), SimpleGraph.complete(3)):
            assert hom_density_step(f, w) == hom_density(f, g)


def naive_density_step(pattern, w):
    lens = w.lengths
    total = Fraction(0)
    for phi in itertools.product(range(w.steps), repeat=pattern.node_count):
        term = Fraction(1)
        for s in phi:
            term *= lens[s]
        for u, v in pattern.edges:
            term *= w.values[phi[u]][phi[v]]
        total += term
    return total


def random_step_graphon(rng, r):
    inner = sorted(rng.sample([Fraction(a, 12) for a in range(1, 12)], r - 1))
    breakpoints = (Fraction(0), *inner, Fraction(1))
    palette = [Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 7)]
    values = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            values[i][j] = values[j][i] = rng.choice(palette)
    return StepGraphon(breakpoints, tuple(map(tuple, values)))


def test_hom_density_step_matches_naive_random():
    rng = random.Random(31)
    patterns = [
        SimpleGraph.complete(2),
        SimpleGraph.path(3),
        SimpleGraph.complete(3),
        SimpleGraph.cycle(4),
        SimpleGraph.make(4, [(0, 1), (2, 3)]),  # disconnected: two edges
        SimpleGraph.make(4, [(0, 1), (0, 2), (1, 2)]),  # disconnected: K3 and a node
        SimpleGraph.empty(3),
        SimpleGraph.empty(0),
    ]
    for _ in range(8):
        w = random_step_graphon(rng, rng.randrange(1, 6))
        for f in patterns:
            assert hom_density_step(f, w) == naive_density_step(f, w), (f, w)


def test_hom_density_step_shares_the_target_cap():
    def half(steps):
        return StepGraphon(
            tuple(Fraction(i, steps) for i in range(steps + 1)),
            tuple((Fraction(1, 2),) * steps for _ in range(steps)),
        )

    assert hom_density_step(SimpleGraph.complete(2), half(15)) == Fraction(1, 2)
    with pytest.raises(GroundTooLargeError, match="HOM_TARGET_NODE_CAP=15"):
        hom_density_step(SimpleGraph.complete(2), half(16))


def test_refine_keeps_values():
    w = StepGraphon.from_graph(SimpleGraph.complete(2))
    fine = w.refine([Fraction(1, 4)])
    assert fine.steps == 3
    assert fine.total_weight() == w.total_weight()
    assert hom_density_step(SimpleGraph.complete(2), fine) == hom_density_step(
        SimpleGraph.complete(2), w
    )
    # the first half now splits into two steps; their union is the old first step
    assert graphon_cut_capacity(fine, 0b011) == graphon_cut_capacity(w, 0b01)


def test_refine_reads_each_new_step_from_the_old_step_holding_it():
    rng = random.Random(3)
    bp = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    vals = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            vals[i][j] = vals[j][i] = Fraction(rng.randint(0, 4), 4)
    w = StepGraphon(bp, tuple(map(tuple, vals)))
    fine = w.refine([Fraction(x, 12) for x in (0, 1, 4, 5, 6, 11, 12)])

    def owner(x):
        return next(i for i in range(w.steps) if bp[i] <= x < bp[i + 1])

    owners = [owner(x) for x in fine.breakpoints[:-1]]
    assert fine.steps == 6
    assert fine.values == tuple(tuple(w.values[i][j] for j in owners) for i in owners)


@pytest.mark.parametrize("point", [Fraction(-1, 4), Fraction(5, 4)])
def test_refine_rejects_points_outside_the_unit_interval(point):
    with pytest.raises(ValueError, match=r"refinement points must lie in \[0,1\]"):
        StepGraphon.constant(1).refine([point])


def test_from_graph_needs_a_node():
    with pytest.raises(ValueError, match="needs at least one node"):
        StepGraphon.from_graph(SimpleGraph.empty(0))


def test_parse_format_round_trip():
    w = StepGraphon(
        (Fraction(0), Fraction(1, 3), Fraction(1)),
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1, 2))),
    )
    assert parse_step_graphon(format_step_graphon(w)) == w


def test_parse_rejects_asymmetry():
    bad = "2\n1/2 1\n0 1\n1 0\n"
    # values 0,1 / 1,0 are symmetric; make an asymmetric one
    bad = "2\n1/2 1\n0 1\n1/2 0\n"
    with pytest.raises(Exception):
        parse_step_graphon(bad)


def test_parse_errors_name_the_file_line():
    for text, line in [
        ("# c\n\n1\n1\n1/0\n", 5),  # comments and blank lines count
        ("1\n1\n1/2\n0 0 0\nrubbish\n", 4),  # rows after the r value rows
        ("2\n1/2 1\n0 1\n", 3),  # a value row missing
        ("\n0\n1\n", 2),
        ("1 2\n1\n1/2\n", 1),
        ("-3\n1\n", 1),
        ("1\n# b\n1/3 1\n1/2\n", 3),
    ]:
        with pytest.raises(GraphFormatError) as err:
            parse_step_graphon(text)
        assert err.value.line == line, text


def test_parse_value_errors_name_the_value_row():
    for text, line, message in [
        ("2\n1/2 1\n0 1\n1/2 0\n", 4, "symmetric"),  # checked on the later row
        ("2\n# b\n1/2 1\n\n0 1\n# v\n1/2 0\n", 7, "symmetric"),
        ("2\n1/2 1\n0 2\n1 0\n", 3, "[0,1]"),
        ("2\n1/2 1\n0 1\n1 -1\n", 4, "[0,1]"),
        ("2\n1 1\n0 1\n1 0\n", 2, "increasing"),
        ("1\n1/2\n1\n", 2, "from 0 to 1"),
    ]:
        with pytest.raises(GraphFormatError, match=re.escape(message)) as err:
            parse_step_graphon(text)
        assert err.value.line == line, text


def test_symmetry_validation():
    with pytest.raises(ValueError):
        StepGraphon(
            (Fraction(0), Fraction(1, 2), Fraction(1)),
            ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(0))),
        )


def test_graphon_cut_capacity_oracle_profiles_match_graph():
    from quotientlab import Mode, profile
    from quotientlab.graphon import graphon_cut_capacity_oracle

    g = SimpleGraph.cycle(4)
    w_oracle = graphon_cut_capacity_oracle(StepGraphon.from_graph(g))
    g_oracle = cut_capacity_oracle(g, CutNormalization.TWICE_EDGES)
    for mode in (Mode.PARTITION, Mode.ANY):
        pw = {p.coords for p in profile(w_oracle, 2, mode)}
        pg = {p.coords for p in profile(g_oracle, 2, mode)}
        assert pw == pg


def test_graphon_oracle_numerators_match_cut_capacity():
    from quotientlab.graphon import graphon_cut_capacity_oracle

    rng = random.Random(8)
    for _ in range(10):
        w = random_step_graphon(rng, rng.randrange(1, 6))
        if w.total_weight() == 0:
            continue
        oracle = graphon_cut_capacity_oracle(w)
        for mask in range(1 << w.steps):
            assert type(oracle.numerator(mask)) is int
            assert oracle.evaluate(mask) == graphon_cut_capacity(w, mask)


def test_step_graphon_rejects_a_matrix_that_is_not_square():
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="value matrix must be r x r"):
        StepGraphon((Fraction(0), half, Fraction(1)), ((half, half), (half,)))
    with pytest.raises(ValueError, match="value matrix must be r x r"):
        StepGraphon((Fraction(0), half, Fraction(1)), ((half, half),))
