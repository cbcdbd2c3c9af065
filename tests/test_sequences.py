"""Bundled family generators."""

from fractions import Fraction

import pytest

from quotientlab import GraphicMatroid, GroundTooLargeError, SimpleGraph, quotient_point, sequences
from quotientlab.sequences import (
    complete_cycle_oracle,
    cutcap_blowup_oracle,
    example51_graph,
    example51_oracle,
    example51_trees,
    gf_space_oracle,
    tau_blowup_oracle,
)


def test_example51_odd_members_are_trees():
    for n in (3, 5, 9, 13):
        g = example51_graph(n)
        assert g.edge_count == n - 1
        assert GraphicMatroid(g).full_rank() == n - 1


def test_example51_even_members_have_two_disjoint_spanning_trees():
    for n in (4, 8, 12):
        g = example51_graph(n)
        assert g.edge_count == 2 * (n - 1)
        matroid = GraphicMatroid(g)
        t1, t2 = example51_trees(n)
        assert t1 & t2 == 0
        assert t1 | t2 == matroid.full_mask
        for tree in (t1, t2):
            assert tree.bit_count() == n - 1
            assert matroid.rank(tree) == n - 1


def test_example51_two_tree_point():
    n = 8
    t1, t2 = example51_trees(n)
    point = quotient_point(example51_oracle(n), [t1, t2])
    assert point.coords == (Fraction(0), Fraction(7, 8), Fraction(7, 8), Fraction(7, 8))


def test_example51_base_cases():
    assert example51_graph(1).node_count == 1
    assert example51_graph(2).edge_count == 1
    with pytest.raises(ValueError):
        example51_graph(0)
    with pytest.raises(ValueError):
        example51_trees(5)


def test_complete_cycle_oracle():
    oracle = complete_cycle_oracle(1)
    assert oracle.evaluate(oracle.full_mask) == 1
    oracle4 = complete_cycle_oracle(4)
    assert oracle4.evaluate(oracle4.full_mask) == 1
    assert oracle4.size == 10


def test_gf_space_oracle():
    oracle = gf_space_oracle(2, 3)
    assert oracle.size == 8
    assert oracle.evaluate(oracle.full_mask) == 1
    oracle3 = gf_space_oracle(3, 2)
    assert oracle3.size == 9
    assert oracle3.evaluate(oracle3.full_mask) == 1


def test_cutcap_blowup_oracle():
    from quotientlab import SimpleGraph

    oracle = cutcap_blowup_oracle(SimpleGraph.complete(2), 2)
    assert oracle.size == 4
    # nodes {0,1} are the twins of one endpoint: every edge crosses
    assert oracle.evaluate(0b0011) == Fraction(1)


def test_tau_blowup_oracle_is_rebased():
    from fractions import Fraction

    from quotientlab import SimpleGraph, hom_density, blow_up

    base_graph = blow_up(SimpleGraph.complete(2), 2)
    oracle = tau_blowup_oracle(SimpleGraph.complete(2), SimpleGraph.complete(2), 2)
    assert oracle.evaluate(0) == 0
    assert oracle.evaluate(oracle.full_mask) == hom_density(SimpleGraph.complete(2), base_graph)


class _Unbuildable:
    """Stands in for a family builder; any use of it fails the test."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("a member above GROUND_SIZE_CAP was built")

    def __getattr__(self, name):
        return self()


@pytest.mark.parametrize("build", [
    lambda: example51_oracle(27),  # odd member: path with 26 edges
    lambda: example51_oracle(14),  # even member: two trees, 26 edges
    lambda: complete_cycle_oracle(7),  # K8: 28 edges
    lambda: gf_space_oracle(2, 5),  # 32 vectors
    lambda: gf_space_oracle(3, 10**6),  # 3^1000000 vectors, never evaluated
    lambda: cutcap_blowup_oracle(SimpleGraph.complete(3), 9),  # 27 nodes
    lambda: tau_blowup_oracle(SimpleGraph.complete(2), SimpleGraph.complete(3), 3),  # 27 edges
    # 4 edges, but 16 target nodes: above HOM_TARGET_NODE_CAP
    lambda: tau_blowup_oracle(SimpleGraph.complete(2), SimpleGraph.make(8, [(0, 1)]), 2),
])
def test_ground_cap_checked_before_building(build, monkeypatch):
    for name in ("example51_graph", "GraphicMatroid", "LinearMatroid", "blow_up"):
        monkeypatch.setattr(sequences, name, _Unbuildable())
    with pytest.raises(GroundTooLargeError):
        build()


@pytest.mark.parametrize("q", [65536, 1000003, 30])  # 2^16, a prime, not a prime power
def test_gf_space_field_size_above_cap_rejected_before_field_work(q, monkeypatch):
    monkeypatch.setattr(sequences, "field", _Unbuildable())
    with pytest.raises(GroundTooLargeError):
        gf_space_oracle(q, 1)


def test_ground_cap_admits_members_at_the_cap():
    assert example51_oracle(25).size == 24
    assert example51_oracle(12).size == 22  # the largest even member
    assert gf_space_oracle(2, 4).size == 16


def test_gf_space_rejects_nonpositive_index():
    with pytest.raises(ValueError, match="family index must be positive"):
        gf_space_oracle(2, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: example51_oracle(0), "family index must be positive"),
    (lambda: example51_oracle(-5), "family index must be positive"),
    (lambda: cutcap_blowup_oracle(SimpleGraph.complete(3), -1), "blow-up factor must be positive"),
], ids=["example51-0", "example51-negative", "cutcap-blowup-negative"])
def test_nonpositive_index_is_named_before_the_ground_check(build, message):
    with pytest.raises(ValueError, match=message):
        build()
