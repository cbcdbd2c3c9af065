"""Profile enumeration: modes, strategies, composition, filters."""

import collections
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from quotientlab import (
    EXACT,
    FLATS,
    DirectSumMatroid,
    EnumCapError,
    GraphicMatroid,
    GroundTooLargeError,
    KTooLargeError,
    LinearMatroid,
    Mode,
    ProfileSet,
    QuotientPoint,
    Sampled,
    SimpleGraph,
    StrategyError,
    compose,
    delta_approx_bound_check,
    derived_profile,
    limit_set_filter,
    profile,
    quotient_point,
    verify_inclusions,
)
from quotientlab import config
from quotientlab import graphs as graphs_module
from quotientlab import profiles as profiles_module
from quotientlab import setfn as setfn_module
from quotientlab.graphon import StepGraphon, graphon_cut_capacity_oracle
from quotientlab.graphs import blow_up, cut_capacity_oracle, shifted_tau_oracle, tau_oracle
from quotientlab.matroid import Matroid, disjoint_bases
from quotientlab.profiles import (
    Exact,
    _exact_tables,
    _pack,
    _relabel_representatives,
    _sampled_tables,
    _spread,
    _union_options,
)
from quotientlab.sequences import complete_cycle_oracle, example51_oracle, gf_space_oracle
from quotientlab.setfn import Memo, SetFunctionOracle, close_under_relabeling, oracle_from_table, union_table


def coords_set(pset):
    """The points' coordinate tuples, checking on the way that the stored form is canonical.

    The same points over three times the denominator, and the points
    rebuilt from their Fractions over the LCM of the reduced denominators,
    give an equal, equal-hashing profile set.
    """
    tripled = ProfileSet(
        pset.k, 3 * pset.den, frozenset(tuple(3 * x for x in row) for row in pset.nums),
        pset.mode, pset.strategy, pset.source,
    )
    rebuilt = ProfileSet.from_points(
        pset.k, pset.points, mode=pset.mode, strategy=pset.strategy, source=pset.source
    )
    assert tripled == rebuilt == pset and hash(tripled) == hash(rebuilt) == hash(pset)
    return {p.coords for p in pset.points}


def test_k1_partition_profile_is_single_point():
    oracle = gf_space_oracle(2, 2)
    pset = profile(oracle, 1, Mode.PARTITION, EXACT)
    assert coords_set(pset) == {(Fraction(0), Fraction(1))}


def test_gf22_partition_profile_exact():
    pset = profile(gf_space_oracle(2, 2), 2, Mode.PARTITION, EXACT)
    expected = {
        (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1)),
    }
    assert coords_set(pset) == expected


def test_tree_path_points_additive():
    # forest ranks add across any edge bipartition of a tree
    pset = profile(example51_oracle(9), 2, Mode.PARTITION, EXACT)
    assert coords_set(pset) == {
        (Fraction(0), Fraction(j, 9), Fraction(8 - j, 9), Fraction(8, 9)) for j in range(9)
    }


def test_enum_cap_error_reports_iterations():
    oracle = gf_space_oracle(2, 4)
    with pytest.raises(EnumCapError) as err:
        profile(oracle, 2, Mode.ANY, EXACT)
    assert err.value.needed == 4**16


def test_flats_profile_cap_raises_before_any_tuple_is_packed(monkeypatch):
    def no_pack(parts, n):
        raise AssertionError("a tuple was packed")

    monkeypatch.setattr(profiles_module, "_pack", no_pack)
    with pytest.raises(EnumCapError) as err:
        profile(gf_space_oracle(2, 4), 5, Mode.ANY, FLATS)
    assert err.value.needed == 67**5


def test_delta_bound_does_not_hold_without_richness():
    # the triangle's cycle matroid fails the (k=2, m=1) flat-pair condition
    report = delta_approx_bound_check(GraphicMatroid(SimpleGraph.complete(3)), 2, 1)
    assert not report.precondition_met and report.richness_witness is not None
    assert report.bound is None and not report.holds


def test_flats_strategy_needs_matroid():
    from quotientlab.setfn import oracle_from_table

    with pytest.raises(StrategyError):
        profile(oracle_from_table([0, 1, 1, 2]), 2, Mode.ANY, FLATS)


def test_flats_strategy_rejects_partition_mode():
    with pytest.raises(StrategyError):
        profile(gf_space_oracle(2, 2), 2, Mode.PARTITION, FLATS)


@pytest.mark.parametrize("mode", [Mode.ANY, Mode.DISJOINT, Mode.COVERING])
def test_flats_equals_exact_on_matroids(mode):
    oracles = [
        gf_space_oracle(2, 2),
        gf_space_oracle(2, 3),
        GraphicMatroid(SimpleGraph.complete(4)).normalized_rank_oracle(),
        GraphicMatroid(SimpleGraph.cycle(5)).normalized_rank_oracle(),
    ]
    for oracle in oracles:
        exact = profile(oracle, 2, mode, EXACT)
        flats = profile(oracle, 2, mode, FLATS)
        assert coords_set(exact) == coords_set(flats), (oracle.label, mode)


def test_sampled_subset_of_exact():
    oracle = GraphicMatroid(SimpleGraph.complete(4)).normalized_rank_oracle()
    for mode in Mode:
        exact = profile(oracle, 2, mode, EXACT)
        sampled = profile(oracle, 2, mode, Sampled(seed=42, samples=200))
        assert sampled.points <= exact.points


def test_sampled_is_seed_deterministic():
    oracle = gf_space_oracle(2, 3)
    a = profile(oracle, 2, Mode.PARTITION, Sampled(seed=7, samples=100))
    b = profile(oracle, 2, Mode.PARTITION, Sampled(seed=7, samples=100))
    assert a.points == b.points


def test_derived_profile_trivial_cases():
    zero = QuotientPoint(2, (Fraction(0),) * 4)
    derived = derived_profile(zero, 2, Mode.ANY)
    assert coords_set(derived) == {(Fraction(0),) * 4}
    point = QuotientPoint(2, (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
    contains = derived_profile(point, 2, Mode.PARTITION)
    assert point.coords in coords_set(contains)


def test_derived_profile_rejects_ground_above_cap():
    point = QuotientPoint(9, (Fraction(0),) * (1 << 9))
    with pytest.raises(KTooLargeError):
        derived_profile(point, 2, Mode.ANY)


def test_derived_profile_matches_direct_composition():
    oracle = GraphicMatroid(SimpleGraph.complete(3)).normalized_rank_oracle()
    inner = quotient_point(oracle, [0b001, 0b110])
    derived = derived_profile(inner, 2, Mode.ANY)
    # brute force: all pairs of subsets of the two parts
    expected = set()
    parts = [0b001, 0b110]
    for s1 in range(4):
        for s2 in range(4):
            merged = []
            for sel in (s1, s2):
                m = 0
                for i in range(2):
                    if sel >> i & 1:
                        m |= parts[i]
                merged.append(m)
            expected.add(quotient_point(oracle, merged).coords)
    assert coords_set(derived) == expected


def test_composition_identities_k4_and_gf22():
    oracles = [
        GraphicMatroid(SimpleGraph.complete(4)).normalized_rank_oracle(),
        gf_space_oracle(2, 2),
    ]
    for oracle in oracles:
        base = coords_set(profile(oracle, 2, Mode.ANY, EXACT))
        any3 = profile(oracle, 3, Mode.ANY, EXACT)
        assert coords_set(compose(any3, 2, Mode.PARTITION)) == base
        assert coords_set(compose(any3, 2, Mode.ANY)) == base
        partition4 = profile(oracle, 4, Mode.PARTITION, EXACT)
        assert coords_set(compose(partition4, 2, Mode.ANY)) == base


def test_composition_trivial_k1():
    oracle = gf_space_oracle(2, 2)
    base = coords_set(profile(oracle, 1, Mode.ANY, EXACT))
    assert coords_set(compose(profile(oracle, 1, Mode.ANY, EXACT), 1, Mode.ANY)) == base


def test_inclusion_chains_hold():
    oracles = [
        GraphicMatroid(SimpleGraph.complete(4)).normalized_rank_oracle(),
        gf_space_oracle(2, 3),
    ]
    for oracle in oracles:
        report = verify_inclusions(oracle, 2)
        assert report.all_hold
    report = verify_inclusions(gf_space_oracle(2, 2), 1)
    assert report.all_hold


def test_inclusion_report_names_a_point_missing_from_the_larger_profile(monkeypatch):
    real = profiles_module.profile
    oracle = gf_space_oracle(2, 2)
    dropped = min(real(oracle, 2, Mode.PARTITION, EXACT).nums_over(oracle.den))
    witness = QuotientPoint.over(2, oracle.den, dropped)

    def without_witness(oracle, k, mode, strategy=EXACT):
        pset = real(oracle, k, mode, strategy)
        if mode is not Mode.DISJOINT:
            return pset
        assert witness in pset.points
        return ProfileSet.from_points(k, (p for p in pset if p != witness), mode=mode,
                                      strategy=pset.strategy, source=pset.source)

    monkeypatch.setattr(profiles_module, "profile", without_witness)
    report = verify_inclusions(oracle, 2)
    assert not report.all_hold and report.witness == witness
    assert report.chains == (
        ("partition⊆disjoint", False),
        ("disjoint⊆any", True),
        ("partition⊆covering", True),
        ("covering⊆any", True),
    )


def test_zero_point_in_any_but_not_partition():
    oracle = gf_space_oracle(2, 2)
    zero = QuotientPoint(2, (Fraction(0),) * 4)
    assert zero in profile(oracle, 2, Mode.ANY, EXACT).points
    assert zero not in profile(oracle, 2, Mode.PARTITION, EXACT).points


def test_quotient_of_quotient_closure():
    # partition profiles of a partition point stay inside the original profile
    oracle = gf_space_oracle(2, 2)
    q3 = profile(oracle, 3, Mode.PARTITION, EXACT)
    q2 = profile(oracle, 2, Mode.PARTITION, EXACT)
    for point in q3:
        inner = derived_profile(point, 2, Mode.PARTITION)
        assert inner.points <= q2.points


def test_delta_bound_report_gf23_vacuous_bound():
    report = delta_approx_bound_check(LinearMatroid.full_space(2, 3), 2, 4)
    assert report.precondition_met
    assert report.bound == Fraction(8, 3)
    assert report.holds


def test_delta_bound_precondition_not_met():
    report = delta_approx_bound_check(GraphicMatroid(SimpleGraph.complete(3)), 2, 1)
    assert not report.precondition_met
    assert report.bound is None
    assert report.richness_witness is not None


def test_limit_filter_k1():
    pset = profile(gf_space_oracle(2, 2), 1, Mode.PARTITION, EXACT)
    kept = limit_set_filter(pset, 2, 2, at_limit=True)
    assert all(p.coords[1] >= 1 for p in kept)
    assert len(kept) == len([p for p in pset if p.coords[1] >= 1])


def test_limit_filter_thresholds():
    for n in (2, 3):
        pset = profile(gf_space_oracle(2, n), 2, Mode.PARTITION, EXACT)
        kept = limit_set_filter(pset, 2, n)
        assert len(kept) == len(pset)
        threshold = 1 - Fraction(1, n)
        assert all(p.max_singleton() >= threshold for p in pset)


def test_limit_filter_drops_small_any_points():
    pset = profile(gf_space_oracle(2, 2), 2, Mode.ANY, EXACT)
    kept = limit_set_filter(pset, 2, 2)
    assert len(kept) < len(pset)
    assert all(p.max_singleton() >= Fraction(1, 2) for p in kept)


def test_modes_choice_tables():
    assert Mode.PARTITION.element_choices(2) == (1, 2)
    assert Mode.DISJOINT.element_choices(2) == (0, 1, 2)
    assert Mode.COVERING.element_choices(2) == (1, 2, 3)
    assert Mode.ANY.element_choices(2) == (0, 1, 2, 3)


def test_profile_set_sorted_points_deterministic():
    pset = profile(gf_space_oracle(2, 2), 2, Mode.ANY, EXACT)
    listed = pset.sorted_points()
    assert listed == sorted(listed, key=lambda p: p.coords)
    assert len(listed) == 10


def test_profiles_build_no_fraction_until_points_are_read(monkeypatch):
    cases = [
        (cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 2)), EXACT),
        (complete_cycle_oracle(3), Sampled(3, 50)),
        (gf_space_oracle(2, 3), FLATS),
    ]
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: built.append(a) or real(cls, *a, **kw))
    psets = [profile(oracle, 2, Mode.DISJOINT, strategy) for oracle, strategy in cases]
    assert built == []
    for pset in psets:
        assert len(pset.points) == len(pset) and built
        built.clear()


def test_direct_sum_of_lines_tuple_profile_inside_plane():
    # the two blocks embed into the product space once the zeros are
    # identified; that carries tuple profiles (flats map to flats with
    # equal rank) but not partition profiles, where the identified zero
    # and the uncovered vectors break the partition structure
    from quotientlab import DirectSumMatroid

    line = LinearMatroid.full_space(2, 1)
    sum_oracle = DirectSumMatroid([line, line]).normalized_rank_oracle()
    plane_oracle = gf_space_oracle(2, 2)
    small = coords_set(profile(sum_oracle, 2, Mode.ANY, EXACT))
    large = coords_set(profile(plane_oracle, 2, Mode.ANY, EXACT))
    assert small <= large
    part_small = coords_set(profile(sum_oracle, 2, Mode.PARTITION, EXACT))
    part_large = coords_set(profile(plane_oracle, 2, Mode.PARTITION, EXACT))
    assert (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)) in part_small - part_large


# Differential tests of the orbit enumeration against plain labeled
# enumeration; the reference scans at most this many assignments per case.
REFERENCE_BUDGET = 4096


def reference_profile(oracle, k, mode):
    """Every labeled assignment of a choice to every element, evaluated directly."""
    points = set()
    for assign in itertools.product(mode.element_choices(k), repeat=oracle.size):
        parts = [0] * k
        for e, pm in enumerate(assign):
            for i in range(k):
                if pm >> i & 1:
                    parts[i] |= 1 << e
        points.add(quotient_point(oracle, parts).coords)
    return points


TRUE_TWINS = SimpleGraph.make(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], name="true-twins")

TWIN_GRAPHS = {
    **{f"K2({t})": blow_up(SimpleGraph.complete(2), t) for t in (1, 2, 3)},
    **{f"K3({t})": blow_up(SimpleGraph.complete(3), t) for t in (1, 2)},
    **{f"P3({t})": blow_up(SimpleGraph.path(3), t) for t in (1, 2)},
    "true-twins": TRUE_TWINS,
}


def _random_table_oracle():
    rng = Random(5)
    return oracle_from_table([0] + [Fraction(rng.randint(0, 6), 3) for _ in range(15)])


NO_TWIN_ORACLES = {
    "ex51(3)": lambda: example51_oracle(3),
    "ex51(4)": lambda: example51_oracle(4),
    "cycle:K4": lambda: complete_cycle_oracle(3),
    "gf(2)^2": lambda: gf_space_oracle(2, 2),
    "gf(3)^2": lambda: gf_space_oracle(3, 2),
    "table": _random_table_oracle,
}


def _compare_with_reference(oracle):
    compared = 0
    for k in (1, 2, 3):
        for mode in Mode:
            if len(mode.element_choices(k)) ** oracle.size > REFERENCE_BUDGET:
                continue
            assert coords_set(profile(oracle, k, mode, EXACT)) == reference_profile(
                oracle, k, mode
            ), (oracle.label, k, mode)
            compared += 1
    return compared


@pytest.mark.parametrize("name", sorted(TWIN_GRAPHS))
def test_orbit_enumeration_matches_labeled_on_twin_graphs(name):
    oracle = cut_capacity_oracle(TWIN_GRAPHS[name])
    assert len(oracle.twins) < oracle.size
    assert _compare_with_reference(oracle) >= 8


@pytest.mark.parametrize("name", sorted(NO_TWIN_ORACLES))
def test_exact_matches_labeled_without_twins(name):
    oracle = NO_TWIN_ORACLES[name]()
    assert oracle.twins == ()
    assert _compare_with_reference(oracle) >= 5


@pytest.mark.parametrize("name", sorted(TWIN_GRAPHS))
def test_declared_twins_are_swap_invariant(name):
    g = TWIN_GRAPHS[name]
    oracle = cut_capacity_oracle(g)
    assert sorted(e for cls in oracle.twins for e in cls) == list(range(g.node_count))
    for cls in oracle.twins:
        for u, v in itertools.combinations(cls, 2):
            pair = 1 << u | 1 << v
            for x in range(1 << g.node_count):
                swapped = x & ~pair | (x >> u & 1) << v | (x >> v & 1) << u
                assert oracle.evaluate(x) == oracle.evaluate(swapped), (name, u, v, x)


def test_blowup_classes_are_twin_classes():
    for base in (SimpleGraph.complete(3), SimpleGraph.path(3), SimpleGraph.cycle(4)):
        for t in (2, 3):
            twins = cut_capacity_oracle(blow_up(base, t)).twins
            class_of = {e: i for i, cls in enumerate(twins) for e in cls}
            for node in range(base.node_count * t):
                assert class_of[node] == class_of[node - node % t]
    # true twins are found too; node 2 and the path 2-3-4 have no twin
    assert cut_capacity_oracle(TRUE_TWINS).twins == ((0, 1), (2,), (3,), (4,))


def test_twins_must_partition_the_ground():
    with pytest.raises(ValueError):
        SetFunctionOracle(3, lambda m: 0, twins=((0, 1),))


def _forbid_dense_tables(monkeypatch):
    def refuse(oracle):
        raise AssertionError(f"dense table built for {oracle.label}")

    monkeypatch.setattr(SetFunctionOracle, "numerator_table", refuse)


def _pin_rule(monkeypatch, dense):
    """Make every profile read the dense table (True) or the lazy memo (False), whatever the cost rule says."""
    monkeypatch.setattr(profiles_module, "_reads_table", lambda oracle, lookups: dense)


def _rule_reads_table(oracle, lookups):
    """The cost rule, restated: the table when its 2^n entries cost at most `lookups` misses."""
    return lookups * oracle.entries_per_miss >= 1 << oracle.size


def _count_dense_tables(monkeypatch):
    built = []
    real = SetFunctionOracle.numerator_table

    def spy(oracle):
        built.append(oracle.label)
        return real(oracle)

    monkeypatch.setattr(SetFunctionOracle, "numerator_table", spy)
    return built


def test_orbit_count_above_cap_raises_before_any_evaluation(monkeypatch):
    _forbid_dense_tables(monkeypatch)
    oracle = cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 8))
    with pytest.raises(EnumCapError) as err:
        profile(oracle, 3, Mode.ANY, EXACT)
    assert err.value.needed == math.comb(8 + 7, 7) ** 3
    assert oracle._memo == {0: 0}


def test_sample_count_above_cap_raises_before_any_evaluation(monkeypatch):
    from quotientlab import config

    monkeypatch.setattr(config, "ENUM_ITERATION_CAP", 100)
    # at the cap the profile runs, and reads C5's 32-entry table
    assert len(profile(cut_capacity_oracle(SimpleGraph.cycle(5)), 2, Mode.ANY, Sampled(1, 100)))
    _forbid_dense_tables(monkeypatch)
    oracle = cut_capacity_oracle(SimpleGraph.cycle(5))
    with pytest.raises(EnumCapError) as err:
        profile(oracle, 2, Mode.ANY, Sampled(1, 101))
    assert err.value.needed == 101
    assert oracle._memo == {0: 0}


def test_rank_oracle_is_the_only_memo_of_its_values(monkeypatch):
    built = _count_dense_tables(monkeypatch)
    oracle = example51_oracle(6)
    matroid = oracle.matroid
    assert oracle._memo is matroid.rank_memo
    before = dict(matroid.rank_memo)
    profile(oracle, 2, Mode.PARTITION)
    assert oracle.size == 10
    # the exact profile reads a fresh rank table and memoizes nothing
    assert built == [oracle.label]
    assert matroid.rank_memo == before
    # 55 tables of 3 lookups against 1,024 masks: the sampled profile reads a table too
    profile(oracle, 2, Mode.PARTITION, Sampled(3, 50))
    assert built == [oracle.label] * 2
    assert matroid.rank_memo == before
    # against 2^22 masks the same samples read the memo, which is the rank memo
    oracle = example51_oracle(12)
    matroid = oracle.matroid
    before = dict(matroid.rank_memo)
    profile(oracle, 2, Mode.PARTITION, Sampled(3, 50))
    assert built == [example51_oracle(6).label] * 2
    assert len(matroid.rank_memo) > len(before)
    assert all(type(v) is int and v == matroid._rank(key) for key, v in matroid.rank_memo.items())


def test_cost_rule_picks_the_dense_table_or_the_lazy_memo(monkeypatch):
    built = _count_dense_tables(monkeypatch)

    def reads_table(oracle, k, mode, strategy):
        before = len(built)
        assert len(profile(oracle, k, mode, strategy))
        return len(built) > before

    k7 = complete_cycle_oracle(6)
    assert k7.size == 21 and k7.entries_per_miss == Matroid.TABLE_ENTRIES_PER_MISS
    # sparse-search's sampled op: 20,006 tables of 7 lookups, 15 table entries each
    assert reads_table(k7, 3, Mode.PARTITION, Sampled(3, 20_000))
    # 120 entries per lookup on a 24-edge path, 350 on K7 at k = 2
    assert not reads_table(example51_oracle(25), 3, Mode.PARTITION, Sampled(3, 20_000))
    assert not reads_table(complete_cycle_oracle(6), 2, Mode.ANY, Sampled(3, 2_000))
    # flats: gf(2)^4's 2,278 nondecreasing pairs of 3 lookups, against 2^16 masks
    assert reads_table(gf_space_oracle(2, 4), 2, Mode.DISJOINT, FLATS)
    # the other builders: a cut table is cheaper per entry than a miss, a per-mask
    # kernel is not, which is the exact rule before the cost rule
    assert cut_capacity_oracle(SimpleGraph.cycle(5)).entries_per_miss == graphs_module.CUT_TABLE_ENTRIES_PER_MISS
    assert _random_table_oracle().entries_per_miss == setfn_module.DENSE_ENTRIES_PER_MISS == 1
    assert reads_table(cut_capacity_oracle(SimpleGraph.cycle(5)), 2, Mode.ANY, Sampled(3, 100))
    assert not reads_table(cut_capacity_oracle(LAZY_TWIN_BLOWUP), 2, Mode.ANY, Sampled(3, 100))
    # K_{9,9}'s 193,600 exact ANY lookups against 2^18 masks read the memo only at a
    # cut constant under 1.35
    k99 = cut_capacity_oracle(blow_up(SimpleGraph.complete(2), 9))
    assert _orbits(k99, 2, Mode.ANY) << 2 == 193_600
    assert reads_table(k99, 2, Mode.ANY, EXACT)
    # the bench's exact ops read the table, as they did under orbits * 2^k >= 2^n
    rng = Random(5)
    exact_ops = [
        (example51_oracle(10), 2, Mode.PARTITION),  # enum-rank
        (cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 4)), 3, Mode.PARTITION),  # enum-blowup
    ] + [  # converge-cut's members: 8-node, 12-edge graphs
        (cut_capacity_oracle(SimpleGraph.make(8, rng.sample(list(itertools.combinations(range(8), 2)), 12)),
                             "nodes-squared"), 3, Mode.PARTITION)
        for _ in range(4)
    ]
    for oracle, k, mode in exact_ops:
        assert _orbits(oracle, k, mode) << k >= 1 << oracle.size
        assert reads_table(oracle, k, mode, EXACT), oracle.label


# The labeled enumeration profile() ran before the blocked scan: one list
# of k part masks per orbit of the twin swaps, unpacked from a sum of
# per-class options whose bit i*n + e means "element e lies in part i".


def _members(k, mode):
    return [tuple(i for i in range(k) if pm >> i & 1) for pm in mode.element_choices(k)]


def _class_options(cls, members, n):
    options = []
    for combo in itertools.combinations_with_replacement(range(len(members)), len(cls)):
        packed = 0
        for e, c in zip(cls, combo):
            for i in members[c]:
                packed |= 1 << (i * n + e)
        options.append(packed)
    return options


def plain_exact_parts(oracle, k, mode):
    n = oracle.size
    members = _members(k, mode)
    classes = oracle.twins or tuple((e,) for e in range(n))
    total = 1
    for cls in classes:
        total *= math.comb(len(cls) + len(members) - 1, len(members) - 1)
    if total > config.ENUM_ITERATION_CAP:
        raise EnumCapError(
            "ENUM_ITERATION_CAP", config.ENUM_ITERATION_CAP, total,
            f"exact profile (n={n}, k={k}, mode={mode.value})",
        )
    full = oracle.full_mask
    shifts = [i * n for i in range(k)]
    combos = itertools.product(*[_class_options(cls, members, n) for cls in classes])
    return total, ([packed >> s & full for s in shifts] for packed in map(sum, combos))


# The flat tuples _flat_tables streamed before DISJOINT feasibility moved into
# the scan: COVERING and DISJOINT filtered every k-tuple of flats before
# packing it, DISJOINT through one memoized `disjoint_bases` call per sorted
# tuple.


def filtered_flat_tables(oracle, k, mode):
    matroid = oracle.matroid
    tuples = itertools.product(matroid.flats(), repeat=k)
    if mode is Mode.COVERING:
        tuples = (tup for tup in tuples if functools.reduce(int.__or__, tup) == matroid.full_mask)
    elif mode is Mode.DISJOINT:
        feasible = Memo(lambda key: disjoint_bases(matroid, key).bases is not None)
        tuples = (tup for tup in tuples if feasible[tuple(sorted(tup))])
    return (_pack(tup, matroid.size) for tup in tuples)


# The Fraction dedup profile() ran before values moved to int numerators:
# every union of every tuple evaluated as a Fraction through the public
# oracle, and the coordinate tuples deduplicated as Fractions.  Sampled
# draws and flat tuples arrive as packed union tables (bit I*n + e:
# element e lies in U_I).


def fraction_reference(oracle, k, mode, strategy=EXACT):
    ev = oracle.evaluate
    if isinstance(strategy, Exact):
        _, tuples = plain_exact_parts(oracle, k, mode)
        return {tuple(ev(u) for u in union_table(parts)) for parts in tuples}
    n, full = oracle.size, oracle.full_mask
    if isinstance(strategy, Sampled):
        tables = _sampled_tables(oracle, k, mode, strategy.seed, strategy.samples)
    else:
        tables = filtered_flat_tables(oracle, k, mode)
    return {tuple(ev(t >> i * n & full) for i in range(1 << k)) for t in tables}


# K2 blown up unevenly, to a centre and 17 twin leaves: the orbits are few
# enough against 2^18 masks in every mode at k = 2 that the exact profile
# reads the lazy memo (K_{9,9}'s read the table)
LAZY_TWIN_BLOWUP = SimpleGraph.complete_bipartite(1, 17)

DENSE_ORACLES = {
    "ex51(5)": lambda: example51_oracle(5),
    "cycle:K4": lambda: complete_cycle_oracle(3),
    "gf(3)^2": lambda: gf_space_oracle(3, 2),
    "cut:P5": lambda: cut_capacity_oracle(SimpleGraph.path(5), "nodes-squared"),
    "tau:P3 in C4": lambda: shifted_tau_oracle(SimpleGraph.path(3), SimpleGraph.cycle(4)),
    "table": _random_table_oracle,
}


@pytest.mark.parametrize("mode", list(Mode))
def test_profile_matches_fraction_reference_on_lazy_twin_blowup(mode, monkeypatch):
    _forbid_dense_tables(monkeypatch)
    oracle = cut_capacity_oracle(LAZY_TWIN_BLOWUP)
    assert len(oracle.twins) == 2
    assert coords_set(profile(oracle, 2, mode, EXACT)) == fraction_reference(oracle, 2, mode)


@pytest.mark.parametrize("name", sorted(DENSE_ORACLES))
def test_profile_matches_fraction_reference_on_dense_tables(name, monkeypatch):
    built = _count_dense_tables(monkeypatch)
    oracle = DENSE_ORACLES[name]()
    assert len(oracle.twins) in (0, oracle.size)
    compared = 0
    for k in (2, 3):
        for mode in Mode:
            if len(mode.element_choices(k)) ** oracle.size > 20_000:
                continue
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == fraction_reference(oracle, k, mode), (name, k, mode)
            compared += 1
            assert len(built) == compared
    assert compared >= 4


# A dense array table is read as view[u_I:][c_I] = T[u_I | c_I] for an outer union
# u_I and the inner unions c_I, which holds because the outer and inner tables use
# disjoint elements, whatever the twin classes: K3(2)'s classes are contiguous and
# C4's, (0, 2) and (1, 3), interleave.  Numerators beyond 64 bits come in a list,
# which the scan maps its lookup over instead.


def _wide_oracle():
    rng = Random(9)
    values = [0] + [rng.randint(0, 5) << 64 | rng.randint(0, 3) for _ in range(15)]
    return SetFunctionOracle(4, values.__getitem__, den=3, label="wide")


GATHER_ORACLES = {
    "K3(2)": lambda: cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 2)),
    "C4": lambda: cut_capacity_oracle(SimpleGraph.cycle(4)),
    "wide": _wide_oracle,
}


@pytest.mark.parametrize("name", sorted(GATHER_ORACLES))
def test_dense_gather_matches_fraction_reference(name, monkeypatch):
    built = _count_dense_tables(monkeypatch)
    oracle = GATHER_ORACLES[name]()
    assert oracle.twins == () if name == "wide" else 1 < len(oracle.twins) < oracle.size
    dense = 0
    for k in (1, 2, 3):
        for mode in Mode:
            before = len(built)
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == fraction_reference(oracle, k, mode), (name, k, mode)
            assert (len(built) > before) == _rule_reads_table(oracle, _orbits(oracle, k, mode) << k)
            dense += len(built) > before
    assert dense >= 8


def test_wide_numerators_come_in_a_list():
    oracle = _wide_oracle()
    assert oracle.numerator(0b1111) >= 1 << 63
    assert type(oracle.numerator_table()) is list


# Every oracle carries its own table builder: a cut oracle doubles over its
# nodes (`graphs.cut_table`), a rank oracle walks `Matroid.rank_table`, and
# every other oracle calls its kernel once per mask (`dense_numerators`).
# A builder is bound when the oracle is built, so the spies go in first.


def _spy(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _refuse(monkeypatch, owner, name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, refuse)


def test_exact_cut_profile_builds_its_table_by_doubling(monkeypatch):
    built = _count_dense_tables(monkeypatch)
    _refuse(monkeypatch, setfn_module, "dense_numerators")
    doubled = _spy(monkeypatch, graphs_module, "cut_table")
    counted = _spy(monkeypatch, graphs_module, "cut_count")
    g = blow_up(SimpleGraph.complete(3), 2)
    oracle = cut_capacity_oracle(g)
    assert _orbits(oracle, 2, Mode.PARTITION) << 2 >= 1 << oracle.size
    got = coords_set(profile(oracle, 2, Mode.PARTITION, EXACT))
    # the constructor's num(0) is the only per-mask cut count
    assert (built, doubled, counted) == ([oracle.label], [(g,)], [(g, 0)])
    assert got == fraction_reference(oracle, 2, Mode.PARTITION)


def test_rank_oracles_build_rank_tables(monkeypatch):
    _refuse(monkeypatch, setfn_module, "dense_numerators")
    walked = _spy(monkeypatch, Matroid, "rank_table")
    oracles = [example51_oracle(4), complete_cycle_oracle(3), gf_space_oracle(2, 2)]
    for oracle in oracles:
        before = len(walked)
        table = oracle.numerator_table()
        assert walked[before:] == [(oracle.matroid,)]
        assert list(table) == [oracle.numerator(m) for m in range(1 << oracle.size)]
    assert coords_set(profile(oracles[0], 2, Mode.PARTITION)) == fraction_reference(oracles[0], 2, Mode.PARTITION)
    assert len(walked) == len(oracles) + 1


def test_other_oracles_call_their_kernel_per_mask(monkeypatch):
    per_mask = _spy(monkeypatch, setfn_module, "dense_numerators")
    _refuse(monkeypatch, graphs_module, "cut_table")
    _refuse(monkeypatch, Matroid, "rank_table")
    p3, c4 = SimpleGraph.path(3), SimpleGraph.cycle(4)
    oracles = [
        _random_table_oracle(),
        graphon_cut_capacity_oracle(StepGraphon.from_graph(c4)),
        tau_oracle(p3, c4),
        shifted_tau_oracle(p3, c4),
        _wide_oracle(),
    ]
    for oracle in oracles:
        before = len(per_mask)
        table = oracle.numerator_table()
        assert len(per_mask) == before + 1 and per_mask[-1][1] == oracle.size
        assert list(table) == [oracle.numerator(m) for m in range(1 << oracle.size)]
    assert type(table) is list  # the wide oracle's numerators exceed 64 bits
    for oracle in (oracles[0], oracles[-1]):
        assert coords_set(profile(oracle, 2, Mode.ANY)) == fraction_reference(oracle, 2, Mode.ANY)


def test_dense_gather_when_the_last_block_holds_one_table(monkeypatch):
    built = _count_dense_tables(monkeypatch)
    # K_{2,3}'s classes (0, 1) and (2, 3, 4): k = 2 partitions have 3 outer tables
    # and 4 inner ones in blocks of isqrt(12) = 3; U(2, 4)'s one class has no outer
    # table and 5 inner ones in blocks of 2
    for oracle, shape in (
        (cut_capacity_oracle(SimpleGraph.complete_bipartite(2, 3)), (3, 4, 3)),
        (_one_class_oracle(4), (1, 5, 2)),
    ):
        outer, inner, count, relabel = _exact_tables(oracle, 2, Mode.PARTITION)
        assert (len(outer), len(list(inner)), math.isqrt(count)) == shape
        assert not relabel  # neither oracle has a singleton twin class
        before = len(built)
        got = coords_set(profile(oracle, 2, Mode.PARTITION, EXACT))
        assert len(built) == before + 1
        assert got == fraction_reference(oracle, 2, Mode.PARTITION)


@pytest.mark.parametrize("name", ["ex51(5)", "table", "wide"])
def test_dense_profiles_never_call_the_lookup(name):
    oracle = {**DENSE_ORACLES, **GATHER_ORACLES}[name]()
    calls = []
    real = oracle.lookup
    oracle.lookup = lambda mask: calls.append(mask) or real(mask)
    for k in (2, 3):
        for mode in Mode:
            profile(oracle, k, mode, EXACT)
    assert calls == []
    # k = 1 partitions have one orbit, so they read the lookup unless two misses cost a table
    profile(oracle, 1, Mode.PARTITION, EXACT)
    assert bool(calls) != _rule_reads_table(oracle, 2)


@pytest.mark.parametrize("mode", list(Mode))
def test_sampled_and_flats_match_fraction_reference(mode):
    oracles = [complete_cycle_oracle(3), cut_capacity_oracle(LAZY_TWIN_BLOWUP)]
    for oracle in oracles:
        strategy = Sampled(7, 300)
        got = coords_set(profile(oracle, 2, mode, strategy))
        assert got == fraction_reference(oracle, 2, mode, strategy)
    if mode is not Mode.PARTITION:
        oracle = gf_space_oracle(2, 3)
        assert coords_set(profile(oracle, 2, mode, FLATS)) == fraction_reference(
            oracle, 2, mode, FLATS
        )


# Differential tests of the blocked scan against plain_exact_parts.  Each
# case checks that profile() read a dense table exactly when the cost rule
# says so, then runs again with the rule pinned to the other side, so both
# lookup paths are seen with and without twins.


def _popcount(mask):
    return bin(mask).count("1")


def _one_class_oracle(n):
    """Rank of the uniform matroid U(2, n): every element is a twin of every other."""
    return SetFunctionOracle(n, lambda m: min(_popcount(m), 2), label="U(2,n)", twins=(tuple(range(n)),))


def _big_class_plus_one_oracle():
    """Element 0 alone, elements 1..6 one twin class; not submodular, which profiles ignore."""
    rest = 0b1111110

    def num(m):
        inside = _popcount(m & rest)
        return inside * 3 % 5 + (m & 1) * inside

    return SetFunctionOracle(7, num, label="big-class", twins=((0,), tuple(range(1, 7))))


def _twin_table_oracle():
    """Random values of how many of {0, 1}, of {2, 3} and of {4} a set holds; 4 is the one singleton."""
    rng = Random(31)
    value = {(a, b, c): rng.randint(0, 9) for a in range(3) for b in range(3) for c in range(2)}
    value[0, 0, 0] = 0

    def num(m):
        return value[_popcount(m & 0b11), _popcount(m & 0b1100), m >> 4]

    return SetFunctionOracle(5, num, den=3, label="twin-table", twins=((0, 1), (2, 3), (4,)))


DIFFERENTIAL_ORACLES = {
    "K2(4)": lambda: cut_capacity_oracle(blow_up(SimpleGraph.complete(2), 4)),
    "K3(2)": lambda: cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 2)),
    "true-twins": lambda: cut_capacity_oracle(TRUE_TWINS),
    "ex51(4)": lambda: example51_oracle(4),
    "gf(2)^2": lambda: gf_space_oracle(2, 2),
    "table": _random_table_oracle,
    "twin-table": _twin_table_oracle,
    "big-class": _big_class_plus_one_oracle,
}


def _orbits(oracle, k, mode):
    c = len(mode.element_choices(k))
    classes = oracle.twins or tuple((e,) for e in range(oracle.size))
    return math.prod(math.comb(len(cls) + c - 1, len(cls)) for cls in classes)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_ORACLES))
def test_blocked_scan_matches_plain_enumeration(name, monkeypatch):
    built = _count_dense_tables(monkeypatch)
    oracle = DIFFERENTIAL_ORACLES[name]()
    for k in (1, 2, 3):
        for mode in Mode:
            if _orbits(oracle, k, mode) > 5000:
                continue
            expected = fraction_reference(oracle, k, mode)
            before = len(built)
            assert coords_set(profile(oracle, k, mode, EXACT)) == expected, (name, k, mode)
            dense = len(built) > before
            assert dense == _rule_reads_table(oracle, _orbits(oracle, k, mode) << k), (name, k, mode)
            with monkeypatch.context() as m:
                _pin_rule(m, not dense)
                assert coords_set(profile(oracle, k, mode, EXACT)) == expected, (name, k, mode, not dense)
            assert len(built) == before + 1


def test_blocked_scan_on_the_empty_ground(monkeypatch):
    built = _count_dense_tables(monkeypatch)
    oracle = SetFunctionOracle(0, lambda m: 0, label="empty")
    for k in range(1, config.QUOTIENT_K_CAP + 1):
        for mode in Mode:
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == {(Fraction(0),) * (1 << k)} == fraction_reference(oracle, k, mode)
    # one orbit, so every profile gathers from a one-table block of the dense table
    assert len(built) == config.QUOTIENT_K_CAP * len(Mode)


def test_blocked_scan_up_to_the_k_cap_on_one_element(monkeypatch):
    built = _count_dense_tables(monkeypatch)
    oracle = oracle_from_table([0, Fraction(2, 3)])
    for k in range(1, config.QUOTIENT_K_CAP + 1):
        for mode in Mode:
            assert len(built) == (k - 1) * len(Mode) + list(Mode).index(mode)
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == fraction_reference(oracle, k, mode), (k, mode)
            assert len(got) == {Mode.PARTITION: k, Mode.DISJOINT: k + 1}.get(
                mode, (1 << k) - (mode is Mode.COVERING)
            )


def test_blocked_scan_on_one_oversized_twin_class():
    oracle = _one_class_oracle(10)
    # 19,448 multisets in the one class, far more than isqrt(19,448) = 139
    assert _orbits(oracle, 3, Mode.ANY) == 19_448
    for k, mode in ((3, Mode.ANY), (3, Mode.COVERING), (2, Mode.DISJOINT)):
        got = coords_set(profile(oracle, k, mode, EXACT))
        assert got == fraction_reference(oracle, k, mode), (k, mode)


def test_blocked_scan_with_an_outer_class_and_an_oversized_inner_one():
    oracle = _big_class_plus_one_oracle()
    # k = 3 ANY: 13,728 orbits; the singleton's 4 choices up to relabeling are the outer
    # tables, then 1,716 inner ones read in blocks of isqrt(13,728) = 117
    assert _orbits(oracle, 3, Mode.ANY) == 8 * 1716
    for k in (1, 2, 3):
        for mode in Mode:
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == fraction_reference(oracle, k, mode), (k, mode)


# Part relabeling: every mode's choices are closed under permuting the k part
# labels, which permutes a choice's bits and a point's coordinates (I to
# sigma(I)).  The exact scan gives the first singleton twin class one choice
# per S_k orbit and closes the points under relabeling.


def _relabel_mask(mask, perm):
    """The mask with bit i moved to bit perm[i]."""
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def _choice_orbit(pm, k):
    """pm's images under S_k, from every transposition until none is new."""
    orbit, new = {pm}, [pm]
    while new:
        new = [
            q for c in new for i, j in itertools.combinations(range(k), 2)
            if (q := c & ~(1 << i | 1 << j) | (c >> i & 1) << j | (c >> j & 1) << i) not in orbit
        ]
        orbit.update(new)
    return orbit


def test_relabel_representatives_meet_every_choice_orbit_once():
    for k in range(1, config.QUOTIENT_K_CAP + 1):
        for mode in Mode:
            choices = mode.element_choices(k)
            reps = _relabel_representatives(k, mode)
            assert set(reps) <= set(choices), (k, mode)
            hits = collections.Counter(c for r in reps for c in _choice_orbit(r, k))
            assert hits == collections.Counter(choices), (k, mode)
            assert len(reps) == {
                Mode.PARTITION: 1, Mode.DISJOINT: 2, Mode.COVERING: k, Mode.ANY: k + 1
            }[mode], (k, mode)


def _relabel_point(row, perm):
    """The numerator tuple (entry I - 1 is coordinate I) after part i becomes part perm[i]."""
    out = [None] * len(row)
    for index, value in enumerate(row, 1):
        out[_relabel_mask(index, perm) - 1] = value
    return tuple(out)


def test_relabel_closure_is_the_union_over_all_permutations():
    rng = Random(44)
    for k in range(1, 5):
        for size in (0, 1, 3, 20):
            rows = {tuple(rng.randint(0, 3) for _ in range((1 << k) - 1)) for _ in range(size)}
            want = {_relabel_point(row, perm) for row in rows for perm in itertools.permutations(range(k))}
            got = set(rows)
            close_under_relabeling(got, k)
            assert got == want, (k, size)


def test_relabeled_singleton_in_the_inner_stream_matches_plain_enumeration():
    oracle = _twin_table_oracle()
    for k in (1, 2, 3):
        element4 = sum(1 << (s * 5 + 4) for s in range(1, 1 << k))
        for mode in Mode:
            outer, inner, count, relabel = _exact_tables(oracle, k, mode)
            assert count == _orbits(oracle, k, mode) and relabel
            # with more than one orbit the singleton {4} is scanned in the inner stream,
            # with one choice per S_k orbit
            assert count == 1 or not any(t & element4 for t in outer), (k, mode)
            scanned = len(outer) * len(list(inner))
            assert scanned * len(mode.element_choices(k)) == count * len(_relabel_representatives(k, mode))
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == fraction_reference(oracle, k, mode), (k, mode)


def test_relabeled_any_profile_at_the_k_cap_on_two_elements():
    # f(0) = 0, f({0}) = 1, f({1}) = f({0, 1}) = 2: a point is (c1, c0 & ~c1) over the
    # 8 parts, so the 65,536 orbits give 3^8 points
    values = (0, 1, 2, 2)
    oracle = SetFunctionOracle(2, values.__getitem__, label="two")
    k = 8
    assert k == config.QUOTIENT_K_CAP
    got = profile(oracle, k, Mode.ANY, EXACT)
    # f({0, 1}) = f({1}), so element 0 may leave every part element 1 is in
    pairs = {(c0 & ~c1, c1) for c0 in range(1 << k) for c1 in range(1 << k)}
    want = {
        tuple(values[(c0 & s > 0) | (c1 & s > 0) << 1] for s in range(1, 1 << k)) for c0, c1 in pairs
    }
    assert len(want) == 3 ** k
    assert got.den == 1 and got.nums == want


def test_sampled_any_skips_a_flat_portfolio_above_the_flat_cap(monkeypatch):
    from quotientlab import FlatExplosionError

    real_flats = Matroid.flats
    calls = []

    def exploding_flats(matroid):
        calls.append(matroid.size)
        raise FlatExplosionError("FLAT_COUNT_CAP", config.FLAT_COUNT_CAP, config.FLAT_COUNT_CAP + 1, "flats")

    def counted_flats(matroid):
        calls.append(matroid.size)
        return real_flats(matroid)

    # rank 18: the closures of a basis's subsets are 2^18 distinct flats
    oracle = example51_oracle(19)
    assert 1 << oracle.matroid.full_rank() > config.FLAT_COUNT_CAP
    strategy = Sampled(1, 10)
    monkeypatch.setattr(Matroid, "flats", exploding_flats)
    # a cap of 2^18 lets the portfolio call flats(), which fails as the real one does
    with monkeypatch.context() as patched:
        patched.setattr(config, "FLAT_COUNT_CAP", 1 << 18)
        tried = profile(oracle, 2, Mode.ANY, strategy).points
    assert calls == [18]
    assert profile(example51_oracle(19), 2, Mode.ANY, strategy).points == tried
    assert calls == [18]
    # rank 4: 16 flats, so the portfolio still draws from them
    monkeypatch.setattr(Matroid, "flats", counted_flats)
    profile(example51_oracle(5), 2, Mode.ANY, strategy)
    assert calls == [18, 4]


# The per-element draw _sampled_tables made before its accepted-choice
# stream: one rng.randrange per element per sample, after the same portfolio.


def randrange_sampled_tables(oracle, k, mode, seed, samples):
    from quotientlab import FlatExplosionError

    n = oracle.size
    rng = Random(seed)
    for i in range(k):
        parts = [0] * k
        parts[i] = oracle.full_mask
        yield _pack(parts, n)
    for _ in range(3):
        order = list(range(n))
        rng.shuffle(order)
        parts = [0] * k
        for pos, e in enumerate(order):
            parts[pos % k] |= 1 << e
        yield _pack(parts, n)
    matroid = oracle.matroid
    if matroid is not None and mode is Mode.ANY and 1 << matroid.full_rank() <= config.FLAT_COUNT_CAP:
        try:
            flats = matroid.flats()
        except (GroundTooLargeError, FlatExplosionError):
            pass
        else:
            for _ in range(min(samples, 32)):
                yield _pack([rng.choice(flats) for _ in range(k)], n)
    spread = _spread(k, mode, n)
    options = [[c << e for c in spread] for e in range(n)]
    for _ in range(samples):
        yield sum(opts[rng.randrange(len(spread))] for opts in options)


STREAM_ORACLES = {
    "empty": lambda: SetFunctionOracle(0, lambda m: 0, label="empty"),
    "edgeless-graphic": lambda: GraphicMatroid(SimpleGraph.make(3, [])).rank_oracle(),
    "cycle:K4": lambda: complete_cycle_oracle(3),
    "cut:K2(4)": lambda: cut_capacity_oracle(blow_up(SimpleGraph.complete(2), 4)),
}


@pytest.mark.parametrize("name", sorted(STREAM_ORACLES))
def test_sampled_stream_matches_randrange_draws(name):
    oracle = STREAM_ORACLES[name]()
    portfolios = set()
    for k in range(1, 5):
        for mode in Mode:
            # k = 1 PARTITION draws getrandbits(1) and rejects 1; k = 3 ANY draws 4 bits for 8 choices
            got = list(_sampled_tables(oracle, k, mode, 41, 120))
            assert got == list(randrange_sampled_tables(oracle, k, mode, 41, 120)), (k, mode)
            portfolios.add(len(got) - (k + 3 + 120))
    # a matroid oracle's ANY profiles draw rng.choice flat tuples before the samples
    assert portfolios == ({0, 32} if oracle.matroid is not None else {0})


class WordCountingRandom(Random):
    """A Random that counts its generator words; each getrandbits(b <= 32) reads one."""

    words = 0

    def getrandbits(self, b):
        self.words += 1
        return super().getrandbits(b)


def test_choice_draws_match_randrange_across_block_ends(monkeypatch):
    # blocks of 16 words, and for each choice count a draw count past two blocks whose
    # last draw reads a word part-way through its block; c = 256 is drawn by a call per draw
    monkeypatch.setattr(profiles_module, "_DRAW_WORDS", 16)
    for c in range(1, 257):
        ref = WordCountingRandom(c)
        want = []
        while len(want) < 40 or ref.words % 16 == 0:
            want.append(ref.randrange(c))
        assert ref.words > 32
        blocks = profiles_module._choice_bytes(Random(c), c)
        got = list(itertools.islice(itertools.chain.from_iterable(blocks), len(want)))
        assert got == want, c


@pytest.mark.parametrize("name", ["empty", "cycle:K4"])
def test_sampled_blocks_match_randrange_draws_for_every_choice_count(name):
    # k = 1..8 in every mode spans choice counts 1 to 256: COVERING k = 8 has 255, the
    # most one byte holds, and ANY k = 8 has 256.  K4 has 6 edges, so each count of
    # samples draws past three blocks of generator words and, as no choice count
    # accepts every draw, ends part-way through one
    oracle = STREAM_ORACLES[name]()
    words = profiles_module._DRAW_WORDS
    samples = 3 * words // oracle.size + 5 if oracle.size else 2 * words
    for k in range(1, 9):
        for mode in Mode:
            got = list(_sampled_tables(oracle, k, mode, 5, samples))
            assert got == list(randrange_sampled_tables(oracle, k, mode, 5, samples)), (k, mode)
    assert len(got) == k + 3 + samples + (32 if oracle.matroid is not None else 0)


@pytest.mark.parametrize("n", [0, 1, 5, 7, 21])
def test_grouped_sample_tables_match_randrange_draws(n, monkeypatch):
    # k = 1..8 across the modes gives every choice count c and so every bound on a
    # group: g = 8 (c <= 2), 5, 4, 3, 2 and 1 (c >= 17) elements per byte; n = 5, 7
    # and 21 are not multiples of most, so their groups differ in size.  Each count of
    # samples needs the draws of more than three blocks of W words, at W = 16 (where a
    # sample's 21 choices straddle blocks) and at the real size; no choice count
    # accepts every draw, so the last sample ends part-way through a block
    oracle = SetFunctionOracle(n, lambda mask: mask.bit_count(), label="cardinality")
    for words in (16, profiles_module._DRAW_WORDS):
        monkeypatch.setattr(profiles_module, "_DRAW_WORDS", words)
        samples = 3 * words // max(n, 1) + 5
        for k in range(1, 9):
            for mode in Mode:
                got = list(_sampled_tables(oracle, k, mode, 7, samples))
                assert got == list(randrange_sampled_tables(oracle, k, mode, 7, samples)), (words, k, mode)
                assert len(got) == k + 3 + samples


def test_sampled_draw_memory_does_not_grow_with_samples():
    # k = 1 DISJOINT (two choices) keeps each table a small int, so what is traced is the draws
    oracle = SetFunctionOracle(21, lambda mask: mask.bit_count(), label="cardinality")
    peaks = []
    for samples in (20_000, 200_000):
        tracemalloc.start()
        try:
            collections.deque(_sampled_tables(oracle, 1, Mode.DISJOINT, 3, samples), maxlen=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1 << 17
    assert peaks[1] <= peaks[0] + 4096, peaks


def combinations_union_options(cls, spread):
    """The tables _union_options yielded before it built them incrementally."""
    return [
        sum(c << e for e, c in zip(cls, combo))
        for combo in itertools.combinations_with_replacement(spread, len(cls))
    ]


def test_union_options_match_combinations_with_replacement():
    rng = Random(12)
    n = 9
    spreads = [_spread(k, Mode.PARTITION, n) for k in range(1, 9)] + [_spread(3, Mode.ANY, n)]
    for spread in spreads:
        for size in range(7):
            cls = tuple(sorted(rng.sample(range(n), size)))
            got = list(_union_options(cls, spread))
            assert got == combinations_union_options(cls, spread), (len(spread), cls)
            assert len(got) == math.comb(size + len(spread) - 1, size)


# Sampled and flats profiles read rank oracles through `lookup`, which counts
# coloops and keys the matroid's rank memo by half closures; the reference
# reads `numerator` on every union of the same tables, from a fresh oracle.

LOOKUP_ORACLES = {
    "cycle:K7": lambda: complete_cycle_oracle(6),
    "gf(2)^4": lambda: gf_space_oracle(2, 4),
    "ex51(12)": lambda: example51_oracle(12),
    "gf(3)^2": lambda: gf_space_oracle(3, 2),
    "cycle:K5": lambda: complete_cycle_oracle(4),
    "gf(2)^3": lambda: gf_space_oracle(2, 3),
    # a circuit, a loop and two parallel elements, and a coloop
    "K3+gf(2)^2+edge": lambda: DirectSumMatroid(
        [GraphicMatroid(SimpleGraph.complete(3)), LinearMatroid.full_space(2, 2),
         GraphicMatroid(SimpleGraph.complete(2))]
    ).normalized_rank_oracle(),
}


FLAT_RICH = {"gf(2)^4", "cycle:K5", "K3+gf(2)^2+edge"}


def numerator_reference(oracle, k, mode, strategy):
    n, full = oracle.size, oracle.full_mask
    if isinstance(strategy, Sampled):
        tables = _sampled_tables(oracle, k, mode, strategy.seed, strategy.samples)
    else:
        tables = filtered_flat_tables(oracle, k, mode)
    num = oracle.numerator
    return {tuple(num(t >> i * n & full) for i in range(1, 1 << k)) for t in tables}


@pytest.mark.parametrize("name", sorted(LOOKUP_ORACLES))
def test_lookup_profiles_match_numerator_reference(name):
    build = LOOKUP_ORACLES[name]
    flats_enumerate = build().size <= config.FLAT_GROUND_CAP
    for k in (1, 2, 3):
        for mode in Mode:
            strategies = [Sampled(5, 1500)]
            # gf(2)^4, K5 and the direct sum have 67, 52 and 50 flats, so their flat
            # triples are too many to test
            if flats_enumerate and mode is not Mode.PARTITION and (k < 3 or name not in FLAT_RICH):
                strategies.append(FLATS)
            for strategy in strategies:
                oracle, fresh = build(), build()
                den = Fraction(1, oracle.den)
                expected = {(0, *(x * den for x in c)) for c in numerator_reference(fresh, k, mode, strategy)}
                assert coords_set(profile(oracle, k, mode, strategy)) == expected, (k, mode, strategy)
                assert all(v == oracle.matroid._rank(key) for key, v in oracle._memo.items())


def test_sampled_complete_graph_profile_makes_few_forest_calls(monkeypatch):
    calls = []
    real = GraphicMatroid._forest

    def counted(matroid, mask):
        calls.append(mask)
        return real(matroid, mask)

    monkeypatch.setattr(GraphicMatroid, "_forest", counted)
    _pin_rule(monkeypatch, False)  # the rule reads K7's rank table here, with no forest at all
    oracle = complete_cycle_oracle(6)
    assert len(profile(oracle, 3, Mode.ANY, Sampled(3, 20000))) == 54
    # one forest per half closure and per distinct closure union, against
    # one per distinct union mask (99,524) without the half closures
    assert len(calls) < 10_000


def test_sampled_path_profile_counts_its_coloops(monkeypatch):
    calls = []
    real = GraphicMatroid._forest

    def counted(matroid, mask):
        calls.append(mask)
        return real(matroid, mask)

    monkeypatch.setattr(GraphicMatroid, "_forest", counted)
    oracle = example51_oracle(25)  # a path: all 24 edges are coloops
    profile(oracle, 2, Mode.ANY, Sampled(7, 20000))
    # the lookup counts the coloops, so every union shares the memo's empty key;
    # keying the coloops instead took one forest per distinct union, 58,442
    assert len(calls) < 100


# The per-table loop sampled and flats profiles ran before they went through
# the blocked scan: one lookup tuple per packed table, deduplicated in a set.


def per_table_numerators(oracle, k, mode, strategy):
    n = oracle.size
    if isinstance(strategy, Sampled):
        tables = _sampled_tables(oracle, k, mode, strategy.seed, strategy.samples)
    else:
        tables = filtered_flat_tables(oracle, k, mode)
    value, full = oracle.lookup, oracle.full_mask
    shifts = [i * n for i in range(1, 1 << k)]
    return {tuple(map(value, map(full.__and__, map(t.__rshift__, shifts)))) for t in tables}


SCAN_ORACLES = {
    "cycle:K4": lambda: complete_cycle_oracle(3),
    "cycle:K5": lambda: complete_cycle_oracle(4),
    "gf(2)^3": lambda: gf_space_oracle(2, 3),
    "gf(3)^2": lambda: gf_space_oracle(3, 2),
    "cut:C5": lambda: cut_capacity_oracle(SimpleGraph.cycle(5)),
    "empty": lambda: GraphicMatroid(SimpleGraph.make(2, [])).rank_oracle(),
}


def _scan_matches_per_table(build, k, mode, strategy, asked=()):
    # the memo's keys are the lazy side's: the callers pin the cost rule to it
    oracle, fresh = build(), build()
    got = {tuple(x * oracle.den for x in p.coords[1:]) for p in profile(oracle, k, mode, strategy)}
    assert got == per_table_numerators(fresh, k, mode, strategy), (k, mode, strategy)
    if strategy is FLATS and mode is Mode.DISJOINT:
        # the scan looks up the unions of every k-tuple, infeasible ones too, and the
        # feasibility calls it made (`asked`) fill the rank memo as well
        fresh = build()
        per_table_numerators(fresh, k, Mode.ANY, strategy)
        for flats in asked:
            disjoint_bases(fresh.matroid, flats)
    assert oracle._memo.keys() == fresh._memo.keys(), (k, mode, strategy)


@pytest.mark.parametrize("name", sorted(SCAN_ORACLES))
def test_sampled_scan_matches_per_table_loop(name, monkeypatch):
    _pin_rule(monkeypatch, False)
    # no samples, one, two, a perfect square and a square plus one: blocks of
    # isqrt(samples) tables, at least one, around the portfolio's k + 3 (+ 32)
    for samples in (0, 1, 2, 49, 50):
        for k in (1, 2, 3):
            for mode in Mode:
                _scan_matches_per_table(SCAN_ORACLES[name], k, mode, Sampled(11, samples))


def _record_disjoint_bases(monkeypatch):
    """The flats of every call profiles makes to `disjoint_bases`, the global bench/tracer.py wraps."""
    asked = []

    def recorded(matroid, flats):
        asked.append(flats)
        return disjoint_bases(matroid, flats)

    monkeypatch.setattr(profiles_module, "disjoint_bases", recorded)
    return asked


@pytest.mark.parametrize("name", sorted(set(SCAN_ORACLES) - {"cut:C5"}))
def test_flats_scan_matches_per_table_loop(name, monkeypatch):
    _pin_rule(monkeypatch, False)
    asked = _record_disjoint_bases(monkeypatch)
    for k in (1, 2, 3):
        # K5 has 52 flats: its flat triples are too many to test
        if k == 3 and name == "cycle:K5":
            continue
        for mode in (Mode.ANY, Mode.COVERING, Mode.DISJOINT):
            asked.clear()
            _scan_matches_per_table(SCAN_ORACLES[name], k, mode, FLATS, asked)


# DISJOINT flats profiles stream every k-tuple of flats and ask for
# feasibility only when a tuple's point is new; the reference filters every
# tuple first.

DISJOINT_FLAT_ORACLES = {
    "cycle:K4": (lambda: complete_cycle_oracle(3), 3),
    "cycle:K5": (lambda: complete_cycle_oracle(4), 2),
    "gf(2)^3": (lambda: gf_space_oracle(2, 3), 3),
    "gf(3)^2": (lambda: gf_space_oracle(3, 2), 3),
    "gf(2)^4": (lambda: gf_space_oracle(2, 4), 2),
    "K3+gf(2)^2+edge": (LOOKUP_ORACLES["K3+gf(2)^2+edge"], 3),
}


@pytest.mark.parametrize("name", sorted(DISJOINT_FLAT_ORACLES))
def test_disjoint_flats_profile_matches_the_filtered_reference(name):
    build, top = DISJOINT_FLAT_ORACLES[name]
    for k in range(1, top + 1):
        oracle, fresh = build(), build()
        got = {tuple(x * oracle.den for x in p.coords[1:]) for p in profile(oracle, k, Mode.DISJOINT, FLATS)}
        assert got == numerator_reference(fresh, k, Mode.DISJOINT, FLATS), k
    # at the largest k some point of an infeasible tuple has no feasible tuple
    assert got < numerator_reference(build(), top, Mode.ANY, FLATS)


def test_disjoint_flats_profile_asks_feasibility_only_for_new_points(monkeypatch):
    calls = _record_disjoint_bases(monkeypatch)
    oracle = gf_space_oracle(2, 4)
    assert len(profile(oracle, 2, Mode.DISJOINT, FLATS)) == 33
    # 67 flats: filtering every tuple first asked for all 2,278 sorted pairs
    assert len(calls) == len(set(calls)) <= 100
    # the rank sum of the flats exceeds the non-loops of their union at every one of
    # the 50 infeasible pairs the scan would ask about, so only feasible pairs reach
    # matroid union
    assert len(calls) == 23
    assert all(disjoint_bases(oracle.matroid, flats).bases is not None for flats in calls)
    # the scan over every ordered tuple, with a feasibility memo keyed by the sorted
    # flats, made 76 union calls for gf(2)^3 at k = 3
    calls.clear()
    assert len(profile(gf_space_oracle(2, 3), 3, Mode.DISJOINT, FLATS)) == 88
    assert len(calls) == len(set(calls)) <= 76


# The per-tuple path the flats strategy ran before it streamed one tuple per
# S_k orbit: every ordered k-tuple of flats, one union table per tuple,
# COVERING filtered on the union of the flats and DISJOINT on one memoized
# matroid-union call per sorted tuple, asked only for a point not kept yet.

FLAT_PRODUCT_ORACLES = {
    "cycle:K4": lambda: complete_cycle_oracle(3),
    "cycle:K5": lambda: complete_cycle_oracle(4),
    **{f"ex51({n})": functools.partial(example51_oracle, n) for n in range(3, 8)},
    **{f"gf(2)^{n}": functools.partial(gf_space_oracle, 2, n) for n in range(2, 5)},
    "gf(3)^2": lambda: gf_space_oracle(3, 2),
    "K3+gf(2)^2+edge": LOOKUP_ORACLES["K3+gf(2)^2+edge"],
}


def product_flat_numerators(oracle, k, mode):
    matroid = oracle.matroid
    value, full = oracle.numerator_table().__getitem__, matroid.full_mask
    feasible = Memo(lambda key: disjoint_bases(matroid, key).bases is not None)
    points = set()
    for tup in itertools.product(matroid.flats(), repeat=k):
        unions = union_table(tup)
        if mode is Mode.COVERING and unions[-1] != full:
            continue
        point = tuple(map(value, unions[1:]))
        if point not in points and (mode is not Mode.DISJOINT or feasible[tuple(sorted(tup))]):
            points.add(point)
    return points


@pytest.mark.parametrize("name", sorted(FLAT_PRODUCT_ORACLES))
def test_flats_profile_matches_the_ordered_tuple_reference(name):
    build = FLAT_PRODUCT_ORACLES[name]
    for k in (1, 2, 3):
        # ex51(6) has 118 flats: its 1.6 million ordered triples are too many to test
        if k == 3 and name == "ex51(6)":
            continue
        for mode in (Mode.ANY, Mode.COVERING, Mode.DISJOINT):
            oracle = build()
            got = profile(oracle, k, mode, FLATS).nums_over(oracle.den)
            assert got == product_flat_numerators(build(), k, mode), (k, mode)
            # exact, where its labeled assignments are few enough to run here
            if len(mode.element_choices(k)) ** oracle.size <= 1 << 20:
                assert got == profile(build(), k, mode, EXACT).nums_over(oracle.den), (k, mode)


@pytest.mark.parametrize("name", ["gf(2)^3", "ex51(5)", "K3+gf(2)^2+edge"])
def test_flats_profile_packs_each_nondecreasing_tuple_once(name, monkeypatch):
    packed = []

    def recorded(parts):
        packed.append(tuple(parts))
        return union_table(parts)

    monkeypatch.setattr(profiles_module, "union_table", recorded)
    oracle = FLAT_PRODUCT_ORACLES[name]()
    flats, full = oracle.matroid.flats(), oracle.full_mask
    for k in (1, 2, 3):
        every = math.comb(len(flats) + k - 1, k)
        for mode in (Mode.ANY, Mode.COVERING, Mode.DISJOINT):
            packed.clear()
            profile(oracle, k, mode, FLATS)
            assert len(packed) == len(set(packed)) <= every, (k, mode)
            assert all(list(tup) == sorted(tup) for tup in packed), (k, mode)
            if mode is Mode.COVERING:
                covering = {tup for tup in itertools.combinations_with_replacement(flats, k)
                            if functools.reduce(int.__or__, tup) == full}
                assert set(packed) == covering, k
            else:
                assert len(packed) == every, (k, mode)


# Differential test of the cost rule's two sides: every strategy and mode on
# the bundled families at small sizes gives the same points whether the scan
# reads the dense table or the lazy memo.

SIDE_ORACLES = {
    "cycle:K4": lambda: complete_cycle_oracle(3),
    "cycle:K5": lambda: complete_cycle_oracle(4),
    **{f"ex51({n})": functools.partial(example51_oracle, n) for n in range(1, 8)},
    "gf(2)^3": lambda: gf_space_oracle(2, 3),
    "gf(3)^2": lambda: gf_space_oracle(3, 2),
    "cut:K3(2)": lambda: cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 2)),
    "wide": _wide_oracle,
}


@pytest.mark.parametrize("name", sorted(SIDE_ORACLES))
def test_dense_and_lazy_sides_give_the_same_points(name, monkeypatch):
    build = SIDE_ORACLES[name]
    built = _count_dense_tables(monkeypatch)
    flats = build().matroid is not None and len(build().matroid.flats())
    for k in (1, 2, 3):
        for mode in Mode:
            strategies = [Sampled(13, 400)]
            if _orbits(build(), k, mode) <= 5000:
                strategies.append(EXACT)
            if flats and mode is not Mode.PARTITION and (k < 3 or flats <= 30):
                strategies.append(FLATS)
            for strategy in strategies:
                sides = []
                for dense in (True, False):
                    _pin_rule(monkeypatch, dense)
                    before = len(built)
                    sides.append(profile(build(), k, mode, strategy))
                    assert len(built) == before + dense
                assert sides[0] == sides[1] and sides[0].nums == sides[1].nums, (k, mode, strategy)
    if name == "wide":
        assert type(build().numerator_table()) is list


# DISJOINT flats feasibility checks the rank sum against the non-loops of the
# union for every subfamily of two or more flats before matroid union; the
# reference predicate checked the whole family only.


def _whole_family_keep(oracle, k):
    matroid, n, full = oracle.matroid, oracle.size, oracle.full_mask
    rank, nonloops = oracle.lookup, full & ~matroid.closure(0)
    shifts = [(1 << i) * n for i in range(k)]

    def keep(table):
        parts = tuple([table >> s & full for s in shifts])
        if sum(map(rank, parts)) > (functools.reduce(int.__or__, parts) & nonloops).bit_count():
            return False
        return profiles_module.disjoint_bases(matroid, parts).bases is not None

    return keep


def _with_whole_family_keep(monkeypatch):
    real = profiles_module._flat_tables

    def flat_tables(oracle, k, mode):
        tables, total, lookups, keep, relabel = real(oracle, k, mode)
        return tables, total, lookups, keep and _whole_family_keep(oracle, k), relabel

    monkeypatch.setattr(profiles_module, "_flat_tables", flat_tables)


@pytest.mark.parametrize("name", ["cycle:K4", "gf(2)^3", "gf(3)^2", "ex51(5)", "K3+gf(2)^2+edge"])
def test_subfamily_precheck_matches_the_whole_family_check(name, monkeypatch):
    build = FLAT_PRODUCT_ORACLES[name]
    calls = _record_disjoint_bases(monkeypatch)
    for k in (1, 2, 3):
        calls.clear()
        got = profile(build(), k, Mode.DISJOINT, FLATS)
        fewer = len(calls)
        with monkeypatch.context() as m:
            _with_whole_family_keep(m)
            calls.clear()
            assert profile(build(), k, Mode.DISJOINT, FLATS) == got, k
        assert fewer <= len(calls), k


def test_subfamily_precheck_spares_union_calls(monkeypatch):
    calls = _record_disjoint_bases(monkeypatch)
    # the whole-family check let 1,919 triples of gf(2)^4's flats reach matroid union
    assert len(profile(gf_space_oracle(2, 4), 3, Mode.DISJOINT, FLATS)) == 305
    assert len(calls) == 139
    # at k = 2 the only subfamily of two or more is the whole family
    calls.clear()
    assert len(profile(gf_space_oracle(2, 4), 2, Mode.DISJOINT, FLATS)) == 33
    assert len(calls) == 23
