"""Profile enumeration: modes, strategies, composition, filters."""

import functools
import itertools
import math
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
from quotientlab import profiles as profiles_module
from quotientlab.graphs import blow_up, cut_capacity_oracle, shifted_tau_oracle
from quotientlab.matroid import disjoint_bases
from quotientlab.profiles import Exact, _exact_tables, _pack, _sampled_tables, _spread, _union_options
from quotientlab.sequences import complete_cycle_oracle, example51_oracle, gf_space_oracle
from quotientlab.setfn import Memo, SetFunctionOracle, oracle_from_table, union_table


def coords_set(pset):
    return {p.coords for p in pset}


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

    _forbid_dense_tables(monkeypatch)
    monkeypatch.setattr(config, "ENUM_ITERATION_CAP", 100)
    assert len(profile(cut_capacity_oracle(SimpleGraph.cycle(5)), 2, Mode.ANY, Sampled(1, 100)))
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
    profile(oracle, 2, Mode.PARTITION, Sampled(3, 50))
    assert len(matroid.rank_memo) > len(before)
    assert all(type(v) is int and v == matroid._rank(key) for key, v in matroid.rank_memo.items())


def test_sampled_and_flats_never_build_a_dense_table(monkeypatch):
    _forbid_dense_tables(monkeypatch)
    for oracle in (complete_cycle_oracle(4), gf_space_oracle(2, 3)):
        for mode in (Mode.ANY, Mode.DISJOINT, Mode.COVERING):
            assert len(profile(oracle, 2, mode, FLATS))
        for mode in Mode:
            assert len(profile(oracle, 2, mode, Sampled(1, 200)))


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


# twins shrink the orbit count below 2^n / 2^k in every mode, so the
# exact profile reads the lazy memo
LAZY_TWIN_BLOWUP = blow_up(SimpleGraph.complete(2), 9)

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
            assert (len(built) > before) == (_orbits(oracle, k, mode) << k >= 1 << oracle.size)
            dense += len(built) > before
    assert dense >= 8


def test_wide_numerators_come_in_a_list():
    oracle = _wide_oracle()
    assert oracle.numerator(0b1111) >= 1 << 63
    assert type(oracle.numerator_table()) is list


def test_dense_gather_when_the_last_block_holds_one_table(monkeypatch):
    built = _count_dense_tables(monkeypatch)
    # K_{2,3}'s classes (0, 1) and (2, 3, 4): k = 2 partitions have 3 outer tables
    # and 4 inner ones in blocks of isqrt(12) = 3; U(2, 4)'s one class has no outer
    # table and 5 inner ones in blocks of 2
    for oracle, shape in (
        (cut_capacity_oracle(SimpleGraph.complete_bipartite(2, 3)), (3, 4, 3)),
        (_one_class_oracle(4), (1, 5, 2)),
    ):
        outer, inner, count = _exact_tables(oracle, 2, Mode.PARTITION)
        assert (len(outer), len(list(inner)), math.isqrt(count)) == shape
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
    # k = 1 partitions have one orbit, so they read the lookup
    profile(oracle, 1, Mode.PARTITION, EXACT)
    assert calls


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
# case records whether profile() read a dense table, so both lookup paths
# are seen with and without twins.


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


DIFFERENTIAL_ORACLES = {
    "K2(4)": lambda: cut_capacity_oracle(blow_up(SimpleGraph.complete(2), 4)),
    "K3(2)": lambda: cut_capacity_oracle(blow_up(SimpleGraph.complete(3), 2)),
    "true-twins": lambda: cut_capacity_oracle(TRUE_TWINS),
    "ex51(4)": lambda: example51_oracle(4),
    "gf(2)^2": lambda: gf_space_oracle(2, 2),
    "table": _random_table_oracle,
}


def _orbits(oracle, k, mode):
    c = len(mode.element_choices(k))
    classes = oracle.twins or tuple((e,) for e in range(oracle.size))
    return math.prod(math.comb(len(cls) + c - 1, len(cls)) for cls in classes)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_ORACLES))
def test_blocked_scan_matches_plain_enumeration(name, monkeypatch):
    built = _count_dense_tables(monkeypatch)
    oracle = DIFFERENTIAL_ORACLES[name]()
    paths = set()
    for k in (1, 2, 3):
        for mode in Mode:
            if _orbits(oracle, k, mode) > 5000:
                continue
            before = len(built)
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == fraction_reference(oracle, k, mode), (name, k, mode)
            dense = len(built) > before
            assert dense == (_orbits(oracle, k, mode) << k >= 1 << oracle.size), (name, k, mode)
            paths.add(dense)
    # k = 1 partitions have one orbit, which reads the lazy memo on any ground of 2+ elements
    assert paths == {True, False}, name


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
    # k = 3 ANY: 8 outer tables, then 1,716 inner ones read in blocks of isqrt(13,728) = 117
    assert _orbits(oracle, 3, Mode.ANY) == 8 * 1716
    for k in (1, 2, 3):
        for mode in Mode:
            got = coords_set(profile(oracle, k, mode, EXACT))
            assert got == fraction_reference(oracle, k, mode), (k, mode)


def test_sampled_any_skips_a_flat_portfolio_above_the_flat_cap(monkeypatch):
    from quotientlab import FlatExplosionError
    from quotientlab.matroid import Matroid

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
    from quotientlab import matroid as matroid_module

    calls = []
    real = matroid_module.spanning_forest

    def counted(graph, mask):
        calls.append(mask)
        return real(graph, mask)

    monkeypatch.setattr(matroid_module, "spanning_forest", counted)
    oracle = complete_cycle_oracle(6)
    assert len(profile(oracle, 3, Mode.ANY, Sampled(3, 20000))) == 54
    # one forest per half closure and per distinct closure union, against
    # one per distinct union mask (99,524) without the half closures
    assert len(calls) < 10_000


def test_sampled_path_profile_counts_its_coloops(monkeypatch):
    from quotientlab import matroid as matroid_module

    calls = []
    real = matroid_module.spanning_forest

    def counted(graph, mask):
        calls.append(mask)
        return real(graph, mask)

    monkeypatch.setattr(matroid_module, "spanning_forest", counted)
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
def test_sampled_scan_matches_per_table_loop(name):
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
