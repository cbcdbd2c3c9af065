"""Named verification suites behind the `verify` subcommand.

Each suite re-checks a family of exact identities, inclusions, or bounds
on bundled desk-scale instances and yields one pass/fail result per
check, with a witness in the detail string on failure; `run_suite`
collects them under the name the suite is registered with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterator

from .graphs import (
    CutNormalization,
    SimpleGraph,
    blow_up,
    cut_capacity_oracle,
    cut_dist_labeled,
    gamma_from_kappa,
    hom_density,
    kappa_from_gamma,
    tau_oracle,
    weighted_quotient,
)
from .matroid import (
    DirectSumMatroid,
    GraphicMatroid,
    LinearMatroid,
    check_richness,
    disjoint_bases,
    matroid_union,
    matroid_union_rank_brute,
    pad_embed_flat,
    stretch_embed_flat,
)
from .metric import directed_distance, hausdorff
from .profiles import (
    EXACT,
    FLATS,
    Mode,
    compose,
    delta_approx_bound_check,
    limit_set_filter,
    profile,
    verify_inclusions,
)
from .sequences import (
    example51_oracle,
    example51_trees,
    gf_space_oracle,
)
from .setfn import (
    QuotientPoint,
    SetFunctionOracle,
    check_monotone,
    check_submodular,
    oracle_from_table,
    quotient_point,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


SUITES: dict[str, Callable[[], Iterator[CheckResult]]] = {}


def _suite(name: str):
    def registrar(fn):
        SUITES[name] = fn
        return fn

    return registrar


def available_suites() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str) -> SuiteResult:
    return SuiteResult(name, tuple(SUITES[name]()))


# --------------------------------------------------------------------------
# divergence of the oscillating two-trees/one-tree family


def _two_tree_point(n: int) -> QuotientPoint:
    t1, t2 = example51_trees(n)
    return quotient_point(example51_oracle(n), [t1, t2])


@_suite("divergence")
def suite_divergence() -> Iterator[CheckResult]:
    q8 = profile(example51_oracle(8), 2, Mode.PARTITION, EXACT)
    q9 = profile(example51_oracle(9), 2, Mode.PARTITION, EXACT)
    gap = hausdorff(q8, q9).distance
    yield CheckResult("hausdorff(8,9) >= 31/72", gap >= Fraction(31, 72), f"distance {gap}")
    point = _two_tree_point(8)
    yield CheckResult(
        "two-tree point is (7/8,7/8,7/8)",
        point.coords == (Fraction(0), Fraction(7, 8), Fraction(7, 8), Fraction(7, 8)),
        str(point.coords),
    )
    d_pt, _ = directed_distance([point], q9)
    yield CheckResult("point gap to odd member == 31/72", d_pt == Fraction(31, 72), f"got {d_pt}")
    lower = [d_pt]
    for even in (10, 12):
        q_odd = profile(example51_oracle(even + 1), 2, Mode.PARTITION, EXACT)
        d, _ = directed_distance([_two_tree_point(even)], q_odd)
        lower.append(d)
    yield CheckResult(
        "point gaps grow toward 1/2",
        lower[0] < lower[1] < lower[2] < Fraction(1, 2),
        " < ".join(str(d) for d in lower),
    )


# --------------------------------------------------------------------------
# composition identities between tuple disciplines


@_suite("composition")
def suite_composition() -> Iterator[CheckResult]:
    oracles = [
        GraphicMatroid(SimpleGraph.complete(4)).normalized_rank_oracle(),
        gf_space_oracle(2, 2),
    ]
    for oracle in oracles:
        base = profile(oracle, 2, Mode.ANY, EXACT).points
        any3 = profile(oracle, 3, Mode.ANY, EXACT)
        variants = {
            "partition∘any(3)": compose(any3, 2, Mode.PARTITION),
            "any∘any(3)": compose(any3, 2, Mode.ANY),
            "any∘partition(4)": compose(profile(oracle, 4, Mode.PARTITION, EXACT), 2, Mode.ANY),
        }
        for name, pset in variants.items():
            yield CheckResult(
                f"{oracle.label}: {name} == any",
                pset.points == base,
                f"{len(pset.points)} vs {len(base)} points",
            )


# --------------------------------------------------------------------------
# inclusion chains on the bundled corpus


def _random_table_oracle(seed: int, n: int) -> SetFunctionOracle:
    rng = Random(seed)
    table = [Fraction(0)] + [
        Fraction(rng.randrange(0, 13), rng.randrange(1, 7)) for _ in range((1 << n) - 1)
    ]
    return oracle_from_table(table, label=f"random-table({seed})")


def bundled_oracles() -> list[SetFunctionOracle]:
    squares = SetFunctionOracle(4, lambda m: m.bit_count() ** 2, label="cardinality-squared")
    cardinality = SetFunctionOracle(5, int.bit_count, label="cardinality")
    return [
        GraphicMatroid(SimpleGraph.complete(3)).normalized_rank_oracle(),
        GraphicMatroid(SimpleGraph.complete(4)).normalized_rank_oracle(),
        gf_space_oracle(2, 2),
        gf_space_oracle(2, 3),
        DirectSumMatroid(
            [GraphicMatroid(SimpleGraph.complete(3)), GraphicMatroid(SimpleGraph.complete(3))]
        ).normalized_rank_oracle(),
        cut_capacity_oracle(SimpleGraph.cycle(4), CutNormalization.EDGES),
        cut_capacity_oracle(SimpleGraph.complete(4), CutNormalization.NODES_SQUARED),
        squares,
        cardinality,
        _random_table_oracle(11, 5),
    ]


@_suite("inclusion-chains")
def suite_inclusion_chains() -> Iterator[CheckResult]:
    for oracle in bundled_oracles():
        report = verify_inclusions(oracle, 2)
        yield CheckResult(
            f"chains hold for {oracle.label}",
            report.all_hold,
            "" if report.all_hold else f"witness {report.witness}",
        )
    zero = QuotientPoint(2, (Fraction(0),) * 4)
    gf2 = gf_space_oracle(2, 2)
    any_set = profile(gf2, 2, Mode.ANY, EXACT)
    part_set = profile(gf2, 2, Mode.PARTITION, EXACT)
    yield CheckResult(
        "zero point in any-profile but not in partition-profile",
        zero in any_set.points and zero not in part_set.points,
    )


# --------------------------------------------------------------------------
# disjoint/covering approximation bounds


@_suite("approx-bounds")
def suite_approx_bounds() -> Iterator[CheckResult]:
    report = delta_approx_bound_check(LinearMatroid.full_space(2, 4), 2, 4)
    yield CheckResult("richness precondition for gf(2)^4", report.precondition_met)
    yield CheckResult(
        "gaps within k*m/rank == 2",
        report.holds,
        f"any/disjoint {report.any_vs_disjoint}, covering/partition {report.covering_vs_partition}",
    )
    yield CheckResult(
        "gaps strictly below coordinate diameter 1",
        report.any_vs_disjoint < 1 and report.covering_vs_partition < 1,
        f"{report.any_vs_disjoint}, {report.covering_vs_partition}",
    )
    vacuous = delta_approx_bound_check(LinearMatroid.full_space(2, 3), 2, 4)
    yield CheckResult(
        "gf(2)^3 bound 8/3 exceeds diameter",
        vacuous.precondition_met and vacuous.holds and vacuous.bound == Fraction(8, 3),
        f"bound {vacuous.bound}",
    )


# --------------------------------------------------------------------------
# richness


@_suite("richness")
def suite_richness() -> Iterator[CheckResult]:
    for n in range(1, 5):
        matroid = LinearMatroid.full_space(2, n)
        for k in range(1, 4):
            report = check_richness(matroid, k, 2 * k)
            yield CheckResult(
                f"gf(2)^{n} satisfies the (k={k}, m={2 * k}) flat-pair condition",
                report.holds,
                "" if report.holds else f"witness {report.witness}",
            )
    negative = check_richness(GraphicMatroid(SimpleGraph.complete(3)), 2, 1)
    yield CheckResult(
        "triangle cycle matroid fails (k=2, m=1) with a witness",
        not negative.holds and negative.witness is not None,
        str(negative.witness),
    )


# --------------------------------------------------------------------------
# matroid union against the min-formula brute force


def _random_matroid(rng: Random, ground: int):
    if rng.random() < 0.5:
        nodes = rng.randrange(3, 8)
        pairs = list(itertools.combinations(range(nodes), 2))
        while len(pairs) < ground:
            nodes += 1
            pairs = list(itertools.combinations(range(nodes), 2))
        edges = rng.sample(pairs, ground)
        return GraphicMatroid(SimpleGraph.make(nodes, edges))
    dim = rng.randrange(2, 5)
    cols = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(ground)]
    return LinearMatroid(2, cols)


@_suite("matroid-union")
def suite_matroid_union() -> Iterator[CheckResult]:
    rng = Random(20250810)
    mismatches = []
    for trial in range(200):
        ground = rng.randrange(3, 13)
        count = rng.randrange(2, 4)
        matroids = [_random_matroid(rng, ground) for _ in range(count)]
        result = matroid_union(matroids)
        brute, _ = matroid_union_rank_brute(matroids)
        union_mask = 0
        sizes = 0
        parts_ok = True
        for m, pm in zip(matroids, result.parts):
            if pm & union_mask:
                parts_ok = False
            union_mask |= pm
            sizes += pm.bit_count()
            if m.rank(pm) != pm.bit_count():
                parts_ok = False
        if result.rank != brute or sizes != result.rank or not parts_ok:
            mismatches.append(trial)
        if result.certificate_value != result.rank:
            mismatches.append(trial)
    yield CheckResult(
        "augmenting-path rank matches brute force on 200 seeded instances",
        not mismatches,
        f"mismatching trials: {mismatches}" if mismatches else "",
    )
    space = LinearMatroid.full_space(2, 3)
    full = space.full_mask
    found = disjoint_bases(space, [full, full])
    ok = found.bases is not None
    if ok:
        b1, b2 = found.bases
        ok = (
            b1 & b2 == 0
            and b1.bit_count() == 3
            and b2.bit_count() == 3
            and space.rank(b1) == 3
            and space.rank(b2) == 3
        )
    yield CheckResult("two disjoint bases among the 7 nonzero vectors of gf(2)^3", ok)
    triangle = GraphicMatroid(SimpleGraph.complete(3))
    tri_full = triangle.full_mask
    missing = disjoint_bases(triangle, [tri_full, tri_full])
    cert_ok = missing.bases is None and missing.certificate is not None
    if cert_ok:
        y = missing.certificate
        rest = tri_full & ~y
        cert_ok = y.bit_count() + 2 * triangle.rank(rest) < 4
    yield CheckResult("triangle refuses two disjoint spanning forests, with certificate", cert_ok)
    k4 = GraphicMatroid(SimpleGraph.complete(4))
    result = matroid_union([k4, k4])
    yield CheckResult("complete graph on 4 nodes splits into two spanning trees", result.rank == 6)


# --------------------------------------------------------------------------
# cut quotient round trip


def set_partitions(n: int) -> Iterator[list[int]]:
    """All partitions of {0..n-1} into nonempty blocks, as mask lists."""
    blocks: list[int] = []

    def rec(i: int) -> Iterator[list[int]]:
        if i == n:
            yield list(blocks)
            return
        bit = 1 << i
        for b in range(len(blocks)):
            blocks[b] |= bit
            yield from rec(i + 1)
            blocks[b] &= ~bit
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def _roundtrip_corpus() -> list[SimpleGraph]:
    return [
        SimpleGraph.complete(2),
        SimpleGraph.path(3),
        SimpleGraph.complete(3),
        SimpleGraph.path(4),
        SimpleGraph.cycle(4),
        SimpleGraph.complete(4),
        SimpleGraph.cycle(5),
        SimpleGraph.complete_bipartite(1, 4),
        SimpleGraph.cycle(6),
        SimpleGraph.complete_bipartite(3, 3),
        SimpleGraph.empty(3),
    ]


@_suite("cut-roundtrip")
def suite_cut_roundtrip() -> Iterator[CheckResult]:
    for g in _roundtrip_corpus():
        oracle = cut_capacity_oracle(g, CutNormalization.NODES_SQUARED)
        bad = None
        for parts in set_partitions(g.node_count):
            wq = weighted_quotient(g, parts)
            from_gamma = kappa_from_gamma(wq)
            direct = quotient_point(oracle, parts)
            if from_gamma != direct:
                bad = (parts, "gamma->kappa")
                break
            recovered = gamma_from_kappa(direct)
            if any(
                recovered[(i, j)] != wq.gamma[i][j]
                for i in range(wq.k)
                for j in range(i + 1, wq.k)
            ):
                bad = (parts, "kappa->gamma")
                break
        yield CheckResult(
            f"round trip on all partitions of {g.name or g.node_count}",
            bad is None,
            str(bad) if bad else "",
        )


# --------------------------------------------------------------------------
# quotient distance contracted by the labeled cut distance


def _random_graph(rng: Random, n: int) -> SimpleGraph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    return SimpleGraph.make(n, edges)


@_suite("cut-contraction")
def suite_cut_contraction() -> Iterator[CheckResult]:
    rng = Random(424242)
    failures = []
    for trial in range(100):
        n = rng.randrange(4, 10)
        g1 = _random_graph(rng, n)
        g2 = _random_graph(rng, n)
        q1 = profile(cut_capacity_oracle(g1, CutNormalization.NODES_SQUARED), 2, Mode.PARTITION)
        q2 = profile(cut_capacity_oracle(g2, CutNormalization.NODES_SQUARED), 2, Mode.PARTITION)
        if hausdorff(q1, q2).distance > cut_dist_labeled(g1, g2):
            failures.append(trial)
    yield CheckResult(
        "partition-profile gap <= labeled cut distance on 100 seeded pairs",
        not failures,
        f"failing trials: {failures}" if failures else "",
    )


# --------------------------------------------------------------------------
# blow-up invariance of motif densities


@_suite("blowup-density")
def suite_blowup_density() -> Iterator[CheckResult]:
    motifs = {
        "K2": SimpleGraph.complete(2),
        "P3": SimpleGraph.path(3),
        "K3": SimpleGraph.complete(3),
        "C4": SimpleGraph.cycle(4),
    }
    targets = [SimpleGraph.complete(3), SimpleGraph.path(4), SimpleGraph.cycle(5)]
    for name, motif in motifs.items():
        for g in targets:
            base = hom_density(motif, g)
            ok = True
            for t in (2, 3):
                blown = hom_density(motif, blow_up(g, t))
                if blown != base:
                    ok = False
            yield CheckResult(f"t({name}, {g.name}(t)) stable for t<=3", ok, f"base {base}")


# --------------------------------------------------------------------------
# motif-deletion setfunction shape


@_suite("tau-shape")
def suite_tau_shape() -> Iterator[CheckResult]:
    motifs = {"K2": SimpleGraph.complete(2), "K3": SimpleGraph.complete(3)}
    targets = [SimpleGraph.complete(4), SimpleGraph.cycle(5), SimpleGraph.complete_bipartite(3, 2)]
    for fname, motif in motifs.items():
        for g in targets:
            oracle = tau_oracle(motif, g)
            sub = check_submodular(oracle)
            mono = check_monotone(oracle)
            base_ok = oracle.evaluate(0) == 1 - hom_density(motif, g)
            top_ok = oracle.evaluate(oracle.full_mask) == 1
            yield CheckResult(
                f"tau({fname};{g.name}) submodular, increasing, pinned endpoints",
                not sub and not mono and base_ok and top_ok,
                f"violations: {len(sub)} submodular, {len(mono)} monotone",
            )


# --------------------------------------------------------------------------
# largest-singleton filter on partition profiles of the linear spaces


@_suite("limit-filter")
def suite_limit_filter() -> Iterator[CheckResult]:
    for n in (2, 3):
        pset = profile(gf_space_oracle(2, n), 2, Mode.PARTITION, EXACT)
        filtered = limit_set_filter(pset, 2, n)
        threshold = 1 - Fraction(1, n)
        explicit = all(p.max_singleton() >= threshold for p in pset)
        yield CheckResult(
            f"all partition points of gf(2)^{n} clear threshold {threshold}",
            len(filtered) == len(pset) and explicit,
            f"{len(filtered)}/{len(pset)} kept",
        )


# --------------------------------------------------------------------------
# metric soundness on random rational clouds


_CLOUD_MAX_POINTS = 50


def _random_cloud(rng: Random) -> list[QuotientPoint]:
    size = rng.randrange(1, _CLOUD_MAX_POINTS + 1)
    out = []
    for _ in range(size):
        coords = (Fraction(0),) + tuple(
            Fraction(rng.randrange(-12, 25), rng.randrange(1, 10)) for _ in range(3)
        )
        out.append(QuotientPoint(2, coords))
    return out


@_suite("metric-properties")
def suite_metric_properties() -> Iterator[CheckResult]:
    rng = Random(1009)
    clouds = [_random_cloud(rng) for _ in range(1000)]
    sym_ok = ident_ok = tri_ok = True
    for i in range(0, len(clouds) - 2, 3):
        a, b, c = clouds[i], clouds[i + 1], clouds[i + 2]
        dab = hausdorff(a, b)
        dbc = hausdorff(b, c)
        dac = hausdorff(a, c)
        if dab.distance != hausdorff(b, a).distance:
            sym_ok = False
        if dac.distance > dab.distance + dbc.distance:
            tri_ok = False
        shuffled = list(a)
        rng.shuffle(shuffled)
        if hausdorff(a, shuffled).distance != 0:
            ident_ok = False
        if dab.distance == 0 and set(p.coords for p in a) != set(p.coords for p in b):
            ident_ok = False
    yield CheckResult("symmetry on 333 seeded cloud pairs", sym_ok)
    yield CheckResult("identity (zero distance iff equal after dedup)", ident_ok)
    yield CheckResult("triangle inequality on 333 seeded cloud triples", tri_ok)


# --------------------------------------------------------------------------
# linear-space lattice embeddings


@_suite("embeddings")
def suite_embeddings() -> Iterator[CheckResult]:
    spaces = {m: LinearMatroid.full_space(2, m) for m in (1, 2, 3, 4)}
    # each embedding maps flats to flats, multiplies ranks by its factor
    # (n/m = 2 for both repetition pairs), and preserves joins and meets
    lattice_maps = (
        (pad_embed_flat, ((1, 2), (2, 3), (1, 3)), 1,
         "zero padding gf(2)^{m} -> gf(2)^{n} is a rank-preserving lattice map"),
        (stretch_embed_flat, ((1, 2), (2, 4)), 2,
         "block repetition gf(2)^{m} -> gf(2)^{n} scales ranks by {t}"),
    )
    for embed, pairs, t, title in lattice_maps:
        for m, n in pairs:
            src, dst = spaces[m], spaces[n]
            images = {f: embed(2, m, n, f) for f in src.flats()}
            ok = all(
                dst.is_flat(img) and dst.rank(img) == t * src.rank(f) for f, img in images.items()
            ) and all(
                images[src.closure(f | g)] == dst.closure(images[f] | images[g])
                and images[f & g] == images[f] & images[g]
                for f, g in itertools.product(images, repeat=2)
            )
            yield CheckResult(title.format(m=m, n=n, t=t), ok)
    # profile containments those embeddings imply
    profiles = {
        m: profile(gf_space_oracle(2, m), 2, Mode.ANY, FLATS if m == 4 else EXACT)
        for m in (1, 2, 3, 4)
    }
    for m, n in ((1, 2), (2, 4)):
        yield CheckResult(
            f"any-profile of gf(2)^{m} inside that of gf(2)^{n}",
            profiles[m].points <= profiles[n].points,
        )
    for m, n in ((1, 2), (2, 3)):
        target = {p.coords for p in profiles[n]}
        ok = all(p.scale(Fraction(m, n)).coords in target for p in profiles[m])
        yield CheckResult(
            f"any-profile of gf(2)^{m} inside {n}/{m} times that of gf(2)^{n}",
            ok,
        )
