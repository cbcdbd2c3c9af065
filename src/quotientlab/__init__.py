"""quotientlab: exact profile sets of setfunctions and their Hausdorff geometry.

The package provides exact rank oracles (graphic, linear over GF(q),
direct sums), cut-capacity and motif-density setfunctions on graphs and
step graphons, enumeration of partition/disjoint/covering/any profile
sets as rational point clouds, and sup-norm Hausdorff diagnostics for
sequences of such sets.  All core arithmetic is exact.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpCapError,
    CapExceededError,
    DegenerateNormalizationError,
    DivisibilityError,
    EmptyProfileError,
    EnumCapError,
    FlatExplosionError,
    GraphFormatError,
    GroundTooLargeError,
    KTooLargeError,
    MaskWidthError,
    QuotientLabError,
    StrategyError,
)
from .graphon import (
    StepGraphon,
    graphon_cut_capacity,
    graphon_cut_capacity_oracle,
    hom_density_step,
    parse_step_graphon,
)
from .graphs import (
    CutNormalization,
    SimpleGraph,
    blow_up,
    cut_capacity_oracle,
    cut_dist_labeled,
    cut_dist_unlabeled_upper,
    gamma_from_kappa,
    hom_count,
    hom_density,
    kappa_from_gamma,
    pair_count,
    parse_graph,
    rounding_partition,
    shifted_tau_oracle,
    tau_oracle,
    weighted_quotient,
)
from .matroid import (
    DirectSumMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    Restriction,
    check_richness,
    disjoint_bases,
    edge_coloring_quotient,
    matroid_union,
    matroid_union_rank_brute,
    pad_embed_flat,
    stretch_embed_flat,
)
from .metric import (
    ConvergenceDiagnostic,
    HausdorffReport,
    cauchy_diagnostic,
    directed_distance,
    eps_contained,
    hausdorff,
    linf_distance,
)
from .profiles import (
    EXACT,
    FLATS,
    Exact,
    FlatsOnly,
    Mode,
    ProfileSet,
    Sampled,
    compose,
    delta_approx_bound_check,
    derived_profile,
    limit_set_filter,
    profile,
    verify_inclusions,
)
from .setfn import (
    QuotientPoint,
    SetFunctionOracle,
    check_monotone,
    check_monotone_sampled,
    check_submodular,
    check_submodular_sampled,
    quotient_point,
)
