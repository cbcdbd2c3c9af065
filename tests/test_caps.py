"""Every cap constant in `config` is named by the error that reports it."""

from fractions import Fraction

import pytest

from quotientlab import (
    GraphicMatroid,
    LinearMatroid,
    Mode,
    QuotientPoint,
    SetFunctionOracle,
    SimpleGraph,
    check_submodular,
    config,
    cut_dist_labeled,
    cut_dist_unlabeled_upper,
    hom_count,
    matroid_union_rank_brute,
    profile,
)
from quotientlab.errors import CapExceededError, KTooLargeError


def _cardinality(n):
    return SetFunctionOracle(n, int.bit_count)


# (constant, value to patch in or None, the cheapest call that exceeds it)
CAP_ROWS = [
    ("GROUND_SIZE_CAP", None, lambda: SetFunctionOracle(25, int.bit_count)),
    ("QUOTIENT_K_CAP", None, lambda: profile(_cardinality(2), 9, Mode.ANY)),
    ("ENUM_ITERATION_CAP", None, lambda: profile(_cardinality(20), 3, Mode.ANY)),
    ("EXHAUSTIVE_CHECK_CAP", None, lambda: check_submodular(_cardinality(13))),
    # gf(2)^2 has 5 flats; the natural trigger needs 100,001
    ("FLAT_COUNT_CAP", 3, lambda: LinearMatroid.full_space(2, 2).flats()),
    ("FLAT_GROUND_CAP", None, lambda: GraphicMatroid(SimpleGraph.complete(7)).flats()),
    ("UNION_BRUTE_FORCE_CAP", None,
     lambda: matroid_union_rank_brute([GraphicMatroid(SimpleGraph.complete(7))])),
    ("HOM_PATTERN_NODE_CAP", None, lambda: hom_count(SimpleGraph.path(6), SimpleGraph.complete(3))),
    ("HOM_TARGET_NODE_CAP", None, lambda: hom_count(SimpleGraph.complete(2), SimpleGraph.empty(16))),
    # equal graphs have no nonzero row to walk, so this raises only if n is capped before the grouping
    ("CUT_DIST_NODE_CAP", None, lambda: cut_dist_labeled(SimpleGraph.empty(25), SimpleGraph.empty(25))),
    ("BLOWUP_NODE_CAP", None,
     lambda: cut_dist_unlabeled_upper(SimpleGraph.empty(7), SimpleGraph.complete(2))),
]


def test_every_cap_constant_has_a_row():
    caps = {name for name in vars(config) if name.endswith("_CAP")}
    assert caps == {name for name, _, _ in CAP_ROWS}


@pytest.mark.parametrize("name, value, call", CAP_ROWS, ids=[row[0] for row in CAP_ROWS])
def test_cap_error_names_its_constant(name, value, call, monkeypatch):
    if value is not None:
        monkeypatch.setattr(config, name, value)
    with pytest.raises(CapExceededError) as info:
        call()
    assert f"{name}=" in str(info.value)


def test_point_as_setfunction_is_capped_by_quotient_k_cap():
    with pytest.raises(KTooLargeError) as info:
        QuotientPoint(9, (Fraction(0),) * 512).as_oracle()
    assert "QUOTIENT_K_CAP=" in str(info.value)
