import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rifslab import (CarpetSpec, GeometryDomainError, OmegaSeq,
                     UnsupportedShapeError, UsageError,
                     bedford_mcmullen_dimension, carpet_dimension_curve,
                     check_growth_conditions, check_uosc_grid,
                     extremal_ss_bounds, minimize_carpet_dimension,
                     random_carpet_dimension,
                     randomized_similarity_dimension, similarity_dimension)
from rifslab.dimension import check_weights
from rifslab.model import DeterministicIfs, Rifs
from rifslab.geometry import Similarity, unit_box

from composition import compose

LOG2_3 = math.log(2.0) / math.log(3.0)

# the two grid selections behind the weighted-mix examples: a 2x3 grid
# keeping both columns twice, and a 3x4 grid keeping two full columns
MIX_CARPETS = (
    CarpetSpec(2, 3, ((0, 0), (0, 2), (1, 0), (1, 2))),
    CarpetSpec(3, 4, ((0, 0), (0, 1), (0, 2), (0, 3),
                      (1, 0), (1, 1), (1, 2), (1, 3))),
)


def mix_curve_closed_form(p: float) -> float:
    """Independent closed form for the MIX_CARPETS dimension at mix p.

    nu1 = 2^p 3^(1-p), nu2 = 3^p 4^(1-p); both selections have uniform
    non-empty columns (heights 2 and 4), which collapses the general
    formula to log2/log(nu1) + (2-p) log2/log(nu2).
    """
    log_nu1 = p * math.log(2.0) + (1.0 - p) * math.log(3.0)
    log_nu2 = p * math.log(3.0) + (1.0 - p) * math.log(4.0)
    return math.log(2.0) / log_nu1 + (2.0 - p) * math.log(2.0) / log_nu2


def test_similarity_dimension_known_roots():
    assert similarity_dimension([0.5, 0.5]).value == pytest.approx(1.0, abs=1e-12)
    assert similarity_dimension([1 / 3, 1 / 3]).value == pytest.approx(
        LOG2_3, abs=1e-12)
    # four quarter-scale pieces fill the plane
    assert similarity_dimension([0.25] * 4).value == pytest.approx(1.0, abs=1e-12)


def test_similarity_dimension_report_fields():
    rep = similarity_dimension([1 / 3, 1 / 3])
    assert rep.equation == "hutchinson"
    assert abs(rep.residual) <= 1e-10
    assert rep.bracket == (0.0, 64.0)


def test_similarity_dimension_input_checks():
    with pytest.raises(UsageError):
        similarity_dimension([])
    with pytest.raises(GeometryDomainError):
        similarity_dimension([1.0])
    with pytest.raises(GeometryDomainError):
        similarity_dimension([0.5, -0.1])


def test_check_weights_messages():
    with pytest.raises(UsageError, match="weights sum"):
        check_weights([0.5, 0.6])
    with pytest.raises(UsageError, match="non-negative"):
        check_weights([1.5, -0.5])
    with pytest.raises(UsageError, match="expected 3"):
        check_weights([1.0], n=3)
    assert check_weights([0.25, 0.75]) == (0.25, 0.75)
    # once a ValueError, a TypeError and an OverflowError
    for bad in (["a"], 0.5, [10 ** 400]):
        with pytest.raises(UsageError, match="must be real numbers"):
            check_weights(bad)
    # a NaN weight is refused, not dropped as an inactive system
    with pytest.raises(UsageError, match="non-negative"):
        check_weights([math.nan, 1.0])
    sierpinski = CarpetSpec(3, 3, tuple((c, r) for r in range(3)
                                        for c in range(3) if (c, r) != (1, 1)))
    grid = CarpetSpec(2, 3, ((0, 0), (1, 1), (0, 2)))
    with pytest.raises(UsageError, match="non-negative"):
        random_carpet_dimension([sierpinski, grid], [math.nan, 1.0])
    with pytest.raises(UsageError, match="non-negative"):
        randomized_similarity_dimension([[0.5, 0.5], [1 / 3, 1 / 3]],
                                        [math.nan, 1.0])


def test_randomized_reduces_to_deterministic():
    ratios = [0.2, 0.3, 0.4]
    det = similarity_dimension(ratios).value
    rand = randomized_similarity_dimension([ratios], [1.0]).value
    assert rand == det


@given(st.lists(st.one_of(st.floats(1e-6, 0.9),
                          st.sampled_from([1e-6, 1e-7])),
                min_size=1, max_size=6))
def test_similarity_dimension_is_the_one_system_randomized_root(ratios):
    # lists of 1e-6 ratios underflow their power sum to 0 before s = 64
    assert similarity_dimension(ratios).value == \
        randomized_similarity_dimension([ratios], [1.0]).value


def test_underflowing_power_sums_still_have_a_root():
    # 1e-6 ** 64 underflows to 0, whose log is -inf, not a domain error
    for ratios in ([1e-6, 1e-6], [1e-7] * 3):
        want = math.log(len(ratios)) / -math.log(ratios[0])
        for rep in (similarity_dimension(ratios),
                    randomized_similarity_dimension([ratios], [1.0])):
            assert rep.value == pytest.approx(want, abs=1e-12)
            assert abs(rep.residual) <= 1e-10


def test_randomized_drops_zero_weight_systems():
    got = randomized_similarity_dimension(
        [[1 / 3, 1 / 3], [0.9]], [1.0, 0.0]).value
    assert got == pytest.approx(LOG2_3, abs=1e-12)


def test_randomized_equal_mix_closed_form():
    # (2 3^-s)^(1/2) (3 3^-s)^(1/2) = 1  <=>  s = log6 / (2 log3)
    got = randomized_similarity_dimension(
        [[1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]], [0.5, 0.5]).value
    assert got == pytest.approx(math.log(6.0) / (2.0 * math.log(3.0)),
                                abs=1e-12)


def test_carpet_spec_validation():
    with pytest.raises(UsageError):
        CarpetSpec(3, 2, ((0, 0),))          # m > n
    with pytest.raises(UsageError):
        CarpetSpec(2, 2, ())
    with pytest.raises(UsageError):
        CarpetSpec(2, 2, ((2, 0),))          # column out of range
    c = CarpetSpec(2, 3, ((0, 0), (0, 2), (1, 1)))
    assert c.column_counts == (2, 1)
    assert c.distinct_cells()
    assert not CarpetSpec(2, 2, ((0, 0), (0, 0))).distinct_cells()


def test_bedford_mcmullen_known_values():
    # both mix carpets land on 1 + log2/log3
    for c in MIX_CARPETS:
        assert bedford_mcmullen_dimension(c) == pytest.approx(
            1.0 + LOG2_3, abs=1e-12)
    # full grid has dimension 2
    full = CarpetSpec(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert bedford_mcmullen_dimension(full) == pytest.approx(2.0, abs=1e-12)
    # single column: n-adic set in one line
    line = CarpetSpec(1, 3, ((0, 0), (0, 2)))
    assert bedford_mcmullen_dimension(line) == pytest.approx(LOG2_3, abs=1e-12)


def test_bedford_mcmullen_rejects_trivial_grid():
    with pytest.raises(GeometryDomainError):
        bedford_mcmullen_dimension(CarpetSpec(1, 1, ((0, 0),)))


def test_random_carpet_uniform_grid_is_linear():
    # same (m, n) for every system makes the mixed value a plain average
    a = CarpetSpec(2, 3, ((0, 0), (1, 1), (1, 2)))
    b = CarpetSpec(2, 3, ((0, 0), (0, 1), (0, 2), (1, 0)))
    w = (0.3, 0.7)
    expect = 0.3 * bedford_mcmullen_dimension(a) + \
        0.7 * bedford_mcmullen_dimension(b)
    assert random_carpet_dimension((a, b), w) == pytest.approx(
        expect, abs=1e-12)


def test_random_carpet_boundary_weights():
    for i, w in enumerate(((1.0, 0.0), (0.0, 1.0))):
        got = random_carpet_dimension(MIX_CARPETS, w)
        assert got == pytest.approx(
            bedford_mcmullen_dimension(MIX_CARPETS[i]), abs=1e-12)


def test_random_carpet_needs_horizontal_contraction():
    line = CarpetSpec(1, 3, ((0, 0), (0, 2)))
    with pytest.raises(GeometryDomainError):
        random_carpet_dimension((line,), (1.0,))


def test_curve_matches_closed_form():
    grid = [(i / 10, 1.0 - i / 10) for i in range(11)]
    rows = carpet_dimension_curve(MIX_CARPETS, grid)
    assert len(rows) == 11
    for (w, dim), (p, _) in zip(rows, grid):
        assert dim == pytest.approx(mix_curve_closed_form(p), abs=1e-9)


def test_curve_rejects_empty_grid():
    with pytest.raises(UsageError):
        carpet_dimension_curve(MIX_CARPETS, [])


def test_minimize_finds_the_analytic_minimum():
    p_star, value = minimize_carpet_dimension(MIX_CARPETS, tol=1e-10)
    assert p_star == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-6)
    assert value == pytest.approx(mix_curve_closed_form(2.0 - math.sqrt(2.0)),
                                  abs=1e-9)
    assert value < min(mix_curve_closed_form(0.0), mix_curve_closed_form(1.0))


def test_minimize_stops_when_tol_is_below_float_spacing(run_isolated):
    # the bracket stops shrinking at one ulp, far above this tol
    code = """
from rifslab import load_corpus, minimize_carpet_dimension
carpets = [c for c in load_corpus("carpet-minimize").rifs.carpets if c is not None]
print(repr(minimize_carpet_dimension(carpets, tol=1e-300)[0]))
"""
    res = run_isolated(code, timeout=60)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-6)


def test_minimize_flat_curve_returns_midpoint():
    c = CarpetSpec(2, 3, ((0, 0), (0, 2), (1, 0), (1, 2)))
    p_star, value = minimize_carpet_dimension((c, c))
    assert p_star == pytest.approx(0.5)
    assert value == pytest.approx(bedford_mcmullen_dimension(c), abs=1e-12)


def test_minimize_needs_two_carpets():
    with pytest.raises(UsageError):
        minimize_carpet_dimension(MIX_CARPETS[:1])
    # a NaN tol would skip the golden-section loop altogether
    for tol in (math.nan, -1e-10):
        with pytest.raises(UsageError, match="tol"):
            minimize_carpet_dimension(MIX_CARPETS, tol=tol)


def test_extremal_bounds_on_interval_systems(cantor_cfg):
    lo, hi, per_system = extremal_ss_bounds(cantor_cfg.rifs)
    assert lo == pytest.approx(LOG2_3, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert len(per_system) == 2


def test_extremal_bounds_refuses_nonlinear_maps(cookie_cfg):
    with pytest.raises(UnsupportedShapeError):
        extremal_ss_bounds(cookie_cfg.rifs)


def test_growth_conditions_strictness():
    halves = Rifs((DeterministicIfs(
        (Similarity(0.5, (0.0,)), Similarity(0.5, (0.5,))), "halves"),),
        unit_box(1))
    rep = check_growth_conditions(halves, 1.0, 1.0)
    # both factors are exactly 1: neither direction gets a witness
    assert rep.factors_minus == (1.0,)
    assert rep.factors_plus == (1.0,)
    assert rep.lip_minus_witness is None
    assert rep.lip_plus_witness is None
    for h, p in ((-0.1, 1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(UsageError):
            check_growth_conditions(halves, h, p)


def test_uosc_grid_flags_duplicates():
    assert check_uosc_grid([CarpetSpec(2, 2, ((0, 0), (1, 1)))])
    assert not check_uosc_grid([CarpetSpec(2, 2, ((0, 0), (0, 0)))])


def test_composition_ratio_products_match_solver():
    # dimension of the product system equals the common value
    maps = [Similarity(1 / 3, (0.0,)), Similarity(1 / 3, (2 / 3,))]
    pair_ratios = [compose([a, b]).lip_hi_bound for a in maps for b in maps]
    assert similarity_dimension(pair_ratios).value == pytest.approx(
        LOG2_3, abs=1e-10)
