import itertools
import math

import numpy as np
import pytest

from rifslab import (CarpetSpec, CylinderMeasure, OmegaSeq, PowerGauge,
                     PowerLogGauge, TableGauge, ResourceError, Rifs,
                     Similarity, UsageError, check_msc_grid, cylinder_cover,
                     cylinder_mass, doubling_constants, hausdorff_upper_bound,
                     level_masses, mdp_bounds, packing_lower_bound)
from rifslab.model import DeterministicIfs

LOG2_3 = math.log(2.0) / math.log(3.0)


# --- gauges -------------------------------------------------------------


def test_power_gauge_basics():
    g = PowerGauge(0.5)
    assert g(0.0) == 0.0
    assert g(0.25) == 0.5
    assert g.label == "power[0.5]"
    out = g(np.array([0.0, 1.0, 4.0]))
    assert out.tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(UsageError):
        g(-1.0)
    with pytest.raises(UsageError):
        PowerGauge(0.0)


def test_power_log_gauge_monotone_and_vanishing():
    g = PowerLogGauge(0.7)
    assert g(0.0) == 0.0
    t = np.geomspace(1e-12, 10.0, 400)
    vals = np.asarray(g(t))
    assert np.all(np.diff(vals) > 0.0)
    # below the cap the raw formula applies
    assert g(1e-6) == pytest.approx(1e-6 ** 0.7 * math.log(1e6))


def test_table_gauge_interpolation_and_tails():
    g = TableGauge([(1.0, 2.0), (2.0, 3.0)])
    assert g(1.5) == pytest.approx(2.5)
    assert g(0.5) == pytest.approx(1.0)     # chord through the origin
    assert g(3.0) == pytest.approx(4.0)     # last slope continues
    assert g(0.0) == 0.0


def test_table_gauge_rejects_non_monotone():
    with pytest.raises(UsageError):
        TableGauge([(1.0, 2.0), (2.0, 1.0)])
    with pytest.raises(UsageError):
        TableGauge([(0.0, 0.5)])
    with pytest.raises(UsageError):
        TableGauge([])


def test_doubling_power_is_exact():
    rep = doubling_constants(PowerGauge(LOG2_3), 0.5, 1.0)
    assert rep.d_minus == rep.d_plus == 0.5 ** LOG2_3
    assert rep.samples == 0


@pytest.mark.parametrize("gauge", [PowerLogGauge(0.8),
                                   TableGauge([(0.1, 0.2), (1.0, 0.9)])])
def test_doubling_envelope_contains_sampled_ratios(gauge):
    c = 0.37
    rep = doubling_constants(gauge, c, 2.0)
    t = np.geomspace(1e-9 * 2.0, 2.0, 500)
    ratios = np.asarray(gauge(c * t)) / np.asarray(gauge(t))
    assert np.all(ratios >= rep.d_minus - 1e-12)
    assert np.all(ratios <= rep.d_plus + 1e-12)


def test_doubling_input_checks():
    with pytest.raises(UsageError):
        doubling_constants(PowerGauge(1.0), 0.0, 1.0)
    with pytest.raises(UsageError):
        doubling_constants(PowerGauge(1.0), 0.5, 0.0)
    assert doubling_constants(PowerGauge(1.0), 1.0, 1.0).d_plus == 1.0


# --- cover and packing bounds -------------------------------------------


def test_cover_bound_accepts_three_input_forms(cantor_cfg):
    cover = cylinder_cover(cantor_cfg.rifs, cantor_cfg.omega, 3)
    g = PowerGauge(LOG2_3)
    from_cover = hausdorff_upper_bound(cover, g)
    from_diams = hausdorff_upper_bound(cover.diameters(), g)
    from_boxes = hausdorff_upper_bound(cover.boxes, g)
    assert from_cover == from_diams
    assert from_boxes == pytest.approx(from_cover, rel=1e-12)
    with pytest.raises(UsageError):
        hausdorff_upper_bound(np.zeros((2, 2, 2, 2)), g)


def test_cover_bound_scales_exactly_for_dyadic_ratios():
    diams = np.array([0.5, 0.25, 0.125, 0.0625])
    g = PowerGauge(0.5)
    assert hausdorff_upper_bound(0.25 * diams, g) == \
        0.5 * hausdorff_upper_bound(diams, g)


def test_cover_bound_scales_with_gauge_power_generic():
    diams = np.linspace(0.01, 0.4, 37)
    s = LOG2_3
    c = 1.0 / 3.0
    got = hausdorff_upper_bound(c * diams, PowerGauge(s))
    assert got == pytest.approx(c ** s * hausdorff_upper_bound(
        diams, PowerGauge(s)), rel=1e-12)


def test_packing_greedy_on_square_corners():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
    rep = packing_lower_bound(pts, PowerGauge(1.0), 0.9)
    # all four corners are pairwise > 0.9 apart; the center is not
    assert rep.count == 4
    assert rep.gauge_value == pytest.approx(4 * 0.9)
    single = packing_lower_bound(pts, PowerGauge(1.0), 2.0)
    assert single.count == 1
    with pytest.raises(UsageError):
        packing_lower_bound(pts, PowerGauge(1.0), 0.0)


def test_cover_packing_sandwich(cantor_cfg):
    # packing count * G(delta) stays within 2^s of the cover bound
    g = PowerGauge(LOG2_3)
    cover = cylinder_cover(cantor_cfg.rifs, cantor_cfg.omega, 6)
    upper = hausdorff_upper_bound(cover, g)
    centers = 0.5 * (cover.boxes[:, :, 0] + cover.boxes[:, :, 1])
    lower = packing_lower_bound(centers, g, 3.0 ** -6)
    assert lower.gauge_value <= 2.0 ** LOG2_3 * upper + 1e-12


# --- cylinder measures ---------------------------------------------------


def test_default_exponents_solve_per_system(cantor_cfg):
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    assert cm.exponents[0] == pytest.approx(LOG2_3, abs=1e-12)
    assert cm.exponents[1] == pytest.approx(1.0, abs=1e-12)
    assert cm.factors(1).tolist() == pytest.approx([0.5, 0.5])


def test_cylinder_mass_products(cantor_cfg):
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    assert cylinder_mass(cm, ()) == 1.0
    assert cylinder_mass(cm, (0,)) == pytest.approx(0.5)
    assert cylinder_mass(cm, (0, 1)) == pytest.approx(0.25)
    with pytest.raises(UsageError):
        cylinder_mass(cm, (5,))


def test_halving_measure_on_column_carpets(packing_cfg):
    # each level splits mass in half, so a depth-k word carries 2^-k
    cm = CylinderMeasure(packing_cfg.rifs, packing_cfg.omega)
    for k in range(1, 7):
        assert cylinder_mass(cm, (0,) * k) == pytest.approx(2.0 ** -k)


def test_level_masses_align_with_cover(cantor_cfg):
    # unequal ratios along a non-constant sequence, so every level's order
    # shows in the masses
    uneven = DeterministicIfs(
        (Similarity(0.5, (0.0,)), Similarity(0.25, (0.75,))), "uneven")
    rifs = Rifs((uneven, cantor_cfg.rifs.systems[1]), cantor_cfg.rifs.ambient)
    om = OmegaSeq((2,), (1, 1, 2))
    cm = CylinderMeasure(rifs, om)
    masses = level_masses(cm, 5)
    cover = cylinder_cover(rifs, om, 5)
    assert masses.shape[0] == cover.count
    counts = [len(rifs.system_for_level(om, l).maps) for l in range(1, 6)]
    words = list(itertools.product(*(range(c) for c in counts)))
    assert len(words) == cover.count
    for word, m in zip(words, masses):
        assert m == pytest.approx(cylinder_mass(cm, word), rel=1e-12)


def test_parent_mass_equals_child_sum(cantor_cfg):
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    parents = level_masses(cm, 3)
    children = level_masses(cm, 4)
    branch = children.shape[0] // parents.shape[0]
    sums = children.reshape(parents.shape[0], branch).sum(axis=1)
    assert np.allclose(sums, parents, rtol=1e-12, atol=0.0)


def test_exponent_count_must_match(cantor_cfg):
    with pytest.raises(UsageError):
        CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega, (0.5,))


def test_level_masses_budget(cantor_cfg):
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    with pytest.raises(ResourceError):
        level_masses(cm, 10, budget=100)
    with pytest.raises(UsageError):
        level_masses(cm, 0)


def test_mdp_bounds_on_cantor(cantor_cfg):
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    rep = mdp_bounds(cm, LOG2_3, (1.0 / 9.0, 1.0 / 27.0),
                     [(0.0,), (1.0,), (0.5,)])
    assert 0.0 < rep.h_lower <= 1.0 + 1e-12
    assert rep.lambda_sup >= 1.0 - 1e-12
    assert rep.p_upper >= 1.0
    assert len(rep.rows) == 3 * 2


def test_mdp_input_checks(cantor_cfg):
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    with pytest.raises(UsageError):
        mdp_bounds(cm, 0.0, (0.1,), [(0.5,)])
    with pytest.raises(UsageError):
        mdp_bounds(cm, 1.0, (), [(0.5,)])
    with pytest.raises(UsageError):
        mdp_bounds(cm, 1.0, (0.1,), [(0.5, 0.5)])
    # a NaN point or radius fails every ball test and would zero lambda_inf
    for s, radii, points in ((math.nan, (0.1,), [(0.5,)]),
                             (math.inf, (0.1,), [(0.5,)]),
                             (1.0, (math.nan,), [(0.5,)]),
                             (1.0, (0.1, math.inf), [(0.5,)]),
                             (1.0, (0.1,), [(math.nan,)]),
                             (1.0, (0.1,), [(0.5,), (-math.inf,)])):
        with pytest.raises(UsageError, match="finite"):
            mdp_bounds(cm, s, radii, points)


# --- grid separation ------------------------------------------------------


def test_msc_grid_accepts_disjoint_cells():
    carpets = [CarpetSpec(1, 3, ((0, 0), (0, 2))),
               CarpetSpec(1, 3, ((0, 0), (0, 1), (0, 2)))]
    om = OmegaSeq((1,), (2, 1))
    assert check_msc_grid(carpets, om, 8)
    assert check_msc_grid(carpets, om, 0)


def test_msc_grid_rejects_duplicated_cell():
    dup = CarpetSpec(2, 2, ((0, 0), (0, 0)))
    assert not check_msc_grid([dup], OmegaSeq((), (1,)), 2)


def test_msc_grid_input_checks():
    c = CarpetSpec(2, 2, ((0, 0),))
    with pytest.raises(UsageError):
        check_msc_grid([c], OmegaSeq((), (1,)), -1)
    with pytest.raises(UsageError):
        check_msc_grid([c], OmegaSeq((), (2,)), 3)
