import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rifslab import (CarpetSpec, CylinderMeasure, OmegaSeq, PowerGauge,
                     PowerLogGauge, TableGauge, ResourceError, Rifs,
                     Similarity, UsageError, carpet_system, check_msc_grid,
                     cli, corpus_path, cylinder_cover, cylinder_mass,
                     doubling_constants, hausdorff_upper_bound, level_masses,
                     load_corpus, mdp_bounds, packing_lower_bound,
                     resolution_depth)
from rifslab import model
from rifslab.geometry import unit_box
from rifslab.measure import _INNER_SLACK
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
    for s in (0.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            PowerGauge(s)


def test_power_log_gauge_monotone_and_vanishing():
    g = PowerLogGauge(0.7)
    assert g(0.0) == 0.0
    t = np.geomspace(1e-12, 10.0, 400)
    vals = np.asarray(g(t))
    assert np.all(np.diff(vals) > 0.0)
    # below the cap the raw formula applies
    assert g(1e-6) == pytest.approx(1e-6 ** 0.7 * math.log(1e6))
    # below about 0.0027 the slope t0 ** (s - 1) overflows, or t0 = e^(-2/s)
    # underflows to 0 and it divides by zero
    for s in (0.0, math.nan, math.inf, 0.0028, 0.001):
        with pytest.raises(UsageError):
            PowerLogGauge(s)


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
    # a NaN knot fails every compare, so it is refused, not interpolated
    for knots in ([(0.1, math.nan), (1.0, 1.0)], [(math.nan, 0.1), (1.0, 1.0)],
                  [(0.1, 0.2), (math.nan, 1.0)], [(math.nan, 1.0)]):
        with pytest.raises(UsageError):
            TableGauge(knots)
    # an infinite knot or value is refused too, not weighed with a warning
    for knots in ([(0.1, 0.2), (math.inf, 1.0)], [(math.inf, 1.0)],
                  [(0.1, 0.2), (1.0, math.inf)], [(0.1, math.inf)]):
        with pytest.raises(UsageError):
            TableGauge(knots)


@pytest.mark.parametrize("gauge", [
    PowerGauge(1.0), PowerLogGauge(0.7), TableGauge([(1.0, 2.0), (2.0, 3.0)]),
], ids=["power", "power_log", "table"])
def test_gauges_reject_nan_diameters(gauge):
    # a NaN diameter used to weigh 0 and drop out of a cover mass unseen
    with pytest.raises(UsageError, match="NaN"):
        gauge(np.array([np.nan, 0.5]))
    with pytest.raises(UsageError, match="NaN"):
        gauge(math.nan)
    # an infinite diameter still weighs infinity
    assert gauge(math.inf) == math.inf
    assert np.asarray(gauge(np.array([math.inf, 1.0])))[0] == math.inf


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
    for gauge in (PowerGauge(1.0), PowerLogGauge(0.8)):
        for diameter in (math.nan, math.inf):
            with pytest.raises(UsageError, match="diameter must be"):
                doubling_constants(gauge, 0.5, diameter)
    assert doubling_constants(PowerGauge(1.0), 1.0, 1.0).d_plus == 1.0
    table = TableGauge([(0.1, 0.2), (1.0, 1.0)])
    for samples in (0, -3, 2.5, True):
        with pytest.raises(UsageError, match="samples"):
            doubling_constants(table, 0.5, 1.0, samples)
    assert doubling_constants(table, 0.5, 1.0, 1).samples == 1


@pytest.mark.parametrize("gauge, scale", [
    (TableGauge([(0.5, 0.0), (1.0, 1.0)]), "0.499425"),
    # t^200 underflows to 0 below about 0.024
    (PowerLogGauge(200.0), "0.024079"),
])
def test_doubling_refuses_a_gauge_that_is_zero_at_a_sampled_scale(gauge,
                                                                   scale):
    with pytest.raises(UsageError,
                       match=f"is 0 at sampled scale t = {scale}"):
        doubling_constants(gauge, 0.5, 1.0)


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
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(UsageError, match="delta"):
            packing_lower_bound(pts, PowerGauge(1.0), delta)
    # a NaN point would win every argmax and stop the packing at 1
    line = [[0.0], [5.0], [10.0]]
    assert packing_lower_bound(line, PowerGauge(1.0), 1.0).count == 3
    for bad in (math.nan, math.inf):
        with pytest.raises(UsageError, match="finite"):
            packing_lower_bound(line[:1] + [[bad]] + line[1:],
                                PowerGauge(1.0), 1.0)


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
        assert m == cylinder_mass(cm, word)


def test_cylinder_mass_multiplies_as_the_walk():
    # both multiply innermost first, so they agree bit for bit; outermost
    # first, 3282 of these 5832 masses differ in the last bit
    ratios = ((0.3, 0.45, 0.1), (0.37, 0.21))
    shifts = ((0.0, 0.3, 0.8), (0.0, 0.5))
    rifs = Rifs(tuple(
        DeterministicIfs(tuple(Similarity(r, (t,)) for r, t in zip(rs, ts)),
                         f"s{i}")
        for i, (rs, ts) in enumerate(zip(ratios, shifts))), unit_box(1))
    om = OmegaSeq((1,), (2, 1, 1))
    cm = CylinderMeasure(rifs, om, (0.77, 1.3))
    masses = level_masses(cm, 9)
    counts = [len(rifs.system_for_level(om, l).maps) for l in range(1, 10)]
    words = itertools.product(*(range(c) for c in counts))
    got = np.array([cylinder_mass(cm, word) for word in words])
    assert got.tobytes() == masses.tobytes()


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
    # a NaN exponent made mdp_bounds report an empty bracket; it is
    # refused up front, as are negative and infinite ones
    for bad in (math.nan, -0.5, math.inf):
        with pytest.raises(UsageError, match="exponents"):
            CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega, (0.5, bad))


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


@pytest.mark.parametrize("s, radius", [(300.0, 1.0 / 81.0), (2.0, 1e200)])
def test_mdp_rejects_scale_out_of_float_range(cantor_cfg, s, radius):
    # r**s underflows to 0 or overflows; a budget of 1 shows the check
    # comes before any cover is built
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    message = re.escape(f"radius {radius!r} to the power s")
    with pytest.raises(UsageError, match=message):
        mdp_bounds(cm, s, (0.5, radius), [(0.5,)], budget=1)


@pytest.mark.parametrize("s, radii", [("300", None), ("2", ["1e200"])])
def test_cli_rejects_scale_out_of_float_range(tmp_path, capsys, s, radii):
    doc = json.loads(Path(corpus_path("cantor-measure")).read_text())
    doc["task"]["s"] = s
    if radii is not None:
        doc["task"]["radii"] = radii
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert "is not a positive finite float" in capsys.readouterr().err


def test_mdp_packing_bound_beyond_float_range(cantor_cfg):
    # 2**s overflows while every r**s is a positive float
    cm = CylinderMeasure(cantor_cfg.rifs, cantor_cfg.omega)
    rep = mdp_bounds(cm, 2000.0, (0.999,), [(0.5,)])
    assert rep.p_upper == math.inf


# --- pruned ball masses against the flat scan -----------------------------


def _flat_mdp(cm, radii, points):
    """The flat scan that mdp_bounds replaced: every cylinder against every
    ball.  Returns the depth and the report rows."""
    depth = resolution_depth(cm.rifs, cm.omega, min(radii) / 4.0)
    cover = cylinder_cover(cm.rifs, cm.omega, depth)
    masses = level_masses(cm, depth)
    lo = cover.boxes[:, :, 0]
    hi = cover.boxes[:, :, 1]
    rows = []
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        near2 = (gap ** 2).sum(axis=1)
        far = np.maximum(np.abs(x - lo), np.abs(hi - x))
        far2 = (far ** 2).sum(axis=1)
        for r in radii:
            outer = math.fsum(masses[near2 <= r * r])
            rin = r * _INNER_SLACK
            inner = math.fsum(masses[far2 <= rin * rin])
            rows.append((tuple(float(v) for v in x), r, outer, inner))
    return depth, tuple(rows)


def _carpet_mix():
    sierpinski = tuple((c, r) for r in range(3) for c in range(3)
                       if (c, r) != (1, 1))
    return Rifs((carpet_system(CarpetSpec(3, 3, sierpinski), "sierpinski"),
                 carpet_system(CarpetSpec(2, 3, ((0, 0), (1, 1), (0, 2))),
                               "grid")), unit_box(2))


MDP_SYSTEMS = {
    "cantor": lambda: (load_corpus("cantor").rifs, False),
    "carpet-mix": lambda: (_carpet_mix(), False),
    "shear-arch": lambda: (load_corpus("pictorial-b").rifs, True),
}


@pytest.mark.parametrize("system", sorted(MDP_SYSTEMS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pruned_mdp_bounds_equal_flat_scan(system, data):
    rifs, explicit = MDP_SYSTEMS[system]()
    n = len(rifs.systems)
    omega = OmegaSeq(
        tuple(data.draw(st.lists(st.integers(1, n), max_size=4))),
        tuple(data.draw(st.permutations(range(1, n + 1)))))
    exponents = tuple(data.draw(st.lists(st.floats(0.3, 2.5), min_size=n,
                                         max_size=n))) if explicit else ()
    cm = CylinderMeasure(rifs, omega, exponents)
    diam = rifs.ambient.diameter
    # smallest radius from twice the ambient diameter down to diam/48
    r0 = diam * 2.0 ** data.draw(st.floats(-5.6, 1.0))
    depth = resolution_depth(rifs, omega, r0 / 4.0)
    boxes = cylinder_cover(rifs, omega, depth).boxes
    dim = rifs.ambient.dim
    index = st.integers(0, len(boxes) - 1)

    def corner():
        i = data.draw(index)
        return np.array([boxes[i, a, data.draw(st.integers(0, 1))]
                         for a in range(dim)])

    lo = np.array(rifs.ambient.lo) - diam / 2
    hi = np.array(rifs.ambient.hi) + diam / 2
    outside = [np.array([data.draw(st.floats(lo[a], hi[a]))
                         for a in range(dim)]) for _ in range(2)]
    points = [corner() for _ in range(3)] + outside
    # radii equal to exact corner distances: along one axis, and Euclidean
    radii = [r0]
    for p in points[:3]:
        c = corner()
        a = data.draw(st.integers(0, dim - 1))
        radii += [abs(float(p[a] - c[a])),
                  float(np.sqrt(((p - c) ** 2).sum()))]
    radii = [r for r in radii if r >= r0]

    # streamed chunks of one leaf up to the whole cover; chunks of a few
    # leaves are walked one by one, so only on covers of a few thousand
    small = (1, 2, 3, 7) if len(boxes) <= 5000 else ()
    target = data.draw(st.sampled_from(small + (model._CHUNK_LEAVES,)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", target)
        rep = mdp_bounds(cm, 1.5, radii, points)
    assert (rep.depth, rep.rows) == _flat_mdp(cm, radii, points)


def test_deep_mdp_bounds_stream_the_cover(run_isolated):
    # depth 10, 7.96M cylinders: the whole cover, its masses and hull tree
    # took 438 MB, and the streamed cover with every mass 185 MB; with the
    # masses streamed too, one chunk and the blocks found are held (114 MB,
    # numpy's import included)
    code = """
import numpy as np
from rifslab import CarpetSpec, CylinderMeasure, OmegaSeq, Rifs, mdp_bounds
from rifslab import carpet_system
from rifslab.geometry import unit_box
cells = tuple((c, r) for r in range(3) for c in range(3) if (c, r) != (1, 1))
rifs = Rifs((carpet_system(CarpetSpec(3, 3, cells), "sierpinski"),
             carpet_system(CarpetSpec(2, 3, ((0, 0), (1, 1), (0, 2))),
                           "grid")), unit_box(2))
cm = CylinderMeasure(rifs, OmegaSeq((), (1, 2)))
pts = np.random.default_rng(0).random((20, 2))
rep = mdp_bounds(cm, 1.5, [3.0 ** -5, 3.0 ** -6], pts)
print(rep.depth, len(rep.rows), all(o >= i for _, _, o, i in rep.rows))
"""
    res = run_isolated(code, timeout=120, max_bytes=150 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["10", "40", "True"]


def test_pruned_mdp_bounds_keep_tangent_cylinders(cantor_cfg):
    # a ball about 0 whose radius is the float left end of a depth-5
    # cylinder touches it (near2 == r*r exactly), so that cylinder and the
    # hulls holding it count in the outer mass
    cm = CylinderMeasure(cantor_cfg.rifs, OmegaSeq((), (1, 2)))
    boxes = cylinder_cover(cm.rifs, cm.omega, 5).boxes
    radii = (float(boxes[-1, 0, 0]), float(boxes[len(boxes) // 2, 0, 0]),
             1.0 / 27.0)
    rep = mdp_bounds(cm, LOG2_3, radii, [(0.0,), (1.0,)])
    assert rep.depth == 5
    assert rep.rows == _flat_mdp(cm, radii, [(0.0,), (1.0,)])[1]


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
    with pytest.raises(UsageError, match="must be an integer, not 2.5"):
        check_msc_grid([CarpetSpec(3, 3, ((0, 0), (2, 2)))],
                       OmegaSeq((), (1,)), 2.5)


def _enumerated_msc_grid(carpets, omega, depth):
    """check_msc_grid by brute force: refine every level's set of product
    grid cells and look for a cell two words share."""
    if depth < 0:
        raise UsageError("depth must be non-negative")
    cells = {(0, 0)}
    for level in range(1, depth + 1):
        idx = omega.entry(level)
        if not (1 <= idx <= len(carpets)):
            raise UsageError(f"sequence entry {idx} has no carpet")
        carpet = carpets[idx - 1]
        refined = set()
        for col, row in cells:
            for c, r in carpet.chosen:
                child = (col * carpet.m + c, row * carpet.n + r)
                if child in refined:
                    return False
                refined.add(child)
        cells = refined
    return True


@st.composite
def _grid_cases(draw):
    carpets = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        m = draw(st.integers(1, n))
        cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        carpets.append(CarpetSpec(m, n, tuple(
            draw(st.lists(cell, min_size=1, max_size=4)))))
    # one index past the carpets, so the entry check is reached as well
    entry = st.integers(1, len(carpets) + 1)
    omega = OmegaSeq(tuple(draw(st.lists(entry, max_size=3))),
                     tuple(draw(st.lists(entry, min_size=1, max_size=3))))
    return carpets, omega, draw(st.integers(-1, 5))


def _grid_outcome(check, carpets, omega, depth):
    try:
        return check(carpets, omega, depth)
    except UsageError as exc:
        return str(exc)


@given(_grid_cases())
def test_msc_grid_equals_cell_enumeration(case):
    assert _grid_outcome(check_msc_grid, *case) == \
        _grid_outcome(_enumerated_msc_grid, *case)


def test_msc_grid_checks_deep_carpets_per_level(run_isolated):
    # enumerating the depth-12 Sierpinski carpet holds 8^12 cells; past
    # one prefix and cycle the levels repeat, so depth 10^12 checks one
    code = """
from rifslab import CarpetSpec, OmegaSeq, check_msc_grid
cells = tuple((c, r) for r in range(3) for c in range(3) if (c, r) != (1, 1))
sierpinski = CarpetSpec(3, 3, cells)
print(check_msc_grid([sierpinski], OmegaSeq((), (1,)), 12),
      check_msc_grid([sierpinski, CarpetSpec(2, 2, cells[:1] * 2)],
                     OmegaSeq((1,) * 11, (2,)), 12),
      check_msc_grid([sierpinski], OmegaSeq((), (1,)), 10 ** 12))
"""
    res = run_isolated(code, timeout=30, max_bytes=300 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "False", "True"]
