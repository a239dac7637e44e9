import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rifslab import (Affine2, AmbientBox, ClosedFormMap, Similarity,
                     UsageError, unit_box)
from rifslab.geometry import CLOSED_FORMS, _singular_bounds

from composition import compose


def _corners(box):
    """The four corners of a 2-D box."""
    (x0, y0), (x1, y1) = box.lo, box.hi
    return np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])


def test_unit_box_properties():
    b = unit_box(2)
    assert b.dim == 2
    assert b.diameter == pytest.approx(math.sqrt(2.0))
    assert b.center == (0.5, 0.5)
    assert _corners(b).shape == (4, 2)


def test_box_rejects_bad_bounds():
    with pytest.raises(UsageError):
        AmbientBox((0.0, 0.0), (1.0,))
    with pytest.raises(UsageError):
        AmbientBox((0.0,), (0.0,))
    with pytest.raises(UsageError):
        AmbientBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    # once a box of diameter inf, a TypeError and a NaN centre
    for lo, hi in (((0.0,), (math.inf,)), ((0,), ("a",)),
                   ((math.nan, 0.0), (1.0, 1.0)), ((0,), (10 ** 400,))):
        with pytest.raises(UsageError, match="must be finite real numbers"):
            AmbientBox(lo, hi)


def test_similarity_1d_evaluation():
    m = Similarity(1.0 / 3.0, (2.0 / 3.0,))
    out = m.apply_array(np.array([[0.0], [1.0]]))
    assert out[:, 0] == pytest.approx([2.0 / 3.0, 1.0])
    assert m.lip_lo == m.lip_hi == pytest.approx(1.0 / 3.0)


def test_similarity_reflection_and_rotation():
    # quarter turn of the unit square scaled by 1/2 about the origin
    rot = Similarity(0.5, (0.5, 0.0), rotation_deg=90.0)
    x, y = rot.apply_array(np.array([[1.0, 0.0]]))[0]
    assert x == pytest.approx(0.5)
    assert y == pytest.approx(0.5)
    refl = Similarity(0.5, (0.5,), reflect=True)
    assert refl.apply_array(np.array([[1.0]]))[0, 0] == pytest.approx(0.0)


def test_similarity_rejects_1d_rotation():
    with pytest.raises(UsageError):
        Similarity(0.5, (0.0,), rotation_deg=30.0)


def test_similarity_ratio_must_contract():
    with pytest.raises(UsageError):
        Similarity(1.0, (0.0,))
    with pytest.raises(UsageError):
        Similarity(0.0, (0.0,))


def test_affine2_lipschitz_is_singular_values():
    m = Affine2([[0.5, 0.0], [0.0, 0.25]], (0.0, 0.0))
    assert m.lip_hi == pytest.approx(0.5)
    assert m.lip_lo == pytest.approx(0.25)


def test_affine2_diagonal_bounds_are_its_entries():
    m = Affine2([[1.0 / 6.0, 0.0], [0.0, -1.0 / 9.0]], (0.5, 0.5))
    assert (m.lip_lo, m.lip_hi) == (1.0 / 9.0, 1.0 / 6.0)


def test_affine2_refuses_a_singular_matrix():
    with pytest.raises(UsageError, match="Lipschitz"):
        Affine2([[0.3, 0.1], [0.3, 0.1]], (0.0, 0.0))


_SQUARE = [[0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize("make", [
    lambda: Affine2(0.5, (0.1, 0.2)),
    lambda: Affine2(np.full((2, 2, 1), 0.5), (0.1, 0.2)),
    lambda: Affine2(_SQUARE, (0.1,)),
    lambda: Affine2(_SQUARE, (0.1, 0.2, 0.3)),
    lambda: Affine2([[math.nan, 0.0], [0.0, 0.5]], (0.1, 0.2)),
    lambda: Affine2([[0.5, math.inf], [0.0, 0.5]], (0.1, 0.2)),
    lambda: Affine2(_SQUARE, (math.nan, 0.2)),
    lambda: Affine2(_SQUARE, (0.1, math.inf)),
    lambda: Similarity(0.5, (math.nan, 0.2)),
    lambda: Similarity(0.5, (-math.inf,)),
    lambda: Similarity(0.5, (0.1, 0.2), rotation_deg=math.inf),
    lambda: Similarity(0.5, (0.1, 0.2), rotation_deg=math.nan),
], ids=["scalar-matrix", "deep-matrix", "short-shift", "long-shift",
        "nan-entry", "inf-entry", "nan-shift", "inf-shift",
        "similarity-nan-shift", "similarity-inf-shift", "inf-rotation",
        "nan-rotation"])
def test_affine_maps_refuse_bad_shapes_and_non_finite_entries(make):
    with pytest.raises(UsageError):
        make()


def _squared_singular_values(matrix):
    """(t, det^2): sigma_min^2 and sigma_max^2 are the roots of
    y^2 - t y + det^2, t the squared Frobenius norm, in exact rationals."""
    (a, b), (c, d) = ((Fraction(v) for v in row) for row in matrix)
    return a * a + b * b + c * c + d * d, (a * d - b * c) ** 2


def _below_sigma_min(x, t, det2):
    y = Fraction(x) ** 2
    return y <= t / 2 and y * y - t * y + det2 >= 0


def _above_sigma_max(x, t, det2):
    y = Fraction(x) ** 2
    return y >= t / 2 and y * y - t * y + det2 >= 0


@given(hnp.arrays(np.float64, (2, 2),
                  elements=st.just(0.0) | st.floats(-0.45, 0.45)))
@settings(deadline=None)
def test_affine2_bounds_are_the_singular_values_rounded_outward(matrix):
    lo, hi = _singular_bounds(matrix.tolist())
    t, det2 = _squared_singular_values(matrix)
    # exact in rationals: the bounds hold, and the float next inside each
    # one does not
    assert _below_sigma_min(lo, t, det2) and _above_sigma_max(hi, t, det2)
    assert not _below_sigma_min(math.nextafter(lo, 1.0), t, det2)
    assert hi == 0.0 or not _above_sigma_max(math.nextafter(hi, 0.0), t, det2)
    if lo > 0.0:
        m = Affine2(matrix, (0.0, 0.0))
        assert (m.lip_lo, m.lip_hi) == (lo, hi)
    else:
        with pytest.raises(UsageError):
            Affine2(matrix, (0.0, 0.0))
    # LAPACK as an oracle only, where its own error is small: it differs
    # from the exact values by up to about 6 ulps of sigma_max on
    # matrices of condition number below 2
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[0] >= 1e-3 and sv[0] <= 4.0 * sv[1]:
        tol = 8.0 * math.ulp(sv[0])
        assert abs(hi - sv[0]) <= tol and abs(lo - sv[1]) <= tol


def test_affine2_image_box_exact():
    m = Affine2([[0.5, 0.0], [0.0, 0.25]], (0.5, 0.75))
    boxes = unit_box(2).as_array()[None, :, :]
    out = m.image_box_array(boxes)[0]
    assert out[0].tolist() == [0.5, 1.0]
    assert out[1].tolist() == [0.75, 1.0]


def test_rotated_image_box_bounds_corners():
    m = Similarity(0.5, (0.5, 0.25), rotation_deg=30.0)
    boxes = unit_box(2).as_array()[None, :, :]
    out = m.image_box_array(boxes)[0]
    corners = _corners(unit_box(2))
    moved = m.apply_array(corners)
    assert np.all(moved[:, 0] >= out[0, 0] - 1e-12)
    assert np.all(moved[:, 0] <= out[0, 1] + 1e-12)
    assert np.all(moved[:, 1] >= out[1, 0] - 1e-12)
    assert np.all(moved[:, 1] <= out[1, 1] + 1e-12)


def _corner_image_boxes(linear, shift, boxes):
    """Min/max of every mapped corner of each box."""
    dim = boxes.shape[1]
    corners = np.stack([boxes[:, np.arange(dim), np.array(pick)]
                        for pick in itertools.product((0, 1), repeat=dim)],
                       axis=1)
    moved = corners @ linear.T + shift
    return np.stack([moved.min(axis=1), moved.max(axis=1)], axis=-1)


@st.composite
def diagonal_map_cases(draw):
    dim = draw(st.sampled_from((1, 2)))
    ratios = [draw(st.floats(0.05, 0.95)) for _ in range(dim)]
    flips = [draw(st.booleans()) for _ in range(dim)]
    shift = tuple(draw(st.just(0.0) | st.floats(-1.0, 1.0))
                  for _ in range(dim))
    similarity = dim == 1 or draw(st.booleans())
    if similarity and dim == 2:
        # one ratio, and only the x axis may be reflected
        ratios[1], flips[1] = ratios[0], False
    linear = np.diag([-r if f else r for r, f in zip(ratios, flips)])
    m = (Similarity(ratios[0], shift, reflect=flips[0]) if similarity
         else Affine2(linear, shift))
    n = draw(st.integers(1, 8))
    ends = draw(hnp.arrays(np.float64, (n, dim, 2),
                           elements=st.just(0.0) | st.floats(-2.0, 2.0)))
    return m, linear, np.asarray(shift), np.sort(ends, axis=-1)


@given(diagonal_map_cases())
@settings(deadline=None)
def test_diagonal_maps_image_boxes_equal_the_corner_formula(case):
    m, linear, shift, boxes = case
    assert np.array_equal(m.image_box_array(boxes),
                          _corner_image_boxes(linear, shift, boxes))


def test_shear_image_boxes_bound_every_corner():
    m = Affine2([[0.5, 0.25], [0.0, 0.5]], (0.1, 0.2))
    boxes = np.sort(np.random.default_rng(3).uniform(-1, 1, (50, 2, 2)))
    assert np.array_equal(m.image_box_array(boxes),
                          _corner_image_boxes(m.matrix, m.translation, boxes))


@st.composite
def affine_box_cases(draw):
    """An affine map and a box of its dimension: 1-D similarities with
    and without reflection, 2-D similarities at any rotation, reflected or
    not, and Affine2 maps whose entries may be negative or 0."""
    dim = draw(st.sampled_from((1, 2)))
    lo = tuple(draw(st.floats(-1.0, 0.0)) for _ in range(dim))
    box = AmbientBox(lo, tuple(l + draw(st.floats(0.5, 2.0)) for l in lo))
    shift = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(dim))
    if dim == 2 and draw(st.booleans()):
        matrix = draw(hnp.arrays(np.float64, (2, 2), elements=st.just(0.0)
                                 | st.floats(-0.45, 0.45)))
        assume(_singular_bounds(matrix.tolist())[0] > 0.0)
        return Affine2(matrix, shift), box
    rotation = draw(st.floats(-360.0, 360.0)) if dim == 2 else 0.0
    return Similarity(draw(st.floats(0.05, 0.95)), shift, rotation,
                      draw(st.booleans())), box


def box_contains(box, pts):
    """Whether every point lies in the box, compared exactly."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return bool(np.all(pts >= np.asarray(box.lo))
                and np.all(pts <= np.asarray(box.hi)))


@st.composite
def closed_form_box_cases(draw):
    """A closed-form map and a box of its dimension, each end anywhere in
    [-3, 3], outside the formulas' domains too, or at a turning point, a
    domain edge or a signed zero."""
    m = ClosedFormMap(draw(st.sampled_from(sorted(CLOSED_FORMS))))
    ends = st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, 1.25)) \
        | st.floats(-3.0, 3.0)
    axes = [sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
            for _ in range(m.dim)]
    return m, AmbientBox(*zip(*axes))


@given(affine_box_cases() | closed_form_box_cases())
# signed zeros added up, np.minimum(-0.0, 0.0) giving 0.0, a nan at
# either end
@example((ClosedFormMap("arch_left"), AmbientBox((-0.0, -0.0), (0.25, 0.25))))
@example((ClosedFormMap("arch_left"), AmbientBox((-0.0, -0.0), (1.0, 1.0))))
@example((ClosedFormMap("cookie_branch_2_5_left"), AmbientBox((1.0,), (2.0,))))
@example((ClosedFormMap("cookie_branch_6_9_left"),
          AmbientBox((-2.0,), (0.0,))))
@settings(deadline=None)
def test_image_box_in_floats_is_the_array_kernels(case):
    # Rifs checks containment through image_box, in Python floats: the
    # same floats as image_box_array, bit for bit, wherever it holds no
    # nan, a nan wherever it holds one (a closed form outside its
    # domain), and so the same decision as the array check of the two
    # corners
    m, box = case
    with np.errstate(invalid="ignore"):         # sqrt below 0 is nan
        want = m.image_box_array(box.as_array()[None])[0]
    got = np.array(m.image_box(box))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert box.holds(got) == box_contains(box, want.T)


@pytest.mark.parametrize("m", [
    Similarity(0.4, (0.3, 0.4), rotation_deg=30.0),
    Similarity(0.45, (0.5, 0.2), rotation_deg=100.0, reflect=True),
    Affine2([[1.0 / 3.0, 1.0 / 6.0], [0.0, 1.0 / 3.0]], (0.1, 0.6)),
    Affine2([[0.3, 0.1], [0.1, 0.3]], (0.2, 0.3)),
], ids=["rotation", "reflection", "shear", "affine"])
def test_non_diagonal_maps_are_batch_independent(m):
    # each row maps the same alone as in a batch, and a box [p, p] maps to
    # p's own image at both ends, bit for bit
    pts = np.random.default_rng(11).uniform(-1.0, 1.0, (200, 2))
    img = m.apply_array(pts)
    for p, want in zip(pts, img):
        assert m.apply_array(p[None]).tobytes() == want.tobytes()
    out = m.image_box_array(np.stack((pts, pts), axis=-1))
    assert out[..., 0].tobytes() == img.tobytes()
    assert out[..., 1].tobytes() == img.tobytes()


def test_compose_order_is_left_outermost():
    f = Similarity(0.5, (0.5,))     # x -> x/2 + 1/2
    g = Similarity(0.5, (0.0,))     # x -> x/2
    fg = compose([f, g])
    # f(g(1)) = f(1/2) = 3/4, while g(f(1)) would be 1/2
    assert fg.apply_array(np.array([[1.0]]))[0, 0] == pytest.approx(0.75)
    assert fg.lip_hi_bound == pytest.approx(0.25)
    assert fg.lip_lo_bound == pytest.approx(0.25)


def test_compose_rejects_empty_and_mixed_dims():
    with pytest.raises(UsageError):
        compose([])
    with pytest.raises(UsageError):
        compose([Similarity(0.5, (0.0,)), Similarity(0.5, (0.0, 0.0))])


def test_closed_form_catalog_rejects_unknown():
    with pytest.raises(UsageError):
        ClosedFormMap("nonexistent_map")


@pytest.mark.parametrize("name", sorted(set(CLOSED_FORMS) - {"arch_top_mid"}))
def test_closed_form_stays_inside_unit_box(name):
    m = ClosedFormMap(name)
    box = unit_box(m.dim)
    pts = np.linspace(0.0, 1.0, 101)
    grid = pts[:, None] if m.dim == 1 else np.stack(
        np.meshgrid(pts, pts), axis=-1).reshape(-1, 2)
    assert box_contains(box, m.apply_array(grid))


def test_lifted_arch_escapes_the_unit_box():
    # cataloged for completeness but usable only on smaller domains; its
    # peak leaves the square, so no bundled system includes it
    m = ClosedFormMap("arch_top_mid")
    top = m.apply_array(np.array([[0.5, 1.0]]))
    assert top[0, 1] == pytest.approx(1.125)
    assert not box_contains(unit_box(2), top)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_box_arithmetic_covers_images(name):
    # the declared per-axis range must contain every sampled image
    m = ClosedFormMap(name)
    rng = np.random.default_rng(5)
    for _ in range(20):
        lo = rng.uniform(0.0, 0.8, m.dim)
        hi = lo + rng.uniform(0.05, 1.0 - lo.max(), m.dim)
        box = np.stack([lo, hi], axis=-1)[None, :, :]
        out = m.image_box_array(box)[0]
        samples = lo + rng.random((200, m.dim)) * (hi - lo)
        img = np.atleast_2d(m.apply_array(samples))
        for ax in range(m.dim):
            assert img[:, ax].min() >= out[ax, 0] - 1e-12
            assert img[:, ax].max() <= out[ax, 1] + 1e-12


def _arch_y(x, y):
    return x * (1.0 - x) / 2.0 + y / 2.0


# each catalog map as one plain expression; its terms must add up to the
# same floats, bit for bit
REFERENCE_FORMS = {
    "cookie_branch_2_5_left": lambda x: (0.5 - 0.5 * np.sqrt(1.0 - 0.8 * x),),
    "cookie_branch_2_5_right": lambda x: (0.5 + 0.5 * np.sqrt(1.0 - 0.8 * x),),
    "cookie_branch_6_9_left": lambda x: (0.5 - np.sqrt(1.0 + x) / 3.0,),
    "cookie_branch_6_9_right": lambda x: (0.5 + np.sqrt(1.0 + x) / 3.0,),
    "quad_y_bottom_left": lambda x, y: (x / 2.0, y * y / 2.0),
    "quad_x_top_left": lambda x, y: (x * x / 2.0, y / 2.0 + 0.5),
    "quad_x_bottom_left": lambda x, y: (x * x / 2.0, y / 2.0),
    "arch_left": lambda x, y: (x / 3.0, _arch_y(x, y)),
    "arch_right": lambda x, y: (1.0 - x / 3.0, _arch_y(x, y)),
    "arch_top_mid": lambda x, y: (x / 3.0 + 1.0 / 3.0, _arch_y(x, y) + 0.5),
}


def _catalog_points(dim):
    rng = np.random.default_rng(17)
    grid = np.linspace(0.0, 1.0, 33)
    edges = (grid[:, None] if dim == 1 else
             np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2))
    return np.vstack((edges, rng.random((20_000, dim))))


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_points_match_the_reference_formulas(name):
    m = ClosedFormMap(name)
    pts = _catalog_points(m.dim)
    want = np.stack(REFERENCE_FORMS[name](*pts.T), axis=-1)
    got = m.apply_array(pts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_point_boxes_are_the_points(name):
    # the image box of [p, p] is the point formula's own value, bit for bit
    m = ClosedFormMap(name)
    pts = _catalog_points(m.dim)
    out = m.image_box_array(np.stack((pts, pts), axis=-1))
    img = m.apply_array(pts)
    assert out[..., 0].tobytes() == img.tobytes()
    assert out[..., 1].tobytes() == img.tobytes()


def test_square_term_range_holds_its_turning_point():
    # y*y/2 over [-1, 1/2] ranges over [0, 1/2], not between its end values
    m = ClosedFormMap("quad_y_bottom_left")
    out = m.image_box_array(np.array([[[0.0, 1.0], [-1.0, 0.5]]]))[0]
    assert out.tolist() == [[0.0, 0.5], [0.0, 0.5]]


def _per_end_affine_boxes(m, boxes):
    """The affine box kernel one end at a time: per output axis and end,
    each term takes the input end its coefficient's sign picks, added in
    order, then the shift."""
    out = np.empty_like(boxes)
    for k, (terms, t) in enumerate(zip(m._terms, m.translation)):
        for end in (0, 1):
            (a, c), *rest = terms
            col = boxes[:, a, end ^ (c < 0)] * c
            for a, c in rest:
                col = col + boxes[:, a, end ^ (c < 0)] * c
            out[:, k, end] = col + t
    return out


def _per_end_closed_form_boxes(m, boxes):
    """The closed-form box kernel one end at a time: per output axis, the
    sum in order of each term's min and max over its interval's two ends
    and, when the interval holds it, the turning point."""
    out = np.empty_like(boxes)
    for k, terms in enumerate(m._axes):
        los, his = [], []
        for a, fn, turn in terms:
            at_lo, at_hi = fn(boxes[:, a, 0]), fn(boxes[:, a, 1])
            lo, hi = np.minimum(at_lo, at_hi), np.maximum(at_lo, at_hi)
            if turn is not None:
                holds = (boxes[:, a, 0] <= turn) & (turn <= boxes[:, a, 1])
                lo = np.where(holds, np.minimum(lo, fn(turn)), lo)
                hi = np.where(holds, np.maximum(hi, fn(turn)), hi)
            los.append(lo)
            his.append(hi)
        out[:, k, 0] = reduce(add, los)
        out[:, k, 1] = reduce(add, his)
    return out


@st.composite
def _boxes(draw, dim):
    """Boxes (n, dim, 2) in [-1, 1]: on each axis a degenerate [p, p], an
    interval around a turning point (0 or 1/2), or any interval."""
    def end():
        return draw(st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0))
                    | st.floats(-1.0, 1.0))

    def interval():
        kind = draw(st.sampled_from(("point", "turn", "any")))
        if kind == "point":
            p = end()
            return p, p
        if kind == "turn":
            t = draw(st.sampled_from((0.0, 0.5)))
            return (t - draw(st.floats(0.0, 0.5)),
                    t + draw(st.floats(0.0, 0.5)))
        return tuple(sorted((end(), end())))

    n = draw(st.integers(1, 8))
    return np.array([[interval() for _ in range(dim)] for _ in range(n)])


def _assert_two_end_kernel_equals(m, boxes, oracle):
    # row-major input and axis-major input written through out= alike
    want = oracle(m, boxes).tobytes()
    assert m.image_box_array(boxes).tobytes() == want
    axis_major = np.ascontiguousarray(boxes.transpose(1, 2, 0))
    out = np.empty_like(axis_major).transpose(2, 0, 1)
    m.image_box_array(axis_major.transpose(2, 0, 1), out)
    assert out.tobytes() == want


@st.composite
def affine_map_cases(draw):
    kind = draw(st.sampled_from(("rotation", "reflection", "reflection_1d",
                                 "pictorial_b_shear", "affine")))
    shift = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    ratio = draw(st.floats(0.05, 0.95))
    angle = draw(st.just(90.0) | st.floats(-360.0, 360.0))
    if kind == "rotation":
        m = Similarity(ratio, shift, rotation_deg=angle)
    elif kind == "reflection":
        m = Similarity(ratio, shift, rotation_deg=angle, reflect=True)
    elif kind == "reflection_1d":
        m = Similarity(ratio, shift[:1], reflect=True)
    elif kind == "pictorial_b_shear":
        sign = draw(st.sampled_from((1.0, -1.0)))
        m = Affine2([[1.0 / 3.0, sign / 6.0], [0.0, 1.0 / 3.0]], shift)
    else:
        matrix = draw(hnp.arrays(np.float64, (2, 2), elements=st.just(0.0)
                                 | st.floats(-0.45, 0.45)))
        try:
            m = Affine2(matrix, shift)
        except UsageError:
            assume(False)
    return m, draw(_boxes(m.dim))


@given(affine_map_cases())
@settings(deadline=None)
def test_affine_two_end_kernel_equals_the_per_end_kernel(case):
    m, boxes = case
    _assert_two_end_kernel_equals(m, boxes, _per_end_affine_boxes)


@st.composite
def closed_form_cases(draw):
    m = ClosedFormMap(draw(st.sampled_from(sorted(CLOSED_FORMS))))
    return m, draw(_boxes(m.dim))


@given(closed_form_cases())
@settings(deadline=None)
def test_closed_form_two_end_kernel_equals_the_per_end_kernel(case):
    m, boxes = case
    _assert_two_end_kernel_equals(m, boxes, _per_end_closed_form_boxes)


_LipSample = namedtuple("_LipSample", "observed_lo observed_hi ok")
_MULTS_A = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
_MULTS_B = (math.sqrt(5.0) - 2.0, math.sqrt(7.0) - 2.0)


def _kronecker(n, mults, shift):
    # fractional parts of j*alpha + shift, j = 1..n: points in the unit box
    j = np.arange(1, n + 1, dtype=float)[:, None]
    return np.modf(j * np.asarray(mults) + shift)[0]


def _validate_lip_bounds(m, samples):
    """Distance ratios of m over a fixed Kronecker sample of pairs in the
    unit box, against the declared bounds.  A sample certifies nothing; the
    library certifies from the declared bounds and exact image boxes."""
    xs = _kronecker(samples, _MULTS_A[:m.dim], 0.5)
    ys = _kronecker(samples, _MULTS_B[:m.dim], 0.25)
    d_in = np.linalg.norm(xs - ys, axis=-1)
    keep = d_in > 0.0      # degenerate pairs are skipped, never divided
    d_out = np.linalg.norm(
        m.apply_array(xs[keep]) - m.apply_array(ys[keep]), axis=-1)
    ratios = d_out / d_in[keep]
    lo, hi = float(ratios.min()), float(ratios.max())
    return _LipSample(lo, hi, m.lip_lo - 1e-9 <= lo and hi <= m.lip_hi + 1e-9)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_declared_lipschitz_bounds_hold(name):
    rep = _validate_lip_bounds(ClosedFormMap(name), 2000)
    assert rep.ok, (name, rep.observed_lo, rep.observed_hi)


# the exact (min, max) of |f'|^2 over [0, 1] for each cookie pair:
# |f'| = 1/5 / sqrt(1 - 4x/5) and 1/6 / sqrt(1 + x)
_COOKIE_SLOPES_SQ = {"cookie_branch_2_5": (Fraction(1, 25), Fraction(1, 5)),
                     "cookie_branch_6_9": (Fraction(1, 72), Fraction(1, 36))}


@pytest.mark.parametrize("name", [n for n in sorted(CLOSED_FORMS)
                                  if not n.startswith("quad_")])
def test_declared_lipschitz_bounds_lie_on_their_safe_side(name):
    # exactly, in rationals; the quad maps are not bi-Lipschitz at all
    lo, hi = (Fraction(b) for b in (CLOSED_FORMS[name].lip_lo,
                                    CLOSED_FORMS[name].lip_hi))
    if name.startswith("arch_"):
        # the singular values of [[1/3, 0], [1/2, 1/2]], squared, are
        # (22 -+ sqrt(340)) / 72
        assert 22 - 72 * lo ** 2 >= 0 and 340 <= (22 - 72 * lo ** 2) ** 2
        assert 72 * hi ** 2 - 22 >= 0 and 340 <= (72 * hi ** 2 - 22) ** 2
    else:
        slo, shi = _COOKIE_SLOPES_SQ[name.rsplit("_", 1)[0]]
        assert lo ** 2 <= slo and shi <= hi ** 2


def test_validate_lip_bounds_similarity_is_tight():
    rep = _validate_lip_bounds(Similarity(1.0 / 3.0, (0.0,)), 500)
    assert rep.ok
    assert rep.observed_lo == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.observed_hi == pytest.approx(1.0 / 3.0, abs=1e-12)
