"""Ambient boxes and the three families of contracting self-maps.

Everything downstream (cylinder covers, dimension solvers, measures) sits on
top of three map kinds: exact similarities, 2x2 affine maps, and a closed
catalog of nonlinear maps given by explicit formulas.  Maps carry declared
bi-Lipschitz bounds; compositions track the product bounds, which are upper
bounds for Lip+ and lower bounds for Lip-.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import UsageError

CONTAIN_TOL = 1e-9


@dataclass(frozen=True)
class AmbientBox:
    """Axis-aligned box in R^1 or R^2 with the Euclidean metric."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or len(self.lo) not in (1, 2):
            raise UsageError("ambient box must be 1- or 2-dimensional")
        for a, (l, h) in enumerate(zip(self.lo, self.hi)):
            if not l < h:
                raise UsageError(f"ambient box axis {a}: lo {l} must be < hi {h}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def diameter(self) -> float:
        return math.hypot(*(h - l for l, h in zip(self.lo, self.hi)))

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    def corners(self) -> np.ndarray:
        if self.dim == 1:
            return np.array([[self.lo[0]], [self.hi[0]]])
        (x0, y0), (x1, y1) = self.lo, self.hi
        return np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])

    def as_array(self) -> np.ndarray:
        """Box as an (dim, 2) array of [lo, hi] per axis."""
        return np.stack([np.asarray(self.lo), np.asarray(self.hi)], axis=1)

    def contains(self, pts: np.ndarray) -> bool:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo = np.asarray(self.lo) - CONTAIN_TOL
        hi = np.asarray(self.hi) + CONTAIN_TOL
        return bool(np.all(pts >= lo) and np.all(pts <= hi))


def unit_box(dim: int) -> AmbientBox:
    return AmbientBox((0.0,) * dim, (1.0,) * dim)


def _affine_image_boxes(linear: np.ndarray, shift: np.ndarray,
                        boxes: np.ndarray) -> np.ndarray:
    """Exact bounding boxes of affine images of axis-aligned boxes.

    boxes has shape (n, dim, 2).  A diagonal linear part maps each axis on
    its own, so an axis's image is its two mapped ends in order; otherwise
    the image box is the min/max of the transformed corners.  Both are
    exact for affine maps.
    """
    diag = np.diagonal(linear)
    if np.array_equal(linear, np.diag(diag)):
        ends = boxes * diag[:, None] + shift[:, None]
        out = np.empty_like(boxes)
        np.minimum(ends[..., 0], ends[..., 1], out=out[..., 0])
        np.maximum(ends[..., 0], ends[..., 1], out=out[..., 1])
        return out
    # four corners per box; only 2-D maps get here, as 1-D ones are diagonal
    n = boxes.shape[0]
    corners = np.empty((n, 4, 2))
    corners[:, 0] = boxes[:, :, 0]
    corners[:, 1, 0] = boxes[:, 0, 0]
    corners[:, 1, 1] = boxes[:, 1, 1]
    corners[:, 2, 0] = boxes[:, 0, 1]
    corners[:, 2, 1] = boxes[:, 1, 0]
    corners[:, 3] = boxes[:, :, 1]
    moved = corners @ linear.T + shift
    out = np.empty_like(boxes)
    out[:, :, 0] = moved.min(axis=1)
    out[:, :, 1] = moved.max(axis=1)
    return out


def _shifted(out: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """out + shift, added in place one column at a time: the same sums as
    broadcasting, without its inner loops of length dim or a second array."""
    for k, t in enumerate(shift):
        out[:, k] += t
    return out


class ContractionMap:
    """Base for all map kinds.  Subclasses fill in the vectorized paths."""

    kind: str = "abstract"
    dim: int
    lip_lo: float
    lip_hi: float

    def _check_lips(self) -> None:
        if not (0.0 < self.lip_lo <= self.lip_hi < 1.0):
            raise UsageError(
                f"declared Lipschitz bounds ({self.lip_lo}, {self.lip_hi}) "
                "must satisfy 0 < lo <= hi < 1")

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def image_box_array(self, boxes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


class Similarity(ContractionMap):
    """Exact similarity: x -> ratio * O x + translation, O orthogonal.

    In one dimension O is +-1 (reflect flag).  In two dimensions O is a
    rotation optionally composed with a reflection of the x axis.  Distances
    scale by exactly `ratio`, so lip_lo = lip_hi = ratio.
    """

    kind = "similarity"

    def __init__(self, ratio: float, translation: tuple[float, ...],
                 rotation_deg: float = 0.0, reflect: bool = False):
        self.ratio = float(ratio)
        self.translation = tuple(float(t) for t in translation)
        self.rotation_deg = float(rotation_deg)
        self.reflect = bool(reflect)
        self.dim = len(self.translation)
        if self.dim not in (1, 2):
            raise UsageError("similarity must be 1- or 2-dimensional")
        if self.dim == 1 and rotation_deg not in (0.0,):
            raise UsageError("rotation is undefined in one dimension")
        self.lip_lo = self.lip_hi = self.ratio
        self._check_lips()
        if self.dim == 1:
            self._linear = np.array([[-self.ratio if reflect else self.ratio]])
        else:
            th = math.radians(self.rotation_deg)
            rot = np.array([[math.cos(th), -math.sin(th)],
                            [math.sin(th), math.cos(th)]])
            if reflect:
                rot = rot @ np.array([[-1.0, 0.0], [0.0, 1.0]])
            self._linear = self.ratio * rot
        self._shift = np.asarray(self.translation)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return _shifted(pts * self._linear[0, 0], self._shift)
        return _shifted(pts @ self._linear.T, self._shift)

    def image_box_array(self, boxes: np.ndarray) -> np.ndarray:
        return _affine_image_boxes(self._linear, self._shift, boxes)

    def describe(self) -> str:
        return f"similarity(ratio={self.ratio:g})"


class Affine2(ContractionMap):
    """2x2 affine map; Lipschitz bounds are the singular values."""

    kind = "affine2"

    def __init__(self, matrix, translation: tuple[float, float]):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.shape != (2, 2):
            raise UsageError("affine2 needs a 2x2 matrix")
        self.translation = tuple(float(t) for t in translation)
        self.dim = 2
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        self.lip_lo = float(sv[-1])
        self.lip_hi = float(sv[0])
        self._check_lips()
        self._shift = np.asarray(self.translation)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return _shifted(pts @ self.matrix.T, self._shift)

    def image_box_array(self, boxes: np.ndarray) -> np.ndarray:
        return _affine_image_boxes(self.matrix, self._shift, boxes)

    def describe(self) -> str:
        return f"affine2(sv=[{self.lip_lo:g},{self.lip_hi:g}])"


# --- closed-form catalog -----------------------------------------------------
#
# Each entry writes its formula once: per output axis, an ordered list of
# one-variable terms (input axis, function, turning point or None), each
# monotone on either side of its turning point.  Points add the terms up in
# that order.  Boxes add up each term's range over its input interval, the
# min/max of the term at both ends and, when the interval holds the turning
# point, at that point too; the variables are independent, so the sum of the
# ranges is the exact image range, and a degenerate box [p, p] maps to the
# point formula's own value bit for bit.
# Declared Lipschitz bounds come from the derivative ranges; the quadratic
# planar maps have derivative ranges touching 0 and 1, so their declarations
# are clamped to the open interval and they are kept away from
# error-certified operations.

_CLAMP_LO = 1e-12
_CLAMP_HI = 1.0 - 1e-12

# singular-value extremes of [[1/3, 0], [b, 1/2]] over |b| <= 1/2
_ARCH_LIP_LO = math.sqrt((22.0 - math.sqrt(340.0)) / 72.0)
_ARCH_LIP_HI = math.sqrt((22.0 + math.sqrt(340.0)) / 72.0)


def _half(t):
    return t / 2.0


def _half_square(t):
    return t * t / 2.0


def _arch(t):
    return t * (1.0 - t) / 2.0


@dataclass(frozen=True)
class _Entry:
    lip_lo: float
    lip_hi: float
    axes: tuple   # per output axis, the terms (input axis, fn, turn) in order


def _x(fn, turn=None):
    return (0, fn, turn)


def _y(fn, turn=None):
    return (1, fn, turn)


CLOSED_FORMS: dict[str, _Entry] = {
    # inverse branches of an expanding interval map with |slope| in [2, 5]
    "cookie_branch_2_5_left": _Entry(0.2, 0.5, (
        (_x(lambda x: 0.5 - 0.5 * np.sqrt(1.0 - 0.8 * x)),),)),
    "cookie_branch_2_5_right": _Entry(0.2, 0.5, (
        (_x(lambda x: 0.5 + 0.5 * np.sqrt(1.0 - 0.8 * x)),),)),
    # inverse branches of an expanding interval map with |slope| in [6, 9]
    "cookie_branch_6_9_left": _Entry(1.0 / 9.0, 1.0 / 6.0, (
        (_x(lambda x: 0.5 - np.sqrt(1.0 + x) / 3.0),),)),
    "cookie_branch_6_9_right": _Entry(1.0 / 9.0, 1.0 / 6.0, (
        (_x(lambda x: 0.5 + np.sqrt(1.0 + x) / 3.0),),)),
    # planar maps with one quadratic component; derivative range hits 0 and 1
    "quad_y_bottom_left": _Entry(_CLAMP_LO, _CLAMP_HI, (
        (_x(_half),),
        (_y(_half_square, 0.0),))),
    "quad_x_top_left": _Entry(_CLAMP_LO, _CLAMP_HI, (
        (_x(_half_square, 0.0),),
        (_y(lambda y: y / 2.0 + 0.5),))),
    "quad_x_bottom_left": _Entry(_CLAMP_LO, _CLAMP_HI, (
        (_x(_half_square, 0.0),),
        (_y(_half),))),
    # planar maps bending the square along a parabolic arch
    "arch_left": _Entry(_ARCH_LIP_LO, _ARCH_LIP_HI, (
        (_x(lambda x: x / 3.0),),
        (_x(_arch, 0.5), _y(_half)))),
    "arch_right": _Entry(_ARCH_LIP_LO, _ARCH_LIP_HI, (
        (_x(lambda x: 1.0 - x / 3.0),),
        (_x(_arch, 0.5), _y(_half)))),
    "arch_top_mid": _Entry(_ARCH_LIP_LO, _ARCH_LIP_HI, (
        (_x(lambda x: x / 3.0 + 1.0 / 3.0),),
        (_x(_arch, 0.5), _y(_half), _y(lambda y: 0.5)))),
}


def _term_range(vals: np.ndarray, fn, turn) -> tuple:
    """Exact (min, max) of fn over each [lo, hi] row of vals."""
    at_lo = fn(vals[:, 0])
    at_hi = fn(vals[:, 1])
    lo = np.minimum(at_lo, at_hi)
    hi = np.maximum(at_lo, at_hi)
    if turn is not None:
        holds = (vals[:, 0] <= turn) & (turn <= vals[:, 1])
        at_turn = fn(turn)
        lo = np.where(holds, np.minimum(lo, at_turn), lo)
        hi = np.where(holds, np.maximum(hi, at_turn), hi)
    return lo, hi


class ClosedFormMap(ContractionMap):
    """One of the cataloged explicit nonlinear maps."""

    kind = "closed_form"

    def __init__(self, name: str):
        try:
            entry = CLOSED_FORMS[name]
        except KeyError:
            raise UsageError(f"unknown closed-form map {name!r}") from None
        self.name = name
        self.dim = len(entry.axes)
        self.lip_lo = entry.lip_lo
        self.lip_hi = entry.lip_hi
        self._axes = entry.axes
        self._check_lips()

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty_like(pts, dtype=float)
        for k, terms in enumerate(self._axes):
            out[:, k] = reduce(add, (fn(pts[:, a]) for a, fn, _ in terms))
        return out

    def image_box_array(self, boxes: np.ndarray) -> np.ndarray:
        out = np.empty_like(boxes, dtype=float)
        for k, terms in enumerate(self._axes):
            los, his = zip(*(_term_range(boxes[:, a], fn, turn)
                             for a, fn, turn in terms))
            out[:, k, 0] = reduce(add, los)
            out[:, k, 1] = reduce(add, his)
        return out

    def describe(self) -> str:
        return f"closed_form({self.name})"


@dataclass(frozen=True)
class MapComposition:
    """Ordered composition; factors apply right to left, as written."""

    factors: tuple[ContractionMap, ...]
    lip_lo_bound: float
    lip_hi_bound: float

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        for m in reversed(self.factors):
            pts = m.apply_array(pts)
        return pts

    def image_box_array(self, boxes: np.ndarray) -> np.ndarray:
        for m in reversed(self.factors):
            boxes = m.image_box_array(boxes)
        return boxes


def compose(maps) -> MapComposition:
    """Compose maps left-to-right-outermost, multiplying the Lip bounds.

    Lip+ is submultiplicative and Lip- is supermultiplicative, so the products
    bound the composite from the correct sides.
    """
    maps = tuple(maps)
    if not maps:
        raise UsageError("cannot compose an empty list of maps")
    dims = {m.dim for m in maps}
    if len(dims) != 1:
        raise UsageError("cannot compose maps of different dimensions")
    lo = 1.0
    hi = 1.0
    for m in maps:
        lo *= m.lip_lo
        hi *= m.lip_hi
    return MapComposition(maps, lo, hi)
