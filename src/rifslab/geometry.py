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

    def apply_array(self, pts: np.ndarray, out=None) -> np.ndarray:
        """Images of points (n, dim), written to `out` of the same shape
        (any layout) or to a new array."""
        raise NotImplementedError

    def image_box_array(self, boxes: np.ndarray, out=None) -> np.ndarray:
        """Bounding boxes of the images of boxes (n, dim, 2), written to
        `out` of the same shape (any layout) or to a new array."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


def _affine_column(col: np.ndarray, terms, shift: float) -> None:
    """col = x_1 c_1 + x_2 c_2 + ... + shift over the (x, c) terms, added
    in order, in place, elementwise over a column or a block of them."""
    (x, c), *rest = terms
    np.multiply(x, c, out=col)
    for x, c in rest:
        col += x * c
    col += shift


class _AffineMap(ContractionMap):
    """x -> A x + t, held once as `_terms`: per output axis, the (input
    axis, coefficient) pairs of A's non-zero entries, in axis order.

    Points are mapped column by column through the terms, and boxes axis
    by axis, both ends of an axis as one (2, n) block.  An image box end
    takes, per term, the input end that the coefficient's sign picks: the
    term's (lo, hi) block, reversed where the coefficient is negative.
    Rounding is monotone, so that is the min/max over the mapped corners,
    exactly, and a box [p, p] maps to p's own image bit for bit.  A
    diagonal map has one term per axis, lo*d + t and hi*d + t.  Each row's
    result is independent of the batch it comes in.
    """

    def _set_affine(self, linear) -> None:
        self._terms = tuple(
            tuple((a, float(c)) for a, c in enumerate(row) if c != 0.0)
            for row in linear)
        self._shift = np.asarray(self.translation)

    def apply_array(self, pts: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            out = np.empty_like(pts, dtype=float)
        for k, (terms, t) in enumerate(zip(self._terms, self._shift)):
            _affine_column(out[:, k], ((pts[:, a], c) for a, c in terms), t)
        return out

    def image_box_array(self, boxes: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            out = np.empty_like(boxes)
        # (dim, 2, n) views: per axis, the (lo, hi) block of every box
        ends, image = boxes.transpose(1, 2, 0), out.transpose(1, 2, 0)
        for k, (terms, t) in enumerate(zip(self._terms, self._shift)):
            _affine_column(image[k], ((ends[a, ::-1] if c < 0 else ends[a], c)
                                      for a, c in terms), t)
        return out


class Similarity(_AffineMap):
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
            self._set_affine([[-self.ratio if reflect else self.ratio]])
        else:
            th = math.radians(self.rotation_deg)
            rot = np.array([[math.cos(th), -math.sin(th)],
                            [math.sin(th), math.cos(th)]])
            if reflect:
                rot = rot @ np.array([[-1.0, 0.0], [0.0, 1.0]])
            self._set_affine(self.ratio * rot)

    def describe(self) -> str:
        return f"similarity(ratio={self.ratio:g})"


class Affine2(_AffineMap):
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
        self._set_affine(self.matrix)

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


def _term_range(ends: np.ndarray, fn, turn) -> np.ndarray:
    """Exact (min, max) block of fn over each interval of the (lo, hi)
    block `ends`, fn evaluated once over both ends."""
    lo, hi = np.broadcast_to(fn(ends), ends.shape)   # a constant term too
    rng = np.stack((np.minimum(lo, hi), np.maximum(lo, hi)))
    if turn is not None:
        holds = (ends[0] <= turn) & (turn <= ends[1])
        at_turn = fn(turn)
        np.minimum(rng[0], at_turn, out=rng[0], where=holds)
        np.maximum(rng[1], at_turn, out=rng[1], where=holds)
    return rng


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

    def apply_array(self, pts: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            out = np.empty_like(pts, dtype=float)
        for k, terms in enumerate(self._axes):
            out[:, k] = reduce(add, (fn(pts[:, a]) for a, fn, _ in terms))
        return out

    def image_box_array(self, boxes: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            out = np.empty_like(boxes, dtype=float)
        # (dim, 2, n) views: per axis, the (lo, hi) block of every box
        ends, image = boxes.transpose(1, 2, 0), out.transpose(1, 2, 0)
        for k, terms in enumerate(self._axes):
            image[k] = reduce(add, (_term_range(ends[a], fn, turn)
                                    for a, fn, turn in terms))
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
