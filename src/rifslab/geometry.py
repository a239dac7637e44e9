"""Ambient boxes and the three families of contracting self-maps.

Everything downstream (cylinder covers, dimension solvers, measures) sits on
top of three map kinds: exact similarities, 2x2 affine maps, and a closed
catalog of nonlinear maps given by explicit formulas.  Maps carry declared
bi-Lipschitz bounds.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import reduce
from operator import add

from ._lazy import np
from ._record import Record, record
from .errors import UsageError

_SQRT_BITS = 128       # bits of a bracketed square root, before rounding


@record
class AmbientBox(Record):
    """Axis-aligned box in R^1 or R^2 with the Euclidean metric.

    Its ends are stored as tuples of floats, whatever real numbers they
    were given as."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _finite("ambient box lo", self.lo))
        object.__setattr__(self, "hi", _finite("ambient box hi", self.hi))
        if len(self.lo) != len(self.hi) or len(self.lo) not in (1, 2):
            raise UsageError("ambient dimension must be 1 or 2")
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

    def holds(self, ranges) -> bool:
        """Whether both ends of every per-axis (lo, hi) range lie in the
        box, compared exactly as floats."""
        return all(l <= v <= h
                   for rng, l, h in zip(ranges, self.lo, self.hi) for v in rng)


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

    def image_box(self, box: AmbientBox):
        """Per output axis, the (lo, hi) range of the image of `box`, as
        `image_box_array` gives it, in Python floats."""
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

    def apply_array(self, pts: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            out = np.empty_like(pts, dtype=float)
        for k, (terms, t) in enumerate(zip(self._terms, self.translation)):
            _affine_column(out[:, k], ((pts[:, a], c) for a, c in terms), t)
        return out

    def image_box_array(self, boxes: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            out = np.empty_like(boxes)
        # (dim, 2, n) views: per axis, the (lo, hi) block of every box
        ends, image = boxes.transpose(1, 2, 0), out.transpose(1, 2, 0)
        for k, (terms, t) in enumerate(zip(self._terms, self.translation)):
            _affine_column(image[k], ((ends[a, ::-1] if c < 0 else ends[a], c)
                                      for a, c in terms), t)
        return out

    def image_box(self, box: AmbientBox):
        # image_box_array's sums for one box in Python floats: the same
        # IEEE operations in the same order, so the same floats
        ends = tuple(zip(box.lo, box.hi))
        return tuple(
            tuple(reduce(add, (ends[a][end ^ (c < 0)] * c for a, c in terms))
                  + t for end in (0, 1))
            for terms, t in zip(self._terms, self.translation))


def _finite(what: str, values) -> tuple[float, ...]:
    """The values as floats, refused unless all are finite real numbers."""
    try:
        vals = tuple(float(v) if isinstance(v, numbers.Real) else math.nan
                     for v in values)
    except (TypeError, OverflowError):  # not a sequence; an int past floats
        vals = (math.nan,)
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"{what} must be finite real numbers, not {values!r}")
    return vals


def _sqrt_up(x: Fraction) -> Fraction:
    """A rational at or above sqrt(x), by at most one part in about
    2^_SQRT_BITS, and equal to it when sqrt(x) is rational.

    sqrt(n/d) = sqrt(n d 4^j) / (d 2^j), read off math.isqrt of the
    integer n d 4^j, which is a perfect square whenever x is a square."""
    n, d = x.numerator, x.denominator
    j = max(0, _SQRT_BITS - (n * d).bit_length() // 2)
    big = (n * d) << (2 * j)
    root = math.isqrt(big)
    return Fraction(root + (root * root != big), d << j)


def _round_down(x: Fraction) -> float:
    f = float(x)
    return math.nextafter(f, -math.inf) if f > x else f


def _round_up(x: Fraction) -> float:
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def _singular_bounds(matrix) -> tuple[float, float]:
    """Floats lo <= sigma_min and sigma_max <= hi of a 2x2 matrix, from
    its four entries taken exactly: sigma_max = (p + q) / 2 with
    p = |(a + d, c - b)| and q = |(a - d, b + c)|, and sigma_min =
    |det| / sigma_max, from p and q taken at or above their roots, and
    rounded outward.  A diagonal matrix gets |a| and |d| exactly; a
    singular one gets lo = 0."""
    (a, b), (c, d) = ((Fraction(v) for v in row) for row in matrix)
    top = (_sqrt_up((a + d) ** 2 + (c - b) ** 2)
           + _sqrt_up((a - d) ** 2 + (b + c) ** 2)) / 2
    det = abs(a * d - b * c)
    return (_round_down(det / top) if det else 0.0), _round_up(top)


class Similarity(_AffineMap):
    """Exact similarity: x -> ratio * O x + translation, O orthogonal.

    In one dimension O is +-1 (reflect flag).  In two dimensions O is a
    rotation optionally composed with a reflection of the x axis.  Distances
    scale by exactly `ratio`, so lip_lo = lip_hi = ratio.
    """

    kind = "similarity"

    def __init__(self, ratio: float, translation: tuple[float, ...],
                 rotation_deg: float = 0.0, reflect: bool = False):
        (self.ratio,) = _finite("ratio", (ratio,))
        self.translation = _finite("translation", translation)
        (self.rotation_deg,) = _finite("rotation", (rotation_deg,))
        self.reflect = bool(reflect)
        self.dim = len(self.translation)
        if self.dim not in (1, 2):
            raise UsageError("similarity must be 1- or 2-dimensional")
        if self.dim == 1 and rotation_deg not in (0.0,):
            raise UsageError("rotation is undefined in one dimension")
        self.lip_lo = self.lip_hi = self.ratio
        self._check_lips()
        k = self.ratio
        r = -k if reflect else k    # the reflection of x negates column 0
        if self.dim == 1:
            self._set_affine([[r]])
        else:
            th = math.radians(self.rotation_deg % 360.0)
            c, s = math.cos(th), math.sin(th)
            if not self.rotation_deg % 90.0:    # exact, so a quarter turn's
                c, s = round(c), round(s)       # float box is its image
            self._set_affine(((r * c, -k * s), (r * s, k * c)))

    def describe(self) -> str:
        return f"similarity(ratio={self.ratio:g})"


class Affine2(_AffineMap):
    """2x2 affine map x -> matrix x + translation, every entry finite.

    lip_lo and lip_hi are the matrix's exact singular values rounded
    outward to floats (`_singular_bounds`), so a singular matrix, whose
    lip_lo is 0, is refused."""

    kind = "affine2"

    def __init__(self, matrix, translation: tuple[float, float]):
        try:
            rows = [tuple(row) for row in matrix]
        except TypeError:       # not a sequence of sequences
            rows = []
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise UsageError("affine2 needs a 2x2 matrix")
        entries = _finite("affine2 matrix", rows[0] + rows[1])
        self._rows = (entries[:2], entries[2:])
        self.translation = _finite("translation", translation)
        if len(self.translation) != 2:
            raise UsageError("affine2 needs a 2-entry translation")
        self.dim = 2
        self.lip_lo, self.lip_hi = _singular_bounds(self._rows)
        self._check_lips()
        self._set_affine(self._rows)

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 matrix, as a new float array."""
        return np.array(self._rows)

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

# singular-value extremes of [[1/3, 0], [b, 1/2]] over |b| <= 1/2; the low
# one's float formula lands an ulp above it, and is stepped down once
_ARCH_LIP_LO = math.nextafter(math.sqrt((22.0 - math.sqrt(340.0)) / 72.0),
                              0.0)
_ARCH_LIP_HI = math.sqrt((22.0 + math.sqrt(340.0)) / 72.0)


def _sqrt(x):
    """np.sqrt, through math.sqrt on one float: both round correctly, so
    both give the same floats, and nan below 0."""
    if isinstance(x, float):
        return math.sqrt(x) if x >= 0.0 else math.nan
    return np.sqrt(x)


def _half(t):
    return t / 2.0


def _half_square(t):
    return t * t / 2.0


def _arch(t):
    return t * (1.0 - t) / 2.0


@record
class _Entry(Record):
    """One closed-form map of the catalog.

    `lip_lo` and `lip_hi` are its declared bi-Lipschitz bounds, from which
    every error bound is certified (the tests keep a sampled check of
    them).  `axes` holds, per output axis, the ordered one-variable terms
    (input axis, fn, turning point or None) whose sum is that coordinate;
    an image box adds each term's range over the box, taken from its values
    at the box ends and at a turning point inside.
    """

    lip_lo: float
    lip_hi: float
    axes: tuple


def _x(fn, turn=None):
    return (0, fn, turn)


def _y(fn, turn=None):
    return (1, fn, turn)


CLOSED_FORMS: dict[str, _Entry] = {
    # inverse branches of an expanding interval map with |slope| in [2, 5]
    "cookie_branch_2_5_left": _Entry(_round_down(Fraction(1, 5)), 0.5, (
        (_x(lambda x: 0.5 - 0.5 * _sqrt(1.0 - 0.8 * x)),),)),
    "cookie_branch_2_5_right": _Entry(_round_down(Fraction(1, 5)), 0.5, (
        (_x(lambda x: 0.5 + 0.5 * _sqrt(1.0 - 0.8 * x)),),)),
    # inverse branches of an expanding interval map with |slope| in [6, 9]
    "cookie_branch_6_9_left": _Entry(1.0 / 9.0, _round_up(Fraction(1, 6)), (
        (_x(lambda x: 0.5 - _sqrt(1.0 + x) / 3.0),),)),
    "cookie_branch_6_9_right": _Entry(1.0 / 9.0, _round_up(Fraction(1, 6)), (
        (_x(lambda x: 0.5 + _sqrt(1.0 + x) / 3.0),),)),
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


def _min(a: float, b: float) -> float:
    # np.minimum on two floats: nan if either is, b if they are equal
    return a if a < b or a != a else b


def _max(a: float, b: float) -> float:
    return a if a > b or a != a else b


def _float_term_range(lo: float, hi: float, fn, turn) -> tuple[float, float]:
    """_term_range of one interval [lo, hi] in Python floats."""
    at_lo, at_hi = fn(lo), fn(hi)
    rng = _min(at_lo, at_hi), _max(at_lo, at_hi)
    if turn is not None and lo <= turn <= hi:
        at_turn = fn(turn)
        rng = _min(rng[0], at_turn), _max(rng[1], at_turn)
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
        self.lip_lo, self.lip_hi = entry.lip_lo, entry.lip_hi
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

    def image_box(self, box: AmbientBox):
        # image_box_array's term ranges for one box in Python floats, added
        # in the same order: the same floats, and nan where it holds nan
        ends = tuple(zip(box.lo, box.hi))
        image = []
        for terms in self._axes:
            ranges = [_float_term_range(*ends[a], fn, turn)
                      for a, fn, turn in terms]
            image.append(tuple(reduce(add, end) for end in zip(*ranges)))
        return tuple(image)

    def describe(self) -> str:
        return f"closed_form({self.name})"
