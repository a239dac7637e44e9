"""Dimension formulas: the randomized Hutchinson equation and its
one-system case, grid self-affine carpets and their random mixtures,
extremal similarity bounds, and the per-level growth factors used to
witness measure-killing conditions.

Every root is found by bisection on a strictly decreasing function over the
bracket [0, 64] with 200 iterations; no derivative methods.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Sequence

from ._record import Record, record
from .errors import (GeometryDomainError, RifsError, UnsupportedShapeError,
                     UsageError, check_int)

if TYPE_CHECKING:  # pragma: no cover
    from .model import Rifs

BRACKET = (0.0, 64.0)
BISECT_ITERS = 200
RESIDUAL_TOL = 1e-10


@record
class DimensionReport(Record):
    """A dimension solved as the root of a decreasing equation.

    `value` is the bisection root, `equation` names the equation
    ("hutchinson" or "hutchinson_randomized"), `residual` is the log-form
    equation's value at the root, at most `RESIDUAL_TOL` in size, and
    `bracket` is the search interval, always `BRACKET`.  None of these is
    certified: a small residual does not bound the root's error, and the
    bracket is the start of the search, not an interval known to hold the
    root.
    """

    value: float
    equation: str
    residual: float
    bracket: tuple[float, float]


def check_weights(weights: Sequence[float], n: int | None = None) -> tuple[float, ...]:
    try:
        w = tuple(float(x) if isinstance(x, numbers.Real) else None
                  for x in weights)
    except (TypeError, OverflowError):  # not a sequence; an int past floats
        w = (None,)
    if None in w:
        raise UsageError(f"weights must be real numbers in the float range, "
                         f"not {weights!r}")
    if n is not None and len(w) != n:
        raise UsageError(f"one weight per system: expected {n}, got {len(w)}")
    if any(not x >= 0.0 for x in w):       # NaN fails the compare too
        raise UsageError("weights must be non-negative")
    total = math.fsum(w)
    if abs(total - 1.0) > 1e-12:
        raise UsageError(f"weights sum {total:.17g}, expected 1")
    return w


def _bisect_decreasing(f, equation: str) -> DimensionReport:
    lo, hi = BRACKET
    fhi = f(hi)
    if fhi > 0.0:
        raise GeometryDomainError(
            f"{equation}: no root in [0, 64]; f(64) = {fhi:.3g} > 0")
    if f(lo) == 0.0:
        return DimensionReport(0.0, equation, 0.0, BRACKET)
    a, b = lo, hi
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if f(mid) >= 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    residual = f(root)
    if abs(residual) > RESIDUAL_TOL:
        raise RifsError(f"{equation}: residual {residual:.3g} out of tolerance")
    return DimensionReport(root, equation, residual, BRACKET)


def _log(x: float) -> float:
    """log, with a power sum that underflowed to 0 taking log 0 = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def randomized_similarity_dimension(ratio_lists: Sequence[Sequence[float]],
                                    weights: Sequence[float]) -> DimensionReport:
    """Solve prod_i (sum_j r_ij^s)^{p_i} = 1, as the root of the log form.

    Systems with weight zero are dropped before taking logs.
    """
    lists = [[float(r) for r in rs] for rs in ratio_lists]
    w = check_weights(weights, len(lists))
    for rs in lists:
        if not rs:
            raise UsageError("every system needs at least one ratio")
        for r in rs:
            if not (0.0 < r < 1.0):
                raise GeometryDomainError(f"ratio {r} outside (0, 1)")
    active = [(p, rs) for p, rs in zip(w, lists) if p > 0.0]

    def g(s: float) -> float:
        return math.fsum(p * _log(math.fsum(r ** s for r in rs))
                         for p, rs in active)

    return _bisect_decreasing(g, "hutchinson_randomized")


def similarity_dimension(ratios: Sequence[float]) -> DimensionReport:
    """Solve sum(r_i^s) = 1 as the one-system case of
    `randomized_similarity_dimension`: log S has the sign of S - 1 for every
    float S > 0, so the bisection takes the same steps as on the sum."""
    root = randomized_similarity_dimension([ratios], (1.0,))
    return DimensionReport(root.value, "hutchinson", root.residual,
                           root.bracket)


@record
class CarpetSpec(Record):
    """Grid carpet: m columns, n rows (m <= n), and the chosen cells.

    Cells are (column, row) pairs with 0-based indices, columns along x.
    Duplicates are representable so separation checks can reject them;
    column counts use distinct rows.
    """

    m: int
    n: int
    chosen: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not (1 <= check_int("m", self.m) <= check_int("n", self.n)):
            raise UsageError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if not self.chosen:
            raise UsageError("carpet needs at least one chosen cell")
        for cell in self.chosen:
            if not (isinstance(cell, tuple) and len(cell) == 2):
                raise UsageError("carpet cells must be (column, row) tuples")
            col, row = cell
            if not (0 <= check_int("cell column", col) < self.m
                    and 0 <= check_int("cell row", row) < self.n):
                raise UsageError(f"cell ({col}, {row}) outside {self.m}x{self.n} grid")

    @property
    def column_counts(self) -> tuple[int, ...]:
        cols = [set() for _ in range(self.m)]
        for col, row in self.chosen:
            cols[col].add(row)
        return tuple(len(c) for c in cols)

    def distinct_cells(self) -> bool:
        return len(set(self.chosen)) == len(self.chosen)


def bedford_mcmullen_dimension(carpet: CarpetSpec) -> float:
    """(1/log m) * log(sum_j C_j^(log m / log n)); empty columns contribute 0.

    For m >= 2 this is the one-carpet case of `random_carpet_dimension`.
    """
    m, n = carpet.m, carpet.n
    if m == 1 and n == 1:
        raise GeometryDomainError("1x1 grid has no contraction")
    if m == 1:
        # continuous limit of the formula: a single column of n-adic cells
        return math.log(carpet.column_counts[0]) / math.log(n)
    return random_carpet_dimension([carpet], (1.0,))


def random_carpet_dimension(carpets: Sequence[CarpetSpec],
                            weights: Sequence[float]) -> float:
    """Weighted carpet formula via nu_1 = prod m_i^p_i, nu_2 = prod n_i^p_i."""
    w = check_weights(weights, len(carpets))
    active = [(p, c) for p, c in zip(w, carpets) if p > 0.0]
    log_nu1 = math.fsum(p * math.log(c.m) for p, c in active)
    log_nu2 = math.fsum(p * math.log(c.n) for p, c in active)
    if log_nu1 == 0.0:
        raise GeometryDomainError("nu_1 = 1: no horizontal contraction in mix")
    theta = log_nu1 / log_nu2
    acc = 0.0
    for p, c in active:
        total = math.fsum(cc ** theta for cc in c.column_counts if cc > 0)
        acc += p * math.log(total)
    return acc / log_nu1


def carpet_dimension_curve(carpets: Sequence[CarpetSpec],
                           weights_grid: Sequence[Sequence[float]]
                           ) -> list[tuple[tuple[float, ...], float]]:
    """One (weights, dimension) row per grid vector."""
    if not weights_grid:
        raise UsageError("weights grid must be non-empty")
    return [(tuple(float(x) for x in w), random_carpet_dimension(carpets, w))
            for w in weights_grid]


_PRESCAN = 257
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_carpet_dimension(carpets: Sequence[CarpetSpec],
                              tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section minimum of p -> dim over (p, 1-p) mixes of two carpets.

    A 257-point pre-scan checks first that the sampled values fall, then
    rise (a sample cannot certify unimodality between its points); a flat
    curve returns the grid midpoint.
    """
    if len(carpets) != 2:
        raise UsageError("minimizer handles exactly two carpets")
    if not tol >= 0.0:
        raise UsageError("tol must be >= 0")

    def val(p: float) -> float:
        return random_carpet_dimension(carpets, (p, 1.0 - p))

    ps = [i / (_PRESCAN - 1) for i in range(_PRESCAN)]
    vs = [val(p) for p in ps]
    lo = min(vs)
    hi = max(vs)
    if hi - lo <= 1e-12:
        mid = ps[(_PRESCAN - 1) // 2]
        return mid, val(mid)
    k = vs.index(lo)
    wiggle = 1e-13
    descent = all(vs[i] >= vs[i + 1] - wiggle for i in range(k))
    ascent = all(vs[i] <= vs[i + 1] + wiggle for i in range(k, _PRESCAN - 1))
    if not (descent and ascent):
        raise UnsupportedShapeError(
            f"dimension curve not unimodal on pre-scan; grid argmin p = {ps[k]:.6f}")
    a = ps[max(0, k - 1)]
    b = ps[min(_PRESCAN - 1, k + 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = val(c), val(d)
    # a one-ulp bracket stops shrinking, so also stop once c, d no longer
    # fall strictly inside it
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = val(d)
    p_star = 0.5 * (a + b)
    return p_star, val(p_star)


def extremal_ss_bounds(rifs: "Rifs") -> tuple[float, float, tuple[float, ...]]:
    """Per-system similarity dimensions and their min/max.

    Only meaningful for similarity maps; anything else is refused.
    """
    ss = []
    for system in rifs.systems:
        ratios = []
        for m in system.maps:
            if m.kind != "similarity":
                raise UnsupportedShapeError(
                    f"system {system.label!r} contains a non-similarity map")
            ratios.append(m.lip_hi)
        ss.append(similarity_dimension(ratios).value)
    return min(ss), max(ss), tuple(ss)


@record
class GrowthReport(Record):
    """Per-system level factors at exponents h and p.

    `factors_minus[i]` is Phi-_i(h), the sum over system i + 1's maps of
    lip_lo ** h, and `factors_plus[i]` is Phi+_i(p), the sum of lip_hi ** p.
    `lip_minus_witness` is the first system (1-based) with Phi- > 1 and
    `lip_plus_witness` the first with Phi+ < 1, or None.  The factors are
    float sums of the declared bounds' powers, each rounded to nearest, so
    a factor within rounding of 1 certifies neither witness.
    """

    h: float
    p: float
    factors_minus: tuple[float, ...]
    factors_plus: tuple[float, ...]
    lip_minus_witness: int | None
    lip_plus_witness: int | None


def check_growth_conditions(rifs: "Rifs", h: float, p: float) -> GrowthReport:
    """Per-system level factors along constant sequences.

    Phi-_i(h) = sum_j lip_lo^h and Phi+_i(p) = sum_j lip_hi^p telescope the
    level-l sums, so Phi-_i(h) > 1 makes the lower sum blow up along (i,i,...)
    and Phi+_i(p) < 1 makes the upper sum vanish.  Witness indices are
    1-based; factors exactly 1 witness nothing.
    """
    if not (h >= 0.0 and p >= 0.0):     # NaN fails the compare too
        raise UsageError("exponents must be >= 0")
    fm = tuple(math.fsum(m.lip_lo ** h for m in sys.maps)
               for sys in rifs.systems)
    fp = tuple(math.fsum(m.lip_hi ** p for m in sys.maps)
               for sys in rifs.systems)
    wm = next((i + 1 for i, f in enumerate(fm) if f > 1.0), None)
    wp = next((i + 1 for i, f in enumerate(fp) if f < 1.0), None)
    return GrowthReport(h, p, fm, fp, wm, wp)


def check_uosc_grid(carpets: Sequence[CarpetSpec]) -> bool:
    """Distinct grid cells have disjoint interiors inside the open square."""
    return all(c.distinct_cells() for c in carpets)
