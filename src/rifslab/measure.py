"""Gauge functions and measure-theoretic bounds.

A gauge maps diameters to weights, vanishing at zero and non-decreasing.
Cover sums against a gauge give upper bounds in the Hausdorff direction;
greedy packings give lower bounds in the packing direction.  A cylinder
measure spreads unit mass over the cylinder tree and brackets ball masses to
produce two-sided dimension-print style constants.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._lazy import np
from ._record import Record, record
from .errors import GeometryDomainError, UsageError, check_int
from .dimension import CarpetSpec, similarity_dimension
from .model import (DEFAULT_BUDGET, CylinderCover, Rifs, _ExactSum, _boxes,
                    _chunks, _levels, _whole, resolution_depth)
from .sequences import OmegaSeq


class Gauge:
    """Base class; subclasses fill in `_eval` over positive arrays."""

    label = "gauge"

    def _eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if not np.all(arr >= 0.0):     # NaN fails the compare too
            raise UsageError("gauges take non-negative, non-NaN diameters")
        safe = np.where(arr > 0.0, arr, 1.0)
        out = np.where(arr > 0.0, self._eval(safe), 0.0)
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out


class PowerGauge(Gauge):
    """t -> t**s for a positive exponent."""

    def __init__(self, s: float) -> None:
        if not 0.0 < s < math.inf:     # NaN fails the compare too
            raise UsageError("power gauge exponent must be finite and > 0")
        self.s = float(s)
        self.label = f"power[{self.s:g}]"

    def _eval(self, t: np.ndarray) -> np.ndarray:
        return t ** self.s


class PowerLogGauge(Gauge):
    """t -> t**s * log(1/t) on (0, t0], continued linearly above t0.

    The raw formula stops increasing near t = 1; the cap point t0 = e^(-2/s)
    sits safely inside the increasing range and the continuation keeps the
    gauge monotone with a matching slope t0**(s-1).
    """

    def __init__(self, s: float) -> None:
        if not 0.0 < s < math.inf:
            raise UsageError(
                "power-log gauge exponent must be finite and > 0")
        self.s = float(s)
        self.t0 = math.exp(-2.0 / self.s)
        try:    # a t0 underflowed to 0.0 divides by zero here
            self.slope = self.t0 ** (self.s - 1.0)
        except (ZeroDivisionError, OverflowError):
            raise UsageError(
                f"power-log gauge exponent {self.s:g} is too small: the "
                "slope at its cap point e^(-2/s) overflows") from None
        self.base = self.t0 ** self.s * (2.0 / self.s)
        self.label = f"power_log[{self.s:g}]"

    def _eval(self, t: np.ndarray) -> np.ndarray:
        low = np.minimum(t, self.t0)   # so t = inf never reaches log(1/t)
        return np.where(t <= self.t0,
                        low ** self.s * np.log(1.0 / low),
                        self.base + self.slope * (t - self.t0))


class TableGauge(Gauge):
    """Piecewise-linear gauge through tabulated (t, value) knots.

    Below the first knot the gauge runs linearly through the origin; above
    the last knot the final segment's slope continues.
    """

    def __init__(self, knots) -> None:
        pts = sorted((float(t), float(g)) for t, g in knots)
        if not pts:
            raise UsageError("table gauge needs at least one knot")
        kt, kg = zip(*pts)
        self.kt, self.kg = kt, kg
        # negated, so that a NaN knot fails the compare too
        if not 0.0 < kt[0] <= kt[-1] < math.inf:
            raise UsageError("table gauge knots must have finite t > 0")
        if not all(b - a > 0.0 for a, b in zip(kt, kt[1:])):
            raise UsageError("table gauge knots must be strictly increasing")
        if not (kg[0] >= 0.0 and all(b - a >= 0.0 for a, b in zip(kg, kg[1:]))
                and kg[-1] < math.inf):
            raise UsageError(
                "table gauge values must be finite and non-decreasing")
        if len(kt) >= 2:
            self.tail_slope = (kg[-1] - kg[-2]) / (kt[-1] - kt[-2])
        else:
            self.tail_slope = kg[0] / kt[0]
        self.label = f"table[{len(kt)} knots]"

    def _eval(self, t: np.ndarray) -> np.ndarray:
        out = np.interp(t, self.kt, self.kg)
        below = t < self.kt[0]
        above = t > self.kt[-1]
        out = np.where(below, self.kg[0] * t / self.kt[0], out)
        out = np.where(above,
                       self.kg[-1] + self.tail_slope * (t - self.kt[-1]), out)
        return out


@record
class DoublingReport(Record):
    """Envelope for G(c*t)/G(t) over scales up to the given diameter: a
    sample, not a certified bound, unless `samples` is 0 (exact)."""

    c: float
    d_minus: float
    d_plus: float
    gauge_label: str
    samples: int


def doubling_constants(g: Gauge, c: float, diameter: float,
                       samples: int = 10_000) -> DoublingReport:
    """Min and max of G(c*t)/G(t) at `samples` log-spaced scales t over
    [1e-9 * diameter, diameter]: a sample, not a certified bound.  Exact
    for c == 1 and for PowerGauge (both report samples = 0); for
    PowerLogGauge the t -> 0 limit c**s is folded in as well.  A gauge that
    is 0 at a sampled scale, where the ratio is 0/0, is refused."""
    if not (0.0 < c <= 1.0):
        raise UsageError("scale factor c must lie in (0, 1]")
    if not 0.0 < diameter < math.inf:
        raise UsageError("diameter must be finite and > 0")
    if check_int("samples", samples) < 1:
        raise UsageError("samples must be an integer >= 1")
    if c == 1.0:
        return DoublingReport(c, 1.0, 1.0, g.label, 0)
    if isinstance(g, PowerGauge):
        exact = c ** g.s
        return DoublingReport(c, exact, exact, g.label, 0)
    t = np.geomspace(1e-9 * diameter, diameter, samples)
    gt = np.asarray(g(t))
    if not np.all(gt > 0.0):
        raise UsageError(f"gauge {g.label} is 0 at sampled scale "
                         f"t = {t[gt <= 0.0][-1]:.6g}, so G(c*t)/G(t) is "
                         f"undefined there")
    ratios = np.asarray(g(c * t)) / gt
    lo = float(ratios.min())
    hi = float(ratios.max())
    if isinstance(g, PowerLogGauge):
        # ratio tends to c**s as t -> 0; fold in the analytic limit
        limit = c ** g.s
        lo = min(lo, limit)
        hi = max(hi, limit)
    return DoublingReport(c, lo, hi, g.label, samples)


def hausdorff_upper_bound(cover, g: Gauge) -> float:
    """Sum of gauge values over piece diameters.

    Accepts a CylinderCover, an (n, dim, 2) box array, or a flat array of
    diameters.
    """
    if isinstance(cover, CylinderCover):
        diams = cover.diameters()
    else:
        arr = np.asarray(cover, dtype=float)
        if arr.ndim == 3:
            diams = np.linalg.norm(arr[:, :, 1] - arr[:, :, 0], axis=1)
        elif arr.ndim == 1:
            diams = arr
        else:
            raise UsageError("expected a cover, boxes, or diameters")
    if diams.size == 0:
        raise UsageError("empty cover")
    return float(np.asarray(g(diams)).sum())


@record
class PackingReport(Record):
    """A greedy packing of a finite point set at separation delta.

    `count` is the size of a subset whose points lie pairwise more than
    `delta` apart (exact for the given points, though not always the largest
    such subset), and `gauge_value` is count * G(delta).  It bounds the
    packing sum of the given points from below, not of the attractor they
    approximate.
    """

    count: int
    delta: float
    gauge_value: float


def packing_lower_bound(points, g: Gauge, delta: float) -> PackingReport:
    """Greedy delta-separated subset, seeded at the lexicographically
    smallest point, growing by farthest-first insertion while the farthest
    remaining point is strictly more than delta away.  The reported value is
    count * G(delta)."""
    if not 0.0 < delta < math.inf:
        raise UsageError("delta must be finite and > 0")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise UsageError("cannot pack an empty point set")
    if not np.isfinite(pts).all():
        raise UsageError("points must be finite")
    order = np.lexsort(pts.T[::-1])
    p = pts[order]
    d2 = ((p - p[0]) ** 2).sum(axis=1)
    count = 1
    thresh = delta * delta
    while True:
        i = int(np.argmax(d2))
        if not d2[i] > thresh:
            break
        count += 1
        d2 = np.minimum(d2, ((p - p[i]) ** 2).sum(axis=1))
    return PackingReport(count, delta, count * float(g(delta)))


def _check_exponents(exponents, n: int) -> None:
    """Refuse mass exponents that are not one per system, each finite and
    >= 0."""
    if len(exponents) != n:
        raise UsageError("one exponent per system is required")
    if not all(0.0 <= s < math.inf for s in exponents):
        raise UsageError("exponents must be finite and >= 0")


@record
class CylinderMeasure(Record):
    """Unit mass split across the cylinder tree.

    Each system i carries an exponent s_i; a map with upper Lipschitz bound
    r gets mass fraction r**s_i among its siblings.  With the default
    exponents (the root of sum r_j**s = 1 per system) the fractions of every
    system sum to one, so each level's masses sum to one.
    """

    rifs: Rifs
    omega: OmegaSeq
    exponents: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.exponents:
            roots = tuple(
                similarity_dimension([m.lip_hi for m in sys_.maps]).value
                for sys_ in self.rifs.systems)
            object.__setattr__(self, "exponents", roots)
        _check_exponents(self.exponents, len(self.rifs.systems))

    def factors(self, level_system: int) -> np.ndarray:
        sys_ = self.rifs.systems[level_system - 1]
        s = self.exponents[level_system - 1]
        return np.array([m.lip_hi ** s for m in sys_.maps])


def cylinder_mass(cm: CylinderMeasure, word) -> float:
    """Mass of the cylinder at a 0-based index word along the measure's
    sequence: its factors multiplied innermost first, as `level_masses`
    multiplies them, so the two agree bit for bit."""
    facs = []
    for level, idx in enumerate(word, start=1):
        fac = cm.factors(cm.omega.entry(level))
        if not (0 <= idx < fac.size):
            raise UsageError(
                f"word entry {idx} out of range at level {level}")
        facs.append(float(fac[idx]))
    return math.prod(reversed(facs), start=1.0)


def _masses(cm: CylinderMeasure, levels):
    """(levels, leaf, image) of the masses of the cylinders down the
    checked `levels`, for _whole or _chunks."""
    return ([cm.factors(cm.omega.entry(l)) for l in range(1, len(levels) + 1)],
            np.ones(1), lambda f, m, out=None: np.multiply(f, m, out=out))


def level_masses(cm: CylinderMeasure, depth: int,
                 budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Masses of all depth-k cylinders, aligned with cylinder_cover order."""
    if check_int("depth", depth) < 1:
        raise UsageError("depth must be >= 1")
    return _whole(*_masses(cm, _levels(cm.rifs, cm.omega, depth, budget)[0]))


@record
class MdpReport(Record):
    """Empirical mass-distribution bracket over the probed balls.

    lambda_sup bounds mass(B(x, r)) / r**s from above via cylinders meeting
    the ball; lambda_inf bounds it from below via cylinders inside the ball.
    They translate to a Hausdorff lower bound 1/lambda_sup and a packing
    upper bound 2**s / lambda_inf.
    """

    s: float
    depth: int
    lambda_sup: float
    lambda_inf: float
    h_lower: float
    p_upper: float
    rows: tuple[tuple[tuple[float, ...], float, float, float], ...]


_INNER_SLACK = 1.0 + 1e-12


def _scale(r: float, s: float) -> float:
    """r**s, which divides the masses of the balls of radius r."""
    try:
        scale = r ** s
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise UsageError(f"radius {r!r} to the power s = {s!r} is not a "
                         f"positive finite float")
    return scale


def _reach2(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Squared distances from each point of `x` to the nearest and the
    farthest point of its box [lo, hi].  Both are monotone in the box ends
    in floats: a box holding another is no farther and no nearer."""
    gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    far = np.maximum(np.abs(x - lo), np.abs(hi - x))
    return (gap ** 2).sum(axis=1), (far ** 2).sum(axis=1)


def _hull_tree(boxes: np.ndarray, fans) -> list[tuple[np.ndarray, np.ndarray]]:
    """(lo, hi) of every prefix's leaves within one chunk of leaf boxes,
    root first; `fans` lists the levels' branching from the leaves up.

    Rows are in word order, so a prefix's leaves are one contiguous block
    and its hull is the min/max over that block, folded from the fan's
    strided slices of the level below: exact in floats, so a hull holds
    its leaf boxes for every map kind.
    """
    tree = [(boxes[:, :, 0], boxes[:, :, 1])]
    for fan in fans:
        below_lo, below_hi = tree[-1]
        if below_lo.shape[0] == 1:
            break
        lo, hi = below_lo[::fan].copy(), below_hi[::fan].copy()
        for i in range(1, fan):
            np.minimum(lo, below_lo[i::fan], out=lo)
            np.maximum(hi, below_hi[i::fan], out=hi)
        tree.append((lo, hi))
    return tree[::-1]


def _ball_blocks(tree, centres: np.ndarray, limits: np.ndarray,
                 outer: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per query q, the leaves of one chunk with near2 <= limits[q] (outer)
    or far2 <= limits[q] (inner), as (query, first leaf, leaf count)
    blocks numbered within the chunk, found by descent through the chunk's
    hull tree.

    A hull with near2 > limit holds no such leaf; one with far2 <= limit
    holds only such leaves, since near2 <= far2; only hulls the sphere cuts
    descend.  So the leaves found do not depend on where the chunks start.
    """
    leaves = tree[-1][0].shape[0]
    q = np.arange(limits.size)
    node = np.zeros_like(q)
    blocks = []
    for level, (lo, hi) in enumerate(tree[:-1]):
        near2, far2 = _reach2(centres[q], lo[node], hi[node])
        span = leaves // lo.shape[0]
        full = far2 <= limits[q]
        blocks.append((q[full], node[full] * span,
                       np.full(full.sum(), span)))
        cut = (near2 <= limits[q]) & ~full
        fan = tree[level + 1][0].shape[0] // lo.shape[0]
        q = np.repeat(q[cut], fan)
        node = (node[cut][:, None] * fan + np.arange(fan)).ravel()
    lo, hi = tree[-1]
    near2, far2 = _reach2(centres[q], lo[node], hi[node])
    take = np.where(outer[q], near2, far2) <= limits[q]
    blocks.append((q[take], node[take], np.ones(take.sum(), dtype=int)))
    return blocks


def _chunk_runs(blocks, queries: int):
    """One chunk's `_ball_blocks` as (shift, counts, rows, offs): query q's
    blocks are rows[q]:rows[q+1], in word order, and its leaves are
    gathered positions offs[q]:offs[q+1]; gathered position i of a block
    is leaf shift + i."""
    qs, firsts, counts = (np.concatenate(col) for col in zip(*blocks))
    order = np.lexsort((firsts, qs))
    firsts, counts = firsts[order], counts[order]
    ends = np.cumsum(counts)
    rows = np.searchsorted(qs[order], np.arange(queries + 1))
    offs = np.concatenate(([0], ends))[rows]
    return firsts - (ends - counts), counts, rows, offs


def _block_sums(runs, walk, queries: int) -> list[float]:
    """Per query, the exact sum of its blocks' leaf masses, rounded once:
    `math.fsum` over the gathered leaves of a full scan.

    `runs` holds `_chunk_runs` per cover chunk, and `walk` streams the
    masses in the same chunks (same fans, so the same bounds).  Each query
    pushes its leaves of each chunk to its own `_ExactSum`.
    """
    accs = [_ExactSum() for _ in range(queries)]
    # the walk is zipped first, so it runs to its end and is released
    for masses, (shift, counts, rows, offs) in zip(walk, runs):
        for q in np.flatnonzero(np.diff(offs)).tolist():
            a, b = rows[q], rows[q + 1]
            accs[q].push(masses[np.repeat(shift[a:b], counts[a:b])
                                + np.arange(offs[q], offs[q + 1])])
    return [acc.total for acc in accs]


def mdp_bounds(cm: CylinderMeasure, s: float, radii, sample_points,
               budget: int = DEFAULT_BUDGET) -> MdpReport:
    """Bracket mass(B(x, r)) / r**s over the points and radii; a ball's outer
    (inner) mass is `math.fsum` of its meeting (held) cylinders' masses."""
    if not 0.0 < s < math.inf:
        raise UsageError("exponent s must be positive and finite")
    radii = tuple(float(r) for r in radii)
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise UsageError("radii must be positive and finite")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if pts.shape[1] != cm.rifs.ambient.dim:
        raise UsageError("sample points do not match the ambient dimension")
    if not np.isfinite(pts).all():
        raise UsageError("sample points must be finite")
    scales = [_scale(r, s) for r in radii]

    depth = resolution_depth(cm.rifs, cm.omega, min(radii) / 4.0, budget)

    # one query per point, radius and rule, in row order: outer, then inner
    limits = []
    for r in radii:
        rin = r * _INNER_SLACK
        limits += [r * r, rin * rin]
    centres = np.repeat(pts, len(limits), axis=0)
    outer = np.arange(len(pts) * len(limits)) % 2 == 0
    limits = np.tile(limits, len(pts))
    # the cover is streamed, then the masses: one chunk's tree or masses,
    # and the blocks found, indexed per query, are held
    walk, _ = _boxes(cm.rifs, cm.omega, depth, budget)
    fans = [len(maps) for maps in reversed(walk[0])]
    runs = [_chunk_runs(_ball_blocks(_hull_tree(boxes, fans), centres,
                                     limits, outer), limits.size)
            for boxes in _chunks(*walk)]
    sums = iter(_block_sums(runs, _chunks(*_masses(cm, walk[0])),
                            limits.size))

    rows = []
    lam_sup = 0.0
    lam_inf = math.inf
    for x in pts:
        for r, scale in zip(radii, scales):
            outer, inner = next(sums), next(sums)
            lam_sup = max(lam_sup, outer / scale)
            lam_inf = min(lam_inf, inner / scale)
            rows.append((tuple(float(v) for v in x), r, outer, inner))

    if lam_sup <= 0.0:
        raise GeometryDomainError(
            "no cylinder mass met any probed ball; bracket is empty")
    h_lower = 1.0 / lam_sup
    try:
        p_upper = math.inf if lam_inf <= 0.0 else 2.0 ** s / lam_inf
    except OverflowError:              # 2**s alone exceeds every float
        p_upper = math.inf
    return MdpReport(s, depth, lam_sup, lam_inf, h_lower, p_upper,
                     tuple(rows))


def check_msc_grid(carpets: Sequence[CarpetSpec], omega: OmegaSeq,
                   depth: int) -> bool:
    """True when sibling cylinders along ``omega`` stay interior-disjoint
    down to ``depth``.

    Grid cells make this exact: a level-k cylinder occupies one cell of the
    product grid, so positive-area overlap happens only when two words land
    on the same (column, row) pair.  Shared edges are allowed.  That cell's
    column and row are the word's cells read as mixed-radix digits, so two
    words share a cell exactly when, at the first level where they differ,
    that level's carpet repeats a cell: each level is checked on its own,
    and the levels past one prefix and cycle repeat the ones before.
    """
    if check_int("depth", depth) < 0:
        raise UsageError("depth must be non-negative")
    levels = min(depth, len(omega.prefix) + len(omega.cycle))
    for level in range(1, levels + 1):
        idx = omega.entry(level)
        if not (1 <= idx <= len(carpets)):
            raise UsageError(f"sequence entry {idx} has no carpet")
        if not carpets[idx - 1].distinct_cells():
            return False
    return True
