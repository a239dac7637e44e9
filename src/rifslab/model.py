"""Random iterated function systems: cylinder covers along a sequence,
attractor approximation with a certified Hausdorff-metric error, splices,
Bernoulli sampling, and the continuity probe.

Cylinders at depth k along omega are the compositions S_{w1,i1} o ... o
S_{wk,ik} applied to the ambient box.  They are enumerated bottom-up: the
depth-k family along omega is the image of the depth-(k-1) family along the
shifted sequence under the first-level maps, which yields lexicographic word
order with the first symbol most significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dimension import CarpetSpec, check_weights
from .errors import ResourceError, UsageError
from .geometry import Affine2, AmbientBox, ContractionMap, Similarity
from .sequences import OmegaSeq, omega_distance, splice

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class DeterministicIfs:
    """One IFS: a non-empty ordered family of maps over a shared box."""

    maps: tuple[ContractionMap, ...]
    label: str

    def __post_init__(self) -> None:
        if not self.maps:
            raise UsageError(f"system {self.label!r} has no maps")
        dims = {m.dim for m in self.maps}
        if len(dims) != 1:
            raise UsageError(f"system {self.label!r} mixes dimensions")

    @property
    def dim(self) -> int:
        return self.maps[0].dim


@dataclass(frozen=True)
class Rifs:
    """An ordered list of IFSs acting on one ambient box."""

    systems: tuple[DeterministicIfs, ...]
    ambient: AmbientBox

    def __post_init__(self) -> None:
        if not self.systems:
            raise UsageError("a RIFS needs at least one system")
        box = self.ambient.as_array()[None]
        for sys_ in self.systems:
            if sys_.dim != self.ambient.dim:
                raise UsageError(
                    f"system {sys_.label!r} dimension {sys_.dim} does not match "
                    f"ambient dimension {self.ambient.dim}")
            for m in sys_.maps:
                # image_box_array is the exact image range for every map kind
                if not self.ambient.contains(m.image_box_array(box)[0].T):
                    raise UsageError(f"map {m.describe()} of system "
                                     f"{sys_.label!r} leaves the ambient box")

    def system_for_level(self, omega: OmegaSeq, level: int) -> DeterministicIfs:
        idx = omega.entry(level)
        if not (1 <= idx <= len(self.systems)):
            raise UsageError(f"sequence entry {idx} has no system")
        return self.systems[idx - 1]


def carpet_system(carpet: CarpetSpec, label: str) -> DeterministicIfs:
    """Grid-cell maps of a carpet: cell (col, row) -> diag(1/m, 1/n) + offset.

    Cells are taken in the carpet's declared order.
    """
    maps: list[ContractionMap] = []
    m, n = carpet.m, carpet.n
    for col, row in carpet.chosen:
        shift = (col / m, row / n)
        if m == n:
            maps.append(Similarity(1.0 / m, shift))
        else:
            maps.append(Affine2([[1.0 / m, 0.0], [0.0, 1.0 / n]], shift))
    return DeterministicIfs(tuple(maps), label)


def _family(like: np.ndarray, rows: int) -> np.ndarray:
    """An empty family of `rows` rows laid out as the walk holds `like`'s:
    boxes (n, dim, 2) axis-major, as a view of one contiguous column per
    axis and end, shape (dim, 2, rows); points and masses row-major."""
    if like.ndim == 3:
        return np.empty(like.shape[1:] + (rows,),
                        dtype=like.dtype).transpose(2, 0, 1)
    return np.empty((rows,) + like.shape[1:], dtype=like.dtype)


@dataclass(frozen=True)
class CylinderCover:
    """Depth-k cover of the attractor by composed images of the ambient box.

    Boxes are exact per-axis ranges propagated through the factor maps, so a
    child box always sits inside its parent.  Rows are in lexicographic word
    order, first symbol most significant.
    """

    rifs: Rifs
    omega: OmegaSeq
    depth: int
    boxes: np.ndarray          # (count, dim, 2)
    error_bound: float

    @property
    def count(self) -> int:
        return self.boxes.shape[0]

    def diameters(self) -> np.ndarray:
        # Similarities scale diameters exactly, so the ratio product is the
        # true cylinder diameter; otherwise fall back to the box diagonal.
        if all(m.kind == "similarity"
               for sys_ in self.rifs.systems for m in sys_.maps):
            levels, _ = _levels(self.rifs, self.omega, self.depth, self.count)
            ratios = _whole(levels, np.ones(1), lambda m, r, out: np.multiply(
                m.lip_hi, r, out=out))
            return ratios * self.rifs.ambient.diameter
        spans = self.boxes[:, :, 1] - self.boxes[:, :, 0]
        return np.linalg.norm(spans, axis=1)


def _boxes(rifs: Rifs, omega: OmegaSeq, depth: int, budget: int):
    """(levels, leaf, image) of the depth-k boxes, for _whole or _chunks,
    and the depth-k error bound."""
    if depth < 1:
        raise UsageError("depth must be >= 1")
    levels, bound = _levels(rifs, omega, depth, budget)
    return (levels, rifs.ambient.as_array()[None, :, :],
            lambda m, boxes, out=None: m.image_box_array(boxes, out)), bound


def _points(rifs: Rifs, omega: OmegaSeq, depth: int, seeds, budget: int):
    """(levels, leaf, image) of the depth-k images of the seeds."""
    if depth < 0:
        raise UsageError("depth must be >= 0")
    return (_levels(rifs, omega, depth, budget)[0],
            np.atleast_2d(np.asarray(seeds, dtype=float)),
            lambda m, pts, out=None: m.apply_array(pts, out))


def cylinder_cover(rifs: Rifs, omega: OmegaSeq, depth: int,
                   budget: int = DEFAULT_BUDGET) -> CylinderCover:
    """Enumerate all depth-k cylinders along omega."""
    walk, bound = _boxes(rifs, omega, depth, budget)
    return CylinderCover(rifs, omega, depth, _whole(*walk), bound)


def cylinder_images(rifs: Rifs, omega: OmegaSeq, depth: int, seeds: np.ndarray,
                    budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Images of seed points under every depth-k composition along omega.

    Returns (count * len(seeds), dim); each word's block keeps seed order,
    blocks are in lexicographic word order.
    """
    return _whole(*_points(rifs, omega, depth, seeds, budget))


_CHUNK_LEAVES = 1 << 15    # most cylinders per chunk of a streamed family


def _chunks(levels, leaf, image, most=None):
    """The depth-k family grown from `leaf` in word order, one array of
    rows per level-j prefix: the walk every per-cylinder array comes from.

    `levels` lists each level's items (maps, or per-map factors) from level
    1 down, for levels `_levels` has checked against the budget; `image(
    item, batch, out=None)` maps a whole batch into `out` (or a new array
    laid out as the batch) and returns it.  j is the least prefix length
    whose subtrees have at most `most` cylinders (`_CHUNK_LEAVES` if
    None).  The levels below j are built once, deepest
    first, each into one `_family` array (boxes axis-major); each prefix
    maps that family through its items, innermost first, each step into
    one new array.  Every map step is elementwise, so a row's image does
    not depend on the batch it is in, and the chunks concatenate bit for
    bit to the family of j = 0 (`_whole`).
    """
    leaves = math.prod(len(items) for items in levels)
    most = _CHUNK_LEAVES if most is None else most
    j = 0
    while leaves > most:
        leaves //= len(levels[j])
        j += 1
    family = leaf
    for items in reversed(levels[j:]):
        n = len(family)
        level = _family(family, len(items) * n)
        for i, item in enumerate(items):
            image(item, family, level[i * n:(i + 1) * n])
        family = level
    for prefix in itertools.product(*levels[:j]):
        batch = family
        for item in reversed(prefix):
            batch = image(item, batch)
        yield batch


def _whole(levels, leaf, image) -> np.ndarray:
    """The whole family: the walk of `_chunks` run as one chunk, with
    prefix length 0."""
    (family,) = _chunks(levels, leaf, image, math.inf)
    return family


def _tiny_units(x: float) -> int:
    """Finite x as an exact int multiple of 2**-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


class _ExactSum:
    """`math.fsum` of every float64 value pushed, in any split and order.

    A push is summed by error-free extraction (Rump, Ogita & Oishi, SIAM J.
    Sci. Comput. 31(1), 2008): for n values, 2**m >= n + 2 and sigma = 2**e
    >= 2**m * max|v|, q = (sigma + v) - sigma, v - q and any float sum of
    the q are exact.  Each sum of q is added to one int in units of
    2**-1074, and v - q is extracted in turn until it is 0.  Inf, nan and
    values too large for sigma are added one by one; a total beyond the
    float range is +-inf, and inf and nan add up as in `np.sum`.
    """

    def __init__(self) -> None:
        self._units = 0          # the finite values' sum, in 2**-1074
        self._special = 0.0      # the sum of the inf and nan values

    def push(self, values) -> None:
        rest = np.array(values, dtype=float)
        m = (rest.size + 1).bit_length()
        q = np.empty_like(rest)
        while top := max(rest.max(initial=0.0), -rest.min(initial=0.0)):
            e = math.frexp(top)[1] + m
            if e > 1023 or not math.isfinite(top):
                odd = ~(np.abs(rest) < math.ldexp(1.0, 1023 - m))
                vals = rest[odd].tolist()        # inf, nan or too large
                self._special += sum(v for v in vals if not math.isfinite(v))
                vals = filter(math.isfinite, vals)
                self._units += sum(map(_tiny_units, vals))
                rest[odd] = 0.0
                continue
            sigma = math.ldexp(1.0, e)
            np.add(rest, sigma, out=q)
            q -= sigma
            self._units += _tiny_units(float(q.sum()))
            rest -= q

    @property
    def total(self) -> float:
        if self._special != 0.0:           # true for nan too
            return self._special
        try:
            return self._units / (1 << 1074)     # correctly rounded
        except OverflowError:
            return math.inf if self._units > 0 else -math.inf


def _cover_chunks(rifs: Rifs, omega: OmegaSeq, depth: int,
                  budget: int = DEFAULT_BUDGET):
    """cylinder_cover's boxes, streamed by _chunks."""
    return _chunks(*_boxes(rifs, omega, depth, budget)[0])


def _image_chunks(rifs: Rifs, omega: OmegaSeq, depth: int, seeds,
                  budget: int = DEFAULT_BUDGET):
    """cylinder_images's points, streamed by _chunks in whole word blocks."""
    return _chunks(*_points(rifs, omega, depth, seeds, budget))


_MAX_DEPTH = 10_000        # deepest level any walk goes down to
_LEAST = math.ulp(0.0)     # least positive float: no bound rounds below it


def _level_bounds(rifs: Rifs, omega: OmegaSeq, budget: int):
    """Yield (maps, bound) for levels 1, 2, ...: the level's maps and the
    error bound down to it (the level-1-first product of per-level max
    lip_hi, times the ambient diameter; the product and the bound are each
    kept at or above the least positive float, so neither underflows to
    0).  Every walk takes its levels from here: before level l is yielded,
    a cylinder count down to l above the budget, or l above `_MAX_DEPTH`,
    raises `ResourceError` with that count and the bound down to level
    l - 1 as the best error."""
    count, scale, bound = 1, 1.0, rifs.ambient.diameter
    for level in itertools.count(1):
        maps = rifs.system_for_level(omega, level).maps
        count *= len(maps)
        if count > budget:
            raise ResourceError(
                f"cylinder count {count} at depth {level} exceeds budget "
                f"{budget}; best achievable error {bound:.6g}",
                count=count, best_error=bound)
        if level > _MAX_DEPTH:
            raise ResourceError(f"depth {level} exceeds {_MAX_DEPTH} levels",
                                count=count, best_error=bound)
        scale = max(scale * max(m.lip_hi for m in maps), _LEAST)
        bound = max(scale * rifs.ambient.diameter, _LEAST)
        yield maps, bound


def _levels(rifs: Rifs, omega: OmegaSeq, depth: int, budget: int):
    """The checked maps of levels 1..depth, and the Hausdorff-metric error
    bound of the depth-k cover along omega."""
    levels, bound = [], rifs.ambient.diameter
    for maps, bound in itertools.islice(_level_bounds(rifs, omega, budget),
                                        depth):
        levels.append(maps)
    return levels, bound


def resolution_depth(rifs: Rifs, omega: OmegaSeq, target_error: float,
                     budget: int = DEFAULT_BUDGET) -> int:
    """Smallest depth (at least 1) whose cover error bound meets the target.

    The bound shrinks by each level's largest lip_hi, so the search is pure
    arithmetic over the levels `_level_bounds` checks.
    """
    if not target_error > 0.0:         # NaN fails the compare too
        raise UsageError("target error must be > 0")
    for depth, (_, bound) in enumerate(_level_bounds(rifs, omega, budget), 1):
        if bound <= target_error:
            return depth


@dataclass(frozen=True)
class AttractorPoints:
    """One point per depth-k cylinder, within a certified distance of the
    attractor.

    `points` has shape (count, dim): the image of the ambient center under
    each depth-`depth` composition, in word order.  `error_bound` is the
    cover's bound on the Hausdorff distance between these points and the
    attractor, taken from the declared Lipschitz bounds; it is the certified
    value, though it is rounded to nearest, not up.
    """

    points: np.ndarray
    depth: int
    error_bound: float


def attractor_points(rifs: Rifs, omega: OmegaSeq, target_error: float,
                     budget: int = DEFAULT_BUDGET) -> AttractorPoints:
    """One representative point per cylinder, at the smallest depth whose
    error bound meets the target.

    The representative is the composed image of the ambient center, so it
    lies inside its cylinder; the point set is within the reported error
    bound of the attractor in the Hausdorff metric.
    """
    depth = resolution_depth(rifs, omega, target_error, budget)
    bound = _levels(rifs, omega, depth, budget)[1]
    center = np.asarray(rifs.ambient.center)[None, :]
    pts = cylinder_images(rifs, omega, depth, center, budget)
    return AttractorPoints(pts, depth, bound)


# --- Hausdorff distance ------------------------------------------------------

_BRUTE_CHUNK = 1 << 13    # pair evaluations per chunk or sweep step
_SWEEP_BLOCK = 2048       # points of a per sweep block
_TILT = 0.003             # alpha of the sweep key u = x + alpha * y
_TINY = 2.0 ** -1022      # smallest normal float


def _tilt(dim: int) -> float:
    return _TILT if dim > 1 else 0.0


def _keys(pts: np.ndarray) -> np.ndarray:
    """The sweep key x + alpha*y of every point, x and y its first and last
    coordinates, or x alone on one axis."""
    return pts[:, 0] + _tilt(pts.shape[1]) * pts[:, -1]


class _SweepSet:
    """A finite (points, dim) set as `_directed_sq_sweep` scans it.

    `pts` is the set in its own order; `key` holds its sweep keys ascending
    between the sentinels -inf and +inf, `cols` one contiguous column per
    axis in that order between +inf sentinels, and `err` bounds the
    rounding error of every key.
    """

    def __init__(self, pts: np.ndarray):
        n, dim = pts.shape
        x, y = pts[:, 0], pts[:, -1]
        mag = max(x.max(), -x.min()) + _tilt(dim) * max(y.max(), -y.min())
        self.pts, self.err = pts, float(mag) * 2.0 ** -50 + _TINY
        u = _keys(pts)
        order = np.argsort(u, kind="stable")
        self.key = np.empty(n + 2)
        self.key[0], self.key[-1] = -np.inf, np.inf
        np.take(u, order, out=self.key[1:-1])
        self.cols = np.full((dim, n + 2), np.inf)
        for d in range(dim):
            np.take(pts[:, d], order, out=self.cols[d, 1:-1])


def _directed_sq_sweep(a: _SweepSet, b: _SweepSet,
                       worst: float = 0.0) -> float:
    """max(worst, max over a.pts of min over b.pts of squared distance) by
    sort-and-sweep, equal to brute force over every pair.

    The sweep key is u = x + alpha*y, x the first coordinate and y the
    last (u = x on one axis), so that points tied in x, such as the
    columns of a carpet, are still spread along the key.  Each point p of
    a scans b, sorted on u, outward from p's own key position in windows
    of doubling width.  By Cauchy-Schwarz |du| <= sqrt(1 + alpha^2) |p -
    q|, so p stops once, on each side, the key gap g to the next unscanned
    point of b satisfies

        max(g - eps, 0)^2 >= (1 + alpha^2) best (1 + (dim + 8) 2^-52)
                             + 2^-1022,

    best being p's smallest pair value so far.  Every float step rounds
    by at most 2^-53 relative or, below 2^-1022, 2^-1075 absolute.  A key
    rounds twice, so it is within 2^-52 (|x| + alpha |y|) + 2^-1074 of
    x + alpha*y; each set's `err` is 2^-50 (max |x| + alpha max |y|) +
    2^-1022, room enough for the rounding of err itself, and eps = a.err
    + b.err covers both keys of a pair.  The factor's (2 dim + 16) 2^-53 covers the dim + 2 relative
    roundings that can make a float pair value smaller than the exact one
    and the 11 of the test itself, and 2^-1022 the absolute error of
    squares that underflow.  So every farther point of b has a float pair
    value >= best and cannot lower it.

    p is dropped once best <= the running maximum, which it then cannot
    raise (the early break of Taha & Hanbury, IEEE TPAMI 37(11), 2015).
    That maximum starts at `worst`, so seeding the second direction with
    the first one's value gives max(h_ab, h_ba) unchanged and drops more
    points early.  a is swept in its own order.  A window adds the
    squared differences axis by axis in axis order, the order in which
    brute force's `.sum(axis=-1)` adds them below eight axes, so each pair
    value is the same bit for bit.
    """
    n, dim = b.cols.shape[1] - 2, b.cols.shape[0]
    x = b.cols[0]
    eps = a.err + b.err
    scale = (1.0 + _tilt(dim) ** 2) * (1.0 + (dim + 8) * 2.0 ** -52)
    for start in range(0, a.pts.shape[0], _SWEEP_BLOCK):
        block = a.pts[start:start + _SWEEP_BLOCK]
        p, u = block.T, _keys(block)
        pos = np.searchsorted(b.key[1:-1], u)
        best = np.full(u.size, np.inf)
        live = np.arange(u.size)
        reach, width = 0, 1
        while live.size:
            offs = np.arange(reach, reach + width)
            rows = max(1, _BRUTE_CHUNK // (2 * width))
            for s in range(0, live.size, rows):
                i = live[s:s + rows]
                idx = np.concatenate((pos[i, None] - offs,
                                      pos[i, None] + 1 + offs), axis=1)
                np.clip(idx, 0, n + 1, out=idx)
                d2 = (p[0, i, None] - x.take(idx)) ** 2
                for d in range(1, dim):
                    d2 += (p[d, i, None] - b.cols[d].take(idx)) ** 2
                best[i] = np.minimum(best[i], d2.min(axis=1))
            reach += width
            width = min(2 * width, _BRUTE_CHUNK // 2)
            up, near = u[live], best[live]
            gap_lo = up - b.key[np.maximum(pos[live] - reach, 0)]
            gap_hi = b.key[np.minimum(pos[live] + 1 + reach, n + 1)] - up
            bound = scale * near + _TINY
            done = ((np.maximum(gap_lo - eps, 0.0) ** 2 >= bound)
                    & (np.maximum(gap_hi - eps, 0.0) ** 2 >= bound))
            if done.any():
                worst = max(worst, float(near[done].max()))
            live = live[~done & (near > worst)]
    return worst


def _hausdorff(a: _SweepSet, b: _SweepSet) -> float:
    # the first direction's value seeds the second
    return math.sqrt(_directed_sq_sweep(b, a, _directed_sq_sweep(a, b)))


def hausdorff_distance(a, b) -> float:
    """Exact symmetric Hausdorff distance between finite point sets.

    Sweeps the points sorted on a tilted key (`_directed_sq_sweep`), at
    every size and in any dimension, holding at most `_BRUTE_CHUNK` pairs
    at a time; below eight dimensions the value equals brute force over
    every pair bit for bit.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.ndim > 2 or b.ndim > 2:
        raise UsageError("point sets must be (points, dim) arrays")
    if a.size == 0 or b.size == 0:
        raise UsageError("Hausdorff distance needs non-empty point sets")
    if a.shape[1] != b.shape[1]:
        raise UsageError("point sets must share a dimension")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UsageError("Hausdorff distance needs finite coordinates")
    return _hausdorff(_SweepSet(a), _SweepSet(b))


# --- Bernoulli sampling ------------------------------------------------------


@dataclass(frozen=True)
class BernoulliSampler:
    """I.i.d. draws of 1-based system indices.

    `weights` holds one probability per system (non-negative, summing to 1
    within 1e-12) and `seed` seeds the PCG64 stream, so the same pair always
    draws the same symbols.  The draws are random, not certified.
    """

    weights: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        check_weights(self.weights)


def sample_omega(sampler: BernoulliSampler, horizon: int) -> OmegaSeq:
    """Draw `horizon` symbols i.i.d. from the weight vector.

    Deterministic in the seed: a PCG64 stream mapped through the inverse CDF.
    The result is the drawn prefix with the last symbol repeating.
    """
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    rng = np.random.Generator(np.random.PCG64(sampler.seed))
    u = rng.random(horizon)
    edges = np.cumsum(np.asarray(sampler.weights))
    symbols = np.searchsorted(edges, u, side="right") + 1
    symbols = np.minimum(symbols, len(sampler.weights))  # guard u ~ 1 edge
    prefix = tuple(int(s) for s in symbols)
    return OmegaSeq(prefix, (prefix[-1],))


# --- continuity of omega -> attractor ---------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    """One spliced tail of a continuity probe.

    `tail` is the sequence spliced in after k symbols, `d_omega` the
    ultrametric distance from omega to the spliced sequence, and
    `d_hausdorff` the exact Hausdorff distance between the two point
    approximations at the probe depth (finite sets, not the attractors).
    `bound` is 2 * (the error bound down to depth k) + 2 * (the larger of
    the two sequences' error bounds at the probe depth), all from the
    declared Lipschitz bounds: the certified bound `d_hausdorff` stays
    under.
    """

    tail: OmegaSeq
    d_omega: float
    d_hausdorff: float
    bound: float


def continuity_probe(rifs: Rifs, omega: OmegaSeq, k: int,
                     tails: list[OmegaSeq], depth: int,
                     budget: int = DEFAULT_BUDGET) -> list[ProbeRow]:
    """Splice each tail at depth k and compare attractor approximations.

    The Hausdorff column is bounded by 2 * (max composed lip_hi over depth-k
    cylinders) * diameter + 2 * error_bound, which is also reported.
    """
    if depth < k:
        raise UsageError("probe depth must be >= splice depth k")
    center = np.asarray(rifs.ambient.center)[None, :]
    base = _SweepSet(cylinder_images(rifs, omega, depth, center, budget))
    base_err = _levels(rifs, omega, depth, budget)[1]
    splice_err = _levels(rifs, omega, k, budget)[1]
    rows = []
    for tail in tails:
        spliced = splice(omega, k, tail)
        d_om = omega_distance(omega, spliced)
        pts = cylinder_images(rifs, spliced, depth, center, budget)
        d_h = _hausdorff(base, _SweepSet(pts))
        err = max(base_err, _levels(rifs, spliced, depth, budget)[1])
        bound = 2.0 * splice_err + 2.0 * err
        rows.append(ProbeRow(tail, d_om, d_h, bound))
    return rows

