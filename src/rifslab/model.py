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

from ._lazy import np
from ._record import Record, record
from .dimension import CarpetSpec, check_weights
from .errors import ResourceError, UsageError, check_int
from .geometry import Affine2, AmbientBox, ContractionMap, Similarity
# hausdorff_distance stays a name here too: the benchmark tracer wraps it
# as model.hausdorff_distance
from .hausdorff import _SweepSet, _hausdorff, hausdorff_distance  # noqa: F401
from .sequences import OmegaSeq, omega_distance, splice

DEFAULT_BUDGET = 10 ** 7


@record
class DeterministicIfs(Record):
    """One IFS: a non-empty ordered family of maps over a shared box,
    stored as a tuple."""

    maps: tuple[ContractionMap, ...]
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise UsageError(f"system {self.label!r} has no maps")
        dims = {m.dim for m in self.maps}
        if len(dims) != 1:
            raise UsageError(f"system {self.label!r} mixes dimensions")

    @property
    def dim(self) -> int:
        return self.maps[0].dim


@record
class Rifs(Record):
    """An ordered list of IFSs acting on one ambient box, stored as a
    tuple."""

    systems: tuple[DeterministicIfs, ...]
    ambient: AmbientBox

    def __post_init__(self) -> None:
        object.__setattr__(self, "systems", tuple(self.systems))
        if not self.systems:
            raise UsageError("a RIFS needs at least one system")
        for sys_ in self.systems:
            if sys_.dim != self.ambient.dim:
                raise UsageError(
                    f"system {sys_.label!r} dimension {sys_.dim} does not match "
                    f"ambient dimension {self.ambient.dim}")
            for m in sys_.maps:
                # checked with no tolerance on the floats the walk computes
                if not self.ambient.holds(m.image_box(self.ambient)):
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
            maps.append(Similarity(1 / m, shift))
        else:
            maps.append(Affine2([[1 / m, 0.0], [0.0, 1 / n]], shift))
    return DeterministicIfs(tuple(maps), label)


def _family(like: np.ndarray, rows: int) -> np.ndarray:
    """An empty family of `rows` rows laid out as the walk holds `like`'s:
    boxes (n, dim, 2) axis-major, as a view of one contiguous column per
    axis and end, shape (dim, 2, rows); points and masses row-major."""
    if like.ndim == 3:
        return np.empty(like.shape[1:] + (rows,),
                        dtype=like.dtype).transpose(2, 0, 1)
    return np.empty((rows,) + like.shape[1:], dtype=like.dtype)


@record
class CylinderCover(Record):
    """Depth-k cover of the attractor by composed images of the ambient box.

    Boxes are the factor maps' float image boxes, composed; rounding is
    monotone, so for affine maps each lies in its parent and the ambient
    box.  Rows are in lexicographic word order, first symbol most significant.
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
    if check_int("depth", depth) < 1:
        raise UsageError("depth must be >= 1")
    levels, bound = _levels(rifs, omega, depth, budget)
    return (levels, rifs.ambient.as_array()[None, :, :],
            lambda m, boxes, out=None: m.image_box_array(boxes, out)), bound


def _points(rifs: Rifs, omega: OmegaSeq, depth: int, seeds, budget: int):
    """(levels, leaf, image) of the depth-k images of the seeds."""
    if check_int("depth", depth) < 0:
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


_CHUNK_LEAVES = 1 << 15    # most rows per chunk of a streamed family


def _chunks(levels, leaf, image, most=None):
    """The depth-k family grown from `leaf` in word order, one array of
    rows per level-j prefix: the walk every per-cylinder array comes from.

    `levels` lists each level's items (maps, or per-map factors) from level
    1 down, for levels `_levels` has checked against the budget; `image(
    item, batch, out=None)` maps a whole batch into `out` (or a new array
    laid out as the batch) and returns it.  j is the least prefix length
    whose subtrees have at most `most` rows (`_CHUNK_LEAVES` if None),
    a subtree's rows being its cylinders times the rows of `leaf`, or
    len(levels), where a subtree is one cylinder.  The levels below j are
    built once, deepest first, each into one `_family` array (boxes
    axis-major).  Two buffers laid out as that family (one for j = 1,
    none for j = 0) are allocated once, and each prefix maps the family
    through its items, innermost first, step s into buffer s % 2, so a
    chunk yielded is valid only until the next one is asked for.  Every
    map step is elementwise, so a row's image does not depend on the
    batch it is in, and the chunks concatenate bit for bit to the family
    of j = 0 (`_whole`).
    """
    rows = math.prod(len(items) for items in levels) * len(leaf)
    most = _CHUNK_LEAVES if most is None else most
    j = 0
    while rows > most and j < len(levels):
        rows //= len(levels[j])
        j += 1
    family = leaf
    for items in reversed(levels[j:]):
        n = len(family)
        level = _family(family, len(items) * n)
        for i, item in enumerate(items):
            image(item, family, level[i * n:(i + 1) * n])
        family = level
    bufs = [np.empty_like(family) for _ in range(min(j, 2))]
    for prefix in itertools.product(*levels[:j]):
        batch = family
        for s, item in enumerate(reversed(prefix)):
            batch = image(item, batch, bufs[s % 2])
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
    check_int("budget", budget)
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


@record
class AttractorPoints(Record):
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


# --- Bernoulli sampling ------------------------------------------------------


# numpy's Generator(PCG64(seed)).random(n), bit for bit, without the
# numpy.random import, which adds about 6 MB to a process's peak RSS: the
# seed goes through numpy's SeedSequence hash (`_seed_words`), and the
# 128-bit LCG runs as `_PCG_LANES` lanes of (high, low) uint64 halves,
# every lane jumping ahead by the lane count at each block, each state
# output by XSL-RR and its top 53 bits scaled to [0, 1).

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_LANES = 1 << 12


def _seed_hash(value: int, const: int,
               mult: int = 0x931E8875) -> tuple[int, int]:
    """SeedSequence's 32-bit hash of value: (hash, next constant)."""
    const_next = const * mult & _M32
    value = (value ^ const) * const_next & _M32
    return value ^ (value >> 16), const_next


def _seed_mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ (r >> 16)


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(8, np.uint32): the seed's 32-bit
    words hashed into a pool of four, then read out eight times."""
    entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1),
                                               32)]
    entropy += [0] * (4 - len(entropy))
    const, pool = 0x43B0D7E5, []
    for word in entropy[:4]:
        value, const = _seed_hash(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _seed_hash(pool[src], const)
                pool[dst] = _seed_mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _seed_hash(word, const)
            pool[dst] = _seed_mix(pool[dst], value)
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value, const = _seed_hash(pool[i % 4], const, 0x58F38DED)
        words.append(value)
    return words


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each a * b, a uint64 and b < 2^64, by 32-bit
    halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    lo_hi, hi_lo = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (lo_hi & _M32) + (hi_lo & _M32)
    return a1 * b1 + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _pcg64_random(seed: int, n: int) -> np.ndarray:
    """Generator(PCG64(seed)).random(n), bit for bit."""
    w = [lo | hi << 32 for lo, hi in zip(*[iter(_seed_words(seed))] * 2)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    lanes = min(n, _PCG_LANES)
    states, jump_a, jump_c = [], 1, 0    # state -> jump_a state + jump_c
    for _ in range(lanes):
        state = (state * _PCG_MULT + inc) & _M128
        states.append(state)
        jump_a = jump_a * _PCG_MULT & _M128
        jump_c = (jump_c * _PCG_MULT + inc) & _M128
    hi = np.array([s >> 64 for s in states], dtype=np.uint64)
    lo = np.array([s & _M64 for s in states], dtype=np.uint64)
    a_hi, a_lo, c_hi, c_lo = (np.uint64(v) for v in (
        jump_a >> 64, jump_a & _M64, jump_c >> 64, jump_c & _M64))
    out = np.empty(n)
    for start in range(0, n, lanes):
        k = min(lanes, n - start)
        x, rot = hi[:k] ^ lo[:k], hi[:k] >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[start:start + k] = (x >> 11) * (1.0 / 9007199254740992.0)
        low = lo * a_lo
        hi = hi * a_lo + lo * a_hi + _mulhi64(lo, int(a_lo))
        lo = low + c_lo
        hi += c_hi + (lo < low)
    return out


@record
class BernoulliSampler(Record):
    """I.i.d. draws of 1-based system indices.

    `weights` holds one probability per system (non-negative, summing to 1
    within 1e-12) and `seed`, a non-negative integer, seeds the PCG64
    stream, so the same pair always draws the same symbols.  The draws are
    random, not certified.
    """

    weights: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        check_weights(self.weights)
        if check_int("seed", self.seed) < 0:
            raise UsageError(f"seed must be a non-negative integer, "
                             f"not {self.seed!r}")


def sample_omega(sampler: BernoulliSampler, horizon: int) -> OmegaSeq:
    """Draw `horizon` symbols i.i.d. from the weight vector.

    Deterministic in the seed: a PCG64 stream mapped through the inverse CDF.
    The result is the drawn prefix with the last symbol repeating.
    """
    if check_int("horizon", horizon) < 1:
        raise UsageError("horizon must be >= 1")
    u = _pcg64_random(int(sampler.seed), horizon)
    edges = np.cumsum(np.asarray(sampler.weights))
    symbols = np.searchsorted(edges, u, side="right") + 1
    symbols = np.minimum(symbols, len(sampler.weights))  # guard u ~ 1 edge
    prefix = tuple(int(s) for s in symbols)
    return OmegaSeq(prefix, (prefix[-1],))


# --- continuity of omega -> attractor ---------------------------------------


@record
class ProbeRow(Record):
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
    if check_int("probe depth", depth) < check_int("splice depth k", k):
        raise UsageError("probe depth must be >= splice depth k")
    center = np.asarray(rifs.ambient.center)[None, :]
    base = _SweepSet(cylinder_images(rifs, omega, depth, center, budget))
    base_err = _levels(rifs, omega, depth, budget)[1]
    splice_err = _levels(rifs, omega, k, budget)[1]
    rows = []
    for tail in tails:
        spliced = splice(omega, k, tail)
        d_om = omega_distance(omega, spliced)
        d_h = _hausdorff(base, _SweepSet(
            cylinder_images(rifs, spliced, depth, center, budget)))
        err = max(base_err, _levels(rifs, spliced, depth, budget)[1])
        bound = 2.0 * splice_err + 2.0 * err
        rows.append(ProbeRow(tail, d_om, d_h, bound))
    return rows

