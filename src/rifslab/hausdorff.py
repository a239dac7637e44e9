"""Exact Hausdorff distance between finite point sets.

Both sets are sorted once on a tilted key and swept against each other
(`_directed_sq_sweep`); every pair value the sweep computes is the float
brute force computes, so the distance equals brute force over every pair
bit for bit below eight dimensions.
"""

from __future__ import annotations

import math

from ._lazy import np
from .errors import UsageError

_BRUTE_CHUNK = 1 << 13    # pair evaluations per chunk or sweep step
_SWEEP_BLOCK = 2048       # points of a per first-pass block
_SUPERBLOCK = 1 << 15     # points of a per superblock, swept in both passes
_FIRST_BATCH = 256        # survivors widened first, largest bound first
_BATCH = 4096             # survivors per later second-pass batch
_TILT = 0.003             # alpha of the sweep key u = x + alpha * y
_TINY = 2.0 ** -1022      # smallest normal float


def _tilt(dim: int) -> float:
    return _TILT if dim > 1 else 0.0


class _SweepSet:
    """A finite (points, dim) set as `_directed_sq_sweep` scans it.

    The points are sorted on their sweep keys x + alpha*y, x and y their
    first and last coordinates (x alone on one axis).  `cols` holds one
    contiguous column per axis in that order between +inf sentinels, `key`
    the keys ascending between the sentinels -inf and +inf, and `err`
    bounds the rounding error of every key.
    """

    def __init__(self, pts: np.ndarray):
        n, dim = pts.shape
        alpha = _tilt(dim)
        order = np.argsort(pts[:, 0] + alpha * pts[:, -1], kind="stable")
        self.cols = np.full((dim, n + 2), np.inf)
        for d in range(dim):
            np.take(pts[:, d], order, out=self.cols[d, 1:-1])
        # each key again from its own point: the float the sort compared
        x, y = self.cols[0, 1:-1], self.cols[-1, 1:-1]
        self.key = np.empty(n + 2)
        self.key[0], self.key[-1] = -np.inf, np.inf
        np.add(x, alpha * y, out=self.key[1:-1])
        mag = max(x.max(), -x.min()) + alpha * max(y.max(), -y.min())
        self.err = float(mag) * 2.0 ** -50 + _TINY


def _directed_sq_sweep(a: _SweepSet, b: _SweepSet,
                       worst: float = 0.0) -> float:
    """max(worst, max over a's points of min over b's of squared distance)
    by sort-and-sweep, equal to brute force over every pair.

    The sweep key is u = x + alpha*y, x the first coordinate and y the
    last (u = x on one axis), so that points tied in x, such as the
    columns of a carpet, are still spread along the key.  Each point p of
    a scans b, sorted on u, outward from p's own key position in windows
    of doubling width.  By Cauchy-Schwarz |du| <= sqrt(1 + alpha^2) |p -
    q|, so p is certified once, on each side, the key gap g to the next
    unscanned point of b satisfies

        max(g - eps, 0)^2 >= (1 + alpha^2) best (1 + (dim + 8) 2^-52)
                             + 2^-1022,

    best being p's smallest pair value so far.  Every float step rounds
    by at most 2^-53 relative or, below 2^-1022, 2^-1075 absolute.  A key
    rounds twice, so it is within 2^-52 (|x| + alpha |y|) + 2^-1074 of
    x + alpha*y; each set's `err` is 2^-50 (max |x| + alpha max |y|) +
    2^-1022, room enough for the rounding of err itself, and eps = a.err
    + b.err covers both keys of a pair.  The factor's (2 dim + 16) 2^-53
    covers the dim + 2 relative roundings that can make a float pair
    value smaller than the exact one and the 11 of the test itself, and
    2^-1022 the absolute error of squares that underflow.  So every
    farther point of b has a float pair value >= best and cannot lower it.
    A window adds the squared differences axis by axis in axis order, the
    order in which brute force's `.sum(axis=-1)` adds them below eight
    axes, so each pair value is the same bit for bit.

    p is dropped once best <= the running maximum, which it then cannot
    raise (the early break of Taha & Hanbury, IEEE TPAMI 37(11), 2015).
    That maximum starts at `worst`, so seeding the second direction with
    the first one's value gives max(h_ab, h_ba) unchanged and drops more
    points early.  A point leaves the sweep only certified, its exact
    value joining the maximum, or with a real pair value at or below the
    maximum.  So the order in which a's points are visited cannot change
    the result, and it is chosen to raise the maximum early.

    a goes in superblocks of `_SUPERBLOCK` points in key order, so the
    extra state stays bounded whatever the sizes.  A first pass scans one
    point of b on each side of every point, `_SWEEP_BLOCK` points at a
    time with sorted keys to look up; a point it certifies raises the
    maximum, and every other point keeps its value as an upper bound.  A
    second pass widens the points whose bound is still above the maximum,
    largest bound first: `_FIRST_BATCH` of them, then `_BATCH` at a time.
    A bound is never below its point's value, so the points that can
    still raise the maximum come early.  On the carpet mixes of
    `continuity_probe` the maximum settles after the first batch, and the
    rest drop within a window or two.
    """
    n, dim = b.cols.shape[1] - 2, b.cols.shape[0]
    eps = a.err + b.err
    scale = (1.0 + _tilt(dim) ** 2) * (1.0 + (dim + 8) * 2.0 ** -52)

    def sq(p, idx):
        # squared distances from a's points p to b's points idx, added axis
        # by axis as brute force adds them
        d2 = (p[0] - b.cols[0].take(idx)) ** 2
        for d in range(1, dim):
            d2 += (p[d] - b.cols[d].take(idx)) ** 2
        return d2

    def settle(u, pos, best, reach):
        # certify best where the nearer key gap to b's points reach + 1
        # places out rules out every farther point, raise the maximum by
        # the values certified, and return which points stay above it
        nonlocal worst
        gap = np.minimum(u - b.key[np.maximum(pos - reach, 0)],
                         b.key[np.minimum(pos + 1 + reach, n + 1)] - u)
        done = np.maximum(gap - eps, 0.0) ** 2 >= scale * best + _TINY
        if done.any():
            worst = max(worst, float(best[done].max()))
        return ~done & (best > worst)

    m = a.key.size - 2
    for top in range(1, m + 1, _SUPERBLOCK):
        bounds = np.empty(min(_SUPERBLOCK, m + 1 - top))
        for start in range(0, bounds.size, _SWEEP_BLOCK):
            # b's key neighbours of each point: pos on the left, pos + 1 on
            # the right, either of them a sentinel at an end
            best = bounds[start:start + _SWEEP_BLOCK]
            i = slice(top + start, top + start + best.size)
            u, p = a.key[i], a.cols[:, i]
            pos = np.searchsorted(b.key[1:-1], u)
            np.minimum(sq(p, pos), sq(p, pos + 1), out=best)
            settle(u, pos, best, 1)
        # the points left to widen, largest bound first; the stable sort is
        # the kind `_SweepSet` runs, where numpy's default quicksort would
        # map about 0.5 MB more of numpy's code into a small process
        live = np.flatnonzero(bounds > worst)
        order = live[np.argsort(bounds[live], kind="stable")[::-1]]
        pick = np.zeros(bounds.size, bool)
        head, size = 0, _FIRST_BATCH
        while head < order.size and bounds[order[head]] > worst:
            # the batch in key order, for locality, with no second sort
            pick[order[head:head + size]] = True
            head, size = head + size, _BATCH
            i = np.flatnonzero(pick & (bounds > worst))
            pick[:] = False
            best, i = bounds[i], i + top
            pos = np.searchsorted(b.key[1:-1], a.key[i])
            reach, width = 1, 2
            while i.size:
                offs = np.arange(reach, reach + width)
                rows = max(1, _BRUTE_CHUNK // (2 * width))
                for s in range(0, i.size, rows):
                    at = pos[s:s + rows, None]
                    idx = np.clip(np.hstack((at - offs, at + 1 + offs)),
                                  0, n + 1)
                    d2 = sq(a.cols[:, i[s:s + rows], None], idx).min(axis=1)
                    np.minimum(best[s:s + rows], d2, out=best[s:s + rows])
                reach, width = reach + width, min(2 * width, _BRUTE_CHUNK // 2)
                keep = settle(a.key[i], pos, best, reach)
                i, pos, best = i[keep], pos[keep], best[keep]
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
