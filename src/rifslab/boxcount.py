"""Grid box counting and box-dimension estimation.

The grid is anchored at the ambient box's lower corner with cells of side
delta.  Conventions, chosen so counts of grid-aligned covers are exact:

* an interval starting on a grid boundary j belongs to cell j;
* an interval ending on a grid boundary j stops in cell j - 1;
* a degenerate point sitting on a boundary counts toward the smaller cell
  (clamped at 0);
* coordinates within 1e-9 cells of a boundary are snapped onto it first.

Each box is recorded as one cell code: its first cell's id, plus
`size << axis` for each axis on which it spans two cells (`size` is the
grid's cell count).  A box at most two cells wide on every axis meets
exactly its corner cells, its first or last cell on each axis, which its
code names.  Each axis's first and last cells come from both ends of every
box in one pass over a (2, n) block, and the codes are built in place on
those blocks.  Wider boxes are expanded at most `_CELL_CHUNK` cells at a
time, each cell its own code, and charged to a budget of 2^dim cells per
cylinder of the cylinder budget, so a huge box fails at once with
`ResourceError` instead of running for hours.  The codes go into sorted
distinct runs, 8 bytes per distinct code, or into a code map of one byte
per code (Liebovitch & Toth 1989), once its `size << dim` bytes are at
most `_MAP_CELLS` = 2^24 (16 MB) and 8 bytes per box counted and cell
expanded.  The corners are read off the codes once, when counted.

`estimate_box_dims` resolves each rung to cylinders whose error bound is
at most delta/4, and counts them by one of two routes.  When every map of
the walk is axis-aligned (every carpet, and every 1-D system), a
cylinder's interval on an axis depends only on its maps' 1-D parts there,
so each axis's distinct intervals, far fewer than the cylinders, get one
table of code terms per rung, and the chunks' codes are read off the
tables with no box built (`_mark_from_tables`).  Such a cylinder is at
most delta/4 on a side, so it spans at most two cells per axis; that is
checked once on the tables.  Every other walk (rotations, shears, closed
forms), and one whose axes share few intervals, streams its cylinder
boxes through `_Cells.add`; even rotated maps' boxes, which outgrow their
cylinders, have measured below delta there.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import iadd

from . import model
from ._lazy import np
from ._record import Record, record
from .errors import ResourceError, UsageError, check_int
from .geometry import AmbientBox, Similarity, _AffineMap
from .model import (DEFAULT_BUDGET, Rifs, _boxes, _chunks, _whole,
                    resolution_depth)
from .sequences import OmegaSeq

SNAP_TOL = 1e-9
_CELL_CHUNK = 1 << 17      # cells expanded per step
_MAP_CELLS = 1 << 24       # bytes of the largest code map
_MAX_CELLS = 2 ** 63 - 1   # cells an int64 index can number


def _axis_cells(n_cells: int, lo: float, a: np.ndarray, b: np.ndarray,
                delta: float) -> np.ndarray:
    """(first, last) cell on one axis of each interval [a, b], under the
    boundary conventions above, as one (2, n) block computed in place."""
    q = np.empty((2, a.size))
    np.subtract(a, lo, out=q[0])
    np.subtract(b, lo, out=q[1])
    q /= delta
    gap = np.rint(q)                    # _snap(q), in place
    gap -= q
    np.abs(gap, out=gap)
    np.rint(q, out=q, where=gap <= SNAP_TOL)
    del gap
    np.floor(q[0], out=q[0])
    # floor(e) - [e is an integer] = ceil(e) - 1: an end on a boundary
    # stops below it
    np.ceil(q[1], out=q[1])
    q[1] -= 1
    # clipping before the cast keeps far-off coordinates inside int64
    np.clip(q, 0, n_cells - 1, out=q)
    cells = q.astype(np.int64)
    # a degenerate interval keeps its smaller cell
    np.minimum(cells[0], cells[1], out=cells[0])
    return cells


def _grid_shape(ambient: AmbientBox, delta: float) -> tuple[int, ...]:
    shape = []
    for lo, hi in zip(ambient.lo, ambient.hi):
        q = (hi - lo) / delta
        if q < math.inf:
            # round() rounds half to even, as np.round does
            q = max(1, math.ceil(r if abs(q - (r := round(q))) <= SNAP_TOL
                                 else q))
        shape.append(q)
    cells = math.prod(shape)
    # a cell code takes dim more bits than the cell index
    if cells > _MAX_CELLS >> ambient.dim:
        raise UsageError(
            f"a grid of {cells} cells overflows the int64 cell index")
    return tuple(shape)


def _cell_ids(js: np.ndarray, span: np.ndarray, sizes: np.ndarray,
              ends: np.ndarray, strides: tuple[int, ...], start: int,
              stop: int) -> np.ndarray:
    """Linear indices of cells start..stop-1 of the boxes' index ranges
    js..js+span-1, numbered box after box with the last axis fastest;
    box i holds sizes[i] cells, ending at ends[i], the running total."""
    first, last = np.searchsorted(ends, (start, stop - 1), side="right")
    end = ends[first:last + 1]
    begin = end - sizes[first:last + 1]
    count = np.minimum(end, stop) - np.maximum(begin, start)
    owner = np.repeat(np.arange(first, last + 1), count)
    # k: position of each cell within its box, last axis fastest
    k = np.arange(start, stop) - np.repeat(begin, count)
    ids = np.zeros(owner.size, dtype=np.int64)
    for ax in range(js.shape[1] - 1, -1, -1):
        s = span[owner, ax]
        ids += (js[owner, ax] + k % s) * strides[ax]
        k //= s
    return ids


def _distinct(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values, by an in-place sort of `ids` and a neighbour
    compare.  On numpy 2.4 this is 4-50x quicker than np.unique, which
    hashes integers."""
    ids.sort()
    return ids[np.concatenate(([True], ids[1:] != ids[:-1]))]


class _Cells:
    """The distinct cells of one grid that `boxes` boxes meet, each box
    recorded as one cell code (see above), fed chunk by chunk into sorted
    distinct runs or the code map.  Once the later runs outnumber the
    first, all are folded into the first, so memory follows the distinct
    codes and each fold at least doubles what the next one sorts."""

    def __init__(self, delta: float, ambient: AmbientBox, budget: int,
                 boxes: int):
        self.delta, self.ambient = delta, ambient
        self.shape = _grid_shape(ambient, delta)
        self.size = math.prod(self.shape)
        # the last axis runs fastest
        self.strides = tuple(math.prod(self.shape[ax + 1:])
                             for ax in range(len(self.shape)))
        self.map = None
        self.runs: list[np.ndarray] = []
        self.budget, self.boxes = budget, boxes
        self.expanded = 0

    def _mark(self, codes: np.ndarray) -> None:
        # the code map is taken, on the first mark that finds it so, once
        # the runs could need 8 bytes for each of its one-byte codes: one
        # code per box, and one per cell expanded
        if self.map is None and (self.size << self.ambient.dim <= min(
                _MAP_CELLS, 8 * (self.boxes + self.expanded))):
            self.map = np.zeros(self.size << self.ambient.dim, dtype=bool)
            for run in self.runs:
                self.map[run] = True
            self.runs = []
        if self.map is not None:
            self.map[codes] = True
            return
        self.runs.append(_distinct(codes))
        if sum(run.size for run in self.runs[1:]) >= self.runs[0].size:
            self.runs = [_distinct(np.concatenate(self.runs))]

    def _code(self, ax: int, block: np.ndarray) -> np.ndarray:
        """Axis `ax`'s term of the codes of the boxes whose first and last
        cells on it, at most one apart, are the (2, n) `block`: the first
        cell times the axis stride, plus `size << ax` where they differ,
        built in place in block[0]."""
        first, last = block
        last -= first
        last *= self.size << ax
        first *= self.strides[ax]
        first += last
        return first

    def add(self, boxes: np.ndarray) -> None:
        """Mark the codes of `boxes` (n, dim, 2)."""
        ends = [_axis_cells(n_cells, lo, boxes[:, ax, 0], boxes[:, ax, 1],
                            self.delta)
                for ax, (n_cells, lo) in enumerate(zip(self.shape,
                                                       self.ambient.lo))]
        wide = reduce(np.logical_or,
                      (last - first > 1 for first, last in ends))
        if wide.any():
            self._expand(np.stack([first[wide] for first, _ in ends], axis=1),
                         np.stack([last[wide] - first[wide] + 1
                                   for first, last in ends], axis=1))
            ends = [block[:, ~wide] for block in ends]
        codes = reduce(iadd, (self._code(ax, block)
                              for ax, block in enumerate(ends)))
        if codes.size:
            self._mark(codes)

    def _expand(self, js: np.ndarray, span: np.ndarray) -> None:
        """Mark every cell of the boxes' index ranges js..js+span-1, at most
        `_CELL_CHUNK` cells a step, charging them to the budget first."""
        sizes = span.prod(axis=1)
        if sizes.sum(dtype=float) > _MAX_CELLS:
            raise UsageError("the boxes span more cells than an int64 can count")
        ends = np.cumsum(sizes)
        total = int(ends[-1])
        self.expanded += total
        dim = js.shape[1]
        if self.expanded > 2 ** dim * self.budget:
            raise ResourceError(
                f"expanded cell count {self.expanded} exceeds 2^{dim} cells "
                f"per cylinder of budget {self.budget}", count=self.expanded)
        for start in range(0, total, _CELL_CHUNK):
            stop = min(start + _CELL_CHUNK, total)
            self._mark(_cell_ids(js, span, sizes, ends, self.strides, start,
                                 stop))

    def count(self) -> int:
        """Number of distinct cells marked, at least one, read once off
        the codes: a code's cells are its first cell moved up one cell on
        each subset (corner) of the axes it flags."""
        corners = range(1 << self.ambient.dim)
        shifts = [sum(stride for ax, stride in enumerate(self.strides)
                      if corner >> ax & 1) for corner in corners]
        if self.map is not None:
            planes = self.map.reshape(len(corners), self.size)
            # in place, plane c becomes the codes flagging every axis of c
            for ax in range(self.ambient.dim):
                for corner in corners:
                    if corner >> ax & 1:
                        planes[corner ^ 1 << ax] |= planes[corner]
            for corner, shift in zip(corners[1:], shifts[1:]):
                planes[0, shift:] |= planes[corner, :self.size - shift]
            return int(np.count_nonzero(planes[0]))
        flags, first = np.divmod(np.concatenate(self.runs), self.size)
        self.runs = []
        return _distinct(np.concatenate([first[flags & corner == corner]
                                         + shift for corner, shift
                                         in zip(corners, shifts)])).size


def count_boxes(items: np.ndarray, delta: float, ambient: AmbientBox,
                budget: int = DEFAULT_BUDGET) -> int:
    """Number of grid cells meeting the items (boxes (n,dim,2) or points
    (n,dim)), under the boundary conventions above.

    Items are taken `model._CHUNK_LEAVES` at a time, each recorded as one
    cell code if it spans at most two cells per axis (see above); wider
    ones are expanded, and once more than `2**dim * budget` cells have
    been expanded this raises `ResourceError`."""
    if not 0.0 < delta < math.inf:
        raise UsageError("delta must be finite and > 0")
    check_int("budget", budget)
    arr = np.asarray(items, dtype=float)
    if arr.ndim == 2:
        arr = np.stack([arr, arr], axis=-1)
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[1] != ambient.dim:
        raise UsageError("items must be (n, dim, 2) boxes or (n, dim) points")
    if arr.shape[0] == 0:
        raise UsageError("cannot count an empty family")
    if not np.isfinite(arr).all():
        raise UsageError("items must have finite coordinates")

    cells = _Cells(delta, ambient, budget, arr.shape[0])
    for start in range(0, arr.shape[0], model._CHUNK_LEAVES):
        cells.add(arr[start:start + model._CHUNK_LEAVES])
    return cells.count()


@record
class BoxCountTable(Record):
    """Rows of (delta, count) with strictly decreasing deltas and positive
    counts."""

    rows: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise UsageError("a box-count table needs at least one row")
        deltas = [d for d, _ in self.rows]
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise UsageError("deltas must be strictly decreasing")
        if any(c < 1 for _, c in self.rows):
            raise UsageError("counts must be positive")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.rows)


@record
class BoxDimEstimate(Record):
    """Per-rung exponents log N / log(1/delta), the least-squares slope of
    log N against log(1/delta) over the trailing window, and the min/max
    exponent over that window.  The slope is the exact least-squares
    slope of those float logs, taken as rationals and rounded once; a
    window with a single log(1/delta) gives the last exponent instead."""

    lower_est: float
    upper_est: float
    slope: float
    exponents: tuple[float, ...]
    depths: tuple[int, ...]
    window: tuple[int, int]


def _lsq_slope(xs, ys) -> float:
    """Least-squares slope of the points (xs, ys), taken exactly from the
    floats as rationals and rounded once."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    n, sx, sy = len(xs), sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return float((n * sxy - sx * sy) / (n * sxx - sx * sx))


def _check_ladder(deltas) -> tuple[float, ...]:
    """The ladder's deltas as floats: non-empty, in (0, 1), strictly
    decreasing, and each with a quarter (its cover's target error) above
    0, or UsageError."""
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise UsageError("empty delta ladder")
    if not all(0.0 < d < 1.0 for d in deltas):
        raise UsageError("ladder deltas must lie in (0, 1)")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise UsageError("deltas must be strictly decreasing")
    if not deltas[-1] / 4.0 > 0.0:
        raise UsageError("ladder deltas must be > 0 once quartered")
    return deltas


def _axis_parts(maps):
    """Per axis, each map's index among the distinct 1-D parts
    (coefficient, translation) of `maps`, numbered in first-seen order,
    and those parts as 1-D similarities, which map an interval with the
    two roundings of the box walk's column; None unless every map is
    axis-aligned, an affine map whose axis k reads axis k alone."""
    if not all(isinstance(m, _AffineMap)
               and all(len(terms) == 1 and terms[0][0] == k
                       for k, terms in enumerate(m._terms)) for m in maps):
        return None
    axes = []
    for k in range(maps[0].dim):
        seen = {}
        index = [seen.setdefault((m._terms[k][0][1], m.translation[k]),
                                 len(seen)) for m in maps]
        axes.append((np.array(index), [Similarity(abs(c), (t,),
                                                  reflect=c < 0)
                                       for c, t in seen]))
    return axes


def _mixed(index, sizes) -> np.ndarray:
    """In word order, the mixed-radix numbers of the words over levels
    whose maps' digits are `index` and whose radices are `sizes`."""
    return reduce(lambda num, level: (num[:, None] * level[1]
                                      + level[0]).ravel(),
                  zip(index, sizes), np.zeros(1, dtype=np.int64))


def _mark_from_tables(walk, sinks, parts: dict) -> bool:
    """Mark the cylinders of `walk` (from `_boxes`) into `sinks` from
    per-axis tables of code terms, building no box, and return True; or
    mark nothing and return False, when a map is not axis-aligned, an axis
    has over half as many distinct intervals as cylinders (its table would
    share little and be held whole), or a table interval spans more than
    two cells.  `parts` caches `_axis_parts` by system.

    On each axis the distinct intervals are the 1-D walk of the levels'
    distinct parts, so a cylinder's interval is the one that its maps'
    part indices number in mixed radix, and its code is the sum of its
    intervals' terms (`_Cells._code`).  Words are split as `_chunks`
    splits them: a chunk's terms on an axis are its prefix's slice of the
    table, taken at the suffixes' numbers."""
    levels, leaf, image = walk
    for maps in levels:
        if id(maps) not in parts:
            parts[id(maps)] = _axis_parts(maps)
        if parts[id(maps)] is None:
            return False
    rows = span = math.prod(map(len, levels))
    j = 0
    while span > model._CHUNK_LEAVES and j < len(levels):
        span //= len(levels[j])
        j += 1
    offsets, bases, tables = [], [], [[] for _ in sinks]
    for ax in range(leaf.shape[1]):
        index, items = zip(*(parts[id(maps)][ax] for maps in levels))
        sizes = [len(its) for its in items]
        if 2 * math.prod(sizes) > rows:
            return False
        offsets.append(_mixed(index[:j], sizes[:j]) * math.prod(sizes[j:]))
        bases.append(_mixed(index[j:], sizes[j:]))
        family = _whole(items, leaf[:, ax:ax + 1], image)
        for cells, table in zip(sinks, tables):
            block = _axis_cells(cells.shape[ax], cells.ambient.lo[ax],
                                family[:, 0, 0], family[:, 0, 1], cells.delta)
            if np.any(block[1] - block[0] > 1):
                return False
            table.append(cells._code(ax, block))
    for offs in zip(*offsets):
        for cells, table in zip(sinks, tables):
            cells._mark(reduce(iadd, (row[off:].take(base) for row, off, base
                                      in zip(table, offs, bases))))
    return True


def estimate_box_dims(rifs: Rifs, omega: OmegaSeq, deltas,
                      budget: int = DEFAULT_BUDGET,
                      ) -> tuple[BoxCountTable, BoxDimEstimate]:
    """Count the cylinders on each grid of the ladder, then read off the
    dimension two ways: per-rung exponents and a log-log slope.

    Each rung is resolved to cylinders whose error bound is at most a
    quarter cell, so that an axis-aligned one spans at most two cells per
    axis.  An axis-aligned walk is counted from per-axis cell tables
    (`_mark_from_tables`); any other, or one the tables cannot take,
    streams its boxes through `_Cells.add`, one chunk at a time (see the
    module docstring)."""
    deltas = _check_ladder(deltas)

    # resolve each rung to cylinders no larger than a quarter cell; depths
    # never decrease down the ladder, so each depth's rungs are adjacent and
    # share one streamed cover, and only their cell sets are held
    depths = [resolution_depth(rifs, omega, d / 4.0, budget) for d in deltas]
    rows, parts = [], {}
    for depth, rungs in itertools.groupby(zip(deltas, depths),
                                          key=lambda rung: rung[1]):
        walk, _ = _boxes(rifs, omega, depth, budget)
        count = math.prod(map(len, walk[0]))
        sinks = [_Cells(delta, rifs.ambient, budget, count)
                 for delta, _ in rungs]
        if not _mark_from_tables(walk, sinks, parts):
            for boxes in _chunks(*walk):
                for cells in sinks:
                    cells.add(boxes)
        rows += [(cells.delta, cells.count()) for cells in sinks]

    table = BoxCountTable(tuple(rows))
    exps = tuple(math.log(c) / -math.log(d) for d, c in rows)
    n = len(rows)
    start = n // 2 if n >= 4 else 0
    window = (start, n)
    tail = exps[start:]
    xs = [-math.log(d) for d, _ in rows[start:]]
    ys = [math.log(c) for _, c in rows[start:]]
    # a window of one rung, or of deltas whose logs round alike, has no
    # slope; it gives the last exponent
    slope = _lsq_slope(xs, ys) if len(set(xs)) > 1 else exps[-1]
    est = BoxDimEstimate(min(tail), max(tail), slope, exps,
                         tuple(depths), window)
    return table, est
