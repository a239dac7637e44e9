"""Grid box counting and box-dimension estimation.

The grid is anchored at the ambient box's lower corner with cells of side
delta.  Conventions, chosen so counts of grid-aligned covers are exact:

* an interval starting on a grid boundary j belongs to cell j;
* an interval ending on a grid boundary j stops in cell j - 1;
* a degenerate point sitting on a boundary counts toward the smaller cell
  (clamped at 0);
* coordinates within 1e-9 cells of a boundary are snapped onto it first.

Each grid is counted into sorted distinct runs of cell indices, 8 bytes
per distinct cell, or into an occupancy map of one byte per cell
(Liebovitch & Toth 1989).  The map is taken for a grid of at most
`_MAP_CELLS` = 2^24 cells (16 MB) once the runs could grow as large: a box
marks at most 2^dim cells unless it is expanded, so a grid of at most
8 * 2^dim cells per box counted starts on the map, and a sparser one
switches to it when expanded cells bring the runs' bound up to the grid.
Each axis's first and last cells come from both ends of every box in one
pass over a (2, n) block.  A box spanning at most two cells on every axis
is marked at its clipped corners, one corner at a time: a corner's ids,
one per box, are one add of its axes' first or last cells, so one n-long
id array is alive, with no per-cell expansion (and, into the map, no
sort).  That covers the boxes `estimate_box_dims` counts: it resolves
each rung to cylinders of side at most delta/4, and even rotated maps'
boxes, which outgrow their cylinders, have measured below delta.
Wider boxes are expanded at most `_CELL_CHUNK` cells at a time, and the
cells so expanded are charged to a budget of 2^dim cells per cylinder of
the cylinder budget, so a huge box fails at once with `ResourceError`
instead of running for hours.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

from . import model
from ._lazy import np
from ._record import Record, record
from .errors import ResourceError, UsageError, check_int
from .geometry import AmbientBox
from .model import DEFAULT_BUDGET, Rifs, _boxes, _chunks, resolution_depth
from .sequences import OmegaSeq

SNAP_TOL = 1e-9
_CELL_CHUNK = 1 << 17      # cells expanded per step
_MAP_CELLS = 1 << 24       # largest grid counted into an occupancy map
_MAX_CELLS = 2 ** 63 - 1   # cells an int64 index can number


def _snap(q: np.ndarray) -> np.ndarray:
    r = np.round(q)
    return np.where(np.abs(q - r) <= SNAP_TOL, r, q)


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
            q = max(1, math.ceil(_snap(np.asarray(q))))
        shape.append(q)
    cells = math.prod(shape)
    if cells > _MAX_CELLS:
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
    """The distinct cells of one grid that `boxes` boxes meet, fed chunk by
    chunk into sorted distinct runs or the occupancy map.  Once the later
    runs outnumber the first, all are folded into the first, so memory
    follows the distinct cells and each fold at least doubles what the next
    one sorts."""

    def __init__(self, delta: float, ambient: AmbientBox, budget: int,
                 boxes: int):
        self.delta, self.ambient = delta, ambient
        self.shape = _grid_shape(ambient, delta)
        # the last axis runs fastest
        self.strides = tuple(math.prod(self.shape[ax + 1:])
                             for ax in range(len(self.shape)))
        self.map = None
        self.runs: list[np.ndarray] = []
        self.budget = budget
        self.expanded = 0
        self.marks = 0
        self._reserve(2 ** ambient.dim * boxes)

    def _reserve(self, marks: int) -> None:
        """Count `marks` more cells the runs may hold, and move to the map
        once they could take 8 bytes for each of its one-byte cells."""
        self.marks += marks
        cells = math.prod(self.shape)
        if self.map is None and cells <= min(_MAP_CELLS, 8 * self.marks):
            self.map = np.zeros(cells, dtype=bool)
            for run in self.runs:
                self.map[run] = True
            self.runs = []

    def _mark(self, ids: np.ndarray) -> None:
        if self.map is not None:
            self.map[ids] = True
            return
        self.runs.append(_distinct(ids))
        if sum(run.size for run in self.runs[1:]) >= self.runs[0].size:
            self.runs = [_distinct(np.concatenate(self.runs))]

    def add(self, boxes: np.ndarray) -> None:
        """Mark the cells meeting `boxes` (n, dim, 2)."""
        ends = [_axis_cells(n_cells, lo, boxes[:, ax, 0], boxes[:, ax, 1],
                            self.delta)
                for ax, (n_cells, lo) in enumerate(zip(self.shape,
                                                       self.ambient.lo))]
        wide = np.zeros(boxes.shape[0], dtype=bool)
        for first, last in ends:
            wide |= last - first > 1
        if wide.any():
            self._expand(np.stack([first[wide] for first, _ in ends], axis=1),
                         np.stack([last[wide] - first[wide] + 1
                                   for first, last in ends], axis=1))
            ends = [block[:, ~wide] for block in ends]
        # a box at most two cells wide on every axis meets exactly its
        # corner cells, its first or last cell on each axis; an axis where
        # no box spans two cells has no upper corner
        axes = []
        for block, stride in zip(ends, self.strides):
            block *= stride
            axes.append(block if np.any(block[0] != block[1]) else block[:1])
        # one n-long id array per corner, marked before the next is built
        # (on one axis it is that axis's row, which no later corner reads)
        for corner in itertools.product(*axes):
            ids = reduce(np.add, corner)
            if ids.size:
                self._mark(ids)

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
        self._reserve(total)
        for start in range(0, total, _CELL_CHUNK):
            stop = min(start + _CELL_CHUNK, total)
            self._mark(_cell_ids(js, span, sizes, ends, self.strides, start,
                                 stop))

    def count(self) -> int:
        """Number of distinct cells marked, at least one."""
        if self.map is not None:
            return int(np.count_nonzero(self.map))
        ids = np.concatenate(self.runs)
        self.runs = []
        ids.sort()
        return 1 + int(np.count_nonzero(ids[1:] != ids[:-1]))


def count_boxes(items: np.ndarray, delta: float, ambient: AmbientBox,
                budget: int = DEFAULT_BUDGET) -> int:
    """Number of grid cells meeting the items (boxes (n,dim,2) or points
    (n,dim)), under the boundary conventions above.

    Items are taken `model._CHUNK_LEAVES` at a time into sorted distinct
    runs or an occupancy map (see above).  Items spanning at most two cells
    per axis are marked at their corners; wider ones are expanded, and once
    more than `2**dim * budget` cells have been expanded this raises
    `ResourceError`."""
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
    """Rows of (delta, count) with strictly decreasing deltas and counts that
    never drop as the grid refines."""

    rows: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise UsageError("a box-count table needs at least one row")
        deltas = [d for d, _ in self.rows]
        counts = [c for _, c in self.rows]
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise UsageError("deltas must be strictly decreasing")
        if any(c < 1 for c in counts):
            raise UsageError("counts must be positive")
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise UsageError("counts may not drop as delta shrinks")

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


def estimate_box_dims(rifs: Rifs, omega: OmegaSeq, deltas,
                      budget: int = DEFAULT_BUDGET,
                      ) -> tuple[BoxCountTable, BoxDimEstimate]:
    """Count cylinder boxes on each grid of the ladder, then read off the
    dimension two ways: per-rung exponents and a log-log slope."""
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise UsageError("empty delta ladder")
    if not all(0.0 < d < 1.0 for d in deltas):
        raise UsageError("ladder deltas must lie in (0, 1)")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise UsageError("deltas must be strictly decreasing")

    # resolve each rung to cylinders no larger than a quarter cell; depths
    # never decrease down the ladder, so each depth's rungs are adjacent and
    # share one streamed cover, and only their cell sets are held
    depths = [resolution_depth(rifs, omega, d / 4.0, budget) for d in deltas]
    rows = []
    for depth, rungs in itertools.groupby(zip(deltas, depths),
                                          key=lambda rung: rung[1]):
        walk, _ = _boxes(rifs, omega, depth, budget)
        count = math.prod(map(len, walk[0]))
        sinks = [_Cells(delta, rifs.ambient, budget, count)
                 for delta, _ in rungs]
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
