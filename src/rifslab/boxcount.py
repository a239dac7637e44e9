"""Grid box counting and box-dimension estimation.

The grid is anchored at the ambient box's lower corner with cells of side
delta.  Conventions, chosen so counts of grid-aligned covers are exact:

* an interval starting on a grid boundary j belongs to cell j;
* an interval ending on a grid boundary j stops in cell j - 1;
* a degenerate point sitting on a boundary counts toward the smaller cell
  (clamped at 0);
* coordinates within 1e-9 cells of a boundary are snapped onto it first.

Each grid is counted into an occupancy map of one byte per cell when it has
at most `_MAP_CELLS` = 2^24 cells (16 MB; Liebovitch & Toth 1989), and into
sorted distinct runs of cell indices otherwise.  A box spanning at most two
cells on every axis is marked at its clipped corners, 2^dim vectorised
passes with no per-cell expansion (and, into the map, no sort).  That covers
the boxes `estimate_box_dims` counts: it resolves each rung to cylinders of
side at most delta/4, and even rotated maps' boxes, which outgrow their
cylinders, have measured below delta.  Wider boxes are expanded at most
`_CELL_CHUNK` cells at a time, and the cells so expanded are charged to a
budget of 2^dim cells per cylinder of the cylinder budget, so a huge box
fails at once with `ResourceError` instead of running for hours.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError, UsageError
from .geometry import AmbientBox
from .model import DEFAULT_BUDGET, Rifs, _cover_chunks, resolution_depth
from .sequences import OmegaSeq

SNAP_TOL = 1e-9
_BOX_CHUNK = 1 << 15       # boxes per step of count_boxes
_CELL_CHUNK = 1 << 17      # cells expanded per step
_MAP_CELLS = 1 << 24       # largest grid counted into an occupancy map
_MAX_CELLS = np.iinfo(np.int64).max   # cells an int64 index can number


def _snap(q: np.ndarray) -> np.ndarray:
    r = np.round(q)
    return np.where(np.abs(q - r) <= SNAP_TOL, r, q)


def _axis_cells(n_cells: int, lo: float, a: np.ndarray, b: np.ndarray,
                delta: float) -> tuple[np.ndarray, np.ndarray]:
    # clipping to [-1, n_cells] first changes no cell (all land in
    # [0, n_cells - 1]) and keeps far-off coordinates inside int64
    s = np.clip(_snap((a - lo) / delta), -1, n_cells)
    e = np.clip(_snap((b - lo) / delta), -1, n_cells)
    js = np.floor(s).astype(np.int64)
    e_floor = np.floor(e).astype(np.int64)
    on_edge = e == e_floor
    je = np.where(on_edge, e_floor - 1, e_floor)
    degen = je < js
    shrunk = np.maximum(je, 0)
    js = np.where(degen, shrunk, js)
    je = np.where(degen, shrunk, je)
    return np.clip(js, 0, n_cells - 1), np.clip(je, 0, n_cells - 1)


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
    """The distinct cells of one grid that boxes meet, fed chunk by chunk
    into the occupancy map or, on a grid above `_MAP_CELLS` cells, into
    sorted distinct runs.  Once the later runs outnumber the first, all are
    folded into the first, so memory follows the distinct cells and each
    fold at least doubles what the next one sorts."""

    def __init__(self, delta: float, ambient: AmbientBox, budget: int):
        self.delta, self.ambient = delta, ambient
        self.shape = _grid_shape(ambient, delta)
        # the last axis runs fastest
        self.strides = tuple(math.prod(self.shape[ax + 1:])
                             for ax in range(len(self.shape)))
        cells = math.prod(self.shape)
        self.map = np.zeros(cells, dtype=bool) if cells <= _MAP_CELLS else None
        self.runs: list[np.ndarray] = []
        self.budget = budget
        self.expanded = 0

    def _mark(self, ids: np.ndarray) -> None:
        if self.map is not None:
            self.map[ids] = True
            return
        self.runs.append(_distinct(ids))
        if sum(run.size for run in self.runs[1:]) >= self.runs[0].size:
            self.runs = [_distinct(np.concatenate(self.runs))]

    def add(self, boxes: np.ndarray) -> None:
        """Mark the cells meeting `boxes` (n, dim, 2)."""
        js, spans = [], []
        for ax, n_cells in enumerate(self.shape):
            first, last = _axis_cells(n_cells, self.ambient.lo[ax],
                                      boxes[:, ax, 0], boxes[:, ax, 1],
                                      self.delta)
            js.append(first)
            spans.append(last - first + 1)
        wide = spans[0] > 2
        for span in spans[1:]:
            wide |= span > 2
        if wide.any():
            self._expand(np.stack([j[wide] for j in js], axis=1),
                         np.stack([sp[wide] for sp in spans], axis=1))
            narrow = ~wide
            js = [j[narrow] for j in js]
            spans = [sp[narrow] for sp in spans]
        # a box at most two cells wide on every axis meets exactly the cells
        # at its corners min(js + o, je), o in {0, 1}^dim: its first cell
        # plus any subset of the per-axis steps (span - 1) * stride
        ids = sum(j * stride for j, stride in zip(js, self.strides))[None]
        for span, stride in zip(spans, self.strides):
            step = (span - 1) * stride
            if step.any():
                ids = np.concatenate((ids, ids + step))
        if ids.size:
            self._mark(ids.ravel())

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

    Items are taken `_BOX_CHUNK` at a time into an occupancy map (grids of
    at most `_MAP_CELLS` cells) or sorted distinct runs.  Items spanning at
    most two cells per axis are marked at their corners; wider ones are
    expanded, and once more than `2**dim * budget` cells have been expanded
    this raises `ResourceError`."""
    if not 0.0 < delta < math.inf:
        raise UsageError("delta must be finite and > 0")
    arr = np.asarray(items, dtype=float)
    if arr.ndim == 2:
        arr = np.stack([arr, arr], axis=-1)
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[1] != ambient.dim:
        raise UsageError("items must be (n, dim, 2) boxes or (n, dim) points")
    if arr.shape[0] == 0:
        raise UsageError("cannot count an empty family")
    if not np.isfinite(arr).all():
        raise UsageError("items must have finite coordinates")

    cells = _Cells(delta, ambient, budget)
    for start in range(0, arr.shape[0], _BOX_CHUNK):
        cells.add(arr[start:start + _BOX_CHUNK])
    return cells.count()


@dataclass(frozen=True)
class BoxCountTable:
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


@dataclass(frozen=True)
class BoxDimEstimate:
    """Per-rung exponents log N / log(1/delta), the least-squares slope over
    the trailing window, and the min/max exponent over that window."""

    lower_est: float
    upper_est: float
    slope: float
    exponents: tuple[float, ...]
    depths: tuple[int, ...]
    window: tuple[int, int]


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
        sinks = [_Cells(delta, rifs.ambient, budget) for delta, _ in rungs]
        for _, boxes in _cover_chunks(rifs, omega, depth, budget):
            for cells in sinks:
                cells.add(boxes)
        rows += [(cells.delta, cells.count()) for cells in sinks]

    table = BoxCountTable(tuple(rows))
    exps = tuple(math.log(c) / -math.log(d) for d, c in rows)
    n = len(rows)
    start = n // 2 if n >= 4 else 0
    window = (start, n)
    tail = exps[start:]
    if n - start >= 2:
        xs = [-math.log(d) for d, _ in rows[start:]]
        ys = [math.log(c) for _, c in rows[start:]]
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = exps[-1]
    est = BoxDimEstimate(min(tail), max(tail), slope, exps,
                         tuple(depths), window)
    return table, est
