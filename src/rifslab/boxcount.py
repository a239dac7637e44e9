"""Grid box counting and box-dimension estimation.

The grid is anchored at the ambient box's lower corner with cells of side
delta.  Conventions, chosen so counts of grid-aligned covers are exact:

* an interval starting on a grid boundary j belongs to cell j;
* an interval ending on a grid boundary j stops in cell j - 1;
* a degenerate point sitting on a boundary counts toward the smaller cell
  (clamped at 0);
* coordinates within 1e-9 cells of a boundary are snapped onto it first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import AmbientBox
from .model import DEFAULT_BUDGET, Rifs, _cover_chunks, resolution_depth
from .sequences import OmegaSeq

SNAP_TOL = 1e-9
_BOX_CHUNK = 1 << 15       # boxes per step of count_boxes
_CELL_CHUNK = 1 << 17      # cells expanded per step
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
              ends: np.ndarray, strides: np.ndarray, start: int,
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


def _add_cells(found: list, boxes: np.ndarray, delta: float,
               ambient: AmbientBox, shape: tuple[int, ...]) -> None:
    """Add the cells meeting `boxes` to `found`, a list of sorted distinct
    runs of cell indices, expanding at most `_CELL_CHUNK` cells at a time.
    Once the later runs outnumber the first, all are folded into the
    first, so memory follows the distinct cells, not the cells the boxes
    span, and each fold at least doubles what the next one sorts."""
    dim = len(shape)
    strides = np.ones(dim, dtype=np.int64)
    for ax in range(dim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]
    js = np.empty((boxes.shape[0], dim), dtype=np.int64)
    je = np.empty_like(js)
    for ax in range(dim):
        js[:, ax], je[:, ax] = _axis_cells(
            shape[ax], ambient.lo[ax], boxes[:, ax, 0], boxes[:, ax, 1], delta)
    span = je - js + 1
    sizes = span.prod(axis=1)
    if sizes.sum(dtype=float) > _MAX_CELLS:
        raise UsageError("the boxes span more cells than an int64 can count")
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    for start in range(0, total, _CELL_CHUNK):
        stop = min(start + _CELL_CHUNK, total)
        found.append(_distinct(
            _cell_ids(js, span, sizes, ends, strides, start, stop)))
        if sum(run.size for run in found[1:]) >= found[0].size:
            runs = np.concatenate(found)
            found.clear()
            found.append(_distinct(runs))


def _count(found: list) -> int:
    """Number of distinct indices in `found`, which holds at least one
    (every box meets a cell); empties `found`."""
    ids = np.concatenate(found)
    found.clear()
    ids.sort()
    return 1 + int(np.count_nonzero(ids[1:] != ids[:-1]))


def count_boxes(items: np.ndarray, delta: float, ambient: AmbientBox) -> int:
    """Number of grid cells meeting the items (boxes (n,dim,2) or points
    (n,dim)), under the boundary conventions above."""
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

    shape = _grid_shape(ambient, delta)
    found = []
    for start in range(0, arr.shape[0], _BOX_CHUNK):
        _add_cells(found, arr[start:start + _BOX_CHUNK], delta, ambient,
                   shape)
    return _count(found)


@dataclass(frozen=True)
class BoxCountTable:
    """Rows of (delta, count) with strictly decreasing deltas and counts that
    never drop as the grid refines."""

    rows: tuple[tuple[float, int], ...]
    source: str

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
    def deltas(self) -> tuple[float, ...]:
        return tuple(d for d, _ in self.rows)

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
        rungs = [(delta, _grid_shape(rifs.ambient, delta))
                 for delta, _ in rungs]
        found = [[] for _ in rungs]
        for _, boxes in _cover_chunks(rifs, omega, depth, budget):
            for cells, (delta, shape) in zip(found, rungs):
                _add_cells(cells, boxes, delta, rifs.ambient, shape)
        rows += [(delta, _count(cells))
                 for cells, (delta, _) in zip(found, rungs)]

    table = BoxCountTable(tuple(rows), source="cylinder cover")
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
