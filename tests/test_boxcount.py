import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rifslab import (BoxCountTable, CarpetSpec, OmegaSeq, ResourceError,
                     UsageError, boxcount, count_boxes, cylinder_cover,
                     estimate_box_dims, geometry, load_corpus, model)
from rifslab.boxcount import SNAP_TOL, _axis_cells
from rifslab.geometry import Affine2, AmbientBox, Similarity, unit_box

LOG2_3 = math.log(2.0) / math.log(3.0)


def test_full_interval_count():
    items = np.array([[[0.0, 1.0]]])
    assert count_boxes(items, 0.25, unit_box(1)) == 4


def test_full_square_count():
    items = np.array([[[0.0, 1.0], [0.0, 1.0]]])
    assert count_boxes(items, 0.5, unit_box(2)) == 4


def test_boundary_conventions():
    box = unit_box(1)
    # start on a boundary: belongs to the cell to the right
    assert count_boxes(np.array([[[0.25, 0.5]]]), 0.25, box) == 1
    # degenerate point on a boundary: the smaller cell
    assert count_boxes(np.array([[[1 / 3, 1 / 3]]]), 1 / 3, box) == 1
    assert count_boxes(np.array([[1 / 3], [0.2]]), 1 / 3, box) == 1
    # the origin clamps into cell 0
    assert count_boxes(np.array([[0.0]]), 0.5, box) == 1


def test_near_boundary_snapping():
    # a point an ulp short of a grid line collapses onto it
    pts = np.array([[1 / 3 + 1e-11], [0.2]])
    assert count_boxes(pts, 1 / 3, unit_box(1)) == 1


def test_points_and_boxes_mix_dimensions_rejected():
    with pytest.raises(UsageError):
        count_boxes(np.array([[0.5, 0.5]]), 0.25, unit_box(1))
    with pytest.raises(UsageError):
        count_boxes(np.empty((0, 1)), 0.25, unit_box(1))
    with pytest.raises(UsageError):
        count_boxes(np.array([[0.5]]), 0.0, unit_box(1))


def test_wide_boxes_enumerate_all_cells():
    # one box spanning 3x2 cells plus a distant point
    items = np.array([[[0.1, 0.7], [0.1, 0.4]],
                      [[0.9, 0.95], [0.9, 0.95]]])
    assert count_boxes(items, 0.25, unit_box(2)) == 3 * 2 + 1


def test_non_finite_inputs_rejected():
    box = unit_box(1)
    with pytest.raises(UsageError, match="finite"):
        count_boxes(np.array([[np.nan], [0.2]]), 0.25, box)
    with pytest.raises(UsageError, match="finite"):
        count_boxes(np.array([[[0.0, np.inf]]]), 0.25, box)
    with pytest.raises(UsageError, match="finite"):
        count_boxes(np.array([[0.5]]), np.nan, box)


def test_grid_too_fine_for_an_int64_index_rejected():
    pts = np.array([[0.1, 0.3], [0.35, 0.3]])
    assert count_boxes(pts, 2.0 ** -20, unit_box(2)) == 2
    with pytest.raises(UsageError, match=f"{2 ** 66} cells overflows"):
        count_boxes(pts, 2.0 ** -33, unit_box(2))


def test_far_off_items_clamp_to_the_edge_cells():
    box = unit_box(1)
    assert count_boxes(np.array([[1e30], [0.9]]), 0.25, box) == 1
    assert count_boxes(np.array([[[-1e30, -1e29]], [[0.1, 0.2]]]),
                       0.25, box) == 1


def _snap(q):
    # the snap of coordinates onto grid lines, out of place
    r = np.round(q)
    return np.where(np.abs(q - r) <= SNAP_TOL, r, q)


def _oracle_count(items, delta, ambient):
    """The per-box itertools.product loop count_boxes once ran, with the
    per-axis cell rule as it stood then."""
    arr = np.asarray(items, dtype=float)
    if arr.ndim == 2:
        arr = np.stack([arr, arr], axis=-1)
    shape = boxcount._grid_shape(ambient, delta)
    cells = set()
    for box in arr:
        ranges = []
        for ax, (a, b) in enumerate(box):
            s = float(_snap(np.asarray((a - ambient.lo[ax]) / delta)))
            e = float(_snap(np.asarray((b - ambient.lo[ax]) / delta)))
            js = math.floor(s)
            je = math.floor(e) - 1 if e == math.floor(e) else math.floor(e)
            if je < js:
                js = je = max(je, 0)
            n = shape[ax]
            ranges.append(range(min(max(js, 0), n - 1),
                                min(max(je, 0), n - 1) + 1))
        cells.update(itertools.product(*ranges))
    return len(cells)


@st.composite
def count_inputs(draw):
    dim = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        ambient, scale = unit_box(dim), 1.0
    else:
        scale = draw(st.floats(0.25, 4.0))
        lo = [draw(st.floats(-3.0, 3.0)) for _ in range(dim)]
        hi = [l + scale * draw(st.floats(1.0, 2.0)) for l in lo]
        ambient = AmbientBox(tuple(lo), tuple(hi))
    delta = scale / draw(st.integers(1, 12))
    if draw(st.booleans()):
        delta *= draw(st.floats(0.7, 1.3))
    n_cells = 2 * scale / delta

    def coordinate(ax):
        # in grid units: on a line, within or just past SNAP_TOL of one,
        # or anywhere, including beyond the grid edges
        j = draw(st.integers(-3, int(n_cells) + 3))
        kind = draw(st.sampled_from(("line", "near", "free")))
        if kind == "near":
            j += draw(st.sampled_from((-2.0, -0.5, 0.5, 2.0))) * SNAP_TOL
        elif kind == "free":
            j = draw(st.floats(-3.0, n_cells + 3.0))
        return ambient.lo[ax] + j * delta

    n = draw(st.integers(1, 12))
    ends = np.array([[sorted((coordinate(ax), coordinate(ax)))
                      for ax in range(dim)] for _ in range(n)])
    items = ends[:, :, 0] if draw(st.booleans()) else ends
    # repeats land in different chunks once the chunk is small
    picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30))
    items = np.concatenate((items, items[picks]))
    chunk = draw(st.sampled_from((1, 2, 3, 7, model._CHUNK_LEAVES)))
    # small cell steps split boxes, and merge runs into the union often
    cells = draw(st.sampled_from((1, 2, 3, 7, boxcount._CELL_CHUNK)))
    # 0 sends every grid to the sorted runs instead of the occupancy map
    map_cells = draw(st.sampled_from((0, boxcount._MAP_CELLS)))
    return items, delta, ambient, chunk, cells, map_cells


@given(count_inputs())
@settings(deadline=None)
def test_count_boxes_equals_the_per_box_loop(case):
    # rows spanning one, two and more cells per axis mix, so corner marking
    # and expansion both feed the map and the runs
    items, delta, ambient, chunk, cells, map_cells = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", chunk)
        mp.setattr(boxcount, "_CELL_CHUNK", cells)
        mp.setattr(boxcount, "_MAP_CELLS", map_cells)
        assert count_boxes(items, delta, ambient) == \
            _oracle_count(items, delta, ambient)


def test_count_boxes_memory_follows_distinct_cells(run_isolated):
    # 16 unit squares on a 1024 x 1024 grid: all 16.8M cells they span were
    # expanded at once (about 46 bytes each), though only 1M are distinct
    code = """
import numpy as np
from rifslab import count_boxes
from rifslab.geometry import unit_box
boxes = np.tile([[[0.0, 1.0], [0.0, 1.0]]], (16, 1, 1))
print(count_boxes(boxes, 2.0 ** -10, unit_box(2)))
"""
    res = run_isolated(code, timeout=120, max_bytes=300 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [str(1 << 20)]


def test_count_boxes_map_memory_is_set_by_the_grid(run_isolated):
    # one unit square on a 2048 x 2048 grid: its 4.2M cells go into a 4 MB
    # occupancy map, where the sorted runs held every distinct cell at about
    # 20 bytes each and needed about 180 MB of address space
    code = """
import numpy as np
from rifslab import count_boxes
from rifslab.geometry import unit_box
print(count_boxes(np.array([[[0.0, 1.0], [0.0, 1.0]]]), 2.0 ** -11,
                  unit_box(2)))
"""
    res = run_isolated(code, timeout=120, max_bytes=145 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [str(1 << 22)]


def test_cell_budget_stops_a_huge_expansion_at_once(run_isolated):
    # one unit square at 2^-20 spans 2^40 cells, about 40 hours of
    # expansion; the cell budget refuses it before expanding any
    code = """
import numpy as np
from rifslab import ResourceError, count_boxes
from rifslab.geometry import unit_box
try:
    count_boxes(np.array([[[0.0, 1.0], [0.0, 1.0]]]), 2.0 ** -20, unit_box(2))
except ResourceError as exc:
    print(exc.count)
"""
    res = run_isolated(code, timeout=30, max_bytes=300 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [str(1 << 40)]


def test_cell_budget_charges_only_expanded_boxes():
    box = unit_box(2)
    # a 3 x 3 box is expanded: 9 cells against 2^2 per budgeted cylinder
    wide = np.array([[[0.1, 0.7], [0.1, 0.7]]])
    assert count_boxes(wide, 0.25, box, budget=3) == 9
    with pytest.raises(ResourceError, match="cell count 9") as err:
        count_boxes(wide, 0.25, box, budget=2)
    assert err.value.count == 9
    # the budget is a running total over the chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", 1)
        with pytest.raises(ResourceError, match="cell count 18"):
            count_boxes(np.concatenate((wide, wide)), 0.25, box, budget=4)
    # boxes at most two cells wide are marked at their corners, unbudgeted
    narrow = np.tile([[[0.1, 0.3], [0.1, 0.3]]], (100, 1, 1))
    assert count_boxes(narrow, 0.25, box, budget=1) == 4


def test_runs_move_to_the_map_once_expansion_could_fill_it(monkeypatch):
    # a 16 kB code map (4096 cells, 2^2 codes each) against 8 bytes per
    # code: the eleven boxes start on the runs, and the 48 x 48 box's
    # expansion moves the codes the narrow ones marked into the map
    box = unit_box(2)
    delta = 2.0 ** -6
    narrow = [[[0.9 + 0.005 * i, 0.91 + 0.005 * i], [0.95, 0.96]]
              for i in range(10)]
    items = np.array(narrow + [[[0.0, 48 * delta], [0.2, 0.2 + 48 * delta]]])
    on_map = []
    count = boxcount._Cells.count

    def spy(cells):
        on_map.append(cells.map is not None)
        return count(cells)

    monkeypatch.setattr(boxcount._Cells, "count", spy)
    monkeypatch.setattr(model, "_CHUNK_LEAVES", 1)
    assert count_boxes(items, delta, box) == _oracle_count(items, delta, box)
    assert count_boxes(items[:10], delta, box) == \
        _oracle_count(items[:10], delta, box)
    assert on_map == [True, False]


@pytest.mark.parametrize("map_cells", [boxcount._MAP_CELLS, 0],
                         ids=["map", "runs"])
def test_marking_a_chunk_holds_under_ten_chunk_arrays(map_cells,
                                                      monkeypatch,
                                                      traced_peak):
    # one chunk of 2^15 boxes at most two cells wide on a 128 x 128 grid:
    # the per-axis (first, last) blocks, with the codes built in place on
    # them, are about six n-long int64 arrays at once, on the map and on
    # the runs; the bound leaves room for small temporaries, not for a
    # code array doubled by concatenation
    n, delta = model._CHUNK_LEAVES, 1.0 / 128
    rng = np.random.default_rng(0)
    lo = rng.uniform(0.0, 1.0 - delta, (n, 2))
    boxes = np.stack((lo, lo + rng.uniform(0.0, delta, (n, 2))), axis=-1)
    monkeypatch.setattr(boxcount, "_MAP_CELLS", map_cells)
    cells = boxcount._Cells(delta, unit_box(2), n, n)
    _, peak = traced_peak(lambda: cells.add(boxes))
    assert (cells.map is not None) == (map_cells > 0)
    assert cells.count() == _oracle_count(boxes, delta, unit_box(2))
    assert peak < 7 * n * 8


def _axis_cells_oracle(n_cells, lo, a, b, delta):
    # the cell ends as computed before they were computed in place
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


@st.composite
def axis_intervals(draw):
    delta = draw(st.sampled_from((0.25, 1 / 3, 0.1, 2.0 ** -7)))
    lo = draw(st.sampled_from((0.0, -0.5, 1 / 3)))
    n_cells = draw(st.integers(1, 40))

    def end():
        kind = draw(st.sampled_from(("aligned", "near", "any", "far")))
        k = draw(st.integers(-3, n_cells + 3))
        if kind == "aligned":
            return lo + k * delta
        if kind == "near":      # within SNAP_TOL cells, or just beyond
            eps = draw(st.floats(-2 * SNAP_TOL, 2 * SNAP_TOL))
            return lo + (k + eps) * delta
        if kind == "far":
            return draw(st.sampled_from((-1e30, 1e30)))
        return draw(st.floats(lo - delta, lo + (n_cells + 1) * delta))

    ends = [(x, x if draw(st.booleans()) else end())     # degenerate or not
            for x in (end() for _ in range(draw(st.integers(1, 12))))]
    a, b = np.sort(np.array(ends), axis=1).T
    return n_cells, lo, delta, a.copy(), b.copy()


@given(axis_intervals())
@settings(max_examples=300, deadline=None)
def test_axis_cells_equal_the_out_of_place_formulation(case):
    n_cells, lo, delta, a, b = case
    first, last = _axis_cells(n_cells, lo, a, b, delta)
    want_first, want_last = _axis_cells_oracle(n_cells, lo, a, b, delta)
    assert first.dtype == last.dtype == np.int64
    assert np.array_equal(first, want_first)
    assert np.array_equal(last, want_last)
    # far-off ends clamp to the edge cells
    assert np.all(last[b == 1e30] == n_cells - 1)
    assert np.all(first[a == -1e30] == 0)
    assert np.all(first[a == 1e30] == n_cells - 1)
    assert np.all(last[b == -1e30] == 0)


def test_cell_total_beyond_int64_rejected():
    # each box spans all 2^61 cells of the grid; five overflow the total
    boxes = np.array([[[0.0, 1.0]]] * 5)
    with pytest.raises(UsageError, match="more cells than an int64"):
        count_boxes(boxes, 2.0 ** -61, unit_box(1))


def test_table_validation():
    BoxCountTable(((0.5, 2), (0.25, 4)))
    with pytest.raises(UsageError):
        BoxCountTable(())
    with pytest.raises(UsageError, match="strictly decreasing"):
        BoxCountTable(((0.25, 2), (0.5, 4)))
    with pytest.raises(UsageError, match="positive"):
        BoxCountTable(((0.5, 0),))


def test_estimate_keeps_counts_that_drop(cantor_cfg):
    # grids of base 1.1 are not nested, so a finer one may need fewer
    # cells: the table keeps each rung's true count
    rifs, omega = cantor_cfg.rifs, cantor_cfg.omega
    deltas = [1.1 ** -e for e in range(1, 21)]
    table, est = estimate_box_dims(rifs, omega, deltas)
    assert [d for d, _ in table.rows] == deltas
    for (delta, count), depth in zip(table.rows, est.depths):
        cover = cylinder_cover(rifs, omega, depth)
        assert count == count_boxes(cover.boxes, delta, rifs.ambient)
    assert any(b < a for a, b in zip(table.counts, table.counts[1:]))


def test_estimate_rejects_bad_ladders(cantor_cfg):
    with pytest.raises(UsageError):
        estimate_box_dims(cantor_cfg.rifs, cantor_cfg.omega, [])
    with pytest.raises(UsageError):
        estimate_box_dims(cantor_cfg.rifs, cantor_cfg.omega, [1.5, 0.5])
    with pytest.raises(UsageError, match=r"lie in \(0, 1\)"):
        estimate_box_dims(cantor_cfg.rifs, cantor_cfg.omega, [0.5, math.nan])


def test_estimate_checks_ladder_order_before_any_cover(cantor_cfg,
                                                      monkeypatch):
    calls = []
    real_walk = boxcount._chunks

    def counting_walk(*args, **kwargs):
        calls.append(args)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(boxcount, "_chunks", counting_walk)
    for ladder in ([1 / 9, 1 / 3], [1 / 3, 1 / 9, 1 / 9]):
        with pytest.raises(UsageError, match="strictly decreasing"):
            estimate_box_dims(cantor_cfg.rifs, cantor_cfg.omega, ladder)
    assert calls == []


@pytest.mark.parametrize("name", ["cantor", "pictorial-b", "carpet-splice"])
@pytest.mark.parametrize("target", [1, 2, 3, 7])
def test_streamed_ladder_counts_the_whole_cover(name, target):
    rifs, om = load_corpus(name).rifs, OmegaSeq((2,), (1, 2))
    deltas = [1 / 2, 1 / 3, 1 / 5]
    want, est = estimate_box_dims(rifs, om, deltas)
    assert want.counts == tuple(
        count_boxes(cylinder_cover(rifs, om, depth).boxes, delta, rifs.ambient)
        for delta, depth in zip(deltas, est.depths))
    # chunks and cell steps from one item up: the counts stay the same
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", target)
        mp.setattr(boxcount, "_CELL_CHUNK", target)
        assert estimate_box_dims(rifs, om, deltas)[0] == want


def test_triadic_ladder_counts_are_powers_of_two(cantor_cfg):
    rifs = cantor_cfg.rifs
    om = OmegaSeq((), (1,))
    deltas = [3.0 ** -k for k in range(2, 8)]
    table, est = estimate_box_dims(rifs, om, deltas)
    assert table.counts == (4, 8, 16, 32, 64, 128)
    for exp in est.exponents:
        assert exp == pytest.approx(LOG2_3, abs=1e-12)
    assert est.window == (3, 6)
    assert est.lower_est <= est.upper_est


def test_sparse_ladder_rungs_count_into_runs(cantor_cfg, monkeypatch):
    # at 3^-15 the cantor cover (2^17 boxes) meets 37,784 cells of a
    # 14.3M-cell grid: a one-byte-per-cell map cost 14 MB there, where the
    # runs hold 8 bytes per distinct code.  The counts are those the map
    # gave; the 3^-6 rung (a 1458-byte code map, 256 boxes) stays on the
    # map, and the 3^-7 rung (4374 bytes, 512 boxes) takes the runs.
    on_runs = []
    count = boxcount._Cells.count

    def spy(cells):
        on_runs.append(cells.map is None)
        return count(cells)

    monkeypatch.setattr(boxcount._Cells, "count", spy)
    deltas = [3.0 ** -k for k in (6, 7, 13, 14, 15)]
    table, est = estimate_box_dims(cantor_cfg.rifs, OmegaSeq((), (1,)),
                                   deltas)
    assert on_runs == [False, True, True, True, True]
    assert table.counts == (64, 128, 8192, 16384, 37784)
    assert est.depths == (8, 9, 15, 16, 17)


def test_dyadic_ladder_on_the_full_interval(cantor_cfg):
    om = OmegaSeq((), (2,))
    deltas = [2.0 ** -k for k in range(2, 9)]
    table, est = estimate_box_dims(cantor_cfg.rifs, om, deltas)
    assert table.counts == tuple(2 ** k for k in range(2, 9))
    assert est.slope == pytest.approx(1.0, abs=1e-9)


def test_interval_ladder_slope_is_exactly_one():
    # log N = -log delta, float for float, so the exact slope is 1; a
    # floating least-squares fit read 0.9999999999999996
    cfg = load_corpus("interval-boxdim")
    _, est = estimate_box_dims(cfg.rifs, cfg.omega, cfg.task.params["deltas"])
    assert est.slope == 1.0


def test_slope_is_the_exact_least_squares_slope_rounded_once(cantor_cfg):
    table, est = estimate_box_dims(cantor_cfg.rifs, OmegaSeq((), (1,)),
                                   [3.0 ** -k for k in range(1, 6)])
    start, stop = est.window
    xs = [Fraction(-math.log(d)) for d, _ in table.rows[start:stop]]
    ys = [Fraction(math.log(c)) for _, c in table.rows[start:stop]]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    want = (sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
            / sum((x - x_bar) ** 2 for x in xs))
    assert est.slope == float(want)


def test_window_of_equal_logs_falls_back_to_exponent(cantor_cfg):
    # two deltas an ulp apart whose logs round to one float
    d = 0.3
    assert math.log(d) == math.log(math.nextafter(d, 0.0))
    deltas = [0.5, 0.4, d, math.nextafter(d, 0.0)]
    _, est = estimate_box_dims(cantor_cfg.rifs, OmegaSeq((), (1,)), deltas)
    assert est.window == (2, 4)
    assert est.slope == est.exponents[-1]


def test_single_rung_slope_falls_back_to_exponent(cantor_cfg):
    om = OmegaSeq((), (1,))
    _, est = estimate_box_dims(cantor_cfg.rifs, om, [1 / 9])
    assert est.slope == est.exponents[-1]
    assert est.window == (0, 1)


def _aligned_system(draw, pools, label):
    """1-4 maps, each reading its parts from the per-axis pools: 1-D
    similarities, or reflecting and rotating similarities and diagonal
    affine maps of either sign."""
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        (cx, tx), *rest = [draw(st.sampled_from(pool)) for pool in pools]
        if not rest:
            maps.append(Similarity(abs(cx), (tx,), reflect=cx < 0))
            continue
        ((cy, ty),) = rest
        if abs(cx) == abs(cy) and draw(st.booleans()):
            # a half turn negates both axes; the reflection negates x
            maps.append(Similarity(abs(cx), (tx, ty),
                                   rotation_deg=180.0 if cy < 0 else 0.0,
                                   reflect=(cx < 0) != (cy < 0)))
        else:
            maps.append(Affine2([[cx, 0.0], [0.0, cy]], (tx, ty)))
    return model.DeterministicIfs(tuple(maps), label)


@st.composite
def aligned_ladders(draw):
    dim = draw(st.sampled_from((1, 2)))
    lo = tuple(draw(st.sampled_from((0.0, -1.5, 2.25, 1 / 3)))
               for _ in range(dim))
    side = draw(st.sampled_from((1.0, 0.75, 2.0)))
    ambient = AmbientBox(lo, tuple(l + side for l in lo))

    def part(ax):
        # a 1-D part mapping the ambient interval into itself, well inside
        r = draw(st.sampled_from((1 / 3, 0.4, 0.25)))
        c = -r if draw(st.booleans()) else r
        start = lo[ax] + draw(st.floats(0.01, 0.99 - r)) * side
        return c, start - c * (lo[ax] if c > 0 else lo[ax] + side)

    # small pools, so maps and their parts repeat
    pools = [[part(ax) for _ in range(draw(st.integers(1, 2)))]
             for ax in range(dim)]
    n = draw(st.integers(1, 3))
    rifs = model.Rifs(tuple(_aligned_system(draw, pools, f"s{i}")
                            for i in range(n)), ambient)
    om = OmegaSeq(tuple(draw(st.lists(st.integers(1, n), max_size=2))),
                  tuple(draw(st.lists(st.integers(1, n), min_size=1,
                                      max_size=3))))
    base = draw(st.sampled_from((2.0, 3.0, 2.5)))
    exps = sorted(draw(st.sets(st.integers(1, 3), min_size=1)))
    deltas = [d for d in (min(side, 1.0) * base ** -e for e in exps)
              if d < 1.0]
    chunk = draw(st.sampled_from((1, 3, 7, model._CHUNK_LEAVES)))
    map_cells = draw(st.sampled_from((0, boxcount._MAP_CELLS)))
    return rifs, om, deltas, chunk, map_cells


@given(aligned_ladders())
@settings(max_examples=200, deadline=None)
def test_axis_aligned_ladders_count_every_cylinder_box(case):
    # from the per-axis tables or, where they do not apply, the box walk
    rifs, om, deltas, chunk, map_cells = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", chunk)
        mp.setattr(boxcount, "_MAP_CELLS", map_cells)
        table, est = estimate_box_dims(rifs, om, deltas)
    assert table.counts == tuple(
        count_boxes(cylinder_cover(rifs, om, depth).boxes, delta,
                    rifs.ambient)
        for delta, depth in zip(deltas, est.depths))


def _carpet_mix():
    sierpinski = tuple((c, r) for r in range(3) for c in range(3)
                       if (c, r) != (1, 1))
    return model.Rifs((
        model.carpet_system(CarpetSpec(3, 3, sierpinski), "sierpinski"),
        model.carpet_system(CarpetSpec(2, 3, ((0, 0), (1, 1), (0, 2))),
                            "grid")), unit_box(2)), OmegaSeq((), (1, 2))


def _repeated_parts():
    # a 1-D system whose first two maps are one map: 2^k of 3^k intervals
    left = Similarity(1 / 3, (0.0,))
    return model.Rifs((model.DeterministicIfs(
        (left, left, Similarity(1 / 3, (2 / 3,), reflect=True)), "twice"),),
        unit_box(1)), OmegaSeq((), (1,))


@pytest.mark.parametrize("build, deltas", [
    (_carpet_mix, [2.0 ** -e for e in range(1, 8)]),
    (_repeated_parts, [2.0 ** -e for e in range(1, 9)]),
], ids=["carpet-mix", "repeated-1d"])
def test_axis_aligned_ladders_map_no_box(build, deltas, monkeypatch):
    # a silent fall back to the box walk shows here: no 2-D box family is
    # mapped, and no box is marked
    rifs, om = build()
    with pytest.MonkeyPatch.context() as mp:     # the tables turned off
        mp.setattr(boxcount, "_mark_from_tables", lambda *args: False)
        want = estimate_box_dims(rifs, om, deltas)
    dims = []
    image = geometry._AffineMap.image_box_array

    def spy(m, boxes, out=None):
        dims.append(boxes.shape[1])
        return image(m, boxes, out)

    def no_boxes(cells, boxes):
        raise AssertionError("a box family reached _Cells.add")

    monkeypatch.setattr(geometry._AffineMap, "image_box_array", spy)
    monkeypatch.setattr(boxcount._Cells, "add", no_boxes)
    assert estimate_box_dims(rifs, om, deltas) == want
    assert set(dims) == {1}


@pytest.mark.parametrize("name", ["rotated", "cookie-boxdim"])
def test_other_ladders_stay_on_the_box_walk(name, monkeypatch):
    # rotations and closed forms have no per-axis tables
    if name == "rotated":
        rifs = model.Rifs((model.DeterministicIfs(
            (Similarity(0.5, (0.5, 0.0), rotation_deg=90.0),
             Similarity(0.4, (0.3, 0.3), rotation_deg=30.0),
             Similarity(0.5, (0.0, 0.0))), "turns"),), unit_box(2))
        om, deltas = OmegaSeq((), (1,)), [2.0 ** -e for e in range(1, 5)]
    else:
        cfg = load_corpus(name)
        rifs, om, deltas = cfg.rifs, cfg.omega, cfg.task.params["deltas"]
    added = []
    add = boxcount._Cells.add
    monkeypatch.setattr(boxcount._Cells, "add",
                        lambda cells, boxes: added.append(add(cells, boxes)))
    table, est = estimate_box_dims(rifs, om, deltas)
    assert added
    assert table.counts == tuple(
        count_boxes(cylinder_cover(rifs, om, depth).boxes, delta,
                    rifs.ambient)
        for delta, depth in zip(deltas, est.depths))


def test_tables_spanning_over_two_cells_go_to_the_box_walk(monkeypatch):
    # at 2^50 the floats are 1/4 apart, so a depth-6 interval of width
    # 1/64 rounds out to 1/4, four cells of 1/16: the tables refuse the
    # rung, and the box walk expands those boxes
    half = 2.0 ** 49
    left = Similarity(0.5, (half,))
    rifs = model.Rifs((model.DeterministicIfs(
        (left, left, Similarity(0.5, (half + 0.5,))), "far"),),
        AmbientBox((2.0 ** 50,), (2.0 ** 50 + 1,)))
    om = OmegaSeq((), (1,))
    taken = []
    tables = boxcount._mark_from_tables
    monkeypatch.setattr(boxcount, "_mark_from_tables",
                        lambda *args: taken.append(tables(*args)) or taken[-1])
    for delta, on_tables in ((1 / 8, True), (1 / 16, False)):
        table, est = estimate_box_dims(rifs, om, [delta])
        assert taken[-1] == on_tables
        boxes = cylinder_cover(rifs, om, est.depths[0]).boxes
        assert table.counts == (count_boxes(boxes, delta, rifs.ambient),)
    assert np.ptp(boxes[:, 0], axis=1).max() == 0.25


@pytest.mark.parametrize("map_cells", [boxcount._MAP_CELLS, 0],
                         ids=["map", "runs"])
def test_table_marking_holds_under_ten_chunk_arrays(map_cells, monkeypatch,
                                                    traced_peak):
    # the depth-5 Sierpinski carpet is one chunk of 2^15 cylinders: two
    # taken n-long code arrays, summed in place, and the suffix numbers
    # stay under the bound of the box path's marking, on the map and on
    # the runs
    n, delta = model._CHUNK_LEAVES, 1.0 / 128
    rifs = model.Rifs(_carpet_mix()[0].systems[:1], unit_box(2))
    om = OmegaSeq((), (1,))
    walk, _ = model._boxes(rifs, om, 5, n)
    monkeypatch.setattr(boxcount, "_MAP_CELLS", map_cells)
    cells = boxcount._Cells(delta, unit_box(2), n, n)
    marked, peak = traced_peak(
        lambda: boxcount._mark_from_tables(walk, [cells], {}))
    assert marked
    assert (cells.map is not None) == (map_cells > 0)
    want = count_boxes(cylinder_cover(rifs, om, 5).boxes, delta,
                       rifs.ambient)
    assert cells.count() == want
    assert peak < 7 * n * 8
