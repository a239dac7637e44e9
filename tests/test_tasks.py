"""Task handlers that stream cylinder point images give the outputs of the
whole-array formulas they replace, bit for bit, in bounded memory."""

import itertools
import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from rifslab import (PowerGauge, PowerLogGauge, ResourceError, TableGauge,
                     TaskSpec, UsageError, cylinder_images, load_corpus,
                     render_ppm, resolution_depth, splice, tasks)
from rifslab import model
from rifslab.render import RenderSpec


def with_params(cfg, **params):
    return replace(cfg, task=replace(cfg.task,
                                     params=dict(cfg.task.params, **params)))


def whole_splice_rows(cfg):
    """(count, largest diameter, cover mass) per depth, from every point
    image at once."""
    params = cfg.task.params
    k = max(0, math.ceil(math.log2(1.0 / params["epsilon"])))
    spliced = splice(cfg.omega, k, params["tail"])
    seeds = np.asarray(params["seed_set"], dtype=float)
    rows = []
    for depth in range(1, params["max_depth"] + 1):
        pts = cylinder_images(cfg.rifs, spliced, depth, seeds)
        blocks = pts.reshape(-1, len(seeds), pts.shape[1])
        d2 = np.zeros(len(blocks))
        for i, j in itertools.combinations(range(len(seeds)), 2):
            d2 = np.maximum(d2,
                            ((blocks[:, i, :] - blocks[:, j, :]) ** 2).sum(
                                axis=1))
        diams = np.sqrt(d2)
        rows.append((len(blocks), float(diams.max(initial=0.0)),
                     math.fsum(np.asarray(params["gauge"](diams)))))
    return rows


@pytest.mark.parametrize("gauge", [
    PowerGauge(1.0), PowerLogGauge(0.5),
    TableGauge([(0.1, 0.2), (0.5, 0.6), (1.0, 0.9)]),
], ids=["power", "power_log", "table"])
@pytest.mark.parametrize("target", [1, 3, 7, model._CHUNK_LEAVES])
def test_streamed_splice_rows_equal_whole_arrays(splice_cfg, gauge, target,
                                                 monkeypatch):
    cfg = with_params(splice_cfg, gauge=gauge, max_depth=5,
                      seed_set=((0.0, 0.0), (0.0, 1.0), (0.3, 0.7)))
    # the rows before formatting, so floats compare bit for bit
    monkeypatch.setattr(tasks, "_csv", lambda header, rows: rows)
    monkeypatch.setattr(model, "_CHUNK_LEAVES", target)
    (_, rows), = tasks.TASKS["splice-demo"].handler(cfg, model.DEFAULT_BUDGET)
    assert [row[1:4] for row in rows] == whole_splice_rows(cfg)


@pytest.mark.parametrize("horizon", [1, 100, 10 ** 5])
def test_sample_output_equals_the_csv_writer(horizon):
    cfg = with_params(load_corpus("sample"), horizon=horizon)
    params = cfg.task.params
    seq = model.sample_omega(
        model.BernoulliSampler(tuple(params["weights"]), cfg.seed), horizon)
    rows = [(i + 1, sym) for i, sym in enumerate(seq.prefix)]
    (_, data), = tasks.TASKS["sample"].handler(cfg, model.DEFAULT_BUDGET)
    assert data == tasks._csv(("index", "symbol"), rows)


@pytest.mark.parametrize("name, target", [
    ("pictorial-a", 1 << 10), ("pictorial-a", model._CHUNK_LEAVES),
    ("cantor-render", 1), ("cantor-render", 3),
])
def test_streamed_render_equals_whole_array(name, target, monkeypatch):
    # pictorial-a sets a depth, cantor-render a target error
    cfg = load_corpus(name)
    params = cfg.task.params
    depth = params.get("depth") or resolution_depth(
        cfg.rifs, cfg.omega, params["target_error"])
    center = np.asarray(cfg.rifs.ambient.center)[None, :]
    spec = RenderSpec(params["width"], params["height"])
    whole = render_ppm(cylinder_images(cfg.rifs, cfg.omega, depth, center),
                       spec, cfg.rifs.ambient)
    monkeypatch.setattr(model, "_CHUNK_LEAVES", target)
    (_, data), = tasks.TASKS["render"].handler(cfg, model.DEFAULT_BUDGET)
    assert data == whole


def test_render_task_writes_its_one_canvas(tmp_path, traced_peak):
    # the painted buffer, header included, is the bytes written: handing
    # the writer a bytes copy of it held two canvases at once
    cfg = with_params(load_corpus("cantor-render"), width=1000, height=1000)
    canvas = 3 * 1000 * 1000
    (path,), peak = traced_peak(lambda: tasks.run(cfg, str(tmp_path)))
    with open(path, "rb") as fh:
        assert len(fh.read()) == len(b"P6\n1000 1000\n255\n") + canvas
    assert peak < 1.5 * canvas


@pytest.mark.parametrize("colours", [
    {}, {"foreground": (200, 10, 10)}, {"background": (0, 0, 40)},
], ids=["none", "foreground", "background"])
def test_render_task_colours_default_to_render_spec(colours, monkeypatch):
    # RenderSpec's own defaults, set apart from black and white, fill in
    # every colour the config leaves out
    monkeypatch.setattr(RenderSpec.__init__, "__defaults__",
                        ((1, 2, 3), (4, 5, 6)))
    cfg = with_params(load_corpus("cantor-render"), **colours)
    params = cfg.task.params
    depth = resolution_depth(cfg.rifs, cfg.omega, params["target_error"])
    center = np.asarray(cfg.rifs.ambient.center)[None, :]
    spec = RenderSpec(params["width"], params["height"], **colours)
    want = render_ppm(cylinder_images(cfg.rifs, cfg.omega, depth, center),
                      spec, cfg.rifs.ambient)
    (_, data), = tasks.TASKS["render"].handler(cfg, model.DEFAULT_BUDGET)
    assert data == want


@pytest.mark.parametrize("name, size", [
    ("cantor-render", lambda p: p["width"] * p["height"]),
    ("sample", lambda p: p["horizon"]),
    ("carpet-curve", lambda p: p["grid"]),
], ids=["render-pixels", "sample-horizon", "curve-grid"])
def test_run_sizes_are_charged_to_the_budget(name, size):
    cfg = load_corpus(name)
    handler = tasks.TASKS[cfg.task.type].handler
    need = size(cfg.task.params)
    assert handler(cfg, need)
    with pytest.raises(ResourceError, match="exceeds budget") as exc:
        handler(cfg, need - 1)
    assert exc.value.count == need


def test_splice_demo_holds_one_chunk(traced_peak):
    # carpet-splice reaches 4^10 cylinders: one gauge value per cylinder
    # traced an 11 MB peak, the streamed sum holds one chunk (2.5 MB)
    cfg = load_corpus("carpet-splice")
    _, peak = traced_peak(lambda: tasks.TASKS["splice-demo"].handler(
        cfg, model.DEFAULT_BUDGET))
    assert peak < 4 << 20


def test_deep_splice_demo_streams_the_points(run_isolated):
    # max_depth 11, 4^11 cylinders of two seeds: holding every point image
    # needed 475 MB of address space, and the points streamed with one
    # gauge value per cylinder 182 MB; streamed with the gauge values
    # summed as they come, one chunk is held (144 MB, numpy's import
    # included)
    code = """
import hashlib
from dataclasses import replace
from rifslab import load_corpus, tasks
cfg = load_corpus("carpet-splice")
cfg = replace(cfg, task=replace(cfg.task,
                                params=dict(cfg.task.params, max_depth=11)))
(_, data), = tasks.TASKS["splice-demo"].handler(cfg, 10 ** 7)
print(hashlib.sha256(data).hexdigest())
"""
    res = run_isolated(code, timeout=120, max_bytes=160 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [
        "a0f25c9f3d2aab565a42338c44edbc0e2603a79d17dec3faa7140311ef9c9d39"]


def test_run_refuses_a_hand_built_dim_of_other_maps(tmp_path):
    # the config parser refuses a dim task on closed-form maps; one built
    # in code reaches the handler, which keeps the same rule
    cfg = load_corpus("pictorial-a")
    n = len(cfg.rifs.systems)
    cfg = replace(cfg, task=TaskSpec("dim", {"weights": (1.0 / n,) * n,
                                             "output": "dim.csv"}))
    with pytest.raises(UsageError, match="all-similarity or all-carpet"):
        tasks.run(cfg, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_run_outputs_take_the_umask(tmp_path, umask):
    cfg = load_corpus("cantor")
    old = os.umask(umask)
    try:
        for _ in range(2):      # a new output, then one written over
            tasks.run(cfg, str(tmp_path))
            mode = stat.S_IMODE((tmp_path / "dim.csv").stat().st_mode)
            assert mode == 0o666 & ~umask
    finally:
        os.umask(old)
    assert [p.name for p in tmp_path.iterdir()] == ["dim.csv"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        tasks.run(load_corpus("cantor"), str(tmp_path))
    assert list(tmp_path.iterdir()) == []
