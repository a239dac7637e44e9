"""Self-tests for the benchmark's own code.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from run import DERIVED, SPEC, child_env, run_argv, spawn
from tracer import TARGETS, layer_totals, root_seconds
from workloads import (DEFAULT_SEED, Job, check_job, generate, load_expected,
                       output_hashes)

NAMES = [w["name"] for w in SPEC["workloads"]]


def _span(name, parent, start, end, rss0=0, rss1=0, counts=None):
    span = {"name": name, "run": "t", "parent": parent, "start": start,
            "end": end, "rss0": rss0, "rss1": rss1}
    if counts:
        span["counts"] = counts
    return span


def test_self_time_of_nested_spans():
    spans = [
        _span("a", None, 0.0, 10.0, 0, 4096),
        _span("b", 0, 1.0, 4.0, 0, 3072),
        _span("c", 1, 2.0, 3.0, 0, 2048, {"points": 5}),
        _span("b", 0, 5.0, 9.0, 3072, 3072),
        _span("a", None, 11.0, 12.0, 4096, 4096),
    ]
    totals = layer_totals(spans)
    assert totals["a.self_s"] == pytest.approx((10 - 3 - 4) + 1)
    assert totals["b.self_s"] == pytest.approx((3 - 1) + 4)
    assert totals["c.self_s"] == pytest.approx(1)
    assert totals["a.calls"] == 2 and totals["b.calls"] == 2
    assert totals["c.points"] == 5
    assert totals["a>b"] == 2 and totals["b>c"] == 1
    assert totals["a.rss_grow_mb"] == pytest.approx(1.0)
    assert totals["b.rss_grow_mb"] == pytest.approx(1.0)
    assert totals["c.rss_grow_mb"] == pytest.approx(2.0)
    # self times partition the root spans
    assert sum(v for k, v in totals.items() if k.endswith(".self_s")) == \
        pytest.approx(root_seconds(spans)) == pytest.approx(11.0)


@pytest.mark.parametrize("workload", NAMES)
def test_generation_is_byte_identical_per_seed(tmp_path, workload):
    first = generate(workload, 7, tmp_path / "a")
    second = generate(workload, 7, tmp_path / "b")
    assert [j.name for j in first] == [j.name for j in second]
    assert output_hashes(tmp_path / "a") == output_hashes(tmp_path / "b")
    if workload != "corpus":
        generate(workload, 8, tmp_path / "c")
        assert output_hashes(tmp_path / "a") != output_hashes(tmp_path / "c")


def test_checker_rejects_a_one_byte_change(tmp_path):
    job = next(j for j in generate("corpus", DEFAULT_SEED, tmp_path / "in")
               if j.name == "sample_demo")
    out = tmp_path / "out"
    out.mkdir()
    _, _, code = spawn(run_argv(job, out, None, "test"), tmp_path / "log",
                       child_env())
    assert code == 0
    expected = load_expected()
    assert check_job("corpus", job, out, DEFAULT_SEED, expected) == []
    path = out / "sample.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert check_job("corpus", job, out, DEFAULT_SEED, expected) != []


def test_invariants_reject_a_dropping_box_count(tmp_path):
    out = tmp_path / "boxdim"
    out.mkdir()
    rows = ["delta,count,depth,exponent"]
    rows += [f"{2.0 ** -e},{c},{e + 2},1.5" for e, c in
             zip(range(1, 10), (4, 16, 56, 182, 590, 1840, 5516, 5515, 52788))]
    (out / "boxdim.csv").write_text("\n".join(rows) + "\n")
    (out / "boxdim_summary.csv").write_text(
        "name,value\nlower_est,1.7\nupper_est,1.8\n")
    errors = check_job("carpet-boxdim", Job("boxdim", "unused"), out, 5, {})
    assert any("drop" in e for e in errors)


def test_traced_cli_wraps_names_imported_elsewhere(tmp_path):
    # estimate_box_dims reaches cylinder_cover and count_boxes through the
    # boxcount namespace, and tasks reaches estimate_box_dims through its own
    job = next(j for j in generate("corpus", DEFAULT_SEED, tmp_path / "in")
               if j.name == "cantor_boxdim")
    out = tmp_path / "out"
    out.mkdir()
    spans_path = tmp_path / "spans.json"
    _, _, code = spawn(run_argv(job, out, spans_path, "r1"),
                       tmp_path / "log", child_env())
    assert code == 0
    spans = json.loads(spans_path.read_text())
    totals = layer_totals(spans)
    assert totals["tasks.run>boxcount.estimate_box_dims"] == 1
    assert totals["boxcount.estimate_box_dims>model.cylinder_cover"] >= 1
    assert totals["boxcount.estimate_box_dims>boxcount.count_boxes"] == 6
    assert totals["config.load_config.calls"] == 1
    assert {s["run"] for s in spans} == {"r1"}


def test_per_layer_metrics_name_traced_spans():
    spans = {f"{module}.{attr}" for module, attr, _ in TARGETS}
    for entry in SPEC["per_layer"]:
        name = entry["name"]
        if name in DERIVED or name == "trace.overhead_s":
            continue
        assert name.rsplit(".", 1)[0] in spans, name


def test_expected_hashes_cover_every_workload():
    expected = load_expected()
    assert set(expected) == set(NAMES)
    assert all(expected[name] for name in NAMES)


def test_bare_benchmark_directory_fails(tmp_path):
    from workloads import ROOT
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in (ROOT / "benchmarks").iterdir():
        if path.is_file():
            (bare / "benchmarks" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
