import gc
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rifslab import cli, corpus_path, tasks


def test_corpus_listing(run_cli):
    res = run_cli("corpus", "list")
    assert res.returncode == 0
    assert "cantor" in res.stdout
    assert "carpet-minimize" in res.stdout
    assert "cantor_render.json" in res.stdout
    # descriptions come from the configs themselves
    assert res.stdout.splitlines()[0] == (
        "cantor             cantor.json            "
        "Randomized dimension of the middle-thirds interval systems")


def test_validate_reports_shape(run_cli):
    res = run_cli("validate", corpus_path("cantor"))
    assert res.returncode == 0
    assert res.stdout.rstrip().endswith("OK (2 systems, task dim)")


def test_validate_rejects_bad_config(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 2}')
    res = run_cli("validate", str(bad))
    assert res.returncode == 1
    assert "invalid config" in res.stderr


def test_run_writes_outputs(run_cli, tmp_path):
    out = tmp_path / "out"
    res = run_cli("run", corpus_path("cantor"), "--out", str(out))
    assert res.returncode == 0
    assert "rifslab: wrote" in res.stderr
    first = (out / "dim.csv").read_bytes()
    res = run_cli("run", corpus_path("cantor"), "--out", str(out))
    assert res.returncode == 0
    assert (out / "dim.csv").read_bytes() == first


def test_seed_changes_sample_output(run_cli, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli("run", corpus_path("sample"), "--out", str(a), "--seed", "9")
    run_cli("run", corpus_path("sample"), "--out", str(b), "--seed", "9")
    run_cli("run", corpus_path("sample"), "--out", str(c), "--seed", "10")
    same = (a / "sample.csv").read_bytes()
    assert (b / "sample.csv").read_bytes() == same
    assert (c / "sample.csv").read_bytes() != same


def test_negative_seed_rejected(run_cli, tmp_path):
    res = run_cli("run", corpus_path("sample"), "--out", str(tmp_path),
                  "--seed", "-1")
    assert res.returncode == 1
    assert "--seed" in res.stderr


def test_budget_env_limits_run(run_cli, tmp_path):
    res = run_cli("run", corpus_path("cantor-render"), "--out",
                  str(tmp_path), env_extra={"RIFSLAB_BUDGET": "10"})
    assert res.returncode == 2
    assert "resource limit" in res.stderr


def test_budget_flag_overrides_env(run_cli, tmp_path):
    res = run_cli("run", corpus_path("cantor-render"), "--out",
                  str(tmp_path), "--budget", "100000",
                  env_extra={"RIFSLAB_BUDGET": "10"})
    assert res.returncode == 0
    assert (tmp_path / "render.ppm").exists()


def test_dim_of_tiny_ratios_runs(run_cli, tmp_path):
    # sum(r^s) of two 1e-6 ratios underflows to 0 before s = 64
    doc = {
        "version": 1, "description": "two tiny similarities",
        "ambient": {"lo": [0], "hi": [1]},
        "systems": [{"label": "tiny", "maps": [
            {"kind": "similarity", "ratio": "1e-6", "translation": [0]},
            {"kind": "similarity", "ratio": "1e-6", "translation": [0.5]}]}],
        "omega": {"prefix": [], "cycle": [1]},
        "task": {"type": "dim", "output": "dim.csv"},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    res = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    rows = dict(line.split(",") for line in
                (tmp_path / "out" / "dim.csv").read_text().splitlines())
    assert float(rows["dimension"]) == pytest.approx(
        math.log(2.0) / math.log(1e6), abs=1e-12)


def patched_corpus(tmp_path, name, **fields):
    """A copy of a bundled config with task fields replaced."""
    doc = json.loads(Path(corpus_path(name)).read_text())
    doc["task"].update(fields)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def limit_line(res):
    """The one resource-limit line of a refused run, after its start line."""
    err = res.stderr.splitlines()
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert len(err) == 2 and err[0].startswith("rifslab: running")
    return err[1]


def test_deep_render_is_refused_in_one_line(run_cli, tmp_path):
    # the count is checked level by level, so depth 10^5 stops at the first
    # level over budget, without a 10^5-level list or a huge count
    res = run_cli("run", patched_corpus(tmp_path, "pictorial-a",
                                        depth=100_000),
                  "--out", str(tmp_path / "out"), timeout=20)
    assert limit_line(res) == (
        "rifslab: resource limit: cylinder count 15116544 at depth 18 "
        "exceeds budget 10000000; best achievable error 1.41421")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, field, what", [
    ("cantor-render", "width", f"canvas of {10 ** 30}x1 pixels"),
    ("sample", "horizon", f"horizon of {10 ** 30} symbols"),
    ("carpet-curve", "grid", f"curve grid of {10 ** 30} points"),
])
def test_run_sizes_beyond_the_budget_are_refused(run_cli, tmp_path, name,
                                                 field, what):
    res = run_cli("run", patched_corpus(tmp_path, name, **{field: 10 ** 30}),
                  "--out", str(tmp_path), timeout=20)
    assert limit_line(res) == (
        f"rifslab: resource limit: {what} exceeds budget 10000000")


def test_long_splice_sweep_is_refused_at_once(run_cli, tmp_path):
    # each depth is walked from the root, so max_depth 10,000 asks for
    # 50,005,000 levels; a one-map system never raises the cylinder count
    doc = {
        "version": 1, "description": "one-map splice sweep",
        "ambient": {"lo": [0], "hi": [1]},
        "systems": [{"label": "half", "maps": [
            {"kind": "similarity", "ratio": "1/2", "translation": [0]}]}],
        "omega": {"prefix": [], "cycle": [1]},
        "task": {"type": "splice-demo", "epsilon": "1/2",
                 "tail": {"prefix": [], "cycle": [1]},
                 "seed_set": [[0], [1]], "gauge": {"type": "power", "s": 1},
                 "max_depth": 10_000, "output": "splice.csv"},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    res = run_cli("run", str(path), "--out", str(tmp_path / "out"),
                  timeout=20)
    assert limit_line(res) == (
        "rifslab: resource limit: splice-demo depth sweep of 50005000 "
        "levels exceeds budget 10000000")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_validate_catches_a_ladder_rung_that_rounds_to_zero(run_cli,
                                                            tmp_path,
                                                            command):
    path = patched_corpus(tmp_path, "cookie-boxdim",
                          ladder={"base": 2, "exponents": [2, 10 ** 400]})
    extra = ("--out", str(tmp_path)) if command == "run" else ()
    res = run_cli(command, path, *extra, timeout=20)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.rstrip().endswith(
        ".ladder.exponents[1]: base ** -exponent rounds to 0")


def interval_doc(maps, task):
    """A config on [0, 1] of one system of similarity maps."""
    return {"version": 1, "ambient": {"lo": [0], "hi": [1]},
            "systems": [{"maps": [{"kind": "similarity", "ratio": r,
                                   "translation": [t]} for r, t in maps]}],
            "omega": {"cycle": [1]}, "task": task}


_CANTOR = (("1/3", 0), ("1/3", "2/3"))


def carpet_doc(m, n):
    """A config of one carpet system on the unit square, task dim."""
    return {"version": 1, "ambient": {"lo": [0, 0], "hi": [1, 1]},
            "systems": [{"carpet": {"m": m, "n": n, "cells": [[0, 0]]}}],
            "omega": {"cycle": [1]}, "task": {"type": "dim"}}


@pytest.mark.parametrize("doc, refusal", [
    ({"version": 1, "ambient": {"lo": [0, 0], "hi": [1, 1]},
      "systems": [{"maps": [{"kind": "affine2",
                             "matrix": [[0.5, 0], [0, 0.25]],
                             "translation": [0, 0]}]}],
      "omega": {"cycle": [1]}, "task": {"type": "dim"}},
     ".task: dim task needs all-similarity or all-carpet systems"),
    (interval_doc(_CANTOR, {"type": "measure-bounds", "s": 0.5,
                            "radii": ["1/9"], "points": [[0]],
                            "exponents": [-1]}),
     ".task.exponents: exponents must be finite and >= 0"),
    (interval_doc(_CANTOR, {"type": "measure-bounds", "s": 2000,
                            "radii": [1e-200], "points": [[0]]}),
     ".task.radii[0]: radius 1e-200 to the power s = 2000.0 is not a "
     "positive finite float"),
    (interval_doc(_CANTOR, {"type": "boxdim", "ladder": {
        "base": 1.001, "exponents": [744600, 744700]}}),
     ".task.ladder.exponents: deltas must be strictly decreasing"),
    (interval_doc(_CANTOR, {"type": "boxdim", "ladder": {
        "base": 3, "exponents": [2, 3]}, "output": "same.csv",
        "summary": "same.csv"}),
     ".task.summary: must differ from output, neither inside the other"),
    (interval_doc(_CANTOR, {"type": "dim", "output": "a/"}),
     ".task.output: must be a relative file name"),
    (interval_doc(_CANTOR, {"type": "dim", "output": "a" * 300 + ".csv"}),
     ".task.output: each part must be at most 255 bytes in UTF-8"),
    (interval_doc(_CANTOR, {"type": "dim", "output": "\ud800.csv"}),
     ".task.output: must be valid Unicode"),
    (interval_doc(_CANTOR, {"type": "splice-demo", "epsilon": 0.5,
                            "tail": {"cycle": [1]}, "seed_set": [[0]],
                            "gauge": {"type": "power_log", "s": 0.001}}),
     ".task.gauge: power-log gauge exponent 0.001 is too small: the slope "
     "at its cap point e^(-2/s) overflows"),
    (carpet_doc(10 ** 400, 10 ** 400),
     ".systems[0].carpet: declared Lipschitz bounds (0.0, 0.0) must "
     "satisfy 0 < lo <= hi < 1"),
    (carpet_doc(2, 10 ** 400),
     ".systems[0].carpet: declared Lipschitz bounds (0.0, 0.5) must "
     "satisfy 0 < lo <= hi < 1"),
    (interval_doc(_CANTOR, {"type": "boxdim", "ladder": {
        "base": 2, "exponents": [1, 1073]}}),
     ".task.ladder.exponents: ladder deltas must be > 0 once quartered"),
    (interval_doc(_CANTOR, {"type": "measure-bounds", "s": 0.01,
                            "radii": [5e-324], "points": [[0]]}),
     ".task.radii: must be non-empty and > 0 once quartered"),
    (interval_doc((("1/2", 0),), {"type": "boxdim", "ladder": {
        "base": 2, "exponents": [1, 64]}}),
     ".task.ladder.exponents: a grid of 18446744073709551616 cells "
     "overflows the int64 cell index"),
], ids=["dim-of-affine", "negative-exponent", "radius-power-underflow",
        "rungs-round-alike", "summary-is-output", "output-is-a-folder",
        "output-name-too-long", "output-lone-surrogate",
        "power-log-s-too-small", "carpet-huge-m", "carpet-huge-n",
        "rung-quarter-rounds-to-0", "radius-quarter-rounds-to-0",
        "grid-overflows-the-cell-index"])
def test_validate_refuses_what_run_refuses(doc, refusal, tmp_path, capsys):
    # each once passed validate, while run refused it with exit 1 (a
    # rung's or a radius's quarter, its cover's target error, rounding to 0
    # among them, and a grid too fine for the cell codes),
    # overwrote its table with the summary, exited 3 after the walk, or
    # raised UnicodeEncodeError writing the file; or it ended both with a
    # traceback (ZeroDivisionError in the gauge, OverflowError at 1.0 / m
    # in carpet_system)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rifslab: invalid config: ")
    assert err.rstrip().endswith(refusal)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("maps, refusal", [
    ((("1e-999999999", 0),), ".maps[0]: declared Lipschitz bounds "
                             "(0.0, 0.0) must satisfy 0 < lo <= hi < 1"),
    ((("1e+999999999", 0),), ".maps[0].ratio: must be finite"),
    ((("1/3", "-1e-999999999"),), None),
], ids=["ratio-rounds-to-0", "ratio-overflows", "translation-rounds-to-0"])
def test_huge_decimal_exponents_parse_at_once(run_cli, tmp_path, maps,
                                              refusal):
    # Fraction built 10**exponent, which took 10 s at an exponent of 10**7
    # and about 27 times longer for each further digit
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(interval_doc(maps, {"type": "dim"})))
    res = run_cli("validate", str(path), timeout=10)
    assert res.returncode == (0 if refusal is None else 1), res.stderr
    assert res.stderr.rstrip().endswith(refusal or "")


def test_malformed_budget_env(run_cli, tmp_path):
    res = run_cli("run", corpus_path("cantor"), "--out", str(tmp_path),
                  env_extra={"RIFSLAB_BUDGET": "abc"})
    assert res.returncode == 1
    assert "RIFSLAB_BUDGET" in res.stderr


def test_missing_config_exits_one(run_cli, tmp_path):
    res = run_cli("run", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert res.returncode == 1
    assert "invalid config" in res.stderr


def test_out_colliding_with_file_is_io_failure(run_cli, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    res = run_cli("run", corpus_path("cantor"), "--out", str(blocker))
    assert res.returncode == 3
    assert "i/o failure" in res.stderr


def test_no_arguments_is_usage_error(run_cli):
    res = run_cli()
    assert res.returncode == 1


def test_unknown_corpus_subcommand(run_cli):
    res = run_cli("corpus", "show")
    assert res.returncode == 1


def test_memory_error_exits_with_resource_limit(monkeypatch, tmp_path,
                                                 capsys):
    def exhausted(cfg, budget):
        raise MemoryError("Unable to allocate 2.51 GiB for an array")

    monkeypatch.setitem(tasks.TASKS, "dim",
                        replace(tasks.TASKS["dim"], handler=exhausted))
    assert cli.main(["run", corpus_path("cantor"), "--out",
                     str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == ("rifslab: resource limit: out of memory: "
                       "Unable to allocate 2.51 GiB for an array")
    assert not any("Traceback" in line for line in err)


def test_module_launcher_freezes_the_heap_before_exit():
    # the atexit hook is registered before the CLI runs, so it runs last
    code = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("freeze count", gc.get_freeze_count()))
sys.argv = ["rifslab", "corpus", "list"]
runpy.run_module("rifslab", run_name="__main__", alter_sys=True)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "cantor" in res.stdout
    last = res.stdout.splitlines()[-1]
    assert last.startswith("freeze count ")
    assert int(last.split()[-1]) > 0


def test_main_in_process_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["corpus", "list"]) == 0
    assert "cantor" in capsys.readouterr().out
    assert gc.get_freeze_count() == before


def test_console_script_takes_the_entry():
    tomllib = pytest.importorskip("tomllib")    # 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert meta["project"]["scripts"]["rifslab"] == "rifslab.cli:entry"
