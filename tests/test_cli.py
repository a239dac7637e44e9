import json
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
