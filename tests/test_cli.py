from dataclasses import replace

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
