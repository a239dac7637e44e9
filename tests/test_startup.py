"""What a fresh process loads: `import rifslab` runs `errors` alone, a
config runs only the modules its task needs and every one of them before
numpy, building a config and the closed-formula tasks leave numpy
unimported, `import rifslab.cli` and `rifslab validate` of every corpus
config leave `dataclasses` and `inspect` unimported, and the benchmark
tracer's targets resolve right after `import rifslab`."""

import hashlib
import json
from pathlib import Path

import pytest

from rifslab import corpus_names, corpus_path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "benchmarks" / "expected.json"

# a config whose building touches every numpy-free path of the config
# layer: carpets (Similarity and diagonal Affine2), a rotated and reflected
# similarity, a shear with a negative entry, and a table gauge
_MIXED = {
    "version": 1,
    "ambient": {"lo": [0, 0], "hi": [1, 1]},
    "systems": [
        {"carpet": {"m": 2, "n": 4, "cells": [[0, 0], [1, 3]]}},
        {"maps": [
            {"kind": "similarity", "ratio": "1/2",
             "translation": [0.5, 0.5],
             "rotation_deg": 90, "reflect": True},
            {"kind": "affine2", "matrix": [["1/3", "-1/6"], [0, "1/3"]],
             "translation": ["1/6", 0]}]}],
    "omega": {"cycle": [1, 2]},
    "task": {"type": "splice-demo", "epsilon": "1/4",
             "tail": {"cycle": [2]}, "seed_set": [[0, 0]],
             "gauge": {"type": "table",
                       "knots": [["1/8", "1/16"], ["1/2", "1/4"]]}},
}


# a carpet system with the dim task: its formula needs no walk
_CARPET_DIM = {
    "version": 1,
    "ambient": {"lo": [0, 0], "hi": [1, 1]},
    "systems": [{"carpet": {"m": 2, "n": 3, "cells": [[0, 0], [1, 2]]}}],
    "omega": {"cycle": [1]},
    "task": {"type": "dim"},
}


def _executed(run_isolated, body):
    """The rifslab modules and numpy, in the order their source ran in a
    fresh interpreter that runs `body`."""
    code = f"""
import json
from importlib.machinery import SourceFileLoader
ran = []
exec_module = SourceFileLoader.exec_module
def recording(self, module):
    ran.append(module.__name__)
    return exec_module(self, module)
SourceFileLoader.exec_module = recording
{body}
print(json.dumps(ran))
"""
    done = run_isolated(code, timeout=60)
    assert done.returncode == 0, done.stderr
    return [name for name in json.loads(done.stdout.splitlines()[-1])
            if name == "numpy" or name.split(".")[0] == "rifslab"]


def test_import_runs_errors_alone(run_isolated):
    assert _executed(run_isolated, "import rifslab") \
        == ["rifslab", "rifslab.errors"]


def test_carpet_dim_config_skips_the_walk_modules(run_isolated, tmp_path):
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(_CARPET_DIM), encoding="utf-8")
    ran = _executed(run_isolated,
                    f"import rifslab\nrifslab.load_config({str(path)!r})")
    assert "rifslab.tasks" in ran
    for name in ("boxcount", "measure", "render", "corpus"):
        assert f"rifslab.{name}" not in ran


@pytest.mark.parametrize("name", corpus_names())
def test_run_loads_every_module_before_numpy(name, run_isolated, tmp_path):
    # a module compiled after numpy leaves about 1 MB more on the heap;
    # building a config reads no numpy, and each task handler reads its
    # modules before its first array
    argv = ["run", corpus_path(name), "--out", str(tmp_path)]
    ran = _executed(run_isolated, f"""
from rifslab import cli
assert cli.main({argv!r}) == 0
""")
    assert "rifslab.tasks" in ran
    if "numpy" in ran:
        assert ran[ran.index("numpy"):] == ["numpy"], ran


def _run_main(run_isolated, argv):
    """`cli.main(argv)` in a fresh interpreter: its exit code and whether
    numpy was imported."""
    code = f"""
import sys
from rifslab import cli
code = cli.main({argv!r})
print(code, "numpy" in sys.modules)
"""
    done = run_isolated(code, timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.split()[-2:]
    return int(code), loaded == "True"


@pytest.mark.parametrize("path", [
    corpus_path("carpet-packing"), "mixed", corpus_path("cookie-boxdim"),
    corpus_path("pictorial-a"), corpus_path("pictorial-b")],
    ids=["carpet", "mixed", "cookie-boxdim", "pictorial-a", "pictorial-b"])
def test_validate_leaves_numpy_unloaded(path, run_isolated, tmp_path):
    # the last three hold closed-form maps, whose containment is checked
    # in Python floats
    if path == "mixed":
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(_MIXED), encoding="utf-8")
    assert _run_main(run_isolated, ["validate", str(path)]) == (0, False)


def test_validate_leaves_dataclasses_and_inspect_unloaded(run_isolated):
    # records build their dataclass metadata on its first read, and
    # `import dataclasses` loads inspect, ast, dis and tokenize
    code = f"""
import json
import sys
from rifslab import cli
def loaded():
    return [n for n in ("dataclasses", "inspect") if n in sys.modules]
steps = [["import rifslab.cli", loaded()]]
for path in {[corpus_path(name) for name in corpus_names()]!r}:
    assert cli.main(["validate", path]) == 0, path
    steps.append([path, loaded()])
print(json.dumps(steps))
"""
    done = run_isolated(code, timeout=60)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    assert len(steps) == len(corpus_names()) + 1
    assert [step for step in steps if step[1]] == []


@pytest.mark.parametrize("name", ["cantor", "carpet-curve",
                                  "carpet-minimize"])
def test_formula_runs_leave_numpy_unloaded(name, run_isolated, tmp_path):
    # and write the corpus outputs byte for byte
    config = Path(corpus_path(name))
    out = tmp_path / "out"
    assert _run_main(run_isolated,
                     ["run", str(config), "--out", str(out)]) == (0, False)
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))["corpus"]
    want = {key.split("/", 1)[1]: digest for key, digest in recorded.items()
            if key.split("/")[0] == config.stem}
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert want and got == want


def test_tracer_targets_resolve_after_import_without_numpy(run_isolated):
    # benchmarks/tracer.py looks every target up in sys.modules right after
    # `import rifslab`, so the package puts its lazy submodules there; the
    # look-up runs each one's code
    code = f"""
import sys
import rifslab
assert "numpy" not in sys.modules, "import rifslab loaded numpy"
sys.path.insert(0, {str(ROOT / "benchmarks")!r})
from tracer import TARGETS
for module, attr, _ in TARGETS:
    assert callable(getattr(sys.modules["rifslab." + module], attr))
print(len(TARGETS))
"""
    done = run_isolated(code, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) >= 10
