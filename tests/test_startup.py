"""What a fresh process loads: `import rifslab`, building a config and the
closed-formula tasks leave numpy unimported, and the benchmark tracer's
targets resolve right after `import rifslab`."""

import hashlib
import json
from pathlib import Path

import pytest

from rifslab import corpus_path

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


@pytest.mark.parametrize("path", [corpus_path("carpet-packing"), "mixed"],
                         ids=["carpet", "mixed"])
def test_validate_leaves_numpy_unloaded(path, run_isolated, tmp_path):
    if path == "mixed":
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(_MIXED), encoding="utf-8")
    assert _run_main(run_isolated, ["validate", str(path)]) == (0, False)


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
    # `import rifslab`, so every rifslab module still loads eagerly
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
