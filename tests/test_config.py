import copy
import json
import math
import re

import pytest

from rifslab import (ConfigParseError, ConfigSchemaError, ConfigSemanticError,
                     cli, corpus_names, load_config, load_corpus,
                     parse_config)

BASE = {
    "version": 1,
    "ambient": {"lo": [0], "hi": [1]},
    "systems": [
        {"maps": [
            {"kind": "similarity", "ratio": "1/3", "translation": [0]},
            {"kind": "similarity", "ratio": "1/3", "translation": ["2/3"]},
        ]},
    ],
    "omega": {"cycle": [1]},
    "task": {"type": "dim"},
}


def doc(**patches):
    d = copy.deepcopy(BASE)
    d.update(copy.deepcopy(patches))
    return d


def test_minimal_document_parses():
    cfg = parse_config(doc())
    assert cfg.version == 1
    assert cfg.seed == 0
    assert cfg.description == ""
    assert len(cfg.systems) == 1
    assert cfg.task.params["output"] == "dim.csv"
    assert cfg.task.params["weights"] == (1.0,)
    assert cfg.outputs == ("dim.csv",)


def test_all_corpus_entries_parse():
    for name in corpus_names():
        cfg = load_corpus(name)
        assert cfg.version == 1


def test_version_gate():
    with pytest.raises(ConfigSchemaError, match="only version 1"):
        parse_config(doc(version=2))
    with pytest.raises(ConfigSchemaError):
        parse_config(doc(version="1"))


def test_unknown_field_reports_path():
    with pytest.raises(ConfigSchemaError, match=r"<config>\.extra"):
        parse_config(doc(extra=5))


def test_real_value_forms():
    cfg = parse_config(doc())
    ratio = cfg.systems[0].maps[0].ratio
    assert ratio == 1.0 / 3.0
    d = doc()
    d["task"] = {"type": "measure-bounds", "s": "log(2)/log(3)",
                 "radii": ["1/9"], "points": [[0]]}
    cfg = parse_config(d)
    assert cfg.task.params["s"] == math.log(2.0) / math.log(3.0)
    d["task"]["s"] = "nonsense"
    with pytest.raises(ConfigSchemaError, match="fraction"):
        parse_config(d)
    d["task"]["s"] = True
    with pytest.raises(ConfigSchemaError):
        parse_config(d)


def _finite_probe(field):
    """A valid document with the string "X" at one real field."""
    d = doc(task={"type": "measure-bounds", "s": 0.5, "radii": [0.1],
                  "points": [[0.5]]})
    if field == "ambient.hi[0]":
        d["ambient"]["hi"] = ["X"]
    elif field == "systems[0].maps[0].ratio":
        d["systems"][0]["maps"][0]["ratio"] = "X"
    else:
        d["task"]["points"] = [["X"]]
    return d


# Python's json accepts NaN, Infinity and numbers beyond the float range
@pytest.mark.parametrize("literal", [
    "NaN", "Infinity", "-Infinity", "1e999", "\"1e999\"",
    pytest.param("1" + "0" * 400, id="1e400-int")])
@pytest.mark.parametrize("field", ["ambient.hi[0]", "systems[0].maps[0].ratio",
                                   "task.points[0][0]"])
def test_real_fields_must_be_finite(tmp_path, literal, field):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(_finite_probe(field)).replace('"X"', literal))
    with pytest.raises(ConfigSemanticError,
                       match=re.escape(f".{field}: must be finite")):
        load_config(path)
    assert cli.main(["validate", str(path)]) == 1


def test_numbers_beyond_the_int_string_limit(tmp_path):
    # Python refuses int <-> str conversions above 4300 digits
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc(seed="X")).replace('"X"', "9" * 5000))
    with pytest.raises(ConfigParseError, match="number too long"):
        load_config(path)
    assert cli.main(["validate", str(path)]) == 1
    probe = _finite_probe("systems[0].maps[0].ratio")
    path.write_text(json.dumps(probe).replace(
        '"X"', '"log(' + "9" * 5000 + ')/log(3)"'))
    with pytest.raises(ConfigSchemaError, match=re.escape(
            ".systems[0].maps[0].ratio: log-ratio argument has too many")):
        load_config(path)
    assert cli.main(["validate", str(path)]) == 1


def test_ambient_checks():
    with pytest.raises(ConfigSemanticError, match="must be 1 or 2"):
        parse_config(doc(ambient={"lo": [0, 0, 0], "hi": [1, 1, 1]}))
    with pytest.raises(ConfigSchemaError, match="equal length"):
        parse_config(doc(ambient={"lo": [0], "hi": [1, 1]}))
    with pytest.raises(ConfigSemanticError):
        parse_config(doc(ambient={"lo": [1], "hi": [0]}))


def test_omega_checks():
    with pytest.raises(ConfigSchemaError, match="cycle must be non-empty"):
        parse_config(doc(omega={"cycle": []}))
    with pytest.raises(ConfigSemanticError, match="1-based"):
        parse_config(doc(omega={"cycle": [0]}))
    with pytest.raises(ConfigSemanticError, match="missing system"):
        parse_config(doc(omega={"cycle": [2]}))


def test_system_needs_maps_xor_carpet():
    d = doc()
    d["systems"][0]["carpet"] = {"m": 2, "n": 2, "cells": [[0, 0]]}
    with pytest.raises(ConfigSchemaError, match="exactly one of"):
        parse_config(d)
    with pytest.raises(ConfigSchemaError, match="exactly one of"):
        parse_config(doc(systems=[{"label": "empty"}]))


def test_carpet_needs_2d_ambient():
    d = doc(systems=[{"carpet": {"m": 2, "n": 2, "cells": [[0, 0]]}}])
    with pytest.raises(ConfigSemanticError, match="2-D ambient"):
        parse_config(d)


def test_affine2_needs_2d_ambient():
    d = doc(systems=[{"maps": [
        {"kind": "affine2", "matrix": [[0.5, 0], [0, 0.5]],
         "translation": [0, 0]}]}])
    with pytest.raises(ConfigSemanticError, match="2-D ambient"):
        parse_config(d)


def test_unknown_map_kind():
    d = doc()
    d["systems"][0]["maps"][0]["kind"] = "teleport"
    with pytest.raises(ConfigSemanticError, match="unknown map kind"):
        parse_config(d)


def test_map_leaving_ambient_is_semantic():
    d = doc()
    d["systems"][0]["maps"][1]["translation"] = ["5/2"]
    with pytest.raises(ConfigSemanticError, match="leaves the ambient box"):
        parse_config(d)


def test_weights_validation():
    d = doc()
    d["task"]["weights"] = [0.5, 0.6]
    with pytest.raises(ConfigSemanticError, match="one weight per system"):
        parse_config(d)
    d["systems"].append(copy.deepcopy(d["systems"][0]))
    with pytest.raises(ConfigSemanticError, match=r"weights sum 1\.1"):
        parse_config(d)
    d["task"]["weights"] = [-0.5, 1.5]
    with pytest.raises(ConfigSemanticError, match="non-negative"):
        parse_config(d)


def test_output_name_restrictions():
    for bad in ("/abs.csv", "a/../b.csv", ""):
        d = doc()
        d["task"]["output"] = bad
        with pytest.raises(ConfigSemanticError, match="relative file name"):
            parse_config(d)


def test_curve_task_prerequisites():
    carpet = {"carpet": {"m": 2, "n": 3,
                         "cells": [[0, 0], [0, 2], [1, 0], [1, 2]]}}
    d = doc(ambient={"lo": [0, 0], "hi": [1, 1]},
            systems=[copy.deepcopy(carpet), copy.deepcopy(carpet)],
            task={"type": "curve"})
    cfg = parse_config(d)
    assert cfg.task.params["grid"] == 101
    d["systems"].pop()
    with pytest.raises(ConfigSemanticError, match="exactly 2 systems"):
        parse_config(d)
    with pytest.raises(ConfigSemanticError, match="carpet systems"):
        parse_config(doc(systems=[BASE["systems"][0], BASE["systems"][0]],
                         task={"type": "minimize"}))


def test_boxdim_ladder_checks():
    d = doc(task={"type": "boxdim",
                  "ladder": {"base": 3, "exponents": [1, 2, 3]}})
    cfg = parse_config(d)
    assert cfg.task.params["deltas"] == (3.0 ** -1, 3.0 ** -2, 3.0 ** -3)
    d["task"]["ladder"]["base"] = 1
    with pytest.raises(ConfigSemanticError, match="must be > 1"):
        parse_config(d)
    d["task"]["ladder"] = {"base": 2, "exponents": [3, 2]}
    with pytest.raises(ConfigSemanticError, match="strictly increasing"):
        parse_config(d)


def test_boxdim_ladder_rungs_must_be_positive_floats():
    # 2^-1074 is the least positive float; a rung below it rounds to 0, and
    # 10^400 is beyond the float range before the power is taken
    d = doc(task={"type": "boxdim",
                  "ladder": {"base": 2, "exponents": [1, 1074]}})
    assert parse_config(d).task.params["deltas"] == (0.5, 2.0 ** -1074)
    for big in (1075, 2000, 10 ** 400):
        d["task"]["ladder"] = {"base": 2, "exponents": [1, big, big + 1]}
        with pytest.raises(ConfigSemanticError, match=re.escape(
                "task.ladder.exponents[1]: base ** -exponent rounds to 0")):
            parse_config(d)


def test_render_task_needs_a_stopping_rule():
    d = doc(task={"type": "render", "width": 8, "height": 8})
    with pytest.raises(ConfigSchemaError,
                       match="'target_error' or 'depth'"):
        parse_config(d)
    d["task"]["depth"] = 3
    cfg = parse_config(d)
    assert cfg.task.params["depth"] == 3
    d["task"]["target_error"] = -1
    with pytest.raises(ConfigSemanticError):
        parse_config(d)


def test_render_size_checked_at_parse_time():
    d = doc(task={"type": "render", "width": 0, "height": 8, "depth": 1})
    with pytest.raises(ConfigSemanticError, match=r"task\.width: must be >= 1"):
        parse_config(d)


def test_render_color_checks():
    d = doc(task={"type": "render", "width": 4, "height": 4, "depth": 1,
                  "foreground": [0, 0]})
    with pytest.raises(ConfigSchemaError, match="three integer channels"):
        parse_config(d)
    d["task"]["foreground"] = [0, 0, 300]
    with pytest.raises(ConfigSemanticError, match="0..255"):
        parse_config(d)


def test_splice_epsilon_bounds():
    base_task = {"type": "splice-demo", "epsilon": 1.5,
                 "tail": {"cycle": [1]}, "seed_set": [[0.5]],
                 "gauge": {"type": "power", "s": 1}}
    with pytest.raises(ConfigSemanticError, match=r"\(0, 1\]"):
        parse_config(doc(task=base_task))
    base_task["epsilon"] = "1/16"
    cfg = parse_config(doc(task=base_task))
    assert cfg.task.params["max_depth"] == 10
    assert cfg.task.params["epsilon"] == 1.0 / 16.0


def test_sample_task_checks():
    cfg = parse_config(doc(task={"type": "sample", "horizon": 5}))
    assert cfg.task.params["horizon"] == 5
    with pytest.raises(ConfigSemanticError):
        parse_config(doc(task={"type": "sample", "horizon": 0}))


def test_unknown_task_type():
    with pytest.raises(ConfigSemanticError, match="unknown task type"):
        parse_config(doc(task={"type": "frobnicate"}))


def test_gauge_parsing():
    base_task = {"type": "splice-demo", "epsilon": 0.5,
                 "tail": {"cycle": [1]}, "seed_set": [[0.5]],
                 "gauge": {"type": "table", "knots": [[0.5, 0.25]]}}
    cfg = parse_config(doc(task=base_task))
    assert cfg.task.params["gauge"].label == "table[1 knots]"
    base_task["gauge"] = {"type": "cubic"}
    with pytest.raises(ConfigSchemaError, match="power_log"):
        parse_config(doc(task=base_task))


def test_seed_validation():
    cfg = parse_config(doc(seed=7))
    assert cfg.seed == 7
    with pytest.raises(ConfigSemanticError):
        parse_config(doc(seed=-1))
    with pytest.raises(ConfigSchemaError):
        parse_config(doc(seed=True))


def test_load_config_file_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigParseError, match="cannot read config"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 1,,}")
    with pytest.raises(ConfigParseError, match="line 1"):
        load_config(bad)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigParseError, match="not UTF-8"):
        load_config(binary)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc()))
    cfg = load_config(path)
    assert cfg.rifs.ambient.dim == 1
