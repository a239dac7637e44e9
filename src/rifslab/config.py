"""Strict JSON experiment configs.

One UTF-8 JSON document per experiment, "version": 1, unknown fields
rejected.  Real-valued fields accept plain numbers, fraction strings like
"1/3", and log-ratio strings like "log(2)/log(3)" so irrational constants
round-trip exactly.  Three failure kinds stay distinct: parse (broken JSON),
schema (wrong shape or type), semantic (well-shaped but invalid values).
Every diagnostic names the offending field path.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from ._record import Record, record
from .dimension import CarpetSpec, check_weights
from .errors import (ConfigParseError, ConfigSchemaError, ConfigSemanticError,
                     UsageError)
from .geometry import (Affine2, AmbientBox, ClosedFormMap, ContractionMap,
                       Similarity)
from .measure import Gauge, PowerGauge, PowerLogGauge, TableGauge
from .model import DeterministicIfs, Rifs, carpet_system
from .sequences import OmegaSeq

_LOG_RATIO = re.compile(r"^log\((\d+)\)/log\((\d+)\)$")

@record
class TaskSpec(Record):
    """Validated task request: a type tag plus normalized parameters."""

    type: str
    params: dict


@record
class ExperimentConfig(Record):
    """A parsed and validated experiment config.

    `version` is the schema version (always 1), `description` the config's
    free text, `ambient` the box every map must keep, `systems` the IFSs in
    config order (omega's index i is `systems[i - 1]`), `carpets` per
    system its grid carpet, or None for a system of explicit maps, `omega`
    the index sequence, `seed` the random seed (>= 0), `task` the task and
    its parsed fields, and `rifs` the systems on the ambient box, each map
    checked to keep the box.  Nothing here is computed, so nothing is
    certified beyond the parsing and those checks.
    """

    version: int
    description: str
    ambient: AmbientBox
    systems: tuple[DeterministicIfs, ...]
    carpets: tuple[CarpetSpec | None, ...]
    omega: OmegaSeq
    seed: int
    task: TaskSpec
    rifs: Rifs

    @property
    def outputs(self) -> tuple[str, ...]:
        names = [self.task.params["output"]]
        if "summary" in self.task.params:
            names.append(self.task.params["summary"])
        return tuple(names)


# --- low-level field helpers -------------------------------------------------


def _schema(path: str, msg: str) -> ConfigSchemaError:
    return ConfigSchemaError(f"{path}: {msg}")


def _semantic(path: str, msg: str) -> ConfigSemanticError:
    return ConfigSemanticError(f"{path}: {msg}")


def _check_keys(obj, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise _schema(path, "must be an object")
    for key in required:
        if key not in obj:
            raise _schema(path, f"missing required field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise _schema(f"{path}.{key}", "unknown field")


def _int_field(val, path: str, minimum: int | None = None) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise _schema(path, "must be an integer")
    if minimum is not None and val < minimum:
        raise _semantic(path, f"must be >= {minimum}")
    return val


def _str_field(val, path: str) -> str:
    if not isinstance(val, str):
        raise _schema(path, "must be a string")
    return val


def _real(val, path: str) -> float:
    try:
        x = _parse_real(val, path)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise _semantic(path, "must be finite")
    return x


def _parse_real(val, path: str) -> float:
    if isinstance(val, bool):
        raise _schema(path, "must be a number")
    if isinstance(val, (int, float)):
        return float(val)
    if isinstance(val, str):
        m = _LOG_RATIO.match(val.strip())
        if m:
            try:
                a, b = int(m.group(1)), int(m.group(2))
            except ValueError:             # over Python's int-string limit
                raise _schema(path, "log-ratio argument has too many "
                                    "digits") from None
            if a < 1 or b <= 1:
                raise _semantic(path, "log-ratio arguments out of range")
            return math.log(a) / math.log(b)
        try:
            return float(Fraction(val.strip()))
        except (ValueError, ZeroDivisionError):
            raise _schema(
                path, "must be a number, a fraction like \"1/3\", or "
                      "\"log(a)/log(b)\"") from None
    raise _schema(path, "must be a number")


def _real_list(val, path: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(val, list):
        raise _schema(path, "must be an array")
    out = tuple(_real(v, f"{path}[{i}]") for i, v in enumerate(val))
    if length is not None and len(out) != length:
        raise _schema(path, f"must have exactly {length} entries")
    return out


def _output_name(val, path: str) -> str:
    name = _str_field(val, path)
    if not name or name.startswith("/") or ".." in name or "\x00" in name:
        raise _semantic(path, "must be a relative file name")
    return name


def _positive(val, path: str) -> float:
    x = _real(val, path)
    if x <= 0.0:
        raise _semantic(path, "must be > 0")
    return x


def _weights(obj, path: str, n: int) -> tuple[float, ...]:
    """The optional `weights` field of obj: one per system, uniform if absent."""
    path = f"{path}.weights"
    w = _real_list(obj.get("weights", [1.0 / n] * n), path)
    try:
        return check_weights(w, n)
    except UsageError as exc:
        raise _semantic(path, str(exc)) from exc


# --- geometry pieces ---------------------------------------------------------


def _parse_ambient(obj, path: str) -> AmbientBox:
    _check_keys(obj, path, ("lo", "hi"))
    lo = _real_list(obj["lo"], f"{path}.lo")
    hi = _real_list(obj["hi"], f"{path}.hi")
    if len(lo) != len(hi):
        raise _schema(path, "lo and hi must have equal length")
    if len(lo) not in (1, 2):
        raise _semantic(path, "ambient dimension must be 1 or 2")
    try:
        return AmbientBox(lo, hi)
    except UsageError as exc:
        raise _semantic(path, str(exc)) from exc


def _parse_map(obj, path: str, dim: int) -> ContractionMap:
    if not isinstance(obj, dict):
        raise _schema(path, "must be an object")
    kind = _str_field(obj.get("kind"), f"{path}.kind") if "kind" in obj else None
    if kind is None:
        raise _schema(path, "missing required field 'kind'")
    try:
        if kind == "similarity":
            _check_keys(obj, path, ("kind", "ratio", "translation"),
                        ("rotation_deg", "reflect"))
            reflect = obj.get("reflect", False)
            if not isinstance(reflect, bool):
                raise _schema(f"{path}.reflect", "must be true or false")
            return Similarity(
                _real(obj["ratio"], f"{path}.ratio"),
                _real_list(obj["translation"], f"{path}.translation", dim),
                rotation_deg=_real(obj.get("rotation_deg", 0.0),
                                   f"{path}.rotation_deg"),
                reflect=reflect)
        if kind == "affine2":
            _check_keys(obj, path, ("kind", "matrix", "translation"))
            mat = obj["matrix"]
            if not isinstance(mat, list) or len(mat) != 2:
                raise _schema(f"{path}.matrix", "must be a 2x2 array")
            rows = tuple(_real_list(r, f"{path}.matrix[{i}]", 2)
                         for i, r in enumerate(mat))
            if dim != 2:
                raise _semantic(path, "affine2 maps need a 2-D ambient")
            return Affine2(rows, _real_list(obj["translation"],
                                            f"{path}.translation", 2))
        if kind == "closed_form":
            _check_keys(obj, path, ("kind", "name"))
            return ClosedFormMap(_str_field(obj["name"], f"{path}.name"))
    except UsageError as exc:
        raise _semantic(path, str(exc)) from exc
    raise _semantic(f"{path}.kind", f"unknown map kind {kind!r}")


def _parse_system(obj, path: str, index: int, dim: int,
                  ) -> tuple[DeterministicIfs, CarpetSpec | None]:
    if not isinstance(obj, dict):
        raise _schema(path, "must be an object")
    label = obj.get("label", f"system_{index + 1}")
    if not isinstance(label, str) or not label:
        raise _schema(f"{path}.label", "must be a non-empty string")
    has_maps = "maps" in obj
    has_carpet = "carpet" in obj
    if has_maps == has_carpet:
        raise _schema(path, "needs exactly one of 'maps' or 'carpet'")
    if has_carpet:
        _check_keys(obj, path, ("carpet",), ("label",))
        cpath = f"{path}.carpet"
        spec = obj["carpet"]
        _check_keys(spec, cpath, ("m", "n", "cells"))
        cells_raw = spec["cells"]
        if not isinstance(cells_raw, list):
            raise _schema(f"{cpath}.cells", "must be an array")
        cells = []
        for i, cell in enumerate(cells_raw):
            pair = _real_list(cell, f"{cpath}.cells[{i}]", 2)
            if any(v != int(v) for v in pair):
                raise _schema(f"{cpath}.cells[{i}]", "entries must be integers")
            cells.append((int(pair[0]), int(pair[1])))
        if dim != 2:
            raise _semantic(cpath, "carpet systems need a 2-D ambient")
        try:
            carpet = CarpetSpec(_int_field(spec["m"], f"{cpath}.m"),
                                _int_field(spec["n"], f"{cpath}.n"),
                                tuple(cells))
            return carpet_system(carpet, label), carpet
        except UsageError as exc:
            raise _semantic(cpath, str(exc)) from exc
    _check_keys(obj, path, ("maps",), ("label",))
    maps_raw = obj["maps"]
    if not isinstance(maps_raw, list) or not maps_raw:
        raise _schema(f"{path}.maps", "must be a non-empty array")
    maps = tuple(_parse_map(m, f"{path}.maps[{i}]", dim)
                 for i, m in enumerate(maps_raw))
    try:
        return DeterministicIfs(maps, label), None
    except UsageError as exc:
        raise _semantic(path, str(exc)) from exc


def _parse_omega(obj, path: str, n_systems: int) -> OmegaSeq:
    _check_keys(obj, path, ("cycle",), ("prefix",))
    prefix_raw = obj.get("prefix", [])
    if not isinstance(prefix_raw, list):
        raise _schema(f"{path}.prefix", "must be an array")
    cycle_raw = obj["cycle"]
    if not isinstance(cycle_raw, list):
        raise _schema(f"{path}.cycle", "must be an array")
    if not cycle_raw:
        raise _schema(f"{path}.cycle", "cycle must be non-empty")
    prefix = tuple(_int_field(v, f"{path}.prefix[{i}]")
                   for i, v in enumerate(prefix_raw))
    cycle = tuple(_int_field(v, f"{path}.cycle[{i}]")
                  for i, v in enumerate(cycle_raw))
    for i, v in enumerate(prefix + cycle):
        if v < 1:
            raise _semantic(path, "sequence symbols are 1-based")
        if v > n_systems:
            raise _semantic(path, f"symbol {v} references a missing system")
    return OmegaSeq(prefix, cycle)


def _parse_gauge(obj, path: str) -> Gauge:
    if not isinstance(obj, dict):
        raise _schema(path, "must be an object")
    gtype = obj.get("type")
    try:
        if gtype == "power":
            _check_keys(obj, path, ("type", "s"))
            return PowerGauge(_real(obj["s"], f"{path}.s"))
        if gtype == "power_log":
            _check_keys(obj, path, ("type", "s"))
            return PowerLogGauge(_real(obj["s"], f"{path}.s"))
        if gtype == "table":
            _check_keys(obj, path, ("type", "knots"))
            knots = obj["knots"]
            if not isinstance(knots, list):
                raise _schema(f"{path}.knots", "must be an array")
            pairs = [_real_list(k, f"{path}.knots[{i}]", 2)
                     for i, k in enumerate(knots)]
            return TableGauge(pairs)
    except UsageError as exc:
        raise _semantic(path, str(exc)) from exc
    raise _schema(f"{path}.type",
                  "must be one of 'power', 'power_log', 'table'")


def _parse_points(val, path: str, dim: int) -> tuple[tuple[float, ...], ...]:
    if not isinstance(val, list) or not val:
        raise _schema(path, "must be a non-empty array of points")
    return tuple(_real_list(p, f"{path}[{i}]", dim)
                 for i, p in enumerate(val))


# --- task parsing ------------------------------------------------------------


def _parse_task(obj, path: str, n_systems: int, dim: int,
                all_carpets: bool) -> TaskSpec:
    # tasks imports this module for its field helpers, so the registry is
    # imported at call time
    from .tasks import TASKS

    if not isinstance(obj, dict):
        raise _schema(path, "must be an object")
    ttype = obj.get("type")
    if not isinstance(ttype, str):
        raise _schema(f"{path}.type", "must be a string")
    task = TASKS.get(ttype)
    if task is None:
        raise _semantic(f"{path}.type", f"unknown task type {ttype!r}")
    names = {"output": task.output}
    if task.summary is not None:
        names["summary"] = task.summary
    fields = {k: v for k, v in obj.items() if k != "type" and k not in names}
    params = task.parse(fields, path, n_systems, dim, all_carpets)
    for key, default in names.items():
        params[key] = _output_name(obj.get(key, default), f"{path}.{key}")
    return TaskSpec(ttype, params)


# --- entry point -------------------------------------------------------------


def parse_config(doc, source: str = "<config>") -> ExperimentConfig:
    """Validate an already-decoded JSON document."""
    _check_keys(doc, source, ("version", "ambient", "systems", "omega",
                              "task"), ("description", "seed"))
    version = _int_field(doc["version"], f"{source}.version")
    if version != 1:
        raise _schema(f"{source}.version", "only version 1 is supported")
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise _schema(f"{source}.description", "must be a string")
    seed = _int_field(doc.get("seed", 0), f"{source}.seed", minimum=0)

    ambient = _parse_ambient(doc["ambient"], f"{source}.ambient")
    systems_raw = doc["systems"]
    if not isinstance(systems_raw, list) or not systems_raw:
        raise _schema(f"{source}.systems", "must be a non-empty array")
    systems = []
    carpets = []
    for i, entry in enumerate(systems_raw):
        sys_, carpet = _parse_system(entry, f"{source}.systems[{i}]", i,
                                     ambient.dim)
        systems.append(sys_)
        carpets.append(carpet)

    omega = _parse_omega(doc["omega"], f"{source}.omega", len(systems))
    task = _parse_task(doc["task"], f"{source}.task", len(systems),
                       ambient.dim, all(c is not None for c in carpets))
    try:
        rifs = Rifs(tuple(systems), ambient)
    except UsageError as exc:
        raise _semantic(f"{source}.systems", str(exc)) from exc
    return ExperimentConfig(version, description, ambient, tuple(systems),
                            tuple(carpets), omega, seed, task, rifs)


def load_config(path) -> ExperimentConfig:
    """Load and fully validate a config file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"{path}: cannot read config: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: config is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:              # over Python's int-string limit
        raise ConfigParseError(f"{path}: number too long: {exc}") from exc
    return parse_config(doc, source=str(path))
