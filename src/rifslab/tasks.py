"""Task registry, execution and deterministic file emission.

Each task type is one `TASKS` entry: its default output names, a parser for
its config fields, and a handler that turns a validated config into
(filename, bytes) pairs.  run() writes them atomically (temp file + rename)
under the output directory.  Numbers are formatted with 12 significant
digits and LF line endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections.abc import Callable

from . import boxcount, measure, render
from ._lazy import np
from ._record import Record, record
from .config import (ExperimentConfig, _check_keys, _int_field, _parse_gauge,
                     _parse_omega, _parse_points, _positive, _real,
                     _real_list, _schema, _semantic, _semantic_at, _weights)
from .dimension import (carpet_dimension_curve, minimize_carpet_dimension,
                        random_carpet_dimension,
                        randomized_similarity_dimension)
from .errors import ResourceError, UsageError
from .model import (DEFAULT_BUDGET, BernoulliSampler, _chunks, _ExactSum,
                    _points, resolution_depth, sample_omega)
from .sequences import omega_distance, splice


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        raise UsageError("boolean has no CSV form")
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return format(float(v), ".12g")


def _csv(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _seq_text(seq) -> str:
    # space-separated to stay comma-free inside CSV cells
    return (" ".join(str(s) for s in seq.prefix) + "|"
            + " ".join(str(s) for s in seq.cycle))


def _charge(size: int, what: str, budget: int) -> None:
    """Refuse a size a run asks for above the budget, before anything of
    that size is allocated."""
    if size > budget:
        raise ResourceError(f"{what} exceeds budget {budget}", count=size)


def _dim_by_carpets(rifs) -> bool:
    """True when every system is a carpet (the dim task's carpet
    formula), False when every map is a similarity (its similarity
    formula); any other mix has no formula and raises UsageError."""
    if None not in rifs.carpets:
        return True
    if any(m.kind != "similarity" for s in rifs.systems for m in s.maps):
        raise UsageError("dim task needs all-similarity or all-carpet systems")
    return False


def _parse_dim(obj, path, rifs) -> dict:
    _check_keys(obj, path, (), ("weights",))
    with _semantic_at(path):
        _dim_by_carpets(rifs)
    return {"weights": _weights(obj, path, len(rifs.systems))}


def _task_dim(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    weights = params["weights"]
    if _dim_by_carpets(cfg.rifs):
        value = random_carpet_dimension(cfg.rifs.carpets, weights)
        equation, residual = "carpet_product_formula", 0.0
    else:
        rep = randomized_similarity_dimension(
            [[m.lip_hi for m in s.maps] for s in cfg.rifs.systems], weights)
        value, equation, residual = rep.value, rep.equation, rep.residual
    rows = [("dimension", value), ("equation", equation),
            ("residual", residual)]
    return [(params["output"], _csv(("name", "value"), rows))]


def _need_carpet_pair(path, ttype, rifs) -> None:
    if len(rifs.systems) != 2:
        raise _semantic(path, f"{ttype} task needs exactly 2 systems")
    if None in rifs.carpets:
        raise _semantic(path, f"{ttype} task needs carpet systems")


def _parse_curve(obj, path, rifs) -> dict:
    _need_carpet_pair(path, "curve", rifs)
    _check_keys(obj, path, (), ("grid",))
    return {"grid": _int_field(obj.get("grid", 101), f"{path}.grid",
                               minimum=2)}


def _task_curve(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    grid = params["grid"]
    _charge(grid, f"curve grid of {grid} points", budget)
    ps = [i / (grid - 1) for i in range(grid)]
    curve = carpet_dimension_curve(cfg.rifs.carpets,
                                   [(p, 1.0 - p) for p in ps])
    rows = [(w[0], value) for w, value in curve]
    return [(params["output"], _csv(("p", "dimension"), rows))]


def _parse_minimize(obj, path, rifs) -> dict:
    _need_carpet_pair(path, "minimize", rifs)
    _check_keys(obj, path, (), ("tol",))
    return {"tol": _positive(obj.get("tol", 1e-10), f"{path}.tol")}


def _task_minimize(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    p_star, value = minimize_carpet_dimension(cfg.rifs.carpets, params["tol"])
    rows = [("p_star", p_star), ("dimension", value), ("tol", params["tol"])]
    return [(params["output"], _csv(("name", "value"), rows))]


def _parse_boxdim(obj, path, rifs) -> dict:
    _check_keys(obj, path, ("ladder",))
    ladder = obj["ladder"]
    lpath = f"{path}.ladder"
    _check_keys(ladder, lpath, ("base", "exponents"))
    base = _real(ladder["base"], f"{lpath}.base")
    if base <= 1.0:
        raise _semantic(f"{lpath}.base", "must be > 1")
    exps = ladder["exponents"]
    if not isinstance(exps, list) or not exps:
        raise _schema(f"{lpath}.exponents", "must be a non-empty array")
    evals = [_int_field(e, f"{lpath}.exponents[{i}]", minimum=1)
             for i, e in enumerate(exps)]
    if any(b <= a for a, b in zip(evals, evals[1:])):
        raise _semantic(f"{lpath}.exponents", "must be strictly increasing")
    for i, e in enumerate(evals):
        # below 2^-1100 a rung rounds to 0; the first test keeps an e
        # beyond the float range out of the power
        if e > 1100 / math.log2(base) or base ** -e == 0.0:
            raise _semantic(f"{lpath}.exponents[{i}]",
                            "base ** -exponent rounds to 0")
    deltas = tuple(base ** -e for e in evals)
    with _semantic_at(f"{lpath}.exponents"):
        boxcount._check_ladder(deltas)  # rungs may round to one float
        boxcount._grid_shape(rifs.ambient, deltas[-1])  # the finest grid
    return {"deltas": deltas}


def _task_boxdim(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    table, est = boxcount.estimate_box_dims(cfg.rifs, cfg.omega,
                                            params["deltas"], budget)
    rows = [(delta, count, depth, exp)
            for (delta, count), depth, exp in zip(table.rows, est.depths,
                                                  est.exponents)]
    summary = [("lower_est", est.lower_est),
               ("upper_est", est.upper_est),
               ("slope", est.slope),
               ("window_start", est.window[0]),
               ("window_stop", est.window[1])]
    return [(params["output"],
             _csv(("delta", "count", "depth", "exponent"), rows)),
            (params["summary"], _csv(("name", "value"), summary))]


def _parse_measure_bounds(obj, path, rifs) -> dict:
    _check_keys(obj, path, ("s", "radii", "points"), ("exponents",))
    s = _positive(obj["s"], f"{path}.s")
    radii = _real_list(obj["radii"], f"{path}.radii")
    # a radius's quarter is its cover's target error
    if not radii or any(not r / 4.0 > 0.0 for r in radii):
        raise _semantic(f"{path}.radii",
                        "must be non-empty and > 0 once quartered")
    for i, r in enumerate(radii):
        with _semantic_at(f"{path}.radii[{i}]"):
            measure._scale(r, s)
    params = {"s": s, "radii": radii, "points": _parse_points(
        obj["points"], f"{path}.points", rifs.ambient.dim)}
    if "exponents" in obj:
        n, epath = len(rifs.systems), f"{path}.exponents"
        params["exponents"] = _real_list(obj["exponents"], epath, n)
        with _semantic_at(epath):
            measure._check_exponents(params["exponents"], n)
    return params


def _task_measure_bounds(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    exponents = tuple(params.get("exponents", ()))
    cm = measure.CylinderMeasure(cfg.rifs, cfg.omega, exponents)
    rep = measure.mdp_bounds(cm, params["s"], params["radii"],
                             params["points"], budget)
    coords = ("x",) if cfg.rifs.ambient.dim == 1 else ("x", "y")
    rows = [point + (r, outer, inner)
            for point, r, outer, inner in rep.rows]
    summary = [("s", rep.s), ("depth", rep.depth),
               ("lambda_sup", rep.lambda_sup),
               ("lambda_inf", rep.lambda_inf),
               ("h_lower", rep.h_lower), ("p_upper", rep.p_upper)]
    return [(params["output"],
             _csv(coords + ("radius", "outer_mass", "inner_mass"), rows)),
            (params["summary"], _csv(("name", "value"), summary))]


def _parse_render(obj, path, rifs) -> dict:
    _check_keys(obj, path, ("width", "height"),
                ("target_error", "depth", "foreground", "background"))
    params = {"width": _int_field(obj["width"], f"{path}.width", minimum=1),
              "height": _int_field(obj["height"], f"{path}.height",
                                   minimum=1)}
    if "depth" in obj:
        params["depth"] = _int_field(obj["depth"], f"{path}.depth", minimum=1)
    if "target_error" in obj:
        params["target_error"] = _positive(obj["target_error"],
                                           f"{path}.target_error")
    elif "depth" not in obj:
        raise _schema(path, "needs 'target_error' or 'depth'")
    for field in ("foreground", "background"):
        if field in obj:
            rgb = obj[field]
            if (not isinstance(rgb, list) or len(rgb) != 3 or
                    any(isinstance(v, bool) or not isinstance(v, int)
                        for v in rgb)):
                raise _schema(f"{path}.{field}",
                              "must be three integer channels")
            with _semantic_at(f"{path}.{field}"):
                params[field] = render._check_rgb(field, rgb)
    return params


def _task_render(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    width, height = params["width"], params["height"]
    _charge(width * height, f"canvas of {width}x{height} pixels", budget)
    # runs render's code before numpy's: a module compiled after numpy
    # leaves about 1 MB more on the heap
    colours = {k: params[k] for k in ("foreground", "background")
               if k in params}
    spec = render.RenderSpec(width, height, **colours)
    depth = params.get("depth") or resolution_depth(
        cfg.rifs, cfg.omega, params["target_error"], budget)
    center = np.asarray(cfg.rifs.ambient.center)[None, :]
    chunks = _chunks(*_points(cfg.rifs, cfg.omega, depth, center, budget))
    return [(params["output"],
             render._paint_ppm(chunks, spec, cfg.rifs.ambient))]


def _parse_splice_demo(obj, path, rifs) -> dict:
    _check_keys(obj, path, ("epsilon", "tail", "seed_set", "gauge"),
                ("max_depth",))
    eps = _real(obj["epsilon"], f"{path}.epsilon")
    if not (0.0 < eps <= 1.0):
        raise _semantic(f"{path}.epsilon", "must lie in (0, 1]")
    return {
        "epsilon": eps,
        "tail": _parse_omega(obj["tail"], f"{path}.tail", len(rifs.systems)),
        "seed_set": _parse_points(obj["seed_set"], f"{path}.seed_set",
                                  rifs.ambient.dim),
        "gauge": _parse_gauge(obj["gauge"], f"{path}.gauge"),
        "max_depth": _int_field(obj.get("max_depth", 10),
                                f"{path}.max_depth", minimum=1),
    }


def _task_splice_demo(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    # every depth d is walked from the root, d levels
    max_depth = params["max_depth"]
    levels = max_depth * (max_depth + 1) // 2
    _charge(levels, f"splice-demo depth sweep of {levels} levels", budget)
    eps = params["epsilon"]
    k = max(0, math.ceil(math.log2(1.0 / eps)))
    tail = params["tail"]
    gauge = params["gauge"]
    spliced = splice(cfg.omega, k, tail)
    d_om = omega_distance(cfg.omega, spliced)
    seeds = np.asarray(params["seed_set"], dtype=float)
    n_seeds = seeds.shape[0]
    spliced_text = _seq_text(spliced)
    rows = []
    for depth in range(1, max_depth + 1):
        # one chunk of points is held; its gauge values are summed exactly
        mass = _ExactSum()
        count = 0
        diam_max = 0.0
        for pts in _chunks(*_points(cfg.rifs, spliced, depth, seeds, budget)):
            blocks = pts.reshape(-1, n_seeds, pts.shape[1])
            count += len(blocks)
            d2 = np.zeros(len(blocks))
            for i in range(n_seeds):
                for j in range(i + 1, n_seeds):
                    pair = blocks[:, i, :] - blocks[:, j, :]
                    d2 = np.maximum(d2, (pair ** 2).sum(axis=1))
            diams = np.sqrt(d2)
            mass.push(gauge(diams))
            diam_max = max(diam_max, float(diams.max(initial=0.0)))
        rows.append((depth, count, diam_max, mass.total, k, d_om,
                     spliced_text))
    header = ("depth", "cylinder_count", "piece_diam_max", "cover_mass",
              "k", "d_omega", "spliced")
    return [(params["output"], _csv(header, rows))]


def _parse_sample(obj, path, rifs) -> dict:
    _check_keys(obj, path, ("horizon",), ("weights",))
    return {
        "horizon": _int_field(obj["horizon"], f"{path}.horizon", minimum=1),
        "weights": _weights(obj, path, len(rifs.systems)),
    }


def _task_sample(cfg: ExperimentConfig, budget: int):
    params = cfg.task.params
    horizon = params["horizon"]
    _charge(horizon, f"horizon of {horizon} symbols", budget)
    sampler = BernoulliSampler(tuple(params["weights"]), cfg.seed)
    seq = sample_omega(sampler, horizon)
    # one join over whole rows: _csv formats a value at a time, which at
    # 10^6 rows takes most of the run
    body = "\n".join(f"{i},{s}" for i, s in enumerate(seq.prefix, 1))
    return [(params["output"], f"index,symbol\n{body}\n".encode())]


@record
class Task(Record):
    """One task type; config parses its type, output and summary fields."""

    output: str                 # default output file name
    # (fields, path, rifs) -> params
    parse: Callable[..., dict]
    # (cfg, budget) -> [(file name, bytes), ...]
    handler: Callable[[ExperimentConfig, int], list[tuple[str, bytes]]]
    summary: str | None = None  # default summary file name, if written


TASKS = {
    "dim": Task("dim.csv", _parse_dim, _task_dim),
    "curve": Task("curve.csv", _parse_curve, _task_curve),
    "minimize": Task("minimize.csv", _parse_minimize, _task_minimize),
    "boxdim": Task("boxdim.csv", _parse_boxdim, _task_boxdim,
                   "boxdim_summary.csv"),
    "measure-bounds": Task("bounds.csv", _parse_measure_bounds,
                           _task_measure_bounds, "bounds_summary.csv"),
    "render": Task("render.ppm", _parse_render, _task_render),
    "splice-demo": Task("splice.csv", _parse_splice_demo, _task_splice_demo),
    "sample": Task("sample.csv", _parse_sample, _task_sample),
}


def _write_atomic(path: str, data: bytes | bytearray) -> None:
    # created as open() creates a file, so the umask sets its mode
    tmp = os.path.join(os.path.dirname(path),
                       f".rifslab-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(cfg: ExperimentConfig, out_dir: str = ".",
        budget: int = DEFAULT_BUDGET) -> list[str]:
    """Execute the config's task, write its outputs, return written paths."""
    handler = TASKS[cfg.task.type].handler
    label = cfg.description or cfg.task.type
    print(f"rifslab: running {label!r} (task {cfg.task.type}, "
          f"seed {cfg.seed}, budget {budget})", file=sys.stderr)
    outputs = handler(cfg, budget)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, data in outputs:
        path = os.path.join(out_dir, name)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        _write_atomic(path, data)
        print(f"rifslab: wrote {path} ({len(data)} bytes)", file=sys.stderr)
        written.append(path)
    return written
