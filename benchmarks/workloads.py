"""Benchmark workloads: inputs generated from the seed, and output checks.

Every workload is a list of jobs, each one `rifslab run` or splice-probe
process.  Inputs are written into a work directory; the program
reads only those files.  The seed reorders the carpets' cells, the probe
points and the tails; it never changes how much work a job does, so runs
with different seeds measure the same work (Hausdorff cost alone varies
from 0.14 s to 5.2 s across tails of the same length, which is why the
tail set is fixed and only its order is drawn).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "rifslab" / "corpus"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

DEFAULT_SEED = 0

# The 13 bundled configs, fixed so a config added later does not change
# the workload.
CORPUS = ("cantor", "cantor_boxdim", "cantor_measure", "cantor_render",
          "carpet_curve", "carpet_minimize", "carpet_packing",
          "carpet_splice", "cookie_boxdim", "interval_boxdim",
          "pictorial_a", "pictorial_b", "sample_demo")

# 3x3 Sierpinski carpet alternating with three cells of a 2x3 grid.  The
# dyadic ladder is off the triadic lattice, so boxes straddle grid cells.
SIERPINSKI = [[c, r] for r in range(3) for c in range(3) if (c, r) != (1, 1)]
GRID_2X3 = [[0, 0], [1, 1], [0, 2]]
GRIDS = ((3, 3, SIERPINSKI), (2, 3, GRID_2X3))     # (m, n, cells)
CYCLE = [1, 2]
LADDER = list(range(1, 8))          # 2^-1 .. 2^-7, depths 3..8
RADII = ["1/8", "1/32", "1/128"]     # cover depth 8
N_POINTS = 16
SPLICE_K, SPLICE_DEPTH = 2, 6        # 13,824 points per approximation
# Every arrangement of two 1s and two 2s on levels 3..6: each spliced
# approximation keeps 13,824 points, above the 10k bucket cut-off.
TAILS = sorted(set(itertools.permutations([1, 1, 2, 2])))


@dataclass(frozen=True)
class Job:
    """One process of an iteration; `name` is also its output directory."""

    name: str
    config: str
    tails: str | None = None    # set for splice_probe.py


def _carpet_doc(rng: random.Random, task: dict) -> dict:
    systems = []
    for m, n, cells in GRIDS:
        order = [list(c) for c in cells]
        rng.shuffle(order)
        systems.append({"carpet": {"m": m, "n": n, "cells": order}})
    return {"version": 1, "description": "Sierpinski carpet / 2x3 grid mix",
            "ambient": {"lo": [0, 0], "hi": [1, 1]}, "systems": systems,
            "omega": {"cycle": CYCLE}, "task": task}


def _attractor_point(rng: random.Random, depth: int) -> list[str]:
    """Centre of a random depth-k cylinder box, as exact fractions."""
    levels = [GRIDS[CYCLE[i % len(CYCLE)] - 1] for i in range(depth)]
    cells = [rng.choice(cells) for _, _, cells in levels]
    x = y = Fraction(1, 2)
    for (m, n, _), (c, r) in zip(reversed(levels), reversed(cells)):
        x, y = (c + x) / m, (r + y) / n
    return [str(x), str(y)]


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def generate(workload: str, seed: int, dest: Path) -> list[Job]:
    """Write the workload's inputs for `seed` under `dest`; return its jobs."""
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if workload == "corpus":
        jobs = []
        for name in CORPUS:
            target = dest / f"{name}.json"
            shutil.copyfile(CORPUS_DIR / f"{name}.json", target)
            jobs.append(Job(name, str(target)))
        return jobs
    if workload == "carpet-boxdim":
        task = {"type": "boxdim", "ladder": {"base": 2, "exponents": LADDER}}
        return [Job("boxdim", _write_json(dest / "boxdim.json",
                                          _carpet_doc(rng, task)))]
    if workload == "carpet-measure":
        doc = _carpet_doc(rng, {})
        points = [_attractor_point(rng, 8) for _ in range(N_POINTS)]
        doc["task"] = {"type": "measure-bounds", "s": 1.5, "radii": RADII,
                       "points": points}
        return [Job("measure", _write_json(dest / "measure.json", doc))]
    if workload == "splice-probe":
        config = _write_json(dest / "probe.json",
                             _carpet_doc(rng, {"type": "dim"}))
        tails = [{"prefix": list(t), "cycle": CYCLE} for t in TAILS]
        rng.shuffle(tails)
        spec = {"k": SPLICE_K, "depth": SPLICE_DEPTH, "tails": tails}
        return [Job("probe", config, _write_json(dest / "tails.json", spec))]
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks -----------------------------------------------------------


def output_hashes(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under `out_dir`, keyed by relative path."""
    hashes = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            rel = path.relative_to(out_dir).as_posix()
            hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _boxdim_invariants(out: Path) -> list[str]:
    rows = _rows(out / "boxdim.csv")
    errors = []
    if len(rows) != len(LADDER):
        errors.append(f"boxdim.csv has {len(rows)} rungs, want {len(LADDER)}")
    counts = [int(r["count"]) for r in rows]
    depths = [int(r["depth"]) for r in rows]
    if any(b < a for a, b in zip(counts, counts[1:])):
        errors.append(f"box counts drop: {counts}")
    if any(d < 1 for d in depths):
        errors.append(f"depths not recorded: {depths}")
    summary = {r["name"]: float(r["value"])
               for r in _rows(out / "boxdim_summary.csv")}
    if not summary["lower_est"] <= summary["upper_est"]:
        errors.append("lower_est exceeds upper_est")
    return errors


def _measure_invariants(out: Path) -> list[str]:
    rows = _rows(out / "bounds.csv")
    errors = []
    if len(rows) != N_POINTS * len(RADII):
        errors.append(f"bounds.csv has {len(rows)} rows")
    for i, r in enumerate(rows):
        if not float(r["inner_mass"]) <= float(r["outer_mass"]):
            errors.append(f"bounds.csv row {i}: inner_mass > outer_mass")
    return errors


def _probe_invariants(out: Path) -> list[str]:
    rows = _rows(out / "probe.csv")
    errors = []
    if len(rows) != len(TAILS):
        errors.append(f"probe.csv has {len(rows)} rows, want {len(TAILS)}")
    for i, r in enumerate(rows):
        if not 0.0 <= float(r["d_hausdorff"]) <= float(r["bound"]):
            errors.append(f"probe.csv row {i}: d_hausdorff outside [0, bound]")
    return errors


_INVARIANTS = {"carpet-boxdim": _boxdim_invariants,
               "carpet-measure": _measure_invariants,
               "splice-probe": _probe_invariants}


def check_job(workload: str, job: Job, out: Path, seed: int,
              expected: dict) -> list[str]:
    """Problems with one job's outputs; empty when they are correct.

    Hashes recorded at the default seed are compared whenever the inputs are
    those of the recorded run (always for the corpus); the invariants hold on
    any seed.
    """
    errors = []
    if workload == "corpus" or seed == DEFAULT_SEED:
        prefix = f"{job.name}/"
        want = {k[len(prefix):]: v for k, v in expected[workload].items()
                if k.startswith(prefix)}
        got = output_hashes(out)
        if got != want:
            bad = sorted(k for k in want.keys() | got.keys()
                         if want.get(k) != got.get(k))
            errors.append(f"{job.name}: output hash mismatch: {bad}")
    if workload in _INVARIANTS:
        try:
            errors.extend(_INVARIANTS[workload](out))
        except (OSError, KeyError, ValueError) as exc:
            errors.append(f"{job.name}: unreadable output: {exc!r}")
    return errors
