"""Span recording for the traced benchmark run.

`install()` imports rifslab inside an "import" span, then replaces every
function named in TARGETS with a wrapper that records a span around each
call.  The wrapper is put into every rifslab namespace that holds the
function (for example `tasks.estimate_box_dims` and
`boxcount.cylinder_cover`), because a wrapper on the defining module alone
misses calls made through names imported elsewhere.  Spans stay in memory
and are written as one JSON document when the process ends.

Run as a script, it executes the rifslab CLI under tracing:

    python3 benchmarks/tracer.py SPANS.json RUN_ID run CONFIG --out DIR
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict


def _bytes_out(args, result):
    return {"bytes_out": sum(os.path.getsize(p) for p in result)}


def _ball_tests(args, result):
    # points x radii x cylinders of the cover the report was computed on
    cm = args[0]
    cylinders = 1
    for level in range(1, result.depth + 1):
        cylinders *= len(cm.rifs.system_for_level(cm.omega, level).maps)
    return {"ball_tests": len(result.rows) * cylinders}


# (module, function, counter): counter(args, result) returns the counts
# recorded on the call's span.
TARGETS = (
    ("config", "load_config", None),
    ("tasks", "run", _bytes_out),
    ("render", "render_ppm", lambda a, r: {"points": len(a[0])}),
    ("dimension", "similarity_dimension", None),
    ("dimension", "randomized_similarity_dimension", None),
    ("dimension", "random_carpet_dimension", None),
    ("dimension", "carpet_dimension_curve", None),
    ("dimension", "minimize_carpet_dimension", None),
    ("dimension", "bedford_mcmullen_dimension", None),
    ("model", "cylinder_cover", lambda a, r: {"cylinders": r.count}),
    ("model", "cylinder_images", lambda a, r: {"points": r.shape[0]}),
    ("model", "hausdorff_distance",
     lambda a, r: {"points_in": len(a[0]) + len(a[1])}),
    ("model", "continuity_probe", None),
    ("boxcount", "count_boxes",
     lambda a, r: {"boxes_in": len(a[0]), "cells_out": r}),
    ("boxcount", "estimate_box_dims", lambda a, r: {"rungs": len(a[2])}),
    ("measure", "mdp_bounds", _ball_tests),
    ("measure", "level_masses", None),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Spans of one process: name, start, end, parent index, run id, the
    peak-RSS high-water mark at both ends, and call counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name, "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "rss0": _maxrss_kb(), "start": time.perf_counter()})
        self._stack.append(index)
        return index

    def end(self, index: int) -> dict:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss1"] = _maxrss_kb()
        self._stack.pop()
        return span

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if counter is not None:
                span["counts"] = counter(args, result)
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(run_id: str) -> Recorder:
    """Import rifslab under an "import" span and wrap every TARGETS entry."""
    rec = Recorder(run_id)
    index = rec.begin("import")
    import rifslab  # noqa: F401  (timed: interpreter-side set-up)
    rec.end(index)
    namespaces = [m for n, m in sys.modules.items()
                  if n == "rifslab" or n.startswith("rifslab.")]
    for module, attr, counter in TARGETS:
        original = getattr(sys.modules[f"rifslab.{module}"], attr)
        traced = rec.wrap(f"{module}.{attr}", original, counter)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, traced)
    return rec


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Per span name: self time, self peak-RSS growth, calls and counters.

    Self values are the span's own minus those of its direct children, so
    the self times of all spans sum to the root spans' durations.  Each
    parent also gets a `<name>><child name>` count of its direct children.
    """
    kids: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            kids[span["parent"]].append(span)
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        name = span["name"]
        children = kids[index]
        totals[f"{name}.self_s"] += (span["end"] - span["start"]) - sum(
            c["end"] - c["start"] for c in children)
        totals[f"{name}.rss_grow_mb"] += ((span["rss1"] - span["rss0"]) - sum(
            c["rss1"] - c["rss0"] for c in children)) / 1024.0
        totals[f"{name}.calls"] += 1
        for key, value in span.get("counts", {}).items():
            totals[f"{name}.{key}"] += value
        for child in children:
            totals[f"{name}>{child['name']}"] += 1
    return dict(totals)


def root_seconds(spans: list[dict]) -> float:
    """Time covered by top-level spans."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def _main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    rec = install(run_id)
    from rifslab import cli
    try:
        return cli.main(cli_args)
    finally:
        rec.write(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
