"""rifslab benchmark: end-to-end and per-layer costs of the CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn.  Every process is a fresh single-threaded interpreter, run one at a
time from the checkout root against `src/`; the children get one BLAS and
OpenMP thread and no RIFSLAB_BUDGET, so the built-in budget applies.

A run repeats rounds until the next one would end after S seconds.  With
`--trace 0` a round times the workload's set-up once (`rifslab validate` of
its configs, or splice_probe.py up to `load_config` returning) and
then one iteration of all its jobs; the run reports medians of wall_s,
setup_s (both relative to a calibration run, see measure()) and
peak_rss_mb.  With `--trace 1` a round runs one traced and one
untraced iteration; the run reports the per-layer metrics from the spans
(see tracer.py), and trace.overhead_s, the traced minus the untraced median
wall time.  Every output is checked (workloads.py); a non-zero exit or a
failed check counts as a failed operation.  The last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from tracer import layer_totals, root_seconds
from workloads import ROOT, Job, check_job, generate, load_expected

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PY = sys.executable
# Wall time of calibrate.py on a 2-core Intel Xeon host at its usual speed;
# wall_s and setup_s are reported in seconds at this calibration time.
CALIBRATION_S = 0.25
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RIFSLAB_BUDGET", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "commit": commit}


def spawn(argv: list[str], log: Path, env: dict) -> tuple[float, float, int]:
    """Run one process to exit: wall seconds, peak RSS in MB, exit code."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_argv(job: Job, out: Path, spans: Path | None, run_id: str) -> list[str]:
    if job.tails is not None:
        argv = [PY, str(BENCH / "splice_probe.py"), job.config, job.tails,
                str(out / "probe.csv")]
        return argv + (["--trace", str(spans), run_id] if spans else [])
    cli = ["run", job.config, "--out", str(out)]
    if spans:
        return [PY, str(BENCH / "tracer.py"), str(spans), run_id] + cli
    return [PY, "-m", "rifslab"] + cli


def setup_argv(job: Job) -> list[str]:
    if job.tails is not None:
        return [PY, str(BENCH / "splice_probe.py"), job.config, job.tails,
                os.devnull, "--setup-only"]
    return [PY, "-m", "rifslab", "validate", job.config]


class Bench:
    """One workload's jobs, run one process at a time, with the count of
    attempted and failed operations."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.jobs = generate(workload, seed, work / "inputs")
        self.expected = load_expected()
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.raw: dict[str, float] = {}
        self._iterations = 0

    def calibrate(self) -> float:
        """Wall time of calibrate.py, the reference work of known cost."""
        wall, _, code = spawn([PY, str(BENCH / "calibrate.py")],
                              self.work / "calibrate.log", self.env)
        if code:
            raise RuntimeError(f"calibrate.py exited with code {code}")
        return wall

    def _record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append("; ".join(errors))

    def setup(self, jobs: list[Job] | None = None) -> float:
        """Summed wall time of the set-up processes of every job."""
        total = 0.0
        for job in self.jobs if jobs is None else jobs:
            wall, _, code = spawn(setup_argv(job), self.work / "setup.log",
                                  self.env)
            total += wall
            self._record([f"{job.name}: set-up exit code {code}"]
                         if code else [])
        return total

    def iteration(self, traced: bool) -> dict[str, float]:
        """Run every job once; wall_s, peak_rss_mb and, when traced, the
        summed layer totals plus unattributed_s."""
        self._iterations += 1
        run_id = f"{self.workload}-{self.seed}-{self._iterations}"
        base = self.work / f"iter{self._iterations}"
        result: dict[str, float] = defaultdict(float)
        for job in self.jobs:
            out = base / job.name
            out.mkdir(parents=True)
            spans = base / f"{job.name}.spans.json" if traced else None
            wall, rss, code = spawn(run_argv(job, out, spans, run_id),
                                    base / f"{job.name}.log", self.env)
            result["wall_s"] += wall
            result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
            if code:
                self._record([f"{job.name}: exit code {code}"])
                continue
            errors = check_job(self.workload, job, out, self.seed,
                               self.expected)
            if traced and not errors:
                try:
                    records = json.loads(spans.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    errors.append(f"{job.name}: no spans: {exc!r}")
                else:
                    for key, value in layer_totals(records).items():
                        result[key] += value
                    result["unattributed_s"] += wall - root_seconds(records)
            self._record(errors)
        shutil.rmtree(base)
        return dict(result)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics that are not a span total under their own name.
DERIVED = {
    "import_s": lambda t: t.get("import.self_s", 0.0),
    "dimension.self_s": lambda t: sum(
        v for k, v in t.items()
        if k.startswith("dimension.") and k.endswith(".self_s")),
    "boxcount.count_boxes.unique_ratio": lambda t: _ratio(
        t.get("boxcount.count_boxes.cells_out", 0.0),
        t.get("boxcount.count_boxes.boxes_in", 0.0)),
    "boxcount.estimate_box_dims.covers_per_rung": lambda t: _ratio(
        t.get("boxcount.estimate_box_dims>model.cylinder_cover", 0.0),
        t.get("boxcount.estimate_box_dims.rungs", 0.0)),
    "trace.unattributed_s": lambda t: t.get("unattributed_s", 0.0),
}


def _rounds(seconds: float):
    """Yield once per round until one more round, as long as the slowest so
    far, would end after `seconds` from now; keeps a run within its time."""
    deadline = time.perf_counter() + seconds
    slowest = 0.0
    while True:
        start = time.perf_counter()
        if slowest and start + slowest > deadline:
            return
        yield
        slowest = max(slowest, time.perf_counter() - start)


def measure(bench: Bench, seconds: float) -> dict[str, tuple[float, int]]:
    """End-to-end metrics: (median, sample count) per name.

    Each round runs calibrate.py, then the set-up once, then one iteration.
    The host's speed drifts by up to a third over minutes, so the two times
    are reported relative to the calibration run of the same round, in
    seconds at the calibration's reference time CALIBRATION_S.  The raw
    medians are kept on the bench and printed.
    """
    rounds = _rounds(seconds)
    bench.setup(bench.jobs[:1])  # warm-up: bytecode and page caches
    calibrations: list[float] = []
    setups: list[float] = []
    iterations: list[dict] = []
    for _ in rounds:
        calibrations.append(bench.calibrate())
        setups.append(bench.setup())
        iterations.append(bench.iteration(traced=False))
    n = len(iterations)
    walls = [i["wall_s"] for i in iterations]
    bench.raw = {"wall_s": statistics.median(walls),
                 "setup_s": statistics.median(setups),
                 "calibrate_s": statistics.median(calibrations)}

    def scaled(times: list[float]) -> float:
        return CALIBRATION_S * statistics.median(
            t / c for t, c in zip(times, calibrations))

    return {
        "wall_s": (scaled(walls), n),
        "setup_s": (scaled(setups), n),
        "peak_rss_mb": (statistics.median(i["peak_rss_mb"]
                                          for i in iterations), n),
    }


def measure_traced(bench: Bench, seconds: float) -> dict[str, tuple[float, int]]:
    """Per-layer metrics; each round runs one traced and one untraced
    iteration."""
    rounds = _rounds(seconds)
    bench.setup(bench.jobs[:1])  # warm-up
    traced: list[dict] = []
    plain: list[dict] = []
    for _ in rounds:
        traced.append(bench.iteration(traced=True))
        plain.append(bench.iteration(traced=False))
    n = len(traced)
    metrics = {}
    for entry in SPEC["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_s":
            continue
        get = DERIVED.get(name, lambda t, key=name: t.get(key, 0.0))
        metrics[name] = (statistics.median(get(t) for t in traced), n)
    overhead = (statistics.median(t["wall_s"] for t in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = (overhead, n)
    return metrics


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def report(workload: str, metrics: dict[str, tuple[float, int]],
           bench: Bench, units: dict[str, str]) -> None:
    for name, (value, n) in metrics.items():
        print(f"{workload:<15} {name:<45} {value:>14.6g} {units[name]:<6} "
              f"n={n}")
    for name, value in bench.raw.items():
        print(f"{workload:<15} {'raw ' + name:<45} {value:>14.6g} s      "
              f"median, not scaled")
    failed = len(bench.failures)
    print(f"{workload:<15} {'error_rate':<45} "
          f"{failed / bench.attempted:>14.6g} ratio  "
          f"({failed}/{bench.attempted} operations)")
    if "setup_s" in metrics:
        share = metrics["setup_s"][0] / metrics["wall_s"][0]
        print(f"{workload:<15} setup_s / wall_s = {share:.3f}")
    self_times = sorted((v, k) for k, (v, _) in metrics.items()
                        if k == "import_s" or (k.endswith(".self_s")
                                               and k != "dimension.self_s"))
    if self_times:
        print(f"{workload:<15} largest self time: {self_times[-1][1]}")
    for problem in bench.failures[:5]:
        print(f"{workload:<15} FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rifslab" / "__init__.py").is_file():
        print(f"benchmark: no rifslab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info()))
    section = "per_layer" if args.trace else "end_to_end"
    units = _units(section)
    selected = names if args.workload == "all" else [args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    attempted = failed = 0
    result_metrics = {}
    for workload in selected:
        work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
        try:
            bench = Bench(workload, args.seed, work)
            run = measure_traced if args.trace else measure
            metrics = run(bench, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(workload, metrics, bench, units)
        attempted += bench.attempted
        failed += len(bench.failures)
        prefix = "" if len(selected) == 1 else f"{workload}."
        for name, (value, _) in metrics.items():
            result_metrics[prefix + name] = {"value": value,
                                             "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
