"""Record the output hashes the benchmark checks against.

    python3 benchmarks/record_expected.py

Runs every job of every workload once at the default seed and writes the
SHA-256 of each output file to expected.json.  Re-record only when a change
is meant to alter outputs, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import SPEC, child_env, run_argv, spawn
from workloads import DEFAULT_SEED, EXPECTED, ROOT, generate, output_hashes


def main() -> int:
    env = child_env()
    expected = {}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    try:
        for entry in SPEC["workloads"]:
            workload = entry["name"]
            hashes = {}
            for job in generate(workload, DEFAULT_SEED, work / workload):
                out = work / workload / "out" / job.name
                out.mkdir(parents=True)
                _, _, code = spawn(run_argv(job, out, None, "record"),
                                   work / "record.log", env)
                if code:
                    print(f"{workload}/{job.name}: exit code {code}",
                          file=sys.stderr)
                    return 1
                for name, digest in output_hashes(out).items():
                    hashes[f"{job.name}/{name}"] = digest
            expected[workload] = hashes
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
