"""Splice-continuity probe script for the splice-probe workload.

    python3 benchmarks/splice_probe.py CONFIG TAILS.json OUT.csv
        [--setup-only] [--trace SPANS.json RUN_ID]

Loads the carpet mix from CONFIG, then calls `rifslab.continuity_probe`
with the splice depth k, probe depth and tails given in TAILS.json, and
writes one CSV row per tail.  `--setup-only` stops once `load_config` has
returned, so timing that process gives the workload's set-up time.
`--trace` records spans as `tracer.py` does.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    config, tails_path, out_path = argv[:3]
    rec = spans_path = None
    if "--trace" in argv:
        at = argv.index("--trace")
        spans_path = argv[at + 1]
        from tracer import install
        rec = install(argv[at + 2])
    import rifslab
    try:
        cfg = rifslab.load_config(config)
        if "--setup-only" in argv:
            return 0
        with open(tails_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        tails = [rifslab.OmegaSeq(tuple(t["prefix"]), tuple(t["cycle"]))
                 for t in spec["tails"]]
        rows = rifslab.continuity_probe(cfg.rifs, cfg.omega, spec["k"], tails,
                                        spec["depth"])
        lines = ["prefix,cycle,d_omega,d_hausdorff,bound"]
        for row in rows:
            lines.append(",".join((
                " ".join(map(str, row.tail.prefix)),
                " ".join(map(str, row.tail.cycle)),
                repr(row.d_omega), repr(row.d_hausdorff), repr(row.bound))))
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0
    finally:
        if rec is not None:
            rec.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
