"""Command line entry point.

Subcommands: `run <config.json> [--out DIR] [--seed N] [--budget M]`,
`validate <config.json>`, `corpus list`.  Exit codes: 0 success,
1 validation or usage failure, 2 resource limit (the budget, the depth
limit, or memory running out), 3 I/O failure.  The budget resolves as
built-in default, then RIFSLAB_BUDGET, then --budget.  Both launchers,
the `rifslab` script and `python -m rifslab`, go through `entry`.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import corpus, tasks
from .config import ExperimentConfig, load_config
from .errors import ConfigError, ResourceError, RifsError, UsageError
from .model import DEFAULT_BUDGET


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; 2 is reserved for resource limits
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rifslab",
                     description="Random iterated function system lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config and write outputs")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--budget", type=int, default=None,
                       help="budget override: most cylinders, canvas "
                       "pixels, drawn symbols or curve points")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config", help="path to a JSON experiment config")

    p_cor = sub.add_parser("corpus", help="bundled example configs")
    p_cor.add_argument("action", choices=("list",))
    return parser


def _resolve_budget(flag: int | None) -> int:
    budget = DEFAULT_BUDGET
    env = os.environ.get("RIFSLAB_BUDGET")
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(
                f"RIFSLAB_BUDGET is not an integer: {env!r}") from None
    if flag is not None:
        budget = flag
    if budget < 1:
        raise UsageError("budget must be >= 1")
    return budget


def _cmd_run(args) -> int:
    budget = _resolve_budget(args.budget)
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError("--seed must be >= 0")
        cfg = ExperimentConfig(cfg.description, cfg.omega, args.seed,
                               cfg.task, cfg.rifs)
    tasks.run(cfg, args.out, budget)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: OK ({len(cfg.rifs.systems)} systems, "
          f"task {cfg.task.type})")
    return 0


def _cmd_corpus(args) -> int:
    for name, filename, description in corpus.corpus_entries():
        print(f"{name:<18} {filename:<22} {description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_corpus(args)
    except ResourceError as exc:
        print(f"rifslab: resource limit: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"rifslab: resource limit: out of memory{detail}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"rifslab: invalid config: {exc}", file=sys.stderr)
        return 1
    except (UsageError, RifsError) as exc:
        print(f"rifslab: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rifslab: i/o failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """Run `main()` and exit the process with its code.

    The heap is frozen first: what is alive then is mostly the modules,
    functions and classes of the rifslab imports, and of numpy's once a
    walk has loaded it, which the exiting process drops anyway, and the
    interpreter's final full collections would walk them all again
    (several ms per collection).
    Atexit handlers, stdio flushing and exit codes are unchanged.
    `main()` freezes nothing, so in-process callers keep their collector.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
