"""Evaluation harness CLI: `harness run-acceptance [--filter] [--report]`.

The acceptance oracles use scipy, which only the `harness` extra installs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

INSTALL_HINT = "harness needs scipy: pip install 'stretchkit[harness]'"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="harness",
                                     description="Objective evaluation harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    acc = sub.add_parser("run-acceptance", help="run the acceptance criteria")
    acc.add_argument("--filter", default=None, help="only criteria whose name contains this")
    acc.add_argument("--report", type=Path, default=None, help="write full CSV report here")
    args = parser.parse_args(argv)
    if args.report is not None and not args.report.parent.is_dir():
        print(f"report directory {args.report.parent} does not exist", file=sys.stderr)
        return 1

    try:
        from .acceptance import run_acceptance
    except ModuleNotFoundError as exc:
        if exc.name != "scipy":
            raise
        print(INSTALL_HINT, file=sys.stderr)
        return 1
    ok, _ = run_acceptance(args.filter, args.report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
