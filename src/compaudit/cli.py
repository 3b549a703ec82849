"""Command-line entry point.

    compaudit --plan PATH [--out DIR] [--workers N] [--seed-base U64]
              [--stage {train|compress|attack|evaluate|report}]

Without --stage the whole pipeline runs and the report is rendered.
Environment overrides are limited to paths and thread count:
COMPAUDIT_OUT supplies the default output directory and COMPAUDIT_WORKERS
the default worker count (unset or empty: the plan's). Exit code 0 on
success, 1 when attack cells failed (with a per-cell listing), 2 on usage,
plan, dependency or file-system errors, with one ``error:`` line.
"""

import argparse
import os
import sys

import numpy as np

from .errors import CompauditError
from .pipeline import STAGES, run_plan, run_stage
from .plan import parse_plan


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like the plan and dependency errors
        self.exit(2, f"error: {message}\n")


def _worker_count(text: str) -> int:
    """A worker count from ``--workers`` or ``COMPAUDIT_WORKERS``: a whole number >= 1."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= 1 (also read from COMPAUDIT_WORKERS), got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="compaudit",
        description="Membership-leakage audit for compressed classifiers.",
    )
    parser.add_argument("--plan", required=True, help="path to the experiment plan (INI)")
    parser.add_argument(
        "--out",
        default=os.environ.get("COMPAUDIT_OUT", "audit_out"),
        help="output directory (default: $COMPAUDIT_OUT or ./audit_out)",
    )
    parser.add_argument(
        "--workers",
        type=_worker_count,  # argparse converts a string default, so the variable is checked too
        default=os.environ.get("COMPAUDIT_WORKERS") or None,
        help="concurrent repetition workers (default: plan value)",
    )
    parser.add_argument("--seed-base", type=int, default=None, help="override the plan's seed base")
    parser.add_argument("--stage", choices=STAGES, default=None, help="run a single stage")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # no numpy warning lines: the program checks losses and weights for finiteness itself
        with np.errstate(all="ignore"):
            plan = parse_plan(args.plan)
            if args.seed_base is not None:
                plan.seed_base = args.seed_base
                plan.validate()  # the range of the seed base
            if args.stage is None:
                report = run_plan(plan, args.out, workers=args.workers)
            else:
                result = run_stage(plan, args.out, args.stage, workers=args.workers)
                report = result if args.stage == "report" else None
    except (CompauditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        print(f"report written to {os.path.join(args.out, 'report', 'report.json')}")
        for cell_key, agg in report["aggregates"].items():
            print(
                f"  {cell_key}: balanced accuracy {agg['balanced_accuracy_median']:.4f}, "
                f"auc {agg['auc_median']:.4f}"
            )
        if report["failures"]:
            print("failed cells:", file=sys.stderr)
            for f in report["failures"]:
                print(f"  rep{f['rep']} {f['cell']}: {f['error']}", file=sys.stderr)
            return 1
    else:
        print(f"stage {args.stage} complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
