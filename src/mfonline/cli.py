"""Command-line interface.

Exit codes: 0 success, 2 verification failure, 1 any operational error
(bad arguments, missing files, runtime failures).
"""

import argparse
import json
import sys
import time

from .config import _coerce, build_settings
from . import experiments


class _Parser(argparse.ArgumentParser):
    # argparse uses exit code 2 for usage errors; that slot is reserved
    # for verification failures here, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--out", help="output root directory")
    p.add_argument("--threads", type=int, help="worker threads")
    p.add_argument("--scenario", choices=["periodic", "nonlinear"], help="data model")
    p.add_argument("--experiment", help="experiment name (output subdirectory)")


def build_parser():
    parser = _Parser(prog="mfonline", description="online particle learning in diffusion environments")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("generate", parents=[], help="write train/test trajectory CSVs")
    _add_common(p)

    p = sub.add_parser("oos-compare", help="paired online vs offline out-of-sample error")
    _add_common(p)

    p = sub.add_parser("regret-sweep", help="regret series over a parameter grid")
    _add_common(p)
    p.add_argument("--stride", type=int, help="evaluation subgrid stride")
    p.add_argument("--static", action="store_true", help="also compute the fixed-benchmark series")
    p.add_argument("--sweep-n", help="comma list of particle counts")
    p.add_argument("--sweep-beta", help="comma list of temperatures")
    p.add_argument("--sweep-lambda", help="comma list of weight decays")

    p = sub.add_parser("verify", help="run the numerical identity suite")
    _add_common(p)
    p.add_argument("--inject-bug", action="store_true",
                   help="negative control: corrupt the sampling solver input")

    p = sub.add_parser("stats", help="summaries and paired tests of a numeric CSV")
    _add_common(p)
    p.add_argument("--input", required=True, help="CSV file to analyze")
    p.add_argument("--columns", help="comma list of columns (default: all numeric)")

    return parser


def _overrides(args):
    over = {}
    for key in ("seed", "trials", "out", "threads", "scenario", "experiment"):
        v = getattr(args, key, None)
        if v is not None:
            over[key] = v
    if getattr(args, "stride", None) is not None:
        over["regret.stride"] = args.stride
    if getattr(args, "static", False):
        over["regret.static"] = True
    for flag, key in (("sweep_n", "sweep.n"), ("sweep_beta", "sweep.beta"),
                      ("sweep_lambda", "sweep.lambda")):
        v = getattr(args, flag, None)
        if v is not None:
            coerced = _coerce(v)
            over[key] = coerced if isinstance(coerced, list) else [coerced]
    return over


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        settings = build_settings(args.config, _overrides(args))
        if args.command == "generate":
            report = experiments.run_generate(settings)
        elif args.command == "oos-compare":
            report = experiments.run_oos_compare(settings)
        elif args.command == "regret-sweep":
            report = experiments.run_regret_sweep(settings)
        elif args.command == "verify":
            report = experiments.run_verify(settings, inject_bug=args.inject_bug)
        elif args.command == "stats":
            cols = args.columns.split(",") if args.columns else None
            report = experiments.run_stats(args.input, columns=cols)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        # wall clock stays out of the report files so reruns are byte-identical
        print(f"mfonline: {args.command} finished in {time.time() - t0:.1f}s", file=sys.stderr)
        return 2 if report.get("ok") is False else 0
    except KeyboardInterrupt:  # pragma: no cover
        return 1
    except Exception as e:
        print(f"mfonline: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
