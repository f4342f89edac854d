"""Command-line interface.

Exit codes: 0 success, 2 verification failure, 1 any operational error
(bad arguments, missing files, runtime failures).
"""

import argparse
import json
import sys
import time
from functools import partial

from .config import SCHEMA, build_settings, parse_value
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

    p = sub.add_parser("generate", help="write train/test trajectory CSVs")
    _add_common(p)

    p = sub.add_parser("oos-compare", help="paired online vs offline out-of-sample error")
    _add_common(p)

    p = sub.add_parser("regret-sweep", help="regret series over a parameter grid")
    _add_common(p)
    p.add_argument("--stride", type=int, dest="regret.stride", help="evaluation subgrid stride")
    p.add_argument("--static", action="store_const", const=True, dest="regret.static",
                   help="also compute the fixed-benchmark series")
    p.add_argument("--sweep-n", type=partial(parse_value, "sweep.n"), dest="sweep.n",
                   help="comma list of particle counts")
    p.add_argument("--sweep-beta", type=partial(parse_value, "sweep.beta"), dest="sweep.beta",
                   help="comma list of temperatures")
    p.add_argument("--sweep-lambda", type=partial(parse_value, "sweep.lambda"),
                   dest="sweep.lambda", help="comma list of weight decays")

    p = sub.add_parser("verify", help="run the numerical identity suite")
    _add_common(p)
    p.add_argument("--inject-bug", action="store_true",
                   help="negative control: corrupt the sampling solver input")

    p = sub.add_parser("stats", help="summaries and paired tests of a numeric CSV")
    p.add_argument("--input", required=True, help="CSV file to analyze")
    p.add_argument("--columns", help="comma list of columns (default: all numeric)")

    return parser


def _overrides(args):
    # each settings flag's dest is its dotted config key
    return {key: v for key, v in vars(args).items() if key in SCHEMA}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        if args.command == "stats":
            cols = [c.strip() for c in (args.columns or "").split(",") if c.strip()]
            report = experiments.run_stats(args.input, columns=cols)
        else:
            settings = build_settings(args.config, _overrides(args))
            if args.command == "generate":
                report = experiments.run_generate(settings)
            elif args.command == "oos-compare":
                report = experiments.run_oos_compare(settings)
            elif args.command == "regret-sweep":
                report = experiments.run_regret_sweep(settings)
            else:
                report = experiments.run_verify(settings, inject_bug=args.inject_bug)
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
