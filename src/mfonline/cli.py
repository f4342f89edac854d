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


def _setting(p, flag, key, help):
    """A settings flag, read as its config line is, so Settings checks both."""
    p.add_argument(flag, dest=key, type=partial(parse_value, key), help=help)


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    _setting(p, "--seed", "seed", "master seed")
    _setting(p, "--trials", "trials", "number of trials")
    _setting(p, "--out", "out", "output root directory")
    _setting(p, "--threads", "threads", "worker threads")
    _setting(p, "--scenario", "scenario", "data model: periodic or nonlinear")
    _setting(p, "--experiment", "experiment", "experiment name (output subdirectory)")


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
    _setting(p, "--stride", "regret.stride", "evaluation subgrid stride")
    p.add_argument("--static", action="store_const", const=True, dest="regret.static",
                   help="also compute the fixed-benchmark series")
    _setting(p, "--sweep-n", "sweep.n", "comma list of particle counts")
    _setting(p, "--sweep-beta", "sweep.beta", "comma list of temperatures")
    _setting(p, "--sweep-lambda", "sweep.lambda", "comma list of weight decays")

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
