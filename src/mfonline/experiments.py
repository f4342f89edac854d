"""Experiment runners behind the command-line interface.

Output layout: <out>/<experiment>/<cell>/<trial>/*.csv with a single
report.json at the experiment root.  Every random draw flows from the
master seed through named substreams: data by (seed, "data", trial) so all
parameter cells see the same trajectories (paired comparisons), learner
and benchmark randomness by (seed, "cell", cell-name, "trial", trial).
Workers only compute and write their own trial directory, so results are
byte-identical for any --threads value.
"""

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from itertools import product

import numpy as np

from .config import Settings
from .datastream import gen_nonlinear, gen_periodic, response_second_moment
from .equilibrium import (
    VERIFY_ROOT_TOL,
    ConvergenceError,
    QuadratureGrid,
    draw_prior_samples,
    solve_mu_star,
    solve_mu_star_quadrature,
    toy_rows,
    verify_dym_formula,
    verify_gap_decomposition,
)
from .offline import OfflineFitConfig, compare_oos
from .onpgd import BlowUpError, OnpgdConfig
from .regret import regret_run
from .seeding import substream
from .stats import paired_tests, summarize
from .theory import BoundSpec, compute_constants

# An importance-sampling benchmark solve with effective sample size below
# this is counted as low in the regret-sweep report.
LOW_ESS = 10.0

# A regret-sweep trial that raises one of these is recorded as failed and
# the sweep goes on: numerical failures of the learner or a benchmark
# solve, and settings a trial rejects (a stride beyond the horizon).
# Anything else is a fault of the program and ends the sweep.
TRIAL_ERRORS = (BlowUpError, ConvergenceError, ValueError)


def generate_pair(settings: Settings, trial: int):
    """Train/test pair for one trial; identical across parameter cells."""
    seed = int(substream(settings.seed, "data", trial).integers(2**63))
    gen = gen_periodic if settings.scenario == "periodic" else gen_nonlinear
    return gen(seed, settings.n_steps)


def learner_grid(settings: Settings, single=False) -> dict:
    """The (N, beta, lambda) grid that onpgd.n, onpgd.beta and onpgd.lambda
    span, as {cell name: learner config} in grid order; every other
    learner setting comes from settings.  Built before any trial, so a
    value no config accepts, two cells whose names would share a
    directory, or with single a grid of more than one cell, fail first."""
    axes = (v if isinstance(v, list) else [v]
            for v in (settings.n_particles, settings.beta, settings.lam))
    cells = {}
    for n, beta, lam in product(*axes):
        beta, lam = float(beta), float(lam)
        name = f"N{n}_beta{beta:g}_lambda{lam:g}"
        if name in cells:
            c = cells[name]
            raise ValueError(f"learner cells (N, beta, lambda) = ({c.n_particles}, {c.beta!r}, "
                             f"{c.lam!r}) and ({n}, {beta!r}, {lam!r}) share the name {name}")
        cells[name] = OnpgdConfig(n_particles=n, lam=lam, beta=beta, init_sd=settings.init_sd)
    if single and len(cells) > 1:
        raise ValueError(f"onpgd.n, onpgd.beta and onpgd.lambda give {len(cells)} learner cells "
                         f"({', '.join(cells)}); this command runs one, so set one value each")
    return cells


def cell_seed(settings: Settings, cell_name: str, trial: int) -> int:
    return int(substream(settings.seed, "cell", cell_name, "trial", trial).integers(2**63))


def _trial_dir(root, cell, trial):
    path = os.path.join(root, cell, f"trial{trial:03d}")
    os.makedirs(path, exist_ok=True)
    return path


def _write_report(root, report):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    """Write a header and rows; every float is written as repr(float(v)),
    the shortest text that reads back to the same bits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def loss_trace_to_csv(trace, path):
    _write_csv(path, ["iter", "loss"], enumerate(trace))


def regret_to_csv(bundle, path, trial, onpgd: OnpgdConfig):
    """Write all series of a bundle as rows
    t, instantaneous, cumulative, variant, benchmark, trial, N, beta, lambda,
    the last three from the cell's learner config."""
    rows = ([t, i_val, c_val, v, b, trial, onpgd.n_particles, onpgd.beta, onpgd.lam]
            for (b, v), s in sorted(bundle.series.items())
            for t, i_val, c_val in zip(s.times, s.instantaneous, s.cumulative))
    _write_csv(path, ["t", "instantaneous", "cumulative", "variant", "benchmark",
                      "trial", "N", "beta", "lambda"], rows)


def _pool_map(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _summary_dict(values):
    if len(values) == 1:
        return {"values": [float(values[0])]}
    return asdict(summarize(values))


def _paired_dict(a, b):
    try:
        return asdict(paired_tests(np.asarray(a), np.asarray(b)))
    except ValueError as e:  # DegenerateDataError included
        return {"error": str(e)}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def run_generate(settings: Settings) -> dict:
    """Write train/test trajectory CSVs for each trial."""
    root = os.path.join(settings.out, settings.experiment or f"{settings.scenario}-data")

    def one(trial):
        train, test = generate_pair(settings, trial)
        tdir = _trial_dir(root, settings.scenario, trial)
        for name, traj in (("train", train), ("test", test)):
            rows = ([k + 1, float((k + 1) * traj.dt), *traj.x[k], traj.y[k], traj.truth[k]]
                    for k in range(traj.n_steps))
            _write_csv(os.path.join(tdir, f"{name}.csv"),
                       ["k", "t"] + [f"x{j + 1}" for j in range(traj.x_dim)] + ["y", "truth"], rows)
        return {
            "trial": trial,
            "train_second_moment": response_second_moment(train),
            "test_second_moment": response_second_moment(test),
        }

    rows = _pool_map(one, range(settings.trials), settings.threads)
    report = {
        "command": "generate",
        "scenario": settings.scenario,
        "seed": settings.seed,
        "trials": settings.trials,
        "files_written": 2 * settings.trials,
        "trial_moments": rows,
    }
    _write_report(root, report)
    return report


# ---------------------------------------------------------------------------
# oos-compare
# ---------------------------------------------------------------------------


def run_oos_compare(settings: Settings) -> dict:
    """Paired online/offline out-of-sample MSE over the trials."""
    root = os.path.join(settings.out, settings.experiment or f"{settings.scenario}-oos")
    (cell, onpgd), = learner_grid(settings, single=True).items()
    offline = OfflineFitConfig(iters=settings.offline_iters)

    def one(trial):
        train, test = generate_pair(settings, trial)
        res = compare_oos(train, test, onpgd, offline, cell_seed(settings, cell, trial))
        tdir = _trial_dir(root, cell, trial)
        loss_trace_to_csv(res.offline_loss_trace, os.path.join(tdir, "offline_loss.csv"))
        return {"trial": trial, "mse_online": res.mse_online, "mse_offline": res.mse_offline,
                "offline_grad_max": res.offline_grad_max}

    rows = _pool_map(one, range(settings.trials), settings.threads)

    os.makedirs(os.path.join(root, cell), exist_ok=True)
    _write_csv(os.path.join(root, cell, "mse_pairs.csv"), ["trial", "mse_online", "mse_offline"],
               ([r["trial"], r["mse_online"], r["mse_offline"]] for r in rows))

    online = [r["mse_online"] for r in rows]
    offline_vals = [r["mse_offline"] for r in rows]
    report = {
        "command": "oos-compare",
        "scenario": settings.scenario,
        "seed": settings.seed,
        "trials": settings.trials,
        "cell": cell,
        "panel_a": {
            "online": _summary_dict(online),
            "offline": _summary_dict(offline_vals),
        },
        "panel_b": _paired_dict(online, offline_vals),
        "per_trial": rows,
    }
    _write_report(root, report)
    return report


# ---------------------------------------------------------------------------
# regret-sweep
# ---------------------------------------------------------------------------


def run_regret_sweep(settings: Settings) -> dict:
    """Regret series and out-of-sample MSE per (N, beta, lambda) cell; each
    cell statistic is a _summary_dict over the cell's successful trials.

    Every cell with a successful trial reports its dynamic benchmark
    solves as ``mu_star``: the smallest ESS over all evaluation points of
    all successful trials, and how many of those points have ESS below
    LOW_ESS.  With include_static each cell also reports its hindsight
    solves as ``rho_star``: the iteration and residual-evaluation counts
    of each trial that succeeded, in trial order (an iteration costs two
    passes over the K x n_is neuron matrix, its line-search trials none;
    see ``RhoStarSolution.n_evals``), the largest final residual, the
    smallest final ESS and the number of trials whose final ESS is below
    LOW_ESS.
    A grid value that no config accepts, or a cell without a Gibbs prior,
    raises before any trial runs.
    A trial that raises one of TRIAL_ERRORS is listed under its cell's
    ``failures``; any other exception propagates and ends the sweep.
    """
    root = os.path.join(settings.out, settings.experiment or f"{settings.scenario}-sweep")
    cells = learner_grid(settings)
    for onpgd in cells.values():
        onpgd.prior_var()  # the benchmarks' prior

    def one(task):
        name, trial = task
        onpgd = cells[name]
        try:
            train, test = generate_pair(settings, trial)
            bundle = regret_run(
                train, test, onpgd, settings.eval_stride,
                cell_seed(settings, name, trial), n_is=settings.n_is,
                include_static=settings.include_static,
            )
            tdir = _trial_dir(root, name, trial)
            regret_to_csv(bundle, os.path.join(tdir, "regret.csv"), trial, onpgd)
            out = {"trial": trial, "cell": name, "oos_mse": bundle.mse,
                   "mu_star_ess": bundle.mu_star_ess}
            for (bench, variant), series in bundle.series.items():
                out[f"cumulative_T_{bench}_{variant}"] = float(series.cumulative[-1])
                out[f"final_instantaneous_{bench}_{variant}"] = float(series.instantaneous[-1])
            if bundle.rho_star is not None:
                sol = bundle.rho_star
                out["rho_star"] = (sol.n_iters, sol.n_evals, sol.residual, sol.measure.ess())
            return out
        except TRIAL_ERRORS as e:  # keep the sweep complete; no silent gaps
            return {"trial": trial, "cell": name, "error": f"{type(e).__name__}: {e}"}

    tasks = [(name, trial) for name in cells for trial in range(settings.trials)]
    rows = _pool_map(one, tasks, settings.threads)

    cell_reports = []
    for name, onpgd in cells.items():
        mine = [r for r in rows if r["cell"] == name]
        good = [r for r in mine if "error" not in r]
        failures = [{"trial": r["trial"], "error": r["error"]} for r in mine if "error" in r]
        agg = {"name": name, "n": onpgd.n_particles, "beta": onpgd.beta,
               "lambda": onpgd.lam, "trials": len(mine), "failures": failures}
        if good:
            for key in good[0]:
                if key.startswith(("oos_mse", "cumulative_T_", "final_instantaneous_")):
                    agg[key] = _summary_dict([r[key] for r in good])
            mu_ess = [e for r in good for e in r["mu_star_ess"]]
            agg["mu_star"] = {"min_ess": min(mu_ess),
                              "low_ess": sum(e < LOW_ESS for e in mu_ess)}
            if settings.include_static:
                iters, evals, residuals, ess = zip(*(r["rho_star"] for r in good))
                agg["rho_star"] = {"iters": list(iters), "evals": list(evals),
                                   "max_residual": max(residuals),
                                   "min_ess": min(ess), "low_ess": sum(e < LOW_ESS for e in ess)}
        cell_reports.append(agg)

    report = {
        "command": "regret-sweep",
        "scenario": settings.scenario,
        "seed": settings.seed,
        "trials": settings.trials,
        "eval_stride": settings.eval_stride,
        "include_static": settings.include_static,
        "cells": cell_reports,
    }
    _write_report(root, report)
    return report


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

HAND_CASES = [
    # (spec, expected c_osc, expected alpha, expected pl_holds, expected c_pl)
    (dict(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=4.0, d=3),
     2.0, 0.25 * np.exp(-2.0), False, None),
    (dict(c_sigma=0.1, c_z=0.1, c_1=0.1, lam=1.0, beta=1.0, d=3),
     0.08, np.exp(-0.08), True,
     (2 * 0.01 + 1.0) / (np.exp(-0.08) - 8 * 0.01 * 0.01)),
]


def run_verify(settings: Settings, inject_bug=False) -> dict:
    """Numerical identity and cross-validation suite; ok=False on any miss.

    Every check runs on the toy neuron tanh(theta x), rows (1, theta, 0) for
    the sampling solver.  inject_bug passes rows (0.5, theta, 0), halving the
    neuron values, a negative control that must make cross-validation fail.
    """
    (_, onpgd), = learner_grid(settings, single=True).items()
    beta, lam = onpgd.beta, onpgd.lam
    # every check solves a Gibbs measure with prior N(0, beta / lam);
    # Settings allows beta = 0 for oos-compare
    prior_var = onpgd.prior_var()
    # the tilt is bounded, so the tails fall as the prior's: +-16 sd, at least +-8
    half = max(8.0, 16.0 * np.sqrt(prior_var))
    grid = QuadratureGrid(-half, half, 2001)
    rng = substream(settings.seed, "verify")
    checks = []

    # free-energy gap decomposition on perturbed densities
    worst_gap, min_lhs = 0.0, np.inf
    for _ in range(20):
        z = (rng.uniform(0.5, 1.5), rng.normal(0.0, 0.3))
        m_star, mu = solve_mu_star_quadrature(z, beta, lam, grid, VERIFY_ROOT_TOL)
        bump = 0.3 * np.tanh(rng.normal() * grid.thetas) + 0.2 * np.sin(rng.normal() * grid.thetas)
        rho = mu * np.exp(bump)
        rho /= grid.integrate(rho)
        rep = verify_gap_decomposition(rho, (m_star, mu), z, beta, lam, grid)
        worst_gap = max(worst_gap, rep.abs_diff)
        min_lhs = min(min_lhs, rep.lhs)
    checks.append({"name": "gap_decomposition", "worst_abs_diff": worst_gap,
                   "min_lhs": min_lhs, "tol": 1e-6,
                   "ok": worst_gap <= 1e-6 and min_lhs >= -1e-9})

    # equilibrium response derivative vs central difference
    worst_dym = 0.0
    for _ in range(5):
        rep = verify_dym_formula((rng.uniform(0.5, 1.5), rng.normal(0.0, 0.3)), beta, lam, grid)
        worst_dym = max(worst_dym, rep.abs_diff)
    checks.append({"name": "dym_formula", "worst_abs_diff": worst_dym, "tol": 1e-4,
                   "ok": worst_dym <= 1e-4})

    # sampling solver against the quadrature oracle; the injected bug halves
    # the neurons, and the corruption must show up here either as a wrong
    # value or as a solver failure.  Negated neurons would pass unseen: the
    # prior is symmetric and tanh is odd, so -sigma has the law of sigma
    # under the prior and the same fixed point.
    amplitude = 0.5 if inject_bug else 1.0
    worst_cross = 0.0
    for i in range(20):
        srng = substream(settings.seed, "verify-cross", i)
        z = (srng.uniform(0.5, 1.5), srng.normal(0.0, 0.3))
        m_quad, _ = solve_mu_star_quadrature(z, beta, lam, grid)
        samples = toy_rows(draw_prior_samples(200000, 1, prior_var, srng), amplitude)
        try:
            m_is, _ = solve_mu_star(samples, z, beta)
            worst_cross = max(worst_cross, abs(m_is - m_quad))
        except ConvergenceError:
            worst_cross = float("inf")
    checks.append({"name": "is_vs_quadrature", "worst_abs_diff": worst_cross, "tol": 3e-3,
                   "ok": worst_cross <= 3e-3, "bug_injected": inject_bug})

    # closed-form constants against hand arithmetic
    worst_const = 0.0
    for spec_kwargs, c_osc, alpha, holds, c_pl in HAND_CASES:
        c = compute_constants(BoundSpec(**spec_kwargs))
        worst_const = max(worst_const, abs(c.c_osc - c_osc), abs(c.alpha - alpha))
        if holds != c.pl_condition_holds:
            worst_const = np.inf
        if c_pl is not None:
            worst_const = max(worst_const, abs(c.c_pl - c_pl))
    big_beta = compute_constants(BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=0.1, beta=1e6, d=3))
    limit_err = abs(big_beta.c_pl - 1.0 / 0.1)
    checks.append({"name": "constants", "worst_abs_diff": float(worst_const), "tol": 1e-9,
                   "c_pl_limit_error": float(limit_err),
                   "ok": worst_const <= 1e-9 and limit_err <= 1e-3})

    report = {
        "command": "verify",
        "seed": settings.seed,
        "beta": beta,
        "lambda": lam,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    _write_report(os.path.join(settings.out, settings.experiment or "verify"), report)
    return report


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _reject_repeats(names, what):
    repeated = sorted({c for c in names if names.count(c) > 1})
    if repeated:
        raise ValueError(f"{what} named more than once: {repeated}")


def run_stats(input_csv, columns=None) -> dict:
    """Summaries (and paired tests for two columns) of a numeric CSV."""
    rows, lines = [], []
    with open(input_csv, newline="") as fh:
        reader = csv.reader(fh)
        for r in reader:
            if not r:  # a blank line
                continue
            if rows and len(r) != len(rows[0]):
                raise ValueError(f"line {reader.line_num}: expected the header's "
                                 f"{len(rows[0])} fields, got {len(r)}")
            rows.append(r)
            lines.append(reader.line_num)
    if len(rows) < 2:
        raise ValueError(f"no data rows in {input_csv}: the file is empty or has a header only")
    header = rows[0]
    _reject_repeats(header, "header columns")
    numeric = {}
    for j, name in enumerate(header):
        try:
            numeric[name] = np.array([float(r[j]) for r in rows[1:]])
        except ValueError:
            continue
    if columns:
        missing = [c for c in columns if c not in numeric]
        if missing:
            raise ValueError(f"columns not found or not numeric: {missing}")
        _reject_repeats(columns, "columns")
        use = columns
    else:
        use = [c for c in numeric if c.lower() not in ("trial", "k", "iter", "sample_id", "t")]
    if not use:
        raise ValueError("no numeric value columns found")
    summaries = {}
    for c in use:
        bad = np.flatnonzero(~np.isfinite(numeric[c]))
        if bad.size:
            raise ValueError(f"line {lines[bad[0] + 1]}: column {c!r} is not finite: "
                             f"{numeric[c][bad[0]]}")
        try:
            summaries[c] = _summary_dict(numeric[c])
        except ValueError as e:
            raise ValueError(f"column {c!r}: {e}") from None
    report = {"command": "stats", "input": str(input_csv), "summaries": summaries}
    if len(use) == 2:
        report["paired"] = _paired_dict(numeric[use[0]], numeric[use[1]])
    return report
