"""Full-scale acceptance battery.

Seven numbered checks cover the package end to end: the 30-trial online
vs offline comparison in both data scenarios, the response-moment sanity
band, the free-energy identity suite, sampling-vs-quadrature solver
cross-validation, the regret trend battery, a mechanical property suite
and the closed-form constants.  Each check prints one PASS/FAIL line on
the real stdout so the verdict survives pytest's capture.

Every trial runs through the command-line runners (``run_generate``,
``run_oos_compare``, ``run_regret_sweep``) at master seed 1 and 8 worker
threads, into a temporary directory; the checks read the returned reports
and the written CSVs, so they certify what ``mfonline ... --seed 1``
computes.  The heavy runs (two scenario comparisons, seven regret cells,
30 trials each) sit in session-scoped fixtures; the whole module runs in
a few minutes.  All learner ensembles start from the unit-variance init
(the config default; see README on initialization).
"""

import csv
import os
import time

import numpy as np
import pytest

from mfonline.config import Settings
from mfonline.datastream import DT, Trajectory
from mfonline.equilibrium import (
    QuadratureGrid,
    _tilted_map,
    draw_prior_samples,
    solve_mu_star_quadrature,
    toy_rows,
)
from mfonline.experiments import run_generate, run_oos_compare, run_regret_sweep, run_verify
from mfonline.measures import predict, second_moment
from mfonline.network import forward
from mfonline.offline import batch_loss, batch_loss_grad
from mfonline.onpgd import OnpgdConfig, _advance, _draw_kicks, init_ensemble
from mfonline.regret import cumulative_regret, instantaneous_regret
from mfonline.seeding import substream
from mfonline.stats import paired_tests
from mfonline.theory import BoundSpec, compute_constants
from measure_oracle import weighted_predict, weighted_second_moment

MASTER = 1
TRIALS = 30
THREADS = 8
SCENARIOS = ("periodic", "nonlinear")


def _line(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {verdict}  ({detail})", flush=True)


def _settings(out, **kw):
    return Settings(seed=MASTER, trials=TRIALS, threads=THREADS, out=str(out), **kw)


# ---------------------------------------------------------------------------
# session fixtures carrying the heavy runs.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def oos_results(tmp_path_factory):
    """The oos-compare report of each scenario, and their wall time."""
    out = tmp_path_factory.mktemp("oos")
    t0 = time.time()
    reports = {s: run_oos_compare(_settings(out, scenario=s)) for s in SCENARIOS}
    return reports, time.time() - t0


# criterion 5's cross around the default cell, as (N, beta, lambda)
CELLS = [(80, 0.02, 0.1), (80, 0.02, 0.4), (20, 0.02, 0.1), (200, 0.02, 0.1),
         (80, 0.005, 0.1), (80, 0.05, 0.1), (80, 0.2, 0.1)]


def _dynamic_regularized(path, dt):
    """Evaluation steps k, instantaneous and cumulative series of the
    dynamic regularized rows of one trial's regret.csv."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh)
                if (r["benchmark"], r["variant"]) == ("dynamic", "regularized")]
    t, inst, cum = (np.array([float(r[c]) for r in rows])
                    for c in ("t", "instantaneous", "cumulative"))
    return np.rint(t / dt).astype(int), inst, cum


@pytest.fixture(scope="session")
def regret_cells(tmp_path_factory):
    """A one-cell regret-sweep report per cell of the cross, with each
    trial's dynamic regularized series read from its regret.csv.

    Data streams are keyed by (master, "data", trial) only, so every cell
    sees the same 30 trajectories and cross-cell contrasts are paired.
    """
    out = tmp_path_factory.mktemp("regret")
    results = {}
    for i, (n, beta, lam) in enumerate(CELLS):
        settings = _settings(out, scenario="nonlinear", experiment=f"cell{i}",
                             sweep_n=[n], sweep_beta=[beta], sweep_lam=[lam])
        (cell,) = run_regret_sweep(settings)["cells"]
        assert cell["trials"] == TRIALS and cell["failures"] == [], cell["failures"]
        cell_dir = os.path.join(out, settings.experiment, cell["name"])
        cell["series"] = [_dynamic_regularized(
            os.path.join(cell_dir, f"trial{t:03d}", "regret.csv"), DT)
            for t in range(TRIALS)]
        results[cell["name"]] = cell
    return results


@pytest.fixture(scope="session")
def verify_report(tmp_path_factory):
    return run_verify(Settings(seed=MASTER, out=str(tmp_path_factory.mktemp("verify"))))


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


# ---------------------------------------------------------------------------
# criterion 1: online beats offline out of sample, inside the published bands.
# ---------------------------------------------------------------------------


def test_c1_online_vs_offline_bands(oos_results, capsys):
    bands = {
        "periodic": {"online": (0.15, 0.35), "offline": (0.35, 0.75)},
        "nonlinear": {"online": (0.025, 0.045), "offline": (0.03, 0.055)},
    }
    reports, elapsed = oos_results
    ok = elapsed < 900.0
    parts = [f"elapsed {elapsed:.0f}s"]
    for scenario in SCENARIOS:
        online = reports[scenario]["panel_a"]["online"]["mean"]
        offline = reports[scenario]["panel_a"]["offline"]["mean"]
        t_pvalue = reports[scenario]["panel_b"]["t_pvalue"]
        lo, hi = bands[scenario]["online"]
        in_on = lo <= online <= hi
        lo, hi = bands[scenario]["offline"]
        in_off = lo <= offline <= hi
        better = online < offline and t_pvalue < 0.05
        ok = ok and in_on and in_off and better
        parts.append(f"{scenario} online {online:.4f} offline "
                     f"{offline:.4f} t_p {t_pvalue:.2e}")
    _line(capsys, 1, "online vs offline OOS bands", ok, "; ".join(parts))
    assert ok, parts


# ---------------------------------------------------------------------------
# criterion 2: stationary response second moment.
# ---------------------------------------------------------------------------


def test_c2_response_moment_bands(tmp_path, capsys):
    means = {}
    for scenario, center, half in (("periodic", 0.525, 0.15), ("nonlinear", 0.047, 0.02)):
        report = run_generate(_settings(tmp_path, scenario=scenario))
        vals = [r["train_second_moment"] for r in report["trial_moments"]]
        means[scenario] = (float(np.mean(vals)), center, half)
    ok = all(abs(m - c) <= h for m, c, h in means.values())
    detail = "; ".join(f"{s} mean-sq {m:.4f} target {c}+-{h}"
                       for s, (m, c, h) in means.items())
    _line(capsys, 2, "response second-moment bands", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: free-energy identities on the quadrature lane.
# ---------------------------------------------------------------------------


def test_c3_free_energy_identities(verify_report, capsys):
    gap = _check(verify_report, "gap_decomposition")
    dym = _check(verify_report, "dym_formula")
    ok = (gap["worst_abs_diff"] <= 1e-6 and gap["min_lhs"] >= 0.0
          and dym["worst_abs_diff"] <= 1e-4)
    detail = (f"decomposition worst {gap['worst_abs_diff']:.2e}, "
              f"min gap {gap['min_lhs']:.3e}, dy-response worst {dym['worst_abs_diff']:.2e}")
    _line(capsys, 3, "free-energy identity suite", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 4: sampling solver against quadrature, and monotone response map.
# ---------------------------------------------------------------------------


def test_c4_solver_cross_validation(verify_report, capsys):
    cross = _check(verify_report, "is_vs_quadrature")
    ok = cross["worst_abs_diff"] <= 3e-3 and not cross["bug_injected"]

    # the weighted neuron mean is nonincreasing in the tested output level:
    # raising m tilts the weights away from large sigma values
    rng = substream(MASTER, "acceptance-monotone")
    beta = 0.02
    samples = toy_rows(draw_prior_samples(20000, 1, beta / 0.1, rng))
    violations = 0
    worst_step = 0.0
    for _ in range(1000):
        z = (float(rng.uniform(0.5, 1.5)), float(rng.normal(0.0, 0.3)))
        m1, m2 = np.sort(rng.uniform(-1.5, 1.5, size=2))
        # extreme test levels degrade the weights on purpose, and the
        # monotone property holds for the estimator itself
        svals = forward(samples, [z[0]])[0]
        v1 = _tilted_map(m1, svals, svals * svals, z[1], beta)[0]
        v2 = _tilted_map(m2, svals, svals * svals, z[1], beta)[0]
        if v2 > v1 + 1e-12:
            violations += 1
            worst_step = max(worst_step, v2 - v1)
    ok = ok and violations == 0
    detail = (f"cross worst {cross['worst_abs_diff']:.2e} at n_is 2e5; "
              f"monotone violations {violations}/1000")
    _line(capsys, 4, "solver cross-validation", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: regret trend battery.
# ---------------------------------------------------------------------------


def test_c5_regret_trends(regret_cells, capsys):
    base = regret_cells["N80_beta0.02_lambda0.1"]["series"]

    # (a) cumulative regret grows over the horizon; instantaneous settles
    # at a positive level after the initial transient
    ks = base[0][0]
    half = ks >= ks[-1] // 2
    grow = sum(1 for _, _, cum in base if np.all(np.diff(cum[half]) >= 0.0))
    positive_final = sum(1 for _, _, cum in base if cum[-1] > 0.0)
    inst_mean = np.mean([inst for _, inst, _ in base], axis=0)
    late = inst_mean[-3:]
    drop = inst_mean[1] - inst_mean[-1]
    settled = np.all(late > 0.0) and (late.max() - late.min()) <= 0.25 * abs(drop)
    ok_a = grow >= 25 and positive_final >= 25 and settled

    # (b) heavier weight decay raises cumulative regret by a mid-size factor
    def mean(name, key):
        return regret_cells[name][key]["mean"]

    ratio = (mean("N80_beta0.02_lambda0.4", "cumulative_T_dynamic_regularized")
             / mean("N80_beta0.02_lambda0.1", "cumulative_T_dynamic_regularized"))
    ok_b = 1.05 <= ratio <= 1.45

    # (c) more particles do not hurt the unregularized seed-mean
    unreg = {n: mean(n, "cumulative_T_dynamic_unregularized")
             for n in ("N20_beta0.02_lambda0.1", "N200_beta0.02_lambda0.1")}
    ok_c = unreg["N200_beta0.02_lambda0.1"] <= unreg["N20_beta0.02_lambda0.1"]

    # (d) OOS error is minimized at an interior temperature
    grid = [0.005, 0.02, 0.05, 0.2]
    mse = {b: mean(f"N80_beta{b:g}_lambda0.1", "oos_mse") for b in grid}
    argmin = min(grid, key=lambda b: mse[b])
    ok_d = argmin in (0.02, 0.05)

    ok = ok_a and ok_b and ok_c and ok_d
    detail = (f"(a) growth {grow}/30, positive {positive_final}/30, late inst "
              f"{late.mean():.4f}; (b) ratio {ratio:.3f}; (c) N200 "
              f"{unreg['N200_beta0.02_lambda0.1']:.4f} <= N20 "
              f"{unreg['N20_beta0.02_lambda0.1']:.4f}; (d) argmin beta {argmin}")
    _line(capsys, 5, "regret trend battery", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: mechanical property suite.
# ---------------------------------------------------------------------------


def test_c6_property_suite(tmp_path_factory, capsys):
    checks = []

    # injected noise variance matches 2 beta dt within 2%
    cfg, dt = OnpgdConfig(n_particles=50_000, lam=0.1, beta=0.02, init_sd=None), 0.02
    thetas = init_ensemble(cfg, 3, substream(11, "init"))
    x, y = np.array([0.8]), -0.1

    def step(ens, x, y, cfg, dt, kick, k):
        new = np.empty_like(ens)
        _advance(ens, (x, x), y, cfg, dt, kick, k, new)
        return new

    det = step(thetas, x, y, cfg, dt, np.zeros_like(thetas), 1)
    rnd = step(thetas, x, y, cfg, dt,
               _draw_kicks(substream(11, "noise"), cfg, dt, np.empty_like(thetas)), 1)
    target = 2.0 * cfg.beta * dt
    rel = abs((rnd - det).var() - target) / target
    checks.append(("noise variance 2*beta*dt", rel < 0.02, f"rel err {rel:.4f}"))

    # pure confinement contracts geometrically, bit for bit
    cfg, dt = OnpgdConfig(n_particles=5, lam=0.2, beta=0.0), 0.1
    thetas = substream(11, "decay").standard_normal((5, 3))
    thetas[:, 0] = 0.0  # zero amplitudes kill the interaction term
    ens = thetas.copy()
    expected = thetas.copy()
    for k in range(1, 10):
        ens = step(ens, np.array([0.7]), 0.0, cfg, dt, np.zeros_like(ens), k)
        expected = expected + (-cfg.lam * expected) * dt
    exact = np.array_equal(ens, expected)
    closed = np.max(np.abs(ens - thetas * (1 - cfg.lam * dt) ** 9))
    checks.append(("geometric decay exact", exact and closed < 1e-14,
                   f"closed-form gap {closed:.1e}"))

    # trapezoid integration is exact on affine integrands
    times = np.cumsum(substream(11, "times").uniform(0.1, 0.5, size=25))
    vals = 0.7 - 0.3 * times
    cum = cumulative_regret(times, vals)
    closed = 0.7 * (times - times[0]) - 0.15 * (times**2 - times[0] ** 2)
    worst_trap = float(np.max(np.abs(cum - closed)))
    checks.append(("trapezoid affine exact", worst_trap <= 1e-13,
                   f"worst {worst_trap:.1e}"))

    # regularized - unregularized == (lam/2) * second-moment gap
    rng = substream(11, "identity")
    worst_id = 0.0
    for _ in range(20):
        ens = rng.standard_normal((12, 3))
        bench_thetas = rng.standard_normal((300, 3))
        weights = rng.uniform(0.5, 1.5, size=300)
        weights /= weights.sum()
        x, y = rng.uniform(0.5, 1.5, size=1), float(rng.normal())
        q_ens = float(np.mean(np.sum(ens**2, axis=1)))
        q_bench = weighted_second_moment(bench_thetas, weights)
        lam = 0.3
        reg, unreg = instantaneous_regret((predict(ens, x), second_moment(ens)),
                                          (weighted_predict(bench_thetas, weights, x), q_bench),
                                          y, lam)
        gap = (lam / 2.0) * (q_ens - q_bench)
        worst_id = max(worst_id, abs((reg - unreg) - gap))
    checks.append(("reg-unreg identity", worst_id <= 1e-14, f"worst {worst_id:.1e}"))

    # analytic batch gradient against central differences
    rng = substream(11, "grads")
    traj = Trajectory(dt=0.1, x=rng.uniform(-1.0, 1.0, size=(12, 1)),
                      y=rng.normal(0.0, 0.5, size=12))
    th = rng.standard_normal((6, 3)) * 0.7
    lam = 0.25
    g = batch_loss_grad(th, traj, lam)
    worst_fd = 0.0
    eps = 1e-6
    for i in range(6):
        for j in range(3):
            up, dn = th.copy(), th.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            fd = (batch_loss(up, traj, lam) - batch_loss(dn, traj, lam)) / (2 * eps)
            worst_fd = max(worst_fd, abs(fd - g[i, j]))
    checks.append(("gradient finite differences", worst_fd <= 1e-7,
                   f"worst {worst_fd:.1e}"))

    # solved quadrature densities integrate to one
    grid = QuadratureGrid(-8.0, 8.0, 2001)
    worst_norm = 0.0
    rng = substream(11, "norm")
    for _ in range(5):
        zz = (float(rng.uniform(0.5, 1.5)), float(rng.normal(0.0, 0.3)))
        _, mu = solve_mu_star_quadrature(zz, 0.02, 0.1, grid)
        worst_norm = max(worst_norm, abs(grid.integrate(mu) - 1.0))
    checks.append(("quadrature normalization", worst_norm <= 1e-10,
                   f"worst {worst_norm:.1e}"))

    # smallest attainable two-sided exact signed-rank p at n=8
    r = paired_tests(np.arange(1.0, 9.0), np.zeros(8))
    checks.append(("signed-rank exact p at n=8", r.wilcoxon_pvalue == 0.0078125,
                   f"p {r.wilcoxon_pvalue}"))

    # thread count never changes output bytes
    import os

    def tree(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for fname in files:
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    out[os.path.relpath(os.path.join(dirpath, fname), root)] = fh.read()
        return out

    common = dict(scenario="periodic", trials=2, seed=7, n_steps=40,
                  n_particles=8, n_is=1200, eval_stride=20)
    d1 = str(tmp_path_factory.mktemp("t1"))
    d8 = str(tmp_path_factory.mktemp("t8"))
    run_regret_sweep(Settings(out=d1, threads=1, **common))
    run_regret_sweep(Settings(out=d8, threads=8, **common))
    same = tree(os.path.join(d1, "periodic-sweep")) == tree(os.path.join(d8, "periodic-sweep"))
    checks.append(("byte-identical at 1 and 8 threads", same, "trees compared"))

    ok = all(c[1] for c in checks)
    failed = [f"{name} ({info})" for name, good, info in checks if not good]
    detail = f"{sum(c[1] for c in checks)}/{len(checks)} properties"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    _line(capsys, 6, "property suite", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 7: closed-form constants.
# ---------------------------------------------------------------------------


def test_c7_closed_form_constants(verify_report, capsys):
    const = _check(verify_report, "constants")

    # independent hand arithmetic for the two documented cases
    c = compute_constants(BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=4.0, d=3))
    worst = max(abs(c.c_osc - 2.0), abs(c.alpha - 0.25 * np.exp(-2.0)))
    worst = max(worst, 0.0 if not c.pl_condition_holds else np.inf)
    c = compute_constants(BoundSpec(c_sigma=0.1, c_z=0.1, c_1=0.1, lam=1.0, beta=1.0, d=3))
    expected_cpl = (2 * 0.01 + 1.0) / (np.exp(-0.08) - 8 * 0.01 * 0.01)
    worst = max(worst, abs(c.c_osc - 0.08), abs(c.alpha - np.exp(-0.08)),
                abs(c.c_pl - expected_cpl))

    ok = const["ok"] and worst <= 1e-9 and const["c_pl_limit_error"] <= 1e-3
    detail = (f"hand worst {worst:.1e}; large-beta limit error "
              f"{const['c_pl_limit_error']:.1e}")
    _line(capsys, 7, "closed-form constants", ok, detail)
    assert ok, detail
