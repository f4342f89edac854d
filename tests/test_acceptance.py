"""Full-scale acceptance battery.

Seven numbered checks cover the package end to end: the 30-trial online
vs offline comparison in both data scenarios, the response-moment sanity
band, the free-energy identity suite, sampling-vs-quadrature solver
cross-validation, the regret trend battery, a mechanical property suite
and the closed-form constants.  Each check prints one PASS/FAIL line on
the real stdout so the verdict survives pytest's capture.

The heavy work (two scenario comparisons, seven regret cells, 30 trials
each) sits in session-scoped fixtures; the whole module runs in a few
minutes with 8 worker threads.  All learner ensembles here start from a
unit-variance init (the config default; see README on initialization).
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mfonline.config import Settings
from mfonline.datastream import Trajectory
from mfonline.equilibrium import (
    QuadratureGrid,
    _tilted_map,
    draw_prior_samples,
    solve_mu_star_quadrature,
    toy_rows,
)
from mfonline.experiments import cell_seed, generate_pair, run_regret_sweep, run_verify
from mfonline.measures import predict, second_moment
from mfonline.network import forward
from mfonline.offline import OfflineFitConfig, batch_loss, batch_loss_grad, compare_oos
from mfonline.onpgd import OnpgdConfig, _advance, init_ensemble
from mfonline.regret import cumulative_regret, instantaneous_regret, regret_run
from mfonline.seeding import substream
from mfonline.stats import paired_tests
from mfonline.theory import BoundSpec, compute_constants
from measure_oracle import weighted_predict, weighted_second_moment

MASTER = 1
TRIALS = 30
INIT_SD = 1.0
THREADS = 8


def _line(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {verdict}  ({detail})", flush=True)


# data and cell seeds come from the master seed as the CLI derives them
SETTINGS = {scenario: Settings(scenario=scenario, seed=MASTER)
            for scenario in ("periodic", "nonlinear")}


# ---------------------------------------------------------------------------
# session fixtures carrying the heavy runs.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def oos_results():
    """Paired online/offline OOS errors, 30 trials per scenario."""
    onpgd = OnpgdConfig(init_sd=INIT_SD)
    offline = OfflineFitConfig()
    cell = "N80_beta0.02_lambda0.1"
    out = {}
    t0 = time.time()
    for scenario in ("periodic", "nonlinear"):

        def one(trial):
            train, test = generate_pair(SETTINGS[scenario], trial)
            r = compare_oos(train, test, onpgd, offline,
                            cell_seed(SETTINGS[scenario], cell, trial))
            return r.mse_online, r.mse_offline

        with ThreadPoolExecutor(THREADS) as pool:
            rows = list(pool.map(one, range(TRIALS)))
        out[scenario] = {
            "online": np.array([r[0] for r in rows]),
            "offline": np.array([r[1] for r in rows]),
        }
    out["elapsed"] = time.time() - t0
    return out


CELLS = {
    "N80_beta0.02_lambda0.1": dict(n=80, lam=0.1, beta=0.02),
    "N80_beta0.02_lambda0.4": dict(n=80, lam=0.4, beta=0.02),
    "N20_beta0.02_lambda0.1": dict(n=20, lam=0.1, beta=0.02),
    "N200_beta0.02_lambda0.1": dict(n=200, lam=0.1, beta=0.02),
    "N80_beta0.005_lambda0.1": dict(n=80, lam=0.1, beta=0.005),
    "N80_beta0.05_lambda0.1": dict(n=80, lam=0.1, beta=0.05),
    "N80_beta0.2_lambda0.1": dict(n=80, lam=0.1, beta=0.2),
}


@pytest.fixture(scope="session")
def regret_cells():
    """Dynamic-benchmark regret series per parameter cell, 30 trials each.

    Data streams are keyed by (master, "data", trial) only, so every cell
    sees the same 30 trajectories and cross-cell contrasts are paired.
    """
    results = {}
    for name, p in CELLS.items():
        onpgd = OnpgdConfig(n_particles=p["n"], lam=p["lam"], beta=p["beta"],
                            init_sd=INIT_SD)

        def one(trial):
            train, test = generate_pair(SETTINGS["nonlinear"], trial)
            b = regret_run(train, onpgd, 100, cell_seed(SETTINGS["nonlinear"], name, trial),
                           n_is=SETTINGS["nonlinear"].n_is, test=test)
            reg = b.get("dynamic", "regularized")
            unreg = b.get("dynamic", "unregularized")
            return {
                "cum_reg": float(reg.cumulative[-1]),
                "cum_unreg": float(unreg.cumulative[-1]),
                "inst_reg": np.asarray(reg.instantaneous),
                "cum_series": np.asarray(reg.cumulative),
                "ks": np.asarray(b.eval_ks),
                "mse": b.mse,
            }

        with ThreadPoolExecutor(THREADS) as pool:
            results[name] = list(pool.map(one, range(TRIALS)))
    return results


@pytest.fixture(scope="session")
def verify_report():
    return run_verify(Settings(seed=MASTER))


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
    ok = oos_results["elapsed"] < 900.0
    parts = [f"elapsed {oos_results['elapsed']:.0f}s"]
    for scenario in ("periodic", "nonlinear"):
        online = oos_results[scenario]["online"]
        offline = oos_results[scenario]["offline"]
        r = paired_tests(online, offline)
        lo, hi = bands[scenario]["online"]
        in_on = lo <= online.mean() <= hi
        lo, hi = bands[scenario]["offline"]
        in_off = lo <= offline.mean() <= hi
        better = online.mean() < offline.mean() and r.t_pvalue < 0.05
        ok = ok and in_on and in_off and better
        parts.append(f"{scenario} online {online.mean():.4f} offline "
                     f"{offline.mean():.4f} t_p {r.t_pvalue:.2e}")
    _line(capsys, 1, "online vs offline OOS bands", ok, "; ".join(parts))
    assert ok, parts


# ---------------------------------------------------------------------------
# criterion 2: stationary response second moment.
# ---------------------------------------------------------------------------


def test_c2_response_moment_bands(capsys):
    means = {}
    for scenario, center, half in (("periodic", 0.525, 0.15), ("nonlinear", 0.047, 0.02)):
        vals = [float(np.mean(generate_pair(SETTINGS[scenario], t)[0].y ** 2)) for t in range(TRIALS)]
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
    base = regret_cells["N80_beta0.02_lambda0.1"]

    # (a) cumulative regret grows over the horizon; instantaneous settles
    # at a positive level after the initial transient
    ks = base[0]["ks"]
    half = ks >= ks[-1] // 2
    grow = sum(1 for r in base if np.all(np.diff(r["cum_series"][half]) >= 0.0))
    positive_final = sum(1 for r in base if r["cum_reg"] > 0.0)
    inst_mean = np.mean([r["inst_reg"] for r in base], axis=0)
    late = inst_mean[-3:]
    drop = inst_mean[1] - inst_mean[-1]
    settled = np.all(late > 0.0) and (late.max() - late.min()) <= 0.25 * abs(drop)
    ok_a = grow >= 25 and positive_final >= 25 and settled

    # (b) heavier weight decay raises cumulative regret by a mid-size factor
    mean_cum = {name: float(np.mean([r["cum_reg"] for r in rows]))
                for name, rows in regret_cells.items()}
    ratio = mean_cum["N80_beta0.02_lambda0.4"] / mean_cum["N80_beta0.02_lambda0.1"]
    ok_b = 1.05 <= ratio <= 1.45

    # (c) more particles do not hurt the unregularized seed-mean
    unreg = {n: float(np.mean([r["cum_unreg"] for r in regret_cells[n]]))
             for n in ("N20_beta0.02_lambda0.1", "N200_beta0.02_lambda0.1")}
    ok_c = unreg["N200_beta0.02_lambda0.1"] <= unreg["N20_beta0.02_lambda0.1"]

    # (d) OOS error is minimized at an interior temperature
    grid = [0.005, 0.02, 0.05, 0.2]
    mse = {b: float(np.mean([r["mse"] for r in regret_cells[f"N80_beta{b:g}_lambda0.1"]]))
           for b in grid}
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
    det, _ = _advance(thetas, x, y, cfg, dt, np.zeros_like(thetas), 1)
    rnd, _ = _advance(thetas, x, y, cfg, dt, substream(11, "noise").standard_normal(thetas.shape),
                      1)
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
        ens, _ = _advance(ens, np.array([0.7]), 0.0, cfg, dt, None, k)
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
