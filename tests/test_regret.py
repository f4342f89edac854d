import numpy as np
import pytest

import mfonline.regret as regret_mod
from mfonline.datastream import NonlinearConfig, gen_nonlinear
from mfonline.equilibrium import BracketError, ConvergenceError, IsSolverConfig, importance_weights
from mfonline.measures import WeightedMeasure, cost_u, cost_u_unreg, second_moment
from mfonline.onpgd import OnpgdConfig
from mfonline.regret import (
    RegretSeries,
    cumulative_regret,
    eval_indices,
    instantaneous_regret,
    regret_run,
    regret_to_csv,
)
from mfonline.seeding import substream


def _random_pair(seed):
    rng = substream(seed, "pair")
    ens = rng.normal(size=(12, 3))
    samples = rng.normal(size=(30, 3))
    weights = importance_weights(rng.normal(size=30))
    return ens, WeightedMeasure(samples=samples, weights=weights)


def test_zero_when_measures_equal():
    rng = substream(1, "eq")
    thetas = rng.normal(size=(8, 3))
    z = (np.array([0.5]), 0.2)
    assert instantaneous_regret(thetas, thetas, z, lam=0.3) == 0.0


def test_hand_value_lam_zero():
    # learner predicts y = 0 exactly, benchmark predicts 0.1: regret -0.01
    ens = np.array([[0.0, 0.0, 0.0]])
    t5 = np.tanh(5.0)
    bench = np.array([[0.1 / t5, 0.0, 5.0]])  # a*tanh(b) = 0.1
    z = (np.array([1.0]), 0.0)
    r = instantaneous_regret(ens, bench, z, lam=0.0)
    assert abs(r - (-0.01)) < 1e-14


def test_reevaluation_oracle():
    ens, bench = _random_pair(3)
    z = (np.array([0.4]), 0.35)
    for variant, fn in (("regularized", cost_u), ("unregularized", cost_u_unreg)):
        args = (z, 0.2) if variant == "regularized" else (z,)
        direct = fn(ens, *args) - fn(bench, *args)
        assert instantaneous_regret(ens, bench, z, 0.2, variant) == direct


def test_reg_unreg_identity():
    ens, bench = _random_pair(8)
    z = (np.array([0.4]), -0.15)
    lam = 0.25
    lhs = (instantaneous_regret(ens, bench, z, lam, "regularized")
           - instantaneous_regret(ens, bench, z, lam, "unregularized"))
    rhs = 0.5 * lam * (second_moment(ens) - second_moment(bench))
    assert abs(lhs - rhs) < 1e-14


def test_bad_variant():
    ens, bench = _random_pair(2)
    with pytest.raises(ValueError):
        instantaneous_regret(ens, bench, (np.array([1.0, 0.0, 0.0]), 0.0), 0.1, "other")


def test_cumulative_constant():
    out = cumulative_regret([0.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    assert np.array_equal(out, [0.0, 2.0, 4.0])


def test_cumulative_affine_exact():
    # trapezoid integrates affine functions exactly
    t = np.linspace(0.5, 3.5, 7)
    vals = 2.0 * t - 1.0
    out = cumulative_regret(t, vals)
    exact = (t**2 - t) - (0.5**2 - 0.5)
    assert np.max(np.abs(out - exact)) < 1e-14


def test_cumulative_brute_force():
    rng = substream(5, "bf")
    t = np.sort(rng.uniform(0, 10, size=40))
    t += np.arange(40) * 1e-6  # strictly increasing
    vals = rng.normal(size=40)
    out = cumulative_regret(t, vals)
    for m in range(40):
        acc = 0.0
        for l in range(m):
            acc += 0.5 * (vals[l] + vals[l + 1]) * (t[l + 1] - t[l])
        assert abs(out[m] - acc) < 1e-12


def test_cumulative_additive_over_concatenation():
    rng = substream(6, "cat")
    t = np.cumsum(rng.uniform(0.1, 0.5, size=21))
    vals = rng.normal(size=21)
    full = cumulative_regret(t, vals)
    left = cumulative_regret(t[:11], vals[:11])
    right = cumulative_regret(t[10:], vals[10:])
    assert abs(full[-1] - (left[-1] + right[-1])) < 1e-12


def test_cumulative_nonmonotone_raises():
    with pytest.raises(ValueError):
        cumulative_regret([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        cumulative_regret([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])


def test_series_validation():
    t = np.array([0.0, 1.0])
    v = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        RegretSeries(times=t, instantaneous=v, cumulative=v, variant="x", benchmark="dynamic")
    with pytest.raises(ValueError):
        RegretSeries(times=t, instantaneous=v, cumulative=v, variant="regularized", benchmark="x")


def test_eval_indices():
    assert eval_indices(1000, 100) == [1] + list(range(100, 1001, 100))
    assert eval_indices(40, 40) == [1, 40]
    assert eval_indices(45, 20) == [1, 20, 40, 45]
    assert eval_indices(10, 4) == [1, 4, 8, 10]
    assert eval_indices(10, 1) == list(range(1, 11))
    with pytest.raises(ValueError):
        eval_indices(10, 0)
    with pytest.raises(ValueError):
        eval_indices(10, 11)


def test_regret_run_smoke():
    train, test = gen_nonlinear(NonlinearConfig(n_steps=40), seed=51)
    onpgd = OnpgdConfig(n_particles=10)
    is_cfg = IsSolverConfig(prior_var=0.2, n_is=2000)
    bundle = regret_run(train, onpgd, is_cfg, eval_stride=20, seed=7,
                        include_static=True, test=test,
                        rho_star_kwargs={"max_iters": 300})
    assert bundle.eval_ks == [1, 20, 40]
    assert set(bundle.series) == {(b, v) for b in ("dynamic", "static")
                                  for v in ("regularized", "unregularized")}
    for s in bundle.series.values():
        assert s.cumulative[0] == 0.0
        assert s.instantaneous.shape == (3,)
    assert bundle.mse is not None and bundle.mse > 0
    assert len(bundle.mu_star_values) == 3
    assert len(bundle.mu_star_ess) == 3
    assert all(1.0 <= e <= is_cfg.n_is for e in bundle.mu_star_ess)
    assert bundle.rho_star is not None

    # rerun is deterministic
    again = regret_run(train, onpgd, is_cfg, eval_stride=20, seed=7,
                       include_static=True, test=test,
                       rho_star_kwargs={"max_iters": 300})
    for key in bundle.series:
        assert np.array_equal(bundle.series[key].instantaneous,
                              again.series[key].instantaneous)


def test_regret_run_solver_failure_names_index(monkeypatch):
    train, _ = gen_nonlinear(NonlinearConfig(n_steps=40), seed=52)

    def boom(*args, **kwargs):
        raise BracketError("no sign change")

    monkeypatch.setattr(regret_mod, "solve_mu_star", boom)
    with pytest.raises(BracketError, match="subgrid index 0"):
        regret_run(train, OnpgdConfig(n_particles=5),
                   IsSolverConfig(prior_var=0.2, n_is=500), 20, seed=1)


def test_regret_run_static_failure_is_named():
    train, _ = gen_nonlinear(NonlinearConfig(n_steps=40), seed=52)
    with pytest.raises(ConvergenceError, match="hindsight solve failed") as exc:
        regret_run(train, OnpgdConfig(n_particles=5),
                   IsSolverConfig(prior_var=0.2, n_is=500), 20, seed=1,
                   include_static=True, rho_star_kwargs={"max_iters": 1})
    assert len(exc.value.residual_trace) == 1


def test_regret_to_csv(tmp_path):
    train, _ = gen_nonlinear(NonlinearConfig(n_steps=40), seed=53)
    bundle = regret_run(train, OnpgdConfig(n_particles=8),
                        IsSolverConfig(prior_var=0.2, n_is=1000), 20, seed=3)
    path = tmp_path / "regret.csv"
    regret_to_csv(bundle, path, trial=4, n_particles=8, beta=0.02, lam=0.1)
    lines = path.read_text().strip().splitlines()
    # header + 2 variants x 3 eval points (dynamic only)
    assert lines[0] == "t,instantaneous,cumulative,variant,benchmark,trial,N,beta,lambda"
    assert len(lines) == 1 + 2 * 3
    assert all(",dynamic," in ln for ln in lines[1:])
