import functools
import re

import numpy as np
import pytest

import mfonline.regret as regret_mod
from mfonline.datastream import gen_nonlinear
from mfonline.equilibrium import ConvergenceError
from mfonline.measures import cost_u, cost_u_unreg, predict, second_moment
from mfonline.onpgd import OnpgdConfig
from mfonline.regret import (
    cumulative_regret,
    eval_indices,
    instantaneous_regret,
    regret_run,
)
from mfonline.seeding import substream


def _moments(thetas, x):
    return predict(thetas, x), second_moment(thetas)


def _random_pair(seed):
    """(m, q) moments of a learner ensemble and of a benchmark ensemble."""
    rng = substream(seed, "pair")
    x = np.array([0.4])
    return _moments(rng.normal(size=(12, 3)), x), _moments(rng.normal(size=(30, 3)), x)


def test_zero_when_measures_equal():
    rng = substream(1, "eq")
    moments = _moments(rng.normal(size=(8, 3)), np.array([0.5]))
    assert instantaneous_regret(moments, moments, 0.2, lam=0.3) == (0.0, 0.0)


def test_hand_value_lam_zero():
    # learner predicts y = 0 exactly, benchmark predicts 0.1: regret -0.01
    x = np.array([1.0])
    ens = np.array([[0.0, 0.0, 0.0]])
    t5 = np.tanh(5.0)
    bench = np.array([[0.1 / t5, 0.0, 5.0]])  # a*tanh(b) = 0.1
    reg, unreg = instantaneous_regret(_moments(ens, x), _moments(bench, x), 0.0, lam=0.0)
    assert abs(reg - (-0.01)) < 1e-14
    assert abs(unreg - (-0.01)) < 1e-14


def test_reevaluation_oracle():
    (m, q), (m_b, q_b) = learner, bench = _random_pair(3)
    y, lam = 0.35, 0.2
    assert instantaneous_regret(learner, bench, y, lam) == (
        cost_u(m, q, y, lam) - cost_u(m_b, q_b, y, lam),
        cost_u_unreg(m, y) - cost_u_unreg(m_b, y))


def test_reg_unreg_identity():
    (_, q), (_, q_b) = learner, bench = _random_pair(8)
    lam = 0.25
    reg, unreg = instantaneous_regret(learner, bench, -0.15, lam)
    assert abs((reg - unreg) - 0.5 * lam * (q - q_b)) < 1e-14


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


def _rho_star_max_iters(monkeypatch, max_iters):
    real = regret_mod.solve_rho_star
    monkeypatch.setattr(regret_mod, "solve_rho_star", functools.partial(real, max_iters=max_iters))


def test_regret_run_smoke(monkeypatch):
    train, test = gen_nonlinear(51, n_steps=40)
    onpgd = OnpgdConfig(n_particles=10)
    _rho_star_max_iters(monkeypatch, 300)
    bundle = regret_run(train, test, onpgd, eval_stride=20, seed=7, n_is=2000,
                        include_static=True)
    assert set(bundle.series) == {(b, v) for b in ("dynamic", "static")
                                  for v in ("regularized", "unregularized")}
    for s in bundle.series.values():
        assert np.array_equal(s.times, train.dt * np.array([1.0, 20.0, 40.0]))
        assert s.cumulative[0] == 0.0
        assert s.instantaneous.shape == (3,)
    assert bundle.mse > 0
    assert len(bundle.mu_star_ess) == 3
    assert all(1.0 <= e <= 2000 for e in bundle.mu_star_ess)
    assert bundle.rho_star is not None

    # rerun is deterministic
    again = regret_run(train, test, onpgd, eval_stride=20, seed=7, n_is=2000,
                       include_static=True)
    for key in bundle.series:
        assert np.array_equal(bundle.series[key].instantaneous,
                              again.series[key].instantaneous)


def test_regret_run_dynamic_only_bundle():
    # without the hindsight benchmark the bundle holds the dynamic series
    # alone, and the MSE on the test half is always priced
    train, test = gen_nonlinear(51, n_steps=40)
    onpgd = OnpgdConfig(n_particles=10)
    bundle = regret_run(train, test, onpgd, 20, seed=7, n_is=2000)
    assert list(bundle.series) == [("dynamic", "regularized"), ("dynamic", "unregularized")]
    assert type(bundle.mse) is float and bundle.mse > 0
    assert bundle.rho_star is None

    again = regret_run(train, test, onpgd, 20, seed=7, n_is=2000)
    assert again.mse.hex() == bundle.mse.hex()
    assert again.mu_star_ess == bundle.mu_star_ess
    assert list(again.series) == list(bundle.series)
    for key, s in bundle.series.items():
        for name in ("times", "instantaneous", "cumulative"):
            assert getattr(s, name).tobytes() == getattr(again.series[key], name).tobytes()


def test_regret_run_solver_failure_names_index(monkeypatch):
    train, test = gen_nonlinear(52, n_steps=40)

    def boom(*args, **kwargs):
        raise ConvergenceError("Newton stalled")

    monkeypatch.setattr(regret_mod, "solve_mu_star", boom)
    with pytest.raises(ConvergenceError, match="subgrid index 0"):
        regret_run(train, test, OnpgdConfig(n_particles=5), 20, seed=1, n_is=500)


def test_regret_run_static_failure_is_named(monkeypatch):
    train, test = gen_nonlinear(52, n_steps=40)
    _rho_star_max_iters(monkeypatch, 1)
    with pytest.raises(ConvergenceError, match="hindsight solve failed") as exc:
        regret_run(train, test, OnpgdConfig(n_particles=5), 20, seed=1, n_is=500,
                   include_static=True)
    assert len(exc.value.residual_trace) == 1


def test_benchmark_prior_is_the_learners(monkeypatch):
    # both benchmarks are Gibbs measures of the learner's free energy, so
    # every prior draw must have variance beta / lam of the learner's config
    train, test = gen_nonlinear(54, n_steps=40)
    onpgd = OnpgdConfig(n_particles=5, lam=0.4, beta=0.02)
    real = regret_mod.draw_prior_samples
    prior_vars = []

    def recording(n, dim, prior_var, rng):
        prior_vars.append(prior_var)
        return real(n, dim, prior_var, rng)

    monkeypatch.setattr(regret_mod, "draw_prior_samples", recording)
    bundle = regret_run(train, test, onpgd, 20, seed=2, n_is=500, include_static=True)
    # one dynamic draw per evaluation point and one static (hindsight) draw
    assert len(prior_vars) == len(bundle.series[("dynamic", "regularized")].times) + 1
    assert prior_vars == [0.02 / 0.4] * len(prior_vars)


@pytest.mark.parametrize("bad", [dict(beta=0.0, init_sd=1.0), dict(lam=0.0, init_sd=1.0)])
def test_regret_run_needs_a_gibbs_prior(bad):
    train, test = gen_nonlinear(54, n_steps=40)
    key = "onpgd.beta" if "beta" in bad else "onpgd.lambda"
    with pytest.raises(ValueError, match=re.escape(f"({key}) must be positive for the Gibbs prior")):
        regret_run(train, test, OnpgdConfig(n_particles=5, **bad), 20, seed=2, n_is=500)

