from dataclasses import fields

import numpy as np
import pytest

from mfonline import offline
from mfonline.datastream import Trajectory, gen_nonlinear, gen_periodic
from mfonline.offline import (
    DivergenceError,
    OfflineFitConfig,
    batch_loss,
    batch_loss_grad,
    compare_oos,
    fit_offline,
)
from mfonline.measures import oos_mse
from mfonline.onpgd import OnpgdConfig, run_online
from mfonline.network import activations, forward
from mfonline.seeding import substream
import offline_oracle


def _small_traj(seed=0, K=8, n=2):
    rng = substream(seed, "traj")
    return Trajectory(dt=0.1, x=rng.normal(size=(K, n)), y=rng.normal(size=K))


def _pass_inputs(thetas, traj):
    """The activations and the residual th @ a / N - y that a pass of
    fit_offline gives both the loss and the gradient."""
    th = activations(thetas, traj.x)
    return th, th @ thetas[:, 0] / thetas.shape[0] - traj.y


def loss_at(thetas, traj, lam):
    """batch_loss at thetas, from activations and a residual of its own."""
    return batch_loss(thetas, _pass_inputs(thetas, traj)[1], lam)


def grad_at(thetas, traj, lam):
    """batch_loss_grad at thetas, from activations and a residual of its own."""
    return batch_loss_grad(thetas, traj, lam, *_pass_inputs(thetas, traj))


def test_batch_loss_hand_value():
    traj = _small_traj()
    thetas = substream(1, "th").standard_normal((3, 4))
    preds = np.array([forward(thetas, x)[0].mean() for x in traj.x])
    expected = np.mean((preds - traj.y) ** 2) + 0.5 * 0.2 / 3 * np.sum(thetas**2)
    assert abs(loss_at(thetas, traj, 0.2) - expected) < 1e-13


def test_batch_loss_grad_finite_differences():
    # tight central-difference check on every coordinate
    traj = _small_traj(seed=5, K=5, n=3)
    thetas = 0.7 * substream(2, "th").standard_normal((4, 5))
    lam = 0.3
    g = grad_at(thetas, traj, lam)
    eps = 1e-6
    for i in range(thetas.shape[0]):
        for j in range(thetas.shape[1]):
            tp, tm = thetas.copy(), thetas.copy()
            tp[i, j] += eps
            tm[i, j] -= eps
            fd = (loss_at(tp, traj, lam) - loss_at(tm, traj, lam)) / (2 * eps)
            assert abs(g[i, j] - fd) < 1e-7


def test_descent_decreases_loss(monkeypatch):
    monkeypatch.setattr(offline, "LEARNING_RATE", 0.01)
    traj = _small_traj(seed=9, K=20, n=1)
    cfg = OfflineFitConfig(iters=60)
    learner = OnpgdConfig(n_particles=6, lam=0.1)
    _, trace, _ = fit_offline(traj, cfg, learner, substream(3, "offline-init"))
    assert trace.shape == (61,)
    # small step on a smooth objective: monotone within fp slack
    assert np.all(np.diff(trace) <= 1e-12)


def test_fit_deterministic():
    traj = _small_traj(seed=4)
    cfg, learner = OfflineFitConfig(iters=30), OnpgdConfig(n_particles=5)
    t1, tr1, g1 = fit_offline(traj, cfg, learner, substream(8, "offline-init"))
    t2, tr2, g2 = fit_offline(traj, cfg, learner, substream(8, "offline-init"))
    assert np.array_equal(t1, t2)
    assert np.array_equal(tr1, tr2)
    assert g1 == g2


def _two_pass_fit(traj, config, learner, seed):
    """Reference descent loop: batch_loss and batch_loss_grad are each
    given activations and a residual computed for them alone."""
    rng = substream(seed, "offline-init")
    thetas = learner.initial_sd() * rng.standard_normal((learner.n_particles, traj.x_dim + 2))
    trace = np.empty(config.iters + 1)
    for j in range(config.iters):
        trace[j] = loss_at(thetas, traj, learner.lam)
        grad = grad_at(thetas, traj, learner.lam)
        thetas = thetas - offline.LEARNING_RATE * grad
    trace[-1] = loss_at(thetas, traj, learner.lam)
    return thetas, trace, np.abs(grad).max()


@pytest.mark.parametrize("traj", [
    gen_periodic(2, n_steps=150)[0],  # x_dim = 1
    gen_nonlinear(2, n_steps=150)[0],  # x_dim = 3
], ids=["periodic", "nonlinear"])
def test_fit_matches_two_pass_oracle_bitwise(traj):
    cfg, learner = OfflineFitConfig(iters=80), OnpgdConfig(n_particles=12)
    thetas, trace, grad_max = fit_offline(traj, cfg, learner, substream(11, "offline-init"))
    want_thetas, want_trace, want_grad_max = _two_pass_fit(traj, cfg, learner, seed=11)
    assert np.array_equal(thetas, want_thetas)
    assert np.array_equal(trace, want_trace)
    assert grad_max == want_grad_max


def test_each_pass_prices_one_residual(monkeypatch):
    # pass j's gradient is given the very residual array its loss was given
    given = {"loss": [], "grad": []}
    real_loss, real_grad = offline.batch_loss, offline.batch_loss_grad

    def loss(*args):
        given["loss"].append(args[1])
        return real_loss(*args)

    def grad(*args):
        given["grad"].append(args[-1])
        return real_grad(*args)

    monkeypatch.setattr(offline, "batch_loss", loss)
    monkeypatch.setattr(offline, "batch_loss_grad", grad)
    traj = gen_nonlinear(2, n_steps=150)[0]
    fit_offline(traj, OfflineFitConfig(iters=5), OnpgdConfig(n_particles=12),
                substream(11, "offline-init"))
    assert [len(given["loss"]), len(given["grad"])] == [6, 5]
    assert all(g is r for g, r in zip(given["grad"], given["loss"]))


@pytest.mark.parametrize("n_particles", [1, 12, 80])
@pytest.mark.parametrize("traj", [
    gen_periodic(3, n_steps=300)[0],  # x_dim = 1
    gen_nonlinear(3, n_steps=300)[0],  # x_dim = 3
], ids=["periodic", "nonlinear"])
def test_loss_and_grad_match_broadcast_oracle(traj, n_particles):
    # BLAS products sum in another order than the oracle's pairwise sums:
    # a few ulps apart.  A gradient entry that is a difference of terms of
    # the size of the largest entry keeps only that entry's absolute
    # accuracy, so the slack is relative to the largest entry.
    for s in range(3):
        thetas = substream(s, "th").standard_normal((n_particles, traj.x_dim + 2))
        want = offline_oracle.batch_loss(thetas, traj, 0.1)
        assert abs(loss_at(thetas, traj, 0.1) - want) <= 1e-13 * want
        g = grad_at(thetas, traj, 0.1)
        want = offline_oracle.batch_loss_grad(thetas, traj, 0.1)
        np.testing.assert_allclose(g, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_divergence_raises(monkeypatch):
    monkeypatch.setattr(offline, "LEARNING_RATE", 5e4)
    traj = _small_traj(seed=6)
    cfg = OfflineFitConfig(iters=400)
    learner = OnpgdConfig(n_particles=4, lam=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            fit_offline(traj, cfg, learner, substream(1, "offline-init"))
        # the final loss, after the last step, passes the same test
        with pytest.raises(DivergenceError, match=r"at iteration 1$"):
            fit_offline(traj, OfflineFitConfig(iters=1), learner, substream(1, "offline-init"))


def test_config_validation():
    with pytest.raises(ValueError):
        OfflineFitConfig(iters=0)
    with pytest.raises(ValueError):
        OfflineFitConfig(iters=np.nan)
    # the network, its penalty and its init belong to the learner's config,
    # and the descent step is the solver's LEARNING_RATE
    assert [f.name for f in fields(OfflineFitConfig)] == ["iters"]


def test_compare_oos_pairing():
    train, test = gen_periodic(30, n_steps=120)
    onpgd = OnpgdConfig(n_particles=20)
    off = OfflineFitConfig(iters=100)
    res = compare_oos(train, test, onpgd, off, seed=17)
    assert res.mse_online > 0 and res.mse_offline > 0
    assert res.offline_loss_trace.shape == (101,)

    # the online side must match a standalone run with the same substream,
    # i.e. the two learners consume independent named streams of one seed
    solo = run_online(train, onpgd, substream(17, "onpgd"), predict_xs=test.x)
    assert res.mse_online == oos_mse(solo.extra_pred, test)
    # and the offline side fits the online learner's network
    _, trace, grad_max = fit_offline(train, off, onpgd, substream(17, "offline"))
    assert np.array_equal(res.offline_loss_trace, trace)
    assert res.offline_grad_max == grad_max
