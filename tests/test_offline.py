import numpy as np
import pytest

from mfonline.datastream import PeriodicConfig, Trajectory, gen_periodic
from mfonline.offline import (
    DivergenceError,
    OfflineFitConfig,
    batch_loss,
    batch_loss_grad,
    compare_oos,
    fit_offline,
)
from mfonline.onpgd import OnpgdConfig, init_ensemble, run_online
from mfonline.network import forward
from mfonline.seeding import substream


def _small_traj(seed=0, K=8, n=2):
    rng = substream(seed, "traj")
    return Trajectory(dt=0.1, x=rng.normal(size=(K, n)), y=rng.normal(size=K))


def test_batch_loss_hand_value():
    traj = _small_traj()
    thetas = substream(1, "th").standard_normal((3, 4))
    preds = np.array([forward(thetas, x)[0].mean() for x in traj.x])
    expected = np.mean((preds - traj.y) ** 2) + 0.5 * 0.2 / 3 * np.sum(thetas**2)
    assert abs(batch_loss(thetas, traj, 0.2) - expected) < 1e-13


def test_batch_loss_grad_finite_differences():
    # tight central-difference check on every coordinate
    traj = _small_traj(seed=5, K=5, n=3)
    thetas = 0.7 * substream(2, "th").standard_normal((4, 5))
    lam = 0.3
    g = batch_loss_grad(thetas, traj, lam)
    eps = 1e-6
    for i in range(thetas.shape[0]):
        for j in range(thetas.shape[1]):
            tp, tm = thetas.copy(), thetas.copy()
            tp[i, j] += eps
            tm[i, j] -= eps
            fd = (batch_loss(tp, traj, lam) - batch_loss(tm, traj, lam)) / (2 * eps)
            assert abs(g[i, j] - fd) < 1e-7


def test_descent_decreases_loss():
    traj = _small_traj(seed=9, K=20, n=1)
    cfg = OfflineFitConfig(n_particles=6, lam=0.1, iters=60, learning_rate=0.01)
    _, trace = fit_offline(traj, cfg, seed=3)
    assert trace.shape == (61,)
    # small step on a smooth objective: monotone within fp slack
    assert np.all(np.diff(trace) <= 1e-12)


def test_fit_deterministic():
    traj = _small_traj(seed=4)
    cfg = OfflineFitConfig(n_particles=5, iters=30)
    t1, tr1 = fit_offline(traj, cfg, seed=8)
    t2, tr2 = fit_offline(traj, cfg, seed=8)
    assert np.array_equal(t1, t2)
    assert np.array_equal(tr1, tr2)


def test_divergence_raises():
    traj = _small_traj(seed=6)
    cfg = OfflineFitConfig(n_particles=4, lam=0.1, iters=400, learning_rate=5e4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            fit_offline(traj, cfg, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        OfflineFitConfig(iters=0)
    with pytest.raises(ValueError):
        OfflineFitConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OfflineFitConfig(learning_rate=np.nan)
    with pytest.raises(ValueError):
        OfflineFitConfig(lam=0.0).initial_sd()
    assert OfflineFitConfig(lam=0.0, init_sd=0.5).initial_sd() == 0.5


def test_compare_oos_pairing():
    train, test = gen_periodic(PeriodicConfig(n_steps=120), seed=30)
    onpgd = OnpgdConfig(n_particles=20)
    off = OfflineFitConfig(n_particles=20, iters=100)
    res = compare_oos(train, test, onpgd, off, seed=17)
    assert res.mse_online > 0 and res.mse_offline > 0
    assert res.offline_loss_trace.shape == (101,)
    assert res.online_train_pred.shape == (120,)

    # the online side must match a standalone run with the same substream,
    # i.e. the two learners consume independent named streams of one seed
    solo = run_online(train, onpgd, substream(17, "onpgd"), predict_xs=test.x)
    assert np.array_equal(res.online_train_pred, solo.train_pred)
