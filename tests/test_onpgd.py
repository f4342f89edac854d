import re

import numpy as np
import pytest

from mfonline.datastream import gen_nonlinear, gen_periodic
from mfonline.measures import predict
from mfonline.network import forward
from mfonline.onpgd import BlowUpError, OnpgdConfig, _advance, init_ensemble, run_online
from mfonline.seeding import substream
from neuron_oracle import grad_sigma, sigma


def step(thetas, z, cfg, noise=None, k=1):
    """One Euler update of the kernel run_online runs; returns the new array."""
    return _advance(thetas, z[0], z[1], cfg, noise, k)[0]


def test_config_validation():
    with pytest.raises(ValueError):
        OnpgdConfig(n_particles=0)
    with pytest.raises(ValueError):
        OnpgdConfig(dt=0.0)
    # no Gibbs init without a Gibbs prior; at beta = 0 every particle would start at 0
    for name, key in (("beta", "onpgd.beta"), ("lam", "onpgd.lambda")):
        with pytest.raises(ValueError, match=re.escape(f"({key}) must be positive for the Gibbs")):
            OnpgdConfig(**{name: 0.0})
        OnpgdConfig(**{name: 0.0}, init_sd=1.0)
    with pytest.raises(ValueError):
        OnpgdConfig(self_interaction=False, n_particles=1)
    for bad in (dict(dt=np.nan), dict(beta=np.nan), dict(lam=np.nan, init_sd=1.0)):
        with pytest.raises(ValueError):
            OnpgdConfig(**bad)
    assert abs(OnpgdConfig(lam=0.1, beta=0.02).initial_sd() - np.sqrt(0.2)) < 1e-15


def test_init_ensemble():
    cfg = OnpgdConfig(n_particles=5000, lam=0.1, beta=0.02)
    thetas = init_ensemble(cfg, 4, substream(0, "i"))
    assert thetas.shape == (5000, 4)
    sd = thetas.std()
    assert abs(sd - cfg.initial_sd()) / cfg.initial_sd() < 0.05
    with pytest.raises(ValueError):
        init_ensemble(cfg, 2, substream(0, "i"))


def test_hand_euler_step():
    # two particles, scalar covariate, explicit noise: replicate the update
    # term by term with the scalar sigma/grad_sigma oracle
    cfg = OnpgdConfig(n_particles=2, lam=0.3, beta=0.5, dt=0.02)
    thetas = np.array([[0.4, -0.2, 0.1], [1.0, 0.6, -0.5]])
    x, y = np.array([0.8]), 0.25
    noise = np.array([[0.3, -1.2, 0.7], [0.05, 0.0, -0.4]])

    vals = np.array([sigma(x, t) for t in thetas])
    m = vals.mean()
    expected = np.empty_like(thetas)
    for i, t in enumerate(thetas):
        drift = -cfg.lam * t - 2.0 * (m - y) * grad_sigma(x, t)
        expected[i] = t + drift * cfg.dt + np.sqrt(2 * cfg.beta * cfg.dt) * noise[i]

    out = step(thetas, (x, y), cfg, noise=noise)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_leave_one_out_interaction():
    cfg = OnpgdConfig(n_particles=3, lam=0.0, beta=0.0, dt=0.1,
                      self_interaction=False, init_sd=1.0)
    thetas = np.array([[0.5, 0.1, 0.0], [-0.3, 0.4, 0.2], [1.1, -0.2, 0.6]])
    x, y = np.array([0.5]), 0.1
    vals = np.array([sigma(x, t) for t in thetas])
    expected = np.empty_like(thetas)
    for i, t in enumerate(thetas):
        others = vals[np.arange(3) != i].mean()
        expected[i] = t + (-2.0 * (others - y) * grad_sigma(x, t)) * cfg.dt
    out = step(thetas, (x, y), cfg)
    assert np.max(np.abs(out - expected)) < 1e-13


def test_noise_variance_two_percent():
    # difference between a noisy step and the noiseless step isolates the
    # injected noise term, whose variance must be 2 beta dt
    cfg = OnpgdConfig(n_particles=50_000, lam=0.1, beta=0.02, dt=0.02)
    thetas = init_ensemble(cfg, 3, substream(1, "init"))
    z = (np.array([0.5]), 0.2)
    det = step(thetas, z, cfg, noise=np.zeros_like(thetas))
    rnd = step(thetas, z, cfg, noise=substream(1, "noise").standard_normal(thetas.shape))
    diff = rnd - det
    target = 2.0 * cfg.beta * cfg.dt
    assert abs(diff.var() - target) / target < 0.02


def test_geometric_decay_exact():
    # beta = 0, y = 0, amplitudes a = 0: the interaction term vanishes and
    # each step is exactly theta + (-lam theta) dt; replay that recursion
    # bit for bit and compare the closed form at fp tolerance
    cfg = OnpgdConfig(n_particles=4, lam=0.25, beta=0.0, dt=0.1, init_sd=1.0)
    thetas = substream(3, "t").standard_normal((4, 3))
    thetas[:, 0] = 0.0
    ens = thetas.copy()
    expected = thetas.copy()
    for _ in range(7):
        ens = step(ens, (np.array([0.7]), 0.0), cfg)
        expected = expected + (-cfg.lam * expected) * cfg.dt
    assert np.array_equal(ens, expected)
    closed_form = thetas * (1.0 - cfg.lam * cfg.dt) ** 7
    assert np.max(np.abs(ens - closed_form)) < 1e-14


def test_permutation_equivariance():
    cfg = OnpgdConfig(n_particles=6, lam=0.1, beta=0.05, dt=0.02)
    thetas = substream(9, "t").standard_normal((6, 4))
    noise = substream(9, "n").standard_normal((6, 4))
    z = (np.array([0.2, -0.5]), 0.3)
    perm = np.array([4, 2, 0, 5, 1, 3])

    plain = step(thetas, z, cfg, noise=noise)
    permuted = step(thetas[perm], z, cfg, noise=noise[perm])
    assert np.array_equal(plain[perm], permuted)


def test_blow_up_detection():
    # lam dt >> 2 makes the confinement step expansive; divergence must be
    # caught and reported, not returned as inf
    cfg = OnpgdConfig(n_particles=2, lam=1e6, beta=0.0, dt=0.02, init_sd=1.0)
    ens = substream(4, "t").standard_normal((2, 3))
    with np.errstate(over="ignore"), pytest.raises(BlowUpError, match="step"):
        for k in range(1, 201):
            ens = step(ens, (np.array([0.1]), 0.0), cfg, k=k)


def test_run_online_pre_update_convention():
    train, test = gen_periodic(41, n_steps=30)
    cfg = OnpgdConfig(n_particles=12)
    res = run_online(train, cfg, substream(7, "onpgd"), snapshot_at=[1, 10, 20, 30],
                     predict_xs=test.x)

    ks = [k for k, _ in res.snapshots]
    assert ks == [1, 10, 20, 30]
    # snapshot at k = 1 is the untouched init draw, the first draw of the stream
    init = init_ensemble(cfg, train.x_dim + 2, substream(7, "onpgd"))
    assert np.array_equal(res.snapshots[0][1], init)
    # recorded predictions at step 1 come from that same pre-update state
    from mfonline.measures import predict

    assert abs(res.train_pred[0] - predict(init, train.x[0])) < 1e-15
    assert abs(res.extra_pred[0] - predict(init, test.x[0])) < 1e-15
    assert res.final.shape == init.shape
    assert np.all(np.isfinite(res.final))


def test_run_online_deterministic_and_stable():
    train, _ = gen_periodic(2)
    cfg = OnpgdConfig()
    r1 = run_online(train, cfg, substream(5, "onpgd"))
    r2 = run_online(train, cfg, substream(5, "onpgd"))
    assert np.array_equal(r1.final, r2.final)
    assert np.array_equal(r1.train_pred, r2.train_pred)
    # defaults stay well-behaved over the full horizon
    assert np.max(np.abs(r1.final)) < 50.0


def test_run_online_rejects_bad_predict_xs():
    train, _ = gen_periodic(2, n_steps=20)
    with pytest.raises(ValueError):
        run_online(train, OnpgdConfig(), substream(1, "onpgd"), predict_xs=np.zeros((5, 1)))


def _allocating_run(traj, config, seed, snapshot_at, predict_xs):
    """Reference training pass: the Euler step as whole-array expressions,
    each allocating its result, with the error as an (N,) vector in both
    interaction modes.  Returns (thetas, train_pred, extra_pred, snapshots,
    blow_up_step), stopping at the first step whose new state is not finite."""
    rng = substream(seed, "onpgd")
    thetas = config.initial_sd() * rng.standard_normal((config.n_particles, traj.x_dim + 2))
    n = config.n_particles
    train_pred, extra_pred, snapshots = np.empty(traj.n_steps), np.empty(traj.n_steps), []
    for k in range(1, traj.n_steps + 1):
        if k in snapshot_at:
            snapshots.append((k, thetas.copy()))
        extra_pred[k - 1] = forward(thetas, predict_xs[k - 1])[0].mean()
        noise = rng.standard_normal(thetas.shape) if config.beta > 0 else None
        x, y = traj.x[k - 1], traj.y[k - 1]
        vals, th = forward(thetas, x)
        mean = vals.mean()
        if config.self_interaction:
            err = (mean - y) * np.ones_like(vals)
        else:
            err = (n * mean - vals) / (n - 1) - y
        asech2 = thetas[:, 0] * (1.0 - th * th)
        grad = np.column_stack([th, asech2[:, None] * x[None, :], asech2])
        drift = -config.lam * thetas - 2.0 * err[:, None] * grad
        new = thetas + drift * config.dt
        if noise is not None:
            new = new + np.sqrt(2.0 * config.beta * config.dt) * noise
        if not np.all(np.isfinite(new)):
            return thetas, train_pred, extra_pred, snapshots, k
        train_pred[k - 1] = mean
        thetas = new
    return thetas, train_pred, extra_pred, snapshots, None


@pytest.mark.parametrize("self_interaction", [True, False], ids=["full-mean", "leave-one-out"])
@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_run_online_matches_allocating_oracle_bitwise(self_interaction, beta):
    train, test = gen_nonlinear(6, n_steps=200)
    cfg = OnpgdConfig(n_particles=12, lam=0.1, beta=beta, dt=0.02,
                      self_interaction=self_interaction, init_sd=1.0)
    at = [1, 7, 100, 200]
    res = run_online(train, cfg, substream(9, "onpgd"), snapshot_at=at, predict_xs=test.x)
    thetas, train_pred, extra_pred, snapshots, blow_up = _allocating_run(
        train, cfg, 9, at, test.x)
    assert blow_up is None
    assert np.array_equal(res.final, thetas)
    assert np.array_equal(res.train_pred, train_pred)
    assert np.array_equal(res.extra_pred, extra_pred)
    assert [k for k, _ in res.snapshots] == [k for k, _ in snapshots] == at
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(res.snapshots, snapshots))
    # the training prediction at step k is the snapshot's own prediction, bit for bit
    assert all(res.train_pred[k - 1] == predict(snap, train.x[k - 1]) for k, snap in res.snapshots)


@pytest.mark.parametrize("self_interaction", [True, False], ids=["full-mean", "leave-one-out"])
def test_run_online_blow_up_names_the_oracle_step(self_interaction):
    train, test = gen_periodic(3, n_steps=200)
    cfg = OnpgdConfig(n_particles=3, lam=1e6, beta=0.0, dt=0.02,
                      self_interaction=self_interaction, init_sd=1.0)
    with np.errstate(over="ignore"):
        *_, k = _allocating_run(train, cfg, 4, (), test.x)
        assert k is not None
        with pytest.raises(BlowUpError, match=f"at step {k}, particle"):
            run_online(train, cfg, substream(4, "onpgd"))
