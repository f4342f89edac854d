import numpy as np
import pytest

from mfonline.datastream import PeriodicConfig, gen_periodic
from mfonline.onpgd import (
    BlowUpError,
    OnpgdConfig,
    ParticleEnsemble,
    init_ensemble,
    run_online,
    step,
)
from mfonline.seeding import substream
from neuron_oracle import grad_sigma, sigma


def test_config_validation():
    with pytest.raises(ValueError):
        OnpgdConfig(n_particles=0)
    with pytest.raises(ValueError):
        OnpgdConfig(dt=0.0)
    with pytest.raises(ValueError):
        OnpgdConfig(lam=0.0)  # no Gibbs prior without init_sd
    OnpgdConfig(lam=0.0, init_sd=1.0)
    with pytest.raises(ValueError):
        OnpgdConfig(self_interaction=False, n_particles=1)
    for bad in (dict(dt=np.nan), dict(beta=np.nan), dict(lam=np.nan, init_sd=1.0)):
        with pytest.raises(ValueError):
            OnpgdConfig(**bad)
    assert abs(OnpgdConfig(lam=0.1, beta=0.02).initial_sd() - np.sqrt(0.2)) < 1e-15


def test_init_ensemble():
    cfg = OnpgdConfig(n_particles=5000, lam=0.1, beta=0.02)
    ens = init_ensemble(cfg, 4, substream(0, "i"))
    assert ens.thetas.shape == (5000, 4)
    assert ens.steps_taken == 0
    sd = ens.thetas.std()
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

    out = step(ParticleEnsemble(thetas), (x, y), cfg, noise=noise)
    assert out.steps_taken == 1
    assert np.max(np.abs(out.thetas - expected)) < 1e-12


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
    out = step(ParticleEnsemble(thetas), (x, y), cfg)
    assert np.max(np.abs(out.thetas - expected)) < 1e-13


def test_noise_variance_two_percent():
    # difference between a noisy step and the noiseless step isolates the
    # injected noise term, whose variance must be 2 beta dt
    cfg = OnpgdConfig(n_particles=50_000, lam=0.1, beta=0.02, dt=0.02)
    thetas = init_ensemble(cfg, 3, substream(1, "init")).thetas
    z = (np.array([0.5]), 0.2)
    det = step(ParticleEnsemble(thetas.copy()), z, cfg, noise=np.zeros_like(thetas))
    rnd = step(ParticleEnsemble(thetas.copy()), z, cfg, rng=substream(1, "noise"))
    diff = rnd.thetas - det.thetas
    target = 2.0 * cfg.beta * cfg.dt
    assert abs(diff.var() - target) / target < 0.02


def test_geometric_decay_exact():
    # beta = 0, y = 0, amplitudes a = 0: the interaction term vanishes and
    # each step is exactly theta + (-lam theta) dt; replay that recursion
    # bit for bit and compare the closed form at fp tolerance
    cfg = OnpgdConfig(n_particles=4, lam=0.25, beta=0.0, dt=0.1, init_sd=1.0)
    thetas = substream(3, "t").standard_normal((4, 3))
    thetas[:, 0] = 0.0
    ens = ParticleEnsemble(thetas.copy())
    expected = thetas.copy()
    for _ in range(7):
        ens = step(ens, (np.array([0.7]), 0.0), cfg)
        expected = expected + (-cfg.lam * expected) * cfg.dt
    assert np.array_equal(ens.thetas, expected)
    closed_form = thetas * (1.0 - cfg.lam * cfg.dt) ** 7
    assert np.max(np.abs(ens.thetas - closed_form)) < 1e-14


def test_permutation_equivariance():
    cfg = OnpgdConfig(n_particles=6, lam=0.1, beta=0.05, dt=0.02)
    thetas = substream(9, "t").standard_normal((6, 4))
    noise = substream(9, "n").standard_normal((6, 4))
    z = (np.array([0.2, -0.5]), 0.3)
    perm = np.array([4, 2, 0, 5, 1, 3])

    plain = step(ParticleEnsemble(thetas), z, cfg, noise=noise)
    permuted = step(ParticleEnsemble(thetas[perm]), z, cfg, noise=noise[perm])
    assert np.array_equal(plain.thetas[perm], permuted.thetas)


def test_step_argument_errors():
    cfg = OnpgdConfig(n_particles=2, lam=0.1, beta=0.02)
    ens = ParticleEnsemble(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        step(ens, (np.array([1.0]), 0.0), cfg)  # beta > 0 needs rng or noise
    with pytest.raises(ValueError):
        step(ens, (np.array([1.0]), 0.0), cfg, noise=np.zeros((3, 3)))


def test_blow_up_detection():
    # lam dt >> 2 makes the confinement step expansive; divergence must be
    # caught and reported, not returned as inf
    cfg = OnpgdConfig(n_particles=2, lam=1e6, beta=0.0, dt=0.02, init_sd=1.0)
    ens = ParticleEnsemble(substream(4, "t").standard_normal((2, 3)))
    with np.errstate(over="ignore"), pytest.raises(BlowUpError, match="step"):
        for _ in range(200):
            ens = step(ens, (np.array([0.1]), 0.0), cfg)


def test_run_online_pre_update_convention():
    train, test = gen_periodic(PeriodicConfig(n_steps=30), seed=41)
    cfg = OnpgdConfig(n_particles=12)
    res = run_online(train, cfg, seed=7, snapshot_at=[1, 10, 20, 30], predict_xs=test.x)

    ks = [k for k, _ in res.snapshots]
    assert ks == [1, 10, 20, 30]
    # snapshot at k = 1 is the untouched init draw
    init = init_ensemble(cfg, train.x_dim + 2, substream(7, "init"))
    assert np.array_equal(res.snapshots[0][1], init.thetas)
    # recorded predictions at step 1 come from that same pre-update state
    from mfonline.measures import predict

    assert abs(res.train_pred[0] - predict(init.thetas, train.x[0])) < 1e-15
    assert abs(res.extra_pred[0] - predict(init.thetas, test.x[0])) < 1e-15
    assert res.final.steps_taken == 30
    assert np.all(np.isfinite(res.final.thetas))


def test_run_online_deterministic_and_stable():
    train, _ = gen_periodic(PeriodicConfig(), seed=2)
    cfg = OnpgdConfig()
    r1 = run_online(train, cfg, seed=5)
    r2 = run_online(train, cfg, seed=5)
    assert np.array_equal(r1.final.thetas, r2.final.thetas)
    assert np.array_equal(r1.train_pred, r2.train_pred)
    # defaults stay well-behaved over the full horizon
    assert np.max(np.abs(r1.final.thetas)) < 50.0


def test_run_online_rejects_bad_predict_xs():
    train, _ = gen_periodic(PeriodicConfig(n_steps=20), seed=2)
    with pytest.raises(ValueError):
        run_online(train, OnpgdConfig(), seed=1, predict_xs=np.zeros((5, 1)))
