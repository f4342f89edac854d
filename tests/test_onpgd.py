import itertools
import re

import numpy as np
import pytest

from mfonline.datastream import Trajectory, gen_nonlinear, gen_periodic
from mfonline.measures import predict, second_moment
from mfonline.network import forward
from mfonline.onpgd import (
    NOISE_BLOCK_FLOATS,
    BlowUpError,
    OnpgdConfig,
    _advance,
    _draw_kicks,
    init_ensemble,
    run_online,
)
from mfonline.seeding import substream
from neuron_oracle import grad_sigma, sigma


DT = 0.02


def step(thetas, z, cfg, rng=None, k=1, dt=DT):
    """One Euler update of the kernel run_online runs; returns the new array.

    The step's noise is drawn from the Generator rng as run_online draws
    it; without one the step is driven by zeros, its noiseless part."""
    kick = np.zeros_like(thetas)
    if rng is not None:
        _draw_kicks(rng, cfg, dt, kick)
    out = np.empty_like(thetas)
    _advance(thetas, (z[0], z[0]), z[1], cfg, dt, kick, k, out)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        OnpgdConfig(n_particles=0)
    # no Gibbs init without a Gibbs prior; at beta = 0 every particle would start at 0
    for name, key in (("beta", "onpgd.beta"), ("lam", "onpgd.lambda")):
        with pytest.raises(ValueError, match=re.escape(f"({key}) must be positive for the Gibbs")):
            OnpgdConfig(**{name: 0.0}, init_sd=None)
        OnpgdConfig(**{name: 0.0})
    # the learner's own rejections name the config keys a run sets them by
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=re.escape("init_sd (onpgd.init_sd) must be positive")):
            OnpgdConfig(init_sd=bad)
    for bad in (dict(beta=np.nan), dict(lam=np.nan)):
        with pytest.raises(ValueError):
            OnpgdConfig(**bad)
    assert OnpgdConfig().initial_sd() == 1.0  # the unit init
    gibbs = OnpgdConfig(lam=0.1, beta=0.02, init_sd=None)
    assert abs(gibbs.initial_sd() - np.sqrt(0.2)) < 1e-15


def test_init_ensemble():
    cfg = OnpgdConfig(n_particles=5000, lam=0.1, beta=0.02, init_sd=None)
    thetas = init_ensemble(cfg, 4, substream(0, "i"))
    assert thetas.shape == (5000, 4)
    sd = thetas.std()
    assert abs(sd - cfg.initial_sd()) / cfg.initial_sd() < 0.05
    with pytest.raises(ValueError):
        init_ensemble(cfg, 2, substream(0, "i"))


def test_hand_euler_step():
    # two particles, scalar covariate, replayed noise: replicate the update
    # term by term with the scalar sigma/grad_sigma oracle
    cfg = OnpgdConfig(n_particles=2, lam=0.3, beta=0.5)
    thetas = np.array([[0.4, -0.2, 0.1], [1.0, 0.6, -0.5]])
    x, y = np.array([0.8]), 0.25
    noise = substream(8, "noise").standard_normal(thetas.shape)  # the normals step replays

    vals = np.array([sigma(x, t) for t in thetas])
    m = vals.mean()
    expected = np.empty_like(thetas)
    for i, t in enumerate(thetas):
        drift = -cfg.lam * t - 2.0 * (m - y) * grad_sigma(x, t)
        expected[i] = t + drift * DT + np.sqrt(2 * cfg.beta * DT) * noise[i]

    out = step(thetas, (x, y), cfg, rng=substream(8, "noise"))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_noise_variance_two_percent():
    # difference between a noisy step and the noiseless step isolates the
    # injected noise term, whose variance must be 2 beta dt
    cfg = OnpgdConfig(n_particles=50_000, lam=0.1, beta=0.02, init_sd=None)
    thetas = init_ensemble(cfg, 3, substream(1, "init"))
    z = (np.array([0.5]), 0.2)
    det = step(thetas, z, cfg)
    rnd = step(thetas, z, cfg, rng=substream(1, "noise"))
    diff = rnd - det
    target = 2.0 * cfg.beta * DT
    assert abs(diff.var() - target) / target < 0.02


def test_geometric_decay_exact():
    # beta = 0, y = 0, amplitudes a = 0: the interaction term vanishes and
    # each step is exactly theta + (-lam theta) dt; replay that recursion
    # bit for bit and compare the closed form at fp tolerance
    cfg = OnpgdConfig(n_particles=4, lam=0.25, beta=0.0)
    dt = 0.1
    thetas = substream(3, "t").standard_normal((4, 3))
    thetas[:, 0] = 0.0
    ens = thetas.copy()
    expected = thetas.copy()
    for _ in range(7):
        ens = step(ens, (np.array([0.7]), 0.0), cfg, dt=dt)
        expected = expected + (-cfg.lam * expected) * dt
    assert np.array_equal(ens, expected)
    closed_form = thetas * (1.0 - cfg.lam * dt) ** 7
    assert np.max(np.abs(ens - closed_form)) < 1e-14


def test_permutation_equivariance():
    cfg = OnpgdConfig(n_particles=6, lam=0.1, beta=0.05)
    thetas = substream(9, "t").standard_normal((6, 4))
    kick = _draw_kicks(substream(9, "n"), cfg, DT, np.empty((6, 4)))
    z = (np.array([0.2, -0.5]), 0.3)
    perm = np.array([4, 2, 0, 5, 1, 3])

    def permuted_step(order):
        out = np.empty_like(thetas)
        _advance(thetas[order], (z[0], z[0]), z[1], cfg, DT, kick[order], 1, out)
        return out

    plain = permuted_step(np.arange(6))
    permuted = permuted_step(perm)
    assert np.array_equal(plain[perm], permuted)


def test_blow_up_detection():
    # lam dt >> 2 makes the confinement step expansive; divergence must be
    # caught and reported, not returned as inf
    cfg = OnpgdConfig(n_particles=2, lam=1e6, beta=0.0)
    ens = substream(4, "t").standard_normal((2, 3))
    with np.errstate(over="ignore"), pytest.raises(BlowUpError, match="step"):
        for k in range(1, 201):
            ens = step(ens, (np.array([0.1]), 0.0), cfg, k=k)


def test_run_online_pre_update_convention():
    train, test = gen_periodic(41, n_steps=30)
    cfg = OnpgdConfig(n_particles=12)
    res = run_online(train, cfg, substream(7, "onpgd"), predict_xs=test.x)

    # the state at k = 1 is the untouched init draw, the first draw of the
    # stream: the moments and predictions recorded at step 1 are its own
    init = init_ensemble(cfg, train.x_dim + 2, substream(7, "onpgd"))
    assert res.train_q[0] == second_moment(init)
    assert res.train_pred[0] == predict(init, train.x[0])
    assert res.extra_pred[0] == predict(init, test.x[0])
    for moment in (res.train_pred, res.train_q, res.extra_pred):
        assert moment.shape == (30,) and np.all(np.isfinite(moment))


def test_run_online_deterministic_and_stable():
    train, test = gen_periodic(2)
    cfg = OnpgdConfig()
    K = train.n_steps
    r1 = run_online(train, cfg, substream(5, "onpgd"), predict_xs=test.x)
    r2 = run_online(train, cfg, substream(5, "onpgd"), predict_xs=test.x)
    assert np.array_equal(r1.train_q, r2.train_q)
    assert np.array_equal(r1.train_pred, r2.train_pred)
    assert np.array_equal(r1.extra_pred, r2.extra_pred)
    # defaults stay well-behaved over the full horizon: the second moment
    # stays bounded at every one of the K steps
    assert r1.train_q.shape == (K,) and np.max(r1.train_q) < 50.0


def test_run_online_rejects_bad_predict_xs():
    train, _ = gen_periodic(2, n_steps=20)
    with pytest.raises(ValueError):
        run_online(train, OnpgdConfig(), substream(1, "onpgd"), predict_xs=np.zeros((5, 1)))


def _allocating_run(traj, config, rng, snapshot_at, predict_xs):
    """Reference training pass: the Euler step of traj.dt as whole-array
    expressions, each allocating its result, with one (N, d) noise draw
    from the Generator rng per step.  Returns (train_pred, train_q,
    extra_pred, snapshots, blow_up_step), with the pre-update states at
    the steps snapshot_at as (k, thetas) pairs, stopping at the first step
    whose new state is not finite."""
    thetas = config.initial_sd() * rng.standard_normal((config.n_particles, traj.x_dim + 2))
    n = config.n_particles
    train_pred, train_q = np.empty(traj.n_steps), np.empty(traj.n_steps)
    extra_pred, snapshots = np.empty(traj.n_steps), []
    for k in range(1, traj.n_steps + 1):
        if k in snapshot_at:
            snapshots.append((k, thetas.copy()))
        train_q[k - 1] = thetas.ravel() @ thetas.ravel() / n
        extra_pred[k - 1] = forward(thetas, predict_xs[k - 1])[0].mean()
        noise = rng.standard_normal(thetas.shape)
        x, y = traj.x[k - 1], traj.y[k - 1]
        vals, th = forward(thetas, x)
        mean = vals.mean()
        asech2 = thetas[:, 0] * (1.0 - th * th)
        grad = np.column_stack([th, asech2[:, None] * x[None, :], asech2])
        drift = -config.lam * thetas - 2.0 * (mean - y) * grad
        new = thetas + drift * traj.dt + np.sqrt(2.0 * config.beta * traj.dt) * noise
        if not np.all(np.isfinite(new)):
            return train_pred, train_q, extra_pred, snapshots, k
        train_pred[k - 1] = mean
        thetas = new
    return train_pred, train_q, extra_pred, snapshots, None


def noise_block(n_particles, x_dim):
    """The steps run_online draws the noise of at once."""
    return NOISE_BLOCK_FLOATS // (n_particles * (x_dim + 2))


@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_run_online_matches_allocating_oracle_bitwise(beta):
    # on both scenarios and at horizons on either side of the noise block's
    # edges: a block's normals are the oracle's per-step draws, and the
    # Generator ends where the oracle's does, so a short last block draws
    # no more; ensembles of 1 and 13 particles, not a multiple of the
    # 8-lane SIMD width, run at horizons off the block edges
    for n_particles, gen in itertools.product((40, 1, 13), (gen_periodic, gen_nonlinear)):
        cfg = OnpgdConfig(n_particles=n_particles, lam=0.1, beta=beta)
        B = noise_block(n_particles, gen(6, n_steps=1)[0].x_dim)
        horizons = (1, B - 1, B, B + 1, 2 * B + 37) if n_particles == 40 else (1, 37, 1000)
        for K in horizons:
            train, test = gen(6, n_steps=K)
            at = sorted({1, K // 2 + 1, K})
            rng, oracle_rng = substream(9, "onpgd"), substream(9, "onpgd")
            res = run_online(train, cfg, rng, predict_xs=test.x)
            train_pred, train_q, extra_pred, snapshots, blow_up = _allocating_run(
                train, cfg, oracle_rng, at, test.x)
            assert blow_up is None
            assert np.array_equal(res.train_pred, train_pred)
            assert np.array_equal(res.train_q, train_q)
            assert np.array_equal(res.extra_pred, extra_pred)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            # the moments at step k are the pre-update state's own, bit for bit
            assert [k for k, _ in snapshots] == at
            assert all(res.train_pred[k - 1] == predict(snap, train.x[k - 1])
                       for k, snap in snapshots)
            assert all(res.train_q[k - 1] == second_moment(snap) for k, snap in snapshots)


def test_run_online_blow_up_names_the_oracle_step():
    train, test = gen_periodic(3, n_steps=200)
    cfg = OnpgdConfig(n_particles=3, lam=1e6, beta=0.0)
    with np.errstate(over="ignore"):
        *_, k = _allocating_run(train, cfg, substream(4, "onpgd"), (), test.x)
        assert k is not None
        with pytest.raises(BlowUpError, match=f"at step {k}, particle"):
            run_online(train, cfg, substream(4, "onpgd"), predict_xs=test.x)
    # and past the first noise block: a response of 1e308 at step B + 5
    # makes the interaction force overflow there
    cfg = OnpgdConfig(n_particles=100, beta=0.0)
    B = noise_block(100, train.x_dim)
    y = train.y.copy()
    y[B + 4] = 1e308
    spiked = Trajectory(dt=train.dt, x=train.x, y=y)
    with np.errstate(over="ignore", invalid="ignore"):
        *_, k = _allocating_run(spiked, cfg, substream(4, "onpgd"), (), test.x)
        assert k == B + 5
        with pytest.raises(BlowUpError, match=f"at step {k}, particle"):
            run_online(spiked, cfg, substream(4, "onpgd"), predict_xs=test.x)


def test_run_online_steps_at_the_stream_dt():
    # one Euler step of the stream's own dt per observation: at dt = 0.05 the
    # run is the oracle's at 0.05, and differs from the same data at 0.02
    train, test = gen_periodic(3, n_steps=40, dt=0.05)
    cfg = OnpgdConfig(n_particles=6)
    res = run_online(train, cfg, substream(2, "onpgd"), predict_xs=test.x)
    train_pred, train_q, *_ = _allocating_run(train, cfg, substream(2, "onpgd"), (), test.x)
    assert np.array_equal(res.train_pred, train_pred)
    assert np.array_equal(res.train_q, train_q)
    coarse = Trajectory(dt=0.02, x=train.x, y=train.y)
    other = run_online(coarse, cfg, substream(2, "onpgd"), predict_xs=test.x)
    assert not np.array_equal(other.train_q[1:], res.train_q[1:])
    assert not np.array_equal(other.train_pred[1:], res.train_pred[1:])


def test_run_online_is_non_anticipative():
    # the response y_{j+1} is consumed by the update of step j + 1: the
    # moments and predictions up to that step's pre-update state keep their
    # bits when it changes, and the next state's second moment moves
    train, test = gen_nonlinear(4)
    j = 600
    y = train.y.copy()
    y[j] += 1.0
    perturbed = Trajectory(dt=train.dt, x=train.x, y=y)
    cfg = OnpgdConfig()
    res = run_online(train, cfg, substream(5, "onpgd"), predict_xs=test.x)
    other = run_online(perturbed, cfg, substream(5, "onpgd"), predict_xs=test.x)
    for name in ("train_pred", "train_q", "extra_pred"):
        assert np.array_equal(getattr(res, name)[:j + 1], getattr(other, name)[:j + 1])
    assert res.train_q[j + 1] != other.train_q[j + 1]


def test_scored_covariates_never_feed_the_learner(monkeypatch):
    # the step prices the scored and the train covariate in one block; a
    # change to the scored ones from step s on moves only their own
    # predictions, from s on, and the learner's path keeps its bits
    train, test = gen_nonlinear(4, n_steps=300)
    cfg, s = OnpgdConfig(n_particles=13), 120
    res = run_online(train, cfg, substream(5, "onpgd"), predict_xs=test.x)
    xs = test.x.copy()
    xs[s:] += 0.5
    other = run_online(train, cfg, substream(5, "onpgd"), predict_xs=xs)
    assert np.array_equal(res.train_pred, other.train_pred)
    assert np.array_equal(res.train_q, other.train_q)
    assert np.array_equal(res.extra_pred[:s], other.extra_pred[:s])
    assert np.all(res.extra_pred[s:] != other.extra_pred[s:])

    # each state's sum of squares is taken once: the initial draw's, then
    # every new state's, which both screens for blow-up and is the next
    # step's train_q
    calls = []

    def counted(thetas):
        calls.append(1)
        return second_moment(thetas)

    monkeypatch.setattr("mfonline.onpgd.second_moment", counted)
    run_online(train, cfg, substream(5, "onpgd"), predict_xs=test.x)
    assert len(calls) == train.n_steps + 1
