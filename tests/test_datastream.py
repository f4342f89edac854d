import hashlib
import tracemalloc

import numpy as np
import pytest

from mfonline import datastream
from mfonline.datastream import (
    DT,
    NONLINEAR_AMPLITUDE,
    NONLINEAR_N_NEURONS,
    NONLINEAR_NOISE_OU,
    NONLINEAR_X_DIM,
    PERIODIC_H,
    PERIODIC_NOISE_OU,
    PHI_BLOCK,
    PHI_INIT_SD,
    PHI_RATE,
    PHI_VOL,
    OuParams,
    Trajectory,
    euler_ou_blocks,
    gen_nonlinear,
    gen_periodic,
    response_second_moment,
)
from mfonline.seeding import substream
from neuron_oracle import sigma
from stream_oracle import euler_ou_path, whole_path_nonlinear, whole_path_periodic


def test_ou_params_validation():
    with pytest.raises(ValueError):
        OuParams(rate=-1.0)
    with pytest.raises(ValueError):
        OuParams(rate=1.0, vol=-0.1)
    with pytest.raises(ValueError):
        OuParams(rate=float("nan"))
    with pytest.raises(ValueError):
        OuParams(rate=1.0, vol=float("nan"))
    with pytest.raises(ValueError):
        OuParams(rate=0.0).stationary_sd()
    assert abs(OuParams(rate=0.5, vol=1.0).stationary_sd() - 1.0) < 1e-15


def stepped(channels, n_steps):
    """Each channel's whole path, joined from the blocks of euler_ou_blocks."""
    blocks = [[s.copy() for s in states]
              for _, _, states in euler_ou_blocks(channels, n_steps)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def test_euler_ou_hand_step():
    # replay the generator's own noise and apply the recursion by hand
    params = OuParams(rate=0.8, mean=0.3, vol=0.5)
    noise = substream(11, "chk").standard_normal((3,))
    [path] = stepped([(params, 1.0, substream(11, "chk"))], 3)
    x = 1.0
    for k in range(3):
        x = x - params.rate * (x - params.mean) * DT + params.vol * np.sqrt(DT) * noise[k]
        assert path[k] == x


def test_euler_ou_deterministic_decay():
    # vol = 0: exact geometric relaxation toward the mean
    params = OuParams(rate=10.0, mean=0.0, vol=0.0)
    [path] = stepped([(params, 1.0, substream(0, "z"))], 250)
    expected = (1.0 - 10.0 * DT) ** np.arange(1, 251)
    assert np.max(np.abs(path - expected)) < 1e-14


def test_euler_ou_stationary_variance():
    # discrete chain x' = a x + s xi with a = 1 - rate dt has stationary
    # variance s^2 / (1 - a^2); check the ensemble at a late step within 5%
    rate, vol = 0.5, 1.0
    a = 1.0 - rate * DT
    target = (vol**2 * DT) / (1.0 - a * a)
    params = OuParams(rate=rate, mean=0.0, vol=vol)
    n_paths, k = 100_000, 400
    rng = substream(123, "var-oracle")
    x0 = params.stationary_sd() * rng.standard_normal(n_paths)
    finals = np.empty(n_paths)
    for lo in range(0, n_paths, 20_000):  # chunk to bound memory
        hi = lo + 20_000
        *_, (_, _, [last_block]) = euler_ou_blocks([(params, x0[lo:hi], rng)], k)
        finals[lo:hi] = last_block[-1]
    observed = finals.var()
    assert abs(observed - target) / target < 0.05


def test_euler_ou_vector_state_and_errors():
    params = OuParams(rate=1.0, vol=0.2)
    [path] = stepped([(params, np.zeros((4, 3)), substream(2, "v"))], 7)
    assert path.shape == (7, 4, 3)
    with pytest.raises(ValueError):
        list(euler_ou_blocks([(params, 0.0, substream(2, "v"))], 0))


def test_every_scenario_channel_contracts_at_the_grid_step():
    # an Euler OU chain contracts by |1 - rate DT| per step, so it is stable
    # only for rate * DT < 2; the fastest channel is the nonlinear noise
    channels = [v for v in vars(datastream).values() if isinstance(v, OuParams)]
    rates = [params.rate * DT for params in channels]
    assert all(0 < r < 2 for r in rates)
    assert max(rates) == NONLINEAR_NOISE_OU.rate * DT == 0.1


def test_channels_stepped_together_equal_each_stepped_alone():
    # a channel's rate, mean and vol reach only its own coordinates, and its
    # normals come from its own stream: stepped with others it has the bits
    # it has alone, and those of the one-channel whole-path recursion
    mean = substream(5, "mean").standard_normal((2, 3))
    channels = [
        (lambda: (OuParams(rate=0.8, mean=0.3, vol=0.5), 1.0, substream(5, "a"))),
        (lambda: (OuParams(rate=3.0, mean=mean, vol=0.1), np.ones((2, 3)), substream(5, "b"))),
        (lambda: (OuParams(rate=0.1, mean=-1.0, vol=2.0), np.zeros(4), substream(5, "c"))),
    ]
    for K in (1, PHI_BLOCK, 2 * PHI_BLOCK + 37):
        together = stepped([make() for make in channels], K)
        for make, path in zip(channels, together):
            [alone] = stepped([make()], K)
            assert np.array_equal(path, alone)
            assert np.array_equal(path, euler_ou_path(*make()[:2], K, DT, make()[2]))


def test_trajectory_basics_and_validation():
    tr = Trajectory(dt=0.5, x=np.arange(4.0), y=np.arange(4.0))
    assert tr.x.shape == (4, 1)  # 1-d x promoted to a column
    assert tr.n_steps == 4 and tr.x_dim == 1
    with pytest.raises(ValueError):
        Trajectory(dt=0.0, x=np.ones((2, 1)), y=np.ones(2))
    with pytest.raises(ValueError):
        Trajectory(dt=float("nan"), x=np.ones((2, 1)), y=np.ones(2))
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, x=np.ones((3, 1)), y=np.ones(2))
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, x=np.ones((2, 1)), y=np.ones(2), truth=np.ones(3))


def test_gen_periodic_structure():
    train, test = gen_periodic(5, n_steps=200)
    assert train.n_steps == test.n_steps == 200
    assert train.dt == 0.02
    assert train.x_dim == 1
    # truth channel is sin(h t) x by construction
    coeff = np.sin(PERIODIC_H * train.dt * np.arange(1, train.n_steps + 1))
    assert np.max(np.abs(train.truth - coeff * train.x[:, 0])) < 1e-14
    # noise channel is y - truth, starts near zero (xi_0 = 0)
    xi = train.y - train.truth
    assert abs(xi[0]) < 3 * PERIODIC_NOISE_OU.vol * np.sqrt(train.dt)
    # train and test are different draws
    assert not np.array_equal(train.x, test.x)


def test_gen_periodic_deterministic():
    a1, b1 = gen_periodic(77, n_steps=50)
    a2, b2 = gen_periodic(77, n_steps=50)
    assert np.array_equal(a1.y, a2.y)
    assert np.array_equal(b1.y, b2.y)
    a3, _ = gen_periodic(78, n_steps=50)
    assert not np.array_equal(a1.y, a3.y)


def test_gen_nonlinear_shared_truth_model():
    # replay the drifting network's parameter paths from the seed's phi-init
    # and phi-path substreams and price the truth neuron by neuron: one
    # network underlies both trajectories
    seed, K = 13, 60
    train, test = gen_nonlinear(seed, n_steps=K)
    assert train.x_dim == test.x_dim == NONLINEAR_X_DIM
    M, d = NONLINEAR_N_NEURONS, NONLINEAR_X_DIM + 2
    rng = substream(seed, "phi-init")
    phi_bar = PHI_INIT_SD * rng.standard_normal((M, d))
    phi0 = PHI_INIT_SD * rng.standard_normal((M, d))
    phi = euler_ou_path(OuParams(rate=PHI_RATE, mean=phi_bar, vol=PHI_VOL), phi0, K, DT,
                        substream(seed, "phi-path"))
    for traj in (train, test):
        for k in (0, 30, 59):
            want = NONLINEAR_AMPLITUDE / M * sum(sigma(traj.x[k], p) for p in phi[k])
            assert abs(traj.truth[k] - want) < 1e-12


def test_gen_nonlinear_deterministic():
    a1, b1 = gen_nonlinear(21, n_steps=40)
    a2, b2 = gen_nonlinear(21, n_steps=40)
    assert np.array_equal(a1.y, a2.y) and np.array_equal(b1.y, b2.y)


@pytest.mark.parametrize("K", [1, PHI_BLOCK - 1, PHI_BLOCK, PHI_BLOCK + 1, 2 * PHI_BLOCK + 37,
                               1000])
@pytest.mark.parametrize("scenario", ["periodic", "nonlinear"])
def test_gen_nonlinear_blocks_match_whole_path(K, scenario):
    # stepping every channel block by block draws the same normals and does
    # the same arithmetic as one whole-path draw per channel
    # (on either scenario; the name predates the periodic one's blocks)
    gen, oracle = {"periodic": (gen_periodic, whole_path_periodic),
                   "nonlinear": (gen_nonlinear, whole_path_nonlinear)}[scenario]
    for seed in (1, 2, 3):
        for traj, (x, y, truth) in zip(gen(seed, n_steps=K), oracle(seed, K, DT)):
            assert np.array_equal(traj.x, x.reshape(K, -1))
            assert np.array_equal(traj.y, y)
            assert np.array_equal(traj.truth, truth)


@pytest.mark.parametrize("K", [37, 100, 250])
def test_streams_are_non_anticipative(K):
    # a shorter horizon is a prefix of a longer one, bit for bit, across
    # PHI_BLOCK edges: no step depends on a later one
    for gen in (gen_periodic, gen_nonlinear):
        for short, full in zip(gen(8, K), gen(8, 1000)):
            assert np.array_equal(short.x, full.x[:K])
            assert np.array_equal(short.y, full.y[:K])
            assert np.array_equal(short.truth, full.truth[:K])


def test_gen_nonlinear_memory_is_bounded_by_the_block():
    # the outputs (x, noise, truth and y of both trajectories, 0.96 MB at
    # K = 10000) plus room for eight (PHI_BLOCK, M, d) buffers (0.4 MB each):
    # 4.2 MB, where the whole (K, M, d) path and its normals take 80 MB
    K = 10_000
    out_bytes = 2 * K * (NONLINEAR_X_DIM + 3) * 8
    block_bytes = PHI_BLOCK * NONLINEAR_N_NEURONS * (NONLINEAR_X_DIM + 2) * 8
    tracemalloc.start()
    try:
        gen_nonlinear(3, n_steps=K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out_bytes + 8 * block_bytes


# sha256 of the x, y and truth bytes of train and test, as the scenarios
# wrote them when their coefficients were config fields
SCENARIO_DIGESTS = {
    "periodic": [
        "5b5bdb4c952c1747a3dbdfd394a8ebf4d403629630e3e1722a05b6800e572deb",
        "70643962960f8985ced69cbb1a1c18103c781777cb8c50f53f65bbfe67aeecd9",
        "b25ef35d252f1a326c624e2261bc5bf5199588d352d51617c14b560ad7e1579b",
        "6fd060a91591e782cd3bae07000429ab233888c80820a82b4078c206fb0ada85",
        "c50a03d156910743986fdce185ca430357f276221067c3329fe1a644e855eb53",
        "7cc40eaf7a0b331c9f58c9da70f0a39b2fec58dafbcb99e9723db6418f144f2a",
    ],
    "nonlinear": [
        "de9b438212905b280fa75081e8555e60f15a13c8f0fa314abd93289b644ad678",
        "94d60b36e9b3775e571d0dee5fea65a30ce06784cfa317360048a52051e7a0df",
        "34c36117ef30bae7d7cb131079bf9b42d6c4c52db93cc9c88826f6422fb6dc3d",
        "49b0b43c7307d9be1d9eb4e898e97df63866ef2372dfd4aff3dde983296ce106",
        "e95b57876328c4780c846265dd7edea09a2c6433ff13cf2aca08aa48a6447dbb",
        "69d82e3f31d0444744338ad730370a55173fef70f6815ff351edab2e658ce50a",
    ],
}


@pytest.mark.parametrize("scenario, pair", [
    ("periodic", lambda: gen_periodic(5, n_steps=50)),
    ("nonlinear", lambda: gen_nonlinear(13, n_steps=40)),
])
def test_scenario_bits_are_pinned(scenario, pair):
    digests = [hashlib.sha256(getattr(traj, f).tobytes()).hexdigest()
               for traj in pair() for f in ("x", "y", "truth")]
    assert digests == SCENARIO_DIGESTS[scenario]


def test_response_second_moment():
    tr = Trajectory(dt=0.1, x=np.zeros((3, 1)), y=np.array([1.0, 2.0, 2.0]))
    assert abs(response_second_moment(tr) - 3.0) < 1e-15
