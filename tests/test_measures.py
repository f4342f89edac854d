import numpy as np
import pytest

from mfonline.datastream import Trajectory
from mfonline.equilibrium import WeightedMeasure, draw_prior_samples, solve_mu_star
from mfonline.measures import (
    cost_u,
    cost_u_unreg,
    oos_mse,
    second_moment,
    sq_norms,
)
from mfonline.network import forward
from mfonline.seeding import substream
from measure_oracle import predict, weighted_second_moment


def test_ess():
    uniform = WeightedMeasure(weights=np.full(4, 0.25), m=0.0, q=0.0)
    assert abs(uniform.ess() - 4.0) < 1e-12
    point = WeightedMeasure(weights=np.array([1.0, 0.0, 0.0, 0.0]), m=0.0, q=0.0)
    assert abs(point.ess() - 1.0) < 1e-12


def test_second_moment():
    thetas = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert abs(second_moment(thetas) - 2.5) < 1e-15
    with pytest.raises(ValueError, match="2-d"):
        second_moment(np.ones(3))


def test_cost_u_hand_value():
    thetas = np.array([[1.0, 0.5, 0.0], [2.0, -0.5, 0.2]])
    x, y, lam = np.array([0.7]), 0.3, 0.1
    m = forward(thetas, x)[0].mean()
    q = second_moment(thetas)
    assert abs(q - (1.25 + 4.29) / 2) < 1e-15
    assert abs(predict(thetas, x) - m) < 1e-15
    expected = m * m - 2 * 0.3 * m + 0.5 * lam * q
    assert abs(cost_u(m, q, y, lam) - expected) < 1e-14
    assert abs(cost_u_unreg(m, y) - (m * m - 2 * 0.3 * m)) < 1e-14
    # penalty term is the only difference
    gap = cost_u(m, q, y, lam) - cost_u_unreg(m, y)
    assert abs(gap - 0.5 * lam * q) < 1e-14


def test_cost_u_weighted_measure():
    # a solved measure priced from its moments costs what its weighted
    # samples cost by the direct formula
    samples = draw_prior_samples(500, 3, 0.2, substream(8, "cost"))
    x, y = np.array([0.6]), 0.5
    _, measure = solve_mu_star(samples, (x, y), beta=0.1)
    mv = forward(samples, x)[0] @ measure.weights
    expected = mv * mv - 2 * 0.5 * mv + 0.5 * 0.2 * (np.sum(samples**2, axis=1) @ measure.weights)
    assert abs(cost_u(measure.m, measure.q, y, 0.2) - expected) < 1e-13


def _tiny_test_traj():
    return Trajectory(dt=0.1, x=np.array([[0.4], [0.9], [-0.3]]), y=np.array([0.1, -0.2, 0.05]))


def test_oos_mse_from_predictions():
    test = _tiny_test_traj()
    preds = np.array([0.0, 0.0, 0.0])
    assert abs(oos_mse(preds, test) - np.mean(test.y**2)) < 1e-15
    with pytest.raises(ValueError):
        oos_mse(np.zeros(2), test)


@pytest.mark.parametrize("d", [3, 5])
def test_second_moment_bitwise_equal_to_row_sums(d):
    # the column loop must give the bits of the former np.sum(thetas**2, axis=1);
    # an ensemble's q is one dot product of the flattened array, within
    # rounding of the mean of those row sums
    rng = np.random.default_rng(d)
    thetas = 0.7 * rng.standard_normal((20000, d))
    w = rng.random(20000)
    w /= w.sum()
    sq = np.sum(thetas**2, axis=1)
    assert sq_norms(thetas).tobytes() == sq.tobytes()
    flat = thetas.ravel()
    assert np.float64(second_moment(thetas)).tobytes() == np.float64(flat @ flat / 20000).tobytes()
    assert abs(second_moment(thetas) - sq.mean()) < 1e-14 * sq.mean()
    assert (np.float64(sq_norms(thetas) @ w).tobytes()
            == np.float64(weighted_second_moment(thetas, w)).tobytes())
