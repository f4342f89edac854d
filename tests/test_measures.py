import numpy as np
import pytest

from mfonline.datastream import Trajectory
from mfonline.measures import (
    WeightedMeasure,
    cost_u,
    cost_u_unreg,
    oos_mse,
    second_moment,
)
from mfonline.network import forward


def test_weighted_measure_validation():
    s = np.ones((3, 4))
    WeightedMeasure(samples=s, weights=np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError):
        WeightedMeasure(samples=s, weights=np.array([0.5, 0.6, -0.1]))
    with pytest.raises(ValueError):
        WeightedMeasure(samples=s, weights=np.array([0.5, 0.3, 0.1]))
    with pytest.raises(ValueError):
        WeightedMeasure(samples=s, weights=np.ones((3, 1)) / 3)
    with pytest.raises(ValueError):
        WeightedMeasure(samples=np.ones(3), weights=np.ones(3) / 3)


def test_ess():
    s = np.zeros((4, 3))
    uniform = WeightedMeasure(samples=s, weights=np.full(4, 0.25))
    assert abs(uniform.ess() - 4.0) < 1e-12
    point = WeightedMeasure(samples=s, weights=np.array([1.0, 0.0, 0.0, 0.0]))
    assert abs(point.ess() - 1.0) < 1e-12


def test_second_moment():
    thetas = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert abs(second_moment(thetas) - 2.5) < 1e-15
    m = WeightedMeasure(samples=thetas, weights=np.array([0.75, 0.25]))
    assert abs(second_moment(m) - (0.75 * 1.0 + 0.25 * 4.0)) < 1e-15


def test_cost_u_hand_value():
    thetas = np.array([[1.0, 0.5, 0.0], [2.0, -0.5, 0.2]])
    z = (np.array([0.7]), 0.3)
    lam = 0.1
    m = forward(thetas, z[0])[0].mean()
    expected = m * m - 2 * 0.3 * m + 0.5 * lam * second_moment(thetas)
    assert abs(cost_u(thetas, z, lam) - expected) < 1e-14
    assert abs(cost_u_unreg(thetas, z) - (m * m - 2 * 0.3 * m)) < 1e-14
    # penalty term is the only difference
    gap = cost_u(thetas, z, lam) - cost_u_unreg(thetas, z)
    assert abs(gap - 0.5 * lam * second_moment(thetas)) < 1e-14


def test_cost_u_weighted_measure():
    rng = np.random.default_rng(8)
    thetas = rng.normal(size=(10, 3))
    w = rng.random(10)
    w /= w.sum()
    m = WeightedMeasure(samples=thetas, weights=w)
    z = (rng.normal(size=1), 0.5)
    mv = forward(thetas, z[0])[0] @ w
    expected = mv * mv - 2 * 0.5 * mv + 0.5 * 0.2 * (np.sum(thetas**2, axis=1) @ w)
    assert abs(cost_u(m, z, 0.2) - expected) < 1e-13


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
    # the column loop must give the bits of the former np.sum(thetas**2, axis=1)
    rng = np.random.default_rng(d)
    thetas = 0.7 * rng.standard_normal((20000, d))
    w = rng.random(20000)
    w /= w.sum()
    sq = np.sum(thetas**2, axis=1)
    assert np.float64(second_moment(thetas)).tobytes() == np.float64(sq.mean()).tobytes()
    measure = WeightedMeasure(samples=thetas, weights=w)
    assert np.float64(second_moment(measure)).tobytes() == np.float64(sq @ w).tobytes()
