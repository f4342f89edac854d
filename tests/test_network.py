import numpy as np
import pytest

from mfonline.measures import predict
from mfonline.network import forward
from measure_oracle import weighted_predict
from neuron_oracle import grad_sigma, sigma

# high-precision reference: 2 * tanh(0.5493061) computed with mpmath at 30 digits
FROZEN_SIGMA = 0.999999933498916


def test_sigma_frozen_oracle():
    val = sigma(np.array([0.5493061]), [2.0, 1.0, 0.0])
    assert abs(val - FROZEN_SIGMA) < 1e-12


def test_sigma_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 5)
        x = rng.normal(size=n)
        t = rng.normal(size=n + 2)
        expected = t[0] * np.tanh(t[1:-1] @ x + t[-1])
        assert abs(sigma(x, t) - expected) < 1e-14


def test_grad_sigma_finite_differences():
    # acceptance-level gradient check at 1e-7
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(10):
        n = int(rng.integers(1, 4))
        x = rng.normal(size=n)
        t = rng.normal(size=n + 2)
        g = grad_sigma(x, t)
        for j in range(t.size):
            tp, tm = t.copy(), t.copy()
            tp[j] += eps
            tm[j] -= eps
            fd = (sigma(x, tp) - sigma(x, tm)) / (2 * eps)
            assert abs(g[j] - fd) < 1e-7


def test_forward_matches_scalar():
    rng = np.random.default_rng(1)
    thetas = rng.normal(size=(17, 5))
    X = rng.normal(size=(4, 3))
    vals, th = forward(thetas, X[0])
    assert vals.shape == th.shape == (17,)
    for i in range(17):
        assert abs(vals[i] - sigma(X[0], thetas[i])) < 1e-14
        assert abs(th[i] - grad_sigma(X[0], thetas[i])[0]) < 1e-14

    vals, th = forward(thetas, X)
    assert vals.shape == th.shape == (4, 17)
    for k in range(4):
        for i in range(17):
            assert abs(vals[k, i] - sigma(X[k], thetas[i])) < 1e-14
            assert abs(th[k, i] - grad_sigma(X[k], thetas[i])[0]) < 1e-14


def test_forward_into_buffers_is_bitwise_equal():
    rng = np.random.default_rng(4)
    thetas = rng.normal(size=(9, 4))
    for X in (rng.normal(size=(6, 2)), rng.normal(size=2)):
        shape = X.shape[:-1] + (9,)
        bufs = np.full(shape, np.nan), np.full(shape, np.nan)
        vals, th = forward(thetas, X, out=bufs)
        assert vals is bufs[0] and th is bufs[1]
        want_vals, want_th = forward(thetas, X)
        assert np.array_equal(vals, want_vals) and np.array_equal(th, want_th)
        # the kernel's operations, written as one allocating expression
        expr = np.tanh(X @ thetas[:, 1:-1].T + thetas[:, -1])
        assert np.array_equal(th, expr) and np.array_equal(vals, thetas[:, 0] * expr)
        # the buffers are reused, not read: a second call gives the same bits
        forward(rng.normal(size=(9, 4)), X, out=bufs)
        forward(thetas, X, out=bufs)
        assert np.array_equal(bufs[0], want_vals) and np.array_equal(bufs[1], want_th)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        sigma([1.0, 2.0], [1.0, 1.0, 1.0])  # needs length 4
    with pytest.raises(ValueError):
        grad_sigma([1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        forward(np.ones((4, 5)), [1.0])
    with pytest.raises(ValueError):
        forward(np.ones((4, 5)), np.ones((6, 2)))
    with pytest.raises(ValueError):
        forward(np.ones(5), np.ones(3))
    with pytest.raises(ValueError):
        forward(np.ones((4, 3)), 1.0)  # a covariate is a vector, not a scalar


def test_predict_uniform_and_weighted():
    rng = np.random.default_rng(2)
    x = rng.normal(size=2)
    thetas = rng.normal(size=(6, 4))
    vals, _ = forward(thetas, x)
    assert abs(predict(thetas, x) - vals.mean()) < 1e-15

    # an ensemble that repeats each row in proportion to its weight is the
    # weighted measure: its prediction is the weighted one
    counts = rng.integers(1, 5, size=6)
    w = counts / counts.sum()
    repeated = np.repeat(thetas, counts, axis=0)
    assert abs(predict(repeated, x) - weighted_predict(thetas, w, x)) < 1e-15
