import numpy as np
import pytest

from mfonline.measures import predict
from mfonline.network import activations, forward
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


def test_activations_into_buffers_is_bitwise_equal():
    # np.dot and np.matmul agree bit for bit on batches of K >= 2
    # covariates, not on a (1, n) batch or an (n,) covariate at n >= 3
    rng = np.random.default_rng(4)
    for n in (1, 3, 5):
        thetas = rng.normal(size=(80, n + 2))
        for K in (None, 1, 2, 7, 1000):  # None: one covariate (n,)
            X = rng.normal(size=(n,) if K is None else (K, n))
            # the kernel's operations, written as one allocating expression
            expr = np.tanh(X @ thetas[:, 1:-1].T + thetas[:, -1])
            assert np.array_equal(activations(thetas, X), expr)
            th_buf = np.full(expr.shape, np.nan)
            assert activations(thetas, X, out=th_buf) is th_buf
            assert np.array_equal(th_buf, expr)
            # the buffer is reused, not read: a second call gives the same bits
            activations(rng.normal(size=thetas.shape), X, out=th_buf)
            activations(thetas, X, out=th_buf)
            assert np.array_equal(th_buf, expr)
            vals, th = forward(thetas, X)
            assert np.array_equal(th, expr)
            assert np.array_equal(vals, thetas[:, 0] * expr)


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
    with pytest.raises(ValueError):
        activations(np.ones((4, 5)), np.ones((6, 2)))


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
