import math

import numpy as np
import pytest

from mfonline.theory import BoundSpec, compute_constants


def test_hand_case_pl_fails():
    spec = BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=4.0, d=1)
    c = compute_constants(spec)
    assert abs(c.c_osc - 2.0) < 1e-9
    assert abs(c.alpha - 0.25 * math.exp(-2.0)) < 1e-9
    assert not c.pl_condition_holds
    assert c.c_pl is None
    assert abs(c.q_star - 4.0 * math.exp(2.0)) < 1e-9


def test_hand_case_pl_holds():
    spec = BoundSpec(c_sigma=0.1, c_z=0.1, c_1=0.1, lam=1.0, beta=1.0, d=1)
    c = compute_constants(spec)
    assert abs(c.c_osc - 0.08) < 1e-12
    assert abs(c.alpha - math.exp(-0.08)) < 1e-12
    assert c.pl_condition_holds
    expected_cpl = 1.02 / (math.exp(-0.08) - 0.0008)
    assert abs(c.c_pl - expected_cpl) < 1e-9
    assert abs(c.q_star - math.exp(0.08)) < 1e-12


def test_cpl_high_temperature_limit():
    spec = BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=1e6, d=1)
    c = compute_constants(spec)
    assert c.pl_condition_holds
    assert abs(c.c_pl - 1.0 / spec.lam) <= 1e-3

    # the limit also holds for a different lam
    spec2 = BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=2.5, beta=1e6, d=1)
    c2 = compute_constants(spec2)
    assert abs(c2.c_pl - 1.0 / 2.5) <= 1e-3


def test_qstar_overflow_reported_as_inf():
    spec = BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=1e-8, d=1)
    c = compute_constants(spec)
    assert math.isinf(c.q_star)
    assert not c.pl_condition_holds


def test_qstar_monotonicity_threshold():
    # dQ*/dbeta > 0 iff beta > 4 c_sigma (c_sigma + c_z) = 8 here
    def q(beta):
        return compute_constants(
            BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=beta, d=2)).q_star

    above = [q(b) for b in np.linspace(9.0, 40.0, 12)]
    assert all(b2 > b1 for b1, b2 in zip(above, above[1:]))
    below = [q(b) for b in np.linspace(1.0, 7.0, 12)]
    assert all(b2 < b1 for b1, b2 in zip(below, below[1:]))


def test_boundspec_validation():
    with pytest.raises(ValueError):
        BoundSpec(c_sigma=0.0, c_z=1.0, c_1=1.0, lam=1.0, beta=1.0, d=1)
    with pytest.raises(ValueError):
        BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=-1.0, beta=1.0, d=1)
    # NaN fails every comparison, so a check written as `x <= 0` lets it pass
    ok = dict(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=1.0, d=1)
    for name in ("c_sigma", "c_z", "c_1", "lam", "beta"):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            BoundSpec(**{**ok, name: math.nan})
    with pytest.raises(ValueError):
        BoundSpec(c_sigma=1.0, c_z=1.0, c_1=1.0, lam=1.0, beta=1.0, d=0)

