"""Closed-form constants from the convergence analysis, made checkable.

Given envelope bounds C_sigma (neuron sup norm), C_z (response sup norm),
C_1 (neuron gradient growth constant) and the run parameters lam, beta,
dimension d, the analysis yields explicit constants:

    C_osc      = (4 / beta) (C_sigma^2 + C_z C_sigma)
    alpha      = (lam / beta) exp(-C_osc)
    PL holds iff alpha beta^2 > 8 C_sigma^2 C_1^2, and then
    C_PL       = (2 C_sigma^2 + beta) / (alpha beta^2 - 8 C_sigma^2 C_1^2)
    Q*         = (beta d / lam) exp(C_osc)

As beta grows, C_osc vanishes and C_PL tends to 1 / lam.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundSpec:
    """Envelope constants and run parameters for the bound formulas."""

    c_sigma: float
    c_z: float
    c_1: float
    lam: float
    beta: float
    d: int

    def __post_init__(self):
        for name in ("c_sigma", "c_z", "c_1", "lam", "beta"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if self.d < 1:
            raise ValueError("d must be a positive dimension")


@dataclass(frozen=True)
class TheoryConstants:
    c_osc: float
    alpha: float
    pl_condition_holds: bool
    c_pl: float | None
    q_star: float


def compute_constants(spec: BoundSpec) -> TheoryConstants:
    """Evaluate the constants for one BoundSpec; see module docstring.

    exp(C_osc) can overflow for tiny beta; Q* is then +inf, which keeps
    every Q*-based bound trivially true and is reported as is.
    """
    c_osc = (4.0 / spec.beta) * (spec.c_sigma**2 + spec.c_z * spec.c_sigma)
    alpha = (spec.lam / spec.beta) * math.exp(-c_osc)
    gap = alpha * spec.beta**2 - 8.0 * spec.c_sigma**2 * spec.c_1**2
    holds = gap > 0
    c_pl = (2.0 * spec.c_sigma**2 + spec.beta) / gap if holds else None
    with np.errstate(over="ignore"):
        q_star = float((spec.beta * spec.d / spec.lam) * np.exp(c_osc))
    return TheoryConstants(
        c_osc=c_osc,
        alpha=alpha,
        pl_condition_holds=holds,
        c_pl=c_pl,
        q_star=q_star,
    )

