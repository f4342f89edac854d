"""Two routes to the instantaneous equilibrium, and the identities that
certify them.

For a single observation z = (x, y) the equilibrium density is a Gibbs
tilt of the Gaussian prior whose mean prediction m solves m = Phi(m).
Route one discretizes the density on a grid over the single parameter
theta of the toy neuron tanh(theta x); route two reweights prior samples
of network parameters (a, w, b), here the toy neuron's rows (1, theta, 0).
Both solve the same fixed point with the same safeguarded Newton root
finder, so their disagreement is pure Monte Carlo error.

The free-energy gap F(rho) - F(mu*) of any perturbed density splits into
beta times a KL term, which is nonnegative and computable two ways.
"""

import numpy as np

from mfonline.equilibrium import (
    QuadratureGrid,
    draw_prior_samples,
    quadrature_free_energy,
    solve_mu_star,
    solve_mu_star_quadrature,
    toy_rows,
    verify_dym_formula,
    verify_gap_decomposition,
)
from mfonline.seeding import substream

beta, lam = 0.02, 0.1
z = (1.1, 0.25)
grid = QuadratureGrid(-8.0, 8.0, 2001)

m_quad, mu = solve_mu_star_quadrature(z, beta, lam, grid)
print(f"quadrature:  m* = {m_quad:+.6f}   density mass = {grid.integrate(mu):.12f}")

rng = substream(99, "demo-is")
samples = toy_rows(draw_prior_samples(200000, 1, beta / lam, rng))
m_is, measure = solve_mu_star(samples, z, beta)
print(f"sampling:    m* = {m_is:+.6f}   ESS = {measure.ess():.0f} of {len(samples)}")
print(f"route gap: {abs(m_is - m_quad):.2e}  (tolerance in the verify suite: 3e-3)")

# perturb the equilibrium and decompose the free-energy gap
rho = mu * np.exp(0.3 * np.tanh(0.7 * grid.thetas))
rho /= grid.integrate(rho)
rep = verify_gap_decomposition(rho, (m_quad, mu), z, beta, lam, grid)
print(f"gap F(rho)-F(mu*) = {rep.lhs:.6f}  vs beta*KL = {rep.rhs:.6f}  "
      f"(diff {rep.abs_diff:.1e}, nonnegative: {rep.lhs >= 0})")

dy = verify_dym_formula(z, beta, lam, grid)
print(f"dm*/dy analytic {dy.analytic:.6f}  central-diff {dy.finite_diff:.6f}  "
      f"(diff {dy.abs_diff:.1e})")

f_mu = quadrature_free_energy(mu, z, beta, lam, grid)
f_rho = quadrature_free_energy(rho, z, beta, lam, grid)
print(f"free energies: F(mu*) = {f_mu:.6f} <= F(rho) = {f_rho:.6f}")
