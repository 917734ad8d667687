"""
Maximizing total surplus and reading the dual prices
====================================================

A 3x4 labor market: three worker types, four firm types, and a surplus with
complementarity (productive workers gain more at productive firms).  The
exact solver returns the optimal assignment together with dual "wages" and
"profits" that certify optimality through complementary slackness.
"""

import numpy as np

from matchident import Margins, Surplus, is_nonseparable, maximize_surplus, total_surplus

np.set_printoptions(precision=4, suppress=True)

margins = Margins([0.5, 0.3, 0.2], [0.1, 0.2, 0.3, 0.4])

# Multiplicative complementarity: skill levels x in {1,2,3}, firm
# productivities y in {1,2,3,4}, surplus = x * y / 4.
skill = np.array([1.0, 2.0, 3.0])
productivity = np.array([1.0, 2.0, 3.0, 4.0])
phi = Surplus(np.outer(skill, productivity) / 4.0)
print("surplus matrix:")
print(phi.phi)

solution = maximize_surplus(phi, margins)
print("\noptimal value:", round(solution.value, 6))
print("optimal matching (note the assortative staircase):")
print(solution.mu_opt.mu)

# Duals certify the value: p @ f + q @ g equals the primal value, the
# "pricing slack" f_x + g_y - phi_xy is nonnegative everywhere, and it
# vanishes on every matched cell.
dual_value = margins.p @ solution.dual_f + margins.q @ solution.dual_g
slack = solution.dual_f[:, None] + solution.dual_g[None, :] - phi.phi
print("\nworker prices f:", solution.dual_f)
print("firm prices g:  ", solution.dual_g)
print("duality gap:", abs(solution.value - dual_value))
print("min slack:", slack.min(), " max slack on matched cells:",
      np.abs(slack[solution.mu_opt.mu > 1e-9]).max())

# Homogeneity: doubling the surplus doubles the value but moves nothing.
doubled = maximize_surplus(Surplus(2.0 * phi.phi), margins)
print("\nvalue under 2*phi:", round(doubled.value, 6),
      "| same optimizer:", np.array_equal(doubled.mu_opt.mu, solution.mu_opt.mu))

# A separable surplus creates no matching incentives: every feasible
# matching earns exactly the same total, so the argmax is the whole
# polytope and the surplus cannot discriminate between observations.
separable = Surplus(skill[:, None] + productivity[None, :])
print("\nseparable phi discriminates:", is_nonseparable(separable, margins))
flat = maximize_surplus(separable, margins)
bary_value = total_surplus(
    solution.mu_opt, separable
)  # any matching gives this number
print("LP value:", round(flat.value, 6), "| value at an arbitrary matching:",
      round(bary_value, 6))
