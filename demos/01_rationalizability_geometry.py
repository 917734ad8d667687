"""
Where a matching sits inside its polytope decides everything
============================================================

A 2x2 market with margins p = q = (0.5, 0.5) has a one-dimensional set of
feasible matchings: the segment traced by the first cell mu[0, 0] between
0 and 0.5.  Walking that segment makes the rationalizability story visible:
only the two endpoints (the boundary) can be optimal for some non-separable
surplus, while everything strictly inside - the barycenter most of all -
cannot.
"""

import numpy as np

from matchident import (
    Margins,
    Matching,
    check_rationalizable,
    dimension,
    is_boundary,
)

np.set_printoptions(precision=4, suppress=True)

margins = Margins([0.5, 0.5], [0.5, 0.5])

# The polytope is tiny: its dimension is (d_x - 1) * (d_y - 1) = 1, and its
# vertices are the two "pure" matchings (everyone with the other type, or
# everyone with their own type).  They are the segment's endpoints, where
# the first cell is as small or as large as the margins allow.
print("polytope dimension:", dimension(margins))
p1, q1 = margins.p[0], margins.q[0]
for first in (max(0.0, p1 + q1 - 1.0), min(p1, q1)):
    print("vertex:")
    print(np.array([[first, p1 - first], [q1 - first, 1.0 - p1 - q1 + first]]))

# Three observations along the segment, from the boundary inward.
observations = {
    "assortative endpoint": Matching([[0.5, 0.0], [0.0, 0.5]], margins),
    "interior point": Matching([[0.35, 0.15], [0.15, 0.35]], margins),
    "barycenter p (x) q": Matching(np.outer(margins.p, margins.q), margins),
}

for label, matching in observations.items():
    verdict = check_rationalizable(matching)
    print(f"\n--- {label} ---")
    print("mu:")
    print(matching.mu)
    print("on the boundary:", is_boundary(matching))
    print("rationalizable: ", verdict.rationalizable)
    if verdict.witness is not None:
        # The witness prices exactly the cells the observation avoids.
        print("witness surplus (zero on matched cells, -1 on avoided ones):")
        print(verdict.witness.phi)
    if verdict.t_star is not None:
        print(f"stretch to the boundary t* = {verdict.t_star:.4f}"
              f" (1 means already there)")
        print("boundary point mu* reached by the ray:")
        print(verdict.mu_star.mu)
    else:
        print("the ray is undefined: the barycenter has no direction to stretch")

# The interior point fails not because of its numbers but because of its
# position: scaling it away from the barycenter by t* = 2.5 lands on the
# assortative endpoint, which is rationalizable.
