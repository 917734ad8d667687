"""
Rationalizing an interior observation by stretching it to the boundary
======================================================================

An interior matching maximizes no admissible surplus.  The gauge route
repairs it geometrically: push the observation along the ray from the
barycenter until the polytope's boundary stops it, read off which cells hit
zero, and price exactly those cells.  The result is a boundary proxy mu*, a
supporting surplus, and a canonical surplus estimate.
"""

import numpy as np

from matchident import Margins, Matching, is_maximizer, rationalize_gauge, total_surplus

np.set_printoptions(precision=4, suppress=True)

margins = Margins([0.5, 0.5], [0.5, 0.5])
observed = Matching([[0.35, 0.15], [0.15, 0.35]], margins)
bary = np.outer(margins.p, margins.q)

ray, identified = rationalize_gauge(observed)

print("observed matching:")
print(observed.mu)
print("\nstretch to the boundary: t* =", ray.t_star)
print("boundary proxy mu* = bary + t*(mu - bary):")
print(ray.mu_star.mu)
print("binding cells (their mass hits zero first):", np.argwhere(ray.binding).tolist())

# The identified surplus penalizes the binding cells and nothing else; its
# scale is fixed by the normalization <phi*, mu - bary> = 1.
print("\nidentified surplus (raw):")
print(identified.phi_raw.phi)
print("canonical part (separable component removed):")
print(identified.phi_canonical.phi)
print("diagnostics:", identified.diagnostics)

# Two sanity checks tie the construction together.  First, the proxy mu*
# really does maximize the identified surplus over the whole polytope.
print("\nmu* maximizes the identified surplus:",
      is_maximizer(identified.phi_raw, ray.mu_star))

# Second, the value of the identified surplus along the ray grows linearly
# in the stretch, so the pairing <phi_hat, mu - bary> recovers t* itself.
pairing = total_surplus(observed, identified.phi_raw) - float(
    np.sum(identified.phi_raw.phi * bary)
)
print("pairing <phi_hat, mu - bary> =", round(pairing, 12), "(equals t*)")
