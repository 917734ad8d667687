"""Property-based checks, derandomized so that tier-1 stays deterministic.

Markets are drawn with small integer weights and quarter-integer surpluses,
so exact ties occur; a property must then hold through them too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matchident import (
    BOUNDARY_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    Margins,
    Matching,
    Surplus,
    barycenter,
    check_rationalizable,
    face_normal,
    gauge,
    is_boundary,
    is_maximizer,
    is_nonseparable,
    maximize_surplus,
    total_surplus,
)
from matchident.identify import _certifies
from conftest import vertices_for


@st.composite
def markets(draw, max_side: int = 5) -> tuple[Margins, np.ndarray]:
    d_x, d_y = draw(st.integers(2, max_side)), draw(st.integers(2, max_side))
    p = np.array(draw(st.lists(st.integers(1, 9), min_size=d_x, max_size=d_x)), float)
    q = np.array(draw(st.lists(st.integers(1, 9), min_size=d_y, max_size=d_y)), float)
    cells = draw(st.lists(st.integers(-20, 20), min_size=d_x * d_y, max_size=d_x * d_y))
    return Margins(p / p.sum(), q / q.sum()), np.reshape(cells, (d_x, d_y)) / 4.0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(market=markets(), exponent=st.floats(-12.0, 12.0))
def test_surplus_verdicts_are_invariant_under_rescaling(market, exponent):
    """The LP vertex, separability and the verdicts on the vertex and the
    barycenter are the same for ``phi`` and ``t * phi``, t in [1e-12, 1e12]."""
    margins, phi = market
    scaled = Surplus(10.0**exponent * phi)
    base = maximize_surplus(Surplus(phi), margins)
    solution = maximize_surplus(scaled, margins)
    np.testing.assert_array_equal(solution.mu_opt.mu, base.mu_opt.mu)
    assert is_nonseparable(scaled, margins) == is_nonseparable(Surplus(phi), margins)
    verdict = check_rationalizable(solution.mu_opt)
    assert verdict.rationalizable and verdict.checks.maximizer
    assert is_maximizer(scaled, base.mu_opt)
    bary = barycenter(margins)
    assert is_maximizer(scaled, bary) == is_maximizer(Surplus(phi), bary)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(market=markets(max_side=4))
def test_lp_optimum_is_certified_on_degenerate_margins(market):
    """Integer-weight margins have equal partial sums, so the bases are
    degenerate: the LP value is still the vertex maximum, and the duals
    certify it in closed form."""
    margins, phi = market
    solution = maximize_surplus(Surplus(phi), margins)
    scale = float(np.abs(phi).max())
    best = max(total_surplus(v, Surplus(phi)) for v in vertices_for(margins))
    assert abs(solution.value - best) <= OPTIMALITY_TOL * scale
    slack = solution.dual_f[:, None] + solution.dual_g[None, :] - phi
    assert slack.min() >= -SEPARABILITY_TOL * scale
    assert np.abs(slack[solution.mu_opt.mu > 0.0]).max() <= SEPARABILITY_TOL * scale
    dual_value = margins.p @ solution.dual_f + margins.q @ solution.dual_g
    assert abs(solution.value - dual_value) <= OPTIMALITY_TOL * scale


@st.composite
def observations(draw) -> Matching:
    """A mixture, with small integer weights, of the barycenter and up to
    three LP vertices.  Without barycenter weight the cells that all chosen
    vertices leave empty stay exact zeros, so boundary points occur too."""
    margins, phi = draw(markets(max_side=8))
    d_x, d_y = margins.shape
    cells = st.lists(st.integers(-20, 20), min_size=d_x * d_y, max_size=d_x * d_y)
    surpluses = [phi] + [
        np.reshape(draw(cells), (d_x, d_y)) for _ in range(draw(st.integers(0, 2)))
    ]
    vertices = [maximize_surplus(Surplus(s), margins).mu_opt.mu for s in surpluses]
    weights = draw(
        st.lists(st.integers(0, 4), min_size=len(vertices) + 1, max_size=len(vertices) + 1)
        .filter(lambda w: any(w[1:]))
    )
    mixture = weights[0] * barycenter(margins).mu
    for weight, vertex in zip(weights[1:], vertices):
        mixture = mixture + weight * vertex
    return Matching(mixture / sum(weights), margins)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(mu=observations())
def test_gauge_ray_exits_through_a_face_it_shrinks_toward(mu):
    """t* >= 1; rationalizable <=> boundary, with a certified witness; the
    exit face is a nonempty set of shrinking cells, empty at mu*, and its
    normal is nonpositive, zero off the face and of unit pairing with the
    ray."""
    verdict = check_rationalizable(mu)
    assert verdict.rationalizable == is_boundary(mu)
    if verdict.rationalizable:
        assert _certifies(verdict.witness.phi, mu)
    if verdict.t_star is None:  # the barycenter itself: no ray
        return
    ray = gauge(mu)
    assert ray.t_star >= 1.0 and verdict.t_star == ray.t_star
    direction = mu.mu - barycenter(mu.margins).mu
    assert ray.binding.any()
    assert not np.any(ray.binding & (direction >= 0.0))
    assert ray.mu_star.mu[ray.binding].max() <= BOUNDARY_TOL
    normal = face_normal(mu, ray)
    assert normal.max() <= 0.0
    assert np.all(normal[~ray.binding] == 0.0)
    assert abs(np.sum(normal * direction) - 1.0) <= 1e-12
