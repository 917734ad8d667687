"""Property-based checks, derandomized so that tier-1 stays deterministic.

Markets are drawn with small integer weights and quarter-integer surpluses,
so exact ties occur; a property must then hold through them too.  The
entropic markets add tiny masses, large surplus scales and large separable
shifts.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matchident import (
    BOUNDARY_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    EntropyModel,
    Margins,
    Matching,
    NonInteriorError,
    Surplus,
    barycenter,
    check_rationalizable,
    decompose_separable,
    gauge,
    identify_entropy,
    is_boundary,
    is_maximizer,
    is_nonseparable,
    maximize_surplus,
    solve_regularized,
    total_surplus,
)
from matchident.identify import _certifies
from conftest import assert_ipfp_certificate, vertices_for


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
    vertices leave empty stay exact zeros, so boundary points occur too.
    A row type may get a small mass, 1e-6 or 1e-9, and one of its cells the
    entry 0 or +-BOUNDARY_TOL, the mass moved around a cycle through the
    largest cell off its row and column."""
    margins, phi = draw(markets(max_side=8))
    d_x, d_y = margins.shape
    small = draw(st.sampled_from([None, 1e-6, 1e-9]))
    if small is not None:
        x = draw(st.integers(0, d_x - 1))
        p = margins.p * (1.0 - small) / (1.0 - margins.p[x])
        p[x] = small
        margins = Margins(p, margins.q)
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
    mixture /= sum(weights)
    if small is not None:
        y = draw(st.integers(0, d_y - 1))
        entry = draw(st.sampled_from([0.0, BOUNDARY_TOL, -BOUNDARY_TOL]))
        off = mixture.copy()
        off[x, :] = off[:, y] = -np.inf
        x2, y2 = np.unravel_index(np.argmax(off), off.shape)
        moved = mixture[x, y] - entry
        mixture[x, y] = entry
        mixture[x, y2] += moved
        mixture[x2, y] += moved
        mixture[x2, y2] -= moved
    return Matching(mixture, margins)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(mu=observations())
def test_gauge_ray_exits_through_a_face_it_shrinks_toward(mu):
    """t* >= 1, and a boundary matching is its own exit point; rationalizable
    <=> boundary, with a certified witness; the exit face is a nonempty set
    of shrinking cells, empty at mu*, and its normal is nonpositive, zero
    off the face and of unit pairing with the ray."""
    verdict = check_rationalizable(mu)
    assert verdict.rationalizable == is_boundary(mu)
    if verdict.rationalizable:
        assert _certifies(verdict.witness.phi, mu)
    if verdict.t_star is None:  # the barycenter itself: no ray
        return
    ray = gauge(mu)
    assert ray.t_star >= 1.0 and verdict.t_star == ray.t_star
    if verdict.rationalizable:
        assert ray.t_star == 1.0
        np.testing.assert_array_equal(ray.mu_star.mu, mu.mu)
    direction = mu.mu - barycenter(mu.margins).mu
    assert ray.binding.any()
    assert not np.any(ray.binding & (direction >= 0.0))
    assert ray.mu_star.mu[ray.binding].max() <= BOUNDARY_TOL
    normal = ray.normal
    assert normal.max() <= 0.0
    assert np.all(normal[~ray.binding] == 0.0)
    assert abs(np.sum(normal * direction) - 1.0) <= 1e-12


@st.composite
def entropic_markets(draw) -> tuple[Margins, np.ndarray]:
    """Shapes from 2x2 to 30x30; uniform margins, random ones, or random ones
    with a row and a column type of relative mass 1e-9 or 1e-12; a normal
    surplus at scale 1 to 1e4, rounded to quarter integers (ties) or not,
    plus separable shifts of +-1e7 or not."""
    d_x, d_y = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "random", "tiny"]))
    if kind == "uniform":
        p, q = np.ones(d_x), np.ones(d_y)
    else:
        p, q = rng.uniform(0.2, 1.0, d_x), rng.uniform(0.2, 1.0, d_y)
    if kind == "tiny":
        p[draw(st.integers(0, d_x - 1))] = draw(st.sampled_from([1e-9, 1e-12])) * p.sum()
        q[draw(st.integers(0, d_y - 1))] = draw(st.sampled_from([1e-9, 1e-12])) * q.sum()
    phi = rng.standard_normal((d_x, d_y))
    if draw(st.booleans()):
        phi = np.round(4.0 * phi) / 4.0
    phi *= 10.0 ** draw(st.floats(0.0, 4.0))
    if draw(st.booleans()):
        phi += 1e7 * (rng.choice([-1.0, 1.0], (d_x, 1)) + rng.choice([-1.0, 1.0], d_y))
    return Margins(p / p.sum(), q / q.sum()), phi


def test_entropic_solves_converge_with_a_certificate():
    """Every market converges and carries the shannon certificate, whether
    the sweeps finish it or the Newton phase does, and also where the
    Newton phase leaves subnormal cells."""
    paths = Counter()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(market=entropic_markets())
    def check(market):
        margins, phi = market
        _, report = solve_regularized(EntropyModel.shannon(), Surplus(phi), margins)
        assert_ipfp_certificate(phi, margins, report.mu.mu)
        mu = report.mu.mu
        subnormal = bool(np.any((mu > 0.0) & (mu < np.finfo(float).tiny)))
        paths[report.newton_steps > 0, subnormal] += 1

    check()
    assert paths[False, False] and paths[True, False] and paths[True, True]


def test_shannon_identification_round_trips_the_entropic_solve():
    """Identifying the shannon surplus of a solved market gives back the
    doubly centred ``phi``, within a few ulps of ``max|phi|`` per term of
    the centring's sums, or names a cell the solve left at most
    ``BOUNDARY_TOL``, where the gradient is undefined."""
    outcomes = Counter()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(market=entropic_markets())
    def check(market):
        margins, phi = market
        _, report = solve_regularized(EntropyModel.shannon(), Surplus(phi), margins)
        try:
            identified = identify_entropy(report.mu, EntropyModel.shannon())
        except NonInteriorError as error:
            assert report.mu.mu[error.cell] <= BOUNDARY_TOL
            outcomes["domain"] += 1
            return
        truth = decompose_separable(Surplus(phi), margins).residual
        bound = 8 * sum(margins.shape) * np.finfo(float).eps * np.abs(phi).max()
        assert np.abs(identified.phi_canonical.phi - truth).max() <= bound
        outcomes["answered"] += 1

    check()
    assert outcomes["answered"] and outcomes["domain"]
