"""Property-based checks, derandomized so that tier-1 stays deterministic.

Markets are drawn with small integer weights and quarter-integer surpluses,
so exact ties occur; a property must then hold through them too.  The
entropic markets add tiny masses, large surplus scales and large separable
shifts.
"""

from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matchident import (
    BOUNDARY_TOL,
    MASS_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    DegenerateRayError,
    EntropyModel,
    KinkPointError,
    Margins,
    Matching,
    NonInteriorError,
    Surplus,
    TypeValues,
    barycenter,
    check_rationalizable,
    decompose_separable,
    dimension,
    eval_entropy,
    gauge,
    identify_entropy,
    is_boundary,
    is_maximizer,
    is_nonseparable,
    maximize_surplus,
    rationalize_gauge,
    simulate_market,
    solve_regularized,
    total_surplus,
)
from matchident.identify import _certifies, _separable_witness
from conftest import assert_ipfp_certificate, assert_keeps_line_sums, vertices_for


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
def near_barycenter_observations(draw) -> Matching:
    """A matching within a relative 1e-2 to 1e-11 of the barycenter, so the
    ray stretches far, scaled by ``1 + delta`` with ``|delta| <= MASS_TOL /
    2``; its margins are its own sums, which then miss one by about
    ``delta``.  The perturbation ``a[x] b[y]`` is centred under the margin
    weights, so it moves no line's sum."""
    margins, _ = draw(markets(max_side=6))
    p, q = margins.p, margins.q
    spread = st.lists(st.integers(-4, 4), unique=True, min_size=2, max_size=2)
    a = np.array(draw(spread) + draw(st.lists(st.integers(-4, 4), min_size=p.size - 2,
                                              max_size=p.size - 2)), float)
    b = np.array(draw(spread) + draw(st.lists(st.integers(-4, 4), min_size=q.size - 2,
                                              max_size=q.size - 2)), float)
    bump = np.outer(a - p @ a, b - q @ b)
    step = 10.0 ** -draw(st.integers(2, 11))
    delta = draw(st.floats(-MASS_TOL / 2, MASS_TOL / 2))
    mu = np.outer(p, q) * (1.0 + step * bump / np.abs(bump).max()) * (1.0 + delta)
    return Matching(mu, Margins(mu.sum(axis=1), mu.sum(axis=0)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(mu=near_barycenter_observations())
def test_far_stretched_rays_exit_within_the_stated_tolerance(mu):
    """The exit point keeps the matching's own line sums, however far the
    ray stretches, so the verdict and the gauge identification answer."""
    verdict = check_rationalizable(mu)
    assert not verdict.rationalizable and verdict.t_star > 1.0
    assert_keeps_line_sums(verdict.mu_star, mu)
    assert identify_entropy(mu, EntropyModel.gauge()).diagnostics["t_star"] == verdict.t_star


@st.composite
def witness_masks(draw) -> tuple[Margins, np.ndarray]:
    """Margins with zero-mass types or without, and a mask of random cells,
    of whole rows, of whole columns or of every cell."""
    d_x, d_y = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    weights = st.integers(0, 4) if draw(st.booleans()) else st.integers(1, 4)
    p = np.array(draw(st.lists(weights, min_size=d_x, max_size=d_x).filter(any)), float)
    q = np.array(draw(st.lists(weights, min_size=d_y, max_size=d_y).filter(any)), float)
    margins = Margins(p / p.sum(), q / q.sum())
    kind = draw(st.sampled_from(["cells", "rows", "columns", "all"]))
    if kind == "all":
        return margins, np.ones((d_x, d_y), dtype=bool)
    lines = st.lists(st.booleans(), min_size=d_x, max_size=d_x)
    if kind == "rows":
        return margins, np.repeat(np.array(draw(lines))[:, None], d_y, axis=1)
    lines = st.lists(st.booleans(), min_size=d_y, max_size=d_y)
    if kind == "columns":
        return margins, np.repeat(np.array(draw(lines))[None, :], d_x, axis=0)
    cells = st.lists(st.booleans(), min_size=d_x * d_y, max_size=d_x * d_y)
    return margins, np.reshape(draw(cells), (d_x, d_y))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(drawn=witness_masks())
def test_the_witness_is_separable_exactly_on_whole_rows_or_whole_columns(drawn):
    """The closed form of the verdict's separability test, on the cells
    between positive-mass types (the verdict's masks hold no other), agrees
    with the decomposition of the witness -1 on the mask and 0 elsewhere."""
    margins, empty = drawn
    witness = Surplus(np.where(empty, -1.0, 0.0))
    live = np.ix_(margins.p > 0, margins.q > 0)
    assert _separable_witness(empty[live]) == (not is_nonseparable(witness, margins))


@st.composite
def zero_mass_surpluses(draw) -> tuple[Margins, np.ndarray]:
    """Margins up to 4x4 with at least one zero-mass type, and a quarter-integer
    surplus separable on the cells between positive-mass types, plus, for half
    the draws, a random bump there on at least 2x2 of them, with arbitrary
    values on the zero-mass lines."""
    d_x, d_y = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    bumped = draw(st.booleans())
    m, n = draw(st.integers(1 + bumped, d_x)), draw(st.integers(1 + bumped, d_y))
    assume(m * n < d_x * d_y)
    p, q = np.zeros(d_x), np.zeros(d_y)
    weights = st.integers(1, 4)
    p[draw(st.permutations(range(d_x)))[:m]] = draw(st.lists(weights, min_size=m, max_size=m))
    q[draw(st.permutations(range(d_y)))[:n]] = draw(st.lists(weights, min_size=n, max_size=n))
    quarters = st.lists(st.integers(-20, 20), min_size=d_x * d_y, max_size=d_x * d_y)
    f = np.array(draw(st.lists(st.integers(-8, 8), min_size=d_x, max_size=d_x)))
    g = np.array(draw(st.lists(st.integers(-8, 8), min_size=d_y, max_size=d_y)))
    phi = f[:, None] + g[None, :]
    if bumped:
        phi = phi + np.reshape(draw(quarters), (d_x, d_y))
    live = np.outer(p > 0, q > 0)
    phi = np.where(live, phi, np.reshape(draw(quarters), (d_x, d_y))) / 4.0
    return Margins(p / p.sum(), q / q.sum()), phi


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(market=zero_mass_surpluses())
def test_a_surplus_discriminates_exactly_when_it_is_nonseparable_on_positive_mass_types(market):
    """Against vertex enumeration: ``is_nonseparable`` holds exactly when two
    vertices differ in total surplus beyond ``OPTIMALITY_TOL * max|phi|``,
    whatever the surplus holds on the lines of a zero-mass type."""
    margins, phi = market
    values = [total_surplus(v, Surplus(phi)) for v in vertices_for(margins)]
    discriminates = max(values) - min(values) > OPTIMALITY_TOL * np.abs(phi).max()
    assert is_nonseparable(Surplus(phi), margins) == discriminates


@st.composite
def light_type_observations(draw) -> tuple[str, Matching]:
    """A matching with cells from 1 down to 1e-15 or exactly 0, some row and
    column types lighter by 1e-6 to 1e-13 (or of zero mass), and its kind.
    ``"sums"``: mixed with weight 0, 1/2, 1 - 1e-6 or 1 with the barycenter
    of its sums, which are its margins.  ``"off"``: the same, with each
    margin moved off its sum by up to ``MASS_TOL / 2`` in all, as
    ``Matching`` admits, so a light line may hold less than its barycenter
    mass in every cell and a zero-mass line may gain a mass.  ``"vertex"``:
    the exact LP's vertex for a quarter-integer surplus, on margins of the
    same scales times weights from 0.2 to 1 or 0; no type is lighter than
    about 1e-15, which a double still resolves next to the total mass."""
    d_x, d_y = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    masses = st.one_of(st.just(0.0), st.floats(-15.0, 0.0).map(lambda e: 10.0**e))
    cells = draw(st.lists(masses, min_size=d_x * d_y, max_size=d_x * d_y))
    scales = st.sampled_from([1.0, 1.0, 1e-6, 1e-9, 1e-12, 1e-13])
    rows = draw(st.lists(scales, min_size=d_x, max_size=d_x))
    cols = draw(st.lists(scales, min_size=d_y, max_size=d_y))
    raw = np.reshape(cells, (d_x, d_y)) * np.outer(rows, cols)
    assume(raw.sum() > 0.0)
    raw /= raw.sum()
    p, q = raw.sum(axis=1), raw.sum(axis=0)
    kind = draw(st.sampled_from(["sums", "off", "vertex"]))
    if kind == "vertex":
        weights = st.one_of(st.just(0.0), st.floats(0.2, 1.0))
        p = np.multiply(rows, draw(st.lists(weights, min_size=d_x, max_size=d_x)))
        q = np.multiply(cols, draw(st.lists(weights, min_size=d_y, max_size=d_y)))
        assume(p.sum() > 0.0 and q.sum() > 0.0)
        phi = draw(st.lists(st.integers(-8, 8), min_size=d_x * d_y, max_size=d_x * d_y))
        surplus = Surplus(np.reshape(phi, (d_x, d_y)) / 4.0)
        return kind, maximize_surplus(surplus, Margins(p / p.sum(), q / q.sum())).mu_opt
    weight = draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-6, 1.0]))
    mu = weight * np.outer(p, q) + (1.0 - weight) * raw
    margins = Margins(mu.sum(axis=1), mu.sum(axis=0))
    if kind == "off":
        shifts = st.floats(-0.5, 0.5)
        shift_p = draw(st.lists(shifts, min_size=d_x, max_size=d_x))
        shift_q = draw(st.lists(shifts, min_size=d_y, max_size=d_y))
        margins = Margins(
            np.maximum(margins.p + np.multiply(shift_p, MASS_TOL / d_x), 0.0),
            np.maximum(margins.q + np.multiply(shift_q, MASS_TOL / d_y), 0.0),
        )
    return kind, Matching(mu, margins)


@settings(derandomize=True, database=None, max_examples=450, deadline=None)
@given(observation=light_type_observations())
def test_light_types_are_empty_only_relative_to_their_barycenter_mass(observation):
    """One support rule: the verdict is the boundary test and the gauge's
    t* = 1, and a positive verdict has all three checks true, with a
    certified nonseparable witness.  The exact LP's vertex keeps at least
    half of every positive-mass type's mass, so it is rationalizable
    exactly when the polytope is more than a point.  On positive margins
    the shannon gradient refuses exactly the matchings with an empty cell:
    the rationalizable ones and those with an absent line."""
    kind, mu = observation
    verdict = check_rationalizable(mu)
    assert verdict.rationalizable == is_boundary(mu)
    if verdict.t_star is None:
        assert not verdict.rationalizable
    else:
        assert verdict.rationalizable == (verdict.t_star == 1.0)
    if verdict.rationalizable:
        checks = verdict.checks
        assert checks.boundary and checks.maximizer and checks.nonseparable
    p, q = mu.margins.p, mu.margins.q
    if kind == "vertex":
        assert np.all(mu.mu.sum(axis=1) >= p / 2.0) and np.all(mu.mu.sum(axis=0) >= q / 2.0)
        assert verdict.rationalizable == (dimension(mu.margins) > 0)
    if p.min() > 0.0 and q.min() > 0.0:
        empty = mu.mu <= BOUNDARY_TOL * np.outer(p, q)
        try:
            identify_entropy(mu, EntropyModel.shannon())
        except NonInteriorError:
            # Only margins off the sums can leave a positive-mass line absent.
            assert empty.any() and (verdict.rationalizable or kind == "off")
        else:
            assert not empty.any()
            assert not verdict.rationalizable


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


@st.composite
def empirical_matchings(draw) -> tuple[Matching, TypeValues]:
    """A ``simulate_market`` draw of 3 to 1,000 households on a 2x2 to 6x6
    market, with a normal surplus at scale 1 to 10: small samples leave
    cells empty and types unobserved.  Type values for the quantile
    entropy come with it."""
    d_x, d_y = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, q = rng.uniform(0.5, 1.5, d_x), rng.uniform(0.5, 1.5, d_y)
    phi = 10.0 ** draw(st.floats(0.0, 1.0)) * rng.standard_normal((d_x, d_y))
    _, empirical = simulate_market(
        Surplus(phi), Margins(p / p.sum(), q / q.sum()),
        draw(st.integers(3, 1_000)), draw(st.integers(0, 2**32 - 1)),
    )
    values = TypeValues(np.cumsum(rng.uniform(0.5, 1.5, d_x)),
                        np.cumsum(rng.uniform(0.5, 1.5, d_y)))
    return empirical, values


def _certified_gauge(t_star: float, normal: np.ndarray, mu_star: Matching) -> bool:
    return t_star >= 1.0 and _certifies(normal, mu_star)


def test_every_observation_route_answers_empirical_matchings_or_names_the_domain():
    """Empirical matchings, with their empty cells and zero-mass types, get
    from every observation route either an answer that passes its
    certificate or a named domain error."""
    outcomes = Counter()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(drawn=empirical_matchings())
    def check(drawn):
        mu, values = drawn
        noise = np.random.default_rng(0).standard_normal(mu.mu.shape)
        direction = (noise - noise.mean(axis=1, keepdims=True)
                     - noise.mean(axis=0, keepdims=True) + noise.mean())
        h = 0.5 * mu.mu.min() / np.abs(direction).max()

        def route(name, answer):
            try:
                assert answer(), name
                outcomes[name, "answered"] += 1
            except (NonInteriorError, KinkPointError, DegenerateRayError) as error:
                outcomes[name, type(error).__name__] += 1

        def verdict():
            report = check_rationalizable(mu)
            if report.rationalizable:
                assert _certifies(report.witness.phi, mu)
            return report.rationalizable == is_boundary(mu) and (
                report.t_star is None or report.t_star >= 1.0)

        def rationalized():
            ray, identified = rationalize_gauge(mu)
            return (_certified_gauge(ray.t_star, ray.normal, ray.mu_star)
                    and identified.diagnostics["maximizer_verified"] == 1.0)

        def identified(model):
            def answer():
                found = identify_entropy(mu, model)
                if model.kind == "gauge":
                    return (found.diagnostics["t_star"] >= 1.0
                            and found.diagnostics["maximizer_verified"] == 1.0)
                if model.kind == "shannon":
                    # Optimal for the shannon problem: log mu - phi is separable.
                    gap = Surplus(np.log(mu.mu) - found.phi_canonical.phi)
                    return not is_nonseparable(gap, mu.margins)
                # The quantile entropy is quadratic along a direction that
                # keeps the margins, so a central difference is its slope.
                step = h * direction
                slope = (eval_entropy(model, Matching(mu.mu + step, mu.margins))
                         - eval_entropy(model, Matching(mu.mu - step, mu.margins))) / (2.0 * h)
                return abs(slope - np.sum(found.phi_raw.phi * direction)) <= 1e-8
            return answer

        def gauge_value():
            ray = gauge(mu)
            return (eval_entropy(EntropyModel.gauge(), mu) == -ray.t_star
                    and _certified_gauge(ray.t_star, ray.normal, ray.mu_star))

        route("check_rationalizable", verdict)
        route("rationalize_gauge", rationalized)
        for model in (EntropyModel.shannon(), EntropyModel.gauge(),
                      EntropyModel.quantile(values)):
            route(f"identify_entropy.{model.kind}", identified(model))
        route("eval_entropy.gauge", gauge_value)

    check()
    names = {name for name, _ in outcomes}
    assert all(outcomes[name, "answered"] for name in names)
    assert {error for _, error in outcomes} >= {"NonInteriorError", "DegenerateRayError"}
