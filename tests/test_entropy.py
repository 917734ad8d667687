"""Entropy evaluation, gradients and the IPFP-regularized solver."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from matchident import (
    IPFP_MAX_ITER,
    IPFP_TOL,
    MASS_TOL,
    ConvergenceError,
    DegenerateRayError,
    EntropyModel,
    KinkPointError,
    Margins,
    Matching,
    NonInteriorError,
    Surplus,
    TypeValues,
    ValidationError,
    barycenter,
    conditionals,
    decompose_separable,
    eval_entropy,
    gauge,
    grad_entropy,
    is_nonseparable,
    maximize_surplus,
    solve_regularized,
    total_surplus,
)
from matchident import entropy, lp
from conftest import (
    assert_ipfp_certificate,
    entropic_stress_market,
    random_interior_matching,
    random_margins,
    random_surplus,
)


def quantile_moment_by_quadrature(values: np.ndarray, weights: np.ndarray) -> float:
    """Independent oracle for ``integral Q(t) t dt`` of a step quantile."""
    cum = np.cumsum(weights)

    def quantile(t: float) -> float:
        idx = int(np.searchsorted(cum, t, side="left"))
        return float(values[min(idx, len(values) - 1)])

    breakpoints = sorted({float(c) for c in cum[:-1] if 1e-12 < c < 1.0 - 1e-12})
    result, _ = integrate.quad(
        lambda t: quantile(t) * t, 0.0, 1.0, points=breakpoints, limit=200
    )
    return result


def quantile_entropy_by_quadrature(matching: Matching, values: TypeValues) -> float:
    p, q = matching.margins.p, matching.margins.q
    row_cond, col_cond = conditionals(matching)
    total = sum(
        p[x] * quantile_moment_by_quadrature(values.y_values, row_cond[x])
        for x in range(matching.d_x)
    )
    total += sum(
        q[y] * quantile_moment_by_quadrature(values.x_values, col_cond[:, y])
        for y in range(matching.d_y)
    )
    return total


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    out = peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def ipfp_log_domain(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Reference IPFP on the log potentials, with the library's tolerance
    and sweep cap; returns the matching and whether it converged."""
    log_p, log_q = np.log(p), np.log(q)
    beta = np.zeros(q.size)
    for _ in range(IPFP_MAX_ITER):
        alpha = log_p - logsumexp(phi + beta[None, :], axis=1)
        beta = log_q - logsumexp(phi + alpha[:, None], axis=0)
        mu = np.exp(phi + alpha[:, None] + beta[None, :])
        error = max(
            float(np.abs(mu.sum(axis=1) - p).max()),
            float(np.abs(mu.sum(axis=0) - q).max()),
        )
        if error <= IPFP_TOL:
            return mu, True
    return mu, False


def ipfp_sweeps_reference(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """The sweeps of ``entropy._ipfp`` alone, written plainly: a fresh array
    for every scaling, kernel sum and residual, with the same expressions in
    the same order.  Returns the matching, the sweeps, how many times the
    scalings were folded into the potentials, and the margin error."""
    f = -phi.max(axis=1)
    g = -(phi + f[:, None]).max(axis=0)
    kernel = np.exp(phi + f[:, None] + g[None, :])
    b = np.ones(q.size)
    kernel_b = kernel @ b
    sweeps = folds = 0
    while sweeps < IPFP_MAX_ITER:
        sweeps += 1
        a = p / kernel_b
        b = q / (a @ kernel)
        if max(a.max(), b.max(), 1.0 / a.min(), 1.0 / b.min()) > entropy._SCALING_RANGE:
            folds += 1
            f = f + np.log(a)
            g = g + np.log(b)
            kernel = np.exp(phi + f[:, None] + g[None, :])
            a, b = np.ones(p.size), np.ones(q.size)
        kernel_b = kernel @ b
        error = float(np.abs(a * kernel_b - p).max())
        if error <= IPFP_TOL:
            break
    mu = a[:, None] * kernel * b[None, :]
    rows, cols = np.nonzero(kernel < np.finfo(float).tiny)
    mu[rows, cols] = np.exp(
        phi[rows, cols] + f[rows] + np.log(a[rows]) + g[cols] + np.log(b[cols])
    )
    return mu, sweeps, folds, error


def spy(monkeypatch, name: str) -> list:
    """Wrap ``entropy.<name>`` so that each call appends its arguments and
    its result to the returned list."""
    calls = []
    real = getattr(entropy, name)

    def spied(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(entropy, name, spied)
    return calls


def lp_dual_fit_reference(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """The warm start from the exact LP's duals alone, written plainly: the
    doubly centred ``phi``, the LP's column duals on it scaled back by its
    largest entry, then log-domain sweeps, rows then columns, until every
    row sum is within a factor ``e`` of its margin, ten at most.  The same
    expressions in the same order as ``entropy``; returns ``(f, g)``."""
    centred = phi - phi.mean(axis=1)[:, None]
    centred -= centred.mean(axis=0)[None, :]
    spread = float(np.abs(centred).max()) or 1.0
    cost = centred / spread
    g = -spread * lp._transport(cost, p, q, cost)[2]
    for _ in range(10):
        z = centred + g[None, :]
        peak = z.max(axis=1)
        f = np.log(p) - peak - np.log(np.exp(z - peak[:, None]).sum(axis=1))
        z = centred + f[:, None]
        peak = z.max(axis=0)
        g = np.log(q) - peak - np.log(np.exp(z - peak[None, :]).sum(axis=0))
        ratio = np.exp(centred + f[:, None] + g[None, :]).sum(axis=1) / p
        if 1.0 / math.e <= ratio.min() and ratio.max() <= math.e:
            break
    return f, g


def tangent_fd_gradient_error(
    model: EntropyModel, matching: Matching, step: float = 1e-6
) -> float:
    """Worst disagreement between the analytic gradient and central finite
    differences along the margin-preserving directions e_xy + e_x'y' - e_xy' - e_x'y."""
    grad = grad_entropy(model, matching).phi
    margins = matching.margins
    worst = 0.0
    for x in range(matching.d_x):
        for x2 in range(x + 1, matching.d_x):
            for y in range(matching.d_y):
                for y2 in range(y + 1, matching.d_y):
                    direction = np.zeros(matching.mu.shape)
                    direction[x, y] = direction[x2, y2] = 1.0
                    direction[x, y2] = direction[x2, y] = -1.0
                    up = eval_entropy(model, Matching(matching.mu + step * direction, margins))
                    down = eval_entropy(model, Matching(matching.mu - step * direction, margins))
                    fd = (up - down) / (2.0 * step)
                    analytic = float(np.sum(grad * direction))
                    worst = max(worst, abs(fd - analytic))
    return worst


class TestEntropyModel:
    def test_kinds(self):
        assert EntropyModel.shannon().kind == "shannon"
        assert EntropyModel.gauge().kind == "gauge"
        with pytest.raises(ValidationError):
            EntropyModel("boltzmann")

    def test_values_exactly_for_quantile(self):
        values = TypeValues([0.0, 1.0], [0.0, 1.0])
        assert EntropyModel.quantile(values).values is values
        with pytest.raises(ValidationError):
            EntropyModel("quantile")
        with pytest.raises(ValidationError):
            EntropyModel("shannon", values=values)


class TestEvalShannon:
    def test_uniform(self, uniform2):
        value = eval_entropy(EntropyModel.shannon(), barycenter(uniform2))
        assert value == pytest.approx(math.log(0.25), abs=1e-12)

    def test_assortative_uses_zero_log_zero(self, assortative_matching):
        value = eval_entropy(EntropyModel.shannon(), assortative_matching)
        assert value == pytest.approx(math.log(0.5), abs=1e-12)

    def test_strict_convexity(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            a = random_interior_matching(rng, margins)
            b = random_interior_matching(rng, margins)
            if np.abs(a.mu - b.mu).max() < 1e-3:
                continue
            mid = Matching(0.5 * (a.mu + b.mu), margins)
            model = EntropyModel.shannon()
            lhs = eval_entropy(model, mid)
            rhs = 0.5 * eval_entropy(model, a) + 0.5 * eval_entropy(model, b)
            assert lhs < rhs - 1e-12


class TestEvalGauge:
    def test_interior_fixture(self, interior_matching):
        assert eval_entropy(EntropyModel.gauge(), interior_matching) == pytest.approx(
            -2.5, abs=1e-12
        )

    def test_boundary_value_is_minus_one(self, assortative_matching):
        assert eval_entropy(EntropyModel.gauge(), assortative_matching) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_barycenter_raises(self, uniform2):
        with pytest.raises(DegenerateRayError):
            eval_entropy(EntropyModel.gauge(), barycenter(uniform2))

    def test_scaling_along_the_ray(self):
        """At fraction s of the way to the boundary the value is -t_star / s."""
        rng = np.random.default_rng(71)
        margins = random_margins(rng, 3, 3)
        mu = random_interior_matching(rng, margins)
        t_star = gauge(mu).t_star
        bary = np.outer(margins.p, margins.q)
        for s in (0.5, 0.8, 1.0, t_star):
            point = Matching(bary + s * (mu.mu - bary), margins)
            assert eval_entropy(EntropyModel.gauge(), point) == pytest.approx(
                -t_star / s, rel=1e-10
            )


class TestEvalQuantile:
    @pytest.fixture
    def unit_values(self):
        return TypeValues([0.0, 1.0], [0.0, 1.0])

    def test_independent_fixture(self, uniform2, unit_values):
        value = eval_entropy(EntropyModel.quantile(unit_values), barycenter(uniform2))
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_assortative_fixture(self, assortative_matching, unit_values):
        value = eval_entropy(EntropyModel.quantile(unit_values), assortative_matching)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            mu = random_interior_matching(rng, margins)
            values = TypeValues(
                np.cumsum(rng.uniform(0.2, 1.5, d_x)),
                np.cumsum(rng.uniform(0.2, 1.5, d_y)),
            )
            model = EntropyModel.quantile(values)
            assert eval_entropy(model, mu) == pytest.approx(
                quantile_entropy_by_quadrature(mu, values), abs=1e-6
            )

    def test_a_zero_mass_type_gives_the_value_of_the_market_without_it(self):
        """A zero-mass type weighs 0 and adds no conditional mass, so the value
        is the deleted market's; the gradient still refuses the point."""
        model = EntropyModel.quantile(TypeValues([1.0, 2.0, 3.0], [1.0, 2.0]))
        light_row = Matching([[0.3, 0.2], [0.2, 0.3], [0, 0]], Margins([0.5, 0.5, 0], [0.5, 0.5]))
        assert eval_entropy(model, light_row) == pytest.approx(1.74, abs=1e-12)
        with pytest.raises(NonInteriorError):
            grad_entropy(model, light_row)
        middle = Matching(
            [[0.3, 0, 0.2], [0, 0, 0], [0.2, 0, 0.3]], Margins([0.5, 0, 0.5], [0.5, 0, 0.5])
        )
        deleted = Matching([[0.3, 0.2], [0.2, 0.3]], Margins([0.5, 0.5], [0.5, 0.5]))
        assert eval_entropy(
            EntropyModel.quantile(TypeValues([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])), middle
        ) == eval_entropy(EntropyModel.quantile(TypeValues([1.0, 3.0], [1.0, 4.0])), deleted)
        # One positive row: its conditional [0.5, 0.5] on y-values [1, 2] gives
        # 1 * 0.25 / 2 + 2 * 0.75 / 2, and each column puts all its mass on x = 1.
        single = Matching([[0.5, 0.5], [0, 0]], Margins([1, 0], [0.5, 0.5]))
        value = eval_entropy(EntropyModel.quantile(TypeValues([1.0, 2.0], [1.0, 2.0])), single)
        assert value == pytest.approx(0.875 + 0.5, abs=1e-12)

    def test_dimension_mismatch(self, unit_values):
        rng = np.random.default_rng(73)
        margins = random_margins(rng, 3, 3)
        mu = random_interior_matching(rng, margins)
        with pytest.raises(ValidationError):
            eval_entropy(EntropyModel.quantile(unit_values), mu)


class TestGradients:
    def test_shannon_closed_form(self, interior_matching):
        grad = grad_entropy(EntropyModel.shannon(), interior_matching)
        np.testing.assert_allclose(grad.phi, 1.0 + np.log(interior_matching.mu), atol=1e-14)
        cross = grad.phi[0, 0] + grad.phi[1, 1] - grad.phi[0, 1] - grad.phi[1, 0]
        assert cross == pytest.approx(2.0 * math.log(7.0 / 3.0), abs=1e-12)

    def test_shannon_at_barycenter_is_separable(self):
        rng = np.random.default_rng(74)
        margins = random_margins(rng, 3, 4)
        grad = grad_entropy(EntropyModel.shannon(), barycenter(margins))
        assert not is_nonseparable(grad, margins)

    def test_shannon_boundary_raises_with_cell(self, assortative_matching):
        with pytest.raises(NonInteriorError) as info:
            grad_entropy(EntropyModel.shannon(), assortative_matching)
        assert info.value.cell in {(0, 1), (1, 0)}

    def test_shannon_matches_finite_differences(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            mu = random_interior_matching(rng, margins)
            assert tangent_fd_gradient_error(EntropyModel.shannon(), mu) < 1e-5

    def test_gauge_fixture(self, interior_matching):
        grad = grad_entropy(EntropyModel.gauge(), interior_matching)
        np.testing.assert_allclose(
            grad.phi, [[0.0, -12.5], [-12.5, 0.0]], atol=1e-12
        )

    def test_gauge_envelope_identity(self):
        """Along the ray, the derivative of s -> I(ray(s)) at s=1 equals
        the pairing of the gradient with the ray direction."""
        rng = np.random.default_rng(76)
        margins = random_margins(rng, 3, 2)
        mu = random_interior_matching(rng, margins)
        model = EntropyModel.gauge()
        grad = grad_entropy(model, mu).phi
        bary = np.outer(margins.p, margins.q)
        direction = mu.mu - bary
        pairing = float(np.sum(grad * direction))
        t_star = gauge(mu).t_star
        assert pairing == pytest.approx(t_star, rel=1e-10)
        step = 1e-7
        up = eval_entropy(model, Matching(bary + (1 + step) * direction, margins))
        down = eval_entropy(model, Matching(bary + (1 - step) * direction, margins))
        assert (up - down) / (2 * step) == pytest.approx(pairing, rel=1e-5)

    def test_quantile_matches_finite_differences(self, interior_matching):
        values = TypeValues([0.0, 1.0], [0.0, 1.0])
        model = EntropyModel.quantile(values)
        assert tangent_fd_gradient_error(model, interior_matching) < 1e-5
        rng = np.random.default_rng(77)
        for _ in range(10):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            mu = random_interior_matching(rng, margins)
            model = EntropyModel.quantile(
                TypeValues(
                    np.cumsum(rng.uniform(0.2, 1.5, d_x)),
                    np.cumsum(rng.uniform(0.2, 1.5, d_y)),
                )
            )
            assert tangent_fd_gradient_error(model, mu) < 1e-5

    def test_quantile_kink_detection(self, uniform2):
        tiny = 2.5e-10  # interior (above the boundary tolerance) but kinked
        mu = Matching([[0.5 - tiny, tiny], [tiny, 0.5 - tiny]], uniform2)
        model = EntropyModel.quantile(TypeValues([0.0, 1.0], [0.0, 1.0]))
        with pytest.raises(KinkPointError) as info:
            grad_entropy(model, mu)
        assert info.value.cell in {(0, 1), (1, 0)}


class TestSolveRegularized:
    def test_zero_surplus_gives_barycenter(self, uniform2):
        value, report = solve_regularized(
            EntropyModel.shannon(), Surplus(np.zeros((2, 2))), uniform2
        )
        np.testing.assert_allclose(report.mu.mu, 0.25 * np.ones((2, 2)), atol=1e-12)
        assert value == pytest.approx(math.log(4.0), abs=1e-10)
        assert report.converged and report.margin_error <= 1e-10

    def test_log_ratio_fixture(self, uniform2):
        c = math.log(7.0 / 3.0)
        value, report = solve_regularized(
            EntropyModel.shannon(), Surplus([[c, 0.0], [0.0, c]]), uniform2
        )
        np.testing.assert_allclose(
            report.mu.mu, [[0.35, 0.15], [0.15, 0.35]], atol=1e-8
        )

    def test_separable_shifts_do_not_move_the_optimizer(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y)
            f = rng.normal(0.0, 2.0, d_x)
            g = rng.normal(0.0, 2.0, d_y)
            shifted = Surplus(phi.phi + f[:, None] + g[None, :])
            model = EntropyModel.shannon()
            _, base = solve_regularized(model, phi, margins)
            _, moved = solve_regularized(model, shifted, margins)
            np.testing.assert_allclose(moved.mu.mu, base.mu.mu, atol=1e-8)

    def test_log_domain_agrees_with_kernel_domain(self):
        """Separable shifts beyond the range of exp must not move the
        optimizer: a constant 35, and one column each at -800 and +800,
        where every kernel entry of the column underflows or overflows."""
        rng = np.random.default_rng(79)
        margins = random_margins(rng, 3, 3)
        phi = random_surplus(rng, 3, 3, scale=2.0)
        model = EntropyModel.shannon()
        _, base = solve_regularized(model, phi, margins)
        for column, shift in ((slice(None), 35.0), (0, -800.0), (2, 800.0)):
            shifted = phi.phi.copy()
            shifted[:, column] += shift
            _, moved = solve_regularized(model, Surplus(shifted), margins)
            np.testing.assert_allclose(moved.mu.mu, base.mu.mu, atol=1e-9)

    def test_log_domain_handles_extreme_surpluses(self, uniform2):
        value, report = solve_regularized(
            EntropyModel.shannon(), Surplus([[40.0, 0.0], [0.0, 40.0]]), uniform2
        )
        assert report.converged
        np.testing.assert_allclose(report.mu.mu, 0.5 * np.eye(2), atol=1e-8)
        # nearly all mass on the diagonal: surplus 40, entropy term -log(1/2)
        assert value == pytest.approx(40.0 - math.log(0.5), rel=1e-6)

    def test_first_order_condition_modulo_separable(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y)
            _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
            grad = grad_entropy(EntropyModel.shannon(), report.mu)
            mismatch = decompose_separable(
                Surplus(grad.phi - phi.phi), margins
            ).residual
            assert np.abs(mismatch).max() < 1e-7

    def test_conjugacy_identity(self):
        """value + I(mu_opt) = <mu_opt, phi> by definition of the optimum."""
        rng = np.random.default_rng(81)
        model = EntropyModel.shannon()
        for _ in range(20):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y, scale=2.0)
            value, report = solve_regularized(model, phi, margins)
            lhs = value + eval_entropy(model, report.mu)
            assert lhs == pytest.approx(total_surplus(report.mu, phi), abs=1e-9)

    def test_gradient_monotonicity(self):
        """The optimizer map is monotone: <mu(a) - mu(b), a - b> >= 0."""
        rng = np.random.default_rng(82)
        model = EntropyModel.shannon()
        for _ in range(20):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            a = random_surplus(rng, d_x, d_y, scale=2.0)
            b = random_surplus(rng, d_x, d_y, scale=2.0)
            _, report_a = solve_regularized(model, a, margins)
            _, report_b = solve_regularized(model, b, margins)
            pairing = float(np.sum((report_a.mu.mu - report_b.mu.mu) * (a.phi - b.phi)))
            assert pairing >= -1e-9

    def test_agrees_with_the_log_domain_reference(self):
        """Where the reference converges, the same matching; where it hits
        the sweep cap, a converged matching that carries the certificate."""
        rng = np.random.default_rng(83)
        model = EntropyModel.shannon()
        verdicts = []
        for d_x, d_y in ((2, 2), (3, 5), (5, 3), (8, 8), (12, 12), (20, 20)):
            margins = random_margins(rng, d_x, d_y)
            base = random_surplus(rng, d_x, d_y).phi
            for scale in (1, 10, 50, 100):
                expected, expected_converged = ipfp_log_domain(
                    scale * base, margins.p, margins.q
                )
                _, report = solve_regularized(model, Surplus(scale * base), margins)
                if expected_converged:
                    np.testing.assert_allclose(report.mu.mu, expected, atol=1e-9)
                else:
                    assert_ipfp_certificate(scale * base, margins, report.mu.mu)
                verdicts.append(expected_converged)
        assert any(verdicts) and not all(verdicts)

    def test_ladder_of_sizes_and_scales_converges(self):
        """Every market from 2x2 to 40x40 at surplus scales 1 to 1000 gets
        a certified matching, on both sides of the square."""
        rng = np.random.default_rng(84)
        model = EntropyModel.shannon()
        for size in (2, 5, 10, 20, 30, 40):
            for i, scale in enumerate((1, 10, 100, 400, 1000)):
                d_x, d_y = (size, size + 3) if i % 2 else (size + 3, size)
                margins = random_margins(rng, d_x, d_y)
                phi = random_surplus(rng, d_x, d_y, scale=scale)
                _, report = solve_regularized(model, phi, margins)
                assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_plateau_market_converges(self):
        """A 10x10 market whose sweeps stall on a plateau: the reference
        hits the cap, while the Newton phase finishes in under 500
        iterations.  The report counts both phases."""
        rng = np.random.default_rng(97)
        margins = random_margins(rng, 10, 10)
        phi = random_surplus(rng, 10, 10, scale=50.0)
        _, converged = ipfp_log_domain(phi.phi, margins.p, margins.q)
        assert not converged
        _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
        assert report.iterations < 500
        assert report.sweeps > 0 and report.newton_steps > 0
        assert report.iterations == report.sweeps + report.newton_steps
        assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_uniform_margin_squares_converge(self):
        """Squares from 8x8 to 100x100 with uniform margins at surplus scales
        200 and 1,000: the LP optimum is a permutation and the Hessian is
        near singular, yet the warm-started Newton phase converges on all 48
        markets."""
        rng = np.random.default_rng(98)
        model = EntropyModel.shannon()
        for d in np.geomspace(8, 100, 24).round().astype(int):
            margins = Margins(np.full(d, 1.0 / d), np.full(d, 1.0 / d))
            for scale in (200.0, 1000.0):
                phi = random_surplus(rng, d, d, scale=scale)
                _, report = solve_regularized(model, phi, margins)
                assert report.newton_steps > 0
                assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_types_with_tiny_mass_stay_on_the_newton_path(self):
        """A row type of relative mass 1e-9 and a column type of 1e-12 do
        not stall the Newton phase: it starts from the LP's duals fitted to
        the margins in the log domain, where no type is far off its mass."""
        rng = np.random.default_rng(88)
        model = EntropyModel.shannon()
        for _ in range(4):
            p, q = rng.uniform(0.2, 1.0, 8), rng.uniform(0.2, 1.0, 8)
            p[0], q[-1] = 1e-9 * p.sum(), 1e-12 * q.sum()
            margins = Margins(p / p.sum(), q / q.sum())
            phi = random_surplus(rng, 8, 8, scale=50.0)
            _, report = solve_regularized(model, phi, margins)
            assert report.iterations < 200
            assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_stress_markets_converge(self):
        """All 400 markets of the stress set converge with a certificate:
        light types, uniform margins, ties, large scales and large shifts."""
        model = EntropyModel.shannon()
        for i in range(400):
            margins, phi = entropic_stress_market(i)
            _, report = solve_regularized(model, phi, margins)
            assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_light_row_that_shares_its_only_tight_column_converges(self, monkeypatch):
        """Market 2242 of the stress recipe, 3x3 with a row type of mass
        4.9e-13 and a column type of 6.2e-13: the LP's duals make the light
        column tight in a heavy row, so one sweep from them leaves the light
        row's sum 3e-12 times its margin, and the Newton step for it (about
        3e11) fails every backtracking trial.  The LP vertex's flows put the
        light row's mass on its tree cell, so the Newton phase starts from
        the vertex and converges there."""
        margins, phi = entropic_stress_market(2242)
        assert margins.p.min() < 1e-12 and margins.q.min() < 1e-12
        newton_calls = spy(monkeypatch, "_newton")
        _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
        assert newton_calls
        assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_light_row_off_the_vertex_start_is_fitted_before_the_newton_phase(
        self, monkeypatch
    ):
        """Market 869 of the stress recipe, 17x5 with a row type of mass
        9.6e-14 and a column type of 1.6e-13, whose vertex start misses a
        line by more than a factor e.  The warm start falls back to the
        LP's duals, where one sweep leaves the light row's sum below 1e-11
        times its margin and the Newton phase started there fails its first
        line search.  The sweeps go on until every row sum is within a
        factor e of its margin, and the Newton phase converges from there."""
        margins, phi = entropic_stress_market(869)
        assert margins.p.min() < 1e-12 and margins.q.min() < 1e-12
        fits = spy(monkeypatch, "_fit_margins")
        newton_calls = spy(monkeypatch, "_newton")
        _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
        ratios = [
            np.exp(centred + f[:, None] + g[None, :]).sum(axis=1) / p
            for (centred, _, p, _), (f, g) in fits
        ]
        assert len(ratios) >= 2 and ratios[0].min() < 1e-11
        assert 1.0 / math.e <= ratios[-1].min() and ratios[-1].max() <= math.e
        assert newton_calls and report.newton_steps > 0
        assert_ipfp_certificate(phi.phi, margins, report.mu.mu)
        (centred, _, p, q), (f, g) = fits[0]
        assert entropy._newton(centred, f, g, p, q, IPFP_MAX_ITER)[2] > IPFP_TOL

    def test_subnormal_kernel_cells_on_the_sweep_path_keep_their_digits(self):
        """A 2x8 market at surplus scale about 1090 with column masses down to
        2e-11: the sweeps finish before any hand-over is weighed, with
        kernel entries far below the smallest normal float.  Its cells near
        1e-287 must still satisfy the separability certificate."""
        rng = np.random.default_rng(5)
        for _ in range(1079):  # the 1079th draw of this generator
            d_x, d_y = rng.integers(2, 10, 2)
            p = rng.uniform(0.2, 1.0, d_x) * 10.0 ** rng.uniform(-12, 0, d_x)
            q = rng.uniform(0.2, 1.0, d_y) * 10.0 ** rng.uniform(-12, 0, d_y)
            phi = (10.0 ** rng.uniform(0, 4)) * rng.standard_normal((d_x, d_y))
        margins = Margins(p / p.sum(), q / q.sum())
        _, report = solve_regularized(EntropyModel.shannon(), Surplus(phi), margins)
        assert report.iterations < 2 * entropy._BLOCK
        assert_ipfp_certificate(phi, margins, report.mu.mu)

    def test_sweeps_that_cannot_finish_under_the_cap_hand_over(self, monkeypatch):
        """The sweeps finish this 40x40 market alone in about 350 sweeps,
        fewer than the Newton phase with its LP warm start is expected to
        cost; under a cap of 200 they cannot finish, so the Newton phase
        takes over anyway."""
        rng = np.random.default_rng(89)
        margins = random_margins(rng, 40, 40)
        phi = random_surplus(rng, 40, 40, scale=10.0)
        model = EntropyModel.shannon()
        _, uncapped = solve_regularized(model, phi, margins)
        assert uncapped.sweeps > 200 and uncapped.newton_steps == 0
        monkeypatch.setattr(entropy, "IPFP_MAX_ITER", 200)
        _, report = solve_regularized(model, phi, margins)
        assert report.newton_steps > 0
        assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_hand_over_timing_does_not_change_the_answer(self, monkeypatch):
        """The Newton phase starts from the LP's vertex or duals, not from
        the sweeps' state, so handing over after ``2 * _BLOCK`` sweeps rather
        than twice as many gives the same bytes and the same Newton steps.
        The Newton phase runs in both solves; 20x20 at scale 400 converges
        at its start, in no step.  The markets are the plateau market and
        the benchmark's finite-sample markets (10x10 to 30x30, drawn from
        seed 2102) at scales 10 to 400; 30x30 at scale 10 hands over at the
        second judgement either way."""
        rng = np.random.default_rng(97)
        margins = random_margins(rng, 10, 10)
        markets = [(margins, random_surplus(rng, 10, 10, scale=50.0))]
        rng = np.random.default_rng(2102)
        for d in (10, 20, 30):
            margins = random_margins(rng, d, d)
            base = rng.standard_normal((d, d))
            markets += [(margins, Surplus(scale * base)) for scale in (10, 50, 100, 400)]
        model = EntropyModel.shannon()
        newton_calls = spy(monkeypatch, "_newton")
        for margins, phi in markets:
            newton_calls.clear()
            _, report = solve_regularized(model, phi, margins)
            assert newton_calls
            newton_calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(entropy, "_BLOCK", 2 * entropy._BLOCK)
                _, later = solve_regularized(model, phi, margins)
            assert newton_calls
            assert report.mu.mu.tobytes() == later.mu.mu.tobytes()
            assert report.newton_steps == later.newton_steps
            assert 2 * report.sweeps == later.sweeps

    def test_sweeps_match_the_plain_reference_bit_for_bit(self, monkeypatch):
        """With the hand-over disabled, the sweeps give the bytes, sweep
        count and margin error of a plain loop that allocates every array
        afresh, on markets whose scalings fold into the potentials (scales
        400 and 1,000) and on one with a zero-mass row type."""
        monkeypatch.setattr(entropy, "_BLOCK", IPFP_MAX_ITER + 1)
        rng = np.random.default_rng(93)
        markets = []
        for (d_x, d_y), scale in (((3, 4), 400), ((3, 4), 1000), ((6, 5), 400), ((8, 8), 400)):
            margins = random_margins(rng, d_x, d_y)
            markets.append((margins, random_surplus(rng, d_x, d_y, scale=scale)))
        p = np.append(random_margins(rng, 5, 6).p, 0.0)
        zero_mass = Margins(p, random_margins(rng, 5, 6).q)
        markets.append((zero_mass, random_surplus(rng, 6, 6, scale=400.0)))
        model = EntropyModel.shannon()
        for margins, phi in markets:
            _, report = solve_regularized(model, phi, margins)
            rows, cols = margins.p > 0.0, margins.q > 0.0
            support = np.ix_(rows, cols)
            mu, sweeps, folds, error = ipfp_sweeps_reference(
                phi.phi[support], margins.p[rows], margins.q[cols]
            )
            assert folds > 0
            expected = np.zeros(margins.shape)
            expected[support] = mu
            assert report.mu.mu.tobytes() == expected.tobytes()
            assert (report.sweeps, report.newton_steps) == (sweeps, 0)
            assert report.margin_error == error

    def test_stalled_newton_phase_hands_back_to_the_sweeps(self, monkeypatch):
        """A Newton phase that stalls, here on a Schur complement that will
        not factor, leaves the sweeps to finish exactly as they would have
        alone; its steps still count as iterations."""
        rng = np.random.default_rng(87)
        margins = random_margins(rng, 12, 12)
        phi = random_surplus(rng, 12, 12, scale=10.0)
        model = EntropyModel.shannon()
        monkeypatch.setattr(entropy, "_BLOCK", IPFP_MAX_ITER + 1)
        _, sweeps_only = solve_regularized(model, phi, margins)
        monkeypatch.undo()
        _, newton = solve_regularized(model, phi, margins)
        assert newton.iterations < sweeps_only.iterations

        def singular(matrix, rhs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        _, stalled = solve_regularized(model, phi, margins)
        np.testing.assert_array_equal(stalled.mu.mu, sweeps_only.mu.mu)
        assert stalled.iterations > sweeps_only.iterations
        assert stalled.sweeps == sweeps_only.sweeps and stalled.newton_steps > 0

    def test_margins_whose_sums_differ_converge(self):
        """Six 12x10 markets whose margin sums are 1 -+ 0.9 * MASS_TOL, the
        heavier side alternating, at surplus scales 1 and 200: no matching
        fits both sides within IPFP_TOL, so the rows fit ``p`` and the
        columns ``q`` rescaled to ``p``'s total, with the certificate, in a
        few dozen iterations rather than at the cap."""
        rng = np.random.default_rng(99)
        model = EntropyModel.shannon()
        for i in range(6):
            heavier = 1.0 if i % 2 else -1.0
            p, q = rng.uniform(0.2, 1.0, 12), rng.uniform(0.2, 1.0, 10)
            p = p / p.sum() * (1.0 + heavier * 0.9 * MASS_TOL)
            q = q / q.sum() * (1.0 - heavier * 0.9 * MASS_TOL)
            margins = Margins(p, q)
            for scale in (1.0, 200.0):
                phi = random_surplus(rng, 12, 10, scale=scale)
                _, report = solve_regularized(model, phi, margins)
                assert report.iterations < 100
                balanced = Margins(p, q * (p.sum() / q.sum()))
                assert_ipfp_certificate(phi.phi, balanced, report.mu.mu)

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_zero_mass_types_get_zero_rows_without_warnings(self, scale):
        margins = Margins([0.5, 0.5, 0.0], [0.3, 0.7])
        phi = Surplus(scale * np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
        assert np.all(report.mu.mu[2] == 0.0)
        np.testing.assert_allclose(report.mu.mu.sum(axis=0), margins.q, atol=1e-10)

    def test_sweep_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(entropy, "IPFP_MAX_ITER", 5)
        rng = np.random.default_rng(3)
        margins = random_margins(rng, 4, 4)
        phi = random_surplus(rng, 4, 4, scale=10.0)
        with pytest.raises(ConvergenceError) as info:
            solve_regularized(EntropyModel.shannon(), phi, margins)
        assert info.value.iterations == 5
        assert math.isfinite(info.value.residual) and info.value.residual > IPFP_TOL

    def test_unconverged_newton_phase_reports_its_own_error(self):
        """At scale 1e8 this 4x4 market's Newton phase crawls to the cap at a
        margin error near 5e-10, while the sweeps it took over from stood at
        about 0.1: the error reports the phase that came closer."""
        rng = np.random.default_rng(0)
        p, q = rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 4)
        margins = Margins(p / p.sum(), q / q.sum())
        phi = Surplus(1e8 * rng.standard_normal((4, 4)))
        with pytest.raises(ConvergenceError) as info:
            solve_regularized(EntropyModel.shannon(), phi, margins)
        assert info.value.iterations == IPFP_MAX_ITER
        assert IPFP_TOL < info.value.residual < 1e-9

    @pytest.mark.parametrize(
        "seed, scale", [(seed, 1e20) for seed in range(5)] + [(1, 1e100), (4, 1e300)]
    )
    def test_huge_scales_end_with_a_finite_residual_and_no_warning(self, seed, scale):
        """Kernel sums that leave the float range end the sweeps on the last
        finite margin error: the residual is not nan, and nothing warns
        (warnings are errors here)."""
        rng = np.random.default_rng(seed)
        p, q = rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 4)
        margins = Margins(p / p.sum(), q / q.sum())
        phi = Surplus(scale * rng.standard_normal((4, 4)))
        with pytest.raises(ConvergenceError) as info:
            solve_regularized(EntropyModel.shannon(), phi, margins)
        assert math.isfinite(info.value.residual) and info.value.residual > IPFP_TOL

    def test_a_surplus_whose_centring_overflows_is_refused_at_the_warm_start(self):
        """The sweeps hand this finite surplus over to the Newton phase, and
        its centred copy overflows: the warm start refuses it, naming the
        overflow, instead of pivoting the LP on it to the cap."""
        phi = Surplus([[-1.5e308, 1.5e308], [1.5e308, 1.5e308]])
        message = "^phi is too large: its doubly centred form overflows$"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=message):
                solve_regularized(EntropyModel.shannon(), phi, Margins([0.5, 0.5], [0.5, 0.5]))

    def test_only_shannon_is_supported(self, uniform2):
        with pytest.raises(ValidationError):
            solve_regularized(EntropyModel.gauge(), Surplus(np.zeros((2, 2))), uniform2)


class TestWarmStart:
    def test_vertex_start_puts_the_lp_flow_on_each_positive_basic_cell(self):
        """On nondegenerate 6x9 markets at surplus scale 300, whose vertex
        start fits every line within a factor e, the start's kernel holds the
        LP vertex's mass on each of its 14 positive cells, within rounding."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            margins = random_margins(rng, 6, 9)
            phi = random_surplus(rng, 6, 9, scale=300.0)
            vertex = maximize_surplus(phi, margins).mu_opt.mu
            positive = vertex > 0.0
            assert positive.sum() == 6 + 9 - 1  # every basic cell holds mass
            centred, f, g = entropy._warm_start(phi.phi, margins.p, margins.q)
            kernel = np.exp(centred + f[:, None] + g[None, :])
            np.testing.assert_allclose(kernel[positive], vertex[positive], rtol=1e-12)

    def test_handed_over_finite_sample_markets_take_fewer_newton_steps(self):
        """The benchmark's finite-sample markets (10x10 to 30x30, drawn from
        seed 2102) at the scales whose sweeps hand over, 10 to 400: each
        takes at most the Newton steps it took from the LP's duals alone,
        58 in all against 96, and every answer carries the certificate."""
        from_duals = {10: (9, 10, 10, 10), 20: (5, 6, 7, 7), 30: (8, 8, 8, 8)}
        rng = np.random.default_rng(2102)
        total = 0
        for d, ceilings in from_duals.items():
            margins = random_margins(rng, d, d)
            base = rng.standard_normal((d, d))
            for scale, ceiling in zip((10, 50, 100, 400), ceilings):
                phi = scale * base
                _, report = solve_regularized(EntropyModel.shannon(), Surplus(phi), margins)
                assert report.newton_steps <= ceiling
                assert_ipfp_certificate(phi, margins, report.mu.mu)
                total += report.newton_steps
        assert total <= 58

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_a_start_off_the_lines_keeps_the_lp_dual_fit_bit_for_bit(self, scale):
        """On the size ladder's 100x100 market (``bench/ladder.py``'s recipe),
        the vertex start misses a line by more than a factor e, so the warm
        start is the fit from the LP's duals alone, bit for bit."""
        rng = np.random.default_rng(7)
        p, q = rng.uniform(0.5, 1.5, 100), rng.uniform(0.5, 1.5, 100)
        p, q = p / p.sum(), q / q.sum()
        phi = rng.normal(0.0, 1.0, (100, 100)) * scale
        _, f, g = entropy._warm_start(phi, p, q)
        expected_f, expected_g = lp_dual_fit_reference(phi, p, q)
        assert f.tobytes() == expected_f.tobytes() and g.tobytes() == expected_g.tobytes()
