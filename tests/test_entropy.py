"""Entropy evaluation, gradients and the IPFP-regularized solver."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from matchident import (
    IPFP_MAX_ITER,
    IPFP_TOL,
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
    solve_regularized,
    total_surplus,
)
from matchident import entropy
from conftest import (
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


def assert_ipfp_certificate(phi: np.ndarray, margins: Margins, mu: np.ndarray) -> None:
    """Certificate of the shannon optimum: the margins within ``IPFP_TOL``,
    and ``log mu - phi`` separable on the positive cells (its adjacent 2x2
    cross-differences vanish)."""
    assert np.abs(mu.sum(axis=1) - margins.p).max() <= IPFP_TOL
    assert np.abs(mu.sum(axis=0) - margins.q).max() <= IPFP_TOL
    positive = mu > 1e-290  # below this, underflow has eaten the digits
    residual = np.log(np.where(positive, mu, 1.0)) - phi
    cross = residual[:-1, :-1] + residual[1:, 1:] - residual[:-1, 1:] - residual[1:, :-1]
    valid = positive[:-1, :-1] & positive[1:, 1:] & positive[:-1, 1:] & positive[1:, :-1]
    assert np.abs(cross[valid]).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(phi).max())


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
        iterations."""
        rng = np.random.default_rng(97)
        margins = random_margins(rng, 10, 10)
        phi = random_surplus(rng, 10, 10, scale=50.0)
        _, converged = ipfp_log_domain(phi.phi, margins.p, margins.q)
        assert not converged
        _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
        assert report.iterations < 500
        assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_types_with_tiny_mass_stay_on_the_newton_path(self):
        """A row type of relative mass 1e-9 and a column type of 1e-12 do
        not stall the continuation: each stage starts from margins fitted in
        the log domain, not from bare doubled potentials."""
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

    def test_sweeps_that_cannot_finish_under_the_cap_hand_over(self, monkeypatch):
        """The sweeps finish this market in about 350 iterations, fewer than
        the Newton phase is expected to cost; under a cap of 200 they cannot
        finish, so the Newton phase takes over anyway."""
        rng = np.random.default_rng(89)
        margins = random_margins(rng, 40, 40)
        phi = random_surplus(rng, 40, 40, scale=10.0)
        model = EntropyModel.shannon()
        _, uncapped = solve_regularized(model, phi, margins)
        assert uncapped.iterations > 200
        monkeypatch.setattr(entropy, "IPFP_MAX_ITER", 200)
        _, report = solve_regularized(model, phi, margins)
        assert_ipfp_certificate(phi.phi, margins, report.mu.mu)

    def test_stalled_newton_phase_hands_back_to_the_sweeps(self, monkeypatch):
        """A Newton phase that stalls leaves the sweeps to finish exactly as
        they would have alone; its steps still count as iterations."""
        rng = np.random.default_rng(87)
        margins = random_margins(rng, 12, 12)
        phi = random_surplus(rng, 12, 12, scale=10.0)
        model = EntropyModel.shannon()
        monkeypatch.setattr(entropy, "_BLOCK", IPFP_MAX_ITER + 1)
        _, sweeps_only = solve_regularized(model, phi, margins)
        monkeypatch.undo()
        _, newton = solve_regularized(model, phi, margins)
        assert newton.iterations < sweeps_only.iterations
        monkeypatch.setattr(entropy, "_MAX_STAGE_STEPS", 1)
        _, stalled = solve_regularized(model, phi, margins)
        np.testing.assert_array_equal(stalled.mu.mu, sweeps_only.mu.mu)
        assert stalled.iterations > sweeps_only.iterations

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_zero_mass_types_get_zero_rows_without_warnings(self, scale):
        margins = Margins([0.5, 0.5, 0.0], [0.3, 0.7], allow_zero_mass=True)
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

    def test_only_shannon_is_supported(self, uniform2):
        with pytest.raises(ValidationError):
            solve_regularized(EntropyModel.gauge(), Surplus(np.zeros((2, 2))), uniform2)
