"""Exact surplus maximization: optimality, duality, determinism, homogeneity."""

import numpy as np
import pytest

from matchident import (
    OPTIMALITY_TOL,
    Margins,
    Matching,
    Surplus,
    ValidationError,
    barycenter,
    enumerate_vertices,
    is_discriminating,
    is_maximizer,
    is_nonseparable,
    maximize_surplus,
    total_surplus,
)
from conftest import (
    UNIT_CHANGES,
    random_interior_matching,
    random_margins,
    random_nonseparable_surplus,
    random_surplus,
    vertices_for,
)

SMALL_SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2), (2, 6), (6, 2), (3, 3), (3, 4), (4, 3)]


def vertex_scan_value(phi: Surplus, margins: Margins) -> float:
    """Brute-force oracle: the maximum of the objective over all vertices."""
    return max(total_surplus(v, phi) for v in vertices_for(margins))


class TestFixtures:
    def test_assortative_surplus(self, uniform2):
        solution = maximize_surplus(Surplus(np.eye(2)), uniform2)
        assert solution.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(solution.mu_opt.mu, 0.5 * np.eye(2), atol=1e-12)

    def test_zero_surplus(self, uniform2):
        solution = maximize_surplus(Surplus(np.zeros((2, 2))), uniform2)
        assert solution.value == 0.0

    def test_separable_surplus(self, uniform2):
        f, g = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        phi = Surplus(f[:, None] + g[None, :])
        solution = maximize_surplus(phi, uniform2)
        assert solution.value == pytest.approx(uniform2.p @ f + uniform2.q @ g, abs=1e-12)
        assert not is_discriminating(phi, uniform2)
        # every vertex attains the same value
        for v in vertices_for(uniform2):
            assert total_surplus(v, phi) == pytest.approx(solution.value, abs=1e-12)


class TestOptimality:
    def test_value_matches_vertex_scan(self):
        """Across every small shape, the LP value equals the vertex maximum."""
        rng = np.random.default_rng(50)
        for d_x, d_y in SMALL_SHAPES:
            margins = random_margins(rng, d_x, d_y)
            for _ in range(3):
                phi = random_surplus(rng, d_x, d_y, scale=2.0)
                solution = maximize_surplus(phi, margins)
                assert solution.value == pytest.approx(
                    vertex_scan_value(phi, margins), abs=1e-9
                )

    def test_dual_certificates(self):
        """Dual feasibility, complementary slackness, zero duality gap."""
        rng = np.random.default_rng(51)
        for _ in range(40):
            d_x, d_y = rng.integers(2, 6, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y, scale=3.0)
            solution = maximize_surplus(phi, margins)
            slack = (
                solution.dual_f[:, None] + solution.dual_g[None, :] - phi.phi
            )
            assert slack.min() >= -1e-9
            matched = solution.mu_opt.mu > 1e-9
            assert np.abs(slack[matched]).max() <= 1e-8
            dual_value = margins.p @ solution.dual_f + margins.q @ solution.dual_g
            assert abs(solution.value - dual_value) <= 1e-8
            assert solution.dual_g[-1] == 0.0

    def test_solution_is_a_vertex(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y)
            solution = maximize_surplus(phi, margins)
            support = np.count_nonzero(solution.mu_opt.mu > 1e-12)
            assert support <= d_x + d_y - 1

    def test_deterministic(self):
        rng = np.random.default_rng(53)
        margins = random_margins(rng, 4, 3)
        phi = random_surplus(rng, 4, 3)
        first = maximize_surplus(phi, margins)
        second = maximize_surplus(phi, margins)
        np.testing.assert_array_equal(first.mu_opt.mu, second.mu_opt.mu)
        assert first.value == second.value
        np.testing.assert_array_equal(first.dual_f, second.dual_f)

    def test_shape_mismatch(self, uniform2):
        with pytest.raises(ValidationError):
            maximize_surplus(Surplus(np.zeros((3, 2))), uniform2)


class TestHomogeneity:
    def test_value_scales_and_vertex_is_stable(self):
        """Scaling the surplus by t > 0 scales the value and keeps the argmax."""
        rng = np.random.default_rng(54)
        for _ in range(15):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y)
            base = maximize_surplus(phi, margins)
            for t in (0.5, 2.0, 10.0, *UNIT_CHANGES):
                scaled = maximize_surplus(Surplus(t * phi.phi), margins)
                assert scaled.value == pytest.approx(t * base.value, rel=1e-10)
                np.testing.assert_array_equal(scaled.mu_opt.mu, base.mu_opt.mu)

    def test_value_is_convex_in_the_surplus(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            a = random_surplus(rng, d_x, d_y, scale=2.0)
            b = random_surplus(rng, d_x, d_y, scale=2.0)
            lam = rng.uniform()
            blend = Surplus(lam * a.phi + (1.0 - lam) * b.phi)
            lhs = maximize_surplus(blend, margins).value
            rhs = (
                lam * maximize_surplus(a, margins).value
                + (1.0 - lam) * maximize_surplus(b, margins).value
            )
            assert lhs <= rhs + 1e-10


class TestIsMaximizer:
    def test_examples(self, uniform2, interior_matching, assortative_matching):
        identity = Surplus(np.eye(2))
        assert is_maximizer(identity, assortative_matching)
        assert not is_maximizer(identity, interior_matching)
        assert is_maximizer(Surplus(np.zeros((2, 2))), interior_matching)

    def test_verdict_does_not_depend_on_the_units_of_phi(
        self, interior_matching, assortative_matching
    ):
        for t in UNIT_CHANGES:
            identity = Surplus(t * np.eye(2))
            assert is_maximizer(identity, assortative_matching)
            assert not is_maximizer(identity, interior_matching)

    def test_optimum_always_passes(self):
        rng = np.random.default_rng(56)
        for _ in range(15):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y)
            solution = maximize_surplus(phi, margins)
            assert is_maximizer(phi, solution.mu_opt)


class TestIsDiscriminating:
    def test_methods_agree_on_small_instances(self):
        """Vertex scan, separability and ``is_discriminating`` give one answer.

        The scan is the definition: some vertex is strictly suboptimal.
        """
        rng = np.random.default_rng(57)
        for _ in range(25):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            if rng.uniform() < 0.4:
                f = rng.normal(0.0, 2.0, d_x)
                g = rng.normal(0.0, 2.0, d_y)
                phi = Surplus(f[:, None] + g[None, :])
            else:
                phi = random_nonseparable_surplus(rng, margins)
            best = maximize_surplus(phi, margins).value
            worst = min(total_surplus(v, phi) for v in enumerate_vertices(margins))
            by_vertices = worst < best - OPTIMALITY_TOL
            assert by_vertices == is_discriminating(phi, margins) == is_nonseparable(phi, margins)

    def test_large_instances_use_separability(self):
        rng = np.random.default_rng(58)
        margins = random_margins(rng, 5, 4)
        phi = random_surplus(rng, 5, 4)
        assert is_discriminating(phi, margins) == is_nonseparable(phi, margins)
