"""Polytope geometry: dimension, membership, vertices, boundary, gauge ray."""

import numpy as np
import pytest

from matchident import (
    DegenerateRayError,
    InstanceTooLargeError,
    Margins,
    Matching,
    NotInPolytopeError,
    ValidationError,
    barycenter,
    contains,
    dimension,
    enumerate_vertices,
    gauge,
    is_boundary,
)
from conftest import (
    boundary_matching_the_ray_grows,
    random_boundary_matching,
    random_interior_matching,
    random_margins,
    vertices_for,
)


def margin_constraint_rank(d_x: int, d_y: int) -> int:
    """Rank of the row/column-sum constraint matrix, computed from scratch."""
    rows = []
    for x in range(d_x):
        a = np.zeros((d_x, d_y))
        a[x, :] = 1.0
        rows.append(a.ravel())
    for y in range(d_y):
        a = np.zeros((d_x, d_y))
        a[:, y] = 1.0
        rows.append(a.ravel())
    return int(np.linalg.matrix_rank(np.array(rows)))


def gauge_stretch_by_bisection(matching: Matching, tol: float = 1e-12) -> float:
    """Independent gauge oracle: bisect on feasibility along the ray."""
    margins = matching.margins
    bary = np.outer(margins.p, margins.q)
    direction = matching.mu - bary

    def feasible(t: float) -> bool:
        return contains(bary + t * direction, margins, tol=1e-13)

    low, high = 1.0, 2.0
    while feasible(high):
        low, high = high, 2.0 * high
        assert high < 1e9, "ray appears unbounded; matching too close to barycenter"
    while high - low > tol:
        mid = 0.5 * (low + high)
        if feasible(mid):
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


class TestDimension:
    def test_known_values(self):
        assert dimension(Margins([0.5, 0.5], [0.5, 0.5])) == 1
        assert dimension(random_margins(np.random.default_rng(0), 3, 4)) == 6

    def test_matches_constraint_rank(self):
        """Dimension equals cells minus independent margin constraints."""
        for d_x in range(2, 6):
            for d_y in range(2, 6):
                rank = margin_constraint_rank(d_x, d_y)
                assert rank == d_x + d_y - 1
                margins = random_margins(np.random.default_rng(d_x * d_y), d_x, d_y)
                assert dimension(margins) == d_x * d_y - rank


class TestContains:
    def test_examples(self, uniform2):
        assert contains([[0.35, 0.15], [0.15, 0.35]], uniform2)
        assert not contains([[0.5, 0.0], [0.5, 0.0]], uniform2)  # wrong column sums
        assert not contains([[0.6, -0.1], [-0.1, 0.6]], uniform2)

    def test_tolerance_is_respected(self, uniform2):
        nearly = np.array([[0.35, 0.15], [0.15, 0.35]]) + 1e-8
        assert not contains(nearly, uniform2, tol=1e-9)
        assert contains(nearly, uniform2, tol=1e-6)

    def test_rejects_nonfinite(self, uniform2):
        assert not contains([[np.nan, 0.5], [0.5, 0.0]], uniform2)

    def test_agrees_with_matching(self, uniform2):
        """An entry below ``-BOUNDARY_TOL`` is negative to both, even within
        ``tol`` of zero; a wrong shape is an error to both."""
        negative = [[0.5 + 1e-10, -1e-10], [-1e-10, 0.5 + 1e-10]]
        assert not contains(negative, uniform2)
        with pytest.raises(NotInPolytopeError):
            Matching(negative, uniform2)
        with pytest.raises(ValidationError):
            contains([[0.5, 0.5]], uniform2)


class TestEnumerateVertices:
    def test_uniform_2x2(self, uniform2):
        verts = sorted(v.mu[0, 0] for v in enumerate_vertices(uniform2))
        assert len(verts) == 2
        np.testing.assert_allclose(verts, [0.0, 0.5])

    def test_hand_checked_2x2(self):
        margins = Margins([0.3, 0.7], [0.4, 0.6])
        verts = enumerate_vertices(margins)
        expected = [
            np.array([[0.3, 0.0], [0.1, 0.6]]),
            np.array([[0.0, 0.3], [0.4, 0.3]]),
        ]
        assert len(verts) == 2
        for want in expected:
            assert any(np.allclose(v.mu, want, atol=1e-12) for v in verts)

    def test_vertices_are_feasible_with_small_support(self):
        rng = np.random.default_rng(5)
        for d_x, d_y in [(2, 3), (3, 3), (2, 4), (3, 4)]:
            margins = random_margins(rng, d_x, d_y)
            verts = enumerate_vertices(margins)
            assert verts, "polytope always has vertices"
            for v in verts:
                assert contains(v.mu, margins, tol=1e-9)
                assert np.count_nonzero(v.mu > 1e-12) <= d_x + d_y - 1

    def test_deterministic_order(self):
        margins = Margins([0.3, 0.7], [0.4, 0.6])
        first = [v.mu for v in enumerate_vertices(margins)]
        second = [v.mu for v in enumerate_vertices(margins)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_size_guard(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InstanceTooLargeError):
            enumerate_vertices(random_margins(rng, 5, 4))


class TestGauge:
    def test_hand_fixture(self, interior_matching):
        result = gauge(interior_matching)
        assert result.t_star == pytest.approx(2.5, abs=1e-12)
        np.testing.assert_allclose(result.mu_star.mu, 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_array_equal(result.binding, [[False, True], [True, False]])
        assert not result.binding.flags.writeable

    def test_boundary_matching_is_its_own_exit(self, assortative_matching):
        result = gauge(assortative_matching)
        assert result.t_star == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.mu_star.mu, assortative_matching.mu)

    def test_interior_matching_stretches_strictly(self):
        rng = np.random.default_rng(9)
        margins = random_margins(rng, 3, 3)
        mu = random_interior_matching(rng, margins)
        assert gauge(mu).t_star > 1.0

    def test_barycenter_raises(self, uniform2):
        with pytest.raises(DegenerateRayError):
            gauge(barycenter(uniform2))

    def test_no_shrinking_cell_is_degenerate(self, uniform2):
        """Admitted with a loose tolerance, a matching can sit above the
        barycenter in every cell: it is the barycenter within its margin
        defect, and the ray has no exit."""
        mu = Matching(np.full((2, 2), 0.250001), uniform2, tol=1e-5)
        with pytest.raises(DegenerateRayError):
            gauge(mu)

    def test_small_mass_boundary_matching_is_its_own_exit(self):
        """A cell within BOUNDARY_TOL of zero puts the matching on the
        boundary, even where a type's barycenter mass is small: the ray exits
        at the matching itself, through that cell."""
        margins = Margins([1e-6, 1.0 - 1e-6], [0.5, 0.5])
        mu = Matching(
            [[5e-13, 1e-6 - 5e-13], [0.5 - 5e-13, 0.5 - 1e-6 + 5e-13]], margins
        )
        assert is_boundary(mu)
        result = gauge(mu)
        assert result.t_star == 1.0
        np.testing.assert_array_equal(result.mu_star.mu, mu.mu)
        np.testing.assert_array_equal(result.binding, [[True, False], [False, False]])
        assert result.normal.max() <= 0.0
        direction = mu.mu - barycenter(margins).mu
        assert np.sum(result.normal * direction) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_matching_that_shrinks_no_empty_cell_is_degenerate(self):
        p, mu = boundary_matching_the_ray_grows()
        mu = Matching(mu, Margins(p, p))
        assert is_boundary(mu)
        with pytest.raises(DegenerateRayError, match="empty wherever"):
            gauge(mu)

    def test_normal_is_the_scaled_exit_face(self, interior_matching):
        result = gauge(interior_matching)
        np.testing.assert_allclose(result.normal, [[0.0, -5.0], [-5.0, 0.0]], rtol=1e-12)
        assert not result.normal.flags.writeable
        direction = interior_matching.mu - barycenter(interior_matching.margins).mu
        assert np.sum(result.normal * direction) == pytest.approx(1.0, abs=1e-12)

    def test_ray_identity_and_zero_touch(self):
        """mu_star equals the ray formula entrywise and touches zero."""
        rng = np.random.default_rng(10)
        for _ in range(25):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            mu = random_interior_matching(rng, margins)
            result = gauge(mu)
            bary = np.outer(margins.p, margins.q)
            formula = bary + result.t_star * (mu.mu - bary)
            np.testing.assert_allclose(result.mu_star.mu, formula, atol=1e-12)
            assert abs(result.mu_star.mu.min()) <= 1e-12
            assert np.all(result.mu_star.mu[result.binding] <= 1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            mu = random_interior_matching(rng, margins)
            assert gauge(mu).t_star == pytest.approx(
                gauge_stretch_by_bisection(mu), abs=1e-9
            )

    def test_scaling_along_own_ray(self):
        """Walking fraction s of the way out divides the stretch by s."""
        rng = np.random.default_rng(12)
        margins = random_margins(rng, 3, 2)
        mu = random_interior_matching(rng, margins)
        result = gauge(mu)
        bary = np.outer(margins.p, margins.q)
        for s in (0.25, 0.5, 0.9, 1.0, result.t_star):
            point = Matching(bary + s * (mu.mu - bary), margins)
            assert gauge(point).t_star == pytest.approx(result.t_star / s, rel=1e-10)


class TestIsBoundary:
    def test_examples(self, interior_matching, assortative_matching, uniform2):
        assert is_boundary(assortative_matching)
        assert not is_boundary(interior_matching)
        assert not is_boundary(barycenter(uniform2))

    def test_gauge_boundary_equivalence(self):
        """Boundary iff the gauge stretch is 1 (when the ray exists)."""
        rng = np.random.default_rng(13)
        for _ in range(40):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            if rng.uniform() < 0.5:
                mu = random_interior_matching(rng, margins)
                assert not is_boundary(mu)
                assert gauge(mu).t_star > 1.0 + 1e-9
            else:
                mu = random_boundary_matching(rng, margins)
                assert is_boundary(mu)
                assert gauge(mu).t_star == pytest.approx(1.0, abs=1e-9)

    def test_zero_mass_types_are_not_a_boundary(self):
        """The cells of a zero-mass type are empty in every feasible matching;
        only the cells between types of positive mass count."""
        margins = Margins([0.5, 0.5, 0.0], [0.5, 0.5], allow_zero_mass=True)
        for mu in ([[0.25, 0.25], [0.25, 0.25], [0.0, 0.0]],
                   [[0.3, 0.2], [0.2, 0.3], [0.0, 0.0]]):
            assert not is_boundary(Matching(mu, margins))
        assert is_boundary(Matching([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]], margins))

    def test_convexity_of_membership(self):
        """Segments between feasible matchings stay feasible."""
        rng = np.random.default_rng(14)
        margins = random_margins(rng, 3, 4)
        verts = vertices_for(margins)
        for _ in range(20):
            a = verts[rng.integers(len(verts))].mu
            b = random_interior_matching(rng, margins).mu
            t = rng.uniform()
            assert contains(t * a + (1.0 - t) * b, margins, tol=1e-9)
