"""Polytope geometry: dimension, membership, vertices, boundary, gauge ray."""

import gc
import weakref

import numpy as np
import pytest

from matchident import (
    BOUNDARY_TOL,
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
    assert_keeps_line_sums,
    matching_with_a_cell_the_ray_grows,
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

    def test_zero_mass_types_add_no_direction(self):
        """With zero-mass types, the dimension is the rank of the vertex
        differences: only the cells between positive-mass types move.  A
        zero-mass type on one side or on both of a 2x2 market leaves a
        segment."""
        cases = [([0.5, 0.5, 0.0], [0.5, 0.5]), ([0.5, 0.5, 0.0], [0.5, 0.5, 0.0])]
        rng = np.random.default_rng(15)
        for d_x in range(2, 5):
            for d_y in range(2, 5):
                for _ in range(2):
                    p, q = rng.uniform(0.5, 1.5, d_x), rng.uniform(0.5, 1.5, d_y)
                    p[rng.choice(d_x, rng.integers(1, d_x), replace=False)] = 0.0
                    q[rng.choice(d_y, rng.integers(0, d_y), replace=False)] = 0.0
                    cases.append((p / p.sum(), q / q.sum()))
        for p, q in cases:
            margins = Margins(p, q)
            verts = [v.mu.ravel() for v in enumerate_vertices(margins)]
            rank = np.linalg.matrix_rank(np.array(verts) - verts[0])
            assert dimension(margins) == rank


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
        """Empty is relative to the barycenter mass: where a type's barycenter
        mass is 5e-7, a cell of 5e-13 is interior and the ray stretches past
        it by about 1e-6, while a cell within BOUNDARY_TOL of its barycenter
        mass puts the matching on the boundary; the ray then exits at the
        matching itself, through that cell."""
        margins = Margins([1e-6, 1.0 - 1e-6], [0.5, 0.5])

        def light(corner):
            rows = [[corner, 1e-6 - corner], [0.5 - corner, 0.5 - 1e-6 + corner]]
            return Matching(rows, margins)

        interior = light(5e-13)
        assert not is_boundary(interior)
        result = gauge(interior)
        assert result.t_star == pytest.approx(1.0 + 1e-6, rel=1e-9)
        np.testing.assert_array_equal(result.binding, [[True, False], [False, False]])
        mu = light(2e-19)
        assert mu.mu[0, 0] <= BOUNDARY_TOL * barycenter(margins).mu[0, 0]
        assert is_boundary(mu)
        result = gauge(mu)
        assert result.t_star == 1.0
        np.testing.assert_array_equal(result.mu_star.mu, mu.mu)
        np.testing.assert_array_equal(result.binding, [[True, False], [False, False]])
        assert result.normal.max() <= 0.0
        direction = mu.mu - barycenter(margins).mu
        assert np.sum(result.normal * direction) == pytest.approx(1.0, abs=1e-12)

    def test_a_cell_of_exactly_boundary_tol_is_its_own_exit(self):
        """The empty-cell scan is skipped only when every cell holds more than
        BOUNDARY_TOL; a smallest cell of exactly BOUNDARY_TOL times its
        barycenter mass still binds, and one a float above it is interior."""
        margins = Margins([0.2, 0.8], [0.2, 0.8])
        edge = BOUNDARY_TOL * barycenter(margins).mu[0, 0]

        def corner(c):
            return Matching([[c, 0.2 - c], [0.2 - c, 0.6 + c]], margins)

        mu = corner(edge)
        assert mu.mu[0, 0] == edge and is_boundary(mu)
        result = gauge(mu)
        assert result.t_star == 1.0
        assert result.mu_star is mu
        np.testing.assert_array_equal(result.binding, [[True, False], [False, False]])
        above = corner(np.nextafter(edge, 1.0))
        assert not is_boundary(above)
        assert gauge(above).t_star > 1.0

    def test_empty_cells_only_on_a_zero_mass_type_take_the_interior_path(self):
        """Cells of a zero-mass type are at most BOUNDARY_TOL but never empty
        in the boundary sense, so the ray stretches past the matching."""
        margins = Margins([0.5, 0.5, 0.0], [0.4, 0.6])
        mu = Matching([[0.25, 0.25], [0.15, 0.35], [0.0, 0.0]], margins)
        assert np.all((mu.mu <= BOUNDARY_TOL) == (np.asarray(margins.p) == 0.0)[:, None])
        result = gauge(mu)
        bary = np.outer(margins.p, margins.q)
        assert result.t_star > 1.0
        assert result.binding.any() and not result.binding[2].any()
        np.testing.assert_allclose(
            result.mu_star.mu, bary + result.t_star * (mu.mu - bary), atol=1e-15
        )
        assert result.mu_star.mu[result.binding].max() <= BOUNDARY_TOL

    def test_a_small_cell_the_ray_grows_is_not_empty(self):
        """A cell of 5e-13 holding 50 times its barycenter mass is not empty:
        the matching is interior, and its ray exits through cells it shrinks."""
        p, mu = matching_with_a_cell_the_ray_grows()
        mu = Matching(mu, Margins(p, p))
        assert not is_boundary(mu)
        result = gauge(mu)
        assert result.t_star == pytest.approx(5.0, rel=1e-6)
        np.testing.assert_array_equal(result.binding, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        bary = barycenter(mu.margins).mu
        assert np.all(mu.mu[result.binding] < bary[result.binding])
        assert result.mu_star.mu[0, 0] > mu.mu[0, 0]

    def test_normal_is_the_scaled_exit_face(self, interior_matching):
        result = gauge(interior_matching)
        np.testing.assert_allclose(result.normal, [[0.0, -5.0], [-5.0, 0.0]], rtol=1e-12)
        assert not result.normal.flags.writeable
        direction = interior_matching.mu - barycenter(interior_matching.margins).mu
        assert np.sum(result.normal * direction) == pytest.approx(1.0, abs=1e-12)

    def test_direction_is_read_only_and_pairs_to_one_with_the_normal(self):
        """``direction`` is the scaled direction, ``mu - p q`` up to the rounding
        moved off its line sums; the normal pairs with it to one."""
        rng = np.random.default_rng(19)
        for _ in range(10):
            margins = random_margins(rng, *rng.integers(2, 5, size=2))
            mu = random_interior_matching(rng, margins)
            result = gauge(mu)
            assert not result.direction.flags.writeable
            np.testing.assert_allclose(
                result.direction, mu.mu - np.outer(margins.p, margins.q), atol=1e-15
            )
            assert np.sum(result.normal * result.direction) == pytest.approx(1.0, rel=1e-12)

    def test_direction_of_a_boundary_matching_is_mu_minus_the_barycenter(
        self, assortative_matching
    ):
        result = gauge(assortative_matching)
        margins = assortative_matching.margins
        expected = assortative_matching.mu - margins.p[:, None] * margins.q
        assert result.direction.tobytes() == expected.tobytes()
        assert not result.direction.flags.writeable

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

    def test_exit_point_keeps_the_matchings_own_line_sums(self):
        """On matchings admitted with a margin defect up to 1e-6, the exit
        point's line sums are the matching's own within ``4 * eps``, whatever
        the stretch, and its binding cells are empty; it is read-only."""
        rng = np.random.default_rng(18)
        for _ in range(25):
            margins = random_margins(rng, *rng.integers(2, 5, size=2))
            mu = random_interior_matching(rng, margins).mu.copy()
            mu[0] *= 1.0 + rng.uniform(-1.0, 1.0) * 1e-6 / mu[0].sum()
            loose = Matching(mu, margins, tol=1e-6)
            result = gauge(loose)
            assert_keeps_line_sums(result.mu_star, loose)
            bary = np.outer(margins.p, margins.q)
            assert np.all(result.mu_star.mu[result.binding] <= BOUNDARY_TOL * bary[result.binding])
            assert not result.mu_star.mu.flags.writeable

    def test_gauge_keeps_nothing(self):
        """``gauge`` is a pure function: the matching it scaled is free to go."""
        rng = np.random.default_rng(17)
        a = random_interior_matching(rng, random_margins(rng, 3, 4))
        gauge(a)
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is None


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
        margins = Margins([0.5, 0.5, 0.0], [0.5, 0.5])
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
