"""Rationalizability verdicts, surplus identification, market simulation."""

import math

import numpy as np
import pytest

from matchident import (
    BOUNDARY_TOL,
    DegenerateRayError,
    EntropyModel,
    Margins,
    Matching,
    NonInteriorError,
    Surplus,
    TypeValues,
    ValidationError,
    barycenter,
    check_rationalizable,
    decompose_separable,
    face_normal,
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
from conftest import (
    UNIT_CHANGES,
    random_boundary_matching,
    random_interior_matching,
    random_margins,
    random_nonseparable_surplus,
    random_surplus,
)
from matchident.identify import _certifies


def sample_matchings(rng, margins):
    """One matching of each kind, built without vertex enumeration."""
    bary = np.outer(margins.p, margins.q)
    vertex = maximize_surplus(random_surplus(rng, *margins.shape), margins).mu_opt
    pull = rng.uniform(0.2, 0.8)
    interior = Matching(pull * bary + (1.0 - pull) * vertex.mu, margins)
    return {
        "interior": interior,
        "boundary": gauge(interior).mu_star,
        "vertex": vertex,
        "near-barycenter": Matching(bary + 1e-6 * (vertex.mu - bary), margins),
    }


def brute_force_max_abs_cross_difference(mu: np.ndarray) -> float:
    """The full m x m x n x n tensor of log cross-differences, maximized."""
    lm = np.log(mu)
    crosses = (
        lm[:, None, :, None]
        + lm[None, :, None, :]
        - lm[:, None, None, :]
        - lm[None, :, :, None]
    )
    return float(np.abs(crosses).max())


class TestCheckRationalizable:
    def test_assortative_is_rationalizable(self, assortative_matching):
        report = check_rationalizable(assortative_matching)
        assert report.rationalizable
        np.testing.assert_allclose(report.witness.phi, [[0.0, -1.0], [-1.0, 0.0]])
        assert report.t_star == pytest.approx(1.0, abs=1e-12)
        assert report.checks.boundary
        assert report.checks.maximizer
        assert report.checks.nonseparable

    def test_interior_fixture_is_not(self, interior_matching):
        report = check_rationalizable(interior_matching)
        assert not report.rationalizable
        assert report.witness is None
        assert report.t_star == pytest.approx(2.5, abs=1e-12)
        assert not report.checks.boundary

    def test_barycenter_has_no_ray(self, uniform2):
        report = check_rationalizable(barycenter(uniform2))
        assert not report.rationalizable
        assert report.t_star is None
        assert report.mu_star is None

    def test_witness_makes_the_observation_optimal(self):
        """On the boundary, the observation scores 0 against its witness and
        nothing scores more."""
        rng = np.random.default_rng(90)
        for _ in range(15):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            mu = random_boundary_matching(rng, margins)
            report = check_rationalizable(mu)
            assert report.rationalizable
            assert total_surplus(mu, report.witness) == pytest.approx(0.0, abs=1e-10)
            assert is_maximizer(report.witness, mu)

    def test_verdict_equals_boundary_equals_gauge_touch(self):
        """The three characterizations agree on a randomized sweep."""
        rng = np.random.default_rng(91)
        for _ in range(60):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            if rng.uniform() < 0.5:
                mu = random_interior_matching(rng, margins)
            else:
                mu = random_boundary_matching(rng, margins)
            report = check_rationalizable(mu)
            assert report.rationalizable == is_boundary(mu)
            assert report.rationalizable == (report.t_star <= 1.0 + 1e-9)
            if report.rationalizable:
                assert report.checks.maximizer
                assert report.checks.nonseparable
            else:
                assert report.witness is None


class TestCertificates:
    def test_dual_certificate_agrees_with_the_lp(self):
        """The closed-form certificate gives the LP re-check's answer.

        The gauge face normal certifies the exit point ``mu_star`` but not an
        interior observation, so both answers occur.
        """
        rng = np.random.default_rng(95)
        shapes = [(2, 2), (2, 5), (4, 3), (6, 6), (9, 7), (12, 12), (16, 20), (24, 24)]
        answers = set()
        for d_x, d_y in shapes:
            for _ in range(4):
                margins = random_margins(rng, d_x, d_y)
                for mu in sample_matchings(rng, margins).values():
                    ray, identified = rationalize_gauge(mu)
                    normal = Surplus(face_normal(mu, ray))
                    witness = Surplus(np.where(mu.mu <= BOUNDARY_TOL, -1.0, 0.0))
                    for phi, point in ((witness, mu), (normal, ray.mu_star), (normal, mu)):
                        answer = _certifies(phi.phi, point)
                        assert answer == is_maximizer(phi, point)
                        answers.add(answer)
                    report = check_rationalizable(mu)
                    assert report.checks.maximizer == (
                        report.rationalizable and _certifies(witness.phi, mu)
                    )
                    assert identified.diagnostics["maximizer_verified"] == float(
                        _certifies(normal.phi, ray.mu_star)
                    )
        assert answers == {False, True}


class TestScaleInvariance:
    """The units of a surplus, or of type values, are arbitrary: no
    separability or rationalizability answer may depend on them."""

    def test_separability_and_verdict_flags_hold_at_every_scale(self):
        rng = np.random.default_rng(96)
        for d_x, d_y in [(2, 2), (3, 4), (6, 6)]:
            margins = random_margins(rng, d_x, d_y)
            phi = random_nonseparable_surplus(rng, margins).phi
            separable = rng.normal(0.0, 2.0, (d_x, 1)) + rng.normal(0.0, 2.0, (1, d_y))
            for t in UNIT_CHANGES:
                assert is_nonseparable(Surplus(t * phi), margins)
                assert not is_nonseparable(Surplus(t * separable), margins)
                vertex = maximize_surplus(Surplus(t * phi), margins).mu_opt
                report = check_rationalizable(vertex)
                assert report.rationalizable
                assert report.checks.maximizer and report.checks.nonseparable

    def test_quantile_identification_holds_in_any_units_of_the_type_values(self):
        rng = np.random.default_rng(97)
        margins = random_margins(rng, 3, 4)
        mu = sample_matchings(rng, margins)["interior"]
        x_values, y_values = np.array([1.0, 2.5, 3.0]), np.array([0.5, 1.0, 2.0, 4.0])
        base = identify_entropy(mu, EntropyModel.quantile(TypeValues(x_values, y_values)))
        assert base.diagnostics["nonseparable"] == 1.0
        for t in UNIT_CHANGES:
            values = TypeValues(t * x_values, t * y_values)
            scaled = identify_entropy(mu, EntropyModel.quantile(values))
            assert scaled.diagnostics["nonseparable"] == 1.0
            np.testing.assert_allclose(
                scaled.phi_canonical.phi, t * base.phi_canonical.phi, rtol=1e-9
            )


class TestRationalizeGauge:
    def test_hand_fixture(self, interior_matching):
        ray, identified = rationalize_gauge(interior_matching)
        assert ray.t_star == pytest.approx(2.5, abs=1e-9)
        np.testing.assert_allclose(ray.mu_star.mu, 0.5 * np.eye(2), atol=1e-9)
        np.testing.assert_allclose(
            identified.phi_raw.phi, [[0.0, -12.5], [-12.5, 0.0]], atol=1e-9
        )
        assert identified.entropy_kind == "gauge-geometric"
        assert identified.diagnostics["normalization"] == pytest.approx(1.0, abs=1e-10)
        assert identified.diagnostics["maximizer_verified"] == 1.0
        assert identified.diagnostics["nonseparable"] == 1.0

    def test_boundary_matching_is_fixed(self, assortative_matching):
        ray, identified = rationalize_gauge(assortative_matching)
        assert ray.t_star == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(ray.mu_star.mu, assortative_matching.mu, atol=1e-12)
        # witness surplus is supported on the unmatched cells
        np.testing.assert_array_equal(ray.binding, [[False, True], [True, False]])

    def test_barycenter_raises(self, uniform2):
        with pytest.raises(DegenerateRayError):
            rationalize_gauge(barycenter(uniform2))

    def test_normalization_and_optimality_on_randoms(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            d_x, d_y = rng.integers(2, 5, size=2)
            margins = random_margins(rng, d_x, d_y)
            mu = random_interior_matching(rng, margins)
            ray, identified = rationalize_gauge(mu)
            bary = np.outer(margins.p, margins.q)
            pairing = float(np.sum(identified.phi_raw.phi * (mu.mu - bary)))
            assert pairing == pytest.approx(ray.t_star, rel=1e-10)
            assert identified.diagnostics["maximizer_verified"] == 1.0
            assert is_boundary(ray.mu_star)
            # canonical part is doubly centered
            parts = decompose_separable(identified.phi_canonical, margins)
            np.testing.assert_allclose(parts.f, 0.0, atol=1e-10)
            np.testing.assert_allclose(parts.g, 0.0, atol=1e-10)


class TestIdentifyEntropy:
    def test_shannon_fixture_cross_difference(self, interior_matching):
        identified = identify_entropy(interior_matching, EntropyModel.shannon())
        expected = 2.0 * math.log(7.0 / 3.0)
        assert identified.diagnostics["cross_difference"] == pytest.approx(
            expected, abs=1e-9
        )
        assert identified.diagnostics["max_abs_cross_difference"] == pytest.approx(
            expected, abs=1e-9
        )
        assert identified.diagnostics["nonseparable"] == 1.0

    def test_max_abs_cross_difference_matches_the_tensor(self):
        rng = np.random.default_rng(96)
        for d_x in range(2, 7):
            for d_y in range(2, 7):
                mu = sample_matchings(rng, random_margins(rng, d_x, d_y))["interior"]
                identified = identify_entropy(mu, EntropyModel.shannon())
                assert identified.diagnostics["max_abs_cross_difference"] == pytest.approx(
                    brute_force_max_abs_cross_difference(mu.mu), rel=1e-12
                )

    def test_barycenter_identifies_separable_surplus(self):
        rng = np.random.default_rng(93)
        margins = random_margins(rng, 3, 4)
        identified = identify_entropy(barycenter(margins), EntropyModel.shannon())
        assert identified.diagnostics["nonseparable"] == 0.0
        np.testing.assert_allclose(identified.phi_canonical.phi, 0.0, atol=1e-10)

    def test_boundary_error_propagates(self, assortative_matching):
        with pytest.raises(NonInteriorError):
            identify_entropy(assortative_matching, EntropyModel.shannon())

    def test_gauge_kind_reports_stretch(self, interior_matching):
        identified = identify_entropy(interior_matching, EntropyModel.gauge())
        assert identified.diagnostics["t_star"] == pytest.approx(2.5, abs=1e-12)
        np.testing.assert_allclose(
            identified.phi_raw.phi, [[0.0, -12.5], [-12.5, 0.0]], atol=1e-9
        )

    def test_canonical_parts_are_centered_for_every_route(
        self, interior_matching, uniform2
    ):
        values = TypeValues([0.0, 1.0], [0.0, 1.0])
        for model in (
            EntropyModel.shannon(),
            EntropyModel.gauge(),
            EntropyModel.quantile(values),
        ):
            identified = identify_entropy(interior_matching, model)
            parts = decompose_separable(identified.phi_canonical, uniform2)
            np.testing.assert_allclose(parts.f, 0.0, atol=1e-10)
            np.testing.assert_allclose(parts.g, 0.0, atol=1e-10)

    def test_shannon_and_gauge_read_assortativity_positively(
        self, interior_matching
    ):
        """Both convex routes attribute positive complementarity to a
        positively assortative observation.  (The quantile functional is
        concave along this direction, so its gradient is not sign-comparable;
        the finite-difference oracle covers its correctness.)"""
        for model in (EntropyModel.shannon(), EntropyModel.gauge()):
            canonical = identify_entropy(interior_matching, model).phi_canonical.phi
            assert canonical[0, 0] > 0.0
            assert canonical[0, 1] < 0.0

    def test_shannon_round_trip(self):
        """solve then identify recovers the canonical surplus."""
        rng = np.random.default_rng(94)
        model = EntropyModel.shannon()
        for _ in range(10):
            d_x, d_y = rng.integers(2, 6, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_nonseparable_surplus(rng, margins)
            _, report = solve_regularized(model, phi, margins)
            identified = identify_entropy(report.mu, model)
            expected = decompose_separable(phi, margins).residual
            np.testing.assert_allclose(
                identified.phi_canonical.phi, expected, atol=1e-7
            )


class TestSimulateMarket:
    @pytest.fixture
    def cross_market(self, uniform2):
        c = math.log(7.0 / 3.0)
        return Surplus([[c, 0.0], [0.0, c]]), uniform2

    def test_reproducible(self, cross_market):
        phi, margins = cross_market
        first_true, first_emp = simulate_market(phi, margins, 1000, seed=3)
        second_true, second_emp = simulate_market(phi, margins, 1000, seed=3)
        np.testing.assert_array_equal(first_emp.mu, second_emp.mu)
        np.testing.assert_array_equal(first_true.mu, second_true.mu)
        _, other = simulate_market(phi, margins, 1000, seed=4)
        assert np.abs(other.mu - first_emp.mu).max() > 0.0

    def test_single_household(self, cross_market):
        phi, margins = cross_market
        _, empirical = simulate_market(phi, margins, 1, seed=0)
        assert np.count_nonzero(empirical.mu) == 1
        assert empirical.mu.max() == 1.0
        assert empirical.margins.p.min() == 0.0  # one side type unobserved

    def test_empirical_margins_recomputed(self, cross_market):
        phi, margins = cross_market
        _, empirical = simulate_market(phi, margins, 997, seed=5)
        np.testing.assert_allclose(
            empirical.mu.sum(axis=1), empirical.margins.p, atol=1e-12
        )
        np.testing.assert_allclose(
            empirical.mu.sum(axis=0), empirical.margins.q, atol=1e-12
        )
        assert empirical.mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_households(self, cross_market):
        phi, margins = cross_market
        with pytest.raises(ValidationError):
            simulate_market(phi, margins, 0, seed=0)

    def test_rejects_negative_seed(self, cross_market):
        phi, margins = cross_market
        with pytest.raises(ValidationError):
            simulate_market(phi, margins, 10, seed=-1)

    @pytest.mark.parametrize("households", [2.5, True, 10**19])
    def test_rejects_households_that_are_not_a_drawable_count(
        self, cross_market, households
    ):
        phi, margins = cross_market
        with pytest.raises(ValidationError, match="households"):
            simulate_market(phi, margins, households, seed=1)

    def test_identification_error_shrinks_with_sample_size(self, cross_market):
        """Re-identifying from larger samples gets closer to the truth."""
        phi, margins = cross_market
        truth = decompose_separable(phi, margins).residual
        errors = {}
        for households in (1_000, 100_000):
            _, empirical = simulate_market(phi, margins, households, seed=6)
            identified = identify_entropy(empirical, EntropyModel.shannon())
            estimate = decompose_separable(identified.phi_raw, margins).residual
            errors[households] = np.abs(estimate - truth).max()
        assert errors[100_000] < errors[1_000]
