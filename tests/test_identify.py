"""Rationalizability verdicts, surplus identification, market simulation."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from matchident import (
    BOUNDARY_TOL,
    ConvergenceError,
    DegenerateRayError,
    EntropyModel,
    Margins,
    Matching,
    NonInteriorError,
    RationalizabilityChecks,
    RationalizabilityReport,
    Surplus,
    TypeValues,
    ValidationError,
    barycenter,
    check_rationalizable,
    decompose_separable,
    gauge,
    grad_entropy,
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
    NONFINITE_GAUGE_MARKETS,
    TEN_DECIMAL_MARKET,
    UNIT_CHANGES,
    assert_keeps_line_sums,
    margins_off_their_sums,
    random_boundary_matching,
    random_interior_matching,
    random_margins,
    random_nonseparable_surplus,
    random_surplus,
    separable_split_reference,
)
from matchident import entropy, identify
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


def loop_cross_difference_maxima(mu: np.ndarray) -> list[float]:
    """The diagnostic as the loop it replaced: for each type x of the shorter
    side (rows when square), one ``np.ptp`` over ``lm[x] - lm[x + 1:]``.
    Returns the maximum for each x; their maximum is the diagnostic."""
    lm = np.log(mu)
    pairs = lm if lm.shape[0] <= lm.shape[1] else lm.T
    return [
        float(np.ptp(pairs[x] - pairs[x + 1 :], axis=1).max())
        for x in range(len(pairs) - 1)
    ]


def cycled_matching(rng, d_x: int, d_y: int, last: float = 0.0, floor: float | None = None):
    """The barycenter of random margins with mass moved around 2x2 cycles,
    which keep the margins.  ``last`` is the share of mass moved between the
    last two types of the shorter side; ``floor`` makes one cycle leave its
    emptier cell at that mass."""
    margins = random_margins(rng, d_x, d_y)
    mu = np.outer(margins.p, margins.q)
    rows = mu if d_x <= d_y else mu.T  # a view: the shorter side's types as rows

    def move(a, b, c, d, share=None, keep=None):
        e = min(rows[a, d], rows[b, c])
        e = e * share if keep is None else e - keep
        rows[[a, b], [c, d]] += e
        rows[[a, b], [d, c]] -= e

    for _ in range(6):
        a, b = rng.choice(rows.shape[0], 2, replace=False)
        c, d = rng.choice(rows.shape[1], 2, replace=False)
        move(a, b, c, d, share=rng.uniform(0.1, 0.5))
    if last:
        move(rows.shape[0] - 2, rows.shape[0] - 1, 0, 1, share=last)
    if floor is not None:
        move(0, 1, 1, 0, keep=floor)
    return Matching(mu, margins)


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

    def test_a_rationalizable_report_needs_a_witness(self, assortative_matching):
        with pytest.raises(ValidationError, match="requires a witness"):
            RationalizabilityReport(
                None, 1.0, assortative_matching, RationalizabilityChecks(True, True, True)
            )

    def test_barycenter_has_no_ray(self, uniform2):
        report = check_rationalizable(barycenter(uniform2))
        assert not report.rationalizable
        assert report.t_star is None
        assert report.mu_star is None

    def test_zero_mass_types_do_not_rationalize(self):
        """An interior matching of the positive types stays interior when a
        type has zero mass; the entropy gradients still refuse its empty
        cells, naming the same cell as before."""
        margins = Margins([0.5, 0.5, 0.0], [0.5, 0.5])
        bary = Matching([[0.25, 0.25], [0.25, 0.25], [0.0, 0.0]], margins)
        report = check_rationalizable(bary)
        assert not report.rationalizable and report.t_star is None
        interior = Matching([[0.3, 0.2], [0.2, 0.3], [0.0, 0.0]], margins)
        report = check_rationalizable(interior)
        assert not report.rationalizable and report.witness is None
        assert report.t_star == pytest.approx(5.0, rel=1e-12)
        with pytest.raises(NonInteriorError) as info:
            identify_entropy(interior, EntropyModel.shannon())
        assert info.value.cell == (2, 0)
        # A zero-mass row that holds 9.1e-10, within MASS_TOL, is absent too:
        # the ray keeps what it holds and exits through the present cells.
        report = check_rationalizable(Matching([[0.3, 0.2], [0.2, 0.3], [9e-10, 1e-11]], margins))
        assert report.t_star == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_array_equal(report.mu_star.mu[2], [9e-10, 1e-11])
        # One present column: the polytope is a point, whatever the margins'
        # defect, so there is no ray.
        margins = Margins([0.3 + 4e-10, 0.7 - 4e-10], [1.0, 0.0])
        report = check_rationalizable(Matching([[0.3, 0.0], [0.7, 0.0]], margins))
        assert not report.rationalizable and report.t_star is None

    def test_zero_mass_market_with_an_empty_cell_has_a_nonseparable_witness(self):
        margins = Margins([0.5, 0.5, 0.0], [0.5, 0.5])
        mu = Matching([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]], margins)
        report = check_rationalizable(mu)
        assert report.rationalizable
        np.testing.assert_array_equal(
            report.witness.phi, [[0.0, -1.0], [-1.0, 0.0], [0.0, 0.0]]
        )
        assert report.checks.maximizer and report.checks.nonseparable

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

    def test_a_light_type_is_empty_only_relative_to_its_barycenter_mass(self):
        """A row type of mass 1e-13 whose cells hold 1e-13 and 0: only the
        second is empty, so the witness is -1 on cell (2, 1) alone, which
        discriminates, and the matching is its own exit point."""
        margins = Margins([0.5, 0.5 - 1e-13, 1e-13], [0.5, 0.5])
        mu = Matching([[0.4, 0.1], [0.1 - 1e-13, 0.4], [1e-13, 0.0]], margins)
        report = check_rationalizable(mu)
        assert report.rationalizable and report.t_star == 1.0
        np.testing.assert_array_equal(report.witness.phi, [[0, 0], [0, 0], [0, -1]])
        assert report.checks.maximizer and report.checks.nonseparable

    def test_the_barycenter_of_a_light_type_has_no_empty_cell(self):
        """At the barycenter of margins with a type of mass 1e-13 no cell is
        empty, however small, and the ray is undefined; replacing the light
        row by ``[1e-13, 0]`` gives it a ray and one empty cell, (1, 1)."""
        margins = Margins([1.0 - 1e-13, 1e-13], [0.5, 0.5])
        report = check_rationalizable(barycenter(margins))
        assert not report.rationalizable and report.witness is None
        assert report.t_star is None and report.mu_star is None
        mu = barycenter(margins).mu.copy()
        mu[1] = [1e-13, 0.0]
        report = check_rationalizable(Matching(mu, margins))
        assert report.rationalizable and report.t_star == 1.0
        np.testing.assert_array_equal(report.witness.phi, [[0, 0], [0, -1]])
        assert report.checks.maximizer and report.checks.nonseparable

    def test_a_light_row_that_holds_nothing_is_absent_whatever_the_margin_sums(self):
        """A light type whose every cell is empty is an absent line, as a
        zero-mass type is: rows 0 and 1 are the barycenter of their margins
        within ``BOUNDARY_TOL``, so the verdict is interior with no witness,
        however far within ``MASS_TOL`` the margins' sums are from one.  At
        equal sums the ray is undefined; the column sums' excess alone gives
        it a direction."""
        for excess in (0.0, 5e-10):
            margins = Margins([0.5, 0.5 - 1e-13, 1e-13], [0.5, 0.5 + excess])
            mu = Matching([[0.25, 0.25], [0.25 - 1e-13, 0.25 + excess], [0.0, 0.0]], margins)
            report = check_rationalizable(mu)
            assert not report.rationalizable and not is_boundary(mu)
            assert report.witness is None
            assert (report.t_star is None) == (excess == 0.0)

    def test_a_light_row_that_holds_nothing_does_not_rationalize(self):
        """The zero-mass market of ``test_zero_mass_types_do_not_rationalize``
        with a row type of mass 1e-13 that holds nothing: the row is absent,
        so the verdict is interior and the ray stretches to 5, not 1."""
        margins = Margins([0.5, 0.5 - 1e-13, 1e-13], [0.5, 0.5])
        mu = Matching([[0.3, 0.2], [0.2, 0.3 - 1e-13], [0.0, 0.0]], margins)
        report = check_rationalizable(mu)
        assert not report.rationalizable and report.witness is None
        assert not (report.checks.maximizer or report.checks.nonseparable)
        assert report.t_star == pytest.approx(5.0, rel=1e-12)
        assert not report.mu_star.mu[2].any()

    def test_margins_that_are_their_own_sums_get_an_answer(self):
        """Ten-decimal margins summing to 1 - 1e-10: the ray stretches 35
        times, and its exit point keeps the matching's own line sums."""
        margins = Margins(TEN_DECIMAL_MARKET["p"], TEN_DECIMAL_MARKET["q"])
        mu = Matching(TEN_DECIMAL_MARKET["mu"], margins)
        report = check_rationalizable(mu)
        assert not report.rationalizable
        assert report.t_star == pytest.approx(35.11, abs=5e-3)
        assert_keeps_line_sums(report.mu_star, mu)
        ray, identified = rationalize_gauge(mu)
        assert ray.t_star == report.t_star and ray.mu_star is report.mu_star
        assert identified.diagnostics["maximizer_verified"] == 1.0
        gauged = identify_entropy(mu, EntropyModel.gauge())
        np.testing.assert_array_equal(gauged.phi_raw.phi, identified.phi_raw.phi)
        assert gauged.diagnostics == identified.diagnostics
        # Nine decimals, 2e-9 off the barycenter: the ray stretches 9e7 times,
        # exactly 0.18 / 2e-9 but for rounding, to a vertex.
        margins = Margins([0.3, 0.7], [0.4, 0.6])
        mu = Matching([[0.120000002, 0.179999998], [0.279999998, 0.420000002]], margins)
        report = check_rationalizable(mu)
        assert not report.rationalizable
        assert report.t_star == pytest.approx(9e7, rel=1e-7)
        np.testing.assert_allclose(report.mu_star.mu, [[0.3, 0.0], [0.1, 0.6]], atol=1e-15)
        assert_keeps_line_sums(report.mu_star, mu)

    def test_a_ray_along_the_margin_defect_keeps_the_line_sums(self):
        """A matching off the barycenter of its margins only by their sum
        defect, 5e-10 in one cell: the ray stretches about 2e9 times, to a
        vertex of the matching's own line sums."""
        margins = Margins([0.5, 0.5], [0.5, 0.5 + 5e-10])
        mu = Matching([[0.25, 0.25], [0.25, 0.25 + 5e-10]], margins)
        report = check_rationalizable(mu)
        assert not report.rationalizable and report.t_star > 1e9
        assert_keeps_line_sums(report.mu_star, mu)
        np.testing.assert_allclose(report.mu_star.mu, [[0.5, 0.0], [0.0, 0.5 + 5e-10]], atol=1e-15)


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
                    normal = Surplus(ray.normal)
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
        assert identified.entropy_kind.kind == "gauge"
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

    def test_normalization_is_the_normal_paired_with_the_direction(
        self, assortative_matching
    ):
        rng = np.random.default_rng(94)
        matchings = [assortative_matching]
        for d_x, d_y in [(2, 2), (3, 5), (6, 4)]:
            matchings.extend(sample_matchings(rng, random_margins(rng, d_x, d_y)).values())
        for mu in matchings:
            try:
                ray, identified = rationalize_gauge(mu)
            except DegenerateRayError:
                continue
            pairing = float((ray.normal * ray.direction).sum())
            assert identified.diagnostics["normalization"] == pairing


    def test_a_gradient_past_the_float_range_is_a_named_error(self):
        """On types light enough that the gauge gradient is not finite, the
        ray, the verdict and the entropy's value answer without a warning,
        and every route to the gradient names it.  The verdict still answers
        after the identification raised: its memo holds the ray."""
        gauge_model = EntropyModel.gauge()
        verdicts = {"A": (False, 5e11), "B": (False, 5e11), "C": (True, 1.0)}
        for name, market in NONFINITE_GAUGE_MARKETS.items():
            mu = Matching(market["mu"], Margins(market["p"], market["q"]))
            for route in (
                lambda: rationalize_gauge(mu),
                lambda: identify_entropy(mu, gauge_model),
                lambda: grad_entropy(gauge_model, mu),
            ):
                with pytest.raises(ValidationError, match="gauge gradient is not finite"):
                    route()
            report = check_rationalizable(mu)
            rationalizable, t_star = verdicts[name]
            assert report.rationalizable is rationalizable
            assert report.t_star == pytest.approx(t_star, rel=1e-4)
            assert gauge(mu).t_star == report.t_star
            assert entropy.eval_entropy(gauge_model, mu) == -report.t_star

class TestGaugeIdentificationMemo:
    """``identify`` memoizes, keyed by identity, the last matching scaled with
    its ray and the last one identified with its gauge identification: the
    verdict fills the ray, ``rationalize_gauge`` the identification, and
    ``identify_entropy`` with the gauge reads both."""

    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(18)
        margins = random_margins(rng, 3, 4)
        return (random_interior_matching(rng, margins),
                random_boundary_matching(rng, margins))

    @staticmethod
    def fields(identified):
        return (identified.phi_raw.phi.tobytes(), identified.phi_canonical.phi.tobytes(),
                identified.diagnostics)

    @staticmethod
    def ray_fields(ray):
        return (ray.t_star, ray.binding.tobytes(), ray.normal.tobytes(),
                ray.mu_star.mu.tobytes())

    def fresh(self, mu):
        """Both routes' answers, identified on a new ``Matching`` with the
        contents of ``mu``, which misses the slot."""
        want = self.fields(rationalize_gauge(Matching(mu.mu, mu.margins))[1])
        return want, want

    def test_the_entropy_route_reads_the_slot_with_fresh_answers(self, pair):
        for mu in pair:
            want = self.fresh(mu)
            geometric = rationalize_gauge(mu)[1]
            identified = identify_entropy(mu, EntropyModel.gauge())
            assert (self.fields(geometric), self.fields(identified)) == want
            assert identified.phi_raw is geometric.phi_raw

    def test_a_b_a_gives_the_fresh_answers(self, pair):
        a, b = pair
        fresh = {id(mu): self.fresh(mu) for mu in pair}
        for mu in (a, b, a):
            assert (self.fields(rationalize_gauge(mu)[1]),
                    self.fields(identify_entropy(mu, EntropyModel.gauge()))) == fresh[id(mu)]

    def test_each_call_gets_its_own_diagnostics(self, pair):
        mu = pair[0]
        first = rationalize_gauge(mu)[1].diagnostics
        want = dict(first)
        first["t_star"] = -1.0
        first["extra"] = 2.0
        assert rationalize_gauge(mu)[1].diagnostics == want
        via_entropy = identify_entropy(mu, EntropyModel.gauge()).diagnostics
        assert via_entropy == want
        via_entropy.clear()
        assert identify_entropy(mu, EntropyModel.gauge()).diagnostics == want

    def test_entropy_kind_is_the_model_passed_in(self, pair):
        mu = pair[0]
        assert rationalize_gauge(mu)[1].entropy_kind.kind == "gauge"
        for _ in range(2):
            model = EntropyModel.gauge()
            assert identify_entropy(mu, model).entropy_kind is model

    def test_the_slot_lets_earlier_matchings_go(self):
        # A boundary matching is its own exit point, so its ray holds it.
        rng = np.random.default_rng(19)
        margins = random_margins(rng, 3, 4)
        boundary = random_boundary_matching(rng, margins)
        rationalize_gauge(boundary)
        rationalize_gauge(random_interior_matching(rng, margins))
        ref = weakref.ref(boundary)
        del boundary
        gc.collect()
        assert ref() is None

    def test_verdict_and_identification_share_the_ray(self, pair):
        for mu in pair:
            verdict = check_rationalizable(mu)
            ray = rationalize_gauge(mu)[0]
            assert verdict.mu_star is ray.mu_star
            assert rationalize_gauge(mu)[0] is ray

    def test_a_b_a_gives_the_fresh_rays(self, pair):
        fresh = [self.ray_fields(gauge(Matching(mu.mu, mu.margins))) for mu in pair]
        a, b = pair
        for mu, want in ((a, fresh[0]), (b, fresh[1]), (a, fresh[0])):
            verdict = check_rationalizable(mu)
            ray = rationalize_gauge(mu)[0]
            assert (verdict.t_star, verdict.mu_star.mu.tobytes()) == (want[0], want[3])
            assert self.ray_fields(ray) == want

    def test_equal_contents_are_another_matching(self, pair):
        mu = pair[0]
        twin = Matching(mu.mu, mu.margins)
        ray = rationalize_gauge(mu)[0]
        assert rationalize_gauge(twin)[0] is not ray
        assert check_rationalizable(mu).mu_star is not ray.mu_star

    def test_the_barycenter_raises_every_time_and_leaves_the_slot(
        self, uniform2, interior_matching
    ):
        bary = barycenter(uniform2)
        ray, identified = rationalize_gauge(interior_matching)
        for _ in range(3):
            assert check_rationalizable(bary).t_star is None
            with pytest.raises(DegenerateRayError):
                rationalize_gauge(bary)
            with pytest.raises(DegenerateRayError):
                identify_entropy(bary, EntropyModel.gauge())
        again, reread = rationalize_gauge(interior_matching)
        assert again is ray
        assert reread.phi_raw is identified.phi_raw

    def test_the_slot_lets_earlier_verdicts_go(self):
        rng = np.random.default_rng(17)
        margins = random_margins(rng, 3, 4)
        a = random_interior_matching(rng, margins)
        check_rationalizable(a)
        check_rationalizable(random_interior_matching(rng, margins))
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is None

    def test_one_ray_per_matching_and_nothing_stored_on_a_raise(
        self, monkeypatch, pair, uniform2
    ):
        scaled, ray_of = [], identify.gauge

        def counted(mu_hat):
            scaled.append(mu_hat)
            return ray_of(mu_hat)

        monkeypatch.setattr(identify, "gauge", counted)
        mu = pair[0]
        check_rationalizable(mu)
        rationalize_gauge(mu)
        identify_entropy(mu, EntropyModel.gauge())
        check_rationalizable(mu)
        assert len(scaled) == 1
        twin = Matching(mu.mu, mu.margins)
        ray, identified = rationalize_gauge(twin)
        check_rationalizable(twin)
        assert len(scaled) == 2 and scaled[1] is twin
        bary = barycenter(uniform2)
        for _ in range(3):
            assert check_rationalizable(bary).t_star is None
            with pytest.raises(DegenerateRayError):
                rationalize_gauge(bary)
            with pytest.raises(DegenerateRayError):
                identify_entropy(bary, EntropyModel.gauge())
        assert len(scaled) == 2 + 9
        assert check_rationalizable(twin).mu_star is ray.mu_star
        again, reread = rationalize_gauge(twin)
        assert again is ray and reread.phi_raw is identified.phi_raw
        assert len(scaled) == 11

    def test_a_matching_goes_once_both_caches_have_moved_on(self):
        # A boundary matching is its own exit point, so its ray holds it.
        rng = np.random.default_rng(20)
        margins = random_margins(rng, 3, 4)
        a = random_boundary_matching(rng, margins)
        b = random_interior_matching(rng, margins)
        rationalize_gauge(a)
        check_rationalizable(b)
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is not None  # the last matching identified
        identify_entropy(b, EntropyModel.gauge())
        gc.collect()
        assert ref() is None


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
        """Square, tall and wide shapes: the scan runs over pairs of the
        shorter side."""
        rng = np.random.default_rng(96)
        shapes = [(d_x, d_y) for d_x in range(2, 7) for d_y in range(2, 7)]
        for d_x, d_y in shapes + [(2, 9), (9, 2), (3, 11), (11, 3)]:
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

    def test_gauge_kind_is_the_rationalize_gauge_route(self):
        rng = np.random.default_rng(98)
        model = EntropyModel.gauge()
        for d_x, d_y in [(2, 2), (3, 5), (6, 4)]:
            mu = sample_matchings(rng, random_margins(rng, d_x, d_y))["interior"]
            identified = identify_entropy(mu, model)
            _, geometric = rationalize_gauge(mu)
            assert identified.entropy_kind is model
            assert geometric.entropy_kind.kind == "gauge"
            assert identified.diagnostics == geometric.diagnostics
            np.testing.assert_array_equal(identified.phi_raw.phi, geometric.phi_raw.phi)
            np.testing.assert_array_equal(
                identified.phi_canonical.phi, geometric.phi_canonical.phi
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

    def test_every_routes_canonical_part_is_the_split_of_its_raw_part(self):
        """On margins off their sums by up to ``MASS_TOL``, each route's
        ``phi_canonical`` is the residual of its ``phi_raw`` under weights
        normalized on the fly, bit for bit."""
        rng = np.random.default_rng(30)
        for d_x, d_y in [(2, 2), (3, 5), (6, 4), (9, 9)]:
            margins = margins_off_their_sums(rng, d_x, d_y)
            mu = sample_matchings(rng, margins)["interior"]
            values = TypeValues(*(np.cumsum(rng.uniform(0.5, 1.5, d)) for d in (d_x, d_y)))
            models = (EntropyModel.shannon(), EntropyModel.gauge(), EntropyModel.quantile(values))
            answers = [identify_entropy(mu, model) for model in models]
            answers.append(rationalize_gauge(mu)[1])
            for identified in answers:
                reference = separable_split_reference(identified.phi_raw.phi, margins)[2]
                assert np.array_equal(identified.phi_canonical.phi, reference)

    def test_shannon_gradient_is_one_plus_the_log_bit_for_bit(self, assortative_matching):
        """The shannon route takes one log, for the gradient and the
        diagnostics, and refuses an empty cell before taking it."""
        rng = np.random.default_rng(31)
        model = EntropyModel.shannon()
        for d_x, d_y in [(2, 2), (3, 5), (7, 4)]:
            mu = sample_matchings(rng, random_margins(rng, d_x, d_y))["interior"]
            phi_raw = identify_entropy(mu, model).phi_raw.phi
            assert phi_raw.tobytes() == (1.0 + np.log(mu.mu)).tobytes()
            assert phi_raw.tobytes() == grad_entropy(model, mu).phi.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonInteriorError) as raised:
                identify_entropy(assortative_matching, model)
            with pytest.raises(NonInteriorError) as direct:
                grad_entropy(model, assortative_matching)
        assert raised.value.cell == direct.value.cell == (0, 1)

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


class TestMaxAbsCrossDifferenceOracle:
    """The blocked ``max_abs_cross_difference`` equals the loop it replaced
    bit for bit: max and min are exact, so any blocking gives the same value."""

    @staticmethod
    def diagnostic(mu):
        return identify_entropy(mu, EntropyModel.shannon()).diagnostics["max_abs_cross_difference"]

    @pytest.mark.parametrize("shape", [
        (2, 2), (2, 9), (9, 2), (2, 300), (300, 2),  # 2xN and Nx2
        (7, 40), (40, 7), (12, 12), (150, 300), (300, 150), (200, 200),
    ])
    def test_shapes(self, shape):
        mu = cycled_matching(np.random.default_rng(sum(shape)), *shape)
        assert self.diagnostic(mu) == max(loop_cross_difference_maxima(mu.mu))

    @pytest.mark.parametrize("shape", [(80, 80), (60, 100), (100, 60), (150, 300), (300, 150)])
    def test_the_largest_pair_in_the_last_of_ragged_blocks(self, shape):
        """The pairs span several blocks: five types of the shorter side each
        at 80x80 and 60x100 (the last block has four), and one type against
        chunks of 109 others at 150x300 (the last chunk of row 0 has 40)."""
        short, long = sorted(shape)
        assert short * (short - 1) * long > 2 * identify._BLOCK_CELLS
        mu = cycled_matching(np.random.default_rng(short * long), *shape, last=0.99)
        maxima = loop_cross_difference_maxima(mu.mu)
        assert int(np.argmax(maxima)) == len(maxima) - 1
        assert self.diagnostic(mu) == max(maxima)

    @pytest.mark.parametrize("shape", [(3, 70_000), (70_000, 3)])
    def test_a_long_side_over_several_chunks(self, shape):
        assert max(shape) % identify._BLOCK_CELLS and max(shape) > 2 * identify._BLOCK_CELLS
        mu = cycled_matching(np.random.default_rng(7), *shape, last=0.9)
        assert self.diagnostic(mu) == max(loop_cross_difference_maxima(mu.mu))

    @pytest.mark.parametrize("floor", [1.5 * BOUNDARY_TOL, 3e-12, 1e-10])
    @pytest.mark.parametrize("shape", [(5, 5), (4, 30), (30, 4), (200, 3)])
    def test_log_masses_near_the_boundary_tolerance(self, shape, floor):
        mu = cycled_matching(np.random.default_rng(11), *shape, floor=floor)
        assert mu.mu.min() == pytest.approx(floor, rel=1e-3)
        assert self.diagnostic(mu) == max(loop_cross_difference_maxima(mu.mu))


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

    @pytest.mark.parametrize("seed", [1.5, None, "3", True])
    def test_rejects_seeds_that_are_not_integers(self, cross_market, seed):
        phi, margins = cross_market
        with pytest.raises(ValidationError, match="seed"):
            simulate_market(phi, margins, 10, seed=seed)

    @pytest.mark.parametrize("households", [2.5, True, 10**19])
    def test_rejects_households_that_are_not_a_drawable_count(
        self, cross_market, households
    ):
        phi, margins = cross_market
        with pytest.raises(ValidationError, match="households"):
            simulate_market(phi, margins, households, seed=1)

    @staticmethod
    def counted_solves(monkeypatch) -> list:
        """The solves ``simulate_market`` makes, through ``identify``'s name."""
        solves, solve = [], identify.solve_regularized

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(identify, "solve_regularized", counted)
        return solves

    def test_draws_from_one_population_solve_it_once(self, monkeypatch, cross_market):
        solves = self.counted_solves(monkeypatch)
        phi, margins = cross_market
        with pytest.raises(ValidationError, match="households"):
            simulate_market(phi, margins, 0, seed=0)
        assert solves == []  # validation comes first
        mu_true, first = simulate_market(phi, margins, 1000, seed=3)
        for seed in (3, 4, 3):
            again, drawn = simulate_market(phi, margins, 1000, seed=seed)
            assert again is mu_true
            assert np.array_equal(drawn.mu, first.mu) == (seed == 3)
        assert len(solves) == 1
        assert not mu_true.mu.flags.writeable
        twin, _ = simulate_market(Surplus(phi.phi), margins, 1000, seed=3)
        assert len(solves) == 2 and twin is not mu_true
        np.testing.assert_array_equal(twin.mu, mu_true.mu)
        assert simulate_market(phi, margins, 1000, seed=3)[0] is not mu_true  # one entry
        assert len(solves) == 3

    def test_a_solve_that_does_not_converge_raises_every_time(self, monkeypatch):
        solves = self.counted_solves(monkeypatch)
        rng = np.random.default_rng(32)
        margins = random_margins(rng, 4, 5)
        phi = random_surplus(rng, 4, 5, scale=5.0)
        with monkeypatch.context() as patch:
            patch.setattr(entropy, "IPFP_MAX_ITER", 2)
            for _ in range(3):
                with pytest.raises(ConvergenceError):
                    simulate_market(phi, margins, 100, seed=0)
        assert len(solves) == 3
        mu_true, _ = simulate_market(phi, margins, 100, seed=0)
        assert simulate_market(phi, margins, 100, seed=1)[0] is mu_true
        assert len(solves) == 4

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
