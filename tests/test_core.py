"""Domain types, separable decomposition, and elementary market operations."""

import numpy as np
import pytest

from matchident import (
    MASS_TOL,
    SEPARABILITY_TOL,
    EntropyModel,
    Margins,
    Matching,
    NotInPolytopeError,
    SeparableParts,
    Surplus,
    TypeValues,
    ValidationError,
    barycenter,
    check_rationalizable,
    conditionals,
    decompose_separable,
    grad_entropy,
    identify_entropy,
    is_nonseparable,
    rationalize_gauge,
    total_surplus,
)
from matchident import core
from conftest import (
    margins_off_their_sums,
    random_interior_matching,
    random_margins,
    random_surplus,
    separable_split_reference,
    vertices_for,
)


class TestMargins:
    def test_valid_construction(self):
        m = Margins([0.3, 0.7], [0.4, 0.6])
        np.testing.assert_allclose(m.p, [0.3, 0.7])
        np.testing.assert_allclose(m.q, [0.4, 0.6])
        assert m.shape == (2, 2)

    def test_accepts_zeros_but_not_negatives(self):
        m = Margins([0.0, 1.0], [0.5, 0.5])
        assert m.p[0] == 0.0
        for p, q in (([-0.1, 1.1], [0.5, 0.5]), ([0.5, 0.5], [-0.1, 1.1])):
            with pytest.raises(ValidationError, match="positive"):
                Margins(p, q)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValidationError):
            Margins([0.3, 0.6], [0.5, 0.5])
        # within tolerance is fine
        Margins([0.5 + 4e-10, 0.5], [0.5, 0.5])

    def test_keeps_its_normalized_weights_bit_for_bit(self):
        """``p / p.sum()``, ``q / q.sum()`` and whether every type is present,
        kept read-only, for zero-mass types and sums off by up to ``MASS_TOL``."""
        rng = np.random.default_rng(28)
        cases = [Margins([0.5 + 9e-10, 0.5, 0.0], [1.0 - 9e-10, 0.0]),
                 Margins([0.3, 0.7 - 9e-10], [0.25, 0.25, 0.25, 0.25 + 9e-10])]
        for _ in range(200):
            d_x, d_y = rng.integers(2, 8, size=2)
            zero_share = rng.choice([0.0, 0.3])
            cases.append(margins_off_their_sums(rng, d_x, d_y, zero_share))
        assert {m._all_present for m in cases} == {False, True}
        for m in cases:
            assert abs(m.p.sum() - 1.0) <= MASS_TOL and abs(m.q.sum() - 1.0) <= MASS_TOL
            assert m._p_weights.tobytes() == (m.p / m.p.sum()).tobytes()
            assert m._q_weights.tobytes() == (m.q / m.q.sum()).tobytes()
            assert m._all_present == bool(m.p.min() > 0.0 and m.q.min() > 0.0)
            assert not m._p_weights.flags.writeable and not m._q_weights.flags.writeable

    def test_rejects_too_few_types(self):
        with pytest.raises(ValidationError):
            Margins([1.0], [0.5, 0.5])

    def test_arrays_are_frozen_copies(self):
        source = np.array([0.5, 0.5])
        m = Margins(source, [0.5, 0.5])
        source[0] = 9.0  # mutating the input must not reach the instance
        np.testing.assert_allclose(m.p, [0.5, 0.5])
        with pytest.raises(ValueError):
            m.p[0] = 0.1


class TestMatching:
    def test_valid_construction(self, uniform2):
        m = Matching([[0.35, 0.15], [0.15, 0.35]], uniform2)
        assert m.d_x == m.d_y == 2

    def test_clamps_tiny_negatives(self, uniform2):
        m = Matching([[0.5, -5e-13], [5e-13, 0.5 - 1e-12]], uniform2)
        assert m.mu.min() == 0.0

    def test_rejects_real_negatives(self, uniform2):
        with pytest.raises(NotInPolytopeError):
            Matching([[0.501, -0.001], [-0.001, 0.501]], uniform2)

    def test_rejects_margin_violation(self, uniform2):
        with pytest.raises(NotInPolytopeError, match="row 0"):
            Matching([[0.30, 0.15], [0.15, 0.35]], uniform2)
        with pytest.raises(NotInPolytopeError, match="column"):
            Matching([[0.40, 0.10], [0.15, 0.35]], uniform2)

    def test_rejects_shape_mismatch(self, uniform2):
        with pytest.raises(ValidationError):
            Matching(np.full((2, 3), 1.0 / 6.0), uniform2)

    def test_custom_tolerance(self, uniform2):
        loose = [[0.35 + 2e-9, 0.15], [0.15, 0.35]]
        with pytest.raises(NotInPolytopeError):
            Matching(loose, uniform2)
        Matching(loose, uniform2, tol=1e-6)


class TestSurplusAndValues:
    def test_surplus_allows_negative_entries(self):
        Surplus([[0.0, -12.5], [-12.5, 0.0]])

    def test_surplus_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Surplus([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            Surplus([[np.nan, 0.0], [0.0, 1.0]])

    def test_type_values_strictly_increasing(self):
        TypeValues([0.0, 1.0, 2.5], [1.0, 4.0])
        with pytest.raises(ValidationError):
            TypeValues([0.0, 0.0, 1.0], [1.0, 4.0])
        with pytest.raises(ValidationError):
            TypeValues([0.0, 1.0], [4.0, 1.0])

    def test_separable_parts_shape_guard(self):
        with pytest.raises(ValidationError):
            SeparableParts(f=[1.0, 2.0], g=[3.0], residual=np.zeros((2, 2)))

    def test_hand_built_separable_parts_keep_read_only_copies(self):
        f, g = np.array([1.0, -2.0]), np.array([0.5, 3.0, -1.5])
        residual = np.array([[0.25, -0.5, 0.25], [-0.25, 0.5, -0.25]])
        parts = SeparableParts(f=f, g=g, residual=residual)
        expected = f[:, None] + g[None, :] + residual
        f[0] = g[0] = residual[0, 0] = 99.0
        assert parts.f.tolist() == [1.0, -2.0] and parts.g.tolist() == [0.5, 3.0, -1.5]
        assert parts.residual[0, 0] == 0.25
        assert not any(arr.flags.writeable for arr in (parts.f, parts.g, parts.residual))
        np.testing.assert_array_equal(parts.reconstruct(), expected)

    def test_separable_parts_refuse_a_nonfinite_residual(self):
        with pytest.raises(ValidationError, match="residual must be finite"):
            SeparableParts(f=[1.0, 2.0], g=[3.0], residual=[[0.0], [np.nan]])

    def test_surplus_counts_its_types(self):
        phi = Surplus(np.zeros((3, 5)))
        assert (phi.d_x, phi.d_y) == (3, 5)


class TestTotalSurplus:
    def test_identity_surplus(self, uniform2, interior_matching):
        phi = Surplus(np.eye(2))
        assert total_surplus(interior_matching, phi) == pytest.approx(0.70, abs=1e-15)

    def test_zero_surplus(self, uniform2, interior_matching):
        assert total_surplus(interior_matching, Surplus(np.zeros((2, 2)))) == 0.0

    def test_separable_surplus_ignores_the_matching(self, uniform2):
        """A separable surplus scores p @ f + q @ g on every feasible matching."""
        f, g = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        phi = Surplus(f[:, None] + g[None, :])
        expected = uniform2.p @ f + uniform2.q @ g
        assert expected == pytest.approx(5.0)
        rng = np.random.default_rng(42)
        for _ in range(20):
            mu = random_interior_matching(rng, uniform2)
            assert total_surplus(mu, phi) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self, uniform2, interior_matching):
        with pytest.raises(ValidationError):
            total_surplus(interior_matching, Surplus(np.zeros((2, 3))))


class TestDecomposeSeparable:
    def test_separable_input_has_zero_residual(self, uniform2):
        parts = decompose_separable(Surplus([[1.0, 2.0], [3.0, 4.0]]), uniform2)
        np.testing.assert_allclose(parts.residual, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(parts.reconstruct(), [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_surplus_residual(self, uniform2):
        parts = decompose_separable(Surplus(np.eye(2)), uniform2)
        np.testing.assert_allclose(
            parts.residual, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_zero_surplus(self, uniform2):
        parts = decompose_separable(Surplus(np.zeros((2, 2))), uniform2)
        np.testing.assert_allclose(parts.f, 0.0, atol=1e-15)
        np.testing.assert_allclose(parts.g, 0.0, atol=1e-15)
        np.testing.assert_allclose(parts.residual, 0.0, atol=1e-15)

    def test_reconstruction_and_centering_properties(self):
        """Random surpluses: exact reconstruction, doubly centered residual."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            d_x, d_y = rng.integers(2, 6, size=2)
            margins = random_margins(rng, d_x, d_y)
            phi = random_surplus(rng, d_x, d_y, scale=3.0)
            parts = decompose_separable(phi, margins)
            np.testing.assert_allclose(parts.reconstruct(), phi.phi, atol=1e-12)
            np.testing.assert_allclose(
                parts.residual @ margins.q, np.zeros(d_x), atol=1e-12
            )
            np.testing.assert_allclose(
                margins.p @ parts.residual, np.zeros(d_y), atol=1e-12
            )

    def test_equals_a_split_that_normalizes_on_the_fly(self):
        """The weights ``Margins`` keeps give the split that normalizes ``p``
        and ``q`` on every call, bit for bit."""
        rng = np.random.default_rng(29)
        for _ in range(100):
            d_x, d_y = rng.integers(2, 9, size=2)
            margins = margins_off_their_sums(rng, d_x, d_y, rng.choice([0.0, 0.3]))
            phi = random_surplus(rng, d_x, d_y, scale=10.0 ** rng.integers(-3, 4))
            parts = decompose_separable(phi, margins)
            for got, want in zip((parts.f, parts.g, parts.residual),
                                 separable_split_reference(phi.phi, margins)):
                assert np.array_equal(got, want)

    def test_idempotent_on_residuals(self):
        """Decomposing a residual returns it unchanged (it is a projection)."""
        rng = np.random.default_rng(8)
        margins = random_margins(rng, 3, 4)
        phi = random_surplus(rng, 3, 4)
        residual = decompose_separable(phi, margins).residual
        again = decompose_separable(Surplus(residual), margins)
        np.testing.assert_allclose(again.residual, residual, atol=1e-13)
        np.testing.assert_allclose(again.f, 0.0, atol=1e-13)
        np.testing.assert_allclose(again.g, 0.0, atol=1e-13)


class TestIsNonseparable:
    def test_examples(self, uniform2):
        assert is_nonseparable(Surplus(np.eye(2)), uniform2)
        assert not is_nonseparable(Surplus([[1.0, 2.0], [3.0, 4.0]]), uniform2)
        assert not is_nonseparable(Surplus(np.zeros((2, 2))), uniform2)

    def test_random_separable_surpluses_are_separable(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d_x, d_y = rng.integers(2, 6, size=2)
            margins = random_margins(rng, d_x, d_y)
            f = rng.normal(0.0, 2.0, d_x)
            g = rng.normal(0.0, 2.0, d_y)
            assert not is_nonseparable(Surplus(f[:, None] + g[None, :]), margins)

    def test_margins_summing_to_one_within_mass_tol_leave_separable_surpluses_separable(self):
        """Margins whose sums miss one within ``MASS_TOL`` are normalized in
        the decomposition: a separable surplus leaves a residual of rounding
        alone, and a residual has zero weighted row and column means, while a
        cross-difference still discriminates."""
        margins = Margins([0.5, 0.5], [0.5, 0.5 + 5e-10])
        assert not is_nonseparable(Surplus([[1.0, 1.0], [0.0, 0.0]]), margins)
        assert is_nonseparable(Surplus(np.eye(2)), margins)
        rng = np.random.default_rng(23)
        for _ in range(50):
            d_x, d_y = rng.integers(2, 6, size=2)
            base = random_margins(rng, d_x, d_y)
            a, b = rng.uniform(-MASS_TOL, MASS_TOL, size=2) / 2
            margins = Margins(base.p * (1.0 + a), base.q * (1.0 + b))
            f = rng.normal(0.0, 2.0, d_x)
            g = rng.normal(0.0, 2.0, d_y)
            separable = Surplus(f[:, None] + g[None, :])
            assert not is_nonseparable(separable, margins)
            scale = 1e-15 * np.abs(separable.phi).max()
            assert np.abs(decompose_separable(separable, margins).residual).max() <= scale
            phi = random_surplus(rng, d_x, d_y)
            residual = decompose_separable(phi, margins).residual
            scale = 1e-15 * np.abs(phi.phi).max()
            assert np.abs(residual @ margins.q).max() <= scale
            assert np.abs(margins.p @ residual).max() <= scale

    def test_only_cells_between_positive_mass_types_count(self):
        """Every feasible matching is zero on a zero-mass type's lines, so
        what ``phi`` holds there neither discriminates nor sets the scale."""
        margins = Margins([0.5, 0.5, 0.0], [0.5, 0.5])
        assert not is_nonseparable(Surplus([[0, 0], [0, 0], [1, 0]]), margins)
        assert is_nonseparable(Surplus([[1, 0], [0, 1], [0, 0]]), margins)
        # Against max|phi| = 1e12 the flip would sit at 1e2, far above 1e-3.
        assert is_nonseparable(Surplus([[1e-3, 0], [0, 0], [1e12, 0]]), margins)

    def test_cross_difference_equivalence_2x2_uniform(self, uniform2):
        """With uniform 2x2 margins the residual is a quarter of the
        cross-difference, so the verdict flips at cross-difference
        ``4 * SEPARABILITY_TOL * max|phi|``."""
        rng = np.random.default_rng(22)
        for _ in range(200):
            phi = random_surplus(rng, 2, 2, scale=2.0)
            cross = phi.phi[0, 0] + phi.phi[1, 1] - phi.phi[0, 1] - phi.phi[1, 0]
            flip = 4.0 * SEPARABILITY_TOL * np.abs(phi.phi).max()
            assert is_nonseparable(phi, uniform2) == (abs(cross) > flip)
        # max|phi| = 4 here, so the flip sits at cross-difference 1.6e-9.
        base = Surplus([[1.0, 2.0], [3.0, 4.0]])
        bump = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert not is_nonseparable(Surplus(base.phi + 1.2e-9 * bump), uniform2)
        assert is_nonseparable(Surplus(base.phi + 2e-9 * bump), uniform2)


class TestBarycenter:
    def test_uniform(self, uniform2):
        np.testing.assert_allclose(barycenter(uniform2).mu, np.full((2, 2), 0.25))

    def test_product_form(self):
        m = Margins([0.3, 0.7], [0.4, 0.6])
        np.testing.assert_allclose(
            barycenter(m).mu, [[0.12, 0.18], [0.28, 0.42]], atol=1e-15
        )

    def test_is_always_feasible(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            d_x, d_y = rng.integers(2, 7, size=2)
            margins = random_margins(rng, d_x, d_y)
            b = barycenter(margins)
            np.testing.assert_allclose(b.mu.sum(axis=1), margins.p, atol=1e-12)
            np.testing.assert_allclose(b.mu.sum(axis=0), margins.q, atol=1e-12)


class TestConditionals:
    def test_independent_matching(self):
        margins = Margins([0.3, 0.7], [0.4, 0.6])
        row_cond, col_cond = conditionals(barycenter(margins))
        np.testing.assert_allclose(row_cond, np.tile(margins.q, (2, 1)), atol=1e-15)
        np.testing.assert_allclose(col_cond, np.tile(margins.p, (2, 1)).T, atol=1e-15)

    def test_assortative_matching(self, assortative_matching):
        row_cond, col_cond = conditionals(assortative_matching)
        np.testing.assert_allclose(row_cond, np.eye(2))
        np.testing.assert_allclose(col_cond, np.eye(2))

    def test_interior_fixture(self, interior_matching):
        row_cond, _ = conditionals(interior_matching)
        np.testing.assert_allclose(row_cond, [[0.7, 0.3], [0.3, 0.7]])

    def test_rows_and_columns_normalize(self):
        rng = np.random.default_rng(31)
        margins = random_margins(rng, 3, 4)
        mu = random_interior_matching(rng, margins)
        row_cond, col_cond = conditionals(mu)
        np.testing.assert_allclose(row_cond.sum(axis=1), np.ones(3), atol=1e-12)
        np.testing.assert_allclose(col_cond.sum(axis=0), np.ones(4), atol=1e-12)

    def test_refuses_zero_mass_margins(self):
        margins = Margins([0.0, 1.0], [0.5, 0.5])
        mu = Matching([[0.0, 0.0], [0.5, 0.5]], margins)
        with pytest.raises(ValidationError):
            conditionals(mu)


class TestLibraryBuiltArrays:
    """Arrays the library computes are frozen in place, not copied: they
    keep the finite test and are read-only, while arrays a caller passes in
    are still copied."""

    def test_an_overflowing_decomposition_is_refused(self):
        margins = Margins([1 - 1e-9, 1e-9], [1 - 1e-9, 1e-9])
        phi = Surplus([[-1.5e308, 1.5e308], [1.5e308, 1.5e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="f must be finite"):
                decompose_separable(phi, margins)

    def test_an_exit_point_off_its_margins_is_refused_with_the_constructors_message(
        self, uniform2
    ):
        """The gauge's exit point skips the constructor's other checks, not
        its margin test: a row, or a column, off by more than ``MASS_TOL`` is
        refused in the same words."""
        row_off = [[0.25, 0.25], [0.25, 0.25 + 2e-9]]
        column_off = [[0.25 + 2e-9, 0.25 - 2e-9]] * 2
        for crafted in (row_off, column_off):
            with pytest.raises(NotInPolytopeError) as constructed:
                Matching(crafted, uniform2)
            with pytest.raises(NotInPolytopeError) as admitted:
                core._admit(np.array(crafted), uniform2, MASS_TOL)
            assert str(admitted.value) == str(constructed.value)

    def test_results_are_read_only(self, interior_matching, assortative_matching):
        models = (EntropyModel.shannon(), EntropyModel.gauge(),
                  EntropyModel.quantile(TypeValues([0.0, 1.0], [0.0, 1.0])))
        parts = decompose_separable(Surplus(np.eye(2)), interior_matching.margins)
        arrays = [parts.f, parts.g, parts.residual,
                  check_rationalizable(assortative_matching).witness.phi]
        for identified in (rationalize_gauge(interior_matching)[1],
                           *(identify_entropy(interior_matching, m) for m in models)):
            arrays += [identified.phi_raw.phi, identified.phi_canonical.phi]
        arrays += [grad_entropy(m, interior_matching).phi for m in models]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_a_callers_array_is_copied(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        phi = Surplus(values)
        assert not np.shares_memory(phi.phi, values)
        assert values.flags.writeable
        values[0, 0] = 9.0
        np.testing.assert_array_equal(phi.phi, [[1.0, 2.0], [3.0, 4.0]])
