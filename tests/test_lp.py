"""Exact surplus maximization: optimality, duality, determinism, homogeneity."""

from collections import defaultdict, deque

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from matchident import (
    BOUNDARY_TOL,
    MASS_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    ConvergenceError,
    Margins,
    Matching,
    Surplus,
    ValidationError,
    barycenter,
    check_rationalizable,
    enumerate_vertices,
    is_discriminating,
    is_maximizer,
    is_nonseparable,
    maximize_surplus,
    total_surplus,
)
from matchident import lp
from matchident.core import _empty_cells
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


def _reference_potentials(basis, phi: np.ndarray):
    """Dual potentials solving u[x] + v[y] = phi[x, y] on the basis tree, and
    the parent of every node on its path to the root, row 0."""
    m, n = phi.shape
    adjacency: dict[int, list[int]] = defaultdict(list)
    for x, y in basis:
        adjacency[x].append(m + y)
        adjacency[m + y].append(x)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    queue = deque([0])
    parent = {0: None}
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor in parent:
                continue
            parent[neighbor] = node
            if node < m:  # row node fixes the column potential
                v[neighbor - m] = phi[node, neighbor - m] - u[node]
            else:
                u[neighbor] = phi[neighbor, node - m] - v[node - m]
            queue.append(neighbor)
    return u, v, parent


def _reference_cycle_signs(basis, entering, m: int, root_parent):
    """Gaining and losing cells of the pivot cycle, by a breadth-first search
    for the tree path from the entering cell's row node to its column node.

    The losing cells come in Cunningham's order: the cycle walked from its
    apex, the first common node of the two root paths, down to the row
    node, across the entering cell and back up from the column node."""
    x0, y0 = entering
    adjacency: dict[int, list[int]] = defaultdict(list)
    for x, y in basis:
        adjacency[x].append(m + y)
        adjacency[m + y].append(x)
    parent: dict[int, int] = {x0: x0}
    queue = deque([x0])
    while queue:
        node = queue.popleft()
        if node == m + y0:
            break
        for neighbor in adjacency[node]:
            if neighbor not in parent:
                parent[neighbor] = node
                queue.append(neighbor)
    path = [m + y0]
    while path[-1] != x0:
        path.append(parent[path[-1]])
    path.reverse()  # row node of entering cell ... column node of entering cell
    row_ancestors = set()
    node = x0
    while node is not None:
        row_ancestors.add(node)
        node = root_parent[node]
    apex = m + y0
    while apex not in row_ancestors:
        apex = root_parent[apex]
    k = path.index(apex)
    cells = [(a, b - m) if a < m else (b, a - m) for a, b in zip(path, path[1:])]
    plus = [entering] + cells[1::2]
    walk = list(range(k))[::-1] + list(range(k, len(cells)))[::-1]
    minus = [cells[i] for i in walk if i % 2 == 0]
    return plus, minus


def transportation_simplex_reference(phi: Surplus, margins: Margins, fill=None):
    """The transportation simplex with both tree searches redone from the
    basis list on every pivot: the same start on ``fill`` (zeros, the
    northwest corner, by default), pricing and leaving rule as
    ``lp._simplex``.  Returns mu, value, dual_f, dual_g and the numbers of
    pivots and of degenerate pivots."""
    m, n = margins.shape
    cost = phi.phi
    entering_tol = SEPARABILITY_TOL * float(np.abs(cost).max())
    fill = np.zeros(margins.shape) if fill is None else fill
    mu, basic, *_ = lp._greedy_start(fill, margins.p, margins.q, cost)
    cap = lp._pivot_cap(m, n)
    basis_set = {tuple(cell) for cell in np.argwhere(basic).tolist()}
    basis = sorted(basis_set)
    degenerate = 0
    for pivots in range(cap + 1):
        u, v, root_parent = _reference_potentials(basis, cost)
        reduced = cost - u[:, None] - v[None, :]
        reduced[tuple(np.transpose(basis))] = -np.inf
        best = reduced.max()
        if best <= entering_tol:
            break
        if pivots == cap:
            raise ConvergenceError(
                f"transportation simplex did not terminate within {cap} pivots",
                iterations=cap,
                residual=float(best),
            )
        candidates = np.flatnonzero(reduced >= best - entering_tol)
        entering = divmod(int(candidates[0]), n)
        plus, minus = _reference_cycle_signs(basis, entering, m, root_parent)
        theta = min(mu[cell] for cell in minus)
        leaving = [cell for cell in minus if mu[cell] <= theta][-1]
        if theta <= BOUNDARY_TOL * (margins.p[leaving[0]] * margins.q[leaving[1]]):
            degenerate += 1  # the leaving cell was empty: no mass moved beyond rounding
        for cell in plus:
            mu[cell] += theta
        for cell in minus:
            mu[cell] -= theta
        mu[leaving] = 0.0
        basis_set.remove(leaving)
        basis_set.add(entering)
        basis = sorted(basis_set)
    mu[mu <= BOUNDARY_TOL * np.outer(margins.p, margins.q)] = 0.0  # empty cells are zero
    shift = v[-1]
    return mu, float(np.sum(mu * cost)), u + shift, v - shift, pivots, degenerate


def stress_market(rng: np.random.Generator, i: int, d_x: int, d_y: int, uniform_every: int):
    """Margins uniform on every ``uniform_every``-th market, a surplus of
    quarter integers (many ties) on every other one."""
    if i % uniform_every == 0:
        margins = Margins(np.full(d_x, 1.0 / d_x), np.full(d_y, 1.0 / d_y))
    else:
        margins = random_margins(rng, d_x, d_y)
    phi = rng.normal(0.0, 2.0, (d_x, d_y))
    if i % 2 == 0:
        phi = np.round(4.0 * phi) / 4.0
    return margins, Surplus(phi)


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


def float_limit_market(rng: np.random.Generator):
    """A d x d market, d from 2 to 29, with margins uniform(0.5, 1.5) and a
    N(0, 1) surplus rescaled so its largest magnitude is 10 to a uniform(300,
    308) power."""
    d = int(rng.integers(2, 30))
    p, q = rng.uniform(0.5, 1.5, d), rng.uniform(0.5, 1.5, d)
    p, q = p / p.sum(), q / q.sum()
    z = rng.normal(0.0, 1.0, (d, d))
    return Margins(p, q), Surplus(z / np.abs(z).max() * 10.0 ** rng.uniform(300, 308))


class TestFloatLimit:
    """The simplex pivots on ``phi`` times a power of two, so surpluses near
    the float limit neither overflow in the potentials nor change a bit of
    the answer; pytest turns any ``RuntimeWarning`` into an error."""

    @pytest.mark.parametrize("scale", [8e307, 1e308])
    def test_potentials_that_overflow_raise_a_named_error(self, scale):
        phi = Surplus([[scale, -scale], [-scale, scale]])
        with pytest.raises(ValidationError, match="overflow"):
            maximize_surplus(phi, Margins([0.5, 0.5], [0.5, 0.5]))
        # The present 1x1 block's potential is finite, but the absent
        # column's least feasible one, 2.5 * scale, is not.
        phi = Surplus([[-1.5 * scale, scale], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="overflow"):
            maximize_surplus(phi, Margins([1.0, 0.0], [1.0, 0.0]))

    def test_markets_near_the_float_limit_answer_with_a_certificate(self):
        """Finite potentials that certify the vertex within
        ``SEPARABILITY_TOL * max|phi|``, read in units of ``max|phi|`` (a
        plain ``f + g - phi`` overflows), and the answer of ``phi`` scaled
        by a power of two into [1/2, 1), scaled back bit for bit."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            margins, phi = float_limit_market(rng)
            solution = maximize_surplus(phi, margins)
            top = np.abs(phi.phi).max()
            f, g = solution.dual_f / top, solution.dual_g / top
            slack = f[:, None] + g[None, :] - phi.phi / top
            assert np.isfinite(solution.dual_f).all() and np.isfinite(solution.dual_g).all()
            assert slack.min() >= -SEPARABILITY_TOL
            assert np.abs(slack[solution.mu_opt.mu > 0.0]).max() <= SEPARABILITY_TOL
            exponent = int(np.frexp(top)[1])
            unit = maximize_surplus(Surplus(np.ldexp(phi.phi, -exponent)), margins)
            np.testing.assert_array_equal(solution.mu_opt.mu, unit.mu_opt.mu)
            np.testing.assert_array_equal(solution.dual_f, np.ldexp(unit.dual_f, exponent))
            np.testing.assert_array_equal(solution.dual_g, np.ldexp(unit.dual_g, exponent))
            assert solution.pivots == unit.pivots

    def test_absent_potentials_that_fit_once_shifted_answer(self):
        """The absent columns' potentials are worked out in the scaled units
        too: one of them, taken against the unshifted block, would be
        ``2e308``, yet once the last ``dual_g`` is zero every potential fits."""
        phi = Surplus([[-1e308, 1e308, -5e307]] * 2)
        margins = Margins([0.5, 0.5], [1.0, 0.0, 0.0])
        solution = maximize_surplus(phi, margins)
        np.testing.assert_array_equal(solution.dual_f, [-5e307, -5e307])
        np.testing.assert_array_equal(solution.dual_g, [-5e307, 1.5e308, 0.0])
        np.testing.assert_array_equal(solution.mu_opt.mu, [[0.5, 0.0, 0.0]] * 2)
        assert solution.value == -1e308


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


class TestAgainstReference:
    """The reference redoes both tree searches from the basis list on every
    pivot and applies the same pricing and leaving rule; potentials, cycle
    and apex are unique on the tree, so every answer is bit-identical."""

    SHAPES = [(2, 2), (2, 7), (7, 2), (3, 3), (4, 6), (6, 4), (5, 5), (8, 8), (9, 13),
              (13, 9), (12, 12), (16, 16), (20, 14), (14, 20), (20, 20), (25, 25),
              (30, 24), (30, 30), (36, 40), (40, 40), (60, 60), (80, 80)]

    def markets(self):
        rng = np.random.default_rng(60)
        for i, (d_x, d_y) in enumerate(self.SHAPES * 2):
            yield stress_market(rng, i, d_x, d_y, uniform_every=3)

    @staticmethod
    def assert_same(solution, reference) -> None:
        mu, value, dual_f, dual_g, pivots, degenerate = reference
        np.testing.assert_array_equal(solution.mu_opt.mu, mu)
        assert solution.value == value
        np.testing.assert_array_equal(solution.dual_f, dual_f)
        np.testing.assert_array_equal(solution.dual_g, dual_g)
        assert (solution.pivots, solution.degenerate_pivots) == (pivots, degenerate)

    def test_answers_are_bit_identical(self):
        for margins, phi in self.markets():
            reference = transportation_simplex_reference(phi, margins)
            self.assert_same(maximize_surplus(phi, margins), reference)

    def test_surplus_fill_answers_are_bit_identical(self):
        """The LP the entropic warm start runs: the start fills by surplus."""
        for margins, phi in self.markets():
            reference = transportation_simplex_reference(phi, margins, fill=phi.phi)
            self.assert_same(lp._simplex(phi, margins, phi.phi), reference)

    def test_pivot_cap_raises_with_the_same_residual(self, monkeypatch):
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 7)
        rng = np.random.default_rng(61)
        margins, phi = stress_market(rng, 1, 12, 10, uniform_every=3)
        with pytest.raises(ConvergenceError) as expected:
            transportation_simplex_reference(phi, margins)
        with pytest.raises(ConvergenceError) as raised:
            maximize_surplus(phi, margins)
        assert str(raised.value) == str(expected.value)
        assert raised.value.iterations == expected.value.iterations == 7
        assert raised.value.residual == expected.value.residual > 0.0


class TestPivotCounts:
    def test_separable_surplus_needs_no_pivot(self):
        rng = np.random.default_rng(63)
        margins = random_margins(rng, 6, 5)
        phi = Surplus(rng.normal(0.0, 2.0, 6)[:, None] + rng.normal(0.0, 2.0, 5)[None, :])
        solution = maximize_surplus(phi, margins)
        assert (solution.pivots, solution.degenerate_pivots) == (0, 0)

    def test_cap_grows_with_the_market(self, monkeypatch):
        """The cap is never below ``m * n`` (700x700 was measured at 11,531
        pivots); with ``_MAX_PIVOTS`` per 10,000 cells lowered to 500, a
        101x100 market gets two blocks and finishes its 746 pivots."""
        assert all(lp._pivot_cap(k, k + 1) >= k * (k + 1) for k in (1, 99, 100, 699, 2000))
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 500)
        rng = np.random.default_rng(1)
        margins, phi = random_margins(rng, 101, 100), random_surplus(rng, 101, 100)
        assert maximize_surplus(phi, margins).pivots > 500

    def test_uniform_margins_with_ties_pivot_degenerately(self):
        rng = np.random.default_rng(64)
        margins, phi = degenerate_market(rng, 0, 12)
        solution = maximize_surplus(phi, margins)
        assert 0 < solution.degenerate_pivots <= solution.pivots

    def test_a_pivot_that_moves_a_light_types_whole_mass_is_not_degenerate(self):
        """Row 0 holds 1e-13, less than ``BOUNDARY_TOL`` but not empty: the
        one pivot moves all of it from column 0 to column 1."""
        margins = Margins([1e-13, 1.0 - 1e-13], [0.5, 0.5])
        solution = maximize_surplus(Surplus([[0.0, 1.0], [1.0, 0.0]]), margins)
        assert solution.mu_opt.mu[0].tolist() == [0.0, 1e-13]
        assert (solution.pivots, solution.degenerate_pivots) == (1, 0)

    def test_a_pivot_is_degenerate_exactly_when_its_leaving_cell_is_empty(
        self, monkeypatch
    ):
        """On markets with light types, each pivot's flag is ``core``'s
        empty-cell rule on the cell that leaves the basis; some pivots move
        less than ``BOUNDARY_TOL`` and still count."""
        pivot, flags, margins = lp._pivot, [], None

        def checked_pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q):
            before, m = np.array(mu), len(mu)
            basic = {(x, c - m) for x in range(m) for c in adjacency[x]}
            degenerate = pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q)
            (leaving,) = basic - {(x, c - m) for x in range(m) for c in adjacency[x]}
            empty = _empty_cells(before, margins)[leaving]
            flags.append((degenerate, bool(empty), before[leaving] <= BOUNDARY_TOL))
            return degenerate

        monkeypatch.setattr(lp, "_pivot", checked_pivot)
        rng = np.random.default_rng(65)
        for i in range(24):
            margins, phi = light_market(rng, 2 + i % 2, 3 + i % 5, 3 + (3 * i) % 5)
            maximize_surplus(phi, margins)
        assert all(degenerate == empty for degenerate, empty, _ in flags)
        assert any(tiny and not degenerate for degenerate, _, tiny in flags)


    def test_basis_tree_stays_strongly_feasible(self, monkeypatch):
        """Before every pivot, each basic cell without mass has its row node
        as the child of its column node in the tree rooted at row 0."""
        pivot, checked = lp._pivot, []

        def checked_pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q):
            m = len(mu)
            for x in range(m):
                for column in adjacency[x]:
                    if mu[x][column - m] == 0.0:
                        checked.append(parent[x] == column)
            return pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q)

        monkeypatch.setattr(lp, "_pivot", checked_pivot)
        rng = np.random.default_rng(66)
        for i in range(12):
            margins, phi = degenerate_market(rng, i, 6 + 2 * i)
            maximize_surplus(phi, margins)
        assert len(checked) > 1000 and all(checked)


class TestKeptTree:
    def test_kept_tree_equals_a_fresh_walk(self, monkeypatch):
        """After every pivot, the parents, depths and potentials kept across
        pivots are those of a full walk of the updated basis, bit for bit."""
        pivot, compared = lp._pivot, []

        def compared_pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q):
            degenerate = pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q)
            fresh_parent, fresh_depth, fresh_potential = lp._tree(adjacency)
            assert parent == fresh_parent
            assert depth == fresh_depth
            assert np.array(potential).tobytes() == np.array(fresh_potential).tobytes()
            compared.append(degenerate)
            return degenerate

        monkeypatch.setattr(lp, "_pivot", compared_pivot)
        rng = np.random.default_rng(67)
        for i, d in enumerate((8, 13, 21, 34, 60, 64)):
            for margins, phi in (
                degenerate_market(rng, i, d),
                stress_market(rng, i, d, d + i % 3, uniform_every=3),
            ):
                maximize_surplus(phi, margins)
        assert len(compared) > 1000 and any(compared) and not all(compared)


def degenerate_market(rng: np.random.Generator, i: int, d: int):
    """A d x d market with uniform margins on even ``i`` and margins in small
    integer ratios on odd ``i`` (equal partial sums, so degenerate bases),
    and a quarter-integer surplus (ties)."""
    if i % 2 == 0:
        p, q = np.ones(d), np.ones(d)
    else:
        p, q = (rng.integers(1, 4, d).astype(float) for _ in range(2))
    phi = np.round(4.0 * rng.normal(0.0, 2.0, (d, d))) / 4.0
    return Margins(p / p.sum(), q / q.sum()), Surplus(phi)


def assert_agrees_with_highs(phi: Surplus, margins: Margins, solution) -> None:
    """Strong duality against HiGHS: the same optimal value, dual
    feasibility everywhere and complementary slackness on the support, all
    relative to ``max|phi|``.  The constraints are sparse, one row per
    margin entry."""
    d_x, d_y = margins.shape
    cost = phi.phi
    scale = np.abs(cost).max()
    rows = sparse.kron(sparse.eye(d_x), np.ones((1, d_y)))
    cols = sparse.kron(np.ones((1, d_x)), sparse.eye(d_y))
    highs = linprog(
        -cost.ravel(),
        A_eq=sparse.vstack([rows, cols], format="csr"),
        b_eq=np.concatenate([margins.p, margins.q]),
        method="highs",
    )
    assert highs.status == 0
    assert abs(solution.value + highs.fun) <= OPTIMALITY_TOL * scale
    slack = solution.dual_f[:, None] + solution.dual_g[None, :] - cost
    assert slack.min() >= -SEPARABILITY_TOL * scale
    support = solution.mu_opt.mu > 0.0
    assert np.abs(slack[support]).max() <= SEPARABILITY_TOL * scale


def zero_mass_market(rng: np.random.Generator, i: int, d_x: int, d_y: int):
    """Margins with zero-mass types: one to half of the columns, up to half
    of rows 1 and on, and row 0 on every third ``i``; the positive masses
    are uniform on even ``i``; the surplus is a normal one, or integers
    from -3 to 3 (ties) on odd ``i``."""
    p, q = (np.ones(d) if i % 2 == 0 else rng.uniform(0.2, 1.0, d) for d in (d_x, d_y))
    q[rng.choice(d_y, rng.integers(1, d_y // 2 + 1), replace=False)] = 0.0
    p[rng.choice(np.arange(1, d_x), rng.integers(0, (d_x - 1) // 2 + 1), replace=False)] = 0.0
    if i % 3 == 0:
        p[0] = 0.0
    phi = rng.normal(size=(d_x, d_y))
    if i % 2:
        phi = rng.integers(-3, 4, (d_x, d_y)).astype(float)
    return Margins(p / p.sum(), q / q.sum()), Surplus(phi)


def assert_least_feasible_absent_potentials(phi: Surplus, margins: Margins, solution) -> None:
    """An absent column's potential is the least over the present rows, an
    absent row's the least over every column, within ``SEPARABILITY_TOL *
    max|phi|``, and the last ``dual_g`` is zero."""
    rows, cols = margins.p > 0.0, margins.q > 0.0
    f, g, tol = solution.dual_f, solution.dual_g, SEPARABILITY_TOL * np.abs(phi.phi).max()
    least_g = (phi.phi[rows][:, ~cols] - f[rows, None]).max(axis=0)
    np.testing.assert_allclose(g[~cols], least_g, rtol=0.0, atol=tol)
    np.testing.assert_allclose(f[~rows], (phi.phi[~rows] - g).max(axis=1), rtol=0.0, atol=tol)
    assert g[-1] == 0.0


class TestAgainstHighs:
    def test_zero_mass_markets_agree_with_linprog(self):
        """The simplex runs on the present block, and each absent type takes
        its least feasible potential: the answers and dual certificates,
        absent lines included, hold from 2x2 to 40x40, from the northwest
        start and the surplus fill, and on a zero-mass last column, a
        zero-mass row 0, a single present row and a single present column."""
        rng = np.random.default_rng(67)
        markets = []
        for i in range(60):
            d_x, d_y = 2 + (i * 38) // 59, int(rng.integers(2, 41))
            markets.append(zero_mass_market(rng, i, d_x, d_y))
        for p, q in (
            ([0.3, 0.7], [0.2, 0.8, 0.0]),
            ([0.0, 0.4, 0.6], [0.5, 0.5]),
            ([0.0, 1.0, 0.0], [0.2, 0.3, 0.5]),
            ([0.2, 0.8], [0.0, 1.0, 0.0]),
        ):
            markets.append((Margins(p, q), Surplus(rng.normal(size=(len(p), len(q))))))
        for margins, phi in markets:
            for solution in (maximize_surplus(phi, margins), greedy_solve(phi, margins)):
                assert_agrees_with_highs(phi, margins, solution)
                assert_least_feasible_absent_potentials(phi, margins, solution)

    def test_value_and_dual_certificate_agree_with_linprog(self):
        rng = np.random.default_rng(62)
        for i in range(40):
            d_x, d_y = 2 + (i * 38) // 39, int(rng.integers(2, 41))
            margins, phi = stress_market(rng, i, d_x, d_y, uniform_every=4)
            assert_agrees_with_highs(phi, margins, maximize_surplus(phi, margins))

    def test_degenerate_markets_solve_within_the_cap(self):
        """Uniform and integer-ratio margins with tied surpluses, 8x8 to
        120x120 in geometric steps: every solve ends before the pivot cap.
        Their partial sums tie only in exact arithmetic, yet no cell of the
        optimum keeps a rounding-size mass in (0, 1e-14), and the margins
        hold to rounding."""
        rng = np.random.default_rng(65)
        for i in range(30):
            margins, phi = degenerate_market(rng, i, round(8 * 15 ** (i / 29)))
            solution = maximize_surplus(phi, margins)
            assert solution.pivots < lp._MAX_PIVOTS
            assert_agrees_with_highs(phi, margins, solution)
            mu = solution.mu_opt.mu
            assert not np.any((mu > 0.0) & (mu < 1e-14))
            assert np.abs(mu.sum(axis=1) - margins.p).max() <= 1e-15
            assert np.abs(mu.sum(axis=0) - margins.q).max() <= 1e-15

    def test_margin_sums_that_differ_by_up_to_twice_mass_tol_solve(self):
        """``Margins`` admits each sum within ``MASS_TOL`` of 1, and the
        optimum may leave the whole difference of the two in one line."""
        rng = np.random.default_rng(66)
        for i in range(50):
            heavier = 1.0 if i % 2 else -1.0
            p, q = rng.uniform(0.2, 1.0, 7), rng.uniform(0.2, 1.0, 6)
            p = p / p.sum() * (1.0 + heavier * 0.99 * MASS_TOL)
            q = q / q.sum() * (1.0 - heavier * 0.99 * MASS_TOL)
            margins, phi = Margins(p, q), random_surplus(rng, 7, 6)
            assert_agrees_with_highs(phi, margins, maximize_surplus(phi, margins))

    def test_start_basis_has_no_rounding_size_masses(self):
        """The 32x32 integer-ratio market above: its partial sums tie only in
        exact arithmetic, and the start basis puts no mass in (0, 1e-14)
        where exact arithmetic gives zero, yet keeps the margins."""
        rng = np.random.default_rng(65)
        for i in range(16):
            margins, phi = degenerate_market(rng, i, round(8 * 15 ** (i / 29)))
        assert margins.shape == (32, 32)
        mu, *_ = lp._greedy_start(np.zeros(margins.shape), margins.p, margins.q, phi.phi)
        assert not np.any((mu > 0.0) & (mu < 1e-14))
        assert np.abs(mu.sum(axis=1) - margins.p).max() <= MASS_TOL
        assert np.abs(mu.sum(axis=0) - margins.q).max() <= MASS_TOL
        assert_agrees_with_highs(phi, margins, maximize_surplus(phi, margins))


def light_market(rng: np.random.Generator, i: int, d_x: int, d_y: int):
    """Markets for the greedy start: uniform margins on ``i % 4 == 0`` and
    random ones otherwise; from ``i % 4 == 2`` on, one row and one column
    type lighter than ``BOUNDARY_TOL``; on ``i % 4 == 3``, margins whose
    sums differ by the whole ``MASS_TOL``, the heavier side alternating;
    and a half-integer surplus (ties) on odd ``i``."""
    if i % 4 == 0:
        p, q = np.ones(d_x), np.ones(d_y)
    else:
        p, q = rng.uniform(0.2, 1.0, d_x), rng.uniform(0.2, 1.0, d_y)
    if i % 4 >= 2:
        p[rng.integers(d_x)] = 1e-14 * p.sum()
        q[rng.integers(d_y)] = 1e-14 * q.sum()
    p, q = p / p.sum(), q / q.sum()
    if i % 4 == 3:
        lighter = -1.0 if i % 8 == 3 else 1.0
        p, q = p * (1.0 + lighter * MASS_TOL / 2), q * (1.0 - lighter * MASS_TOL / 2)
    phi = rng.normal(0.0, 2.0, (d_x, d_y))
    if i % 2:
        phi = np.round(2.0 * phi) / 2.0
    return Margins(p, q), Surplus(phi)


def greedy_solve(phi: Surplus, margins: Margins):
    return lp._simplex(phi, margins, phi.phi)


def assert_strongly_feasible_tree(mu, adjacency, m: int) -> None:
    """``m + n - 1`` basic cells that span the type nodes, and every basic
    cell without mass has its row node as the child of its column node."""
    assert sum(map(len, adjacency)) == 2 * (len(adjacency) - 1)
    parent, _, _ = lp._tree(adjacency)
    assert all(node >= 0 for node in parent[1:])
    for x in range(m):
        for column in adjacency[x]:
            if mu[x][column - m] == 0.0:
                assert parent[x] == column


def assert_walked(adjacency, parent, depth, potential) -> None:
    """The tree a start returns is a full walk of its basis, bit for bit."""
    fresh_parent, fresh_depth, fresh_potential = lp._tree(adjacency)
    assert parent == fresh_parent
    assert depth == fresh_depth
    assert np.array(potential).tobytes() == np.array(fresh_potential).tobytes()


class TestGreedyStart:
    def test_start_is_a_strongly_feasible_spanning_tree(self):
        """On light types, ties and margin sums that differ by the whole
        ``MASS_TOL``, the start is one strongly feasible spanning tree, the
        same for any positive multiple of the fill: the surplus, or zero
        (the northwest corner)."""
        rng = np.random.default_rng(70)
        for i in range(48):
            margins, phi = light_market(rng, i, *rng.integers(2, 30, 2))
            for fill in (phi.phi, np.zeros(margins.shape)):
                mu, basic, adjacency, *tree = lp._greedy_start(fill, margins.p, margins.q, fill)
                assert basic.sum() == sum(margins.shape) - 1
                assert_strongly_feasible_tree(mu, adjacency, margins.d_x)
                assert_walked(adjacency, *tree)
                for factor in (1e-12, 3.0, 1e12):
                    scaled = lp._greedy_start(factor * fill, margins.p, margins.q, fill)
                    np.testing.assert_array_equal(scaled[0], mu)
                    assert scaled[2] == adjacency

    def test_zero_fill_is_the_northwest_staircase(self):
        """On untied margins the zero fill takes the cells in row-major
        order: ``m + n - 1`` positive cells, each one right of or below the
        one before, from the top left cell to the bottom right one."""
        rng = np.random.default_rng(74)
        for _ in range(40):
            d_x, d_y = rng.integers(2, 41, 2)
            margins = random_margins(rng, d_x, d_y)
            mu, basic, *_ = lp._greedy_start(
                np.zeros(margins.shape), margins.p, margins.q, np.zeros(margins.shape)
            )
            np.testing.assert_array_equal(basic, mu > 0.0)
            cells = np.argwhere(mu > 0.0)  # in row-major order
            assert len(cells) == d_x + d_y - 1
            assert cells[0].tolist() == [0, 0]
            assert cells[-1].tolist() == [d_x - 1, d_y - 1]
            steps = {tuple(step) for step in np.diff(cells, axis=0).tolist()}
            assert steps <= {(0, 1), (1, 0)}

    def test_a_line_left_without_mass_still_joins_the_tree(self):
        """A light column that comes last in every row while the columns
        outweigh the rows by ``MASS_TOL / 2``, or such a row 0 while the
        rows outweigh the columns: the other side runs out first, so the
        line takes what it has left in its best cell."""
        rng = np.random.default_rng(71)
        for transpose in (False, True):
            p, q = rng.uniform(0.2, 1.0, 7), rng.uniform(0.2, 1.0, 6)
            q[2] = 1e-14 * q.sum()
            p, q = p / p.sum() * (1.0 - MASS_TOL / 4), q / q.sum() * (1.0 + MASS_TOL / 4)
            phi = rng.normal(0.0, 2.0, (7, 6))
            phi[:, 2] = -10.0
            if transpose:
                p, q, phi = np.roll(q, -2), p, np.roll(phi.T, -2, axis=0)
            margins = Margins(p, q)
            mu, basic, adjacency, *tree = lp._greedy_start(phi, p, q, phi)
            assert basic.sum() == sum(margins.shape) - 1
            assert_strongly_feasible_tree(mu, adjacency, margins.d_x)
            assert_walked(adjacency, *tree)
            # the light line's one cell holds all its mass, on top of a line
            # that had run out
            light, mass, full = (mu[0], p[0], q) if transpose else (mu[:, 2], q[2], p)
            (cell,) = np.flatnonzero(light)
            assert light[cell] == mass
            assert (mu[:, cell] if transpose else mu[cell]).sum() > full[cell]
            assert_agrees_with_highs(Surplus(phi), margins, greedy_solve(Surplus(phi), margins))

    def test_a_light_column_keeps_its_mass(self):
        """A column type of mass 1e-14: the start drops a remainder only when
        it would be empty in the lightest cell left to take it, so the
        optimum keeps the column's whole mass, and the verdict on that vertex
        has a nonseparable witness."""
        margins = Margins([0.5, 0.5], [1e-14, 1.0 - 1e-14])
        solution = maximize_surplus(Surplus([[1.0, 0.0], [0.0, 1.0]]), margins)
        assert solution.mu_opt.mu[0, 0] == 1e-14
        report = check_rationalizable(solution.mu_opt)
        assert report.rationalizable and report.checks.nonseparable
        np.testing.assert_array_equal(report.witness.phi, [[0, 0], [-1, 0]])

    def test_basis_tree_stays_strongly_feasible(self, monkeypatch):
        """Before every pivot from the greedy start, each basic cell without
        mass has its row node as the child of its column node: light types,
        unequal margin sums, and the ties of uniform and integer-ratio
        margins with a quarter-integer surplus."""
        pivot, checked = lp._pivot, []

        def checked_pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q):
            m = len(mu)
            for x in range(m):
                for column in adjacency[x]:
                    if mu[x][column - m] == 0.0:
                        checked.append(parent[x] == column)
            return pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q)

        monkeypatch.setattr(lp, "_pivot", checked_pivot)
        rng = np.random.default_rng(72)
        for i in range(40):
            for margins, phi in (
                light_market(rng, i, 6 + i, 6 + (7 * i) % 31),
                degenerate_market(rng, i, 6 + i),
            ):
                greedy_solve(phi, margins)
        assert len(checked) > 1000 and all(checked)

    def test_untied_markets_reach_the_same_vertex_in_fewer_pivots(self):
        rng = np.random.default_rng(73)
        pivots = {"northwest": 0, "greedy": 0}
        for _ in range(40):
            d_x, d_y = rng.integers(2, 41, 2)
            margins, phi = random_margins(rng, d_x, d_y), random_surplus(rng, d_x, d_y)
            northwest, greedy = maximize_surplus(phi, margins), greedy_solve(phi, margins)
            mu = northwest.mu_opt.mu
            np.testing.assert_array_equal(greedy.mu_opt.mu > 0.0, mu > 0.0)
            np.testing.assert_allclose(greedy.mu_opt.mu, mu, rtol=0.0, atol=BOUNDARY_TOL)
            assert abs(greedy.value - northwest.value) <= OPTIMALITY_TOL * np.abs(phi.phi).max()
            pivots["northwest"] += northwest.pivots
            pivots["greedy"] += greedy.pivots
        assert pivots["greedy"] < pivots["northwest"] / 2

    def test_zero_mass_markets_start_strongly_feasible(self, monkeypatch):
        """``maximize_surplus`` starts on the present block of each of 300
        zero-mass markets, so every start is a strongly feasible spanning
        tree, and the 300 solves take at most 23,000 pivots.  Carried
        through the tree, the absent types left none of the 300 starts
        strongly feasible, and the solves took 34,573 pivots."""
        greedy_start, starts = lp._greedy_start, []

        def checked_start(fill, p, q, cost):
            mu, basic, adjacency, *tree = greedy_start(fill, p, q, cost)
            assert_strongly_feasible_tree(mu, adjacency, p.size)
            starts.append(basic.shape)
            return mu, basic, adjacency, *tree

        monkeypatch.setattr(lp, "_greedy_start", checked_start)
        rng = np.random.default_rng(5)
        pivots = 0
        for i in range(300):
            margins, phi = zero_mass_market(rng, i, *rng.integers(2, 60, 2))
            pivots += maximize_surplus(phi, margins).pivots
        assert len(starts) == 300
        assert pivots <= 23_000

    def test_degenerate_markets_pass_the_highs_certificate(self):
        rng = np.random.default_rng(65)
        for i in range(30):
            margins, phi = degenerate_market(rng, i, round(8 * 15 ** (i / 29)))
            assert_agrees_with_highs(phi, margins, greedy_solve(phi, margins))
        for i in range(24):
            margins, phi = light_market(rng, i, *rng.integers(2, 30, 2))
            assert_agrees_with_highs(phi, margins, greedy_solve(phi, margins))
