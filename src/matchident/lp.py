"""Exact maximization of total surplus over the matching polytope.

The maximization of ``<mu, phi>`` subject to margin constraints is a
transportation problem, and this module solves it with the classical
transportation (network) simplex on the complete bipartite type graph.
The implementation is deliberately exact and deterministic rather than
fast: a northwest-corner starting basis, Bland's smallest-index pivot rule
(which also rules out cycling on degenerate instances), and dual
potentials read off the basis tree.  Reduced costs are compared against
``SEPARABILITY_TOL * max|phi|``, so the pivot sequence, and hence the
returned vertex, is reproducible run to run and the same for any positive
multiple of ``phi`` (barring a reduced cost within rounding of that bound).
Verdicts elsewhere use closed-form certificates instead of re-solving;
``is_maximizer`` is the brute-force oracle they are tested against.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .core import (
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    ConvergenceError,
    Margins,
    Matching,
    Surplus,
    _check_same_shape,
    is_nonseparable,
    total_surplus,
)

__all__ = [
    "OPTIMALITY_TOL",
    "LpSolution",
    "maximize_surplus",
    "is_maximizer",
    "is_discriminating",
]

_MAX_PIVOTS = 10_000


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Optimal vertex, value, and dual potentials of the surplus LP.

    ``dual_f`` and ``dual_g`` split the value between the two sides:
    ``dual_f[x] + dual_g[y] >= phi[x, y]`` everywhere, with equality on the
    support of ``mu_opt``, and ``p @ dual_f + q @ dual_g`` equals ``value``.
    The potentials are normalized so the last entry of ``dual_g`` is zero.
    """

    mu_opt: Matching
    value: float
    dual_f: np.ndarray
    dual_g: np.ndarray

    def __post_init__(self) -> None:
        for name in ("dual_f", "dual_g"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _northwest_corner(p: np.ndarray, q: np.ndarray):
    """Initial basic feasible solution with exactly m + n - 1 basic cells."""
    m, n = p.size, q.size
    mu = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    remaining_p = p.copy()
    remaining_q = q.copy()
    x, y = 0, 0
    for _ in range(m + n - 1):
        t = min(remaining_p[x], remaining_q[y])
        mu[x, y] = t
        basis.append((x, y))
        remaining_p[x] -= t
        remaining_q[y] -= t
        if x == m - 1:
            y += 1
        elif y == n - 1:
            x += 1
        elif remaining_p[x] <= remaining_q[y]:
            x += 1
        else:
            y += 1
    return mu, basis


def _potentials(basis, phi: np.ndarray):
    """Dual potentials solving u[x] + v[y] = phi[x, y] on the basis tree."""
    m, n = phi.shape
    adjacency: dict[int, list[int]] = defaultdict(list)
    for x, y in basis:
        adjacency[x].append(m + y)
        adjacency[m + y].append(x)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    queue = deque([0])
    seen = {0}
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor in seen:
                continue
            seen.add(neighbor)
            if node < m:  # row node fixes the column potential
                v[neighbor - m] = phi[node, neighbor - m] - u[node]
            else:
                u[neighbor] = phi[neighbor, node - m] - v[node - m]
            queue.append(neighbor)
    return u, v


def _cycle_signs(basis, entering):
    """Split the pivot cycle of ``entering`` into gaining and losing cells.

    The basis tree contains a unique path between the row and column nodes
    of the entering cell; adding the entering edge closes a cycle.  Flow
    pushed around the cycle alternates sign edge by edge, starting with a
    gain on the entering cell.
    """
    x0, y0 = entering
    m = 1 + max(x for x, _ in basis)
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
    plus = [entering]
    minus = []
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        cell = (a, b - m) if a < m else (b, a - m)
        (minus if i % 2 == 0 else plus).append(cell)
    return plus, minus


def maximize_surplus(phi: Surplus, margins: Margins) -> LpSolution:
    """Solve ``max <mu, phi>`` over the matching polytope exactly.

    Returns an optimal vertex together with optimal dual potentials.  The
    pivot rule is Bland's rule on lexicographic cell order, so the solver
    terminates on degenerate instances and always returns the same vertex
    for the same input (and for any positive rescaling of the input).
    A nonbasic cell enters the basis only if its reduced cost exceeds
    ``SEPARABILITY_TOL * max|phi|``.  Raises ``ConvergenceError`` if the
    pivot cap is reached; its residual is the largest reduced cost left.
    """
    _check_same_shape("phi", phi.phi.shape, margins)
    n = margins.d_y
    cost = phi.phi
    entering_tol = SEPARABILITY_TOL * float(np.abs(cost).max())
    mu, basis = _northwest_corner(margins.p, margins.q)
    basis_set = set(basis)
    for pivots in range(_MAX_PIVOTS + 1):
        u, v = _potentials(basis, cost)
        reduced = cost - u[:, None] - v[None, :]
        reduced[tuple(np.transpose(basis))] = -np.inf  # zero up to rounding
        candidates = np.flatnonzero(reduced > entering_tol)
        if candidates.size == 0:
            break
        if pivots == _MAX_PIVOTS:
            raise ConvergenceError(
                f"transportation simplex did not terminate within {_MAX_PIVOTS} pivots",
                iterations=_MAX_PIVOTS,
                residual=float(reduced.max()),
            )
        entering = divmod(int(candidates[0]), n)
        plus, minus = _cycle_signs(basis, entering)
        theta = min(mu[cell] for cell in minus)
        leaving = min(cell for cell in minus if mu[cell] <= theta)
        for cell in plus:
            mu[cell] += theta
        for cell in minus:
            mu[cell] -= theta
        mu[leaving] = 0.0
        basis_set.remove(leaving)
        basis_set.add(entering)
        basis = sorted(basis_set)
    shift = v[-1]
    solution_mu = Matching(mu, margins)
    return LpSolution(
        mu_opt=solution_mu,
        value=float(np.sum(mu * cost)),
        dual_f=u + shift,
        dual_g=v - shift,
    )


def is_maximizer(phi: Surplus, mu: Matching) -> bool:
    """Whether ``mu`` attains the maximal total surplus for ``phi`` within
    ``OPTIMALITY_TOL * max|phi|``."""
    solution = maximize_surplus(phi, mu.margins)
    slack = OPTIMALITY_TOL * np.abs(phi.phi).max()
    return total_surplus(mu, phi) >= solution.value - slack


def is_discriminating(phi: Surplus, margins: Margins) -> bool:
    """Whether some feasible matching is strictly suboptimal for ``phi``.

    Exactly the nonseparable surpluses discriminate, so no LP is solved.
    """
    return is_nonseparable(phi, margins)
