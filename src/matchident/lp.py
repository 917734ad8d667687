"""Exact maximization of total surplus over the matching polytope.

The maximization of ``<mu, phi>`` subject to margin constraints is a
transportation problem, and this module solves it exactly with the
classical transportation (network) simplex on the complete bipartite type
graph.  The basis is a spanning tree on the ``m + n`` type nodes, rooted at
row 0 and kept as an adjacency that each pivot updates in place.  One walk
of the tree per pivot yields the dual potentials and the parent links along
which the pivot cycle is read.  Dantzig pricing picks the entering cell and
Cunningham's rule the leaving one, which keeps the northwest-corner start
strongly feasible (every zero-flow cell hangs below its column node).  A
pivot that moves mass raises the value, and one that moves none strictly
lowers ``sum(v) - sum(u)`` of the potentials (``u[0] = 0``), so no basis
repeats and the simplex terminates (Ahuja, Magnanti & Orlin, *Network
Flows*, 1993, ch. 11).  Every comparison is relative to ``max|phi|``, so
the returned vertex is reproducible run to run and the same for any
positive multiple of ``phi`` (barring a reduced cost within rounding of a
tolerance).  Verdicts elsewhere use closed-form certificates instead of
re-solving; ``is_maximizer`` is the brute-force oracle they are tested
against.
"""

from __future__ import annotations

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
    ``pivots`` counts the simplex pivots the solve took, and
    ``degenerate_pivots`` those among them that moved no mass.
    """

    mu_opt: Matching
    value: float
    dual_f: np.ndarray
    dual_g: np.ndarray
    pivots: int
    degenerate_pivots: int

    def __post_init__(self) -> None:
        for name in ("dual_f", "dual_g"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _northwest_corner(p: np.ndarray, q: np.ndarray):
    """Initial basic feasible solution with exactly m + n - 1 basic cells:
    the matching, the mask of basic cells and the adjacency of the basis
    tree on the type nodes (rows ``0 .. m-1``, columns ``m .. m+n-1``)."""
    m, n = p.size, q.size
    mu = np.zeros((m, n))
    basic = np.zeros((m, n), dtype=bool)
    adjacency: list[set[int]] = [set() for _ in range(m + n)]
    remaining_p = p.copy()
    remaining_q = q.copy()
    x, y = 0, 0
    for _ in range(m + n - 1):
        t = min(remaining_p[x], remaining_q[y])
        mu[x, y] = t
        basic[x, y] = True
        adjacency[x].add(m + y)
        adjacency[m + y].add(x)
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
    return mu, basic, adjacency


def _tree(adjacency: list[set[int]], rows: list[list[float]], m: int):
    """Parents, depths and the potentials ``u[x] + v[y] = rows[x][y]`` of
    the basis tree, walked from row 0 (``u[0] = 0``)."""
    parent = [-1] * len(adjacency)
    depth = [0] * len(adjacency)
    potential = [0.0] * len(adjacency)
    stack = [0]
    while stack:
        node = stack.pop()
        for child in adjacency[node]:
            if child == parent[node]:
                continue
            parent[child] = node
            depth[child] = depth[node] + 1
            if node < m:  # row node fixes the column potential
                potential[child] = rows[node][child - m] - potential[node]
            else:
                potential[child] = rows[child][node - m] - potential[node]
            stack.append(child)
    return parent, depth, np.array(potential[:m]), np.array(potential[m:])


def _cycle(parent: list[int], depth: list[int], entering: tuple[int, int], m: int):
    """Split the pivot cycle of ``entering`` into gaining and losing cells.

    The cycle is the tree path between the entering cell's row and column
    nodes, walked up from both to their common ancestor, the apex.  Flow
    pushed around it alternates sign, starting with a gain on the entering
    cell, so a tree edge loses exactly when the path from the row node
    crosses it from a row node to a column node.  The losing cells come in
    the order of the walk apex -> row node -> entering cell -> column node
    -> apex, which the leaving rule reads.
    """
    plus, minus = [entering], []
    a, b = entering[0], m + entering[1]
    while a != b:
        from_row = depth[a] >= depth[b]
        child = a if from_row else b
        up = parent[child]
        cell = (child, up - m) if child < m else (up, child - m)
        if (child < m) != from_row:
            plus.append(cell)
        else:
            minus.insert(0 if from_row else len(minus), cell)
        a, b = (up, b) if from_row else (a, up)
    return plus, minus


def maximize_surplus(phi: Surplus, margins: Margins) -> LpSolution:
    """Solve ``max <mu, phi>`` over the matching polytope exactly.

    Returns an optimal vertex together with optimal dual potentials.  The
    entering cell is the first, in row-major order, whose reduced cost is
    within ``SEPARABILITY_TOL * max|phi|`` of the largest, and the solve
    stops when none exceeds that bound.  The leaving cell is the last
    blocking cell of the cycle walked from its apex, so the solver
    terminates on degenerate instances and always returns the same vertex
    for the same input (and for any positive rescaling of the input).
    Raises ``ConvergenceError`` if the pivot cap is reached; its residual is
    the largest reduced cost left.
    """
    _check_same_shape("phi", phi.phi.shape, margins)
    m, n = margins.shape
    cost = phi.phi
    entering_tol = SEPARABILITY_TOL * float(np.abs(cost).max())
    rows = cost.tolist()
    mu, basic, adjacency = _northwest_corner(margins.p, margins.q)
    degenerate = 0
    for pivots in range(_MAX_PIVOTS + 1):
        parent, depth, u, v = _tree(adjacency, rows, m)
        reduced = cost - u[:, None] - v[None, :]
        reduced[basic] = -np.inf  # zero up to rounding
        best = float(reduced.max())
        if best <= entering_tol:
            break
        if pivots == _MAX_PIVOTS:
            raise ConvergenceError(
                f"transportation simplex did not terminate within {_MAX_PIVOTS} pivots",
                iterations=_MAX_PIVOTS,
                residual=best,
            )
        entering = divmod(int(np.argmax(reduced >= best - entering_tol)), n)
        plus, minus = _cycle(parent, depth, entering, m)
        theta = min(mu[cell] for cell in minus)
        degenerate += bool(theta == 0.0)
        leaving = [cell for cell in minus if mu[cell] <= theta][-1]
        for cell in plus:
            mu[cell] += theta
        for cell in minus:
            mu[cell] -= theta
        mu[leaving] = 0.0
        for x, y in (leaving, entering):  # one edge leaves the tree, one joins
            basic[x, y] = not basic[x, y]
            adjacency[x] ^= {m + y}
            adjacency[m + y] ^= {x}
    shift = v[-1]
    return LpSolution(
        mu_opt=Matching(mu, margins),
        value=float(np.sum(mu * cost)),
        dual_f=u + shift,
        dual_g=v - shift,
        pivots=pivots,
        degenerate_pivots=degenerate,
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
