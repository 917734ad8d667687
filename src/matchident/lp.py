"""Exact maximization of total surplus over the matching polytope.

The maximization of ``<mu, phi>`` subject to margin constraints is a
transportation problem, and this module solves it exactly with the
classical transportation (network) simplex on the complete bipartite type
graph.  The basis is a spanning tree on the ``m + n`` type nodes, rooted at
row 0, whose every edge carries the surplus of its cell.  Its adjacency,
parent links, depths and dual potentials are kept across pivots: the tree
is walked in full once, at the start, and after that a pivot's leaving
edge cuts one subtree off, its entering edge re-hangs it, and only that
subtree is walked again.  Every other node keeps its path to row 0 and so
its potential, bit for bit.  The pivot cycle is read along the parent
links.  Dantzig pricing picks the entering cell and Cunningham's rule the
leaving one, which keeps a strongly feasible start strongly feasible
(every zero-flow cell hangs below its column node).
The one start, ``_greedy_start``, fills the cells in descending order of
a given fill, and hangs each tree of its allocations that misses row 0
below a column of row 0's tree through a zero cell from one of its own
rows, which makes it strongly feasible (Cunningham, Math. Prog. 1976).
``maximize_surplus`` fills a constant, which is the northwest corner; the
entropic warm start reads only the duals and fills by surplus, which
needs a fraction of the pivots.  The simplex itself, ``_transport``,
works on arrays and pivots on the present types' block: a zero-mass
type's cells are zero on the whole polytope, and on positive margins
every start is strongly feasible.  It embeds the block's vertex and gives
each absent type its least feasible potential; only ``maximize_surplus``
packages them into a validated ``LpSolution``.  A pivot that moves
mass raises the value, and one that moves none strictly lowers
``sum(v) - sum(u)`` of the potentials (``u[0] = 0``), so no basis repeats
and the simplex terminates (Ahuja, Magnanti & Orlin, *Network Flows*,
1993, ch. 11).
Every comparison is relative to ``max|phi|``, so the returned vertex is
reproducible run to run and the same for any positive multiple of ``phi``
(barring a reduced cost within rounding of a tolerance).  Verdicts
elsewhere use closed-form certificates instead of re-solving;
``is_maximizer`` is the brute-force oracle they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BOUNDARY_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    ConvergenceError,
    Margins,
    Matching,
    Surplus,
    ValidationError,
    _check_same_shape,
    _empty_cells,
    _imbalance_tol,
    _present,
    is_nonseparable,
    total_surplus,
)

__all__ = [
    "LpSolution",
    "maximize_surplus",
    "is_maximizer",
    "is_discriminating",
]

#: Pivots allowed per started block of 10,000 cells (see ``_pivot_cap``).
_MAX_PIVOTS = 10_000


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Optimal vertex, value, and dual potentials of the surplus LP.

    ``dual_f`` and ``dual_g`` split the value between the two sides:
    ``dual_f[x] + dual_g[y] >= phi[x, y]`` everywhere, with equality on the
    support of ``mu_opt``, and ``p @ dual_f + q @ dual_g`` equals ``value``.
    The potentials are normalized so the last entry of ``dual_g`` is zero.
    An absent (zero-mass) type's potential is the least feasible one.
    ``pivots`` counts the simplex pivots the solve took, and
    ``degenerate_pivots`` those among them that moved no mass beyond
    rounding: whose leaving cell was empty (``core``'s rule), which a light
    type's whole mass is not.  No cell of ``mu_opt`` is empty and positive.
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


def _pivot_cap(m: int, n: int) -> int:
    """The pivot cap of an ``m x n`` solve, never below ``m * n`` (700x700
    was measured at 11,531 pivots, about ``(m * n) ** 0.75``): every start is
    strongly feasible, so the cap only guards against a defect."""
    return _MAX_PIVOTS * -(-(m * n) // 10_000)


def _greedy_start(fill: np.ndarray, p: np.ndarray, q: np.ndarray, cost: np.ndarray):
    """Initial basic feasible solution with exactly m + n - 1 basic cells:
    the matching, the mask of basic cells and the adjacency of the basis
    tree on the type nodes (rows ``0 .. m-1``, columns ``m .. m+n-1``),
    which maps each node's neighbours to the ``cost`` of the cell between
    them.

    The cells are filled in descending order of ``fill``, each taking the
    smaller of what its row and its column have left.  Ties break by flat
    index, so any positive multiple of ``fill`` gives the same start, and a
    constant ``fill`` takes the cells in row-major order: the northwest
    corner.  A remainder is zero once it would be empty (``core``'s rule)
    in the lightest cell of its line.  Every positive allocation is basic,
    however small, so no type is left out of the tree for being light.  The
    allocations form a forest.  When the margins' sums differ, a column (or
    row 0) can be left without any: it takes what it has left in its best
    cell.  Each tree without row 0 then hangs below a column of row 0's
    tree through its best zero cell from one of its own rows.  Every
    zero-flow cell thus hangs below its column node, as Cunningham's
    leaving rule requires.
    """
    m, n = p.size, q.size
    mu = np.zeros((m, n))
    basic = np.zeros((m, n), dtype=bool)
    adjacency: list[dict[int, float]] = [{} for _ in range(m + n)]

    def allocate(x: int, y: int, t: float) -> None:
        mu[x, y] = t
        basic[x, y] = True
        adjacency[x][m + y] = adjacency[m + y][x] = float(cost[x, y])

    live_rows, live_cols, allocations = m, n, 0
    floor_p = (BOUNDARY_TOL * q.min() * p).tolist()
    floor_q = (BOUNDARY_TOL * p.min() * q).tolist()
    remaining_p, remaining_q = p.tolist(), q.tolist()
    order = np.argsort(-fill, axis=None, kind="stable")
    for x, y in zip((order // n).tolist(), (order % n).tolist()):
        if remaining_p[x] > 0.0 < remaining_q[y]:
            t = min(remaining_p[x], remaining_q[y])
            allocate(x, y, t)
            allocations += 1
            remaining_p[x] -= t
            remaining_q[y] -= t
            # A remainder within rounding of zero is zero: margins whose
            # partial sums tie in exact arithmetic then tie here too.
            if remaining_p[x] <= floor_p[x]:
                remaining_p[x] = 0.0
                live_rows -= 1
            if remaining_q[y] <= floor_q[y]:
                remaining_q[y] = 0.0
                live_cols -= 1
            if not (live_rows and live_cols):
                break
    if allocations == m + n - 1:  # a forest of m + n - 1 edges spans
        return mu, basic, adjacency
    # A zero cell would hang such a column below its row, and row 0 has no
    # parent: each must join the tree through a cell with flow.
    for y in range(n):
        if not adjacency[m + y]:
            allocate(int(fill[:, y].argmax()), y, remaining_q[y])
    if not adjacency[0]:
        allocate(0, int(fill[0].argmax()), remaining_p[0])
    tree = [-1] * (m + n)  # the lowest node of each tree: 0 in row 0's tree
    for root in range(m + n):
        if tree[root] < 0:
            tree[root], stack = root, [root]
            while stack:
                for other in adjacency[stack.pop()]:
                    if tree[other] < 0:
                        tree[other] = root
                        stack.append(other)
    columns = [y for y in range(n) if tree[m + y] == 0]
    rows_of: dict[int, list[int]] = {}
    for x in range(1, m):
        if tree[x] != 0:
            rows_of.setdefault(tree[x], []).append(x)
    for rows in rows_of.values():
        best = int(fill[np.ix_(rows, columns)].argmax())
        allocate(rows[best // len(columns)], columns[best % len(columns)], 0.0)
    return mu, basic, adjacency


def _hang(adjacency, parent, depth, potential, stack: list[int]) -> None:
    """Walk down from the nodes on ``stack``, whose parents are set: give
    them and every node below them a depth and the potential that makes
    ``u[x] + v[y]`` the surplus their edge to the parent carries, and give
    the nodes below them their parents.  Empties ``stack``."""
    while stack:
        child = stack.pop()
        node = parent[child]
        depth[child] = depth[node] + 1
        potential[child] = adjacency[child][node] - potential[node]
        for grandchild in adjacency[child]:
            if grandchild != node:
                parent[grandchild] = child
                stack.append(grandchild)


def _tree(adjacency: list[dict[int, float]]):
    """Parents, depths and the potentials (rows, then columns) of the basis
    tree, walked in full from row 0 (``u[0] = 0``) along the edges' costs."""
    parent = [-1] * len(adjacency)
    depth = [0] * len(adjacency)
    potential = [0.0] * len(adjacency)
    for child in adjacency[0]:
        parent[child] = 0
    _hang(adjacency, parent, depth, potential, list(adjacency[0]))
    return parent, depth, potential


def _cycle(parent: list[int], depth: list[int], entering: tuple[int, int], m: int):
    """Split the pivot cycle of ``entering`` into gaining and losing cells.

    The cycle is the tree path between the entering cell's row and column
    nodes, walked up from both to their common ancestor, the apex.  Flow
    pushed around it alternates sign, starting with a gain on the entering
    cell, so a tree edge loses exactly when the path from the row node
    crosses it from a row node to a column node.  The losing cells come in
    the order of the walk apex -> row node -> entering cell -> column node
    -> apex, which the leaving rule reads; the first ``rows`` lie above the row node.
    """
    plus, minus, rows = [entering], [], 0
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
            rows += from_row
        a, b = (up, b) if from_row else (a, up)
    return plus, minus, rows


def _pivot(entering, mu, priced, adjacency, parent, depth, potential, p, q) -> bool:
    """Pivot ``entering`` into the basis and return whether no mass moved
    beyond rounding: whether the leaving cell was empty under ``p`` and ``q``.

    Mass moves around the cycle, and the leaving cell drops out of the
    basis: out of ``adjacency``, its edge's surplus back into ``priced``.
    The entering cell's surplus moves the other way, onto its new edge,
    and ``priced`` blocks the cell at ``-inf``.  The leaving edge cut
    one subtree off the tree and the entering edge re-hangs it; only that
    subtree is walked again.  Every other node keeps its path to row 0, so
    its parent, depth and potential stay what a full walk gives, bit for
    bit.
    """
    m = len(mu)
    plus, minus, rows = _cycle(parent, depth, entering, m)
    theta = float("inf")
    for i, (x, y) in enumerate(minus):  # the last blocking cell leaves
        if mu[x][y] <= theta:
            theta, leaving = mu[x][y], i
    for x, y in plus:
        mu[x][y] += theta
    for x, y in minus:
        mu[x][y] -= theta
    x, y = minus[leaving]
    degenerate = theta <= BOUNDARY_TOL * (p[x] * q[y])
    mu[x][y] = 0.0
    priced[x, y] = adjacency[x].pop(m + y)
    del adjacency[m + y][x]
    x, y = entering
    adjacency[x][m + y] = adjacency[m + y][x] = float(priced[x, y])
    priced[x, y] = -np.inf
    # the entering edge's end that was cut off, the row node exactly when the
    # leaving cell lies on its side, hangs below the other end
    top, hung = (m + y, x) if leaving < rows else (x, m + y)
    parent[hung] = top
    _hang(adjacency, parent, depth, potential, [hung])
    return degenerate


def maximize_surplus(phi: Surplus, margins: Margins) -> LpSolution:
    """Solve ``max <mu, phi>`` over the matching polytope exactly.

    Returns an optimal vertex together with optimal dual potentials.  The
    simplex runs on the present types' block from its northwest corner:
    ``_greedy_start`` on a constant fill.  The entering cell is the first,
    in row-major order, whose reduced cost is within ``SEPARABILITY_TOL *
    max|phi|`` of the largest, and the solve stops when none exceeds that
    bound.  The leaving cell is the last blocking cell of the cycle walked
    from its apex, so the solver terminates on degenerate instances and
    always returns the same vertex for the same input (and for any positive
    rescaling of the input).  The basis tree is walked in full once, at the
    start; after that each pivot re-walks only the subtree it re-hangs, on
    ``phi`` times a power of two that changes no bit (see ``_transport``).
    Raises ``ConvergenceError`` (residual: the largest reduced cost left)
    only on a defect that reaches the pivot cap, and ``ValidationError`` if
    a dual potential overflows the float range.
    """
    _check_same_shape("phi", phi.phi.shape, margins)
    return _simplex(phi, margins, np.zeros(margins.shape))


def _simplex(phi: Surplus, margins: Margins, fill: np.ndarray) -> LpSolution:
    """The solve of ``maximize_surplus`` from ``_greedy_start`` on ``fill``,
    packaged as a validated ``LpSolution``."""
    cost = phi.phi
    mu, dual_f, dual_g, pivots, degenerate = _transport(cost, margins.p, margins.q, fill)
    if not (np.isfinite(dual_f).all() and np.isfinite(dual_g).all()):
        raise ValidationError("phi is too large: the dual potentials overflow")
    # The cycles leave rounding-size masses where exact arithmetic empties a
    # cell.  The empty cells are zero, as in the start basis; zeroing them
    # while pivoting would unbalance the margins, and the next tie would
    # then leave a larger remainder.
    mu[_empty_cells(mu, margins)] = 0.0
    return LpSolution(
        mu_opt=Matching(mu, margins, tol=_imbalance_tol(margins)),
        value=float(np.sum(mu * cost)),
        dual_f=dual_f,
        dual_g=dual_g,
        pivots=pivots,
        degenerate_pivots=degenerate,
    )


def _transport(cost: np.ndarray, p: np.ndarray, q: np.ndarray, fill: np.ndarray):
    """The transportation simplex on arrays: maximizes ``<mu, cost>`` over
    the matchings of ``p`` and ``q`` from ``_greedy_start`` on ``fill``.

    The pivots run on the present block, the rows and columns of positive
    mass; each absent type then takes its least feasible potential, columns
    first.  Returns the masses, as the pivots left them, the dual potentials
    ``dual_f`` and ``dual_g`` (the last ``dual_g`` zero), and the pivot and
    degenerate pivot counts.  ``cost`` must be finite: nothing here tests
    it.  Everything up to the potentials runs on ``cost`` times the power of
    two putting ``max|cost|`` in [1/2, 1): no bit changes (barring subnormal
    entries), and only a potential scaled back can overflow.
    """
    rows, cols = _present(p, q)
    block = np.ix_(rows, cols)
    top, scale = np.frexp(np.abs(cost).max())  # top is max|cost| once scaled
    cost, entering_tol = np.ldexp(cost, -scale), SEPARABILITY_TOL * float(top)
    p, q, present = p[rows], q[cols], cost[block]
    m, n = p.size, q.size
    start, basic, adjacency = _greedy_start(fill[block], p, q, present)
    flows = start.tolist()
    # Basic cells price at zero up to rounding; at -inf they never enter.
    priced = np.where(basic, -np.inf, present)
    duals, reduced = np.empty(m + n), np.empty((m, n))
    eligible = np.empty((m, n), dtype=bool)
    parent, depth, potential = _tree(adjacency)
    cap = _pivot_cap(m, n)
    weights = p.tolist(), q.tolist()  # for _pivot's empty-cell rule
    degenerate = 0
    for pivots in range(cap + 1):
        duals[:] = potential
        np.subtract(priced, duals[:m, None], out=reduced)
        reduced -= duals[m:]
        best = float(np.maximum.reduce(reduced, axis=None))
        if best <= entering_tol:
            break
        if pivots == cap:
            raise ConvergenceError(
                f"transportation simplex did not terminate within {cap} pivots",
                iterations=cap,
                residual=float(np.ldexp(best, scale)),
            )
        np.greater_equal(reduced, best - entering_tol, out=eligible)
        entering = divmod(int(eligible.argmax()), n)
        degenerate += _pivot(entering, flows, priced, adjacency, parent, depth, potential, *weights)
    mu, f, g = np.zeros(cost.shape), np.empty(rows.size), np.empty(cols.size)
    mu[block], f[rows], g[cols] = flows, duals[:m], duals[m:]
    if m < rows.size or n < cols.size:  # absent types: columns, then rows
        g[~cols] = (cost[rows][:, ~cols] - f[rows, None]).max(axis=0)
        f[~rows] = (cost[~rows] - g).max(axis=1)
    shift = g[-1]
    with np.errstate(over="ignore"):
        return mu, np.ldexp(f + shift, scale), np.ldexp(g - shift, scale), pivots, degenerate


def is_maximizer(phi: Surplus, mu: Matching) -> bool:
    """Whether ``mu`` attains the maximal total surplus for ``phi`` within
    ``OPTIMALITY_TOL * max|phi|``."""
    solution = maximize_surplus(phi, mu.margins)
    slack = OPTIMALITY_TOL * np.abs(phi.phi).max()
    return total_surplus(mu, phi) >= solution.value - slack


#: Exactly the nonseparable surpluses discriminate, so no LP is solved.
is_discriminating = is_nonseparable
