"""Exact maximization of total surplus over the matching polytope.

The maximization of ``<mu, phi>`` subject to margin constraints is a
transportation problem, and this module solves it exactly with the
classical transportation (network) simplex on the complete bipartite type
graph.  The basis is a spanning tree on the ``m + n`` type nodes, rooted at
row 0, whose every edge carries the surplus of its cell.  Its adjacency is
kept across pivots, and so are each node's parent, depth, dual potential
and flow: the mass of the cell between the node and its parent.  Each
pivot reads its cycle in one climb up the parent links, from the entering
cell's two nodes to their common ancestor.  ``_hang`` alone walks the tree
down: the start walks it in full once, and after that a pivot's leaving
edge cuts one subtree off, its entering edge re-hangs it, and only that
subtree is walked again.  Dantzig pricing, one argmax over a flat view of
the reduced costs, picks the entering cell and Cunningham's rule the
leaving one, which keeps a strongly feasible start strongly feasible
(every zero-flow cell hangs below its column node).  The one start,
``_greedy_start``, fills the cells in descending order of a given fill, a
slice of the sorted order at a time, and walks row 0's tree; each other
tree hangs below a column of that walk through a zero cell from its lowest
row, so the start is strongly feasible (Cunningham, Math. Prog. 1976).
``maximize_surplus`` fills a constant, which is the northwest corner; the
entropic warm start reads only the duals and fills by surplus, which needs
a fraction of the pivots.  The simplex itself, ``_transport``, works on
arrays and prices on one cost buffer, the present types' block: a
zero-mass type's cells are zero on the whole polytope, and on positive
margins every start is strongly feasible.  It embeds the node flows as
the block's vertex and gives each absent type its least feasible
potential; ``_simplex`` admits the vertex, built finite and nonnegative,
into an ``LpSolution``.  A pivot that moves mass raises the value, and
one that moves none strictly lowers ``sum(v) - sum(u)`` of the
potentials (``u[0] = 0``), so no basis repeats and the simplex
terminates (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 11).
Every comparison is relative to ``max|phi|``, so the returned vertex is
reproducible run to run and the same for any positive multiple of
``phi`` (barring a reduced cost within rounding of a tolerance).
Verdicts elsewhere use closed-form certificates instead of re-solving;
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
    _admit,
    _check_same_shape,
    _empty_cells,
    _freeze,
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

#: Sorted cells ``_greedy_start`` reads at a time: a 64x64 market is one slice.
_SLICE = 4096


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
        f, g = (np.array(duals, dtype=float) for duals in (self.dual_f, self.dual_g))
        _freeze(self, dual_f=f, dual_g=g)


def _pivot_cap(m: int, n: int) -> int:
    """The pivot cap of an ``m x n`` solve, never below ``m * n`` (700x700
    was measured at 11,531 pivots, about ``(m * n) ** 0.75``): every start is
    strongly feasible, so the cap only guards against a defect."""
    return _MAX_PIVOTS * -(-(m * n) // 10_000)


def _greedy_start(fill: np.ndarray, p: np.ndarray, q: np.ndarray, cost: np.ndarray):
    """Initial basic feasible solution with m + n - 1 basic cells: each
    node's flow to its parent, the mask of basic cells, the adjacency of
    the basis tree on the type nodes (rows ``0 .. m-1``, columns ``m ..
    m+n-1``), mapping each node's neighbours to the ``cost`` of the cell
    between them, and the parents, depths and potentials of its walk.

    The cells are filled in descending order of ``fill``, each taking the
    smaller of what its row and its column have left.  Ties break by flat
    index, so any positive multiple of ``fill`` gives the same start, and a
    constant ``fill`` takes the cells in row-major order: the northwest
    corner.  The order is read ``_SLICE`` cells at a time, so no start
    holds m·n Python objects, and each slice after the first drops the
    cells of the lines spent before it.  A remainder is zero once it
    would be empty (``core``'s rule) in the lightest cell of its line.
    Every positive allocation is basic, however small, so no type is left
    out of the tree for being light.  The allocations form a forest.  When
    the margins' sums differ, a column (or row 0) can be left without any:
    it takes what it has left in its best cell.  ``_hang`` then walks row
    0's tree; each row it left unreached is, in order, the lowest row of a
    tree without row 0, which ``_hang`` walks below the row's best zero
    cell into a column of the first walk.  Every zero-flow cell thus hangs
    below its column node, as Cunningham's leaving rule requires.
    """
    m, n = p.size, q.size
    adjacency: list[dict[int, float]] = [{} for _ in range(m + n)]
    allocations = []  # the basic cells' (row, column, flow)
    remaining_p, remaining_q = p.tolist(), q.tolist()
    low_p, low_q = BOUNDARY_TOL * min(remaining_p), BOUNDARY_TOL * min(remaining_q)
    floor_p, floor_q = [low_q * w for w in remaining_p], [low_p * w for w in remaining_q]
    order = np.argsort(-fill, axis=None, kind="stable")
    for s in range(0, order.size, _SLICE):
        xs, ys = np.divmod(order[s : s + _SLICE], n)
        if s:  # the cells of lines spent before this slice drop out
            live = np.array(remaining_p, dtype=bool)[xs] & np.array(remaining_q, dtype=bool)[ys]
            xs, ys = xs[live], ys[live]
        for x, y in zip(xs.tolist(), ys.tolist()):
            if remaining_p[x] and remaining_q[y]:  # neither is ever negative
                t = min(remaining_p[x], remaining_q[y])
                allocations.append((x, y, t))
                adjacency[x][m + y] = adjacency[m + y][x] = cost.item(x, y)
                remaining_p[x] -= t
                remaining_q[y] -= t
                # A remainder within rounding of zero is zero: margins whose
                # partial sums tie in exact arithmetic then tie here too.
                if remaining_p[x] <= floor_p[x]:
                    remaining_p[x] = 0.0
                if remaining_q[y] <= floor_q[y]:
                    remaining_q[y] = 0.0
    # A zero cell would hang such a column below its row, and row 0 has no
    # parent: each must join the tree through a cell with flow.
    bare = [y for y in range(n) if not adjacency[m + y]]
    leftover = [(int(fill[:, y].argmax()), y, remaining_q[y]) for y in bare]
    if not (adjacency[0] or any(x == 0 for x, _, _ in leftover)):
        leftover.append((0, int(fill[0].argmax()), remaining_p[0]))
    allocations += leftover
    for x, y, _ in leftover:
        adjacency[x][m + y] = adjacency[m + y][x] = cost.item(x, y)
    parent, depth, potential = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    for child in adjacency[0]:  # row 0's tree, walked from u[0] = 0
        parent[child] = 0
    _hang(adjacency, parent, depth, potential, list(adjacency[0]))
    columns = [y for y in range(n) if parent[m + y] >= 0]
    for x in range(1, m):
        if parent[x] < 0:  # the lowest row of a tree without row 0
            y = columns[int(fill[x, columns].argmax())]
            allocations.append((x, y, 0.0))
            adjacency[x][m + y] = adjacency[m + y][x] = cost.item(x, y)
            parent[x] = m + y
            _hang(adjacency, parent, depth, potential, [x])
    basic, flow = np.zeros((m, n), dtype=bool), [0.0] * (m + n)
    for x, y, t in allocations:  # each flow on the end that hangs below the other
        basic[x, y] = True
        flow[x if parent[x] == m + y else m + y] = t
    return flow, basic, adjacency, parent, depth, potential


def _hang(adjacency, parent, depth, potential, queue: list[int]) -> None:
    """Walk down from the nodes in ``queue``, whose parents are set: give
    them and every node below them a depth and the potential that makes
    ``u[x] + v[y]`` the surplus their edge to the parent carries, and give
    the nodes below them their parents, appending each to ``queue``."""
    for child in queue:  # a node's parent comes before it
        node = parent[child]
        depth[child] = depth[node] + 1
        potential[child] = adjacency[child][node] - potential[node]
        for grandchild in adjacency[child]:
            if grandchild != node:
                parent[grandchild] = child
                queue.append(grandchild)


def _pivot(entering, flow, priced, adjacency, parent, depth, potential, p, q) -> bool:
    """Pivot ``entering`` into the basis and return whether no mass moved
    beyond rounding: whether the leaving cell was empty under ``p`` and ``q``.

    The cycle is the tree path between the entering cell's nodes, read in
    one climb up the parent links from both, the deeper first, to their
    common ancestor, the apex.  Flow pushed around it gains on the entering
    cell, and a tree edge loses exactly when the path from the row node
    crosses it from a row node to a column node; ``flow[node]`` is the mass
    of the edge from ``node`` to its parent.  The last blocking edge of the
    walk apex -> row node -> entering cell -> column node -> apex leaves
    (Cunningham's rule): the climb meets the row side's losing edges in
    reverse, so that side keeps its first least one, the column side its
    last, and the column side wins a tie.  The leaving edge, whose surplus
    goes back into ``priced``, cut off the subtree on its side; the
    entering edge, whose cell ``priced`` blocks at ``-inf``, re-hangs it,
    the flows on the path between the two move one node down, and only
    that subtree is walked again.  Every other node keeps its path to row
    0, so its parent, depth and potential stay a full walk's, bit for bit.
    """
    m, (x, y) = len(p), entering
    a, b = x, m + y
    gains, losses = [], []
    row_theta = column_theta = float("inf")
    while a != b:
        if depth[a] >= depth[b]:  # the row side's next edge
            if a < m:
                losses.append(a)
                if flow[a] < row_theta:
                    row_theta, row_leaving = flow[a], a
            else:
                gains.append(a)
            a = parent[a]
        else:  # the column side's
            if b < m:
                gains.append(b)
            else:
                losses.append(b)
                if flow[b] <= column_theta:
                    column_theta, column_leaving = flow[b], b
            b = parent[b]
    row_side = row_theta < column_theta
    theta, leaving = (row_theta, row_leaving) if row_side else (column_theta, column_leaving)
    for node in gains:
        flow[node] += theta
    for node in losses:
        flow[node] -= theta
    # the entering edge's end on the side that was cut off hangs below the other
    top, hung = (m + y, x) if row_side else (x, m + y)
    node, carried = hung, theta
    while node != parent[leaving]:  # the cut path's flows move one node down
        carried, flow[node], node = flow[node], carried, parent[node]
    i, j = (leaving, parent[leaving] - m) if leaving < m else (parent[leaving], leaving - m)
    degenerate = theta <= BOUNDARY_TOL * (p[i] * q[j])
    priced[i, j] = adjacency[i].pop(m + j)
    del adjacency[m + j][i]
    adjacency[x][m + y] = adjacency[m + y][x] = priced.item(x, y)
    priced[x, y] = -np.inf
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
    # then leave a larger remainder.  No cell is negative: a losing cell
    # never loses more than it holds.
    mu[_empty_cells(mu, margins)] = 0.0
    return LpSolution(
        mu_opt=_admit(mu, margins, _imbalance_tol(margins)),
        value=float(np.sum(mu * cost)),
        dual_f=dual_f,
        dual_g=dual_g,
        pivots=pivots,
        degenerate_pivots=degenerate,
    )


def _transport(cost: np.ndarray, p: np.ndarray, q: np.ndarray, fill: np.ndarray):
    """The transportation simplex on arrays: maximizes ``<mu, cost>`` over
    the matchings of ``p`` and ``q`` from ``_greedy_start`` on ``fill``,
    whose walked tree the pivots then keep.

    The pivots run on ``priced``: the present block (the types of positive
    mass) of ``cost`` times the power of two putting ``max|cost|`` in [1/2,
    1), scaled in place, from which the start's edges read their cost before
    the basic cells price at ``-inf``.  No bit changes (barring subnormal
    entries); only a potential scaled back can overflow.  Each absent type
    then takes its least feasible potential, columns first.  Returns the
    masses, as the pivots left them, the potentials ``dual_f`` and
    ``dual_g`` (the last ``dual_g`` zero), and the pivot and degenerate
    pivot counts.  ``cost`` must be finite: nothing here tests it.
    """
    held_rows, held_cols = _present(p, q)
    rows, cols = held_rows.nonzero()[0], held_cols.nonzero()[0]
    top, scale = np.frexp(np.abs(cost).max())  # top is max|cost| once scaled
    p, q, priced = p.take(rows), q.take(cols), cost.take(rows, 0).take(cols, 1)
    m, n, entering_tol = p.size, q.size, SEPARABILITY_TOL * float(top)
    np.ldexp(priced, -scale, out=priced)
    start = _greedy_start(fill.take(rows, 0).take(cols, 1), p, q, priced)
    flow, basic, adjacency, parent, depth, potential = start
    priced[basic] = -np.inf  # basic cells price at zero up to rounding; at -inf they never enter
    duals, flat, chosen = np.empty(m + n), np.empty(m * n), np.empty(m * n, dtype=bool)
    u, v, reduced = duals[:m, None], duals[m:], flat.reshape(m, n)  # the views pricing reads
    cap = _pivot_cap(m, n)
    weights = p.tolist(), q.tolist()  # for _pivot's empty-cell rule
    degenerate = 0
    for pivots in range(cap + 1):
        duals[:] = potential
        np.subtract(priced, u, out=reduced)
        np.subtract(reduced, v, out=reduced)
        best = flat.item(flat.argmax())
        if best <= entering_tol:
            break
        if pivots == cap:
            raise ConvergenceError(
                f"transportation simplex did not terminate within {cap} pivots",
                iterations=cap,
                residual=float(np.ldexp(best, scale)),
            )
        np.greater_equal(flat, best - entering_tol, out=chosen)
        entering = divmod(int(chosen.argmax()), n)
        degenerate += _pivot(entering, flow, priced, adjacency, parent, depth, potential, *weights)
    mu, f, g = np.zeros(cost.shape), np.empty(held_rows.size), np.empty(held_cols.size)
    node, up = np.arange(1, m + n), np.array(parent[1:])
    x, y = np.where(node < m, (node, up), (up, node))  # each basic cell's row and column node
    mu[rows[x], cols[y - m]] = flow[1:]
    f[rows], g[cols] = duals[:m], duals[m:]
    if m < f.size or n < g.size:  # absent types, on the scaled cost: columns, then rows
        g[~held_cols] = (np.ldexp(cost[rows][:, ~held_cols], -scale) - f[rows, None]).max(axis=0)
        f[~held_rows] = (np.ldexp(cost[~held_rows], -scale) - g).max(axis=1)
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
