"""Geometry of the matching polytope.

The feasible set for fixed margins, viewed as a polytope in the space of
``d_x by d_y`` matrices, is the transportation polytope: nonnegative
matrices with prescribed row and column sums.  This module provides its
dimension, a membership test, exhaustive vertex enumeration for small
instances, the boundary test, and the gauge construction that scales a
matching away from the barycenter until it first hits the boundary,
together with the face where it does and that face's normal.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    BOUNDARY_TOL,
    MASS_TOL,
    DegenerateRayError,
    InstanceTooLargeError,
    Margins,
    Matching,
    NotInPolytopeError,
    Surplus,
    ValidationError,
    _admit,
    _barycenter_mu,
    _check_same_shape,
    _empty_cells,
    _frozen,
    _present,
)

__all__ = [
    "VERTEX_CELL_GUARD",
    "GaugeResult",
    "dimension",
    "contains",
    "enumerate_vertices",
    "gauge",
    "is_boundary",
]

#: Exhaustive vertex enumeration refuses instances with more cells.
VERTEX_CELL_GUARD = 16


def dimension(margins: Margins) -> int:
    """Dimension of the polytope: ``(m - 1) * (n - 1)`` for the ``m`` x types
    and ``n`` y types present, of positive mass: a zero-mass type's cells are
    zero in every feasible matching, and of the ``m + n`` margin equations
    of the others only ``m + n - 1`` are independent (both sides share the
    same total mass)."""
    m, n = (int(np.count_nonzero(line)) for line in _present(margins.p, margins.q))
    return (m - 1) * (n - 1)


def contains(mu, margins: Margins, tol: float = MASS_TOL) -> bool:
    """Whether a raw matrix lies in the polytope: whether ``Matching(mu,
    margins, tol)`` constructs, so entries down to ``-BOUNDARY_TOL`` count
    as zero and the margins hold within ``tol``.  A matrix of the wrong
    shape raises ``ValidationError``; a non-finite one is not contained."""
    arr = np.asarray(mu, dtype=float)
    _check_same_shape("matrix", arr.shape, margins)
    if not np.all(np.isfinite(arr)):
        return False
    try:
        Matching(arr, margins, tol)
    except NotInPolytopeError:
        return False
    return True


def _spanning_tree_flows(edges, p, q):
    """Unique flows on a candidate basis, or None if it is not a tree.

    ``edges`` are cells (x, y) read as edges of the bipartite graph with
    row nodes 0..m-1 and column nodes m..m+n-1.  A set of m+n-1 edges is a
    basis exactly when it forms a spanning tree; the flows solving both
    margin equations are then unique and are found by peeling leaves.
    """
    m, n = p.size, q.size
    total = m + n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(total)]
    for k, (x, y) in enumerate(edges):
        adj[x].append((m + y, k))
        adj[m + y].append((x, k))

    # Union-find cycle check: m+n-1 edges and no cycle means spanning tree.
    parent = list(range(total))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in edges:
        ra, rb = find(x), find(m + y)
        if ra == rb:
            return None
        parent[ra] = rb

    supply = np.concatenate([p, q])
    degree = np.array([len(adj[v]) for v in range(total)])
    used = [False] * len(edges)
    flows = np.zeros(len(edges))
    leaves = deque(v for v in range(total) if degree[v] == 1)
    for _ in range(len(edges)):
        v = leaves.popleft()
        w, k = next((w, k) for w, k in adj[v] if not used[k])
        flows[k] = supply[v]
        used[k] = True
        supply[w] -= supply[v]
        supply[v] = 0.0
        degree[v] -= 1
        degree[w] -= 1
        if degree[w] == 1:
            leaves.append(w)
    return flows


def enumerate_vertices(margins: Margins) -> list[Matching]:
    """All vertices of the polytope, deduplicated, in a deterministic order.

    Vertices are the basic feasible solutions: supports of size at most
    ``d_x + d_y - 1`` whose cells form a spanning tree of the complete
    bipartite type graph with nonnegative tree flows.  Candidate supports
    are scanned in lexicographic order, so the output order is reproducible.
    Degenerate instances yield the same vertex from several trees; results
    are deduplicated entrywise within ``MASS_TOL``.

    Raises ``InstanceTooLargeError`` when ``d_x * d_y > VERTEX_CELL_GUARD``.
    """
    m, n = margins.shape
    if m * n > VERTEX_CELL_GUARD:
        raise InstanceTooLargeError(
            f"vertex enumeration supports at most {VERTEX_CELL_GUARD} cells,"
            f" got {m}x{n} = {m * n}"
        )
    p, q = margins.p, margins.q
    cells = [(x, y) for x in range(m) for y in range(n)]
    # Bucketing candidates by support pattern keeps the deduplication short.
    buckets: dict[tuple[int, ...], list[np.ndarray]] = {}
    kept: list[np.ndarray] = []
    for support in itertools.combinations(range(m * n), m + n - 1):
        edges = [cells[i] for i in support]
        flows = _spanning_tree_flows(edges, p, q)
        if flows is None or flows.min() < -MASS_TOL:
            continue
        mu = np.zeros((m, n))
        for (x, y), flow in zip(edges, flows):
            mu[x, y] = max(flow, 0.0)
        pattern = tuple(np.flatnonzero(mu.ravel() > MASS_TOL))
        bucket = buckets.setdefault(pattern, [])
        if any(np.abs(mu - other).max() <= MASS_TOL for other in bucket):
            continue
        bucket.append(mu)
        kept.append(mu)
    return [Matching(mu, margins) for mu in kept]


@dataclass(frozen=True, eq=False)
class GaugeResult:
    """Outcome of scaling a matching away from the barycenter.

    ``t_star`` is the largest stretch that keeps the scaled matching
    feasible (always >= 1), ``mu_star`` the boundary matching it lands on,
    and ``binding`` a read-only boolean mask, shaped like the matching, of
    the cells whose nonnegativity constraint stops the ray: the exit face.
    ``direction``, read-only, is the direction the ray scaled (see ``gauge``),
    or ``mu_hat - p * q`` on the boundary.  ``normal``, read-only, is
    ``binding`` scaled to inner product one with ``direction``: nonpositive,
    zero on the support of ``mu_star``, and ``t_star`` times it is the gauge
    entropy's gradient, ``gradient``.  On the face of a type light enough
    that the binding cells' inner product with ``direction`` is below ``1 /
    float max`` in magnitude (a mass near 1e-300), or rounds to zero, that
    scale is not finite and ``normal`` is infinite on the binding cells;
    ``t_star`` and ``mu_star`` are unaffected.
    """

    t_star: float
    mu_star: Matching
    binding: np.ndarray
    normal: np.ndarray
    direction: np.ndarray

    @property
    def gradient(self) -> Surplus:
        """``t_star * normal``, the gauge entropy's gradient, formed afresh on
        each read.  Where it is not finite, as on a light type's face (the
        normal, or its product with ``t_star``, past the float range), it
        raises ``ValidationError``."""
        with np.errstate(over="ignore"):
            phi = self.t_star * self.normal
        if not np.isfinite(phi).all():
            raise ValidationError(
                "the gauge gradient is not finite: t_star * normal leaves the float"
                f" range (t_star = {self.t_star:.6g})"
            )
        return _frozen(Surplus, phi=phi)


def gauge(mu_hat: Matching) -> GaugeResult:
    """Scale ``mu_hat`` along the ray from the barycenter to the boundary.

    The ray runs in the polytope of ``mu_hat``'s own line sums ``r``, ``c``
    over its present lines (see ``core``), from ``bary = r c / sum(r)``, which
    is ``p * q`` when the margins are those sums: at stretch t it is ``bary +
    t * (mu_hat - bary)`` there, plus what absent lines hold.  The direction's
    rounding-level line sums are moved onto one cell of each line, so every
    t keeps the line sums, and a cell with ``mu_hat < bary`` hits zero at
    ``t = bary / (bary - mu_hat)``.  The exit stretch is the least such
    ratio, at least 1 as ``mu_hat`` is feasible, and its cells form the
    ``binding`` mask.  The exit point keeps ``mu_hat``'s line sums, so it
    meets the margins within ``MASS_TOL`` plus ``mu_hat``'s own defect.  A
    matching on the boundary (see ``is_boundary``) is its own exit point, at
    ``t_star = 1``, through its empty cells between present lines, and its
    normal pairs with ``mu_hat - p * q``.

    Raises ``DegenerateRayError`` at the barycenter of ``mu_hat``'s own line
    sums, as on one present row or column, whose polytope is a point: no
    cell then shrinks by more than ``BOUNDARY_TOL`` times its barycenter
    mass, so the ray has no direction.

    A pure function: each call scales afresh and keeps nothing; the verdict
    and the gauge identification share one ray through ``identify``'s memo.
    """
    margins = mu_hat.margins
    mu = block = mu_hat.mu
    boundary = False
    if mu.min() <= BOUNDARY_TOL or not margins._all_present:
        # Else no cell is empty and every line is present.
        empty = _empty_cells(mu, margins)
        present = np.logical_and.outer(*_present(margins.p, margins.q, empty))
        if boundary := (binding := empty & present).any():
            t_star, mu_star, diff = 1.0, mu_hat, mu - _barycenter_mu(margins)
        elif not present.all():
            block = np.where(present, mu, 0.0)
    if not boundary:
        r, c = block.sum(axis=1), block.sum(axis=0)
        bary = r[:, None] * (c / r.sum())
        diff = block - bary
        # The rounding in diff's line sums goes onto one cell of each line, in
        # the heaviest column and row, so that no stretch carries it.
        diff[:, c.argmax()] -= diff.sum(axis=1)
        diff[r.argmax()] -= diff.sum(axis=0)
        shrinking = diff < -BOUNDARY_TOL * bary
        if not shrinking.any():
            raise DegenerateRayError(
                "matching equals the barycenter; the ray to the boundary is undefined"
            )
        ratios = np.divide(bary, -diff, out=np.full(diff.shape, np.inf), where=shrinking)
        t_star = float(ratios.min())
        # A cell whose ratio is within a relative BOUNDARY_TOL of t* keeps
        # less than BOUNDARY_TOL of its barycenter mass at mu*: empty there too.
        binding = ratios <= t_star * (1.0 + BOUNDARY_TOL)
        # The ratios are read; their buffer takes bary + t* * diff.
        star = np.multiply(diff, t_star, out=ratios)
        star += bary
        np.maximum(star, 0.0, out=star)
        if block is not mu:
            star += mu - block  # what the absent lines hold
            r, c = mu.sum(axis=1), mu.sum(axis=0)
        defect = max(np.abs(r - margins.p).max(), np.abs(c - margins.q).max())
        mu_star = _admit(star, margins, MASS_TOL + defect)
    # Binding cells shrink, so the normalizer is negative.  Below 1 / float
    # max in magnitude, or rounded to 0, as on a light type's face, its
    # inverse is not finite.
    with np.errstate(over="ignore", divide="ignore"):
        normal = np.where(binding, 1.0 / np.float64((binding * diff).sum()), 0.0)
    for array in (binding, normal, diff):
        array.setflags(write=False)
    return GaugeResult(t_star, mu_star, binding, normal, direction=diff)


def is_boundary(mu: Matching) -> bool:
    """Whether the matching sits on the (relative) boundary of the polytope.

    Margins are equalities everywhere on the polytope, so the relative
    boundary is reached exactly when some cell between present lines (see
    ``core``) is empty: an absent line constrains nothing.
    """
    empty = _empty_cells(mu.mu, mu.margins)
    return bool(empty[np.ix_(*_present(mu.margins.p, mu.margins.q, empty))].any())
