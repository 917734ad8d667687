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
    _barycenter_mu,
    _check_same_shape,
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
    """Dimension of the polytope: ``(d_x - 1) * (d_y - 1)``.

    Of the ``d_x + d_y`` margin equations only ``d_x + d_y - 1`` are
    independent (both sides share the same total mass), which leaves this
    many free directions.
    """
    return (margins.d_x - 1) * (margins.d_y - 1)


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
    ``normal``, read-only, is ``binding`` scaled to inner product one with
    the ray direction ``mu_hat - bary``: nonpositive, zero on the support
    of ``mu_star``, and ``t_star`` times it is the gauge entropy's gradient.
    """

    t_star: float
    mu_star: Matching
    binding: np.ndarray
    normal: np.ndarray


def gauge(mu_hat: Matching) -> GaugeResult:
    """Scale ``mu_hat`` along the ray from the barycenter to the boundary.

    Writing ``bary = p * q`` for the barycenter, the ray point at stretch t
    is ``bary + t * (mu_hat - bary)``.  Margins hold for every t, so
    feasibility only ever fails at a cell with ``mu_hat < bary``, where the
    entry hits zero at ``t = bary / (bary - mu_hat)``.  The exit stretch is
    the smallest such ratio; because ``mu_hat`` itself is feasible it is
    always at least 1.  The cells whose ratio attains it form the
    ``binding`` mask, of shrinking cells.  A matching on the boundary (see
    ``is_boundary``) is its own exit point, at ``t_star = 1``, through the
    empty cells it shrinks.

    Raises ``DegenerateRayError`` when ``mu_hat`` is the barycenter, up to
    ``BOUNDARY_TOL`` or within its margin defect (no cell shrinks), or when
    it is on the boundary but shrinks no empty cell: the ray then has no
    direction or no exit.
    """
    margins = mu_hat.margins
    bary = _barycenter_mu(margins)
    diff = mu_hat.mu - bary
    shrinking = diff < 0.0
    if np.abs(diff).max() <= BOUNDARY_TOL or not shrinking.any():
        raise DegenerateRayError(
            "matching equals the barycenter; the ray to the boundary is undefined"
        )
    empty = _empty_cells(mu_hat)
    if empty.any():
        binding = empty & shrinking
        if not binding.any():
            raise DegenerateRayError(
                "the barycenter is empty wherever the matching is; the ray"
                " leaves through none of its empty cells"
            )
        t_star, mu_star = 1.0, mu_hat
    else:
        ratios = np.full(mu_hat.mu.shape, np.inf)
        ratios[shrinking] = bary[shrinking] / -diff[shrinking]
        t_star = float(ratios.min())
        # A cell whose ratio is within a relative BOUNDARY_TOL of t* keeps
        # less than BOUNDARY_TOL of its barycenter mass at mu*: it is empty
        # there too.
        binding = ratios <= t_star * (1.0 + BOUNDARY_TOL)
        # A matching admitted with a loose feasibility tolerance carries a
        # margin defect that the stretch scales by t*; allow exactly that
        # much.
        defect = max(
            np.abs(mu_hat.mu.sum(axis=1) - margins.p).max(),
            np.abs(mu_hat.mu.sum(axis=0) - margins.q).max(),
        )
        mu_star = Matching(
            np.clip(bary + t_star * diff, 0.0, None),
            margins,
            tol=MASS_TOL + t_star * defect,
        )
    # Binding cells shrink, so the normalizer is negative; + 0.0 clears -0.0.
    normal = binding / float(np.sum(binding * diff)) + 0.0
    binding.setflags(write=False)
    normal.setflags(write=False)
    return GaugeResult(t_star=t_star, mu_star=mu_star, binding=binding, normal=normal)


def _empty_cells(mu: Matching) -> np.ndarray:
    """Cells of at most ``BOUNDARY_TOL`` between types of positive mass."""
    p, q = mu.margins.p, mu.margins.q
    return (mu.mu <= BOUNDARY_TOL) & (p > 0.0)[:, None] & (q > 0.0)[None, :]


def is_boundary(mu: Matching) -> bool:
    """Whether the matching sits on the (relative) boundary of the polytope.

    Margins are equalities everywhere on the polytope, so the relative
    boundary is reached exactly when some entry vanishes, that is, is at
    most ``BOUNDARY_TOL``.  The cells of a zero-mass type are empty in
    every feasible matching and constrain nothing, so they do not count.
    """
    return bool(_empty_cells(mu).any())
