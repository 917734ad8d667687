"""Geometry of the matching polytope.

The feasible set for fixed margins, viewed as a polytope in the space of
``d_x by d_y`` matrices, is the transportation polytope: nonnegative
matrices with prescribed row and column sums.  This module provides its
dimension, a membership test, exhaustive vertex enumeration for small
instances, the boundary test, and the gauge construction that scales a
matching away from the barycenter until it first hits the boundary,
together with the normal of the face where it does.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    CLAMP_TOL,
    MASS_TOL,
    DegenerateRayError,
    InstanceTooLargeError,
    Margins,
    MarketError,
    Matching,
    ValidationError,
)

__all__ = [
    "BOUNDARY_TOL",
    "VERTEX_CELL_GUARD",
    "GaugeResult",
    "dimension",
    "contains",
    "enumerate_vertices",
    "gauge",
    "face_normal",
    "is_boundary",
]

#: A matching is on the boundary when its smallest entry is at most this.
BOUNDARY_TOL = 1e-12

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
    """Whether a raw matrix lies in the polytope, all constraints within ``tol``."""
    arr = np.asarray(mu, dtype=float)
    if arr.shape != margins.shape:
        raise ValidationError(
            f"matrix has shape {arr.shape} but margins have shape {margins.shape}"
        )
    if not np.all(np.isfinite(arr)):
        return False
    if arr.min() < -tol:
        return False
    if np.abs(arr.sum(axis=1) - margins.p).max() > tol:
        return False
    if np.abs(arr.sum(axis=0) - margins.q).max() > tol:
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
    are deduplicated entrywise within 1e-9.

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
    # Degenerate instances produce the same vertex from several trees, so
    # candidates are deduplicated entrywise within 1e-9; bucketing them by
    # support pattern keeps that scan short.
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
        pattern = tuple(np.flatnonzero(mu.ravel() > 1e-9))
        bucket = buckets.setdefault(pattern, [])
        if any(np.abs(mu - other).max() <= 1e-9 for other in bucket):
            continue
        bucket.append(mu)
        kept.append(mu)
    return [Matching(mu, margins) for mu in kept]


@dataclass(frozen=True, eq=False)
class GaugeResult:
    """Outcome of scaling a matching away from the barycenter.

    ``t_star`` is the largest stretch that keeps the scaled matching
    feasible (always >= 1), ``mu_star`` the boundary matching it lands on,
    and ``binding_cells`` the cells whose nonnegativity constraint stops
    the ray.
    """

    t_star: float
    mu_star: Matching
    binding_cells: frozenset[tuple[int, int]]


def gauge(mu_hat: Matching) -> GaugeResult:
    """Scale ``mu_hat`` along the ray from the barycenter to the boundary.

    Writing ``bary = p * q`` for the barycenter, the ray point at stretch t
    is ``bary + t * (mu_hat - bary)``.  Margins hold for every t, so
    feasibility only ever fails at a cell with ``mu_hat < bary``, where the
    entry hits zero at ``t = bary / (bary - mu_hat)``.  The exit stretch is
    the smallest such ratio; because ``mu_hat`` itself is feasible it is
    always at least 1, with equality exactly on the boundary.

    Raises ``DegenerateRayError`` when ``mu_hat`` equals the barycenter, in
    which case the ray has no direction.
    """
    margins = mu_hat.margins
    bary = np.outer(margins.p, margins.q)
    diff = mu_hat.mu - bary
    if np.abs(diff).max() <= CLAMP_TOL:
        raise DegenerateRayError(
            "matching equals the barycenter; the ray to the boundary is undefined"
        )
    shrinking = diff < 0.0
    ratios = np.full(mu_hat.mu.shape, np.inf)
    ratios[shrinking] = bary[shrinking] / -diff[shrinking]
    t_star = float(ratios.min())
    binding = frozenset(
        (int(x), int(y)) for x, y in np.argwhere(ratios <= t_star + 1e-12)
    )
    mu_star = np.clip(bary + t_star * diff, 0.0, None)
    # A matching admitted with a loose feasibility tolerance carries a
    # margin defect that the stretch scales by t*; allow exactly that much.
    defect = max(
        np.abs(mu_hat.mu.sum(axis=1) - margins.p).max(),
        np.abs(mu_hat.mu.sum(axis=0) - margins.q).max(),
    )
    return GaugeResult(
        t_star=t_star,
        mu_star=Matching(mu_star, margins, tol=MASS_TOL + t_star * defect),
        binding_cells=binding,
    )


def face_normal(mu_hat: Matching, ray: GaugeResult) -> np.ndarray:
    """Normal of the face where the gauge ray of ``mu_hat`` exits.

    The indicator of ``ray.binding_cells`` scaled to inner product one with
    the ray direction ``mu_hat - bary``: nonpositive, zero on the support of
    ``ray.mu_star``, and ``ray.t_star`` times it is the gauge entropy's
    gradient at ``mu_hat``.
    """
    margins = mu_hat.margins
    indicator = np.zeros(mu_hat.mu.shape)
    for x, y in ray.binding_cells:
        indicator[x, y] = 1.0
    direction = mu_hat.mu - np.outer(margins.p, margins.q)
    normalizer = float(np.sum(indicator * direction))
    if normalizer >= 0.0:
        # Binding cells shrink along the ray by construction, so this
        # can only happen through an internal error.
        raise MarketError(
            f"degenerate binding-face normalization ({normalizer!r})"
        )
    return indicator / normalizer + 0.0  # + 0.0 clears negative zeros


def is_boundary(mu: Matching, tol: float = BOUNDARY_TOL) -> bool:
    """Whether the matching sits on the (relative) boundary of the polytope.

    Margins are equalities everywhere on the polytope, so the relative
    boundary is reached exactly when some entry vanishes.
    """
    return bool(mu.mu.min() <= tol)
