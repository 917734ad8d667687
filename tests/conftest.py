"""Shared fixtures and randomized-market generators for the test suite."""

import numpy as np
import pytest

from matchident import Margins, Matching, Surplus, decompose_separable, enumerate_vertices

_VERTEX_CACHE: dict[tuple[bytes, bytes], list[Matching]] = {}

#: Rescalings of a surplus (or of type values) that no verdict may notice:
#: their units are arbitrary.
UNIT_CHANGES = (1e-12, 1e-6, 1e6, 1e12)


def vertices_for(margins: Margins) -> list[Matching]:
    """Enumerated vertices, cached per margins (enumeration is the slow part)."""
    key = (margins.p.tobytes(), margins.q.tobytes())
    if key not in _VERTEX_CACHE:
        _VERTEX_CACHE[key] = enumerate_vertices(margins)
    return _VERTEX_CACHE[key]


def random_margins(rng: np.random.Generator, d_x: int, d_y: int) -> Margins:
    """Strictly positive margins bounded away from zero."""
    p = rng.uniform(0.2, 1.0, d_x)
    q = rng.uniform(0.2, 1.0, d_y)
    return Margins(p / p.sum(), q / q.sum())


def random_interior_matching(rng: np.random.Generator, margins: Margins) -> Matching:
    """Strictly interior matching: vertex mixture pulled toward the barycenter."""
    verts = vertices_for(margins)
    weights = rng.uniform(0.1, 1.0, len(verts))
    weights /= weights.sum()
    mixture = sum(w * v.mu for w, v in zip(weights, verts))
    pull = rng.uniform(0.3, 0.7)
    bary = np.outer(margins.p, margins.q)
    return Matching(pull * bary + (1.0 - pull) * mixture, margins)


def random_boundary_matching(rng: np.random.Generator, margins: Margins) -> Matching:
    """Boundary matching: mixture of all vertices sharing one zero cell."""
    verts = vertices_for(margins)
    seed_vertex = verts[rng.integers(len(verts))]
    zero_cells = np.argwhere(seed_vertex.mu <= 1e-12)
    cell = tuple(zero_cells[rng.integers(len(zero_cells))])
    sharing = [v for v in verts if v.mu[cell] <= 1e-12]
    weights = rng.uniform(0.1, 1.0, len(sharing))
    weights /= weights.sum()
    return Matching(sum(w * v.mu for w, v in zip(weights, sharing)), margins)


def random_surplus(
    rng: np.random.Generator, d_x: int, d_y: int, scale: float = 1.0
) -> Surplus:
    return Surplus(rng.normal(0.0, scale, (d_x, d_y)))


def random_nonseparable_surplus(
    rng: np.random.Generator, margins: Margins, min_residual: float = 0.1
) -> Surplus:
    """Random surplus whose doubly centered residual is comfortably nonzero."""
    while True:
        phi = random_surplus(rng, margins.d_x, margins.d_y)
        residual = decompose_separable(phi, margins).residual
        if np.abs(residual).max() >= min_residual:
            return phi


@pytest.fixture
def uniform2() -> Margins:
    return Margins([0.5, 0.5], [0.5, 0.5])


@pytest.fixture
def interior_matching(uniform2) -> Matching:
    return Matching([[0.35, 0.15], [0.15, 0.35]], uniform2)


@pytest.fixture
def assortative_matching(uniform2) -> Matching:
    return Matching([[0.5, 0.0], [0.0, 0.5]], uniform2)
