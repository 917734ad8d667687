"""Shared fixtures and randomized-market generators for the test suite."""

import numpy as np
import pytest

from matchident import (
    IPFP_TOL,
    Margins,
    Matching,
    Surplus,
    decompose_separable,
    enumerate_vertices,
)

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


def boundary_matching_the_ray_grows() -> tuple[np.ndarray, np.ndarray]:
    """Margins ``p = q`` and a 3x3 matching whose only empty cell, (0, 0),
    holds 5e-13 against the barycenter's 1e-14: the ray from the barycenter
    grows the cell, so it leaves through no face the matching is on."""
    small, corner = 1e-7, 5e-13
    p = np.array([small, 0.5, 0.5 - small])
    mu = np.zeros((3, 3))
    mu[0, 0] = corner
    mu[0, 1:] = mu[1:, 0] = (small - corner) / 2
    mu[1, 1] = 0.3
    mu[1, 2] = p[1] - mu[1, 0] - mu[1, 1]
    mu[2, 1] = p[1] - mu[0, 1] - mu[1, 1]
    mu[2, 2] = p[2] - mu[2, 0] - mu[2, 1]
    return p, mu


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


def assert_ipfp_certificate(phi: np.ndarray, margins: Margins, mu: np.ndarray) -> None:
    """Certificate of the shannon optimum: the margins within ``IPFP_TOL``,
    and ``log mu - phi`` separable on the positive cells (its adjacent 2x2
    cross-differences vanish)."""
    assert np.abs(mu.sum(axis=1) - margins.p).max() <= IPFP_TOL
    assert np.abs(mu.sum(axis=0) - margins.q).max() <= IPFP_TOL
    positive = mu > 1e-290  # below this, underflow has eaten the digits
    residual = np.log(np.where(positive, mu, 1.0)) - phi
    cross = residual[:-1, :-1] + residual[1:, 1:] - residual[:-1, 1:] - residual[1:, :-1]
    valid = positive[:-1, :-1] & positive[1:, 1:] & positive[:-1, 1:] & positive[1:, :-1]
    assert np.abs(cross[valid]).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(phi).max())


STRESS_SHAPES = [(2, 60), (60, 3), (3, 3), (8, 8), (12, 30), (30, 12), (25, 25), (40, 40),
                 (5, 17), (17, 5)]


def entropic_stress_market(i: int) -> tuple[Margins, Surplus]:
    """Market ``i`` of the entropic stress set, drawn from ``default_rng([2026,
    i])``.  The margins cycle every ten markets through uniform(0.2, 1),
    uniform, and uniform(0.2, 1) with one row and one column type 1e-9 or
    1e-12 times lighter; the surplus is N(0, 1), rounded to half integers
    (ties) on odd ``i``, times a scale of 1e3 to 1e5, plus separable shifts
    of +-1e7 when ``i % 4`` is 1 or 2."""
    rng = np.random.default_rng([2026, i])
    d_x, d_y = STRESS_SHAPES[i % len(STRESS_SHAPES)]
    if (i // 10) % 3 == 1:
        p, q = np.ones(d_x), np.ones(d_y)
    else:
        p, q = rng.uniform(0.2, 1.0, d_x), rng.uniform(0.2, 1.0, d_y)
        if (i // 10) % 3 == 2:
            p[rng.integers(d_x)] *= 10.0 ** rng.choice([-9, -12])
            q[rng.integers(d_y)] *= 10.0 ** rng.choice([-9, -12])
    scale = 10.0 ** rng.uniform(3, 5)
    phi = rng.standard_normal((d_x, d_y))
    if i % 2:
        phi = np.round(2.0 * phi) / 2.0
    phi = scale * phi
    if i % 4 in (1, 2):
        phi = phi + 1e7 * rng.choice([-1.0, 1.0], d_x)[:, None]
        phi = phi + 1e7 * rng.choice([-1.0, 1.0], d_y)[None, :]
    return Margins(p / p.sum(), q / q.sum()), Surplus(phi)


@pytest.fixture
def uniform2() -> Margins:
    return Margins([0.5, 0.5], [0.5, 0.5])


@pytest.fixture
def interior_matching(uniform2) -> Matching:
    return Matching([[0.35, 0.15], [0.15, 0.35]], uniform2)


@pytest.fixture
def assortative_matching(uniform2) -> Matching:
    return Matching([[0.5, 0.0], [0.0, 0.5]], uniform2)
