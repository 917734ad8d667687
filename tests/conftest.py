"""Shared fixtures and randomized-market generators for the test suite."""

import numpy as np
import pytest

from matchident import (
    IPFP_TOL,
    MASS_TOL,
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


def margins_off_their_sums(
    rng: np.random.Generator, d_x: int, d_y: int, zero_share: float = 0.0
) -> Margins:
    """Margins whose sums each miss 1 by up to ``0.9 * MASS_TOL``, with about
    ``zero_share`` of the types of zero mass (one type of each side keeps mass)."""
    sides = []
    for d in (d_x, d_y):
        v = rng.uniform(0.2, 1.0, d)
        v[rng.random(d) < zero_share] = 0.0
        v[rng.integers(d)] = rng.uniform(0.2, 1.0)
        sides.append(v / v.sum() * (1.0 + rng.uniform(-0.9, 0.9) * MASS_TOL))
    return Margins(*sides)


def separable_split_reference(phi: np.ndarray, margins: Margins):
    """``decompose_separable``'s ``f``, ``g`` and residual, from weights
    normalized on the fly instead of those ``margins`` keeps."""
    p, q = margins.p / margins.p.sum(), margins.q / margins.q.sum()
    col = p @ phi
    grand_mean = float(col @ q)
    f = phi @ q - grand_mean / 2.0
    g = col - grand_mean / 2.0
    return f, g, phi - f[:, None] - g[None, :]


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


def matching_with_a_cell_the_ray_grows() -> tuple[np.ndarray, np.ndarray]:
    """Margins ``p = q`` and a 3x3 matching whose smallest cell, (0, 0),
    holds 5e-13 against the barycenter's 1e-14: the ray from the barycenter
    grows the cell, which holds 50 times its barycenter mass, so the cell is
    not empty and the matching is interior."""
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


#: A market written with 10 decimals whose margins are its matching's own
#: sums: both sum to 1 - 1e-10, and the matching has no margin defect.  Its
#: gauge ray stretches to t* = 35.11, which would scale the margin offset of
#: a ``p * q`` barycenter, 1e-10, past ``MASS_TOL``.
TEN_DECIMAL_MARKET = {
    "p": [0.1980191829, 0.1207384008, 0.1949825438, 0.2157374929, 0.2705223795],
    "q": [0.6215830035, 0.3784169964],
    "mu": [
        [0.1227921143, 0.0752270686],
        [0.0750141586, 0.0457242422],
        [0.121822278, 0.0731602658],
        [0.1308865931, 0.0848508998],
        [0.1710678595, 0.09945452],
    ],
}


#: Valid markets whose gauge gradient is not finite.  On A and B row 2 is so
#: light that the gradient passes the float range at a stretch near 5e11: on
#: A the product ``t* * normal`` overflows, and on B (a type ten orders
#: lighter) already the normal does.  C is on the boundary, its one empty
#: cell between two types of mass 1e-200, whose product ``p * q`` rounds to
#: zero: so does the normal's normalizer.
NONFINITE_GAUGE_MARKETS = {
    "A": {
        "p": [0.5, 0.5, 1e-290],
        "q": [0.5, 0.5],
        "mu": [[0.25, 0.25], [0.25, 0.25], [5.00000000001e-291, 4.99999999999e-291]],
    },
    "B": {
        "p": [0.5, 0.5, 1e-300],
        "q": [0.5, 0.5],
        "mu": [[0.25, 0.25], [0.25, 0.25], [5.00000000001e-301, 4.99999999999e-301]],
    },
    "C": {
        "p": [1 - 1e-200, 1e-200],
        "q": [1 - 1e-200, 1e-200],
        "mu": [[1 - 2e-200, 1e-200], [1e-200, 0.0]],
    },
}

def assert_keeps_line_sums(mu_star: Matching, mu: Matching) -> None:
    """The gauge's exit point has the observation's own line sums within
    ``4 * eps``, whatever the stretch, and so meets the margins within
    ``MASS_TOL`` plus the observation's own margin defect."""
    eps = 4.0 * np.finfo(float).eps
    assert np.abs(mu_star.mu.sum(axis=1) - mu.mu.sum(axis=1)).max() <= eps
    assert np.abs(mu_star.mu.sum(axis=0) - mu.mu.sum(axis=0)).max() <= eps


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
