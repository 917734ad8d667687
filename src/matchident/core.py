"""Domain objects for finite-type matching markets with transferable utility.

A market is described by the type distributions on each side (margins), a
matching (a nonnegative matrix with those margins), and a surplus matrix
giving the joint value created when a type-x agent pairs with a type-y
agent.  Everything here is small, dense and immutable: arrays are copied on
construction, validated against the documented invariants, and frozen.

The one piece of real analysis in this module is the separable
decomposition.  Any surplus splits uniquely as ``f[x] + g[y] + residual``
with the residual doubly centered under the margin weights.  The separable
part ``f + g`` contributes the same total surplus to every feasible
matching, so only the residual carries information about who should match
with whom.  ``is_nonseparable`` asks whether that residual is nonzero.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "MASS_TOL",
    "CLAMP_TOL",
    "SEPARABILITY_TOL",
    "OPTIMALITY_TOL",
    "MarketError",
    "ValidationError",
    "NotInPolytopeError",
    "DegenerateRayError",
    "NonInteriorError",
    "KinkPointError",
    "ConvergenceError",
    "InstanceTooLargeError",
    "Margins",
    "Matching",
    "Surplus",
    "SeparableParts",
    "TypeValues",
    "total_surplus",
    "decompose_separable",
    "is_nonseparable",
    "barycenter",
    "conditionals",
]

#: Tolerance for mass constraints: margin sums, normalization, feasibility.
MASS_TOL = 1e-9

#: Entries of a matching in [-CLAMP_TOL, 0) are clamped to zero; anything
#: more negative is rejected.
CLAMP_TOL = 1e-12

#: A surplus counts as nonseparable when its doubly centered residual has
#: an entry larger than this in absolute value.
SEPARABILITY_TOL = 1e-10

#: Slack allowed when comparing a candidate value against the true maximum.
OPTIMALITY_TOL = 1e-8


class MarketError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MarketError, ValueError):
    """Construction input violates a documented invariant."""


class NotInPolytopeError(ValidationError):
    """Matrix is not a feasible matching for the given margins."""


class DegenerateRayError(MarketError):
    """Ray construction undefined: the matching equals the barycenter."""


class NonInteriorError(MarketError):
    """Gradient requested at a matching on the boundary.

    Carries the offending ``cell`` (x, y) when one is known.
    """

    def __init__(self, message: str, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell


class KinkPointError(MarketError):
    """Quantile entropy gradient requested at a kink of the quantile map.

    Raised when two cumulative conditional masses coincide (within
    tolerance) so the one-sided directional derivatives disagree.  Carries
    the offending ``cell`` when one is known.
    """

    def __init__(self, message: str, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell


class ConvergenceError(MarketError):
    """Iterative solver failed to reach its tolerance.

    Carries ``iterations`` and the final ``residual`` as diagnostics.
    """

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class InstanceTooLargeError(MarketError):
    """Exhaustive enumeration requested above the hard size guard."""


def _float_array(name: str, values) -> np.ndarray:
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a numeric array: {exc}") from None


def _validated_vector(name: str, values, min_len: int) -> np.ndarray:
    arr = _float_array(name, values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_len:
        raise ValidationError(f"{name} needs at least {min_len} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


def _freeze(obj, **arrays) -> None:
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Margins:
    """Type distributions ``p`` (x side) and ``q`` (y side).

    Both must be strictly positive and sum to one (total mass on each side
    is normalized to the same constant, taken to be 1).  Empirical margins
    computed from finite samples may legitimately miss a type entirely;
    pass ``allow_zero_mass=True`` for those, at the price that operations
    requiring conditional distributions will refuse the zero rows.
    """

    p: np.ndarray
    q: np.ndarray
    allow_zero_mass: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        p = _validated_vector("p", self.p, 2)
        q = _validated_vector("q", self.q, 2)
        least = min(p.min(), q.min())
        if self.allow_zero_mass:
            if least < 0:
                raise ValidationError("margins must be nonnegative")
        elif least <= 0:
            raise ValidationError("margins must be strictly positive")
        for name, arr in (("p", p), ("q", q)):
            if abs(arr.sum() - 1.0) > MASS_TOL:
                raise ValidationError(
                    f"{name} must sum to 1 within {MASS_TOL}, got {arr.sum()!r}"
                )
        _freeze(self, p=p, q=q)

    @property
    def d_x(self) -> int:
        return self.p.size

    @property
    def d_y(self) -> int:
        return self.q.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p.size, self.q.size)


@dataclass(frozen=True, eq=False)
class Matching:
    """A feasible matching: nonnegative matrix with the given margins.

    Row sums must equal ``margins.p`` and column sums ``margins.q``, each
    within ``tol``.  Entries in ``[-CLAMP_TOL, 0)`` are clamped to zero so
    that downstream boundary tests see exact zeros; anything more negative
    is rejected outright.
    """

    mu: np.ndarray
    margins: Margins
    tol: InitVar[float] = MASS_TOL

    def __post_init__(self, tol: float) -> None:
        mu = _float_array("mu", self.mu)
        if mu.ndim != 2:
            raise ValidationError(f"mu must be a matrix, got shape {mu.shape}")
        if mu.shape != self.margins.shape:
            raise ValidationError(
                f"mu has shape {mu.shape} but margins have shape {self.margins.shape}"
            )
        if not np.all(np.isfinite(mu)):
            raise ValidationError("mu must be finite")
        if mu.min() < -CLAMP_TOL:
            cell = np.unravel_index(np.argmin(mu), mu.shape)
            raise NotInPolytopeError(
                f"mu[{cell[0]}, {cell[1]}] = {mu[cell]!r} is negative beyond {CLAMP_TOL}"
            )
        np.clip(mu, 0.0, None, out=mu)
        row_err = np.abs(mu.sum(axis=1) - self.margins.p)
        if row_err.max() > tol:
            x = int(np.argmax(row_err))
            raise NotInPolytopeError(
                f"row {x} sums to {mu[x].sum()!r}, expected p[{x}] = {self.margins.p[x]!r}"
            )
        col_err = np.abs(mu.sum(axis=0) - self.margins.q)
        if col_err.max() > tol:
            y = int(np.argmax(col_err))
            raise NotInPolytopeError(
                f"column {y} sums to {mu[:, y].sum()!r}, expected q[{y}] = {self.margins.q[y]!r}"
            )
        _freeze(self, mu=mu)

    @property
    def d_x(self) -> int:
        return self.mu.shape[0]

    @property
    def d_y(self) -> int:
        return self.mu.shape[1]


@dataclass(frozen=True, eq=False)
class Surplus:
    """Joint surplus matrix ``phi[x, y]``.

    Entries must be finite but may have any sign: adding a constant (or any
    separable term) never changes which matchings are optimal, so
    nonnegativity is not required.
    """

    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = _float_array("phi", self.phi)
        if phi.ndim != 2:
            raise ValidationError(f"phi must be a matrix, got shape {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValidationError("phi must be finite")
        _freeze(self, phi=phi)

    @property
    def d_x(self) -> int:
        return self.phi.shape[0]

    @property
    def d_y(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True, eq=False)
class SeparableParts:
    """Result of ``decompose_separable``: ``phi = f + g + residual``.

    ``residual`` is doubly centered under the margin weights used for the
    decomposition: every q-weighted row mean and p-weighted column mean is
    zero.  Instances are produced by ``decompose_separable``; constructing
    one by hand does not re-derive the centering.
    """

    f: np.ndarray
    g: np.ndarray
    residual: np.ndarray

    def __post_init__(self) -> None:
        f = _validated_vector("f", self.f, 1)
        g = _validated_vector("g", self.g, 1)
        residual = _float_array("residual", self.residual)
        if residual.shape != (f.size, g.size):
            raise ValidationError(
                f"residual shape {residual.shape} does not match f/g sizes"
                f" ({f.size}, {g.size})"
            )
        if not np.all(np.isfinite(residual)):
            raise ValidationError("residual must be finite")
        _freeze(self, f=f, g=g, residual=residual)

    def reconstruct(self) -> np.ndarray:
        """Return ``f[:, None] + g[None, :] + residual``."""
        return self.f[:, None] + self.g[None, :] + self.residual


@dataclass(frozen=True, eq=False)
class TypeValues:
    """Scalar values attached to the ordered types on each side.

    Both vectors must be strictly increasing, so type indices already sort
    the types by value.  Used by the quantile entropy, where conditional
    distributions are read as distributions over these values.
    """

    x_values: np.ndarray
    y_values: np.ndarray

    def __post_init__(self) -> None:
        xv = _validated_vector("x_values", self.x_values, 2)
        yv = _validated_vector("y_values", self.y_values, 2)
        for name, arr in (("x_values", xv), ("y_values", yv)):
            if np.any(np.diff(arr) <= 0):
                raise ValidationError(f"{name} must be strictly increasing")
        _freeze(self, x_values=xv, y_values=yv)


def _check_same_shape(a_name: str, a_shape, b_name: str, b_shape) -> None:
    if tuple(a_shape) != tuple(b_shape):
        raise ValidationError(
            f"{a_name} has shape {tuple(a_shape)} but {b_name} has shape {tuple(b_shape)}"
        )


def total_surplus(mu: Matching, phi: Surplus) -> float:
    """Total surplus ``sum_xy mu[x, y] * phi[x, y]`` generated by a matching."""
    _check_same_shape("mu", mu.mu.shape, "phi", phi.phi.shape)
    return float(np.sum(mu.mu * phi.phi))


def decompose_separable(phi: Surplus, margins: Margins) -> SeparableParts:
    """Split a surplus into a separable part plus a doubly centered residual.

    The split sets ``f[x] = sum_y q[y] phi[x, y] - m/2`` and
    ``g[y] = sum_x p[x] phi[x, y] - m/2`` where ``m`` is the (p, q)-weighted
    grand mean of ``phi``.  The residual then has zero q-weighted row means
    and zero p-weighted column means, which makes it the orthogonal
    projection of ``phi`` onto the complement of the separable subspace
    under the p-by-q weighted inner product.  In particular the residual is
    the canonical representative of ``phi`` modulo separable shifts: two
    surpluses differ by ``f + g`` exactly when their residuals coincide.
    """
    _check_same_shape("phi", phi.phi.shape, "margins", margins.shape)
    p, q = margins.p, margins.q
    grand_mean = float(p @ phi.phi @ q)
    f = phi.phi @ q - grand_mean / 2.0
    g = p @ phi.phi - grand_mean / 2.0
    residual = phi.phi - f[:, None] - g[None, :]
    return SeparableParts(f=f, g=g, residual=residual)


def is_nonseparable(phi: Surplus, margins: Margins, tol: float = SEPARABILITY_TOL) -> bool:
    """Whether ``phi`` has a nonzero doubly centered residual.

    Separable surpluses value every feasible matching identically, so this
    is the exact condition for ``phi`` to discriminate among matchings.
    In the 2x2 case it reduces to the cross-difference test
    ``phi[0,0] + phi[1,1] != phi[0,1] + phi[1,0]``.
    """
    residual = decompose_separable(phi, margins).residual
    return bool(np.abs(residual).max() > tol)


def barycenter(margins: Margins) -> Matching:
    """The independent matching ``p[x] * q[y]``, the barycenter of the polytope."""
    return Matching(np.outer(margins.p, margins.q), margins)


def conditionals(mu: Matching) -> tuple[np.ndarray, np.ndarray]:
    """Conditional distributions of a matching.

    Returns ``(row_cond, col_cond)`` where ``row_cond[x, y]`` is the
    probability of y given x (each row sums to one) and ``col_cond[x, y]``
    the probability of x given y (each column sums to one).  Requires
    strictly positive margins.
    """
    p, q = mu.margins.p, mu.margins.q
    if p.min() <= 0 or q.min() <= 0:
        raise ValidationError("conditionals need strictly positive margins")
    return mu.mu / p[:, None], mu.mu / q[None, :]
