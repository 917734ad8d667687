"""Domain objects for finite-type matching markets with transferable utility.

A market is described by the type distributions on each side (margins), a
matching (a nonnegative matrix with those margins), and a surplus matrix
giving the joint value created when a type-x agent pairs with a type-y
agent.  Everything here is small, dense and immutable: arrays are copied on
construction, validated against the documented invariants, and frozen.
Arrays the library computes itself are frozen in place instead, after the
one test their construction does not settle: the finite test of a
surplus read off a matching (a gradient, a gauge normal), the finite test
of a separable decomposition's residual alone (a non-finite ``f[x]`` or
``g[y]`` makes its whole row or column non-finite), and the margin test
of the gauge's exit point, which is finite and clipped nonnegative by
construction.  A residual already tested becomes the canonical surplus
with no test at all.

The one piece of real analysis in this module is the separable
decomposition.  Any surplus splits uniquely as ``f[x] + g[y] + residual``
with the residual doubly centered under the margin weights.  The separable
part ``f + g`` contributes the same total surplus to every feasible
matching, so only the residual carries information about who should match
with whom.  ``is_nonseparable`` asks whether that residual is nonzero.

Tolerances.  Every answer of the package is a zero test; the thresholds
live here, and only ``entropy``'s stopping and kink criteria stay with
their algorithms.  Margin tests are absolute: ``MASS_TOL``, and the input
clamp of entries in ``[-BOUNDARY_TOL, 0)``.  One support rule holds for
every layer, the exact LP included: a cell is empty when it holds at most
``BOUNDARY_TOL`` times ``p_x q_y``, and a line is absent when its type has
zero mass or, in a matching, its every cell is empty (``_empty_cells``,
``_present``), so "rationalizable <=> boundary <=> t* = 1 <=> a
nonseparable witness" holds by construction.  Surplus tests are relative to
``max|phi|``, which bounds the rounding of ``phi - f - g``:
``SEPARABILITY_TOL`` for residuals and reduced costs, ``OPTIMALITY_TOL``
for duality gaps.  The units of ``phi`` thus change no verdict.  Margins
sum to one within ``MASS_TOL``; two tests read that defect.  A matching
solved for given margins (an LP vertex, an IPFP solution) meets them within
``MASS_TOL`` plus their sums' difference (``_imbalance_tol``); the gauge's
exit point keeps the observation's own line sums, so it meets them within
``MASS_TOL`` plus the observation's own defect.  The separable
decomposition reads the weights ``p / sum(p)`` and ``q / sum(q)``, which
``Margins`` normalizes once, at construction, so no surplus test reads it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "MASS_TOL",
    "BOUNDARY_TOL",
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

#: A cell with at most this fraction of its barycenter mass is empty.
#: Matching entries in ``[-BOUNDARY_TOL, 0)`` are clamped to zero.
BOUNDARY_TOL = 1e-12

#: Relative to ``max|phi|``: a doubly centered residual or a reduced cost
#: counts as nonzero when it exceeds ``SEPARABILITY_TOL * max|phi|``.
SEPARABILITY_TOL = 1e-10

#: Relative to ``max|phi|``: slack when comparing a value with the maximum.
OPTIMALITY_TOL = 1e-8


class MarketError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MarketError, ValueError):
    """Construction input violates a documented invariant."""


class NotInPolytopeError(ValidationError):
    """Matrix is not a feasible matching for the given margins."""


class DegenerateRayError(MarketError):
    """Ray construction undefined: the matching is the barycenter of its own line
    sums, no present cell shrinking by more than ``BOUNDARY_TOL`` of its mass there."""


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
    except (TypeError, ValueError, OverflowError) as exc:
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


def _normalized(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr / sum(arr)``, once the sum is 1 within ``MASS_TOL``."""
    total = arr.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"{name} must sum to 1 within {MASS_TOL}, got {float(total)!r}")
    return arr / total


def _freeze(obj, **arrays) -> None:
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Margins:
    """Type distributions ``p`` (x side) and ``q`` (y side).

    Both must be zero or positive and sum to one (total mass on each side
    is normalized to the same constant, taken to be 1).  A type of zero
    mass, as a small sample may leave, is absent: its cells are zero in
    every feasible matching, and conditional distributions refuse it.

    Construction also keeps what the validation's sums and minima
    determine, for every route that reads these margins: the weights
    ``p / sum(p)`` and ``q / sum(q)`` of the separable decomposition, and
    whether every type is present, each computed once.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        p = _validated_vector("p", self.p, 2)
        q = _validated_vector("q", self.q, 2)
        low = min(p.min(), q.min())
        if low < 0:
            raise ValidationError("margins must be zero or positive")
        _freeze(self, p=p, q=q, _p_weights=_normalized("p", p), _q_weights=_normalized("q", q))
        object.__setattr__(self, "_all_present", bool(low > 0))

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
    within ``tol``, which must be finite and nonnegative.  Entries in
    ``[-BOUNDARY_TOL, 0)`` are clamped to zero so that downstream boundary
    tests see exact zeros; anything more negative is rejected outright.
    """

    mu: np.ndarray
    margins: Margins
    tol: InitVar[float] = MASS_TOL

    def __post_init__(self, tol: float) -> None:
        if not 0.0 <= tol < np.inf:
            raise ValidationError(f"tol must be finite and nonnegative, got {tol!r}")
        mu = _float_array("mu", self.mu)
        if mu.ndim != 2:
            raise ValidationError(f"mu must be a matrix, got shape {mu.shape}")
        _check_same_shape("mu", mu.shape, self.margins)
        if not np.all(np.isfinite(mu)):
            raise ValidationError("mu must be finite")
        if mu.min() < -BOUNDARY_TOL:
            cell = np.unravel_index(np.argmin(mu), mu.shape)
            raise NotInPolytopeError(
                f"mu[{cell[0]}, {cell[1]}] = {float(mu[cell])!r}"
                f" is negative beyond {BOUNDARY_TOL}"
            )
        np.maximum(mu, 0.0, out=mu)
        _check_margin_sums(mu, self.margins, tol)
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


def _check_margin_sums(mu: np.ndarray, margins: Margins, tol: float) -> None:
    """Refuse ``mu`` unless its row sums are ``p`` and its column sums ``q``
    within ``tol``, naming the first line that misses."""
    row_err = np.abs(mu.sum(axis=1) - margins.p)
    if row_err.max() > tol:
        x = int(np.argmax(row_err))
        raise NotInPolytopeError(
            f"row {x} sums to {float(mu[x].sum())!r},"
            f" expected p[{x}] = {float(margins.p[x])!r}"
        )
    col_err = np.abs(mu.sum(axis=0) - margins.q)
    if col_err.max() > tol:
        y = int(np.argmax(col_err))
        raise NotInPolytopeError(
            f"column {y} sums to {float(mu[:, y].sum())!r},"
            f" expected q[{y}] = {float(margins.q[y])!r}"
        )


def _frozen(cls, **arrays):
    """An instance of ``cls`` holding arrays the library just built and
    already tested: frozen in place, with no copy and no test."""
    obj = object.__new__(cls)
    _freeze(obj, **arrays)
    return obj


def _adopt(cls, **arrays):
    """A ``Surplus`` or ``SeparableParts`` holding arrays the library just built.

    The arrays are frozen in place rather than copied: they are float
    matrices and vectors of the right shapes by construction, so of the
    public constructor's checks only the finite test runs, in field order.
    """
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} must be finite")
    return _frozen(cls, **arrays)


def _admit(mu: np.ndarray, margins: Margins, tol: float) -> Matching:
    """A ``Matching`` of an array the library just built finite and
    nonnegative: frozen in place after the margin test alone, against
    ``tol``, with the constructor's message."""
    _check_margin_sums(mu, margins, tol)
    obj = _frozen(Matching, mu=mu)
    object.__setattr__(obj, "margins", margins)
    return obj


def _imbalance_tol(margins: Margins) -> float:
    """``MASS_TOL`` plus the margins' sum difference, which a line of any matching absorbs."""
    return MASS_TOL + abs(margins.p.sum() - margins.q.sum())


def _check_same_shape(name: str, shape, margins: Margins) -> None:
    """Refuse a matrix whose shape is not the ``(d_x, d_y)`` of ``margins``."""
    if tuple(shape) != margins.shape:
        raise ValidationError(
            f"{name} has shape {tuple(shape)} but margins have shape {margins.shape}"
        )


def _barycenter_mu(margins: Margins) -> np.ndarray:
    """The matrix ``p[x] * q[y]`` of ``barycenter``, without the validation."""
    return margins.p[:, None] * margins.q


def _empty_cells(mu: np.ndarray, margins: Margins) -> np.ndarray:
    """The empty cells of ``mu``; none holds more than ``BOUNDARY_TOL``."""
    return mu <= BOUNDARY_TOL * _barycenter_mu(margins)


def _present(p: np.ndarray, q: np.ndarray, empty: np.ndarray | None = None):
    """Masks of the present rows and columns, of a matching given its ``empty`` cells."""
    if empty is None:
        return p > 0.0, q > 0.0
    held = ~empty & (p > 0.0)[:, None] & (q > 0.0)
    return held.any(axis=1), held.any(axis=0)


def total_surplus(mu: Matching, phi: Surplus) -> float:
    """Total surplus ``sum_xy mu[x, y] * phi[x, y]`` generated by a matching."""
    _check_same_shape("phi", phi.phi.shape, mu.margins)
    return float(np.sum(mu.mu * phi.phi))


def decompose_separable(phi: Surplus, margins: Margins) -> SeparableParts:
    """Split a surplus into a separable part plus a doubly centered residual.

    With ``p`` and ``q`` normalized to sum to one, whatever their sums, the
    split sets ``f[x] = sum_y q[y] phi[x, y] - m/2`` and ``g[y] = sum_x p[x]
    phi[x, y] - m/2`` where ``m`` is the (p, q)-weighted grand mean of
    ``phi``.  The residual then has zero q-weighted row means and zero
    p-weighted column means, which makes it the orthogonal projection of
    ``phi`` onto the complement of the separable subspace under the p-by-q
    weighted inner product.  In particular the residual is the canonical
    representative of ``phi`` modulo separable shifts: two surpluses differ
    by ``f + g`` exactly when their residuals coincide.  The normalized
    weights are the ones ``Margins`` keeps.
    """
    _check_same_shape("phi", phi.phi.shape, margins)
    p, q = margins._p_weights, margins._q_weights
    col = p @ phi.phi
    grand_mean = float(col @ q)
    f = phi.phi @ q - grand_mean / 2.0
    g = col - grand_mean / 2.0
    residual = phi.phi - f[:, None]
    residual -= g
    # A non-finite f[x] or g[y] spreads over its whole line of the residual,
    # so the residual's test covers all three; the field-by-field test runs
    # only to name the first non-finite field.
    if not np.isfinite(residual).all():
        _adopt(SeparableParts, f=f, g=g, residual=residual)
    return _frozen(SeparableParts, f=f, g=g, residual=residual)


def _is_nonzero_residual(residual: np.ndarray, phi: np.ndarray) -> bool:
    """Whether a residual of ``phi`` exceeds ``SEPARABILITY_TOL * max|phi|``: its
    weights are normalized, so a separable ``phi`` leaves rounding alone."""
    return bool(np.abs(residual).max() > SEPARABILITY_TOL * np.abs(phi).max())


def is_nonseparable(phi: Surplus, margins: Margins) -> bool:
    """Whether ``phi`` has a nonzero doubly centered residual.

    Separable surpluses value every feasible matching identically, so this
    is the exact condition for ``phi`` to discriminate among matchings.
    In the 2x2 case it reduces to the cross-difference test
    ``phi[0,0] + phi[1,1] != phi[0,1] + phi[1,0]``.  Nonzero means above
    ``SEPARABILITY_TOL * max|phi|``, so rescaling ``phi`` keeps the answer.
    Only cells between present types count, in the residual and in
    ``max|phi|``: zero-mass lines weigh 0 in the decomposition.
    """
    live = np.ix_(*_present(margins.p, margins.q))
    residual = decompose_separable(phi, margins).residual
    return _is_nonzero_residual(residual[live], phi.phi[live])


def barycenter(margins: Margins) -> Matching:
    """The independent matching ``p[x] * q[y]``, the barycenter of the polytope."""
    return Matching(_barycenter_mu(margins), margins)


def conditionals(mu: Matching) -> tuple[np.ndarray, np.ndarray]:
    """Conditional distributions of a matching.

    Returns ``(row_cond, col_cond)`` where ``row_cond[x, y]`` is the
    probability of y given x (each row sums to one) and ``col_cond[x, y]``
    the probability of x given y (each column sums to one).  Requires
    strictly positive margins.
    """
    if not mu.margins._all_present:
        raise ValidationError("conditionals need strictly positive margins")
    return mu.mu / mu.margins.p[:, None], mu.mu / mu.margins.q[None, :]
