"""Generalized entropies of matchings and the entropy-regularized solver.

Three concave penalties are supported, each giving a strictly-identifying
twist to the surplus maximization problem:

* ``shannon``: minus the Shannon entropy, ``sum mu log mu`` (the convention
  ``0 log 0 = 0`` applies).  Smooth on the interior, gradient
  ``1 + log mu``.
* ``gauge``: minus the stretch factor that scales the matching from the
  barycenter to the boundary.  Piecewise linear along rays; its gradient,
  where defined, is the scaled indicator of the binding boundary face.
* ``quantile``: for scalar-valued types, the sum over both sides of the
  margin-weighted integrals ``integral of Q(t) * t dt`` of the conditional
  quantile functions.  Step quantiles make this a piecewise quadratic with
  a closed form in the cumulative conditional masses.

The regularized problem ``max <mu, phi> - I(mu)`` is solved for the
shannon case only, by iterative proportional fitting (IPFP) of the kernel
``exp(phi)`` onto the margins, switching to log-domain updates when
``phi`` is large enough to overflow the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polytope
from .core import (
    ConvergenceError,
    KinkPointError,
    Margins,
    Matching,
    NonInteriorError,
    Surplus,
    TypeValues,
    ValidationError,
    conditionals,
    total_surplus,
)

__all__ = [
    "ENTROPY_KINDS",
    "IPFP_TOL",
    "IPFP_MAX_ITER",
    "EntropyModel",
    "IpfpReport",
    "eval_entropy",
    "grad_entropy",
    "solve_regularized",
]

ENTROPY_KINDS = ("shannon", "gauge", "quantile")

#: IPFP stops when every margin constraint is met within this.
IPFP_TOL = 1e-10

IPFP_MAX_ITER = 10_000

#: Above this max |phi| the plain kernel exp(phi) risks overflow, so IPFP
#: runs in the log domain.
_LOG_DOMAIN_THRESHOLD = 30.0

#: Entries at or below this are treated as boundary zeros by gradients.
_INTERIOR_TOL = 1e-12

#: Conditional mass increments at or below this collide two cumulative
#: masses, putting the quantile entropy at a kink.
_KINK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EntropyModel:
    """A choice of entropy: ``kind`` plus type values for the quantile case.

    ``values`` must be present exactly when ``kind == "quantile"``; the
    other entropies do not read type values.
    """

    kind: str
    values: TypeValues | None = None

    def __post_init__(self) -> None:
        if self.kind not in ENTROPY_KINDS:
            raise ValidationError(
                f"unknown entropy kind {self.kind!r}, expected one of {ENTROPY_KINDS}"
            )
        if self.kind == "quantile" and self.values is None:
            raise ValidationError("quantile entropy requires type values")
        if self.kind != "quantile" and self.values is not None:
            raise ValidationError(f"{self.kind} entropy does not take type values")

    @classmethod
    def shannon(cls) -> "EntropyModel":
        return cls(kind="shannon")

    @classmethod
    def gauge(cls) -> "EntropyModel":
        return cls(kind="gauge")

    @classmethod
    def quantile(cls, values: TypeValues) -> "EntropyModel":
        return cls(kind="quantile", values=values)


@dataclass(frozen=True, eq=False)
class IpfpReport:
    """Diagnostics of an IPFP run: the fitted matching and how it converged."""

    mu: Matching
    iterations: int
    margin_error: float
    converged: bool


def _check_values_shape(model: EntropyModel, shape) -> TypeValues:
    values = model.values
    assert values is not None
    if values.x_values.size != shape[0] or values.y_values.size != shape[1]:
        raise ValidationError(
            f"type values have sizes ({values.x_values.size}, {values.y_values.size})"
            f" but the matching is {shape[0]}x{shape[1]}"
        )
    return values


def _shannon_value(mu: np.ndarray) -> float:
    positive = mu > 0.0
    return float(np.sum(mu[positive] * np.log(mu[positive])))


def _quantile_moments(values: np.ndarray, cumulative: np.ndarray) -> np.ndarray:
    """Row-wise ``integral Q(t) t dt`` for step quantiles.

    ``cumulative`` holds cumulative conditional masses along the last axis;
    with ``u_0 = 0`` the integral is ``sum_k v_k (u_k^2 - u_{k-1}^2) / 2``.
    """
    squared = np.concatenate(
        [np.zeros(cumulative.shape[:-1] + (1,)), cumulative**2], axis=-1
    )
    return 0.5 * np.sum(values * np.diff(squared, axis=-1), axis=-1)


def _quantile_value(mu: Matching, values: TypeValues) -> float:
    p, q = mu.margins.p, mu.margins.q
    row_cond, col_cond = conditionals(mu)
    row_moments = _quantile_moments(values.y_values, np.cumsum(row_cond, axis=1))
    col_moments = _quantile_moments(values.x_values, np.cumsum(col_cond.T, axis=1))
    return float(p @ row_moments + q @ col_moments)


def eval_entropy(model: EntropyModel, mu: Matching) -> float:
    """Value of the chosen entropy at a feasible matching.

    Feasibility is guaranteed by the ``Matching`` type.  The gauge entropy
    is undefined at the barycenter (no ray direction) and raises
    ``DegenerateRayError`` there.
    """
    if model.kind == "shannon":
        return _shannon_value(mu.mu)
    if model.kind == "gauge":
        return -polytope.gauge(mu).t_star
    values = _check_values_shape(model, mu.mu.shape)
    return _quantile_value(mu, values)


def _reversed_cumsum_tail(matrix: np.ndarray) -> np.ndarray:
    """``out[:, j] = sum_{k >= j} matrix[:, k]`` with a zero column appended."""
    tail = np.cumsum(matrix[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([tail, np.zeros((matrix.shape[0], 1))], axis=1)


def _quantile_side_grad(values: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Derivative of one side's weighted quantile moments in the matrix entries.

    For a row with cumulative conditional masses ``u`` and values ``v``,
    the derivative of ``p_x * integral Q t dt`` in the cell mass at column
    j is ``v_K u_K + sum_{k=j..K-1} (v_k - v_{k+1}) u_k``: bumping mass at
    j (margins held fixed) shifts every cumulative mass from j onward.
    """
    u = np.cumsum(cond, axis=1)
    drops = u[:, :-1] * (values[:-1] - values[1:])
    return values[-1] * u[:, -1:] + _reversed_cumsum_tail(drops)


def _quantile_grad(mu: Matching, values: TypeValues) -> np.ndarray:
    row_cond, col_cond = conditionals(mu)
    row_part = _quantile_side_grad(values.y_values, row_cond)
    col_part = _quantile_side_grad(values.x_values, col_cond.T).T
    return row_part + col_part


def grad_entropy(model: EntropyModel, mu: Matching) -> Surplus:
    """Gradient of the entropy at ``mu``, as a surplus matrix.

    The gradient is taken with the margins held fixed, which is the
    relevant derivative on the polytope; it is defined up to a separable
    term, and the returned representative is the natural closed form for
    each entropy.  Shannon and quantile gradients require an interior
    matching; the quantile gradient additionally requires all cumulative
    conditional masses to be distinct (otherwise the entropy has a kink).
    The gauge gradient exists off the barycenter and equals the stretch
    factor times the normalized indicator of the binding boundary face.
    """
    if model.kind == "gauge":
        ray = polytope.gauge(mu)
        return Surplus(ray.t_star * polytope.face_normal(mu, ray))
    if mu.mu.min() <= _INTERIOR_TOL:
        cell = np.unravel_index(np.argmin(mu.mu), mu.mu.shape)
        raise NonInteriorError(
            f"boundary point: entropy gradient undefined, mu[{cell[0]}, {cell[1]}]"
            f" = {mu.mu[cell]!r}",
            cell=(int(cell[0]), int(cell[1])),
        )
    if model.kind == "shannon":
        return Surplus(1.0 + np.log(mu.mu))
    values = _check_values_shape(model, mu.mu.shape)
    for cond in conditionals(mu):
        if cond.min() <= _KINK_TOL:
            cell = np.unravel_index(np.argmin(cond), cond.shape)
            raise KinkPointError(
                "kink point: a conditional mass increment of"
                f" {cond.min()!r} at cell ({cell[0]}, {cell[1]}) makes two"
                " cumulative masses coincide",
                cell=(int(cell[0]), int(cell[1])),
            )
    return Surplus(_quantile_grad(mu, values))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    out = peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _ipfp_kernel(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    kernel = np.exp(phi)
    scale_y = np.ones(q.size)
    iterations = 0
    error = np.inf
    for iterations in range(1, IPFP_MAX_ITER + 1):
        scale_x = p / (kernel @ scale_y)
        scale_y = q / (kernel.T @ scale_x)
        mu = scale_x[:, None] * kernel * scale_y[None, :]
        error = max(
            float(np.abs(mu.sum(axis=1) - p).max()),
            float(np.abs(mu.sum(axis=0) - q).max()),
        )
        if error <= IPFP_TOL:
            return mu, iterations, error, True
    return mu, iterations, error, False


def _ipfp_log(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    log_p, log_q = np.log(p), np.log(q)
    beta = np.zeros(q.size)
    iterations = 0
    error = np.inf
    for iterations in range(1, IPFP_MAX_ITER + 1):
        alpha = log_p - _logsumexp(phi + beta[None, :], axis=1)
        beta = log_q - _logsumexp(phi + alpha[:, None], axis=0)
        mu = np.exp(phi + alpha[:, None] + beta[None, :])
        error = max(
            float(np.abs(mu.sum(axis=1) - p).max()),
            float(np.abs(mu.sum(axis=0) - q).max()),
        )
        if error <= IPFP_TOL:
            return mu, iterations, error, True
    return mu, iterations, error, False


def solve_regularized(
    model: EntropyModel, phi: Surplus, margins: Margins
) -> tuple[float, IpfpReport]:
    """Solve ``max <mu, phi> - I(mu)`` over the polytope (shannon only).

    The first-order condition ``1 + log mu = phi`` modulo separable
    potentials means the optimizer is the margin-fitted rescaling of
    ``exp(phi)``, which IPFP computes by alternately matching row and
    column sums.  Returns the optimal value and an ``IpfpReport``; raises
    ``ConvergenceError`` (with iteration diagnostics attached) if the
    margin error is not within ``IPFP_TOL`` after ``IPFP_MAX_ITER`` sweeps.

    Forward solvers for the gauge and quantile entropies are deliberately
    not provided; those entropies are used in the identification
    direction, where only values and gradients are needed.
    """
    if model.kind != "shannon":
        raise ValidationError(
            f"regularized solver implemented for shannon entropy only, got {model.kind!r}"
        )
    if phi.phi.shape != margins.shape:
        raise ValidationError(
            f"phi has shape {phi.phi.shape} but margins have shape {margins.shape}"
        )
    p, q = margins.p, margins.q
    if np.abs(phi.phi).max() > _LOG_DOMAIN_THRESHOLD:
        mu, iterations, error, converged = _ipfp_log(phi.phi, p, q)
    else:
        mu, iterations, error, converged = _ipfp_kernel(phi.phi, p, q)
    if not converged:
        raise ConvergenceError(
            f"IPFP failed to converge: margin error {error:.3e} after"
            f" {iterations} iterations (tolerance {IPFP_TOL})",
            iterations=iterations,
            residual=error,
        )
    matching = Matching(mu, margins)
    value = total_surplus(matching, phi) - _shannon_value(matching.mu)
    report = IpfpReport(
        mu=matching, iterations=iterations, margin_error=error, converged=True
    )
    return value, report
