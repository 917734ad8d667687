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
shannon case only, by fitting the kernel ``exp(phi)`` onto the margins.
Iterative proportional fitting (IPFP) sweeps come first.  One stabilized
loop covers every surplus scale: the kernel is kept as
``exp(phi + f + g)``, and a scaling that grows or shrinks too far is
absorbed into the log potentials ``f`` and ``g`` (Schmitzer, SIAM J. Sci.
Comput. 2019), so nothing overflows.  At large scales the sweeps slow
down or stall on a plateau; when the sweeps still needed would cost more
than a Newton phase, damped Newton steps on the dual take over, along a
continuation in the surplus scale (Brauer, Clason, Lorenz & Wirth,
"A Sinkhorn-Newton method for entropic optimal transport", 2017).
"""

from __future__ import annotations

import math
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

#: Cap on the IPFP sweeps and Newton steps of one solve, together.
IPFP_MAX_ITER = 10_000

#: IPFP folds its scalings into the kernel's log potentials once one leaves
#: ``[1 / _SCALING_RANGE, _SCALING_RANGE]``: far inside the float range,
#: yet wide enough that the kernel is rarely rebuilt.
_SCALING_RANGE = 1e50

#: IPFP weighs a hand-over to Newton steps every this many sweeps.
_BLOCK = 20

#: The Newton phase's first continuation stage solves a surplus whose
#: doubly centred spread is at most this; a cold start converges there.
_FIRST_SPREAD = 2.0

#: Margin error at which an intermediate continuation stage stops.
_STAGE_TOL = 1e-6

#: A continuation stage of the Newton phase costs about as many sweeps as
#: ``_STAGE_SWEEPS + _STAGE_SWEEPS_PER_TYPE * min(m, n)``: some four steps,
#: each a fixed overhead plus a Schur complement on the shorter side.
_STAGE_SWEEPS = 20.0
_STAGE_SWEEPS_PER_TYPE = 4.0 / 3.0

#: A continuation stage converges in at most about 10 Newton steps; one
#: that takes this many has stalled.
_MAX_STAGE_STEPS = 30

#: Backtracking: sufficient-decrease constant and the smallest step tried.
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30

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
    """Diagnostics of an IPFP run: the fitted matching and how it converged.

    ``iterations`` counts the IPFP sweeps plus the Newton steps of the
    phase that takes over when the sweeps stall.  ``margin_error`` is what
    the stopping test last read: the row error after a sweep (the sweep
    ends by fitting the columns), the larger of the row and column errors
    after a Newton step.
    """

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


def _ipfp(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Fit ``exp(phi)`` to positive margins; returns mu, iterations and the error.

    The sweeps start with a 1 in every row and column of the kernel and
    nothing above 1.  Their error is read off the row sums ``a * (kernel @
    b)``, whose ``kernel @ b`` the next row update divides by.  Every
    ``_BLOCK`` sweeps the loop estimates how many more it needs at the
    last block's rate, and hands over to ``_newton`` once they would cost
    more than the Newton phase or cannot finish within ``IPFP_MAX_ITER``.
    If the Newton phase stalls, the sweeps go on from where they stopped.
    Iterations count sweeps and Newton steps together.
    """
    f = -phi.max(axis=1)
    g = -(phi + f[:, None]).max(axis=0)
    kernel = np.exp(phi + f[:, None] + g[None, :])
    b = np.ones(q.size)
    kernel_b = kernel @ b
    sweeps = steps = 0
    previous = plan = None
    while sweeps + steps < IPFP_MAX_ITER:
        sweeps += 1
        a = p / kernel_b
        b = q / (a @ kernel)
        if max(a.max(), b.max(), 1.0 / a.min(), 1.0 / b.min()) > _SCALING_RANGE:
            f += np.log(a)
            g += np.log(b)
            kernel = np.exp(phi + f[:, None] + g[None, :])
            a, b = np.ones(p.size), np.ones(q.size)
        kernel_b = kernel @ b
        error = float(np.abs(a * kernel_b - p).max())
        if error <= IPFP_TOL:
            break
        if sweeps % _BLOCK or steps:  # a stalled Newton phase is not retried
            continue
        if previous is not None:
            plan = plan or _continuation(phi)
            centred, halvings, cost = plan
            # Sweeps that cannot finish under the cap are not worth their
            # cost either.
            if _sweeps_needed(previous, error) > min(cost, IPFP_MAX_ITER - sweeps):
                mu, steps, newton_error = _newton(
                    centred, halvings, p, q, IPFP_MAX_ITER - sweeps
                )
                if newton_error <= IPFP_TOL:
                    return mu, sweeps + steps, newton_error
        previous = error
    return a[:, None] * kernel * b[None, :], sweeps + steps, error


def _sweeps_needed(previous: float, error: float) -> float:
    """Sweeps still needed to reach ``IPFP_TOL`` at the rate that took the
    error from ``previous`` to ``error`` over the last ``_BLOCK`` sweeps."""
    if error >= previous:
        return math.inf
    return _BLOCK * math.log(error / IPFP_TOL) / math.log(previous / error)


def _continuation(phi: np.ndarray) -> tuple[np.ndarray, int, float]:
    """The doubly centred ``phi``, the halvings that bring its spread down
    to ``_FIRST_SPREAD``, and the Newton phase's expected cost in sweeps."""
    centred = phi - phi.mean(axis=1)[:, None]
    centred -= centred.mean(axis=0)[None, :]
    spread = max(float(np.ptp(centred)), _FIRST_SPREAD)
    halvings = math.ceil(math.log2(spread / _FIRST_SPREAD))
    stage = _STAGE_SWEEPS + _STAGE_SWEEPS_PER_TYPE * min(phi.shape)
    return centred, halvings, (halvings + 1) * stage


def _dual(
    phi: np.ndarray, f: np.ndarray, g: np.ndarray, p: np.ndarray, q: np.ndarray
):
    """``exp(phi + f + g)``, its row and column sums, the dual value and
    the margin error."""
    mu = np.exp(phi + f[:, None] + g[None, :])
    rows, cols = mu.sum(axis=1), mu.sum(axis=0)
    value = float(rows.sum() - p @ f - q @ g)
    error = float(max(np.abs(rows - p).max(), np.abs(cols - q).max()))
    return mu, rows, cols, value, error


def _newton(
    centred: np.ndarray, halvings: int, p: np.ndarray, q: np.ndarray, budget: int
):
    """Damped Newton steps on the dual ``sum exp(phi + f + g) - p.f - q.g``.

    The last ``g`` stays fixed, which makes the (m+n-1)-square Hessian
    positive definite; eliminating ``f`` leaves its Schur complement on
    ``g``, which is the shorter side once the problem is transposed so that
    ``m >= n``.  A cold start does not converge at large scales, so the
    stages follow ``phi * 2^-k`` for ``k = halvings, ..., 0``: the first
    has a spread of at most ``_FIRST_SPREAD``, and each later one starts
    from the previous stage's potentials doubled, refitted to the margins
    by one log-domain sweep (doubling alone leaves a type of tiny mass far
    off its margin, where a Newton step overshoots).  All but the last
    stage stop at ``_STAGE_TOL``.  Backtracking also accepts a step that
    lowers the margin error, because near the solution the dual's decrease
    falls below rounding.  Returns mu, the steps taken (at most ``budget``)
    and the margin error; a stage that fails its line search, meets a
    singular Hessian or takes ``_MAX_STAGE_STEPS`` steps ends the phase
    unconverged.
    """
    if p.size < q.size:
        mu, steps, error = _newton(centred.T, halvings, q, p, budget)
        return mu.T, steps, error
    f, g = np.log(p), np.log(q)
    steps = 0
    # A trial step may overflow exp; its dual value is then inf and the
    # backtracking rejects it.
    with np.errstate(over="ignore"):
        for k in range(halvings, -1, -1):
            phi = np.ldexp(centred, -k)
            if k < halvings:
                f, g = _fit_margins(phi, 2.0 * f, 2.0 * g, p, q)
            tol = _STAGE_TOL if k else IPFP_TOL
            mu, rows, cols, value, error = _dual(phi, f, g, p, q)
            stage_budget = min(budget, steps + _MAX_STAGE_STEPS)
            while error > tol:
                if steps == stage_budget:
                    return mu, steps, error
                steps += 1
                gradient_f, gradient_g = rows - p, (cols - q)[:-1]
                scaled = mu[:, :-1] / rows[:, None]
                schur = np.diag(cols[:-1]) - mu[:, :-1].T @ scaled
                try:
                    dg = np.linalg.solve(schur, scaled.T @ gradient_f - gradient_g)
                except np.linalg.LinAlgError:
                    return mu, steps, error
                df = -(gradient_f + mu[:, :-1] @ dg) / rows
                slope = float(gradient_f @ df + gradient_g @ dg)
                dg = np.append(dg, 0.0)
                t = 1.0
                while True:
                    trial = _dual(phi, f + t * df, g + t * dg, p, q)
                    trial_value, trial_error = trial[3:]
                    decrease = trial_value <= value + _ARMIJO * t * slope
                    if decrease or trial_error < error:
                        break
                    t *= 0.5
                    if t < _MIN_STEP:
                        return mu, steps, error
                f, g = f + t * df, g + t * dg
                mu, rows, cols, value, error = trial
    return mu, steps, error


def _fit_margins(
    phi: np.ndarray, f: np.ndarray, g: np.ndarray, p: np.ndarray, q: np.ndarray
):
    """One sweep in the log domain: ``f`` fits the rows, then ``g`` the columns."""
    z = phi + g[None, :]
    peak = z.max(axis=1)
    f = np.log(p) - peak - np.log(np.exp(z - peak[:, None]).sum(axis=1))
    z = phi + f[:, None]
    peak = z.max(axis=0)
    g = np.log(q) - peak - np.log(np.exp(z - peak[None, :]).sum(axis=0))
    return f, g


def solve_regularized(
    model: EntropyModel, phi: Surplus, margins: Margins
) -> tuple[float, IpfpReport]:
    """Solve ``max <mu, phi> - I(mu)`` over the polytope (shannon only).

    The first-order condition ``1 + log mu = phi`` modulo separable
    potentials means the optimizer is the margin-fitted rescaling of
    ``exp(phi)``, which IPFP computes by alternately matching row and
    column sums.  One loop serves every scale of ``phi``: it rescales the
    kernel ``exp(phi + f + g)`` and folds any scaling that leaves a fixed
    range into the potentials ``f`` and ``g``, so large surpluses neither
    overflow nor underflow it.  When the sweeps converge too slowly to be
    worth finishing, damped Newton steps on the dual take over; if those
    stall, the sweeps resume where they stopped.  Zero-mass types get zero
    rows and columns and stay out of both.  Returns the optimal value and
    an ``IpfpReport``; raises ``ConvergenceError`` (with iteration
    diagnostics attached) if the margin error is not within ``IPFP_TOL``
    after ``IPFP_MAX_ITER`` iterations, sweeps and Newton steps together.

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
    # Zero-mass types carry no mass at any sweep, so IPFP runs on the
    # others and every scaling it sees is positive.
    rows, cols = margins.p > 0.0, margins.q > 0.0
    support = np.ix_(rows, cols)
    mu = np.zeros(margins.shape)
    mu[support], iterations, error = _ipfp(
        phi.phi[support], margins.p[rows], margins.q[cols]
    )
    if not error <= IPFP_TOL:
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
