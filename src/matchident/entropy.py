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
than a Newton phase, damped Newton steps on the dual take over at full
scale (Brauer, Clason, Lorenz & Wirth, "A Sinkhorn-Newton method for
entropic optimal transport", 2017).  They start from the exact LP's dual
potentials, to which the regularized ones tend as the scale grows, plus
the correction its vertex fixes (Cominetti & San Martín, Math. Prog. 1994):
each tree cell of the basis gets the vertex's flow.  The LP's start basis
fills the cells in order of surplus rather than in the northwest corner's
row-major order.  Where that vertex start misses a line sum by more than a
factor ``e``, up to ten log-domain sweeps from the duals fit every row to
within that factor instead.  Nothing of the sweeps' state carries over to
the Newton phase, so the hand-over is first weighed early, after 20 sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp, polytope
from .core import (
    BOUNDARY_TOL,
    ConvergenceError,
    KinkPointError,
    Margins,
    Matching,
    NonInteriorError,
    Surplus,
    TypeValues,
    ValidationError,
    _admit,
    _adopt,
    _check_same_shape,
    _empty_cells,
    _imbalance_tol,
    _present,
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

#: IPFP weighs a hand-over to Newton steps every this many sweeps, at the
#: rate of the last block, so the first judgement comes after two blocks.
#: The Newton phase starts from the LP and discards the sweeps, so
#: an early judgement saves their cost without changing the answer of a
#: solve that is handed over.  10 is the floor: blocks of 8 or fewer judge
#: the 2x8 market of
#: ``test_subnormal_kernel_cells_on_the_sweep_path_keep_their_digits``
#: before sweep 18, where it finishes on its sweeps, and blocks of 7 or
#: fewer hand it over.  The warm start's log-domain fit stops after
#: ``_BLOCK`` sweeps too.
_BLOCK = 10

#: The Newton phase costs about as many sweeps as ``_NEWTON_SWEEPS +
#: _NEWTON_SWEEPS_PER_CELL * m * n``: a fixed part for the refit and some
#: five to twenty Newton steps, and the LP warm start, which took about a
#: quarter of a sweep per cell up to 200x200.  Fitted to timings of 2x60 to
#: 140x140 markets at scales 10 to 1,000, with the LP started from the
#: northwest corner.  Started greedily, the LP takes about a fifth of that
#: time at 100x100 and 200x200, so the model overstates the Newton phase:
#: the hand-over comes later than it could, never earlier.  Refitted to the
#: same shapes and scales with the greedy start, it reads about ``70 +
#: 0.073 * m * n`` sweeps (2 vCPU).  The refit waits for a size ladder in
#: the benchmark: it would hand the 40x40 market of
#: ``test_sweeps_that_cannot_finish_under_the_cap_hand_over`` over before
#: its sweeps finish.
_NEWTON_SWEEPS = 60.0
_NEWTON_SWEEPS_PER_CELL = 0.25

#: Backtracking: sufficient-decrease constant and the smallest step tried.
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30

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

    ``sweeps`` counts the IPFP sweeps and ``newton_steps`` the steps of the
    Newton phase that takes over when the sweeps stall.  ``margin_error`` is
    what the stopping test last read: the row error after a sweep (the sweep
    ends by fitting the columns), the larger of the row and column errors
    after a Newton step, or at the Newton phase's start if it took none.
    ``iterations`` and ``converged`` are read off these fields.
    """

    mu: Matching
    margin_error: float
    sweeps: int
    newton_steps: int

    @property
    def iterations(self) -> int:
        """Sweeps and Newton steps together, the count ``IPFP_MAX_ITER`` caps."""
        return self.sweeps + self.newton_steps

    @property
    def converged(self) -> bool:
        """Whether the margin error is within ``IPFP_TOL``."""
        return self.margin_error <= IPFP_TOL


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
    # A zero-mass type weighs 0 and adds no conditional mass: read the present types.
    rows, cols = _present(mu.margins.p, mu.margins.q)
    p, q, sub = mu.margins.p[rows], mu.margins.q[cols], mu.mu[np.ix_(rows, cols)]
    row_moments = _quantile_moments(values.y_values[cols], np.cumsum(sub / p[:, None], axis=1))
    col_moments = _quantile_moments(values.x_values[rows], np.cumsum((sub / q).T, axis=1))
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
    out = np.zeros((matrix.shape[0], matrix.shape[1] + 1))
    np.cumsum(matrix[:, ::-1], axis=1, out=out[:, -2::-1])
    return out


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


def grad_entropy(model: EntropyModel, mu: Matching) -> Surplus:
    """Gradient of the entropy at ``mu``, as a surplus matrix.

    The gradient is taken with the margins held fixed, which is the
    relevant derivative on the polytope; it is defined up to a separable
    term, and the returned representative is the natural closed form for
    each entropy.  Shannon and quantile gradients refuse every empty cell
    (see ``core``) and name the lightest, so the shannon gradient never
    takes ``log 0``; the quantile gradient also requires all cumulative
    conditional masses to be distinct (otherwise the entropy has a kink).
    The gauge gradient exists off the barycenter and equals the stretch
    factor times the normal of the face where the gauge ray exits (see
    ``polytope.GaugeResult.gradient``).
    """
    if model.kind == "gauge":
        return polytope.gauge(mu).gradient
    if mu.mu.min() <= BOUNDARY_TOL and (empty := _empty_cells(mu.mu, mu.margins)).any():
        cell = np.unravel_index(np.argmin(np.where(empty, mu.mu, np.inf)), mu.mu.shape)
        raise NonInteriorError(
            f"boundary point: entropy gradient undefined, mu[{cell[0]}, {cell[1]}]"
            f" = {float(mu.mu[cell])!r}",
            cell=(int(cell[0]), int(cell[1])),
        )
    if model.kind == "shannon":
        return _adopt(Surplus, phi=1.0 + np.log(mu.mu))
    values = _check_values_shape(model, mu.mu.shape)
    row_cond, col_cond = conditionals(mu)
    for cond in (row_cond, col_cond):
        if cond.min() <= _KINK_TOL:
            cell = np.unravel_index(np.argmin(cond), cond.shape)
            raise KinkPointError(
                "kink point: a conditional mass increment of"
                f" {float(cond.min())!r} at cell ({cell[0]}, {cell[1]}) makes two"
                " cumulative masses coincide",
                cell=(int(cell[0]), int(cell[1])),
            )
    row_part = _quantile_side_grad(values.y_values, row_cond)
    col_part = _quantile_side_grad(values.x_values, col_cond.T).T
    return _adopt(Surplus, phi=row_part + col_part)


# Past the float range a scaling turns inf or nan without a warning.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _ipfp(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Fit ``exp(phi)`` to positive margins; returns mu, the sweeps, the
    Newton steps and the error.

    The sweeps start with a 1 in every row and column of the kernel and
    nothing above 1.  The scalings ``a`` and ``b`` are two views of one
    buffer, and each sweep writes them, the kernel sums and the residual in
    place.  Their error is read off the row sums ``a * (kernel @ b)``, whose
    ``kernel @ b`` the next row update divides by.  Every ``_BLOCK`` sweeps
    from the second block on (sweep 20, 30, ...) the loop estimates how
    many more it needs at the last block's rate.  It hands over to
    ``_newton``, started from ``_warm_start``'s LP vertex or duals, once
    they would cost more than the Newton phase with its LP, or cannot finish
    within ``IPFP_MAX_ITER``; a start within ``IPFP_TOL`` takes no step.  If
    the Newton phase stalls, the sweeps go on from where they stopped,
    exactly as they would have alone.  A margin error that is inf or nan,
    from a kernel sum past the float range, ends the sweeps on the last
    finite one.  A solve that ends unconverged returns the state of
    whichever phase, sweeps or Newton, came closer.
    """
    f = -phi.max(axis=1)
    g = -(phi + f[:, None]).max(axis=0)
    kernel = np.exp(phi + f[:, None] + g[None, :])
    # One buffer holds both scalings, so the range test reads it once.
    scalings = np.ones(p.size + q.size)
    a, b = scalings[: p.size], scalings[p.size :]
    kernel_b = kernel @ b
    residual = np.empty(p.size)
    sweeps = steps = 0
    error = newton_error = math.inf
    previous = None
    cost = _NEWTON_SWEEPS + _NEWTON_SWEEPS_PER_CELL * phi.size
    while sweeps + steps < IPFP_MAX_ITER:
        sweeps += 1
        np.divide(p, kernel_b, out=a)
        np.divide(q, a @ kernel, out=b)
        if max(scalings.max(), 1.0 / scalings.min()) > _SCALING_RANGE:
            f += np.log(a)
            g += np.log(b)
            kernel = np.exp(phi + f[:, None] + g[None, :])
            scalings.fill(1.0)
        np.matmul(kernel, b, out=kernel_b)
        np.multiply(a, kernel_b, out=residual)
        residual -= p
        sweep_error = float(np.abs(residual, out=residual).max())
        if not sweep_error < math.inf:
            break
        error = sweep_error
        if error <= IPFP_TOL:
            break
        if sweeps % _BLOCK or steps:  # a stalled Newton phase is not retried
            continue
        # Sweeps that cannot finish under the cap are not worth their cost
        # either.
        if previous is not None and _sweeps_needed(previous, error) > min(
            cost, IPFP_MAX_ITER - sweeps
        ):
            newton_mu, steps, newton_error = _newton(
                *_warm_start(phi, p, q), p, q, IPFP_MAX_ITER - sweeps
            )
            if newton_error <= IPFP_TOL:
                return newton_mu, sweeps, steps, newton_error
        previous = error
    if newton_error < error:  # neither phase converged; the closer one reports
        return newton_mu, sweeps, steps, newton_error
    mu = a[:, None] * kernel * b[None, :]
    # Where the kernel is subnormal, a * kernel * b keeps few digits.
    rows, cols = np.nonzero(kernel < np.finfo(float).tiny)
    mu[rows, cols] = np.exp(
        phi[rows, cols] + f[rows] + np.log(a[rows]) + g[cols] + np.log(b[cols])
    )
    return mu, sweeps, steps, error


def _sweeps_needed(previous: float, error: float) -> float:
    """Sweeps still needed to reach ``IPFP_TOL`` at the rate that took the
    error from ``previous`` to ``error`` over the last ``_BLOCK`` sweeps."""
    if error >= previous:
        return math.inf
    return _BLOCK * math.log(error / IPFP_TOL) / math.log(previous / error)


# A vertex start far off its lines may overflow; the gate then refuses it.
@np.errstate(over="ignore")
def _warm_start(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """The doubly centred ``phi`` and log potentials that nearly fit it.

    Centring keeps large separable shifts out of the exponent.  The exact
    LP's duals on the centred ``phi``, scaled back by its largest entry, are
    the limit of the regularized potentials as the scale grows.  The LP
    fills its start in order of surplus, which needs fewer pivots than
    ``maximize_surplus``'s northwest corner.  Its basis tree, walked parents
    first, then moves each node's potential so that the node's tree cell
    holds the vertex's flow; an empty cell (``core``'s rule) keeps its
    dual's value.  That vertex start is taken when every row and column sum
    is within a factor ``e`` of its margin.  Near-tied cells off the tree
    can take far more, as on the size ladder from 80 sides up; then
    log-domain sweeps from the column duals fit the margins instead, so no
    type, however small its mass, starts far off it.  Each sweep fits the
    columns exactly; the sweeps go on, ``_BLOCK`` (10) at most, until every
    row sum is within a factor ``e`` of its margin too.  The LP keeps every
    light type's mass, so on the stress recipe's light-type markets three
    sweeps at most get there.  Newton's step in a row potential is the row's
    relative error, the linearization of the log of its ratio, and one
    sweep can leave a light row whose only tight cell shares a column with
    a heavy row off by a factor of 7e11: no backtracking within
    ``_MIN_STEP`` tames that step.
    """
    centred = phi - phi.mean(axis=1)[:, None]
    centred -= centred.mean(axis=0)[None, :]
    spread = float(np.abs(centred).max()) or 1.0
    cost = centred / spread
    # A centring that overflows leaves inf or nan, on which the simplex
    # would pivot to its cap.
    if not np.isfinite(cost).all():
        raise ValidationError("phi is too large: its doubly centred form overflows")
    _, f, g, _, _, (parent, depth, flow) = lp._transport(cost, p, q, cost)
    f, g = -spread * f, -spread * g
    m, correction = p.size, [0.0] * len(parent)
    for node in sorted(range(1, len(parent)), key=depth.__getitem__):
        up = parent[node]
        x, y = (node, up - m) if node < m else (up, node - m)
        if flow[node] > BOUNDARY_TOL * p[x] * q[y]:  # not empty by core's rule
            correction[node] = math.log(flow[node]) - (centred[x, y] + f[x] + g[y])
        correction[node] -= correction[up]
    vertex_f, vertex_g = f + correction[:m], g + correction[m:]
    kernel = np.exp(centred + vertex_f[:, None] + vertex_g[None, :])
    ratio = np.concatenate([kernel.sum(axis=1) / p, kernel.sum(axis=0) / q])
    if 1.0 / math.e <= ratio.min() and ratio.max() <= math.e:  # the sweeps' test, both sides
        return centred, vertex_f, vertex_g
    for _ in range(_BLOCK):
        f, g = _fit_margins(centred, g, p, q)
        ratio = np.exp(centred + f[:, None] + g[None, :]).sum(axis=1) / p
        if 1.0 / math.e <= ratio.min() and ratio.max() <= math.e:
            break
    return centred, f, g


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
    phi: np.ndarray,
    f: np.ndarray,
    g: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    budget: int,
):
    """Damped Newton steps on the dual ``sum exp(phi + f + g) - p.f - q.g``
    from the start ``(f, g)``, at full scale.

    The last ``g`` stays fixed, which makes the (m+n-1)-square Hessian
    positive definite; eliminating ``f`` leaves its Schur complement on
    ``g``, which is the shorter side once the problem is transposed so that
    ``m >= n``.  Backtracking also accepts a step that lowers the margin
    error, because near the solution the dual's decrease falls below
    rounding.  Returns mu, the steps taken (at most ``budget``) and the
    margin error; a failed line search or a singular Schur complement ends
    the phase unconverged.
    """
    if p.size < q.size:
        mu, steps, error = _newton(phi.T, g, f, q, p, budget)
        return mu.T, steps, error
    mu, rows, cols, value, error = _dual(phi, f, g, p, q)
    steps = 0
    dg = np.zeros(q.size)  # the last entry stays 0: that g is fixed
    # A trial step may overflow exp; its dual value is then inf and the
    # backtracking rejects it.
    with np.errstate(over="ignore"):
        while error > IPFP_TOL and steps < budget:
            steps += 1
            gradient_f, gradient_g = rows - p, (cols - q)[:-1]
            scaled = mu[:, :-1] / rows[:, None]
            schur = mu[:, :-1].T @ scaled
            np.negative(schur, out=schur)
            schur.ravel()[:: q.size] += cols[:-1]  # the diagonal
            try:
                dg[:-1] = np.linalg.solve(schur, scaled.T @ gradient_f - gradient_g)
            except np.linalg.LinAlgError:
                break
            df = -(gradient_f + mu[:, :-1] @ dg[:-1]) / rows
            slope = float(gradient_f @ df + gradient_g @ dg[:-1])
            t = 1.0
            while True:
                trial_f, trial_g = f + t * df, g + t * dg
                trial = _dual(phi, trial_f, trial_g, p, q)
                trial_value, trial_error = trial[3:]
                decrease = trial_value <= value + _ARMIJO * t * slope
                if decrease or trial_error < error:
                    break
                t *= 0.5
                if t < _MIN_STEP:
                    return mu, steps, error
            f, g, (mu, rows, cols, value, error) = trial_f, trial_g, trial
    return mu, steps, error


def _fit_margins(phi: np.ndarray, g: np.ndarray, p: np.ndarray, q: np.ndarray):
    """One sweep in the log domain: ``f`` fits the rows to ``g``, then ``g``
    the columns to ``f``."""
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
    worth finishing, damped Newton steps on the dual take over, started
    from the exact LP's dual potentials; if those stall, the sweeps resume
    where they stopped.  Zero-mass types get zero rows and columns and stay
    out of both.  When the margins' sums differ by more than ``IPFP_TOL``,
    no matching fits both: the rows are fitted to ``p`` and the columns to
    ``q`` rescaled to ``p``'s total, so the columns absorb the difference,
    and ``margin_error`` is measured against that rescaled ``q``.  Returns
    the optimal value and an ``IpfpReport``; raises ``ConvergenceError``
    (with iteration diagnostics attached) if the margin error is not within
    ``IPFP_TOL`` after ``IPFP_MAX_ITER`` iterations, sweeps and Newton steps
    together, or when a kernel sum leaves the float range first.

    Forward solvers for the gauge and quantile entropies are deliberately
    not provided; those entropies are used in the identification
    direction, where only values and gradients are needed.
    """
    if model.kind != "shannon":
        raise ValidationError(
            f"regularized solver implemented for shannon entropy only, got {model.kind!r}"
        )
    _check_same_shape("phi", phi.phi.shape, margins)
    # IPFP runs on the present types, so every scaling it sees is positive.
    rows, cols = _present(margins.p, margins.q)
    support = np.ix_(rows, cols)
    p, q = margins.p[rows], margins.q[cols]
    # IPFP stops only within IPFP_TOL of both sides, which no matching
    # reaches when their sums differ by more.
    if abs(p.sum() - q.sum()) > IPFP_TOL:
        q = q * (p.sum() / q.sum())
    mu = np.zeros(margins.shape)
    mu[support], sweeps, steps, error = _ipfp(phi.phi[support], p, q)
    iterations = sweeps + steps
    if not error <= IPFP_TOL:
        raise ConvergenceError(
            f"IPFP failed to converge: margin error {error:.3e} after"
            f" {iterations} iterations (tolerance {IPFP_TOL})",
            iterations=iterations,
            residual=error,
        )
    matching = _admit(mu, margins, _imbalance_tol(margins))
    value = total_surplus(matching, phi) - _shannon_value(matching.mu)
    return value, IpfpReport(matching, error, sweeps, steps)
