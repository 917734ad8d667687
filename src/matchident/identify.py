"""Rationalizability verdicts and surplus identification from observed matchings.

An observed matching is rationalizable when it maximizes total surplus for
some nonseparable surplus matrix.  Geometrically this happens exactly when
the matching sits on the boundary of the matching polytope: an interior
matching is optimal only for separable surpluses, which value every
matching the same.  ``check_rationalizable`` returns the verdict together
with an explicit witness surplus and the verification results; optimality
is verified by a closed-form dual certificate, never by solving the LP.

When a point verdict is too brittle (real data never sits exactly on a
face), identification proceeds through an entropy: the observed matching
is read as the optimizer of ``<mu, phi> - I(mu)``, which pins the surplus
down to ``grad I(mu_hat)`` modulo separable terms.  ``identify_entropy``
inverts any of the supported entropies this way; for the gauge it calls
``rationalize_gauge``, which scales the matching to the boundary and reads
the surplus off the exit face.  ``simulate_market`` closes the loop for
finite-sample experiments.

The verdict and the gauge identification read one ray, so it is computed
once per observation: ``_scaled`` memoizes ``gauge(mu_hat)`` and
``_identified`` the gauge identification, each a ``functools.lru_cache`` of
one entry keyed by the ``Matching`` object (which compares by identity).
They stay two memos because the verdict can answer where the identification
raises, as on a type light enough that the gauge gradient is not finite.
Draws from one population read one solve: ``_population`` memoizes the shannon-optimal
matching of the last ``(Surplus, Margins)`` pair, by the same rule.  Each
memo holds read-only arrays only.  A call that raises, as at the barycenter
or on a solve that does not converge, stores nothing, and at most two
matchings and one population are held: the last matching scaled, the last
one identified and the last population solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    OPTIMALITY_TOL,
    DegenerateRayError,
    Margins,
    Matching,
    Surplus,
    ValidationError,
    _frozen,
    _is_nonzero_residual,
    decompose_separable,
)
from .entropy import EntropyModel, grad_entropy, solve_regularized
from .polytope import GaugeResult, gauge

__all__ = [
    "RationalizabilityChecks",
    "RationalizabilityReport",
    "IdentifiedSurplus",
    "check_rationalizable",
    "rationalize_gauge",
    "identify_entropy",
    "simulate_market",
]

#: The largest sample size the multinomial draw takes (the int64 maximum).
_MAX_HOUSEHOLDS = 2**63 - 1

#: The gauge entropy of ``rationalize_gauge``'s answers and the memo's.
_GAUGE = EntropyModel.gauge()


@dataclass(frozen=True, eq=False)
class RationalizabilityChecks:
    """Individual verification results backing a rationalizability verdict.

    ``boundary`` is the geometric test; ``maximizer`` records that the dual
    potentials ``f = g = 0`` prove the observation optimal under the witness;
    ``nonseparable`` that the witness actually discriminates.  For a
    rationalizable matching all three hold; for an interior one all fail
    (there is no witness to verify).
    """

    boundary: bool
    maximizer: bool
    nonseparable: bool


#: The checks of every interior verdict: there is no witness to verify.
_INTERIOR = RationalizabilityChecks(False, False, False)


@dataclass(frozen=True, eq=False)
class RationalizabilityReport:
    """Verdict of ``check_rationalizable``.

    The verdict ``rationalizable`` is the boundary check, read off
    ``checks``.  ``witness`` is a surplus for which the observed matching is
    optimal (present exactly when rationalizable).  ``t_star`` and
    ``mu_star`` describe the ray from the barycenter through the
    observation; they are ``None`` where the ray is undefined, as at the
    barycenter itself.
    """

    witness: Surplus | None
    t_star: float | None
    mu_star: Matching | None
    checks: RationalizabilityChecks

    def __post_init__(self) -> None:
        if self.rationalizable and self.witness is None:
            raise ValidationError("rationalizable verdict requires a witness")

    @property
    def rationalizable(self) -> bool:
        return self.checks.boundary


@dataclass(frozen=True, eq=False)
class IdentifiedSurplus:
    """A surplus recovered from an observed matching.

    ``phi_raw`` is the gradient of the entropy ``entropy_kind`` at the
    observation (for the gauge, ``t_star`` times the exit face's normal);
    since the data only ever pin the surplus down modulo separable terms,
    ``phi_canonical`` is the doubly centered residual of ``phi_raw`` under
    the observation's margins, which is the route-independent part.
    ``diagnostics`` is a map of named reals recording the verification
    quantities of the route taken.
    """

    phi_raw: Surplus
    phi_canonical: Surplus
    entropy_kind: EntropyModel
    diagnostics: dict[str, float]


def _certifies(phi: np.ndarray, mu: Matching) -> bool:
    """Whether the dual potentials ``f = g = 0`` prove ``mu`` optimal for ``phi``:
    they are feasible when ``phi <= 0``, and the duality gap ``-<mu, phi>`` is
    at most ``OPTIMALITY_TOL * max|phi|``.
    """
    slack = OPTIMALITY_TOL * np.abs(phi).max()
    return bool(phi.max() <= 0.0 and (mu.mu * phi).sum() >= -slack)


def _separable_witness(empty: np.ndarray) -> bool:
    """Whether the surplus -1 on ``empty`` and 0 elsewhere is separable.

    It is ``a[x] + b[y]`` exactly when ``empty`` is a union of whole rows or
    a union of whole columns: a row holding both values makes every column
    constant, since ``b[y] - b[y']`` is the same in every row.  So each
    side takes an ``any`` and an ``all`` reduction, and no decomposition.
    """
    return bool(
        np.array_equal(empty.any(axis=1), empty.all(axis=1))
        or np.array_equal(empty.any(axis=0), empty.all(axis=0))
    )


@lru_cache(maxsize=1)
def _scaled(mu_hat: Matching) -> GaugeResult:
    """``gauge(mu_hat)``, with ``gauge`` read by name at call time, so a wrapper
    put in its place sees the call."""
    return gauge(mu_hat)


def _finished(phi_raw: Surplus, margins: Margins, model: EntropyModel, diagnostics: dict):
    """``phi_raw`` identified as ``model``: ``phi_canonical`` is its doubly centred residual
    under ``margins``, and ``diagnostics`` gains ``nonseparable``, whether that is nonzero."""
    residual = decompose_separable(phi_raw, margins).residual
    diagnostics["nonseparable"] = float(_is_nonzero_residual(residual, phi_raw.phi))
    return IdentifiedSurplus(phi_raw, _frozen(Surplus, phi=residual), model, diagnostics)


@lru_cache(maxsize=1)
def _identified(mu_hat: Matching) -> tuple[GaugeResult, IdentifiedSurplus]:
    """The gauge ray of ``mu_hat`` and the identification read off it."""
    ray = _scaled(mu_hat)
    return ray, _finished(ray.gradient, mu_hat.margins, _GAUGE, {
        "t_star": ray.t_star,
        "normalization": float((ray.normal * ray.direction).sum()),
        "maximizer_verified": float(_certifies(ray.normal, ray.mu_star)),
    })


def check_rationalizable(mu_hat: Matching) -> RationalizabilityReport:
    """Decide whether an observed matching is rationalizable, with proof.

    The verdict is the boundary test, read off the gauge ray: a matching
    with an empty cell between present lines (see ``core``) is its own exit
    point, ``t_star == 1``, and one without is interior, as is the
    barycenter.  The witness is -1 on the ray's binding (empty) cells and 0
    elsewhere.  Any feasible matching scores at most 0 against it and the
    observation attains 0, so the observation is optimal; the report records
    that dual certificate and the nonseparability of the witness, read in
    closed form: it is separable exactly when the empty cells form whole
    rows or whole columns, which those of present lines never do.

    The ray is memoized for the gauge identification (see the module docstring).
    """
    try:
        ray = _scaled(mu_hat)
    except DegenerateRayError:
        return RationalizabilityReport(None, None, None, _INTERIOR)
    if ray.t_star > 1.0:
        return RationalizabilityReport(None, ray.t_star, ray.mu_star, _INTERIOR)
    witness = _frozen(Surplus, phi=np.where(ray.binding, -1.0, 0.0))
    checks = RationalizabilityChecks(
        boundary=True,
        maximizer=_certifies(witness.phi, mu_hat),
        nonseparable=not _separable_witness(ray.binding),
    )
    return RationalizabilityReport(witness, ray.t_star, ray.mu_star, checks)


def _gauge_route(mu_hat: Matching, model: EntropyModel) -> tuple[GaugeResult, IdentifiedSurplus]:
    """The memo's ray for ``mu_hat`` and a copy of its identification, as ``model``."""
    ray, identified = _identified(mu_hat)
    return ray, IdentifiedSurplus(
        phi_raw=identified.phi_raw,
        phi_canonical=identified.phi_canonical,
        entropy_kind=model,
        diagnostics=dict(identified.diagnostics),
    )


def rationalize_gauge(mu_hat: Matching) -> tuple[GaugeResult, IdentifiedSurplus]:
    """Identify a surplus by scaling the observation to the boundary.

    The ray from the barycenter through ``mu_hat`` exits the polytope at
    stretch ``t_star`` on the face where the binding cells hit zero.  Its
    normal ``ray.normal`` is a surplus for which the exit point ``mu_star``
    is optimal (with dual certificate ``f = g = 0``), and ``phi_raw``,
    ``t_star`` times it, is the gauge entropy's gradient at ``mu_hat``.  A
    boundary observation is its own exit point (``t_star = 1``).

    Raises ``DegenerateRayError`` at the barycenter, as ``gauge`` does.

    The ray and the identification are memoized (see the module docstring);
    each call returns its own copy of ``diagnostics``.
    """
    return _gauge_route(mu_hat, _GAUGE)


#: Cells in each temporary of the blocked cross-difference scan, and the
#: longest side that it reduces faster as the leading axis in memory.
_BLOCK_CELLS, _LEAD_MAX = 2**15, 128


def _max_abs_cross_difference(lm: np.ndarray) -> float:
    """The largest |d[y] - d[y']| with d = lm[x] - lm[x'], the range of d, over pairs of
    the shorter side (rows when square), in blocks of one expression each: max and min
    are exact and (x', x) has the range of (x, x'), so the blocks change no bit."""
    pairs = lm if lm.shape[0] <= lm.shape[1] else lm.T
    short, long = pairs.shape
    pairs = np.ascontiguousarray(pairs.T).T if long <= _LEAD_MAX else np.ascontiguousarray(pairs)
    rows, span = max(1, _BLOCK_CELLS // pairs.size), min(long, _BLOCK_CELLS)
    best = 0.0
    for x0 in range(0, short - 1, rows):
        x1 = min(x0 + rows, short - 1)
        step = max(1, _BLOCK_CELLS // ((x1 - x0) * span))
        for p0 in range(x0 + 1, short, step):
            for y in range(0, long, span):
                d = pairs[x0:x1, None, y : y + span] - pairs[None, p0 : p0 + step, y : y + span]
                hi = d.max(axis=-1) if y == 0 else np.maximum(hi, d.max(axis=-1))
                lo = d.min(axis=-1) if y == 0 else np.minimum(lo, d.min(axis=-1))
            best = max(best, float((hi - lo).max()))
    return best


def identify_entropy(mu_hat: Matching, model: EntropyModel) -> IdentifiedSurplus:
    """Recover the surplus for which ``mu_hat`` solves the regularized problem.

    The first-order condition of ``max <mu, phi> - I(mu)`` identifies
    ``phi`` as ``grad I(mu_hat)`` up to separable terms, so the closed-form
    gradient is the raw answer and its doubly centered residual the
    canonical one.  Gradient domain errors (boundary point, kink,
    barycenter) propagate and name the offending cell.  The gauge entropy
    takes the route, and reports the diagnostics, of ``rationalize_gauge``,
    memo included (see the module docstring), with ``entropy_kind`` ``model``.

    For the shannon entropy the canonical part is, equivalently, the matrix
    of log cross-difference contrasts of the observation; the diagnostics
    report the largest in magnitude (and, for 2x2, the only one), found in
    O(min(m, n)^2 max(m, n)) time with temporaries of a fixed number of cells.
    """
    if model.kind == "gauge":
        return _gauge_route(mu_hat, model)[1]
    identified = _finished(grad_entropy(model, mu_hat), mu_hat.margins, model, {})
    if model.kind == "shannon":
        # phi_raw = 1 + log mu has log mu's cross differences, exactly unless some mu > e^-0.5.
        lm, diagnostics = identified.phi_raw.phi, identified.diagnostics
        diagnostics["max_abs_cross_difference"] = _max_abs_cross_difference(lm)
        if mu_hat.mu.shape == (2, 2):
            diagnostics["cross_difference"] = float(lm[0, 0] + lm[1, 1] - lm[0, 1] - lm[1, 0])
    return identified


@lru_cache(maxsize=1)
def _population(phi: Surplus, margins: Margins) -> Matching:
    """The shannon-optimal matching of ``phi`` under ``margins``: ``solve_regularized``,
    read by name at call time, so a wrapper put in its place sees the solve."""
    return solve_regularized(EntropyModel.shannon(), phi, margins)[1].mu


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def simulate_market(
    phi: Surplus, margins: Margins, households: int, seed: int
) -> tuple[Matching, Matching]:
    """Simulate a finite market whose population matching is shannon-optimal.

    Solves the shannon-regularized problem for the population matching,
    then draws ``households`` pairings from it multinomially.  Returns the
    population matching and the empirical one, whose margins are its own
    sums: a type the sample misses has zero mass, absent to the verdict and
    the gauge and refused by the shannon and quantile gradients.

    The population of the last ``(phi, margins)`` pair of objects is kept
    and shared read-only (see the module docstring): consecutive draws from
    one population, as a Monte Carlo study makes, return the same population
    ``Matching``.  A draw from another pair, or from new objects with equal
    contents, solves again, and so does the next draw from the pair before.

    The draw is reproducible: the same ``seed`` gives the same sample.
    ``households`` must be an integer from 1 to ``2**63 - 1``, and ``seed`` a
    non-negative integer; bools are not integers here.
    """
    if not _is_integer(households) or not 1 <= households <= _MAX_HOUSEHOLDS:
        raise ValidationError(
            f"households must be an integer from 1 to 2**63 - 1, got {households!r}"
        )
    if not _is_integer(seed):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    mu_true = _population(phi, margins)
    weights = mu_true.mu.ravel()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(households), weights / weights.sum())
    empirical = counts.reshape(mu_true.mu.shape).astype(float) / float(households)
    empirical_margins = Margins(empirical.sum(axis=1), empirical.sum(axis=0))
    return mu_true, Matching(empirical, empirical_margins)
