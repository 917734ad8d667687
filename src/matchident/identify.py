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
inverts any of the supported entropies this way, and ``rationalize_gauge``
does the geometric version, scaling the matching to the boundary and
reading the surplus off the binding face.  ``simulate_market`` closes the
loop for finite-sample experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BOUNDARY_TOL,
    OPTIMALITY_TOL,
    DegenerateRayError,
    Margins,
    Matching,
    Surplus,
    ValidationError,
    _barycenter_mu,
    _is_nonzero_residual,
    decompose_separable,
    is_nonseparable,
)
from .entropy import EntropyModel, grad_entropy, solve_regularized
from .polytope import GaugeResult, face_normal, gauge, is_boundary

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


@dataclass(frozen=True, eq=False)
class RationalizabilityReport:
    """Verdict of ``check_rationalizable``.

    ``witness`` is a surplus for which the observed matching is optimal
    (present exactly when rationalizable).  ``t_star`` and ``mu_star``
    describe the ray from the barycenter through the observation; they are
    ``None`` when the observation *is* the barycenter, where the ray is
    undefined.
    """

    rationalizable: bool
    witness: Surplus | None
    t_star: float | None
    mu_star: Matching | None
    checks: RationalizabilityChecks

    def __post_init__(self) -> None:
        if self.rationalizable != self.checks.boundary:
            raise ValidationError(
                "report verdict must agree with the boundary check"
            )
        if self.rationalizable and self.witness is None:
            raise ValidationError("rationalizable verdict requires a witness")


@dataclass(frozen=True, eq=False)
class IdentifiedSurplus:
    """A surplus recovered from an observed matching.

    ``phi_raw`` is the representative produced by the chosen route (an
    entropy gradient, or the scaled binding-face indicator); since the data
    only ever pin the surplus down modulo separable terms,
    ``phi_canonical`` is the doubly centered residual of ``phi_raw`` under
    the observation's margins, which is the route-independent part.
    ``diagnostics`` is a map of named reals recording the verification
    quantities of the route taken.
    """

    phi_raw: Surplus
    phi_canonical: Surplus
    entropy_kind: EntropyModel | str
    diagnostics: dict[str, float]


def _certifies(phi: np.ndarray, mu: Matching) -> bool:
    """Whether the dual potentials ``f = g = 0`` prove ``mu`` optimal for ``phi``:
    they are feasible when ``phi <= 0``, and the duality gap ``-<mu, phi>`` is
    at most ``OPTIMALITY_TOL * max|phi|``.
    """
    slack = OPTIMALITY_TOL * np.abs(phi).max()
    return bool(phi.max() <= 0.0 and np.sum(mu.mu * phi) >= -slack)


def check_rationalizable(mu_hat: Matching) -> RationalizabilityReport:
    """Decide whether an observed matching is rationalizable, with proof.

    The verdict is the boundary test.  On the boundary an explicit witness
    is constructed: the surplus equal to -1 on the empty cells (mass at
    most ``BOUNDARY_TOL``, the threshold of the boundary test) and 0
    elsewhere.  Any feasible matching scores at most 0 against it and the
    observation attains 0, so the observation is optimal; the report
    records that dual certificate and the nonseparability of the witness.
    """
    margins = mu_hat.margins
    boundary = is_boundary(mu_hat)
    try:
        ray = gauge(mu_hat)
        t_star, mu_star = ray.t_star, ray.mu_star
    except DegenerateRayError:
        t_star, mu_star = None, None
    if not boundary:
        return RationalizabilityReport(
            rationalizable=False,
            witness=None,
            t_star=t_star,
            mu_star=mu_star,
            checks=RationalizabilityChecks(False, False, False),
        )
    witness = Surplus(np.where(mu_hat.mu <= BOUNDARY_TOL, -1.0, 0.0))
    checks = RationalizabilityChecks(
        boundary=True,
        maximizer=_certifies(witness.phi, mu_hat),
        nonseparable=is_nonseparable(witness, margins),
    )
    return RationalizabilityReport(
        rationalizable=True,
        witness=witness,
        t_star=t_star,
        mu_star=mu_star,
        checks=checks,
    )


def rationalize_gauge(mu_hat: Matching) -> tuple[GaugeResult, IdentifiedSurplus]:
    """Identify a surplus by scaling the observation to the boundary.

    The ray from the barycenter through ``mu_hat`` exits the polytope at
    stretch ``t_star`` on the face where the binding cells hit zero.  The
    face normal, scaled so that its inner product with the ray direction
    ``mu_hat - bary`` is one, is a surplus ``phi_star`` for which the exit
    point ``mu_star`` is optimal (with dual certificate ``f = g = 0``);
    ``t_star * phi_star`` is then the gradient representative of the gauge
    entropy at ``mu_hat``.  A boundary observation is its own exit point
    (``t_star = 1``).

    Raises ``DegenerateRayError`` when ``mu_hat`` is the barycenter.
    """
    margins = mu_hat.margins
    ray = gauge(mu_hat)
    phi_star = Surplus(face_normal(mu_hat, ray))
    phi_raw = Surplus(ray.t_star * phi_star.phi)
    parts = decompose_separable(phi_raw, margins)
    direction = mu_hat.mu - _barycenter_mu(margins)
    diagnostics = {
        "t_star": ray.t_star,
        "normalization": float(np.sum(phi_star.phi * direction)),
        "maximizer_verified": float(_certifies(phi_star.phi, ray.mu_star)),
        "nonseparable": float(_is_nonzero_residual(parts.residual, phi_raw.phi)),
    }
    identified = IdentifiedSurplus(
        phi_raw=phi_raw,
        phi_canonical=Surplus(parts.residual),
        entropy_kind="gauge-geometric",
        diagnostics=diagnostics,
    )
    return ray, identified


def identify_entropy(mu_hat: Matching, model: EntropyModel) -> IdentifiedSurplus:
    """Recover the surplus for which ``mu_hat`` solves the regularized problem.

    The first-order condition of ``max <mu, phi> - I(mu)`` identifies
    ``phi`` as ``grad I(mu_hat)`` up to separable terms, so the closed-form
    gradient is the raw answer and its doubly centered residual the
    canonical one.  Gradient domain errors (boundary point, kink,
    barycenter) propagate and name the offending cell.

    For the shannon entropy the canonical part is, equivalently, the matrix
    of log cross-difference contrasts of the observation; the diagnostics
    report the largest in magnitude (and, for 2x2, the only one).
    """
    margins = mu_hat.margins
    if model.kind == "gauge":
        # grad_entropy's gauge gradient, built here so t_star reuses its ray.
        ray = gauge(mu_hat)
        phi_raw = Surplus(ray.t_star * face_normal(mu_hat, ray))
    else:
        phi_raw = grad_entropy(model, mu_hat)
    parts = decompose_separable(phi_raw, margins)
    diagnostics: dict[str, float] = {
        "nonseparable": float(_is_nonzero_residual(parts.residual, phi_raw.phi)),
    }
    if model.kind == "shannon":
        # For rows x, x' the cross-differences are d[y] - d[y'] with
        # d = lm[x] - lm[x'], so the largest in magnitude is the range of d.
        lm = np.log(mu_hat.mu)
        diagnostics["max_abs_cross_difference"] = max(
            float(np.ptp(lm[x] - lm[x + 1 :], axis=1).max()) for x in range(len(lm) - 1)
        )
        if mu_hat.mu.shape == (2, 2):
            diagnostics["cross_difference"] = float(lm[0, 0] + lm[1, 1] - lm[0, 1] - lm[1, 0])
    elif model.kind == "gauge":
        diagnostics["t_star"] = ray.t_star
    return IdentifiedSurplus(
        phi_raw=phi_raw,
        phi_canonical=Surplus(parts.residual),
        entropy_kind=model,
        diagnostics=diagnostics,
    )


def simulate_market(
    phi: Surplus, margins: Margins, households: int, seed: int
) -> tuple[Matching, Matching]:
    """Simulate a finite market whose population matching is shannon-optimal.

    Solves the shannon-regularized problem for the population matching,
    then draws ``households`` pairings from it multinomially.  Returns the
    population matching and the empirical one; the empirical margins are
    recomputed from the draw (they differ from the population margins and
    may contain zero-mass types for small samples).

    The draw is reproducible: the same ``seed`` gives the same sample.
    ``households`` must be an integer (not a bool) from 1 to ``2**63 - 1``.
    """
    if (
        not isinstance(households, (int, np.integer))
        or isinstance(households, bool)
        or not 1 <= households <= _MAX_HOUSEHOLDS
    ):
        raise ValidationError(
            f"households must be an integer from 1 to 2**63 - 1, got {households!r}"
        )
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
    mu_true = report.mu
    weights = mu_true.mu.ravel()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(households), weights / weights.sum())
    empirical = counts.reshape(mu_true.mu.shape).astype(float) / float(households)
    empirical_margins = Margins(
        empirical.sum(axis=1), empirical.sum(axis=0), allow_zero_mass=True
    )
    return mu_true, Matching(empirical, empirical_margins)
