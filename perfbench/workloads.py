"""The four benchmark workloads: seeded inputs, operations, and output checks.

Inputs come from numpy-only generators here, never from the library, so a
library change cannot change them.  A workload's ``build(seed, workdir)``
returns one pass: a fixed mix of the workload's ladder rungs, the same mix
for every seed.  An operation times only its library calls
(``Clock.call``); the checks between them run untimed and raise
``CheckFailed`` when an output is wrong.

Every operation ends in one of three outcomes:

* ``ok``: every call answered and every answer passed its check;
* ``domain``: some call gave a named domain answer (``NonInteriorError``,
  ``KinkPointError``, ``DegenerateRayError``), which is a correct outcome;
* ``failed``: a ``ConvergenceError``, any other exception, or an output
  that failed its check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import matchident as mi

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

OK, DOMAIN, FAILED = "ok", "domain", "failed"
DOMAIN_ERRORS = (mi.NonInteriorError, mi.KinkPointError, mi.DegenerateRayError)

SHANNON = mi.EntropyModel.shannon()
GAUGE = mi.EntropyModel.gauge()

#: Seconds after which a CLI subprocess is killed and counted as failed.
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An output of the library failed its independent check."""


def classify(exc: BaseException | None) -> str:
    """Outcome of an operation that raised ``exc`` (``None``: it returned)."""
    if exc is None:
        return OK
    if isinstance(exc, DOMAIN_ERRORS):
        return DOMAIN
    return FAILED


class Clock:
    """Times the library calls of one operation and counts domain answers.

    Time that a ``speed.SpeedProbe`` spends sampling inside a call is not
    counted.
    """

    def __init__(self, tracer=None, probe=None):
        self.busy = 0.0
        self.domain = 0
        self.tracer = tracer
        self.probe = probe

    def _probe_s(self) -> float:
        return 0.0 if self.probe is None else self.probe.handler_s

    def call(self, fn, *args, **kwargs):
        probe_s = self._probe_s()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy += perf_counter() - start - (self._probe_s() - probe_s)

    def attempt(self, fn, *args):
        """Like ``call``, but a named domain answer returns ``None``."""
        try:
            return self.call(fn, *args)
        except DOMAIN_ERRORS:
            self.domain += 1
            return None


@dataclass
class Op:
    label: str
    tags: dict
    fn: Callable[[Clock], None]


@dataclass
class Outcome:
    status: str
    seconds: float
    wrong: bool  # an output failed its check, or an unexpected exception
    detail: str | None
    window: tuple[float, float]  # perf_counter at the start and end of the operation


def run_op(op: Op, tracer=None, probe=None) -> Outcome:
    clock = Clock(tracer, probe)
    if tracer is not None:
        tracer.op_tags = op.tags
    start = perf_counter()
    try:
        op.fn(clock)
    except CheckFailed as exc:
        status, wrong, detail = FAILED, True, f"{op.label}: {exc}"
    except Exception as exc:  # every exception is an outcome to count, never a crash
        status = classify(exc)
        wrong = status == FAILED and not isinstance(exc, mi.ConvergenceError)
        detail = f"{op.label}: {type(exc).__name__}: {exc}"
    else:
        status, wrong, detail = DOMAIN if clock.domain else OK, False, None
    return Outcome(status, clock.busy, wrong, detail, (start, perf_counter()))


# -- generators ---------------------------------------------------------


def stream(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def random_margins(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    p = rng.uniform(0.2, 1.0, m)
    q = rng.uniform(0.2, 1.0, n)
    return p / p.sum(), q / q.sum()


def centered(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Doubly centered residual of ``a`` under margin weights ``p``, ``q``."""
    return a - (a @ q)[:, None] - (p @ a)[None, :] + p @ a @ q


def interior_matching(rng, p, q) -> np.ndarray:
    """``p q^T (1 + s r)`` with ``r`` centered, so margins hold exactly."""
    r = centered(rng.standard_normal((p.size, q.size)), p, q)
    s = rng.uniform(0.3, 0.9) / -r.min()
    return np.outer(p, q) * (1.0 + s * r)


def boundary_matching(rng, p, q) -> np.ndarray:
    """Exit point of the ray from the barycenter through an interior matching."""
    bary = np.outer(p, q)
    diff = interior_matching(rng, p, q) - bary
    shrinking = diff < 0
    t = (bary[shrinking] / -diff[shrinking]).min()
    mu = bary + t * diff
    mu[mu < 1e-15] = 0.0
    return mu


def vertex_matching(rng, p, q) -> np.ndarray:
    """Northwest-corner vertex under a random order of rows and columns."""
    rows, cols = rng.permutation(p.size), rng.permutation(q.size)
    left_p, left_q = p[rows].copy(), q[cols].copy()
    mu = np.zeros((p.size, q.size))
    x = y = 0
    while x < p.size and y < q.size:
        t = min(left_p[x], left_q[y])
        mu[rows[x], cols[y]] = t
        left_p[x] -= t
        left_q[y] -= t
        if x == p.size - 1:
            y += 1
        elif y == q.size - 1 or left_p[x] <= left_q[y]:
            x += 1
        else:
            y += 1
    return mu


def type_values(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.cumsum(rng.uniform(0.5, 1.5, m)), np.cumsum(rng.uniform(0.5, 1.5, n))


MATCHING_KINDS = {
    "interior": interior_matching,
    "boundary": boundary_matching,
    "vertex": vertex_matching,
}


# -- checks (numpy only, independent of the library's code paths) ---------


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_lp(phi, p, q, mu, f, g, value) -> None:
    """Dual certificate: feasible ``mu``, dual feasibility, zero duality gap."""
    tol = 1e-9 * max(1.0, float(np.abs(phi).max()))
    expect(mu.min() >= 0.0, "mu_opt has a negative entry")
    expect(np.abs(mu.sum(axis=1) - p).max() <= mi.MASS_TOL
           and np.abs(mu.sum(axis=0) - q).max() <= mi.MASS_TOL, "mu_opt misses the margins")
    expect((f[:, None] + g[None, :] - phi).min() >= -tol, "dual potentials infeasible")
    expect(abs(p @ f + q @ g - value) <= tol, "nonzero duality gap")
    expect(abs(float(np.sum(mu * phi)) - value) <= tol, "value is not <mu_opt, phi>")


def check_verdict(mu, rationalizable, witness, t_star, mu_star) -> None:
    """Verdict is the boundary test; the witness certifies optimality."""
    boundary = bool(mu.min() <= mi.BOUNDARY_TOL)
    expect(rationalizable == boundary, f"verdict {rationalizable} but boundary is {boundary}")
    if boundary:
        expect(witness.max() <= 0.0, "witness has a positive entry")
        expect(abs(float(np.sum(witness * mu))) <= mu.size * 1e-12, "<witness, mu> is not 0")
        expect(witness.min() < 0.0, "witness is zero")
    else:
        expect(witness is None, "interior matching got a witness")
    if t_star is not None:
        expect(t_star >= 1.0 - 1e-9, f"t_star {t_star} < 1")
        expect(mu_star.min() <= 1e-12, "mu_star has no zero")


def check_gauge(mu, p, q, t_star, phi_raw, mu_star=None) -> None:
    """t* >= 1, the exit point has a zero, and the face normal certifies it."""
    bary = np.outer(p, q)
    exit_point = np.clip(bary + t_star * (mu - bary), 0.0, None)
    expect(t_star >= 1.0 - 1e-9, f"t_star {t_star} < 1")
    if mu.min() <= mi.BOUNDARY_TOL:
        expect(abs(t_star - 1.0) <= 1e-9, f"boundary matching has t_star {t_star}")
    expect(exit_point.min() <= 1e-12, "exit point has no zero")
    if mu_star is not None:
        expect(np.abs(mu_star - exit_point).max() <= 1e-9, "mu_star is not the exit point")
    scale = max(1.0, float(np.abs(phi_raw).max()))
    expect(phi_raw.max() <= 0.0, "face normal has a positive entry")
    expect(abs(float(np.sum(phi_raw * exit_point))) <= 1e-9 * scale,
           "exit point is not optimal for the face normal")
    expect(abs(float(np.sum(phi_raw * (mu - bary))) - t_star) <= 1e-9 * scale,
           "face normal is not normalized to t_star")


def check_shannon(mu, p, q, phi_canonical, max_cross=None) -> None:
    """Canonical surplus is centered ``log mu``; cross-difference in closed form."""
    lm = np.log(mu)
    tol = 1e-9 * (1.0 + float(np.abs(lm).max()))
    expect(np.abs(phi_canonical - centered(1.0 + lm, p, q)).max() <= tol,
           "canonical surplus is not the centered log matching")
    if max_cross is not None:
        gaps = lm[:, None, :] - lm[None, :, :]
        cross = float((gaps.max(axis=2) - gaps.min(axis=2)).max())
        expect(abs(max_cross - cross) <= tol, "max cross-difference disagrees")


def quantile_value(mu, p, q, x_values, y_values) -> float:
    def moments(values, cond):
        u = np.cumsum(cond, axis=1)
        return 0.5 * np.sum(values * np.diff(u**2, axis=1, prepend=0.0), axis=1)

    return float(p @ moments(y_values, mu / p[:, None]) + q @ moments(x_values, (mu / q).T))


def check_quantile(mu, p, q, x_values, y_values, phi_raw) -> None:
    """Gradient matches a central difference along a margin-preserving direction.

    The quantile entropy is quadratic in the cell masses while they stay
    positive, so the central difference is exact up to rounding.
    """
    d = np.random.default_rng(0).standard_normal(mu.shape)
    d = d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()
    h = 0.5 * mu.min() / np.abs(d).max()
    numeric = (quantile_value(mu + h * d, p, q, x_values, y_values)
               - quantile_value(mu - h * d, p, q, x_values, y_values)) / (2.0 * h)
    analytic = float(np.sum(phi_raw * d))
    expect(abs(numeric - analytic) <= 1e-6 * (1.0 + abs(analytic)),
           f"quantile gradient {analytic} vs central difference {numeric}")


def check_ipfp(phi, p, q, mu) -> None:
    """Margins within IPFP_TOL and ``log mu - phi`` separable where mu > 0."""
    tol = mi.IPFP_TOL + 1e-15
    expect(np.abs(mu.sum(axis=1) - p).max() <= tol
           and np.abs(mu.sum(axis=0) - q).max() <= tol, "IPFP output misses the margins")
    positive = mu > 1e-290  # below this, underflow has eaten the digits
    resid = np.log(np.where(positive, mu, 1.0)) - phi
    minors = resid[:-1, :-1] + resid[1:, 1:] - resid[:-1, 1:] - resid[1:, :-1]
    valid = positive[:-1, :-1] & positive[1:, 1:] & positive[:-1, 1:] & positive[1:, :-1]
    expect(np.abs(minors[valid]).max(initial=0.0) <= 1e-9 * (1.0 + float(np.abs(phi).max())),
           "log mu - phi is not separable")


# -- forward-solve --------------------------------------------------------

#: Seed of the fixed stream behind the large rungs and the finite-sample markets.
FIXED_SEED = 2102

#: Rungs with at least this many cells take their inputs from the fixed
#: stream, the same for every seed.  The largest ones dominate a run's
#: time, and the LP's pivot count swings by a fifth between random
#: instances of one size; drawing them from --seed would make the run
#: total follow the instances rather than the program.
LARGE_CELLS = 400

#: Most operations run on a grid of small shapes (shape ``None`` in a
#: ladder: every pair of these sides, the given number of times each).
#: Their latencies spread smoothly, and every seed runs the same shapes.
#: The machine alternates between a fast and a slow speed for seconds at a
#: time; the grid gives the short operations, which set the percentiles,
#: about a third of the run, so that they sample several of those spells.
SMALL_SIDES = {"forward-solve": (8, 10, 12, 14, 16, 18, 20),
               "observe-identify": (6, 9, 12, 15, 18, 21, 24)}

#: (shape, operations per shape); the named rungs feed per-rung metrics.
FORWARD_LADDER = ((None, 6), ((8, 8), 4), ((12, 16), 4), ((16, 12), 4), ((20, 20), 16),
                  ((30, 30), 1), ((40, 40), 1), ((60, 60), 1), ((80, 80), 1))


def _shapes(shape, sides) -> list[tuple[int, int]]:
    return [shape] if shape is not None else [(m, n) for m in sides for n in sides]


def _forward_op(phi, margins, clock: Clock) -> None:
    sol = clock.call(mi.maximize_surplus, phi, margins)
    check_lp(phi.phi, margins.p, margins.q, sol.mu_opt.mu, sol.dual_f, sol.dual_g, sol.value)


def _rung_streams(seed: int, workload: int):
    seeded, fixed = stream(seed, workload), stream(FIXED_SEED, workload)
    return lambda shape: fixed if shape and shape[0] * shape[1] >= LARGE_CELLS else seeded


def forward_ops(seed: int, workdir: Path) -> list[Op]:
    rng_for = _rung_streams(seed, 1)
    ops = []
    for shape, count in FORWARD_LADDER:
        rng = rng_for(shape)
        for m, n in _shapes(shape, SMALL_SIDES["forward-solve"]) * count:
            margins = mi.Margins(*random_margins(rng, m, n))
            phi = mi.Surplus(rng.standard_normal((m, n)))
            ops.append(Op(f"maximize_surplus {m}x{n}", {"shape": f"{m}x{n}"},
                          partial(_forward_op, phi, margins)))
    return ops


# -- observe-identify -----------------------------------------------------

#: (shape, kind, operations per shape); half of the inputs are interior.
OBSERVE_LADDER = (
    (None, "interior", 6), (None, "boundary", 2), (None, "vertex", 4),
    ((40, 40), "interior", 2), ((40, 40), "boundary", 2), ((40, 40), "vertex", 2),
    ((60, 60), "interior", 2), ((60, 60), "boundary", 2),
    ((80, 80), "interior", 2), ((80, 80), "vertex", 1),
)


def _observe_op(mu, quantile, clock: Clock) -> None:
    arr, p, q = mu.mu, mu.margins.p, mu.margins.q
    report = clock.call(mi.check_rationalizable, mu)
    check_verdict(arr, report.rationalizable,
                  None if report.witness is None else report.witness.phi,
                  report.t_star, None if report.mu_star is None else report.mu_star.mu)
    if report.rationalizable:
        expect(report.checks.maximizer and report.checks.nonseparable,
               "library re-check rejects its own witness")
    gauged = clock.attempt(mi.rationalize_gauge, mu)
    if gauged is not None:
        ray, identified = gauged
        check_gauge(arr, p, q, ray.t_star, identified.phi_raw.phi, ray.mu_star.mu)
    shannon = clock.attempt(mi.identify_entropy, mu, SHANNON)
    if shannon is not None:
        check_shannon(arr, p, q, shannon.phi_canonical.phi,
                      shannon.diagnostics["max_abs_cross_difference"])
    gauge = clock.attempt(mi.identify_entropy, mu, GAUGE)
    if gauge is not None:
        check_gauge(arr, p, q, gauge.diagnostics["t_star"], gauge.phi_raw.phi)
    ranked = clock.attempt(mi.identify_entropy, mu, quantile)
    if ranked is not None:
        values = quantile.values
        check_quantile(arr, p, q, values.x_values, values.y_values, ranked.phi_raw.phi)


def observe_ops(seed: int, workdir: Path) -> list[Op]:
    rng_for = _rung_streams(seed, 2)
    ops = []
    for shape, kind, count in OBSERVE_LADDER:
        rng = rng_for(shape)
        for m, n in _shapes(shape, SMALL_SIDES["observe-identify"]) * count:
            margins = mi.Margins(*random_margins(rng, m, n))
            mu = mi.Matching(MATCHING_KINDS[kind](rng, margins.p, margins.q), margins)
            quantile = mi.EntropyModel.quantile(mi.TypeValues(*type_values(rng, m, n)))
            ops.append(Op(f"observe {kind} {m}x{n}", {"shape": f"{m}x{n}", "kind": kind},
                          partial(_observe_op, mu, quantile)))
    return ops


# -- finite-sample ----------------------------------------------------------

FINITE_SHAPES = ((10, 10), (20, 20), (30, 30))
FINITE_SCALES = (1, 10, 50, 100, 400)
#: Six draws per (market, scale): the pass then has 90 operations in 15
#: clusters of six, and both its median (rank 44.5) and its p88.9 (rank
#: 79.1) fall inside a cluster.  With five draws, the p86.7 fell on the gap
#: between the 10x10 and the 20x20 markets at scale 400.
HOUSEHOLDS = (10**3, 3 * 10**3, 10**4, 10**5, 3 * 10**5, 10**6)


def _finite_op(phi, margins, households, draw_seed, clock: Clock) -> None:
    p, q = margins.p, margins.q
    mu_true, mu_emp = clock.call(mi.simulate_market, phi, margins, households, draw_seed)
    check_ipfp(phi.phi, p, q, mu_true.mu)
    counts = mu_emp.mu * households
    expect(np.abs(counts - np.round(counts)).max() <= 1e-6 and abs(counts.sum() - households)
           <= 1e-6, "empirical matching is not a sample of households")
    truth = centered(phi.phi, p, q)
    exact = clock.attempt(mi.identify_entropy, mu_true, SHANNON)
    if exact is not None:
        expect(np.abs(exact.phi_canonical.phi - truth).max()
               <= 1e-9 * (1.0 + float(np.abs(phi.phi).max())),
               "shannon identification does not round-trip the IPFP output")
    estimate = clock.attempt(mi.identify_entropy, mu_emp, SHANNON)
    if estimate is not None:
        check_shannon(mu_emp.mu, mu_emp.margins.p, mu_emp.margins.q,
                      estimate.phi_canonical.phi)
        error = np.abs(centered(estimate.phi_raw.phi, p, q) - truth).max()
        expect(bool(np.isfinite(error)), "canonical error is not finite")


def finite_markets() -> list[tuple[tuple[int, int], object, dict]]:
    """The fixed markets with one surplus per scale, shared by every operation."""
    rng = np.random.default_rng(FIXED_SEED)
    markets = []
    for m, n in FINITE_SHAPES:
        margins = mi.Margins(*random_margins(rng, m, n))
        base = rng.standard_normal((m, n))
        markets.append(((m, n), margins, {k: mi.Surplus(k * base) for k in FINITE_SCALES}))
    return markets


def finite_ops(seed: int, workdir: Path) -> list[Op]:
    """Every (market, scale, households) cell once; the seed drives the draws.

    The markets are the same for every seed, so each ``(phi, margins)``
    repeats once per household count.
    """
    rng = stream(seed, 3)
    ops = []
    for (m, n), margins, surpluses in finite_markets():
        for scale, phi in surpluses.items():
            for households in HOUSEHOLDS:
                ops.append(Op(f"simulate {m}x{n} scale {scale} n={households}",
                              {"shape": f"{m}x{n}", "scale": scale},
                              partial(_finite_op, phi, margins, households,
                                      int(rng.integers(2**31)))))
    return ops


# -- cli --------------------------------------------------------------------


def _cli_op(argv, expected_exit, check, workdir, clock: Clock) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans_file = workdir / "spans.json"
    if clock.tracer is None:
        cmd = [sys.executable, "-m", "matchident.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *argv]
    spans_file.unlink(missing_ok=True)
    proc = clock.call(subprocess.run, cmd, capture_output=True, text=True,
                      timeout=CLI_TIMEOUT_S, env=env, cwd=workdir)
    if clock.tracer is not None and spans_file.exists():
        traced = json.loads(spans_file.read_text())
        clock.tracer.merge(traced["spans"])
        clock.tracer.cli_import_s.append(traced["import_s"])
    if proc.returncode == 3:
        raise mi.ConvergenceError(f"exit 3: {proc.stdout.strip()[:200]}")
    expect(proc.returncode == expected_exit,
           f"exit {proc.returncode}, expected {expected_exit}: {proc.stderr.strip()[-300:]}")
    if expected_exit == 1:
        clock.domain += 1
    check(proc.stdout)


def _check_cli_solve(market, out: str) -> None:
    report = json.loads(out)
    phi, p, q = (np.asarray(market[k], dtype=float) for k in ("phi", "p", "q"))
    check_lp(phi, p, q, np.asarray(report["mu_opt"]), np.asarray(report["dual_f"]),
             np.asarray(report["dual_g"]), report["value"])
    expect(report["duality_gap"] <= 1e-9 * max(1.0, float(np.abs(phi).max())),
           "reported duality gap")
    expect(report["discriminating"] == bool(np.abs(centered(phi, p, q)).max() > 1e-10),
           "discriminating disagrees with separability")


def _check_cli_check(market, out: str) -> None:
    report = json.loads(out)
    mu = np.asarray(market["mu"], dtype=float)
    witness = None if report["witness"] is None else np.asarray(report["witness"])
    mu_star = None if report["mu_star"] is None else np.asarray(report["mu_star"])
    check_verdict(mu, report["rationalizable"], witness, report["t_star"], mu_star)
    if report["rationalizable"]:
        expect(all(report["checks"].values()), "library re-check rejects its own witness")


def _check_cli_identify(market, entropy, out: str) -> None:
    report = json.loads(out)
    mu, p, q = (np.asarray(market[k], dtype=float) for k in ("mu", "p", "q"))
    phi_raw = np.asarray(report["phi_raw"])
    if entropy == "shannon":
        check_shannon(mu, p, q, np.asarray(report["phi_canonical"]),
                      report["diagnostics"]["max_abs_cross_difference"])
    elif entropy == "gauge":
        check_gauge(mu, p, q, report["t_star"], phi_raw, np.asarray(report["mu_star"]))
    else:
        check_quantile(mu, p, q, np.asarray(market["x_values"]),
                       np.asarray(market["y_values"]), phi_raw)


def _check_cli_simulate(market, workdir, out: str) -> None:
    summary = json.loads(out)
    true = json.loads((workdir / summary["files"]["mu_true"]).read_text())
    phi, p, q = (np.asarray(market[k], dtype=float) for k in ("phi", "p", "q"))
    check_ipfp(phi, p, q, np.asarray(true["mu"]))
    expect(bool(np.isfinite(summary["round_trip"]["max_abs_canonical_error"])),
           "round-trip error is not finite")


def _check_cli_geometry(market, out: str) -> None:
    blocks: dict[str, list[list[float]]] = {}
    for line in out.splitlines():
        if line.startswith("# "):
            rows = blocks.setdefault(line[2:], [])
        else:
            rows.append([float(token) for token in line.split()])
    expect([len(blocks.get(k, [])) for k in ("segment", "barycenter", "mu_hat", "mu_star", "ray")]
           == [2, 1, 1, 1, 33], "geometry blocks are incomplete")
    p0, q0 = market["p"][0], market["q"][0]
    expect(abs(blocks["barycenter"][0][0] - p0 * q0) <= 1e-12, "barycenter is not p q^T")
    a = blocks["mu_star"][0][0]
    exit_point = [a, p0 - a, q0 - a, 1.0 - p0 - q0 + a]
    expect(min(exit_point) <= 1e-12, "mu_star has no zero")


#: Rounds of the ten subcommand runs per pass, each round on its own files.
CLI_ROUNDS = 9


def cli_ops(seed: int, workdir: Path) -> list[Op]:
    """Every subcommand on small market files written to ``workdir``."""
    rng = stream(seed, 4)

    def market(name, m, n, **fields):
        p, q = random_margins(rng, m, n)
        doc = {"p": p.tolist(), "q": q.tolist()}
        for key, make in fields.items():
            value = make(rng, p, q)
            doc.update(value if isinstance(value, dict) else {key: value.tolist()})
        (workdir / name).write_text(json.dumps(doc))
        return name, doc

    def phi(rng, p, q):
        return rng.standard_normal((p.size, q.size))

    def values(rng, p, q):
        xv, yv = type_values(rng, p.size, q.size)
        return {"x_values": xv.tolist(), "y_values": yv.tolist()}

    def op(tag, argv, expected_exit, check):
        return Op(f"matchident {' '.join(argv)}", {"cli": tag},
                  partial(_cli_op, argv, expected_exit, check, workdir))

    ops = []
    for r in range(CLI_ROUNDS):
        # Two vertex-enumeration solves per round make them a fifth of the
        # runs and the slowest ones, so op_p90_ms lands inside their cluster
        # instead of on the gap below it.
        le16s = [market(f"solve_le16_{r}_{k}.json", 4, 4, phi=phi) for k in range(2)]
        gt16, gt16_doc = market(f"solve_gt16_{r}.json", 5, 5, phi=phi)
        bnd, bnd_doc = market(f"check_boundary_{r}.json", 4, 4, mu=boundary_matching)
        inner, inner_doc = market(f"check_interior_{r}.json", 4, 4, mu=interior_matching)
        ident, ident_doc = market(f"identify_{r}.json", 4, 4, mu=interior_matching,
                                  values=values)
        sim, sim_doc = market(f"simulate_{r}.json", 3, 3, phi=phi)
        geo, geo_doc = market(f"geometry_{r}.json", 2, 2, mu=interior_matching)
        ops += [
            *(op("solve.le16cells", ["solve", "--input", le16], 0,
                 partial(_check_cli_solve, le16_doc))
              for le16, le16_doc in le16s),
            op("solve.gt16cells", ["solve", "--input", gt16], 0,
               partial(_check_cli_solve, gt16_doc)),
            op("check", ["check", "--input", bnd], 0, partial(_check_cli_check, bnd_doc)),
            op("check", ["check", "--input", inner], 1, partial(_check_cli_check, inner_doc)),
            *(op("identify", ["identify", "--input", ident, "--entropy", kind], 0,
                 partial(_check_cli_identify, ident_doc, kind))
              for kind in ("shannon", "gauge", "quantile")),
            op("simulate", ["simulate", "--input", sim, "--households", "100000",
                            "--seed", str(r), "--round-trip", "--out", f"simulated_{r}"], 0,
               partial(_check_cli_simulate, sim_doc, workdir)),
            op("geometry", ["geometry", "--input", geo], 0,
               partial(_check_cli_geometry, geo_doc)),
        ]
    return ops


#: Workload name -> ``build(seed, workdir)``; BENCHMARK.json says why each is chosen.
WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "forward-solve": forward_ops,
    "observe-identify": observe_ops,
    "finite-sample": finite_ops,
    "cli": cli_ops,
}
