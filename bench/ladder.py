"""A size ladder for the exact LP, the entropic solve and the gauge.

Times each layer on square markets of growing side and writes one JSON
report.  The market of side ``n`` at surplus scale ``s`` is the one
``numpy.random.default_rng(7)`` draws as margins uniform(0.5, 1.5), each
side normalized, then a N(0, 1) surplus, times ``s``.  The layers:

* ``maximize_surplus``: the exact LP from the northwest corner;
* ``surplus_fill``: the exact LP from the start that fills by surplus,
  the one the entropic warm start takes (``lp._simplex(phi, margins,
  phi.phi)``);
* ``solve_regularized_100`` and ``solve_regularized_1000``: the shannon
  solve at surplus scales 100 and 1,000;
* ``gauge``: ``polytope.gauge`` on the market's interior matching ``p q^T
  (1 + s r)``, where ``r`` is the surplus centred under the margins'
  weights, so that the margins hold, and ``s`` puts the least cell at
  half its barycenter mass (so ``t* = 2``).

Each layer climbs the sides ``SIDES`` and stops after the first rung whose
median call time exceeds ``BUDGET_S`` seconds.  A rung records the median
of ``RUNS`` calls (one, if the first exceeds ``BUDGET_S``), timed with
``time.thread_time``: the CPU time of this thread, which the other
processes of a shared host do not add to.  BLAS runs on this thread alone
unless the caller set its thread count.  A rung also records the
library's own counters (pivots, sweeps and Newton steps, or the stretch
and the binding cells) and the ``tracemalloc`` peak per byte of the
side's n x n float matrix (``8 * side * side``, the bytes of ``phi`` or
of the observation), taken in one more call of its own.  Every answer is
checked against its certificate: the LP's dual feasibility and duality
gap, relative to ``max|phi|``; the entropic solve's margins within
``IPFP_TOL``; and the gauge's exit point, which keeps the observation's
own line sums within ``4 * eps``, leaves its binding cells empty
(``core``'s rule) and whose normal pairs with the direction to one within
rounding.  An answer that fails, or a call that raises, is recorded as
the rung's failure, not a time, and ends its layer.

The report also holds the Python and numpy versions, the CPUs this
process may run on, and the time of a fixed numpy kernel (a sort of 10^6
floats, best of 5) at the start, at the end and beside each rung, as a
reading of the machine's speed: it is recorded, not used to rescale.  The
repository keeps one report per change that measures, as
``bench/BENCH_<n>.json``::

    PYTHONPATH=src python bench/ladder.py --out bench/BENCH_<n>.json

Imports only ``matchident``, numpy and the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc
from functools import partial
from pathlib import Path

if __name__ == "__main__":  # one thread does all the work, so its CPU time is the call's
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread count)

from matchident import (  # noqa: E402
    BOUNDARY_TOL,
    IPFP_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    EntropyModel,
    Margins,
    Matching,
    Surplus,
    gauge,
    lp,
    maximize_surplus,
    solve_regularized,
)

SIDES = (2, 5, 10, 20, 40, 80, 200, 400, 500, 700, 1000, 2000)

#: Timed calls per rung whose first call is within the budget.
RUNS = 5

#: A layer stops after the first rung whose median call exceeds this, in s.
BUDGET_S = 1.0


def market(side: int, scale: float = 1.0) -> tuple[Surplus, Margins]:
    rng = np.random.default_rng(7)
    p, q = rng.uniform(0.5, 1.5, side), rng.uniform(0.5, 1.5, side)
    phi = rng.normal(0.0, 1.0, (side, side)) * scale
    return Surplus(phi), Margins(p / p.sum(), q / q.sum())


def interior(side: int) -> tuple[Matching]:
    """The market's interior matching ``p q^T (1 + s r)``, ``r`` its surplus
    centred under the margins' weights, its least cell at half of ``p q^T``."""
    phi, margins = market(side)
    p, q, a = margins.p, margins.q, phi.phi
    r = a - (a @ q)[:, None] - (p @ a)[None, :] + p @ a @ q
    return (Matching(np.outer(p, q) * (1.0 - 0.5 / r.min() * r), margins),)


def lp_certificate(phi: Surplus, margins: Margins, solution) -> tuple[dict, str | None]:
    """The solve's counters, and what fails its dual certificate, if anything."""
    scale = float(np.abs(phi.phi).max())
    slack = solution.dual_f[:, None] + solution.dual_g[None, :] - phi.phi
    gap = abs(solution.value - float(margins.p @ solution.dual_f + margins.q @ solution.dual_g))
    counters = {"pivots": solution.pivots, "degenerate_pivots": solution.degenerate_pivots}
    if slack.min() < -SEPARABILITY_TOL * scale:
        return counters, f"dual infeasible by {-slack.min():.3g}"
    if gap > OPTIMALITY_TOL * scale:
        return counters, f"duality gap {gap:.3g}"
    return counters, None


def entropic_certificate(phi: Surplus, margins: Margins, answer) -> tuple[dict, str | None]:
    """The solve's counters, and which margin it misses, if any."""
    _, report = answer
    mu = report.mu.mu
    counters = {"sweeps": report.sweeps, "newton_steps": report.newton_steps}
    error = max(
        np.abs(mu.sum(axis=1) - margins.p).max(), np.abs(mu.sum(axis=0) - margins.q).max()
    )
    if error > IPFP_TOL:
        return counters, f"margin error {error:.3g}"
    return counters, None


def gauge_certificate(mu_hat: Matching, answer) -> tuple[dict, str | None]:
    """The stretch and the binding cells, and which exit-point invariant
    the answer breaks, if any."""
    binding, eps = answer.binding, 4.0 * np.finfo(float).eps
    counters = {"t_star": answer.t_star, "binding_cells": int(binding.sum())}
    star, mu, margins = answer.mu_star.mu, mu_hat.mu, mu_hat.margins
    off = max(
        np.abs(star.sum(axis=1) - mu.sum(axis=1)).max(),
        np.abs(star.sum(axis=0) - mu.sum(axis=0)).max(),
    )
    if off > eps:
        return counters, f"exit point off the line sums by {off:.3g}"
    if np.any(star[binding] > BOUNDARY_TOL * np.outer(margins.p, margins.q)[binding]):
        return counters, "a binding cell is not empty"
    pairing = float((answer.normal * answer.direction).sum())
    if abs(pairing - 1.0) > eps * counters["binding_cells"]:
        return counters, f"normal pairs with the direction at {pairing!r}"
    return counters, None


def _shannon(phi: Surplus, margins: Margins):
    return solve_regularized(EntropyModel.shannon(), phi, margins)


#: name -> (the inputs of a side, solve, certificate)
LAYERS = {
    "maximize_surplus": (market, maximize_surplus, lp_certificate),
    "surplus_fill": (market, lambda phi, m: lp._simplex(phi, m, phi.phi), lp_certificate),
    "solve_regularized_100": (partial(market, scale=100.0), _shannon, entropic_certificate),
    "solve_regularized_1000": (partial(market, scale=1000.0), _shannon, entropic_certificate),
    "gauge": (interior, gauge, gauge_certificate),
}


def rung(side: int, inputs, solve, certificate) -> dict:
    args = inputs(side)
    row: dict = {"side": side, "kernel_s": kernel_s(), "times_s": []}
    for _ in range(RUNS):
        start = time.thread_time()
        try:
            answer = solve(*args)
        except Exception as exc:  # recorded as the rung's failure
            failure = f"{type(exc).__name__}: {exc}"
        else:
            row["times_s"].append(time.thread_time() - start)
            counters, failure = certificate(*args, answer)
        if failure is not None:  # a rung without a median ends its layer
            row["failure"] = failure
            return row
        if row["times_s"][0] > BUDGET_S:  # the layer's last rung
            break
    row["median_s"] = statistics.median(row["times_s"])
    row.update(counters)
    tracemalloc.start()
    try:
        solve(*args)
        row["peak_per_phi_byte"] = tracemalloc.get_traced_memory()[1] / (8 * side * side)
    finally:
        tracemalloc.stop()
    return row


def kernel_s() -> float:
    """Best of 5 sorts of the same 10^6 floats, in this thread's CPU time:
    the machine's speed now."""
    values = np.random.default_rng(0).random(1_000_000)
    best = float("inf")
    for _ in range(5):
        start = time.thread_time()
        np.sort(values)
        best = min(best, time.thread_time() - start)
    return best


def ladder() -> dict:
    started = time.perf_counter()
    report: dict = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "kernel_s": {"start": kernel_s()},
        "budget_s": BUDGET_S,
        "runs": RUNS,
        "market": "default_rng(7): margins uniform(0.5, 1.5), normalized; surplus N(0, 1) x scale",
        "layers": {},
    }
    for name, layer in LAYERS.items():
        rows = report["layers"][name] = []
        for side in SIDES:
            rows.append(rung(side, *layer))
            if "median_s" not in rows[-1] or rows[-1]["median_s"] > BUDGET_S:
                break
    report["kernel_s"]["end"] = kernel_s()
    report["wall_s"] = time.perf_counter() - started
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON report")
    args = parser.parse_args(argv)
    report = ladder()
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
