"""A size ladder for the exact LP and the entropic solve.

Times each layer on square markets of growing side and writes one JSON
report.  The market of side ``n`` at surplus scale ``s`` is the one
``numpy.random.default_rng(7)`` draws as margins uniform(0.5, 1.5), each
side normalized, then a N(0, 1) surplus, times ``s``.  The layers:

* ``maximize_surplus``: the exact LP from the northwest corner;
* ``surplus_fill``: the exact LP from the start that fills by surplus,
  the one the entropic warm start takes (``lp._simplex(phi, margins,
  phi.phi)``);
* ``solve_regularized_100`` and ``solve_regularized_1000``: the shannon
  solve at surplus scales 100 and 1,000.

Each layer climbs the sides ``SIDES`` and stops after the first rung whose
median call time exceeds ``BUDGET_S`` seconds.  A rung records the median
of ``RUNS`` calls, the library's own counters (pivots, or sweeps and
Newton steps), and for the LP layers the ``tracemalloc`` peak per byte of
``phi``, taken in one more call of its own.  Every answer is checked
against its certificate: the LP's dual feasibility and duality gap,
relative to ``max|phi|``, and the entropic solve's margins within
``IPFP_TOL``.  An answer that fails, or a call that raises, is recorded
as the rung's failure, not a time, and ends its layer.

The report also holds the Python and numpy versions, the CPUs this
process may run on, and the time of a fixed numpy kernel (a sort of 10^6
floats, best of 5) at the start and at the end, as a reading of the
machine's speed: it is recorded, not used to rescale.  The repository
keeps one report per change that measures, as ``bench/BENCH_<n>.json``::

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
from pathlib import Path

import numpy as np

from matchident import (
    IPFP_TOL,
    OPTIMALITY_TOL,
    SEPARABILITY_TOL,
    EntropyModel,
    Margins,
    Surplus,
    lp,
    maximize_surplus,
    solve_regularized,
)

SIDES = (2, 5, 10, 20, 40, 80, 200, 400, 500, 700, 1000, 2000)

#: Timed calls per rung.
RUNS = 3

#: A layer stops after the first rung whose median call exceeds this, in s.
BUDGET_S = 1.0


def market(side: int, scale: float = 1.0) -> tuple[Surplus, Margins]:
    rng = np.random.default_rng(7)
    p, q = rng.uniform(0.5, 1.5, side), rng.uniform(0.5, 1.5, side)
    phi = rng.normal(0.0, 1.0, (side, side)) * scale
    return Surplus(phi), Margins(p / p.sum(), q / q.sum())


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


def _shannon(phi: Surplus, margins: Margins):
    return solve_regularized(EntropyModel.shannon(), phi, margins)


#: name -> (surplus scale, solve, certificate, whether to take the memory peak)
LAYERS = {
    "maximize_surplus": (1.0, maximize_surplus, lp_certificate, True),
    "surplus_fill": (1.0, lambda phi, m: lp._simplex(phi, m, phi.phi), lp_certificate, True),
    "solve_regularized_100": (100.0, _shannon, entropic_certificate, False),
    "solve_regularized_1000": (1000.0, _shannon, entropic_certificate, False),
}


def rung(side: int, scale: float, solve, certificate, peak: bool) -> dict:
    phi, margins = market(side, scale)
    row: dict = {"side": side, "times_s": []}
    for _ in range(RUNS):
        start = time.perf_counter()
        try:
            answer = solve(phi, margins)
        except Exception as exc:  # recorded as the rung's failure
            failure = f"{type(exc).__name__}: {exc}"
        else:
            row["times_s"].append(time.perf_counter() - start)
            counters, failure = certificate(phi, margins, answer)
        if failure is not None:  # a rung without a median ends its layer
            row["failure"] = failure
            return row
    row["median_s"] = statistics.median(row["times_s"])
    row.update(counters)
    if peak:
        tracemalloc.start()
        try:
            solve(phi, margins)
            row["peak_per_phi_byte"] = tracemalloc.get_traced_memory()[1] / phi.phi.nbytes
        finally:
            tracemalloc.stop()
    return row


def kernel_s() -> float:
    """Best of 5 sorts of the same 10^6 floats: the machine's speed now."""
    values = np.random.default_rng(0).random(1_000_000)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.sort(values)
        best = min(best, time.perf_counter() - start)
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
    for name, (scale, solve, certificate, peak) in LAYERS.items():
        rows = report["layers"][name] = []
        for side in SIDES:
            rows.append(rung(side, scale, solve, certificate, peak))
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
