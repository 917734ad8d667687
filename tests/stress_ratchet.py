"""Ratchet on the entropic stress recipe's markets 4,000 to 11,999.

Solves each market of ``conftest.entropic_stress_market`` in the range with
``solve_regularized`` and checks the result with ``assert_ipfp_certificate``.
A market fails when the solve raises or the certificate does not hold.  The
script exits 1 if any market outside ``KNOWN_FAILURES`` fails, so a change
can mend those markets but break no other.  It prints the failures, the
known ones that now pass, and the total sweeps and Newton steps.  It also
exits 1 when the Newton steps of the markets that pass exceed
``NEWTON_STEP_CEILING``, so a change that loses the Newton phase's start
from the LP vertex fails too.

Run it from the repository root (about 20 s)::

    PYTHONPATH=src python tests/stress_ratchet.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import assert_ipfp_certificate, entropic_stress_market  # noqa: E402

from matchident import EntropyModel, solve_regularized  # noqa: E402

FIRST, LAST = 4_000, 11_999

#: Markets of the range that fail today: market 11777, uniform margins,
#: whose solve ends at the iteration cap.  The light-type markets that
#: failed while the exact LP's start dropped any remainder below an
#: absolute cutoff all pass.
KNOWN_FAILURES = frozenset({11777})

#: The Newton steps of the passing markets are 56,176 from the LP vertex
#: start and were 71,426 from the LP's duals alone.
NEWTON_STEP_CEILING = 60_000


def solve(i: int) -> tuple[str | None, int, int]:
    """The failure of market ``i``, or None, and its sweeps and Newton steps."""
    margins, phi = entropic_stress_market(i)
    try:
        _, report = solve_regularized(EntropyModel.shannon(), phi, margins)
        assert_ipfp_certificate(phi.phi, margins, report.mu.mu)
    except Exception as exc:  # any raise, a failed certificate included
        return f"{type(exc).__name__}: {exc}".splitlines()[0], 0, 0
    return None, report.sweeps, report.newton_steps


def main() -> int:
    start = time.perf_counter()
    failures: dict[int, str] = {}
    sweeps = steps = 0
    for i in range(FIRST, LAST + 1):
        failure, market_sweeps, market_steps = solve(i)
        if failure is not None:
            failures[i] = failure
        sweeps += market_sweeps
        steps += market_steps
    for i, failure in failures.items():
        print(f"market {i}: {failure}{'' if i in KNOWN_FAILURES else '  (new)'}")
    mended = sorted(KNOWN_FAILURES - failures.keys())
    if mended:
        print(f"known failures that now pass (drop them from KNOWN_FAILURES): {mended}")
    new = sorted(failures.keys() - KNOWN_FAILURES)
    print(
        f"markets {FIRST}-{LAST}: {len(failures)} failed, {len(new)} of them new;"
        f" {sweeps} sweeps and {steps} Newton steps in the rest;"
        f" {time.perf_counter() - start:.1f} s"
    )
    if steps > NEWTON_STEP_CEILING:
        print(f"{steps} Newton steps exceed the ceiling of {NEWTON_STEP_CEILING}")
    return 1 if new or steps > NEWTON_STEP_CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
