"""The size ladder of ``bench/ladder.py``, on its first rung only, and the
exact LP's memory peak on one of its markets."""

import dataclasses
import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from matchident import gauge, lp, maximize_surplus

ROOT = Path(__file__).resolve().parents[1]


def load_ladder():
    spec = importlib.util.spec_from_file_location("bench_ladder", ROOT / "bench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_a_zero_budget_runs_one_rung_per_layer(tmp_path, monkeypatch):
    ladder = load_ladder()
    monkeypatch.setattr(ladder, "BUDGET_S", 0.0)
    out = tmp_path / "bench.json"
    assert ladder.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {
        "python", "numpy", "nproc", "kernel_s", "budget_s", "runs", "market", "layers", "wall_s"
    }
    assert set(report["kernel_s"]) == {"start", "end"} and report["runs"] == 5
    assert report["budget_s"] == 0.0
    lp_keys = {"pivots", "degenerate_pivots"}
    entropic_keys = {"sweeps", "newton_steps"}
    counters = {
        "maximize_surplus": lp_keys,
        "surplus_fill": lp_keys,
        "solve_regularized_100": entropic_keys,
        "solve_regularized_1000": entropic_keys,
        "gauge": {"t_star", "binding_cells"},
    }
    assert set(report["layers"]) == set(ladder.LAYERS) == set(counters)
    every_rung = {"side", "kernel_s", "times_s", "median_s", "peak_per_phi_byte"}
    for name, rows in report["layers"].items():
        (row,) = rows
        assert set(row) == every_rung | counters[name]
        # past the budget, a rung's first call is its last
        assert row["side"] == ladder.SIDES[0] and len(row["times_s"]) == 1
        assert row["kernel_s"] > 0.0 and row["peak_per_phi_byte"] > 0.0
    assert report["layers"]["gauge"][0]["t_star"] == 2.0


def test_an_answer_off_its_certificate_is_a_failure():
    ladder = load_ladder()
    phi, margins = ladder.market(5)
    solution = maximize_surplus(phi, margins)
    assert ladder.lp_certificate(phi, margins, solution)[1] is None
    shifted = dataclasses.replace(solution, dual_f=solution.dual_f - 1.0)
    assert ladder.lp_certificate(phi, margins, shifted)[1].startswith("dual infeasible")
    raised = dataclasses.replace(solution, value=solution.value + 1.0)
    assert ladder.lp_certificate(phi, margins, raised)[1].startswith("duality gap")


def test_an_exit_point_off_its_invariants_is_a_failure():
    ladder = load_ladder()
    (mu_hat,) = ladder.interior(5)
    result = gauge(mu_hat)
    assert ladder.gauge_certificate(mu_hat, result)[1] is None

    def moved(star):
        return dataclasses.replace(result, mu_star=SimpleNamespace(mu=star))

    (x,), (y,) = np.nonzero(result.binding)
    star = result.mu_star.mu.copy()
    star[x, y] += 1e-9
    assert ladder.gauge_certificate(mu_hat, moved(star))[1].startswith("exit point off")
    # the same mass taken from the line sums' other cells keeps them
    star[x, y - 1] -= 1e-9
    star[x - 1, y] -= 1e-9
    star[x - 1, y - 1] += 1e-9
    assert ladder.gauge_certificate(mu_hat, moved(star))[1] == "a binding cell is not empty"
    doubled = dataclasses.replace(result, normal=2.0 * result.normal)
    assert ladder.gauge_certificate(mu_hat, doubled)[1].startswith("normal pairs")


def test_the_exact_lp_peaks_below_six_times_phi():
    """Both LP starts on the ladder's 160x160 market peak, under
    ``tracemalloc``, at no more than 6 times ``phi``'s bytes: the flows
    live on the basis tree's nodes, the start reads its sorted cells a
    slice at a time, so no solve holds m·n Python objects, and the present
    block scaled in place is the one cost buffer (a full scaled copy of
    ``phi`` and a separate present block peaked at about 8 times)."""
    phi, margins = load_ladder().market(160)
    for solve in (maximize_surplus, lambda phi, m: lp._simplex(phi, m, phi.phi)):
        tracemalloc.start()
        try:
            solve(phi, margins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * phi.phi.nbytes
