"""The size ladder of ``bench/ladder.py``, on its first rung only."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

from matchident import maximize_surplus

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
    assert set(report["kernel_s"]) == {"start", "end"} and report["runs"] == 3
    assert report["budget_s"] == 0.0
    lp_keys = {"pivots", "degenerate_pivots", "peak_per_phi_byte"}
    assert set(report["layers"]) == set(ladder.LAYERS)
    for name, rows in report["layers"].items():
        (row,) = rows
        counters = lp_keys if ladder.LAYERS[name][3] else {"sweeps", "newton_steps"}
        assert set(row) == {"side", "times_s", "median_s"} | counters
        assert row["side"] == ladder.SIDES[0] and len(row["times_s"]) == 3


def test_an_answer_off_its_certificate_is_a_failure():
    ladder = load_ladder()
    phi, margins = ladder.market(5)
    solution = maximize_surplus(phi, margins)
    assert ladder.lp_certificate(phi, margins, solution)[1] is None
    shifted = dataclasses.replace(solution, dual_f=solution.dual_f - 1.0)
    assert ladder.lp_certificate(phi, margins, shifted)[1].startswith("dual infeasible")
    raised = dataclasses.replace(solution, value=solution.value + 1.0)
    assert ladder.lp_certificate(phi, margins, raised)[1].startswith("duality gap")
