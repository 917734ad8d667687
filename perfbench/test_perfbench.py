"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

import dataclasses
import json
import signal
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import matchident as mi  # noqa: E402
import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402


def _arrays(obj):
    """Every number reachable from an operation's inputs, in a fixed order."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (int, float)):
        yield np.asarray(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            yield from _arrays(obj[key])
    elif isinstance(obj, partial):
        yield from _arrays(obj.args)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))


def _inputs(name, seed, workdir):
    ops = workloads.WORKLOADS[name](seed, workdir)
    files = {path.name: path.read_text() for path in sorted(workdir.iterdir())}
    return [op.label for op in ops], [a for op in ops for a in _arrays(op.fn)], files


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_fixed_seed(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    labels_a, arrays_a, files_a = _inputs(name, 7, tmp_path / "a")
    labels_b, arrays_b, files_b = _inputs(name, 7, tmp_path / "b")
    assert labels_a == labels_b
    assert files_a == files_b
    assert len(arrays_a) == len(arrays_b)
    assert all(np.array_equal(a, b) for a, b in zip(arrays_a, arrays_b))
    _, arrays_c, files_c = _inputs(name, 8, tmp_path / "c")
    assert files_c != files_a or any(
        not np.array_equal(a, c) for a, c in zip(arrays_a, arrays_c))


def _raising(exc):
    def fn(clock):
        clock.call(lambda: None)
        raise exc

    return workloads.Op("injected", {}, fn)


def test_injected_convergence_error_is_a_failure_not_a_wrong_answer():
    out = workloads.run_op(_raising(mi.ConvergenceError("cap", iterations=10)))
    assert out.status == workloads.FAILED
    assert not out.wrong


def test_injected_non_interior_error_is_a_domain_answer():
    out = workloads.run_op(_raising(mi.NonInteriorError("boundary", cell=(0, 0))))
    assert out.status == workloads.DOMAIN

    def attempted(clock):
        def boundary():
            raise mi.NonInteriorError("boundary")

        assert clock.attempt(boundary) is None

    assert workloads.run_op(workloads.Op("attempt", {}, attempted)).status == workloads.DOMAIN


@pytest.mark.parametrize("exc", [workloads.CheckFailed("bad output"), ValueError("bug")])
def test_failed_checks_and_unexpected_exceptions_are_wrong(exc):
    out = workloads.run_op(_raising(exc))
    assert out.status == workloads.FAILED
    assert out.wrong


def test_classify():
    assert workloads.classify(None) == workloads.OK
    assert workloads.classify(mi.KinkPointError("kink")) == workloads.DOMAIN
    assert workloads.classify(mi.DegenerateRayError("bary")) == workloads.DOMAIN
    assert workloads.classify(mi.ConvergenceError("cap")) == workloads.FAILED


def test_speed_probe_rescales_by_the_mean_speed_inside_an_interval():
    probe = SpeedProbe()
    probe.times = [0.0, 0.01, 0.02, 0.03, 1.0, 1.01, 1.02, 1.03]
    probe.kernel_s = [speed.REFERENCE_S] * 4 + [2 * speed.REFERENCE_S] * 4
    assert probe.scale(0.0, 0.03) == pytest.approx(1.0)
    assert probe.scale(1.0, 1.03) == pytest.approx(0.5)
    # Too short to hold a sample: the nearest ones, two on each side.
    assert probe.scale(0.5, 0.5) == pytest.approx(0.75)


def test_clock_leaves_out_time_the_probe_spends_inside_a_call():
    probe = SpeedProbe()
    clock = workloads.Clock(probe=probe)
    clock.call(probe._sample, None, None)
    assert 0.0 <= clock.busy < probe.kernel_s[0]


def test_speed_probe_samples_while_started_and_then_restores_the_signal():
    probe = SpeedProbe()
    probe.start()
    try:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.kernel_s) >= 5
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_lp_certificate_accepts_the_solver_and_rejects_a_bad_dual():
    rng = np.random.default_rng(0)
    p, q = workloads.random_margins(rng, 5, 6)
    phi = rng.standard_normal((5, 6))
    sol = mi.maximize_surplus(mi.Surplus(phi), mi.Margins(p, q))
    args = (phi, p, q, sol.mu_opt.mu, sol.dual_f, sol.dual_g, sol.value)
    workloads.check_lp(*args)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_lp(phi, p, q, sol.mu_opt.mu, sol.dual_f - 0.1, sol.dual_g, sol.value)


@pytest.mark.parametrize("kind", list(workloads.MATCHING_KINDS))
def test_generated_matchings_are_feasible_and_of_their_kind(kind):
    rng = np.random.default_rng(1)
    p, q = workloads.random_margins(rng, 7, 9)
    mu = mi.Matching(workloads.MATCHING_KINDS[kind](rng, p, q), mi.Margins(p, q))
    assert (mu.mu.min() > 0) == (kind == "interior")
    if kind == "vertex":
        assert np.count_nonzero(mu.mu) == 7 + 9 - 1


def test_tracer_records_nested_spans_and_restores_the_library():
    original = mi.identify.is_maximizer
    rng = np.random.default_rng(2)
    p, q = workloads.random_margins(rng, 4, 4)
    mu = mi.Matching(workloads.vertex_matching(rng, p, q), mi.Margins(p, q))
    tracer = Tracer()
    tracer.install()
    try:
        mi.check_rationalizable(mu)
    finally:
        tracer.uninstall()
    assert mi.identify.is_maximizer is original
    names = [span["name"] for span in tracer.spans]
    assert names[0] == "identify.check_rationalizable"
    solve = next(s for s in tracer.spans if s["name"] == "lp.maximize_surplus")
    assert tracer.spans[solve["parent"]]["name"] == "lp.is_maximizer"
    assert all(span["self"] <= span["dur"] + 1e-12 for span in tracer.spans)
    values = metrics.per_layer(tracer.spans, {}, [], 1.0)
    assert set(values) == {name for name, _, _ in metrics.PER_LAYER}
    assert values["identify.check_rationalizable.calls"] == 1
    assert 0 < values["identify.lp_recheck_share"] <= 1


def test_metric_names_units_and_benchmark_json_agree():
    for name, unit, better in metrics.END_TO_END + metrics.PER_LAYER:
        assert metrics.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64 and unit and better in ("lower", "higher")
    names = [name for name, _, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_quantile_keeps_ten_samples_beyond_it():
    assert metrics.tail_quantile(1000) == 0.9
    assert metrics.tail_quantile(100) == pytest.approx(0.9)
    assert metrics.tail_quantile(60) == pytest.approx(1 - 10 / 60)
