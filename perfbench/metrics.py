"""Metric catalogue and the reductions that produce each metric.

``END_TO_END`` is what a user of the library sees, measured with tracing
off.  ``PER_LAYER`` is read from the spans of a traced run; every name is
always reported, as 0 when the workload does not reach that layer.  Each
entry is ``(name, unit, better)``; ``BENCHMARK.json`` lists the same
entries.
"""

from __future__ import annotations

import re
import statistics

import numpy as np

import workloads

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Ladders whose rungs get their own per-layer metric.
LP_RUNGS = ("8x8", "12x16", "16x12", "20x20", "30x30", "40x40", "60x60", "80x80")
SCALES = (1, 10, 50, 100, 400)
ENTROPY_KINDS = ("shannon", "gauge", "quantile")
SHANNON_RUNGS = ("60x60", "80x80")
VERTEX_RUNGS = ("40x40", "80x80")
CLI_OPS = ("solve.le16cells", "solve.gt16cells", "check", "identify", "simulate", "geometry")

DOMAIN_ERRORS = tuple(exc.__name__ for exc in workloads.DOMAIN_ERRORS)


def _per_layer_catalogue() -> list[tuple[str, str, str]]:
    out = []

    def fn(name, *fields):
        units = {"calls": ("count", "lower"), "busy_s": ("s", "lower"),
                 "self_s": ("s", "lower"), "failed": ("count", "lower"),
                 "vertices": ("count", "lower"), "sweeps": ("count", "lower"),
                 "repeat_frac": ("ratio", "higher")}
        out.extend((f"{name}.{field}", *units[field]) for field in fields)

    fn("core.validate", "calls", "busy_s")
    fn("core.decompose_separable", "calls", "busy_s")
    fn("core.is_nonseparable", "calls", "busy_s")
    fn("polytope.gauge", "calls", "busy_s")
    fn("polytope.enumerate_vertices", "calls", "busy_s", "vertices")
    fn("lp.maximize_surplus", "calls", "busy_s", "failed")
    out.extend((f"lp.maximize_surplus.{rung}.p50_ms", "ms", "lower") for rung in LP_RUNGS)
    fn("lp.is_maximizer", "calls", "busy_s")
    fn("lp.is_discriminating", "calls", "busy_s")
    fn("entropy.solve_regularized", "calls", "busy_s", "failed", "sweeps", "repeat_frac")
    for scale in SCALES:
        out.append((f"entropy.solve_regularized.scale{scale}.p50_ms", "ms", "lower"))
        out.append((f"entropy.solve_regularized.scale{scale}.sweeps_p50", "count", "lower"))
    for kind in ENTROPY_KINDS:
        fn(f"entropy.grad_entropy.{kind}", "calls", "busy_s")
    fn("identify.check_rationalizable", "calls", "busy_s", "self_s")
    out.extend((f"identify.check_rationalizable.vertex{rung}.p50_ms", "ms", "lower")
               for rung in VERTEX_RUNGS)
    fn("identify.rationalize_gauge", "calls", "busy_s", "self_s")
    for kind in ENTROPY_KINDS:
        fn(f"identify.identify_entropy.{kind}", "calls", "busy_s", "self_s")
    out.extend((f"identify.identify_entropy.shannon.{rung}.p50_ms", "ms", "lower")
               for rung in SHANNON_RUNGS)
    fn("identify.simulate_market", "calls", "busy_s", "self_s")
    out.append(("identify.lp_recheck_share", "ratio", "lower"))
    out.append(("identify.lp_recheck_lp_s", "s", "lower"))
    out.append(("identify.busy_s", "s", "lower"))
    out.append(("identify.domain_answers", "count", "higher"))
    out.append(("cli.import_s", "s", "lower"))
    out.extend((f"cli.{op}.p50_ms", "ms", "lower") for op in CLI_OPS)
    out.append(("trace.overhead", "ratio", "lower"))
    return out


PER_LAYER = _per_layer_catalogue()


def tail_quantile(n: int) -> float:
    """Highest quantile (at most 0.9) with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n)) if n else 0.9


def end_to_end(latencies: list[float], ok: int, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics from per-operation latencies (seconds) of one run."""
    lat = np.asarray(latencies, dtype=float)
    return {
        "setup_s": setup_s,
        "ops_per_s": lat.size / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(lat, 100 * tail_quantile(lat.size))),
        "ops_ok_frac": ok / lat.size,
        "peak_rss_mb": peak_rss_mb,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ancestors(spans: list[dict], index: int):
    parent = spans[index]["parent"]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent]["parent"]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(spans: list[dict], cli_latencies: dict[str, list[float]],
              cli_import_s: list[float], overhead: float) -> dict:
    """Per-layer metrics from the spans and CLI timings of a traced run."""
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    for name, idx in by_name.items():
        group = [spans[i] for i in idx]
        for field, value in (
            ("calls", len(group)),
            ("busy_s", sum(s["dur"] for s in group)),
            ("self_s", sum(s["self"] for s in group)),
            ("failed", sum(s["error"] == "ConvergenceError" for s in group)),
        ):
            if f"{name}.{field}" in values:
                values[f"{name}.{field}"] = value

    vertices = [spans[i] for i in by_name.get("polytope.enumerate_vertices", [])]
    values["polytope.enumerate_vertices.vertices"] = sum(s["extra"]["vertices"] for s in vertices)

    forward = [spans[i] for i in by_name.get("lp.maximize_surplus", [])
               if spans[i]["parent"] is None]
    for rung in LP_RUNGS:
        values[f"lp.maximize_surplus.{rung}.p50_ms"] = 1e3 * _median(
            [s["dur"] for s in forward if s["extra"]["shape"] == rung])

    ipfp = [spans[i] for i in by_name.get("entropy.solve_regularized", [])]
    values["entropy.solve_regularized.sweeps"] = sum(s["extra"]["sweeps"] for s in ipfp)
    values["entropy.solve_regularized.repeat_frac"] = (
        sum(s["extra"]["repeat"] for s in ipfp) / len(ipfp) if ipfp else 0.0)
    for scale in SCALES:
        rung = [s for s in ipfp if s["op"].get("scale") == scale]
        values[f"entropy.solve_regularized.scale{scale}.p50_ms"] = 1e3 * _median(
            [s["dur"] for s in rung])
        values[f"entropy.solve_regularized.scale{scale}.sweeps_p50"] = _median(
            [s["extra"]["sweeps"] for s in rung])

    for rung in VERTEX_RUNGS:
        values[f"identify.check_rationalizable.vertex{rung}.p50_ms"] = 1e3 * _median(
            [spans[i]["dur"] for i in by_name.get("identify.check_rationalizable", [])
             if spans[i]["op"].get("kind") == "vertex" and spans[i]["extra"]["shape"] == rung])
    for rung in SHANNON_RUNGS:
        values[f"identify.identify_entropy.shannon.{rung}.p50_ms"] = 1e3 * _median(
            [spans[i]["dur"] for i in by_name.get("identify.identify_entropy.shannon", [])
             if spans[i]["parent"] is None and spans[i]["error"] is None
             and spans[i]["extra"]["shape"] == rung])

    identify_busy = lp_inside = 0.0
    domain = 0
    for i, span in enumerate(spans):
        layer = _layer(span["name"])
        above = [_layer(a["name"]) for a in _ancestors(spans, i)]
        if layer == "identify" and "identify" not in above:
            identify_busy += span["dur"]
            domain += span["error"] in DOMAIN_ERRORS
        elif layer == "lp" and "lp" not in above and "identify" in above:
            lp_inside += span["dur"]
    values["identify.busy_s"] = identify_busy
    values["identify.lp_recheck_lp_s"] = lp_inside
    values["identify.lp_recheck_share"] = lp_inside / identify_busy if identify_busy else 0.0
    values["identify.domain_answers"] = domain

    values["cli.import_s"] = _median(cli_import_s)
    for op in CLI_OPS:
        values[f"cli.{op}.p50_ms"] = 1e3 * _median(cli_latencies.get(op, []))
    values["trace.overhead"] = overhead
    return values
