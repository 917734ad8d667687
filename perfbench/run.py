"""Closed-loop benchmark of matchident: one client, one operation at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: forward-solve, observe-identify, finite-sample, cli.  The run
imports the library from ``src/`` next to this directory and builds the
workload's inputs from the seed.  Set-up is timed several times: the import
of numpy and matchident, each time in a fresh interpreter, and the build of
the inputs; ``setup_s`` is the median import plus the median build.  One
set-up comes first; untraced runs repeat it between the operations of the
first pass.  The run executes whole passes over the inputs while the next
pass is expected to end within ``--seconds`` (always at least one; each
workload's pass is sized to fill one run).  With ``--trace 0`` it prints
the end-to-end metrics, with every timing rescaled to a reference speed of
the host (``speed.py``).  With ``--trace 1`` it first measures the tracing
overhead on the first operations, each run once untraced and once traced,
then runs traced and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Share of --seconds a traced run spends measuring the tracing overhead.
TRACE_PREFIX_SHARE = 0.1
SETUP_REPEATS = 9
#: Run in a fresh interpreter: prints the seconds that importing the library takes.
IMPORT_PROBE = ("from time import perf_counter; t = perf_counter(); import numpy, matchident; "
                "print(perf_counter() - t)")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> str:
    """OpenBLAS thread count when numpy bundles OpenBLAS, else the env setting."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "default"))


def fresh_import_s(probe) -> float:
    """Seconds to import numpy and matchident in a new interpreter (start-up excluded).

    Rescaled to the reference speed by the speed around the subprocess.
    """
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT, timeout=60,
                          check=True)
    return float(proc.stdout) * probe.scale(start, perf_counter())


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_passes(ops, budget: float, run_op, tracer=None, setup=None):
    """Run whole passes over ``ops`` while the next is expected to end within ``budget``.

    ``setup``, if given, runs ``SETUP_REPEATS - 1`` times during the first
    pass, spread evenly between its operations.  The machine's speed drifts
    for seconds at a time, so set-up timings taken back to back would all
    land in one spell.
    """
    setup_at = set() if setup is None else {
        k * len(ops) // SETUP_REPEATS for k in range(1, SETUP_REPEATS)}
    outcomes = []
    spent: list[float] = []
    start = perf_counter()
    while not spent or perf_counter() - start + statistics.mean(spent) <= budget:
        pass_start = perf_counter()
        for i, op in enumerate(ops):
            if not spent and i in setup_at:
                setup()
            outcomes.append((op, run_op(op, tracer)))
        spent.append(perf_counter() - pass_start)
    return outcomes, len(spent)


def tracing_overhead(ops, seconds: float, run_op) -> float:
    """Traced over untraced time of the first ``ops``, run in pairs for ``seconds``.

    Each operation runs once untraced and once traced, and the pairs
    alternate which side goes first, so warm-up favours neither side.
    """
    from tracing import Tracer

    spent = {False: 0.0, True: 0.0}
    start = perf_counter()
    for i, op in enumerate(ops):
        if i and perf_counter() - start >= seconds:
            break
        for traced in (False, True) if i % 2 == 0 else (True, False):
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                spent[traced] += run_op(op, tracer).seconds
            finally:
                if tracer is not None:
                    tracer.uninstall()
    return spent[True] / spent[False]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matchident" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2

    # One closed-loop client: keep BLAS to one thread unless the caller chose.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import numpy
    import matchident
    if Path(matchident.__file__).resolve().parent != SRC / "matchident":
        print(f"perfbench: imported matchident from {matchident.__file__}", file=sys.stderr)
        return 2

    import metrics
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        import_s, build_s = [], []
        probe = SpeedProbe()

        def time_setup():
            import_s.append(fresh_import_s(probe))
            probe_s, start = probe.handler_s, perf_counter()
            ops = build(args.seed, workdir)
            end = perf_counter()
            build_s.append((end - start - (probe.handler_s - probe_s)) * probe.scale(start, end))
            return ops

        def shuffle(ops):
            # Interleave the rungs, so that a slow spell of the machine is
            # shared by every rung instead of landing on the few that run during it.
            return random.Random(args.seed).sample(ops, len(ops))

        if args.trace:
            ops = build(args.seed, workdir)
            # The build order lists cheap rungs first, so the pairs stay short.
            overhead = tracing_overhead(ops, TRACE_PREFIX_SHARE * args.seconds, workloads.run_op)
            tracer = Tracer()
            tracer.install()
            try:
                outcomes, passes = run_passes(shuffle(ops), args.seconds, workloads.run_op,
                                              tracer)
            finally:
                tracer.uninstall()
        else:
            probe.start()
            try:
                ops = time_setup()
                outcomes, passes = run_passes(shuffle(ops), args.seconds,
                                              partial(workloads.run_op, probe=probe),
                                              setup=time_setup)
            finally:
                probe.stop()
            setup_s = statistics.median(import_s) + statistics.median(build_s)

    statuses = [out.status for _, out in outcomes]
    problems = [out.detail for _, out in outcomes if out.status == workloads.FAILED]
    wrong = [out.detail for _, out in outcomes if out.wrong]
    latencies = [out.seconds for _, out in outcomes]
    if not args.trace:
        wall = metrics.end_to_end(latencies, 0, 0.0, 0.0)
        latencies = [out.seconds * probe.scale(*out.window) for _, out in outcomes]

    if args.trace:
        cli_latencies: dict[str, list[float]] = {}
        for op, out in outcomes:
            if "cli" in op.tags:
                cli_latencies.setdefault(op.tags["cli"], []).append(out.seconds)
        values = metrics.per_layer(tracer.spans, cli_latencies, tracer.cli_import_s, overhead)
        catalogue = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(latencies, statuses.count(workloads.OK)
                                    + statuses.count(workloads.DOMAIN), setup_s, peak_rss_mb())
        catalogue = metrics.END_TO_END

    for detail in problems[:10]:
        print(f"failed: {detail}")
    if len(latencies) < 100:
        q = metrics.tail_quantile(len(latencies))
        print(f"note: {len(latencies)} operations, so op_p90_ms reports the p{100 * q:.1f} "
              "latency, the highest with ten samples beyond it")
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "operations": len(outcomes),
        "ok": statuses.count(workloads.OK), "domain": statuses.count(workloads.DOMAIN),
        "failed": statuses.count(workloads.FAILED), "wrong": len(wrong),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "blas_threads": blas_threads(),
        **({} if args.trace else {
            "kernel_ms_p50": 1e3 * statistics.median(probe.kernel_s),
            "wall": {k: wall[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}}),
    }}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": statuses.count(workloads.FAILED),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
