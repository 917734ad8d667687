"""Measure a baseline: several seeds per workload, plus one traced run each.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--out perfbench/baseline.json]

For each workload and end-to-end metric it records the median of the
untraced runs and their spread, the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(values, n=4)``).
It prints one line per workload and metric, with the metric's bound from
``BENCHMARK.json``, and writes everything, with the per-layer metrics of
one traced run per workload, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            info, result = run(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: an output failed its check", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            summary[name] = {"median": median, "spread": (q3 - q1) / median, "values": series}
            print(f"{workload:17s} {name:12s} median {median:12.6g}  spread "
                  f"{summary[name]['spread']:.4f}  bound {bounds[name]}", flush=True)
        _, traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
        }
    report["environment"] = {k: info[k] for k in ("python", "numpy", "nproc", "cpu",
                                                  "blas_threads")}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
