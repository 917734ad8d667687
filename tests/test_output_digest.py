"""``tests/output_digest.py`` runs: one seed of the cli workload, in a subprocess."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_one_digest_per_workload():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "output_digest.py"),
         "--seeds", "1", "--workloads", "cli"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert re.fullmatch(r"cli seeds 1: [0-9a-f]{64} \(90 outputs\)\n", proc.stdout), proc.stdout
