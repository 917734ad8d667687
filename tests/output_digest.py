"""One sha256 per benchmark workload over every library output on its inputs.

Builds the inputs of ``perfbench/workloads.py`` for the given seeds, makes
the library calls that each workload's operations make, and hashes every
answer: arrays bit for bit with their dtype and shape, floats by their
bytes, and each raised error by its class and message.  Two source trees
that print the same digests answer those inputs bit-identically, so a
change meant to keep every output is checked by running this script in
the change's tree and in its parent's.

* forward-solve: ``maximize_surplus``.
* observe-identify: ``check_rationalizable``, ``rationalize_gauge`` and
  the shannon, gauge and quantile ``identify_entropy``.
* finite-sample: ``simulate_market``, the shannon identification of both
  matchings it returns, and ``decompose_separable`` of the population.
* cli: each subcommand through ``cli.main`` in process, from the
  workload's directory: the exit code, standard output, and then every
  file the run leaves there.

The script only reads ``perfbench/workloads.py``; the benchmark's files
are not changed.  Run it from the repository root (about 1 s per seed
for the four workloads on 2 vCPU)::

    PYTHONPATH=src python tests/output_digest.py --seeds 1 2 3
    PYTHONPATH=src python tests/output_digest.py --seeds 1 --workloads cli
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

import matchident as mi
from matchident import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    """``perfbench/workloads.py`` as a module, without putting its directory on the path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


class Digest:
    """A sha256 over a stream of library outputs, each fed with a type tag."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.outputs = 0

    def _feed(self, tag: bytes, payload: bytes = b"") -> None:
        self._hash.update(tag + struct.pack("<Q", len(payload)) + payload)

    def add(self, value) -> None:
        if value is None:
            self._feed(b"N")
        elif isinstance(value, (bool, np.bool_)):
            self._feed(b"B", bytes([bool(value)]))
        elif isinstance(value, (int, np.integer)):
            self._feed(b"I", str(int(value)).encode())
        elif isinstance(value, (float, np.floating)):
            self._feed(b"F", struct.pack("<d", float(value)))
        elif isinstance(value, (str, bytes)):
            self._feed(b"S", value.encode() if isinstance(value, str) else value)
        elif isinstance(value, np.ndarray):
            self._feed(b"A", f"{value.dtype.str}{value.shape}".encode())
            self._feed(b"D", np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            self._feed(b"M", str(len(value)).encode())
            for key in sorted(value):
                self.add(key)
                self.add(value[key])
        elif isinstance(value, (tuple, list)):
            self._feed(b"L", str(len(value)).encode())
            for item in value:
                self.add(item)
        elif dataclasses.is_dataclass(value):
            self._feed(b"C", type(value).__name__.encode())
            for field in dataclasses.fields(value):
                self.add(getattr(value, field.name))
        else:
            raise TypeError(f"no digest for {type(value).__name__}")

    def call(self, fn, *args) -> object:
        """Feed ``fn(*args)``, or the error it raises; return the result or None."""
        self.outputs += 1
        try:
            result = fn(*args)
        except mi.MarketError as exc:
            self._feed(b"E", f"{type(exc).__name__}: {exc}".encode())
            self.add(getattr(exc, "cell", None))
            return None
        self.add(result)
        return result

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _forward(digest: Digest, op) -> None:
    phi, margins = op.fn.args
    digest.call(mi.maximize_surplus, phi, margins)


def _observe(digest: Digest, op) -> None:
    mu, quantile = op.fn.args
    digest.call(mi.check_rationalizable, mu)
    digest.call(mi.rationalize_gauge, mu)
    for model in (workloads.SHANNON, workloads.GAUGE, quantile):
        digest.call(mi.identify_entropy, mu, model)


def _finite(digest: Digest, op) -> None:
    phi, margins, households, draw_seed = op.fn.args
    simulated = digest.call(mi.simulate_market, phi, margins, households, draw_seed)
    if simulated is not None:
        for mu in simulated:
            digest.call(mi.identify_entropy, mu, workloads.SHANNON)
    digest.call(mi.decompose_separable, phi, margins)


def _cli(digest: Digest, op) -> None:
    argv, workdir = op.fn.args[0], op.fn.args[3]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            digest.call(cli.main, argv)
    finally:
        os.chdir(cwd)
    digest.add(out.getvalue())


OUTPUTS = {
    "forward-solve": _forward,
    "observe-identify": _observe,
    "finite-sample": _finite,
    "cli": _cli,
}


def workload_digest(name: str, seeds) -> Digest:
    """The digest of workload ``name`` over the passes of ``seeds``, in order."""
    digest = Digest()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for op in workloads.WORKLOADS[name](seed, workdir):
                OUTPUTS[name](digest, op)
            for path in sorted(workdir.rglob("*")):
                if path.is_file():
                    digest.add(str(path.relative_to(workdir)))
                    digest.add(path.read_bytes())
    return digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=list(OUTPUTS), default=list(OUTPUTS))
    args = parser.parse_args(argv)
    for name in args.workloads:
        digest = workload_digest(name, args.seeds)
        print(f"{name} seeds {','.join(map(str, args.seeds))}:"
              f" {digest.hexdigest()} ({digest.outputs} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
