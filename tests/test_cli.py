"""End-to-end tests for the command-line front end.

Every command is exercised in-process through ``cli.main`` so that exit
codes, report contents and error documents can be asserted directly.
"""

import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from matchident import (
    MASS_TOL,
    Margins,
    Matching,
    Surplus,
    check_rationalizable,
    contains,
    maximize_surplus,
)
from matchident import entropy, lp
from matchident.cli import main
from conftest import (
    NONFINITE_GAUGE_MARKETS,
    TEN_DECIMAL_MARKET,
    matching_with_a_cell_the_ray_grows,
    random_margins,
    random_surplus,
)

INTERIOR_MU = [[0.35, 0.15], [0.15, 0.35]]
ASSORTATIVE_MU = [[0.5, 0.0], [0.0, 0.5]]
UNIFORM_P = [0.5, 0.5]
#: Rows sum to 1.0, against 0.5 in UNIFORM_P.
OFF_MARGIN_MU = [[0.9, 0.1], [0.1, 0.9]]

CHECK_REPORT_SCHEMA = {
    "type": "object",
    "required": ["rationalizable", "witness", "t_star", "mu_star", "checks"],
    "properties": {
        "rationalizable": {"type": "boolean"},
        "witness": {"type": ["array", "null"]},
        "t_star": {"type": ["number", "null"]},
        "mu_star": {"type": ["array", "null"]},
        "checks": {
            "type": "object",
            "required": ["boundary", "maximizer", "nonseparable"],
            "properties": {
                "boundary": {"type": "boolean"},
                "maximizer": {"type": "boolean"},
                "nonseparable": {"type": "boolean"},
            },
        },
    },
}

SOLVE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["value", "mu_opt", "dual_f", "dual_g", "duality_gap", "discriminating"],
    "properties": {
        "value": {"type": "number"},
        "mu_opt": {"type": "array"},
        "dual_f": {"type": "array"},
        "dual_g": {"type": "array"},
        "duality_gap": {"type": "number"},
        "discriminating": {"type": "boolean"},
    },
}

IDENTIFY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["entropy", "phi_raw", "phi_canonical", "diagnostics"],
    "properties": {
        "entropy": {"type": "string"},
        "phi_raw": {"type": "array"},
        "phi_canonical": {"type": "array"},
        "diagnostics": {"type": "object"},
    },
}


def market_bytes(**fields) -> bytes:
    return json.dumps(fields).encode()


#: Input files (the first is passed as --input), extra options for check and
#: a fragment of the error message.
MALFORMED_INPUTS = {
    "401-digit-margin": (
        {"m.json": market_bytes(p=[10**400, 1], q=UNIFORM_P, mu=INTERIOR_MU)},
        [],
        "p is not a numeric array",
    ),
    "json-not-utf8": ({"m.json": b"\xff\xfe{}"}, [], "invalid JSON"),
    "csv-not-utf8": (
        {"m.csv": b"\xff\xfe0.35,0.15\n", "m.margins.csv": b"0.5,0.5\n0.5,0.5\n"},
        [],
        "could not parse mu",
    ),
    "sidecar-not-utf8": (
        {"m.csv": b"0.35,0.15\n0.15,0.35\n", "m.margins.csv": b"\xff\xfe0.5,0.5\n"},
        [],
        "could not parse margins",
    ),
    "json-nested-100000-deep": (
        {"m.json": b"[" * 100_000 + b"]" * 100_000},
        [],
        "invalid JSON",
    ),
    "tol-nan": (
        {"m.json": market_bytes(p=UNIFORM_P, q=UNIFORM_P, mu=OFF_MARGIN_MU)},
        ["--tol", "nan"],
        "tol must be finite and nonnegative",
    ),
    "tol-inf": (
        {"m.json": market_bytes(p=UNIFORM_P, q=UNIFORM_P, mu=OFF_MARGIN_MU)},
        ["--tol", "inf"],
        "tol must be finite and nonnegative",
    ),
    "tol-negative": (
        {"m.json": market_bytes(p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU)},
        ["--tol=-1"],
        "tol must be finite and nonnegative",
    ),
}

#: Market fields, subcommand and the plainly printed number in the message.
NUMERIC_MESSAGES = {
    "margin-sum": ({"p": [0.5, 0.6], "q": UNIFORM_P, "mu": INTERIOR_MU}, ["check"], "got 1.1"),
    "negative-cell": (
        {"p": UNIFORM_P, "q": UNIFORM_P, "mu": [[0.6, -0.1], [-0.1, 0.6]]},
        ["check"],
        "mu[0, 1] = -0.1 is",
    ),
    "row-sum": (
        {"p": UNIFORM_P, "q": UNIFORM_P, "mu": [[0.25, 0.5], [0.25, 0.0]]},
        ["check"],
        "row 0 sums to 0.75, expected p[0] = 0.5",
    ),
    "column-sum": (
        {"p": UNIFORM_P, "q": [0.25, 0.75], "mu": [[0.25, 0.25], [0.25, 0.25]]},
        ["check"],
        "column 0 sums to 0.5, expected q[0] = 0.25",
    ),
    "boundary-point": (
        {"p": UNIFORM_P, "q": UNIFORM_P, "mu": ASSORTATIVE_MU},
        ["identify", "--entropy", "shannon"],
        "mu[0, 1] = 0.0",
    ),
    "kink-point": (
        {
            "p": UNIFORM_P,
            "q": UNIFORM_P,
            "mu": [[0.5 - 1e-10, 1e-10], [1e-10, 0.5 - 1e-10]],
            "x_values": [0.0, 1.0],
            "y_values": [0.0, 1.0],
        },
        ["identify", "--entropy", "quantile"],
        "increment of 2e-10 at",
    ),
}

ERROR_DOCUMENT_SCHEMA = {
    "type": "object",
    "required": ["error", "message"],
    "properties": {"error": {"type": "string"}, "message": {"type": "string"}},
}


def write_market(path: Path, **fields) -> str:
    path.write_text(json.dumps(fields))
    return str(path)


def run_json(capsys, argv):
    """Run the CLI and parse its stdout as a JSON document."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def parse_geometry(text: str) -> dict[str, list[tuple[float, float]]]:
    blocks: dict[str, list[tuple[float, float]]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# "):
            current = line[2:]
            blocks[current] = []
        elif line.strip():
            first, second = line.split()
            blocks[current].append((float(first), float(second)))
    return blocks


class TestSolve:
    def test_identity_surplus_report(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, phi=[[1.0, 0.0], [0.0, 1.0]]
        )
        code, report = run_json(capsys, ["solve", "--input", market])
        assert code == 0
        validate(report, SOLVE_REPORT_SCHEMA)
        assert report["value"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(report["mu_opt"], 0.5 * np.eye(2), atol=1e-12)
        assert report["duality_gap"] <= 1e-8
        assert report["dual_g"][-1] == 0.0
        assert report["discriminating"] is True

    def test_separable_surplus_is_flagged(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, phi=[[1.0, 2.0], [3.0, 4.0]]
        )
        code, report = run_json(capsys, ["solve", "--input", market])
        assert code == 0
        assert report["discriminating"] is False
        assert "separable" in report["note"]
        assert report["value"] == pytest.approx(2.5, abs=1e-12)

    def test_surplus_on_a_zero_mass_type_does_not_discriminate(self, tmp_path, capsys):
        """Row 2 has no mass, so every feasible matching is zero on it and the
        1 there favours none of them; its potential is the least feasible
        one, 1."""
        market = write_market(
            tmp_path / "m.json", p=[0.5, 0.5, 0.0], q=UNIFORM_P, phi=[[0, 0], [0, 0], [1, 0]]
        )
        code, report = run_json(capsys, ["solve", "--input", market])
        assert code == 0
        validate(report, SOLVE_REPORT_SCHEMA)
        assert report["discriminating"] is False
        assert report["note"] == "surplus is separable: every feasible matching is optimal"
        assert (report["dual_f"], report["dual_g"]) == ([0.0, 0.0, 1.0], [0.0, 0.0])

    def test_margin_sums_that_differ_by_mass_tol_solve(self, tmp_path, capsys):
        """Each sum is within ``MASS_TOL`` of 1, so the market is valid,
        though the optimum leaves the whole difference in one row."""
        rng = np.random.default_rng(31)
        p, q = rng.uniform(0.2, 1.0, 7), rng.uniform(0.2, 1.0, 6)
        market = write_market(
            tmp_path / "m.json",
            p=(p / p.sum() * (1.0 + MASS_TOL / 2)).tolist(),
            q=(q / q.sum() * (1.0 - MASS_TOL / 2)).tolist(),
            phi=random_surplus(rng, 7, 6).phi.tolist(),
        )
        code, report = run_json(capsys, ["solve", "--input", market])
        assert code == 0
        validate(report, SOLVE_REPORT_SCHEMA)

    def test_missing_phi_is_a_usage_error(self, tmp_path, capsys):
        market = write_market(tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P)
        code, document = run_json(capsys, ["solve", "--input", market])
        assert code == 2
        validate(document, ERROR_DOCUMENT_SCHEMA)
        assert document["error"] == "invalid-input"
        assert "phi" in document["message"]

    def test_pivot_cap_reports_a_finite_residual(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
        rng = np.random.default_rng(3)
        margins = random_margins(rng, 4, 4)
        market = write_market(
            tmp_path / "m.json",
            p=margins.p.tolist(),
            q=margins.q.tolist(),
            phi=random_surplus(rng, 4, 4).phi.tolist(),
        )
        code = main(["solve", "--input", market])
        out = capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"report holds {constant}, which is not JSON")

        document = json.loads(out, parse_constant=reject)
        assert code == 3
        assert document["error"] == "no-convergence"
        assert math.isfinite(document["residual"]) and document["residual"] > 0.0

    def test_potentials_that_overflow_are_invalid_input(self, tmp_path, capsys):
        """At 8e307 the dual potentials exceed the float range: a named error,
        not a report of infinite potentials."""
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P,
            phi=[[8e307, -8e307], [-8e307, 8e307]],
        )
        code, document = run_json(capsys, ["solve", "--input", market])
        assert code == 2
        validate(document, ERROR_DOCUMENT_SCHEMA)
        assert document["error"] == "invalid-input"
        assert "overflow" in document["message"]

    @pytest.mark.parametrize("tol", ["nan", "1e-5"])
    def test_feasibility_tolerance_is_not_an_option(self, tmp_path, capsys, tol):
        """solve reads no matching, so it takes no feasibility tolerance."""
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, phi=np.eye(2).tolist()
        )
        with pytest.raises(SystemExit) as info:
            main(["solve", "--input", market, "--tol", tol])
        assert info.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_report_can_be_written_to_a_file(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, phi=[[1.0, 0.0], [0.0, 1.0]]
        )
        out = tmp_path / "report.json"
        code = main(["solve", "--input", market, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_library_calls(self, tmp_path, capsys):
        """The command is a thin adapter: numbers agree bit-for-bit."""
        rng = np.random.default_rng(31)
        for trial in range(5):
            margins = random_margins(rng, 3, 2)
            phi = random_surplus(rng, 3, 2)
            market = write_market(
                tmp_path / f"m{trial}.json",
                p=margins.p.tolist(),
                q=margins.q.tolist(),
                phi=phi.phi.tolist(),
            )
            code, report = run_json(capsys, ["solve", "--input", market])
            assert code == 0
            solution = maximize_surplus(phi, margins)
            assert report["value"] == solution.value
            assert np.array_equal(np.asarray(report["mu_opt"]), solution.mu_opt.mu)
            assert np.array_equal(np.asarray(report["dual_f"]), solution.dual_f)


class TestModuleEntryPoint:
    """``python -m matchident.cli``, in a subprocess: the command the
    benchmark's cli workload launches."""

    ROOT = Path(__file__).resolve().parents[1]

    def run_module(self, *argv: str) -> tuple[int, dict]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "matchident.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return proc.returncode, json.loads(proc.stdout)

    def test_solve_reports_a_value(self, tmp_path):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, phi=[[1.0, 0.0], [0.0, 1.0]]
        )
        code, report = self.run_module("solve", "--input", market)
        assert code == 0
        assert report["value"] == pytest.approx(1.0, abs=1e-12)

    def test_a_missing_input_file_is_invalid_input(self, tmp_path):
        code, document = self.run_module("solve", "--input", str(tmp_path / "absent.json"))
        assert code == 2
        assert document["error"] == "invalid-input"


class TestCheck:
    def test_assortative_matching_is_rationalizable(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=ASSORTATIVE_MU
        )
        code, report = run_json(capsys, ["check", "--input", market])
        assert code == 0
        validate(report, CHECK_REPORT_SCHEMA)
        assert report["rationalizable"] is True
        assert report["checks"] == {
            "boundary": True,
            "maximizer": True,
            "nonseparable": True,
        }
        witness = np.asarray(report["witness"])
        assert witness.shape == (2, 2)
        assert report["t_star"] == pytest.approx(1.0, abs=1e-12)

    def test_interior_matching_is_not_rationalizable(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU
        )
        code, report = run_json(capsys, ["check", "--input", market])
        assert code == 1
        assert report["rationalizable"] is False
        assert report["witness"] is None
        assert report["t_star"] == pytest.approx(2.5, rel=1e-12)
        np.testing.assert_allclose(report["mu_star"], 0.5 * np.eye(2), atol=1e-12)

    def test_barycenter_gets_a_note(self, tmp_path, capsys):
        p, q = [0.3, 0.7], [0.4, 0.6]
        bary = np.outer(p, q)
        market = write_market(tmp_path / "m.json", p=p, q=q, mu=bary.tolist())
        code, report = run_json(capsys, ["check", "--input", market])
        assert code == 1
        assert report["rationalizable"] is False
        assert report["t_star"] is None
        assert report["mu_star"] is None
        assert "barycenter" in report["note"]

    @pytest.mark.parametrize(
        "command, error",
        [(["check"], None), (["identify", "--entropy", "gauge"], "barycenter"),
         (["geometry"], "barycenter")],
    )
    def test_no_shrinking_cell_is_the_barycenter(self, tmp_path, capsys, command, error):
        """A matching above the barycenter in every cell, admitted by a loose
        --tol, is the barycenter within its margin defect."""
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=[[0.250001] * 2] * 2
        )
        code, document = run_json(capsys, [*command, "--input", market, "--tol", "1e-5"])
        assert code == 1
        if error is None:
            assert document["rationalizable"] is False
            assert document["t_star"] is None
            assert "barycenter" in document["note"]
        else:
            assert document["error"] == error

    def test_a_small_cell_the_ray_grows_is_interior(self, tmp_path, capsys):
        """A cell of 5e-13 holding 50 times its barycenter mass is not empty:
        mu is interior, its ray is defined and the report has no note."""
        p, mu = matching_with_a_cell_the_ray_grows()
        market = write_market(tmp_path / "m.json", p=p.tolist(), q=p.tolist(), mu=mu.tolist())
        code, report = run_json(capsys, ["check", "--input", market])
        assert code == 1
        validate(report, CHECK_REPORT_SCHEMA)
        assert report["rationalizable"] is False and report["witness"] is None
        assert report["t_star"] == pytest.approx(5.0, rel=1e-6)
        assert report["mu_star"] is not None and "note" not in report

    def test_custom_tolerance_admits_slightly_off_margins(self, tmp_path, capsys):
        mu = [[0.5, 0.0], [0.0, 0.5 - 1e-6]]
        market = write_market(tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=mu)
        code, document = run_json(capsys, ["check", "--input", market])
        assert code == 2
        assert document["error"] == "invalid-input"
        code, report = run_json(capsys, ["check", "--input", market, "--tol", "1e-5"])
        assert code == 0
        assert report["rationalizable"] is True

    def test_margins_that_are_their_own_sums_are_answered(self, tmp_path, capsys):
        """Ten-decimal margins summing to 1 - 1e-10 are valid input: the
        ray's exit point is not refused, so check answers 'interior' and the
        gauge identification answers too."""
        market = write_market(tmp_path / "m.json", **TEN_DECIMAL_MARKET)
        code, report = run_json(capsys, ["check", "--input", market])
        assert code == 1
        validate(report, CHECK_REPORT_SCHEMA)
        assert report["rationalizable"] is False
        assert report["t_star"] == pytest.approx(35.11, abs=5e-3)
        code, report = run_json(capsys, ["identify", "--input", market, "--entropy", "gauge"])
        assert code == 0
        assert report["diagnostics"]["maximizer_verified"] == 1.0

    def test_matches_direct_library_calls(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU
        )
        code, report = run_json(capsys, ["check", "--input", market])
        assert code == 1
        verdict = check_rationalizable(
            Matching(INTERIOR_MU, Margins(UNIFORM_P, UNIFORM_P))
        )
        assert report["t_star"] == verdict.t_star
        assert np.array_equal(np.asarray(report["mu_star"]), verdict.mu_star.mu)


class TestIdentify:
    def test_shannon_reports_the_cross_difference(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU
        )
        code, report = run_json(capsys, ["identify", "--input", market, "--entropy", "shannon"])
        assert code == 0
        validate(report, IDENTIFY_REPORT_SCHEMA)
        assert report["entropy"] == "shannon"
        expected = 2.0 * math.log(7.0 / 3.0)
        assert report["diagnostics"]["cross_difference"] == pytest.approx(expected, abs=1e-9)
        canonical = np.asarray(report["phi_canonical"])
        np.testing.assert_allclose(
            canonical,
            (expected / 4.0) * np.array([[1.0, -1.0], [-1.0, 1.0]]),
            atol=1e-9,
        )

    def test_gauge_reports_ray_and_binding_cells(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU
        )
        code, report = run_json(capsys, ["identify", "--input", market, "--entropy", "gauge"])
        assert code == 0
        assert report["t_star"] == pytest.approx(2.5, rel=1e-12)
        np.testing.assert_allclose(report["mu_star"], 0.5 * np.eye(2), atol=1e-12)
        assert report["binding_cells"] == [[0, 1], [1, 0]]
        np.testing.assert_allclose(
            report["phi_raw"], [[0.0, -12.5], [-12.5, 0.0]], atol=1e-9
        )
        np.testing.assert_allclose(
            report["phi_canonical"], [[6.25, -6.25], [-6.25, 6.25]], atol=1e-9
        )

    def test_a_gauge_gradient_past_the_float_range_is_invalid_input(self, tmp_path, capsys):
        """The file holds a valid matching, not a ``phi``: the error names the
        gradient as not finite."""
        market = write_market(tmp_path / "m.json", **NONFINITE_GAUGE_MARKETS["A"])
        code, document = run_json(capsys, ["identify", "--input", market, "--entropy", "gauge"])
        assert code == 2
        validate(document, ERROR_DOCUMENT_SCHEMA)
        assert document["error"] == "invalid-input"
        assert "gauge gradient is not finite" in document["message"]

    def test_quantile_needs_type_values(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU
        )
        code, document = run_json(capsys, ["identify", "--input", market, "--entropy", "quantile"])
        assert code == 2
        assert "x_values" in document["message"]

    def test_quantile_report_is_centered(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json",
            p=UNIFORM_P,
            q=UNIFORM_P,
            mu=INTERIOR_MU,
            x_values=[0.0, 1.0],
            y_values=[0.0, 1.0],
        )
        code, report = run_json(capsys, ["identify", "--input", market, "--entropy", "quantile"])
        assert code == 0
        canonical = np.asarray(report["phi_canonical"])
        np.testing.assert_allclose(canonical.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(canonical.sum(axis=1), 0.0, atol=1e-12)

    def test_boundary_matching_names_the_offending_cell(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=ASSORTATIVE_MU
        )
        code, document = run_json(capsys, ["identify", "--input", market, "--entropy", "shannon"])
        assert code == 1
        validate(document, ERROR_DOCUMENT_SCHEMA)
        assert document["error"] == "boundary-point"
        assert document["cell"] in ([0, 1], [1, 0])


class TestSimulate:
    PHI = [[0.8473, 0.0], [0.0, 0.8473]]

    def market(self, tmp_path: Path) -> str:
        return write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, phi=self.PHI
        )

    def test_same_seed_gives_byte_identical_files(self, tmp_path, capsys):
        market = self.market(tmp_path)
        for run in ("a", "b"):
            code = main(
                [
                    "simulate",
                    "--input",
                    market,
                    "--households",
                    "1000",
                    "--seed",
                    "7",
                    "--out",
                    str(tmp_path / run),
                ]
            )
            assert code == 0
        capsys.readouterr()
        for name in ("mu_true.json", "mu_empirical.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        market = self.market(tmp_path)
        for seed, run in ((1, "a"), (2, "b")):
            code = main(
                [
                    "simulate",
                    "--input",
                    market,
                    "--households",
                    "1000",
                    "--seed",
                    str(seed),
                    "--out",
                    str(tmp_path / run),
                ]
            )
            assert code == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "mu_empirical.json").read_bytes()
        b = (tmp_path / "b" / "mu_empirical.json").read_bytes()
        assert a != b

    def test_round_trip_reports_errors(self, tmp_path, capsys):
        market = self.market(tmp_path)
        code, summary = run_json(
            capsys,
            [
                "simulate",
                "--input",
                market,
                "--households",
                "100000",
                "--seed",
                "3",
                "--round-trip",
                "--out",
                str(tmp_path / "out"),
            ],
        )
        assert code == 0
        round_trip = summary["round_trip"]
        assert 0.0 <= round_trip["max_abs_canonical_error"] < 0.2
        assert 0.0 <= round_trip["cross_difference_error"] < 0.2
        for name in ("mu_true.json", "mu_empirical.json"):
            assert (tmp_path / "out" / name).exists()

    def test_zero_households_is_a_usage_error(self, tmp_path, capsys):
        market = self.market(tmp_path)
        code, document = run_json(
            capsys,
            ["simulate", "--input", market, "--households", "0", "--out", str(tmp_path / "out")],
        )
        assert code == 2
        assert document["error"] == "invalid-input"

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        market = self.market(tmp_path)
        code, document = run_json(
            capsys,
            [
                "simulate",
                "--input",
                market,
                "--households",
                "10",
                "--seed",
                "-1",
                "--out",
                str(tmp_path / "out"),
            ],
        )
        assert code == 2
        assert document["error"] == "invalid-input"
        assert "seed" in document["message"]

    def test_oversized_households_is_a_usage_error(self, tmp_path, capsys):
        market = self.market(tmp_path)
        code, document = run_json(
            capsys,
            [
                "simulate",
                "--input",
                market,
                "--households",
                "10000000000000000000",
                "--out",
                str(tmp_path / "out"),
            ],
        )
        assert code == 2
        assert document["error"] == "invalid-input"
        assert "households" in document["message"]
        assert not (tmp_path / "out").exists()

    def test_a_surplus_whose_centring_overflows_is_invalid_input(self, tmp_path, capsys):
        """Every entry is finite, but the warm start's doubly centred copy
        overflows: the error names that, not a non-finite ``phi``."""
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P,
            phi=[[-1.5e308, 1.5e308], [1.5e308, 1.5e308]],
        )
        code, document = run_json(
            capsys,
            ["simulate", "--input", market, "--households", "100", "--out", str(tmp_path / "out")],
        )
        assert code == 2
        validate(document, ERROR_DOCUMENT_SCHEMA)
        assert document == {
            "error": "invalid-input",
            "message": "phi is too large: its doubly centred form overflows",
        }

    def test_sweep_cap_reports_a_finite_residual(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(entropy, "IPFP_MAX_ITER", 5)
        rng = np.random.default_rng(3)
        margins = random_margins(rng, 4, 4)
        market = write_market(
            tmp_path / "m.json",
            p=margins.p.tolist(),
            q=margins.q.tolist(),
            phi=random_surplus(rng, 4, 4, scale=10.0).phi.tolist(),
        )
        code = main(
            ["simulate", "--input", market, "--households", "10", "--out", str(tmp_path / "out")]
        )
        out = capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"report holds {constant}, which is not JSON")

        document = json.loads(out, parse_constant=reject)
        assert code == 3
        assert document["error"] == "no-convergence"
        assert document["iterations"] == 5
        assert math.isfinite(document["residual"]) and document["residual"] > 0.0

    def test_single_household_occupies_one_cell(self, tmp_path, capsys):
        market = self.market(tmp_path)
        code = main(
            [
                "simulate",
                "--input",
                market,
                "--households",
                "1",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        empirical = json.loads((tmp_path / "out" / "mu_empirical.json").read_text())
        matrix = np.asarray(empirical["mu"])
        assert np.count_nonzero(matrix) == 1
        assert matrix.sum() == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_with_tiny_sample_suggests_more_households(self, tmp_path, capsys):
        market = self.market(tmp_path)
        code, document = run_json(
            capsys,
            [
                "simulate",
                "--input",
                market,
                "--households",
                "1",
                "--seed",
                "0",
                "--round-trip",
                "--out",
                str(tmp_path / "out"),
            ],
        )
        assert code == 1
        assert document["error"] == "boundary-point"
        assert "--households" in document["message"]

    def test_outputs_reload_as_market_files(self, tmp_path, capsys):
        """The simulated population matching feeds straight back into check."""
        market = self.market(tmp_path)
        code = main(
            [
                "simulate",
                "--input",
                market,
                "--households",
                "1000",
                "--seed",
                "5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code, report = run_json(
            capsys, ["check", "--input", str(tmp_path / "out" / "mu_true.json")]
        )
        assert code == 1  # the regularized optimizer is strictly interior
        assert report["rationalizable"] is False

    def test_an_empirical_matching_that_misses_a_type_reads_back(self, tmp_path, capsys):
        """Three households miss type 2 on both sides: the zero-mass type is
        absent to check and the gauge, and the shannon gradient refuses it."""
        market = write_market(
            tmp_path / "m.json",
            p=[0.5, 0.3, 0.2],
            q=[0.4, 0.35, 0.25],
            phi=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        )
        out = tmp_path / "out"
        argv = ["simulate", "--input", market, "--households", "3", "--seed", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        empirical = out / "mu_empirical.json"
        document = json.loads(empirical.read_text())
        assert document["p"] == document["q"] == [2 / 3, 1 / 3, 0.0]
        empirical = str(empirical)
        code, report = run_json(capsys, ["check", "--input", empirical])
        assert code == 0
        validate(report, CHECK_REPORT_SCHEMA)
        assert report["rationalizable"] is True and all(report["checks"].values())
        code, report = run_json(capsys, ["identify", "--input", empirical, "--entropy", "gauge"])
        assert code == 0
        validate(report, IDENTIFY_REPORT_SCHEMA)
        code, document = run_json(
            capsys, ["identify", "--input", empirical, "--entropy", "shannon"]
        )
        assert code == 1
        assert document["error"] == "boundary-point"


class TestGeometry:
    def write_interior(self, tmp_path: Path) -> str:
        return write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU
        )

    def test_segment_endpoints_are_the_two_vertices(self, tmp_path, capsys):
        market = self.write_interior(tmp_path)
        code = main(["geometry", "--input", market])
        blocks = parse_geometry(capsys.readouterr().out)
        assert code == 0
        assert [row[0] for row in blocks["segment"]] == [0.0, 0.5]
        np.testing.assert_allclose(blocks["segment"][0], (0.0, 0.5), atol=1e-15)
        np.testing.assert_allclose(blocks["segment"][1], (0.5, 0.0), atol=1e-15)

    def test_every_emitted_point_is_feasible(self, tmp_path, capsys):
        market = self.write_interior(tmp_path)
        code = main(["geometry", "--input", market])
        assert code == 0
        blocks = parse_geometry(capsys.readouterr().out)
        margins = Margins(UNIFORM_P, UNIFORM_P)
        p1, q1 = 0.5, 0.5
        for rows in blocks.values():
            for first_cell, second_cell in rows:
                full = np.array(
                    [
                        [first_cell, second_cell],
                        [q1 - first_cell, 1.0 - p1 - q1 + first_cell],
                    ]
                )
                assert second_cell == pytest.approx(p1 - first_cell, abs=1e-12)
                assert contains(full, margins, tol=1e-9)

    def test_ray_runs_from_barycenter_to_mu_star(self, tmp_path, capsys):
        """Also when the ray stretches 2e9 times along the margins' sum
        defect: its points meet the first row's margin within ``MASS_TOL``."""
        far = write_market(
            tmp_path / "far.json", p=UNIFORM_P, q=[0.5, 0.5 + 5e-10],
            mu=[[0.25, 0.25], [0.25, 0.25 + 5e-10]],
        )
        for market in (self.write_interior(tmp_path), far):
            code = main(["geometry", "--input", market])
            assert code == 0
            blocks = parse_geometry(capsys.readouterr().out)
            assert len(blocks["ray"]) == 33
            np.testing.assert_allclose(blocks["ray"][0], blocks["barycenter"][0], atol=1e-15)
            np.testing.assert_allclose(blocks["ray"][-1], blocks["mu_star"][0], atol=1e-12)
            first_cells = [row[0] for row in blocks["ray"]]
            assert all(a <= b + 1e-15 for a, b in zip(first_cells, first_cells[1:]))
            assert all(abs(a + b - UNIFORM_P[0]) <= MASS_TOL for a, b in blocks["ray"])

    def test_boundary_input_degenerates_to_its_own_point(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=ASSORTATIVE_MU
        )
        code = main(["geometry", "--input", market])
        assert code == 0
        blocks = parse_geometry(capsys.readouterr().out)
        np.testing.assert_allclose(blocks["mu_star"][0], blocks["mu_hat"][0], atol=1e-12)
        np.testing.assert_allclose(blocks["ray"][-1], blocks["mu_hat"][0], atol=1e-12)

    def test_barycenter_input_has_no_ray(self, tmp_path, capsys):
        bary = np.outer(UNIFORM_P, UNIFORM_P)
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, mu=bary.tolist()
        )
        code, document = run_json(capsys, ["geometry", "--input", market])
        assert code == 1
        assert document["error"] == "barycenter"

    def test_non_square_market_is_rejected(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json",
            p=[0.5, 0.5],
            q=[0.2, 0.3, 0.5],
            mu=[[0.1, 0.15, 0.25], [0.1, 0.15, 0.25]],
        )
        code, document = run_json(capsys, ["geometry", "--input", market])
        assert code == 2
        assert "2x2" in document["message"]

    def test_writes_emission_to_a_file(self, tmp_path, capsys):
        market = self.write_interior(tmp_path)
        out = tmp_path / "geometry.txt"
        code = main(["geometry", "--input", market, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        blocks = parse_geometry(out.read_text())
        assert set(blocks) == {"segment", "barycenter", "mu_hat", "mu_star", "ray"}


class TestCsvIngestion:
    def test_csv_matrix_with_sidecar_matches_json(self, tmp_path, capsys):
        csv_path = tmp_path / "mu.csv"
        csv_path.write_text("0.35,0.15\n0.15,0.35\n")
        (tmp_path / "mu.margins.csv").write_text("0.5,0.5\n0.5,0.5\n")
        json_path = write_market(
            tmp_path / "mu.json", p=UNIFORM_P, q=UNIFORM_P, mu=INTERIOR_MU
        )
        code_csv, report_csv = run_json(capsys, ["check", "--input", str(csv_path)])
        code_json, report_json = run_json(capsys, ["check", "--input", json_path])
        assert code_csv == code_json == 1
        assert report_csv == report_json

    def test_csv_matrix_feeds_solve_as_surplus(self, tmp_path, capsys):
        csv_path = tmp_path / "phi.csv"
        csv_path.write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "phi.margins.csv").write_text("0.5,0.5\n0.5,0.5\n")
        code, report = run_json(capsys, ["solve", "--input", str(csv_path)])
        assert code == 0
        assert report["value"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_sidecar_is_an_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "mu.csv"
        csv_path.write_text("0.35,0.15\n0.15,0.35\n")
        code, document = run_json(capsys, ["check", "--input", str(csv_path)])
        assert code == 2
        assert "margins" in document["message"]

    def test_malformed_sidecar_is_an_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "mu.csv"
        csv_path.write_text("0.35,0.15\n0.15,0.35\n")
        (tmp_path / "mu.margins.csv").write_text("0.5,0.5\n")
        code, document = run_json(capsys, ["check", "--input", str(csv_path)])
        assert code == 2
        assert "two rows" in document["message"]


    def test_malformed_matrix_is_an_input_error(self, tmp_path, capsys):
        csv_path = tmp_path / "mu.csv"
        csv_path.write_text("0.35,abc\n0.15,0.35\n")
        (tmp_path / "mu.margins.csv").write_text("0.5,0.5\n0.5,0.5\n")
        code, document = run_json(capsys, ["check", "--input", str(csv_path)])
        assert code == 2
        assert "could not parse mu" in document["message"]


class TestInputErrors:
    def test_a_report_path_in_a_missing_directory_is_an_io_error(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P, phi=[[1.0, 0.0], [0.0, 1.0]]
        )
        out = tmp_path / "missing" / "report.json"
        code, document = run_json(capsys, ["solve", "--input", market, "--out", str(out)])
        assert code == 2
        assert document["error"] == "io-error"
        assert not out.parent.exists()

    def test_missing_file(self, tmp_path, capsys):
        code, document = run_json(
            capsys, ["check", "--input", str(tmp_path / "nowhere.json")]
        )
        assert code == 2
        assert document["error"] == "invalid-input"
        assert "not found" in document["message"]

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        code, document = run_json(capsys, ["check", "--input", str(path)])
        assert code == 2
        assert "invalid JSON" in document["message"]

    def test_top_level_array_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, document = run_json(capsys, ["check", "--input", str(path)])
        assert code == 2
        assert "JSON object" in document["message"]

    def test_missing_mu_for_check(self, tmp_path, capsys):
        market = write_market(tmp_path / "m.json", p=UNIFORM_P, q=UNIFORM_P)
        code, document = run_json(capsys, ["check", "--input", market])
        assert code == 2
        assert "mu" in document["message"]

    def test_margin_value_violations_name_the_constraint(self, tmp_path, capsys):
        cases = [
            ({"p": [0.5, -0.5], "mu": INTERIOR_MU}, "positive"),
            ({"p": "abc", "mu": INTERIOR_MU}, "p is not a numeric array"),
            ({"p": UNIFORM_P, "mu": [[0.35, 0.15], [0.15]]}, "mu is not a numeric array"),
        ]
        for fields, named in cases:
            market = write_market(tmp_path / "m.json", q=UNIFORM_P, **fields)
            code, document = run_json(capsys, ["check", "--input", market])
            assert code == 2
            assert document["error"] == "invalid-input"
            assert named in document["message"]

    def test_phi_shape_mismatch(self, tmp_path, capsys):
        market = write_market(
            tmp_path / "m.json",
            p=UNIFORM_P,
            q=[0.2, 0.3, 0.5],
            phi=[[1.0, 0.0], [0.0, 1.0]],
        )
        code, document = run_json(capsys, ["solve", "--input", market])
        assert code == 2
        assert "shape" in document["message"]

    @pytest.mark.parametrize(
        "files, options, named", MALFORMED_INPUTS.values(), ids=list(MALFORMED_INPUTS)
    )
    def test_malformed_input_exits_2_without_a_traceback(
        self, tmp_path, capsys, files, options, named
    ):
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        market = str(tmp_path / next(iter(files)))
        code, document = run_json(capsys, ["check", "--input", market, *options])
        assert code == 2
        validate(document, ERROR_DOCUMENT_SCHEMA)
        assert document["error"] == "invalid-input"
        assert named in document["message"]

    @pytest.mark.parametrize(
        "fields, command, number", NUMERIC_MESSAGES.values(), ids=list(NUMERIC_MESSAGES)
    )
    def test_messages_print_numbers_as_plain_floats(
        self, tmp_path, capsys, fields, command, number
    ):
        market = write_market(tmp_path / "m.json", **fields)
        code, document = run_json(capsys, [*command, "--input", market])
        assert code in (1, 2)
        assert number in document["message"]
        assert "np." not in document["message"]


#: Leaves of a junk field: every JSON scalar, NaN, the infinities and
#: integers past the float range.
JUNK_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400)]),
)
JUNK = st.recursive(JUNK_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400])
MATRICES = ("mu", "phi")
#: A field is kept two times in three.
FIELD_CHANGES = st.sampled_from(["keep"] * 12 + ["drop", "junk", "nest", "cut", "ragged", "inf"])


@st.composite
def fuzzed_market_documents(draw):
    """A market of 2x2 to 4x4 types, zero-mass ones included, with a
    barycenter, vertex or arbitrary ``mu``; each field is kept, dropped,
    swapped for junk, nested once more, made ragged, given a non-finite
    entry or cut by its last entry or row.  One document in ten is junk
    whole."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))

    def margin(size: int) -> list[float]:
        weights = st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any)
        weights = np.array(draw(weights), float)
        return (weights / weights.sum()).tolist()

    p, q = margin(m), margin(n)
    cells = st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)
    phi = np.reshape(draw(cells), (m, n))
    kind = draw(st.sampled_from(["barycenter", "vertex", "arbitrary"]))
    if kind == "barycenter":
        mu = np.outer(p, q).tolist()
    elif kind == "vertex":
        mu = maximize_surplus(Surplus(phi), Margins(p, q)).mu_opt.mu.tolist()
    else:
        mu = (np.abs(np.reshape(draw(cells), (m, n))) / 10.0).tolist()
    document = {
        "p": p,
        "q": q,
        "mu": mu,
        "phi": phi.tolist(),
        "x_values": list(range(m)),
        "y_values": list(range(n)),
    }
    for field in list(document):
        value = document[field]
        change = draw(FIELD_CHANGES)
        if change == "drop":
            del document[field]
        elif change == "junk":
            document[field] = draw(JUNK)
        elif change == "nest":
            document[field] = [value]
        elif change == "cut":
            document[field] = value[:-1]
        elif change == "ragged":
            document[field] = [value[0][:-1], *value[1:]] if field in MATRICES else [*value, [0]]
        elif change == "inf":
            (value[0] if field in MATRICES else value)[0] = draw(NON_FINITE)
    return document


COMMANDS = st.one_of(
    st.sampled_from(
        [
            ["solve"],
            ["check"],
            ["identify", "--entropy", "gauge"],
            ["identify", "--entropy", "shannon"],
            ["identify", "--entropy", "quantile"],
            ["geometry"],
        ]
    ),
    st.builds(
        lambda households, seed, round_trip: [
            "simulate", "--households", str(households), "--seed", str(seed), *round_trip
        ],
        st.integers(1, 40),
        st.integers(0, 3),
        st.sampled_from([[], ["--round-trip"]]),
    ),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(document=fuzzed_market_documents(), command=COMMANDS)
def test_fuzzed_market_files_get_a_report_or_a_named_error(document, command):
    """Every subcommand on any market file exits 0 to 3 with one JSON
    document on stdout, or ``geometry``'s text; exit 2 names malformed input
    or a file error, and no exception escapes ``main``."""
    with tempfile.TemporaryDirectory() as directory:
        market = Path(directory) / "m.json"
        market.write_text(json.dumps(document))
        argv = [command[0], "--input", str(market), *command[1:]]
        if command[0] == "simulate":
            argv += ["--out", str(Path(directory) / "out")]
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if command[0] == "geometry" and code == 0:
        assert set(parse_geometry(stdout.getvalue())) == {
            "segment", "barycenter", "mu_hat", "mu_star", "ray"
        }
        return
    report = json.loads(stdout.getvalue())
    if code == 2:
        assert report["error"] in ("invalid-input", "io-error")
