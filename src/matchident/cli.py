"""Command-line front end.

Subcommands: ``solve`` (surplus maximization), ``check``
(rationalizability verdict), ``identify`` (surplus recovery through an
entropy), ``simulate`` (finite-sample draws from a shannon market), and
``geometry`` (plottable geometry of a 2x2 market).

Inputs are market files: JSON objects with margin vectors ``p`` and ``q``
plus whichever of ``mu`` (observed matching), ``phi`` (surplus matrix) and
``x_values``/``y_values`` (scalar type values, for the quantile entropy)
the subcommand needs.  A bare CSV matrix is also accepted; its margins are
then read from a sidecar ``<name>.margins.csv`` holding one row for ``p``
and one for ``q``, and the matrix fills the ``mu`` slot (``phi`` for solve
and simulate).

Reports are JSON on stdout (or ``--out``).  Exit codes: 0 on success and
for rationalizable verdicts, 1 for well-formed inputs with a negative
domain answer (not rationalizable, gradient undefined at the input), 2 for
malformed inputs, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    MASS_TOL,
    ConvergenceError,
    DegenerateRayError,
    KinkPointError,
    Margins,
    Matching,
    NonInteriorError,
    Surplus,
    TypeValues,
    ValidationError,
    _barycenter_mu,
    _check_same_shape,
    decompose_separable,
)
from .entropy import EntropyModel
from .identify import check_rationalizable, identify_entropy, rationalize_gauge, simulate_market
from .lp import is_discriminating, maximize_surplus
from .polytope import gauge

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_RAY_POINTS = 33


def _print_json(document: dict, out: str | None = None) -> None:
    # Arrays and the numpy scalars that are not float subclasses (bools,
    # ints) reach ``default``; ``tolist`` turns either into plain Python.
    text = json.dumps(document, indent=2, default=lambda value: value.tolist()) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _print_error(code: str, message: str, extra: dict | None = None) -> None:
    document = {"error": code, "message": message}
    if extra:
        document.update(extra)
    _print_json(document)


def _read_csv_rows(path: Path, name: str) -> list[list[float]]:
    # UnicodeDecodeError is a ValueError: undecodable text fails the parse.
    try:
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        return [[float(token) for token in line.split(",")] for line in lines]
    except ValueError as exc:
        raise ValidationError(f"{path}: could not parse {name}: {exc}") from None


def _load_market_data(path: Path, matrix_slot: str) -> dict:
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    if path.suffix.lower() == ".csv":
        sidecar = path.with_suffix(".margins.csv")
        if not sidecar.exists():
            raise ValidationError(
                f"CSV input needs a margins sidecar, expected {sidecar}"
            )
        rows = _read_csv_rows(sidecar, "margins")
        if len(rows) != 2:
            raise ValidationError(
                f"{sidecar}: expected exactly two rows (p then q), got {len(rows)}"
            )
        return {"p": rows[0], "q": rows[1], matrix_slot: _read_csv_rows(path, matrix_slot)}
    # ValueError covers undecodable text, JSON syntax and integers beyond
    # the digit limit; RecursionError covers arrays nested too deeply.
    try:
        data = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object at the top level")
    return data


def _require(data: dict, key: str) -> object:
    if key not in data or data[key] is None:
        raise ValidationError(f"market file is missing required field {key!r}")
    return data[key]


def _margins_from(data: dict) -> Margins:
    return Margins(_require(data, "p"), _require(data, "q"))


def _matching_from(data: dict, margins: Margins, tol: float) -> Matching:
    return Matching(_require(data, "mu"), margins, tol=tol)


def _surplus_from(data: dict, margins: Margins) -> Surplus:
    phi = Surplus(_require(data, "phi"))
    _check_same_shape("phi", phi.phi.shape, margins)
    return phi


def _write_market_file(path: Path, margins: Margins, mu: np.ndarray) -> None:
    document = {"p": margins.p.tolist(), "q": margins.q.tolist(), "mu": mu.tolist()}
    path.write_text(json.dumps(document, indent=2) + "\n")


def cmd_solve(args: argparse.Namespace) -> int:
    data = _load_market_data(Path(args.input), "phi")
    margins = _margins_from(data)
    phi = _surplus_from(data, margins)
    solution = maximize_surplus(phi, margins)
    dual_value = float(margins.p @ solution.dual_f + margins.q @ solution.dual_g)
    discriminating = is_discriminating(phi, margins)
    report = {
        "value": solution.value,
        "mu_opt": solution.mu_opt.mu,
        "dual_f": solution.dual_f,
        "dual_g": solution.dual_g,
        "duality_gap": abs(solution.value - dual_value),
        "discriminating": discriminating,
    }
    if not discriminating:
        report["note"] = "surplus is separable: every feasible matching is optimal"
    _print_json(report, args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    data = _load_market_data(Path(args.input), "mu")
    margins = _margins_from(data)
    matching = _matching_from(data, margins, args.tol)
    verdict = check_rationalizable(matching)
    report = {
        "rationalizable": verdict.rationalizable,
        "witness": None if verdict.witness is None else verdict.witness.phi,
        "t_star": verdict.t_star,
        "mu_star": None if verdict.mu_star is None else verdict.mu_star.mu,
        "checks": {
            "boundary": verdict.checks.boundary,
            "maximizer": verdict.checks.maximizer,
            "nonseparable": verdict.checks.nonseparable,
        },
    }
    if verdict.t_star is None:
        report["note"] = "mu is the barycenter of the matching polytope"
    _print_json(report, args.out)
    return EXIT_OK if verdict.rationalizable else EXIT_DOMAIN


def cmd_identify(args: argparse.Namespace) -> int:
    data = _load_market_data(Path(args.input), "mu")
    margins = _margins_from(data)
    matching = _matching_from(data, margins, args.tol)
    report: dict = {"entropy": args.entropy}
    if args.entropy == "gauge":
        ray, identified = rationalize_gauge(matching)
        report["t_star"] = ray.t_star
        report["mu_star"] = ray.mu_star.mu
        report["binding_cells"] = np.argwhere(ray.binding)
    else:
        if args.entropy == "quantile":
            values = TypeValues(_require(data, "x_values"), _require(data, "y_values"))
            model = EntropyModel.quantile(values)
        else:
            model = EntropyModel.shannon()
        identified = identify_entropy(matching, model)
    report["phi_raw"] = identified.phi_raw.phi
    report["phi_canonical"] = identified.phi_canonical.phi
    report["diagnostics"] = identified.diagnostics
    _print_json(report, args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    data = _load_market_data(Path(args.input), "phi")
    margins = _margins_from(data)
    phi = _surplus_from(data, margins)
    mu_true, mu_empirical = simulate_market(phi, margins, args.households, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    true_path = out_dir / "mu_true.json"
    empirical_path = out_dir / "mu_empirical.json"
    _write_market_file(true_path, mu_true.margins, mu_true.mu)
    _write_market_file(empirical_path, mu_empirical.margins, mu_empirical.mu)
    summary = {
        "households": args.households,
        "seed": args.seed,
        "files": {"mu_true": str(true_path), "mu_empirical": str(empirical_path)},
    }
    if args.round_trip:
        try:
            identified = identify_entropy(mu_empirical, EntropyModel.shannon())
        except NonInteriorError as exc:
            _print_error(
                "boundary-point",
                f"{exc}; the empirical matching has an unmatched cell,"
                " increase --households",
                {"cell": list(exc.cell)} if exc.cell else None,
            )
            return EXIT_DOMAIN
        # Compare canonical surpluses under the population margins, the
        # common weighting that makes the two residuals comparable.
        true_canonical = decompose_separable(phi, margins).residual
        estimated_canonical = decompose_separable(identified.phi_raw, margins).residual
        round_trip = {
            "max_abs_canonical_error": float(
                np.abs(estimated_canonical - true_canonical).max()
            )
        }
        if margins.shape == (2, 2) and "cross_difference" in identified.diagnostics:
            true_cross = float(
                phi.phi[0, 0] + phi.phi[1, 1] - phi.phi[0, 1] - phi.phi[1, 0]
            )
            round_trip["cross_difference_error"] = abs(
                identified.diagnostics["cross_difference"] - true_cross
            )
        summary["round_trip"] = round_trip
    _print_json(summary)
    return EXIT_OK


def _format_matrix_row(matrix: np.ndarray) -> str:
    return f"{matrix[0, 0]:.17g} {matrix[0, 1]:.17g}"


def cmd_geometry(args: argparse.Namespace) -> int:
    data = _load_market_data(Path(args.input), "mu")
    margins = _margins_from(data)
    if margins.shape != (2, 2):
        raise ValidationError(
            f"geometry emission is defined for 2x2 markets, got {margins.shape}"
        )
    matching = _matching_from(data, margins, args.tol)
    p1, q1 = float(margins.p[0]), float(margins.q[0])

    def full_matrix(first_cell: float) -> np.ndarray:
        return np.array(
            [
                [first_cell, p1 - first_cell],
                [q1 - first_cell, 1.0 - p1 - q1 + first_cell],
            ]
        )

    low = max(0.0, p1 + q1 - 1.0)
    high = min(p1, q1)
    bary = _barycenter_mu(margins)
    ray_result = gauge(matching)
    stretches = np.linspace(0.0, ray_result.t_star, _RAY_POINTS)
    direction = matching.mu - bary
    # A 2x2 polytope is the segment of matrices parametrized by the first
    # cell; each block lists full matrices by their first row.
    blocks = [
        ("segment", [full_matrix(low), full_matrix(high)]),
        ("barycenter", [bary]),
        ("mu_hat", [matching.mu]),
        ("mu_star", [ray_result.mu_star.mu]),
        ("ray", [bary + t * direction for t in stretches]),
    ]
    lines = []
    for name, matrices in blocks:
        lines.append(f"# {name}")
        lines.extend(_format_matrix_row(matrix) for matrix in matrices)
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return EXIT_OK


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="market file (JSON or CSV)")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--tol",
        type=float,
        default=MASS_TOL,
        help="feasibility tolerance for loaded matchings (default %(default)g)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchident",
        description="Rationalizability and surplus identification for matching markets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="maximize total surplus over matchings")
    _add_common_arguments(solve)
    solve.set_defaults(func=cmd_solve)

    check = subparsers.add_parser("check", help="decide rationalizability of a matching")
    _add_common_arguments(check)
    check.set_defaults(func=cmd_check)

    identify = subparsers.add_parser("identify", help="recover a surplus from a matching")
    _add_common_arguments(identify)
    identify.add_argument(
        "--entropy",
        required=True,
        choices=["shannon", "gauge", "quantile"],
        help="entropy model inverted by the identification",
    )
    identify.set_defaults(func=cmd_identify)

    simulate = subparsers.add_parser("simulate", help="draw a finite sample from a market")
    simulate.add_argument("--input", required=True, help="market file holding p, q and phi")
    simulate.add_argument("--households", type=int, required=True, help="sample size")
    simulate.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    simulate.add_argument(
        "--round-trip",
        dest="round_trip",
        action="store_true",
        help="re-identify the surplus from the empirical matching and report the error",
    )
    simulate.add_argument("--out", required=True, help="directory for the two MarketFiles")
    simulate.set_defaults(func=cmd_simulate)

    geometry = subparsers.add_parser("geometry", help="plottable geometry of a 2x2 market")
    _add_common_arguments(geometry)
    geometry.set_defaults(func=cmd_geometry)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonInteriorError, KinkPointError) as exc:
        code = "boundary-point" if isinstance(exc, NonInteriorError) else "kink-point"
        _print_error(code, str(exc), {"cell": list(exc.cell)} if exc.cell else None)
        return EXIT_DOMAIN
    except DegenerateRayError as exc:
        _print_error("barycenter", str(exc))
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        _print_error(
            "no-convergence",
            str(exc),
            {"iterations": exc.iterations, "residual": exc.residual},
        )
        return EXIT_NUMERIC
    except ValidationError as exc:
        _print_error("invalid-input", str(exc))
        return EXIT_INPUT
    except OSError as exc:
        _print_error("io-error", str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
