"""Release gate: ten go/no-go checks over the whole library.

Each check prints one ``[acceptance] C<n> <title>: PASS/FAIL (<time>)``
line straight to the terminal (bypassing pytest capture) so a plain
``pytest -v`` run shows the checklist.  Checks with an explicit time
budget fail when they run over it.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from matchident import (
    EntropyModel,
    Margins,
    Matching,
    Surplus,
    TypeValues,
    check_rationalizable,
    decompose_separable,
    eval_entropy,
    identify_entropy,
    is_boundary,
    is_maximizer,
    is_nonseparable,
    maximize_surplus,
    rationalize_gauge,
    simulate_market,
    solve_regularized,
    total_surplus,
)
from matchident.cli import main
from conftest import (
    UNIT_CHANGES,
    random_boundary_matching,
    random_interior_matching,
    random_margins,
    random_nonseparable_surplus,
    random_surplus,
    vertices_for,
)
from test_entropy import quantile_entropy_by_quadrature, tangent_fd_gradient_error
from test_polytope import gauge_stretch_by_bisection

INTERIOR_MU = [[0.35, 0.15], [0.15, 0.35]]
ASSORTATIVE_MU = [[0.5, 0.0], [0.0, 0.5]]

SMALL_SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2), (2, 6), (6, 2), (3, 3), (3, 4), (4, 3)]
SWEEP_SHAPES = [(dx, dy) for dx in (2, 3, 4) for dy in (2, 3, 4)]


def _banner(capsys, number: int, title: str, status: str, elapsed: float) -> None:
    with capsys.disabled():
        print(f"[acceptance] C{number} {title}: {status} ({elapsed:.2f}s)")


@contextlib.contextmanager
def criterion(capsys, number: int, title: str, budget: float | None = None):
    """Time a criterion body and print its one-line verdict."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _banner(capsys, number, title, "FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _banner(capsys, number, title, f"FAIL (budget {budget:.0f}s)", elapsed)
        raise AssertionError(
            f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"
        )
    _banner(capsys, number, title, "PASS", elapsed)


def _write_market(path, p, q, mu) -> str:
    path.write_text(json.dumps({"p": list(p), "q": list(q), "mu": np.asarray(mu).tolist()}))
    return str(path)


class TestAcceptance:
    def test_c1_fixture_verdicts(self, tmp_path, capsys):
        """Canonical 2x2 verdicts through the CLI, with the witness re-verified."""
        with criterion(capsys, 1, "fixture rationalizability verdicts", budget=1.0):
            uniform = Margins([0.5, 0.5], [0.5, 0.5])

            market = _write_market(tmp_path / "assortative.json", [0.5, 0.5], [0.5, 0.5], ASSORTATIVE_MU)
            out = tmp_path / "assortative.report.json"
            assert main(["check", "--input", market, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["rationalizable"] is True
            witness = Surplus(np.asarray(report["witness"]))
            assert is_nonseparable(witness, uniform)
            assert is_maximizer(witness, Matching(ASSORTATIVE_MU, uniform))

            market = _write_market(tmp_path / "interior.json", [0.5, 0.5], [0.5, 0.5], INTERIOR_MU)
            out = tmp_path / "interior.report.json"
            assert main(["check", "--input", market, "--out", str(out)]) == 1
            assert json.loads(out.read_text())["rationalizable"] is False

            barycenters = [
                ([0.5, 0.5], [0.5, 0.5]),
                ([0.3, 0.7], [0.4, 0.6]),
                ([0.2, 0.3, 0.5], [0.25, 0.75]),
            ]
            for index, (p, q) in enumerate(barycenters):
                bary = np.outer(p, q)
                market = _write_market(tmp_path / f"bary{index}.json", p, q, bary)
                out = tmp_path / f"bary{index}.report.json"
                assert main(["check", "--input", market, "--out", str(out)]) == 1
                assert json.loads(out.read_text())["rationalizable"] is False

    def test_c2_equivalence_sweep(self, capsys):
        """Rationalizable == on the boundary == the witness surplus is maximized
        exactly at the observation, over 200 randomized matchings."""
        with criterion(capsys, 2, "rationalizability equivalence sweep", budget=30.0):
            rng = np.random.default_rng(2024)
            pools = {
                shape: [random_margins(rng, *shape) for _ in range(2)]
                for shape in SWEEP_SHAPES
            }
            discrepancies = 0
            for trial in range(200):
                shape = SWEEP_SHAPES[trial % len(SWEEP_SHAPES)]
                margins = pools[shape][trial % 2]
                if trial % 2 == 0:
                    matching = random_boundary_matching(rng, margins)
                else:
                    matching = random_interior_matching(rng, margins)
                verdict = check_rationalizable(matching)
                on_boundary = is_boundary(matching)
                if verdict.witness is not None:
                    witness_ok = (
                        is_nonseparable(verdict.witness, margins)
                        and total_surplus(matching, verdict.witness)
                        >= maximize_surplus(verdict.witness, margins).value - 1e-8
                    )
                else:
                    witness_ok = False
                if not (verdict.rationalizable == on_boundary == witness_ok):
                    discrepancies += 1
            assert discrepancies == 0

    def test_c3_lp_against_vertex_scan(self, capsys):
        """Exact solver value equals the brute-force vertex maximum, with
        certified duals, on 100 random surpluses over every small shape."""
        with criterion(capsys, 3, "exact solver vs vertex enumeration", budget=30.0):
            rng = np.random.default_rng(3)
            margins_by_shape = {
                shape: random_margins(rng, *shape) for shape in SMALL_SHAPES
            }
            for trial in range(100):
                shape = SMALL_SHAPES[trial % len(SMALL_SHAPES)]
                margins = margins_by_shape[shape]
                phi = random_surplus(rng, *shape)
                solution = maximize_surplus(phi, margins)
                brute = max(total_surplus(v, phi) for v in vertices_for(margins))
                assert abs(solution.value - brute) <= 1e-9
                dual_value = float(
                    margins.p @ solution.dual_f + margins.q @ solution.dual_g
                )
                assert abs(solution.value - dual_value) <= 1e-8
                slack = (
                    solution.dual_f[:, None] + solution.dual_g[None, :] - phi.phi
                )
                assert slack.min() >= -1e-9
                assert np.abs(slack[solution.mu_opt.mu > 1e-9]).max() <= 1e-8

    def test_c4_homogeneity(self, capsys):
        """Scaling the surplus scales the value and keeps the argmax vertex."""
        with criterion(capsys, 4, "positive homogeneity of the value"):
            rng = np.random.default_rng(4)
            margins_by_shape = {
                shape: random_margins(rng, *shape) for shape in SMALL_SHAPES
            }
            for trial in range(50):
                shape = SMALL_SHAPES[trial % len(SMALL_SHAPES)]
                margins = margins_by_shape[shape]
                phi = random_surplus(rng, *shape)
                base = maximize_surplus(phi, margins)
                for t in (0.5, 2.0, 10.0, *UNIT_CHANGES):
                    scaled = maximize_surplus(Surplus(t * phi.phi), margins)
                    assert scaled.value == pytest.approx(t * base.value, rel=1e-10)
                    assert np.array_equal(scaled.mu_opt.mu, base.mu_opt.mu)

    def test_c5_gauge_construction(self, capsys):
        """Closed-form stretch agrees with feasibility bisection; the supporting
        surplus is normalized and maximized at the boundary point."""
        with criterion(capsys, 5, "gauge ray construction"):
            rng = np.random.default_rng(5)
            shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3)]
            pools = {shape: random_margins(rng, *shape) for shape in shapes}
            for trial in range(100):
                shape = shapes[trial % len(shapes)]
                margins = pools[shape]
                matching = random_interior_matching(rng, margins)
                ray, identified = rationalize_gauge(matching)
                assert abs(ray.t_star - gauge_stretch_by_bisection(matching)) <= 1e-9
                phi_star = identified.phi_raw.phi / ray.t_star
                bary = np.outer(margins.p, margins.q)
                normalization = float(np.sum(phi_star * (matching.mu - bary)))
                assert abs(normalization - 1.0) <= 1e-10
                assert is_maximizer(identified.phi_raw, ray.mu_star)

            fixture = Matching(INTERIOR_MU, Margins([0.5, 0.5], [0.5, 0.5]))
            ray, identified = rationalize_gauge(fixture)
            assert abs(ray.t_star - 2.5) <= 1e-9
            np.testing.assert_allclose(
                identified.phi_raw.phi, [[0.0, -12.5], [-12.5, 0.0]], atol=1e-9
            )

    def test_c6_shannon_round_trip(self, capsys):
        """Forward regularized solve then gradient inversion returns the
        canonical part of the surplus, for 50 non-separable inputs."""
        with criterion(capsys, 6, "shannon forward-inverse round trip"):
            rng = np.random.default_rng(6)
            shapes = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 5), (5, 2), (3, 5), (5, 3), (4, 5), (5, 4)]
            model = EntropyModel.shannon()
            for trial in range(50):
                shape = shapes[trial % len(shapes)]
                margins = random_margins(rng, *shape)
                phi = random_nonseparable_surplus(rng, margins)
                _, report = solve_regularized(model, phi, margins)
                assert report.converged
                assert report.iterations <= 10000
                assert report.margin_error <= 1e-10
                identified = identify_entropy(report.mu, model)
                true_residual = decompose_separable(phi, margins).residual
                error = np.abs(identified.phi_canonical.phi - true_residual).max()
                assert error <= 1e-7

    def test_c7_cross_difference_constant(self, capsys):
        """The canonical 2x2 interior fixture identifies 2*log(7/3) exactly."""
        with criterion(capsys, 7, "closed-form cross-difference"):
            fixture = Matching(INTERIOR_MU, Margins([0.5, 0.5], [0.5, 0.5]))
            identified = identify_entropy(fixture, EntropyModel.shannon())
            expected = 2.0 * math.log(7.0 / 3.0)
            assert abs(identified.diagnostics["cross_difference"] - expected) <= 1e-9

    def test_c8_quantile_entropy(self, capsys):
        """Closed-form quantile evaluation against quadrature, the analytic
        gradient against tangent finite differences, and the two fixtures."""
        with criterion(capsys, 8, "quantile entropy vs quadrature and FD"):
            rng = np.random.default_rng(8)
            shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4)]
            pools = {shape: random_margins(rng, *shape) for shape in shapes}
            for trial in range(50):
                shape = shapes[trial % len(shapes)]
                margins = pools[shape]
                matching = random_interior_matching(rng, margins)
                values = TypeValues(
                    np.cumsum(rng.uniform(0.2, 1.5, shape[0])),
                    np.cumsum(rng.uniform(0.2, 1.5, shape[1])),
                )
                model = EntropyModel.quantile(values)
                closed_form = eval_entropy(model, matching)
                by_quadrature = quantile_entropy_by_quadrature(matching, values)
                assert abs(closed_form - by_quadrature) <= 1e-6
                if trial < 15:
                    assert tangent_fd_gradient_error(model, matching) <= 1e-5

            uniform = Margins([0.5, 0.5], [0.5, 0.5])
            unit = EntropyModel.quantile(TypeValues([0.0, 1.0], [0.0, 1.0]))
            independent = Matching(np.outer(uniform.p, uniform.q), uniform)
            assert abs(eval_entropy(unit, independent) - 0.75) <= 1e-12
            assortative = Matching(ASSORTATIVE_MU, uniform)
            assert abs(eval_entropy(unit, assortative) - 0.5) <= 1e-12

    def test_c9_convex_analysis(self, capsys):
        """Value convexity, gradient monotonicity of the regularized solver,
        and conjugacy at its optima, 50 random pairs each."""
        with criterion(capsys, 9, "convex-analysis properties"):
            rng = np.random.default_rng(9)
            shapes = [(2, 2), (3, 3), (2, 4), (4, 3)]
            pools = {shape: random_margins(rng, *shape) for shape in shapes}
            model = EntropyModel.shannon()

            for trial in range(50):
                shape = shapes[trial % len(shapes)]
                margins = pools[shape]
                phi_a = random_surplus(rng, *shape)
                phi_b = random_surplus(rng, *shape)
                mid = Surplus(0.5 * phi_a.phi + 0.5 * phi_b.phi)
                value_mid = maximize_surplus(mid, margins).value
                value_avg = 0.5 * (
                    maximize_surplus(phi_a, margins).value
                    + maximize_surplus(phi_b, margins).value
                )
                assert value_mid <= value_avg + 1e-9

            for trial in range(50):
                shape = shapes[trial % len(shapes)]
                margins = pools[shape]
                phi_a = random_surplus(rng, *shape)
                phi_b = random_surplus(rng, *shape)
                _, report_a = solve_regularized(model, phi_a, margins)
                _, report_b = solve_regularized(model, phi_b, margins)
                inner = float(
                    np.sum((report_a.mu.mu - report_b.mu.mu) * (phi_a.phi - phi_b.phi))
                )
                assert inner >= -1e-9

            for trial in range(50):
                shape = shapes[trial % len(shapes)]
                margins = pools[shape]
                phi = random_surplus(rng, *shape)
                value, report = solve_regularized(model, phi, margins)
                at_optimum = total_surplus(report.mu, phi) - eval_entropy(model, report.mu)
                assert abs(value - at_optimum) <= 1e-9
                competitor = random_interior_matching(rng, margins)
                elsewhere = total_surplus(competitor, phi) - eval_entropy(model, competitor)
                assert value >= elsewhere - 1e-9

    def test_c10_statistical_consistency(self, capsys):
        """Median identification error shrinks with sample size; at a million
        households the cross-difference is recovered to 0.02.

        Each seed's error is a Monte Carlo mean over 16 independent draws:
        a single draw per seed makes the median of five seeds too noisy to
        resolve the factor-sqrt(10) gap between the first two sample sizes
        (single-draw medians do invert for some seed choices), while the
        averaged error measures the expected-error decay itself.
        """
        with criterion(capsys, 10, "statistical consistency of identification", budget=60.0):
            margins = Margins([0.5, 0.5], [0.5, 0.5])
            phi = Surplus([[0.8473, 0.0], [0.0, 0.8473]])
            true_residual = decompose_separable(phi, margins).residual
            true_cross = 2.0 * 0.8473
            model = EntropyModel.shannon()
            replicates = 16

            medians = []
            cross_errors_at_largest = []
            for households in (1_000, 10_000, 1_000_000):
                seed_errors = []
                for seed in range(11, 16):
                    errors = []
                    cross_errors = []
                    for replicate in range(replicates):
                        _, empirical = simulate_market(
                            phi, margins, households, 1000 * seed + replicate
                        )
                        identified = identify_entropy(empirical, model)
                        # Compare canonical parts under the population margins
                        # so all sample sizes are measured on the same scale.
                        estimated = decompose_separable(
                            identified.phi_raw, margins
                        ).residual
                        errors.append(float(np.abs(estimated - true_residual).max()))
                        cross_errors.append(
                            abs(identified.diagnostics["cross_difference"] - true_cross)
                        )
                    seed_errors.append(float(np.mean(errors)))
                    if households == 1_000_000:
                        cross_errors_at_largest.append(float(np.mean(cross_errors)))
                medians.append(float(np.median(seed_errors)))
            assert medians[0] > medians[1] > medians[2]
            assert float(np.median(cross_errors_at_largest)) < 0.02
