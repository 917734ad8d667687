"""Property-based checks, derandomized so that tier-1 stays deterministic.

Markets are drawn with small integer weights and quarter-integer surpluses,
so exact ties occur; a property must then hold through them too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matchident import (
    Margins,
    Surplus,
    barycenter,
    check_rationalizable,
    is_maximizer,
    is_nonseparable,
    maximize_surplus,
)


@st.composite
def markets(draw) -> tuple[Margins, np.ndarray]:
    d_x, d_y = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    p = np.array(draw(st.lists(st.integers(1, 9), min_size=d_x, max_size=d_x)), float)
    q = np.array(draw(st.lists(st.integers(1, 9), min_size=d_y, max_size=d_y)), float)
    cells = draw(st.lists(st.integers(-20, 20), min_size=d_x * d_y, max_size=d_x * d_y))
    return Margins(p / p.sum(), q / q.sum()), np.reshape(cells, (d_x, d_y)) / 4.0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(market=markets(), exponent=st.floats(-12.0, 12.0))
def test_surplus_verdicts_are_invariant_under_rescaling(market, exponent):
    """The LP vertex, separability and the verdicts on the vertex and the
    barycenter are the same for ``phi`` and ``t * phi``, t in [1e-12, 1e12]."""
    margins, phi = market
    scaled = Surplus(10.0**exponent * phi)
    base = maximize_surplus(Surplus(phi), margins)
    solution = maximize_surplus(scaled, margins)
    np.testing.assert_array_equal(solution.mu_opt.mu, base.mu_opt.mu)
    assert is_nonseparable(scaled, margins) == is_nonseparable(Surplus(phi), margins)
    verdict = check_rationalizable(solution.mu_opt)
    assert verdict.rationalizable and verdict.checks.maximizer
    assert is_maximizer(scaled, base.mu_opt)
    bary = barycenter(margins)
    assert is_maximizer(scaled, bary) == is_maximizer(Surplus(phi), bary)
