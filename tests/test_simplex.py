import numpy as np
import pytest

import cosparse_grip as cg
from cosparse_grip.simplex import (
    LpInfeasibleError,
    LpUnboundedError,
    solve_standard_lp,
)
from cosparse_grip.solvers import _build_lp


def test_hand_worked_lp():
    # max x1 + 2 x2 with x1 + x2 <= 4, x1 <= 2, slacks appended
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    b = np.array([4.0, 2.0])
    sol = solve_standard_lp(c, a, b)
    assert sol.objective == pytest.approx(-8.0, abs=1e-12)
    assert np.allclose(sol.x[:2], [0.0, 4.0], atol=1e-12)
    assert sol.pivots >= 1


def test_solution_invariants():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 7))
    x0 = np.abs(rng.standard_normal(7))
    b = a @ x0  # feasible by construction
    c = np.abs(rng.standard_normal(7)) + 0.1  # positive costs: bounded
    sol = solve_standard_lp(c, a, b)
    assert np.linalg.norm(a @ sol.x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))
    assert sol.x.min() >= -1e-12
    assert sol.objective == pytest.approx(float(c @ sol.x), abs=1e-12)
    assert sol.objective <= float(c @ x0) + 1e-9


# (family seed, instance) pairs of the certification family below on which
# a simplex that updates a tableau in place drifted: it raised
# LpUnboundedError on these bounded LPs or returned an infeasible point
_DRIFT_CASES = [
    (1, 7), (1, 47), (2, 35), (2, 68), (2, 93), (3, 23), (3, 39), (3, 67),
    (4, 71), (4, 73), (4, 84), (5, 23), (5, 48), (5, 96), (7, 36), (7, 42),
    (7, 75), (8, 25), (8, 78), (8, 81), (8, 94), (9, 3), (9, 57), (9, 58),
    (9, 62), (10, 16), (10, 55), (10, 78), (10, 89), (10, 91), (11, 48),
    (11, 55),
]


def family_instance(family_seed: int, j: int):
    """Instance j of a certification family: a 14x10 tight frame, a 6x10
    gaussian sensing matrix and a 5-cosparse signal; even j are equality
    constrained, odd j dantzig with lambda 0.1."""
    s = cg.trial_seed(family_seed, j)
    d = cg.make_dictionary("tight-frame", 14, 10, cg.trial_seed(s, 0))
    phi = cg.make_sensing_matrix("gaussian", 6, 10, cg.trial_seed(s, 1))
    x = cg.sample_cosparse_signal(d, 5, cg.trial_seed(s, 2))
    y = phi.entries @ x
    if j % 2 == 0:
        return d, phi, x, cg.ConstraintSpec("equality", y)
    return d, phi, x, cg.ConstraintSpec("dantzig", y, lam=0.1)


def test_matches_scipy_on_random_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    lps = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 9))
        b = a @ np.abs(rng.standard_normal(9))
        c = np.abs(rng.standard_normal(9)) + 0.05
        lps.append((c, a, b))
    for j in (48, 55):
        d, phi, _, constraint = family_instance(11, j)
        lps.append(_build_lp(d.entries, phi.entries, constraint))
    for c, a, b in lps:
        ours = solve_standard_lp(c, a, b)
        ref = scipy_opt.linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * len(c), method="highs")
        assert ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-8)


def assert_optimal_answer(d, phi, x, constraint):
    """solve_lp_certified returns a feasible point no worse than x; the
    result is returned for further checks."""
    res = cg.solve_lp_certified(phi, d, constraint)
    y = constraint.y
    r = phi.entries @ res.x_hat - y
    if constraint.kind == "equality":
        violation = float(np.linalg.norm(r))
    else:
        violation = max(0.0, float(np.max(np.abs(phi.entries.T @ r))) - constraint.lam)
    assert violation <= 1e-7 * max(1.0, float(np.linalg.norm(y)))
    l1_truth = float(np.sum(np.abs(d.entries @ x)))
    l1_hat = float(np.sum(np.abs(d.entries @ res.x_hat)))
    assert l1_hat <= l1_truth + 1e-8 * max(1.0, l1_truth)
    return res


@pytest.mark.parametrize("family_seed, j", _DRIFT_CASES)
def test_formerly_drifting_lps_are_solved(family_seed, j):
    res = assert_optimal_answer(*family_instance(family_seed, j))
    assert res.certified
    assert abs(res.certification_gap) <= 1e-9


def test_pricing_tolerance_scales_with_multipliers():
    # a 40x20 tight frame: phase 1 meets a basis whose multipliers reach
    # 1.4e6, where an absolute entering threshold of 1e-9 lets a reduced
    # cost of -2.1e-9, pure roundoff, enter; its column has no positive
    # entry, and this bounded LP was reported unbounded
    d = cg.make_dictionary("tight-frame", 40, 20, 63)
    phi = cg.make_sensing_matrix("gaussian", 10, 20, 1063)
    x = cg.sample_cosparse_signal(d, 25, 2063)
    assert_optimal_answer(d, phi, x, cg.ConstraintSpec("dantzig", phi.entries @ x, lam=0.1))


def test_infeasible_detected():
    with pytest.raises(LpInfeasibleError):
        solve_standard_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    # inconsistent pair of rows
    with pytest.raises(LpInfeasibleError):
        solve_standard_lp(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([1.0, 2.0]),
        )


def test_unbounded_detected():
    # x1 free to grow: only x2 is pinned
    with pytest.raises(LpUnboundedError):
        solve_standard_lp(
            np.array([-1.0, 0.0]),
            np.array([[0.0, 1.0]]),
            np.array([1.0]),
        )
    with pytest.raises(LpUnboundedError):
        solve_standard_lp(np.array([-1.0, 2.0]), np.zeros((0, 2)), np.zeros(0))


def test_redundant_rows_are_dropped():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])  # second row dependent
    b = np.array([2.0, 4.0])
    sol = solve_standard_lp(np.array([1.0, 2.0]), a, b)
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(sol.x, [2.0, 0.0], atol=1e-12)


def test_beale_cycling_example_terminates():
    # the classic degenerate instance that cycles under naive pivoting;
    # Bland's rule must terminate at objective -1/20
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    sol = solve_standard_lp(c, a, b)
    assert sol.objective == pytest.approx(-0.05, abs=1e-12)


def test_zero_rhs_solves_trivially():
    sol = solve_standard_lp(
        np.array([1.0, 1.0]), np.array([[1.0, -1.0]]), np.array([0.0])
    )
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    # no rows at all: the empty basis is optimal for nonnegative costs
    sol = solve_standard_lp(np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros(0))
    assert sol.objective == 0.0 and sol.pivots == 0


def test_input_validation():
    with pytest.raises(ValueError):
        solve_standard_lp(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        solve_standard_lp(np.array([1.0, 2.0]), np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))
