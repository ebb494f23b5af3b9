import hashlib

import numpy as np
import pytest
from _support import rational_basis_audit
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from cosparse_grip import simplex, solvers
from cosparse_grip.simplex import (
    LpInfeasibleError,
    LpUnboundedError,
    solve_standard_lp,
)
from cosparse_grip.solvers import _build_lp, _lp_start


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


def two_phase(mp):
    """Send equality LPs through solve_standard_lp's two phases, as
    solve_lp_certified does when the closed-form start is refused."""
    start = solvers._lp_start

    def dantzig_only(d_block, phi, con):
        return None if con.kind == "equality" else start(d_block, phi, con)

    mp.setattr(solvers, "_lp_start", dantzig_only)


@pytest.mark.parametrize("family_seed, j", _DRIFT_CASES)
def test_formerly_drifting_lps_are_solved(family_seed, j):
    instance = family_instance(family_seed, j)
    res = assert_optimal_answer(*instance)
    assert res.certified
    assert abs(res.certification_gap) <= 1e-9
    if instance[3].kind == "equality":
        with pytest.MonkeyPatch.context() as mp:
            two_phase(mp)
            res = assert_optimal_answer(*instance)
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
    # the classic degenerate instance on which largest-coefficient pricing
    # cycles; this guards the Bland fallback, which must break the cycle
    # and terminate at objective -1/20
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


@pytest.mark.parametrize("p, k, optimum", [
    # a 125x300 equality LP (100x50 tight frame, m=25, k=60), 225x400 and
    # at MAX_LP_VARIABLES in the form with two slack rows per coordinate,
    # on which smallest-index pricing from an all-artificial basis stalled
    # for 107,211 pivots
    (100, 60, 5.004983055861394),
    # 175x400 (150x50 tight frame, m=25, k=110) at MAX_LP_VARIABLES; with
    # only zero-cost unit columns in the crash, every analysis row starts
    # on an artificial and this took 42,796 pivots
    (150, 110, 6.12441549886439),
], ids=["125x300", "175x400"])
def test_equality_lp_at_the_variable_budget(p, k, optimum):
    # optimum is the HiGHS optimum of the same LP, solved from the
    # closed-form start and in two phases
    d = cg.make_dictionary("tight-frame", p, 50, 1)
    phi = cg.make_sensing_matrix("gaussian", 25, 50, 2)
    x = cg.sample_cosparse_signal(d, k, 3)
    inv = np.linalg.inv
    for start in (True, False):
        inverses = []
        with pytest.MonkeyPatch.context() as mp:
            if not start:
                two_phase(mp)
            mp.setattr(np.linalg, "inv", lambda m: inverses.append(m.shape) or inv(m))
            res = cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", phi.entries @ x))
        assert res.certified
        assert res.objective == pytest.approx(optimum, abs=1e-8)
        assert res.iterations <= 5000
        # B^-1 is carried between pivots by rank-one updates: about one
        # fresh inverse per _REFACTOR_EVERY pivots, not one per pivot (196
        # and 320 pivots from the start, 371 and 601 in two phases)
        assert len(inverses) <= 40


def test_crash_takes_unit_columns_that_carry_a_cost(monkeypatch):
    # every row's only unit column costs 1, as s- does on an analysis row:
    # the crash takes them all, so phase 1 is skipped and _pivot_to_optimum
    # runs once, for phase 2
    calls = []
    pivot = simplex._pivot_to_optimum
    monkeypatch.setattr(simplex, "_pivot_to_optimum", lambda *args: calls.append(1) or pivot(*args))
    c = np.array([0.0, 0.0, 1.0, 1.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    sol = solve_standard_lp(c, a, np.array([4.0, 2.0]))
    assert len(calls) == 1
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.x, [3.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_lp_has_one_row_per_analysis_coordinate():
    # equality: (p + m) x (2n + 2p); dantzig: (p + 2n) x (4n + 2p)
    for j, shape in ((0, (14 + 6, 2 * 10 + 2 * 14)), (1, (14 + 2 * 10, 4 * 10 + 2 * 14))):
        d, phi, _, con = family_instance(11, j)
        c, a, b = _build_lp(d.entries, phi.entries, con)
        assert a.shape == shape and c.shape == (shape[1],) and b.shape == (shape[0],)
        assert c.sum() == 2 * 14


@st.composite
def crash_lps(draw):
    """A small feasible-or-not LP with integer data built to exercise the
    crash and the drive-out: unit columns with zero and nonzero cost
    shuffled among dense ones, zero and negative right-hand sides (a
    negative one flips its row, so a +1 slack there becomes -1), and
    optionally a multiple of one row inserted anywhere. Returns
    (c, a, b, dependent pair of row indices or None)."""
    m = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    signed = draw(st.booleans())  # else every cost is >= 0
    columns, costs = [], []
    for _ in range(draw(st.integers(1, 4))):
        columns.append(np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=float))
        costs.append(draw(st.integers(-2 if signed else 0, 3)))
    for i in range(m):
        for _ in range(draw(st.integers(0, 2))):
            col = np.zeros(m)
            col[i] = draw(st.sampled_from([1.0, -1.0]))
            columns.append(col)
            costs.append(draw(st.sampled_from([0, 0, 1, 2, -1 if signed else 0])))
    order = draw(st.permutations(range(len(columns))))
    a = np.column_stack([columns[k] for k in order])
    c = np.array([costs[k] for k in order], dtype=float)
    pair = None
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        r = draw(st.integers(0, m))
        a = np.insert(a, r, draw(st.sampled_from([1.0, 2.0, -1.0])) * a[i], axis=0)
        pair = (i + (r <= i), r)
    x0 = np.array(draw(st.lists(st.integers(0, 2), min_size=a.shape[1], max_size=a.shape[1])))
    b = a @ x0
    if draw(st.integers(0, 4)) == 0:  # sometimes off the cone of a: infeasible
        b[draw(st.integers(0, b.size - 1))] += draw(st.sampled_from([1.0, -1.0]))
    return c, a, b, pair


@given(crash_lps())
@settings(max_examples=200, deadline=None)
def test_crash_and_drive_out_match_highs(lp):
    scipy_opt = pytest.importorskip("scipy.optimize")
    c, a, b, pair = lp
    ref = scipy_opt.linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * c.size, method="highs")
    if ref.status == 2:
        with pytest.raises(LpInfeasibleError):
            solve_standard_lp(c, a, b)
        return
    if ref.status == 3:
        with pytest.raises(LpUnboundedError):
            solve_standard_lp(c, a, b)
        return
    assert ref.status == 0
    sol = solve_standard_lp(c, a, b)
    assert sol.objective == pytest.approx(ref.fun, abs=1e-8)
    assert sol.x.min() >= 0.0
    assert np.abs(a @ sol.x - b).max(initial=0.0) <= 1e-9
    pi = sol.multipliers
    assert (a.T @ pi <= c + 1e-9).all()
    assert float(b @ pi) == pytest.approx(sol.objective, abs=1e-9)
    if pair is not None and np.linalg.matrix_rank(a) == a.shape[0] - 1:
        # exactly one row is dropped, and it is one of the pair
        assert pi[pair[0]] == 0.0 or pi[pair[1]] == 0.0
    # zero-cost slacks on every (sign-flipped) row and costs >= 0: the
    # crash basis is optimal as it stands
    flipped = a * np.where(b < 0, -1.0, 1.0)[:, None]
    unit = (c == 0) & (np.count_nonzero(flipped, axis=0) == 1) & (flipped.sum(axis=0) == 1.0)
    if (c >= 0).all() and np.count_nonzero(flipped[:, unit], axis=1).all():
        assert sol.pivots == 0


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


# ---------------------------------------------------------------------------
# B^-1 carried by rank-one updates: _REFACTOR_EVERY = 1 inverts afresh at
# every pivot, the reference the default interval must reproduce


def _solve_or_raise(c, a, b):
    try:
        return solve_standard_lp(c, a, b)
    except (LpInfeasibleError, LpUnboundedError) as err:
        return type(err)


@given(crash_lps())
@example(  # exact tie: fresh inverses price -0.9999999999999998 vs -1.0
    lp=(
        np.zeros(5),
        np.array(
            [[0.0, 0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0],
             [0.0, 1.0, 1.0, 0.0, -2.0], [0.0, 2.0, -1.0, 1.0, -3.0]]
        ),
        np.array([2.0, 0.0, -2.0, -3.0]),
        None,
    )
)
@settings(max_examples=200, deadline=None)
def test_updated_inverse_matches_fresh_inverses(lp):
    # the same verdict and optimum; the bits match unless two reduced
    # costs or ratios tie exactly, as integer data can make them, and
    # roundoff in one inverse or the other breaks the tie (2 of 3000
    # examples), so the bits are pinned on the certification family below
    c, a, b, _ = lp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_REFACTOR_EVERY", 1)
        ref = _solve_or_raise(c, a, b)
    got = _solve_or_raise(c, a, b)
    if isinstance(ref, type):
        assert got is ref
        return
    assert got.objective == pytest.approx(ref.objective, abs=1e-9)
    assert np.abs(a @ got.x - b).max(initial=0.0) <= 1e-9
    assert (a.T @ got.multipliers <= c + 1e-9).all()


def test_updated_inverse_matches_fresh_inverses_on_certification_family(monkeypatch):
    instances = [family_instance(fs, j) for fs in (1, 2, 3) for j in range(100)]
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
    ref = [cg.solve_lp_certified(phi, d, con) for d, phi, _, con in instances]
    monkeypatch.undo()
    for (d, phi, _, con), r in zip(instances, ref):
        res = cg.solve_lp_certified(phi, d, con)
        assert res.x_hat.tobytes() == r.x_hat.tobytes()
        assert res.iterations == r.iterations


def test_drift_cases_solve_with_updates_alone(monkeypatch):
    # with the periodic refactor pushed out of reach, B^-1 is inverted
    # afresh only on entry and before each verdict, and carried by
    # updates everywhere else
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 10**9)
    for family_seed, j in _DRIFT_CASES:
        res = assert_optimal_answer(*family_instance(family_seed, j))
        assert res.certified, (family_seed, j)
        assert abs(res.certification_gap) <= 1e-9, (family_seed, j)


def test_every_verdict_is_taken_on_a_fresh_inverse(monkeypatch):
    # the last change to B^-1 before _pivot_to_optimum returns optimal or
    # raises LpUnboundedError is a fresh inverse, never a rank-one update
    events = []
    inv, update, pivot = np.linalg.inv, simplex._update_inverse, simplex._pivot_to_optimum

    def logged(*args):
        try:
            return pivot(*args)
        finally:
            events.append("verdict")

    monkeypatch.setattr(np.linalg, "inv", lambda m: events.append("inv") or inv(m))
    monkeypatch.setattr(simplex, "_update_inverse", lambda *args: events.append("update") or update(*args))
    monkeypatch.setattr(simplex, "_pivot_to_optimum", logged)
    for j in range(10):
        d, phi, _, con = family_instance(11, j)
        cg.solve_lp_certified(phi, d, con)
    # x2 = x4 grows without bound, found after x1 enters at a positive step
    with pytest.raises(LpUnboundedError):
        solve_standard_lp(
            np.array([-1.0, -1.0, 0.0, 0.0]),
            np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]),
            np.array([1.0, 0.0]),
        )
    assert "update" in events
    for i in (i for i, e in enumerate(events) if e == "verdict"):
        assert next(e for e in reversed(events[:i]) if e != "verdict") == "inv"


# ---------------------------------------------------------------------------
# the bits of the LP route, pinned: sha256 per family seed of x,
# multipliers and pivots from solve_standard_lp on every LP of the family,
# and of x_hat, iterations, dual_residual and certification_gap of each
# dantzig solve_lp_certified. Taken before the pivot loop dropped its
# redundant numpy calls (flatnonzero, np.argmin, np.outer, c[basis] per
# pivot), the dantzig ones again when dantzig LPs began at the purified
# closed-form start; a moved digest is a change of numerics to record.
_LP_DIGESTS = {
    1: ("554de844559e5ee47a125e68b49903635a1ff7852eaac351b3300de24ffe5fb6",
        "deb1a499c37227ee669528cef5754a1a82d1e0a155dc1ad171bf014ca4bf63c6"),
    2: ("66fd732fe50177c6233c960869f7fbd538abc43fa7cc8eee677b155f9e5fb889",
        "a825ccfed857919a79f8e2fb89e32585b71b3d9170e73dfa7134ac1f03487ed8"),
    3: ("d472399e676b91dae6d8b5a766ad35d8eb3ef2e8a158eb036e79347f7c83c094",
        "456fa50fdf5c567a612c8a7a41abd8d03c800ea511726d1cdfa631f2220c63c3"),
}


@pytest.mark.parametrize("family_seed", sorted(_LP_DIGESTS))
def test_lp_route_bits_are_pinned(family_seed):
    lp, dantzig = hashlib.sha256(), hashlib.sha256()
    for j in range(100):
        d, phi, _, con = family_instance(family_seed, j)
        sol = solve_standard_lp(*_build_lp(d.entries, phi.entries, con))
        lp.update(sol.x.astype("<f8").tobytes() + sol.multipliers.astype("<f8").tobytes())
        lp.update(np.array([sol.pivots], "<i8").tobytes())
        if con.kind == "dantzig":
            res = cg.solve_lp_certified(phi, d, con)
            dantzig.update(res.x_hat.astype("<f8").tobytes())
            dantzig.update(np.array([res.iterations], "<i8").tobytes())
            dantzig.update(np.array([res.dual_residual, res.certification_gap], "<f8").tobytes())
    assert (lp.hexdigest(), dantzig.hexdigest()) == _LP_DIGESTS[family_seed]


# ---------------------------------------------------------------------------
# the closed-form start of equality LPs: phase 2 alone from a vertex


def _count_pivot_runs(mp) -> list:
    calls = []
    pivot = simplex._pivot_to_optimum
    mp.setattr(simplex, "_pivot_to_optimum", lambda *args: calls.append(1) or pivot(*args))
    return calls


def test_equality_lps_skip_phase_one(monkeypatch):
    calls = _count_pivot_runs(monkeypatch)
    for family_seed in (1, 2, 3):
        for j in range(0, 100, 2):
            d, phi, _, con = family_instance(family_seed, j)
            calls.clear()
            res = cg.solve_lp_certified(phi, d, con)
            assert len(calls) == 1, (family_seed, j)
            assert res.certified, (family_seed, j)


def test_dantzig_lps_skip_phase_one(monkeypatch):
    # the purified closed-form start: one _pivot_to_optimum run, phase 2
    calls = _count_pivot_runs(monkeypatch)
    for family_seed in (1, 2, 3):
        for j in range(1, 100, 2):
            d, phi, _, con = family_instance(family_seed, j)
            calls.clear()
            res = cg.solve_lp_certified(phi, d, con)
            assert len(calls) == 1, (family_seed, j)
            assert res.certified, (family_seed, j)


def test_rank_deficient_dantzig_lp_takes_two_phases(monkeypatch):
    # a repeated measurement row: no m independent columns, so the dantzig
    # LP has no closed-form start and phase 1 runs
    d = cg.make_dictionary("tight-frame", 14, 10, 5)
    entries = cg.make_sensing_matrix("gaussian", 6, 10, 6).entries.copy()
    entries[5] = entries[2]
    phi = cg.SensingMatrix(entries, "user-supplied")
    x = cg.sample_cosparse_signal(d, 5, 7)
    con = cg.ConstraintSpec("dantzig", entries @ x, lam=0.1)
    assert _lp_start(d.entries, entries, con) is None
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 2
    assert res.certified


def test_dantzig_start_at_lambda_zero_is_degenerate(monkeypatch):
    # lam = 0 and Phi of full row rank: Phi^T Phi z = Phi^T y is Phi z = y,
    # so the dantzig LP is the equality LP and every t+- starts at 0
    d, phi, x, eq = family_instance(11, 0)
    con = cg.ConstraintSpec("dantzig", eq.y, lam=0.0)
    c, a, b = _build_lp(d.entries, phi.entries, con)
    basis, superbasic, values = _lp_start(d.entries, phi.entries, con)
    xb = np.linalg.solve(a[:, basis], b - a[:, superbasic] @ values)
    assert np.abs(xb[14:]).max() <= 1e-12 * max(1.0, np.abs(xb).max())
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 1
    assert res.certified
    ref = cg.solve_lp_certified(phi, d, eq)
    assert res.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)


@st.composite
def dantzig_lps(draw):
    """A random dantzig LP of _build_lp: n 4-10, p n to n+6, m 2 to n-1,
    a tight-frame or gaussian-random D, and lam 0, 1e-3, U(0.01, 1) or
    past ||Phi^T y||_inf, where z = 0 is feasible and the optimum is 0."""
    n = draw(st.integers(4, 10))
    p = draw(st.integers(n, n + 6))
    m = draw(st.integers(2, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["tight-frame", "gaussian-random"]))
    d = cg.make_dictionary(kind, p, n, cg.trial_seed(seed, 0))
    phi = cg.make_sensing_matrix("gaussian", m, n, cg.trial_seed(seed, 1)).entries
    y = phi @ np.random.default_rng(seed).standard_normal(n)
    lam = draw(st.sampled_from([0.0, 1e-3, None, "past"]))
    if lam is None:
        lam = draw(st.floats(0.01, 1.0))
    elif lam == "past":
        lam = 2.0 * float(np.abs(phi.T @ y).max()) + 1.0
    return d.entries, phi, cg.ConstraintSpec("dantzig", y, lam=lam)


@given(dantzig_lps())
@settings(max_examples=100, deadline=None)
def test_closed_form_start_matches_two_phases(lp):
    # both LP kinds on each draw's operators, the equality one with the
    # same y = Phi (a draw): one phase-2 run from _lp_start's point, at the
    # two-phase optimum; the equality start is a vertex already
    d_block, phi, dantzig = lp
    for con in (cg.ConstraintSpec("equality", dantzig.y), dantzig):
        c, a, b = _build_lp(d_block, phi, con)
        start = _lp_start(d_block, phi, con)
        assert start is not None
        if con.kind == "equality":
            xb = np.linalg.solve(a[:, start[0]], b)
            assert xb.min() >= -1e-12 * max(1.0, np.abs(xb).max())
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_pivot_runs(mp)
            sol = simplex._solve_from(c, a, b, *start)
        assert sol is not None
        assert len(calls) == 1
        ref = solve_standard_lp(c, a, b)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
        assert np.abs(a @ sol.x - b).max() <= 1e-9 * max(1.0, np.abs(b).max())
    if dantzig.lam > np.abs(phi.T @ dantzig.y).max():
        assert sol.objective <= 1e-9


def test_start_steps_past_a_singular_leading_block(monkeypatch):
    # +-1 entries with column 1 = column 0: the leading 6x6 block is
    # singular, Phi has rank 6, and elimination takes a later column
    d = cg.make_dictionary("tight-frame", 14, 10, 5)
    entries = cg.make_sensing_matrix("bernoulli", 6, 10, 6).entries.copy()
    entries[:, 1] = entries[:, 0]
    assert np.linalg.matrix_rank(entries[:, :6]) < 6 == np.linalg.matrix_rank(entries)
    phi = cg.SensingMatrix(entries, "user-supplied")
    x = cg.sample_cosparse_signal(d, 5, 7)
    con = cg.ConstraintSpec("equality", entries @ x)
    basis, _, _ = _lp_start(d.entries, entries, con)
    picked = basis[14:] % 10
    assert 1 not in picked and picked.max() >= 6
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 1
    assert res.certified


def test_rank_deficient_measurements_take_two_phases(monkeypatch):
    # a repeated measurement row, y in the range of Phi: no m independent
    # columns, so phase 1 runs and drops the dependent row
    d = cg.make_dictionary("tight-frame", 14, 10, 5)
    entries = cg.make_sensing_matrix("gaussian", 6, 10, 6).entries.copy()
    entries[5] = entries[2]
    phi = cg.SensingMatrix(entries, "user-supplied")
    x = cg.sample_cosparse_signal(d, 5, 7)
    con = cg.ConstraintSpec("equality", entries @ x)
    assert _lp_start(d.entries, entries, con) is None
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 2
    assert res.certified


def test_an_infeasible_start_is_refused():
    # z+_j and z-_j swapped for one j with z_j far from 0: B^-1 b holds
    # -|z_j|, so phase 2 cannot start there
    d, phi, _, con = family_instance(11, 0)
    c, a, b = _build_lp(d.entries, phi.entries, con)
    start, _, _ = _lp_start(d.entries, phi.entries, con)
    assert simplex._solve_from(c, a, b, start, (), ()) is not None
    xb = np.linalg.solve(a[:, start], b)
    r = 14 + int(np.argmax(xb[14:]))
    start[r] = (start[r] + 10) % 20
    assert simplex._solve_from(c, a, b, start, (), ()) is None


@pytest.mark.parametrize("family_seed, j, start", [
    (11, 0, True),    # equality, phase 2 from the closed-form start
    (11, 1, True),    # dantzig, phase 2 from the purified start
    (11, 1, False),   # dantzig, two phases
    (11, 48, False),  # a drift case, equality in two phases
])
def test_final_basis_is_optimal_in_exact_arithmetic(family_seed, j, start):
    # no tolerance: a negative entry is a finding, not roundoff to allow
    d, phi, _, con = family_instance(family_seed, j)
    c, a, b = _build_lp(d.entries, phi.entries, con)
    if start:
        sol = simplex._solve_from(c, a, b, *_lp_start(d.entries, phi.entries, con))
    else:
        sol = solve_standard_lp(c, a, b)
    x_b, reduced = rational_basis_audit(c, a, b, sol.basis)
    assert min(x_b) >= 0
    assert min(reduced) >= 0
