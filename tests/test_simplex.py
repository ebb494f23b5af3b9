import hashlib

import numpy as np
import pytest
from _support import highs_lp, rational_basis_audit, reference_pivot_to_optimum, reference_purify
from hypothesis import given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from cosparse_grip import simplex
from cosparse_grip.simplex import LpUnboundedError
from cosparse_grip.solvers import _build_lp, _lp_start


def solve_from_basis(c, a, b, basis):
    """_solve_from from the vertex of basis, with no superbasic columns."""
    return simplex._solve_from(c, a, b, np.array(basis, dtype=int), (), ())


def interior_start(a, x0):
    """A start of the LP with b = a x0, x0 > 0: the first m columns of a
    (nonsingular for gaussian a) as the basis, the rest superbasic at x0,
    so x_B = x0[:m] > 0."""
    m = a.shape[0]
    return np.arange(m), np.arange(m, a.shape[1]), x0[m:]


def test_hand_worked_lp():
    # max x1 + 2 x2 with x1 + x2 <= 4, x1 <= 2, slacks appended
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    b = np.array([4.0, 2.0])
    sol = solve_from_basis(c, a, b, [2, 3])  # the slacks
    assert sol.objective == pytest.approx(-8.0, abs=1e-12)
    assert np.allclose(sol.x[:2], [0.0, 4.0], atol=1e-12)
    assert sol.pivots >= 1


def test_solution_invariants():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 7))
    x0 = np.abs(rng.standard_normal(7))
    b = a @ x0  # feasible by construction
    c = np.abs(rng.standard_normal(7)) + 0.1  # positive costs: bounded
    sol = simplex._solve_from(c, a, b, *interior_start(a, x0))
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
    lps = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 9))
        x0 = np.abs(rng.standard_normal(9))
        c = np.abs(rng.standard_normal(9)) + 0.05
        lps.append((c, a, a @ x0, interior_start(a, x0)))
    for j in (48, 55):
        d, phi, _, constraint = family_instance(11, j)
        lps.append((*_build_lp(d.entries, phi.entries, constraint), _lp_start(d.entries, phi.entries, constraint)[2:]))
    for c, a, b, start in lps:
        ours = simplex._solve_from(c, a, b, *start)
        ref = highs_lp(c, a, b)
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
    # a 40x20 tight frame: solved in two phases, this LP met a basis whose
    # multipliers reached 1.4e6, where an absolute entering threshold of
    # 1e-9 let a reduced cost of -2.1e-9, pure roundoff, enter; its column
    # had no positive entry, and this bounded LP was reported unbounded.
    # From the closed-form start its multipliers stay below 700
    d = cg.make_dictionary("tight-frame", 40, 20, 63)
    phi = cg.make_sensing_matrix("gaussian", 10, 20, 1063)
    x = cg.sample_cosparse_signal(d, 25, 2063)
    assert_optimal_answer(d, phi, x, cg.ConstraintSpec("dantzig", phi.entries @ x, lam=0.1))


def test_unbounded_detected():
    # x1 free to grow: only x2 is pinned
    with pytest.raises(LpUnboundedError):
        solve_from_basis(np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]), [1])
    with pytest.raises(LpUnboundedError):
        solve_from_basis(np.array([-1.0, 2.0]), np.zeros((0, 2)), np.zeros(0), [])


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
    sol = solve_from_basis(c, a, b, [4, 5, 6])  # the slacks
    assert sol.objective == pytest.approx(-0.05, abs=1e-12)


@pytest.mark.parametrize("p, k, optimum", [
    # a 125x300 equality LP (100x50 tight frame, m=25, k=60), 225x400 and
    # at MAX_LP_VARIABLES in the form with two slack rows per coordinate,
    # on which smallest-index pricing once stalled for 107,211 pivots
    (100, 60, 5.004983055861394),
    # 175x400 (150x50 tight frame, m=25, k=110) at MAX_LP_VARIABLES, which
    # once took 42,796 pivots
    (150, 110, 6.12441549886439),
], ids=["125x300", "175x400"])
def test_equality_lp_at_the_variable_budget(p, k, optimum, monkeypatch):
    # optimum is the HiGHS optimum of the same LP
    d = cg.make_dictionary("tight-frame", p, 50, 1)
    phi = cg.make_sensing_matrix("gaussian", 25, 50, 2)
    x = cg.sample_cosparse_signal(d, k, 3)
    inv, inverses = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(m.shape) or inv(m))
    res = cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", phi.entries @ x))
    assert res.certified
    assert res.objective == pytest.approx(optimum, abs=1e-8)
    assert res.iterations <= 5000
    # B^-1 is carried between pivots by rank-one updates: about one fresh
    # inverse per _REFACTOR_EVERY pivots, not one per pivot (196 and 320
    # pivots)
    assert len(inverses) <= 40


def test_lp_has_one_row_per_analysis_coordinate():
    # equality: (p + m) x (2n + 2p); dantzig: (p + 2n) x (4n + 2p)
    for j, shape in ((0, (14 + 6, 2 * 10 + 2 * 14)), (1, (14 + 2 * 10, 4 * 10 + 2 * 14))):
        d, phi, _, con = family_instance(11, j)
        c, a, b = _build_lp(d.entries, phi.entries, con)
        assert a.shape == shape and c.shape == (shape[1],) and b.shape == (shape[0],)
        assert c.sum() == 2 * 14


@st.composite
def start_lps(draw):
    """A small LP with integer data and a known feasible start: one
    signed unit column sigma_i e_i per row and dense integer columns
    (integer data keeps exact ties in pricing and in the ratio test),
    shuffled together. b = a_S v + sigma * u for integers u >= 0 (0 makes
    a degenerate row) and, when no cost is negative, optionally some
    dense columns S superbasic at integer values v > 0, so _purify runs on
    generic data; with costs >= 0 the LP is bounded and each of _purify's
    steps meets a bound. Signed costs may make the LP unbounded. The
    start is the unit basis, at x_B = u. Returns (c, a, b, start)."""
    m = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    signed = draw(st.booleans())  # else every cost is >= 0
    columns, costs = [], []
    for _ in range(draw(st.integers(1, 4))):
        columns.append(np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=float))
        costs.append(draw(st.integers(-2 if signed else 0, 3)))
    held = [] if signed else [k for k in range(len(columns)) if draw(st.booleans())]
    values = np.array([draw(st.integers(1, 2)) for _ in held], dtype=float)
    b = sum((v * columns[k] for k, v in zip(held, values)), np.zeros(m))
    for i in range(m):
        col = np.zeros(m)
        col[i] = draw(st.sampled_from([1.0, -1.0]))
        b += col * draw(st.integers(0, 2))
        columns.append(col)
        costs.append(draw(st.sampled_from([0, 0, 1, 2, -1 if signed else 0])))
    order = np.array(draw(st.permutations(range(len(columns)))))
    at = np.argsort(order)  # at[k] is the position of column k in a
    a = np.column_stack([columns[k] for k in order])
    c = np.array([costs[k] for k in order], dtype=float)
    return c, a, b, (at[len(columns) - m :], at[held], values)


@given(start_lps())
@settings(max_examples=200, deadline=None)
def test_start_matches_highs(lp):
    c, a, b, start = lp
    ref = highs_lp(c, a, b)
    if ref.status == 3:
        with pytest.raises(LpUnboundedError):
            simplex._solve_from(c, a, b, *start)
        return
    assert ref.status == 0
    sol = simplex._solve_from(c, a, b, *start)
    assert sol.objective == pytest.approx(ref.fun, abs=1e-8)
    assert sol.x.min() >= 0.0
    assert np.abs(a @ sol.x - b).max(initial=0.0) <= 1e-9
    pi = sol.multipliers
    assert (a.T @ pi <= c + 1e-9).all()
    assert float(b @ pi) == pytest.approx(sol.objective, abs=1e-9)
    # zero-cost unit columns in the basis, no superbasic column and costs
    # >= 0: the start is optimal as it stands
    basis, superbasic, _ = start
    if (c >= 0).all() and not c[basis].any() and not superbasic.size:
        assert sol.pivots == 0


def test_zero_rhs_solves_trivially():
    sol = solve_from_basis(np.array([1.0, 1.0]), np.array([[1.0, -1.0]]), np.array([0.0]), [0])
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    # no rows at all: the empty basis is optimal for nonnegative costs
    sol = solve_from_basis(np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros(0), [])
    assert sol.objective == 0.0 and sol.pivots == 0


# ---------------------------------------------------------------------------
# B^-1 carried by rank-one updates: _REFACTOR_EVERY = 1 inverts afresh at
# every pivot, the reference the default interval must reproduce


def _solve_or_raise(c, a, b, start):
    try:
        return simplex._solve_from(c, a, b, *start)
    except LpUnboundedError as err:
        return type(err)


@given(start_lps())
@settings(max_examples=200, deadline=None)
def test_updated_inverse_matches_fresh_inverses(lp):
    # the same verdict and optimum; the bits may differ where two reduced
    # costs or ratios tie exactly, as integer data can make them, and
    # roundoff in one inverse or the other breaks the tie, so the bits are
    # pinned on the certification family below
    c, a, b, start = lp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_REFACTOR_EVERY", 1)
        ref = _solve_or_raise(c, a, b, start)
    got = _solve_or_raise(c, a, b, start)
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
    # from the unit basis, x2 = x4 grows without bound, found after x1
    # enters at a positive step
    with pytest.raises(LpUnboundedError):
        solve_from_basis(
            np.array([-1.0, -1.0, 0.0, 0.0]),
            np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]),
            np.array([1.0, 0.0]),
            [2, 3],
        )
    assert "update" in events
    for i in (i for i, e in enumerate(events) if e == "verdict"):
        assert next(e for e in reversed(events[:i]) if e != "verdict") == "inv"


# ---------------------------------------------------------------------------
# the fast paths against their references: the pivot loop and the
# purification before their numpy calls were trimmed (tests/_support), and
# the two final solves that one stacked solve replaced


def _reference_loops(mp):
    mp.setattr(simplex, "_pivot_to_optimum", reference_pivot_to_optimum)
    mp.setattr(simplex, "_purify", reference_purify)


def _solution_bytes(sol):
    if isinstance(sol, type):
        return sol
    return sol.basis.tobytes(), sol.pivots, sol.x.tobytes(), sol.multipliers.tobytes()


@given(start_lps())
@settings(max_examples=200, deadline=None)
def test_pivot_loop_matches_reference(lp):
    # the first minimum of the reduced costs is the masked argmin's entry,
    # integer ties included: the same purification steps, pivots, verdict
    # and bits
    c, a, b, start = lp
    with pytest.MonkeyPatch.context() as mp:
        _reference_loops(mp)
        ref = _solve_or_raise(c, a, b, start)
    assert _solution_bytes(_solve_or_raise(c, a, b, start)) == _solution_bytes(ref)


def test_fast_paths_match_reference_on_certification_families(monkeypatch):
    lps = [family_instance(fs, j) for fs in (1, 2, 3) for j in range(100)]

    def answers():
        out = []
        for d, phi, _, con in lps:
            res = cg.solve_lp_certified(phi, d, con)
            c, a, b = _build_lp(d.entries, phi.entries, con)
            out.append((
                res.x_hat.tobytes(), res.iterations, res.objective, res.primal_residual,
                res.dual_residual, res.certification_gap, res.certified,
                _solution_bytes(simplex._solve_from(c, a, b, *_lp_start(d.entries, phi.entries, con)[2:])),
            ))
        return out

    _reference_loops(monkeypatch)
    ref = answers()
    monkeypatch.undo()
    assert answers() == ref


def test_dantzig_start_is_its_own_inverse():
    # every dantzig start of the families is a signed identity S, whose
    # inverse is S; purified from S itself and from LAPACK's inverse (equal
    # but for the signs of zeros), the start reaches the same basis
    for family_seed in (1, 2, 3):
        for j in range(1, 100, 2):
            d, phi, _, con = family_instance(family_seed, j)
            c, a, b = _build_lp(d.entries, phi.entries, con)
            _, _, basis, superbasic, values = _lp_start(d.entries, phi.entries, con)
            start = a[:, basis]
            assert np.array_equal(np.abs(start), np.eye(basis.size)), (family_seed, j)
            assert np.array_equal(np.linalg.inv(start), start)
            fast, ref = basis.copy(), basis.copy()
            assert simplex._purify(c, a, b, fast, superbasic, values)
            assert reference_purify(c, a, b, ref, superbasic, values)
            assert np.array_equal(fast, ref), (family_seed, j)


def test_final_solve_matches_two_solves():
    # one stacked solve gives x_B and c_B B^-1 with the bits of a solve of
    # B and a solve of B^T, on the families' final bases
    for family_seed in (1, 2, 3):
        for j in range(100):
            d, phi, _, con = family_instance(family_seed, j)
            c, a, b = _build_lp(d.entries, phi.entries, con)
            sol = simplex._solve_from(c, a, b, *_lp_start(d.entries, phi.entries, con)[2:])
            final = a[:, sol.basis]
            xb = np.maximum(np.linalg.solve(final, b), 0.0)
            assert sol.x[sol.basis].tobytes() == xb.tobytes(), (family_seed, j)
            pi = np.linalg.solve(final.T, c[sol.basis])
            assert sol.multipliers.tobytes() == pi.tobytes(), (family_seed, j)


def test_lp_route_linear_algebra_calls(monkeypatch):
    # over the seed-11 family's 100 LPs: one inv
    # per LP for phase 2's entry, and one solve for _lp_start's z_J and
    # one for the final x and multipliers. Before the dantzig start was
    # taken as its own inverse and the final solves stacked, the counts
    # were 250 inv (one more per dantzig LP, for _purify) and 300 solve
    # (x and the multipliers apart)
    calls = []
    for name in ("inv", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _f=fn, _n=name: calls.append(_n) or _f(*args))
    for j in range(100):
        d, phi, _, con = family_instance(11, j)
        assert cg.solve_lp_certified(phi, d, con).certified
    assert (calls.count("inv"), calls.count("solve")) == (200, 200)


# ---------------------------------------------------------------------------
# the bits of the LP route, pinned: sha256 per family seed of x,
# multipliers and pivots from _solve_from at _lp_start's point on every LP
# of the family, and of x_hat, iterations, dual_residual and
# certification_gap of each dantzig solve_lp_certified. The dantzig ones
# were taken before the pivot loop dropped its redundant numpy calls
# (flatnonzero, np.argmin, np.outer, c[basis] per pivot), again when
# dantzig LPs began at the purified closed-form start, and held through
# the later trims (argmin pricing, the dantzig start as its own inverse,
# one stacked final solve). The first ones were taken when the two-phase
# path was deleted, at its parent commit, and held there and after. A
# moved digest is a change of numerics to record.
_LP_DIGESTS = {
    1: ("b9f2dc8e625fe7dbc5e9c28c90087561b19966aea754901264050e5f5be62428",
        "deb1a499c37227ee669528cef5754a1a82d1e0a155dc1ad171bf014ca4bf63c6"),
    2: ("73d04b3a1e2855e291f1778195f482b820284bc9e978dffea4b670f2579d3a84",
        "a825ccfed857919a79f8e2fb89e32585b71b3d9170e73dfa7134ac1f03487ed8"),
    3: ("bdeb6a9429dab140a2e44455d841016056dea12c05ab784d0d51856039b6d95d",
        "456fa50fdf5c567a612c8a7a41abd8d03c800ea511726d1cdfa631f2220c63c3"),
}


@pytest.mark.parametrize("family_seed", sorted(_LP_DIGESTS))
def test_lp_route_bits_are_pinned(family_seed):
    lp, dantzig = hashlib.sha256(), hashlib.sha256()
    for j in range(100):
        d, phi, _, con = family_instance(family_seed, j)
        kept, lp_con, *start = _lp_start(d.entries, phi.entries, con)
        assert kept == slice(None) and lp_con is con  # Phi has full row rank
        sol = simplex._solve_from(*_build_lp(d.entries, phi.entries, con), *start)
        lp.update(sol.x.astype("<f8").tobytes() + sol.multipliers.astype("<f8").tobytes())
        lp.update(np.array([sol.pivots], "<i8").tobytes())
        if con.kind == "dantzig":
            res = cg.solve_lp_certified(phi, d, con)
            dantzig.update(res.x_hat.astype("<f8").tobytes())
            dantzig.update(np.array([res.iterations], "<i8").tobytes())
            dantzig.update(np.array([res.dual_residual, res.certification_gap], "<f8").tobytes())
    assert (lp.hexdigest(), dantzig.hexdigest()) == _LP_DIGESTS[family_seed]


# ---------------------------------------------------------------------------
# the closed-form start of every LP: phase 2 alone, from a vertex or after
# purification, at any rank and shape of Phi


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


def _repeated_row_instance():
    """A 6x10 gaussian Phi whose row 5 repeats row 2 (rank 5), a 14x10
    tight frame and a 5-cosparse signal."""
    d = cg.make_dictionary("tight-frame", 14, 10, 5)
    entries = cg.make_sensing_matrix("gaussian", 6, 10, 6).entries.copy()
    entries[5] = entries[2]
    return d, cg.SensingMatrix(entries, "user-supplied"), cg.sample_cosparse_signal(d, 5, 7)


def test_rank_deficient_dantzig_lp_takes_one_run(monkeypatch):
    # z_J is the least-squares point, so Phi^T (Phi z - y) = 0 and the
    # dantzig LP keeps every row and starts at the signed identity
    d, phi, x = _repeated_row_instance()
    con = cg.ConstraintSpec("dantzig", phi.entries @ x, lam=0.1)
    kept, lp, _, superbasic, _ = _lp_start(d.entries, phi.entries, con)
    assert kept == slice(None) and lp is con and superbasic.size == 5
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 1
    assert res.certified


def test_rank_deficient_measurements_take_one_run(monkeypatch):
    # y in the range of Phi: elimination skips row 5, and the LP keeps
    # rows 0-4, at the answer of Phi's first five rows alone
    d, phi, x = _repeated_row_instance()
    con = cg.ConstraintSpec("equality", phi.entries @ x)
    kept, lp, _, _, _ = _lp_start(d.entries, phi.entries, con)
    assert kept.tolist() == [0, 1, 2, 3, 4]
    assert np.allclose(lp.y, con.y[:5], rtol=0.0, atol=1e-14)
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 1
    assert res.certified
    five = cg.solve_lp_certified(phi.entries[:5], d, cg.ConstraintSpec("equality", con.y[:5]))
    assert res.iterations == five.iterations
    assert np.allclose(res.x_hat, five.x_hat, rtol=0.0, atol=1e-12)


def test_dantzig_start_at_lambda_zero_is_degenerate(monkeypatch):
    # lam = 0 and Phi of full row rank: Phi^T Phi z = Phi^T y is Phi z = y,
    # so the dantzig LP is the equality LP and every t+- starts at 0
    d, phi, x, eq = family_instance(11, 0)
    con = cg.ConstraintSpec("dantzig", eq.y, lam=0.0)
    c, a, b = _build_lp(d.entries, phi.entries, con)
    _, _, basis, superbasic, values = _lp_start(d.entries, phi.entries, con)
    xb = np.linalg.solve(a[:, basis], b - a[:, superbasic] @ values)
    assert np.abs(xb[14:]).max() <= 1e-12 * max(1.0, np.abs(xb).max())
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 1
    assert res.certified
    ref = cg.solve_lp_certified(phi, d, eq)
    assert res.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)


@st.composite
def l1_lps(draw):
    """The operators and a dantzig constraint of a random LP of _build_lp:
    n 4-10, p n to n+6, a tight-frame or gaussian-random D, and Phi of
    one of three shapes: gaussian with m 2 to n-1 rows; rank r < m
    (m 2 to n), each row a gaussian combination of r gaussian rows; or
    gaussian with m n+1 to n+3 rows. y = Phi (a draw), and lam is 0,
    1e-3, U(0.01, 1) or past ||Phi^T y||_inf, where z = 0 is feasible and
    the optimum is 0."""
    n = draw(st.integers(4, 10))
    p = draw(st.integers(n, n + 6))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["tight-frame", "gaussian-random"]))
    d = cg.make_dictionary(kind, p, n, cg.trial_seed(seed, 0))
    rng = np.random.default_rng(cg.trial_seed(seed, 1))
    shape = draw(st.sampled_from(["wide", "dependent", "tall"]))
    if shape == "wide":
        phi = rng.standard_normal((draw(st.integers(2, n - 1)), n))
    elif shape == "dependent":
        m = draw(st.integers(2, n))
        r = draw(st.integers(1, m - 1))
        phi = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    else:
        phi = rng.standard_normal((draw(st.integers(n + 1, n + 3)), n))
    y = phi @ rng.standard_normal(n)
    lam = draw(st.sampled_from([0.0, 1e-3, None, "past"]))
    if lam is None:
        lam = draw(st.floats(0.01, 1.0))
    elif lam == "past":
        lam = 2.0 * float(np.abs(phi.T @ y).max()) + 1.0
    return d, phi, cg.ConstraintSpec("dantzig", y, lam=lam)


@given(l1_lps())
@settings(max_examples=150, deadline=None)
def test_closed_form_start_matches_highs(lp):
    # both LP kinds on each draw's operators, the equality one with the
    # same y: one phase-2 run from _lp_start's point, certified, at HiGHS's
    # optimum of the LP on all m rows. The equality LP keeps rank(Phi) rows
    # and its start is a vertex already; a y off range(Phi) is refused
    d, phi, dantzig = lp
    m, rank = phi.shape[0], np.linalg.matrix_rank(phi)
    for con in (cg.ConstraintSpec("equality", dantzig.y), dantzig):
        kept, lp, basis, _, _ = _lp_start(d.entries, phi, con)
        if con.kind == "equality":
            assert np.arange(m)[kept].size == rank
            c, a, b = _build_lp(d.entries, phi[kept], lp)
            xb = np.linalg.solve(a[:, basis], b)
            assert xb.min() >= -1e-12 * max(1.0, np.abs(xb).max())
        else:
            assert kept == slice(None) and lp is con
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_pivot_runs(mp)
            res = cg.solve_lp_certified(phi, d, con)
        assert len(calls) == 1
        assert res.certified
        ref = highs_lp(*_build_lp(d.entries, phi, con))
        assert ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-8)
    if dantzig.lam > np.abs(phi.T @ dantzig.y).max():
        assert res.objective <= 1e-9
    if rank < m:
        off = np.linalg.svd(phi)[0][:, -1]  # orthogonal to range(Phi)
        y = dantzig.y + 1e-3 * max(1.0, float(np.linalg.norm(dantzig.y))) * off
        with pytest.raises(cg.InfeasibleConstraintError, match="misses range"):
            cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", y))


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
    _, _, basis, _, _ = _lp_start(d.entries, entries, con)
    picked = basis[14:] % 10
    assert 1 not in picked and picked.max() >= 6
    calls = _count_pivot_runs(monkeypatch)
    res = assert_optimal_answer(d, phi, x, con)
    assert len(calls) == 1
    assert res.certified


def test_an_infeasible_start_is_refused():
    # z+_j and z-_j swapped for one j with z_j far from 0: B^-1 b holds
    # -|z_j|, so phase 2 cannot start there
    d, phi, _, con = family_instance(11, 0)
    c, a, b = _build_lp(d.entries, phi.entries, con)
    _, _, start, _, _ = _lp_start(d.entries, phi.entries, con)
    simplex._solve_from(c, a, b, start, (), ())
    xb = np.linalg.solve(a[:, start], b)
    r = 14 + int(np.argmax(xb[14:]))
    start[r] = (start[r] + 10) % 20
    with pytest.raises(ValueError, match="start is not feasible"):
        simplex._solve_from(c, a, b, start, (), ())


@pytest.mark.parametrize("family_seed, j", [
    (11, 0),   # equality, phase 2 from the closed-form start
    (11, 1),   # dantzig, phase 2 from the purified start
    (11, 48),  # a drift case, equality
])
def test_final_basis_is_optimal_in_exact_arithmetic(family_seed, j):
    # no tolerance: a negative entry is a finding, not roundoff to allow
    d, phi, _, con = family_instance(family_seed, j)
    c, a, b = _build_lp(d.entries, phi.entries, con)
    sol = simplex._solve_from(c, a, b, *_lp_start(d.entries, phi.entries, con)[2:])
    x_b, reduced = rational_basis_audit(c, a, b, sol.basis)
    assert min(x_b) >= 0
    assert min(reduced) >= 0
