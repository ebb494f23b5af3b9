import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from cosparse_grip import solvers
from cosparse_grip.solvers import MAX_LP_VARIABLES
from _support import campaign_trial, haar, matched_instance, reference_pdhg, solve_recovery_family


@pytest.fixture(scope="module")
def reference_instance():
    """Frozen redundant instance shared by the oracle tests."""
    phi = cg.make_sensing_matrix("gaussian", 6, 10, 42)
    d = cg.make_dictionary("tight-frame", 14, 10, 3)
    x = cg.sample_cosparse_signal(d, 5, 5)
    return phi, d, x, phi.entries @ x


# ---------------------------------------------------------------------------
# constraint construction


def test_constraint_spec_validation():
    y = np.ones(3)
    cg.ConstraintSpec("equality", y)
    cg.ConstraintSpec("l2-ball", y, epsilon=0.5)
    cg.ConstraintSpec("dantzig", y, lam=0.0)  # zero cap is legal
    with pytest.raises(ValueError):
        cg.ConstraintSpec("l2-ball", y, epsilon=0.0)
    with pytest.raises(ValueError):
        cg.ConstraintSpec("dantzig", y, lam=-0.1)
    with pytest.raises(ValueError):
        cg.ConstraintSpec("box", y)
    with pytest.raises(ValueError):
        cg.ConstraintSpec("equality", np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="epsilon must be finite"):
        cg.ConstraintSpec("l2-ball", y, epsilon=math.inf)
    with pytest.raises(ValueError, match="lam must be finite"):
        cg.ConstraintSpec("dantzig", y, lam=math.inf)
    spec = cg.ConstraintSpec("equality", y)
    with pytest.raises(ValueError):
        spec.y[0] = 2.0


# ---------------------------------------------------------------------------
# first-order route against frozen and live oracles


def test_equality_objective_matches_frozen_vertex(reference_instance):
    phi, d, x, y = reference_instance
    res = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", y))
    assert res.converged
    # vertex value from the exact simplex, cross-checked against an
    # interior-point solve at build time
    assert res.objective == pytest.approx(1.800759346685715, abs=5e-8)
    assert np.linalg.norm(phi.entries @ res.x_hat - y) <= 1e-7 * np.linalg.norm(y)


def test_ball_objective_matches_frozen_oracle(reference_instance):
    phi, d, x, y = reference_instance
    res = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("l2-ball", y, epsilon=0.1))
    assert res.converged
    assert res.objective == pytest.approx(1.476490643, abs=5e-8)
    assert np.linalg.norm(phi.entries @ res.x_hat - y) <= 0.1 + 1e-7


def test_ball_objective_matches_live_convex_solver(reference_instance):
    cp = pytest.importorskip("cvxpy")
    phi, d, x, y = reference_instance
    z = cp.Variable(10)
    prob = cp.Problem(
        cp.Minimize(cp.norm1(d.entries @ z)),
        [cp.norm(phi.entries @ z - y) <= 0.1],
    )
    prob.solve(solver=cp.CLARABEL)
    res = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("l2-ball", y, epsilon=0.1))
    assert res.objective == pytest.approx(prob.value, abs=5e-8)


def test_ball_wider_radius_never_increases_objective(reference_instance):
    phi, d, x, y = reference_instance
    narrow = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("l2-ball", y, epsilon=0.05))
    wide = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("l2-ball", y, epsilon=0.5))
    assert wide.objective <= narrow.objective + 1e-8


def test_first_order_rejects_dantzig(reference_instance):
    phi, d, x, y = reference_instance
    with pytest.raises(ValueError):
        cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("dantzig", y, lam=0.1))
    with pytest.raises(ValueError):
        cg.solve_synthesis_l1(phi, d, cg.ConstraintSpec("dantzig", y, lam=0.1))


def test_toy_identity_instance_recovers_data():
    phi_raw = np.eye(1)  # square sensing: raw-array escape hatch
    d = cg.Dictionary(np.eye(1), "identity")
    res = cg.solve_analysis_l1(phi_raw, d, cg.ConstraintSpec("equality", np.array([2.0])))
    assert res.x_hat[0] == pytest.approx(2.0, abs=1e-7)
    assert res.objective == pytest.approx(2.0, abs=1e-7)


def test_exact_recovery_on_matched_instance():
    d, phi = matched_instance(10, 9, 4)
    x = cg.sample_cosparse_signal(d, 2, 5)
    res = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", phi.entries @ x))
    assert res.converged
    assert np.linalg.norm(res.x_hat - x) <= 1e-6


def test_pdhg_deterministic(reference_instance):
    phi, d, x, y = reference_instance
    a = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", y))
    b = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", y))
    assert np.array_equal(a.x_hat, b.x_hat)
    assert a.iterations == b.iterations


def test_equality_scaling_equivariance(reference_instance):
    phi, d, x, y = reference_instance
    res1 = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", y))
    res2 = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", 3.0 * y))
    assert res2.objective == pytest.approx(3.0 * res1.objective, rel=1e-6)
    assert np.linalg.norm(res2.x_hat - 3.0 * res1.x_hat) <= 1e-5


def test_first_order_route_is_scale_invariant():
    # min ||Dz||_1 s.t. z in B(y) is positively homogeneous: scaling y and
    # epsilon by s scales the optimum by s. Unscaled, on the seed-11
    # recovery family the route failed 51 of these 72 solves: equality at
    # 1e9 returned 4 uncertified answers (up to 31 % above s times the
    # unit optimum), equality at 1e12 23 and the l2 ball at 1e12 all 24,
    # each after one iteration (up to 43 % and 81 % above); solved in the
    # band of solvers._to_band, none fails
    failed = []
    for i in range(24):
        phi, d, spec = campaign_trial(11, i)
        for kind, epsilon, scales in (("equality", 0.0, (1e9, 1e12)), ("l2-ball", 0.1, (1e12,))):
            unit = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec(kind, spec.y, epsilon=epsilon))
            assert unit.certified, (kind, i)
            for s in scales:
                res = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec(kind, s * spec.y, epsilon=s * epsilon))
                if not (res.certified and abs(res.objective - s * unit.objective) <= 1e-6 * s * unit.objective):
                    failed.append((kind, s, i))
    assert failed == []


@pytest.mark.parametrize("s", [1e-9, 1e-12])
def test_small_scale_solves_are_certified_and_right(s):
    # below unit scale the tolerances were absolute: unscaled, on the
    # seed-11 family at 1e-12 every LP equality and LP dantzig answer
    # (24 and 24) came back certified but wrong, LP equality off by up to
    # a factor 22, and first-order equality and the l2 ball failed 21 and
    # 24 of 24 at both scales (certified and wrong, or at max_iters);
    # max_iters = 20000 bounds the time of such a failure
    opts = cg.SolverOptions(max_iters=20000)
    routes = (
        ("first-order", "equality", 0.0, 0.0),
        ("first-order", "l2-ball", 0.1, 0.0),
        ("lp", "equality", 0.0, 0.0),
        ("lp", "dantzig", 0.0, 0.1),
    )
    failed = []
    for i in range(24):
        phi, d, spec = campaign_trial(11, i)
        for route, kind, epsilon, lam in routes:
            def solve(scale):
                con = cg.ConstraintSpec(kind, scale * spec.y, epsilon=scale * epsilon, lam=scale * lam)
                if route == "lp":
                    return cg.solve_lp_certified(phi, d, con)
                return cg.solve_analysis_l1(phi, d, con, opts)

            unit, res = solve(1.0), solve(s)
            assert unit.certified, (route, kind, i)
            ok = res.certified and res.converged
            if not (ok and abs(res.objective - s * unit.objective) <= 1e-6 * s * unit.objective):
                failed.append((route, kind, i))
            elif route == "lp":
                # exact power-of-two scaling: the LP runs the unit solve's pivots
                assert res.iterations == unit.iterations, (kind, i)
    assert failed == []


def test_infeasible_equality_raises():
    phi_raw = np.array([[1.0, 0.0], [1.0, 0.0]])  # rank 1, square
    d = cg.Dictionary(np.eye(2), "identity")
    # the miss is reported relative to ||y||, the same at every scale and
    # on both routes
    for s in (1.0, 1e-12, 1e12):
        spec = cg.ConstraintSpec("equality", s * np.array([0.0, 1.0]))
        for solve in (cg.solve_analysis_l1, cg.solve_lp_certified):
            with pytest.raises(cg.InfeasibleConstraintError, match=r"by 7\.071e-01 \|\|y\|\|"):
                solve(phi_raw, d, spec)
    with pytest.raises(cg.InfeasibleConstraintError):
        cg.solve_analysis_l1(
            phi_raw, d, cg.ConstraintSpec("l2-ball", np.array([0.0, 1.0]), epsilon=1e-3)
        )


def test_solver_options_respected(reference_instance):
    phi, d, x, y = reference_instance
    starved = cg.solve_analysis_l1(
        phi, d, cg.ConstraintSpec("equality", y), cg.SolverOptions(max_iters=5)
    )
    assert not starved.converged
    assert starved.iterations == 5


@pytest.mark.parametrize("field, value", [
    ("max_iters", 0), ("max_iters", -5), ("max_iters", 10.0), ("max_iters", True),
])
def test_solver_options_rejects_invalid(field, value):
    with pytest.raises(ValueError, match=field):
        cg.SolverOptions(**{field: value})


def test_solver_options_fields():
    assert [f.name for f in dataclasses.fields(cg.SolverOptions)] == ["max_iters"]


def test_solver_options_accepts_smallest_valid():
    cg.SolverOptions(max_iters=1)
    cg.SolverOptions(max_iters=np.int64(7))


def test_former_max_iters_trial_converges_to_lp_objective():
    # trial 4 of the seed-11 solve campaign stopped unconverged at
    # max_iters = 200000 without restarts
    phi, d, spec = campaign_trial(11, 4)
    res = cg.solve_analysis_l1(phi, d, spec)
    assert res.converged
    assert res.iterations < 20000
    lp = cg.solve_lp_certified(phi, d, spec)
    assert abs(res.objective - lp.objective) <= 1e-6


def test_step_ratio_robustness_on_orthogonal_family():
    # the steps start at tau = sigma = 1 / ||K||; the primal weight then
    # sets the primal/dual step ratio at each restart
    for s in range(8):
        d = cg.make_dictionary("orthogonal", 20, 20, cg.trial_seed(s, 0))
        phi = cg.make_sensing_matrix("gaussian", 12, 20, cg.trial_seed(s, 1))
        x = cg.sample_cosparse_signal(d, 3, cg.trial_seed(s, 2))
        res = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", phi.entries @ x))
        assert res.converged, s
        assert res.iterations < 10000, (s, res.iterations)
        assert res.certified, s


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["equality", "l2-ball"]),
)
@settings(max_examples=15, deadline=None)
def test_solve_is_gauge_invariant(instance_seed, gauge_seed, kind):
    # D -> D Q^T, Phi -> R Phi Q^T, y -> R y rotates every iterate
    # (z -> Q z, constraint dual -> R w) and keeps every norm the restart
    # rule reads; iteration counts may differ by rounding
    phi, d, spec = campaign_trial(instance_seed, 0)
    if kind == "l2-ball":
        spec = cg.ConstraintSpec("l2-ball", spec.y, epsilon=0.1)
    q = haar(10, gauge_seed)
    r = haar(6, gauge_seed + 1)
    base = cg.solve_analysis_l1(phi, d, spec)
    rotated = cg.solve_analysis_l1(
        r @ phi.entries @ q.T,
        cg.Dictionary(d.entries @ q.T, d.kind),
        cg.ConstraintSpec(kind, r @ spec.y, epsilon=spec.epsilon),
    )
    assert rotated.converged == base.converged
    assert rotated.objective == pytest.approx(base.objective, rel=1e-8)
    assert np.max(np.abs(q.T @ rotated.x_hat - base.x_hat)) <= 1e-7


# ---------------------------------------------------------------------------
# synthesis route


def test_synthesis_objective_matches_frozen_oracle(reference_instance):
    phi, d, x, y = reference_instance
    res = cg.solve_synthesis_l1(phi, d, cg.ConstraintSpec("equality", y))
    assert res.converged
    assert res.objective == pytest.approx(1.64966057, abs=1e-7)


def test_synthesis_equals_analysis_for_orthogonal_dictionary():
    d = cg.make_dictionary("orthogonal", 8, 8, 3)
    phi = cg.make_sensing_matrix("gaussian", 6, 8, 0)
    x = cg.sample_cosparse_signal(d, 5, 11)
    y = phi.entries @ x
    res_a = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", y))
    res_s = cg.solve_synthesis_l1(phi, d, cg.ConstraintSpec("equality", y))
    assert np.linalg.norm(res_a.x_hat - res_s.x_hat) <= 1e-6
    assert res_a.objective == pytest.approx(res_s.objective, abs=1e-6)


def test_synthesis_accepts_raw_atoms(reference_instance):
    phi, d, x, y = reference_instance
    via_dict = cg.solve_synthesis_l1(phi, d, cg.ConstraintSpec("equality", y))
    via_atoms = cg.solve_synthesis_l1(phi, d.entries.T, cg.ConstraintSpec("equality", y))
    assert np.array_equal(via_dict.x_hat, via_atoms.x_hat)
    with pytest.raises(ValueError):
        cg.solve_synthesis_l1(phi, np.ones((3, 2, 1)), cg.ConstraintSpec("equality", y))
    with pytest.raises(ValueError):
        cg.solve_synthesis_l1(phi, np.ones((9, 4)), cg.ConstraintSpec("equality", y))


def test_synthesis_rejects_bad_inputs_before_solving(reference_instance):
    phi, d, x, y = reference_instance
    with pytest.raises(ValueError, match=r"y must have shape \(6,\)"):
        cg.solve_synthesis_l1(phi, d, cg.ConstraintSpec("equality", y[:5]))
    atoms = np.array(d.entries.T)
    atoms[3, 7] = np.nan
    with pytest.raises(ValueError, match="synthesis atom matrix has non-finite entries"):
        cg.solve_synthesis_l1(phi, atoms, cg.ConstraintSpec("equality", y))


def test_synthesis_certification_against_lp(reference_instance):
    # the synthesis program with a Dictionary is the analysis LP with
    # (I, Phi D^T); its own certificate and the LP's agree on the value
    phi, d, x, y = reference_instance
    spec = cg.ConstraintSpec("equality", y)
    res = cg.solve_synthesis_l1(phi, d, spec)
    assert res.certified
    # weak duality holds up to the checked dual infeasibility, so an exact
    # dual leaves a gap of roundoff either side of 0
    assert -1e-12 <= res.certification_gap <= 1e-6
    lp = cg.solve_lp_certified(
        phi.entries @ d.entries.T, cg.Dictionary(np.eye(d.p), "identity"), spec
    )
    assert lp.certified
    assert res.objective == pytest.approx(lp.objective, abs=1e-6)


# ---------------------------------------------------------------------------
# LP route


def test_lp_equality_certificate(reference_instance):
    phi, d, x, y = reference_instance
    res = cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", y))
    assert res.certified
    assert abs(res.certification_gap) <= 1e-12
    assert res.dual_residual <= 1e-12
    assert res.converged
    assert res.objective == pytest.approx(1.800759346685715, abs=1e-9)
    assert np.linalg.norm(phi.entries @ res.x_hat - y) <= 1e-8


def test_lp_dual_on_dependent_rows_is_certified():
    # Phi of rank 5 with 6 rows, and y moved off range(Phi) by 1e-8 to
    # 9e-8 ||y||, which both routes accept: the LP keeps 5 rows, and its w
    # is taken onto range(Phi), as the first-order route's is. With w = 0
    # on the dropped row, the gap picked up (y - P y)^T w, and 11 of these
    # 100 draws came back uncertified
    for s in range(100):
        rng = np.random.default_rng(s)
        d = cg.make_dictionary("tight-frame", 14, 10, s)
        phi = rng.standard_normal((6, 5)) @ rng.standard_normal((5, 10))
        y = phi @ cg.sample_cosparse_signal(d, 5, s + 1)
        y = y + rng.uniform(1e-8, 9e-8) * np.linalg.norm(y) * np.linalg.svd(phi)[0][:, -1]
        spec = cg.ConstraintSpec("equality", y)
        res = cg.solve_lp_certified(phi, d, spec)
        first_order = cg.solve_analysis_l1(phi, d, spec)
        assert res.certified and first_order.certified, s
        assert abs(res.objective - first_order.objective) <= 1e-9 * max(1.0, res.objective), s


def test_lp_route_refuses_the_l2_ball(reference_instance):
    phi, d, x, y = reference_instance
    with pytest.raises(ValueError, match="^LP route supports equality and dantzig only$"):
        cg.solve_lp_certified(phi, d, cg.ConstraintSpec("l2-ball", y, epsilon=0.1))


def test_lp_dantzig_matches_frozen_oracle(reference_instance):
    phi, d, x, y = reference_instance
    res = cg.solve_lp_certified(phi, d, cg.ConstraintSpec("dantzig", y, lam=0.05))
    assert res.objective == pytest.approx(1.3799218652170024, abs=1e-9)
    g = phi.entries.T @ (phi.entries @ res.x_hat - y)
    assert np.abs(g).max() <= 0.05 + 1e-8


@pytest.mark.parametrize("kind", ["equality", "dantzig"])
def test_lp_matches_live_scipy(reference_instance, kind):
    # HiGHS on the split LP min 1^T t s.t. -t <= D(z+ - z-) <= t, z+, z-,
    # t >= 0, with Phi(z+ - z-) = y or |Phi^T(Phi(z+ - z-) - y)| <= lam
    scipy_opt = pytest.importorskip("scipy.optimize")
    phi, d, x, y = reference_instance
    n, p, lam = 10, 14, 0.05
    c = np.concatenate([np.zeros(2 * n), np.ones(p)])
    a_ub = np.block([[d.entries, -d.entries, -np.eye(p)], [-d.entries, d.entries, -np.eye(p)]])
    b_ub = np.zeros(2 * p)
    if kind == "equality":
        spec = cg.ConstraintSpec("equality", y)
        a_eq, b_eq = np.hstack([phi.entries, -phi.entries, np.zeros((6, p))]), y
    else:
        spec = cg.ConstraintSpec("dantzig", y, lam=lam)
        g = phi.entries.T @ phi.entries
        b = phi.entries.T @ y
        a_ub = np.vstack([a_ub, np.block([[g, -g, np.zeros((n, p))], [-g, g, np.zeros((n, p))]])])
        b_ub = np.concatenate([b_ub, b + lam, lam - b])
        a_eq = b_eq = None
    ref = scipy_opt.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (2 * n + p), method="highs"
    )
    assert ref.status == 0, ref.message
    assert cg.solve_lp_certified(phi, d, spec).objective == pytest.approx(ref.fun, abs=1e-8)
    if kind == "equality":
        assert cg.solve_analysis_l1(phi, d, spec).objective == pytest.approx(ref.fun, abs=5e-8)


def test_dantzig_large_cap_returns_zero(reference_instance):
    phi, d, x, y = reference_instance
    lam = float(np.abs(phi.entries.T @ y).max()) + 1.0
    res = cg.solve_lp_certified(phi, d, cg.ConstraintSpec("dantzig", y, lam=lam))
    assert res.objective == pytest.approx(0.0, abs=1e-10)
    assert np.abs(res.x_hat).max() <= 1e-9


def test_pdhg_certification_against_lp(reference_instance):
    phi, d, x, y = reference_instance
    spec = cg.ConstraintSpec("equality", y)
    res = cg.solve_analysis_l1(phi, d, spec)
    assert res.certified
    assert 0.0 <= res.certification_gap <= 1e-6
    assert res.objective == pytest.approx(cg.solve_lp_certified(phi, d, spec).objective, abs=1e-6)


def test_first_order_path_never_calls_the_simplex(reference_instance, monkeypatch):
    phi, d, x, y = reference_instance

    def no_simplex(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(solvers, "_solve_from", no_simplex)
    for spec in (cg.ConstraintSpec("equality", y), cg.ConstraintSpec("l2-ball", y, epsilon=0.1)):
        assert cg.solve_analysis_l1(phi, d, spec).certified
        assert cg.solve_synthesis_l1(phi, d, spec).certified


@pytest.mark.parametrize("kind", ["equality", "l2-ball"])
def test_wrong_answer_is_not_certified(reference_instance, kind):
    # the least-squares start is feasible but not optimal; with a zero
    # dual the gap is the whole objective
    phi, d, x, y = reference_instance
    spec = cg.ConstraintSpec(kind, y, epsilon=0.1 if kind == "l2-ball" else 0.0)
    fac = solvers._factor(d.entries, phi.entries)
    res = solvers._first_order_result(d.entries, phi.entries, spec, fac.pinv @ y, np.zeros(d.p), fac, 1, True)
    assert res.converged
    assert not res.certified
    assert res.certification_gap > 1e-2


def test_lp_answer_off_the_constraint_set_is_not_converged(reference_instance, monkeypatch):
    # the LP's centre z0 = Phi^+ y moved by e_0: the returned point
    # z0 + e_0 + N^T c moves by e_0 with it and misses the equality set by
    # ||Phi e_0||. Moving a d+ entry of the LP's answer would not do, as
    # it moves z inside null(Phi), which stays feasible
    phi, d, x, y = reference_instance
    start = solvers._feasible_start

    def moved(phi_e, pinv, constraint):
        z0 = start(phi_e, pinv, constraint).copy()
        z0[0] += 1.0
        return z0

    monkeypatch.setattr(solvers, "_feasible_start", moved)
    res = cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", y))
    assert not res.converged
    assert not res.certified
    assert res.primal_residual == pytest.approx(float(np.linalg.norm(phi.entries[:, 0])))
    assert res.primal_residual == pytest.approx(1.01, abs=1e-3)


def _certificate_instance(kind: str, dict_kind: str, seed: int):
    """A 5-cosparse signal under a tight-frame (14x10) or gaussian-random
    (12x8) D, with Phi of n - 4 rows and a feasible constraint of kind."""
    p, n = (14, 10) if dict_kind == "tight-frame" else (12, 8)
    d = cg.make_dictionary(dict_kind, p, n, cg.trial_seed(seed, 0))
    phi = cg.make_sensing_matrix("gaussian", n - 4, n, cg.trial_seed(seed, 1))
    x = cg.sample_cosparse_signal(d, 5, cg.trial_seed(seed, 2))
    y = phi.entries @ x
    if kind == "l2-ball":
        noise = np.random.default_rng(seed).standard_normal(y.shape[0])
        return d, phi, cg.ConstraintSpec(kind, y + 0.05 * noise / np.linalg.norm(noise), epsilon=0.1)
    return d, phi, cg.ConstraintSpec(kind, y, lam=0.1 if kind == "dantzig" else 0.0)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["tight-frame", "gaussian-random"]))
@settings(max_examples=8, deadline=None)
def test_every_route_returns_a_checked_certificate(seed, dict_kind):
    solves = []
    for kind in ("equality", "l2-ball"):
        d, phi, spec = _certificate_instance(kind, dict_kind, seed)
        solves.append(cg.solve_analysis_l1(phi, d, spec))
        solves.append(cg.solve_synthesis_l1(phi, d, spec))
    for kind in ("equality", "dantzig"):
        d, phi, spec = _certificate_instance(kind, dict_kind, seed)
        solves.append(cg.solve_lp_certified(phi, d, spec))
    for res in solves:
        assert res.certified
        assert res.certification_gap >= -1e-12


def test_lp_variable_budget_enforced():
    d = cg.make_dictionary("tight-frame", 170, 40, 0)
    phi = cg.make_sensing_matrix("gaussian", 20, 40, 0)
    y = np.zeros(20)
    assert 2 * 40 + 2 * 170 > MAX_LP_VARIABLES
    with pytest.raises(ValueError):
        cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", y))


def test_recovery_result_serializes(reference_instance):
    phi, d, x, y = reference_instance
    res = cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", y))
    doc = json.loads(res.to_json())
    for key in ("objective", "iterations", "primal_residual", "dual_residual", "certified", "x_hat", "converged"):
        assert key in doc
    assert doc["certified"] is True
    assert len(doc["x_hat"]) == 10


# ---------------------------------------------------------------------------
# the bits of the first-order route, pinned: sha256 per constraint kind of
# x_hat, iterations, objective, both residuals and certification_gap of
# solve_analysis_l1 on the 24 trials of the seed-11 solve campaign, under
# their equality constraint and under the l2 ball of radius 0.1. Taken
# before the PDHG loop dropped its temporaries, which kept every bit; the
# equality one again when the polish began to follow the face guess (it
# was 8cdd5e99...); both again when the loop began to carry the scaled
# image h = sigma K z - [0; sigma y] in place of K z and K z_prev (they
# were a654b72b... and d2523282...), which kept every iteration count of
# _PDHG_ITERATIONS; the equality one again when square zero sets began to
# take their dual by one linear solve, which moved only dual_residual and
# certification_gap (it was d39515d6...); the equality one again when its
# iteration moved into null(Phi) coordinates, which cut the family's
# iterations 2,832 -> 1,000 and kept every objective within 4.7e-13
# relative (it was 83365941...). A moved digest is a change of numerics
# to record.
_PDHG_DIGESTS = {
    "equality": "fe5959822b0d275463e98af363f4c7802109262d219cd91930d0bcf177187b85",
    "l2-ball": "07373b74a855581859ecc5fe688f3fee1dfc0b208cb24b00ce42c002b3a025c2",
}


@pytest.mark.parametrize("kind", sorted(_PDHG_DIGESTS))
def test_pdhg_route_bits_are_pinned(kind):
    digest = hashlib.sha256()
    for i in range(24):
        phi, d, spec = campaign_trial(11, i)
        if kind == "l2-ball":
            spec = cg.ConstraintSpec(kind, spec.y, epsilon=0.1)
        res = cg.solve_analysis_l1(phi, d, spec)
        digest.update(res.x_hat.astype("<f8").tobytes())
        digest.update(np.array([res.iterations], "<i8").tobytes())
        digest.update(np.array(
            [res.objective, res.primal_residual, res.dual_residual, res.certification_gap], "<f8"
        ).tobytes())
    assert digest.hexdigest() == _PDHG_DIGESTS[kind]


# the iterations of each trial in the two families above, apart from the
# bits: a change of roundoff alone leaves every stop and restart where it is
_PDHG_ITERATIONS = {
    "equality": [
        48, 64, 16, 8, 24, 8, 160, 64, 8, 8, 40, 16,
        8, 40, 8, 8, 32, 8, 8, 32, 136, 56, 184, 16,
    ],
    "l2-ball": [
        666, 415, 1451, 846, 601, 563, 703, 640, 626, 1476, 479, 635,
        613, 705, 475, 592, 729, 1467, 836, 618, 409, 826, 1089, 585,
    ],
}


@pytest.mark.parametrize("kind", sorted(_PDHG_ITERATIONS))
def test_pdhg_iteration_counts_are_pinned(kind):
    iterations = []
    for i in range(24):
        phi, d, spec = campaign_trial(11, i)
        if kind == "l2-ball":
            spec = cg.ConstraintSpec(kind, spec.y, epsilon=0.1)
        iterations.append(cg.solve_analysis_l1(phi, d, spec).iterations)
    assert iterations == _PDHG_ITERATIONS[kind]


@given(
    st.sampled_from(["tight-frame", "gaussian-random"]),
    st.sampled_from(["equality", "l2-ball"]),
    st.integers(4, 7),
    st.integers(0, 10_000),
)
@settings(max_examples=12, deadline=None)
def test_pdhg_follows_the_reference_recurrence(dict_kind, kind, n, seed):
    # unpolished, the loop is the restarted Chambolle-Pock iteration of
    # reference_pdhg up to roundoff: the same stop, the same point
    d = cg.make_dictionary(dict_kind, n + 3, n, seed)
    phi = cg.make_sensing_matrix("gaussian", n - 2, n, seed + 1)
    y = phi.entries @ cg.sample_cosparse_signal(d, 4, seed + 2)
    spec = cg.ConstraintSpec(kind, y, epsilon=0.05 * np.linalg.norm(y) if kind == "l2-ball" else 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_face_point", lambda *args: None)
        res = cg.solve_analysis_l1(phi, d, spec)
    z, iterations = reference_pdhg(d.entries, phi.entries, spec)
    assert res.iterations == iterations
    assert np.linalg.norm(res.x_hat - z) <= 1e-9 * max(1.0, np.linalg.norm(z))


@given(
    st.sampled_from(["tight-frame", "gaussian-random", "finite-difference", "orthogonal"]),
    st.integers(4, 8),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_equality_solves_are_certified_at_the_lp_optimum(dict_kind, n, data):
    # the equality iteration runs in null(Phi) coordinates, for Phi with m
    # 1 to n rows (dim null(Phi) = 0 at m = n, where no iteration runs)
    # and with a repeated row (dim null(Phi) = n - m, not n - m - 1); a
    # k-cosparse signal with k > p - n, so that D's other rows leave it a
    # null space. Every solve is certified, converged and at the LP's
    # objective
    p = n if dict_kind in ("finite-difference", "orthogonal") else data.draw(st.integers(n, n + 5))
    m = data.draw(st.integers(1, n))
    k = data.draw(st.integers(max(1, p - n + 1), p - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    d = cg.make_dictionary(dict_kind, p, n, cg.trial_seed(seed, 0))
    x = cg.sample_cosparse_signal(d, k, cg.trial_seed(seed, 1))
    rng = np.random.default_rng(cg.trial_seed(seed, 2))
    phi = rng.standard_normal((m, n)) / math.sqrt(m)
    if data.draw(st.booleans()):
        phi = np.vstack([phi, phi[rng.integers(m)]])
    spec = cg.ConstraintSpec("equality", phi @ x)
    res = cg.solve_analysis_l1(phi, d, spec)
    lp = cg.solve_lp_certified(phi, d, spec)
    assert res.certified and res.converged
    assert abs(res.objective - lp.objective) <= 1e-9 * max(1.0, lp.objective)


# ---------------------------------------------------------------------------
# polish of the equality face


def _count_polish_attempts(monkeypatch) -> list:
    calls = []
    face_point = solvers._face_point

    def counting(*args):
        calls.append(1)
        return face_point(*args)

    monkeypatch.setattr(solvers, "_face_point", counting)
    return calls


def _record_zero_set_duals(monkeypatch) -> list:
    calls = []
    zero_set_dual = solvers._zero_set_dual

    def recording(dz, *args):
        calls.append((dz, zero_set_dual(dz, *args)))
        return calls[-1][1]

    monkeypatch.setattr(solvers, "_zero_set_dual", recording)
    return calls


@given(st.integers(0, 23), st.floats(1e-4, 1.0))
@settings(max_examples=6, deadline=None)
def test_polished_point_is_never_returned_uncertified(index, scale):
    # every polish attempt proposes a point off the equality set; the
    # check refuses each one, and the solve ends at the PDHG stop with
    # the bits of a run that never polishes
    phi, d, spec = campaign_trial(11, index)
    off = phi.entries[0] / np.linalg.norm(phi.entries[0])
    face_point = solvers._face_point
    proposals = []

    def perturbed(*args):
        point = face_point(*args)
        if point is None:
            return None
        z, dz = point
        proposals.append(z + scale * off)
        return proposals[-1], dz

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_face_point", lambda *args: None)
        plain = cg.solve_analysis_l1(phi, d, spec)
        mp.setattr(solvers, "_face_point", perturbed)
        res = cg.solve_analysis_l1(phi, d, spec)
    assert proposals
    assert res.certified and res.converged
    assert np.array_equal(res.x_hat, plain.x_hat)
    assert (res.iterations, res.primal_residual, res.dual_residual) == (
        plain.iterations, plain.primal_residual, plain.dual_residual
    )
    assert max(res.primal_residual, res.dual_residual) <= 1e-9 * np.linalg.norm(spec.y)


def test_polish_on_recovery_reference_family(monkeypatch):
    # the 24 trials of the seed-11 solve campaign. On the stacked operator
    # [D; Phi] they took 33,289 iterations without the polish, 3,776 with
    # the polish tried only at the restart checks and 2,832 with the peeks
    # too, which built 277 face points and 127 zero-set duals (46 by an
    # SVD). In null(Phi) coordinates they take 10,010 without the polish,
    # 2,096 with it at the checks alone, and 1,000 with the peeks. The
    # polish's work is pinned: 87 face points, 55 zero-set duals, of which
    # the 39 on a zero set of dim null(Phi) rows take one linear solve and
    # the other 16 an SVD, and 24 certified polishes, one per solve. The
    # reference LP of each trial takes one SVD more, of Phi, for its
    # centre Phi^+ y and its null(Phi) coordinates
    attempts = _count_polish_attempts(monkeypatch)
    duals = _record_zero_set_duals(monkeypatch)
    svds, polishes = [], []
    pinv_null, first_order_result = solvers._pinv_null, solvers._first_order_result

    def counting_svd(a):
        svds.append(a.shape)
        return pinv_null(a)

    def counting_polish(d_block, sensing, constraint, z, v, *args):
        res = first_order_result(d_block, sensing, constraint, z, v, *args)
        polishes.append(res.certified and bool(duals) and v is duals[-1][1])
        return res

    monkeypatch.setattr(solvers, "_pinv_null", counting_svd)
    monkeypatch.setattr(solvers, "_first_order_result", counting_polish)
    assert solve_recovery_family([11]) == 1000
    assert len(attempts) == 87
    assert len(duals) == 55
    assert len(svds) == 2 * 24 + 16 + 24  # _factor's two per solve, the duals', the LPs'
    assert sum(polishes) == 24


def _planted_zero_set_dual(seed: int, free: int, off_rows: int):
    """(dz, off, dn, v_star) with a zero set L of free rows, on which
    v_star in [-0.9, 0.9] solves dn[L]^T v_L = -dn[~L]^T sign(dz)[~L]:
    the last row off L is set to make it hold."""
    rng = np.random.default_rng(seed)
    p = free + off_rows
    dn = rng.standard_normal((p, free))
    off = np.ones(p, dtype=bool)
    off[rng.choice(p, free, replace=False)] = False
    sign = np.where(off, rng.choice([-1.0, 1.0], p), 0.0)
    v_star = rng.uniform(-0.9, 0.9, free)
    j = np.flatnonzero(off)[-1]
    dn[j] = 0.0
    dn[j] = sign[j] * -(dn[~off].T @ v_star + dn.T @ sign)
    return sign * rng.uniform(0.5, 2.0, p), off, dn, v_star


def _least_norm_block(dz: np.ndarray, off: np.ndarray, v: np.ndarray, dn: np.ndarray) -> np.ndarray:
    # the SVD least-norm step of _zero_set_dual, written out
    a = dn[~off].T
    v_l = np.clip(v[~off], -1.0, 1.0)
    v_l -= solvers._pinv_null(a)[0] @ (a @ v_l + dn.T @ np.where(off, np.sign(dz), 0.0))
    return v_l


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_zero_set_dual_solves_square_zero_sets(seed, free, off_rows):
    # a zero set of exactly dim null(Phi) rows has one dual, which one
    # linear solve gives whatever the PDHG dual is; the SVD least-norm
    # step reaches the same block up to the square block's conditioning
    dz, off, dn, v_star = _planted_zero_set_dual(seed, free, off_rows)
    v = np.random.default_rng(seed + 1).uniform(-1.5, 1.5, len(dz))
    got = solvers._zero_set_dual(dz, off, v, dn)
    assert got is not None
    assert np.array_equal(got[off], np.sign(dz[off]))
    assert np.array_equal(got, solvers._zero_set_dual(dz, off, -v, dn))
    tol = 256 * np.finfo(np.float64).eps * np.linalg.cond(dn[~off])
    assert np.abs(got[~off] - _least_norm_block(dz, off, v, dn)).max() <= tol
    assert np.abs(got[~off] - v_star).max() <= tol


def test_zero_set_dual_falls_back_on_a_singular_square_block():
    # a zero row of dn on the zero set makes the square block exactly
    # singular: the dual takes the SVD least-norm step, bit for bit, and
    # is not refused, since a dual in the box exists
    dz, off, dn, v_star = _planted_zero_set_dual(5, 3, 4)
    j = np.flatnonzero(off)[-1]
    dn[np.flatnonzero(~off)[0]] = 0.0
    dn[j] = 0.0  # replanted, so that v_star still solves the system
    dn[j] = np.sign(dz[j]) * -(dn[~off].T @ v_star + dn.T @ np.where(off, np.sign(dz), 0.0))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(dn[~off].T, v_star)
    v = np.zeros(len(dz))
    v[~off] = v_star + 0.05
    got = solvers._zero_set_dual(dz, off, v, dn)
    assert got is not None
    assert np.array_equal(got[~off], _least_norm_block(dz, off, v, dn))
    assert np.array_equal(got[off], np.sign(dz[off]))


@pytest.mark.parametrize("index", [0, 11, 22])
def test_face_point_image_is_its_points_image(index):
    # the image dz0 + dn c that _face_point returns is d_block z_p up to
    # roundoff, and vanishes on the face, for faces of every size the
    # guess can name
    phi, d, spec = campaign_trial(11, index)
    fac = solvers._factor(d.entries, phi.entries)
    z0 = fac.pinv @ spec.y
    dz0 = d.entries @ z0
    d_norm = np.linalg.norm(d.entries, 2)
    rng = np.random.default_rng(index)
    for _ in range(20):
        face = np.sort(rng.choice(d.p, len(fac.null), replace=False))
        z_p, dz_p = solvers._face_point(z0, fac.null, dz0, fac.dn, face)
        scale = np.abs(dz0).max() + d_norm * (np.linalg.norm(z_p) + np.linalg.norm(z0))
        tol = 64 * np.finfo(np.float64).eps * scale
        assert np.abs(dz_p - d.entries @ z_p).max() <= tol
        assert np.abs(dz_p[face]).max() <= tol
        assert np.linalg.norm(phi.entries @ z_p - spec.y) <= tol


def test_polish_on_three_recovery_families():
    # 72 solves: on the stacked operator [D; Phi], 51,776 iterations with
    # the repaired PDHG dual, 13,376 with the zero-set dual at the restart
    # checks, 7,944 with the peeks; 2,776 in null(Phi) coordinates. Each
    # is certified and within 1e-12 of the LP
    assert solve_recovery_family([11, 12, 13]) <= 3000


def test_a_refused_polish_changes_nothing(monkeypatch):
    # every zero-set dual refused: each peek and check still proposes a
    # face point, and the family runs the iterations of the unpolished
    # PDHG, bit for bit
    monkeypatch.setattr(solvers, "_zero_set_dual", lambda *args: None)
    total = 0
    for i in range(24):
        phi, d, spec = campaign_trial(11, i)
        res = cg.solve_analysis_l1(phi, d, spec)
        assert res.certified and res.converged, i
        total += res.iterations
    assert total == 10010


@pytest.mark.parametrize("n, k, s, iterations", [
    pytest.param(6, 2, 1, 37, id="6-2-1"),
    pytest.param(6, 3, 0, 60, id="6-3-0"),
])
def test_polish_at_the_residual_stop(n, k, s, iterations, monkeypatch):
    # matched-operator instances that the first peek (iteration 8)
    # polishes; with the peeks moved onto the restart checks, they meet
    # the residual stop before the first check and are polished there.
    # Unpolished, each stops 9.0e-10 above the LP objective
    d, phi = matched_instance(n, n - 1, s)
    spec = cg.ConstraintSpec("equality", phi.entries @ cg.sample_cosparse_signal(d, k, 600 + s))
    assert cg.solve_analysis_l1(phi, d, spec).iterations == solvers._PEEK_EVERY
    monkeypatch.setattr(solvers, "_PEEK_EVERY", solvers._RESTART_EVERY)
    res = cg.solve_analysis_l1(phi, d, spec)
    lp = cg.solve_lp_certified(phi, d, spec)
    assert res.certified and res.converged
    assert res.iterations == iterations
    assert abs(res.objective - lp.objective) <= 1e-12 * max(1.0, lp.objective)


@pytest.mark.parametrize("n, k, s", [(4, 2, 32), (4, 3, 1)])
def test_polish_accepts_a_dual_on_the_box_boundary(n, k, s, monkeypatch):
    # the l1 minimizer is not unique, so the zero-set dual has entries of
    # modulus 1 on the zero set, which roundoff puts at 1 + 1e-15; refused
    # as outside the box, the solve stops unpolished 5.7e-10 and 2.0e-10
    # above the LP objective
    calls = _record_zero_set_duals(monkeypatch)
    d, phi = matched_instance(n, n - 1, s)
    spec = cg.ConstraintSpec("equality", phi.entries @ cg.sample_cosparse_signal(d, k, 600 + s))
    res = cg.solve_analysis_l1(phi, d, spec)
    lp = cg.solve_lp_certified(phi, d, spec)
    assert res.certified and res.converged
    assert abs(res.objective - lp.objective) <= 1e-12 * max(1.0, lp.objective)
    dz, v = calls[-1]
    zero = np.abs(dz) <= solvers._ZERO_TOL * np.abs(dz).max()
    assert abs(np.abs(v[zero]).max() - 1.0) <= 1e-12


def _square_sensing():
    # m = n: z0 is the only feasible point and the face has no free entries
    return np.random.default_rng(42).standard_normal((10, 10))


def _repeated_row_sensing():
    # rank 6 with 7 rows: null(Phi) has dimension 4, not n - m = 3
    phi = cg.make_sensing_matrix("gaussian", 6, 10, 42).entries
    return np.vstack([phi, phi[2]])


@pytest.mark.parametrize("route, sensing, iterations", [
    # the check that accepts the polish: none, as z0 is the only feasible
    # point and the empty face is polished before any iteration
    pytest.param("analysis", _square_sensing, 0, id="analysis-_square_sensing"),
    # the 11th peek, on the iterate
    pytest.param("analysis", _repeated_row_sensing, 88, id="analysis-_repeated_row_sensing"),
    # the 12th peek, on the iterate
    pytest.param(
        "synthesis", lambda: cg.make_sensing_matrix("gaussian", 6, 10, 42).entries, 96,
        id="synthesis-<lambda>",
    ),
])
def test_polish_edge_cases(route, sensing, iterations):
    phi = sensing()
    d = cg.make_dictionary("tight-frame", 14, 10, 3)
    spec = cg.ConstraintSpec("equality", phi @ cg.sample_cosparse_signal(d, 5, 5))
    if route == "analysis":
        res = cg.solve_analysis_l1(phi, d, spec)
        lp = cg.solve_lp_certified(phi, d, spec)
    else:
        res = cg.solve_synthesis_l1(phi, d, spec)
        lp = cg.solve_lp_certified(phi @ d.entries.T, cg.Dictionary(np.eye(d.p), "identity"), spec)
    assert res.certified and res.converged
    assert res.iterations == iterations
    assert abs(res.objective - lp.objective) <= 1e-12 * max(1.0, res.objective)
    if phi.shape[0] == phi.shape[1]:
        assert np.array_equal(res.x_hat, solvers._factor(d.entries, phi).pinv @ spec.y)


@pytest.mark.parametrize("kind", ["equality", "l2-ball"])
@pytest.mark.parametrize("route", [cg.solve_analysis_l1, cg.solve_synthesis_l1])
def test_each_solve_factors_once_and_certifies_once(reference_instance, monkeypatch, route, kind):
    # one SVD gives Phi^+, so no least-squares solve runs, and on the
    # equality set ||K|| = ||D N^T|| comes from _factor's SVD of (D N^T)^T,
    # so only the l2 ball takes a third SVD for ||K||; a proposed face
    # point whose zero-set dual leaves the unit box is refused before
    # _first_order_result, every other one is repaired once, and one more
    # repair runs only when no polish ends the solve (always on the l2
    # ball, never on this equality set)
    phi, d, x, y = reference_instance
    proposals, duals, repairs, spectral = [], [], [], []
    face_point, zero_set_dual = solvers._face_point, solvers._zero_set_dual
    repair = solvers._first_order_result

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq ran")

    norm = np.linalg.norm

    def spectral_norm(a, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(a) == 2:
            spectral.append(a.shape)
        return norm(a, ord, *args, **kwargs)

    def proposing(*args):
        z = face_point(*args)
        if z is not None:
            proposals.append(z)
        return z

    def dualizing(*args):
        v = zero_set_dual(*args)
        if v is not None:
            duals.append(v)
        return v

    def counting(*args):
        repairs.append(1)
        return repair(*args)

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(np.linalg, "norm", spectral_norm)
    monkeypatch.setattr(solvers, "_face_point", proposing)
    monkeypatch.setattr(solvers, "_zero_set_dual", dualizing)
    monkeypatch.setattr(solvers, "_first_order_result", counting)
    spec = cg.ConstraintSpec(kind, y, epsilon=0.1 if kind == "l2-ball" else 0.0)
    assert route(phi, d, spec).certified
    if kind == "equality":
        assert 0 < len(repairs) <= len(proposals)
        assert len(repairs) == len(duals)
        assert not spectral
    else:
        assert not proposals and len(repairs) == 1
        assert len(spectral) == 1


@pytest.mark.parametrize("phi", [np.eye(1), _square_sensing()], ids=["identity", "square"])
def test_polish_with_an_empty_zero_set(phi, monkeypatch):
    # square Phi: z0 = Phi^+ y is the only feasible point; for a y off
    # every cosparse face no entry of D z0 vanishes, and the certifying
    # dual is sign(D z0) with no projection step
    n = phi.shape[1]
    d = cg.Dictionary(np.eye(1), "identity") if n == 1 else cg.make_dictionary("tight-frame", 14, n, 3)
    y = np.array([2.0]) if n == 1 else np.random.default_rng(7).standard_normal(n)
    calls = _record_zero_set_duals(monkeypatch)
    spec = cg.ConstraintSpec("equality", y)
    res = cg.solve_analysis_l1(phi, d, spec)
    assert res.certified and res.converged
    dz, v = calls[-1]
    assert np.all(np.abs(dz) > solvers._ZERO_TOL * np.abs(dz).max())
    assert np.array_equal(v, np.sign(dz))
    assert abs(res.objective - cg.solve_lp_certified(phi, d, spec).objective) <= 1e-12 * res.objective


def test_l2_ball_never_polishes(reference_instance, monkeypatch):
    phi, d, x, y = reference_instance
    attempts = _count_polish_attempts(monkeypatch)
    spec = cg.ConstraintSpec("l2-ball", y, epsilon=0.1)
    assert cg.solve_analysis_l1(phi, d, spec).certified
    assert cg.solve_synthesis_l1(phi, d, spec).certified
    assert not attempts
