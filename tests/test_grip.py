import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from _support import (
    assert_svd_factors,
    brute_delta,
    brute_rho,
    classical_delta,
    colex_supports,
    eigh_principal_bounds,
    greedy_cover,
    haar,
    loop_delta,
    loop_rho,
    matched_delta,
    matched_instance,
    sampled_supports,
)
from cosparse_grip import grip


# ---------------------------------------------------------------------------
# delta: classical reduction and independent oracles


def test_identity_dictionary_reduces_to_classical_rip():
    rng = np.random.default_rng(0)
    phi = cg.SensingMatrix(rng.standard_normal((6, 8)) / np.sqrt(6), "user-supplied")
    d = cg.make_dictionary("identity", 8, 8, None)
    for k in (1, 2, 3):
        rep = cg.delta_exact(phi, d, k)
        assert rep.delta == pytest.approx(classical_delta(phi.entries, k), abs=1e-10)
        assert rep.method == "exact" and rep.trials == 0
        assert rep.k == k


def test_orthogonal_dictionary_matches_rotated_classical_rip():
    # delta is invariant under D orthogonal: it equals the classical
    # constant of Phi D^T in the analysis coordinates
    rng = np.random.default_rng(3)
    phi_e = rng.standard_normal((5, 7)) / np.sqrt(5)
    q = haar(7, 9)
    d = cg.Dictionary(q.T, "user-supplied")
    phi = cg.SensingMatrix(phi_e, "user-supplied")
    rep = cg.delta_exact(phi, d, 2)
    assert rep.delta == pytest.approx(classical_delta(phi_e @ q, 2), abs=1e-10)


def test_scaled_isometry_has_exact_scaling_delta():
    # sqrt(1.2) times an orthogonal map deviates by exactly 0.2 on every
    # support; the square shape needs the raw-array escape hatch
    q = haar(6, 4)
    phi_raw = math.sqrt(1.2) * q
    d = cg.make_dictionary("identity", 6, 6, None)
    rep = cg.delta_exact(phi_raw, d, 2)
    assert rep.delta == pytest.approx(0.2, abs=1e-12)
    assert rep.eigen_range[0] == pytest.approx(1.2, abs=1e-12)
    assert rep.eigen_range[1] == pytest.approx(1.2, abs=1e-12)


def test_exact_ties_keep_colex_smallest_witness():
    # a scaled identity makes every support's spectrum bit-identical, so
    # the tie rule is observable: first support in colex order wins
    phi_raw = math.sqrt(1.2) * np.eye(6)
    d = cg.make_dictionary("identity", 6, 6, None)
    rep = cg.delta_exact(phi_raw, d, 2)
    assert rep.delta == pytest.approx(0.2, abs=1e-15)
    assert rep.worst_support.indices == (0, 1)


def test_redundant_dictionary_against_independent_pencil_oracle():
    # the second D is valid but has sigma_min / sigma_max ~ 1e-7: its delta,
    # about 1e13, is a result and not an error, so it is compared relatively
    ill = cg.make_dictionary("tight-frame", 9, 6, 3).entries.copy()
    ill[:, 0] *= 1e-7
    cases = [
        (cg.make_sensing_matrix("gaussian", 6, 8, 42), cg.make_dictionary("tight-frame", 10, 8, 7),
         {"abs": 1e-9}),
        (cg.make_sensing_matrix("gaussian", 4, 6, 5), cg.Dictionary(ill, "user-supplied"),
         {"rel": 1e-12}),
    ]
    for phi, d, tol in cases:
        for k in (1, 2):
            rep = cg.delta_exact(phi, d, k)
            assert rep.delta == pytest.approx(brute_delta(phi.entries, d.entries, k), **tol)


def test_delta_scans_run_no_cholesky_or_solve(monkeypatch):
    # the upper side is an ordinary Rayleigh quotient on an orthonormal
    # basis, so no metric is factored or inverted
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky or np.linalg.solve ran")

    phi = cg.make_sensing_matrix("gaussian", 6, 8, 42)
    d = cg.make_dictionary("tight-frame", 10, 8, 7)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    for k in (1, 2, 3):
        cg.delta_exact(phi, d, k)
        cg.delta_monte_carlo(phi, d, k, 20, 0)


def test_matched_family_closed_form():
    for n, m, k in [(10, 9, 1), (10, 9, 2), (8, 7, 2)]:
        d, phi = matched_instance(n, m, seed=4)
        rep = cg.delta_exact(phi, d, 2 * k)
        assert rep.delta == pytest.approx(matched_delta(n, m, 2 * k), abs=1e-12)
        assert rep.eigen_range[1] == pytest.approx(n / m, abs=1e-12)


def test_delta_monotone_in_k():
    phi = cg.make_sensing_matrix("gaussian", 6, 8, 1)
    d = cg.make_dictionary("tight-frame", 10, 8, 2)
    deltas = [cg.delta_exact(phi, d, k).delta for k in (1, 2, 3)]
    assert deltas[0] <= deltas[1] + 1e-12 <= deltas[2] + 2e-12


def test_eigen_range_consistency():
    phi = cg.make_sensing_matrix("gaussian", 5, 7, 8)
    d = cg.make_dictionary("gaussian-random", 9, 7, 3)
    rep = cg.delta_exact(phi, d, 2)
    lo, hi = rep.eigen_range
    assert rep.delta == pytest.approx(max(hi - 1.0, 1.0 - lo), abs=1e-12)


def test_delta_budget_and_validation():
    phi = cg.make_sensing_matrix("gaussian", 5, 7, 0)
    d = cg.make_dictionary("tight-frame", 12, 7, 0)
    with pytest.raises(cg.BudgetExceededError):
        cg.delta_exact(phi, d, 3, max_supports=10)
    with pytest.raises(ValueError):
        cg.delta_exact(phi, d, 0)
    with pytest.raises(ValueError):
        cg.delta_exact(phi, d, 13)
    wrong_n = cg.make_sensing_matrix("gaussian", 5, 8, 0)
    with pytest.raises(ValueError):
        cg.delta_exact(wrong_n, d, 2)


def test_monte_carlo_never_exceeds_exact():
    phi = cg.make_sensing_matrix("gaussian", 6, 9, 5)
    d = cg.make_dictionary("tight-frame", 11, 9, 5)
    exact = cg.delta_exact(phi, d, 2).delta
    for seed in range(6):
        mc = cg.delta_monte_carlo(phi, d, 2, trials=12, seed=seed)
        assert mc.method == "monte-carlo"
        assert mc.trials == 12
        assert mc.delta <= exact + 1e-12


def test_monte_carlo_exhaustive_switch_equals_exact():
    phi = cg.make_sensing_matrix("gaussian", 5, 7, 2)
    d = cg.make_dictionary("tight-frame", 9, 7, 2)
    exact = cg.delta_exact(phi, d, 2)
    mc = cg.delta_monte_carlo(phi, d, 2, trials=math.comb(9, 2) + 5, seed=0)
    assert mc.delta == exact.delta
    assert mc.method == "monte-carlo"
    assert mc.trials == math.comb(9, 2)
    assert mc.worst_support == exact.worst_support


def test_monte_carlo_deterministic_in_seed():
    phi = cg.make_sensing_matrix("gaussian", 5, 8, 3)
    d = cg.make_dictionary("tight-frame", 10, 8, 3)
    a = cg.delta_monte_carlo(phi, d, 2, trials=9, seed=11)
    # a numpy integer counts as one, and the report keeps a plain int
    b = cg.delta_monte_carlo(phi, d, 2, trials=np.int64(9), seed=11)
    assert a == b and json.loads(b.to_json())["trials"] == 9


@pytest.mark.parametrize("trials", [2.5, True, False, np.float64(9.0), "9", None, 0, -1])
def test_monte_carlo_trials_must_be_an_integer(trials):
    phi = cg.make_sensing_matrix("gaussian", 5, 8, 3)
    d = cg.make_dictionary("tight-frame", 10, 8, 3)
    with pytest.raises(ValueError, match=r"^trials must be (an integer|>= 1), got "):
        cg.delta_monte_carlo(phi, d, 2, trials, seed=11)


def integer_arguments():
    """(argument name, a call of the one argument, a valid value) for every
    integer argument: k, the enumeration budgets, the Monte-Carlo trials,
    SolverOptions.max_iters and SupportSet's indices and p."""
    phi = cg.make_sensing_matrix("gaussian", 5, 8, 3)
    d = cg.make_dictionary("tight-frame", 10, 8, 3)
    x = np.linspace(-1.0, 1.0, 8)
    head = cg.SupportSet((0,), 10)
    chunks = [(cg.SupportSet((i,), 10), d.pinv()[:, i]) for i in (0, 1)]
    known = dict(delta2k=0.1, rho=0.0)
    return {
        "delta_exact": ("k", lambda k: cg.delta_exact(phi, d, k), 1),
        "delta_monte_carlo": ("k", lambda k: cg.delta_monte_carlo(phi, d, k, 5, seed=0), 1),
        "rho_exact": ("k", lambda k: cg.rho_exact(d, k), 1),
        "sample_cosparse_signal": ("k", lambda k: cg.sample_cosparse_signal(d, k, 0), 3),
        "top_k_support": ("k", lambda k: cg.top_k_support(x, k), 1),
        "sigma_k": ("k", lambda k: cg.sigma_k(x, d, k), 1),
        "check_corollary1": ("k", lambda k: cg.check_corollary1(phi, d, k, *chunks, **known), 1),
        "check_corollary2": ("k", lambda k: cg.check_corollary2(phi, d, k, x, head, **known), 1),
        "check_theorem1": ("k", lambda k: cg.check_theorem1(phi, d, k, x, x, **known), 1),
        "delta_exact max_supports": ("max_supports", lambda v: cg.delta_exact(phi, d, 1, max_supports=v), 10),
        "rho_exact max_pairs": ("max_pairs", lambda v: cg.rho_exact(d, 1, max_pairs=v), 45),
        "delta_monte_carlo trials": ("trials", lambda v: cg.delta_monte_carlo(phi, d, 1, v, seed=0), 5),
        "SolverOptions max_iters": ("max_iters", lambda v: cg.SolverOptions(max_iters=v), 5),
        "SupportSet index": ("index", lambda v: cg.SupportSet((v,), 10), 1),
        "SupportSet p": ("p", lambda v: cg.SupportSet((0,), v), 10),
    }


@pytest.mark.parametrize("entry", sorted(integer_arguments()))
def test_k_and_budgets_must_be_integers(entry):
    name, call, valid = integer_arguments()[entry]
    for value in (True, False, np.True_, 1.0, 2.5, np.float64(1.0), "1", None):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            call(value)
    call(valid)
    got = call(np.int64(valid))  # numpy integers stay accepted, and results hold a plain int
    if dataclasses.is_dataclass(got):
        json.dumps(dataclasses.asdict(got))


def test_grip_report_serializes():
    phi = cg.make_sensing_matrix("gaussian", 4, 6, 0)
    d = cg.make_dictionary("identity", 6, 6, None)
    rep = cg.delta_exact(phi, d, 2)
    doc = json.loads(rep.to_json())
    assert doc["k"] == 2 and doc["method"] == "exact"
    assert doc["delta"] == rep.delta
    assert doc["worst_support"] == list(rep.worst_support.indices)
    assert doc["eigen_range"] == [rep.eigen_range[0], rep.eigen_range[1]]


# ---------------------------------------------------------------------------
# rho


def test_rho_zero_for_identity_and_orthogonal():
    d_id = cg.make_dictionary("identity", 8, 8, None)
    assert cg.rho_exact(d_id, 2).rho <= 1e-12
    d_orth = cg.make_dictionary("orthogonal", 8, 8, 1)
    assert cg.rho_exact(d_orth, 3).rho <= 1e-12


def test_rho_matches_brute_force_on_redundant_dictionary():
    d = cg.make_dictionary("gaussian-random", 6, 4, 1)
    for k in (1, 2):
        est = cg.rho_exact(d, k)
        assert est.rho == pytest.approx(brute_rho(d.entries, k), abs=1e-10)
        assert est.method == "exact"
        assert est.witness[0].disjoint_from(est.witness[1])


def test_rho_near_duplicate_rows_approach_one():
    # stacking a basis with a copy rotated by theta in every plane puts
    # each cross pair of analysis directions at angle theta: rho = cos(theta)
    theta = 0.05
    b = haar(4, 2)
    plane = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rot = np.zeros((4, 4))
    rot[:2, :2] = plane
    rot[2:, 2:] = plane
    d = cg.Dictionary(np.vstack([b.T, (b @ rot).T]) / np.sqrt(2.0), "user-supplied")
    est = cg.rho_exact(d, 1)
    assert est.rho == pytest.approx(np.cos(theta), abs=1e-10)
    assert est.rho < 1.0


def test_rho_validation_and_budget():
    d = cg.make_dictionary("tight-frame", 9, 6, 0)
    with pytest.raises(ValueError):
        cg.rho_exact(d, 5)  # 2k > p
    with pytest.raises(ValueError):
        cg.rho_exact(d, 0)
    with pytest.raises(cg.BudgetExceededError):
        cg.rho_exact(d, 2, max_pairs=3)


def test_rho_estimate_serializes():
    d = cg.make_dictionary("gaussian-random", 6, 4, 4)
    est = cg.rho_exact(d, 1)
    doc = json.loads(est.to_json())
    assert doc["k"] == 1 and doc["method"] == "exact"
    assert 0.0 <= doc["rho"] <= 1.0
    assert len(doc["witness"]) == 2


# ---------------------------------------------------------------------------
# batched scans against the per-support reference loops


@st.composite
def grip_instances(draw):
    kind = draw(st.sampled_from(["identity", "tight-frame", "gaussian-random"]))
    n = draw(st.integers(3, 7))
    p = n if kind == "identity" else draw(st.integers(n, 9))
    m = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**16))
    d = cg.make_dictionary(kind, p, n, None if kind == "identity" else seed)
    phi = cg.make_sensing_matrix("gaussian", m, n, seed + 1)
    return d, phi, draw(st.integers(1, p)), seed


def _report(rep):
    return rep.delta, rep.worst_support.indices, rep.eigen_range


def _estimate(est):
    return est.rho, tuple(s.indices for s in est.witness)


@given(grip_instances(), st.data())
@settings(max_examples=40, deadline=None)
def test_batched_scans_equal_reference_loops(instance, data):
    d, phi, k, seed = instance
    supports = colex_supports(d.p, k)
    assert _report(cg.delta_exact(phi, d, k)) == loop_delta(phi.entries, d, supports)
    if len(supports) > 1:
        trials = data.draw(st.integers(1, len(supports) - 1))
        mc = cg.delta_monte_carlo(phi, d, k, trials, seed)
        drawn = sampled_supports(d.p, k, trials, seed)
        assert _report(mc) == loop_delta(phi.entries, d, drawn)
    if 2 * k <= d.p:
        assert _estimate(cg.rho_exact(d, k)) == loop_rho(d, k)


def test_single_row_sensing_equals_reference_loop():
    # m = 1 with a rank-3 chunk basis: the shape at which a stacked A Q
    # product parted from the per-support one in the last bit
    d = cg.make_dictionary("tight-frame", 4, 3, 1)
    phi = cg.make_sensing_matrix("gaussian", 1, 3, 2)
    supports = colex_supports(d.p, 4)
    assert _report(cg.delta_exact(phi, d, 4)) == loop_delta(phi.entries, d, supports)


def test_scaled_identity_ties_survive_chunk_boundaries():
    # every support and every disjoint pair ties bit for bit; 495 supports
    # and 17325 pairs span several chunks, and the colex-first one must win
    p, k = 12, 4
    assert math.comb(p, k) > grip._CHUNK
    phi_raw = math.sqrt(1.2) * np.eye(p)
    d = cg.make_dictionary("identity", p, p, None)
    rep = cg.delta_exact(phi_raw, d, k)
    assert rep.worst_support.indices == (0, 1, 2, 3)
    assert _report(rep) == loop_delta(phi_raw, d, colex_supports(p, k))
    est = cg.rho_exact(d, k)
    assert _estimate(est) == ((0.0, ((0, 1, 2, 3), (4, 5, 6, 7))))
    assert _estimate(est) == loop_rho(d, k)


@pytest.mark.parametrize("scale", [1e-8, 1e-9, 1e-80])
def test_rounded_ties_keep_the_colex_first_witness(scale):
    # every lower side is below 1.1e-16, so 1 - lambda rounds to 1.0 on
    # every support and all 3060 delta terms tie after rounding; a margin
    # relative to trace(A^T A) alone, 1e-24 at scale 1e-8, would prune the
    # colex-first support's lower side, which is above the least one
    d = cg.make_dictionary("tight-frame", 18, 12, 4)
    phi_raw = scale * cg.make_sensing_matrix("gaussian", 8, 12, 5).entries
    rep = cg.delta_exact(phi_raw, d, 4)
    assert rep.worst_support.indices == (0, 1, 2, 3)
    assert _report(rep) == loop_delta(phi_raw, d, colex_supports(d.p, 4))


def _min_rank(cols, supports):
    return int(grip._orth_stack(grip._gather(cols, np.array(supports)))[1].min())


@pytest.mark.parametrize("defect", ["zero-row", "duplicated-rows"])
def test_rank_deficient_bases_equal_reference_loops(defect):
    entries = cg.make_dictionary("tight-frame", 9, 6, 3).entries.copy()
    if defect == "zero-row":
        entries[4] = 0.0
    else:
        entries[7] = entries[2]
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", 4, 6, 5)
    proj = d.projector()
    for k in (2, 3):
        supports = colex_supports(d.p, k)
        assert _min_rank(d.pinv(), supports) < k
        assert _min_rank(proj, supports) < k
        assert _report(cg.delta_exact(phi, d, k)) == loop_delta(phi.entries, d, supports)
        assert _estimate(cg.rho_exact(d, k)) == loop_rho(d, k)


def test_zero_rank_bases_keep_degenerate_rule_and_rho_skip():
    # a zero row of an orthogonal D gives an exactly zero pseudoinverse
    # column: support {4} has a rank-0 basis, {i, 4} a rank-1 basis
    d = cg.Dictionary(np.vstack([haar(4, 6).T, np.zeros((1, 4))]), "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", 3, 4, 2)
    pinv = d.pinv()
    assert not pinv[:, 4].any()
    sup = grip._colex_supports(d.p, 1)
    a_cols = phi.entries @ pinv
    lower = grip._lower_sides(sup, a_cols)
    upper = grip._upper_sides(sup, a_cols.T @ a_cols, d.projector(), lower)
    assert upper[4] == lower[4] == 0.0
    for k in (1, 2):
        supports = colex_supports(d.p, k)
        assert _report(cg.delta_exact(phi, d, k)) == loop_delta(phi.entries, d, supports)
        est = cg.rho_exact(d, k)
        assert _estimate(est) == loop_rho(d, k)
    est = cg.rho_exact(d, 1)
    assert all(s.indices != (4,) for s in est.witness)
    # the pair scan leaves out every pair with a rank-0 side
    sets = grip._colex_supports(d.p, 1)
    bases, rank = grip._orth_stack(grip._gather(d.projector(), sets))
    first, second, _ = grip._pair_bounds(sets, bases, rank)
    assert list(zip(first.tolist(), second.tolist())) == list(itertools.combinations(range(4), 2))


@pytest.mark.parametrize("zero", [4, 8])
def test_an_interior_zero_row_gets_no_basis(zero):
    # an interior zero row of D leaves a column of D^+ of roundoff, about
    # 1e-17, where a last one leaves exact zeros. The cutoff is absolute
    # (P = UU^T has norm 1), so both get rank 0 and rho_1 = 0.6666; one
    # relative to the block's own largest singular value would give the
    # interior row a rank-1 basis of noise and rho_1 = 0.7180, ({4}, {8}).
    entries = cg.make_dictionary("tight-frame", 9, 6, 3).entries.copy()
    entries[4] = 0.0
    order = [i for i in range(9) if i != 4]
    order.insert(zero, 4)
    d = cg.Dictionary(entries[order], "user-supplied")
    proj = d.projector()
    assert np.abs(proj[:, zero]).max() < 1e-15
    assert grip._orth_stack(grip._gather(proj, np.array([[zero]])))[1][0] == 0
    est = cg.rho_exact(d, 1)
    assert est.rho == pytest.approx(0.6666349327613159, abs=1e-12)
    assert all(zero not in s.indices for s in est.witness)
    assert _estimate(est) == loop_rho(d, 1)


def test_disjoint_pair_count_closed_form():
    for p in range(2, 11):
        d = cg.make_dictionary("identity", p, p, None)
        for k in range(1, p // 2 + 1):
            supports = colex_supports(p, k)
            brute = [
                (i, j)
                for i, si in enumerate(supports)
                for j, sj in enumerate(supports)
                if i < j and not set(si) & set(sj)
            ]
            assert math.comb(p, k) * math.comb(p - k, k) // 2 == len(brute)
            with pytest.raises(cg.BudgetExceededError, match=f"^{len(brute)} disjoint pairs"):
                cg.rho_exact(d, k, max_pairs=len(brute) - 1)
            sets = np.array(supports)
            bases, rank = grip._orth_stack(grip._gather(np.eye(p), sets))
            first, second, _ = grip._pair_bounds(sets, bases, rank)
            assert list(zip(first.tolist(), second.tolist())) == brute


def enumerate_instances():
    """The four (18x12 tight frame, 8x12 gaussian) instances of the
    `enumerate` benchmark: the pool of a verify-c1 campaign at seed 11."""
    seeds = [cg.trial_seed(11, 2**40 + i) for i in range(4)]
    return [
        (
            cg.make_dictionary("tight-frame", 18, 12, cg.trial_seed(s, 0)),
            cg.make_sensing_matrix("gaussian", 8, 12, cg.trial_seed(s, 1)),
        )
        for s in seeds
    ]


def _count_cosines(monkeypatch):
    seen = []
    cosines = grip._cosines

    def counted(bases, rank, first, second):
        seen.append(len(first))
        return cosines(bases, rank, first, second)

    monkeypatch.setattr(grip, "_cosines", counted)
    return seen


def test_pruned_rho_equals_reference_loop_on_enumerate_frames():
    # 9180 disjoint pairs each, many times the largest queue block
    assert math.comb(18, 2) * math.comb(16, 2) // 2 > 4 * grip._CHUNK
    for d, _ in enumerate_instances():
        assert _estimate(cg.rho_exact(d, 2)) == loop_rho(d, 2)


def test_pruned_rho_with_tied_bounds_and_rank_deficient_bases():
    # a repeated row ties the bounds of every pair that swaps the copies,
    # and the repeated row and the zero row leave rank-1 bases on the
    # supports holding them, in pairs early and late in pair order
    entries = cg.make_dictionary("tight-frame", 18, 12, 7).entries.copy()
    entries[1] = entries[0]
    entries[17] = 0.0
    d = cg.Dictionary(entries, "user-supplied")
    supports = grip._colex_supports(18, 2)
    bases, rank = grip._orth_stack(grip._gather(d.projector(), supports))
    first, second, bound = grip._pair_bounds(supports, bases, rank)
    deficient = np.flatnonzero(np.minimum(rank[first], rank[second]) < 2)
    assert deficient.min() < grip._CHUNK and deficient.max() > len(first) - grip._CHUNK
    assert len(np.unique(bound)) < len(bound)
    # the bound holds for every pair it may skip
    cos = grip._cosines(bases, rank, first[deficient], second[deficient])
    assert (cos <= bound[deficient] + grip._PRUNE_MARGIN).all()
    assert _estimate(cg.rho_exact(d, 2)) == loop_rho(d, 2)


def _queue_blocks(count):
    """The stacked calls of `count` bounded rows that are all reached:
    blocks doubling from _CHUNK // 8 to _CHUNK rows, the last one cut."""
    blocks = []
    while sum(blocks) < count:
        blocks.append(min((grip._CHUNK // 8) << len(blocks), grip._CHUNK, count - sum(blocks)))
    return blocks


def test_pruned_rho_decomposes_few_pairs(monkeypatch):
    seen = _count_cosines(monkeypatch)
    for d, _ in enumerate_instances():
        seen.clear()
        cg.rho_exact(d, 2)
        assert 0 < sum(seen) <= 64 and max(seen) <= grip._CHUNK
    # identity D: every bound ties at 0 (rho = 0), so no bound falls below
    # the incumbent and the queue evaluates every pair, in doubling blocks
    p, k = 12, 4
    pairs = math.comb(p, k) * math.comb(p - k, k) // 2
    seen.clear()
    cg.rho_exact(cg.make_dictionary("identity", p, p, None), k)
    assert seen == _queue_blocks(pairs)


@pytest.mark.parametrize("p, n, k, meets", [(14, 9, 6, True), (12, 9, 5, True), (10, 6, 3, False)])
def test_rho_is_one_when_disjoint_subspaces_must_meet(monkeypatch, p, n, k, meets):
    # rank_i + rank_j > n = rank(P) forces two subspaces of range(D) to
    # meet: rho is exactly 1, witnessed by the first such disjoint pair,
    # with no pair Gram and no svd. At 2k = n the bounded scan still runs
    d = cg.make_dictionary("tight-frame", p, n, 1)
    seen = _count_cosines(monkeypatch)
    if meets:
        monkeypatch.setattr(grip, "_pair_bounds", None)  # calling it would fail
    est = cg.rho_exact(d, k)
    assert _estimate(est) == loop_rho(d, k)
    if meets:
        first = next(
            (a, b) for a, b in itertools.combinations(colex_supports(p, k), 2) if not set(a) & set(b)
        )
        assert _estimate(est) == (1.0, first) and seen == []
    else:
        assert est.rho < 1.0 and 0 < sum(seen) < math.comb(p, k) * math.comb(p - k, k) // 2


def test_rho_budget_refuses_before_enumerating():
    # C(40, 8) * C(32, 8) / 2 ~ 4.0e15 pairs; counting them one by one, or
    # building the 76.9M supports, would never finish
    d = cg.make_dictionary("tight-frame", 40, 12, 0)
    with pytest.raises(cg.BudgetExceededError, match="disjoint pairs exceed budget 60000"):
        cg.rho_exact(d, 8)


# ---------------------------------------------------------------------------
# exact delta with superset pruning


def test_colex_supports_equal_sorted_reference():
    for p in range(1, 11):
        for k in range(1, p + 1):
            got = grip._colex_supports(p, k)
            assert got.dtype == np.intp and got.shape == (math.comb(p, k), k)
            assert got.tolist() == [list(s) for s in colex_supports(p, k)]
    assert grip._colex_supports(18, 4).tolist() == [list(s) for s in colex_supports(18, 4)]


_COVER_CASES = [(6, 1), (8, 2), (12, 4), (13, 3), (14, 5), (18, 4)]


@pytest.mark.parametrize("p, k", _COVER_CASES)
def test_colex_supports_are_built_once_and_read_only(p, k):
    sets = grip._colex_supports(p, k)
    assert grip._colex_supports(p, k) is sets  # built once per process
    with pytest.raises(ValueError):
        sets[0, 0] = 0
    assert sets.tolist() == [list(s) for s in colex_supports(p, k)]


@pytest.mark.parametrize("p, k", _COVER_CASES)
def test_superset_cover_covers_every_support_and_rebuilds_equal(p, k):
    supersets, members = grip._superset_cover(p, k)
    count = len(supersets)
    assert supersets.shape[1] == k + 2 and not supersets.flags.writeable
    assert members.shape == (count, math.comb(k + 2, 2)) and not members.flags.writeable
    assert (np.diff(supersets, axis=1) > 0).all()
    assert supersets.min() >= 0 and supersets.max() < p
    # each row of members is C(k+2, 2) distinct k-sets inside its
    # superset, so all of its k-subsets
    member = np.zeros((count, p), dtype=bool)
    np.put_along_axis(member, supersets, True, axis=1)
    sets = grip._colex_supports(p, k)
    assert np.take_along_axis(member, sets[members].reshape(count, -1), axis=1).all()
    assert (np.diff(np.sort(members, axis=1), axis=1) > 0).all()
    # every k-set lies in some superset, and every superset is the first
    # to hold at least the k-set it was grown from
    first = np.full(len(sets), count)
    np.minimum.at(first, members, np.arange(count)[:, None])
    assert set(first.tolist()) == set(range(count))
    again = grip._superset_cover.__wrapped__(p, k)
    assert np.array_equal(again[0], supersets) and np.array_equal(again[1], members)
    assert grip._superset_cover(p, k)[0] is supersets  # built once per process


@pytest.mark.parametrize("p, k", _COVER_CASES)
def test_cover_gather_equals_the_scatter_and_is_built_once(p, k):
    # one reduceat over the cover grouped by support gives each support
    # the least value of the supersets that hold it, as a scatter of
    # every superset's value over its members does, bit for bit
    supersets, members = grip._superset_cover(p, k)
    src, starts = grip._cover_gather(p, k)
    assert grip._cover_gather(p, k)[0] is src  # built once per process
    assert src.shape == (members.size,) and starts.shape == (math.comb(p, k),)
    for array in (src, starts):
        with pytest.raises(ValueError):
            array[0] = 0
    rng = np.random.default_rng(100 * p + k)
    for infinite in (0.0, 0.3, 1.0):
        values = rng.standard_normal(len(supersets))
        values[rng.random(len(values)) < infinite] = math.inf
        values[rng.random(len(values)) < infinite / 2] = -math.inf
        want = np.full(math.comb(p, k), math.inf)
        np.minimum.at(want, members, values[:, None])
        assert np.array_equal(np.minimum.reduceat(values[src], starts), want)


def test_superset_cover_follows_the_greedy_rule():
    cases = [(p, k) for p in range(3, 12) for k in range(1, p - 1)] + [(18, 4)]
    for p, k in cases:
        supersets, members = grip._superset_cover(p, k)
        want_supersets, want_members = greedy_cover(p, k)
        assert supersets.tolist() == [list(s) for s in want_supersets], (p, k)
        assert np.sort(members, axis=1).tolist() == want_members, (p, k)


def test_superset_bounds_refuse_ill_conditioned_blocks():
    # rows 0/1 repeat exactly, rows 2/3 differ by 1e-9, row 4 is zero: a
    # superset holding either pair or row 4 is below the conditioning
    # floor, bounds neither side (+inf above, -inf below) and so never
    # prunes
    entries = cg.make_dictionary("tight-frame", 12, 8, 2).entries.copy()
    entries[1] = entries[0]
    entries[3] = entries[2] + 1e-9 * entries[5]
    entries[4] = 0.0
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", 5, 8, 3)
    a_cols = phi.entries @ d.pinv()
    proj = d.projector()
    sets = np.array([[0, 1, 6, 7], [2, 3, 6, 7], [4, 6, 7, 8], [5, 6, 7, 8]])
    upper, lower = grip._principal_bounds(sets, a_cols.T @ a_cols, proj)
    assert (upper[:3] == math.inf).all() and np.isfinite(upper[3])
    assert (lower[:3] == -math.inf).all() and np.isfinite(lower[3])
    # a finite bound holds for every subset it covers
    subsets = np.array([list(s) for s in itertools.combinations(sets[3], 2)])
    lowers = grip._lower_sides(subsets, a_cols)
    assert grip._upper_sides(subsets, a_cols.T @ a_cols, proj, lowers).max() <= upper[3]
    assert lowers.min() >= lower[3]


def _count_sides(monkeypatch, name):
    """The row counts of the calls of grip._lower_sides or
    grip._upper_sides, in call order."""
    seen = []
    sides = getattr(grip, name)

    def counted(supports, *args):
        seen.append(len(supports))
        return sides(supports, *args)

    monkeypatch.setattr(grip, name, counted)
    return seen


def _unbounded_blocks(count):
    """The stacked calls of `count` rows without a bound: _CHUNK at a time."""
    whole, part = divmod(count, grip._CHUNK)
    return [grip._CHUNK] * whole + [part] * (part > 0)


def test_pruning_skips_most_upper_sides_on_a_tight_frame(monkeypatch):
    # a repeated row leaves every superset holding both copies without a
    # bound; a support takes the least bound of the supersets that hold
    # it, so only the C(16, 2) = 120 supports holding both copies need stay
    # unbounded. Those rows go first, _CHUNK at a time, and the bounded
    # rows follow in blocks doubling from _CHUNK // 8
    phi = cg.make_sensing_matrix("gaussian", 8, 12, 5)
    supersets, members = grip._superset_cover(18, 4)
    sets = grip._colex_supports(18, 4)
    both = np.isin(sets, [0, 1]).sum(axis=1) == 2
    seen = _count_sides(monkeypatch, "_upper_sides")
    for repeat_row, unbounded, most in ((False, 0, 32), (True, 236, 268)):
        entries = cg.make_dictionary("tight-frame", 18, 12, 4).entries.copy()
        if repeat_row:
            entries[1] = entries[0]
        d = cg.Dictionary(entries, "user-supplied")
        seen.clear()
        rep = cg.delta_exact(phi, d, 4)
        assert 0 < sum(seen) <= most
        assert _report(rep) == loop_delta(phi.entries, d, colex_supports(18, 4))
        a_cols = phi.entries @ d.pinv()
        bound = np.full(len(sets), math.inf)
        bounds = grip._principal_bounds(supersets, a_cols.T @ a_cols, d.projector())[0]
        np.minimum.at(bound, members, bounds[:, None])
        assert np.count_nonzero(np.isinf(bound)) == unbounded
        assert np.isinf(bound[both]).all() == repeat_row
        first = _unbounded_blocks(unbounded)
        assert seen[: len(first)] == first
        bounded = seen[len(first) :]
        assert bounded and bounded == _queue_blocks(sum(bounded))


def test_pruned_scan_evaluates_few_upper_sides_on_enumerate_frames(monkeypatch):
    seen = _count_sides(monkeypatch, "_upper_sides")
    for (d, phi), most in zip(enumerate_instances(), (32, 65, 32, 32)):
        seen.clear()
        rep = cg.delta_exact(phi, d, 4)
        assert 0 < sum(seen) <= most
        assert _report(rep) == loop_delta(phi.entries, d, colex_supports(18, 4))


def test_pruned_scan_evaluates_few_lower_sides_on_enumerate_frames(monkeypatch):
    # lambda_min(A_U^T A_U) bounds the lower sides of U's subsets, so the
    # negated lower sides go through the queue as the upper sides do
    seen = _count_sides(monkeypatch, "_lower_sides")
    for (d, phi), most in zip(enumerate_instances(), (96, 82, 134, 96)):
        seen.clear()
        rep = cg.delta_exact(phi, d, 4)
        assert 0 < sum(seen) <= most
        assert seen == _queue_blocks(sum(seen))  # bounded rows, in doubling blocks
        assert _report(rep) == loop_delta(phi.entries, d, colex_supports(18, 4))


def test_lower_bounds_keep_every_lower_side_below_k_plus_2_measurements(monkeypatch):
    # m = 5 < k + 2: every A_U has a null direction, lambda_min(A_U^T A_U)
    # is 0 up to roundoff, and the margin keeps every lower side in the
    # queue, in doubling blocks, while the upper sides still prune
    lowers = _count_sides(monkeypatch, "_lower_sides")
    uppers = _count_sides(monkeypatch, "_upper_sides")
    for d, _ in enumerate_instances():
        phi = cg.make_sensing_matrix("gaussian", 5, 12, 3)
        lowers.clear()
        uppers.clear()
        rep = cg.delta_exact(phi, d, 4)
        assert lowers == _queue_blocks(math.comb(18, 4))
        assert sum(uppers) < math.comb(18, 4)
        assert _report(rep) == loop_delta(phi.entries, d, colex_supports(18, 4))


def test_rank_zero_support_lower_side_precedes_its_upper_side(monkeypatch):
    # k trailing zero rows of D make one support's projected block exactly
    # zero: it lies in no well-conditioned superset, so it is unbounded in
    # both queues, and its lower side is evaluated before _upper_sides
    # copies it
    k, zero = 4, [14, 15, 16, 17]
    entries = cg.make_dictionary("tight-frame", 18, 12, 5).entries.copy()
    entries[zero] = 0.0
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", 8, 12, 6)
    sets = grip._colex_supports(18, k)
    target = int(np.flatnonzero((sets == zero).all(axis=1))[0])
    assert grip._orth_stack(grip._gather(d.projector(), sets[target : target + 1]))[1][0] == 0
    order = []
    lower_sides, upper_sides = grip._lower_sides, grip._upper_sides

    def lowers(supports, *args):
        order.append(("lower", supports.tolist()))
        return lower_sides(supports, *args)

    def uppers(supports, gram, proj, lower):
        # the copy of a rank-0 support's lower side must read an evaluated one
        assert np.isfinite(lower).all() or zero not in supports.tolist()
        order.append(("upper", supports.tolist()))
        return upper_sides(supports, gram, proj, lower)

    monkeypatch.setattr(grip, "_lower_sides", lowers)
    monkeypatch.setattr(grip, "_upper_sides", uppers)
    rep = cg.delta_exact(phi, d, k)
    holding = [side for side, rows in order if zero in rows]
    assert holding == ["lower", "upper"]
    assert sum(len(rows) for _, rows in order) < 2 * len(sets)
    assert _report(rep) == loop_delta(phi.entries, d, colex_supports(18, k))


@st.composite
def bounded_frames(draw):
    """(d, phi, k, refused) with the cover's bounds in play (k + 2 <= n).
    The frame may repeat row 0 as row 1, put row 3 1e-9 from row 2, zero
    row 4, and put row 7 a small step from row 6, near the conditioning
    floor; Phi may be stretched along the chunk direction of rows 6 and 7,
    which that step leaves worst conditioned. refused lists the row sets
    whose supersets must bound nothing: a repeated row and a zero row
    give P = U U^T a repeated or a roundoff column. Rows 2 and 3 are not
    among them: the 1e-9 step can leave D so ill-conditioned that P's
    columns 2 and 3 are far apart (_ill_conditioned_pair_frame)."""
    k = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(9, 12))
    n = draw(st.integers(k + 2, p - 3))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["tight-frame", "gaussian-random"]))
    entries = cg.make_dictionary(kind, p, n, seed).entries.copy()
    rng = np.random.default_rng(seed)
    refused = []
    if draw(st.booleans()):
        entries[1] = entries[0]
        refused.append({0, 1})
    if draw(st.booleans()):
        entries[3] = entries[2] + 1e-9 * rng.standard_normal(n)
    if draw(st.booleans()):
        entries[4] = 0.0
        refused.append({4})
    step = draw(st.sampled_from([0.0, 1e-6, 1e-5, 1e-3, 1e-2, 3e-2, 1e-1]))
    if step:
        entries[7] = entries[6] + step * rng.standard_normal(n)
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", draw(st.integers(1, n - 1)), n, seed + 1).entries.copy()
    if step and draw(st.booleans()):
        x = d.pinv()[:, 6] - d.pinv()[:, 7]
        phi[0] += 30.0 * x / np.linalg.norm(x)
    return d, phi, k, refused


def _principal_bounds_hold(d, phi, k, refused):
    """Every finite bound of the cover's supersets holds within the
    margin for every k-subset; a bounded superset U has sigma_min(P[:, U])
    above _PRUNE_FLOOR times sigma_max(P[:, U]), by an svd of its own;
    and a superset holding one of the row sets in `refused` bounds
    nothing."""
    a_cols = phi @ d.pinv()
    gram, proj = a_cols.T @ a_cols, d.projector()
    margin = grip._PRUNE_MARGIN * float(np.trace(gram))
    supersets, members = grip._superset_cover(d.p, k)
    upper, lower = grip._principal_bounds(supersets, gram, proj)
    sets = grip._colex_supports(d.p, k)
    lowers = grip._lower_sides(sets, a_cols)
    uppers = grip._upper_sides(sets, gram, proj, lowers)
    assert np.array_equal(upper == math.inf, lower == -math.inf)
    for g, superset in enumerate(supersets):
        if any(rows <= set(superset.tolist()) for rows in refused):
            assert upper[g] == math.inf and lower[g] == -math.inf
        if upper[g] < math.inf:
            sv = np.linalg.svd(proj[:, superset], compute_uv=False)
            assert sv[-1] > grip._PRUNE_FLOOR * sv[0]
            assert uppers[members[g]].max() <= upper[g] + margin
            assert lowers[members[g]].min() >= lower[g] - margin


def _far_from_projector_frame():
    """A bounded_frames draw whose D D^+ is 8.5e-9 from idempotent, with
    trace(A^T A) = 1.2e15: with P = D D^+, P G P = G missed by more than
    the margin and two supersets' bounds fell 3.4 margins below a
    subset's upper side. P = U U^T is 6.7e-16 from idempotent."""
    entries = cg.make_dictionary("gaussian-random", 11, 8, 194).entries.copy()
    rng = np.random.default_rng(194)
    entries[1] = entries[0]
    entries[3] = entries[2] + 1e-9 * rng.standard_normal(8)
    entries[4] = 0.0
    entries[7] = entries[6] + 1e-6 * rng.standard_normal(8)
    phi = cg.make_sensing_matrix("gaussian", 1, 8, 195).entries.copy()
    return cg.Dictionary(entries, "user-supplied"), phi, 2, [{0, 1}, {2, 3}, {4}]


def _ill_conditioned_pair_frame():
    """A bounded_frames draw (9x6 tight frame, seed 6, rows 2 and 3 1e-9
    apart, m = 1, Phi stretched) whose D has sigma ratio 2.3e-8, so P's
    columns 2 and 3 have sigma ratio 0.058: superset [0 2 3 5 8] holds
    both rows, is well conditioned, and is bounded correctly."""
    entries = cg.make_dictionary("tight-frame", 9, 6, 6).entries.copy()
    rng = np.random.default_rng(6)
    entries[1] = entries[0]
    entries[3] = entries[2] + 1e-9 * rng.standard_normal(6)
    entries[4] = 0.0
    entries[7] = entries[6] + 1e-6 * rng.standard_normal(6)
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", 1, 6, 7).entries.copy()
    x = d.pinv()[:, 6] - d.pinv()[:, 7]
    phi[0] += 30.0 * x / np.linalg.norm(x)
    return d, phi, 3, [{0, 1}, {4}]


@given(bounded_frames())
@example(_far_from_projector_frame())
@example(_ill_conditioned_pair_frame())
@settings(max_examples=40, deadline=None)
def test_principal_bounds_hold_for_every_subset(frame):
    _principal_bounds_hold(*frame)


@given(bounded_frames())
@example(_far_from_projector_frame())
@example(_ill_conditioned_pair_frame())
@settings(max_examples=40, deadline=None)
def test_principal_bounds_agree_with_eigh_whitened_bounds(frame):
    # the Cholesky rule is a sufficient form of the eigh rule, so its
    # bounded rows are among the oracle's, and the same rows bound both
    # sides. There the trace bounds lie beyond the oracle's eigenvalues,
    # by no more than sqrt(h) above, up to roundoff. Whitening's relative
    # roundoff grows with the condition number of P[U, U], up to
    # 1 / _PRUNE_FLOOR^2 = 1e4 on a bounded row: the two whitened forms
    # agreed within 1.1e-12 over 3,000 draws of these frames near the
    # floor. The lower bound's roundoff is relative to G[U, U]'s scale
    d, phi, k, _ = frame
    a_cols = phi @ d.pinv()
    gram, proj = a_cols.T @ a_cols, d.projector()
    supersets, _ = grip._superset_cover(d.p, k)
    upper, lower = grip._principal_bounds(supersets, gram, proj)
    want_upper, want_lower = eigh_principal_bounds(supersets, gram, proj)
    bounded = upper < math.inf
    assert np.array_equal(bounded, lower > -math.inf)
    assert (want_upper[bounded] < math.inf).all()
    up, want_up = upper[bounded], want_upper[bounded]
    assert (want_up <= up + 1e-11 * np.abs(want_up)).all()
    assert (up <= math.sqrt(k + 2) * want_up + 1e-11 * np.abs(want_up)).all()
    scale = np.trace(gram[supersets[:, :, None], supersets[:, None, :]], axis1=1, axis2=2)
    assert (lower[bounded] <= want_lower[bounded] + 1e-12 * scale[bounded]).all()


@given(bounded_frames())
@example(_far_from_projector_frame())
@example(_ill_conditioned_pair_frame())
@settings(max_examples=40, deadline=None)
def test_cholesky_stack_inverts_its_factors_by_forward_substitution(frame):
    # on every block past the pivot floor, the stacked L^-1 is LAPACK's
    # inverse of LAPACK's Cholesky factor to roundoff of the block's
    # condition: within 0.9 eps cond(P[U, U]) relative over 6,000 draws
    # of these frames. Refused blocks stay finite, and a warning would
    # fail the test
    d, _, k, _ = frame
    supersets, _ = grip._superset_cover(d.p, k)
    pu = d.projector()[supersets[:, :, None], supersets[:, None, :]]
    floor = grip._PRUNE_FLOOR**2 * np.fmax(np.trace(pu, axis1=1, axis2=2), grip._TRIVIAL_TOL)
    white, ok = grip._cholesky_stack(pu, floor)
    assert np.isfinite(white).all() and not np.triu(white, 1).any()
    want = np.linalg.inv(np.linalg.cholesky(pu[ok]))
    error = np.linalg.norm(white[ok] - want, axis=(1, 2))
    tolerance = 1e-14 * np.linalg.cond(pu[ok]) * np.linalg.norm(want, axis=(1, 2))
    assert (error <= tolerance).all()


def test_enumerate_delta_scan_runs_no_eigh_or_inv(monkeypatch):
    # the superset bounds whiten P[U, U] by the inverse of its Cholesky
    # factor, built by forward substitution, and the sides take only
    # eigenvalues
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} ran")

        return call

    d, phi = enumerate_instances()[0]
    monkeypatch.setattr(np.linalg, "eigh", forbidden("eigh"))
    monkeypatch.setattr(np.linalg, "inv", forbidden("inv"))
    rep = cg.delta_exact(phi, d, 4)
    assert _report(rep) == loop_delta(phi.entries, d, colex_supports(18, 4))


def test_principal_bounds_run_no_eigvalsh(monkeypatch):
    # both superset bounds are trace bounds on powers of the blocks: the
    # enumerate cover's 324 blocks take no eigenvalue call
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh ran")

    d, phi = enumerate_instances()[0]
    a_cols = phi.entries @ d.pinv()
    supersets = grip._superset_cover(18, 4)[0]
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    upper, lower = grip._principal_bounds(supersets, a_cols.T @ a_cols, d.projector())
    assert len(supersets) == 324 and np.isfinite(upper).all() and np.isfinite(lower).all()


@st.composite
def psd_stacks(draw):
    """(G, h, h) stacks of symmetric PSD blocks, h = 2-8, rotated by a
    Haar matrix from spectra spanning 1e-12-1e12. A block may have exact
    zeros (all of them included), a repeated top eigenvalue, or rank 1."""
    h = draw(st.integers(2, 8))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        spectrum = 10.0 ** np.array(draw(st.lists(st.floats(-12, 12), min_size=h, max_size=h)))
        shape = draw(st.sampled_from(["full", "zeros", "repeated", "rank-1"]))
        if shape == "zeros":
            spectrum[: draw(st.integers(1, h))] = 0.0
        elif shape == "repeated":
            spectrum[:2] = spectrum.max()
        elif shape == "rank-1":
            spectrum[1:] = 0.0
        q = haar(h, draw(st.integers(0, 2**16)))
        block = (q * spectrum) @ q.T
        blocks.append((block + block.T) / 2.0)
    return np.array(blocks)


@given(psd_stacks(), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_top_bound_brackets_lambda_max(stack, squarings):
    # Wolkowicz & Styan's trace bound on the 2^j-th power, rooted: at
    # least lambda_max, and at most h^(1/2^(j+1)) lambda_max (the
    # Frobenius norm of the power), up to roundoff
    h = stack.shape[-1]
    top = np.linalg.eigvalsh(stack)[:, -1]
    bound = grip._top_bound(stack, squarings)
    assert (top <= bound + 1e-12 * top).all()
    assert (bound <= h ** (0.5 ** (squarings + 1)) * top * (1.0 + 1e-12)).all()


def _diagonal_lower_bounds(stack):
    """_principal_bounds' lower bounds of the blocks of a (G, h, h) stack,
    placed on the diagonal of G and read with P = I, so that each block
    is whitened by the identity."""
    count, h, _ = stack.shape
    gram = np.zeros((count * h, count * h))
    for g, block in enumerate(stack):
        gram[g * h : (g + 1) * h, g * h : (g + 1) * h] = block
    supersets = np.arange(count * h).reshape(count, h)
    return grip._principal_bounds(supersets, gram, np.eye(count * h))[1]


@given(psd_stacks())
@settings(max_examples=80, deadline=None)
def test_lower_bound_holds_on_positive_definite_blocks(stack):
    # 1 / the trace bound on G[U, U]^-2, square-rooted, where every pivot
    # of G[U, U] is positive; exactly 0 where one is not
    lower = _diagonal_lower_bounds(stack)
    spectrum = np.linalg.eigvalsh(stack)
    pd = grip._cholesky_stack(stack, np.zeros(len(stack)))[1]
    assert (lower[~pd] == 0.0).all() and (lower[pd] > 0.0).all()
    assert (lower[pd] <= spectrum[pd, 0] + 1e-12 * spectrum[pd, -1]).all()


def test_lower_bound_is_zero_where_a_pivot_fails():
    # a zero diagonal entry and an all-ones block (second pivot 1 - 1 = 0)
    # fail a pivot exactly; a diagonal block with lambda_min 1e-12 does not
    stack = np.array([np.diag([4.0, 0.0, 1.0]), np.ones((3, 3)), np.diag([1e12, 1e-12, 1.0])])
    lower = _diagonal_lower_bounds(stack)
    assert lower[:2].tolist() == [0.0, 0.0]
    assert 1e-12 / 3**0.25 <= lower[2] <= 1e-12 * (1.0 + 1e-12)


def test_pruned_scan_past_the_default_budget_equals_reference_loop(monkeypatch):
    # C(24, 4) = 10,626 supports, 1,086 cover blocks: the trace bounds
    # prune as the eigenvalues did, and the report keeps the loop's bits
    d = cg.make_dictionary("tight-frame", 24, 14, 3)
    phi = cg.make_sensing_matrix("gaussian", 9, 14, 4)
    lowers = _count_sides(monkeypatch, "_lower_sides")
    uppers = _count_sides(monkeypatch, "_upper_sides")
    rep = cg.delta_exact(phi, d, 4, max_supports=10626)
    assert len(grip._superset_cover(24, 4)[0]) == 1086
    assert 0 < sum(lowers) <= 313 and 0 < sum(uppers) <= 32
    assert _report(rep) == loop_delta(phi.entries, d, colex_supports(24, 4))


def test_well_conditioned_superset_of_close_rows_bounds():
    # the 1e-9 step leaves D ill-conditioned but not P[:, {2, 3}], so a
    # superset holding rows 2 and 3 bounds, and its bounds hold
    d, phi, k, _ = _ill_conditioned_pair_frame()
    supersets, _ = grip._superset_cover(d.p, k)
    a_cols = phi @ d.pinv()
    upper, _ = grip._principal_bounds(supersets, a_cols.T @ a_cols, d.projector())
    bounded = [s for s, u in zip(supersets.tolist(), upper) if u < math.inf and {2, 3} <= set(s)]
    assert bounded == [[0, 2, 3, 5, 8]]


@given(bounded_frames())
@example(_ill_conditioned_pair_frame())
@settings(max_examples=40, deadline=None)
def test_svd_factors_on_bounded_frames(frame):
    assert_svd_factors(frame[0])


def test_principal_bounds_refuse_blocks_too_ill_conditioned_for_the_margin():
    # rows 6 and 7 3e-6 apart and Phi stretched along their chunk
    # direction: the bounds of a superset holding both lose accuracy as
    # the square of its conditioning, and at a singular-value floor of
    # 1e-6 one fell 4e3 margins below a subset's upper side; the floor
    # refuses them
    entries = cg.make_dictionary("tight-frame", 10, 6, 30).entries.copy()
    entries[7] = entries[6] + 3e-6 * np.random.default_rng(30).standard_normal(6)
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", 4, 6, 31).entries.copy()
    x = d.pinv()[:, 6] - d.pinv()[:, 7]
    phi[0] += 30.0 * x / np.linalg.norm(x)
    _principal_bounds_hold(d, phi, 3, [{6, 7}])


@st.composite
def queued_families(draw):
    """(values, bounds, margin) for the best-first queue: bounds are the
    values plus a nonnegative slack, some +inf; coarse grids tie values
    and bounds, and the family may span several blocks of _CHUNK rows."""
    count = draw(st.integers(1, 3 * grip._CHUNK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-3, 4, count) / 2.0
        bound = values + rng.integers(0, 3, count) / 2.0
    else:
        values = rng.standard_normal(count)
        bound = values + rng.exponential(draw(st.sampled_from([0.0, 0.01, 1.0])), count)
    bound[rng.random(count) < draw(st.sampled_from([0.0, 0.02, 0.5, 1.0]))] = math.inf
    return values, bound, draw(st.sampled_from([0.0, 1e-9, 0.25]))


@given(queued_families())
@settings(max_examples=80, deadline=None)
def test_best_first_equals_evaluating_every_row(family):
    values, bound, margin = family
    calls = []

    def evaluate(rows):
        calls.append(rows)
        return values[rows]

    got = grip._best_first(bound, evaluate, margin)
    reached = np.concatenate(calls)
    assert len(np.unique(reached)) == len(reached) and max(map(len, calls)) <= grip._CHUNK
    assert np.array_equal(got[reached], values[reached])
    assert np.isin(np.flatnonzero(np.isinf(bound)), reached).all()
    assert got.max() == values.max() and np.argmax(got) == np.argmax(values)
    unreached = np.setdiff1d(np.arange(len(values)), reached)
    assert (got[unreached] == -math.inf).all() and (values[unreached] < got.max()).all()


@pytest.mark.parametrize(
    "kind, p, n, k, trials, zero_row",
    [
        ("tight-frame", 12, 8, 3, None, False),
        ("tight-frame", 14, 9, 4, 600, False),
        ("tight-frame", 14, 5, 4, None, False),
        ("gaussian-random", 14, 5, 4, None, False),
        ("gaussian-random", 14, 5, 4, None, True),
        ("identity", 10, 10, 2, None, False),
        ("tight-frame", 16, 10, 5, 300, False),
    ],
    ids=[
        "one-chunk", "sampled", "tight-frame-wide", "gaussian-random-wide", "zero-row-wide",
        "identity-one-chunk", "sampled-300",
    ],
)
def test_unbounded_scans_evaluate_every_upper_side(monkeypatch, kind, p, n, k, trials, zero_row):
    # no row of a one-chunk family, a sampled scan or a family with
    # k + 2 > n has a superset bound, so each queue evaluates every lower
    # and upper side, _CHUNK rows per call: 45 rows in one call, 300 in
    # 256 + 44
    entries = cg.make_dictionary(kind, p, n, 4).entries.copy()
    if zero_row:
        entries[6] = 0.0
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", n - 3, n, 5)
    seen = _count_sides(monkeypatch, "_upper_sides")
    lowers = _count_sides(monkeypatch, "_lower_sides")
    if trials is None:
        rep = cg.delta_exact(phi, d, k)
        supports = colex_supports(p, k)
    else:
        rep = cg.delta_monte_carlo(phi, d, k, trials, seed=7)
        supports = sampled_supports(p, k, trials, 7)
    assert seen == lowers == _unbounded_blocks(len(supports))
    assert (len(supports) > grip._CHUNK) == (trials is not None or k + 2 > n)
    assert _report(rep) == loop_delta(phi.entries, d, supports)


@st.composite
def pruned_instances(draw):
    """Instances whose colex family spans more than one chunk and whose
    (k+2)-sets can be full rank, so the pruned scan runs."""
    kind = draw(st.sampled_from(["identity", "tight-frame", "gaussian-random"]))
    k = draw(st.sampled_from([3, 4]))
    smallest = 13 if k == 3 else 12  # C(p, k) > 256
    seed = draw(st.integers(0, 2**16))
    if kind == "identity":
        p = n = draw(st.integers(smallest, 13))
        entries = np.eye(n)
    else:
        p = draw(st.integers(smallest, 14))
        n = draw(st.integers(k + 2, min(p - 2, 10)))
        entries = cg.make_dictionary(kind, p, n, seed).entries.copy()
        if draw(st.booleans()):
            # rank-deficient chunk bases: a repeated row and a zero row
            entries[draw(st.integers(1, p - 1))] = entries[0]
            entries[draw(st.integers(1, p - 1))] = 0.0
    d = cg.Dictionary(entries, "user-supplied")
    m = draw(st.integers(1, n - 1))
    # a small scale lets the lower side set delta
    scale = draw(st.sampled_from([1.0, 0.5, 0.2]))
    phi = scale * cg.make_sensing_matrix("gaussian", m, n, seed + 1).entries
    return d, phi, k


@given(pruned_instances())
@settings(max_examples=30, deadline=None)
def test_pruned_scan_equals_reference_loop(instance):
    d, phi, k = instance
    assert math.comb(d.p, k) > grip._CHUNK and k + 2 <= d.n
    assert _report(cg.delta_exact(phi, d, k)) == loop_delta(phi, d, colex_supports(d.p, k))


def test_pruned_scan_when_the_lower_side_sets_delta():
    d = cg.make_dictionary("tight-frame", 14, 9, 8)
    phi = 0.3 * cg.make_sensing_matrix("gaussian", 3, 9, 9).entries
    rep = cg.delta_exact(phi, d, 4)
    assert rep.delta == 1.0 - rep.eigen_range[0] > rep.eigen_range[1] - 1.0
    assert _report(rep) == loop_delta(phi, d, colex_supports(14, 4))


@pytest.mark.parametrize("m, seed", [(9, 1), (9, 2), (9, 3), (11, 2)])
def test_pruned_scan_keeps_exact_ties(m, seed):
    # every size-4 support has upper side n/m in exact arithmetic, so the
    # 495 upper sides and superset bounds differ only by roundoff; the
    # strict margin must keep eigen_range's upper end to the bit. At
    # m = 11 the lower sides tie as well and set delta
    d, phi = matched_instance(12, m, seed)
    rep = cg.delta_exact(phi, d, 4)
    assert rep.eigen_range[1] == pytest.approx(12 / m, abs=1e-12)
    assert _report(rep) == loop_delta(phi.entries, d, colex_supports(12, 4))


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_pruned_scan_keeps_roundoff_ties_of_the_upper_side(seed):
    # a scaled isometry seen through a rotated D: every support has both
    # sides 1.2 up to roundoff, and the upper side sets delta, so the
    # witness is the colex-first support whose upper side has the top bits
    d = cg.Dictionary(haar(12, seed).T, "user-supplied")
    phi_raw = math.sqrt(1.2) * np.eye(12)
    rep = cg.delta_exact(phi_raw, d, 4)
    assert rep.delta == pytest.approx(0.2, abs=1e-12)
    assert _report(rep) == loop_delta(phi_raw, d, colex_supports(12, 4))


def test_monte_carlo_full_family_equals_delta_exact():
    d = cg.make_dictionary("tight-frame", 14, 9, 6)
    phi = cg.make_sensing_matrix("gaussian", 5, 9, 7)
    count = math.comb(14, 4)
    exact = cg.delta_exact(phi, d, 4)
    full = cg.delta_monte_carlo(phi, d, 4, count + 3, seed=0)
    assert (full.method, full.trials) == ("monte-carlo", count)
    assert dataclasses.replace(full, method="exact", trials=0) == exact


# ---------------------------------------------------------------------------
# bound constants


def test_bound_constants_frozen_reference_point():
    c = cg.bound_constants(0.2, 0.0)
    assert c.delta2k == 0.2 and c.rho == 0.0
    assert c.admissible
    # anchors computed in extended precision from both published forms
    assert c.c0 == pytest.approx(4.1876726427121085, abs=1e-12)
    assert c.c1 == pytest.approx(3.8672954016950682, abs=1e-12)
    assert c.alpha == pytest.approx(math.sqrt(2) * 0.2 / 0.8, abs=1e-15)
    assert c.beta == pytest.approx(1.25, abs=1e-15)


def test_bound_constants_two_forms_agree_at_zero_rho():
    # the printed rho = 0 closed forms, evaluated in longdouble as the oracle
    root2 = np.longdouble(2.0) ** np.longdouble(0.5)
    for delta in np.linspace(0.0, 0.41, 42):
        c = cg.bound_constants(float(delta), 0.0)
        d = np.longdouble(delta)
        denom = 1.0 - (1.0 + root2) * d
        assert abs(c.c0 - float(2.0 * (1.0 - (1.0 - root2) * d) / denom)) <= 1e-12
        assert abs(c.c1 - float(2.0 / denom)) <= 1e-12


def test_bound_constants_admissibility_boundary():
    # alpha < 1 iff delta < 1/(1 + sqrt(2)) when rho = 0
    star = 1.0 / (1.0 + math.sqrt(2.0))
    assert cg.bound_constants(star - 1e-9, 0.0).admissible
    assert not cg.bound_constants(star + 1e-9, 0.0).admissible
    inadmissible = cg.bound_constants(0.9, 0.0)
    assert math.isinf(inadmissible.c0) and math.isinf(inadmissible.c1)


def test_bound_constants_rho_raises_alpha():
    base = cg.bound_constants(0.1, 0.0)
    lifted = cg.bound_constants(0.1, 0.3)
    assert lifted.alpha > base.alpha
    assert lifted.beta == base.beta
    assert lifted.c0 > base.c0 and lifted.c1 > base.c1


def test_bound_constants_validation():
    with pytest.raises(ValueError):
        cg.bound_constants(1.0, 0.0)
    with pytest.raises(ValueError):
        cg.bound_constants(-0.1, 0.0)
    with pytest.raises(ValueError):
        cg.bound_constants(0.2, -0.5)


@pytest.mark.parametrize(
    "delta2k, rho, message",
    [
        (-0.1, 0.0, r"^delta2k must be >= 0, got -0\.1$"),
        (math.nan, 0.0, r"^delta2k must be >= 0, got nan$"),
        (0.1, -0.1, r"^rho must lie in \[0, 1\], got -0\.1$"),
        (0.1, 1.5, r"^rho must lie in \[0, 1\], got 1\.5$"),
        (0.1, math.nan, r"^rho must lie in \[0, 1\], got nan$"),
    ],
)
def test_constants_refused_alike_by_bound_constants_and_checkers(delta2k, rho, message):
    phi = cg.make_sensing_matrix("gaussian", 5, 8, 3)
    d = cg.make_dictionary("tight-frame", 10, 8, 3)
    h = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match=message):
        cg.bound_constants(delta2k, rho)
    with pytest.raises(ValueError, match=message):
        cg.check_corollary2(phi, d, 1, h, cg.SupportSet((0,), 10), delta2k=delta2k, rho=rho)


@given(st.floats(0.0, 0.41), st.floats(0.0, 0.2))
@settings(max_examples=60, deadline=None)
def test_bound_constants_monotone_and_consistent(delta, rho):
    c = cg.bound_constants(delta, rho)
    assert c.admissible == (c.alpha < 1.0)
    if c.admissible:
        assert c.c0 >= 2.0 and c.c1 >= 2.0
        nudged = cg.bound_constants(min(delta + 1e-3, 0.99), rho)
        if nudged.admissible:
            assert nudged.c0 >= c.c0 - 1e-9
            assert nudged.c1 >= c.c1 - 1e-9


def test_bound_constants_serializes():
    doc = json.loads(cg.bound_constants(0.25, 0.05).to_json())
    for key in ("delta2k", "rho", "alpha", "beta", "admissible", "c0", "c1"):
        assert key in doc


def test_bound_constants_keep_signed_zeros_apart():
    plus, minus = cg.bound_constants(0.0, 0.0), cg.bound_constants(-0.0, -0.0)
    assert math.copysign(1.0, plus.delta2k) == 1.0 and math.copysign(1.0, plus.alpha) == 1.0
    assert math.copysign(1.0, minus.delta2k) == -1.0 and math.copysign(1.0, minus.alpha) == -1.0
    assert math.copysign(1.0, cg.bound_constants(-0.0, 0.0).delta2k) == -1.0
    assert math.copysign(1.0, cg.bound_constants(0.0, -0.0).rho) == -1.0
