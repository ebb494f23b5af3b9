import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from _support import (
    brute_delta,
    brute_rho,
    classical_delta,
    colex_supports,
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
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        cg.delta_monte_carlo(phi, d, 2, trials, seed=11)


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
    proj = d.entries @ d.pinv()
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
    upper = grip._upper_sides(sup, a_cols.T @ a_cols, d.entries @ pinv, lower)
    assert upper[4] == lower[4] == 0.0
    for k in (1, 2):
        supports = colex_supports(d.p, k)
        assert _report(cg.delta_exact(phi, d, k)) == loop_delta(phi.entries, d, supports)
        est = cg.rho_exact(d, k)
        assert _estimate(est) == loop_rho(d, k)
    est = cg.rho_exact(d, 1)
    assert all(s.indices != (4,) for s in est.witness)


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
            first, second = grip._disjoint_pairs(np.array(supports), p)
            assert list(zip(first.tolist(), second.tolist())) == brute


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


@pytest.mark.parametrize("p, k", [(6, 1), (8, 2), (12, 4), (13, 3), (14, 5), (18, 4)])
def test_superset_cover_covers_every_support_and_rebuilds_equal(p, k):
    supersets, owner = grip._superset_cover(p, k)
    assert supersets.shape[1] == k + 2 and not supersets.flags.writeable
    assert (np.diff(supersets, axis=1) > 0).all()
    assert supersets.min() >= 0 and supersets.max() < p
    # every k-set lies in the superset that owns it, and every superset
    # owns at least the k-set it was grown from
    member = np.zeros((len(supersets), p), dtype=bool)
    np.put_along_axis(member, supersets, True, axis=1)
    sets = grip._colex_supports(p, k)
    assert member[owner[:, None], sets].all()
    assert set(owner.tolist()) == set(range(len(supersets)))
    again = grip._superset_cover.__wrapped__(p, k)
    assert np.array_equal(again[0], supersets) and np.array_equal(again[1], owner)
    assert grip._superset_cover(p, k)[0] is supersets  # built once per process


def test_superset_cover_follows_the_greedy_rule():
    cases = [(p, k) for p in range(3, 12) for k in range(1, p - 1)] + [(18, 4)]
    for p, k in cases:
        supersets, owner = grip._superset_cover(p, k)
        want_supersets, want_owner = greedy_cover(p, k)
        assert supersets.tolist() == [list(s) for s in want_supersets], (p, k)
        assert owner.tolist() == want_owner, (p, k)


def test_superset_bounds_refuse_ill_conditioned_blocks():
    # rows 0/1 repeat exactly, rows 2/3 differ by 1e-9, row 4 is zero: a
    # superset holding either pair or row 4 is below the conditioning
    # floor, bounds at +inf and so never prunes
    entries = cg.make_dictionary("tight-frame", 12, 8, 2).entries.copy()
    entries[1] = entries[0]
    entries[3] = entries[2] + 1e-9 * entries[5]
    entries[4] = 0.0
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", 5, 8, 3)
    a_cols = phi.entries @ d.pinv()
    proj = d.entries @ d.pinv()
    sets = np.array([[0, 1, 6, 7], [2, 3, 6, 7], [4, 6, 7, 8], [5, 6, 7, 8]])
    bounds = grip._superset_bounds(sets, a_cols.T @ a_cols, proj)
    assert np.isinf(bounds[:3]).all() and np.isfinite(bounds[3])
    # a finite bound holds for every subset it covers
    subsets = np.array([list(s) for s in itertools.combinations(sets[3], 2)])
    lower = grip._lower_sides(subsets, a_cols)
    assert grip._upper_sides(subsets, a_cols.T @ a_cols, proj, lower).max() <= bounds[3]


def _count_uppers(monkeypatch):
    seen = []
    upper_sides = grip._upper_sides

    def counted(supports, *args):
        seen.append(len(supports))
        return upper_sides(supports, *args)

    monkeypatch.setattr(grip, "_upper_sides", counted)
    return seen


def _unbounded_blocks(count):
    """The stacked calls of `count` rows without a bound: _CHUNK at a time."""
    whole, part = divmod(count, grip._CHUNK)
    return [grip._CHUNK] * whole + [part] * (part > 0)


def test_pruning_skips_most_upper_sides_on_a_tight_frame(monkeypatch):
    # a repeated row leaves every superset holding both copies without a
    # bound: those rows go first, _CHUNK at a time, and the bounded rows
    # follow in blocks doubling from _CHUNK // 8
    phi = cg.make_sensing_matrix("gaussian", 8, 12, 5)
    supersets, owner = grip._superset_cover(18, 4)
    seen = _count_uppers(monkeypatch)
    for repeat_row in (False, True):
        entries = cg.make_dictionary("tight-frame", 18, 12, 4).entries.copy()
        if repeat_row:
            entries[1] = entries[0]
        d = cg.Dictionary(entries, "user-supplied")
        seen.clear()
        rep = cg.delta_exact(phi, d, 4)
        assert 0 < sum(seen) < math.comb(18, 4) // 4
        assert _report(rep) == loop_delta(phi.entries, d, colex_supports(18, 4))
        a_cols = phi.entries @ d.pinv()
        bounds = grip._superset_bounds(supersets, a_cols.T @ a_cols, d.entries @ d.pinv())
        first = _unbounded_blocks(int(np.isinf(bounds[owner]).sum()))
        assert (len(first) > 0) == repeat_row and seen[: len(first)] == first
        bounded = seen[len(first) :]
        doubling = [min((grip._CHUNK // 8) << i, grip._CHUNK) for i in range(len(bounded))]
        assert bounded[:-1] == doubling[:-1] and 0 < bounded[-1] <= doubling[-1]


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
    # k + 2 > n has a superset bound, so the queue evaluates every upper
    # side, _CHUNK rows per call: 45 rows in one call, 300 in 256 + 44
    entries = cg.make_dictionary(kind, p, n, 4).entries.copy()
    if zero_row:
        entries[6] = 0.0
    d = cg.Dictionary(entries, "user-supplied")
    phi = cg.make_sensing_matrix("gaussian", n - 3, n, 5)
    seen = _count_uppers(monkeypatch)
    if trials is None:
        rep = cg.delta_exact(phi, d, k)
        supports = colex_supports(p, k)
    else:
        rep = cg.delta_monte_carlo(phi, d, k, trials, seed=7)
        supports = sampled_supports(p, k, trials, 7)
    assert seen == _unbounded_blocks(len(supports))
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
    for delta in np.linspace(0.0, 0.41, 42):
        c = cg.bound_constants(float(delta), 0.0)
        assert abs(c.c0 - c.c0_printed) <= 1e-12
        assert abs(c.c1 - c.c1_printed) <= 1e-12


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
