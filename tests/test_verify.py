import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from cosparse_grip.model import _norm
from cosparse_grip.verify import _corollary2_stack, _masked_term
from _support import haar, loop_corollary2, matched_instance, random_chunk


def _num_tol(report):
    return 1e-8 * max(abs(report.lhs), abs(report.rhs), 1.0)


@pytest.fixture(scope="module")
def frame_instance():
    phi = cg.make_sensing_matrix("gaussian", 6, 10, 42)
    d = cg.make_dictionary("tight-frame", 14, 10, 3)
    return phi, d


@pytest.fixture(scope="module")
def identity_instance():
    # square scaled rotation keeps every restricted spectrum at exactly 1.2
    phi_raw = math.sqrt(1.2) * haar(6, 0)
    d = cg.Dictionary(np.eye(6), "identity")
    return phi_raw, d


# ---------------------------------------------------------------------------
# cross-chunk correlation


def test_corollary1_zero_chunk_is_tight(identity_instance):
    phi_raw, d = identity_instance
    sup_i = cg.SupportSet((0, 1), p=6)
    sup_j = cg.SupportSet((2, 3), p=6)
    rep = cg.check_corollary1(
        phi_raw, d, 2, (sup_i, np.zeros(6)), (sup_j, np.zeros(6))
    )
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.slack == 0.0
    assert rep.hypothesis_ok


def test_corollary1_isometry_has_zero_correlation(identity_instance):
    phi_raw, d = identity_instance
    rng = np.random.default_rng(5)
    sup_i = cg.SupportSet((0, 1), p=6)
    sup_j = cg.SupportSet((3, 5), p=6)
    h_i = random_chunk(d, sup_i, rng)
    h_j = random_chunk(d, sup_j, rng)
    rep = cg.check_corollary1(phi_raw, d, 2, (sup_i, h_i), (sup_j, h_j))
    # scaled rotation preserves orthogonality of disjoint identity chunks
    assert rep.lhs <= 1e-12
    assert rep.witness["delta2k"] == pytest.approx(0.2, abs=1e-10)
    assert rep.witness["rho"] <= 1e-12
    assert rep.slack > 0.0


def test_corollary1_holds_on_redundant_frame(frame_instance):
    phi, d = frame_instance
    rng = np.random.default_rng(9)
    for _ in range(10):
        idx = rng.choice(d.p, size=4, replace=False)
        sup_i = cg.SupportSet(idx[:2], p=d.p)
        sup_j = cg.SupportSet(idx[2:], p=d.p)
        rep = cg.check_corollary1(
            phi, d, 2, (sup_i, random_chunk(d, sup_i, rng)),
            (sup_j, random_chunk(d, sup_j, rng)),
        )
        assert rep.slack >= -_num_tol(rep)
        assert rep.which == "corollary1"


def test_corollary1_quadratic_homogeneity(frame_instance):
    phi, d = frame_instance
    rng = np.random.default_rng(2)
    sup_i = cg.SupportSet((0, 4), p=d.p)
    sup_j = cg.SupportSet((7, 11), p=d.p)
    h_i = random_chunk(d, sup_i, rng)
    h_j = random_chunk(d, sup_j, rng)
    base = cg.check_corollary1(phi, d, 2, (sup_i, h_i), (sup_j, h_j))
    scaled = cg.check_corollary1(phi, d, 2, (sup_i, 3.0 * h_i), (sup_j, 3.0 * h_j))
    assert scaled.lhs == pytest.approx(9.0 * base.lhs, rel=1e-10)
    assert scaled.rhs == pytest.approx(9.0 * base.rhs, rel=1e-10)


def test_corollary1_explicit_constants_match_resolved(frame_instance):
    phi, d = frame_instance
    rng = np.random.default_rng(3)
    sup_i = cg.SupportSet((1, 2), p=d.p)
    sup_j = cg.SupportSet((8, 13), p=d.p)
    pair_i = (sup_i, random_chunk(d, sup_i, rng))
    pair_j = (sup_j, random_chunk(d, sup_j, rng))
    auto = cg.check_corollary1(phi, d, 2, pair_i, pair_j)
    explicit = cg.check_corollary1(
        phi, d, 2, pair_i, pair_j,
        delta2k=auto.witness["delta2k"], rho=auto.witness["rho"],
    )
    assert explicit.lhs == auto.lhs
    assert explicit.rhs == auto.rhs


def test_corollary1_large_delta_is_informational(identity_instance):
    phi_raw, d = identity_instance
    sup_i = cg.SupportSet((0,), p=6)
    sup_j = cg.SupportSet((1,), p=6)
    rng = np.random.default_rng(0)
    rep = cg.check_corollary1(
        phi_raw, d, 1, (sup_i, random_chunk(d, sup_i, rng)),
        (sup_j, random_chunk(d, sup_j, rng)), delta2k=1.5, rho=0.0,
    )
    assert not rep.hypothesis_ok
    assert rep.constants_used is None
    assert np.isfinite(rep.rhs)


def test_corollary1_rejects_bad_chunks(frame_instance):
    phi, d = frame_instance
    rng = np.random.default_rng(1)
    sup = cg.SupportSet((0, 1), p=d.p)
    chunk = (sup, random_chunk(d, sup, rng))
    with pytest.raises(ValueError):  # overlap
        cg.check_corollary1(phi, d, 2, chunk, chunk)
    with pytest.raises(ValueError):  # size over k
        big = cg.SupportSet((2, 3, 4), p=d.p)
        cg.check_corollary1(phi, d, 2, chunk, (big, random_chunk(d, big, rng)))
    with pytest.raises(ValueError):  # wrong row count
        wrong = cg.SupportSet((2, 3), p=6)
        cg.check_corollary1(phi, d, 2, chunk, (wrong, np.zeros(10)))


def test_corollary1_refuses_k_outside_one_to_p(frame_instance):
    phi, d = frame_instance
    empty = (cg.SupportSet((), p=d.p), np.zeros(d.n))
    with pytest.raises(ValueError, match=r"^need 1 <= k <= p, got k=0$"):
        cg.check_corollary1(phi, d, 0, empty, empty, delta2k=0.1, rho=0.0)


# ---------------------------------------------------------------------------
# masked-image lower bound


def test_corollary2_holds_on_redundant_frame():
    # mildly redundant frame paired with a near-isometric sensing matrix,
    # one of the few desk-scale shapes whose exact delta stays below 1
    d = cg.make_dictionary("tight-frame", 11, 10, 2)
    phi = cg.SensingMatrix(math.sqrt(10 / 9) * haar(10, 102)[:9], kind="user-supplied")
    assert cg.delta_exact(phi, d, 2).delta < 1.0
    rng = np.random.default_rng(17)
    for _ in range(10):
        h = rng.standard_normal(d.n)
        head = cg.top_k_support(d.entries @ h, 1)
        rep = cg.check_corollary2(phi, d, 1, h, head)
        assert rep.slack >= -_num_tol(rep)
        assert rep.hypothesis_ok
        assert rep.constants_used is not None


def test_corollary2_single_chunk_direction(identity_instance):
    phi_raw, d = identity_instance
    # Dh lives entirely in the head: the l1 tail vanishes and the bound
    # reduces to lhs <= beta * inner
    h = np.zeros(6)
    h[1], h[4] = 2.0, -1.0
    head = cg.SupportSet((1, 4), p=6)
    rep = cg.check_corollary2(phi_raw, d, 2, h, head)
    assert rep.witness["tail_l1"] == 0.0
    assert rep.rhs == pytest.approx(rep.constants_used.beta * rep.witness["inner_term"])
    assert rep.slack >= -_num_tol(rep)


def test_corollary2_linear_homogeneity():
    d, phi = matched_instance(10, 9, 4)
    rng = np.random.default_rng(23)
    h = rng.standard_normal(d.n)
    head = cg.top_k_support(d.entries @ h, 2)
    base = cg.check_corollary2(phi, d, 2, h, head)
    scaled = cg.check_corollary2(phi, d, 2, 5.0 * h, head)
    assert scaled.lhs == pytest.approx(5.0 * base.lhs, rel=1e-10)
    assert scaled.rhs == pytest.approx(5.0 * base.rhs, rel=1e-10)


def test_corollary2_rejects_degenerate_inputs(frame_instance):
    phi, d = frame_instance
    head = cg.SupportSet((0, 1), p=d.p)
    with pytest.raises(ValueError):  # zero direction
        cg.check_corollary2(phi, d, 2, np.zeros(d.n), head)
    with pytest.raises(ValueError):  # constants undefined
        cg.check_corollary2(phi, d, 2, np.ones(d.n), head, delta2k=1.0, rho=0.0)
    with pytest.raises(ValueError):  # head too large
        cg.check_corollary2(phi, d, 1, np.ones(d.n), head)


@pytest.mark.parametrize("k", [0, -1, 15])
def test_corollary2_refuses_k_outside_one_to_p(frame_instance, k):
    # k = 0 used to end in ZeroDivisionError, and k > p in a report
    phi, d = frame_instance
    with pytest.raises(ValueError, match=rf"^need 1 <= k <= p, got k={k}$"):
        cg.check_corollary2(phi, d, k, np.ones(d.n), cg.SupportSet((), p=d.p), delta2k=0.1, rho=0.0)


def _bits(values) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


@given(
    st.sampled_from(["identity", "tight-frame", "gaussian-random"]),
    st.integers(1, 3),
    st.sampled_from([1, 2, 5, 17]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_stacked_corollary2_equals_the_loop_bit_for_bit(kind, k, block, seed):
    rng = np.random.default_rng(seed)
    n = 6
    p = n if kind == "identity" else 9
    d = cg.make_dictionary(kind, p, n, seed)
    phi = cg.make_sensing_matrix("gaussian", 4, n, seed)
    if kind == "identity":  # small integers make ties in |Dh| common
        h = rng.integers(-2, 3, (block, n)).astype(np.float64)
        h[~h.any(axis=1), int(rng.integers(n))] = 1.0
    else:
        h = rng.standard_normal((block, n))
    size = int(rng.integers(0, k + 1))
    heads = np.array([rng.choice(p, size, replace=False) for _ in range(block)], dtype=np.intp)
    heads = heads.reshape(block, size)
    delta2k, rho = 0.4, float(rng.uniform(0.0, 0.5))

    constants, cols = _corollary2_stack(phi, d, k, h, heads, delta2k, rho)
    assert constants == cg.bound_constants(delta2k, rho)
    for i in range(block):
        head = cg.SupportSet(tuple(heads[i]), p)
        lhs, rhs, slack, next_block, degenerate, ok = loop_corollary2(
            phi.entries, d, k, h[i], head, delta2k, rho
        )
        got = [cols[key][i] for key in ("lhs", "rhs", "slack")]
        assert _bits(got) == _bits([lhs, rhs, slack])
        flags = [cols["next_block"][i].tolist(), cols["degenerate"][i].tolist(), cols["hypothesis_ok"][i].tolist()]
        assert json.dumps(flags) == json.dumps([next_block, degenerate, ok])
        rep = cg.check_corollary2(phi, d, k, h[i], head, delta2k=delta2k, rho=rho)
        assert _bits([rep.lhs, rep.rhs, rep.slack]) == _bits([lhs, rhs, slack])
        assert json.dumps([rep.witness["next_block"], rep.witness["degenerate"], rep.hypothesis_ok]) == json.dumps(
            [next_block, degenerate, ok]
        )


def test_stacked_corollary2_refuses_a_zero_row(frame_instance):
    phi, d = frame_instance
    h = np.ones((3, d.n))
    h[1] = 0.0
    with pytest.raises(ValueError, match="h is zero"):
        _corollary2_stack(phi, d, 2, h, np.zeros((3, 0), dtype=np.intp), 0.1, 0.0)


@given(
    st.sampled_from(["identity", "tight-frame", "gaussian-random"]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_theorem1_is_corollary2_at_the_error(kind, k, seed):
    # Theorem 1 applies Corollary 2 to h = x_hat - x with the head taken
    # as the k largest |D x|: the shared witness must match bit for bit
    rng = np.random.default_rng(seed)
    n = 6
    p = n if kind == "identity" else 9
    d = cg.make_dictionary(kind, p, n, seed)
    phi = cg.make_sensing_matrix("gaussian", 4, n, seed)
    if kind == "identity":  # small integers make ties in |Dx| and |Dh| common
        x, x_hat = (rng.integers(-2, 3, n).astype(np.float64) for _ in range(2))
    else:
        x, x_hat = rng.standard_normal(n), rng.standard_normal(n)
    t1 = cg.check_theorem1(phi, d, k, x, x_hat, delta2k=0.1, rho=0.05)
    assume(not t1.witness["trivial"])
    c2 = cg.check_corollary2(
        phi, d, k, x_hat - x, cg.top_k_support(d.entries @ x, k), delta2k=0.1, rho=0.05
    )
    assert c2.constants_used == t1.constants_used
    for key in ("head", "next_block", "inner_term", "mask_norm", "degenerate"):
        assert json.dumps(t1.witness[key]) == json.dumps(c2.witness[key]), key
    assert json.dumps(c2.lhs) == json.dumps(c2.witness["mask_norm"])


@given(
    st.sampled_from(["identity", "tight-frame", "gaussian-random"]),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_checks_agree_on_a_warm_and_a_fresh_dictionary(kind, k, seed):
    # one Dictionary reused, its pinv already cached, against one rebuilt
    # from the same entries for every call: the reports must match exactly
    rng = np.random.default_rng(seed)
    n = 5
    p = n if kind == "identity" else 7
    warm = cg.make_dictionary(kind, p, n, seed)
    phi = cg.make_sensing_matrix("gaussian", 3, n, seed)
    pinv = warm.pinv()

    def fresh():
        return cg.Dictionary(warm.entries, warm.kind)

    picks = rng.choice(p, 2 * k, replace=False)
    chunks = []
    for part in (picks[:k], picks[k:]):
        sup = cg.SupportSet(tuple(int(i) for i in part), p)
        z = np.zeros(p)
        z[list(sup.indices)] = rng.standard_normal(k)
        chunks.append((sup, pinv @ z))
    h = rng.standard_normal(n)
    head = cg.SupportSet(tuple(int(i) for i in rng.choice(p, k, replace=False)), p)
    x, x_hat = rng.standard_normal(n), rng.standard_normal(n)

    def reports(dictionary):
        return (
            cg.check_corollary1(phi, dictionary(), k, *chunks),  # exact constants
            cg.check_corollary2(phi, dictionary(), k, h, head, delta2k=0.1, rho=0.05),
            cg.check_theorem1(phi, dictionary(), k, x, x_hat, delta2k=0.1, rho=0.05),
        )

    for reused, rebuilt in zip(reports(lambda: warm), reports(fresh)):
        assert reused == rebuilt
        assert reused.to_json() == rebuilt.to_json()  # float reprs: bit for bit


@given(st.lists(st.floats(-1e150, 1e150), min_size=0, max_size=40))
@settings(max_examples=100, deadline=None)
def test_dot_norm_equals_numpy_norm(values):
    v = np.array(values, dtype=np.float64)
    assert struct.pack("<d", _norm(v)) == struct.pack("<d", float(np.linalg.norm(v)))


def test_masked_term_flags_unstable_ratio():
    # huge pseudoinverse turns a vanishing mask into a live correlation,
    # which must be flagged rather than divided through
    pinv = np.diag([1e20, 1.0])
    u = np.array([1e-20, 1e-20])
    # an empty head and k = 1 mask index 0 alone (the lower index wins the tie)
    next_block, mask_norm, inner, degenerate = _masked_term(
        np.eye(2), pinv, u[None, :], np.array([[1.0, 0.0]]), np.zeros((1, 0), dtype=np.intp), 1
    )
    assert next_block.tolist() == [[0]]
    assert degenerate.tolist() == [True]
    assert inner.tolist() == [0.0]
    assert mask_norm[0] <= 1e-19


# ---------------------------------------------------------------------------
# recovery-error bound


def test_theorem1_trivial_candidate():
    d, phi = matched_instance(10, 9, 4)
    x = cg.sample_cosparse_signal(d, 2, 5)
    rep = cg.check_theorem1(phi, d, 2, x, x.copy())
    assert rep.lhs == 0.0
    assert rep.witness["trivial"]
    assert rep.witness["inner_term"] == 0.0
    assert rep.hypothesis_ok
    assert rep.slack >= 0.0


def test_theorem1_on_matched_recovery():
    d, phi = matched_instance(10, 9, 4)
    x = cg.sample_cosparse_signal(d, 2, 5)
    res = cg.solve_analysis_l1(phi, d, cg.ConstraintSpec("equality", phi.entries @ x))
    rep = cg.check_theorem1(phi, d, 2, x, res.x_hat)
    assert rep.hypothesis_ok
    assert rep.lhs <= 1e-6
    assert rep.slack >= -_num_tol(rep)
    assert rep.witness["delta2k"] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert rep.witness["rho"] <= 1e-12
    c = rep.constants_used
    assert c.alpha == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    assert c.c0 == pytest.approx(11.656854249492484, abs=1e-9)
    assert c.c1 == pytest.approx(10.242640687119374, abs=1e-9)


def test_theorem1_nullspace_error_kills_inner_term():
    d, phi = matched_instance(10, 9, 4)
    x = cg.sample_cosparse_signal(d, 2, 5)
    null_dir = np.linalg.svd(phi.entries)[2][-1]
    x_hat = x + 0.3 * null_dir
    rep = cg.check_theorem1(phi, d, 2, x, x_hat)
    # measurement-consistent error: the correlation term must vanish
    assert rep.witness["inner_term"] <= 1e-12
    assert rep.lhs > 0.0


def test_theorem1_linear_homogeneity():
    d, phi = matched_instance(10, 9, 4)
    rng = np.random.default_rng(31)
    x = cg.sample_cosparse_signal(d, 2, 5)
    x_hat = x + 0.05 * rng.standard_normal(10)
    base = cg.check_theorem1(phi, d, 2, 2.0 * x, 2.0 * x_hat)
    ref = cg.check_theorem1(phi, d, 2, x, x_hat)
    assert base.lhs == pytest.approx(2.0 * ref.lhs, rel=1e-9)
    assert base.rhs == pytest.approx(2.0 * ref.rhs, rel=1e-9)
    assert base.hypothesis_ok == ref.hypothesis_ok


def test_theorem1_l1_hypothesis_downgrade():
    d, phi = matched_instance(10, 9, 4)
    rng = np.random.default_rng(7)
    x = cg.sample_cosparse_signal(d, 2, 5)
    worse = x + rng.standard_normal(10)  # generic point, larger l1 image
    assert np.sum(np.abs(d.entries @ worse)) > np.sum(np.abs(d.entries @ x))
    rep = cg.check_theorem1(phi, d, 2, x, worse)
    assert not rep.hypothesis_ok
    assert rep.witness["l1_candidate"] > rep.witness["l1_truth"]
    assert np.isfinite(rep.rhs)


def test_theorem1_rejects_inadmissible_constants():
    d, phi = matched_instance(10, 9, 4)
    x = cg.sample_cosparse_signal(d, 2, 5)
    with pytest.raises(ValueError, match="does not apply"):
        cg.check_theorem1(phi, d, 2, x, x, delta2k=0.9, rho=0.0)
    with pytest.raises(ValueError, match="undefined"):
        cg.check_theorem1(phi, d, 2, x, x, delta2k=1.2, rho=0.0)


def test_theorem1_printed_constants_via_zero_rho():
    d, phi = matched_instance(10, 9, 4)
    x = cg.sample_cosparse_signal(d, 2, 5)
    auto = cg.check_theorem1(phi, d, 2, x, x)
    printed = cg.check_theorem1(phi, d, 2, x, x, delta2k=auto.witness["delta2k"], rho=0.0)
    # orthogonal dictionary: exact rho is 0, the two routes agree
    assert printed.constants_used.c0 == pytest.approx(auto.constants_used.c0, abs=1e-12)
    assert printed.rhs == pytest.approx(auto.rhs, abs=1e-12)


def test_theorem1_shape_validation(frame_instance):
    phi, d = frame_instance
    x = np.zeros(d.n)
    with pytest.raises(ValueError):
        cg.check_theorem1(phi, d, 2, x, np.zeros(d.n + 1))
    with pytest.raises(ValueError):
        cg.check_theorem1(phi, d, 0, x, x)
    with pytest.raises(ValueError):
        cg.check_theorem1(phi, d, d.p + 1, x, x)


def test_report_serialization_roundtrip():
    d, phi = matched_instance(10, 9, 4)
    rng = np.random.default_rng(13)
    h = rng.standard_normal(d.n)
    rep = cg.check_corollary2(phi, d, 2, h, cg.top_k_support(d.entries @ h, 2))
    doc = json.loads(rep.to_json())
    assert doc["which"] == "corollary2"
    assert doc["slack"] == pytest.approx(doc["rhs"] - doc["lhs"])
    assert set(doc["witness"]) >= {"k", "head", "delta2k", "rho"}
    assert doc["constants_used"]["admissible"] in (True, False)
