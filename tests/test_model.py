import copy
import dataclasses
import json
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from _support import assert_svd_factors
from cosparse_grip import simplex
from cosparse_grip.model import sensing_entries


# ---------------------------------------------------------------------------
# SupportSet


def test_support_set_normalizes_and_validates():
    s = cg.SupportSet((3, 1), 5)
    assert s.indices == (1, 3)
    assert s.size == 2
    assert s.p == 5
    with pytest.raises(ValueError):
        cg.SupportSet((0, 0), 5)  # duplicates
    with pytest.raises(ValueError):
        cg.SupportSet((5,), 5)  # out of range
    with pytest.raises(ValueError):
        cg.SupportSet((-1,), 5)
    # numpy integers are taken, as plain ints: witnesses come from intp rows
    s = cg.SupportSet(np.array([4, 0], dtype=np.intp), np.int64(6))
    assert s == cg.SupportSet((0, 4), 6)
    assert all(type(i) is int for i in (*s.indices, s.p))


@pytest.mark.parametrize(
    "indices, p",
    [
        ((1.7, 2), 4),  # was truncated to (1, 2)
        ((np.float64(1.0),), 4),
        ((True, 2), 4),  # was read as index 1
        ((np.True_,), 4),
        ((1, 2), 4.5),  # was accepted
        ((1,), 4.0),
        ((1,), True),
        (("1",), 4),
    ],
)
def test_support_set_refuses_non_integers(indices, p):
    with pytest.raises(ValueError, match=r"^(index|p) must be an integer, got "):
        cg.SupportSet(indices, p)


def test_support_set_operations():
    a = cg.SupportSet((0, 2), 6)
    b = cg.SupportSet((1, 5), 6)
    assert a.disjoint_from(b)
    assert not a.disjoint_from(cg.SupportSet((2,), 6))


# ---------------------------------------------------------------------------
# Dictionary / SensingMatrix


def test_identity_dictionary_requires_identity_entries():
    d = cg.Dictionary(np.eye(4), "identity")
    assert d.p == 4 and d.n == 4
    # a non-square identity is refused by the same entry check
    for entries in (2 * np.eye(4), np.eye(5, 4)):
        with pytest.raises(ValueError, match=r"^kind 'identity' requires D == I$"):
            cg.Dictionary(entries, "identity")


def test_orthogonal_kind_checks_gram():
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))[0]
    cg.Dictionary(q, "orthogonal")
    with pytest.raises(ValueError, match=r"^kind 'orthogonal' requires D\^T D == I$"):
        cg.Dictionary(1.01 * q, "orthogonal")
    with pytest.raises(ValueError, match=r"^kind 'orthogonal' requires p == n$"):
        # orthogonal must be square
        cg.Dictionary(np.vstack([q, q[:1]]), "orthogonal")
    # a tight frame takes the same Gram check, without the square rule
    frame = np.linalg.qr(np.random.default_rng(1).standard_normal((7, 5)))[0]
    cg.Dictionary(frame, "tight-frame")
    with pytest.raises(ValueError, match=r"^kind 'tight-frame' requires D\^T D == I$"):
        cg.Dictionary(1.01 * frame, "tight-frame")
    # only the rank of a finite-difference operator is checked: p > n is taken
    rows = np.vstack([np.eye(5)[1:] - np.eye(5)[:-1], np.ones((2, 5))])
    assert cg.Dictionary(rows, "finite-difference").p == 6


def test_rank_deficiency_rejected():
    bad = np.ones((6, 4))  # rank 1
    with pytest.raises(cg.DictionaryRankError):
        cg.Dictionary(bad, "user-supplied")
    with pytest.raises(ValueError):
        cg.Dictionary(np.zeros((3, 4)), "user-supplied")  # p < n


def test_dictionary_entries_read_only_and_pinv():
    d = cg.make_dictionary("tight-frame", 7, 4, 0)
    with pytest.raises(ValueError):
        d.entries[0, 0] = 1.0
    assert np.allclose(d.pinv() @ d.entries, np.eye(4), atol=1e-12)
    # computed once, kept read-only, and what a fresh pinv returns
    pinv = d.pinv()
    assert d.pinv() is pinv
    with pytest.raises(ValueError):
        pinv[0, 0] = 1.0
    assert np.array_equal(pinv, np.linalg.pinv(d.entries))
    proj = d.projector()
    assert d.projector() is proj
    with pytest.raises(ValueError):
        proj[0, 0] = 1.0
    # a copy is rebuilt, so its entries stay read-only under its own factors
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert twin.kind == d.kind and np.array_equal(twin.entries, d.entries)
        for array in (twin.entries, twin.pinv(), twin.projector()):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        assert np.array_equal(twin.pinv(), pinv)
        assert np.array_equal(twin.projector(), proj)


# one of each frozen type that holds an array
ARRAY_HOLDERS = {
    "Dictionary": lambda: cg.make_dictionary("tight-frame", 7, 4, 0),
    "SensingMatrix": lambda: cg.make_sensing_matrix("gaussian", 3, 4, 0),
    "ConstraintSpec": lambda: cg.ConstraintSpec("equality", np.ones(3)),
    "RecoveryResult": lambda: cg.RecoveryResult(np.zeros(4), 0.0, 0, 0.0, 0.0, True, True, 0.0),
    "LpSolution": lambda: simplex.LpSolution(np.zeros(2), 0.0, 0, np.zeros(1), np.zeros(1, dtype=int)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity_and_hash(make):
    x = make()
    assert x == x
    assert x != copy.copy(x)
    assert hash(x) == hash(x)


@pytest.mark.parametrize("kind", ["identity", "finite-difference", "gaussian-random", "tight-frame", "orthogonal"])
def test_dictionary_svd_factors_on_every_kind(kind):
    square = kind in ("identity", "finite-difference", "orthogonal")
    for p in range(2, 19):
        for n in (p,) if square else range(1, p + 1):
            for seed in range(2):
                assert_svd_factors(cg.make_dictionary(kind, p, n, seed))


def test_sensing_matrix_shape_contract():
    rng = np.random.default_rng(1)
    cg.SensingMatrix(rng.standard_normal((3, 5)), "user-supplied")
    with pytest.raises(ValueError):
        cg.SensingMatrix(rng.standard_normal((5, 5)), "user-supplied")
    with pytest.raises(ValueError):
        cg.SensingMatrix(rng.standard_normal((6, 5)), "user-supplied")


def test_sensing_entries_passthrough():
    phi = cg.make_sensing_matrix("gaussian", 3, 5, 2)
    assert sensing_entries(phi) is phi.entries
    raw = np.eye(4)  # square escape hatch for designed test operators
    assert sensing_entries(raw).shape == (4, 4)
    with pytest.raises(ValueError):
        sensing_entries(np.zeros(3))


# ---------------------------------------------------------------------------
# constructors: deterministic seeded draws, checked against direct RNG use


def test_make_dictionary_tight_frame_matches_svd_oracle():
    d = cg.make_dictionary("tight-frame", 6, 4, 7)
    g = np.random.default_rng(7).standard_normal((6, 4))
    u = np.linalg.svd(g, full_matrices=False)[0]
    assert np.array_equal(d.entries, u)
    assert np.abs(d.entries.T @ d.entries - np.eye(4)).max() <= 1e-10


def test_make_dictionary_gaussian_matches_direct_draw():
    d = cg.make_dictionary("gaussian-random", 14, 10, 1)
    direct = np.random.default_rng(1).standard_normal((14, 10)) / math.sqrt(14)
    assert np.array_equal(d.entries, direct)
    assert np.linalg.svd(d.entries, compute_uv=False)[-1] > 1e-8


def test_make_dictionary_finite_difference_hand_case():
    d = cg.make_dictionary("finite-difference", 4, 4, None)
    expected = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [0.5, 0.5, 0.5, 0.5],
        ]
    )
    assert np.allclose(d.entries, expected)
    # constant signals are 1-analysis-sparse under this operator
    dx = d.entries @ np.ones(4)
    assert np.abs(dx[:3]).max() == 0.0 and dx[3] == 2.0


def test_make_dictionary_determinism_and_kinds():
    for kind, p, n in [("orthogonal", 6, 6), ("tight-frame", 9, 6), ("gaussian-random", 9, 6)]:
        a = cg.make_dictionary(kind, p, n, 5)
        b = cg.make_dictionary(kind, p, n, 5)
        c = cg.make_dictionary(kind, p, n, 6)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)
    for kind in ("identity", "orthogonal", "finite-difference"):
        with pytest.raises(ValueError, match=rf"^{kind} dictionary requires p == n$"):
            cg.make_dictionary(kind, 7, 6, 0)
    with pytest.raises(ValueError):
        cg.make_dictionary("user-supplied", 6, 6, 0)
    with pytest.raises(ValueError):
        cg.make_dictionary("no-such-kind", 6, 6, 0)


def test_make_sensing_matrix_kinds():
    g = cg.make_sensing_matrix("gaussian", 4, 7, 3)
    direct = np.random.default_rng(3).standard_normal((4, 7)) / 2.0
    assert np.array_equal(g.entries, direct)
    b = cg.make_sensing_matrix("bernoulli", 4, 7, 3)
    assert set(np.unique(np.abs(b.entries))) == {0.5}
    with pytest.raises(ValueError):
        cg.make_sensing_matrix("gaussian", 7, 7, 0)
    with pytest.raises(ValueError):
        cg.make_sensing_matrix("user-supplied", 4, 7, 0)


# ---------------------------------------------------------------------------
# cosparse sampling


def test_sample_cosparse_signal_basic_invariants():
    d = cg.make_dictionary("orthogonal", 8, 8, 2)
    for seed in range(5):
        x = cg.sample_cosparse_signal(d, 3, seed)
        assert x.shape == (8,)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        dx = d.entries @ x
        assert np.sum(np.abs(dx) > 1e-10) <= 3
    assert np.array_equal(
        cg.sample_cosparse_signal(d, 3, 9), cg.sample_cosparse_signal(d, 3, 9)
    )


def test_sample_cosparse_signal_redundant_feasibility():
    d = cg.make_dictionary("tight-frame", 14, 10, 3)
    # p - k rows must leave a null direction: k >= p - n + 1 = 5
    x = cg.sample_cosparse_signal(d, 5, 0)
    assert np.sum(np.abs(d.entries @ x) > 1e-10) <= 5
    with pytest.raises(cg.InfeasibleCosparsityError):
        cg.sample_cosparse_signal(d, 4, 0)
    with pytest.raises(ValueError):
        cg.sample_cosparse_signal(d, 0, 0)
    with pytest.raises(ValueError):
        cg.sample_cosparse_signal(d, 14, 0)


# ---------------------------------------------------------------------------
# analysis-domain utilities


def test_top_k_support_orders_by_magnitude():
    v = np.array([0.1, -3.0, 2.0, -2.0])
    assert cg.top_k_support(v, 2).indices == (1, 2)
    # ties break to the lower index (stable sort on magnitudes)
    t = np.array([1.0, -1.0, 0.5])
    assert cg.top_k_support(t, 1).indices == (0,)
    assert cg.top_k_support(v, 0).size == 0
    with pytest.raises(ValueError):
        cg.top_k_support(v, 5)


def test_sigma_k_hand_values():
    d = cg.Dictionary(np.array([[1.0, 0.0], [1.0, 1.0]]), "user-supplied")
    x = np.array([1.0, 1.0])  # Dx = (1, 2)
    assert cg.sigma_k(x, d, 0) == pytest.approx(3.0)
    assert cg.sigma_k(x, d, 1) == pytest.approx(1.0)
    assert cg.sigma_k(x, d, 2) == 0.0
    assert cg.sigma_k(x, d, 7) == 0.0
    with pytest.raises(ValueError):
        cg.sigma_k(x, d, -1)


def test_sigma_k_zero_iff_cosparse():
    d = cg.make_dictionary("orthogonal", 8, 8, 0)
    x = cg.sample_cosparse_signal(d, 3, 1)
    assert cg.sigma_k(x, d, 3) <= 1e-12
    assert cg.sigma_k(x, d, 2) >= 0.0


@given(st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_sigma_k_monotone_in_k(k):
    d = cg.make_dictionary("tight-frame", 8, 5, 3)
    x = np.random.default_rng(4).standard_normal(5)
    assert cg.sigma_k(x, d, k) >= cg.sigma_k(x, d, k + 1) - 1e-15


# ---------------------------------------------------------------------------
# serialization


def test_matrix_csv_round_trip(tmp_path):
    d = cg.make_dictionary("gaussian-random", 7, 5, 11)
    path = tmp_path / "d.csv"
    cg.save_matrix_csv(path, d)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "# rows=7 cols=5 kind=gaussian-random"
    loaded = cg.load_dictionary_csv(path)
    assert loaded.kind == "gaussian-random"
    assert np.array_equal(loaded.entries, d.entries)  # 17 digits: lossless


@pytest.mark.parametrize("link", ["symlink", "hard link"])
def test_save_matrix_csv_replaces_the_file_it_finds(tmp_path, link):
    # the old file is longer than the new one; a hard link kept to the old
    # entry holds its inode, so the new file cannot reuse the number
    phi = cg.make_sensing_matrix("gaussian", 3, 4, 0)
    fresh = tmp_path / "fresh.csv"
    cg.save_matrix_csv(fresh, phi)
    path, kept, outside = tmp_path / "phi.csv", tmp_path / "kept.csv", tmp_path / "outside.csv"
    old = "old line\n" * 1000
    outside.write_text(old, encoding="ascii")
    if link == "symlink":
        path.symlink_to(outside)
    else:
        os.link(outside, path)
    assert len(old) > fresh.stat().st_size
    os.link(path, kept, follow_symlinks=False)
    inode = path.lstat().st_ino
    cg.save_matrix_csv(path, phi)
    assert path.read_bytes() == fresh.read_bytes()
    assert not path.is_symlink() and path.lstat().st_ino != inode
    assert kept.read_text(encoding="ascii") == old
    assert outside.read_text(encoding="ascii") == old


def test_sensing_csv_round_trip(tmp_path):
    phi = cg.make_sensing_matrix("bernoulli", 4, 9, 2)
    path = tmp_path / "phi.csv"
    cg.save_matrix_csv(path, phi)
    loaded = cg.load_sensing_csv(path)
    assert loaded.kind == "bernoulli"
    assert np.array_equal(loaded.entries, phi.entries)


@pytest.mark.parametrize("rows, held", [
    ([], "0 x 0"),  # header only: was an IndexError
    (["1,2,3,4", "5,6,7,8"], "2 x 4"),
    (["1,2,3,4", "5,6,7", "8,9,10,11"], "3 x 3/4"),  # was numpy's "inhomogeneous shape"
], ids=["header-only", "short", "ragged"])
def test_matrix_csv_rows_must_match_the_header(tmp_path, rows, held):
    path = tmp_path / "phi.csv"
    path.write_text("\n".join(["# rows=3 cols=4 kind=user-supplied", *rows]) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match=rf"^header promises 3 x 4, file holds {held}$"):
        cg.load_sensing_csv(path)


@pytest.mark.parametrize("header, message", [
    ("rows=3 cols=4 kind=user-supplied", "missing header comment in {path}"),
    ("# rows=3 kind=user-supplied", "header missing field 'cols' in {path}"),
    # both were Python's own text: dict()'s sequence error and int()'s
    ("# rows=3 cols=4 user-supplied", "bad header token 'user-supplied' in {path}: {need}"),
    ("# rows=three cols=4 kind=user-supplied", "bad header token 'rows=three' in {path}: {need}"),
    ("# rows=3 cols=-4 kind=user-supplied", "bad header token 'cols=-4' in {path}: {need}"),
], ids=["no-comment", "no-cols", "token-without-equals", "word-rows", "negative-cols"])
def test_matrix_csv_header_is_refused_naming_the_fault(tmp_path, header, message):
    path = tmp_path / "phi.csv"
    path.write_text("\n".join([header, "1,2,3,4", "5,6,7,8", "9,10,11,12"]) + "\n", encoding="ascii")
    text = message.format(path=path, need="need rows=<int> cols=<int> kind=<kind>")
    with pytest.raises(ValueError) as info:
        cg.load_sensing_csv(path)
    assert str(info.value) == text


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_csv_round_trip_random_matrices(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-8, 8)
    phi = cg.SensingMatrix(entries, "user-supplied")
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    cg.save_matrix_csv(path, phi)
    assert np.array_equal(cg.load_sensing_csv(path).entries, entries)


def test_report_json_keys_follow_field_order():
    phi = cg.make_sensing_matrix("gaussian", 5, 8, 1)
    d = cg.make_dictionary("tight-frame", 10, 8, 1)
    x = cg.sample_cosparse_signal(d, 3, 2)
    pinv = d.pinv()
    reports = [
        cg.delta_exact(phi, d, 2),
        cg.rho_exact(d, 2),
        cg.bound_constants(0.25, 0.05),
        cg.solve_lp_certified(phi, d, cg.ConstraintSpec("equality", phi.entries @ x)),
        cg.check_corollary1(phi, d, 2, (cg.SupportSet((0, 1), 10), pinv[:, 0]),
                            (cg.SupportSet((2, 3), 10), pinv[:, 2]), delta2k=0.5, rho=0.1),
    ]
    for rep in reports:
        doc = json.loads(rep.to_json())
        assert list(doc) == [f.name for f in dataclasses.fields(rep)], type(rep).__name__
    grip, rho, constants, recovery, bound = (json.loads(r.to_json()) for r in reports)
    assert grip["worst_support"] == list(reports[0].worst_support.indices)
    assert rho["witness"] == [list(s.indices) for s in reports[1].witness]
    assert recovery["x_hat"] == reports[3].x_hat.tolist()
    assert bound["constants_used"] == json.loads(cg.bound_constants(0.5, 0.1).to_json())
    assert list(constants) == list(bound["constants_used"])
