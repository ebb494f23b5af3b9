import copy
import dataclasses
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cosparse_grip as cg
from cosparse_grip import campaign as cam
from cosparse_grip.campaign import (
    CampaignResult,
    CampaignTrialError,
    ConfigError,
    ExperimentConfig,
    run,
    trial_seed,
    write_outputs,
)
from _support import cell_emit_csv, matched_instance, row_emit_jsonl


def base_doc(**overrides):
    doc = {
        "experiment": "verify-c2",
        "dims": {"m": 9, "n": 10, "p": 10},
        "k": 1,
        "dictionary_kind": "identity",
        "matrix_kind": "gaussian",
        "trials": 6,
        "seed": 20,
    }
    doc.update(overrides)
    return doc


def config_from(doc) -> ExperimentConfig:
    return ExperimentConfig.from_json(json.dumps(doc))


def write_matched_instance(tmp_path, n=10, m=9, seed=4):
    d, phi = matched_instance(n, m, seed)
    d_path = tmp_path / "dict.csv"
    phi_path = tmp_path / "phi.csv"
    cg.save_matrix_csv(d_path, d)
    cg.save_matrix_csv(phi_path, phi)
    return str(d_path), str(phi_path)


# ---------------------------------------------------------------------------
# seeding


def test_trial_seed_reference_values():
    # splitmix64 reference stream from seed 0
    assert trial_seed(0, 0) == 16294208416658607535
    assert trial_seed(0, 1) == 7960286522194355700


def test_trial_seed_is_pure_and_spread():
    assert trial_seed(7, 3) == trial_seed(7, 3)
    seen = {trial_seed(123, i) for i in range(10000)}
    assert len(seen) == 10000
    assert all(0 <= s < 2**64 for s in seen)
    assert trial_seed(123, 0) != trial_seed(124, 0)


@given(st.integers(0, 2**70), st.sampled_from([0, 1, 257, 6000]))
@example(0, 6000)
@example(1, 257)
@example(2**64 - 1, 6000)
@example(2**64 - 1, 0)
@example(0, 1)
@settings(max_examples=30, deadline=None)
def test_trial_seeds_equal_trial_seed(seed, total):
    seeds = cam._trial_seeds(seed, total)
    assert seeds == [trial_seed(seed, i) for i in range(total)]
    assert all(type(s) is int for s in seeds)


# ---------------------------------------------------------------------------
# config parsing and validation


def test_config_defaults_materialized():
    cfg = config_from(base_doc())
    assert cfg.constraint_kind == "equality"
    assert cfg.epsilon == 0.0 and cfg.lam == 0.0
    assert cfg.instances == 1
    assert cfg.rho_mode == "exact"
    assert cfg.m_grid is None
    assert (cfg.max_supports, cfg.max_pairs, cfg.max_iters, cfg.mc_trials) == (3060, 60000, 200000, 200)
    assert cfg.output_path is None
    echo = cfg.to_json_dict()
    assert echo["dims"] == {"m": 9, "n": 10, "p": 10}
    assert echo["constraint"] == {"kind": "equality", "epsilon": 0.0, "lambda": 0.0}
    assert echo["budget"]["max_iters"] == 200000
    assert echo["dictionary_path"] is None


def test_config_rejects_malformed_documents():
    cases = []

    def case(label, mutate, match):
        doc = base_doc()
        mutate(doc)
        cases.append((label, doc, match))

    case("unknown top key", lambda d: d.update(bogus=1), "unknown key")
    case("missing trials", lambda d: d.pop("trials"), "missing required")
    case("dims not object", lambda d: d.update(dims=[9, 10, 10]), "dims")
    case("unknown dims key", lambda d: d["dims"].update(q=1), "unknown key")
    case("missing dims.p", lambda d: d["dims"].pop("p"), "missing required")
    case("float k", lambda d: d.update(k=1.5), "integer")
    case("bool seed", lambda d: d.update(seed=True), "integer")
    case("negative seed", lambda d: d.update(seed=-1), r"in \[0, 2\*\*64\)")
    case("seed past 64 bits", lambda d: d.update(seed=2**64), r"in \[0, 2\*\*64\), got 18446744073709551616")
    case("zero trials", lambda d: d.update(trials=0), "positive")
    case("unknown experiment", lambda d: d.update(experiment="fft"), "unknown experiment")
    case("m >= n", lambda d: d["dims"].update(m=10), "m < n")
    case("p < n", lambda d: d["dims"].update(p=9), "p >= n")
    # the text make_dictionary refuses with (test_model.py), for each square kind
    for kind in ("identity", "orthogonal", "finite-difference"):
        case(
            f"{kind} needs square",
            lambda d, kind=kind: d.update(dictionary_kind=kind, dims=dict(d["dims"], p=12)),
            f"^{kind} dictionary requires p == n$",
        )
    case("unknown dict kind", lambda d: d.update(dictionary_kind="wavelet"), "dictionary_kind")
    case(
        "user-supplied without path",
        lambda d: d.update(dictionary_kind="user-supplied"),
        "dictionary_path",
    )
    case(
        "path with stock kind",
        lambda d: d.update(dictionary_path="/tmp/x.csv"),
        'user-supplied',
    )
    case("unknown matrix kind", lambda d: d.update(matrix_kind="fourier"), "matrix_kind")
    case(
        "constraint unknown key",
        lambda d: d.update(constraint={"kind": "equality", "mu": 1}),
        "unknown key",
    )
    case(
        "ball needs positive epsilon",
        lambda d: d.update(constraint={"kind": "l2-ball", "epsilon": 0.0}),
        "epsilon > 0",
    )
    case(
        "dantzig negative lambda",
        lambda d: d.update(constraint={"kind": "dantzig", "lambda": -1.0}),
        "lambda >= 0",
    )
    case(
        "infinite epsilon",
        lambda d: d.update(constraint={"kind": "l2-ball", "epsilon": math.inf}),
        "constraint.epsilon must be finite",
    )
    case(
        "infinite lambda",
        lambda d: d.update(constraint={"kind": "dantzig", "lambda": math.inf}),
        "constraint.lambda must be finite",
    )
    case(
        "epsilon too large for a float",
        lambda d: d.update(constraint={"kind": "l2-ball", "epsilon": 10**400}),
        "constraint.epsilon must be finite",
    )
    case(
        "boolean epsilon",
        lambda d: d.update(constraint={"kind": "l2-ball", "epsilon": True}),
        "number",
    )
    case(
        "phase with a non-equality constraint",
        lambda d: d.update(experiment="phase", constraint={"kind": "l2-ball", "epsilon": 0.1}),
        "phase .* equality",
    )
    case("bad rho_mode", lambda d: d.update(rho_mode="auto"), "rho_mode")
    case(
        "unknown constraint kind",
        lambda d: d.update(constraint={"kind": "huber"}),
        "^unknown constraint kind 'huber'$",
    )
    case(
        "signal sampling needs k < p",
        lambda d: d.update(experiment="solve", dictionary_kind="orthogonal", k=10),
        r"^signal sampling needs k < p, got k=10, p=10$",
    )
    case("k zero", lambda d: d.update(k=0), "positive")
    case("k over p", lambda d: d.update(k=11), "k <= p")
    case("pair order over p", lambda d: d.update(k=6), "2k <= p")
    case(
        "budget unknown key",
        lambda d: d.update(budget={"max_time": 5}),
        "unknown key",
    )
    case(
        "budget zero iters",
        lambda d: d.update(budget={"max_iters": 0}),
        "positive integer",
    )
    case(
        "m_grid outside phase",
        lambda d: d.update(m_grid=[4, 5]),
        "phase",
    )
    case(
        "instances with operator file",
        lambda d: d.update(
            dictionary_kind="user-supplied", dictionary_path="/tmp/x.csv", instances=2
        ),
        "instances must be 1",
    )

    for label, doc, match in cases:
        with pytest.raises(ConfigError, match=match):
            config_from(doc)
        # independent copies: one bad case must not leak into the next
        assert base_doc() == base_doc(), label


def test_config_rejects_non_json_and_non_object():
    with pytest.raises(ConfigError, match="valid JSON"):
        ExperimentConfig.from_json("{nope")
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.from_json("[1, 2]")


def test_config_phase_grid_rules():
    doc = base_doc(
        experiment="phase",
        dictionary_kind="orthogonal",
        dims={"m": 5, "n": 6, "p": 6},
        m_grid=[4, 6],
        seed=3,
        trials=2,
    )
    cfg = config_from(doc)
    assert cfg.m_grid == (4, 6)
    bad = copy.deepcopy(doc)
    bad["m_grid"] = []
    with pytest.raises(ConfigError, match="nonempty"):
        config_from(bad)
    bad = copy.deepcopy(doc)
    bad["m_grid"] = [4, 7]
    with pytest.raises(ConfigError, match="\\[1, n\\]"):
        config_from(bad)
    bad = copy.deepcopy(doc)
    bad["m_grid"] = "4,6"
    with pytest.raises(ConfigError, match="list"):
        config_from(bad)
    bad = copy.deepcopy(doc)
    bad["matrix_path"] = "/tmp/phi.csv"
    bad["matrix_kind"] = "user-supplied"
    with pytest.raises(ConfigError, match="sweeps m"):
        config_from(bad)


def test_config_redundant_sampling_feasibility():
    doc = base_doc(
        experiment="solve",
        dictionary_kind="tight-frame",
        dims={"m": 6, "n": 10, "p": 14},
        k=4,
        seed=0,
    )
    with pytest.raises(ConfigError, match="p - n \\+ 1"):
        config_from(doc)
    doc["k"] = 5
    config_from(doc)  # smallest feasible cosparsity passes


def test_config_p1p2_rejects_dantzig():
    doc = base_doc(
        experiment="p1p2",
        dictionary_kind="orthogonal",
        dims={"m": 6, "n": 8, "p": 8},
        constraint={"kind": "dantzig", "lambda": 0.1},
        k=1,
        seed=0,
    )
    with pytest.raises(ConfigError, match="LP-only"):
        config_from(doc)


def test_budget_validation_direct():
    with pytest.raises(ConfigError, match=r"^budget\.max_supports must be a positive integer, got 0$"):
        config_from(base_doc(budget={"max_supports": 0}))
    with pytest.raises(ConfigError, match=r"^budget\.mc_trials must be a positive integer, got True$"):
        config_from(base_doc(budget={"mc_trials": True}))
    assert config_from(base_doc(budget={"max_iters": 50})).max_iters == 50


def test_config_constructor_checks_types():
    fields = dict(
        experiment="verify-c2", m=9, n=10, p=10, k=1, dictionary_kind="identity",
        matrix_kind="gaussian", constraint_kind="l2-ball", epsilon=0.1, lam=0.0,
        trials=6, seed=20,
    )
    assert ExperimentConfig(**fields).epsilon == 0.1
    with pytest.raises(ConfigError, match="number"):
        ExperimentConfig(**dict(fields, epsilon="0.1"))
    with pytest.raises(ConfigError, match="output_path"):
        ExperimentConfig(**dict(fields, output_path=3))


def test_operator_file_shape_and_existence_checks(tmp_path):
    d_path, phi_path = write_matched_instance(tmp_path)
    doc = base_doc(
        experiment="grip",
        dims={"m": 9, "n": 10, "p": 10},
        dictionary_kind="user-supplied",
        dictionary_path=d_path,
        trials=1,
        k=2,
    )
    run(config_from(doc))  # loads cleanly

    missing = dict(doc, dictionary_path=str(tmp_path / "absent.csv"))
    with pytest.raises(ConfigError, match="dictionary_path"):
        run(config_from(missing))

    wrong_dims = dict(doc, dims={"m": 7, "n": 8, "p": 8})
    with pytest.raises(ConfigError, match="shape"):
        run(config_from(wrong_dims))


# every key the config document accepts, top level and in each object
ACCEPTED_KEYS = {
    "config": {
        "experiment", "dims", "k", "dictionary_kind", "matrix_kind", "constraint", "trials",
        "seed", "output_path", "budget", "instances", "m_grid", "rho_mode", "dictionary_path",
        "matrix_path",
    },
    "dims": {"m", "n", "p"},
    "constraint": {"kind", "epsilon", "lambda"},
    "budget": {"max_supports", "max_pairs", "max_iters", "mc_trials"},
}

# per experiment: a valid core (dims, k, dictionary kind) and the
# constraint kinds it admits
_CORES = {
    "grip": ({"m": 5, "n": 8, "p": 10}, 2, "tight-frame", ("equality", "l2-ball", "dantzig")),
    "rho": ({"m": 5, "n": 8, "p": 10}, 2, "tight-frame", ("equality", "l2-ball", "dantzig")),
    "solve": ({"m": 6, "n": 10, "p": 14}, 5, "tight-frame", ("equality", "l2-ball", "dantzig")),
    "phase": ({"m": 4, "n": 8, "p": 8}, 3, "orthogonal", ("equality",)),
    "p1p2": ({"m": 5, "n": 8, "p": 8}, 3, "orthogonal", ("equality", "l2-ball")),
    "verify-c1": ({"m": 9, "n": 10, "p": 10}, 1, "identity", ("equality", "l2-ball", "dantzig")),
    "verify-c2": ({"m": 9, "n": 10, "p": 10}, 1, "identity", ("equality", "l2-ball", "dantzig")),
    "verify-t1": ({"m": 9, "n": 10, "p": 10}, 1, "identity", ("equality", "l2-ball", "dantzig")),
}

_finite = st.floats(allow_nan=False, allow_infinity=False)


def _constraint_docs(kind):
    required = {"kind": st.just(kind)}
    optional = {"epsilon": _finite, "lambda": _finite}
    if kind == "equality":
        required, optional["kind"] = {}, st.just(kind)
    elif kind == "l2-ball":
        required["epsilon"] = optional.pop("epsilon").filter(lambda v: v > 0)
    else:
        required["lambda"] = optional.pop("lambda").filter(lambda v: v >= 0)
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def valid_documents(draw):
    experiment = draw(st.sampled_from(cam.EXPERIMENTS))
    dims, k, dictionary_kind, kinds = _CORES[experiment]
    optional = {
        "constraint": st.sampled_from(kinds).flatmap(_constraint_docs),
        "output_path": st.none() | st.text(max_size=8),
        "budget": st.fixed_dictionaries({}, optional={
            "max_supports": st.integers(3060, 10**9),
            "max_pairs": st.integers(60000, 10**9),
            "max_iters": st.integers(1, 10**9),
            "mc_trials": st.integers(1, 10**6),
        }),
        "rho_mode": st.sampled_from(("exact", "printed")),
        "m_grid": st.none(),
    }
    if experiment == "phase":
        optional["m_grid"] |= st.lists(st.integers(1, dims["n"]), min_size=1, max_size=4)
    files = draw(st.booleans())
    if not files:
        optional["instances"] = st.integers(1, 3)
    doc = draw(st.fixed_dictionaries({}, optional=optional))
    doc.update(
        experiment=experiment, dims=dict(dims), k=k, dictionary_kind=dictionary_kind,
        matrix_kind="gaussian", trials=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**64 - 1)),
    )
    if files:
        doc.update(dictionary_kind="user-supplied", dictionary_path="d.csv")
        if experiment != "phase":
            doc.update(matrix_kind="user-supplied", matrix_path="phi.csv")
    return doc


@settings(max_examples=150, deadline=None)
@given(valid_documents())
def test_config_document_round_trips(doc):
    cfg = config_from(doc)
    echo = cfg.to_json_dict()
    assert ExperimentConfig.from_json(json.dumps(echo)) == cfg
    # the echo materializes every accepted key, and the parser accepts no other
    assert set(echo) == ACCEPTED_KEYS["config"]
    for key in ("dims", "constraint", "budget"):
        assert set(echo[key]) == ACCEPTED_KEYS[key]
    assert set(cam._CONFIG_KEYS) == ACCEPTED_KEYS["config"]
    assert {key: set(sub) for key, sub in cam._NESTED.items()} == {
        key: ACCEPTED_KEYS[key] for key in ("dims", "constraint", "budget")
    }


# ---------------------------------------------------------------------------
# campaign execution and row schemas


EXPECTED_COLUMNS = {
    "grip": ["trial", "seed", "delta", "method", "eig_lo", "eig_hi"],
    "rho": ["trial", "seed", "rho"],
    "solve": [
        "trial", "seed", "objective", "iterations", "primal_residual",
        "dual_residual", "converged", "err_l2", "success",
    ],
    "phase": ["trial", "seed", "m", "success", "err_l2", "objective", "iterations", "converged"],
    "p1p2": [
        "trial", "seed", "distance", "objective_p1", "objective_p2",
        "iterations_p1", "iterations_p2", "converged",
    ],
    "verify-c1": ["trial", "seed", "lhs", "rhs", "slack", "hypothesis_ok", "delta2k", "rho"],
    "verify-c2": ["trial", "seed", "lhs", "rhs", "slack", "hypothesis_ok", "delta2k", "rho"],
    "verify-t1": [
        "trial", "seed", "lhs", "rhs", "slack", "hypothesis_ok",
        "delta2k", "rho", "c0", "c1", "converged",
    ],
}


def grip_doc(**overrides):
    doc = base_doc(
        experiment="grip",
        dims={"m": 5, "n": 6, "p": 6},
        k=2,
        trials=3,
        seed=1,
    )
    doc.update(overrides)
    return doc


def test_grip_campaign_schema_and_summary():
    result = run(config_from(grip_doc()))
    assert [r["trial"] for r in result.rows] == [0, 1, 2]
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["grip"]
        assert row["method"] == "exact"
        assert row["seed"] == trial_seed(1, row["trial"])
    deltas = [r["delta"] for r in result.rows]
    assert result.summary["trials"] == 3
    assert result.summary["delta_mean"] == pytest.approx(sum(deltas) / 3)
    assert result.summary["delta_min"] == min(deltas)
    assert result.summary["delta_max"] == max(deltas)
    assert result.wall_time > 0


def test_grip_budget_switches_to_sampling():
    exact = run(config_from(grip_doc(trials=1)))
    capped = run(config_from(grip_doc(trials=1, budget={"max_supports": 10, "mc_trials": 8})))
    assert math.comb(6, 2) == 15 > 10
    assert capped.rows[0]["method"] == "monte-carlo"
    assert capped.rows[0]["delta"] <= exact.rows[0]["delta"] + 1e-12


def test_rho_campaign_identity_is_zero():
    doc = grip_doc(experiment="rho", trials=2, seed=9)
    result = run(config_from(doc))
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["rho"]
        assert row["rho"] <= 1e-12
    assert result.summary["rho_max"] <= 1e-12


def test_solve_campaign_recovers_identity_signals():
    doc = base_doc(experiment="solve", trials=2, seed=3)
    result = run(config_from(doc))
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["solve"]
        assert row["converged"]
        assert row["success"]
    assert result.summary["success_rate"] == 1.0
    assert result.summary["unconverged"] == 0
    assert result.summary["err_max"] <= cam.SUCCESS_TOL


def test_solve_campaign_ball_constraint():
    doc = base_doc(
        experiment="solve",
        trials=1,
        seed=3,
        constraint={"kind": "l2-ball", "epsilon": 0.05},
    )
    result = run(config_from(doc))
    assert result.rows[0]["converged"]
    # half-radius data perturbation keeps the truth feasible, so the
    # objective cannot exceed the truth's analysis l1 norm
    assert result.rows[0]["objective"] >= 0.0


def test_phase_campaign_grid_mapping():
    doc = base_doc(
        experiment="phase",
        dictionary_kind="orthogonal",
        dims={"m": 5, "n": 6, "p": 6},
        m_grid=[4, 6],
        k=1,
        trials=2,
        seed=3,
    )
    result = run(config_from(doc))
    assert len(result.rows) == 4
    assert [r["m"] for r in result.rows] == [4, 4, 6, 6]
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["phase"]
    # the square endpoint is an exactly determined system
    for row in result.rows[2:]:
        assert row["success"]
    assert "success_rate_m_6" in result.summary
    assert result.summary["success_rate_m_6"] == 1.0


def test_phase_cell_is_a_solve_campaign_at_its_m():
    common = dict(dictionary_kind="tight-frame", dims={"m": 6, "n": 10, "p": 14}, k=5, trials=3, seed=11)
    phase = run(config_from(base_doc(experiment="phase", m_grid=[6], **common)))
    solve = run(config_from(base_doc(experiment="solve", **common)))
    keys = ("trial", "seed", "objective", "iterations", "converged", "err_l2", "success")
    # json.dumps writes floats by repr, so equal strings are equal bits
    assert [[json.dumps(r[key]) for key in keys] for r in phase.rows] == [
        [json.dumps(r[key]) for key in keys] for r in solve.rows
    ]


def test_p1p2_campaign_orthogonal_routes_agree():
    doc = base_doc(
        experiment="p1p2",
        dictionary_kind="orthogonal",
        dims={"m": 6, "n": 8, "p": 8},
        k=1,
        trials=2,
        seed=7,
    )
    result = run(config_from(doc))
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["p1p2"]
        assert row["converged"]
        assert row["distance"] <= 1e-5
    assert result.summary["distance_max"] <= 1e-5


def test_verify_c1_campaign_schema():
    result = run(config_from(base_doc(experiment="verify-c1", trials=5)))
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["verify-c1"]
        assert row["slack"] >= -cam._num_tol(row["lhs"], row["rhs"])
    assert result.summary["violations"] == 0
    assert result.summary["hypothesis_rate"] == 1.0


def test_verify_c2_campaign_green_seed():
    result = run(config_from(base_doc()))
    assert result.rows[0]["delta2k"] == pytest.approx(0.812350, abs=1e-4)
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["verify-c2"]
        assert row["hypothesis_ok"]
        assert row["slack"] >= -cam._num_tol(row["lhs"], row["rhs"])
    assert result.summary["violations"] == 0


def test_rho_campaign_over_budget_is_a_config_error():
    # 630 disjoint pairs at (p, k) = (10, 2): refused as the config is built
    doc = grip_doc(experiment="rho", dims={"m": 8, "n": 10, "p": 10}, k=2,
                   dictionary_kind="orthogonal", trials=3, budget={"max_pairs": 10})
    with pytest.raises(ConfigError, match=r"^630 disjoint pairs exceed budget 10 \(budget.max_pairs\)"):
        config_from(doc)
    assert run(config_from(dict(doc, budget={"max_pairs": 630}))).summary["trials"] == 3


@pytest.mark.parametrize("budget, rho_mode, key", [
    ({"max_supports": 3059}, "exact", "max_supports"),
    ({"max_pairs": 10}, "exact", "max_pairs"),
    ({"max_pairs": 10}, "printed", None),  # no exact rho, so no pair budget
])
def test_pool_budget_refused_before_any_scan(monkeypatch, budget, rho_mode, key):
    # C(18, 4) = 3060 supports for delta_4 and 9180 disjoint pairs for rho_2
    doc = base_doc(experiment="verify-c1", dims={"m": 8, "n": 12, "p": 18}, k=2,
                   dictionary_kind="tight-frame", trials=1, budget=budget, rho_mode=rho_mode)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cg.delta_exact(*args, **kwargs)

    monkeypatch.setattr(cam, "delta_exact", counted)
    monkeypatch.setattr(cam, "rho_exact", lambda *a, **kw: pytest.fail("rho_exact called"))
    if key is None:
        assert run(config_from(doc)).rows[0]["rho"] == 0.0
        assert len(calls) == 1
        return
    count = {
        "max_supports": r"C\(18, 4\) = 3060 supports exceeds budget 3059",
        "max_pairs": "9180 disjoint pairs exceed budget 10",
    }[key]
    # refused as the config is built: no run, so no instance is drawn
    with pytest.raises(ConfigError, match=rf"^{count} \(budget\.{key}\); verify-c1 needs exact constants$"):
        config_from(doc)
    assert calls == []


def test_verify_c2_rejects_wide_delta_instances():
    # seed 0 draws an instance whose exact delta_2 exceeds 1
    with pytest.raises(ConfigError, match="delta_2k = 1"):
        run(config_from(base_doc(seed=0)))


def test_verify_t1_requires_admissible_constants():
    # delta 0.81 < 1 passes the c2 gate but alpha blows past 1
    with pytest.raises(ConfigError, match="inadmissible"):
        run(config_from(base_doc(experiment="verify-t1", k=1)))


def test_verify_t1_green_on_matched_operator_files(tmp_path):
    d_path, phi_path = write_matched_instance(tmp_path)
    doc = base_doc(
        experiment="verify-t1",
        k=2,
        trials=3,
        seed=5,
        dictionary_kind="user-supplied",
        dictionary_path=d_path,
        matrix_kind="user-supplied",
        matrix_path=phi_path,
    )
    result = run(config_from(doc))
    for row in result.rows:
        assert list(row) == EXPECTED_COLUMNS["verify-t1"]
        assert row["hypothesis_ok"]
        assert row["slack"] >= -cam._num_tol(row["lhs"], row["rhs"])
        assert row["delta2k"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert row["c0"] == pytest.approx(11.656854249492484, abs=1e-9)
        assert row["c1"] == pytest.approx(10.242640687119374, abs=1e-9)
    assert result.summary["violations"] == 0
    assert result.summary["unconverged"] == 0


def test_verify_t1_printed_mode_zeroes_rho(tmp_path):
    d_path, phi_path = write_matched_instance(tmp_path)
    doc = base_doc(
        experiment="verify-t1",
        k=2,
        trials=1,
        seed=5,
        dictionary_kind="user-supplied",
        dictionary_path=d_path,
        matrix_kind="user-supplied",
        matrix_path=phi_path,
        rho_mode="printed",
    )
    result = run(config_from(doc))
    assert result.rows[0]["rho"] == 0.0


def test_every_phi_the_campaign_holds_is_read_only(tmp_path):
    # a verify pool shares one Phi across its trials, drawn or loaded
    d_path, phi_path = write_matched_instance(tmp_path)
    loaded = config_from(base_doc(
        experiment="verify-t1", k=2, seed=5,
        dictionary_kind="user-supplied", dictionary_path=d_path,
        matrix_kind="user-supplied", matrix_path=phi_path,
    ))
    for cfg in (config_from(base_doc()), loaded):
        inst = cam._verify_pool(cfg, cam._load_operators(cfg))[0]
        assert inst.phi.shape == (9, 10) and not inst.phi.flags.writeable
    # the phase sweep's square endpoint goes through the same draw
    phase = config_from(base_doc(experiment="phase", dictionary_kind="orthogonal", k=2))
    _, phi = cam._make_operators(phase, 7, (None, None), 10)
    assert phi.shape == (10, 10) and not phi.flags.writeable


EXPECTED_SUMMARY_KEYS = {
    "grip": ["trials", "delta_mean", "delta_min", "delta_max"],
    "rho": ["trials", "rho_mean", "rho_min", "rho_max"],
    "solve": ["trials", "success_rate", "err_max", "unconverged"],
    "phase": [
        "trials", "success_rate", "err_max", "unconverged",
        "success_rate_m_4", "success_rate_m_6",
    ],
    "p1p2": ["trials", "distance_mean", "distance_max", "unconverged"],
    "verify-c1": ["trials", "min_slack", "mean_slack", "violations", "hypothesis_rate"],
    "verify-c2": ["trials", "min_slack", "mean_slack", "violations", "hypothesis_rate"],
    "verify-t1": [
        "trials", "min_slack", "mean_slack", "violations", "hypothesis_rate", "unconverged",
    ],
}


def small_doc(experiment, tmp_path):
    """A two-trial config of each experiment that runs in well under a second."""
    orthogonal = dict(dictionary_kind="orthogonal", k=1, trials=2)
    if experiment in ("grip", "rho"):
        return grip_doc(experiment=experiment, trials=2)
    if experiment == "phase":
        return base_doc(experiment="phase", dims={"m": 5, "n": 6, "p": 6}, m_grid=[4, 6],
                        seed=3, **orthogonal)
    if experiment in ("solve", "p1p2"):
        return base_doc(experiment=experiment, dims={"m": 6, "n": 8, "p": 8}, seed=7, **orthogonal)
    if experiment == "verify-t1":
        d_path, phi_path = write_matched_instance(tmp_path)
        return base_doc(
            experiment="verify-t1", k=2, trials=2, seed=5,
            dictionary_kind="user-supplied", dictionary_path=d_path,
            matrix_kind="user-supplied", matrix_path=phi_path,
        )
    return base_doc(experiment=experiment, trials=2)


@pytest.mark.parametrize("experiment", cam.EXPERIMENTS)
def test_summary_key_order(experiment, tmp_path, monkeypatch):
    # summary key order is part of the results.csv bytes
    cfg = config_from(small_doc(experiment, tmp_path))
    assert list(run(cfg).summary) == EXPECTED_SUMMARY_KEYS[experiment]
    sabotage(monkeypatch, experiment, 0)
    with pytest.raises(CampaignTrialError, match="trial 0") as exc_info:
        run(cfg)
    assert exc_info.value.partial.summary == {"trials": 0}


@pytest.mark.parametrize("experiment, column, key", [
    ("grip", "delta", "delta_mean"),
    ("p1p2", "distance", "distance_mean"),
    ("verify-c2", "slack", "mean_slack"),
])
def test_summary_means_are_left_folds(experiment, column, key):
    # a left fold loses 0.1 to 1e16 and gives 0.2 / 4; a compensated sum
    # (builtin sum from Python 3.12 on) would give 0.3 / 4
    rows = [
        {column: value, "converged": True, "hypothesis_ok": False, "lhs": 0.0, "rhs": 0.0}
        for value in (0.1, 1e16, -1e16, 0.2)
    ]
    assert cam._TABLE[experiment].summarize(None, rows)[key] == 0.05


# ---------------------------------------------------------------------------
# determinism, failure handling


# Both corollary experiments draw their trials from the same stream
# blocks, so the stream tests below run on both. Their names and the
# unprefixed ids are the verify-c2 cases, so that those ids stay stable.
STREAMED = ("verify-c2", "verify-c1")

# The failure tests pass workers=1, the one value `run` accepts, as the
# benchmark harness does; the parameter keeps their ids stable.
ONE_WORKER = pytest.mark.parametrize("workers", [1])


def test_workers_other_than_one_refused_before_any_trial(monkeypatch):
    monkeypatch.setattr(cam, "_load_operators", lambda cfg: pytest.fail("operators loaded"))
    never = dataclasses.replace(cam._TABLE["grip"], trial=lambda *args: pytest.fail("trial ran"))
    monkeypatch.setitem(cam._TABLE, "grip", never)
    with pytest.raises(ValueError, match=r"^workers must be 1, got 2$"):
        run(config_from(grip_doc(trials=4)), workers=2)


def sabotage(monkeypatch, experiment, failing_index):
    """Make the experiment's table entry raise at one trial index, and
    `_verify_block` too where the experiment is checked in stream blocks."""
    entry = cam._TABLE[experiment]
    verify_block = cam._verify_block

    def sabotaged(cfg, ctx, index, seed):
        if index == failing_index:
            raise RuntimeError("synthetic fault")
        return entry.trial(cfg, ctx, index, seed)

    def sabotaged_block(cfg, ctx, start, seeds):
        if start <= failing_index < start + len(seeds):
            raise RuntimeError("synthetic fault")
        return verify_block(cfg, ctx, start, seeds)

    monkeypatch.setitem(cam._TABLE, experiment, dataclasses.replace(entry, trial=sabotaged))
    if entry.stream is not None:
        monkeypatch.setattr(cam, "_verify_block", sabotaged_block)


def test_failed_trial_carries_completed_prefix(monkeypatch):
    sabotage(monkeypatch, "grip", 2)
    with pytest.raises(CampaignTrialError, match="trial 2") as exc_info:
        run(config_from(grip_doc(trials=4)))
    partial = exc_info.value.partial
    assert [r["trial"] for r in partial.rows] == [0, 1]
    assert partial.summary["trials"] == 2


@ONE_WORKER
@pytest.mark.parametrize("failing", [0, 3, 6])
def test_failed_trial_stops_the_campaign_at_any_worker_count(monkeypatch, failing, workers):
    cfg = config_from(grip_doc(trials=7))
    clean = run(cfg)
    sabotage(monkeypatch, "grip", failing)
    seed = trial_seed(cfg.seed, failing)
    with pytest.raises(
        CampaignTrialError, match=rf"^trial {failing} \(seed {seed}\) failed: synthetic fault$"
    ) as exc_info:
        run(cfg, workers=workers)
    partial = exc_info.value.partial
    assert [r["trial"] for r in partial.rows] == list(range(failing))
    assert partial.rows == clean.rows[:failing]
    assert partial.summary == cam._summarize(cfg, list(clean.rows[:failing]))


def row_reprs(rows) -> list[str]:
    """Rows as JSON, one string each: float reprs compare bit for bit, and
    a mismatch is reported by its row."""
    return [json.dumps(row) for row in rows]


def bernoulli_config(experiment: str, instances: int, seed: int, trials: int) -> ExperimentConfig:
    """A verify-c1 or verify-c2 campaign on bernoulli 9x10 instances, whose
    unit-norm columns keep delta_2 below 1 for most seeds."""
    return config_from(base_doc(
        experiment=experiment, matrix_kind="bernoulli", instances=instances, seed=seed, trials=trials
    ))


def admissible_pool(cfg: ExperimentConfig):
    try:
        return cam._verify_pool(cfg, cam._load_operators(cfg))
    except ConfigError:
        assume(False)  # an instance with delta_2 >= 1: no campaign to replay


@given(
    st.sampled_from(STREAMED),
    st.integers(1, 3),
    st.integers(0, 2**32),
    st.integers(1, 2 * cam._STREAM + 40),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_verify_c2_trial_replayed_alone_equals_its_row(experiment, instances, seed, trials, data):
    cfg = bernoulli_config(experiment, instances, seed, trials)
    pool = admissible_pool(cfg)
    rows = run(cfg).rows
    edges = [i for b in (1, 2) for i in (b * cam._STREAM - 1, b * cam._STREAM) if i < trials]
    for i in edges + [trials - 1, data.draw(st.integers(0, trials - 1))]:
        alone = cam._verify_trial(cfg, pool, i, trial_seed(seed, i))
        assert row_reprs([alone]) == row_reprs([rows[i]])


@given(
    st.sampled_from(STREAMED),
    st.integers(1, 3),
    st.integers(0, 2**32),
    st.integers(1, 2 * cam._STREAM + 40),
    st.integers(1, cam._STREAM + 40),
)
@settings(max_examples=30, deadline=None)
def test_verify_c2_rows_are_prefix_stable(experiment, instances, seed, short, extra):
    long = short + extra
    admissible_pool(bernoulli_config(experiment, instances, seed, short))
    prefix = run(bernoulli_config(experiment, instances, seed, short)).rows
    whole = run(bernoulli_config(experiment, instances, seed, long)).rows
    assert row_reprs(prefix) == row_reprs(whole[:short])


def test_verify_c2_stream_definition_is_pinned():
    # Stream block 1 of campaign seed 20 at (n, p, k) = (10, 10, 3): raw
    # RNG output, no arithmetic. A change here moves every verify-c2 CSV
    # and must be recorded as a re-baseline.
    v, heads = cam._stream_block(config_from(base_doc(k=3)), 1, 10, 3)
    assert v.shape == (256, 10) and heads.shape == (256, 3)
    assert v[0, :3].tolist() == [-0.5745277070957034, -0.3048634837573174, 0.13740584399264344]
    assert hashlib.sha256(v.astype("<f8").tobytes()).hexdigest() == (
        "ef4dff73072ccd5cc7284d26c481ba066cc7e13f29ea459ad7fff0e93d7934c0"
    )
    assert heads[:4].tolist() == [[2, 1, 9], [9, 0, 4], [2, 0, 3], [1, 2, 6]]
    assert hashlib.sha256(heads.astype("<i8").tobytes()).hexdigest() == (
        "3903332138593471a6d9bcf528fbf8b53b1555d527f65b90e02e7836efc4609a"
    )


def test_verify_c1_stream_definition_is_pinned():
    # Stream block 1 of campaign seed 20 at (p, k) = (10, 2): 2k normals
    # and 2k picks a row, raw RNG output. A change here moves every
    # verify-c1 CSV and must be recorded as a re-baseline.
    cfg = config_from(base_doc(experiment="verify-c1", k=2, trials=cam._STREAM + 2))
    v, picks = cam._stream_block(cfg, 1, 4, 4)
    assert v.shape == (256, 4) and picks.shape == (256, 4)
    normals = [0.9130254525233574, -0.33684726333703285, -2.4495091637892545, -1.6475796913522904]
    assert v[1].tolist() == normals
    assert hashlib.sha256(v.astype("<f8").tobytes()).hexdigest() == (
        "19d3225afe779735fed3222e7edb7a0d637227692877759e6b5df4f1712ecfd0"
    )
    assert picks[:4].tolist() == [[2, 5, 0, 9], [3, 0, 5, 2], [7, 5, 3, 1], [3, 0, 7, 2]]
    assert hashlib.sha256(picks.astype("<i8").tobytes()).hexdigest() == (
        "dd7df45752659c46e510cc8d18c18cf495729455117c0249c0dc9b5c44f25e2d"
    )
    # trial 257 is row 1: picks 3, 0 are support i and 5, 2 support j, and
    # each normal sits at its pick's position, in pick order (not sorted)
    z_i, z_j = np.zeros(10), np.zeros(10)
    z_i[[3, 0]] = normals[:2]
    z_j[[5, 2]] = normals[2:]
    inst = cam._verify_pool(cfg, cam._load_operators(cfg))[0]
    pinv = inst.dictionary.pinv()
    rep = cg.check_corollary1(
        inst.phi, inst.dictionary, 2,
        (cg.SupportSet((0, 3), 10), pinv @ z_i), (cg.SupportSet((2, 5), 10), pinv @ z_j),
        delta2k=inst.delta2k, rho=inst.rho,
    )
    row = run(cfg).rows[257]
    assert row_reprs([[rep.lhs, rep.rhs, rep.slack, rep.hypothesis_ok]]) == row_reprs(
        [[row[key] for key in ("lhs", "rhs", "slack", "hypothesis_ok")]]
    )


@pytest.mark.parametrize("experiment, workers", [
    pytest.param(experiment, 1, id=f"{prefix}1") for experiment, prefix in zip(STREAMED, ("", "verify-c1-"))
])
def test_verify_c2_failure_inside_a_block_names_its_trial(monkeypatch, experiment, workers):
    cfg = config_from(base_doc(experiment=experiment, trials=2 * cam._STREAM + 5))
    clean = run(cfg)
    failing = cam._STREAM + cam._STREAM // 2  # the middle of the second block
    bad_seed = trial_seed(cfg.seed, failing)
    checks, width, size = cam._TABLE[experiment].stream(cfg)
    bad = cam._stream_block(cfg, failing // cam._STREAM, width, size)[0][failing % cam._STREAM]

    def failing_checks(cfg, inst, v, picks):
        # the failing trial: its row of the stream block's normals
        if np.any(np.all(v == bad, axis=1)):
            raise RuntimeError("synthetic fault")
        return checks(cfg, inst, v, picks)

    monkeypatch.setattr(cam, checks.__name__, failing_checks)
    with pytest.raises(
        CampaignTrialError, match=rf"^trial {failing} \(seed {bad_seed}\) failed: synthetic fault$"
    ) as exc_info:
        run(cfg, workers=workers)
    partial = exc_info.value.partial
    assert partial.rows == clean.rows[:failing]
    assert partial.summary == cam._summarize(cfg, list(clean.rows[:failing]))


@ONE_WORKER
def test_a_block_that_fails_only_as_a_block_is_a_failure(monkeypatch, workers):
    # the second block raises as a block, and each of its trials passes alone
    cfg = config_from(base_doc(trials=2 * cam._STREAM + 5))
    clean = run(cfg)
    verify_block = cam._verify_block

    def broken_block(cfg, ctx, start, seeds):
        if start >= cam._STREAM and len(seeds) > 1:
            raise RuntimeError("block fault")
        return verify_block(cfg, ctx, start, seeds)

    monkeypatch.setattr(cam, "_verify_block", broken_block)
    with pytest.raises(
        CampaignTrialError, match=rf"^trials {cam._STREAM} to {2 * cam._STREAM - 1} failed as a block: block fault$"
    ) as exc_info:
        run(cfg, workers=workers)
    assert str(exc_info.value.__cause__) == "block fault"
    partial = exc_info.value.partial
    assert partial.rows == clean.rows[: cam._STREAM]
    assert partial.summary == cam._summarize(cfg, list(clean.rows[: cam._STREAM]))


def test_lp_budget_refused_as_config_error():
    # the dantzig LP has 2n + 2p + 2n variables: 420 at (n, p) = (40, 130)
    doc = base_doc(
        experiment="solve",
        dims={"m": 20, "n": 40, "p": 130},
        dictionary_kind="tight-frame",
        k=91,
        trials=1,
        seed=0,
        constraint={"kind": "dantzig", "lambda": 0.1},
    )
    with pytest.raises(ConfigError, match=(
        r"^certification LP needs 420 variables, budget is 400; "
        r"dantzig puts every solve trial on the LP route$"
    )):
        config_from(doc)
    # the boundary: 400 at (40, 120) is admitted, 402 at (40, 121) is not
    assert config_from(dict(doc, dims={"m": 20, "n": 40, "p": 120})).p == 120
    with pytest.raises(ConfigError, match=r"^certification LP needs 402 variables, budget is 400; "):
        config_from(dict(doc, dims={"m": 20, "n": 40, "p": 121}))
    # 402 at (n, p) = (67, 67), where the verify pool itself is in budget
    with pytest.raises(ConfigError, match=r"^certification LP needs 402 variables, budget is 400; .* verify-t1 "):
        config_from(base_doc(experiment="verify-t1", dims={"m": 20, "n": 67, "p": 67},
                             constraint={"kind": "dantzig", "lambda": 0.1}))
    # equality solves take the first-order path, and grip solves nothing
    assert config_from(dict(doc, constraint={"kind": "equality"})).constraint_kind == "equality"
    assert config_from(dict(doc, experiment="grip")).constraint_kind == "dantzig"


# ---------------------------------------------------------------------------
# persistence


def test_emit_csv_exact_bytes(tmp_path):
    result = CampaignResult(
        config=config_from(grip_doc()),
        rows=({"trial": 0, "seed": 5, "x": 0.1, "flag": True, "note": "ok"},),
        summary={"trials": 1, "x_mean": 0.1},
        wall_time=1.0,
    )
    paths = write_outputs(result, tmp_path)
    assert paths["csv"].read_text(encoding="utf-8") == (
        "trial,seed,x,flag,note\n"
        "0,5,0.1,true,ok\n"
        "# summary:\n"
        "# trials=1\n"
        "# x_mean=0.1\n"
    )
    assert paths["jsonl"].read_text(encoding="utf-8") == '{"trial": 0, "seed": 5, "x": 0.1, "flag": true, "note": "ok"}\n'


def test_outputs_are_byte_deterministic(tmp_path):
    cfg = config_from(base_doc())
    first = write_outputs(run(cfg), tmp_path / "a")
    second = write_outputs(run(cfg), tmp_path / "b")
    for key in ("csv", "jsonl", "config"):
        assert first[key].read_bytes() == second[key].read_bytes()


def test_written_artifacts_agree(tmp_path):
    result = run(config_from(base_doc(trials=3)))
    paths = write_outputs(result, tmp_path)
    lines = paths["jsonl"].read_text(encoding="utf-8").splitlines()
    assert [json.loads(ln) for ln in lines] == [dict(r) for r in result.rows]
    echo = json.loads(paths["config"].read_text(encoding="utf-8"))
    assert echo == result.config.to_json_dict()
    csv_lines = paths["csv"].read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == ",".join(EXPECTED_COLUMNS["verify-c2"])
    assert len([ln for ln in csv_lines if not ln.startswith("#")]) == 4
    assert "# summary:" in csv_lines


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 0.1, 1e300]
_ASCII = st.text(st.characters(max_codepoint=127), max_size=6)
_POOLS = {
    "bool": st.booleans(),
    "int": st.integers(-(2**63), 2**64 - 1) | st.sampled_from([-(2**63), 2**64 - 1]),
    "float": st.floats() | st.sampled_from(_EDGE_FLOATS),
    "str": _ASCII,
    "text": st.text(max_size=6),
    "none": st.none(),
    "float64": st.floats().map(np.float64),
}
_POOLS["mixed"] = st.one_of(*_POOLS.values())
_COMMON = ["bool", "int", "float", "float", "float", "str"]  # the kinds campaign rows hold
_KEYS = _ASCII | st.sampled_from(["%", "a%sb", "%(x)s", '"', 'say "hi"'])


@st.composite
def writer_column(draw, n: int, rng):
    """n values of one column: drawn again and again from a small pool
    (a float pool often holds both 0.0 and -0.0), or, for floats, mostly
    distinct values of every magnitude with pool values strewn among
    them."""
    kind = draw(st.sampled_from(_COMMON * 3 + sorted(_POOLS)))
    pool = draw(st.lists(_POOLS[kind], min_size=1, max_size=5))
    if kind == "float" and draw(st.booleans()):
        pool += [0.0, -0.0]
    if kind == "float" and draw(st.booleans()):
        spread = rng.standard_normal(n) * 10.0 ** rng.integers(-315, 300, n)
        strewn = rng.integers(0, 4 * len(pool), n)
        return [pool[j] if j < len(pool) else v for j, v in zip(strewn.tolist(), spread.tolist())]
    return [pool[j] for j in rng.integers(0, len(pool), n).tolist()]


@st.composite
def writer_results(draw):
    """Rows of 1-5 columns at row counts either side of a chunk. Most
    columns hold one of the types campaign rows hold, most keys are ASCII
    text (some with % or "), and most summaries hold ints and floats. A
    key may be any text or an int, some rows may reorder their keys, lose
    one or gain one, a column may hold None, np.float64, any text or mixed
    types, and a summary value may be of any of those types."""
    n = draw(st.sampled_from([0, 1, 2, 7, cam._CHUNK - 1, cam._CHUNK, cam._CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key = draw(st.sampled_from([_KEYS] * 4 + [st.text(max_size=4), st.integers(0, 2)]))
    keys = draw(st.lists(_KEYS | key, min_size=1, max_size=5, unique=True))
    columns = [draw(writer_column(n, rng)) for _ in keys]
    rows = [dict(zip(keys, cells)) for cells in zip(*columns)]
    edit = draw(st.sampled_from(["none"] * 6 + ["reorder", "drop", "extra"]))
    if edit != "none" and rows:
        for i in rng.integers(0, n, draw(st.integers(1, 3))).tolist():
            items = list(rows[i].items())
            rows[i] = dict({"reorder": items[::-1], "drop": items[1:], "extra": items + [("~", 1.5)]}[edit])
    value = draw(st.sampled_from([_POOLS["int"] | _POOLS["float"]] * 3 + [_POOLS["mixed"]]))
    summary = draw(st.dictionaries(_KEYS, value, max_size=3))
    return CampaignResult(config=config_from(base_doc()), rows=tuple(rows), summary=summary, wall_time=0.0)


def _keeps_contract(result) -> bool:
    """The row contract of `write_outputs`, checked whole: every row has
    the first row's keys in order, every key is ASCII text, every column
    holds one exact type among bool, int, float and ASCII str, and every
    summary value is an int or a float."""
    rows = result.rows
    cols = tuple(rows[0]) if rows else ()
    if (rows and not cols) or any(tuple(row) != cols for row in rows):
        return False
    if not all(type(k) is str and k.isascii() for k in cols + tuple(result.summary)):
        return False
    for c in cols:
        kinds = {type(row[c]) for row in rows}
        if len(kinds) != 1 or not kinds <= {bool, int, float, str}:
            return False
        if kinds == {str} and not all(row[c].isascii() for row in rows):
            return False
    return all(type(v) in (int, float) for v in result.summary.values())


def _assert_writers_agree(result):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        paths = write_outputs(result, out / "new")
        cell_emit_csv(result, out / "oracle.csv")
        row_emit_jsonl(result, out / "oracle.jsonl")
        assert paths["csv"].read_bytes() == (out / "oracle.csv").read_bytes()
        assert paths["jsonl"].read_bytes() == (out / "oracle.jsonl").read_bytes()


@given(writer_results())
@settings(max_examples=150, deadline=None)
def test_writers_equal_cell_by_cell_oracle(result):
    if _keeps_contract(result):
        _assert_writers_agree(result)
    else:
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(ValueError) as err:
            write_outputs(result, tmp)
        assert type(err.value) is ValueError


def test_writers_keep_signed_zeros_apart():
    # 0.0 == -0.0 with equal hashes, yet they print "0" / "-0" and "0.0" / "-0.0"
    zeros = [0.0, -0.0, 0.0, 0.0, -0.0, 1.5, 1.5, 1.5] * 200
    rows = tuple({"z": z, "nz": -z, "t": i} for i, z in enumerate(zeros))
    result = CampaignResult(config=config_from(base_doc()), rows=rows, summary={}, wall_time=0.0)
    _assert_writers_agree(result)


_WRITER_EXPERIMENTS = [(e, {}) for e in cam.EXPERIMENTS] + [
    ("grip", {"budget": {"max_supports": 10, "mc_trials": 8}}),
    ("solve", {"constraint": {"kind": "l2-ball", "epsilon": 0.1}}),
    ("solve", {"constraint": {"kind": "dantzig", "lambda": 0.1}}),
]


@pytest.mark.parametrize("experiment, overrides", _WRITER_EXPERIMENTS, ids=[
    e + "".join(f"-{v.get('kind', 'monte-carlo')}" for v in o.values()) for e, o in _WRITER_EXPERIMENTS
])
def test_write_outputs_bytes_per_experiment(experiment, overrides, tmp_path):
    # every experiment's rows keep the writer's contract, so it writes the
    # oracles' bytes; a trial that returned, say, np.float64 would fail here
    result = run(config_from({**small_doc(experiment, tmp_path), **overrides}))
    assert result.rows
    if "budget" in overrides:
        assert {row["method"] for row in result.rows} == {"monte-carlo"}
    if experiment == "grip" and not overrides:
        assert {row["method"] for row in result.rows} == {"exact"}
    _assert_writers_agree(result)


@pytest.mark.parametrize("rows, summary, named", [
    ([{"a": 1, "b": 2.0}, {"a": 1}], {}, "row 1 lacks key 'b'"),
    ([{"a": 1}, {"a": 1, "z": 2}], {}, "row 1 has extra key 'z'"),
    ([{"a": 1, "b": 2}, {"b": 2, "a": 1}], {}, "row 1 lists key 'b' out of header order"),
    ([{"a": 1, "note": None}], {}, "column 'note' holds NoneType"),
    ([{"x": 1}, {"x": 1.5}], {}, "column 'x' holds float, int"),
    ([{"x": 0.5}, {"x": np.float64(0.5)}], {}, "column 'x' holds float, float64"),
    ([{0: 1.0}], {}, "key 0 is not ASCII text"),
    ([{"s": "ok"}, {"s": "\u00e9"}], {}, "column 's' holds text that is not ASCII"),
    ([{"a": 1}], {"ok": True}, "summary 'ok' is bool, not int or float"),
], ids=["missing-key", "extra-key", "reordered-keys", "none-cell", "int-float-column",
        "float64-cell", "non-str-key", "non-ascii-text", "bool-summary"])
def test_write_outputs_refuses_rows_that_break_the_contract(rows, summary, named, tmp_path):
    result = CampaignResult(config=config_from(base_doc()), rows=tuple(rows), summary=summary, wall_time=0.0)
    with pytest.raises(ValueError) as err:
        write_outputs(result, tmp_path)
    assert type(err.value) is ValueError
    assert str(err.value).startswith(named)


def test_a_refused_chunk_leaves_the_earlier_chunks_written(tmp_path):
    # the column's type is the first row's, checked chunk by chunk
    rows = tuple({"x": 1, "t": "a"} for _ in range(cam._CHUNK)) + ({"x": 1.5, "t": "a"},)
    result = CampaignResult(config=config_from(base_doc()), rows=rows, summary={}, wall_time=0.0)
    with pytest.raises(ValueError, match=r"^column 'x' holds float, int"):
        write_outputs(result, tmp_path)
    assert (tmp_path / "results.csv").read_text(encoding="utf-8") == "x,t\n" + "1,a\n" * cam._CHUNK
    assert (tmp_path / "results.jsonl").read_text(encoding="utf-8") == '{"x": 1, "t": "a"}\n' * cam._CHUNK


def test_write_outputs_replaces_the_files_it_finds(tmp_path):
    # the old files are longer than the new ones and results.csv is a
    # symlink to a file outside the directory; a hard link kept to each old
    # entry holds its inode, so a new file cannot reuse the number
    result = run(config_from(base_doc(trials=2)))
    fresh = write_outputs(result, tmp_path / "fresh")
    out, keep, outside = tmp_path / "out", tmp_path / "keep", tmp_path / "outside.csv"
    out.mkdir()
    keep.mkdir()
    old = "old line\n" * 1000
    outside.write_text(old, encoding="ascii")
    (out / "results.csv").symlink_to(outside)
    (out / "results.jsonl").write_text(old, encoding="ascii")
    (out / "config_echo.json").write_text(old, encoding="ascii")
    inodes = {}
    for path in fresh.values():
        assert len(old) > path.stat().st_size
        os.link(out / path.name, keep / path.name, follow_symlinks=False)
        inodes[path.name] = (out / path.name).lstat().st_ino
    paths = write_outputs(result, out)
    for key, path in paths.items():
        assert path.read_bytes() == fresh[key].read_bytes()
        assert not path.is_symlink() and path.lstat().st_ino != inodes[path.name]
        assert (keep / path.name).read_text(encoding="ascii") == old
    assert (keep / "results.csv").is_symlink()
    assert outside.read_text(encoding="ascii") == old
