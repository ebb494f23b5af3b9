import json
import re

import pytest

from cosparse_grip import cli
from cosparse_grip.campaign import CampaignResult, trial_seed

from test_campaign import base_doc, config_from, sabotage, small_doc, write_matched_instance


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_success_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_doc())
    out_dir = tmp_path / "out"
    code = cli.main(["verify-c2", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 0
    captured = capsys.readouterr()
    assert "verify-c2: 6 rows" in captured.out
    assert "violations = 0" in captured.out
    wall = [line for line in captured.out.splitlines() if line.startswith("wall_time = ")]
    assert len(wall) == 1 and float(wall[0].split("=")[1]) >= 0.0
    for name in ("results.csv", "results.jsonl", "config_echo.json"):
        assert (out_dir / name).exists()
    assert "wall_time" not in (out_dir / "results.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("experiment", ["verify-c1", "verify-c2", "verify-t1"])
def test_cli_names_the_worst_trial(tmp_path, capsys, experiment):
    cfg_path = write_config(tmp_path, small_doc(experiment, tmp_path))
    out_dir = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg_path, "--out", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line) for line in (out_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    worst = min(rows, key=lambda row: row["slack"])
    assert lines[-1] == f"worst trial: index {worst['trial']}, seed {worst['seed']}, slack {worst['slack']!r}"
    assert lines[-2].startswith("wall_time = ")
    assert "worst" not in (out_dir / "results.csv").read_text(encoding="utf-8")


def test_cli_worst_trial_is_the_first_of_tied_rows(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, base_doc())
    row = {"lhs": 1.0, "rhs": 2.0, "hypothesis_ok": True}
    rows = (
        dict(row, trial=0, seed=5, slack=0.5),
        dict(row, trial=1, seed=9, slack=0.25),
        dict(row, trial=2, seed=11, slack=0.25),
    )
    monkeypatch.setattr(cli, "run", lambda config: _rigged_result({"violations": 0}, rows))
    assert cli.main(["verify-c2", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "worst trial: index 1, seed 9, slack 0.25"
    # experiments without slacks name no worst trial
    monkeypatch.undo()
    cfg_path = write_config(tmp_path, small_doc("grip", tmp_path), "grip.json")
    assert cli.main(["grip", "--config", cfg_path, "--out", str(tmp_path / "grip")]) == 0
    assert "worst trial" not in capsys.readouterr().out


def test_cli_out_falls_back_to_config_output_path(tmp_path):
    target = tmp_path / "from_config"
    cfg_path = write_config(tmp_path, base_doc(output_path=str(target), trials=1))
    assert cli.main(["verify-c2", "--config", cfg_path]) == 0
    assert (target / "results.csv").exists()


def test_cli_seed_override_recorded(tmp_path):
    cfg_path = write_config(tmp_path, base_doc(experiment="grip",
                                               dims={"m": 5, "n": 6, "p": 6},
                                               k=2, trials=1, seed=1))
    out_dir = tmp_path / "out"
    code = cli.main(["grip", "--config", cfg_path, "--seed", "77", "--out", str(out_dir)])
    assert code == 0
    echo = json.loads((out_dir / "config_echo.json").read_text(encoding="utf-8"))
    assert echo["seed"] == 77


def test_cli_config_errors_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_doc())
    # named experiment disagrees with the command
    assert cli.main(["grip", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err

    bad_path = write_config(tmp_path, dict(base_doc(), extra=1), "bad.json")
    assert cli.main(["verify-c2", "--config", bad_path]) == 2

    assert cli.main(["verify-c2", "--config", str(tmp_path / "absent.json")]) == 2

    assert cli.main(["verify-c2", "--config", cfg_path, "--seed", "-3"]) == 2
    # a seed past 64 bits would alias seed mod 2**64
    capsys.readouterr()
    assert cli.main(["verify-c2", "--config", cfg_path, "--seed", str(2**64)]) == 2
    assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(b"\xff\xfe" + json.dumps(base_doc()).encode())
    out_dir = tmp_path / "out"
    assert cli.main(["verify-c2", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is not UTF-8 text") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("where", ["--out", "output_path", "ancestor"])
def test_cli_out_on_an_existing_file_exits_2_before_running(tmp_path, capsys, monkeypatch, where):
    def refuse(config):
        raise AssertionError("the campaign ran")

    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    target = taken / "sub" if where == "ancestor" else taken
    doc = base_doc(output_path=str(target)) if where == "output_path" else base_doc()
    argv = ["verify-c2", "--config", write_config(tmp_path, doc)]
    if where != "output_path":
        argv += ["--out", str(target)]
    monkeypatch.setattr(cli, "run", refuse)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory {target}: {taken} is not a directory\n"
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_cli_pool_diagnostics_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_doc(seed=0))
    assert cli.main(["verify-c2", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "delta_2k" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    # C(30, 8) = 5852925 supports for the exact delta_2k
    (base_doc(dims={"m": 20, "n": 24, "p": 30}, k=4, dictionary_kind="tight-frame"),
     "budget.max_supports"),
    # 630 disjoint pairs for the exact rho
    (base_doc(experiment="verify-c1", dims={"m": 8, "n": 10, "p": 10}, k=2,
              dictionary_kind="orthogonal", budget={"max_pairs": 10}),
     "budget.max_pairs"),
])
def test_cli_pool_over_budget_exits_2(tmp_path, capsys, doc, key):
    cfg_path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert cli.main([doc["experiment"], "--config", cfg_path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    count = {
        "budget.max_supports": r"C\(30, 8\) = 5852925 supports exceeds budget 3060",
        "budget.max_pairs": "630 disjoint pairs exceed budget 10",
    }[key]
    expected = rf"error: {count} \({re.escape(key)}\); {doc['experiment']} needs exact constants\n"
    assert re.fullmatch(expected, err)
    assert not out_dir.exists()


def test_cli_rho_over_budget_exits_2(tmp_path, capsys):
    # 630 disjoint pairs for the exact rho of every trial
    doc = base_doc(experiment="rho", dims={"m": 8, "n": 10, "p": 10}, k=2,
                   dictionary_kind="orthogonal", budget={"max_pairs": 10})
    cfg_path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert cli.main(["rho", "--config", cfg_path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 630 disjoint pairs exceed budget 10 (budget.max_pairs)")
    assert not out_dir.exists()


def test_cli_unconverged_solver_exits_4(tmp_path, capsys):
    doc = base_doc(experiment="solve", trials=1, seed=3, budget={"max_iters": 5})
    cfg_path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    code = cli.main(["solve", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 4
    err = capsys.readouterr().err
    assert "converge" in err
    # the failing trial can be replayed from its printed seed
    assert f"first unconverged trial: index 0, seed {trial_seed(3, 0)}" in err
    # rows are still written for postmortems
    assert (out_dir / "results.csv").exists()


@pytest.mark.parametrize("experiment", ["phase", "verify-t1"])
def test_cli_names_first_unconverged_trial_of_every_solving_experiment(tmp_path, capsys, experiment):
    doc = dict(small_doc(experiment, tmp_path), budget={"max_iters": 5})
    if experiment == "phase":
        doc["m_grid"] = [4]
    cfg_path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg_path, "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert f"first unconverged trial: index 0, seed {trial_seed(doc['seed'], 0)}" in err
    header = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith(",converged")


def test_cli_crashed_trial_exits_1_with_partial_flush(tmp_path, capsys, monkeypatch):
    sabotage(monkeypatch, "grip", 0)
    cfg_path = write_config(tmp_path, base_doc(experiment="grip", k=2, trials=1))
    out_dir = tmp_path / "out"
    code = cli.main(["grip", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 1
    assert "partial results" in capsys.readouterr().err
    assert (out_dir / "results.csv").read_text(encoding="utf-8").startswith("# summary:")


@pytest.mark.parametrize("crashed", [False, True], ids=["success", "partial"])
def test_cli_unwritable_outputs_exit_2(tmp_path, capsys, monkeypatch, crashed):
    # a directory at results.csv cannot be replaced by a file, on the
    # success path and on the partial-results path alike
    if crashed:
        sabotage(monkeypatch, "verify-c2", 3)
    out_dir = tmp_path / "out"
    (out_dir / "results.csv").mkdir(parents=True)
    assert cli.main(["verify-c2", "--config", write_config(tmp_path, base_doc()), "--out", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    if crashed:
        # the crashed trial is still named, ahead of the write error
        crash = lines.pop(0)
        assert crash.startswith("error: ") and crash.endswith("; outputs not written")
        assert "trial" in crash and "seed" in crash
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write outputs to {out_dir}: ")
    assert "results.csv" in lines[0]
    assert (out_dir / "results.csv").is_dir()


def test_cli_lp_over_budget_exits_2(tmp_path, capsys):
    # 2n + 2p + 2n = 408 variables in every trial's dantzig LP
    doc = base_doc(experiment="solve", dims={"m": 30, "n": 60, "p": 84}, k=25,
                   dictionary_kind="tight-frame", trials=1, seed=0,
                   constraint={"kind": "dantzig", "lambda": 0.1})
    cfg_path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg_path, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "error: certification LP needs 408 variables, budget is 400; "
        "dantzig puts every solve trial on the LP route\n"
    )
    assert not out_dir.exists()


def _rigged_result(summary, rows=()):
    return CampaignResult(
        config=config_from(base_doc()), rows=rows, summary=summary, wall_time=0.0
    )


def test_cli_nonconvergence_outranks_violation(tmp_path, monkeypatch, capsys):
    # both findings present: the unreliable solve is reported, not the bound
    cfg_path = write_config(tmp_path, base_doc())
    monkeypatch.setattr(
        cli, "run", lambda config: _rigged_result({"unconverged": 1, "violations": 2})
    )
    assert cli.main(["verify-c2", "--config", cfg_path, "--out", str(tmp_path)]) == 4
    monkeypatch.setattr(
        cli, "run", lambda config: _rigged_result({"unconverged": 0, "violations": 2})
    )
    assert cli.main(["verify-c2", "--config", cfg_path, "--out", str(tmp_path)]) == 3
    capsys.readouterr()


def test_cli_names_first_violating_row(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, base_doc())
    row = {"lhs": 2.0, "rhs": 1.0, "slack": -1.0, "hypothesis_ok": True}
    rows = (
        dict(row, trial=0, seed=5, hypothesis_ok=False),  # hypothesis failed: no finding
        dict(row, trial=1, seed=9, slack=-1e-9),  # within the numerical tolerance
        dict(row, trial=2, seed=11),
        dict(row, trial=3, seed=13),
    )
    monkeypatch.setattr(
        cli, "run", lambda config: _rigged_result({"unconverged": 0, "violations": 2}, rows)
    )
    assert cli.main(["verify-c2", "--config", cfg_path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "bound violated" in err
    assert "first violating trial: index 2, seed 11" in err


def test_cli_names_first_unconverged_row(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, base_doc())
    rows = (
        {"trial": 0, "seed": 5, "converged": True},
        {"trial": 1, "seed": 9, "converged": False},
        {"trial": 2, "seed": 11, "converged": False},
    )
    monkeypatch.setattr(cli, "run", lambda config: _rigged_result({"unconverged": 2}, rows))
    assert cli.main(["verify-c2", "--config", cfg_path, "--out", str(tmp_path)]) == 4
    assert "first unconverged trial: index 1, seed 9" in capsys.readouterr().err
    # every solving experiment's rows carry a converged column; rows
    # without one (this rigged result) name no trial
    rows = ({"trial": 0, "seed": 5, "m": 3},)
    monkeypatch.setattr(cli, "run", lambda config: _rigged_result({"unconverged": 1}, rows))
    assert cli.main(["verify-c2", "--config", cfg_path, "--out", str(tmp_path)]) == 4
    assert "first unconverged" not in capsys.readouterr().err


def test_cli_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["verify-c2"])  # --config is required
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["warp", "--config", "x.json"])  # unknown experiment
    assert exc_info.value.code == 2


def test_cli_header_only_operator_file_exits_2(tmp_path, capsys):
    phi_path = tmp_path / "phi.csv"
    phi_path.write_text("# rows=6 cols=10 kind=user-supplied\n", encoding="ascii")
    doc = base_doc(experiment="solve", dims={"m": 6, "n": 10, "p": 10}, k=2, trials=1,
                   matrix_kind="user-supplied", matrix_path=str(phi_path))
    out_dir = tmp_path / "out"
    assert cli.main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix_path") and "header promises 6 x 10, file holds 0 x 0" in err
    assert "Traceback" not in err and not out_dir.exists()


def test_cli_operator_header_token_without_equals_exits_2(tmp_path, capsys):
    phi_path = tmp_path / "phi.csv"
    phi_path.write_text("# rows=2 cols=3 user-supplied\n1,2,3\n4,5,6\n", encoding="ascii")
    doc = base_doc(experiment="solve", dims={"m": 2, "n": 3, "p": 3}, k=2, trials=1,
                   matrix_kind="user-supplied", matrix_path=str(phi_path))
    out_dir = tmp_path / "out"
    assert cli.main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix_path") and "bad header token 'user-supplied'" in err
    assert "Traceback" not in err and not out_dir.exists()


def test_cli_matched_files_end_to_end(tmp_path, capsys):
    d_path, phi_path = write_matched_instance(tmp_path)
    doc = base_doc(
        experiment="verify-t1",
        k=2,
        trials=2,
        seed=5,
        dictionary_kind="user-supplied",
        dictionary_path=d_path,
        matrix_kind="user-supplied",
        matrix_path=phi_path,
    )
    cfg_path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    code = cli.main(["verify-t1", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 0
    header = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "trial,seed,lhs,rhs,slack,hypothesis_ok,delta2k,rho,c0,c1,converged"
    capsys.readouterr()
