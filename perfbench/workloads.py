"""The four benchmark workloads: inputs, one timed pass, output checks.

Every campaign workload is a fixed reference family of instances (the
probe configurations recorded in NOTES.md) seen through a gauge drawn from the
run's --seed: a Haar rotation Q of the signal space and R of the
measurement space, D -> D Q^T and Phi -> R Phi Q^T. A gauge changes every
number the library sees but none of the geometry: exact constants, PDHG
iterates (up to rounding) and corollary checks are invariant, so the work
per pass is the same for every seed and the reference constants in
reference.json can be checked on every run. A fresh draw of instances per
seed would make the spread of recovery's wall time the spread of its
heavy-tailed iteration counts (see NOTES.md), not of the code.

certify is a fixed reference family of LP instances too, but the
simplex is not rotation invariant (the z = z+ - z- split and Bland's
rule work coordinate by coordinate), so a gauge would change which
instances fail. Its --seed draws only the order in which the batch is
solved, so its failures are the same on every seed and every run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cosparse_grip as cg

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

NAMES = ("enumerate", "recovery", "certify", "checks")

CONSTANT_RTOL = 1e-9       # reference delta2k / rho agreement
CERT_FEAS_RTOL = 1e-7      # certify: constraint violation / max(1, ||y||)
CERT_OBJ_RTOL = 1e-8       # certify: objective above ||D x_true||_1, relative

_MASK64 = (1 << 64) - 1


@dataclass
class PassRecord:
    """One timed pass: its wall time, its operation outcomes and the
    artifacts that must repeat byte for byte across passes."""

    started: float  # time.perf_counter() at the pass's first call
    wall_s: float
    attempted: int
    failed: list[str]
    artifacts: list[bytes]
    outcomes: list = field(default_factory=list)  # campaign workloads: (result, crash) per config


def _no_op(_index: int) -> None:
    pass


# ---------------------------------------------------------------------------
# gauge and seeds


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _signed_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    p = np.zeros((n, n))
    p[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], size=n)
    return p


def _gauge_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(workload)])


def _unxorshift(x: int, shift: int) -> int:
    y = x
    for _ in range(64 // shift + 1):
        y = x ^ (y >> shift)
    return y


def campaign_seed_for_trial(seed: int) -> int:
    """The campaign seed whose trial 0 gets per-trial seed `seed`.

    Inverts cg.trial_seed(c, 0), a bijection of 64-bit integers, so a
    one-trial campaign replays one trial of a larger campaign.
    """
    x = _unxorshift(seed, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    x = _unxorshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    x = _unxorshift(x, 30)
    c = (x - 0x9E3779B97F4A7C15) & _MASK64
    if cg.trial_seed(c, 0) != seed:
        raise RuntimeError("cg.trial_seed is no longer the splitmix64 stream this inverts")
    return c


def _reference_operators(spec: dict, instance_seed: int):
    d = cg.make_dictionary(spec["dictionary_kind"], spec["p"], spec["n"], cg.trial_seed(instance_seed, 0))
    phi = cg.make_sensing_matrix(spec["matrix_kind"], spec["m"], spec["n"], cg.trial_seed(instance_seed, 1))
    return d, phi


def _save_gauged(out: Path, tag: str, d, phi, q: np.ndarray, r: np.ndarray) -> tuple[str, str]:
    d_path = out / f"{tag}_d.csv"
    cg.save_matrix_csv(d_path, cg.Dictionary(d.entries @ q.T, d.kind))
    return str(d_path), _save_gauged_phi(out, tag, phi, q, r)


def _save_gauged_phi(out: Path, tag: str, phi, q: np.ndarray, r: np.ndarray) -> str:
    phi_path = out / f"{tag}_phi.csv"
    cg.save_matrix_csv(phi_path, cg.SensingMatrix(r @ phi.entries @ q.T, phi.kind))
    return str(phi_path)


def _config(out: Path, tag: str, doc: dict) -> cg.ExperimentConfig:
    """Write the campaign config and parse it back, as the CLI would."""
    path = out / f"{tag}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return cg.ExperimentConfig.from_file(path)


# ---------------------------------------------------------------------------
# campaign workloads: enumerate, recovery, checks


class CampaignWorkload:
    """A pass runs each config through cg.run and cg.write_outputs."""

    def __init__(self, name: str, configs: list[cg.ExperimentConfig], out: Path, expected: list[dict]):
        self.name = name
        self.configs = configs
        self.out = out
        self.expected = expected  # per config: reference delta2k / rho, or {}

    def run_pass(self, on_op=_no_op) -> PassRecord:
        outcomes = []
        t0 = time.perf_counter()
        for i, cfg in enumerate(self.configs):
            on_op(i)
            crash = None
            try:
                result = cg.run(cfg, workers=1)
            except cg.CampaignTrialError as err:
                result, crash = err.partial, str(err)
            except cg.ConfigError as err:
                outcomes.append((None, str(err)))
                continue
            cg.write_outputs(result, self.out / f"c{i}")
            outcomes.append((result, crash))
        wall = time.perf_counter() - t0

        failed: list[str] = []
        artifacts: list[bytes] = []
        for i, (cfg, (result, crash)) in enumerate(zip(self.configs, outcomes)):
            done = [] if result is None else list(result.rows)
            if crash is not None:
                failed += [f"config {i} trial {t}: {crash}" for t in range(len(done), cfg.trials)]
            failed += [f"config {i} trial {t}: {why}" for t, why in self._row_failures(done)]
            if result is not None:
                artifacts.append((self.out / f"c{i}" / "results.csv").read_bytes())
        attempted = sum(cfg.trials for cfg in self.configs)
        return PassRecord(t0, wall, attempted, failed, artifacts, outcomes)

    def _row_failures(self, rows: list[dict]):
        for row in rows:
            if row.get("converged") is False:
                yield row["trial"], f"unconverged after {row['iterations']} iterations"
            if "slack" in row and row["hypothesis_ok"]:
                tol = 1e-8 * max(abs(row["lhs"]), abs(row["rhs"]), 1.0)
                if row["slack"] < -tol:
                    yield row["trial"], f"bound violated, slack {row['slack']:.3e}"

    def check(self, record: PassRecord) -> list[str]:
        """Errors in the outputs; [] when every check holds."""
        errors = []
        for i, ((result, crash), want) in enumerate(zip(record.outcomes, self.expected)):
            if result is None:
                if want:
                    errors.append(f"config {i}: no rows to check against the reference ({crash})")
                continue
            if result.summary.get("violations", 0):
                errors.append(f"config {i}: {result.summary['violations']} bound violations")
            for row in result.rows:
                for key, ref in want.items():
                    if abs(row[key] - ref) > CONSTANT_RTOL * max(abs(ref), 1e-300):
                        errors.append(f"config {i} trial {row['trial']}: {key} = {row[key]!r}, reference {ref!r}")
                        break
        return errors


def _setup_enumerate(seed: int, out: Path) -> CampaignWorkload:
    ref = REFERENCE["enumerate"]
    rng = _gauge_rng(seed, "enumerate")
    configs, expected = [], []
    for i, inst in enumerate(ref["instances"]):
        d, phi = _reference_operators(ref, inst["instance_seed"])
        d_path, phi_path = _save_gauged(out, f"i{i}", d, phi, _haar(ref["n"], rng), _haar(ref["m"], rng))
        configs.append(_config(out, f"i{i}", {
            "experiment": "verify-c1",
            "dims": {"m": ref["m"], "n": ref["n"], "p": ref["p"]},
            "k": ref["k"],
            "dictionary_kind": "user-supplied",
            "matrix_kind": "user-supplied",
            "dictionary_path": d_path,
            "matrix_path": phi_path,
            "trials": ref["trials_per_instance"],
            "seed": cg.trial_seed(seed, i),
        }))
        expected.append({"delta2k": inst["delta2k"], "rho": inst["rho"]})
    return CampaignWorkload("enumerate", configs, out, expected)


def _setup_recovery(seed: int, out: Path) -> CampaignWorkload:
    ref = REFERENCE["recovery"]
    rng = _gauge_rng(seed, "recovery")
    configs = []
    for i in range(ref["trials"]):
        trial = cg.trial_seed(ref["campaign_seed"], i)
        d, phi = _reference_operators(ref, trial)
        d_path, phi_path = _save_gauged(out, f"t{i}", d, phi, _haar(ref["n"], rng), _haar(ref["m"], rng))
        # one campaign per reference trial: operator files fix one
        # instance per campaign, and trial 0 of this seed draws the
        # reference trial's signal (rotated with the operators)
        configs.append(_config(out, f"t{i}", {
            "experiment": "solve",
            "dims": {"m": ref["m"], "n": ref["n"], "p": ref["p"]},
            "k": ref["k"],
            "dictionary_kind": "user-supplied",
            "matrix_kind": "user-supplied",
            "dictionary_path": d_path,
            "matrix_path": phi_path,
            "constraint": {"kind": "equality"},
            "trials": 1,
            "seed": campaign_seed_for_trial(trial),
        }))
    return CampaignWorkload("recovery", configs, out, [{} for _ in configs])


def _setup_checks(seed: int, out: Path) -> CampaignWorkload:
    ref = REFERENCE["checks"]
    rng = _gauge_rng(seed, "checks")
    _, phi = _reference_operators(ref, ref["instance_seed"])
    # a signed permutation P keeps D = P I P^T the identity
    phi_path = _save_gauged_phi(out, "i0", phi, _signed_permutation(ref["n"], rng), _haar(ref["m"], rng))
    cfg = _config(out, "i0", {
        "experiment": "verify-c2",
        "dims": {"m": ref["m"], "n": ref["n"], "p": ref["p"]},
        "k": ref["k"],
        "dictionary_kind": "identity",
        "matrix_kind": "user-supplied",
        "matrix_path": phi_path,
        "trials": ref["trials"],
        "seed": seed,
    })
    return CampaignWorkload("checks", [cfg], out, [{"delta2k": ref["delta2k"], "rho": ref["rho"]}])


# ---------------------------------------------------------------------------
# certify: a library-level batch of LP solves


@dataclass(frozen=True)
class LpInstance:
    index: int  # position in the reference family
    seed: int
    phi: cg.SensingMatrix
    dictionary: cg.Dictionary
    constraint: cg.ConstraintSpec
    l1_truth: float


def certify_failure(inst: LpInstance, answer) -> str | None:
    """Why a solve_lp_certified outcome is not a correct answer, or None.

    The truth x is feasible, so an optimum can be no worse than
    ||D x||_1; feasibility and objective are recomputed from x_hat.
    """
    if isinstance(answer, BaseException):
        return f"{type(answer).__name__}: {answer}"
    phi = inst.phi.entries
    x_hat = np.asarray(answer.x_hat, dtype=np.float64)
    y = inst.constraint.y
    r = phi @ x_hat - y
    if inst.constraint.kind == "equality":
        violation = float(np.linalg.norm(r))
    else:
        violation = max(0.0, float(np.max(np.abs(phi.T @ r))) - inst.constraint.lam)
    if not violation <= CERT_FEAS_RTOL * max(1.0, float(np.linalg.norm(y))):
        return f"infeasible answer, violation {violation:.3e}"
    objective = float(np.sum(np.abs(inst.dictionary.entries @ x_hat)))
    if not objective <= inst.l1_truth + CERT_OBJ_RTOL * max(1.0, inst.l1_truth):
        return f"objective {objective:.12g} above the truth's {inst.l1_truth:.12g}"
    return None


class CertifyWorkload:
    name = "certify"

    def __init__(self, instances: list[LpInstance]):
        self.instances = instances

    def run_pass(self, on_op=_no_op) -> PassRecord:
        answers = []
        t0 = time.perf_counter()
        for j, inst in enumerate(self.instances):
            on_op(j)
            try:
                answers.append(cg.solve_lp_certified(inst.phi, inst.dictionary, inst.constraint))
            except Exception as err:  # every solve is attempted; failures are counted
                answers.append(err)
        wall = time.perf_counter() - t0

        failed, artifacts = [], []
        for inst, answer in zip(self.instances, answers):
            why = certify_failure(inst, answer)
            if why is not None:
                failed.append(f"instance {inst.index} ({inst.constraint.kind}, seed {inst.seed}): {why}")
            if isinstance(answer, BaseException):
                artifacts.append(type(answer).__name__.encode())
            else:
                artifacts.append(np.asarray(answer.x_hat).tobytes())
        return PassRecord(t0, wall, len(self.instances), failed, artifacts)

    def check(self, record: PassRecord) -> list[str]:
        return []


def make_lp_instance(index: int, seed: int, kind: str, lam: float) -> LpInstance:
    ref = REFERENCE["certify"]
    d, phi = _reference_operators(ref, seed)
    x = cg.sample_cosparse_signal(d, ref["k"], cg.trial_seed(seed, 2))
    y = phi.entries @ x
    constraint = cg.ConstraintSpec(kind, y, lam=lam) if kind == "dantzig" else cg.ConstraintSpec(kind, y)
    return LpInstance(index, seed, phi, d, constraint, float(np.sum(np.abs(d.entries @ x))))


def _setup_certify(seed: int, out: Path) -> CertifyWorkload:
    ref = REFERENCE["certify"]
    instances = []
    for j in _gauge_rng(seed, "certify").permutation(ref["instances"]).tolist():
        kind = "equality" if j % 2 == 0 else "dantzig"
        instances.append(make_lp_instance(j, cg.trial_seed(ref["family_seed"], j), kind, ref["dantzig_lambda"]))
    return CertifyWorkload(instances)


def setup(name: str, seed: int, out: Path):
    """Build the workload's inputs under out; returns an object with
    run_pass(on_op) -> PassRecord and check(PassRecord) -> [errors]."""
    out.mkdir(parents=True, exist_ok=True)
    return {
        "enumerate": _setup_enumerate,
        "recovery": _setup_recovery,
        "certify": _setup_certify,
        "checks": _setup_checks,
    }[name](seed, out)
