"""Seeded experiment campaigns: config parsing, dispatch, persistence.

A campaign is a JSON config naming one experiment plus its dimensions,
operator kinds, constraint, trial count and seed. Per-trial seeds are the
splitmix64 finalizer applied to (campaign seed, trial index), so trials
are order-independent and the whole run is reproducible to the byte from
(config, seed) alone. verify-c2 draws its trials a stream block of
_STREAM trials at a time instead (see `run`); its rows still carry the
per-trial seed, as the trial's identifier. Emitted artifacts:
results.csv (17-significant-digit floats, trailing `# summary:` comment
block), results.jsonl (one row object per line, floats as `repr` writes
them) and config_echo.json (the parsed config with defaults
materialized). Both row files are formatted a column at a time over
chunks of _CHUNK rows, each chunk written as soon as it is formatted,
with the bytes of formatting them cell by cell. wall_time is recorded on
the result but never written, so re-runs stay byte-identical.

The config document is declared once: the fields of `ExperimentConfig`
and `Budget`, with `_NESTED` grouping some under the `dims` and
`constraint` objects. The accepted and required keys, `from_json` and
`to_json_dict` derive from it; a key is required exactly when its field
has no default.

What each experiment does lives in one private table, `_TABLE`: its
trial function, its summary keys, whether its trials share a verify
instance pool, and which cosparsity rules its configs must meet. Every
value check is made in `ExperimentConfig.__post_init__`, and so is every
refusal the dimensions alone decide (exact constants over their
`budget`, a dantzig LP over `MAX_LP_VARIABLES`); `from_json` only checks
the document's structure.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .grip import (
    DEFAULT_MAX_PAIRS,
    DEFAULT_MAX_SUPPORTS,
    BudgetExceededError,
    _refuse_pairs,
    _refuse_supports,
    bound_constants,
    delta_exact,
    delta_monte_carlo,
    rho_exact,
)
from .model import (
    DICTIONARY_KINDS,
    Dictionary,
    SensingMatrix,
    SupportSet,
    _random_subsets,
    _sensing_draw,
    load_dictionary_csv,
    load_sensing_csv,
    make_dictionary,
    make_sensing_matrix,
    sample_cosparse_signal,
)
from .solvers import (
    CONSTRAINT_KINDS,
    ConstraintSpec,
    SolverOptions,
    _refuse_lp,
    solve_analysis_l1,
    solve_lp_certified,
    solve_synthesis_l1,
)
from .verify import _corollary2_stack, _dots, check_corollary1, check_theorem1

__all__ = [
    "EXPERIMENTS",
    "SUCCESS_TOL",
    "ConfigError",
    "CampaignTrialError",
    "Budget",
    "ExperimentConfig",
    "CampaignResult",
    "trial_seed",
    "run",
    "emit_csv",
    "emit_jsonl",
    "write_outputs",
]

SUCCESS_TOL = 1e-5        # ||x_hat - x||_2 below this counts as exact recovery
_CONFIG_KINDS = tuple(k for k in DICTIONARY_KINDS if k != "user-supplied")
_MATRIX_KINDS = ("gaussian", "bernoulli")
_RHO_MODES = ("exact", "printed")

_DECAY = 0.5              # ratio of verify-t1's compressible signal profile

_BLOCK = 256              # trials per call of an experiment that evaluates blocks
_STREAM = 256             # verify-c2 trials per stream block: part of the draws' definition

_MASK64 = (1 << 64) - 1
_INSTANCE_TAG = 1 << 40   # keeps instance seed stream clear of trial indices
_STREAM_TAG = 2 << 40     # keeps verify-c2 stream-block seeds clear of both


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the violation."""


class CampaignTrialError(RuntimeError):
    """A trial failed. Carries the completed prefix of rows so callers
    can flush partial results before aborting."""

    def __init__(self, message: str, partial: "CampaignResult"):
        super().__init__(message)
        self.partial = partial


def trial_seed(campaign_seed: int, index: int) -> int:
    """splitmix64 finalizer on campaign_seed advanced by index steps.

    Decorrelates per-trial RNG streams while keeping them a pure function
    of (seed, index), hence parallelizable and order-independent.
    """
    x = (campaign_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _trial_seeds(campaign_seed: int, total: int) -> list[int]:
    """[trial_seed(campaign_seed, i) for i in range(total)] in one pass
    over a uint64 array, whose arithmetic wraps mod 2**64 without a
    warning (numpy's scalar uint64 arithmetic warns on overflow)."""
    x = np.uint64(campaign_seed & _MASK64) + np.uint64(0x9E3779B97F4A7C15) * np.arange(
        1, total + 1, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (x ^ (x >> np.uint64(31))).tolist()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_positive_ints(obj, names: tuple[str, ...], prefix: str = "") -> None:
    for name in names:
        v = getattr(obj, name)
        if not _is_int(v) or v < 1:
            raise ConfigError(f"{prefix}{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Budget:
    """Enumeration and iteration ceilings for one campaign."""

    max_supports: int = DEFAULT_MAX_SUPPORTS
    max_pairs: int = DEFAULT_MAX_PAIRS
    max_iters: int = SolverOptions.max_iters
    mc_trials: int = 200  # sample count when exact enumeration is over budget

    def __post_init__(self):
        _check_positive_ints(self, tuple(f.name for f in fields(self)), "budget.")


def _json_object(doc, where: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    """Structure of one JSON object: its type and its key set."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{where} is missing required key {key!r}")
    return doc


# The nested objects of the config document: each maps its keys to
# ExperimentConfig fields. Every other field is a top-level key of its own
# name, `budget` holding the Budget fields under theirs.
_NESTED = {
    "dims": {"m": "m", "n": "n", "p": "p"},
    "constraint": {"kind": "constraint_kind", "epsilon": "epsilon", "lambda": "lam"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign, fully validated at construction.

    instances pools several (dictionary, sensing) draws inside one
    verify-* campaign, amortizing the exact constants across trials.
    m_grid is the undersampling sweep of the phase experiment (defaults
    to 2..n, endpoint included; m = n is allowed there and only there).
    rho_mode chooses between the exact cross-term and the printed-form
    rho = 0 constants in verify-* experiments.
    """

    experiment: str
    m: int
    n: int
    p: int
    k: int
    dictionary_kind: str
    matrix_kind: str
    trials: int
    seed: int
    constraint_kind: str = "equality"
    epsilon: float = 0.0
    lam: float = 0.0
    output_path: str | None = None
    budget: Budget = field(default_factory=Budget)
    instances: int = 1
    m_grid: tuple[int, ...] | None = None
    rho_mode: str = "exact"
    dictionary_path: str | None = None
    matrix_path: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        entry = _TABLE[self.experiment]
        _check_positive_ints(self, ("m", "n", "p", "k", "trials", "instances"))
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("output_path", "dictionary_path", "matrix_path"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, str):
                raise ConfigError(f"{name} must be a string, got {v!r}")
        for name, label in (("epsilon", "constraint.epsilon"), ("lam", "constraint.lambda")):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"{label} must be a number, got {v!r}")
            if not -sys.float_info.max <= v <= sys.float_info.max:  # exact for huge ints too
                raise ConfigError(f"{label} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.p < self.n:
            raise ConfigError(f"dictionary needs p >= n, got p={self.p}, n={self.n}")
        if self.experiment != "phase" and self.m >= self.n:
            raise ConfigError(f"sensing matrix needs m < n, got m={self.m}, n={self.n}")
        if self.dictionary_path is not None:
            if self.dictionary_kind != "user-supplied":
                raise ConfigError("dictionary_path requires dictionary_kind \"user-supplied\"")
        elif self.dictionary_kind not in _CONFIG_KINDS:
            raise ConfigError(
                f"dictionary_kind must be one of {_CONFIG_KINDS} "
                "(\"user-supplied\" needs a dictionary_path)"
            )
        if self.dictionary_kind in ("identity", "orthogonal", "finite-difference") and self.p != self.n:
            raise ConfigError(f"{self.dictionary_kind} dictionary requires p == n")
        if self.matrix_path is not None:
            if self.experiment == "phase":
                raise ConfigError("phase sweeps m itself; matrix_path is not allowed")
            if self.matrix_kind != "user-supplied":
                raise ConfigError("matrix_path requires matrix_kind \"user-supplied\"")
        elif self.matrix_kind not in _MATRIX_KINDS:
            raise ConfigError(
                f"matrix_kind must be one of {_MATRIX_KINDS} "
                "(\"user-supplied\" needs a matrix_path)"
            )
        if (self.dictionary_path or self.matrix_path) and self.instances != 1:
            raise ConfigError("operator files fix the instance; instances must be 1")
        if self.constraint_kind not in CONSTRAINT_KINDS:
            raise ConfigError(f"unknown constraint kind {self.constraint_kind!r}")
        if self.constraint_kind == "l2-ball" and not self.epsilon > 0:
            raise ConfigError("l2-ball constraint requires epsilon > 0")
        if self.constraint_kind == "dantzig" and not self.lam >= 0:
            raise ConfigError("dantzig constraint requires lambda >= 0")
        if self.rho_mode not in _RHO_MODES:
            raise ConfigError(f"rho_mode must be one of {_RHO_MODES}")
        if not 1 <= self.k <= self.p:
            raise ConfigError(f"need 1 <= k <= p, got k={self.k}, p={self.p}")
        if entry.draws_signal and self.k >= self.p:
            raise ConfigError(f"signal sampling needs k < p, got k={self.k}, p={self.p}")
        if entry.draws_signal and self.p > self.n and self.k < self.p - self.n + 1:
            # p - k generic analysis rows must leave a nontrivial null space
            raise ConfigError(
                f"a redundant operator admits no {self.k}-analysis-sparse signal: "
                f"need k >= p - n + 1 = {self.p - self.n + 1}"
            )
        if entry.needs_pairs and 2 * self.k > self.p:
            raise ConfigError(f"disjoint support pairs need 2k <= p, got k={self.k}, p={self.p}")
        if self.experiment == "p1p2" and self.constraint_kind == "dantzig":
            raise ConfigError("p1p2 compares the first-order routes; dantzig is LP-only")
        if self.experiment == "phase" and self.constraint_kind != "equality":
            raise ConfigError("phase measures exact recovery; its constraint must be equality")
        if self.m_grid is not None:
            if self.experiment != "phase":
                raise ConfigError("m_grid is only meaningful for the phase experiment")
            if not isinstance(self.m_grid, (list, tuple)):
                raise ConfigError("m_grid must be a list of integers")
            grid = tuple(self.m_grid)
            if not grid:
                raise ConfigError("m_grid must be nonempty")
            for v in grid:
                if not _is_int(v) or not 1 <= v <= self.n:
                    raise ConfigError(f"m_grid entries must be integers in [1, n], got {v!r}")
            object.__setattr__(self, "m_grid", grid)
        # exact constants every trial (or the instance pool) needs: delta_2k
        # over supports, rho_k over disjoint pairs, counted from (p, k) alone
        exact = []
        if entry.pooled:
            exact.append(("max_supports", _refuse_supports, 2 * self.k))
        if self.experiment == "rho" or (entry.pooled and self.rho_mode == "exact"):
            exact.append(("max_pairs", _refuse_pairs, self.k))
        for key, refuse, order in exact:
            try:
                refuse(self.p, order, getattr(self.budget, key))
            except BudgetExceededError as err:
                raise ConfigError(f"{err} (budget.{key}); {self.experiment} needs exact constants") from err
        if self.constraint_kind == "dantzig" and self.experiment in ("solve", "verify-t1"):
            try:
                _refuse_lp(self.n, self.p, self.constraint_kind)
            except ValueError as err:
                raise ConfigError(
                    f"{err}; dantzig puts every {self.experiment} trial on the LP route"
                ) from err

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a config document. Only its structure is checked here;
        every value is validated by the constructor."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        _json_object(doc, "config", _CONFIG_KEYS, _REQUIRED_KEYS)
        values = {}
        for key in _CONFIG_KEYS:  # field order: dims before constraint before budget
            if key not in doc:
                continue
            if key in _NESTED:
                sub = _NESTED[key]
                required = tuple(k for k, name in sub.items() if name in _REQUIRED_FIELDS)
                obj = _json_object(doc[key], key, tuple(sub), required)
                values.update((sub[k], v) for k, v in obj.items())
            elif key == "budget":
                values[key] = Budget(**_json_object(doc[key], key, tuple(f.name for f in fields(Budget))))
            else:
                values[key] = doc[key]
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as err:
                raise ConfigError(f"config is not UTF-8 text: {err}") from err
        return cls.from_json(text)

    def to_json_dict(self) -> dict:
        """The config as a document with every default materialized."""
        values = asdict(self)
        if self.m_grid is not None:
            values["m_grid"] = list(self.m_grid)
        nested = {key: {k: values.pop(name) for k, name in sub.items()} for key, sub in _NESTED.items()}
        return {**values, **nested}


# The document's keys, in field order. A key is required exactly when its
# field has no default, and a nested object when one of its keys is.
_OWNER = {name: key for key, sub in _NESTED.items() for name in sub.values()}
_REQUIRED_FIELDS = tuple(
    f.name for f in fields(ExperimentConfig) if f.default is MISSING and f.default_factory is MISSING
)
_CONFIG_KEYS = tuple(dict.fromkeys(_OWNER.get(f.name, f.name) for f in fields(ExperimentConfig)))
_REQUIRED_KEYS = tuple(dict.fromkeys(_OWNER.get(name, name) for name in _REQUIRED_FIELDS))


@dataclass(frozen=True)
class CampaignResult:
    config: ExperimentConfig
    rows: tuple[dict, ...]
    summary: dict
    wall_time: float


# ---------------------------------------------------------------------------
# per-experiment machinery


def _solver_options(cfg: ExperimentConfig) -> SolverOptions:
    return SolverOptions(max_iters=cfg.budget.max_iters)


_Ops = tuple[Dictionary | None, SensingMatrix | None]


def _load_operators(cfg: ExperimentConfig) -> _Ops:
    """Load config-referenced operator files once per campaign; shapes
    must agree with the declared dims."""
    d = phi = None
    if cfg.dictionary_path is not None:
        try:
            d = load_dictionary_csv(cfg.dictionary_path)
        except (OSError, ValueError) as err:
            raise ConfigError(f"dictionary_path {cfg.dictionary_path!r}: {err}") from err
        if d.entries.shape != (cfg.p, cfg.n):
            raise ConfigError(
                f"dictionary_path has shape {d.entries.shape}, "
                f"config dims say (p, n) = ({cfg.p}, {cfg.n})"
            )
    if cfg.matrix_path is not None:
        try:
            phi = load_sensing_csv(cfg.matrix_path)
        except (OSError, ValueError) as err:
            raise ConfigError(f"matrix_path {cfg.matrix_path!r}: {err}") from err
        if phi.entries.shape != (cfg.m, cfg.n):
            raise ConfigError(
                f"matrix_path has shape {phi.entries.shape}, "
                f"config dims say (m, n) = ({cfg.m}, {cfg.n})"
            )
    return d, phi


def _make_dictionary(cfg: ExperimentConfig, seed: int, ops: _Ops) -> Dictionary:
    if ops[0] is not None:
        return ops[0]
    return make_dictionary(cfg.dictionary_kind, cfg.p, cfg.n, trial_seed(seed, 0))


def _make_operators(cfg: ExperimentConfig, seed: int, ops: _Ops) -> tuple[Dictionary, SensingMatrix]:
    d = _make_dictionary(cfg, seed, ops)
    phi = ops[1] if ops[1] is not None else make_sensing_matrix(
        cfg.matrix_kind, cfg.m, cfg.n, trial_seed(seed, 1))
    return d, phi


def _constraint_for(cfg: ExperimentConfig, phi_entries: np.ndarray, x: np.ndarray, seed: int) -> ConstraintSpec:
    """Build B(y) so that the ground truth x is feasible: exact data for
    equality/dantzig, half-radius perturbed data for the ball, its noise
    drawn from the trial's stream trial_seed(seed, 3)."""
    y = phi_entries @ x
    if cfg.constraint_kind == "equality":
        return ConstraintSpec("equality", y)
    if cfg.constraint_kind == "l2-ball":
        noise = np.random.default_rng(trial_seed(seed, 3)).standard_normal(y.shape[0])
        nrm = float(np.linalg.norm(noise))
        if nrm > 0:
            y = y + noise * (0.5 * cfg.epsilon / nrm)
        return ConstraintSpec("l2-ball", y, epsilon=cfg.epsilon)
    return ConstraintSpec("dantzig", y, lam=cfg.lam)


def _solve_for(cfg: ExperimentConfig, phi, dictionary: Dictionary, constraint: ConstraintSpec):
    if constraint.kind == "dantzig":
        return solve_lp_certified(phi, dictionary, constraint)
    return solve_analysis_l1(phi, dictionary, constraint, _solver_options(cfg))


def _grip_trial(cfg: ExperimentConfig, ops: _Ops, index: int, seed: int) -> dict:
    d, phi = _make_operators(cfg, seed, ops)
    try:
        rep = delta_exact(phi, d, cfg.k, max_supports=cfg.budget.max_supports)
    except BudgetExceededError:
        rep = delta_monte_carlo(phi, d, cfg.k, cfg.budget.mc_trials, trial_seed(seed, 2))
    row = {
        "trial": index,
        "seed": seed,
        "delta": rep.delta,
        "method": rep.method,
        "eig_lo": rep.eigen_range[0],
        "eig_hi": rep.eigen_range[1],
    }
    return row


def _rho_trial(cfg: ExperimentConfig, ops: _Ops, index: int, seed: int) -> dict:
    est = rho_exact(_make_dictionary(cfg, seed, ops), cfg.k, max_pairs=cfg.budget.max_pairs)
    return {"trial": index, "seed": seed, "rho": est.rho}


def _solve_trial(cfg: ExperimentConfig, ops: _Ops, index: int, seed: int) -> dict:
    d, phi = _make_operators(cfg, seed, ops)
    x = sample_cosparse_signal(d, cfg.k, trial_seed(seed, 2))
    constraint = _constraint_for(cfg, phi.entries, x, seed)
    res = _solve_for(cfg, phi, d, constraint)
    err = float(np.linalg.norm(res.x_hat - x))
    row = {
        "trial": index,
        "seed": seed,
        "objective": res.objective,
        "iterations": res.iterations,
        "primal_residual": res.primal_residual,
        "dual_residual": res.dual_residual,
        "converged": res.converged,
        "err_l2": err,
        "success": err <= SUCCESS_TOL,
    }
    return row


def _m_cells(cfg: ExperimentConfig) -> tuple[int, ...]:
    """The m values a campaign visits, `trials` trials at each: the phase
    sweep (2..n by default, endpoint included), else the configured m."""
    if cfg.m_grid is not None:
        return cfg.m_grid
    return tuple(range(2, cfg.n + 1)) if cfg.experiment == "phase" else (cfg.m,)


def _phase_trial(cfg: ExperimentConfig, ops: _Ops, index: int, seed: int) -> dict:
    m = _m_cells(cfg)[index // cfg.trials]
    d = _make_dictionary(cfg, seed, ops)
    # m = n is a legitimate endpoint of the sweep; SensingMatrix would
    # reject it, so the sweep passes raw entries throughout
    phi_entries = _sensing_draw(cfg.matrix_kind, m, cfg.n, trial_seed(seed, 1))
    x = sample_cosparse_signal(d, cfg.k, trial_seed(seed, 2))
    res = _solve_for(cfg, phi_entries, d, _constraint_for(cfg, phi_entries, x, seed))
    err = float(np.linalg.norm(res.x_hat - x))
    row = {
        "trial": index,
        "seed": seed,
        "m": m,
        "success": err <= SUCCESS_TOL,
        "err_l2": err,
        "objective": res.objective,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    return row


def _p1p2_trial(cfg: ExperimentConfig, ops: _Ops, index: int, seed: int) -> dict:
    d, phi = _make_operators(cfg, seed, ops)
    x = sample_cosparse_signal(d, cfg.k, trial_seed(seed, 2))
    constraint = _constraint_for(cfg, phi.entries, x, seed)
    opts = _solver_options(cfg)
    res_analysis = solve_analysis_l1(phi, d, constraint, opts)
    res_synthesis = solve_synthesis_l1(phi, d, constraint, opts)
    dist = float(np.linalg.norm(res_analysis.x_hat - res_synthesis.x_hat))
    row = {
        "trial": index,
        "seed": seed,
        "distance": dist,
        "objective_p1": res_synthesis.objective,
        "objective_p2": res_analysis.objective,
        "iterations_p1": res_synthesis.iterations,
        "iterations_p2": res_analysis.iterations,
        "converged": res_analysis.converged and res_synthesis.converged,
    }
    return row


@dataclass(frozen=True)
class _VerifyInstance:
    dictionary: Dictionary
    phi: SensingMatrix
    delta2k: float
    rho: float


def _delta_below_one(cfg: ExperimentConfig, i: int, inst: _VerifyInstance) -> None:
    if inst.delta2k >= 1.0:
        raise ConfigError(
            f"instance {i}: exact delta_2k = {inst.delta2k:.4f} >= 1 at "
            f"dims (m={cfg.m}, n={cfg.n}, p={cfg.p}), k={cfg.k}; "
            f"the {cfg.experiment} bound's hypothesis cannot hold"
        )


def _admissible(cfg: ExperimentConfig, i: int, inst: _VerifyInstance) -> None:
    if not bound_constants(inst.delta2k, inst.rho).admissible:
        raise ConfigError(
            f"instance {i}: constants inadmissible (alpha >= 1) at exact "
            f"delta_2k = {inst.delta2k:.4f}, rho = {inst.rho:.4f}; "
            "theorem-1 verification cannot run"
        )


def _verify_pool(cfg: ExperimentConfig, ops: _Ops) -> list[_VerifyInstance]:
    """Instance pool with exact constants, shared across trials.

    delta is computed at order 2k (the order every checked bound uses) and
    rho at order k; rho_mode "printed" zeroes the cross term to reproduce
    the rho-free printed constants. Each instance must pass its
    experiment's `hypotheses` (Corollary 2 and Theorem 1 need delta < 1,
    Theorem 1 also alpha < 1); a failure is a ConfigError, raised before
    any trial. The config has already refused constants over their budget.
    """
    pool = []
    for i in range(cfg.instances):
        s = trial_seed(cfg.seed, _INSTANCE_TAG + i)
        d, phi = _make_operators(cfg, s, ops)
        delta = delta_exact(phi, d, 2 * cfg.k, max_supports=cfg.budget.max_supports).delta
        if cfg.rho_mode == "printed":
            rho = 0.0
        else:
            rho = rho_exact(d, cfg.k, max_pairs=cfg.budget.max_pairs).rho
        pool.append(_VerifyInstance(d, phi, delta, rho))
    for i, inst in enumerate(pool):
        for hypothesis in _TABLE[cfg.experiment].hypotheses:
            hypothesis(cfg, i, inst)
    return pool


def _num_tol(lhs: float, rhs: float) -> float:
    return 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def _violates(row: dict) -> bool:
    """A verify row whose hypothesis held but whose bound failed beyond
    the numerical tolerance: a finding, and exit code 3 on the CLI."""
    return row["hypothesis_ok"] and row["slack"] < -_num_tol(row["lhs"], row["rhs"])


def _verify_row(index: int, seed: int, inst: _VerifyInstance, lhs, rhs, slack, hypothesis_ok) -> dict:
    return {
        "trial": index,
        "seed": seed,
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "hypothesis_ok": hypothesis_ok,
        "delta2k": inst.delta2k,
        "rho": inst.rho,
    }


def _verify_c1_trial(cfg: ExperimentConfig, pool, index: int, seed: int) -> dict:
    inst = pool[index % len(pool)]
    d = inst.dictionary
    rng = np.random.default_rng(seed)
    picks = rng.choice(cfg.p, size=2 * cfg.k, replace=False)
    sup_i = SupportSet(tuple(int(v) for v in picks[: cfg.k]), cfg.p)
    sup_j = SupportSet(tuple(int(v) for v in picks[cfg.k :]), cfg.p)
    pinv = d.pinv()
    z_i = np.zeros(cfg.p)
    z_i[list(sup_i.indices)] = rng.standard_normal(cfg.k)
    z_j = np.zeros(cfg.p)
    z_j[list(sup_j.indices)] = rng.standard_normal(cfg.k)
    rep = check_corollary1(
        inst.phi, d, cfg.k, (sup_i, pinv @ z_i), (sup_j, pinv @ z_j),
        delta2k=inst.delta2k, rho=inst.rho,
    )
    return _verify_row(index, seed, inst, rep.lhs, rep.rhs, rep.slack, rep.hypothesis_ok)


def _c2_stream_block(cfg: ExperimentConfig, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw draws of verify-c2 stream block b, the trials b * _STREAM to
    (b + 1) * _STREAM - 1, one row each: a generator keyed by (campaign
    seed, b) draws the (_STREAM, n) ziggurat normals, then the
    (_STREAM, k) heads by `_random_subsets`."""
    rng = np.random.default_rng(trial_seed(cfg.seed, _STREAM_TAG + b))
    v = rng.standard_normal((_STREAM, cfg.n))
    return v, _random_subsets(rng, _STREAM, cfg.p, cfg.k)


def _verify_c2_block(cfg: ExperimentConfig, pool, start: int, seeds: list[int]) -> list[dict]:
    """Rows of the consecutive trials start, start + 1, ... (one per seed,
    which the row carries as the trial's identifier). A trial's direction
    h = v / ||v|| and head are its row of the stream blocks that cover the
    trials, whatever the block size; the checks then run as one stacked
    call per pool instance, whose rows have the bits of one check per
    trial."""
    last = (start + len(seeds) - 1) // _STREAM
    drawn = [_c2_stream_block(cfg, b) for b in range(start // _STREAM, last + 1)]
    offset = start % _STREAM
    v, heads = (np.concatenate(parts)[offset : offset + len(seeds)] for parts in zip(*drawn))
    h = v / np.sqrt(_dots(v, v))[:, None]
    rows = [None] * len(seeds)
    for i, inst in enumerate(pool):
        # trial start + j checks against pool[(start + j) % len(pool)]
        mine = slice((i - start) % len(pool), None, len(pool))
        positions = range(len(seeds))[mine]
        if not positions:
            continue
        _, cols = _corollary2_stack(
            inst.phi, inst.dictionary, cfg.k, h[mine], heads[mine], inst.delta2k, inst.rho
        )
        for j, lhs, rhs, slack, ok in zip(
            positions, *(cols[key].tolist() for key in ("lhs", "rhs", "slack", "hypothesis_ok"))
        ):
            rows[j] = _verify_row(start + j, seeds[j], inst, lhs, rhs, slack, ok)
    return rows


def _verify_c2_trial(cfg: ExperimentConfig, pool, index: int, seed: int) -> dict:
    return _verify_c2_block(cfg, pool, index, [seed])[0]


def _compressible_signal(dictionary: Dictionary, seed: int) -> np.ndarray:
    """Unit-norm x whose analysis image has (approximately) geometrically
    decaying sorted magnitudes, ratio _DECAY; exact geometric decay when D
    is orthogonal."""
    rng = np.random.default_rng(seed)
    p = dictionary.p
    profile = _DECAY ** np.arange(p) * rng.choice([-1.0, 1.0], size=p)
    v = rng.permutation(profile)
    x = dictionary.pinv() @ v
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise ValueError("degenerate compressible draw")
    return x / nrm


def _verify_t1_trial(cfg: ExperimentConfig, pool, index: int, seed: int) -> dict:
    inst = pool[index % len(pool)]
    x = _compressible_signal(inst.dictionary, trial_seed(seed, 2))
    constraint = _constraint_for(cfg, inst.phi.entries, x, seed)
    res = _solve_for(cfg, inst.phi, inst.dictionary, constraint)
    rep = check_theorem1(
        inst.phi, inst.dictionary, cfg.k, x, res.x_hat,
        delta2k=inst.delta2k, rho=inst.rho,
    )
    row = _verify_row(index, seed, inst, rep.lhs, rep.rhs, rep.slack, rep.hypothesis_ok)
    row["c0"] = rep.constants_used.c0
    row["c1"] = rep.constants_used.c1
    row["converged"] = res.converged
    return row


def _mean(values: list[float]) -> float:
    """Mean by a plain left fold. Builtin sum compensates float sums from
    Python 3.12 on, so it would move the CSV's last bits across versions."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


# Each summarizer maps (config, rows) to the summary keys that follow
# "trials"; their order is part of the CSV bytes.


def _spread_summary(key: str):
    def summarize(cfg: ExperimentConfig, rows: list[dict]) -> dict:
        values = [r[key] for r in rows]
        return {
            f"{key}_mean": _mean(values),
            f"{key}_min": min(values),
            f"{key}_max": max(values),
        }
    return summarize


def _unconverged(rows: list[dict]) -> int:
    return sum(1 for r in rows if not r["converged"])


def _solve_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    succ = [r["success"] for r in rows]
    return {
        "success_rate": sum(succ) / len(succ),
        "err_max": max(r["err_l2"] for r in rows),
        "unconverged": _unconverged(rows),
    }


def _phase_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    summary = _solve_summary(cfg, rows)
    for m in _m_cells(cfg):
        cell = [r["success"] for r in rows if r["m"] == m]
        if cell:
            summary[f"success_rate_m_{m}"] = sum(cell) / len(cell)
    return summary


def _p1p2_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    dists = [r["distance"] for r in rows]
    return {
        "distance_mean": _mean(dists),
        "distance_max": max(dists),
        "unconverged": _unconverged(rows),
    }


def _verify_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    slacks = [r["slack"] for r in rows]
    return {
        "min_slack": min(slacks),
        "mean_slack": _mean(slacks),
        "violations": sum(1 for r in rows if _violates(r)),
        "hypothesis_rate": sum(1 for r in rows if r["hypothesis_ok"]) / len(rows),
    }


def _t1_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    return {**_verify_summary(cfg, rows), "unconverged": _unconverged(rows)}


@dataclass(frozen=True)
class _Experiment:
    """Everything the campaign layer knows about one experiment.

    trial(cfg, ctx, index, seed) runs one trial and returns its row; ctx
    is the verify instance pool when `pooled`, else the loaded operator
    files. block(cfg, ctx, start, seeds), where given, runs the trials
    start, start + 1, ... at once (one per seed, up to _BLOCK of them) and
    returns the rows `trial` would. Each row carries its trial's seed; a
    verify-c2 trial draws from its stream block, not from that seed. The
    rows of the experiments that solve carry `converged`, which the
    summary counts and the CLI's exit 4 reads.
    draws_signal: samples a k-analysis-sparse signal (needs k < p and,
    for a redundant operator, k >= p - n + 1). needs_pairs: uses disjoint
    size-k supports (needs 2k <= p). hypotheses: checks, in order, that
    every pooled instance must pass before any trial runs.
    """

    trial: Callable[[ExperimentConfig, object, int, int], dict]
    summarize: Callable[[ExperimentConfig, list[dict]], dict]
    block: Callable[[ExperimentConfig, object, int, list[int]], list[dict]] | None = None
    pooled: bool = False
    draws_signal: bool = False
    needs_pairs: bool = False
    hypotheses: tuple[Callable[[ExperimentConfig, int, _VerifyInstance], None], ...] = ()


_TABLE = {
    "grip": _Experiment(_grip_trial, _spread_summary("delta")),
    "rho": _Experiment(_rho_trial, _spread_summary("rho"), needs_pairs=True),
    "solve": _Experiment(_solve_trial, _solve_summary, draws_signal=True),
    "verify-c1": _Experiment(_verify_c1_trial, _verify_summary, pooled=True, needs_pairs=True),
    "verify-c2": _Experiment(
        _verify_c2_trial, _verify_summary, block=_verify_c2_block, pooled=True,
        needs_pairs=True, hypotheses=(_delta_below_one,),
    ),
    "verify-t1": _Experiment(
        _verify_t1_trial, _t1_summary, pooled=True, needs_pairs=True,
        hypotheses=(_delta_below_one, _admissible),
    ),
    "phase": _Experiment(_phase_trial, _phase_summary, draws_signal=True),
    "p1p2": _Experiment(_p1p2_trial, _p1p2_summary, draws_signal=True),
}

EXPERIMENTS = tuple(_TABLE)


def _summarize(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    summary: dict = {"trials": len(rows)}
    if rows:
        summary.update(_TABLE[cfg.experiment].summarize(cfg, rows))
    return summary


def run(config: ExperimentConfig, workers: int = 1) -> CampaignResult:
    """Execute a campaign and aggregate its rows.

    The experiment's table entry supplies the trial function; verify-*
    experiments first build and gate their instance pool. Trials run in
    consecutive blocks: _BLOCK trials per call of an experiment that
    evaluates blocks, else one. A block that raises is run again one trial
    at a time. With workers > 1 blocks run in a thread pool; rows are
    ordered by trial index regardless of completion order, and are the
    same for any worker count and block size. A failing trial raises
    CampaignTrialError carrying the completed prefix.

    A verify-c2 trial i draws from stream block b = i // _STREAM (256
    trials): default_rng(trial_seed(seed, _STREAM_TAG + b)) draws
    standard_normal((256, n)), then random((256, p)). Row i % 256 of the
    normals, scaled to unit norm, is the trial's direction h; the first k
    entries of a stable argsort of its uniform row are its head. The row's
    `seed` column, trial_seed(seed, i), names the trial. Any campaign with
    the same config and seed and more than i trials has the same row i,
    and `_verify_c2_trial` replays it alone.
    """
    t0 = time.perf_counter()
    entry = _TABLE[config.experiment]
    ops = _load_operators(config)
    ctx = _verify_pool(config, ops) if entry.pooled else ops
    total = config.trials * len(_m_cells(config))
    seeds = _trial_seeds(config.seed, total)
    step = 1 if entry.block is None else _BLOCK

    rows: list[dict] = []

    def guarded(start: int) -> list[dict]:
        stop = min(start + step, total)
        if entry.block is not None:
            try:
                return entry.block(config, ctx, start, seeds[start:stop])
            except Exception:
                pass  # run again trial by trial below, to name the one that fails
        done: list[dict] = []
        for i in range(start, stop):
            try:
                done.append(entry.trial(config, ctx, i, seeds[i]))
            except Exception as err:
                raise _TrialFailure(i, seeds[i], err, done) from err
        return done

    def result() -> CampaignResult:
        return CampaignResult(
            config=config,
            rows=tuple(rows),
            summary=_summarize(config, rows),
            wall_time=time.perf_counter() - t0,
        )

    try:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool_exec:
                for done in pool_exec.map(guarded, range(0, total, step)):
                    rows.extend(done)
        else:
            for start in range(0, total, step):
                rows.extend(guarded(start))
    except _TrialFailure as fail:
        rows.extend(fail.done)
        raise CampaignTrialError(
            f"trial {fail.index} (seed {fail.seed}) failed: {fail.cause}", result()
        ) from fail.cause

    return result()


class _TrialFailure(Exception):
    def __init__(self, index: int, seed: int, cause: Exception, done: list[dict]):
        super().__init__(str(cause))
        self.index = index
        self.seed = seed
        self.cause = cause
        self.done = done  # rows of the failing block's earlier trials


# ---------------------------------------------------------------------------
# persistence


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


_CHUNK = 1024             # rows formatted, then written, at a time
_BOOL_TEXT = ("false", "true")
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _chunks(rows: tuple[dict, ...]):
    for start in range(0, len(rows), _CHUNK):
        yield rows[start : start + _CHUNK]


def _typed_columns(chunk: tuple[dict, ...], cols: tuple) -> list[tuple[type, list]] | None:
    """The chunk's columns, each read by key and paired with the one type
    of its values, or None when the chunk must be written cell by cell:
    no columns, or a column that is not all bool, all int, all float or
    all str (exact types). A row that lacks a key raises KeyError, as
    `row[key]` does."""
    if not cols:
        return None
    columns = []
    for c in cols:
        col = list(map(itemgetter(c), chunk))
        kinds = set(map(type, col))
        kind = kinds.pop()
        if kinds or kind not in (bool, int, float, str):
            return None
        columns.append((kind, col))
    return columns


def _float_text(fmt: Callable[[float], str], col: list[float]) -> list[str]:
    """fmt of each value. When most values repeat, each distinct value is
    formatted once; a memo over mostly distinct values costs more than it
    saves. 0.0 and -0.0 are equal dict keys with different text, so a
    column holding a zero is formatted value by value."""
    memo = dict.fromkeys(col)
    if 0.0 in memo or 2 * len(memo) > len(col):
        return list(map(fmt, col))
    return list(map({v: fmt(v) for v in memo}.__getitem__, col))


def _csv_column(kind: type, col: list) -> list[str]:
    """_fmt_cell of each value of a column of one type."""
    if kind is bool:
        return list(map(_BOOL_TEXT.__getitem__, col))
    if kind is float:
        return _float_text("{:.17g}".format, col)
    return col if kind is str else list(map(int.__repr__, col))


def _json_column(kind: type, col: list) -> list[str]:
    """json.dumps of each value of a column of one type."""
    if kind is bool:
        return list(map(_BOOL_TEXT.__getitem__, col))
    if kind is float:
        text = _float_text(float.__repr__, col)
        if not all(map(math.isfinite, col)):
            text = [_JSON_NONFINITE.get(t, t) for t in text]
        return text
    return list(map(json.dumps, col)) if kind is str else list(map(int.__repr__, col))


def _csv_parts(result: CampaignResult):
    """The text of results.csv in pieces: the header, each chunk's lines,
    the summary block."""
    cols = tuple(result.rows[0]) if result.rows else ()
    if result.rows:
        yield ",".join(cols) + "\n"
    for chunk in _chunks(result.rows):
        columns = _typed_columns(chunk, cols)
        if columns is None:
            lines = [",".join(_fmt_cell(row[c]) for c in cols) for row in chunk]
        else:
            lines = map(",".join, zip(*(_csv_column(kind, col) for kind, col in columns)))
        yield "\n".join(lines) + "\n"
    yield "".join(["# summary:\n", *(f"# {key}={_fmt_cell(val)}\n" for key, val in result.summary.items())])


def emit_csv(result: CampaignResult, path) -> None:
    """Rows as CSV under the first row's keys, plus a trailing
    `# summary:` comment block; floats at 17 significant digits;
    byte-deterministic for fixed (config, seed).

    Rows are formatted a column at a time, _CHUNK rows at a time, and each
    chunk is written once it is formatted. Columns are read by key, so a
    row's own key order does not matter. A chunk that `_typed_columns`
    refuses is formatted cell by cell by `_fmt_cell`, with the same bytes.
    Text that is not ASCII raises UnicodeEncodeError only after the rest
    is formatted, so a formatting error anywhere is raised first, as when
    the file was built whole before it was written."""
    parts = _csv_parts(result)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for text in parts:
            try:
                fh.write(text)
            except UnicodeEncodeError:
                deque(parts, maxlen=0)
                raise


def emit_jsonl(result: CampaignResult, path) -> None:
    """One row per line as `json.dumps(row)` writes it: floats by `repr`
    (the shortest text that round-trips), non-finite ones as NaN, Infinity
    and -Infinity.

    Rows are formatted a column at a time, _CHUNK rows at a time, each
    line filling one template whose keys are JSON-encoded once, and each
    chunk is written once it is formatted. `json.dumps` writes a chunk row
    by row instead when a row's keys are not the first row's in the same
    order, when a key is not a str, or when `_typed_columns` refuses it."""
    cols = tuple(result.rows[0]) if result.rows else ()
    template = None
    if all(type(c) is str for c in cols):
        template = "{" + ", ".join(json.dumps(c).replace("%", "%%") + ": %s" for c in cols) + "}"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for chunk in _chunks(result.rows):
            keyed = template is not None and not any(map(cols.__ne__, map(tuple, chunk)))
            columns = _typed_columns(chunk, cols) if keyed else None
            if columns is None:
                lines = map(json.dumps, chunk)
            else:
                lines = map(template.__mod__, zip(*(_json_column(kind, col) for kind, col in columns)))
            fh.write("\n".join(lines) + "\n")


def write_outputs(result: CampaignResult, out_dir) -> dict:
    """results.csv + results.jsonl + config_echo.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out / "results.csv",
        "jsonl": out / "results.jsonl",
        "config": out / "config_echo.json",
    }
    emit_csv(result, paths["csv"])
    emit_jsonl(result, paths["jsonl"])
    with open(paths["config"], "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(result.config.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return paths
