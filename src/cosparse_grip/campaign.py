"""Seeded experiment campaigns: config parsing, dispatch, persistence.

A campaign is a JSON config naming one experiment plus its dimensions,
operator kinds, constraint, trial count and seed. Per-trial seeds are the
splitmix64 finalizer applied to (campaign seed, trial index), so trials
are order-independent and the whole run is reproducible to the byte from
(config, seed) alone. verify-c1 and verify-c2 draw their trials from
stream blocks of _STREAM trials instead (see `run`), and each call checks
one block through one stacked kernel per pool instance; their rows still
carry the per-trial seed, as the trial's identifier.

`write_outputs` is the one writer of the artifacts: results.csv (a
trailing `# summary:` comment block) and results.jsonl (one row object
per line), floats in both as `repr` writes them, and config_echo.json
(the parsed config with defaults materialized). It reads and types the
rows' columns once per chunk of _CHUNK rows and formats both row files
from them. Every experiment's rows share one key order, and each column
holds one type among bool, int, float and ASCII str; a result that
breaks this raises ValueError naming the key. wall_time is recorded on
the result but never written, so re-runs stay byte-identical. Each file
is replaced, not rewritten in place: whatever is at its name is removed
and the file created anew, so a symlink or hard link there is replaced,
not written through, and the output directory must be writable.

The config document is declared once: the fields of `ExperimentConfig`,
with `_NESTED` grouping some under the `dims`, `constraint` and `budget`
objects. The accepted and required keys, `from_json` and `to_json_dict`
derive from it; a key is required exactly when its field has no default.

What each experiment does lives in one private table, `_TABLE`: its
trial function, its summary keys, whether its trials share a verify
instance pool, the kernel and widths of its stream draws, and which
cosparsity rules its configs must meet. Every
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
from dataclasses import MISSING, dataclass, fields
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
    SENSING_KINDS,
    Dictionary,
    _SQUARE_KINDS,
    _new_text_file,
    _random_subsets,
    _sensing_draw,
    load_dictionary_csv,
    load_sensing_csv,
    make_dictionary,
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
from .verify import _corollary1_stack, _corollary2_stack, _dots, _gemvs, check_theorem1

__all__ = [
    "EXPERIMENTS",
    "SUCCESS_TOL",
    "ConfigError",
    "CampaignTrialError",
    "ExperimentConfig",
    "CampaignResult",
    "trial_seed",
    "run",
    "write_outputs",
]

SUCCESS_TOL = 1e-5        # ||x_hat - x||_2 below this counts as exact recovery
_CONFIG_KINDS = tuple(k for k in DICTIONARY_KINDS if k != "user-supplied")
_MATRIX_KINDS = tuple(k for k in SENSING_KINDS if k != "user-supplied")
_RHO_MODES = ("exact", "printed")

_DECAY = 0.5              # ratio of verify-t1's compressible signal profile

_STREAM = 256             # verify-c1/c2 trials per stream block: part of the draws' definition

_MASK64 = (1 << 64) - 1
_INSTANCE_TAG = 1 << 40   # keeps instance seed stream clear of trial indices
_STREAM_TAG = 2 << 40     # keeps stream-block seeds clear of both


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the violation."""


class CampaignTrialError(RuntimeError):
    """A trial, or a block of trials, failed. Carries the rows before it so
    callers can flush partial results before aborting."""

    def __init__(self, message: str, partial: "CampaignResult"):
        super().__init__(message)
        self.partial = partial


def trial_seed(campaign_seed: int, index: int) -> int:
    """splitmix64 finalizer on campaign_seed advanced by index steps.

    Decorrelates per-trial RNG streams while keeping them a pure function
    of (seed, index), hence order-independent.
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
# ExperimentConfig fields; each other field is a top-level key of its name.
_NESTED = {
    "dims": {"m": "m", "n": "n", "p": "p"},
    "constraint": {"kind": "constraint_kind", "epsilon": "epsilon", "lambda": "lam"},
    "budget": {name: name for name in ("max_supports", "max_pairs", "max_iters", "mc_trials")},
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
    # the budget: enumeration and iteration ceilings
    max_supports: int = DEFAULT_MAX_SUPPORTS
    max_pairs: int = DEFAULT_MAX_PAIRS
    max_iters: int = SolverOptions.max_iters
    mc_trials: int = 200  # sample count when exact enumeration is over budget
    instances: int = 1
    m_grid: tuple[int, ...] | None = None
    rho_mode: str = "exact"
    dictionary_path: str | None = None
    matrix_path: str | None = None

    def __post_init__(self):
        _check_positive_ints(self, tuple(_NESTED["budget"].values()), "budget.")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        entry = _TABLE[self.experiment]
        _check_positive_ints(self, ("m", "n", "p", "k", "trials", "instances"))
        if not _is_int(self.seed) or not 0 <= self.seed <= _MASK64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
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
        if self.experiment == "phase" and self.matrix_path is not None:
            raise ConfigError("phase sweeps m itself; matrix_path is not allowed")
        # an operator file makes its kind "user-supplied"; without one the kind is drawn
        for role, drawable in (("dictionary", _CONFIG_KINDS), ("matrix", _MATRIX_KINDS)):
            kind = getattr(self, f"{role}_kind")
            if getattr(self, f"{role}_path") is not None:
                if kind != "user-supplied":
                    raise ConfigError(f"{role}_path requires {role}_kind \"user-supplied\"")
            elif kind not in drawable:
                raise ConfigError(
                    f"{role}_kind must be one of {drawable} (\"user-supplied\" needs a {role}_path)"
                )
        if self.dictionary_kind in _SQUARE_KINDS and self.p != self.n:
            raise ConfigError(f"{self.dictionary_kind} dictionary requires p == n")
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
                refuse(self.p, order, getattr(self, key))
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
        """The config as a document with every default materialized. Every
        field holds a scalar or a tuple, so the fields are read as they
        are, with no deep copy."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.m_grid is not None:
            values["m_grid"] = list(self.m_grid)
        nested = {key: {k: values.pop(name) for k, name in sub.items()} for key, sub in _NESTED.items()}
        return {**values, **nested}


# The document's keys, in field order. A key is required exactly when its
# field has no default, and a nested object when one of its keys is.
_OWNER = {name: key for key, sub in _NESTED.items() for name in sub.values()}
_REQUIRED_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)
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


_Ops = tuple[Dictionary | None, np.ndarray | None]


def _load_operators(cfg: ExperimentConfig) -> _Ops:
    """Load and validate config-referenced operator files once per campaign,
    keeping Phi's entries alone; shapes must agree with the declared dims."""
    ops = []
    for name, load, dims in (("dictionary_path", load_dictionary_csv, ("p", "n")),
                             ("matrix_path", load_sensing_csv, ("m", "n"))):
        path = getattr(cfg, name)
        op = None
        if path is not None:
            try:
                op = load(path)
            except (OSError, ValueError) as err:
                raise ConfigError(f"{name} {path!r}: {err}") from err
            shape = tuple(getattr(cfg, dim) for dim in dims)
            if op.entries.shape != shape:
                raise ConfigError(
                    f"{name} has shape {op.entries.shape}, config dims say ({', '.join(dims)}) = {shape}"
                )
        ops.append(op)
    d, phi = ops
    return d, None if phi is None else phi.entries


def _make_dictionary(cfg: ExperimentConfig, seed: int, ops: _Ops) -> Dictionary:
    if ops[0] is not None:
        return ops[0]
    return make_dictionary(cfg.dictionary_kind, cfg.p, cfg.n, trial_seed(seed, 0))


def _make_operators(cfg: ExperimentConfig, seed: int, ops: _Ops, m: int | None = None) -> tuple[Dictionary, np.ndarray]:
    """The loaded files, else the trial's draws of D and m x n Phi (m
    defaults to cfg.m). Phi's entries are read-only: a pool shares them."""
    d, phi = _make_dictionary(cfg, seed, ops), ops[1]
    if phi is None:
        phi = _sensing_draw(cfg.matrix_kind, cfg.m if m is None else m, cfg.n, trial_seed(seed, 1))
        phi.setflags(write=False)
    return d, phi


def _constraint_for(cfg: ExperimentConfig, phi: np.ndarray, x: np.ndarray, seed: int) -> ConstraintSpec:
    """Build B(y) so that the ground truth x is feasible: exact data for
    equality/dantzig, half-radius perturbed data for the ball, its noise
    drawn from the trial's stream trial_seed(seed, 3)."""
    y = phi @ x
    if cfg.constraint_kind == "equality":
        return ConstraintSpec("equality", y)
    if cfg.constraint_kind == "l2-ball":
        noise = np.random.default_rng(trial_seed(seed, 3)).standard_normal(y.shape[0])
        nrm = float(np.linalg.norm(noise))
        if nrm > 0:
            y = y + noise * (0.5 * cfg.epsilon / nrm)
        return ConstraintSpec("l2-ball", y, epsilon=cfg.epsilon)
    return ConstraintSpec("dantzig", y, lam=cfg.lam)


def _solve_for(cfg: ExperimentConfig, phi: np.ndarray, dictionary: Dictionary, constraint: ConstraintSpec):
    if constraint.kind == "dantzig":
        return solve_lp_certified(phi, dictionary, constraint)
    return solve_analysis_l1(phi, dictionary, constraint, SolverOptions(max_iters=cfg.max_iters))


def _grip_trial(cfg: ExperimentConfig, ops: _Ops, index: int, seed: int) -> dict:
    d, phi = _make_operators(cfg, seed, ops)
    try:
        rep = delta_exact(phi, d, cfg.k, max_supports=cfg.max_supports)
    except BudgetExceededError:
        rep = delta_monte_carlo(phi, d, cfg.k, cfg.mc_trials, trial_seed(seed, 2))
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
    est = rho_exact(_make_dictionary(cfg, seed, ops), cfg.k, max_pairs=cfg.max_pairs)
    return {"trial": index, "seed": seed, "rho": est.rho}


def _recover(cfg: ExperimentConfig, ops: _Ops, seed: int, m: int | None = None):
    """One recovery step: the trial's operators (Phi with m rows, cfg.m
    by default), its signal x and constraint, the solve, and err_l2 =
    ||x_hat - x||."""
    d, phi = _make_operators(cfg, seed, ops, m)
    x = sample_cosparse_signal(d, cfg.k, trial_seed(seed, 2))
    res = _solve_for(cfg, phi, d, _constraint_for(cfg, phi, x, seed))
    return res, float(np.linalg.norm(res.x_hat - x))


def _solve_trial(cfg: ExperimentConfig, ops: _Ops, index: int, seed: int) -> dict:
    res, err = _recover(cfg, ops, seed)
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
    res, err = _recover(cfg, ops, seed, m)
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
    constraint = _constraint_for(cfg, phi, x, seed)
    opts = SolverOptions(max_iters=cfg.max_iters)
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


@dataclass(frozen=True, eq=False)
class _VerifyInstance:
    dictionary: Dictionary
    phi: np.ndarray
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
        delta = delta_exact(phi, d, 2 * cfg.k, max_supports=cfg.max_supports).delta
        if cfg.rho_mode == "printed":
            rho = 0.0
        else:
            rho = rho_exact(d, cfg.k, max_pairs=cfg.max_pairs).rho
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


def _stream_block(cfg: ExperimentConfig, b: int, width: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw draws of stream block b, the trials b * _STREAM to (b + 1) *
    _STREAM - 1, one row each: a generator keyed by (campaign seed, b)
    draws the (_STREAM, width) ziggurat normals, then the (_STREAM, size)
    picks by `_random_subsets`."""
    rng = np.random.default_rng(trial_seed(cfg.seed, _STREAM_TAG + b))
    v = rng.standard_normal((_STREAM, width))
    return v, _random_subsets(rng, _STREAM, cfg.p, size)


def _c1_checks(cfg: ExperimentConfig, inst: _VerifyInstance, v: np.ndarray, picks: np.ndarray) -> dict:
    """Corollary 1 on the chunks D^+ z_i and D^+ z_j, z_i holding the
    first k normals at the first k picks and z_j the rest."""
    z = np.zeros((2, len(v), cfg.p))
    np.put_along_axis(z[0], picks[:, : cfg.k], v[:, : cfg.k], axis=1)
    np.put_along_axis(z[1], picks[:, cfg.k :], v[:, cfg.k :], axis=1)
    pinv = inst.dictionary.pinv()
    h_i, h_j = _gemvs(pinv, z[0]), _gemvs(pinv, z[1])
    return _corollary1_stack(inst.phi, inst.dictionary, h_i, h_j, inst.delta2k, inst.rho)[1]


def _c2_checks(cfg: ExperimentConfig, inst: _VerifyInstance, v: np.ndarray, heads: np.ndarray) -> dict:
    """Corollary 2 on the directions v / ||v|| with their heads."""
    h = v / np.sqrt(_dots(v, v))[:, None]
    return _corollary2_stack(inst.phi, inst.dictionary, cfg.k, h, heads, inst.delta2k, inst.rho)[1]


def _verify_block(cfg: ExperimentConfig, pool, start: int, seeds: list[int]) -> list[dict]:
    """Rows of the consecutive trials start, start + 1, ... within one
    stream block (one seed each, the row's identifier), checked on their
    rows of the block's draws by one stacked kernel call per pool
    instance, whose rows have the bits of one check per trial."""
    checks, width, size = _TABLE[cfg.experiment].stream(cfg)
    drawn = _stream_block(cfg, start // _STREAM, width, size)
    offset = start % _STREAM
    v, picks = (part[offset : offset + len(seeds)] for part in drawn)
    rows = [None] * len(seeds)
    for i, inst in enumerate(pool):
        # trial start + j checks against pool[(start + j) % len(pool)]
        mine = slice((i - start) % len(pool), None, len(pool))
        positions = range(len(seeds))[mine]
        if not positions:
            continue
        cols = checks(cfg, inst, v[mine], picks[mine])
        for j, lhs, rhs, slack, ok in zip(
            positions, *(cols[key].tolist() for key in ("lhs", "rhs", "slack", "hypothesis_ok"))
        ):
            rows[j] = _verify_row(start + j, seeds[j], inst, lhs, rhs, slack, ok)
    return rows


def _verify_trial(cfg: ExperimentConfig, pool, index: int, seed: int) -> dict:
    return _verify_block(cfg, pool, index, [seed])[0]


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
    constraint = _constraint_for(cfg, inst.phi, x, seed)
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
    files. stream(cfg), where given, is the per-instance kernel of an
    experiment whose trials are rows of stream blocks (see `run`), then
    the normals and the picks per row; `run` checks one stream block per
    call, and `trial` replays one trial alone. Each row carries its
    trial's seed; a stream trial draws from its block, not that seed.
    The rows of the experiments that solve carry `converged`, which the
    summary counts and the CLI's exit 4 reads.
    draws_signal: samples a k-analysis-sparse signal (needs k < p and,
    for a redundant operator, k >= p - n + 1). needs_pairs: uses disjoint
    size-k supports (needs 2k <= p). hypotheses: checks, in order, that
    every pooled instance must pass before any trial runs.
    """

    trial: Callable[[ExperimentConfig, object, int, int], dict]
    summarize: Callable[[ExperimentConfig, list[dict]], dict]
    stream: Callable[[ExperimentConfig], tuple[Callable, int, int]] | None = None
    pooled: bool = False
    draws_signal: bool = False
    needs_pairs: bool = False
    hypotheses: tuple[Callable[[ExperimentConfig, int, _VerifyInstance], None], ...] = ()


_TABLE = {
    "grip": _Experiment(_grip_trial, _spread_summary("delta")),
    "rho": _Experiment(_rho_trial, _spread_summary("rho"), needs_pairs=True),
    "solve": _Experiment(_solve_trial, _solve_summary, draws_signal=True),
    "verify-c1": _Experiment(
        _verify_trial, _verify_summary, pooled=True, needs_pairs=True,
        stream=lambda cfg: (_c1_checks, 2 * cfg.k, 2 * cfg.k),
    ),
    "verify-c2": _Experiment(
        _verify_trial, _verify_summary, pooled=True, needs_pairs=True,
        hypotheses=(_delta_below_one,), stream=lambda cfg: (_c2_checks, cfg.n, cfg.k),
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
    """Execute a campaign on the calling thread and aggregate its rows.

    The experiment's table entry supplies the trial function; verify-*
    experiments first build and gate their instance pool. Each call
    checks one stream block of a verify-c1 or verify-c2 campaign, through
    `_verify_block`, and runs one trial of any other experiment. A stream
    block that raises is run again one trial at a time to name the first
    that fails; if each passes alone, the block's own error is the
    failure, named by its trial range, and none of its rows is kept. Rows
    are ordered by trial index. A failure raises CampaignTrialError
    carrying the rows before it. workers must be 1; any other value is
    refused before anything runs.

    A verify-c1 or verify-c2 trial i draws from stream block b =
    i // _STREAM (256 trials): default_rng(trial_seed(seed, _STREAM_TAG +
    b)) draws standard_normal((256, width)), then random((256, p)); the
    picks of row r are the first `size` entries of a stable argsort of
    its uniform row, and the trial takes row i % 256 of each.
      * verify-c2 (width n, size k): the normal row scaled to unit norm is
        the direction h, the picks are its head.
      * verify-c1 (width 2k, size 2k): the first k picks are support i,
        the last k support j; z_i holds the first k normals at their
        picks' positions, z_j the last k, in pick order, and the chunks
        are D^+ z_i and D^+ z_j.
    The row's `seed` column, trial_seed(seed, i), names the trial. Any
    campaign with the same config and seed and more than i trials has the
    same row i, and `_verify_trial` replays it alone.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    t0 = time.perf_counter()
    entry = _TABLE[config.experiment]
    ops = _load_operators(config)
    ctx = _verify_pool(config, ops) if entry.pooled else ops
    total = config.trials * len(_m_cells(config))
    seeds = _trial_seeds(config.seed, total)
    step = 1 if entry.stream is None else _STREAM
    rows: list[dict] = []

    def result() -> CampaignResult:
        return CampaignResult(config, tuple(rows), _summarize(config, rows), time.perf_counter() - t0)

    for start in range(0, total, step):
        stop = min(start + step, total)
        if entry.stream is not None:
            try:
                rows.extend(_verify_block(config, ctx, start, seeds[start:stop]))
                continue
            except Exception as err:
                block_err = err  # run again trial by trial below, to name the one that fails
        for i in range(start, stop):
            try:
                rows.append(entry.trial(config, ctx, i, seeds[i]))
            except Exception as err:
                raise CampaignTrialError(f"trial {i} (seed {seeds[i]}) failed: {err}", result()) from err
        if entry.stream is not None:  # the block failed, and each of its trials passed alone
            del rows[start:]
            message = f"trials {start} to {stop - 1} failed as a block: {block_err}"
            raise CampaignTrialError(message, result()) from block_err
    return result()


# ---------------------------------------------------------------------------
# persistence


_CHUNK = 1024             # rows typed, formatted and written at a time
_KINDS = {bool, int, float, str}
_BOOL_TEXT = ("false", "true")
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _check_key(key) -> None:
    if type(key) is not str or not key.isascii():
        raise ValueError(f"key {key!r} is not ASCII text")


def _key_error(cols: tuple, row: dict, index: int) -> ValueError:
    """The departure of row `index` from the header `cols`, naming the key."""
    missing = [c for c in cols if c not in row]
    if missing:
        return ValueError(f"row {index} lacks key {missing[0]!r}")
    extra = [k for k in row if k not in cols]
    if extra:
        return ValueError(f"row {index} has extra key {extra[0]!r}")
    moved = next(k for k, c in zip(row, cols) if k != c)
    return ValueError(f"row {index} lists key {moved!r} out of header order")


def _typed_columns(chunk: tuple[dict, ...], kinds: dict) -> list[tuple[type, list]]:
    """The chunk's columns, read by key, each with its type in kinds (the
    first row's). A column not all of that one type among bool, int,
    float and str (exact types), or holding text that is not ASCII,
    raises ValueError naming its key."""
    columns = []
    for c, kind in kinds.items():
        col = list(map(itemgetter(c), chunk))
        found = set(map(type, col))
        if found != {kind} or kind not in _KINDS:
            names = ", ".join(sorted(t.__name__ for t in found | {kind}))
            raise ValueError(f"column {c!r} holds {names}, not one of bool, int, float, str")
        if kind is str and not "".join(col).isascii():
            raise ValueError(f"column {c!r} holds text that is not ASCII")
        columns.append((kind, col))
    return columns


def _float_text(col: list[float]) -> list[str]:
    """repr of each value. When most values repeat, each distinct value is
    formatted once; a memo over mostly distinct values costs more than it
    saves. 0.0 and -0.0 are equal dict keys with different text, so a
    column holding a zero is formatted value by value."""
    memo = dict.fromkeys(col)
    if 0.0 in memo or 2 * len(memo) > len(col):
        return list(map(float.__repr__, col))
    return list(map({v: float.__repr__(v) for v in memo}.__getitem__, col))


def _column_text(kind: type, col: list) -> tuple[list[str], list[str]]:
    """The CSV text and the JSON text of each value of a column of one type."""
    if kind is float:
        text = _float_text(col)
        if all(map(math.isfinite, col)):
            return text, text
        return text, [_JSON_NONFINITE.get(t, t) for t in text]
    if kind is str:
        return col, list(map(json.dumps, col))
    text = list(map(_BOOL_TEXT.__getitem__ if kind is bool else int.__repr__, col))
    return text, text


def _summary_text(key, val) -> str:
    _check_key(key)
    if type(val) is int:
        return int.__repr__(val)
    if type(val) is float:
        return float.__repr__(val)
    raise ValueError(f"summary {key!r} is {type(val).__name__}, not int or float")


def write_outputs(result: CampaignResult, out_dir) -> dict:
    """results.csv + results.jsonl + config_echo.json under out_dir.

    The row contract: every row lists the first row's keys, ASCII text,
    in the same order; each column holds one exact type among bool, int,
    float and ASCII str; each summary value is an int or a float. A result
    that breaks it raises ValueError naming the key. results.csv is a
    header, one line per row, and a `# summary:` comment block;
    results.jsonl is one object per row, keys in header order, as
    `json.dumps` writes it. A float has one text, its repr, in every
    file; JSON alone spells the non-finite ones as NaN and Infinity. Rows
    are taken _CHUNK at a time: a chunk's columns are read and typed
    once, formatted for both files and written, so a refused chunk leaves
    the earlier ones written.

    Each file is replaced, not rewritten in place: whatever is at its
    name is removed and the file created anew, so a symlink or hard link
    there is replaced, not written through, and out_dir must be writable.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out / "results.csv",
        "jsonl": out / "results.jsonl",
        "config": out / "config_echo.json",
    }
    rows = result.rows
    kinds = {c: type(v) for c, v in rows[0].items()} if rows else {}
    cols = tuple(kinds)
    for c in cols:
        _check_key(c)
    if rows and not cols:
        raise ValueError("rows have no keys")
    summary = "".join(f"# {key}={_summary_text(key, val)}\n" for key, val in result.summary.items())
    template = "{" + ", ".join(json.dumps(c).replace("%", "%%") + ": %s" for c in cols) + "}"
    with (
        _new_text_file(paths["csv"]) as csv_fh,
        _new_text_file(paths["jsonl"]) as jsonl_fh,
    ):
        if rows:
            csv_fh.write(",".join(cols) + "\n")
        for start in range(0, len(rows), _CHUNK):
            chunk = rows[start : start + _CHUNK]
            if any(map(cols.__ne__, map(tuple, chunk))):
                j = next(j for j, row in enumerate(chunk) if tuple(row) != cols)
                raise _key_error(cols, chunk[j], start + j)
            csv_cols, jsonl_cols = zip(*(_column_text(*c) for c in _typed_columns(chunk, kinds)))
            csv_fh.write("\n".join(map(",".join, zip(*csv_cols))) + "\n")
            jsonl_fh.write("\n".join(map(template.__mod__, zip(*jsonl_cols))) + "\n")
        csv_fh.write("# summary:\n" + summary)
    with _new_text_file(paths["config"]) as fh:
        fh.write(json.dumps(result.config.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return paths
