"""Primitives for the co-sparse analysis model.

Signals live in R^n. An analysis operator D maps them to R^p with p >= n,
and sparsity is measured on the image: x is k-cosparse when Dx has at most
k nonzero entries. Everything downstream (isometry constants, recovery
bounds, solvers) is expressed against the two operator types defined here
plus a handful of support helpers.

Conventions:
  * all arrays are float64, C-order, read-only once wrapped in a type;
  * "support" always means row indices of D (equivalently coordinates of Dx);
  * tolerances are module constants, not per-call magic numbers.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

__all__ = [
    "RANK_TOL",
    "DICTIONARY_KINDS",
    "SENSING_KINDS",
    "DictionaryRankError",
    "InfeasibleCosparsityError",
    "SupportSet",
    "Dictionary",
    "SensingMatrix",
    "sensing_entries",
    "make_dictionary",
    "make_sensing_matrix",
    "sample_cosparse_signal",
    "top_k_support",
    "sigma_k",
    "save_matrix_csv",
    "load_dictionary_csv",
    "load_sensing_csv",
]

RANK_TOL = 1e-10      # relative sigma_min threshold for full column rank

DICTIONARY_KINDS = (
    "identity",
    "finite-difference",
    "gaussian-random",
    "tight-frame",
    "orthogonal",
    "user-supplied",
)
SENSING_KINDS = ("gaussian", "bernoulli", "user-supplied")

_RANDOM_DICT_RETRIES = 3  # fresh-seed redraws before giving up on rank


class DictionaryRankError(ValueError):
    """Raised when an analysis operator is not full column rank."""


class InfeasibleCosparsityError(ValueError):
    """Raised when no nonzero signal can attain the requested cosparsity."""


def _as_readonly(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


@dataclass(frozen=True)
class SupportSet:
    """A sorted duplicate-free set of integer row indices into a p-row
    operator. Float and bool indices or p are refused, not truncated."""

    indices: tuple[int, ...]
    p: int

    def __post_init__(self):
        values = (*self.indices, self.p)
        if any(isinstance(v, (bool, np.bool_)) for v in values):
            raise TypeError(f"indices and p must be integers, got {values}")
        *idx, p = (operator.index(v) for v in values)
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        if any(i < 0 or i >= p for i in idx):
            raise ValueError(f"indices out of range [0, {p}): {tuple(idx)}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate indices: {tuple(idx)}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))
        object.__setattr__(self, "p", p)

    @property
    def size(self) -> int:
        return len(self.indices)

    def disjoint_from(self, other: "SupportSet") -> bool:
        return not set(self.indices) & set(other.indices)


def _check_matrix(entries: np.ndarray, what: str) -> None:
    if entries.ndim != 2:
        raise ValueError(f"{what} must be 2-d, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"{what} has non-finite entries")


def sensing_entries(phi) -> np.ndarray:
    """Entries of a SensingMatrix, or a raw 2-d array passed through.

    The raw path exists for degenerate shapes (m >= n, e.g. the square
    endpoint of an undersampling sweep) that the SensingMatrix type
    rejects by design."""
    if isinstance(phi, SensingMatrix):
        return phi.entries
    a = np.asarray(phi, dtype=np.float64)
    _check_matrix(a, "phi")
    return a


@dataclass(frozen=True)
class Dictionary:
    """Analysis operator: p x n, p >= n, full column rank.

    kind is a provenance tag; structured kinds are re-validated on
    construction so a mislabeled operator cannot circulate:
      * identity         D == I_n (p == n)
      * orthogonal       p == n and D^T D == I to 1e-10 per entry
      * tight-frame      D^T D == I to 1e-10 per entry
      * finite-difference / gaussian-random / user-supplied: rank check only
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        entries = _as_readonly(self.entries)
        _check_matrix(entries, "dictionary")
        p, n = entries.shape
        if p < n:
            raise ValueError(f"analysis operator needs p >= n, got {p} x {n}")
        if self.kind not in DICTIONARY_KINDS:
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        sv = np.linalg.svd(entries, compute_uv=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            raise DictionaryRankError(
                f"rank-deficient dictionary: sigma_min/sigma_max = "
                f"{sv[-1] / sv[0]:.3e} <= {RANK_TOL:g}"
            )
        if self.kind == "identity":
            if p != n or not np.array_equal(entries, np.eye(n)):
                raise ValueError("kind 'identity' requires D == I")
        elif self.kind == "orthogonal":
            if p != n:
                raise ValueError("kind 'orthogonal' requires p == n")
            if np.max(np.abs(entries.T @ entries - np.eye(n))) > 1e-10:
                raise ValueError("kind 'orthogonal' requires D^T D == I")
        elif self.kind == "tight-frame":
            if np.max(np.abs(entries.T @ entries - np.eye(n))) > 1e-10:
                raise ValueError("kind 'tight-frame' requires D^T D == I")
        object.__setattr__(self, "entries", entries)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse, n x p, read-only.

        Computed on the first call and returned as the same array on every
        later one: the entries are frozen, so it is what a fresh
        np.linalg.pinv would return. Two threads may race to fill it; both
        compute the same bits, so it does not matter which one is kept."""
        cached = self.__dict__.get("_pinv")
        if cached is None:
            cached = np.linalg.pinv(self.entries)
            cached.setflags(write=False)
            object.__setattr__(self, "_pinv", cached)
        return cached

    def __reduce__(self):
        # copies and unpickled instances go through __init__ again: their
        # entries stay read-only, so their own cached pinv cannot go stale
        return (type(self), (self.entries, self.kind))


@dataclass(frozen=True)
class SensingMatrix:
    """Measurement operator: m x n with m < n (compressive regime)."""

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        entries = _as_readonly(self.entries)
        _check_matrix(entries, "sensing matrix")
        m, n = entries.shape
        if m >= n:
            raise ValueError(f"sensing matrix needs m < n, got {m} x {n}")
        if self.kind not in SENSING_KINDS:
            raise ValueError(f"unknown sensing kind {self.kind!r}")
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


# ---------------------------------------------------------------------------
# constructors


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # sign fix makes the distribution Haar rather than QR-convention-skewed
    return q * np.sign(np.diag(r))


def make_dictionary(kind: str, p: int, n: int, seed: int | None = None) -> Dictionary:
    """Construct a p x n analysis operator of the given kind.

    Random kinds redraw with fresh derived seeds up to 3 times if the rank
    check fails (it essentially never does at these dimensions), then raise
    DictionaryRankError.

    identity and finite-difference require p == n and ignore seed. The
    finite-difference operator is the circulant-free forward difference with
    a final averaging row appended so the operator stays square and
    invertible (rows: x_{i+1} - x_i for i < n-1, then mean(x) * sqrt(n)).
    """
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    if p < n or n < 1:
        raise ValueError(f"need p >= n >= 1, got p={p}, n={n}")

    if kind == "identity":
        if p != n:
            raise ValueError("identity dictionary requires p == n")
        return Dictionary(np.eye(n), "identity")

    if kind == "finite-difference":
        if p != n:
            raise ValueError("finite-difference dictionary requires p == n")
        d = np.zeros((n, n))
        for i in range(n - 1):
            d[i, i] = -1.0
            d[i, i + 1] = 1.0
        d[n - 1, :] = 1.0 / math.sqrt(n)  # averaging row restores invertibility
        return Dictionary(d, "finite-difference")

    if kind == "user-supplied":
        raise ValueError("user-supplied dictionaries are constructed directly")

    last_err: Exception | None = None
    for attempt in range(_RANDOM_DICT_RETRIES):
        rng = np.random.default_rng(None if seed is None else seed + attempt)
        if kind == "gaussian-random":
            entries = rng.standard_normal((p, n)) / math.sqrt(p)
        elif kind == "tight-frame":
            g = rng.standard_normal((p, n))
            u, _, _ = np.linalg.svd(g, full_matrices=False)
            entries = u  # left singular columns: D^T D = I by construction
        else:  # orthogonal
            if p != n:
                raise ValueError("orthogonal dictionary requires p == n")
            entries = _haar_orthogonal(n, rng)
        try:
            return Dictionary(entries, kind)
        except DictionaryRankError as err:
            last_err = err
    raise DictionaryRankError(
        f"no full-rank draw for kind={kind!r} after {_RANDOM_DICT_RETRIES} attempts"
    ) from last_err


def make_sensing_matrix(kind: str, m: int, n: int, seed: int | None = None) -> SensingMatrix:
    """Construct an m x n sensing matrix, m < n.

    gaussian: i.i.d. N(0, 1/m). bernoulli: i.i.d. +-1/sqrt(m). Both are
    normalized so E ||Phi x||^2 = ||x||^2.
    """
    if kind not in SENSING_KINDS:
        raise ValueError(f"unknown sensing kind {kind!r}")
    if kind == "user-supplied":
        raise ValueError("user-supplied sensing matrices are constructed directly")
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    return SensingMatrix(_sensing_draw(kind, m, n, seed), kind)


def _sensing_draw(kind: str, m: int, n: int, seed: int | None) -> np.ndarray:
    """Entries of a seeded gaussian or bernoulli draw. No m < n check: the
    phase sweep of the campaign layer needs its m = n endpoint."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((m, n)) / math.sqrt(m)
    return rng.choice([-1.0, 1.0], size=(m, n)) / math.sqrt(m)


def _random_subsets(rng: np.random.Generator, count: int, p: int, k: int) -> np.ndarray:
    """(count, k) stack of uniform size-k subsets of range(p), one per row,
    from one rng.random((count, p)) call: row i is the first k entries of
    a stable argsort of its p uniforms, in that order."""
    return np.argsort(rng.random((count, p)), axis=1, kind="stable")[:, :k]


def sample_cosparse_signal(
    dictionary: Dictionary, k: int, seed: int | None = None
) -> np.ndarray:
    """Draw a unit-norm signal x with |supp(Dx)| <= k.

    The set of coordinates allowed to be nonzero is sampled uniformly among
    size-k subsets; x is then a seeded Gaussian combination of an
    orthonormal basis of the null space of the remaining p - k rows,
    normalized to unit norm. Redraws the subset when that null space is
    trivial and raises InfeasibleCosparsityError once no subset works
    (e.g. a square invertible D with k = 0 would force x = 0, hence the
    precondition 1 <= k < p).
    """
    if not 1 <= k < dictionary.p:
        raise ValueError(f"need 1 <= k < p, got k={k}, p={dictionary.p}")
    rng = np.random.default_rng(seed)
    p, n = dictionary.p, dictionary.n
    d = dictionary.entries
    for _ in range(64):
        lam = np.sort(rng.choice(p, size=k, replace=False))
        rest = np.setdiff1d(np.arange(p), lam)
        sub = d[rest, :]
        # orthonormal basis of the null space via full SVD
        _, sv, vt = np.linalg.svd(sub, full_matrices=True)
        tol = RANK_TOL * (sv[0] if sv.size else 1.0)
        rank = int(np.sum(sv > tol))
        null_dim = n - rank
        if null_dim == 0:
            continue  # this subset admits no nonzero signal, redraw
        basis = vt[rank:, :].T  # n x null_dim
        for _ in range(8):
            x = basis @ rng.standard_normal(null_dim)
            nrm = np.linalg.norm(x)
            if nrm > 1e-12:
                return x / nrm
    raise InfeasibleCosparsityError(
        f"no nonzero {k}-cosparse signal found for p={p}, n={n}"
    )


def top_k_support(values: np.ndarray, k: int) -> SupportSet:
    """Indices of the k largest-magnitude entries; ties go to lower index."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if not 0 <= k <= v.size:
        raise ValueError(f"k out of range: {k}")
    order = np.argsort(-np.abs(v), kind="stable")
    return SupportSet(tuple(int(i) for i in order[:k]), v.size)


def sigma_k(x: np.ndarray, dictionary: Dictionary, k: int) -> float:
    """Best-k analysis-domain l1 tail: ||Dx||_1 minus its k largest terms.

    Zero exactly when the thresholded support of Dx fits in k entries;
    zero for every k >= p."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    dx = dictionary.entries @ np.asarray(x, dtype=np.float64)
    mags = np.sort(np.abs(dx))[::-1]
    return float(np.sum(mags[k:]))


# ---------------------------------------------------------------------------
# serialization


def _to_json(result) -> str:
    """JSON of a frozen result: its fields in declaration order, a
    SupportSet as its index list, arrays and tuples as lists, nested
    dataclasses as objects."""
    return json.dumps(_jsonable(result))


def _jsonable(v):
    if isinstance(v, SupportSet):
        return list(v.indices)
    if is_dataclass(v):
        return {f.name: _jsonable(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return [_jsonable(item) for item in v]
    return v


def save_matrix_csv(path, obj: Dictionary | SensingMatrix) -> None:
    """Write a Dictionary or SensingMatrix as CSV with a header comment
    `# rows=<r> cols=<c> kind=<kind>` and 17-significant-digit entries
    (lossless float64 round trip)."""
    entries = obj.entries
    r, c = entries.shape
    lines = [f"# rows={r} cols={c} kind={obj.kind}"]
    for row in entries:
        lines.append(",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _load_matrix_csv(path) -> tuple[np.ndarray, str]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"missing header comment in {path}")
        fields = dict(tok.split("=", 1) for tok in header[2:].split())
        try:
            r, c, kind = int(fields["rows"]), int(fields["cols"]), fields["kind"]
        except KeyError as err:
            raise ValueError(f"header missing field {err} in {path}") from None
        rows = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    entries = np.asarray(rows, dtype=np.float64)
    if entries.shape != (r, c):
        raise ValueError(
            f"header promises {r} x {c}, file holds {entries.shape[0]} x {entries.shape[1]}"
        )
    return entries, kind


def load_dictionary_csv(path) -> Dictionary:
    entries, kind = _load_matrix_csv(path)
    return Dictionary(entries, kind)


def load_sensing_csv(path) -> SensingMatrix:
    entries, kind = _load_matrix_csv(path)
    return SensingMatrix(entries, kind)
