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
from pathlib import Path

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
_SQUARE_KINDS = ("identity", "orthogonal", "finite-difference")  # drawn and configured with p == n only

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


def _integer(name: str, value) -> int:
    """value as an int; a bool (Python or numpy) or a non-integer is refused."""
    if type(value) is int or not isinstance(value, (bool, np.bool_)):  # plain ints skip the bool test
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _order(k, p: int) -> int:
    """k as an int, refused unless 1 <= k <= p (delta, rho, the checkers)."""
    if not 1 <= (k := _integer("k", k)) <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    return k


def _vector(name: str, value, n: int | None = None) -> np.ndarray:
    """value as a float64 array of shape (n,), or any 1-d one when n is None."""
    v = np.asarray(value, dtype=np.float64)
    if v.ndim != 1 or n is not None and len(v) != n:
        raise ValueError(f"{name} must have shape ({'n' if n is None else n},)")
    return v


@dataclass(frozen=True)
class SupportSet:
    """A sorted duplicate-free set of integer row indices into a p-row
    operator. Float and bool indices or p are refused, not truncated."""

    indices: tuple[int, ...]
    p: int

    def __post_init__(self):
        idx = [_integer("index", i) for i in self.indices]
        p = _integer("p", self.p)
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

    The campaign layer passes raw entries throughout, which also admit
    the shapes SensingMatrix rejects (m >= n, as at a phase sweep's end)."""
    if isinstance(phi, SensingMatrix):
        return phi.entries
    a = np.asarray(phi, dtype=np.float64)
    _check_matrix(a, "phi")
    return a


def _sensing_for(phi, dictionary: Dictionary) -> np.ndarray:
    """sensing_entries(phi), refused unless Phi acts on the dictionary's R^n."""
    entries = sensing_entries(phi)
    if entries.shape[1] != dictionary.n:
        raise ValueError("sensing matrix and dictionary disagree on n")
    return entries


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Analysis operator: p x n, p >= n, full column rank.

    kind is a provenance tag; structured kinds are re-validated on
    construction so a mislabeled operator cannot circulate:
      * identity         D == I_n (p == n)
      * orthogonal       p == n and D^T D == I to 1e-10 per entry
      * tight-frame      D^T D == I to 1e-10 per entry
      * finite-difference / gaussian-random / user-supplied: rank check only

    One thin SVD D = U S V^T, taken on construction, gives the rank check,
    pinv() and projector().
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
        u, sv, vt = np.linalg.svd(entries, full_matrices=False)
        if sv[-1] <= RANK_TOL * sv[0]:
            raise DictionaryRankError(
                f"rank-deficient dictionary: sigma_min/sigma_max = "
                f"{sv[-1] / sv[0]:.3e} <= {RANK_TOL:g}"
            )
        # array_equal refuses a p x n identity unless p == n; a non-square
        # finite-difference operator is taken, since only the rank is checked
        if self.kind == "identity" and not np.array_equal(entries, np.eye(n)):
            raise ValueError("kind 'identity' requires D == I")
        if self.kind == "orthogonal" and p != n:
            raise ValueError("kind 'orthogonal' requires p == n")
        if self.kind in ("orthogonal", "tight-frame"):
            if np.max(np.abs(entries.T @ entries - np.eye(n))) > 1e-10:
                raise ValueError(f"kind {self.kind!r} requires D^T D == I")
        object.__setattr__(self, "entries", entries)
        # full column rank keeps every singular value, so D^+ has numpy pinv's bits
        for name, product in (("_pinv", vt.T @ ((1 / sv)[:, None] * u.T)), ("_projector", u @ u.T)):
            product.setflags(write=False)
            object.__setattr__(self, name, product)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def pinv(self) -> np.ndarray:
        """D^+ = V S^-1 U^T, n x p, read-only: numpy pinv's expression and bits."""
        return self._pinv

    def projector(self) -> np.ndarray:
        """Orthogonal projector U U^T onto range(D), p x p, read-only:
        symmetric and idempotent to roundoff however ill-conditioned D is."""
        return self._projector

    def __reduce__(self):
        # copies and unpickled instances go through __init__ again: their
        # entries stay read-only, so their own D^+ and projector cannot go stale
        return (type(self), (self.entries, self.kind))


@dataclass(frozen=True, eq=False)
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

    The square kinds (identity, orthogonal, finite-difference) need p == n,
    checked before any draw; identity and finite-difference ignore seed.
    The finite-difference operator is the circulant-free forward difference
    with a final averaging row appended so the operator stays square and
    invertible (rows: x_{i+1} - x_i for i < n-1, then mean(x) * sqrt(n)).
    """
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    if p < n or n < 1:
        raise ValueError(f"need p >= n >= 1, got p={p}, n={n}")
    if kind in _SQUARE_KINDS and p != n:
        raise ValueError(f"{kind} dictionary requires p == n")

    if kind == "identity":
        return Dictionary(np.eye(n), "identity")

    if kind == "finite-difference":
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
    """Entries of a seeded gaussian or bernoulli draw, the campaign's one Phi
    draw. No m < n check: the config checks m; a phase sweep ends at m = n."""
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
    if not 1 <= (k := _integer("k", k)) < dictionary.p:
        raise ValueError(f"need 1 <= k < p, got k={k}, p={dictionary.p}")
    rng = np.random.default_rng(seed)
    p, n = dictionary.p, dictionary.n
    d = dictionary.entries
    for _ in range(64):
        outside = np.ones(p, dtype=bool)
        outside[rng.choice(p, size=k, replace=False)] = False
        sub = d[np.flatnonzero(outside), :]
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
    v = _vector("values", values)
    if not 0 <= (k := _integer("k", k)) <= v.size:
        raise ValueError(f"k out of range: {k}")
    order = np.argsort(-np.abs(v), kind="stable")
    return SupportSet(tuple(int(i) for i in order[:k]), v.size)


def sigma_k(x: np.ndarray, dictionary: Dictionary, k: int) -> float:
    """Best-k analysis-domain l1 tail: ||Dx||_1 minus its k largest terms.

    Zero exactly when the thresholded support of Dx fits in k entries;
    zero for every k >= p."""
    if (k := _integer("k", k)) < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    dx = dictionary.entries @ _vector("x", x, dictionary.n)
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


def _new_text_file(path):
    """A new file at path, open for writing ASCII text with line-feed
    line ends. Whatever is at path is removed first, never truncated in
    place: a symlink or hard link there is replaced, not written through,
    and the directory must be writable.

    Replacing is faster only for a file rewritten before its old data
    reached the disk, as when a loop rewrites one directory within the
    kernel's writeback delay (30 s by default on Linux). On ext4, whose
    default auto_da_alloc starts writing a truncated-and-rewritten file
    out at close, a 300-byte file then took about 95 us to rewrite in
    place and 17 us to replace: the replaced file's dirty pages are
    dropped unwritten. The new data's writeback is left to the kernel's
    flusher: deferred, not removed, and without the early flush that
    auto_da_alloc gives a rewritten file against a crash, like any new
    file. A new file, or one whose old data is already on disk, costs the
    same either way (about 17 and 80 us), and with an fsync, replacing
    costs more (170 against 130 us)."""
    Path(path).unlink(missing_ok=True)
    return open(path, "x", encoding="ascii", newline="\n")


def save_matrix_csv(path, obj: Dictionary | SensingMatrix) -> None:
    """Write a Dictionary or SensingMatrix as CSV with a header comment
    `# rows=<r> cols=<c> kind=<kind>` and 17-significant-digit entries
    (lossless float64 round trip). The file is created anew, not rewritten
    in place: a symlink or hard link at path is replaced, not written
    through, and its directory must be writable."""
    entries = obj.entries
    r, c = entries.shape
    lines = [f"# rows={r} cols={c} kind={obj.kind}"]
    for row in entries:
        lines.append(",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    with _new_text_file(path) as fh:
        fh.write(text)


def _load_matrix_csv(path) -> tuple[np.ndarray, str]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"missing header comment in {path}")
        fields = {}
        for tok in header[2:].split():
            key, eq, value = tok.partition("=")
            if not eq or key in ("rows", "cols") and not value.isdecimal():
                raise ValueError(f"bad header token {tok!r} in {path}: need rows=<int> cols=<int> kind=<kind>")
            fields[key] = value
        try:
            r, c, kind = int(fields["rows"]), int(fields["cols"]), fields["kind"]
        except KeyError as err:
            raise ValueError(f"header missing field {err} in {path}") from None
        rows = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    widths = sorted({len(row) for row in rows})  # [c] unless the file is empty or ragged
    if len(rows) != r or widths != [c]:
        held = "/".join(map(str, widths)) or "0"
        raise ValueError(f"header promises {r} x {c}, file holds {len(rows)} x {held}")
    return np.asarray(rows, dtype=np.float64), kind


def load_dictionary_csv(path) -> Dictionary:
    """The Dictionary in a save_matrix_csv file. Its header's kind selects
    Dictionary's check: a tight-frame file must hold D with D^T D = I."""
    entries, kind = _load_matrix_csv(path)
    return Dictionary(entries, kind)


def load_sensing_csv(path) -> SensingMatrix:
    """The SensingMatrix in a save_matrix_csv file, m < n. Its header's
    kind need only be one of SENSING_KINDS; it selects no check."""
    entries, kind = _load_matrix_csv(path)
    return SensingMatrix(entries, kind)
