"""Restricted-isometry diagnostics for analysis-sparse models.

For a sensing matrix Phi and analysis operator D, the per-sparsity constant
delta_k measures how far Phi is from acting isometrically on signals whose
analysis image concentrates on k coordinates. Each size-k support Lambda
contributes the larger of two one-sided extremes over the chunk subspace
W_Lambda = { D^+ z : supp(z) in Lambda }:

  * upper: max ||Phi x||^2 / ||D x||^2 over x in W_Lambda, minus 1. With
    A = Phi D^+ and Q rho_exact's orthonormal basis of P[:, Lambda],
    P = D D^+, x = D^+ Q c has ||D x|| = ||c|| and ||Phi x|| = ||A Q c||:
    a Rayleigh quotient, the largest eigenvalue of Q^T A^T A Q;
  * lower: 1 minus min ||Phi D^+ z||^2 / ||z||^2 over supp(z) in Lambda
    (smallest eigenvalue of a k x k Gram matrix).

delta_k is the max over supports. Both sides collapse to the classical
eigenvalue extremes of Phi_Lambda^T Phi_Lambda when D is orthogonal (then
W_Lambda is the span of k columns of D^T and D^+ = D^T), so for D = I this
is exactly the textbook RIP constant. The split matters for redundant D:
recovery bounds consume the upper side through image norms ||Dx||_2 and the
lower side through coordinate-mask norms, and a single normalization cannot
serve both.

delta_k is monotone in k (supports nest) and delta < 1 is a hypothesis of
every bound downstream, never a guarantee of this module.

Every scan, exact or sampled, computes all lower sides and sends its
upper sides through one best-first queue, after the branch-and-bound over
supports of Tillmann & Pfetsch (IEEE T-IT 2014) and Gally & Pfetsch
(2016). The upper side is monotone: for Lambda in U, span P[:, Lambda] lies
in span P[:, U], so by Courant-Fischer one Rayleigh maximum on a
(k+2)-set U bounds all C(k+2, k) of its subsets. Once the full family
spans more than one chunk, a cached greedy cover of the colex k-sets by
(k+2)-sets gives each support a bound, and supports are evaluated in
descending order of bound until no bound can reach the largest upper side
found. Other scans bound no row, so every row is evaluated. Either way
delta, its witness and eigen_range keep the bits of a per-support scan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .model import Dictionary, SupportSet, _random_subsets, _to_json, sensing_entries

__all__ = [
    "DEFAULT_MAX_SUPPORTS",
    "DEFAULT_MAX_PAIRS",
    "BudgetExceededError",
    "GripReport",
    "RhoEstimate",
    "BoundConstants",
    "delta_exact",
    "delta_monte_carlo",
    "rho_exact",
    "bound_constants",
]

DEFAULT_MAX_SUPPORTS = 3060   # enumeration budget: C(18, 4), i.e. p <= 18 at k <= 4
DEFAULT_MAX_PAIRS = 60000     # disjoint-pair budget for rho_exact

_TRIVIAL_TOL = 1e-10   # relative sv cutoff for chunk-subspace bases
_CHUNK = 256           # supports per stacked linalg call; rho_exact takes 4x as many pairs
_PRUNE_FLOOR = 1e-6    # min sv ratio of a superset block whose bound may prune
_PRUNE_MARGIN = 1e-9   # pruning slack, relative to trace(A^T A)


class BudgetExceededError(RuntimeError):
    """Raised when exact enumeration would exceed the stated budget."""


@dataclass(frozen=True)
class GripReport:
    """Result of a delta computation.

    method is "exact" or "monte-carlo"; trials is 0 for exact and the
    number of supports actually evaluated otherwise. worst_support attains
    delta; ties go to the first support scanned, which is the
    colexicographically smallest one for an exhaustive scan and the first
    one drawn for a sampled Monte-Carlo scan. eigen_range is
    (lower-side minimum, upper-side maximum) across evaluated supports,
    i.e. delta = max(eigen_range[1] - 1, 1 - eigen_range[0]).
    """

    k: int
    delta: float
    method: str
    trials: int
    worst_support: SupportSet
    eigen_range: tuple[float, float]

    def to_json(self) -> str:
        return _to_json(self)


@dataclass(frozen=True)
class RhoEstimate:
    """Largest principal-angle cosine between disjoint-support chunk
    subspaces, maximized over all disjoint size-k pairs."""

    k: int
    rho: float
    method: str
    witness: tuple[SupportSet, SupportSet]

    def to_json(self) -> str:
        return _to_json(self)


@dataclass(frozen=True)
class BoundConstants:
    """Closed-form constants of the recovery bounds at a given (delta2k, rho).

    alpha = sqrt(2) (delta2k + rho) / (1 - delta2k), beta = 1 / (1 - delta2k).
    admissible means alpha < 1; c0 = 4 alpha / (1 - alpha) + 2 and
    c1 = 2 beta / (1 - alpha) are +inf when not admissible. c0_printed and
    c1_printed are the rho = 0 closed forms written directly in delta2k
    (equal to c0/c1 at rho = 0, also +inf past delta2k = sqrt(2) - 1). All
    four are evaluated in extended precision before the cast to float64;
    in plain float64 the two c0 forms drift apart by a few 1e-12.
    """

    delta2k: float
    rho: float
    alpha: float
    beta: float
    admissible: bool
    c0: float
    c1: float
    c0_printed: float
    c1_printed: float

    def to_json(self) -> str:
        return _to_json(self)


def _mT(stack: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(stack, -1, -2)


def _gather(cols: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """(S, rows, k) stack of the column blocks cols[:, s] for each support s.

    Each block is C-contiguous, laid out as cols[:, list(s)] would be, so
    the stacked matmuls hand BLAS the same operands as a per-support scan
    and agree with it bit for bit."""
    return np.ascontiguousarray(cols[:, supports].transpose(1, 0, 2))


def _orth_stack(blocks: np.ndarray, tol: float = _TRIVIAL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of a stack of column blocks.

    Returns (u, rank): the basis of block s is u[s, :, :rank[s]], with
    singular values below tol times the largest dropped (rank 0 when the
    block is zero).
    """
    u, sv, _ = np.linalg.svd(blocks, full_matrices=False)
    rank = np.sum(sv > tol * sv[:, :1], axis=1)
    return u, rank


def _top_eig(basis: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """lambda_max of Q^T G Q for each orthonormal basis Q of a stack."""
    return np.linalg.eigvalsh(_mT(basis) @ (gram @ basis))[:, -1]


def _lower_sides(supports: np.ndarray, a_cols: np.ndarray) -> np.ndarray:
    """lambda_min of (A_Lambda)^T A_Lambda for each row of a (S, k)
    support array."""
    asub = _gather(a_cols, supports)
    return np.linalg.eigvalsh(_mT(asub) @ asub)[:, 0]


def _upper_sides(
    supports: np.ndarray,
    gram: np.ndarray,
    proj: np.ndarray,
    lower: np.ndarray,
) -> np.ndarray:
    """lambda_max of Q^T (A^T A) Q for an orthonormal basis Q of
    P[:, Lambda], for each row of a (S, k) support array with lower
    sides `lower`. Bases of equal rank share one stacked call, so each
    rank below the full width that occurs costs one more call.
    """
    q, rank = _orth_stack(_gather(proj, supports))
    # a degenerate support (zero projected columns) keeps upper = lower:
    # the mask side still contributes, the image side is vacuous
    upper = lower.copy()
    for r in np.unique(rank[rank > 0]):
        sel = rank == r
        upper[sel] = _top_eig(q[sel, :, :r], gram)
    return upper


def _colex_supports(p: int, k: int) -> np.ndarray:
    """All size-k supports as a (C(p, k), k) index array in colexicographic
    order (last index varies slowest). Deterministic witness ordering
    depends on this.

    Colex order is lex order reversed once every index x becomes
    p - 1 - x, so the rows come straight from `combinations`."""
    count = math.comb(p, k)
    lex = np.fromiter(
        chain.from_iterable(combinations(range(p), k)), dtype=np.intp, count=count * k
    ).reshape(count, k)
    return p - 1 - lex[::-1, ::-1]


@lru_cache(maxsize=16)
def _superset_cover(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A greedy cover of the colex k-sets of range(p) by (k+2)-sets.

    Returns (supersets, owner): row g of the (G, k+2) array `supersets`
    is sorted, and owner[i] is the row that covered colex k-set i first.
    Each step takes the first uncovered k-set T and adds the pair {e, f}
    whose superset covers the most uncovered k-sets, ties going to the
    smallest e and then the smallest f. A k-set's colex rank is
    sum_j C(c_j, j + 1) over its sorted entries c_0 < ... < c_{k-1}, so
    the ranks of all k-subsets of every candidate superset come from one
    0/1 matrix product. Both arrays are read-only; they depend on (p, k)
    alone and are built once per process.
    """
    sets = _colex_supports(p, k)
    count, h = len(sets), k + 2
    # entry c at position j of a sorted (k+2)-set sits at position j - s
    # of a k-subset that drops s smaller entries: row s*h + j of `weight`
    # holds its colex weight C(c, j + 1 - s) (0 where the entry is dropped)
    weight = np.array(
        [
            [math.comb(c, j + 1 - s) if 1 <= j + 1 - s <= k else 0 for c in range(p)]
            for s in range(3)
            for j in range(h)
        ],
        dtype=np.float64,  # ranks below 2**53 add exactly
    ).ravel()
    offset = (np.arange(3 * h) * p)[:, None]
    position = np.tile(np.arange(h), 3)
    drops = list(combinations(range(h), 2))  # dropped positions a < b
    mix = np.zeros((len(drops), 3 * h))
    for row, (a, b) in enumerate(drops):
        mix[row, :a] = 1.0
        mix[row, h + a + 1 : h + b] = 1.0
        mix[row, 2 * h + b + 1 :] = 1.0

    outside = np.ones((count, p), dtype=bool)
    np.put_along_axis(outside, sets, False, axis=1)
    rest = np.nonzero(outside)[1].reshape(count, p - k)
    e, f = np.triu_indices(p - k, 1)
    cand = np.empty((h, len(e)), dtype=np.intp)
    uncovered = np.ones(count)  # 1.0 / 0.0: float sums are faster than bool
    owner = np.empty(count, dtype=np.intp)
    supersets = []
    first = 0
    while True:
        while first < count and not uncovered[first]:
            first += 1
        if first == count:
            break
        cand[:k] = sets[first][:, None]
        cand[k] = rest[first][e]
        cand[k + 1] = rest[first][f]
        grown = np.sort(cand, axis=0)
        ranks = (mix @ weight[grown[position] + offset]).astype(np.intp)
        best = int(np.argmax(uncovered[ranks].sum(axis=0)))
        fresh = ranks[:, best][uncovered[ranks[:, best]] > 0]
        uncovered[fresh] = 0.0
        owner[fresh] = len(supersets)
        supersets.append(grown[:, best])
    cover = np.array(supersets)
    cover.flags.writeable = False
    owner.flags.writeable = False
    return cover, owner


def _superset_bounds(
    supersets: np.ndarray, gram: np.ndarray, proj: np.ndarray
) -> np.ndarray:
    """An upper-side bound for every k-subset of each row of a (G, k+2)
    array: lambda_max of Q^T (A^T A) Q on span P[:, U], which contains
    span P[:, Lambda] for every Lambda in U (Courant-Fischer).

    A row prunes only when every singular value of P[:, U] is above
    _PRUNE_FLOOR times the largest. By interlacing each subset's block
    then keeps a ratio above _PRUNE_FLOOR, far above _TRIVIAL_TOL, so the
    rank rule keeps its whole span and both sides are computed on well
    conditioned bases. Other rows bound at +inf and are always evaluated.
    """
    bounds = np.full(len(supersets), math.inf)
    for start in range(0, len(supersets), _CHUNK):
        q, rank = _orth_stack(
            _gather(proj, supersets[start : start + _CHUNK]), _PRUNE_FLOOR
        )
        full = np.flatnonzero(rank == supersets.shape[1])
        bounds[start + full] = _top_eig(q[full], gram)
    return bounds


def _pruned_uppers(
    supports: np.ndarray,
    gram: np.ndarray,
    proj: np.ndarray,
    lower: np.ndarray,
    bound: np.ndarray,
) -> np.ndarray:
    """Upper sides of the rows of a (S, k) support array, best-first by
    `bound`, an upper bound on each row's upper side (+inf: none).

    Rows are taken in descending order of bound (ties in row order). The
    +inf rows come first and are all evaluated, _CHUNK at a time. The
    rest follow in blocks that double from _CHUNK // 8 to _CHUNK rows,
    until the next bound plus _PRUNE_MARGIN times trace(A^T A) (which no
    upper side exceeds) falls below the largest upper side found so far.
    Rows not reached stay at -inf: their upper side is below that
    incumbent, so it can reach neither delta nor eigen_range's upper end.
    """
    queue = np.argsort(-bound, kind="stable")
    unbounded = int(np.count_nonzero(bound == math.inf))
    # the most a queued row's upper side can be, plus the margin;
    # nonincreasing along the queue
    reach = bound[queue] + _PRUNE_MARGIN * float(np.trace(gram))
    upper = np.full(len(supports), -math.inf)
    best = -math.inf
    done, size = 0, _CHUNK // 8
    while True:
        if done < unbounded:  # every unbounded row is reached, _CHUNK at a time
            stop = min(done + _CHUNK, unbounded)
        else:  # up to the first queued row whose reach is below the incumbent
            stop = min(int(np.searchsorted(-reach, -best, side="right")), done + size)
            size = min(2 * size, _CHUNK)
        if stop <= done:
            return upper
        block = queue[done:stop]
        upper[block] = _upper_sides(supports[block], gram, proj, lower[block])
        best = max(best, float(upper[block].max()))
        done = stop


def _report(
    supports: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    p: int,
    k: int,
    method: str,
    trials: int,
) -> GripReport:
    """delta, its first attaining support and eigen_range, from the lower
    and upper sides of every row of a (S, k) support array."""
    delta = np.maximum(upper - 1.0, 1.0 - lower)
    top = int(np.argmax(delta))  # first attaining support
    return GripReport(
        k=k,
        delta=float(delta[top]),
        method=method,
        trials=trials,
        worst_support=SupportSet(supports[top], p),
        eigen_range=(float(lower.min()), float(upper.max())),
    )


def _scan_supports(
    supports: np.ndarray | None,
    phi_e: np.ndarray,
    dictionary: Dictionary,
    k: int,
    method: str,
    trials: int,
) -> GripReport:
    """delta over the rows of a (S, k) support array, or over the whole
    colex family when supports is None.

    Every lower side is computed, _CHUNK rows per stacked call. Upper
    sides go through the best-first queue (_pruned_uppers). Over the whole
    family, once it spans more than one chunk and a (k+2)-set can be full
    rank (k + 2 <= n), each support is bounded by its covering superset;
    otherwise no row is bounded and the queue evaluates every one.
    """
    p = dictionary.p
    family = supports is None
    if family:
        supports = _colex_supports(p, k)
    pinv = dictionary.pinv()
    a_cols = phi_e @ pinv
    gram = a_cols.T @ a_cols
    proj = dictionary.entries @ pinv

    starts = range(0, len(supports), _CHUNK)
    lower = np.concatenate([_lower_sides(supports[s : s + _CHUNK], a_cols) for s in starts])
    if family and len(supports) > _CHUNK and k + 2 <= dictionary.n:
        supersets, owner = _superset_cover(p, k)
        bound = _superset_bounds(supersets, gram, proj)[owner]
    else:
        bound = np.full(len(supports), math.inf)
    upper = _pruned_uppers(supports, gram, proj, lower, bound)
    return _report(supports, lower, upper, p, k, method, trials)


def _refuse_supports(p: int, k: int, max_supports: int) -> None:
    """The budget guard of delta_exact: C(p, k) supports, in closed form."""
    count = math.comb(p, k)
    if count > max_supports:
        raise BudgetExceededError(
            f"C({p}, {k}) = {count} supports exceeds budget {max_supports}"
        )


def _refuse_pairs(p: int, k: int, max_pairs: int) -> None:
    """The budget guard of rho_exact: the C(p, k) C(p - k, k) / 2 unordered
    disjoint pairs of size-k supports, in closed form (needs 2k <= p)."""
    n_pairs = math.comb(p, k) * math.comb(p - k, k) // 2
    if n_pairs > max_pairs:
        raise BudgetExceededError(
            f"{n_pairs} disjoint pairs exceed budget {max_pairs}"
        )


def _check_delta_args(phi_e: np.ndarray, dictionary: Dictionary, k: int) -> None:
    if phi_e.shape[1] != dictionary.n:
        raise ValueError("sensing matrix and dictionary disagree on n")
    if not 1 <= k <= dictionary.p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={dictionary.p}")


def delta_exact(
    phi,
    dictionary: Dictionary,
    k: int,
    *,
    max_supports: int = DEFAULT_MAX_SUPPORTS,
) -> GripReport:
    """Exact delta_k over all C(p, k) supports.

    Every support's lower side is evaluated. Upper sides go through one
    best-first queue. Past one chunk of supports (and when k + 2 <= n) it
    evaluates them only where they can matter, and otherwise everywhere:
    each support is covered by a (k+2)-set whose Rayleigh maximum bounds
    the upper sides of all its k-subsets, and supports are taken
    best-first by that bound until the next bound, plus a margin of
    _PRUNE_MARGIN times trace(A^T A), is below the largest upper side
    found. A skipped support's upper side is strictly below that
    incumbent, so it reaches neither delta nor eigen_range[1]; its delta
    term is its lower side's, which is exact. So delta, the colex-first
    witness and eigen_range equal those of evaluating every support. A
    bound prunes only when its (k+2)-set's block of P = D D^+ has
    sigma_min / sigma_max above _PRUNE_FLOOR; by interlacing its subsets
    are then full rank under the rank rule, so rank-deficient supports
    are always evaluated.

    Raises BudgetExceededError when C(p, k) > max_supports rather than
    silently degrading to sampling; callers choose the fallback.
    """
    phi_e = sensing_entries(phi)
    _check_delta_args(phi_e, dictionary, k)
    _refuse_supports(dictionary.p, k, max_supports)
    return _scan_supports(None, phi_e, dictionary, k, "exact", 0)


def delta_monte_carlo(
    phi,
    dictionary: Dictionary,
    k: int,
    trials: int,
    seed: int | None = None,
) -> GripReport:
    """Sampled lower estimate of delta_k over `trials` uniform supports,
    drawn together by one `_random_subsets` call on default_rng(seed).

    Always <= the exact value since it scans a subset of the same support
    family. Its rows go through the upper-side queue unbounded, so every
    one is evaluated. When trials >= C(p, k) the scan switches to
    delta_exact's full-family scan, pruning included, and the estimate
    equals the exact constant.
    """
    phi_e = sensing_entries(phi)
    _check_delta_args(phi_e, dictionary, k)
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    p = dictionary.p
    count = math.comb(p, k)
    if trials >= count:
        return _scan_supports(None, phi_e, dictionary, k, "monte-carlo", count)
    supports = np.sort(_random_subsets(np.random.default_rng(seed), trials, p, k), axis=1)
    return _scan_supports(supports, phi_e, dictionary, k, "monte-carlo", int(trials))


def _disjoint_pairs(supports: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the disjoint pairs i < j among the rows of a
    (S, k) support array, i ascending and then j ascending. Overlaps come
    from a 0/1 membership product, _CHUNK rows at a time, so memory stays
    O(_CHUNK * S) however many pairs overlap."""
    member = np.zeros((len(supports), p), dtype=np.float32)
    np.put_along_axis(member, supports, 1.0, axis=1)
    firsts, seconds = [], []
    for start in range(0, len(supports), _CHUNK):
        i, j = np.nonzero(member[start : start + _CHUNK] @ member.T == 0)
        i += start
        keep = j > i
        firsts.append(i[keep])
        seconds.append(j[keep])
    return np.concatenate(firsts), np.concatenate(seconds)


def rho_exact(
    dictionary: Dictionary,
    k: int,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> RhoEstimate:
    """Exact rho_k: the worst cosine between chunk subspaces on disjoint
    size-k supports.

    For each support, the subspace is the span of the corresponding columns
    of P = D D^+ (the image of the chunk map inside range(D)); rho is the
    largest singular value of Q_i^T Q_j over all disjoint pairs, i.e. the
    cosine of the smallest principal angle. Zero for orthogonal D; always
    in [0, 1]. Requires 2k <= p so a disjoint pair exists. Ties report the
    colexicographically smallest pair: the first maximum over all pairs.
    """
    if not 1 <= k <= dictionary.p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={dictionary.p}")
    if 2 * k > dictionary.p:
        raise ValueError(f"disjoint pairs need 2k <= p, got k={k}, p={dictionary.p}")
    p = dictionary.p
    _refuse_pairs(p, k, max_pairs)

    supports = _colex_supports(p, k)
    proj = dictionary.entries @ dictionary.pinv()
    bases, rank = _orth_stack(_gather(proj, supports))
    first, second = _disjoint_pairs(supports, p)

    top = np.full(len(first), -math.inf)
    for start in range(0, len(first), 4 * _CHUNK):
        i = first[start : start + 4 * _CHUNK]
        j = second[start : start + 4 * _CHUNK]
        chunk = top[start : start + 4 * _CHUNK]
        # one stacked svd per (rank_i, rank_j), a single one unless some
        # basis is rank deficient; pairs with a trivial subspace stay out
        key = rank[i] * (k + 1) + rank[j]
        for kv in np.unique(key[(rank[i] > 0) & (rank[j] > 0)]):
            ri, rj = divmod(int(kv), k + 1)
            sel = key == kv
            cross = _mT(bases[i[sel], :, :ri]) @ bases[j[sel], :, :rj]
            chunk[sel] = np.linalg.svd(cross, compute_uv=False)[:, 0]
    t = int(np.argmax(top))  # first attaining pair
    if top[t] == -math.inf:
        raise ValueError("no admissible disjoint pair (all chunk subspaces trivial)")
    return RhoEstimate(
        k=k,
        rho=min(max(float(top[t]), 0.0), 1.0),  # clip cosine roundoff
        method="exact",
        witness=(SupportSet(supports[first[t]], p), SupportSet(supports[second[t]], p)),
    )


def bound_constants(delta2k: float, rho: float = 0.0) -> BoundConstants:
    """Recovery-bound constants at a given (delta2k, rho).

    Requires 0 <= delta2k < 1 and rho >= 0 (the bounds are hypotheses,
    not outputs). Evaluation runs in numpy longdouble: the proof-form and
    printed-form expressions for c0 agree exactly there after the cast,
    while float64 evaluation splits them by up to ~3e-12.
    """
    if not 0.0 <= delta2k < 1.0:
        raise ValueError(f"delta2k must lie in [0, 1), got {delta2k}: the constants are undefined")
    if not rho >= 0.0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    one = np.longdouble(1)
    two = np.longdouble(2)
    sqrt2 = np.sqrt(two)
    d = np.longdouble(delta2k)
    r = np.longdouble(rho)

    alpha = sqrt2 * (d + r) / (one - d)
    beta = one / (one - d)
    admissible = bool(alpha < one)

    if admissible:
        c0 = two + (two + two) * alpha / (one - alpha)
        c1 = two * beta / (one - alpha)
    else:
        c0 = np.longdouble(np.inf)
        c1 = np.longdouble(np.inf)

    denom = one - (one + sqrt2) * d
    if denom > 0:
        c0_printed = two * (one - (one - sqrt2) * d) / denom
        c1_printed = two / denom
    else:
        c0_printed = np.longdouble(np.inf)
        c1_printed = np.longdouble(np.inf)

    return BoundConstants(
        delta2k=float(delta2k),
        rho=float(rho),
        alpha=float(alpha),
        beta=float(beta),
        admissible=admissible,
        c0=float(c0),
        c1=float(c1),
        c0_printed=float(c0_printed),
        c1_printed=float(c1_printed),
    )
