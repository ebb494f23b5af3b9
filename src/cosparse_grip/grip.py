"""Restricted-isometry diagnostics for analysis-sparse models.

For a sensing matrix Phi and analysis operator D, the per-sparsity constant
delta_k measures how far Phi is from acting isometrically on signals whose
analysis image concentrates on k coordinates. Each size-k support Lambda
contributes the larger of two one-sided extremes over the chunk subspace
W_Lambda = { D^+ z : supp(z) in Lambda }:

  * upper: max ||Phi x||^2 / ||D x||^2 over x in W_Lambda, minus 1. With
    A = Phi D^+, P = U U^T the projector onto range(D) (D = U S V^T) and
    Q rho_exact's orthonormal basis of P[:, Lambda], x = D^+ Q c has
    ||D x|| = ||c|| and ||Phi x|| = ||A Q c||: a Rayleigh quotient, the
    largest eigenvalue of Q^T A^T A Q;
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

Both constants are maxima over a finite family of rows, supports for
delta and disjoint pairs for rho, and both scans send their rows through
one best-first queue (_best_first), after the branch-and-bound over
supports of Tillmann & Pfetsch (IEEE T-IT 2014) and Gally & Pfetsch
(2016): rows are evaluated in descending order of an upper bound on
their value until no bound can reach the largest value found, so the
maximum, its first witness and delta's eigen_range keep the bits of a
per-row scan.

delta's scans queue both sides, the lower sides negated, since the
smallest lower side is both eigen_range[0] and the largest lower delta
term. Both sides are monotone under inclusion: for Lambda in U, span
P[:, Lambda] lies in span P[:, U], so by Courant-Fischer the Rayleigh
maximum on a (k+2)-set U bounds the upper sides of all C(k+2, k) of its
subsets, and by Cauchy interlacing lambda_min(A_U^T A_U) bounds their
lower sides. Neither eigenvalue is computed: each is bounded from the
principal submatrices of A^T A and P on U by the trace bound of
Wolkowicz & Styan (Linear Algebra Appl. 1980) on a matrix power. The
upper one is taken on the fourth power of the block whitened by L^-1,
for P[U, U] = L L^T, and the lower one on the square of A_U^T A_U's
inverse; stacked Cholesky passes build both inverse factors by forward
substitution. Once the full family spans more than one chunk, a cached
greedy cover of the colex k-sets by (k+2)-sets bounds each support by
the tightest bounds of the supersets that hold it, read through one
cached grouping of the cover by support. Other scans bound no row, so
every row is evaluated. rho is exactly 1 when two disjoint chunk
subspaces have dimensions summing past n = rank(P); otherwise it bounds
each pair by ||Q_i^T Q_j||_F >= sigma_max(Q_i^T Q_j) (Bjorck & Golub,
Math. Comp. 1973), all from one Gram of the stacked bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .model import Dictionary, SupportSet, _integer, _order, _random_subsets, _sensing_for, _to_json

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

_TRIVIAL_TOL = 1e-10   # sv cutoff for chunk-subspace bases, relative to max(1, largest sv)
_CHUNK = 256           # rows (supports or pairs) per stacked linalg call
# min sv ratio of a superset block whose bounds may prune. The
# principal-submatrix bounds lose accuracy as 1 / ratio^2 (up to about
# 2 eps trace(A^T A) / ratio^2 measured), so at 1e-2 their error stays
# near 1/200 of the margin; at 1e-6 a bound fell 6.7e4 margins below a
# subset's upper side
_PRUNE_FLOOR = 1e-2
_PRUNE_MARGIN = 1e-9   # pruning slack: relative to max(1, trace(A^T A)) for delta, absolute for rho


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
    (lower-side minimum, upper-side maximum) over the whole scanned
    family, i.e. delta = max(eigen_range[1] - 1, 1 - eigen_range[0]).
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
    c1 = 2 beta / (1 - alpha) are +inf when not admissible. At rho = 0
    they are the printed closed forms, with e = 1 - (1 + sqrt(2)) delta2k,
    c0 = 2 (1 + (sqrt(2) - 1) delta2k) / e and c1 = 2 / e.
    """

    delta2k: float
    rho: float
    alpha: float
    beta: float
    admissible: bool
    c0: float
    c1: float

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


def _orth_stack(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of a stack of column blocks.

    Returns (u, rank): the basis of block s is u[s, :, :rank[s]], with
    singular values at or below _TRIVIAL_TOL times max(1, the largest)
    dropped. The blocks are columns of P = U U^T, whose norm is 1, so
    the cutoff does not shrink with a block: a zero row of D, whose
    column of P is roundoff, gets rank 0, not a basis of its noise.
    """
    u, sv, _ = np.linalg.svd(blocks, full_matrices=False)
    rank = np.sum(sv > _TRIVIAL_TOL * np.fmax(sv[:, :1], 1.0), axis=1)
    return u, rank


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
        basis = q[sel, :, :r]
        upper[sel] = np.linalg.eigvalsh(_mT(basis) @ (gram @ basis))[:, -1]
    return upper


@lru_cache(maxsize=16)
def _colex_supports(p: int, k: int) -> np.ndarray:
    """All size-k supports as a (C(p, k), k) index array in colexicographic
    order (last index varies slowest). Deterministic witness ordering
    depends on this.

    Colex order is lex order reversed once every index x becomes
    p - 1 - x, so the rows come straight from `combinations`. The array
    is read-only; it depends on (p, k) alone and is built once per
    process."""
    count = math.comb(p, k)
    lex = np.fromiter(
        chain.from_iterable(combinations(range(p), k)), dtype=np.intp, count=count * k
    ).reshape(count, k)
    sets = p - 1 - lex[::-1, ::-1]
    sets.flags.writeable = False
    return sets


@lru_cache(maxsize=16)
def _superset_cover(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A greedy cover of the colex k-sets of range(p) by (k+2)-sets.

    Returns (supersets, members): row g of the (G, k+2) array `supersets`
    is sorted, and row g of the (G, C(k+2, 2)) array `members` holds the
    colex ranks of all k-subsets of superset g, so every k-set appears in
    the row of each superset that holds it. Each step takes the first
    uncovered k-set T and adds the pair {e, f} whose superset covers the
    most uncovered k-sets, ties going to the smallest e and then the
    smallest f. A k-set's colex rank is sum_j C(c_j, j + 1) over its
    sorted entries c_0 < ... < c_{k-1}, so the ranks of all k-subsets of
    every candidate superset come from one 0/1 matrix product. Both
    arrays are read-only; they depend on (p, k) alone and are built once
    per process.
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
    supersets, members = [], []
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
        uncovered[ranks[:, best]] = 0.0
        supersets.append(grown[:, best])
        members.append(ranks[:, best].copy())  # a view would keep all of `ranks` alive
    cover, members = np.array(supersets), np.array(members)
    cover.flags.writeable = False
    members.flags.writeable = False
    return cover, members


@lru_cache(maxsize=16)
def _cover_gather(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The cover's supersets grouped by the k-sets they hold: (src, starts).

    Group r of the index array `src`, from starts[r] up to the next
    start, lists the rows of _superset_cover(p, k)'s `members` that hold
    the k-set of colex rank r, so np.minimum.reduceat(values[src],
    starts) takes each k-set's least value over the supersets that hold
    it. The cover holds every k-set, so no group is empty. Both arrays
    are read-only; they depend on (p, k) alone and are built once per
    process."""
    members = _superset_cover(p, k)[1]
    ranks = members.ravel()
    order = np.argsort(ranks, kind="stable")
    src = order // members.shape[1]
    starts = np.searchsorted(ranks[order], np.arange(math.comb(p, k)))
    src.flags.writeable = False
    starts.flags.writeable = False
    return src, starts


def _cholesky_stack(blocks: np.ndarray, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the lower Cholesky factors L, L L^T = block, of a
    (G, h, h) stack of symmetric blocks, taken one column at a time over
    the whole stack.

    Returns (white, ok): ok[g] holds when every pivot of block g is above
    floor[g], and white[g] = L^-1 of block g only then, so white[g]
    block white[g]^T = I. Column j of L gives row j of L^-1 in the same
    pass, by forward substitution from the rows above it. Past a block's
    first pivot at or below its floor the pivot is taken as 1, and so is
    the divisor of the substitution, which keeps the arithmetic finite
    and free of warnings for blocks that are not positive definite."""
    count, h, _ = blocks.shape
    rows = blocks.transpose(1, 2, 0)
    cols = np.zeros((h, h, count))  # cols[j, i] holds L[i, j] of every block
    white = np.zeros((h, h, count))  # white[i, j] holds L^-1[i, j] of every block
    ok = np.ones(count, dtype=bool)
    for j in range(h):
        rest = rows[j:, j] - (cols[:j, j:] * cols[:j, j, None]).sum(axis=0)
        ok &= rest[0] > floor
        cols[j, j:] = rest / np.sqrt(np.where(ok, rest[0], 1.0))
        # row j of L L^-1 = I: L[j, :j] L^-1[:j, :j] + L[j, j] L^-1[j, :j] = 0
        pivot = np.where(ok, cols[j, j], 1.0)
        white[j, :j] = -np.einsum("kb,kjb->jb", cols[:j, j], white[:j, :j]) / pivot
        white[j, j] = 1.0 / pivot
    return white.transpose(2, 0, 1), ok


def _top_bound(stack: np.ndarray, squarings: int) -> np.ndarray:
    """An upper bound on lambda_max of each block of a (G, h, h) stack of
    symmetric PSD blocks, from traces alone.

    With M = block^(2^squarings), by `squarings` stacked squarings of the
    block scaled by its trace, mu = tr M / h and
    s^2 = ||M||_F^2 / h - mu^2 = ||M - mu I||_F^2 / h, every eigenvalue
    of M is at most mu + s sqrt(h - 1) (Wolkowicz & Styan, "Bounds for
    eigenvalues using traces", Linear Algebra Appl. 1980), and its
    2^squarings-th root bounds lambda_max. It is exact when the block's
    other h - 1 eigenvalues are equal, so powers that shrink them
    sharpen it, and it is at most h^(1/2^(squarings+1)) lambda_max. The
    scaling puts every eigenvalue in [0, 1], so the powers stay finite
    whatever the block's scale."""
    count, h, _ = stack.shape
    scale = np.trace(stack, axis1=1, axis2=2)
    scale[scale <= 0.0] = 1.0  # a zero block bounds 0
    power = stack / scale[:, None, None]
    for _ in range(squarings):
        power = power @ power
    diagonal = power.reshape(count, h * h)[:, :: h + 1]  # a view: power is C-contiguous
    mu = diagonal.sum(axis=1) / h
    # centred first, since ||M||_F^2 / h - mu^2 cancels to sqrt(eps)
    # accuracy when the eigenvalues nearly tie
    diagonal -= mu[:, None]
    spread = np.sqrt(np.einsum("gij,gij->g", power, power) / h)
    return scale * (mu + spread * math.sqrt(h - 1)) ** (0.5**squarings)


def _principal_bounds(
    supersets: np.ndarray, gram: np.ndarray, proj: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower): bounds on both sides of every k-subset of each row
    U of a (G, k+2) array, read from the principal submatrices G[U, U]
    and P[U, U] of G = A^T A and the projector P = U U^T alone, with no
    eigendecomposition.

    Upper: span P[:, U] contains span P[:, Lambda] for every Lambda in
    U, so its Rayleigh maximum bounds theirs (Courant-Fischer). P is the
    orthogonal projector onto range(D), idempotent to roundoff, and
    A P = A, so P G P = G and that maximum is the top generalized
    eigenvalue of (G[U, U], P[U, U]): lambda_max(W) for the PSD block
    W = L^-1 G[U, U] L^-T and the Cholesky factor P[U, U] = L L^T. One
    stacked pass over all rows (_cholesky_stack) gives L^-1 by forward
    substitution, with no LAPACK inverse, and _top_bound bounds
    lambda_max(W) by the trace bound on W^4. Lower: lambda_min(G[U, U])
    is at most that of every principal submatrix G[Lambda, Lambda]
    (Cauchy interlacing), and it is 1 / lambda_max(G[U, U]^-1), bounded
    below by 1 / the trace bound on G[U, U]^-2, where a second stacked
    pass factors G[U, U] = L_G L_G^T and G[U, U]^-1 = L_G^-T L_G^-1. A
    block with a pivot at or below 0 is singular to roundoff; its lower
    bound is 0, as G is PSD. Each bound lies beyond the eigenvalue it
    stands for, upper above and lower below, so the queue may evaluate
    a side that the eigenvalue would let it skip, and skips none that
    can reach its incumbent. The powers shrink every eigenvalue but the
    top one, which keeps the bounds close to the eigenvalues.

    A row bounds only when every pivot of L is positive and
    1 / ||L^-1||_F^2 > _PRUNE_FLOOR^2 times max(trace P[U, U],
    _TRIVIAL_TOL). Since 1 / ||L^-1||_F^2 <= lambda_min(P[U, U]) and
    trace >= lambda_max, the singular values of P[:, U], the square
    roots of those eigenvalues, then have a ratio above _PRUNE_FLOOR. By
    interlacing each subset's block keeps singular values above 1e-7,
    far above the rank rule's cutoff (_TRIVIAL_TOL, as P has norm 1),
    the rank rule keeps its whole span, and no rank-deficient support is
    bounded. Other rows bound nothing: upper +inf and lower -inf.
    """
    block = (supersets[:, :, None], supersets[:, None, :])
    g, pu = gram[block], proj[block]
    # a pivot at or below the floor fails the rule: 1 / ||L^-1||_F^2 is
    # at most the least pivot
    floor = _PRUNE_FLOOR**2 * np.fmax(np.trace(pu, axis1=1, axis2=2), _TRIVIAL_TOL)
    white, ok = _cholesky_stack(pu, floor)
    white = white[ok]  # white P[U, U] white^T = I
    keep = 1.0 / (white * white).sum(axis=(1, 2)) > floor[ok]
    ok[ok] = keep
    white = white[keep]
    upper = np.full(len(supersets), math.inf)
    lower = np.full(len(supersets), -math.inf)
    upper[ok] = _top_bound(white @ g[ok] @ _mT(white), 2)
    white_g, pd = _cholesky_stack(g[ok], np.zeros(len(white)))
    lower[ok] = np.where(pd, 1.0 / _top_bound(_mT(white_g) @ white_g, 1), 0.0)
    return upper, lower


def _best_first(bound: np.ndarray, evaluate, margin: float) -> np.ndarray:
    """Values of the rows of a family, best-first by `bound`, an upper
    bound on each row's value (+inf: none); rows not reached stay -inf.

    evaluate(rows) returns the values of an index array of rows. Rows are
    taken in descending order of bound, ties in any order. The +inf rows
    come first and are all evaluated, _CHUNK at a time. The rest follow
    in blocks that double from _CHUNK // 8 to _CHUNK rows, until the next
    bound plus `margin` falls below the largest value found so far. A row
    not reached has its value strictly below that incumbent, so it can
    neither attain nor tie the maximum, and the first argmax over all
    rows is that of evaluating every row.
    """
    queue = np.argsort(-bound)
    unbounded = int(np.count_nonzero(bound == math.inf))
    # the most a queued row's value can be, plus the margin; nonincreasing
    # along the queue
    reach = bound[queue] + margin
    value = np.full(len(bound), -math.inf)
    best = -math.inf
    done, size = 0, _CHUNK // 8
    while True:
        if done < unbounded:  # every unbounded row is reached, _CHUNK at a time
            stop = min(done + _CHUNK, unbounded)
        else:  # up to the first queued row whose reach is below the incumbent
            stop = min(int(np.searchsorted(-reach, -best, side="right")), done + size)
            size = min(2 * size, _CHUNK)
        if stop <= done:
            return value
        block = queue[done:stop]
        value[block] = evaluate(block)
        best = max(best, float(value[block].max()))
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

    Each side goes through the best-first queue (_best_first) once, with
    a margin of _PRUNE_MARGIN times max(1, trace(A^T A)): the negated
    lower sides first, then the upper sides. No side exceeds the trace,
    so the margin covers the bounds' roundoff; and it is at least
    _PRUNE_MARGIN, so a skipped side's delta term, 1 - lower or
    upper - 1, is beyond its incumbent's by more than their rounding,
    and terms that tie only once rounded are all evaluated. Over the whole
    family, once it spans more than one chunk and a (k+2)-set can be
    full rank (k + 2 <= n), each support takes the tightest bound of
    each kind among the cover's supersets that hold it
    (_principal_bounds); otherwise no row is bounded and each queue
    evaluates every row, _CHUNK at a time. A side not reached stays at
    +inf (lower) or -inf (upper), so its delta term is -inf: a row whose
    delta term attains delta has the smallest lower side or the largest
    upper side, and that side is reached.
    """
    p = dictionary.p
    family = supports is None
    if family:
        supports = _colex_supports(p, k)
    a_cols = phi_e @ dictionary.pinv()
    gram = a_cols.T @ a_cols
    proj = dictionary.projector()

    # the queue takes the largest values first, so lower sides go in
    # negated; unbounded rows keep +inf in both bound arrays
    if family and len(supports) > _CHUNK and k + 2 <= dictionary.n:
        upper, lower = _principal_bounds(_superset_cover(p, k)[0], gram, proj)
        src, starts = _cover_gather(p, k)
        upper_bound = np.minimum.reduceat(upper[src], starts)
        lower_bound = np.minimum.reduceat(-lower[src], starts)
    else:
        upper_bound = np.full(len(supports), math.inf)
        lower_bound = np.full(len(supports), math.inf)
    margin = _PRUNE_MARGIN * max(1.0, float(np.trace(gram)))
    # lower sides first: a rank-0 support is unbounded in both queues, so
    # its lower side is evaluated before _upper_sides copies it
    lower = -_best_first(
        lower_bound, lambda rows: -_lower_sides(supports[rows], a_cols), margin
    )
    upper = _best_first(
        upper_bound,
        lambda rows: _upper_sides(supports[rows], gram, proj, lower[rows]),
        margin,
    )
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


def delta_exact(
    phi,
    dictionary: Dictionary,
    k: int,
    *,
    max_supports: int = DEFAULT_MAX_SUPPORTS,
) -> GripReport:
    """Exact delta_k over all C(p, k) supports.

    Both sides go through one best-first queue each. Past one chunk of
    supports (and when k + 2 <= n) they are evaluated only where they can
    matter, and otherwise everywhere. Each support is bounded by the
    cover's (k+2)-sets that hold it: its upper side by the least bound
    on their Rayleigh maxima, its lower side by the greatest bound on
    their lambda_min(A_U^T A_U). Both are trace bounds on matrix powers
    (Wolkowicz & Styan, Linear Algebra Appl. 1980; see
    _principal_bounds), taken with no eigendecomposition and never
    tighter than the eigenvalues they bound. Upper sides are taken
    best-first until the next bound, plus a margin of _PRUNE_MARGIN
    times max(1, trace(A^T A)), is below the largest upper side found;
    lower sides until the next bound, minus that margin, is above the
    smallest lower side found. A skipped side is beyond its incumbent by
    more than the margin, and its delta term beyond the incumbent's by
    more than their rounding, even where every 1 - lambda rounds to 1
    (a tiny Phi). So it reaches neither delta nor eigen_range, and the
    side that sets a support's delta term is evaluated whenever that
    term attains delta, rounded. So delta, the colex-first witness and
    eigen_range equal those of evaluating every support. When m < k + 2 every
    lambda_min(A_U^T A_U), and so its bound, is about 0 and the margin
    keeps every lower side. The Rayleigh maximum is whitened by L^-1 for
    the Cholesky factor P[U, U] = L L^T of the (k+2)-set's block of
    P = U U^T, built by forward substitution in the stacked pass that
    factors it. A bound prunes only when every pivot of L is positive
    and 1 / ||L^-1||_F^2 exceeds _PRUNE_FLOOR^2 times trace P[U, U]. That
    puts sigma_min / sigma_max of P[:, U] above _PRUNE_FLOOR; by
    interlacing its subsets are then full rank under the rank rule, so
    rank-deficient supports are always evaluated on both sides.

    Raises BudgetExceededError when C(p, k) > max_supports rather than
    silently degrading to sampling; callers choose the fallback.
    """
    phi_e = _sensing_for(phi, dictionary)
    k = _order(k, dictionary.p)
    _refuse_supports(dictionary.p, k, _integer("max_supports", max_supports))
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
    family. Its rows go through both queues unbounded, so every lower and
    upper side is evaluated. When trials >= C(p, k) the scan switches to
    delta_exact's full-family scan, pruning included, and the estimate
    equals the exact constant.
    """
    phi_e = _sensing_for(phi, dictionary)
    k = _order(k, dictionary.p)
    if (trials := _integer("trials", trials)) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p = dictionary.p
    count = math.comb(p, k)
    if trials >= count:
        return _scan_supports(None, phi_e, dictionary, k, "monte-carlo", count)
    supports = np.sort(_random_subsets(np.random.default_rng(seed), trials, p, k), axis=1)
    return _scan_supports(supports, phi_e, dictionary, k, "monte-carlo", trials)


def _disjoint_blocks(supports: np.ndarray, rank: np.ndarray, p: int):
    """The disjoint pairs i < j among the rows of a (S, k) support array
    of range(p) whose bases both have rank > 0, _CHUNK // k rows i at a
    time: yields (rows, free), where free[a, j] marks the pair
    (rows[a], j). Overlaps come from a 0/1 membership product."""
    s, k = supports.shape
    member = np.zeros((s, p), dtype=np.float32)
    np.put_along_axis(member, supports, 1.0, axis=1)
    step = max(_CHUNK // k, 1)
    for start in range(0, s, step):
        rows = np.arange(start, min(start + step, s))
        free = (member[rows] @ member.T == 0) & (np.arange(s) > rows[:, None])
        yield rows, free & (rank[rows, None] > 0) & (rank > 0)  # a trivial subspace pairs with none


def _meeting_pair(supports: np.ndarray, rank: np.ndarray, p: int, n: int) -> tuple[int, int] | None:
    """The first disjoint pair (i, j), in _pair_bounds' order, whose
    bases' ranks sum past n, or None when there is none. Both subspaces
    lie in range(D), of dimension n, so such a pair meets and its cosine
    is exactly 1; it is found from the membership mask and the ranks
    alone."""
    if 2 * int(rank.max()) <= n:
        return None
    for rows, free in _disjoint_blocks(supports, rank, p):
        i, j = np.nonzero(free & (rank[rows, None] + rank > n))
        if len(i):
            return int(rows[i[0]]), int(j[0])
    return None


def _pair_bounds(
    supports: np.ndarray, bases: np.ndarray, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The disjoint pairs i < j among the rows of a (S, k) support array
    whose bases both have rank > 0, as index arrays (first, second), i
    ascending and then j ascending, with a bound on each pair's cosine:
    ||Q_i^T Q_j||_F >= sigma_max (Bjorck & Golub, Math. Comp. 1973).

    bases is the (S, p, k) stack of the supports' bases and rank their
    ranks. The bound comes block by block, with the mask of
    _disjoint_blocks: ||Q_i^T Q_j||_F^2 as the k^2 strided sums of the
    squared Gram of the bases side by side, their columns past each rank
    zeroed. The Gram is taken only against the supports disjoint from
    some row, so it has at most _CHUNK rows and S * k columns, however
    many pairs overlap."""
    s, p, k = bases.shape
    flat = np.where(np.arange(k) < rank[:, None, None], bases, 0.0).transpose(1, 0, 2)
    flat = np.ascontiguousarray(flat)  # (p, S, k): column a of basis i is flat[:, i, a]
    firsts, seconds, squares = [], [], []
    for rows, free in _disjoint_blocks(supports, rank, p):
        cols = np.flatnonzero(free.any(axis=0))
        gram = flat[:, rows].reshape(p, -1).T @ flat[:, cols].reshape(p, -1)
        gram *= gram
        frob = sum(gram[a::k, b::k] for a in range(k) for b in range(k))
        i, j = np.nonzero(free[:, cols])
        firsts.append(rows[i])
        seconds.append(cols[j])
        squares.append(frob[i, j])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    return first, second, np.sqrt(np.concatenate(squares))


def _cosines(
    bases: np.ndarray, rank: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """sigma_max of Q_i^T Q_j for each pair (first[t], second[t]), both
    bases of rank > 0: one stacked svd per (rank_i, rank_j), a single one
    unless some basis is rank deficient."""
    k = bases.shape[2]
    cos = np.empty(len(first))
    key = rank[first] * (k + 1) + rank[second]
    for kv in np.unique(key):
        ri, rj = divmod(int(kv), k + 1)
        sel = key == kv
        cross = _mT(bases[first[sel], :, :ri]) @ bases[second[sel], :, :rj]
        cos[sel] = np.linalg.svd(cross, compute_uv=False)[:, 0]
    return cos


def rho_exact(
    dictionary: Dictionary,
    k: int,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> RhoEstimate:
    """Exact rho_k: the worst cosine between chunk subspaces on disjoint
    size-k supports.

    For each support, the subspace is the span of the corresponding columns
    of the projector P = U U^T onto range(D) (the image of the chunk map
    inside range(D)); rho is the largest singular value of Q_i^T Q_j over
    all disjoint pairs, i.e. the cosine of the smallest principal angle.
    Zero for orthogonal D; always in [0, 1]. Requires 2k <= p so a
    disjoint pair exists. Ties report the colexicographically smallest
    pair: the first maximum over all pairs.

    Two subspaces of range(D) whose dimensions sum past n = rank(P) meet,
    so when some disjoint pair's ranks do, rho is 1.0 and the witness is
    the first such pair, found with no Gram and no svd.

    Otherwise pairs with a rank-0 basis (a trivial subspace) are skipped.
    Every other pair is bounded by ||Q_i^T Q_j||_F >= sigma_max, all
    bounds coming from one Gram of the stacked bases, and the pairs go
    through delta's best-first queue (_best_first) with an absolute margin of
    _PRUNE_MARGIN, as no cosine exceeds 1. A pair not decomposed has its
    cosine below the largest one found, so it can neither attain nor tie
    rho: value and witness equal those of evaluating every pair, and an
    evaluated cosine has the bits of its own svd whatever else shares the
    call.
    """
    k = _order(k, dictionary.p)
    if 2 * k > dictionary.p:
        raise ValueError(f"disjoint pairs need 2k <= p, got k={k}, p={dictionary.p}")
    p = dictionary.p
    _refuse_pairs(p, k, _integer("max_pairs", max_pairs))

    supports = _colex_supports(p, k)
    bases, rank = _orth_stack(_gather(dictionary.projector(), supports))
    if (meet := _meeting_pair(supports, rank, p, dictionary.n)) is not None:
        rho, (i, j) = 1.0, meet
    else:
        first, second, bound = _pair_bounds(supports, bases, rank)
        if not len(bound):
            raise ValueError("no admissible disjoint pair (all chunk subspaces trivial)")
        cos = _best_first(
            bound, lambda rows: _cosines(bases, rank, first[rows], second[rows]), _PRUNE_MARGIN
        )
        t = int(np.argmax(cos))  # first attaining pair
        rho = min(max(float(cos[t]), 0.0), 1.0)  # clip cosine roundoff
        i, j = first[t], second[t]
    return RhoEstimate(
        k=k,
        rho=rho,
        method="exact",
        witness=(SupportSet(supports[i], p), SupportSet(supports[j], p)),
    )


def _constants_in_range(delta2k: float, rho: float) -> None:
    """The refusals of a (delta2k, rho) pair shared by bound_constants and
    the checkers: delta2k >= 0 and rho in [0, 1], NaN refused."""
    if not delta2k >= 0.0:
        raise ValueError(f"delta2k must be >= 0, got {delta2k}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")


def bound_constants(delta2k: float, rho: float = 0.0) -> BoundConstants:
    """Recovery-bound constants at a given (delta2k, rho).

    Requires 0 <= delta2k < 1 and 0 <= rho <= 1 (the bounds are
    hypotheses, not outputs). Evaluation runs in numpy longdouble, so at
    rho = 0 c0 and c1 match their printed forms (see BoundConstants) to
    1e-12 after the cast; float64 evaluation misses that by about 3e-12.
    """
    _constants_in_range(delta2k, rho)
    if not delta2k < 1.0:
        raise ValueError(f"delta2k must lie in [0, 1), got {delta2k}: the constants are undefined")
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

    return BoundConstants(
        delta2k=float(delta2k),
        rho=float(rho),
        alpha=float(alpha),
        beta=float(beta),
        admissible=admissible,
        c0=float(c0),
        c1=float(c1),
    )
