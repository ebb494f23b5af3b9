"""Numerical checkers for the recovery bounds.

Each checker evaluates one inequality on concrete data, reporting lhs,
rhs and slack = rhs - lhs, so a nonnegative slack is a verified instance
and a negative slack beyond roundoff falsifies the implementation (or the
constants fed to it). Reports with hypothesis_ok=False are informational:
the inequality's hypotheses did not hold, so nothing is claimed either way.

The three facts checked:

  * cross-chunk correlation (check_corollary1): for disjoint-support
    pseudoinverse chunks h_i, h_j,
        |<Phi h_i, Phi h_j>| <= (delta_2k + rho_k) ||D h_i||_2 ||D h_j||_2.

  * masked-image lower bound (check_corollary2): for any h and any head
    support of size <= k, with Lambda the head plus the next-largest k
    coordinates of Dh,
        ||(Dh)_Lambda||_2 <= alpha ||(Dh)_head^c||_1 / sqrt(k)
                             + beta |<Phi h_Lambda, Phi h>| / ||(Dh)_Lambda||_2
    where h_Lambda = D^+ (Dh masked on Lambda).

  * recovery error (check_theorem1): for x_hat with
    ||D x_hat||_1 <= ||D x||_1 and admissible constants,
        ||D(x_hat - x)||_2 <= c0 sigma_k(x) / sqrt(k)
                              + c1 |<Phi h_Lambda, Phi h>| / ||(Dh)_Lambda||_2.

The head-complement l1 tail in corollary 2 follows the derivation that
yields it; the tighter head-only variant is falsified by random
orthogonal instances, so it is not what gets checked.

The arithmetic of both corollaries and of theorem 1's inner term runs on
stacks, one row per check (_corollary1_stack on chunk pairs;
_masked_term and _corollary2_stack on directions): a verify-c1 or
verify-c2 campaign checks a block of trials in one call, and the public
checkers are stacks of one. Every stacked product is a per-row gemv or
dot and the l1 tail a left fold in column order, so each row has the
bits of its own one-vector evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grip import BoundConstants, _constants_in_range, bound_constants, delta_exact, rho_exact
from .model import Dictionary, SupportSet, _norm, _order, _sensing_for, _to_json, _vector, sigma_k, top_k_support

__all__ = [
    "BoundReport",
    "check_corollary1",
    "check_corollary2",
    "check_theorem1",
]

_ZERO_TOL = 1e-14     # below this, treat vectors/denominators as exactly zero
_DECOMP_TOL = 1e-8    # chunk reassembly residual allowed, relative


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality. witness carries enough of the instance
    (supports, norms, constants inputs) to rebuild the two sides."""

    which: str
    lhs: float
    rhs: float
    slack: float
    hypothesis_ok: bool
    constants_used: BoundConstants | None
    witness: dict

    def to_json(self) -> str:
        return _to_json(self)


def _resolve_constants(
    phi,
    dictionary: Dictionary,
    k: int,
    delta2k: float | None,
    rho: float | None,
) -> tuple[float, float]:
    """Fill in exact delta_{2k} and rho_k, within grip's default budgets,
    when the caller did not supply certified values of their own."""
    if delta2k is None:
        delta2k = delta_exact(phi, dictionary, 2 * k).delta
    if rho is None:
        rho = rho_exact(dictionary, k).rho
    _constants_in_range(delta2k, rho)
    return float(delta2k), float(rho)


def check_corollary1(
    phi,
    dictionary: Dictionary,
    k: int,
    chunk_i: tuple[SupportSet, np.ndarray],
    chunk_j: tuple[SupportSet, np.ndarray],
    *,
    delta2k: float | None = None,
    rho: float | None = None,
) -> BoundReport:
    """Cross-chunk correlation bound on two disjoint-support chunks.

    chunk_i / chunk_j are (support, vector) pairs, each vector a chunk
    D^+ z with supp(z) in its support. Norms on the rhs are true
    analysis-image norms ||D h||_2, which for a chunk h = D^+ z equals
    the norm of the projection of z onto range(D), not ||z||_2.

    delta >= 1 is reported (hypothesis_ok=False, constants_used=None)
    rather than raised: the two sides stay well defined.
    """
    sup_i, h_i = chunk_i
    sup_j, h_j = chunk_j
    if sup_i.p != dictionary.p or sup_j.p != dictionary.p:
        raise ValueError("chunk supports index the wrong number of rows")
    k = _order(k, dictionary.p)
    if sup_i.size > k or sup_j.size > k:
        raise ValueError(f"chunk supports must have size <= k = {k}")
    if not sup_i.disjoint_from(sup_j):
        raise ValueError(f"chunk supports overlap: {sup_i.indices} vs {sup_j.indices}")
    h_i = _vector("h_i", h_i, dictionary.n)
    h_j = _vector("h_j", h_j, dictionary.n)
    delta2k, rho = _resolve_constants(phi, dictionary, k, delta2k, rho)
    constants, cols = _corollary1_stack(phi, dictionary, h_i[None, :], h_j[None, :], delta2k, rho)
    row = {key: col[0].tolist() for key, col in cols.items()}
    witness = {
        "k": k,
        "support_i": list(sup_i.indices),
        "support_j": list(sup_j.indices),
        "delta2k": delta2k,
        "rho": rho,
        "image_norm_i": row["image_norm_i"],
        "image_norm_j": row["image_norm_j"],
    }
    return BoundReport(
        which="corollary1",
        lhs=row["lhs"],
        rhs=row["rhs"],
        slack=row["slack"],
        hypothesis_ok=row["hypothesis_ok"],
        constants_used=constants,
        witness=witness,
    )


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i . b_i of two (N, m) stacks: matmul of 1 x m by m x 1
    per row, which rounds as the 1-D dot of each row does (einsum does
    not)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _gemvs(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows a @ x_i of an (N, n) stack, one gemv per row as the 1-D product
    takes (xs @ a.T is one gemm, which parts from it in the last bit)."""
    return (a @ xs[:, :, None])[:, :, 0]


def _masked_term(
    f: np.ndarray,
    pinv: np.ndarray,
    u: np.ndarray,
    h: np.ndarray,
    heads: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(next blocks, mask norms, inner terms, degenerate flags) of the rows
    u_i = D h_i of an (N, p) stack, h the (N, n) stack of directions and
    heads an (N, s) stack of head indices, s <= k. Row i's next block is
    the k largest |u_i| outside its head (the lower index wins ties),
    sorted; Lambda_i is the head plus that block, the mask norm
    ||(Dh_i)_Lambda_i||_2 and the inner term
    |<Phi h_Lambda, Phi h_i>| / ||(Dh_i)_Lambda_i||_2, the rhs term that
    Corollary 2 and Theorem 1 share. A single check is a stack of one;
    every row's bits are those of its own 1-D evaluation."""
    n_rows, p = u.shape
    rows = np.arange(n_rows)[:, None]
    in_head = np.zeros((n_rows, p), dtype=bool)
    in_head[rows, heads] = True
    order = np.argsort(-np.abs(u), axis=1, kind="stable")
    # stable on the head flags: the first entries of `order` outside the head
    outside = np.argsort(in_head[rows, order], axis=1, kind="stable")[:, : min(k, p - heads.shape[1])]
    next_blocks = np.sort(np.take_along_axis(order, outside, axis=1), axis=1)
    in_mask = in_head.copy()
    in_mask[rows, next_blocks] = True
    z = np.where(in_mask, u, 0.0)
    mask_norm = np.sqrt(_dots(z, z))
    raw = np.abs(_dots(_gemvs(f, _gemvs(pinv, z)), _gemvs(f, h)))
    # 0/0: the masked image vanished; the term is 0 unless the correlation
    # somehow did not, which is flagged instead of divided through
    vanished = mask_norm <= _ZERO_TOL * np.fmax(1.0, np.sqrt(_dots(u, u)))
    inner = np.divide(raw, mask_norm, out=np.zeros(n_rows), where=~vanished)
    return next_blocks, mask_norm, inner, vanished & (raw > _ZERO_TOL)


def _corollary1_stack(
    phi,
    dictionary: Dictionary,
    h_i: np.ndarray,
    h_j: np.ndarray,
    delta2k: float,
    rho: float,
) -> tuple[BoundConstants | None, dict[str, np.ndarray]]:
    """Corollary 1 on each row pair of two (N, n) stacks of chunks h_i,
    h_j at resolved constants delta2k and rho: the constants (None when
    delta_2k >= 1) and one column per report field ("lhs", "rhs",
    "slack", "hypothesis_ok") and image norm ("image_norm_i",
    "image_norm_j"). The chunks' supports are the caller's to check;
    every row has the bits of its own check."""
    f = _sensing_for(phi, dictionary)
    hypothesis_ok = delta2k < 1.0
    constants = bound_constants(delta2k, rho) if hypothesis_ok else None
    d = dictionary.entries
    lhs = np.abs(_dots(_gemvs(f, h_i), _gemvs(f, h_j)))
    u_i, u_j = _gemvs(d, h_i), _gemvs(d, h_j)
    norm_i, norm_j = np.sqrt(_dots(u_i, u_i)), np.sqrt(_dots(u_j, u_j))
    rhs = (delta2k + rho) * norm_i * norm_j
    return constants, {
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "hypothesis_ok": np.full(len(lhs), hypothesis_ok),
        "image_norm_i": norm_i,
        "image_norm_j": norm_j,
    }


def _corollary2_stack(
    phi,
    dictionary: Dictionary,
    k: int,
    h: np.ndarray,
    heads: np.ndarray,
    delta2k: float | None,
    rho: float | None,
) -> tuple[BoundConstants, dict[str, np.ndarray]]:
    """Corollary 2 on each row of an (N, n) stack of directions h with its
    row of an (N, s) stack of heads, s <= k: the constants and one column
    per report field ("lhs", "rhs", "slack", "hypothesis_ok") and witness
    array ("next_block", "tail_l1", "inner_term", "degenerate"). Raises if
    any h is zero; every row has the bits of its own check."""
    f = _sensing_for(phi, dictionary)
    h = np.ascontiguousarray(h, dtype=np.float64)
    h_norm = np.sqrt(_dots(h, h))
    if np.any(h_norm <= _ZERO_TOL):
        raise ValueError("h is zero; the bound is vacuous")

    delta2k, rho = _resolve_constants(phi, dictionary, k, delta2k, rho)
    constants = bound_constants(delta2k, rho)

    pinv = dictionary.pinv()
    u = _gemvs(dictionary.entries, h)
    next_blocks, lhs, inner, degenerate = _masked_term(f, pinv, u, h, heads, k)
    # the head-complement l1 tail as a left fold in column order, the head
    # adding 0.0: the bits of the 1-D builtin sum over the complement
    mags = np.abs(u)
    mags[np.arange(h.shape[0])[:, None], heads] = 0.0
    tail = np.zeros(h.shape[0])
    for col in mags.T:
        tail = tail + col
    rhs = constants.alpha * tail / math.sqrt(k) + constants.beta * inner

    # the chunks of Dh reassemble to D^+ D h, which is h only if D is injective
    r = _gemvs(pinv, u) - h
    residual = np.sqrt(_dots(r, r))
    hypothesis_ok = ~degenerate & (residual <= _DECOMP_TOL * np.fmax(1.0, h_norm))
    return constants, {
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "hypothesis_ok": hypothesis_ok,
        "next_block": next_blocks,
        "tail_l1": tail,
        "inner_term": inner,
        "degenerate": degenerate,
    }


def check_corollary2(
    phi,
    dictionary: Dictionary,
    k: int,
    h: np.ndarray,
    head: SupportSet,
    *,
    delta2k: float | None = None,
    rho: float | None = None,
) -> BoundReport:
    """Masked-image lower bound for an arbitrary direction h.

    Raises on k outside [1, p], on zero h and on delta_2k >= 1 (beta is
    undefined there, so no informational report is possible).
    """
    if head.p != dictionary.p:
        raise ValueError("head support indexes the wrong number of rows")
    k = _order(k, dictionary.p)
    if head.size > k:
        raise ValueError(f"head support must have size <= k = {k}")
    heads = np.array([head.indices], dtype=np.intp)
    constants, cols = _corollary2_stack(
        phi, dictionary, k, _vector("h", h, dictionary.n)[None, :], heads, delta2k, rho
    )
    row = {key: col[0].tolist() for key, col in cols.items()}
    witness = {
        "k": k,
        "head": list(head.indices),
        "next_block": row["next_block"],
        "delta2k": constants.delta2k,
        "rho": constants.rho,
        "tail_l1": row["tail_l1"],
        "inner_term": row["inner_term"],
        "mask_norm": row["lhs"],
        "degenerate": row["degenerate"],
    }
    return BoundReport(
        which="corollary2",
        lhs=row["lhs"],
        rhs=row["rhs"],
        slack=row["slack"],
        hypothesis_ok=row["hypothesis_ok"],
        constants_used=constants,
        witness=witness,
    )


def check_theorem1(
    phi,
    dictionary: Dictionary,
    k: int,
    x: np.ndarray,
    x_hat: np.ndarray,
    *,
    delta2k: float | None = None,
    rho: float | None = None,
) -> BoundReport:
    """Recovery-error bound for a candidate minimizer x_hat against truth x.

    The l1 hypothesis ||D x_hat||_1 <= ||D x||_1 is checked with an
    additive tolerance 1e-8 max(1, ||D x||_1); failure downgrades the
    report to hypothesis_ok=False rather than raising, since solvers
    can legitimately return slightly suboptimal points. Inadmissible
    constants (alpha >= 1, infinite c0/c1) raise: the theorem does not
    apply and no finite report exists. rho=None uses the exact rho_k;
    passing rho=0.0 reproduces the printed constants, which is equally
    sound whenever the dictionary's disjoint chunk subspaces are
    orthogonal (rho_k = 0, e.g. any orthogonal dictionary).

    The inner term is Corollary 2's at h = x_hat - x, with head the k
    largest |D x| (_masked_term serves both checkers). x_hat == x is
    reported as trivially satisfied (lhs = 0, inner term 0).
    """
    x = _vector("x", x, dictionary.n)
    x_hat = _vector("x_hat", x_hat, dictionary.n)
    k = _order(k, dictionary.p)
    f = _sensing_for(phi, dictionary)

    delta2k, rho = _resolve_constants(phi, dictionary, k, delta2k, rho)
    constants = bound_constants(delta2k, rho)
    if not constants.admissible:
        raise ValueError(
            f"constants not admissible at delta2k={delta2k:.6f}, rho={rho:.6f} "
            f"(alpha = {constants.alpha:.6f} >= 1); the theorem does not apply"
        )

    d = dictionary.entries
    dx = d @ x
    l1_x = float(np.sum(np.abs(dx)))
    l1_hat = float(np.sum(np.abs(d @ x_hat)))
    num_tol = 1e-8 * max(1.0, l1_x)
    l1_hypothesis = l1_hat <= l1_x + num_tol

    tail = sigma_k(x, dictionary, k)
    h = x_hat - x
    error_l2 = _norm(h)
    trivial = error_l2 <= _ZERO_TOL * max(1.0, float(np.linalg.norm(x)))  # x may be strided

    head = top_k_support(dx, k)
    if trivial:
        lhs = inner = mask_norm = 0.0
        lam1_idx: list[int] = []
        degenerate = False
    else:
        u = d @ h
        heads = np.array([head.indices], dtype=np.intp)
        cols = _masked_term(f, dictionary.pinv(), u[None, :], h[None, :], heads, k)
        lam1_idx, mask_norm, inner, degenerate = (col[0].tolist() for col in cols)
        lhs = _norm(u)

    rhs = constants.c0 * tail / math.sqrt(k) + constants.c1 * inner
    hypothesis_ok = l1_hypothesis and not degenerate
    witness = {
        "k": k,
        "head": list(head.indices),
        "next_block": lam1_idx,
        "delta2k": delta2k,
        "rho": rho,
        "sigma_k": tail,
        "l1_truth": l1_x,
        "l1_candidate": l1_hat,
        "inner_term": inner,
        "mask_norm": mask_norm,
        "error_l2": error_l2,
        "trivial": trivial,
        "degenerate": degenerate,
    }
    return BoundReport(
        which="theorem1",
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        hypothesis_ok=hypothesis_ok,
        constants_used=constants,
        witness=witness,
    )
