"""Dense simplex from a caller's vertex: largest-coefficient pricing with
a Bland fallback.

Solves min c x subject to A x = b, x >= 0 to optimality, from a basis
the caller builds (_solve_from) whose basic solution is feasible: a
vertex. Sized for the certification LPs this package builds (a few
hundred variables); nothing here is sparse. solvers._build_lp starts
every LP at its slack basis around Phi^+ y, a signed identity, which is
its own inverse, so _solve_from takes B^-1 as B itself and inverts
nothing; any other basis is inverted once. A start whose basic values
are not >= 0 within _FEAS_TOL is refused with ValueError.

Phase 2 then pivots to an optimal basis. Between pivots the simplex
keeps the basis index array and the basis inverse B^-1. Each pivot
applies the product-form rank-one step to B^-1 in O(m^2), and every
_REFACTOR_EVERY updates it is inverted afresh from the rows of A (Dantzig
& Orchard-Hays, Math. Tables Aids Comput. 1954; refactorization as in
Bixby, Oper. Res. 2002). Every terminal decision is taken on a fresh
factorization, so roundoff carried through the updates cannot decide
the outcome. One solve call on the stack [B, B^T] gives x_B and the
multipliers c_B B^-1 of a basis that prices optimal; when that was on
an updated B^-1, the basis is priced again with those multipliers, and
an eligible column there resumes the pivots from a fresh inverse. When
an updated B^-1 finds no positive pivot entry, it is inverted afresh
and the pivot is priced again. Tolerances are relative: to the
multipliers for entering, to the entering column for the pivot. The
most negative reduced cost enters. A run of degenerate pivots as long
as the basis has rows switches entering to Bland's rule (smallest
eligible index; Bland, Math. Oper. Res. 1977) until a pivot makes a
positive step, which keeps termination finite. The leaving row is
always the smallest basis index among the ratio-test ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpUnboundedError"]

_COST_TOL = 1e-9    # reduced cost must beat this times max(1, multiplier max)
_PIVOT_TOL = 1e-9   # pivot entry must exceed this times max(1, column max)
_FEAS_TOL = 1e-8    # basic value below -this max(1, ||x_B||_inf): an infeasible start
_MAX_PIVOTS = 200000
_REFACTOR_EVERY = 32  # rank-one updates of B^-1 between fresh inverses


class LpUnboundedError(RuntimeError):
    """The objective is unbounded below on the feasible set."""


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal basic solution. multipliers are c_B B^-1 on the final
    basis, one per row of a (a dual solution of max b^T pi s.t.
    a^T pi <= c). basis holds the final basic columns of a:
    B = a[:, basis]."""

    x: np.ndarray
    objective: float
    pivots: int
    multipliers: np.ndarray
    basis: np.ndarray


def _pivot_to_optimum(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray, binv: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """Pivot basis (updated in place) until no reduced cost is below
    -_COST_TOL max(1, ||c_B B^-1||_inf). Returns the pivot count, x_B and
    the multipliers c_B B^-1 of the final basis.

    The most negative reduced cost enters, ties to the smallest index:
    the first minimum of the reduced costs is tested against the
    threshold, and when it is not below it no column is. After as many
    consecutive degenerate pivots (minimum ratio <= 1e-12) as the basis
    has rows, the smallest eligible index enters instead,
    until a pivot makes a positive step. This terminates: with the
    smallest-index leaving rule already in force, Bland's rule cannot
    cycle from any starting basis, so each Bland run ends or makes a
    positive step within finitely many pivots; a positive step strictly
    lowers the objective, so no basis met before it recurs after it, and
    there are finitely many bases.

    binv is the starting B^-1, exact or fresh, and is carried between
    pivots: with col = B^-1 a_enter and r the leaving row, row r becomes
    B^-1[r] / col[r] and every other row i loses col[i] times that row.
    After _REFACTOR_EVERY such updates it is inverted afresh. A terminal
    decision is taken only on a fresh factorization. When pricing finds
    no eligible column, one solve of the stack [B, B^T] gives x_B and
    the multipliers; if that pricing ran on an updated B^-1, the basis
    is priced again with the solve's multipliers and the same threshold,
    and an eligible column there resumes the pivots from a fresh
    inverse. When the entering column has no positive entry on an
    updated B^-1, the basis is inverted afresh and priced again.

    The roundoff in a reduced cost grows with the simplex multipliers
    c_B B^-1; with an absolute threshold, a near-singular basis lets a
    reduced cost of pure roundoff enter, and its column then has no
    positive entry, which reads as a false LpUnboundedError."""
    pivots = degenerate = 0
    updates = 0  # rank-one updates of binv; None: invert a[:, basis] afresh before pricing
    cb = c[basis]  # c_B, carried beside the basis
    while True:
        if binv is None:
            binv, updates = np.linalg.inv(a[:, basis]), 0
        y = cb @ binv
        reduced = c - y @ a
        reduced[basis] = 0.0
        bar = -_COST_TOL * np.maximum.reduce(np.abs(y), initial=1.0)
        if degenerate < basis.size:
            enter = reduced.argmin()  # the first minimum: eligible when any entry is
            ok = reduced[enter] < bar
        else:
            eligible = reduced < bar
            enter = eligible.argmax()  # the first eligible index
            ok = eligible[enter]
        if not ok:
            bm = a[:, basis]
            xb, y = np.linalg.solve(np.stack([bm, bm.T]), np.stack([b, cb])[..., None])[..., 0]
            if updates:
                reduced = c - y @ a
                reduced[basis] = 0.0
                if np.minimum.reduce(reduced) < -_COST_TOL * np.maximum.reduce(np.abs(y), initial=1.0):
                    binv = None
                    continue
            return pivots, xb, y
        col = binv @ a[:, enter]
        rows = (col > _PIVOT_TOL * np.maximum.reduce(np.abs(col), initial=1.0)).nonzero()[0]
        if rows.size == 0:
            if updates:
                binv = None
                continue
            raise LpUnboundedError("objective unbounded along entering column")
        ratios = np.maximum((binv @ b)[rows], 0.0) / col[rows]
        step = np.minimum.reduce(ratios)
        ties = rows[ratios <= step + 1e-12]  # ties leave by smallest index
        r = ties[basis[ties].argmin()]
        basis[r] = enter
        cb[r] = c[enter]
        degenerate = degenerate + 1 if step <= 1e-12 else 0
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError(f"simplex exceeded {_MAX_PIVOTS} pivots")
        updates += 1
        if updates >= _REFACTOR_EVERY:
            binv = None
        else:
            _update_inverse(binv, col, r)


def _update_inverse(binv: np.ndarray, col: np.ndarray, r: int) -> None:
    """The product-form step of B^-1 in place, for entering column
    col = B^-1 a_enter and leaving row r: row r becomes B^-1[r] / col[r]
    and every other row i loses col[i] times that row."""
    prow = binv[r] / col[r]
    binv -= col[:, None] * prow
    binv[r] = prow


def _solve_from(c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray) -> LpSolution:
    """min c x s.t. a x = b, x >= 0 from a caller's vertex: basis holds
    one column of a per row, nonsingular, with x_B = B^-1 b >= 0. B^-1 is
    B itself when B is a signed identity (its own inverse, exactly) and
    inverted otherwise; phase 2 then pivots from it to an optimal basis
    (_pivot_to_optimum), whose final stacked solve gives x_B and the
    multipliers: numpy factors each matrix of the stack [B, B^T] by its
    own LAPACK gesv, as two separate calls would.

    Raises ValueError when the start is refused: some entry of x_B is
    below -_FEAS_TOL max(1, ||x_B||_inf). Raises LpUnboundedError when
    phase 2 finds the objective unbounded below."""
    basis = np.array(basis)
    binv = a[:, basis]
    if np.count_nonzero(binv) != basis.size or (np.abs(binv.diagonal()) != 1.0).any():
        binv = np.linalg.inv(binv)
    xb = binv @ b
    if np.minimum.reduce(xb, initial=0.0) < -_FEAS_TOL * np.maximum.reduce(np.abs(xb), initial=1.0):
        raise ValueError("the simplex start is not feasible")
    pivots, xb, pi = _pivot_to_optimum(c, a, b, basis, binv)
    x = np.zeros(c.size)
    x[basis] = np.maximum(xb, 0.0)
    return LpSolution(x=x, objective=float(c @ x), pivots=pivots, multipliers=pi, basis=basis)
