"""Dense simplex from a caller's feasible point: largest-coefficient
pricing with a Bland fallback.

Solves min c x subject to A x = b, x >= 0 to optimality, from a start
the caller builds (_solve_from): a basis, plus superbasic columns,
nonbasic at values > 0. Sized for the certification LPs this package
builds (a few hundred variables); nothing here is sparse. _purify first
steps each superbasic column to 0 or into the basis by one ratio test,
along the direction that does not raise the cost, so after one step per
column the point is a vertex (Megiddo, ORSA J. Comput. 1991; Bixby &
Saltzman, Oper. Res. Lett. 1994). solvers._lp_start builds such starts
in closed form for every sensing matrix, a vertex for its equality LPs
and a point with rank(Phi) superbasic columns for its dantzig LPs, so
no LP takes a phase 1. The dantzig start's basis is a signed identity,
which is its own inverse, so _purify takes B^-1 as B itself and inverts
nothing. A start whose basic values are not >= 0 within _FEAS_TOL,
before or after the steps, is refused with ValueError.

Phase 2 then pivots to an optimal basis. Between pivots the simplex
keeps the basis index array and the basis inverse B^-1. Each pivot
applies the product-form rank-one step to B^-1 in O(m^2), and every
_REFACTOR_EVERY updates it is inverted afresh from the rows of A (Dantzig
& Orchard-Hays, Math. Tables Aids Comput. 1954; refactorization as in
Bixby, Oper. Res. 2002). Every terminal decision, optimal or unbounded,
is taken on a fresh inverse: when an updated B^-1 finds no entering
column or no positive pivot entry, it is inverted afresh and the pivot
is priced again, so roundoff carried through the updates cannot decide
the outcome. Tolerances are relative: to the multipliers for entering,
to the entering column for the pivot. The most negative reduced cost
enters. A run of degenerate pivots as long as the basis has rows
switches entering to Bland's rule (smallest eligible index; Bland, Math.
Oper. Res. 1977) until a pivot makes a positive step, which keeps
termination finite. The leaving row is always the smallest basis index
among the ratio-test ties. One solve call, on the stack [B, B^T], then
gives x and the multipliers c_B B^-1.
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
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray, pivots: int,
    binv: np.ndarray | None = None,
) -> int:
    """Pivot basis (updated in place) until no reduced cost is below
    -_COST_TOL max(1, ||c_B B^-1||_inf). Returns the updated pivot count.

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

    B^-1 is inverted from a[:, basis] on entry, unless the caller passes
    that fresh inverse as binv, and carried between pivots: with
    col = B^-1 a_enter and r the leaving row, row r becomes
    B^-1[r] / col[r] and every other row i loses col[i] times that row.
    After _REFACTOR_EVERY such updates it is inverted afresh. A terminal
    decision is taken only on a fresh inverse: when pricing finds no
    eligible column, or the entering column no positive entry, on an
    updated B^-1, the basis is inverted afresh and priced again.

    The roundoff in a reduced cost grows with the simplex multipliers
    c_B B^-1; with an absolute threshold, a near-singular basis lets a
    reduced cost of pure roundoff enter, and its column then has no
    positive entry, which reads as a false LpUnboundedError."""
    degenerate = 0
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
            if updates:
                binv = None
                continue
            return pivots
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


def _solve_from(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray,
    superbasic: np.ndarray, values: np.ndarray,
) -> LpSolution:
    """min c x s.t. a x = b, x >= 0 from a caller's feasible start:
    basis holds one column of a per row, nonsingular, and the nonbasic
    columns superbasic hold values >= 0 (none when the start is the
    vertex of basis). _purify first steps the start to a vertex, one
    ratio test per superbasic column, and each step counts as one pivot.
    Phase 2 then pivots from that vertex's fresh inverse to an optimal
    basis, and one solve call gives x_B = B^-1 b and the multipliers
    c_B B^-1: numpy factors each matrix of the stack [B, B^T] by its own
    LAPACK gesv, as two separate calls would.

    Raises ValueError when the start is refused: some entry of
    x_B = B^-1 (b - a_S values) is below -_FEAS_TOL max(1, ||x_B||_inf)
    at the start or at the vertex reached, or a step of _purify finds no
    bound. Raises LpUnboundedError when phase 2 finds the objective
    unbounded below."""
    basis = np.array(basis)
    purified = not len(superbasic) or _purify(c, a, b, basis, superbasic, values)
    binv = np.linalg.inv(a[:, basis])
    if not purified or _infeasible(binv @ b):
        raise ValueError("the simplex start is not feasible")
    pivots = _pivot_to_optimum(c, a, b, basis, len(superbasic), binv)
    bm = a[:, basis]
    xb, pi = np.linalg.solve(np.stack([bm, bm.T]), np.stack([b, c[basis]])[..., None])[..., 0]
    x = np.zeros(c.size)
    x[basis] = np.maximum(xb, 0.0)
    return LpSolution(x=x, objective=float(c @ x), pivots=pivots, multipliers=pi, basis=basis)


def _infeasible(xb: np.ndarray) -> bool:
    return np.minimum.reduce(xb, initial=0.0) < -_FEAS_TOL * max(
        1.0, float(np.maximum.reduce(np.abs(xb), initial=0.0))
    )


def _purify(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray,
    superbasic: np.ndarray, values: np.ndarray,
) -> bool:
    """Step a feasible point with superbasic columns to a vertex, after
    the crossover of Megiddo (ORSA J. Comput. 1991) and Bixby & Saltzman
    (Oper. Res. Lett. 1994); basis is updated in place. False when the
    start is infeasible or a step finds no bound.

    Each superbasic x_j, in the given order, moves along the direction
    that does not raise the cost: up when its reduced cost
    c_j - c_B B^-1 a_j is below -_COST_TOL max(1, ||c_B B^-1||_inf),
    down otherwise. x_B moves against col = B^-1 a_j, and the ratio test
    stops the step at the first bound: x_j reaching 0 (down only), or a
    basic variable, which leaves (ties to the smallest basis index, as
    in _pivot_to_optimum) while x_j enters. B^-1 is taken once on entry,
    as B itself when B is a signed identity (its own inverse, exactly)
    and inverted otherwise, and carried by _update_inverse, inverted
    afresh every _REFACTOR_EVERY updates."""
    binv, updates = a[:, basis], 0
    if np.count_nonzero(binv) != basis.size or (np.abs(binv.diagonal()) != 1.0).any():
        binv = np.linalg.inv(binv)
    cb = c[basis]
    rhs = b - a[:, superbasic] @ values  # B x_B = rhs: the superbasics still held
    if _infeasible(binv @ rhs):
        return False
    for j, v in zip(superbasic, values):
        aj = a[:, j]
        col = binv @ aj
        y = cb @ binv
        up = c[j] - y @ aj < -_COST_TOL * np.maximum.reduce(np.abs(y), initial=1.0)
        move = col if up else -col  # x_B falls by theta move when x_j moves by theta
        rows = (move > _PIVOT_TOL * np.maximum.reduce(np.abs(col), initial=1.0)).nonzero()[0]
        ratios = np.maximum((binv @ rhs)[rows], 0.0) / move[rows]
        step = np.minimum.reduce(ratios, initial=np.inf)
        rhs += aj * v  # x_j leaves the right side: it ends at 0 or basic
        if not up and v <= step:
            continue  # x_j reaches 0 first and stays nonbasic
        if rows.size == 0:
            return False
        ties = rows[ratios <= step + 1e-12]
        r = ties[basis[ties].argmin()]
        basis[r] = j
        cb[r] = c[j]
        updates += 1
        if updates >= _REFACTOR_EVERY:
            binv, updates = np.linalg.inv(a[:, basis]), 0
        else:
            _update_inverse(binv, col, r)
    return True
