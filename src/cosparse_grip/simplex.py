"""Dense two-phase simplex: slack crash basis, largest-coefficient pricing
with a Bland fallback.

Solves min c x subject to A x = b, x >= 0 to optimality. Sized for the
certification LPs this package builds (a few hundred variables); nothing
here is sparse. Between pivots the simplex keeps the basis index array
and the basis inverse B^-1. Each pivot applies the product-form
rank-one step to B^-1 in O(m^2), and every _REFACTOR_EVERY updates it is
inverted afresh from the original (sign-flipped) rows (Dantzig &
Orchard-Hays, Math. Tables Aids Comput. 1954; refactorization as in
Bixby, Oper. Res. 2002). Every terminal decision, optimal or unbounded, is taken on a
fresh inverse: when an updated B^-1 finds no entering column or no
positive pivot entry, it is inverted afresh and the pivot is priced
again, so roundoff carried through the updates cannot decide the
outcome. Tolerances are relative: to the multipliers for entering, to
the entering column for the pivot.

Phase 1 starts from a crash basis (Bixby, Oper. Res. 2002): each row
takes its first column that is exactly e_i, zero-cost ones first; phase
1 ignores costs, so one with a cost is a feasible start too. Only rows
without one get an artificial; with none, phase 1 is skipped.
The most negative reduced cost enters. A run of degenerate pivots as
long as the basis has rows switches entering to Bland's rule (smallest
eligible index; Bland, Math. Oper. Res. 1977) until a pivot makes a
positive step, which keeps termination finite. The leaving row is always
the smallest basis index among the ratio-test ties.

Phase 2 can also start from a caller's feasible point (_solve_from): a
basis, plus superbasic columns, nonbasic at values > 0. _purify steps
each superbasic column to 0 or into the basis by one ratio test, along
the direction that does not raise the cost, so after one step per
column the point is a vertex (Megiddo, ORSA J. Comput. 1991; Bixby &
Saltzman, Oper. Res. Lett. 1994). solvers._lp_start builds such starts
in closed form, a vertex for its equality LPs and a point with m
superbasic columns for its dantzig LPs, and skips phase 1 on both. The
dantzig start's basis is a signed identity, which is its own inverse, so
_purify takes B^-1 as B itself and inverts nothing. A start whose basic
values are not >= 0 within _FEAS_TOL, before or after the steps, is
refused, and the two-phase path above handles it and every other LP.
Both entries end in the one phase-2 function, _phase2: the same pivot
loop, then one solve call, on the stack [B, B^T], for x and the
multipliers c_B B^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpInfeasibleError",
    "LpUnboundedError",
    "LpSolution",
    "solve_standard_lp",
]

_COST_TOL = 1e-9    # reduced cost must beat this times max(1, multiplier max)
_PIVOT_TOL = 1e-9   # pivot entry must exceed this times max(1, column max)
_FEAS_TOL = 1e-8    # phase-1 objective above this means infeasible
_MAX_PIVOTS = 200000
_REFACTOR_EVERY = 32  # rank-one updates of B^-1 between fresh inverses


class LpInfeasibleError(RuntimeError):
    """The constraint system has no nonnegative solution."""


class LpUnboundedError(RuntimeError):
    """The objective is unbounded below on the feasible set."""


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal basic solution. multipliers are c_B B^-1 on the final
    basis, one per row of the caller's a (a dual solution of
    max b^T pi s.t. a^T pi <= c), 0 on rows dropped as dependent.
    basis holds the final basic columns of a: B = a[kept rows][:, basis]."""

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


def solve_standard_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpSolution:
    """min c x s.t. a x = b, x >= 0, by two-phase simplex.

    Raises LpInfeasibleError / LpUnboundedError; returns an optimal basic
    solution otherwise. Rows found dependent in phase 1 are dropped.
    """
    c = np.asarray(c, dtype=np.float64).ravel()
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel().copy()
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    a = a.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # crash: each row takes its first column that is exactly e_i, zero-cost first
    basis = np.full(m, -1)
    unit = np.flatnonzero((np.count_nonzero(a, axis=0) == 1) & (a.sum(axis=0) == 1.0))
    unit = unit[np.argsort(c[unit] != 0, kind="stable")]
    row_of, j = np.nonzero(a[:, unit])  # row-major: by row, then column
    rows, first = np.unique(row_of, return_index=True)
    basis[rows] = unit[j[first]]
    art = np.flatnonzero(basis < 0)  # artificial n + j stands for row art[j]

    keep = np.ones(m, dtype=bool)
    pivots = 0
    if art.size:
        # phase 1: [A I_art] from the crash basis, cost = sum of artificials
        a1 = np.hstack([a, np.eye(m)[:, art]])
        c1 = np.concatenate([np.zeros(n), np.ones(art.size)])
        basis[art] = n + np.arange(art.size)
        pivots = _pivot_to_optimum(c1, a1, b, basis, 0)
        infeas = float(c1[basis] @ np.linalg.solve(a1[:, basis], b))
        if infeas > _FEAS_TOL * max(1.0, float(b.sum())):
            raise LpInfeasibleError(f"phase-1 objective {infeas:.3e} is nonzero")

        # drive remaining artificials out of the basis or drop their rows
        for i in np.flatnonzero(basis >= n):
            row = np.linalg.inv(a1[:, basis])[i] @ a
            row[basis[basis < n]] = 0.0
            cols = np.flatnonzero(np.abs(row) > _PIVOT_TOL * np.abs(row).max(initial=1.0))
            if cols.size:
                basis[i] = cols[0]
                pivots += 1
            else:
                keep[art[basis[i] - n]] = False  # its row depends on the kept ones

    # phase 2 on the kept rows; the artificials left in the basis hold the
    # dropped rows, so the rest of the basis is square on the kept rows
    return _phase2(c, a, b, basis[basis < n], pivots, keep, neg)


def _solve_from(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray,
    superbasic: np.ndarray, values: np.ndarray,
) -> LpSolution | None:
    """min c x s.t. a x = b, x >= 0 by phase 2 alone, from a caller's
    start: basis holds one column of a per row, nonsingular, and the
    nonbasic columns superbasic hold values >= 0 (none when the start is
    the vertex of basis). _purify first steps the start to a vertex, one
    ratio test per superbasic column, and each step counts as one pivot.
    None when the start is not feasible, some entry of
    x_B = B^-1 (b - a_S values) being below -_FEAS_TOL max(1, ||x_B||_inf),
    at the start or at the vertex reached; the caller then takes
    solve_standard_lp."""
    basis = np.array(basis)
    if len(superbasic) and not _purify(c, a, b, basis, superbasic, values):
        return None
    binv = np.linalg.inv(a[:, basis])
    if _infeasible(binv @ b):
        return None
    m = b.size
    return _phase2(c, a, b, basis, len(superbasic), np.ones(m, dtype=bool), np.zeros(m, dtype=bool), binv)


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


def _phase2(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray,
    pivots: int, keep: np.ndarray, neg: np.ndarray, binv: np.ndarray | None = None,
) -> LpSolution:
    """Phase 2 from a feasible basis of the kept rows of a, then the
    final solves. neg marks the rows whose signs were flipped to make
    b >= 0; their multipliers are flipped back. binv, when given, is the
    fresh inverse of that basis, and phase 2 starts from it.

    One solve call gives x_B = B^-1 b and the multipliers c_B B^-1: numpy
    factors each matrix of the stack [B, B^T] by its own LAPACK gesv, as
    two separate calls would."""
    if not keep.all():
        a, b = a[keep], b[keep]
    pivots = _pivot_to_optimum(c, a, b, basis, pivots, binv)

    bm = a[:, basis]
    xb, pi = np.linalg.solve(np.stack([bm, bm.T]), np.stack([b, c[basis]])[..., None])[..., 0]
    x = np.zeros(c.size)
    x[basis] = np.maximum(xb, 0.0)
    multipliers = np.zeros(keep.size)
    multipliers[keep] = pi
    multipliers[neg] *= -1.0  # undo the b < 0 row flips
    return LpSolution(
        x=x, objective=float(c @ x), pivots=pivots, multipliers=multipliers, basis=basis
    )
