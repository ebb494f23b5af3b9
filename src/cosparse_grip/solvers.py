"""l1 recovery programs for the analysis and synthesis routes.

Three constraint sets on the measurements:
  * equality   { z : Phi z = y }
  * l2-ball    { z : ||Phi z - y||_2 <= epsilon }
  * dantzig    { z : ||Phi^T (Phi z - y)||_inf <= lam }

Both routes solve one program, min ||B z||_1 s.t. A z in B(y):
solve_analysis_l1 with (B, A) = (D, Phi), solve_synthesis_l1 with
(I, Phi S), mapping the coefficients back to x = S alpha. One first-order
path serves both: a primal-dual iteration (Chambolle-Pock with steps
tau sigma ||K||^2 <= 1, ||K|| the exact largest singular value, restarted
adaptively and rebalanced by a primal weight as in PDLP) on the stacked
operator K = [B; A], for equality and l2-ball. The l1 dual block projects
onto the unit box; the constraint dual block is the conjugate prox of the
indicator of B(y). Since sigma tau = 1/||K||^2 for every primal weight,
the dual-space move sigma K (z_new - z) is -(K K^T/||K||^2) u_new, so the
loop carries the scaled image h = sigma K z - [0; sigma y] in place of K z,
and one product of [tau K^T; K K^T/||K||^2] with the new dual gives both
the primal step and h's next move. Each solve takes three SVDs: one
of A, which gives A^+ and a basis N of null(A), with B N^T formed
once; one of (B N^T)^T, whose pseudoinverse the dual repair uses; and
one of K for ||K||. A zero-set dual of a polish takes one more, unless
its zero set is empty, or has exactly dim null(A) entries and one
linear solve gives it. On the equality set the iteration tries
a polish, after PDLP's feasibility polishing and crossover to a vertex
(Megiddo 1991), on the iterate at every eighth iteration whose face
guess differs from the last one tried there, on the average at every
restart check whose candidate it is, and at the residual stop (the
active face is identified in finitely many iterations: Liang, Fadili &
Peyre 2017). A point's face guess is the dim null(A) entries of B z
nearest zero; one small linear solve puts z on the feasible point z_p
where they vanish and gives B z_p, and z_p is certified with the dual
of its own zero set: sign(B z_p) off the zero set, and on it the dual
that makes the pair dual feasible, the one solution of a square system
or else the PDHG dual moved by the least-norm step (the cosupport
certificate of Vaiter, Peyre, Dossal & Fadili 2013). A z_p whose signs
oppose the PDHG dual is refused before that dual is built. z_p is
returned as soon as its checked certificate passes. The l2 ball is not
polished: its optimal face includes the curved boundary of the ball.

solve_lp_certified reformulates the polyhedral cases (equality, dantzig)
as a standard-form LP and solves with the in-package simplex, giving an
exact vertex. Every LP, at any rank and shape of Phi, starts phase 2
from the point _lp_start builds in closed form: an equality LP on
rank(Phi) independent rows at a vertex, a dantzig LP at a feasible point
that the simplex purifies to a vertex in rank(Phi) steps.

Every result carries a checked certificate, and one builder, _result,
sets its fields on both paths: _kkt measures primal infeasibility, dual
infeasibility and the duality gap of a primal point z and a dual pair
(v, w) of
  max -b^T w - s(w)  s.t.  B^T v + A^T w = 0,  ||v||_inf <= 1,
the KKT error of PDLP, which also drives the restarts. The LP path reads
(v, w) off the simplex multipliers of its optimal basis. On the
first-order path, _first_order_result repairs the dual (PDHG's, or the
polish's zero-set dual) into exact dual feasibility by matvecs with
A^+, moves its point onto B(y) and checks them, and _pdhg returns that
checked result, once per point. The tolerances are fixed module
constants, the same on both paths: _FEAS_TOL for primal and dual
infeasibility, _CERT_TOL for the relative duality gap, and _TOL for the
PDHG stopping residual. SolverOptions sets only the iteration budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import Dictionary, _check_matrix, _integer, _norm, _sensing_for, _to_json, _vector, sensing_entries
from .simplex import _solve_from

__all__ = [
    "CONSTRAINT_KINDS",
    "InfeasibleConstraintError",
    "ConstraintSpec",
    "SolverOptions",
    "RecoveryResult",
    "solve_analysis_l1",
    "solve_synthesis_l1",
    "solve_lp_certified",
]

CONSTRAINT_KINDS = ("equality", "l2-ball", "dantzig")

MAX_LP_VARIABLES = 400  # hard budget for the LP route

_TOL = 1e-9        # PDHG residual stop, relative to max(1e-12, ||y||)
_FEAS_TOL = 1e-7   # primal (relative to max(1, ||y||)) and dual infeasibility
_CERT_TOL = 1e-6   # relative duality gap
_RANK_TOL = 1e-9   # elimination pivot, relative to max |Phi|, at or below which a row is dependent


class InfeasibleConstraintError(ValueError):
    """The constraint set B(y) is empty (up to the feasibility tolerance)."""


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Measurement constraint B(y). epsilon is the l2-ball radius
    (required > 0 for l2-ball), lam the correlation cap (required >= 0
    for dantzig); each is ignored by the other kinds, and both must be
    finite."""

    kind: str
    y: np.ndarray
    epsilon: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        y = np.array(self.y, dtype=np.float64, copy=True).ravel()
        if not np.all(np.isfinite(y)):
            raise ValueError("y has non-finite entries")
        y.setflags(write=False)
        for name in ("epsilon", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kind == "l2-ball" and not self.epsilon > 0.0:
            raise ValueError("l2-ball requires epsilon > 0")
        if self.kind == "dantzig" and not self.lam >= 0.0:
            raise ValueError("dantzig requires lam >= 0")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget of the first-order path."""

    max_iters: int = 200000

    def __post_init__(self):
        if (v := _integer("max_iters", self.max_iters)) < 1:
            raise ValueError(f"max_iters must be >= 1, got {v}")
        object.__setattr__(self, "max_iters", v)


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Outcome of one recovery solve.

    certified means a certificate was checked against fixed tolerances,
    the same on both solver paths: x_hat misses B(y) by at most
    1e-7 max(1, ||y||), the dual pair is feasible to within 1e-7
    (_FEAS_TOL), and |certification_gap| <= 1e-6 (_CERT_TOL).
    certification_gap is the signed duality gap relative to max(1,
    primal objective). On both paths primal_residual and dual_residual
    are the returned point's checked distance from B(y) and the checked
    dual infeasibility. converged means the solver finished (the PDHG
    residual stop or a certified polish within max_iters; every simplex
    answer) and, on both paths, x_hat misses B(y) by at most
    1e-7 max(1, ||y||). When a polish ended a first-order solve
    (equality only), iterations counts up to the check that accepted it.

    Both routes solve a y with ||y|| outside [2^-4, 2^4) as the problem
    scaled by the power of two 2^e that puts ||y|| in [1/2, 1) (y,
    epsilon and lam alike; the scaling is exact), and scale x_hat,
    objective and primal_residual back. There the primal tolerances
    above are 1e-7 ||y|| to within a factor of 2, relative to ||y||
    rather than absolute; dual_residual and certification_gap are
    scale-free. y = 0 is solved unscaled, and a y whose squared norm
    overflows is out of scope.
    """

    x_hat: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    certified: bool
    certification_gap: float

    def to_json(self) -> str:
        return _to_json(self)


class _Factors(NamedTuple):
    """What a first-order solve factors once (_factor)."""

    pinv: np.ndarray       # sensing^+
    null: np.ndarray       # rows spanning null(sensing)
    dn: np.ndarray         # d_block null^T, whose transpose is _first_order_result's leak
    leak_pinv: np.ndarray  # (dn^T)^+


def _pinv_null(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a^+, rows spanning null(a)) from one SVD of a; its rank counts the
    singular values above sv[0] max(shape) eps (none when a has no rows)."""
    u, sv, vt = np.linalg.svd(a)
    r = int(np.sum(sv > sv[:1] * max(a.shape) * np.finfo(np.float64).eps))
    return (vt[:r].T / sv[:r]) @ u[:, :r].T, vt[r:]


def _factor(d_block: np.ndarray, sensing: np.ndarray) -> _Factors:
    pinv, null = _pinv_null(sensing)
    dn = d_block @ null.T
    return _Factors(pinv, null, dn, _pinv_null(dn.T)[0])


def _feasible_start(phi: np.ndarray, pinv: np.ndarray, constraint: ConstraintSpec) -> np.ndarray:
    """The least-squares point Phi^+ y; doubles as the feasibility
    pre-check, since no point of range(Phi) is nearer to y."""
    z0 = pinv @ constraint.y
    _refuse_miss(phi, z0, constraint)
    return z0


def _refuse_miss(phi: np.ndarray, z: np.ndarray, constraint: ConstraintSpec) -> None:
    """Raise InfeasibleConstraintError when z, a point of range(Phi)
    nearest to y, misses B(y) by more than _FEAS_TOL max(1, ||y||)."""
    miss = _constraint_violation(phi, z, constraint)
    if miss > _FEAS_TOL * max(1.0, _norm(constraint.y)):
        # relative to ||y|| (> 0 here, as y = 0 is in B(y)), so the same at every scale
        raise InfeasibleConstraintError(f"B(y) misses range(Phi) by {miss / _norm(constraint.y):.3e} ||y||")


def _to_band(constraint: ConstraintSpec) -> tuple[ConstraintSpec, int]:
    """(constraint scaled by 2^e, e): e = 0 when ||y|| lies in
    [2^-4, 2^4) or y = 0, else the exponent that puts ||y|| in [1/2, 1)
    (RecoveryResult). Scaling by a power of two is exact."""
    e = -math.frexp(_norm(constraint.y))[1]
    if -4 <= e <= 3:
        return constraint, 0
    return ConstraintSpec(
        constraint.kind, np.ldexp(constraint.y, e),
        math.ldexp(constraint.epsilon, e), math.ldexp(constraint.lam, e),
    ), e


def _from_band(res: RecoveryResult, e: int) -> RecoveryResult:
    """The result of a solve scaled by _to_band's 2^e, scaled back."""
    if not e:
        return res
    x_hat = np.ldexp(res.x_hat, -e)
    x_hat.setflags(write=False)
    return replace(
        res, x_hat=x_hat, objective=math.ldexp(res.objective, -e),
        primal_residual=math.ldexp(res.primal_residual, -e),
    )


def _constraint_violation(phi: np.ndarray, z: np.ndarray, constraint: ConstraintSpec) -> float:
    r = phi @ z - constraint.y
    if constraint.kind == "equality":
        return _norm(r)
    if constraint.kind == "l2-ball":
        return max(0.0, _norm(r) - constraint.epsilon)
    return max(0.0, float(np.max(np.abs(phi.T @ r))) - constraint.lam)


def _kkt(
    d_block: np.ndarray, sensing: np.ndarray, constraint: ConstraintSpec,
    z: np.ndarray, v: np.ndarray, w: np.ndarray,
) -> tuple[float, float, float, float]:
    """(primal infeasibility, dual infeasibility, duality gap, primal
    value ||d_block z||_1) of z and the dual pair (v, w) for
    min ||d_block z||_1 over z in B(y).

    The dual is max -b^T w - s(w) s.t. d_block^T v + A^T w = 0,
    ||v||_inf <= 1, with (A, b, s) = (Phi, y, 0) for equality,
    (Phi, y, epsilon ||w||_2) for l2-ball and (Phi^T Phi, Phi^T y,
    lam ||w||_1) for dantzig. Dual infeasibility combines
    ||d_block^T v + A^T w||_2 with the excess of ||v||_inf over 1; the
    gap ||d_block z||_1 + b^T w + s(w) is primal minus dual value.
    """
    kind = constraint.kind
    y = constraint.y
    if kind == "dantzig":
        a, b = sensing.T @ sensing, sensing.T @ y
        s = constraint.lam * float(np.abs(w).sum())
    else:
        a, b = sensing, y
        s = constraint.epsilon * _norm(w) if kind == "l2-ball" else 0.0
    primal = _constraint_violation(sensing, z, constraint)
    dual = math.hypot(_norm(d_block.T @ v + a.T @ w), max(0.0, float(np.abs(v).max()) - 1.0))
    l1 = float(np.abs(d_block @ z).sum())
    return primal, dual, l1 + float(b @ w) + s, l1


def _result(
    d_block: np.ndarray, sensing: np.ndarray, constraint: ConstraintSpec,
    z: np.ndarray, z_gap: np.ndarray, v: np.ndarray, w: np.ndarray,
    iterations: int, converged: bool,
) -> RecoveryResult:
    """The RecoveryResult of either solver path for the returned point z.

    primal_residual is z's own distance from B(y); the dual
    infeasibility and relative gap of (v, w) are measured at z_gap (z
    itself on the LP path, its move onto B(y) on the first-order path).
    A z off B(y) by more than _FEAS_TOL max(1, ||y||) is neither
    converged nor certified. When z_gap is z, _kkt's primal
    infeasibility and primal value are z's own.
    """
    primal, dual, gap, l1 = _kkt(d_block, sensing, constraint, z_gap, v, w)
    if z_gap is z:
        viol, objective = primal, l1
    else:
        viol, objective = _constraint_violation(sensing, z, constraint), float(np.abs(d_block @ z).sum())
    rel_gap = gap / max(1.0, l1)
    feasible = viol <= _FEAS_TOL * max(1.0, _norm(constraint.y))
    z.setflags(write=False)
    return RecoveryResult(
        x_hat=z,
        objective=objective,
        iterations=iterations,
        primal_residual=viol,
        dual_residual=dual,
        converged=converged and feasible,
        certified=feasible and dual <= _FEAS_TOL and abs(rel_gap) <= _CERT_TOL,
        certification_gap=rel_gap,
    )


# Adaptive restarts of the averaged iterate, after Applegate, Hinder, Lu &
# Lubin (Math. Prog. 2023) and PDLP (Applegate et al., NeurIPS 2021). Every
# _RESTART_EVERY iterations the KKT error of the current iterate and of the
# average since the last restart are compared; the lower one is the
# candidate. The run restarts there on sufficient decay, on necessary decay
# without further progress, or when the average has grown to
# _ARTIFICIAL_RESTART of all iterations run.
_RESTART_EVERY = 64
_SUFFICIENT_DECAY = 0.2
_NECESSARY_DECAY = 0.8
_ARTIFICIAL_RESTART = 0.36
_MIN_MOVE = 1e-10  # primal or dual move below which the weight is kept

# Roundoff allowance of the polish's dual: entries of d_block z within
# _ZERO_TOL max(1, ||d_block z||_inf) are zero, and a dual within _ZERO_TOL
# of the unit box is in it (a non-unique minimizer's dual has entries of
# modulus exactly 1 on the zero set).
_ZERO_TOL = 1e-9

# The face guess of the equality polish is read every _PEEK_EVERY
# iterations (a divisor of _RESTART_EVERY); a face point whose sign off
# its zero set opposes a PDHG dual entry of modulus _OPPOSED or more is
# refused before its dual is built.
_PEEK_EVERY = 8
_OPPOSED = 0.5


def _face_point(
    z0: np.ndarray, null: np.ndarray, dz0: np.ndarray, dn: np.ndarray, face: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The point z_p = z0 + null^T c of the equality set on which
    d_block z vanishes at the free = len(null) indices face, and its
    image d_block z_p = dz0 + dn c, from dz0 = d_block z0 and
    dn = d_block null^T, both from the same c.

    None when that free x free system is singular; free <= p, as
    p >= n on the analysis route and p = q on the synthesis route. With
    free == 0, z0 is the only feasible point.
    """
    if not len(face):
        return z0, dz0
    try:
        c = np.linalg.solve(dn[face], -dz0[face])
    except np.linalg.LinAlgError:
        return None
    return z0 + null.T @ c, dz0 + dn @ c


def _zero_set_dual(dz: np.ndarray, off: np.ndarray, v: np.ndarray, dn: np.ndarray) -> np.ndarray | None:
    """The l1 dual that certifies a feasible point z with dz = d_block z,
    from the PDHG dual v (Vaiter, Peyre, Dossal & Fadili 2013).

    off masks the complement of the zero set L = {|dz| <= _ZERO_TOL
    max(1, ||dz||_inf)}. Off L the dual is sign(dz); on L it is the
    v_L with dn[L]^T v_L = -dn[~L]^T sign(dz)[~L], so that
    null d_block^T v = 0 (dn = d_block null^T). When L has exactly
    dim null = dn.shape[1] entries, that square system has one
    solution, and one linear solve gives it; on any other L, or when
    the square block is singular, v_L is clip(v, -1, 1) moved by the
    least-norm step onto the system, from an SVD. None when v_L leaves
    the unit box by more than _ZERO_TOL. An empty L needs no step.
    """
    out = np.sign(dz)
    if off.all():
        return out
    zero = ~off
    out[zero] = 0.0
    a = dn[zero].T
    rhs = dn.T @ out
    v_l = None
    if a.shape[0] == a.shape[1]:
        try:
            v_l = np.linalg.solve(a, -rhs)
        except np.linalg.LinAlgError:
            pass
    if v_l is None:
        v_l = np.clip(v[zero], -1.0, 1.0)
        v_l -= _pinv_null(a)[0] @ (a @ v_l + rhs)
    if np.abs(v_l).max() > 1.0 + _ZERO_TOL:
        return None
    out[zero] = v_l
    return out


def _pdhg(
    d_block: np.ndarray, phi: np.ndarray, constraint: ConstraintSpec, opts: SolverOptions, fac: _Factors
) -> RecoveryResult:
    """Restarted primal-dual iteration for min ||d_block z||_1 s.t.
    z in B(y), B(y) the equality set or the l2 ball, from the
    least-squares point; fac is _factor(d_block, phi). Returns the
    checked result (_first_order_result) of the point it ends at, with
    the l1 block of its dual u = (v, w) (a polished point: the dual of its
    zero set), unconverged if max_iters runs out.

    The step from (z, u) with K = [d_block; phi] and L = ||K|| is
    Chambolle-Pock's with the primal point extrapolated,
      u+ = P(u + sigma (2 K z - K z_prev) - [0; sigma y]),
      z+ = z - tau K^T u+,
    where P clips the l1 block to [-1, 1] and maps the constraint block
    w to itself on the equality set and to w max(0, 1 - sigma epsilon /
    ||w||) on the l2 ball (Moreau). It runs without K z: since
    sigma tau = 1/L^2 for every primal weight, sigma K (z - z_prev) = -e
    with e = (K K^T / L^2) u, so the loop keeps h = sigma K z -
    [0; sigma y] and e, and u+ = P(w) with w = u + h - e. One product of
    [tau K^T; K K^T / L^2] with u+ gives tau K^T u+ and the next e, and h
    moves by -e. A restart sets e = 0.

    It stops when both fixed-point gaps of the scheme, ||K^T u+|| and
    ||w - u+ - h+|| / sigma, are within _TOL * max(1e-12, ||y||). At
    each restart the primal weight omega becomes the geometric mean of
    itself and the ratio of the dual to the primal move since the
    previous restart, and the steps become tau = 1 / (L omega),
    sigma = omega / L.

    Polish (equality only): a pair (z_c, u_c) names a face, its face
    guess: the dim null(phi) entries of d_block z_c nearest 0 (read off
    h on the iterate). It is tried every _PEEK_EVERY iterations on the
    iterate, when its face guess differs from the last one such a peek
    tried; at a restart check on the candidate only when that is the
    average, since the iterate's face is its own iteration's peek's; and
    on the last iterate at the residual stop. _face_point gives the
    feasible point z_p on which the face vanishes, and its image
    d_block z_p from the same solve. z_p is refused unchecked when
    sign(d_block z_p) off its zero set opposes an entry of u_c's l1
    block of modulus _OPPOSED or more, and else _zero_set_dual builds
    the l1 dual of z_p's own zero set: by one linear solve when that set
    has dim null(phi) entries, else from that block by a least-norm
    step; a dual outside the unit box refuses z_p unchecked. The result
    of z_p is returned as soon as it is certified with that dual, and
    iterations counts up to that check. A failed attempt changes nothing. The l2
    ball's face has a curved part, so it is not polished.
    """
    p = d_block.shape[0]
    polish = constraint.kind == "equality"
    y = constraint.y
    eps = constraint.epsilon

    k_mat = np.vstack([d_block, phi])
    lnorm = float(np.linalg.norm(k_mat, 2))  # largest singular value
    if lnorm == 0.0:
        raise ValueError("zero operator; nothing to solve")
    n = k_mat.shape[1]

    def kkt_error(z: np.ndarray, u: np.ndarray) -> float:
        primal, dual, gap, _ = _kkt(d_block, phi, constraint, z, u[:p], u[p:])
        return math.sqrt(primal * primal + dual * dual + gap * gap)

    def result(z: np.ndarray, u: np.ndarray, converged: bool) -> RecoveryResult:
        return _first_order_result(d_block, phi, constraint, z, u[:p], fac, iters, converged)

    free = fac.null.shape[0]

    def face_of(dz: np.ndarray) -> np.ndarray:
        """The face guess of a point with d_block image dz (or a positive
        multiple of it): the free entries nearest 0 (stable order), as a
        sorted index set."""
        return np.sort(np.argsort(np.abs(dz), kind="stable")[:free])

    def polished(u_c: np.ndarray, face: np.ndarray) -> RecoveryResult | None:
        """The result of the face point on face, dual from u_c, when it is
        certified, else None."""
        point = _face_point(z0, fac.null, dz0, fac.dn, face)
        if point is None:
            return None
        z_p, dz_p = point
        v_c = u_c[:p]
        off = np.abs(dz_p) > _ZERO_TOL * max(1.0, float(np.abs(dz_p).max()))
        if (np.sign(dz_p[off]) * v_c[off]).min(initial=0.0) <= -_OPPOSED:
            return None
        v = _zero_set_dual(dz_p, off, v_c, fac.dn)
        if v is None:
            return None
        res = _first_order_result(d_block, phi, constraint, z_p, v, fac, iters, True)
        return res if res.certified else None

    omega = 1.0
    tau = 1.0 / lnorm
    sigma = 1.0 / lnorm

    # [z; u] in one buffer, so the running sum is one add; step stacks
    # tau K^T over K K^T / L^2, so that one matmul of u+ gives the primal
    # step tau K^T u+ and e, which is sigma K (z - z+) for every primal
    # weight, as sigma tau = 1/L^2
    state = np.empty(n + k_mat.shape[0])
    z, u = state[:n], state[n:]
    step = np.empty((len(state), len(u)))
    np.matmul(k_mat, k_mat.T, out=step[n:])
    step[n:] /= lnorm * lnorm
    ge = np.empty_like(state)
    tg, e = ge[:n], ge[n:]
    h = np.empty_like(u)  # sigma K z - [0; sigma y]
    w = np.empty_like(u)  # the dual step's input, then the primal residual

    def start_at(c: np.ndarray) -> None:
        """Restart the recurrence at the pair c = [z; u] with the current
        steps: no extrapolation, so e = 0."""
        state[:] = c
        np.multiply(k_mat.T, tau, out=step[:n])
        np.matmul(k_mat, z, out=h)
        np.multiply(h, sigma, out=h)
        h[p:] -= sigma * y
        e.fill(0.0)

    z0 = _feasible_start(phi, fac.pinv, constraint)
    dz0 = d_block @ z0  # the polish's base point
    last = np.concatenate([z0, np.zeros_like(u)])  # the last restart point
    start_at(last)
    err_last = kkt_error(z, u)
    stop = _TOL * max(_norm(y), 1e-12)

    err_prev = math.inf  # candidate error at the previous check
    total = np.zeros_like(state)
    n_avg = 0
    iters = 0
    tried = None  # the last face guess a peek tried
    hi = np.full_like(u, np.inf)  # clipping to [-hi, hi] boxes the l1 block alone
    hi[:p] = 1.0
    lo = -hi
    wc, uc = w[p:], u[p:]
    while iters < opts.max_iters:
        np.add(u, h, out=w)
        w -= e
        np.maximum(w, lo, out=u)
        np.minimum(u, hi, out=u)
        if not polish:
            # Moreau: v - sigma proj(v / sigma) for v = w + sigma y and the
            # ball of radius epsilon about y is w shrunk by sigma epsilon
            nrm = math.sqrt(wc @ wc)
            np.multiply(wc, 1.0 - sigma * eps / nrm if nrm > sigma * eps else 0.0, out=uc)

        np.matmul(step, u, out=ge)
        r_d = math.sqrt(tg @ tg) / tau
        z -= tg
        h -= e
        total += state
        n_avg += 1
        iters += 1
        if r_d <= stop:
            w -= u
            w -= h
            if math.sqrt(w @ w) / sigma <= stop:  # the primal gap, needed only now
                return (polish and polished(u, face_of(h[:p]))) or result(z.copy(), u.copy(), True)
        if iters % _PEEK_EVERY:
            continue
        if polish:
            face = face_of(h[:p])
            if tried is None or (face != tried).any():
                tried = face
                done = polished(u, face)
                if done:
                    return done
        if iters % _RESTART_EVERY:
            continue

        avg = total / n_avg
        err_avg = kkt_error(avg[:n], avg[n:])
        err_cur = kkt_error(z, u)
        is_avg = err_avg < err_cur
        c, err_c = (avg, err_avg) if is_avg else (state.copy(), err_cur)
        if polish and is_avg:  # the iterate's face is the peek's
            done = polished(avg[n:], face_of(d_block @ avg[:n]))
            if done:
                return done
        restart = (
            err_c <= _SUFFICIENT_DECAY * err_last
            or (err_c <= _NECESSARY_DECAY * err_last and err_c > err_prev)
            or n_avg >= _ARTIFICIAL_RESTART * iters
        )
        err_prev = err_c
        if not restart:
            continue
        dz = _norm(c[:n] - last[:n])
        du = _norm(c[n:] - last[n:])
        if dz > _MIN_MOVE and du > _MIN_MOVE:
            omega = math.sqrt(omega * du / dz)  # halfway to du/dz in log scale
            tau = 1.0 / (lnorm * omega)
            sigma = omega / lnorm
        start_at(c)
        last, err_last = c, err_c
        err_prev = math.inf
        total.fill(0.0)
        n_avg = 0
    return result(z.copy(), u.copy(), False)


def _first_order_result(
    d_block: np.ndarray, sensing: np.ndarray, constraint: ConstraintSpec,
    z: np.ndarray, v: np.ndarray, fac: _Factors, iterations: int, converged: bool,
) -> RecoveryResult:
    """_result for a first-order point z and l1 dual v, repaired by
    matvecs with the solve's factors: v is clipped to the unit box, loses
    the least-norm part that leaves d_block^T v outside range(sensing^T)
    (its leak dn^T v) and is rescaled into the box; w = -(sensing^+)^T
    d_block^T v solves sensing^T w = -d_block^T v by least squares; the
    gap is measured at z moved onto B(y) along sensing^+."""
    v = np.clip(v, -1.0, 1.0)
    v = v - fac.leak_pinv @ (fac.dn.T @ v)
    v = v / max(1.0, float(np.abs(v).max()))
    w = -fac.pinv.T @ (d_block.T @ v)

    r = sensing @ z - constraint.y
    if constraint.kind == "l2-ball":
        nrm = _norm(r)
        r = r * (1.0 - constraint.epsilon / nrm) if nrm > constraint.epsilon else np.zeros_like(r)
    return _result(d_block, sensing, constraint, z, z - fac.pinv @ r, v, w, iterations, converged)


def _solve_first_order(
    d_block: np.ndarray, sensing: np.ndarray, constraint: ConstraintSpec, opts: SolverOptions
) -> RecoveryResult:
    """min ||d_block z||_1 over sensing z in B(y), shared by both routes.

    Checks the input, scales it into the band of _to_band, factors once
    (_factor: one SVD of sensing gives sensing^+ and the null basis) and
    returns _pdhg's certified result, scaled back.
    """
    if constraint.kind == "dantzig":
        raise ValueError(
            "the first-order path handles equality and l2-ball; "
            "use the LP route for dantzig"
        )
    _vector("y", constraint.y, sensing.shape[0])
    constraint, e = _to_band(constraint)
    return _from_band(_pdhg(d_block, sensing, constraint, opts, _factor(d_block, sensing)), e)


def solve_analysis_l1(
    phi,
    dictionary: Dictionary,
    constraint: ConstraintSpec,
    options: SolverOptions | None = None,
) -> RecoveryResult:
    """min ||D z||_1 over z in B(y) (the analysis route).

    The first-order path handles equality and l2-ball; the dantzig set has
    no closed-form projection and lives on the LP path only
    (solve_lp_certified). Both kinds come back with a checked
    certificate: certified and certification_gap (see RecoveryResult).
    """
    phi_e = _sensing_for(phi, dictionary)
    return _solve_first_order(dictionary.entries, phi_e, constraint, options or SolverOptions())


def solve_synthesis_l1(
    phi,
    synthesis: Dictionary | np.ndarray,
    constraint: ConstraintSpec,
    options: SolverOptions | None = None,
) -> RecoveryResult:
    """min ||alpha||_1 with x = S alpha in B(y) (the synthesis route).

    synthesis is either an explicit n x q atom matrix or a Dictionary,
    whose transpose supplies the atoms (exact inverse when orthogonal).
    This is the analysis program with (I_q, Phi S) in place of (D, Phi);
    it returns x_hat = S alpha with the coefficient l1 norm as objective.
    Equality and l2-ball only, like solve_analysis_l1.
    """
    phi_e = sensing_entries(phi)
    if isinstance(synthesis, Dictionary):
        atoms = synthesis.entries.T
    else:
        atoms = np.asarray(synthesis, dtype=np.float64)
        _check_matrix(atoms, "synthesis atom matrix")
    if atoms.shape[0] != phi_e.shape[1]:
        raise ValueError("synthesis atoms live in the wrong dimension")

    res = _solve_first_order(
        np.eye(atoms.shape[1]), phi_e @ atoms, constraint, options or SolverOptions()
    )
    x_hat = atoms @ res.x_hat
    x_hat.setflags(write=False)
    return replace(res, x_hat=x_hat)


def _refuse_lp(n: int, p: int, kind: str) -> int:
    """The budget guard of the LP route: its variable count in closed
    form, [z+ (n), z- (n), s+ (p), s- (p)] plus, for dantzig, 2n
    correlation slacks. Returns the count when within MAX_LP_VARIABLES."""
    nvar = 2 * n + 2 * p + (2 * n if kind == "dantzig" else 0)
    if nvar > MAX_LP_VARIABLES:
        raise ValueError(
            f"certification LP needs {nvar} variables, budget is {MAX_LP_VARIABLES}"
        )
    return nvar


def _build_lp(
    d_block: np.ndarray, phi: np.ndarray, constraint: ConstraintSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard-form LP for min ||d_block z||_1 over the polyhedral sets.

    Variables: [z+ (n), z- (n), s+ (p), s- (p), slacks], the split form of
    basis pursuit: one row d_block (z+ - z-) - s+ + s- = 0 per analysis
    coordinate, cost 1 on s+ and s-. The equality measurement rows follow
    without slacks; the dantzig correlation rows follow with one slack
    each, 2n in all.
    """
    p, n = d_block.shape
    kind = constraint.kind
    if kind == "equality":
        rows = p + phi.shape[0]
    elif kind == "dantzig":
        gram = phi.T @ phi
        b = phi.T @ constraint.y
        rows = p + 2 * n
    else:
        raise ValueError("LP route supports equality and dantzig only")
    nvar = _refuse_lp(n, p, kind)

    a = np.zeros((rows, nvar))
    rhs = np.zeros(rows)
    c = np.zeros(nvar)
    c[2 * n : 2 * n + 2 * p] = 1.0  # minimize sum (s+ + s-) = ||d_block z||_1

    # d_block z = s+ - s-, one row per analysis coordinate
    a[:p, :n] = d_block
    a[:p, n : 2 * n] = -d_block
    a[:p, 2 * n : 2 * n + p] = -np.eye(p)
    a[:p, 2 * n + p : 2 * n + 2 * p] = np.eye(p)

    if kind == "equality":
        a[p:, :n] = phi
        a[p:, n : 2 * n] = -phi
        rhs[p:] = constraint.y
    else:
        lam = constraint.lam
        a[p : p + n, :n] = gram
        a[p : p + n, n : 2 * n] = -gram
        a[p : p + n, 2 * n + 2 * p : 2 * n + 2 * p + n] = np.eye(n)
        rhs[p : p + n] = b + lam
        a[p + n :, :n] = -gram
        a[p + n :, n : 2 * n] = gram
        a[p + n :, 2 * n + 2 * p + n :] = np.eye(n)
        rhs[p + n :] = lam - b
    return c, a, rhs


def _lp_start(
    d_block: np.ndarray, phi: np.ndarray, constraint: ConstraintSpec
) -> tuple[np.ndarray | slice, ConstraintSpec, np.ndarray, np.ndarray, np.ndarray]:
    """The LP of _build_lp and a feasible start of it in closed form: the
    rows of Phi the LP keeps, its constraint on them, and
    simplex._solve_from's (basis, superbasic columns, their values).

    Elimination with column pivoting picks r = rank Phi independent rows
    R and columns J of Phi, at any (m, n): row i takes the column of its
    largest remaining entry, and a row whose remaining entries are all
    at or below _RANK_TOL max |Phi| is skipped as dependent. z is zero
    off J; z_J solves Phi_J z_J = y when r = m and is the least-squares
    solution on Phi[:, J] otherwise, so Phi^T (Phi z - y) = 0 either way.
    Analysis row i takes s+_i when (D z)_i >= 0 and s-_i otherwise, at
    |(D z)_i|; j in J takes z+_j when z_j >= 0 and z-_j otherwise, at
    |z_j|.

    Equality: with r = m the LP keeps every row, as slice(None), and the
    caller's constraint. With r < m a y off range(Phi) is refused by
    _refuse_miss, and the LP keeps the rows R, with y_R replaced by
    (Phi z)_R, the rows R of y's projection onto range(Phi): its answer
    misses y by no more than z does. The basis is the slack and signal
    columns, with no superbasic ones. B = [[+-I, +-D_J], [0, +-Phi_RJ]] is
    nonsingular with Phi_RJ, and B^-1 b is |D z| and |z_J|: a vertex.
    Dantzig: every row and the constraint are kept, and every correlation
    slack t+-_k equals lam. The basis is the analysis slack columns plus
    all 2n correlation slacks, a signed identity, so its inverse is
    exact; the signal columns are superbasic at |z_J|, and
    simplex._solve_from steps them to a vertex.
    """
    p, n = d_block.shape
    m = phi.shape[0]
    u = phi.copy()
    tol = _RANK_TOL * float(np.abs(phi).max(initial=0.0))
    rows, cols = [], []
    for i in range(m):
        row = np.abs(u[i])
        row[cols] = 0.0  # eliminated below earlier pivots, up to roundoff
        j = int(row.argmax())
        if row[j] <= tol:
            continue  # dependent on the rows above
        rows.append(i)
        cols.append(j)
        u[i + 1 :] -= (u[i + 1 :, j] / u[i, j])[:, None] * u[i]
    kept, lp = slice(None), constraint
    if len(rows) == m:
        z = np.linalg.solve(phi[:, cols], constraint.y)
    else:
        z = np.linalg.lstsq(phi[:, cols], constraint.y)[0]
        if constraint.kind == "equality":
            _refuse_miss(phi[:, cols], z, constraint)  # range(Phi_J) is range(Phi)
            kept = np.array(rows, dtype=int)
            lp = ConstraintSpec("equality", phi[kept][:, cols] @ z)
    slacks = np.arange(2 * n, 2 * n + p) + p * (d_block[:, cols] @ z < 0.0)
    signals = np.array(cols, dtype=int) + n * (z < 0.0)
    if constraint.kind == "equality":
        return kept, lp, np.concatenate([slacks, signals]), signals[:0], z[:0]
    return kept, lp, np.concatenate([slacks, np.arange(2 * n + 2 * p, 4 * n + 2 * p)]), signals, np.abs(z)


def solve_lp_certified(
    phi,
    dictionary: Dictionary,
    constraint: ConstraintSpec,
) -> RecoveryResult:
    """Exact analysis-l1 minimizer via the simplex.

    Only the polyhedral kinds (equality, dantzig) are expressible;
    iterations reports pivot count, a dantzig LP's purification steps
    included. Every LP, whatever the rank and shape of Phi, starts phase
    2 at the closed-form point of _lp_start: a vertex on equality and,
    on dantzig, a point that the simplex steps to a vertex first. An
    equality y off range(Phi) raises InfeasibleConstraintError, its miss
    given relative to ||y||, as on the first-order route. The returned
    point is an optimal vertex z = z+ - z-; the dual pair is read off the
    simplex multipliers pi of its basis, v = -pi[:p] from the analysis
    rows and w from the measurement rows (w = -pi[p:] for equality, 0 on
    the rows the LP drops as dependent; pi[p+n:] - pi[p:p+n] for
    dantzig), and checked against the same fixed tolerances as the
    first-order path. A y outside the band of _to_band is solved scaled
    into it, and the result scaled back.
    """
    phi_e = _sensing_for(phi, dictionary)
    _vector("y", constraint.y, phi_e.shape[0])
    constraint, e = _to_band(constraint)
    d_block = dictionary.entries
    kept, lp, *start = _lp_start(d_block, phi_e, constraint)
    c, a, b = _build_lp(d_block, phi_e[kept], lp)
    sol = _solve_from(c, a, b, *start)
    p, n = d_block.shape
    z = sol.x[:n] - sol.x[n : 2 * n]
    pi = sol.multipliers
    v = -pi[:p]
    if constraint.kind == "equality":
        w = np.zeros(phi_e.shape[0])
        w[kept] = -pi[p:]
    else:
        w = pi[p + n :] - pi[p : p + n]
    return _from_band(_result(d_block, phi_e, constraint, z, z, v, w, sol.pivots, True), e)
