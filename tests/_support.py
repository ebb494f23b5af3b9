"""Shared instance builders and independent oracles for the test suite.

Everything here is derived from first principles (brute-force
enumeration, closed forms, direct RNG draws) so the tests cross-check the
package instead of echoing it.
"""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

import cosparse_grip as cg


def haar(n: int, seed: int) -> np.ndarray:
    """Orthogonal matrix from QR of a seeded Gaussian, R-sign fixed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))[None, :]


def matched_instance(n: int, m: int, seed: int):
    """Orthogonal analysis operator plus a complement sensing matrix.

    The sensing rows form a scaled orthonormal basis of the hyperplane
    orthogonal to the direction every analysis row sees equally, so the
    restricted spectra have the closed form checked by matched_delta.
    """
    d = cg.Dictionary(haar(n, seed).T, kind="user-supplied")
    s = d.entries.T @ (np.ones(n) / np.sqrt(n))
    basis = np.linalg.svd(np.eye(n) - np.outer(s, s))[0][:, :m]
    phi = cg.SensingMatrix(np.sqrt(n / m) * basis.T, kind="user-supplied")
    return d, phi


def matched_delta(n: int, m: int, order: int) -> float:
    """Closed-form restricted-isometry constant of matched_instance.

    Every size-`order` restricted Gram has eigenvalues n/m (order-1 times)
    and (n/m)(1 - order/n) once, independent of the support.
    """
    hi = n / m - 1.0
    lo = 1.0 - (n / m) * (n - order) / n
    return max(hi, lo)


def campaign_trial(campaign_seed: int, index: int):
    """Operators, signal and equality constraint of one trial of a solve
    campaign (tight frame 14x10, gaussian m = 6, k = 5), drawn the way
    the campaign's solve trial draws them."""
    seed = cg.trial_seed(campaign_seed, index)
    d = cg.make_dictionary("tight-frame", 14, 10, cg.trial_seed(seed, 0))
    phi = cg.make_sensing_matrix("gaussian", 6, 10, cg.trial_seed(seed, 1))
    x = cg.sample_cosparse_signal(d, 5, cg.trial_seed(seed, 2))
    return phi, d, cg.ConstraintSpec("equality", phi.entries @ x)


def solve_recovery_family(campaign_seeds) -> int:
    """Solve the 24 trials of each seed's solve campaign (seed 11 is the
    `recovery` benchmark's family, ungauged); each must be certified,
    converged and within 1e-12 relative of solve_lp_certified. Returns
    the total PDHG iterations."""
    total = 0
    for campaign_seed in campaign_seeds:
        for i in range(24):
            phi, d, spec = campaign_trial(campaign_seed, i)
            res = cg.solve_analysis_l1(phi, d, spec)
            lp = cg.solve_lp_certified(phi, d, spec)
            assert res.certified and res.converged, (campaign_seed, i)
            assert abs(res.objective - lp.objective) <= 1e-12 * max(1.0, res.objective), (
                campaign_seed, i
            )
            total += res.iterations
    return total


def reference_pdhg(d_block: np.ndarray, phi: np.ndarray, constraint, max_iters: int = 200000):
    """The unpolished restarted primal-dual iteration of solvers._pdhg in
    its textbook form, carrying K x and K x_prev: (last iterate z,
    iterations). On the equality set the primal is c in null(Phi)
    coordinates, z = z0 + N^T c with z0 = Phi^+ y and N a basis of
    null(Phi), and the problem is min ||K c + D z0||_1 with K = D N^T and
    the l1 dual alone; on the l2 ball the primal is z, with K = [D; Phi]
    and an l1 and a constraint dual block. Each step extrapolates the
    dual input to sigma (2 K x - K x_prev), takes the conjugate prox of
    the blocks (on equality, of ||. + D z0||_1: the clip of the input
    plus sigma D z0), and moves x by -tau K^T u; the stop, the restart
    checks and the primal weight are _pdhg's, with the reduced problem's
    KKT error on equality. Like the solvers, it solves a y outside
    solvers._to_band's band scaled into it, and scales z back."""
    from cosparse_grip import solvers

    constraint, e = solvers._to_band(constraint)
    p = d_block.shape[0]
    y, eps = constraint.y, constraint.epsilon
    fac = solvers._factor(d_block, phi)
    z0 = solvers._feasible_start(phi, fac.pinv, constraint)
    equality = constraint.kind == "equality"
    if equality:
        k_mat, dz0 = fac.dn, d_block @ z0
        x = np.zeros(k_mat.shape[1])
    else:
        k_mat, x = np.vstack([d_block, phi]), z0
    lnorm = float(np.linalg.norm(k_mat, 2))

    def kkt_error(x, u):
        if equality:
            dual = math.hypot(float(np.linalg.norm(k_mat.T @ u)), max(0.0, float(np.abs(u).max()) - 1.0))
            gap = float(np.abs(k_mat @ x + dz0).sum()) - float(dz0 @ u)
            return math.hypot(dual, gap)
        primal, dual, gap, _ = solvers._kkt(d_block, phi, constraint, x, u[:p], u[p:])
        return math.sqrt(primal * primal + dual * dual + gap * gap)

    omega, tau, sigma = 1.0, 1.0 / lnorm, 1.0 / lnorm
    u = np.zeros(k_mat.shape[0])
    kx = kx_prev = k_mat @ x
    stop = solvers._TOL * max(float(np.linalg.norm(y)), 1e-12)
    x_last, u_last, err_last = x, u, kkt_error(x, u)
    err_prev = math.inf
    x_sum, u_sum, n_avg = np.zeros_like(x), np.zeros_like(u), 0
    iters = 0
    while iters < max_iters:
        v = u + sigma * (2.0 * kx - kx_prev)
        if equality:
            u_new = np.clip(v + sigma * dz0, -1.0, 1.0)
        else:
            u_new = np.empty_like(u)
            u_new[:p] = np.clip(v[:p], -1.0, 1.0)
            dev = v[p:] / sigma - y
            nrm = float(np.linalg.norm(dev))
            proj = y + dev * (eps / nrm) if nrm > eps else v[p:] / sigma
            u_new[p:] = v[p:] - sigma * proj
        g = k_mat.T @ u_new
        x_new = x - tau * g
        kx_new = k_mat @ x_new
        r_d = float(np.linalg.norm(g))
        # on equality (v + sigma D z0 - u_new) / sigma - (K x_new + D z0)
        r_p = float(np.linalg.norm((v - u_new) / sigma - kx_new))
        u, x, kx_prev, kx = u_new, x_new, kx, kx_new
        x_sum, u_sum, n_avg = x_sum + x, u_sum + u, n_avg + 1
        iters += 1
        if max(r_p, r_d) <= stop:
            break
        if iters % solvers._RESTART_EVERY:
            continue
        x_avg, u_avg = x_sum / n_avg, u_sum / n_avg
        err_avg, err_cur = kkt_error(x_avg, u_avg), kkt_error(x, u)
        x_c, u_c, err_c = (x_avg, u_avg, err_avg) if err_avg < err_cur else (x, u, err_cur)
        restart = (
            err_c <= solvers._SUFFICIENT_DECAY * err_last
            or (err_c <= solvers._NECESSARY_DECAY * err_last and err_c > err_prev)
            or n_avg >= solvers._ARTIFICIAL_RESTART * iters
        )
        err_prev = err_c
        if not restart:
            continue
        dx, du = float(np.linalg.norm(x_c - x_last)), float(np.linalg.norm(u_c - u_last))
        if dx > solvers._MIN_MOVE and du > solvers._MIN_MOVE:
            omega = math.sqrt(omega * du / dx)
            tau, sigma = 1.0 / (lnorm * omega), omega / lnorm
        x, u = x_c, u_c
        kx = kx_prev = k_mat @ x
        x_last, u_last, err_last, err_prev = x, u, err_c, math.inf
        x_sum, u_sum, n_avg = np.zeros_like(x), np.zeros_like(u), 0
    return np.ldexp(z0 + fac.null.T @ x if equality else x, -e), iters


def _exact_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """The solution of a nonsingular square system in exact rationals:
    elimination taking the first nonzero pivot down each column, then
    back substitution."""
    size = len(rhs)
    aug = [row + [r] for row, r in zip(rows, rhs)]
    for k in range(size):
        piv = next(i for i in range(k, size) if aug[i][k] != 0)
        aug[k], aug[piv] = aug[piv], aug[k]
        head = aug[k]
        for i in range(k + 1, size):
            if aug[i][k] != 0:
                f = aug[i][k] / head[k]
                aug[i] = [u - f * v for u, v in zip(aug[i], head)]
    out = [Fraction(0)] * size
    for k in reversed(range(size)):
        acc = aug[k][size] - sum(aug[k][j] * out[j] for j in range(k + 1, size) if aug[k][j])
        out[k] = acc / aug[k][k]
    return out


def rational_basis_audit(c, a, b, basis) -> tuple[list[Fraction], list[Fraction]]:
    """(B^-1 b, c - c_B B^-1 a) of a final simplex basis, in exact
    rationals: every float of the LP is read as the binary fraction it
    is, and nothing is rounded (Applegate, Cook, Dash & Espinoza, Oper.
    Res. Lett. 2007). The basis must hold one column per row of a. The
    basis is primal feasible when every entry of the first list is >= 0
    and optimal when every entry of the second is."""
    fa = [[Fraction(float(v)) for v in row] for row in a]
    cols = [int(j) for j in basis]
    assert len(cols) == len(fa)
    x_b = _exact_solve([[row[j] for j in cols] for row in fa], [Fraction(float(v)) for v in b])
    cost = [Fraction(float(v)) for v in c]
    pi = _exact_solve([[row[j] for row in fa] for j in cols], [cost[j] for j in cols])
    reduced = [
        cost[j] - sum(pi[i] * fa[i][j] for i in range(len(fa)) if fa[i][j])
        for j in range(len(cost))
    ]
    return x_b, reduced


# ---------------------------------------------------------------------------
# the reference pivot loop: as it was before its numpy calls were trimmed,
# kept so tests can demand the same pivots and bit-for-bit the same
# answers from the fast path


def reference_pivot_to_optimum(c, a, b, basis, binv):
    """simplex._pivot_to_optimum with the masked argmin for pricing, the
    eligible mask built in both modes, and np.maximum over every row
    before the ratio test's rows are taken."""
    from cosparse_grip import simplex

    pivots = degenerate = 0
    updates = 0
    cb = c[basis]
    while True:
        if binv is None:
            binv, updates = np.linalg.inv(a[:, basis]), 0
        y = cb @ binv
        reduced = c - y @ a
        reduced[basis] = 0.0
        eligible = reduced < -simplex._COST_TOL * np.maximum.reduce(np.abs(y), initial=1.0)
        if degenerate < basis.size:
            enter = np.where(eligible, reduced, np.inf).argmin()
        else:
            enter = eligible.argmax()
        if not eligible[enter]:
            bm = a[:, basis]
            xb, y = np.linalg.solve(np.stack([bm, bm.T]), np.stack([b, cb])[..., None])[..., 0]
            if updates:
                reduced = c - y @ a
                reduced[basis] = 0.0
                if (reduced < -simplex._COST_TOL * np.maximum.reduce(np.abs(y), initial=1.0)).any():
                    binv = None
                    continue
            return pivots, xb, y
        col = binv @ a[:, enter]
        rows = (col > simplex._PIVOT_TOL * np.maximum.reduce(np.abs(col), initial=1.0)).nonzero()[0]
        if rows.size == 0:
            if updates:
                binv = None
                continue
            raise simplex.LpUnboundedError("objective unbounded along entering column")
        ratios = np.maximum(binv @ b, 0.0)[rows] / col[rows]
        step = ratios.min()
        ties = rows[ratios <= step + 1e-12]
        r = ties[basis[ties].argmin()]
        basis[r] = enter
        cb[r] = c[enter]
        degenerate = degenerate + 1 if step <= 1e-12 else 0
        pivots += 1
        if pivots > simplex._MAX_PIVOTS:
            raise RuntimeError(f"simplex exceeded {simplex._MAX_PIVOTS} pivots")
        updates += 1
        if updates >= simplex._REFACTOR_EVERY:
            binv = None
        else:
            simplex._update_inverse(binv, col, r)


def classical_delta(phi_entries: np.ndarray, k: int) -> float:
    """Brute-force classical restricted-isometry constant of order k."""
    n = phi_entries.shape[1]
    worst = 0.0
    for sup in combinations(range(n), k):
        g = phi_entries[:, list(sup)]
        ev = np.linalg.eigvalsh(g.T @ g)
        worst = max(worst, ev[-1] - 1.0, 1.0 - ev[0])
    return worst


def brute_rho(d_entries: np.ndarray, k: int) -> float:
    """Brute-force inter-support coherence: largest principal cosine
    between projected disjoint size-k coordinate masks."""
    p = d_entries.shape[0]
    proj = d_entries @ np.linalg.pinv(d_entries)
    worst = 0.0
    for sup_i in combinations(range(p), k):
        qi = np.linalg.svd(proj[:, list(sup_i)], full_matrices=False)[0]
        for sup_j in combinations(range(p), k):
            if set(sup_i) & set(sup_j):
                continue
            qj = np.linalg.svd(proj[:, list(sup_j)], full_matrices=False)[0]
            s = np.linalg.svd(qi.T @ qj, compute_uv=False)
            worst = max(worst, float(s[0]))
    return min(worst, 1.0)


def assert_svd_factors(d):
    """pinv() has the bits of np.linalg.pinv; projector() is symmetric and
    idempotent within a few eps and fixes range(D)."""
    eps = np.finfo(np.float64).eps
    assert np.array_equal(d.pinv(), np.linalg.pinv(d.entries))
    proj = d.projector()
    assert proj.shape == (d.p, d.p)
    assert np.abs(proj - proj.T).max() <= 4 * eps
    assert np.abs(proj @ proj - proj).max() <= 32 * eps
    assert np.allclose(proj @ d.entries, d.entries, rtol=0.0, atol=1e-12 * np.abs(d.entries).max())


def random_chunk(d: cg.Dictionary, support: cg.SupportSet, rng) -> np.ndarray:
    """D^+ applied to a random vector masked on the support."""
    z = np.zeros(d.p)
    z[list(support.indices)] = rng.standard_normal(support.size)
    return d.pinv() @ z


def brute_delta(phi_entries: np.ndarray, d_entries: np.ndarray, k: int) -> float:
    """Independent route to the restricted-isometry constant.

    Lower side from raw restricted Grams of Phi D^+, upper side from
    scipy's generalized symmetric eigensolver on the restricted pencil,
    neither shared with the package implementation.
    """
    import scipy.linalg

    p = d_entries.shape[0]
    pinv = np.linalg.pinv(d_entries)
    a = phi_entries @ pinv
    worst = 0.0
    for sup in combinations(range(p), k):
        cols = list(sup)
        asub = a[:, cols]
        ev = np.linalg.eigvalsh(asub.T @ asub)
        worst = max(worst, 1.0 - ev[0])
        basis = np.linalg.svd(pinv[:, cols], full_matrices=False)
        rank = int(np.sum(basis[1] > 1e-10 * basis[1][0]))
        b = basis[0][:, :rank]
        lhs = b.T @ phi_entries.T @ phi_entries @ b
        rhs = b.T @ d_entries.T @ d_entries @ b
        ev2 = scipy.linalg.eigh(lhs, rhs, eigvals_only=True)
        worst = max(worst, ev2[-1] - 1.0)
    return worst


def highs_lp(c, a, b):
    """HiGHS's answer (scipy.optimize.linprog) to min c x s.t. a x = b,
    x >= 0, the independent reference of the simplex tests: status 0
    optimal (optimum fun), 2 infeasible, 3 unbounded."""
    import scipy.optimize

    return scipy.optimize.linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * len(c), method="highs")


def highs_l1(d_block: np.ndarray, phi: np.ndarray, constraint):
    """HiGHS's answer to min ||d_block z||_1 over the equality or dantzig
    set, posed apart from the package's LP: z free, d_block z = s+ - s-
    with s+- >= 0, and every row of Phi, as equality rows Phi z = y or as
    the 2n inequalities |Phi^T (Phi z - y)| <= lam."""
    import scipy.optimize

    p, n = d_block.shape
    c = np.concatenate([np.zeros(n), np.ones(2 * p)])
    a_eq = np.hstack([d_block, -np.eye(p), np.eye(p)])
    b_eq = np.zeros(p)
    a_ub = b_ub = None
    if constraint.kind == "equality":
        a_eq = np.vstack([a_eq, np.hstack([phi, np.zeros((phi.shape[0], 2 * p))])])
        b_eq = np.concatenate([b_eq, constraint.y])
    else:
        gram, corr = phi.T @ phi, phi.T @ constraint.y
        a_ub = np.hstack([np.vstack([gram, -gram]), np.zeros((2 * n, 2 * p))])
        b_ub = np.concatenate([constraint.lam + corr, constraint.lam - corr])
    bounds = [(None, None)] * n + [(0, None)] * (2 * p)
    return scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")


def eigh_principal_bounds(supersets: np.ndarray, gram: np.ndarray, proj: np.ndarray):
    """(upper, lower) bounds of grip._principal_bounds whitened by an eigh
    of each P[U, U] block: a row bounds only when lambda_min(P[U, U]) is
    above _PRUNE_FLOOR^2 max(lambda_max(P[U, U]), _TRIVIAL_TOL), upper is
    the top eigenvalue of the whitened G[U, U] and lower
    lambda_min(G[U, U]); other rows get +inf and -inf."""
    from cosparse_grip import grip

    block = (supersets[:, :, None], supersets[:, None, :])
    g = gram[block]
    w, v = np.linalg.eigh(proj[block])
    ok = w[:, 0] > grip._PRUNE_FLOOR**2 * np.fmax(w[:, -1], grip._TRIVIAL_TOL)
    white = v[ok] / np.sqrt(w[ok])[:, None, :]  # white^T P[U, U] white = I
    upper = np.full(len(supersets), math.inf)
    lower = np.full(len(supersets), -math.inf)
    upper[ok] = np.linalg.eigvalsh(np.swapaxes(white, 1, 2) @ g[ok] @ white)[:, -1]
    lower[ok] = np.linalg.eigvalsh(g[ok])[:, 0]
    return upper, lower


# ---------------------------------------------------------------------------
# per-support reference scans: the loops the batched grip scans replaced,
# kept here so tests can demand bit-for-bit agreement with them


def _loop_orth(cols: np.ndarray) -> np.ndarray:
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0))
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    # columns of the projector P = UU^T, whose norm is 1: the cutoff is
    # 1e-10 absolute
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    return u[:, :rank]


def _loop_extremes(support, a_cols, gram, proj):
    idx = list(support)
    asub = a_cols[:, idx]
    lower = float(np.linalg.eigvalsh(asub.T @ asub)[0])
    basis = _loop_orth(proj[:, idx])
    if basis.shape[1] == 0:
        return lower, lower
    return lower, float(np.linalg.eigvalsh(basis.T @ (gram @ basis))[-1])


def colex_supports(p: int, k: int) -> list[tuple[int, ...]]:
    """All size-k supports, colexicographic order (last index slowest)."""
    return sorted(combinations(range(p), k), key=lambda s: s[::-1])


def greedy_cover(p: int, k: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The greedy cover of the colex k-sets by (k+2)-sets, one set at a
    time: (supersets, members). Each step takes the first uncovered k-set
    T and adds the pair {e, f} outside T whose superset covers the most
    uncovered k-sets, ties going to the smallest e and then the smallest
    f; members[g] lists the colex ranks of all k-subsets of superset g,
    ascending."""
    sets = colex_supports(p, k)
    rank = {s: i for i, s in enumerate(sets)}
    uncovered = set(sets)
    supersets, members = [], []
    for t in sets:
        if t not in uncovered:
            continue
        best, best_new = None, -1
        for e, f in combinations([c for c in range(p) if c not in t], 2):
            grown = tuple(sorted(t + (e, f)))
            new = sum(s in uncovered for s in combinations(grown, k))
            if new > best_new:
                best, best_new = grown, new
        uncovered.difference_update(combinations(best, k))
        supersets.append(best)
        members.append(sorted(rank[s] for s in combinations(best, k)))
    return supersets, members


def sampled_supports(p: int, k: int, trials: int, seed) -> list[tuple[int, ...]]:
    """The supports delta_monte_carlo draws when trials < C(p, k): per row
    of trials x p uniforms, the sorted first k of its stable argsort."""
    uniforms = np.random.default_rng(seed).random((trials, p))
    return [
        tuple(int(i) for i in np.sort(np.argsort(row, kind="stable")[:k]))
        for row in uniforms
    ]


def loop_delta(phi_entries: np.ndarray, d: cg.Dictionary, supports):
    """Per-support scan: (delta, worst support, eigen_range), the first
    attaining support winning ties."""
    a_cols = phi_entries @ d.pinv()
    gram = a_cols.T @ a_cols
    proj = d.projector()
    best, witness = -np.inf, None
    lo_min, hi_max = np.inf, -np.inf
    for sup in supports:
        lower, upper = _loop_extremes(sup, a_cols, gram, proj)
        lo_min = min(lo_min, lower)
        hi_max = max(hi_max, upper)
        delta = max(upper - 1.0, 1.0 - lower)
        if delta > best:
            best, witness = delta, sup
    return float(best), witness, (float(lo_min), float(hi_max))


def loop_rho(d: cg.Dictionary, k: int):
    """Per-pair scan over disjoint colex pairs: (rho, witness pair), rank-0
    subspaces skipped, the first attaining pair winning ties. Two
    subspaces of range(D), of dimension n, whose ranks sum past n meet:
    when some disjoint pair's do, rho is 1.0 and the first such pair is
    the witness."""
    supports = colex_supports(d.p, k)
    proj = d.projector()
    bases = [_loop_orth(proj[:, list(s)]) for s in supports]
    for i, si in enumerate(supports):
        for j in range(i + 1, len(supports)):
            sj = supports[j]
            if not set(si) & set(sj) and bases[i].shape[1] + bases[j].shape[1] > d.n:
                return 1.0, (si, sj)
    best, witness = -1.0, None
    for i, si in enumerate(supports):
        if bases[i].shape[1] == 0:
            continue
        for j in range(i + 1, len(supports)):
            sj = supports[j]
            if set(si) & set(sj) or bases[j].shape[1] == 0:
                continue
            top = float(np.linalg.svd(bases[i].T @ bases[j], compute_uv=False)[0])
            if top > best:
                best, witness = top, (si, sj)
    return min(max(best, 0.0), 1.0), witness


# ---------------------------------------------------------------------------
# per-direction reference checks: the Corollary 1 and 2 arithmetic the
# stacked verify kernels replaced, kept so tests can demand bit-for-bit
# agreement


def _loop_next_block(u: np.ndarray, head, k: int) -> list[int]:
    head_set = set(head.indices)
    rest = [int(i) for i in np.argsort(-np.abs(u), kind="stable") if int(i) not in head_set]
    return sorted(rest[:k])


def _loop_norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


def loop_corollary1(phi_entries: np.ndarray, d: cg.Dictionary, h_i, h_j, delta2k: float, rho: float):
    """One chunk pair's Corollary 1 check, one vector at a time: (lhs,
    rhs, slack, hypothesis_ok)."""
    lhs = abs(float((phi_entries @ h_i) @ (phi_entries @ h_j)))
    rhs = (delta2k + rho) * _loop_norm(d.entries @ h_i) * _loop_norm(d.entries @ h_j)
    return lhs, rhs, rhs - lhs, delta2k < 1.0


def loop_corollary2(phi_entries: np.ndarray, d: cg.Dictionary, k: int, h, head, delta2k: float, rho: float):
    """One direction's Corollary 2 check, one vector at a time: (lhs, rhs,
    slack, next block, degenerate, hypothesis_ok)."""
    constants = cg.bound_constants(delta2k, rho)
    h = np.asarray(h, dtype=np.float64)
    h_norm = float(np.linalg.norm(h))
    pinv = d.pinv()
    u = d.entries @ h
    lam1_idx = _loop_next_block(u, head, k)
    mask_idx = list(head.indices) + lam1_idx
    z = np.zeros(u.shape[0])
    z[mask_idx] = u[mask_idx]
    mask_norm = _loop_norm(z)
    raw = abs(float((phi_entries @ (pinv @ z)) @ (phi_entries @ h)))
    if mask_norm <= 1e-14 * max(1.0, _loop_norm(u)):
        inner, degenerate = 0.0, raw > 1e-14
    else:
        inner, degenerate = raw / mask_norm, False
    head_set = set(head.indices)
    tail = float(sum(abs(u[i]) for i in range(d.p) if i not in head_set))
    rhs = constants.alpha * tail / math.sqrt(k) + constants.beta * inner
    residual = _loop_norm(pinv @ u - h)
    hypothesis_ok = not degenerate and residual <= 1e-8 * max(1.0, h_norm)
    return mask_norm, rhs, rhs - mask_norm, lam1_idx, degenerate, hypothesis_ok


def _cell_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def cell_emit_csv(result, path) -> None:
    """results.csv cell by cell, built whole and then written: the writer
    the chunked, column-at-a-time `write_outputs` must match byte for byte."""
    lines = []
    if result.rows:
        cols = list(result.rows[0].keys())
        lines.append(",".join(cols))
        for row in result.rows:
            lines.append(",".join(_cell_text(row[c]) for c in cols))
    lines.append("# summary:")
    for key, val in result.summary.items():
        lines.append(f"# {key}={_cell_text(val)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def row_emit_jsonl(result, path) -> None:
    """results.jsonl by one `json.dumps` per row: the writer
    `write_outputs` must match byte for byte."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in result.rows:
            fh.write(json.dumps(row) + "\n")
