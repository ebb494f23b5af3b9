"""Shared instance builders and independent oracles for the test suite.

Everything here is derived from first principles (brute-force
enumeration, closed forms, direct RNG draws) so the tests cross-check the
package instead of echoing it.
"""

import json
import math
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


# ---------------------------------------------------------------------------
# per-support reference scans: the loops the batched grip scans replaced,
# kept here so tests can demand bit-for-bit agreement with them


def _loop_orth(cols: np.ndarray) -> np.ndarray:
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0))
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((cols.shape[0], 0))
    rank = int(np.sum(sv > 1e-10 * sv[0]))
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


def greedy_cover(p: int, k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The greedy cover of the colex k-sets by (k+2)-sets, one set at a
    time: (supersets, owner). Each step takes the first uncovered k-set T
    and adds the pair {e, f} outside T whose superset covers the most
    uncovered k-sets, ties going to the smallest e and then the smallest
    f; owner[i] is the superset that covered k-set i first."""
    sets = colex_supports(p, k)
    rank = {s: i for i, s in enumerate(sets)}
    uncovered = set(sets)
    owner = [-1] * len(sets)
    supersets = []
    for t in sets:
        if t not in uncovered:
            continue
        best, best_new = None, -1
        for e, f in combinations([c for c in range(p) if c not in t], 2):
            grown = tuple(sorted(t + (e, f)))
            new = sum(s in uncovered for s in combinations(grown, k))
            if new > best_new:
                best, best_new = grown, new
        for s in combinations(best, k):
            if s in uncovered:
                uncovered.discard(s)
                owner[rank[s]] = len(supersets)
        supersets.append(best)
    return supersets, owner


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
    pinv = d.pinv()
    a_cols = phi_entries @ pinv
    gram = a_cols.T @ a_cols
    proj = d.entries @ pinv
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
    subspaces skipped, the first attaining pair winning ties."""
    supports = colex_supports(d.p, k)
    proj = d.entries @ d.pinv()
    bases = [_loop_orth(proj[:, list(s)]) for s in supports]
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
# per-direction reference check: the Corollary 2 arithmetic the stacked
# verify kernel replaced, kept so tests can demand bit-for-bit agreement


def _loop_next_block(u: np.ndarray, head, k: int) -> list[int]:
    head_set = set(head.indices)
    rest = [int(i) for i in np.argsort(-np.abs(u), kind="stable") if int(i) not in head_set]
    return sorted(rest[:k])


def _loop_norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


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
        return f"{v:.17g}"
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
