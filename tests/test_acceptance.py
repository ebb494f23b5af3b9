"""Acceptance gate: ten desk-scale criteria, one pass/fail line each.

Verdict lines are echoed immediately (visible with -s or on failure) and
replayed in the terminal summary by conftest, so a logged -v run always
ends with the ten lines. Every criterion enforces its runtime budget.
Instances are seeded; reruns are bit-for-bit repeats.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import conftest
import cosparse_grip as cg
from _support import classical_delta, haar, matched_instance


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    print(line, flush=True)
    conftest.ACCEPTANCE_VERDICTS.append(line)


def _matched_pool(count: int):
    return [matched_instance(10, 9, seed) for seed in range(count)]


def test_acceptance_01_classical_reduction():
    t0 = time.perf_counter()
    d = cg.Dictionary(np.eye(8), "identity")
    worst = 0.0
    for seed in (0, 1, 2):
        phi = cg.make_sensing_matrix("gaussian", 5, 8, seed)
        for k in (1, 2):
            ours = cg.delta_exact(phi, d, k).delta
            ref = classical_delta(phi.entries, k)
            worst = max(worst, abs(ours - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _verdict(
        "criterion 1 (classical reduction)", ok,
        f"max |delta - brute force| = {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_02_sampling_soundness():
    t0 = time.perf_counter()
    kinds = ("identity", "orthogonal", "tight-frame")
    sound = exhaustive = exhaustive_equal = 0
    for i in range(50):
        kind = kinds[i % 3]
        n = 6 + (i % 3)
        p = n if kind != "tight-frame" else n + 3
        k = 1 + (i % 3)
        d = cg.make_dictionary(kind, p, n, i)
        phi = cg.make_sensing_matrix("gaussian", n - 2, n, 200 + i)
        exact = cg.delta_exact(phi, d, k).delta
        count = math.comb(p, k)
        trials = count if i % 5 == 0 else min(20, count)
        mc = cg.delta_monte_carlo(phi, d, k, trials, 300 + i).delta
        if mc <= exact + 1e-12:
            sound += 1
        if trials == count:
            exhaustive += 1
            if mc == exact:
                exhaustive_equal += 1
    elapsed = time.perf_counter() - t0
    ok = (
        sound == 50
        and exhaustive >= 10
        and exhaustive_equal == exhaustive
        and elapsed < 30.0
    )
    _verdict(
        "criterion 2 (sampling soundness)", ok,
        f"{sound}/50 sound, {exhaustive_equal}/{exhaustive} exhaustive matches, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_03_constant_algebra():
    t0 = time.perf_counter()
    root2 = np.longdouble(2.0) ** np.longdouble(0.5)
    worst = 0.0
    for i in range(42):
        delta = i / 100.0
        proof = cg.bound_constants(delta, 0.0).c0
        dl = np.longdouble(delta)
        printed = float(2.0 * (1.0 - (1.0 - root2) * dl) / (1.0 - (1.0 + root2) * dl))
        worst = max(worst, abs(proof - printed))
    boundary = 1.0 / (1.0 + math.sqrt(2.0))
    flips = (
        cg.bound_constants(boundary - 1e-9, 0.0).admissible
        and not cg.bound_constants(boundary + 1e-9, 0.0).admissible
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and flips
    _verdict(
        "criterion 3 (constant algebra)", ok,
        f"max |proof - printed| = {worst:.2e}, admissibility flips at sqrt(2)-1: {flips}",
    )
    assert ok


def test_acceptance_04_cross_chunk_suite():
    t0 = time.perf_counter()
    worst = math.inf
    checked = 0
    for i in range(10):
        kind = "tight-frame" if i < 5 else "gaussian-random"
        d = cg.make_dictionary(kind, 14, 10, i)
        phi = cg.make_sensing_matrix("gaussian", 6, 10, 100 + i)
        delta = cg.delta_exact(phi, d, 4).delta
        rho = cg.rho_exact(d, 2).rho
        pinv = d.pinv()
        rng = np.random.default_rng(1000 + i)
        for _ in range(100):
            picks = rng.choice(14, size=4, replace=False)
            sup_i = cg.SupportSet(tuple(int(v) for v in picks[:2]), 14)
            sup_j = cg.SupportSet(tuple(int(v) for v in picks[2:]), 14)
            z_i = np.zeros(14)
            z_i[list(sup_i.indices)] = rng.standard_normal(2)
            z_j = np.zeros(14)
            z_j[list(sup_j.indices)] = rng.standard_normal(2)
            rep = cg.check_corollary1(
                phi, d, 2, (sup_i, pinv @ z_i), (sup_j, pinv @ z_j),
                delta2k=delta, rho=rho,
            )
            worst = min(worst, rep.slack)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 1000 and worst >= -1e-8 and elapsed < 120.0
    _verdict(
        "criterion 4 (cross-chunk correlation, 1000 trials)", ok,
        f"min slack = {worst:.3e}, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_05_masked_bound_suite():
    t0 = time.perf_counter()
    instances = []
    for seed in range(4):
        d, phi = matched_instance(10, 9, seed)
        instances.append((d, phi, 2))
    for seed in (2, 3, 5):
        d = cg.make_dictionary("tight-frame", 11, 10, seed)
        phi = cg.SensingMatrix(
            math.sqrt(10 / 9) * haar(10, 102 + seed)[:9], kind="user-supplied"
        )
        instances.append((d, phi, 1))
    eye = cg.Dictionary(np.eye(10), "identity")
    for seed in (1, 5, 7):
        instances.append((eye, cg.make_sensing_matrix("gaussian", 9, 10, seed), 1))

    worst = math.inf
    checked = 0
    for idx, (d, phi, k) in enumerate(instances):
        delta = cg.delta_exact(phi, d, 2 * k).delta
        assert delta < 1.0, f"instance {idx} has no admissible bound"
        rho = cg.rho_exact(d, k).rho
        rng = np.random.default_rng(2000 + idx)
        for _ in range(50):
            h = rng.standard_normal(d.n)
            h /= float(np.linalg.norm(h))
            head = cg.SupportSet(
                tuple(int(v) for v in rng.choice(d.p, size=k, replace=False)), d.p
            )
            rep = cg.check_corollary2(phi, d, k, h, head, delta2k=delta, rho=rho)
            worst = min(worst, rep.slack)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 500 and worst >= -1e-8 and elapsed < 120.0
    _verdict(
        "criterion 5 (masked lower bound, 500 trials)", ok,
        f"min slack = {worst:.3e}, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_06_exact_recovery():
    t0 = time.perf_counter()
    admissible_cap = math.sqrt(2.0) - 1.0
    successes = 0
    for d, phi in _matched_pool(10):
        delta = cg.delta_exact(phi, d, 4).delta
        assert delta < admissible_cap
        for sig_seed in range(10):
            x = cg.sample_cosparse_signal(d, 2, 400 + sig_seed)
            res = cg.solve_analysis_l1(
                phi, d, cg.ConstraintSpec("equality", phi.entries @ x)
            )
            if res.converged and float(np.linalg.norm(res.x_hat - x)) <= 1e-6:
                successes += 1
    elapsed = time.perf_counter() - t0
    ok = successes == 100 and elapsed < 120.0
    _verdict(
        "criterion 6 (certified exact recovery)", ok,
        f"{successes}/100 recovered within 1e-6, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_07_error_bound_suite():
    t0 = time.perf_counter()
    worst = math.inf
    checked = 0
    for inst, (d, phi) in enumerate(_matched_pool(10)):
        delta = cg.delta_exact(phi, d, 4).delta
        rho = cg.rho_exact(d, 2).rho
        assert cg.bound_constants(delta, rho).admissible
        rng = np.random.default_rng(3000 + inst)
        for _ in range(20):
            profile = 0.5 ** np.arange(d.p) * rng.choice([-1.0, 1.0], size=d.p)
            x = d.entries.T @ rng.permutation(profile)
            x /= float(np.linalg.norm(x))
            res = cg.solve_analysis_l1(
                phi, d, cg.ConstraintSpec("equality", phi.entries @ x)
            )
            rep = cg.check_theorem1(phi, d, 2, x, res.x_hat, delta2k=delta, rho=rho)
            if rep.hypothesis_ok:
                worst = min(worst, rep.slack)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and worst >= -1e-8 and elapsed < 180.0
    _verdict(
        "criterion 7 (error bound, 200 compressible trials)", ok,
        f"min slack = {worst:.3e} over {checked} trials, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_08_route_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(50):
        d = cg.make_dictionary("orthogonal", 8, 8, s)
        phi = cg.make_sensing_matrix("gaussian", 6, 8, 50 + s)
        x = cg.sample_cosparse_signal(d, 1, 99 + s)
        spec = cg.ConstraintSpec("equality", phi.entries @ x)
        ra = cg.solve_analysis_l1(phi, d, spec)
        rs = cg.solve_synthesis_l1(phi, d, spec)
        worst = max(worst, float(np.linalg.norm(ra.x_hat - rs.x_hat)))

    d = cg.make_dictionary("gaussian-random", 12, 8, 0)
    phi = cg.make_sensing_matrix("gaussian", 6, 8, 50)
    x = cg.sample_cosparse_signal(d, 5, 99)
    spec = cg.ConstraintSpec("equality", phi.entries @ x)
    gap = float(np.linalg.norm(
        cg.solve_analysis_l1(phi, d, spec).x_hat
        - cg.solve_synthesis_l1(phi, d, spec).x_hat
    ))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and gap > 1e-3
    _verdict(
        "criterion 8 (route equivalence)", ok,
        f"orthogonal max distance = {worst:.2e}, redundant witness distance = {gap:.3f}",
    )
    assert ok


def test_acceptance_09_cross_solver_certification():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(30):
        if s % 2 == 0:
            d = cg.make_dictionary("tight-frame", 14, 10, s)
            phi = cg.make_sensing_matrix("gaussian", 6, 10, 500 + s)
            x = cg.sample_cosparse_signal(d, 5, 600 + s)
        else:
            d, phi = matched_instance(10, 9, s)
            x = cg.sample_cosparse_signal(d, 2, 600 + s)
        spec = cg.ConstraintSpec("equality", phi.entries @ x)
        lp = cg.solve_lp_certified(phi, d, spec)
        fo = cg.solve_analysis_l1(phi, d, spec)
        worst = max(worst, abs(lp.objective - fo.objective))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    _verdict(
        "criterion 9 (cross-solver certification)", ok,
        f"max |objective gap| = {worst:.2e} over 30 instances, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_10_byte_reproducibility(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(
        '{"experiment": "verify-c2", "dims": {"m": 9, "n": 10, "p": 10}, "k": 1,'
        ' "dictionary_kind": "identity", "matrix_kind": "gaussian",'
        ' "trials": 6, "seed": 20}',
        encoding="utf-8",
    )
    # the subprocess runs in tmp_path, so a relative PYTHONPATH would not
    # resolve there: put the package's own source root first
    src = os.path.dirname(os.path.dirname(os.path.abspath(cg.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "cosparse_grip.cli", "verify-c2",
             "--config", str(config), "--out", str(tmp_path / name)],
            capture_output=True, encoding="utf-8", cwd=str(tmp_path), env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(
        "criterion 10 (byte reproducibility)", ok,
        f"results.csv identical across reruns ({len(outputs[0])} bytes), {elapsed:.1f}s",
    )
    assert ok
