"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks, from the repository root:
  * reference.json's exact constants recompute from their instance seeds;
  * every workload, shrunk, runs one untraced and one traced pass, and
    each emits every end-to-end and per-layer metric the benchmark
    defines, under the unit BENCHMARK.json gives it;
  * a deliberately wrong certify answer is counted as a failed operation;
  * host-speed normalization scales a pass by the speed its probes saw,
    and the sampler restores the timer and handler it used;
  * certify solves the same instance family on every seed;
  * the command itself prints a well-formed result line, and fails
    without one in a directory holding only the benchmark's own files.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import bench
import cosparse_grip as cg
import hostspeed
import run
import workloads

OUT = run.OUT / "selftest"

# metric -> unit, as the benchmark's definition names them
END_TO_END = {"wall_s": "s", "trials_per_s": "1/s", "passed_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "grip.delta_exact.calls": "count", "grip.delta_exact.supports": "count",
    "grip.delta_exact.s": "s", "grip.delta_exact.us_per_support": "us",
    "grip.rho_exact.calls": "count", "grip.rho_exact.pairs": "count",
    "grip.rho_exact.s": "s", "grip.rho_exact.us_per_pair": "us",
    "grip.bound_constants.calls": "count", "grip.bound_constants.us_per_call": "us",
    "solvers.pdhg.solves": "count", "solvers.pdhg.s": "s", "solvers.pdhg.iters_total": "count",
    "solvers.pdhg.iters_p50": "count", "solvers.pdhg.iters_p90": "count",
    "solvers.pdhg.iters_max": "count", "solvers.pdhg.us_per_iter": "us",
    "solvers.pdhg.converged_frac": "ratio", "solvers.pdhg.hit_max_iters": "count",
    "solvers.lp.solves": "count", "solvers.lp.self_s": "s", "solvers.lp.failed": "count",
    "simplex.solves": "count", "simplex.s": "s", "simplex.pivots_total": "count",
    "simplex.pivots_p50": "count", "simplex.pivots_max": "count",
    "simplex.us_per_pivot": "us", "simplex.solved_frac": "ratio",
    "verify.checks": "count", "verify.self_s": "s", "verify.self_us_per_check": "us",
    "model.calls": "count", "model.s": "s", "model.chunk_decompose.us_per_call": "us",
    "campaign.trials": "count", "campaign.self_s": "s",
    "campaign.self_us_per_trial": "us", "campaign.write_s": "s",
    "trace.overhead_frac": "ratio",
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def shrink(work):
    """The same workload at a size that runs in seconds."""
    if isinstance(work, workloads.CertifyWorkload):
        work.instances = work.instances[:4]
        return work
    keep = 2 if work.name == "recovery" else 1
    work.configs = [dataclasses.replace(c, trials=min(c.trials, 20)) for c in work.configs[:keep]]
    work.expected = work.expected[:keep]
    return work


def test_reference_constants() -> None:
    ref = workloads.REFERENCE
    for inst in ref["enumerate"]["instances"]:
        d, phi = workloads._reference_operators(ref["enumerate"], inst["instance_seed"])
        k = ref["enumerate"]["k"]
        got = (cg.delta_exact(phi, d, 2 * k).delta, cg.rho_exact(d, k).rho)
        check(np.allclose(got, (inst["delta2k"], inst["rho"]), rtol=1e-12, atol=0),
              f"enumerate reference constants of instance seed {inst['instance_seed']}")
    c = ref["checks"]
    d, phi = workloads._reference_operators(c, c["instance_seed"])
    got = (cg.delta_exact(phi, d, 2 * c["k"]).delta, cg.rho_exact(d, c["k"]).rho)
    check(np.allclose(got, (c["delta2k"], c["rho"]), rtol=1e-12, atol=0), "checks reference constants")


def test_definition() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(workloads.NAMES), "BENCHMARK.json names the four workloads")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == END_TO_END, "BENCHMARK.json end-to-end metrics and units")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(all(layer.get(k) == u for k, u in PER_LAYER.items()), "BENCHMARK.json per-layer metrics and units")


def test_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}  # run.py measures set-up
    layer = {m["name"] for m in spec["per_layer"]}
    for name in workloads.NAMES:
        work = shrink(workloads.setup(name, 1, OUT / name))
        plain = bench.summarize(*bench.run_passes(work, 0.0, trace=False))
        check(plain["correct"] and set(plain["metrics"]) == e2e, f"{name}: end-to-end metrics {sorted(plain['metrics'])}")
        run = bench.run_passes(work, 0.0, trace=True)
        tracer = run[2]
        spans = bench.summarize(*run)
        check(spans["correct"] and set(spans["metrics"]) == layer, f"{name}: per-layer metrics, traced csv equals untraced")
        check(tracer._patches == [] and not hasattr(cg.run, "__wrapped__"), f"{name}: wrappers restored")


def test_wrong_certify_answer() -> None:
    work = shrink(workloads.setup("certify", 1, OUT / "certify"))
    honest = work.run_pass()
    original = cg.solve_lp_certified

    def shifted(phi, dictionary, constraint):
        res = original(phi, dictionary, constraint)
        return dataclasses.replace(res, x_hat=res.x_hat + 1.0)

    cg.solve_lp_certified = shifted
    try:
        wrong = work.run_pass()
    finally:
        cg.solve_lp_certified = original
    check(len(wrong.failed) == len(work.instances) > len(honest.failed),
          f"wrong certify answers counted as failures ({len(honest.failed)} -> {len(wrong.failed)})")
    inst = work.instances[0]
    x_true = np.asarray(original(inst.phi, inst.dictionary, inst.constraint).x_hat)
    fake = cg.RecoveryResult(x_true * 3.0, 0.0, 0, 0.0, 0.0, True, True, 0.0)
    check(workloads.certify_failure(inst, fake) is not None, "a scaled answer is rejected from outside")


def test_host_speed() -> None:
    sampler = hostspeed.Sampler(0.002)
    # probes at half the reference speed inside [10, 11), one outside
    sampler.samples = [(10.1, 0.004), (10.6, 0.004), (12.0, 0.001)]
    ref_s, speed, probes = sampler.normalize(10.0, 1.0)
    check(probes == 2 and speed == 0.5 and abs(ref_s - 0.496) < 1e-12,
          f"a pass at half speed counts half its own time ({ref_s:.3f} reference s)")
    check(sampler.normalize(20.0, 1.0)[1] == statistics.fmean([0.5, 0.5, 2.0]),
          "a pass with no probe inside takes the run's speed")
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(0.002)
    sampler.start()
    hostspeed.probe(rounds=300)  # about 3 timer periods
    sampler.stop()
    check(len(sampler.samples) >= 2 and signal.getsignal(signal.SIGALRM) is previous and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
          f"sampler took {len(sampler.samples)} probes and restored the timer")


def test_certify_family() -> None:
    runs = [workloads.setup("certify", seed, OUT / "certify").instances for seed in (1, 2)]
    index = [[inst.index for inst in insts] for insts in runs]
    check(sorted(index[0]) == sorted(index[1]) == list(range(len(index[0]))) and index[0] != index[1],
          "certify solves the same family on every seed, in a seeded order")


def test_command() -> None:
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        last = json.loads(proc.stdout.splitlines()[-1])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in last["metrics"].items()}
        check(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"} and got == want,
              f"run.py --trace {trace} result line")
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout, "no result without the library sources")


if __name__ == "__main__":
    test_definition()
    test_reference_constants()
    test_workloads()
    test_wrong_certify_answer()
    test_host_speed()
    test_certify_family()
    test_command()
    print("selftest passed")
