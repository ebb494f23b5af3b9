"""One workload in one process: set up, run timed passes, check outputs.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC --out DIR [--setup-only]

run.py starts this process with BLAS pinned to one thread and passes its
time.monotonic() at spawn as --t0, so setup_s covers interpreter start,
imports, config parsing and instance generation. The last stdout line is
one JSON object with the pass results; run.py turns it into the
benchmark's result line.

--trace 0 runs untraced passes until --seconds have elapsed (at least
two) while hostspeed.Sampler rates the host, and reports times on the
reference host (see hostspeed.py); set-up time is rated by a burst of
probes right after set-up. --trace 1 alternates untraced and traced
passes (at least one of each), without probes, and reports per-layer
metrics of the traced ones plus the tracing overhead: the median
relative difference of adjacent untraced/traced pass pairs.

attempted and failed count the operations of one pass: every pass
repeats the same inputs, and a pass whose failures differ from the
first pass's is a check error.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads, in case this file is run directly
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads

PROBE_REF_S = workloads.REFERENCE["host"]["probe_ref_s"]
BURST_REF_S = workloads.REFERENCE["host"]["burst_ref_s"]


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "campaign_workers": 1,
    }


def run_passes(work, seconds: float, trace: bool):
    """Timed passes until `seconds` have elapsed: untraced ones (at
    least two) under a host-speed sampler, or with trace alternating
    untraced and traced (at least one of each) and no sampler. Each
    pass's outputs are checked, compared with pass 0's and then
    released, so memory does not grow with the pass count.
    Returns (untraced, traced, tracer, sampler or None, errors)."""
    tracer = tracing.Tracer()
    sampler = None if trace else hostspeed.Sampler(PROBE_REF_S)
    untraced: list[workloads.PassRecord] = []
    traced: list[workloads.PassRecord] = []
    errors: list[str] = []
    first = None
    start = time.perf_counter()
    if sampler is not None:
        sampler.start()
    try:
        while True:
            if trace and len(untraced) > len(traced):
                tracer.pass_id = len(traced)
                tracer.install()
                try:
                    rec = work.run_pass(on_op=lambda i: setattr(tracer, "op_id", i))
                finally:
                    tracer.uninstall()
                traced.append(rec)
            else:
                rec = work.run_pass()
                untraced.append(rec)
            errors += work.check(rec)
            if first is None:
                first = (rec.artifacts, rec.failed)
            else:
                if rec.artifacts != first[0]:
                    errors.append("outputs differ between passes of the same inputs")
                if rec.failed != first[1]:
                    errors.append("failed operations differ between passes of the same inputs")
            rec.artifacts, rec.outcomes = [], []
            enough = len(traced) >= 1 if trace else len(untraced) >= 2
            if enough and time.perf_counter() - start >= seconds:
                return untraced, traced, tracer, sampler, errors
    finally:
        if sampler is not None:
            sampler.stop()


def summarize(untraced, traced, tracer, sampler, errors) -> dict:
    """Checks and metrics of a run: end-to-end metrics (all but setup_s)
    in reference-host seconds without traced passes, per-layer metrics
    in this host's seconds with them."""
    first = (untraced + traced)[0]
    attempted, failures = first.attempted, first.failed
    passes = {"untraced_s": [p.wall_s for p in untraced], "traced_s": [p.wall_s for p in traced]}
    if traced:
        own = tracing.self_times(tracer.spans)
        per_pass = [tracing.layer_metrics(tracer.spans, own, i, p.wall_s) for i, p in enumerate(traced)]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        # pass i of each kind ran back to back, so the pairs share the host's state
        metrics["trace.overhead_frac"] = statistics.median((t.wall_s - u.wall_s) / u.wall_s for u, t in zip(untraced, traced))
    else:
        rated = [sampler.normalize(p.started, p.wall_s) for p in untraced]
        ref_s = [r[0] for r in rated]
        passes.update(reference_s=ref_s, speed=[r[1] for r in rated], probes=[r[2] for r in rated])
        metrics = {
            "wall_s": statistics.median(ref_s),
            "trials_per_s": statistics.median((p.attempted - len(p.failed)) / w for p, w in zip(untraced, ref_s)),
            "passed_frac": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": not errors,
        "errors": sorted(set(errors)),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": passes,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    work = workloads.setup(args.workload, args.seed, out)
    setup_raw_s = time.monotonic() - args.t0
    setup_speed = hostspeed.burst_speed(BURST_REF_S)
    setup = {"setup_s": setup_raw_s * setup_speed, "setup_raw_s": setup_raw_s, "setup_speed": setup_speed}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run = run_passes(work, args.seconds, bool(args.trace))
    result = summarize(*run)
    if args.trace:
        run[2].write_spans(out / "spans.jsonl")
    for line in result.pop("failures"):
        print(f"failed operation: {line}")
    result.update(setup)
    result["machine"] = machine_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
