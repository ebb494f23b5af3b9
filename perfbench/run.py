"""cosparse-grip benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from src/ of the
same checkout; nothing is installed. Workloads (see NOTES.md):

    enumerate  verify-c1 campaigns, exact delta_4 / rho_2 scans (grip)
    recovery   solve campaigns, equality-constrained PDHG (solvers)
    certify    a batch of solve_lp_certified calls (simplex)
    checks     one verify-c2 campaign of many cheap trials (verify, model)

This launcher imports no numpy. It times set-up in SETUP_PROBES fresh
processes plus the measuring one, starts the measuring process (one
thread of BLAS, campaign workers=1), prints the machine record and the
failed operations, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with times in seconds of the
reference host (hostspeed.py rates this host while it measures); --trace 1
reports the per-layer ones.
Exit status is 0 when the outputs passed their checks, 1 when a check
failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("COSPARSE_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, out: Path, setup_only: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "cosparse_grip" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    out = OUT / args.workload
    try:
        setups = []
        if not args.trace:
            setups = [run_child(args, out / "setup", True, SETUP_TIMEOUT_S) for _ in range(SETUP_PROBES)]
        result = run_child(args, out / "run", False, RUN_TIMEOUT_S)
        setups.append(result)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(f"passes: {json.dumps(result['passes'])}")
    print("setups: " + json.dumps({k: [s[k] for s in setups] for k in ("setup_s", "setup_raw_s", "setup_speed")}))
    for err in result["errors"]:
        print(f"check failed: {err}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
