"""Command-line front end: run one campaign from a JSON config.

    cosparse-grip <experiment> --config <path> [--seed N] [--out <dir>]

The campaign seed, from the config or --seed, is an integer in [0, 2**64);
any other seed is a config error.

Exit codes: 0 success; 2 config error (including a config file that is
not UTF-8 JSON, a config whose named experiment disagrees with the
command, an output directory (--out or output_path) with a file at it or
at one of its ancestors, a rho campaign or an instance pool whose exact
constants exceed their budget, and a dantzig campaign whose LP exceeds
the LP route's variable budget: these are refused when the config is
read, before any instance is drawn; an operator file that cannot be
read, is malformed, or disagrees with its header or with the config's
dims; an instance pool whose hypotheses fail; and outputs that cannot
be written, once the campaign has run); 3 bound-violation
finding (some verified inequality whose hypothesis held came out below
-1e-8 max(|lhs|, |rhs|, 1)); 4 solver non-convergence.
When both 3 and 4 apply, 4 wins: an unconverged solve makes the recorded
slacks unreliable, so non-convergence is the more fundamental finding.
After the summary the campaign's wall_time (seconds) is printed, and for
the verify-* experiments the index, seed and slack of the worst trial,
the row of least slack (the first one on ties). On exit 3 the index and
seed of the first violating row follow the finding; on exit 4 those of
the first unconverged row. Any of these trials can then be replayed:
every campaign with the same config and seed and more than i trials has
the same row i. The seed names the trial; a verify-c1 or verify-c2
trial draws from its stream block of 256 trials (see campaign.run), not
from that seed.
A crashed trial, or a block failing only as a block, flushes the rows
before it and exits 1. Outputs go to --out (else output_path, else the
working directory): results.csv, results.jsonl and config_echo.json,
each replaced, not rewritten in place (see campaign.write_outputs). When
they cannot be written, an `error: cannot write outputs to <dir>:
<err>` line is printed, after the crashed trial's error when there was
one, and the exit code is 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .campaign import (
    EXPERIMENTS,
    CampaignTrialError,
    ConfigError,
    ExperimentConfig,
    _violates,
    run,
    write_outputs,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cosparse-grip",
        description="seeded experiment campaigns for analysis-sparse recovery",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON campaign config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's campaign seed")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: config output_path or '.')")
    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig.from_file(args.config)
        if config.experiment != args.experiment:
            raise ConfigError(
                f"config names experiment {config.experiment!r}, "
                f"command asked for {args.experiment!r}"
            )
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        out_dir = Path(args.out or config.output_path or ".")
        # refused now, not by mkdir once the campaign has run: the nearest
        # existing ancestor of the output directory must be a directory
        nearest = next(path for path in (out_dir, *out_dir.parents) if path.exists())
        if not nearest.is_dir():
            raise ConfigError(f"output directory {out_dir}: {nearest} is not a directory")
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    crash = None
    try:
        result = run(config)
    except ConfigError as err:
        # instance-pool diagnostics (e.g. hypothesis unsatisfiable at
        # these dimensions) are config problems found at run time
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CampaignTrialError as err:
        crash, result = err, err.partial

    try:
        paths = write_outputs(result, out_dir)
    except OSError as err:
        if crash is not None:
            print(f"error: {crash}; outputs not written", file=sys.stderr)
        print(f"error: cannot write outputs to {out_dir}: {err}", file=sys.stderr)
        return 2
    if crash is not None:
        print(f"error: {crash}; partial results written to {out_dir}", file=sys.stderr)
        return 1
    print(f"{config.experiment}: {len(result.rows)} rows -> {paths['csv']}")
    for key, val in result.summary.items():
        print(f"  {key} = {val}")
    print(f"wall_time = {result.wall_time:.3f}")
    if result.rows and "slack" in result.rows[0]:
        worst = min(result.rows, key=lambda row: row["slack"])  # the first on ties
        print(f"worst trial: index {worst['trial']}, seed {worst['seed']}, slack {worst['slack']}")

    if result.summary.get("unconverged", 0) > 0:
        print("finding: solver failed to converge on at least one trial", file=sys.stderr)
        first = next((row for row in result.rows if row.get("converged") is False), None)
        if first is not None:
            print(f"first unconverged trial: index {first['trial']}, seed {first['seed']}",
                  file=sys.stderr)
        return 4
    if result.summary.get("violations", 0) > 0:
        print("finding: bound violated beyond numerical tolerance", file=sys.stderr)
        first = next((row for row in result.rows if _violates(row)), None)
        if first is not None:
            print(f"first violating trial: index {first['trial']}, seed {first['seed']}",
                  file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
