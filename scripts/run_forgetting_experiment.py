#!/usr/bin/env python3
"""Run the sequential-task retention comparison and print the table.

Usage: python3 scripts/run_forgetting_experiment.py [--seeds N] [--json PATH]

Trains a single low-rank adapter (a one-expert mixture) and a
matched-budget 4-expert mixture on task A then task B, over several
seeds, and reports task-A recall accuracy at each stage. Expect a few
minutes of CPU time with the defaults.
"""

import argparse
import sys
import time
from pathlib import Path

from loramix.experiments import run_forgetting_experiment


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of seeds (default 5)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result as JSON")
    args = parser.parse_args()
    t0 = time.time()
    result = run_forgetting_experiment(seeds=tuple(range(args.seeds)))
    print(result.summary())
    print(f"runtime: {time.time() - t0:.0f}s")
    if args.json:
        Path(args.json).write_text(result.to_json() + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
