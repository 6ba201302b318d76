#!/usr/bin/env python3
"""Regenerate reference.json, the output digests every pass is checked
against: one untraced pass per workload and seed, at full size.

    python3 bench/reference.py

A change that alters a result file on purpose reruns this and says so in
CHANGES.md.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(16)


def main() -> int:
    workloads.REFERENCE_FILE.unlink(missing_ok=True)
    reference = {
        name: {
            str(seed): run.run_workload(name, seed, seconds=0, trace=False)["digests"][0]
            for seed in SEEDS
        }
        for name in workloads.WORKLOADS
    }
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
