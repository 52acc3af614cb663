"""Regenerate the stored reference outputs of every experiment.

Usage: python3 perfbench/make_reference.py

Run this only when a change to opplab's output is intended and reviewed:
the correctness gate in run.py compares against these files.  Seeded
experiments get one reference per input seed 0..REFERENCE_SEEDS-1.
Witness rows are re-verified before a reference is written.
"""

from __future__ import annotations

import sys

import check
from run import REFERENCE, program_env, run_process
from workloads import REFERENCE_SEEDS, SQF2_DIAG, WORKLOADS


def main() -> int:
    for exps in WORKLOADS.values():
        for exp in exps:
            for seed in range(REFERENCE_SEEDS if exp.seeded else 1):
                res = run_process([sys.executable, "-m", "opplab", *exp.argv(seed)], program_env(), 600.0)
                if res.rc != 0:
                    print(f"error: {exp.name} seed {seed} exited {res.rc}: {res.stderr}", file=sys.stderr)
                    return 1
                if exp.witness_eps is not None:
                    errors = check.verify_witnesses(res.stdout, SQF2_DIAG, exp.witness_eps)
                    if errors:
                        print(f"error: {exp.name}: {errors[:5]}", file=sys.stderr)
                        return 1
                path = REFERENCE / exp.reference_name(seed)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(res.stdout)
                print(f"{path.relative_to(REFERENCE)}  {res.wall_s:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
