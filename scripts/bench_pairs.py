"""Benchmark a parent and a change commit in alternating pairs; write BENCH_<n>.json.

Usage:
  python3 scripts/bench_pairs.py --parent REV --change REV --workload W \\
      --seeds 1001-1010 --out BENCH_13.json [--trace-seed S] [--claim METRIC] \\
      [--workdir DIR]

Each side runs from its own clone of this repository at its commit, made
under ``--workdir`` with ``git clone`` (a clone already at that commit is
reused), so both sides run their committed files with their own copy of
``perfbench/``.  Pair i runs ``python3 perfbench/run.py --workload W --seed S``
(run.py's own run length) in both clones, one seed per pair, the parent
first in even pairs and the change first in odd ones.  ``--trace-seed S``
adds one ``--trace 1`` run per side.  The file's ``change`` line is the
subject of the change commit.

``--out`` is updated in place, so one file collects several invocations
(the commits must match): a workload run again gets a new entry, and its
earlier entries move to the new one's ``earlier_runs``.  Per metric an
entry holds each side's median and quartiles (statistics.quantiles,
inclusive), ``change_vs_parent`` (the ratio of the medians, minus 1),
``pairs_change_lower`` and ``median_pair_ratio`` (the median of
change/parent over the pairs), and every pair's values.  ``--claim METRIC``
adds the entry's ``claim``: whether the change's gain on METRIC is "met" or
"not met" by the rule the benchmark's gains are judged by (lower in at
least nine tenths of the pairs, and medians apart by more than the
distance between the parent's quartiles).  The verdict stays with its
entry, so an earlier run keeps its own.  Every end-to-end metric of this
benchmark is better lower.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: environment fields of run.py's record that describe the machine and the settings
ENV_FIELDS = ("nproc", "cpu_model", "python", "numpy", "blas", "thread_env")
#: where the clones of the compared commits live unless --workdir says otherwise
WORKDIR = Path(tempfile.gettempdir()) / "opplab-bench-pairs"


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def checkout(rev: str, workdir: Path) -> tuple[str, Path]:
    """(sha, clone directory) of ``rev``; clones this repository when needed."""
    sha = git("rev-parse", f"{rev}^{{commit}}")
    path = workdir / sha[:12]
    if not (path / ".git").is_dir():
        git("clone", "--quiet", "--no-checkout", str(ROOT), str(path))
        git("checkout", "--quiet", "--detach", sha, cwd=path)
    if git("rev-parse", "HEAD", cwd=path) != sha or git("status", "--porcelain", "--untracked-files=no", cwd=path):
        raise SystemExit(f"error: {path} is not a clean checkout of {sha}")
    return sha, path


def run_bench(clone: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run perfbench/run.py in ``clone``; return (its JSON result, its environment line)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=clone, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {clone} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next((json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("environment:")), {})
    return json.loads(lines[-1]), env


def parse_seeds(text: str) -> list[int]:
    """'1001-1010' or '1,5,9' (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[dict], metric: str) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    out = {"parent": summary(parent), "change": summary(change)}
    out["change_vs_parent"] = round(out["change"]["median"] / out["parent"]["median"] - 1, 4)
    out["pairs_change_lower"] = sum(c < p for p, c in zip(parent, change))
    out["median_pair_ratio"] = round(statistics.median(c / p for p, c in zip(parent, change)), 4)
    return out


def claim_verdict(metric: str, stats: dict, pairs: int) -> dict:
    parent = stats["parent"]
    spread = parent["q3"] - parent["q1"]
    gain = parent["median"] - stats["change"]["median"]
    wins_needed = math.ceil(0.9 * pairs)
    met = stats["pairs_change_lower"] >= wins_needed and gain > spread
    return {
        "metric": metric,
        "pairs_change_lower": stats["pairs_change_lower"],
        "pairs_needed": wins_needed,
        "median_gain": gain,
        "parent_quartile_spread": spread,
        "verdict": "met" if met else "not met",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", required=True, help="change commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="one seed per pair, e.g. 1001-1010")
    ap.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to create or update")
    ap.add_argument("--trace-seed", type=int, help="also run --trace 1 on both sides with this seed")
    ap.add_argument("--claim", metavar="METRIC", help="record whether the gain on METRIC is met")
    ap.add_argument("--workdir", type=Path, default=WORKDIR, help="where the clones live")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")

    args.workdir.mkdir(parents=True, exist_ok=True)
    clones = {"parent": checkout(args.parent, args.workdir), "change": checkout(args.change, args.workdir)}
    shas = {side: clones[side][0] for side in SIDES}

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if record and (record.get("parent_sha"), record.get("change_sha")) != (shas["parent"], shas["change"]):
        raise SystemExit(f"error: {args.out} holds other commits")

    pairs, attempted, failed, env = [], dict.fromkeys(SIDES, 0), dict.fromkeys(SIDES, 0), {}
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed, "first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result, env = run_bench(clones[side][1], args.workload, seed, 0)
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in pair["parent"]), flush=True)

    metrics = {m: compare(pairs, m) for m in pairs[0]["parent"]}
    entry = {"seeds": args.seeds, "pairs": len(pairs), "attempted": attempted, "failed": failed,
             "metrics": metrics, "per_pair": pairs}
    if args.claim:
        entry["claim"] = claim_verdict(args.claim, metrics[args.claim], len(pairs))
    if args.trace_seed is not None:
        traced = {}
        for side in SIDES:
            result, _ = run_bench(clones[side][1], args.workload, args.trace_seed, 1)
            traced[side] = {"correct": result["correct"], "failed": result["failed"],
                            **{k: v["value"] for k, v in result["metrics"].items()}}
        entry[f"trace_seed_{args.trace_seed}"] = traced

    record.update({
        "change": git("log", "-1", "--format=%s", shas["change"]),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "command": "python3 perfbench/run.py --workload W --seed S (run.py's default run length, "
                   "tracing off); --trace 1 for the traced runs",
        "method": "alternating pairs: clones of the parent and the change run one after the other, "
                  "the parent first in even pairs, one seed per pair; medians and quartiles "
                  "(statistics.quantiles, inclusive) over the pairs of each side; pairs_change_lower "
                  "counts the pairs where the change reads lower; median_pair_ratio is the median of "
                  "change/parent over the pairs",
        "environment": {**{k: env.get(k) for k in ENV_FIELDS},
                        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
    })
    prior = record.setdefault("workloads", {}).get(args.workload)
    if prior:
        entry["earlier_runs"] = prior.pop("earlier_runs", []) + [prior]
    record["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}: {args.workload}, {len(pairs)} pairs, failed {failed}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
