"""Time opplab experiments at a parent and a change commit in interleaved pairs; write BENCH_<n>.json.

Usage:
  python3 scripts/bench_pairs.py --parent REV --change REV --pairs N --workload W \\
      [--seed S] [--out BENCH_<n>.json] [--claim METRIC] [--trace-seed S] [--workdir DIR]
  python3 scripts/bench_pairs.py --parent REV --change REV --pairs N \\
      [--out BENCH_<n>.json] [--claim METRIC] [--workdir DIR] -- <opplab argv>

for example

  python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 20 --workload witness \\
      --out BENCH_31.json
  python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 -- \\
      count --form "[1,-1,-1.4142135623730951]" --a=-1 --b=1 --T 1e8

Each side runs from its own clone of this repository at its commit, made
under ``--workdir`` with ``git clone`` (a clone already at that commit is
reused) at a path of the same length for every commit.  The experiments are
the list of perfbench workload W (perfbench/workloads.py, seeded ones at
``--seed S``, default 0, as perfbench/run.py runs them) or the one opplab
argv after ``--``.  Pair i runs one side, then the other, the parent first in
even pairs and the change first in odd ones.  A side runs ``opplab <first
subcommand> --help`` (its ``setup_s``), then each experiment once, each a
fresh ``python -m opplab`` process with PYTHONPATH set to the side's ``src``,
timed by perfbench/run.py's own ``run_process`` at run.py's thread settings.
``wall_s`` and ``cpu_s`` are summed over the list and ``peak_rss_mb`` is the
largest, as run.py computes them.  Nothing is compiled ahead of the runs, so
a process pays what run.py's processes pay, compilation included (every
start compiles under PYTHONDONTWRITEBYTECODE, which the record names).

Correctness: with ``--workload``, each side first runs ``perfbench/run.py
--workload W --seed S --seconds 0`` in its clone, one pass checked against
that clone's references, and the script stops unless the pass is correct.
While timing, every run of a side must exit with the code and print the
stdout and stderr of that side's first run, so a change whose output differs
on purpose, or a run that ends at an error such as the work ceiling, can be
timed too.  ``--trace-seed S`` adds one ``run.py --trace 1`` run per side.

Per metric it prints, and records under ``--out``, each side's median and
quartiles (statistics.quantiles, inclusive), ``change_vs_parent`` (the ratio
of the medians, minus 1), ``pairs_change_lower`` (ties count for neither
side), ``median_pair_ratio`` (the median of change/parent over the pairs) and
``interval_95``, a bootstrap 95% interval of that median (2,000 resamples of
the pairs from a fixed-seed generator).  ``--out`` is updated in place, so
one file collects several invocations (the commits must match): a workload
run again gets a new entry, and its earlier entries move to the new one's
``earlier_runs``.  ``--claim METRIC`` adds the entry's ``claim``: whether
the change's gain on METRIC is "met" or "not met" by the rule the
benchmark's gains are judged by (lower in at least nine tenths of the pairs,
and medians apart by more than the distance between the parent's
quartiles).  Every end-to-end metric of this benchmark is better lower.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
#: environment fields of run.py's record that describe the machine and the settings
ENV_FIELDS = ("nproc", "cpu_model", "python", "numpy", "blas", "thread_env")
#: where the clones of the compared commits live unless --workdir says otherwise
WORKDIR = Path(tempfile.gettempdir()) / "opplab-bench-pairs"
#: resamples of the bootstrap interval, drawn from random.Random(BOOTSTRAP_SEED)
RESAMPLES, BOOTSTRAP_SEED = 2000, 0


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


def perfbench_run():
    """This repository's perfbench/run.py as a module (it imports numpy)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def run_bench(clone: Path, workload: str, seed: int, *extra: str) -> dict:
    """Run perfbench/run.py in ``clone``; return its JSON result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(argv, cwd=clone, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"error: {' '.join(argv)} in {clone} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_side(run, clone: Path, argvs: list[list[str]]) -> tuple[list, dict]:
    """Run each argv once from ``clone``, the first being the ``--help`` of set-up.

    Returns (their exit codes and output, the side's metrics).
    """
    env = dict(run.program_env(), PYTHONPATH=str(clone / "src"))
    procs = []
    for argv in argvs:
        proc = run.run_process([sys.executable, "-m", "opplab", *argv], env, run.EXPERIMENT_TIMEOUT_S)
        if proc.timed_out:
            raise SystemExit(f"error: `opplab {shlex.join(argv)}` in {clone} timed out")
        procs.append(proc)
    setup, *timed = procs
    if setup.rc != 0:
        raise SystemExit(f"error: `opplab {shlex.join(argvs[0])}` in {clone} exited {setup.rc}: {setup.stderr[-2000:]}")
    return [(p.rc, p.stdout, p.stderr) for p in procs], {
        "wall_s": sum(p.wall_s for p in timed),
        "cpu_s": sum(p.cpu_s for p in timed),
        "peak_rss_mb": max(p.rss_mb for p in timed),
        "setup_s": setup.wall_s,
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bootstrap_interval(ratios: list[float]) -> list[float]:
    """Bootstrap 95% interval of the median of ``ratios``; the same ratios give the same interval."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")  # 2.5%, 5%, ..., 97.5%
    return [round(cuts[0], 4), round(cuts[-1], 4)]


def compare(pairs: list[dict], metric: str) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    ratios = [c / p for p, c in zip(parent, change)]
    out = {"parent": summary(parent), "change": summary(change)}
    out["change_vs_parent"] = round(out["change"]["median"] / out["parent"]["median"] - 1, 4)
    out["pairs_change_lower"] = sum(c < p for p, c in zip(parent, change))
    out["median_pair_ratio"] = round(statistics.median(ratios), 4)
    out["interval_95"] = bootstrap_interval(ratios)
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
    ap.add_argument("--pairs", required=True, type=int, help="number of interleaved pairs (at least 2)")
    ap.add_argument("--workload", help="time every experiment of this perfbench workload")
    ap.add_argument("--seed", type=int, default=0, help="workload seed of the seeded experiments (default 0)")
    ap.add_argument("--out", type=Path, help="BENCH_<n>.json to create or update")
    ap.add_argument("--claim", choices=METRICS, help="record whether the gain on this metric is met")
    ap.add_argument("--trace-seed", type=int, help="also run run.py --trace 1 on both sides with this seed")
    ap.add_argument("--workdir", type=Path, default=WORKDIR, help="where the clones live")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the opplab arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if bool(argv) == bool(args.workload):
        ap.error("give either --workload or the opplab arguments after --")
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    if args.trace_seed is not None and not args.workload:
        ap.error("--trace-seed needs --workload")

    run = perfbench_run()
    if args.workload and args.workload not in run.WORKLOADS:
        ap.error(f"no workload {args.workload!r}; choose from {', '.join(run.WORKLOADS)}")
    argvs = [exp.argv(args.seed) for exp in run.WORKLOADS[args.workload]] if args.workload else [argv]
    runs = [[argvs[0][0], "--help"], *argvs]
    name = args.workload or f"opplab {shlex.join(argv)}"
    env = run.environment()

    args.workdir.mkdir(parents=True, exist_ok=True)
    clones = {side: checkout(getattr(args, side), args.workdir) for side in SIDES}
    shas = {side: clones[side][0] for side in SIDES}
    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    if record and (record.get("parent_sha"), record.get("change_sha")) != (shas["parent"], shas["change"]):
        raise SystemExit(f"error: {args.out} holds other commits")

    entry = {"seed": args.seed} if args.workload else {"argv": argv}
    if args.workload:
        checked = {side: run_bench(clones[side][1], args.workload, args.seed, "--seconds", "0") for side in SIDES}
        for side, result in checked.items():
            if not result["correct"]:
                raise SystemExit(f"error: the {side} side's checked pass of {args.workload} is not correct: {result}")
        entry["attempted"] = {side: checked[side]["attempted"] for side in SIDES}
        entry["failed"] = {side: checked[side]["failed"] for side in SIDES}

    pairs, first_run = [], {}
    for i in range(args.pairs):
        pair = {"first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            outcomes, pair[side] = run_side(run, clones[side][1], runs)
            expected = first_run.setdefault(side, outcomes)
            for cmd, got, want in zip(runs, outcomes, expected):
                if got != want:
                    raise SystemExit(f"error: pair {i}: on the {side} side `opplab {shlex.join(cmd)}` exited "
                                     f"{got[0]} (first run: {want[0]}) or printed other stdout or stderr: "
                                     f"{got[2][-2000:]!r}")
        pairs.append(pair)
        print(f"{name} pair {i} ({pair['first']} first): " + ", ".join(
            f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in METRICS), flush=True)

    metrics = {m: compare(pairs, m) for m in METRICS}
    codes = {side: [o[0] for o in first_run[side][1:]] for side in SIDES}
    print(f"{name}: parent {shas['parent'][:12]}, change {shas['change'][:12]}, {args.pairs} pairs, exit codes {codes}")
    for m, s in metrics.items():
        print(f"  {m}: " + "; ".join(f"{side} {s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]"
                                     for side in SIDES)
              + f"; change lower in {s['pairs_change_lower']}/{args.pairs}; median pair ratio "
              f"{s['median_pair_ratio']} (95% {s['interval_95'][0]}-{s['interval_95'][1]})")
    entry.update({"pairs": len(pairs), "exit_codes": codes, "metrics": metrics, "per_pair": pairs})
    if args.claim:
        entry["claim"] = claim_verdict(args.claim, metrics[args.claim], len(pairs))
        print(f"  claim {args.claim}: {entry['claim']['verdict']}")
    if args.trace_seed is not None:
        traced = {}
        for side in SIDES:
            result = run_bench(clones[side][1], args.workload, args.trace_seed, "--trace", "1")
            traced[side] = {"correct": result["correct"], "failed": result["failed"],
                            **{k: v["value"] for k, v in result["metrics"].items()}}
        entry[f"trace_seed_{args.trace_seed}"] = traced
    if not args.out:
        return 0

    record.update({
        "change": git("log", "-1", "--format=%s", shas["change"]),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "command": "scripts/bench_pairs.py: per side, `opplab <first subcommand> --help`, then each experiment "
                   "once, in fresh `python -m opplab` processes (perfbench/run.py's run_process); with a "
                   "workload, one checked `perfbench/run.py --workload W --seed S --seconds 0` pass per side "
                   "first; --trace 1 for the traced runs",
        "method": "alternating pairs: the parent first in even pairs, the change in odd ones; wall_s and cpu_s "
                  "summed over the experiments, peak_rss_mb the largest, setup_s the --help process; medians "
                  "and quartiles (statistics.quantiles, inclusive) over the pairs of each side; "
                  "pairs_change_lower counts the pairs where the change reads lower; median_pair_ratio is the "
                  f"median of change/parent over the pairs, interval_95 its bootstrap 95% interval "
                  f"({RESAMPLES} resamples, random.Random({BOOTSTRAP_SEED}))",
        "environment": {**{k: env.get(k) for k in ENV_FIELDS},
                        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
    })
    prior = record.setdefault("workloads", {}).get(name)
    if prior:
        entry["earlier_runs"] = prior.pop("earlier_runs", []) + [prior]
    record["workloads"][name] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}: {name}, {len(pairs)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
