"""Time opplab experiments at a parent and a change commit, in interleaved fresh processes.

Usage:
  python3 scripts/ab_experiment.py --parent REV --change REV --pairs N \\
      [--workdir DIR] -- <opplab argv>
  python3 scripts/ab_experiment.py --parent REV --change REV --pairs N \\
      --workload W [--seed S] [--workdir DIR]

for example

  python3 scripts/ab_experiment.py --parent HEAD~1 --change HEAD --pairs 20 -- \\
      equidist --form "[1,-1,-1.4142135623730951]" --T 20,400,8000 --N 400
  python3 scripts/ab_experiment.py --parent HEAD~1 --change HEAD --pairs 10 --workload projection

Each side runs from its own clone at its commit (``bench_pairs.checkout``,
so the clones are shared with scripts/bench_pairs.py).  Pair i runs one
side's experiments, then the other's, the parent first in even pairs and
the change first in odd ones.  An experiment is one ``python -m opplab
<argv>`` process, with PYTHONPATH set to the side's ``src``.  With
``--workload W`` the experiments are the whole list of that benchmark
workload, read from perfbench/workloads.py, with seeded ones given
``--seed S`` (default 0) as perfbench/run.py gives them; a side's wall and
CPU times are then summed over the list and its peak resident set is the
largest one, as run.py does, so a result is in the benchmark's own unit.
Every run of an experiment must exit with the same code and print the same
stdout and stderr bytes as its first run; otherwise the script stops with
an error.  So a run that ends at an error, such as the work ceiling, can be
timed too; the summary names the exit codes.

Per side it prints the median and quartiles (statistics.quantiles,
inclusive) of the wall time, of the CPU time (user + system, from wait4)
and of the peak resident set (ru_maxrss, in MB), and per metric the number
of pairs in which the change read lower.  Unlike bench_pairs.py, whose
pairs are 30-second perfbench runs, a pair here is one pass of each side
run back to back, so drift of the host's load over seconds hits both sides
of a pair alike.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, SIDES, WORKDIR, checkout, summary  # noqa: E402

METRICS = ("wall_s", "cpu_s", "maxrss_mb")


def run_once(clone: Path, argv: list[str]) -> tuple[tuple[int, bytes, bytes], dict]:
    """Run ``python -m opplab argv`` from ``clone``; return ((exit code, stdout, stderr), metrics)."""
    env = dict(os.environ, PYTHONPATH=str(clone / "src"))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "opplab", *argv], cwd=clone, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux
        return (proc.returncode, out.read(), err.read()), {
            "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_mb": usage.ru_maxrss / 1024}


def run_side(clone: Path, argvs: list[list[str]]) -> tuple[list, dict]:
    """Run each argv in turn from ``clone``: their outcomes, and wall and CPU summed, the peak RSS the largest."""
    outcomes, total = [], {"wall_s": 0.0, "cpu_s": 0.0, "maxrss_mb": 0.0}
    for argv in argvs:
        out, m = run_once(clone, argv)
        outcomes.append(out)
        total["wall_s"] += m["wall_s"]
        total["cpu_s"] += m["cpu_s"]
        total["maxrss_mb"] = max(total["maxrss_mb"], m["maxrss_mb"])
    return outcomes, total


def workload_argvs(workload: str, seed: int) -> list[list[str]]:
    """The argv of every experiment of a perfbench workload, as run.py runs them at ``seed``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"error: no workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [exp.argv(seed) for exp in WORKLOADS[workload]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", required=True, help="change commit")
    ap.add_argument("--pairs", required=True, type=int, help="number of interleaved pairs (at least 2)")
    ap.add_argument("--workload", help="time every experiment of this perfbench workload")
    ap.add_argument("--seed", type=int, default=0, help="workload seed of the seeded experiments (default 0)")
    ap.add_argument("--workdir", type=Path, default=WORKDIR, help="where the clones live")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the opplab arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if bool(argv) == bool(args.workload):
        ap.error("give either --workload or the opplab arguments after --")
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    argvs = workload_argvs(args.workload, args.seed) if args.workload else [argv]

    args.workdir.mkdir(parents=True, exist_ok=True)
    clones = {"parent": checkout(args.parent, args.workdir), "change": checkout(args.change, args.workdir)}
    values = {side: {m: [] for m in METRICS} for side in SIDES}
    lower = dict.fromkeys(METRICS, 0)
    expected = None
    for i in range(args.pairs):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            outcomes, pair[side] = run_side(clones[side][1], argvs)
            if expected is None:
                expected = outcomes
            for run_argv, out, first in zip(argvs, outcomes, expected):
                if out != first:
                    raise SystemExit(f"error: pair {i}: on `opplab {' '.join(run_argv)}` the {side} side exited "
                                     f"{out[0]} (first run: {first[0]}) or printed other stdout or stderr bytes: "
                                     f"{out[2][-2000:]!r}")
        for m in METRICS:
            for side in SIDES:
                values[side][m].append(pair[side][m])
            lower[m] += pair["change"][m] < pair["parent"][m]
        print(f"pair {i} ({SIDES[i % 2]} first): " + ", ".join(
            f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in METRICS), flush=True)

    codes = ",".join(str(out[0]) for out in expected)
    if args.workload:
        print(f"workload {args.workload} (seed {args.seed}), {len(argvs)} experiments, wall and CPU summed, "
              f"peak RSS the largest: " + "; ".join(f"opplab {' '.join(a)}" for a in argvs))
    else:
        print(f"opplab {' '.join(argv)}")
    print(f"parent {clones['parent'][0][:12]}, change {clones['change'][0][:12]}, {args.pairs} pairs, "
          f"exit codes {codes} and the same stdout and stderr bytes on every run")
    for m in METRICS:
        cells = []
        for side in SIDES:
            s = summary(values[side][m])
            cells.append(f"{side} {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]")
        print(f"{m} (exit {codes}): {'; '.join(cells)}; change lower in {lower[m]}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
