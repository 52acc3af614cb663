"""opplab benchmark: time each workload's CLI experiments and check their output.

Usage:
  python3 perfbench/run.py                      # every workload, tracing off
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this directory.

With ``--trace 0`` the workload's experiments run one after another, each in
a fresh ``python3 -m opplab`` process, all started by this one process (one
client, closed loop), at the thread settings users get by default.  Whole
passes repeat while half of one more is expected to fit within
``--seconds``; timings are medians over passes.  With ``--trace 1`` one untraced pass runs, then one
traced in-process pass at the default thread count and one with
``OPPLAB_THREADS=1`` (see traced.py and tracer.py).

Every output is compared with the stored reference (check.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A full record (environment, every pass, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
from workloads import SQF2_DIAG, WORKLOADS, Experiment, input_seed  # noqa: E402

#: set-up timings taken before each experiment, so they sample the whole run
SETUP_PER_EXPERIMENT = 3
#: one experiment may not take longer than this
EXPERIMENT_TIMEOUT_S = 60.0
#: everything a traced run starts must end by then, so a hang cannot stall it
TRACED_DEADLINE_S = 150.0

THREAD_VARS = ("OPPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result (for example, no program to run)."""


@dataclass
class ProcResult:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    stdout: str = field(repr=False)
    stderr: str = field(repr=False)


def run_process(argv: list[str], env: dict, timeout: float) -> ProcResult:
    """Run one process to completion; kill it if it outlives ``timeout``.

    Its CPU time and peak RSS come from ``wait4``, so they cover exactly this
    process.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    streams: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for r in readers:
        r.start()
    fired = threading.Event()

    def kill() -> None:
        fired.set()
        proc.kill()

    killer = threading.Timer(max(timeout, 0.1), kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return ProcResult(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=fired.is_set(),
        stdout=streams["out"].decode("utf-8", "replace"),
        stderr=streams["err"].decode("utf-8", "replace"),
    )


def program_env(threads: str | None = None) -> dict:
    """The environment a user has, with ``src/`` importable.

    ``OPPLAB_THREADS`` is unset (the package default) unless ``threads`` is given.
    """
    env = dict(os.environ)
    env.pop("OPPLAB_THREADS", None)
    if threads is not None:
        env["OPPLAB_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def check_output(exp: Experiment, seed: int, stdout: str) -> list[str]:
    ref = REFERENCE / exp.reference_name(seed)
    errors = check.compare_output(ref.read_text(), stdout)
    if exp.witness_eps is not None:
        errors += check.verify_witnesses(stdout, SQF2_DIAG, exp.witness_eps)
    return errors


class Deadline:
    """A point in time that every process of a run must end by."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def timeout(self, cap: float = EXPERIMENT_TIMEOUT_S) -> float:
        return max(0.1, min(cap, self.end - time.perf_counter()))


def run_experiment(exp: Experiment, seed: int, deadline: Deadline) -> dict:
    res = run_process([sys.executable, "-m", "opplab", *exp.argv(seed)], program_env(), deadline.timeout())
    problems = []
    if res.timed_out:
        problems.append("timed out")
    elif res.rc != 0:
        problems.append(f"exit code {res.rc}: {res.stderr.strip()[-500:]}")
    else:
        problems += check_output(exp, seed, res.stdout)
    return {
        "name": exp.name,
        "argv": exp.argv(seed),
        "wall_s": res.wall_s,
        "cpu_s": res.cpu_s,
        "rss_mb": res.rss_mb,
        "rc": res.rc,
        "problems": problems[:20],
    }


def run_pass(workload: str, seed: int, deadline: Deadline, setup: list[float] | None = None) -> dict:
    """Run the workload's experiments once; sample set-up before each into ``setup``."""
    exps = []
    for exp in WORKLOADS[workload]:
        if setup is not None:
            setup += measure_setup(workload, deadline, SETUP_PER_EXPERIMENT)
        exps.append(run_experiment(exp, seed, deadline))
    return {
        "wall_s": sum(e["wall_s"] for e in exps),
        "cpu_s": sum(e["cpu_s"] for e in exps),
        "peak_rss_mb": max(e["rss_mb"] for e in exps),
        "failed": sum(bool(e["problems"]) for e in exps),
        "experiments": exps,
    }


def measure_setup(workload: str, deadline: Deadline, repeats: int) -> list[float]:
    """Fresh interpreter, ``import opplab`` and parser build, via ``--help``."""
    first = WORKLOADS[workload][0].args[0]
    times = []
    for _ in range(repeats):
        res = run_process([sys.executable, "-m", "opplab", first, "--help"], program_env(), deadline.timeout())
        if res.rc != 0 or not res.stdout.startswith("usage: opplab"):
            raise BenchError(f"`opplab {first} --help` failed (exit {res.rc}): {res.stderr.strip()[-500:]}")
        times.append(res.wall_s)
    return times


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """Repeat passes while at least half of one more pass, at the mean pass
    time so far, fits within ``seconds``.  So a run ends within half a pass of
    ``seconds``, and a workload whose pass takes just over ``seconds / 2`` still
    gets two passes.  Set-up is sampled before every experiment.

    One untimed set-up first: compiling bytecode is paid once per checkout,
    not per use.  ``setup_s`` is the lower quartile of the samples: a busy
    host only ever adds time to a start, and the quartile, unlike the
    minimum, does not drift with the number of samples.
    """
    deadline = Deadline(seconds + 2 * EXPERIMENT_TIMEOUT_S)
    measure_setup(workload, deadline, 1)
    begin = time.perf_counter()
    setup: list[float] = []
    passes = []
    while True:
        passes.append(run_pass(workload, seed, deadline, setup))
        elapsed = time.perf_counter() - begin
        if passes[-1]["failed"] or elapsed + elapsed / len(passes) / 2 > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.quantiles(setup, n=4)[0],
    }
    attempted = sum(len(p["experiments"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "setup_samples": setup,
        "passes": passes,
    }


def run_traced_child(workload: str, seed: int, threads: str | None, deadline: Deadline) -> tuple[ProcResult, dict]:
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", workload, "--seed", str(seed)]
    res = run_process(argv, program_env(threads), deadline.timeout(cap=TRACED_DEADLINE_S))
    if res.rc != 0 or res.timed_out:
        raise BenchError(f"traced pass (OPPLAB_THREADS={threads}) failed: {res.stderr.strip()[-500:]}")
    return res, json.loads(res.stdout)


def run_traced(workload: str, seed: int) -> dict:
    """One untraced pass, then traced passes at default threads and at 1."""
    deadline = Deadline(TRACED_DEADLINE_S)
    untraced = run_pass(workload, seed, deadline)
    proc_default, default = run_traced_child(workload, seed, None, deadline)
    proc_single, single = run_traced_child(workload, seed, "1", deadline)

    failed = untraced["failed"]
    problems = {}
    for i, exp in enumerate(WORKLOADS[workload]):
        for label, data in (("default", default), ("threads1", single)):
            out = data["outputs"][i]
            errs = [f"exit code {out['rc']}: {out['error'][-500:]}"] if out["rc"] != 0 else []
            errs += check_output(exp, seed, out["stdout"]) if not errs else []
            if label == "threads1" and out["stdout"] != default["outputs"][i]["stdout"]:
                errs.append("stdout bytes differ between OPPLAB_THREADS=1 and the default")
            if errs:
                failed += 1
                problems[f"{exp.name}/{label}"] = errs[:20]

    metrics = tracer.derive(default["spans"], default["import_s"])
    metrics["util.speedup"] = tracer.experiment_seconds(single["spans"]) / tracer.experiment_seconds(default["spans"])
    metrics["trace.overhead_ratio"] = proc_default.wall_s / untraced["wall_s"]
    for label, data in (("default", default), ("threads1", single)):
        with open(OUT / f"{workload}-seed{seed}-spans-{label}.json", "w") as fh:
            json.dump({"fields": tracer.SPAN_FIELDS, "spans": data["spans"]}, fh)
    n = len(WORKLOADS[workload])
    return {
        "attempted": 3 * n,
        "failed": failed,
        "metrics": metrics,
        "untraced_pass": untraced,
        "traced_wall_s": {"default": proc_default.wall_s, "threads1": proc_single.wall_s},
        "problems": problems,
    }


def _blas() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        # as the experiment processes see them (the traced baseline also sets OPPLAB_THREADS=1)
        "thread_env": {k: program_env().get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")


def metric_units() -> dict[str, dict[str, str]]:
    """Name -> unit of the ``end_to_end`` and ``per_layer`` metrics in BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read the metric list: {exc}") from exc
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    units = metric_units()["per_layer" if trace else "end_to_end"]
    env = environment()
    result = run_traced(workload, seed) if trace else run_untraced(workload, seed, seconds)
    if set(result["metrics"]) != set(units):
        raise BenchError(f"measured metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {sorted(units)}")
    env["loadavg_end"] = os.getloadavg()
    record = {"workload": workload, "seed": seed, "input_seed": input_seed(seed), "seconds": seconds,
              "trace": trace, "environment": env, **result}
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"environment: {json.dumps(env)}")
    print(f"{workload} (seed {seed}, trace {trace}): {result['failed']}/{result['attempted']} experiments failed")
    if not trace:
        print(f"  {'fail_ratio':45s} {result['fail_ratio']:.6g} ratio")
    _print_metrics(result["metrics"], units)
    result["units"] = units
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all, untraced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.trace and not args.workload:
        ap.error("--trace 1 needs --workload")

    if not (ROOT / "src" / "opplab" / "cli.py").is_file():
        print(f"error: no opplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
        units = results[args.workload]["units"]
        summary = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        summary = {
            w: {**{k: {"value": v, "unit": r["units"][k]} for k, v in r["metrics"].items()},
                "fail_ratio": {"value": r["fail_ratio"], "unit": "ratio"}}
            for w, r in results.items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
