"""One traced pass of a workload, in this process, through ``opplab.cli.main``.

Usage: python3 perfbench/traced.py --workload NAME --seed N

Imports opplab from ``src/`` (timing the import), installs the tracer, runs
each experiment of the workload in order with stdout and stderr captured,
and prints one JSON document: the import time, every span, and each
experiment's exit code, stdout and stderr.  ``OPPLAB_THREADS`` is taken from the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    from tracer import Tracer, install
    from workloads import WORKLOADS

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import opplab.cli

    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    outputs = []
    for i, exp in enumerate(WORKLOADS[args.workload]):
        tracer.experiment = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = opplab.cli.main(exp.argv(args.seed))
            except Exception:  # reported as a failed experiment, the pass goes on
                rc = -1
                traceback.print_exc()
        outputs.append({"name": exp.name, "rc": rc, "stdout": out.getvalue(), "error": err.getvalue()})
    json.dump({"import_s": import_s, "spans": tracer.spans, "outputs": outputs}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
