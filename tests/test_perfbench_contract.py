"""What the benchmark in perfbench/ needs of the program, checked without changing it.

The tracer looks each traced function up by name and binds the arguments
its count functions read, and every workload is a fixed CLI argv, so a
renamed function, parameter or option breaks ``perfbench/run.py`` (with
``--trace 1``, or at all) though every other test passes.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from opplab.cli import _build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACED = _load("tracer").TRACED
WORKLOADS = _load("workloads").WORKLOADS


def _resolve(layer, qualname):
    owner = importlib.import_module(f"opplab.{layer}")
    for part in qualname.split("."):
        assert hasattr(owner, part), f"opplab.{layer}.{qualname}"
        owner = getattr(owner, part)
    return owner


class _Probe:
    """Stands in for any argument value or result a count function reads."""

    witnessed = 0

    def __int__(self):
        return 1

    def __floor__(self):
        return 1

    def __len__(self):
        return 1

    def __lt__(self, other):
        return False


class _ReadArguments(dict):
    """Bound arguments that record every name read from them."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return _Probe()


def test_every_traced_name_resolves():
    # the tracer looks each name up with getattr, so a deleted name makes
    # `perfbench/run.py --trace 1` fail with AttributeError
    for layer, qualname, _ in TRACED:
        assert callable(_resolve(layer, qualname)), f"opplab.{layer}.{qualname}"


def test_every_argument_a_count_reads_is_a_parameter():
    # the counts read the traced call's bound arguments by name
    read = {}
    for layer, qualname, count in TRACED:
        if count is None:
            continue
        arguments = _ReadArguments()
        count(arguments, _Probe())
        params = inspect.signature(_resolve(layer, qualname)).parameters
        assert arguments.read <= set(params), f"opplab.{layer}.{qualname}"
        read[f"{layer}.{qualname}"] = arguments.read
    assert read["approx.best_rational_approx"] == {"R", "exhaustive_limit"}
    assert read["flows.siegel_average"] == {"N"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_argv_parses(workload):
    parser = _build_parser()
    for experiment in WORKLOADS[workload]:
        args = parser.parse_args(experiment.argv(0))
        assert args.command == experiment.args[0]


def test_a_zero_second_run_makes_one_checked_pass():
    # scripts/bench_pairs.py gates its timing on this: with `--seconds 0`
    # run.py runs the workload's list once and checks every output
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", "orbits", "--seed", "0", "--seconds", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 1 and result["failed"] == 0 and result["correct"]
