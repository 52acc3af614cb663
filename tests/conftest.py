"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opplab

SRC = Path(opplab.__file__).resolve().parents[1]


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.fixture
def run_under_coretype():
    """Run a Python snippet in a fresh process with OPENBLAS_CORETYPE set.

    Returns a function (coretype, code) -> stdout.  Skips unless numpy uses a
    DYNAMIC_ARCH OpenBLAS build (the only kind that honours the variable) on
    a CPU that can run the Haswell kernels.
    """
    if not _dynamic_openblas():
        pytest.skip("numpy is not built with a DYNAMIC_ARCH OpenBLAS")
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    if not (__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
        pytest.skip("this CPU cannot run the Haswell OpenBLAS kernels")

    def run(coretype: str, code: str) -> str:
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        # OPENBLAS_VERBOSE=2 makes OpenBLAS name the kernel it forced (on stderr)
        assert "Core: " in proc.stderr, proc.stderr
        return proc.stdout

    return run
