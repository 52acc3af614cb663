"""opplab: an executable laboratory for small values of ternary quadratic forms.

The package has four legs, one per family of experiments:

- forms / enumeration: quadratic forms, integer vector enumeration, witness
  tables for target values, and value counts against the volume main term.
- approx: best integral approximations and the witness-or-rational dichotomy.
- flows: the diagonal and unipotent flows on unimodular lattices, basepoints
  attached to forms, and Siegel-type orbit averages against Haar.
- projection: a finite-set simulator for the 5-dimensional representation,
  restricted projections, non-concentration surveys, and truncated energies.

Everything is deterministic for a fixed seed.  OPPLAB_THREADS (capped at
the usable CPUs) sets how many forked worker processes share the r values
of the projection survey (projection_survey) and the rho samples of the
truncated-energy transports (improvement_step_sim), the only steps that run
on workers; it trades wall time only.  The Monte Carlo counting constant
(main_term_constant), lattice reduction and the Siegel samples run
serially.

Importing opplab before numpy pins OpenBLAS to one thread, unless one of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is already set:
no opplab step gains from BLAS threads, and the idle pool OpenBLAS starts
otherwise costs each process CPU time.  The variable is set only while
numpy loads and removed again, so child processes do not inherit the pin.
If numpy is already loaded, the environment is left alone.

The layer modules load on first use.  Importing opplab imports numpy and
registers approx, enumeration, errors, flows, forms, lattice, projection
and util in sys.modules, and as attributes here, without running their
bodies; a layer runs on the first access to one of its attributes (which
runs the layers it imports).  So a command-line run compiles and executes
only the layers its subcommand calls.  Library imports work as before:
``from opplab import witness_table``, ``from opplab import *`` and
``import opplab.forms`` each load the layer they name.
"""

import importlib.util
import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it, and its worker
# threads spin on CPU time that no opplab BLAS call repays.  A user's own
# setting wins, and a process that has already loaded numpy is not touched.
_pin_blas = "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _pin_blas:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as _numpy  # noqa: E402,F401  (OpenBLAS reads the pin here)

if _pin_blas:
    del os.environ["OPENBLAS_NUM_THREADS"]  # keep the pin inside this process

__version__ = "0.1.0"

#: The public names, by the layer module that defines them.
_EXPORTS = {
    "approx": (
        "ApproxResult", "DichotomyOutcome", "GapResult", "GapRow", "IntegralForm",
        "WitnessSummary", "algebraicity_gap", "best_rational_approx", "dichotomy_report",
        "signed_inverse_cuberoot",
    ),
    "enumeration": (
        "CountReport", "WitnessRecord", "WitnessTable", "count_values", "count_vs_main_term",
        "find_witness", "main_term_constant", "witness_table",
    ),
    "errors": (
        "CapacityExceeded", "DefiniteForm", "DegenerateForm", "EmptyConfig", "OppLabError",
        "SignatureMismatch",
    ),
    "flows": (
        "Basepoint", "EquidistReport", "GroupElement", "LatticePoint", "act", "bump_mass",
        "bump_values", "discrepancy_scan", "flow_a", "flow_u", "form_to_basepoint",
        "siegel_average", "v_elem",
    ),
    "forms": ("REFERENCE_FORM", "NormalizedForm", "TernaryForm", "normalize", "parse_form"),
    "lattice": ("enumerate_ball", "lll_reduce", "shortest_vector_coeffs"),
    "projection": (
        "FiniteConfig", "ImprovementStats", "MargulisParams", "ProjectionParams", "SurveyResult",
        "SurveyRow", "adjoint_a", "adjoint_u", "expansion_check_rows", "improvement_step_sim",
        "margulis_value", "nonconcentration_constant", "projection_concentration",
        "projection_survey", "shift_exponential", "xi",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_LAYER_OF)


def _lazy(layer: str):
    """Register opplab.<layer> in sys.modules and here; its body runs on first attribute access.

    A subcommand thus compiles and runs only the layers it calls, while every
    layer stays an ordinary entry of sys.modules that getattr resolves.  The
    first access is not thread-safe (importlib.util.LazyLoader), so a layer
    must load before any thread can reach it.  opplab starts no thread: its
    workers are processes forked inside projection_survey and
    improvement_step_sim, after their module has loaded, and a fork made
    while another thread runs is not made at all (util.parallel_map then
    runs serially).
    """
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


approx = _lazy("approx")
enumeration = _lazy("enumeration")
errors = _lazy("errors")
flows = _lazy("flows")
forms = _lazy("forms")
lattice = _lazy("lattice")
projection = _lazy("projection")
util = _lazy("util")


def __getattr__(name: str):
    """A public name, read from its layer (which loads the layer)."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})
