"""opplab: an executable laboratory for small values of ternary quadratic forms.

The package has four legs, one per family of experiments:

- forms / enumeration: quadratic forms, integer vector enumeration, witness
  tables for target values, and value counts against the volume main term.
- approx: best integral approximations and the witness-or-rational dichotomy.
- flows: the diagonal and unipotent flows on unimodular lattices, basepoints
  attached to forms, and Siegel-type orbit averages against Haar.
- projection: a finite-set simulator for the 5-dimensional representation,
  restricted projections, non-concentration surveys, and truncated energies.

Everything is deterministic for a fixed seed.  OPPLAB_THREADS sizes the
thread pool of the projection survey (projection_survey), the only step
that runs on one; it trades wall time only.  The Monte Carlo counting
constant (main_term_constant), lattice reduction, the Siegel samples and
the truncated-energy transports (improvement_step_sim) run serially.

Importing opplab before numpy pins OpenBLAS to one thread, unless one of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is already set:
no opplab step gains from BLAS threads, and the idle pool OpenBLAS starts
otherwise costs each process CPU time.  The variable is set only while
numpy loads and removed again, so child processes do not inherit the pin.
If numpy is already loaded, the environment is left alone.
"""

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

from .approx import (
    ApproxResult,
    DichotomyOutcome,
    GapResult,
    GapRow,
    IntegralForm,
    WitnessSummary,
    algebraicity_gap,
    best_rational_approx,
    dichotomy_report,
    signed_inverse_cuberoot,
)
from .enumeration import (
    CountReport,
    WitnessRecord,
    WitnessTable,
    count_values,
    count_vs_main_term,
    find_witness,
    main_term_constant,
    witness_table,
)
from .errors import (
    CapacityExceeded,
    DefiniteForm,
    DegenerateForm,
    EmptyConfig,
    NoCandidate,
    OppLabError,
    SignatureMismatch,
)
from .flows import (
    Basepoint,
    EquidistReport,
    GroupElement,
    LatticePoint,
    act,
    bump_mass,
    bump_values,
    discrepancy_scan,
    flow_a,
    flow_u,
    form_to_basepoint,
    siegel_average,
    v_elem,
)
from .forms import (
    REFERENCE_FORM,
    NormalizedForm,
    TernaryForm,
    normalize,
    parse_form,
)
from .lattice import enumerate_ball, lll_reduce, shortest_vector_coeffs
from .projection import (
    FiniteConfig,
    ImprovementStats,
    MargulisParams,
    ProjectionParams,
    SurveyResult,
    SurveyRow,
    adjoint_a,
    adjoint_u,
    expansion_check_rows,
    improvement_step_sim,
    margulis_value,
    nonconcentration_constant,
    projection_concentration,
    projection_survey,
    shift_exponential,
    xi,
)

__version__ = "0.1.0"

if _pin_blas:
    # every submodule has loaded numpy by now; keep the pin inside this process
    del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "ApproxResult",
    "Basepoint",
    "CapacityExceeded",
    "CountReport",
    "DefiniteForm",
    "DegenerateForm",
    "DichotomyOutcome",
    "EmptyConfig",
    "EquidistReport",
    "FiniteConfig",
    "GapResult",
    "GapRow",
    "GroupElement",
    "ImprovementStats",
    "IntegralForm",
    "LatticePoint",
    "MargulisParams",
    "NoCandidate",
    "NormalizedForm",
    "OppLabError",
    "ProjectionParams",
    "REFERENCE_FORM",
    "SignatureMismatch",
    "SurveyResult",
    "SurveyRow",
    "TernaryForm",
    "WitnessRecord",
    "WitnessSummary",
    "WitnessTable",
    "act",
    "adjoint_a",
    "adjoint_u",
    "algebraicity_gap",
    "best_rational_approx",
    "bump_mass",
    "bump_values",
    "count_values",
    "count_vs_main_term",
    "dichotomy_report",
    "discrepancy_scan",
    "enumerate_ball",
    "expansion_check_rows",
    "find_witness",
    "flow_a",
    "flow_u",
    "form_to_basepoint",
    "improvement_step_sim",
    "lll_reduce",
    "main_term_constant",
    "margulis_value",
    "nonconcentration_constant",
    "normalize",
    "parse_form",
    "projection_concentration",
    "projection_survey",
    "shift_exponential",
    "shortest_vector_coeffs",
    "siegel_average",
    "signed_inverse_cuberoot",
    "v_elem",
    "witness_table",
    "xi",
]
