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
"""

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
