"""Exception types shared across the package, and the one work ceiling.

Four kernels charge their work to a ``_Capacity`` tally: the window
enumeration its scanned pairs and candidates (per call), the certified
approximation search its entry walk and its candidates (per search), a
ball walk its coefficient slots (per frame of the walk, counted only when
the frame's box could pass the ceiling) and the pairwise kernel the pairs of a
configuration.  Seven loops charge all their items before the first, in
scanned-pair units: the Siegel samples of one siegel_average call, and of
every T of one discrepancy_scan, the Monte Carlo samples of one
main_term_constant call, the r values of one projection_survey, the dyadic
scales of one nonconcentration_constant, the truncated-energy profiles of
one improvement_step_sim and the targets of one witness_table; the
heuristic approximation pool charges its integer multiples in candidates,
and algebraicity_gap every search's up-front charge over its R ladder.
All of them stop at ``DEFAULT_CEILING``.
"""

#: Hard ceiling on the work of one kernel call (spec default).  A tally
#: reads it when the tally is made, so setting this attribute changes the
#: limit of every kernel.
DEFAULT_CEILING = 10**9


class OppLabError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateForm(OppLabError):
    """The quadratic form is singular (or numerically indistinguishable from one)."""


class DefiniteForm(OppLabError):
    """An operation that needs an indefinite form received a definite one."""


class SignatureMismatch(OppLabError):
    """The form is not congruent to the reference hyperbolic form of determinant -1."""


class CapacityExceeded(OppLabError):
    """A kernel would do more work than the ceiling allows."""


class EmptyConfig(OppLabError):
    """A finite point configuration with zero points was passed where mass is required."""


class _Capacity:
    """Running tally of one kernel's work, in units named by ``label``, against the ceiling."""

    def __init__(self, label: str):
        self.label = label
        self.ceiling = DEFAULT_CEILING
        self.used = 0

    def add(self, n: float) -> None:
        # a float charge stays a float, so one past the int range (inf included) still raises
        self.used += n if isinstance(n, float) else int(n)
        if self.used > self.ceiling:
            raise CapacityExceeded(
                f"{self.used} {self.label} exceed the ceiling of {self.ceiling}"
            )
