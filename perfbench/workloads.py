"""The benchmark's workloads: fixed lists of ``opplab`` CLI experiments.

Each workload stresses different modules (see NOTES.md for why each one
exists).  Experiments that take ``--seed`` get the workload seed folded onto
one of ``REFERENCE_SEEDS`` input sets, because the correctness gate compares
every output with a reference stored for that exact seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

SQF2 = "[1,-1,-1.4142135623730951]"
#: Diagonal entries of SQF2, for the independent witness check.
SQF2_DIAG = (1.0, -1.0, -1.4142135623730951)

#: Number of seeded input sets with a stored reference (seeds 0..N-1).
REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation; ``seeded`` experiments also get ``--seed``."""

    name: str
    args: tuple[str, ...]
    seeded: bool = False
    #: tolerance of the witness records in stdout, re-verified independently
    witness_eps: Optional[float] = None

    def argv(self, seed: int) -> list[str]:
        if not self.seeded:
            return list(self.args)
        return [*self.args, "--seed", str(input_seed(seed))]

    def reference_name(self, seed: int) -> str:
        """Path of the stored reference, relative to the reference directory."""
        if self.seeded:
            return f"seed{input_seed(seed)}/{self.name}.out"
        return f"{self.name}.out"


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


WORKLOADS: dict[str, tuple[Experiment, ...]] = {
    # doubling-shell witness walk; no lattice reduction, no point configuration
    "witness": (
        Experiment(
            "witness",
            ("witness", "--form", SQF2, "--eps", "0.05", "--T", "10000"),
            witness_eps=0.05,
        ),
        Experiment(
            "dichotomy",
            ("dichotomy", "--form", SQF2, "--R", "4", "--T", "1e9", "--eps", "0.05"),
        ),
    ),
    # exact window counts, Monte Carlo C_Q, certified search and 7-D LLL
    "counting": (
        Experiment(
            "count",
            ("count", "--form", SQF2, "--a", "-1", "--b", "1", "--T", "500,1000,2000"),
            seeded=True,
        ),
        Experiment("rational_certified", ("rational", "--form", SQF2, "--R", "1,2,4,8,12")),
        Experiment("rational_heuristic", ("rational", "--form", SQF2, "--R", "16,32,64,128,1000")),
    ),
    # Siegel samples on increasingly sheared 3-D lattices
    "orbits": (
        Experiment(
            "equidist",
            ("equidist", "--form", SQF2, "--T", "20,400,8000", "--N", "400"),
            seeded=True,
        ),
    ),
    # n x n pairwise kernels on 2000 points; no lattice or enumeration code
    "projection": (
        Experiment(
            "projection",
            ("projection", "--random-theta", "2000", "--r-count", "100"),
            seeded=True,
        ),
        Experiment(
            "margulis",
            ("margulis", "--random-theta", "2000", "--ball-radius", "0.04", "--M", "2"),
            seeded=True,
        ),
    ),
}
