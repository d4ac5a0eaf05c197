"""Belief-function fusion of uncertain multi-expert classifications.

The package models expert statements about image tiles as mass functions
on either an exclusive-classes lattice or a free one that keeps
conjunctions like A∩B, combines them with the conjunctive consensus or
proportional conflict redistribution, and decides by credibility,
plausibility, or pignistic probability.  A Monte Carlo module measures how
often the choice of combination rule flips the decision, and a corpus
module applies the same machinery to annotation files.

The package root holds the object-level API of the running example and
needs only the standard library.  Every other name is imported from its
module: `expertfuse.lattice`, `mass`, `expert_models`, `fusion` and
`decision` for the object path, and `expertfuse.stability` and `corpus`,
the two modules that need numpy, for the Monte Carlo study and the
corpus statistics.
"""

__version__ = "0.1.0"

from .decision import Criterion, criteria_table, decide
from .expert_models import (
    ExpertDeclaration,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
)
from .fusion import combine_conjunctive, combine_pcr5, redistribute_conjunctions
from .lattice import Model

__all__ = [
    "__version__",
    "Criterion", "ExpertDeclaration", "Model",
    "build_m1", "build_m2", "build_m3", "build_m4", "build_m5",
    "combine_conjunctive", "combine_pcr5", "criteria_table", "decide",
    "redistribute_conjunctions",
]
