"""Belief-function fusion of uncertain multi-expert classifications.

The package models expert statements about image tiles as mass functions
on either an exclusive-classes lattice or a free one that keeps
conjunctions like A∩B, combines them with the conjunctive consensus or
proportional conflict redistribution, and decides by credibility,
plausibility, or pignistic probability.  A Monte Carlo module measures how
often the choice of combination rule flips the decision, and a corpus
module applies the same machinery to annotation files.
"""

__version__ = "0.1.0"

from .lattice import (
    Frame,
    FocalElement,
    Model,
    enumerate_elements,
    format_element,
    make_frame,
    parse_element,
)
from .mass import (
    MassFunction,
    World,
    mass_from_entries,
    mass_from_masks,
)
from .expert_models import (
    AnnotationEntry,
    CertaintyWeights,
    DEFAULT_WEIGHTS,
    DeclarationKind,
    ExpertDeclaration,
    SEDIMENT_CLASSES,
    TileAnnotation,
    build_generalized_m5,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
    sediment_frame,
)
from .fusion import (
    RULE_NAMES,
    combine,
    combine_conjunctive,
    combine_pcr5,
    combine_pcr6,
    redistribute_conjunctions,
)
from .decision import (
    Criterion,
    DecisionReport,
    TIE_TOLERANCE,
    credibility,
    criteria_table,
    criterion_value,
    decide,
    pignistic,
    plausibility,
)
from .stability import (
    Histogram,
    InvarianceCase,
    SAMPLING_LAWS,
    StabilityResult,
    conflict_density,
    decision_change_rate,
    invariance_check,
    pair_decisions,
    rate_and_histograms,
    stability_table,
)
from .corpus import (
    ConflictMatrix,
    Corpus,
    CorpusError,
    DecisionDifference,
    ExpertPair,
    conflict_matrix,
    decision_difference,
    expert_pair,
    generate_demo_corpus,
    load_annotations,
    parse_annotations,
    tile_mass,
)

__all__ = [
    "__version__",
    "Frame", "FocalElement", "Model", "enumerate_elements",
    "format_element", "make_frame", "parse_element",
    "MassFunction", "World", "mass_from_entries", "mass_from_masks",
    "AnnotationEntry", "CertaintyWeights", "DEFAULT_WEIGHTS",
    "DeclarationKind", "ExpertDeclaration", "SEDIMENT_CLASSES",
    "TileAnnotation", "build_generalized_m5", "build_m1", "build_m2",
    "build_m3", "build_m4", "build_m5", "sediment_frame",
    "RULE_NAMES", "combine", "combine_conjunctive", "combine_pcr5",
    "combine_pcr6", "redistribute_conjunctions",
    "Criterion", "DecisionReport", "TIE_TOLERANCE", "credibility",
    "criteria_table", "criterion_value", "decide", "pignistic", "plausibility",
    "Histogram", "InvarianceCase", "SAMPLING_LAWS", "StabilityResult",
    "conflict_density", "decision_change_rate", "invariance_check",
    "pair_decisions", "rate_and_histograms", "stability_table",
    "ConflictMatrix", "Corpus", "CorpusError", "DecisionDifference", "ExpertPair",
    "conflict_matrix", "decision_difference", "expert_pair", "generate_demo_corpus",
    "load_annotations", "parse_annotations", "tile_mass",
]
