"""Synthesis for finite families of Markov chains.

A family fixes the states and leaves transition *targets* open behind
parameters with finite domains; assigning every parameter a value yields one
member chain.  Given threshold reachability properties (and optionally an
optimization objective), the drivers in :mod:`mcsynth.synthesis` find a
satisfying or optimal member by enumeration, conflict-driven pruning (CEGIS),
quotient-MDP abstraction refinement, or an adaptive hybrid of the latter two;
all four are settings of one loop, :func:`mcsynth.synthesis.synthesize`.
"""

from .counterexamples import (
    choose_to_expand,
    construct_conflict,
    minimal_conflict_oracle,
    reachable_via_holes,
    reroute,
    trivial_gamma,
)
from .errors import (
    InvalidBoundsError,
    McsynthError,
    PropertyError,
    ResourceCapError,
    SketchError,
)
from .model import (
    Conflict,
    Distribution,
    Family,
    Mc,
    Realization,
    Subfamily,
    count_unpruned,
    generalization,
    induce,
    iterate_unpruned,
    member_count,
)
from .quotient import BoundsVec, QuotientMdp, build_quotient, compute_bounds, split_subfamily
from .reach import (
    CostMeter,
    DECISION_ETA,
    Objective,
    Property,
    Specification,
    evaluate_property,
    mc_reach,
    mc_reach_exact,
    mdp_extreme,
)
from .report import CeQualityReport, ce_quality_report
from .sketch import (
    generate_benchmark,
    parse_property,
    parse_sketch,
    parse_spec,
    serialize_sketch,
)
from .synthesis import SynthesisResult, SynthStats, synthesize

__version__ = "0.1.0"

__all__ = [
    "BoundsVec",
    "CeQualityReport",
    "Conflict",
    "CostMeter",
    "DECISION_ETA",
    "Distribution",
    "Family",
    "InvalidBoundsError",
    "Mc",
    "McsynthError",
    "Objective",
    "Property",
    "PropertyError",
    "QuotientMdp",
    "Realization",
    "ResourceCapError",
    "SketchError",
    "Specification",
    "Subfamily",
    "SynthStats",
    "SynthesisResult",
    "build_quotient",
    "ce_quality_report",
    "choose_to_expand",
    "compute_bounds",
    "construct_conflict",
    "count_unpruned",
    "evaluate_property",
    "generalization",
    "generate_benchmark",
    "induce",
    "iterate_unpruned",
    "mc_reach",
    "mc_reach_exact",
    "mdp_extreme",
    "member_count",
    "minimal_conflict_oracle",
    "parse_property",
    "parse_sketch",
    "parse_spec",
    "reachable_via_holes",
    "reroute",
    "serialize_sketch",
    "split_subfamily",
    "synthesize",
    "trivial_gamma",
]
