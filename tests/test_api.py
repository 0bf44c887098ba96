"""The public API: every change to the exported names shows in this file."""

import mcsynth

EXPORTS = [
    "BoundsVec",
    "CeQualityReport",
    "Conflict",
    "CostMeter",
    "DECISION_ETA",
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
    "compute_bounds",
    "construct_conflict",
    "count_unpruned",
    "evaluate_property",
    "generalization",
    "generate_benchmark",
    "induce",
    "iterate_unpruned",
    "mc_reach",
    "mdp_extreme",
    "member_count",
    "minimal_conflict_oracle",
    "parse_property",
    "parse_sketch",
    "parse_spec",
    "serialize_sketch",
    "split_subfamily",
    "synthesize",
    "trivial_gamma",
]


def test_exported_names_are_pinned():
    assert sorted(mcsynth.__all__) == EXPORTS
    assert len(EXPORTS) == 41
    assert all(hasattr(mcsynth, name) for name in EXPORTS)
