"""The four synthesis methods side by side.

Enumeration, conflict-driven pruning (CEGIS), abstraction refinement, and the
adaptive hybrid are settings of one synthesis loop and decide the same
question; they differ in how many chains they have to look at.  Cost below is
the number of model-check calls.
"""

from mcsynth import (
    generate_benchmark,
    member_count,
    parse_property,
    Specification,
    synthesize,
)

family = generate_benchmark(states=24, params=6, domain_size=2, seed=13)
goal = "goal"
spec = Specification(properties=(parse_property(f"P>=0.35 [F {goal}]", family),))
total = member_count(family.full_subfamily())

print(f"benchmark: {family.n_states} states, {total} members")
print(f"property : {spec.properties[0].text(family)}")
print()
print(f"{'method':10s} {'verdict':12s} {'checked':>8s} {'pruned':>8s} {'model checks':>13s}")
for method in ("onebyone", "cegis", "ar", "hybrid"):
    result = synthesize(family, spec, method=method)
    print(
        f"{method:10s} {result.verdict:12s} {result.stats.checked:8d} "
        f"{result.stats.pruned:8d} {result.stats.model_checks:13d}"
    )

print()
# optimal synthesis: the best satisfying member instead of any one
opt_spec = Specification(
    properties=spec.properties,
    objective=parse_property(f"max P [F {goal}]", family),
)
result = synthesize(family, opt_spec, method="hybrid")
print(f"hybrid optimal: value {result.optimum:.4f} at {result.realization.as_dict(family)}")
