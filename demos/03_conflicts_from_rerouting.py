"""Conflicts: how bounds shrink the set of relevant parameters.

A violating member is checked with every state outside the expanded set
pinned to the value a bound vector gives it, as if it jumped straight to a
fresh target with that probability.  With the family's lower bounds the
violation shows after expanding just the initial state, so only X is relevant
and both members agreeing on X are pruned at once.  With the trivial all-zeros
vector the whole path must be expanded and nothing generalizes.
"""

from pathlib import Path

from mcsynth import (
    CostMeter,
    build_quotient,
    construct_conflict,
    compute_bounds,
    generalization,
    iterate_unpruned,
    minimal_conflict_oracle,
    parse_property,
    parse_sketch,
    trivial_gamma,
)

family = parse_sketch((Path(__file__).parent / "toy4.json").read_text())
prop = parse_property("P<=0.3 [F t]", family)
scope = family.full_subfamily()
r0 = next(iterate_unpruned(scope))

bounds = compute_bounds(build_quotient(family, scope), prop.targets)


def name(conflict):
    return "{" + ", ".join(sorted(family.param_names[k] for k in conflict.params)) + "}"


for label, gamma in [
    ("family lower bounds", bounds.lb),
    ("trivial (all zeros) ", trivial_gamma(family.n_states, prop)),
]:
    meter = CostMeter()
    conflict = construct_conflict(family, r0, prop, gamma, scope, meter=meter)
    pruned = generalization(r0, conflict.params, scope)
    print(
        f"gamma = {label}: conflict {name(conflict)} "
        f"({meter.total} checks, prunes {len(pruned)} member(s))"
    )

minimal = minimal_conflict_oracle(family, r0, prop, scope)
print(f"exhaustive minimum     : conflict {name(minimal)}")
