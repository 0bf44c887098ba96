"""Conflicts: how bounds shrink the set of relevant parameters.

A violating member is checked with every state outside the expanded set
pinned to the value a bound vector gives it, as if it jumped straight to a
fresh target with that probability.  With the family's lower bounds the
violation shows after expanding just the initial state, so only X is relevant
and both members agreeing on X are pruned at once.  With the trivial all-zeros
vector the whole path must be expanded and nothing generalizes.  A conflict
is a cube: the member's values on the relevant parameters.
"""

from pathlib import Path

from mcsynth import (
    SynthStats,
    build_quotient,
    construct_conflict,
    compute_bounds,
    generalization,
    induce,
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


def name(cube):
    return "{" + ", ".join(family.param_names[k] for k, _value in cube) + "}"


for label, gamma in [
    ("family lower bounds", bounds.lb),
    ("trivial (all zeros) ", trivial_gamma(family.n_states, prop)),
]:
    stats = SynthStats()
    conflict = construct_conflict(induce(family, r0), prop, gamma, scope, stats=stats)
    pruned = generalization(conflict, scope)
    print(
        f"gamma = {label}: conflict {name(conflict)} "
        f"({stats.model_checks} checks, prunes {len(pruned)} member(s))"
    )

minimal = minimal_conflict_oracle(family, r0, prop, scope)
print(f"exhaustive minimum     : conflict {name(minimal)}")
