"""A family of Markov chains and its members.

Loads the five-state example sketch, enumerates all four members, and model
checks each against the safety property P<=0.3 [F t].
"""

from pathlib import Path

from mcsynth import (
    evaluate_property,
    induce,
    iterate_unpruned,
    mc_reach,
    member_count,
    parse_property,
    parse_sketch,
)

family = parse_sketch((Path(__file__).parent / "toy4.json").read_text())
prop = parse_property("P<=0.3 [F t]", family)

print(f"states     : {', '.join(family.state_names)}")
print(f"parameters : {', '.join(family.param_names)}")
multi = family.full_subfamily().multi_valued()
print(f"effective  : {', '.join(family.param_names[k] for k in multi)}")
print(f"members    : {member_count(family.full_subfamily())}")
print()

# every realization induces one concrete chain
for i, r in enumerate(iterate_unpruned(family.full_subfamily())):
    mc = induce(family, r)
    value = mc_reach(mc, prop.targets)[family.initial]
    verdict = "sat " if evaluate_property(value, prop) else "viol"
    assignment = ", ".join(f"{k}={v}" for k, v in r.as_dict(family).items())
    print(f"r{i}: P[reach t] = {value:.3f}  {verdict}  ({assignment})")

print()
print("Only the last member stays below the 0.3 threshold.")
