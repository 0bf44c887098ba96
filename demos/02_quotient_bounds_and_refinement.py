"""Quotient bounds over a family and how splitting tightens them.

The quotient MDP lets every state pick its local parameter values
independently, so its min/max reachability brackets every member.  Splitting
the family along the parameter where the two optimal schedulers disagree
shrinks the bracket until single members are decided exactly.
"""

from pathlib import Path

import numpy as np

from mcsynth import build_quotient, compute_bounds, member_count, parse_sketch, split_subfamily

family = parse_sketch((Path(__file__).parent / "toy4.json").read_text())
targets = frozenset({family.state_names.index("t")})


def show(label, sub):
    bounds = compute_bounds(build_quotient(family, sub), targets)
    lo, hi = bounds.lb[family.initial], bounds.ub[family.initial]
    print(f"{label:28s} members={member_count(sub)}  value in [{lo:.3f}, {hi:.3f}]")
    return bounds


root = family.full_subfamily()
bounds = show("whole family", root)
print("  per-state lower bounds:", np.round(bounds.lb, 3))

left, right = split_subfamily(bounds.quotient, bounds.min_scheduler, bounds.max_scheduler)
bl = show("X fixed to s1", left)
br = show("X fixed to s2", right)

# refine the undecided half again: now every leaf is a single member
left2, right2 = split_subfamily(br.quotient, br.min_scheduler, br.max_scheduler)
show("X=s2, Y fixed to t", left2)
show("X=s2, Y fixed to f", right2)

print()
print("Bounds only tighten along a split path, and collapse on single members.")
