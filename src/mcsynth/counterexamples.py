"""Conflict construction by greedy state expansion against a bound vector.

A violating member chain is shrunk to a small set of *relevant* parameters.
States whose parameters are all relevant (the expanded states) keep their
concrete behaviour; every other state is pinned to the value a bound vector
gamma gives it, as if it were rerouted to a fresh target with that
probability, and only the expanded states are solved for.  If the member
violates the property even so, every member that agrees with it on the
relevant parameters does too.  Expansion is greedy: always the horizon state
with the fewest not-yet-relevant parameters, so the loop needs at most one
model check per multi-valued parameter plus one.

Parameters whose restricted domain in the enclosing scope is a singleton are
always treated as relevant: they cannot vary inside the scope, so including
their states costs no generality.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import InvalidBoundsError, ResourceCapError
from .model import (
    Conflict,
    Family,
    Realization,
    Subfamily,
    generalization,
    induce,
    member_count,
    realization_in,
)
from .reach import CostMeter, DECISION_ETA, Property, evaluate_property, mc_reach, mc_reach_exact

ORACLE_MEMBER_CAP = 4096
ORACLE_PARAM_CAP = 16


def _checked_gamma(gamma: Sequence[float], n_states: int) -> np.ndarray:
    g = np.asarray(gamma, dtype=np.float64)
    if g.ndim != 1 or g.size != n_states:
        raise ValueError(f"gamma has shape {g.shape}, expected one value per state ({n_states})")
    bad = ~((g >= 0.0) & (g <= 1.0))
    if bad.any():
        s = int(np.argmax(bad))
        raise ValueError(f"gamma[{s}] = {float(g[s])!r} outside [0, 1]")
    return g


def construct_conflict(
    family: Family,
    r: Realization,
    prop: Property,
    gamma: Sequence[float],
    scope: Subfamily,
    eta: float = DECISION_ETA,
    meter: CostMeter | None = None,
) -> Conflict:
    """Greedy conflict for a member violating ``prop``.

    ``gamma`` must lower-bound (safety) or upper-bound (liveness) the
    reachability value of every member of ``scope`` at every state; the
    bounds of ``scope`` itself or the trivial all-zeros / all-ones vector
    qualify.  Every member of the returned conflict's generalization within
    ``scope`` violates ``prop``.

    Each step checks the member with every non-expanded state pinned to its
    ``gamma`` value.  The expanded set and the horizon only grow with the
    relevant set, so one walk from the initial state serves every step: after
    each pick it resumes from the horizon states that became expandable.
    """
    if not realization_in(scope, r):
        raise ValueError("realization lies outside the scope")
    mc = induce(family, r)
    n = mc.n_states
    g = _checked_gamma(gamma, n)
    multi = frozenset(scope.multi_valued())
    # per state, the multi-valued parameters of its template
    tmpl_ptr, tmpl_param = family.tmpl_ptr.tolist(), family.tmpl_param.tolist()
    holes = [[k for k in tmpl_param[a:b] if k in multi] for a, b in zip(tmpl_ptr, tmpl_ptr[1:])]
    ptr, tgt = mc.row_ptr.tolist(), mc.ent_target.tolist()
    rel: set[int] = set()
    expanded = np.zeros(n, dtype=bool)
    horizon: set[int] = set()
    seen = {mc.initial}
    walk = [mc.initial]
    while True:
        while walk:
            s = walk.pop()
            if all(k in rel for k in holes[s]):
                expanded[s] = True
                for t in tgt[ptr[s] : ptr[s + 1]]:
                    if t not in seen:
                        seen.add(t)
                        walk.append(t)
            else:
                horizon.add(s)
        value = float(mc_reach(mc, prop.targets, fixed=(~expanded, g))[mc.initial])
        if meter is not None:
            meter.count()
        if not evaluate_property(value, prop, eta):
            return Conflict(params=frozenset(rel), reference=r, scope=scope)
        if not horizon:
            # Everything reachable is expanded, so the check above saw the
            # real chain.  Satisfaction means either the caller passed a
            # satisfying member or gamma disagrees with direct checking.
            direct = float(mc_reach_exact(mc, prop.targets)[mc.initial])
            if evaluate_property(direct, prop, eta):
                raise ValueError("member satisfies the property, no conflict exists")
            raise InvalidBoundsError(
                "rerouting never exhibited the violation; gamma is inconsistent"
            )
        # the fewest not-yet-relevant parameters, ties to the lowest index
        pick = min(horizon, key=lambda s: (sum(k not in rel for k in holes[s]), s))
        rel.update(holes[pick])
        walk = [s for s in horizon if all(k in rel for k in holes[s])]
        horizon.difference_update(walk)


def trivial_gamma(n_states: int, prop: Property) -> np.ndarray:
    """The bound-free rerouting vector: zeros for safety, ones for liveness."""
    return np.ones(n_states) if prop.op == ">=" else np.zeros(n_states)


def minimal_conflict_oracle(
    family: Family,
    r: Realization,
    prop: Property,
    scope: Subfamily,
    eta: float = DECISION_ETA,
) -> Conflict:
    """Minimum-cardinality conflict by exhaustive subset search (test oracle).

    Enumerates parameter subsets by increasing size (lexicographic within a
    size) and certifies each candidate by model checking every member of its
    generalization with the exact solver.  Desk scale only.
    """
    if member_count(scope) > ORACLE_MEMBER_CAP:
        raise ResourceCapError(
            f"oracle limited to {ORACLE_MEMBER_CAP} members, scope has {member_count(scope)}"
        )
    multi = scope.multi_valued()
    if len(multi) > ORACLE_PARAM_CAP:
        raise ResourceCapError(
            f"oracle limited to {ORACLE_PARAM_CAP} multi-valued parameters"
        )
    if not realization_in(scope, r):
        raise ValueError("realization lies outside the scope")

    cache: dict[tuple[int, ...], bool] = {}

    def violates(member: Realization) -> bool:
        key = member.values
        if key not in cache:
            value = float(mc_reach_exact(induce(family, member), prop.targets)[family.initial])
            cache[key] = not evaluate_property(value, prop, eta)
        return cache[key]

    for size in range(len(multi) + 1):
        for subset in itertools.combinations(multi, size):
            if all(violates(member) for member in generalization(r, subset, scope)):
                return Conflict(params=frozenset(subset), reference=r, scope=scope)
    raise ValueError("member satisfies the property, no conflict exists")
