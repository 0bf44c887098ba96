"""Conflict construction by rerouting and greedy state expansion.

A violating member chain is shrunk to a small set of *relevant* parameters:
states whose parameters are all relevant keep their concrete behaviour, every
other state is rerouted straight to a fresh target sink with the probability
given by a bound vector.  If the rerouted chain already violates the property,
so does every member that agrees with the violator on the relevant
parameters.  Expansion is greedy: always the horizon state with the fewest
not-yet-relevant parameters, so the loop needs at most one model check per
multi-valued parameter plus one.

Parameters whose restricted domain in the enclosing scope is a singleton are
always treated as relevant: they cannot vary inside the scope, so including
their states costs no generality.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidBoundsError, ResourceCapError
from .model import (
    Conflict,
    Distribution,
    Family,
    Mc,
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


def reroute(mc: Mc, expanded: Iterable[int], gamma: Sequence[float]) -> Mc:
    """Replace all non-expanded states by a probabilistic shortcut.

    Two absorbing sinks are appended: index ``n`` (the new target) and
    ``n+1``.  Expanded states keep their rows; a non-expanded state ``s``
    moves to the new target with probability ``gamma[s]`` and to the other
    sink otherwise.  With every state expanded the result behaves exactly
    like ``mc`` for reachability.
    """
    n = mc.n_states
    top, bot = n, n + 1
    exp = set(expanded)
    rows = []
    for s in range(n):
        if s in exp:
            rows.append(mc.rows[s])
            continue
        g = float(gamma[s])
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma[{s}] = {g!r} outside [0, 1]")
        rows.append(Distribution({top: g, bot: 1.0 - g}))
    rows.append(Distribution({top: 1.0}))
    rows.append(Distribution({bot: 1.0}))
    return Mc(initial=mc.initial, rows=tuple(rows))


def _scope_multi(family: Family, scope: Subfamily | None) -> frozenset[int]:
    if scope is None:
        return frozenset(family.multi_valued())
    return frozenset(scope.multi_valued())


def reachable_via_holes(
    mc: Mc,
    family: Family,
    params: Iterable[int],
    scope: Subfamily | None = None,
) -> tuple[set[int], set[int]]:
    """Split the reachable states of ``mc`` into expanded set and horizon.

    A state is expandable when every multi-valued parameter in its template
    is in ``params`` (singleton-domain parameters are always relevant).  The
    expanded set ``C`` is what BFS from the initial state reaches through
    expandable states only; the horizon collects the reachable fringe states
    that still carry irrelevant parameters.
    """
    rel = set(params)
    multi = _scope_multi(family, scope)
    expanded: set[int] = set()
    horizon: set[int] = set()
    seen = {mc.initial}
    queue = deque([mc.initial])
    while queue:
        s = queue.popleft()
        if all(k in rel for k in family.templates[s].keys if k in multi):
            expanded.add(s)
            for t in mc.rows[s].keys:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        else:
            horizon.add(s)
    return expanded, horizon


def choose_to_expand(
    horizon: Iterable[int],
    params: Iterable[int],
    family: Family,
    scope: Subfamily | None = None,
) -> int:
    """Horizon state with the fewest irrelevant multi-valued parameters."""
    rel = set(params)
    multi = _scope_multi(family, scope)
    hs = sorted(horizon)
    if not hs:
        raise InvalidBoundsError("horizon is empty, nothing left to expand")
    def missing(s: int) -> int:
        return sum(1 for k in family.templates[s].keys if k in multi and k not in rel)
    return min(hs, key=lambda s: (missing(s), s))


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
    """
    if not realization_in(scope, r):
        raise ValueError("realization lies outside the scope")
    mc = induce(family, r)
    new_targets = set(prop.targets) | {mc.n_states}
    rel: set[int] = set()
    multi = _scope_multi(family, scope)
    while True:
        expanded, horizon = reachable_via_holes(mc, family, rel, scope)
        rerouted = reroute(mc, expanded, gamma)
        value = float(mc_reach(rerouted, new_targets)[mc.initial])
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
        pick = choose_to_expand(horizon, rel, family, scope)
        rel |= {k for k in family.templates[pick].keys if k in multi}


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
    multi = sorted(_scope_multi(family, scope))
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
