"""Conflict construction by greedy state expansion against a bound vector.

The member chain the driver checked, the quotient of that one member (its
``sub`` is the member's realization), is shrunk to a small set of
*relevant* parameters.  States whose parameters are all relevant (the
expanded states) keep their concrete behaviour; every other state is pinned
to the value a bound vector gamma gives it, as if it were rerouted to a
fresh target with that probability, and only the expanded states are
solved for.  If the member violates the property even so, every
member that agrees with it on the relevant parameters does too, and the
conflict is the cube pinning them to the member's values.  Expansion
is greedy: always the horizon state with the fewest not-yet-relevant
parameters.  That order reads the member's rows and templates but no value,
so it is planned whole up front, and a bisection over its ``K + 1`` steps
finds the first violating one with at most ``ceil(log2(K + 1)) + 1`` model
checks.  Only the exhaustive oracle induces chains, from the family's root.
On a one-chunk family a step is read off the member's own solve, which the
chain keeps (values ``x`` over its unknown states ``U``): pinning the horizon
``H`` within ``U`` adds ``f . (gamma - x)[H]``, ``N[H, H]^T f = N[0, H]`` with
``N = (I - Q_UU)^-1`` (Kemeny & Snell, 1960), unless ``H`` holds a state of
prob-0 for the member with positive gamma.  Other steps are solved.

Parameters whose restricted domain in the enclosing scope is a singleton are
always treated as relevant: they cannot vary inside the scope, so including
their states costs no generality.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ResourceCapError
from .model import (
    Cube,
    Family,
    Realization,
    Subfamily,
    cube_pins,
    generalization,
    member_count,
)
from .quotient import QuotientMdp, induce
from .reach import Property, evaluate_property, mc_reach

if TYPE_CHECKING:  # pragma: no cover
    from .synthesis import SynthStats

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


def _expansion_plan(
    mc: QuotientMdp, multi: Sequence[int]
) -> tuple[np.ndarray, list[int], list[int], list[tuple[int, ...]]]:
    """The greedy expansion order of a member chain, planned before any check.

    A walk from the initial state expands every state whose ``multi``-valued
    parameters are all relevant and stops at the others, the horizon.  Each
    step makes relevant the parameters of the horizon state with the fewest
    not-yet-relevant ones (ties to the lowest index) and resumes the walk.
    Step ``i`` has expanded the states with ``position < counts[i]``, holds
    the relevant set ``rels[i]``, a bitmask as in :attr:`Family._param_masks`,
    and stops at the horizon ``horizons[i]``, empty at the last step.
    """
    wanted = sum(1 << k for k in multi)
    holes = [m & wanted for m in mc.family._param_masks]
    ptr, tgt = mc.act_ptr.tolist(), mc.ent_target.tolist()
    order: list[int] = []
    counts: list[int] = []
    rels: list[int] = []
    horizons: list[tuple[int, ...]] = []
    rel = 0
    horizon: set[int] = set()
    seen = {mc.initial}
    walk = [mc.initial]
    while True:
        while walk:
            s = walk.pop()
            if not holes[s] & ~rel:
                order.append(s)
                for t in tgt[ptr[s] : ptr[s + 1]]:
                    if t not in seen:
                        seen.add(t)
                        walk.append(t)
            else:
                horizon.add(s)
        counts.append(len(order))
        rels.append(rel)
        horizons.append(tuple(horizon))
        if not horizon:
            break
        pick = min(horizon, key=lambda s: ((holes[s] & ~rel).bit_count(), s))
        rel |= holes[pick]
        walk = [s for s in horizon if not holes[s] & ~rel]
        horizon.difference_update(walk)
    position = np.full(mc.n_states, mc.n_states, dtype=np.intp)
    position[order] = np.arange(len(order))
    return position, counts, rels, horizons


def _step_values(mc, targets, g, position, counts, horizons) -> Callable[[int], float]:
    """The initial state's value at each planned step, in closed form where it can be."""
    init, one_chunk = mc.initial, mc.family._chunk_ids is None
    if one_chunk:
        if targets not in mc._solves:
            mc_reach(mc, targets)  # a chain nobody checked yet
        unknown, system, x = mc._solves[targets]
        risky = ~unknown & (g > x)  # outside U a target has x = 1, a state of prob-0 x = 0
        if unknown[init]:
            index, inverse, gap = np.cumsum(unknown) - 1, np.linalg.inv(system), (g - x)[unknown]

    def value(step: int) -> float:
        h = np.fromiter(horizons[step], np.intp, len(horizons[step]))
        if not one_chunk or risky[h].any():
            return float(mc_reach(mc, targets, fixed=(position >= counts[step], g))[init])
        if counts[step] == 0:  # the initial state is pinned; a target stays one
            return 1.0 if init in targets else float(g[init])
        if not unknown[init] or not (j := index[h[unknown[h]]]).size:
            return float(x[init])
        f = np.linalg.solve(inverse[np.ix_(j, j)].T, inverse[index[init], j])
        return min(max(float(x[init] + f @ gap[j]), 0.0), 1.0)

    return value


def construct_conflict(
    mc: QuotientMdp,
    prop: Property,
    gamma: Sequence[float],
    scope: Subfamily,
    stats: SynthStats | None = None,
) -> Cube:
    """Greedy conflict for a member violating ``prop``, on its checked chain ``mc``.

    ``mc`` comes from :func:`~mcsynth.quotient.induce`.  The conflict is a cube
    of ``scope``: it pins the relevant parameters, all multi-valued in
    ``scope`` and sorted by param, to the values of the chain's realization,
    its ``sub``.
    ``gamma`` must lower-bound (safety) or upper-bound (liveness) the
    reachability value of every member of ``scope`` at every state; the
    bounds of ``scope`` itself or the trivial all-zeros / all-ones vector
    qualify.  Every member of ``scope`` the cube covers violates ``prop``.

    Step ``i`` checks the member with every state outside the expansion of
    the first ``i`` steps pinned to its ``gamma`` value.  A bisection over
    the planned steps ``0..K`` finds a violating one in at most
    ``ceil(log2(K + 1)) + 1`` checks; with a sound ``gamma`` the value moves
    monotonically (up to rounding) toward the member's, so it is the first
    one.  Step ``K`` checks the member itself: if the bisection ends there
    unchecked, one more check decides, and a member that satisfies ``prop``
    has no conflict.  Each check adds one to ``stats.model_checks``, also one
    read off the member's own solve (see the module docstring).
    """
    r = mc.sub
    if not isinstance(r, Realization):
        raise ValueError("chain carries no realization; build it with induce")
    if cube_pins(r, scope) is None:
        raise ValueError("realization lies outside the scope")
    g = _checked_gamma(gamma, mc.n_states)
    multi = scope.multi_valued()
    position, counts, rels, horizons = _expansion_plan(mc, multi)
    value = _step_values(mc, prop.targets, g, position, counts, horizons)

    def violates(step: int) -> bool:
        if stats is not None:
            stats.model_checks += 1
        return not evaluate_property(value(step), prop)

    lo, hi = 0, len(counts) - 1
    confirmed = False
    while lo < hi:
        mid = (lo + hi) // 2
        if violates(mid):
            hi, confirmed = mid, True
        else:
            lo = mid + 1
    if not confirmed and not violates(hi):
        raise ValueError("member satisfies the property, no conflict exists")
    return tuple((k, r.values[k]) for k in multi if rels[hi] >> k & 1)


def trivial_gamma(n_states: int, prop: Property) -> np.ndarray:
    """The bound-free rerouting vector: zeros for safety, ones for liveness."""
    return np.ones(n_states) if prop.op == ">=" else np.zeros(n_states)


def minimal_conflict_oracle(
    family: Family,
    r: Realization,
    prop: Property,
    scope: Subfamily,
) -> Cube:
    """Minimum-cardinality conflict cube by exhaustive subset search.

    Enumerates the subsets of ``scope``'s multi-valued parameters by
    increasing size (lexicographic within a size), pins each to ``r``'s
    values, and certifies the cube by model checking every member of its
    generalization with :func:`~mcsynth.reach.mc_reach`; no rerouting or
    bound vector is involved, so the greedy conflicts of
    :func:`construct_conflict` can be measured against it.  Desk scale only.
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
    if cube_pins(r, scope) is None:
        raise ValueError("realization lies outside the scope")

    cache: dict[tuple[int, ...], bool] = {}

    def violates(member: Realization) -> bool:
        key = member.values
        if key not in cache:
            value = float(mc_reach(induce(family, member), prop.targets)[family.initial])
            cache[key] = not evaluate_property(value, prop)
        return cache[key]

    for size in range(len(multi) + 1):
        for subset in itertools.combinations(multi, size):
            cube = tuple((k, r.values[k]) for k in subset)
            if all(violates(member) for member in generalization(cube, scope)):
                return cube
    raise ValueError("member satisfies the property, no conflict exists")
