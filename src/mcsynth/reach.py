"""Reachability probabilities for chains and quotient MDPs.

Every solver runs a qualitative prob-0 precomputation first: target states
are pinned to exactly 1 and states that cannot reach the target to exactly 0,
which leaves a nonsingular linear system ``(I - Q) x = c`` on the remaining
states.  Chains solve that system once, directly; quotient MDPs run policy
iteration, evaluating each policy with the same solve.  Values are exact up
to floating rounding.  Boundary precision at thresholds is handled by the
decision tolerance ``eta`` of :func:`evaluate_property`; ties resolve toward
satisfaction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ResourceCapError
from .model import Mc

if TYPE_CHECKING:  # pragma: no cover
    from .quotient import QuotientMdp

DECISION_ETA = 1e-6
EXACT_STATE_CAP = 2000
# Policy iteration switches an action only when it improves a state's value
# by more than this, so rounding noise in ties never makes it cycle.
IMPROVE_EPS = 1e-12


class CostMeter:
    """Counter of model-check invocations, the deterministic cost unit."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def count(self, n: int = 1) -> None:
        self.total += n


@dataclass(frozen=True)
class Property:
    """Threshold reachability constraint ``P <= t`` (safety) or ``P >= t``."""

    op: str
    threshold: float
    targets: frozenset[int]

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise ValueError(f"unknown comparison {self.op!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold!r} outside [0, 1]")
        if not self.targets:
            raise ValueError("target set must be non-empty")

    @property
    def is_safety(self) -> bool:
        return self.op == "<="

    def text(self, family=None) -> str:
        if family is None:
            names = " ".join(str(t) for t in sorted(self.targets))
        else:
            names = " ".join(family.state_names[t] for t in sorted(self.targets))
        return f"P{self.op}{self.threshold:g} [F {names}]"


@dataclass(frozen=True)
class Objective:
    """Optimization objective: extremize reachability of ``targets``.

    ``epsilon`` relaxes optimality: any value within relative factor
    ``1 +/- epsilon`` of the optimum is an acceptable answer.
    """

    direction: str
    targets: frozenset[int]
    epsilon: float = 0.0

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not self.targets:
            raise ValueError("target set must be non-empty")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon {self.epsilon!r} outside [0, 1)")

    def text(self, family=None) -> str:
        if family is None:
            names = " ".join(str(t) for t in sorted(self.targets))
        else:
            names = " ".join(family.state_names[t] for t in sorted(self.targets))
        suffix = f" eps={self.epsilon:g}" if self.epsilon else ""
        return f"{self.direction} P [F {names}]{suffix}"


@dataclass(frozen=True)
class Specification:
    """A set of properties, optionally with an optimization objective."""

    properties: tuple[Property, ...]
    objective: Objective | None = None

    def __post_init__(self):
        if not self.properties and self.objective is None:
            raise ValueError("specification is empty")


def evaluate_property(value: float, prop: Property, eta: float = DECISION_ETA) -> bool:
    """True iff ``value`` satisfies ``prop`` within decision tolerance ``eta``."""
    if eta < 0.0:
        raise ValueError("decision tolerance must be non-negative")
    if prop.op == "<=":
        return value <= prop.threshold + eta
    return value >= prop.threshold - eta


def _check_targets(n: int, targets: Iterable[int]) -> frozenset[int]:
    tset = frozenset(int(t) for t in targets)
    if not tset:
        raise ValueError("target set must be non-empty")
    if any(not 0 <= t < n for t in tset):
        raise ValueError("target state index out of range")
    return tset


def _backward_distance(
    n: int, src: np.ndarray, tgt: np.ndarray, targets: frozenset[int]
) -> np.ndarray:
    """Fewest edges from each of the ``n`` states into ``targets``; -1 if none.

    ``src`` and ``tgt`` are the flat entry arrays: chains pass one entry per
    transition, MDPs the entries of all actions.
    """
    order = np.argsort(tgt, kind="stable")
    preds = src[order].tolist()
    ptr = np.searchsorted(tgt[order], np.arange(n + 1)).tolist()
    dist = [-1] * n
    queue = deque(sorted(targets))
    for t in queue:
        dist[t] = 0
    while queue:
        t = queue.popleft()
        for s in preds[ptr[t] : ptr[t + 1]]:
            if dist[s] < 0:
                dist[s] = dist[t] + 1
                queue.append(s)
    return np.asarray(dist)


def _fixed_values(
    n: int, targets: frozenset[int], zero: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values 1 at targets and 0 elsewhere, plus the mask of states left to solve."""
    values = np.zeros(n)
    tlist = sorted(targets)
    values[tlist] = 1.0
    unknown = ~zero
    unknown[tlist] = False
    return values, unknown


def _solve(
    src: np.ndarray, tgt: np.ndarray, prob: np.ndarray, values: np.ndarray, unknown: np.ndarray
) -> None:
    """Set ``values[unknown]`` to the reachability values of one chain.

    The entries hold one row per state: a chain's, or the actions a policy
    picks.  ``values`` holds the fixed values outside ``unknown``; the rows
    of the unknown states give ``(I - Q) x = c``, solved with one
    ``np.linalg.solve``.  The system is nonsingular when every unknown state
    leaves the unknown set with probability 1.
    """
    m = int(np.count_nonzero(unknown))
    if m == 0:
        return
    index = np.cumsum(unknown) - 1
    own = unknown[src]
    s, t, p = index[src[own]], tgt[own], prob[own]
    inner = unknown[t]
    system = np.eye(m)
    # Targets are unique within a row, so no (s, t) pair repeats.
    system[s[inner], index[t[inner]]] -= p[inner]
    outer = ~inner
    rhs = np.bincount(s[outer], weights=p[outer] * values[t[outer]], minlength=m)
    values[unknown] = np.clip(np.linalg.solve(system, rhs), 0.0, 1.0)


def mc_reach(mc: Mc, targets: Iterable[int]) -> np.ndarray:
    """Per-state probability of eventually reaching ``targets``.

    Target states are exactly 1, states that cannot reach the target in the
    underlying graph exactly 0; the rest come from one direct solve.
    """
    n = mc.n_states
    tset = _check_targets(n, targets)
    src = np.repeat(np.arange(n), np.diff(mc.row_ptr))
    zero = _backward_distance(n, src, mc.ent_target, tset) < 0
    values, unknown = _fixed_values(n, tset, zero)
    _solve(src, mc.ent_target, mc.ent_prob, values, unknown)
    return values


def mc_reach_exact(mc: Mc, targets: Iterable[int]) -> np.ndarray:
    """Reachability probabilities by direct linear solve (test oracle).

    Limited to ``EXACT_STATE_CAP`` states; exact up to floating rounding.
    """
    n = mc.n_states
    if n > EXACT_STATE_CAP:
        raise ResourceCapError(f"exact solver limited to {EXACT_STATE_CAP} states, got {n}")
    tset = _check_targets(n, targets)
    src = np.repeat(np.arange(n), np.diff(mc.row_ptr))
    dense = np.zeros((n, n))
    dense[src, mc.ent_target] = mc.ent_prob
    can_reach = _backward_distance(n, src, mc.ent_target, tset) >= 0
    values = np.zeros(n)
    values[sorted(tset)] = 1.0
    unknown = np.array([s for s in range(n) if can_reach[s] and s not in tset], dtype=np.intp)
    if unknown.size == 0:
        return values
    q = dense[np.ix_(unknown, unknown)]
    c = dense[unknown] @ values
    x = np.linalg.solve(np.eye(unknown.size) - q, c)
    values[unknown] = np.clip(x, 0.0, 1.0)
    return values


def _first_action(mask: np.ndarray, state_ptr: np.ndarray) -> np.ndarray:
    """Per state, the local index of its first action with ``mask`` set.

    States without such an action get the total action count.
    """
    local = np.arange(mask.size) - np.repeat(state_ptr[:-1], np.diff(state_ptr))
    return np.minimum.reduceat(np.where(mask, local, mask.size), state_ptr[:-1])


def _mdp_prob0_min(
    mdp: "QuotientMdp", targets: frozenset[int]
) -> tuple[np.ndarray, np.ndarray]:
    """States with minimal reachability 0: some action can avoid the target forever.

    Greatest fixpoint of "has an action whose support stays inside the set".
    Also returns, per action, whether its support stays inside the final set.
    """
    inside = np.ones(mdp.n_states, dtype=bool)
    inside[sorted(targets)] = False
    while True:
        stays = np.logical_and.reduceat(inside[mdp.ent_target], mdp.act_ptr[:-1])
        keep = inside & np.logical_or.reduceat(stays, mdp.state_ptr[:-1])
        if np.array_equal(keep, inside):
            return inside, stays
        inside = keep


def mdp_extreme(
    mdp: "QuotientMdp", targets: Iterable[int], mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (min or max) reachability values plus an attaining scheduler.

    Howard's policy iteration: evaluate the current policy with a direct
    solve, then switch every state whose best action beats its current one
    by more than ``IMPROVE_EPS`` to the smallest-index best action.  Min
    mode starts from action 0, since outside the prob-0 region every policy
    reaches the target with positive probability.  Max mode starts from a
    proper policy, the smallest action with a successor one step closer to
    the target; strict improvements keep it proper.  The scheduler is the
    final policy: with exact values, actions that stay inside an end
    component tie with the optimal one but do not attain the value.  For
    the min objective, states inside the prob-0 region get the smallest
    action that stays inside it, so the induced chain attains 0.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"unknown mode {mode!r}")
    n = mdp.n_states
    state_ptr, act_ptr = mdp.state_ptr, mdp.act_ptr
    n_acts = np.diff(state_ptr)
    if (n_acts == 0).any():
        raise ValueError(f"state {int(np.argmax(n_acts == 0))} has no actions")
    tset = _check_targets(n, targets)
    tgt, prob = mdp.ent_target, mdp.ent_prob
    act_first = state_ptr[:-1]
    act_state = np.repeat(np.arange(n), n_acts)
    ent_act = np.repeat(np.arange(act_state.size), np.diff(act_ptr))
    ent_src = act_state[ent_act]

    policy = np.zeros(n, dtype=np.int64)
    if mode == "min":
        zero, stays = _mdp_prob0_min(mdp, tset)
        values, unknown = _fixed_values(n, tset, zero)
        policy[zero] = _first_action(stays, state_ptr)[zero]
        reduce = np.minimum.reduceat
    else:
        dist = _backward_distance(n, ent_src, tgt, tset)
        values, unknown = _fixed_values(n, tset, dist < 0)
        closer = np.logical_or.reduceat(dist[tgt] == dist[ent_src] - 1, act_ptr[:-1])
        policy[unknown] = _first_action(closer, state_ptr)[unknown]
        reduce = np.maximum.reduceat

    while True:
        picked = ent_act == (act_first + policy)[ent_src]
        _solve(ent_src[picked], tgt[picked], prob[picked], values, unknown)
        act_vals = np.add.reduceat(prob * values[tgt], act_ptr[:-1])
        best = reduce(act_vals, act_first)
        gain = np.abs(best - act_vals[act_first + policy])
        switch = unknown & (gain > IMPROVE_EPS)
        if not switch.any():
            return values, policy
        policy[switch] = _first_action(act_vals == best[act_state], state_ptr)[switch]
