"""Reachability probabilities for quotient MDPs, member chains among them.

A member chain is a quotient with one action per state, so both solvers
read one model type.  Every solver runs a qualitative prob-0 precomputation
first: target states are pinned to exactly 1 and states that cannot reach
the target to exactly 0, which leaves a nonsingular linear system
``(I - Q) x = c`` on the remaining states.  All three find those with one
backward attractor (:func:`_attractor`), an array fixpoint over the
quotient's entries: chains and max mode grow it through any action, min
mode through every action of a state.  Chains
(:func:`mc_reach`) solve that system once, directly; quotient MDPs
(:func:`mdp_extreme`) run policy iteration, evaluating each policy with the
same solve.  The solve runs chunk by chunk along the condensation of the
family's union graph, sinks first, one dense system per chunk
(:func:`_solve`); a family below ``SOLVE_CHUNK`` states is one chunk.
Within one synthesis run (:func:`solve_memo`) a multi-chunk solve remembers
each chunk system by its content, so the chunks that a member, a conflict
step or a policy shares with an earlier solve are not solved again; on a
one-chunk family only AR's solves are remembered, which repeat.  Values
are exact up to floating rounding.  Every threshold decision goes through
:func:`evaluate_property` with the decision tolerance ``DECISION_ETA``; ties
resolve toward satisfaction.  The test suite checks these solvers against
its own dense reference, which shares no code with this module.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .quotient import QuotientMdp

DECISION_ETA = 1e-6
# Policy iteration switches an action only when it improves a state's value
# by more than this, so rounding noise in ties never makes it cycle.
IMPROVE_EPS = 1e-12
# Chunk systems a run remembers, least recently used dropped first.
MEMO_CAP = 256

_memo: ContextVar[OrderedDict | None] = ContextVar("mcsynth_solve_memo", default=None)


@contextmanager
def solve_memo() -> Iterator[None]:
    """Remember chunk solves until the block ends (see :func:`_solve`).

    :func:`mcsynth.synthesis.synthesize` opens one per run; nothing is kept
    after it, also when the run raises.
    """
    memo: OrderedDict = OrderedDict()
    token = _memo.set(memo)
    try:
        yield
    finally:
        _memo.reset(token)
        memo.clear()


def _target_names(targets: frozenset[int], family=None) -> str:
    """The targets in index order, by state name when ``family`` is given."""
    return " ".join(str(t) if family is None else family.state_names[t] for t in sorted(targets))


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
        return f"P{self.op}{self.threshold:g} [F {_target_names(self.targets, family)}]"


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
        suffix = f" eps={self.epsilon:g}" if self.epsilon else ""
        return f"{self.direction} P [F {_target_names(self.targets, family)}]{suffix}"


@dataclass(frozen=True)
class Specification:
    """A set of properties, optionally with an optimization objective."""

    properties: tuple[Property, ...]
    objective: Objective | None = None

    def __post_init__(self):
        if not self.properties and self.objective is None:
            raise ValueError("specification is empty")


def evaluate_property(value: float, prop: Property) -> bool:
    """True iff ``value`` satisfies ``prop`` within the tolerance ``DECISION_ETA``."""
    if prop.op == "<=":
        return value <= prop.threshold + DECISION_ETA
    return value >= prop.threshold - DECISION_ETA


def _check_targets(n: int, targets: Iterable[int]) -> frozenset[int]:
    tset = frozenset(int(t) for t in targets)
    if not tset:
        raise ValueError("target set must be non-empty")
    if any(not 0 <= t < n for t in tset):
        raise ValueError("target state index out of range")
    return tset


def _solve_dense(
    src: np.ndarray, tgt: np.ndarray, prob: np.ndarray, values: np.ndarray, unknown: np.ndarray
) -> None:
    """Set ``values[unknown]`` from the rows of the unknown states, in one dense solve."""
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


def _solve(
    src: np.ndarray,
    tgt: np.ndarray,
    prob: np.ndarray,
    values: np.ndarray,
    unknown: np.ndarray,
    chunk: np.ndarray | None = None,
    remember: bool = False,
) -> None:
    """Set ``values[unknown]`` to the reachability values of one chain.

    The entries hold one row per state: a chain's, or the actions a policy
    picks.  ``values`` holds the fixed values outside ``unknown``; the rows
    of the unknown states give ``(I - Q) x = c``, which is nonsingular when
    every unknown state leaves the unknown set with probability 1.

    ``chunk`` gives each state its solve chunk, numbered so that every entry
    leads into the same or a lower chunk (:attr:`Family._chunk_ids`).  The
    unknown states of each chunk, lowest first, are then one dense
    ``np.linalg.solve``, with the entries that leave the chunk, into fixed
    or already solved states, moved to the right-hand side.  Without
    ``chunk`` all unknown states are one system.

    Inside :func:`solve_memo` each chunk system is keyed on all it reads:
    its entries and the values at the states its entries leave to.  A key
    met before writes back the stored values of the chunk, bitwise what
    the dense solve would give; the memo keeps the ``MEMO_CAP`` most
    recently used systems.  A one-chunk solve is kept only with ``remember``
    (AR's solves, which repeat down the refinement tree).
    """
    memo = _memo.get() if remember or chunk is not None else None
    if memo is None and chunk is None:
        _solve_dense(src, tgt, prob, values, unknown)
        return
    own = unknown[src]
    src, tgt, prob = src[own], tgt[own], prob[own]
    cuts = []
    if chunk is not None:
        # the stable sort keeps each row's entries together and in order
        order = np.argsort(chunk[src], kind="stable")
        src, tgt, prob = src[order], tgt[order], prob[order]
        ent_chunk = chunk[src]
        # every unknown state has a row, so the chunks met are those of its entries
        cuts = (np.flatnonzero(ent_chunk[1:] != ent_chunk[:-1]) + 1).tolist()
    block = np.zeros(unknown.size, dtype=bool)
    for lo, hi in zip([0] + cuts, cuts + [src.size]):
        s, t, p = src[lo:hi], tgt[lo:hi], prob[lo:hi]
        block[s] = True
        if memo is None:
            _solve_dense(s, t, p, values, block)
        else:
            key = (s.tobytes(), t.tobytes(), p.tobytes(), values[t[~block[t]]].tobytes())
            known = memo.get(key)
            if known is None:
                _solve_dense(s, t, p, values, block)
                memo[key] = values[block]
                if len(memo) > MEMO_CAP:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(key)
                values[block] = known
        block[s] = False


def mc_reach(
    mc: "QuotientMdp",
    targets: Iterable[int],
    fixed: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-state probability of eventually reaching ``targets`` in the chain ``mc``.

    ``mc`` is a quotient with one action per state, as
    :func:`~mcsynth.quotient.induce` builds it; a state with more actions
    raises ``ValueError``.  Target states are exactly 1, states that cannot
    reach the target in the underlying graph exactly 0; the rest come from
    the direct solve of :func:`_solve`, chunk by chunk when the chain
    carries its family.

    ``fixed = (mask, given)`` pins every non-target state under ``mask`` to
    its value in ``given`` (within [0, 1]) and ignores its row, as if it
    jumped to a target with that probability and to a sink otherwise.  An
    unpinned state is then 0 when no path through unpinned states leads to a
    target or to a pinned state of positive value; the other unpinned,
    non-target states are the unknowns of the solve.  Without ``fixed``
    nothing is pinned, so the targets are the only roots of that search.
    """
    return _chain_reach(mc, targets, fixed)


def _chain_reach(mc: "QuotientMdp", targets, fixed=None, remember: bool = False) -> np.ndarray:
    """:func:`mc_reach`, whose solve with ``remember`` is remembered on one chunk too."""
    if not mc.is_chain:
        raise ValueError("mc_reach solves a chain: some state has more than one action")
    n = mc.n_states
    tlist = sorted(_check_targets(n, targets))
    if fixed is None:
        mask, values = np.zeros(n, dtype=bool), np.zeros(n)
    else:
        mask, given = fixed
        values = np.where(mask, given, 0.0)
    values[tlist] = 1.0  # a target stays a target under the mask
    free = ~mask
    free[tlist] = False
    # the attractor grows from the roots through free states only; those it reaches are unknown
    rounds, _ = _attractor(mc, ~free & (values > 0.0), free)
    unknown = rounds > 0
    chunk = None if mc.family is None else mc.family._chunk_ids
    _solve(mc.ent_source, mc.ent_target, mc.ent_prob, values, unknown, chunk, remember)
    return values


def _first_action(mask: np.ndarray, state_ptr: np.ndarray) -> np.ndarray:
    """Per state, the local index of its first action with ``mask`` set.

    States without such an action get the total action count.
    """
    local = np.arange(mask.size) - np.repeat(state_ptr[:-1], np.diff(state_ptr))
    return np.minimum.reduceat(np.where(mask, local, mask.size), state_ptr[:-1])


def _attractor(
    mdp: "QuotientMdp", reached: np.ndarray, allowed: np.ndarray | None = None, every: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Backward attractor of ``reached``: the round in which each state joins, -1 if never.

    Least fixpoint: ``reached`` is round 0, and in each round a state of
    ``allowed`` (every state when omitted) joins once some action of it
    (with ``every``: each of its actions) has an entry into the set.  So
    without ``every`` a round is the state's backward distance to
    ``reached``.  Also returns, per action, whether it has an entry into
    the final set.  Neither mask is written to.
    """
    rounds = np.where(reached, 0, -1)
    reached, open_ = reached.copy(), ~reached if allowed is None else allowed & ~reached
    per_state = np.logical_and if every else np.logical_or
    step = 0
    while True:
        hit = np.logical_or.reduceat(reached[mdp.ent_target], mdp.act_ptr[:-1])
        # a chain's action s is the one action of state s
        join = open_ & (hit if mdp.is_chain else per_state.reduceat(hit, mdp.state_ptr[:-1]))
        if not join.any():
            return rounds, hit
        step += 1
        rounds[join] = step
        reached |= join
        open_ &= ~join


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
    action that stays inside it, so the induced chain attains 0.  Every
    policy evaluation is remembered inside :func:`solve_memo`, also on one chunk.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"unknown mode {mode!r}")
    n = mdp.n_states
    state_ptr, act_ptr = mdp.state_ptr, mdp.act_ptr
    tset = _check_targets(n, targets)
    tgt, prob = mdp.ent_target, mdp.ent_prob
    act_first = state_ptr[:-1]
    act_state, ent_act, ent_source = mdp.act_state, mdp.ent_act, mdp.ent_source
    chunk = None if mdp.family is None else mdp.family._chunk_ids

    policy = np.zeros(n, dtype=np.int64)
    seeds = np.zeros(n, dtype=bool)
    seeds[sorted(tset)] = True
    dist, hit = _attractor(mdp, seeds, every=mode == "min")
    values, unknown = seeds.astype(float), dist > 0
    if mode == "min":
        zero = dist < 0
        policy[zero] = _first_action(~hit, state_ptr)[zero]
        reduce = np.minimum.reduceat
    else:
        closer = np.logical_or.reduceat(dist[tgt] == dist[ent_source] - 1, act_ptr[:-1])
        policy[unknown] = _first_action(closer, state_ptr)[unknown]
        reduce = np.maximum.reduceat

    while True:
        picked = ent_act == (act_first + policy)[ent_source]
        _solve(ent_source[picked], tgt[picked], prob[picked], values, unknown, chunk, True)
        act_vals = np.add.reduceat(prob * values[tgt], act_ptr[:-1])
        best = reduce(act_vals, act_first)
        gain = np.abs(best - act_vals[act_first + policy])
        switch = unknown & (gain > IMPROVE_EPS)
        if not switch.any():
            return values, policy
        policy[switch] = _first_action(act_vals == best[act_state], state_ptr)[switch]
