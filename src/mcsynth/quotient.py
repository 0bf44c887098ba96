"""Quotient MDP over a subfamily: bound computation and refinement splitting.

The quotient over-approximates every member chain by turning each state's
template into one action per combination of local parameter values drawn from
the subfamily's restricted domains.  Model checking it for the minimal and
maximal reachability yields per-state bounds valid for every member; the two
optimal schedulers drive the choice of the parameter to split on.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidBoundsError, ResourceCapError
from .model import Family, Subfamily, member_count
from .reach import mdp_extreme

ACTION_CAP = 10**6
BOUNDS_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class QuotientMdp:
    """Flattened action-row representation of the quotient of a subfamily.

    Actions of state ``s`` enumerate the value combinations of the parameters
    in its template, lexicographically by parameter index and domain-value
    order; entries of action ``a`` live in
    ``ent_target[act_ptr[a]:act_ptr[a+1]]``.
    """

    family: Family
    sub: Subfamily
    initial: int
    n_states: int
    state_ptr: np.ndarray
    act_ptr: np.ndarray
    ent_target: np.ndarray
    ent_prob: np.ndarray
    supp: tuple[tuple[int, ...], ...]

    def n_actions(self, s: int) -> int:
        return int(self.state_ptr[s + 1] - self.state_ptr[s])

    def decode_action(self, s: int, action: int) -> dict[int, int]:
        """Map a local action index back to its parameter-value choice."""
        params = self.supp[s]
        sizes = [len(self.sub.domains[k]) for k in params]
        if not 0 <= action < math.prod(sizes):
            raise ValueError(f"action {action} out of range at state {s}")
        choice = {}
        rem = action
        for k, size in zip(reversed(params), reversed(sizes)):
            rem, digit = divmod(rem, size)
            choice[k] = self.sub.domains[k][digit]
        return choice

    def action_row(self, s: int, action: int) -> tuple[np.ndarray, np.ndarray]:
        a = int(self.state_ptr[s]) + action
        e0, e1 = int(self.act_ptr[a]), int(self.act_ptr[a + 1])
        return self.ent_target[e0:e1], self.ent_prob[e0:e1]


@dataclass(frozen=True, eq=False)
class BoundsVec:
    """Per-state reachability bounds valid for every member of ``scope``.

    ``lb <= ub`` pointwise up to ``BOUNDS_SLACK``; the schedulers attain the
    bounds on the quotient.
    """

    lb: np.ndarray
    ub: np.ndarray
    min_scheduler: np.ndarray
    max_scheduler: np.ndarray
    targets: frozenset[int]
    scope: Subfamily
    quotient: QuotientMdp


def build_quotient(family: Family, sub: Subfamily) -> QuotientMdp:
    """Materialize the quotient MDP of ``sub``.

    The action count at a state is the product of the restricted-domain sizes
    of the parameters in its template; a per-state cap guards degenerate
    sketches.
    """
    if len(sub.domains) != family.n_params:
        raise ValueError("subfamily does not match the family's parameters")
    for k, dom in enumerate(sub.domains):
        if any(v not in family.domains[k] for v in dom):
            raise ValueError(f"restricted domain of parameter {k} leaves the declared domain")
    state_ptr = [0]
    act_ptr = [0]
    ent_target: list[int] = []
    ent_prob: list[float] = []
    supp = []
    for s, tmpl in enumerate(family.templates):
        params = tmpl.keys
        supp.append(params)
        count = math.prod(len(sub.domains[k]) for k in params)
        if count > ACTION_CAP:
            raise ResourceCapError(
                f"state {s} would get {count} quotient actions (cap {ACTION_CAP})"
            )
        for combo in itertools.product(*(sub.domains[k] for k in params)):
            acc: dict[int, float] = {}
            for value, prob in zip(combo, tmpl.probs):
                acc[value] = acc.get(value, 0.0) + prob
            for tgt in sorted(acc):
                ent_target.append(tgt)
                ent_prob.append(acc[tgt])
            act_ptr.append(len(ent_target))
        state_ptr.append(len(act_ptr) - 1)
    return QuotientMdp(
        family=family,
        sub=sub,
        initial=family.initial,
        n_states=family.n_states,
        state_ptr=np.asarray(state_ptr, dtype=np.int64),
        act_ptr=np.asarray(act_ptr, dtype=np.int64),
        ent_target=np.asarray(ent_target, dtype=np.int64),
        ent_prob=np.asarray(ent_prob, dtype=np.float64),
        supp=tuple(supp),
    )


def compute_bounds(
    family: Family,
    sub: Subfamily,
    targets: Iterable[int],
    meter=None,
) -> BoundsVec:
    """Min/max reachability bounds for ``sub``, cached on the subfamily.

    Raises :class:`InvalidBoundsError` if the upper bound falls more than
    ``BOUNDS_SLACK`` below the lower bound anywhere.
    """
    key = frozenset(int(t) for t in targets)
    cached = sub.cached_bounds(key)
    if cached is not None:
        return cached
    qmdp = build_quotient(family, sub)
    lb, min_sched = mdp_extreme(qmdp, key, "min")
    ub, max_sched = mdp_extreme(qmdp, key, "max")
    if meter is not None:
        meter.count(2)
    below = np.flatnonzero(ub < lb - BOUNDS_SLACK)
    if below.size:
        s = int(below[0])
        raise InvalidBoundsError(
            f"upper bound {ub[s]!r} below lower bound {lb[s]!r} at state {s}"
        )
    bounds = BoundsVec(
        lb=lb,
        ub=ub,
        min_scheduler=min_sched,
        max_scheduler=max_sched,
        targets=key,
        scope=sub,
        quotient=qmdp,
    )
    return sub.store_bounds(bounds)


def _reachable_under(qmdp: QuotientMdp, scheduler: np.ndarray) -> np.ndarray:
    seen = np.zeros(qmdp.n_states, dtype=bool)
    seen[qmdp.initial] = True
    queue = deque([qmdp.initial])
    while queue:
        s = queue.popleft()
        tgt, _ = qmdp.action_row(s, int(scheduler[s]))
        for t in tgt:
            if not seen[t]:
                seen[t] = True
                queue.append(int(t))
    return seen


def split_subfamily(
    family: Family,
    sub: Subfamily,
    min_sched: np.ndarray,
    max_sched: np.ndarray,
    qmdp: QuotientMdp | None = None,
) -> tuple[Subfamily, Subfamily]:
    """Partition ``sub`` into two strictly smaller subfamilies.

    Each multi-valued parameter is scored by the number of states, reachable
    under both schedulers, where the two schedulers choose different values
    for it; the highest-scoring parameter is split into the value the max
    scheduler picks most often versus the rest.  When every score is 0 the
    largest restricted domain is halved by value order.  Ties resolve to the
    smallest parameter or value index, so the split is deterministic.
    """
    if member_count(sub) < 2:
        raise ValueError("cannot split a singleton subfamily")
    if qmdp is None:
        qmdp = build_quotient(family, sub)
    multi = sub.multi_valued()
    joint = _reachable_under(qmdp, min_sched) & _reachable_under(qmdp, max_sched)

    scores = {k: 0 for k in multi}
    for s in range(qmdp.n_states):
        if not joint[s]:
            continue
        lo = qmdp.decode_action(s, int(min_sched[s]))
        hi = qmdp.decode_action(s, int(max_sched[s]))
        for k in qmdp.supp[s]:
            if k in scores and lo[k] != hi[k]:
                scores[k] += 1

    best = max(scores.values(), default=0)
    if best > 0:
        param = min(k for k, v in scores.items() if v == best)
        dom = sub.domains[param]
        votes = {v: 0 for v in dom}
        max_reach = _reachable_under(qmdp, max_sched)
        for s in range(qmdp.n_states):
            if max_reach[s] and param in qmdp.supp[s]:
                votes[qmdp.decode_action(s, int(max_sched[s]))[param]] += 1
        pivot = min(votes, key=lambda v: (-votes[v], v))
        left_vals = (pivot,)
        right_vals = tuple(v for v in dom if v != pivot)
    else:
        param = min(multi, key=lambda k: (-len(sub.domains[k]), k))
        dom = sub.domains[param]
        half = (len(dom) + 1) // 2
        left_vals, right_vals = dom[:half], dom[half:]

    return sub.restricted(param, left_vals), sub.restricted(param, right_vals)
