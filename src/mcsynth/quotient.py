"""Quotient MDP over a subfamily: bound computation and refinement splitting.

The quotient over-approximates every member chain by turning each state's
template into one action per combination of local parameter values drawn from
the subfamily's restricted domains.  Model checking it for the minimal and
maximal reachability yields per-state bounds valid for every member; the two
optimal schedulers drive the choice of the parameter to split on.

A synthesis run builds the *root* quotient, over the family's full domains,
once (:func:`root_quotient`).  Besides its rows the root keeps each action's
raw choice, the ``(param, value)`` of every template entry, as flat arrays.
The quotient of a subfamily is a *mask* of root actions, those whose every
choice lies in the subfamily's domains (:func:`build_quotient`).  Bounds and
splits take only a quotient, which carries its ``family`` and ``sub``:
:func:`compute_bounds` solves the quotient it is given, and
:func:`split_subfamily` splits its ``sub``, reading the schedulers' choices
from the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import InvalidBoundsError, ResourceCapError
from .model import Family, Subfamily, breadth_first, flat_rows, member_count
from .reach import mdp_extreme

ACTION_CAP = 10**6
BOUNDS_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class QuotientMdp:
    """Flattened action-row representation of the quotient of a subfamily.

    Actions of state ``s`` are ``state_ptr[s]:state_ptr[s + 1]``; they
    enumerate the value combinations of the parameters in its template,
    lexicographically by parameter index and domain-value order.  Entries of
    action ``a`` live in ``ent_target[act_ptr[a]:act_ptr[a+1]]``.  Its raw
    choice lives in ``choice_param`` / ``choice_value`` at
    ``choice_ptr[a]:choice_ptr[a+1]``: per template entry, in template order,
    the parameter and the value the action gives it.  A quotient built by
    hand, without a family, may leave the choice arrays out.

    ``act_state`` (the state of each action), ``ent_act`` and ``ent_source``
    (the action and state of each entry) serve every solve on the quotient;
    they are derived from the pointers unless given.
    """

    family: Family
    sub: Subfamily
    initial: int
    n_states: int
    state_ptr: np.ndarray
    act_ptr: np.ndarray
    ent_target: np.ndarray
    ent_prob: np.ndarray
    choice_ptr: np.ndarray | None = field(default=None, repr=False)
    choice_param: np.ndarray | None = field(default=None, repr=False)
    choice_value: np.ndarray | None = field(default=None, repr=False)
    act_state: np.ndarray | None = field(default=None, repr=False)
    ent_act: np.ndarray | None = field(default=None, repr=False)
    ent_source: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.act_state is None:
            act_state = np.repeat(np.arange(self.n_states), np.diff(self.state_ptr))
            object.__setattr__(self, "act_state", act_state)
        if self.ent_act is None:
            ent_act = np.repeat(np.arange(self.act_state.size), np.diff(self.act_ptr))
            object.__setattr__(self, "ent_act", ent_act)
        if self.ent_source is None:
            object.__setattr__(self, "ent_source", self.act_state[self.ent_act])

    def n_actions(self, s: int) -> int:
        return int(self.state_ptr[s + 1] - self.state_ptr[s])

    def decode_action(self, s: int, action: int) -> dict[int, int]:
        """Map a local action index back to its parameter-value choice."""
        if not 0 <= action < self.n_actions(s):
            raise ValueError(f"action {action} out of range at state {s}")
        a = int(self.state_ptr[s]) + action
        c0, c1 = int(self.choice_ptr[a]), int(self.choice_ptr[a + 1])
        return dict(zip(self.choice_param[c0:c1].tolist(), self.choice_value[c0:c1].tolist()))

    def action_row(self, s: int, action: int) -> tuple[np.ndarray, np.ndarray]:
        a = int(self.state_ptr[s]) + action
        e0, e1 = int(self.act_ptr[a]), int(self.act_ptr[a + 1])
        return self.ent_target[e0:e1], self.ent_prob[e0:e1]


@dataclass(frozen=True, eq=False)
class BoundsVec:
    """Per-state reachability bounds valid for every member of ``quotient.sub``.

    ``lb <= ub`` pointwise up to ``BOUNDS_SLACK``; the schedulers attain the
    bounds on the quotient.
    """

    lb: np.ndarray
    ub: np.ndarray
    min_scheduler: np.ndarray
    max_scheduler: np.ndarray
    quotient: QuotientMdp


def _ptr(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths)))


def _segments(ptr: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the segments ``ptr[i]:ptr[i + 1]`` for ``i`` in ``picks``, concatenated.

    Also returns the length of each picked segment.
    """
    starts = ptr[picks]
    lens = ptr[picks + 1] - starts
    return np.arange(lens.sum()) + np.repeat(starts - _ptr(lens)[:-1], lens), lens


def root_quotient(family: Family) -> QuotientMdp:
    """The quotient of the whole family, with the raw choice of every action.

    The action count at a state is the product of the domain sizes of the
    parameters in its template; more than ``ACTION_CAP`` at any state raises
    :class:`ResourceCapError`.
    """
    sizes = [len(dom) for dom in family.domains]
    tmpl_ptr = family.tmpl_ptr
    ptr, params = tmpl_ptr.tolist(), family.tmpl_param.tolist()
    counts, strides = [], []
    for s in range(family.n_states):
        # the last template entry varies fastest, as in itertools.product
        count, local = 1, []
        for k in reversed(params[ptr[s] : ptr[s + 1]]):
            local.append(count)
            count *= sizes[k]
        if count > ACTION_CAP:
            raise ResourceCapError(
                f"state {s} would get {count} quotient actions (cap {ACTION_CAP})"
            )
        counts.append(count)
        strides.extend(reversed(local))
    state_ptr = _ptr(np.asarray(counts, dtype=np.int64))
    act_state = np.repeat(np.arange(family.n_states), counts)
    local_index = np.arange(act_state.size) - state_ptr[act_state]
    choice_ptr = _ptr(np.diff(tmpl_ptr)[act_state])
    choice_act = np.repeat(np.arange(act_state.size), np.diff(choice_ptr))
    entry = np.arange(choice_act.size) - choice_ptr[choice_act] + tmpl_ptr[act_state[choice_act]]
    choice_param = family.tmpl_param[entry]
    digit = local_index[choice_act] // np.asarray(strides)[entry] % np.asarray(sizes)[choice_param]
    dom_values = np.asarray([v for dom in family.domains for v in dom], dtype=np.int64)
    choice_value = dom_values[_ptr(sizes)[choice_param] + digit]
    act_ptr, ent_target, ent_prob = flat_rows(
        act_state.size, choice_act, choice_value, family.tmpl_prob[entry]
    )
    return QuotientMdp(
        family=family,
        sub=family.full_subfamily(),
        initial=family.initial,
        n_states=family.n_states,
        state_ptr=state_ptr,
        act_ptr=act_ptr,
        ent_target=ent_target,
        ent_prob=ent_prob,
        choice_ptr=choice_ptr,
        choice_param=choice_param,
        choice_value=choice_value,
        act_state=act_state,
    )


def build_quotient(family: Family, sub: Subfamily, root: QuotientMdp | None = None) -> QuotientMdp:
    """Materialize the quotient MDP of ``sub`` as a mask of ``root``'s actions.

    ``root`` is the family's root quotient (built here when omitted, see
    :func:`root_quotient`) or the quotient of any subfamily containing
    ``sub``.  The actions kept are those whose every choice lies in ``sub``'s
    domains, in root order, so actions and rows are those of ``sub``'s own
    product of domains.
    """
    if root is None:
        root = root_quotient(family)
    if len(sub.domains) != family.n_params:
        raise ValueError("subfamily does not match the family's parameters")
    for k, (dom, outer) in enumerate(zip(sub.domains, root.sub.domains)):
        if dom is not outer and any(v not in outer for v in dom):
            raise ValueError(f"restricted domain of parameter {k} leaves the declared domain")
    allowed = np.zeros((family.n_params, family.n_states), dtype=bool)
    allowed[
        np.repeat(np.arange(family.n_params), [len(dom) for dom in sub.domains]),
        [v for dom in sub.domains for v in dom],
    ] = True
    choice_len = np.diff(root.choice_ptr)
    keep = np.logical_and.reduceat(
        allowed[root.choice_param, root.choice_value], root.choice_ptr[:-1]
    )
    act_len = np.diff(root.act_ptr)[keep]
    act_state = root.act_state[keep]
    ent_keep = keep[root.ent_act]
    choice_keep = np.repeat(keep, choice_len)
    return QuotientMdp(
        family=family,
        sub=sub,
        initial=family.initial,
        n_states=family.n_states,
        state_ptr=np.searchsorted(act_state, np.arange(family.n_states + 1)),
        act_ptr=_ptr(act_len),
        ent_target=root.ent_target[ent_keep],
        ent_prob=root.ent_prob[ent_keep],
        choice_ptr=_ptr(choice_len[keep]),
        choice_param=root.choice_param[choice_keep],
        choice_value=root.choice_value[choice_keep],
        act_state=act_state,
        ent_act=np.repeat(np.arange(act_state.size), act_len),
        ent_source=root.ent_source[ent_keep],
    )


def compute_bounds(qmdp: QuotientMdp, targets: Iterable[int]) -> BoundsVec:
    """Min/max reachability bounds for ``qmdp.sub``, solved on ``qmdp`` itself.

    Raises :class:`InvalidBoundsError` if the upper bound falls more than
    ``BOUNDS_SLACK`` below the lower bound anywhere.
    """
    key = frozenset(int(t) for t in targets)
    lb, min_sched = mdp_extreme(qmdp, key, "min")
    ub, max_sched = mdp_extreme(qmdp, key, "max")
    below = np.flatnonzero(ub < lb - BOUNDS_SLACK)
    if below.size:
        s = int(below[0])
        raise InvalidBoundsError(
            f"upper bound {ub[s]!r} below lower bound {lb[s]!r} at state {s}"
        )
    return BoundsVec(
        lb=lb,
        ub=ub,
        min_scheduler=min_sched,
        max_scheduler=max_sched,
        quotient=qmdp,
    )


def _reachable_under(qmdp: QuotientMdp, scheduler: np.ndarray) -> np.ndarray:
    """States reachable from the initial state in the chain ``scheduler`` induces."""
    pos, lens = _segments(qmdp.act_ptr, qmdp.state_ptr[:-1] + scheduler)
    succ = (qmdp.ent_target[pos].tolist(), _ptr(lens).tolist())
    return breadth_first(succ, [qmdp.initial]) >= 0


def split_subfamily(
    qmdp: QuotientMdp, min_sched: np.ndarray, max_sched: np.ndarray
) -> tuple[Subfamily, Subfamily]:
    """Partition ``qmdp.sub`` into two strictly smaller subfamilies.

    ``min_sched`` and ``max_sched`` pick one action of ``qmdp`` per state,
    as the schedulers of :func:`compute_bounds` on ``qmdp`` do.

    Each multi-valued parameter is scored by the number of states, reachable
    under both schedulers, where the two schedulers choose different values
    for it; the highest-scoring parameter is split into the value the max
    scheduler picks most often versus the rest.  When every score is 0 the
    largest restricted domain is halved by value order.  Ties resolve to the
    smallest parameter or value index, so the split is deterministic.
    """
    sub = qmdp.sub
    if member_count(sub) < 2:
        raise ValueError("cannot split a singleton subfamily")
    first, n_acts = qmdp.state_ptr[:-1], np.diff(qmdp.state_ptr)
    for sched in (min_sched, max_sched):
        bad = np.flatnonzero((sched < 0) | (sched >= n_acts))
        if bad.size:
            s = int(bad[0])
            raise ValueError(f"action {int(sched[s])} out of range at state {s}")
    lo, _ = _segments(qmdp.choice_ptr, first + min_sched)
    hi, lens = _segments(qmdp.choice_ptr, first + max_sched)
    # both picks of a state choose for the same template entries, in order
    state = np.repeat(np.arange(qmdp.n_states), lens)
    params, values = qmdp.choice_param[hi], qmdp.choice_value[hi]
    max_reach = _reachable_under(qmdp, max_sched)
    joint = (_reachable_under(qmdp, min_sched) & max_reach)[state]
    # single-valued parameters never differ, so only multi-valued ones score
    scores = np.bincount(
        params[joint & (qmdp.choice_value[lo] != values)], minlength=qmdp.family.n_params
    )

    if scores.max() > 0:
        param = int(np.argmax(scores))
        dom = sub.domains[param]
        votes = np.bincount(
            values[max_reach[state] & (params == param)], minlength=qmdp.n_states
        )[list(dom)]
        pivot = dom[int(np.argmax(votes))]
        left_vals = (pivot,)
        right_vals = tuple(v for v in dom if v != pivot)
    else:
        param = min(sub.multi_valued(), key=lambda k: (-len(sub.domains[k]), k))
        dom = sub.domains[param]
        half = (len(dom) + 1) // 2
        left_vals, right_vals = dom[:half], dom[half:]

    return sub.restricted(param, left_vals), sub.restricted(param, right_vals)
