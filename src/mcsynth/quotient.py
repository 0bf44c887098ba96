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
choice lies in the subfamily's domains (:func:`build_quotient`); a member
chain is the quotient of one member, the one action per state its values
choose (:func:`induce`), so the solvers and conflicts read the same type
as AR steps.  Bounds and splits take only a quotient, which carries its
``family`` and ``sub``: :func:`compute_bounds` solves the quotient it is
given into plain vectors, and :func:`split_subfamily` splits its ``sub``,
reading the schedulers' choices from the same arrays.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable

import numpy as np

from .errors import InvalidBoundsError, ResourceCapError
from .model import (
    Family,
    Realization,
    Subfamily,
    _freeze,
    check_rows,
    cube_pins,
    flat_rows,
    member_count,
)
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
    the parameter and the value the action gives it.  ``n_states`` and
    ``initial`` are read from ``state_ptr`` and ``family``.

    A member chain is the quotient of one member (:func:`induce`): one
    action per state, no choice arrays, and the member's :class:`Realization`
    as ``sub``.  A quotient built by hand, without a family, may leave the
    choice arrays out; its action rows are checked with :func:`check_rows`
    and no state may be without actions.  Gathered quotients are not checked
    again: their rows are the root's, built by ``flat_rows``.

    ``act_state`` (the state of each action), ``ent_act`` and ``ent_source``
    (the action and state of each entry) serve every solve on the quotient;
    they are derived from the pointers, except that :func:`induce` hands a
    chain the ``ent_source`` it gathers from the root (``_ent_source``).
    All arrays are read-only.
    """

    family: Family | None
    sub: Subfamily | Realization | None
    state_ptr: np.ndarray
    act_ptr: np.ndarray
    ent_target: np.ndarray
    ent_prob: np.ndarray
    choice_ptr: np.ndarray | None = field(default=None, repr=False)
    choice_param: np.ndarray | None = field(default=None, repr=False)
    choice_value: np.ndarray | None = field(default=None, repr=False)
    _ent_source: InitVar[np.ndarray | None] = None
    act_state: np.ndarray = field(init=False, repr=False)
    ent_act: np.ndarray = field(init=False, repr=False)
    ent_source: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, _ent_source):
        n = self.n_states
        if self.family is None:
            check_rows(self.act_ptr, self.ent_target, self.ent_prob, n, "targets an unknown state")
            n_acts = np.diff(self.state_ptr)
            if not (n_acts > 0).all():
                raise ValueError(f"state {int(np.argmin(n_acts))} has no actions")
        _freeze(self.state_ptr, self.act_ptr, self.ent_target, self.ent_prob)
        # slices and array methods: every member chain pays for this block
        if self.is_chain:  # action s is the one action of state s
            act_state = self.state_ptr[:-1]  # a view of a read-only array is read-only
            if _ent_source is None:
                _ent_source = act_state.repeat(self.act_ptr[1:] - self.act_ptr[:-1])
            ent_act = ent_source = _ent_source
            _freeze(ent_source)
        else:
            act_state = np.repeat(np.arange(n), np.diff(self.state_ptr))
            ent_act = np.repeat(np.arange(act_state.size), self.act_ptr[1:] - self.act_ptr[:-1])
            ent_source = act_state[ent_act]
            _freeze(act_state, ent_act, ent_source)
        object.__setattr__(self, "act_state", act_state)
        object.__setattr__(self, "ent_act", ent_act)
        object.__setattr__(self, "ent_source", ent_source)
        if self.choice_ptr is not None:
            _freeze(self.choice_ptr, self.choice_param, self.choice_value)

    @property
    def n_states(self) -> int:
        return self.state_ptr.size - 1

    @property
    def initial(self) -> int:
        return self.family.initial

    @property
    def is_chain(self) -> bool:
        """One action per state: as many actions as states, and no state has none."""
        return self.act_ptr.size == self.state_ptr.size


@dataclass(frozen=True, eq=False)
class BoundsVec:
    """Per-state reachability bounds valid for every member of a quotient's ``sub``.

    ``lb <= ub`` pointwise up to ``BOUNDS_SLACK``; the schedulers pick one
    action per state of that quotient and attain the bounds on it.
    """

    lb: np.ndarray
    ub: np.ndarray
    min_scheduler: np.ndarray
    max_scheduler: np.ndarray


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
        state_ptr=state_ptr,
        act_ptr=act_ptr,
        ent_target=ent_target,
        ent_prob=ent_prob,
        choice_ptr=choice_ptr,
        choice_param=choice_param,
        choice_value=choice_value,
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
    keep, act_ptr, ent_keep = _kept(root, allowed[root.choice_param, root.choice_value])
    choice_len = np.diff(root.choice_ptr)
    choice_keep = np.repeat(keep, choice_len)
    return QuotientMdp(
        family=family,
        sub=sub,
        state_ptr=np.searchsorted(root.act_state[keep], np.arange(family.n_states + 1)),
        act_ptr=act_ptr,
        ent_target=root.ent_target[ent_keep],
        ent_prob=root.ent_prob[ent_keep],
        choice_ptr=_ptr(choice_len[keep]),
        choice_param=root.choice_param[choice_keep],
        choice_value=root.choice_value[choice_keep],
    )


def _kept(root: QuotientMdp, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of the root actions whose every choice is ``ok``, their row pointers, entry mask."""
    keep = np.logical_and.reduceat(ok, root.choice_ptr[:-1])
    return keep, _ptr((root.act_ptr[1:] - root.act_ptr[:-1])[keep]), keep[root.ent_act]


def induce(family: Family, r: Realization, root: QuotientMdp | None = None) -> QuotientMdp:
    """The member chain of ``r``, its one-member quotient: per state the root action choosing ``r``.

    ``root`` is the family's root quotient or a mask holding ``r``; without
    it, ``r`` is checked and the root built here.  The rows are gathered, so
    bitwise those ``flat_rows`` gives ``r``'s templates, and not checked again.
    """
    if root is None:
        if cube_pins(r, family.full_subfamily()) is None:
            raise ValueError("realization gives a parameter a value outside its domain")
        root = root_quotient(family)
    values = np.fromiter(r.values, np.int64, len(r.values))
    _, act_ptr, ent_keep = _kept(root, root.choice_value == values[root.choice_param])
    if act_ptr.size != family.n_states + 1:
        raise ValueError("realization picks no action of the quotient at some state")
    return QuotientMdp(
        family=family,
        sub=r,
        state_ptr=np.arange(act_ptr.size),
        act_ptr=act_ptr,
        ent_target=root.ent_target[ent_keep],
        ent_prob=root.ent_prob[ent_keep],
        _ent_source=root.ent_source[ent_keep],
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
    return BoundsVec(lb=lb, ub=ub, min_scheduler=min_sched, max_scheduler=max_sched)


def _reachable_under(qmdp: QuotientMdp, scheduler: np.ndarray) -> np.ndarray:
    """States reachable from the initial state in the chain ``scheduler`` induces."""
    # a Python walk: forward walks are deep, so an array fixpoint would run many rounds
    pos, lens = _segments(qmdp.act_ptr, qmdp.state_ptr[:-1] + scheduler)
    succ, ptr = qmdp.ent_target[pos].tolist(), _ptr(lens).tolist()
    seen = [False] * qmdp.n_states
    seen[qmdp.initial] = True
    stack = [qmdp.initial]
    while stack:
        s = stack.pop()
        for t in succ[ptr[s] : ptr[s + 1]]:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return np.array(seen)


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
        if sched.shape != (qmdp.n_states,):
            raise ValueError(f"scheduler has shape {sched.shape}, expected ({qmdp.n_states},)")
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
