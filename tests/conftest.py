"""Shared fixtures: the five-state golden family and a seeded random corpus.

The golden family has two effective choices (X routes the initial state,
Y splits probability mass between the two absorbing ends) and two fixed
loop parameters, giving four members with initial-state reachability
values 0.8, 0.6, 0.4, 0.2 toward state ``t``.

Random instances come from the benchmark generator; expected values are
always produced by exhaustive enumeration with ``reference_reach``, a dense
linear solve over the whole chain with its own target check and backward
search, which calls nothing in :mod:`mcsynth.reach`, so the oracles stay
independent of the solvers under test.  ``reference_conflict`` and its
helpers build conflicts on explicitly rerouted chains by a linear scan over
``greedy_steps``, the reference for the bisected ``construct_conflict``;
``reference_pinned_reach`` runs the prob-0 search of a pinned solve
backward from every root over the whole chain, the reference for the search
over unpinned states in ``mc_reach``, pinned or not;
``reference_build_quotient`` and ``reference_split_subfamily`` build each
quotient from its own product of domains and decode actions one state at a
time, the reference for the masked quotients and array splitting of
:mod:`mcsynth.quotient`.  ``reference_solve`` solves all unknown states of a
chain as one dense system, the reference for the chunked solves of
:mod:`mcsynth.reach`.  ``lane_family`` loads the benchmark's family shape.
``make_family`` builds a family from one ``{param: prob}`` dict per state,
and ``template`` / ``templates`` read its flat template rows back.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import random
import sys
from collections import deque
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import pytest

from mcsynth import (
    Conflict,
    CostMeter,
    Family,
    InvalidBoundsError,
    Mc,
    Property,
    Realization,
    Specification,
    Subfamily,
    evaluate_property,
    generate_benchmark,
    induce,
    iterate_unpruned,
    mc_reach,
    parse_sketch,
)
import mcsynth.reach as reach
from mcsynth.errors import ResourceCapError
from mcsynth.model import flat_rows, member_count, realization_in
from mcsynth.quotient import ACTION_CAP, QuotientMdp

TOY4_TEXT = """
{
  "format": "mc-family/1",
  "states": ["s0", "s1", "s2", "t", "f"],
  "initial": "s0",
  "parameters": {
    "X": ["s1", "s2"],
    "Y": ["t", "f"],
    "T'": ["t"],
    "F'": ["f"]
  },
  "transitions": {
    "s0": {"X": 1.0},
    "s1": {"T'": 0.6, "Y": 0.2, "F'": 0.2},
    "s2": {"T'": 0.2, "Y": 0.2, "F'": 0.6},
    "t": {"T'": 1.0},
    "f": {"F'": 1.0}
  }
}
"""

# Realizations in lexicographic order; values are (X, Y, T', F') state indices.
TOY_R = {
    0: Realization((1, 3, 3, 4)),
    1: Realization((1, 4, 3, 4)),
    2: Realization((2, 3, 3, 4)),
    3: Realization((2, 4, 3, 4)),
}
TOY_TARGET = frozenset({3})
TOY_VALUES = {0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2}


@pytest.fixture(scope="session")
def toy4() -> Family:
    return parse_sketch(TOY4_TEXT)


@pytest.fixture(scope="session")
def toy4_safety() -> Property:
    return Property(op="<=", threshold=0.3, targets=TOY_TARGET)


# (states, params, domain, seed): member counts domain**params stay <= 512.
CORPUS_CONFIGS = [
    (6, 2, 2, 11), (8, 3, 2, 12), (10, 4, 2, 13), (12, 5, 2, 14),
    (14, 6, 2, 15), (16, 7, 2, 16), (18, 8, 2, 17), (20, 9, 2, 18),
    (7, 2, 3, 19), (9, 3, 3, 20), (11, 4, 3, 21), (13, 5, 3, 22),
    (15, 2, 4, 23), (17, 3, 4, 24), (19, 4, 4, 25), (22, 4, 4, 26),
    (24, 3, 3, 27), (26, 5, 2, 28), (28, 6, 2, 29), (30, 4, 3, 30),
    (32, 3, 4, 31), (34, 5, 3, 32), (36, 7, 2, 33), (38, 4, 4, 34),
    (40, 5, 3, 35), (6, 3, 3, 36), (8, 4, 2, 37), (10, 2, 4, 38),
    (12, 3, 3, 39), (14, 5, 2, 40), (16, 4, 3, 41), (18, 3, 4, 42),
    (20, 6, 2, 43), (22, 5, 3, 44), (24, 4, 4, 45), (26, 7, 2, 46),
    (28, 3, 3, 47), (30, 8, 2, 48), (32, 4, 3, 49), (34, 2, 4, 50),
    (36, 5, 2, 51), (38, 3, 3, 52), (40, 9, 2, 53), (9, 4, 2, 54),
    (11, 5, 2, 55), (13, 2, 3, 56), (15, 3, 4, 57), (17, 6, 2, 58),
    (19, 5, 3, 59), (21, 4, 4, 60),
]


def make_mc(rows, initial: int = 0) -> Mc:
    """Chain from one ``{target: prob}`` dict per state; zero entries are dropped."""
    ptr, tgt, prob = [0], [], []
    for row in rows:
        for t in sorted(row):
            if row[t] > 0.0:
                tgt.append(t)
                prob.append(row[t])
        ptr.append(len(tgt))
    return Mc(
        initial,
        np.asarray(ptr, dtype=np.int64),
        np.asarray(tgt, dtype=np.int64),
        np.asarray(prob, dtype=np.float64),
    )


def make_family(rows: Sequence[dict[int, float]], **fields) -> Family:
    """Family from one ``{param: prob}`` dict per state, each stored in parameter order.

    Every entry is kept, zero and invalid ones too, so ``Family`` checks them.
    """
    ptr, param, prob = [0], [], []
    for row in rows:
        for k in sorted(row):
            param.append(k)
            prob.append(row[k])
        ptr.append(len(param))
    return Family(
        **fields,
        tmpl_ptr=np.asarray(ptr, dtype=np.int64),
        tmpl_param=np.asarray(param, dtype=np.int64),
        tmpl_prob=np.asarray(prob, dtype=np.float64),
    )


class Template(NamedTuple):
    keys: tuple[int, ...]
    probs: tuple[float, ...]


def template(family: Family, s: int) -> Template:
    """The template row of state ``s``, read from the family's flat arrays."""
    lo, hi = family.tmpl_ptr[s], family.tmpl_ptr[s + 1]
    return Template(
        tuple(family.tmpl_param[lo:hi].tolist()), tuple(family.tmpl_prob[lo:hi].tolist())
    )


def templates(family: Family) -> list[Template]:
    return [template(family, s) for s in range(family.n_states)]


def chain_row(mc: Mc, s: int) -> dict[int, float]:
    """Row ``s`` of ``mc`` as a ``{target: prob}`` dict in target order."""
    lo, hi = mc.row_ptr[s], mc.row_ptr[s + 1]
    return dict(zip(mc.ent_target[lo:hi].tolist(), mc.ent_prob[lo:hi].tolist()))


# Reference rerouting: the conflict construction spelled out on whole chains.
# Each step rebuilds the member with a target sink and a losing sink appended
# and every non-expanded state shortcut to them, then solves it whole, in a
# linear scan over the greedy order; ``construct_conflict`` must find the
# same conflicts with sound bound vectors.


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
    keep = np.zeros(n, dtype=bool)
    keep[list(expanded)] = True
    other = np.flatnonzero(~keep)
    g = np.asarray(gamma, dtype=np.float64)[other]
    bad = ~((g >= 0.0) & (g <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"gamma[{other[i]}] = {float(g[i])!r} outside [0, 1]")
    src = np.repeat(np.arange(n), np.diff(mc.row_ptr))
    own = keep[src]
    src = np.concatenate((src[own], other, other, [top, bot]))
    tgt = np.concatenate((mc.ent_target[own], np.repeat([top, bot], other.size), [top, bot]))
    prob = np.concatenate((mc.ent_prob[own], g, 1.0 - g, [1.0, 1.0]))
    live = prob > 0.0  # gamma 0 or 1 leaves a one-entry shortcut
    src, tgt, prob = src[live], tgt[live], prob[live]
    order = np.argsort(src, kind="stable")
    row_ptr = np.searchsorted(src[order], np.arange(n + 3))
    return Mc(mc.initial, row_ptr, tgt[order], prob[order])


def reference_solve(
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


def reference_reach(mc: Mc, targets: Iterable[int]) -> np.ndarray:
    """Reachability probabilities of ``mc`` by one dense solve over the whole chain.

    The reference for :func:`mcsynth.mc_reach`; it calls nothing in
    :mod:`mcsynth.reach`.  A backward breadth-first search over the dense
    transition matrix finds the states that can reach a target; those that
    are no target solve ``(I - Q) x = c`` in one ``np.linalg.solve``, all
    others are 0.  Exact up to floating rounding.
    """
    n = mc.n_states
    tset = {int(t) for t in targets}
    if not tset:
        raise ValueError("target set must be non-empty")
    if any(not 0 <= t < n for t in tset):
        raise ValueError("target state index out of range")
    dense = np.zeros((n, n))
    dense[mc.ent_source, mc.ent_target] = mc.ent_prob
    can_reach = np.zeros(n, dtype=bool)
    can_reach[sorted(tset)] = True
    queue = deque(sorted(tset))
    while queue:
        t = queue.popleft()
        for s in np.flatnonzero(dense[:, t] > 0.0).tolist():
            if not can_reach[s]:
                can_reach[s] = True
                queue.append(s)
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


def _scope_multi(family: Family, scope: Subfamily | None) -> frozenset[int]:
    if scope is None:
        scope = family.full_subfamily()
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
    ptr, tgt = mc.row_ptr.tolist(), mc.ent_target.tolist()
    seen = {mc.initial}
    queue = deque([mc.initial])
    while queue:
        s = queue.popleft()
        if all(k in rel for k in template(family, s).keys if k in multi):
            expanded.add(s)
            for t in tgt[ptr[s] : ptr[s + 1]]:
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
        return sum(1 for k in template(family, s).keys if k in multi and k not in rel)
    return min(hs, key=lambda s: (missing(s), s))


def greedy_steps(family: Family, r: Realization, scope: Subfamily) -> list[frozenset[int]]:
    """The relevant set of every step of the greedy expansion order of ``r``.

    Step 0 holds no relevant parameter; each later step adds those of the
    horizon state :func:`choose_to_expand` picks.  The last step has an
    empty horizon, so it has expanded every reachable state.
    """
    mc = induce(family, r)
    multi = _scope_multi(family, scope)
    rel: set[int] = set()
    steps = []
    while True:
        steps.append(frozenset(rel))
        _, horizon = reachable_via_holes(mc, family, rel, scope)
        if not horizon:
            return steps
        pick = choose_to_expand(horizon, rel, family, scope)
        rel |= {k for k in template(family, pick).keys if k in multi}


def rerouted_value(
    family: Family,
    r: Realization,
    prop: Property,
    gamma: Sequence[float],
    scope: Subfamily,
    params: Iterable[int],
) -> float:
    """Initial-state value of ``r`` rerouted at the expansion of ``params``.

    The states :func:`reachable_via_holes` expands keep their rows; every
    other state jumps to a fresh target with its ``gamma`` value.
    """
    mc = induce(family, r)
    expanded, _ = reachable_via_holes(mc, family, params, scope)
    rerouted = reroute(mc, expanded, gamma)
    return float(mc_reach(rerouted, set(prop.targets) | {mc.n_states})[mc.initial])


def reference_conflict(
    family: Family,
    r: Realization,
    prop: Property,
    gamma: Sequence[float],
    scope: Subfamily,
    meter: CostMeter | None = None,
) -> Conflict:
    """The greedy conflict loop as rerouting defines it (reference for ``construct_conflict``).

    A linear scan: every step of :func:`greedy_steps`, in order, builds the
    rerouted chain and solves it whole with the two sinks, and the first
    violating step is the conflict.  With a sound ``gamma``,
    :func:`mcsynth.construct_conflict` must return the same conflict.

    ``gamma`` must lower-bound (safety) or upper-bound (liveness) the
    reachability value of every member of ``scope`` at every state; the
    bounds of ``scope`` itself or the trivial all-zeros / all-ones vector
    qualify.  Every member of the returned conflict's generalization within
    ``scope`` violates ``prop``.
    """
    if not realization_in(scope, r):
        raise ValueError("realization lies outside the scope")
    for rel in greedy_steps(family, r, scope):
        value = rerouted_value(family, r, prop, gamma, scope, rel)
        if meter is not None:
            meter.count()
        if not evaluate_property(value, prop):
            return Conflict(params=rel, reference=r, scope=scope)
    # The last step expanded everything reachable, so it saw the real chain.
    # Satisfaction means either the caller passed a satisfying member or
    # gamma disagrees with direct checking.
    mc = induce(family, r)
    direct = float(reference_reach(mc, prop.targets)[mc.initial])
    if evaluate_property(direct, prop):
        raise ValueError("member satisfies the property, no conflict exists")
    raise InvalidBoundsError("rerouting never exhibited the violation; gamma is inconsistent")


def reference_pinned_reach(
    mc: Mc, targets: Iterable[int], fixed: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """``mc_reach(mc, targets, fixed=fixed)`` with the prob-0 search over the whole chain.

    One breadth-first search runs backward from every root, a target or a
    pinned state of positive value, over all states; it never passes through
    a pinned non-root.  The unpinned, non-target states it reaches are the
    unknowns, solved by the production chunked solve, so the values must
    match :func:`mcsynth.mc_reach` bitwise.
    """
    mask, given = fixed
    n = mc.n_states
    tlist = sorted(set(targets))
    roots = set(tlist) | set(np.flatnonzero(mask & (given > 0.0)).tolist())
    sources, ptr = mc.in_edges
    dist = np.where(mask, -2, -1).tolist()
    queue = deque(sorted(roots))
    for t in queue:
        dist[t] = 0
    while queue:
        t = queue.popleft()
        for s in sources[ptr[t] : ptr[t + 1]]:
            if dist[s] == -1:
                dist[s] = dist[t] + 1
                queue.append(s)
    values = np.zeros(n)
    values[mask] = given[mask]
    values[tlist] = 1.0
    unknown = np.asarray(dist) >= 0
    unknown[tlist] = False
    unknown &= ~mask
    reach._solve(mc.ent_source, mc.ent_target, mc.ent_prob, values, unknown, mc.chunk)
    return values


# Reference quotients: every subfamily's quotient built from its own product
# of restricted domains, and splitting by decoding one action at a time;
# the masked quotients and the array splitting must agree bitwise.


def reference_build_quotient(family: Family, sub: Subfamily) -> QuotientMdp:
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
    counts, entries, targets, probs, supp = [], [], [], [], []
    for s, tmpl in enumerate(templates(family)):
        params = tmpl.keys
        supp.append(params)
        count = math.prod(len(sub.domains[k]) for k in params)
        if count > ACTION_CAP:
            raise ResourceCapError(
                f"state {s} would get {count} quotient actions (cap {ACTION_CAP})"
            )
        counts.append(count)
        entries.append(len(params))
        targets.extend(itertools.chain.from_iterable(
            itertools.product(*(sub.domains[k] for k in params))
        ))
        probs.extend(tmpl.probs * count)
    act_len = np.repeat(entries, counts)
    act_ptr, ent_target, ent_prob = flat_rows(
        act_len.size,
        np.repeat(np.arange(act_len.size), act_len),
        np.asarray(targets, dtype=np.int64),
        np.asarray(probs, dtype=np.float64),
    )
    return QuotientMdp(
        family=family,
        sub=sub,
        initial=family.initial,
        n_states=family.n_states,
        state_ptr=np.concatenate(([0], np.cumsum(counts))),
        act_ptr=act_ptr,
        ent_target=ent_target,
        ent_prob=ent_prob,
    )


def reference_decode_action(qmdp: QuotientMdp, s: int, action: int) -> dict[int, int]:
    """Map a local action index back to its parameter-value choice."""
    params = template(qmdp.family, s).keys
    sizes = [len(qmdp.sub.domains[k]) for k in params]
    if not 0 <= action < math.prod(sizes):
        raise ValueError(f"action {action} out of range at state {s}")
    choice = {}
    rem = action
    for k, size in zip(reversed(params), reversed(sizes)):
        rem, digit = divmod(rem, size)
        choice[k] = qmdp.sub.domains[k][digit]
    return choice


def _reference_reachable_under(qmdp: QuotientMdp, scheduler: np.ndarray) -> np.ndarray:
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


def reference_split_subfamily(
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
        qmdp = reference_build_quotient(family, sub)
    supp = [tmpl.keys for tmpl in templates(family)]
    multi = sub.multi_valued()
    joint = _reference_reachable_under(qmdp, min_sched) & _reference_reachable_under(qmdp, max_sched)

    scores = {k: 0 for k in multi}
    for s in range(qmdp.n_states):
        if not joint[s]:
            continue
        lo = reference_decode_action(qmdp, s, int(min_sched[s]))
        hi = reference_decode_action(qmdp, s, int(max_sched[s]))
        for k in supp[s]:
            if k in scores and lo[k] != hi[k]:
                scores[k] += 1

    best = max(scores.values(), default=0)
    if best > 0:
        param = min(k for k, v in scores.items() if v == best)
        dom = sub.domains[param]
        votes = {v: 0 for v in dom}
        max_reach = _reference_reachable_under(qmdp, max_sched)
        for s in range(qmdp.n_states):
            if max_reach[s] and param in supp[s]:
                votes[reference_decode_action(qmdp, s, int(max_sched[s]))[param]] += 1
        pivot = min(votes, key=lambda v: (-votes[v], v))
        left_vals = (pivot,)
        right_vals = tuple(v for v in dom if v != pivot)
    else:
        param = min(multi, key=lambda k: (-len(sub.domains[k]), k))
        dom = sub.domains[param]
        half = (len(dom) + 1) // 2
        left_vals, right_vals = dom[:half], dom[half:]

    return sub.restricted(param, left_vals), sub.restricted(param, right_vals)


@functools.cache
def _load_benchmark_families():
    path = Path(__file__).resolve().parent.parent / "benchmark" / "families.py"
    spec = importlib.util.spec_from_file_location("benchmark_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def lane_family(n_states: int, n_params: int, rho: float, seed: int) -> Family:
    """A family of the benchmark's lane shape (``benchmark/families.py``)."""
    model = _load_benchmark_families().lane_family(n_states, n_params, rho, random.Random(seed))
    return parse_sketch(model.sketch_text())


def corpus_family(i: int) -> Family:
    states, params, domain, seed = CORPUS_CONFIGS[i % len(CORPUS_CONFIGS)]
    return generate_benchmark(states, params, domain, seed)


@pytest.fixture(scope="session")
def corpus() -> list[Family]:
    return [corpus_family(i) for i in range(len(CORPUS_CONFIGS))]


def goal_index(family: Family) -> int:
    return family.state_names.index("goal")


def enumerate_values(family: Family, targets) -> dict[tuple, float]:
    """Oracle: initial-state value of every member, by the dense :func:`reference_reach`."""
    out = {}
    for r in iterate_unpruned(family.full_subfamily()):
        out[r.values] = float(reference_reach(induce(family, r), targets)[family.initial])
    return out


def _gap_threshold(values: list[float], quantile: float) -> float | None:
    """A threshold strictly between two member values, away from both."""
    distinct = sorted(set(round(v, 12) for v in values))
    if len(distinct) < 2:
        return None
    k = max(0, min(len(distinct) - 2, int(quantile * (len(distinct) - 1))))
    lo, hi = distinct[k], distinct[k + 1]
    if hi - lo < 1e-5:
        widest = max(range(len(distinct) - 1), key=lambda j: distinct[j + 1] - distinct[j])
        lo, hi = distinct[widest], distinct[widest + 1]
        if hi - lo < 1e-5:
            return None
    return (lo + hi) / 2.0


def _two_window_spec(values: dict, targets) -> Specification | None:
    """Infeasible two-property spec whose properties each have satisfying members.

    Thresholds sit in two different value gaps, so neither property is wholly
    violated by the family and the drivers must actually refine or prune.
    """
    distinct = sorted(set(round(v, 12) for v in values.values()))
    if len(distinct) < 3:
        return None
    lo_gap = max(0, len(distinct) // 3 - 1)
    hi_gap = min(len(distinct) - 2, (2 * len(distinct)) // 3)
    if lo_gap >= hi_gap:
        lo_gap, hi_gap = 0, len(distinct) - 2
        if lo_gap >= hi_gap:
            return None
    low = (distinct[lo_gap] + distinct[lo_gap + 1]) / 2
    high = (distinct[hi_gap] + distinct[hi_gap + 1]) / 2
    return Specification(
        properties=(
            Property(op="<=", threshold=low, targets=targets),
            Property(op=">=", threshold=high, targets=targets),
        )
    )


def make_instance(i: int, want: str) -> tuple[Family, Specification, dict]:
    """Seeded (family, spec) with a known feasibility verdict.

    ``want`` is "infeasible" or "mixed" (feasible, with violating members
    too).  Thresholds sit in gaps between member values so decisions stay far
    from the tolerance boundary.  Returns the enumerated member values as the
    third element.
    """
    rng = random.Random(f"instance:{i}:{want}")
    for attempt in range(len(CORPUS_CONFIGS)):
        family = corpus_family(i + attempt * 7)
        targets = frozenset({goal_index(family)})
        values = enumerate_values(family, targets)
        vals = list(values.values())
        vmin, vmax = min(vals), max(vals)
        if want == "infeasible":
            spec = _two_window_spec(values, targets)
            if spec is not None:
                return family, spec, values
            if vmin > 0.03:
                prop = Property(op="<=", threshold=vmin - 0.02, targets=targets)
            elif vmax < 0.97:
                prop = Property(op=">=", threshold=vmax + 0.02, targets=targets)
            else:
                continue
        else:
            op = "<=" if rng.random() < 0.5 else ">="
            thr = _gap_threshold(vals, rng.uniform(0.25, 0.75))
            if thr is None:
                continue
            prop = Property(op=op, threshold=thr, targets=targets)
        return family, Specification(properties=(prop,)), values
    raise RuntimeError(f"could not build instance {i} ({want})")
