"""Core data model: chains, families, realizations, subfamilies, conflicts.

States and parameters are interned to dense integer indices; every type here
is immutable after construction and safe to share between threads.  Human
readable names live only at the I/O boundary (see :mod:`mcsynth.sketch`).
Sketch templates, member chains and quotient MDPs share one flat row layout:
:func:`check_rows` is the one check of a stored row, and :func:`flat_rows`
turns raw template entries into transition rows.  A family also fixes the
order in which reachability solves visit its states: chunks of the
condensation of its union graph, sinks first (:attr:`Family._chunk_ids`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

PROB_SUM_TOL = 1e-9
# A solve chunk closes once it holds this many states.  Smaller chunks save
# little dense work but cost one more linear solve call each; a family with
# fewer states is one chunk, solved exactly as one system.  The chunk is
# also the unit a synthesis run reuses: a chunk system met again is not
# solved again (see reach._solve).
SOLVE_CHUNK = 64


def flat_rows(
    n_rows: int, row: np.ndarray, target: np.ndarray, prob: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalise raw ``(row, target, prob)`` entries into ``(row_ptr, target, prob)``.

    This is the one rule for what a transition row is: entries sorted by
    target, one entry per target holding the sum of its raw probabilities
    (added in input order), no zero entries.  Row ``i`` is
    ``target[row_ptr[i]:row_ptr[i + 1]]``.
    """
    order = np.lexsort((target, row))
    row, target = row[order], target[order]
    first = np.ones(row.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (target[1:] != target[:-1])
    summed = np.bincount(np.cumsum(first) - 1, weights=prob[order])
    keep = summed > 0.0
    row = row[first][keep]
    return np.searchsorted(row, np.arange(n_rows + 1)), target[first][keep], summed[keep]


def check_rows(
    ptr: np.ndarray, keys: np.ndarray, prob: np.ndarray, n_keys: int, out_of_range: str
) -> np.ndarray:
    """Check stored rows, a chain's (keys are targets) or a template's (parameters).

    Pointers span the entries, no row is empty, keys lie in ``range(n_keys)``
    and strictly increase within a row, probabilities are positive and sum
    to 1 within ``PROB_SUM_TOL``.  Returns the row sizes.
    """
    if ptr[0] != 0 or ptr[-1] != keys.size or prob.size != keys.size:
        raise ValueError("row pointers must run from 0 to the entry count")
    sizes = np.diff(ptr)
    if not (sizes > 0).all():
        raise ValueError(f"row of state {int(np.argmin(sizes))} is empty")
    if keys.min() < 0 or keys.max() >= n_keys:
        raise ValueError(f"a row {out_of_range}")
    rising = np.diff(keys) > 0
    rising[ptr[1:-1] - 1] = True  # row boundaries
    if not rising.all():
        raise ValueError("keys must be strictly increasing within a row")
    if not (prob > 0.0).all():
        raise ValueError("row probabilities must be positive")
    sums = np.add.reduceat(prob, ptr[:-1])
    if not (np.abs(sums - 1.0) <= PROB_SUM_TOL).all():
        raise ValueError("row probabilities must sum to 1")
    return sizes


def _freeze(*arrays: np.ndarray) -> None:
    """Make ``arrays`` read-only, so a stored row cannot change after its check."""
    for a in arrays:
        a.flags.writeable = False


def predecessors(n: int, src: np.ndarray, tgt: np.ndarray) -> tuple[list[int], list[int]]:
    """Flat entries grouped by target, the adjacency of a backward :func:`breadth_first`.

    Returns ``(sources, ptr)``: the entries into state ``t`` come from
    ``sources[ptr[t]:ptr[t + 1]]``.
    """
    order = np.argsort(tgt, kind="stable")
    return src[order].tolist(), np.searchsorted(tgt[order], np.arange(n + 1)).tolist()


def breadth_first(
    adjacency: tuple[list[int], list[int]], seeds: list[int], allowed: np.ndarray | None = None
) -> np.ndarray:
    """Breadth-first steps of each state from the nearest seed; -1 where not reached.

    ``adjacency`` is ``(flat, ptr)``, the neighbours of state ``s`` being
    ``flat[ptr[s]:ptr[s + 1]]``: successors, or :func:`predecessors` for a
    backward walk.  Seeds are at step 0; the walk enters no other state
    outside ``allowed``, when given.
    """
    flat, ptr = adjacency
    # -2 marks the states the walk may not enter
    steps = [-1] * (len(ptr) - 1) if allowed is None else np.where(allowed, -1, -2).tolist()
    frontier = list(seeds)
    for s in frontier:
        steps[s] = 0
    step = 0
    while frontier:
        step += 1
        reached = []
        for t in frontier:
            for s in flat[ptr[t] : ptr[t + 1]]:
                if steps[s] == -1:
                    steps[s] = step
                    reached.append(s)
        frontier = reached
    out = np.array(steps, dtype=np.int64)
    return out if allowed is None else np.maximum(out, -1, out=out)


def strong_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the graph ``succ``, sinks first.

    Iterative Tarjan: a block is emitted only after every block it reaches,
    so the list is a reverse topological order of the condensation.  Each
    block lists its states in increasing order.
    """
    n = len(succ)
    index, low = [-1] * n, [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    blocks: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    block = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        block.append(w)
                        if w == v:
                            break
                    blocks.append(sorted(block))
    return blocks


@dataclass(frozen=True, eq=False)
class Mc:
    """Markov chain as flat rows: a quotient MDP with one action per state.

    The row of state ``s`` is ``ent_target[row_ptr[s]:row_ptr[s + 1]]`` with
    probabilities ``ent_prob`` at the same positions; targets are strictly
    increasing within a row and probabilities positive, summing to 1 within
    ``PROB_SUM_TOL``.  ``ent_source`` holds the state of each entry.

    ``chunk`` holds, per state, the solve chunk of the family the chain was
    induced from (see :attr:`Family._chunk_ids`); ``None`` solves the chain
    as one chunk.  The row arrays a caller passes in become read-only.
    """

    initial: int
    row_ptr: np.ndarray
    ent_target: np.ndarray
    ent_prob: np.ndarray
    chunk: np.ndarray | None = field(default=None, repr=False)
    ent_source: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_states
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        if self.chunk is not None and self.chunk.shape != (n,):
            raise ValueError("chunk ids must give one chunk per state")
        sizes = check_rows(
            self.row_ptr, self.ent_target, self.ent_prob, n, "targets an unknown state"
        )
        object.__setattr__(self, "ent_source", np.repeat(np.arange(n), sizes))
        _freeze(self.row_ptr, self.ent_target, self.ent_prob, self.ent_source)

    @property
    def n_states(self) -> int:
        return self.row_ptr.size - 1

    @cached_property
    def in_edges(self) -> tuple[list[int], list[int]]:
        """:func:`predecessors` of the chain, kept for the prob-0 walk of every solve on it."""
        return predecessors(self.n_states, self.ent_source, self.ent_target)


@dataclass(frozen=True, eq=False)
class Family:
    """A finite family of Markov chains over parameterized transition targets.

    Each state's template is a distribution over *parameters*, stored in
    :class:`Mc`'s row layout with parameters in place of targets:
    ``tmpl_param[tmpl_ptr[s]:tmpl_ptr[s + 1]]`` and ``tmpl_prob`` (with
    ``tmpl_state``, the state of each entry).  Assigning each parameter a
    value from its domain (a strictly increasing tuple of state indices)
    turns a template into an ordinary transition row.  The template arrays a
    caller passes in become read-only.
    """

    state_names: tuple[str, ...]
    initial: int
    param_names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    tmpl_ptr: np.ndarray
    tmpl_param: np.ndarray
    tmpl_prob: np.ndarray
    tmpl_state: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = len(self.state_names), len(self.param_names)
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        if len(self.domains) != m:
            raise ValueError("one domain required per parameter")
        if self.tmpl_ptr.shape != (n + 1,):
            raise ValueError("one template row required per state")
        for k, dom in enumerate(self.domains):
            if not dom:
                raise ValueError(f"parameter {self.param_names[k]!r} has an empty domain")
            if any(not 0 <= v < n for v in dom):
                raise ValueError(f"domain of {self.param_names[k]!r} references an unknown state")
            if any(a >= b for a, b in zip(dom, dom[1:])):
                raise ValueError(f"domain of {self.param_names[k]!r} must be strictly increasing")
        sizes = check_rows(
            self.tmpl_ptr, self.tmpl_param, self.tmpl_prob, m, "uses an undeclared parameter"
        )
        object.__setattr__(self, "tmpl_state", np.repeat(np.arange(n), sizes))
        _freeze(self.tmpl_ptr, self.tmpl_param, self.tmpl_prob, self.tmpl_state)

    def _value(self) -> tuple:
        return (self.state_names, self.initial, self.param_names, self.domains,
                self.tmpl_ptr.tolist(), self.tmpl_param.tolist(), self.tmpl_prob.tolist())

    def __eq__(self, other) -> bool:
        return self._value() == other._value() if isinstance(other, Family) else NotImplemented

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def full_subfamily(self) -> "Subfamily":
        return Subfamily(self.domains)

    def _blocks(self) -> list[list[int]]:
        """Strongly connected components of the union graph, sinks first.

        The union graph has an edge from each state to every value of every
        parameter in its template, so every member chain and every quotient
        of the family is a subgraph of it.  Not cached: a family keeps only
        the one array of :attr:`_chunk_ids`, not a list per block.
        """
        ptr, param = self.tmpl_ptr.tolist(), self.tmpl_param.tolist()
        succ = [
            sorted({v for k in param[a:b] for v in self.domains[k]}) for a, b in zip(ptr, ptr[1:])
        ]
        return strong_components(succ)

    @cached_property
    def _chunk_ids(self) -> np.ndarray | None:
        """Per state, the solve chunk it belongs to; ``None`` for one chunk.

        Chunks merge consecutive blocks of :meth:`_blocks`, sinks first, and
        close once they hold ``SOLVE_CHUNK`` states.  Every transition of a
        member or quotient leads into the same or a lower chunk, so solving
        chunks in increasing order finds each chunk's exits already solved.
        """
        if self.n_states < SOLVE_CHUNK:
            return None
        ids = np.empty(self.n_states, dtype=np.intp)
        chunk = size = 0
        for block in self._blocks():
            ids[block] = chunk
            size += len(block)
            if size >= SOLVE_CHUNK:
                chunk, size = chunk + 1, 0
        _freeze(ids)
        return ids if ids.any() else None


@dataclass(frozen=True)
class Realization:
    """Total assignment of parameters to state values, by parameter index."""

    values: tuple[int, ...]

    def as_dict(self, family: Family) -> dict[str, str]:
        return {
            family.param_names[k]: family.state_names[v]
            for k, v in enumerate(self.values)
        }


def _check_restricted(k: int, dom: tuple[int, ...]) -> None:
    if not dom:
        raise ValueError(f"restricted domain of parameter {k} is empty")
    if any(a >= b for a, b in zip(dom, dom[1:])):
        raise ValueError(f"restricted domain of parameter {k} must be strictly increasing")


class Subfamily:
    """A hyper-rectangle of realizations: one restricted domain per parameter.

    Its member count and multi-valued parameters are computed once; a
    :meth:`restricted` subfamily derives them from its parent's.
    """

    __slots__ = ("domains", "_size", "_multi")

    def __init__(self, domains: Sequence[Sequence[int]]):
        doms = tuple(tuple(d) for d in domains)
        for k, dom in enumerate(doms):
            _check_restricted(k, dom)
        self.domains = doms
        self._size = math.prod(len(dom) for dom in doms)
        self._multi = tuple(k for k, dom in enumerate(doms) if len(dom) > 1)

    def multi_valued(self) -> tuple[int, ...]:
        return self._multi

    def restricted(self, param: int, values: Sequence[int]) -> "Subfamily":
        """This subfamily with the domain of ``param`` replaced; only that domain is checked."""
        dom = tuple(values)
        _check_restricted(param, dom)
        before = len(self.domains[param])
        out = object.__new__(Subfamily)
        out.domains = self.domains[:param] + (dom,) + self.domains[param + 1 :]
        out._size = self._size // before * len(dom)
        out._multi = self._multi
        if (before > 1) != (len(dom) > 1):
            out._multi = tuple(sorted(set(self._multi) ^ {param}))
        return out

    def __repr__(self) -> str:
        return f"Subfamily({self.domains!r})"


@dataclass(frozen=True, eq=False)
class Conflict:
    """Relevant parameters plus the realization they were derived from.

    Every realization in ``scope`` agreeing with ``reference`` on ``params``
    violates the property the conflict was built for.  ``params`` never
    contains a parameter whose restricted domain in ``scope`` is a singleton;
    such parameters cannot constrain the generalization.
    """

    params: frozenset[int]
    reference: Realization
    scope: Subfamily


def validate_realization(family: Family, r: Realization) -> None:
    """Raise ``ValueError`` unless ``r`` is a total, in-domain assignment."""
    if len(r.values) != family.n_params:
        raise ValueError(
            f"realization assigns {len(r.values)} parameters, family has {family.n_params}"
        )
    for k, v in enumerate(r.values):
        if v not in family.domains[k]:
            raise ValueError(
                f"value {v} of parameter {family.param_names[k]!r} outside its domain"
            )


def realization_in(sub: Subfamily, r: Realization) -> bool:
    return len(r.values) == len(sub.domains) and all(
        v in dom for v, dom in zip(r.values, sub.domains)
    )


def induce(family: Family, r: Realization) -> Mc:
    """Instantiate the member chain of ``r``.

    Probabilities of distinct parameters mapped to the same target state are
    summed, so every row remains a valid distribution.
    """
    validate_realization(family, r)
    target = np.asarray(r.values)[family.tmpl_param]
    rows = flat_rows(family.n_states, family.tmpl_state, target, family.tmpl_prob)
    return Mc(family.initial, *rows, chunk=family._chunk_ids)


def generalization(r: Realization, params: Iterable[int], scope: Subfamily) -> list[Realization]:
    """All members of ``scope`` that agree with ``r`` on ``params``.

    The result is in lexicographic order (parameter index, then domain-value
    order) and always contains ``r`` itself.
    """
    pinned = set(params)
    if not realization_in(scope, r):
        raise ValueError("reference realization lies outside the scope")
    if any(not 0 <= k < len(scope.domains) for k in pinned):
        raise ValueError("conflict parameter index out of range")
    doms = [
        (r.values[k],) if k in pinned else scope.domains[k]
        for k in range(len(scope.domains))
    ]
    return [Realization(values) for values in itertools.product(*doms)]


def member_count(sub: Subfamily) -> int:
    """Number of realizations in the subfamily (exact integer arithmetic)."""
    return sub._size


def cube_pins(entry: Conflict | Realization, sub: Subfamily) -> tuple[tuple[int, int], ...] | None:
    """The cube ``entry`` cuts out of ``sub``, as ``(param, value)`` pins sorted by param.

    A conflict pins its parameters to its reference's values, a realization
    (a checked member) pins all of them.  Pins on single-valued parameters
    of ``sub`` are dropped, so empty pins cover all of ``sub``.  ``None``
    means the cube misses ``sub``: a pinned value lies outside its domain.
    """
    if isinstance(entry, Realization):
        params, ref = range(len(entry.values)), entry.values
    else:
        params, ref = sorted(entry.params), entry.reference.values
    pins = []
    for k in params:
        dom = sub.domains[k]
        if ref[k] not in dom:
            return None
        if len(dom) > 1:
            pins.append((k, ref[k]))
    return tuple(pins)


def _branch(cubes: list, k: int) -> tuple[list, dict]:
    """Cubes leaving ``k`` free, and per value pinned at ``k`` the cubes pinning it, minus that pin."""
    rest, pinned = [], {}
    for c in cubes:
        if c[0][0] == k:
            pinned.setdefault(c[0][1], []).append(c[1:])
        else:
            rest.append(c)
    return rest, pinned


def _count(sizes: list[int], cubes: list, start: int, memo: dict) -> int:
    """Members over parameters ``start..`` that no cube covers (cubes non-empty).

    ``memo`` holds the count of every residual problem ``(start, cube set)``
    already solved in this search; the cube set names the problem exactly,
    so an entry never goes stale.
    """
    if not cubes:
        return math.prod(sizes[start:])
    key = (start, frozenset(cubes))
    if key in memo:
        return memo[key]
    k = min(c[0][0] for c in cubes)
    rest, pinned = _branch(cubes, k)
    free = sizes[k] - len(pinned)
    # a branch holding an emptied cube is covered whole and counts 0
    total = sum(
        _count(sizes, rest + reduced, k + 1, memo) for reduced in pinned.values() if all(reduced)
    )
    if free:
        total += free * _count(sizes, rest, k + 1, memo)
    memo[key] = out = math.prod(sizes[start:k]) * total
    return out


def _least_open(
    doms, cubes: list, j: int, cursor: list[int] | None, covered: set
) -> list[int] | None:
    """Domain positions, from parameter ``j`` on, of the least member no cube covers.

    With a ``cursor`` (tight mode) the member must not precede ``cursor[j:]``,
    and every parameter is branched on, since later pins may force a larger
    value there.  Off the cursor path, parameters no cube pins take their
    least value.  ``None`` when every candidate is covered.

    Off the cursor path a ``None`` answer depends on the cube set alone: the
    cubes cover every member over the parameters they pin.  ``covered``
    collects these cube sets for the rest of the search, so none is searched
    twice (as when several free values share the same cubes).  A found
    member ends the search, so no other answer is ever asked for again.
    """
    if not cubes:
        return cursor[j:] if cursor is not None else [0] * (len(doms) - j)
    if cursor is None:
        key = frozenset(cubes)
        if key in covered:
            return None
        k = min(c[0][0] for c in cubes)
        head, lo = [0] * (k - j), 0
    else:
        k, head, lo = j, [], cursor[j]
    rest, pinned = _branch(cubes, k)
    for i in range(lo, len(doms[k])):
        reduced = pinned.get(doms[k][i])
        tight = cursor if cursor is not None and i == lo else None
        if reduced is not None and not all(reduced):
            continue
        residual = rest if reduced is None else rest + reduced
        found = _least_open(doms, residual, k + 1, tight, covered)
        if found is not None:
            return head + [i] + found
    if cursor is None:
        covered.add(key)
    return None


def iterate_unpruned(
    sub: Subfamily, conflicts: Sequence[Conflict | Realization] = ()
) -> Iterator[Realization]:
    """Members of ``sub`` not covered by any entry of ``conflicts``, in lexicographic order.

    Entries are conflicts or checked realizations, each a cube (see
    :func:`cube_pins`), and are consulted live: entries appended while the
    generator runs prune the not-yet-yielded remainder.  Each step searches
    the cubes for the least uncovered member at or after the cursor, so
    covered members are never visited.  Each step starts with no cube sets
    remembered as covering (see :func:`_least_open`), since it may see more
    cubes than the step before.
    """
    doms = sub.domains
    cubes: list = []
    done = 0
    pos = [0] * len(doms)
    while True:
        fresh = [cube_pins(entry, sub) for entry in conflicts[done:]]
        done += len(fresh)
        if () in fresh:
            return
        cubes += [c for c in fresh if c is not None]
        pos = _least_open(doms, cubes, 0, pos, set())
        if pos is None:
            return
        yield Realization(tuple(dom[i] for dom, i in zip(doms, pos)))
        j = len(pos) - 1
        while j >= 0 and pos[j] == len(doms[j]) - 1:
            pos[j] = 0
            j -= 1
        if j < 0:
            return
        pos[j] += 1


def count_unpruned(sub: Subfamily, conflicts: Sequence[Conflict | Realization] = ()) -> int:
    """Exact number of members iterate_unpruned would yield, without walking them.

    Recurses on the lowest parameter a live cube pins: one branch per pinned
    value, keeping the cubes compatible with it minus that pin, and one
    shared branch for the unpinned values.  Parameters no live cube pins
    contribute their domain sizes as one factor, and a residual problem met
    again in the same count is answered from a memo, so the cost grows with
    the number of distinct residual cube sets, not with the number of members.
    """
    cubes = [c for c in (cube_pins(entry, sub) for entry in conflicts) if c is not None]
    return 0 if () in cubes else _count([len(d) for d in sub.domains], cubes, 0, {})
