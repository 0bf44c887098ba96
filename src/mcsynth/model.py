"""Core data model: families, realizations, subfamilies, cubes.

States and parameters are interned to dense integer indices; every type here
is immutable after construction and safe to share between threads.  Human
readable names live only at the I/O boundary (see :mod:`mcsynth.sketch`).
Sketch templates and quotient MDPs (a member chain among them, the quotient
of one member) share one flat row layout: :func:`check_rows` is the one
check of a stored row, and :func:`flat_rows` turns raw template entries into
the rows of the root quotient a family keeps (:attr:`Family._root`), which
every other quotient gathers.  A family also fixes the order in which
reachability solves visit its states: chunks of the condensation of its
union graph, sinks first (:attr:`Family._chunk_ids`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .quotient import QuotientMdp

PROB_SUM_TOL = 1e-9
# A solve chunk closes once it holds this many states.  Smaller chunks save
# little dense work but cost one more linear solve call each; a family with
# fewer states is one chunk, solved exactly as one system.  The chunk is
# also the unit a synthesis run reuses: a chunk system met again is not
# solved again (see reach._solve).
SOLVE_CHUNK = 64

Cube = tuple[tuple[int, int], ...]  # (param, value) pins sorted by param, see cube_pins


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
    """Check stored rows, a quotient's actions (keys are targets) or a template's (parameters).

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
        a.setflags(write=False)


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
class Family:
    """A finite family of Markov chains over parameterized transition targets.

    Each state's template is a distribution over *parameters*, stored in
    a quotient's row layout with parameters in place of targets:
    ``tmpl_param[tmpl_ptr[s]:tmpl_ptr[s + 1]]`` and ``tmpl_prob``.
    Assigning each parameter a value from its domain (a strictly increasing
    tuple of state indices) turns a template into an ordinary transition
    row.  The template arrays a caller passes in become read-only.
    """

    state_names: tuple[str, ...]
    initial: int
    param_names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    tmpl_ptr: np.ndarray
    tmpl_param: np.ndarray
    tmpl_prob: np.ndarray

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
        check_rows(self.tmpl_ptr, self.tmpl_param, self.tmpl_prob, m, "uses an undeclared parameter")
        _freeze(self.tmpl_ptr, self.tmpl_param, self.tmpl_prob)

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

    @cached_property
    def _param_masks(self) -> list[int]:
        """Per state, the parameters of its template as a bitmask (bit ``k``: parameter ``k``)."""
        ptr, param = self.tmpl_ptr.tolist(), self.tmpl_param.tolist()
        return [sum(1 << k for k in param[a:b]) for a, b in zip(ptr, ptr[1:])]

    @cached_property
    def _unread(self) -> tuple[int, ...]:
        """The parameters no template reads, in order; their values change no member chain."""
        return tuple(sorted(set(range(self.n_params)).difference(self.tmpl_param.tolist())))

    @cached_property
    def _root(self) -> QuotientMdp:
        """The quotient of the whole family, built on first use; read-only, so runs share it."""
        from .quotient import root_quotient  # quotient imports this module
        return root_quotient(self)


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


def generalization(cube: Cube, scope: Subfamily) -> list[Realization]:
    """All members of ``scope`` that agree with ``cube``'s pins, in lexicographic order.

    The cube is checked as :func:`cube_pins` checks it; one that misses
    ``scope`` raises ``ValueError``.
    """
    pins = cube_pins(cube, scope)
    if pins is None:
        raise ValueError("cube pins a value outside the scope")
    doms = list(scope.domains)
    for k, v in pins:
        doms[k] = (v,)
    return [Realization(values) for values in itertools.product(*doms)]


def member_count(sub: Subfamily) -> int:
    """Number of realizations in the subfamily (exact integer arithmetic)."""
    return sub._size


def cube_pins(entry: Realization | Cube, sub: Subfamily) -> Cube | None:
    """The cube ``entry`` cuts out of ``sub``, as ``(param, value)`` pins sorted by param.

    A realization (a checked member) pins every parameter, a cube its own
    pins.  Pins on single-valued parameters of ``sub`` are dropped, so empty
    pins cover all of ``sub``.  ``None``: the cube misses ``sub``, a pin
    lies outside it.  ``ValueError``: a realization does not assign every
    parameter, or a pin's param is out of range or not above the one
    before (pins after a miss are not read).
    """
    n = len(sub.domains)
    if isinstance(entry, Realization):
        if len(entry.values) != n:
            raise ValueError(f"realization assigns {len(entry.values)} parameters, subfamily has {n}")
        entry = enumerate(entry.values)
    pins = []
    last = -1
    for pin in entry:
        if not last < pin[0] < n:
            raise ValueError(f"cube pin on parameter {pin[0]} is out of range or order")
        last = pin[0]
        dom = sub.domains[last]
        if pin[1] not in dom:
            return None
        if len(dom) > 1:
            pins.append(pin)  # a cube's pins are shared with it, not copied
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
    and every multi-valued parameter is branched on, since later pins may
    force a larger value there; skipping the single-valued ones bounds the
    depth.  Off the cursor path, parameters no cube pins take their least
    value.  ``None`` when every candidate is covered.

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
        # cubes pin only multi-valued parameters, so one lies ahead
        k = j
        while len(doms[k]) == 1:
            k += 1
        head, lo = cursor[j:k], cursor[k]
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
    sub: Subfamily, conflicts: Sequence[Realization | Cube] = ()
) -> Iterator[Realization]:
    """Members of ``sub`` not covered by any entry of ``conflicts``, in lexicographic order.

    Entries are conflict cubes or checked realizations, each read as a
    cube of ``sub`` (see :func:`cube_pins`), and are consulted live: entries
    appended while the generator runs prune the not-yet-yielded remainder.
    Each step searches the cubes for the least uncovered member at or after
    the cursor, so covered members are never visited.  Each step starts with
    no cube sets remembered as covering (see :func:`_least_open`), since it
    may see more cubes than the step before.
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


def count_unpruned(sub: Subfamily, conflicts: Sequence[Realization | Cube] = ()) -> int:
    """Exact number of members iterate_unpruned would yield, without walking them.

    Entries are read as cubes of ``sub``, as there.  Recurses on the lowest
    parameter a live cube pins: one branch per pinned value, keeping the
    cubes compatible with it minus that pin, and one shared branch for the
    unpinned values.  Parameters no live cube pins contribute their domain
    sizes as one factor, and a residual problem met again is answered from
    a memo, so the cost grows with the distinct residual cube sets, not the members.
    """
    cubes = [c for c in (cube_pins(entry, sub) for entry in conflicts) if c is not None]
    return 0 if () in cubes else _count([len(d) for d in sub.domains], cubes, 0, {})
