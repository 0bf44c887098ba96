"""Core data model: chains, families, realizations, subfamilies, conflicts.

States and parameters are interned to dense integer indices; every type here
is immutable after construction and safe to share between threads.  Human
readable names live only at the I/O boundary (see :mod:`mcsynth.sketch`).
Transition rows of member chains, rerouted chains and quotient MDPs share one
flat layout, normalised by :func:`flat_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

PROB_SUM_TOL = 1e-9


class Distribution:
    """Finite probability distribution over integer keys (a template row).

    Entries with zero probability are dropped so the support is exactly the
    stored keys.  Probabilities must lie in [0, 1] and sum to 1 within
    ``PROB_SUM_TOL``.
    """

    __slots__ = ("keys", "probs")

    def __init__(self, entries: Mapping[int, float] | Iterable[tuple[int, float]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        pairs = []
        total = 0.0
        for key, prob in items:
            if prob < 0.0 or prob > 1.0 + PROB_SUM_TOL:
                raise ValueError(f"probability {prob!r} for key {key} outside [0, 1]")
            total += prob
            if prob > 0.0:
                pairs.append((int(key), float(prob)))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        if not pairs:
            raise ValueError("distribution has empty support")
        pairs.sort()
        seen = {k for k, _ in pairs}
        if len(seen) != len(pairs):
            raise ValueError("duplicate keys in distribution")
        self.keys = tuple(k for k, _ in pairs)
        self.probs = tuple(p for _, p in pairs)

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self.keys, self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.keys == other.keys and self.probs == other.probs

    def __hash__(self) -> int:
        return hash((self.keys, self.probs))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {p:g}" for k, p in self.items())
        return f"Distribution({{{body}}})"


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


@dataclass(frozen=True, eq=False)
class Mc:
    """Markov chain as flat rows: a quotient MDP with one action per state.

    The row of state ``s`` is ``ent_target[row_ptr[s]:row_ptr[s + 1]]`` with
    probabilities ``ent_prob`` at the same positions; targets are strictly
    increasing within a row and probabilities positive, summing to 1 within
    ``PROB_SUM_TOL``.
    """

    initial: int
    row_ptr: np.ndarray
    ent_target: np.ndarray
    ent_prob: np.ndarray

    def __post_init__(self):
        n, ptr, tgt = self.n_states, self.row_ptr, self.ent_target
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        if ptr[0] != 0 or ptr[-1] != tgt.size or self.ent_prob.size != tgt.size:
            raise ValueError("row pointers must run from 0 to the entry count")
        sizes = np.diff(ptr)
        if not (sizes > 0).all():
            raise ValueError(f"row of state {int(np.argmin(sizes))} is empty")
        if tgt.min() < 0 or tgt.max() >= n:
            raise ValueError("a row targets an unknown state")
        rising = np.diff(tgt) > 0
        rising[ptr[1:-1] - 1] = True  # row boundaries
        if not rising.all():
            raise ValueError("targets must be strictly increasing within a row")
        if not (self.ent_prob > 0.0).all():
            raise ValueError("row probabilities must be positive")
        sums = np.add.reduceat(self.ent_prob, ptr[:-1])
        if not (np.abs(sums - 1.0) <= PROB_SUM_TOL).all():
            raise ValueError("row probabilities must sum to 1")

    @property
    def n_states(self) -> int:
        return self.row_ptr.size - 1


@dataclass(frozen=True)
class Family:
    """A finite family of Markov chains over parameterized transition targets.

    Each state's template is a distribution over *parameters*; assigning each
    parameter a value from its domain (a set of state indices) turns the
    template into an ordinary transition row.  Domains are strictly
    increasing tuples of state indices.
    """

    state_names: tuple[str, ...]
    initial: int
    param_names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    templates: tuple[Distribution, ...]

    def __post_init__(self):
        n, m = len(self.state_names), len(self.param_names)
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        if len(self.domains) != m:
            raise ValueError("one domain required per parameter")
        if len(self.templates) != n:
            raise ValueError("one template row required per state")
        for k, dom in enumerate(self.domains):
            if not dom:
                raise ValueError(f"parameter {self.param_names[k]!r} has an empty domain")
            if any(not 0 <= v < n for v in dom):
                raise ValueError(f"domain of {self.param_names[k]!r} references an unknown state")
            if any(a >= b for a, b in zip(dom, dom[1:])):
                raise ValueError(f"domain of {self.param_names[k]!r} must be strictly increasing")
        for s, tmpl in enumerate(self.templates):
            for k in tmpl.keys:
                if not 0 <= k < m:
                    raise ValueError(f"template of state {s} uses an undeclared parameter")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def multi_valued(self) -> tuple[int, ...]:
        """Parameters with more than one admissible value."""
        return tuple(k for k, dom in enumerate(self.domains) if len(dom) > 1)

    def full_subfamily(self) -> "Subfamily":
        return Subfamily(self.domains)

    @cached_property
    def _template_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All template entries as flat ``(state, param, prob)`` arrays."""
        state = [s for s, tmpl in enumerate(self.templates) for _ in tmpl.keys]
        param = [k for tmpl in self.templates for k in tmpl.keys]
        prob = [p for tmpl in self.templates for p in tmpl.probs]
        return np.asarray(state), np.asarray(param), np.asarray(prob, dtype=np.float64)


@dataclass(frozen=True)
class Realization:
    """Total assignment of parameters to state values, by parameter index."""

    values: tuple[int, ...]

    def as_dict(self, family: Family) -> dict[str, str]:
        return {
            family.param_names[k]: family.state_names[v]
            for k, v in enumerate(self.values)
        }


class Subfamily:
    """A hyper-rectangle of realizations: one restricted domain per parameter."""

    __slots__ = ("domains",)

    def __init__(self, domains: Sequence[Sequence[int]]):
        doms = tuple(tuple(d) for d in domains)
        for k, dom in enumerate(doms):
            if not dom:
                raise ValueError(f"restricted domain of parameter {k} is empty")
            if any(a >= b for a, b in zip(dom, dom[1:])):
                raise ValueError(f"restricted domain of parameter {k} must be strictly increasing")
        self.domains = doms

    def multi_valued(self) -> tuple[int, ...]:
        return tuple(k for k, dom in enumerate(self.domains) if len(dom) > 1)

    def restricted(self, param: int, values: Sequence[int]) -> "Subfamily":
        doms = list(self.domains)
        doms[param] = tuple(values)
        return Subfamily(doms)

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
    state, param, prob = family._template_entries
    rows = flat_rows(family.n_states, state, np.asarray(r.values)[param], prob)
    return Mc(family.initial, *rows)


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
    out: list[Realization] = []
    doms = [
        (r.values[k],) if k in pinned else scope.domains[k]
        for k in range(len(scope.domains))
    ]
    _product_into(doms, out)
    return out


def _product_into(doms: Sequence[Sequence[int]], out: list[Realization]) -> None:
    m = len(doms)
    pos = [0] * m
    while True:
        out.append(Realization(tuple(doms[k][pos[k]] for k in range(m))))
        j = m - 1
        while j >= 0:
            pos[j] += 1
            if pos[j] < len(doms[j]):
                break
            pos[j] = 0
            j -= 1
        if j < 0:
            return


def member_count(sub: Subfamily) -> int:
    """Number of realizations in the subfamily (exact integer arithmetic)."""
    return math.prod(len(dom) for dom in sub.domains)


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


def _count(sizes: list[int], cubes: list, start: int) -> int:
    """Members over parameters ``start..`` that no cube covers (cubes non-empty)."""
    if not cubes:
        return math.prod(sizes[start:])
    k = min(c[0][0] for c in cubes)
    rest, pinned = _branch(cubes, k)
    free = sizes[k] - len(pinned)
    # a branch holding an emptied cube is covered whole and counts 0
    total = sum(_count(sizes, rest + reduced, k + 1) for reduced in pinned.values() if all(reduced))
    return math.prod(sizes[start:k]) * (total + (free * _count(sizes, rest, k + 1) if free else 0))


def _least_open(doms, cubes: list, j: int, cursor: list[int] | None) -> list[int] | None:
    """Domain positions, from parameter ``j`` on, of the least member no cube covers.

    With a ``cursor`` (tight mode) the member must not precede ``cursor[j:]``,
    and every parameter is branched on, since later pins may force a larger
    value there.  Off the cursor path, parameters no cube pins take their
    least value.  ``None`` when every candidate is covered.
    """
    if not cubes:
        return cursor[j:] if cursor is not None else [0] * (len(doms) - j)
    if cursor is None:
        k = min(c[0][0] for c in cubes)
        head, lo = [0] * (k - j), 0
    else:
        k, head, lo = j, [], cursor[j]
    rest, pinned = _branch(cubes, k)
    free_failed = False
    for i in range(lo, len(doms[k])):
        reduced = pinned.get(doms[k][i])
        tight = cursor if cursor is not None and i == lo else None
        if reduced is None and free_failed and tight is None:
            continue  # same cubes as a free value already searched in vain
        if reduced is not None and not all(reduced):
            continue
        found = _least_open(doms, rest if reduced is None else rest + reduced, k + 1, tight)
        if found is not None:
            return head + [i] + found
        free_failed = free_failed or (reduced is None and tight is None)
    return None


def iterate_unpruned(
    sub: Subfamily, conflicts: Sequence[Conflict | Realization] = ()
) -> Iterator[Realization]:
    """Members of ``sub`` not covered by any entry of ``conflicts``, in lexicographic order.

    Entries are conflicts or checked realizations, each a cube (see
    :func:`cube_pins`), and are consulted live: entries appended while the
    generator runs prune the not-yet-yielded remainder.  Each step searches
    the cubes for the least uncovered member at or after the cursor, so
    covered members are never visited.
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
        pos = _least_open(doms, cubes, 0, pos)
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
    contribute their domain sizes as one factor, so the cost grows with the
    number of cubes, not with the number of members.
    """
    cubes = [c for c in (cube_pins(entry, sub) for entry in conflicts) if c is not None]
    return 0 if () in cubes else _count([len(d) for d in sub.domains], cubes, 0)
