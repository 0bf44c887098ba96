"""Synthesis: one queue loop with a deductive and an inductive oracle.

Every method decides the same question: does the family contain a member
satisfying the specification (optionally: which member is optimal)?  The
queue starts with the whole family.  Abstraction refinement (AR, ``ar_run``)
analyses one queued subfamily with quotient bounds and prunes, accepts or
splits it; its quotient is a mask of the family's root quotient, which a
run builds once (:attr:`HybridState.root`), and lives for that step only.
CEGIS (``cegis_phase``) checks the members of queued subfamilies one at a
time, each on a chain gathered from the same root, and prunes the
generalization of a conflict for every violated property.  The methods of
:func:`synthesize` are settings of that loop:

============  ====  ======================================================
method        AR    CEGIS
============  ====  ======================================================
``ar``        on    off
``cegis``     off   no budget; root bounds primed when ``bounds="family"``
``onebyone``  off   no budget, no conflicts: every member in order
``hybrid``    on    budget = model checks of the last AR step x delta
============  ====  ======================================================

The hybrid's CEGIS budget factor delta starts at 1 and follows the ratio of
the two oracles' efficiencies, members pruned or checked per model check
(:func:`_efficiency`, :func:`update_delta`).  One ledger, :class:`SynthStats`,
counts them; cost, budgets included, is counted in model checks only, which
makes every method deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

from .counterexamples import construct_conflict, trivial_gamma
from .errors import ResourceCapError
from .model import (
    Family,
    Realization,
    Subfamily,
    count_unpruned,
    cube_pins,
    iterate_unpruned,
    member_count,
)
from .quotient import (
    BoundsVec,
    QuotientMdp,
    build_quotient,
    compute_bounds,
    induce,
    root_quotient,
    split_subfamily,
)
from .reach import (
    DECISION_ETA,
    Objective,
    Property,
    Specification,
    _chain_reach,
    evaluate_property,
    mc_reach,
    solve_memo,
)

METHODS = ("onebyone", "cegis", "ar", "hybrid")
MEMBER_CAP = 10**7
DELTA_MIN = 1.0 / 64.0
DELTA_MAX = 64.0


@dataclass
class SynthStats:
    """The run's ledger: model checks, and members pruned or checked."""

    cegis_iterations: int = 0
    ar_iterations: int = 0
    model_checks: int = 0
    pruned: int = 0
    checked: int = 0


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run.

    ``values`` holds the witness's reachability value per base property (at
    the initial state); ``optimum`` is set for optimal synthesis only.
    """

    verdict: str
    realization: Realization | None = None
    values: tuple[float, ...] | None = None
    optimum: float | None = None
    stats: SynthStats = field(default_factory=SynthStats)


@dataclass(eq=False)
class WorkItem:
    """A subfamily on the synthesis queue along with its cube store.

    ``cubes`` holds the cubes of its conflicts, own or inherited, and in
    optimal mode of the checked members that violated nothing.
    ``remaining`` counts the members no cube covers; CEGIS recounts it when
    its budget stops it inside the subfamily.  ``gamma`` maps each
    property's ``(targets, op)`` to the vector its conflicts reroute with,
    from its own bounds (the primed root of ``cegis``) or its split parent's,
    which hold for every member of the half too; empty means trivial vectors.
    """

    sub: Subfamily
    cubes: list = field(default_factory=list)
    remaining: int = 0
    gamma: dict = field(default_factory=dict)


@dataclass(eq=False)
class HybridState:
    """Mutable state of a synthesis run: queue, incumbent, stats."""

    family: Family
    spec: Specification
    queue: deque
    stats: SynthStats
    reroute: bool = False  # conflicts reroute with bounds: split halves keep gamma
    incumbent: SynthesisResult | None = None
    working: Property | None = None

    @property
    def optimizing(self) -> bool:
        return self.spec.objective is not None

    @cached_property
    def root(self) -> QuotientMdp:
        """The family's root quotient, built on first use; AR masks it, member checks gather it."""
        return root_quotient(self.family)


def new_state(family: Family, spec: Specification, reroute: bool = False) -> HybridState:
    """Fresh synthesis state whose queue holds the whole family."""
    root = family.full_subfamily()
    item = WorkItem(sub=root, remaining=member_count(root))
    state = HybridState(
        family=family,
        spec=spec,
        queue=deque([item]),
        stats=SynthStats(),
        reroute=reroute,
    )
    obj = spec.objective
    if obj is not None:
        # the trivial end: every member meets P>=0 (max) or P<=1 (min)
        state.working = _tightened_working(obj, 0.0 if obj.direction == "max" else 1.0)
    return state


def _tightened_working(obj: Objective, value: float) -> Property:
    if obj.direction == "max":
        thr = max(0.0, value * (1.0 - obj.epsilon) - DECISION_ETA)
        return Property(op=">=", threshold=min(1.0, thr), targets=obj.targets)
    thr = min(1.0, value * (1.0 + obj.epsilon) + DECISION_ETA)
    return Property(op="<=", threshold=max(0.0, thr), targets=obj.targets)


def _props_all(state: HybridState) -> list[Property]:
    props = list(state.spec.properties)
    if state.working is not None:
        props.append(state.working)
    return props


def _target_sets(state: HybridState) -> list[frozenset[int]]:
    tsets: list[frozenset[int]] = []
    for p in _props_all(state):
        if p.targets not in tsets:
            tsets.append(p.targets)
    return tsets


def _check(
    state: HybridState, r: Realization, ar: bool = False
) -> tuple[QuotientMdp, dict, list[Property]]:
    """Check member ``r`` against every property, the working one included.

    Returns its chain (gathered from the run's root), its initial-state value
    per target set and the violated properties.  Each target set is a model
    check; an AR step's (``ar``) goes through the run's solve memo also on a
    one-chunk family, as its policy evaluations do.
    """
    mc = induce(state.family, r, state.root)
    values = {}
    for tset in _target_sets(state):
        value = _chain_reach(mc, tset, remember=True) if ar else mc_reach(mc, tset)
        values[tset] = float(value[state.family.initial])
        state.stats.model_checks += 1
    state.stats.checked += 1
    violated = [p for p in _props_all(state) if not evaluate_property(values[p.targets], p)]
    return mc, values, violated


def _accept(state: HybridState, r: Realization, values: dict) -> SynthesisResult | None:
    """Accept member ``r``, which violates nothing.

    In feasibility mode it is the ``feasible`` result.  In optimal mode it
    becomes the incumbent if it improves on the old one, and the working
    threshold tightens around its value; the run goes on.
    """
    base = tuple(values[p.targets] for p in state.spec.properties)
    obj = state.spec.objective
    if obj is None:
        return SynthesisResult(verdict="feasible", realization=r, values=base)
    v = values[obj.targets]
    best = state.incumbent
    if best is None or (v > best.optimum if obj.direction == "max" else v < best.optimum):
        state.incumbent = SynthesisResult(verdict="optimal", realization=r, values=base, optimum=v)
        state.working = _tightened_working(obj, v)
    return None


def _status(prop: Property, bounds: BoundsVec, initial: int) -> str:
    """Decide a whole subfamily against ``prop``: sat, viol, or open.

    Sat when the bracket's worse end satisfies ``prop``, viol when its
    better end does not, in that order, so a bracket with ``lb > ub`` by
    rounding is decided like any other.
    """
    lo = float(bounds.lb[initial])
    hi = float(bounds.ub[initial])
    worse, better = (hi, lo) if prop.is_safety else (lo, hi)
    if evaluate_property(worse, prop):
        return "sat"
    if not evaluate_property(better, prop):
        return "viol"
    return "open"


def _bounds(state: HybridState, qmdp: QuotientMdp) -> dict[frozenset[int], BoundsVec]:
    """Bounds of ``qmdp.sub`` per target set, all solved on ``qmdp``.

    Each target set costs two model checks, a min and a max solve.
    """
    tsets = _target_sets(state)
    state.stats.model_checks += 2 * len(tsets)
    return {tset: compute_bounds(qmdp, tset) for tset in tsets}


def _gammas(state: HybridState, bounds: dict[frozenset[int], BoundsVec]) -> dict:
    """Rerouting vector per property's ``(targets, op)``: ``lb`` for ``<=``, ``ub`` for ``>=``."""
    return {
        (p.targets, p.op): bounds[p.targets].lb if p.op == "<=" else bounds[p.targets].ub
        for p in _props_all(state)
    }


def _gamma_for(state: HybridState, item: WorkItem, prop: Property):
    """Rerouting vector for conflicts in ``item`` against ``prop``: its gamma, else trivial."""
    gamma = item.gamma.get((prop.targets, prop.op))
    return trivial_gamma(state.family.n_states, prop) if gamma is None else gamma


def ar_run(state: HybridState) -> SynthesisResult | None:
    """One abstraction-refinement step: analyse a single queued subfamily.

    Computes bounds for every target set, then prunes the subfamily, accepts
    it (feasibility mode), harvests it (optimal mode, singletons), or splits
    it and queues each half that keeps an open member.  Returns the decided
    result, or ``None``.
    """
    if not state.queue:
        return None
    item = state.queue.popleft()
    state.stats.ar_iterations += 1

    if state.optimizing and member_count(item.sub) == 1:
        # leaf subfamily: decide the single member directly
        r = next(iterate_unpruned(item.sub, item.cubes))
        _mc, values, violated = _check(state, r, ar=True)
        if not violated:
            _accept(state, r, values)
        return None

    props = _props_all(state)
    # the step's mask of the root and its bounds die with the step
    qmdp = build_quotient(state.family, item.sub, state.root)
    bounds = _bounds(state, qmdp)
    statuses = [_status(p, bounds[p.targets], state.family.initial) for p in props]

    if any(st == "viol" for st in statuses):
        state.stats.pruned += item.remaining
        return None

    if not state.optimizing and all(st == "sat" for st in statuses):
        # the bounds decide; the check only reports the witness's values
        r = next(iterate_unpruned(item.sub, item.cubes))
        _mc, values, _violated = _check(state, r, ar=True)
        return _accept(state, r, values)

    open_props = [p for p, st in zip(props, statuses) if st == "open"]
    pick = open_props[0] if open_props else props[-1]
    chosen = bounds[pick.targets]
    left, right = split_subfamily(qmdp, chosen.min_scheduler, chosen.max_scheduler)
    gamma = _gammas(state, bounds) if state.reroute else {}
    for half in (left, right):
        # each half keeps only the cubes that intersect it, as cubes of the half
        cubes = [c for c in (cube_pins(c, half) for c in item.cubes) if c is not None]
        remaining = count_unpruned(half, cubes)
        if remaining:
            state.queue.append(WorkItem(half, cubes, remaining, gamma))
    return None


def cegis_phase(
    state: HybridState,
    budget: int | None = None,
    conflicts: bool = True,
) -> SynthesisResult | None:
    """Run CEGIS over the queued subfamilies until a verdict or the budget.

    Subfamilies are processed FIFO; every violating candidate contributes one
    conflict cube per violated property, rerouted with the work item's gamma,
    and the item stores it as built.  A partially processed subfamily stays at
    the head of the queue with its cube store intact.  ``budget`` counts model
    checks and is checked between candidates, so the last candidate may
    overshoot it; with a zero budget nothing is examined.
    ``conflicts=False`` (enumeration) stores nothing, so it must run without
    a budget.  Returns the decided result, or ``None``.
    """
    stats = state.stats
    cost0 = stats.model_checks

    def over_budget() -> bool:
        return budget is not None and stats.model_checks - cost0 >= budget

    while state.queue and not over_budget():
        item = state.queue[0]
        rem_start = item.remaining
        checked_here = 0
        for r in iterate_unpruned(item.sub, item.cubes):
            if over_budget():
                # stopped inside the subfamily: the store decides what is left
                item.remaining = count_unpruned(item.sub, item.cubes)
                break
            mc, values, violated = _check(state, r)
            checked_here += 1
            stats.cegis_iterations += 1
            if not violated:
                result = _accept(state, r, values)
                if result is not None:
                    return result
                if conflicts:
                    item.cubes.append(cube_pins(r, item.sub))
            elif conflicts:
                for p in violated:
                    gamma = _gamma_for(state, item, p)
                    item.cubes.append(construct_conflict(mc, p, gamma, item.sub, stats=stats))
        else:
            # an exhausted iterator leaves no open member
            item.remaining = 0
        stats.pruned += rem_start - checked_here - item.remaining
        if item.remaining:
            break  # budget spent: the item stays at the head of the queue
        state.queue.popleft()
    return None


def _efficiency(stats: SynthStats, mark: SynthStats) -> float:
    """Members pruned or checked per model check since ``mark``.

    ``mark`` is a copy of the ledger taken before an AR step or a CEGIS
    phase; both oracles are rated by this one formula.
    """
    done = stats.pruned + stats.checked - mark.pruned - mark.checked
    return done / max(stats.model_checks - mark.model_checks, 1)


def update_delta(sigma_cegis: float, sigma_ar: float) -> float:
    """New CEGIS budget factor: efficiency ratio clamped to [1/64, 64]."""
    if sigma_ar <= 0.0:
        return DELTA_MAX
    return min(DELTA_MAX, max(DELTA_MIN, sigma_cegis / sigma_ar))


def synthesize(
    family: Family,
    spec: Specification,
    method: str = "hybrid",
    bounds: str = "family",
) -> SynthesisResult:
    """Decide ``spec`` on ``family`` with one of the methods in ``METHODS``.

    All methods run the same queue loop (see the module docstring): ``ar``
    runs AR steps only, ``cegis`` one unbudgeted CEGIS phase, ``onebyone``
    one CEGIS phase without conflicts (refused above ``MEMBER_CAP``
    members), and ``hybrid`` alternates one AR step with a
    CEGIS phase whose budget is the step's model checks times delta, so
    every run is reproducible.  ``bounds`` selects the rerouting vectors of
    every conflict: ``"family"`` uses the quotient bounds of the subfamily or
    of its split parent, ``"trivial"`` the bound-free vectors.

    In optimal mode every satisfying member tightens a working threshold
    around the objective (relaxed by its epsilon), and an exhausted queue
    returns the incumbent.  Chunk solves are remembered for the run only
    (:func:`~mcsynth.reach.solve_memo`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown synthesis method {method!r}")
    if bounds not in ("family", "trivial"):
        raise ValueError(f"unknown bounds mode {bounds!r}")
    with solve_memo():
        reroute = bounds == "family" and method in ("cegis", "hybrid")
        state = new_state(family, spec, reroute=reroute)
        root = state.queue[0]
        if method == "onebyone" and root.remaining > MEMBER_CAP:
            raise ResourceCapError(
                f"family has {root.remaining} members, one-by-one cap is {MEMBER_CAP}"
            )
        if method == "cegis" and reroute:
            root.gamma = _gammas(state, _bounds(state, state.root))

        stats = state.stats
        ar_steps = method in ("ar", "hybrid")
        delta = 1.0
        result = None
        try:
            while result is None and state.queue:
                budget = None
                if ar_steps:
                    mark = replace(stats)
                    result = ar_run(state)
                    if method == "ar" or result is not None or not state.queue:
                        continue
                    sigma_ar = _efficiency(stats, mark)
                    budget = int((stats.model_checks - mark.model_checks) * delta)
                mark = replace(stats)
                result = cegis_phase(state, budget, conflicts=method != "onebyone")
                if ar_steps:
                    delta = update_delta(_efficiency(stats, mark), sigma_ar)
        except RecursionError as exc:  # cube searches recurse once per pinned parameter
            raise ResourceCapError("member accounting exceeded Python's recursion limit") from exc
    result = result or state.incumbent or SynthesisResult(verdict="infeasible")
    result.stats = stats
    return result
