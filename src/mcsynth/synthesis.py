"""Synthesis: one queue loop with a deductive and an inductive oracle.

Every method decides the same question: does the family contain a member
satisfying the specification (optionally: which member is optimal)?  The
queue starts with the whole family.  Abstraction refinement (AR, ``ar_run``)
analyses one queued subfamily with quotient bounds and prunes, accepts or
splits it; its quotients are masks of the family's root quotient, which a
run builds once (:attr:`HybridState.root`).  CEGIS (``cegis_phase``) checks
the members of queued subfamilies one at a time and prunes the
generalization of a conflict for every violated property.  The methods of :func:`synthesize` are settings of that loop:

============  ====  ======================================================
method        AR    CEGIS
============  ====  ======================================================
``ar``        on    off
``cegis``     off   no budget; root bounds primed when ``bounds="family"``
``onebyone``  off   no budget, no conflicts: every member in order
``hybrid``    on    budget = cost of the last AR step x delta
============  ====  ======================================================

The hybrid's CEGIS budget factor delta starts at 1 and follows the ratio of
the two oracles' pruning efficiencies (:func:`update_delta`).  Cost is
measured in model-check invocations by default, which makes every method
deterministic; the hybrid can budget by wall clock instead.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .counterexamples import construct_conflict, trivial_gamma
from .errors import ResourceCapError
from .model import (
    Family,
    Realization,
    Subfamily,
    count_unpruned,
    cube_pins,
    induce,
    iterate_unpruned,
    member_count,
)
from .quotient import (
    BoundsVec,
    QuotientMdp,
    build_quotient,
    compute_bounds,
    root_quotient,
    split_subfamily,
)
from .reach import (
    CostMeter,
    DECISION_ETA,
    Objective,
    Property,
    Specification,
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

    ``conflicts`` holds conflicts, own or inherited, and in optimal mode the
    checked members that violated nothing, as realizations (no property
    excludes them, so they are no conflicts).  ``remaining`` counts the
    members no entry covers; CEGIS recounts it when its budget stops it
    inside the subfamily.  ``bounds`` maps target sets to the bounds its
    conflicts reroute with: its own (the primed root of ``cegis``) or its
    split parent's, which hold for every member of the half as well.
    """

    sub: Subfamily
    conflicts: list = field(default_factory=list)
    remaining: int = 0
    bounds: dict = field(default_factory=dict)


@dataclass(eq=False)
class HybridState:
    """Mutable state of a synthesis run: queue, budgets, incumbent, stats."""

    family: Family
    spec: Specification
    queue: deque
    meter: CostMeter
    stats: SynthStats
    delta_cegis: float = 1.0
    trivial_bounds: bool = False
    wallclock: bool = False
    incumbent: SynthesisResult | None = None
    working: Property | None = None

    @property
    def optimizing(self) -> bool:
        return self.spec.objective is not None

    def clock(self) -> float:
        """Cost spent so far in the run's units: model checks, or seconds."""
        return time.perf_counter() if self.wallclock else self.meter.total

    @cached_property
    def root(self) -> QuotientMdp:
        """The family's root quotient, built on first use; every bound masks it."""
        return root_quotient(self.family)


def new_state(
    family: Family,
    spec: Specification,
    trivial_bounds: bool = False,
    wallclock: bool = False,
) -> HybridState:
    """Fresh synthesis state whose queue holds the whole family."""
    root = family.full_subfamily()
    item = WorkItem(sub=root, remaining=member_count(root))
    state = HybridState(
        family=family,
        spec=spec,
        queue=deque([item]),
        meter=CostMeter(),
        stats=SynthStats(),
        trivial_bounds=trivial_bounds,
        wallclock=wallclock,
    )
    if spec.objective is not None:
        state.working = _initial_working(spec.objective)
    return state


def _initial_working(obj: Objective) -> Property:
    if obj.direction == "max":
        return Property(op=">=", threshold=0.0, targets=obj.targets)
    return Property(op="<=", threshold=1.0, targets=obj.targets)


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


def _member_values(state: HybridState, r: Realization) -> dict[frozenset[int], float]:
    """Reachability value of member ``r`` at the initial state, per target set."""
    mc = induce(state.family, r)
    out = {}
    for tset in _target_sets(state):
        vals = mc_reach(mc, tset)
        state.meter.count()
        out[tset] = float(vals[state.family.initial])
    return out


def _base_values(state: HybridState, values: dict[frozenset[int], float]) -> tuple[float, ...]:
    return tuple(values[p.targets] for p in state.spec.properties)


def _maybe_improve(state: HybridState, r: Realization, values) -> None:
    """Record ``r`` as the incumbent if it satisfies everything and improves."""
    obj = state.spec.objective
    for p in state.spec.properties:
        if not evaluate_property(values[p.targets], p):
            return
    v = values[obj.targets]
    if state.working is not None and not evaluate_property(v, state.working):
        return
    if state.incumbent is not None:
        best = state.incumbent.optimum
        improved = v > best if obj.direction == "max" else v < best
        if not improved:
            return
    state.incumbent = SynthesisResult(
        verdict="optimal", realization=r, values=_base_values(state, values), optimum=v
    )
    state.working = _tightened_working(obj, v)


def _finish(state: HybridState, result: SynthesisResult) -> SynthesisResult:
    state.stats.model_checks = state.meter.total
    result.stats = state.stats
    return result


def _close(state: HybridState) -> SynthesisResult:
    """Queue exhausted: report the optimal incumbent, or infeasibility without one."""
    return _finish(state, state.incumbent or SynthesisResult(verdict="infeasible"))


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


def _bounds(state: HybridState, sub: Subfamily) -> dict[frozenset[int], BoundsVec]:
    """Quotient bounds of ``sub`` per target set, all on one mask of the root.

    Each target set costs two model checks, a min and a max solve.
    """
    qmdp = build_quotient(state.family, sub, state.root)
    tsets = _target_sets(state)
    state.meter.count(2 * len(tsets))
    return {tset: compute_bounds(qmdp, tset) for tset in tsets}


def _gamma_for(state: HybridState, item: WorkItem, prop: Property):
    """Rerouting vector for conflicts in ``item``: its bounds, or trivial."""
    bounds = None if state.trivial_bounds else item.bounds.get(prop.targets)
    if bounds is None:
        return trivial_gamma(state.family.n_states, prop)
    return bounds.lb if prop.op == "<=" else bounds.ub


def ar_run(state: HybridState) -> tuple[SynthesisResult | None, float]:
    """One abstraction-refinement step: analyse a single queued subfamily.

    Computes bounds for every target set, then prunes the subfamily, accepts
    it (feasibility mode), harvests it (optimal mode, singletons), or splits
    it and queues both halves.  Returns the decided result (or ``None``)
    and the pruning efficiency of the step.
    """
    while state.queue:
        item = state.queue.popleft()
        if item.remaining > 0:
            break
    else:
        return None, 0.0
    cost0 = state.meter.total
    state.stats.ar_iterations += 1

    if state.optimizing and member_count(item.sub) == 1:
        # leaf subfamily: decide the single member directly
        r = next(iterate_unpruned(item.sub, item.conflicts))
        values = _member_values(state, r)
        state.stats.checked += 1
        _maybe_improve(state, r, values)
        return None, 1.0 / max(state.meter.total - cost0, 1)

    props = _props_all(state)
    bounds = _bounds(state, item.sub)
    statuses = [_status(p, bounds[p.targets], state.family.initial) for p in props]
    cost = state.meter.total - cost0

    if any(st == "viol" for st in statuses):
        state.stats.pruned += item.remaining
        return None, item.remaining / max(cost, 1)

    if not state.optimizing and all(st == "sat" for st in statuses):
        r = next(iterate_unpruned(item.sub, item.conflicts))
        values = _member_values(state, r)
        state.stats.checked += 1
        result = SynthesisResult(
            verdict="feasible", realization=r, values=_base_values(state, values)
        )
        return result, 0.0

    open_props = [p for p, st in zip(props, statuses) if st == "open"]
    pick = open_props[0] if open_props else props[-1]
    chosen = bounds[pick.targets]
    left, right = split_subfamily(chosen.quotient, chosen.min_scheduler, chosen.max_scheduler)
    for half in (left, right):
        # each half keeps only the cubes that intersect it
        conflicts = [c for c in item.conflicts if cube_pins(c, half) is not None]
        state.queue.append(WorkItem(half, conflicts, count_unpruned(half, conflicts), bounds))
    return None, 0.0


def cegis_phase(
    state: HybridState,
    budget: float | None = None,
    conflicts: bool = True,
) -> tuple[SynthesisResult | None, float]:
    """Run CEGIS over the queued subfamilies until a verdict or the budget.

    Subfamilies are processed FIFO; every violating candidate contributes one
    conflict per violated property, rerouted with the work item's bounds.  A
    partially processed subfamily stays at the head of the queue with its
    conflict store intact.  ``budget`` is in the run's cost units
    (:meth:`HybridState.clock`) and is checked between candidates, so the
    last candidate may overshoot it; with a zero budget nothing is examined.
    ``conflicts=False`` (enumeration) stores nothing, so it must run without
    a budget.  Returns the result (or ``None``) and the pruning efficiency
    per model check.
    """
    meter = state.meter
    cost0 = meter.total
    start = state.clock()
    eliminated = 0

    def over_budget() -> bool:
        return budget is not None and state.clock() - start >= budget

    while state.queue and not over_budget():
        item = state.queue[0]
        if item.remaining == 0:
            state.queue.popleft()
            continue
        rem_start = item.remaining
        checked_here = 0
        for r in iterate_unpruned(item.sub, item.conflicts):
            if over_budget():
                # stopped inside the subfamily: the store decides what is left
                item.remaining = count_unpruned(item.sub, item.conflicts)
                break
            values = _member_values(state, r)
            checked_here += 1
            state.stats.checked += 1
            state.stats.cegis_iterations += 1
            violated = [
                p for p in _props_all(state)
                if not evaluate_property(values[p.targets], p)
            ]
            if not violated:
                if not state.optimizing:
                    result = SynthesisResult(
                        verdict="feasible",
                        realization=r,
                        values=_base_values(state, values),
                    )
                    return result, 0.0
                _maybe_improve(state, r, values)
                if conflicts:
                    item.conflicts.append(r)
            elif conflicts:
                for p in violated:
                    gamma = _gamma_for(state, item, p)
                    conflict = construct_conflict(
                        state.family, r, p, gamma, item.sub, meter=meter
                    )
                    item.conflicts.append(conflict)
        else:
            # an exhausted iterator leaves no open member
            item.remaining = 0
        state.stats.pruned += rem_start - checked_here - item.remaining
        eliminated += rem_start - item.remaining
        if item.remaining:
            break  # budget spent: the item stays at the head of the queue
        state.queue.popleft()

    return None, eliminated / max(meter.total - cost0, 1)


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
    cost_units: str = "deterministic",
) -> SynthesisResult:
    """Decide ``spec`` on ``family`` with one of the methods in ``METHODS``.

    All methods run the same queue loop (see the module docstring): ``ar``
    runs AR steps only, ``cegis`` one unbudgeted CEGIS phase, ``onebyone``
    one CEGIS phase without conflicts (refused above ``MEMBER_CAP``
    members), and ``hybrid`` alternates one AR step with a
    CEGIS phase whose budget is the step's cost times delta.  ``bounds``
    selects the rerouting vectors of every conflict: ``"family"`` uses the
    quotient bounds of the subfamily or of its split parent, ``"trivial"`` the
    bound-free vectors.  ``cost_units`` measures budgets in model checks
    (``"deterministic"``, reproducible) or seconds (``"wallclock"``).

    In optimal mode every satisfying member tightens a working threshold
    around the objective (relaxed by its epsilon), and an exhausted queue
    returns the incumbent.  Chunk solves are remembered for the run only
    (:func:`~mcsynth.reach.solve_memo`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown synthesis method {method!r}")
    if bounds not in ("family", "trivial"):
        raise ValueError(f"unknown bounds mode {bounds!r}")
    if cost_units not in ("deterministic", "wallclock"):
        raise ValueError(f"unknown cost units {cost_units!r}")
    with solve_memo():
        state = new_state(
            family, spec,
            trivial_bounds=bounds == "trivial", wallclock=cost_units == "wallclock",
        )
        root = state.queue[0]
        if method == "onebyone" and root.remaining > MEMBER_CAP:
            raise ResourceCapError(
                f"family has {root.remaining} members, one-by-one cap is {MEMBER_CAP}"
            )
        if method == "cegis" and bounds == "family":
            root.bounds = _bounds(state, root.sub)

        ar_steps = method in ("ar", "hybrid")
        result = None
        while result is None and state.queue:
            budget = None
            if ar_steps:
                start = state.clock()
                result, sigma_ar = ar_run(state)
                if method == "ar" or result is not None or not state.queue:
                    continue
                budget = (state.clock() - start) * state.delta_cegis
                if not state.wallclock:
                    budget = int(budget)
            result, sigma_cegis = cegis_phase(
                state, budget, conflicts=method != "onebyone"
            )
            if ar_steps:
                state.delta_cegis = update_delta(sigma_cegis, sigma_ar)
        if result is None:
            return _close(state)
        return _finish(state, result)
