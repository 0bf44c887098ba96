"""Synthesis drivers: enumeration, CEGIS, abstraction refinement, hybrid.

All four drivers decide the same question: does the family contain a member
satisfying the specification (optionally: which member is optimal)?  They
differ in how they eliminate candidates.

* ``one_by_one`` checks every member in lexicographic order.
* CEGIS checks members one at a time and prunes the generalization of a
  conflict for every violated property.
* Abstraction refinement (AR) decides or splits whole subfamilies using
  quotient bounds.
* The hybrid loop alternates one AR analysis with a budget-bounded CEGIS
  phase that consumes subfamilies from the AR queue together with their
  cached bounds; the budget adapts to the relative pruning efficiency of the
  two oracles.

Cost is measured in model-check invocations by default, which makes every
driver deterministic; wall-clock budgeting is available for the hybrid loop.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

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
from .quotient import BoundsVec, compute_bounds, split_subfamily
from .reach import (
    CostMeter,
    DECISION_ETA,
    Objective,
    Property,
    Specification,
    evaluate_property,
    mc_reach,
    mc_reach_exact,
)

MEMBER_CAP = 10**7
DELTA_MIN = 1.0 / 64.0
DELTA_MAX = 64.0


@dataclass(frozen=True)
class CheckSettings:
    """Numeric policy shared by a synthesis run."""

    tol: float | None = None
    eta: float = DECISION_ETA
    exact: bool = False


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
    members no entry covers; CEGIS recounts it after extending the store.
    """

    sub: Subfamily
    conflicts: list = field(default_factory=list)
    remaining: int = 0
    inherited: dict = field(default_factory=dict)


@dataclass(eq=False)
class HybridState:
    """Mutable state of a synthesis run: queue, budgets, incumbent, stats."""

    family: Family
    spec: Specification
    settings: CheckSettings
    queue: deque
    meter: CostMeter
    stats: SynthStats
    delta_cegis: float = 1.0
    sigma_ar: float = 0.0
    sigma_cegis: float = 0.0
    trivial_bounds: bool = False
    incumbent: tuple[Realization, float] | None = None
    working: Property | None = None

    @property
    def optimizing(self) -> bool:
        return self.spec.objective is not None


def new_state(
    family: Family,
    spec: Specification,
    settings: CheckSettings | None = None,
    trivial_bounds: bool = False,
) -> HybridState:
    """Fresh synthesis state whose queue holds the whole family."""
    settings = settings or CheckSettings()
    root = family.full_subfamily()
    item = WorkItem(sub=root, remaining=member_count(root))
    state = HybridState(
        family=family,
        spec=spec,
        settings=settings,
        queue=deque([item]),
        meter=CostMeter(),
        stats=SynthStats(),
        trivial_bounds=trivial_bounds,
    )
    if spec.objective is not None:
        state.working = _initial_working(spec.objective)
    return state


def _initial_working(obj: Objective) -> Property:
    if obj.direction == "max":
        return Property(op=">=", threshold=0.0, targets=obj.targets)
    return Property(op="<=", threshold=1.0, targets=obj.targets)


def _tightened_working(obj: Objective, value: float, eta: float) -> Property:
    if obj.direction == "max":
        thr = max(0.0, value * (1.0 - obj.epsilon) - eta)
        return Property(op=">=", threshold=min(1.0, thr), targets=obj.targets)
    thr = min(1.0, value * (1.0 + obj.epsilon) + eta)
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
        if state.settings.exact:
            vals = mc_reach_exact(mc, tset)
        else:
            vals = mc_reach(mc, tset, state.settings.tol)
        state.meter.count()
        out[tset] = float(vals[state.family.initial])
    return out


def _base_values(state: HybridState, values: dict[frozenset[int], float]) -> tuple[float, ...]:
    return tuple(values[p.targets] for p in state.spec.properties)


def _maybe_improve(state: HybridState, r: Realization, values) -> None:
    """Record ``r`` as the incumbent if it satisfies everything and improves."""
    obj = state.spec.objective
    eta = state.settings.eta
    for p in state.spec.properties:
        if not evaluate_property(values[p.targets], p, eta):
            return
    v = values[obj.targets]
    if state.working is not None and not evaluate_property(v, state.working, eta):
        return
    if state.incumbent is not None:
        best = state.incumbent[1]
        improved = v > best if obj.direction == "max" else v < best
        if not improved:
            return
    state.incumbent = (r, v)
    state.working = _tightened_working(obj, v, eta)


def _finish(state: HybridState, result: SynthesisResult) -> SynthesisResult:
    state.stats.model_checks = state.meter.total
    result.stats = state.stats
    return result


def _close(state: HybridState) -> SynthesisResult:
    """Queue exhausted: report infeasibility or the optimal incumbent."""
    if state.optimizing and state.incumbent is not None:
        r, v = state.incumbent
        values = _member_values(state, r)
        return _finish(
            state,
            SynthesisResult(
                verdict="optimal",
                realization=r,
                values=_base_values(state, values),
                optimum=v,
            ),
        )
    return _finish(state, SynthesisResult(verdict="infeasible"))


def _status(prop: Property, bounds: BoundsVec, initial: int, eta: float) -> str:
    """Decide a whole subfamily against ``prop``: sat, viol, or open."""
    lo = float(bounds.lb[initial])
    hi = float(bounds.ub[initial])
    if prop.op == "<=":
        if hi <= prop.threshold + eta:
            return "sat"
        if lo > prop.threshold + eta:
            return "viol"
    else:
        if lo >= prop.threshold - eta:
            return "sat"
        if hi < prop.threshold - eta:
            return "viol"
    return "open"


def _gamma_for(state: HybridState, item: WorkItem, prop: Property):
    """Rerouting vector for conflicts in ``item``: own bounds, inherited, or trivial."""
    if state.trivial_bounds:
        return trivial_gamma(state.family.n_states, prop)
    bounds = item.sub.cached_bounds(prop.targets) or item.inherited.get(prop.targets)
    if bounds is None:
        return trivial_gamma(state.family.n_states, prop)
    return bounds.lb if prop.op == "<=" else bounds.ub


def ar_run(state: HybridState) -> tuple[SynthesisResult | None, float, int]:
    """One abstraction-refinement step: analyse a single queued subfamily.

    Computes bounds for every target set, then prunes the subfamily, accepts
    it (feasibility mode), harvests it (optimal mode, singletons), or splits
    it and queues both halves.  Returns the decided result (or ``None``),
    the pruning efficiency of the step, and its cost in model checks.
    """
    while state.queue:
        item = state.queue.popleft()
        if item.remaining > 0:
            break
    else:
        return None, 0.0, 0
    eta = state.settings.eta
    cost0 = state.meter.total
    state.stats.ar_iterations += 1

    if state.optimizing and member_count(item.sub) == 1:
        # leaf subfamily: decide the single member directly
        r = next(iterate_unpruned(item.sub, item.conflicts))
        values = _member_values(state, r)
        state.stats.checked += 1
        _maybe_improve(state, r, values)
        cost = state.meter.total - cost0
        return None, 1.0 / max(cost, 1), cost

    props = _props_all(state)
    bounds = {
        tset: compute_bounds(state.family, item.sub, tset, state.settings.tol, state.meter)
        for tset in _target_sets(state)
    }
    statuses = [_status(p, bounds[p.targets], state.family.initial, eta) for p in props]
    cost = state.meter.total - cost0

    if any(st == "viol" for st in statuses):
        state.stats.pruned += item.remaining
        return None, item.remaining / max(cost, 1), cost

    if not state.optimizing and all(st == "sat" for st in statuses):
        r = next(iterate_unpruned(item.sub, item.conflicts))
        values = _member_values(state, r)
        state.stats.checked += 1
        result = SynthesisResult(
            verdict="feasible", realization=r, values=_base_values(state, values)
        )
        return result, 0.0, state.meter.total - cost0

    open_props = [p for p, st in zip(props, statuses) if st == "open"]
    pick = open_props[0] if open_props else props[-1]
    chosen = bounds[pick.targets]
    left, right = split_subfamily(
        state.family, item.sub, chosen.min_scheduler, chosen.max_scheduler, chosen.quotient
    )
    inherited = dict(item.inherited)
    inherited.update(item.sub.bounds_snapshot())
    for half in (left, right):
        # each half keeps only the cubes that intersect it
        conflicts = [c for c in item.conflicts if cube_pins(c, half) is not None]
        state.queue.append(WorkItem(half, conflicts, count_unpruned(half, conflicts), dict(inherited)))
    return None, 0.0, cost


def cegis_phase(
    state: HybridState,
    budget_units: int | None = None,
    budget_seconds: float | None = None,
) -> tuple[SynthesisResult | None, float, int]:
    """Run CEGIS over the queued subfamilies until a verdict or the budget.

    Subfamilies are processed FIFO; every violating candidate contributes one
    conflict per violated property, built with the subfamily's cached (or
    inherited) bounds.  A partially processed subfamily stays at the head of
    the queue with its conflict store intact.  The budget is checked between
    candidates, so the last candidate may overshoot it; with a zero budget
    nothing is examined.
    """
    meter = state.meter
    eta = state.settings.eta
    cost0 = meter.total
    t0 = time.perf_counter()
    eliminated = 0

    def over_budget() -> bool:
        if budget_units is not None and meter.total - cost0 >= budget_units:
            return True
        if budget_seconds is not None and time.perf_counter() - t0 >= budget_seconds:
            return True
        return False

    while state.queue:
        if over_budget():
            break
        item = state.queue[0]
        if item.remaining == 0:
            state.queue.popleft()
            continue
        rem_start = item.remaining
        checked_here = 0
        stopped = False
        for r in iterate_unpruned(item.sub, item.conflicts):
            if over_budget():
                stopped = True
                break
            values = _member_values(state, r)
            checked_here += 1
            state.stats.checked += 1
            state.stats.cegis_iterations += 1
            violated = [
                p for p in _props_all(state)
                if not evaluate_property(values[p.targets], p, eta)
            ]
            if not violated:
                if not state.optimizing:
                    result = SynthesisResult(
                        verdict="feasible",
                        realization=r,
                        values=_base_values(state, values),
                    )
                    return result, 0.0, meter.total - cost0
                _maybe_improve(state, r, values)
                item.conflicts.append(r)
                continue
            for p in violated:
                gamma = _gamma_for(state, item, p)
                conflict = construct_conflict(
                    state.family, r, p, gamma, item.sub,
                    eta=eta, tol=state.settings.tol, meter=meter,
                )
                item.conflicts.append(conflict)
        item.remaining = count_unpruned(item.sub, item.conflicts)
        state.stats.pruned += rem_start - checked_here - item.remaining
        eliminated += rem_start - item.remaining
        if stopped:
            break
        state.queue.popleft()

    cost = meter.total - cost0
    sigma = eliminated / max(cost, 1)
    return None, sigma, cost


def update_delta(sigma_cegis: float, sigma_ar: float) -> float:
    """New CEGIS budget factor: efficiency ratio clamped to [1/64, 64]."""
    if sigma_ar <= 0.0:
        return DELTA_MAX
    return min(DELTA_MAX, max(DELTA_MIN, sigma_cegis / sigma_ar))


def one_by_one(
    family: Family,
    spec: Specification,
    settings: CheckSettings | None = None,
    member_cap: int | None = None,
) -> SynthesisResult:
    """Check every member in lexicographic order.

    Feasibility returns the first satisfying member; optimization returns the
    exact argopt over satisfying members (ties keep the lexicographically
    least).
    """
    cap = MEMBER_CAP if member_cap is None else member_cap
    state = new_state(family, spec, settings)
    total = member_count(state.family.full_subfamily())
    if total > cap:
        raise ResourceCapError(f"family has {total} members, one-by-one cap is {cap}")
    eta = state.settings.eta
    obj = spec.objective
    best: tuple[Realization, float] | None = None
    for r in iterate_unpruned(family.full_subfamily()):
        values = _member_values(state, r)
        state.stats.checked += 1
        sat = all(evaluate_property(values[p.targets], p, eta) for p in spec.properties)
        if not sat:
            continue
        if obj is None:
            return _finish(
                state,
                SynthesisResult(
                    verdict="feasible", realization=r, values=_base_values(state, values)
                ),
            )
        v = values[obj.targets]
        if best is None or (v > best[1] if obj.direction == "max" else v < best[1]):
            best = (r, v)
    if best is not None:
        values = _member_values(state, best[0])
        return _finish(
            state,
            SynthesisResult(
                verdict="optimal",
                realization=best[0],
                values=_base_values(state, values),
                optimum=best[1],
            ),
        )
    return _finish(state, SynthesisResult(verdict="infeasible"))


def cegis_run(
    family: Family,
    spec: Specification,
    scope: Subfamily | None = None,
    bounds: str = "family",
    budget: int | None = None,
    settings: CheckSettings | None = None,
) -> tuple[SynthesisResult | None, WorkItem, float]:
    """One CEGIS run over ``scope`` (default: the whole family).

    ``bounds`` selects the rerouting vectors: ``"family"`` computes quotient
    bounds for the scope first, ``"trivial"`` uses the bound-free vectors.
    Returns the verdict (``None`` when the budget ran out first), the
    remaining work item (subfamily plus conflict store), and the pruning
    efficiency.
    """
    if bounds not in ("family", "trivial"):
        raise ValueError(f"unknown bounds mode {bounds!r}")
    state = new_state(family, spec, settings, trivial_bounds=(bounds == "trivial"))
    if scope is not None:
        item = WorkItem(sub=scope, remaining=member_count(scope))
        state.queue = deque([item])
    if bounds == "family":
        root = state.queue[0]
        for tset in _target_sets(state):
            compute_bounds(family, root.sub, tset, state.settings.tol, state.meter)
    result, sigma, _cost = cegis_phase(state, budget_units=budget)
    remaining = state.queue[0] if state.queue else WorkItem(
        sub=(scope or family.full_subfamily()), remaining=0
    )
    if result is not None:
        return _finish(state, result), remaining, sigma
    if not state.queue:
        return _close(state), remaining, sigma
    state.stats.model_checks = state.meter.total
    return None, remaining, sigma


def cegis_synthesize(
    family: Family,
    spec: Specification,
    bounds: str = "family",
    settings: CheckSettings | None = None,
) -> SynthesisResult:
    """CEGIS to exhaustion (no budget)."""
    result, _item, _sigma = cegis_run(family, spec, bounds=bounds, settings=settings)
    assert result is not None
    return result


def ar_synthesize(
    family: Family,
    spec: Specification,
    settings: CheckSettings | None = None,
) -> SynthesisResult:
    """Pure abstraction refinement: analyse subfamilies until the queue empties."""
    state = new_state(family, spec, settings)
    while True:
        result, sigma, _cost = ar_run(state)
        state.sigma_ar = sigma
        if result is not None:
            return _finish(state, result)
        if not state.queue:
            return _close(state)


def hybrid_synthesize(
    family: Family,
    spec: Specification,
    settings: CheckSettings | None = None,
    cost_units: str = "deterministic",
) -> SynthesisResult:
    """Adaptive dual-oracle synthesis.

    Each round runs one AR analysis, then a CEGIS phase whose budget is the
    AR cost scaled by the allocation factor; the factor starts at 1 and is
    updated to the ratio of the phases' pruning efficiencies, clamped to
    [1/64, 64].  With deterministic cost units the whole loop is
    deterministic and the verdict agrees with ``one_by_one``.
    """
    if cost_units not in ("deterministic", "wallclock"):
        raise ValueError(f"unknown cost units {cost_units!r}")
    state = new_state(family, spec, settings)
    while True:
        t0 = time.perf_counter()
        result, sigma_ar, cost_ar = ar_run(state)
        t_ar = time.perf_counter() - t0
        state.sigma_ar = sigma_ar
        if result is not None:
            return _finish(state, result)
        if not state.queue:
            return _close(state)
        if cost_units == "deterministic":
            budget = int(cost_ar * state.delta_cegis)
            result, sigma_cegis, _ = cegis_phase(state, budget_units=budget)
        else:
            result, sigma_cegis, _ = cegis_phase(state, budget_seconds=t_ar * state.delta_cegis)
        state.sigma_cegis = sigma_cegis
        if result is not None:
            return _finish(state, result)
        if not state.queue:
            return _close(state)
        state.delta_cegis = update_delta(sigma_cegis, sigma_ar)


def optimal_synthesize(
    family: Family,
    spec: Specification,
    method: str = "hybrid",
    settings: CheckSettings | None = None,
    bounds: str = "family",
) -> SynthesisResult:
    """Optimal synthesis with any driver.

    Every satisfying solution tightens a working threshold property around
    the objective (relaxed by the objective's epsilon), so the search space
    shrinks as the incumbent improves; exhaustion returns the incumbent.
    """
    if spec.objective is None:
        raise ValueError("specification has no objective")
    return synthesize(family, spec, method=method, settings=settings, bounds=bounds)


def synthesize(
    family: Family,
    spec: Specification,
    method: str = "hybrid",
    settings: CheckSettings | None = None,
    bounds: str = "family",
    cost_units: str = "deterministic",
    member_cap: int | None = None,
) -> SynthesisResult:
    """Dispatch to a synthesis driver by name."""
    if method == "onebyone":
        return one_by_one(family, spec, settings=settings, member_cap=member_cap)
    if method == "cegis":
        return cegis_synthesize(family, spec, bounds=bounds, settings=settings)
    if method == "ar":
        return ar_synthesize(family, spec, settings=settings)
    if method == "hybrid":
        return hybrid_synthesize(family, spec, settings=settings, cost_units=cost_units)
    raise ValueError(f"unknown synthesis method {method!r}")
