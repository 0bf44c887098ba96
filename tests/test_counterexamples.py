"""Rerouting, greedy conflict construction, and the exhaustive oracle.

``reroute``, ``reachable_via_holes``, ``choose_to_expand``, ``greedy_steps``
and ``reference_conflict`` are the reference rerouting from ``conftest``.
With sound bound vectors ``construct_conflict`` must reproduce its conflicts
and errors, within the bisection's budget of model checks.
"""

import math
import random

import numpy as np
import pytest

from mcsynth import (
    CostMeter,
    InvalidBoundsError,
    Property,
    Realization,
    build_quotient,
    compute_bounds,
    construct_conflict,
    generalization,
    induce,
    mc_reach,
    member_count,
    minimal_conflict_oracle,
    parse_sketch,
    trivial_gamma,
    evaluate_property,
)

from conftest import (
    TOY_R,
    TOY_TARGET,
    chain_row,
    choose_to_expand,
    corpus_family,
    enumerate_values,
    goal_index,
    greedy_steps,
    lane_family,
    reachable_via_holes,
    reference_conflict,
    reference_reach,
    reroute,
    rerouted_value,
)

SAFETY = Property(op="<=", threshold=0.3, targets=TOY_TARGET)


@pytest.fixture()
def toy_lb(toy4):
    return compute_bounds(build_quotient(toy4, toy4.full_subfamily()), TOY_TARGET).lb


class TestReroute:
    def test_nothing_expanded_value_is_gamma_at_initial(self, toy4, toy_lb):
        mc = induce(toy4, TOY_R[0])
        rerouted = reroute(mc, set(), toy_lb)
        value = mc_reach(rerouted, TOY_TARGET | {mc.n_states})[0]
        assert value == pytest.approx(0.2, abs=1e-7)

    def test_initial_expanded_value_is_gamma_of_successor(self, toy4, toy_lb):
        mc = induce(toy4, TOY_R[0])
        rerouted = reroute(mc, {0}, toy_lb)
        value = mc_reach(rerouted, TOY_TARGET | {mc.n_states})[0]
        assert value == pytest.approx(0.6, abs=1e-7)

    def test_everything_expanded_reproduces_base_value(self, toy4, toy_lb):
        mc = induce(toy4, TOY_R[0])
        rerouted = reroute(mc, set(range(mc.n_states)), toy_lb)
        value = mc_reach(rerouted, TOY_TARGET | {mc.n_states})[0]
        assert value == pytest.approx(0.8, abs=1e-7)

    def test_sinks_are_absorbing(self, toy4, toy_lb):
        mc = induce(toy4, TOY_R[0])
        rerouted = reroute(mc, {0}, toy_lb)
        n = mc.n_states
        assert chain_row(rerouted, n) == {n: 1.0}
        assert chain_row(rerouted, n + 1) == {n + 1: 1.0}

    def test_gamma_out_of_range_rejected(self, toy4):
        mc = induce(toy4, TOY_R[0])
        with pytest.raises(ValueError, match="gamma"):
            reroute(mc, set(), np.full(mc.n_states, 1.5))


class TestReachableViaHoles:
    def test_no_relevant_params_gives_empty_expansion(self, toy4):
        mc = induce(toy4, TOY_R[0])
        expanded, horizon = reachable_via_holes(mc, toy4, set())
        assert expanded == set()
        assert horizon == {0}

    def test_x_relevant_expands_initial(self, toy4):
        mc = induce(toy4, TOY_R[0])
        expanded, horizon = reachable_via_holes(mc, toy4, {0})
        assert expanded == {0}
        assert horizon == {1}  # s2 is unreachable under r0

    def test_all_params_expand_everything_reachable(self, toy4):
        mc = induce(toy4, TOY_R[0])
        expanded, horizon = reachable_via_holes(mc, toy4, {0, 1})
        assert expanded == {0, 1, 3, 4}
        assert horizon == set()


class TestChooseToExpand:
    def test_singleton_horizon(self, toy4):
        assert choose_to_expand({0}, set(), toy4) == 0

    def test_fewest_irrelevant_params_wins(self, toy4):
        # s0 carries one irrelevant parameter (X), s1 carries one (Y) too,
        # so the tie-break picks the smaller index.
        assert choose_to_expand({0, 1}, set(), toy4) == 0

    def test_relevance_reduces_count(self, toy4):
        # with Y relevant s1 carries no irrelevant parameter
        assert choose_to_expand({0, 1}, {1}, toy4) == 1


class TestConstructConflict:
    def test_toy_bounds_give_small_conflict(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        meter = CostMeter()
        conflict = construct_conflict(
            toy4, TOY_R[0], SAFETY, toy_lb, scope, meter=meter
        )
        assert conflict.params == frozenset({0})
        assert meter.total <= 3

    def test_toy_trivial_gamma_gives_full_conflict(self, toy4):
        scope = toy4.full_subfamily()
        gamma = trivial_gamma(toy4.n_states, SAFETY)
        conflict = construct_conflict(toy4, TOY_R[0], SAFETY, gamma, scope)
        assert conflict.params == frozenset({0, 1})

    def test_bound_conflict_never_larger_than_trivial_on_toy(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        with_bounds = construct_conflict(toy4, TOY_R[0], SAFETY, toy_lb, scope)
        with_trivial = construct_conflict(
            toy4, TOY_R[0], SAFETY, trivial_gamma(toy4.n_states, SAFETY), scope
        )
        assert len(with_bounds.params) <= len(with_trivial.params)

    def test_generalization_of_conflict_all_violate(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        conflict = construct_conflict(toy4, TOY_R[0], SAFETY, toy_lb, scope)
        members = generalization(conflict.reference, conflict.params, scope)
        assert [m.values for m in members] == [TOY_R[0].values, TOY_R[1].values]
        for m in members:
            value = reference_reach(induce(toy4, m), TOY_TARGET)[0]
            assert not evaluate_property(value, SAFETY)

    def test_satisfying_member_rejected(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        with pytest.raises(ValueError, match="satisfies"):
            construct_conflict(toy4, TOY_R[3], SAFETY, toy_lb, scope)

    def test_model_check_budget_on_random_violators(self):
        rng = random.Random(31)
        checked = 0
        for i in range(12):
            fam = corpus_family(i)
            targets = frozenset({goal_index(fam)})
            values = enumerate_values(fam, targets)
            vals = sorted(values.values())
            if vals[-1] - vals[0] < 1e-6:
                continue
            thr = (vals[0] + vals[-1]) / 2
            prop = Property(op="<=", threshold=thr, targets=targets)
            violators = [v for v, val in values.items() if not evaluate_property(val, prop)]
            if not violators:
                continue
            scope = fam.full_subfamily()
            bounds = compute_bounds(build_quotient(fam, scope), targets)
            r = Realization(rng.choice(violators))
            meter = CostMeter()
            conflict = construct_conflict(fam, r, prop, bounds.lb, scope, meter=meter)
            assert meter.total <= len(scope.multi_valued()) + 1
            for m in generalization(r, conflict.params, scope):
                assert not evaluate_property(values[m.values], prop)
            checked += 1
        assert checked >= 8

    def test_liveness_conflicts_use_upper_bounds(self):
        fam = corpus_family(5)
        targets = frozenset({goal_index(fam)})
        values = enumerate_values(fam, targets)
        vals = sorted(values.values())
        thr = (vals[0] + vals[-1]) / 2
        prop = Property(op=">=", threshold=thr, targets=targets)
        violators = [v for v, val in values.items() if not evaluate_property(val, prop)]
        assert violators
        scope = fam.full_subfamily()
        bounds = compute_bounds(build_quotient(fam, scope), targets)
        r = Realization(violators[0])
        conflict = construct_conflict(fam, r, prop, bounds.ub, scope)
        for m in generalization(r, conflict.params, scope):
            assert not evaluate_property(values[m.values], prop)


class TestGammaValidation:
    @pytest.mark.parametrize(
        "gamma, match",
        [
            ([0.5, float("nan"), 0.5, 1.0, 0.0], r"gamma\[1\] = nan"),
            ([0.5, 0.5, 1.5, 1.0, 0.0], r"gamma\[2\] = 1.5"),
            ([0.5] * 6, r"gamma has shape \(6,\)"),
            ([0.5] * 4, r"gamma has shape \(4,\)"),
        ],
        ids=["nan", "above-one", "too-long", "too-short"],
    )
    def test_bad_gamma_rejected_up_front(self, toy4, gamma, match):
        meter = CostMeter()
        with pytest.raises(ValueError, match=match):
            construct_conflict(toy4, TOY_R[0], SAFETY, gamma, toy4.full_subfamily(), meter=meter)
        assert meter.total == 0


def _outcome(build, family, r, prop, gamma, scope):
    """Conflict parameters and model checks, or the error raised and its checks."""
    meter = CostMeter()
    try:
        conflict = build(family, r, prop, gamma, scope, meter=meter)
    except (ValueError, InvalidBoundsError) as err:
        return type(err).__name__, str(err), meter.total
    return conflict.params, conflict.reference, meter.total


def bisection_budget(family, r, scope) -> int:
    """At most ceil(log2(K + 1)) + 1 checks over the steps 0..K of the greedy order."""
    k = len(greedy_steps(family, r, scope)) - 1
    return math.ceil(math.log2(k + 1)) + 1


def corpus_cases(seed: int):
    """(family, member, property, sound gammas, random gamma) over the corpus.

    Each family gets a threshold between its two middle member values, both
    comparisons, and one satisfying and one violating member per comparison.
    """
    rng = random.Random(seed)
    for i in range(0, 48, 2):
        fam = corpus_family(i)
        targets = frozenset({goal_index(fam)})
        values = enumerate_values(fam, targets)
        distinct = sorted(set(round(v, 12) for v in values.values()))
        if len(distinct) < 2:
            continue
        mid = len(distinct) // 2
        thr = (distinct[mid - 1] + distinct[mid]) / 2
        bounds = compute_bounds(build_quotient(fam, fam.full_subfamily()), targets)
        for op in ("<=", ">="):
            prop = Property(op=op, threshold=thr, targets=targets)
            sound = [bounds.lb if prop.is_safety else bounds.ub, trivial_gamma(fam.n_states, prop)]
            noise = np.array([rng.random() for _ in range(fam.n_states)])
            by_verdict = {True: [], False: []}
            for v, val in values.items():
                by_verdict[evaluate_property(val, prop)].append(Realization(v))
            for rs in by_verdict.values():
                if rs:
                    yield fam, rng.choice(rs), prop, sound, noise


class TestAgainstReferenceRerouting:
    def test_corpus_conflicts_match_reference(self):
        kinds = {"conflict": 0, "error": 0}
        for fam, r, prop, sound, noise in corpus_cases(61):
            scope = fam.full_subfamily()
            for gamma in sound:
                want = _outcome(reference_conflict, fam, r, prop, gamma, scope)
                got = _outcome(construct_conflict, fam, r, prop, gamma, scope)
                assert got[:2] == want[:2], (fam.n_states, prop.op, r)
                kinds["conflict" if isinstance(want[0], frozenset) else "error"] += 1
            # A random gamma bounds nothing: the conflict found need not be
            # the scan's first violating step, but its own step violates.
            got = _outcome(construct_conflict, fam, r, prop, noise, scope)
            kinds["conflict" if isinstance(got[0], frozenset) else "error"] += 1
            if isinstance(got[0], frozenset):
                value = rerouted_value(fam, r, prop, noise, scope, got[0])
                assert not evaluate_property(value, prop), (fam.n_states, prop.op, r)
            else:
                assert got[0] == "ValueError"
                assert got[1] == "member satisfies the property, no conflict exists"
                last = greedy_steps(fam, r, scope)[-1]
                assert evaluate_property(rerouted_value(fam, r, prop, noise, scope, last), prop)
        assert kinds["conflict"] >= 150 and kinds["error"] >= 50, kinds

    def test_model_checks_within_bisection_budget(self):
        cases = 0
        for fam, r, prop, sound, noise in corpus_cases(62):
            scope = fam.full_subfamily()
            budget = bisection_budget(fam, r, scope)
            for gamma in sound + [noise]:
                assert _outcome(construct_conflict, fam, r, prop, gamma, scope)[2] <= budget
                cases += 1
        assert cases >= 200

    def test_model_checks_logarithmic_on_long_orders(self):
        # Ten lanes give ten greedy steps after step 0, so a linear scan from
        # either end of the order exceeds the budget of 5 in one of the cases:
        # gamma 1 violates from step 0 on, the trivial gamma only late.
        fam = lane_family(60, 10, 0.7, 5)
        goal = frozenset({goal_index(fam)})
        scope = fam.full_subfamily()
        rng = random.Random(3)
        firsts = set()
        for _ in range(4):
            r = Realization(tuple(rng.choice(dom) for dom in fam.domains))
            value = mc_reach(induce(fam, r), goal)[fam.initial]
            prop = Property(op="<=", threshold=max(0.0, value - 0.05), targets=goal)
            steps = greedy_steps(fam, r, scope)
            assert len(steps) - 1 == 10
            for gamma in (np.ones(fam.n_states), trivial_gamma(fam.n_states, prop)):
                meter = CostMeter()
                conflict = construct_conflict(fam, r, prop, gamma, scope, meter=meter)
                assert meter.total <= 5
                first = next(
                    i for i, rel in enumerate(steps)
                    if not evaluate_property(rerouted_value(fam, r, prop, gamma, scope, rel), prop)
                )
                assert conflict.params == steps[first]
                firsts.add(first)
        assert min(firsts) == 0 and max(firsts) >= 6

    def test_non_monotone_gamma_still_returns_a_violating_step(self, toy4):
        # Under r0 the steps check gamma[s0], then gamma[s1], then the member
        # itself (0.8).  This gamma violates, satisfies, violates: the linear
        # scan stops at step 0, the bisection skips it and lands on step 2.
        scope = toy4.full_subfamily()
        gamma = np.array([0.9, 0.1, 0.0, 1.0, 0.0])
        assert [
            rerouted_value(toy4, TOY_R[0], SAFETY, gamma, scope, rel) > SAFETY.threshold
            for rel in greedy_steps(toy4, TOY_R[0], scope)
        ] == [True, False, True]
        meter = CostMeter()
        conflict = construct_conflict(toy4, TOY_R[0], SAFETY, gamma, scope, meter=meter)
        assert conflict.params == frozenset({0, 1})
        assert meter.total == 2
        value = rerouted_value(toy4, TOY_R[0], SAFETY, gamma, scope, conflict.params)
        assert not evaluate_property(value, SAFETY)
        assert reference_conflict(toy4, TOY_R[0], SAFETY, gamma, scope).params == frozenset()


# A target carrying a multi-valued parameter: Z only decides where t goes
# next, which cannot change reachability of t.
TARGET_HOLE_TEXT = """
{
  "format": "mc-family/1",
  "states": ["s0", "t", "f"],
  "initial": "s0",
  "parameters": {"X": ["t", "f"], "Z": ["t", "f"], "F'": ["f"]},
  "transitions": {
    "s0": {"X": 1.0},
    "t": {"Z": 1.0},
    "f": {"F'": 1.0}
  }
}
"""

# s1 and s2 form a cycle with no exit, expandable from the start; X and Y
# decide whether s0's other half reaches t.
CLOSED_CYCLE_TEXT = """
{
  "format": "mc-family/1",
  "states": ["s0", "s1", "s2", "s3", "t", "f"],
  "initial": "s0",
  "parameters": {
    "X": ["s3", "f"], "Y": ["t", "f"],
    "A'": ["s1"], "B'": ["s2"], "C'": ["s1"], "T'": ["t"], "F'": ["f"]
  },
  "transitions": {
    "s0": {"A'": 0.5, "X": 0.5},
    "s1": {"B'": 1.0},
    "s2": {"C'": 1.0},
    "s3": {"Y": 1.0},
    "t": {"T'": 1.0},
    "f": {"F'": 1.0}
  }
}
"""


class TestPinnedStateEdgeCases:
    def _both(self, text, values, threshold):
        fam = parse_sketch(text)
        t = fam.state_names.index("t")
        prop = Property(op="<=", threshold=threshold, targets=frozenset({t}))
        r = Realization(tuple(fam.state_names.index(v) for v in values))
        gamma = trivial_gamma(fam.n_states, prop)
        scope = fam.full_subfamily()
        want = _outcome(reference_conflict, fam, r, prop, gamma, scope)
        got = _outcome(construct_conflict, fam, r, prop, gamma, scope)
        return fam, got, want

    def test_target_on_horizon_counts_as_reached(self):
        # After X is expanded, t sits on the horizon with gamma 0; as a target
        # it is worth 1, so step 1, the bisection's first check, violates.
        # Step 0 (gamma 0 at s0) is the second check.
        fam, got, want = self._both(TARGET_HOLE_TEXT, ("t", "t", "f"), 0.5)
        assert got[:2] == want[:2]
        assert got[0] == frozenset({fam.param_names.index("X")})
        assert (got[2], want[2]) == (2, 2)

    def test_expanded_cycle_without_exit_is_zero(self):
        # With X relevant the closed cycle s1-s2 is expanded; only s3 (gamma
        # 0) lies beyond, so step 1 finds the cycle and s0 at 0 with no solve.
        # The bisection checks step 1, then confirms step 2; the scan checks
        # all three.
        fam, got, want = self._both(
            CLOSED_CYCLE_TEXT, ("s3", "t", "s1", "s2", "s1", "t", "f"), 0.4
        )
        assert got[:2] == want[:2]
        assert got[0] == frozenset({fam.param_names.index("X"), fam.param_names.index("Y")})
        assert (got[2], want[2]) == (2, 3)


class TestMinimalConflictOracle:
    def test_toy_minimum_is_x(self, toy4):
        scope = toy4.full_subfamily()
        conflict = minimal_conflict_oracle(toy4, TOY_R[0], SAFETY, scope)
        assert conflict.params == frozenset({0})

    def test_all_violating_family_gives_empty_conflict(self, toy4):
        scope = toy4.full_subfamily()
        # every member reaches t with probability >= 0.2
        impossible = Property(op="<=", threshold=0.1, targets=TOY_TARGET)
        conflict = minimal_conflict_oracle(toy4, TOY_R[0], impossible, scope)
        assert conflict.params == frozenset()

    def test_single_member_scope(self, toy4):
        scope = toy4.full_subfamily().restricted(0, (1,)).restricted(1, (3,))
        assert member_count(scope) == 1
        conflict = minimal_conflict_oracle(toy4, TOY_R[0], SAFETY, scope)
        assert conflict.params == frozenset()

    def test_greedy_never_smaller_than_minimal(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        greedy = construct_conflict(toy4, TOY_R[0], SAFETY, toy_lb, scope)
        minimal = minimal_conflict_oracle(toy4, TOY_R[0], SAFETY, scope)
        assert len(greedy.params) >= len(minimal.params)

    def test_satisfying_member_rejected(self, toy4):
        with pytest.raises(ValueError, match="satisfies"):
            minimal_conflict_oracle(toy4, TOY_R[3], SAFETY, toy4.full_subfamily())

    def test_member_cap_enforced(self):
        from mcsynth import generate_benchmark
        from mcsynth.errors import ResourceCapError

        fam = generate_benchmark(16, 13, 2, 2)  # 2**13 members exceed the cap
        scope = fam.full_subfamily()
        r = Realization(tuple(dom[0] for dom in fam.domains))
        goal = frozenset({fam.state_names.index("goal")})
        prop = Property(op="<=", threshold=0.0, targets=goal)
        with pytest.raises(ResourceCapError, match="members"):
            minimal_conflict_oracle(fam, r, prop, scope)
