"""Rerouting, greedy conflict construction, and the exhaustive oracle."""

import random

import numpy as np
import pytest

from mcsynth import (
    CostMeter,
    Property,
    Realization,
    choose_to_expand,
    compute_bounds,
    construct_conflict,
    generalization,
    induce,
    mc_reach,
    mc_reach_exact,
    member_count,
    minimal_conflict_oracle,
    reachable_via_holes,
    reroute,
    trivial_gamma,
    evaluate_property,
)

from conftest import TOY_R, TOY_TARGET, chain_row, corpus_family, enumerate_values, goal_index

SAFETY = Property(op="<=", threshold=0.3, targets=TOY_TARGET)


@pytest.fixture()
def toy_lb(toy4):
    return compute_bounds(toy4, toy4.full_subfamily(), TOY_TARGET).lb


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
            value = mc_reach_exact(induce(toy4, m), TOY_TARGET)[0]
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
            bounds = compute_bounds(fam, scope, targets)
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
        bounds = compute_bounds(fam, scope, targets)
        r = Realization(violators[0])
        conflict = construct_conflict(fam, r, prop, bounds.ub, scope)
        for m in generalization(r, conflict.params, scope):
            assert not evaluate_property(values[m.values], prop)


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
