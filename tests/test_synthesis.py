"""Drivers: enumeration, CEGIS, abstraction refinement, hybrid, optimal."""

import itertools

import pytest

import mcsynth.synthesis
from mcsynth import (
    Conflict,
    Objective,
    Property,
    Realization,
    Specification,
    ar_run,
    ar_synthesize,
    cegis_phase,
    cegis_run,
    cegis_synthesize,
    evaluate_property,
    generalization,
    hybrid_synthesize,
    induce,
    mc_reach_exact,
    member_count,
    new_state,
    one_by_one,
    optimal_synthesize,
    synthesize,
    update_delta,
)

from conftest import TOY_R, TOY_TARGET, make_instance

SAFE_03 = Specification(properties=(Property(op="<=", threshold=0.3, targets=TOY_TARGET),))
SAFE_01 = Specification(properties=(Property(op="<=", threshold=0.1, targets=TOY_TARGET),))
SAFE_09 = Specification(properties=(Property(op="<=", threshold=0.9, targets=TOY_TARGET),))
MIN_T = Specification(properties=(), objective=Objective(direction="min", targets=TOY_TARGET))
MAX_T = Specification(properties=(), objective=Objective(direction="max", targets=TOY_TARGET))


class TestOneByOne:
    def test_toy_feasible_is_r3(self, toy4):
        result = one_by_one(toy4, SAFE_03)
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]
        assert result.values[0] == pytest.approx(0.2, abs=1e-6)

    def test_toy_tight_threshold_infeasible(self, toy4):
        result = one_by_one(toy4, SAFE_01)
        assert result.verdict == "infeasible"
        assert result.stats.checked == 4

    def test_toy_minimize(self, toy4):
        result = one_by_one(toy4, MIN_T)
        assert result.verdict == "optimal"
        assert result.realization == TOY_R[3]
        assert result.optimum == pytest.approx(0.2, abs=1e-6)

    def test_member_cap(self, toy4):
        from mcsynth.errors import ResourceCapError

        with pytest.raises(ResourceCapError):
            one_by_one(toy4, SAFE_03, member_cap=2)


class TestCegis:
    def test_family_bounds_find_r3_in_three_candidates(self, toy4):
        result = cegis_synthesize(toy4, SAFE_03, bounds="family")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]
        assert result.stats.cegis_iterations <= 3

    def test_trivial_bounds_check_all_four(self, toy4):
        result = cegis_synthesize(toy4, SAFE_03, bounds="trivial")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]
        assert result.stats.cegis_iterations == 4

    def test_zero_budget_is_undecided(self, toy4):
        result, remaining, sigma = cegis_run(toy4, SAFE_03, budget=0)
        assert result is None
        assert remaining.remaining == member_count(toy4.full_subfamily())
        assert sigma == 0.0

    def test_infeasible_accounts_every_member(self, toy4):
        result = cegis_synthesize(toy4, SAFE_01, bounds="family")
        assert result.verdict == "infeasible"
        assert result.stats.pruned + result.stats.checked == 4

    def test_conflicts_never_cover_satisfying_members(self, toy4):
        result, remaining, _sigma = cegis_run(toy4, SAFE_03, bounds="family")
        assert result.verdict == "feasible"
        prop = SAFE_03.properties[0]
        for conflict in remaining.conflicts:
            for m in generalization(conflict.reference, conflict.params, conflict.scope):
                value = mc_reach_exact(induce(toy4, m), prop.targets)[toy4.initial]
                assert not evaluate_property(value, prop)


class TestAbstractionRefinement:
    def test_toy_first_step_splits_on_initial_choice(self, toy4):
        state = new_state(toy4, SAFE_03)
        result, sigma, cost = ar_run(state)
        assert result is None
        assert cost == 2
        assert len(state.queue) == 2
        left, right = state.queue[0].sub, state.queue[1].sub
        assert left.domains[0] == (1,) and right.domains[0] == (2,)

    def test_toy_feasible_r3(self, toy4):
        result = ar_synthesize(toy4, SAFE_03)
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]

    def test_loose_threshold_accepts_whole_family_immediately(self, toy4):
        result = ar_synthesize(toy4, SAFE_09)
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[0]  # lexicographic least member
        assert result.stats.ar_iterations == 1

    def test_infeasible_accounts_every_member(self, toy4):
        result = ar_synthesize(toy4, SAFE_01)
        assert result.verdict == "infeasible"
        assert result.stats.pruned == 4
        assert result.stats.checked == 0

    def test_analysis_count_bounded_by_twice_members(self):
        fam, spec, _values = make_instance(3, "infeasible")
        result = ar_synthesize(fam, spec)
        assert result.verdict == "infeasible"
        total = member_count(fam.full_subfamily())
        assert result.stats.ar_iterations <= 2 * total - 1


class TestHybrid:
    def test_toy_feasible_and_fully_accounted(self, toy4):
        result = hybrid_synthesize(toy4, SAFE_03)
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]
        assert result.stats.pruned + result.stats.checked == 4

    def test_delta_ratio_one_keeps_delta(self):
        assert update_delta(2.0, 2.0) == 1.0

    def test_delta_zero_ar_efficiency_hits_upper_clamp(self):
        assert update_delta(1.0, 0.0) == 64.0
        assert update_delta(0.0, 0.0) == 64.0

    def test_delta_clamping(self):
        assert update_delta(1000.0, 1.0) == 64.0
        assert update_delta(0.0, 5.0) == 1.0 / 64.0
        assert update_delta(3.0, 1.0) == 3.0

    def test_verdict_agrees_with_enumeration_on_mixed_instances(self):
        for i in range(4):
            want = "mixed" if i % 2 == 0 else "infeasible"
            expected = "feasible" if want == "mixed" else "infeasible"
            fam, spec, values = make_instance(i, want)
            baseline = one_by_one(fam, spec)
            result = hybrid_synthesize(fam, spec)
            assert result.verdict == baseline.verdict == expected
            if result.verdict == "feasible":
                prop = spec.properties[0]
                assert evaluate_property(values[result.realization.values], prop)
            else:
                total = member_count(fam.full_subfamily())
                assert result.stats.pruned + result.stats.checked == total

    def test_wallclock_cost_units_reach_same_verdict(self, toy4):
        result = hybrid_synthesize(toy4, SAFE_03, cost_units="wallclock")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]


class TestMultiProperty:
    def test_two_properties_feasible(self, toy4):
        spec = Specification(
            properties=(
                Property(op="<=", threshold=0.3, targets=TOY_TARGET),
                Property(op=">=", threshold=0.1, targets=TOY_TARGET),
            )
        )
        for method in ("onebyone", "cegis", "ar", "hybrid"):
            result = synthesize(toy4, spec, method=method)
            assert result.verdict == "feasible"
            assert result.realization == TOY_R[3]

    def test_conflicting_properties_infeasible(self, toy4):
        spec = Specification(
            properties=(
                Property(op="<=", threshold=0.3, targets=TOY_TARGET),
                Property(op=">=", threshold=0.5, targets=TOY_TARGET),
            )
        )
        for method in ("onebyone", "cegis", "ar", "hybrid"):
            result = synthesize(toy4, spec, method=method)
            assert result.verdict == "infeasible", method
            assert result.stats.pruned + result.stats.checked == 4


class TestOptimal:
    def test_toy_minimize_hybrid(self, toy4):
        result = optimal_synthesize(toy4, MIN_T, method="hybrid")
        assert result.verdict == "optimal"
        assert result.realization == TOY_R[3]
        assert result.optimum == pytest.approx(0.2, abs=1e-6)

    def test_toy_maximize(self, toy4):
        result = optimal_synthesize(toy4, MAX_T, method="hybrid")
        assert result.verdict == "optimal"
        assert result.realization == TOY_R[0]
        assert result.optimum == pytest.approx(0.8, abs=1e-6)

    def test_toy_relaxed_minimum_within_factor(self, toy4):
        spec = Specification(
            properties=(),
            objective=Objective(direction="min", targets=TOY_TARGET, epsilon=0.05),
        )
        result = optimal_synthesize(toy4, spec, method="hybrid")
        assert result.verdict == "optimal"
        assert result.optimum <= 0.2 * 1.05 + 1e-9

    def test_optimal_with_constraint(self, toy4):
        # minimize while requiring at least 0.3: r2 (0.4) is the best
        spec = Specification(
            properties=(Property(op=">=", threshold=0.3, targets=TOY_TARGET),),
            objective=Objective(direction="min", targets=TOY_TARGET),
        )
        for method in ("onebyone", "cegis", "ar", "hybrid"):
            result = synthesize(toy4, spec, method=method)
            assert result.verdict == "optimal", method
            assert result.realization == TOY_R[2]
            assert result.optimum == pytest.approx(0.4, abs=1e-6)

    def test_no_feasible_member_is_infeasible(self, toy4):
        spec = Specification(
            properties=(Property(op="<=", threshold=0.1, targets=TOY_TARGET),),
            objective=Objective(direction="min", targets=TOY_TARGET),
        )
        for method in ("onebyone", "cegis", "ar", "hybrid"):
            result = synthesize(toy4, spec, method=method)
            assert result.verdict == "infeasible", method

    def test_methods_agree_on_random_instance(self):
        fam, spec, values = make_instance(10, "mixed")
        goal = spec.properties[0].targets
        opt_spec = Specification(
            properties=(), objective=Objective(direction="max", targets=goal)
        )
        brute = max(values.values())
        for method in ("onebyone", "cegis", "ar", "hybrid"):
            result = synthesize(fam, opt_spec, method=method)
            assert result.verdict == "optimal", method
            assert result.optimum == pytest.approx(brute, abs=1e-6)


def _assert_store_exact(state, item, checked):
    """``remaining`` equals a brute-force count, and no conflict covers a candidate.

    Open members are those of the item's subfamily that were never checked
    and that no stored conflict covers.  A candidate satisfies the base
    properties and the final working threshold.  Every stored entry must
    intersect the subfamily.
    """
    covered = set()
    for c in (e for e in item.conflicts if isinstance(e, Conflict)):
        assert all(c.reference.values[k] in item.sub.domains[k] for k in c.params)
        covered |= {m.values for m in generalization(c.reference, c.params, c.scope)}
    members = set(itertools.product(*item.sub.domains))
    assert item.remaining == len(members - covered - checked)
    props = list(state.spec.properties) + [state.working]

    def satisfies(values, props):
        mc = induce(state.family, Realization(values))
        return all(
            evaluate_property(mc_reach_exact(mc, p.targets)[state.family.initial], p)
            for p in props
        )

    assert not any(satisfies(m, props) for m in covered)
    for entry in item.conflicts:
        if isinstance(entry, Realization):
            assert entry.values in checked & members
            assert satisfies(entry.values, state.spec.properties)


class TestCubeStore:
    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_optimal_store_counts_exactly_before_and_after_split(self, direction, monkeypatch):
        fam, spec, _values = make_instance(3, "mixed")
        objective = Objective(direction=direction, targets=spec.properties[0].targets)
        opt_spec = Specification(properties=spec.properties, objective=objective)
        checked = set()
        real_induce = mcsynth.synthesis.induce

        def spy(family, r):
            checked.add(r.values)
            return real_induce(family, r)

        monkeypatch.setattr(mcsynth.synthesis, "induce", spy)
        state = new_state(fam, opt_spec)
        result, _sigma, _cost = cegis_phase(state, budget_units=11)
        assert result is None
        item = state.queue[0]
        kinds = {type(e) for e in item.conflicts}
        assert kinds == {Conflict, Realization}
        _assert_store_exact(state, item, checked)

        queued = len(state.queue)
        result, _sigma, _cost = ar_run(state)
        assert result is None and len(state.queue) == queued + 1
        for child in list(state.queue)[-2:]:
            assert child.conflicts
            _assert_store_exact(state, child, checked)
