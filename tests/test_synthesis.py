"""Drivers: enumeration, CEGIS, abstraction refinement, hybrid, optimal."""

import itertools

import numpy as np
import pytest

import mcsynth.synthesis
from mcsynth import (
    Conflict,
    Objective,
    Property,
    Realization,
    Specification,
    build_quotient,
    compute_bounds,
    evaluate_property,
    generalization,
    induce,
    member_count,
    synthesize,
    trivial_gamma,
)
from mcsynth.synthesis import METHODS, ar_run, cegis_phase, new_state, update_delta

from conftest import TOY_R, TOY_TARGET, make_instance, reference_reach

SAFE_03 = Specification(properties=(Property(op="<=", threshold=0.3, targets=TOY_TARGET),))
SAFE_01 = Specification(properties=(Property(op="<=", threshold=0.1, targets=TOY_TARGET),))
SAFE_09 = Specification(properties=(Property(op="<=", threshold=0.9, targets=TOY_TARGET),))
MIN_T = Specification(properties=(), objective=Objective(direction="min", targets=TOY_TARGET))
MAX_T = Specification(properties=(), objective=Objective(direction="max", targets=TOY_TARGET))


class TestOneByOne:
    def test_toy_feasible_is_r3(self, toy4):
        result = synthesize(toy4, SAFE_03, method="onebyone")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]
        assert result.values[0] == pytest.approx(0.2, abs=1e-6)

    def test_toy_tight_threshold_infeasible(self, toy4):
        result = synthesize(toy4, SAFE_01, method="onebyone")
        assert result.verdict == "infeasible"
        assert result.stats.checked == 4

    def test_toy_minimize(self, toy4):
        result = synthesize(toy4, MIN_T, method="onebyone")
        assert result.verdict == "optimal"
        assert result.realization == TOY_R[3]
        assert result.optimum == pytest.approx(0.2, abs=1e-6)

    def test_member_cap(self, toy4, monkeypatch):
        from mcsynth.errors import ResourceCapError

        monkeypatch.setattr(mcsynth.synthesis, "MEMBER_CAP", 2)
        with pytest.raises(ResourceCapError):
            synthesize(toy4, SAFE_03, method="onebyone")


class TestCegis:
    def test_family_bounds_find_r3_in_three_candidates(self, toy4):
        result = synthesize(toy4, SAFE_03, method="cegis", bounds="family")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]
        assert result.stats.cegis_iterations <= 3

    def test_trivial_bounds_check_all_four(self, toy4):
        result = synthesize(toy4, SAFE_03, method="cegis", bounds="trivial")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]
        assert result.stats.cegis_iterations == 4

    def test_zero_budget_is_undecided(self, toy4):
        state = new_state(toy4, SAFE_03)
        result, sigma = cegis_phase(state, budget=0)
        remaining = state.queue[0]
        assert result is None
        assert remaining.remaining == member_count(toy4.full_subfamily())
        assert sigma == 0.0

    def test_infeasible_accounts_every_member(self, toy4):
        result = synthesize(toy4, SAFE_01, method="cegis", bounds="family")
        assert result.verdict == "infeasible"
        assert result.stats.pruned + result.stats.checked == 4

    def test_conflicts_never_cover_satisfying_members(self, toy4):
        state = new_state(toy4, SAFE_03)
        remaining = state.queue[0]
        remaining.bounds = {
            TOY_TARGET: compute_bounds(build_quotient(toy4, remaining.sub), TOY_TARGET)
        }
        result, _sigma = cegis_phase(state)
        assert result.verdict == "feasible"
        prop = SAFE_03.properties[0]
        for conflict in remaining.conflicts:
            for m in generalization(conflict.reference, conflict.params, conflict.scope):
                value = reference_reach(induce(toy4, m), prop.targets)[toy4.initial]
                assert not evaluate_property(value, prop)


class TestAbstractionRefinement:
    def test_toy_first_step_splits_on_initial_choice(self, toy4):
        state = new_state(toy4, SAFE_03)
        result, _sigma = ar_run(state)
        assert result is None
        assert state.meter.total == 2
        assert len(state.queue) == 2
        left, right = state.queue[0].sub, state.queue[1].sub
        assert left.domains[0] == (1,) and right.domains[0] == (2,)

    def test_toy_feasible_r3(self, toy4):
        result = synthesize(toy4, SAFE_03, method="ar")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[3]

    def test_loose_threshold_accepts_whole_family_immediately(self, toy4):
        result = synthesize(toy4, SAFE_09, method="ar")
        assert result.verdict == "feasible"
        assert result.realization == TOY_R[0]  # lexicographic least member
        assert result.stats.ar_iterations == 1

    def test_infeasible_accounts_every_member(self, toy4):
        result = synthesize(toy4, SAFE_01, method="ar")
        assert result.verdict == "infeasible"
        assert result.stats.pruned == 4
        assert result.stats.checked == 0

    def test_analysis_count_bounded_by_twice_members(self):
        fam, spec, _values = make_instance(3, "infeasible")
        result = synthesize(fam, spec, method="ar")
        assert result.verdict == "infeasible"
        total = member_count(fam.full_subfamily())
        assert result.stats.ar_iterations <= 2 * total - 1


class TestHybrid:
    def test_toy_feasible_and_fully_accounted(self, toy4):
        result = synthesize(toy4, SAFE_03, method="hybrid")
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
            baseline = synthesize(fam, spec, method="onebyone")
            result = synthesize(fam, spec, method="hybrid")
            assert result.verdict == baseline.verdict == expected
            if result.verdict == "feasible":
                prop = spec.properties[0]
                assert evaluate_property(values[result.realization.values], prop)
            else:
                total = member_count(fam.full_subfamily())
                assert result.stats.pruned + result.stats.checked == total

    def test_wallclock_cost_units_reach_same_verdict(self, toy4):
        result = synthesize(toy4, SAFE_03, method="hybrid", cost_units="wallclock")
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
        result = synthesize(toy4, MIN_T, method="hybrid")
        assert result.verdict == "optimal"
        assert result.realization == TOY_R[3]
        assert result.optimum == pytest.approx(0.2, abs=1e-6)

    def test_toy_maximize(self, toy4):
        result = synthesize(toy4, MAX_T, method="hybrid")
        assert result.verdict == "optimal"
        assert result.realization == TOY_R[0]
        assert result.optimum == pytest.approx(0.8, abs=1e-6)

    def test_toy_relaxed_minimum_within_factor(self, toy4):
        spec = Specification(
            properties=(),
            objective=Objective(direction="min", targets=TOY_TARGET, epsilon=0.05),
        )
        result = synthesize(toy4, spec, method="hybrid")
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
            evaluate_property(reference_reach(mc, p.targets)[state.family.initial], p)
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
        result, _sigma = cegis_phase(state, budget=11)
        assert result is None
        item = state.queue[0]
        kinds = {type(e) for e in item.conflicts}
        assert kinds == {Conflict, Realization}
        _assert_store_exact(state, item, checked)

        queued = len(state.queue)
        result, _sigma = ar_run(state)
        assert result is None and len(state.queue) == queued + 1
        for child in list(state.queue)[-2:]:
            assert child.conflicts
            _assert_store_exact(state, child, checked)


class TestOptions:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("option", ["bounds", "cost_units"])
    def test_bad_option_rejected_by_every_method(self, toy4, method, option):
        with pytest.raises(ValueError, match="bogus"):
            synthesize(toy4, SAFE_03, method=method, **{option: "bogus"})

    def test_unknown_method_rejected(self, toy4):
        with pytest.raises(ValueError, match="bogus"):
            synthesize(toy4, SAFE_03, method="bogus")

    def test_hybrid_honours_trivial_bounds(self, monkeypatch):
        fam, spec, _values = make_instance(1, "infeasible")
        gammas = []
        real_construct = mcsynth.synthesis.construct_conflict

        def spy(family, r, prop, gamma, scope, **kwargs):
            gammas.append((prop, np.asarray(gamma).copy()))
            return real_construct(family, r, prop, gamma, scope, **kwargs)

        monkeypatch.setattr(mcsynth.synthesis, "construct_conflict", spy)
        result = synthesize(fam, spec, method="hybrid", bounds="trivial")
        assert result.verdict == "infeasible"
        assert gammas
        for prop, gamma in gammas:
            assert np.array_equal(gamma, trivial_gamma(fam.n_states, prop))


# Behaviour lock: (instance, method, bounds) -> (verdict, witness, optimum,
# model_checks, ar_iterations, cegis_iterations, pruned, checked), recorded
# from the drivers before they became settings of one loop.  Enumeration now
# reports its checked members as CEGIS iterations (it reported 0 before).
# Conflicts bisect the greedy expansion order instead of scanning it, so the
# model checks of the CEGIS and hybrid records that build conflicts fell;
# every other field is as recorded before.  An optimal run keeps the
# incumbent's values instead of solving it again at the end, so the toy4-min
# records make one model check fewer.
GOLDEN = {
    ("toy4", "onebyone", "family"): ("feasible", (2, 4, 3, 4), None, 4, 0, 4, 0, 4),
    ("toy4", "cegis", "family"): ("feasible", (2, 4, 3, 4), None, 9, 0, 3, 0, 3),
    ("toy4", "cegis", "trivial"): ("feasible", (2, 4, 3, 4), None, 10, 0, 4, 0, 4),
    ("toy4", "ar", "family"): ("feasible", (2, 4, 3, 4), None, 11, 5, 0, 3, 1),
    ("toy4", "hybrid", "family"): ("feasible", (2, 4, 3, 4), None, 9, 2, 3, 1, 3),
    ("toy4-min", "onebyone", "family"): ("optimal", (2, 4, 3, 4), 0.2, 4, 0, 4, 0, 4),
    ("toy4-min", "cegis", "family"): ("optimal", (2, 4, 3, 4), 0.2, 6, 0, 4, 0, 4),
    ("toy4-min", "cegis", "trivial"): ("optimal", (2, 4, 3, 4), 0.2, 4, 0, 4, 0, 4),
    ("toy4-min", "ar", "family"): ("optimal", (2, 4, 3, 4), 0.2, 10, 7, 0, 0, 4),
    ("toy4-min", "hybrid", "family"): ("optimal", (2, 4, 3, 4), 0.2, 8, 2, 4, 0, 4),
    ("instance-0", "onebyone", "family"): ("feasible", (5, 4, 4, 5), None, 3, 0, 3, 0, 3),
    ("instance-0", "cegis", "family"): ("feasible", (5, 4, 4, 5), None, 9, 0, 3, 0, 3),
    ("instance-0", "cegis", "trivial"): ("feasible", (5, 4, 4, 5), None, 7, 0, 3, 0, 3),
    ("instance-0", "ar", "family"): ("feasible", (5, 4, 4, 5), None, 7, 3, 0, 2, 1),
    ("instance-0", "hybrid", "family"): ("feasible", (5, 4, 4, 5), None, 8, 2, 2, 1, 2),
    ("instance-1", "onebyone", "family"): ("infeasible", None, None, 8, 0, 8, 0, 8),
    ("instance-1", "cegis", "family"): ("infeasible", None, None, 34, 0, 8, 0, 8),
    ("instance-1", "cegis", "trivial"): ("infeasible", None, None, 32, 0, 8, 0, 8),
    ("instance-1", "ar", "family"): ("infeasible", None, None, 6, 3, 0, 8, 0),
    ("instance-1", "hybrid", "family"): ("infeasible", None, None, 23, 2, 5, 3, 5),
    ("instance-2", "onebyone", "family"): ("feasible", (6, 5, 1, 7, 8, 9), None, 1, 0, 1, 0, 1),
    ("instance-2", "cegis", "family"): ("feasible", (6, 5, 1, 7, 8, 9), None, 3, 0, 1, 0, 1),
    ("instance-2", "cegis", "trivial"): ("feasible", (6, 5, 1, 7, 8, 9), None, 1, 0, 1, 0, 1),
    ("instance-2", "ar", "family"): ("feasible", (6, 5, 1, 7, 8, 9), None, 5, 2, 0, 0, 1),
    ("instance-2", "hybrid", "family"): ("feasible", (6, 5, 1, 7, 8, 9), None, 3, 1, 1, 0, 1),
    ("instance-3", "onebyone", "family"): ("infeasible", None, None, 32, 0, 32, 0, 32),
    ("instance-3", "cegis", "family"): ("infeasible", None, None, 21, 0, 5, 27, 5),
    ("instance-3", "cegis", "trivial"): ("infeasible", None, None, 19, 0, 5, 27, 5),
    ("instance-3", "ar", "family"): ("infeasible", None, None, 10, 5, 0, 32, 0),
    ("instance-3", "hybrid", "family"): ("infeasible", None, None, 18, 2, 4, 28, 4),
}


def _golden_instance(name, toy4):
    if name == "toy4":
        return toy4, SAFE_03
    if name == "toy4-min":
        return toy4, MIN_T
    i = int(name.split("-")[1])
    fam, spec, _values = make_instance(i, "mixed" if i % 2 == 0 else "infeasible")
    return fam, spec


class TestBehaviourLock:
    @pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
    def test_golden_record(self, toy4, key):
        name, method, bounds = key
        fam, spec = _golden_instance(name, toy4)
        result = synthesize(fam, spec, method=method, bounds=bounds)
        verdict, witness, optimum, *counts = GOLDEN[key]
        assert result.verdict == verdict
        assert (result.realization and result.realization.values) == witness
        if optimum is None:
            assert result.optimum is None
        else:
            assert result.optimum == pytest.approx(optimum, abs=1e-6)
        s = result.stats
        got = [s.model_checks, s.ar_iterations, s.cegis_iterations, s.pruned, s.checked]
        assert got == counts
