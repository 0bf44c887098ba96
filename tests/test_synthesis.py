"""Drivers: enumeration, CEGIS, abstraction refinement, hybrid, optimal."""

import gc
import itertools
import weakref

import numpy as np
import pytest

import mcsynth.counterexamples
import mcsynth.synthesis
from mcsynth import model
from mcsynth import (
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
    parse_sketch,
    parse_spec,
    synthesize,
    trivial_gamma,
)
from mcsynth.errors import ResourceCapError
from mcsynth.synthesis import METHODS, ar_run, cegis_phase, new_state, update_delta

from conftest import TOY_R, TOY_TARGET, lane_task, long_line_text, make_instance, reference_reach

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
        result = cegis_phase(state, budget=0)
        remaining = state.queue[0]
        assert result is None
        assert remaining.remaining == member_count(toy4.full_subfamily())

    def test_infeasible_accounts_every_member(self, toy4):
        result = synthesize(toy4, SAFE_01, method="cegis", bounds="family")
        assert result.verdict == "infeasible"
        assert result.stats.pruned + result.stats.checked == 4

    def test_conflicts_never_cover_satisfying_members(self, toy4):
        state = new_state(toy4, SAFE_03)
        remaining = state.queue[0]
        bounds = compute_bounds(build_quotient(toy4, remaining.sub), TOY_TARGET)
        remaining.gamma = {(TOY_TARGET, "<="): bounds.lb}
        result = cegis_phase(state)
        assert result.verdict == "feasible"
        prop = SAFE_03.properties[0]
        assert remaining.cubes
        for cube in remaining.cubes:
            for m in _cube_members(remaining.sub, cube):
                value = reference_reach(induce(toy4, Realization(m)), prop.targets)[toy4.initial]
                assert not evaluate_property(value, prop)


class TestAbstractionRefinement:
    def test_toy_first_step_splits_on_initial_choice(self, toy4):
        state = new_state(toy4, SAFE_03)
        result = ar_run(state)
        assert result is None
        assert state.stats.model_checks == 2
        assert len(state.queue) == 2
        left, right = state.queue[0].sub, state.queue[1].sub
        assert left.domains[0] == (1,) and right.domains[0] == (2,)

    def test_a_step_keeps_no_quotient_alive(self, toy4, monkeypatch):
        # the queued halves keep the step's gamma vectors, never its mask of the root
        built = []
        real = mcsynth.synthesis.build_quotient

        def spy(family, sub):
            qmdp = real(family, sub)
            built.append(weakref.ref(qmdp))
            return qmdp

        monkeypatch.setattr(mcsynth.synthesis, "build_quotient", spy)
        window = Specification(properties=(
            Property(op="<=", threshold=0.3, targets=TOY_TARGET),
            Property(op=">=", threshold=0.25, targets=TOY_TARGET),
        ))
        state = new_state(toy4, window, reroute=True)
        assert ar_run(state) is None
        assert len(state.queue) == 2 and all(item.gamma for item in state.queue)
        gc.collect()
        assert len(built) == 1
        assert all(ref() is None for ref in built)

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

    # (instance, want) -> the (sigma_cegis, sigma_ar) of every delta update
    # of a hybrid run before its verdict.  The runs reach a zero AR
    # efficiency and the ratio of update_delta.  A run that ends with a
    # witness makes one more update, after the phase that found it, whose
    # delta nothing reads; it is left out.
    DELTA_INPUTS = {
        (0, "mixed"): [(1 / 3, 0.0)],
        (1, "mixed"): [],
        (2, "mixed"): [],
        (3, "mixed"): [],
        (0, "infeasible"): [(1 / 3, 0.0), (0.25, 0.5)],
        (1, "infeasible"): [(1 / 3, 0.0), (0.25, 1.5)],
        (2, "infeasible"): [(0.4, 0.0), (0.5, 3.0)],
        (3, "infeasible"): [(4 / 3, 0.0), (16 / 11, 6.0)],
    }

    @pytest.mark.parametrize("key", sorted(DELTA_INPUTS), ids=lambda k: f"{k[1]}-{k[0]}")
    def test_delta_inputs_are_pinned(self, key, monkeypatch):
        events = []
        real_accept = mcsynth.synthesis._accept

        def delta_spy(sigma_cegis, sigma_ar):
            events.append((sigma_cegis, sigma_ar))
            return update_delta(sigma_cegis, sigma_ar)

        def accept_spy(*args):
            result = real_accept(*args)
            if result is not None:
                events.append("verdict")
            return result

        monkeypatch.setattr(mcsynth.synthesis, "update_delta", delta_spy)
        monkeypatch.setattr(mcsynth.synthesis, "_accept", accept_spy)
        fam, spec, _values = make_instance(*key)
        result = synthesize(fam, spec, method="hybrid")
        if result.verdict == "feasible":
            events = events[: events.index("verdict")]
        assert events == self.DELTA_INPUTS[key]

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


def _cube_members(sub, cube) -> set:
    """Members of ``sub`` agreeing with the ``(param, value)`` pins of ``cube``, by brute force."""
    return {m for m in itertools.product(*sub.domains) if all(m[k] == v for k, v in cube)}


def _assert_store_exact(state, item, checked, conflicts):
    """``remaining`` equals a brute-force count, and no conflict cube covers a candidate.

    Open members are those of the item's subfamily that were never checked
    and that no stored conflict cube covers.  A candidate satisfies the base
    properties and the final working threshold.  Every stored cube is a cube
    of the subfamily: the cube of one of ``conflicts`` (every conflict cube
    built so far, with the scope it was built in), or of a checked member
    that satisfies every base property.  Returns the number of stored cubes
    of each kind.
    """

    def satisfies(values, props):
        mc = induce(state.family, Realization(values))
        return all(
            evaluate_property(reference_reach(mc, p.targets)[state.family.initial], p)
            for p in props
        )

    conflict_cubes = {model.cube_pins(c, item.sub): (c, scope) for c, scope in conflicts}
    members = set(itertools.product(*item.sub.domains))
    covered, kinds = set(), {"conflict": 0, "member": 0}
    for cube in item.cubes:
        assert model.cube_pins(cube, item.sub) == cube
        if cube in conflict_cubes:
            general = {m.values for m in generalization(*conflict_cubes[cube])}
            assert _cube_members(item.sub, cube) == general & members
            covered |= general & members
            kinds["conflict"] += 1
        else:
            (member,) = _cube_members(item.sub, cube)
            assert member in checked
            assert satisfies(member, state.spec.properties)
            kinds["member"] += 1
    assert item.remaining == len(members - covered - checked)
    props = list(state.spec.properties) + [state.working]
    assert not any(satisfies(m, props) for m in covered)
    return kinds


class TestCubeStore:
    @pytest.mark.parametrize("method", ["ar", "hybrid"])
    def test_no_queued_item_is_empty(self, method, monkeypatch):
        """A split queues only the halves that keep an open member.

        On this family one of the hybrid's splits leaves a half that CEGIS
        conflicts already cover; AR alone stores no conflicts.
        """
        family, spec = lane_task("window", 40, 6, 0.6)
        queued = []
        real_item = mcsynth.synthesis.WorkItem

        def spy(*args, **kwargs):
            item = real_item(*args, **kwargs)
            queued.append(item.remaining)
            return item

        monkeypatch.setattr(mcsynth.synthesis, "WorkItem", spy)
        assert synthesize(family, spec, method=method).verdict == "infeasible"
        assert len(queued) > 1
        assert all(remaining > 0 for remaining in queued)

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_optimal_store_counts_exactly_before_and_after_split(self, direction, monkeypatch):
        fam, spec, _values = make_instance(3, "mixed")
        objective = Objective(direction=direction, targets=spec.properties[0].targets)
        opt_spec = Specification(properties=spec.properties, objective=objective)
        checked, conflicts = set(), []
        real_induce = mcsynth.synthesis.induce
        real_construct = mcsynth.synthesis.construct_conflict

        def spy(family, r):
            checked.add(r.values)
            return real_induce(family, r)

        def construct(mc, prop, gamma, scope, **kwargs):
            conflicts.append((real_construct(mc, prop, gamma, scope, **kwargs), scope))
            return conflicts[-1][0]

        monkeypatch.setattr(mcsynth.synthesis, "induce", spy)
        monkeypatch.setattr(mcsynth.synthesis, "construct_conflict", construct)
        state = new_state(fam, opt_spec)
        result = cegis_phase(state, budget=11)
        assert result is None
        item = state.queue[0]
        kinds = _assert_store_exact(state, item, checked, conflicts)
        assert kinds["conflict"] and kinds["member"]
        # the store holds each cube construct_conflict returned, not a copy
        stored = {id(cube) for cube in item.cubes}
        assert all(id(c) in stored for c, _scope in conflicts)

        queued = len(state.queue)
        result = ar_run(state)
        assert result is None and len(state.queue) == queued + 1
        for child in list(state.queue)[-2:]:
            assert child.cubes
            _assert_store_exact(state, child, checked, conflicts)

    def test_no_checked_member_outlives_its_check(self, monkeypatch):
        # the store keeps cubes, so conflicts and members die with their check
        checked = []
        real_check = mcsynth.synthesis._check

        def spy(state, r):
            checked.append(weakref.ref(r))
            return real_check(state, r)

        monkeypatch.setattr(mcsynth.synthesis, "_check", spy)
        fam, spec, _values = make_instance(3, "mixed")
        objective = Objective(direction="max", targets=spec.properties[0].targets)
        state = new_state(fam, Specification(properties=spec.properties, objective=objective))
        assert cegis_phase(state, budget=11) is None
        assert ar_run(state) is None
        gc.collect()
        assert len(checked) > 1 and state.incumbent is not None
        alive = [ref() for ref in checked if ref() is not None]
        assert all(r is state.incumbent.realization for r in alive)

    @pytest.mark.parametrize(
        "method, bounds", [("ar", "family"), ("hybrid", "trivial"), ("hybrid", "family")]
    )
    @pytest.mark.parametrize("kind", ["window", "optimal"])
    def test_a_queued_half_keeps_only_its_gamma_vectors(self, kind, method, bounds, monkeypatch):
        """Halves store one parent vector per property, ``lb`` for ``<=``, ``ub`` for ``>=``.

        Only a hybrid that reroutes with family bounds stores any.
        """
        family, spec = lane_task(kind, 40, 6, 0.6)
        parent, queued = {}, []
        real_bounds = mcsynth.synthesis.compute_bounds
        real_item = mcsynth.synthesis.WorkItem

        def bounds_spy(qmdp, targets):
            parent[frozenset(targets)] = real_bounds(qmdp, targets)
            return parent[frozenset(targets)]

        def item_spy(*args, **kwargs):
            item = real_item(*args, **kwargs)
            # the split parent's bounds are the last ones solved before its halves
            queued.append((item, dict(parent)))
            return item

        monkeypatch.setattr(mcsynth.synthesis, "compute_bounds", bounds_spy)
        monkeypatch.setattr(mcsynth.synthesis, "WorkItem", item_spy)
        synthesize(family, spec, method=method, bounds=bounds)
        halves = queued[1:]  # the first item is the whole family
        assert halves
        keys = {(p.targets, p.op) for p in spec.properties}
        obj = spec.objective
        if obj is not None:  # the working property: P<= for min, P>= for max
            keys.add((obj.targets, "<=" if obj.direction == "min" else ">="))
        for item, bounds_of_parent in halves:
            if (method, bounds) != ("hybrid", "family"):
                assert item.gamma == {}
                continue
            assert set(item.gamma) == keys
            for (targets, op), gamma in item.gamma.items():
                want = bounds_of_parent[targets]
                want = want.lb if op == "<=" else want.ub
                assert gamma.dtype == want.dtype and gamma.tobytes() == want.tobytes()


class TestOptions:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("option", ["bounds"])
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

        def spy(mc, prop, gamma, scope, **kwargs):
            gammas.append((prop, np.asarray(gamma).copy()))
            return real_construct(mc, prop, gamma, scope, **kwargs)

        monkeypatch.setattr(mcsynth.synthesis, "construct_conflict", spy)
        result = synthesize(fam, spec, method="hybrid", bounds="trivial")
        assert result.verdict == "infeasible"
        assert gammas
        for prop, gamma in gammas:
            assert np.array_equal(gamma, trivial_gamma(fam.n_states, prop))


class TestOneChainPerMember:
    def test_one_induction_per_checked_member(self, monkeypatch):
        # conflicts reuse the chain of the member check instead of inducing it again
        calls, conflicts = [], []
        for mod in (mcsynth.synthesis, mcsynth.counterexamples):
            real = mod.induce

            def spy(family, r, real=real):
                calls.append(r)
                return real(family, r)

            monkeypatch.setattr(mod, "induce", spy)
        real_construct = mcsynth.synthesis.construct_conflict

        def construct(*args, **kwargs):
            conflicts.append(args)
            return real_construct(*args, **kwargs)

        monkeypatch.setattr(mcsynth.synthesis, "construct_conflict", construct)
        cases = [make_instance(i, want)[:2] for i in range(4) for want in ("mixed", "infeasible")]
        fam, spec, _values = make_instance(0, "mixed")
        goal = spec.properties[0].targets
        cases.append((fam, Specification(properties=(), objective=Objective("max", goal))))
        for fam, spec in cases:
            for method in METHODS:
                calls.clear()
                result = synthesize(fam, spec, method=method)
                assert len(calls) == result.stats.checked, (method, spec)
        assert conflicts


def bitwise_record(result) -> tuple:
    """A run's verdict, witness, values and optimum (floats as hex) and its whole ledger."""
    values = None if result.values is None else [float(v).hex() for v in result.values]
    optimum = None if result.optimum is None else float(result.optimum).hex()
    return result.verdict, result.realization, values, optimum, result.stats


class TestRootReuse:
    """A family keeps its root quotient, so a second run on it reuses the first run's."""

    @pytest.mark.parametrize("shape", [("window", 40, 8, 0.8), ("window", 240, 5, 0.6)])
    def test_runs_on_the_same_family_match_a_fresh_parse(self, shape):
        family, spec = lane_task(*shape)
        # one solve chunk below SOLVE_CHUNK states, several above
        assert (family._chunk_ids is None) == (shape[1] < model.SOLVE_CHUNK)
        for method in METHODS:
            for bounds in ("family", "trivial"):
                first = bitwise_record(synthesize(family, spec, method=method, bounds=bounds))
                root = family._root
                second = bitwise_record(synthesize(family, spec, method=method, bounds=bounds))
                assert family._root is root
                parsed = lane_task(*shape)
                again = bitwise_record(synthesize(*parsed, method=method, bounds=bounds))
                assert first == second == again, (method, bounds)


class TestRecursionDepth:
    @pytest.mark.parametrize("method", ["cegis", "hybrid"])
    def test_deep_cube_search_is_a_resource_cap(self, method):
        # optimal mode stores each checked member as a cube pinning all 1200
        # parameters, and member accounting recurses once per pinned parameter
        fam = parse_sketch(long_line_text(1200))
        with pytest.raises(ResourceCapError, match="recursion limit"):
            synthesize(fam, parse_spec("max P [F goal]", fam), method=method)


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
