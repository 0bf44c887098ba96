"""Quotient construction, bounds soundness, refinement splitting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsynth import (
    Property,
    Specification,
    Subfamily,
    build_quotient,
    compute_bounds,
    induce,
    iterate_unpruned,
    mc_reach,
    mdp_extreme,
    member_count,
    split_subfamily,
    synthesize,
)
from mcsynth.errors import ResourceCapError
from mcsynth.model import Family
from mcsynth.quotient import _reachable_under, root_quotient

from conftest import (
    TOY_R,
    TOY_TARGET,
    _reference_reachable_under,
    action_choice,
    action_row,
    chain_row,
    corpus_family,
    goal_index,
    lane_family,
    make_family,
    make_instance,
    make_mc,
    n_actions,
    reference_build_quotient,
    reference_decode_action,
    reference_reach,
    reference_split_subfamily,
)


def sub_singleton(toy4, member):
    return Subfamily(tuple((v,) for v in member.values))


def over_cap_family() -> Family:
    n_params = 7
    # one state referencing 7 parameters with 8-value domains: 8**7 actions
    return make_family(
        state_names=tuple(f"s{i}" for i in range(9)),
        initial=0,
        param_names=tuple(f"p{k}" for k in range(n_params)),
        domains=tuple(tuple(range(1, 9)) for _ in range(n_params)),
        rows=(
            {k: 1.0 / n_params for k in range(n_params - 1)}
            | {n_params - 1: 1.0 - (n_params - 1) / n_params},
        ) + tuple({k % n_params: 1.0} for k in range(8)),
    )


# corpus families with 2-, 3- and 4-value domains, and binary lane families
MASK_FAMILIES = [corpus_family(i) for i in (0, 4, 9, 13, 15, 21, 24, 38)] + [
    lane_family(n, m, rho, seed)
    for n, m, rho, seed in ((12, 4, 0.7, 1), (24, 6, 0.6, 2), (40, 8, 0.7, 3))
]


@st.composite
def subfamilies(draw, family: Family) -> Subfamily:
    """A random subfamily of ``family``."""
    return Subfamily([
        sorted(draw(st.lists(st.sampled_from(dom), min_size=1, unique=True)))
        for dom in family.domains
    ])


def two_target_instance():
    """An infeasible instance, and its spec plus an always-met second target set."""
    family, spec, _values = make_instance(3, "infeasible")
    always = Property(op=">=", threshold=0.0, targets=frozenset({family.initial}))
    return family, spec, Specification(properties=spec.properties + (always,))


def assert_bitwise_equal(got, want):
    for name in ("state_ptr", "act_ptr", "ent_target", "ent_prob"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def split_key(halves):
    """``(param, left, right)`` of a split: the one domain the halves differ in."""
    left, right = halves
    (param,) = [k for k, (a, b) in enumerate(zip(left.domains, right.domains)) if a != b]
    return param, left.domains[param], right.domains[param]


class TestBuildQuotient:
    def test_toy_state_s1_has_two_actions(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        assert n_actions(q, 1) == 2
        tgt0, prb0 = action_row(q, 1, 0)
        tgt1, prb1 = action_row(q, 1, 1)
        # Y=t merges with the loop parameter: [t -> 0.8, f -> 0.2]
        assert list(tgt0) == [3, 4] and np.allclose(prb0, [0.8, 0.2])
        assert list(tgt1) == [3, 4] and np.allclose(prb1, [0.6, 0.4])

    def test_toy_state_s0_actions_follow_domain_order(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        assert n_actions(q, 0) == 2
        tgt0, prb0 = action_row(q, 0, 0)
        tgt1, prb1 = action_row(q, 0, 1)
        assert list(tgt0) == [1] and prb0[0] == pytest.approx(1.0)
        assert list(tgt1) == [2] and prb1[0] == pytest.approx(1.0)

    def test_action_count_is_domain_product(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        assert [n_actions(q, s) for s in range(5)] == [2, 2, 2, 1, 1]

    def test_singleton_subfamily_matches_induced_chain(self, toy4):
        for i in range(4):
            sub = sub_singleton(toy4, TOY_R[i])
            q = build_quotient(toy4, sub)
            mc = induce(toy4, TOY_R[i])
            for s in range(toy4.n_states):
                assert n_actions(q, s) == 1
                tgt, prb = action_row(q, s, 0)
                assert tuple(tgt) == tuple(chain_row(mc, s))
                assert np.allclose(prb, list(chain_row(mc, s).values()))

    def test_every_member_is_embedded(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        for i in range(4):
            mc = induce(toy4, TOY_R[i])
            for s in range(toy4.n_states):
                rows = [
                    (tuple(action_row(q, s, a)[0]), tuple(action_row(q, s, a)[1]))
                    for a in range(n_actions(q, s))
                ]
                row = chain_row(mc, s)
                assert (tuple(row), tuple(row.values())) in rows

    def test_decode_action_round_trips(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        choice0 = action_choice(q, 1, 0)
        choice1 = action_choice(q, 1, 1)
        assert choice0[1] == 3 and choice1[1] == 4  # Y = t then Y = f

    def test_action_count_cap(self):
        fam = over_cap_family()
        with pytest.raises(ResourceCapError, match="actions"):
            build_quotient(fam, fam.full_subfamily())


class TestMdpExtreme:
    def test_toy_min_matches_known_lower_bounds(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        lb, _ = mdp_extreme(q, TOY_TARGET, "min")
        assert np.allclose(lb, [0.2, 0.6, 0.2, 1.0, 0.0], atol=1e-6)

    def test_toy_max_initial_value(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        ub, _ = mdp_extreme(q, TOY_TARGET, "max")
        assert ub[0] == pytest.approx(0.8, abs=1e-6)

    def test_single_action_mdp_equals_chain(self, toy4):
        sub = sub_singleton(toy4, TOY_R[1])
        q = build_quotient(toy4, sub)
        mc = induce(toy4, TOY_R[1])
        want = mc_reach(mc, TOY_TARGET)
        for mode in ("min", "max"):
            got, _ = mdp_extreme(q, TOY_TARGET, mode)
            assert np.allclose(got, want, atol=1e-7)

    def test_min_below_max_pointwise(self):
        for i in (0, 5, 9):
            fam = corpus_family(i)
            q = build_quotient(fam, fam.full_subfamily())
            targets = {goal_index(fam)}
            lo, _ = mdp_extreme(q, targets, "min")
            hi, _ = mdp_extreme(q, targets, "max")
            assert (lo <= hi + 2e-8).all()

    @staticmethod
    def _scheduler_chain(q, sched):
        rows = []
        for s in range(q.n_states):
            tgt, prb = action_row(q, s, int(sched[s]))
            rows.append(dict(zip(map(int, tgt), map(float, prb))))
        return make_mc(rows)

    def test_scheduler_attains_value(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        for mode in ("min", "max"):
            vals, sched = mdp_extreme(q, TOY_TARGET, mode)
            direct = reference_reach(self._scheduler_chain(q, sched), TOY_TARGET)
            assert abs(direct[0] - vals[0]) <= 2e-8

    def test_scheduler_consistency_on_random_quotients(self):
        for i in (1, 8, 14):
            fam = corpus_family(i)
            q = build_quotient(fam, fam.full_subfamily())
            targets = {goal_index(fam)}
            for mode in ("min", "max"):
                vals, sched = mdp_extreme(q, targets, mode)
                direct = reference_reach(self._scheduler_chain(q, sched), targets)
                assert abs(direct[q.initial] - vals[q.initial]) <= 2e-8


class TestComputeBounds:
    def test_toy_family_lower_bounds(self, toy4):
        bounds = compute_bounds(build_quotient(toy4, toy4.full_subfamily()), TOY_TARGET)
        assert np.allclose(bounds.lb, [0.2, 0.6, 0.2, 1.0, 0.0], atol=1e-6)

    def test_toy_family_upper_bound_at_initial(self, toy4):
        bounds = compute_bounds(build_quotient(toy4, toy4.full_subfamily()), TOY_TARGET)
        assert bounds.ub[0] == pytest.approx(0.8, abs=1e-6)

    def test_singleton_bounds_collapse_to_member_value(self, toy4):
        sub = sub_singleton(toy4, TOY_R[3])
        bounds = compute_bounds(build_quotient(toy4, sub), TOY_TARGET)
        assert bounds.lb[0] == pytest.approx(0.2, abs=2e-8)
        assert bounds.ub[0] == pytest.approx(0.2, abs=2e-8)

    def test_sandwich_on_random_family(self):
        fam = corpus_family(2)
        sub = fam.full_subfamily()
        targets = {goal_index(fam)}
        bounds = compute_bounds(build_quotient(fam, sub), targets)
        for r in iterate_unpruned(sub):
            vals = reference_reach(induce(fam, r), targets)
            assert (bounds.lb - 2e-8 <= vals).all()
            assert (vals <= bounds.ub + 2e-8).all()


    def test_bounds_ordered_down_to_singletons(self):
        # Min and max evaluate different policies, i.e. different linear
        # systems, so states they agree on may differ by rounding.  On a
        # singleton both solve the same system and agree bitwise.
        for i in range(0, 50, 4):
            fam = corpus_family(i)
            targets = {goal_index(fam)}
            stack = [fam.full_subfamily()]
            while stack:
                sub = stack.pop()
                q = build_quotient(fam, sub)
                bounds = compute_bounds(q, targets)
                assert (bounds.lb <= bounds.ub + 1e-12).all()
                if member_count(sub) == 1:
                    assert np.array_equal(bounds.lb, bounds.ub)
                else:
                    stack.extend(split_subfamily(q, bounds.min_scheduler, bounds.max_scheduler))

    def test_crossed_bounds_raise(self, toy4, monkeypatch):
        import mcsynth.quotient as quotient_mod
        from mcsynth.errors import InvalidBoundsError

        real = quotient_mod.mdp_extreme

        def skewed(qmdp, targets, mode):
            vals, sched = real(qmdp, targets, mode)
            return (vals - 1e-6 if mode == "max" else vals), sched

        monkeypatch.setattr(quotient_mod, "mdp_extreme", skewed)
        with pytest.raises(InvalidBoundsError, match="below lower bound"):
            compute_bounds(build_quotient(toy4, toy4.full_subfamily()), TOY_TARGET)


class TestSplitSubfamily:
    def test_toy_split_separates_initial_choice(self, toy4):
        sub = toy4.full_subfamily()
        q = build_quotient(toy4, sub)
        bounds = compute_bounds(q, TOY_TARGET)
        left, right = split_subfamily(q, bounds.min_scheduler, bounds.max_scheduler)
        assert left.domains[0] == (1,) and right.domains[0] == (2,)
        assert left.domains[1] == right.domains[1] == sub.domains[1]

    def test_two_member_subfamily_splits_into_singletons(self, toy4):
        sub = toy4.full_subfamily().restricted(0, (2,))
        q = build_quotient(toy4, sub)
        bounds = compute_bounds(q, TOY_TARGET)
        left, right = split_subfamily(q, bounds.min_scheduler, bounds.max_scheduler)
        assert member_count(left) == member_count(right) == 1

    def test_consistent_schedulers_fall_back_to_largest_domain(self, toy4):
        sub = toy4.full_subfamily()
        q = build_quotient(toy4, sub)
        same = np.zeros(toy4.n_states, dtype=np.int64)
        left, right = split_subfamily(q, same, same)
        # X is the smallest-index largest domain; halved by value order
        assert left.domains[0] == (1,) and right.domains[0] == (2,)

    def test_partition_property(self):
        fam = corpus_family(4)
        sub = fam.full_subfamily()
        targets = {goal_index(fam)}
        q = build_quotient(fam, sub)
        bounds = compute_bounds(q, targets)
        left, right = split_subfamily(q, bounds.min_scheduler, bounds.max_scheduler)
        assert member_count(left) + member_count(right) == member_count(sub)
        members = {m.values for m in iterate_unpruned(sub)}
        left_members = {m.values for m in iterate_unpruned(left)}
        right_members = {m.values for m in iterate_unpruned(right)}
        assert left_members | right_members == members
        assert not left_members & right_members

    def test_singleton_split_rejected(self, toy4):
        sub = sub_singleton(toy4, TOY_R[0])
        q = build_quotient(toy4, sub)
        zero = np.zeros(toy4.n_states, dtype=np.int64)
        with pytest.raises(ValueError, match="singleton"):
            split_subfamily(q, zero, zero)


    @pytest.mark.parametrize("bad", [-1, 2, "short"])
    def test_out_of_range_scheduler_rejected(self, toy4, bad):
        sub = toy4.full_subfamily()
        q = build_quotient(toy4, sub)
        zero = np.zeros(toy4.n_states, dtype=np.int64)
        if bad == "short":
            # one action for every state would broadcast unchecked
            wild, match = np.array([0]), r"scheduler has shape \(1,\), expected \(5,\)"
        else:
            wild = zero.copy()
            wild[1] = bad  # state 1 has two actions
            match = f"action {bad} out of range at state 1"
        for scheds in ((wild, zero), (zero, wild)):
            with pytest.raises(ValueError, match=match):
                split_subfamily(q, *scheds)


class TestRefinementProperties:
    def test_split_tightens_bounds_monotonically(self):
        for i in (0, 6, 11):
            fam = corpus_family(i)
            targets = {goal_index(fam)}
            sub = fam.full_subfamily()
            q = build_quotient(fam, sub)
            parent = compute_bounds(q, targets)
            left, right = split_subfamily(q, parent.min_scheduler, parent.max_scheduler)
            for child in (left, right):
                got = compute_bounds(build_quotient(fam, child), targets)
                assert (parent.lb <= got.lb + 2e-8).all()
                assert (parent.ub >= got.ub - 2e-8).all()


class TestRootMask:
    """Masks of the family's one root quotient against quotients built per subfamily."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_masked_quotient_matches_reference(self, data):
        fam = data.draw(st.sampled_from(MASK_FAMILIES))
        sub = data.draw(subfamilies(fam))
        q = build_quotient(fam, sub)
        assert_bitwise_equal(q, reference_build_quotient(fam, sub))

    def test_root_bounds_equal_full_mask_bounds(self):
        # whole-family bounds solve the root itself instead of an all-true mask
        for fam in MASK_FAMILIES + [corpus_family(i) for i in range(0, 50, 5)]:
            full = build_quotient(fam, fam.full_subfamily())
            targets = {goal_index(fam)}
            got, want = compute_bounds(fam._root, targets), compute_bounds(full, targets)
            for name in ("lb", "ub", "min_scheduler", "max_scheduler"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_root_matches_reference_of_full_family(self):
        for fam in MASK_FAMILIES:
            want = reference_build_quotient(fam, fam.full_subfamily())
            assert_bitwise_equal(root_quotient(fam), want)
            assert_bitwise_equal(fam._root, want)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_split_matches_reference_on_random_schedulers(self, data):
        fam = data.draw(st.sampled_from(MASK_FAMILIES))
        sub = data.draw(subfamilies(fam))
        if member_count(sub) < 2:
            return
        q = build_quotient(fam, sub)
        sizes = np.diff(q.state_ptr).tolist()
        scheds = [
            np.asarray([data.draw(st.integers(0, k - 1)) for k in sizes], dtype=np.int64)
            for _ in range(2)
        ]
        want = reference_split_subfamily(fam, sub, *scheds, reference_build_quotient(fam, sub))
        assert split_key(split_subfamily(q, *scheds)) == split_key(want)

    def test_split_matches_reference_down_the_refinement_tree(self):
        for fam in MASK_FAMILIES:
            targets = {goal_index(fam)}
            stack = [fam.full_subfamily()]
            while stack:
                sub = stack.pop()
                if member_count(sub) < 2:
                    continue
                q = build_quotient(fam, sub)
                bounds = compute_bounds(q, targets)
                scheds = (bounds.min_scheduler, bounds.max_scheduler)
                got = split_subfamily(q, *scheds)
                want = reference_split_subfamily(fam, sub, *scheds)
                assert split_key(got) == split_key(want)
                stack.extend(got)

    def test_reachable_states_match_reference_down_the_refinement_tree(self):
        for fam in MASK_FAMILIES:
            targets = {goal_index(fam)}
            stack = [fam.full_subfamily()]
            while stack:
                sub = stack.pop()
                q = build_quotient(fam, sub)
                bounds = compute_bounds(q, targets)
                scheds = (bounds.min_scheduler, bounds.max_scheduler)
                for sched in scheds:
                    got = _reachable_under(q, sched)
                    assert np.array_equal(got, _reference_reachable_under(q, sched))
                if member_count(sub) > 1:
                    stack.extend(split_subfamily(q, *scheds))

    def test_decode_action_matches_reference(self):
        for fam in MASK_FAMILIES[:4]:
            sub = fam.full_subfamily().restricted(0, fam.domains[0][-1:])
            q = build_quotient(fam, sub)
            for s in range(q.n_states):
                for a in range(n_actions(q, s)):
                    assert action_choice(q, s, a) == reference_decode_action(q, s, a)
            # the last action's choice ends the choice arrays
            assert q.choice_ptr[-1] == q.choice_param.size == q.choice_value.size

    def test_root_built_once_per_family(self, monkeypatch):
        import mcsynth.quotient as quotient_mod

        calls = []

        def spy(family):
            calls.append(family)
            return root_quotient(family)

        built, spec, two_targets = two_target_instance()
        family = dataclasses.replace(built)  # the same family, its root not yet built
        monkeypatch.setattr(quotient_mod, "root_quotient", spy)
        # every method gathers its member chains from the family's one root
        for method in ("ar", "hybrid", "cegis", "onebyone"):
            for bounds in ("family", "trivial"):
                for the_spec in (spec, two_targets):
                    result = synthesize(family, the_spec, method=method, bounds=bounds)
                    assert len(calls) == 1 and calls[0] is family, (method, bounds)
                    if method == "ar":
                        assert result.stats.ar_iterations > 1

    def test_one_mask_per_ar_step_for_every_target_set(self, monkeypatch):
        import mcsynth.synthesis as synthesis_mod

        calls = []
        real = synthesis_mod.build_quotient

        def spy(family, sub):
            calls.append(sub)
            return real(family, sub)

        monkeypatch.setattr(synthesis_mod, "build_quotient", spy)
        family, _spec, two_targets = two_target_instance()
        result = synthesize(family, two_targets, method="ar")
        assert len(calls) == result.stats.ar_iterations > 1

    def test_root_over_action_cap(self):
        fam = over_cap_family()
        with pytest.raises(ResourceCapError, match="cap"):
            root_quotient(fam)
        prop = Property(op=">=", threshold=0.5, targets=frozenset({1}))
        spec = Specification(properties=(prop,))
        # the cap holds for every method, since each one reads the family's root
        for method in ("ar", "hybrid", "cegis", "onebyone"):
            for bounds in ("family", "trivial"):
                with pytest.raises(ResourceCapError, match="actions"):
                    synthesize(fam, spec, method=method, bounds=bounds)
