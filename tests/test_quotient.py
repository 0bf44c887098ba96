"""Quotient construction, bounds soundness, refinement splitting."""

import numpy as np
import pytest

from mcsynth import (
    Subfamily,
    build_quotient,
    compute_bounds,
    induce,
    iterate_unpruned,
    mc_reach,
    mc_reach_exact,
    mdp_extreme,
    member_count,
    split_subfamily,
)

from conftest import TOY_R, TOY_TARGET, corpus_family, goal_index


def sub_singleton(toy4, member):
    return Subfamily(tuple((v,) for v in member.values))


class TestBuildQuotient:
    def test_toy_state_s1_has_two_actions(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        assert q.n_actions(1) == 2
        tgt0, prb0 = q.action_row(1, 0)
        tgt1, prb1 = q.action_row(1, 1)
        # Y=t merges with the loop parameter: [t -> 0.8, f -> 0.2]
        assert list(tgt0) == [3, 4] and np.allclose(prb0, [0.8, 0.2])
        assert list(tgt1) == [3, 4] and np.allclose(prb1, [0.6, 0.4])

    def test_toy_state_s0_actions_follow_domain_order(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        assert q.n_actions(0) == 2
        tgt0, prb0 = q.action_row(0, 0)
        tgt1, prb1 = q.action_row(0, 1)
        assert list(tgt0) == [1] and prb0[0] == pytest.approx(1.0)
        assert list(tgt1) == [2] and prb1[0] == pytest.approx(1.0)

    def test_action_count_is_domain_product(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        assert [q.n_actions(s) for s in range(5)] == [2, 2, 2, 1, 1]

    def test_singleton_subfamily_matches_induced_chain(self, toy4):
        for i in range(4):
            sub = sub_singleton(toy4, TOY_R[i])
            q = build_quotient(toy4, sub)
            mc = induce(toy4, TOY_R[i])
            for s in range(toy4.n_states):
                assert q.n_actions(s) == 1
                tgt, prb = q.action_row(s, 0)
                assert tuple(tgt) == mc.rows[s].keys
                assert np.allclose(prb, mc.rows[s].probs)

    def test_every_member_is_embedded(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        for i in range(4):
            mc = induce(toy4, TOY_R[i])
            for s in range(toy4.n_states):
                rows = [
                    (tuple(q.action_row(s, a)[0]), tuple(q.action_row(s, a)[1]))
                    for a in range(q.n_actions(s))
                ]
                assert (mc.rows[s].keys, mc.rows[s].probs) in rows

    def test_decode_action_round_trips(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        choice0 = q.decode_action(1, 0)
        choice1 = q.decode_action(1, 1)
        assert choice0[1] == 3 and choice1[1] == 4  # Y = t then Y = f

    def test_action_count_cap(self):
        from mcsynth.errors import ResourceCapError
        from mcsynth.model import Distribution, Family

        n_params = 7
        # one state referencing 7 parameters with 8-value domains: 8**7 actions
        fam = Family(
            state_names=tuple(f"s{i}" for i in range(9)),
            initial=0,
            param_names=tuple(f"p{k}" for k in range(n_params)),
            domains=tuple(tuple(range(1, 9)) for _ in range(n_params)),
            templates=(
                Distribution({k: 1.0 / n_params for k in range(n_params - 1)}
                             | {n_params - 1: 1.0 - (n_params - 1) / n_params}),
            ) + tuple(Distribution({k % n_params: 1.0}) for k in range(8)),
        )
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
        from mcsynth.model import Distribution, Mc

        rows = []
        for s in range(q.n_states):
            tgt, prb = q.action_row(s, int(sched[s]))
            rows.append(Distribution(dict(zip(map(int, tgt), map(float, prb)))))
        return Mc(initial=q.initial, rows=tuple(rows))

    def test_scheduler_attains_value(self, toy4):
        q = build_quotient(toy4, toy4.full_subfamily())
        for mode in ("min", "max"):
            vals, sched = mdp_extreme(q, TOY_TARGET, mode)
            direct = mc_reach_exact(self._scheduler_chain(q, sched), TOY_TARGET)
            assert abs(direct[0] - vals[0]) <= 2e-8

    def test_scheduler_consistency_on_random_quotients(self):
        for i in (1, 8, 14):
            fam = corpus_family(i)
            q = build_quotient(fam, fam.full_subfamily())
            targets = {goal_index(fam)}
            for mode in ("min", "max"):
                vals, sched = mdp_extreme(q, targets, mode)
                direct = mc_reach_exact(self._scheduler_chain(q, sched), targets)
                assert abs(direct[q.initial] - vals[q.initial]) <= 2e-8


class TestComputeBounds:
    def test_toy_family_lower_bounds(self, toy4):
        bounds = compute_bounds(toy4, toy4.full_subfamily(), TOY_TARGET)
        assert np.allclose(bounds.lb, [0.2, 0.6, 0.2, 1.0, 0.0], atol=1e-6)

    def test_toy_family_upper_bound_at_initial(self, toy4):
        bounds = compute_bounds(toy4, toy4.full_subfamily(), TOY_TARGET)
        assert bounds.ub[0] == pytest.approx(0.8, abs=1e-6)

    def test_singleton_bounds_collapse_to_member_value(self, toy4):
        sub = sub_singleton(toy4, TOY_R[3])
        bounds = compute_bounds(toy4, sub, TOY_TARGET)
        assert bounds.lb[0] == pytest.approx(0.2, abs=2e-8)
        assert bounds.ub[0] == pytest.approx(0.2, abs=2e-8)

    def test_bounds_cached_on_subfamily(self, toy4):
        sub = toy4.full_subfamily()
        first = compute_bounds(toy4, sub, TOY_TARGET)
        second = compute_bounds(toy4, sub, TOY_TARGET)
        assert first is second

    def test_sandwich_on_random_family(self):
        fam = corpus_family(2)
        sub = fam.full_subfamily()
        targets = {goal_index(fam)}
        bounds = compute_bounds(fam, sub, targets)
        for r in iterate_unpruned(sub):
            vals = mc_reach_exact(induce(fam, r), targets)
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
                bounds = compute_bounds(fam, sub, targets)
                assert (bounds.lb <= bounds.ub + 1e-12).all()
                if member_count(sub) == 1:
                    assert np.array_equal(bounds.lb, bounds.ub)
                else:
                    stack.extend(split_subfamily(
                        fam, sub, bounds.min_scheduler, bounds.max_scheduler, bounds.quotient
                    ))

    def test_crossed_bounds_raise(self, toy4, monkeypatch):
        import mcsynth.quotient as quotient_mod
        from mcsynth.errors import InvalidBoundsError

        real = quotient_mod.mdp_extreme

        def skewed(qmdp, targets, mode):
            vals, sched = real(qmdp, targets, mode)
            return (vals - 1e-6 if mode == "max" else vals), sched

        monkeypatch.setattr(quotient_mod, "mdp_extreme", skewed)
        with pytest.raises(InvalidBoundsError, match="below lower bound"):
            compute_bounds(toy4, toy4.full_subfamily(), TOY_TARGET)


class TestSplitSubfamily:
    def test_toy_split_separates_initial_choice(self, toy4):
        sub = toy4.full_subfamily()
        bounds = compute_bounds(toy4, sub, TOY_TARGET)
        left, right = split_subfamily(
            toy4, sub, bounds.min_scheduler, bounds.max_scheduler, bounds.quotient
        )
        assert left.domains[0] == (1,) and right.domains[0] == (2,)
        assert left.domains[1] == right.domains[1] == sub.domains[1]

    def test_two_member_subfamily_splits_into_singletons(self, toy4):
        sub = toy4.full_subfamily().restricted(0, (2,))
        bounds = compute_bounds(toy4, sub, TOY_TARGET)
        left, right = split_subfamily(
            toy4, sub, bounds.min_scheduler, bounds.max_scheduler, bounds.quotient
        )
        assert member_count(left) == member_count(right) == 1

    def test_consistent_schedulers_fall_back_to_largest_domain(self, toy4):
        sub = toy4.full_subfamily()
        q = build_quotient(toy4, sub)
        same = np.zeros(toy4.n_states, dtype=np.int64)
        left, right = split_subfamily(toy4, sub, same, same, q)
        # X is the smallest-index largest domain; halved by value order
        assert left.domains[0] == (1,) and right.domains[0] == (2,)

    def test_partition_property(self):
        fam = corpus_family(4)
        sub = fam.full_subfamily()
        targets = {goal_index(fam)}
        bounds = compute_bounds(fam, sub, targets)
        left, right = split_subfamily(
            fam, sub, bounds.min_scheduler, bounds.max_scheduler, bounds.quotient
        )
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
            split_subfamily(toy4, sub, zero, zero, q)


class TestRefinementProperties:
    def test_split_tightens_bounds_monotonically(self):
        for i in (0, 6, 11):
            fam = corpus_family(i)
            targets = {goal_index(fam)}
            sub = fam.full_subfamily()
            parent = compute_bounds(fam, sub, targets)
            left, right = split_subfamily(
                fam, sub, parent.min_scheduler, parent.max_scheduler, parent.quotient
            )
            for child in (left, right):
                got = compute_bounds(fam, child, targets)
                assert (parent.lb <= got.lb + 2e-8).all()
                assert (parent.ub >= got.ub - 2e-8).all()
