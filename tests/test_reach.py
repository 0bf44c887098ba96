"""Solvers: chain and MDP reachability against oracles, threshold evaluation."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsynth import (
    Mc,
    Property,
    QuotientMdp,
    Realization,
    evaluate_property,
    induce,
    mc_reach,
    mc_reach_exact,
    mdp_extreme,
)
from mcsynth.errors import ResourceCapError

from conftest import TOY_R, TOY_TARGET, TOY_VALUES, corpus_family, make_mc


def random_mc(rng: random.Random, n: int) -> Mc:
    """Random chain with a reachable absorbing target at index n-1."""
    rows = []
    for s in range(n - 1):
        degree = rng.randint(1, min(4, n))
        succs = rng.sample(range(n), degree)
        weights = [rng.randint(1, 8) for _ in succs]
        # integer-ratio rows: float rounding stays far below the 1e-9 sum check
        total = sum(weights)
        rows.append({t: w / total for t, w in zip(succs, weights)})
    rows.append({n - 1: 1.0})
    return make_mc(rows)


class TestMcReach:
    def test_toy_member_values(self, toy4):
        for i, expected in TOY_VALUES.items():
            mc = induce(toy4, TOY_R[i])
            value = mc_reach(mc, TOY_TARGET)[toy4.initial]
            assert value == pytest.approx(expected, abs=1e-8)

    def test_target_state_is_exactly_one(self, toy4):
        mc = induce(toy4, TOY_R[0])
        assert mc_reach(mc, TOY_TARGET)[3] == 1.0

    def test_unreachable_state_is_exactly_zero(self, toy4):
        mc = induce(toy4, TOY_R[0])
        # f is absorbing and not a target
        assert mc_reach(mc, TOY_TARGET)[4] == 0.0

    def test_matches_exact_on_small_random_chain(self):
        rng = random.Random(4)
        mc = random_mc(rng, 5)
        got = mc_reach(mc, {4})
        want = mc_reach_exact(mc, {4})
        assert np.allclose(got, want, atol=1e-6)

    def test_agreement_on_100_random_chains(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(3, 40)
            mc = random_mc(rng, n)
            targets = {n - 1}
            assert np.allclose(
                mc_reach(mc, targets), mc_reach_exact(mc, targets), atol=1e-6
            )

    def test_empty_target_rejected(self, toy4):
        mc = induce(toy4, TOY_R[0])
        with pytest.raises(ValueError, match="non-empty"):
            mc_reach(mc, set())

    def test_gamblers_ruin_matches_closed_form(self):
        # 400 states, fair-ish walk: a slowly mixing chain where a stop rule
        # on the last sweep's change understates the error.
        n, p = 400, 0.49
        q = 1.0 - p
        rows = [{0: 1.0}]
        rows += [{i - 1: q, i + 1: p} for i in range(1, n - 1)]
        rows.append({n - 1: 1.0})
        got = mc_reach(make_mc(rows, initial=n // 2), {n - 1})
        ratio = q / p
        want = (1.0 - ratio ** np.arange(n)) / (1.0 - ratio ** (n - 1))
        assert np.max(np.abs(got - want)) <= 1e-9


def make_mdp(actions) -> QuotientMdp:
    """MDP from a list, per state, of actions given as ``{target: prob}`` dicts."""
    state_ptr, act_ptr, tgt, prob = [0], [0], [], []
    for acts in actions:
        for act in acts:
            for t in sorted(act):
                tgt.append(t)
                prob.append(act[t])
            act_ptr.append(len(tgt))
        state_ptr.append(len(act_ptr) - 1)
    return QuotientMdp(
        family=None,
        sub=None,
        initial=0,
        n_states=len(actions),
        state_ptr=np.asarray(state_ptr, dtype=np.int64),
        act_ptr=np.asarray(act_ptr, dtype=np.int64),
        ent_target=np.asarray(tgt, dtype=np.int64),
        ent_prob=np.asarray(prob, dtype=np.float64),
        supp=(),
    )


def scheduler_chain(actions, sched) -> Mc:
    return make_mc([acts[a] for acts, a in zip(actions, sched)])


@st.composite
def small_mdps(draw):
    """Up to 6 states with up to 3 actions each; state n-1 is the target."""
    n = draw(st.integers(2, 6))
    actions = []
    for _ in range(n):
        acts = []
        for _ in range(draw(st.integers(1, 3))):
            succ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            weights = [draw(st.integers(1, 8)) for _ in succ]
            acts.append({t: w / sum(weights) for t, w in zip(succ, weights)})
        actions.append(acts)
    return actions


class TestMdpExtremeOracles:
    def test_max_scheduler_avoids_tied_end_component(self):
        # States 0 and 1 can bounce between each other forever; with exact
        # values that bounce ties with the exit of state 1 at the optimum.
        actions = [
            [{1: 1.0}, {2: 0.3, 3: 0.7}],
            [{0: 1.0}, {2: 0.6, 3: 0.4}],
            [{2: 1.0}],
            [{3: 1.0}],
        ]
        vals, sched = mdp_extreme(make_mdp(actions), {2}, "max")
        assert np.allclose(vals, [0.6, 0.6, 1.0, 0.0], atol=1e-12)
        direct = mc_reach_exact(scheduler_chain(actions, sched), {2})
        assert np.allclose(direct, vals, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(small_mdps())
    def test_matches_brute_force_over_memoryless_schedulers(self, actions):
        n = len(actions)
        mdp = make_mdp(actions)
        chains = [
            mc_reach_exact(scheduler_chain(actions, sched), {n - 1})
            for sched in itertools.product(*(range(len(a)) for a in actions))
        ]
        for mode, pick in (("min", np.min), ("max", np.max)):
            vals, sched = mdp_extreme(mdp, {n - 1}, mode)
            assert np.allclose(vals, pick(chains, axis=0), atol=1e-9)
            direct = mc_reach_exact(scheduler_chain(actions, sched), {n - 1})
            assert np.allclose(direct, vals, atol=1e-9)


class TestMcReachExact:
    def test_toy_r3_initial_value(self, toy4):
        mc = induce(toy4, TOY_R[3])
        assert mc_reach_exact(mc, TOY_TARGET)[0] == pytest.approx(0.2, abs=1e-12)

    def test_absorbing_non_target_initial(self):
        mc = make_mc([{0: 1.0}, {1: 1.0}])
        assert mc_reach_exact(mc, {1})[0] == 0.0

    def test_certain_chain(self):
        mc = make_mc([{1: 1.0}, {1: 1.0}])
        assert mc_reach_exact(mc, {1})[0] == 1.0

    def test_state_cap_enforced(self):
        n = 2001
        rows = [{min(s + 1, n - 1): 1.0} for s in range(n)]
        with pytest.raises(ResourceCapError):
            mc_reach_exact(make_mc(rows), {n - 1})


class TestEvaluate:
    def test_violating_value(self):
        prop = Property(op="<=", threshold=0.3, targets=frozenset({3}))
        assert evaluate_property(0.8, prop) is False

    def test_value_exactly_at_threshold_is_sat(self):
        prop = Property(op="<=", threshold=0.3, targets=frozenset({3}))
        assert evaluate_property(0.3, prop) is True
        live = Property(op=">=", threshold=0.3, targets=frozenset({3}))
        assert evaluate_property(0.3, live) is True

    def test_satisfying_value(self):
        prop = Property(op="<=", threshold=0.3, targets=frozenset({3}))
        assert evaluate_property(0.2, prop) is True

    def test_liveness_direction(self):
        prop = Property(op=">=", threshold=0.5, targets=frozenset({1}))
        assert evaluate_property(0.7, prop) is True
        assert evaluate_property(0.2, prop) is False

    def test_eta_gives_slack(self):
        prop = Property(op="<=", threshold=0.3, targets=frozenset({3}))
        assert evaluate_property(0.3 + 5e-7, prop, eta=1e-6) is True
        assert evaluate_property(0.3 + 5e-7, prop, eta=0.0) is False


class TestCorpusChains:
    def test_generated_members_solve_cleanly(self):
        fam = corpus_family(1)
        rng = random.Random(8)
        goal = fam.state_names.index("goal")
        for _ in range(5):
            r = Realization(tuple(rng.choice(dom) for dom in fam.domains))
            mc = induce(fam, r)
            vals = mc_reach(mc, {goal})
            assert ((vals >= 0.0) & (vals <= 1.0)).all()
            assert vals[goal] == 1.0
