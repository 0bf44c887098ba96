"""Solvers: chain and MDP reachability against oracles, threshold evaluation."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcsynth.reach as reach
from mcsynth import (
    DECISION_ETA,
    Property,
    QuotientMdp,
    Realization,
    evaluate_property,
    induce,
    mc_reach,
    mdp_extreme,
)

from conftest import (
    TOY_R,
    TOY_TARGET,
    TOY_VALUES,
    corpus_family,
    lane_family,
    make_mc,
    reference_pinned_reach,
    reference_reach,
    reroute,
)


def random_mc(rng: random.Random, n: int) -> QuotientMdp:
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
        want = reference_reach(mc, {4})
        assert np.allclose(got, want, atol=1e-6)

    def test_agreement_on_100_random_chains(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(3, 40)
            mc = random_mc(rng, n)
            targets = {n - 1}
            assert np.allclose(
                mc_reach(mc, targets), reference_reach(mc, targets), atol=1e-6
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
        got = mc_reach(make_mc(rows), {n - 1})
        ratio = q / p
        want = (1.0 - ratio ** np.arange(n)) / (1.0 - ratio ** (n - 1))
        assert np.max(np.abs(got - want)) <= 1e-9


class TestMcReachFixed:
    def test_pinned_states_match_rerouted_chain(self):
        """Pinning states to gamma solves the rerouted chain without building it."""
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(3, 30)
            mc = random_mc(rng, n)
            targets = {n - 1} | ({rng.randrange(n)} if rng.random() < 0.3 else set())
            expanded = {s for s in range(n) if rng.random() < 0.6}
            gamma = np.array([rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)])
            mask = np.ones(n, dtype=bool)
            mask[sorted(expanded)] = False
            got = mc_reach(mc, targets, fixed=(mask, gamma))
            want = reference_reach(reroute(mc, expanded, gamma), targets | {n})[:n]
            assert np.allclose(got, want, atol=1e-12, rtol=0.0)
            for s in np.flatnonzero(mask):
                assert got[s] == (1.0 if s in targets else gamma[s])

    def test_search_over_unpinned_states_matches_all_roots_reference(self):
        """The prob-0 search over unpinned states finds the all-roots search's unknowns."""
        rng = random.Random(11)
        chains = [random_mc(rng, rng.randint(3, 30)) for _ in range(60)]
        targets = [{mc.n_states - 1} for mc in chains]
        fam = lane_family(200, 6, 0.6, 3)
        assert fam._chunk_ids is not None and fam._chunk_ids.max() > 0
        goal = {fam.state_names.index("goal")}
        for _ in range(20):
            r = Realization(tuple(rng.choice(dom) for dom in fam.domains))
            chains.append(induce(fam, r))
            targets.append(goal)
        for mc, tset in zip(chains, targets):
            n = mc.n_states
            if rng.random() < 0.3:
                tset = tset | {rng.randrange(n)}
            for density in (0.1, 0.5, 0.9):
                mask = np.array([rng.random() < density for _ in range(n)])
                gamma = np.array([rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)])
                got = mc_reach(mc, tset, fixed=(mask, gamma))
                want = reference_pinned_reach(mc, tset, (mask, gamma))
                assert np.array_equal(got, want)

    def test_unpinned_solve_is_the_reference_with_nothing_pinned(self):
        """A member solve is the pinned solve with an empty mask, bitwise."""
        rng = random.Random(13)
        families = [corpus_family(i) for i in range(0, 50, 3)]
        families += [lane_family(80, 6, 0.6, 2), lane_family(200, 6, 0.6, 3)]
        families.append(lane_family(400, 6, 0.6, 1))
        assert sum(f._chunk_ids is not None and f.n_states >= 64 for f in families) == 3
        for fam in families:
            n, goal = fam.n_states, fam.state_names.index("goal")
            for _ in range(4):
                mc = induce(fam, Realization(tuple(rng.choice(dom) for dom in fam.domains)))
                for tset in ({goal}, {goal, rng.randrange(n)}, {fam.initial}, {rng.randrange(n)}):
                    got = mc_reach(mc, tset)
                    want = reference_pinned_reach(mc, tset, (np.zeros(n, dtype=bool), np.zeros(n)))
                    assert np.array_equal(got, want)

    def test_nothing_pinned_is_the_plain_solve(self, toy4):
        mc = induce(toy4, TOY_R[1])
        plain = mc_reach(mc, TOY_TARGET)
        pinned = mc_reach(mc, TOY_TARGET, fixed=(np.zeros(mc.n_states, dtype=bool), np.zeros(5)))
        assert np.array_equal(plain, pinned)


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
        state_ptr=np.asarray(state_ptr, dtype=np.int64),
        act_ptr=np.asarray(act_ptr, dtype=np.int64),
        ent_target=np.asarray(tgt, dtype=np.int64),
        ent_prob=np.asarray(prob, dtype=np.float64),
    )


def scheduler_chain(actions, sched) -> QuotientMdp:
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
        direct = reference_reach(scheduler_chain(actions, sched), {2})
        assert np.allclose(direct, vals, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(small_mdps())
    def test_matches_brute_force_over_memoryless_schedulers(self, actions):
        n = len(actions)
        mdp = make_mdp(actions)
        chains = [
            reference_reach(scheduler_chain(actions, sched), {n - 1})
            for sched in itertools.product(*(range(len(a)) for a in actions))
        ]
        for mode, pick in (("min", np.min), ("max", np.max)):
            vals, sched = mdp_extreme(mdp, {n - 1}, mode)
            assert np.allclose(vals, pick(chains, axis=0), atol=1e-9)
            direct = reference_reach(scheduler_chain(actions, sched), {n - 1})
            assert np.allclose(direct, vals, atol=1e-9)


class TestOneSolverLayer:
    """A chain is a quotient with one action per state, so both solvers take it."""

    def test_mc_reach_rejects_a_two_action_state(self):
        mdp = make_mdp([[{1: 1.0}], [{0: 1.0}, {1: 1.0}]])
        with pytest.raises(ValueError, match="more than one action"):
            mc_reach(mdp, {0})

    def test_mdp_extreme_on_a_chain_is_mc_reach(self):
        rng = random.Random(17)
        cases = [(random_mc(rng, n), {n - 1}) for n in range(3, 40, 3)]
        for fam in (corpus_family(3), corpus_family(20), lane_family(200, 6, 0.6, 3)):
            goal = fam.state_names.index("goal")
            for _ in range(3):
                mc = induce(fam, Realization(tuple(rng.choice(dom) for dom in fam.domains)))
                cases += [(mc, {goal}), (mc, {goal, rng.randrange(fam.n_states)})]
        for mc, tset in cases:
            want = mc_reach(mc, tset)
            for mode in ("min", "max"):
                values, policy = mdp_extreme(mc, tset, mode)
                assert values.tobytes() == want.tobytes()
                assert not policy.any()


class TestMcReachExact:
    """The dense ``reference_reach`` of ``conftest``, which the other tests trust."""

    def test_toy_r3_initial_value(self, toy4):
        mc = induce(toy4, TOY_R[3])
        assert reference_reach(mc, TOY_TARGET)[0] == pytest.approx(0.2, abs=1e-12)

    def test_absorbing_non_target_initial(self):
        mc = make_mc([{0: 1.0}, {1: 1.0}])
        assert reference_reach(mc, {1})[0] == 0.0

    def test_certain_chain(self):
        mc = make_mc([{1: 1.0}, {1: 1.0}])
        assert reference_reach(mc, {1})[0] == 1.0

    def test_shares_no_code_with_the_solvers(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("the reference called into mcsynth.reach")

        for name in ("_attractor", "_solve", "_check_targets"):
            monkeypatch.setattr(reach, name, broken)
        fam = lane_family(200, 6, 0.6, 3)
        mc = induce(fam, Realization(tuple(dom[0] for dom in fam.domains)))
        values = reference_reach(mc, {fam.state_names.index("goal")})
        assert ((values >= 0.0) & (values <= 1.0)).all()
        with pytest.raises(AssertionError, match="called into"):
            mc_reach(mc, {fam.state_names.index("goal")})


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
        for op, worse in (("<=", 1.0), (">=", -1.0)):
            prop = Property(op=op, threshold=0.3, targets=frozenset({3}))
            assert evaluate_property(0.3 + worse * 0.5 * DECISION_ETA, prop) is True
            assert evaluate_property(0.3 + worse * 2.0 * DECISION_ETA, prop) is False


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
