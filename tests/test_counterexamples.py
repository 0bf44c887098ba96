"""Rerouting, greedy conflict construction, and the exhaustive oracle.

``reroute``, ``reachable_via_holes``, ``choose_to_expand``, ``greedy_steps``
and ``reference_conflict`` are the reference rerouting from ``conftest``.
With sound bound vectors ``construct_conflict`` must reproduce its conflicts
and errors, within the bisection's budget of model checks.  On a one-chunk
family every planned step's closed-form value must be the pinned solve's.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcsynth.counterexamples as counterexamples

from mcsynth import (
    InvalidBoundsError,
    Property,
    Realization,
    SynthStats,
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
    CORPUS_CONFIGS,
    TOY_R,
    TOY_TARGET,
    chain_row,
    choose_to_expand,
    corpus_family,
    cube_of,
    enumerate_values,
    goal_index,
    greedy_steps,
    hand_chain,
    lane_family,
    pinned,
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
        stats = SynthStats()
        conflict = construct_conflict(
            induce(toy4, TOY_R[0]), SAFETY, toy_lb, scope, stats=stats
        )
        assert conflict == cube_of(TOY_R[0], {0})
        assert stats.model_checks <= 3

    def test_toy_trivial_gamma_gives_full_conflict(self, toy4):
        scope = toy4.full_subfamily()
        gamma = trivial_gamma(toy4.n_states, SAFETY)
        conflict = construct_conflict(induce(toy4, TOY_R[0]), SAFETY, gamma, scope)
        assert conflict == cube_of(TOY_R[0], {0, 1})

    def test_bound_conflict_never_larger_than_trivial_on_toy(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        with_bounds = construct_conflict(induce(toy4, TOY_R[0]), SAFETY, toy_lb, scope)
        with_trivial = construct_conflict(
            induce(toy4, TOY_R[0]), SAFETY, trivial_gamma(toy4.n_states, SAFETY), scope
        )
        assert len(with_bounds) <= len(with_trivial)

    def test_generalization_of_conflict_all_violate(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        conflict = construct_conflict(induce(toy4, TOY_R[0]), SAFETY, toy_lb, scope)
        members = generalization(conflict, scope)
        assert [m.values for m in members] == [TOY_R[0].values, TOY_R[1].values]
        for m in members:
            value = reference_reach(induce(toy4, m), TOY_TARGET)[0]
            assert not evaluate_property(value, SAFETY)

    def test_satisfying_member_rejected(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        with pytest.raises(ValueError, match="satisfies"):
            construct_conflict(induce(toy4, TOY_R[3]), SAFETY, toy_lb, scope)

    @pytest.mark.parametrize("gamma", ["bounds", "trivial"])
    def test_realization_outside_scope_rejected(self, toy4, toy_lb, gamma):
        # TOY_R[0] sets X to s1; the scope keeps only s2
        scope = toy4.full_subfamily().restricted(0, (2,))
        g = toy_lb if gamma == "bounds" else trivial_gamma(toy4.n_states, SAFETY)
        stats = SynthStats()
        with pytest.raises(ValueError, match="outside the scope"):
            construct_conflict(induce(toy4, TOY_R[0]), SAFETY, g, scope, stats=stats)
        assert stats.model_checks == 0

    def test_chain_without_realization_rejected(self, toy4, toy_lb):
        mc = induce(toy4, TOY_R[0])
        bare = hand_chain(mc.act_ptr, mc.ent_target, mc.ent_prob)
        with pytest.raises(ValueError, match="no realization"):
            construct_conflict(bare, SAFETY, toy_lb, toy4.full_subfamily())

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
            stats = SynthStats()
            conflict = construct_conflict(induce(fam, r), prop, bounds.lb, scope, stats=stats)
            assert stats.model_checks <= len(scope.multi_valued()) + 1
            members = generalization(conflict, scope)
            assert r in members
            for m in members:
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
        conflict = construct_conflict(induce(fam, r), prop, bounds.ub, scope)
        members = generalization(conflict, scope)
        assert r in members
        for m in members:
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
        stats = SynthStats()
        mc, scope = induce(toy4, TOY_R[0]), toy4.full_subfamily()
        with pytest.raises(ValueError, match=match):
            construct_conflict(mc, SAFETY, gamma, scope, stats=stats)
        assert stats.model_checks == 0


def _outcome(build, mc, prop, gamma, scope):
    """Pinned parameters, cube and model checks, or the error raised and its checks."""
    stats = SynthStats()
    try:
        conflict = build(mc, prop, gamma, scope, stats=stats)
    except (ValueError, InvalidBoundsError) as err:
        return type(err).__name__, str(err), stats.model_checks
    return pinned(conflict), conflict, stats.model_checks


def bisection_budget(mc, scope) -> int:
    """At most ceil(log2(K + 1)) + 1 checks over the steps 0..K of the greedy order."""
    k = len(greedy_steps(mc, scope)) - 1
    return math.ceil(math.log2(k + 1)) + 1


def corpus_cases(seed: int):
    """(family, member chain, property, sound gammas, random gamma) over the corpus.

    Each family gets a threshold between its two middle member values, both
    comparisons, and one satisfying and one violating member per comparison,
    each gathered from the family's one root quotient.
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
                    yield fam, induce(fam, rng.choice(rs)), prop, sound, noise


class TestAgainstReferenceRerouting:
    def test_corpus_conflicts_match_reference(self):
        kinds = {"conflict": 0, "error": 0}
        for fam, mc, prop, sound, noise in corpus_cases(61):
            scope = fam.full_subfamily()
            for gamma in sound:
                want = _outcome(reference_conflict, mc, prop, gamma, scope)
                got = _outcome(construct_conflict, mc, prop, gamma, scope)
                assert got[:2] == want[:2], (fam.n_states, prop.op, mc.sub)
                kinds["conflict" if isinstance(want[0], frozenset) else "error"] += 1
            # A random gamma bounds nothing: the conflict found need not be
            # the scan's first violating step, but its own step violates.
            got = _outcome(construct_conflict, mc, prop, noise, scope)
            kinds["conflict" if isinstance(got[0], frozenset) else "error"] += 1
            if isinstance(got[0], frozenset):
                value = rerouted_value(mc, prop, noise, scope, got[0])
                assert not evaluate_property(value, prop), (fam.n_states, prop.op, mc.sub)
            else:
                assert got[0] == "ValueError"
                assert got[1] == "member satisfies the property, no conflict exists"
                last = greedy_steps(mc, scope)[-1]
                assert evaluate_property(rerouted_value(mc, prop, noise, scope, last), prop)
        assert kinds["conflict"] >= 150 and kinds["error"] >= 50, kinds

    def test_model_checks_within_bisection_budget(self):
        cases = 0
        for fam, mc, prop, sound, noise in corpus_cases(62):
            scope = fam.full_subfamily()
            budget = bisection_budget(mc, scope)
            for gamma in sound + [noise]:
                assert _outcome(construct_conflict, mc, prop, gamma, scope)[2] <= budget
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
            mc = induce(fam, r)
            value = mc_reach(mc, goal)[fam.initial]
            prop = Property(op="<=", threshold=max(0.0, value - 0.05), targets=goal)
            steps = greedy_steps(mc, scope)
            assert len(steps) - 1 == 10
            for gamma in (np.ones(fam.n_states), trivial_gamma(fam.n_states, prop)):
                stats = SynthStats()
                conflict = construct_conflict(mc, prop, gamma, scope, stats=stats)
                assert stats.model_checks <= 5
                first = next(
                    i for i, rel in enumerate(steps)
                    if not evaluate_property(rerouted_value(mc, prop, gamma, scope, rel), prop)
                )
                assert conflict == cube_of(r, steps[first])
                firsts.add(first)
        assert min(firsts) == 0 and max(firsts) >= 6

    def test_non_monotone_gamma_still_returns_a_violating_step(self, toy4):
        # Under r0 the steps check gamma[s0], then gamma[s1], then the member
        # itself (0.8).  This gamma violates, satisfies, violates: the linear
        # scan stops at step 0, the bisection skips it and lands on step 2.
        scope = toy4.full_subfamily()
        gamma = np.array([0.9, 0.1, 0.0, 1.0, 0.0])
        mc = induce(toy4, TOY_R[0])
        assert [
            rerouted_value(mc, SAFETY, gamma, scope, rel) > SAFETY.threshold
            for rel in greedy_steps(mc, scope)
        ] == [True, False, True]
        stats = SynthStats()
        conflict = construct_conflict(mc, SAFETY, gamma, scope, stats=stats)
        assert conflict == cube_of(TOY_R[0], {0, 1})
        assert stats.model_checks == 2
        value = rerouted_value(mc, SAFETY, gamma, scope, pinned(conflict))
        assert not evaluate_property(value, SAFETY)
        assert reference_conflict(mc, SAFETY, gamma, scope) == ()


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
        mc = induce(fam, r)
        want = _outcome(reference_conflict, mc, prop, gamma, scope)
        got = _outcome(construct_conflict, mc, prop, gamma, scope)
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


# s0 moves on to s1, whose parameter Y decides whether t is reached: under
# Y = f the initial state is of prob-0 for the member.
PROB_ZERO_TEXT = """
{
  "format": "mc-family/1",
  "states": ["s0", "s1", "t", "f"],
  "initial": "s0",
  "parameters": {"A'": ["s1"], "Y": ["t", "f"], "T'": ["t"], "F'": ["f"]},
  "transitions": {
    "s0": {"A'": 1.0},
    "s1": {"Y": 1.0},
    "t": {"T'": 1.0},
    "f": {"F'": 1.0}
  }
}
"""

# The cycle s1-s2-s3 is left with probability 1e-6 per state, through X, Y
# and Z, so its states' fundamental-matrix entries reach about 3e5.
SLOW_MIXING_TEXT = """
{
  "format": "mc-family/1",
  "states": ["s0", "s1", "s2", "s3", "t", "f"],
  "initial": "s0",
  "parameters": {
    "W": ["s1", "f"], "X": ["t", "f"], "Y": ["t", "f"], "Z": ["t", "f"],
    "A'": ["s2"], "B'": ["s3"], "C'": ["s1"], "T'": ["t"], "F'": ["f"]
  },
  "transitions": {
    "s0": {"W": 0.5, "T'": 0.25, "F'": 0.25},
    "s1": {"A'": 0.999999, "X": 0.000001},
    "s2": {"B'": 0.999999, "Y": 0.000001},
    "s3": {"C'": 0.999999, "Z": 0.000001},
    "t": {"T'": 1.0},
    "f": {"F'": 1.0}
  }
}
"""


def step_values(mc, prop, gamma, scope):
    """Per planned step: the closed-form value, the direct probe's, and whether it took that path.

    The member is checked first, as the driver does, so the closed form reads
    the chain's own solve.
    """
    g = np.asarray(gamma, dtype=float)
    mc_reach(mc, prop.targets)
    position, counts, _rels, horizons = counterexamples._expansion_plan(mc, scope.multi_valued())
    value = counterexamples._step_values(mc, prop.targets, g, position, counts, horizons)
    direct = []

    def spy(chain, targets, fixed=None):
        direct.append(fixed is not None)
        return mc_reach(chain, targets, fixed)

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counterexamples, "mc_reach", spy)
        for i in range(len(counts)):
            direct.clear()
            closed = value(i)
            out.append((closed, any(direct)))
    return [
        (closed, float(mc_reach(mc, prop.targets, fixed=(position >= c, g))[mc.initial]), took)
        for (closed, took), c in zip(out, counts)
    ]


def assert_steps_agree(mc, prop, gamma, scope) -> list[bool]:
    """Every step's closed-form value is the direct probe's, decision included.

    Returns, per step, whether it took the direct probe.
    """
    steps = step_values(mc, prop, gamma, scope)
    for i, (closed, direct, _took) in enumerate(steps):
        assert abs(closed - direct) <= 1e-12, (i, closed, direct)
        assert evaluate_property(closed, prop) == evaluate_property(direct, prop), i
    return [took for _closed, _direct, took in steps]


def text_case(text, values, op, threshold, target="t"):
    fam = parse_sketch(text)
    r = Realization(tuple(fam.state_names.index(v) for v in values))
    prop = Property(op=op, threshold=threshold, targets=frozenset({fam.state_names.index(target)}))
    return fam, induce(fam, r), prop, fam.full_subfamily()


class TestClosedFormProbes:
    @given(
        index=st.integers(0, len(CORPUS_CONFIGS) - 1),
        seed=st.integers(0, 2**32),
        op=st.sampled_from(["<=", ">="]),
        threshold=st.floats(0.0, 1.0),
        bounds=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_step_matches_the_direct_probe(self, index, seed, op, threshold, bounds):
        fam = corpus_family(index)
        assert fam._chunk_ids is None
        targets = frozenset({goal_index(fam)})
        prop = Property(op=op, threshold=threshold, targets=targets)
        rng = random.Random(seed)
        r = Realization(tuple(rng.choice(dom) for dom in fam.domains))
        if bounds:
            vec = compute_bounds(build_quotient(fam, fam.full_subfamily()), targets)
            gamma = vec.lb if prop.is_safety else vec.ub
        else:
            gamma = trivial_gamma(fam.n_states, prop)
        took = assert_steps_agree(induce(fam, r), prop, gamma, fam.full_subfamily())
        if prop.is_safety:
            # lower bounds and zeros are 0 wherever the member is: no step is direct
            assert not any(took)

    def test_corpus_under_both_directions_and_gammas(self):
        closed = direct = 0
        for fam, mc, prop, sound, _noise in corpus_cases(63):
            for gamma in sound:
                took = assert_steps_agree(mc, prop, gamma, fam.full_subfamily())
                direct += sum(took)
                closed += len(took) - sum(took)
        assert closed >= 400 and direct >= 10, (closed, direct)

    def test_initial_pinned_is_gamma(self, toy4):
        gamma = np.array([0.125, 0.5, 0.0, 1.0, 0.0])
        steps = step_values(induce(toy4, TOY_R[0]), SAFETY, gamma, toy4.full_subfamily())
        assert steps[0] == (0.125, 0.125, False)

    def test_initial_target_is_one(self, toy4):
        prop = Property(op="<=", threshold=0.5, targets=frozenset({0, 3}))
        for gamma in (np.zeros(5), np.full(5, 0.25)):
            steps = step_values(induce(toy4, TOY_R[1]), prop, gamma, toy4.full_subfamily())
            assert steps == [(1.0, 1.0, False)] * len(steps)

    def test_initial_of_prob_zero(self):
        fam, mc, prop, scope = text_case(PROB_ZERO_TEXT, ("s1", "f", "t", "f"), ">=", 0.5)
        assert mc_reach(mc, prop.targets)[fam.initial] == 0.0
        # gamma 0 on s1, of prob-0 for the member: the member's own 0
        s1 = fam.state_names.index("s1")
        assert assert_steps_agree(mc, prop, np.zeros(fam.n_states), scope) == [False, False]
        assert step_values(mc, prop, np.zeros(fam.n_states), scope)[0][0] == 0.0
        # the all-ones gamma opens a path into s1 that the identity misses
        ones = trivial_gamma(fam.n_states, prop)
        assert assert_steps_agree(mc, prop, ones, scope) == [True, False]
        assert step_values(mc, prop, ones, scope)[0][:2] == (1.0, 1.0)
        assert s1 in counterexamples._expansion_plan(mc, scope.multi_valued())[3][0]

    def test_target_on_the_horizon(self):
        _fam, mc, prop, scope = text_case(TARGET_HOLE_TEXT, ("t", "t", "f"), "<=", 0.5)
        for gamma in (np.zeros(3), np.array([0.5, 0.25, 0.0])):
            assert not any(assert_steps_agree(mc, prop, gamma, scope))

    def test_expanded_cycle_without_exit(self):
        values = ("s3", "t", "s1", "s2", "s1", "t", "f")
        fam, mc, prop, scope = text_case(CLOSED_CYCLE_TEXT, values, "<=", 0.4)
        for gamma in (np.zeros(fam.n_states), np.full(fam.n_states, 0.5)):
            assert not any(assert_steps_agree(mc, prop, gamma, scope))

    @pytest.mark.parametrize("op", ["<=", ">="])
    def test_slowly_mixing_chain(self, op):
        values = ("s1", "t", "f", "t", "s2", "s3", "s1", "t", "f")
        fam, mc, prop, scope = text_case(SLOW_MIXING_TEXT, values, op, 0.5)
        vec = compute_bounds(build_quotient(fam, scope), prop.targets)
        for gamma in (vec.lb, vec.ub, trivial_gamma(fam.n_states, prop), np.full(6, 0.5)):
            assert len(assert_steps_agree(mc, prop, gamma, scope)) >= 3

    def test_multi_chunk_chains_take_the_direct_probe(self):
        fam = lane_family(240, 5, 0.6, 2)
        assert fam._chunk_ids is not None
        goal = frozenset({goal_index(fam)})
        r = Realization(tuple(dom[-1] for dom in fam.domains))
        prop = Property(op="<=", threshold=0.0, targets=goal)
        took = assert_steps_agree(induce(fam, r), prop, np.zeros(fam.n_states), fam.full_subfamily())
        assert len(took) > 1 and all(took)


class TestMinimalConflictOracle:
    def test_toy_minimum_is_x(self, toy4):
        scope = toy4.full_subfamily()
        conflict = minimal_conflict_oracle(toy4, TOY_R[0], SAFETY, scope)
        assert conflict == cube_of(TOY_R[0], {0})

    def test_all_violating_family_gives_empty_conflict(self, toy4):
        scope = toy4.full_subfamily()
        # every member reaches t with probability >= 0.2
        impossible = Property(op="<=", threshold=0.1, targets=TOY_TARGET)
        conflict = minimal_conflict_oracle(toy4, TOY_R[0], impossible, scope)
        assert conflict == ()

    def test_single_member_scope(self, toy4):
        scope = toy4.full_subfamily().restricted(0, (1,)).restricted(1, (3,))
        assert member_count(scope) == 1
        conflict = minimal_conflict_oracle(toy4, TOY_R[0], SAFETY, scope)
        assert conflict == ()

    def test_greedy_never_smaller_than_minimal(self, toy4, toy_lb):
        scope = toy4.full_subfamily()
        greedy = construct_conflict(induce(toy4, TOY_R[0]), SAFETY, toy_lb, scope)
        minimal = minimal_conflict_oracle(toy4, TOY_R[0], SAFETY, scope)
        assert len(greedy) >= len(minimal)

    def test_satisfying_member_rejected(self, toy4):
        with pytest.raises(ValueError, match="satisfies"):
            minimal_conflict_oracle(toy4, TOY_R[3], SAFETY, toy4.full_subfamily())

    def test_realization_outside_scope_rejected(self, toy4):
        # TOY_R[0] violates SAFETY but sets X to s1, which the scope leaves out
        scope = toy4.full_subfamily().restricted(0, (2,))
        with pytest.raises(ValueError, match="outside the scope"):
            minimal_conflict_oracle(toy4, TOY_R[0], SAFETY, scope)

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
