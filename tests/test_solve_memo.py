"""Chunk solves remembered within one synthesis run (``reach.solve_memo``).

Every value and scheduler computed inside a memo scope must be bitwise the
one computed outside it, and every synthesis run must behave exactly as
with the memo disabled, on multi-chunk and one-chunk families alike.  The
memo is bounded and lives for one ``synthesize`` call only.  On a one-chunk
family only AR's solves use it, its policy evaluations and leaf checks;
member checks and conflict probes there stay outside it.
"""

import numpy as np
import pytest

import mcsynth.counterexamples as counterexamples
import mcsynth.reach as reach
import mcsynth.synthesis as synthesis
from mcsynth import (
    ResourceCapError,
    construct_conflict,
    evaluate_property,
    induce,
    iterate_unpruned,
    mc_reach,
    mdp_extreme,
    synthesize,
)
from mcsynth.quotient import build_quotient, compute_bounds, split_subfamily
from mcsynth.reach import solve_memo
from mcsynth.synthesis import METHODS

from conftest import goal_index, lane_task

# (kind, states, binary parameters, rho): lane families of two to four chunks
TASKS = [
    ("window", 240, 5, 0.6),
    ("rare", 300, 5, 0.6),
    ("optimal", 200, 4, 0.6),
    ("window", 400, 4, 0.6),
]


# one-chunk lane families, below SOLVE_CHUNK states
ONE_CHUNK_TASKS = [("window", 40, 8, 0.8), ("optimal", 40, 8, 0.6)]


def task_id(cfg) -> str:
    return f"{cfg[0]}{cfg[1]}"


@pytest.fixture(scope="module", params=TASKS, ids=task_id)
def task(request):
    family, spec = lane_task(*request.param)
    assert family._chunk_ids is not None and family._chunk_ids.max() >= 1
    return family, spec


@pytest.fixture(scope="module", params=TASKS + ONE_CHUNK_TASKS, ids=task_id)
def any_task(request):
    """The multi-chunk tasks and the one-chunk ones."""
    family, spec = lane_task(*request.param)
    assert (family._chunk_ids is None) == (request.param in ONE_CHUNK_TASKS)
    return family, spec


@pytest.fixture
def dense_calls(monkeypatch):
    """``(memo, entries)`` at every dense chunk solve; checks the memo's bound."""
    calls = []
    real = reach._solve_dense

    def spy(*args):
        memo = reach._memo.get()
        size = None if memo is None else len(memo)
        assert size is None or size <= reach.MEMO_CAP
        calls.append((memo, size))
        real(*args)

    monkeypatch.setattr(reach, "_solve_dense", spy)
    return calls


def record(result):
    return result.verdict, result.realization, result.values, result.optimum, result.stats


class TestBitwise:
    def test_member_solves_in_enumeration_order(self, task, dense_calls):
        family, _spec = task
        goal = {goal_index(family)}
        chains = [induce(family, r) for r in iterate_unpruned(family.full_subfamily())]
        fresh = [mc_reach(mc, goal) for mc in chains]
        solves = len(dense_calls)
        with solve_memo():
            # twice over: the second pass is answered from the memo
            for _ in range(2):
                for mc, want in zip(chains, fresh):
                    assert np.array_equal(mc_reach(mc, goal), want)
        assert len(dense_calls) - solves < solves

    def test_every_conflict_probe(self, task, monkeypatch):
        family, spec = task
        scope = family.full_subfamily()
        cases = []
        for r in iterate_unpruned(scope):
            mc = induce(family, r)
            value = float(mc_reach(mc, spec.properties[0].targets)[family.initial])
            for prop in spec.properties:
                if not evaluate_property(value, prop):
                    gamma = counterexamples.trivial_gamma(family.n_states, prop)
                    conflict = construct_conflict(mc, prop, gamma, scope)
                    cases.append((r, prop, gamma, conflict))
        assert cases
        probes = []

        def spy(mc, targets, fixed=None):
            values = mc_reach(mc, targets, fixed)
            probes.append((mc, targets, fixed[0].copy(), fixed[1], values))
            return values

        monkeypatch.setattr(counterexamples, "mc_reach", spy)
        with solve_memo():
            for r, prop, gamma, outside in cases:
                inside = construct_conflict(induce(family, r), prop, gamma, scope)
                assert inside == outside
        monkeypatch.undo()
        for mc, targets, mask, gamma, values in probes:
            assert np.array_equal(mc_reach(mc, targets, fixed=(mask, gamma)), values)

    def test_mdp_extreme_down_a_refinement_tree(self, any_task):
        family, _spec = any_task
        goal = {goal_index(family)}
        level = [family.full_subfamily()]
        seen = []
        for _depth in range(3):
            below = []
            for sub in level:
                qmdp = build_quotient(family, sub)
                bounds = compute_bounds(qmdp, goal)
                seen.append((qmdp, bounds))
                if sub.multi_valued():
                    below += split_subfamily(qmdp, bounds.min_scheduler, bounds.max_scheduler)
            level = below
        with solve_memo():
            for qmdp, bounds in seen * 2:
                lb, min_sched = mdp_extreme(qmdp, goal, "min")
                ub, max_sched = mdp_extreme(qmdp, goal, "max")
                assert np.array_equal(lb, bounds.lb) and np.array_equal(ub, bounds.ub)
                assert np.array_equal(min_sched, bounds.min_scheduler)
                assert np.array_equal(max_sched, bounds.max_scheduler)

    @pytest.mark.parametrize("method", METHODS)
    def test_synthesis_matches_the_memo_disabled(self, any_task, method, monkeypatch):
        family, spec = any_task
        with_memo = synthesize(family, spec, method=method)
        monkeypatch.setattr(reach, "MEMO_CAP", 0)
        without = synthesize(family, spec, method=method)
        assert record(with_memo) == record(without)


class TestScope:
    def test_the_memo_never_exceeds_its_cap(self, task, dense_calls, monkeypatch):
        family, spec = task
        monkeypatch.setattr(reach, "MEMO_CAP", 3)
        synthesize(family, spec, method="onebyone")
        # the spy checked the cap at every solve, and the memo filled up
        assert max(size for _memo, size in dense_calls) == 3
        assert reach._memo.get() is None

    def test_no_entry_survives_a_run_that_raises(self, task, dense_calls, monkeypatch):
        family, spec = task

        def fail(*args, **kwargs):
            raise RuntimeError("stop")

        monkeypatch.setattr(synthesis, "construct_conflict", fail)
        with pytest.raises(RuntimeError, match="stop"):
            synthesize(family, spec, method="cegis")
        assert any(size for _memo, size in dense_calls)
        assert all(len(memo) == 0 for memo, _size in dense_calls)
        assert reach._memo.get() is None

    def test_resource_cap_leaves_no_memo(self, task, monkeypatch):
        family, spec = task
        monkeypatch.setattr(synthesis, "MEMBER_CAP", 1)
        with pytest.raises(ResourceCapError):
            synthesize(family, spec, method="onebyone")
        assert reach._memo.get() is None

    @pytest.mark.parametrize("method", METHODS)
    def test_back_to_back_runs_solve_alike(self, task, method, dense_calls):
        family, spec = task
        synthesize(family, spec, method=method)
        first = len(dense_calls)
        synthesize(family, spec, method=method)
        assert len(dense_calls) == 2 * first > 0

    def test_one_chunk_families_remember_ar_solves_only(self, dense_calls, monkeypatch):
        family, spec = lane_task("window", 40, 6, 0.6)
        assert family._chunk_ids is None
        # member checks and conflict probes: no solve ever finds an entry stored
        for method in ("onebyone", "cegis"):
            dense_calls.clear()
            synthesize(family, spec, method=method, bounds="trivial")
            assert len(dense_calls) > 1
            assert all(size == 0 for _memo, size in dense_calls)
        # AR's policy evaluations and leaf checks: stored, and some met again
        for method in ("ar", "hybrid"):
            dense_calls.clear()
            synthesize(family, spec, method=method)
            assert any(size for _memo, size in dense_calls)
            remembered = len(dense_calls)
            with monkeypatch.context() as patch:
                patch.setattr(reach, "MEMO_CAP", 0)
                dense_calls.clear()
                synthesize(family, spec, method=method)
            assert remembered < len(dense_calls)
