"""Chunk solves remembered within one synthesis run (``reach.solve_memo``).

Every value and scheduler computed inside a memo scope must be bitwise the
one computed outside it, and every synthesis run must behave exactly as
with the memo disabled.  The memo is bounded, lives for one ``synthesize``
call only, and is never used by a one-chunk family.
"""

import random

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
    parse_sketch,
    parse_spec,
    synthesize,
)
from mcsynth.quotient import build_quotient, compute_bounds, root_quotient, split_subfamily
from mcsynth.reach import solve_memo
from mcsynth.synthesis import METHODS

from conftest import _load_benchmark_families, goal_index

# (kind, states, binary parameters, rho): lane families of two to four chunks
TASKS = [
    ("window", 240, 5, 0.6),
    ("rare", 300, 5, 0.6),
    ("optimal", 200, 4, 0.6),
    ("window", 400, 4, 0.6),
]


def lane_task(kind, n_states, n_params, rho):
    task = _load_benchmark_families().make_task(
        "memo", kind, n_states, n_params, rho, (), random.Random(f"memo:{kind}:{n_states}")
    )
    family = parse_sketch(task.model.sketch_text())
    return family, parse_spec(task.spec_text, family)


@pytest.fixture(scope="module", params=TASKS, ids=lambda cfg: f"{cfg[0]}{cfg[1]}")
def task(request):
    family, spec = lane_task(*request.param)
    assert family._chunk_ids is not None and family._chunk_ids.max() >= 1
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
            value = float(mc_reach(induce(family, r), spec.properties[0].targets)[family.initial])
            for prop in spec.properties:
                if not evaluate_property(value, prop):
                    gamma = counterexamples.trivial_gamma(family.n_states, prop)
                    cases.append((r, prop, gamma, construct_conflict(family, r, prop, gamma, scope)))
        assert cases
        probes = []

        def spy(mc, targets, fixed=None):
            values = mc_reach(mc, targets, fixed)
            probes.append((mc, targets, fixed[0].copy(), fixed[1], values))
            return values

        monkeypatch.setattr(counterexamples, "mc_reach", spy)
        with solve_memo():
            for r, prop, gamma, outside in cases:
                inside = construct_conflict(family, r, prop, gamma, scope)
                assert inside.params == outside.params
        monkeypatch.undo()
        for mc, targets, mask, gamma, values in probes:
            assert np.array_equal(mc_reach(mc, targets, fixed=(mask, gamma)), values)

    def test_mdp_extreme_down_a_refinement_tree(self, task):
        family, _spec = task
        goal = {goal_index(family)}
        root = root_quotient(family)
        level = [family.full_subfamily()]
        seen = []
        for _depth in range(3):
            below = []
            for sub in level:
                qmdp = build_quotient(family, sub, root)
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
    def test_synthesis_matches_the_memo_disabled(self, task, method, monkeypatch):
        family, spec = task
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

    def test_one_chunk_families_never_touch_the_memo(self, dense_calls):
        family, spec = lane_task("window", 40, 6, 0.6)
        assert family._chunk_ids is None
        for method in METHODS:
            synthesize(family, spec, method=method)
        assert len(dense_calls) > 1
        assert all(size == 0 for _memo, size in dense_calls)
