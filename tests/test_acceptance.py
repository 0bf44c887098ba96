"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected number is either taken from the worked five-state example or
computed by an independent oracle (exhaustive enumeration with the exact
linear solver) inside the test.  Tolerances: bounds get 2e-8 slack against
the oracle, decision tolerance eta 1e-6.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mcsynth import (
    Objective,
    Property,
    Realization,
    Specification,
    SynthStats,
    build_quotient,
    compute_bounds,
    construct_conflict,
    evaluate_property,
    generalization,
    induce,
    iterate_unpruned,
    mc_reach,
    member_count,
    split_subfamily,
    synthesize,
    trivial_gamma,
)
from mcsynth.report import ce_quality_report

from conftest import (
    TOY_R,
    TOY_TARGET,
    _gap_threshold,
    corpus_family,
    cube_of,
    enumerate_values,
    goal_index,
    make_instance,
    reference_reach,
)

SLACK = 2e-8


@contextmanager
def criterion(num: int, name: str):
    ok = False
    started = time.perf_counter()
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        print(f"\n[{status}] criterion {num}: {name} ({elapsed:.2f}s)")


@pytest.fixture(scope="session")
def golden_runs(toy4):
    """Criterion 1 computations, shared with the budget check of criterion 7."""
    start = time.perf_counter()
    scope = toy4.full_subfamily()
    bounds = compute_bounds(build_quotient(toy4, scope), TOY_TARGET)
    values = {
        i: float(mc_reach(induce(toy4, TOY_R[i]), TOY_TARGET)[0]) for i in range(4)
    }
    prop = Property(op="<=", threshold=0.3, targets=TOY_TARGET)
    stats_bounds = SynthStats()
    with_bounds = construct_conflict(
        induce(toy4, TOY_R[0]), prop, bounds.lb, scope, stats=stats_bounds
    )
    stats_trivial = SynthStats()
    with_trivial = construct_conflict(
        induce(toy4, TOY_R[0]), prop, trivial_gamma(toy4.n_states, prop), scope, stats=stats_trivial
    )
    gen = generalization(with_bounds, scope)
    verdict = synthesize(toy4, Specification(properties=(prop,)), method="hybrid")
    elapsed = time.perf_counter() - start
    budgets = [
        (stats_bounds.model_checks, len(scope.multi_valued()) + 1),
        (stats_trivial.model_checks, len(scope.multi_valued()) + 1),
    ]
    return {
        "values": values,
        "lb": bounds.lb,
        "with_bounds": with_bounds,
        "with_trivial": with_trivial,
        "generalization": gen,
        "verdict": verdict,
        "elapsed": elapsed,
        "budgets": budgets,
    }


@pytest.fixture(scope="session")
def conflict_validity_runs():
    """Criterion 4 corpus: 100 violating (family, member, property, scope) runs.

    Half the scopes are genuine subfamilies (one parameter restricted), the
    rest the full family; direction alternates between safety and liveness.
    Shared with the budget check of criterion 7.
    """
    runs = []
    rng = random.Random("conflict-validity")
    fam_idx = 0
    while len(runs) < 100:
        family = corpus_family(fam_idx)
        fam_idx += 1
        scope = family.full_subfamily()
        if len(runs) % 2 == 1:
            multi = scope.multi_valued()
            if multi:
                k = rng.choice(multi)
                dom = scope.domains[k]
                keep = sorted(rng.sample(dom, rng.randint(max(1, len(dom) // 2), len(dom))))
                scope = scope.restricted(k, keep)
        targets = frozenset({goal_index(family)})
        values = {
            r.values: float(reference_reach(induce(family, r), targets)[family.initial])
            for r in iterate_unpruned(scope)
        }
        thr = _gap_threshold(list(values.values()), rng.uniform(0.2, 0.8))
        if thr is None:
            continue
        op = "<=" if len(runs) % 3 else ">="
        prop = Property(op=op, threshold=thr, targets=targets)
        violators = [v for v, val in values.items() if not evaluate_property(val, prop)]
        if not violators:
            continue
        bounds = compute_bounds(build_quotient(family, scope), targets)
        gamma = bounds.lb if prop.op == "<=" else bounds.ub
        r = Realization(rng.choice(violators))
        stats = SynthStats()
        conflict = construct_conflict(induce(family, r), prop, gamma, scope, stats=stats)
        runs.append(
            {
                "family": family,
                "scope": scope,
                "prop": prop,
                "reference": r,
                "conflict": conflict,
                "values": values,
                "budget": (stats.model_checks, len(scope.multi_valued()) + 1),
            }
        )
    return runs


def test_criterion_1_golden_example(toy4, golden_runs):
    with criterion(1, "golden example values, bounds, conflicts, verdict"):
        g = golden_runs
        for i, expected in {0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2}.items():
            assert g["values"][i] == pytest.approx(expected, abs=1e-6)
        assert np.allclose(g["lb"], [0.2, 0.6, 0.2, 1.0, 0.0], atol=1e-6)
        assert g["with_bounds"] == cube_of(TOY_R[0], {0})
        assert g["with_trivial"] == cube_of(TOY_R[0], {0, 1})
        assert [m.values for m in g["generalization"]] == [
            TOY_R[0].values,
            TOY_R[1].values,
        ]
        assert g["verdict"].verdict == "feasible"
        assert g["verdict"].realization == TOY_R[3]
        assert g["elapsed"] < 1.0


def test_criterion_2_bounds_soundness(corpus):
    with criterion(2, "quotient bounds bracket enumerated extremes (50 families)"):
        start = time.perf_counter()
        for family in corpus:
            targets = frozenset({goal_index(family)})
            sub = family.full_subfamily()
            bounds = compute_bounds(build_quotient(family, sub), targets)
            lo = np.ones(family.n_states)
            hi = np.zeros(family.n_states)
            for r in iterate_unpruned(sub):
                vals = reference_reach(induce(family, r), targets)
                np.minimum(lo, vals, out=lo)
                np.maximum(hi, vals, out=hi)
            assert (bounds.lb - SLACK <= lo).all()
            assert (hi <= bounds.ub + SLACK).all()
        assert time.perf_counter() - start < 60.0


def test_criterion_3_refinement_monotonicity_and_singleton_exactness():
    with criterion(3, "split paths tighten bounds; singleton bounds collapse"):
        runs = 0
        i = 0
        while runs < 20:
            want = "mixed" if runs % 2 == 0 else "infeasible"
            family, spec, _values = make_instance(i, want)
            i += 1
            if member_count(family.full_subfamily()) > 256:
                continue
            runs += 1
            prop = spec.properties[0]
            eta = 1e-6
            stack = [family.full_subfamily()]
            while stack:
                sub = stack.pop()
                qmdp = build_quotient(family, sub)
                bounds = compute_bounds(qmdp, prop.targets)
                if member_count(sub) == 1:
                    assert (np.abs(bounds.lb - bounds.ub) <= SLACK).all()
                    member = next(iterate_unpruned(sub))
                    direct = mc_reach(induce(family, member), prop.targets)
                    assert (np.abs(bounds.lb - direct) <= SLACK).all()
                    continue
                lo, hi = bounds.lb[family.initial], bounds.ub[family.initial]
                if prop.op == "<=" and (hi <= prop.threshold + eta or lo > prop.threshold + eta):
                    continue
                if prop.op == ">=" and (lo >= prop.threshold - eta or hi < prop.threshold - eta):
                    continue
                left, right = split_subfamily(qmdp, bounds.min_scheduler, bounds.max_scheduler)
                for child in (left, right):
                    child_q = build_quotient(family, child)
                    child_bounds = compute_bounds(child_q, prop.targets)
                    assert (bounds.lb <= child_bounds.lb + SLACK).all()
                    assert (bounds.ub >= child_bounds.ub - SLACK).all()
                    stack.append(child)


def test_criterion_4_conflict_validity(conflict_validity_runs):
    with criterion(4, "every member of a scoped conflict generalization violates"):
        assert len(conflict_validity_runs) == 100
        for run in conflict_validity_runs:
            conflict, prop = run["conflict"], run["prop"]
            members = generalization(conflict, run["scope"])
            assert run["reference"] in members
            for m in members:
                value = run["values"][m.values]
                assert not evaluate_property(value, prop), "satisfying member pruned"


def test_criterion_5_method_agreement():
    with criterion(5, "four methods agree on 30 instances; infeasible fully accounted"):
        for i in range(30):
            want = "mixed" if i % 2 == 0 else "infeasible"
            family, spec, values = make_instance(i, want)
            total = member_count(family.full_subfamily())
            results = {
                "onebyone": synthesize(family, spec, method="onebyone"),
                "cegis": synthesize(family, spec, method="cegis", bounds="family"),
                "ar": synthesize(family, spec, method="ar"),
                "hybrid": synthesize(family, spec, method="hybrid"),
            }
            verdicts = {name: r.verdict for name, r in results.items()}
            assert len(set(verdicts.values())) == 1, (i, verdicts)
            expected = "feasible" if want == "mixed" else "infeasible"
            assert verdicts["onebyone"] == expected
            for name, result in results.items():
                if result.verdict == "feasible":
                    witness_vals = values[result.realization.values]
                    for prop in spec.properties:
                        assert evaluate_property(witness_vals, prop), (i, name)
                else:
                    stats = result.stats
                    assert stats.pruned + stats.checked == total, (i, name, stats)


def test_criterion_6_optimal_synthesis():
    with criterion(6, "exact optimum matches brute force; relaxed within factor"):
        done = 0
        i = 0
        while done < 10:
            family, spec, values = make_instance(i, "mixed")
            i += 1
            base = spec.properties[0]
            sat_values = [
                v for v in values.values() if evaluate_property(v, base)
            ]
            if not sat_values:
                continue
            direction = "min" if done % 2 == 0 else "max"
            brute = min(sat_values) if direction == "min" else max(sat_values)
            exact_spec = Specification(
                properties=(base,),
                objective=Objective(direction=direction, targets=base.targets),
            )
            result = synthesize(family, exact_spec, method="hybrid")
            assert result.verdict == "optimal"
            assert abs(result.optimum - brute) <= 1e-6
            relaxed_spec = Specification(
                properties=(base,),
                objective=Objective(direction=direction, targets=base.targets, epsilon=0.05),
            )
            relaxed = synthesize(family, relaxed_spec, method="hybrid")
            assert relaxed.verdict == "optimal"
            if direction == "min":
                assert relaxed.optimum <= brute * 1.05 + 1e-9
            else:
                assert relaxed.optimum >= brute * 0.95 - 1e-9
            done += 1


def test_criterion_7_ce_model_check_budget(golden_runs, conflict_validity_runs):
    with criterion(7, "conflict construction stays within multi-valued-count + 1 checks"):
        budgets = list(golden_runs["budgets"])
        budgets.extend(run["budget"] for run in conflict_validity_runs)
        assert len(budgets) >= 100
        for used, allowed in budgets:
            assert used <= allowed


def test_criterion_8_quality_direction(corpus):
    with criterion(8, "family bounds give conflicts no worse than trivial bounds"):
        family_rows: list[float] = []
        trivial_rows: list[float] = []
        reported = 0
        for idx, family in enumerate(corpus):
            targets = frozenset({goal_index(family)})
            values = enumerate_values(family, targets)
            thr = _gap_threshold(list(values.values()), 0.6)
            if thr is None:
                continue
            spec = Specification(
                properties=(Property(op="<=", threshold=thr, targets=targets),)
            )
            with_family = ce_quality_report(family, spec, mode="family")
            with_trivial = ce_quality_report(family, spec, mode="trivial")
            assert len(with_family.rows) == len(with_trivial.rows)
            if not with_family.rows:
                continue
            assert all(0.0 < row.ratio <= 1.0 for row in with_family.rows)
            assert all(0.0 < row.ratio <= 1.0 for row in with_trivial.rows)
            family_rows.extend(row.ratio for row in with_family.rows)
            trivial_rows.extend(row.ratio for row in with_trivial.rows)
            reported += 1
        assert reported >= 30, f"only {reported} families produced violators"
        mean_family = sum(family_rows) / len(family_rows)
        mean_trivial = sum(trivial_rows) / len(trivial_rows)
        print(
            f"\n  corpus CE quality: family={mean_family:.4f} "
            f"trivial={mean_trivial:.4f} over {len(family_rows)} conflicts"
        )
        assert mean_family <= mean_trivial + 1e-12
