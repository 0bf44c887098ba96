"""Behaviour lock on the benchmark suite (``benchmark/families.py``).

Every task of the three workloads, seeds 1 and 2, is run with each of its
listed drivers under the default bounds, and the run's verdict, witness,
model checks and AR and CEGIS iterations must be the pinned ones, the
record ``benchmark/run.py`` compares between runs.  A change that alters
any of them, on purpose, restates the record here and says why.  A witness
is written as the first letter of the state each multi-valued parameter
picks, in parameter order; every such domain is ``(goal, trap)``.
"""

import pytest

from mcsynth import parse_sketch, parse_spec, synthesize

from conftest import _load_benchmark_families

# (workload, seed) -> (task, driver) -> (verdict, witness, model checks,
# AR iterations, CEGIS iterations)
RECORDS = {
    ("wide-window", 1): {
        ("w40x16a", "hybrid"): ("infeasible", None, 86, 2, 14),
        ("w40x16a", "cegis"): ("infeasible", None, 84, 0, 14),
        ("w40x16b", "hybrid"): ("infeasible", None, 101, 2, 16),
        ("w40x16b", "cegis"): ("infeasible", None, 99, 0, 16),
        ("w40x16c", "hybrid"): ("infeasible", None, 158, 3, 26),
        ("w40x16c", "cegis"): ("infeasible", None, 156, 0, 26),
        ("w40x8", "onebyone"): ("infeasible", None, 256, 0, 256),
        ("w40x8", "hybrid"): ("infeasible", None, 240, 3, 54),
        ("w40x8", "cegis"): ("infeasible", None, 248, 0, 54),
        ("w40x8", "ar"): ("infeasible", None, 214, 107, 0),
    },
    ("wide-window", 2): {
        ("w40x16a", "hybrid"): ("infeasible", None, 90, 2, 14),
        ("w40x16a", "cegis"): ("infeasible", None, 89, 0, 14),
        ("w40x16b", "hybrid"): ("infeasible", None, 115, 2, 18),
        ("w40x16b", "cegis"): ("infeasible", None, 113, 0, 18),
        ("w40x16c", "hybrid"): ("infeasible", None, 138, 2, 22),
        ("w40x16c", "cegis"): ("infeasible", None, 136, 0, 22),
        ("w40x8", "onebyone"): ("infeasible", None, 256, 0, 256),
        ("w40x8", "hybrid"): ("infeasible", None, 234, 3, 53),
        ("w40x8", "cegis"): ("infeasible", None, 240, 0, 53),
        ("w40x8", "ar"): ("infeasible", None, 222, 111, 0),
    },
    ("deep-chain", 1): {
        ("d400x6w", "hybrid"): ("infeasible", None, 49, 2, 12),
        ("d400x6w", "cegis"): ("infeasible", None, 50, 0, 12),
        ("d400x6r", "hybrid"): ("feasible", "gttttt", 23, 2, 6),
        ("d400x6r", "cegis"): ("feasible", "gttttt", 23, 0, 6),
        ("d400x5o", "onebyone"): ("infeasible", None, 32, 0, 32),
        ("d400x4r", "ar"): ("feasible", "tttt", 19, 9, 0),
    },
    ("deep-chain", 2): {
        ("d400x6w", "hybrid"): ("infeasible", None, 49, 2, 12),
        ("d400x6w", "cegis"): ("infeasible", None, 50, 0, 12),
        ("d400x6r", "hybrid"): ("feasible", "gttttt", 23, 2, 6),
        ("d400x6r", "cegis"): ("feasible", "gttttt", 23, 0, 6),
        ("d400x5o", "onebyone"): ("infeasible", None, 32, 0, 32),
        ("d400x4r", "ar"): ("feasible", "tttt", 19, 9, 0),
    },
    ("optimal", 1): {
        ("o48x12a", "hybrid"): ("optimal", "tggttttttttg", 385, 4, 91),
        ("o48x12a", "cegis"): ("optimal", "tggttttttttg", 446, 0, 100),
        ("o48x12b", "hybrid"): ("optimal", "tgtggggtttgt", 466, 5, 110),
        ("o48x12b", "cegis"): ("optimal", "tgtggggtttgt", 521, 0, 117),
        ("o40x8", "onebyone"): ("optimal", "tgtgggtt", 256, 0, 256),
        ("o40x8", "hybrid"): ("optimal", "tgtgggtt", 73, 2, 23),
        ("o40x8", "cegis"): ("optimal", "tgtgggtt", 71, 0, 22),
        ("o40x8", "ar"): ("optimal", "tgtgggtt", 606, 401, 0),
    },
    ("optimal", 2): {
        ("o48x12a", "hybrid"): ("optimal", "ggtggtgtggtt", 433, 5, 99),
        ("o48x12a", "cegis"): ("optimal", "ggtggtgtggtt", 459, 0, 101),
        ("o48x12b", "hybrid"): ("optimal", "tgtggttgttgt", 402, 4, 93),
        ("o48x12b", "cegis"): ("optimal", "tgtggttgttgt", 432, 0, 96),
        ("o40x8", "onebyone"): ("optimal", "gttgggtt", 256, 0, 256),
        ("o40x8", "hybrid"): ("optimal", "gttgggtt", 72, 2, 21),
        ("o40x8", "cegis"): ("optimal", "gttgggtt", 70, 0, 20),
        ("o40x8", "ar"): ("optimal", "gttgggtt", 600, 397, 0),
    },
}


@pytest.mark.parametrize("workload, seed", list(RECORDS), ids=lambda v: str(v))
def test_benchmark_records_are_pinned(workload, seed):
    got = {}
    for task in _load_benchmark_families().make_workload(workload, seed):
        family = parse_sketch(task.model.sketch_text())
        spec = parse_spec(task.spec_text, family)
        multi = [k for k, dom in enumerate(family.domains) if len(dom) > 1]
        assert all(
            [family.state_names[v] for v in family.domains[k]] == ["goal", "trap"] for k in multi
        )
        for driver in task.drivers:
            result = synthesize(family, spec, method=driver)
            witness = None
            if result.realization is not None:
                values = result.realization.values
                witness = "".join(family.state_names[values[k]][0] for k in multi)
            stats = result.stats
            got[task.name, driver] = (
                result.verdict,
                witness,
                stats.model_checks,
                stats.ar_iterations,
                stats.cegis_iterations,
            )
    assert got == RECORDS[workload, seed]
