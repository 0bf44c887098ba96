"""Shared fixtures: the five-state golden family and a seeded random corpus.

The golden family has two effective choices (X routes the initial state,
Y splits probability mass between the two absorbing ends) and two fixed
loop parameters, giving four members with initial-state reachability
values 0.8, 0.6, 0.4, 0.2 toward state ``t``.

Random instances come from the benchmark generator; expected values are
always produced by exhaustive enumeration with the exact linear solver, so
the oracles stay independent of the iterative code paths under test.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from mcsynth import (
    Family,
    Mc,
    Property,
    Realization,
    Specification,
    generate_benchmark,
    induce,
    iterate_unpruned,
    mc_reach_exact,
    parse_sketch,
)

TOY4_TEXT = """
{
  "format": "mc-family/1",
  "states": ["s0", "s1", "s2", "t", "f"],
  "initial": "s0",
  "parameters": {
    "X": ["s1", "s2"],
    "Y": ["t", "f"],
    "T'": ["t"],
    "F'": ["f"]
  },
  "transitions": {
    "s0": {"X": 1.0},
    "s1": {"T'": 0.6, "Y": 0.2, "F'": 0.2},
    "s2": {"T'": 0.2, "Y": 0.2, "F'": 0.6},
    "t": {"T'": 1.0},
    "f": {"F'": 1.0}
  }
}
"""

# Realizations in lexicographic order; values are (X, Y, T', F') state indices.
TOY_R = {
    0: Realization((1, 3, 3, 4)),
    1: Realization((1, 4, 3, 4)),
    2: Realization((2, 3, 3, 4)),
    3: Realization((2, 4, 3, 4)),
}
TOY_TARGET = frozenset({3})
TOY_VALUES = {0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2}


@pytest.fixture(scope="session")
def toy4() -> Family:
    return parse_sketch(TOY4_TEXT)


@pytest.fixture(scope="session")
def toy4_safety() -> Property:
    return Property(op="<=", threshold=0.3, targets=TOY_TARGET)


# (states, params, domain, seed): member counts domain**params stay <= 512.
CORPUS_CONFIGS = [
    (6, 2, 2, 11), (8, 3, 2, 12), (10, 4, 2, 13), (12, 5, 2, 14),
    (14, 6, 2, 15), (16, 7, 2, 16), (18, 8, 2, 17), (20, 9, 2, 18),
    (7, 2, 3, 19), (9, 3, 3, 20), (11, 4, 3, 21), (13, 5, 3, 22),
    (15, 2, 4, 23), (17, 3, 4, 24), (19, 4, 4, 25), (22, 4, 4, 26),
    (24, 3, 3, 27), (26, 5, 2, 28), (28, 6, 2, 29), (30, 4, 3, 30),
    (32, 3, 4, 31), (34, 5, 3, 32), (36, 7, 2, 33), (38, 4, 4, 34),
    (40, 5, 3, 35), (6, 3, 3, 36), (8, 4, 2, 37), (10, 2, 4, 38),
    (12, 3, 3, 39), (14, 5, 2, 40), (16, 4, 3, 41), (18, 3, 4, 42),
    (20, 6, 2, 43), (22, 5, 3, 44), (24, 4, 4, 45), (26, 7, 2, 46),
    (28, 3, 3, 47), (30, 8, 2, 48), (32, 4, 3, 49), (34, 2, 4, 50),
    (36, 5, 2, 51), (38, 3, 3, 52), (40, 9, 2, 53), (9, 4, 2, 54),
    (11, 5, 2, 55), (13, 2, 3, 56), (15, 3, 4, 57), (17, 6, 2, 58),
    (19, 5, 3, 59), (21, 4, 4, 60),
]


def make_mc(rows, initial: int = 0) -> Mc:
    """Chain from one ``{target: prob}`` dict per state; zero entries are dropped."""
    ptr, tgt, prob = [0], [], []
    for row in rows:
        for t in sorted(row):
            if row[t] > 0.0:
                tgt.append(t)
                prob.append(row[t])
        ptr.append(len(tgt))
    return Mc(
        initial,
        np.asarray(ptr, dtype=np.int64),
        np.asarray(tgt, dtype=np.int64),
        np.asarray(prob, dtype=np.float64),
    )


def chain_row(mc: Mc, s: int) -> dict[int, float]:
    """Row ``s`` of ``mc`` as a ``{target: prob}`` dict in target order."""
    lo, hi = mc.row_ptr[s], mc.row_ptr[s + 1]
    return dict(zip(mc.ent_target[lo:hi].tolist(), mc.ent_prob[lo:hi].tolist()))


def corpus_family(i: int) -> Family:
    states, params, domain, seed = CORPUS_CONFIGS[i % len(CORPUS_CONFIGS)]
    return generate_benchmark(states, params, domain, seed)


@pytest.fixture(scope="session")
def corpus() -> list[Family]:
    return [corpus_family(i) for i in range(len(CORPUS_CONFIGS))]


def goal_index(family: Family) -> int:
    return family.state_names.index("goal")


def enumerate_values(family: Family, targets) -> dict[tuple, float]:
    """Oracle: initial-state value of every member, by exact linear solve."""
    out = {}
    for r in iterate_unpruned(family.full_subfamily()):
        out[r.values] = float(mc_reach_exact(induce(family, r), targets)[family.initial])
    return out


def _gap_threshold(values: list[float], quantile: float) -> float | None:
    """A threshold strictly between two member values, away from both."""
    distinct = sorted(set(round(v, 12) for v in values))
    if len(distinct) < 2:
        return None
    k = max(0, min(len(distinct) - 2, int(quantile * (len(distinct) - 1))))
    lo, hi = distinct[k], distinct[k + 1]
    if hi - lo < 1e-5:
        widest = max(range(len(distinct) - 1), key=lambda j: distinct[j + 1] - distinct[j])
        lo, hi = distinct[widest], distinct[widest + 1]
        if hi - lo < 1e-5:
            return None
    return (lo + hi) / 2.0


def _two_window_spec(values: dict, targets) -> Specification | None:
    """Infeasible two-property spec whose properties each have satisfying members.

    Thresholds sit in two different value gaps, so neither property is wholly
    violated by the family and the drivers must actually refine or prune.
    """
    distinct = sorted(set(round(v, 12) for v in values.values()))
    if len(distinct) < 3:
        return None
    lo_gap = max(0, len(distinct) // 3 - 1)
    hi_gap = min(len(distinct) - 2, (2 * len(distinct)) // 3)
    if lo_gap >= hi_gap:
        lo_gap, hi_gap = 0, len(distinct) - 2
        if lo_gap >= hi_gap:
            return None
    low = (distinct[lo_gap] + distinct[lo_gap + 1]) / 2
    high = (distinct[hi_gap] + distinct[hi_gap + 1]) / 2
    return Specification(
        properties=(
            Property(op="<=", threshold=low, targets=targets),
            Property(op=">=", threshold=high, targets=targets),
        )
    )


def make_instance(i: int, want: str) -> tuple[Family, Specification, dict]:
    """Seeded (family, spec) with a known feasibility verdict.

    ``want`` is "infeasible" or "mixed" (feasible, with violating members
    too).  Thresholds sit in gaps between member values so decisions stay far
    from the tolerance boundary.  Returns the enumerated member values as the
    third element.
    """
    rng = random.Random(f"instance:{i}:{want}")
    for attempt in range(len(CORPUS_CONFIGS)):
        family = corpus_family(i + attempt * 7)
        targets = frozenset({goal_index(family)})
        values = enumerate_values(family, targets)
        vals = list(values.values())
        vmin, vmax = min(vals), max(vals)
        if want == "infeasible":
            spec = _two_window_spec(values, targets)
            if spec is not None:
                return family, spec, values
            if vmin > 0.03:
                prop = Property(op="<=", threshold=vmin - 0.02, targets=targets)
            elif vmax < 0.97:
                prop = Property(op=">=", threshold=vmax + 0.02, targets=targets)
            else:
                continue
        else:
            op = "<=" if rng.random() < 0.5 else ">="
            thr = _gap_threshold(vals, rng.uniform(0.25, 0.75))
            if thr is None:
                continue
            prop = Property(op=op, threshold=thr, targets=targets)
        return family, Specification(properties=(prop,)), values
    raise RuntimeError(f"could not build instance {i} ({want})")
