"""Seeded input families, specifications and the independent value oracle.

The benchmark owns its inputs: it writes sketch and specification *text*
and hands only that text to the program, so a change to the program cannot
change what the benchmark asks of it.  Values used to place thresholds and
to check answers come from :func:`reach_value`, a dense direct solve written
here, independent of the program's solvers.

Family shape ("lanes").  The initial state ``s0`` branches into one lane per
binary parameter; lane ``k`` is entered with a weight proportional to
``rho**k`` and is ``k``-th in state order, and its length follows its weight.
Every state of a lane sends part of its mass through the lane's parameter,
whose values are ``goal`` and ``trap``; the rest goes forward along the lane,
into ``goal`` and ``trap``, and sometimes back to the lane head.  The lane of
weight ``rho**k`` carries parameter ``p<m-1-k>``, so the heavy parameters are
declared last and vary fastest in the program's member order.

Every parameter is reachable in every member and acts only in its own lane,
so a member's value is a base value plus one gain per parameter set to
``goal`` (:func:`member_values`), and thresholds can be placed at exact
quantiles of the member values.  The geometric weights fix how many members
lie near a threshold, which keeps the time of one driver on a task within 2
to 16% (coefficient of variation) from seed to seed; on ``generate_benchmark``
families it varied a hundredfold across generator seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

ETA = 1e-6  # the program's decision tolerance; answers are checked against it
WINDOW_SHARE = 1 / 64  # members inside a window
MIN_WINDOW = 1e-4  # least window width, far above 2 * ETA
RARE_SHARE = 64  # a rare spec is met by about 1/RARE_SHARE of the members


@dataclass
class Model:
    """Plain description of a family, as written into the sketch."""

    states: list[str]
    parameters: dict[str, list[str]]
    transitions: dict[str, dict[str, float]]
    initial: str = "s0"

    def sketch_text(self) -> str:
        return json.dumps(
            {
                "format": "mc-family/1",
                "states": self.states,
                "initial": self.initial,
                "parameters": self.parameters,
                "transitions": self.transitions,
            },
            indent=2,
        ) + "\n"

    def members(self) -> int:
        return math.prod(len(dom) for dom in self.parameters.values())



def lane_family(n_states: int, n_params: int, rho: float, rng: random.Random) -> Model:
    """A lane family with ``n_states`` states and ``n_params`` binary parameters.

    Probabilities are multiples of 1/1024, so every row sums to exactly 1.
    Lane ``k`` is entered with probability about ``rho**k / sum(rho**j)``.
    """
    m = n_params
    n_lane = n_states - 3
    if n_lane < m:
        raise ValueError("need at least one lane state per parameter")
    weights = [rho**k for k in range(m)]
    # lane lengths follow the weights, so a heavier parameter is used by more states
    length = [1 + int((n_lane - m) * w / sum(weights)) for w in weights]
    for k in range(n_lane - sum(length)):
        length[k % m] += 1
    states = ["s0"] + [f"l{k}_{j}" for k in range(m) for j in range(length[k])]
    states += ["goal", "trap"]
    parameters: dict[str, list[str]] = {f"p{k}": ["goal", "trap"] for k in range(m)}
    transitions: dict[str, dict[str, float]] = {}

    def edge(target: str) -> str:
        """Single-valued parameter that stands for a fixed edge into ``target``."""
        name = f"to_{target}"
        parameters[name] = [target]
        return name

    entry = [max(1, int(1024 * w / sum(weights))) for w in weights]
    entry[entry.index(max(entry))] += 1024 - sum(entry)
    transitions["s0"] = {edge(f"l{k}_0"): entry[k] / 1024 for k in range(m)}

    for k in range(m):
        head = f"l{k}_0"
        param = f"p{m - 1 - k}"
        for j in range(length[k]):
            state = f"l{k}_{j}"
            row: dict[str, int] = {}
            rest = 1024
            share = rng.randrange(350, 450) if j == 0 else rng.randrange(96, 192)
            row[param] = share
            rest -= share
            if j > 0 and rng.random() < 0.25:
                back = rng.randrange(1, 128)
                row[edge(head)] = back
                rest -= back
            if j + 1 < length[k]:
                forward = rng.randrange(rest * 6 // 10, rest * 8 // 10)
                row[edge(f"l{k}_{j + 1}")] = forward
                rest -= forward
            to_goal = rng.randrange(rest * 4 // 10, rest * 6 // 10)
            if to_goal:
                row[edge("goal")] = to_goal
            if rest - to_goal:
                row[edge("trap")] = rest - to_goal
            transitions[state] = {p: c / 1024 for p, c in row.items()}
    transitions["goal"] = {edge("goal"): 1.0}
    transitions["trap"] = {edge("trap"): 1.0}
    return Model(states=states, parameters=parameters, transitions=transitions)


def reach_value(model: Model, member: dict[str, str], targets: frozenset[str]) -> float:
    """Probability that ``member`` reaches ``targets`` from the initial state.

    Dense direct solve of ``(I - Q) x = c`` over the states that can reach a
    target; states that cannot are exactly 0.
    """
    index = {s: i for i, s in enumerate(model.states)}
    n = len(model.states)
    dense = np.zeros((n, n))
    for state, row in model.transitions.items():
        for param, prob in row.items():
            dense[index[state], index[member[param]]] += prob
    target_idx = sorted(index[t] for t in targets)
    can_reach = np.zeros(n, dtype=bool)
    can_reach[target_idx] = True
    frontier = list(target_idx)
    while frontier:
        hit = (dense[:, frontier] > 0.0).any(axis=1) & ~can_reach
        can_reach |= hit
        frontier = list(np.flatnonzero(hit))
    values = np.zeros(n)
    values[target_idx] = 1.0
    unknown = np.flatnonzero(can_reach & (values == 0.0))
    if unknown.size:
        q = dense[np.ix_(unknown, unknown)]
        c = dense[unknown] @ values
        values[unknown] = np.linalg.solve(np.eye(unknown.size) - q, c)
    return float(values[index[model.initial]])


def _up(x: float) -> float:
    return min(1.0, math.ceil(x * 1e6) / 1e6)


def _down(x: float) -> float:
    return max(0.0, math.floor(x * 1e6) / 1e6)


@dataclass
class Task:
    """One family with one specification, run by each of ``drivers``."""

    name: str
    kind: str  # "window", "rare" or "optimal"
    model: Model
    spec_text: str
    drivers: tuple[str, ...]
    values: np.ndarray  # value of every member, in lexicographic member order
    witness: dict[str, str] | None = None  # a member known to satisfy the spec


def member_values(model: Model) -> np.ndarray:
    """Value of every member, in the program's lexicographic member order.

    Parameter ``p<k>`` is used only inside its own lane, so a member's value
    is the all-``trap`` value plus the gain of each parameter set to
    ``goal``; the gains come from the oracle.
    """
    goal = frozenset(["goal"])
    base_member = {p: dom[-1] for p, dom in model.parameters.items()}
    base = reach_value(model, base_member, goal)
    values = np.array([base])
    for param in binary_parameters(model):
        gain = reach_value(model, {**base_member, param: "goal"}, goal) - base
        values = np.stack([values + gain, values], axis=1).reshape(-1)
    return values


def binary_parameters(model: Model) -> list[str]:
    return [p for p, dom in model.parameters.items() if len(dom) > 1]


def member_at(model: Model, index: int) -> dict[str, str]:
    """The member at position ``index`` of the lexicographic order."""
    params = binary_parameters(model)
    member = {p: dom[0] for p, dom in model.parameters.items()}
    for k, param in enumerate(params):
        member[param] = model.parameters[param][(index >> (len(params) - 1 - k)) & 1]
    return member


def make_task(name: str, kind: str, n_states: int, n_params: int, rho: float,
              drivers: tuple[str, ...], rng: random.Random) -> Task:
    model = lane_family(n_states, n_params, rho, rng)
    values = member_values(model)
    order = np.argsort(values, kind="stable")
    witness = None
    if kind == "window":
        # P<=lo and P>=hi with hi - lo >> 2*ETA: no member satisfies both.
        # The window holds the middle WINDOW_SHARE of the members.
        n = len(order)
        lo = _down(float(values[order[int(n * (1 - WINDOW_SHARE) / 2)]]))
        hi = max(_up(float(values[order[int(n * (1 + WINDOW_SHARE) / 2)]])), lo + MIN_WINDOW)
        spec = f"P<={lo:.6f} [F goal]\nP>={hi:.6f} [F goal]\n"
    elif kind == "rare":
        # feasible for the lowest 1/64 of the members
        pick = int(order[len(order) // RARE_SHARE])
        threshold = _up(float(values[pick]))
        spec = f"P<={threshold:.6f} [F goal]\n"
        witness = member_at(model, pick)
    elif kind == "optimal":
        # the upper three quarters of the members meet the constraint
        pick = int(order[len(order) // 4])
        threshold = _down(float(values[pick]))
        spec = f"min P [F goal]\nP>={threshold:.6f} [F goal]\n"
        witness = member_at(model, pick)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    if witness is not None:
        # the oracle confirms the member that makes the spec feasible
        value = reach_value(model, witness, frozenset(["goal"]))
        if value > threshold + ETA if kind == "rare" else value < threshold - ETA:
            raise ValueError(f"{name}: witness value {value} misses threshold {threshold}")
    return Task(name=name, kind=kind, model=model, spec_text=spec, drivers=drivers,
                values=values, witness=witness)


# Each workload is a fixed list of task shapes; the seed draws the families.
# (name, kind, states, binary parameters, rho, drivers).  Several instances
# of a shape average out how the work varies between seeds; the shapes keep
# a pass at 6 to 10 s with one BLAS thread, so a 40 s run makes 4 to 6.
WORKLOADS = {
    "wide-window": [
        ("w40x16a", "window", 40, 16, 0.60, ("hybrid", "cegis")),
        ("w40x16b", "window", 40, 16, 0.60, ("hybrid", "cegis")),
        ("w40x16c", "window", 40, 16, 0.60, ("hybrid", "cegis")),
        ("w40x8", "window", 40, 8, 0.80, ("onebyone", "hybrid", "cegis", "ar")),
    ],
    "deep-chain": [
        ("d400x6w", "window", 400, 6, 0.60, ("hybrid", "cegis")),
        ("d400x6r", "rare", 400, 6, 0.60, ("hybrid", "cegis")),
        ("d400x5o", "window", 400, 5, 0.60, ("onebyone",)),
        ("d400x4r", "rare", 400, 4, 0.60, ("ar",)),
    ],
    "optimal": [
        ("o48x12a", "optimal", 48, 12, 0.70, ("hybrid", "cegis")),
        ("o48x12b", "optimal", 48, 12, 0.70, ("hybrid", "cegis")),
        ("o40x8", "optimal", 40, 8, 0.60, ("onebyone", "hybrid", "cegis", "ar")),
    ],
}


def make_workload(workload: str, seed: int) -> list[Task]:
    rng = random.Random(f"mcsynth-benchmark:{workload}:{seed}")
    return [
        make_task(name, kind, n, m, rho, drivers, rng)
        for name, kind, n, m, rho, drivers in WORKLOADS[workload]
    ]
