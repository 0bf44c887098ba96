"""Reachability probabilities for chains and quotient MDPs.

All solvers run a qualitative prob-0 precomputation first, which pins states
that cannot reach the target to exactly 0 and makes the remaining fixpoint
unique.  Value iteration uses Gauss-Seidel sweeps in state-index order; the
last sweep's change alone understates the true error by the contraction
factor of the chain, so sweeps stop once the change scaled by an online
estimate of that factor drops below the tolerance, keeping the returned
values within ``tol`` of the true probabilities.  The sweep count is capped
at ``SWEEP_CAP`` (exceeding it is an error).  Boundary precision at
thresholds is handled by the decision tolerance ``eta`` of
:func:`evaluate_property`; ties resolve toward satisfaction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ConvergenceError, ResourceCapError
from .model import Mc

if TYPE_CHECKING:  # pragma: no cover
    from .quotient import QuotientMdp

DEFAULT_TOL = 1e-8
DECISION_ETA = 1e-6
SWEEP_CAP = 10**6
EXACT_STATE_CAP = 2000


class CostMeter:
    """Counter of model-check invocations, the deterministic cost unit."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def count(self, n: int = 1) -> None:
        self.total += n


class _StopRule:
    """Error-bounded convergence test for geometrically converging sweeps.

    For a contraction with factor kappa, the distance to the fixpoint is at
    most ``delta * kappa / (1 - kappa)`` where ``delta`` is the last change;
    kappa is estimated from recent change ratios (floored at 0.5 so the test
    is never weaker than ``delta < tol``).
    """

    __slots__ = ("tol", "prev", "ratios")

    def __init__(self, tol: float):
        self.tol = tol
        self.prev: float | None = None
        self.ratios = deque(maxlen=5)

    def done(self, delta: float) -> bool:
        if delta == 0.0:
            return True
        if self.prev is not None and self.prev > 0.0:
            self.ratios.append(delta / self.prev)
        self.prev = delta
        kappa = min(0.99999, max(0.5, max(self.ratios, default=0.5)))
        return delta * kappa / (1.0 - kappa) < self.tol


@dataclass(frozen=True)
class Property:
    """Threshold reachability constraint ``P <= t`` (safety) or ``P >= t``."""

    op: str
    threshold: float
    targets: frozenset[int]

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise ValueError(f"unknown comparison {self.op!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold!r} outside [0, 1]")
        if not self.targets:
            raise ValueError("target set must be non-empty")

    @property
    def is_safety(self) -> bool:
        return self.op == "<="

    def text(self, family=None) -> str:
        if family is None:
            names = " ".join(str(t) for t in sorted(self.targets))
        else:
            names = " ".join(family.state_names[t] for t in sorted(self.targets))
        return f"P{self.op}{self.threshold:g} [F {names}]"


@dataclass(frozen=True)
class Objective:
    """Optimization objective: extremize reachability of ``targets``.

    ``epsilon`` relaxes optimality: any value within relative factor
    ``1 +/- epsilon`` of the optimum is an acceptable answer.
    """

    direction: str
    targets: frozenset[int]
    epsilon: float = 0.0

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not self.targets:
            raise ValueError("target set must be non-empty")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon {self.epsilon!r} outside [0, 1)")

    def text(self, family=None) -> str:
        if family is None:
            names = " ".join(str(t) for t in sorted(self.targets))
        else:
            names = " ".join(family.state_names[t] for t in sorted(self.targets))
        suffix = f" eps={self.epsilon:g}" if self.epsilon else ""
        return f"{self.direction} P [F {names}]{suffix}"


@dataclass(frozen=True)
class Specification:
    """A set of properties, optionally with an optimization objective."""

    properties: tuple[Property, ...]
    objective: Objective | None = None

    def __post_init__(self):
        if not self.properties and self.objective is None:
            raise ValueError("specification is empty")


def evaluate_property(value: float, prop: Property, eta: float = DECISION_ETA) -> bool:
    """True iff ``value`` satisfies ``prop`` within decision tolerance ``eta``."""
    if eta < 0.0:
        raise ValueError("decision tolerance must be non-negative")
    if prop.op == "<=":
        return value <= prop.threshold + eta
    return value >= prop.threshold - eta


def _check_targets(n: int, targets: Iterable[int]) -> frozenset[int]:
    tset = frozenset(int(t) for t in targets)
    if not tset:
        raise ValueError("target set must be non-empty")
    if any(not 0 <= t < n for t in tset):
        raise ValueError("target state index out of range")
    return tset


def _backward_reachable(
    n: int, successors: Iterable[Iterable[int]], targets: frozenset[int]
) -> np.ndarray:
    """Boolean mask of the ``n`` states with a path into ``targets``.

    ``successors`` yields, per state in index order, the states it has an edge
    to; chains pass their rows, MDPs the entries of all actions of a state.
    """
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, succ in enumerate(successors):
        for t in succ:
            preds[t].append(s)
    seen = np.zeros(n, dtype=bool)
    queue = deque(sorted(targets))
    for t in targets:
        seen[t] = True
    while queue:
        t = queue.popleft()
        for s in preds[t]:
            if not seen[s]:
                seen[s] = True
                queue.append(s)
    return seen


def _mc_prepare(mc: Mc, targets: frozenset[int]):
    """Dense matrix, solved-value skeleton and unknown-state index."""
    n = mc.n_states
    dense = np.zeros((n, n))
    for s, row in enumerate(mc.rows):
        dense[s, list(row.keys)] = row.probs
    can_reach = _backward_reachable(n, (row.keys for row in mc.rows), targets)
    values = np.zeros(n)
    tlist = sorted(targets)
    values[tlist] = 1.0
    unknown = np.array(
        [s for s in range(n) if can_reach[s] and s not in targets], dtype=np.intp
    )
    return dense, values, unknown


def mc_reach(
    mc: Mc,
    targets: Iterable[int],
    tol: float | None = None,
    sweep_log: list | None = None,
) -> np.ndarray:
    """Per-state probability of eventually reaching ``targets``.

    Target states are exactly 1, states that cannot reach the target in the
    underlying graph exactly 0, all others within ``tol`` of the true value.
    ``sweep_log`` (testing hook) collects a copy of the iterate every 10
    Gauss-Seidel sweeps.
    """
    tol = DEFAULT_TOL if tol is None else float(tol)
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    tset = _check_targets(mc.n_states, targets)
    dense, values, unknown = _mc_prepare(mc, tset)
    if unknown.size == 0:
        return values
    q = dense[np.ix_(unknown, unknown)]
    c = dense[unknown] @ values
    # Gauss-Seidel in state-index order: (I - L) x' = (Q - L) x + c with L the
    # strict lower triangle; the unit-triangular inverse is formed once.
    lower_inv = np.linalg.inv(np.eye(unknown.size) - np.tril(q, -1))
    rest = np.triu(q, 0)
    x = np.zeros(unknown.size)
    stop = _StopRule(tol)
    for sweep in range(1, SWEEP_CAP + 1):
        x_new = lower_inv @ (rest @ x + c)
        delta = float(np.max(np.abs(x_new - x)))
        x = x_new
        if sweep_log is not None and sweep % 10 == 0:
            snapshot = values.copy()
            snapshot[unknown] = x
            sweep_log.append(snapshot)
        if stop.done(delta):
            break
    else:
        raise ConvergenceError(f"value iteration did not converge in {SWEEP_CAP} sweeps")
    values[unknown] = np.clip(x, 0.0, 1.0)
    return values


def mc_reach_exact(mc: Mc, targets: Iterable[int]) -> np.ndarray:
    """Reachability probabilities by direct linear solve (test oracle).

    Limited to ``EXACT_STATE_CAP`` states; exact up to floating rounding.
    """
    if mc.n_states > EXACT_STATE_CAP:
        raise ResourceCapError(
            f"exact solver limited to {EXACT_STATE_CAP} states, got {mc.n_states}"
        )
    tset = _check_targets(mc.n_states, targets)
    dense, values, unknown = _mc_prepare(mc, tset)
    if unknown.size == 0:
        return values
    q = dense[np.ix_(unknown, unknown)]
    c = dense[unknown] @ values
    x = np.linalg.solve(np.eye(unknown.size) - q, c)
    values[unknown] = np.clip(x, 0.0, 1.0)
    return values


def _mdp_prob0_max(mdp: "QuotientMdp", targets: frozenset[int]) -> np.ndarray:
    """States with maximal reachability 0: no path to the target at all."""
    n = mdp.n_states
    ent = mdp.act_ptr[mdp.state_ptr].tolist()
    tgt = mdp.ent_target.tolist()
    return ~_backward_reachable(n, (tgt[ent[s] : ent[s + 1]] for s in range(n)), targets)


def _mdp_prob0_min(mdp: "QuotientMdp", targets: frozenset[int]) -> np.ndarray:
    """States with minimal reachability 0: some action can avoid the target forever.

    Greatest fixpoint of "has an action whose support stays inside the set".
    """
    n = mdp.n_states
    inside = np.ones(n, dtype=bool)
    for t in targets:
        inside[t] = False
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if not inside[s]:
                continue
            ok = False
            for a in range(mdp.state_ptr[s], mdp.state_ptr[s + 1]):
                succ = mdp.ent_target[mdp.act_ptr[a] : mdp.act_ptr[a + 1]]
                if inside[succ].all():
                    ok = True
                    break
            if not ok:
                inside[s] = False
                changed = True
    return inside


def mdp_extreme(
    mdp: "QuotientMdp",
    targets: Iterable[int],
    mode: str,
    tol: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (min or max) reachability values plus an attaining scheduler.

    The scheduler is one action index per state; ties resolve to the smallest
    index.  For the min objective, states inside the prob-0 region get the
    smallest action that stays inside it, so the induced chain attains 0.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"unknown mode {mode!r}")
    tol = DEFAULT_TOL if tol is None else float(tol)
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    n = mdp.n_states
    for s in range(n):
        if mdp.state_ptr[s + 1] == mdp.state_ptr[s]:
            raise ValueError(f"state {s} has no actions")
    tset = _check_targets(n, targets)

    zero = _mdp_prob0_min(mdp, tset) if mode == "min" else _mdp_prob0_max(mdp, tset)
    values = np.zeros(n)
    for t in tset:
        values[t] = 1.0
        zero[t] = False
    unknown = [s for s in range(n) if s not in tset and not zero[s]]

    # Per-state slices of the flat entry arrays, with reduceat offsets for the
    # action boundaries inside each slice.
    slices = []
    for s in unknown:
        a0, a1 = mdp.state_ptr[s], mdp.state_ptr[s + 1]
        e0, e1 = mdp.act_ptr[a0], mdp.act_ptr[a1]
        offs = mdp.act_ptr[a0:a1] - e0
        slices.append((s, mdp.ent_target[e0:e1], mdp.ent_prob[e0:e1], offs))

    pick = np.min if mode == "min" else np.max
    stop = _StopRule(tol)
    for _sweep in range(1, SWEEP_CAP + 1):
        delta = 0.0
        for s, tgt, prob, offs in slices:
            act_vals = np.add.reduceat(prob * values[tgt], offs)
            nv = float(pick(act_vals))
            d = abs(nv - values[s])
            if d > delta:
                delta = d
            values[s] = nv
        if stop.done(delta):
            break
    else:
        raise ConvergenceError(f"value iteration did not converge in {SWEEP_CAP} sweeps")

    scheduler = np.zeros(n, dtype=np.int64)
    argpick = np.argmin if mode == "min" else np.argmax
    for s, tgt, prob, offs in slices:
        act_vals = np.add.reduceat(prob * values[tgt], offs)
        scheduler[s] = int(argpick(act_vals))
    if mode == "min":
        for s in range(n):
            if zero[s]:
                for a in range(mdp.state_ptr[s], mdp.state_ptr[s + 1]):
                    succ = mdp.ent_target[mdp.act_ptr[a] : mdp.act_ptr[a + 1]]
                    if zero[succ].all():
                        scheduler[s] = a - mdp.state_ptr[s]
                        break
    np.clip(values, 0.0, 1.0, out=values)
    return values, scheduler
