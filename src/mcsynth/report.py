"""Conflict-quality report: how much do bounds shrink greedy conflicts?

For every member violating a property, the driver's own conflict is built:
the member check, bounds and rerouting rule of :mod:`mcsynth.synthesis` under
the chosen mode.  Its size is related to the number of multi-valued
parameters; smaller ratios mean better generalization.  The optional
exhaustive oracle adds the true minimum conflict size for comparison.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .counterexamples import construct_conflict, minimal_conflict_oracle
from .errors import ResourceCapError
from .model import Family, Realization, iterate_unpruned
from .reach import Specification
from .synthesis import MEMBER_CAP, SynthStats, _bounds, _check, _gamma_for, _gammas, new_state


@dataclass(frozen=True)
class CeReportRow:
    realization: Realization
    property_index: int
    conflict_size: int
    ratio: float
    model_checks: int
    seconds: float
    minimal_size: int | None = None


def _mean(values: list) -> float | None:
    return sum(values) / len(values) if values else None


@dataclass(frozen=True)
class CeQualityReport:
    mode: str
    total_params: int
    rows: tuple[CeReportRow, ...]

    @property
    def mean_ratio(self) -> float | None:
        return _mean([r.ratio for r in self.rows])

    @property
    def mean_model_checks(self) -> float | None:
        return _mean([r.model_checks for r in self.rows])

    @property
    def mean_seconds(self) -> float | None:
        return _mean([r.seconds for r in self.rows])

    @property
    def mean_minimal_ratio(self) -> float | None:
        sizes = [r.minimal_size for r in self.rows if r.minimal_size is not None]
        if not sizes or self.total_params == 0:
            return None
        return sum(sizes) / len(sizes) / self.total_params

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "violating_checks": len(self.rows),
            "total_params": self.total_params,
            "mean_ratio": self.mean_ratio,
            "mean_model_checks": self.mean_model_checks,
            "mean_seconds": self.mean_seconds,
            "mean_minimal_ratio": self.mean_minimal_ratio,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self, family: Family | None = None) -> str:
        lines = [f"conflict quality ({self.mode} bounds)"]
        if not self.rows:
            lines.append("  no violating members")
            return "\n".join(lines) + "\n"
        lines.append(f"  violating checks : {len(self.rows)}")
        lines.append(f"  mean ratio       : {self.mean_ratio:.4f}")
        lines.append(f"  mean checks / CE : {self.mean_model_checks:.2f}")
        lines.append(f"  mean time / CE   : {self.mean_seconds * 1e3:.3f} ms")
        if self.mean_minimal_ratio is not None:
            lines.append(f"  mean minimal     : {self.mean_minimal_ratio:.4f}")
        return "\n".join(lines) + "\n"


def ce_quality_report(
    family: Family,
    spec: Specification,
    mode: str = "family",
    include_minimal: bool = False,
) -> CeQualityReport:
    """Build conflicts for every violating (member, property) pair.

    ``mode`` picks the rerouting vectors: ``"family"`` uses whole-family
    bounds, ``"trivial"`` the bound-free vectors.  Ratios are conflict size
    over the number of multi-valued parameters.  Every member is checked, so
    families over ``MEMBER_CAP`` members raise :class:`ResourceCapError`.
    The conflicts are the driver's own: its member check, bounds and gamma
    rule run on the properties (never the objective) and the whole family.
    """
    if mode not in ("family", "trivial"):
        raise ValueError(f"unknown report mode {mode!r}")
    state = new_state(family, spec, reroute=mode == "family")
    state.working = None  # no objective: only the properties are checked
    item = state.queue[0]
    if item.remaining > MEMBER_CAP:
        raise ResourceCapError(f"family has {item.remaining} members, report cap is {MEMBER_CAP}")
    total = len(item.sub.multi_valued())
    if not spec.properties:
        return CeQualityReport(mode=mode, total_params=total, rows=())
    if state.reroute:
        item.gamma = _gammas(state, _bounds(state, state.root))

    rows = []
    for r in iterate_unpruned(item.sub):
        mc, _values, violated = _check(state, r)
        for idx, prop in enumerate(spec.properties):
            if prop not in violated:
                continue
            stats, gamma = SynthStats(), _gamma_for(state, item, prop)
            start = time.perf_counter()
            conflict = construct_conflict(mc, prop, gamma, item.sub, stats=stats)
            elapsed = time.perf_counter() - start
            minimal_size = None
            if include_minimal:
                minimal = minimal_conflict_oracle(family, r, prop, item.sub)
                minimal_size = len(minimal)
            rows.append(
                CeReportRow(
                    realization=r,
                    property_index=idx,
                    conflict_size=len(conflict),
                    ratio=len(conflict) / total if total else 0.0,
                    model_checks=stats.model_checks,
                    seconds=elapsed,
                    minimal_size=minimal_size,
                )
            )
    return CeQualityReport(mode=mode, total_params=total, rows=tuple(rows))
