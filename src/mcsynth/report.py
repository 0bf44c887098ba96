"""Conflict-quality report: how much do bounds shrink greedy conflicts?

For every member violating a property, a conflict is constructed under the
chosen rerouting mode and its size is related to the number of multi-valued
parameters; smaller ratios mean better generalization.  The optional
exhaustive oracle adds the true minimum conflict size for comparison.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .counterexamples import construct_conflict, minimal_conflict_oracle, trivial_gamma
from .errors import ResourceCapError
from .model import Family, Realization, induce, iterate_unpruned, member_count
from .quotient import compute_bounds, root_quotient
from .reach import Specification, evaluate_property, mc_reach
from .synthesis import MEMBER_CAP, SynthStats


@dataclass(frozen=True)
class CeReportRow:
    realization: Realization
    property_index: int
    conflict_size: int
    ratio: float
    model_checks: int
    seconds: float
    minimal_size: int | None = None


@dataclass(frozen=True)
class CeQualityReport:
    mode: str
    total_params: int
    rows: tuple[CeReportRow, ...]

    @property
    def mean_ratio(self) -> float | None:
        if not self.rows:
            return None
        return sum(r.ratio for r in self.rows) / len(self.rows)

    @property
    def mean_model_checks(self) -> float | None:
        if not self.rows:
            return None
        return sum(r.model_checks for r in self.rows) / len(self.rows)

    @property
    def mean_seconds(self) -> float | None:
        if not self.rows:
            return None
        return sum(r.seconds for r in self.rows) / len(self.rows)

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
    families over ``MEMBER_CAP`` members raise :class:`ResourceCapError`; in
    family mode the root quotient is built once and serves every target set.
    """
    if mode not in ("family", "trivial"):
        raise ValueError(f"unknown report mode {mode!r}")
    scope = family.full_subfamily()
    members = member_count(scope)
    if members > MEMBER_CAP:
        raise ResourceCapError(f"family has {members} members, report cap is {MEMBER_CAP}")
    root = root_quotient(family) if mode == "family" else None
    multi = scope.multi_valued()
    total = len(multi)
    bounds, gammas = {}, {}
    for idx, prop in enumerate(spec.properties):
        if mode == "trivial":
            gammas[idx] = trivial_gamma(family.n_states, prop)
            continue
        if prop.targets not in bounds:
            bounds[prop.targets] = compute_bounds(root, prop.targets)
        vec = bounds[prop.targets]
        gammas[idx] = vec.lb if prop.op == "<=" else vec.ub

    rows = []
    for r in iterate_unpruned(scope):
        mc = induce(family, r)
        for idx, prop in enumerate(spec.properties):
            value = float(mc_reach(mc, prop.targets)[family.initial])
            if evaluate_property(value, prop):
                continue
            stats = SynthStats()
            start = time.perf_counter()
            conflict = construct_conflict(family, r, prop, gammas[idx], scope, stats=stats)
            elapsed = time.perf_counter() - start
            minimal_size = None
            if include_minimal:
                minimal = minimal_conflict_oracle(family, r, prop, scope)
                minimal_size = len(minimal.params)
            rows.append(
                CeReportRow(
                    realization=r,
                    property_index=idx,
                    conflict_size=len(conflict.params),
                    ratio=len(conflict.params) / total if total else 0.0,
                    model_checks=stats.model_checks,
                    seconds=elapsed,
                    minimal_size=minimal_size,
                )
            )
    return CeQualityReport(mode=mode, total_params=total, rows=tuple(rows))
