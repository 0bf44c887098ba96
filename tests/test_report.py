"""Conflict-quality report."""

import json

import pytest

import mcsynth.quotient
import mcsynth.report
import mcsynth.reach
from mcsynth import (
    Objective,
    Property,
    Specification,
    ce_quality_report,
    generate_benchmark,
    member_count,
    parse_sketch,
    parse_spec,
)
from mcsynth.errors import ResourceCapError
from mcsynth.synthesis import MEMBER_CAP

from conftest import TOY4_TEXT, TOY_TARGET

SPEC = Specification(properties=(Property(op="<=", threshold=0.3, targets=TOY_TARGET),))


class TestCeQualityReport:
    def test_family_bounds_ratios_on_toy(self, toy4):
        report = ce_quality_report(toy4, SPEC, mode="family")
        # violators r0, r1, r2; r0 generalizes Y away: ratio 1/2
        assert len(report.rows) == 3
        by_member = {row.realization.values: row.ratio for row in report.rows}
        assert by_member[(1, 3, 3, 4)] == pytest.approx(0.5)
        assert 0.0 < report.mean_ratio <= 1.0

    def test_trivial_mode_ratio_is_one_for_r0(self, toy4):
        report = ce_quality_report(toy4, SPEC, mode="trivial")
        by_member = {row.realization.values: row.ratio for row in report.rows}
        assert by_member[(1, 3, 3, 4)] == pytest.approx(1.0)

    def test_trivial_mean_at_least_family_mean(self, toy4):
        trivial = ce_quality_report(toy4, SPEC, mode="trivial")
        family = ce_quality_report(toy4, SPEC, mode="family")
        assert trivial.mean_ratio >= family.mean_ratio

    def test_no_violators_gives_empty_report(self, toy4):
        loose = Specification(
            properties=(Property(op="<=", threshold=0.9, targets=TOY_TARGET),)
        )
        report = ce_quality_report(toy4, loose, mode="family")
        assert report.rows == ()
        assert report.mean_ratio is None
        assert "no violating" in report.to_text(toy4)

    def test_minimal_oracle_column(self, toy4):
        report = ce_quality_report(toy4, SPEC, mode="family", include_minimal=True)
        assert all(row.minimal_size is not None for row in report.rows)
        assert all(
            row.minimal_size <= row.conflict_size for row in report.rows
        )
        assert report.mean_minimal_ratio <= report.mean_ratio

    def test_json_output_is_machine_readable(self, toy4):
        report = ce_quality_report(toy4, SPEC, mode="family")
        data = json.loads(report.to_json())
        assert data["mode"] == "family"
        assert data["violating_checks"] == 3
        assert 0 < data["mean_ratio"] <= 1.0
        assert data["mean_model_checks"] >= 1.0

    def test_budget_respected_per_ce(self, toy4):
        report = ce_quality_report(toy4, SPEC, mode="family")
        multi = len(toy4.full_subfamily().multi_valued())
        assert all(row.model_checks <= multi + 1 for row in report.rows)

    def test_over_member_cap_refused(self):
        family = generate_benchmark(30, 24, 2, 1)
        assert member_count(family.full_subfamily()) > MEMBER_CAP
        goal = family.state_names.index("goal")
        prop = Property(op="<=", threshold=0.5, targets=frozenset({goal}))
        spec = Specification(properties=(prop,))
        for mode in ("family", "trivial"):
            with pytest.raises(ResourceCapError, match="members"):
                ce_quality_report(family, spec, mode=mode)

    @pytest.mark.parametrize("mode", ["family", "trivial"])
    def test_repeated_property_gives_one_row_per_copy(self, toy4, mode):
        prop = SPEC.properties[0]
        once = ce_quality_report(toy4, SPEC, mode=mode).rows
        twice = ce_quality_report(toy4, Specification(properties=(prop, prop)), mode=mode).rows
        assert once and [row.property_index for row in twice] == [0, 1] * len(once)

        def key(row):
            return row.realization, row.conflict_size, row.model_checks

        assert [key(row) for row in twice] == [key(row) for row in once for _copy in (0, 1)]

    @pytest.mark.parametrize("mode", ["family", "trivial"])
    def test_objective_adds_no_rows_and_no_solves(self, toy4, mode, monkeypatch):
        solves = []
        real = mcsynth.reach._solve

        def spy(*args):
            solves.append(1)
            return real(*args)

        monkeypatch.setattr(mcsynth.reach, "_solve", spy)
        # the objective's target set is not one of the properties'
        objective = Objective(direction="max", targets=frozenset({4}))
        runs = []
        for spec in (SPEC, Specification(properties=SPEC.properties, objective=objective)):
            solves.clear()
            rows = ce_quality_report(toy4, spec, mode=mode).rows
            runs.append(
                (len(solves), [(r.realization, r.property_index, r.conflict_size) for r in rows])
            )
        assert runs[0] == runs[1]
        assert runs[0][1]

    def test_objective_only_spec_gives_empty_report(self, toy4, monkeypatch):
        only = Specification(properties=(), objective=Objective("min", TOY_TARGET))
        for mode in ("family", "trivial"):
            assert ce_quality_report(toy4, only, mode=mode).rows == ()
        # without a property no member can give a row: none is induced or solved
        calls = []

        def spy(real):
            def call(*args):
                calls.append(real.__name__)
                return real(*args)
            return call

        monkeypatch.setattr(mcsynth.synthesis, "induce", spy(mcsynth.synthesis.induce))
        monkeypatch.setattr(mcsynth.reach, "_solve", spy(mcsynth.reach._solve))
        wide = generate_benchmark(20, 14, 2, 3)
        assert member_count(wide.full_subfamily()) == 16384
        goal = frozenset({wide.state_names.index("goal")})
        only = Specification(properties=(), objective=Objective(direction="max", targets=goal))
        for mode in ("family", "trivial"):
            report = ce_quality_report(wide, only, mode=mode)
            assert report.rows == ()
            assert report.total_params == len(wide.full_subfamily().multi_valued())
        assert calls == []
        big = generate_benchmark(30, 24, 2, 1)
        goal = frozenset({big.state_names.index("goal")})
        only = Specification(properties=(), objective=Objective(direction="max", targets=goal))
        for mode in ("family", "trivial"):
            with pytest.raises(ResourceCapError, match="members"):
                ce_quality_report(big, only, mode=mode)

    def test_root_quotient_built_once(self, monkeypatch):
        built = []
        real = mcsynth.quotient.root_quotient

        def spy(family):
            built.append(family)
            return real(family)

        monkeypatch.setattr(mcsynth.quotient, "root_quotient", spy)
        # a parse builds no root
        toy4 = parse_sketch(TOY4_TEXT)
        # two target sets: each gets its own bounds, both on the family's one root
        spec = parse_spec("P<=0.3 [F t]\nP<=0.5 [F f]\nP>=0.5 [F t]\n", toy4)
        assert built == []
        report = ce_quality_report(toy4, spec, mode="family", include_minimal=True)
        assert len(built) == 1 and built[0] is toy4
        assert report.rows and all(row.minimal_size is not None for row in report.rows)
        # the exhaustive oracle, a later report and a later run share that root
        ce_quality_report(toy4, spec, mode="trivial", include_minimal=True)
        for method in mcsynth.synthesis.METHODS:
            mcsynth.synthesize(toy4, spec, method=method)
        assert len(built) == 1
