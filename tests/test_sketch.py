"""Sketch documents, property grammar, benchmark generator."""

import pytest

from mcsynth import (
    Objective,
    Property,
    PropertyError,
    SketchError,
    generate_benchmark,
    induce,
    iterate_unpruned,
    member_count,
    parse_property,
    parse_sketch,
    parse_spec,
    serialize_sketch,
)

from conftest import TOY4_TEXT, chain_row, templates


class TestParseSketch:
    def test_toy_document(self, toy4):
        assert toy4.state_names == ("s0", "s1", "s2", "t", "f")
        assert toy4.initial == 0
        assert toy4.param_names == ("X", "Y", "T'", "F'")
        assert toy4.full_subfamily().multi_valued() == (0, 1)
        assert member_count(toy4.full_subfamily()) == 4

    def test_domains_canonicalized_to_index_order(self):
        text = TOY4_TEXT.replace('"X": ["s1", "s2"]', '"X": ["s2", "s1"]')
        fam = parse_sketch(text)
        assert fam.domains[0] == (1, 2)

    def test_round_trip_preserves_structure(self, toy4):
        again = parse_sketch(serialize_sketch(toy4))
        assert again == toy4

    def test_sum_rounded_over_the_tolerance_is_a_sketch_error(self):
        # in input order the row sums to 1 + 1e-9 - 1 ulp, sorted by parameter
        # to 1 + 1e-9 + 1 ulp, just outside the tolerance
        text = TOY4_TEXT.replace(
            '"s0": {"X": 1.0}',
            '"s0": {"F\'": 0.8193978463296819, "X": 0.0503506040341829, "Y": 0.1302515506361351}',
        )
        with pytest.raises(SketchError, match="sum to 1"):
            parse_sketch(text)

    def test_bad_probability_sum_names_state(self):
        text = TOY4_TEXT.replace('"T\'": 0.6, "Y": 0.2, "F\'": 0.2', '"T\'": 0.6, "Y": 0.2, "F\'": 0.1')
        with pytest.raises(SketchError, match=r"transitions.s1.*sum"):
            parse_sketch(text)

    @pytest.mark.parametrize(
        "row",
        [
            '{"X": 1.0, "T\'": NaN}',  # would sum to NaN and drop the entry
            '{"X": true}',  # would read as probability 1
            '{"X": NaN}',  # would leave an empty distribution
        ],
    )
    def test_nan_and_bool_probabilities_rejected(self, row):
        text = TOY4_TEXT.replace('"s0": {"X": 1.0}', f'"s0": {row}')
        with pytest.raises(SketchError, match=r"transitions.s0.*not a number in \[0, 1\]"):
            parse_sketch(text)

    @pytest.mark.parametrize("value", ['["s0"]', '{"s0": 1}', "3", "null"])
    def test_non_string_initial_rejected(self, value):
        # a list or object would not hash as a key of the state index
        text = TOY4_TEXT.replace('"initial": "s0"', f'"initial": {value}')
        with pytest.raises(SketchError, match="initial"):
            parse_sketch(text)

    @pytest.mark.parametrize("value", ['["t"]', '{"t": 1}', "3", "null"])
    def test_non_string_domain_value_rejected(self, value):
        text = TOY4_TEXT.replace('"Y": ["t", "f"]', f'"Y": [{value}, "f"]')
        with pytest.raises(SketchError, match="parameters.Y"):
            parse_sketch(text)

    def test_unknown_domain_value_rejected(self):
        text = TOY4_TEXT.replace('"Y": ["t", "f"]', '"Y": ["t", "nosuch"]')
        with pytest.raises(SketchError, match="parameters.Y"):
            parse_sketch(text)

    def test_duplicate_state_rejected(self):
        text = TOY4_TEXT.replace('"s0", "s1"', '"s0", "s0"')
        with pytest.raises(SketchError, match="duplicate state"):
            parse_sketch(text)

    def test_empty_domain_rejected(self):
        text = TOY4_TEXT.replace('"Y": ["t", "f"]', '"Y": []')
        with pytest.raises(SketchError, match="non-empty"):
            parse_sketch(text)

    def test_missing_transition_row_rejected(self):
        text = TOY4_TEXT.replace('"f": {"F\'": 1.0}\n', "")
        text = text.replace('"t": {"T\'": 1.0},', '"t": {"T\'": 1.0}')
        with pytest.raises(SketchError, match="transitions.f"):
            parse_sketch(text)

    def test_unknown_parameter_in_row_rejected(self):
        text = TOY4_TEXT.replace('"s0": {"X": 1.0}', '"s0": {"Q": 1.0}')
        with pytest.raises(SketchError, match="unknown parameter"):
            parse_sketch(text)

    def test_json_syntax_error_reports_line(self):
        with pytest.raises(SketchError, match="line"):
            parse_sketch("{\n  broken\n}")

    def test_format_tag_required(self):
        text = TOY4_TEXT.replace("mc-family/1", "mc-family/999")
        with pytest.raises(SketchError, match="format"):
            parse_sketch(text)


class TestParseProperty:
    def test_safety_property(self, toy4):
        prop = parse_property("P<=0.3 [F t]", toy4)
        assert isinstance(prop, Property)
        assert prop.op == "<=" and prop.threshold == 0.3
        assert prop.targets == frozenset({3})

    def test_liveness_property(self, toy4):
        prop = parse_property("P>=1.0 [F t]", toy4)
        assert prop.op == ">=" and prop.threshold == 1.0

    def test_multiple_targets(self, toy4):
        prop = parse_property("P<=0.5 [F t f]", toy4)
        assert prop.targets == frozenset({3, 4})

    def test_objective_with_relaxation(self, toy4):
        obj = parse_property("min P [F t] eps=0.05", toy4)
        assert isinstance(obj, Objective)
        assert obj.direction == "min" and obj.epsilon == 0.05

    def test_max_objective(self, toy4):
        obj = parse_property("max P [F t]", toy4)
        assert obj.direction == "max" and obj.epsilon == 0.0

    def test_unknown_target_rejected(self, toy4):
        with pytest.raises(PropertyError, match="unknown target"):
            parse_property("P<=0.3 [F nosuch]", toy4)

    def test_threshold_above_one_rejected(self, toy4):
        with pytest.raises(PropertyError, match="outside"):
            parse_property("P<=1.5 [F t]", toy4)

    def test_malformed_expression_rejected(self, toy4):
        with pytest.raises(PropertyError):
            parse_property("P < 0.3 [F t]", toy4)
        with pytest.raises(PropertyError):
            parse_property("P<=0.3 [G t]", toy4)


class TestParseSpec:
    def test_lines_and_comments(self, toy4):
        spec = parse_spec("# safety\nP<=0.3 [F t]\n\nP>=0.1 [F t]\n", toy4)
        assert len(spec.properties) == 2
        assert spec.objective is None

    def test_objective_line(self, toy4):
        spec = parse_spec("min P [F t] eps=0.05\n", toy4)
        assert spec.objective is not None
        assert spec.properties == ()

    def test_two_objectives_rejected(self, toy4):
        with pytest.raises(PropertyError, match="more than one"):
            parse_spec("min P [F t]\nmax P [F t]\n", toy4)

    def test_empty_spec_rejected(self, toy4):
        with pytest.raises(PropertyError, match="empty"):
            parse_spec("# nothing here\n", toy4)

    def test_error_reports_line_number(self, toy4):
        with pytest.raises(PropertyError, match="line 2"):
            parse_spec("P<=0.3 [F t]\nb0rked\n", toy4)


class TestGenerateBenchmark:
    def test_deterministic_for_fixed_seed(self):
        a = generate_benchmark(10, 3, 2, 7)
        b = generate_benchmark(10, 3, 2, 7)
        assert a == b
        assert serialize_sketch(a) == serialize_sketch(b)

    def test_different_seeds_differ(self):
        a = generate_benchmark(10, 3, 2, 7)
        b = generate_benchmark(10, 3, 2, 8)
        assert a != b

    def test_round_trips_through_parser(self):
        fam = generate_benchmark(12, 4, 3, 21)
        assert parse_sketch(serialize_sketch(fam)) == fam

    def test_every_member_is_a_valid_chain(self):
        fam = generate_benchmark(8, 3, 2, 5)
        count = 0
        for r in iterate_unpruned(fam.full_subfamily()):
            mc = induce(fam, r)
            for s in range(mc.n_states):
                assert abs(sum(chain_row(mc, s).values()) - 1.0) <= 1e-9
            count += 1
        assert count == member_count(fam.full_subfamily()) == 8

    def test_terminals_are_absorbing(self):
        fam = generate_benchmark(9, 2, 2, 3)
        goal = fam.state_names.index("goal")
        trap = fam.state_names.index("trap")
        r = next(iterate_unpruned(fam.full_subfamily()))
        mc = induce(fam, r)
        assert chain_row(mc, goal) == {goal: 1.0} and chain_row(mc, trap) == {trap: 1.0}

    def test_every_requested_parameter_is_used(self):
        fam = generate_benchmark(10, 5, 2, 9)
        used = set()
        for tmpl in templates(fam):
            used |= set(tmpl.keys)
        assert set(range(5)) <= used

    def test_infeasible_domain_size_rejected(self):
        with pytest.raises(SketchError, match="infeasible"):
            generate_benchmark(4, 2, 5, 1)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(SketchError):
            generate_benchmark(2, 1, 2, 1)
        with pytest.raises(SketchError):
            generate_benchmark(5, 0, 2, 1)
        with pytest.raises(SketchError):
            generate_benchmark(5, 1, 1, 1)
