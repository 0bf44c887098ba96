"""Data model: templates, induced chains, generalization, enumeration."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcsynth import (
    Family,
    Realization,
    Subfamily,
    count_unpruned,
    generalization,
    induce,
    iterate_unpruned,
    member_count,
    parse_sketch,
)
from mcsynth import model

from conftest import TOY_R, chain_row, corpus_family, cube_of, make_family, template, CORPUS_CONFIGS


def one_state_family(row: dict[int, float]) -> Family:
    return make_family(
        state_names=("a",),
        initial=0,
        param_names=("p", "q", "r"),
        domains=((0,), (0,), (0,)),
        rows=(row,),
    )


def flat_family(ptr, param, prob) -> Family:
    """Two states over parameters ``p`` and ``q``, templates given as flat arrays."""
    return Family(
        state_names=("a", "b"),
        initial=0,
        param_names=("p", "q"),
        domains=((0,), (1,)),
        tmpl_ptr=np.asarray(ptr, dtype=np.int64),
        tmpl_param=np.asarray(param, dtype=np.int64),
        tmpl_prob=np.asarray(prob, dtype=np.float64),
    )


class TestTemplates:
    def test_probabilities_sum_to_one(self):
        tmpl = template(one_state_family({0: 0.25, 2: 0.75}), 0)
        assert tmpl.keys == (0, 2)
        assert math.isclose(sum(tmpl.probs), 1.0)

    def test_zero_entries_dropped(self):
        fam = parse_sketch(
            '{"format": "mc-family/1", "states": ["a"], "initial": "a",'
            ' "parameters": {"p": ["a"], "q": ["a"]},'
            ' "transitions": {"a": {"p": 0.0, "q": 1.0}}}'
        )
        assert template(fam, 0).keys == (1,)

    def test_parser_sorts_by_parameter(self):
        fam = parse_sketch(
            '{"format": "mc-family/1", "states": ["a"], "initial": "a",'
            ' "parameters": {"p": ["a"], "q": ["a"]},'
            ' "transitions": {"a": {"q": 0.75, "p": 0.25}}}'
        )
        assert template(fam, 0) == ((0, 1), (0.25, 0.75))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            one_state_family({0: 0.5, 1: 0.4})

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            one_state_family({0: -0.1, 1: 1.1})

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="row of state 0 is empty"):
            one_state_family({})

    @pytest.mark.parametrize("entries", [{0: math.nan}, {0: 1.0, 1: math.nan}])
    def test_nan_rejected(self, entries):
        with pytest.raises(ValueError, match="positive"):
            one_state_family(entries)

    @pytest.mark.parametrize("param", [[0, 0, 1], [1, 0, 1]], ids=["repeated", "unsorted"])
    def test_parameters_strictly_increasing(self, param):
        with pytest.raises(ValueError, match="strictly increasing"):
            flat_family([0, 2, 3], param, [0.5, 0.5, 1.0])

    @pytest.mark.parametrize("ptr", [[0, 3], [0, 1, 2, 3]], ids=["short", "long"])
    def test_pointer_per_state(self, ptr):
        with pytest.raises(ValueError, match="one template row required per state"):
            flat_family(ptr, [0, 1, 1], [0.5, 0.5, 1.0])

    def test_pointers_span_the_entries(self):
        with pytest.raises(ValueError, match="row pointers"):
            flat_family([0, 2, 2], [0, 1, 1], [0.5, 0.5, 1.0])

    def test_flat_rows_accepted_and_compared_by_value(self):
        fam = flat_family([0, 2, 3], [0, 1, 1], [0.5, 0.5, 1.0])
        # the state of each template entry, read off the row pointers
        assert np.repeat(np.arange(fam.n_states), np.diff(fam.tmpl_ptr)).tolist() == [0, 0, 1]
        assert fam == flat_family([0, 2, 3], [0, 1, 1], [0.5, 0.5, 1.0])
        assert fam != flat_family([0, 2, 3], [0, 1, 1], [0.25, 0.75, 1.0])
        assert fam != flat_family([0, 1, 3], [0, 0, 1], [1.0, 0.5, 0.5])


class TestInduce:
    def test_toy_r0_sums_parameters_to_same_target(self, toy4):
        # At s1 both the fixed loop parameter and Y point at t: 0.6 + 0.2.
        mc = induce(toy4, TOY_R[0])
        assert chain_row(mc, 1).get(3) == pytest.approx(0.8)
        assert chain_row(mc, 1).get(4) == pytest.approx(0.2)
        assert tuple(chain_row(mc, 0)) == (1,)

    def test_states_and_initial_preserved(self, toy4):
        mc = induce(toy4, TOY_R[2])
        assert mc.n_states == toy4.n_states
        assert mc.initial == toy4.initial

    def test_singleton_family_has_unique_member(self):
        fam = make_family(
            state_names=("a", "b"),
            initial=0,
            param_names=("p", "q"),
            domains=((1,), (1,)),
            rows=({0: 0.5, 1: 0.5}, {1: 1.0}),
        )
        members = list(iterate_unpruned(fam.full_subfamily()))
        assert len(members) == 1
        mc = induce(fam, members[0])
        assert chain_row(mc, 0).get(1) == pytest.approx(1.0)

    def test_rows_stochastic_on_random_ten_state_family(self):
        from mcsynth import generate_benchmark

        fam = generate_benchmark(10, 3, 2, 17)
        rng = random.Random(99)
        for _ in range(10):
            r = Realization(tuple(rng.choice(dom) for dom in fam.domains))
            mc = induce(fam, r)
            for s in range(mc.n_states):
                assert abs(sum(chain_row(mc, s).values()) - 1.0) <= 1e-9

    def test_invalid_assignment_rejected(self, toy4):
        with pytest.raises(ValueError, match="domain"):
            induce(toy4, Realization((0, 3, 3, 4)))
        with pytest.raises(ValueError, match="parameters"):
            induce(toy4, Realization((1, 3)))


class TestGeneralization:
    def test_toy_conflict_x_covers_two_members(self, toy4):
        members = generalization(cube_of(TOY_R[0], {0}), toy4.full_subfamily())
        assert members == [TOY_R[0], TOY_R[1]]

    def test_all_params_pinned_gives_reference_only(self, toy4):
        members = generalization(cube_of(TOY_R[2], range(4)), toy4.full_subfamily())
        assert members == [TOY_R[2]]

    def test_no_params_gives_whole_scope(self, toy4):
        members = generalization((), toy4.full_subfamily())
        assert members == [TOY_R[i] for i in range(4)]

    def test_contains_reference_and_monotone(self):
        fam = corpus_family(7)
        scope = fam.full_subfamily()
        rng = random.Random(5)
        multi = list(scope.multi_valued())
        for _ in range(20):
            r = Realization(tuple(rng.choice(dom) for dom in fam.domains))
            big = set(rng.sample(multi, rng.randint(0, len(multi))))
            small = set(rng.sample(sorted(big), rng.randint(0, len(big))))
            gen_big = generalization(cube_of(r, big), scope)
            gen_small = generalization(cube_of(r, small), scope)
            assert r in gen_big
            # fewer pinned parameters -> larger set
            assert set(m.values for m in gen_big) <= set(m.values for m in gen_small)

    def test_size_is_product_of_free_domains(self, toy4):
        scope = toy4.full_subfamily()
        assert len(generalization(cube_of(TOY_R[0], {1}), scope)) == 2


class TestMemberCount:
    def test_toy_family_has_four_members(self, toy4):
        assert member_count(toy4.full_subfamily()) == 4

    def test_restriction_shrinks_count(self, toy4):
        sub = toy4.full_subfamily().restricted(0, (2,))
        assert member_count(sub) == 2

    def test_all_singletons(self):
        assert member_count(Subfamily(((1,), (2,), (3,)))) == 1

    def test_counts_are_exact_integers(self):
        sub = Subfamily(tuple((0, 1) for _ in range(62)))
        assert member_count(sub) == 2**62

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=8),
    )
    def test_restriction_chains_match_a_fresh_subfamily(self, sizes, steps):
        # each step narrows or widens one domain; the derived count and
        # multi-valued set must be those of the subfamily built from scratch
        sub = Subfamily([tuple(range(size)) for size in sizes])
        for k, size in steps:
            k %= len(sizes)
            sub = sub.restricted(k, tuple(range(size)))
            fresh = Subfamily(sub.domains)
            assert member_count(sub) == member_count(fresh) == math.prod(map(len, sub.domains))
            assert sub.multi_valued() == fresh.multi_valued()
            assert sub.multi_valued() == tuple(
                k for k, dom in enumerate(sub.domains) if len(dom) > 1
            )


class TestIterateUnpruned:
    def test_yields_lexicographic_order(self, toy4):
        members = list(iterate_unpruned(toy4.full_subfamily()))
        assert members == [TOY_R[i] for i in range(4)]

    def test_conflict_on_x_leaves_r2_r3(self, toy4):
        scope = toy4.full_subfamily()
        conflicts = [cube_of(TOY_R[0], {0})]
        assert list(iterate_unpruned(scope, conflicts)) == [TOY_R[2], TOY_R[3]]

    def test_empty_conflict_prunes_everything(self, toy4):
        scope = toy4.full_subfamily()
        conflicts = [cube_of(TOY_R[0], ())]
        assert list(iterate_unpruned(scope, conflicts)) == []

    def test_conflicts_appended_mid_iteration_take_effect(self, toy4):
        scope = toy4.full_subfamily()
        conflicts: list[model.Cube] = []
        seen = []
        for r in iterate_unpruned(scope, conflicts):
            seen.append(r)
            if r == TOY_R[0]:
                conflicts.append(cube_of(TOY_R[0], {0}))
        assert seen == [TOY_R[0], TOY_R[2], TOY_R[3]]

    @pytest.mark.parametrize("case", range(12))
    def test_matches_brute_force_subtraction(self, case):
        fam = corpus_family(case)
        scope = fam.full_subfamily()
        if member_count(scope) > 512:
            scope = scope.restricted(0, scope.domains[0][:1])
        rng = random.Random(f"prune:{case}")
        members = list(iterate_unpruned(scope))
        multi = list(scope.multi_valued())
        conflicts = []
        for _ in range(rng.randint(1, 4)):
            ref = rng.choice(members)
            pinned = frozenset(rng.sample(multi, rng.randint(0, len(multi))))
            conflicts.append(cube_of(ref, pinned))
        covered = set()
        for c in conflicts:
            covered |= {m.values for m in generalization(c, scope)}
        expected = [m for m in members if m.values not in covered]
        assert list(iterate_unpruned(scope, conflicts)) == expected
        assert count_unpruned(scope, conflicts) == len(expected)


@st.composite
def accounting_cases(draw):
    """A subfamily inside a larger scope, plus store entries drawn from the scope.

    The subfamily restricts each scope domain as a split does, so conflict
    pins may lie outside it, and its domains may be singletons under pins.
    Entries are conflict cubes (a reference's values on any pin set, the
    empty one and single-valued parameters of the scope included), checked
    members as realizations, or the cube of either in the scope, as a queued
    item stores it before a split restricts it.
    """
    m = draw(st.integers(0, 5))
    domains = [sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))) for _ in range(m)]
    scope = Subfamily(domains)
    sub = Subfamily([
        sorted(draw(st.one_of(st.just(d), st.sets(st.sampled_from(d), min_size=1))))
        for d in domains
    ])
    member = st.tuples(*(st.sampled_from(d) for d in domains)).map(Realization)
    conflict = st.builds(cube_of, member, st.sets(st.sampled_from(range(m))) if m else st.just(()))
    cube = st.one_of(conflict, member).map(lambda entry: model.cube_pins(entry, scope))
    entries = st.lists(st.one_of(conflict, conflict, member, cube), max_size=8)
    return sub, draw(entries), draw(st.lists(entries, max_size=6))


@st.composite
def memo_scale_cases(draw):
    """Many entries over 8 to 12 parameters: the residual cube sets repeat.

    Domains hold 2 or 3 values, trimmed to at most 4096 members so brute
    force stays cheap.  Entries (10 to 60, conflict cubes pinning 1 to 5
    parameters mixed with checked members) are split between the store at
    the start and batches appended after successive yields.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=8, max_size=12))
    for k in reversed(range(len(sizes))):
        if math.prod(sizes) <= 4096:
            break
        sizes[k] = 2
    domains = [sorted(draw(st.sets(st.integers(0, 3), min_size=n, max_size=n))) for n in sizes]
    sub = Subfamily(domains)
    member = st.tuples(*(st.sampled_from(d) for d in domains)).map(Realization)
    conflict = st.builds(
        cube_of, member, st.sets(st.sampled_from(range(len(domains))), min_size=1, max_size=5)
    )
    entries = draw(st.lists(st.one_of(conflict, conflict, member), min_size=10, max_size=60))
    split = draw(st.integers(0, len(entries)))
    appends, rest = [], entries[split:]
    for size in draw(st.lists(st.integers(0, 6), max_size=20)):
        appends.append(rest[:size])
        rest = rest[size:]
    return sub, entries[:split], appends


def _covered(entries, sub: Subfamily) -> set:
    """Members the entries cover; a cube covers the members of ``sub`` agreeing with its pins."""
    covered = set()
    for e in entries:
        if isinstance(e, Realization):
            covered.add(e.values)
        else:
            covered |= {m for m in itertools.product(*sub.domains) if all(m[k] == v for k, v in e)}
    return covered


class TestAccountingAgainstBruteForce:
    """Cube recursion versus filtering the generalization sets member by member."""

    # After (0, 0) the cursor is (0, 1), which the cube covers; parameter 0
    # is pinned by no cube but must still advance to reach (1, 0).
    @example((
        Subfamily([(0, 1)] * 2),
        [((1, 1),)],
        [],
    ))
    @settings(max_examples=300, deadline=None)
    @given(accounting_cases())
    def test_static_store(self, case):
        sub, entries, _appends = case
        covered = _covered(entries, sub)
        expected = [r for r in itertools.product(*sub.domains) if r not in covered]
        assert [r.values for r in iterate_unpruned(sub, entries)] == expected
        assert count_unpruned(sub, entries) == len(expected)

    @settings(max_examples=300, deadline=None)
    @given(accounting_cases())
    def test_entries_appended_while_iterating(self, case):
        sub, entries, appends = case
        after_yield = dict(enumerate(appends, start=1))  # yields so far -> entries appended
        covered, expected = _covered(entries, sub), []
        for r in itertools.product(*sub.domains):
            if r not in covered:
                expected.append(r)
                covered |= _covered(after_yield.get(len(expected), ()), sub)
        store, got = list(entries), []
        for r in iterate_unpruned(sub, store):
            got.append(r.values)
            store.extend(after_yield.get(len(got), ()))
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(memo_scale_cases())
    def test_memo_scale_store_with_appends(self, case):
        sub, entries, appends = case
        after_yield = dict(enumerate(appends, start=1))  # yields so far -> entries appended
        members = list(itertools.product(*sub.domains))
        initial = _covered(entries, sub)
        covered, expected = set(initial), []
        for r in members:
            if r not in covered:
                expected.append(r)
                covered |= _covered(after_yield.get(len(expected), ()), sub)
        store, got = list(entries), []
        for r in iterate_unpruned(sub, store):
            got.append(r.values)
            store.extend(after_yield.get(len(got), ()))
        assert got == expected
        assert count_unpruned(sub, entries) == sum(r not in initial for r in members)
        assert count_unpruned(sub, store) == sum(r not in covered for r in members)

    def test_disjoint_pair_cubes_count_in_closed_form(self, monkeypatch):
        """20 cubes pin disjoint pairs to (0, 0): 3 open pairs each, 3**20 members.

        Without the memo the recursion doubles per pair (12 pairs already
        take 12286 ``_count`` calls); with it, each residual problem is
        solved once.
        """
        n = 20
        sub = Subfamily([(0, 1)] * (2 * n))
        cubes = [((2 * i, 0), (2 * i + 1, 0)) for i in range(n)]
        count, calls = model._count, []

        def counted(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(model, "_count", counted)
        assert count_unpruned(sub, cubes) == 3**n
        assert len(calls) <= 100
        open_pairs = itertools.product([(0, 1), (1, 0), (1, 1)], repeat=n)
        expected = [sum(pairs, ()) for pairs in itertools.islice(open_pairs, 200)]
        got = itertools.islice(iterate_unpruned(sub, cubes), 200)
        assert [r.values for r in got] == expected

    def test_zero_parameter_subfamily(self):
        sub = Subfamily(())
        assert list(iterate_unpruned(sub)) == [Realization(())]
        assert count_unpruned(sub) == 1
        for entry in ((), Realization(())):
            assert list(iterate_unpruned(sub, [entry])) == []
            assert count_unpruned(sub, [entry]) == 0

    @pytest.mark.parametrize(
        "entry",
        [((1, 0), (0, 1)), ((0, 0), (0, 1)), ((-1, 0),), ((3, 0),),
         Realization((0,)), Realization((0, 0, 0, 0))],
        ids=["unsorted", "repeated", "negative", "beyond", "short", "long"],
    )
    def test_malformed_entry_rejected(self, entry):
        # unchecked, the unsorted cube counted 12 of 8 members, the negative
        # one 32, and the short realization read as a cube left 4 open
        sub = Subfamily([(0, 1)] * 3)
        with pytest.raises(ValueError, match="parameter"):
            count_unpruned(sub, [entry])
        with pytest.raises(ValueError, match="parameter"):
            next(iterate_unpruned(sub, [entry]))
        if not isinstance(entry, Realization):
            with pytest.raises(ValueError, match="parameter"):
                generalization(entry, sub)

    def test_many_single_valued_parameters_before_a_pinned_one(self):
        """1500 single-valued parameters ahead of two binary ones stay below the recursion limit."""
        sub = Subfamily([(0,)] * 1500 + [(0, 1), (0, 1)])
        got = iterate_unpruned(sub, [Realization((0,) * 1502)])
        assert [r.values[-2:] for r in got] == [(0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("seed", range(5))
    def test_count_beyond_enumeration_matches_inclusion_exclusion(self, seed):
        """2^40 members cannot be walked; the oracle sums cube intersections instead."""
        rng = random.Random(f"scale:{seed}")
        n = 40
        sub = Subfamily([(0, 1)] * n)
        conflicts = [
            cube_of(
                Realization(tuple(rng.randint(0, 1) for _ in range(n))),
                rng.sample(range(n), rng.randint(1, 6)),
            )
            for _ in range(rng.randint(8, 10))
        ]
        expected = 0
        for size in range(len(conflicts) + 1):
            for subset in itertools.combinations(conflicts, size):
                pins = {}
                for c in subset:
                    for k, v in c:
                        pins.setdefault(k, set()).add(v)
                if all(len(vals) == 1 for vals in pins.values()):
                    expected += (-1) ** size * 2 ** (n - len(pins))
        assert 0 < expected < 2**n
        assert count_unpruned(sub, conflicts) == expected


class TestValidation:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty domain"):
            make_family(
                state_names=("a",),
                initial=0,
                param_names=("p",),
                domains=((),),
                rows=({0: 1.0},),
            )

    def test_undeclared_parameter_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            make_family(
                state_names=("a",),
                initial=0,
                param_names=("p",),
                domains=((0,),),
                rows=({1: 1.0},),
            )

    def test_domain_value_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            make_family(
                state_names=("a",),
                initial=0,
                param_names=("p",),
                domains=((4,),),
                rows=({0: 1.0},),
            )

    def test_corpus_configs_stay_at_desk_scale(self):
        for states, params, domain, _seed in CORPUS_CONFIGS:
            assert states <= 40
            assert domain**params <= 512


class TestRestricted:
    def test_replaced_domain_is_checked(self, toy4):
        sub = toy4.full_subfamily()
        with pytest.raises(ValueError, match="parameter 1 is empty"):
            sub.restricted(1, ())
        with pytest.raises(ValueError, match="parameter 0 must be strictly increasing"):
            sub.restricted(0, (2, 1))

    def test_other_domains_are_kept(self, toy4):
        sub = toy4.full_subfamily()
        half = sub.restricted(1, [4])
        assert half.domains == ((1, 2), (4,), (3,), (4,))
        assert all(a is b for k, (a, b) in enumerate(zip(half.domains, sub.domains)) if k != 1)
        assert sub.domains[1] == (3, 4)
