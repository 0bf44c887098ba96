"""Data model: distributions, induced chains, generalization, enumeration."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mcsynth import (
    Conflict,
    Distribution,
    Family,
    Realization,
    Subfamily,
    count_unpruned,
    generalization,
    induce,
    iterate_unpruned,
    member_count,
)

from conftest import TOY_R, chain_row, corpus_family, CORPUS_CONFIGS


class TestDistribution:
    def test_probabilities_sum_to_one(self):
        d = Distribution({0: 0.25, 2: 0.75})
        assert d.keys == (0, 2)
        assert math.isclose(sum(d.probs), 1.0)

    def test_zero_entries_dropped(self):
        d = Distribution({0: 0.0, 1: 1.0})
        assert d.keys == (1,)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution({0: 0.5, 1: 0.4})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Distribution({0: -0.1, 1: 1.1})

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            Distribution({})


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
        fam = Family(
            state_names=("a", "b"),
            initial=0,
            param_names=("p", "q"),
            domains=((1,), (1,)),
            templates=(Distribution({0: 0.5, 1: 0.5}), Distribution({1: 1.0})),
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
        members = generalization(TOY_R[0], {0}, toy4.full_subfamily())
        assert members == [TOY_R[0], TOY_R[1]]

    def test_all_params_pinned_gives_reference_only(self, toy4):
        members = generalization(TOY_R[2], set(range(4)), toy4.full_subfamily())
        assert members == [TOY_R[2]]

    def test_no_params_gives_whole_scope(self, toy4):
        members = generalization(TOY_R[0], set(), toy4.full_subfamily())
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
            gen_big = generalization(r, big, scope)
            gen_small = generalization(r, small, scope)
            assert r in gen_big
            # fewer pinned parameters -> larger set
            assert set(m.values for m in gen_big) <= set(m.values for m in gen_small)

    def test_size_is_product_of_free_domains(self, toy4):
        scope = toy4.full_subfamily()
        assert len(generalization(TOY_R[0], {1}, scope)) == 2


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


class TestIterateUnpruned:
    def test_yields_lexicographic_order(self, toy4):
        members = list(iterate_unpruned(toy4.full_subfamily()))
        assert members == [TOY_R[i] for i in range(4)]

    def test_conflict_on_x_leaves_r2_r3(self, toy4):
        scope = toy4.full_subfamily()
        conflicts = [Conflict(params=frozenset({0}), reference=TOY_R[0], scope=scope)]
        assert list(iterate_unpruned(scope, conflicts)) == [TOY_R[2], TOY_R[3]]

    def test_empty_conflict_prunes_everything(self, toy4):
        scope = toy4.full_subfamily()
        conflicts = [Conflict(params=frozenset(), reference=TOY_R[0], scope=scope)]
        assert list(iterate_unpruned(scope, conflicts)) == []

    def test_conflicts_appended_mid_iteration_take_effect(self, toy4):
        scope = toy4.full_subfamily()
        conflicts: list[Conflict] = []
        seen = []
        for r in iterate_unpruned(scope, conflicts):
            seen.append(r)
            if r == TOY_R[0]:
                conflicts.append(
                    Conflict(params=frozenset({0}), reference=TOY_R[0], scope=scope)
                )
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
            conflicts.append(Conflict(params=pinned, reference=ref, scope=scope))
        covered = set()
        for c in conflicts:
            covered |= {m.values for m in generalization(c.reference, c.params, scope)}
        expected = [m for m in members if m.values not in covered]
        assert list(iterate_unpruned(scope, conflicts)) == expected
        assert count_unpruned(scope, conflicts) == len(expected)


@st.composite
def accounting_cases(draw):
    """A subfamily inside a larger scope, plus store entries drawn from the scope.

    The subfamily restricts each scope domain as a split does, so conflict
    references may lie outside it on pinned parameters, and its domains may
    be singletons under pins.  Entries are conflicts (any pin set, the empty
    one included) or checked members as realizations.
    """
    m = draw(st.integers(0, 5))
    domains = [sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))) for _ in range(m)]
    scope = Subfamily(domains)
    sub = Subfamily([
        sorted(draw(st.one_of(st.just(d), st.sets(st.sampled_from(d), min_size=1))))
        for d in domains
    ])
    member = st.tuples(*(st.sampled_from(d) for d in domains)).map(Realization)
    conflict = st.builds(
        lambda ref, params: Conflict(params=frozenset(params), reference=ref, scope=scope),
        member,
        st.sets(st.sampled_from(range(m))) if m else st.just(()),
    )
    entries = st.lists(st.one_of(conflict, conflict, member), max_size=8)
    return sub, draw(entries), draw(st.lists(entries, max_size=6))


def _covered(entry) -> set:
    if isinstance(entry, Realization):
        return {entry.values}
    return {m.values for m in generalization(entry.reference, entry.params, entry.scope)}


class TestAccountingAgainstBruteForce:
    """Cube recursion versus filtering the generalization sets member by member."""

    # After (0, 0) the cursor is (0, 1), which the cube covers; parameter 0
    # is pinned by no cube but must still advance to reach (1, 0).
    @example((
        Subfamily([(0, 1)] * 2),
        [Conflict(frozenset({1}), Realization((0, 1)), Subfamily([(0, 1)] * 2))],
        [],
    ))
    @settings(max_examples=300, deadline=None)
    @given(accounting_cases())
    def test_static_store(self, case):
        sub, entries, _appends = case
        covered = set().union(*map(_covered, entries))
        expected = [r for r in itertools.product(*sub.domains) if r not in covered]
        assert [r.values for r in iterate_unpruned(sub, entries)] == expected
        assert count_unpruned(sub, entries) == len(expected)

    @settings(max_examples=300, deadline=None)
    @given(accounting_cases())
    def test_entries_appended_while_iterating(self, case):
        sub, entries, appends = case
        after_yield = dict(enumerate(appends, start=1))  # yields so far -> entries appended
        covered, expected = set().union(*map(_covered, entries)), []
        for r in itertools.product(*sub.domains):
            if r not in covered:
                expected.append(r)
                covered |= set().union(*map(_covered, after_yield.get(len(expected), ())))
        store, got = list(entries), []
        for r in iterate_unpruned(sub, store):
            got.append(r.values)
            store.extend(after_yield.get(len(got), ()))
        assert got == expected

    def test_zero_parameter_subfamily(self):
        sub = Subfamily(())
        assert list(iterate_unpruned(sub)) == [Realization(())]
        assert count_unpruned(sub) == 1
        for entry in (Conflict(params=frozenset(), reference=Realization(()), scope=sub),
                      Realization(())):
            assert list(iterate_unpruned(sub, [entry])) == []
            assert count_unpruned(sub, [entry]) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_count_beyond_enumeration_matches_inclusion_exclusion(self, seed):
        """2^40 members cannot be walked; the oracle sums cube intersections instead."""
        rng = random.Random(f"scale:{seed}")
        n = 40
        sub = Subfamily([(0, 1)] * n)
        conflicts = [
            Conflict(
                params=frozenset(rng.sample(range(n), rng.randint(1, 6))),
                reference=Realization(tuple(rng.randint(0, 1) for _ in range(n))),
                scope=sub,
            )
            for _ in range(rng.randint(8, 10))
        ]
        expected = 0
        for size in range(len(conflicts) + 1):
            for subset in itertools.combinations(conflicts, size):
                pins = {}
                for c in subset:
                    for k in c.params:
                        pins.setdefault(k, set()).add(c.reference.values[k])
                if all(len(vals) == 1 for vals in pins.values()):
                    expected += (-1) ** size * 2 ** (n - len(pins))
        assert 0 < expected < 2**n
        assert count_unpruned(sub, conflicts) == expected


class TestValidation:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty domain"):
            Family(
                state_names=("a",),
                initial=0,
                param_names=("p",),
                domains=((),),
                templates=(Distribution({0: 1.0}),),
            )

    def test_undeclared_parameter_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            Family(
                state_names=("a",),
                initial=0,
                param_names=("p",),
                domains=((0,),),
                templates=(Distribution({1: 1.0}),),
            )

    def test_domain_value_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            Family(
                state_names=("a",),
                initial=0,
                param_names=("p",),
                domains=((4,),),
                templates=(Distribution({0: 1.0}),),
            )

    def test_corpus_configs_stay_at_desk_scale(self):
        for states, params, domain, _seed in CORPUS_CONFIGS:
            assert states <= 40
            assert domain**params <= 512
