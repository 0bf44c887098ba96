"""Flat transition rows: chain validation and bitwise agreement with dict references.

A chain is a quotient with one action per state.  Quotient actions are built
by :func:`mcsynth.model.flat_rows`, member chains are gathered from the root
quotient's actions, rerouted chains are built by the reference ``reroute``
in ``conftest``; the references below accumulate each row in a dict, in
template order, the way the rows are defined, and must match to the last
bit.  A gathered chain must also be bitwise the rows ``flat_rows`` builds
from the member's own templates and the quotient of the one member, and pass
the row check it skips.  A chain built by hand has its rows checked.
Stored rows are read-only.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcsynth.synthesis
from mcsynth import Realization, Subfamily, build_quotient, induce, synthesize
from mcsynth.model import check_rows, flat_rows
from mcsynth.quotient import QuotientMdp, root_quotient

from conftest import (
    CORPUS_CONFIGS,
    action_choice,
    action_row,
    corpus_family,
    hand_chain as chain,
    lane_family,
    make_family,
    make_instance,
    n_actions,
    reroute,
    templates,
)


class TestMcValidation:
    """The rows of a chain built by hand, a quotient with no family, are checked."""

    def test_valid_chain_accepted(self):
        # the target sequence falls across the row boundary, not within a row
        mc = chain([0, 2, 3], [0, 1, 0], [0.5, 0.5, 1.0])
        assert mc.n_states == 2

    def test_row_ptr_not_starting_at_zero(self):
        with pytest.raises(ValueError, match="row pointers"):
            chain([1, 1, 2], [0, 1], [1.0, 1.0])

    def test_row_ptr_not_ending_at_entry_count(self):
        with pytest.raises(ValueError, match="row pointers"):
            chain([0, 1, 3], [0, 1], [1.0, 1.0])

    def test_probabilities_not_matching_targets(self):
        with pytest.raises(ValueError, match="row pointers"):
            chain([0, 1, 2], [0, 1], [1.0, 1.0, 1.0])

    def test_empty_middle_row(self):
        # a sum check by np.add.reduceat alone would read row 1 as [1.0]
        with pytest.raises(ValueError, match="row of state 1 is empty"):
            chain([0, 1, 1, 2], [1, 2], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [2, -1])
    def test_target_out_of_range(self, bad):
        with pytest.raises(ValueError, match="unknown state"):
            chain([0, 1, 2], [0, bad], [1.0, 1.0])

    def test_duplicate_target(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            chain([0, 2, 3], [1, 1, 1], [0.5, 0.5, 1.0])

    def test_decreasing_targets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            chain([0, 2, 3], [1, 0, 1], [0.5, 0.5, 1.0])

    @pytest.mark.parametrize("probs", [[1.0, 0.0, 1.0], [1.5, -0.5, 1.0], [np.nan, 1.0, 1.0]])
    def test_non_positive_probability(self, probs):
        with pytest.raises(ValueError, match="positive"):
            chain([0, 2, 3], [0, 1, 1], probs)

    def test_row_sum_off(self):
        with pytest.raises(ValueError, match="sum to 1"):
            chain([0, 2, 3], [0, 1, 1], [0.5, 0.4, 1.0])

    def test_state_without_actions(self):
        ptr, tgt, prob = (np.asarray(a) for a in ([0, 1, 2], [1, 1], [1.0, 1.0]))
        with pytest.raises(ValueError, match="state 1 has no actions"):
            QuotientMdp(None, None, np.asarray([0, 2, 2]), ptr, tgt, prob)


class TestStoredRowsReadOnly:
    """Rows are checked once, at construction; writing to them afterwards raises."""

    @pytest.mark.parametrize("name", ["act_ptr", "ent_target", "ent_prob", "ent_source"])
    def test_chain_arrays(self, name):
        mc = chain([0, 2, 3], [0, 1, 0], [0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(mc, name)[0] = 1

    @pytest.mark.parametrize("name", ["tmpl_ptr", "tmpl_param", "tmpl_prob"])
    def test_family_arrays(self, name):
        fam = corpus_family(0)
        with pytest.raises(ValueError, match="read-only"):
            getattr(fam, name)[0] = 5

    def test_caller_arrays_become_read_only(self):
        prob = np.asarray([0.5, 0.5, 1.0])
        chain([0, 2, 3], [0, 1, 0], prob)
        with pytest.raises(ValueError, match="read-only"):
            prob[0] = 5.0

    def test_chunk_ids(self):
        fam = lane_family(400, 6, 0.6, 1)
        mc = induce(fam, Realization(tuple(dom[0] for dom in fam.domains)))
        assert mc.family._chunk_ids is fam._chunk_ids
        with pytest.raises(ValueError, match="read-only"):
            mc.family._chunk_ids[0] = 1


def row_of(acc: dict) -> tuple[tuple, tuple]:
    keys = tuple(t for t in sorted(acc) if acc[t] > 0.0)
    return keys, tuple(acc[t] for t in keys)


def ref_rows(tmpls, values) -> list[tuple[tuple, tuple]]:
    """One row per template: probabilities summed per target, in template order."""
    rows = []
    for tmpl in tmpls:
        acc: dict[int, float] = {}
        for k, p in zip(tmpl.keys, tmpl.probs):
            acc[values[k]] = acc.get(values[k], 0.0) + p
        rows.append(row_of(acc))
    return rows


def rows_of(ptr, tgt, prob) -> list[tuple[tuple, tuple]]:
    ptr, tgt, prob = ptr.tolist(), tgt.tolist(), prob.tolist()
    return [
        (tuple(tgt[a:b]), tuple(prob[a:b])) for a, b in zip(ptr[:-1], ptr[1:])
    ]


def random_member(rng, sub) -> Realization:
    return Realization(tuple(rng.choice(dom) for dom in sub.domains))


def random_subfamily(rng, family) -> Subfamily:
    return Subfamily(
        [sorted(rng.sample(dom, rng.randint(1, len(dom)))) for dom in family.domains]
    )


CORPUS = range(0, 48, 2)


class TestRowsMatchDictReference:
    def test_induce(self, toy4):
        rng = random.Random(1)
        merged = 0
        for i in CORPUS:
            fam = corpus_family(i)
            root = root_quotient(fam)
            for _ in range(5):
                r = random_member(rng, fam.full_subfamily())
                mc = induce(fam, r, root)
                want = ref_rows(templates(fam), r.values)
                assert rows_of(mc.act_ptr, mc.ent_target, mc.ent_prob) == want
                merged += sum(len(w[0]) < len(t.keys) for w, t in zip(want, templates(fam)))
        assert merged > 0  # some rows summed parameters sharing a target
        # at s1 of the toy family the fixed loop parameter and Y both point at t
        mc = induce(toy4, Realization((1, 3, 3, 4)))
        assert rows_of(mc.act_ptr, mc.ent_target, mc.ent_prob)[1] == ((3, 4), (0.6 + 0.2, 0.2))

    @pytest.mark.parametrize("kind", ["zero", "one", "random"])
    def test_reroute(self, kind):
        rng = random.Random(f"reroute:{kind}")
        for i in CORPUS:
            fam = corpus_family(i)
            r = random_member(rng, fam.full_subfamily())
            mc = induce(fam, r)
            n = mc.n_states
            gamma = {
                "zero": np.zeros(n),
                "one": np.ones(n),
                "random": np.array([rng.random() for _ in range(n)]),
            }[kind]
            expanded = {s for s in range(n) if rng.random() < 0.5}
            got = reroute(mc, expanded, gamma)
            base = ref_rows(templates(fam), r.values)
            want = [
                base[s] if s in expanded else row_of({n: float(gamma[s]), n + 1: 1.0 - gamma[s]})
                for s in range(n)
            ]
            want += [((n,), (1.0,)), ((n + 1,), (1.0,))]
            assert rows_of(got.act_ptr, got.ent_target, got.ent_prob) == want

    def test_build_quotient(self):
        rng = random.Random(3)
        for i in CORPUS:
            fam = corpus_family(i)
            for _ in range(3):
                sub = random_subfamily(rng, fam)
                q = build_quotient(fam, sub)
                want, counts = [], []
                for tmpl in templates(fam):
                    combos = list(itertools.product(*(sub.domains[k] for k in tmpl.keys)))
                    counts.append(len(combos))
                    for combo in combos:
                        want += ref_rows([tmpl], dict(zip(tmpl.keys, combo)))
                assert q.state_ptr.tolist() == np.cumsum([0] + counts).tolist()
                assert rows_of(q.act_ptr, q.ent_target, q.ent_prob) == want


class TestQuotientActionOrder:
    def test_action_row_is_the_decoded_members_row(self):
        rng = random.Random(4)
        for i in range(0, 48, 4):
            fam = corpus_family(i)
            root = root_quotient(fam)
            for sub in (fam.full_subfamily(), random_subfamily(rng, fam)):
                q = build_quotient(fam, sub)
                base = [dom[0] for dom in sub.domains]
                for s in range(q.n_states):
                    for a in range(n_actions(q, s)):
                        values = list(base)
                        for k, v in action_choice(q, s, a).items():
                            values[k] = v
                        mc = induce(fam, Realization(tuple(values)), root)
                        tgt, prob = action_row(q, s, a)
                        lo, hi = mc.act_ptr[s], mc.act_ptr[s + 1]
                        assert tgt.tolist() == mc.ent_target[lo:hi].tolist()
                        assert prob.tolist() == mc.ent_prob[lo:hi].tolist()


def template_rows(fam, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``r``'s chain built from its templates by ``flat_rows``, not from the root."""
    tmpl_state = np.repeat(np.arange(fam.n_states), np.diff(fam.tmpl_ptr))
    return flat_rows(fam.n_states, tmpl_state, np.asarray(r.values)[fam.tmpl_param], fam.tmpl_prob)


def assert_gathered(fam, r, mc):
    """``mc`` is bitwise the template rows of ``r``, passes the row check and is read-only."""
    arrays = (mc.act_ptr, mc.ent_target, mc.ent_prob)
    for got, want in zip(arrays, template_rows(fam, r)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    sizes = check_rows(*arrays, fam.n_states, "targets an unknown state")
    assert np.array_equal(mc.ent_source, np.repeat(np.arange(fam.n_states), sizes))
    assert (mc.family, mc.sub, mc.initial) == (fam, r, fam.initial)
    assert np.array_equal(mc.state_ptr, np.arange(fam.n_states + 1))
    assert not any(a.flags.writeable for a in arrays + (mc.act_state, mc.ent_act, mc.ent_source))


def assert_member_quotient(fam, r, mc, root):
    """``mc`` is bitwise the quotient ``build_quotient`` gives ``r``'s one-member subfamily."""
    q = build_quotient(fam, Subfamily([(v,) for v in r.values]), root)
    names = ("state_ptr", "act_ptr", "ent_target", "ent_prob", "act_state", "ent_act", "ent_source")
    for name in names:
        got, want = getattr(mc, name), getattr(q, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


GATHER_CASES = len(CORPUS_CONFIGS) + 3


@functools.cache
def gather_case(i: int):
    """Corpus family ``i`` (then three lane families) and its root quotient."""
    lanes = ((12, 4, 0.7, 1), (40, 8, 0.7, 3), (400, 6, 0.6, 1))
    fam = corpus_family(i) if i < len(CORPUS_CONFIGS) else lane_family(*lanes[i - len(CORPUS_CONFIGS)])
    return fam, root_quotient(fam)


# one state sends the mass of p, q and the fixed z to the states p and q pick
SHARED_TARGET = make_family(
    state_names=("a", "b", "c"),
    initial=0,
    param_names=("p", "q", "z"),
    domains=((1, 2), (1, 2), (2,)),
    rows=({0: 0.1, 1: 0.2, 2: 0.7}, {2: 1.0}, {2: 1.0}),
)


class TestGatheredChains:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_corpus_members_match_template_rows(self, data):
        fam, root = gather_case(data.draw(st.integers(0, GATHER_CASES - 1)))
        r = Realization(tuple(data.draw(st.sampled_from(dom)) for dom in fam.domains))
        mc = induce(fam, r, root)
        assert_gathered(fam, r, mc)
        assert_member_quotient(fam, r, mc, root)
        # a mask holding r gathers the same rows
        sub = Subfamily([
            sorted({v} | set(data.draw(st.lists(st.sampled_from(dom), max_size=2))))
            for v, dom in zip(r.values, fam.domains)
        ])
        mask = build_quotient(fam, sub, root)
        mc = induce(fam, r, mask)
        assert_gathered(fam, r, mc)
        assert_member_quotient(fam, r, mc, mask)

    def test_parameters_sharing_a_target_sum_in_template_order(self):
        fam = SHARED_TARGET
        root = root_quotient(fam)
        for values in itertools.product(*fam.domains):
            r = Realization(values)
            mc = induce(fam, r, root)
            assert_gathered(fam, r, mc)
            assert_gathered(fam, r, induce(fam, r))
        mc = induce(fam, Realization((2, 2, 2)), root)
        # one entry holding (0.1 + 0.2) + 0.7, which differs from 0.1 + (0.2 + 0.7)
        assert rows_of(mc.act_ptr, mc.ent_target, mc.ent_prob)[0] == ((2,), ((0.1 + 0.2) + 0.7,))
        mc = induce(fam, Realization((1, 1, 2)), root)
        assert rows_of(mc.act_ptr, mc.ent_target, mc.ent_prob)[0] == ((1, 2), (0.1 + 0.2, 0.7))

    def test_member_outside_the_quotient_rejected(self):
        fam = SHARED_TARGET
        q = build_quotient(fam, fam.full_subfamily().restricted(0, (2,)))
        with pytest.raises(ValueError, match="no action"):
            induce(fam, Realization((1, 1, 2)), q)

    def test_driver_chains_match_template_rows(self, monkeypatch):
        chains = []
        real = mcsynth.synthesis.induce

        def spy(family, r, root=None):
            chains.append(real(family, r, root))
            return chains[-1]

        monkeypatch.setattr(mcsynth.synthesis, "induce", spy)
        for i in range(3):
            fam, spec, _values = make_instance(i, "mixed")
            for method in mcsynth.synthesis.METHODS:
                chains.clear()
                result = synthesize(fam, spec, method=method)
                assert len(chains) == result.stats.checked > 0
                for mc in chains:
                    assert_gathered(fam, mc.sub, mc)
