"""Flat transition rows: chain validation and bitwise agreement with dict references.

Member chains, rerouted chains and quotient actions are all built by
:func:`mcsynth.model.flat_rows` or by ``reroute``; the references below
accumulate each row in a dict, in template order, the way the rows are
defined, and must match to the last bit.
"""

import itertools
import random

import numpy as np
import pytest

from mcsynth import Mc, Realization, Subfamily, build_quotient, induce, reroute

from conftest import corpus_family


def chain(ptr, tgt, prob, initial=0) -> Mc:
    return Mc(
        initial,
        np.asarray(ptr, dtype=np.int64),
        np.asarray(tgt, dtype=np.int64),
        np.asarray(prob, dtype=np.float64),
    )


class TestMcValidation:
    def test_valid_chain_accepted(self):
        # the target sequence falls across the row boundary, not within a row
        mc = chain([0, 2, 3], [0, 1, 0], [0.5, 0.5, 1.0])
        assert mc.n_states == 2

    def test_initial_out_of_range(self):
        with pytest.raises(ValueError, match="initial"):
            chain([0, 1, 2], [0, 1], [1.0, 1.0], initial=2)

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
            for _ in range(5):
                r = random_member(rng, fam.full_subfamily())
                mc = induce(fam, r)
                want = ref_rows(fam.templates, r.values)
                assert rows_of(mc.row_ptr, mc.ent_target, mc.ent_prob) == want
                merged += sum(len(w[0]) < len(t.keys) for w, t in zip(want, fam.templates))
        assert merged > 0  # some rows summed parameters sharing a target
        # at s1 of the toy family the fixed loop parameter and Y both point at t
        mc = induce(toy4, Realization((1, 3, 3, 4)))
        assert rows_of(mc.row_ptr, mc.ent_target, mc.ent_prob)[1] == ((3, 4), (0.6 + 0.2, 0.2))

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
            base = ref_rows(fam.templates, r.values)
            want = [
                base[s] if s in expanded else row_of({n: float(gamma[s]), n + 1: 1.0 - gamma[s]})
                for s in range(n)
            ]
            want += [((n,), (1.0,)), ((n + 1,), (1.0,))]
            assert got.initial == mc.initial
            assert rows_of(got.row_ptr, got.ent_target, got.ent_prob) == want

    def test_build_quotient(self):
        rng = random.Random(3)
        for i in CORPUS:
            fam = corpus_family(i)
            for _ in range(3):
                sub = random_subfamily(rng, fam)
                q = build_quotient(fam, sub)
                want, counts = [], []
                for tmpl in fam.templates:
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
            for sub in (fam.full_subfamily(), random_subfamily(rng, fam)):
                q = build_quotient(fam, sub)
                base = [dom[0] for dom in sub.domains]
                for s in range(q.n_states):
                    for a in range(q.n_actions(s)):
                        values = list(base)
                        for k, v in q.decode_action(s, a).items():
                            values[k] = v
                        mc = induce(fam, Realization(tuple(values)))
                        tgt, prob = q.action_row(s, a)
                        lo, hi = mc.row_ptr[s], mc.row_ptr[s + 1]
                        assert tgt.tolist() == mc.ent_target[lo:hi].tolist()
                        assert prob.tolist() == mc.ent_prob[lo:hi].tolist()
