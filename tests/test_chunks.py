"""Solves chunk by chunk along the condensation of the family's union graph.

networkx serves as the oracle for the strongly connected components and for
the step counts of the one breadth-first walk; the dense ``reference_solve``
of ``conftest`` is the oracle for the values.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcsynth.reach as reach
from mcsynth import (
    Family,
    Realization,
    generate_benchmark,
    induce,
    mc_reach,
    mdp_extreme,
)
from mcsynth.model import SOLVE_CHUNK, breadth_first
from mcsynth.quotient import build_quotient, root_quotient

from conftest import (
    corpus_family,
    goal_index,
    lane_family,
    make_family,
    reference_reach,
    reference_solve,
    reroute,
    templates,
)

LANE_400 = [(400, 6, 0.6, 1), (400, 6, 0.6, 2), (400, 8, 0.8, 3)]


def union_graph(family: Family) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(family.n_states))
    for s, tmpl in enumerate(templates(family)):
        graph.add_edges_from((s, v) for k in tmpl.keys for v in family.domains[k])
    return graph


def line_family(n: int, back: bool) -> Family:
    """States ``0..n-1`` in a line: each steps forward (and back when ``back``)."""
    domains = [
        tuple(v for v in (s - 1, s + 1) if 0 <= v < n and (back or v > s)) or (s,)
        for s in range(n)
    ]
    return make_family(
        state_names=tuple(f"s{s}" for s in range(n)),
        initial=0,
        param_names=tuple(f"p{s}" for s in range(n)),
        domains=tuple(domains),
        rows=tuple({s: 1.0} for s in range(n)),
    )


def members(family: Family, count: int, seed: int) -> list[Realization]:
    rng = random.Random(seed)
    return [Realization(tuple(rng.choice(dom) for dom in family.domains)) for _ in range(count)]


def random_subfamily(family: Family, rng: random.Random):
    sub = family.full_subfamily()
    for k in family.full_subfamily().multi_valued():
        if rng.random() < 0.4:
            sub = sub.restricted(k, (rng.choice(family.domains[k]),))
    return sub


def with_reference_solve(monkeypatch, fn, *args, **kwargs):
    """``fn`` run with every chain solved whole by ``reference_solve``."""
    with monkeypatch.context() as patch:
        patch.setattr(
            reach,
            "_solve",
            lambda src, tgt, prob, values, unknown, chunk=None: reference_solve(
                src, tgt, prob, values, unknown
            ),
        )
        return fn(*args, **kwargs)


@pytest.fixture(scope="module")
def chunked_families() -> list[Family]:
    return [lane_family(*cfg) for cfg in LANE_400] + [generate_benchmark(120, 20, 2, 7)]


class TestCondensation:
    @pytest.mark.parametrize(
        "family",
        [corpus_family(i) for i in range(0, 50, 7)]
        + [lane_family(40, 8, 0.8, 1), lane_family(400, 6, 0.6, 1), lane_family(400, 6, 0.6, 2)],
        ids=lambda f: f"{f.n_states}x{f.n_params}",
    )
    def test_blocks_match_networkx_in_reverse_topological_order(self, family):
        graph = union_graph(family)
        blocks = family._blocks()
        assert {frozenset(b) for b in blocks} == {
            frozenset(c) for c in nx.strongly_connected_components(graph)
        }
        assert all(b == sorted(b) for b in blocks)
        position = {s: i for i, block in enumerate(blocks) for s in block}
        dag = nx.condensation(graph)
        members_of = dag.graph["mapping"]
        block_of = {c: position[s] for s, c in members_of.items()}
        # a block comes after every block it reaches
        assert all(block_of[a] > block_of[b] for a, b in dag.edges)

    def test_no_recursion_limit_on_long_lines(self):
        one = line_family(5000, back=True)
        assert one._blocks() == [list(range(5000))]
        assert one._chunk_ids is None
        chain = line_family(5000, back=False)
        assert chain._blocks() == [[s] for s in reversed(range(5000))]
        ids = chain._chunk_ids
        # sinks first: the last state is in chunk 0, every chunk but the last is full
        assert ids[-1] == 0 and (np.diff(ids) <= 0).all()
        assert (np.bincount(ids)[:-1] == SOLVE_CHUNK).all()

    def test_chunks_follow_the_blocks(self):
        family = lane_family(400, 6, 0.6, 1)
        ids = family._chunk_ids
        assert ids is not None and ids.max() >= 1
        order = [ids[b[0]] for b in family._blocks()]
        assert order == sorted(order)
        assert all(len(set(ids[b].tolist())) == 1 for b in family._blocks())
        assert (np.bincount(ids)[:-1] >= SOLVE_CHUNK).all()

    def test_small_families_are_one_chunk(self, corpus):
        assert all(f.n_states < SOLVE_CHUNK and f._chunk_ids is None for f in corpus)
        assert lane_family(48, 12, 0.7, 1)._chunk_ids is None

    def test_members_carry_the_family_chunks(self):
        family = lane_family(400, 6, 0.6, 1)
        mc = induce(family, members(family, 1, 0)[0])
        assert mc.chunk is family._chunk_ids


@st.composite
def walk_cases(draw):
    """A random graph with duplicate edges and self-loops, seeds, and a mask or none."""
    n = draw(st.integers(1, 12))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, state), max_size=3 * n))
    seeds = draw(st.lists(state, max_size=4))
    allowed = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    return n, edges, seeds, allowed


class TestBreadthFirst:
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_steps_match_networkx(self, case):
        n, edges, seeds, allowed = case
        edges.sort()
        flat = [t for _, t in edges]
        ptr = np.searchsorted([s for s, _ in edges], np.arange(n + 1)).tolist()
        got = breadth_first((flat, ptr), seeds, allowed)

        # a super-source one step before every seed; a seed is entered even
        # when not allowed, any other state only when allowed
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(("seed", s) for s in seeds)
        graph.add_edges_from(
            (s, t) for s, t in edges if allowed is None or allowed[t] or t in seeds
        )
        want = np.full(n, -1)
        if seeds:
            for t, d in nx.single_source_shortest_path_length(graph, "seed").items():
                if t != "seed":
                    want[t] = d - 1
        assert got.dtype.kind == "i" and np.array_equal(got, want)

    def test_allowed_mask_is_left_unchanged(self):
        allowed = np.array([True, False, True])
        steps = breadth_first(([1, 2, 0], [0, 1, 2, 3]), [0], allowed)
        assert steps.tolist() == [0, -1, -1]
        assert allowed.tolist() == [True, False, True]


class TestChunkedSolve:
    def test_chain_values_match_exact_and_reference(self, chunked_families, monkeypatch):
        for i, family in enumerate(chunked_families):
            assert family._chunk_ids is not None
            goal = {goal_index(family)}
            for r in members(family, 4, i):
                mc = induce(family, r)
                got = mc_reach(mc, goal)
                assert np.allclose(got, reference_reach(mc, goal), atol=1e-12, rtol=0.0)
                want = with_reference_solve(monkeypatch, mc_reach, mc, goal)
                assert np.allclose(got, want, atol=1e-12, rtol=0.0)

    def test_fixed_values_match_rerouted_exact_and_reference(self, chunked_families, monkeypatch):
        rng = random.Random(5)
        for family in chunked_families:
            n, goal = family.n_states, {goal_index(family)}
            for r in members(family, 3, n):
                mc = induce(family, r)
                mask = np.array([rng.random() < 0.3 for _ in range(n)])
                gamma = np.array([rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)])
                got = mc_reach(mc, goal, fixed=(mask, gamma))
                want = with_reference_solve(monkeypatch, mc_reach, mc, goal, fixed=(mask, gamma))
                assert np.allclose(got, want, atol=1e-12, rtol=0.0)
                expanded = np.flatnonzero(~mask)
                exact = reference_reach(reroute(mc, expanded, gamma), goal | {n})[:n]
                assert np.allclose(got, exact, atol=1e-12, rtol=0.0)

    def test_mdp_values_and_schedulers_match_reference(self, chunked_families, monkeypatch):
        rng = random.Random(9)
        for family in chunked_families:
            root = root_quotient(family)
            goal = {goal_index(family)}
            quotients = [root] + [
                build_quotient(family, random_subfamily(family, rng), root) for _ in range(3)
            ]
            for qmdp in quotients:
                for mode in ("min", "max"):
                    values, sched = mdp_extreme(qmdp, goal, mode)
                    ref_values, ref_sched = with_reference_solve(
                        monkeypatch, mdp_extreme, qmdp, goal, mode
                    )
                    assert np.allclose(values, ref_values, atol=1e-12, rtol=0.0)
                    assert np.array_equal(sched, ref_sched)

    def test_solves_receive_the_family_chunks(self, monkeypatch):
        family = lane_family(400, 6, 0.6, 1)
        goal = {goal_index(family)}
        seen = []
        real = reach._solve

        def spy(src, tgt, prob, values, unknown, chunk=None):
            seen.append(chunk)
            real(src, tgt, prob, values, unknown, chunk)

        monkeypatch.setattr(reach, "_solve", spy)
        mc_reach(induce(family, members(family, 1, 0)[0]), goal)
        mdp_extreme(root_quotient(family), goal, "max")
        assert seen and all(chunk is family._chunk_ids for chunk in seen)

    def test_one_chunk_is_bitwise_the_reference(self, monkeypatch):
        rng = random.Random(3)
        for family in [corpus_family(i) for i in range(0, 50, 5)] + [lane_family(48, 12, 0.7, 2)]:
            assert family._chunk_ids is None
            goal = {goal_index(family)}
            for r in members(family, 3, family.n_states):
                mc = induce(family, r)
                got = mc_reach(mc, goal)
                assert np.array_equal(got, with_reference_solve(monkeypatch, mc_reach, mc, goal))
                mask = np.array([rng.random() < 0.3 for _ in range(family.n_states)])
                gamma = np.array([rng.random() for _ in range(family.n_states)])
                fixed = (mask, gamma)
                got = mc_reach(mc, goal, fixed=fixed)
                want = with_reference_solve(monkeypatch, mc_reach, mc, goal, fixed=fixed)
                assert np.array_equal(got, want)
            qmdp = root_quotient(family)
            for mode in ("min", "max"):
                values, sched = mdp_extreme(qmdp, goal, mode)
                ref_values, ref_sched = with_reference_solve(
                    monkeypatch, mdp_extreme, qmdp, goal, mode
                )
                assert np.array_equal(values, ref_values)
                assert np.array_equal(sched, ref_sched)
