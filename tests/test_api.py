"""The public API: every change to the exported names shows in this file.

Also a lint of the sources, the tests, the demos and the benchmark, with
the standard ``ast`` module: every name a module imports is used in it, and
a pin on the size of the sources.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import mcsynth
from mcsynth.cli import _build_parser

from conftest import TOY4_TEXT

ROOT = Path(__file__).resolve().parent.parent
LINTED = [
    p for d in ("src/mcsynth", "tests", "demos", "benchmark") for p in sorted((ROOT / d).glob("*.py"))
]
# ``cat src/mcsynth/*.py | wc -l`` may not exceed this; a change that grows
# the sources raises it here, in plain view
SRC_LINES = 2607

EXPORTS = [
    "BoundsVec",
    "CeQualityReport",
    "DECISION_ETA",
    "Family",
    "InvalidBoundsError",
    "McsynthError",
    "Objective",
    "Property",
    "PropertyError",
    "QuotientMdp",
    "Realization",
    "ResourceCapError",
    "SketchError",
    "Specification",
    "Subfamily",
    "SynthStats",
    "SynthesisResult",
    "build_quotient",
    "ce_quality_report",
    "compute_bounds",
    "construct_conflict",
    "count_unpruned",
    "evaluate_property",
    "generalization",
    "generate_benchmark",
    "induce",
    "iterate_unpruned",
    "mc_reach",
    "mdp_extreme",
    "member_count",
    "minimal_conflict_oracle",
    "parse_property",
    "parse_sketch",
    "parse_spec",
    "serialize_sketch",
    "split_subfamily",
    "synthesize",
    "trivial_gamma",
]


def test_exported_names_are_pinned():
    assert sorted(mcsynth.__all__) == EXPORTS
    assert len(EXPORTS) == 38
    assert all(hasattr(mcsynth, name) for name in EXPORTS)


def test_synthesize_parameters_are_pinned():
    params = list(inspect.signature(mcsynth.synthesize).parameters)
    assert params == ["family", "spec", "method", "bounds"]


def test_conflict_layer_interface_is_pinned():
    # a conflict takes the checked member's chain: the quotient of that one
    # member, one action per state, carrying its family and realization
    params = list(inspect.signature(mcsynth.construct_conflict).parameters)
    assert params == ["mc", "prop", "gamma", "scope", "stats"]
    family = mcsynth.parse_sketch(TOY4_TEXT)
    r = mcsynth.Realization((1, 3, 3, 4))
    mc = mcsynth.induce(family, r)
    assert type(mc) is mcsynth.QuotientMdp
    assert mc.state_ptr.tolist() == list(range(family.n_states + 1))
    assert mc.family is family and mc.sub == r


def test_quotient_layer_interface_is_pinned():
    # bounds are plain vectors; a split takes the quotient they were solved on
    fields = [f.name for f in dataclasses.fields(mcsynth.BoundsVec)]
    assert fields == ["lb", "ub", "min_scheduler", "max_scheduler"]
    fields = [f.name for f in dataclasses.fields(mcsynth.QuotientMdp) if f.init]
    assert fields == [
        "family", "sub", "state_ptr", "act_ptr", "ent_target", "ent_prob",
        "choice_ptr", "choice_param", "choice_value",
    ]
    params = list(inspect.signature(mcsynth.split_subfamily).parameters)
    assert params == ["qmdp", "min_sched", "max_sched"]


def test_synth_options_are_pinned():
    parser = _build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    synth = commands.choices["synth"]
    options = [s for a in synth._actions if a.dest != "help" for s in a.option_strings]
    assert options == ["--sketch", "--spec", "--method", "--bounds", "--json"]


def unused_imports(source: str) -> set[str]:
    """Names ``source`` imports and never uses.

    A use is a name read anywhere, a name inside a string annotation, or an
    entry of ``__all__``; ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    parsed = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return imported - used


def test_source_line_count_is_pinned():
    sources = sorted((ROOT / "src/mcsynth").glob("*.py"))
    assert sum(p.read_text().count("\n") for p in sources) <= SRC_LINES


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == set()


def test_unused_import_check_catches_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections import deque, OrderedDict as od\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from x import Quoted, Unquoted\n"
        "def f(a: 'Quoted') -> None:\n"
        "    return deque()\n"
    )
    assert unused_imports(source) == {"os", "od", "Unquoted"}
    assert unused_imports("from m import a\n__all__ = ['a']\n") == set()
