"""Sketch documents, property expressions, and the benchmark generator.

A sketch is a single JSON object (UTF-8, pretty-printed one field per line)
with a ``"format": "mc-family/1"`` tag::

    {
      "format": "mc-family/1",
      "states": ["s0", "s1", "s2", "t", "f"],
      "initial": "s0",
      "parameters": {"X": ["s1", "s2"], "Y": ["t", "f"]},
      "transitions": {"s0": {"X": 1.0}, ...}
    }

Parameter domains are canonicalized to state-index order, which also fixes
the lexicographic enumeration order of realizations.

Property expressions come in two shapes::

    P<=0.3 [F t u]          threshold property (P>= for liveness)
    min P [F t] eps=0.05    optimization objective (min or max)

A specification file holds one expression per line; blank lines and ``#``
comments are ignored and at most one objective is allowed.
"""

from __future__ import annotations

import json
import random
import re

import numpy as np

from .errors import PropertyError, SketchError
from .model import PROB_SUM_TOL, Family
from .reach import Objective, Property, Specification

FORMAT_TAG = "mc-family/1"

_PROPERTY_RE = re.compile(
    r"^P\s*(<=|>=)\s*([0-9]*\.?[0-9]+)\s*\[\s*F\s+([^\]]+?)\s*\]$"
)
_OBJECTIVE_RE = re.compile(
    r"^(min|max)\s+P\s*\[\s*F\s+([^\]]+?)\s*\](?:\s+eps\s*=\s*([0-9]*\.?[0-9]+))?$"
)


def _reject_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SketchError(f"duplicate key {key!r}", location="document")
        obj[key] = value
    return obj


def parse_sketch(text: str) -> Family:
    """Parse and validate a sketch document into an interned :class:`Family`."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SketchError(
            f"not valid JSON: {exc.msg}", location=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise SketchError("JSON nested too deeply", location="document") from exc
    if not isinstance(doc, dict):
        raise SketchError("top level must be a JSON object", location="document")
    if doc.get("format") != FORMAT_TAG:
        raise SketchError(
            f"missing or unsupported format tag (expected {FORMAT_TAG!r})",
            location="format",
        )
    for field in ("states", "initial", "parameters", "transitions"):
        if field not in doc:
            raise SketchError("required field missing", location=field)

    states = doc["states"]
    if not isinstance(states, list) or not states or not all(
        isinstance(s, str) for s in states
    ):
        raise SketchError("must be a non-empty list of strings", location="states")
    if len(set(states)) != len(states):
        dup = next(s for s in states if states.count(s) > 1)
        raise SketchError(f"duplicate state name {dup!r}", location="states")
    index = {name: i for i, name in enumerate(states)}

    initial = doc["initial"]
    # a list or object here would not hash, so test the type first
    if not isinstance(initial, str) or initial not in index:
        raise SketchError(f"unknown state {initial!r}", location="initial")

    params_doc = doc["parameters"]
    if not isinstance(params_doc, dict) or not params_doc:
        raise SketchError("must be a non-empty object", location="parameters")
    param_names = tuple(params_doc)
    param_index = {name: k for k, name in enumerate(param_names)}
    domains = []
    for name, dom in params_doc.items():
        loc = f"parameters.{name}"
        if not isinstance(dom, list) or not dom:
            raise SketchError("domain must be a non-empty list", location=loc)
        for v in dom:
            if not isinstance(v, str) or v not in index:
                raise SketchError(f"unknown state {v!r} in domain", location=loc)
        idx = sorted(index[v] for v in dom)
        if len(set(idx)) != len(idx):
            raise SketchError("duplicate value in domain", location=loc)
        domains.append(tuple(idx))

    trans_doc = doc["transitions"]
    if not isinstance(trans_doc, dict):
        raise SketchError("must be an object", location="transitions")
    for name in trans_doc:
        if name not in index:
            raise SketchError(f"unknown state {name!r}", location="transitions")
    rows = []
    for name in states:
        loc = f"transitions.{name}"
        if name not in trans_doc:
            raise SketchError("no outgoing distribution", location=loc)
        row = trans_doc[name]
        if not isinstance(row, dict) or not row:
            raise SketchError("must be a non-empty object", location=loc)
        entries = {}
        total = 0.0
        for pname, prob in row.items():
            if pname not in param_index:
                raise SketchError(f"unknown parameter {pname!r}", location=loc)
            # json gives bool (an int subclass) for true and false, and reads
            # NaN and Infinity, which fail the range test
            if type(prob) not in (int, float) or not 0 <= prob <= 1:
                raise SketchError(
                    f"probability {prob!r} of {pname!r} is not a number in [0, 1]", location=loc
                )
            if prob > 0:  # zero entries leave the template
                entries[param_index[pname]] = float(prob)
            total += float(prob)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise SketchError(
                f"probabilities of state {name!r} sum to {total!r}, expected 1", location=loc
            )
        rows.append(sorted(entries.items()))

    return _family(tuple(states), index[initial], param_names, tuple(domains), rows)


def _family(state_names, initial, param_names, domains, rows) -> Family:
    """A family whose template rows are ``rows``: per state, ``(param, prob)`` pairs."""
    ptr = np.cumsum([0] + [len(row) for row in rows])
    param = np.asarray([k for row in rows for k, _ in row])
    prob = np.asarray([p for row in rows for _, p in row])
    try:
        return Family(state_names, initial, param_names, domains, ptr, param, prob)
    except ValueError as exc:  # a sum the parser took in input order, rounded over the bound
        raise SketchError(str(exc), location="transitions") from exc


def serialize_sketch(family: Family) -> str:
    """Render a family back into document form (round-trips through parse)."""
    ptr, param = family.tmpl_ptr.tolist(), family.tmpl_param.tolist()
    prob = family.tmpl_prob.tolist()
    doc = {
        "format": FORMAT_TAG,
        "states": list(family.state_names),
        "initial": family.state_names[family.initial],
        "parameters": {
            family.param_names[k]: [family.state_names[v] for v in dom]
            for k, dom in enumerate(family.domains)
        },
        "transitions": {
            family.state_names[s]: {
                family.param_names[k]: p for k, p in zip(param[a:b], prob[a:b])
            }
            for s, (a, b) in enumerate(zip(ptr, ptr[1:]))
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _resolve_targets(names: str, family: Family) -> frozenset[int]:
    index = {name: i for i, name in enumerate(family.state_names)}
    targets = []
    for name in names.split():
        if name not in index:
            raise PropertyError(f"unknown target state {name!r}", location="property")
        targets.append(index[name])
    if not targets:
        raise PropertyError("empty target list", location="property")
    return frozenset(targets)


def parse_property(text: str, family: Family) -> Property | Objective:
    """Parse one property or objective expression against a family."""
    stripped = text.strip()
    match = _PROPERTY_RE.match(stripped)
    if match:
        op, thr_text, names = match.groups()
        threshold = float(thr_text)
        if threshold > 1.0:
            raise PropertyError(f"threshold {thr_text} outside [0, 1]", location="property")
        return Property(op=op, threshold=threshold, targets=_resolve_targets(names, family))
    match = _OBJECTIVE_RE.match(stripped)
    if match:
        direction, names, eps_text = match.groups()
        epsilon = float(eps_text) if eps_text else 0.0
        if epsilon >= 1.0:
            raise PropertyError(f"eps {eps_text} outside [0, 1)", location="property")
        return Objective(
            direction=direction, targets=_resolve_targets(names, family), epsilon=epsilon
        )
    raise PropertyError(f"cannot parse {stripped!r}", location="property")


def parse_spec(text: str, family: Family) -> Specification:
    """Parse a specification file: one expression per line."""
    properties = []
    objective = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parsed = parse_property(line, family)
        except PropertyError as exc:
            raise PropertyError(str(exc), location=f"line {lineno}") from exc
        if isinstance(parsed, Objective):
            if objective is not None:
                raise PropertyError("more than one objective", location=f"line {lineno}")
            objective = parsed
        else:
            properties.append(parsed)
    if not properties and objective is None:
        raise PropertyError("specification is empty", location="spec")
    return Specification(properties=tuple(properties), objective=objective)


def _exact_probs(rng: random.Random, parts: int) -> list[float]:
    """``parts`` positive probabilities that sum to exactly 1.0.

    Drawn as a random composition of 1024, so every part is a multiple of
    2**-10 and the float sum is exact.
    """
    if parts == 1:
        return [1.0]
    cuts = sorted(rng.sample(range(1, 1024), parts - 1))
    edges = [0] + cuts + [1024]
    return [(b - a) / 1024.0 for a, b in zip(edges, edges[1:])]


def generate_benchmark(states: int, params: int, domain_size: int, seed: int) -> Family:
    """Deterministic random family: forward-layered topology plus backedges.

    State 0 is initial, the two last states are an absorbing target ("goal")
    and an absorbing sink ("trap").  Every requested parameter is used by at
    least one template; each non-terminal state references 1-3 parameters.
    Two singleton loop parameters keep the terminals absorbing.
    """
    if states < 3:
        raise SketchError("need at least 3 states", location="states")
    if params < 1:
        raise SketchError("need at least 1 parameter", location="params")
    if domain_size < 2:
        raise SketchError("domain size must be at least 2", location="domain")
    if domain_size > states - 1:
        raise SketchError(
            f"domain size {domain_size} infeasible for {states} states", location="domain"
        )
    rng = random.Random(f"mcsynth-bench:{states}:{params}:{domain_size}:{seed}")
    n_inter = states - 2
    goal, trap = states - 2, states - 1
    state_names = tuple(f"s{i}" for i in range(n_inter)) + ("goal", "trap")
    param_names = tuple(f"p{k}" for k in range(params)) + ("G", "Z")

    # Domains prefer states ahead of the parameter's anchor; many get one
    # value routed straight to a terminal (so member values spread out) and
    # some get a backedge.  The initial state never appears in a domain.
    domains = []
    for k in range(params):
        anchor = k % n_inter
        forward = list(range(anchor + 1, states))
        pool = forward if len(forward) >= domain_size else list(range(1, states))
        dom = rng.sample(pool, domain_size)
        roll = rng.random()
        if roll < 0.45 and goal not in dom:
            dom[rng.randrange(domain_size)] = goal
        elif roll < 0.75 and trap not in dom:
            dom[rng.randrange(domain_size)] = trap
        back = [s for s in range(1, anchor + 1) if s not in dom]
        if back and rng.random() < 0.25:
            swappable = [i for i, v in enumerate(dom) if v not in (goal, trap)]
            if swappable:
                dom[rng.choice(swappable)] = rng.choice(back)
        domains.append(tuple(sorted(set(dom))))
    domains.append((goal,))
    domains.append((trap,))

    used: dict[int, set[int]] = {s: set() for s in range(n_inter)}
    for k in range(params):
        used[k % n_inter].add(k)
    for s in range(n_inter):
        want = rng.randint(1, 3)
        extra = [k for k in range(params) if k not in used[s]]
        rng.shuffle(extra)
        while len(used[s]) < want and extra:
            used[s].add(extra.pop())
        # a direct terminal share pins this state's value away from 0 or 1
        # for every member, which is what makes family bounds informative
        if len(used[s]) < 3 and rng.random() < 0.45:
            used[s].add(params if rng.random() < 0.6 else params + 1)

    rows = [list(zip(sorted(used[s]), _exact_probs(rng, len(used[s])))) for s in range(n_inter)]
    rows += [[(params, 1.0)], [(params + 1, 1.0)]]
    return _family(state_names, 0, param_names, tuple(domains), rows)
