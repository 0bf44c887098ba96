"""Caller-side span tracing of the program's layers.

The modules of ``mcsynth`` import each other's functions by name
(``from .reach import mc_reach``), so a wrapper is installed on the attribute
the *caller* looks up, for example ``mcsynth.synthesis.mc_reach``.  The same
function reached from two callers becomes two span names, which is how chain
solves of members are told apart from the rerouted solves of conflicts.

Spans are kept in memory with their parent, so the self time of a span is its
duration minus the durations of its child spans.  No program file is touched:
:meth:`Tracer.install` replaces module attributes and :meth:`Tracer.uninstall`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module whose attribute is wrapped, attribute, span name)
SITES = [
    ("mcsynth", "parse_sketch", "sketch.parse_sketch"),
    ("mcsynth", "parse_spec", "sketch.parse_spec"),
    ("mcsynth", "synthesize", "synthesis.synthesize"),
    ("mcsynth.synthesis", "ar_run", "synthesis.ar_run"),
    ("mcsynth.synthesis", "cegis_phase", "synthesis.cegis_phase"),
    ("mcsynth.synthesis", "one_by_one", "synthesis.one_by_one"),
    ("mcsynth.synthesis", "induce", "model.induce"),
    ("mcsynth.counterexamples", "induce", "model.induce"),
    ("mcsynth.synthesis", "iterate_unpruned", "model.iterate_unpruned"),
    ("mcsynth.synthesis", "count_unpruned", "model.count_unpruned"),
    ("mcsynth.synthesis", "mc_reach", "reach.mc_reach.member"),
    ("mcsynth.counterexamples", "mc_reach", "reach.mc_reach.reroute"),
    ("mcsynth.quotient", "mdp_extreme", "reach.mdp_extreme"),
    ("mcsynth.synthesis", "compute_bounds", "quotient.compute_bounds"),
    ("mcsynth.quotient", "build_quotient", "quotient.build_quotient"),
    ("mcsynth.synthesis", "split_subfamily", "quotient.split_subfamily"),
    ("mcsynth.synthesis", "construct_conflict", "counterexamples.construct_conflict"),
    ("mcsynth.counterexamples", "reroute", "counterexamples.reroute"),
]
GENERATORS = {"model.iterate_unpruned"}
SPAN_NAMES = sorted({name for _, _, name in SITES})
LAYERS = ("sketch", "model", "reach", "quotient", "counterexamples", "synthesis")


def _states_of_first_arg(args, _kwargs, _result):
    return getattr(args[0], "n_states", 0) if args else 0


def _quotient_actions(_args, _kwargs, result):
    ptr = getattr(result, "state_ptr", None)
    return int(ptr[-1]) if ptr is not None else 0


# work counters taken from a span's arguments or result: (suffix, function)
COUNTERS = {
    "reach.mc_reach.member": ("states", _states_of_first_arg),
    "reach.mc_reach.reroute": ("states", _states_of_first_arg),
    "quotient.build_quotient": ("actions", _quotient_actions),
}
WORK_COUNTS = [f"{name}.{suffix}" for name, (suffix, _fn) in COUNTERS.items()]
WORK_COUNTS.append("model.iterate_unpruned.yielded")


class Tracer:
    """In-memory spans: ``[id, parent, name, tag, start, end]``.

    ``tag`` is whatever the caller set before the span opened; the benchmark
    sets the driver being run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.conflict_ratios: list[float] = []
        self.tag = ""
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, self.tag, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self.stack.pop()

    def abandon(self) -> None:
        """Close every span left open by an exception, such as a time cap."""
        now = time.perf_counter()
        for span in self.spans:
            if span[5] is None:
                span[5] = now
        self.stack.clear()

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if counter is not None:
                tracer.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            if name == "counterexamples.construct_conflict":
                tracer._conflict(result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        """Time only the work done inside ``next()`` of the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tracer.counts[f"{name}.generators"] += 1

            def timed():
                while True:
                    sid = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid)
                    tracer.counts[f"{name}.yielded"] += 1
                    yield item

            return timed()

        return wrapper

    def _conflict(self, conflict) -> None:
        params = getattr(conflict, "params", None)
        scope = getattr(conflict, "scope", None)
        if params is None or scope is None:
            return
        multi = len(scope.multi_valued())
        if multi:
            self.conflict_ratios.append(len(params) / multi)

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time per span: its duration minus its children's durations."""
        own = [s[5] - s[4] for s in self.spans]
        for sid, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= self.spans[sid][5] - self.spans[sid][4]
        return own

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds.

        ``by_tag_span`` sums self time per (tag, span name).
        """
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        by_tag_span: dict[tuple[str, str], float] = defaultdict(float)
        for (_sid, _parent, name, tag, start, end), own_s in zip(self.spans, own):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own_s
            by_tag_span[(tag, name)] += own_s
        for name in GENERATORS:
            # a generator's spans are its next() calls; report generators made
            calls[name] = int(self.counts.get(f"{name}.generators", 0))
        return {"calls": calls, "s": incl, "self_s": self_s, "by_tag_span": by_tag_span}

    def metrics(self, tags) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, ``name -> (value, unit)``, for the spans so far.

        Besides calls, inclusive and self seconds per span name: the work
        counters, the mean conflict ratio, and the self seconds of each layer
        under each of ``tags``.
        """
        summary = self.summary()
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
            out[f"{name}.s"] = (summary["s"].get(name, 0.0), "s")
            out[f"{name}.self_s"] = (summary["self_s"].get(name, 0.0), "s")
        for name in WORK_COUNTS:
            out[name] = (self.counts.get(name, 0), "count")
        ratios = self.conflict_ratios
        out["counterexamples.conflict_ratio"] = (sum(ratios) / len(ratios) if ratios else 0.0, "ratio")
        by_layer: dict[tuple[str, str], float] = defaultdict(float)
        for (tag, name), own_s in summary["by_tag_span"].items():
            by_layer[(tag, name.split(".")[0])] += own_s
        for tag in tags:
            for layer in LAYERS[1:]:
                out[f"driver.{tag}.{layer}.self_s"] = (by_layer.get((tag, layer), 0.0), "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, tag, start, end in self.spans:
                out.write(json.dumps([sid, parent, name, tag, start, end]) + "\n")
