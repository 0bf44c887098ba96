"""mcsynth benchmark: time to verdict per driver on seeded generated families.

Run from the root of a checkout::

    python3 benchmark/run.py --workload wide-window --seed 1 --seconds 40 --trace 0

The workload's families and specifications are generated from ``--seed``
(see ``families.py``); the program receives only their sketch and spec text,
through ``parse_sketch``, ``parse_spec`` and ``synthesize``.  The whole task
list is run in passes until ``--seconds`` have been measured, and every
timing is the median over passes.  Every verdict and witness is checked
against an oracle independent of the program's solvers, and every pass must
reproduce the behaviour record of the first (verdict, witness, model checks,
AR and CEGIS iterations).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see ``tracing.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import families  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DRIVERS = ("hybrid", "cegis", "ar", "onebyone")
DEFAULT_SEED = 1  # seed 2 is the check seed for claims tuned on seed 1
EXPECTED = {"window": "infeasible", "rare": "feasible", "optimal": "optimal"}
TASK_CAP_S = 60.0  # one driver on one task
DEADLINE_S = 150.0  # no task starts or runs past this, counted from process start
SETUP_REPS = 20  # parses of every task per pass; set-up is timed before each pass
# reference_sample() on a quiet 2.1 GHz Xeon vCPU; end-to-end times are
# scaled by REFERENCE_S / (median sample of the run)
REFERENCE_S = 0.02
START = time.perf_counter()


class TaskTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise TaskTimeout()


def import_program():
    """Import ``mcsynth`` from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "mcsynth" / "__init__.py").is_file():
        print(f"benchmark: no mcsynth sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import mcsynth

    if Path(mcsynth.__file__).resolve().parent != (src / "mcsynth").resolve():
        print(f"benchmark: imported mcsynth from {mcsynth.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return mcsynth


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse_all(mcsynth, tasks):
    parsed = []
    for task in tasks:
        family = mcsynth.parse_sketch(task.model.sketch_text())
        parsed.append((family, mcsynth.parse_spec(task.spec_text, family)))
    return parsed


def time_setup(mcsynth, texts, samples: list) -> None:
    """Append ``SETUP_REPS`` timings of parsing every task's sketch and spec."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        for sketch, spec in texts:
            mcsynth.parse_spec(spec, mcsynth.parse_sketch(sketch))
        samples.append(time.perf_counter() - t0)


@dataclass
class Run:
    """One driver on one task."""

    task: int
    driver: str
    result: object | None
    error: str | None
    seconds: float


@dataclass
class Pass:
    runs: list[Run]
    tracer: object | None = None  # set on traced passes

    @property
    def wall(self) -> float:
        return sum(run.seconds for run in self.runs)


_REF_RNG = numpy.random.default_rng(12345)
_REF_Q = _REF_RNG.random((48, 48)) / 96.0
_REF_P = _REF_RNG.random(4096)
_REF_OFFSETS = numpy.arange(0, 4096, 8)


def reference_sample() -> float:
    """Seconds for a fixed piece of work shaped like the program's hot loops.

    An odometer over tuples and a dict (member enumeration), many small
    numpy reductions (quotient solves) and small dense solves (chain solves).
    It shares no code with the program, so its time follows the machine
    only; times are scaled by it.
    """
    t0 = time.perf_counter()
    pos = [0] * 12
    seen: dict[tuple, int] = {}
    for _ in range(12000):
        key = tuple(pos)
        seen[key] = seen.get(key, 0) + 1
        j = 11
        while j >= 0:
            pos[j] ^= 1
            if pos[j]:
                break
            j -= 1
    for _ in range(600):
        numpy.add.reduceat(_REF_P * _REF_P, _REF_OFFSETS).max()
    eye = numpy.eye(48)
    for _ in range(80):
        numpy.linalg.solve(eye - _REF_Q, _REF_P[:48])
    return time.perf_counter() - t0


def run_pass(mcsynth, tasks, parsed, tracer=None, reference=None) -> Pass:
    """Run every driver on every task once; time each run from parsed inputs.

    Before each run a reference sample is appended to ``reference``.
    """
    gc.collect()
    runs = []
    for i, (task, (family, spec)) in enumerate(zip(tasks, parsed)):
        for driver in task.drivers:
            if reference is not None:
                reference.append(reference_sample())
            left = DEADLINE_S - (time.perf_counter() - START)
            if left <= 1.0:
                runs.append(Run(i, driver, None, "not started: run deadline", 0.0))
                continue
            if tracer is not None:
                tracer.tag = driver
            signal.setitimer(signal.ITIMER_REAL, min(TASK_CAP_S, left))
            t0 = time.perf_counter()
            try:
                result, error = mcsynth.synthesize(family, spec, method=driver), None
            except TaskTimeout:
                result, error = None, "time cap"
            except Exception as exc:  # a failed run is reported, never hidden
                result, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0
            if tracer is not None and error is not None:
                tracer.abandon()
            runs.append(Run(i, driver, result, error, seconds))
    return Pass(runs, tracer)


def record_of(task, run: Run, family) -> dict:
    """Behaviour record of one driver run: what must not change between runs."""
    rec = {"task": task.name, "driver": run.driver}
    result = run.result
    if result is None:
        rec["error"] = run.error
        return rec
    witness = None
    if result.realization is not None:
        witness = {
            family.param_names[k]: family.state_names[v]
            for k, v in enumerate(result.realization.values)
            if len(family.domains[k]) > 1
        }
    rec.update(
        verdict=result.verdict,
        witness=witness,
        model_checks=result.stats.model_checks,
        ar_iterations=result.stats.ar_iterations,
        cegis_iterations=result.stats.cegis_iterations,
    )
    return rec


def check_runs(tasks, parsed, runs, cache) -> list[tuple[tuple, str]]:
    """Problems with one pass's answers, as ``((task, driver or None), text)``.

    Window specs are infeasible by construction, rare and optimal specs have
    a known satisfying member.  Witnesses are re-checked with the
    benchmark's own oracle; an optimum must match the best member value above
    the constraint, and the drivers must agree on it.
    """
    problems = []
    optima: dict[int, list[tuple[str, float]]] = {}
    for run in runs:
        task = tasks[run.task]
        family, spec = parsed[run.task]
        key = (run.task, run.driver)
        result = run.result
        if result is None:
            problems.append((key, run.error))
            continue
        expected = EXPECTED[task.kind]
        if result.verdict != expected:
            problems.append((key, f"verdict {result.verdict}, expected {expected}"))
            continue
        if result.realization is None:
            continue
        member = result.realization.as_dict(family)
        cache_key = (run.task, tuple(sorted(member.items())))
        if cache_key not in cache:
            cache[cache_key] = families.reach_value(task.model, member, frozenset(["goal"]))
        value = cache[cache_key]
        for prop in spec.properties:
            if not (value <= prop.threshold + families.ETA if prop.op == "<="
                    else value >= prop.threshold - families.ETA):
                problems.append((key, f"witness value {value:.9f} violates {prop.op}{prop.threshold}"))
        if task.kind == "optimal":
            if abs(value - result.optimum) > families.ETA:
                problems.append((key, f"optimum {result.optimum:.9f}, witness has {value:.9f}"))
            threshold = spec.properties[0].threshold
            best = float(task.values[task.values >= threshold].min())
            if value > best + families.ETA:
                problems.append((key, f"optimum {value:.9f} above member value {best:.9f}"))
            optima.setdefault(run.task, []).append((run.driver, value))
    for i, found in optima.items():
        eps = parsed[i][1].objective.epsilon
        values = [v for _, v in found]
        if max(values) - min(values) > eps * max(values) + families.ETA:
            problems.append(((i, None), f"drivers disagree on the optimum: {found}"))
    return problems


def check_passes(tasks, parsed, passes):
    """Check every pass; each must also reproduce the records of the first.

    Returns ``(attempted, failed, problem lines, records of the first pass)``.
    """
    cache: dict = {}
    attempted = failed = 0
    lines = []
    first = None
    for n, one in enumerate(passes):
        problems = check_runs(tasks, parsed, one.runs, cache)
        records = [record_of(tasks[r.task], r, parsed[r.task][0]) for r in one.runs]
        if first is None:
            first = records
        for run, rec, ref in zip(one.runs, records, first):
            if rec != ref:
                problems.append(((run.task, run.driver), f"record of pass {n} differs from pass 0"))
        bad = {key for key, _ in problems}
        attempted += len(one.runs)
        failed += sum((r.task, r.driver) in bad or (r.task, None) in bad for r in one.runs)
        for (i, driver), text in problems:
            lines.append(f"{tasks[i].name}/{driver or '*'} (pass {n}): {text}")
    return attempted, failed, lines, first


def code_fingerprint() -> str:
    """Digest of the program and of the benchmark's own sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcsynth").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_with_previous(path: Path, fingerprint: str, records: list) -> str | None:
    """Compare with the records a previous run of this workload and seed saved.

    Returns a problem when the same code gave different records; a change
    after the code changed is only reported.
    """
    if not path.is_file():
        return None
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if previous.get("records") == records:
        print("behaviour lock: records identical to the previous run")
        return None
    if previous.get("code") == fingerprint:
        return "records differ from a previous run of the same code"
    changed = sum(a != b for a, b in zip(previous.get("records", []), records))
    print(f"behaviour lock: {changed} of {len(records)} records changed since code {previous.get('code')}")
    return None


def median_seconds(passes) -> dict[tuple[int, str], float]:
    """Each driver run's median time over the given passes."""
    times: dict[tuple[int, str], list[float]] = {}
    for one in passes:
        for run in one.runs:
            times.setdefault((run.task, run.driver), []).append(run.seconds)
    return {key: statistics.median(values) for key, values in times.items()}


def end_to_end_metrics(passes, setup_samples, reference) -> dict[str, tuple[float, str]]:
    """Times are scaled to the reference speed; the raw ones are printed."""
    medians = median_seconds(passes)
    results = [run.result for run in passes[0].runs if run.result is not None]
    times = {"wall_s": sum(medians.values())}
    for driver in DRIVERS:
        times[f"{driver}_s"] = sum(v for (_i, d), v in medians.items() if d == driver)
    times["setup_s"] = statistics.median(setup_samples)
    ref = statistics.median(reference)
    print(f"raw seconds: {json.dumps(times)}; reference sample median {ref:.5f} s "
          f"over {len(reference)}, scale {REFERENCE_S / ref:.4f}")
    metrics = {name: (value * REFERENCE_S / ref, "s") for name, value in times.items()}
    metrics["model_checks"] = (sum(r.stats.model_checks for r in results), "count")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer_metrics(traced, untraced) -> dict[str, tuple[float, str]]:
    """Median over the traced passes of the tracer's metrics, plus overhead."""
    per_pass = []
    for one in traced:
        values = one.tracer.metrics(DRIVERS)
        results = [run.result for run in one.runs if run.result is not None]
        eliminated = sum(r.stats.pruned + r.stats.checked for r in results)
        checks = sum(r.stats.model_checks for r in results)
        values["synthesis.pruned_per_check"] = (eliminated / checks if checks else 0.0, "ratio")
        in_runs = sum(s for (tag, _n), s in one.tracer.summary()["by_tag_span"].items()
                      if tag in DRIVERS)
        values["trace.wall_s"] = (one.wall, "s")
        values["trace.self_sum_frac"] = (in_runs / one.wall if one.wall else 0.0, "ratio")
        per_pass.append(values)
    metrics = {name: (statistics.median(v[name][0] for v in per_pass), unit)
               for name, (_value, unit) in per_pass[0].items()}
    untraced_wall = sum(median_seconds(untraced).values())
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    return metrics


def design_checks(workload: str, one: Pass) -> list[str]:
    """The traced breakdown each workload was designed to show."""
    summary = one.tracer.summary()
    span = summary["by_tag_span"]
    per_driver = {d: sum(r.seconds for r in one.runs if r.driver == d) for d in DRIVERS}
    accounting = ("model.iterate_unpruned", "model.count_unpruned")

    def share(driver, names):
        total = per_driver[driver]
        return sum(span.get((driver, n), 0.0) for n in names) / total if total else 0.0

    def largest(driver, group):
        groups = {
            "member accounting": accounting,
            "chain solves": ("reach.mc_reach.member", "reach.mc_reach.reroute"),
            "reach.mdp_extreme": ("reach.mdp_extreme",),
        }
        for layer in ("model", "quotient", "counterexamples", "synthesis"):
            groups[layer] = tuple(n for n in summary["self_s"]
                                  if n.startswith(layer + ".") and n not in accounting)
        shares = {k: share(driver, v) for k, v in groups.items()}
        ok = shares[group] == max(shares.values())
        listing = ", ".join(f"{k} {v:.0%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        return f"{'PASS' if ok else 'FAIL'} {group} largest in {driver}_s ({listing})"

    lines = []
    if workload == "wide-window":
        lines.append(largest("cegis", "member accounting"))
    if workload == "deep-chain":
        for driver in DRIVERS:
            if per_driver[driver]:
                s = share(driver, accounting)
                lines.append(f"{'PASS' if s < 0.05 else 'FAIL'} member accounting {s:.1%} "
                             f"of {driver}_s (< 5%)")
        lines.append(largest("onebyone", "chain solves"))
    if workload in ("wide-window", "optimal"):
        lines.append(largest("ar", "reach.mdp_extreme"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mcsynth = import_program()
    if args.workload not in families.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(families.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment(args.seed)
    print("environment:", json.dumps(env, sort_keys=True))

    tasks = families.make_workload(args.workload, args.seed)
    for task in tasks:
        spec = task.spec_text.strip().replace("\n", " & ")
        print(f"task {task.name}: {len(task.model.states)} states, {task.model.members()} members, "
              f"drivers {','.join(task.drivers)}, spec {spec}")
    texts = [(t.model.sketch_text(), t.spec_text) for t in tasks]
    parsed = parse_all(mcsynth, tasks)

    # Passes until --seconds are used up; with --trace 1 every second pass
    # is traced, and its tasks are parsed again under the tracer.
    setup_samples: list[float] = []
    reference: list[float] = []
    passes: list[Pass] = []
    t_measure = time.perf_counter()
    while True:
        tracer = None
        if args.trace == 1 and len(passes) % 2 == 1:
            tracer = Tracer()
            tracer.install()
            tracer.tag = "setup"
            parsed = parse_all(mcsynth, tasks)
        else:
            time_setup(mcsynth, texts, setup_samples)
        try:
            passes.append(run_pass(mcsynth, tasks, parsed, tracer,
                                   reference if args.trace == 0 else None))
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = passes[-1].wall
        enough = len(passes) >= (2 if args.trace == 1 else 1)
        if enough and (time.perf_counter() - t_measure + wall > args.seconds
                       or time.perf_counter() - START + wall > DEADLINE_S):
            break

    attempted, failed, problems, records = check_passes(tasks, parsed, passes)
    OUT.mkdir(exist_ok=True)
    fingerprint = code_fingerprint()
    record_path = OUT / f"records-{args.workload}-seed{args.seed}.json"
    lock_problem = compare_with_previous(record_path, fingerprint, records)
    if lock_problem:
        problems.append(lock_problem)
    record_path.write_text(json.dumps(
        {"code": fingerprint, "environment": env, "workload": args.workload,
         "records": records}, indent=1) + "\n", encoding="utf-8")
    for run, rec in zip(passes[0].runs, records):
        print(f"record ({run.seconds:.3f} s):", json.dumps(rec, sort_keys=True))
    for problem in problems:
        print("FAILED:", problem)
    print(f"passes: {len(passes)}, failed_frac: {failed / max(attempted, 1):.4f} "
          f"({failed} of {attempted} driver runs)")

    untraced = [p for p in passes if p.tracer is None]
    if args.trace == 0:
        metrics = end_to_end_metrics(untraced, setup_samples, reference)
    else:
        traced = [p for p in passes if p.tracer is not None]
        metrics = per_layer_metrics(traced, untraced)
        for line in design_checks(args.workload, traced[-1]):
            print("design check:", line)
        if traced[-1].tracer.missing:
            print("trace: not found in this version:", ", ".join(traced[-1].tracer.missing))
        traced[-1].tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
