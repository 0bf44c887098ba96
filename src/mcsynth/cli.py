"""Command-line entry points.

Subcommands::

    mcsynth synth     --sketch F --spec F --method onebyone|cegis|ar|hybrid
                      [--bounds trivial|family]
                      [--cost-units deterministic|wallclock] [--json]
    mcsynth bench gen --states N --params K --domain D --seed S -o FILE
    mcsynth ce-report --sketch F --spec F --mode trivial|family
                      [--minimal-oracle] [--json]

Exit codes: 0 feasible/optimal (and for bench/ce-report success), 1
infeasible, 2 input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import ResourceCapError, SketchError
from .report import ce_quality_report
from .sketch import generate_benchmark, parse_sketch, parse_spec, serialize_sketch
from .synthesis import METHODS, synthesize

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcsynth",
        description="Synthesize members of finite Markov chain families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="search a sketch for a satisfying member")
    synth.add_argument("--sketch", required=True, help="sketch JSON file")
    synth.add_argument("--spec", required=True, help="specification file")
    synth.add_argument(
        "--method",
        choices=METHODS,
        default="hybrid",
    )
    synth.add_argument(
        "--bounds",
        choices=["trivial", "family"],
        default="family",
        help="rerouting vectors of conflicts (cegis and hybrid)",
    )
    synth.add_argument(
        "--cost-units",
        choices=["deterministic", "wallclock"],
        default="deterministic",
        help="unit of the hybrid's CEGIS budget: model checks or seconds",
    )
    synth.add_argument("--json", action="store_true", help="machine-readable output")

    bench = sub.add_parser("bench", help="benchmark utilities")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    gen = bench_sub.add_parser("gen", help="generate a random sketch")
    gen.add_argument("--states", type=int, required=True)
    gen.add_argument("--params", type=int, required=True)
    gen.add_argument("--domain", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("-o", "--output", required=True, help="output sketch file")

    report = sub.add_parser("ce-report", help="conflict quality report")
    report.add_argument("--sketch", required=True)
    report.add_argument("--spec", required=True)
    report.add_argument("--mode", choices=["trivial", "family"], default="family")
    report.add_argument(
        "--minimal-oracle",
        action="store_true",
        help="also run the exhaustive minimal-conflict oracle (desk scale)",
    )
    report.add_argument("--json", action="store_true")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SketchError(str(exc), location=path) from exc


def _run_synth(args) -> int:
    family = parse_sketch(_read(args.sketch))
    spec = parse_spec(_read(args.spec), family)
    start = time.perf_counter()
    result = synthesize(
        family,
        spec,
        method=args.method,
        bounds=args.bounds,
        cost_units=args.cost_units,
    )
    elapsed = time.perf_counter() - start
    payload = {
        "verdict": result.verdict,
        "realization": (
            None if result.realization is None else result.realization.as_dict(family)
        ),
        "values": (
            None
            if result.values is None
            else {p.text(family): v for p, v in zip(spec.properties, result.values)}
        ),
        "optimum": result.optimum,
        "iterations": {
            "cegis": result.stats.cegis_iterations,
            "ar": result.stats.ar_iterations,
        },
        "model_checks": result.stats.model_checks,
        "pruned": result.stats.pruned,
        "checked": result.stats.checked,
        "time_s": elapsed,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"verdict: {result.verdict}")
        if result.realization is not None:
            assignment = result.realization.as_dict(family)
            print("realization: " + ", ".join(f"{k}={v}" for k, v in assignment.items()))
        if result.optimum is not None:
            print(f"optimum: {result.optimum:.6f}")
        if result.values:
            for prop, value in zip(spec.properties, result.values):
                print(f"  {prop.text(family)} -> {value:.6f}")
        print(
            f"iterations: cegis={result.stats.cegis_iterations} ar={result.stats.ar_iterations}"
            f" model-checks={result.stats.model_checks}"
            f" pruned={result.stats.pruned} checked={result.stats.checked}"
            f" time={elapsed:.3f}s"
        )
    if result.verdict in ("feasible", "optimal"):
        return EXIT_FEASIBLE
    return EXIT_INFEASIBLE


def _run_bench_gen(args) -> int:
    family = generate_benchmark(args.states, args.params, args.domain, args.seed)
    text = serialize_sketch(family)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return EXIT_FEASIBLE


def _run_ce_report(args) -> int:
    family = parse_sketch(_read(args.sketch))
    spec = parse_spec(_read(args.spec), family)
    report = ce_quality_report(
        family,
        spec,
        mode=args.mode,
        include_minimal=args.minimal_oracle,
    )
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.to_text(family), end="")
    return EXIT_FEASIBLE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _run_synth(args)
        if args.command == "bench":
            return _run_bench_gen(args)
        return _run_ce_report(args)
    except SketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
