"""Command-line entry point.

Verbs:
  isolate      run one bug config through a strategy and scorer, emit a report
  eval         run a dataset manifest through strategy/scorer pairs
  testbed-gen  generate seeded testbed scenarios, configs and a manifest
  testbed-run  execute one testbed scenario subset (subprocess contract)
  cache-clear  drop cached execution results

Exit codes: 0 success (including fallback reports), 2 baseline not
reproducible, 3 driver/config error, 4 eval produced no rows.  Argparse
usage errors exit 2 as usual for Python CLIs.

Import rule: at module level this file imports only ``argparse``, ``os``,
``sys``, ``Path``, ``__version__`` and ``errors``; each ``cmd_*`` imports
what its verb runs.  So a ``testbed-run`` child, started once per run of a
process driver, loads only the testbed compiler, ``model`` and
``coverage``: none of the engine, the drivers, the eval harness or what
they import (``logging``, ``concurrent.futures``, ``hashlib``, ``gzip``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import BugStepsError, InvalidConfig, NotReproducible

EXIT_OK = 0
EXIT_NOT_REPRODUCIBLE = 2
EXIT_DRIVER_ERROR = 3
EXIT_NO_ROWS = 4


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write_output(text: str, output):
    if output:
        Path(output).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def cmd_isolate(args) -> int:
    from .driver import load_driver
    from .isolate import run_strategy
    from .scoring import report_for
    from .util import canonical_json

    driver = load_driver(args.config, cache_dir=args.cache_dir)
    sequence = driver.enumerate_steps()
    isolation = run_strategy(args.strategy, driver, sequence, seed=args.seed)
    report = report_for(
        isolation,
        args.scorer,
        args.granularity,
        provenance={
            "tool_version": __version__,
            "config": str(args.config),
            "config_fingerprint": driver.fingerprint,
            "strategy": args.strategy,
            "scorer": args.scorer,
            "granularity": args.granularity,
            "seed": args.seed,
            "probe_count": isolation.probe_count,
            "distinct_runs": len(isolation.all_runs),
            "bug_causing_steps": isolation.bug_causing_steps,
        },
    )
    if args.isolation_out:
        Path(args.isolation_out).write_text(
            canonical_json(isolation.to_json_dict()), "utf-8"
        )
    if args.format == "json":
        _write_output(canonical_json(report.to_json_dict()), args.output)
    else:
        _write_output(report.to_table(), args.output)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evalharness import evaluate_manifest, render_metrics_table
    from .model import SCORERS, STRATEGIES
    from .util import canonical_json

    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    scorers = [s.strip() for s in args.scorer.split(",") if s.strip()]
    for kind, names, known in (("strategy", strategies, STRATEGIES),
                               ("scorer", scorers, SCORERS)):
        for name in names:
            if name not in known:
                raise InvalidConfig(f"unknown {kind} {name!r}")
    doc = evaluate_manifest(
        args.manifest,
        strategies=strategies,
        scorers=scorers,
        granularity=args.granularity,
        seed=args.seed,
        repeat=args.repeat,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    if not doc["rows"]:
        for error in doc["errors"]:
            print(f"error: {error['bug_id']} {error['strategy']}+{error['scorer']}: "
                  f"{error['error']}", file=sys.stderr)
        print("error: no bug evaluated successfully", file=sys.stderr)
        return EXIT_NO_ROWS
    if args.format == "json":
        _write_output(canonical_json(doc), args.output)
    else:
        text = render_metrics_table(doc["metrics"])
        if doc["intersections"]:
            for level, counts in sorted(doc["intersections"].items()):
                text += f"\nintersection {level}:\n"
                for key in sorted(counts):
                    text += f"  {key}: {counts[key]}\n"
        if args.repeat > 1 and "rand" in strategies:
            text += "\nrand rows aggregate median ranks over "
            text += f"{args.repeat} repeats\n"
        _write_output(text, args.output)
    return EXIT_OK


def cmd_testbed_gen(args) -> int:
    from .toy.bugs import generate_scenarios
    from .util import canonical_json

    scenarios = generate_scenarios(args.seed, args.count)
    out = Path(args.out)
    scen_dir = out / "scenarios"
    conf_dir = out / "configs"
    scen_dir.mkdir(parents=True, exist_ok=True)
    conf_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"bugs": []}
    for scn in scenarios:
        scn_path = scen_dir / f"{scn.id}.json"
        scn_path.write_text(canonical_json(scn.to_json_dict()), "utf-8")
        conf_path = conf_dir / f"{scn.id}.json"
        conf_path.write_text(
            canonical_json(
                {"kind": "toy", "scenario": f"../scenarios/{scn.id}.json"}
            ),
            "utf-8",
        )
        manifest["bugs"].append(
            {
                "bug_id": scn.id,
                "config": f"configs/{scn.id}.json",
                "ground_truth": {
                    "files": list(scn.ground_truth_files),
                    "functions": list(scn.ground_truth_functions),
                },
                "tags": [scn.kind, scn.archetype],
            }
        )
    (out / "manifest.json").write_text(canonical_json(manifest), "utf-8")
    print(f"wrote {len(scenarios)} scenarios under {out}")
    return EXIT_OK


def cmd_testbed_run(args) -> int:
    from .coverage import emit_gcov_json
    from .model import Outcome
    from .toy.bugs import load_scenario, pipeline_steps, subset_outcome
    from .toy.passes import blocks

    bug = load_scenario(args.scenario)
    sequence = pipeline_steps(bug.pipeline)
    if args.list_steps:
        for sid in sequence.ids:
            print(sid)
        return EXIT_OK
    wanted = [s for s in args.passes.split(",") if s] if args.passes else []
    try:
        positions = sequence.positions(wanted)
    except (KeyError, ValueError) as exc:
        raise InvalidConfig(exc.args[0]) from exc
    covered: dict = {}
    outcome, outputs = subset_outcome(bug, positions, covered)
    if args.coverage_out:
        Path(args.coverage_out).write_bytes(emit_gcov_json(blocks(covered)))
    if outcome is Outcome.FAIL_CRASH:
        sys.stderr.write("compiler crashed\n")
        sys.stderr.flush()
        os.abort()
    for value in outputs:
        print(value)
    return EXIT_OK


def cmd_cache_clear(args) -> int:
    from .driver import clear_cache_dir

    removed = clear_cache_dir(args.cache_dir)
    print(f"removed {removed} cached result(s) from {args.cache_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .model import GRANULARITIES, SCORERS, STRATEGIES

    parser = argparse.ArgumentParser(
        prog="bugsteps",
        description="Compiler bug isolation via causal analysis of compilation steps",
    )
    parser.add_argument("--version", action="version", version=f"bugsteps {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_iso = sub.add_parser("isolate", help="isolate one bug and emit a ranked report")
    p_iso.add_argument("config", help="driver config JSON")
    p_iso.add_argument("--strategy", choices=STRATEGIES, default="tail")
    p_iso.add_argument("--scorer", choices=SCORERS, default="compscan")
    p_iso.add_argument("--granularity", choices=GRANULARITIES, default="file")
    p_iso.add_argument("--seed", type=int, default=0)
    p_iso.add_argument("--cache-dir", default=None)
    p_iso.add_argument("--output", default=None)
    p_iso.add_argument("--format", choices=("json", "table"), default="json")
    p_iso.add_argument("--isolation-out", default=None,
                       help="also dump the raw isolation result JSON here")
    p_iso.set_defaults(func=cmd_isolate)

    p_eval = sub.add_parser("eval", help="evaluate a bug dataset manifest")
    p_eval.add_argument("manifest")
    p_eval.add_argument("--strategy", default="tail",
                        help="comma-separated strategies (tail,nodel,rand)")
    p_eval.add_argument("--scorer", default="compscan",
                        help="comma-separated scorers (compscan,mbfl,sbfl)")
    p_eval.add_argument("--granularity", choices=GRANULARITIES, default="file")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--repeat", type=positive_int, default=1,
                        help="repeats for the rand strategy (median ranks)")
    p_eval.add_argument("--jobs", type=positive_int, default=1, help="bugs evaluated in parallel")
    p_eval.add_argument("--cache-dir", default=None)
    p_eval.add_argument("--output", default=None)
    p_eval.add_argument("--format", choices=("json", "table"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("testbed-gen", help="generate testbed scenarios")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--count", type=positive_int, default=30)
    p_gen.set_defaults(func=cmd_testbed_gen)

    p_run = sub.add_parser("testbed-run", help="run one testbed scenario subset")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--passes", default="",
                       help="comma-separated step ids to retain (empty for none)")
    p_run.add_argument("--coverage-out", default=None)
    p_run.add_argument("--list-steps", action="store_true")
    p_run.set_defaults(func=cmd_testbed_run)

    p_clear = sub.add_parser("cache-clear", help="remove cached execution results")
    p_clear.add_argument("--cache-dir", required=True)
    p_clear.set_defaults(func=cmd_cache_clear)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BugStepsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REPRODUCIBLE if isinstance(exc, NotReproducible) else EXIT_DRIVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
