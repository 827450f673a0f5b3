"""Command-line entry point: regenerate any paper artifact from a shell.

Usage::

    python -m repro table1            # Table 1 (project taxonomy)
    python -m repro table2            # Table 2 (storage systems)
    python -m repro table3            # Table 3 (capacity estimates)
    python -m repro zooko             # the Zooko's-triangle assessment
    python -m repro agenda            # the §5 research agenda
    python -m repro experiment E4     # any DESIGN.md experiment driver
    python -m repro sweep E8 --workers 4   # grid drivers, parallel + cached
    python -m repro sweep E8 --metrics     # plus an obs metrics summary
    python -m repro trace E4 --out trace.jsonl  # run under full tracing
    python -m repro lint              # determinism/invariant linter
    python -m repro chaos E4 --plan server-kill --seed 7  # fault injection
    python -m repro bench --suite micro --out BENCH.json  # perf benchmarks
    python -m repro list              # what can be run

Experiment runs use small default parameters (seconds of wall clock);
the benchmarks run the calibrated versions.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.analysis.tables import render_kv, render_table


def _table1() -> None:
    from repro.core import table1_rows

    print(render_table(table1_rows()))


def _table2() -> None:
    from repro.storage import table2_rows

    print(render_table(table2_rows()))


def _table3() -> None:
    from repro.analysis import run_feasibility

    result = run_feasibility()
    print(render_table(result["table3"]))
    print()
    print(render_kv({k: str(v) for k, v in result["sufficient"].items()},
                    title="Sufficient capacity among devices?"))


def _zooko() -> None:
    from repro.naming import triangle_table

    print(render_table(triangle_table()))


def _agenda() -> None:
    from repro.core import AGENDA

    rows = [
        {"difficulty": item.difficulty, "problem": item.title,
         "experiments": ", ".join(item.informed_by_experiments) or "-"}
        for item in AGENDA
    ]
    print(render_table(rows))


_EXPERIMENTS: Dict[str, Callable[[], object]] = {}


def _register_experiments() -> None:
    from repro.analysis import (
        naming_attack_curve,
        run_censorship_sweep,
        run_federation_availability,
        run_name_theft,
        run_naming_comparison,
        run_partial_federation_sweep,
        run_proof_economics,
        run_quality_vs_quantity,
        run_social_tradeoff,
        run_swarm_availability,
    )
    from repro.analysis.experiments import (
        run_endless_ledger,
        run_moderation_comparison,
        run_usenet_collapse,
    )

    _EXPERIMENTS.update({
        "E4": lambda: run_federation_availability(seed=7),
        "E4P": lambda: run_partial_federation_sweep(seed=7),
        "E5": lambda: run_social_tradeoff(seed=3),
        "E6A": lambda: run_naming_comparison(seed=2),
        "E6B": lambda: naming_attack_curve(),
        "E6C": lambda: [run_name_theft(seed=9)],
        "E7": lambda: run_proof_economics(seed=4),
        "E8": lambda: run_swarm_availability(seed=6),
        "E9": lambda: run_quality_vs_quantity(seed=2),
        "E10": lambda: run_moderation_comparison(seed=1),
        "E11": lambda: run_usenet_collapse(seed=3),
        "E12": lambda: run_endless_ledger(seed=3),
        "EC": lambda: run_censorship_sweep(seed=1),
    })


# Grid-shaped drivers the parallel runner can fan out (driver defaults;
# --seed overrides the base seed where the driver takes one).
_SWEEPABLE: Dict[str, Callable[..., object]] = {}

# The subset with a vectorized cohort-engine variant (--engine cohort);
# lambdas take (runner, seed, devices) with devices=None meaning the
# driver default.
_SWEEPABLE_COHORT: Dict[str, Callable[..., object]] = {}

# The subset with a space-partitioned shard-engine variant
# (--engine shard --shards K); lambdas take (runner, seed, shards).
_SWEEPABLE_SHARD: Dict[str, Callable[..., object]] = {}


def _register_sweeps() -> None:
    from repro.analysis import (
        run_censorship_sweep,
        run_federation_availability,
        run_feasibility,
        run_naming_comparison,
        run_partial_federation_sweep,
        run_proof_economics,
        run_quality_vs_quantity,
        run_social_tradeoff,
        run_swarm_availability,
    )
    from repro.analysis.experiments import run_usenet_collapse

    _SWEEPABLE.update({
        "E3": lambda runner, seed: run_feasibility(runner=runner)["table3"],
        "E4": lambda runner, seed: run_federation_availability(
            seed=seed, runner=runner),
        "E4P": lambda runner, seed: run_partial_federation_sweep(
            seed=seed, runner=runner),
        "E5": lambda runner, seed: run_social_tradeoff(
            seed=seed, runner=runner),
        "E6A": lambda runner, seed: run_naming_comparison(
            seed=seed, runner=runner),
        "E7": lambda runner, seed: run_proof_economics(
            seed=seed, runner=runner),
        "E8": lambda runner, seed: run_swarm_availability(
            seed=seed, runner=runner),
        "E9": lambda runner, seed: run_quality_vs_quantity(
            seed=seed, runner=runner),
        "E11": lambda runner, seed: run_usenet_collapse(
            seed=seed, runner=runner),
        "EC": lambda runner, seed: run_censorship_sweep(
            seed=seed, runner=runner),
    })

    from repro.analysis import (
        run_feasibility_cohort,
        run_federation_availability_cohort,
        run_quality_vs_quantity_cohort,
        run_social_tradeoff_cohort,
    )

    def _devices_kwargs(devices):
        return {} if devices is None else {"devices": devices}

    _SWEEPABLE_COHORT.update({
        "E3": lambda runner, seed, devices: run_feasibility_cohort(
            seed=seed, runner=runner, **_devices_kwargs(devices))["table3"],
        "E4": lambda runner, seed, devices: run_federation_availability_cohort(
            seed=seed, runner=runner, **_devices_kwargs(devices)),
        "E5": lambda runner, seed, devices: run_social_tradeoff_cohort(
            seed=seed, runner=runner, **_devices_kwargs(devices)),
        "E9": lambda runner, seed, devices: run_quality_vs_quantity_cohort(
            seed=seed, runner=runner, **_devices_kwargs(devices)),
    })

    from repro.analysis import (
        run_federation_availability_shard,
        run_registration_shard_smoke,
        run_social_tradeoff_shard,
    )

    _SWEEPABLE_SHARD.update({
        "E4": lambda runner, seed, shards: run_federation_availability_shard(
            seed=seed, shards=shards, runner=runner),
        "E5": lambda runner, seed, shards: run_social_tradeoff_shard(
            seed=seed, shards=shards, runner=runner),
        "E6S": lambda runner, seed, shards: run_registration_shard_smoke(
            seed=seed, shards=shards, runner=runner),
    })


def _sweep(args) -> int:
    from repro.analysis import SweepCache, SweepRunner

    _register_sweeps()
    if args.engine == "cohort":
        cohort_driver = _SWEEPABLE_COHORT.get(args.name.upper())
        if cohort_driver is None:
            print(f"no cohort engine for {args.name!r}; cohort-sweepable:"
                  f" {', '.join(sorted(_SWEEPABLE_COHORT))}", file=sys.stderr)
            return 2
        driver = lambda runner, seed: cohort_driver(runner, seed, args.devices)
        if args.shards is not None:
            print("--shards requires --engine shard", file=sys.stderr)
            return 2
    elif args.engine == "shard":
        shard_driver = _SWEEPABLE_SHARD.get(args.name.upper())
        if shard_driver is None:
            print(f"no shard engine for {args.name!r}; shard-sweepable:"
                  f" {', '.join(sorted(_SWEEPABLE_SHARD))}", file=sys.stderr)
            return 2
        shards = 2 if args.shards is None else args.shards
        if shards < 1:
            print(f"--shards must be >= 1, got {shards}", file=sys.stderr)
            return 2
        driver = lambda runner, seed: shard_driver(runner, seed, shards)
        if args.devices is not None:
            print("--devices requires --engine cohort", file=sys.stderr)
            return 2
    else:
        driver = _SWEEPABLE.get(args.name.upper())
        if driver is None:
            print(f"unknown sweep {args.name!r}; sweepable:"
                  f" {', '.join(sorted(_SWEEPABLE))}", file=sys.stderr)
            return 2
        if args.devices is not None:
            print("--devices requires --engine cohort", file=sys.stderr)
            return 2
        if args.shards is not None:
            print("--shards requires --engine shard", file=sys.stderr)
            return 2
    if args.chunksize < 1:
        print(f"--chunksize must be >= 1, got {args.chunksize}",
              file=sys.stderr)
        return 2
    metrics = None
    if args.metrics:
        from repro.obs import Metrics

        metrics = Metrics()
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    runner = SweepRunner(workers=args.workers, cache=cache,
                         chunksize=args.chunksize, metrics=metrics)
    rows = driver(runner, args.seed)
    print(render_table(list(rows)))
    print()
    print(render_table(runner.stats.summary_rows()))
    if metrics is not None:
        from repro.obs import render_report_human

        print()
        print(render_report_human(metrics))
    if cache is not None:
        print(f"\ncache: {cache.cache_dir}"
              + (f" ({cache.corrupt_files} corrupt file(s) ignored)"
                 if cache.corrupt_files else ""))
    return 0


def _trace(args) -> int:
    from repro.obs.cli import run_trace

    _register_experiments()
    return run_trace(args, _EXPERIMENTS)


def _experiment(name: str) -> int:
    _register_experiments()
    runner = _EXPERIMENTS.get(name.upper())
    if runner is None:
        print(f"unknown experiment {name!r}; known:"
              f" {', '.join(sorted(_EXPERIMENTS))}", file=sys.stderr)
        return 2
    rows = runner()
    print(render_table(list(rows)))
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artifacts from 'The Barriers to Overthrowing"
                    " Internet Feudalism' (HotNets 2017).",
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("table1", "table2", "table3", "zooko", "agenda", "verify", "list"):
        sub.add_parser(name)
    experiment = sub.add_parser("experiment")
    experiment.add_argument("name", help="experiment id, e.g. E4 or E6b")
    sweep_cmd = sub.add_parser(
        "sweep",
        help="run a grid driver through the parallel, cached runner",
    )
    sweep_cmd.add_argument("name", help="sweepable experiment id, e.g. E8")
    sweep_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes (default: 1, serial)")
    sweep_cmd.add_argument("--no-cache", action="store_true",
                           help="always recompute; do not touch the cache")
    sweep_cmd.add_argument("--cache-dir", default=None,
                           help="cache directory (default: $REPRO_CACHE_DIR"
                                " or .repro_cache)")
    sweep_cmd.add_argument("--seed", type=int, default=1,
                           help="base seed passed to the driver")
    sweep_cmd.add_argument("--chunksize", type=int, default=1,
                           help="grid points per worker dispatch")
    sweep_cmd.add_argument("--metrics", action="store_true",
                           help="record and print an obs metrics summary")
    sweep_cmd.add_argument("--engine", choices=("process", "cohort", "shard"),
                           default="process",
                           help="per-process event engine (default), the"
                                " vectorized cohort engine, or the"
                                " space-partitioned shard engine")
    sweep_cmd.add_argument("--devices", type=int, default=None,
                           help="cohort population size (cohort engine only;"
                                " default: driver-specific)")
    sweep_cmd.add_argument("--shards", type=int, default=None,
                           help="shard count K (shard engine only;"
                                " default: 2)")
    trace_cmd = sub.add_parser(
        "trace",
        help="run an experiment under tracing; write a JSONL trace",
    )
    from repro.obs.cli import add_trace_arguments

    add_trace_arguments(trace_cmd)
    lint_cmd = sub.add_parser(
        "lint",
        help="run the determinism & simulation-invariant linter",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_cmd)
    chaos_cmd = sub.add_parser(
        "chaos",
        help="run an experiment scenario under a fault plan with"
             " invariant checking",
    )
    from repro.faults.cli import add_chaos_arguments

    add_chaos_arguments(chaos_cmd)
    bench_cmd = sub.add_parser(
        "bench",
        help="run the deterministic perf benchmarks; record or compare"
             " BENCH_*.json reports",
    )
    from repro.bench.cli import add_bench_arguments

    add_bench_arguments(bench_cmd)
    args = parser.parse_args(argv)

    if args.command == "table1":
        _table1()
    elif args.command == "table2":
        _table2()
    elif args.command == "table3":
        _table3()
    elif args.command == "zooko":
        _zooko()
    elif args.command == "agenda":
        _agenda()
    elif args.command == "experiment":
        return _experiment(args.name)
    elif args.command == "sweep":
        return _sweep(args)
    elif args.command == "trace":
        return _trace(args)
    elif args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    elif args.command == "chaos":
        from repro.faults.cli import run_chaos_command

        return run_chaos_command(args)
    elif args.command == "bench":
        from repro.bench.cli import run_bench_command

        return run_bench_command(args)
    elif args.command == "verify":
        from repro.analysis import verify_reproduction

        rows = verify_reproduction()
        print(render_table(rows))
        if any(row["status"] != "PASS" for row in rows):
            return 3
        print("\nAll reproduction targets hold.")
    elif args.command == "list":
        _register_experiments()
        _register_sweeps()
        print("tables: table1 table2 table3")
        print("other:  zooko agenda verify lint")
        print(f"experiments: {' '.join(sorted(_EXPERIMENTS))}")
        print("traceable (python -m repro trace <id> --out t.jsonl):"
              f" {' '.join(sorted(_EXPERIMENTS))}")
        print(f"sweepable (python -m repro sweep <id> --workers N):"
              f" {' '.join(sorted(_SWEEPABLE))}")
        print("cohort engine (python -m repro sweep <id> --engine cohort"
              f" --devices N): {' '.join(sorted(_SWEEPABLE_COHORT))}")
        print("shard engine (python -m repro sweep <id> --engine shard"
              f" --shards K): {' '.join(sorted(_SWEEPABLE_SHARD))}")
        from repro.faults import PRESETS, SCENARIOS

        print("chaos (python -m repro chaos <id> --plan <preset>):"
              f" {' '.join(sorted(SCENARIOS))}")
        print(f"fault presets: {' '.join(sorted(PRESETS))}")
        from repro.bench import all_benchmarks

        print("bench (python -m repro bench --suite micro|macro):"
              f" {' '.join(b.name for b in all_benchmarks())}")
    else:
        parser.print_help()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
