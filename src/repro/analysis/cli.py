"""Experiment command-line interface: regenerate any paper table/figure.

Usage::

    gpu-scale-experiments table1
    gpu-scale-experiments fig1 --benchmarks dct,bfs,pf
    gpu-scale-experiments fig4 --target 128
    gpu-scale-experiments fig6
    gpu-scale-experiments fig7
    gpu-scale-experiments fig8
    gpu-scale-experiments all

Simulations are cached in sharded JSONL files under
``results/simcache/``; the first run of the heavier experiments takes
minutes, repeats are instantaneous.
``--jobs N`` (default ``cpu_count() - 1``) fans cache misses out across
N worker processes; results are identical to a serial run.

Execution is fault-tolerant: a raising or hung run costs that run, not
the batch.  ``--max-retries`` bounds re-execution of failed runs,
``--run-timeout`` arms a per-run watchdog (a timeout that is not above
zero, or a negative retry count, exits 2), and ``--keep-going`` finishes
the remaining experiments when one fails, exiting with a failure summary
(and exit code 1) instead of a traceback.  Failed runs are recorded in
the result store, as failure records under their keys, with enough
context to re-run.

Interrupts are drains, not losses (``docs/ARCHITECTURE.md``
§ "Resilience"): the first SIGINT/SIGTERM stops submitting runs, lets
in-flight runs finish, flushes completed results and failure records,
and exits with the resumable code 75 — rerun the same command
to resume from the cache.  A second signal force-quits (``128+signum``).
A free-disk guard (``REPRO_MIN_FREE_MB``) pauses cache writes under
pressure instead of crashing; ``REPRO_MAX_RSS`` caps per-process
memory so a pathological run fails alone.  Configs that keep failing
(3 consecutive terminal failures on record) are skipped by later
``--keep-going`` invocations until ``--retry-quarantined`` re-runs them
and a success supersedes their failure record.
The run is the unit of recovery: a run that dies is re-run from its
start, and nothing finished is lost.

Observability (see ``docs/ARCHITECTURE.md`` § "Observability"):
``--trace-out trace.json`` records run/sim/kernel/cache spans —
including pool workers' — into a Chrome ``trace_event`` file loadable in
``chrome://tracing`` or Perfetto; ``--metrics-out metrics.json`` writes
the counters/gauges/histograms snapshot; ``--log-format json`` switches
the stderr diagnostics to one-JSON-object-per-line.  Either output flag
(or ``REPRO_OBS=1``) turns recording on; without them the hooks are
never installed and the hot paths run untouched.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import experiments as exp
from repro.analysis.faults import ExecutionPolicy
from repro.analysis.runner import CachedRunner, DEFAULT_CACHE, default_jobs
from repro.exceptions import ConfigurationError, ReproError, ShutdownRequested
from repro.obs import bootstrap, get_logger
from repro.resilience import (
    EXIT_ERROR,
    EXIT_FAILURES,
    EXIT_INTERRUPTED,
    EXIT_OK,
    apply_memory_limit,
    install_shutdown_handlers,
    preflight_disk,
)
from repro.verify.runtime import arm_from_flag

EXPERIMENTS = (
    "table1", "table5", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7",
    "fig8", "artifact", "all",
)


def add_execution_flags(
    parser: argparse.ArgumentParser, no_cache: bool = True
) -> None:
    """Declare the execution flags every campaign entry point shares
    (this CLI, ``scripts/run_all_experiments.py``, ``scripts/accuracy.py``);
    :func:`build_runner` consumes them.  ``no_cache=False`` leaves out
    ``--no-cache`` for entry points that always persist."""
    if no_cache:
        parser.add_argument("--no-cache", action="store_true",
                            help="keep results in memory only")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for cache misses "
                             "(default: cpu_count()-1; 1 disables the pool)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="re-executions of a failed run before it is "
                             "recorded as a casualty (default 2)")
    parser.add_argument("--run-timeout", type=float, default=None,
                        help="per-run watchdog timeout in seconds (> 0) "
                             "for pool execution (default: unlimited)")
    parser.add_argument("--keep-going", action="store_true",
                        help="finish everything that can run when a run "
                             "fails; exit 1 with a failure summary "
                             "instead of a traceback")
    parser.add_argument("--retry-quarantined", action="store_true",
                        help="re-attempt configs the per-config circuit "
                             "breaker would skip; a success supersedes "
                             "their failure record and re-arms them")
    parser.add_argument("--trace-out", default=None,
                        help="write a Chrome trace_event JSON "
                             "(chrome://tracing / Perfetto) of this run")
    parser.add_argument("--metrics-out", default=None,
                        help="write the metrics snapshot (counters, "
                             "gauges, histogram quantiles) as JSON")
    parser.add_argument("--log-format", choices=("human", "json"),
                        default=None,
                        help="stderr diagnostics format (default human)")
    parser.add_argument("--verify", action="store_true",
                        help="paranoia mode: assert engine/model invariants "
                             "at every kernel boundary and event-queue "
                             "operation (equivalent to REPRO_VERIFY=1; "
                             "workers inherit it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-scale-experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--target", type=int, default=128,
                        help="target size for fig4 (64 or 128)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--cache", default=DEFAULT_CACHE,
                        help="result-store directory (default results/simcache)")
    add_execution_flags(parser)
    return parser


def _cache_path(args):
    """The store location the flags select: ``--no-cache`` wins, then
    ``--cache`` where the entry point has one, else the default."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache", DEFAULT_CACHE)


def build_policy(args) -> ExecutionPolicy:
    """Map the CLI's fault-tolerance flags onto an ExecutionPolicy;
    a value the policy rejects exits :data:`EXIT_ERROR`."""
    defaults = ExecutionPolicy()
    try:
        return ExecutionPolicy(
            max_retries=(
                defaults.max_retries
                if args.max_retries is None
                else args.max_retries
            ),
            run_timeout=args.run_timeout,
            keep_going=args.keep_going,
            retry_quarantined=args.retry_quarantined,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR) from None


def build_runner(args, *output_dirs: str):
    """Start a campaign process from :func:`add_execution_flags`' flags.

    Returns ``(obs, coordinator, runner)``.  The order matters: the
    flags are checked first, so a rejected value starts nothing; then
    observability, so recording is switched on before the
    runner constructs its store (shard loads are traced too); then
    resilience — the first SIGINT/SIGTERM drains (exit 75, resumable),
    the second force-quits, and ``REPRO_MAX_RSS`` caps this process the
    same way the pool initializer caps the workers; then paranoia mode,
    the runner, and a free-space preflight over everything the campaign
    writes (``output_dirs`` adds the caller's own targets).
    """
    policy = build_policy(args)
    obs = bootstrap(args.trace_out, args.metrics_out, args.log_format)
    coordinator = install_shutdown_handlers()
    coordinator.reset()
    apply_memory_limit()
    arm_from_flag(args.verify)
    runner = CachedRunner(
        _cache_path(args),
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        policy=policy,
    )
    preflight_disk(runner.store.root, *output_dirs)
    return obs, coordinator, runner


def run_experiment(name: str, args, runner: CachedRunner, out) -> None:
    benches = args.benchmarks.split(",") if args.benchmarks else None
    if name == "table1":
        print(exp.table1_text(), file=out)
    elif name == "table5":
        print(exp.table5_text(), file=out)
    elif name == "fig1":
        result = exp.figure1_scaling(benches or ("dct", "bfs", "pf"), runner)
        print(result.as_text(), file=out)
        for bench in result.benchmarks:
            print(result.plot(bench), file=out)
    elif name == "fig2":
        print(exp.figure2_miss_rate_curves(
            benches or ("dct", "bfs", "pf"), runner).as_text(), file=out)
    elif name == "fig4":
        result = exp.figure4_strong_accuracy(
            args.target, benchmarks=benches, runner=runner
        )
        print(result.as_text(), file=out)
    elif name == "fig5":
        print(exp.figure5_prediction_curves(
            benches or exp.FIG5_BENCHMARKS, runner).as_text(), file=out)
    elif name == "fig6":
        for target, result in exp.figure6_weak_accuracy(runner=runner).items():
            print(result.as_text(), file=out)
            print(file=out)
    elif name == "fig7":
        print(exp.figure7_speedup(runner).as_text(), file=out)
    elif name == "fig8":
        print(exp.figure8_mcm_accuracy(runner).as_text(), file=out)
    elif name == "artifact":
        from repro.analysis.artifact import export_artifact

        counts = export_artifact("results/artifact", runner=runner)
        print(
            f"artifact bundle written to results/artifact "
            f"({counts['strong']} strong + {counts['weak']} weak benchmarks)",
            file=out,
        )
    else:
        raise ReproError(f"unknown experiment {name!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs, coordinator, runner = build_runner(args)
    log = get_logger("cli")
    names = (
        ["table1", "table5", "fig1", "fig2", "fig4", "fig5", "fig6",
         "fig7", "fig8", "artifact"]
        if args.experiment == "all"
        else [args.experiment]
    )
    failed = []
    interrupted = None
    try:
        for name in names:
            coordinator.check()
            try:
                if name == "fig4" and args.experiment == "all":
                    for target in (64, 128):
                        result = exp.figure4_strong_accuracy(
                            target, runner=runner
                        )
                        print(result.as_text())
                        print()
                    continue
                run_experiment(name, args, runner, sys.stdout)
                print()
            except ReproError as error:
                if not args.keep_going:
                    raise
                failed.append(name)
                log.error(
                    "error: %s failed (%s); continuing (--keep-going)",
                    name, error,
                )
    except (ShutdownRequested, KeyboardInterrupt) as stop:
        # Partial progress is already durable (the execution layer merges
        # before re-raising); tell the operator how to pick it back up.
        interrupted = stop
        log.error(
            "interrupted: %s — completed results are saved; rerun the "
            "same command to resume (exit code %d)",
            stop, EXIT_INTERRUPTED,
        )
    except ReproError as error:
        log.error("error: %s", error)
        return EXIT_ERROR
    finally:
        runner.flush()
        stats = runner.stats()
        log.info(
            "%s",
            "cache: {hits} hits, {misses} misses, {flushes} flushes, "
            "{entries} entries, {quarantined_shards} quarantined shards, "
            "{schema_mismatches} schema mismatches (jobs={jobs})".format(
                **stats
            ),
        )
        log.info("%s", runner.execution_health())
        obs.finalize(extra_metrics={"runner": runner.metrics})
    if interrupted is not None:
        return EXIT_INTERRUPTED
    if failed:
        log.error("completed with failures: %s", ", ".join(failed))
        return EXIT_FAILURES
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
