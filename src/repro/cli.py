"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the quickstart scenario: one victim, one antagonist, watch
  CPI2 detect, identify, throttle, and the victim recover.  Pass
  ``--fault-profile {none,light,moderate,heavy}`` (and ``--fault-seed N``)
  to run the same scenario over a faulty sample/spec fabric; see
  ``docs/robustness.md``.
* ``list`` — the registered paper experiments.
* ``experiment <name> [...]`` — run experiments by name and print their
  paper-vs-measured reports.
* ``soak`` — the churn soak harness: sustained job turnover with periodic
  aggregator kills and snapshot+WAL recovery, asserting zero spec drift,
  bounded memory, and counted recovery telemetry; exits non-zero if any
  check fails.  See ``docs/robustness.md``.

Global observability flags (accepted by every command):

* ``--log-level {debug,info,warning,error}`` — console event verbosity.
* ``--log-json PATH`` — write every structured event as one JSON line.
* ``--trace-json PATH`` — export pipeline-stage traces as JSONL
  (``demo`` only).
* ``--profile [PSTATS]`` — run the command under :mod:`cProfile` and print
  the hottest functions (optionally dumping raw pstats data to PSTATS);
  a sharded ``demo --jobs N`` also prints its stage timers, which name
  each worker's start path; see ``docs/performance.md``.

Telemetry-plane flags (``demo``): ``--telemetry`` scrapes the registry
into the simulated-time TSDB at every sampling-window close and evaluates
the SLO alert rules; ``--metrics-out`` writes Prometheus text format
(also on ``experiment``); ``--timeseries-out`` dumps the scraped series
as JSONL; ``--console`` / ``--console-json`` render the per-machine fleet
health scoreboard.  All are byte-identical at any ``--jobs`` count.

``demo`` and ``experiment`` print a metrics report (counters, gauges,
histogram summaries) when the run recorded any; see
``docs/observability.md`` for the catalogue.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def _add_obs_flags(parser: argparse.ArgumentParser,
                   tracing: bool = False) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--log-level", default="warning",
                       choices=["debug", "info", "warning", "error"],
                       help="console log verbosity (default warning)")
    group.add_argument("--log-json", metavar="PATH", default=None,
                       help="write structured events to PATH as JSONL")
    group.add_argument("--profile", metavar="PSTATS", nargs="?", const="",
                       default=None,
                       help="run under cProfile and print the hottest "
                            "functions; give a path to also dump raw "
                            "pstats data for 'python -m pstats'")
    if tracing:
        group.add_argument("--trace-json", metavar="PATH", default=None,
                           help="export pipeline-stage traces to PATH as JSONL")


def _fault_profile_names() -> list[str]:
    from repro.faults.profile import FAULT_PROFILES

    return list(FAULT_PROFILES)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPI2 (EuroSys 2013) reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="run the quickstart victim/antagonist scenario")
    demo.add_argument("--minutes", type=int, default=30,
                      help="simulated minutes to run (default 30)")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--jobs", type=int,
                      default=int(os.environ.get("REPRO_SHARDS", "1")),
                      help="worker processes for sharded execution "
                           "(default: $REPRO_SHARDS or 1; output is "
                           "byte-identical at any worker count — see "
                           "docs/performance.md)")
    faults = demo.add_argument_group("fault injection")
    faults.add_argument("--fault-profile", default="none",
                        choices=sorted(_fault_profile_names()),
                        help="transport/crash fault intensity (default "
                             "none: all paths in-process, output identical "
                             "to a run without fault injection)")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the injected-fault schedule, "
                             "independent of --seed (default 0)")
    telemetry = demo.add_argument_group("telemetry plane")
    telemetry.add_argument("--telemetry", action="store_true",
                           help="attach the fleet telemetry plane: scrape "
                                "the metrics registry into a simulated-time "
                                "TSDB at every sampling-window close and "
                                "evaluate the SLO alert rules (implied by "
                                "--timeseries-out/--console/--console-json)")
    telemetry.add_argument("--metrics-out", metavar="PATH", default=None,
                           help="write the final metrics registry to PATH "
                                "in Prometheus text format")
    telemetry.add_argument("--timeseries-out", metavar="PATH", default=None,
                           help="dump the scraped time series to PATH as "
                                "JSONL (implies --telemetry)")
    telemetry.add_argument("--console", action="store_true",
                           help="render the per-machine fleet health "
                                "console after the run (implies --telemetry)")
    telemetry.add_argument("--console-json", metavar="PATH", default=None,
                           help="also dump the fleet console to PATH as "
                                "JSON (implies --telemetry)")
    _add_obs_flags(demo, tracing=True)

    list_parser = subparsers.add_parser(
        "list", help="list registered experiments")
    _add_obs_flags(list_parser)

    experiment = subparsers.add_parser(
        "experiment", help="run one or more registered experiments")
    experiment.add_argument("names", nargs="+",
                            help="experiment names (see 'repro list'), "
                                 "or 'all' for every registered experiment "
                                 "(takes several minutes)")
    experiment.add_argument("--jobs", type=int, default=1,
                            help="worker processes to spread the named "
                                 "experiments across (default 1; reports "
                                 "are identical at any worker count)")
    experiment.add_argument("--metrics-out", metavar="PATH", default=None,
                            help="write the accumulated metrics registry "
                                 "to PATH in Prometheus text format")
    _add_obs_flags(experiment)

    soak = subparsers.add_parser(
        "soak", help="churn soak with periodic aggregator kills and "
                     "snapshot+WAL recovery")
    soak.add_argument("--minutes", type=int, default=120,
                      help="simulated minutes to run (default 120)")
    soak.add_argument("--machines", type=int, default=8,
                      help="fleet size (default 8)")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--fault-seed", type=int, default=1,
                      help="seed for the fault schedule (default 1)")
    soak.add_argument("--kill-every", type=int, default=900, metavar="SECONDS",
                      help="kill the aggregator every this many simulated "
                           "seconds (default 900)")
    soak.add_argument("--outage", type=int, default=60, metavar="SECONDS",
                      help="seconds the aggregator stays down per kill; "
                           "agents ride the outage out on retry/backoff "
                           "(default 60)")
    soak.add_argument("--store", metavar="DIR", default=None,
                      help="mirror the spec store to DIR (wal.jsonl + "
                           "snapshot.json survive the run)")
    soak.add_argument("--report-json", metavar="PATH", default=None,
                      help="write the full soak report to PATH as JSON")
    soak.add_argument("--timeseries-out", metavar="PATH", default=None,
                      help="dump the scraped time series to PATH as JSONL")
    soak.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="write the final metrics registry to PATH in "
                           "Prometheus text format")
    _add_obs_flags(soak)
    return parser


def _effective_jobs(requested: int) -> int:
    """Clamp a ``--jobs`` request to the cores actually present.

    Oversubscribing worker processes only adds scheduler thrash; when the
    request exceeds ``os.cpu_count()`` we warn once (counted as
    ``shard_jobs_clamped``) and run with every available core instead.
    """
    available = os.cpu_count() or 1
    if requested <= available:
        return requested
    from repro.obs import default_observability

    obs = default_observability()
    obs.metrics.counter("shard_jobs_clamped").inc()
    obs.events.event("shard_jobs_clamped", requested=requested,
                     available=available)
    print(f"warning: --jobs {requested} exceeds the {available} available "
          f"CPU core(s); clamping to {available}", file=sys.stderr)
    return available


def _format_incident_line(incident) -> str:
    """One demo-output line for an incident (exposed for testing)."""
    target = incident.decision.target
    line = (f"  t={incident.time_seconds:>5}s {incident.victim_taskname} "
            f"cpi={incident.victim_cpi:.2f} -> "
            f"{incident.decision.action.value}")
    if target is not None:
        line += f" {target.name}"
    if incident.recovered is not None:
        relative = incident.relative_cpi
        relative_text = (f"{relative:.2f}" if relative is not None
                         else "n/a")  # departed victims have no post-CPI
        line += (f" (recovered={incident.recovered}, "
                 f"relative CPI={relative_text})")
    return line


def _cmd_demo(minutes: int, seed: int,
              trace_json: Optional[str] = None,
              fault_profile: str = "none", fault_seed: int = 0,
              jobs: int = 1, telemetry: bool = False,
              metrics_out: Optional[str] = None,
              timeseries_out: Optional[str] = None,
              console: bool = False,
              console_json: Optional[str] = None,
              profile: bool = False) -> int:
    from repro.experiments.scenarios import demo_scenario

    telemetry = bool(telemetry or timeseries_out or console or console_json)
    kwargs = dict(seed=seed, fault_profile=fault_profile,
                  fault_seed=fault_seed, telemetry=telemetry)
    jobs = _effective_jobs(jobs)
    stages = None
    if jobs > 1:
        from repro.cluster.shards import run_sharded

        print(f"running {minutes} simulated minutes "
              f"across {jobs} worker(s)...")
        result = run_sharded(demo_scenario, kwargs,
                             seconds=minutes * 60, jobs=jobs)
        pipeline = result.pipeline
        incidents = result.all_incidents()
        fault_tallies = (result.fault_tallies
                         if pipeline.faults is not None else None)
        fleet_console = result.fleet_console if telemetry else None
        if profile:
            # Worker stages included: worker_adopt / worker_build /
            # worker_prebuild name the start path each worker took.
            stages = result.timers.render()
    else:
        scenario = demo_scenario(**kwargs)
        pipeline = scenario.pipeline
        print(f"running {minutes} simulated minutes...")
        scenario.simulation.run_minutes(minutes)
        incidents = pipeline.all_incidents()
        fault_tallies = (pipeline.faults.fault_tallies()
                         if pipeline.faults is not None else None)
        fleet_console = pipeline.fleet_console if telemetry else None
    print(f"{len(incidents)} incidents; actions:")
    for incident in incidents:
        print(_format_incident_line(incident))
    print()
    print(pipeline.metrics_report())
    if fault_tallies is not None:
        # Only under a non-zero profile: the default demo output must stay
        # identical to a build without fault injection.
        injected = ", ".join(f"{kind}={count}"
                             for kind, count in sorted(fault_tallies.items()))
        print()
        print(f"fault profile '{pipeline.fault_profile.name}' "
              f"(seed {fault_seed}): {injected or 'no faults fired'}")
    if fleet_console is not None and (console or console_json):
        board = fleet_console()
        if console:
            print()
            print(board.render())
        if console_json:
            with open(console_json, "w", encoding="utf-8") as fh:
                fh.write(board.to_json() + "\n")
            print(f"wrote fleet console to {console_json}")
    if metrics_out:
        from repro.obs import write_prometheus

        written = write_prometheus(pipeline.obs.metrics, metrics_out)
        print(f"wrote {written} exposition lines to {metrics_out}")
    if timeseries_out:
        from repro.obs import write_timeseries_jsonl

        written = write_timeseries_jsonl(pipeline.obs.timeseries,
                                         timeseries_out)
        print(f"wrote {written} time series to {timeseries_out}")
    if trace_json:
        written = pipeline.obs.tracer.export_jsonl(trace_json)
        suffix = (" (coordinator-side stages only under --jobs > 1)"
                  if jobs > 1 else "")
        print(f"wrote {written} traces to {trace_json}{suffix}")
    if stages is not None:
        print()
        print("shard stages:")
        print(stages)
    return 0


def _cmd_soak(minutes: int, machines: int, seed: int, fault_seed: int,
              kill_every: int, outage: int,
              store: Optional[str] = None,
              report_json: Optional[str] = None,
              timeseries_out: Optional[str] = None,
              metrics_out: Optional[str] = None) -> int:
    from repro.experiments.soak import run_soak
    from repro.obs import default_observability

    obs = default_observability()
    print(f"soaking {minutes} simulated minutes on {machines} machine(s), "
          f"killing the aggregator every {kill_every}s "
          f"(outage {outage}s)...")
    report = run_soak(seconds=minutes * 60, seed=seed,
                      num_machines=machines, kill_period=kill_every,
                      outage_seconds=outage, fault_seed=fault_seed,
                      store_dir=store, obs=obs)
    print(report.render())
    if report_json:
        with open(report_json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote soak report to {report_json}")
    if store:
        print(f"spec store mirrored to {store}")
    if metrics_out:
        from repro.obs import write_prometheus

        written = write_prometheus(obs.metrics, metrics_out)
        print(f"wrote {written} exposition lines to {metrics_out}")
    if timeseries_out and obs.timeseries is not None:
        from repro.obs import write_timeseries_jsonl

        written = write_timeseries_jsonl(obs.timeseries, timeseries_out)
        print(f"wrote {written} time series to {timeseries_out}")
    return 0 if report.passed else 1


def _cmd_list() -> int:
    from repro.experiments.registry import EXPERIMENTS

    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, _runner) in EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_experiment(names: Sequence[str], jobs: int = 1,
                    metrics_out: Optional[str] = None) -> int:
    from repro.experiments.registry import (EXPERIMENTS, run_experiment,
                                            run_experiments,
                                            unknown_experiment_error)
    from repro.obs import default_observability, render_metrics_report

    if list(names) == ["all"]:
        names = list(EXPERIMENTS)
    jobs = _effective_jobs(jobs)
    status = 0
    if jobs > 1:
        valid = [name for name in names if name in EXPERIMENTS]
        reports = dict(run_experiments(valid, jobs=jobs)) if valid else {}
        for name in names:
            report = reports.get(name)
            if report is None:
                print(unknown_experiment_error(name), file=sys.stderr)
                status = 2
                continue
            report.show()
    else:
        for name in names:
            try:
                report = run_experiment(name)
            except KeyError as error:
                print(error, file=sys.stderr)
                status = 2
                continue
            report.show()
    # Experiments build their own pipelines, which fall back to the process
    # default observability — report whatever the runs recorded.
    registry = default_observability().metrics
    if registry.counters() or registry.gauges() or registry.histograms():
        print()
        print(render_metrics_report(registry))
    if metrics_out:
        from repro.obs import write_prometheus

        written = write_prometheus(registry, metrics_out)
        print(f"wrote {written} exposition lines to {metrics_out}")
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    from repro.obs import (Observability, configure_logging,
                           set_default_observability)

    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_path=args.log_json)
    # Each invocation reports its own run, not whatever the process
    # accumulated before (matters when main() is called in-process).
    set_default_observability(Observability())

    def run() -> int:
        if args.command == "demo":
            return _cmd_demo(args.minutes, args.seed,
                             trace_json=args.trace_json,
                             fault_profile=args.fault_profile,
                             fault_seed=args.fault_seed,
                             jobs=args.jobs,
                             telemetry=args.telemetry,
                             metrics_out=args.metrics_out,
                             timeseries_out=args.timeseries_out,
                             console=args.console,
                             console_json=args.console_json,
                             profile=args.profile is not None)
        if args.command == "list":
            return _cmd_list()
        if args.command == "experiment":
            return _cmd_experiment(args.names, jobs=args.jobs,
                                   metrics_out=args.metrics_out)
        if args.command == "soak":
            return _cmd_soak(args.minutes, args.machines, args.seed,
                             args.fault_seed, args.kill_every, args.outage,
                             store=args.store,
                             report_json=args.report_json,
                             timeseries_out=args.timeseries_out,
                             metrics_out=args.metrics_out)
        raise AssertionError(f"unhandled command {args.command!r}")

    if args.profile is None:
        return run()
    from repro.perf.profiling import profile_call

    status, stats = profile_call(run, stats_path=args.profile or None)
    print()
    print(stats.rstrip())
    if args.profile:
        print(f"raw profile data written to {args.profile} "
              f"(inspect with 'python -m pstats')")
    return status
