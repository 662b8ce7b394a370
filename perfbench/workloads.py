"""The three benchmark workloads and their output checks.

Every workload is a sequence of identical *episodes* built from the run's
seed.  An episode sets the scenario up, runs it, and returns what it took
and what it produced; the runner in ``run.py`` repeats episodes until the
run's time is spent and reports medians.  Each episode's outputs are
checked as it finishes, and any failed check fails every operation of
the run.

Why these three (each stresses layers the others bypass):

* ``fleet_sharded``: the headline 50 x 500 fleet through ``run_sharded``
  on a fresh ``ShardPool`` per episode, which is what a ``--jobs 2``
  invocation pays: worker start, fused physics, demand and sampler window
  close in the workers, shared-memory transport, the window barrier and
  the coordinator's replay into the columnar aggregator.  With a 24 h
  spec refresh no agent has a spec, so detection, identification, the
  fault plane and the WAL are bypassed.
* ``incident_chaos``: eight machines with warmed specs, telemetry on, the
  ``moderate`` fault profile plus a scheduled aggregator kill.  Incidents
  fire, so detection, identification and throttling run; uploads ride the
  fault plane, and the aggregator goes through its WAL, recovery, and
  refused or duplicate batches.
* ``section7_trials``: the Section 7 manual-capping corpus behind Figures
  14-16.  Only here does the per-machine ``Machine.tick`` run, with opaque
  closure demand; no cluster simulation, fused fleet or pipeline runs.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.cluster.shards import ShardPool, run_sharded
from repro.experiments.analyses import detection_rates
from repro.experiments.chaos import ANTAGONIST_JOBS, chaos_scenario
from repro.experiments.scenarios import scale_scenario
from repro.experiments.trials import TrialConfig, run_trials
from repro.faults.profile import FAULT_PROFILES
from repro.faults.retry import AggregatorEndpoint
from repro.obs import Observability, set_default_observability
from repro.perf.profiling import StageTimers

from layers import Tracer

clock = time.perf_counter

FLEET_MACHINES = 50
FLEET_TASKS = 500
FLEET_SECONDS = 600
SHARD_JOBS = 2

CHAOS_MACHINES = 8
CHAOS_SECONDS = 3600
#: The scheduled aggregator kill: mid-hour, down for two sampling periods.
CHAOS_KILL_TICK = 1500
CHAOS_OUTAGE_SECONDS = 120

#: Trials per episode.  A run makes at least three episodes, so at least
#: 120 trials, 12 beyond the p90 it reports.
TRIALS_PER_CORPUS = 40
_TRIAL = TrialConfig()
TRIAL_SECONDS = (_TRIAL.calibration_seconds + _TRIAL.interference_seconds
                 + _TRIAL.cap_seconds)
#: The Section 7 correlation threshold; Figure 15's TP rate is read there.
FIG15_THRESHOLD = 0.35


@dataclass
class Episode:
    """What one episode took and what it produced."""

    #: Seconds to build the scenario (None: the workload has no per-episode
    #: build, and the runner uses the program's import time instead).  A
    #: simulation builds its task tables and fused fleet lazily inside its
    #: first ``step()``, so set-up ends when that first tick returns.
    setup_s: Optional[float]
    #: Seconds from the end of set-up to the end of the run.
    run_s: float
    #: Seconds from the start of set-up to the end of the episode.
    wall_s: float
    #: Simulated task-seconds executed after set-up.
    task_ticks: float
    #: Wall seconds of each operation: a tick, a window barrier or a trial.
    ops_s: list[float]
    #: Failed output checks; empty when the episode is correct.
    failures: list[str] = field(default_factory=list)
    #: Fault-injected failures and their denominator (error_rate).
    faulted: int = 0
    fault_attempts: int = 0
    #: Values reported for information only (accuracy figures, counts).
    info: dict = field(default_factory=dict)
    #: Raw counts read from the program for the per-layer ratios.
    program: dict = field(default_factory=dict)
    #: ``run_sharded`` stage seconds (fleet_sharded only).
    shard_stages: dict = field(default_factory=dict)


def _fresh_default_obs() -> None:
    """Each episode starts with a fresh process-default registry, as a
    fresh CLI process does."""
    set_default_observability(Observability())


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _drive(sim, ticks: int, tracer: Optional[Tracer]) -> list[float]:
    """Step ``sim`` ``ticks`` times through the public ``step()``, timing
    each call."""
    step = sim.step
    ops: list[float] = []
    append = ops.append
    if tracer is None:
        for _ in range(ticks):
            start = clock()
            step()
            append(clock() - start)
    else:
        span = tracer.span
        for _ in range(ticks):
            start = clock()
            with span("cluster.simulation.step"):
                step()
            append(clock() - start)
    return ops


def _pipeline_counts(obs, incidents) -> dict:
    total = obs.metrics.total
    return {
        "discarded": total("sampler_windows_discarded"),
        "wal_appends": total("wal_records_appended"),
        "detector_seen": total("detector_samples_seen"),
        "detector_flagged": total("detector_outliers_flagged"),
        "retries": total("upload_retries"),
        "incidents": len(incidents),
        "identified": sum(1 for i in incidents
                          if i.decision.target is not None),
    }


# -- fleet_sharded -----------------------------------------------------------

class BarrierTimers(StageTimers):
    """``run_sharded``'s stage timers, also timestamping the end of worker
    start-up and of every window barrier's replay."""

    def __init__(self) -> None:
        super().__init__()
        self.marks: list[float] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        with super().stage(name):
            yield
        if name in ("coordinator_spawn", "coordinator_ingest"):
            self.marks.append(clock())


def _fleet_signature(samples: int, incidents, aggregator) -> tuple:
    return (samples,
            [(i.incident_id, i.machine, i.time_seconds, i.victim_taskname,
              i.decision.action.value,
              i.decision.target.name if i.decision.target else None)
             for i in incidents],
            aggregator.export_state())


def shard_jobs() -> int:
    return min(SHARD_JOBS, os.cpu_count() or 1)


def fleet_sharded(seed: int, tracer: Optional[Tracer], context) -> Episode:
    _fresh_default_obs()
    timers = BarrierTimers()
    pool = ShardPool()
    start = clock()
    try:
        result = run_sharded(scale_scenario,
                             dict(num_machines=FLEET_MACHINES, seed=seed),
                             seconds=FLEET_SECONDS, jobs=shard_jobs(),
                             timers=timers, pool=pool)
        ran = clock()
    finally:
        with _span(tracer, "cluster.shards.pool_shutdown"):
            pool.shutdown()
    end = clock()
    setup = (timers.seconds("coordinator_build")
             + timers.seconds("coordinator_spawn"))
    marks = timers.marks
    ops = [b - a for a, b in zip(marks, marks[1:])]
    # Compared with the in-process run once the run's timing is over.
    context.setdefault("signatures", []).append(_fleet_signature(
        result.total_samples, result.all_incidents(),
        result.pipeline.aggregator))
    return Episode(setup_s=setup, run_s=(ran - start) - setup,
                   wall_s=end - start,
                   task_ticks=FLEET_TASKS * FLEET_SECONDS, ops_s=ops,
                   program=_pipeline_counts(result.obs,
                                            result.all_incidents()),
                   shard_stages={stage: entry["seconds"] for stage, entry
                                 in timers.report().items()})


def check_sharded(seed: int, context) -> list[str]:
    """The in-process run must sample every task once a simulated minute,
    and every sharded episode must match it exactly."""
    _fresh_default_obs()
    scenario = scale_scenario(num_machines=FLEET_MACHINES, seed=seed)
    scenario.simulation.run(FLEET_SECONDS)
    pipeline = scenario.pipeline
    reference = _fleet_signature(pipeline.total_samples,
                                 pipeline.all_incidents(),
                                 pipeline.aggregator)
    failures = []
    expected = FLEET_TASKS * FLEET_SECONDS // 60
    if pipeline.total_samples != expected:
        failures.append(f"samples {pipeline.total_samples} != tasks x "
                        f"minutes {expected}")
    for index, signature in enumerate(context.get("signatures", [])):
        for part, got, want in zip(("samples", "incidents",
                                    "aggregator state"),
                                   signature, reference):
            if got != want:
                failures.append(f"episode {index}: {part} differ from the "
                                "in-process run")
    return failures


# -- incident_chaos ----------------------------------------------------------

def chaos_profile():
    return FAULT_PROFILES["moderate"].with_overrides(
        aggregator_kill_ticks=(CHAOS_KILL_TICK,),
        aggregator_outage_seconds=CHAOS_OUTAGE_SECONDS)


def incident_chaos(seed: int, tracer: Optional[Tracer], _context) -> Episode:
    start = clock()
    with _span(tracer, "experiments.scenarios.build"):
        scenario = chaos_scenario(seed=seed, num_machines=CHAOS_MACHINES,
                                  fault_profile=chaos_profile(),
                                  fault_seed=seed, telemetry=True)
    # Window sizes in upload order: upload k of machine m is batch "m/k".
    windows: dict[str, list[int]] = {}
    scenario.simulation.add_sample_sink(
        lambda _t, name, samples: windows.setdefault(name, []).append(
            len(samples)))
    _drive(scenario.simulation, 1, tracer)
    built = clock()
    ops = _drive(scenario.simulation, CHAOS_SECONDS - 1, tracer)
    end = clock()

    pipeline = scenario.pipeline
    failures = _chaos_ledger(pipeline, windows)
    incidents = pipeline.all_incidents()
    identified = [i for i in incidents if i.decision.target is not None]
    if not identified:
        failures.append("no antagonist identified")
    true_hits = sum(1 for i in identified
                    if i.decision.target.job.name in ANTAGONIST_JOBS)
    clients = [port.client for port in pipeline.faults.ports.values()]
    uploads = sum(len(sizes) for sizes in windows.values())
    lost = sum(c.batches_abandoned + c.batches_overflowed for c in clients)
    program = _pipeline_counts(pipeline.obs, incidents)
    program["batches_sent"] = sum(c.batches_sent for c in clients)
    program["batches_acked"] = sum(c.batches_acked for c in clients)
    return Episode(
        setup_s=built - start, run_s=end - built, wall_s=end - start,
        task_ticks=(CHAOS_SECONDS - 1) * sum(
            m.num_tasks for m in scenario.simulation.machines.values()),
        ops_s=ops, failures=failures, faulted=lost, fault_attempts=uploads,
        info={"incidents_per_hour": len(incidents) * 3600 / CHAOS_SECONDS,
              "precision": (true_hits / len(identified)
                            if identified else 1.0),
              "aggregator_crashes": pipeline.host.crashes},
        program=program)


def _chaos_ledger(pipeline, windows: dict[str, list[int]]) -> list[str]:
    """Every sample produced is ingested, quarantined, or in a batch that
    was abandoned, overflowed or is still in flight; none is counted
    twice."""
    failures = []
    produced = sum(sum(sizes) for sizes in windows.values())
    if produced != pipeline.total_samples:
        failures.append(f"sink saw {produced} samples, pipeline "
                        f"{pipeline.total_samples}")
    faults = pipeline.faults
    accepted = set(faults.endpoint.export_dedup_state()["seen"])
    if len(accepted) >= AggregatorEndpoint.DEDUP_WINDOW:
        failures.append("dedup window overflowed; ledger cannot be checked")
    unaccepted = [size for name, sizes in windows.items()
                  for k, size in enumerate(sizes)
                  if f"{name}/{k}" not in accepted]
    clients = [port.client for port in faults.ports.values()]
    accounted = sum(c.batches_abandoned + c.batches_overflowed
                    + c.pending_batches for c in clients)
    if len(unaccepted) > accounted:
        failures.append(f"{len(unaccepted)} batches never accepted, only "
                        f"{accounted} abandoned, overflowed or in flight")
    aggregator = pipeline.aggregator
    landed = (aggregator.total_samples_ingested
              + aggregator.total_samples_rejected)
    unlanded = sum(unaccepted)
    if produced != landed + unlanded:
        failures.append(
            f"ledger: produced {produced} != ingested "
            f"{aggregator.total_samples_ingested} + quarantined "
            f"{aggregator.total_samples_rejected} + lost or in flight "
            f"{unlanded}")
    return failures


# -- section7_trials ---------------------------------------------------------

def section7_trials(seed: int, tracer: Optional[Tracer],
                    _context) -> Episode:
    _fresh_default_obs()
    ops: list[float] = []
    results = []
    failures = []
    start = clock()
    for i in range(TRIALS_PER_CORPUS):
        began = clock()
        # One trial per call: run_trials(N, jobs=1) runs exactly these.
        [result] = run_trials(1, jobs=1, seed_base=seed + i)
        ops.append(clock() - began)
        results.append(result)
        if not (math.isfinite(result.pre_cpi)
                and math.isfinite(result.post_cpi)):
            failures.append(f"trial {seed + i}: pre/post CPI "
                            f"{result.pre_cpi}/{result.post_cpi}")
    end = clock()
    declared = sum(1 for r in results if r.anomaly_detected)
    return Episode(
        setup_s=None, run_s=end - start, wall_s=end - start,
        task_ticks=TRIAL_SECONDS * sum(r.num_tenants for r in results),
        ops_s=ops, failures=failures,
        info={"fig15_tp_rate": detection_rates(
                  results, FIG15_THRESHOLD).true_positive_rate,
              "anomalies_detected": declared},
        program={"incidents": len(results),
                 "identified": sum(1 for r in results
                                   if r.top_suspect is not None)})


@dataclass(frozen=True)
class Workload:
    name: str
    episode: Callable[[int, Optional[Tracer], dict], Episode]
    #: What one operation is: "tick", "window barrier" or "trial".
    op: str
    #: Run after the timed episodes; returns failed checks.
    final_check: Optional[Callable[[int, dict], list[str]]] = None


WORKLOADS = {w.name: w for w in (
    Workload("fleet_sharded", fleet_sharded, "window barrier",
             final_check=check_sharded),
    Workload("incident_chaos", incident_chaos, "tick"),
    Workload("section7_trials", section7_trials, "trial"),
)}
