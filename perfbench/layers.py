"""The traced run: span tracer, the layer table, and per-layer metrics.

The tracer wraps public functions of the program at class or module level
for the duration of one traced episode, then puts every original back and
checks that it did, so untraced episodes execute unmodified code.  Nothing
under ``src/`` knows it is being traced.

Each span records (id, name, start, end, parent id).  A span's self time is
its duration minus the durations of its direct children, so summing self
time over all spans never counts an interval twice; whatever the spans do
not cover is reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: (module, owner attribute or None for a module function, function name,
#:  span name, count key or None).  A count key takes ``count(result, args)``
#:  from COUNTERS and adds it to the named count on every call.
WRAPS: tuple[tuple[str, Optional[str], str, str, Optional[str]], ...] = (
    ("repro.cluster.fused", "FusedFleet", "step", "cluster.fused.step", None),
    ("repro.cluster.fused", "FusedFleet", "build", "cluster.fused.build",
     None),
    ("repro.cluster.demandplane", "DemandColumns", "compile",
     "cluster.demandplane.compile", None),
    ("repro.cluster.demandplane", "DemandColumns", "allowed_and_capped",
     "cluster.demandplane.allowed_and_capped", None),
    ("repro.cluster.demandplane", "DemandColumns", "charge_tick",
     "cluster.demandplane.charge", None),
    ("repro.cluster.demandplane", "DemandColumns", "flush_charges",
     "cluster.demandplane.charge", None),
    ("repro.cluster.machine", "Machine", "tick", "cluster.machine.tick", None),
    ("repro.cluster.scheduler", "ClusterScheduler", "reschedule_pending",
     "cluster.scheduler.reschedule_pending", None),
    ("repro.perf.sampler", "CpiSampler", "tick", "perf.sampler.tick",
     "perf.sampler.samples"),
    ("repro.core.aggregator", "CpiAggregator", "ingest_batch",
     "core.aggregator.ingest_batch", "core.aggregator.ingest_batch.samples"),
    ("repro.core.aggregator", "CpiAggregator", "maybe_recompute",
     "core.aggregator.maybe_recompute", None),
    ("repro.core.specstore", "AggregatorHost", "pump",
     "core.specstore.host_pump", None),
    ("repro.core.specstore", "DurableSpecStore", "recover",
     "core.specstore.recover", None),
    ("repro.core.agent", "MachineAgent", "ingest_samples",
     "core.agent.ingest_samples", None),
    ("repro.core.agent", "MachineAgent", "tick", "core.agent.tick", None),
    # rank_cotenant_suspects is imported by name into its callers, so each
    # namespace that calls it gets its own wrapper.
    ("repro.core.identify", None, "rank_cotenant_suspects",
     "core.identify.rank_cotenant_suspects", None),
    ("repro.core.agent", None, "rank_cotenant_suspects",
     "core.identify.rank_cotenant_suspects", None),
    ("repro.experiments.trials", None, "rank_cotenant_suspects",
     "core.identify.rank_cotenant_suspects", None),
    ("repro.faults.plane", "FaultPlane", "pump", "faults.plane.pump", None),
    ("repro.faults.plane", "FaultPlane", "upload", "faults.plane.upload",
     None),
    ("repro.obs.timeseries", "TimeSeriesDB", "scrape_registry",
     "obs.timeseries.scrape_registry", None),
    ("repro.obs.alerts", "AlertEngine", "evaluate", "obs.alerts.evaluate",
     None),
    ("repro.experiments.trials", None, "run_trial",
     "experiments.trials.run_trial", None),
)

COUNTERS: dict[str, Callable] = {
    "perf.sampler.samples": lambda result, args: len(result),
    "core.aggregator.ingest_batch.samples": lambda result, args: len(args[1]),
}

#: Shard stages reported from ``run_sharded``'s own ``timers=`` argument.
SHARD_STAGES = ("coordinator_build", "coordinator_spawn", "coordinator_wait",
                "coordinator_ingest", "coordinator_merge", "worker_build",
                "worker_compute", "worker_barrier_wait")

#: Spans the benchmark opens itself around the calls it makes.
HARNESS_SPANS = ("experiments.scenarios.build", "cluster.simulation.step",
                 "cluster.shards.pool_shutdown")

#: Every span name the traced run can produce.
SPAN_NAMES = tuple(dict.fromkeys(
    [entry[3] for entry in WRAPS] + list(HARNESS_SPANS)))

#: Which end-to-end metric, on which workload, each layer should move.
#: Layers absent here are reported for attribution only.
SHOULD_MOVE = {
    "cluster.fused.step": "task_ticks_per_s and tick_ms_p50 on "
                          "incident_chaos; cluster.shards.worker_compute_s "
                          "on fleet_sharded",
    # Built lazily in the first step(), which set-up includes.
    "cluster.fused.build": "setup_s on incident_chaos; "
                           "cluster.shards.worker_build_s on fleet_sharded",
    "cluster.demandplane.compile": "setup_s on incident_chaos; "
                                   "cluster.shards.worker_build_s on "
                                   "fleet_sharded",
    "cluster.demandplane.allowed_and_capped":
        "task_ticks_per_s on incident_chaos; "
        "cluster.shards.worker_compute_s on fleet_sharded",
    "cluster.demandplane.charge": "task_ticks_per_s on incident_chaos; "
                                  "cluster.shards.worker_compute_s on "
                                  "fleet_sharded",
    "cluster.machine.tick": "task_ticks_per_s and trial_ms_p50 on "
                            "section7_trials",
    "perf.sampler": "tick_ms_p99 on incident_chaos; "
                    "cluster.shards.worker_compute_s on fleet_sharded",
    "core.aggregator": "cluster.shards.coordinator_ingest_s and wall_s on "
                       "fleet_sharded",
    "core.specstore": "tick_ms_p99 on incident_chaos",
    "core.agent": "tick_ms_p99 on incident_chaos",
    "core.outlier": "tick_ms_p99 on incident_chaos",
    "core.identify": "tick_ms_p99 on incident_chaos",
    "faults.plane": "task_ticks_per_s and tick_ms_p50 on incident_chaos",
    "obs": "tick_ms_p99 on incident_chaos",
    "cluster.shards": "setup_s and wall_s on fleet_sharded",
    "experiments.trials.run_trial": "trial_ms_p50 on section7_trials",
}


def should_move(metric: str) -> str:
    """The SHOULD_MOVE entry for ``metric``'s longest matching prefix."""
    best = ""
    for prefix in SHOULD_MOVE:
        if metric.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return SHOULD_MOVE.get(best, "")


class Tracer:
    """Nested wall-clock spans with self-time accounting, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Open frames: [span id, name, start, seconds spent in children].
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        span_id, name, start, children = frame
        duration = end - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent is not None else -1))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark around one of its own calls."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ----------------------------------------------------------

    def _traced(self, fn: Callable, name: str,
                count_key: Optional[str]) -> Callable:
        enter, exit_ = self._enter, self._exit
        counts = self.counts
        count = COUNTERS[count_key] if count_key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if count is not None:
                counts[count_key] += count(result, args)
            return result
        return traced

    def install(self) -> None:
        """Wrap every WRAPS entry in place."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, name, count_key in WRAPS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._traced(raw.__func__, name,
                                                   count_key))
            else:
                patched = self._traced(raw, name, count_key)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw, patched))

    def restore(self) -> None:
        """Put every original back, newest patch first, and check it."""
        patches, self._patches = self._patches, []
        for owner, attr, raw, patched in reversed(patches):
            if vars(owner)[attr] is not patched:
                raise RuntimeError(f"{owner!r}.{attr} was re-patched "
                                   "while traced")
            setattr(owner, attr, raw)
        for owner, attr, raw, _patched in patches:
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"{owner!r}.{attr} not restored")

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, parent, name, start, end."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart\tend\n")
            for span_id, name, start, end, parent in self.spans:
                handle.write(f"{span_id}\t{parent}\t{name}\t"
                             f"{start:.9f}\t{end:.9f}\n")

