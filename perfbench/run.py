"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload incident_chaos --seed 1 --seconds 38 \\
        --trace 0

The run repeats the workload's episode (see ``workloads.py``) until
``--seconds`` are spent, checks every episode's outputs, and prints the
metrics named in ``BENCHMARK.json``: its ``end_to_end`` list with
``--trace 0`` and its ``per_layer`` list with ``--trace 1``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, each
starting with ``#``, give the same figures for a reader plus the
environment fingerprint.  The full result, with the ``EXTRA_METRICS``
below and the information-only accuracy figures, is written as JSON under
``--out``; ``suite.py`` reads those files.

A ``--trace 1`` run alternates untraced and traced episodes: per-layer
times come from the traced ones (see ``layers.py``), ``trace.overhead_s``
is the traced minus the untraced episode wall, and the spans are written
next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"

#: End-to-end metrics kept out of BENCHMARK.json, whose metrics every
#: workload must report, none reading 0, each within its bound from run to
#: run: the per-operation latencies, each on the workloads it applies to
#: (the ten-run spread reached 0.24 for the tick median and 0.34 for the
#: barrier p90 as the host's speed drifted), and the error rate, 0 on the
#: clean workloads.  They are written to the result file and compared by
#: suite.py under these bounds.  name: (unit, better, bound)
EXTRA_METRICS = {
    "tick_ms_p50": ("ms", "lower", 0.25),
    "tick_ms_p99": ("ms", "lower", 0.25),
    "barrier_ms_p50": ("ms", "lower", 0.25),
    "barrier_ms_p90": ("ms", "lower", 0.25),
    "trial_ms_p50": ("ms", "lower", 0.25),
    "trial_ms_p90": ("ms", "lower", 0.25),
    "error_rate": ("ratio", "lower", 0.0),
}

#: Fewest episodes a run makes, however long they take.
MIN_EPISODES = 3

#: Operation kind -> (metric prefix, tail percentile).
OP_PERCENTILES = {"tick": ("tick", 99), "window barrier": ("barrier", 90),
                  "trial": ("trial", 90)}

#: String hashing is seeded per process unless this is set, and the seed
#: moves dict and set layouts enough to shift timings from run to run; every
#: run uses the same one.
HASH_SEED = "0"

#: Fresh interpreters timed importing the trial code (``import_seconds``),
#: run with the source directory as their argument.
IMPORT_PROBES = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "started = time.perf_counter(); "
                "import repro.experiments.trials; "
                "print(time.perf_counter() - started)")

#: Reserved for verifying a claimed gain; never used while tuning.
HELD_OUT_SEED = 9001


def quantile(values: list[float], percent: int) -> float:
    """The ``percent``-th percentile (inclusive method); a lone value is
    its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def environment() -> dict:
    """Everything about the host that a result depends on."""
    import numpy

    env = {"nproc": os.cpu_count(),
           "python": platform.python_version(),
           "numpy": numpy.__version__,
           "machine": platform.machine()}
    env.update({key: value for key, value in sorted(os.environ.items())
                if key == "REPRO_SHM_RING_BYTES"
                or (key.startswith("REPRO_") and key.endswith("_ENGINE"))})
    return env


def _peak_rss_mib(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        # The largest worker's peak: workers are waited for at shutdown.
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _episode(workload, seed: int, tracer, context):
    """One episode; an exception fails it instead of ending the run."""
    try:
        return workload.episode(seed, tracer, context), None
    except Exception:  # noqa: BLE001 - reported as a failed episode
        return None, traceback.format_exc()


def import_seconds() -> float:
    """Median time, over IMPORT_PROBES fresh interpreters, to import the
    trial code: the set-up a workload without a per-episode build pays."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SOURCE)],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": HASH_SEED})
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat episodes for ``seconds``; return metrics, counts and notes."""
    from layers import Tracer

    tracer = Tracer() if trace else None
    untraced, traced, errors = [], [], []
    context: dict = {}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        episode, error = _episode(workload, seed, None, context)
        if episode is None:
            errors.append(error)
        else:
            untraced.append(episode)
        if trace and episode is not None:
            with tracer.installed():
                episode, error = _episode(workload, seed, tracer, context)
            if episode is None:
                errors.append(error)
            else:
                traced.append(episode)
        now = time.perf_counter()
        done = len(untraced) + len(errors)
        if errors or (done >= MIN_EPISODES
                      and now - start + (now - began) > seconds):
            break
    peak_rss = _peak_rss_mib(with_children=workload.name == "fleet_sharded")
    episodes = untraced + traced
    failures = [f for e in episodes for f in e.failures] + errors
    if workload.final_check is not None and not errors:
        failures += workload.final_check(seed, context)
    # A failed check fails every operation of its run.
    attempted = max(1, sum(len(e.ops_s) for e in episodes))
    failed = attempted if failures else 0
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "failures": failures[:20],
              "episodes": len(untraced), "traced_episodes": len(traced),
              "tracer": tracer}
    if not untraced:
        return result
    # A workload without a per-episode build pays only the import up front;
    # it is timed after the episodes so that it cannot disturb them.
    import_s = (import_seconds()
                if any(e.setup_s is None for e in untraced) else None)
    setups = [import_s if e.setup_s is None else e.setup_s for e in untraced]
    walls = [e.wall_s + (import_s if e.setup_s is None else 0.0)
             for e in untraced]
    ops_ms = [s * 1e3 for e in untraced for s in e.ops_s]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "task_ticks_per_s": statistics.median(e.task_ticks / e.run_s
                                              for e in untraced),
        "peak_rss_mib": peak_rss,
    }
    faulted = sum(e.faulted for e in episodes)
    fault_attempts = sum(e.fault_attempts for e in episodes)
    # Fault-injected losses over their attempts (upload batches on
    # incident_chaos); a failed check makes every operation a failure.
    extra = {"error_rate": 1.0 if failures else
             faulted / fault_attempts if fault_attempts else 0.0}
    prefix, tail = OP_PERCENTILES[workload.op]
    extra[f"{prefix}_ms_p50"] = quantile(ops_ms, 50)
    extra[f"{prefix}_ms_p{tail}"] = quantile(ops_ms, tail)
    result.update(metrics=metrics, extra=extra, op=workload.op,
                  op_samples=len(ops_ms), import_s=import_s,
                  info=_mean_info(untraced))
    if trace and traced:
        result["layers"] = layer_metrics(tracer, untraced, traced)
    return result


def _mean_info(episodes) -> dict:
    keys = episodes[0].info
    return {key: statistics.fmean(e.info[key] for e in episodes)
            for key in keys}


def layer_metrics(tracer, untraced, traced) -> dict:
    """Per-layer figures, each a mean per traced episode; BENCHMARK.json's
    ``per_layer`` list picks the ones reported."""
    from layers import COUNTERS, SHARD_STAGES, SPAN_NAMES

    unknown = set(tracer.self_s) - set(SPAN_NAMES)
    if unknown:
        raise RuntimeError(f"spans missing from the layer table: {unknown}")
    n = len(traced)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / n
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0) / n

    def total(key):
        return sum(e.program.get(key, 0) for e in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    samples = tracer.counts.get("perf.sampler.samples", 0)
    out["perf.sampler.discard_ratio"] = ratio(
        total("discarded"), total("discarded") + samples)
    out["core.specstore.wal_appends"] = total("wal_appends") / n
    out["core.outlier.outlier_ratio"] = ratio(total("detector_flagged"),
                                              total("detector_seen"))
    out["core.identify.identified_ratio"] = ratio(total("identified"),
                                                  total("incidents"))
    out["faults.plane.acked_ratio"] = ratio(total("batches_acked"),
                                            total("batches_sent"))
    out["faults.plane.retries"] = total("retries") / n
    # Shard stage timers are the program's own; the untraced episodes give
    # them without tracing overhead inside the workers.
    for stage in SHARD_STAGES:
        out[f"cluster.shards.{stage}_s"] = statistics.fmean(
            e.shard_stages.get(stage, 0.0) for e in untraced)
    wall = statistics.fmean(e.wall_s for e in traced)
    attributed = sum(out[f"{name}.self_s"] for name in SPAN_NAMES)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    out["trace.attributed_share"] = attributed / wall
    out["trace.overhead_s"] = wall - statistics.fmean(
        e.wall_s for e in untraced)
    return out


def _child_pids() -> list[int]:
    """Pids of this process's children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # After the parenthesised command name: state, then parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``ShardPool.shutdown`` joins the shard workers, but the first
    shared-memory segment also starts multiprocessing's resource tracker,
    a helper process left to exit on its own after the interpreter does.
    Stop any worker still running, unlink the remaining segments
    (unlinking talks to the tracker and would start it again), then stop
    the tracker and wait for it.  A child still running after ``timeout``
    seconds is killed and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    shm = sys.modules.get("repro.cluster.shm")
    if shm is not None:
        shm.sweep_segments()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0 and time.monotonic() > deadline:
            break
        if pid == 0:
            time.sleep(0.01)
    for pid in _child_pids():
        print(f"perfbench: killing leftover child {pid}", file=sys.stderr)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="perfbench/out",
                        help="directory for the result and span files")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replaces this process (same pid); no child is started.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    try:
        line = run(args)
    finally:
        stop_children()
    # Printed only once every process the run started has ended.
    print(json.dumps(line))


def run(args) -> dict:
    """Measure one workload; return the result line."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SOURCE}/repro; run from the root of "
              "a checkout")
    if not BENCHMARK_JSON.is_file():
        _fail(f"{BENCHMARK_JSON} not found")
    spec = json.loads(BENCHMARK_JSON.read_text())
    sys.path.insert(0, str(SOURCE))
    import repro
    import workloads
    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not {SOURCE}")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}

    if args.workload == "fleet_sharded" and workloads.shard_jobs() < 2:
        record["skipped"] = (f"{env['nproc']} core(s): two shard workers "
                             "would measure contention, not sharding")
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
        _fail(f"fleet_sharded skipped: {record['skipped']}")

    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write_spans(str(out_dir / f"{stem}.spans.tsv"))
    record.update(result)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = result.get("layers" if args.trace else "metrics")
    metrics = {}
    for entry in wanted:
        if entry["name"] not in (values or {}):
            record["failures"].append(f"metric {entry['name']} not measured")
            continue
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    if record["failures"]:
        record["correct"] = False
        record["failed"] = record["attempted"]
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} episodes={record['episodes']}"
          f" traced={record['traced_episodes']} op={workload.op}"
          f" op_samples={record.get('op_samples', 0)}")
    for name, metric in metrics.items():
        print(f"#   {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        for name, value in record.get("extra", {}).items():
            print(f"#   {name:<44} {value:>14.6g} {EXTRA_METRICS[name][0]}")
    for name, value in record.get("info", {}).items():
        print(f"#   info {name:<39} {value:>14.6g}")
    for failure in record.get("failures", []):
        print(f"# FAILED {failure.splitlines()[-1]}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


if __name__ == "__main__":
    main()
