"""Parity matrix: the columnar fused fleet tick vs per-machine ticking.

Every scenario runs twice — once through :class:`FusedFleet` and once with
``FusedFleet.build`` patched to return ``None`` (so each machine steps
through :meth:`Machine.tick`) — and compares, tick by tick and by
``float.hex()``: grants and CPIs, departures, the counter matrices, cgroup
usage, workload granted/capped seconds, and each machine's running CPU
total and context switches.

The scenarios target the columnar step's edge cases: hard caps, a duty
cycle that expires mid-run, a latency-sensitive tier oversubscribed on some
machines only, an empty machine, a single-machine fleet with more than 8
tasks (where a pairwise numpy sum would round differently), a resource
profile that changes mid-run, workloads that depart through ``on_tick``,
and closure-only demand (no fleet-wide demand program).  Machines pick
their demand engine from ``REPRO_DEMAND_ENGINE``, so the scalar-engine CI
leg runs the whole matrix without any demand program at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import get_platform
from repro.cluster.fused import FusedFleet
from repro.cluster.job import Job, JobSpec
from repro.cluster.machine import Machine
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.testing import (NOISY_NEIGHBOR_PROFILE, SENSITIVE_PROFILE,
                           ScriptedWorkload)
from repro.cluster.interference import ResourceProfile
from repro.workloads import SyntheticWorkload
from repro.workloads.batch import MapReduceWorker
from repro.workloads.demand import constant, on_off, ramp, with_noise

LS = SchedulingClass.LATENCY_SENSITIVE
BATCH = SchedulingClass.BATCH
BEST_EFFORT = SchedulingClass.BEST_EFFORT

#: 24 cores, 12 MiB LLC.
PLATFORM = get_platform("westmere-2.6")

COLD_PROFILE = ResourceProfile(
    cache_mib_per_cpu=0.7, membw_gbps_per_cpu=0.4, cache_sensitivity=0.9,
    membw_sensitivity=0.6, base_l3_mpki=1.5, cold_start_penalty=0.4)


def _hex(x) -> str:
    return float(x).hex()


def _machine(name: str, sigma: float = 0.03) -> Machine:
    return Machine(name, PLATFORM, cpi_noise_sigma=sigma,
                   tick_engine="vector")


def _noisy(level: float, seed: tuple, sigma: float = 0.1):
    return with_noise(constant(level), sigma,
                      np.random.default_rng(np.random.SeedSequence(seed)))


def _place(machine: Machine, job: str, count: int, make_workload,
           scheduling_class=BATCH, limit: float = 2.0) -> list:
    spec = JobSpec(name=job, num_tasks=count,
                   scheduling_class=scheduling_class,
                   priority_band=PriorityBand.NONPRODUCTION,
                   cpu_limit_per_task=limit, workload_factory=make_workload)
    tasks = Job(spec).tasks
    for task in tasks:
        machine.place(task)
    return tasks


def _synthetic(level: float, job_seed: int, profile=SENSITIVE_PROFILE,
               **kwargs):
    def make(i):
        return SyntheticWorkload(
            base_cpi=1.0 + 0.013 * i, profile=profile,
            demand=_noisy(level + 0.07 * i, (job_seed, i)), **kwargs)
    return make


def _simulation(machines, seed: int = 3) -> ClusterSimulation:
    return ClusterSimulation(machines, SimConfig(seed=seed))


# -- scenarios: each returns (simulation, tasks, before_step) -----------------


def caps_and_oversubscription():
    """m0 oversubscribes its LS tier (partial scale, batch starved), m1
    grants every tier in full, m2 scales its batch tier pro-rata, m3 runs
    cold-start best-effort tasks only, m4 is empty; caps land on m0 and m1
    at t=5 and expire at t=25."""
    m0, m1, m2, m3, m4 = (_machine(f"m{i}") for i in range(5))
    tasks = []
    tasks += _place(m0, "ls0", 14, _synthetic(2.0, 1), LS, limit=3.0)
    tasks += _place(m0, "batch0", 3, _synthetic(1.0, 2))
    tasks += _place(m1, "ls1", 4, _synthetic(1.5, 3), LS)
    tasks += _place(m1, "batch1", 6, _synthetic(1.3, 4))
    tasks += _place(m1, "be1", 4, _synthetic(0.5, 5), BEST_EFFORT)
    tasks += _place(m2, "ls2", 6, _synthetic(2.5, 6), LS, limit=3.0)
    tasks += _place(m2, "batch2", 8, _synthetic(1.5, 7, NOISY_NEIGHBOR_PROFILE))
    tasks += _place(m2, "be2", 2, _synthetic(0.5, 8), BEST_EFFORT)
    tasks += _place(m3, "be3", 5, _synthetic(0.05, 9, COLD_PROFILE),
                    BEST_EFFORT)
    capped = [tasks[0], tasks[17], tasks[18]]

    def before(t, sim):
        if t == 5:
            for task in capped:
                task.cgroup.apply_cap(0.3, now=t, duration=20)

    return _simulation([m0, m1, m2, m3, m4]), tasks, before


def expiring_duty_cycle():
    """A duty cycle on m1 from t=3 that expires at t=13, and one on m2
    cleared early at t=8."""
    machines = [_machine(f"m{i}") for i in range(3)]
    tasks = []
    for j, m in enumerate(machines):
        tasks += _place(m, f"ls{j}", 3, _synthetic(1.2, 10 + j), LS)
        tasks += _place(m, f"batch{j}", 4, _synthetic(0.9, 20 + j))

    def before(t, sim):
        if t == 3:
            machines[1].apply_duty_cycle("ls1/0", level=0.5, core_share=0.5,
                                         now=t, duration=10)
            machines[2].apply_duty_cycle("batch2/1", level=0.25,
                                         core_share=1.0, now=t, duration=50)
        if t == 8:
            machines[2].clear_duty_cycle()

    return _simulation(machines), tasks, before


def single_machine_many_tasks():
    """One machine with 13 LS tasks at uneven demand levels, then a batch
    tier scaled by what the LS tier left: a pairwise sum over the lone
    (k, 1) column would round the LS total, and so the batch grants,
    differently."""
    m = _machine("solo")
    tasks = _place(m, "ls", 13, _synthetic(0.33, 30), LS, limit=1.7)
    tasks += _place(m, "batch", 9, _synthetic(1.9, 31,
                                              NOISY_NEIGHBOR_PROFILE))
    return _simulation([m]), tasks, None


class _SwitchingProfile(SyntheticWorkload):
    """A workload whose resource profile changes once ``switched`` is set."""

    switched = False

    def resource_profile(self):
        return NOISY_NEIGHBOR_PROFILE if self.switched else self._profile


def changing_profile():
    """A dynamic profile flips at t=10: the fused step must refresh the
    table and bail out before any draw, then rebuild."""
    machines = [_machine(f"m{i}") for i in range(2)]
    tasks = _place(machines[0], "steady", 4, _synthetic(1.0, 40))
    switching = _place(machines[1], "switch", 3, lambda i: _SwitchingProfile(
        base_cpi=1.1, profile=SENSITIVE_PROFILE,
        demand=_noisy(1.4, (41, i))))
    tasks += switching

    def before(t, sim):
        if t == 10:
            switching[1].workload.switched = True

    return _simulation(machines), tasks, before


def departures_through_on_tick():
    """MapReduce workers complete (m0) or give up under a cap (m1), and a
    scripted workload exits (m2): departures fire from on_tick."""
    machines = [_machine(f"m{i}") for i in range(3)]
    tasks = _place(machines[0], "mr", 3, lambda i: MapReduceWorker(
        rng=np.random.default_rng(np.random.SeedSequence((50, i))),
        work_cpu_seconds=6.0 + i))
    tasks += _place(machines[0], "fill0", 2, _synthetic(0.8, 51))
    quitter = _place(machines[1], "quit", 2, lambda i: MapReduceWorker(
        rng=np.random.default_rng(np.random.SeedSequence((52, i))),
        give_up_episode=1, exit_delay=2))
    tasks += quitter
    tasks += _place(machines[1], "fill1", 2, _synthetic(0.8, 53))
    tasks += _place(machines[2], "script", 2, lambda i: ScriptedWorkload(
        [0.5, 1.0, 1.5], exit_at=12 + i, profile=SENSITIVE_PROFILE))
    tasks += _place(machines[2], "fill2", 3, _synthetic(0.7, 54))

    def before(t, sim):
        if t == 3:
            quitter[0].cgroup.apply_cap(0.2, now=t, duration=10)

    return _simulation(machines), tasks, before


def closure_demand():
    """m0 runs hand-written demand closures (no compiled program, so no
    fleet-wide one either); m1 mixes compiled on/off and ramp demand with a
    CPI-modulated workload; m2 is a plain compiled machine."""
    machines = [_machine(f"m{i}") for i in range(3)]
    tasks = _place(machines[0], "closure", 4, lambda i: SyntheticWorkload(
        base_cpi=1.0, profile=SENSITIVE_PROFILE,
        demand=lambda t, i=i: 0.3 + 0.1 * ((t + i) % 7)), LS)
    tasks += _place(machines[1], "onoff", 3, lambda i: SyntheticWorkload(
        base_cpi=1.2, profile=NOISY_NEIGHBOR_PROFILE,
        demand=on_off(1.8, 0.2, period=6, phase=i)))
    tasks += _place(machines[1], "ramp", 2, lambda i: SyntheticWorkload(
        base_cpi=0.9, profile=SENSITIVE_PROFILE, demand=ramp(0.1, 1.9, 15),
        cpi_modulation=lambda t: 1.0 + 0.01 * (t % 5)), LS)
    tasks += _place(machines[2], "plain", 5, _synthetic(0.9, 60))
    return _simulation(machines), tasks, None


SCENARIOS = {
    "caps_and_oversubscription": (caps_and_oversubscription, 40),
    "expiring_duty_cycle": (expiring_duty_cycle, 25),
    "single_machine_many_tasks": (single_machine_many_tasks, 30),
    "changing_profile": (changing_profile, 20),
    "departures_through_on_tick": (departures_through_on_tick, 25),
    "closure_demand": (closure_demand, 25),
}


# -- the comparison -----------------------------------------------------------


def _snapshot(sim: ClusterSimulation, results: dict, tasks: list) -> list:
    """Everything one tick makes observable, with floats as hex."""
    t = sim.now - 1
    rows: list = []
    for name in sorted(results):
        result = results[name]
        machine = sim.machines[name]
        rows.append((
            "machine", name,
            sorted((k, _hex(v)) for k, v in result.grants.items()),
            sorted((k, _hex(v)) for k, v in result.cpis.items()),
            [(task.name, state.value) for task, state in result.departures],
            _hex(machine.total_cpu_seconds),
            machine.counters.context_switches,
            [(cg, [_hex(v) for v in
                   machine.counters.counters_for(cg).snapshot().values()])
             for cg in machine.counters.known_cgroups()],
        ))
    for task in tasks:
        workload = task.workload
        cgroup = task.cgroup
        rows.append((
            "task", task.name, task.state.value,
            _hex(cgroup.total_cpu_seconds),
            _hex(cgroup.usage_between(t, t + 1)),
            _hex(getattr(workload, "granted_cpu_seconds", 0.0)),
            getattr(workload, "capped_seconds", None),
            getattr(workload, "_now", None),
        ))
    return rows


def _run(monkeypatch, scenario: str, fused: bool) -> tuple[list, int]:
    build, ticks = SCENARIOS[scenario]
    with monkeypatch.context() as patch:
        if not fused:
            patch.setattr(FusedFleet, "build",
                          classmethod(lambda cls, order: None))
        sim, tasks, before = build()
        trace = []
        fused_ticks = 0
        for _ in range(ticks):
            if before is not None:
                before(sim.now, sim)
            results = sim.step()
            fused_ticks += sim._fleet is not None
            trace.append(_snapshot(sim, results, tasks))
    return trace, fused_ticks


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fused_matches_per_machine(monkeypatch, scenario):
    fused, fused_ticks = _run(monkeypatch, scenario, fused=True)
    unfused, unfused_ticks = _run(monkeypatch, scenario, fused=False)
    assert unfused_ticks == 0
    assert fused_ticks > 0
    for t, (got, want) in enumerate(zip(fused, unfused)):
        assert got == want, f"{scenario}: first divergence at t={t}"
    assert len(fused) == len(unfused)


def test_scenarios_reach_their_edge_cases(monkeypatch):
    """Guard against a scenario silently losing the case it exists for."""
    def rows(tick, kind):
        return {row[1]: row[2:] for row in tick if row[0] == kind}

    trace, _ = _run(monkeypatch, "caps_and_oversubscription", fused=True)
    grants = {name: {k: float.fromhex(v) for k, v in row[0]}
              for name, row in rows(trace[2], "machine").items()}
    ls0 = [v for k, v in grants["m0"].items() if k.startswith("ls0/")]
    assert 23.9 < sum(ls0) <= 24.0                     # LS tier scaled
    assert all(v == 0.0 for k, v in grants["m0"].items()
               if k.startswith("batch0/"))             # batch starved
    assert sum(grants["m1"].values()) < 23.0           # every tier in full
    m2 = grants["m2"]
    assert sum(m2.values()) == pytest.approx(24.0)     # batch tier scaled
    assert all(v == 0.0 for k, v in m2.items() if k.startswith("be2/"))
    assert grants["m4"] == {}                          # empty machine
    assert rows(trace[-1], "task")["ls0/0"][4] == 20   # capped seconds

    trace, _ = _run(monkeypatch, "expiring_duty_cycle", fused=True)
    m1_total = [sum(float.fromhex(v) for _, v in
                    rows(tick, "machine")["m1"][0]) for tick in trace]
    assert m1_total[5] < 0.85 * m1_total[20]           # gated, then expired

    trace, _ = _run(monkeypatch, "departures_through_on_tick", fused=True)
    departed = {name for tick in trace
                for row in rows(tick, "machine").values()
                for name, _ in row[2]}
    assert {"mr/0", "quit/0", "script/0", "script/1"} <= departed

    _, fused_ticks = _run(monkeypatch, "changing_profile", fused=True)
    assert fused_ticks < SCENARIOS["changing_profile"][1]   # one fallback


def test_closure_demand_has_no_fleet_program(monkeypatch):
    sim, _, _ = closure_demand()
    sim.step()
    assert sim._fleet is not None
    assert sim._fleet.demand_columns is None
