"""Cluster-fused execution of the vectorized tick across many machines.

The per-machine vector engine already batches per-task arithmetic into numpy
calls, but with ~10 tasks per machine each ufunc spends more time in call
dispatch than in its inner loop, and the per-machine Python around the
physics — tier allocation, pressure sums, charging, accounting — costs more
than the physics itself.  :class:`FusedFleet` concatenates every machine's
task table into one cluster-wide arena and runs every phase of a tick as
arena-wide numpy passes over index structures built once per fleet:

* the demand program, the ~30 physics ufuncs and the counter-event columns
  run once over all resident tasks;
* every per-machine sum — tier demand, cache/membw pressure, the running
  CPU total — gathers the arena through a padded ``(k + 1, machines)``
  index matrix whose first row and padding point at a zero sentinel slot,
  then ``np.add.accumulate`` along axis 0 adds each column top to bottom;
* tier allocation evaluates :meth:`Machine._tick_alloc`'s branches as masks
  over machines (only duty-cycled machines are patched in Python);
* per-task bookkeeping — granted and capped seconds, ``_now`` — is one loop
  over the arena, and only workloads that override ``on_tick`` get called;
* each machine's :class:`~repro.cluster.machine.TickResult` builds its
  ``grants``/``cpis`` dicts on first read (the pipeline reads neither).

Every observable stays bit-identical to stepping the machines one at a time
(``tests/test_fused_fleet.py`` and ``tests/test_tick_parity.py`` prove it):

* demand and base-CPI closures — the only tick-phase code that consumes
  randomness — run in the same global order: machines in the simulation's
  name-sorted order, tasks in table order within each machine;
* sums stay sequential.  ``accumulate`` is a running sum by definition, so
  each column computes ``0.0 + v0 + v1 + ...`` exactly as the Python loops
  do, and the zero padding only adds ``+ 0.0``.  ``np.add.reduce`` (and
  ``.sum()``) may sum pairwise — even along axis 0, for a one-machine
  ``(k, 1)`` matrix that numpy treats as contiguous — and would round
  differently;
* the allocation masks reproduce the loop's branches: ``remaining > 0``
  stands for "not broken out yet", a fitting tier is granted ``allowed *
  1.0`` (bitwise ``allowed``) and an oversubscribed one ``allowed *
  (remaining / want)``;
* measurement noise is drawn per machine from that machine's own generator
  into its segment of the cluster noise buffer.  Machines with sigma == 0
  draw nothing, exactly like the per-machine path; their segment is
  zero-filled so the shared ``exp``/multiply is a bit-exact no-op
  (``exp(0.0) == 1.0`` and ``x * 1.0 == x`` for every float);
* per-machine platform/model scalars (LLC size, CPI scale, coupling, sigma)
  become per-element constant columns, so each element sees the exact
  operand values the scalar formulas use;
* charging, accounting and ``on_tick`` observations run after the cluster
  math, all machines' bookkeeping before any ``on_tick``.  Relative to the
  per-machine path this moves machine j's observations after machine
  j+1's demand calls, which is unobservable: ``on_tick`` never draws
  randomness and only mutates state local to its own task and machine (the
  control-plane actions that *do* cross machines — caps, migrations —
  actuate from the sample-sink phase, which runs after all ticks in both
  orderings).

The fleet is rebuilt whenever placement changes (any machine's task table
is invalidated) and steps down to the per-machine path whenever a machine
is ineligible: legacy engine, patched tick methods, or a subclassed
interference model.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from repro.cluster.demandplane import DemandColumns
from repro.cluster.interference import InterferenceModel, _SATURATE_KNEE
from repro.cluster.machine import (_SWITCHES_PER_TASK_SECOND, Machine,
                                   TickResult)
from repro.cluster.task import TaskState
from repro.perf.counters import CounterBank

__all__ = ["FusedFleet", "fused_eligible"]


def fused_eligible(machine: Machine) -> bool:
    """Whether ``machine`` can participate in a fused fleet.

    The fused path inlines :meth:`Machine._tick_vector`'s math, so it must
    step aside whenever any of the pieces it bypasses could have been
    overridden — a subclass, an instance-patched ``tick`` (tests stub it),
    or a custom interference model.
    """
    cls = type(machine)
    return (machine.tick_engine == "vector"
            and "tick" not in machine.__dict__
            and cls.tick is Machine.tick
            and cls._tick_vector is Machine._tick_vector
            and cls._tick_inputs is Machine._tick_inputs
            and cls._tick_demand is Machine._tick_demand
            and cls._tick_alloc is Machine._tick_alloc
            and cls._tick_finish is Machine._tick_finish
            and cls.duty_cycle_at is Machine.duty_cycle_at
            and type(machine.interference).tick_batch
                is InterferenceModel.tick_batch
            and type(machine.counters).burn_matrix is CounterBank.burn_matrix)


def _is_method(fn, owner, func) -> bool:
    """Whether ``fn`` is ``func`` bound to ``owner`` (not an override or an
    instance patch)."""
    return (getattr(fn, "__func__", None) is func
            and getattr(fn, "__self__", None) is owner)


def _padded_columns(columns: Sequence[Sequence[int]], sentinel: int
                    ) -> np.ndarray:
    """A ``(k + 1, len(columns))`` index matrix: column ``c`` lists
    ``columns[c]`` from row 1 down; row 0 and the padding are ``sentinel``."""
    rows = max((len(col) for col in columns), default=0) + 1
    index = np.full((rows, len(columns)), sentinel, dtype=np.intp)
    for c, col in enumerate(columns):
        index[1:len(col) + 1, c] = col
    return index


class _FusedTickResult(TickResult):
    """A fused tick's result whose ``grants``/``cpis`` dicts are built on
    first read, from the arena values captured when the step ended.

    The pipeline's tick hook reads only ``departures``; trace recorders and
    tests read the dicts.  The fields are plain dataclass fields without a
    class-level default, so attribute lookup reaches ``__getattr__`` only
    until the first read caches the dict on the instance.
    """

    def __init__(self, t: int, names: tuple[str, ...], offset: int,
                 grants: list[float], cpis: np.ndarray):
        self.t = t
        self.departures = []
        self._arena = (names, offset, grants, cpis)

    def __getattr__(self, name: str):
        if name == "grants":
            names, o, grants, _ = self._arena
            value = dict(zip(names, grants[o:o + len(names)]))
        elif name == "cpis":
            names, o, _, cpis = self._arena
            value = dict(zip(names, cpis[o:o + len(names)].tolist()))
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value


class FusedFleet:
    """One cluster-wide arena for the vectorized tick of many machines."""

    __slots__ = (
        "machines", "tables", "ptables", "segments", "total", "results_plan",
        "profile_guard", "demand_columns",
        # allocation
        "allowed", "grants_ext", "grants", "capacity", "tier_index",
        "tier_mult", "tier_go", "tier_key", "mult_flat", "go_flat",
        # physics
        "contrib", "cache_contrib", "membw_contrib", "sum_index",
        "sum_owner", "pressure", "cache_pressure", "membw_pressure", "tmp",
        "tmp2", "inflation", "cpi", "l3_buf", "l2_buf", "kilo", "noise",
        "events", "event_columns", "llc_mib", "membw_cap", "cpi_scale",
        "cycles_per_sec", "sigma", "coupling", "coupling4", "cache_mib",
        "membw_gbps", "cache_sens", "membw_sens", "base_l3", "l2_base",
        "cold", "any_noise", "matrix_targets",
        # finish
        "finish_index", "cores", "plain_workloads", "plain_mask",
        "now_workloads", "on_tick_calls",
    )

    @classmethod
    def build(cls, machine_order: Sequence[tuple[str, Machine]]
              ) -> Optional["FusedFleet"]:
        """A fleet over ``machine_order``, or ``None`` if any machine is
        ineligible (the caller then uses the per-machine path)."""
        machines = tuple(m for _, m in machine_order)
        if not machines:
            return None
        for m in machines:
            if not fused_eligible(m):
                return None
        return cls(machines)

    def __init__(self, machines: tuple[Machine, ...]):
        # Imported here: repro.workloads imports this package.
        from repro.workloads.base import SyntheticWorkload as sw

        self.machines = machines
        tables = tuple(m._task_table() for m in machines)
        self.tables = tables
        self.ptables = tuple(tb.profile_table for tb in tables)
        offsets = []
        total = 0
        for tb in tables:
            offsets.append(total)
            total += len(tb.tasks)
        self.total = total
        # (machine, table, start, end) per machine with resident tasks; the
        # column order of every per-machine matrix below.
        segments = tuple(
            (m, tb, o, o + len(tb.tasks))
            for m, tb, o in zip(machines, tables, offsets) if tb.tasks)
        self.segments = segments
        self.results_plan = tuple(
            (m.name, tb.names if tb.tasks else None, o)
            for m, tb, o in zip(machines, tables, offsets))

        # Profile guard: only slots whose resource_profile is overridden or
        # instance-patched can change; SyntheticWorkload's is fixed at
        # construction.
        guard = []
        for tb in tables:
            slots = tuple(
                (i, fn) for i, (w, fn) in enumerate(
                    zip(tb.workloads, tb.profile_fns))
                if not _is_method(fn, w, sw.resource_profile))
            if slots:
                guard.append((tb, slots))
        self.profile_guard = tuple(guard)

        # One cluster-wide demand program, when every resident segment
        # compiled one: demand/cap/base-CPI columns then span the whole
        # arena.  Per-task noise draws happen in arena order == machine
        # order x table order, exactly the per-machine sequence.  No ledger:
        # each machine table's own program keeps charging its cgroups.
        fleet_dc = None
        if segments and all(tb.demand_columns is not None
                            for _, tb, _, _ in segments):
            workloads: list = []
            cgroups: list = []
            limits: list[float] = []
            for _, tb, _, _ in segments:
                workloads.extend(tb.workloads)
                cgroups.extend(tb.cgroups)
                limits.extend(tb.cpu_limits)
            fleet_dc = DemandColumns.compile(workloads, cgroups, limits,
                                             attach_ledger=False)
        self.demand_columns = fleet_dc

        # -- allocation ---------------------------------------------------
        # Arena buffers carry one extra zero slot (index ``total``): the
        # sentinel the padded index matrices point at.
        num = len(segments)
        self.allowed = np.zeros(total + 1)
        self.grants_ext = np.zeros(total + 1)
        self.grants = self.grants_ext[:total]
        self.capacity = np.array([m.cpu_capacity for m, _, _, _ in segments])
        tier_index = []
        tier_key = np.empty(total, dtype=np.intp)
        for tier in range(len(tables[0].tier_indices)):
            columns = [[o + i for i in tb.tier_indices[tier]]
                       for _, tb, o, _ in segments]
            if not any(columns):
                continue        # no machine has this tier: the loop skips it
            row = len(tier_index)
            for c, col in enumerate(columns):
                tier_key[col] = row * num + c
            tier_index.append(_padded_columns(columns, total))
        self.tier_index = tuple(tier_index)
        self.tier_key = tier_key
        self.tier_mult = np.empty((len(tier_index), num))
        self.tier_go = np.empty((len(tier_index), num), dtype=bool)
        self.mult_flat = self.tier_mult.reshape(-1)
        self.go_flat = self.tier_go.reshape(-1)

        # -- physics ------------------------------------------------------
        # Cache and membw contributions share one (2, total + 1) buffer so
        # both pressure sums are one gather + accumulate: the membw half of
        # the sum index is offset by a row.
        self.contrib = np.zeros((2, total + 1))
        self.cache_contrib = self.contrib[0, :total]
        self.membw_contrib = self.contrib[1, :total]
        finish_index = _padded_columns(
            [range(o, end) for _, _, o, end in segments], total)
        self.finish_index = finish_index
        self.sum_index = np.concatenate(
            [finish_index, finish_index + (total + 1)], axis=1)
        owner = np.empty(total, dtype=np.intp)
        for c, (_, _, o, end) in enumerate(segments):
            owner[o:end] = c
        self.sum_owner = np.concatenate([owner, owner + num])
        self.pressure = np.empty(2 * total)
        self.cache_pressure = self.pressure[:total]
        self.membw_pressure = self.pressure[total:]
        (self.tmp, self.tmp2, self.inflation, self.cpi, self.l3_buf,
         self.l2_buf, self.kilo, self.noise) = np.empty((8, total))
        self.events = np.empty((total, 5), dtype=np.float64)
        self.event_columns = tuple(self.events[:, i] for i in range(5))

        # Per-element constants: each machine's platform/model scalars
        # repeated across its segment, so elementwise ops see exactly the
        # operands the scalar formulas use.
        (llc, membw, cpi_scale, cycles, sigma, coupling,
         coupling4) = np.empty((7, total), dtype=np.float64)
        for m, tb, o, end in segments:
            platform = m.platform
            llc[o:end] = platform.llc_mib
            membw[o:end] = platform.membw_gbps
            cpi_scale[o:end] = platform.cpi_scale
            cycles[o:end] = platform.cycles_per_cpu_second
            sigma[o:end] = m.cpi_noise_sigma
            k = m.interference.miss_rate_coupling
            coupling[o:end] = k
            # 0.25 * k is exact (power-of-two scale), so precomputing the
            # L2 coupling column matches the scalar expression bit for bit.
            coupling4[o:end] = 0.25 * k
        self.llc_mib, self.membw_cap = llc, membw
        self.cpi_scale, self.cycles_per_sec = cpi_scale, cycles
        self.sigma, self.coupling, self.coupling4 = sigma, coupling, coupling4

        # Profile columns, concatenated in segment order (empty tables
        # contribute zero-length arrays, keeping offsets aligned).
        ptables = self.ptables
        self.cache_mib = np.concatenate(
            [pt.cache_mib_per_cpu for pt in ptables])
        self.membw_gbps = np.concatenate(
            [pt.membw_gbps_per_cpu for pt in ptables])
        self.cache_sens = np.concatenate(
            [pt.cache_sensitivity for pt in ptables])
        self.membw_sens = np.concatenate(
            [pt.membw_sensitivity for pt in ptables])
        self.base_l3 = np.concatenate([pt.base_l3_mpki for pt in ptables])
        self.l2_base = np.concatenate([pt.l2_base_mpki for pt in ptables])

        self.cold = tuple(
            (o + i, float(tb.profile_table.cold_start_penalty[i]),
             m.interference.cold_start_scale)
            for m, tb, o, _ in segments
            for i in tb.profile_table.cold_indices)
        self.any_noise = any(m.cpi_noise_sigma > 0.0
                             for m, _, _, _ in segments)
        self.matrix_targets = tuple(
            (tb.counter_matrix, self.events[o:end])
            for _, tb, o, end in segments)

        # -- finish -------------------------------------------------------
        # A slot whose on_tick is SyntheticWorkload's own only accounts
        # (granted/capped seconds, ``_now``), which the arena loop does
        # inline; any other on_tick is called, so departures still happen.
        # ``_now`` advances exactly where the per-machine finish advances
        # it: a batched table only for its program's now_workloads, any
        # other table for every slot its on_tick would have touched.
        self.cores = np.array([m.platform.num_cores
                               for m, _, _, _ in segments], dtype=np.intp)
        plain_mask: list[bool] = []
        now_workloads: list = []
        on_tick_calls = []
        for m, tb, o, _ in segments:
            dc = tb.demand_columns
            batched = dc is not None and dc.batch_on_tick
            if batched:
                now_workloads.extend(dc.now_workloads)
            for i, (w, fn) in enumerate(zip(tb.workloads, tb.on_tick_fns)):
                plain = _is_method(fn, w, sw.on_tick)
                plain_mask.append(plain)
                if not plain:
                    on_tick_calls.append((o + i, fn, tb.tasks[i], m))
                elif not batched:
                    now_workloads.append(w)
        arena_workloads = [w for _, tb, _, _ in segments
                           for w in tb.workloads]
        self.plain_workloads = tuple(compress(arena_workloads, plain_mask))
        self.plain_mask = None if all(plain_mask) else tuple(plain_mask)
        self.now_workloads = tuple(now_workloads)
        self.on_tick_calls = tuple(on_tick_calls)

    def matches(self, machine_order: Sequence[tuple[str, Machine]]) -> bool:
        """Whether this fleet is still valid for ``machine_order``.

        Placement changes null out a machine's cached task table and
        dynamic profile refreshes replace its profile table, so two
        identity checks per machine cover every invalidation.
        """
        machines = self.machines
        if len(machine_order) != len(machines):
            return False
        tables = self.tables
        ptables = self.ptables
        for i, (_, m) in enumerate(machine_order):
            if (m is not machines[i] or m._table is not tables[i]
                    or tables[i].profile_table is not ptables[i]):
                return False
        return True

    def step(self, t: int) -> Optional[dict[str, TickResult]]:
        """One fused cluster tick; per-machine results keyed by name.

        Returns ``None`` — before consuming any randomness — if a dynamic
        resource profile changed, after refreshing the affected tables.
        The caller then runs this tick per-machine and rebuilds the fleet.
        """
        stale = False
        for tb, slots in self.profile_guard:
            profiles = tb.profiles
            for i, fn in slots:
                if fn() is not profiles[i]:
                    tb.refresh_profiles([f() for f in tb.profile_fns])
                    stale = True
                    break
        if stale:
            return None

        # Phase 1: demand, clipping and base CPI — one pass over the arena
        # with a fleet-wide demand program, else each machine's inputs as
        # its own engine computes them.
        n = self.total
        segments = self.segments
        allowed = self.allowed
        cpi = self.cpi
        fdc = self.demand_columns
        if fdc is not None:
            allowed_all, capped = fdc.allowed_and_capped(t)
            allowed[:n] = allowed_all
            base_all = fdc.base_cpi()
            if fdc.check_base_cpi and not min(base_all) > 0:
                bad = min(base_all)
                raise ValueError(f"base_cpi must be positive, got {bad}")
            cpi[:] = base_all
        else:
            capped = []
            for m, tb, o, end in segments:
                seg_allowed, seg_capped, base = m._tick_demand(t, tb)
                allowed[o:end] = seg_allowed
                capped += seg_capped
                cpi[o:end] = base

        # Tier allocation, all machines at once: _tick_alloc's branches as
        # masks.  A tier is granted where the machine has not broken out
        # (remaining > 0) and wants something: all of it when it fits
        # (multiplier 1.0), pro-rata by remaining / want when it does not.
        remaining = self.capacity
        mult, go = self.tier_mult, self.tier_go
        for r, index in enumerate(self.tier_index):
            want = np.add.accumulate(allowed[index], 0)[-1]
            fits = want <= remaining
            row_go = go[r]
            np.less_equal(want, 0.0, row_go)
            np.logical_not(row_go, row_go)
            row_go &= remaining > 0.0
            # Not fitting implies want > remaining >= 0: no zero divisor.
            mult[r] = np.where(fits, 1.0,
                               remaining / np.where(fits, 1.0, want))
            remaining = np.where(row_go, np.where(fits, remaining - want, 0.0),
                                 remaining)
        g = self.grants
        key = self.tier_key
        g.fill(0.0)
        np.multiply(allowed[:n], self.mult_flat[key], out=g,
                    where=self.go_flat[key])
        for m, tb, o, _ in segments:
            if m._duty_cycle is not None:
                duty = m.duty_cycle_at(t)
                if duty is not None:
                    level = duty.level
                    factor = max(0.0, 1.0 - duty.core_share * (1.0 - level))
                    target = duty.target_task
                    for i, name in enumerate(tb.names, o):
                        g[i] *= level if name == target else factor
        grants = g.tolist()

        # Phase 2 (numpy, cluster-wide): contention, inflation, CPI,
        # miss rates, noise, counters — InterferenceModel.tick_batch's math
        # over one concatenated arena.
        cc, mc = self.cache_contrib, self.membw_contrib
        tmp, tmp2, infl = self.tmp, self.tmp2, self.inflation
        np.multiply(g, self.cache_mib, cc)
        np.divide(cc, self.llc_mib, cc)
        np.multiply(g, self.membw_gbps, mc)
        np.divide(mc, self.membw_cap, mc)
        sums = np.add.accumulate(self.contrib.reshape(-1)[self.sum_index], 0)
        np.take(sums[-1], self.sum_owner, None, self.pressure)
        pc, pm = self.cache_pressure, self.membw_pressure
        np.subtract(pc, cc, tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.multiply(tmp, _SATURATE_KNEE, tmp2)
        np.add(tmp2, 1.0, tmp2)
        np.divide(tmp, tmp2, tmp)
        np.multiply(tmp, self.cache_sens, infl)
        np.subtract(pm, mc, tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.multiply(tmp, _SATURATE_KNEE, tmp2)
        np.add(tmp2, 1.0, tmp2)
        np.divide(tmp, tmp2, tmp)
        np.multiply(tmp, self.membw_sens, tmp)
        np.add(infl, tmp, infl)
        np.multiply(cpi, self.cpi_scale, cpi)
        np.add(infl, 1.0, tmp)
        np.multiply(cpi, tmp, cpi)
        for gi, penalty, scale in self.cold:
            cold = 1.0 + penalty * math.exp(-grants[gi] / scale)
            cpi[gi] = cpi[gi] * cold
        np.multiply(infl, self.coupling, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.base_l3, self.l3_buf)
        np.multiply(infl, self.coupling4, tmp)
        np.add(tmp, 1.0, tmp)
        np.multiply(tmp, self.l2_base, self.l2_buf)

        if self.any_noise:
            noise = self.noise
            for m, _, o, end in segments:
                if m.cpi_noise_sigma > 0.0:
                    m.rng.standard_normal(out=noise[o:end])
                else:
                    noise[o:end] = 0.0
            np.multiply(noise, self.sigma, noise)
            np.exp(noise, noise)
            np.multiply(cpi, noise, cpi)

        ev = self.events
        cycles, instructions, l2, l3, mem = self.event_columns
        np.multiply(g, self.cycles_per_sec, cycles)
        np.divide(cycles, cpi, instructions)
        np.divide(instructions, 1000.0, self.kilo)
        np.multiply(self.kilo, self.l2_buf, l2)
        np.multiply(self.kilo, self.l3_buf, l3)
        np.multiply(l3, 1.1, mem)
        # Same validation contract as CounterBank.burn_matrix, enforced
        # once over the whole cluster's event matrix.
        if ev.size:
            lo = float(ev.min())
            if not lo >= 0.0:
                raise ValueError(
                    f"counter increments must be finite and >= 0, got {lo}")
            if float(ev.max()) == math.inf:
                raise ValueError("counter increments must be finite")
        for matrix, rows in self.matrix_targets:
            matrix += rows

        # Phase 3: running CPU totals (row 0 of the gather is each
        # machine's total so far), runnable counts and context switches,
        # cgroup charging, then the arena-wide workload accounting.
        per_machine = self.grants_ext[self.finish_index]
        runnable = np.add.reduce(per_machine > 0.0, 0)     # integer counts
        switches = (runnable * _SWITCHES_PER_TASK_SECOND
                    + np.maximum(runnable - self.cores, 0) * 100).tolist()
        per_machine[0] = [m.total_cpu_seconds for m, _, _, _ in segments]
        totals = np.add.accumulate(per_machine, 0)[-1].tolist()
        for (m, tb, o, end), total, count in zip(segments, totals, switches):
            m.total_cpu_seconds = total
            m.counters.record_context_switches(count)
            dc = tb.demand_columns
            if dc is not None:
                # Charges go to the table's ledger (flushed by any usage
                # read, placement change, or every _CHARGE_CHUNK ticks).
                dc.charge_tick(t, g[o:end])
            else:
                for cg, grant in zip(tb.cgroups, grants[o:end]):
                    cg.charge(t, grant)

        mask = self.plain_mask
        plain = self.plain_workloads
        for w, grant in zip(plain, grants if mask is None
                            else compress(grants, mask)):
            w.granted_cpu_seconds += grant
        for w in self.now_workloads:
            w._now = t
        if True in capped:
            for w, was_capped in zip(plain, capped if mask is None
                                     else compress(capped, mask)):
                if was_capped:
                    w.capped_seconds += 1

        cpis = cpi.copy()
        results: dict[str, TickResult] = {}
        for name, names, o in self.results_plan:
            results[name] = (
                TickResult(t=t, departures=[]) if names is None
                else _FusedTickResult(t, names, o, grants, cpis))

        for i, fn, task, m in self.on_tick_calls:
            outcome = fn(t, grants[i], capped[i])
            if outcome is None:
                continue
            if outcome == "completed":
                state = TaskState.COMPLETED
            elif outcome == "exited":
                state = TaskState.EXITED
            else:
                raise ValueError(
                    f"workload for {task.name} returned unknown outcome {outcome!r}")
            m.remove(task.name, state, reason=f"workload said {outcome}")
            results[m.name].departures.append((task, state))
        return results
