"""Golden-parity tests: legacy vs vectorized tick engines.

The vector engine (and the cluster-fused fast path layered on top of it)
must be *bit-identical* to the scalar legacy engine — same CPI sample
stream, same incidents, same chaos precision/recall — for any seed.  These
tests pin that contract on the reference seeds, comparing floats by their
hex representation so "close enough" can never creep in.

The micro-tests at the bottom pin the numpy identities the vectorization
leans on (documented in ``docs/performance.md``); if a numpy upgrade ever
broke one of them, these fail before the end-to-end streams drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CpiConfig
from repro.cluster.fused import FusedFleet
from repro.experiments.chaos import chaos_sweep
from repro.experiments.scenarios import (build_cluster, populated_fleet,
                                         victim_antagonist_machine)
from repro.records import CpiSpec
from repro.workloads import AntagonistKind, make_antagonist_job_spec
from repro.workloads import make_batch_job_spec
from repro.workloads.services import make_service_job_spec

ENGINES = ("legacy", "vector")


def _hex(x) -> str:
    return float(x).hex()


def _canon_samples(samples) -> list[tuple]:
    """Byte-faithful canonical form of a CpiSample stream."""
    return [(s.jobname, s.platforminfo, s.timestamp, _hex(s.cpu_usage),
             _hex(s.cpi), s.taskname) for s in samples]


def _canon_incidents(incidents) -> list[tuple]:
    """Canonical incidents, minus the (per-process) incident_id."""
    return [(
        i.machine, i.time_seconds, i.victim_taskname, i.victim_jobname,
        _hex(i.victim_cpi), _hex(i.cpi_threshold),
        tuple((s.taskname, s.jobname, _hex(s.correlation))
              for s in i.suspects),
        i.decision.action.value,
        None if i.decision.target is None else i.decision.target.name,
        None if i.post_cpi is None else _hex(i.post_cpi),
        i.recovered,
    ) for i in incidents]


def _per_engine(monkeypatch, run):
    """Run ``run()`` once per engine (selected via REPRO_TICK_ENGINE)."""
    out = {}
    for engine in ENGINES:
        monkeypatch.setenv("REPRO_TICK_ENGINE", engine)
        out[engine] = run()
    return out


# -- end-to-end stream parity -------------------------------------------------


def test_fleet_sample_stream_parity(monkeypatch):
    """Same seed => byte-identical sample stream on a mixed fleet."""
    def run():
        scenario = populated_fleet(num_machines=4, seed=7)
        scenario.pipeline.log_samples = True
        scenario.simulation.run_minutes(20)
        return _canon_samples(scenario.pipeline.sample_log)

    streams = _per_engine(monkeypatch, run)
    assert len(streams["legacy"]) > 500  # not vacuously equal
    assert streams["legacy"] == streams["vector"]


def test_victim_antagonist_incident_parity(monkeypatch):
    """The canonical case study: identical samples AND incidents."""
    def run():
        scenario, _victim, _antagonist = victim_antagonist_machine(seed=5)
        scenario.pipeline.log_samples = True
        scenario.simulation.run_hours(2)
        return (_canon_samples(scenario.pipeline.sample_log),
                _canon_incidents(scenario.pipeline.all_incidents()))

    results = _per_engine(monkeypatch, run)
    samples, incidents = results["legacy"]
    assert len(incidents) > 0  # the case study must actually fire
    assert results["vector"] == (samples, incidents)


def test_moderate_fault_profile_parity(monkeypatch):
    """Parity holds under chaos: crashes, transport faults, quarantine."""
    def run():
        scenario = build_cluster(3, seed=9, config=CpiConfig(),
                                 fault_profile="moderate", fault_seed=7)
        scenario.submit(make_service_job_spec(
            "frontend", num_tasks=6, seed=21, base_cpi=1.0,
            cpu_limit_per_task=2.0))
        scenario.submit(make_batch_job_spec(
            "logs", num_tasks=3, seed=22, demand_level=0.5))
        scenario.submit(make_antagonist_job_spec(
            "video", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
            seed=23, demand_scale=1.4, cpu_limit_per_task=6.0))
        platform = next(
            iter(scenario.simulation.machines.values())).platform
        scenario.pipeline.bootstrap_specs([CpiSpec(
            jobname="frontend", platforminfo=platform.name,
            num_samples=10_000, cpu_usage_mean=1.0,
            cpi_mean=1.05, cpi_stddev=0.08)])
        scenario.pipeline.log_samples = True
        scenario.simulation.run_hours(1)
        return (_canon_samples(scenario.pipeline.sample_log),
                _canon_incidents(scenario.pipeline.all_incidents()),
                scenario.pipeline.faults.total_faults_injected)

    results = _per_engine(monkeypatch, run)
    _samples, _incidents, faults = results["legacy"]
    assert faults > 0  # the moderate profile must actually inject
    assert results["vector"] == results["legacy"]


def test_chaos_precision_recall_parity(monkeypatch):
    """The chaos experiment's headline numbers match across engines."""
    def run():
        result = chaos_sweep(profiles=("none", "moderate"),
                             num_machines=3, hours=1.0, seed=0,
                             fault_seed=1)
        return [(c.profile, _hex(c.precision), _hex(c.recall_vs_clean),
                 c.incidents, c.identified, c.true_identified,
                 c.faults_injected) for c in result.cells]

    results = _per_engine(monkeypatch, run)
    assert any(cell[3] > 0 for cell in results["legacy"])  # incidents fired
    assert results["legacy"] == results["vector"]


def test_fused_path_matches_per_machine_vector(monkeypatch):
    """Disabling cluster fusion must not change the vector stream at all."""
    def run():
        scenario = populated_fleet(num_machines=3, seed=13)
        scenario.pipeline.log_samples = True
        scenario.simulation.run_minutes(15)
        return _canon_samples(scenario.pipeline.sample_log)

    monkeypatch.setenv("REPRO_TICK_ENGINE", "vector")
    fused = run()
    monkeypatch.setattr(FusedFleet, "build",
                        classmethod(lambda cls, order: None))
    unfused = run()
    assert len(fused) > 300
    assert fused == unfused


# -- the numpy identities the vector engine relies on -------------------------


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_bulk_standard_normal_matches_scalar_draws(seed):
    """One rng.standard_normal(n) call == n scalar draws, bit-for-bit.

    This is the batched-RNG-order contract: the vector engine replaces the
    legacy per-task scalar draw loop with one bulk draw per machine-tick.
    """
    bulk = np.random.default_rng(seed).standard_normal(257)
    scalar_rng = np.random.default_rng(seed)
    scalars = [scalar_rng.standard_normal() for _ in range(257)]
    assert [v.hex() for v in bulk.tolist()] == [
        float(v).hex() for v in scalars]


@pytest.mark.parametrize("sigma", [0.03, 0.5, 1.7])
def test_sigma_times_standard_normal_matches_normal(sigma):
    """rng.normal(0, sigma) == sigma * rng.standard_normal(), bit-for-bit.

    numpy implements the former as exactly this product, which lets the
    noise path draw standard normals in bulk and scale afterwards.
    """
    a = np.random.default_rng(99)
    b = np.random.default_rng(99)
    for _ in range(1000):
        assert a.normal(0.0, sigma) == sigma * b.standard_normal()


def test_vector_exp_matches_scalar_exp():
    """np.exp over an array == np.exp per scalar (IEEE, same code path)."""
    values = np.random.default_rng(7).standard_normal(512) * 3.0
    batched = np.exp(values)
    assert [v.hex() for v in batched.tolist()] == [
        float(np.exp(v)).hex() for v in values.tolist()]


@pytest.mark.parametrize("columns", [1, 3, 50])
def test_accumulate_axis0_is_a_sequential_running_sum(columns):
    """np.add.accumulate(m, axis=0)[-1] == a left-to-right Python sum per
    column, bit-for-bit.

    The fused fleet's per-machine sums (tier demand, pressure, running CPU
    totals) rely on this.  ``np.add.reduce`` gives no such guarantee: a
    ``(k, 1)`` matrix reduces as one contiguous run, summed pairwise.
    """
    rng = np.random.default_rng(columns)
    for k in range(1, 41):
        m = rng.random((k, columns)) * rng.choice([1e-3, 1.0, 1e3], k)[:, None]
        got = np.add.accumulate(m, axis=0)[-1]
        for c in range(columns):
            total = 0.0
            for v in m[:, c].tolist():
                total += v
            assert got[c].hex() == total.hex(), (k, c)
