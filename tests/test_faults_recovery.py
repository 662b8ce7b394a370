"""Tests for agent checkpointing, crash, and deterministic recovery."""

import dataclasses
import json
import math

import pytest

from repro.cluster.task import SchedulingClass
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.core.policy import PolicyAction
from repro.core.window import WINDOW_CAPACITY, ColumnarWindow
from repro.faults.checkpoint import (CHECKPOINT_VERSION, AgentCheckpoint,
                                     CheckpointVersionError, FollowUpState)
from repro.obs import Observability
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import CpiSample, SpecKey
from repro.testing import (
    NOISY_NEIGHBOR_PROFILE,
    SENSITIVE_PROFILE,
    make_quiet_machine,
    make_scripted_job,
)
from tests.conftest import make_sample, make_spec

FAST = CpiConfig(sampling_duration=5, sampling_period=15,
                 anomaly_window=120, correlation_window=300,
                 hardcap_duration=120)


def build_rig(config=FAST):
    """Machine + sampler + agent with a sensitive victim and an antagonist."""
    obs = Observability()
    machine = make_quiet_machine()
    sampler = CpiSampler(machine, SamplerConfig(config.sampling_duration,
                                                config.sampling_period))
    agent = MachineAgent(machine, config, obs=obs)
    victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                               base_cpi=1.0, profile=SENSITIVE_PROFILE)
    machine.place(victim.tasks[0])
    antagonist = make_scripted_job("ant", [6.0], cpu_limit=8.0,
                                   scheduling_class=SchedulingClass.BATCH,
                                   profile=NOISY_NEIGHBOR_PROFILE)
    machine.place(antagonist.tasks[0])
    agent.update_specs({SpecKey("victim", machine.platform.name):
                        make_spec(jobname="victim", cpi_mean=1.0,
                                  cpi_stddev=0.1)})
    return machine, sampler, agent, obs


def run_rig(machine, sampler, agent, start, stop):
    for t in range(start, stop):
        machine.tick(t)
        agent.tick(t)
        samples = sampler.tick(t)
        if samples:
            agent.ingest_samples(t, samples)


def run_until_followup(machine, sampler, agent, limit=600):
    for t in range(limit):
        machine.tick(t)
        agent.tick(t)
        samples = sampler.tick(t)
        if samples:
            agent.ingest_samples(t, samples)
        if agent._followups:
            return t
    raise AssertionError("no follow-up in flight within the limit")


class TestCheckpointSerialisation:
    def test_round_trips_through_json(self):
        checkpoint = AgentCheckpoint(
            machine="m0", taken_at=120, last_analysis=90, anomalies_seen=3,
            windows={"victim/0": [
                {"jobname": "victim", "platforminfo": "p", "timestamp": 1,
                 "cpu_usage": 1.0, "cpi": 1.5, "taskname": "victim/0"}]},
            detector_flags={"victim/0": [60, 120]},
            followups=[FollowUpState(
                due_at=300, victim_taskname="victim/0",
                antagonist_taskname="ant/0", incident_id=12,
                incident_time=120, victim_jobname="victim",
                victim_cpi=1.9, cpi_threshold=1.2, action="throttle")],
        )
        wire = json.dumps(checkpoint.to_dict())
        restored = AgentCheckpoint.from_dict(json.loads(wire))
        assert restored == checkpoint


    def test_sample_codec_is_the_storage_codec(self):
        from repro.core import storage
        from repro.faults import checkpoint

        assert checkpoint.sample_to_dict is storage.sample_to_dict
        assert checkpoint.sample_from_dict is storage.sample_from_dict


class TestCrashSemantics:
    def test_crash_wipes_volatile_state_keeps_specs_and_incidents(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        incidents_before = list(agent.incidents)
        assert agent._windows and agent._followups
        agent.crash(t)
        assert agent._windows == {}
        assert agent._followups == []
        assert agent._last_analysis is None
        assert agent.crash_count == 1
        # The spec cache and the incident record survive (persisted state).
        assert agent.spec_for("victim") is not None
        assert agent.incidents == incidents_before
        assert obs.metrics.total("agent_crashes") == 1

    def test_restart_without_checkpoint_relearns_from_scratch(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        agent.crash_and_restart(t)  # no checkpoint was ever taken
        assert agent._followups == []
        # Detection still works after the restart.
        run_rig(machine, sampler, agent, t + 1, t + 400)
        assert agent.anomalies_seen > 0


class TestCheckpointRecovery:
    def test_restore_rearms_followup_and_it_completes(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        incident = agent._followups[0].incident
        agent.take_checkpoint(t)
        agent.crash_and_restart(t)
        assert len(agent._followups) == 1
        assert agent._followups[0].incident is incident  # reused by id
        assert obs.metrics.total("followups_recovered") == 1
        run_rig(machine, sampler, agent, t + 1, t + FAST.hardcap_duration + 60)
        assert incident.recovered is not None  # the follow-up closed

    def test_restore_into_fresh_process_rebuilds_incident(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        checkpoint = AgentCheckpoint.from_dict(
            json.loads(json.dumps(agent.take_checkpoint(t).to_dict())))
        fresh = MachineAgent(machine, FAST, obs=Observability())
        fresh.restore(checkpoint, t)
        assert len(fresh._followups) == 1
        rebuilt = fresh._followups[0].incident
        assert rebuilt.incident_id == checkpoint.followups[0].incident_id
        assert rebuilt.decision.action is PolicyAction.THROTTLE
        assert rebuilt.decision.reason == "restored-from-checkpoint"
        assert rebuilt in fresh.incidents

    def test_restore_finalises_followup_whose_victim_departed(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        checkpoint = agent.take_checkpoint(t)
        sunk = []
        agent.incident_sink = sunk.append
        agent.crash(t)
        from repro.cluster.task import TaskState
        machine.remove("victim/0", TaskState.KILLED)
        agent.restore(checkpoint, t + 30)
        assert agent._followups == []
        assert obs.metrics.total("followups_purged") == 1
        assert len(sunk) == 1 and sunk[0].recovered is True

    def test_restored_windows_match_checkpoint(self):
        machine, sampler, agent, obs = build_rig()
        # Fill through the columnar ingest path, so the windows before the
        # crash and the ones restore rebuilds come from different code.
        agent.analysis_engine = "vector"
        agent.vector_min_batch = 1
        run_rig(machine, sampler, agent, 0, 120)

        def columns(window):
            return (window.timestamps_us.tolist(),
                    window.timestamps_sec.tolist(),
                    window.cpu_usage.tolist(), window.cpi.tolist(),
                    [(s.jobname, s.platforminfo) for s in window.samples])

        before = {name: columns(w) for name, w in agent._windows.items()}
        assert before
        checkpoint = agent.take_checkpoint(120)
        agent.crash(120)
        agent.restore(checkpoint, 125)
        assert set(checkpoint.windows) == set(before)
        for taskname, expected in before.items():
            assert columns(agent._windows[taskname]) == expected

    @pytest.mark.parametrize("column", ["cpu_usage", "cpi"])
    def test_checkpoint_refuses_negative_values(self, column):
        machine, sampler, agent, obs = build_rig()
        window = ColumnarWindow("victim/0")
        values = {"cpu_usage": 1.0, "cpi": 1.0, column: -0.5}
        window.append(60_000_000, 60, values["cpu_usage"], values["cpi"],
                      "victim", machine.platform.name)
        agent._windows["victim/0"] = window
        with pytest.raises(ValueError, match=f"{column} must be >= 0"):
            agent.take_checkpoint(60)

    def test_restore_rejects_record_with_bad_keys(self):
        machine, sampler, agent, obs = build_rig()
        run_rig(machine, sampler, agent, 0, 120)
        data = json.loads(json.dumps(agent.take_checkpoint(120).to_dict()))
        del next(iter(data["windows"].values()))[0]["cpu_usage"]
        agent.crash(120)
        with pytest.raises(ValueError, match="bad sample record"):
            agent.restore_from_dict(data, 125)


def awkward_batch(step, platform):
    """Three tasks of two jobs at one window close, with values whose JSON
    form is easy to get wrong (long reprs, tiny and huge magnitudes)."""
    return [
        CpiSample(jobname=job, platforminfo=platform,
                  timestamp=1_700_000_000_123_457 + 15_000_001 * step,
                  cpu_usage=(5e-324 if step == 5
                             else (0.1 + 0.2) * (step % 7) + k / 3),
                  cpi=(999.9999999999999 if step == 6
                       else 1.0 + 1e-12 * step + math.pi * k),
                  taskname=f"{job}/{k}")
        for k, job in enumerate(("victim", "victim", "batch"))
    ]


class TestCheckpointFormat:
    """Checkpoint window records are byte-identical to the old encoder:
    ``dataclasses.asdict`` over each window's ``CpiSample`` objects."""

    @staticmethod
    def assert_matches_asdict(agent, t):
        checkpoint = agent.take_checkpoint(t)
        oracle = {**checkpoint.to_dict(),
                  "windows": {name: [dataclasses.asdict(s)
                                     for s in window.samples]
                              for name, window in agent._windows.items()
                              if len(window)}}
        assert oracle["windows"]
        assert json.dumps(checkpoint.to_dict()) == json.dumps(oracle)

    @staticmethod
    def make_agent(engine):
        machine = make_quiet_machine()
        agent = MachineAgent(machine, FAST, obs=Observability(),
                             analysis_engine=engine)
        agent.vector_min_batch = 1
        return machine, agent

    def test_scalar_append_sample_windows(self):
        machine, agent = self.make_agent("scalar")
        for step in range(20):
            agent.ingest_samples(15 * step,
                                 awkward_batch(step, machine.platform.name))
        # append_sample directly, NaN included: the format passes it through.
        window = agent._windows["victim/0"]
        window.append_sample(CpiSample("victim", machine.platform.name,
                                       1_800_000_000_000_000, math.nan,
                                       math.nan, "victim/0"))
        self.assert_matches_asdict(agent, 300)

    def test_columnar_ingest_windows(self):
        machine, agent = self.make_agent("vector")
        for step in range(20):
            agent.ingest_samples(15 * step,
                                 awkward_batch(step, machine.platform.name))
        self.assert_matches_asdict(agent, 300)

    def test_window_compacted_past_capacity(self):
        machine, agent = self.make_agent("vector")
        steps = 3 * WINDOW_CAPACITY + 5  # past the 2x buffer: compacted
        for step in range(steps):
            agent.ingest_samples(15 * step,
                                 awkward_batch(step, machine.platform.name))
        assert all(len(w) == WINDOW_CAPACITY
                   for w in agent._windows.values())
        self.assert_matches_asdict(agent, 15 * steps)


class TestCrashRestartDeterminism:
    def run_faulted_demo(self, fault_seed, crash_rate=1.0 / 300.0):
        from repro.cluster.simulation import ClusterSimulation, SimConfig
        from repro.cluster.machine import Machine
        from repro.cluster.job import Job
        from repro.cluster.platform import get_platform
        from repro.core.pipeline import CpiPipeline
        from repro.faults.profile import FAULT_PROFILES
        from repro.records import CpiSpec
        from repro.workloads import AntagonistKind, make_antagonist_job_spec
        from repro.workloads.services import make_service_job_spec

        platform = get_platform("westmere-2.6")
        machine = Machine("demo", platform, cpi_noise_sigma=0.03)
        sim = ClusterSimulation([machine], SimConfig(seed=42))
        profile = FAULT_PROFILES["moderate"].with_overrides(
            agent_crash_rate=crash_rate)
        pipeline = CpiPipeline(sim, CpiConfig(), obs=Observability(),
                               fault_profile=profile, fault_seed=fault_seed)
        sim.scheduler.submit(Job(make_service_job_spec(
            "frontend", num_tasks=1, seed=42)))
        sim.scheduler.submit(Job(make_antagonist_job_spec(
            "video", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
            seed=43, demand_scale=1.3)))
        pipeline.bootstrap_specs([CpiSpec("frontend", platform.name,
                                          10_000, 1.0, 1.05, 0.08)])
        sim.run_minutes(45)
        agent = pipeline.agents["demo"]
        incidents = [(i.machine, i.time_seconds, i.victim_taskname,
                      i.decision.action.value) for i in pipeline.all_incidents()]
        return incidents, agent.crash_count, pipeline.faults.fault_tallies()

    def test_same_fault_seed_replays_same_incidents_and_crashes(self):
        run_a = self.run_faulted_demo(fault_seed=11)
        run_b = self.run_faulted_demo(fault_seed=11)
        assert run_a == run_b
        assert run_a[1] > 0  # the schedule did include crashes

    def test_different_fault_seed_changes_fault_schedule(self):
        _, _, tallies_a = self.run_faulted_demo(fault_seed=11)
        _, _, tallies_b = self.run_faulted_demo(fault_seed=12)
        assert tallies_a != tallies_b


class TestCheckpointVersioning:
    """A stale checkpoint schema must be ignored, never crash the agent."""

    def test_version_field_serialised(self):
        machine, sampler, agent, obs = build_rig()
        checkpoint = agent.take_checkpoint(0)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.to_dict()["version"] == CHECKPOINT_VERSION

    def test_from_dict_rejects_mismatched_version(self):
        machine, sampler, agent, obs = build_rig()
        data = agent.take_checkpoint(0).to_dict()
        data["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointVersionError,
                           match="checkpoint schema version"):
            AgentCheckpoint.from_dict(data)

    def test_from_dict_rejects_missing_version(self):
        machine, sampler, agent, obs = build_rig()
        data = agent.take_checkpoint(0).to_dict()
        del data["version"]
        with pytest.raises(CheckpointVersionError):
            AgentCheckpoint.from_dict(data)

    def test_restore_from_dict_counts_mismatch_and_keeps_working(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        data = agent.take_checkpoint(t).to_dict()
        data["version"] = 99

        agent.crash(t + 1)
        assert agent.restore_from_dict(data, t + 1) is False
        assert obs.metrics.total("checkpoint_version_mismatch") == 1
        assert agent._followups == []          # relearns instead of loading
        # The agent stays functional after rejecting the stale file.
        run_rig(machine, sampler, agent, t + 2, t + 60)

    def test_restore_from_dict_round_trips_current_version(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        data = json.loads(json.dumps(agent.take_checkpoint(t).to_dict()))

        agent.crash(t + 1)
        assert agent.restore_from_dict(data, t + 1) is True
        assert obs.metrics.total("checkpoint_version_mismatch") == 0
        assert len(agent._followups) == 1
