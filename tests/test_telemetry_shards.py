"""Golden-parity tests for the fleet telemetry plane under sharding.

The telemetry plane's acceptance contract: the scraped time series, the
alert history, and the rendered fleet console must be *byte-identical*
between a single-process run and a sharded run at any worker count.  The
coordinator scrapes a sum of portable per-worker registry states at every
barrier; these tests pin that the sum equals the single-process registry
scrape-for-scrape, clean and under injected chaos.

Also here: the chaos-alert smoke CI leans on — the ``heavy`` fault profile
must deterministically fire ``agent_crash_storm``.
"""

from __future__ import annotations

from repro.cluster.shards import run_sharded
from repro.core.config import CpiConfig
from repro.experiments.chaos import chaos_scenario
from repro.experiments.scenarios import demo_scenario, scale_scenario
from repro.faults.profile import FAULT_PROFILES
from tests.test_shards import (FORKS, assert_start_path, fresh_pool_replay,
                               single_replay)

#: Mirrors tests/test_shards.py: small enough to run repeatedly, big enough
#: that 2- and 4-worker plans split jobs and machines across processes.
SCALE_KWARGS = dict(num_machines=6, seed=11, num_service_jobs=2,
                    num_batch_jobs=2, tasks_per_job=6,
                    config=CpiConfig(spec_refresh_period=600,
                                     min_samples_per_task=5),
                    telemetry=True)

CHAOS_KWARGS = dict(seed=0, num_machines=4, fault_profile="moderate",
                    fault_seed=1, telemetry=True)


def _surfaces(obs, console) -> dict[str, str]:
    """The three byte-parity surfaces, as strings."""
    return {
        "timeseries": "\n".join(obs.timeseries.dump_lines()),
        "alerts": "\n".join(obs.alerts.dump_lines()),
        "console": console.render() + "\n" + console.to_json(),
    }


def _single(builder, kwargs, seconds: int) -> dict[str, str]:
    scenario = builder(**kwargs)
    scenario.simulation.run(seconds)
    pipeline = scenario.pipeline
    return _surfaces(pipeline.obs, pipeline.fleet_console())


def _sharded(builder, kwargs, seconds: int, jobs: int) -> dict[str, str]:
    result = run_sharded(builder, kwargs, seconds=seconds, jobs=jobs)
    return _surfaces(result.pipeline.obs, result.fleet_console())


def test_telemetry_clean_parity():
    """Clean fleet: series, alerts, console identical at 1/2/4 shards."""
    seconds = 20 * 60
    baseline = _single(scale_scenario, SCALE_KWARGS, seconds)
    assert baseline["timeseries"]            # scrapes actually happened
    assert "samples_ingested" in baseline["timeseries"]
    assert "fleet_machines" in baseline["timeseries"]
    for jobs in (1, 2, 4):
        assert _sharded(scale_scenario, SCALE_KWARGS, seconds,
                        jobs) == baseline, f"jobs={jobs}"


def test_telemetry_chaos_parity():
    """Moderate chaos: faults, crashes, and quarantines cross the barrier
    wire as registry states and still scrape byte-identically."""
    seconds = 3600
    baseline = _single(chaos_scenario, CHAOS_KWARGS, seconds)
    assert "transport_faults" in baseline["timeseries"]
    assert "faults injected" in baseline["console"]
    for jobs in (1, 2, 4):
        assert _sharded(chaos_scenario, CHAOS_KWARGS, seconds,
                        jobs) == baseline, f"jobs={jobs}"


def test_fresh_pool_adoption_parity_with_kill():
    """Moderate chaos plus an aggregator kill, telemetry on: workers forked
    for the run adopt the coordinator's replica, and every output — the
    TSDB dump and alert history included — matches the in-process run."""
    seconds = 3600
    kwargs = dict(CHAOS_KWARGS, fault_profile=FAULT_PROFILES[
        "moderate"].with_overrides(aggregator_kill_ticks=(1500,),
                                   aggregator_outage_seconds=120))
    baseline, pipeline = single_replay(chaos_scenario, kwargs, seconds)
    assert pipeline.host.restarts == 1         # the kill really fired
    assert baseline["incidents"]
    series = pipeline.obs.timeseries.dump_lines()
    alerts = pipeline.obs.alerts.dump_lines()
    assert series
    for jobs in (2, 4):
        replay, result = fresh_pool_replay(chaos_scenario, kwargs, seconds,
                                           jobs)
        assert replay == baseline, f"jobs={jobs}"
        assert result.obs.timeseries.dump_lines() == series, f"jobs={jobs}"
        assert result.obs.alerts.dump_lines() == alerts, f"jobs={jobs}"
        assert result.pipeline.host.restarts == 1
        assert_start_path(result, jobs, adopted=FORKS)


def test_heavy_chaos_fires_crash_storm_alert():
    """The CI chaos smoke's contract: heavy chaos must page somebody."""
    scenario = chaos_scenario(seed=0, num_machines=4, fault_profile="heavy",
                              fault_seed=1, telemetry=True)
    scenario.simulation.run(1800)
    engine = scenario.pipeline.obs.alerts
    assert engine.fired_counts().get("agent_crash_storm", 0) >= 1
    fired = [r for r in engine.history if r["event"] == "alert_fired"]
    assert fired[0]["severity"] == "critical"


def test_clean_demo_stays_green():
    """No alert may fire on the clean quickstart — green-fleet guarantee."""
    scenario = demo_scenario(telemetry=True)
    scenario.simulation.run(3600)
    assert scenario.pipeline.obs.alerts.history == []


def test_telemetry_off_records_nothing():
    """Without the flag the plane is absent: no TSDB, no alerts, no cost."""
    scenario = demo_scenario()
    scenario.simulation.run(600)
    obs = scenario.pipeline.obs
    assert obs.timeseries is None
    assert obs.alerts is None
    assert not obs.telemetry_enabled
