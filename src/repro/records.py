"""The CPI2 wire records (paper Section 3.1).

Two record types cross the pipeline:

1. Per-task samples flowing *up* from machines to the aggregator::

       string jobname;
       string platforminfo;   // e.g., CPU type
       int64  timestamp;      // microsec since epoch
       float  cpu_usage;      // CPU-sec/sec
       float  cpi;

2. Per-(job, platform) specs flowing *down* from the aggregator to machines::

       string jobname;
       string platforminfo;
       int64  num_samples;
       float  cpu_usage_mean;
       float  cpi_mean;
       float  cpi_stddev;

We keep the field names and semantics verbatim (timestamps in microseconds
since the epoch, CPU usage in CPU-sec/sec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["SpecKey", "CpiSample", "CpiSpec", "sample_to_dict",
           "sample_from_dict"]

MICROSECONDS_PER_SECOND = 1_000_000


class SpecKey(NamedTuple):
    """Aggregation key: CPI2 computes specs per job x CPU platform."""

    jobname: str
    platforminfo: str


@dataclass(frozen=True)
class CpiSample:
    """One task's CPI measurement over one sampling window.

    Attributes:
        jobname: owning job (aggregation key part 1).
        platforminfo: CPU platform of the machine (aggregation key part 2).
        timestamp: microseconds since the epoch at the window's *end*.
        cpu_usage: mean CPU-sec/sec over the window.
        cpi: cycles divided by instructions over the window.
        taskname: the specific task (not in the paper's wire record, but
            needed by the local agent to track per-task outlier streaks; it
            never leaves the machine in the upward record semantics).
    """

    jobname: str
    platforminfo: str
    timestamp: int
    cpu_usage: float
    cpi: float
    taskname: str = ""

    def __post_init__(self) -> None:
        if self.cpu_usage < 0:
            raise ValueError(f"cpu_usage must be >= 0, got {self.cpu_usage}")
        if self.cpi < 0:
            raise ValueError(f"cpi must be >= 0, got {self.cpi}")

    @property
    def timestamp_seconds(self) -> float:
        """Timestamp converted to seconds since the epoch."""
        return self.timestamp / MICROSECONDS_PER_SECOND

    def key(self) -> SpecKey:
        """The (job, platform) aggregation key for this sample."""
        return SpecKey(self.jobname, self.platforminfo)


def sample_to_dict(sample: CpiSample) -> dict:
    """A plain-dict form of one sample (JSON-safe), keys in field order.

    The one sample codec, for JSONL sample files, the spec-store WAL and
    agent checkpoints; :mod:`repro.core.storage` and
    :mod:`repro.faults.checkpoint` re-export it.
    """
    return {
        "jobname": sample.jobname,
        "platforminfo": sample.platforminfo,
        "timestamp": sample.timestamp,
        "cpu_usage": sample.cpu_usage,
        "cpi": sample.cpi,
        "taskname": sample.taskname,
    }


def sample_from_dict(data: dict) -> CpiSample:
    """Rebuild a sample; raises on missing/extra keys so corruption is loud."""
    expected = {"jobname", "platforminfo", "timestamp", "cpu_usage", "cpi",
                "taskname"}
    if set(data) != expected:
        raise ValueError(
            f"bad sample record: keys {sorted(data)} != {sorted(expected)}")
    return CpiSample(**data)


@dataclass(frozen=True)
class CpiSpec:
    """A job's learned CPI behaviour on one platform — its predicted CPI.

    "Since the CPI changes only slowly with time, the CPI spec also acts as a
    predicted CPI for the normal behavior of a job."
    """

    jobname: str
    platforminfo: str
    num_samples: int
    cpu_usage_mean: float
    cpi_mean: float
    cpi_stddev: float

    def __post_init__(self) -> None:
        if self.num_samples < 0:
            raise ValueError(f"num_samples must be >= 0, got {self.num_samples}")
        if self.cpi_mean <= 0:
            raise ValueError(f"cpi_mean must be positive, got {self.cpi_mean}")
        if self.cpi_stddev < 0:
            raise ValueError(f"cpi_stddev must be >= 0, got {self.cpi_stddev}")

    def key(self) -> SpecKey:
        """The (job, platform) key this spec describes."""
        return SpecKey(self.jobname, self.platforminfo)

    def outlier_threshold(self, num_stddevs: float = 2.0) -> float:
        """The CPI above which a sample is flagged (mean + k sigma, k=2 default)."""
        if num_stddevs < 0:
            raise ValueError(f"num_stddevs must be >= 0, got {num_stddevs}")
        return self.cpi_mean + num_stddevs * self.cpi_stddev
