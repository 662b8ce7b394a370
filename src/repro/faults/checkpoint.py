"""Agent checkpoint/recovery and crash injection.

A management agent is an ordinary process: it gets OOM-killed, upgraded,
or taken down with its machine's kernel.  What must survive a restart is
the state that *cannot be relearned quickly*: the per-task outlier windows
(losing them silences detection for minutes) and the in-flight follow-ups
(losing one means an applied hard-cap is never checked and its incident
never finalised — an anomalous task silently forgotten mid-incident).

:class:`AgentCheckpoint` is the serialisable snapshot of exactly that
state.  It round-trips through plain JSON-able dicts — the simulation
restores in-memory, but the format is what a real agent would fsync.
:class:`CrashInjector` draws crash times from a seeded generator so a
(profile, seed) pair replays the same crash schedule exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional

import numpy as np

# The same sample codec ``repro.core.storage`` exports, taken from its home
# beside the record type: importing anything under ``repro.core`` runs that
# package's ``__init__``, which imports the agent, which imports this module.
from repro.records import sample_from_dict, sample_to_dict

__all__ = ["CHECKPOINT_VERSION", "CheckpointVersionError", "FollowUpState",
           "AgentCheckpoint", "CrashInjector",
           "sample_to_dict", "sample_from_dict"]

#: Current checkpoint schema version.  Bump on any incompatible change to
#: the serialised layout; agents ignore (never crash on) mismatches.
CHECKPOINT_VERSION = 1


class CheckpointVersionError(ValueError):
    """A serialised checkpoint carries an unknown schema version."""


@dataclass(frozen=True)
class FollowUpState:
    """The durable core of one in-flight recovery check.

    Tasks are referenced by name (they live in the machine, not the
    agent); the incident fields are enough to finalise the incident after
    a restart even if the original in-memory object is gone.
    """

    due_at: int
    victim_taskname: str
    antagonist_taskname: str
    incident_id: int
    incident_time: int
    victim_jobname: str
    victim_cpi: float
    cpi_threshold: float
    action: str

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FollowUpState":
        return cls(**data)


@dataclass
class AgentCheckpoint:
    """Everything a restarted agent needs to keep working an incident."""

    machine: str
    taken_at: int
    last_analysis: Optional[int]
    anomalies_seen: int
    #: taskname -> that task's recent samples (the correlation window).
    windows: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    #: taskname -> in-window outlier flag timestamps (detector streaks).
    detector_flags: dict[str, list[int]] = field(default_factory=dict)
    followups: list[FollowUpState] = field(default_factory=list)
    #: Schema version this checkpoint was taken under.
    version: int = CHECKPOINT_VERSION

    def to_dict(self) -> dict[str, Any]:
        """The checkpoint as a JSON-able dict (what a real agent persists)."""
        return {
            "version": self.version,
            "machine": self.machine,
            "taken_at": self.taken_at,
            "last_analysis": self.last_analysis,
            "anomalies_seen": self.anomalies_seen,
            "windows": self.windows,
            "detector_flags": self.detector_flags,
            "followups": [f.to_dict() for f in self.followups],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AgentCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output.

        Raises:
            CheckpointVersionError: for a checkpoint written under a
                different schema version (a stale file from before an
                upgrade, or from after a downgrade).  Callers should treat
                this as "no checkpoint" — relearn, don't crash.
        """
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint schema version {version!r} != "
                f"{CHECKPOINT_VERSION} (machine {data.get('machine')!r})")
        return cls(
            machine=data["machine"],
            taken_at=data["taken_at"],
            last_analysis=data["last_analysis"],
            anomalies_seen=data["anomalies_seen"],
            windows={k: list(v) for k, v in data["windows"].items()},
            detector_flags={k: list(v)
                            for k, v in data["detector_flags"].items()},
            followups=[FollowUpState.from_dict(f)
                       for f in data["followups"]],
        )


class CrashInjector:
    """Draws one machine's agent-crash schedule, deterministically."""

    def __init__(self, crash_rate: float, rng: np.random.Generator):
        """Args:
            crash_rate: per-second crash probability (0 disables).
            rng: private seeded generator.
        """
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError(
                f"crash_rate must be in [0, 1], got {crash_rate}")
        self.crash_rate = crash_rate
        self.rng = rng
        self.crashes = 0

    def should_crash(self) -> bool:
        """Bernoulli draw for this second; counts positives."""
        if self.crash_rate <= 0.0:
            return False
        if self.rng.random() < self.crash_rate:
            self.crashes += 1
            return True
        return False
