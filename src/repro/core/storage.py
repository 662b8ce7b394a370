"""Durable storage for specs, samples and incident logs.

Two of CPI2's data flows outlive a process:

* **Spec history** — "Other jobs run repeatedly, and have similar behavior
  on each invocation, so historical CPI data has significant value: if we
  have seen a previous run of a job, we don't have to build a new model of
  its CPI behavior from scratch."  (Section 3.1.)
* **The incident log** — "To allow offline analysis, we log and store data
  about CPIs and suspected antagonists."  (Section 5.)

Everything here is JSON-lines: one record per line, append-friendly,
greppable, and loadable into the matching in-memory types.

Loaders tolerate a *torn tail*: a final line that fails to parse (partial
JSON from a write interrupted by a crash) is skipped with a counted
``storage_torn_tail`` warning — the same rule the spec-store WAL recovery
applies — while corruption anywhere earlier in the file still raises with
the path and line number.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.core.forensics import ForensicsStore, IncidentRecord
from repro.obs import Observability, default_observability
from repro.records import (CpiSample, CpiSpec, sample_from_dict,
                           sample_to_dict)

__all__ = [
    "spec_to_dict", "spec_from_dict", "save_specs", "load_specs",
    "sample_to_dict", "sample_from_dict", "save_samples", "load_samples",
    "save_forensics", "load_forensics",
]

PathLike = Union[str, Path]


def _load_jsonl(path: PathLike, parse: Callable[[dict], object], kind: str,
                obs: Optional[Observability] = None) -> list:
    """Parse one record per line, torn-tail tolerant.

    A record that fails to parse raises ``ValueError`` naming the path and
    line — unless it is the final non-blank line *and* the failure is a
    JSON parse error (partial JSON is what an interrupted write leaves
    behind), in which case the torn tail is skipped with a counted
    warning.  A final line that parses as JSON but has the wrong schema is
    not a torn write and still raises.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    last = max((i for i, line in enumerate(lines) if line.strip()),
               default=-1)
    out: list = []
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as error:
            if index != last:
                raise ValueError(
                    f"{path}:{index + 1}: {error}") from error
            obs = obs or default_observability()
            obs.metrics.counter("storage_torn_tail", kind=kind).inc()
            obs.events.warning("storage_torn_tail", path=str(path),
                               line=index + 1, kind=kind, error=str(error))
            continue
        try:
            out.append(parse(record))
        except ValueError as error:
            raise ValueError(f"{path}:{index + 1}: {error}") from error
    return out


# -- specs ---------------------------------------------------------------------

def spec_to_dict(spec: CpiSpec) -> dict:
    """A plain-dict form of one spec (JSON-safe)."""
    return {
        "jobname": spec.jobname,
        "platforminfo": spec.platforminfo,
        "num_samples": spec.num_samples,
        "cpu_usage_mean": spec.cpu_usage_mean,
        "cpi_mean": spec.cpi_mean,
        "cpi_stddev": spec.cpi_stddev,
    }


def spec_from_dict(data: dict) -> CpiSpec:
    """Rebuild a spec; raises on missing/extra keys so corruption is loud."""
    expected = {"jobname", "platforminfo", "num_samples", "cpu_usage_mean",
                "cpi_mean", "cpi_stddev"}
    if set(data) != expected:
        raise ValueError(
            f"bad spec record: keys {sorted(data)} != {sorted(expected)}")
    return CpiSpec(**data)


def save_specs(path: PathLike, specs: Iterable[CpiSpec]) -> int:
    """Write specs as JSON lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for spec in specs:
            handle.write(json.dumps(spec_to_dict(spec)) + "\n")
            count += 1
    return count


def load_specs(path: PathLike,
               obs: Optional[Observability] = None) -> list[CpiSpec]:
    """Read specs written by :func:`save_specs` (torn-tail tolerant)."""
    return _load_jsonl(path, spec_from_dict, "specs", obs=obs)


# -- samples ---------------------------------------------------------------------
# ``sample_to_dict``/``sample_from_dict`` are the record codec from
# :mod:`repro.records`, shared with agent checkpoints.

def save_samples(path: PathLike, samples: Iterable[CpiSample]) -> int:
    """Write samples as JSON lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample_to_dict(sample)) + "\n")
            count += 1
    return count


def load_samples(path: PathLike,
                 obs: Optional[Observability] = None) -> list[CpiSample]:
    """Read samples written by :func:`save_samples` (torn-tail tolerant)."""
    return _load_jsonl(path, sample_from_dict, "samples", obs=obs)


# -- forensics --------------------------------------------------------------------

def save_forensics(path: PathLike, store: ForensicsStore) -> int:
    """Persist an incident log; returns the number of records written."""
    rows = store.to_dicts()
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return len(rows)


def load_forensics(path: PathLike,
                   obs: Optional[Observability] = None) -> ForensicsStore:
    """Load an incident log written by :func:`save_forensics`."""
    field_names = set(IncidentRecord.__dataclass_fields__)

    def parse(data: dict) -> IncidentRecord:
        if set(data) != field_names:
            raise ValueError("bad incident record keys")
        return IncidentRecord(**data)

    store = ForensicsStore()
    for record in _load_jsonl(path, parse, "forensics", obs=obs):
        store.add_record(record)
    return store
