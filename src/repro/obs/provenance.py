"""Run provenance: a stable fingerprint of *what exactly* was simulated.

Every :class:`~repro.runtime.driver.RunResult` is stamped with a
:class:`RunProvenance` so serialized results can always be traced back
to the machine description, run configuration, schedule and package
version that produced them.  Hashes are SHA-256 over a canonical JSON
rendering (sorted keys, enums by value, callables excluded), so two
identical configurations hash identically across processes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

__all__ = ["RunProvenance", "canonical_json", "fingerprint", "run_provenance"]


def _jsonable(obj: Any) -> Any:
    """Render dataclasses/enums/collections as canonical JSON types.
    Non-data values (callables, machine objects) are dropped."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not callable(getattr(obj, f.name))
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        # Iteration order of sets is hash-seed dependent, so falling
        # through to repr() would fingerprint the same value differently
        # across processes; canonicalize as a sorted list instead.
        return sorted(
            (_jsonable(v) for v in obj),
            key=lambda r: json.dumps(r, sort_keys=True, separators=(",", ":")),
        )
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def canonical_json(obj: Any) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class RunProvenance:
    """Manifest identifying one simulated run."""

    #: hash over machine params + run config together (the identity of
    #: the simulated experiment, minus the workload)
    config_hash: str
    #: hash over the machine params alone
    params_hash: str
    #: human-readable schedule description
    schedule: str
    package_version: str
    scenario: Optional[str] = None
    loop_name: Optional[str] = None
    seed: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def run_provenance(
    params,
    config=None,
    scenario: Optional[str] = None,
    loop_name: Optional[str] = None,
    seed: Optional[int] = None,
) -> RunProvenance:
    """Build the provenance manifest for one run.

    ``params`` is a :class:`~repro.params.MachineParams`; ``config`` an
    optional :class:`~repro.runtime.driver.RunConfig`.  Non-data config
    fields (``machine_hook``, ``telemetry``, ``monitors``) never enter
    the hash.
    """
    from .. import __version__

    run_key = None
    if config is not None:
        run_key = (
            config.schedule,
            config.sparse_backup,
            config.sw_read_in,
            config.timestamp_bits,
            config.per_line_bits,
        )
    config_hash, params_hash, schedule_text = _hashes(params, run_key)
    return RunProvenance(
        config_hash=config_hash,
        params_hash=params_hash,
        schedule=schedule_text,
        package_version=__version__,
        scenario=scenario,
        loop_name=loop_name,
        seed=seed,
    )


@functools.lru_cache(maxsize=1024)
def _hashes(params, run_key) -> Tuple[str, str, str]:
    """``(config_hash, params_hash, schedule text)`` for one
    ``(params, run_key)`` pair, hashed once: a sweep's runs share a
    handful of pairs.  The config document is built from the key
    itself, so key and hash cannot drift apart.  Keys match by
    equality, so equal values must render equally (which is why
    ``ContentionModel`` stores its occupancy factor as a float)."""
    params_doc = _jsonable(params)
    config_doc: Dict[str, Any] = {}
    schedule_text = "default"
    if run_key is not None:
        schedule, sparse_backup, sw_read_in, timestamp_bits, per_line_bits = run_key
        config_doc = {
            "schedule": _jsonable(schedule),
            "sparse_backup": sparse_backup,
            "sw_read_in": sw_read_in,
            "timestamp_bits": timestamp_bits,
            "per_line_bits": per_line_bits,
        }
        schedule_text = (
            f"{schedule.policy.value}/chunk={schedule.chunk_iterations}"
            f"/{schedule.virtual_mode.value}"
        )
    return (
        fingerprint({"params": params_doc, "config": config_doc}),
        fingerprint(params_doc),
        schedule_text,
    )
