"""Provenance-keyed run ledger: an append-only archive of every run.

Every :class:`~repro.runtime.driver.RunResult` already carries a
SHA-256 provenance manifest (:mod:`repro.obs.provenance`), but results
evaporate when the process exits.  The :class:`RunLedger` keeps them:
an on-disk, content-addressed store recording what was simulated, what
verdict it produced, and how fast it ran — the timeline the ``repro
ledger`` CLI (``list`` / ``show`` / ``diff``) reads, and the cache
behind ``RunConfig(ledger=...)``, which serves an identical re-run
bit-identically from the archive instead of re-simulating it.

Layout (all under one root directory)::

    index.jsonl                     append-only, one summary line per
                                    record in write order — the timeline
    records/<key[:2]>/<key>.json    full record, content-addressed
    .lock                           advisory write lock

Keys are SHA-256 over the run's identity: the provenance ``config_hash``
(machine params + the data knobs of the run config), the scenario, the
package version and an explicit rendering of the workload loop — two
invocations share a key iff they would simulate the same thing.
Diffsweep records are keyed over their whole summary document, so an
identical sweep deduplicates.

Write discipline: records land via temp-file + ``os.replace`` (readers
never see partial JSON) and the existence-check → record write → index
append sequence runs under an ``fcntl`` advisory lock, so pooled
workers (``--jobs 4``) can append to one ledger concurrently without
torn index lines or duplicate entries.  A :class:`RunLedger` instance
is stateless (root path + flags, no open handles), so it pickles into
pool tasks unchanged.

The null path costs nothing: when ``RunConfig.ledger`` is ``None`` the
driver never imports this module.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

try:  # advisory locking is POSIX-only; elsewhere writes are best-effort
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .provenance import _jsonable, fingerprint, run_provenance

__all__ = [
    "LEDGER_DIR",
    "RunLedger",
    "as_ledger",
    "ledger_key",
    "loop_fingerprint",
    "loop_fingerprint_doc",
    "span_rollup",
]

#: default archive location (relative to the working directory);
#: overridable everywhere a ledger path is accepted
LEDGER_DIR = ".repro-ledger"


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def loop_fingerprint_doc(loop) -> Dict[str, Any]:
    """Canonical rendering of a workload loop for hashing.

    ``Loop`` is a plain class (not a dataclass), so ``_jsonable`` would
    drop it; render its data fields explicitly.  The op objects inside
    ``iterations`` are frozen dataclasses and hash via ``_jsonable``.
    """
    return {
        "name": loop.name,
        "arrays": [_jsonable(spec) for spec in loop.arrays],
        "iterations": [
            [_jsonable(op) for op in ops] for ops in loop.iterations
        ],
        "weights": _jsonable(getattr(loop, "iteration_weights", None)),
    }


def loop_fingerprint(loop) -> str:
    """Digest of :func:`loop_fingerprint_doc`, memoized on the loop
    instance.

    Rendering every op of a workload is the expensive part of keying a
    run (O(ops)); workload loops are immutable once generated, so the
    digest is computed once per loop object and cached — this is what
    keeps steady-state ledger-enabled runs inside the <3% overhead
    gate."""
    fp = getattr(loop, "_ledger_fp", None)
    if fp is None:
        fp = fingerprint(loop_fingerprint_doc(loop))
        try:
            loop._ledger_fp = fp
        except (AttributeError, TypeError):  # pragma: no cover - slots
            pass
    return fp


def ledger_key(scenario, loop, params, config=None, provenance=None) -> str:
    """Content address of one run: same key iff the simulation would be
    identical (machine params, data config knobs, package version,
    scenario and the full workload loop).

    ``provenance`` short-circuits the :func:`run_provenance` call when
    the caller already holds the stamped manifest for exactly this
    ``(params, config, scenario)`` — the commit path reuses the one on
    the finished result."""
    scenario_value = getattr(scenario, "value", scenario)
    prov = provenance
    if prov is None:
        prov = run_provenance(params, config, scenario=scenario_value,
                              loop_name=loop.name)
    return fingerprint(
        {
            "config_hash": prov.config_hash,
            "scenario": scenario_value,
            "package_version": prov.package_version,
            "loop_fp": loop_fingerprint(loop),
        }
    )


# ----------------------------------------------------------------------
# span rollup (recorded alongside each run, printed by --profile-out)
# ----------------------------------------------------------------------
def span_rollup(spans: List[Dict[str, Any]], root_sid: int) -> Dict[str, Any]:
    """p50/p95 phase stats + per-phase wall totals for one span subtree
    (``spans`` as recorded by a ``SpanProfiler``, ``root_sid`` the root
    span id: one run's span for a ledger record, the CLI's root span
    under ``--profile-out``)."""
    from .spans import percentile

    parents = {s["sid"]: s.get("parent") for s in spans}

    def _under_root(sid: Optional[int]) -> bool:
        while sid is not None:
            if sid == root_sid:
                return True
            sid = parents.get(sid)
        return False

    breakdown: Dict[str, float] = {}
    durations: List[float] = []
    run_wall = None
    for s in spans:
        if s.get("t1") is None:
            continue
        if s["sid"] == root_sid:
            run_wall = s["t1"] - s["t0"]
            continue
        if not _under_root(s["sid"]):
            continue
        if s.get("cat") == "phase":
            dur = s["t1"] - s["t0"]
            durations.append(dur)
            breakdown[s["name"]] = round(breakdown.get(s["name"], 0.0) + dur, 9)
    return {
        "run_wall_s": round(run_wall, 9) if run_wall is not None else None,
        "phase_s": {
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "count": len(durations),
        },
        "phase_breakdown_s": breakdown,
    }


# ----------------------------------------------------------------------
# the archive
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunLedger:
    """Handle on one on-disk ledger directory.

    Stateless by design — the instance is just the root path plus
    flags, so it can ride inside a frozen ``RunConfig`` through pickled
    pool tasks.  All I/O happens per call.
    """

    root: str = LEDGER_DIR
    #: serve identical re-runs from the archive (the cache-read path);
    #: turn off to keep recording while always re-simulating (how the
    #: write-path overhead gate measures the genuine cost)
    serve_hits: bool = True

    # -- paths ----------------------------------------------------------
    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    def record_path(self, key: str) -> str:
        return os.path.join(self.root, "records", key[:2], f"{key}.json")

    @contextmanager
    def _locked(self):
        os.makedirs(self.root, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(os.path.join(self.root, ".lock"), "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    # -- generic write ---------------------------------------------------
    def _write(self, key: str, kind: str, doc: Dict[str, Any],
               summary: Dict[str, Any]) -> bool:
        """Archive one record atomically; returns whether it was a
        dedupe (the content-addressed record already existed)."""
        path = self.record_path(key)
        with self._locked():
            if os.path.exists(path):
                return True
            os.makedirs(os.path.dirname(path), exist_ok=True)
            record = {"key": key, "kind": kind, "schema": 1, **doc}
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(record, fh, indent=2)
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):  # pragma: no cover - error path
                    os.unlink(tmp)
                raise
            line = {"key": key, "kind": kind,
                    "written_at": round(time.time(), 3), **summary}
            with open(self.index_path, "a") as fh:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        return False

    # -- record kinds ----------------------------------------------------
    def record_result(
        self,
        result,
        key: str,
        host_wall_s: Optional[float] = None,
        rollup: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Archive one ``RunResult`` under ``key`` (its :func:`ledger_key`);
        returns whether it was a dedupe."""
        from ..experiments.serialize import run_result_to_dict

        # Records are content-addressed and never rewritten, so one that
        # exists already is a dedupe: skip serializing the result and
        # taking the lock.  ``_write`` checks again under the lock.
        if os.path.exists(self.record_path(key)):
            return True
        doc = {
            "result": run_result_to_dict(result),
            "host_wall_s": (
                round(host_wall_s, 6) if host_wall_s is not None else None
            ),
            "span_rollup": rollup,
        }
        summary = {
            "scenario": result.scenario.value,
            "loop": result.loop_name,
            "passed": result.passed,
            "wall_cycles": result.wall,
            "host_wall_s": doc["host_wall_s"],
        }
        return self._write(key, "run", doc, summary)

    def record_diffsweep(self, doc: Dict[str, Any], label: str = "") -> Tuple[str, bool]:
        """Archive one differential-conformance sweep summary."""
        key = fingerprint({"kind": "diffsweep", "doc": doc})
        summary = {
            "label": label,
            "seeds": doc.get("seeds"),
            "conforming": doc.get("conforming"),
        }
        deduped = self._write(key, "diffsweep", {"label": label, **doc},
                              summary)
        return key, deduped

    # -- read paths ------------------------------------------------------
    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """Full record dict for ``key``, or None."""
        path = self.record_path(key)
        try:
            with open(path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def serve(self, key: str):
        """Reconstruct the archived ``RunResult`` for ``key`` (None on
        miss or when the record isn't a servable run record)."""
        record = self.lookup(key)
        if record is None or record.get("kind") != "run":
            return None
        from ..experiments.serialize import run_result_from_dict

        return run_result_from_dict(record["result"])

    def records(self, kind: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Index lines in write order (the timeline), oldest first."""
        try:
            fh = open(self.index_path)
        except FileNotFoundError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                if kind is None or entry.get("kind") == kind:
                    yield entry

    def resolve(self, prefix: str) -> str:
        """Resolve a (possibly abbreviated) key to the full key."""
        matches = sorted(
            {e["key"] for e in self.records() if e["key"].startswith(prefix)}
        )
        if not matches:
            raise KeyError(f"no ledger record matches {prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous key prefix {prefix!r}: "
                + ", ".join(k[:12] for k in matches)
            )
        return matches[0]


def as_ledger(value) -> RunLedger:
    """Coerce a ``RunConfig.ledger`` value: a :class:`RunLedger` passes
    through, a path (str / PathLike) opens a ledger rooted there."""
    if isinstance(value, RunLedger):
        return value
    return RunLedger(root=os.fspath(value))

