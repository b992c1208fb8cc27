"""Process-pool execution engine for independent simulation runs.

Every evaluation surface in this repo — parameter sweeps, the
differential conformance seed sweep, the paper-figure scenarios — is
a matrix of *independent, deterministic* simulations.
This module fans such a task list out across cores while keeping the
results indistinguishable from serial execution:

* **Submission-order assembly.**  ``run_tasks`` returns one result per
  task, in the order the tasks were given, regardless of completion
  order.  Combined with the simulator's determinism this makes the
  output of ``jobs=N`` bit-identical to ``jobs=1`` (pinned by the
  conformance tests).
* **Deterministic per-task seeding.**  A task with ``seed`` set has
  ``random`` (and numpy's global RNG, when numpy is already imported)
  seeded with exactly that value before its function runs — in a
  worker *or* inline.  The inline path saves and restores the caller's
  RNG state, so degradation cannot perturb the parent process.  :func:`derive_seed` gives a stable
  per-index seed from a base seed.
* **Fault handling.**  Each task gets a per-attempt ``timeout`` and a
  bounded number of ``retries`` with exponential backoff.  A worker
  that dies (``BrokenProcessPool``) or hangs (timeout) is killed, the
  pool is rebuilt, and the affected tasks are resubmitted; a task whose
  retries are exhausted — or that cannot be pickled at all — degrades
  to inline execution in the calling process.  No task is ever lost.
* **Observability.**  Pass ``bus`` (a :class:`repro.obs.EventBus`) to
  see the fan-out as ``pool``-subsystem events: ``PoolStartEvent``,
  per-task ``PoolTaskEvent``, ``PoolWorkerFailureEvent`` on every
  failed attempt, and a closing ``PoolEndEvent``.  Pool events carry
  host seconds since the pool started (not simulated cycles).

Task functions must be module-level (picklable by reference) and their
arguments plain data; anything else simply runs inline.

A ``RunConfig`` carrying a ``repro.obs.RunLedger`` pickles into workers
unchanged (the ledger is stateless: a root path plus flags), and the
ledger's flock-guarded appends make concurrent worker commits to one
archive safe — ``--jobs 4`` sweeps append to a single ``index.jsonl``
without torn lines or duplicate records.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import random
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.bus import EventBus
from ..obs.events import (
    PoolEndEvent,
    PoolStartEvent,
    PoolTaskEvent,
    PoolWorkerFailureEvent,
)

__all__ = ["PoolTask", "run_tasks", "resolve_jobs", "derive_seed"]

#: default bounded-retry budget for worker-side failures
DEFAULT_RETRIES = 2
#: base of the exponential backoff between retry attempts, in seconds
DEFAULT_BACKOFF = 0.05

_UNSET = object()


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None``/``0``/negative means "one worker per core"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def derive_seed(base: int, index: int) -> int:
    """Stable, well-mixed per-task seed from a base seed and an index."""
    digest = hashlib.blake2b(f"{base}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclasses.dataclass(frozen=True)
class PoolTask:
    """One unit of independent work for :func:`run_tasks`.

    ``fn`` must be a module-level callable; ``args``/``kwargs`` plain
    data.  When ``seed`` is set the RNGs are seeded with it immediately
    before ``fn`` runs, wherever it runs.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    seed: Optional[int] = None
    label: str = ""


def _seed_rngs(seed: int) -> None:
    random.seed(seed)
    # Seeding never imports numpy, so workers of numpy-free tasks stay
    # numpy-free.  No code here draws from numpy's global RNG; numpy
    # users draw from their own ``default_rng(seed)``.
    np = sys.modules.get("numpy")
    if np is not None:
        np.random.seed(seed & 0xFFFF_FFFF)


def _invoke(task: PoolTask) -> Any:
    """Worker-side entry point: seed, then run."""
    if task.seed is not None:
        _seed_rngs(task.seed)
    return task.fn(*task.args, **dict(task.kwargs))


def _invoke_captured(task: PoolTask) -> Tuple[Any, Dict[str, Any]]:
    """Worker-side entry point with profiling capture installed.

    Runs the task under a :class:`~repro.obs.spans.WorkerCapture` (span
    profiler + event bus + metrics collector) and returns
    ``(value, capture_snapshot)`` — the snapshot is plain picklable data
    riding back on the same pickling path as the result, so pooled
    results stay bit-identical whether or not profiling is on.
    """
    from ..obs.spans import WorkerCapture

    if task.seed is not None:
        _seed_rngs(task.seed)
    capture = WorkerCapture(label=task.label)
    capture.install()
    try:
        value = task.fn(*task.args, **dict(task.kwargs))
    finally:
        capture.uninstall()
    return value, capture.snapshot()


def _invoke_inline(task: PoolTask) -> Any:
    """Run a task in the calling process without perturbing its RNGs."""
    if task.seed is None:
        return task.fn(*task.args, **dict(task.kwargs))
    state = random.getstate()
    np = sys.modules.get("numpy")
    np_state = np.random.get_state() if np is not None else None
    try:
        _seed_rngs(task.seed)
        return task.fn(*task.args, **dict(task.kwargs))
    finally:
        random.setstate(state)
        if np is not None:
            np.random.set_state(np_state)


def _invoke_inline_captured(task: PoolTask) -> Tuple[Any, Dict[str, Any]]:
    """Inline twin of :func:`_invoke_captured` (RNG state preserved)."""
    from ..obs.spans import WorkerCapture

    capture = WorkerCapture(label=task.label)

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        capture.install()
        try:
            return task.fn(*args, **kwargs)
        finally:
            capture.uninstall()

    value = _invoke_inline(dataclasses.replace(task, fn=wrapped))
    return value, capture.snapshot()


def _picklable(task: PoolTask) -> bool:
    try:
        pickle.dumps((task.fn, task.args, dict(task.kwargs)))
        return True
    except Exception:
        return False


def _stop_executor(
    executor: concurrent.futures.ProcessPoolExecutor, kill: bool
) -> None:
    """Shut an executor down; with ``kill``, terminate its workers too.

    ``shutdown`` alone never reaps a hung or wedged worker — the
    interpreter would block joining it at exit — so the kill path
    terminates the worker processes directly.  ``_processes`` is
    private but stable across CPython 3.8–3.13; ``getattr`` guards it.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    try:
        executor.shutdown(wait=not kill, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    if not kill:
        return
    for proc in processes:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:  # pragma: no cover - defensive
            pass
    for proc in processes:
        try:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        except Exception:  # pragma: no cover - defensive
            pass


def run_tasks(
    tasks: Sequence[PoolTask],
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    bus: Optional[EventBus] = None,
    profile: Optional[Any] = None,
) -> List[Any]:
    """Run every task; return their results in submission order.

    ``jobs <= 1`` executes inline (no pool at all); ``jobs=None``/``0``
    uses one worker per core.  ``timeout`` bounds each wait on a task
    attempt, in host seconds (``None`` waits forever — hung-worker
    detection then relies on the OS reporting the death).  A task that
    exhausts ``retries`` worker attempts runs inline; a task whose
    function raises also re-runs inline so the exception propagates
    from the calling process with a clean traceback, exactly as it
    would have under ``jobs=1``.

    ``profile`` (a :class:`~repro.obs.spans.ProfileSession`) turns on
    per-task profiling capture: every task — pooled or inline — runs
    under a worker-side span profiler + bounded event/metrics capture
    whose snapshot ships back with the result, and the session collects
    them for a merged multi-process trace and rollup.  Results are
    unchanged; only host wall time is spent on the capture.
    """
    tasks = list(tasks)
    n = len(tasks)
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()

    def now() -> float:
        return time.perf_counter() - t0

    def emit(event) -> None:
        if bus is not None and bus.active:
            bus.emit(event)

    results: List[Any] = [_UNSET] * n
    attempts = [0] * n
    failures = 0
    inline_tasks = 0
    submit_wall: List[Optional[float]] = [None] * n
    pool_span = None
    if profile is not None:
        pool_span = profile.profiler.begin(
            "pool", cat="pool", sample=True, jobs=jobs, tasks=n
        )

    # All pool lifecycle events share one monotonic clock anchored at
    # pool start (host seconds, not simulated cycles).
    emit(PoolStartEvent(now(), jobs=jobs, tasks=n))

    def record_profiled(i: int, payload: Tuple[Any, Dict[str, Any]],
                        inline: bool) -> None:
        value, capture = payload
        results[i] = value
        profile.add_task(
            index=i, label=tasks[i].label, attempts=attempts[i],
            inline=inline, submit_wall=submit_wall[i],
            done_wall=time.time(), capture=capture,
        )

    def finalize_profile() -> None:
        if profile is None:
            return
        profile.profiler.end(
            pool_span, failures=failures, inline_tasks=inline_tasks
        )
        profile.note_pool(
            jobs=jobs, tasks=n, wall_s=now(),
            failures=failures, inline_tasks=inline_tasks,
        )

    def finish_inline(i: int) -> None:
        nonlocal inline_tasks
        if profile is not None:
            if submit_wall[i] is None:
                submit_wall[i] = time.time()
            record_profiled(i, _invoke_inline_captured(tasks[i]), inline=True)
        else:
            results[i] = _invoke_inline(tasks[i])
        inline_tasks += 1
        emit(PoolTaskEvent(now(), index=i, label=tasks[i].label,
                           attempts=attempts[i], inline=True))

    def note_failure(i: int, kind: str) -> None:
        nonlocal failures
        failures += 1
        attempts[i] += 1
        emit(PoolWorkerFailureEvent(now(), index=i, label=tasks[i].label,
                                    kind=kind, attempt=attempts[i]))

    if jobs <= 1 or n == 0:
        for i in range(n):
            finish_inline(i)
        emit(PoolEndEvent(now(), completed=n, failures=0, inline_tasks=n))
        finalize_profile()
        return results

    # Tasks that must not (or can no longer) go to a worker.
    inline_only = set()
    for i, task in enumerate(tasks):
        if not _picklable(task):
            inline_only.add(i)
            note_failure(i, "unpicklable")

    executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
    pending: Dict[int, concurrent.futures.Future] = {}
    # Linux: fork (fast, no importability requirement); elsewhere: spawn.
    method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    ctx = multiprocessing.get_context(method)

    def teardown(kill: bool) -> None:
        nonlocal executor
        if executor is not None:
            _stop_executor(executor, kill=kill)
            executor = None
        pending.clear()

    def submit_eligible() -> None:
        nonlocal executor
        eligible = [
            i for i in range(n)
            if results[i] is _UNSET and i not in inline_only and i not in pending
        ]
        if not eligible:
            return
        if executor is None:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=ctx
            )
        worker_fn = _invoke if profile is None else _invoke_captured
        for i in eligible:
            if profile is not None and submit_wall[i] is None:
                submit_wall[i] = time.time()
            pending[i] = executor.submit(worker_fn, tasks[i])

    def handle_worker_failure(i: int, kind: str) -> None:
        """Kill the (possibly wedged) pool, back off, rearm.

        Only the task being waited on is charged an attempt; siblings
        whose futures died with the pool are resubmitted for free.  We
        cannot know *which* task broke a worker, so the blame heuristic
        is submission order — a later culprit becomes the waited-on
        task within at most ``n * retries`` rebuilds, and every task
        still ends in a result (worst case inline).
        """
        note_failure(i, kind)
        teardown(kill=True)
        if attempts[i] > retries:
            inline_only.add(i)
        else:
            time.sleep(backoff * (2 ** (attempts[i] - 1)))
        submit_eligible()

    try:
        submit_eligible()
        for i in range(n):
            while results[i] is _UNSET:
                if i in inline_only:
                    finish_inline(i)
                    break
                if i not in pending:
                    submit_eligible()
                future = pending[i]
                try:
                    value = future.result(timeout=timeout)
                except concurrent.futures.TimeoutError:
                    handle_worker_failure(i, "timeout")
                except concurrent.futures.BrokenExecutor:
                    handle_worker_failure(i, "worker-died")
                except pickle.PicklingError:
                    # Unpicklable *return value*: retrying cannot help.
                    note_failure(i, "unpicklable")
                    pending.pop(i, None)
                    inline_only.add(i)
                except Exception:
                    # The task function itself raised.  Deterministic
                    # work fails identically inline, where the traceback
                    # is local and ``jobs=1`` semantics are restored.
                    note_failure(i, "task-error")
                    pending.pop(i, None)
                    inline_only.add(i)
                else:
                    pending.pop(i, None)
                    if profile is not None:
                        record_profiled(i, value, inline=False)
                    else:
                        results[i] = value
                    emit(PoolTaskEvent(now(), index=i, label=tasks[i].label,
                                       attempts=attempts[i], inline=False))
    finally:
        teardown(kill=True)

    emit(PoolEndEvent(now(), completed=n, failures=failures,
                      inline_tasks=inline_tasks))
    finalize_profile()
    return results
