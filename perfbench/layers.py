"""Per-layer measurement for the traced run, taken from outside the program.

Two instruments, both installed only in a traced timed run:

* :class:`LayerTrace` wraps public entry points *where their callers look
  them up* (``repro.experiments.scenarios.run_hw`` rather than
  ``repro.runtime.driver.run_hw``, so the vector tier's internal
  delegation to the driver is not counted twice).  It times each call,
  counts work from the returned results, and installs the program's own
  span profiler for the vector tier's span counters.
* :class:`StackSampler` is a stdlib CPU-time stack sampler
  (``signal.setitimer(ITIMER_PROF)`` plus a frame walk) that charges each
  sample to the innermost ``repro.<subpackage>`` frame, giving each
  layer's self share of host time.

Bookkeeping done by the wrappers (result accounting, ledger keys) is
excluded from every layer time and from the sampler; it shows only in
``bench.trace_overhead``.
"""

from __future__ import annotations

import importlib
import signal
import statistics
import time
from typing import Callable, Dict, List, Tuple

#: layers whose sampled self share is reported (``repro.<name>``)
SAMPLED_LAYERS = (
    "sim", "memsys", "core", "lrpd", "runtime", "semantics",
    "obs", "testing", "workloads", "trace", "experiments",
)

#: (module, function names) where callers look up the scenario drivers
DRIVER_SITES = (
    ("repro.experiments.scenarios", ("run_serial", "run_ideal", "run_sw", "run_hw")),
    ("repro.experiments.figures", ("run_serial", "run_sw", "run_hw")),
    ("repro.testing.diffcheck", ("run_hw",)),
)

#: (module, function name, figure) where the figure builders are looked up
FIGURE_SITES = (
    ("repro.experiments.claims", "fig11_speedups", "fig11"),
    ("repro.experiments.claims", "fig12_breakdown", "fig12"),
    ("repro.experiments.claims", "fig13_failure", "fig13"),
    ("repro.experiments.claims", "fig14_scalability", "fig14"),
    ("repro.experiments.figures", "fig13_failure", "fig13"),
)

SCENARIOS = ("serial", "ideal", "sw", "hw")

#: the span profiler's own frames are tracing cost, not a layer's work
PROFILER_MODULE = "repro.obs.spans"

#: CPU seconds between two stack samples
SAMPLE_INTERVAL_S = 0.001


class StackSampler:
    """Charge CPU-time samples to the innermost ``repro.<layer>`` frame."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.total = 0
        self.skipped = 0
        #: set while the benchmark does its own bookkeeping
        self.paused = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _on_sample(self, signum, frame) -> None:
        if self.paused:
            self.skipped += 1
            return
        module = ""
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                break
            frame = frame.f_back
        if module == PROFILER_MODULE:
            self.skipped += 1
            return
        layer = module.split(".")[1] if frame is not None else "outside"
        self.counts[layer] = self.counts.get(layer, 0) + 1
        self.total += 1

    def shares(self) -> Dict[str, float]:
        return {
            layer: self.counts.get(layer, 0) / self.total if self.total else 0.0
            for layer in SAMPLED_LAYERS
        }


class LayerTrace:
    """Wrap the layer entry points for one timed run and total their work."""

    def __init__(self) -> None:
        self.sampler = StackSampler()
        self.calls = {s: 0 for s in SCENARIOS}
        self.seconds = {s: 0.0 for s in SCENARIOS}
        self.figure_s = {f"fig{n}": 0.0 for n in (11, 12, 13, 14)}
        self.hw_call_s: List[float] = []
        self.fail_runs = 0
        self.sim_cycles = 0.0
        self.mem = {"accesses": 0, "misses": 0, "invalidations": 0, "writebacks": 0}
        self.spec_messages = 0
        self.build_s = 0.0
        self.loops = 0
        self.ops = 0
        self.keys_seen: set = set()
        self.repeat_runs = 0
        self._overhead_s = 0.0
        self._building = 0
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._profiler = None

    # -- installation --------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, replacement)

    def install(self) -> None:
        from repro.experiments import figures
        from repro.obs import spans
        from repro.testing import diffcheck

        for module_name, names in DRIVER_SITES:
            module = importlib.import_module(module_name)
            for name in names:
                scenario = name[len("run_"):]
                self._patch(module, name, self._driver(scenario, getattr(module, name)))
        for module_name, name, figure in FIGURE_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, name, self._figure(figure, getattr(module, name)))
        for cls in figures.WORKLOAD_CLASSES.values():
            self._patch(cls, "build_execution", self._builder(cls.build_execution))
        self._patch(diffcheck, "build_case", self._builder(diffcheck.build_case))
        self._profiler = spans.install(spans.SpanProfiler(track="perfbench"))
        self.sampler.start()

    def uninstall(self) -> None:
        from repro.obs import spans

        self.sampler.stop()
        spans.uninstall()
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    # -- timing helpers ------------------------------------------------
    def _timed(self, fn: Callable, args, kwargs):
        """Call ``fn``; return its result and its duration less any
        bookkeeping done inside it."""
        overhead0 = self._overhead_s
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0 - (self._overhead_s - overhead0)

    def _bookkeep(self, account: Callable[[], None]) -> None:
        t0 = time.perf_counter()
        self.sampler.paused = True
        try:
            account()
        finally:
            self.sampler.paused = False
            self._overhead_s += time.perf_counter() - t0

    # -- wrappers ------------------------------------------------------
    def _driver(self, scenario: str, fn: Callable) -> Callable:
        def call(loop, params, config=None, *args, **kwargs):
            result, dt = self._timed(fn, (loop, params, config) + args, kwargs)
            self._bookkeep(lambda: self._account_run(scenario, loop, params, config, result, dt))
            return result
        return call

    def _figure(self, figure: str, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            rows, dt = self._timed(fn, args, kwargs)
            self.figure_s[figure] += dt
            return rows
        return call

    def _builder(self, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            if self._building:
                return fn(*args, **kwargs)
            self._building += 1
            try:
                built, dt = self._timed(fn, args, kwargs)
            finally:
                self._building -= 1
            self.build_s += dt
            self._bookkeep(lambda: self._account_build(built))
            return built
        return call

    # -- accounting ----------------------------------------------------
    def _account_build(self, built) -> None:
        loop = getattr(built, "loop", built)  # diffcheck's CaseSpec holds one loop
        self.loops += 1
        self.ops += sum(len(ops) for ops in loop.iterations)

    def _ledger_key(self, scenario: str, loop, params, config) -> str:
        """The run's ``obs.ledger.ledger_key``, without leaving the loop
        fingerprint memoized on the loop as ``_ledger_fp`` (the vector tier
        reads that memo, so leaving it would make the traced run cheaper
        than an untraced one).  The fingerprint is kept on the loop under a
        name the program never reads: recomputing it for every run tripled
        ``bench.trace_overhead`` on repro-quick and fail-restore."""
        from repro.obs.ledger import ledger_key
        from repro.types import Scenario

        memo = vars(loop)
        had = "_ledger_fp" in memo
        if not had and "_perfbench_fp" in memo:
            memo["_ledger_fp"] = memo["_perfbench_fp"]
        try:
            return ledger_key(Scenario[scenario.upper()], loop, params, config)
        finally:
            if not had:
                memo["_perfbench_fp"] = memo.pop("_ledger_fp")

    def _account_run(self, scenario, loop, params, config, result, dt) -> None:
        self.calls[scenario] += 1
        self.seconds[scenario] += dt
        if scenario == "hw":
            self.hw_call_s.append(dt)
        if scenario in ("sw", "hw") and not result.passed:
            self.fail_runs += 1
        self.sim_cycles += result.wall
        self.spec_messages += result.spec_messages
        mem = result.mem
        if mem is not None:
            self.mem["accesses"] += mem.accesses
            self.mem["misses"] += mem.misses
            self.mem["invalidations"] += mem.invalidations
            self.mem["writebacks"] += mem.writebacks
        key = self._ledger_key(scenario, loop, params, config)
        if key in self.keys_seen:
            self.repeat_runs += 1
        self.keys_seen.add(key)

    def _vector_counters(self) -> Dict[str, float]:
        if self._profiler is None:  # never installed: a trace that never ran
            return {}
        snap = self._profiler.snapshot()
        totals = dict(snap["counters"])
        for span in snap["spans"]:
            for name, value in span["counters"].items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of this run as ``{name: (value, unit)}``."""
        vector = self._vector_counters()
        driver_s = sum(self.seconds.values())
        out: Dict[str, Tuple[float, str]] = {
            "experiments.runs": (sum(self.calls.values()), "count"),
            "experiments.repeat_runs": (self.repeat_runs, "count"),
        }
        for figure, seconds in self.figure_s.items():
            out[f"experiments.{figure}_s"] = (seconds, "s")
        out["workloads.build_s"] = (self.build_s, "s")
        out["workloads.loops"] = (self.loops, "count")
        out["workloads.ops"] = (self.ops, "count")
        for scenario in SCENARIOS:
            out[f"runtime.{scenario}_s"] = (self.seconds[scenario], "s")
            out[f"runtime.{scenario}_calls"] = (self.calls[scenario], "count")
        out["runtime.fail_runs"] = (self.fail_runs, "count")
        out["runtime.hw_call_ms_p50"] = (
            1000 * statistics.median(self.hw_call_s) if self.hw_call_s else 0.0, "ms"
        )
        out["runtime.vector.delegations"] = (vector.get("vector.delegations", 0), "count")
        out["runtime.vector.memo_hits"] = (
            vector.get("vector.extract_memo_hits", 0) + vector.get("vector.replay_memo_hits", 0),
            "count",
        )
        out["sim.cycles"] = (self.sim_cycles, "cycles")
        out["sim.accesses_per_s"] = (
            self.mem["accesses"] / driver_s if driver_s else 0.0, "1/s"
        )
        for name, value in self.mem.items():
            out[f"memsys.{name}"] = (value, "count")
        out["core.spec_messages"] = (self.spec_messages, "count")
        for layer, share in self.sampler.shares().items():
            out[f"{layer}.self_share"] = (share, "fraction")
        out["bench.samples"] = (self.sampler.total, "count")
        return out
