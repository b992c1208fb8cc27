"""Memory profiling of a speculative execution.

Attaches the unified telemetry layer (``RunConfig.telemetry``) to the
machines the driver builds, runs the Adm surrogate's loop under the
hardware scheme, and prints where the cycles went, which arrays caused
the traffic and which speculative messages flowed — the observability
story for diagnosing slow or failing speculation.

The per-array traffic table and the message counts are read back from
the telemetry's metrics registry: its ``MetricsCollector`` subscribes
to the machine's event bus and aggregates every access (by array, kind
and hit level) and every protocol message (by label).

Run:  python examples/memory_profile.py
"""

from repro.obs import Telemetry
from repro.params import default_params
from repro.runtime import (
    RunConfig,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    run_hw,
)
from repro.workloads import AdmWorkload


def array_table(registry, limit: int = 10) -> str:
    """Per-array reads/writes/hit levels/stall cycles, busiest first."""
    rows = {}
    for labels, counter in registry.series("mem.accesses"):
        row = rows.setdefault(labels["array"], dict.fromkeys(
            ("read", "write", "l1", "l2", "memory"), 0))
        row[labels["kind"]] += counter.value
        row[labels["level"]] += counter.value
    stall = {}
    for labels, hist in registry.series("mem.stall_cycles"):
        stall[labels["array"]] = stall.get(labels["array"], 0) + hist.total
    lines = [
        f"{'array':<20} {'reads':>8} {'writes':>8} {'L1':>8} {'L2':>7} "
        f"{'miss':>7} {'miss%':>6} {'stall cyc':>10}",
        "-" * 78,
    ]
    ranked = sorted(rows.items(), key=lambda kv: kv[1]["read"] + kv[1]["write"],
                    reverse=True)
    for array, r in ranked[:limit]:
        accesses = r["read"] + r["write"]
        lines.append(
            f"{array:<20} {r['read']:>8} {r['write']:>8} {r['l1']:>8} "
            f"{r['l2']:>7} {r['memory']:>7} {100 * r['memory'] / accesses:>5.1f}% "
            f"{stall.get(array, 0):>10.0f}"
        )
    if len(ranked) > limit:
        lines.append(f"... and {len(ranked) - limit} more arrays")
    return "\n".join(lines)


def main() -> None:
    workload = AdmWorkload(scale=0.25)
    loop = next(workload.executions(1))
    params = default_params(8)

    telemetry = Telemetry()
    config = RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.CHUNK),
        telemetry=telemetry,
    )
    result = run_hw(loop, params, config)
    registry = telemetry.registry

    print(f"Adm surrogate under the HW scheme: passed={result.passed}, "
          f"{result.wall:,.0f} cycles\n")
    print(telemetry.phase_report())
    print()
    print(f"memory accesses: {registry.total('mem.accesses'):,}")
    print(array_table(registry))
    print("\nspeculative protocol messages:")
    messages = {}
    for labels, counter in registry.series("spec.messages"):
        messages[labels["label"]] = messages.get(labels["label"], 0) + counter.value
    for label, count in sorted(messages.items()):
        print(f"  {label:<16} {count:>6}")
    stats = result.mem
    print(f"\ncoherence: {stats.invalidations} invalidations, "
          f"{stats.writebacks} writebacks, "
          f"{stats.remote_2hop + stats.remote_3hop} remote misses")
    print(f"provenance: config {result.provenance.config_hash[:12]} "
          f"schedule {result.provenance.schedule}")


if __name__ == "__main__":
    main()
