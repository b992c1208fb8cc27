"""Protocol-level walkthrough of the non-privatization algorithm.

Drives a 2-processor machine through the exact transactions of the
paper's Figures 6/7 — including the First_update race — printing the
per-element directory state after each step.  Useful for understanding
the coherence extensions at the access-bit level.

An ``EventRecorder`` subscribed on the machine's event bus captures
every speculative message as it is delivered, so the race in scenario
3 can be replayed message by message.

Run:  python examples/protocol_trace.py
"""

from repro.core.accessbits import NO_PROC
from repro.obs import EventBus, EventRecorder, ProtocolMessageEvent
from repro.params import small_test_params
from repro.sim.machine import Machine
from repro.types import ProtocolKind


def show(machine, label, element):
    table = machine.spec.nonpriv.table("A")
    first = int(table.first[element])
    first_s = "NONE" if first == NO_PROC else f"P{first}"
    failed = machine.spec.controller.failure
    print(f"  {label:<46} dir[A[{element}]]: First={first_s:<5} "
          f"NoShr={int(table.priv[element])} ROnly={int(table.ronly[element])}"
          f"{'   ** FAIL: ' + failed.reason if failed else ''}")


def fresh():
    m = Machine(small_test_params(2))
    m.attach_bus(EventBus())
    log = EventRecorder().subscribe(m.bus, ProtocolMessageEvent)
    a = m.space.allocate("A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
    m.spec.register_nonpriv(a)
    m.spec.arm()
    return m, a, log


def main() -> None:
    print("scenario 1: read-only sharing (passes)")
    m, a, _ = fresh()
    m.memsys.read(0, a.addr_of(3), 0.0); m.engine.drain()
    show(m, "P0 reads A[3] (miss, First:=P0)", 3)
    m.memsys.read(1, a.addr_of(3), 100.0); m.engine.drain()
    show(m, "P1 reads A[3] (miss, ROnly:=1)", 3)
    m.memsys.read(0, a.addr_of(3), 200.0); m.engine.drain()
    show(m, "P0 re-reads A[3] (cache hit, no traffic)", 3)

    print("\nscenario 2: write after remote read (fails at the directory)")
    m, a, _ = fresh()
    m.memsys.read(1, a.addr_of(5), 0.0); m.engine.drain()
    show(m, "P1 reads A[5]", 5)
    m.memsys.write(0, a.addr_of(5), 100.0); m.engine.drain()
    show(m, "P0 writes A[5] -> Fig 6-(d) check", 5)

    print("\nscenario 3: the First_update race (Figs 6-(f)/(g))")
    m, a, log = fresh()
    # Both processors cache the line via another element...
    m.memsys.read(0, a.addr_of(1), 0.0)
    m.memsys.read(1, a.addr_of(1), 50.0)
    m.engine.drain()
    show(m, "both caches hold the line (via A[1])", 0)
    # ...then read A[0] nearly simultaneously: two in-flight updates.
    m.memsys.read(0, a.addr_of(0), 1000.0)
    m.memsys.read(1, a.addr_of(0), 1000.5)
    show(m, "P0 and P1 read A[0] (updates in flight)", 0)
    m.engine.drain()
    show(m, "updates serialized at home; loser bounced", 0)
    print(f"\n  messages: {m.spec.stats.first_updates} First_update, "
          f"{m.spec.stats.first_update_fails} First_update_fail, "
          f"{m.spec.stats.ronly_updates} ROnly_update")
    print("  replay from the event bus:")
    for msg in log:
        print(f"    t={msg.time:>7.1f}  P{msg.proc}  {msg.label:<18} "
              f"{msg.array}[{msg.index}]")
    print(f"  outcome: failed={m.spec.controller.failed} "
          f"(two readers -> element is read-shared, still parallel)")


if __name__ == "__main__":
    main()
