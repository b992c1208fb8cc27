"""Quickstart: speculative run-time parallelization of a real loop.

The motivating situation of the paper: a loop whose subscripts come
from input data (``A(f(i))``), so the compiler cannot prove it parallel.
We execute it speculatively as a doall while the simulated hardware
watches every access through the cache coherence protocol:

* if the access pattern happens to be parallel, we get parallel speed
  and the results are committed;
* if a cross-iteration dependence shows up, the hardware aborts the
  parallel execution *at the moment the dependence occurs*, restores
  the saved state and re-executes serially — results are still correct.

Run:  python examples/quickstart.py
"""

import random

from repro.params import default_params
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode
from repro.semantics import ConcreteLoop, speculative_run
from repro.types import ProtocolKind


def main() -> None:
    rng = random.Random(42)
    n, iterations = 1024, 64
    params = default_params(num_processors=8)
    config = RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK)
    )

    # ------------------------------------------------------------------
    # Case 1: f() is a permutation -> the loop is (unknowably) parallel.
    # ------------------------------------------------------------------
    f = rng.sample(range(n), n)

    def body(i, arrays):
        for k in range(8):
            j = f[(i * 8 + k) % n]
            arrays["A"][j] = arrays["A"][j] * 0.5 + float(i)

    a0 = [rng.random() for _ in range(n)]
    loop = ConcreteLoop(body, iterations, {"A": list(a0)},
                        protocols={"A": ProtocolKind.NONPRIV})
    out = speculative_run(loop, params, config)
    sim = out.simulation
    print("case 1: input-dependent but parallel subscripts")
    print(f"  speculation passed: {out.passed}")
    print(f"  simulated cycles:   {sim.wall:,.0f} "
          f"(phases: { {k: round(v) for k, v in sim.phases.items()} })")

    # ------------------------------------------------------------------
    # Case 2: f() has a collision -> a cross-iteration dependence.
    # ------------------------------------------------------------------
    g = list(f)
    # Iterations 0 and 2 now touch the same element.  (A collision with
    # an iteration in the same scheduling block would harmlessly stay on
    # one processor — the protocol is processor-wise.)
    g[16] = g[0]

    def body2(i, arrays):
        for k in range(8):
            j = g[(i * 8 + k) % n]
            arrays["A"][j] = arrays["A"][j] * 0.5 + float(i)

    loop2 = ConcreteLoop(body2, iterations, {"A": list(a0)},
                         protocols={"A": ProtocolKind.NONPRIV})
    out2 = speculative_run(loop2, params, config)
    sim2 = out2.simulation
    print("\ncase 2: same loop with one subscript collision")
    print(f"  speculation passed: {out2.passed}")
    print(f"  failure: {sim2.failure}")
    print(f"  detected {sim2.detection_cycle:,.0f} cycles into the loop; "
          f"re-executed serially: {out2.reexecuted_serially}")

    # Both cases produce exactly the serial results.
    ref = list(a0)
    for i in range(iterations):
        for k in range(8):
            j = g[(i * 8 + k) % n]
            ref[j] = ref[j] * 0.5 + float(i)
    assert out2.arrays["A"] == ref
    print("\nresults verified against serial execution: OK")


if __name__ == "__main__":
    main()
