"""Value-level versions of the paper's loop patterns.

The trace-level surrogates in this package drive the timing
simulation; these :class:`~repro.semantics.ConcreteLoop` builders drive
the *semantics* layer with the same access patterns, so the paper's
loop shapes can be executed end to end on real data and checked against
serial results.  Scales are small — these exist for correctness
demonstrations and tests, not timing studies.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..semantics.executor import ConcreteLoop
from ..types import ProtocolKind


def ocean_like(
    elements: int = 512, iterations: int = 16, stride: int = 2, seed: int = 0
) -> Tuple[ConcreteLoop, List[float]]:
    """An in-place strided butterfly update (Ocean's pattern).

    Returns the loop and the expected (serial) result.
    """
    rng = random.Random(seed)
    initial = [rng.random() for _ in range(elements)]
    block = elements // iterations
    rows = max(1, block // stride)

    def body(i, arrays):
        base = i * block
        for k in range(block):
            j = base + (k % rows) * stride + k // rows
            arrays["FT"][j] = arrays["FT"][j] * 0.5 + 1.0

    expected = list(initial)
    for i in range(iterations):
        base = i * block
        for k in range(block):
            j = base + (k % rows) * stride + k // rows
            expected[j] = expected[j] * 0.5 + 1.0

    loop = ConcreteLoop(
        body, iterations, {"FT": initial},
        protocols={"FT": ProtocolKind.NONPRIV},
    )
    return loop, expected


def p3m_like(
    particles: int = 24, positions: int = 256, seed: int = 1
) -> Tuple[ConcreteLoop, List[float]]:
    """A privatized-scratch force loop (P3m's pattern).

    Each iteration accumulates neighbor interactions into a scratch
    array (written before read) and stores a per-particle force.
    Returns the loop and the expected FORCE array.
    """
    rng = random.Random(seed)
    pos = [rng.random() for _ in range(positions)]
    neighbor_count = [rng.randint(2, 7) for _ in range(particles)]
    neighbor_idx = [
        [rng.randrange(positions) for _ in range(8)] for _ in range(particles)
    ]

    def body(i, arrays):
        total = 0.0
        for k in range(neighbor_count[i]):
            arrays["XI"][k] = arrays["POS"][neighbor_idx[i][k]] * 2.0
            total += arrays["XI"][k]
        arrays["FORCE"][i] = total

    expected = [0.0] * particles
    for i in range(particles):
        total = 0.0
        for k in range(neighbor_count[i]):
            total += pos[neighbor_idx[i][k]] * 2.0
        expected[i] = total

    loop = ConcreteLoop(
        body, particles,
        {
            "POS": pos,
            "XI": [0.0] * 8,
            "FORCE": [0.0] * particles,
        },
        protocols={
            "XI": ProtocolKind.PRIV_SIMPLE,
            "FORCE": ProtocolKind.NONPRIV,
        },
    )
    return loop, expected


def track_like(
    iterations: int = 24, tested: int = 128, dependent: bool = False, seed: int = 2
) -> Tuple[ConcreteLoop, List[float]]:
    """A filter-update loop (Track's pattern), optionally with the
    adjacent-iteration dependences of its non-parallel executions.

    Returns the loop and the expected T array.
    """
    rng = random.Random(seed)
    initial = [rng.random() for _ in range(tested)]
    half = tested // 2

    def body(i, arrays):
        j = i % half
        arrays["T"][j] = arrays["T"][j] * 0.9 + 0.1
        if dependent and i % 4 == 0 and i + 1 < iterations:
            arrays["T"][half + i % half] = float(i)
        if dependent and i % 4 == 1:
            _ = arrays["T"][half + (i - 1) % half]

    expected = list(initial)
    for i in range(iterations):
        j = i % half
        expected[j] = expected[j] * 0.9 + 0.1
        if dependent and i % 4 == 0 and i + 1 < iterations:
            expected[half + i % half] = float(i)

    loop = ConcreteLoop(
        body, iterations, {"T": initial},
        protocols={"T": ProtocolKind.NONPRIV},
    )
    return loop, expected
