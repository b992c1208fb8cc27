"""Pinned failing-element sets of the kernel verdict oracle.

``vector_oracle.failing_elements`` is the reference diffcheck holds the
scalar protocols to, so a change to how it computes its sets must leave
every set unchanged.  This test evaluates the oracle over the
``baseline`` corpus's seeds 0..1999 as drawn, then re-evaluates

* every static NONPRIV case with ``per_line_bits=True`` (the corpus
  draws per-line bits rarely), and
* every static PRIV and PRIV_SIMPLE case with ``timestamp_bits`` 2 and
  3 (epochs; a schedule that cannot carry them raises
  ``SchedulingError`` when the config is built, recorded by its type
  name),

and pins a SHA-256 digest over the canonical JSON of every outcome.  A
dynamic case's ``None`` (declined) is part of the record too.
"""

import dataclasses
import hashlib
import json

from repro.errors import SchedulingError
from repro.runtime.schedule import SchedulePolicy
from repro.testing.diffcheck import build_case, case_config
from repro.testing.vector_oracle import failing_elements
from repro.types import ProtocolKind

SEEDS = 2000

#: outcomes per evaluation mode: (as drawn, per-line bits, 2-bit stamps,
#: 3-bit stamps)
PINNED_COUNTS = {"drawn": 2000, "per_line": 321, "ts2": 718, "ts3": 718}
PINNED_DIGEST = (
    "c7b73622115f9533c97b64b66c0fb677e0c54b6b7a97247ebe28f351d3da84e5"
)


def _outcome(case, config, **changes):
    try:
        config = dataclasses.replace(config, **changes)
        failing = failing_elements(case.loop, case.params, config)
    except SchedulingError as exc:
        return type(exc).__name__
    if failing is None:
        return None
    return {name: sorted(elems) for name, elems in sorted(failing.items())}


def _records():
    for seed in range(SEEDS):
        case = build_case(seed)
        config = case_config(case)
        yield seed, "drawn", _outcome(case, config)
        if case.schedule.policy is SchedulePolicy.DYNAMIC:
            continue
        if case.protocol is ProtocolKind.NONPRIV:
            yield seed, "per_line", _outcome(case, config, per_line_bits=True)
        else:
            for bits in (2, 3):
                yield seed, f"ts{bits}", _outcome(
                    case, config, timestamp_bits=bits
                )


def test_oracle_failing_sets_are_pinned():
    records = list(_records())
    counts = {}
    for _, mode, _ in records:
        counts[mode] = counts.get(mode, 0) + 1
    assert counts == PINNED_COUNTS
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_DIGEST
