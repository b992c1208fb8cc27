"""Pinned speculation-directory end state of the conformance signature.

``conformance_signature`` snapshots every access-bit table a run leaves
behind (``nonpriv_tables``, ``priv_tables``, ``priv_simple_tables``).
These tests pin that state exactly -- table and field names, values and
value types -- for diffcheck seeds covering each protocol: a passing
NONPRIV case (seed 1), a passing four-processor PRIV case with 3-bit
time stamps (seed 0), a failing PRIV case with a read-first on record
(seed 222) and a failing PRIV_SIMPLE case (seed 15).  A change to how
the tables are stored must leave every value here unchanged.

Keys are ``<signature field>/<table>``; a private table is
``<array>@<processor>``.  A bit field is written as a string of 0/1
digits, one per element, and only a list of ``bool`` renders that way,
so a bit field that turned into ints fails the pin.
"""

import pytest

from repro.runtime.driver import run_hw
from repro.testing.diffcheck import build_case, case_config, conformance_signature

TABLE_KEYS = ("nonpriv_tables", "priv_tables", "priv_simple_tables")

PINNED = {
    1: {
        "nonpriv_tables/A": {
            "first": [0, 0, -1, 0, -1, -1, 0, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, -1, -1, 1,
                      -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1],
            "priv": "11000000000001010000010110101000",
            "ronly": "00000000000000000000000000000000",
        },
    },
    0: {
        "priv_tables/A": {
            "last_w_epoch": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "last_w_iter": [2, 4, 3, 0, 1, 0, 0, 3, 1, 3, 1, 4, 0, 4, 0, 1, 4, 4],
            "last_w_proc": [1, 3, 2, -1, 0, -1, -1, 2, 0, 2, 0, 3, -1, 3, -1, 0, 3, 3],
            "max_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "min_w": [2, 3, 2, 0, 1, 0, 0, 2, 1, 1, 1, 4, 0, 4, 0, 1, 2, 2],
            "written_past": "000000000000000000",
        },
        "priv_tables/A@0": {
            "pmax_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "pmax_w": [0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0],
        },
        "priv_tables/A@1": {
            "pmax_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "pmax_w": [2, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2],
        },
        "priv_tables/A@2": {
            "pmax_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "pmax_w": [0, 3, 3, 0, 0, 0, 0, 3, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3],
        },
        "priv_tables/A@3": {
            "pmax_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "pmax_w": [0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 4, 0, 0, 4, 4],
        },
    },
    222: {
        "priv_tables/A": {
            "last_w_epoch": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "last_w_iter": [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "last_w_proc": [-1, -1, -1, -1, -1, -1, -1, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                            -1],
            "max_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0],
            "min_w": [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "written_past": "000000000000000000",
        },
        "priv_tables/A@0": {
            "pmax_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "pmax_w": [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        },
        "priv_tables/A@1": {
            "pmax_r1st": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0],
            "pmax_w": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        },
    },
    15: {
        "priv_simple_tables/A": {
            "any_r1st": "000000000000000100",
            "any_w": "100100000101000100",
        },
        "priv_simple_tables/A@0": {
            "epoch": [1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, -1, -1, -1, -1],
            "read1st": "000000000000000000",
            "write": "100000000001000000",
            "write_any": "100000000001000000",
        },
        "priv_simple_tables/A@1": {
            "epoch": [-1, -1, -1, 2, -1, -1, -1, -1, -1, 2, -1, -1, -1, -1, 2, 2, -1, -1],
            "read1st": "000000000000000100",
            "write": "000100000100001100",
            "write_any": "000100000100001100",
        },
    },
}


def _render(sig):
    out = {}
    for kind in TABLE_KEYS:
        for name, fields in sig[kind].items():
            out[f"{kind}/{name}"] = {
                field: (
                    "".join("01"[v] for v in values)
                    if all(type(v) is bool for v in values)
                    else values
                )
                for field, values in fields.items()
            }
    return out


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_signature_table_state_is_pinned(seed):
    case = build_case(seed)
    machines = []
    result = run_hw(
        case.loop, case.params, case_config(case, machine_hook=machines.append)
    )
    assert _render(conformance_signature(result, machines[0])) == PINNED[seed]
