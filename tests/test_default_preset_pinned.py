"""Pinned rows of the default preset: what EXPERIMENTS.md quotes.

perfbench's golden digests pin the quick preset and the default Fig 13
only.  This test runs every ``--json`` row producer of the experiments
CLI (``cli.ROW_PRODUCERS``: Figs 11-14 and Tables 1-3) at ``--preset
default --seed 2026``, one shared run store as in one CLI invocation,
and compares a digest of each row with ``default_preset_digests.json``.
That file was recorded from the simulator as it stood before the test
existed; a change to a simulated result must be a deliberate one, and
the file must never be rewritten to make a change pass.

Floats are rounded to 10 significant digits (perfbench's rule), and Fig
11's raw ``results`` are left out: only the plotted values are pinned.
It takes about 15 s, so it is ``slow``-marked (``pytest -m slow``).
"""

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import cli

DIGESTS_PATH = Path(__file__).with_name("default_preset_digests.json")
PRESET = "default"
SEED = 2026
DIGITS = 10

#: fields that name a row within its figure or table, in label order
LABEL_FIELDS = ("workload", "name", "scenario", "num_processors", "read_in")


def _canon(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return value


def row_digests(preset: str = PRESET, seed: int = SEED) -> dict:
    """``{"<producer>/<label fields>": digest}`` over every row."""
    args = SimpleNamespace(preset=preset, seed=seed, runs={})
    out = {}
    for name, producer in sorted(cli.ROW_PRODUCERS.items()):
        for row in producer(args):
            doc = {
                f.name: _canon(getattr(row, f.name))
                for f in dataclasses.fields(row)
                if f.name != "results"
            }
            label = "/".join(
                [name] + [str(doc[k]) for k in LABEL_FIELDS if k in doc]
            )
            assert label not in out, f"duplicate row label {label}"
            text = json.dumps(doc, sort_keys=True)
            out[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


@pytest.mark.slow
def test_default_preset_rows_are_pinned():
    pinned = json.loads(DIGESTS_PATH.read_text())
    assert (pinned["preset"], pinned["seed"]) == (PRESET, SEED)
    seen = row_digests()
    problems = [
        f"{label}: {seen.get(label)} != pinned {pinned['rows'].get(label)}"
        for label in sorted(set(seen) | set(pinned["rows"]))
        if seen.get(label) != pinned["rows"].get(label)
    ]
    assert not problems, "\n".join(problems)
