"""The reproduction's runs load no observability or pool code they never
call.

``repro.obs`` re-exports its submodules lazily, ``obs.spans`` imports
its exporters and metrics only where it builds a capture or a report,
and diffcheck imports the process pool only to sweep and ``argparse``
only in its CLI.  Every process that runs figures or seed verdicts
therefore skips the ledger, forensics, exporters, monitors, metrics,
``multiprocessing``, ``concurrent.futures`` and ``argparse``.  Each test
runs in a fresh interpreter, since this test session has all of them
loaded already.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

UNUSED = (
    "repro.obs.ledger",
    "repro.obs.forensics",
    "repro.obs.export",
    "repro.obs.monitor",
    "repro.obs.metrics",
    "multiprocessing",
    "concurrent.futures",
    "argparse",
)


def _run_clean(script: str) -> str:
    """Run ``script`` in a fresh interpreter; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_figures_and_seed_verdicts_load_no_unused_modules():
    out = _run_clean(
        f"""
        import sys

        from repro.experiments import claims, figures
        from repro.testing import diffcheck

        assert diffcheck.seed_verdict(0)["conforms"]
        assert len(figures.fig13_failure("quick", workloads=["Track"])) == 3
        print(sorted(m for m in {UNUSED!r} if m in sys.modules))
        """
    )
    assert out.strip() == "[]"


def test_every_public_obs_name_still_imports():
    out = _run_clean(
        """
        import repro.obs

        for name in repro.obs.__all__:
            namespace = {}
            exec(f"from repro.obs import {name}", namespace)
            assert namespace[name] is getattr(repro.obs, name), name
        assert set(repro.obs.__all__) <= set(dir(repro.obs))
        try:
            repro.obs.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown names must raise AttributeError")
        # Submodules still import by name, lazily or not.
        from repro.obs import ledger, spans
        assert ledger.RunLedger is repro.obs.RunLedger
        star = {}
        exec("from repro.obs import *", star)
        print(sorted(set(repro.obs.__all__) - set(star)))
        """
    )
    assert out.strip() == "[]"
