"""The paper's own worked examples (Figures 1-3), encoded as tests.

Each figure's loop is transcribed literally and checked against the
oracle, the software LRPD test, and the hardware protocols — so the
repository demonstrably agrees with every example the paper reasons
about in prose.
"""

import pytest

from repro.lrpd.analysis import analyze
from repro.lrpd.shadow import LRPDState
from repro.params import MachineParams
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode, run_hw
from repro.trace import ArraySpec, Loop, read, write
from repro.trace.oracle import DependenceOracle
from repro.types import ProtocolKind

PARAMS = MachineParams(num_processors=4)
FINE = RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 1, VirtualMode.CHUNK))


class TestFigure1a:
    """do i: A(i) = A(i) + A(i-1) — flow dependences, not parallel."""

    def loop(self, n=8):
        body = []
        for i in range(1, n):
            body.append([read("A", i), read("A", i - 1), write("A", i)])
        return Loop("fig1a", [ArraySpec("A", n, 8, ProtocolKind.NONPRIV)], body)

    def test_oracle_rejects(self):
        report = DependenceOracle(self.loop()).analyze()
        assert not report.is_doall
        assert not report.is_priv_rico  # not even read-in helps

    def test_hw_fails(self):
        result = run_hw(self.loop(), PARAMS, FINE)
        assert not result.passed


class TestFigure1b:
    """The tmp-swap loop: parallel once tmp is privatized."""

    def loop(self, n=8):
        # do i = 1, n/2: tmp = A(2i); A(2i) = A(2i-1); A(2i-1) = tmp
        body = []
        for i in range(1, n // 2 + 1):
            hi, lo = 2 * i - 1, 2 * i - 2  # 0-based A(2i), A(2i-1)
            body.append([
                read("A", hi), write("TMP", 0),          # tmp = A(2i)
                read("A", lo), write("A", hi),           # A(2i) = A(2i-1)
                read("TMP", 0), write("A", lo),          # A(2i-1) = tmp
            ])
        arrays = [
            ArraySpec("A", n, 8, ProtocolKind.NONPRIV),
            ArraySpec("TMP", 1, 8, ProtocolKind.PRIV_SIMPLE),
        ]
        return Loop("fig1b", arrays, body)

    def test_oracle_verdicts(self):
        report = DependenceOracle(self.loop()).analyze()
        # A's accesses are disjoint per iteration; TMP needs privatizing.
        assert report.arrays["A"].is_doall
        assert not report.arrays["TMP"].is_doall
        assert report.arrays["TMP"].is_privatizable
        assert report.is_privatizable

    def test_hw_passes_with_privatized_tmp(self):
        result = run_hw(self.loop(), PARAMS, FINE)
        assert result.passed

    def test_hw_fails_without_privatization(self):
        loop = self.loop()
        arrays = [
            a if a.name != "TMP"
            else ArraySpec("TMP", 1, 8, ProtocolKind.NONPRIV)
            for a in loop.arrays
        ]
        result = run_hw(Loop("fig1b-np", arrays, loop.iterations), PARAMS, FINE)
        assert not result.passed


class TestFigure2:
    """The worked LRPD example: K=[1,2,3,4,1], L=[2,2,4,4,2], B1=[T,F,T,F,T].

    Chart (c): Aw = [0,1,0,1], Ar = [1,1,1,1], Anp = [1,1,1,1],
    Atw = 3, Atm = 2 — the test fails.
    """

    K = [1, 2, 3, 4, 1]
    L = [2, 2, 4, 4, 2]
    B1 = [True, False, True, False, True]

    def loop(self):
        body = []
        for it in range(5):
            ops = [read("A", self.K[it] - 1)]  # z = A(K(i))
            if self.B1[it]:
                ops.append(write("A", self.L[it] - 1))  # A(L(i)) = z + C(i)
            body.append(ops)
        return Loop("fig2", [ArraySpec("A", 5, 8, ProtocolKind.PRIV)], body)

    def test_software_shadow_state_matches_chart_c(self):
        state = LRPDState(1)
        state.register("A", 5, privatized=True)
        shadow = state.shadow("A", 0)
        for it in range(1, 6):
            shadow.markread(self.K[it - 1] - 1, it)
            if self.B1[it - 1]:
                shadow.markwrite(self.L[it - 1] - 1, it)
        merged = state.merge("A")

        def marked(marks):
            return [int(marks.get(i, 0) != 0) for i in range(4)]

        assert marked(merged.aw) == [0, 1, 0, 1]
        assert marked(merged.ar) == [1, 1, 1, 1]
        assert marked(merged.anp) == [1, 1, 1, 1]
        assert merged.atw == 3 and merged.atm == 2
        assert not analyze(state).passed

    def test_oracle_agrees_loop_not_parallel(self):
        report = DependenceOracle(self.loop()).analyze()
        assert not report.is_priv_rico

    def test_hw_priv_fails(self):
        result = run_hw(self.loop(), PARAMS, FINE)
        assert not result.passed


class TestFigure3:
    """Loops parallel only with privatization + read-in/copy-out."""

    def _loop(self, pattern):
        # pattern: list per iteration of 'r'/'w' on the single element.
        body = []
        for accesses in pattern:
            ops = []
            for a in accesses:
                ops.append(read("A", 0) if a == "r" else write("A", 0))
            body.append(ops)
        return Loop("fig3", [ArraySpec("A", 4, 8, ProtocolKind.PRIV)], body)

    # The three example columns of Figure 3: reads-first happen no later
    # than any write of the element.
    PATTERNS = (
        ["r", "rw", "w"],   # read; read then write; write
        ["r", "r", "w"],    # reads first, then a write
        ["rw", "w", "w"],   # read-then-write, then writes
    )

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_oracle_accepts_with_read_in(self, pattern):
        report = DependenceOracle(self._loop(pattern)).analyze()
        assert report.is_priv_rico
        assert not report.is_privatizable or pattern == self.PATTERNS[2]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_hw_read_in_protocol_accepts(self, pattern):
        result = run_hw(self._loop(pattern), PARAMS, FINE)
        assert result.passed

    @pytest.mark.parametrize("pattern", PATTERNS[:2])
    def test_simple_protocol_rejects_without_read_in(self, pattern):
        loop = self._loop(pattern)
        arrays = [ArraySpec("A", 4, 8, ProtocolKind.PRIV_SIMPLE)]
        result = run_hw(Loop("fig3-s", arrays, loop.iterations), PARAMS, FINE)
        assert not result.passed

    def test_reversed_pattern_rejected(self):
        # write first, read-first later: NOT a Figure 3 loop.
        report = DependenceOracle(self._loop(["w", "r"])).analyze()
        assert not report.is_priv_rico
        result = run_hw(self._loop(["w", "r"]), PARAMS, FINE)
        assert not result.passed
