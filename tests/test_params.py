"""Tests for machine parameters and validation."""

import pytest

from repro.errors import ConfigurationError
from repro.params import (
    CacheGeometry,
    ContentionModel,
    CostModel,
    LatencyTable,
    MachineParams,
    default_params,
    small_test_params,
)


class TestCacheGeometry:
    def test_num_lines(self):
        assert CacheGeometry(32 * 1024, 64).num_lines == 512

    def test_default_line_size(self):
        assert CacheGeometry(1024).line_bytes == 64

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(1000, 64)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(960, 48)

    @pytest.mark.parametrize("size", [0, -64])
    def test_rejects_non_positive_size(self, size):
        # A zero-line cache used to be accepted and then divide by zero
        # in the first insert.
        with pytest.raises(ConfigurationError):
            CacheGeometry(size)

    @pytest.mark.parametrize("line", [0, -64])
    def test_rejects_non_positive_line(self, line):
        with pytest.raises(ConfigurationError):
            CacheGeometry(64, line_bytes=line)


class TestLatencyTable:
    def test_paper_defaults(self):
        lat = LatencyTable()
        assert (lat.l1_hit, lat.l2_hit, lat.local_mem) == (1, 12, 60)
        assert (lat.remote_2hop, lat.remote_3hop) == (208, 291)

    def test_network_one_way_derivation(self):
        lat = LatencyTable()
        assert lat.network_one_way == (208 - 60) // 2

    def test_dirty_forward(self):
        assert LatencyTable().dirty_forward == 291 - 208

    @pytest.mark.parametrize(
        "field", ["l1_hit", "l2_hit", "local_mem", "remote_2hop", "remote_3hop"]
    )
    def test_rejects_negative_latency(self, field):
        with pytest.raises(ConfigurationError, match=field):
            LatencyTable(**{field: -1})

    def test_zero_latencies_are_legal(self):
        assert LatencyTable(0, 0, 0, 0, 0).network_one_way == 1


class TestMachineParams:
    def test_defaults_match_paper(self):
        p = default_params()
        assert p.num_processors == 16
        assert p.l1.size_bytes == 32 * 1024
        assert p.l2.size_bytes == 512 * 1024
        assert p.line_bytes == 64

    def test_num_nodes(self):
        p = MachineParams(num_processors=8, processors_per_node=2)
        assert p.num_nodes == 4
        assert p.node_of_processor(5) == 2

    def test_rejects_zero_processors(self):
        with pytest.raises(ConfigurationError):
            MachineParams(num_processors=0)

    def test_rejects_uneven_node_split(self):
        with pytest.raises(ConfigurationError):
            MachineParams(num_processors=6, processors_per_node=4)

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ConfigurationError):
            MachineParams(
                l1=CacheGeometry(1024, 32), l2=CacheGeometry(4096, 64)
            )

    @pytest.mark.parametrize("page", [0, -4096])
    def test_rejects_non_positive_page(self, page):
        # page_bytes=0 used to pass the multiple-of-line check and divide
        # by zero in AddressSpace.home_node.
        with pytest.raises(ConfigurationError):
            MachineParams(page_bytes=page)

    @pytest.mark.parametrize("entries", [0, -3])
    def test_rejects_empty_write_buffer(self, entries):
        with pytest.raises(ConfigurationError):
            MachineParams(write_buffer_entries=entries)

    def test_impossible_geometry_never_reaches_a_run(self):
        """Each of these once built a machine that failed deep inside a
        run (or ran on a write buffer with no entries)."""
        from dataclasses import replace

        from repro.runtime import run_hw
        from repro.workloads.synthetic import parallel_nonpriv_loop

        loop = parallel_nonpriv_loop("geom", elements=64, iterations=8)
        base = small_test_params(2)
        for make in (
            lambda: replace(base, l1=CacheGeometry(0), l2=CacheGeometry(0)),
            lambda: replace(base, page_bytes=0),
            lambda: replace(base, write_buffer_entries=0),
        ):
            with pytest.raises(ConfigurationError):
                run_hw(loop, make())

    def test_small_test_params(self):
        p = small_test_params(4)
        assert p.num_processors == 4
        assert p.l1.num_lines == 16


class TestContentionAndCost:
    def test_contention_defaults(self):
        c = ContentionModel()
        assert c.enabled and c.directory_occupancy > 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("directory_occupancy", -5),
            ("l2_occupancy", -1),
            ("spec_occupancy_factor", -0.5),
            ("spec_occupancy_factor", float("nan")),
            ("spec_occupancy_factor", float("inf")),
        ],
    )
    def test_rejects_impossible_contention(self, field, value):
        # A NaN factor used to build and then die inside run_hw with
        # "cannot convert float NaN to integer"; negative occupancies
        # ran silently with meaningless cycle counts.
        with pytest.raises(ConfigurationError, match=field):
            ContentionModel(**{field: value})

    def test_zero_contention_is_legal(self):
        c = ContentionModel(0, 0, spec_occupancy_factor=0)
        assert c.spec_occupancy_factor == 0.0

    def test_cost_model_positive(self):
        c = CostModel()
        assert c.sw_mark_read_instrs > 0
        assert c.hw_loop_setup_cycles > 0
        assert c.sw_bitmap_word_elems == 64
