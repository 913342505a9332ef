"""Tests for the Figure 4 heatmap generator (E5)."""

import pytest

from repro.analysis.heatmap import (
    HEATMAP_BATCH_SIZES,
    best_cell,
    best_in_row,
    device_axis,
    fig4_heatmap,
    heatmap_grid_for,
)
from repro.errors import ConfigError
from repro.hardware.systems import SYSTEM_TAGS


class TestAxes:
    def test_single_node_systems(self):
        assert device_axis("GH200") == (1,)
        assert device_axis("H100") == (1, 2, 4)
        assert device_axis("GC200") == (1, 2, 4)

    def test_multinode_systems_extend_axis(self):
        # "The heatmaps also contain multi-node results for systems
        # where resources were available."
        assert device_axis("JEDI") == (1, 2, 4, 8, 16)
        assert device_axis("MI250") == (1, 2, 4, 8, 16)
        assert device_axis("A100") == (1, 2, 4, 8, 16)


class TestGrids:
    def test_grid_shape(self):
        grid = fig4_heatmap("H100")
        assert len(grid) == len(HEATMAP_BATCH_SIZES)
        assert all(len(row) == 3 for row in grid)

    def test_every_system_produces_a_grid(self):
        for tag in SYSTEM_TAGS:
            grid = fig4_heatmap(tag, batch_sizes=(64, 256))
            assert grid

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            fig4_heatmap("B200")

    def test_a100_oom_cell_single_device_2048(self):
        # Figure 4g: OOM at the largest batch on one 40 GB A100.
        grid = fig4_heatmap("A100")
        row = [r for r in grid if r[0].global_batch_size == 2048][0]
        one_dev = [c for c in row if c.devices == 1][0]
        two_dev = [c for c in row if c.devices == 2][0]
        assert one_dev.oom
        assert not two_dev.oom

    def test_oom_monotone_more_devices_help(self):
        for tag in ("A100", "H100", "MI250"):
            for row in fig4_heatmap(tag):
                ooms = [c.oom for c in row if c.images_per_s is not None or c.oom]
                # Once a wider device count stops OOMing, it stays fine.
                assert ooms == sorted(ooms, reverse=True), (tag, row[0].global_batch_size)

    def test_indivisible_cells_marked_not_run(self):
        grid = fig4_heatmap("JEDI")
        row16 = [r for r in grid if r[0].global_batch_size == 16][0]
        assert all(c.images_per_s is None and not c.oom for c in row16 if c.devices > 16)

    def test_gpu_best_cell_is_largest_config(self):
        # "In nearly all GPU cases, the best value achieved is for the
        # largest batch size using most GPUs."
        for tag in ("A100", "H100", "WAIH100", "JEDI", "MI250"):
            grid = fig4_heatmap(tag)
            best = best_cell(grid)
            assert best.global_batch_size == 2048, tag
            assert best.devices == device_axis(tag)[-1], tag

    def test_ipu_row16_peaks_at_two_devices(self):
        # "the highest throughput was obtained using 2 IPUs for a
        # global batch size of 16".
        grid = fig4_heatmap("GC200")
        assert best_in_row(grid, 16).devices == 2

    def test_ipu_performance_relatively_flat(self):
        # Per-IPU throughput stays within ~25 % across most of the grid.
        grid = fig4_heatmap("GC200")
        per_ipu = [
            c.images_per_s / c.devices
            for row in grid
            for c in row
            if c.images_per_s is not None and c.global_batch_size / c.devices >= 16
        ]
        assert max(per_ipu) / min(per_ipu) < 1.3

    def test_throughput_monotone_in_batch_per_column(self):
        grid = fig4_heatmap("WAIH100")
        columns = len(grid[0])
        for col in range(columns):
            rates = [
                row[col].images_per_s
                for row in grid
                if row[col].images_per_s is not None
            ]
            assert rates == sorted(rates)


class TestRendering:
    def test_text_grid_contains_oom(self):
        text = heatmap_grid_for("A100")
        assert "OOM" in text
        assert "gbs\\dev" in text

    def test_cell_text(self):
        grid = fig4_heatmap("H100", batch_sizes=(64,))
        assert grid[0][0].text.isdigit()

    def test_best_cell_requires_runnable(self):
        from repro.analysis.heatmap import HeatmapCell

        with pytest.raises(ConfigError):
            best_cell([[HeatmapCell(1, 16, None, oom=True)]])


class TestIpuCellErrors:
    """Only the SRAM check's OOM becomes an OOM cell."""

    def test_oom_becomes_an_oom_cell(self, monkeypatch):
        from repro.engine.poplar import PoplarResNetEngine
        from repro.errors import OutOfMemoryError

        def out_of_sram(self, micro_batch=16):
            raise OutOfMemoryError("micro-batch does not fit")

        monkeypatch.setattr(PoplarResNetEngine, "check_memory", out_of_sram)
        grid = fig4_heatmap("GC200", batch_sizes=(64,))
        assert all(cell.oom for cell in grid[0])

    def test_other_errors_propagate(self, monkeypatch):
        from repro.engine.poplar import PoplarResNetEngine

        def broken(self, micro_batch=16):
            raise ZeroDivisionError("engine bug")

        monkeypatch.setattr(PoplarResNetEngine, "check_memory", broken)
        with pytest.raises(ZeroDivisionError, match="engine bug"):
            fig4_heatmap("GC200", batch_sizes=(64,))
