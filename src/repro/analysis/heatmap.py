"""Regeneration of the paper's Figure 4 heatmaps.

One heatmap per system: ResNet50 training throughput (images/s) as a
function of device count (x) and global batch size (y), with OOM cells
where the per-device batch does not fit device memory -- exactly the
layout of Figures 4a-4g.  Multi-node cells appear for the systems where
the paper had multi-node resources.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.oom import check_cnn_memory
from repro.engine.perf import CNNStepModel
from repro.engine.poplar import PoplarResNetEngine
from repro.errors import ConfigError, OutOfMemoryError
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.models.resnet import CNNConfig, get_cnn_preset

#: Global batch sizes on the heatmap y-axis.
HEATMAP_BATCH_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class HeatmapCell:
    """One cell of a Figure 4 heatmap."""

    devices: int
    global_batch_size: int
    images_per_s: float | None  # None = not run (indivisible batch)
    oom: bool = False

    @property
    def text(self) -> str:
        """Cell text as the figure prints it."""
        if self.oom:
            return "OOM"
        if self.images_per_s is None:
            return "-"
        return f"{self.images_per_s:.0f}"


def device_axis(tag: str) -> tuple[int, ...]:
    """Device counts on a system's heatmap x-axis.

    Powers of two from 1 up to the total logical devices across the
    nodes the paper had available ("multi-node results for systems
    where resources were available").
    """
    node = get_system(tag)
    total = node.total_logical_devices
    axis = []
    n = 1
    while n <= total:
        axis.append(n)
        n *= 2
    return tuple(axis)


def _gpu_cell(
    tag: str, model: CNNConfig, devices: int, gbs: int
) -> HeatmapCell:
    node = get_system(tag)
    if gbs % devices != 0 or gbs < devices:
        return HeatmapCell(devices, gbs, None)
    local = gbs // devices
    budget = check_cnn_memory(node, model, local)
    if not budget.fits:
        return HeatmapCell(devices, gbs, None, oom=True)
    nodes_used = max(1, -(-devices // node.logical_devices_per_node))
    step_model = CNNStepModel(node, model, devices=devices, nodes_used=nodes_used)
    return HeatmapCell(devices, gbs, step_model.images_per_second(gbs))


def _ipu_cell(tag: str, model: CNNConfig, devices: int, gbs: int) -> HeatmapCell:
    node = get_system(tag)
    if gbs % devices != 0 or gbs < devices:
        return HeatmapCell(devices, gbs, None)
    engine = PoplarResNetEngine(node, model, replicas=devices)
    try:
        engine.check_memory()
    except OutOfMemoryError:
        return HeatmapCell(devices, gbs, None, oom=True)
    return HeatmapCell(devices, gbs, engine.images_per_second(gbs))


def fig4_heatmap(
    tag: str,
    *,
    model_name: str = "resnet50",
    batch_sizes: tuple[int, ...] = HEATMAP_BATCH_SIZES,
    devices: tuple[int, ...] | None = None,
) -> list[list[HeatmapCell]]:
    """The full heatmap of one system: rows = batch sizes, cols = devices."""
    if tag not in SYSTEM_TAGS:
        raise ConfigError(f"unknown system tag {tag!r}")
    model = get_cnn_preset(model_name)
    axis = devices if devices is not None else device_axis(tag)
    node = get_system(tag)
    cell = _ipu_cell if node.is_ipu_pod else _gpu_cell
    grid = []
    for gbs in batch_sizes:
        grid.append([cell(tag, model, n, gbs) for n in axis])
    return grid


def heatmap_grid_for(tag: str, **kwargs) -> str:
    """Render one system's heatmap as aligned text (the bench output)."""
    grid = fig4_heatmap(tag, **kwargs)
    axis = [c.devices for c in grid[0]]
    header = ["gbs\\dev"] + [str(n) for n in axis]
    rows = [header]
    for row in grid:
        rows.append([str(row[0].global_batch_size)] + [c.text for c in row])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(v.rjust(widths[i]) for i, v in enumerate(r)))
    return "\n".join(lines)


def best_cell(grid: list[list[HeatmapCell]]) -> HeatmapCell:
    """Highest-throughput cell of a heatmap."""
    cells = [c for row in grid for c in row if c.images_per_s is not None]
    if not cells:
        raise ConfigError("heatmap has no runnable cells")
    return max(cells, key=lambda c: c.images_per_s)


def best_in_row(grid: list[list[HeatmapCell]], gbs: int) -> HeatmapCell:
    """Highest-throughput cell of one batch-size row."""
    for row in grid:
        if row and row[0].global_batch_size == gbs:
            cells = [c for c in row if c.images_per_s is not None]
            if not cells:
                raise ConfigError(f"row {gbs} has no runnable cells")
            return max(cells, key=lambda c: c.images_per_s)
    raise ConfigError(f"no heatmap row for batch size {gbs}")
