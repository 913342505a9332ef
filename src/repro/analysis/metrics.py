"""Derived metrics used across the evaluation figures.

These are closed-form (no simulated run needed): they evaluate the
step models directly, which is what the figure/heatmap generators
sweep.  The simulated-run path (engines + jpwr) produces the same
numbers; tests assert the two agree.
"""

from __future__ import annotations

from repro.engine.perf import CNNStepModel, LLMStepModel, StepBreakdown
from repro.engine.trainer import LOW_PHASE_UTILISATION
from repro.errors import ConfigError
from repro.hardware.node import NodeSpec
from repro.power.model import power_model_for_node
from repro.units import per_wh


def mean_step_power_w(node: NodeSpec, step: StepBreakdown) -> float:
    """Time-averaged per-device power over one step's phases.

    The busy phase draws at the step's utilisation; the remainder
    (communication, optimizer, host waits) at the low-phase level --
    the same profile the engines drive through the sensors.
    """
    model = power_model_for_node(node)
    busy = step.busy_s
    tail = step.total_s - busy
    if step.total_s <= 0:
        raise ConfigError("step has zero duration")
    energy = model.power(step.utilisation) * busy + model.power(
        min(step.utilisation, LOW_PHASE_UTILISATION)
    ) * tail
    return energy / step.total_s


def tokens_per_wh(model: LLMStepModel, global_batch_size: int) -> float:
    """LLM energy efficiency: tokens per Wh per device (Fig. 2 bottom)."""
    step = model.step(global_batch_size)
    rate = model.tokens_per_second_per_device(global_batch_size)
    power = mean_step_power_w(model.node, step)
    return per_wh(rate, power)


def images_per_wh(model: CNNStepModel, global_batch_size: int) -> float:
    """CNN energy efficiency: images per Wh per device (Fig. 3 bottom)."""
    step = model.step(global_batch_size // model.devices)
    rate = model.images_per_second_per_device(global_batch_size)
    power = mean_step_power_w(model.node, step)
    return per_wh(rate, power)


def energy_per_hour_wh(node: NodeSpec, step: StepBreakdown) -> float:
    """Energy per device for one hour of training (Fig. 2 middle)."""
    return mean_step_power_w(node, step) * 1.0  # W x 1 h


def epoch_energy_wh(
    node: NodeSpec, step: StepBreakdown, rate_per_device: float, images: int
) -> float:
    """Energy per device to process ``images`` samples (Fig. 3 middle)."""
    if rate_per_device <= 0:
        raise ConfigError("rate must be positive")
    epoch_s = images / rate_per_device
    return mean_step_power_w(node, step) * epoch_s / 3600.0
