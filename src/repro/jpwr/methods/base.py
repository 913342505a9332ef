"""Base class and device discovery for jpwr methods.

Real jpwr methods discover devices through global vendor libraries
(pynvml enumerates every GPU in the node).  The simulated equivalent is
a process-global *active registry* that whoever owns the node (the
Slurm job, a test, the CLI) installs before measuring; methods may also
be constructed against an explicit registry.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MeasurementError
from repro.hardware.accelerator import Vendor
from repro.jpwr.frame import DataFrame
from repro.power.sensors import DeviceRegistry, SimulatedDevice

_ACTIVE_REGISTRY: DeviceRegistry | None = None


def quantize(value_w: float, scale: float) -> float:
    """Truncate to a backend's reporting granularity (1/``scale`` watts).

    Non-finite readings (a faulted sensor returning NaN) pass through
    unchanged so the sampling layer can count and discard them instead
    of crashing in ``int()``.
    """
    if not math.isfinite(value_w):
        return value_w
    return int(value_w * scale) / scale


def quantize_array(values_w: np.ndarray, scale: float) -> np.ndarray:
    """:func:`quantize` over an array, value for value.

    For finite values ``np.trunc`` equals ``int()``, and ``+ 0.0`` turns
    its ``-0.0`` into the ``0.0`` that ``int()`` gives; NaN and the
    infinities pass through as in :func:`quantize`.
    """
    return np.trunc(values_w * scale) / scale + 0.0


def set_active_registry(registry: DeviceRegistry | None) -> None:
    """Install (or clear, with None) the process-global device registry."""
    global _ACTIVE_REGISTRY
    _ACTIVE_REGISTRY = registry


def get_active_registry() -> DeviceRegistry:
    """The installed registry; raises if none is installed."""
    if _ACTIVE_REGISTRY is None:
        raise MeasurementError(
            "no active device registry; call set_active_registry() or pass "
            "an explicit registry to the method"
        )
    return _ACTIVE_REGISTRY


class PowerMethod:
    """One measurement backend.

    Subclasses define :attr:`vendor` (device filter), :attr:`label_prefix`
    and :attr:`scale`, and may override :meth:`devices`, :meth:`read` and
    :meth:`additional_data`.  ``read()`` returns the instantaneous power
    per measured quantity, keyed by a stable column label; those labels
    become DataFrame columns.
    """

    #: CLI name, overridden by subclasses.
    name: str = "base"
    #: Vendor whose devices this method measures.
    vendor: Vendor | None = None
    #: Column label of device ``i`` is ``f"{label_prefix}{i}"``.
    label_prefix: str = "dev"
    #: Reporting granularity: reads are truncated to 1/``scale`` watts.
    scale: float = 1.0

    def __init__(self, registry: DeviceRegistry | None = None) -> None:
        self._registry = registry
        self._channels: list[tuple[str, SimulatedDevice]] | None = None

    @property
    def registry(self) -> DeviceRegistry:
        """Explicit registry if given, else the process-global one."""
        return self._registry if self._registry is not None else get_active_registry()

    def devices(self) -> list[SimulatedDevice]:
        """Devices this method measures on the current node."""
        if self.vendor is None:
            return list(self.registry)
        return self.registry.by_vendor(self.vendor)

    def channels(self) -> list[tuple[str, SimulatedDevice]]:
        """``(label, device)`` pairs, enumerated once and then reused."""
        if self._channels is None:
            self._channels = [(f"{self.label_prefix}{d.index}", d) for d in self.devices()]
        return self._channels

    def init(self) -> None:
        """Hook called once when measurement starts: enumerates devices.

        Raises MeasurementError when the method has nothing to measure,
        matching real jpwr failing fast on an absent vendor library.
        """
        self._channels = None
        if not self.channels():
            raise MeasurementError(f"method {self.name!r}: no matching devices")

    def read(self) -> dict[str, float]:
        """Instantaneous power per label, in watts, at the backend's
        reporting granularity."""
        scale = self.scale
        return {label: quantize(dev.read_power_w(), scale) for label, dev in self.channels()}

    def replay(self, powers: list[np.ndarray]) -> dict[str, np.ndarray]:
        """Columns of deferred reads: the array counterpart of :meth:`read`.

        ``powers`` holds, per channel in :meth:`channels` order, the
        device powers of the deferred reads (one per sample).  Returns
        the labels :meth:`read` returns, each mapped to its column.
        """
        scale = self.scale
        return {
            label: quantize_array(power_w, scale)
            for (label, _), power_w in zip(self.channels(), powers)
        }

    @property
    def replayable(self) -> bool:
        """Whether this method's reads may be deferred and replayed.

        :meth:`replay` must reproduce :meth:`read`, which must read each
        channel's device once; a subclass that overrides ``read()``
        without ``replay()`` is always read eagerly.
        """
        cls = type(self)
        return cls.read is PowerMethod.read or cls.replay is not PowerMethod.replay

    def additional_data(self) -> dict[str, DataFrame]:
        """Extra per-method DataFrames returned by ``scope.energy()``."""
        return {}

    def labels(self) -> list[str]:
        """Column labels this method produces (order of ``read()``).

        Discovered from one read, as the real tool takes its columns
        from the first sample; the read is a real one (it draws sensor
        noise and consults the fault seams like any other).
        """
        return list(self.read())
