"""Simulated device power sensors.

A :class:`SimulatedDevice` stands in for one accelerator as seen by the
vendor management libraries: it has a *current utilisation* (set by
whoever is "running" work on it, e.g. the jpwr CLI's workload replayer
or a test), an accumulating energy counter, and an instantaneous power
read with optional measurement noise -- the three things NVML /
rocm-smi / gcipuinfo / hwmon actually expose.

Time comes from an injectable clock callable so the same sensor works
under real time (``time.monotonic``, used by the jpwr sampling thread)
and under the virtual clock of :mod:`repro.simcluster.clock`.

Reads are eager by default: :meth:`SimulatedDevice.read` accrues the
energy counter, draws the noise and consults the fault seams on the
spot.  A virtual-clock jpwr scope may instead *defer* them to a
:class:`DeferredReads` log, which records only the sample times; each
device then logs its utilisation changes (sample index, time, power)
instead of accruing, and :meth:`SimulatedDevice._replay` settles every
deferred read of the device in one pass when the log is flushed.  The
replay performs the eager arithmetic in the eager order -- one
``e += p * dt`` step per read, only when ``dt > 0``, as a left fold
(``np.cumsum``); one normal draw per read from the device's RNG; the
clamp at 0 -- so a flushed device is bit-identical to one read eagerly.
Any eager read of a deferred device flushes the log first.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import MeasurementError
from repro.faults.injector import get_injector
from repro.hardware.accelerator import AcceleratorSpec
from repro.power.model import PowerModel, power_model_for_device, power_model_for_node


class SensorReading(NamedTuple):
    """One instantaneous read: timestamp, power, accumulated energy.

    A named tuple rather than a dataclass: one is built per device per
    sample, which makes it the hottest allocation of a measured run.
    """

    time_s: float
    power_w: float
    energy_j: float


class SimulatedDevice:
    """One accelerator device with readable power counters.

    Parameters
    ----------
    index:
        Device index as the management library would report it.
    spec:
        The accelerator spec (used for names and the default model).
    model:
        Power model; defaults to the calibrated model for ``spec``.
        The model is fixed at construction: the device caches
        ``model.power(u)`` for its current utilisation.
    clock:
        Zero-argument callable returning seconds; defaults to
        ``time.monotonic``.
    noise_fraction:
        Relative standard deviation of multiplicative Gaussian read
        noise (real counters jitter by a percent or two).
    seed:
        Seed of the per-device RNG so reads are reproducible.
    """

    def __init__(
        self,
        index: int,
        spec: AcceleratorSpec,
        *,
        model: PowerModel | None = None,
        clock: Callable[[], float] | None = None,
        noise_fraction: float = 0.0,
        seed: int | None = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.model = model if model is not None else power_model_for_device(spec)
        self.clock = clock if clock is not None else time.monotonic
        self.noise_fraction = float(noise_fraction)
        self._rng = np.random.default_rng(seed if seed is not None else index)
        self._lock = threading.Lock()
        self._util = 0.0
        # model.power(self._util), refreshed whenever the utilisation
        # changes; reads and energy accrual reuse it.
        self._power_w = self.model.power(self._util)
        self._energy_j = 0.0
        self._last_update_s = self.clock()
        self.healthy = True
        #: The log holding this device's deferred reads, None while eager.
        self._deferred: DeferredReads | None = None
        # While deferred: (energy, last update, power) when deferral
        # began, and the utilisation changes since, flattened as
        # (sample index, time, power) triples.
        self._base = (0.0, 0.0, 0.0)
        self._changes = array("d")

    @property
    def name(self) -> str:
        """Device name as a management library would report it."""
        return f"{self.spec.name} #{self.index}"

    # -- state driven by the workload -----------------------------------

    def set_utilisation(self, utilisation: float) -> None:
        """Change the device's current utilisation.

        Energy is accrued for the elapsed interval at the *previous*
        utilisation before switching, so the accumulated counter stays
        exact no matter how often callers flip utilisation.  While the
        device's reads are deferred, the change is logged instead and
        accrued at its own position when the reads are replayed.
        """
        if not 0.0 <= utilisation <= 1.0:
            raise ValueError(f"utilisation must be in [0,1], got {utilisation}")
        util = float(utilisation)
        # The model is pure: a repeated utilisation reuses its watts.
        power_w = self._power_w if util == self._util else self.model.power(util)
        with self._lock:
            deferred = self._deferred
            if deferred is None:
                self._accrue_locked()
            else:
                self._changes.extend((len(deferred.times), self.clock(), power_w))
            self._util = util
            self._power_w = power_w

    def fail(self) -> None:
        """Mark the sensor unhealthy; subsequent reads raise.

        Used by the failure-injection tests: real management libraries
        occasionally return errors (falling off the bus, driver resets)
        and jpwr must cope.
        """
        self.healthy = False

    def repair(self) -> None:
        """Restore a failed sensor."""
        self.healthy = True

    # -- counter reads ---------------------------------------------------

    def read(self) -> SensorReading:
        """Read timestamp, instantaneous power and accumulated energy.

        An active fault-injection scope can perturb the read the way
        real management libraries misbehave: ``sensor_dropout`` raises
        (the device fell off the bus), ``sensor_spike`` offsets the
        power (the paper's MI250 anomaly class), ``sensor_nan`` poisons
        it (jpwr discards the sample as anomalous).  Deferred reads of
        this device are replayed first.
        """
        if self._deferred is not None:
            self._deferred.flush()
        if not self.healthy:
            raise MeasurementError(f"{self.name}: sensor read failed")
        with self._lock:
            now = self._accrue_locked()
            power = self._power_w
            if self.noise_fraction > 0:
                power *= 1.0 + self.noise_fraction * float(self._rng.standard_normal())
                power = max(power, 0.0)
            energy_j = self._energy_j
        fault = get_injector().sensor_fault(self.index, now)
        if fault is not None:
            kind, magnitude = fault
            if kind == "sensor_dropout":
                raise MeasurementError(f"{self.name}: injected sensor dropout")
            if kind == "sensor_spike":
                power = max(power + magnitude, 0.0)
            else:  # sensor_nan
                power = float("nan")
        return SensorReading(now, power, energy_j)

    def read_power_w(self) -> float:
        """Instantaneous power only (what nvml's power read returns)."""
        return self.read().power_w

    def read_energy_j(self) -> float:
        """Accumulated energy counter (what nvml's total-energy returns)."""
        return self.read().energy_j

    def utilisation(self) -> float:
        """Current utilisation (management libraries expose this too)."""
        with self._lock:
            return self._util

    def _accrue_locked(self) -> float:
        """Advance the internal energy counter to 'now'; returns now."""
        now = self.clock()
        dt = now - self._last_update_s
        if dt > 0:
            # Exactly PowerModel.energy(util, dt): power(util) * dt.
            self._energy_j += self._power_w * dt
            self._last_update_s = now
        return now

    # -- deferred reads ----------------------------------------------------

    def _defer_to(self, deferred: "DeferredReads") -> None:
        """Start logging reads to ``deferred`` from the current state."""
        if self._deferred is not None and self._deferred is not deferred:
            self._deferred.flush()  # one pending log per device
        with self._lock:
            self._deferred = deferred
            self._base = (self._energy_j, self._last_update_s, self._power_w)
            self._changes = array("d")

    def _replay(self, times: np.ndarray, reads: int) -> np.ndarray:
        """Settle the deferred reads; returns their powers, shape ``(n, reads)``.

        ``times`` holds the ``n`` deferred sample times and ``reads``
        the reads per sample (two when two jpwr methods share the
        device).  Row ``k`` holds the powers the eager :meth:`read`
        calls of sample ``k`` would have returned, in read order; the
        energy counter, its timestamp and the noise RNG end where those
        reads would have left them.  The device reads eagerly again.
        """
        with self._lock:
            energy_j, last_s, power_w = self._base
            changes = np.frombuffer(self._changes).reshape(-1, 3)
            self._deferred = None
            self._changes = array("d")
            n, c = len(times), len(changes)
            at = changes[:, 0].astype(np.intp)
            # Power in force before change j is powers[j]; a read sees
            # the power of the last change logged at or before its sample.
            powers = np.concatenate(([power_w], changes[:, 2]))
            seen = np.searchsorted(at, np.arange(n), side="right")
            read_w = powers[seen]
            # The accrual steps in eager order: change j runs just
            # before sample at[j]'s reads.  Only a sample's first read
            # accrues; the others fall at the same instant (dt == 0).
            step_t = np.empty(n + c)
            step_w = np.empty(n + c)
            change_pos = at + np.arange(c)
            step_t[change_pos] = changes[:, 1]
            step_w[change_pos] = powers[:-1]
            sample_pos = np.arange(n) + seen
            step_t[sample_pos] = times
            step_w[sample_pos] = read_w
            # The eager timestamp only moves forward (it updates when
            # dt > 0), so before step i it is the running maximum.
            last = np.maximum.accumulate(np.concatenate(([last_s], step_t)))
            dt = step_t - last[:-1]
            gained = np.where(dt > 0, step_w * dt, 0.0)
            self._energy_j = float(np.cumsum(np.concatenate(([energy_j], gained)))[-1])
            self._last_update_s = float(last[-1])
            read_w = np.repeat(read_w[:, None], reads, axis=1)
            if self.noise_fraction > 0:
                z = self._rng.standard_normal((n, reads))  # = n * reads scalar draws
                read_w *= 1.0 + self.noise_fraction * z
                read_w = np.where(0.0 > read_w, 0.0, read_w)  # max(power, 0.0)
            return read_w


class DeferredReads:
    """Sensor reads of several devices, recorded by time, replayed in bulk.

    ``reads`` maps each device to its reads per sample, in the order the
    samples take them.  :meth:`record` defers one sample: it stores the
    time once for all devices.  :meth:`flush` replays every device's
    deferred reads (:meth:`SimulatedDevice._replay`) and hands the
    sample times (the recorded list, whose floats the caller may keep)
    plus each device's read powers to ``sink``.  The
    owner flushes before it reads a device eagerly; an eager read of a
    deferred device flushes on its own.  Every :data:`BATCH_SAMPLES`
    samples the log flushes itself, which bounds the replay's working
    arrays however long the run.
    """

    #: Samples replayed per batch at most.
    BATCH_SAMPLES = 4096

    def __init__(
        self,
        reads: dict[SimulatedDevice, int],
        sink: Callable[[list[float], dict[SimulatedDevice, np.ndarray]], None],
    ) -> None:
        self.reads = reads
        self.sink = sink
        self._devices = tuple(reads)
        self.times: list[float] = []

    def record(self, t: float) -> bool:
        """Defer one sample taken at ``t``.

        Returns False, recording nothing, when a device is unhealthy:
        that sample must be read eagerly, as its read raises.
        """
        for device in self._devices:
            if not device.healthy:
                return False
        if not self.times:
            for device in self._devices:
                device._defer_to(self)
        self.times.append(t)
        if len(self.times) >= self.BATCH_SAMPLES:
            self.flush()
        return True

    def flush(self) -> None:
        """Replay every deferred read and pass the results to the sink."""
        if not self.times:
            return
        times = self.times
        self.times = []
        at = np.array(times)
        powers = {device: device._replay(at, n) for device, n in self.reads.items()}
        self.sink(times, powers)


class DeviceRegistry:
    """The set of devices visible on one (simulated) node.

    jpwr backends enumerate devices through this registry the way
    pynvml enumerates GPUs.  A registry is usually built by
    :func:`repro.simcluster.slurm.allocate_node` or directly in tests.
    """

    def __init__(self) -> None:
        self._devices: list[SimulatedDevice] = []

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self):
        return iter(self._devices)

    def add(self, device: SimulatedDevice) -> SimulatedDevice:
        """Register a device; indices must be unique."""
        if any(d.index == device.index for d in self._devices):
            raise MeasurementError(f"duplicate device index {device.index}")
        self._devices.append(device)
        return device

    def get(self, index: int) -> SimulatedDevice:
        """Look up a device by index."""
        for d in self._devices:
            if d.index == index:
                return d
        raise MeasurementError(f"no device with index {index}")

    def by_vendor(self, vendor) -> list[SimulatedDevice]:
        """All devices of one vendor (what a vendor library would see)."""
        return [d for d in self._devices if d.spec.vendor == vendor]

    @classmethod
    def for_node(
        cls,
        node,
        *,
        clock: Callable[[], float] | None = None,
        noise_fraction: float = 0.0,
        seed: int = 0,
    ) -> "DeviceRegistry":
        """Build the registry of one Table I node.

        Logical devices are enumerated the way the OS would (8 for the
        MI250 node); every device gets :func:`power_model_for_node`'s
        model (GH200 packages include the Grace host share, a capped
        node saturates at its cap).
        """
        registry = cls()
        model = power_model_for_node(node)
        for i in range(node.logical_devices_per_node):
            registry.add(
                SimulatedDevice(
                    i,
                    node.accelerator,
                    model=model,
                    clock=clock,
                    noise_fraction=noise_fraction,
                    seed=seed * 1000 + i,
                )
            )
        return registry
