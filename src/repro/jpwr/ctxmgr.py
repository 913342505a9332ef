"""The jpwr context manager (paper §III-A4).

Usage mirrors the paper's example::

    from repro.jpwr.methods.pynvml import PynvmlMethod
    from repro.jpwr.methods.gh import GraceHopperMethod
    from repro.jpwr.ctxmgr import get_power

    met_list = [PynvmlMethod(), GraceHopperMethod()]
    with get_power(met_list, 100) as measured_scope:
        application_call()
    print(measured_scope.df)
    energy_df, additional_data = measured_scope.energy()

The context manager starts a power-measurement loop in a separate
thread that periodically queries power through the configured methods,
saving data points with timestamps; at scope exit the points are
integrated to energy.  Multiple backends can be active at once ("useful
for GH200, where both pynvml and sysfs methods can be used").

For deterministic virtual-time simulation, pass ``manual=True`` and a
virtual ``clock``: no thread is started and the driver (the training
engine) calls :meth:`MeasuredScope.sample` at each simulated step.
Such a scope defers its sensor reads: a sample records its time and
checks each device's health, and the reads are replayed in bulk, once
per device, when the frame is needed (``df``, ``energy()``, ``stop()``)
or a device is read directly.  The replay reproduces the eager reads
byte for byte (see :mod:`repro.power.sensors`).  Reads stay eager under
an active fault-injection scope (its seams are stateful and their
provenance order is output), in threaded mode, when a device runs on
another clock than the scope, and for a sample that finds a device
unhealthy (pending reads are settled first).
"""

from __future__ import annotations

import math
import threading
import time
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from repro.errors import MeasurementError
from repro.faults.injector import get_injector
from repro.jpwr.energy import TIME_COLUMN, energy_frame
from repro.jpwr.frame import DataFrame
from repro.jpwr.methods.base import PowerMethod
from repro.obs.log import get_logger
from repro.power.sensors import DeferredReads, SimulatedDevice
from repro.simcluster.clock import VirtualClock

logger = get_logger(__name__)


class MeasuredScope:
    """Measurement state handed back by :func:`get_power`.

    Attributes
    ----------
    df:
        Sample frame: ``time_s`` plus one power column per measured
        quantity across all methods.  Reading it replays any deferred
        samples first, so it always holds every sample taken so far.
    interval_ms:
        Sampling period.
    """

    def __init__(
        self,
        methods: Sequence[PowerMethod],
        interval_ms: float,
        clock: Callable[[], float],
        *,
        manual: bool = False,
        on_error: str = "skip",
    ) -> None:
        if not methods:
            raise MeasurementError("get_power needs at least one method")
        if interval_ms <= 0:
            raise MeasurementError("sampling interval must be positive")
        if on_error not in ("skip", "raise"):
            raise MeasurementError("on_error must be 'skip' or 'raise'")
        self.methods = list(methods)
        self.interval_ms = float(interval_ms)
        self.clock = clock
        self.manual = manual
        self.on_error = on_error
        self._df = DataFrame()
        self.dropped_samples = 0
        self._anomalous_samples = 0
        self._labels: list[str] = []
        #: Per method: its column labels in frame order, and as a set.
        self._method_labels: list[tuple[list[str], frozenset[str]]] = []
        #: Log of deferred reads; None while samples read eagerly.
        self._deferred: DeferredReads | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Initialise methods, fix the column order, begin sampling."""
        for method in self.methods:
            method.init()
        self._labels = []
        self._method_labels = []
        for method in self.methods:
            labels = method.labels()
            for label in labels:
                if label in self._labels:
                    raise MeasurementError(f"duplicate measurement label {label!r}")
                self._labels.append(label)
            self._method_labels.append((labels, frozenset(labels)))
        self._df = DataFrame([TIME_COLUMN, *self._labels])
        self._deferred = self._deferred_reads() if self.manual else None
        self.sample()  # one sample at scope entry, as the real tool does
        if not self.manual:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="jpwr-sampler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the sampling loop and take a final sample."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.sample()
        self._settle()
        self._deferred = None
        if self.dropped_samples:
            logger.warning(
                "dropped %d power samples to sensor read failures",
                self.dropped_samples,
            )
        if self.anomalous_samples:
            logger.warning(
                "discarded %d anomalous (non-finite) power samples",
                self.anomalous_samples,
            )
        logger.debug(
            "measurement scope closed: %d samples, %d columns",
            len(self._df), max(0, len(self._df.columns) - 1),
        )

    @property
    def df(self) -> DataFrame:
        """The sample frame, with every deferred sample replayed."""
        self._settle()
        return self._df

    @property
    def anomalous_samples(self) -> int:
        """Samples discarded for a non-finite power value."""
        self._settle()
        return self._anomalous_samples

    def _loop(self) -> None:
        period_s = self.interval_ms / 1000.0
        while not self._stop.wait(period_s):
            self.sample()

    # -- sampling ------------------------------------------------------------

    def sample(self) -> None:
        """Take one sample across all methods.

        A failing read (sensor dropout) either drops the whole sample
        (``on_error='skip'``, counted in :attr:`dropped_samples`) or
        propagates (``on_error='raise'``).  A sample containing a
        non-finite power value — the MI250-style sensor anomalies the
        paper reports — is always discarded (counted in
        :attr:`anomalous_samples`) so one bogus reading cannot poison
        the trapezoidal energy integration.

        Values are appended by position in the column order fixed by
        :meth:`start`; a read whose keys differ from its method's
        labels raises :class:`MeasurementError`.

        A scope with deferred reads only records the time here, unless
        a fault-injection scope is active or a device is unhealthy:
        then the pending reads are settled and this sample reads
        eagerly.
        """
        now = self.clock()
        deferred = self._deferred
        if deferred is not None:
            if not get_injector().enabled and deferred.record(now):
                return
            deferred.flush()
        try:
            readings = [method.read() for method in self.methods]
        except MeasurementError:
            if self.on_error == "raise":
                raise
            self.dropped_samples += 1
            return
        values = [now]
        for reading, (labels, label_set) in zip(readings, self._method_labels):
            if reading.keys() != label_set:
                raise MeasurementError(
                    f"read keys {sorted(reading)} differ from labels {sorted(label_set)}"
                )
            values.extend(map(reading.__getitem__, labels))
        if not all(map(math.isfinite, values[1:])):
            self._anomalous_samples += 1
            return
        with self._lock:
            self._df.append_values(values)

    # -- deferred reads ------------------------------------------------------

    def _deferred_reads(self) -> DeferredReads | None:
        """The read log of a scope that may defer, else None.

        Deferral needs a virtual clock shared by every measured device
        (a read then happens at its sample's time whenever it is
        replayed) and methods whose :meth:`~PowerMethod.replay`
        reproduces their reads.
        """
        if not isinstance(self.clock, VirtualClock):
            return None
        reads: dict[SimulatedDevice, int] = {}
        for method in self.methods:
            if not method.replayable:
                return None
            for _, device in method.channels():
                if device.clock is not self.clock:
                    return None
                reads[device] = reads.get(device, 0) + 1
        return DeferredReads(reads, self._append_replayed)

    def _settle(self) -> None:
        """Replay the pending deferred samples into the frame."""
        if self._deferred is not None:
            self._deferred.flush()

    def _append_replayed(
        self, times: list[float], powers: dict[SimulatedDevice, np.ndarray]
    ) -> None:
        """Append replayed samples: the bulk tail of :meth:`sample`.

        Each method reads its channels' devices once per sample, in
        method order, so method ``m``'s read of a device is that
        device's next column in ``powers``.  Rows with a non-finite
        value are discarded and counted, as in :meth:`sample`.
        """
        columns = [times]
        taken: dict[SimulatedDevice, int] = {}
        for method, (labels, label_set) in zip(self.methods, self._method_labels):
            channel_powers = []
            for _, device in method.channels():
                column = taken.get(device, 0)
                taken[device] = column + 1
                channel_powers.append(powers[device][:, column])
            replayed = method.replay(channel_powers)
            if replayed.keys() != label_set:
                raise MeasurementError(
                    f"replay keys {sorted(replayed)} differ from labels {sorted(label_set)}"
                )
            columns.extend(map(replayed.__getitem__, labels))
        finite = np.ones(len(times), dtype=bool)
        for column in columns[1:]:
            finite &= np.isfinite(column)
        if not finite.all():
            self._anomalous_samples += len(times) - int(finite.sum())
            columns = [
                list(compress(times, finite)),
                *(column[finite] for column in columns[1:]),
            ]
        floats = [columns[0], *(column.tolist() for column in columns[1:])]
        with self._lock:
            self._df.extend_columns(floats)

    # -- results ---------------------------------------------------------------

    def energy(self) -> tuple[DataFrame, dict[str, DataFrame]]:
        """Integrated energy plus per-method additional data.

        Returns the pair the real tool returns: an energy DataFrame
        (one row, Wh per measured column) and a dict of additional
        DataFrames keyed by method-specific names.
        """
        df = self.df  # settles deferred samples, which takes the lock
        with self._lock:
            edf = energy_frame(df)
        additional: dict[str, DataFrame] = {}
        for method in self.methods:
            for key, frame in method.additional_data().items():
                if key in additional:
                    raise MeasurementError(f"duplicate additional-data key {key!r}")
                additional[key] = frame
        return edf, additional

    def total_energy_wh(self) -> float:
        """Sum of integrated energy over all measured columns (Wh)."""
        edf, _ = self.energy()
        return sum(edf.row(0).values())


class _GetPower:
    """Context manager wrapper creating and driving a MeasuredScope."""

    def __init__(self, scope: MeasuredScope) -> None:
        self.scope = scope

    def __enter__(self) -> MeasuredScope:
        self.scope.start()
        return self.scope

    def __exit__(self, exc_type, exc, tb) -> None:
        self.scope.stop()


def get_power(
    methods: Sequence[PowerMethod],
    interval_ms: float = 100.0,
    *,
    clock: Callable[[], float] | None = None,
    manual: bool = False,
    on_error: str = "skip",
) -> _GetPower:
    """Create the jpwr measurement context manager.

    Parameters
    ----------
    methods:
        Backend instances (e.g. ``[PynvmlMethod(), GraceHopperMethod()]``).
    interval_ms:
        Sampling period in milliseconds (the paper's example uses 100).
    clock:
        Time source; defaults to ``time.monotonic``.  Pass a
        :class:`~repro.simcluster.clock.VirtualClock` for simulation.
    manual:
        Disable the sampling thread; the caller invokes
        :meth:`MeasuredScope.sample` explicitly.
    on_error:
        ``"skip"`` drops samples whose read fails; ``"raise"``
        propagates the failure.
    """
    scope = MeasuredScope(
        methods,
        interval_ms,
        clock if clock is not None else time.monotonic,
        manual=manual,
        on_error=on_error,
    )
    return _GetPower(scope)
