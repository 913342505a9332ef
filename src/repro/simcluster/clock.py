"""Virtual time source for deterministic simulation.

Engines advance virtual time by the modelled duration of each training
phase; power sensors and jpwr backends read the same clock, so a full
benchmark of a one-hour training run executes in milliseconds of wall
time while producing exactly the timestamps a real run would.
"""

from __future__ import annotations

import threading


class VirtualClock:
    """A monotonically advancing simulated clock.

    The clock is thread-safe because jpwr's context manager may sample
    from a separate thread while the engine advances time.
    """

    def __init__(self, start_s: float = 0.0) -> None:
        self._now = float(start_s)
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current virtual time in seconds."""
        with self._lock:
            return self._now

    # Allow passing the clock object itself wherever a clock *callable*
    # is expected (sensors take ``clock: Callable[[], float]``).  An
    # alias rather than a forwarding method: every sensor read calls it.
    __call__ = now

    def advance(self, duration_s: float) -> float:
        """Advance time by a non-negative duration; returns new time."""
        if duration_s < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now += duration_s
            return self._now

    def advance_to(self, time_s: float) -> float:
        """Advance to an absolute time (no-op if already past it)."""
        with self._lock:
            if time_s > self._now:
                self._now = time_s
            return self._now
