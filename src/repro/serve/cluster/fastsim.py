"""The cluster serve fast path: heap events and fused decode runs.

:class:`_FastClusterLoop` is the ``engine_mode="fast"`` implementation
behind :class:`~repro.serve.cluster.simulator.ClusterSimulator` and the
path that carries the million-request headline: the reference loop
costs ~90 events per request (every decode step of every replica is a
full-loop iteration with an O(sources) next-event scan), the fast loop
costs ~O(1) heap events per request.

Three mechanisms, each provably output-preserving:

* **Heap-based event scheduling** (:class:`~repro.serve.events.EventHeap`):
  producers push candidate event times (phase ends, arrivals, transfer
  completions, autoscaler evaluations, spin-up readiness) and the loop
  pops the earliest, running the *same fixed handler order* the
  reference runs per iteration — so same-time ties break identically,
  and stale or duplicate entries are harmless no-op iterations.
* **Fused decode runs, bounded per replica**: a replica's batch
  membership is constant between its own admissions and completions,
  so a run fuses decode steps up to the batch's next completion
  (:meth:`~repro.serve.scheduler.ContinuousBatchScheduler.steps_to_next_completion`).
  The bound is lazy: ``_offer`` cuts the run only when a request lands
  on *that* replica, at the first step boundary at or after the offer
  -- the step in flight finishes and admission resumes at its end,
  exactly when the reference could first admit.  Only the first
  request into an empty queue cuts: a head that was already queued
  when the run began never fits the constant batch, and a full batch
  admits nothing, so neither needs a cut.  Nothing else the loop reads
  (load, acceptance, prefix caches, queue lengths, phase utilisation)
  changes inside a run.  **Tie rule:** a cut boundary equal to the
  offer time is one the reference finished this iteration, so the run
  closes in place and ``_dispatch`` admits in the same iteration, in
  index order; such a boundary is intermediate, so nothing is evicted.
  Step boundaries and the per-step busy time, energy and cursor shares
  are folded once per run, when it closes, with a sequential
  ``np.add.accumulate`` or scalar loop (a left fold, exactly the
  reference's ``t += dt`` chain).  A cut leaves the old end time in the
  heap as a stale entry.
* **Vectorized KV admission**: per-request KV reservations come from
  one :class:`~repro.serve.soa.RequestTable` multiply, cached into
  every replica's scheduler.

Telemetry equivalence: samples are taken at heap events instead of at
every step boundary, but every probed quantity is piecewise-constant
between heap events (a fused run presents one synthetic busy phase
with the same utilisation), so each sample point reads the same value
it reads under the reference.  Byte-identical outputs are asserted by
``tests/serve/test_equivalence.py`` across the full configuration grid.
"""

from __future__ import annotations

import numpy as np

from repro.serve.arrivals import Request
from repro.serve.cluster.replica import JOULES_PER_WH, Replica, ReplicaRole, ReplicaState
from repro.serve.cluster.simulator import _ClusterLoop
from repro.serve.events import EventHeap
from repro.serve.soa import RequestTable

#: Phase kind marking a fused multi-step decode run.
_FUSED_DECODE = "decode-run"

#: Run lengths at or below this fold with scalar arithmetic (same IEEE
#: operation sequence as the numpy path, without the fixed overhead of
#: array allocation; crossover measured at roughly a hundred steps).
_SCALAR_STEPS = 128


class _FastClusterLoop(_ClusterLoop):
    """The heap-driven, run-fusing drop-in for ``_ClusterLoop``."""

    def __init__(
        self, sim, requests: tuple[Request, ...], clock
    ) -> None:
        self.table = RequestTable(
            requests,
            sim.engine.model.kv_cache_bytes_per_token(sim.engine.policy),
        )
        super().__init__(sim, requests, clock)
        kv_cache = self.table.kv_bytes_by_index()
        for replica in self.replicas:
            replica.scheduler.kv_bytes_cache = kv_cache
        self.events = EventHeap()
        self._decode_cache: dict[int, float] = {}
        #: Each replica's in-flight fused run, or None.
        self._runs: list[_Run | None] = [None] * len(self.replicas)
        self._decode_power = self.replicas[0].power_model.power(self.util_decode)
        # Last armed time per event source, to avoid duplicate pushes.
        self._armed_arrival: float | None = None
        self._armed_eval: float | None = None
        self._armed_busy: list[float | None] = [None] * len(self.replicas)
        self._armed_ready: list[float | None] = [None] * len(self.replicas)

    # -- event arming --------------------------------------------------------

    def _arm(self, now: float) -> None:
        """Push every pending event source's next time (if it changed)."""
        events = self.events
        if self.pending:
            t = self.pending[0].arrival_s
            if t != self._armed_arrival:
                events.push_at_or_after(t, now)
                self._armed_arrival = t
        for replica in self.replicas:
            busy = replica.busy_until_s
            if busy is not None and busy != self._armed_busy[replica.index]:
                events.push(busy)
                self._armed_busy[replica.index] = busy
            if (
                replica.state is ReplicaState.STARTING
                and replica.ready_at_s != self._armed_ready[replica.index]
            ):
                events.push(replica.ready_at_s)
                self._armed_ready[replica.index] = replica.ready_at_s
        if self.autoscaler is not None and (
            self.autoscaler.next_eval_s != self._armed_eval
        ):
            events.push(self.autoscaler.next_eval_s)
            self._armed_eval = self.autoscaler.next_eval_s

    def _start_transfer(self, index: int, source: Replica, now: float) -> None:
        super()._start_transfer(index, source, now)
        self.events.push(self.transfers[-1].done_at_s)

    # -- event loop ----------------------------------------------------------

    def run(self) -> None:
        """The reference loop's handler order, driven by the heap."""
        self._observe_replicas()
        now = self.clock.now()
        self._ingest(now)
        self._dispatch(now)
        if self.sampler is not None:
            self.sampler.tick(now)
        self._arm(now)
        while self._work_remaining():
            target = self.events.pop_due()
            now = self.clock.now()
            if target > now:
                self.clock.advance_to(target)
                now = target
            if self.sampler is not None:
                self.sampler.tick(now)
            self._replica_transitions(now)
            self._phase_completions(now)
            self._ingest(now)
            self._transfer_completions(now)
            if self.autoscaler is not None and self.autoscaler.due(now):
                started, stopped = self.autoscaler.evaluate(now)
                if started or stopped:
                    self._observe_replicas()
            self._dispatch(now)
            self._arm(now)
        # Close every powered-on replica's idle accounting at end of run.
        end = self.clock.now()
        for replica in self.replicas:
            replica.account_to(max(end, replica.ready_at_s))

    # -- fused decode runs ---------------------------------------------------

    def _offer(self, replica: Replica, request: Request, now: float) -> None:
        """Queue the request, cutting the replica's fused run if it can admit.

        Only the first request into an empty queue can change what the
        replica does next: a queue that was non-empty when the run began
        has a head the constant batch can never fit, and any later offer
        during the run finds the run already cut.
        """
        was_empty = not len(replica.queue)
        replica.queue.offer(request)
        run = self._runs[replica.index]
        if (
            was_empty
            and run is not None
            and run.cuttable
            and replica.busy_until_s > now
        ):
            self._cut(replica, run, now)

    def _begin_decode(self, replica: Replica, now: float) -> None:
        """Schedule one fused decode run up to the batch's next completion."""
        scheduler = replica.scheduler
        active = scheduler.active
        batch = len(active)
        step_s = self._decode_cache.get(batch)
        if step_s is None:
            step_s = self.sim.engine.decode_step_time_s(batch)
            self._decode_cache[batch] = step_s
        replica.account_to(now)
        run = _Run(
            now,
            step_s,
            batch,
            scheduler.steps_to_next_completion(),
            # A full batch admits nothing at intermediate step
            # boundaries (``fits`` is False at the cap regardless of
            # the queue), so its run is never cut.
            batch < scheduler.batch_cap,
        )
        self._runs[replica.index] = run
        t_end = now
        for _ in range(run.steps):
            t_end += step_s  # the reference's step-boundary chain
        self._end_run_at(replica, run, t_end)
        first_t = now + step_s
        for seq in active:
            if seq.first_token_s is None:
                # First decode step these sequences participate in:
                # their first token lands at its end, same stamp the
                # reference applies inside step_completed.
                seq.first_token_s = first_t

    def _cut(self, replica: Replica, run: "_Run", now: float) -> None:
        """End the run at its first step boundary at or after ``now``.

        The step in flight when the request arrived still finishes and
        admissions resume at its end, exactly like the reference.  When
        that boundary is ``now`` itself the reference has already
        finished the step this iteration, so the run closes in place and
        ``_dispatch`` admits in the same iteration, in index order.  The
        boundary is then intermediate (a run ending at ``now`` was closed
        by ``_phase_completions``), so nothing is evicted.
        """
        step_s = run.step_s
        t = run.t0
        steps = 0
        while True:
            t += step_s  # the reference's step-boundary chain
            steps += 1
            if t >= now:
                break
        run.steps = steps
        self._end_run_at(replica, run, t)
        if t == now:
            self._finish_run(replica)

    def _end_run_at(self, replica: Replica, run: "_Run", t_end: float) -> None:
        """Present the run as one busy phase ending at ``t_end``."""
        replica.last_active_s = t_end
        replica._accounted_until_s = t_end  # the run's busy time covers it
        replica.busy_until_s = t_end
        replica.phase = (run.t0, t_end, self.util_decode, _FUSED_DECODE, ())

    def _fold_accounting(self, replica: Replica, run: "_Run") -> None:
        """Fold the run's steps into the replica's busy time and energy.

        Runs once per run, when it closes: nothing reads these totals
        while a run is in flight, so a cut only shortens ``run.steps``.
        Every series is a left fold in the reference's per-step
        operation order, bit-identical to its step-by-step chain.
        """
        power = self._decode_power
        steps = run.steps
        if steps > _SCALAR_STEPS:
            # ``np.add.accumulate`` accumulates strictly left-to-right,
            # bit-identical to the scalar ``t += dt`` / ``x += v``
            # chains the reference loop performs.
            arr = np.empty(steps + 1, dtype=np.float64)
            arr[0] = run.t0
            arr[1:] = run.step_s
            dts = np.diff(np.add.accumulate(arr))
            energies_j = power * dts
            shares = (energies_j / JOULES_PER_WH) / run.batch
            replica.busy_s = _fold(replica.busy_s, dts)
            replica.busy_energy_j = _fold(replica.busy_energy_j, energies_j)
            replica.decode_cursor_wh = _fold(replica.decode_cursor_wh, shares)
            return
        step_s = run.step_s
        batch = run.batch
        busy_s = replica.busy_s
        busy_j = replica.busy_energy_j
        cursor = replica.decode_cursor_wh
        t = run.t0
        for _ in range(steps):
            t1 = t + step_s
            dt = t1 - t
            energy_j = power * dt
            busy_s += dt
            busy_j += energy_j
            cursor += (energy_j / JOULES_PER_WH) / batch
            t = t1
        replica.busy_s = busy_s
        replica.busy_energy_j = busy_j
        replica.decode_cursor_wh = cursor

    def _phase_completions(self, now: float) -> None:
        """Finish due phases: fused runs here, prefills as in reference."""
        for replica in self.replicas:
            if replica.busy_until_s is None or replica.busy_until_s > now:
                continue
            if self._runs[replica.index] is not None:
                self._finish_run(replica)
                continue
            # A prefill phase (the fast path never schedules bare
            # decode steps): identical handling to the reference.
            t0, t1, util, kind, members = replica.finish_phase()
            phase_wh = replica.phase_energy_wh(util, t1 - t0)
            self.prefill_wh[members[0]] = phase_wh
            if replica.role is ReplicaRole.PREFILL:
                self._start_transfer(members[0], replica, t1)

    def _finish_run(self, replica: Replica) -> None:
        """Close one fused run: bulk token bookkeeping, then evictions."""
        t1 = replica.busy_until_s
        run = self._runs[replica.index]
        self._runs[replica.index] = None
        self._fold_accounting(replica, run)
        steps = run.steps
        replica.decode_steps += steps
        replica.busy_until_s = None
        replica.phase = None
        for seq in replica.scheduler.active:
            seq.generated += steps
        for seq in replica.scheduler.evict_done():
            replica.completed += 1
            index = seq.request.index
            self.energy_wh[index] = self.prefill_wh.pop(index, 0.0) + (
                replica.decode_cursor_wh - self.cursor_snap.pop(index)
            )
            self.finished.append((seq, t1, replica.index))
            self._observe_completion(seq, t1)


class _Run:
    """One in-flight fused decode run.

    ``steps`` is the run's current length: the steps to the batch's
    next completion when it begins, fewer once a cut shortens it.
    ``cuttable`` is False for a full batch, which no offer can change.
    """

    __slots__ = ("t0", "step_s", "batch", "steps", "cuttable")

    def __init__(
        self, t0: float, step_s: float, batch: int, steps: int, cuttable: bool
    ) -> None:
        self.t0 = t0
        self.step_s = step_s
        self.batch = batch
        self.steps = steps
        self.cuttable = cuttable


def _fold(initial: float, values: np.ndarray) -> float:
    """Sequential left fold ``((initial + v0) + v1) + ...`` in float64.

    ``np.add.accumulate`` accumulates in order, so this reproduces the
    reference's scalar ``x += v`` chain bit-exactly (unlike ``np.sum``,
    which may use pairwise summation).
    """
    return float(np.add.accumulate(np.concatenate(([initial], values)))[-1])
