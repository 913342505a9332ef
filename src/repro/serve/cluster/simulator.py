"""Multi-replica serving cluster on one shared virtual clock.

:class:`ClusterSimulator` is the fleet counterpart of
:class:`~repro.serve.simulator.ServingSimulator`: N engine replicas,
each with its own admission queue, continuous-batching scheduler,
prefix registry and power curve, driven as a discrete-event simulation
on one :class:`~repro.simcluster.clock.VirtualClock`.  Arriving
requests are placed by a pluggable :class:`~repro.serve.cluster.router`
policy; optionally the fleet is split into disaggregated prefill and
decode pools with a KV handoff over the interconnect, or governed by a
queue-depth autoscaler with spin-up cost and idle-replica power.

Energy is integrated analytically per replica from its calibrated
power model over the piecewise-constant utilisation profile the event
loop produces — the same affine model jpwr samples in single-engine
runs, but integrated exactly instead of trapezoidally, because replicas
advance through *independent* phase boundaries that a single shared
sample frame cannot straddle.  Busy-phase energy is attributed to
requests by the **incremental cursor**: every decode step advances a
per-replica running per-member share cursor
(``replica.decode_cursor_wh``), a request's decode energy is the cursor
difference between its admission snapshot and its completion, and its
prefill energy is booked directly at prefill completion; idle, spin-up
and transfer energy stay cluster-level so Wh/request is honest about
overprovisioning.

Two engines drive the loop (:mod:`repro.serve.engines`): the
``reference`` per-event slow path below and the fused fast path
(:mod:`repro.serve.cluster.fastsim`), byte-identical by construction
and asserted so by the differential suite.  Runs are deterministic:
the same arrival seed and cluster configuration produce byte-identical
per-request records.
"""

from __future__ import annotations

from collections import deque

from repro.engine.inference import (
    DECODE_UTILISATION_FRACTION,
    InferenceEngine,
    InferenceWorkload,
)
from repro.engine.trainer import TrainResult
from repro.errors import ConfigError
from repro.obs.metrics import get_metrics
from repro.obs.telemetry.sampler import TelemetrySampler
from repro.obs.telemetry.slo import SLOMonitor
from repro.obs.trace import get_tracer
from repro.serve.arrivals import Request
from repro.serve.cluster.autoscaler import AutoscalePolicy, Autoscaler
from repro.serve.cluster.disagg import (
    DisaggregationSpec,
    KVTransfer,
    transfer_energy_wh,
    transfer_time_s,
)
from repro.serve.cluster.replica import Replica, ReplicaRole, ReplicaState
from repro.serve.cluster.result import ClusterRecord, ClusterResult, ClusterSummary
from repro.serve.cluster.router import (
    DEFAULT_ROUTER_POLICY,
    Router,
    _least_loaded,
    make_router,
)
from repro.serve.constants import (  # noqa: F401  (historical import location)
    CLUSTER_QUEUE_DEPTH_COUNTER,
    CLUSTER_REPLICAS_COUNTER,
    CLUSTER_REPLICAS_GAUGE,
    CLUSTER_REPLICAS_GAUGE_HELP,
    CLUSTER_TRACK,
    TS_BATCH_OCCUPANCY,
    TS_KV_UTILISATION,
    TS_POWER_WATTS,
    TS_QUEUE_DEPTH,
    TS_REPLICAS_ON,
    TS_TTFT_ROLLING_P95,
)
from repro.serve.engines import (
    DEFAULT_ENGINE_MODE,
    ENGINE_REFERENCE,
    validate_engine_mode,
)
from repro.serve.result import (
    PERCENTILE_MODE_EXACT,
    PERCENTILE_MODE_SKETCH,
    PERCENTILE_MODES,
    RequestRecord,
    SLOPolicy,
    StreamingSummarizer,
    summarize,
)
from repro.serve.scheduler import DEFAULT_BATCH_CAP
from repro.serve.simulator import DEFAULT_QUEUE_CAPACITY, _emit_alert_transitions
from repro.serve.streams import shared_requests
from repro.simcluster.clock import VirtualClock

#: Phase kinds the event loop schedules.
_PREFILL, _DECODE = "prefill", "decode"


def _default_link(engine: InferenceEngine):
    """The KV-handoff link when the spec does not name one.

    Replicas of a multi-node system sit on separate nodes (inter-node
    fabric); on a single-node system the replicas share the node and
    hand off over the accelerator interconnect, or — on single-device
    superchips like GH200 — staged through host memory over the
    CPU-accelerator link.
    """
    node = engine.node
    for link in (node.internode_link, node.accel_accel_link, node.cpu_accel_link):
        if link.bandwidth > 0:
            return link
    raise ConfigError(
        f"system {node.jube_tag} has no link with bandwidth for a KV handoff"
    )


class _ClusterLoop:
    """One cluster run's mutable state and event loop."""

    def __init__(
        self, sim: "ClusterSimulator", requests: tuple[Request, ...], clock
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.start_s = clock.now()
        self.pending = deque(requests)
        self.transfers: list[KVTransfer] = []
        self.router = sim.make_router()
        self.replicas = sim.make_replicas(self.start_s)
        self.autoscaler = (
            Autoscaler(sim.autoscale, self.replicas, start_s=self.start_s)
            if sim.autoscale is not None
            else None
        )
        self.util_prefill = sim.engine.cal.util_full_llm
        self.util_decode = self.util_prefill * DECODE_UTILISATION_FRACTION
        # Per-request routing/energy bookkeeping (by request index).
        self.admitted_at: dict[int, float] = {}
        self.prefill_replica: dict[int, int] = {}
        self.decode_replica: dict[int, int] = {}
        self.prefix_hit: dict[int, bool] = {}
        self.transfer_s: dict[int, float] = {}
        self.energy_wh: dict[int, float] = {}
        # Incremental-attribution state: a request's prefill energy,
        # and its decode-replica cursor snapshot taken at admission.
        self.prefill_wh: dict[int, float] = {}
        self.cursor_snap: dict[int, float] = {}
        self.finished: list[tuple[object, float, int]] = []  # (seq, t, replica)
        self.transfer_energy_total_wh = 0.0
        self.transfer_s_total = 0.0
        self.transfer_count = 0
        self.sampler = sim.telemetry
        self.monitor = sim.slo_monitor
        self._ttft_window = None
        if self.sampler is not None:
            self.sampler.align(self.start_s)
            for replica in self.replicas:
                labels = {"replica": str(replica.index)}
                self.sampler.add_probe(
                    TS_QUEUE_DEPTH,
                    lambda t, r=replica: float(len(r.queue)),
                    labels=labels,
                )
                self.sampler.add_probe(
                    TS_BATCH_OCCUPANCY,
                    lambda t, r=replica: float(r.scheduler.batch_size),
                    labels=labels,
                )
                self.sampler.add_probe(
                    TS_KV_UTILISATION,
                    lambda t, r=replica: (
                        r.scheduler.kv_reserved_bytes / r.scheduler.kv_budget_bytes
                        if r.scheduler.kv_budget_bytes
                        else 0.0
                    ),
                    labels=labels,
                )
                self.sampler.add_probe(
                    TS_POWER_WATTS, replica.current_watts, labels=labels
                )
            self.sampler.add_probe(TS_REPLICAS_ON, self._replicas_on)
            self._ttft_window = self.sampler.add_rolling(TS_TTFT_ROLLING_P95)

    def _replicas_on(self, t_s: float) -> float:
        """Fleet-level probe: powered-on replica count."""
        return float(
            sum(1 for r in self.replicas if r.state is not ReplicaState.STOPPED)
        )

    def _observe_completion(self, seq, now: float) -> None:
        """Feed one completion to the SLO monitor and rolling window."""
        if self.monitor is not None:
            request = seq.request
            ok = self.sim.slo.met_values(
                seq.first_token_s - request.arrival_s, now - request.arrival_s
            )
            _emit_alert_transitions(self.monitor.observe(now, ok))
        if self._ttft_window is not None:
            self._ttft_window.observe(now, seq.first_token_s - seq.request.arrival_s)

    # -- routing pools -------------------------------------------------------

    def _route_pool(self) -> list[Replica]:
        """Replicas the router chooses among (prefill pool if split)."""
        if self.sim.disaggregation is None:
            return self.replicas
        return [r for r in self.replicas if r.role is ReplicaRole.PREFILL]

    def _decode_pool(self) -> list[Replica]:
        return [r for r in self.replicas if r.role is ReplicaRole.DECODE]

    # -- observability -------------------------------------------------------

    def _observe_depth(self) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            waiting = sum(len(r.queue) for r in self.replicas)
            tracer.counter(CLUSTER_QUEUE_DEPTH_COUNTER, waiting)

    def _observe_replicas(self) -> None:
        on = sum(
            1 for r in self.replicas if r.state is not ReplicaState.STOPPED
        )
        get_metrics().gauge(
            CLUSTER_REPLICAS_GAUGE, CLUSTER_REPLICAS_GAUGE_HELP
        ).set(on, system=self.sim.engine.node.jube_tag)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(CLUSTER_REPLICAS_COUNTER, on)

    # -- event loop ----------------------------------------------------------

    def _work_remaining(self) -> bool:
        return bool(
            self.pending
            or self.transfers
            or any(
                len(r.queue) or r.scheduler.active or r.busy_until_s is not None
                for r in self.replicas
            )
        )

    def _next_event_time(self, now: float) -> float:
        times = []
        if self.pending:
            times.append(max(self.pending[0].arrival_s, now))
        for r in self.replicas:
            if r.busy_until_s is not None:
                times.append(r.busy_until_s)
            if r.state is ReplicaState.STARTING:
                times.append(r.ready_at_s)
        for tr in self.transfers:
            times.append(tr.done_at_s)
        if self.autoscaler is not None:
            times.append(self.autoscaler.next_eval_s)
        return min(times)

    def run(self) -> None:
        """Drive the cluster until every admitted request drains."""
        self._observe_replicas()
        # Route anything already due at t0, then iterate events.
        self._ingest(self.clock.now())
        self._dispatch(self.clock.now())
        if self.sampler is not None:
            self.sampler.tick(self.clock.now())
        while self._work_remaining():
            now = self.clock.now()
            target = self._next_event_time(now)
            if target > now:
                self.clock.advance_to(target)
                now = target
            # Sample boundaries crossed by the advance see the
            # piecewise-constant state of the interval just ended.
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
        # Close every powered-on replica's idle accounting at end of run.
        end = self.clock.now()
        for replica in self.replicas:
            replica.account_to(max(end, replica.ready_at_s))

    def _ingest(self, now: float) -> None:
        routed = False
        while self.pending and self.pending[0].arrival_s <= now:
            request = self.pending.popleft()
            target = self.router.route(request, self._route_pool())
            self._offer(target, request, now)
            routed = True
        if routed:
            self._observe_depth()

    def _replica_transitions(self, now: float) -> None:
        for replica in self.replicas:
            if (
                replica.state is ReplicaState.STARTING
                and replica.ready_at_s <= now
            ):
                replica.set_running(now)

    def _phase_completions(self, now: float) -> None:
        for replica in self.replicas:
            if replica.busy_until_s is None or replica.busy_until_s > now:
                continue
            t0, t1, util, kind, members = replica.finish_phase()
            phase_wh = replica.phase_energy_wh(util, t1 - t0)
            if kind == _DECODE:
                # Advance the replica's running per-member share cursor;
                # completions are priced as a cursor difference.
                replica.decode_cursor_wh += phase_wh / len(members)
                replica.decode_steps += 1
                for seq in replica.scheduler.step_completed(t1):
                    replica.completed += 1
                    index = seq.request.index
                    self.energy_wh[index] = self.prefill_wh.pop(index, 0.0) + (
                        replica.decode_cursor_wh - self.cursor_snap.pop(index)
                    )
                    self.finished.append((seq, t1, replica.index))
                    self._observe_completion(seq, t1)
            else:
                self.prefill_wh[members[0]] = phase_wh
                if replica.role is ReplicaRole.PREFILL:
                    self._start_transfer(members[0], replica, t1)

    def _start_transfer(self, index: int, source: Replica, now: float) -> None:
        """Hand a prefilled request's KV state to the decode pool."""
        request = source.handoff.pop(index)
        kv_bytes = request.prompt_tokens * self.sim.engine.model.kv_cache_bytes_per_token(
            self.sim.engine.policy
        )
        link = self.sim.link
        duration = transfer_time_s(kv_bytes, link)
        energy = transfer_energy_wh(kv_bytes)
        decode_pool = self._decode_pool()
        target = _least_loaded(decode_pool)
        self.transfers.append(
            KVTransfer(
                request_index=index,
                source=source.index,
                target=target.index,
                kv_bytes=kv_bytes,
                started_s=now,
                done_at_s=now + duration,
                energy_wh=energy,
            )
        )
        self.transfer_s[index] = duration
        self.transfer_energy_total_wh += energy
        self.transfer_s_total += duration
        self.transfer_count += 1

    def _transfer_completions(self, now: float) -> None:
        done = [tr for tr in self.transfers if tr.done_at_s <= now]
        if not done:
            return
        self.transfers = [tr for tr in self.transfers if tr.done_at_s > now]
        for tr in sorted(done, key=lambda t: (t.done_at_s, t.request_index)):
            target = self.replicas[tr.target]
            request = self.sim.requests_by_index[tr.request_index]
            self.decode_replica[tr.request_index] = tr.target
            # ``offer`` records the shed in the decode replica's queue
            # when full, so conservation (completed + rejected ==
            # offered) holds without a second ledger here.
            self._offer(target, request, now)

    def _offer(self, replica: Replica, request: Request, now: float) -> None:
        """Queue one routed or delivered request on ``replica``.

        The single point where a replica's queue gains work; the fast
        loop hooks it to cut that replica's fused decode run.
        """
        replica.queue.offer(request)

    def _dispatch(self, now: float) -> None:
        for replica in self.replicas:
            if (
                replica.busy_until_s is not None
                or replica.state is not ReplicaState.RUNNING
            ):
                continue
            self._next_action(replica, now)

    def _next_action(self, replica: Replica, now: float) -> None:
        """Give one free running replica its next phase, if any."""
        role = replica.role
        if role is ReplicaRole.DECODE:
            # Admission is free (prefill already paid); batch everything
            # that fits, then run a decode step.
            while len(replica.queue) and replica.scheduler.fits(
                replica.queue.peek()
            ):
                request = replica.queue.pop()
                replica.scheduler.admit(request, now)
                self.cursor_snap[request.index] = replica.decode_cursor_wh
            if replica.scheduler.active:
                self._begin_decode(replica, now)
            return
        if len(replica.queue) and (
            role is ReplicaRole.PREFILL
            or replica.scheduler.fits(replica.queue.peek())
        ):
            request = replica.queue.pop()
            self.admitted_at.setdefault(request.index, now)
            self.prefill_replica[request.index] = replica.index
            hit = replica.note_prefill(request.session)
            replica.prefills += 1
            if hit:
                replica.prefix_hits += 1
            self.prefix_hit[request.index] = hit
            tokens = request.prompt_tokens
            if hit and request.prefix_tokens > 0:
                tokens = max(1, tokens - request.prefix_tokens)
            t_prefill = self.sim.engine.prefill_time_s(
                InferenceWorkload(
                    prompt_tokens=tokens,
                    generate_tokens=request.generate_tokens,
                    batch_size=1,
                )
            )
            if role is ReplicaRole.UNIFIED:
                replica.scheduler.admit(request, now)
                self.cursor_snap[request.index] = replica.decode_cursor_wh
                self.decode_replica[request.index] = replica.index
            else:
                replica.handoff[request.index] = request
            replica.begin_phase(
                now, t_prefill, self.util_prefill, _PREFILL, (request.index,)
            )
            self._observe_depth()
            return
        if role is ReplicaRole.UNIFIED and replica.scheduler.active:
            self._begin_decode(replica, now)

    def _begin_decode(self, replica: Replica, now: float) -> None:
        members = tuple(s.request.index for s in replica.scheduler.active)
        step_s = self.sim.engine.decode_step_time_s(len(members))
        replica.begin_phase(now, step_s, self.util_decode, _DECODE, members)

    # -- results -------------------------------------------------------------

    def rejected(self) -> tuple[Request, ...]:
        """Every shed request (queue overflow at either pool)."""
        shed: list[Request] = []
        for replica in self.replicas:
            shed.extend(replica.queue.rejected)
        return tuple(sorted(shed, key=lambda r: r.index))

    def records(self) -> list[ClusterRecord]:
        """Per-request cluster records, index-ordered."""
        tracer = get_tracer()
        out = []
        for seq, completed_s, replica_index in self.finished:
            request = seq.request
            record = RequestRecord(
                index=request.index,
                arrival_s=request.arrival_s,
                admitted_s=self.admitted_at[request.index],
                first_token_s=seq.first_token_s,
                completed_s=completed_s,
                prompt_tokens=request.prompt_tokens,
                generate_tokens=request.generate_tokens,
                energy_wh=self.energy_wh.get(request.index, 0.0),
            )
            cluster_record = ClusterRecord(
                record=record,
                prefill_replica=self.prefill_replica[request.index],
                decode_replica=self.decode_replica.get(
                    request.index, replica_index
                ),
                prefix_hit=self.prefix_hit.get(request.index, False),
                transfer_s=self.transfer_s.get(request.index, 0.0),
            )
            out.append(cluster_record)
            if tracer.enabled:
                tracer.complete_span(
                    "cluster/request",
                    record.arrival_s,
                    record.completed_s,
                    attrs={
                        "index": record.index,
                        "replica": cluster_record.decode_replica,
                        "ttft_s": round(record.ttft_s, 6),
                        "prefix_hit": cluster_record.prefix_hit,
                    },
                    track=CLUSTER_TRACK,
                )
        out.sort(key=lambda c: c.record.index)
        return out


class ClusterSimulator:
    """Serves a request stream on a fleet of engine replicas.

    Parameters
    ----------
    engine:
        The per-replica roofline/memory model (a homogeneous fleet).
    replicas:
        Replica count of a unified cluster (ignored when
        ``disaggregation`` sets the pool sizes).
    router:
        Policy name from
        :data:`~repro.serve.cluster.router.ROUTER_POLICIES`.
    batch_cap / queue_capacity:
        Per-replica continuous-batching cap and admission bound.
    slo:
        Latency objectives for attainment/goodput accounting.
    autoscale:
        Optional :class:`AutoscalePolicy`; the cluster then starts at
        ``min_replicas`` powered on with the rest as stopped spares.
    disaggregation:
        Optional :class:`DisaggregationSpec` splitting the fleet into
        prefill and decode pools with a KV handoff per request.
    telemetry:
        Optional :class:`~repro.obs.telemetry.sampler.TelemetrySampler`;
        when given, every replica registers queue-depth,
        batch-occupancy, KV-utilisation and instantaneous-watts probes
        (labelled ``replica=<index>``) plus a fleet-level replicas-on
        series, sampled at every crossed boundary of the event loop.
    slo_monitor:
        Optional :class:`~repro.obs.telemetry.slo.SLOMonitor` fed one
        attainment observation per completion; alert transitions go to
        the trace, the summary to ``ClusterResult.alerts``.
    percentile_mode:
        ``"exact"`` (default) or ``"p2"`` — see
        :class:`~repro.serve.simulator.ServingSimulator`.  ``"p2"``
        streams completions in completion order and stores no
        per-request records.
    engine_mode:
        ``"fast"`` (default) or ``"reference"`` — see
        :mod:`repro.serve.engines`.  Both produce byte-identical
        results; the reference path is the differential-test oracle.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        *,
        replicas: int = 2,
        router: str = DEFAULT_ROUTER_POLICY,
        batch_cap: int = DEFAULT_BATCH_CAP,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        slo: SLOPolicy | None = None,
        autoscale: AutoscalePolicy | None = None,
        disaggregation: DisaggregationSpec | None = None,
        telemetry: TelemetrySampler | None = None,
        slo_monitor: SLOMonitor | None = None,
        percentile_mode: str = PERCENTILE_MODE_EXACT,
        engine_mode: str = DEFAULT_ENGINE_MODE,
    ) -> None:
        if replicas < 1:
            raise ConfigError("cluster needs at least one replica")
        if percentile_mode not in PERCENTILE_MODES:
            raise ConfigError(
                f"unknown percentile mode {percentile_mode!r}; "
                f"known: {PERCENTILE_MODES}"
            )
        if autoscale is not None and disaggregation is not None:
            raise ConfigError(
                "autoscaling a disaggregated cluster is not supported yet: "
                "pick one of autoscale= or disaggregation="
            )
        self.engine = engine
        self.router_name = router
        make_router(router)  # validate the name eagerly
        self.batch_cap = int(batch_cap)
        self.queue_capacity = int(queue_capacity)
        self.slo = slo if slo is not None else SLOPolicy()
        self.autoscale = autoscale
        self.disaggregation = disaggregation
        self.telemetry = telemetry
        self.slo_monitor = slo_monitor
        self.percentile_mode = percentile_mode
        self.engine_mode = validate_engine_mode(engine_mode)
        if disaggregation is not None:
            self.n_replicas = disaggregation.total_replicas
            self.link = (
                disaggregation.link
                if disaggregation.link is not None
                else _default_link(engine)
            )
        else:
            self.n_replicas = int(replicas)
            self.link = _default_link(engine)
        if autoscale is not None and autoscale.min_replicas > self.n_replicas:
            raise ConfigError(
                "autoscale min_replicas exceeds the cluster size"
            )
        self.requests_by_index: dict[int, Request] = {}

    def make_router(self) -> Router:
        """A fresh router instance for one run."""
        return make_router(self.router_name)

    def _make_loop(
        self, requests: tuple[Request, ...], clock
    ) -> _ClusterLoop:
        """The run's loop for the configured engine mode."""
        if self.engine_mode == ENGINE_REFERENCE:
            return _ClusterLoop(self, requests, clock)
        from repro.serve.cluster.fastsim import _FastClusterLoop

        return _FastClusterLoop(self, requests, clock)

    def make_replicas(self, start_s: float) -> list[Replica]:
        """The run's replica fleet in index order."""
        fleet: list[Replica] = []
        for i in range(self.n_replicas):
            if self.disaggregation is not None:
                role = (
                    ReplicaRole.PREFILL
                    if i < self.disaggregation.prefill_replicas
                    else ReplicaRole.DECODE
                )
            else:
                role = ReplicaRole.UNIFIED
            started = True
            if self.autoscale is not None:
                started = i < self.autoscale.min_replicas
            replica = Replica(
                i,
                self.engine,
                batch_cap=self.batch_cap,
                queue_capacity=self.queue_capacity,
                role=role,
                started=started,
                start_s=start_s,
            )
            fleet.append(replica)
        return fleet

    def run(self, arrivals) -> ClusterResult:
        """Serve ``arrivals.generate()`` on the fleet; returns the result.

        Raises :class:`ConfigError` when any generated request could
        never fit a replica's KV budget.
        """
        requests = shared_requests(arrivals)
        if not requests:
            raise ConfigError("arrival process generated no requests")
        tracer = get_tracer()
        clock = (
            tracer.virtual_clock
            if tracer.virtual_clock is not None
            else VirtualClock()
        )
        self.requests_by_index = {r.index: r for r in requests}
        if self.telemetry is not None and not self.telemetry.attached:
            self.telemetry.attach_registry(get_metrics())
        loop = self._make_loop(requests, clock)
        probe = loop.replicas[0].scheduler
        for request in requests:
            probe.admissible(request)
        with tracer.span(
            "cluster/run",
            attrs={
                "model": self.engine.model.name,
                "replicas": self.n_replicas,
                "router": self.router_name,
                "requests": len(requests),
            },
        ):
            loop.run()
        if self.telemetry is not None:
            self.telemetry.finish(clock.now())
        elapsed = clock.now() - loop.start_s
        rejected = loop.rejected()
        if self.percentile_mode == PERCENTILE_MODE_SKETCH:
            # O(1) record emission: stream completions (in completion
            # order, the canonical stream order of both engines) into
            # the sketches without materializing records.
            records: tuple[ClusterRecord, ...] | None = None
            streamer = StreamingSummarizer(slo=self.slo)
            for seq, completed_s, _replica_index in loop.finished:
                request = seq.request
                streamer.observe_values(
                    ttft_s=seq.first_token_s - request.arrival_s,
                    tpot_s=(
                        (completed_s - seq.first_token_s)
                        / (request.generate_tokens - 1)
                        if request.generate_tokens > 1
                        else 0.0
                    ),
                    e2e_s=completed_s - request.arrival_s,
                    queue_delay_s=(
                        loop.admitted_at[request.index] - request.arrival_s
                    ),
                    generate_tokens=request.generate_tokens,
                    energy_wh=loop.energy_wh.get(request.index, 0.0),
                )
            serve_summary = streamer.summary(
                offered=len(requests),
                rejected=len(rejected),
                elapsed_s=elapsed,
            )
        else:
            records = tuple(loop.records())
            serve_summary = summarize(
                [c.record for c in records],
                offered=len(requests),
                rejected=len(rejected),
                elapsed_s=elapsed,
                slo=self.slo,
            )
        summary = ClusterSummary(
            serve=serve_summary,
            router=self.router_name,
            replicas=tuple(r.stats() for r in loop.replicas),
            replicas_max=self.n_replicas,
            disaggregated=self.disaggregation is not None,
            transfers=loop.transfer_count,
            transfer_s_total=loop.transfer_s_total,
            transfer_energy_wh=loop.transfer_energy_total_wh,
            spinups=sum(r.spinups for r in loop.replicas),
        )
        self._observe(summary)
        train = self._train_result(summary, elapsed)
        return ClusterResult(
            train=train,
            summary=summary,
            records=records,
            rejected=rejected,
            alerts=(
                self.slo_monitor.to_dict() if self.slo_monitor is not None else None
            ),
        )

    def _train_result(
        self, summary: ClusterSummary, elapsed: float
    ) -> TrainResult:
        """The cluster run flattened to a result-table row."""
        extra = summary.to_dict()
        extra.pop("elapsed_s", None)  # already a TrainResult field
        extra["batch_cap"] = float(self.batch_cap)
        decode_steps = sum(r.decode_steps for r in summary.replicas)
        per_device_wh = (
            summary.energy_wh / summary.replicas_max
            if summary.replicas_max
            else 0.0
        )
        return TrainResult(
            system_tag=self.engine.node.jube_tag,
            benchmark=f"llm-serve-cluster-{self.engine.model.name}",
            global_batch_size=self.batch_cap,
            devices=summary.replicas_max,
            iterations=decode_steps,
            elapsed_s=elapsed,
            throughput=summary.serve.throughput_tokens_per_s,
            throughput_unit="tokens_per_s",
            energy_per_device_wh=per_device_wh,
            mean_power_per_device_w=(
                per_device_wh * 3600.0 / elapsed if elapsed > 0 else 0.0
            ),
            extra=extra,
        )

    def _observe(self, summary: ClusterSummary) -> None:
        """Record the run's cluster metrics on the process registry."""
        metrics = get_metrics()
        tag = self.engine.node.jube_tag
        metrics.counter(
            "cluster_requests_completed_total",
            "requests served to completion by the cluster",
        ).inc(summary.serve.completed, system=tag, router=self.router_name)
        if summary.serve.rejected:
            metrics.counter(
                "cluster_requests_rejected_total",
                "requests shed at cluster admission",
            ).inc(summary.serve.rejected, system=tag, router=self.router_name)
        if summary.spinups:
            metrics.counter(
                "cluster_replica_spinups_total",
                "replica spin-ups the autoscaler performed",
            ).inc(summary.spinups, system=tag)
