"""Differential equivalence: the fast engine vs the reference loop.

The guard rail behind the vectorized serve hot path: every observable
output of a run — the summary dict, the per-request record JSON, the
rejected set, trace-sink records, SLO alerts, the OpenMetrics render
and the telemetry timeseries export — must be **byte-identical**
between ``engine_mode="fast"`` and ``engine_mode="reference"`` across
the configuration grid (arrival processes x routers x autoscaling x
fault plans x disaggregation x percentile modes).  Any drift, however
small, is a bug in the fast path, never tolerance-worthy.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest

from repro.engine.inference import InferenceEngine, InferenceWorkload
from repro.faults import FaultInjector, FaultPlan, FaultSpec, activate_injection
from repro.hardware.systems import get_system
from repro.models.transformer import get_gpt_preset
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.sinks import InMemorySink
from repro.obs.telemetry import (
    SLOMonitor,
    TelemetrySampler,
    render_openmetrics,
    write_timeseries_jsonl,
)
from repro.obs.trace import Tracer, activate
from repro.serve import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    BurstArrivals,
    PoissonArrivals,
    SessionArrivals,
    SLOPolicy,
)
from repro.serve.arrivals import Request
from repro.serve.cluster import (
    AutoscalePolicy,
    ClusterSimulator,
    DisaggregationSpec,
)
from repro.serve.cluster.disagg import transfer_time_s
from repro.serve.cluster.fastsim import _FastClusterLoop
from repro.serve.queue import AdmissionQueue
from repro.serve.simulator import ServingSimulator
from repro.simcluster.clock import VirtualClock

pytestmark = [pytest.mark.serve]

POISSON = PoissonArrivals(
    rate_per_s=10.0,
    requests=32,
    prompt_tokens=256,
    generate_tokens=32,
    length_spread=0.25,
    seed=0,
)
BURSTS = BurstArrivals(bursts=((0.0, 12), (20.0, 14)), generate_tokens=48)
SESSIONS = SessionArrivals(
    rate_per_s=8.0,
    requests=36,
    sessions=4,
    prompt_tokens=512,
    prefix_tokens=384,
    generate_tokens=48,
    seed=0,
)
FLOOD = PoissonArrivals(
    rate_per_s=500.0,
    requests=48,
    prompt_tokens=256,
    generate_tokens=24,
    seed=3,
)
ARRIVALS = {"poisson": POISSON, "bursts": BURSTS, "sessions": SESSIONS}


def _engine():
    return InferenceEngine(get_system("GH200"), get_gpt_preset("800M"))


# -- hand-placed arrivals around fused decode runs ------------------------------
#
# The fast loop fuses a replica's decode steps up to the batch's next
# completion and cuts the run only when a request lands on that replica.
# These streams place arrivals and KV deliveries exactly on step
# boundaries of in-flight runs (built with the reference's left fold, so
# the times tie bit for bit), mid-step, and onto a full batch.  Long
# generations keep the runs across several 0.1 s telemetry samples.

#: Prompt length of every hand-placed request.
CUT_PROMPT = 256
#: Generation length of the long-running requests (~0.3 s of decode).
CUT_LONG = 384
#: Batch cap ``run_cluster`` configures.
CUT_BATCH_CAP = 8


class Prebuilt:
    """An arrival process replaying hand-placed requests."""

    def __init__(self, requests) -> None:
        self.requests = tuple(requests)

    def generate(self):
        return self.requests


def _boundary(t0: float, step_s: float, k: int) -> float:
    """The ``k``-th decode-step boundary after ``t0``, as the reference folds it."""
    t = t0
    for _ in range(k):
        t += step_s
    return t


def _prefill_s(generate: int = CUT_LONG) -> float:
    return _engine().prefill_time_s(
        InferenceWorkload(
            prompt_tokens=CUT_PROMPT, generate_tokens=generate, batch_size=1
        )
    )


def _step_s(batch: int) -> float:
    return _engine().decode_step_time_s(batch)


def _boundary_ties():
    """Two replicas decode one request each, from the same instant.

    Two arrivals land exactly on their fifth step boundary, so both
    runs close in place in one iteration and dispatch admits in index
    order; two more land mid-step in the 150th.
    """
    start = 0.0 + _prefill_s()
    step = _step_s(1)
    tie = _boundary(start, step, 5)
    mid = _boundary(start, step, 150) + step / 2
    requests = [
        Request(0, 0.0, CUT_PROMPT, CUT_LONG),
        Request(1, 0.0, CUT_PROMPT, CUT_LONG),
        Request(2, tie, CUT_PROMPT, 24),
        Request(3, tie, CUT_PROMPT, 24),
        Request(4, mid, CUT_PROMPT, 16),
        Request(5, mid, CUT_PROMPT, 16),
    ]
    return Prebuilt(requests), dict(replicas=2, router="round-robin")


def _transfer_ties():
    """KV deliveries into a decode replica in the middle of a fused run.

    One prefill and one decode replica: the first request's decode run
    receives a delivery exactly on one of its step boundaries and a
    second one mid-step.
    """
    engine = _engine()
    spec = DisaggregationSpec(prefill_replicas=1, decode_replicas=1)
    link = ClusterSimulator(engine, disaggregation=spec).link
    kv_bytes = CUT_PROMPT * engine.model.kv_cache_bytes_per_token(engine.policy)
    transfer_s = transfer_time_s(kv_bytes, link)
    prefill_s = _prefill_s()
    start = (0.0 + prefill_s) + transfer_s
    step = _step_s(1)

    def delivered_at(arrival: float) -> float:
        return (arrival + prefill_s) + transfer_s

    tie = None
    for k in range(6, 64):
        target = _boundary(start, step, k)
        arrival = target - transfer_s - prefill_s
        for _ in range(64):
            if delivered_at(arrival) == target:
                tie = arrival
                break
            arrival = math.nextafter(
                arrival, math.inf if delivered_at(arrival) < target else -math.inf
            )
        if tie is not None:
            break
    assert tie is not None, "no arrival delivers exactly on a step boundary"
    mid = _boundary(start, step, 200) + step / 2 - transfer_s - prefill_s
    requests = [
        Request(0, 0.0, CUT_PROMPT, CUT_LONG),
        Request(1, tie, CUT_PROMPT, 24),
        Request(2, mid, CUT_PROMPT, 16),
    ]
    return Prebuilt(requests), dict(replicas=2, disaggregation=spec)


def _full_batch():
    """Arrivals on a boundary and mid-step of a full batch's run.

    A full batch can admit nothing until its first completion, so the
    run must not be cut; the queued requests start at that completion.
    """
    requests = [
        Request(i, 0.0, CUT_PROMPT, CUT_LONG + i) for i in range(CUT_BATCH_CAP)
    ]
    start = 0.0
    for request in requests:
        start += _prefill_s(request.generate_tokens)
    step = _step_s(CUT_BATCH_CAP)
    requests += [
        Request(CUT_BATCH_CAP, _boundary(start, step, 3), CUT_PROMPT, 16),
        Request(
            CUT_BATCH_CAP + 1,
            _boundary(start, step, 150) + step / 2,
            CUT_PROMPT,
            16,
        ),
    ]
    return Prebuilt(requests), dict(replicas=1)


CUT_SCENARIOS = {
    "boundary-ties": _boundary_ties,
    "transfer-ties": _transfer_ties,
    "full-batch": _full_batch,
}


def _fault_scope(*faults):
    plan = FaultPlan(name="serve-equiv", seed=0, faults=tuple(faults))
    return FaultInjector(plan).scope_for("serve", 0, {"system": "GH200"})


def _payload(result, sink, sampler, tmp_path, mode):
    """Every observable byte a run produced, as comparable strings."""
    out = {
        "summary": json.dumps(result.summary.to_dict(), sort_keys=True),
        "records": result.records_json() if result.has_records else None,
        "rejected": [r.index for r in result.rejected],
        "alerts": json.dumps(result.alerts, sort_keys=True),
        "openmetrics": render_openmetrics(get_metrics()),
        "elapsed_s": result.train.elapsed_s,
    }
    if sink is not None:
        out["trace"] = json.dumps(sink.records, sort_keys=True, default=repr)
    if sampler is not None:
        path = tmp_path / f"{mode}.timeseries.jsonl"
        write_timeseries_jsonl(sampler, path)
        out["timeseries"] = path.read_text()
    return out


def run_single(
    mode,
    tmp_path,
    *,
    arrivals=POISSON,
    percentile_mode="exact",
    queue_capacity=256,
    slo=None,
    faults=(),
    telemetry=False,
    traced=True,
):
    """One single-engine run; returns its full observable payload."""
    set_metrics(MetricsRegistry())
    sampler = TelemetrySampler() if telemetry else None
    monitor = SLOMonitor() if telemetry else None
    sim = ServingSimulator(
        _engine(),
        batch_cap=8,
        queue_capacity=queue_capacity,
        slo=slo or SLOPolicy(),
        telemetry=sampler,
        slo_monitor=monitor,
        percentile_mode=percentile_mode,
        engine_mode=mode,
    )
    scope = _fault_scope(*faults) if faults else None
    sink = InMemorySink() if traced else None
    if traced:
        with activate(Tracer(clock=VirtualClock(), sinks=[sink])):
            with activate_injection(scope):
                result = sim.run(arrivals)
    else:
        with activate_injection(scope):
            result = sim.run(arrivals)
    return _payload(result, sink, sampler, tmp_path, mode)


def run_cluster(
    mode,
    tmp_path,
    *,
    arrivals=POISSON,
    percentile_mode="exact",
    replicas=2,
    router="round-robin",
    queue_capacity=256,
    autoscale=None,
    disaggregation=None,
    slo=None,
    telemetry=False,
    traced=True,
):
    """One cluster run; returns its full observable payload."""
    set_metrics(MetricsRegistry())
    sampler = TelemetrySampler() if telemetry else None
    monitor = SLOMonitor() if telemetry else None
    sim = ClusterSimulator(
        _engine(),
        replicas=replicas,
        router=router,
        batch_cap=CUT_BATCH_CAP,
        queue_capacity=queue_capacity,
        slo=slo or SLOPolicy(),
        autoscale=autoscale,
        disaggregation=disaggregation,
        telemetry=sampler,
        slo_monitor=monitor,
        percentile_mode=percentile_mode,
        engine_mode=mode,
    )
    sink = InMemorySink() if traced else None
    if traced:
        with activate(Tracer(clock=VirtualClock(), sinks=[sink])):
            result = sim.run(arrivals)
    else:
        result = sim.run(arrivals)
    return _payload(result, sink, sampler, tmp_path, mode)


def assert_identical(ref, fast):
    """Byte-compare every payload entry, naming the first that differs."""
    assert set(ref) == set(fast)
    for key in sorted(ref):
        assert ref[key] == fast[key], f"engines diverge on {key!r}"


class TestSingleEngineEquivalence:
    """ServingSimulator: fast vs reference, all observables."""

    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_arrival_grid(self, tmp_path, name, percentiles):
        kw = dict(arrivals=ARRIVALS[name], percentile_mode=percentiles)
        assert_identical(
            run_single(ENGINE_REFERENCE, tmp_path, **kw),
            run_single(ENGINE_FAST, tmp_path, **kw),
        )

    def test_untraced_run(self, tmp_path):
        # No tracer, no sampler: the fast loop defers its gauge writes,
        # but the final registry state must still match byte-for-byte.
        assert_identical(
            run_single(ENGINE_REFERENCE, tmp_path, traced=False),
            run_single(ENGINE_FAST, tmp_path, traced=False),
        )

    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_saturated_queue_rejections(self, tmp_path, percentiles):
        kw = dict(
            arrivals=FLOOD, queue_capacity=4, percentile_mode=percentiles
        )
        ref = run_single(ENGINE_REFERENCE, tmp_path, **kw)
        assert ref["rejected"], "flood must shed load for this test to bite"
        assert_identical(ref, run_single(ENGINE_FAST, tmp_path, **kw))

    @pytest.mark.parametrize(
        "faults",
        [
            (FaultSpec(kind="straggler", magnitude=3.0),),
            (FaultSpec(kind="sensor_dropout", at_time_s=0.05, duration_s=0.3),),
            (FaultSpec(kind="sensor_spike", magnitude=-1e9),),
        ],
        ids=["straggler", "sensor-dropout", "zero-power"],
    )
    def test_fault_plans(self, tmp_path, faults):
        kw = dict(faults=faults)
        assert_identical(
            run_single(ENGINE_REFERENCE, tmp_path, **kw),
            run_single(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_telemetry_and_alerts(self, tmp_path, percentiles):
        kw = dict(
            arrivals=BURSTS,
            slo=SLOPolicy(ttft_s=0.02, e2e_s=0.3),
            telemetry=True,
            percentile_mode=percentiles,
        )
        ref = run_single(ENGINE_REFERENCE, tmp_path, **kw)
        assert json.loads(ref["alerts"]), "tight SLO under burst must alert"
        assert_identical(ref, run_single(ENGINE_FAST, tmp_path, **kw))


class TestClusterEquivalence:
    """ClusterSimulator: fast vs reference, all observables."""

    @pytest.mark.parametrize(
        "router,name",
        [
            ("round-robin", "poisson"),
            ("least-loaded", "poisson"),
            ("least-loaded", "bursts"),
            ("session-affinity", "sessions"),
        ],
    )
    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_router_grid(self, tmp_path, router, name, percentiles):
        kw = dict(
            arrivals=ARRIVALS[name],
            replicas=3,
            router=router,
            percentile_mode=percentiles,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("pools", [(1, 2), (2, 2)])
    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_disaggregated(self, tmp_path, pools, percentiles):
        prefill, decode = pools
        kw = dict(
            replicas=prefill + decode,
            disaggregation=DisaggregationSpec(
                prefill_replicas=prefill, decode_replicas=decode
            ),
            percentile_mode=percentiles,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("name", ["poisson", "bursts"])
    def test_autoscaled(self, tmp_path, name):
        kw = dict(
            arrivals=ARRIVALS[name],
            replicas=4,
            autoscale=AutoscalePolicy(min_replicas=1),
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    def test_autoscaled_session_affinity(self, tmp_path):
        # Autoscaling + prefix-heavy session traffic through the
        # affinity router (autoscale and disaggregation are mutually
        # exclusive by configuration).
        kw = dict(
            arrivals=SESSIONS,
            replicas=4,
            router="session-affinity",
            autoscale=AutoscalePolicy(min_replicas=2),
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    def test_disaggregated_sessions(self, tmp_path):
        kw = dict(
            arrivals=SESSIONS,
            replicas=4,
            router="session-affinity",
            disaggregation=DisaggregationSpec(
                prefill_replicas=1, decode_replicas=3
            ),
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    def test_saturated_cluster_sheds_identically(self, tmp_path):
        flood = PoissonArrivals(
            rate_per_s=500.0,
            requests=48,
            prompt_tokens=256,
            generate_tokens=96,
            seed=3,
        )
        kw = dict(arrivals=flood, replicas=2, queue_capacity=1)
        ref = run_cluster(ENGINE_REFERENCE, tmp_path, **kw)
        assert ref["rejected"], "flood must shed load for this test to bite"
        assert_identical(ref, run_cluster(ENGINE_FAST, tmp_path, **kw))

    @pytest.mark.parametrize("percentiles", ["exact", "p2"])
    def test_telemetry_and_alerts(self, tmp_path, percentiles):
        kw = dict(
            arrivals=BURSTS,
            replicas=2,
            slo=SLOPolicy(ttft_s=0.02, e2e_s=0.3),
            telemetry=True,
            percentile_mode=percentiles,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )

    @pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
    @pytest.mark.parametrize("scenario", sorted(CUT_SCENARIOS))
    def test_fused_run_cuts(self, tmp_path, scenario, telemetry):
        # Offers that cut an in-flight fused run exactly on a step
        # boundary, mid-step, by KV delivery, or not at all (full batch).
        arrivals, kw = CUT_SCENARIOS[scenario]()
        kw.update(
            arrivals=arrivals,
            slo=SLOPolicy(ttft_s=0.02, e2e_s=0.3),
            telemetry=telemetry,
        )
        assert_identical(
            run_cluster(ENGINE_REFERENCE, tmp_path, **kw),
            run_cluster(ENGINE_FAST, tmp_path, **kw),
        )


class TestFusedRunBound:
    """Fused runs end only at a completion or an offer to their replica."""

    def test_runs_bounded_by_own_offers_and_completions(self, monkeypatch):
        runs: Counter = Counter()
        offers: Counter = Counter()
        loops = []
        begin = _FastClusterLoop._begin_decode
        offer = AdmissionQueue.offer
        make_loop = ClusterSimulator._make_loop

        def counting_begin(self, replica, now):
            runs[replica.index] += 1
            return begin(self, replica, now)

        def counting_offer(self, request):
            offers[id(self)] += 1
            return offer(self, request)

        def capturing_make_loop(self, requests, clock):
            loops.append(make_loop(self, requests, clock))
            return loops[-1]

        monkeypatch.setattr(_FastClusterLoop, "_begin_decode", counting_begin)
        monkeypatch.setattr(AdmissionQueue, "offer", counting_offer)
        monkeypatch.setattr(ClusterSimulator, "_make_loop", capturing_make_loop)
        set_metrics(MetricsRegistry())
        arrivals = SessionArrivals(
            rate_per_s=150.0,
            requests=400,
            sessions=16,
            prompt_tokens=512,
            prefix_tokens=384,
            generate_tokens=64,
            length_spread=0.25,
            seed=1,
        )
        result = ClusterSimulator(
            _engine(),
            replicas=8,
            router="prefix-cache-aware",
            engine_mode=ENGINE_FAST,
        ).run(arrivals)
        completion_times: dict[int, set] = {}
        for c in result.records:
            completion_times.setdefault(c.decode_replica, set()).add(
                c.record.completed_s
            )
        (loop,) = loops
        busy = [r.index for r in loop.replicas if runs[r.index]]
        assert len(busy) >= 4, "most replicas must decode for this test to bite"
        for replica in loop.replicas:
            bound = offers[id(replica.queue)] + len(
                completion_times.get(replica.index, ())
            )
            assert runs[replica.index] <= bound, (
                f"replica {replica.index}: {runs[replica.index]} fused runs, "
                f"only {bound} offers + distinct completion times"
            )
