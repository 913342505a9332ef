"""The benchmark's four workloads, driven through the package's public APIs.

Each workload has a ``setup(seed, scratch)`` that imports what it needs
and builds its inputs from the seed, and a ``run_pass(inputs)`` that
runs the program once on those inputs and returns a :class:`PassResult`:
a digest of the simulated outputs, the correctness checks it made, and
the simulated quantities it recorded.  Simulated quantities are model
output; the benchmark checks and records them but scores only host time.

The ``repro`` modules are imported inside ``setup`` so that set-up time
covers them, and are called through module attributes so that the
layer tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Poisson traffic of ``serve_engine``: H100 serving the 800M GPT.
#: Streams cover a fixed span of simulated time rather than a fixed
#: request count, so every seed simulates about the same number of
#: decode steps (~300 requests here).
ENGINE_SYSTEM = "H100"
ENGINE_RATE_PER_S = 20.0
ENGINE_HORIZON_S = 15.0
#: Session traffic of ``serve_fleet`` (~6000 requests): fast enough that
#: the queue-depth autoscaler spins spare replicas up and back down.
FLEET_REPLICAS = 8
FLEET_ROUTER = "prefix-cache-aware"
FLEET_RATE_PER_S = 150.0
FLEET_HORIZON_S = 40.0
FLEET_SESSIONS = 16
PROMPT_TOKENS = 512
PREFIX_TOKENS = 384
GENERATE_TOKENS = 128
LENGTH_SPREAD = 0.25
SLO_TTFT_S = 0.5
#: Power caps of ``campaign_sweep`` are drawn from this watt range,
#: enforceable on every GPU system of Table I.
CAP_RANGE_W = (185, 275)
#: Fully cached re-runs of the sweep per pass; each takes a few
#: milliseconds, so ``cached_rerun_s`` is their median.
CACHED_RERUNS = 10
#: ``validate_reproduction`` must pass at least this many paper checks.
VALIDATION_CHECKS = 54
#: Tolerance of the energy-closure invariants (as the property suite).
ENERGY_REL_TOL = 1e-12


@dataclass
class PassResult:
    """What one pass produced: digest, checks, work and recorded quantities."""

    digest: str
    checks: list[tuple[str, bool]]
    #: Workpackages executed and failed (campaign passes only).
    executed: int = 0
    failed_workpackages: int = 0
    #: Simulated quantities and sub-pass host timings, by metric name.
    values: dict[str, float] = field(default_factory=dict)


class PrebuiltArrivals:
    """An arrival process whose ``generate()`` returns a pre-built tuple."""

    def __init__(self, requests: tuple) -> None:
        self.requests = requests

    def generate(self) -> tuple:
        """The pre-built requests."""
        return self.requests


def _digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def arrivals_within(process, horizon_s: float) -> tuple:
    """The requests of ``process`` that arrive by ``horizon_s``.

    ``process`` must generate past the horizon; the builtin generators
    draw request by request, so the prefix is the stream itself.
    """
    stream = process.generate()
    if stream[-1].arrival_s <= horizon_s:
        raise ValueError("arrival process ends before the horizon")
    return tuple(r for r in stream if r.arrival_s <= horizon_s)


def _requests_past(rate_per_s: float, horizon_s: float) -> int:
    """A request count whose Poisson stream surely outlasts the horizon."""
    return int(rate_per_s * horizon_s * 1.5) + 50


def _inference_engine(system: str):
    from repro.engine.inference import InferenceEngine
    from repro.hardware.systems import get_system
    from repro.models.transformer import get_gpt_preset

    return InferenceEngine(get_system(system), get_gpt_preset("800M"))


# -- correctness checks --------------------------------------------------------


def conservation_check(generated: int, summary, records: int, rejected: int):
    """Every generated request is offered, and completed or rejected once."""
    return (
        "requests conserved",
        summary.offered == generated
        and summary.completed == records
        and summary.rejected == rejected
        and records + rejected == generated,
    )


def serve_engine_checks(served, generated: int):
    """Conservation, and per-request energy against the run's energy.

    Idle time is deliberately unattributed, so the measured run energy
    bounds the per-request sum from above.
    """
    s = served.summary
    attributed = math.fsum(r.energy_wh for r in served.records)
    return [
        conservation_check(generated, s, len(served.records), len(served.rejected)),
        (
            "request energy sums to summary",
            math.isclose(
                attributed, s.energy_wh, rel_tol=ENERGY_REL_TOL, abs_tol=ENERGY_REL_TOL
            ),
        ),
        (
            "request energy within run energy",
            0.0 < attributed <= served.train.energy_per_device_wh * (1 + 1e-9),
        ),
    ]


def serve_fleet_checks(result, generated: int):
    """Conservation; request energy partitions busy energy; parts sum to total."""
    summary = result.summary
    attributed = math.fsum(c.record.energy_wh for c in result.records)
    parts = (
        summary.busy_energy_wh
        + summary.idle_energy_wh
        + summary.spinup_energy_wh
        + summary.transfer_energy_wh
    )
    return [
        conservation_check(
            generated, summary.serve, len(result.records), len(result.rejected)
        ),
        (
            "request energy sums to busy energy",
            math.isclose(
                attributed,
                summary.busy_energy_wh,
                rel_tol=ENERGY_REL_TOL,
                abs_tol=ENERGY_REL_TOL,
            ),
        ),
        (
            "fleet energy parts sum to total",
            math.isclose(parts, summary.energy_wh, rel_tol=0.0, abs_tol=ENERGY_REL_TOL),
        ),
    ]


def campaign_checks(size: int, planned, cold, reruns, queried):
    """The sweep plans, runs cold, re-runs from cache and reads back exactly."""
    from repro.campaign.store import canonical_json

    def canonical(rows):
        return sorted(canonical_json(row.to_dict()) for row in rows)

    cold_rows = canonical(cold.rows)
    return [
        ("plan covers the sweep", planned == size),
        ("cold run executes every workpackage", cold.executed == size == cold.total),
        ("cold run has no failed workpackage", cold.failed == 0),
        (
            "cached re-run is all cache hits",
            all(r.total == size and r.cached == size for r in reruns),
        ),
        (
            "cached rows equal cold rows",
            all(canonical(r.rows) == cold_rows for r in reruns),
        ),
        ("queried rows equal cold rows", canonical(queried) == cold_rows),
    ]


# -- serve_engine --------------------------------------------------------------


def setup_serve_engine(seed: int, scratch: Path, horizon_s: float = ENGINE_HORIZON_S):
    """A seeded Poisson stream and a fast-engine single-device simulator."""
    from repro.serve import PoissonArrivals, ServingSimulator, SLOPolicy

    process = PoissonArrivals(
        rate_per_s=ENGINE_RATE_PER_S,
        requests=_requests_past(ENGINE_RATE_PER_S, horizon_s),
        prompt_tokens=PROMPT_TOKENS,
        generate_tokens=GENERATE_TOKENS,
        length_spread=LENGTH_SPREAD,
        seed=seed,
    )
    stream = arrivals_within(process, horizon_s)
    simulator = ServingSimulator(
        _inference_engine(ENGINE_SYSTEM),
        slo=SLOPolicy(ttft_s=SLO_TTFT_S),
        engine_mode="fast",
    )
    return simulator, PrebuiltArrivals(stream)


def run_serve_engine(inputs) -> PassResult:
    """One single-engine serving run."""
    simulator, arrivals = inputs
    served = simulator.run(arrivals)
    s = served.summary
    decode_steps = served.train.extra["decode_steps"]
    return PassResult(
        digest=_digest(served.records_json(), repr(sorted(s.to_dict().items()))),
        checks=serve_engine_checks(served, len(arrivals.requests)),
        values={
            "sim.requests": s.completed,
            "serve.decode_steps": decode_steps,
            "serve.rejected": s.rejected,
            "sim.decode_steps": decode_steps,
        },
    )


# -- serve_fleet ---------------------------------------------------------------


def setup_serve_fleet(seed: int, scratch: Path, horizon_s: float = FLEET_HORIZON_S):
    """Seeded session traffic and an autoscaled prefix-aware fleet."""
    from repro.serve import SessionArrivals, SLOPolicy
    from repro.serve.cluster import AutoscalePolicy, ClusterSimulator

    process = SessionArrivals(
        rate_per_s=FLEET_RATE_PER_S,
        requests=_requests_past(FLEET_RATE_PER_S, horizon_s),
        sessions=FLEET_SESSIONS,
        prompt_tokens=PROMPT_TOKENS,
        prefix_tokens=PREFIX_TOKENS,
        generate_tokens=GENERATE_TOKENS,
        length_spread=LENGTH_SPREAD,
        seed=seed,
    )
    stream = arrivals_within(process, horizon_s)
    simulator = ClusterSimulator(
        _inference_engine(ENGINE_SYSTEM),
        replicas=FLEET_REPLICAS,
        router=FLEET_ROUTER,
        slo=SLOPolicy(ttft_s=SLO_TTFT_S),
        autoscale=AutoscalePolicy(min_replicas=1),
        engine_mode="fast",
    )
    return simulator, PrebuiltArrivals(stream)


def run_serve_fleet(inputs) -> PassResult:
    """One autoscaled cluster serving run."""
    simulator, arrivals = inputs
    result = simulator.run(arrivals)
    summary = result.summary
    decode_steps = result.train.iterations
    return PassResult(
        digest=_digest(result.records_json(), repr(sorted(summary.to_dict().items()))),
        checks=serve_fleet_checks(result, len(arrivals.requests)),
        values={
            "sim.requests": summary.serve.completed,
            "sim.decode_steps": decode_steps,
            "cluster.decode_steps": decode_steps,
            "cluster.spinups": summary.spinups,
            "cluster.prefix_hit_ratio": summary.prefix_hit_rate,
        },
    )


# -- campaign_sweep ------------------------------------------------------------


def sweep_spec(seed: int):
    """LLM and ResNet training sweep over every GPU system.

    Global batch × micro-batch × power cap for the GPT, global batch ×
    power cap for ResNet50; two of the three caps are drawn from the
    seed, so each seed addresses its own cache keys.
    """
    from repro.campaign import CampaignSpec, WorkloadSpec
    from repro.hardware.accelerator import AcceleratorKind
    from repro.hardware.systems import SYSTEM_TAGS, get_system

    rng = random.Random(seed)
    caps = ["0", *(str(w) for w in sorted(rng.sample(range(*CAP_RANGE_W), 2)))]
    batches = ["64", "128", "256"]
    systems = tuple(
        tag
        for tag in SYSTEM_TAGS
        if get_system(tag).accelerator.kind is AcceleratorKind.GPU
    )
    fixed = {"use_synthetic": "true"}
    return CampaignSpec(
        name="perfbench-sweep",
        systems=systems,
        workloads=(
            WorkloadSpec.of_kind(
                "llm",
                axes={
                    "global_batch_size": batches,
                    "micro_batch_size": ["1", "2", "4"],
                    "power_cap": caps,
                },
                fixed=fixed,
            ),
            WorkloadSpec.of_kind(
                "resnet",
                axes={"global_batch_size": batches, "power_cap": caps},
                fixed=fixed,
            ),
        ),
    )


@dataclass
class SweepInputs:
    """The seeded spec plus where each pass puts its fresh store."""

    spec: object
    scratch: Path
    passes: int = 0


def setup_campaign_sweep(seed: int, scratch: Path) -> SweepInputs:
    """The seeded sweep spec; the store is created fresh in every pass."""
    import repro.campaign  # noqa: F401  (imported in set-up, used per pass)

    return SweepInputs(spec=sweep_spec(seed), scratch=scratch)


def run_campaign_sweep(inputs: SweepInputs) -> PassResult:
    """Plan, run cold, re-run fully cached and query a fresh store."""
    from repro.campaign import CampaignRunner, IsolatingExecutor, SqliteStore

    spec = inputs.spec
    inputs.passes += 1
    store_dir = inputs.scratch / f"sweep-{inputs.passes}"
    store_dir.mkdir(parents=True)
    try:
        with SqliteStore(store_dir / "sweep.sqlite") as store:
            runner = CampaignRunner(store, executor=IsolatingExecutor())
            planned = sum(step.planned for step in runner.status(spec).steps)
            start = time.perf_counter()
            cold = runner.run(spec)
            cold_s = time.perf_counter() - start
            reruns, rerun_s = [], []
            for _ in range(CACHED_RERUNS):
                start = time.perf_counter()
                reruns.append(runner.run(spec))
                rerun_s.append(time.perf_counter() - start)
            queried = store.query(campaign=spec.name)
            store.query(
                campaign=spec.name, step="llm", where={"system": spec.systems[0]}
            )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    rows = sorted(row.canonical() for row in cold.rows)
    return PassResult(
        digest=_digest(*rows),
        checks=campaign_checks(spec.size, planned, cold, reruns, queried),
        executed=cold.executed,
        failed_workpackages=cold.failed,
        values={
            "sweep.cold_s": cold_s,
            "sweep.cached_s": statistics.median(rerun_s),
            "campaign.cache_hit_ratio": min(r.cached / r.total for r in reruns),
        },
    )


# -- paper_report --------------------------------------------------------------


@dataclass
class ReportInputs:
    """Modules of the report and the figure directory it writes to."""

    report: object
    validate: object
    figure_dir: Path


def setup_paper_report(seed: int, scratch: Path) -> ReportInputs:
    """Nothing to build: the report uses fixed internal seeds."""
    import repro.analysis.report as report
    import repro.analysis.validate as validate

    return ReportInputs(report, validate, scratch / "figures")


def run_paper_report(inputs: ReportInputs) -> PassResult:
    """The full report with SVG figures, then the paper validation."""
    # Start empty, so the checks and the digest see only this pass's figures.
    shutil.rmtree(inputs.figure_dir, ignore_errors=True)
    inputs.figure_dir.mkdir(parents=True)
    text = inputs.report.build_report(
        include_figures=True, figure_dir=str(inputs.figure_dir)
    )
    items = inputs.validate.validate_reproduction()
    figures = sorted(inputs.figure_dir.glob("*.svg"))
    passed = sum(1 for item in items if item.passed)
    return PassResult(
        digest=_digest(
            text.replace(str(inputs.figure_dir), "<figures>"),
            *(p.name.encode() + p.read_bytes() for p in figures),
        ),
        checks=[
            (
                "validation passes every paper check",
                passed == len(items) >= VALIDATION_CHECKS,
            ),
            ("report renders figures", bool(figures)),
        ],
    )


@dataclass(frozen=True)
class Workload:
    """A named workload: set-up from the seed and one timed pass."""

    name: str
    setup: object
    run_pass: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve_engine", setup_serve_engine, run_serve_engine),
        Workload("serve_fleet", setup_serve_fleet, run_serve_fleet),
        Workload("campaign_sweep", setup_campaign_sweep, run_campaign_sweep),
        Workload("paper_report", setup_paper_report, run_paper_report),
    )
}
