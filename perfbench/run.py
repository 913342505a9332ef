"""Repository benchmark command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_engine --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs untraced passes, then the same passes with every
layer of :mod:`perfbench.tracing` wrapped, and reports per-layer counts,
self times and the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is non-zero when any correctness check,
pass or workpackage failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for path in (str(SRC), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

#: A seed kept out of tuning, for checking a later claim on fresh inputs.
HELD_OUT_SEED = 20240917
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fewest timed passes per phase, however long each pass takes.
MIN_PASSES = 3
#: Seconds a set-up child may take before it counts as failed.
CHILD_TIMEOUT_S = 60.0
#: Every reported host time is rescaled to a nominal machine on which
#: the reference kernel of :class:`SpeedProbe` takes this many seconds.
REFERENCE_S = 0.1
#: Where runs leave their scratch files and run records.
WORK_DIR = ROOT / ".perfbench"

#: name -> unit of the metrics printed with ``--trace 0``.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Packages whose import time ``--trace 1`` reports.
IMPORT_PACKAGES = (
    "repro",
    *(
        f"repro.{sub}"
        for sub in (
            "analysis", "campaign", "core", "data", "engine", "faults",
            "hardware", "jpwr", "jube", "models", "obs", "power", "serve",
            "simcluster",
        )
    ),
    "numpy",
    "networkx",
    "yaml",
)


def _import_metric(package: str) -> str:
    return f"import.{package.rpartition('.')[2]}_s"


#: name -> unit of the metrics printed with ``--trace 1``.
PER_LAYER = {
    **{_import_metric(p): "s" for p in IMPORT_PACKAGES},
    "jpwr.sample.calls": "count",
    "jpwr.sample.self_s": "s",
    "power.sensor_read.calls": "count",
    "power.sensor_read.self_s": "s",
    "power.model.calls": "count",
    "serve.run.self_s": "s",
    "serve.summarize.self_s": "s",
    "serve.queue.offer.calls": "count",
    "serve.decode_steps": "count",
    "serve.rejected": "count",
    "engine.inference.prefill.calls": "count",
    "engine.inference.prefill.self_s": "s",
    "engine.inference.decode_step.calls": "count",
    "engine.inference.decode_step.self_s": "s",
    "cluster.run.self_s": "s",
    "cluster.route.calls": "count",
    "cluster.route.self_s": "s",
    "cluster.autoscaler.evaluate.calls": "count",
    "cluster.autoscaler.evaluate.self_s": "s",
    "cluster.prefix_hit_ratio": "ratio",
    "cluster.spinups": "count",
    "cluster.decode_steps": "count",
    "campaign.plan.self_s": "s",
    "campaign.key.calls": "count",
    "campaign.key.self_s": "s",
    "campaign.store.put_many.rows": "count",
    "campaign.store.put_many.self_s": "s",
    "campaign.store.get_many.keys": "count",
    "campaign.store.get_many.self_s": "s",
    "campaign.store.query.self_s": "s",
    "campaign.cache_hit_ratio": "ratio",
    "campaign.executor.run_items.self_s": "s",
    "campaign.executor.items": "count",
    "campaign.executor.failed": "count",
    "engine.train.op.calls": "count",
    "engine.train.op.self_s": "s",
    "engine.measure_run.self_s": "s",
    **{
        f"analysis.{section}.self_s": "s"
        for section in (
            "fig2", "table2", "fig3", "table3", "serving", "cluster",
            "telemetry", "recommender", "powercap", "figures", "validate",
        )
    },
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    # Host-time throughputs of the untraced passes; each applies to only
    # some workloads (0 elsewhere), so they cannot be end-to-end metrics.
    "sim_req_per_s": "req/s",
    "host_us_per_sim_step": "us",
    "wp_per_s": "wp/s",
    "cached_rerun_s": "s",
    "failed_ops_ratio": "ratio",
}


class Ledger:
    """Attempted and failed operations of one run.

    An operation is a pass, a set-up child, a workpackage or a
    correctness check; a raised exception, a failed workpackage and a
    failed check each count as one failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation; remember it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def add_pass(self, result) -> None:
        """Count a pass's checks and workpackages."""
        for name, ok in result.checks:
            self.record(ok, name)
        self.attempted += result.executed
        self.failures += ["failed workpackage"] * result.failed_workpackages

    @property
    def failed(self) -> int:
        """Failed operations."""
        return len(self.failures)

    @property
    def ratio(self) -> float:
        """Failed over attempted operations."""
        return self.failed / self.attempted if self.attempted else 0.0


def provenance(workload: str, seed: int) -> dict:
    """Git SHA and dirty flag, seed, CPU count and Python version."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        # Keep git from searching above the checkout.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

        def git(*args: str) -> str | None:
            try:
                done = subprocess.run(
                    ["git", *args], cwd=ROOT, env=env, capture_output=True,
                    text=True, timeout=30, check=True,
                )
            except (OSError, subprocess.SubprocessError):
                return None
            return done.stdout

        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
        sha = head.strip() if head else None
        dirty = bool(status.strip()) if status is not None else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


class SpeedProbe:
    """The reference kernel of ``probe.py``, running in a child interpreter.

    The kernel runs between passes to measure the machine's current
    speed.  In a process of its own it shares nothing with the program
    under test but the machine.
    """

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def seconds(self) -> float:
        """Host seconds of one run of the kernel."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe exited")
        return float(line)

    def close(self) -> None:
        """End the child and wait for it."""
        self._child.stdin.close()
        try:
            self._child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


@dataclass
class Pass:
    """One timed pass: its raw host time and the speed rescaling factor."""

    raw_s: float
    #: :data:`REFERENCE_S` over the reference kernel's time around the pass.
    scale: float
    result: object
    layers: dict | None = None

    @property
    def wall_s(self) -> float:
        """Host seconds rescaled to the nominal machine speed."""
        return self.raw_s * self.scale


def _system_clock() -> float:
    """A monotonic clock that parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_command(workload: str, seed: int, *flags: str) -> list[str]:
    return [
        sys.executable, *flags, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]


def time_setup(
    workload: str, seed: int, ledger: Ledger, kernel: SpeedProbe
) -> list[float]:
    """Rescaled seconds from a fresh interpreter to inputs ready, per child."""
    samples = []
    before = kernel.seconds()
    for _ in range(SETUP_SAMPLES):
        start = _system_clock()
        done = subprocess.run(
            _child_command(workload, seed), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        after = kernel.seconds()
        word, _, ready_at = done.stdout.strip().partition(" ")
        if ledger.record(done.returncode == 0 and word == "ready", "set-up child"):
            elapsed = float(ready_at) - start
            samples.append(elapsed * 2 * REFERENCE_S / (before + after))
        before = after
    return samples


def import_times(workload: str, seed: int, ledger: Ledger) -> dict[str, float]:
    """Per-package import seconds of the set-up, from ``-X importtime``."""
    from perfbench.tracing import import_self_seconds, package_import_seconds

    done = subprocess.run(
        _child_command(workload, seed, "-X", "importtime"),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    ledger.record(done.returncode == 0, "import-time child")
    self_s = import_self_seconds(done.stderr)
    return {
        _import_metric(p): package_import_seconds(self_s, p) for p in IMPORT_PACKAGES
    }


def timed_passes(
    workload, inputs, seconds: float, ledger: Ledger, kernel: SpeedProbe,
    tracer=None, min_passes=MIN_PASSES,
) -> list[Pass]:
    """Run passes for ``seconds``, and at least ``min_passes`` of them.

    The reference kernel runs between passes; each pass is rescaled by
    the mean of the kernel times just before and just after it, which
    cancels the slow drifts of a shared machine's speed.  Stops early
    when a pass raises.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    before = kernel.seconds()
    while len(passes) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            result = workload.run_pass(inputs)
        except Exception:  # noqa: BLE001 — a failed pass is reported, not fatal
            traceback.print_exc()
            ledger.record(False, "pass raised")
            break
        raw = time.perf_counter() - start
        layers = tracer.snapshot() if tracer is not None else None
        after = kernel.seconds()
        passes.append(Pass(raw, 2 * REFERENCE_S / (before + after), result, layers))
        before = after
        ledger.record(True, "pass")
        ledger.add_pass(result)
    return passes


def median_wall(passes: list[Pass]) -> float:
    """Median rescaled wall time of the passes."""
    return statistics.median(p.wall_s for p in passes)


def throughputs(passes: list[Pass]) -> dict[str, float]:
    """Host-time throughputs of untraced passes (0 where not applicable)."""
    wall = median_wall(passes)
    last = passes[-1].result
    out = dict.fromkeys(
        ("sim_req_per_s", "host_us_per_sim_step", "wp_per_s", "cached_rerun_s"), 0.0
    )
    if "sim.requests" in last.values:
        out["sim_req_per_s"] = last.values["sim.requests"] / wall
        out["host_us_per_sim_step"] = wall * 1e6 / last.values["sim.decode_steps"]
    if "sweep.cold_s" in last.values:
        cold = statistics.median(
            p.result.values["sweep.cold_s"] * p.scale for p in passes
        )
        out["wp_per_s"] = last.executed / cold
        out["cached_rerun_s"] = statistics.median(
            p.result.values["sweep.cached_s"] * p.scale for p in passes
        )
    return out


#: Simulated quantities a pass records that are reported per layer.
RECORDED = (
    "serve.decode_steps", "serve.rejected", "cluster.decode_steps",
    "cluster.spinups", "cluster.prefix_hit_ratio", "campaign.cache_hit_ratio",
)


def layer_metrics(traced: list[Pass], ledger: Ledger) -> dict:
    """Median per-layer value over traced passes, 0 for unused layers.

    Counts and self times are raw host figures: tracing changes them,
    and they are not scored.
    """
    out = {
        name: statistics.median(p.layers.get(name, 0.0) for p in traced)
        for name in PER_LAYER
    }
    for name in RECORDED:
        out[name] = traced[-1].result.values.get(name, 0.0)
    out["trace.wall_s"] = statistics.median(p.raw_s for p in traced)
    for p in traced:
        over = [k for k, v in p.layers.items() if k.endswith(".self_s") and v > p.raw_s]
        ledger.record(not over, f"self time within pass wall {over}")
    return out


def digest_check(passes: list[Pass], ledger: Ledger, what: str) -> None:
    """Every pass of the same inputs must produce identical outputs."""
    digests = {p.result.digest for p in passes}
    ledger.record(len(digests) == 1, f"identical outputs across {what}")


def untraced_run(workload, inputs, seconds: float, ledger: Ledger, kernel):
    """One warm-up pass, then timed passes, with nothing wrapped.

    Returns ``(timed_passes, every_pass)``.
    """
    warm = timed_passes(workload, inputs, 0.0, ledger, kernel, min_passes=1)
    timed = timed_passes(workload, inputs, seconds, ledger, kernel)
    return timed, warm + timed


def traced_run(workload, inputs, seconds: float, ledger: Ledger, kernel):
    """Untraced then traced passes; per-layer metrics and overhead."""
    from perfbench.tracing import LayerTracer, leftover_wrappers

    untraced, every = untraced_run(workload, inputs, seconds / 2, ledger, kernel)
    if not untraced:
        return {}, every
    with LayerTracer() as tracer:
        traced = timed_passes(
            workload, inputs, seconds / 2, ledger, kernel, tracer=tracer
        )
    leftover = leftover_wrappers()
    ledger.record(not leftover, f"every wrapped function restored {leftover}")
    if not traced:
        return {}, every
    metrics = layer_metrics(traced, ledger)
    metrics.update(throughputs(untraced))
    metrics["trace.overhead_ratio"] = median_wall(traced) / median_wall(untraced) - 1.0
    print(
        f"traced: {len(traced)} passes, median {median_wall(traced):.4f} s; "
        f"untraced: {len(untraced)} passes, median {median_wall(untraced):.4f} s "
        f"(rescaled)"
    )
    return metrics, every + traced


def end_to_end_details(passes: list[Pass], metrics: dict, ledger: Ledger) -> dict:
    """Print the end-to-end figures with their sample counts; return extras."""
    walls = [p.wall_s for p in passes]
    details = {
        "passes": len(walls),
        "wall_s_unscaled": statistics.median(p.raw_s for p in passes),
        **{k: v for k, v in throughputs(passes).items() if v},
        "failed_ops_ratio": ledger.ratio,
    }
    print(
        f"wall_s: median {metrics['wall_s']:.6f} s over {len(walls)} passes "
        f"(min {min(walls):.6f}, max {max(walls):.6f}; warm-up excluded; "
        f"{details['wall_s_unscaled']:.6f} s before rescaling)"
    )
    print(
        f"setup_s: {metrics['setup_s']:.6f} s "
        f"(median of {SETUP_SAMPLES} fresh interpreters)"
    )
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.3f} MB")
    for name in ("sim_req_per_s", "host_us_per_sim_step", "wp_per_s", "cached_rerun_s"):
        if name in details:
            print(f"{name}: {details[name]:.6g} {PER_LAYER[name]}")
    print(f"failed_ops_ratio: {ledger.ratio:.6g} ({ledger.failed}/{ledger.attempted})")
    return details


def write_record(args, prov: dict, line: dict, details: dict) -> None:
    """Keep the run's provenance and result in the checkout."""
    runs = WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"provenance": prov, "result": line, "details": details}
    (runs / name).write_text(json.dumps(record, indent=2, sort_keys=True))


def measure(args) -> int:
    """One benchmark run; prints the result line; returns the exit code."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    prov = provenance(args.workload, args.seed)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    kernel = SpeedProbe()
    scratch = WORK_DIR / f"tmp-{os.getpid()}"
    try:
        if args.trace:
            imports = import_times(args.workload, args.seed, ledger)
        else:
            setup_samples = time_setup(args.workload, args.seed, ledger, kernel)
        scratch.mkdir(parents=True)
        # Library code that asks for a temporary directory stays in the checkout.
        tempfile.tempdir = str(scratch)
        inputs = workload.setup(args.seed, scratch)
        if args.trace:
            metrics, every = traced_run(workload, inputs, args.seconds, ledger, kernel)
            metrics.update(imports)
            units = PER_LAYER
        else:
            passes, every = untraced_run(workload, inputs, args.seconds, ledger, kernel)
            metrics = {}
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if passes and setup_samples:
                metrics = {
                    "setup_s": statistics.median(setup_samples),
                    "wall_s": median_wall(passes),
                    "peak_rss_mb": peak_rss_kib / 1024,
                }
            units = END_TO_END
        digest_check(
            every, ledger, "untraced and traced passes" if args.trace else "passes"
        )
    finally:
        kernel.close()
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.trace and metrics:
        metrics["failed_ops_ratio"] = ledger.ratio
    if any(name not in metrics for name in units):
        print("no result: a phase completed no pass", file=sys.stderr)
        return 1
    details = {} if args.trace else end_to_end_details(passes, metrics, ledger)
    line = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    write_record(args, prov, line, details)
    print(json.dumps(line))
    return 0 if ledger.failed == 0 else 1


def parse_args(argv=None):
    """The command line of the benchmark."""
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import and build the inputs, print 'ready <clock>' and exit "
        "(set-up timing)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Entry point."""
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.setup_only:
        from perfbench.workloads import WORKLOADS

        WORK_DIR.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            WORKLOADS[args.workload].setup(args.seed, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(f"ready {_system_clock()!r}", flush=True)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
