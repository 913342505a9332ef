"""Outside-in per-layer tracing: wrap public functions, count calls, time self.

The benchmark measures the program from outside: it replaces each public
function listed in :data:`LAYERS` with a wrapper that counts calls and
accumulates *self time* — a call's duration minus the time covered by
the traced calls it made.  Each wrapper is installed wherever the
function is looked up (the defining module, every ``repro`` module that
imported it by name, or the class for a method) and removed again by
:meth:`LayerTracer.restore`.

Spans are aggregated into per-layer accumulators instead of being
stored one by one: the hottest layer (virtual-sensor reads) is called
hundreds of thousands of times in one pass.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

#: Attribute set on every wrapper so a leftover one can be found.
WRAPPED_MARK = "__perfbench_layer__"

Tally = Callable[[tuple, object], Iterable[tuple[str, int]]]


@dataclass(frozen=True)
class Layer:
    """One traced public function: ``attr`` is ``name`` or ``Class.name``."""

    name: str
    module: str
    attr: str
    tally: Tally | None = None


def _rows_written(args, result):
    yield "campaign.store.put_many.rows", len(args[1])


def _keys_read(args, result):
    yield "campaign.store.get_many.keys", len(args[1])


def _items_run(args, result):
    yield "campaign.executor.items", len(args[1])
    yield "campaign.executor.failed", sum(1 for r in result if r.error)


#: Every traced layer.  Several entries may share one layer name; their
#: calls and self times add up.
LAYERS: tuple[Layer, ...] = (
    Layer("jpwr.sample", "repro.jpwr.ctxmgr", "MeasuredScope.sample"),
    Layer("power.sensor_read", "repro.power.sensors", "SimulatedDevice.read"),
    Layer("power.model", "repro.power.model", "PowerModel.power"),
    Layer("serve.run", "repro.serve.simulator", "ServingSimulator.run"),
    Layer("serve.summarize", "repro.serve.result", "summarize"),
    Layer("serve.queue.offer", "repro.serve.queue", "AdmissionQueue.offer"),
    Layer(
        "engine.inference.prefill",
        "repro.engine.inference",
        "InferenceEngine.prefill_time_s",
    ),
    Layer(
        "engine.inference.decode_step",
        "repro.engine.inference",
        "InferenceEngine.decode_step_time_s",
    ),
    Layer("cluster.run", "repro.serve.cluster.simulator", "ClusterSimulator.run"),
    Layer("cluster.route", "repro.serve.cluster.router", "Router.route"),
    Layer(
        "cluster.autoscaler.evaluate",
        "repro.serve.cluster.autoscaler",
        "Autoscaler.evaluate",
    ),
    Layer("campaign.plan", "repro.campaign.spec", "CampaignSpec.compile"),
    Layer("campaign.plan", "repro.jube.parameters", "expand_parameter_space"),
    Layer("campaign.key", "repro.campaign.hashing", "ResultKeyer.key"),
    Layer(
        "campaign.store.put_many",
        "repro.campaign.store",
        "SqliteStore.put_many",
        _rows_written,
    ),
    Layer(
        "campaign.store.get_many",
        "repro.campaign.store",
        "SqliteStore.get_many",
        _keys_read,
    ),
    Layer("campaign.store.query", "repro.campaign.store", "SqliteStore.query"),
    Layer(
        "campaign.executor.run_items",
        "repro.campaign.executor",
        "IsolatingExecutor.run_items",
        _items_run,
    ),
    # The llm_train / resnet_train operations are closures inside the
    # operation registry; each one is a thin shell around this call.
    Layer("engine.train.op", "repro.core.llm_training", "run_llm_benchmark"),
    Layer("engine.train.op", "repro.core.resnet50", "run_resnet_benchmark"),
    Layer("engine.measure_run", "repro.engine.trainer", "measure_run"),
    Layer("analysis.fig2", "repro.analysis.figures", "fig2_llm_series"),
    Layer("analysis.table2", "repro.analysis.tables", "table2_ipu_gpt"),
    Layer("analysis.fig3", "repro.analysis.figures", "fig3_resnet_series"),
    Layer("analysis.table3", "repro.analysis.tables", "table3_ipu_resnet"),
    Layer("analysis.serving", "repro.analysis.serving", "serving_rows"),
    Layer("analysis.cluster", "repro.analysis.serving", "cluster_rows"),
    Layer("analysis.telemetry", "repro.analysis.telemetry", "run_burst_scenario"),
    Layer("analysis.recommender", "repro.analysis.recommender", "run_recommender"),
    Layer("analysis.powercap", "repro.analysis.powercap", "run_powercap_sweep"),
    Layer("analysis.powercap", "repro.analysis.powercap", "run_serve_cap_sweep"),
    Layer("analysis.figures", "repro.analysis.render", "render_all"),
    Layer("analysis.validate", "repro.analysis.validate", "validate_reproduction"),
)


def _program_modules():
    """Every loaded module of the program under test."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTracer:
    """Installs the layer wrappers, accumulates counts, restores originals.

    Use as a context manager; :meth:`reset` clears the accumulators
    between passes and :meth:`snapshot` reads them.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One entry per open traced call: time covered by its children.
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    def reset(self) -> None:
        """Zero every accumulator."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def snapshot(self) -> dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s`` and tallies, by name."""
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def _wrap(self, layer: Layer, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        counts = self.counts
        name = layer.name
        tally = layer.tally
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if tally is not None:
                for counter, n in tally(args, result):
                    counts[counter] += n
            return result

        setattr(traced, WRAPPED_MARK, name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer where it is looked up."""
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            cls_name, _, method = layer.attr.rpartition(".")
            if cls_name:
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrap(layer, owner.__dict__[method]))
                continue
            original = getattr(module, method)
            traced = self._wrap(layer, original)
            for holder in _program_modules():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, traced)

    def restore(self) -> None:
        """Put every original back, including copies imported meanwhile."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A module first imported while tracing may hold a wrapper it
        # copied from a patched module by ``from ... import``.
        for holder in _program_modules():
            for attr, value in list(vars(holder).items()):
                if getattr(value, WRAPPED_MARK, None) is not None:
                    setattr(holder, attr, value.__wrapped__)


def leftover_wrappers() -> list[str]:
    """``module.attr`` of every wrapper still installed anywhere."""
    found = []
    for holder in _program_modules():
        for attr, value in list(vars(holder).items()):
            if getattr(value, WRAPPED_MARK, None) is not None:
                found.append(f"{holder.__name__}.{attr}")
            elif isinstance(value, type):
                for name, member in list(vars(value).items()):
                    if getattr(member, WRAPPED_MARK, None) is not None:
                        found.append(f"{holder.__name__}.{attr}.{name}")
    return found


# -- import time ---------------------------------------------------------------

_IMPORTTIME_LINE = re.compile(
    r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\s*)(\S+)\s*$"
)


def import_self_seconds(stderr: str) -> dict[str, float]:
    """Self import seconds per module from ``python -X importtime`` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if match:
            out[match.group(4)] = int(match.group(1)) / 1e6
    return out


def package_import_seconds(
    self_seconds: dict[str, float], package: str
) -> float:
    """Summed self import time of ``package`` and all its submodules."""
    prefix = package + "."
    return sum(
        seconds
        for module, seconds in self_seconds.items()
        if module == package or module.startswith(prefix)
    )
