"""Differential test: deferred jpwr reads == eager reads, byte for byte.

A manual scope on a virtual clock defers its sensor reads and replays
them in bulk (:class:`repro.power.sensors.DeferredReads`).  An active
fault-injection scope keeps every read eager, so activating an empty
:class:`FaultPlan` gives the eager oracle for the same calls.  Each
hypothesis example drives one Table I node through a random sequence of
phases (zero-length ones included), stray utilisation changes, extra
samples, mid-scope frame reads, direct device reads and sensor
failures, and compares everything the measurement layer produces plus
each device's counter and noise state afterwards.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.trainer import jpwr_methods_for_node
from repro.errors import MeasurementError
from repro.faults import FaultInjector, FaultPlan, activate_injection
from repro.hardware.systems import get_system
from repro.jpwr.ctxmgr import get_power
from repro.power.model import power_model_for_node
from repro.power.sensors import DeviceRegistry, SimulatedDevice
from repro.simcluster.clock import VirtualClock

NODES = ("H100", "GH200", "MI250", "GC200")

#: Utilisations in [GLITCH_LOW, GLITCH_HIGH) read NaN watts on a
#: glitchy device, so samples there are discarded as anomalous.
GLITCH_LOW, GLITCH_HIGH = 0.9, 0.95


class _GlitchyModel:
    """A node power model that reports NaN watts in one utilisation band."""

    def __init__(self, model) -> None:
        self.model = model

    def power(self, utilisation: float) -> float:
        if GLITCH_LOW <= utilisation < GLITCH_HIGH:
            return math.nan
        return self.model.power(utilisation)


durations = st.one_of(st.just(0.0), st.floats(0.0, 0.4, allow_nan=False))
utilisations = st.one_of(
    st.sampled_from([0.0, 1.0, GLITCH_LOW]), st.floats(0.0, 1.0, allow_nan=False)
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("phase"), durations, utilisations, st.integers(1, 8)),
        st.tuples(st.just("set"), utilisations),
        st.tuples(st.just("sample")),
        st.tuples(st.just("df")),
        st.tuples(st.just("read"), st.integers(0, 7)),
        st.tuples(st.just("fail"), st.integers(0, 7)),
        st.tuples(st.just("repair"), st.integers(0, 7)),
    ),
    max_size=40,
)


def _run(tag, steps, *, noise, glitch, on_error, eager) -> dict:
    node = get_system(tag)
    clock = VirtualClock()
    model = power_model_for_node(node)
    registry = DeviceRegistry()
    for i in range(node.logical_devices_per_node):
        registry.add(
            SimulatedDevice(
                i,
                node.accelerator,
                model=_GlitchyModel(model) if glitch else model,
                clock=clock,
                noise_fraction=noise,
                seed=17 + i,
            )
        )
    devices = list(registry)
    seen: list[object] = []

    def sample(scope):
        try:
            scope.sample()
        except MeasurementError as exc:
            seen.append(str(exc))

    injection = (
        FaultInjector(FaultPlan(name="eager")).scope_for("llm", 0, {}) if eager else None
    )
    with activate_injection(injection):
        with get_power(
            jpwr_methods_for_node(node, registry),
            100.0,
            clock=clock,
            manual=True,
            on_error=on_error,
        ) as scope:
            for op, *args in steps:
                if op == "phase":
                    duration, util, count = args
                    for dev in devices[:count]:
                        dev.set_utilisation(util)
                    sample(scope)
                    clock.advance(duration)
                    sample(scope)
                elif op == "set":
                    devices[0].set_utilisation(args[0])
                elif op == "sample":
                    sample(scope)
                elif op == "df":
                    seen.append(scope.df.to_json())
                elif op == "read":
                    dev = devices[args[0] % len(devices)]
                    try:
                        seen.append(repr(tuple(dev.read())))
                    except MeasurementError as exc:
                        seen.append(str(exc))
                else:
                    dev = devices[args[0] % len(devices)]
                    dev.fail() if op == "fail" else dev.repair()
            for dev in devices:
                dev.repair()
        try:
            energy_df, additional = scope.energy()
            energy = [energy_df.to_json(), {k: v.to_json() for k, v in additional.items()}]
        except (MeasurementError, ValueError) as exc:
            # Too few rows to integrate, or (a glitchy device that ran
            # at NaN watts) a NaN energy counter NVML cannot convert.
            energy = repr(exc)
    return {
        "df": scope.df.to_json(),
        "energy": energy,
        "dropped": scope.dropped_samples,
        "anomalous": scope.anomalous_samples,
        "seen": seen,
        "devices": [
            (
                repr(dev._energy_j),
                repr(dev._last_update_s),
                repr(dev._rng.standard_normal()),
            )
            for dev in devices
        ],
    }


@pytest.mark.parametrize("tag", NODES)
@pytest.mark.parametrize("noise", [0.0, 0.02], ids=["clean", "noisy"])
@given(
    steps=ops,
    glitch=st.booleans(),
    on_error=st.sampled_from(["skip", "raise"]),
)
# A zero-length phase at NaN watts: its reads fall at dt == 0, so they
# must not accrue (NaN * 0 would poison the energy counter).
@example(
    steps=[("phase", 0.1, 0.5, 8), ("phase", 0.0, GLITCH_LOW, 8), ("phase", 0.2, 0.5, 8)],
    glitch=True,
    on_error="skip",
)
@settings(max_examples=25, deadline=None)
def test_deferred_reads_equal_eager_reads(tag, noise, steps, glitch, on_error):
    kwargs = dict(noise=noise, glitch=glitch, on_error=on_error)
    deferred = _run(tag, steps, eager=False, **kwargs)
    assert deferred == _run(tag, steps, eager=True, **kwargs)


@pytest.mark.parametrize("tag", NODES)
def test_a_virtual_clock_scope_defers_and_reads_each_device_once(tag, monkeypatch):
    # Guards the differential above: the non-eager side must really defer.
    reads = []
    eager_read = SimulatedDevice.read

    def counting_read(self):
        reads.append(self.index)
        return eager_read(self)

    monkeypatch.setattr(SimulatedDevice, "read", counting_read)
    node = get_system(tag)
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(node, clock=clock, noise_fraction=0.02)
    methods = jpwr_methods_for_node(node, registry)
    with get_power(methods, 100.0, clock=clock, manual=True) as scope:
        labelling_reads = len(reads)
        for step in range(50):
            for dev in registry:
                dev.set_utilisation(step % 10 / 10)
            scope.sample()
            clock.advance(0.1)
        assert len(reads) == labelling_reads
    assert len(scope.df) == 52
    assert len(reads) == labelling_reads


def test_reads_stay_eager_on_a_device_with_its_own_clock():
    node = get_system("H100")
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(node, clock=clock)
    registry.get(3).clock = VirtualClock()
    with get_power(
        jpwr_methods_for_node(node, registry), 100.0, clock=clock, manual=True
    ) as scope:
        scope.sample()
        assert registry.get(0)._deferred is None


def test_a_method_overriding_read_without_replay_stays_eager():
    from repro.jpwr.methods.pynvml import PynvmlMethod

    class Doubled(PynvmlMethod):
        def read(self):
            return {label: 2 * watts for label, watts in super().read().items()}

    node = get_system("H100")
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(node, clock=clock)
    assert not Doubled(registry).replayable
    with get_power([Doubled(registry)], 100.0, clock=clock, manual=True) as scope:
        registry.get(0).set_utilisation(1.0)
        scope.sample()
        assert registry.get(0)._deferred is None
    assert scope.df["gpu0"][-1] == 2 * registry.get(0).model.power(1.0)
