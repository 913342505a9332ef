"""Byte-identity pins of the virtual-clock jpwr sample path.

Each case drives one Table I node through a fixed utilisation profile
under a manual jpwr scope and hashes everything the measurement layer
produces: the sample frame, the integrated energy frame, every
additional-data frame, the dropped/anomalous sample counts and, under
a fault plan, the injector's provenance.  The digests were recorded
before the sample path was optimised; any change to sampling, sensor
noise, quantisation or the fault seams changes them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine.trainer import PhaseRunner, jpwr_methods_for_node, measure_run
from repro.faults import FaultInjector, FaultPlan, FaultSpec, activate_injection
from repro.hardware.systems import get_system
from repro.jpwr.ctxmgr import get_power
from repro.power.sensors import DeviceRegistry
from repro.simcluster.clock import VirtualClock

#: (busy seconds, utilisation) phases of the fixed profile; the tail of
#: each step runs at a quarter of the busy utilisation.
PROFILE = [(0.137 + 0.011 * i, (0.35 + 0.13 * i) % 1.0) for i in range(24)]

FAULT_PLAN = FaultPlan(
    name="sample-path-pins",
    seed=11,
    faults=(
        FaultSpec(kind="sensor_spike", device=1, at_time_s=0.5, duration_s=1.0,
                  magnitude=37.5),
        FaultSpec(kind="sensor_nan", device=0, at_time_s=2.0, duration_s=0.3),
        FaultSpec(kind="sensor_dropout", at_time_s=3.0, duration_s=0.4),
    ),
)


def _drive(runner: PhaseRunner) -> None:
    runner.idle(0.25)
    for busy_s, util in PROFILE:
        runner.run_phase(busy_s, util)
        runner.run_phase(busy_s * 0.4, util * 0.25)
    runner.idle(0.1)


def _digest(tag: str, *, noise: float, faults: bool) -> str:
    node = get_system(tag)
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(node, clock=clock, noise_fraction=noise, seed=3)
    active = list(registry)
    methods = jpwr_methods_for_node(node, registry)
    injection = (
        FaultInjector(FAULT_PLAN).scope_for("llm", 0, {"system": tag})
        if faults
        else None
    )
    with activate_injection(injection):
        with get_power(methods, 100.0, clock=clock, manual=True) as scope:
            _drive(PhaseRunner(clock, scope, active))
        energy_df, additional = scope.energy()
    doc = {
        "df": scope.df.to_json(),
        "energy": energy_df.to_json(),
        "additional": {k: v.to_json() for k, v in additional.items()},
        "dropped": scope.dropped_samples,
        "anomalous": scope.anomalous_samples,
        "provenance": injection.provenance() if injection is not None else [],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


#: Digests recorded before the sample path was optimised.
PINNED = {
    ("H100", "clean"):
        "36347c1bed8f1085a1efb14cbf90f8719d5302945696e4204ef11188bd04d7e7",
    ("H100", "noisy"):
        "77a388014c70cf4074bada2903267249693c28ec031b58e3751cbf8144fff0ef",
    ("H100", "faults"):
        "9d5459680c13da945e2b0ab7420eaef081c581c4438128b28ae97b5ae0094ecc",
    ("GH200", "clean"):
        "dca594414ee8d7db0a93c3a65462c784709cf34fba3664b0ad0fe7060f271662",
    ("GH200", "noisy"):
        "a87be55559aa891feedcbda21a173f31f9504b61900d5da71139667b877c25cf",
    ("GH200", "faults"):
        "b0b72c77347a2f8b76e181c19598af8d6b00b9a53b65f447424a1a31e5bd911b",
    ("MI250", "clean"):
        "795aa2aaf92226dc23d4eac408e78e62a73ea86517c3d7e0b6b78e35e88933cc",
    ("MI250", "noisy"):
        "5537a5ae2fe102b62608de6d5d899e56c10222e5e5e325f288d97bbc472677bc",
    ("MI250", "faults"):
        "068ca6ddb6e277f29cb158af31b8f3f5d67f2047ebfd2a91294491a339e35a84",
    ("GC200", "clean"):
        "c2c2ce9dcba742b1f6ce4ad9d0a1196b31ceaa557cb4f219a445e6f09d60d98d",
    ("GC200", "noisy"):
        "ae4018812bc3f738b8cade105e99817da3e5665082a292a270cc9add4f26b4ce",
    ("GC200", "faults"):
        "481f9bda1cbee9da8bc8a54bac37c469f9e136dfe36200723f456562c9e2d837",
}

MODES = {
    "clean": dict(noise=0.0, faults=False),
    "noisy": dict(noise=0.02, faults=False),
    "faults": dict(noise=0.02, faults=True),
}


@pytest.mark.parametrize("tag,mode", sorted(PINNED))
def test_sample_path_digest_is_pinned(tag, mode):
    assert _digest(tag, **MODES[mode]) == PINNED[(tag, mode)]


def test_fault_plan_exercises_every_sensor_seam():
    # Guards the pins above: the fault digests only protect the seams
    # if every sensor fault kind actually fires during the profile.
    node = get_system("H100")
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(node, clock=clock)
    injection = FaultInjector(FAULT_PLAN).scope_for("llm", 0, {"system": "H100"})
    with activate_injection(injection):
        with get_power(
            jpwr_methods_for_node(node, registry), 100.0, clock=clock, manual=True
        ) as scope:
            _drive(PhaseRunner(clock, scope, list(registry)))
    fired = {record["kind"] for record in injection.provenance()}
    assert fired == {"sensor_spike", "sensor_nan", "sensor_dropout"}
    assert scope.dropped_samples > 0
    assert scope.anomalous_samples > 0


MEASURE_RUN_PINNED = {
    "H100": "(9.203600000000002, 0.43244144311111116, 169.15002772828024)",
    "GH200": "(9.203600000000002, 0.9428245438333335, 368.78703526880787)",
    "MI250": "(9.203600000000002, 0.3148840683835557, 123.16730911608505)",
    "GC200": "(9.203600000000002, 0.4190727111111112, 163.92083097918209)",
}


@pytest.mark.parametrize("tag", sorted(MEASURE_RUN_PINNED))
def test_measure_run_figures_are_pinned(tag):
    node = get_system(tag)

    def body(runner, clock):
        _drive(runner)
        return runner.steps_run

    _, elapsed, per_device_wh, mean_power = measure_run(
        node, node.logical_devices_per_node, body
    )
    assert repr((elapsed, per_device_wh, mean_power)) == MEASURE_RUN_PINNED[tag]
