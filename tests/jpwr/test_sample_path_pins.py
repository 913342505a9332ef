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

from repro.engine.inference import InferenceEngine
from repro.engine.trainer import PhaseRunner, jpwr_methods_for_node, measure_run
from repro.errors import MeasurementError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, activate_injection
from repro.hardware.systems import get_system
from repro.jpwr.ctxmgr import get_power
from repro.models.transformer import get_gpt_preset
from repro.power.sensors import DeviceRegistry
from repro.serve import PoissonArrivals
from repro.serve.simulator import ServingSimulator
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


# -- scopes touched between samples -----------------------------------------


def _scope_doc(scope, **extra) -> str:
    energy_df, additional = scope.energy()
    doc = {
        "df": scope.df.to_json(),
        "energy": energy_df.to_json(),
        "additional": {k: v.to_json() for k, v in additional.items()},
        "dropped": scope.dropped_samples,
        "anomalous": scope.anomalous_samples,
        **extra,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _phases(clock, scope, devices, profile, sample):
    for busy_s, util in profile:
        for dev in devices:
            dev.set_utilisation(util)
        sample(scope)
        clock.advance(busy_s)
        sample(scope)


def _mid_scope_digest(tag: str, case: str) -> str:
    """A manual scope that is read, faulted or inspected between samples."""
    node = get_system(tag)
    clock = VirtualClock()
    registry = DeviceRegistry.for_node(node, clock=clock, noise_fraction=0.02, seed=5)
    devices = list(registry)
    methods = jpwr_methods_for_node(node, registry)
    on_error = "raise" if case == "fail-raise" else "skip"
    errors: list[str] = []
    seen: dict[str, object] = {}

    def sample(scope):
        try:
            scope.sample()
        except MeasurementError as exc:
            errors.append(str(exc))

    first, second = PROFILE[:12], PROFILE[12:]
    with get_power(methods, 100.0, clock=clock, manual=True, on_error=on_error) as scope:
        _phases(clock, scope, devices, first, sample)
        if case == "df":
            seen["mid_df"] = scope.df.to_json()
            seen["mid_energy"] = scope.energy()[0].to_json()
        elif case in ("fail-skip", "fail-raise"):
            devices[-1].fail()
            _phases(clock, scope, devices, PROFILE[:3], sample)
            devices[-1].repair()
        else:  # direct reads between samples
            seen["reads"] = [
                tuple(devices[0].read()),
                devices[-1].read_energy_j(),
                devices[0].read_power_w(),
            ]
        _phases(clock, scope, devices, second, sample)
    return _scope_doc(scope, errors=errors, **seen)


MID_SCOPE_CASES = ("df", "fail-skip", "fail-raise", "reads")

#: Digests recorded before sensor reads were deferred.
MID_SCOPE_PINNED = {
    ("GC200", "df"):
        "55832747c718ec997a6eb672ede06983db65bff50c43c0e270a62ba06379ba04",
    ("GC200", "fail-skip"):
        "d14bea3c414fffe6e6af03015a089adc43b9da3d8af6f14bfcb5fb2b971ccdd0",
    ("GC200", "fail-raise"):
        "6ec585996ccb8a18bc22ad3b42354206f6c9b82b062ca9ec0822a35ba393e457",
    ("GC200", "reads"):
        "0c159af8f96ee7067c68d17ff149764cb0372aacf4dbdfad0f9067bfb43187f3",
    ("GH200", "df"):
        "2274ff598a2087da3bd1acb8b3d0db3c1fc1288165bd3e5643f6ec121c29cc77",
    ("GH200", "fail-skip"):
        "72c1abc7068368177ea4463155f31d5701181cb676b4781d6eaf20fc3d2de598",
    ("GH200", "fail-raise"):
        "41649f991f0e275800a7dc8fa64730a6fe7aa62d6db1043e83650471b21142a0",
    ("GH200", "reads"):
        "b0f41a96d989da06b368fef3206aa2c3ab0816272733a898ceb0b59d57709204",
    ("H100", "df"):
        "7434a51a3a9502d0afae2ad39a5c01ae6cd99f09a29d0423c253a282a090fe18",
    ("H100", "fail-skip"):
        "185deaf4143360bfffebec534624fb91b1fcc7cf3a680f78b48c9f5521c51eca",
    ("H100", "fail-raise"):
        "8cb5a293945774a3e48972e1995b01abbb7c6cd4936329f13056500259994724",
    ("H100", "reads"):
        "8d2c007ed8de805dea76405676ff105bc10b9d67c123da872ab7e43ae89dda87",
    ("MI250", "df"):
        "7b04201ad8291f8879baabc2c5b615419e40e7fe03c3802ae9cccf046888a63a",
    ("MI250", "fail-skip"):
        "f3d34f289bff7828075f6e9554f2d375d777317cd2c683711e2c103625fe2438",
    ("MI250", "fail-raise"):
        "c911f352919d8190190830a7234b925222e0493192f0b800fa3024afa1aac2ec",
    ("MI250", "reads"):
        "a8ecf241021b4a3ba38a8a9cb932ae1559f6660352556db6ddec30aeb8c463a8",
}


@pytest.mark.parametrize("tag,case", sorted(MID_SCOPE_PINNED))
def test_mid_scope_digest_is_pinned(tag, case):
    assert _mid_scope_digest(tag, case) == MID_SCOPE_PINNED[(tag, case)]


def _serve_digest(tag: str) -> str:
    simulator = ServingSimulator(InferenceEngine(get_system(tag), get_gpt_preset("800M")))
    served = simulator.run(PoissonArrivals(rate_per_s=20.0, requests=120, seed=4))
    summary = repr(sorted(served.summary.to_dict().items()))
    return hashlib.sha256((served.records_json() + summary).encode()).hexdigest()


#: Single-engine serve digests recorded before sensor reads were deferred.
SERVE_PINNED = {
    "GH200": "22223f54157369b5efe3b4aa1b2a1602fdb19cc597e17864a2887d2abf7c28cb",
    "H100": "6e7e55f0b1add094b77e642fae3a50c474cabeddba05e06a7bb43ba871d4aa79",
    "MI250": "d1bd4e20c301a6c8c9356f5f32fd2d36dc4dccf25e53a789e85e28a98deb91d5",
}


@pytest.mark.parametrize("tag", sorted(SERVE_PINNED))
def test_single_engine_serve_digest_is_pinned(tag):
    assert _serve_digest(tag) == SERVE_PINNED[tag]
