"""Cross-path invariant: the two serving energy accountants agree.

The single-engine :class:`ServingSimulator` integrates energy from jpwr
virtual-sensor samples; a one-replica :class:`ClusterSimulator` prices
the same run on its analytic ledger.  Both must derive their watts from
:func:`repro.power.model.power_model_for_node`, so on every system that
serves the GPT model they agree up to the jpwr backend's reporting
quantum: each sample is truncated by at most one quantum, which bounds
the integrated difference by ``quantum * elapsed / 3600`` Wh.
"""

from __future__ import annotations

import pytest

from repro.engine.inference import InferenceEngine
from repro.engine.trainer import jpwr_methods_for_node
from repro.hardware.accelerator import AcceleratorKind
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.models.transformer import get_gpt_preset
from repro.power.sensors import DeviceRegistry
from repro.serve import PoissonArrivals
from repro.serve.cluster import ClusterSimulator
from repro.serve.simulator import ServingSimulator

pytestmark = [pytest.mark.serve]

ARRIVALS = PoissonArrivals(rate_per_s=20.0, requests=300, seed=1)

GPU_SYSTEMS = [
    tag for tag in SYSTEM_TAGS if get_system(tag).accelerator.kind is AcceleratorKind.GPU
]


def _engine(tag: str) -> InferenceEngine:
    return InferenceEngine(get_system(tag), get_gpt_preset("800M"))


@pytest.mark.parametrize("tag", GPU_SYSTEMS)
def test_single_engine_jpwr_energy_equals_one_replica_ledger(tag):
    single = ServingSimulator(_engine(tag)).run(ARRIVALS)
    cluster = ClusterSimulator(_engine(tag), replicas=1).run(ARRIVALS)
    node = get_system(tag)
    primary = jpwr_methods_for_node(node, DeviceRegistry())[0]
    bound_wh = single.train.elapsed_s / primary.scale / 3600.0
    diff_wh = single.train.energy_per_device_wh - cluster.summary.energy_wh
    assert abs(diff_wh) <= bound_wh, (
        f"{tag}: jpwr {single.train.energy_per_device_wh!r} Wh vs ledger "
        f"{cluster.summary.energy_wh!r} Wh (bound {bound_wh:.3e})"
    )


def test_every_gpu_system_is_covered():
    # GH200 is the system whose package model once differed between
    # the two accountants; it must stay in the parametrisation.
    assert {"GH200", "JEDI", "H100", "A100", "MI250"} <= set(GPU_SYSTEMS)
