"""AMD method: simulated ROCm SMI (rsmiBindings) backend.

rocm-smi reports "average socket power" per logical GPU, i.e. per GCD
on MI250 MCMs.  Each GCD is one column, matching how the paper's AMD
results distinguish the MI250:GCD and MI250:GPU normalisations.
"""

from __future__ import annotations

from repro.hardware.accelerator import Vendor
from repro.jpwr.frame import DataFrame
from repro.jpwr.methods.base import PowerMethod


class RocmSmiMethod(PowerMethod):
    """Power via the (simulated) ROCm System Management Interface."""

    name = "rocm"
    vendor = Vendor.AMD
    #: Per-GCD average socket power, microwatt precision.
    label_prefix = "gcd"
    scale = 1e6

    def additional_data(self) -> dict[str, DataFrame]:
        """Per-GCD utilisation snapshot (rocm-smi exposes 'GPU use %')."""
        df = DataFrame(["device", "gpu_use_percent"])
        for dev in self.devices():
            df.add_row(
                {"device": float(dev.index), "gpu_use_percent": dev.utilisation() * 100.0}
            )
        return {"rocm_gpu_use": df}
