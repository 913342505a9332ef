"""Grace-Hopper method: simulated sysfs hwmon backend.

On GH200 superchips the Linux kernel exposes package-level power
through ``/sys/class/hwmon`` device files (paper §III-A4): module
power, Grace CPU power, and CPU+GPU total.  The paper combines this
method with pynvml on GH200 nodes to capture the CPU share that the
GPU-only counter misses.

The simulated device model for superchips already folds the measurable
Grace share into the package power (see
:meth:`repro.power.sensors.DeviceRegistry.for_node`); this method
splits the package reading back into module/CPU components the way the
hwmon files do.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.accelerator import Vendor
from repro.jpwr.frame import DataFrame
from repro.jpwr.methods.base import PowerMethod, quantize, quantize_array
from repro.power.sensors import SimulatedDevice


#: Fraction of package power attributed to the Grace CPU at load; the
#: hwmon "CPU power" rail on GH200 typically reads 60-90 W against
#: 500-600 W module power.
_CPU_SHARE = 0.13


class GraceHopperMethod(PowerMethod):
    """Package power via the (simulated) /sys/class/hwmon interface."""

    name = "gh"
    vendor = Vendor.NVIDIA
    label_prefix = "gh_module"
    #: hwmon exposes microwatt files.
    scale = 1e6

    def devices(self) -> list[SimulatedDevice]:
        """Only superchip packages have GH hwmon nodes."""
        return [d for d in super().devices() if d.spec.form_factor == "superchip"]

    def read(self) -> dict[str, float]:
        """Module and CPU rails per superchip, in watts (one device read
        feeds both columns)."""
        out: dict[str, float] = {}
        for label, dev in self.channels():
            package_w = dev.read_power_w()
            out[label] = quantize(package_w, self.scale)
            out[f"gh_cpu{dev.index}"] = quantize(package_w * _CPU_SHARE, self.scale)
        return out

    def replay(self, powers: list[np.ndarray]) -> dict[str, np.ndarray]:
        """Module and CPU rail columns of deferred reads, as :meth:`read`."""
        out: dict[str, np.ndarray] = {}
        for (label, dev), package_w in zip(self.channels(), powers):
            out[label] = quantize_array(package_w, self.scale)
            out[f"gh_cpu{dev.index}"] = quantize_array(package_w * _CPU_SHARE, self.scale)
        return out

    def additional_data(self) -> dict[str, DataFrame]:
        """hwmon path inventory, mirroring the files jpwr reads."""
        df = DataFrame(["device", "hwmon_index"])
        for i, dev in enumerate(self.devices()):
            df.add_row({"device": float(dev.index), "hwmon_index": float(i)})
        return {"gh_hwmon_paths": df}
