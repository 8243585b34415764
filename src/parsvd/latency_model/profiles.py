"""Hardware operator profiles: per-operation latency and LUT cost.

Builtin profiles hold measured figures for fully combinational 32-bit
floating-point and fixed-point operator IPs on a Zynq UltraScale device.
Custom profiles load from a flat key-value text file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..errors import ProfileError
from ..kvfile import read_flat_kv

OP_KINDS = ("add", "mul", "div", "sqrt")


@dataclass(frozen=True)
class HardwareProfile:
    name: str
    latency_ns: dict
    lut: dict

    def __post_init__(self):
        for table, unit in ((self.latency_ns, "ns"), (self.lut, "lut")):
            for kind in OP_KINDS:
                if kind not in table:
                    raise ProfileError(f"profile {self.name!r} missing {kind}.{unit}")
                # an inf or nan figure would price every path at inf or nan
                if not (math.isfinite(table[kind]) and table[kind] > 0):
                    raise ProfileError(
                        f"profile {self.name!r}: {kind}.{unit} must be finite and positive, "
                        f"got {table[kind]!r}"
                    )


BUILTIN_PROFILES = {
    "zynq-fp32": HardwareProfile(
        name="zynq-fp32",
        latency_ns={"add": 14.910, "mul": 14.059, "div": 33.296, "sqrt": 26.963},
        lut={"add": 341, "mul": 660, "div": 757, "sqrt": 409},
    ),
    "zynq-fxp32": HardwareProfile(
        name="zynq-fxp32",
        latency_ns={"add": 6.039, "mul": 14.708, "div": 46.486, "sqrt": 23.987},
        lut={"add": 32, "mul": 1074, "div": 1242, "sqrt": 352},
    ),
}


# keys of a profile file in the order they are checked; "name" is optional
_PROFILE_KEYS = {"name": str} | {
    f"{kind}.{unit}": conv for kind in OP_KINDS for unit, conv in (("ns", float), ("lut", int))
}


def _parse_profile_file(path: str) -> HardwareProfile:
    values = read_flat_kv(path, _PROFILE_KEYS, ProfileError)
    for key in _PROFILE_KEYS:
        if key != "name" and key not in values:
            raise ProfileError(f"{path}: missing key {key!r}")
    return HardwareProfile(
        name=values.get("name", os.path.splitext(os.path.basename(path))[0]),
        latency_ns={kind: values[f"{kind}.ns"] for kind in OP_KINDS},
        lut={kind: values[f"{kind}.lut"] for kind in OP_KINDS},
    )


def load_profile(source: str) -> HardwareProfile:
    """Resolve a builtin profile name or load a profile file.

    File lookup order: the literal path, then the directory named by the
    PARSVD_PROFILE_DIR environment variable.
    """
    if source in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[source]
    candidates = [source]
    env_dir = os.environ.get("PARSVD_PROFILE_DIR")
    if env_dir:
        candidates.append(os.path.join(env_dir, source))
    for cand in candidates:
        if os.path.isfile(cand):
            return _parse_profile_file(cand)
    builtin_names = ", ".join(sorted(BUILTIN_PROFILES))
    raise ProfileError(
        f"unknown profile {source!r}: not a builtin ({builtin_names}) and no such file"
    )
