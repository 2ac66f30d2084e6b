"""The design-space grid the sweep workloads run, and the router
configurations every workload draws from.

Eight configurations cover every router kind: the paper's WH64, VC16,
VC64, VC128, CB and XB presets on the 4x4 torus, a speculative VC16 on
the same torus, and VC16 on an 8x8 mesh.  Each runs uniform, transpose
and hotspot traffic at two rates placed from the closed-form
saturation estimate, well below it: one point past saturation ran for
minutes and grew to 800 MB.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro import preset
from repro.analytic import estimate
from repro.core.config import NetworkConfig, RunProtocol
from repro.exp import RunPoint, TrafficSpec

#: Rates as shares of the estimated saturation rate.
RATE_SHARES = (0.25, 0.5)
#: Warm-up cycles and sample packets of every grid point.
WARMUP_CYCLES = 200
SAMPLE_PACKETS = 250
#: Rate at which the saturation estimate is requested (the estimate's
#: saturation search does not depend on it).
PROBE_RATE = 0.01


def configs() -> Dict[str, NetworkConfig]:
    """Label -> configuration, in grid order."""
    out = {name: preset(name) for name in
           ("WH64", "VC16", "VC64", "VC128", "CB", "XB")}
    out["SPEC16"] = preset("VC16").with_router(kind="speculative_vc")
    out["MESH8"] = preset("VC16").with_(topology="mesh", width=8,
                                        height=8)
    return out


#: Payload spelling of each label for the job service: a preset name,
#: or a preset plus overrides.
CONFIG_PAYLOADS = {
    "WH64": "WH64", "VC16": "VC16", "VC64": "VC64", "VC128": "VC128",
    "CB": "CB", "XB": "XB",
    "SPEC16": {"preset": "VC16",
               "overrides": {"router": {"kind": "speculative_vc"}}},
    "MESH8": {"preset": "VC16",
              "overrides": {"topology": "mesh", "width": 8, "height": 8}},
}

TRAFFICS = (TrafficSpec.of("uniform"), TrafficSpec.of("transpose"),
            TrafficSpec.of("hotspot", hotspot=5))


def layer_of(label: str, config: NetworkConfig) -> str:
    """The per-layer bucket a point's host time is charged to: its
    router kind on the 4x4 torus, or ``mesh8x8``."""
    if config.topology == "mesh":
        return "mesh8x8"
    return config.router.kind


def place_rates(config_table: Dict[str, NetworkConfig],
                timings: List[Tuple[float, float]],
                between: Callable[[], None] = lambda: None
                ) -> Dict[Tuple[str, str], float]:
    """Saturation rate of every (label, traffic) pair, from one direct
    ``repro.analytic.estimate`` call each; appends each call's (start,
    end) ``perf_counter`` times to ``timings`` and calls ``between``
    after each call, outside its times."""
    out = {}
    for label, config in config_table.items():
        for traffic in TRAFFICS:
            start = time.perf_counter()
            est = estimate(config, traffic.name, PROBE_RATE,
                           **dict(traffic.params))
            timings.append((start, time.perf_counter()))
            between()
            out[(label, traffic.describe())] = est.saturation.rate
    return out


def grid_points(config_table: Dict[str, NetworkConfig],
                saturation: Dict[Tuple[str, str], float], seed: int,
                protocol: RunProtocol = RunProtocol()) -> List[RunPoint]:
    """The grid in (config, traffic, rate) order."""
    protocol = protocol.with_(warmup_cycles=WARMUP_CYCLES,
                              sample_packets=SAMPLE_PACKETS, seed=seed)
    points = []
    for label, config in config_table.items():
        for traffic in TRAFFICS:
            sat = saturation[(label, traffic.describe())]
            for share in RATE_SHARES:
                points.append(RunPoint(
                    config=config, traffic=traffic,
                    rate=round(sat * share, 4), protocol=protocol,
                    label=label))
    return points


def with_activity(config_table: Dict[str, NetworkConfig],
                  mode: str) -> Dict[str, NetworkConfig]:
    return {label: config.with_(activity_mode=mode)
            for label, config in config_table.items()}

