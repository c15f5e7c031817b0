"""Named cluster scenarios beyond the paper's two testbeds.

The paper evaluates on Cluster 1 (8 x 1 Gbps) and Cluster 2 (40 x
10 Gbps); these presets extend the grid so users can ask "would the
conclusions hold on my fabric?" without hand-building specs.  All reuse
:class:`~repro.sim.cluster.ClusterSpec`; pass any of them to
:class:`~repro.sim.cluster.SimulatedCluster`.
"""

from __future__ import annotations

from typing import Dict

from repro.net.network import gbps
from repro.sim.cluster import CLUSTER1, CLUSTER2, ClusterSpec

#: Modern datacenter rack: 16 fat nodes on a 100 Gbps fabric.
MODERN_RACK = ClusterSpec(
    name="modern-rack",
    n_workers=16,
    cores_per_worker=32,
    memory_bytes_per_node=256e9,
    bandwidth_bytes_per_s=gbps(100.0),
    latency_s=0.05e-3,
)

#: Cross-availability-zone deployment: bandwidth is fine, latency hurts.
CROSS_AZ = ClusterSpec(
    name="cross-az",
    n_workers=8,
    cores_per_worker=8,
    memory_bytes_per_node=64e9,
    bandwidth_bytes_per_s=gbps(10.0),
    latency_s=5e-3,
)

#: Commodity edge boxes on consumer networking.
EDGE = ClusterSpec(
    name="edge",
    n_workers=4,
    cores_per_worker=4,
    memory_bytes_per_node=8e9,
    bandwidth_bytes_per_s=gbps(0.1),
    latency_s=10e-3,
)

PRESETS: Dict[str, ClusterSpec] = {
    "cluster1": CLUSTER1,
    "cluster2": CLUSTER2,
    "modern-rack": MODERN_RACK,
    "cross-az": CROSS_AZ,
    "edge": EDGE,
}
