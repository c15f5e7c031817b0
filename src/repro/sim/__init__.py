"""Deterministic cluster simulator.

This package is the testbed substitute: it provides simulated time (a
:class:`SimClock` advanced by compute + network costs), per-node memory
budgets (so the paper's OOM outcomes reproduce) and straggler injection
(scheduled faults live in :mod:`repro.faults`).  Trainers in :mod:`repro.core` and
:mod:`repro.baselines` run their *real* numerical work eagerly in-process
and charge the clock through these models.
"""

from repro.sim.clock import SimClock
from repro.sim.cost import ComputeCostModel
from repro.sim.straggler import StragglerModel
from repro.sim.cluster import ClusterSpec, SimulatedCluster, CLUSTER1, CLUSTER2
from repro.sim.presets import PRESETS, MODERN_RACK, CROSS_AZ, EDGE

__all__ = [
    "SimClock",
    "ComputeCostModel",
    "StragglerModel",
    "ClusterSpec",
    "SimulatedCluster",
    "CLUSTER1",
    "CLUSTER2",
    "PRESETS",
    "MODERN_RACK",
    "CROSS_AZ",
    "EDGE",
]
