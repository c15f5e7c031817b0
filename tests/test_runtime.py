"""The substrate contract: one transport on both backends.

A substrate is anything with ``n_workers``, ``clock``, ``network`` and
``topology``; the simulated cluster is one and a :class:`LocalRuntime`
is one.  The engine sends every comm phase through the substrate's
:class:`StarTopology`, so the same phase must log the same messages on
either backend — the load-bearing property here.  (The golden
trajectories and the sim-vs-local diffs pin the end-to-end consequence.)
"""

import pytest

from repro.engine import CommPhase, RoundEngine, RoundSpec
from repro.net.message import MessageKind
from repro.net.network import NetworkModel
from repro.net.topology import StarTopology
from repro.runtime import BACKENDS, LocalRuntime
from repro.sim import CLUSTER1, SimClock, SimulatedCluster
from tests.conftest import hosting

WORKERS = 4


def substrate(backend):
    if backend == "sim":
        return SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    return LocalRuntime(WORKERS)


# ----------------------------------------------------------------------
# the four attributes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_supplies_the_four_substrate_attributes(backend):
    sub = substrate(backend)
    assert sub.n_workers == WORKERS
    assert isinstance(sub.clock, SimClock)
    assert isinstance(sub.network, NetworkModel)
    assert isinstance(sub.topology, StarTopology)
    assert sub.topology.network is sub.network
    assert sub.topology.n_workers == WORKERS


# ----------------------------------------------------------------------
# the local backend's wall clock: measured seconds on a SimClock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_accumulates(self):
        clock = LocalRuntime(2).clock
        assert clock.now() == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.25) == 1.75
        assert clock.now() == 1.75

    def test_reset(self):
        """A local run continues the cluster's time axis (``_attached``
        resets the runtime clock to the simulated load offset)."""
        clock = LocalRuntime(2).clock
        clock.reset(2.0)
        clock.advance(1.0)
        assert clock.now() == 3.0
        clock.reset()
        assert clock.now() == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LocalRuntime(2).clock.advance(-0.1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            LocalRuntime(2).clock.reset(-1.0)


# ----------------------------------------------------------------------
# the contract around the backends
# ----------------------------------------------------------------------
class _Echo:
    def handle(self, op, args, payload):
        return {}, payload


class TestRuntimeContract:
    def test_backends_names(self):
        assert BACKENDS == ("sim", "local")

    def test_context_manager_closes(self):
        with LocalRuntime(2, processes=1) as runtime:
            runtime.start(hosting({w: _Echo() for w in range(2)}))
            assert runtime.dead_workers() == []
        with pytest.raises(Exception, match="not started"):
            runtime.run_all("echo")


# ----------------------------------------------------------------------
# one comm phase, two substrates, the same messages
# ----------------------------------------------------------------------
class _CommProbe:
    """A one-phase round: ``pattern`` of ``sizes`` under ``kind``."""

    servers = 2

    def __init__(self, case, sizes):
        # a "sharded_" case spreads its pattern over the probe's servers
        self.pattern = case.replace("sharded_", "")
        self.sharded = case != self.pattern
        self.sizes = sizes

    def round_spec(self):
        return RoundSpec(
            system="probe",
            phases=(
                CommPhase(
                    "comm",
                    kind=MessageKind.MODEL_AVG,
                    pattern=self.pattern,
                    sizes="_sizes",
                    servers="servers" if self.sharded else None,
                ),
            ),
        )

    def _sizes(self, ctx):
        return self.sizes


COMM_CASES = {
    "gather": [10, 0, 30, 7],
    "broadcast": 50,
    "sharded_gather": [64] * WORKERS,
    "sharded_broadcast": 64,
    # 1001 % 4 == 1: the last ring shard carries the remainder
    "allreduce": 1001,
}


@pytest.mark.parametrize("pattern", sorted(COMM_CASES))
def test_comm_phase_logs_identical_messages_on_both_backends(pattern):
    logs, expectations = {}, {}
    for backend in BACKENDS:
        cluster = substrate("sim")
        runtime = substrate("local") if backend == "local" else None
        sub = runtime or cluster
        sub.network.keep_log = True
        probe = _CommProbe(pattern, COMM_CASES[pattern])
        outcome = RoundEngine(probe, cluster, runtime=runtime).run_round(0)
        logs[backend] = list(sub.network.log)
        expectations[backend] = outcome.expected
        count, total = outcome.expected[MessageKind.MODEL_AVG]
        assert count == len(logs[backend])
        assert total == sub.network.total_bytes()
    assert logs["local"] == logs["sim"]
    assert expectations["local"] == expectations["sim"]
