"""Unit tests for the network model and topologies."""

import pytest

from repro.net import Message, MessageKind, NetworkModel, StarTopology
from repro.net.network import gbps


class TestMessage:
    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Message(MessageKind.CONTROL, 0, 1, -1)


class TestNetworkModel:
    def test_transfer_time_formula(self):
        net = NetworkModel(bandwidth=1e6, latency=0.01)
        assert net.transfer_time(5e5) == pytest.approx(0.51)

    def test_gbps_helper(self):
        assert gbps(1.0) == pytest.approx(1.25e8)

    def test_send_accounts_bytes(self):
        net = NetworkModel(bandwidth=1e6, latency=0.0)
        net.send(Message(MessageKind.MODEL_PULL, Message.MASTER, 0, 100))
        net.send(Message(MessageKind.GRADIENT_PUSH, 0, Message.MASTER, 50))
        assert net.total_bytes() == 150
        assert net.total_messages() == 2
        assert net.bytes_of_kind(MessageKind.MODEL_PULL) == 100
        assert net.master_bytes() == 150

    def test_reset_counters(self):
        net = NetworkModel()
        net.send(Message(MessageKind.CONTROL, 0, 1, 10))
        net.reset_counters()
        assert net.total_bytes() == 0

    def test_log_kept_only_when_enabled(self):
        net = NetworkModel()
        net.keep_log = True  # what ProtocolChecker sets
        net.send(Message(MessageKind.CONTROL, 0, 1, 10))
        assert len(net.log) == 1
        quiet = NetworkModel()
        quiet.send(Message(MessageKind.CONTROL, 0, 1, 10))
        assert quiet.log == []

    def test_snapshot(self):
        net = NetworkModel()
        net.send(Message(MessageKind.CONTROL, 0, Message.MASTER, 10))
        snap = net.snapshot()
        assert snap["total_bytes"] == 10
        assert snap["master_bytes"] == 10

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)


class TestScheduledLoss:
    """A scheduled DROP / GARBLE on ``sim``: one armed retransmit."""

    PUSH = Message(MessageKind.STATISTICS_PUSH, 2, Message.MASTER, 1000)

    def test_one_armed_loss_is_one_retry_copy(self):
        net = NetworkModel(bandwidth=1e6, latency=0.01)
        net.lose_next(2)
        assert net.send(self.PUSH) == net.transfer_time(1000)
        net.send(self.PUSH)  # the arm is spent
        assert net.messages_by_kind[MessageKind.STATISTICS_PUSH] == 2
        assert net.bytes_of_kind(MessageKind.STATISTICS_PUSH) == 2000
        assert net.messages_by_kind[MessageKind.RETRY] == 1
        assert net.bytes_of_kind(MessageKind.RETRY) == 1000
        assert net.losses == 1
        assert net.consume_extra_seconds() == net.transfer_time(1000)
        assert net.consume_extra_seconds() == 0.0

    def test_an_unarmed_network_drains_exact_zero(self):
        net = NetworkModel()
        net.send(self.PUSH)
        assert net.consume_extra_seconds() == 0.0
        assert net.losses == 0

    def test_unchecked_kinds_do_not_consume_the_arm(self):
        net = NetworkModel()
        net.lose_next(2)
        for kind in (MessageKind.HEARTBEAT, MessageKind.CHECKPOINT, MessageKind.CONTROL):
            net.send(Message(kind, 2, Message.MASTER, 10))
        net.send(Message(MessageKind.STATISTICS_BCAST, Message.MASTER, 2, 10))
        assert net.losses == 0 and net.consume_extra_seconds() == 0.0
        net.send(self.PUSH)
        assert net.losses == 1

    def test_reset_counters_disarms(self):
        net = NetworkModel()
        net.lose_next(2)
        net.reset_counters()
        net.send(self.PUSH)
        assert net.losses == 0 and net.consume_extra_seconds() == 0.0


class TestStarTopology:
    @pytest.fixture
    def star(self):
        return StarTopology(NetworkModel(bandwidth=1e6, latency=0.001), n_workers=4)

    def test_gather_serialises_at_master(self, star):
        t = star.gather(MessageKind.STATISTICS_PUSH, [1000] * 4)
        assert t == pytest.approx(0.001 + 4000 / 1e6)
        assert star.network.total_messages() == 4

    def test_broadcast_through_master_nic(self, star):
        t = star.broadcast(MessageKind.STATISTICS_BCAST, 1000)
        assert t == pytest.approx(0.001 + 4 * 1000 / 1e6)

    def test_sharded_divides_by_servers(self, star):
        full = star.gather(MessageKind.GRADIENT_PUSH, [1000] * 4)
        star.network.reset_counters()
        sharded = star.gather(MessageKind.GRADIENT_PUSH, [1000] * 4, servers=4)
        assert sharded < full
        # ... but bytes are identical — the paper's point about PS
        assert star.network.total_bytes() == 4000

    def test_sharded_broadcast(self, star):
        t1 = star.broadcast(MessageKind.MODEL_PULL, 1000, servers=2)
        t2 = 0.001 + 4 * 1000 / (2 * 1e6)
        assert t1 == pytest.approx(t2)


def allreduce(network, size, n_workers, kind=MessageKind.MODEL_AVG):
    return StarTopology(network, n_workers).allreduce(kind, size)


class TestAllReduce:
    def test_single_node_is_free(self):
        assert allreduce(NetworkModel(), 1000, 1) == 0.0

    def test_ring_cost_formula(self):
        net = NetworkModel(bandwidth=1e6, latency=0.001)
        t = allreduce(net, 8000, 4)
        steps = 2 * 3
        assert t == pytest.approx(steps * 0.001 + steps * 2000 / 1e6)

    def test_bandwidth_term_nearly_size_independent_of_k(self):
        """Ring AllReduce moves ~2*size regardless of K (for K large)."""
        net = NetworkModel(bandwidth=1e6, latency=0.0)
        t4 = allreduce(net, 1_000_000, 4)
        t8 = allreduce(net, 1_000_000, 8)
        assert t8 / t4 == pytest.approx((2 * 7 / 8) / (2 * 3 / 4), rel=1e-6)

    def test_sends_under_the_given_kind(self):
        net = NetworkModel()
        allreduce(net, 1000, 4, kind=MessageKind.CHECKPOINT)
        assert net.messages_by_kind == {MessageKind.CHECKPOINT: 6}
