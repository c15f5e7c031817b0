"""Heartbeats, checkpoints, and the RecoveryManager (repro.core.recovery)."""

import os
import zlib

import numpy as np
import pytest

from repro.core import (
    ColumnSGDConfig,
    ColumnSGDDriver,
    RecoveryPolicy,
)
from repro.core.recovery import (
    HEARTBEAT_TIMEOUT_BEATS,
    CheckpointStore,
    restore_partition,
    snapshot_partition,
)
from repro.core.worker import PartitionState
from repro.errors import ConfigurationError, DataError, MasterFailedError
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.models import LogisticRegression
from repro.net import MessageKind
from repro.optim import SGD, AdaGrad, Adam
from repro.sim import CLUSTER1, SimulatedCluster
from repro.storage.serialization import OBJECT_OVERHEAD_BYTES


def make_driver(data, backup=0, recovery=None, failures=None, iterations=20,
                optimizer=None, **config):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    config = ColumnSGDConfig(
        batch_size=64, iterations=iterations, eval_every=0, seed=9,
        block_size=64, backup=backup, **config,
    )
    driver = ColumnSGDDriver(
        LogisticRegression(), optimizer or SGD(1.0), cluster, config=config,
        failures=failures, recovery=recovery,
    )
    driver.load(data)
    return driver


class TestRecoveryPolicy:
    def test_disabled_is_free(self):
        policy = RecoveryPolicy()
        assert policy.checkpoint_every == 0
        assert policy.detection_delay_s == 0.0
        assert not policy.master_restart

    def test_detection_delay(self):
        policy = RecoveryPolicy(heartbeat_interval_s=0.5)
        assert policy.detection_delay_s == pytest.approx(0.5 * HEARTBEAT_TIMEOUT_BEATS)

    def test_master_restart_requires_checkpoints(self):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(master_restart=True)
        RecoveryPolicy(checkpoint_every=5, master_restart=True)  # fine


class TestCheckpointStore:
    def test_periodic_writes(self, tiny_binary):
        driver = make_driver(
            tiny_binary, recovery=RecoveryPolicy(checkpoint_every=5), iterations=11
        )
        driver.fit()
        store = driver.recovery_manager.checkpoints
        assert store.writes == 4 * 3  # 4 partitions x iterations 0, 5, 10
        assert store.last_iteration == 10
        assert all(store.has_snapshot(p) for p in range(4))

    def test_checkpoint_traffic_is_unchecked_kind(self, tiny_binary):
        driver = make_driver(
            tiny_binary, recovery=RecoveryPolicy(checkpoint_every=5), iterations=6
        )
        driver.fit()
        assert driver.cluster.network.bytes_of_kind(MessageKind.CHECKPOINT) > 0

    @pytest.mark.parametrize("optimizer", [SGD(1.0), Adam(0.05)], ids=["sgd", "adam"])
    def test_checkpoint_bytes_are_the_records(self, tiny_binary, optimizer):
        """The simulated charge is what the store holds: each record as
        one framed object, whatever state the optimizer keeps."""
        driver = make_driver(
            tiny_binary, recovery=RecoveryPolicy(checkpoint_every=2),
            iterations=7, optimizer=optimizer,
        )
        driver.fit()
        store = driver.recovery_manager.checkpoints
        assert store.writes == 4 * 4  # 4 partitions x iterations 0, 2, 4, 6
        assert driver.cluster.network.bytes_of_kind(MessageKind.CHECKPOINT) == (
            store.bytes_written + store.writes * OBJECT_OVERHEAD_BYTES
        )

    def test_write_charges_time(self, tiny_binary):
        with_cp = make_driver(
            tiny_binary, recovery=RecoveryPolicy(checkpoint_every=1), iterations=5
        )
        without = make_driver(tiny_binary, iterations=5)
        charged = with_cp.fit().total_sim_time
        free = without.fit().total_sim_time
        assert charged > free

    def test_snapshot_is_a_copy(self, tiny_binary):
        driver = make_driver(
            tiny_binary, recovery=RecoveryPolicy(checkpoint_every=5), iterations=6
        )
        driver.fit()
        store = driver.recovery_manager.checkpoints
        before = store.read(0)
        driver._partitions[0].params[...] = 123.0
        assert store.read(0) == before


class TestHeartbeats:
    def test_heartbeat_traffic(self, tiny_binary):
        driver = make_driver(
            tiny_binary,
            recovery=RecoveryPolicy(heartbeat_interval_s=0.05),
            iterations=5,
        )
        driver.fit()
        net = driver.cluster.network
        assert net.bytes_of_kind(MessageKind.HEARTBEAT) > 0

    def test_detection_delay_charged_on_recovery(self, tiny_binary):
        slow = make_driver(
            tiny_binary,
            recovery=RecoveryPolicy(heartbeat_interval_s=0.5),
            failures=FaultSchedule([FaultEvent(3, FaultKind.WORKER, 1)]),
        )
        fast = make_driver(
            tiny_binary,
            failures=FaultSchedule([FaultEvent(3, FaultKind.WORKER, 1)]),
        )
        slow_t = slow.fit().total_sim_time
        fast_t = fast.fit().total_sim_time
        # heartbeat probes ride the RPC fabric for free, so the gap is
        # exactly the 0.5 s x 3 beats of detection delay
        assert slow_t - fast_t == pytest.approx(1.5)


    def test_heartbeats_are_rejected_on_local(self):
        """The local backend has no heartbeat detector to honour the
        interval with: its detection is the transport's deadline."""
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(ConfigurationError, match="heartbeat"):
            ColumnSGDDriver(
                LogisticRegression(), SGD(1.0), cluster,
                config=ColumnSGDConfig(backend="local"),
                recovery=RecoveryPolicy(heartbeat_interval_s=0.1),
            )


class TestStruckWorkerWritesNothing:
    """A worker struck at the top of a checkpoint round writes nothing
    in that round (``Trainer._handle_failures``), on the simulator too."""

    @staticmethod
    def logged_writes(driver):
        """Record every ``(round, partition, record)`` the store takes."""
        store, writes = driver.recovery_manager.checkpoints, []
        write = store.write

        def logged(t, pid, record):
            writes.append((t, pid, record))
            write(t, pid, record)

        store.write = logged
        return writes

    def test_backup0_victim_keeps_its_previous_record(self, tiny_binary):
        driver = make_driver(
            tiny_binary, recovery=RecoveryPolicy(checkpoint_every=2), iterations=5,
            failures=FaultSchedule([FaultEvent(4, FaultKind.WORKER, 1)]),
        )
        writes = self.logged_writes(driver)
        driver.fit()
        assert [pid for t, pid, _ in writes if t == 4] == [0, 2, 3]
        (previous,) = [record for t, pid, record in writes if (t, pid) == (2, 1)]
        assert driver.recovery_manager.checkpoints.read(1) == previous

    def test_backup1_victim_partitions_are_written_by_its_peer(self, tiny_binary):
        driver = make_driver(
            tiny_binary, backup=1, recovery=RecoveryPolicy(checkpoint_every=2),
            iterations=5, failures=FaultSchedule([FaultEvent(4, FaultKind.WORKER, 0)]),
        )
        driver.cluster.network.keep_log = True
        writes = self.logged_writes(driver)
        driver.fit()
        assert [pid for t, pid, _ in writes if t == 4] == [0, 1, 2, 3]
        spilled = [
            m for m in driver.cluster.network.log if m.kind is MessageKind.CHECKPOINT
        ]
        # round 4's four records, one per partition; worker 0's group
        # (partitions 0 and 1) is written by worker 1
        assert [m.src for m in spilled[-4:]] == [1, 1, 2, 2]

    def test_zero_init_strike_then_master_restart_replays_from_zeros(
        self, tiny_binary
    ):
        """Struck at checkpoint round 0 with no record to restore,
        partition 1 has no round-0 record either; a restart from round 0
        zero-initialises it again and replays to the same model."""
        strike = FaultEvent(0, FaultKind.WORKER, 1)
        policy = RecoveryPolicy(checkpoint_every=5, master_restart=True)
        only_strike = make_driver(
            tiny_binary, recovery=policy, iterations=8,
            failures=FaultSchedule([strike]),
        ).fit()
        restarted = make_driver(
            tiny_binary, recovery=policy, iterations=8,
            failures=FaultSchedule([strike, FaultEvent(3, FaultKind.MASTER)]),
        ).fit()
        assert np.array_equal(only_strike.final_params, restarted.final_params)


class TestRecoverWorkerModes:
    def test_replica_mode_loses_nothing(self, tiny_binary):
        driver = make_driver(tiny_binary, backup=1)
        driver.fit(iterations=5)
        before = driver.current_params()
        driver.recovery_manager.recover_worker(1, iteration=5)
        assert np.array_equal(driver.current_params(), before)
        event = driver.cluster.engine_trace.recoveries[-1]
        assert event.mode == "replica"

    def test_checkpoint_mode_restores_snapshot(self, tiny_binary):
        driver = make_driver(
            tiny_binary, recovery=RecoveryPolicy(checkpoint_every=4), iterations=6
        )
        driver.fit()
        store = driver.recovery_manager.checkpoints
        owned = driver.groups.partitions_of_worker(1)
        snapshots = {}
        for p in owned:
            scratch = PartitionState(
                partition_id=p, store=None, columns=None,
                params=np.empty_like(driver._partitions[p].params),
                optimizer=SGD(1.0),
            )
            assert restore_partition(scratch, store.read(p)) == "checkpoint"
            snapshots[p] = scratch.params
        driver.recovery_manager.recover_worker(1, iteration=6)
        for p in owned:
            assert np.array_equal(driver._partitions[p].params, snapshots[p])
        assert driver.cluster.engine_trace.recoveries[-1].mode == "checkpoint"

    def test_zero_init_fallback(self, tiny_binary):
        driver = make_driver(tiny_binary)
        driver.fit(iterations=5)
        driver.recovery_manager.recover_worker(1, iteration=5)
        for p in driver.groups.partitions_of_worker(1):
            assert not driver._partitions[p].params.any()
        assert driver.cluster.engine_trace.recoveries[-1].mode == "zero-init"

    def test_recovery_seconds_positive(self, tiny_binary):
        driver = make_driver(tiny_binary)
        driver.fit(iterations=2)
        assert driver.recovery_manager.recover_worker(2) > 0.0


class TestMasterRestart:
    def test_no_checkpoint_still_aborts(self, tiny_binary):
        driver = make_driver(
            tiny_binary, failures=FaultSchedule([FaultEvent(3, FaultKind.MASTER)])
        )
        with pytest.raises(MasterFailedError):
            driver.fit()

    def test_restart_before_first_checkpoint_aborts(self, tiny_binary):
        # policy allows restart, but the crash can also be engineered
        # before iteration 0's checkpoint only via a fresh manager
        driver = make_driver(
            tiny_binary,
            recovery=RecoveryPolicy(checkpoint_every=5, master_restart=True),
        )
        driver.recovery_manager.checkpoints.last_iteration = None
        with pytest.raises(MasterFailedError):
            driver.recovery_manager.recover_master(3, engine=None)

    def test_restart_replays_to_exact_trajectory(self, tiny_binary):
        """Restart + deterministic replay reproduces the clean run."""
        clean = make_driver(tiny_binary).fit()
        recovered = make_driver(
            tiny_binary,
            recovery=RecoveryPolicy(checkpoint_every=5, master_restart=True),
            failures=FaultSchedule([FaultEvent(13, FaultKind.MASTER)]),
        ).fit()
        assert np.allclose(
            clean.final_params, recovered.final_params, atol=1e-12
        )

    def test_restart_charges_reload_and_replay(self, tiny_binary):
        driver = make_driver(
            tiny_binary,
            recovery=RecoveryPolicy(checkpoint_every=5, master_restart=True),
            failures=FaultSchedule([FaultEvent(13, FaultKind.MASTER)]),
        )
        driver.fit()
        events = [
            e for e in driver.cluster.engine_trace.recoveries if e.kind == "master"
        ]
        assert len(events) == 1
        event = events[0]
        assert event.mode == "restart"
        assert event.reload_s > 0.0
        assert event.replay_s > 0.0  # iterations 10..12 replayed
        assert event.total_s == pytest.approx(
            event.detect_s + event.reload_s + event.replay_s
        )

    def test_checkpointed_run_costs_what_it_always_did(self, tiny_binary):
        """Simulated seconds and CHECKPOINT bytes of a checkpointed run
        with a master restart, pinned bit-for-bit: snapshots are charged
        as the records themselves (one framed object each), and so are
        the four records the restart reads back (4 x 776 B)."""
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        driver = ColumnSGDDriver(
            LogisticRegression(), AdaGrad(1.0), cluster,
            config=ColumnSGDConfig(
                batch_size=64, iterations=20, eval_every=0, seed=9, block_size=64
            ),
            failures=FaultSchedule([FaultEvent(13, FaultKind.MASTER)]),
            recovery=RecoveryPolicy(checkpoint_every=5, master_restart=True),
        )
        driver.load(tiny_binary)
        result = driver.fit()
        assert result.total_sim_time.hex() == "0x1.3960007da0b72p+0"
        assert cluster.network.bytes_of_kind(MessageKind.CHECKPOINT) == 28064
        assert float(np.abs(result.final_params).sum()) == 150.8468682264118


# ----------------------------------------------------------------------
# master restart replays through the engine (RoundEngine.run_round(replay=True))
# ----------------------------------------------------------------------
RESTART = RecoveryPolicy(checkpoint_every=5, master_restart=True)
STATISTICS = (MessageKind.STATISTICS_PUSH, MessageKind.STATISTICS_BCAST)


def checked_driver(data, backup, **kwargs):
    return make_driver(data, backup, check_protocol=True, **kwargs)


@pytest.mark.parametrize("backup", [0, 1])
class TestEngineReplay:
    def test_checked_restart_is_bit_identical_to_the_clean_run(
        self, tiny_binary, backup
    ):
        """Replay runs inside the protocol checker's round window."""
        clean = checked_driver(tiny_binary, backup).fit()
        recovered = checked_driver(
            tiny_binary, backup, recovery=RESTART,
            failures=FaultSchedule([FaultEvent(12, FaultKind.MASTER)]),
        ).fit()
        assert np.array_equal(clean.final_params, recovered.final_params)
        assert recovered.total_sim_time > clean.total_sim_time

    def test_replay_costs_what_the_replayed_rounds_cost(self, tiny_binary, backup):
        """``replay_s`` is the duration of rounds 10 and 11 as a fault-free,
        checkpoint-free run charges them.  The driver's hand-written copy
        of the round sent K pushes where ``BackupSync`` sends one per
        group, so with ``backup=1`` it charged more than the real thing."""
        clean = checked_driver(tiny_binary, backup)
        durations = [clean.run_round(t).duration for t in range(12)]
        driver = checked_driver(
            tiny_binary, backup, recovery=RESTART,
            failures=FaultSchedule([FaultEvent(12, FaultKind.MASTER)]),
        )
        driver.fit()
        (event,) = driver.cluster.engine_trace.recoveries
        assert (event.kind, event.round) == ("master", 12)
        assert event.replay_s == 0.0 + durations[10] + durations[11]

    def test_replay_leaves_no_trace(self, tiny_binary, backup):
        """No PhaseEvent, no retry episode, no checked-kind traffic: a
        replayed round is CHECKPOINT chatter and seconds, nothing else —
        even when a dead worker makes TimeoutSync expire every round."""
        driver = checked_driver(
            tiny_binary, backup, recovery=RESTART,
            sync_policy="timeout",
        )
        driver.fit(iterations=12)  # snapshots at 0, 5, 10
        driver.kill_worker(1)
        driver.run_round(12)
        trace, network = driver.cluster.engine_trace, driver.cluster.network
        assert trace.round_retries(12)  # worker 1 is missed at the deadline
        before = (
            len(trace), list(trace.retries),
            [network.bytes_of_kind(kind) for kind in STATISTICS],
            network.bytes_of_kind(MessageKind.RETRY),
        )
        checkpoint_bytes = network.bytes_of_kind(MessageKind.CHECKPOINT)
        victims = {t: driver.straggler.victims(t) for t in (10, 11)}

        replay_s = driver.recovery_manager.recover_master(12, driver._engine)

        assert replay_s > 0.0
        assert before == (
            len(trace), list(trace.retries),
            [network.bytes_of_kind(kind) for kind in STATISTICS],
            network.bytes_of_kind(MessageKind.RETRY),
        )
        assert network.bytes_of_kind(MessageKind.CHECKPOINT) > checkpoint_bytes
        assert victims == {t: driver.straggler.victims(t) for t in (10, 11)}
        assert trace.rounds() == list(range(13))  # one appearance each


# ----------------------------------------------------------------------
# the snapshot record: one format, never executable, self-checking
# ----------------------------------------------------------------------
def crc_trailer(record):
    """The 4 bytes a spilled checkpoint file holds after its record."""
    return zlib.crc32(record).to_bytes(4, "little")


def stepped_state(optimizer, steps, shape=(6, 3)):
    rng = np.random.default_rng(4)
    state = PartitionState(
        partition_id=0, store=None, columns=None,
        params=rng.normal(size=shape), optimizer=optimizer,
    )
    for _ in range(steps):
        optimizer.step(state.params, rng.normal(size=shape))
    return state


OPTIMIZERS = {
    "sgd": lambda: SGD(0.5),
    "adagrad": lambda: AdaGrad(0.5),
    "adam": lambda: Adam(0.05),
}


class TestSnapshotRecord:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("steps", [0, 4])
    def test_restore_equals_live_state(self, name, steps):
        """A restored partition continues exactly like the live one —
        including Adam's step count, which only the record carries."""
        live = stepped_state(OPTIMIZERS[name](), steps)
        restored = stepped_state(OPTIMIZERS[name](), 1, shape=live.params.shape)
        assert restore_partition(restored, snapshot_partition(live)) == "checkpoint"
        assert np.array_equal(restored.params, live.params)
        gradient = np.random.default_rng(8).normal(size=live.params.shape)
        for _ in range(3):
            live.optimizer.step(live.params, gradient)
            restored.optimizer.step(restored.params, gradient)
        assert np.array_equal(restored.params, live.params)

    def test_restored_state_is_a_copy(self):
        live = stepped_state(AdaGrad(0.5), 3)
        restored = stepped_state(AdaGrad(0.5), 0)
        restore_partition(restored, snapshot_partition(live))
        before = np.array(live.optimizer.state_arrays()[0], copy=True)
        restored.optimizer.step(restored.params, np.ones_like(restored.params))
        assert np.array_equal(live.optimizer.state_arrays()[0], before)

    def test_no_record_is_zero_init(self):
        state = stepped_state(Adam(0.05), 3)
        assert restore_partition(state, None) == "zero-init"
        assert not state.params.any()
        assert state.optimizer.state_arrays() == []

    def test_record_is_codec_payloads_only(self):
        """Every byte of a record is a wire-codec payload: the layout
        header's arithmetic accounts for the whole length."""
        from repro.storage.serialization import dense_vector_bytes, int_vector_bytes

        record = snapshot_partition(stepped_state(Adam(0.05), 3, shape=(6, 3)))
        # layout: n_arrays + (ndim, 6, 3) x (params, m, v) + (ndim, 1) for t
        assert len(record) == (
            int_vector_bytes(1 + 3 * 3 + 2)
            + 3 * dense_vector_bytes(18)
            + dense_vector_bytes(1)
        )
        assert b"pickle" not in record and not record.startswith(b"\x80")

    def test_shape_mismatch_is_rejected(self):
        record = snapshot_partition(stepped_state(SGD(0.5), 1, shape=(6, 3)))
        with pytest.raises(DataError, match="shape"):
            restore_partition(stepped_state(SGD(0.5), 0, shape=(5, 3)), record)


class TestCheckpointStoreFiles:
    """CheckpointStore.read trusts nothing it did not verify."""

    @pytest.fixture(params=["memory", "disk"])
    def store(self, request, tmp_path):
        return CheckpointStore(str(tmp_path) if request.param == "disk" else None)

    def test_roundtrip_on_both_media(self, store):
        record = snapshot_partition(stepped_state(AdaGrad(0.5), 2))
        store.write(4, 7, record)
        assert store.read(7) == record
        assert store.last_iteration == 4
        assert store.bytes_written == len(record)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda r: r[:-1],                        # truncated tail
            lambda r: r[:40],                        # truncated inside the header
            lambda r: r + b"\x00",                   # trailing garbage
            lambda r: b"X" + r[1:],                  # flipped magic byte
            lambda r: r[:8] + bytes([r[8] ^ 1]) + r[9:],   # layout count
            lambda r: r[:64] + bytes([r[64] ^ 2]) + r[65:],  # n_arrays
            lambda r: r[:72] + bytes([r[72] ^ 4]) + r[73:],  # params ndim
            lambda r: r[:5] + b"\x01" + r[6:],       # payload type code
            lambda r: r[:15] + bytes([r[15] ^ 0x80]) + r[16:],  # count MSB
        ],
        ids=["cut-tail", "cut-header", "trailing", "magic", "count",
             "n-arrays", "ndim", "type", "count-msb"],
    )
    def test_damaged_file_raises_data_error(self, tmp_path, damage):
        """Each damaged record sits behind a forged, valid CRC32 trailer,
        so what refuses it is the record's own structure check."""
        store = CheckpointStore(str(tmp_path))
        record = snapshot_partition(stepped_state(Adam(0.05), 3))
        store.write(2, 0, record)
        path = tmp_path / "p00000.ckpt"
        assert path.read_bytes() == record + crc_trailer(record)
        damaged = damage(record)
        path.write_bytes(damaged + crc_trailer(damaged))
        with pytest.raises(DataError, match="corrupt snapshot record"):
            store.read(0)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda f: f[:-5] + f[-4:],                # a record byte gone
            lambda f: f[:-1] + bytes([f[-1] ^ 1]),    # a trailer bit
            lambda f: f[:-4],                         # no trailer
            lambda f: f[:3],                          # shorter than a trailer
            lambda f: b"",                            # empty
        ],
        ids=["record-cut", "trailer-bit", "no-trailer", "short", "empty"],
    )
    def test_a_file_that_fails_its_crc_raises_data_error(self, tmp_path, damage):
        store = CheckpointStore(str(tmp_path))
        store.write(2, 0, snapshot_partition(stepped_state(Adam(0.05), 3)))
        path = tmp_path / "p00000.ckpt"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match="corrupt snapshot file"):
            store.read(0)

    def test_a_flipped_param_byte_is_caught_by_the_crc(self, tmp_path):
        """One flipped bit turns a written 4.0 into 4.0625, which the
        record's own arithmetic cannot see; the file's trailer can."""
        def state(value):
            return PartitionState(
                partition_id=0, store=None, columns=None,
                params=np.full(3, value), optimizer=SGD(0.5),
            )

        record = snapshot_partition(state(4.0))
        at = record.index(np.float64(4.0).tobytes()) + 5
        damaged = record[:at] + bytes([record[at] ^ 0x40]) + record[at + 1:]
        restored = state(0.0)
        restore_partition(restored, damaged)
        assert restored.params.tolist() == [4.0625, 4.0, 4.0]
        store = CheckpointStore(str(tmp_path))
        store.write(2, 0, record)
        path = tmp_path / "p00000.ckpt"
        path.write_bytes(damaged + path.read_bytes()[-4:])
        with pytest.raises(DataError, match="CRC32"):
            store.read(0)

    def test_crash_between_tmp_write_and_replace_keeps_last_good(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        record = snapshot_partition(stepped_state(SGD(0.5), 1))
        store.write(2, 0, record)
        (tmp_path / "p00000.ckpt.tmp").write_bytes(b"half a rec")
        assert store.read(0) == record
        store.write(4, 0, record)  # a later spill reuses the tmp name
        assert store.read(0) == record and store.last_iteration == 4

    def test_write_killed_at_replace_keeps_last_good(self, tmp_path, monkeypatch):
        store = CheckpointStore(str(tmp_path))
        good = snapshot_partition(stepped_state(SGD(0.5), 1))
        store.write(2, 0, good)
        before = (store.read(0), store.last_iteration, store.writes,
                  store.bytes_written)

        def killed(src, dst):
            raise OSError("killed before the rename")

        newer = snapshot_partition(stepped_state(SGD(0.5), 3))
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", killed)
            with pytest.raises(OSError, match="killed"):
                store.write(4, 0, newer)
        assert before == (store.read(0), store.last_iteration, store.writes,
                          store.bytes_written)
        store.write(6, 0, newer)
        assert store.read(0) == newer and store.last_iteration == 6
        assert store.writes == 2
