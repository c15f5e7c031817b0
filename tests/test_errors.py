"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    DataError,
    DimensionMismatchError,
    LibsvmFormatError,
    MasterFailedError,
    OutOfMemoryError,
    PartitionError,
    ReproError,
    SimulationError,
    StatisticsRecoveryError,
    TrainingError,
    WorkerFailedError,
)


class TestHierarchy:
    def test_single_base_class(self):
        for exc in (
            DataError, PartitionError, SimulationError, TrainingError,
            DimensionMismatchError, LibsvmFormatError, WorkerFailedError,
            MasterFailedError, OutOfMemoryError, StatisticsRecoveryError,
        ):
            assert issubclass(exc, ReproError)

    def test_subhierarchies(self):
        assert issubclass(LibsvmFormatError, DataError)
        assert issubclass(WorkerFailedError, SimulationError)
        assert issubclass(OutOfMemoryError, SimulationError)


class TestMessages:
    def test_libsvm_error_carries_context(self):
        err = LibsvmFormatError(7, "bad line content", "no colon")
        assert err.line_number == 7
        assert "line 7" in str(err)
        assert "no colon" in str(err)

    def test_libsvm_error_truncates_long_lines(self):
        err = LibsvmFormatError(1, "x" * 500, "too long")
        assert len(str(err)) < 200

    def test_dimension_mismatch(self):
        err = DimensionMismatchError((3,), (4,), "model shape")
        assert "model shape" in str(err)
        assert err.expected == (3,)

    def test_oom_reports_gb(self):
        err = OutOfMemoryError("worker 3", int(40e9), int(32e9))
        assert "40.00 GB" in str(err)
        assert "32.00 GB" in str(err)

    def test_worker_failed(self):
        assert WorkerFailedError(5).worker_id == 5

    def test_statistics_recovery_lists_groups(self):
        err = StatisticsRecoveryError([1, 3])
        assert err.missing_groups == (1, 3)
        assert "[1, 3]" in str(err)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise WorkerFailedError(0)
