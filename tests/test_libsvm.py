"""Unit tests for the LIBSVM reader/writer."""

import io

import numpy as np
import pytest

from repro.datasets import make_classification, read_libsvm, write_libsvm
from repro.datasets.libsvm import iter_libsvm
from repro.errors import LibsvmFormatError


SAMPLE = """\
+1 1:0.5 3:1.5
-1 2:2.0
+1 1:1.0 2:1.0 4:4.0
"""


class TestRead:
    def test_one_based_autodetect(self):
        data = read_libsvm(io.StringIO(SAMPLE))
        assert data.n_rows == 3
        assert data.n_features == 4
        assert data.labels.tolist() == [1.0, -1.0, 1.0]
        assert data.features.row(0).indices.tolist() == [0, 2]

    def test_zero_based_autodetect(self):
        text = "1 0:1.0 2:1.0\n-1 1:2.0\n"
        data = read_libsvm(io.StringIO(text))
        assert data.n_features == 3
        assert data.features.row(0).indices.tolist() == [0, 2]

    def test_explicit_n_features(self):
        data = read_libsvm(io.StringIO(SAMPLE), n_features=10)
        assert data.n_features == 10

    def test_n_features_too_small(self):
        with pytest.raises(ValueError):
            read_libsvm(io.StringIO(SAMPLE), n_features=2)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n+1 1:1.0 # trailing\n"
        data = read_libsvm(io.StringIO(text))
        assert data.n_rows == 1

    def test_empty_file(self):
        data = read_libsvm(io.StringIO(""))
        assert data.n_rows == 0
        assert data.n_features == 0

    def test_bad_label(self):
        with pytest.raises(LibsvmFormatError, match="label"):
            list(iter_libsvm(io.StringIO("abc 1:1\n")))

    def test_missing_colon(self):
        with pytest.raises(LibsvmFormatError, match="':'"):
            list(iter_libsvm(io.StringIO("1 12\n")))

    def test_bad_value(self):
        with pytest.raises(LibsvmFormatError):
            list(iter_libsvm(io.StringIO("1 1:x\n")))

    def test_negative_index(self):
        with pytest.raises(LibsvmFormatError, match="negative"):
            list(iter_libsvm(io.StringIO("1 -2:1.0\n")))

    def test_error_carries_line_number(self):
        try:
            list(iter_libsvm(io.StringIO("1 1:1\nbad 1:1\n")))
        except LibsvmFormatError as err:
            assert err.line_number == 2
        else:
            pytest.fail("expected LibsvmFormatError")


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        data = make_classification(50, 30, seed=13)
        path = tmp_path / "data.libsvm"
        write_libsvm(data, path)
        loaded = read_libsvm(path, n_features=30)
        assert loaded.n_rows == data.n_rows
        assert np.array_equal(loaded.labels, data.labels)
        assert loaded.features == data.features

    def test_file_path_round_trip(self, tmp_path):
        data = make_classification(10, 8, seed=15)
        path = str(tmp_path / "x.txt")
        write_libsvm(data, path)
        assert read_libsvm(path, n_features=8).n_rows == 10


class TestGzipTransparency:
    """Paths ending in .gz read and write through gzip automatically."""

    def test_round_trip(self, tmp_path):
        data = make_classification(25, 12, seed=21)
        path = str(tmp_path / "data.libsvm.gz")
        write_libsvm(data, path)
        loaded = read_libsvm(path, n_features=12)
        assert loaded.features == data.features
        np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_file_really_is_gzip(self, tmp_path):
        data = make_classification(5, 6, seed=22)
        path = tmp_path / "data.gz"
        write_libsvm(data, str(path))
        with open(path, "rb") as handle:
            magic = handle.read(2)
        assert magic == b"\x1f\x8b"

    def test_iter_streams_compressed(self, tmp_path):
        data = make_classification(8, 5, seed=23)
        path = str(tmp_path / "rows.gz")
        write_libsvm(data, path)
        rows = list(iter_libsvm(path))
        assert len(rows) == 8
        label, indices, values = rows[0]
        assert indices.size == values.size

    def test_plain_path_still_plain(self, tmp_path):
        data = make_classification(5, 6, seed=24)
        path = tmp_path / "plain.txt"
        write_libsvm(data, str(path))
        with open(path, "rb") as handle:
            assert handle.read(2) != b"\x1f\x8b"
