"""Tests for checkpoint save/load."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.io import load_model, save_model


class TestCheckpointRoundTrip:
    def test_roundtrip_vector(self, tmp_path, rng):
        params = rng.normal(size=50)
        path = tmp_path / "model.npz"
        save_model(path, "lr", params, metadata={"dataset": "avazu", "lr": 10.0})
        name, loaded, meta = load_model(path)
        assert name == "lr"
        assert np.array_equal(loaded, params)
        assert meta == {"dataset": "avazu", "lr": 10.0}

    def test_roundtrip_matrix(self, tmp_path, rng):
        params = rng.normal(size=(20, 5))
        save_model(tmp_path / "fm.npz", "fm", params)
        name, loaded, meta = load_model(tmp_path / "fm.npz")
        assert name == "fm"
        assert loaded.shape == (20, 5)
        assert meta == {}

    def test_extension_added_by_numpy_is_found(self, tmp_path, rng):
        # np.savez appends .npz when missing; load_model should cope.
        save_model(tmp_path / "model", "lr", rng.normal(size=3))
        name, _, _ = load_model(tmp_path / "model")
        assert name == "lr"

    def test_reserved_metadata_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_model(tmp_path / "m.npz", "lr", np.zeros(3),
                       metadata={"model_name": "x"})

    def test_non_checkpoint_rejected(self, tmp_path):
        np.savez(str(tmp_path / "junk.npz"), stuff=np.zeros(3))
        with pytest.raises(DataError):
            load_model(tmp_path / "junk.npz")
