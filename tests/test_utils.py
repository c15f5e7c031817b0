"""Unit tests for repro.utils (rng, validation, formatting)."""

import numpy as np
import pytest

from repro.utils import (
    ascii_table,
    check_in,
    check_non_negative,
    check_positive,
    check_probability,
    format_bytes,
    format_duration,
    rng_from_seed,
)
from repro.utils.rng import iteration_seed


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(42).random(5)
        b = rng_from_seed(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert rng_from_seed(gen) is gen

    def test_iteration_seed_deterministic(self):
        assert iteration_seed(5, 10) == iteration_seed(5, 10)

    def test_iteration_seed_varies_with_iteration(self):
        seeds = {iteration_seed(5, t) for t in range(100)}
        assert len(seeds) == 100

    def test_iteration_seed_varies_with_base(self):
        assert iteration_seed(1, 0) != iteration_seed(2, 0)


class TestValidation:
    def test_check_positive(self):
        check_positive(1, "x")
        check_positive(0.5, "x")
        for bad in (0, -1, float("nan"), float("inf"), "1", True, None):
            with pytest.raises(ValueError):
                check_positive(bad, "x")

    def test_check_non_negative(self):
        check_non_negative(0, "x")
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_probability(self):
        check_probability(0.0, "p")
        check_probability(1.0, "p")
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                check_probability(bad, "p")

    def test_check_in(self):
        check_in("a", ("a", "b"), "mode")
        with pytest.raises(ValueError, match="mode"):
            check_in("c", ("a", "b"), "mode")


class TestFormat:
    def test_format_bytes_ladder(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KB"
        assert format_bytes(3 * 1024 ** 3) == "3.00 GB"

    def test_format_duration_ladder(self):
        assert format_duration(5e-5) == "50 us"
        assert format_duration(0.02) == "20.0 ms"
        assert format_duration(1.5) == "1.50 s"
        assert format_duration(200) == "3m20s"

    def test_format_duration_negative(self):
        assert format_duration(-1.5) == "-1.50 s"

    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "bb"], [["x", 1], ["yy", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        assert "-+-" in lines[1]

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [["x", "y"]])
