"""Shared utilities: seeded RNG helpers, validation, and formatting."""

from repro.utils.rng import rng_from_seed
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in,
)
from repro.utils.format import format_bytes, format_duration, ascii_table

__all__ = [
    "rng_from_seed",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in",
    "format_bytes",
    "format_duration",
    "ascii_table",
]
