"""Shared utilities: seeding, validation, text tables."""

from repro.utils.seeding import as_generator, spawn_generators
from repro.utils.validation import (
    check_positive,
    check_nonnegative,
    check_in_range,
    check_type,
)
from repro.utils.tables import format_table

__all__ = [
    "as_generator",
    "spawn_generators",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_type",
    "format_table",
]
