"""Exception types shared across the package.

The CLI maps these onto its stable exit codes: any :class:`SaladError`
is a validation problem (exit 3), and so is a ``MemoryError`` (a config
too large for the host); plain ``OSError`` is an I/O problem (exit 2),
and failed verification checks exit 4 without raising.
"""


class SaladError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SaladError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateRowError(SaladError, ValueError):
    """A mask row excludes every key; the mask plan is invalid."""


class BlockCountError(SaladError, ValueError):
    """Top-k selection asked for more key blocks than exist.

    No caller clamps k; like any :class:`SaladError` it exits 3.
    """


class ConfigError(SaladError, ValueError):
    """A config document, plan, or parameter bundle failed validation."""


class NumericError(SaladError, ValueError):
    """A computation produced non-finite values (overflow or NaN)."""


class DataError(SaladError, ValueError):
    """Analysis input records are missing or malformed."""


class StateError(SaladError, RuntimeError):
    """An operation needs state (such as a top-k head's queries and keys) it was not given."""
