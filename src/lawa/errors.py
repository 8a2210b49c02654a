"""Exception types shared across the toolkit.

Exit-code mapping for the CLI: config/usage/data problems are
``ConfigError``-like (exit 2), numerical failures during a run are
``NonFiniteError``-like (exit 1).
"""


class LawaError(Exception):
    """Base class for all toolkit errors."""


class StructureMismatch(LawaError):
    """Two parameter sets differ in names, order, shapes, or element type."""


class NonFiniteError(LawaError):
    """A NaN or Inf value reached an operation that requires finite inputs."""


class NonFiniteGradError(NonFiniteError):
    """An optimizer received a gradient entry containing NaN or Inf."""


class IoError(LawaError):
    """Reading or writing a file failed at the OS level."""


class FormatError(LawaError):
    """A checkpoint file is malformed. ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class EpochOrderError(LawaError):
    """A checkpoint was pushed out of epoch order."""


class ConfigError(LawaError):
    """Invalid configuration value."""


class InternalStateError(LawaError):
    """Averaging state is inconsistent with the training position."""


class ShapeError(LawaError):
    """A batch or tensor shape does not match the model architecture."""


class EmptyDataError(LawaError):
    """An operation that needs data received an empty dataset."""


class SchemaError(LawaError):
    """A CSV file does not have the expected columns or label values."""


class ParseError(LawaError):
    """A text file is not UTF-8, or a CSV cell is not a number it may hold."""


class InsufficientCheckpoints(LawaError):
    """A directory holds fewer checkpoint files than the averaging window."""


class ConfigWarning(UserWarning):
    """Configuration is legal but known to behave poorly."""
