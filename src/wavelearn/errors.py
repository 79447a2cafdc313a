"""Exception hierarchy shared across the package."""


class WavelearnError(Exception):
    """Base class for all package errors."""


class DimensionError(WavelearnError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class InputTooShortError(WavelearnError, ValueError):
    """A signal or feature map is too short to produce any output."""


class ContractError(WavelearnError, RuntimeError):
    """An API precondition was violated by the caller."""


class ConfigError(WavelearnError, ValueError):
    """A configuration value is invalid or inconsistent."""


class DatasetError(WavelearnError, ValueError):
    """A dataset, manifest, or split is malformed or unusable."""


class LabelError(WavelearnError, ValueError):
    """A class label is unknown or out of range."""


class ParseError(WavelearnError, ValueError):
    """A file could not be read or parsed; the message names the file and any byte offset."""


class FormatError(WavelearnError, ValueError):
    """A file uses an encoding or rate this package does not support."""


class NumericalError(WavelearnError, RuntimeError):
    """A non-finite value appeared in an input or during optimization."""
