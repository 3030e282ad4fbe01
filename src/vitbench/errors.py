"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(ToolkitError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigurationError(ToolkitError):
    """A configuration value is invalid or inconsistent."""


class ContractError(ToolkitError):
    """An API contract was violated by the caller."""


class LabelError(ToolkitError):
    """A class label is out of range for the dataset."""


class FormatError(ToolkitError):
    """A file or byte stream does not match its declared format."""


class RangeError(ToolkitError):
    """A decoded value lies outside its permitted range."""


class ValidationError(ToolkitError):
    """A manifest or checkpoint failed validation."""


class EmptyDatasetError(ToolkitError):
    """An operation that needs data received an empty dataset."""


class TrainingError(ToolkitError):
    """Training diverged or otherwise failed at runtime."""


def is_real(value) -> bool:
    """An int or a float; a bool does not count."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int = 1) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an int (a bool
    does not count) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
