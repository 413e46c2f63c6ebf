"""Exception hierarchy shared across the package."""


class UpmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(UpmError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(UpmError):
    """A caller violated an operation's precondition."""


class DegenerateInputError(UpmError):
    """Input is structurally valid but degenerate (e.g. empty point set)."""


class FormatError(UpmError):
    """A file on disk does not match its expected binary/text format."""


class GenerationError(UpmError):
    """Procedural scene generation failed after exhausting retries."""


class ConfigError(UpmError):
    """A configuration file or option set failed validation."""


class NumericError(UpmError):
    """A non-finite value surfaced where finite math was required."""


class RangeError(UpmError):
    """Values span a range too wide for their fixed-width integer encoding."""
