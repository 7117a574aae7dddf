"""Exception types shared across the package."""


class CircConvError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CircConvError, ValueError):
    """Array dimensions are inconsistent with the requested operation."""


class ConfigError(CircConvError, ValueError):
    """A partition, scheme, or optimizer configuration is invalid."""


class ContractError(CircConvError, RuntimeError):
    """An internal contract was violated (a stale backward cache); signals
    a bug in the caller, not bad user input."""


class UnsupportedGeometryError(CircConvError, ValueError):
    """The fast path does not support the requested geometry (stride > 1)."""


class DivergenceError(CircConvError, ArithmeticError):
    """Training produced a non-finite loss; no update was applied."""


class ModelFormatError(CircConvError, ValueError):
    """A model, tensor, or scheme file is malformed."""
