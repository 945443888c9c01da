"""Exception types shared across the package.

All validation errors subclass ValueError so callers can catch broadly;
the finer types exist so tests and the CLI can tell *what* went wrong.
"""


class ShapeError(ValueError):
    """Array dimensions do not line up with what the operation expects."""


class DomainError(ValueError):
    """A value is outside its documented domain (non-finite input, label
    out of range, probability row that does not sum to one, ...)."""


class ContractError(ValueError):
    """The caller broke an API precondition, e.g. handed a probe point
    that lies outside the perturbation ball it claims to belong to."""


class ConfigError(ValueError):
    """An experiment or method configuration is invalid or inconsistent."""


class FormatError(ValueError):
    """An external file is malformed (bad magic number, corrupt header)."""


class ConsistencyError(ValueError):
    """Two sources that must agree do not, e.g. an image file and a label
    file with different record counts."""


class TruncatedFileError(OSError):
    """A binary file ended before the payload its header declared."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite value. Only training.train raises it
    (the CLI's exit 3), naming the epoch and batch where it happened."""


class ConsistencyWarning(UserWarning):
    """A derived metric landed outside its plausible range. Usually a sign
    that two inputs came from different evaluation runs."""
