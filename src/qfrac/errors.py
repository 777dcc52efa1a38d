"""Error channel shared by every operator in the package."""

__all__ = [
    "QCalculusError", "NonConvergence", "PoleError", "DomainError", "NumericOverflow",
]


class QCalculusError(Exception):
    """Base class for numeric failures raised by this package."""


class NonConvergence(QCalculusError):
    """An infinite sum or product failed its stopping rule within the term budget."""


class PoleError(QCalculusError):
    """Evaluation landed on, or numerically underneath, a pole."""


class DomainError(QCalculusError, ValueError):
    """Arguments outside the domain an operation is defined on."""


class NumericOverflow(QCalculusError, OverflowError):
    """A power or a sum's term of valid arguments is not finite in a double,
    a sum of known length leaves its range, or an infinite product underflows."""
