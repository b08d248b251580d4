"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class NotAUnitError(DomainError):
    """Inversion was requested for an element that is not a unit."""


class UnsupportedError(DomainError):
    """The operation is only defined for a restricted parameter range."""


class GuardrailError(RuntimeError):
    """A size guardrail would be exceeded; nothing was allocated."""


__all__ = ["DomainError", "GuardrailError", "NotAUnitError", "UnsupportedError"]
