"""Exception types with machine-readable codes (mirrored by the CLI exit codes)."""


class DunklError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "error"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class DomainError(DunklError):
    """Input outside an operation's domain (bad parameter, pole hit, ...)."""

    code = "domain-error"


class ConvergenceError(DunklError):
    """An iteration cap was reached before the requested tolerance."""

    code = "convergence-error"
