"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class InvalidSpeedsError(ValueError):
    """Speeds violate lambda1 < 0 < lambda2 (< lambda3 < ... for n speeds)."""


class GridMismatchError(ValueError):
    """Sampled fields do not live on the grid an operation expects."""


class CFLError(ValueError):
    """Requested time step violates the CFL stability bound."""


class DivergenceError(RuntimeError):
    """Simulation produced a non-finite value."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class UndefinedRateError(ValueError):
    """Growth rate is undefined (zero norm or too few snapshots in window)."""


class RootBracketError(RuntimeError):
    """A bracketing root search failed on the scanned interval."""


class ConfigError(ValueError):
    """Scenario configuration file is missing, malformed, or inconsistent."""


class PreconditionError(ValueError):
    """A verification was requested outside its stated precondition."""
