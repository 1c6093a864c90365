"""Exception types shared across the package.

Every error the package raises derives from one of two bases, and the base
decides the exit code of the command it ends (cli.run_guarded): a
UsageError, an input outside what an operation accepts, exits 2, and a
ComputationError, a computation that ran but could not produce a verdict,
exits 1.  A UsageError is also a ValueError and a ComputationError a
RuntimeError; UndefinedRateError is a ValueError as well.
"""


class UsageError(ValueError):
    """An input lies outside what an operation accepts: exit 2."""


class ComputationError(RuntimeError):
    """A computation on a valid input could not produce a verdict: exit 1."""


class DomainError(UsageError):
    """An argument lies outside the domain an operation is defined on."""


class InvalidSpeedsError(UsageError):
    """Speeds violate lambda1 < 0 < lambda2 (< lambda3 < ... for n speeds)."""


class GridMismatchError(UsageError):
    """Sampled fields do not live on the grid an operation expects."""


class CFLError(UsageError):
    """Requested time step violates the CFL stability bound."""


class DivergenceError(ComputationError):
    """Simulation produced a non-finite value."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class UndefinedRateError(ComputationError, ValueError):
    """Growth rate is undefined (zero norm or too few snapshots in window)."""


class RootBracketError(ComputationError):
    """A bracketing root search failed on the scanned interval."""


class ConfigError(UsageError):
    """Scenario configuration file is missing, malformed, or inconsistent."""


class PreconditionError(UsageError):
    """A verification was requested outside its stated precondition."""
