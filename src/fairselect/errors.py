"""Exception types shared across the package.

The CLI maps these onto process exit codes, so solver internals raise the
most specific type that applies rather than bare ValueError.
"""


class FairselectError(Exception):
    """Base class for package-specific failures."""


class InfeasibleError(FairselectError):
    """The input admits no complete assignment (exit code 2)."""


class ScenarioFormatError(FairselectError):
    """A scenario, matrix, or plan file violates its format (exit code 3)."""


class NonFinitePaymentError(FairselectError, ValueError):
    """A candidate's payment overflowed to inf or nan (exit code 3).

    candidate is its (request, provider, service), 0-based like every
    library index.
    """

    def __init__(self, message: str, candidate: tuple[int, int, int]):
        super().__init__(message)
        self.candidate = candidate


class NonIntegralSolutionError(FairselectError):
    """An LP solution expected to be integral was not (exit code 4)."""

    def __init__(self, message: str, column: int | None = None, value: float | None = None):
        super().__init__(message)
        self.column = column
        self.value = value


class InvariantError(FairselectError):
    """An internal invariant failed; indicates a bug, not bad input (exit code 4)."""
