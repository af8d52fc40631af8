"""Exception types shared across the library, one per CLI exit code."""


class ContractViolation(ValueError):
    """An argument violates a documented precondition (exit code 2)."""


class DataError(ValueError):
    """An input file is missing or malformed (exit code 3)."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed: non-finite values, a singular system, or a
    null space of dimension > 1 where one vector is needed (exit code 4)."""
