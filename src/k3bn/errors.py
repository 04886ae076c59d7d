"""Exceptions, the search-size ceiling and the integer test shared across the package."""


def is_int(v) -> bool:
    """An int that is not a bool: the one integer test of input values."""
    return isinstance(v, int) and not isinstance(v, bool)


class InputError(ValueError):
    """Malformed or dimensionally inconsistent input data; ``violations`` lists each fault."""

    def __init__(self, *violations: str):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class PreconditionError(ValueError):
    """An operation was called outside its documented precondition."""


class InconsistentGeometryError(ValueError):
    """Numeric data that cannot arise from the geometric situation it models."""


# Enumerations longer than this are refused before any work starts.
SEARCH_CEILING = 10**8


def check_search_size(count: int, what: str, remedy: str) -> None:
    """Raise a bound-overflow InputError when ``count`` exceeds SEARCH_CEILING."""
    if count > SEARCH_CEILING:
        raise InputError(f"bound overflow: {count} {what}; {remedy}")
