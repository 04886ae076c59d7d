"""Exceptions and the search-size ceiling shared across the package."""


class InputError(ValueError):
    """Malformed or dimensionally inconsistent input data."""


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
