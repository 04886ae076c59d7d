"""Exceptions, the search-size ceiling, the integer test and the frozen base class shared across the package."""


def is_int(v) -> bool:
    """An int that is not a bool: the one integer test of input values."""
    return isinstance(v, int) and not isinstance(v, bool)


class Frozen:
    """Base of the immutable value classes: ``__init__`` sets each field once, through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy restore the fields past __setattr__; state is (__dict__ or None, slot values)
        attrs, slots = state
        for name, value in slots.items():
            object.__setattr__(self, name, value)
        if attrs:
            self.__dict__.update(attrs)


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
