"""Exceptions, the search-size ceiling, the integer test and the base of the value classes shared across the package."""

import operator


def is_int(v) -> bool:
    """An int that is not a bool: the one integer test of input values."""
    return isinstance(v, int) and not isinstance(v, bool)


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields in ``__slots__``, and ``__init__`` sets each
    once: through ``_init``, or ``object.__setattr__`` for a single field.
    Equality, hashing and repr read the compared fields, which default to
    ``__slots__``; a class that compares only some of its slots names those
    in ``_compared``.  Equality holds between instances of one class only,
    the hash is that of the tuple of compared values, and repr is
    ``Name(field=value, ...)``.  Instances pickle at every protocol.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls._compared = vars(cls).get("_compared", cls.__slots__)
        cls._key = staticmethod(operator.attrgetter(*names))

    def _init(self, *values):
        """Set the leading slots to ``values`` in order, then run ``__post_init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalise the fields once ``__init__`` has set them; nothing by default."""

    def _values(self) -> tuple:
        """The compared values; ``_key`` of one name returns the bare value."""
        return self._key(self) if len(self._compared) > 1 else (self._key(self),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._compared, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        # (__dict__ or None, slot values), the pair object.__getstate__ gives protocols 2 and up;
        # written out so that protocols 0 and 1 pickle too
        slots = {name: getattr(self, name) for name in self.__slots__ if name != "__dict__"}
        return getattr(self, "__dict__", None) or None, slots

    def __setstate__(self, state):
        # pickle and copy restore the fields past __setattr__
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
