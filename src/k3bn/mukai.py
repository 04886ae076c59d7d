"""Mukai vector arithmetic and the simple-sheaf numerical bound."""

from __future__ import annotations

from .errors import Frozen, InputError, is_int
from .lattice import DivClass, GramLattice


class MukaiVector(Frozen):
    """Integer triple (r, c1, s) with c1 a divisor class.

    No intrinsic constraints: arbitrary triples arise as differences, so
    geometric conditions are imposed per operation.
    """

    __slots__ = ("r", "c1", "s")

    def __init__(self, r: int, c1: DivClass, s: int) -> None:
        self._init(r, c1, s)

    def __post_init__(self) -> None:
        for name in ("r", "s"):
            v = getattr(self, name)
            if not is_int(v):
                raise InputError(f"{name} component must be an integer, got {v!r}")
        if not isinstance(self.c1, DivClass):
            raise InputError("c1 component must be a DivClass")

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.c1 + other.c1, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.c1 - other.c1, self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, -self.c1, -self.s)


def mukai_pairing(lat: GramLattice, v: MukaiVector, w: MukaiVector) -> int:
    """(v, w) = c1(v) . c1(w) - r(v) s(w) - r(w) s(v); symmetric."""
    return lat.intersect(v.c1, w.c1) - v.r * w.s - w.r * v.s


def simple_bound_holds(lat: GramLattice, v: MukaiVector) -> bool:
    """Whether r s <= c1^2 / 2 + 1, the numerical bound satisfied by simple sheaves.

    Equivalent to (v, v) >= -2, since (v, v) = c1^2 - 2 r s.
    """
    return 2 * v.r * v.s <= lat.square(v.c1) + 2
