"""Exact arithmetic in an even integer lattice.

The lattice models the divisor-class group of a surface together with its
intersection pairing: a symmetric integer Gram matrix with even diagonal.
Classes are plain integer coordinate vectors in a fixed basis; everything is
computed with exact (arbitrary-precision) integers.
"""

from __future__ import annotations

import functools
import operator
from functools import reduce
from math import gcd
from typing import Iterator, NamedTuple

from .errors import Frozen, InputError, is_int


class DivClass(Frozen):
    """A divisor class: an integer coordinate vector in the lattice basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        object.__setattr__(self, "coords", coords)
        self.__post_init__()

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        for c in coords:
            if not is_int(c):
                raise InputError(f"coordinates must be integers, got {c!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def content(self) -> int:
        """gcd of the coordinates (0 for the zero class)."""
        return gcd(*self.coords)

    def _match(self, other: "DivClass") -> None:
        if not isinstance(other, DivClass):
            raise InputError(f"expected a divisor class, got {other!r}")
        if other.dim != self.dim:
            raise InputError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "DivClass") -> "DivClass":
        self._match(other)
        return DivClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        self._match(other)
        return DivClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivClass":
        return DivClass(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "DivClass":
        if not is_int(k):
            raise InputError("divisor classes scale by integers only")
        return DivClass(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DivClass{self.coords}"


class GramLattice(Frozen):
    """A free abelian group of finite rank with an even symmetric pairing.

    Construction checks that the rows are square and integer, then that the
    diagonal is even and the matrix symmetric, and raises one InputError
    listing every violation.
    """

    __slots__ = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "gram", gram)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.gram)
        n = len(rows)
        if n == 0:
            raise InputError("gram: lattice rank must be positive")
        bad = [f"gram[{i}]: expected a row of length {n}" for i, row in enumerate(rows) if len(row) != n]
        bad += [
            f"gram[{i}][{j}]: not an integer"
            for i, row in enumerate(rows)
            for j, entry in enumerate(row)
            if not is_int(entry)
        ]
        if not bad:
            for i in range(n):
                if rows[i][i] % 2 != 0:
                    bad.append(f"gram[{i}][{i}]: odd diagonal entry {rows[i][i]} in an even lattice")
                bad += [f"gram[{i}][{j}]: not symmetric" for j in range(i + 1, n) if rows[i][j] != rows[j][i]]
        if bad:
            raise InputError(*bad)
        object.__setattr__(self, "gram", rows)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def zero(self) -> DivClass:
        return DivClass((0,) * self.rank)

    def basis(self, i: int) -> DivClass:
        if not 0 <= i < self.rank:
            raise InputError(f"basis index {i} out of range for rank {self.rank}")
        return DivClass(tuple(1 if j == i else 0 for j in range(self.rank)))

    def _check(self, d: DivClass) -> None:
        if not isinstance(d, DivClass):
            raise InputError(f"expected a divisor class, got {d!r}")
        if d.dim != self.rank:
            raise InputError(f"class of length {d.dim} does not live in a rank-{self.rank} lattice")

    def covector(self, d: DivClass) -> tuple[int, ...]:
        """The row vector d^T (gram), so that d . e is its dot product with e.coords."""
        self._check(d)
        return tuple(sum(map(operator.mul, d.coords, row)) for row in self.gram)  # gram is symmetric

    def intersect(self, d: DivClass, e: DivClass) -> int:
        """The intersection product d . e, i.e. d^T (gram) e."""
        covector = self.covector(d)
        self._check(e)
        return sum(map(operator.mul, covector, e.coords))

    def square(self, d: DivClass) -> int:
        return sum(map(operator.mul, self.covector(d), d.coords))

    def chi(self, d: DivClass) -> int:
        """Euler characteristic of the class: d^2/2 + 2 (exact; squares are even)."""
        return self.square(d) // 2 + 2

    def genus(self, d: DivClass) -> int:
        """Arithmetic genus of the class: d^2/2 + 1."""
        return self.square(d) // 2 + 1


def hyperbolic_plane() -> GramLattice:
    """The rank-2 lattice with Gram matrix [[0, 1], [1, 0]]."""
    return GramLattice(((0, 1), (1, 0)))


class QForm(NamedTuple):
    """Q(D) = (D.H)^2 - H^2 D^2, the form of a polarization, eliminated once by ``bareiss``.

    Q has matrix c c^T - H^2 gram with c = H^T gram, and Q(D) is -H^2 times
    the square of the part of D in H^perp.  ``order`` puts the first k of
    H_k != 0 last, and ``a`` is Q in that order after elimination.  Every
    pivot before k is positive exactly when H^perp is negative definite; Q
    is then positive semidefinite with kernel the line of H.  Otherwise the
    elimination stops at the first pivot before k that yields ``witness``, a
    class d with H^2 d^2 - (H.d)^2 > 0: a negative pivot, or a zero pivot
    with a nonzero entry before k in its row.
    """

    order: tuple[int, ...]
    a: list[list[int]]
    perp_negative_definite: bool
    witness: tuple[int, ...] | None


class QuasiPolarization(Frozen):
    """A distinguished class with positive square; nefness is the caller's assertion.

    The lattice cannot decide nefness without a full description of the
    curve classes.  Equality, hash and repr read ``lattice`` and ``h``; the
    instance ``__dict__`` holds the cached ``q_form``.
    """

    # h_covector is H^T (gram), computed once: the degree of a class is a dot product with it
    __slots__ = ("lattice", "h", "h_covector", "__dict__")
    _compared = ("lattice", "h")

    def __init__(self, lattice: GramLattice, h: DivClass) -> None:
        self._init(lattice, h)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_covector", self.lattice.covector(self.h))
        if self.degree(self.h) <= 0:
            raise InputError(f"quasi-polarization must have positive square, got {self.degree(self.h)}")

    def degree(self, d: DivClass) -> int:
        """Degree of a class against the polarization: H . d."""
        self.lattice._check(d)
        return sum(map(operator.mul, self.h_covector, d.coords))

    @property
    def genus(self) -> int:
        return self.lattice.genus(self.h)

    @functools.cached_property
    def q_form(self) -> QForm:
        """The elimination of Q, computed on first use and kept."""
        gram, c, h2 = self.lattice.gram, self.h_covector, self.degree(self.h)
        k = next(i for i, x in enumerate(self.h.coords) if x)
        order = tuple(i for i in range(len(gram)) if i != k) + (k,)
        top = len(order) - 1
        a = [[c[i] * c[j] - h2 * gram[i][j] for j in order] for i in order]
        # v[i]^T Q v[j] is a positive multiple of a[i][j] for all i, j >= p
        v = [[int(i == j) for j in order] for i in order]
        definite = True
        for p in bareiss(a, v):
            if p == top or a[p][p] > 0:
                continue
            definite, witness = False, None
            if a[p][p] < 0:
                witness = v[p]
            elif (q := next((q for q in range(p + 1, top) if a[p][q]), None)) is not None:
                # (t v_p + v_q)^T Q (t v_p + v_q) is a positive multiple of 2 t a_pq + a_qq
                t = -(abs(a[q][q]) + 1) * (1 if a[p][q] > 0 else -1)
                witness = [t * x + y for x, y in zip(v[p], v[q])]
            if witness is not None:  # its coordinate k is 0
                return QForm(order, a, False, (*witness[:k], 0, *witness[k:top]))
        return QForm(order, a, definite, None)


def bareiss(a: list[list[int]], basis: list[list[int]] | None = None) -> Iterator[int]:
    """Fraction-free (Bareiss) symmetric elimination of the integer matrix a, in place.

    Yields each index p before its step, so that the caller can read the
    pivot a[p][p] and the row a[p] and may stop.  The step replaces the
    trailing block by (a[p][p] a[i][j] - a[i][p] a[p][j]) / prev, prev being
    the previous nonzero pivot (1 at first), and every division is exact:
    the trailing block is then prev times the Schur complement of the
    eliminated block, and the pivot a[p][p] is the leading principal minor
    of order p + 1.  So a is positive definite exactly when every pivot is
    positive (Sylvester), and then x^T a x is the sum over p of
    (sum_{j >= p} a[p][j] x_j)^2 / (prev_p a[p][p]).  A zero pivot is
    skipped, which is exact when its row is zero.  The rows of ``basis``
    are transformed alongside, so that while the pivots stay positive,
    basis[i]^T a0 basis[j] is a positive multiple of a[i][j] for i, j >= p.
    """
    n, prev = len(a), 1
    for p in range(n):
        yield p
        piv = a[p][p]
        if piv == 0:
            continue
        for i in range(p + 1, n):
            for j in range(i, n):
                a[i][j] = a[j][i] = (piv * a[i][j] - a[i][p] * a[p][j]) // prev
            if basis is not None:
                basis[i] = [(piv * x - a[p][i] * y) // prev for x, y in zip(basis[i], basis[p])]
        prev = piv


def negative_definite(gram: tuple[tuple[int, ...], ...]) -> bool:
    """Sylvester's criterion for -gram: every Bareiss pivot of -gram is positive."""
    a = [[-x for x in row] for row in gram]
    return all(a[p][p] > 0 for p in bareiss(a))


def hyperbolic_plane_warnings(pol: QuasiPolarization) -> list[str]:
    """Advisory diagnostic: exact test for a 2-plane through H of positive type.

    On a surface the pairing has signature (1, rank-1), so the plane spanned
    by H (with H^2 > 0) and any class d must have Gram determinant
    H^2 d^2 - (H.d)^2 <= 0, that is, Q(d) >= 0 (``QForm``).  A bad plane
    exists exactly when Q is not positive semidefinite, and then the
    elimination of Q yields a witness d.  A bad plane gets a warning naming
    d, never an error.
    """
    witness = pol.q_form.witness
    if witness is None:
        return []
    g = reduce(gcd, witness, 0)
    d = DivClass(tuple(x // g for x in witness))
    det2 = pol.degree(pol.h) * pol.lattice.square(d) - pol.degree(d) ** 2
    return [
        f"plane spanned by H and {d.coords} has positive Gram determinant {det2}; "
        "the form is not hyperbolic"
    ]
