"""Library functions that no k3bn command calls, kept as test references.

The three- and four-part criteria and the pencil-multiple criterion of the
profile case analysis, the expansion identity behind the three-part
criterion, the two-divisor dichotomy, the pair check and the
first-violation search, the AM-GM product bound and the Dynkin labels of
the exceptional triples.  The commands answer through
``classify_multi_decomposition``, ``violation_scan`` and the ``triples``
handler, so these left ``k3bn`` unchanged, to check those answers and the
paper's identities from the tests.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from k3bn.bn import ViolationCertificate, _pair_floors, violation_scan
from k3bn.divisors import Effectivity, RootSet, effectivity_status
from k3bn.errors import Frozen, InconsistentGeometryError, InputError, PreconditionError, is_int
from k3bn.lattice import DivClass, GramLattice, QuasiPolarization
from k3bn.profiles import CertificateSketch, DecompositionProfile


# ---------------------------------------------------------------------------
# the profile criteria


def crossing(profile: DecompositionProfile, members: Sequence[int]) -> int:
    """The sum of the products between ``members`` and the other parts."""
    inside = set(members)
    outside = [j for j in range(profile.n) if j not in inside]
    return sum(profile.x[i][j] for i in inside for j in outside)


def two_connected(profile: DecompositionProfile) -> bool:
    return all(crossing(profile, left) >= 2 for left, _ in profile.splits())


def split_sketch(
    profile: DecompositionProfile, left: tuple[int, ...], right: tuple[int, ...], floor, detail: str
) -> CertificateSketch | None:
    """The sketch of H = (sum of ``left``) + (sum of ``right``) if floor(left) * floor(right) > genus.

    ``floor`` maps a group of parts to an h^0 lower bound.  The split is
    labelled as the paper writes it, parts counted from 1: "{1,2} | {3}".
    """
    lb1, lb2, genus = floor(left), floor(right), profile.genus
    if lb1 * lb2 <= genus:
        return None
    label = " | ".join("{%s}" % ",".join(str(i + 1) for i in side) for side in (left, right))
    return CertificateSketch(lb1, lb2, genus, label, left, right, detail)


def chi_product_identity_gap(
    sq1: int, sq2: int, sq3: int, x12: int, x13: int, x23: int
) -> int:
    """Difference between chi(D1+D2) chi(D3) - g and its expanded form; always 0.

    All squares must be even so every division below is exact.
    """
    for s in (sq1, sq2, sq3):
        if s % 2 != 0:
            raise InputError("squares must be even")
    chi12 = (sq1 + sq2 + 2 * x12) // 2 + 2
    chi3 = sq3 // 2 + 2
    g = (sq1 + sq2 + sq3 + 2 * (x12 + x13 + x23)) // 2 + 1
    direct = chi12 * chi3 - g
    expanded = (
        (sq1 + sq2) * sq3 // 4
        + (sq1 + sq2 + sq3) // 2
        + x12 * (sq3 // 2 + 1)
        + 3
        - x13
        - x23
    )
    return direct - expanded


def no_negative_intersections(profile: DecompositionProfile) -> CertificateSketch | None:
    """Three-part criterion: grouped chi product beats the genus.

    Condition (1): x12 (sq3/2 + 1) >= x13 + x23, checked for the canonical
    grouping {1,2} | {3}.  Condition (2): x23 <= 2 + (sq1 + sq2 + sq3)/2;
    the partner of part 1 is then chosen among parts 2 and 3 (higher product
    with part 1 first), the other part is isolated.  Every sketch is
    re-verified numerically before being returned; None means neither
    condition produced a verified certificate.
    """
    if profile.n != 3:
        raise InputError("this criterion applies to three-part profiles")
    if any(s < 0 for s in profile.sq):
        raise PreconditionError("squares must be nonnegative")
    x = profile.x
    eps = [s // 2 for s in profile.sq]
    total_eps = sum(eps)
    if x[0][1] * (eps[2] + 1) >= x[0][2] + x[1][2]:
        sketch = split_sketch(profile, (0, 1), (2,), profile.group_chi, "condition (1)")
        if sketch is not None:
            return sketch
    if x[1][2] <= 2 + total_eps:
        partners = (1, 2) if x[0][1] >= x[0][2] else (2, 1)
        for p in partners:
            t = 3 - p
            detail = f"condition (2), parts 2 and 3 ordered as ({p + 1},{t + 1})"
            sketch = split_sketch(profile, (0, p), (t,), profile.group_chi, detail)
            if sketch is not None:
                return sketch
    return None


def elliptic_multiple(n: int, e_dot_d: int, d_square: int) -> CertificateSketch | None:
    """Criterion for H = nE + D with E isotropic (an elliptic pencil class).

    For n >= 4 the data is first rewritten as 2E + (H - 2E), whose residual
    square is checked to be nonnegative; for n >= 2 with D^2 >= 0 the
    certificate is 2 * chi((n-1)E + D) > g.  None when no condition applies.
    """
    for name, v in (("n", n), ("e_dot_d", e_dot_d), ("d_square", d_square)):
        if not is_int(v):
            raise InputError(f"{name} must be an integer")
    if e_dot_d < 0:
        raise PreconditionError("E . D must be nonnegative: the pencil has no fixed components")
    if n < 1:
        raise InputError("n must be at least 1")
    if d_square % 2 != 0:
        raise InputError("the square of a divisor class is even")
    genus = n * e_dot_d + d_square // 2 + 1

    def certified(detail: str) -> CertificateSketch | None:
        lb2 = (n - 1) * e_dot_d + d_square // 2 + 2
        if 2 * lb2 > genus:
            return CertificateSketch(
                lb1=2,
                lb2=lb2,
                genus=genus,
                split=f"E | {n - 1}E+D",
                detail=detail,
            )
        return None

    if n >= 4:
        residual_square = 2 * (n - 2) * e_dot_d + d_square
        if residual_square >= 0:
            return certified("rewritten as 2E + residual with nonnegative square")
        return None
    if n >= 2 and d_square >= 0:
        return certified("pencil multiple with nonnegative residual square")
    return None


def n4_low_intersections(profile: DecompositionProfile) -> CertificateSketch | None:
    """Four parts whose last three pairwise products are all at most 1.

    Requires a numerically 2-connected profile (else the data is reported as
    inconsistent).  The last three parts are reordered so their pairwise
    products ascend, part 1 absorbs the final part, and the resulting
    three-part profile is delegated to the three-part criterion.
    """
    if profile.n != 4:
        raise InputError("this criterion applies to four-part profiles")
    if any(s < 0 for s in profile.sq):
        raise PreconditionError("squares must be nonnegative")
    x = profile.x
    trio = (1, 2, 3)
    if max(x[a][b] for a, b in itertools.combinations(trio, 2)) > 1:
        raise PreconditionError(
            "pairwise products among the last three parts must be at most 1"
        )
    if not two_connected(profile):
        raise InconsistentGeometryError("the profile is not numerically 2-connected")

    def excluded_value(t: int) -> int:
        a, b = (u for u in trio if u != t)
        return x[a][b]

    # sort so the product excluding the absorbed part is the smallest
    p2, p3, p4 = sorted(trio, key=lambda t: (-excluded_value(t), t))
    # 2-connectedness and the <= 1 caps force part 1 to meet the absorbed part
    assert x[0][p4] >= 0
    merged_sq = profile.group_square((0, p4))
    derived = DecompositionProfile.from_upper(
        (merged_sq, profile.sq[p2], profile.sq[p3]),
        (
            x[0][p2] + x[p4][p2],
            x[0][p3] + x[p4][p3],
            x[p2][p3],
        ),
    )
    sketch = no_negative_intersections(derived)
    if sketch is None:
        return None
    mapping = ((0, p4), (p2,), (p3,))
    group, complement = (
        tuple(sorted(i for k in side for i in mapping[k])) for side in (sketch.group, sketch.complement)
    )
    detail = f"last three parts reordered as ({p2 + 1},{p3 + 1},{p4 + 1}); {sketch.detail}"
    # each derived part sums original parts, so both floors and the genus carry over
    return split_sketch(profile, group, complement, profile.group_chi, detail)


# ---------------------------------------------------------------------------
# the two-divisor dichotomy


def primitive(d: DivClass) -> DivClass:
    """The primitive class on the same ray; undefined for the zero class."""
    c = d.content()
    if c == 0:
        raise InputError("the zero class has no primitive part")
    return DivClass(tuple(v // c for v in d.coords))


class SameEllipticPencil(Frozen):
    """Both classes are multiples (n1, n2) of one primitive isotropic class."""

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int) -> None:
        self._init(n1, n2)


class SumSquareAtLeastFour(Frozen):
    __slots__ = ("total_square",)

    def __init__(self, total_square: int) -> None:
        object.__setattr__(self, "total_square", total_square)


class IncompatiblePair(Frozen):
    """The numeric data cannot come from two fixed-component-free classes."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        object.__setattr__(self, "reason", reason)


def two_divisor_classification(
    lat: GramLattice, m1: DivClass, m2: DivClass
) -> SameEllipticPencil | SumSquareAtLeastFour | IncompatiblePair:
    """Dichotomy for two effective classes without fixed components.

    Zero product forces both classes onto a common elliptic pencil; positive
    product forces (M1 + M2)^2 >= 4.  A positive product with total square
    below 4 is reported (not raised) as an incompatible pair: the shadow is
    unrealizable by fixed-component-free classes under a 2-connected
    polarization.
    """
    sq1, sq2 = lat.square(m1), lat.square(m2)
    if sq1 < 0 or sq2 < 0:
        raise PreconditionError("both classes must have nonnegative square")
    m = lat.intersect(m1, m2)
    if m < 0:
        raise InconsistentGeometryError(
            f"product {m} < 0 is impossible for classes without fixed components"
        )
    if m == 0:
        if sq1 != 0 or sq2 != 0:
            raise InconsistentGeometryError(
                "orthogonal fixed-component-free classes must both be isotropic"
            )
        if m1.is_zero or m2.is_zero:
            raise PreconditionError("classes must be nonzero")
        p1, p2 = primitive(m1), primitive(m2)
        if p1 != p2:
            raise InconsistentGeometryError(
                "orthogonal isotropic classes are not multiples of a common primitive class"
            )
        return SameEllipticPencil(m1.content(), m2.content())
    total = sq1 + sq2 + 2 * m
    if total >= 4:
        return SumSquareAtLeastFour(total)
    return IncompatiblePair(
        f"positive product {m} but (M1+M2)^2 = {total} < 4; "
        "incompatible with the two-divisor dichotomy"
    )


# ---------------------------------------------------------------------------
# one pair, and the first violation


def check_pair(
    pol: QuasiPolarization,
    d1: DivClass,
    d2: DivClass,
    roots: RootSet | None = None,
) -> ViolationCertificate | None:
    """Test one decomposition H = D1 + D2 against the genus bound.

    None means no violation at the lower-bound level, which is not a proof
    that the pair is harmless: the bounds are one-sided.
    """
    if d1 + d2 != pol.h:
        raise PreconditionError("d1 + d2 must equal the polarization class")
    for name, d in (("d1", d1), ("d2", d2)):
        v = effectivity_status(pol, d, roots)
        if v.status is not Effectivity.EFFECTIVE:
            raise PreconditionError(f"{name} is not certified effective: {v.witness}")
    return _pair_floors(pol, d1, d2)[2]


def find_violation(
    pol: QuasiPolarization,
    roots: RootSet | None = None,
    degree_bound: int = 10,
) -> ViolationCertificate | None:
    """First violation certificate in scan order (``violation_scan``), or None.

    None means no violation was found within the bounds -- never that the
    polarization is Brill-Noether general.
    """
    scan = violation_scan(pol, roots, degree_bound)
    return scan.violations[0] if scan.violations else None


# ---------------------------------------------------------------------------
# the product bound and the Dynkin labels


def am_gm(u: int, v: int, c: int) -> tuple[bool, bool]:
    """Evaluate both branches of the product bound as implications.

    basic:  u, v >= 0 and u + v <= 2c   implies  u v <= c^2
    strict: u + v <= 2c and 0 <= v < c  implies  u v <= c^2 - 1
    A failed hypothesis makes the branch vacuously true.  Nonnegativity is
    part of the basic hypothesis: the inequality is applied to section
    counts, and it is false for pairs of sufficiently negative integers.
    """
    basic = not (u >= 0 and v >= 0 and u + v <= 2 * c) or u * v <= c * c
    strict = not (u + v <= 2 * c and 0 <= v < c) or u * v <= c * c - 1
    return basic, strict


def dynkin_label(a1: int, a2: int, a3: int) -> str:
    """Label an exceptional triple by the diagram with those leg lengths.

    (a, 1, 1) are the legs of D_{a+3}; (a, 2, 1) with a in {2, 3, 4} the legs
    of E_{a+4}.
    """
    if not (is_int(a1) and is_int(a2) and is_int(a3)):
        raise InputError(*(f"a{i} must be an integer" for i, a in enumerate((a1, a2, a3), 1) if not is_int(a)))
    if not (a1 >= a2 >= a3 >= 1):
        raise InputError("triple must be sorted descending with positive entries")
    if a1 * a2 * a3 - a1 - a2 - a3 - 2 >= 0:
        raise InputError(f"({a1},{a2},{a3}) is not an exceptional triple")
    if (a2, a3) == (1, 1):
        return f"D{a1 + 3}"
    if (a2, a3) == (2, 1):
        return f"E{a1 + 4}"
    raise InputError(f"({a1},{a2},{a3}) matches no leg pattern")  # pragma: no cover
