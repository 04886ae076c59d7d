"""Decomposition profiles: the numeric case analysis on squares and pairwise products.

A profile records the squares of the parts of an n-part decomposition
H = D_1 + ... + D_n and their pairwise products, and nothing of the lattice.
At this level a certificate is a partial-sum sketch: a split of the index
set whose chi-level or h^0-level lower bounds multiply to more than the
genus.  Sketches are verified on construction, never trusted.

``_first_partition_certificate`` is the split search that both
``bn.classify_multi_decomposition`` and the box check of ``cases`` run.  The
module needs only ``errors`` and the standard library, and the commands that
scan Pic(X) never load it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import Frozen, InconsistentGeometryError, InputError, PreconditionError, is_int


class DecompositionProfile(Frozen):
    """Numeric shadow of a decomposition H = D_1 + ... + D_n.

    ``sq[i]`` is the (even) square of the i-th part and ``x[i][j]`` the
    pairwise product for i != j; the diagonal of ``x`` is zero.  The square
    of H and the genus are derived, never stored.  Construction raises one
    InputError listing every violation.
    """

    __slots__ = ("sq", "x")

    def __init__(self, sq: tuple[int, ...], x: tuple[tuple[int, ...], ...]) -> None:
        self._init(sq, x)

    def __post_init__(self) -> None:
        sq = tuple(self.sq)
        x = tuple(tuple(row) for row in self.x)
        n = len(sq)
        bad = ["a decomposition profile needs at least two parts"] if n < 2 else []
        for i, s in enumerate(sq):
            if not is_int(s):
                bad.append(f"sq[{i}] is not an integer")
            elif s % 2 != 0:
                bad.append(f"sq[{i}] = {s} is odd; squares in an even lattice are even")
        if len(x) != n or any(len(row) != n for row in x):
            bad.append(f"x must be an {n}x{n} matrix")
        else:
            for i in range(n):
                bad += [f"x[{i}][{j}] is not an integer" for j in range(n) if not is_int(x[i][j])]
                if x[i][i] != 0:
                    bad.append(f"x[{i}][{i}] must be zero")
                bad += [f"x is not symmetric at ({i}, {j})" for j in range(i + 1, n) if x[i][j] != x[j][i]]
        if bad:
            raise InputError(*bad)
        object.__setattr__(self, "sq", sq)
        object.__setattr__(self, "x", x)

    @classmethod
    def from_upper(cls, sq: Sequence[int], upper: Sequence[int]) -> "DecompositionProfile":
        """Build from the upper triangle listed row-major: x01, x02, ..., x12, ..."""
        n = len(sq)
        expected = n * (n - 1) // 2
        if len(upper) != expected:
            raise InputError(f"expected {expected} upper-triangle entries, got {len(upper)}")
        mat = [[0] * n for _ in range(n)]
        it = iter(upper)
        for i in range(n):
            for j in range(i + 1, n):
                v = next(it)
                mat[i][j] = mat[j][i] = v
        return cls(tuple(sq), tuple(tuple(row) for row in mat))

    @property
    def n(self) -> int:
        return len(self.sq)

    @property
    def h_square(self) -> int:
        n = self.n
        return sum(self.sq) + 2 * sum(self.x[i][j] for i in range(n) for j in range(i + 1, n))

    @property
    def genus(self) -> int:
        return self.h_square // 2 + 1

    def group_square(self, members: Sequence[int]) -> int:
        ms = tuple(members)
        total = sum(self.sq[i] for i in ms)
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                total += 2 * self.x[ms[a]][ms[b]]
        return total

    def group_chi(self, members: Sequence[int]) -> int:
        return self.group_square(members) // 2 + 2

    def group_h0_floor(self, members: Sequence[int]) -> int:
        """Sound h^0 lower bound for the partial sum: max(chi, 1).

        A sum of effective nonzero classes is effective and nonzero, so its
        h^0 is at least 1 and at least its chi.
        """
        return max(self.group_chi(members), 1)

    def crossing(self, members: Sequence[int]) -> int:
        inside = set(members)
        outside = [j for j in range(self.n) if j not in inside]
        return sum(self.x[i][j] for i in inside for j in outside)

    def splits(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All unordered splits into two nonempty groups; part 0 stays left.

        Lazily, smallest left group first, then in lexicographic order.
        """
        n = self.n
        for k in range(n - 1):
            for chosen in itertools.combinations(range(1, n), k):
                yield (0, *chosen), tuple(i for i in range(1, n) if i not in chosen)

    def two_connected(self) -> bool:
        return all(self.crossing(left) >= 2 for left, _ in self.splits())


class CertificateSketch(Frozen):
    """Profile-level certificate: a split whose chi-level bounds beat the genus."""

    __slots__ = ("lb1", "lb2", "genus", "split", "group", "complement", "detail")

    def __init__(
        self,
        lb1: int,
        lb2: int,
        genus: int,
        split: str,
        group: tuple[int, ...] | None = None,
        complement: tuple[int, ...] | None = None,
        detail: str = "",
    ) -> None:
        self._init(lb1, lb2, genus, split, group, complement, detail)

    def __post_init__(self) -> None:
        if self.lb1 * self.lb2 <= self.genus:
            raise InputError(
                f"not a certificate: {self.lb1} * {self.lb2} <= genus {self.genus}"
            )

    def to_dict(self) -> dict:
        out = {
            "lb1": self.lb1,
            "lb2": self.lb2,
            "genus": self.genus,
            "split": self.split,
            "detail": self.detail,
        }
        if self.group is not None:
            out["group"] = list(self.group)
            out["complement"] = list(self.complement or ())
        return out


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


def _split_label(left: Sequence[int], right: Sequence[int]) -> str:
    """The split as the paper writes it, parts counted from 1: "{1,2} | {3}"."""
    return " | ".join("{%s}" % ",".join(str(i + 1) for i in side) for side in (left, right))


def _split_sketch(
    profile: DecompositionProfile, left: tuple[int, ...], right: tuple[int, ...], floor, detail: str
) -> CertificateSketch | None:
    """The sketch of H = (sum of ``left``) + (sum of ``right``) if floor(left) * floor(right) > genus.

    ``floor`` maps a group of parts to an h^0 lower bound; every group split is built here.
    """
    lb1, lb2, genus = floor(left), floor(right), profile.genus
    if lb1 * lb2 <= genus:
        return None
    return CertificateSketch(lb1, lb2, genus, _split_label(left, right), left, right, detail)


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
        sketch = _split_sketch(profile, (0, 1), (2,), profile.group_chi, "condition (1)")
        if sketch is not None:
            return sketch
    if x[1][2] <= 2 + total_eps:
        partners = (1, 2) if x[0][1] >= x[0][2] else (2, 1)
        for p in partners:
            t = 3 - p
            detail = f"condition (2), parts 2 and 3 ordered as ({p + 1},{t + 1})"
            sketch = _split_sketch(profile, (0, p), (t,), profile.group_chi, detail)
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
    if not profile.two_connected():
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
    return _split_sketch(profile, group, complement, profile.group_chi, detail)


class NotBNGeneral(Frozen):
    """The profile matches a case that rules out Brill-Noether generality."""

    __slots__ = ("case_id", "certificate", "note")

    def __init__(self, case_id: str, certificate: CertificateSketch | None, note: str | None = None) -> None:
        self._init(case_id, certificate, note)


class ExceptionalProfile(Frozen):
    """The profile matches none of the cases; only these shapes survive."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        object.__setattr__(self, "label", label)


LABEL_N3_ISOTROPIC_PAIR = "n=3: D2^2 = D3^2 = 0"
LABEL_N3_LOW = "n=3: D1^2 in {2,4,6}, D2^2 = 2, D3^2 = 0"
LABEL_N4_ISOTROPIC = "n=4 all isotropic"


def _first_partition_certificate(profile: DecompositionProfile) -> CertificateSketch | None:
    sketches = (
        _split_sketch(profile, left, right, profile.group_h0_floor, "partial-sum h0 floors")
        for left, right in profile.splits()
    )
    return next(filter(None, sketches), None)
