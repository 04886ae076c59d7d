"""Brill-Noether violation search and the decomposition case analysis.

A violation certificate is a decomposition H = D1 + D2 into effective
nonzero classes whose h^0 lower bounds multiply to more than the genus.  At
the level of pure numeric profiles (squares and pairwise products of an
n-part decomposition) the same role is played by partial-sum sketches:
a split of the index set whose chi-level lower bounds multiply to more than
the genus.  Certificates are verified on construction, never trusted.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .divisors import Effectivity, EffectivityVerdict, RootSet, effectivity_status, h0_floor
from .errors import InconsistentGeometryError, InputError, PreconditionError, check_search_size
from .lattice import DivClass, QuasiPolarization


@dataclass(frozen=True)
class DecompositionProfile:
    """Numeric shadow of a decomposition H = D_1 + ... + D_n.

    ``sq[i]`` is the (even) square of the i-th part and ``x[i][j]`` the
    pairwise product for i != j; the diagonal of ``x`` is zero.  The square
    of H and the genus are derived, never stored.
    """

    sq: tuple[int, ...]
    x: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sq = tuple(self.sq)
        x = tuple(tuple(row) for row in self.x)
        n = len(sq)
        if n < 2:
            raise InputError("a decomposition profile needs at least two parts")
        for i, s in enumerate(sq):
            if not isinstance(s, int) or isinstance(s, bool):
                raise InputError(f"sq[{i}] is not an integer")
            if s % 2 != 0:
                raise InputError(f"sq[{i}] = {s} is odd; squares in an even lattice are even")
        if len(x) != n or any(len(row) != n for row in x):
            raise InputError(f"x must be an {n}x{n} matrix")
        for i in range(n):
            if x[i][i] != 0:
                raise InputError(f"x[{i}][{i}] must be zero")
            for j in range(i + 1, n):
                if x[i][j] != x[j][i]:
                    raise InputError(f"x is not symmetric at ({i}, {j})")
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
        """All unordered splits into two nonempty groups; part 0 stays left."""
        n = self.n
        rest = list(range(1, n))
        for mask in range(2 ** (n - 1) - 1):
            left = (0,) + tuple(rest[k] for k in range(n - 1) if mask >> k & 1)
            right = tuple(i for i in range(1, n) if i not in left)
            yield left, right

    def two_connected(self) -> bool:
        return all(self.crossing(left) >= 2 for left, _ in self.splits())


@dataclass(frozen=True)
class ViolationCertificate:
    """Witness that some decomposition beats the genus: lb1 * lb2 > g."""

    d1: DivClass
    d2: DivClass
    lb1: int
    lb2: int
    genus: int

    def __post_init__(self) -> None:
        if self.lb1 * self.lb2 <= self.genus:
            raise InputError(
                f"not a violation: {self.lb1} * {self.lb2} <= genus {self.genus}"
            )

    def to_dict(self) -> dict:
        return {
            "d1": list(self.d1.coords),
            "d2": list(self.d2.coords),
            "lb1": self.lb1,
            "lb2": self.lb2,
            "genus": self.genus,
        }


@dataclass(frozen=True)
class CertificateSketch:
    """Profile-level certificate: a split whose chi-level bounds beat the genus."""

    lb1: int
    lb2: int
    genus: int
    split: str
    group: tuple[int, ...] | None = None
    complement: tuple[int, ...] | None = None
    detail: str = ""

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
    lb1 = h0_floor(pol, d1)
    lb2 = h0_floor(pol, d2)
    g = pol.genus
    if lb1 * lb2 > g:
        return ViolationCertificate(d1, d2, lb1, lb2, g)
    return None


@dataclass(frozen=True)
class PairRecord:
    d1: DivClass
    d2: DivClass
    lb1: int
    lb2: int
    violates: bool

    def to_dict(self) -> dict:
        return {
            "d1": list(self.d1.coords),
            "d2": list(self.d2.coords),
            "lb1": self.lb1,
            "lb2": self.lb2,
            "violates": self.violates,
        }


# How the scan's effectivity verdicts were reached, as "<status>_<rule>"
# keys; every key is reported, zero or not.
SCAN_VERDICT_KEYS = (
    "effective_riemann_roch",
    "effective_peeling",
    "effective_root_search",
    "not_effective_peeling",
    "unknown_root_nef_residual",
    "unknown_search_exhausted",
)


@dataclass
class DecompositionScan:
    violations: list[ViolationCertificate] = field(default_factory=list)
    pairs: list[PairRecord] = field(default_factory=list)
    candidates_scanned: int = 0
    unknown_candidates: int = 0
    # one count per effectivity verdict (D1, and D2 = H - D1 when D1 is
    # Effective), keyed as in SCAN_VERDICT_KEYS
    verdicts: Counter = field(default_factory=Counter)

    def _settle(self, verdict: EffectivityVerdict) -> bool:
        """Count one verdict; True when it is Effective."""
        status = verdict.status
        self.verdicts[f"{status.name.lower()}_{verdict.rule}"] += 1
        if status is Effectivity.UNKNOWN:
            self.unknown_candidates += 1
        return status is Effectivity.EFFECTIVE

    def stats(self) -> dict:
        """Candidates in the degree window and how each verdict was reached."""
        return {
            "candidates_scanned": self.candidates_scanned,
            **dict.fromkeys(SCAN_VERDICT_KEYS, 0),
            **self.verdicts,
        }


def _degree_window(covector: tuple[int, ...], bound: int, h2: int) -> Iterator[tuple[int, ...]]:
    """Vectors v in [-bound, bound]^rank, lexicographic, with 0 < v . H < h2.

    ``covector`` is H^T (gram), so the degree is a dot product; for each head
    of v the admissible last coordinates form an interval.
    """
    *mid, w = covector
    box = range(-bound, bound + 1)
    for head in itertools.product(box, repeat=len(mid)):
        part = sum(map(operator.mul, head, mid))
        if w == 0:
            lasts = box if 0 < part < h2 else ()
        elif w > 0:  # 0 < part + c w < h2
            lasts = range(max(-bound, -part // w + 1), min(bound, (h2 - part - 1) // w) + 1)
        else:
            lasts = range(max(-bound, (part - h2) // -w + 1), min(bound, (part - 1) // -w) + 1)
        for c in lasts:
            yield (*head, c)


def scan_decompositions(
    pol: QuasiPolarization,
    roots: RootSet | None = None,
    degree_bound: int = 10,
    *,
    collect_pairs: bool = False,
    stop_at_first_violation: bool = False,
) -> DecompositionScan:
    """Enumerate candidate classes D1 in the coordinate box and test pairs.

    Candidates run in lexicographic order over coordinates in
    [-degree_bound, degree_bound], restricted to 0 < D1.H < H^2 with both
    D1 and H - D1 certified effective.  The search box is a hard cutoff and
    is echoed by callers; results outside it are simply not seen.
    """
    if degree_bound <= 0:
        raise InputError("degree bound must be positive")
    check_search_size(
        (2 * degree_bound + 1) ** pol.lattice.rank, "candidate classes", "lower the degree bound"
    )
    h = pol.h
    h2 = pol.degree(h)
    g = pol.genus
    out = DecompositionScan()
    for coords in _degree_window(pol.h_covector, degree_bound, h2):
        d1 = DivClass(coords)
        out.candidates_scanned += 1
        if not out._settle(effectivity_status(pol, d1, roots)):
            continue
        d2 = h - d1
        if not out._settle(effectivity_status(pol, d2, roots)):
            continue
        lb1 = h0_floor(pol, d1)
        lb2 = h0_floor(pol, d2)
        violates = lb1 * lb2 > g
        if collect_pairs:
            out.pairs.append(PairRecord(d1, d2, lb1, lb2, violates))
        if violates:
            out.violations.append(ViolationCertificate(d1, d2, lb1, lb2, g))
            if stop_at_first_violation:
                break
    return out


def find_violation(
    pol: QuasiPolarization,
    roots: RootSet | None = None,
    degree_bound: int = 10,
) -> ViolationCertificate | None:
    """First violation certificate in scan order, or None.

    None means no violation was found within the bounds -- never that the
    polarization is Brill-Noether general.
    """
    scan = scan_decompositions(pol, roots, degree_bound, stop_at_first_violation=True)
    return scan.violations[0] if scan.violations else None


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


def _pair_sketch(
    profile: DecompositionProfile, pair: tuple[int, int], single: int, detail: str
) -> CertificateSketch | None:
    lb1 = profile.group_chi(pair)
    lb2 = profile.group_chi((single,))
    g = profile.genus
    if lb1 * lb2 > g:
        split = "{%s} | {%d}" % (",".join(str(i + 1) for i in pair), single + 1)
        return CertificateSketch(
            lb1=lb1,
            lb2=lb2,
            genus=g,
            split=split,
            group=tuple(pair),
            complement=(single,),
            detail=detail,
        )
    return None


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
        sketch = _pair_sketch(profile, (0, 1), 2, "condition (1)")
        if sketch is not None:
            return sketch
    if x[1][2] <= 2 + total_eps:
        partners = (1, 2) if x[0][1] >= x[0][2] else (2, 1)
        for p in partners:
            t = 3 - p
            sketch = _pair_sketch(
                profile, (0, p), t, f"condition (2), parts 2 and 3 ordered as ({p + 1},{t + 1})"
            )
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
        if not isinstance(v, int) or isinstance(v, bool):
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
    group = tuple(sorted(i for k in sketch.group or () for i in mapping[k]))
    complement = tuple(sorted(i for k in sketch.complement or () for i in mapping[k]))
    split = "{%s} | {%s}" % (
        ",".join(str(i + 1) for i in group),
        ",".join(str(i + 1) for i in complement),
    )
    return CertificateSketch(
        lb1=sketch.lb1,
        lb2=sketch.lb2,
        genus=sketch.genus,
        split=split,
        group=group,
        complement=complement,
        detail=f"last three parts reordered as ({p2 + 1},{p3 + 1},{p4 + 1}); {sketch.detail}",
    )


@dataclass(frozen=True)
class NotBNGeneral:
    """The profile matches a case that rules out Brill-Noether generality."""

    case_id: str
    certificate: CertificateSketch | None
    note: str | None = None


@dataclass(frozen=True)
class ExceptionalProfile:
    """The profile matches none of the cases; only these shapes survive."""

    label: str


LABEL_N3_ISOTROPIC_PAIR = "n=3: D2^2 = D3^2 = 0"
LABEL_N3_LOW = "n=3: D1^2 in {2,4,6}, D2^2 = 2, D3^2 = 0"
LABEL_N4_ISOTROPIC = "n=4 all isotropic"


def _first_partition_certificate(profile: DecompositionProfile) -> CertificateSketch | None:
    g = profile.genus
    splits = sorted(profile.splits(), key=lambda s: (len(s[0]), s[0]))
    for left, right in splits:
        lb1 = profile.group_h0_floor(left)
        lb2 = profile.group_h0_floor(right)
        if lb1 * lb2 > g:
            split = "{%s} | {%s}" % (
                ",".join(str(i + 1) for i in left),
                ",".join(str(i + 1) for i in right),
            )
            return CertificateSketch(
                lb1=lb1,
                lb2=lb2,
                genus=g,
                split=split,
                group=left,
                complement=right,
                detail="partial-sum h0 floors",
            )
    return None


def classify_multi_decomposition(
    profile: DecompositionProfile, h0_at_least_2: Sequence[bool]
) -> NotBNGeneral | ExceptionalProfile:
    """Match an n >= 3 profile against the polarizing-divisor case list.

    Cases, on squares sorted descending: (1) n >= 5; (2) n = 4 with some
    square positive; (3a) all three squares >= 2; (3b) top square >= 8 with
    (2, 0) below; (3c) top two squares >= 4 with 0 below.  Profiles matching
    no case get the exceptional label they match instead; for n >= 3 with
    nonnegative squares the two outcomes partition the input space.

    A matched case carries a partial-sum certificate when one exists in the
    profile alone; otherwise the report notes that geometric input would be
    required to produce one.
    """
    n = profile.n
    if n < 3:
        raise InputError("classification applies to three or more parts")
    flags = tuple(bool(b) for b in h0_at_least_2)
    if len(flags) != n:
        raise InputError(f"expected {n} flags, got {len(flags)}")
    if not all(flags):
        raise PreconditionError("every part must be flagged h0 >= 2")
    if n in (3, 4) and any(s < 0 for s in profile.sq):
        raise PreconditionError("squares must be nonnegative for n = 3 and n = 4 cases")

    t = sorted(profile.sq, reverse=True)
    if n >= 5:
        case_id = "1"
    elif n == 4:
        if all(s == 0 for s in t):
            return ExceptionalProfile(LABEL_N4_ISOTROPIC)
        case_id = "2"
    else:
        if t[2] >= 2:
            case_id = "3a"
        elif t[1] == 0:
            return ExceptionalProfile(LABEL_N3_ISOTROPIC_PAIR)
        elif t[1] == 2 and t[0] in (2, 4, 6):
            return ExceptionalProfile(LABEL_N3_LOW)
        elif t[1] == 2:
            case_id = "3b"
        else:
            case_id = "3c"

    certificate = _first_partition_certificate(profile)
    note = None
    if certificate is None:
        note = "no partial-sum certificate from the profile alone; requires geometric input"
    return NotBNGeneral(case_id, certificate, note)
