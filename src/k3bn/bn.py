"""Brill-Noether violation search over Pic(X), and the entry to the profile case analysis.

A violation certificate is a decomposition H = D1 + D2 into effective
nonzero classes whose h^0 lower bounds multiply to more than the genus;
the scans look for one among the classes of a coordinate box.
Certificates are verified on construction, never trusted.

``classify_multi_decomposition`` matches a numeric decomposition profile
against the case list.  The profiles, their partial-sum sketches and the
split search live in ``profiles``, which it loads when first called, so
that the scan commands never compile them.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import cache
from math import isqrt
from typing import TYPE_CHECKING, Iterator, Sequence

from .divisors import DEFAULT_COEFF_BOUND, Effectivity, EffectivityVerdict, RootSet, effectivity_status
from .divisors import _dot, _h0_floor, _open_verdict, _peel, _verdict, h0_floor
from .errors import Frozen, InputError, PreconditionError, check_search_size
from .lattice import DivClass, QuasiPolarization

if TYPE_CHECKING:
    from .profiles import DecompositionProfile, ExceptionalProfile, NotBNGeneral


class ViolationCertificate(Frozen):
    """Witness that some decomposition beats the genus: lb1 * lb2 > g."""

    __slots__ = ("d1", "d2", "lb1", "lb2", "genus")

    def __init__(self, d1: DivClass, d2: DivClass, lb1: int, lb2: int, genus: int) -> None:
        self._init(d1, d2, lb1, lb2, genus)

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


def _violation(d1: DivClass, d2: DivClass, lb1: int, lb2: int, genus: int) -> ViolationCertificate | None:
    """The violation D1 and D2 make with h^0 floors lb1 and lb2, or None when lb1 * lb2 <= genus."""
    return ViolationCertificate(d1, d2, lb1, lb2, genus) if lb1 * lb2 > genus else None


def _pair_floors(pol: QuasiPolarization, d1: DivClass, d2: DivClass) -> tuple[int, int, ViolationCertificate | None]:
    """The h^0 floors of D1 and D2 = H - D1, both Effective, and the violation they make, if any."""
    lb1, lb2 = h0_floor(pol, d1), h0_floor(pol, d2)
    return lb1, lb2, _violation(d1, d2, lb1, lb2, pol.genus)


class PairRecord(Frozen):
    __slots__ = ("d1", "d2", "lb1", "lb2", "violates")

    def __init__(self, d1: DivClass, d2: DivClass, lb1: int, lb2: int, violates: bool) -> None:
        self._init(d1, d2, lb1, lb2, violates)

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


class DecompositionScan:
    """The pairs and violations a scan found, with its counts; None means a fresh list or Counter."""

    def __init__(
        self,
        violations: list[ViolationCertificate] | None = None,
        pairs: list[PairRecord] | None = None,
        candidates_scanned: int = 0,
        verdicts: Counter | None = None,
        window_classes: int | None = None,
        x_h: bool = False,
    ) -> None:
        self.violations = [] if violations is None else violations
        self.pairs = [] if pairs is None else pairs
        self.candidates_scanned = candidates_scanned
        # one count per effectivity verdict (D1, and D2 = H - D1 when D1 is
        # Effective), keyed as in SCAN_VERDICT_KEYS
        self.verdicts = Counter() if verdicts is None else verdicts
        # set by ``violation_scan``: the size of the degree window, and whether
        # the candidates were X_H in the box (the rest of the window unexamined)
        self.window_classes = window_classes
        self.x_h = x_h

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def unknown_candidates(self) -> int:
        return self.verdicts["unknown_root_nef_residual"] + self.verdicts["unknown_search_exhausted"]

    def count(self, status: Effectivity, rule: str, n: int = 1) -> None:
        """Count n verdicts of one status and rule, under their "<status>_<rule>" key."""
        self.verdicts[f"{status.name.lower()}_{rule}"] += n

    def _settle(self, verdict: EffectivityVerdict) -> bool:
        """Count one verdict; True when it is Effective."""
        self.count(verdict.status, verdict.rule)
        return verdict.status is Effectivity.EFFECTIVE

    def stats(self) -> dict:
        """Candidates in the degree window and how each verdict was reached."""
        window = {} if self.window_classes is None else {"window_classes": self.window_classes}
        return {
            "candidates_scanned": self.candidates_scanned,
            **window,
            **dict.fromkeys(SCAN_VERDICT_KEYS, 0),
            **self.verdicts,
        }


def _lasts(part: int, w: int, us: range, h2: int) -> range:
    """The c in ``us`` with 0 < part + c w < h2."""
    if w == 0:
        return us if 0 < part < h2 else range(0)
    if w > 0:
        lo, hi = -part // w + 1, (h2 - part - 1) // w
    else:
        lo, hi = (part - h2) // -w + 1, (part - 1) // -w
    return range(max(us.start, lo), min(us.stop, hi + 1))


def _degree_window(covector: tuple[int, ...], bound: int, h2: int) -> Iterator[tuple[int, ...]]:
    """Vectors v in [-bound, bound]^rank, lexicographic, with 0 < v . H < h2.

    ``covector`` is H^T (gram), so the degree is a dot product; for each head
    of v the admissible last coordinates form an interval.
    """
    *mid, w = covector
    full = range(-bound, bound + 1)
    for head in itertools.product(full, repeat=len(mid)):
        part = sum(map(operator.mul, head, mid))
        for c in _lasts(part, w, full, h2):
            yield (*head, c)


def _convolve(sums: dict, w: int, col: tuple[int, ...], full: range) -> dict:
    """Add one coordinate t in ``full`` to each (partial degree, dots) key."""
    step = {}
    for (part, dots), count in sums.items():
        for t in full:
            key = part + t * w, tuple(x + t * y for x, y in zip(dots, col)) if col else dots
            step[key] = step.get(key, 0) + count
    return step


def _window_counts(covector: tuple[int, ...], bound: int, h2: int, roots: Sequence[tuple] = (), cap=None) -> dict:
    """The vectors ``_degree_window`` yields, counted per ((v . R_j)_j, v . H < cap(dots)).

    ``roots`` are root covectors, and without ``cap`` no vector is below it.
    The coordinates some root touches are counted per (partial degree, root
    dots), the others of nonzero degree but the last per partial degree; the
    admissible values of the last form an interval, and each coordinate
    touched by neither multiplies by 2 bound + 1.  The completions of each
    partial degree are counted once per degree bound, H^2 or a cap.
    """
    full = range(-bound, bound + 1)
    touched = [i for i in range(len(covector)) if any(r[i] for r in roots)]
    rest = [i for i, w in enumerate(covector) if w and i not in touched]
    free = (2 * bound + 1) ** (len(covector) - len(touched) - len(rest))
    sums, rest_sums = {(0, (0,) * len(roots)): 1}, {(0, ()): 1}
    for i in touched:
        sums = _convolve(sums, covector[i], tuple(r[i] for r in roots), full)
    for i in rest[:-1]:
        rest_sums = _convolve(rest_sums, covector[i], (), full)
    w = covector[rest[-1]] if rest else 0
    completions, out = {}, {}
    for (part, dots), count in sums.items():
        tops = (h2, min(cap(dots), h2)) if cap else (h2,)
        for top in tops:  # the completions to 0 < v . H < top
            if (part, top) not in completions:
                completions[part, top] = free * (
                    sum(n * len(_lasts(part + p, w, full, top)) for (p, _), n in rest_sums.items())
                    if rest
                    else 0 < part < top
                )
        below = completions[part, tops[-1]] if cap else 0
        if below:
            out[dots, True] = out.get((dots, True), 0) + count * below
        out[dots, False] = out.get((dots, False), 0) + count * (completions[part, h2] - below)
    return out


def degree_window_size(covector: tuple[int, ...], bound: int, h2: int) -> int:
    """The number of vectors ``_degree_window`` yields, without building one."""
    return sum(_window_counts(covector, bound, h2).values())


def _short_classes(pol: QuasiPolarization, box: Sequence[range], limit: int, slack) -> list[tuple]:
    """The D in ``box`` with 0 < D.H < H^2 and Q(D) <= slack(D.H), lexicographic.

    ``box`` holds one range per coordinate, Q is the form of ``pol.q_form``,
    and H^perp must be negative definite, so that Q is positive semidefinite
    with kernel the line of H and ``limit`` bounds slack over the degree
    window.  The enumeration is Fincke-Pohst (Fincke & Pohst, *Improved
    methods for calculating vectors of short length in a lattice*, Math.
    Comp. 44, 1985) in integers on the elimination of Q, whose last
    coordinate k has H_k != 0.  Coordinate k runs along the kernel over its
    range; each scaled Schur complement then bounds one more coordinate by
    ``math.isqrt``, clamped to its range, and the innermost also to the
    degree window.  So the work stays within the box.  Each leaf is tested
    exactly.
    """
    form = pol.q_form
    if not form.perp_negative_definite:
        raise PreconditionError("H^perp is not negative definite, so the set may be infinite")
    a, order, h2 = form.a, form.order, pol.degree(pol.h)
    k, top = order[-1], len(order) - 1
    cs = [pol.h_covector[i] for i in order]
    ranges = [box[i] for i in order]
    found = []
    x = [0] * len(order)

    # q is the form of the trailing scaled Schur complement at the chosen
    # x_{p+1}, ..., x_top (0 at the top, the kernel); then
    #   Q_p = ((piv_p x_p + lin_p)^2 + prev_p q) / piv_p,
    # and real x_0, ..., x_{p-1} bring Q(D) within limit exactly when
    # Q_p <= prev_p limit.
    def walk(p: int, q: int) -> None:
        if p < 0:
            d = sum(map(operator.mul, cs, x))
            if 0 < d < h2 and q <= slack(d):
                found.append((*x[:k], x[top], *x[k:top]))
            return
        piv, prev = a[p][p], a[p - 1][p - 1] if p else 1
        # never negative: q = 0 at the top, and the caller's |t| <= s leaves q <= piv * limit
        s = isqrt(prev * (piv * limit - q))
        lin = sum(map(operator.mul, a[p][p + 1 :], x[p + 1 :]))
        us = range(max(ranges[p].start, -((s + lin) // piv)), min(ranges[p].stop, (s - lin) // piv + 1))
        if p == 0:
            us = _lasts(sum(map(operator.mul, cs[1:], x[1:])), cs[0], us, h2)
        for u in us:
            x[p] = u
            t = piv * u + lin
            walk(p - 1, (t * t + prev * q) // piv)

    for u in ranges[top]:
        x[top] = u
        walk(top - 1, 0)
    found.sort()
    return found


def x_h_classes(pol: QuasiPolarization, bound: int) -> list[tuple[int, ...]]:
    """X_H = {D : 0 < D.H < H^2, D^2 >= -2, (H - D)^2 >= -2} in the box.

    X_H holds every class that can carry a violation: a side of square < -2
    has h^0 floor 0.  Q is the same for D and H - D, so the slack is
    min(d, H^2 - d)^2 + 2 H^2.  Only D is cut to the box, as in the window
    scan.  H^perp must be negative definite (``_short_classes``).
    """
    h2 = pol.degree(pol.h)
    box = [range(-bound, bound + 1)] * pol.lattice.rank
    return _short_classes(pol, box, (h2 // 2) ** 2 + 2 * h2, lambda d: min(d, h2 - d) ** 2 + 2 * h2)


def x_classes(pol: QuasiPolarization, box: Sequence[range]) -> list[tuple[int, ...]]:
    """X = {E : 0 < E.H < H^2, E^2 >= -2} in ``box`` (one range per coordinate); H^perp negative definite."""
    h2 = pol.degree(pol.h)
    return _short_classes(pol, box, (h2 - 1) ** 2 + 2 * h2, lambda d: d * d + 2 * h2)


def _check_scan(pol: QuasiPolarization, roots: RootSet | None, degree_bound: int) -> None:
    """Refuse, before any work, roots declared for another polarization and a box past the ceiling."""
    if roots is not None and roots.pol != pol:
        raise PreconditionError("the root set was declared for a different polarization")
    if degree_bound <= 0:
        raise InputError("degree bound must be positive")
    check_search_size(
        (2 * degree_bound + 1) ** pol.lattice.rank, "candidate classes", "lower the degree bound"
    )


def _record_pair(out: DecompositionScan, d1: DivClass, d2: DivClass, lb1: int, lb2: int, genus: int) -> bool:
    """Record D1 and D2 = H - D1, both Effective, with their h^0 floors; True on a violation."""
    violation = _violation(d1, d2, lb1, lb2, genus)
    out.pairs.append(PairRecord(d1, d2, lb1, lb2, violation is not None))
    if violation is not None:
        out.violations.append(violation)
    return violation is not None


def _decide(out: DecompositionScan, pol, roots, d1: DivClass) -> bool:
    """Settle D1 and, when it is Effective, H - D1, and record the pair; True on a violation."""
    if not out._settle(effectivity_status(pol, d1, roots)):
        return False
    d2 = pol.h - d1
    if not out._settle(effectivity_status(pol, d2, roots)):
        return False
    return _record_pair(out, d1, d2, h0_floor(pol, d1), h0_floor(pol, d2), pol.genus)


def _window_scan(pol, roots, degree_bound, first_violation=False) -> DecompositionScan:
    """Decide every class of the degree window, in lexicographic order, or up to the first violation."""
    out = DecompositionScan()
    for coords in _degree_window(pol.h_covector, degree_bound, pol.degree(pol.h)):
        out.candidates_scanned += 1
        if _decide(out, pol, roots, DivClass(coords)) and first_violation:
            break
    return out


def _linear(cols: list[tuple[int, ...]], w: Sequence[int], n: int) -> list[int]:
    """w . v for each of n vectors v given column by column in ``cols``, a whole column at a time."""
    out = [0] * n
    for col, x in zip(cols, w):
        if x:
            out = list(map(operator.add, out, map(operator.mul, col, itertools.repeat(x))))
    return out


def _shape_classes(pol, roots: RootSet, degree_bound) -> list[tuple[int, ...]]:
    """S: the window classes E + sum c_j R_j with E zero or in X, c_j in [0, coeff_bound], in order.

    Built one root at a time from X (``x_classes``) and 0, each shift kept
    where the later ones can bring it into the box.  H^perp must be negative
    definite.  Every class met lies in the widened box X is taken from, and
    is held there as one integer: its offsets from the box's lower corner in
    mixed radix, the first coordinate most significant.  That code is a
    bijection of the box onto an interval that adds as the vectors do while
    the sum stays in the box, so the shifts of a class by one root form a
    ``range`` of codes, and codes sort as their classes do.
    """
    rs, cb = [r.coords for r in roots.roots], DEFAULT_COEFF_BOUND
    h2, hc, rank = pol.degree(pol.h), pol.h_covector, pol.lattice.rank
    # [lo_i, hi_i]: where coordinate i must lie before the shifts by the roots still to come
    lo = [-degree_bound - cb * sum(max(r[i], 0) for r in rs) for i in range(rank)]
    hi = [degree_bound - cb * sum(min(r[i], 0) for r in rs) for i in range(rank)]
    corner, sizes, weights = lo, [b - a + 1 for a, b in zip(lo, hi)], [1] * rank
    for i in range(rank - 1, 0, -1):
        weights[i - 1] = weights[i] * sizes[i]
    base = _dot(weights, corner)
    level = {_dot(weights, v) - base for v in x_classes(pol, [range(a, b + 1) for a, b in zip(lo, hi)])}
    level.add(-base)  # the zero class
    for r in rs:
        lo = [a + cb * max(x, 0) for a, x in zip(lo, r)]
        hi = [b + cb * min(x, 0) for b, x in zip(hi, r)]
        # on each coordinate x = R_i != 0, c runs from (p - v_i) / x to (q - v_i) / x
        support = [
            (weights[i], sizes[i], corner[i], x, *((lo[i], hi[i]) if x > 0 else (hi[i], lo[i])))
            for i, x in enumerate(r)
            if x
        ]
        step, shifted = _dot(weights, r), set()
        for code in level:
            first, last = 0, cb
            for w, n, a, x, p, q in support:
                v = code // w % n + a
                first, last = max(first, -((v - p) // x)), min(last, (q - v) // x)
            shifted.update(range(code + first * step, code + (last + 1) * step, step))
        level = shifted
    codes = sorted(level)
    cols = [[code // w % n + a for code in codes] for w, n, a in zip(weights, sizes, corner)]
    return [v for v, d in zip(zip(*cols), _linear(cols, hc, len(codes))) if 0 < d < h2]


def _shape_verdicts(pol, roots: RootSet, degree_bound, peel) -> tuple[list, ...]:
    """The classes v of S in order, column by column: v, v.H, v^2, the root dots, the verdicts.

    The last two columns hold the verdict of v and that of H - v, or None
    where v is not Effective, as H - v is settled only when v is.  A verdict
    is a (status, rule) pair.  Under ``_certificate_scan``'s precondition a
    verdict depends on three integers alone, the degree, the square and the
    root dots, and is ``divisors._verdict`` of them with ``peel`` of the
    dots: a residual of degree 0 is zero exactly when its square is 0, as
    H^perp is negative definite.  H - v has degree H^2 - v.H, square
    H^2 - 2 v.H + v^2 and dots H.R_j - v.R_j, so it needs no vector.
    When every root has degree 0, no peel or search step changes the
    degree, which then only has to stay positive: the verdict reads the
    square and the dots alone, and is reached once per such pair (on
    U + A1 + A1 with H = e + 2f at bound 4, the 345 classes settled past
    Riemann-Roch have 168 distinct pairs).  Otherwise each row gets its own
    verdict.
    """
    h2, flat = pol.degree(pol.h), not any(roots.degrees)
    classes = _shape_classes(pol, roots, degree_bound)
    cols, n = list(zip(*classes)), len(classes)
    degs, sqs = _linear(cols, pol.h_covector, n), [0] * n
    for col, row in zip(cols, pol.lattice.gram):
        sqs = list(map(operator.add, sqs, map(operator.mul, col, _linear(cols, row, n))))
    dots = list(zip(*(_linear(cols, cv, n) for cv in roots.covectors))) if roots else [()] * n
    found = {}

    def settle(rows: list[tuple]) -> list[tuple[Effectivity, str]]:
        """The verdict of each (degree, square, dots) row, once per (square, dots) when every root has degree 0."""
        if not flat:
            return [_verdict(deg, sq, ds, peel, roots, DEFAULT_COEFF_BOUND)[:2] for deg, sq, ds in rows]
        keys = [row[1:] for row in rows]
        for key, (deg, sq, ds) in dict(zip(keys, rows)).items():
            if key not in found:
                found[key] = _verdict(deg, sq, ds, peel, roots, DEFAULT_COEFF_BOUND)[:2]
        return list(map(found.__getitem__, keys))

    firsts = settle(list(zip(degs, sqs, dots)))
    on = [first[0] is Effectivity.EFFECTIVE for first in firsts]
    seconds = iter(
        settle(
            [
                (h2 - deg, h2 - 2 * deg + sq, tuple(map(operator.sub, roots.degrees, ds)))
                for deg, sq, ds in itertools.compress(zip(degs, sqs, dots), on)
            ]
        )
    )
    return classes, degs, sqs, dots, firsts, [next(seconds) if e else None for e in on]


def _certificate_scan(pol, roots, degree_bound) -> DecompositionScan:
    """The window scan, settling only the classes that can be Effective, from integers.

    For H^perp negative definite and roots declared for ``pol``.  Peeling
    and the root search end in E + sum c_j R_j, c_j in [0, coeff_bound], E
    zero or in X (``x_classes``), as no root has negative degree.  So only
    the window classes of that shape, S (``_shape_classes``), can be
    Effective; each is settled from its degree, square and root dots
    (``_shape_verdicts``), and a class becomes a ``DivClass`` only when it
    and H - D are both Effective; the h^0 floors of the pair come from the
    same integers (``divisors._h0_floor``).  Outside S the search fails, so
    the peel decides by degree and root dots (``divisors._open_verdict``):
    below t(dots) = sum mult_j (H.R_j) NotEffective, else Unknown.  When
    every root has degree 0, t is 0 and no class of the window, all of
    positive degree, lies below it, so the window is counted without that
    cap.  The rest is counted per dots and side of t, then grouped by peel
    and side, and each group gets one verdict.  Each value of the dots is
    peeled at most once.
    """
    roots = roots or RootSet(pol)
    h2, hc, genus = pol.degree(pol.h), pol.h.coords, pol.genus
    peel = cache(lambda dots: _peel(dots, roots, DEFAULT_COEFF_BOUND))
    cap = None
    if any(roots.degrees):
        cap = cache(lambda dots: -peel(dots)[1] if peel(dots) else 0)  # t(dots); 0 past coeff_bound
    rest = Counter(_window_counts(pol.h_covector, degree_bound, h2, roots.covectors, cap))
    out = DecompositionScan(candidates_scanned=rest.total())
    classes, degs, sqs, dots, firsts, seconds = _shape_verdicts(pol, roots, degree_bound, peel)
    rest.subtract(Counter(zip(dots, map(operator.lt, degs, map(cap, dots)) if cap else itertools.repeat(False))))
    settled = Counter(firsts)
    settled.update(filter(None, seconds))  # the H - v that were settled
    for v, deg, sq, second in zip(classes, degs, sqs, seconds):
        if second and second[0] is Effectivity.EFFECTIVE:
            d1, d2 = DivClass(v), DivClass(tuple(map(operator.sub, hc, v)))
            lb1, lb2 = _h0_floor(sq, deg, d1.content()), _h0_floor(h2 - 2 * deg + sq, h2 - deg, d2.content())
            _record_pair(out, d1, d2, lb1, lb2, genus)
    groups = Counter()
    for (ds, below), n in rest.items():
        groups[peel(ds), below] += n
    for (peeled, below), n in groups.items():
        settled[_open_verdict(peeled, below, roots.contracted)[:2]] += n
    for (status, rule), n in settled.items():
        out.count(status, rule, n)
    return out


def scan_decompositions(
    pol: QuasiPolarization,
    roots: RootSet | None = None,
    degree_bound: int = 10,
) -> DecompositionScan:
    """Enumerate candidate classes D1 in the coordinate box and record every pair.

    Candidates run in lexicographic order over coordinates in
    [-degree_bound, degree_bound], restricted to 0 < D1.H < H^2 with both
    D1 and H - D1 certified effective.  The search box is a hard cutoff and
    is echoed by callers; results outside it are simply not seen.  When
    H^perp is negative definite, ``_certificate_scan`` decides only the
    classes that can be Effective and counts the rest; the window scan is
    left where X may be infinite.
    """
    _check_scan(pol, roots, degree_bound)
    if pol.q_form.perp_negative_definite:
        return _certificate_scan(pol, roots, degree_bound)
    return _window_scan(pol, roots, degree_bound)


def violation_scan(
    pol: QuasiPolarization,
    roots: RootSet | None = None,
    degree_bound: int = 10,
) -> DecompositionScan:
    """The first violation in scan order, searched over X_H when it is finite.

    A violation needs both h^0 floors >= 1 (the genus is >= 2), so both
    sides have square >= -2: D1 lies in X_H (``x_h_classes``) and both sides
    are Effective by Riemann-Roch, whatever the roots.  So the first class of
    X_H in the box that violates is the certificate the window scan would
    stop at.  When H^perp is not negative definite the window scan runs up
    to its first violation.
    """
    _check_scan(pol, roots, degree_bound)
    if not pol.q_form.perp_negative_definite:
        out = _window_scan(pol, roots, degree_bound, first_violation=True)
    else:
        classes = x_h_classes(pol, degree_bound)
        out = DecompositionScan(candidates_scanned=len(classes), x_h=True)
        out.count(Effectivity.EFFECTIVE, "riemann_roch", 2 * len(classes))
        for coords in classes:
            d1 = DivClass(coords)
            violation = _pair_floors(pol, d1, pol.h - d1)[2]
            if violation:
                out.violations.append(violation)
                break
    out.window_classes = degree_window_size(pol.h_covector, degree_bound, pol.degree(pol.h))
    return out


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
    required to produce one.  A split search past the search ceiling
    (n >= 21) is refused as bound overflow before any work, and a profile
    of genus < 2 (H^2 <= 0, so not a quasi-polarization) is refused too.
    """
    # absolute: a relative import looks the package up on every call
    from k3bn.profiles import (
        LABEL_N3_ISOTROPIC_PAIR,
        LABEL_N3_LOW,
        LABEL_N4_ISOTROPIC,
        ExceptionalProfile,
        NotBNGeneral,
        _first_partition_certificate,
    )

    n = profile.n
    if n < 3:
        raise InputError("classification applies to three or more parts")
    check_search_size((2 ** (n - 1) - 1) * n * (n - 1) // 2, "split-search steps", "use fewer parts")
    flags = tuple(bool(b) for b in h0_at_least_2)
    if len(flags) != n:
        raise InputError(f"expected {n} flags, got {len(flags)}")
    if not all(flags):
        raise PreconditionError("every part must be flagged h0 >= 2")
    if n in (3, 4) and any(s < 0 for s in profile.sq):
        raise PreconditionError("squares must be nonnegative for n = 3 and n = 4 cases")
    if profile.genus < 2:
        raise PreconditionError(
            f"genus {profile.genus} < 2: the parts sum to H with H^2 = {profile.h_square} <= 0, "
            "not a quasi-polarization"
        )

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
