"""Exhaustive machine verification over bounded integer boxes.

The statement verified by :func:`exhaustive_case_check`, for n parts:

    for every filtration profile (r_i, s_i, eps_i) and decomposition profile
    (sq = 2*eps, x) inside the box, if the filtration data is feasible, the
    decomposition profile is numerically 2-connected, and the product
    (sum r)(sum s) exceeds the genus, then some split of the parts into two
    groups has h^0 floors whose product exceeds the genus.

Feasibility of the filtration data means: r_i >= 1, r_i s_i <= eps_i + 1,
r_i <= r_{i+1} + ... + r_n for i < n, and s_n >= 1.  The h^0 floor of a
group is ``profiles.DecompositionProfile.group_h0_floor``, max(chi, 1)
with chi computed from the profile.

A raw sweep of the default four-part box has ~10^13 instances, so the
statement is decided exactly in three layers, the cheapest first.  Layer 1
and the two- and three-part lemmas below settle every class at every n, so
no class reaches a later layer and the checker searches nothing; layers 2
and 3 are stated because the lemmas are proved against them.

1.  The row-sum test.  Every one-part split of a failing profile of genus g
    forces row_i >= g + 1 - eps_i - g // a_i with a_i = eps_i + 2; the rows
    sum to twice the x-coordinate sum, 2 (g - E - 1) with E = sum eps, so g
    survives only if f(g) = (2 - n) g - E - 2 - n + sum_i g // a_i >= 0,
    g >= 1 (floors are >= 1) and g < (n r_max)(n s_max), an analytic bound
    on P.  The test is decided in closed form: with c = sum_i 1/a_i + 2 - n,
    kept as an integer fraction over prod a_i, each g // a_i lies in
    (g / a_i - 1, g / a_i], so c g - E - 2 - 2n < f(g) <= c g - E - 2 - n.
    -  n >= 4: every a_i >= 2 gives c <= 2 - n / 2 <= 0, so f(g) < 0 and the
       test closes every class; the driver counts them without an eps loop.
    -  n = 3: c <= 0 (sum 1/a_i <= 1) closes the class.  With legs
       l_i = eps_i + 1 = a_i - 1, clearing denominators turns c > 0 into
       l1 l2 l3 - l1 - l2 - l3 - 2 < 0, so the survivors are the classes
       whose legs permute an exceptional (ADE) triple, of the two types
       below.  The surviving genera of each type are known in closed form,
       so the driver counts the classes with a genus of [lo, hi] among them
       in one loop over e and three table rows, with no call per class, and
       every other class without a loop.
       The three-part lemma: no feasible product reaches g*, the smallest
       g >= 1 that passes the test, in any box.  A box only shrinks the
       feasible set and every surviving genus is >= g*, so it suffices to
       bound P*, the maximum over all feasible (r, s).  s3 >= 1 forces
       r3 <= l3, then r2 <= r3 and r1 <= r2 + r3; each s_i <= l_i // r_i,
       and a negative s_i only lowers sum s.
       -  D type, eps a permutation of (e, 0, 0), L = e + 1: one class at
          e = 0 and three otherwise.  With 2 (g // 2) = g - (g mod 2) the
          test reads g // (e + 2) >= e + 5 + (g mod 2), so the survivors are
          the even g >= g* = (e + 2)(e + 5) and the odd g >= (e + 2)(e + 6):
          no ray.  g* is even, so [lo, hi] holds one exactly when
          g = max(lo, g*) < hi (g or g + 1 is even) or g = hi is even or at
          least (e + 2)(e + 6).  A leg of 1 caps s_i at 1 if r_i = 1 and at
          0 otherwise.  Long leg last: t = r3 <= L and q = L // t give
          t q <= L and t + q <= L + 1; if r1 = r2 = 1,
          P <= (t + 2)(q + 2) <= 3L + 6; if one of them is 1,
          sum r <= 2t + 2 and P <= 2(t + 1)(q + 1) <= 4L + 4; if neither,
          P <= 4 t q <= 4L.  Long leg first or second: r3 = r2 = 1 and
          r1 <= 2, so P <= max(3(L + 2), 4(L + 1)).  Hence
          P* <= 4e + 9 < (e + 2)(e + 5) = g*.
       -  E type, the 3, 6 and 6 permutations of eps = (1, 1, 0), (2, 1, 0)
          and (3, 1, 0) (E6, E7, E8), in the box from eps_max = 1, 2 and 3
          on.  Their a = (3, 3, 2), (4, 3, 2) and (5, 3, 2) have
          m = lcm a_i = 6, 12 and 30 with m c = 1, so at g = m q + r,
          0 <= r < m, f(g) = q - E - 5 - d(r) with d(r) = r - sum_i r // a_i.
          Each a_i divides m, so r + (r + 1) / m - 2 <= sum_i r // a_i
          <= r + r / m: d(r) is 0 or 1, and d(m - 1) = 1.  The survivors are
          the m (E + 5) + r with d(r) = 0 and every g >= m (E + 6), and
          m (E + 6) - 1 fails:
              E6, E = 2:  42, 45, 46; every g >= 48
              E7, E = 3:  96, 100, 102, 104, 105, 106; every g >= 108
              E8, E = 4:  270, 276, 280, 282, 285, 286, 288, 290, 291, 292,
                          294, 295, 296, 297, 298; every g >= 300
          sum r <= 4 r3 <= 4 max l and sum s <= sum l, so P* <= 40, 72, 112
          against g* = 42, 96, 270.  The exact values, checked by brute
          force in ``tests/test_cases.py``:
              eps        P*   g*      eps        P*   g*      eps        P*   g*
              (0, 1, 1)  18   42      (0, 1, 2)  24   96      (0, 1, 3)  30  270
              (1, 0, 1)  16   42      (0, 2, 1)  24   96      (0, 3, 1)  30  270
              (1, 1, 0)  16   42      (1, 0, 2)  21   96      (1, 0, 3)  27  270
                                      (1, 2, 0)  20   96      (1, 3, 0)  24  270
                                      (2, 0, 1)  20   96      (3, 0, 1)  25  270
                                      (2, 1, 0)  18   96      (3, 1, 0)  21  270
    -  n = 2: the test reads g // a1 + g // a2 >= a1 + a2, nondecreasing
       in g; its left side is (a2 - 1) + (a1 - 1) at g = a1 a2 - 1 and
       a2 + a1 at g = a1 a2, so the survivors are exactly g >= a1 a2.  A
       class has one exactly when max(E + x_min + 1, a1 a2) <=
       min(4 r_max s_max - 1, E + x_max + 1) (a1 a2 >= 4 covers g >= 1),
       and the smallest, g0, is >= a1 a2.  No feasible product beats g0:
       take r_i s_i <= eps_i + 1, r1 <= r2 and s2 >= 1.  If s1 >= 1, the
       identity (r1 + r2)(s1 + s2) = (r1 s1 + 1)(r2 s2 + 1)
       - (r1 s2 - 1)(r2 s1 - 1) bounds the product by a1 a2; if s1 <= 0,
       it is at most max(0, 2 r2 s2) <= 2 (eps2 + 1) < a1 a2.  So every
       class with a survivor closes in layer 2, and the driver counts both
       kinds in one loop of integer comparisons, with no call per class.
2.  For classes with a surviving genus, whether some feasible filtration
    data in the box has (sum r)(sum s) above the smallest surviving genus
    g0.  Genera >= the maximum P admit no violating filtration data, so no
    product above g0, an empty feasible set included, closes the class.  By
    the two lemmas no class at any n has one: the driver counts a class
    with a surviving genus as closed here and computes no product.
3.  Genera that survive both would get an exhaustive slice enumeration (all
    x-matrices with the matching coordinate sum), each profile decided by a
    search for a split whose h^0 floors beat the genus; a failing profile,
    paired with the (r, s) that attains P, would be a counterexample.  No
    class at any n reaches this layer, so the box check searches no split
    and imports nothing from ``profiles``.  The product maximum, the sweep
    (deciding each profile with ``classify``'s split search), the per-class
    three-part existence test and the re-check of a reported counterexample
    live on in ``tests/box_reference.py`` as the reference of the
    differential tests.

``BoxReport.stats`` counts the eps-classes each layer settled; ``swept``,
``profiles_enumerated`` and the counterexample list keep their place in the
report, always 0 and empty.
"""

from __future__ import annotations

import time

from .errors import Frozen, InputError, check_search_size, is_int

_MAGNITUDE_CAP = 10**6  # box entries beyond this are rejected as bound overflow


# ---------------------------------------------------------------------------
# filtration profiles


class FiltrationProfile(Frozen):
    """Length-n list of (r_i, s_i, eps_i) integer triples, eps_i = sq_i / 2."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int, int], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        entries = tuple(tuple(e) for e in self.entries)
        bad = ["a filtration profile needs at least two entries"] if len(entries) < 2 else []
        for k, entry in enumerate(entries):
            if len(entry) != 3 or not all(map(is_int, entry)):
                bad.append(f"entries[{k}] must be an integer triple")
                continue
            r, _, eps = entry
            if r < 1:
                bad.append(f"entries[{k}]: rank {r} must be at least 1")
            if eps < 0:
                bad.append(f"entries[{k}]: eps {eps} must be nonnegative")
        if bad:
            raise InputError(*bad)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def r(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self.entries)

    @property
    def s(self) -> tuple[int, ...]:
        return tuple(e[1] for e in self.entries)

    @property
    def eps(self) -> tuple[int, ...]:
        return tuple(e[2] for e in self.entries)

    @property
    def sum_r(self) -> int:
        return sum(self.r)

    @property
    def sum_s(self) -> int:
        return sum(self.s)


def profile_feasible(fp: FiltrationProfile) -> bool:
    """The three constraint families: products, rank chain, last s positive."""
    r, s, eps = fp.r, fp.s, fp.eps
    n = fp.n
    if any(r[i] * s[i] > eps[i] + 1 for i in range(n)):
        return False
    if any(r[i] > sum(r[i + 1 :]) for i in range(n - 1)):
        return False
    return s[-1] >= 1


# ---------------------------------------------------------------------------
# the determinant condition


def enumerate_exceptional_triples(a_max: int) -> list[tuple[int, int, int]]:
    """All a1 >= a2 >= a3 >= 1 with a1 <= a_max and a1 a2 a3 - a1 - a2 - a3 - 2 < 0.

    Closed form, lexicographically sorted.  For a3 >= 2 the expression is
    already 0 at (2, 2, 2) and grows in every entry; for a3 = 1 it is
    (a1 - 1)(a2 - 1) - 4, negative for a2 = 1 and, with a2 >= 2, only at
    (2, 2, 1), (3, 2, 1) and (4, 2, 1).
    """
    if not is_int(a_max):
        raise InputError("a_max must be an integer")
    if a_max < 1:
        raise InputError("a_max must be at least 1")
    check_search_size(a_max, "values of a1", "lower a_max")
    out = []
    for a1 in range(1, a_max + 1):
        out.append((a1, 1, 1))
        if 2 <= a1 <= 4:
            out.append((a1, 2, 1))
    return out


# ---------------------------------------------------------------------------
# boxes and reports


class Box(Frozen):
    """Finite search box for the exhaustive check; every bound is inclusive."""

    __slots__ = ("r_max", "s_min", "s_max", "eps_max", "x_min", "x_max")

    def __init__(self, r_max: int, s_min: int, s_max: int, eps_max: int, x_min: int, x_max: int) -> None:
        self._init(r_max, s_min, s_max, eps_max, x_min, x_max)

    def __post_init__(self) -> None:
        vals = self._values()
        if not all(map(is_int, vals)):
            raise InputError("box bounds must be integers")
        if any(abs(v) > _MAGNITUDE_CAP for v in vals):
            raise InputError("bound overflow: box entries must stay within 10^6")
        if self.r_max < 1:
            raise InputError("r_max must be at least 1")
        if self.s_min > self.s_max:
            raise InputError("s_min must not exceed s_max")
        if self.s_max < 1:
            raise InputError("s_max must be at least 1 (the last s is positive)")
        if self.eps_max < 0:
            raise InputError("eps_max must be nonnegative")
        if self.x_min > self.x_max:
            raise InputError("x_min must not exceed x_max")

    def to_dict(self) -> dict:
        return {
            "r_max": self.r_max,
            "s_min": self.s_min,
            "s_max": self.s_max,
            "eps_max": self.eps_max,
            "x_min": self.x_min,
            "x_max": self.x_max,
        }


_DEFAULT_BOXES = {
    2: Box(r_max=12, s_min=-12, s_max=12, eps_max=12, x_min=-12, x_max=40),
    3: Box(r_max=8, s_min=-8, s_max=8, eps_max=8, x_min=-8, x_max=24),
    4: Box(r_max=8, s_min=-8, s_max=8, eps_max=8, x_min=-8, x_max=24),
}


def default_box(n: int) -> Box:
    if n not in _DEFAULT_BOXES:
        raise InputError("default boxes exist for n = 2, 3, 4")
    return _DEFAULT_BOXES[n]


class BoxReport:
    """Outcome of one box run.

    instances_checked counts the decomposition profiles in the box, every
    one of which the layered procedure decides; eps_classes_closed_form is
    how many eps-classes were settled purely arithmetically, and
    profiles_enumerated how many profiles needed the explicit slice sweep.
    stats splits eps_classes by deciding layer (closed_row_sum,
    closed_product_max, swept).  Every class closes in closed form (module
    docstring), so counterexamples is empty and the sweep counts are 0.
    """

    def __init__(
        self,
        n: int,
        box: Box,
        instances_checked: int,
        counterexamples: list,
        elapsed_ms: float,
        eps_classes: int,
        eps_classes_closed_form: int,
        profiles_enumerated: int,
        cross_checks: list[str],
        stats: dict[str, int],
    ) -> None:
        self.n = n
        self.box = box
        self.instances_checked = instances_checked
        self.counterexamples = counterexamples
        self.elapsed_ms = elapsed_ms
        self.eps_classes = eps_classes
        self.eps_classes_closed_form = eps_classes_closed_form
        self.profiles_enumerated = profiles_enumerated
        self.cross_checks = cross_checks
        self.stats = stats

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "box": self.box.to_dict(),
            "instances_checked": self.instances_checked,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "elapsed_ms": self.elapsed_ms,
            "eps_classes": self.eps_classes,
            "eps_classes_closed_form": self.eps_classes_closed_form,
            "profiles_enumerated": self.profiles_enumerated,
            "cross_checks": self.cross_checks,
            "stats": self.stats,
        }


# ---------------------------------------------------------------------------
# the decision procedure


# the E-type rows of the three-part bullet: (eps_max at which the row enters,
# classes, E, the survivors below the ray, the ray start)
_E_ROWS = (
    (1, 3, 2, (42, 45, 46), 48),
    (2, 6, 3, (96, 100, 102, 104, 105, 106), 108),
    (3, 6, 4, (270, 276, 280, 282, 285, 286, 288, 290, 291, 292, 294, 295, 296, 297, 298), 300),
)


# ---------------------------------------------------------------------------
# targeted sub-box cross-checks


def _two_part_product_bound(box: Box) -> int:
    """(r1+r2)(s1+s2) <= (r1 s1 + 1)(r2 s2 + 1) whenever every entry is >= 1.

    The difference is the identity
    (r1 s1 + 1)(r2 s2 + 1) - (r1 + r2)(s1 + s2) = (r1 s2 - 1)(r2 s1 - 1),
    a product of two nonnegative integers, so no tuple fails.  Returns the
    number of (r1, r2, s1, s2) tuples in the box the bound covers.
    """
    return box.r_max**2 * box.s_max**2


def _all_isotropic_caps(box: Box) -> list[str]:
    """Four-part sub-box with every eps zero: the two product caps, in closed form.

    With eps = 0 the cap of s_i is 1 at r_i = 1 and 0 otherwise, and the
    rank vectors ending in 1 are (r1, r2, 1, 1) with r2 <= 2 and
    r1 <= r2 + 2.  So sum s = 4 only at r = (1, 1, 1, 1), where the product
    is 16, and otherwise (sum r)(sum s) <= 18 <= 24 (at r = (3, 1, 1, 1)).
    Every cap reaches s_min when s_min <= 0; at s_min = 1 only the caps of
    (1, 1, 1, 1) do, and above it none.
    """
    full = int(box.s_min <= 1)
    capped = sum(min(box.r_max, r2 + 2) for r2 in range(1, min(box.r_max, 2) + 1)) if box.s_min <= 0 else full
    return [
        f"all-isotropic sub-box: (sum r)(sum s) = 16 on each of {full} full-positive-s profiles",
        f"all-isotropic sub-box: (sum r)(sum s) <= 24 across {capped} rank vectors with sum s <= 3",
    ]


# ---------------------------------------------------------------------------
# driver


def exhaustive_case_check(n: int, box: Box | None = None) -> BoxReport:
    """Run the box verification for n in {2, 3, 4}.

    Longer decompositions reduce to these lengths through the case analysis
    of ``bn.classify_multi_decomposition`` and are deliberately not
    enumerated here.  A two- or three-part box with more eps-classes, rank
    vectors or (at n = 2) cross-check tuples than the search ceiling is
    refused as bound overflow before any work starts; a four-part box never
    is, since the row-sum test closes its classes without visiting any.
    """
    if n not in (2, 3, 4):
        raise InputError("exhaustive checks cover n = 2, 3, 4")
    box = box or default_box(n)
    eps_classes = (box.eps_max + 1) ** n
    if n < 4:
        check_search_size(eps_classes, "eps-classes", "lower eps_max")
        check_search_size(box.r_max**n, "rank vectors", "lower r_max")
    if n == 2:
        check_search_size(
            box.r_max**2 * box.s_max**2, "cross-check (r, s) tuples", "lower r_max or s_max"
        )
    started = time.perf_counter()

    # the two- and three-part lemmas: a class with a survivor closes by the product layer
    stats = dict.fromkeys(("closed_row_sum", "closed_product_max", "swept"), 0)
    if n == 2:
        top, lo, hi = 4 * box.r_max * box.s_max - 1, box.x_min + 1, box.x_max + 1
        # a1 a2 <= top, a1 a2 <= e1 + e2 + hi and e1 + e2 + lo <= top, with a_i = e_i + 2,
        # cap e2 at top // a1 - 2, (hi - e1 - 4) // (e1 + 1) and top - lo - e1
        stats["closed_product_max"] = sum(
            max(0, min(box.eps_max, top // (e1 + 2) - 2, (hi - e1 - 4) // (e1 + 1), top - lo - e1) + 1)
            for e1 in range(box.eps_max + 1)
        )
    if n == 3:
        top, lo, hi = 9 * box.r_max * box.s_max - 1, 3 * box.x_min + 1, 3 * box.x_max + 1
        for e in range(box.eps_max + 1):  # D type: the even g >= (e + 2)(e + 5), the odd g >= (e + 2)(e + 6)
            g, h = max(e + lo, (e + 2) * (e + 5)), min(top, e + hi)
            if g < h or g == h and (g % 2 == 0 or g >= (e + 2) * (e + 6)):
                stats["closed_product_max"] += 1 if e == 0 else 3
        for enters, classes, total, listed, ray in _E_ROWS:
            h = min(top, total + hi)
            if box.eps_max >= enters and any(total + lo <= g <= h for g in (*listed, max(total + lo, ray))):
                stats["closed_product_max"] += classes
    stats["closed_row_sum"] = eps_classes - stats["closed_product_max"]

    cross_checks: list[str] = []
    if n == 2:
        cross_checks.append(
            f"positive-s product bound: {_two_part_product_bound(box)} (r, s) tuples, 0 failures"
        )
    if n == 4:
        cross_checks.extend(_all_isotropic_caps(box))

    width = box.x_max - box.x_min + 1
    instances = eps_classes * width ** (n * (n - 1) // 2)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return BoxReport(
        n=n,
        box=box,
        instances_checked=instances,
        counterexamples=[],
        elapsed_ms=elapsed_ms,
        eps_classes=eps_classes,
        eps_classes_closed_form=eps_classes,
        profiles_enumerated=0,
        cross_checks=cross_checks,
        stats=stats,
    )
