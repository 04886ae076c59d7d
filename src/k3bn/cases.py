"""Exhaustive machine verification over bounded integer boxes.

The statement verified by :func:`exhaustive_case_check`, for n parts:

    for every filtration profile (r_i, s_i, eps_i) and decomposition profile
    (sq = 2*eps, x) inside the box, if the filtration data is feasible, the
    decomposition profile is numerically 2-connected, and the product
    (sum r)(sum s) exceeds the genus, then some split of the parts into two
    groups has h^0 floors whose product exceeds the genus.

Feasibility of the filtration data means: r_i >= 1, r_i s_i <= eps_i + 1,
r_i <= r_{i+1} + ... + r_n for i < n, and s_n >= 1.  The h^0 floor of a
group is max(chi, 1), chi computed from the profile.

A raw sweep of the default four-part box has ~10^13 instances, so the
checker decides the same quantified statement exactly in three layers, the
cheapest first:

1.  The row-sum test.  Every one-part split of a failing profile of genus g
    forces row_i >= g + 1 - eps_i - g // (eps_i + 2); the rows sum to twice
    the x-coordinate sum, 2 (g - E - 1) with E = sum eps, so genera whose
    forced row bounds exceed that are ruled out, and so are genera <= 0
    (floors are >= 1).  The test bounds g by the analytic
    P <= (n r_max)(n s_max) and is symmetric in eps, so it runs once per
    sorted eps multiset.  For n >= 4 it closes every class:
    sum_i (g + 1 - eps_i - g // (eps_i + 2)) >= 2g + 4 - E > 2 (g - E - 1),
    since each floor is at most g / 2.
2.  For classes with a surviving genus, the exact maximum P of
    (sum r)(sum s) over feasible filtration data in the box.  Genera >= P
    admit no violating filtration data; an empty feasible set closes the
    class.
3.  Genera that survive both get an exhaustive slice enumeration (all
    x-matrices with the matching coordinate sum), each profile checked
    against every split; any failing profile is paired with an explicit
    violating filtration and recorded as a counterexample.

Layer 1 keeps a superset of the genera the exact maximum would keep, so the
order changes no count and no counterexample.

Counterexamples re-verify from scratch via :func:`verify_counterexample`;
an empty list is the expected outcome.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InputError, check_search_size

_MAGNITUDE_CAP = 10**6  # box entries beyond this are rejected as bound overflow


# ---------------------------------------------------------------------------
# filtration profiles


@dataclass(frozen=True)
class FiltrationProfile:
    """Length-n list of (r_i, s_i, eps_i) integer triples, eps_i = sq_i / 2."""

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(e) for e in self.entries)
        if len(entries) < 2:
            raise InputError("a filtration profile needs at least two entries")
        for k, entry in enumerate(entries):
            if len(entry) != 3 or any(
                not isinstance(v, int) or isinstance(v, bool) for v in entry
            ):
                raise InputError(f"entries[{k}] must be an integer triple")
            r, _, eps = entry
            if r < 1:
                raise InputError(f"entries[{k}]: rank {r} must be at least 1")
            if eps < 0:
                raise InputError(f"entries[{k}]: eps {eps} must be nonnegative")
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
# the determinant condition, Dynkin labels, AM-GM


def enumerate_exceptional_triples(a_max: int) -> list[tuple[int, int, int]]:
    """All a1 >= a2 >= a3 >= 1 with a1 <= a_max and a1 a2 a3 - a1 - a2 - a3 - 2 < 0.

    Closed form, lexicographically sorted.  For a3 >= 2 the expression is
    already 0 at (2, 2, 2) and grows in every entry; for a3 = 1 it is
    (a1 - 1)(a2 - 1) - 4, negative for a2 = 1 and, with a2 >= 2, only at
    (2, 2, 1), (3, 2, 1) and (4, 2, 1).
    """
    if a_max < 1:
        raise InputError("a_max must be at least 1")
    check_search_size(a_max, "values of a1", "lower a_max")
    out = []
    for a1 in range(1, a_max + 1):
        out.append((a1, 1, 1))
        if 2 <= a1 <= 4:
            out.append((a1, 2, 1))
    return out


def dynkin_label(a1: int, a2: int, a3: int) -> str:
    """Label an exceptional triple by the diagram with those leg lengths.

    (a, 1, 1) are the legs of D_{a+3}; (a, 2, 1) with a in {2, 3, 4} the legs
    of E_{a+4}.
    """
    if not (a1 >= a2 >= a3 >= 1):
        raise InputError("triple must be sorted descending with positive entries")
    if a1 * a2 * a3 - a1 - a2 - a3 - 2 >= 0:
        raise InputError(f"({a1},{a2},{a3}) is not an exceptional triple")
    if (a2, a3) == (1, 1):
        return f"D{a1 + 3}"
    if (a2, a3) == (2, 1):
        return f"E{a1 + 4}"
    raise InputError(f"({a1},{a2},{a3}) matches no leg pattern")  # pragma: no cover


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


# ---------------------------------------------------------------------------
# boxes and reports


@dataclass(frozen=True)
class Box:
    """Finite search box for the exhaustive check; every bound is inclusive."""

    r_max: int
    s_min: int
    s_max: int
    eps_max: int
    x_min: int
    x_max: int

    def __post_init__(self) -> None:
        vals = (self.r_max, self.s_min, self.s_max, self.eps_max, self.x_min, self.x_max)
        if any(not isinstance(v, int) or isinstance(v, bool) for v in vals):
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


@dataclass(frozen=True)
class BoxCounterexample:
    """A re-verifiable instance on which a checked statement failed."""

    kind: str  # "partition" | "product_identity" | "subbox"
    eps: tuple[int, ...] | None = None
    upper_x: tuple[int, ...] | None = None
    r: tuple[int, ...] | None = None
    s: tuple[int, ...] | None = None
    genus: int | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eps": list(self.eps) if self.eps is not None else None,
            "upper_x": list(self.upper_x) if self.upper_x is not None else None,
            "r": list(self.r) if self.r is not None else None,
            "s": list(self.s) if self.s is not None else None,
            "genus": self.genus,
            "note": self.note,
        }


@dataclass
class BoxReport:
    """Outcome of one box run; counterexamples are expected to be empty.

    instances_checked counts the decomposition profiles in the box, every
    one of which the layered procedure decides; eps_classes_closed_form is
    how many eps-classes were settled purely arithmetically, and
    profiles_enumerated how many profiles needed the explicit slice sweep.
    """

    n: int
    box: Box
    instances_checked: int
    counterexamples: list[BoxCounterexample]
    elapsed_ms: float
    eps_classes: int
    eps_classes_closed_form: int
    profiles_enumerated: int
    cross_checks: list[str]

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
        }


# ---------------------------------------------------------------------------
# the decision procedure


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def _split_tables(
    n: int,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Per split: (left, right, upper-x indices inside left / right / crossing)."""
    pairs = _upper_pairs(n)
    tables = []
    for mask in range(2 ** (n - 1) - 1):
        left = frozenset({0} | {k + 1 for k in range(n - 1) if mask >> k & 1})
        right = tuple(sorted(set(range(n)) - left))
        inside_l, inside_r, cross = [], [], []
        for k, (i, j) in enumerate(pairs):
            if i in left and j in left:
                inside_l.append(k)
            elif i not in left and j not in left:
                inside_r.append(k)
            else:
                cross.append(k)
        tables.append(
            (tuple(sorted(left)), right, tuple(inside_l), tuple(inside_r), tuple(cross))
        )
    return tuple(tables)


@lru_cache(maxsize=None)
def _chain_r_vectors(n: int, r_max: int) -> dict[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Chain-feasible rank vectors bucketed by the last entry.

    Each bucket lists (sum, vector) sorted by decreasing sum, which lets the
    maximization below cut off early.
    """
    vectors: list[tuple[int, ...]] = []

    def grow(suffix: tuple[int, ...]) -> None:
        if len(suffix) == n:
            vectors.append(suffix)
            return
        cap = r_max if not suffix else min(r_max, sum(suffix))
        for v in range(1, cap + 1):
            grow((v, *suffix))

    for last in range(1, r_max + 1):
        grow((last,))
    buckets: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for vec in vectors:
        buckets.setdefault(vec[-1], []).append((sum(vec), vec))
    return {
        last: tuple(sorted(bucket, reverse=True)) for last, bucket in buckets.items()
    }


def _caps(eps: Sequence[int], r: Sequence[int], box: Box) -> tuple[int, ...] | None:
    """Per-index maxima for s given r, or None when some range is empty."""
    caps = []
    for e, ri in zip(eps, r):
        cap = min(box.s_max, (e + 1) // ri)
        if cap < box.s_min:
            return None
        caps.append(cap)
    return tuple(caps)


def _max_fp_product(n: int, eps: tuple[int, ...], box: Box) -> int | None:
    """Exact max of (sum r)(sum s) over feasible filtration data, None if empty.

    For fixed ranks the product is maximized by pushing every s to its cap,
    so only rank vectors are enumerated.
    """
    buckets = _chain_r_vectors(n, box.r_max)
    best: int | None = None
    s_room = n * box.s_max
    for last in range(1, min(box.r_max, eps[-1] + 1) + 1):
        for rsum, vec in buckets.get(last, ()):
            if best is not None and rsum * s_room <= best:
                break
            caps = _caps(eps, vec, box)
            if caps is None:
                continue
            p = rsum * sum(caps)
            if best is None or p > best:
                best = p
    return best


def _violating_fp(
    n: int, eps: tuple[int, ...], box: Box, genus: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Some feasible (r, s) in the box with (sum r)(sum s) > genus."""
    buckets = _chain_r_vectors(n, box.r_max)
    for last in range(1, min(box.r_max, eps[-1] + 1) + 1):
        for rsum, vec in buckets.get(last, ()):
            caps = _caps(eps, vec, box)
            if caps is None:
                continue
            if rsum * sum(caps) > genus:
                return vec, caps
    return None


def _surviving_genera(n: int, eps: tuple[int, ...], box: Box, pmax: int) -> list[int]:
    """Genera below pmax that a failing profile could have: the row-sum test."""
    total_eps = sum(eps)
    n_pairs = n * (n - 1) // 2
    lo = max(1, total_eps + n_pairs * box.x_min + 1)
    hi = min(pmax - 1, total_eps + n_pairs * box.x_max + 1)
    out = []
    for g in range(lo, hi + 1):
        forced = sum(g + 1 - e - g // (e + 2) for e in eps)
        if 2 * (g - total_eps - 1) >= forced:
            out.append(g)
    return out


@lru_cache(maxsize=4096)
def _row_sum_survivors(n: int, eps_multiset: tuple[int, ...], box: Box) -> tuple[int, ...]:
    """Layer 1 under the analytic bound P <= (n r_max)(n s_max), per eps multiset."""
    return tuple(_surviving_genera(n, eps_multiset, box, n * box.r_max * n * box.s_max))


def _iter_fixed_sum(length: int, lo: int, hi: int, total: int) -> Iterator[tuple[int, ...]]:
    """Tuples in [lo, hi]^length with the given coordinate sum."""
    cur = [0] * length

    def rec(k: int, rem: int) -> Iterator[tuple[int, ...]]:
        if k == length - 1:
            if lo <= rem <= hi:
                cur[k] = rem
                yield tuple(cur)
            return
        left = length - k - 1
        for v in range(max(lo, rem - left * hi), min(hi, rem - left * lo) + 1):
            cur[k] = v
            yield from rec(k + 1, rem - v)

    yield from rec(0, total)


def _is_failing(
    n: int, eps: tuple[int, ...], upper_x: tuple[int, ...], genus: int
) -> bool:
    """2-connected with every split's h^0-floor product at most the genus."""
    for left, right, inside_l, inside_r, cross in _split_tables(n):
        if sum(upper_x[k] for k in cross) < 2:
            return False
        chi_l = sum(eps[i] for i in left) + sum(upper_x[k] for k in inside_l) + 2
        chi_r = sum(eps[i] for i in right) + sum(upper_x[k] for k in inside_r) + 2
        if max(chi_l, 1) * max(chi_r, 1) > genus:
            return False
    return True


def _check_eps_class(
    n: int, box: Box, eps: tuple[int, ...], max_cex: int
) -> tuple[bool, int, list[BoxCounterexample]]:
    """Decide one eps-class: (closed_form, profiles_enumerated, counterexamples)."""
    genera = _row_sum_survivors(n, tuple(sorted(eps)), box)
    if genera:
        pmax = _max_fp_product(n, eps, box)
        genera = [g for g in genera if pmax is not None and g < pmax]
    if not genera:
        return True, 0, []
    total_eps = sum(eps)
    n_pairs = n * (n - 1) // 2
    enumerated = 0
    cexs: list[BoxCounterexample] = []
    for g in genera:
        coord_sum = g - total_eps - 1
        for upper_x in _iter_fixed_sum(n_pairs, box.x_min, box.x_max, coord_sum):
            enumerated += 1
            if not _is_failing(n, eps, upper_x, g):
                continue
            fp = _violating_fp(n, eps, box, g)
            if fp is None:
                continue
            r, s = fp
            cexs.append(
                BoxCounterexample(
                    kind="partition",
                    eps=eps,
                    upper_x=upper_x,
                    r=r,
                    s=s,
                    genus=g,
                    note=f"(sum r)(sum s) = {sum(r) * sum(s)} > genus with no certifying split",
                )
            )
            if len(cexs) >= max_cex:
                return False, enumerated, cexs
    return False, enumerated, cexs


# ---------------------------------------------------------------------------
# targeted sub-box cross-checks


def _two_part_product_bound(box: Box) -> tuple[int, list[BoxCounterexample]]:
    """(r1+r2)(s1+s2) <= (r1 s1 + 1)(r2 s2 + 1) whenever every entry is >= 1."""
    checked = 0
    bad: list[BoxCounterexample] = []
    rng_r = range(1, box.r_max + 1)
    rng_s = range(1, box.s_max + 1)
    for r1 in rng_r:
        for r2 in rng_r:
            for s1 in rng_s:
                for s2 in rng_s:
                    checked += 1
                    if (r1 + r2) * (s1 + s2) > (r1 * s1 + 1) * (r2 * s2 + 1):
                        bad.append(
                            BoxCounterexample(
                                kind="product_identity",
                                r=(r1, r2),
                                s=(s1, s2),
                                note="positive-s product bound failed",
                            )
                        )
    return checked, bad


def _all_isotropic_caps(n: int, box: Box) -> tuple[list[str], list[BoxCounterexample]]:
    """Four-part sub-box with every eps zero: the two product caps.

    With eps = 0 feasibility pins s_i <= 1 with equality only at r_i = 1 and
    forces r_n = s_n = 1.  Instances with sum s = 4 must hit the product 16
    exactly; instances with sum s <= 3 stay at or below 24.
    """
    eps = (0,) * n
    buckets = _chain_r_vectors(n, box.r_max)
    notes: list[str] = []
    bad: list[BoxCounterexample] = []
    full_s = 0
    capped = 0
    for rsum, vec in buckets.get(1, ()):
        caps = _caps(eps, vec, box)
        if caps is None:
            continue
        if sum(caps) >= n:
            full_s += 1
            if vec != (1,) * n or rsum * n != n * n:
                bad.append(
                    BoxCounterexample(
                        kind="subbox", eps=eps, r=vec, s=caps,
                        note="full-positive s family is not the rank-one profile",
                    )
                )
        capped += 1
        if rsum * min(sum(caps), n - 1) > 24:
            bad.append(
                BoxCounterexample(
                    kind="subbox", eps=eps, r=vec, s=caps,
                    note=f"(sum r)(sum s) = {rsum * min(sum(caps), n - 1)} > 24 with sum s <= {n - 1}",
                )
            )
    notes.append(
        f"all-isotropic sub-box: (sum r)(sum s) = 16 on each of {full_s} full-positive-s profiles"
    )
    notes.append(
        f"all-isotropic sub-box: (sum r)(sum s) <= 24 across {capped} rank vectors with sum s <= 3"
    )
    return notes, bad


# ---------------------------------------------------------------------------
# driver


def exhaustive_case_check(
    n: int,
    box: Box | None = None,
    *,
    max_counterexamples: int = 50,
) -> BoxReport:
    """Run the box verification for n in {2, 3, 4}.

    Longer decompositions reduce to these lengths through the case analysis
    in :mod:`k3bn.bn` and are deliberately not enumerated here.  A box with
    more eps-classes, rank vectors or (at n = 2) cross-check tuples than the
    search ceiling is refused as bound overflow before any work starts.
    """
    if n not in (2, 3, 4):
        raise InputError("exhaustive checks cover n = 2, 3, 4")
    box = box or default_box(n)
    check_search_size((box.eps_max + 1) ** n, "eps-classes", "lower eps_max")
    check_search_size(box.r_max**n, "rank vectors", "lower r_max")
    if n == 2:
        check_search_size(
            box.r_max**2 * box.s_max**2, "cross-check (r, s) tuples", "lower r_max or s_max"
        )
    started = time.perf_counter()

    eps_space = list(itertools.product(range(box.eps_max + 1), repeat=n))
    closed_form = 0
    enumerated = 0
    counterexamples: list[BoxCounterexample] = []
    for eps in eps_space:
        closed, count, cexs = _check_eps_class(
            n, box, eps, max_counterexamples - len(counterexamples)
        )
        closed_form += closed
        enumerated += count
        counterexamples.extend(cexs)
        if len(counterexamples) >= max_counterexamples:
            break

    cross_checks: list[str] = []
    if n == 2:
        checked, bad = _two_part_product_bound(box)
        cross_checks.append(
            f"positive-s product bound: {checked} (r, s) tuples, {len(bad)} failures"
        )
        counterexamples.extend(bad)
    if n == 4:
        notes, bad = _all_isotropic_caps(n, box)
        cross_checks.extend(notes)
        counterexamples.extend(bad)

    width = box.x_max - box.x_min + 1
    instances = (box.eps_max + 1) ** n * width ** (n * (n - 1) // 2)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return BoxReport(
        n=n,
        box=box,
        instances_checked=instances,
        counterexamples=counterexamples,
        elapsed_ms=elapsed_ms,
        eps_classes=len(eps_space),
        eps_classes_closed_form=closed_form,
        profiles_enumerated=enumerated,
        cross_checks=cross_checks,
    )


def verify_counterexample(n: int, cex: BoxCounterexample) -> bool:
    """Recompute a reported counterexample from scratch.

    Reports that fail this re-verification are false alarms and must be
    rejected by callers.
    """
    if cex.kind == "partition":
        if cex.eps is None or cex.upper_x is None or cex.r is None or cex.s is None:
            return False
        fp = FiltrationProfile(tuple(zip(cex.r, cex.s, cex.eps)))
        if not profile_feasible(fp):
            return False
        total_eps = sum(cex.eps)
        genus = total_eps + sum(cex.upper_x) + 1
        if cex.genus is not None and genus != cex.genus:
            return False
        if fp.sum_r * fp.sum_s <= genus:
            return False
        return _is_failing(n, cex.eps, cex.upper_x, genus)
    if cex.kind == "product_identity":
        if cex.r is None or cex.s is None:
            return False
        (r1, r2), (s1, s2) = cex.r, cex.s
        if min(r1, r2, s1, s2) < 1:
            return False
        return (r1 + r2) * (s1 + s2) > (r1 * s1 + 1) * (r2 * s2 + 1)
    if cex.kind == "subbox":
        if cex.r is None or cex.s is None:
            return False
        r, s = cex.r, cex.s
        if len(r) != n or any(v < 1 for v in r):
            return False
        if any(r[i] > sum(r[i + 1 :]) for i in range(n - 1)):
            return False
        if any(r[i] * s[i] > 1 for i in range(n)):
            return False
        if sum(s) >= n:
            return sum(r) * sum(s) != n * n
        return sum(r) * sum(s) > 24
    return False
