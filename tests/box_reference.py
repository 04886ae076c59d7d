"""The box check's product layer and slice sweep, kept as a test reference.

``k3bn.cases`` settles every eps-class in closed form (the two- and
three-part lemmas of its module docstring), so it no longer computes a
product maximum, lists surviving genera, visits the three-part classes the
row-sum test leaves open, sweeps a slice or re-checks a counterexample.
These are the functions it used to, unchanged, so that the differential
tests can check the closed forms against the layered procedure they
replace.  The sweep decides each profile with ``classify``'s split search.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from math import prod
from operator import getitem
from typing import Iterator

from k3bn.cases import Box, FiltrationProfile, enumerate_exceptional_triples, profile_feasible
from k3bn.errors import Frozen, InputError, is_int
from k3bn.profiles import DecompositionProfile, _first_partition_certificate


class BoxCounterexample(Frozen):
    """A failing profile with violating filtration data, re-verifiable from scratch."""

    __slots__ = ("eps", "upper_x", "r", "s", "genus", "note")

    def __init__(
        self,
        eps: tuple[int, ...],
        upper_x: tuple[int, ...],
        r: tuple[int, ...],
        s: tuple[int, ...],
        genus: int,
        note: str = "",
    ) -> None:
        self._init(eps, upper_x, r, s, genus, note)

    def to_dict(self) -> dict:
        return {
            "kind": "partition",
            "eps": list(self.eps),
            "upper_x": list(self.upper_x),
            "r": list(self.r),
            "s": list(self.s),
            "genus": self.genus,
            "note": self.note,
        }


def _is_failing(eps: tuple[int, ...], upper_x: tuple[int, ...]) -> bool:
    """2-connected with no certifying split: ``classify``'s split search finds none.

    The search alone decides both: a profile that is not 2-connected has a
    split (L, R) with crossing c <= 1, and such a split certifies itself.
    With a = L^2/2 and b = R^2/2 the genus is a + b + c + 1 and the floors
    are max(a + 2, 1) and max(b + 2, 1), so their product minus the genus is
    (a + 1)(b + 1) + 2 - c >= 1 when a, b >= -1; 1 - a - c >= 2 when
    a <= -2 and b >= -1 (and symmetrically); -(a + b + c) >= 3 when
    a, b <= -2.
    """
    profile = DecompositionProfile.from_upper(tuple(2 * e for e in eps), upper_x)
    return _first_partition_certificate(profile) is None


def verify_counterexample(n: int, cex: BoxCounterexample) -> bool:
    """Recompute a reported counterexample from scratch.

    Reports that fail this re-verification, malformed ones included, are
    false alarms and must be rejected by callers.
    """
    shaped = len(cex.eps) == len(cex.r) == len(cex.s) == n and len(cex.upper_x) == n * (n - 1) // 2
    if not shaped or not all(map(is_int, (*cex.upper_x, cex.genus))):
        return False
    try:  # ranks below 1, negative eps, non-integer entries, fewer than two parts
        fp = FiltrationProfile(tuple(zip(cex.r, cex.s, cex.eps)))
    except InputError:
        return False
    genus = sum(cex.eps) + sum(cex.upper_x) + 1
    if genus != cex.genus or not profile_feasible(fp) or fp.sum_r * fp.sum_s <= genus:
        return False
    return _is_failing(cex.eps, cex.upper_x)


@lru_cache(maxsize=None)
def _chain_r_vectors(n: int, r_max: int, last: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Chain-feasible rank vectors ending in `last`, one bucket per call.

    The bucket lists (sum, vector) sorted by decreasing sum, which lets the
    maximization below cut off early.
    """
    vectors: list[tuple[int, tuple[int, ...]]] = []

    def grow(suffix: tuple[int, ...]) -> None:
        if len(suffix) == n:
            vectors.append((sum(suffix), suffix))
            return
        for v in range(1, min(r_max, sum(suffix)) + 1):
            grow((v, *suffix))

    grow((last,))
    return tuple(sorted(vectors, reverse=True))


_NO_CAP = -(10**9)  # below s_min: drives any sum of caps within the box negative


@lru_cache(maxsize=None)
def _cap_row(e: int, r_max: int, s_min: int, s_max: int) -> tuple[int, ...]:
    """Caps min(s_max, (e + 1) // r) of s indexed by r <= r_max; _NO_CAP below s_min."""
    caps = (min(s_max, (e + 1) // r) for r in range(1, r_max + 1))
    return (_NO_CAP, *(c if c >= s_min else _NO_CAP for c in caps))


def _max_fp_product(
    n: int, eps: tuple[int, ...], box: Box, floor: int = -1
) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """Exact max of (sum r)(sum s) over feasible filtration data, if above floor.

    Returns (max, r, s) for the first feasible (r, s) in scan order that
    attains the maximum, or None when no feasible product exceeds floor.
    For fixed ranks the product is maximized by pushing every s to its cap,
    so only rank vectors are enumerated.  Caps are >= 0 and the last >= 1,
    so None at the default floor means an empty feasible set.  A bucket is
    left once its rank sum times s_room, a bound on sum s at its last rank,
    cannot beat the best product so far.
    """
    rows = [_cap_row(e, box.r_max, box.s_min, box.s_max) for e in eps]
    head_room = sum(min(box.s_max, e + 1) for e in eps[:-1])
    best, r = floor, None
    for last in range(1, min(box.r_max, eps[-1] + 1) + 1):
        s_room = head_room + rows[-1][last]
        for rsum, vec in _chain_r_vectors(n, box.r_max, last):
            if rsum * s_room <= best:
                break
            p = rsum * sum(map(getitem, rows, vec))
            if p > best:
                best, r = p, vec
    return None if r is None else (best, r, tuple(map(getitem, rows, r)))


def _surviving_genera(n: int, eps: tuple[int, ...], box: Box, pmax: int) -> list[int]:
    """Genera below pmax that a failing profile could have: the row-sum test.

    Closed form of the ``k3bn.cases`` docstring: the genus loop runs only
    over the band where c g - E - 2 - 2n < 0 <= c g - E - 2 - n, c = num / den.
    """
    total_eps = sum(eps)
    n_pairs = n * (n - 1) // 2
    lo = max(1, total_eps + n_pairs * box.x_min + 1)
    hi = min(pmax - 1, total_eps + n_pairs * box.x_max + 1)
    a = [e + 2 for e in eps]
    den = prod(a)
    num = sum(den // ai for ai in a) + (2 - n) * den
    if num <= 0:
        return []
    band_lo = max(lo, -(-(total_eps + 2 + n) * den // num))
    band_hi = max(band_lo, min(hi + 1, -(-(total_eps + 2 + 2 * n) * den // num)))
    band = [
        g for g in range(band_lo, band_hi)
        if sum(map(g.__floordiv__, a)) >= (n - 2) * g + total_eps + 2 + n
    ]
    return band + list(range(band_hi, hi + 1))


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


def _check_eps_class(
    n: int, box: Box, eps: tuple[int, ...], max_cex: int
) -> tuple[str, int, list[BoxCounterexample]]:
    """Decide one eps-class: (deciding layer, profiles_enumerated, counterexamples)."""
    genera = _surviving_genera(n, eps, box, n * box.r_max * n * box.s_max)
    if not genera:
        return "closed_row_sum", 0, []
    # no product above the smallest genus: none survives (every genus is >= 1)
    pmax, r, s = _max_fp_product(n, eps, box, genera[0]) or (0, (), ())
    genera = genera[: bisect_left(genera, pmax)]  # genera ascend: keep those below pmax
    if not genera:
        return "closed_product_max", 0, []
    total_eps = sum(eps)
    n_pairs = n * (n - 1) // 2
    enumerated = 0
    cexs: list[BoxCounterexample] = []
    for g in genera:
        coord_sum = g - total_eps - 1
        for upper_x in _iter_fixed_sum(n_pairs, box.x_min, box.x_max, coord_sum):
            enumerated += 1
            if not _is_failing(eps, upper_x):
                continue
            cexs.append(
                BoxCounterexample(
                    eps=eps,
                    upper_x=upper_x,
                    r=r,
                    s=s,
                    genus=g,
                    note=f"(sum r)(sum s) = {sum(r) * sum(s)} > genus with no certifying split",
                )
            )
            if len(cexs) >= max_cex:
                return "swept", enumerated, cexs
    return "swept", enumerated, cexs


def _row_sum_open_classes(box: Box) -> set[tuple[int, int, int]]:
    """The three-part eps-classes the row-sum test can leave open (c > 0).

    Those whose legs eps_i + 1 permute an exceptional triple (module
    docstring); every other class of every n closes without a visit.
    """
    return {
        eps
        for triple in enumerate_exceptional_triples(box.eps_max + 1)
        for eps in itertools.permutations(tuple(leg - 1 for leg in triple))
    }


def _has_survivor(eps: tuple[int, int, int], box: Box) -> bool:
    """Whether some genus in [lo, hi] passes the three-part row-sum test.

    hi stays below the analytic bound 9 r_max s_max on P.  Every genus from
    the root of c g = E + 8 up passes and none below the root of
    c g = E + 5 (module docstring), so only the band between the roots is
    tested genus by genus, and only up to the first genus that passes.
    """
    total_eps = sum(eps)
    lo = max(1, total_eps + 3 * box.x_min + 1)
    hi = min(9 * box.r_max * box.s_max - 1, total_eps + 3 * box.x_max + 1)
    a = [e + 2 for e in eps]
    den = prod(a)
    num = sum(den // ai for ai in a) - den  # c = num / den > 0 on an open class
    band_lo = max(lo, -(-(total_eps + 5) * den // num))
    band_hi = max(band_lo, min(hi + 1, -(-(total_eps + 8) * den // num)))
    return band_hi <= hi or any(
        sum(map(g.__floordiv__, a)) >= g + total_eps + 5 for g in range(band_lo, band_hi)
    )
