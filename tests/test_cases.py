import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import box_reference as ref
import k3bn.cases as cases
import k3bn.profiles as profiles
from box_reference import BoxCounterexample, verify_counterexample
from k3bn import (
    Box,
    FiltrationProfile,
    InputError,
    default_box,
    enumerate_exceptional_triples,
    exhaustive_case_check,
    profile_feasible,
)
from k3bn.errors import SEARCH_CEILING
from library_reference import am_gm, dynkin_label, two_connected


# ---------------------------------------------------------------------------
# filtration profiles


def test_profile_feasible_examples():
    assert profile_feasible(FiltrationProfile(((1, 1, 0), (1, 1, 0))))
    assert not profile_feasible(FiltrationProfile(((2, 1, 0), (1, 1, 0))))
    assert not profile_feasible(FiltrationProfile(((1, 1, 0), (1, 1, 0), (1, 0, 0))))


def test_profile_validation():
    with pytest.raises(InputError):
        FiltrationProfile(((0, 1, 0), (1, 1, 0)))  # rank 0
    with pytest.raises(InputError):
        FiltrationProfile(((1, 1, -1), (1, 1, 0)))  # negative eps
    with pytest.raises(InputError):
        FiltrationProfile(((1, 1, 0),))  # too short


def test_profile_totals():
    fp = FiltrationProfile(((2, -1, 3), (1, 2, 0)))
    assert fp.sum_r == 3
    assert fp.sum_s == 1
    assert fp.eps == (3, 0)


# ---------------------------------------------------------------------------
# exceptional triples and Dynkin labels


def test_triples_a_max_4():
    assert enumerate_exceptional_triples(4) == [
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 1),
        (3, 1, 1),
        (3, 2, 1),
        (4, 1, 1),
        (4, 2, 1),
    ]


def test_triples_boundary_cases_excluded():
    triples = set(enumerate_exceptional_triples(10))
    assert (5, 2, 1) not in triples  # 10 - 8 - 2 = 0
    assert (2, 2, 2) not in triples  # 8 - 6 - 2 = 0


def test_triples_shape_stabilizes():
    for a_max in (5, 9, 30):
        expected = {(a, 1, 1) for a in range(1, a_max + 1)}
        expected |= {(2, 2, 1), (3, 2, 1), (4, 2, 1)}
        assert set(enumerate_exceptional_triples(a_max)) == expected


def test_triples_rejects_bad_bound():
    with pytest.raises(InputError):
        enumerate_exceptional_triples(0)
    with pytest.raises(InputError, match="bound overflow"):
        enumerate_exceptional_triples(SEARCH_CEILING + 1)


@pytest.mark.parametrize("a_max", [True, False, 3.0, 2.5, "5", None])
def test_triples_reject_a_bound_that_is_not_an_int(a_max):
    # a bool is not an integer input, and a float or a str would reach range() or "<"
    with pytest.raises(InputError, match="^a_max must be an integer$"):
        enumerate_exceptional_triples(a_max)


def brute_force_triples(a_max):
    return [
        (a1, a2, a3)
        for a1 in range(1, a_max + 1)
        for a2 in range(1, a1 + 1)
        for a3 in range(1, a2 + 1)
        if a1 * a2 * a3 - a1 - a2 - a3 - 2 < 0
    ]


def test_triples_closed_form_matches_brute_force():
    for a_max in range(1, 61):
        assert enumerate_exceptional_triples(a_max) == brute_force_triples(a_max)


def test_dynkin_labels():
    assert dynkin_label(4, 2, 1) == "E8"
    assert dynkin_label(3, 2, 1) == "E7"
    assert dynkin_label(2, 2, 1) == "E6"
    assert dynkin_label(3, 1, 1) == "D6"
    assert dynkin_label(1, 1, 1) == "D4"


def test_dynkin_rejects_non_exceptional():
    with pytest.raises(InputError):
        dynkin_label(5, 2, 1)
    with pytest.raises(InputError):
        dynkin_label(1, 2, 1)  # not sorted


@pytest.mark.parametrize(
    "triple, bad",
    [
        ((2.5, 1, 1), ["a1"]),
        ((True, 1, 1), ["a1"]),
        ((1, True, True), ["a2", "a3"]),
        ((3.0, 1, 1), ["a1"]),
        (("5", "1", 1), ["a1", "a2"]),
        ((4, 2, 1.0), ["a3"]),
    ],
)
def test_dynkin_rejects_entries_that_are_not_ints(triple, bad):
    # once 'D5.5' for (2.5, 1, 1) and 'D4' for (True, 1, 1); every bad entry is listed
    with pytest.raises(InputError) as exc:
        dynkin_label(*triple)
    assert exc.value.violations == [f"{a} must be an integer" for a in bad]


# ---------------------------------------------------------------------------
# the product bound


def test_am_gm_examples():
    assert am_gm(3, 3, 3) == (True, True)
    assert am_gm(5, 1, 3) == (True, True)
    assert am_gm(4, 2, 3) == (True, True)


def test_am_gm_small_brute_force():
    for u in range(-20, 21):
        for v in range(-20, 21):
            for c in range(-20, 21):
                basic, strict = am_gm(u, v, c)
                assert basic and strict, (u, v, c)


# ---------------------------------------------------------------------------
# boxes


def test_box_validation():
    with pytest.raises(InputError):
        Box(r_max=0, s_min=-1, s_max=1, eps_max=0, x_min=0, x_max=1)
    with pytest.raises(InputError):
        Box(r_max=1, s_min=2, s_max=1, eps_max=0, x_min=0, x_max=1)
    with pytest.raises(InputError):
        Box(r_max=1, s_min=0, s_max=1, eps_max=0, x_min=2, x_max=1)
    with pytest.raises(InputError):
        Box(r_max=10**7, s_min=-1, s_max=1, eps_max=0, x_min=0, x_max=1)


# the n = 3 boxes of the benchmark's box-verify workload (SEEDED_BOXES in perfbench/workloads.py)
BENCHMARK_BOXES = [Box(r, -r, r, e, -10, xh) for r in (9, 10) for e in (10, 11) for xh in (30, 32)]


def test_default_and_benchmark_boxes_stay_under_the_ceiling():
    for n, box in [(n, default_box(n)) for n in (2, 3, 4)] + [(3, b) for b in BENCHMARK_BOXES]:
        assert exhaustive_case_check(n, box).counterexamples == []


def test_default_boxes():
    assert default_box(2) == Box(12, -12, 12, 12, -12, 40)
    assert default_box(3) == Box(8, -8, 8, 8, -8, 24)
    assert default_box(4) == Box(8, -8, 8, 8, -8, 24)
    with pytest.raises(InputError):
        default_box(5)


# ---------------------------------------------------------------------------
# the reference: the product layer and the sweep the closed forms replace


def test_max_fp_product_matches_brute_force():
    # the returned (r, s) is feasible and attains the brute-force maximum
    for n, box in [
        (2, Box(r_max=3, s_min=-3, s_max=3, eps_max=3, x_min=-2, x_max=4)),
        (3, Box(r_max=2, s_min=-2, s_max=2, eps_max=2, x_min=-2, x_max=4)),
        (3, Box(r_max=3, s_min=2, s_max=3, eps_max=3, x_min=-2, x_max=4)),  # some classes empty
    ]:
        for eps in itertools.product(range(box.eps_max + 1), repeat=n):
            best = None
            for r in itertools.product(range(1, box.r_max + 1), repeat=n):
                for s in itertools.product(range(box.s_min, box.s_max + 1), repeat=n):
                    fp = FiltrationProfile(tuple(zip(r, s, eps)))
                    if not profile_feasible(fp):
                        continue
                    p = fp.sum_r * fp.sum_s
                    if best is None or p > best:
                        best = p
            got = ref._max_fp_product(n, eps, box)
            if best is None:
                assert got is None, eps
                continue
            pmax, r, s = got
            fp = FiltrationProfile(tuple(zip(r, s, eps)))
            assert profile_feasible(fp), eps
            assert all(box.s_min <= v <= box.s_max for v in s) and max(r) <= box.r_max, eps
            assert fp.sum_r * fp.sum_s == pmax == best, eps


def test_chain_r_vector_buckets_match_brute_force():
    for n in (2, 3, 4):
        for r_max in range(1, 6):
            for last in range(1, r_max + 1):
                expected = sorted(
                    ((sum(r), r) for r in itertools.product(range(1, r_max + 1), repeat=n)
                     if r[-1] == last and all(r[i] <= sum(r[i + 1 :]) for i in range(n - 1))),
                    reverse=True,
                )
                assert list(ref._chain_r_vectors(n, r_max, last)) == expected


def test_iter_fixed_sum():
    got = sorted(ref._iter_fixed_sum(3, -1, 2, 2))
    expected = sorted(
        t
        for t in itertools.product(range(-1, 3), repeat=3)
        if sum(t) == 2
    )
    assert got == expected


def test_is_failing_known_profile():
    # all-isotropic three-part profile with every product 3: genus 10, every
    # split capped at exactly the genus
    assert ref._is_failing((0, 0, 0), (3, 3, 3))
    # raising any product creates a certifying split
    assert not ref._is_failing((0, 0, 0), (3, 3, 4))
    # non-2-connected data is not a hypothesis instance
    assert not ref._is_failing((0, 0, 0), (1, 0, 3))


def _table_split_tables(n):
    """Per split: (left, right, upper-x indices inside left / right / crossing)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
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
        tables.append((tuple(sorted(left)), right, inside_l, inside_r, cross))
    return tables


def _table_is_failing(n, eps, upper_x, genus):
    """The split test over precomputed index tables: the reference for ``_is_failing``."""
    for left, right, inside_l, inside_r, cross in _table_split_tables(n):
        if sum(upper_x[k] for k in cross) < 2:
            return False
        chi_l = sum(eps[i] for i in left) + sum(upper_x[k] for k in inside_l) + 2
        chi_r = sum(eps[i] for i in right) + sum(upper_x[k] for k in inside_r) + 2
        if max(chi_l, 1) * max(chi_r, 1) > genus:
            return False
    return True


@st.composite
def _split_test_profiles(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    n_pairs = n * (n - 1) // 2
    eps = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return tuple(eps), tuple(draw(st.lists(st.integers(-3, 12), min_size=n_pairs, max_size=n_pairs)))


# random three-part draws fail about once in 3 600 (none at four parts, where the
# row-sum test rules failing profiles out), so failing ones are also given
@settings(max_examples=600, deadline=None)
@given(_split_test_profiles())
@example(((0, 0, 0), (3, 3, 3)))
@example(((1, 0, 0), (6, 6, 4)))
@example(((0, 0, 1), (4, 6, 6)))
@example(((2, 0, 0), (10, 10, 5)))
def test_is_failing_matches_the_table_split_test(profile):
    eps, upper_x = profile
    genus = sum(eps) + sum(upper_x) + 1
    assert ref._is_failing(eps, upper_x) == _table_is_failing(len(eps), eps, upper_x, genus)


def _loop_surviving_genera(n, eps, box, pmax):
    """The row-sum test genus by genus: the reference for its closed form."""
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


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from((2, 3)),
    data=st.data(),
    x=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)).map(sorted),
)
def test_surviving_genera_closed_form_matches_the_loop(n, data, x):
    # small entries make sum 1/(eps_i + 2) exceed 1 at n = 3, where genera survive
    eps = tuple(data.draw(st.lists(st.integers(0, 200) | st.integers(0, 4), min_size=n, max_size=n)))
    box = Box(r_max=1, s_min=0, s_max=1, eps_max=max(eps), x_min=x[0], x_max=x[1])
    hi = sum(eps) + n * (n - 1) // 2 * box.x_max + 1
    # pmax past the interval, or anywhere in it, cutting the tail or the band
    pmax = data.draw(st.just(hi + 2) | st.integers(-1, max(hi, 0) + 1))
    assert ref._surviving_genera(n, eps, box, pmax) == _loop_surviving_genera(n, eps, box, pmax)


def test_surviving_genera_tight_for_all_isotropic():
    box = default_box(3)
    # the necessary row-sum condition first admits genus 10 when eps = 0 ...
    assert ref._surviving_genera(3, (0, 0, 0), box, pmax=12) == [10]
    # ... which the exact product maximum 9 rules out
    assert ref._max_fp_product(3, (0, 0, 0), box)[0] == 9
    assert ref._surviving_genera(3, (0, 0, 0), box, pmax=9) == []


def test_forced_false_alarm_is_detectable(monkeypatch):
    # force the reference's slice sweep by pretending richer filtration data
    # exists: the failing profiles are real, but the fake witness's product 9
    # does not beat their genus 10, so re-verification rejects every report
    monkeypatch.setattr(ref, "_max_fp_product", lambda n, eps, box, floor=-1: (12, (1, 1, 1), (1, 1, 1)))
    layer, enumerated, cexs = ref._check_eps_class(3, default_box(3), (0, 0, 0), 50)
    assert layer == "swept"
    assert enumerated > 0
    assert cexs
    assert all(not verify_counterexample(3, c) for c in cexs)


# ---------------------------------------------------------------------------
# full runs on small boxes


def test_small_boxes_have_no_counterexamples():
    box = Box(r_max=3, s_min=-3, s_max=3, eps_max=2, x_min=-2, x_max=6)
    for n in (2, 3, 4):
        report = exhaustive_case_check(n, box)
        assert report.counterexamples == []
        assert report.eps_classes == 3**n
        assert report.box == box


def test_report_counts_cover_the_box():
    box = Box(r_max=2, s_min=-2, s_max=2, eps_max=1, x_min=-1, x_max=3)
    report = exhaustive_case_check(2, box)
    assert report.instances_checked == (1 + 1) ** 2 * 5
    assert report.eps_classes_closed_form <= report.eps_classes


def test_spec_instance_is_not_a_counterexample():
    # two parts, both (1, 1, 0), product 2: genus 3, violating, certified
    fp = FiltrationProfile(((1, 1, 0), (1, 1, 0)))
    assert profile_feasible(fp)
    genus = 0 + 2 + 1
    assert fp.sum_r * fp.sum_s == 4 > genus
    assert not ref._is_failing((0, 0), (2,))


def test_verify_counterexample_rejects_bogus_reports(monkeypatch):
    fields = {"eps": (0, 0), "upper_x": (2,), "r": (1, 1), "s": (1, 1), "genus": 3}
    bogus = BoxCounterexample(**fields)
    # hypothesis holds but the split {1} | {2} certifies: not a counterexample
    assert not verify_counterexample(2, bogus)
    # one fault each: infeasible ranks, then malformed reports
    faults = [
        {"r": (2, 1)},
        {"eps": (0,)},
        {"eps": (0, 0, 0)},
        {"r": (1,)},
        {"r": (1, 1, 1)},
        {"s": (1,)},
        {"s": (1, 1, 1)},
        {"upper_x": ()},
        {"upper_x": (2, 0)},
        {"upper_x": (2.0,)},
        {"r": (0, 1)},
        {"eps": (-1, 0)},
        {"s": (1.0, 1)},
        {"genus": 4},
        {"genus": 3.0},
    ]
    wrong_n = [(3, bogus), (1, BoxCounterexample(**{**fields, "eps": (0,), "r": (1,), "s": (1,), "upper_x": ()}))]
    # none may raise, and once the split test is forced to accept bogus,
    # each fault alone must still reject it
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(ref, "_is_failing", lambda eps, upper_x: True)
            assert verify_counterexample(2, bogus)
        for n, cex in [(2, BoxCounterexample(**{**fields, **fault})) for fault in faults] + wrong_n:
            assert not verify_counterexample(n, cex), (forced, n, cex)


def _seed_check_eps_class(n, box, eps, max_cex):
    """The procedure before the reorder: exact product maximum first, then rows.

    Profiles are decided by the table split test, so the sweep's use of
    ``classify``'s split search is checked against it too.
    """
    best = ref._max_fp_product(n, eps, box)
    if best is None:
        return True, 0, []
    pmax, r, s = best
    genera = _loop_surviving_genera(n, eps, box, pmax)
    if not genera:
        return True, 0, []
    n_pairs = n * (n - 1) // 2
    enumerated = 0
    cexs = []
    for g in genera:
        coord_sum = g - sum(eps) - 1
        for upper_x in ref._iter_fixed_sum(n_pairs, box.x_min, box.x_max, coord_sum):
            enumerated += 1
            if not _table_is_failing(n, eps, upper_x, g):
                continue
            cexs.append(
                BoxCounterexample(
                    eps=eps, upper_x=upper_x, r=r, s=s, genus=g,
                    note=f"(sum r)(sum s) = {sum(r) * sum(s)} > genus with no certifying split",
                )
            )
            if len(cexs) >= max_cex:
                return False, enumerated, cexs
    return False, enumerated, cexs


@st.composite
def small_boxes(draw):
    s_max = draw(st.integers(1, 4))
    x_min = draw(st.integers(-3, 3))
    return Box(
        r_max=draw(st.integers(1, 4)),
        s_min=draw(st.integers(-4, s_max)),
        s_max=s_max,
        eps_max=draw(st.integers(0, 3)),
        x_min=x_min,
        x_max=x_min + draw(st.integers(0, 8)),
    )


def _caps(eps, r, box):
    """Per-index maxima for s given r, or None when some range is empty: the cap rows' reference."""
    caps = []
    for e, ri in zip(eps, r):
        cap = min(box.s_max, (e + 1) // ri)
        if cap < box.s_min:
            return None
        caps.append(cap)
    return tuple(caps)


def _brute_max_fp_product(n, eps, box):
    """The maximum over every rank vector with each s at its cap, and the first (r, s) attaining it.

    First in the scan's order: by last rank, then by decreasing (sum r, r).  None if nothing is feasible.
    """
    best = None
    ranks = itertools.product(range(1, box.r_max + 1), repeat=n)
    for r in sorted(ranks, key=lambda r: (r[-1], -sum(r), [-v for v in r])):
        caps = _caps(eps, r, box)
        if caps is None or not profile_feasible(FiltrationProfile(tuple(zip(r, caps, eps)))):
            continue
        if best is None or sum(r) * sum(caps) > best[0]:
            best = (sum(r) * sum(caps), r, caps)
    return best


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from((2, 3, 4)), box=small_boxes(), data=st.data())
def test_floored_max_fp_product_matches_brute_force(n, box, data):
    # above the floor: the unfloored result, witness included; at or below it: None
    eps = tuple(data.draw(st.lists(st.integers(0, box.eps_max), min_size=n, max_size=n)))
    best = _brute_max_fp_product(n, eps, box)
    assert ref._max_fp_product(n, eps, box) == best
    for floor in range(-1, 3 * n * box.s_max + 1):
        got = ref._max_fp_product(n, eps, box, floor)
        assert got == (None if best is None or best[0] <= floor else best), floor


def _forcing_patches(mp, forced):
    # replace the reference's exact maximum by another upper bound that
    # depends on eps, with the all-ones (r, s) as its witness, so genera
    # reach the slice sweep and the counterexample cap; real boxes close
    # before the sweep.  Like the real one it answers None at or below the
    # floor, so the floor the caller passes is checked against the seed
    # procedure's
    if forced is not None:
        mp.setattr(
            ref, "_max_fp_product",
            lambda n, eps, box, floor=-1: (
                None if (pmax := min(n * box.r_max * n * box.s_max, forced + 3 * eps[0] + sum(eps))) <= floor
                else (pmax, (1,) * n, (1,) * n)
            ),
        )


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((2, 3, 4)), box=small_boxes(), forced=st.none() | st.integers(0, 40))
def test_row_sum_first_matches_seed_procedure(n, box, forced):
    # the layered reference, row sums first, against the seed order
    with pytest.MonkeyPatch.context() as mp:
        _forcing_patches(mp, forced)
        for eps in itertools.product(range(box.eps_max + 1), repeat=n):
            layer, count, cexs = ref._check_eps_class(n, box, eps, 5)
            assert (layer != "swept", count, cexs) == _seed_check_eps_class(n, box, eps, 5)


def _loop_two_part_product_bound(box):
    """The n = 2 cross-check by brute force: every (r1, r2, s1, s2) tuple of the box."""
    checked = 0
    bad = []
    rng_r = range(1, box.r_max + 1)
    rng_s = range(1, box.s_max + 1)
    for r1, r2, s1, s2 in itertools.product(rng_r, rng_r, rng_s, rng_s):
        checked += 1
        if (r1 + r2) * (s1 + s2) > (r1 * s1 + 1) * (r2 * s2 + 1):
            bad.append({"r": [r1, r2], "s": [s1, s2], "note": "positive-s product bound failed"})
    return checked, bad


def _loop_all_isotropic_caps(n, box):
    """The n = 4 all-isotropic cross-check by its loop over the rank vectors ending in 1."""
    eps = (0,) * n
    bad = []
    full_s = 0
    capped = 0
    for rsum, vec in ref._chain_r_vectors(n, box.r_max, 1):
        caps = _caps(eps, vec, box)
        if caps is None:
            continue
        if sum(caps) >= n:
            full_s += 1
            if vec != (1,) * n or rsum * n != n * n:
                bad.append({"r": vec, "s": caps, "note": "full-positive s family is not the rank-one profile"})
        capped += 1
        if rsum * min(sum(caps), n - 1) > 24:
            bad.append({"r": vec, "s": caps, "note": f"(sum r)(sum s) = {rsum * min(sum(caps), n - 1)} > 24"})
    notes = [
        f"all-isotropic sub-box: (sum r)(sum s) = 16 on each of {full_s} full-positive-s profiles",
        f"all-isotropic sub-box: (sum r)(sum s) <= 24 across {capped} rank vectors with sum s <= 3",
    ]
    return notes, bad


@settings(max_examples=200, deadline=None)
@given(
    box=st.builds(
        lambda r_max, s_max, s_min: Box(r_max, min(s_min, s_max), s_max, 0, 0, 0),
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(-6, 6),
    )
)
def test_all_isotropic_caps_closed_form_matches_the_loop(box):
    notes, bad = _loop_all_isotropic_caps(4, box)
    assert cases._all_isotropic_caps(box) == notes
    assert bad == []


def _loop_exhaustive_case_check(n, box, max_cex=50):
    """The driver before the closed forms: every eps tuple through the seed procedure.

    A class with no surviving genus at the analytic bound n r_max n s_max is
    closed by the row sums alone; the product maximum never exceeds that
    bound, so the seed procedure would close it too, and it is skipped.
    """
    stats = dict.fromkeys(("closed_row_sum", "closed_product_max", "swept"), 0)
    enumerated = 0
    cexs = []
    for eps in itertools.product(range(box.eps_max + 1), repeat=n):
        if not _loop_surviving_genera(n, eps, box, n * box.r_max * n * box.s_max):
            stats["closed_row_sum"] += 1
            continue
        closed, count, found = _seed_check_eps_class(n, box, eps, max_cex - len(cexs))
        stats["closed_product_max" if closed else "swept"] += 1
        enumerated += count
        cexs.extend(c.to_dict() for c in found)
        if len(cexs) >= max_cex:
            break
    cross_checks = []
    if n == 2:
        checked, bad = _loop_two_part_product_bound(box)
        cross_checks.append(f"positive-s product bound: {checked} (r, s) tuples, {len(bad)} failures")
        cexs.extend(bad)
    if n == 4:
        notes, bad = _loop_all_isotropic_caps(n, box)
        cross_checks.extend(notes)
        cexs.extend(bad)
    return {
        "n": n,
        "box": box.to_dict(),
        "instances_checked": (box.eps_max + 1) ** n * (box.x_max - box.x_min + 1) ** (n * (n - 1) // 2),
        "counterexamples": cexs,
        "eps_classes": (box.eps_max + 1) ** n,
        "eps_classes_closed_form": stats["closed_row_sum"] + stats["closed_product_max"],
        "profiles_enumerated": enumerated,
        "cross_checks": cross_checks,
        "stats": stats,
    }


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((2, 3, 4)), box=small_boxes())
def test_report_matches_the_loop_driver(n, box):
    report = exhaustive_case_check(n, box).to_dict()
    del report["elapsed_ms"]
    assert report == _loop_exhaustive_case_check(n, box)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from((4, 5, 6)))
def test_row_sum_test_closes_every_class_from_four_parts(data, n):
    # sum_i (g + 1 - eps_i - g // (eps_i + 2)) >= 2g + 4 - E > 2 (g - E - 1)
    x_min = data.draw(st.integers(-1000, 1000))
    box = Box(
        r_max=data.draw(st.integers(1, 1000)),
        s_min=-1000,
        s_max=data.draw(st.integers(1, 1000)),
        eps_max=data.draw(st.integers(0, 1000)),
        x_min=x_min,
        x_max=x_min + data.draw(st.integers(0, 1000)),
    )
    eps = tuple(data.draw(st.lists(st.integers(0, box.eps_max), min_size=n, max_size=n)))
    pmax = n * box.r_max * n * box.s_max
    assert _loop_surviving_genera(n, eps, box, pmax) == []
    assert ref._surviving_genera(n, eps, box, pmax) == []


def _unreachable(*args):
    raise AssertionError("the box check settles every class in closed form")


def test_four_part_box_never_reaches_the_later_layers(monkeypatch):
    # the row-sum test closes every four-part class
    monkeypatch.setattr(profiles, "_first_partition_certificate", _unreachable)
    report = exhaustive_case_check(4)
    assert report.eps_classes == 9**4
    assert report.eps_classes_closed_form == 9**4


@st.composite
def two_part_boxes(draw):
    """n = 2 boxes wider than ``small_boxes``: genus ranges far off either side of a1 a2."""
    s_max = draw(st.integers(1, 30))
    x_min = draw(st.integers(-50, 200))
    return Box(
        r_max=draw(st.integers(1, 30)),
        s_min=draw(st.integers(-30, s_max)),
        s_max=s_max,
        eps_max=draw(st.integers(0, 12)),
        x_min=x_min,
        x_max=x_min + draw(st.integers(0, 300)),
    )


def _two_part_lemma_layer(box, eps):
    """The layer the two-part lemma names: the product layer exactly when a genus >= a1 a2 survives."""
    a = (eps[0] + 2) * (eps[1] + 2)
    lo = max(1, sum(eps) + box.x_min + 1, a)
    hi = min(4 * box.r_max * box.s_max - 1, sum(eps) + box.x_max + 1)
    return "closed_product_max" if lo <= hi else "closed_row_sum"


@settings(max_examples=80, deadline=None)
@given(box=small_boxes() | two_part_boxes())
@example(box=Box(2, -2, 2, 0, 0, 3))  # the one genus is a1 a2 = E + x_max + 1
@example(box=Box(1, -1, 1, 0, 0, 8))  # a1 a2 = 4 r_max s_max, the analytic bound
@example(box=Box(1, -2, 2, 1, 10, 20))  # x_min alone puts every genus at or above the bound
def test_two_part_lemma_matches_the_layered_procedure(box):
    classes = list(itertools.product(range(box.eps_max + 1), repeat=2))
    decided = [ref._check_eps_class(2, box, eps, 5) for eps in classes]
    assert [d[1:] for d in decided] == [(0, [])] * len(classes)
    layers = [d[0] for d in decided]
    assert layers == [_two_part_lemma_layer(box, eps) for eps in classes]
    report = exhaustive_case_check(2, box)
    assert report.stats == {
        "closed_row_sum": layers.count("closed_row_sum"),
        "closed_product_max": layers.count("closed_product_max"),
        "swept": 0,
    }
    assert report.profiles_enumerated == 0
    assert report.counterexamples == []


@settings(max_examples=60, deadline=None)
@given(
    r_max=st.integers(1, 5),
    s_min=st.integers(-5, 1),
    s_max=st.integers(1, 7),
    eps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    wide=two_part_boxes(),
)
def test_two_part_lemma_by_brute_force(r_max, s_min, s_max, eps, wide):
    # every feasible (r, s), each s over its whole range: no product above a1 a2
    a = (eps[0] + 2) * (eps[1] + 2)
    ranks, ss = range(1, r_max + 1), range(s_min, s_max + 1)
    products = [
        (r1 + r2) * (s1 + s2)
        for r1, r2, s1, s2 in itertools.product(ranks, ranks, ss, ss)
        if profile_feasible(FiltrationProfile(((r1, s1, eps[0]), (r2, s2, eps[1]))))
    ]
    assert max(products, default=0) <= a
    # the row-sum survivors are the interval [max(lo, a1 a2), hi]
    for pmax in (1, a, a + 1, 4 * wide.r_max * wide.s_max):
        lo = max(1, sum(eps) + wide.x_min + 1, a)
        hi = min(pmax - 1, sum(eps) + wide.x_max + 1)
        assert ref._surviving_genera(2, eps, wide, pmax) == list(range(lo, hi + 1)), pmax


def test_two_part_box_never_reaches_the_later_layers(monkeypatch):
    # the two-part lemma settles every class
    monkeypatch.setattr(profiles, "_first_partition_certificate", _unreachable)
    report = exhaustive_case_check(2)
    assert report.stats == {"closed_row_sum": 85, "closed_product_max": 84, "swept": 0}


# The three conditions of a two-part class with a survivor, for a = a1 a2, E = e1 + e2
# and top = 4 r_max s_max - 1: each caps e2 for a fixed e1.
_TWO_PART_CONDITIONS = {
    "product": lambda box, a, e, top: a <= top,
    "upper-genus": lambda box, a, e, top: a <= e + box.x_max + 1,
    "lower-genus": lambda box, a, e, top: e + box.x_min + 1 <= top,
}


def _two_part_layer_count(box):
    """The classes that `_two_part_lemma_layer` sends to the product layer."""
    classes = itertools.product(range(box.eps_max + 1), repeat=2)
    return sum(_two_part_lemma_layer(box, eps) == "closed_product_max" for eps in classes)


def _two_part_condition_count(box, dropped=""):
    """The classes that meet every condition but the one named ``dropped``."""
    top = 4 * box.r_max * box.s_max - 1
    kept = [ok for name, ok in _TWO_PART_CONDITIONS.items() if name != dropped]
    return sum(
        all(ok(box, (e1 + 2) * (e2 + 2), e1 + e2, top) for ok in kept)
        for e1 in range(box.eps_max + 1)
        for e2 in range(box.eps_max + 1)
    )


# eps_max in the hundreds, each box with one condition that binds and others far off
_BINDING_BOXES = {
    "product": Box(r_max=10, s_min=-10, s_max=10, eps_max=300, x_min=-1000, x_max=10_000),
    "upper-genus": Box(r_max=100, s_min=-100, s_max=100, eps_max=300, x_min=-1000, x_max=100),
    "lower-genus": Box(r_max=100, s_min=-100, s_max=100, eps_max=300, x_min=39_950, x_max=60_000),
}


@pytest.mark.parametrize("binding", list(_BINDING_BOXES))
def test_two_part_count_matches_the_per_class_layer_where_each_cap_binds(binding):
    box = _BINDING_BOXES[binding]
    expected = _two_part_layer_count(box)
    assert _two_part_condition_count(box) == expected
    # the named condition binds: without it more classes would count
    assert _two_part_condition_count(box, dropped=binding) > expected > 0
    assert exhaustive_case_check(2, box).stats["closed_product_max"] == expected


@settings(max_examples=25, deadline=None)
@given(
    r_max=st.integers(1, 100),
    s_max=st.integers(1, 100),
    eps_max=st.integers(0, 300),
    x_min=st.integers(-2000, 40_000),
    width=st.integers(0, 40_000),
)
def test_two_part_count_matches_the_per_class_layer_on_wide_boxes(r_max, s_max, eps_max, x_min, width):
    box = Box(r_max, -s_max, s_max, eps_max, x_min, x_min + width)
    assert exhaustive_case_check(2, box).stats["closed_product_max"] == _two_part_layer_count(box)


def test_three_part_open_classes_are_the_row_sum_survivors():
    # c > 0 exactly when the legs eps_i + 1 permute an exceptional triple
    survivors = [
        eps for eps in itertools.product(range(41), repeat=3)
        if sum(Fraction(1, e + 2) for e in eps) > 1
    ]
    for eps_max in range(41):
        box = Box(r_max=8, s_min=-8, s_max=8, eps_max=eps_max, x_min=-8, x_max=24)
        expected = [eps for eps in survivors if max(eps) <= eps_max]
        assert sorted(ref._row_sum_open_classes(box)) == expected, f"eps_max = {eps_max}"


def test_three_part_box_visits_only_the_open_classes():
    # the reference visits the 40 row-sum-open classes of the default box; the
    # closed-form count keeps exactly the 19 of them with a surviving genus
    box = default_box(3)
    visited = sorted(ref._row_sum_open_classes(box))
    for eps in visited:
        assert sum(Fraction(1, e + 2) for e in eps) > 1, f"{eps} closes by row sum"
    assert len(visited) == 40
    kept = sum(ref._has_survivor(eps, box) for eps in visited)
    report = exhaustive_case_check(3)
    assert report.stats == {"closed_row_sum": 9**3 - kept, "closed_product_max": kept, "swept": 0}
    assert report.stats == {"closed_row_sum": 710, "closed_product_max": 19, "swept": 0}


@pytest.mark.parametrize("box", BENCHMARK_BOXES, ids=str)
def test_benchmark_box_report_matches_the_loop_driver(box):
    report = exhaustive_case_check(3, box).to_dict()
    del report["elapsed_ms"]
    assert report == _loop_exhaustive_case_check(3, box)
    # no benchmark box reaches the slice sweep, so the split test's speed is off every workload
    assert report["stats"]["swept"] == 0
    assert report["profiles_enumerated"] == 0


def test_three_part_box_at_eps_max_60():
    box = Box(r_max=8, s_min=-8, s_max=8, eps_max=60, x_min=-8, x_max=24)
    report = exhaustive_case_check(3, box)
    assert report.stats == {"closed_row_sum": 226_962, "closed_product_max": 19, "swept": 0}
    assert report.counterexamples == []


def _unbounded_product_max(eps):
    """P*, the max of (sum r)(sum s) over every feasible (r, s), by brute force over the ranks.

    s3 >= 1 needs r3 <= l3, so r3 and r2 <= r3 stay within the longest leg
    and r1 <= r2 + r3 within twice it; for fixed ranks every s_i at its cap
    l_i // r_i gives the largest sum s, and any s_i below it is feasible.
    """
    legs = [e + 1 for e in eps]
    top = max(legs)
    r1 = np.arange(1, 2 * top + 1)[:, None]
    r2 = np.arange(1, top + 1)[None, :]
    best = 0
    for r3 in range(1, legs[2] + 1):
        feasible = (r2 <= r3) & (r1 <= r2 + r3)
        products = (r1 + r2 + r3) * (legs[0] // r1 + legs[1] // r2 + legs[2] // r3)
        best = max(best, int(products[feasible].max()))
    return best


def _smallest_survivor(eps, pmax):
    """g*, the smallest genus >= 1 that passes the row-sum test, and every survivor below pmax."""
    box = Box(r_max=1, s_min=0, s_max=1, eps_max=max(eps), x_min=-(10**5), x_max=10**5)
    survivors = ref._surviving_genera(3, eps, box, pmax)
    return survivors[0], survivors


def _lemma_table():
    """The E-type rows (eps, P*, g*) of the ``cases`` docstring."""
    rows = re.findall(r"\((\d), (\d), (\d)\)\s+(\d+)\s+(\d+)", cases.__doc__)
    return {tuple(map(int, row[:3])): (int(row[3]), int(row[4])) for row in rows}


def test_three_part_lemma_by_brute_force():
    # D type: P* <= 4e + 9 < g* = (e + 2)(e + 5), and odd genera survive
    # only from (e + 2)(e + 6) on
    for e in range(101):
        for eps in set(itertools.permutations((e, 0, 0))):
            p_star = _unbounded_product_max(eps)
            g_star = (e + 2) * (e + 5)
            assert p_star <= 4 * e + 9 < g_star, eps
            pmax = (e + 2) * (e + 6) + 3
            assert _smallest_survivor(eps, pmax) == (g_star, [
                g for g in range(g_star, pmax) if g % 2 == 0 or g >= (e + 2) * (e + 6)
            ]), eps
    # E type: the docstring's table, all 15 classes
    table = _lemma_table()
    assert sorted(table) == sorted(
        eps for base in ((1, 1, 0), (2, 1, 0), (3, 1, 0)) for eps in set(itertools.permutations(base))
    )
    for eps, (p_star, g_star) in table.items():
        assert _unbounded_product_max(eps) == p_star < g_star == _smallest_survivor(eps, g_star + 1)[0], eps
    # the brute force agrees with the reference maximum on a box that holds
    # every feasible (r, s): ranks to twice the longest leg, s to the leg
    for eps in [*table, *(eps for e in range(13) for eps in set(itertools.permutations((e, 0, 0))))]:
        top = max(eps) + 1
        box = Box(r_max=2 * top, s_min=-top, s_max=top, eps_max=max(eps), x_min=0, x_max=0)
        assert ref._max_fp_product(3, eps, box)[0] == _unbounded_product_max(eps), eps


@st.composite
def three_part_boxes(draw):
    """n = 3 boxes wider than ``small_boxes``: long D-type legs, genus ranges across every band."""
    s_max = draw(st.integers(1, 30))
    x_min = draw(st.integers(-50, 400))
    return Box(
        r_max=draw(st.integers(1, 30)),
        s_min=draw(st.integers(-30, s_max)),
        s_max=s_max,
        eps_max=draw(st.integers(0, 40)),
        x_min=x_min,
        x_max=x_min + draw(st.integers(0, 300)),
    )


@settings(max_examples=150, deadline=None)
@given(box=small_boxes() | three_part_boxes())
@example(box=Box(5, 0, 1, 3, 13, 13))  # lo = hi = 43, odd, between g* = 40 and 45 at eps = (3, 0, 0)
@example(box=Box(4, 0, 1, 0, -3, 3))  # hi = 10 = g* at eps = (0, 0, 0)
@example(box=Box(4, 0, 1, 1, -3, 5))  # hi = 17 = g* - 1 at eps = (1, 0, 0), from x_max
@example(box=Box(2, 0, 1, 1, 0, 100))  # hi = 17 = g* - 1 at eps = (1, 0, 0), from 9 r_max s_max
@example(box=Box(1, 0, 2, 0, 5, 5))  # lo = hi = 16, the root of c g = E + 8 at eps = (0, 0, 0)
@example(box=Box(4, 0, 1, 2, 11, 20))  # x_min puts every genus of eps = (2, 0, 0) at or above 9 r_max s_max
def test_existence_test_matches_the_reference_genus_list(box):
    for eps in ref._row_sum_open_classes(box):
        expected = bool(ref._surviving_genera(3, eps, box, 9 * box.r_max * box.s_max))
        assert ref._has_survivor(eps, box) == expected, eps


# A class's genera run over [lo, hi] with lo = E + 3 x_min + 1 and hi = E + 3 x_max + 1
# or 9 r_max s_max - 1, so lo = E + 1 (mod 3) and hi = E + 1 (mod 3) or hi = 8 (mod 9):
# no box puts lo = hi on 96, 108 (E7, E = 3), 270, 300 (E8, E = 4) or on the gap genera
# 47 and 107, and the examples below bracket those instead.
@settings(max_examples=150, deadline=None)
@given(box=small_boxes() | three_part_boxes())
@example(box=Box(5, 0, 1, 3, 13, 13))  # lo = hi = 43, odd, between g* = 40 and 45 at eps = (3, 0, 0)
@example(box=Box(4, 0, 1, 0, -3, 3))  # hi = 10 = g* at eps = (0, 0, 0)
@example(box=Box(4, 0, 1, 1, -3, 5))  # hi = 17 = g* - 1 at eps = (1, 0, 0), from x_max
@example(box=Box(2, 0, 1, 1, 0, 100))  # hi = 17 = g* - 1 at eps = (1, 0, 0), from 9 r_max s_max
@example(box=Box(1, 0, 2, 0, 5, 5))  # lo = hi = 16, the root of c g = E + 8 at eps = (0, 0, 0)
@example(box=Box(4, 0, 1, 2, 11, 20))  # x_min puts every genus of eps = (2, 0, 0) at or above 9 r_max s_max
@example(box=Box(7, 0, 1, 4, 18, 18))  # lo = hi = 59 = (e + 2)(e + 6) - 1, odd, at eps = (4, 0, 0)
@example(box=Box(5, 0, 1, 1, 13, 13))  # lo = hi = 42, g* of E6
@example(box=Box(6, 0, 1, 1, 14, 14))  # lo = hi = 45, a listed E6 survivor
@example(box=Box(6, 0, 1, 1, 15, 15))  # lo = hi = 48, the E6 ray start
@example(box=Box(11, 0, 1, 2, 30, 31))  # [94, 97] holds g* = 96 of E7 and no other E7 survivor
@example(box=Box(12, 0, 1, 2, 32, 32))  # lo = hi = 100, a listed E7 survivor
@example(box=Box(12, 0, 1, 2, 33, 33))  # lo = hi = 103, an E7 gap genus
@example(box=Box(12, 0, 1, 2, 34, 40))  # [106, 107]: 107 = 9 r_max s_max - 1 on the E7 gap before the ray
@example(box=Box(30, 0, 1, 3, 0, 100))  # hi = 269 = 9 r_max s_max - 1, just below g* = 270 of E8
@example(box=Box(34, 0, 1, 3, 88, 89))  # [269, 272] holds g* = 270 of E8 and no other E8 survivor
@example(box=Box(34, 0, 1, 3, 95, 95))  # lo = hi = 290, a listed E8 survivor
@example(box=Box(34, 0, 1, 3, 98, 98))  # lo = hi = 299, the E8 gap genus before the ray
@example(box=Box(8, -4, 4, 0, 0, 100))  # every E row's genera in range: none enters at eps_max = 0
@example(box=Box(8, -4, 4, 1, 0, 100))  # E6 enters
@example(box=Box(8, -4, 4, 2, 0, 100))  # E7 enters
@example(box=Box(8, -4, 4, 3, 0, 100))  # E8 enters
def test_three_part_count_matches_the_reference_open_classes(box):
    # the closed-form count against a visit to every open class of the reference
    report = exhaustive_case_check(3, box)
    open_with_survivor = sum(ref._has_survivor(eps, box) for eps in ref._row_sum_open_classes(box))
    assert report.stats == {
        "closed_row_sum": (box.eps_max + 1) ** 3 - open_with_survivor,
        "closed_product_max": open_with_survivor,
        "swept": 0,
    }


def test_three_part_survivor_sets_by_brute_force():
    # the row-sum inequality sum_i g // a_i >= g + E + 5 alone, genus by genus.
    # D type, a = (e + 2, 2, 2): the evens from (e + 2)(e + 5), the odds from (e + 2)(e + 6)
    for e in range(201):
        g = np.arange(1, (e + 2) * (e + 7) + 1)
        passes = g // (e + 2) + 2 * (g // 2) >= g + e + 5
        assert (passes == np.where(g % 2 == 0, g >= (e + 2) * (e + 5), g >= (e + 2) * (e + 6))).all(), e
    # E type: each row of the table, past the root of c g = E + 8 where every genus passes
    for base, row in zip(((1, 1, 0), (2, 1, 0), (3, 1, 0)), cases._E_ROWS, strict=True):
        a = [e + 2 for e in base]
        total = sum(base)
        root = -(-(total + 8) // (sum(Fraction(1, ai) for ai in a) - 1))
        survivors = [g for g in range(1, 2 * root) if sum(g // ai for ai in a) >= g + total + 5]
        ray = max(g for g in range(1, 2 * root) if g not in survivors) + 1
        listed = tuple(g for g in survivors if g < ray)
        assert row == (max(base), len(set(itertools.permutations(base))), total, listed, ray), base


def test_three_part_box_never_reaches_the_later_layers(monkeypatch):
    # the three-part lemma settles every class: the product layer, the sweep,
    # the per-class existence test and the counterexample re-check left
    # k3bn.cases for the reference, and the split test is not asked
    moved = (
        "_chain_r_vectors", "_cap_row", "_max_fp_product", "_surviving_genera", "_iter_fixed_sum",
        "_check_eps_class", "_row_sum_open_classes", "_has_survivor", "_is_failing", "verify_counterexample",
    )
    for name in moved:
        assert not hasattr(cases, name), name
        monkeypatch.setattr(ref, name, _unreachable)
    monkeypatch.setattr(profiles, "_first_partition_certificate", _unreachable)
    assert exhaustive_case_check(3).stats == {"closed_row_sum": 710, "closed_product_max": 19, "swept": 0}
    box = Box(r_max=8, s_min=-8, s_max=8, eps_max=60, x_min=-8, x_max=24)
    assert exhaustive_case_check(3, box).stats == {"closed_row_sum": 226_962, "closed_product_max": 19, "swept": 0}
    # the largest eps_max below the eps-class ceiling: 464^3 classes, the same 19 open ones
    box = Box(r_max=8, s_min=-8, s_max=8, eps_max=463, x_min=-8, x_max=24)
    assert exhaustive_case_check(3, box).stats == {"closed_row_sum": 464**3 - 19, "closed_product_max": 19, "swept": 0}


def test_stats_split_the_eps_classes_by_deciding_layer():
    expected = {
        2: {"closed_row_sum": 85, "closed_product_max": 84, "swept": 0},
        3: {"closed_row_sum": 710, "closed_product_max": 19, "swept": 0},
        4: {"closed_row_sum": 9**4, "closed_product_max": 0, "swept": 0},
    }
    for n, stats in expected.items():
        report = exhaustive_case_check(n).to_dict()
        assert report["stats"] == stats
        assert sum(stats.values()) == report["eps_classes"]


def test_exhaustive_check_rejects_bad_n():
    with pytest.raises(InputError):
        exhaustive_case_check(5)


def test_tiny_box_brute_force_agrees_with_decision_procedure():
    from k3bn import DecompositionProfile

    box = Box(r_max=2, s_min=-2, s_max=2, eps_max=1, x_min=0, x_max=3)
    report = exhaustive_case_check(3, box)
    assert report.counterexamples == []
    # brute force over every instance in the box, independent of the row-sum
    # test and the product maximum (layers 1 and 2); its split test is the
    # profile's own, the one the sweep also uses
    bad = []
    for eps in itertools.product(range(box.eps_max + 1), repeat=3):
        for xs in itertools.product(range(box.x_min, box.x_max + 1), repeat=3):
            p = DecompositionProfile.from_upper(tuple(2 * e for e in eps), xs)
            if not two_connected(p):
                continue
            if any(
                p.group_h0_floor(left) * p.group_h0_floor(right) > p.genus
                for left, right in p.splits()
            ):
                continue
            for r in itertools.product(range(1, box.r_max + 1), repeat=3):
                if r[0] > r[1] + r[2] or r[1] > r[2]:
                    continue
                for s in itertools.product(range(box.s_min, box.s_max + 1), repeat=3):
                    fp = FiltrationProfile(tuple(zip(r, s, eps)))
                    if not profile_feasible(fp):
                        continue
                    if fp.sum_r * fp.sum_s > p.genus:
                        bad.append((eps, xs, r, s))
    assert bad == []


def test_feasible_two_part_products_bounded_by_chi_product():
    # every feasible two-part profile with positive s components satisfies
    # (sum r)(sum s) <= (eps1 + 2)(eps2 + 2); the smallest feasible eps give
    # the tightest right-hand side, so checking those covers the default box
    box = default_box(2)
    for r1 in range(1, box.r_max + 1):
        for r2 in range(r1, box.r_max + 1):
            for s1 in range(1, box.s_max + 1):
                for s2 in range(1, box.s_max + 1):
                    e1, e2 = r1 * s1 - 1, r2 * s2 - 1
                    if e1 > box.eps_max or e2 > box.eps_max:
                        continue
                    assert (r1 + r2) * (s1 + s2) <= (e1 + 2) * (e2 + 2)


# ---------------------------------------------------------------------------
# the three-part lower-bound mirror on exceptional shapes


def _criterion_conditions_fail_everywhere(eps, x12, x13, x23) -> bool:
    total = sum(eps)
    # condition (1) in every grouping: x_pq (eps_t + 1) >= x_pt + x_qt
    conds = (
        x12 * (eps[2] + 1) >= x13 + x23,
        x13 * (eps[1] + 1) >= x12 + x23,
        x23 * (eps[0] + 1) >= x12 + x13,
    )
    if any(conds):
        return False
    # condition (2) anchored at each part: the product not involving the
    # anchor must exceed 2 + (sum of eps)
    return all(v > 2 + total for v in (x12, x13, x23))


def test_exceptional_eps_profiles_meet_the_floor_bound():
    # eps sorted descending with eps3 = 0 and eps2 in {0, 1}
    shapes = [(e1, 0, 0) for e1 in range(0, 9)] + [(e1, 1, 0) for e1 in (1, 2, 3)]
    box = default_box(3)
    for eps in shapes:
        e1, e2 = eps[0], eps[1]
        floor = (e1 + 2) * (e1 + 2 * e2 + 5)
        for x12 in range(box.x_min, box.x_max + 1):
            for x13 in range(box.x_min, box.x_max + 1):
                for x23 in range(box.x_min, box.x_max + 1):
                    if not _criterion_conditions_fail_everywhere(eps, x12, x13, x23):
                        continue
                    g = sum(eps) + x12 + x13 + x23 + 1
                    products = []
                    for single, pair_x in ((0, x23), (1, x13), (2, x12)):
                        rest = [k for k in range(3) if k != single]
                        chi_rest = eps[rest[0]] + eps[rest[1]] + pair_x + 2
                        products.append(
                            max(eps[single] + 2, 1) * max(chi_rest, 1)
                        )
                    assert max(products) >= floor, (eps, x12, x13, x23, g)
