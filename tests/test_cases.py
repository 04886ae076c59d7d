import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3bn.cases as cases
from k3bn import (
    Box,
    BoxCounterexample,
    FiltrationProfile,
    InputError,
    am_gm,
    default_box,
    dynkin_label,
    enumerate_exceptional_triples,
    exhaustive_case_check,
    profile_feasible,
    verify_counterexample,
)
from k3bn.errors import SEARCH_CEILING


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
# internals of the decision procedure


def test_max_fp_product_matches_brute_force():
    box = Box(r_max=3, s_min=-3, s_max=3, eps_max=3, x_min=-2, x_max=4)
    for eps in itertools.product(range(box.eps_max + 1), repeat=2):
        best = None
        for r in itertools.product(range(1, box.r_max + 1), repeat=2):
            for s in itertools.product(range(box.s_min, box.s_max + 1), repeat=2):
                fp = FiltrationProfile(tuple(zip(r, s, eps)))
                if not profile_feasible(fp):
                    continue
                p = fp.sum_r * fp.sum_s
                if best is None or p > best:
                    best = p
        assert cases._max_fp_product(2, eps, box) == best, eps


def test_iter_fixed_sum():
    got = sorted(cases._iter_fixed_sum(3, -1, 2, 2))
    expected = sorted(
        t
        for t in itertools.product(range(-1, 3), repeat=3)
        if sum(t) == 2
    )
    assert got == expected


def test_is_failing_known_profile():
    # all-isotropic three-part profile with every product 3: genus 10, every
    # split capped at exactly the genus
    assert cases._is_failing(3, (0, 0, 0), (3, 3, 3), 10)
    # raising any product creates a certifying split
    assert not cases._is_failing(3, (0, 0, 0), (3, 3, 4), 10)
    # non-2-connected data is not a hypothesis instance
    assert not cases._is_failing(3, (0, 0, 0), (1, 0, 3), 10)


def test_surviving_genera_tight_for_all_isotropic():
    box = default_box(3)
    # the necessary row-sum condition first admits genus 10 when eps = 0 ...
    assert cases._surviving_genera(3, (0, 0, 0), box, pmax=12) == [10]
    # ... which the exact product maximum 9 rules out
    assert cases._max_fp_product(3, (0, 0, 0), box) == 9
    assert cases._surviving_genera(3, (0, 0, 0), box, pmax=9) == []


def test_slice_path_exercised_when_forced(monkeypatch):
    # force the slice sweep by pretending richer filtration data exists
    monkeypatch.setattr(cases, "_max_fp_product", lambda n, eps, box: 12)
    closed, enumerated, cexs = cases._check_eps_class(3, default_box(3), (0, 0, 0), 50)
    assert not closed
    assert enumerated > 0
    # the failing profiles are real, but no genuine violating filtration
    # exists, so nothing may be reported
    assert cexs == []


def test_forced_false_alarm_is_detectable(monkeypatch):
    monkeypatch.setattr(cases, "_max_fp_product", lambda n, eps, box: 12)
    monkeypatch.setattr(
        cases, "_violating_fp", lambda n, eps, box, g: ((1, 1, 1), (1, 1, 1))
    )
    _, _, cexs = cases._check_eps_class(3, default_box(3), (0, 0, 0), 50)
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
    assert not cases._is_failing(2, (0, 0), (2,), genus)


def test_verify_counterexample_rejects_bogus_reports():
    bogus = BoxCounterexample(
        kind="partition",
        eps=(0, 0),
        upper_x=(2,),
        r=(1, 1),
        s=(1, 1),
        genus=3,
        note="",
    )
    # hypothesis holds but the split {1} | {2} certifies: not a counterexample
    assert not verify_counterexample(2, bogus)
    infeasible = BoxCounterexample(
        kind="partition",
        eps=(0, 0),
        upper_x=(2,),
        r=(2, 1),
        s=(1, 1),
        genus=3,
        note="",
    )
    assert not verify_counterexample(2, infeasible)
    assert not verify_counterexample(2, BoxCounterexample(kind="unknown"))


def _seed_check_eps_class(n, box, eps, max_cex):
    """The procedure before the reorder: exact product maximum first, then rows."""
    pmax = cases._max_fp_product(n, eps, box)
    if pmax is None:
        return True, 0, []
    genera = cases._surviving_genera(n, eps, box, pmax)
    if not genera:
        return True, 0, []
    n_pairs = n * (n - 1) // 2
    enumerated = 0
    cexs = []
    for g in genera:
        coord_sum = g - sum(eps) - 1
        for upper_x in cases._iter_fixed_sum(n_pairs, box.x_min, box.x_max, coord_sum):
            enumerated += 1
            if not cases._is_failing(n, eps, upper_x, g):
                continue
            fp = cases._violating_fp(n, eps, box, g)
            if fp is None:
                continue
            r, s = fp
            cexs.append(
                BoxCounterexample(
                    kind="partition", eps=eps, upper_x=upper_x, r=r, s=s, genus=g,
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


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((2, 3, 4)), box=small_boxes(), forced=st.none() | st.integers(0, 40))
def test_row_sum_first_matches_seed_procedure(n, box, forced):
    # forced: replace the exact maximum by another upper bound that depends
    # on eps, and give every failing profile violating data, so genera reach
    # the slice sweep and the counterexample cap; real small boxes close
    # before the sweep
    with pytest.MonkeyPatch.context() as mp:
        if forced is not None:
            mp.setattr(
                cases, "_max_fp_product",
                lambda n, eps, box: min(n * box.r_max * n * box.s_max, forced + 3 * eps[0] + sum(eps)),
            )
            mp.setattr(cases, "_violating_fp", lambda n, eps, box, g: ((1,) * n, (1,) * n))
        for eps in itertools.product(range(box.eps_max + 1), repeat=n):
            assert cases._check_eps_class(n, box, eps, 5) == _seed_check_eps_class(n, box, eps, 5)


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
    assert cases._surviving_genera(n, eps, box, n * box.r_max * n * box.s_max) == []


def test_row_sum_test_runs_once_per_eps_multiset():
    cases._row_sum_survivors.cache_clear()
    report = exhaustive_case_check(4)
    assert report.eps_classes == 9**4
    assert report.eps_classes_closed_form == 9**4
    assert cases._row_sum_survivors.cache_info().misses == 495  # C(8 + 4, 4)


def test_exhaustive_check_rejects_bad_n():
    with pytest.raises(InputError):
        exhaustive_case_check(5)


def test_tiny_box_brute_force_agrees_with_decision_procedure():
    from k3bn import DecompositionProfile

    box = Box(r_max=2, s_min=-2, s_max=2, eps_max=1, x_min=0, x_max=3)
    report = exhaustive_case_check(3, box)
    assert report.counterexamples == []
    # independent brute force over every instance in the box, built on the
    # profile methods rather than the checker internals
    bad = []
    for eps in itertools.product(range(box.eps_max + 1), repeat=3):
        for xs in itertools.product(range(box.x_min, box.x_max + 1), repeat=3):
            p = DecompositionProfile.from_upper(tuple(2 * e for e in eps), xs)
            if not p.two_connected():
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
