import itertools
import random
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from k3bn import (
    DecompositionProfile,
    DivClass,
    Effectivity,
    ExceptionalProfile,
    GramLattice,
    InconsistentGeometryError,
    InputError,
    NotBNGeneral,
    PreconditionError,
    QuasiPolarization,
    RootSet,
    ViolationCertificate,
    classify_multi_decomposition,
    effectivity_status,
    scan_decompositions,
)
from k3bn import bn
from k3bn.bn import (
    SCAN_VERDICT_KEYS,
    _certificate_scan,
    _degree_window,
    _window_scan,
    degree_window_size,
    violation_scan,
    x_classes,
    x_h_classes,
)
from k3bn.divisors import DEFAULT_COEFF_BOUND, _peel, h0_floor
from k3bn.lattice import hyperbolic_plane_warnings
from k3bn.profiles import CertificateSketch
from conftest import rank_one
from library_reference import (
    check_pair,
    chi_product_identity_gap,
    crossing,
    elliptic_multiple,
    find_violation,
    n4_low_intersections,
    no_negative_intersections,
    two_connected,
)

even = st.integers(-500, 500).map(lambda v: 2 * v)
small_x = st.integers(-1000, 1000)


# ---------------------------------------------------------------------------
# profiles


def test_profile_validation():
    with pytest.raises(InputError):
        DecompositionProfile((1, 0), ((0, 1), (1, 0)))  # odd square
    with pytest.raises(InputError):
        DecompositionProfile((0, 0), ((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(InputError):
        DecompositionProfile((0, 0), ((1, 0), (0, 0)))  # diagonal
    with pytest.raises(InputError):
        DecompositionProfile((0,), ((0,),))  # n < 2


def test_profile_rejects_non_integer_products():
    with pytest.raises(InputError) as err:
        DecompositionProfile((2, 2, 2), ((0, 1.5, 1), (1.5, 0, 1), (1, 1, 0)))
    assert err.value.violations == ["x[0][1] is not an integer", "x[1][0] is not an integer"]


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: DecompositionProfile((2, 2.0, 0), _connected_x(3)), InputError, "sq[1] is not an integer"),
        (lambda: DecompositionProfile.from_upper((0, 0, 0), (1, 1)), InputError, "expected 3 upper-triangle entries, got 2"),
        (lambda: CertificateSketch(2, 2, 4, "{1} | {2}"), InputError, "not a certificate: 2 * 2 <= genus 4"),
        (
            lambda: n4_low_intersections(DecompositionProfile((0, 0, 0), _connected_x(3))),
            InputError,
            "this criterion applies to four-part profiles",
        ),
        (
            lambda: n4_low_intersections(DecompositionProfile((-2, 0, 0, 0), _connected_x(4))),
            PreconditionError,
            "squares must be nonnegative",
        ),
        (
            lambda: classify_multi_decomposition(DecompositionProfile((4, -2, 0), _connected_x(3)), [True] * 3),
            PreconditionError,
            "squares must be nonnegative for n = 3 and n = 4 cases",
        ),
        (
            lambda: classify_multi_decomposition(DecompositionProfile((0, 0, 0, -2), _connected_x(4)), [True] * 4),
            PreconditionError,
            "squares must be nonnegative for n = 3 and n = 4 cases",
        ),
        (lambda: elliptic_multiple(2, 1.0, 0), InputError, "e_dot_d must be an integer"),
    ],
    ids=[
        "non-integer square",
        "short upper triangle",
        "sketch not beating the genus",
        "four-part criterion on three parts",
        "four-part criterion on a negative square",
        "classify n=3 with a negative square",
        "classify n=4 with a negative square",
        "elliptic multiple with a non-integer",
    ],
)
def test_profile_layer_input_errors(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


def test_profile_derived_quantities():
    p = DecompositionProfile.from_upper((0, 0, 0), (2, 1, 1))
    assert p.h_square == 8
    assert p.genus == 5
    assert p.group_chi((0, 1)) == 4
    assert p.group_chi((2,)) == 2
    assert crossing(p, (0,)) == 3
    assert two_connected(p)
    assert not two_connected(DecompositionProfile.from_upper((0, 0), (1,)))


def test_profile_splits_cover_everything():
    p = DecompositionProfile.from_upper((0, 0, 0, 0), (1,) * 6)
    splits = list(p.splits())
    assert len(splits) == 7
    for left, right in splits:
        assert 0 in left
        assert set(left) | set(right) == {0, 1, 2, 3}
        assert not set(left) & set(right)


# ---------------------------------------------------------------------------
# pair checking and the violation search


def test_check_pair_hyperbolic(u_pol, ef):
    e, f = ef
    cert = check_pair(u_pol, e, f)
    assert cert is not None
    assert (cert.lb1, cert.lb2, cert.genus) == (2, 2, 2)


def test_check_pair_uses_pencil_refinement(U, ef):
    e, f = ef
    pol = QuasiPolarization(U, e + 3 * f)
    cert = check_pair(pol, e, 3 * f)
    assert cert is not None
    assert {cert.lb1, cert.lb2} == {2, 4}
    assert cert.genus == 4


def test_check_pair_preconditions(u_pol, ef):
    e, f = ef
    with pytest.raises(PreconditionError):
        check_pair(u_pol, e, e)  # does not sum to H
    with pytest.raises(PreconditionError):
        check_pair(u_pol, 2 * e + f, -e)  # -e not effective


def test_find_violation_hyperbolic(u_pol, ef):
    e, f = ef
    cert = find_violation(u_pol, degree_bound=5)
    assert cert is not None
    assert {cert.d1, cert.d2} == {e, f}


def test_find_violation_rank_one_none():
    for m in (2, 4):
        lat, pol = rank_one(m)
        assert find_violation(pol, degree_bound=5) is None


def test_violation_implies_find_violation(u_pol, ef):
    e, f = ef
    assert check_pair(u_pol, e, f) is not None
    assert find_violation(u_pol, degree_bound=1) is not None


def test_find_violation_bound_validation(u_pol):
    with pytest.raises(InputError):
        find_violation(u_pol, degree_bound=0)


def test_scan_reports_unknown_candidates(U, ef):
    e, f = ef
    pol = QuasiPolarization(U, e + f)
    scan = scan_decompositions(pol, None, 3)
    assert scan.unknown_candidates > 0
    # no roots are declared: every Unknown is a root-nef residual
    assert scan.stats()["unknown_root_nef_residual"] == scan.unknown_candidates
    # every scan records its pairs
    pairs = [(r.d1.coords, r.d2.coords, r.lb1, r.lb2, r.violates) for r in scan.pairs]
    assert pairs == reference_scan(pol, None, 3, False)[0] != []


def reference_scan(pol, roots, bound, stop_at_first_violation):
    """The scan by brute force: filter the whole box by degree, then decide each class."""
    h2 = pol.degree(pol.h)
    pairs, violations, verdicts = [], [], Counter()
    scanned = unknown = 0
    for coords in itertools.product(range(-bound, bound + 1), repeat=pol.lattice.rank):
        d1 = DivClass(coords)
        if not 0 < pol.degree(d1) < h2:
            continue
        scanned += 1
        d2 = pol.h - d1
        for d in (d1, d2):
            v = effectivity_status(pol, d, roots)
            verdicts[f"{v.status.name.lower()}_{v.rule}"] += 1
            unknown += v.status is Effectivity.UNKNOWN
            if v.status is not Effectivity.EFFECTIVE:
                break
        else:
            lb1, lb2 = h0_floor(pol, d1), h0_floor(pol, d2)
            violates = lb1 * lb2 > pol.genus
            pairs.append((d1.coords, d2.coords, lb1, lb2, violates))
            if violates:
                violations.append(ViolationCertificate(d1, d2, lb1, lb2, pol.genus).to_dict())
                if stop_at_first_violation:
                    break
    stats = {"candidates_scanned": scanned, **dict.fromkeys(SCAN_VERDICT_KEYS, 0), **verdicts}
    return pairs, violations, scanned, unknown, stats


_A2 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 1), (0, 0, 1, -2))
SCAN_CASES = [
    # (gram, H, roots, degree bound)
    (((4,),), (1,), [], 5),
    (((2,),), (2,), [], 4),
    (((0, 1), (1, 0)), (1, 1), [], 3),
    (((0, 1), (1, 0)), (1, 4), [], 4),
    (((0, 1), (1, 0)), (2, 3), [], 3),
    (((0, 1, 0), (1, 0, 0), (0, 0, -2)), (1, 2, 0), [(0, 0, 1)], 3),
    (((0, 1, 0), (1, 0, 0), (0, 0, -2)), (2, 3, 1), [(0, 0, -1)], 2),
    (_A2, (1, 2, 0, 0), [(0, 0, 1, 0), (0, 0, 0, 1)], 2),
    (_A2, (1, 4, -1, 1), [(0, 0, 1, 0), (0, 0, 0, -1)], 2),
]


@pytest.mark.parametrize(
    "gram, h, roots, bound",
    SCAN_CASES,
    ids=["rank1", "rank1-violation", "U-e+f", "U-e+4f", "U-2e+3f", "UA1", "UA1-root-degree", "UA2", "UA2-root-degree"],
)
@pytest.mark.parametrize("decompose", [True, False], ids=["decompose", "bn-check"])
def test_scan_matches_brute_force(gram, h, roots, bound, decompose):
    pol = QuasiPolarization(GramLattice(gram), DivClass(h))
    root_set = RootSet(pol, tuple(DivClass(r) for r in roots)) if roots else None
    if decompose:
        scan = scan_decompositions(pol, root_set, bound)
    else:  # the window scan that violation_scan falls back to
        scan = _window_scan(pol, root_set, bound, first_violation=True)
    pairs, violations, scanned, unknown, stats = reference_scan(pol, root_set, bound, not decompose)
    assert [(r.d1.coords, r.d2.coords, r.lb1, r.lb2, r.violates) for r in scan.pairs] == pairs
    assert [v.to_dict() for v in scan.violations] == violations
    assert (scan.candidates_scanned, scan.unknown_candidates) == (scanned, unknown)
    assert scan.stats() == stats


@given(
    cov=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    bound=st.integers(1, 4),
    h2=st.integers(1, 14),
)
def test_degree_window_matches_filtering_the_box(cov, bound, h2):
    box = itertools.product(range(-bound, bound + 1), repeat=len(cov))
    naive = [v for v in box if 0 < sum(a * b for a, b in zip(v, cov)) < h2]
    assert list(_degree_window(tuple(cov), bound, h2)) == naive


@given(
    cov=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    bound=st.integers(1, 4),
    h2=st.integers(1, 14),
)
def test_degree_window_size_counts_the_window(cov, bound, h2):
    assert degree_window_size(tuple(cov), bound, h2) == sum(1 for _ in _degree_window(tuple(cov), bound, h2))


_POSITIVE_BLOCKS = (((0, 1), (1, 0)), ((2, 1), (1, -2)), ((2, 3), (3, -2)), ((2,),), ((4,),))
_NEGATIVE_BLOCKS = (((-2,),), ((-4,),), ((-6,),), ((-2, 1), (1, -2)))
# largest degree bound per rank, so that brute force over the box stays small
_MAX_BOUND = {1: 6, 2: 6, 3: 5, 4: 3, 5: 2}


def _block_sum(blocks):
    n = sum(map(len, blocks))
    gram = [[0] * n for _ in range(n)]
    off = 0
    for block in blocks:
        for i, row in enumerate(block):
            gram[off + i][off : off + len(row)] = row
        off += len(block)
    return gram


@st.composite
def polarized_forms(draw):
    """An even Gram matrix of rank 1-5 with H of positive square and a
    degree bound.  Mostly a positive block plus negative definite blocks in
    a random unimodular basis (hyperbolic); sometimes an arbitrary even form,
    which may be non-hyperbolic or degenerate."""
    n = draw(st.integers(1, 5))
    if draw(st.integers(0, 3)):
        blocks = [draw(st.sampled_from([b for b in _POSITIVE_BLOCKS if len(b) <= n]))]
        while sum(map(len, blocks)) < n:
            room = n - sum(map(len, blocks))
            blocks.append(draw(st.sampled_from([b for b in _NEGATIVE_BLOCKS if len(b) <= room])))
        gram = _block_sum(blocks)
        # H mostly on the positive block, so that H^2 > 0 is common
        k = len(blocks[0])
        h = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        h += draw(st.lists(st.integers(-1, 1), min_size=n - k, max_size=n - k))
        for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
            # new basis vector i = old i + t old j: G -> E^T G E, h_j -= t h_i
            i, j = draw(st.permutations(range(n)))[:2]
            t = draw(st.sampled_from((-1, 1)))
            for row in gram:
                row[i] += t * row[j]
            gram[i] = [x + t * y for x, y in zip(gram[i], gram[j])]
            h[j] -= t * h[i]
    else:
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * draw(st.integers(-2, 2))
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = draw(st.integers(-2, 2))
        h = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    lat = GramLattice(tuple(map(tuple, gram)))
    h = DivClass(tuple(h))
    assume(lat.square(h) > 0)
    pol = QuasiPolarization(lat, h)
    bound = draw(st.integers(1, _MAX_BOUND[n]))
    near = [DivClass(v) for v in itertools.product(range(-2, 3), repeat=n)]
    candidates = [r for r in near if lat.square(r) == -2 and pol.degree(r) >= 0]
    roots = draw(st.lists(st.sampled_from(candidates), max_size=2, unique=True)) if candidates else []
    return pol, RootSet(pol, tuple(roots)), bound


def brute_force_x_h(pol, bound):
    h2 = pol.degree(pol.h)
    box = np.array(list(itertools.product(range(-bound, bound + 1), repeat=pol.lattice.rank)), dtype=np.int64)
    gram = np.array(pol.lattice.gram, dtype=np.int64)
    deg = box @ np.array(pol.h_covector, dtype=np.int64)
    sq = np.einsum("ij,jk,ik->i", box, gram, box)
    keep = (deg > 0) & (deg < h2) & (sq >= -2) & (h2 - 2 * deg + sq >= -2)
    return [tuple(map(int, v)) for v in box[keep]]


def _scan_summary(scan):
    pairs = [(r.d1.coords, r.d2.coords, r.lb1, r.lb2, r.violates) for r in scan.pairs]
    return pairs, [v.to_dict() for v in scan.violations], scan.stats(), scan.unknown_candidates


@settings(max_examples=150, deadline=None)
@given(polarized_forms())
def test_x_h_path_matches_brute_force_and_the_window_scan(form):
    pol, roots, bound = form
    eigenvalues = np.linalg.eigvalsh(np.array(pol.lattice.gram, dtype=float))
    hyperbolic = (eigenvalues > 1e-9).sum() == 1 and (eigenvalues < -1e-9).sum() == pol.lattice.rank - 1
    # H^perp is negative definite exactly when the signature is (1, rank - 1),
    # and then the plane diagnostic, read from the same elimination, is quiet
    assert pol.q_form.perp_negative_definite == hyperbolic
    if hyperbolic:
        assert hyperbolic_plane_warnings(pol) == []
        classes = x_h_classes(pol, bound)
        assert classes == brute_force_x_h(pol, bound)
    else:
        with pytest.raises(PreconditionError):
            x_h_classes(pol, bound)
    found = violation_scan(pol, roots, bound)
    full = _window_scan(pol, roots, bound)
    assert [v.to_dict() for v in found.violations] == [v.to_dict() for v in full.violations[:1]]
    assert found.window_classes == full.candidates_scanned
    assert found.x_h == hyperbolic
    if found.x_h:
        assert found.candidates_scanned == len(classes)
        assert found.window_classes - found.candidates_scanned >= full.unknown_candidates
    # decompose's certificate-shaped path runs wherever H^perp is negative definite,
    # whatever the roots' degrees, and there it must give the window scan's answers
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bn, "_certificate_scan", lambda *args: taken.append(args) or _certificate_scan(*args))
        scan = scan_decompositions(pol, roots, bound)
    assert bool(taken) == hyperbolic
    assert _scan_summary(scan) == _scan_summary(full)


def brute_force_x(pol, box):
    h2 = pol.degree(pol.h)
    points = np.array(list(itertools.product(*box)), dtype=np.int64).reshape(-1, pol.lattice.rank)
    gram = np.array(pol.lattice.gram, dtype=np.int64)
    deg = points @ np.array(pol.h_covector, dtype=np.int64)
    sq = np.einsum("ij,jk,ik->i", points, gram, points)
    keep = (deg > 0) & (deg < h2) & (sq >= -2)
    return [tuple(map(int, v)) for v in points[keep]]


@settings(max_examples=150, deadline=None)
@given(polarized_forms(), st.data())
def test_x_classes_match_brute_force_in_a_box(form, data):
    pol, _, bound = form
    box = []
    for _ in range(pol.lattice.rank):
        lo = data.draw(st.integers(-bound, bound))
        box.append(range(lo, data.draw(st.integers(lo - 1, bound)) + 1))
    if not pol.q_form.perp_negative_definite:
        # both sets may be infinite: neither walker runs
        with pytest.raises(PreconditionError):
            x_classes(pol, box)
        with pytest.raises(PreconditionError):
            x_h_classes(pol, bound)
        return
    assert x_classes(pol, box) == brute_force_x(pol, box)


def test_find_violation_takes_the_x_h_path():
    # U + A1 + <-4>^2, H = e + 3f: the first violation lies past 7 688 Unknown window classes
    gram = tuple(map(tuple, _block_sum([((0, 1), (1, 0)), ((-2,),), ((-4,),), ((-4,),)])))
    pol = QuasiPolarization(GramLattice(gram), DivClass((1, 3, 0, 0, 0)))
    roots = RootSet(pol, (DivClass((0, 0, 1, 0, 0)),))
    scan = violation_scan(pol, roots, 6)
    assert scan.x_h and scan.unknown_candidates == 0
    assert (scan.candidates_scanned, scan.window_classes) == (20, 46137)
    assert find_violation(pol, roots, 6) == scan.violations[0]
    assert scan.violations[0].d1 == DivClass((0, 1, 0, 0, 0))


@pytest.mark.parametrize(
    "blocks, h, other_h, scan, negative_definite",
    [
        ([((-2,),)], (1, 3, 0), (1, 2, 0), violation_scan, True),
        ([((-2,),)], (1, 3, 0), (1, 2, 0), scan_decompositions, True),
        ([((0, 1), (1, 0)), ((-2,),)], (1, 3, 0, 0, 0), (1, 2, 0, 0, 0), scan_decompositions, False),
    ],
    ids=["x_h", "certificate_shaped", "window"],
)
def test_scans_refuse_roots_declared_for_another_polarization(blocks, h, other_h, scan, negative_definite):
    # U + A1 (the X_H path of bn-check, the certificate-shaped decompose) and
    # U + U + A1 (H^perp indefinite: the window scan), with the root r declared
    # for H' != H: every scan refuses it before any work
    lat = GramLattice(tuple(map(tuple, _block_sum([((0, 1), (1, 0)), *blocks]))))
    pol, other = QuasiPolarization(lat, DivClass(h)), QuasiPolarization(lat, DivClass(other_h))
    assert pol.q_form.perp_negative_definite is negative_definite
    r = DivClass(tuple(int(i == len(h) - 1) for i in range(len(h))))
    assert scan(pol, RootSet(pol, (r,)), 2).candidates_scanned > 0
    with pytest.raises(PreconditionError, match="declared for a different polarization"):
        scan(pol, RootSet(other, (r,)), 2)


def test_violation_certificate_invariant(U, ef):
    e, f = ef
    with pytest.raises(InputError):
        ViolationCertificate(e, f, 1, 1, 2)


# ---------------------------------------------------------------------------
# the expansion identity


@given(sq1=even, sq2=even, sq3=even, x12=small_x, x13=small_x, x23=small_x)
def test_expansion_identity(sq1, sq2, sq3, x12, x13, x23):
    assert chi_product_identity_gap(sq1, sq2, sq3, x12, x13, x23) == 0


def test_expansion_identity_rejects_odd_squares():
    with pytest.raises(InputError):
        chi_product_identity_gap(1, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# three-part criterion


def test_three_part_condition_one():
    p = DecompositionProfile.from_upper((0, 0, 0), (2, 1, 1))
    sk = no_negative_intersections(p)
    assert sk is not None
    assert (sk.lb1 * sk.lb2, sk.genus) == (8, 5)


def test_three_part_condition_two_picks_verified_grouping():
    p = DecompositionProfile.from_upper((2, 2, 2), (1, 5, 5))
    sk = no_negative_intersections(p)
    assert sk is not None
    assert sk.lb1 * sk.lb2 > sk.genus
    # recompute both sides from the profile
    assert sk.lb1 == p.group_chi(sk.group)
    assert sk.lb2 == p.group_chi(sk.complement)
    assert sk.genus == p.genus


def test_three_part_no_condition_matches():
    p = DecompositionProfile.from_upper((0, 0, 0), (1, 3, 3))
    assert no_negative_intersections(p) is None


def test_three_part_errors():
    with pytest.raises(PreconditionError):
        no_negative_intersections(DecompositionProfile.from_upper((-2, 0, 0), (1, 1, 1)))
    with pytest.raises(InputError):
        no_negative_intersections(DecompositionProfile.from_upper((0, 0), (1,)))


def test_three_part_sketches_reverify_on_random_profiles():
    rng = random.Random(7)
    for _ in range(500):
        sq = tuple(2 * rng.randint(0, 6) for _ in range(3))
        upper = tuple(rng.randint(-6, 20) for _ in range(3))
        p = DecompositionProfile.from_upper(sq, upper)
        sk = no_negative_intersections(p)
        if sk is None:
            continue
        assert p.group_chi(sk.group) * p.group_chi(sk.complement) > p.genus


# ---------------------------------------------------------------------------
# pencil multiples


def test_elliptic_multiple_basic():
    sk = elliptic_multiple(2, 1, 0)
    assert sk is not None
    assert (sk.lb1, sk.lb2, sk.genus) == (2, 3, 3)


def test_elliptic_multiple_reduction():
    sk = elliptic_multiple(4, 1, -2)
    assert sk is not None
    assert sk.genus == 4
    assert sk.lb1 * sk.lb2 == 8
    assert "2E" in sk.detail or "residual" in sk.detail


def test_elliptic_multiple_no_condition():
    assert elliptic_multiple(1, 3, 4) is None
    assert elliptic_multiple(2, 1, -2) is None
    assert elliptic_multiple(4, 0, -2) is None  # reduction fails the square check


def test_elliptic_multiple_errors():
    with pytest.raises(PreconditionError):
        elliptic_multiple(2, -1, 0)
    with pytest.raises(InputError):
        elliptic_multiple(0, 1, 0)
    with pytest.raises(InputError):
        elliptic_multiple(2, 1, 3)


# ---------------------------------------------------------------------------
# the four-part low-intersection criterion


def test_four_part_example():
    p = DecompositionProfile.from_upper((0, 0, 0, 0), (2, 2, 2, 1, 1, 1))
    sk = n4_low_intersections(p)
    assert sk is not None
    assert (sk.lb1 * sk.lb2, sk.genus) == (14, 10)
    assert sorted((*sk.group, *(sk.complement or ()))) == [0, 1, 2, 3]
    # recompute the certificate from the original profile
    assert p.group_chi(sk.group) == sk.lb1
    assert p.group_chi(sk.complement) == sk.lb2
    assert p.genus == sk.genus


def test_four_part_zero_trio_products():
    p = DecompositionProfile.from_upper((0, 0, 0, 0), (2, 2, 2, 0, 0, 0))
    sk = n4_low_intersections(p)
    assert sk is not None
    assert sk.lb1 * sk.lb2 > sk.genus


def test_four_part_guard():
    p = DecompositionProfile.from_upper((0, 0, 0, 0), (2, 2, 2, 1, 1, 2))
    with pytest.raises(PreconditionError):
        n4_low_intersections(p)


def test_four_part_requires_two_connected():
    p = DecompositionProfile.from_upper((0, 0, 0, 0), (0, 0, 1, 1, 0, 1))
    with pytest.raises(InconsistentGeometryError):
        n4_low_intersections(p)


def test_four_part_asymmetric_trio_ordering():
    p = DecompositionProfile.from_upper((0, 0, 0, 0), (2, 2, 2, 1, 0, 1))
    sk = n4_low_intersections(p)
    assert sk is not None
    assert p.group_chi(sk.group) * p.group_chi(sk.complement) > p.genus


def _reference_group_sketch(sq, x, group, complement, detail):
    """The sketch for ``group | complement`` from the raw squares and products, or None."""

    def chi(members):
        square = sum(sq[i] for i in members) + 2 * sum(x[a][b] for a, b in itertools.combinations(members, 2))
        return square // 2 + 2

    genus = chi(range(len(sq))) - 1
    lb1, lb2 = chi(group), chi(complement)
    if lb1 * lb2 <= genus:
        return None
    split = "{%s} | {%s}" % tuple(",".join(str(i + 1) for i in side) for side in (group, complement))
    return CertificateSketch(lb1, lb2, genus, split, tuple(group), tuple(complement), detail)


def _reference_three_part(sq, x):
    """``no_negative_intersections`` read from its docstring: condition (1) on
    {1,2} | {3}, then condition (2) with the partner of higher product first."""
    if x[0][1] * (sq[2] // 2 + 1) >= x[0][2] + x[1][2]:
        sketch = _reference_group_sketch(sq, x, (0, 1), (2,), "condition (1)")
        if sketch is not None:
            return sketch
    if x[1][2] <= 2 + sum(sq) // 2:
        for p, t in ((1, 2), (2, 1)) if x[0][1] >= x[0][2] else ((2, 1), (1, 2)):
            detail = f"condition (2), parts 2 and 3 ordered as ({p + 1},{t + 1})"
            sketch = _reference_group_sketch(sq, x, (0, p), (t,), detail)
            if sketch is not None:
                return sketch
    return None


def _reference_four_part(sq, x):
    """``n4_low_intersections`` read from its docstring: the last three parts
    by descending excluded product, part 1 absorbs the last, then three parts."""

    def excluded(t):
        a, b = (u for u in (1, 2, 3) if u != t)
        return x[a][b]

    p2, p3, p4 = sorted((1, 2, 3), key=lambda t: (-excluded(t), t))
    parts = ((0, p4), (p2,), (p3,))
    sq3 = [sum(sq[i] for i in part) + 2 * sum(x[a][b] for a, b in itertools.combinations(part, 2)) for part in parts]
    x3 = [[sum(x[a][b] for a in parts[i] for b in parts[j]) if i != j else 0 for j in range(3)] for i in range(3)]
    sketch = _reference_three_part(sq3, x3)
    if sketch is None:
        return None
    group, complement = (tuple(sorted(i for k in side for i in parts[k])) for side in (sketch.group, sketch.complement))
    detail = f"last three parts reordered as ({p2 + 1},{p3 + 1},{p4 + 1}); {sketch.detail}"
    return _reference_group_sketch(sq, x, group, complement, detail)


@st.composite
def _three_and_four_part_profiles(draw):
    """Nonnegative squares; at four parts, 2-connected with trio products at most 1."""
    n = draw(st.sampled_from((3, 4)))
    sq = tuple(2 * draw(st.integers(0, 6)) for _ in range(n))
    if n == 3:
        upper = draw(st.lists(st.integers(-6, 20), min_size=3, max_size=3))
    else:
        upper = draw(st.lists(st.integers(-1, 8), min_size=3, max_size=3))
        upper += draw(st.lists(st.integers(-2, 1), min_size=3, max_size=3))
    profile = DecompositionProfile.from_upper(sq, upper)
    assume(n == 3 or two_connected(profile))
    return profile


@settings(max_examples=400, deadline=None)
@given(_three_and_four_part_profiles())
@example(DecompositionProfile.from_upper((0, 0, 0), (2, 1, 1)))
@example(DecompositionProfile.from_upper((2, 2, 2), (1, 5, 5)))
@example(DecompositionProfile.from_upper((0, 0, 0, 0), (2, 2, 2, 1, 0, 1)))
def test_profile_sketches_match_the_docstring_references(profile):
    # every field: lb1 and lb2 in group order, the split label, both groups and the detail
    if profile.n == 3:
        assert no_negative_intersections(profile) == _reference_three_part(profile.sq, profile.x)
    else:
        assert n4_low_intersections(profile) == _reference_four_part(profile.sq, profile.x)


# ---------------------------------------------------------------------------
# classification


def _connected_x(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(0 if i == j else 2 for j in range(n)) for i in range(n)
    )


def test_classify_examples():
    out = classify_multi_decomposition(
        DecompositionProfile((8, 2, 0), _connected_x(3)), [True] * 3
    )
    assert isinstance(out, NotBNGeneral) and out.case_id == "3b"
    out = classify_multi_decomposition(
        DecompositionProfile((6, 2, 0), _connected_x(3)), [True] * 3
    )
    assert out == ExceptionalProfile("n=3: D1^2 in {2,4,6}, D2^2 = 2, D3^2 = 0")
    out = classify_multi_decomposition(
        DecompositionProfile((0, 0, 0, 0), _connected_x(4)), [True] * 4
    )
    assert out == ExceptionalProfile("n=4 all isotropic")


def test_classify_flags_required():
    p = DecompositionProfile((8, 2, 0), _connected_x(3))
    with pytest.raises(PreconditionError):
        classify_multi_decomposition(p, [True, False, True])
    with pytest.raises(InputError):
        classify_multi_decomposition(p, [True])


def test_classify_matched_cases_carry_verified_certificates():
    shapes = [
        (3, (8, 2, 0)),
        (3, (4, 4, 0)),
        (3, (2, 2, 2)),
        (3, (6, 4, 2)),
        (4, (2, 0, 0, 0)),
        (4, (4, 4, 2, 0)),
    ]
    for n, sq in shapes:
        p = DecompositionProfile(sq, _connected_x(n))
        out = classify_multi_decomposition(p, [True] * n)
        assert isinstance(out, NotBNGeneral)
        assert out.certificate is not None
        sk = out.certificate
        assert p.group_h0_floor(sk.group) * p.group_h0_floor(sk.complement) > p.genus


def _expected_kind(n: int, sq: tuple[int, ...]) -> str:
    # independent oracle for the match/label dichotomy, from sorted squares
    t = sorted(sq, reverse=True)
    if n >= 5:
        return "case"
    if n == 4:
        return "label" if all(v == 0 for v in t) else "case"
    if t[2] >= 2:
        return "case"
    if t[1] == 0:
        return "label"
    if t[1] == 2:
        return "label" if t[0] in (2, 4, 6) else "case"
    return "case"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_classify_total_on_nonnegative_profiles(n):
    values = range(0, 12, 2)
    x = _connected_x(n)
    for sq in itertools.product(values, repeat=n):
        out = classify_multi_decomposition(DecompositionProfile(sq, x), [True] * n)
        kind = "case" if isinstance(out, NotBNGeneral) else "label"
        assert kind == _expected_kind(n, sq), (sq, out)


def test_classify_n5_always_case_one():
    p = DecompositionProfile((0,) * 5, _connected_x(5))
    out = classify_multi_decomposition(p, [True] * 5)
    assert isinstance(out, NotBNGeneral) and out.case_id == "1"


def _mask_splits(n):
    """The splits as a bitmask loop over parts 1..n-1 lists them."""
    rest = list(range(1, n))
    for mask in range(2 ** (n - 1) - 1):
        left = (0,) + tuple(rest[k] for k in range(n - 1) if mask >> k & 1)
        yield left, tuple(i for i in range(1, n) if i not in left)


def _split_order(split):
    return len(split[0]), split[0]


@pytest.mark.parametrize("n", range(2, 9))
def test_splits_are_the_mask_loop_splits_smallest_group_first(n):
    p = DecompositionProfile((0,) * n, _connected_x(n))
    assert list(p.splits()) == sorted(_mask_splits(n), key=_split_order)


def _reference_classify(profile):
    """``classify_multi_decomposition`` with every split listed, sorted, then searched."""
    out = classify_multi_decomposition(profile, [True] * profile.n)
    if isinstance(out, ExceptionalProfile):
        return out
    g = profile.genus
    for left, right in sorted(_mask_splits(profile.n), key=_split_order):
        lb1, lb2 = profile.group_h0_floor(left), profile.group_h0_floor(right)
        if lb1 * lb2 > g:
            split = "{%s} | {%s}" % tuple(",".join(str(i + 1) for i in group) for group in (left, right))
            sketch = CertificateSketch(lb1, lb2, g, split, left, right, "partial-sum h0 floors")
            return NotBNGeneral(out.case_id, sketch)
    note = "no partial-sum certificate from the profile alone; requires geometric input"
    return NotBNGeneral(out.case_id, None, note)


@st.composite
def _classified_profiles(draw):
    """n = 3..8; for n >= 5, also negative squares beside small products, where
    about half the profiles have no partial-sum certificate."""
    n = draw(st.integers(3, 8))
    if n >= 5 and draw(st.booleans()):
        squares, products = st.integers(-3, -1), st.integers(0, 2)
    else:  # n = 3 and n = 4 need nonnegative squares
        squares, products = st.integers(0 if n <= 4 else -1, 3), st.integers(-1, 2)
    sq = tuple(2 * draw(squares) for _ in range(n))
    size = n * (n - 1) // 2
    return DecompositionProfile.from_upper(sq, draw(st.lists(products, min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None)
@given(_classified_profiles())
def test_classify_matches_the_sorted_mask_loop(profile):
    if profile.genus < 2:  # H^2 <= 0: not a quasi-polarization, refused before any match
        with pytest.raises(PreconditionError, match=f"^genus {profile.genus} < 2: "):
            classify_multi_decomposition(profile, [True] * profile.n)
        return
    assert classify_multi_decomposition(profile, [True] * profile.n) == _reference_classify(profile)


def test_classify_without_a_certificate_matches_the_sorted_mask_loop():
    # every split has both floors 1 and the genus is 2: the search runs through all 15
    p = DecompositionProfile.from_upper((-4,) * 5, (2,) + (1,) * 9)
    out = classify_multi_decomposition(p, [True] * 5)
    assert out == _reference_classify(p) and out.certificate is None and out.note


@st.composite
def _criterion_certified_profiles(draw):
    """Profiles the three- or four-part criterion certifies: squares even in
    0..12, products in -2..8, genus >= 2; at four parts 2-connected, with the
    last three parts' products at most 1, as that criterion requires."""
    n = draw(st.sampled_from((3, 4)))
    sq = tuple(2 * draw(st.integers(0, 6)) for _ in range(n))
    upper = draw(st.lists(st.integers(-2, 8), min_size=3, max_size=3))
    if n == 4:
        upper += draw(st.lists(st.integers(-2, 1), min_size=3, max_size=3))
    profile = DecompositionProfile.from_upper(sq, upper)
    assume(profile.genus >= 2 and (n == 3 or two_connected(profile)))
    assume((no_negative_intersections if n == 3 else n4_low_intersections)(profile) is not None)
    return profile


@settings(max_examples=400, deadline=None)
@given(_criterion_certified_profiles())
@example(DecompositionProfile.from_upper((0, 0, 0), (2, 1, 1)))
@example(DecompositionProfile.from_upper((2, 2, 2), (1, 5, 5)))
@example(DecompositionProfile.from_upper((0, 0, 0, 0), (2, 2, 2, 1, 0, 1)))
@example(DecompositionProfile.from_upper((4, 0, 0, 0), (2, 2, 2, 0, 0, 0)))
def test_classify_answers_every_profile_a_criterion_certifies(profile):
    # the criteria left the package: classify must certify what they certify,
    # with a split whose h0 floors re-verify, unless it labels the profile exceptional
    out = classify_multi_decomposition(profile, [True] * profile.n)
    if isinstance(out, ExceptionalProfile):
        return
    sk = out.certificate
    assert isinstance(out, NotBNGeneral) and sk is not None and out.note is None
    assert sorted((*sk.group, *sk.complement)) == list(range(profile.n))
    assert (sk.lb1, sk.lb2, sk.genus) == (
        profile.group_h0_floor(sk.group), profile.group_h0_floor(sk.complement), profile.genus
    )
    assert sk.lb1 * sk.lb2 > sk.genus


def test_classify_refuses_split_searches_past_the_ceiling():
    # (2^(n-1) - 1) n(n-1)/2 steps: 99 614 530 at n = 20, 220 200 750 at n = 21;
    # the first split certifies these, so only the refusal could make them slow
    p = DecompositionProfile.from_upper((10,) * 20, (1,) * 190)
    assert classify_multi_decomposition(p, [True] * 20).certificate.split.startswith("{1} | ")
    p = DecompositionProfile.from_upper((10,) * 21, (1,) * 210)
    with pytest.raises(InputError, match="bound overflow: 220200750 split-search steps"):
        classify_multi_decomposition(p, [True] * 21)


# ---------------------------------------------------------------------------
# decompose over certificate-shaped candidates


# the negative definite blocks after U, and the coordinates of their simple roots
_ROOT_LATTICES = {
    "U": ((), ()),
    "U+A1": ((((-2,),),), (2,)),
    "U+A2": ((((-2, 1), (1, -2)),), (2, 3)),
    "U+A1+A1": ((((-2,),), ((-2,),)), (2, 3)),
    "U+A1+<-4>^2": ((((-2,),), ((-4,),), ((-4,),)), (2,)),
}


def _u_a1(h, bound):
    # U + A1 with H = e + 2f - r: r has degree 2 and the class r - f, Effective by
    # Riemann-Roch, peels to -f, so the search certifies classes that peeling refutes
    pol = QuasiPolarization(GramLattice(((0, 1, 0), (1, 0, 0), (0, 0, -2))), DivClass(h))
    return pol, RootSet(pol, (DivClass((0, 0, 1)),)), bound


@st.composite
def root_surfaces(draw):
    """A lattice of ``_ROOT_LATTICES`` with H = a e + b f plus a part on the
    other blocks, of positive square; some of its simple roots, each signed so
    that its degree is >= 0, so that roots may have positive degree or meet
    negatively; and a degree bound, in a signed-permutation basis."""
    blocks, root_coords = _ROOT_LATTICES[draw(st.sampled_from(sorted(_ROOT_LATTICES)))]
    gram = _block_sum([((0, 1), (1, 0)), *blocks])
    n = len(gram)
    h = [draw(st.integers(1, 5)), draw(st.integers(1, 5))]
    h += draw(st.lists(st.integers(-1, 1), min_size=n - 2, max_size=n - 2))
    declared = draw(st.lists(st.sampled_from(root_coords), unique=True)) if root_coords else []
    roots = []
    for k in declared:
        degree = sum(h[i] * gram[i][k] for i in range(n))  # H . r_k for the simple root r_k
        sign = -1 if degree < 0 else 1 if degree > 0 else draw(st.sampled_from((1, -1)))
        roots.append([sign * int(i == k) for i in range(n)])
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    gram = tuple(tuple(signs[i] * signs[j] * gram[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    lat = GramLattice(gram)
    h = DivClass(tuple(signs[i] * h[perm[i]] for i in range(n)))
    assume(lat.square(h) > 0)
    pol = QuasiPolarization(lat, h)
    roots = RootSet(pol, tuple(DivClass(tuple(signs[i] * r[perm[i]] for i in range(n))) for r in roots))
    return pol, roots, draw(st.integers(1, 4 if n < 5 else 3))


@settings(max_examples=150, deadline=None)
@given(root_surfaces())
@example(_u_a1((1, 2, -1), 6))
def test_certificate_scan_matches_the_window_scan(surface):
    pol, roots, bound = surface
    scan = _certificate_scan(pol, roots, bound)
    assert _scan_summary(scan) == _scan_summary(_window_scan(pol, roots, bound))
    assert _scan_summary(scan_decompositions(pol, roots, bound)) == _scan_summary(scan)


def _u_a1_a1_search():
    # U + A1 + A1 with H = 2e + 5f - r1 at bound 11: r1 has degree 2, and 106
    # verdicts of the scan are effective_root_search
    gram = tuple(map(tuple, _block_sum([((0, 1), (1, 0)), ((-2,),), ((-2,),)])))
    pol = QuasiPolarization(GramLattice(gram), DivClass((2, 5, -1, 0)))
    return pol, RootSet(pol, (DivClass((0, 0, 1, 0)), DivClass((0, 0, 0, 1)))), 11


def _u_a2_search():
    # U + A2 with H = 2e + 3f - r1 at bound 3: classes H - D of equal degree
    # and root dots but squares -4 and -6 get root_search and peeling verdicts
    pol = QuasiPolarization(GramLattice(_A2), DivClass((2, 3, -1, 0)))
    return pol, RootSet(pol, (DivClass((0, 0, 1, 0)), DivClass((0, 0, 0, -1)))), 3


@settings(max_examples=100, deadline=None)
@given(root_surfaces())
@example(_u_a1((1, 2, -1), 6))
@example(_u_a1_a1_search())
@example(_u_a2_search())
def test_shape_verdicts_match_effectivity_status(surface):
    # every verdict the certificate scan reads from degree, square and root
    # dots, on D and on H - D, is the verdict effectivity_status gives the class
    pol, roots, bound = surface
    peel = cache(lambda dots: _peel(list(dots), roots, DEFAULT_COEFF_BOUND))
    rules = Counter()
    for v, deg, sq, dots, first, second in zip(*bn._shape_verdicts(pol, roots, bound, peel)):
        d = DivClass(v)
        assert (deg, sq, dots) == (
            pol.degree(d), pol.lattice.square(d), tuple(pol.lattice.intersect(d, r) for r in roots.roots)
        )
        want = effectivity_status(pol, d, roots)
        assert first == (want.status, want.rule)
        if want.status is Effectivity.EFFECTIVE:
            want = effectivity_status(pol, pol.h - d, roots)
            assert second == (want.status, want.rule)
        else:
            assert second is None
        rules.update(verdict[1] for verdict in (first, second) if verdict)
    if surface == _u_a1_a1_search():
        assert rules["root_search"] == 106


def test_root_sets_print_their_roots():
    # Hypothesis prints a falsifying example through its pretty printer, which
    # falls back to the class's own repr: the roots, not the polarization
    _, roots, _ = _u_a1((1, 2, -1), 1)
    assert pretty(roots) == repr(roots) == "RootSet(roots=(DivClass(0, 0, 1),))"


@pytest.mark.parametrize(
    "gram, h, roots, bound",
    [
        (((-2, -1, 0), (-1, 2, -1), (0, -1, 0)), (-2, 2, -3), [(1, 0, 1)], 3),
        (
            ((0, 1, 0, 0), (1, -2, 3, -4), (0, 3, -2, 3), (0, -4, 3, -6)),
            (1, 3, 3, 0),
            [(-1, 0, 1, 0), (0, 0, 1, 1)],
            1,
        ),
    ],
    ids=["UA1", "UA2"],
)
def test_certificate_scan_needs_the_widened_box(gram, h, roots, bound):
    # U + A1 and U + A2 in skewed bases: some Effective class in the box has
    # its only certificates E + sum c_j R_j with E outside the box
    pol = QuasiPolarization(GramLattice(gram), DivClass(h))
    root_set = RootSet(pol, tuple(map(DivClass, roots)))
    scan = _certificate_scan(pol, root_set, bound)
    assert _scan_summary(scan) == _scan_summary(_window_scan(pol, root_set, bound))


def test_certificate_scan_leaves_only_infinite_x_to_the_window_scan(monkeypatch):
    # an A2 pair meeting negatively, and a root of positive degree, are not contracted
    # and take the certificate-shaped path; so do seven roots, whose search space
    # 11^7 is past the root search's cap, for the window scan runs the same search
    a2 = QuasiPolarization(GramLattice(_A2), DivClass((1, 2, 0, 0)))
    lat = GramLattice(((0, 1, 0), (1, 0, 0), (0, 0, -2)))
    pol = QuasiPolarization(lat, DivClass((2, 3, -1)))
    gram = tuple(map(tuple, _block_sum([((0, 1), (1, 0))] + [((-2,),)] * 7)))
    ua7 = QuasiPolarization(GramLattice(gram), DivClass((1, 2) + (0,) * 7))
    seven = tuple(DivClass(tuple(int(i == k) for i in range(9))) for k in range(2, 9))
    for p, roots, bound in (
        (a2, RootSet(a2, (DivClass((0, 0, 1, 0)), DivClass((0, 0, 0, -1)))), 2),
        (pol, RootSet(pol, (DivClass((0, 0, 1)),)), 2),
        (ua7, RootSet(ua7, seven), 1),
    ):
        assert roots.contracted == (p is ua7)
        taken = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bn, "_certificate_scan", lambda *args: taken.append(args) or _certificate_scan(*args))
            scan = scan_decompositions(p, roots, bound)
        assert taken and _scan_summary(scan) == _scan_summary(_window_scan(p, roots, bound))

    def unreachable(*args):
        raise AssertionError("the certificate-shaped scan ran")

    monkeypatch.setattr(bn, "_certificate_scan", unreachable)
    # a degenerate form: H^perp holds the isotropic (0, 0, 1), so X may be infinite
    degenerate = QuasiPolarization(GramLattice(((0, 1, 0), (1, 0, 0), (0, 0, 0))), DivClass((1, 2, 0)))
    scan = scan_decompositions(degenerate, None, 2)
    assert _scan_summary(scan) == _scan_summary(_window_scan(degenerate, None, 2))


def test_certificate_scan_pins_the_window_scan_stats():
    # the window scan took about 4 s and 10 s on these; the figures are its output
    a2 = QuasiPolarization(GramLattice(_A2), DivClass((1, 2, 0, 0)))
    scan = scan_decompositions(a2, RootSet(a2, (DivClass((0, 0, 1, 0)), DivClass((0, 0, 0, 1)))), 10)
    assert scan.stats() == {
        "candidates_scanned": 13671,
        "effective_riemann_roch": 69,
        "effective_peeling": 806,
        "effective_root_search": 10,
        "not_effective_peeling": 0,
        "unknown_root_nef_residual": 11777,
        "unknown_search_exhausted": 1850,
    }
    gram = tuple(map(tuple, _block_sum([((0, 1), (1, 0)), ((-2,),), ((-4,),), ((-4,),)])))
    pol = QuasiPolarization(GramLattice(gram), DivClass((1, 3, 0, 0, 0)))
    scan = scan_decompositions(pol, RootSet(pol, (DivClass((0, 0, 1, 0, 0)),)), 10)
    assert scan.stats() == {
        "candidates_scanned": 324135,
        "effective_riemann_roch": 62,
        "effective_peeling": 159,
        "effective_root_search": 0,
        "not_effective_peeling": 0,
        "unknown_root_nef_residual": 324113,
        "unknown_search_exhausted": 0,
    }
