import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3bn import (
    DecompositionProfile,
    ExceptionalProfile,
    InconsistentGeometryError,
    InputError,
    NotBNGeneral,
    PreconditionError,
    QuasiPolarization,
    ViolationCertificate,
    check_pair,
    chi_product_identity_gap,
    classify_multi_decomposition,
    elliptic_multiple,
    find_violation,
    n4_low_intersections,
    no_negative_intersections,
    scan_decompositions,
)
from k3bn.bn import _degree_window
from conftest import rank_one

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


def test_profile_derived_quantities():
    p = DecompositionProfile.from_upper((0, 0, 0), (2, 1, 1))
    assert p.h_square == 8
    assert p.genus == 5
    assert p.group_chi((0, 1)) == 4
    assert p.group_chi((2,)) == 2
    assert p.crossing((0,)) == 3
    assert p.two_connected()
    assert not DecompositionProfile.from_upper((0, 0), (1,)).two_connected()


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
    cert = find_violation(u_pol, degree_bound=5, workers=1)
    assert cert is not None
    assert {cert.d1, cert.d2} == {e, f}


def test_find_violation_rank_one_none():
    for m in (2, 4):
        lat, pol = rank_one(m)
        assert find_violation(pol, degree_bound=5, workers=1) is None


def test_violation_implies_find_violation(u_pol, ef):
    e, f = ef
    assert check_pair(u_pol, e, f) is not None
    assert find_violation(u_pol, degree_bound=1, workers=1) is not None


def test_find_violation_bound_validation(u_pol):
    with pytest.raises(InputError):
        find_violation(u_pol, degree_bound=0)


def test_scan_reports_unknown_candidates(U, ef):
    e, f = ef
    pol = QuasiPolarization(U, e + f)
    scan = scan_decompositions(pol, degree_bound=3, collect_pairs=True, workers=1)
    assert scan.unknown_candidates > 0
    # no roots are declared: every Unknown is a root-nef residual
    assert scan.stats()["unknown_root_nef_residual"] == scan.unknown_candidates
    assert all(rec.d1 + rec.d2 == pol.h for rec in scan.pairs)


def test_scan_deterministic_across_workers(U, ef):
    e, f = ef
    pol = QuasiPolarization(U, e + 4 * f)
    seq = scan_decompositions(pol, degree_bound=4, collect_pairs=True, workers=1)
    par = scan_decompositions(pol, degree_bound=4, collect_pairs=True, workers=2)
    assert [r.to_dict() for r in seq.pairs] == [r.to_dict() for r in par.pairs]
    assert [v.to_dict() for v in seq.violations] == [v.to_dict() for v in par.violations]
    assert seq.stats() == par.stats()


@given(
    cov=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    first=st.integers(-3, 3),
    bound=st.integers(3, 4),
    h2=st.integers(1, 14),
)
def test_degree_window_matches_filtering_the_box(cov, first, bound, h2):
    box = itertools.product(range(-bound, bound + 1), repeat=len(cov) - 1)
    naive = [t for t in box if 0 < first * cov[0] + sum(a * b for a, b in zip(t, cov[1:])) < h2]
    assert list(_degree_window(tuple(cov), first, bound, h2)) == naive


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
