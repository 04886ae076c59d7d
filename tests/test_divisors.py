import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from k3bn import (
    DivClass,
    Effectivity,
    EffectivityVerdict,
    GramLattice,
    InconsistentGeometryError,
    InputError,
    PreconditionError,
    QuasiPolarization,
    RootSet,
    effectivity_status,
    h0_lower_bound,
    reduce_fixed_components,
)
from k3bn.divisors import _h0_floor, _residual, h0_floor
from conftest import u_plus_root
from library_reference import (
    IncompatiblePair,
    SameEllipticPencil,
    SumSquareAtLeastFour,
    check_pair,
    two_divisor_classification,
)


def test_effectivity_examples(U, ef, u_pol):
    e, f = ef
    assert effectivity_status(u_pol, e).status is Effectivity.EFFECTIVE
    assert effectivity_status(u_pol, -e).status is Effectivity.NOT_EFFECTIVE
    assert effectivity_status(u_pol, U.zero()).status is Effectivity.NOT_EFFECTIVE


def test_effectivity_unknown_without_roots(U, ef, u_pol):
    e, f = ef
    # positive degree, square -4, no declared roots: honestly Unknown
    d = -e + 2 * f
    assert U.square(d) == -4
    assert effectivity_status(u_pol, d).status is Effectivity.UNKNOWN


def test_effectivity_via_root_combination():
    lat, (e, f, r) = u_plus_root()
    pol = QuasiPolarization(lat, e + f)
    roots = RootSet(pol, (r,))
    # degree 0: r itself is a combination of degree-zero roots
    v = effectivity_status(pol, r, roots)
    assert v.status is Effectivity.EFFECTIVE
    assert v.combination == (1,)
    # e + 2r has square -8 but splits as (root part) + e
    v2 = effectivity_status(pol, e + 2 * r, roots)
    assert v2.status is Effectivity.EFFECTIVE
    # degree 0 and not a root combination
    v3 = effectivity_status(pol, e - f, roots)
    assert v3.status is Effectivity.NOT_EFFECTIVE


def test_degree_zero_without_roots_is_not_effective(U, ef, u_pol):
    e, f = ef
    v = effectivity_status(u_pol, e - f)
    assert (v.status, v.rule) == (Effectivity.NOT_EFFECTIVE, "degree_zero_roots")
    with pytest.raises(PreconditionError):
        h0_lower_bound(u_pol, e - f)
    with pytest.raises(PreconditionError):
        check_pair(u_pol, e - f, 2 * f)
    # U + U with H = e1 + f1: e2 has degree 0 and square 0 but is not zero
    lat = GramLattice(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    pol = QuasiPolarization(lat, lat.basis(0) + lat.basis(1))
    v = effectivity_status(pol, lat.basis(2))
    assert (v.status, v.rule) == (Effectivity.NOT_EFFECTIVE, "degree_zero_roots")


def test_effectivity_antisymmetry(U, u_pol):
    rng = random.Random(11)
    for _ in range(200):
        d = DivClass((rng.randint(-6, 6), rng.randint(-6, 6)))
        if u_pol.degree(d) == 0:
            continue
        plus = effectivity_status(u_pol, d).status is Effectivity.EFFECTIVE
        minus = effectivity_status(u_pol, -d).status is Effectivity.EFFECTIVE
        assert not (plus and minus)


def test_verdict_requires_witness():
    with pytest.raises(InputError):
        EffectivityVerdict(Effectivity.EFFECTIVE, "")


def test_h0_lower_bound_examples(U, ef):
    e, f = ef
    pol = QuasiPolarization(U, e + 3 * f)
    assert h0_lower_bound(pol, e) == 2
    assert h0_lower_bound(pol, 3 * f) == 4  # pencil refinement beats chi = 2
    assert h0_lower_bound(pol, e + f) == 3


def test_h0_lower_bound_precondition(U, ef):
    e, f = ef
    pol = QuasiPolarization(U, e + 3 * f)
    with pytest.raises(PreconditionError):
        h0_lower_bound(pol, -e)


def test_h0_at_least_two_on_nonnegative_squares(U, u_pol):
    rng = random.Random(5)
    for _ in range(200):
        d = DivClass((rng.randint(0, 5), rng.randint(0, 5)))
        if d.is_zero:
            continue
        assert h0_lower_bound(u_pol, d) >= 2


def test_reduce_fixed_components_base_case(u_pol, ef):
    e, f = ef
    assert reduce_fixed_components(u_pol, [e, f], []) == [e, f]


def test_reduce_fixed_components_single_step():
    lat = GramLattice(((0, 1, 0), (1, 0, 1), (0, 1, -2)))
    e, f, r = lat.basis(0), lat.basis(1), lat.basis(2)
    pol = QuasiPolarization(lat, e + f + r)
    out = reduce_fixed_components(pol, [e, f], [r])
    assert out == [e, f + r]
    assert lat.square(f + r) == 0 >= lat.square(f)


def test_reduce_fixed_components_absorbs_into_single_part():
    lat = GramLattice(((0, 1, 0), (1, 0, 1), (0, 1, -2)))
    e, f, r = lat.basis(0), lat.basis(1), lat.basis(2)
    pol = QuasiPolarization(lat, e + f + r)
    out = reduce_fixed_components(pol, [e + f], [r])
    assert out == [e + f + r]
    assert lat.square(out[0]) == 2 >= lat.square(e + f)


def test_reduce_fixed_components_reports_stuck_input():
    lat, (e, f, r) = u_plus_root()
    # r is orthogonal to every part, so no absorption step exists
    pol = QuasiPolarization(lat, 2 * e + 2 * f + r)
    with pytest.raises(InconsistentGeometryError):
        reduce_fixed_components(pol, [e, f, e + f], [r])


def test_reduce_fixed_components_validates_total(u_pol, ef):
    e, f = ef
    with pytest.raises(PreconditionError):
        reduce_fixed_components(u_pol, [e], [])


def test_reduce_random_valid_inputs_preserve_sum_and_squares():
    rng = random.Random(23)
    lat, (e, f, r) = u_plus_root()
    part_pool = [e, f, e + f, e + 2 * f, 2 * e + f]
    for _ in range(300):
        parts = [rng.choice(part_pool) for _ in range(rng.randint(1, 3))]
        delta = [r] * rng.randint(0, 2)
        h = lat.zero()
        for p in parts:
            h = h + p
        for d in delta:
            h = h + d
        if lat.square(h) <= 0:
            continue
        pol = QuasiPolarization(lat, h)
        if any(pol.degree(d) < 0 for d in delta):
            continue
        if any(effectivity_status(pol, p).status is not Effectivity.EFFECTIVE for p in parts):
            continue
        out = reduce_fixed_components(pol, parts, delta)
        total = lat.zero()
        for p in out:
            total = total + p
        assert total == h
        assert len(out) == len(parts)
        for before, after in zip(parts, out):
            assert lat.square(after) >= lat.square(before)


def test_two_divisor_same_pencil(U, ef):
    e, f = ef
    assert two_divisor_classification(U, 2 * e, 3 * e) == SameEllipticPencil(2, 3)


def test_two_divisor_incompatible_pair(U, ef):
    e, f = ef
    out = two_divisor_classification(U, e, f)
    assert isinstance(out, IncompatiblePair)


def test_two_divisor_sum_square(U, ef):
    e, f = ef
    out = two_divisor_classification(U, e + f, e + f)
    assert out == SumSquareAtLeastFour(8)


def test_two_divisor_errors(U, ef):
    e, f = ef
    with pytest.raises(InconsistentGeometryError):
        two_divisor_classification(U, e, -(e + f))  # squares 0, 2 but product -1
    with pytest.raises(PreconditionError):
        two_divisor_classification(U, e - f, f)  # negative square
    lat = GramLattice(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    a = lat.basis(0)
    c = lat.basis(2)
    with pytest.raises(InconsistentGeometryError):
        two_divisor_classification(lat, a, c)  # orthogonal isotropic, different rays


def test_root_set_validation(U, ef, u_pol):
    e, f = ef
    with pytest.raises(InputError):
        RootSet(u_pol, (e,))  # square 0
    lat, (e3, f3, r) = u_plus_root()
    pol = QuasiPolarization(lat, e3 + f3)
    assert len(RootSet(pol, (r,))) == 1


def test_root_set_validation_lists_every_violation():
    lat, (e, f, r) = u_plus_root()
    pol = QuasiPolarization(lat, e + 2 * f)
    with pytest.raises(InputError) as err:
        RootSet(pol, (e, r, f - e))
    assert err.value.violations == [
        "roots[0]: square is 0, expected -2",
        "roots[2]: negative degree -1 on the polarization",
    ]


# ---------------------------------------------------------------------------
# root peeling against the search-only procedure


def _dot(gram, u, v):
    return sum(a * g * b for a, row in zip(u, gram) for g, b in zip(row, v))


def search_only_effectivity(gram, h, roots, d, bound):
    """effectivity_status without root peeling, on plain integer tuples: the reference.

    Riemann-Roch first, then a depth-first search over root multiplicities in
    [0, bound] that prunes negative-degree remainders and accepts a zero
    remainder or one of positive degree and square >= -2.
    """

    def deg(v):
        return _dot(gram, h, v)

    def rr(v):
        return deg(v) > 0 and _dot(gram, v, v) >= -2

    def search(pool, allow_remainder):
        def rec(idx, rem):
            if deg(rem) < 0:
                return False
            if idx == len(pool):
                return not any(rem) or (allow_remainder and rr(rem))
            cur = rem
            for _ in range(bound + 1):
                if rec(idx + 1, cur):
                    return True
                cur = tuple(a - b for a, b in zip(cur, pool[idx]))
            return False

        return rec(0, d)

    if not any(d) or deg(d) < 0:
        return Effectivity.NOT_EFFECTIVE
    if rr(d):
        return Effectivity.EFFECTIVE
    if deg(d) == 0:
        orth = [r for r in roots if deg(r) == 0]
        return Effectivity.EFFECTIVE if search(orth, False) else Effectivity.NOT_EFFECTIVE
    return Effectivity.EFFECTIVE if search(roots, True) else Effectivity.UNKNOWN


def _direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[off + i][off : off + len(row)] = row
        off += len(b)
    return tuple(tuple(r) for r in gram)


_UB, _A1B, _A2B = ((0, 1), (1, 0)), ((-2,),), ((-2, 1), (1, -2))


def _unit(n, *idx, sign=1):
    return tuple(sign if i in idx else 0 for i in range(n))


# lattice -> (gram, pool of (-2)-classes to declare roots from); the pools mix
# configurations H contracts with ones it does not (negatives, sums, overlaps)
DIFF_LATTICES = {
    "U": (_direct_sum(_UB), ()),
    "U+A1": (_direct_sum(_UB, _A1B), (_unit(3, 2), _unit(3, 2, sign=-1))),
    "U+A1^2": (_direct_sum(_UB, _A1B, _A1B), (_unit(4, 2), _unit(4, 3), _unit(4, 2, sign=-1))),
    "U+A2": (_direct_sum(_UB, _A2B), (_unit(4, 2), _unit(4, 3), _unit(4, 2, 3), _unit(4, 3, sign=-1))),
    "U+A2+A1": (
        _direct_sum(_UB, _A2B, _A1B),
        (_unit(5, 2), _unit(5, 3), _unit(5, 4), _unit(5, 2, 3)),
    ),
}


@st.composite
def peeling_instances(draw):
    name = draw(st.sampled_from(sorted(DIFF_LATTICES)))
    gram, pool = DIFF_LATTICES[name]
    rank = len(gram)
    # root coordinates of H may be negative, so H.R > 0 happens and peeling
    # moves the degree (U+A1 with H = (a, b, -1) is one such case)
    h = (draw(st.integers(1, 4)), draw(st.integers(1, 4))) + tuple(
        draw(st.sampled_from((0, 0, -2, -1, 1, 2))) for _ in range(rank - 2)
    )
    roots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)) if pool else []
    roots = [r for r in roots if _dot(gram, h, r) >= 0]
    # a small class plus a few declared roots, so peeling has work to do
    ds = []
    for _ in range(draw(st.integers(1, 12))):
        d = draw(st.tuples(*[st.integers(-3, 3)] * rank))
        for r in roots:
            c = draw(st.integers(0, 5))
            d = tuple(a + c * b for a, b in zip(d, r))
        ds.append(d)
    bound = draw(st.sampled_from((0, 1, 2, 3, 10)))
    return gram, h, roots, ds, bound


@settings(max_examples=400, deadline=None)
@given(inst=peeling_instances())
# root-nef residuals of square < -2 that the search still certifies, one for
# each way the roots can fail to be a configuration H contracts: positive
# degree, and a negative product of distinct roots
@example(inst=(DIFF_LATTICES["U+A2"][0], (1, 4, -1, 1), [(0, 0, 1, 0), (0, 0, 0, -1)], [(0, 4, -1, -4)], 10))
@example(inst=(DIFF_LATTICES["U+A2+A1"][0], (4, 4, 0, 0, 0), [(0, 0, 1, 1, 0), (0, 0, 0, 1, 0)], [(1, 3, 0, 9, 1)], 10))
def test_peeling_matches_search_only_reference(inst):
    gram, h, roots, ds, bound = inst
    lat = GramLattice(gram)
    if lat.square(DivClass(h)) <= 0:
        return
    pol = QuasiPolarization(lat, DivClass(h))
    root_set = RootSet(pol, tuple(DivClass(r) for r in roots))
    for d in ds:
        ref = search_only_effectivity(gram, h, roots, d, bound)
        got = effectivity_status(pol, DivClass(d), root_set, bound)
        if ref is not Effectivity.UNKNOWN:
            assert got.status is ref, (d, got)
        if got.combination is not None and got.rule != "degree_zero_roots":
            # every root certificate stays inside the multiplicity bound and
            # leaves a zero or Riemann-Roch remainder
            assert max(got.combination, default=0) <= bound
            rem = tuple(
                x - sum(c * r[i] for c, r in zip(got.combination, roots)) for i, x in enumerate(d)
            )
            assert not any(rem) or (_dot(gram, h, rem) > 0 and _dot(gram, rem, rem) >= -2)


def _u_plus_a1(h):
    lat, (e, f, r) = u_plus_root()
    pol = QuasiPolarization(lat, h(e, f, r))
    return pol, RootSet(pol, (r,)), (e, f, r)


def test_peeling_to_zero_residual():
    pol, roots, (e, f, r) = _u_plus_a1(lambda e, f, r: 2 * e + 2 * f - r)
    assert effectivity_status(pol, r, roots).rule == "riemann_roch"  # degree 2, square -2
    v = effectivity_status(pol, 2 * r, roots)
    assert (v.status, v.rule, v.combination) == (Effectivity.EFFECTIVE, "peeling", (2,))
    assert v.witness == "root multiplicities (2,), zero remainder"


def test_peeling_to_negative_degree_is_not_effective():
    pol, roots, (e, f, r) = _u_plus_a1(lambda e, f, r: 2 * e + 2 * f - r)
    d = -e + 2 * r  # degree 2, square -8; peels to -e of degree -2
    assert search_only_effectivity(pol.lattice.gram, pol.h.coords, [r.coords], d.coords, 10) is Effectivity.UNKNOWN
    v = effectivity_status(pol, d, roots)
    assert (v.status, v.rule) == (Effectivity.NOT_EFFECTIVE, "peeling")
    assert "degree -2 < 0" in v.witness


def test_peeling_obstruction_defers_to_search_certificate():
    # r - f has degree 1 and square -2 but peels to -f: these roots cannot all
    # be irreducible under a nef H, and the search's certificate is kept
    pol, roots, (e, f, r) = _u_plus_a1(lambda e, f, r: e + 2 * f - r)
    v = effectivity_status(pol, 2 * r - f, roots)
    assert (v.status, v.rule, v.combination) == (Effectivity.EFFECTIVE, "root_search", (1,))


def test_peeling_beyond_coefficient_bound_falls_back_to_search():
    pol, roots, (e, f, r) = _u_plus_a1(lambda e, f, r: e + f)
    d = e + f + 3 * r  # needs three peels to reach e + f
    v = effectivity_status(pol, d, roots)
    assert (v.rule, v.combination) == ("peeling", (3,))
    v = effectivity_status(pol, d, roots, coeff_bound=2)
    assert (v.status, v.rule, v.combination) == (Effectivity.EFFECTIVE, "root_search", (2,))
    v = effectivity_status(pol, e + 5 * r, roots, coeff_bound=2)
    assert (v.status, v.rule) == (Effectivity.UNKNOWN, "search_exhausted")


def test_root_nef_residual_is_unknown_with_reason(U, ef, u_pol):
    e, f = ef
    v = effectivity_status(u_pol, -e + 2 * f)
    assert (v.status, v.rule) == (Effectivity.UNKNOWN, "root_nef_residual")
    assert v.witness.startswith("root-nef residual with square < -2")
    pol, roots, (e3, f3, r) = _u_plus_a1(lambda e, f, r: e + f)
    v = effectivity_status(pol, -e3 + 2 * f3 + r, roots)  # peels r, then -e + 2f of square -4
    assert (v.status, v.rule) == (Effectivity.UNKNOWN, "root_nef_residual")
    assert "peeling multiplicities (1,)" in v.witness


def test_root_set_precomputes_peeling_data():
    pol, roots, (e, f, r) = _u_plus_a1(lambda e, f, r: e + f)
    assert (roots.covectors, roots.degrees, roots.products) == (((0, 0, -2),), (0,), ((-2,),))
    assert roots.contracted
    assert not RootSet(pol, (r, -r)).contracted  # a degenerate configuration
    assert not _u_plus_a1(lambda e, f, r: 2 * e + 2 * f - r)[1].contracted  # H.r = 2
    with pytest.raises(PreconditionError):
        effectivity_status(QuasiPolarization(pol.lattice, e + 2 * f), e + 2 * r, roots)


def test_h0_floor_matches_h0_lower_bound(U, ef):
    e, f = ef
    pol = QuasiPolarization(U, e + 3 * f)
    for d in (e, 3 * f, e + f, 2 * e + f):
        assert h0_floor(pol, d) == h0_lower_bound(pol, d)


def test_degree_zero_search_tells_a_null_remainder_from_zero():
    # U + U + A1 with H = e1 + f1: H^perp holds the second U, so a remainder
    # of degree 0 and square 0 need not be the zero class
    gram = _direct_sum(_UB, _UB, _A1B)
    pol = QuasiPolarization(GramLattice(gram), DivClass((1, 1, 0, 0, 0)))
    r, e2 = DivClass(_unit(5, 4)), DivClass(_unit(5, 2))
    roots = RootSet(pol, (r,))
    d = r + e2  # degree 0, square -2; D - r = e2 is null and nonzero
    assert (pol.degree(d), pol.lattice.square(d)) == (0, -2)
    rem = DivClass(_residual(d, roots.roots, (1,)))
    assert rem == e2 and (pol.degree(rem), pol.lattice.square(rem)) == (0, 0)
    v = effectivity_status(pol, d, roots)
    assert (v.status, v.rule, v.combination) == (Effectivity.NOT_EFFECTIVE, "degree_zero_roots", None)
    v = effectivity_status(pol, 2 * r, roots)  # D - 2r is the zero class
    assert (v.status, v.rule, v.combination) == (Effectivity.EFFECTIVE, "degree_zero_roots", (2,))


@st.composite
def floor_classes(draw):
    """U + A1 with H = a e + b f, and a nonzero class: drawn at random, or a
    multiple k P of the primitive isotropic P = p^2 e + q^2 f +- p q r."""
    lat = GramLattice(_direct_sum(_UB, _A1B))
    pol = QuasiPolarization(lat, DivClass((draw(st.integers(1, 5)), draw(st.integers(1, 5)), 0)))
    if draw(st.booleans()):
        p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        assume(gcd(p, q) == 1)
        k = draw(st.integers(1, 6))
        return pol, DivClass((k * p * p, k * q * q, k * p * q * draw(st.sampled_from((1, -1))))), k
    coords = draw(st.tuples(*[st.integers(-6, 6)] * 3))
    assume(any(coords))
    return pol, DivClass(coords), None


@settings(max_examples=300, deadline=None)
@given(floor_classes())
def test_integer_floor_rule_is_h0_floor(drawn):
    # the rule the certificate scan applies to D and to H - D from their
    # squares, degrees and contents gives h0_floor, whose reference is
    # max(chi, 0), raised to the pencil count content + 1 on a multiple of a
    # primitive isotropic class of positive degree
    pol, d, k = drawn
    lat, h2 = pol.lattice, pol.degree(pol.h)
    sq, deg = lat.square(d), pol.degree(d)
    want = max(sq // 2 + 2, 0)
    if sq == 0 and deg > 0:
        want = max(want, d.content() + 1)
    if k is not None:
        assert sq == 0 and deg > 0 and want == k + 1  # the pencil count wins
    assert _h0_floor(sq, deg, d.content()) == h0_floor(pol, d) == want
    w = pol.h - d
    if not w.is_zero:
        assert _h0_floor(h2 - 2 * deg + sq, h2 - deg, w.content()) == h0_floor(pol, w)
