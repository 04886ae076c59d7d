import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from k3bn import DivClass, GramLattice, InputError, QuasiPolarization
from k3bn.lattice import hyperbolic_plane, hyperbolic_plane_warnings
from library_reference import primitive

coords2 = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
small_ints = st.integers(-20, 20)


def test_intersect_reads_off_gram(U, ef):
    e, f = ef
    assert U.intersect(e, f) == 1
    assert U.intersect(f, e) == 1


def test_intersect_zero_class(U, ef):
    e, _ = ef
    assert U.intersect(e, U.zero()) == 0


def test_square_by_hand(U, ef):
    e, f = ef
    d = e + 3 * f
    assert U.intersect(d, d) == 6


def test_chi_values(U, ef):
    e, f = ef
    assert U.chi(e) == 2
    assert U.chi(U.zero()) == 2
    assert U.chi(e + 3 * f) == 5


def test_genus_values(U, ef):
    e, f = ef
    assert U.genus(e + f) == 2
    assert U.genus(e + 3 * f) == 4
    lat = GramLattice(((2,),))
    assert lat.genus(DivClass((1,))) == 2


def test_gram_validation():
    with pytest.raises(InputError):
        GramLattice(((1,),))  # odd diagonal
    with pytest.raises(InputError):
        GramLattice(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(InputError):
        GramLattice(((0, 1),))  # not square
    with pytest.raises(InputError):
        GramLattice(())


def test_gram_validation_lists_every_violation():
    with pytest.raises(InputError) as err:
        GramLattice(((1, 1, 0), (1, 0, 2), (0, 3, 3)))
    assert err.value.violations == [
        "gram[0][0]: odd diagonal entry 1 in an even lattice",
        "gram[1][2]: not symmetric",
        "gram[2][2]: odd diagonal entry 3 in an even lattice",
    ]
    with pytest.raises(InputError) as err:
        GramLattice(((0, True), (1,)))
    assert err.value.violations == ["gram[1]: expected a row of length 2", "gram[0][1]: not an integer"]


def test_dimension_mismatch(U):
    with pytest.raises(InputError):
        U.intersect(DivClass((1,)), DivClass((1, 0)))
    with pytest.raises(InputError):
        U.chi(DivClass((1, 0, 0)))


def test_div_class_arithmetic(U, ef):
    e, f = ef
    assert (e + f) - f == e
    assert -e == DivClass((-1, 0))
    assert 3 * f == DivClass((0, 3))
    assert (2 * e + 4 * f).content() == 2
    assert primitive(2 * e + 4 * f) == e + 2 * f
    with pytest.raises(InputError):
        primitive(U.zero())


def test_polarization_requires_positive_square(U, ef):
    e, f = ef
    with pytest.raises(InputError):
        QuasiPolarization(U, e)  # e^2 = 0
    pol = QuasiPolarization(U, e + f)
    assert pol.genus == 2
    assert pol.degree(e) == 1


@given(a=small_ints, b=small_ints, d=coords2, dp=coords2, e=coords2)
def test_bilinearity(a, b, d, dp, e):
    U = hyperbolic_plane()
    D, Dp, E = DivClass(d), DivClass(dp), DivClass(e)
    lhs = U.intersect(a * D + b * Dp, E)
    assert lhs == a * U.intersect(D, E) + b * U.intersect(Dp, E)


@given(d=coords2)
def test_chi_is_even_in_the_class(d):
    U = hyperbolic_plane()
    D = DivClass(d)
    assert U.chi(D) == U.chi(-D)


@given(d1=coords2, d2=coords2)
def test_genus_addition_identity(d1, d2):
    U = hyperbolic_plane()
    D1, D2 = DivClass(d1), DivClass(d2)
    assert U.genus(D1 + D2) == U.genus(D1) + U.genus(D2) + U.intersect(D1, D2) - 1


@given(d=coords2)
def test_square_parity(d):
    U = hyperbolic_plane()
    assert U.intersect(DivClass(d), DivClass(d)) % 2 == 0


def test_plane_diagnostic_quiet_on_hyperbolic(U, ef):
    e, f = ef
    assert hyperbolic_plane_warnings(QuasiPolarization(U, e + f)) == []


def test_plane_diagnostic_flags_positive_definite_drift():
    # even positive-definite block next to H: planes through H go positive
    lat = GramLattice(((2, 0), (0, 2)))
    pol = QuasiPolarization(lat, DivClass((1, 0)))
    assert hyperbolic_plane_warnings(pol)


def _plane_witness(warning):
    coords = re.search(r"H and \(([^)]*)\)", warning).group(1).rstrip(",")
    return DivClass(tuple(int(x) for x in coords.split(",")))


@st.composite
def even_forms(draw):
    """An even symmetric Gram matrix of rank 1-4 with small entries, and a
    class H of positive square."""
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    lat = GramLattice(tuple(map(tuple, gram)))
    h = DivClass(tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))))
    assume(lat.square(h) > 0)
    return gram, QuasiPolarization(lat, h)


def _form(gram, h):
    return gram, QuasiPolarization(GramLattice(gram), DivClass(h))


@given(even_forms())
@example(_form(((2, 0, 0), (0, 0, 1), (0, 1, 0)), (1, 0, 0)))  # zero pivot, nonzero row
@example(_form(((0, 1, 0), (1, 0, 0), (0, 0, 2)), (1, 1, 0)))  # positive pivot
@example(_form(((2, 0), (0, 0)), (1, 0)))  # degenerate form, zero pivot, zero row
# a pivot eliminated, then a zero pivot with a nonzero row
@example(_form(((2, 2, 1, 1), (2, 0, 1, -1), (1, 1, 2, 1), (1, -1, 1, -2)), (1, 0, 1, 1)))
def test_plane_diagnostic_is_exact(form):
    gram, pol = form
    warnings = hyperbolic_plane_warnings(pol)
    positive = int((np.linalg.eigvalsh(np.array(gram, dtype=float)) > 1e-9).sum())
    assert bool(warnings) == (positive > 1)
    for w in warnings:
        d = _plane_witness(w)
        det2 = pol.lattice.square(pol.h) * pol.lattice.square(d) - pol.degree(d) ** 2
        assert det2 > 0
        assert f"positive Gram determinant {det2};" in w


@pytest.mark.parametrize(
    "negative_part",
    [((-2,),), ((-2, 1), (1, -2)), ((-4, 0), (0, -4))],
    ids=["U+A1", "U+A2", "U+<-4>^2"],
)
@given(data=st.data())
def test_plane_diagnostic_quiet_on_hyperbolic_lattices(negative_part, data):
    # U plus a negative definite block has signature (1, rank-1): never a warning
    m = len(negative_part)
    gram = ((0, 1) + (0,) * m, (1, 0) + (0,) * m) + tuple((0, 0) + row for row in negative_part)
    lat = GramLattice(gram)
    rest = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    a = data.draw(st.integers(1, 4))
    neg = lat.square(DivClass((0, 0, *rest)))
    b = -neg // (2 * a) + 1 + data.draw(st.integers(0, 3))  # 2ab > -neg, so H^2 > 0
    sign = data.draw(st.sampled_from((1, -1)))
    pol = QuasiPolarization(lat, DivClass((sign * a, sign * b, *rest)))
    assert hyperbolic_plane_warnings(pol) == []
