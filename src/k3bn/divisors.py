"""Effectivity certificates, h^0 lower bounds, and divisor decomposition moves.

Everything here is a numeric shadow of statements about effective divisors on
a surface with an even class lattice.  ``effectivity_status`` decides a class
D in this order:

1. the zero class and negative degree on the (nef) polarization H are
   obstructions; positive degree with D^2 >= -2 is Effective by
   Riemann-Roch (chi >= 1 forces sections);
2. degree zero: D is Effective exactly when it is a bounded nonnegative
   combination of the declared degree-zero roots;
3. positive degree, D^2 < -2: root peeling.  If D is effective and
   D . R < 0 for an irreducible (-2)-curve R, then R is a fixed component of
   |D|, so D is effective exactly when D - R is (Saint-Donat, *Projective
   models of K-3 surfaces*, 1974; the same fact drives the fixed-component
   absorption in ``reduce_fixed_components``).  Declared roots with
   D . R < 0 are subtracted, one at a time and at most ``coeff_bound`` times
   each, carrying H . D, D^2 and every D . R_j as plain integers.  The
   residual D' decides:

   * D' = 0, or D' of positive degree with D'^2 >= -2: Effective, with the
     peel multiplicities as certificate;
   * D' of positive degree and D'^2 < -2 (D' meets every declared root
     nonnegatively): Unknown, when the declared roots form a configuration H
     contracts -- degree zero, pairwise products >= 0, negative definite.
     For such roots a bounded certificate of D would survive every peel and
     force D'^2 >= -2, so the bounded root search cannot succeed here and is
     skipped;
   * anything else (a residual of degree <= 0, a root needing more than
     ``coeff_bound`` peels, roots of positive degree left root-nef with
     D'^2 < -2) goes to the bounded search over root multiplicities in
     [0, coeff_bound].  A search hit is Effective; otherwise a residual of
     negative degree is NotEffective by peeling and anything left is Unknown.
     The search runs before the peeling obstruction is claimed because on
     input whose declared roots are not really irreducible under a nef H the
     two can disagree; there the search's certificate is kept.

Unknown is the honest third value, and every verdict records the rule that
reached it.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Callable, Sequence

from .errors import Frozen, InconsistentGeometryError, InputError, PreconditionError
from .lattice import DivClass, GramLattice, QuasiPolarization, negative_definite

# Coefficient bound for the cone-membership search over declared roots.
DEFAULT_COEFF_BOUND = 10

# Hard cap on the size of the cone search, to keep pathological inputs from
# hanging; realistic root sets are tiny.
_MAX_SEARCH_STATES = 5_000_000


class RootSet(Frozen):
    """Declared classes of irreducible curves with self-intersection -2 on ``pol``.

    Construction checks R^2 = -2 and R.H >= 0 for every root (a nef
    polarization has nonnegative degree on every irreducible curve) and
    raises one InputError listing every violation.  It computes once the
    integers root peeling needs: each covector R^T (gram), each degree H.R
    and every product R_i.R_j.  ``contracted`` records
    whether the roots form a configuration H contracts: all of degree zero,
    distinct roots meeting nonnegatively, negative definite.  Equality,
    hash and repr read ``roots`` alone.
    """

    __slots__ = ("pol", "roots", "covectors", "degrees", "products", "contracted")
    _compared = ("roots",)

    def __init__(self, pol: QuasiPolarization, roots: tuple[DivClass, ...] = ()) -> None:
        self._init(pol, roots)

    def __post_init__(self) -> None:
        roots = tuple(self.roots)
        covectors, products, degrees, bad = RootSet.measure(self.pol.lattice, self.pol.h_covector, roots)
        if bad:
            raise InputError(*bad)
        contracted = (
            not any(degrees)
            and all(products[i][j] >= 0 for i in range(len(roots)) for j in range(len(roots)) if i != j)
            and negative_definite(products)
        )
        for name, value in (
            ("roots", roots),
            ("covectors", covectors),
            ("degrees", degrees),
            ("products", products),
            ("contracted", contracted),
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.roots)

    @staticmethod
    def measure(lat: GramLattice, h_covector: tuple[int, ...], roots: tuple[DivClass, ...]):
        """Root covectors, products R_i.R_j and degrees H.R, and the root rules broken (H^2 may be <= 0)."""
        covectors = tuple(lat.covector(r) for r in roots)
        products = tuple(tuple(_dot(cv, r.coords) for r in roots) for cv in covectors)
        degrees = tuple(_dot(h_covector, r.coords) for r in roots)
        bad = [f"roots[{k}]: square is {p[k]}, expected -2" for k, p in enumerate(products) if p[k] != -2]
        bad += [f"roots[{k}]: negative degree {d} on the polarization" for k, d in enumerate(degrees) if d < 0]
        return covectors, products, degrees, bad


def _dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(map(operator.mul, u, v))


class Effectivity(Enum):
    EFFECTIVE = "Effective"
    NOT_EFFECTIVE = "NotEffective"
    UNKNOWN = "Unknown"


class EffectivityVerdict(Frozen):
    """Outcome of an effectivity test together with its certificate.

    An Effective verdict always stores a certificate and a NotEffective
    verdict always stores an obstruction; Unknown is the honest third value.
    ``rule`` names the step that decided: zero_class, negative_degree,
    riemann_roch, degree_zero_roots, peeling, root_search, or, for Unknown,
    the reason root_nef_residual or search_exhausted.
    """

    __slots__ = ("status", "witness", "combination", "rule")

    def __init__(
        self, status: Effectivity, witness: str, combination: tuple[int, ...] | None = None, rule: str = ""
    ) -> None:
        self._init(status, witness, combination, rule)

    def __post_init__(self) -> None:
        if self.status in (Effectivity.EFFECTIVE, Effectivity.NOT_EFFECTIVE) and not self.witness:
            raise InputError(f"a {self.status.value} verdict requires a stored witness")

    def __bool__(self) -> bool:
        return self.status is Effectivity.EFFECTIVE


def _minus_root(roots: RootSet, j: int, deg: int, sq: int, dots: list[int]) -> tuple[int, int, list[int]]:
    """H.D, D^2 and every D.R_i for D - R_j, from those of D: (D - R)^2 = D^2 - 2 D.R - 2."""
    return deg - roots.degrees[j], sq - 2 * dots[j] - 2, [x - p for x, p in zip(dots, roots.products[j])]


def _residual(d: DivClass, roots: tuple[DivClass, ...], mult: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - sum(m * r.coords[i] for m, r in zip(mult, roots)) for i, x in enumerate(d.coords))


def _root_combination(
    roots: RootSet, searched: Sequence[int], start: tuple, bound: int, is_zero: Callable | None = None
) -> tuple[int, ...] | None:
    """Search c_j in [0, bound] with D - sum c_j R_j zero or RR-certified effective.

    The sum runs over the roots ``searched`` (indices into ``roots``), from
    ``start``, the degree, square and root dots of D, which each subtracted
    root updates (``_minus_root``).  A remainder of positive degree counts
    when its square is >= -2, so a hit is always a sound effectivity
    certificate; one of degree 0 counts when it is the zero class: square 0
    and ``is_zero`` of the multiplicities of every root (``_verdict``).
    Returns the coefficients of the searched roots, or None.
    """
    if (bound + 1) ** len(searched) > _MAX_SEARCH_STATES:
        raise InputError(
            "root combination search too large; lower the coefficient bound or declare fewer roots"
        )
    coeffs = [0] * len(start[2])

    def dfs(idx: int, deg: int, sq: int, dots: list[int]) -> bool:
        # every remaining summand has nonnegative degree, so a negative-degree
        # remainder can never be completed
        if deg < 0:
            return False
        if idx == len(searched):
            if deg > 0:
                return sq >= -2
            return sq == 0 and (is_zero is None or is_zero(tuple(coeffs)))
        j = searched[idx]
        for c in range(bound + 1):
            coeffs[j] = c
            if dfs(idx + 1, deg, sq, dots):
                return True
            deg, sq, dots = _minus_root(roots, j, deg, sq, dots)
        coeffs[j] = 0
        return False

    return tuple(coeffs[j] for j in searched) if dfs(0, *start) else None


def _peel(dots: list[int], roots: RootSet, bound: int) -> tuple[tuple[int, ...], int, int] | None:
    """Subtract the first root R with D.R < 0 until none is left.

    ``dots`` holds every D.R_j, which alone decide the peel.  Works on
    integers only (``_minus_root``).  Returns the peel multiplicities with
    what they add to the degree and to the square of D, or None when some
    root would be peeled more than ``bound`` times.
    """
    mult, deg, sq = [0] * len(dots), 0, 0
    while True:
        j = next((j for j, x in enumerate(dots) if x < 0), None)
        if j is None:
            return tuple(mult), deg, sq
        if mult[j] == bound:
            return None
        mult[j] += 1
        deg, sq, dots = _minus_root(roots, j, deg, sq, dots)


def _open_verdict(peeled, below: bool, contracted: bool) -> tuple[Effectivity, str, tuple[int, ...] | None]:
    """The verdict of a class of positive degree that no certificate reaches.

    ``peeled`` is ``_peel`` of its root dots, ``below`` says that the peeled
    residual has negative degree, and ``contracted`` that the roots form a
    configuration H contracts.  NotEffective by peeling when ``below``;
    else Unknown: root_nef_residual when the roots are contracted and the
    peel stays within the bound, search_exhausted otherwise.
    """
    if below:
        return Effectivity.NOT_EFFECTIVE, "peeling", peeled[0]
    if peeled is not None and contracted:
        return Effectivity.UNKNOWN, "root_nef_residual", peeled[0]
    return Effectivity.UNKNOWN, "search_exhausted", None


def _verdict(
    deg: int, sq: int, dots: Sequence[int], peeled, roots: RootSet | None, bound: int, is_zero: Callable | None = None
) -> tuple[Effectivity, str, tuple[int, ...] | None]:
    """The verdict of a class D of positive degree from integers alone: (status, rule, multiplicities).

    ``deg``, ``sq`` and ``dots`` are D.H, D^2 and every D.R_j, and
    ``peeled`` is ``_peel`` of the dots within ``bound``.  The order is the
    module docstring's: Riemann-Roch, Effective by peeling, the root-nef
    residual under contracted roots, the bounded root search, and then
    ``_open_verdict``.  The multiplicities are the peel's or the search's,
    or None.  ``is_zero(mult)`` tells whether a residual D - sum mult_j R_j
    of degree 0 and square 0 is the zero class; without it that is taken to
    hold, as it does where H^perp is negative definite.  This is the one
    copy of the rule: ``effectivity_status`` adds witness texts to it, and
    ``bn._certificate_scan`` applies it to the integers of classes it never
    builds.
    """
    if sq >= -2:
        return Effectivity.EFFECTIVE, "riemann_roch", None
    below = False
    if peeled is not None:
        mult, rdeg, rsq = peeled[0], deg + peeled[1], sq + peeled[2]
        if (rdeg > 0 and rsq >= -2) or (rdeg == rsq == 0 and (is_zero is None or is_zero(mult))):
            return Effectivity.EFFECTIVE, "peeling", mult
        below = rdeg < 0
    verdict = _open_verdict(peeled, below, not roots or roots.contracted)
    if verdict[1] == "root_nef_residual":
        return verdict
    hit = _root_combination(roots, range(len(dots)), (deg, sq, list(dots)), bound, is_zero)
    return verdict if hit is None else (Effectivity.EFFECTIVE, "root_search", hit)


def effectivity_status(
    pol: QuasiPolarization,
    d: DivClass,
    roots: RootSet | None = None,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> EffectivityVerdict:
    """Certify a class Effective / NotEffective, or report Unknown.

    Certificates, in order of attempt:
      * nonzero, positive degree and square >= -2 (chi >= 1 forces sections);
      * degree zero: a bounded nonnegative combination of degree-zero roots;
      * root peeling (see the module docstring): subtract declared roots R
        with D.R < 0, at most ``coeff_bound`` times each; a zero residual or
        one with positive degree and square >= -2 certifies D;
      * the bounded root search, reached only when peeling cannot settle D: a
        nonnegative combination of declared roots with coefficients
        <= ``coeff_bound``, possibly plus a remainder that carries its own
        Riemann-Roch certificate.
    At positive degree the verdict is ``_verdict`` of D.H, D^2, the root
    dots and their peel; this function adds the witness texts.
    Obstructions: the zero class, negative degree on the (nef) polarization,
    degree zero with no bounded combination of degree-zero roots, or a peeled
    residual of negative degree that the bounded search does not contradict.
    Unknown: a root-nef residual with square < -2 when the roots form a
    configuration H contracts, otherwise no certificate within the bound.
    """
    covector = pol.lattice.covector(d)
    if coeff_bound < 0:
        raise InputError("coefficient bound must be nonnegative")
    if roots is not None and roots.pol != pol:
        raise PreconditionError("the root set was declared for a different polarization")
    if d.is_zero:
        return EffectivityVerdict(Effectivity.NOT_EFFECTIVE, "the zero class is excluded", rule="zero_class")
    deg = _dot(pol.h_covector, d.coords)
    if deg < 0:
        return EffectivityVerdict(
            Effectivity.NOT_EFFECTIVE,
            f"degree {deg} < 0 on the polarization",
            rule="negative_degree",
        )
    sq = _dot(covector, d.coords)
    dots = [_dot(covector, r.coords) for r in roots.roots] if roots else []

    def is_zero(mult: tuple[int, ...]) -> bool:
        return not any(_residual(d, roots.roots if roots else (), mult))

    if deg == 0:
        orth = [j for j in range(len(dots)) if roots.degrees[j] == 0]
        hit = _root_combination(roots, orth, (deg, sq, dots), coeff_bound, is_zero)
        if hit is not None:
            return EffectivityVerdict(
                Effectivity.EFFECTIVE,
                f"nonnegative combination of degree-zero roots, multiplicities {hit}",
                combination=hit,
                rule="degree_zero_roots",
            )
        return EffectivityVerdict(
            Effectivity.NOT_EFFECTIVE,
            f"degree 0 and not a combination of degree-zero roots with coefficients <= {coeff_bound}",
            rule="degree_zero_roots",
        )
    peeled = _peel(dots, roots, coeff_bound)
    status, rule, mult = _verdict(deg, sq, dots, peeled, roots, coeff_bound, is_zero)
    effective = status is Effectivity.EFFECTIVE
    if rule == "riemann_roch":
        witness = f"chi = {sq // 2 + 2} >= 1 and degree {deg} > 0"
    elif effective:
        rem = _residual(d, roots.roots, mult)
        tail = "zero remainder" if not any(rem) else f"remainder {rem} carries its own certificate"
        witness = f"root multiplicities {mult}, {tail}"
    elif rule == "root_nef_residual":
        witness = f"root-nef residual with square < -2 (square {sq + peeled[2]} after peeling multiplicities {mult})"
    elif rule == "peeling":
        witness = f"peeling root multiplicities {mult} leaves a residual of degree {deg + peeled[1]} < 0"
    else:
        witness = f"no certificate within coefficient bound {coeff_bound}"
    return EffectivityVerdict(status, witness, combination=mult if effective else None, rule=rule)


def h0_floor(pol: QuasiPolarization, d: DivClass) -> int:
    """The h^0 lower bound of a class the caller already certified Effective.

    Base bound max(chi, 0); for a multiple k*P of a primitive isotropic class
    of positive degree the pencil count k + 1 is used instead when larger.
    With k the content, D^2 = k^2 P^2 and D.H = k P.H, so D's own square and
    degree decide.
    """
    k = d.content()
    if k == 0:
        raise InputError("the zero class has no primitive part")
    sq = pol.lattice.square(d)
    lb = max(sq // 2 + 2, 0)
    if sq == 0 and pol.degree(d) > 0:
        lb = max(lb, k + 1)
    return lb


def h0_lower_bound(
    pol: QuasiPolarization,
    d: DivClass,
    roots: RootSet | None = None,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> int:
    """A valid lower bound for h^0 of a class certified Effective here (``h0_floor``)."""
    verdict = effectivity_status(pol, d, roots, coeff_bound)
    if verdict.status is not Effectivity.EFFECTIVE:
        raise PreconditionError(
            f"h0_lower_bound requires an Effective class, got {verdict.status.value}: {verdict.witness}"
        )
    return h0_floor(pol, d)


def reduce_fixed_components(
    pol: QuasiPolarization,
    parts: list[DivClass],
    delta: list[DivClass],
    roots: RootSet | None = None,
) -> list[DivClass]:
    """Absorb declared irreducible summands into the main parts.

    Input: H = sum(parts) + sum(delta) with every part effective and every
    delta entry a declared irreducible class (square >= -2).  Repeatedly the
    lexicographically smallest pair (i, j) with parts[i] . delta[j] >= 1
    absorbs delta[j]; each absorption can only grow the square of the part.
    Output sums to H with output[i]^2 >= parts[i]^2.
    """
    lat = pol.lattice
    if not parts:
        raise PreconditionError("parts must be nonempty")
    for k, dd in enumerate(delta):
        lat._check(dd)
        if lat.square(dd) < -2:
            raise InputError(f"delta[{k}] has square {lat.square(dd)} < -2; not an irreducible class")
    total = pol.lattice.zero()
    for p in parts:
        total = total + p
    for dd in delta:
        total = total + dd
    if total != pol.h:
        raise PreconditionError("parts and delta must sum to the polarization class")
    for k, p in enumerate(parts):
        if not effectivity_status(pol, p, roots):
            raise PreconditionError(f"parts[{k}] = {p.coords} is not certified effective")

    work = list(parts)
    remaining = list(delta)
    while remaining:
        hit = None
        for i, part in enumerate(work):
            for j, dd in enumerate(remaining):
                if lat.intersect(part, dd) >= 1:
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            raise InconsistentGeometryError(
                "no part meets any remaining irreducible summand; "
                "the input violates numerical 1-connectedness of the polarization"
            )
        i, j = hit
        work[i] = work[i] + remaining.pop(j)
    return work
