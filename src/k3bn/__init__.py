"""Exact-integer divisor arithmetic and Brill-Noether certificates on even lattices.

The public names are loaded on first use (PEP 562): ``import k3bn`` imports
no submodule, and the first ``k3bn.<name>`` imports the module that defines
it, with that module's own imports, and nothing else.
"""

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    name: module
    for module, names in (
        ("bn", "ViolationCertificate check_pair classify_multi_decomposition find_violation scan_decompositions"),
        ("cases", "Box BoxCounterexample BoxReport FiltrationProfile am_gm default_box dynkin_label"),
        ("cases", "enumerate_exceptional_triples exhaustive_case_check profile_feasible verify_counterexample"),
        ("divisors", "Effectivity EffectivityVerdict IncompatiblePair RootSet SameEllipticPencil"),
        ("divisors", "SumSquareAtLeastFour effectivity_status h0_lower_bound reduce_fixed_components"),
        ("divisors", "two_divisor_classification"),
        ("errors", "InconsistentGeometryError InputError PreconditionError"),
        ("lattice", "DivClass GramLattice QuasiPolarization hyperbolic_plane hyperbolic_plane_warnings"),
        ("mukai", "MukaiVector mukai_pairing simple_bound_holds"),
        ("profiles", "CertificateSketch DecompositionProfile ExceptionalProfile NotBNGeneral"),
        ("profiles", "chi_product_identity_gap elliptic_multiple n4_low_intersections no_negative_intersections"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
