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
        ("bn", "ViolationCertificate classify_multi_decomposition scan_decompositions"),
        ("cases", "Box BoxReport FiltrationProfile default_box enumerate_exceptional_triples"),
        ("cases", "exhaustive_case_check profile_feasible"),
        ("divisors", "Effectivity EffectivityVerdict RootSet effectivity_status h0_lower_bound"),
        ("divisors", "reduce_fixed_components"),
        ("errors", "InconsistentGeometryError InputError PreconditionError"),
        ("lattice", "DivClass GramLattice QuasiPolarization hyperbolic_plane hyperbolic_plane_warnings"),
        ("mukai", "MukaiVector mukai_pairing simple_bound_holds"),
        ("profiles", "CertificateSketch DecompositionProfile ExceptionalProfile NotBNGeneral"),
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
