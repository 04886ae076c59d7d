"""The package exports its public names on first use, each from the module that defines it."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import k3bn

# every public name and its home module
HOMES = {
    "Box": "cases",
    "BoxReport": "cases",
    "CertificateSketch": "profiles",
    "DecompositionProfile": "profiles",
    "DivClass": "lattice",
    "Effectivity": "divisors",
    "EffectivityVerdict": "divisors",
    "ExceptionalProfile": "profiles",
    "FiltrationProfile": "cases",
    "GramLattice": "lattice",
    "InconsistentGeometryError": "errors",
    "InputError": "errors",
    "MukaiVector": "mukai",
    "NotBNGeneral": "profiles",
    "PreconditionError": "errors",
    "QuasiPolarization": "lattice",
    "RootSet": "divisors",
    "ViolationCertificate": "bn",
    "classify_multi_decomposition": "bn",
    "default_box": "cases",
    "effectivity_status": "divisors",
    "enumerate_exceptional_triples": "cases",
    "exhaustive_case_check": "cases",
    "h0_lower_bound": "divisors",
    "hyperbolic_plane": "lattice",
    "hyperbolic_plane_warnings": "lattice",
    "mukai_pairing": "mukai",
    "profile_feasible": "cases",
    "reduce_fixed_components": "divisors",
    "scan_decompositions": "bn",
    "simple_bound_holds": "mukai",
}


# names the package once exported that no command calls, and the test
# reference that keeps each of them
REMOVED = {
    "BoxCounterexample": "box_reference",
    "IncompatiblePair": "library_reference",
    "SameEllipticPencil": "library_reference",
    "SumSquareAtLeastFour": "library_reference",
    "am_gm": "library_reference",
    "check_pair": "library_reference",
    "chi_product_identity_gap": "library_reference",
    "dynkin_label": "library_reference",
    "elliptic_multiple": "library_reference",
    "find_violation": "library_reference",
    "n4_low_intersections": "library_reference",
    "no_negative_intersections": "library_reference",
    "two_divisor_classification": "library_reference",
    "verify_counterexample": "box_reference",
}


def test_all_is_pinned():
    assert len(HOMES) == 31
    assert k3bn.__all__ == list(HOMES)


@pytest.mark.parametrize("name", [*HOMES, *REMOVED])
def test_each_name_is_its_home_module_object(name):
    if name in REMOVED:
        with pytest.raises(AttributeError, match=f"^module 'k3bn' has no attribute '{name}'$"):
            getattr(k3bn, name)
        assert name not in dir(k3bn)
        assert not any(hasattr(importlib.import_module(f"k3bn.{home}"), name) for home in set(HOMES.values()))
        assert callable(getattr(importlib.import_module(REMOVED[name]), name))
        return
    assert getattr(k3bn, name) is getattr(importlib.import_module(f"k3bn.{HOMES[name]}"), name)


def test_the_library_only_helpers_left_the_package():
    from k3bn import cases, profiles

    assert not hasattr(k3bn.DivClass, "primitive")
    assert not any(hasattr(k3bn.DecompositionProfile, name) for name in ("crossing", "two_connected"))
    assert not any(hasattr(profiles, name) for name in ("_split_sketch", "_split_label"))
    assert not hasattr(cases, "_is_failing")
    # the box check imports nothing from profiles, not even inside a function
    tree = ast.parse(inspect.getsource(cases))
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert imported and not any("profiles" in name for name in imported)


def test_dir_covers_all():
    assert set(k3bn.__all__) <= set(dir(k3bn))
    assert "__version__" in dir(k3bn)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from k3bn import *", namespace)
    assert {name: namespace[name] for name in HOMES} == {name: getattr(k3bn, name) for name in HOMES}


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'k3bn' has no attribute 'nope'"):
        k3bn.nope
    with pytest.raises(ImportError):
        exec("from k3bn import nope", {})


def test_submodules_still_import_by_name():
    from k3bn import bn, profiles

    assert bn.classify_multi_decomposition is k3bn.classify_multi_decomposition
    assert profiles.DecompositionProfile is k3bn.DecompositionProfile


def _fresh(script):
    src = os.path.dirname(os.path.dirname(k3bn.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_package_import_loads_no_submodule():
    loaded = _fresh("import json, sys, k3bn; print(json.dumps(sorted(m for m in sys.modules if 'k3bn' in m)))")
    assert loaded == ["k3bn"]


def test_a_name_loads_only_its_home_module_and_what_that_imports():
    script = (
        "import json, sys, k3bn\n"
        "k3bn.MukaiVector\n"
        "print(json.dumps(sorted(m for m in sys.modules if 'k3bn' in m)))"
    )
    assert _fresh(script) == ["k3bn", "k3bn.errors", "k3bn.lattice", "k3bn.mukai"]
