"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and runtime budget is pinned here; nothing is deferred.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

import numpy as np

from k3bn import (
    DivClass,
    Effectivity,
    GramLattice,
    MukaiVector,
    QuasiPolarization,
    RootSet,
    default_box,
    effectivity_status,
    exhaustive_case_check,
    mukai_pairing,
    reduce_fixed_components,
    simple_bound_holds,
)
from k3bn.cli import main
from k3bn.lattice import hyperbolic_plane
from library_reference import am_gm, chi_product_identity_gap


def _criterion(cid: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} failed: {detail}"


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


def test_criterion_1_exceptional_triples():
    started = time.perf_counter()
    code, rep = _run_cli(["triples", "--a-max", "100"])
    elapsed = time.perf_counter() - started
    triples = {tuple(t) for t in rep["results"]["triples"]}
    expected = {(a, 1, 1) for a in range(1, 101)} | {(2, 2, 1), (3, 2, 1), (4, 2, 1)}
    ok = code == 0 and triples == expected and len(triples) == 103 and elapsed < 1.0
    _criterion(
        "1 exceptional-triple reproduction",
        ok,
        f"{len(triples)} triples in {elapsed:.3f}s",
    )


def test_criterion_2_expansion_identity():
    rng = random.Random(20250810)
    started = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        sq = [2 * rng.randint(-500, 500) for _ in range(3)]
        xs = [rng.randint(-1000, 1000) for _ in range(3)]
        if chi_product_identity_gap(*sq, *xs) != 0:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 1.0
    _criterion(
        "2 expansion identity",
        ok,
        f"{failures} failures on 10^4 profiles in {elapsed:.3f}s",
    )


def test_criterion_3_two_part_box():
    started = time.perf_counter()
    report = exhaustive_case_check(2)
    elapsed = time.perf_counter() - started
    identity_note = next(
        (note for note in report.cross_checks if "product bound" in note), ""
    )
    ok = (
        report.box == default_box(2)
        and report.counterexamples == []
        and identity_note.endswith("0 failures")
        and elapsed < 10.0
    )
    _criterion(
        "3 two-part box verification",
        ok,
        f"0 counterexamples expected, got {len(report.counterexamples)}; "
        f"{identity_note}; {elapsed:.2f}s",
    )


def test_criterion_4_three_and_four_part_boxes():
    started = time.perf_counter()
    report3 = exhaustive_case_check(3)
    report4 = exhaustive_case_check(4)
    elapsed = time.perf_counter() - started
    sixteen = any("= 16" in note for note in report4.cross_checks)
    twentyfour = any("<= 24" in note for note in report4.cross_checks)
    ok = (
        report3.counterexamples == []
        and report4.counterexamples == []
        and report3.box == default_box(3)
        and report4.box == default_box(4)
        and sixteen
        and twentyfour
        and elapsed < 600.0
    )
    _criterion(
        "4 three- and four-part box verification",
        ok,
        f"cex: {len(report3.counterexamples)}+{len(report4.counterexamples)}; "
        f"product caps checked: {sixteen and twentyfour}; {elapsed:.1f}s",
    )


def test_criterion_5_hyperbolic_violations(tmp_path):
    started = time.perf_counter()
    ok = True
    details = []
    for k in range(1, 11):
        doc = {"gram": [[0, 1], [1, 0]], "H": [1, k]}
        path = tmp_path / f"u{k}.json"
        path.write_text(json.dumps(doc))
        code, rep = _run_cli(["bn-check", "--surface", str(path)])
        if code != 10 or not rep["certificates"]:
            ok = False
            details.append(f"k={k}: no certificate")
            continue
        cert = rep["certificates"][0]
        bounds = sorted((cert["lb1"], cert["lb2"]))
        if bounds != [2, k + 1] or cert["genus"] != k + 1:
            ok = False
            details.append(f"k={k}: got bounds {bounds}, genus {cert['genus']}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _criterion(
        "5 hyperbolic-plane violations",
        ok,
        "; ".join(details) or f"bounds (2, k+1), genus k+1 for k=1..10 in {elapsed:.3f}s",
    )


def test_criterion_6_rank_one_sanity(tmp_path):
    started = time.perf_counter()
    ok = True
    for g in range(2, 12):
        doc = {"gram": [[2 * g - 2]], "H": [1]}
        path = tmp_path / f"r{g}.json"
        path.write_text(json.dumps(doc))
        code, rep = _run_cli(["bn-check", "--surface", str(path)])
        if code != 0 or rep["certificates"]:
            ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _criterion("6 rank-one sanity", ok, f"g = 2..11 all clean in {elapsed:.3f}s")


def _random_reduction_input(rng, lat, basis, root_classes):
    e, f = basis
    parts = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        if a == 0 and b == 0:
            a = 1
        parts.append(a * e + b * f)
    delta = [rng.choice(root_classes) for _ in range(rng.randint(0, 3))] if root_classes else []
    h = lat.zero()
    for p in parts:
        h = h + p
    for d in delta:
        h = h + d
    return parts, delta, h


def test_criterion_7_reduction_properties():
    rng = random.Random(77)
    lat3 = GramLattice(((0, 1, 0), (1, 0, 0), (0, 0, -2)))
    lat4 = GramLattice(
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))
    )
    setups = [
        (lat3, (lat3.basis(0), lat3.basis(1)), [lat3.basis(2)]),
        (lat4, (lat4.basis(0), lat4.basis(1)), [lat4.basis(2), lat4.basis(3)]),
    ]
    valid = 0
    failures = 0
    while valid < 1000:
        lat, basis, roots_cls = setups[rng.randrange(len(setups))]
        parts, delta, h = _random_reduction_input(rng, lat, basis, roots_cls)
        if lat.square(h) <= 0:
            continue
        pol = QuasiPolarization(lat, h)
        try:
            roots = RootSet(pol, tuple(roots_cls))
        except Exception:
            continue
        if any(
            effectivity_status(pol, p, roots).status is not Effectivity.EFFECTIVE
            for p in parts
        ):
            continue
        valid += 1
        out = reduce_fixed_components(pol, parts, delta, roots)
        total = lat.zero()
        for p in out:
            total = total + p
        if total != h or len(out) != len(parts):
            failures += 1
            continue
        if any(lat.square(a) < lat.square(b) for a, b in zip(out, parts)):
            failures += 1
    _criterion(
        "7 fixed-component reduction properties",
        failures == 0,
        f"{failures} failures on {valid} randomized valid inputs",
    )


def test_criterion_8_product_bound_brute_force():
    started = time.perf_counter()
    rng = np.arange(-50, 51, dtype=np.int64)
    u = rng[:, None, None]
    v = rng[None, :, None]
    c = rng[None, None, :]
    hyp_basic = (u >= 0) & (v >= 0) & (u + v <= 2 * c)
    viol_basic = int(np.count_nonzero(hyp_basic & (u * v > c * c)))
    hyp_strict = (u + v <= 2 * c) & (0 <= v) & (v < c)
    viol_strict = int(np.count_nonzero(hyp_strict & (u * v > c * c - 1)))
    # spot-check the scalar operation against the vectorized sweep
    sampler = random.Random(8)
    mismatch = 0
    for _ in range(1000):
        uu, vv, cc = (sampler.randint(-50, 50) for _ in range(3))
        basic, strict = am_gm(uu, vv, cc)
        vb = uu >= 0 and vv >= 0 and uu + vv <= 2 * cc and uu * vv > cc * cc
        vs = uu + vv <= 2 * cc and 0 <= vv < cc and uu * vv > cc * cc - 1
        if basic != (not vb) or strict != (not vs):
            mismatch += 1
    elapsed = time.perf_counter() - started
    ok = viol_basic == 0 and viol_strict == 0 and mismatch == 0 and elapsed < 1.0
    _criterion(
        "8 product-bound brute force",
        ok,
        f"violations: basic {viol_basic}, strict {viol_strict}; "
        f"{mismatch} scalar mismatches; {elapsed:.3f}s",
    )


def test_criterion_9_mukai_arithmetic():
    U = hyperbolic_plane()
    v0 = MukaiVector(1, U.zero(), 1)
    base_ok = mukai_pairing(U, v0, v0) == -2
    rng = random.Random(9)
    failures = 0
    for _ in range(10_000):
        v = MukaiVector(
            rng.randint(-40, 40),
            DivClass((rng.randint(-40, 40), rng.randint(-40, 40))),
            rng.randint(-40, 40),
        )
        if simple_bound_holds(U, v) != (mukai_pairing(U, v, v) >= -2):
            failures += 1
    _criterion(
        "9 Mukai arithmetic",
        base_ok and failures == 0,
        f"(v0, v0) = -2: {base_ok}; {failures} equivalence failures on 10^4 vectors",
    )
