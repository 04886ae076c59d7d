"""Command-line interface: surface-spec parsing, dispatch, JSON reports.

Commands map one-to-one onto the library capabilities: bn-check, decompose,
classify, verify-cases, triples, reduce-fixed, profile-check.  Reports are
machine-readable JSON with the fields {command, inputs_echo, verdict,
certificates, bounds, warnings, elapsed_ms, results}; --human switches to a
short text rendering.  Exit codes: 0 completed with no violation found, 10
violation certificate (or box counterexample) emitted, 20 exceptional
profile, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import cases
from .bn import (
    DecompositionProfile,
    ExceptionalProfile,
    NotBNGeneral,
    ViolationCertificate,
    classify_multi_decomposition,
    scan_decompositions,
)
from .cases import Box, FiltrationProfile, default_box
from .divisors import RootSet, h0_lower_bound, reduce_fixed_components
from .errors import InconsistentGeometryError, InputError, PreconditionError
from .lattice import (
    DivClass,
    GramLattice,
    QuasiPolarization,
    hyperbolic_plane_warnings,
)

EXIT_OK = 0
EXIT_VIOLATION = 10
EXIT_EXCEPTIONAL = 20
EXIT_INPUT_ERROR = 2


class SpecValidationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass
class SurfaceSpec:
    """Validated surface description: Gram matrix, polarization, roots."""

    gram: list[list[int]]
    H: list[int]
    name: str = "surface"
    basis_names: list[str] | None = None
    roots: list[list[int]] = field(default_factory=list)
    asserts_nef: bool = True

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "gram": [list(row) for row in self.gram],
            "basis_names": list(self.basis_names) if self.basis_names else None,
            "H": list(self.H),
            "roots": [list(r) for r in self.roots],
            "asserts_nef": self.asserts_nef,
        }

    def build(self) -> tuple[GramLattice, QuasiPolarization, RootSet]:
        lat = GramLattice(tuple(tuple(row) for row in self.gram))
        pol = QuasiPolarization(lat, DivClass(tuple(self.H)), self.asserts_nef)
        roots = RootSet(pol, tuple(DivClass(tuple(r)) for r in self.roots))
        return lat, pol, roots


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_vector(v) -> bool:
    return isinstance(v, list) and all(_is_int(e) for e in v)


def _load_object(
    text: str, label: str, required: tuple[str, ...], vectors=(), vector_lists=(), bool_lists=()
) -> dict:
    """Parse a JSON object with the required keys; reject fields of the wrong
    JSON shape before they reach the library."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError([f"{label}: not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict) or any(k not in data for k in required):
        keys = " and ".join(f"'{k}'" for k in required)
        raise SpecValidationError([f"{label}: expected an object with {keys}"])
    checks = [(k, "an integer vector", _is_int_vector) for k in vectors]
    checks += [
        (k, "a list of integer vectors", lambda v: isinstance(v, list) and all(map(_is_int_vector, v)))
        for k in vector_lists
    ]
    checks += [
        (k, "a list of booleans", lambda v: isinstance(v, list) and all(isinstance(b, bool) for b in v))
        for k in bool_lists
    ]
    bad = [f"{k}: expected {what}" for k, what, ok in checks if k in data and not ok(data[k])]
    if bad:
        raise SpecValidationError(bad)
    return data


def parse_surface_spec(text: str) -> SurfaceSpec:
    """Parse and validate a surface document; collect every schema violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError([f"document: not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise SpecValidationError(["document: expected a JSON object"])

    bad: list[str] = []
    gram = data.get("gram")
    rank = None
    if not isinstance(gram, list) or not gram:
        bad.append("gram: required, a nonempty square integer matrix")
    else:
        rank = len(gram)
        for i, row in enumerate(gram):
            if not isinstance(row, list) or len(row) != rank:
                bad.append(f"gram[{i}]: expected a row of length {rank}")
                continue
            for j, entry in enumerate(row):
                if not _is_int(entry):
                    bad.append(f"gram[{i}][{j}]: not an integer")
        if not bad:
            for i in range(rank):
                if gram[i][i] % 2 != 0:
                    bad.append(f"gram[{i}][{i}]: odd diagonal entry {gram[i][i]} in an even lattice")
                for j in range(i + 1, rank):
                    if gram[i][j] != gram[j][i]:
                        bad.append(f"gram[{i}][{j}]: not symmetric")

    h = data.get("H")
    if not _is_int_vector(h):
        bad.append("H: required, an integer vector")
    elif rank is not None and len(h) != rank:
        bad.append(f"H: length {len(h)} does not match rank {rank}")

    name = data.get("name", "surface")
    if not isinstance(name, str):
        bad.append("name: expected a string")

    basis_names = data.get("basis_names")
    if basis_names is not None:
        if not isinstance(basis_names, list) or not all(isinstance(s, str) for s in basis_names):
            bad.append("basis_names: expected a list of strings")
        elif rank is not None and len(basis_names) != rank:
            bad.append(f"basis_names: length {len(basis_names)} does not match rank {rank}")

    roots = data.get("roots") or []
    if not isinstance(roots, list):
        bad.append("roots: expected a list of integer vectors")
        roots = []
    else:
        for k, r in enumerate(roots):
            if not _is_int_vector(r):
                bad.append(f"roots[{k}]: expected an integer vector")
            elif rank is not None and len(r) != rank:
                bad.append(f"roots[{k}]: length {len(r)} does not match rank {rank}")

    asserts_nef = data.get("asserts_nef", True)
    if not isinstance(asserts_nef, bool):
        bad.append("asserts_nef: expected a boolean")

    if not bad and rank is not None:
        lat = GramLattice(tuple(tuple(row) for row in gram))
        for k, r in enumerate(roots):
            sq = lat.square(DivClass(tuple(r)))
            if sq != -2:
                bad.append(f"roots[{k}]: square is {sq}, expected -2")

    if bad:
        raise SpecValidationError(bad)
    return SurfaceSpec(
        gram=gram,
        H=h,
        name=name,
        basis_names=basis_names,
        roots=roots,
        asserts_nef=asserts_nef,
    )


def _parse_decomposition_profile(text: str) -> tuple[DecompositionProfile, list[bool]]:
    data = _load_object(
        text, "profile", ("sq", "x"), vectors=["sq"], vector_lists=["x"], bool_lists=["h0_at_least_2"]
    )
    profile = DecompositionProfile(tuple(data["sq"]), tuple(tuple(r) for r in data["x"]))
    flags = data.get("h0_at_least_2", [True] * profile.n)
    return profile, list(flags)


def _parse_filtration_profile(text: str) -> FiltrationProfile:
    data = _load_object(text, "profile", ("entries",), vector_lists=["entries"])
    return FiltrationProfile(tuple(tuple(e) for e in data["entries"]))


@dataclass
class RunReport:
    command: str
    inputs_echo: dict
    verdict: str
    certificates: list[dict] = field(default_factory=list)
    bounds: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0
    results: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs_echo": self.inputs_echo,
            "verdict": self.verdict,
            "certificates": self.certificates,
            "bounds": self.bounds,
            "warnings": self.warnings,
            "elapsed_ms": self.elapsed_ms,
            "results": self.results,
        }


def _reverify_violation(pol, roots, cert: ViolationCertificate) -> None:
    # independent recomputation pass; emitting an unverified certificate is a bug
    lb1 = h0_lower_bound(pol, cert.d1, roots)
    lb2 = h0_lower_bound(pol, cert.d2, roots)
    if (lb1, lb2, pol.genus) != (cert.lb1, cert.lb2, cert.genus) or lb1 * lb2 <= pol.genus:
        raise RuntimeError("certificate failed re-verification; refusing to emit")
    if cert.d1 + cert.d2 != pol.h:
        raise RuntimeError("certificate parts do not sum to the polarization")


def _cmd_bn_check(args) -> tuple[RunReport, int]:
    spec = parse_surface_spec(_read(args.surface))
    lat, pol, roots = spec.build()
    report = RunReport(
        command="bn-check",
        inputs_echo=spec.to_doc(),
        verdict="",
        bounds={"degree_bound": args.degree_bound},
    )
    report.warnings.extend(hyperbolic_plane_warnings(pol))
    scan = scan_decompositions(pol, roots, args.degree_bound, stop_at_first_violation=True)
    if scan.unknown_candidates:
        report.warnings.append(
            f"{scan.unknown_candidates} candidate classes had Unknown effectivity and were skipped"
        )
    report.results["stats"] = scan.stats()
    if scan.violations:
        cert = scan.violations[0]
        _reverify_violation(pol, roots, cert)
        report.verdict = "violation"
        report.certificates.append(cert.to_dict())
        return report, EXIT_VIOLATION
    report.verdict = "no violation found within bounds (not a proof of generality)"
    return report, EXIT_OK


def _cmd_decompose(args) -> tuple[RunReport, int]:
    spec = parse_surface_spec(_read(args.surface))
    lat, pol, roots = spec.build()
    report = RunReport(
        command="decompose",
        inputs_echo=spec.to_doc(),
        verdict="",
        bounds={"degree_bound": args.degree_bound},
    )
    scan = scan_decompositions(pol, roots, args.degree_bound, collect_pairs=True)
    if scan.unknown_candidates:
        report.warnings.append(
            f"{scan.unknown_candidates} candidate classes had Unknown effectivity and were skipped"
        )
    # each unordered pair appears twice in the scan; keep the first occurrence
    seen = set()
    pairs = []
    for rec in scan.pairs:
        key = frozenset((rec.d1.coords, rec.d2.coords))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(rec)
    report.results["decompositions"] = [rec.to_dict() for rec in pairs]
    report.results["count"] = len(pairs)
    report.results["stats"] = scan.stats()
    for cert in scan.violations:
        _reverify_violation(pol, roots, cert)
        report.certificates.append(cert.to_dict())
    if scan.violations:
        report.verdict = f"{len(pairs)} effective decompositions, violations present"
        return report, EXIT_VIOLATION
    report.verdict = f"{len(pairs)} effective decompositions, no violation at bound level"
    return report, EXIT_OK


def _cmd_classify(args) -> tuple[RunReport, int]:
    profile, flags = _parse_decomposition_profile(_read(args.profile))
    report = RunReport(
        command="classify",
        inputs_echo={"sq": list(profile.sq), "x": [list(r) for r in profile.x], "h0_at_least_2": flags},
        verdict="",
    )
    outcome = classify_multi_decomposition(profile, flags)
    if isinstance(outcome, ExceptionalProfile):
        report.verdict = f"exceptional profile: {outcome.label}"
        report.results["label"] = outcome.label
        return report, EXIT_EXCEPTIONAL
    assert isinstance(outcome, NotBNGeneral)
    report.verdict = f"not Brill-Noether general (case {outcome.case_id})"
    report.results["case_id"] = outcome.case_id
    if outcome.certificate is not None:
        sk = outcome.certificate
        if sk.lb1 * sk.lb2 <= sk.genus:  # pragma: no cover - guarded at construction
            raise RuntimeError("sketch failed re-verification")
        report.certificates.append(sk.to_dict())
    if outcome.note:
        report.warnings.append(outcome.note)
    return report, EXIT_VIOLATION


def _cmd_verify_cases(args) -> tuple[RunReport, int]:
    if args.default_box or not any(
        v is not None
        for v in (args.r_max, args.s_min, args.s_max, args.eps_max, args.x_min, args.x_max)
    ):
        box = default_box(args.n)
    else:
        base = default_box(args.n)
        box = Box(
            r_max=args.r_max if args.r_max is not None else base.r_max,
            s_min=args.s_min if args.s_min is not None else base.s_min,
            s_max=args.s_max if args.s_max is not None else base.s_max,
            eps_max=args.eps_max if args.eps_max is not None else base.eps_max,
            x_min=args.x_min if args.x_min is not None else base.x_min,
            x_max=args.x_max if args.x_max is not None else base.x_max,
        )
    box_report = cases.exhaustive_case_check(args.n, box)
    for cex in box_report.counterexamples:
        if not cases.verify_counterexample(args.n, cex):
            raise RuntimeError("a reported counterexample failed re-verification")
    report = RunReport(
        command="verify-cases",
        inputs_echo={"n": args.n},
        verdict="",
        bounds=box.to_dict(),
        results={"report": box_report.to_dict()},
    )
    if box_report.counterexamples:
        report.verdict = f"{len(box_report.counterexamples)} counterexamples found"
        report.certificates.extend(c.to_dict() for c in box_report.counterexamples)
        return report, EXIT_VIOLATION
    report.verdict = (
        f"0 counterexamples across {box_report.instances_checked} decomposition profiles"
    )
    return report, EXIT_OK


def _cmd_triples(args) -> tuple[RunReport, int]:
    triples = cases.enumerate_exceptional_triples(args.a_max)
    labeled = [
        {"triple": list(t), "dynkin": cases.dynkin_label(*t)} for t in triples
    ]
    report = RunReport(
        command="triples",
        inputs_echo={"a_max": args.a_max},
        verdict=f"{len(triples)} exceptional triples",
        bounds={"a_max": args.a_max},
        results={"triples": [list(t) for t in triples], "labeled": labeled},
    )
    return report, EXIT_OK


def _cmd_reduce_fixed(args) -> tuple[RunReport, int]:
    spec = parse_surface_spec(_read(args.surface))
    lat, pol, roots = spec.build()
    data = _load_object(_read(args.data), "data", ("parts", "delta"), vector_lists=["parts", "delta"])
    parts = [DivClass(tuple(v)) for v in data["parts"]]
    delta = [DivClass(tuple(v)) for v in data["delta"]]
    reduced = reduce_fixed_components(pol, parts, delta, roots)
    report = RunReport(
        command="reduce-fixed",
        inputs_echo={**spec.to_doc(), "parts": data["parts"], "delta": data["delta"]},
        verdict=f"reduced to {len(reduced)} parts",
        results={
            "parts": [list(p.coords) for p in reduced],
            "squares": [lat.square(p) for p in reduced],
        },
    )
    return report, EXIT_OK


def _cmd_profile_check(args) -> tuple[RunReport, int]:
    fp = _parse_filtration_profile(_read(args.profile))
    ok = cases.profile_feasible(fp)
    report = RunReport(
        command="profile-check",
        inputs_echo={"entries": [list(e) for e in fp.entries]},
        verdict="feasible" if ok else "infeasible",
        results={"feasible": ok, "sum_r": fp.sum_r, "sum_s": fp.sum_s},
    )
    return report, EXIT_OK


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


_HANDLERS = {
    "bn-check": _cmd_bn_check,
    "decompose": _cmd_decompose,
    "classify": _cmd_classify,
    "verify-cases": _cmd_verify_cases,
    "triples": _cmd_triples,
    "reduce-fixed": _cmd_reduce_fixed,
    "profile-check": _cmd_profile_check,
}


def run(args: argparse.Namespace) -> tuple[RunReport, int]:
    """Dispatch a parsed command; reports echo their inputs and bounds."""
    started = time.perf_counter()
    report, status = _HANDLERS[args.command](args)
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return report, status


def _render_human(report: RunReport) -> str:
    lines = [f"{report.command}: {report.verdict}"]
    for cert in report.certificates:
        lines.append(f"  certificate: {json.dumps(cert)}")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    if report.bounds:
        lines.append(f"  bounds: {json.dumps(report.bounds)}")
    lines.append(f"  elapsed: {report.elapsed_ms:.1f} ms")
    return "\n".join(lines)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors, so that they get the JSON input-error report.

    Subparsers are built from the same class, so their errors are raised too.
    """

    def error(self, message: str):
        raise SpecValidationError([f"{self.prog}: {message}"])


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="k3bn",
        description="Divisor arithmetic and Brill-Noether generality certificates "
        "on even class lattices.",
    )
    parser.add_argument("--human", action="store_true", help="render a text summary instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bn-check", help="search for a Brill-Noether violation certificate")
    p.add_argument("--surface", required=True, help="surface spec JSON file ('-' for stdin)")
    p.add_argument("--degree-bound", type=int, default=10)

    p = sub.add_parser("decompose", help="enumerate effective decompositions up to the bound")
    p.add_argument("--surface", required=True)
    p.add_argument("--degree-bound", type=int, default=10)

    p = sub.add_parser("classify", help="match a decomposition profile against the case list")
    p.add_argument("--profile", required=True, help="profile JSON file with 'sq' and 'x'")

    p = sub.add_parser("verify-cases", help="exhaustive box verification for n = 2, 3, 4")
    p.add_argument("--n", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--default-box", action="store_true", help="force the default box")
    for opt in ("r-max", "s-min", "s-max", "eps-max", "x-min", "x-max"):
        p.add_argument(f"--{opt}", type=int, default=None)

    p = sub.add_parser("triples", help="enumerate exceptional triples of the determinant condition")
    p.add_argument("--a-max", type=int, required=True)

    p = sub.add_parser("reduce-fixed", help="absorb declared irreducible summands into parts")
    p.add_argument("--surface", required=True)
    p.add_argument("--data", required=True, help="JSON file with 'parts' and 'delta'")

    p = sub.add_parser("profile-check", help="test filtration-profile feasibility")
    p.add_argument("--profile", required=True, help="profile JSON file with 'entries'")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        report, status = run(args)
    except (SpecValidationError, InputError, PreconditionError, InconsistentGeometryError, OSError) as exc:
        warnings = exc.violations if isinstance(exc, SpecValidationError) else [str(exc)]
        command = next((a for a in argv if a in _HANDLERS), "k3bn")
        error_report = RunReport(command, inputs_echo={}, verdict="input error", warnings=warnings)
        print(json.dumps(error_report.to_dict(), indent=2))
        return EXIT_INPUT_ERROR
    if args.human:
        print(_render_human(report))
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
