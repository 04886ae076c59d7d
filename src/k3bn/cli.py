"""Command-line interface: command lines, surface-spec parsing, dispatch, JSON reports.

Commands map one-to-one onto the library capabilities: bn-check, decompose,
classify, verify-cases, triples, reduce-fixed, profile-check; ``_GRAMMAR``
declares each one's handler, help line and options.  A report is a plain dict
with the keys {command, inputs_echo, verdict, certificates, bounds, warnings,
elapsed_ms, results} in that order, built by ``_report`` and written exactly
as ``json.dumps`` writes it with an indent of 2; --human switches to a short
text rendering.  Exit codes: 0 completed with no violation found, 10
violation certificate emitted, 20 exceptional profile, 2 input error; a
reader that closes stdout early does not change the code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from types import SimpleNamespace

from . import cases
from .bn import (
    DecompositionScan,
    ViolationCertificate,
    classify_multi_decomposition,
    scan_decompositions,
    violation_scan,
)
from .cases import Box, FiltrationProfile, default_box
from .divisors import RootSet, h0_lower_bound, reduce_fixed_components
from .errors import InconsistentGeometryError, InputError, PreconditionError, is_int
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


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


def _is(kind):
    return lambda v: isinstance(v, kind)


def _or_null(ok):
    return lambda v: v is None or ok(v)


_INT_VECTOR = _list_of(is_int)
_VECTOR_LIST = _list_of(_INT_VECTOR)

# The JSON shape of every field of every input document, with the words an
# error report uses for it.  The rules on the values (an even symmetric Gram
# matrix, roots of square -2, ...) belong to the classes built from them.
_SHAPES = {
    # surface; null basis_names or roots mean none
    "gram": ("a nonempty square integer matrix", lambda v: bool(v) and _list_of(_is(list))(v)),
    "H": ("an integer vector", _INT_VECTOR),
    "name": ("a string", _is(str)),
    "basis_names": ("a list of strings", _or_null(_list_of(_is(str)))),
    "roots": ("a list of integer vectors", _or_null(_VECTOR_LIST)),
    "asserts_nef": ("a boolean", _is(bool)),
    # classify profile
    "sq": ("an integer vector", _INT_VECTOR),
    "x": ("a list of integer vectors", _VECTOR_LIST),
    "h0_at_least_2": ("a list of booleans", _list_of(_is(bool))),
    # filtration profile
    "entries": ("a list of integer vectors", _VECTOR_LIST),
    # reduce-fixed data
    "parts": ("a list of integer vectors", _VECTOR_LIST),
    "delta": ("a list of integer vectors", _VECTOR_LIST),
}


def _read_fields(
    text: str, label: str, required: tuple[str, ...], optional: dict
) -> tuple[dict, list[str]]:
    """Parse a JSON object and check the shape of each field against ``_SHAPES``.

    Returns the fields that passed, with the defaults in ``optional`` for
    those absent, and a message for every field that is missing or has the
    wrong shape.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or nested too deep
        raise InputError(f"{label}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{label}: expected a JSON object")
    values, bad = {}, []
    for key in (*required, *optional):
        what, ok = _SHAPES[key]
        if key not in data:
            if key in required:
                bad.append(f"{key}: required, {what}")
            else:
                values[key] = optional[key]
        elif ok(data[key]):
            values[key] = data[key]
        else:
            bad.append(f"{key}: expected {what}")
    return values, bad


def _read_document(text: str, label: str, required: tuple[str, ...], optional: dict) -> dict:
    values, bad = _read_fields(text, label, required, optional)
    if bad:
        raise InputError(*bad)
    return values


def parse_surface_spec(text: str) -> tuple[dict, QuasiPolarization, RootSet]:
    """Parse a surface document into its echo, polarization and roots.

    The JSON shapes and the lengths against the rank are checked here, the
    lattice rules by GramLattice, and every violation of either is collected
    into one InputError.  The polarization and the roots are built, and
    checked, once the document passes; a polarization of square <= 0 is
    reported with the violations of the roots.  The echo holds every field
    of the document in report order, absent roots as [] and absent basis
    names as null.
    """
    optional = {"name": "surface", "basis_names": None, "roots": None, "asserts_nef": True}
    doc, bad = _read_fields(text, "surface", ("gram", "H"), optional)
    lat = None
    if "gram" in doc:
        try:
            lat = GramLattice(tuple(map(tuple, doc["gram"])))
        except InputError as exc:
            bad += exc.violations
        rank = len(doc["gram"])
        sized = [("H", doc.get("H")), ("basis_names", doc.get("basis_names"))]
        sized += [(f"roots[{k}]", r) for k, r in enumerate(doc.get("roots") or [])]
        bad += [
            f"{key}: length {len(v)} does not match rank {rank}"
            for key, v in sized
            if v is not None and len(v) != rank
        ]
    if bad:
        raise InputError(*bad)
    doc["roots"] = doc["roots"] or []
    h, classes = DivClass(tuple(doc["H"])), tuple(DivClass(tuple(r)) for r in doc["roots"])
    try:
        pol = QuasiPolarization(lat, h)
    except InputError as exc:  # the roots are checked too: one report lists every violation
        raise InputError(*exc.violations, *RootSet.measure(lat, lat.covector(h), classes)[3]) from None
    echo = {key: doc[key] for key in ("name", "gram", "basis_names", "H", "roots", "asserts_nef")}
    return echo, pol, RootSet(pol, classes)


def _report(command: str, inputs_echo: dict, verdict: str = "", bounds=(), warnings=(), results=()) -> dict:
    """A command's report, its keys in print order, each list and dict a fresh one.

    ``run`` sets ``elapsed_ms``; handlers fill in the rest as they go.
    """
    return {
        "command": command,
        "inputs_echo": inputs_echo,
        "verdict": verdict,
        "certificates": [],
        "bounds": dict(bounds),
        "warnings": list(warnings),
        "elapsed_ms": 0.0,
        "results": dict(results),
    }


def _reverify_violation(pol, roots, cert: ViolationCertificate) -> None:
    # independent recomputation pass; emitting an unverified certificate is a bug
    lb1 = h0_lower_bound(pol, cert.d1, roots)
    lb2 = h0_lower_bound(pol, cert.d2, roots)
    if (lb1, lb2, pol.genus) != (cert.lb1, cert.lb2, cert.genus) or lb1 * lb2 <= pol.genus:
        raise RuntimeError("certificate failed re-verification; refusing to emit")
    if cert.d1 + cert.d2 != pol.h:
        raise RuntimeError("certificate parts do not sum to the polarization")


def _scan_report(args, command: str) -> tuple[dict, QuasiPolarization, RootSet]:
    echo, pol, roots = parse_surface_spec(_read(args.surface))
    bounds = {"degree_bound": args.degree_bound}
    return _report(command, echo, bounds=bounds, warnings=hyperbolic_plane_warnings(pol)), pol, roots


def _unknown_warning(report: dict, scan: DecompositionScan) -> None:
    if scan.unknown_candidates:
        report["warnings"].append(
            f"{scan.unknown_candidates} candidate classes had Unknown effectivity and were skipped"
        )


def _cmd_bn_check(args) -> tuple[dict, int]:
    report, pol, roots = _scan_report(args, "bn-check")
    scan = violation_scan(pol, roots, args.degree_bound)
    outside = scan.window_classes - scan.candidates_scanned
    if scan.x_h and outside:
        report["warnings"].append(
            f"{outside} candidate classes in the degree window lie outside X_H and were not "
            "examined; each has a side of square < -2, whose h0 floor is 0, so none can carry "
            "a violation at the lower-bound level"
        )
    _unknown_warning(report, scan)
    report["results"]["stats"] = scan.stats()
    if scan.violations:
        cert = scan.violations[0]
        _reverify_violation(pol, roots, cert)
        report["verdict"] = "violation"
        report["certificates"].append(cert.to_dict())
        return report, EXIT_VIOLATION
    report["verdict"] = "no violation found within bounds (not a proof of generality)"
    return report, EXIT_OK


def _cmd_decompose(args) -> tuple[dict, int]:
    report, pol, roots = _scan_report(args, "decompose")
    scan = scan_decompositions(pol, roots, args.degree_bound)
    _unknown_warning(report, scan)
    # a pair with both sides in the box appears twice, first with D1 < D2: keep that one
    firsts = {rec.d1.coords for rec in scan.pairs}
    pairs = [rec for rec in scan.pairs if rec.d1.coords <= rec.d2.coords or rec.d2.coords not in firsts]
    report["results"].update(
        decompositions=[rec.to_dict() for rec in pairs], count=len(pairs), stats=scan.stats()
    )
    for cert in scan.violations:
        _reverify_violation(pol, roots, cert)
        report["certificates"].append(cert.to_dict())
    if scan.violations:
        report["verdict"] = f"{len(pairs)} effective decompositions, violations present"
        return report, EXIT_VIOLATION
    report["verdict"] = f"{len(pairs)} effective decompositions, no violation at bound level"
    return report, EXIT_OK


def _cmd_classify(args) -> tuple[dict, int]:
    # absolute: a relative import looks the package up on every call
    from k3bn.profiles import DecompositionProfile, ExceptionalProfile, NotBNGeneral

    data = _read_document(_read(args.profile), "profile", ("sq", "x"), {"h0_at_least_2": None})
    profile = DecompositionProfile(tuple(data["sq"]), tuple(map(tuple, data["x"])))
    flags = data["h0_at_least_2"]
    if flags is None:
        flags = [True] * profile.n
    echo = {"sq": list(profile.sq), "x": [list(r) for r in profile.x], "h0_at_least_2": flags}
    report = _report("classify", echo)
    outcome = classify_multi_decomposition(profile, flags)
    if isinstance(outcome, ExceptionalProfile):
        report["verdict"] = f"exceptional profile: {outcome.label}"
        report["results"]["label"] = outcome.label
        return report, EXIT_EXCEPTIONAL
    assert isinstance(outcome, NotBNGeneral)
    report["verdict"] = f"not Brill-Noether general (case {outcome.case_id})"
    report["results"]["case_id"] = outcome.case_id
    if outcome.certificate is not None:
        sk = outcome.certificate
        if sk.lb1 * sk.lb2 <= sk.genus:  # pragma: no cover - guarded at construction
            raise RuntimeError("sketch failed re-verification")
        report["certificates"].append(sk.to_dict())
    if outcome.note:
        report["warnings"].append(outcome.note)
    return report, EXIT_VIOLATION


def _cmd_verify_cases(args) -> tuple[dict, int]:
    bounds = default_box(args.n).to_dict()
    if not args.default_box:
        bounds.update({k: getattr(args, k) for k in bounds if getattr(args, k) is not None})
    box = Box(**bounds)
    # the box check settles every class in closed form, so it reports no counterexample
    box_report = cases.exhaustive_case_check(args.n, box)
    verdict = f"0 counterexamples across {box_report.instances_checked} decomposition profiles"
    results = {"report": box_report.to_dict()}
    return _report("verify-cases", {"n": args.n}, verdict, box.to_dict(), results=results), EXIT_OK


def _cmd_triples(args) -> tuple[dict, int]:
    triples = cases.enumerate_exceptional_triples(args.a_max)
    # by construction (a, 1, 1) is D_{a+3} and (a, 2, 1) is E_{a+4}: the legs of those diagrams
    labeled = [
        {"triple": list(t), "dynkin": f"D{t[0] + 3}" if t[1] == 1 else f"E{t[0] + 4}"} for t in triples
    ]
    results = {"triples": [list(t) for t in triples], "labeled": labeled}
    verdict = f"{len(triples)} exceptional triples"
    return _report("triples", {"a_max": args.a_max}, verdict, {"a_max": args.a_max}, results=results), EXIT_OK


def _cmd_reduce_fixed(args) -> tuple[dict, int]:
    echo, pol, roots = parse_surface_spec(_read(args.surface))
    data = _read_document(_read(args.data), "data", ("parts", "delta"), {})
    parts = [DivClass(tuple(v)) for v in data["parts"]]
    delta = [DivClass(tuple(v)) for v in data["delta"]]
    reduced = reduce_fixed_components(pol, parts, delta, roots)
    results = {"parts": [list(p.coords) for p in reduced], "squares": [pol.lattice.square(p) for p in reduced]}
    echo.update(data)
    return _report("reduce-fixed", echo, f"reduced to {len(reduced)} parts", results=results), EXIT_OK


def _cmd_profile_check(args) -> tuple[dict, int]:
    data = _read_document(_read(args.profile), "profile", ("entries",), {})
    fp = FiltrationProfile(tuple(map(tuple, data["entries"])))
    ok = cases.profile_feasible(fp)
    results = {"feasible": ok, "sum_r": fp.sum_r, "sum_s": fp.sum_s}
    return _report("profile-check", data, "feasible" if ok else "infeasible", results=results), EXIT_OK


def _read(path: str) -> str:
    """The text of a document file, or of stdin for "-", decoded as UTF-8 whatever the locale."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{'stdin' if path == '-' else path}: not UTF-8 text ({exc})") from None


def run(args) -> tuple[dict, int]:
    """Dispatch a parsed command line; reports echo their inputs and bounds."""
    started = time.perf_counter()
    report, status = _GRAMMAR[args.command][0](args)
    report["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    return report, status


_ascii = json.encoder.encode_basestring_ascii
_scalar = json.JSONEncoder().encode


def _render_json(v, pad: str = "\n") -> str:
    """What ``json.dumps`` returns with an indent of 2, byte for byte, for dicts with str keys.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder; this
    joins the same pieces directly.  Dicts, lists and tuples open one level
    deeper per call; exact ints go through ``int.__repr__`` (inline for list
    items, which are mostly ints), strs through the ASCII escaper, and every
    other scalar (bool, None, floats including NaN and the infinities)
    through one ``JSONEncoder`` with the default settings.
    """
    if isinstance(v, str):
        return _ascii(v)
    if type(v) is int:
        return int.__repr__(v)
    inner = pad + "  "
    if isinstance(v, dict):
        items = [_ascii(k) + ": " + _render_json(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [int.__repr__(x) if type(x) is int else _render_json(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return _scalar(v)


def _render_human(report: dict) -> str:
    lines = [f"{report['command']}: {report['verdict']}"]
    for cert in report["certificates"]:
        lines.append(f"  certificate: {json.dumps(cert)}")
    for w in report["warnings"]:
        lines.append(f"  warning: {w}")
    if report["bounds"]:
        lines.append(f"  bounds: {json.dumps(report['bounds'])}")
    lines.append(f"  elapsed: {report['elapsed_ms']:.1f} ms")
    return "\n".join(lines)


# The command set: each command's handler, its help line and its options in
# order, as (option, kind, default, choices, help).  A kind of bool is a flag,
# int and str take one value, and a default of _REQUIRED makes the option
# required.  `run`, `build_parser` and `_parse_plain` all read it.
_REQUIRED = object()
_GRAMMAR = {
    "bn-check": (
        _cmd_bn_check, "search for a Brill-Noether violation certificate",
        (
            ("--surface", str, _REQUIRED, None, "surface spec JSON file ('-' for stdin)"),
            ("--degree-bound", int, 10, None, None),
        ),
    ),
    "decompose": (
        _cmd_decompose, "enumerate effective decompositions up to the bound",
        (("--surface", str, _REQUIRED, None, None), ("--degree-bound", int, 10, None, None)),
    ),
    "classify": (
        _cmd_classify, "match a decomposition profile against the case list",
        (("--profile", str, _REQUIRED, None, "profile JSON file with 'sq' and 'x'"),),
    ),
    "verify-cases": (
        _cmd_verify_cases, "exhaustive box verification for n = 2, 3, 4",
        (
            ("--n", int, _REQUIRED, (2, 3, 4), None),
            ("--default-box", bool, False, None, "force the default box"),
            *((f"--{b}", int, None, None, None) for b in ("r-max", "s-min", "s-max", "eps-max", "x-min", "x-max")),
        ),
    ),
    "triples": (
        _cmd_triples, "enumerate exceptional triples of the determinant condition",
        (("--a-max", int, _REQUIRED, None, None),),
    ),
    "reduce-fixed": (
        _cmd_reduce_fixed, "absorb declared irreducible summands into parts",
        (
            ("--surface", str, _REQUIRED, None, None),
            ("--data", str, _REQUIRED, None, "JSON file with 'parts' and 'delta'"),
        ),
    ),
    "profile-check": (
        _cmd_profile_check, "test filtration-profile feasibility",
        (("--profile", str, _REQUIRED, None, "profile JSON file with 'entries'"),),
    ),
}
# per command, each option's namespace attribute and its spec
_OPTIONS = {
    command: {opt: (opt[2:].replace("-", "_"), *spec) for opt, *spec in options}
    for command, (_, _, options) in _GRAMMAR.items()
}


def build_parser():
    """A fresh argparse parser for the grammar table.

    It reads every line that `_parse_plain` does not, so abbreviations,
    ``--opt=value``, ``--``, help and every usage error keep argparse's own
    behaviour and texts.  Usage errors are raised as InputError, so that they
    get the JSON input-error report; the subparsers share the parser class,
    so their errors are raised too.
    """
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message: str):
            raise InputError(f"{self.prog}: {message}")

    parser = _ArgumentParser(
        prog="k3bn",
        description="Divisor arithmetic and Brill-Noether generality certificates "
        "on even class lattices.",
    )
    parser.add_argument("--human", action="store_true", help="render a text summary instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=command_help)
        for opt, kind, default, choices, opt_help in options:
            kwargs = {"action": "store_true"} if kind is bool else {"type": int} if kind is int else {}
            if default is _REQUIRED:
                kwargs["required"] = True
            elif kind is not bool:
                kwargs["default"] = default
            if choices:
                kwargs["choices"] = choices
            if opt_help:
                kwargs["help"] = opt_help
            p.add_argument(opt, **kwargs)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for a plainly well-formed line, or None.

    A plainly well-formed line is an optional leading ``--human`` and a
    command, then exact option names of that command, each at most once:
    flags bare, every other option followed by one value.  No value starts
    with "-" except "-" itself and "-" followed by ASCII digits, which
    argparse also reads as values, since no option looks like a negative
    number.  Ints go through ``int()`` as argparse converts them, choices
    are checked, and every required option must be present.  Any other line
    returns None and is left to argparse.
    """
    human = argv[:1] == ["--human"]
    options = _OPTIONS.get(argv[human] if len(argv) > human else None)
    if options is None:
        return None
    values = {dest: default for dest, _, default, _, _ in options.values()}
    seen = set()
    tokens = iter(argv[human + 1 :])
    for opt in tokens:
        if opt not in options or opt in seen:
            return None
        seen.add(opt)
        dest, kind, _, choices, _ = options[opt]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or (value[:1] == "-" and value != "-" and not (value[1:].isascii() and value[1:].isdigit())):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
            if choices and value not in choices:
                return None
        values[dest] = value
    if any(v is _REQUIRED for v in values.values()):
        return None
    return SimpleNamespace(human=human, command=argv[human], **values)


# The parser `main` uses, built for the first line that `_parse_plain` leaves
# to argparse and reused by every later one in the process (parsing keeps its
# state in locals and a new Namespace).
# `build_parser()` still returns a fresh parser that callers may change freely.
_parser = functools.cache(build_parser)


def _write(text: str) -> None:
    """Print a report; if the reader has closed stdout, drop the rest quietly."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_plain(argv) or _parser().parse_args(argv)
        report, status = run(args)
    except (InputError, PreconditionError, InconsistentGeometryError, OSError) as exc:
        warnings = exc.violations if isinstance(exc, InputError) else [str(exc)]
        command = next((a for a in argv if a in _GRAMMAR), "k3bn")
        _write(_render_json(_report(command, {}, "input error", warnings=warnings)))
        return EXIT_INPUT_ERROR
    _write(_render_human(report) if args.human else _render_json(report))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
