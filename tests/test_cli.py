import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import k3bn
from k3bn import cli, lattice
from k3bn.bn import SCAN_VERDICT_KEYS, ViolationCertificate
from k3bn.cases import default_box, enumerate_exceptional_triples
from k3bn.cli import (
    EXIT_EXCEPTIONAL,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VIOLATION,
    build_parser,
    main,
    parse_surface_spec,
)
from k3bn.errors import InputError as SpecValidationError
from k3bn.lattice import GramLattice
from library_reference import dynkin_label

U_DOC = {"gram": [[0, 1], [1, 0]], "H": [1, 1]}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_minimal_spec():
    echo, pol, roots = parse_surface_spec(json.dumps(U_DOC))
    assert echo["gram"] == [[0, 1], [1, 0]]
    assert echo["H"] == [1, 1]
    assert echo["roots"] == []
    assert echo["asserts_nef"]
    # every field in report order, absent ones at their defaults
    assert list(echo) == ["name", "gram", "basis_names", "H", "roots", "asserts_nef"]
    assert (echo["name"], echo["basis_names"]) == ("surface", None)
    assert pol.h.coords == (1, 1) and roots.roots == ()


def test_parse_rejects_odd_diagonal():
    with pytest.raises(SpecValidationError) as err:
        parse_surface_spec(json.dumps({"gram": [[1]], "H": [1]}))
    assert any("odd diagonal" in v for v in err.value.violations)


def test_parse_rejects_bad_root():
    doc = {**U_DOC, "roots": [[1, 0]]}
    with pytest.raises(SpecValidationError) as err:
        parse_surface_spec(json.dumps(doc))
    assert any("square is 0" in v for v in err.value.violations)


def test_a_bad_polarization_and_a_bad_root_are_reported_together(tmp_path):
    doc = {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "H": [1, 0, 0], "roots": [[1, 0, 0]]}
    code, rep = run_cli(["bn-check", "--surface", write(tmp_path, "s.json", doc)])
    assert code == EXIT_INPUT_ERROR
    assert rep["warnings"] == [
        "quasi-polarization must have positive square, got 0",
        "roots[0]: square is 0, expected -2",
    ]


def test_parse_collects_all_violations():
    doc = {"gram": [[0, 2], [1, 0]], "H": [1, 1, 1], "name": 7}
    with pytest.raises(SpecValidationError) as err:
        parse_surface_spec(json.dumps(doc))
    assert len(err.value.violations) >= 3


def test_spec_round_trip():
    doc = {
        "gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]],
        "H": [1, 1, 0],
        "name": "with-root",
        "basis_names": ["e", "f", "r"],
        "roots": [[0, 0, 1]],
        "asserts_nef": True,
    }
    echo, pol, roots = parse_surface_spec(json.dumps(doc))
    assert echo == doc
    again = parse_surface_spec(json.dumps(echo))
    assert again == (echo, pol, roots)
    assert list(again[0]) == list(echo)


@pytest.mark.parametrize(
    "text",
    ['{"gram": [[' + "2" * 5000 + ']], "H": [1]}', "[" * 100000 + "]" * 100000],
    ids=["too-many-digits", "nested-too-deep"],
)
def test_json_the_decoder_refuses_is_an_input_error(tmp_path, text):
    path = tmp_path / "big.json"
    path.write_text(text)
    code, rep = run_cli(["bn-check", "--surface", str(path)])
    assert code == EXIT_INPUT_ERROR
    assert rep["warnings"][0].startswith("surface: not valid JSON")


@pytest.mark.parametrize("roots", [False, 0, "", {}])
def test_roots_that_are_not_a_list_are_input_errors(tmp_path, roots):
    path = write(tmp_path, "u.json", {**U_DOC, "roots": roots})
    code, rep = run_cli(["bn-check", "--surface", path])
    assert code == EXIT_INPUT_ERROR
    assert rep["warnings"] == ["roots: expected a list of integer vectors"]


def test_null_roots_mean_none(tmp_path):
    path = write(tmp_path, "u.json", {**U_DOC, "roots": None})
    code, rep = run_cli(["bn-check", "--surface", path])
    assert code == EXIT_VIOLATION
    assert rep["inputs_echo"]["roots"] == []


@pytest.mark.parametrize(
    "command, payload, expected",
    [
        (
            "classify",
            {"sq": [3, 2, 0], "x": [[0, 1, 1], [2, 0, 1], [1, 1, 0]]},
            ["sq[0] = 3 is odd; squares in an even lattice are even", "x is not symmetric at (0, 1)"],
        ),
        (
            "profile-check",
            {"entries": [[0, 1, 1], [1, 1, -1], [1, 1]]},
            [
                "entries[0]: rank 0 must be at least 1",
                "entries[1]: eps -1 must be nonnegative",
                "entries[2] must be an integer triple",
            ],
        ),
    ],
)
def test_profile_checks_report_every_fault(tmp_path, command, payload, expected):
    code, rep = run_cli([command, "--profile", write(tmp_path, "p.json", payload)])
    assert code == EXIT_INPUT_ERROR
    assert rep["warnings"] == expected


def test_each_command_builds_its_lattice_once(tmp_path, monkeypatch):
    built = []
    check = GramLattice.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GramLattice, "__post_init__", counted)
    surface = write(tmp_path, "s.json", {"gram": [[0, 1, 0], [1, 0, 1], [0, 1, -2]], "H": [1, 1, 1]})
    data = write(tmp_path, "d.json", {"parts": [[1, 0, 0], [0, 1, 0]], "delta": [[0, 0, 1]]})
    rooted = write(
        tmp_path, "r.json", {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "H": [1, 2, 0], "roots": [[0, 0, 1]]}
    )
    for argv in (["bn-check", "--surface", rooted], ["reduce-fixed", "--surface", surface, "--data", data]):
        built.clear()
        code, _ = run_cli(argv)
        assert code in (EXIT_OK, EXIT_VIOLATION)
        assert len(built) == 1


# ---------------------------------------------------------------------------
# commands and exit codes


def test_bn_check_violation(tmp_path):
    path = write(tmp_path, "u.json", U_DOC)
    code, rep = run_cli(["bn-check", "--surface", path])
    assert code == EXIT_VIOLATION
    assert rep["verdict"] == "violation"
    cert = rep["certificates"][0]
    assert sorted([cert["d1"], cert["d2"]]) == [[0, 1], [1, 0]]
    assert (cert["lb1"], cert["lb2"], cert["genus"]) == (2, 2, 2)
    assert rep["bounds"] == {"degree_bound": 10}


def test_bn_check_rank_one_clean(tmp_path):
    path = write(tmp_path, "r1.json", {"gram": [[4]], "H": [1]})
    code, rep = run_cli(["bn-check", "--surface", path])
    assert code == EXIT_OK
    assert "no violation" in rep["verdict"]
    assert rep["certificates"] == []


def test_bn_check_input_error(tmp_path):
    path = write(tmp_path, "bad.json", {"gram": [[1]], "H": [1]})
    code, rep = run_cli(["bn-check", "--surface", path])
    assert code == EXIT_INPUT_ERROR
    assert rep["verdict"] == "input error"
    assert rep["warnings"]


def test_decompose_lists_pairs(tmp_path):
    path = write(tmp_path, "u.json", {"gram": [[0, 1], [1, 0]], "H": [1, 3]})
    code, rep = run_cli(["decompose", "--surface", path, "--degree-bound", "4"])
    assert code == EXIT_VIOLATION  # violations exist on this surface
    assert rep["results"]["count"] >= 1
    for rec in rep["results"]["decompositions"]:
        d1 = rec["d1"]
        d2 = rec["d2"]
        assert [a + b for a, b in zip(d1, d2)] == [1, 3]


GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "decompose_golden.json")
with open(GOLDEN, encoding="utf-8") as _fh:
    DECOMPOSE_GOLDEN = json.load(_fh)


@pytest.mark.parametrize(
    "case", DECOMPOSE_GOLDEN, ids=[f"{i}-{c['surface']['name']}" for i, c in enumerate(DECOMPOSE_GOLDEN)]
)
def test_decompose_reports_match_the_recorded_window_scan(tmp_path, case):
    # reports recorded from the window scan, minus elapsed_ms: verdict, pairs and
    # their order, count, stats and warnings must not change; and the report
    # contract, stdout is json.dumps(report, indent=2) and a newline, byte for byte
    assert cli._render_json(case["report"]) == json.dumps(case["report"], indent=2)
    path = write(tmp_path, "s.json", case["surface"])
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["decompose", "--surface", path, "--degree-bound", str(case["degree_bound"])])
    text = buf.getvalue()
    rep = json.loads(text)
    assert text == json.dumps(rep, indent=2) + "\n"
    del rep["elapsed_ms"]
    assert (code, rep) == (case["exit"], case["report"])


def test_classify_case(tmp_path):
    path = write(
        tmp_path,
        "p.json",
        {"sq": [8, 2, 0], "x": [[0, 3, 3], [3, 0, 3], [3, 3, 0]]},
    )
    code, rep = run_cli(["classify", "--profile", path])
    assert code == EXIT_VIOLATION
    assert rep["results"]["case_id"] == "3b"
    assert rep["certificates"]


def test_classify_exceptional(tmp_path):
    path = write(
        tmp_path,
        "p.json",
        {"sq": [6, 2, 0], "x": [[0, 3, 3], [3, 0, 3], [3, 3, 0]]},
    )
    code, rep = run_cli(["classify", "--profile", path])
    assert code == EXIT_EXCEPTIONAL
    assert "exceptional" in rep["verdict"]


@pytest.mark.parametrize(
    "sq, warning",
    [
        ([-2] * 5, "genus -4 < 2: the parts sum to H with H^2 = -10 <= 0, not a quasi-polarization"),
        ([0] * 3, "genus 1 < 2: the parts sum to H with H^2 = 0 <= 0, not a quasi-polarization"),
    ],
    ids=["five (-2)-parts", "three isotropic parts"],
)
def test_classify_refuses_profiles_of_genus_below_two(tmp_path, sq, warning):
    n = len(sq)
    path = write(tmp_path, "p.json", {"sq": sq, "x": [[0] * n for _ in range(n)]})
    code, rep = run_cli(["classify", "--profile", path])
    assert (code, rep["verdict"], rep["warnings"]) == (EXIT_INPUT_ERROR, "input error", [warning])


def test_verify_cases_small_box():
    code, rep = run_cli(
        [
            "verify-cases", "--n", "2",
            "--r-max", "3", "--s-min", "-3", "--s-max", "3",
            "--eps-max", "2", "--x-min", "-2", "--x-max", "6",
        ]
    )
    assert code == EXIT_OK
    assert rep["results"]["report"]["counterexamples"] == []
    assert rep["bounds"]["r_max"] == 3


def test_verify_cases_echoes_default_box():
    code, rep = run_cli(["verify-cases", "--n", "2", "--default-box"])
    assert code == EXIT_OK
    assert rep["bounds"] == {
        "r_max": 12, "s_min": -12, "s_max": 12,
        "eps_max": 12, "x_min": -12, "x_max": 40,
    }


def test_triples_command():
    code, rep = run_cli(["triples", "--a-max", "10"])
    assert code == EXIT_OK
    assert len(rep["results"]["triples"]) == 13
    assert rep["bounds"] == {"a_max": 10}
    labels = {tuple(t["triple"]): t["dynkin"] for t in rep["results"]["labeled"]}
    assert labels[(4, 2, 1)] == "E8"


def test_triples_labels_match_dynkin_label():
    # the handler labels by construction; dynkin_label checks each triple and labels it
    for a_max in range(1, 201):
        report, _ = cli._cmd_triples(SimpleNamespace(a_max=a_max))
        assert report["results"]["labeled"] == [
            {"triple": list(t), "dynkin": dynkin_label(*t)} for t in enumerate_exceptional_triples(a_max)
        ], a_max


def test_reduce_fixed_command(tmp_path):
    surface = write(
        tmp_path,
        "s.json",
        {
            "gram": [[0, 1, 0], [1, 0, 1], [0, 1, -2]],
            "H": [1, 1, 1],
        },
    )
    data = write(tmp_path, "d.json", {"parts": [[1, 0, 0], [0, 1, 0]], "delta": [[0, 0, 1]]})
    code, rep = run_cli(["reduce-fixed", "--surface", surface, "--data", data])
    assert code == EXIT_OK
    assert rep["results"]["parts"] == [[1, 0, 0], [0, 1, 1]]
    assert rep["results"]["squares"] == [0, 0]


def test_reduce_fixed_inconsistent_is_input_error(tmp_path):
    surface = write(
        tmp_path,
        "s.json",
        {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "H": [2, 2, 1]},
    )
    data = write(
        tmp_path,
        "d.json",
        {"parts": [[1, 0, 0], [0, 1, 0], [1, 1, 0]], "delta": [[0, 0, 1]]},
    )
    code, rep = run_cli(["reduce-fixed", "--surface", surface, "--data", data])
    assert code == EXIT_INPUT_ERROR


@pytest.mark.parametrize(
    "command, payload",
    [
        ("classify", {"sq": 5, "x": []}),
        ("classify", {"sq": [2, 2, 2], "x": [1, 2, 3]}),
        ("classify", {"sq": [2, 2], "x": [[0, 1], [1, 0]], "h0_at_least_2": 1}),
        ("classify", {"sq": [2, 2, 0], "x": [[0, 3, 3], [3, 0, 3], [3, 3, 0]], "h0_at_least_2": ["no"] * 3}),
        ("reduce-fixed", {"parts": [1], "delta": []}),
        ("reduce-fixed", {"parts": [[1, 0, 0]], "delta": [[0, 0, "1"]]}),
        ("profile-check", {"entries": [1, 2]}),
    ],
)
def test_malformed_field_shapes_are_input_errors(tmp_path, command, payload):
    doc = write(tmp_path, "doc.json", payload)
    if command == "reduce-fixed":
        surface = write(tmp_path, "s.json", {"gram": [[0, 1, 0], [1, 0, 1], [0, 1, -2]], "H": [1, 1, 1]})
        argv = [command, "--surface", surface, "--data", doc]
    else:
        argv = [command, "--profile", doc]
    code, rep = run_cli(argv)
    assert code == EXIT_INPUT_ERROR
    assert rep["verdict"] == "input error"
    assert rep["warnings"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cases", "--n", "2", "--workers", "1"],
        ["bn-check", "--surface", "{surface}", "--degree-bound", "abc"],
        ["verify-cases", "--n", "7"],
        ["decompose"],
        ["no-such-command"],
        [],
        ["bn-check", "--surface", "{surface}", "--workers", "2"],
    ],
)
def test_usage_errors_are_input_errors(tmp_path, argv):
    surface = write(tmp_path, "u.json", U_DOC)
    code, rep = run_cli([a.format(surface=surface) for a in argv])
    assert code == EXIT_INPUT_ERROR
    assert rep["verdict"] == "input error"
    assert rep["warnings"]
    assert rep["command"] == (argv[0] if argv and argv[0] != "no-such-command" else "k3bn")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cases", "--n", "2", "--r-max", "1000000"],
        ["verify-cases", "--n", "3", "--eps-max", "1000000"],
        ["verify-cases", "--n", "2", "--r-max", "200", "--s-max", "100"],
        ["triples", "--a-max", "100000001"],
        # 22 parts and no certifying split: the split search took about 115 s
        ["classify", "--profile", "{profile}"],
    ],
)
def test_oversized_searches_are_refused_before_any_work(tmp_path, argv):
    n = 22
    profile = write(tmp_path, "p.json", {"sq": [-10] * n, "x": [[int(i != j) for j in range(n)] for i in range(n)]})
    started = time.perf_counter()
    code, rep = run_cli([a.format(profile=profile) for a in argv])
    assert code == EXIT_INPUT_ERROR
    assert rep["warnings"][0].startswith("bound overflow: ")
    assert time.perf_counter() - started < 1.0


def test_four_part_boxes_are_never_refused():
    # the row-sum test closes every four-part class without visiting it
    started = time.perf_counter()
    code, rep = run_cli(["verify-cases", "--n", "4", "--eps-max", "1000000", "--r-max", "1000000"])
    assert code == EXIT_OK
    assert rep["results"]["report"]["stats"]["closed_row_sum"] == (10**6 + 1) ** 4
    assert time.perf_counter() - started < 1.0


def _python(*args):
    """Run a fresh interpreter that imports k3bn from this source tree."""
    src = os.path.dirname(os.path.dirname(k3bn.__file__))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bn-check", "--surface", "{bad}"],
        ["decompose", "--surface", "{bad}"],
        ["classify", "--profile", "{bad}"],
        ["profile-check", "--profile", "{bad}"],
        ["reduce-fixed", "--surface", "{good}", "--data", "{bad}"],
    ],
)
def test_documents_that_are_not_utf8_are_input_errors(tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    good = write(tmp_path, "u.json", U_DOC)
    code, rep = run_cli([a.format(bad=bad, good=good) for a in argv])
    assert (code, rep["verdict"]) == (EXIT_INPUT_ERROR, "input error")
    assert rep["warnings"] == [
        f"{bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
    ]


@pytest.mark.parametrize(
    "stdin, position",
    [(b"\xff{}", 0), (b'{"gram": [[0, 1], [1, 0]], "H": [1, 1], "name": "\xff"}', 49)],
    ids=["not-json", "in-a-string"],
)
def test_stdin_that_is_not_utf8_is_an_input_error(stdin, position):
    # read as UTF-8 like a file, not with the locale's decoding of stdin, which
    # may turn such bytes into surrogates and accept the second document
    src = os.path.dirname(os.path.dirname(k3bn.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "k3bn", "bn-check", "--surface", "-"],
        input=stdin,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=60,
    )
    assert out.returncode == EXIT_INPUT_ERROR and b"Traceback" not in out.stderr
    assert json.loads(out.stdout)["warnings"] == [
        f"stdin: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position {position}: invalid start byte)"
    ]


def test_cli_import_leaves_multiprocessing_out():
    # every command pays the import; multiprocessing is a large share of it
    out = _python("-c", "import sys, k3bn.cli; print('multiprocessing' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_fractions_and_decimal_out():
    # the scan and the X_H enumeration stay in integers; each import costs setup time
    out = _python("-c", "import sys, k3bn.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_dataclasses_out():
    # dataclasses and the modules only it loads cost about a third of the import,
    # and its decorators compile generated methods at every start
    names = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
    out = _python("-c", f"import sys, k3bn.cli; print(sorted({names} & set(sys.modules)))")
    assert out.stdout.strip() == "[]"


def test_value_classes_take_equality_hash_and_repr_from_their_base():
    # errors.Frozen defines them once for every value class; DivClass keeps its short repr
    import k3bn.mukai, k3bn.profiles  # noqa: F401  (every Frozen subclass is defined)
    from k3bn.errors import Frozen

    methods = {"__eq__", "__hash__", "__repr__", "_fields"}
    own = {cls.__name__: sorted(methods & set(vars(cls))) for cls in Frozen.__subclasses__()}
    assert {name: found for name, found in own.items() if found} == {"DivClass": ["__repr__"]}


def _loaded_k3bn_modules(*statements):
    """The k3bn modules a fresh interpreter holds after running ``statements``."""
    script = "\n".join(("import json, sys", *statements, "print(json.dumps(sorted(m for m in sys.modules if m.startswith('k3bn'))))"))
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cli_import_loads_neither_profiles_nor_mukai():
    # every command compiles what the import loads; the profile case analysis
    # and the Mukai pairings wait for the commands that use them
    assert _loaded_k3bn_modules("import k3bn.cli") == [
        "k3bn", "k3bn.bn", "k3bn.cases", "k3bn.cli", "k3bn.divisors", "k3bn.errors", "k3bn.lattice",
    ]


def test_cases_import_leaves_bn_out():
    assert _loaded_k3bn_modules("import k3bn.cases") == ["k3bn", "k3bn.cases", "k3bn.errors"]


@pytest.mark.parametrize(
    "argv, profiles",
    [
        (["verify-cases", "--n", "2", "--default-box"], False),
        (["bn-check", "--surface", "{surface}", "--degree-bound", "3"], False),
        (["decompose", "--surface", "{surface}", "--degree-bound", "3"], False),
        (["classify", "--profile", "{profile}"], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_only_classify_loads_profiles(tmp_path, argv, profiles):
    surface = write(tmp_path, "ua1.json", {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "H": [1, 2, 0]})
    profile = write(tmp_path, "p.json", {"sq": [8, 2, 0], "x": [[0, 3, 3], [3, 0, 3], [3, 3, 0]]})
    argv = [a.format(surface=surface, profile=profile) for a in argv]
    loaded = _loaded_k3bn_modules(
        "import contextlib, io, k3bn.cli",
        f"with contextlib.redirect_stdout(io.StringIO()): k3bn.cli.main({argv!r})",
    )
    assert ("k3bn.profiles" in loaded) == profiles


def test_verify_cases_never_loads_profiles():
    # every box class is settled in closed form, so no split search is compiled;
    # one interpreter for the boxes test_only_classify_loads_profiles leaves out
    argvs = [["verify-cases", "--n", str(n), "--default-box"] for n in (3, 4)]
    argvs.append(["verify-cases", "--n", "3", "--eps-max", "60"])
    loaded = _loaded_k3bn_modules(
        "import contextlib, io, k3bn.cli",
        f"with contextlib.redirect_stdout(io.StringIO()): [k3bn.cli.main(a) for a in {argvs!r}]",
    )
    assert "k3bn.profiles" not in loaded


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bn-check", "--help"])
    assert exc.value.code == 0
    assert "--degree-bound" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the grammar table against argparse

# values that argparse reads in ways a hand-written reader could get wrong
_ODD_VALUES = ["-", "-3", "-0", "-1.5", "-.5", "+5", " 4", "1_0", "\u0663", "", "x", "-1a", "-\u0663", "-\u00b2", "-x", "7"]


def _assert_reads_as_argparse(argv, parser, well_formed=False):
    """`_parse_plain` returns argparse's namespace for ``argv`` or None, and None
    whenever argparse refuses the line (or prints help); a well-formed line
    must be read."""
    plain = cli._parse_plain(argv)
    try:
        with redirect_stdout(io.StringIO()):
            expected = vars(parser.parse_args(argv))
    except (SpecValidationError, SystemExit):
        assert plain is None, argv
        return
    if well_formed:
        assert plain is not None, argv
    if plain is not None:
        assert vars(plain) == expected, argv


def _mutate(draw, argv, command):
    """``argv`` with one token added, changed or removed, most often into a line argparse refuses."""
    options = cli._OPTIONS[command]
    start = argv.index(command) + 1
    named = [i for i in range(start, len(argv)) if argv[i] in options]
    valued = [i for i in named if options[argv[i]][1] is not bool and i + 1 < len(argv)]
    at = draw(st.integers(start, len(argv)))
    kind = draw(st.sampled_from(["abbreviate", "insert", "join", "repeat", "omit", "drop", "n", "value"]))
    if kind == "abbreviate" and named:
        i = draw(st.sampled_from(named))
        argv[i] = argv[i][: draw(st.integers(3, max(3, len(argv[i]) - 1)))]
    elif kind == "insert":
        argv.insert(at, draw(st.sampled_from(["--workers", "--surfaces", "-h", "--help", "--", "--human"])))
    elif kind == "join" and valued:
        i = draw(st.sampled_from(valued))
        argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif kind == "repeat" and named:
        i = draw(st.sampled_from(named))
        argv[at:at] = argv[i : i + (1 if options[argv[i]][1] is bool else 2)]
    elif kind == "omit" and named:
        i = draw(st.sampled_from(named))
        del argv[i : i + (1 if options[argv[i]][1] is bool else 2)]
    elif kind == "drop" and valued:
        del argv[draw(st.sampled_from(valued)) + 1]
    elif kind == "n" and "--n" in argv[start:-1]:
        argv[argv.index("--n", start) + 1] = draw(st.sampled_from(["0", "1", "5", "7", "-2"]))
    elif kind == "value" and valued:
        argv[draw(st.sampled_from(valued)) + 1] = draw(st.sampled_from(_ODD_VALUES))
    return argv


@st.composite
def _command_lines(draw):
    """A well-formed line of any command, and the same line after zero to two mutations."""
    command = draw(st.sampled_from(list(cli._GRAMMAR)))
    argv = ["--human"] * draw(st.integers(0, 1)) + [command]
    options = [spec for spec in cli._GRAMMAR[command][2] if spec[2] is cli._REQUIRED or draw(st.booleans())]
    for opt, kind, _, choices, _ in draw(st.permutations(options)):
        argv.append(opt)
        if choices:
            argv.append(str(draw(st.sampled_from(choices))))
        elif kind is int:
            argv.append(str(draw(st.integers(-20, 20))))
        elif kind is str:
            argv.append(draw(st.sampled_from(["u.json", "-", "-7", "", "a b", "x=1", "bn-check", "-5"])))
    mutated = list(argv)
    for _ in range(draw(st.integers(0, 2))):
        mutated = _mutate(draw, mutated, command)
    return argv, mutated


@settings(max_examples=500, deadline=None)
@given(_command_lines())
def test_plain_lines_read_as_argparse_reads_them(lines):
    well_formed, argv = lines
    _assert_reads_as_argparse(argv, build_parser(), argv == well_formed)


def test_odd_values_read_as_argparse_reads_them():
    # every odd value in place of every option's value, on each command's shortest
    # line, and that line without each of its required options
    parser = build_parser()
    for command, (_, _, options) in cli._GRAMMAR.items():
        required = [(opt, "2") for opt, _, default, _, _ in options if default is cli._REQUIRED]
        for k in range(len(required) + 1):
            line = required[:k] + required[k + 1 :]
            _assert_reads_as_argparse([command, *(t for pair in line for t in pair)], parser, k == len(required))
        for opt, kind, _, _, _ in options:
            if kind is bool:
                continue
            for value in _ODD_VALUES:
                line = dict(required, **{opt: value})
                _assert_reads_as_argparse([command, *(t for pair in line.items() for t in pair)], parser)


# ---------------------------------------------------------------------------
# one parser per process


def _drop_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _drop_elapsed(v) for k, v in doc.items() if k != "elapsed_ms"}
    return doc


def _capture(argv):
    """Exit code (or SystemExit code) and stdout of one `main` call, with the
    run times taken out so that two runs can be compared."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = buf.getvalue()
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return code, [line for line in out.splitlines() if not line.startswith("  elapsed: ")]
    return code, _drop_elapsed(doc)


def _assert_reuse_matches_fresh(monkeypatch, argvs):
    reused = [_capture(argv) for argv in argvs]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", build_parser)
        fresh = [_capture(argv) for argv in argvs]
    assert reused == fresh
    return reused


def test_main_reuses_one_parser():
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    # a well-formed line is read from the grammar table and never asks for the parser
    info = cli._parser.cache_info()
    run_cli(["triples", "--a-max", "3"])
    assert cli._parser.cache_info() == info
    # the first usage error builds the parser, the next one reuses it
    cli._parser.cache_clear()
    run_cli(["verify-cases", "--n", "7"])
    assert cli._parser.cache_info()[:2] == (0, 1)
    run_cli(["triples", "--a-max", "x"])
    assert cli._parser.cache_info()[:2] == (1, 1)


def test_reused_parser_human_then_json(tmp_path, monkeypatch):
    path = write(tmp_path, "u.json", U_DOC)
    (code1, text), (code2, doc) = _assert_reuse_matches_fresh(
        monkeypatch,
        [["--human", "bn-check", "--surface", path], ["bn-check", "--surface", path]],
    )
    assert code1 == code2 == EXIT_VIOLATION
    assert text[0].startswith("bn-check: violation")
    assert doc["command"] == "bn-check"


def test_reused_parser_forgets_previous_options(monkeypatch):
    (_, custom), (_, default) = _assert_reuse_matches_fresh(
        monkeypatch, [["verify-cases", "--n", "2", "--r-max", "5"], ["verify-cases", "--n", "2"]]
    )
    assert custom["bounds"]["r_max"] == 5
    assert default["bounds"] == default_box(2).to_dict()


def test_reused_parser_after_usage_error_and_help(monkeypatch):
    runs = _assert_reuse_matches_fresh(
        monkeypatch, [["verify-cases", "--n", "7"], ["--help"], ["triples", "--a-max", "3"]]
    )
    (code1, error), (code2, help_text), (code3, triples) = runs
    assert (code1, code2, code3) == (EXIT_INPUT_ERROR, 0, EXIT_OK)
    assert error["verdict"] == "input error"
    assert help_text[0].startswith("usage: k3bn")
    assert triples["results"]["triples"] == [[1, 1, 1], [2, 1, 1], [2, 2, 1], [3, 1, 1], [3, 2, 1]]


def test_well_formed_commands_leave_argparse_out(tmp_path):
    # each well-formed line is read from the grammar table; argparse, and the
    # gettext it loads, come in only for a usage error, whose text stays argparse's
    surface = write(tmp_path, "u.json", U_DOC)
    rooted = write(tmp_path, "s.json", {"gram": [[0, 1, 0], [1, 0, 1], [0, 1, -2]], "H": [1, 1, 1]})
    lines = [
        ["bn-check", "--surface", surface, "--degree-bound", "2"],
        ["--human", "decompose", "--degree-bound", "2", "--surface", surface],
        ["classify", "--profile", write(tmp_path, "p.json", {"sq": [8, 2, 0], "x": [[0, 3, 3], [3, 0, 3], [3, 3, 0]]})],
        ["verify-cases", "--n", "2", "--default-box"],
        ["triples", "--a-max", "3"],
        ["reduce-fixed", "--surface", rooted, "--data", write(tmp_path, "d.json", {"parts": [[1, 0, 0], [0, 1, 0]], "delta": [[0, 0, 1]]})],
        ["profile-check", "--profile", write(tmp_path, "f.json", {"entries": [[1, 1, 0], [1, 1, 0]]})],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "import k3bn.cli as c\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = c.main(argv)\n"
        "    return code, out.getvalue(), sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "runs = [run(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([[code for code, _, _ in runs], runs[-1][2], run(['verify-cases', '--n', '7'])]))\n"
    )
    out = _python("-c", script, json.dumps(lines))
    codes, loaded, (code, report, after_error) = json.loads(out.stdout)
    assert codes == [EXIT_VIOLATION, EXIT_VIOLATION, EXIT_VIOLATION, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
    assert loaded == []
    assert code == EXIT_INPUT_ERROR and after_error == ["argparse", "gettext"]
    assert json.loads(report)["warnings"] == ["k3bn verify-cases: argument --n: invalid choice: 7 (choose from 2, 3, 4)"]


def test_cli_import_builds_no_parser():
    # the parser is built on the first `main` call that needs it, so importing stays cheap
    out = _python("-c", "import k3bn.cli as c; print(c._parser.cache_info().currsize)")
    assert out.stdout.strip() == "0"


def test_module_entry_point_runs_a_command():
    out = _python("-m", "k3bn", "triples", "--a-max", "3")
    assert out.returncode == EXIT_OK
    rep = json.loads(out.stdout)
    assert rep["command"] == "triples"
    assert rep["results"]["triples"] == [[1, 1, 1], [2, 1, 1], [2, 2, 1], [3, 1, 1], [3, 2, 1]]


def test_module_entry_point_reports_input_errors(tmp_path):
    out = _python("-m", "k3bn", "bn-check", "--surface", str(tmp_path / "missing.json"))
    assert out.returncode == EXIT_INPUT_ERROR
    rep = json.loads(out.stdout)
    assert rep["command"] == "bn-check"
    assert rep["verdict"] == "input error"
    assert "missing.json" in rep["warnings"][0]
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["triples", "--a-max", "2000"], EXIT_OK),
        (["--human", "triples", "--a-max", "3"], EXIT_OK),
        (["triples", "--a-max", "x"], EXIT_INPUT_ERROR),
    ],
)
def test_a_closed_stdout_gets_no_traceback_and_keeps_the_exit_code(argv, code):
    # the reader's end of the pipe is closed before k3bn starts, so its first write fails:
    # inside print for the long report, at the flush for the short ones
    script = (
        "import os, subprocess, sys\n"
        "r, w = os.pipe()\n"
        "os.close(r)\n"
        "print(subprocess.run([sys.executable, '-m', 'k3bn', *sys.argv[1:]], stdout=w).returncode)\n"
    )
    out = _python("-c", script, *argv)
    assert out.stdout.strip() == str(code)
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr


@pytest.mark.parametrize("command", ["bn-check", "decompose"])
def test_scan_reports_pin_stats_keys(tmp_path, command):
    path = write(tmp_path, "u.json", {"gram": [[0, 1], [1, 0]], "H": [1, 3]})
    _, rep = run_cli([command, "--surface", path, "--degree-bound", "4"])
    stats = rep["results"]["stats"]
    if command == "decompose":
        assert set(stats) == {"candidates_scanned", *SCAN_VERDICT_KEYS}
        unknown = stats["unknown_root_nef_residual"] + stats["unknown_search_exhausted"]
        assert unknown > 0
        assert rep["warnings"] == [f"{unknown} candidate classes had Unknown effectivity and were skipped"]
        return
    # U is hyperbolic, so bn-check decides X_H in the box, all by Riemann-Roch
    assert set(stats) == {"candidates_scanned", "window_classes", *SCAN_VERDICT_KEYS}
    assert stats["effective_riemann_roch"] == 2 * stats["candidates_scanned"]
    assert sum(stats[k] for k in SCAN_VERDICT_KEYS) == stats["effective_riemann_roch"]
    outside = stats["window_classes"] - stats["candidates_scanned"]
    assert outside > 0
    assert rep["warnings"] == [OUTSIDE_X_H.format(outside)]


OUTSIDE_X_H = (
    "{} candidate classes in the degree window lie outside X_H and were not examined; "
    "each has a side of square < -2, whose h0 floor is 0, so none can carry a violation "
    "at the lower-bound level"
)


@pytest.mark.parametrize("command", ["bn-check", "decompose"])
def test_scan_commands_eliminate_q_once(tmp_path, monkeypatch, command):
    # the plane diagnostic and the scan read one elimination of Q, cached on the polarization
    bareiss, sizes = lattice.bareiss, []

    def counted(a, basis=None):
        sizes.append(len(a))
        return bareiss(a, basis)

    for name, module in list(sys.modules.items()):
        if name.startswith("k3bn."):
            for attr, value in list(vars(module).items()):
                if value is bareiss:
                    monkeypatch.setattr(module, attr, counted)
    path = write(tmp_path, "ua1.json", {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "H": [1, 2, 0]})
    code, _ = run_cli([command, "--surface", path, "--degree-bound", "3"])
    assert code == EXIT_VIOLATION
    # the other elimination tests the (empty) root set for definiteness
    assert [n for n in sizes if n] == [3]


def test_bn_check_keeps_the_window_scan_on_a_degenerate_form(tmp_path):
    # U + <0>: the plane diagnostic is silent, yet H^perp holds the isotropic
    # (0, 0, 1) and X_H is infinite, so bn-check scans the window
    path = write(tmp_path, "degenerate.json", {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, 0]], "H": [1, 2, 0]})
    code, rep = run_cli(["bn-check", "--surface", path, "--degree-bound", "4"])
    assert code == EXIT_VIOLATION
    assert rep["certificates"] == [{"d1": [0, 1, -4], "d2": [1, 1, 4], "lb1": 2, "lb2": 3, "genus": 3}]
    stats = rep["results"]["stats"]
    assert (stats["candidates_scanned"], stats["window_classes"]) == (19, 117)
    assert rep["warnings"] == ["18 candidate classes had Unknown effectivity and were skipped"]


def test_bn_check_work_stays_bounded_by_the_box(tmp_path):
    # |X_H| grows with H^2 (thousands of classes at 8e + 8f); the box clamp keeps this fast
    gram = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, -2, 0, 0], [0, 0, 0, -4, 0], [0, 0, 0, 0, -4]]
    path = write(tmp_path, "r5.json", {"gram": gram, "H": [40, 40, 0, 0, 0], "roots": [[0, 0, 1, 0, 0]]})
    run_cli(["bn-check", "--surface", path, "--degree-bound", "2"])
    started = time.perf_counter()
    code, rep = run_cli(["bn-check", "--surface", path, "--degree-bound", "2"])
    assert time.perf_counter() - started < 0.05
    assert code == EXIT_VIOLATION
    assert rep["results"]["stats"]["candidates_scanned"] == 78


def test_verify_cases_builds_only_the_rank_buckets_it_reads():
    # r_max = 40 has about a million chain-feasible rank vectors at n = 4;
    # only the seven ending in 1 are read, by the all-isotropic cross-check
    started = time.perf_counter()
    code, rep = run_cli(["verify-cases", "--n", "4", "--r-max", "40"])
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_OK
    assert "across 7 rank vectors" in rep["results"]["report"]["cross_checks"][1]


def test_decompose_warns_like_bn_check_on_a_non_hyperbolic_form(tmp_path):
    path = write(tmp_path, "pos.json", {"gram": [[2, 0], [0, 2]], "H": [1, 0]})
    warned = {}
    for command in ("bn-check", "decompose"):
        _, rep = run_cli([command, "--surface", path, "--degree-bound", "3"])
        warned[command] = rep["warnings"]
    assert warned["decompose"] == warned["bn-check"]
    assert warned["bn-check"] == [
        "plane spanned by H and (0, 1) has positive Gram determinant 4; the form is not hyperbolic"
    ]


def test_profile_check_command(tmp_path):
    feasible = write(tmp_path, "f.json", {"entries": [[1, 1, 0], [1, 1, 0]]})
    code, rep = run_cli(["profile-check", "--profile", feasible])
    assert code == EXIT_OK
    assert rep["verdict"] == "feasible"
    infeasible = write(tmp_path, "i.json", {"entries": [[2, 1, 0], [1, 1, 0]]})
    code, rep = run_cli(["profile-check", "--profile", infeasible])
    assert code == EXIT_OK
    assert rep["verdict"] == "infeasible"


def test_report_schema_fields(tmp_path):
    path = write(tmp_path, "u.json", U_DOC)
    _, rep = run_cli(["bn-check", "--surface", path])
    for key in ("command", "inputs_echo", "verdict", "certificates", "bounds", "warnings", "elapsed_ms", "results"):
        assert key in rep
    assert rep["inputs_echo"]["gram"] == U_DOC["gram"]


def test_reports_share_no_container_and_keep_the_key_order():
    bounds, warnings, results = {"b": 1}, ["w"], {"r": 1}
    first = cli._report("triples", {"a_max": 1}, "v", bounds, warnings, results)
    second = cli._report("triples", {"a_max": 1}, "v", bounds, warnings, results)
    defaults = [cli._report("classify", {}) for _ in range(2)]
    for report in (first, second, *defaults):
        assert list(report) == [
            "command", "inputs_echo", "verdict", "certificates", "bounds", "warnings", "elapsed_ms", "results",
        ]
    assert first == second
    assert defaults[0] == defaults[1]
    assert defaults[0]["elapsed_ms"] == 0.0 and defaults[0]["verdict"] == ""
    for a, b in [(first, second), defaults, (first, defaults[0])]:
        for key in ("certificates", "bounds", "warnings", "results"):
            assert a[key] is not b[key], key
    for key, given in (("bounds", bounds), ("warnings", warnings), ("results", results)):
        assert first[key] == given and first[key] is not given, key
    first["certificates"].append({})
    first["warnings"].append("x")
    first["bounds"]["c"] = 2
    first["results"]["s"] = 3
    assert [second[k] for k in ("certificates", "warnings", "bounds", "results")] == [[], ["w"], {"b": 1}, {"r": 1}]
    assert (bounds, warnings, results) == ({"b": 1}, ["w"], {"r": 1})


def test_human_rendering(tmp_path):
    path = write(tmp_path, "u.json", U_DOC)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--human", "bn-check", "--surface", path])
    assert code == EXIT_VIOLATION
    text = buf.getvalue()
    assert text.startswith("bn-check: violation")
    assert "certificate" in text


# ---------------------------------------------------------------------------
# arbitrary documents: every outcome is an exit code and a JSON report

_CONTROL_OR_NON_ASCII = st.characters(max_codepoint=0x1F) | st.characters(min_codepoint=0x80)
_TEXT = st.text(max_size=3) | st.text(_CONTROL_OR_NON_ASCII, max_size=3)
_ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-4, 4)
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | _TEXT
    | st.builds(list)
    | st.builds(tuple)
    | st.builds(dict),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=500, deadline=None)
@given(_ANY_JSON)
@example(-0.0)
@example(5e-324)
@example(1e16)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example({"a": [True, False, None, {"b": (False, [True])}], "c": 0.1})
def test_reports_render_as_json_dumps_with_indent_2(value):
    assert cli._render_json(value) == json.dumps(value, indent=2)


def test_reverify_checks_every_certificate_against_bounds_shared_per_class():
    # U with H = e + 2f, genus 3: f has h0 floor 2 (a pencil), e + f floor 3
    # and H floor 4; decompose emits both orientations of (f, e + f), and the
    # bound of each distinct class is computed once for all certificates
    _, pol, roots = parse_surface_spec(json.dumps({"gram": [[0, 1], [1, 0]], "H": [1, 2]}))
    f, ef, h = lattice.DivClass((0, 1)), lattice.DivClass((1, 1)), lattice.DivClass((1, 2))
    good = [ViolationCertificate(f, ef, 2, 3, 3), ViolationCertificate(ef, f, 3, 2, 3)]
    cli._reverify(pol, roots, good)
    off = ViolationCertificate(f, ef, 3, 3, 3)  # lb1 one too high, still a violation
    with pytest.raises(RuntimeError, match="failed re-verification"):
        cli._reverify(pol, roots, [*good, off])
    loose = ViolationCertificate(f, h, 2, 4, 3)  # both bounds right, but f + H != H
    with pytest.raises(RuntimeError, match="do not sum"):
        cli._reverify(pol, roots, [*good, loose])


def _ints(size, lo=-2, hi=2):
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size)


def _square(n):
    return st.lists(_ints(n, -3, 3), min_size=n, max_size=n)


@st.composite
def _symmetric(draw, n, diagonal):
    m = draw(_square(n))
    for i in range(n):
        m[i][i] = draw(diagonal)
        for j in range(i):
            m[i][j] = m[j][i]
    return m


def _spoil(draw, value, depth):
    """``value`` with one element ``depth`` levels down (or all of it) swapped for arbitrary JSON."""
    if not depth or not isinstance(value, list) or not value:
        return draw(_ANY_JSON)
    i = draw(st.integers(0, len(value) - 1))
    value[i] = _spoil(draw, value[i], depth - 1)
    return value


@st.composite
def _document(draw, fields):
    """Every field well shaped but, in most documents, one, which is spoiled
    or left out; now and then the whole document is arbitrary JSON, not JSON,
    or raw bytes that need not be UTF-8."""
    whole = draw(st.integers(0, 19))
    if whole >= 18:
        return draw(st.binary(min_size=1, max_size=5))
    if whole == 17:
        return draw(st.text(max_size=5))
    if whole == 16:
        return json.dumps(draw(_ANY_JSON))
    broken = draw(st.sampled_from(list(fields))) if draw(st.integers(0, 3)) else None
    doc = {}
    for key, good in fields.items():
        doc[key] = draw(good)
        if key == broken:
            if draw(st.integers(0, 2)):
                doc[key] = _spoil(draw, doc[key], draw(st.integers(0, 2)))
            else:
                del doc[key]
    return json.dumps(doc)


@st.composite
def _gram(draw, rank):
    """An even symmetric matrix, most often with a hyperbolic plane or a
    positive first entry, so that many H have positive square."""
    m = draw(_symmetric(rank, st.integers(-2, 1).map(lambda k: 2 * k)))
    if draw(st.booleans()):
        return m
    if rank > 1:
        m[0][:2], m[1][:2] = [0, 1], [1, 0]
    else:
        m[0][0] = draw(st.sampled_from((2, 4)))
    return m


def _surface(rank, h):
    return _document(
        {
            "gram": st.one_of(_gram(rank), _gram(rank), _square(rank)),
            "H": st.just(h),
            "roots": st.none() | st.lists(_ints(rank), max_size=2),
            "name": st.text(max_size=3),
            "basis_names": st.none() | st.lists(st.text(max_size=2), min_size=rank, max_size=rank),
            "asserts_nef": st.booleans(),
        }
    )


@st.composite
def _argv(draw, command):
    """argv for ``command`` with its documents as "{0}", "{1}", and the documents' texts."""
    rank, n = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    h = draw(_ints(rank, 1, 3))
    if command in ("bn-check", "decompose"):
        bound = draw(st.integers(1, 2) | st.just(0))
        return [command, "--surface", "{0}", "--degree-bound", str(bound)], [draw(_surface(rank, h))]
    if command == "reduce-fixed":
        # parts and delta sum to H, so that the absorption loop runs
        delta = draw(st.lists(_ints(rank, -1, 1), max_size=2))
        parts = draw(st.lists(_ints(rank), max_size=2))
        parts.append([x - sum(v[i] for v in parts + delta) for i, x in enumerate(h)])
        data = _document({"parts": st.just(parts), "delta": st.just(delta)})
        return [command, "--surface", "{0}", "--data", "{1}"], [draw(_surface(rank, h)), draw(data)]
    if command == "classify":
        fields = {
            "sq": _ints(n, -1, 4).map(lambda sq: [2 * v for v in sq]),
            "x": _symmetric(n, st.just(0)),
            "h0_at_least_2": st.just([True] * n) | st.lists(st.booleans(), min_size=n, max_size=n),
        }
    else:
        triple = st.tuples(st.integers(0, 3), st.integers(-2, 3), st.integers(-1, 3)).map(list)
        fields = {"entries": st.lists(triple, min_size=2, max_size=4)}
    return [command, "--profile", "{0}"], [draw(_document(fields))]


@pytest.mark.parametrize("command", ["bn-check", "decompose", "classify", "profile-check", "reduce-fixed"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arbitrary_documents_get_an_exit_code_and_a_json_report(tmp_path_factory, command, data):
    argv, docs = data.draw(_argv(command))
    folder = tmp_path_factory.mktemp("docs")
    paths = [folder / f"{k}.json" for k in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_bytes(doc if isinstance(doc, bytes) else doc.encode("utf-8"))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([a.format(*paths) for a in argv])
    assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_VIOLATION, EXIT_EXCEPTIONAL)
    rep = json.loads(buf.getvalue())
    if command == "classify" and code != EXIT_INPUT_ERROR:
        # a verdict only for a quasi-polarization, H^2 > 0 (genus >= 2); the rest are refused
        assert sum(rep["inputs_echo"]["sq"]) + sum(map(sum, rep["inputs_echo"]["x"])) > 0
