import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

import k3bn
from k3bn.bn import SCAN_VERDICT_KEYS
from k3bn.cli import (
    EXIT_EXCEPTIONAL,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VIOLATION,
    SpecValidationError,
    main,
    parse_surface_spec,
)

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
    spec = parse_surface_spec(json.dumps(U_DOC))
    assert spec.gram == [[0, 1], [1, 0]]
    assert spec.H == [1, 1]
    assert spec.roots == []
    assert spec.asserts_nef


def test_parse_rejects_odd_diagonal():
    with pytest.raises(SpecValidationError) as err:
        parse_surface_spec(json.dumps({"gram": [[1]], "H": [1]}))
    assert any("odd diagonal" in v for v in err.value.violations)


def test_parse_rejects_bad_root():
    doc = {**U_DOC, "roots": [[1, 0]]}
    with pytest.raises(SpecValidationError) as err:
        parse_surface_spec(json.dumps(doc))
    assert any("square is 0" in v for v in err.value.violations)


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
    spec = parse_surface_spec(json.dumps(doc))
    again = parse_surface_spec(json.dumps(spec.to_doc()))
    assert spec == again


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
        ["verify-cases", "--n", "4", "--eps-max", "1000000"],
        ["verify-cases", "--n", "2", "--r-max", "200", "--s-max", "100"],
        ["triples", "--a-max", "100000001"],
    ],
)
def test_oversized_searches_are_refused_before_any_work(argv):
    started = time.perf_counter()
    code, rep = run_cli(argv)
    assert code == EXIT_INPUT_ERROR
    assert rep["warnings"][0].startswith("bound overflow: ")
    assert time.perf_counter() - started < 1.0


def test_cli_import_leaves_multiprocessing_out():
    # every command pays the import; multiprocessing is a large share of it
    src = os.path.dirname(os.path.dirname(k3bn.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, k3bn.cli; print('multiprocessing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bn-check", "--help"])
    assert exc.value.code == 0
    assert "--degree-bound" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["bn-check", "decompose"])
def test_scan_reports_pin_stats_keys(tmp_path, command):
    path = write(tmp_path, "u.json", {"gram": [[0, 1], [1, 0]], "H": [1, 3]})
    _, rep = run_cli([command, "--surface", path, "--degree-bound", "4"])
    stats = rep["results"]["stats"]
    assert set(stats) == {"candidates_scanned", *SCAN_VERDICT_KEYS}
    unknown = stats["unknown_root_nef_residual"] + stats["unknown_search_exhausted"]
    assert unknown > 0
    assert rep["warnings"] == [f"{unknown} candidate classes had Unknown effectivity and were skipped"]


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


def test_human_rendering(tmp_path):
    path = write(tmp_path, "u.json", U_DOC)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--human", "bn-check", "--surface", path])
    assert code == EXIT_VIOLATION
    text = buf.getvalue()
    assert text.startswith("bn-check: violation")
    assert "certificate" in text
