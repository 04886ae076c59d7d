"""Tests of the benchmark itself: generators, output checker, and a smoke run.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import workloads
from conftest import BENCH, ROOT


def _spec(workload, seed, directory):
    spec = workloads.generate(workload, seed, str(directory), size="full")
    text = json.dumps(spec).replace(str(directory), "<dir>")
    docs = {name: (directory / name).read_text() for name in os.listdir(directory)}
    return text, docs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload, tmp_path):
    a = _spec(workload, 3, tmp_path / "a")
    b = _spec(workload, 3, tmp_path / "b")
    c = _spec(workload, 4, tmp_path / "c")
    assert a == b
    assert a[0] != c[0]


def _main(argv):
    from k3bn import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "out": buf.getvalue(), "exc": None}


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()


@pytest.fixture
def violation(tmp_path):
    doc = workloads.surface_doc("U", (1, 3))
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc))
    cmd = {"argv": ["bn-check", "--surface", str(path)], "check": {"kind": "violation", "surface": doc}}
    return cmd, _main(cmd["argv"])


def _mutated(outcome, mutate):
    doc = json.loads(outcome["out"])
    mutate(doc)
    return {**outcome, "out": json.dumps(doc)}


def test_checker_accepts_a_real_certificate(violation, reference):
    cmd, outcome = violation
    assert outcome["rc"] == 10
    assert check.check_outcome(cmd, outcome, reference) is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["certificates"][0].__setitem__("lb1", d["certificates"][0]["lb1"] + 1),
        lambda d: d["certificates"][0]["d1"].__setitem__(0, d["certificates"][0]["d1"][0] + 1),
        lambda d: d["certificates"][0].__setitem__("genus", d["certificates"][0]["genus"] - 1),
    ],
    ids=["flipped-lb", "changed-d1", "changed-genus"],
)
def test_checker_rejects_a_mutated_certificate(violation, reference, mutate):
    cmd, outcome = violation
    assert check.check_outcome(cmd, _mutated(outcome, mutate), reference) is not None


@pytest.fixture(scope="module")
def box_outcome():
    cmd = workloads.box_command(2, workloads.DEFAULT_BOXES[2], True, "n2")
    return cmd, _main(cmd["argv"])


def _add_counterexample(doc):
    doc["results"]["report"]["counterexamples"].append(
        {"kind": "partition", "eps": [0, 0], "upper_x": [2], "r": [1, 1], "s": [1, 1], "genus": 3, "note": ""}
    )


@pytest.mark.parametrize(
    "mutate",
    [
        _add_counterexample,
        lambda d: d["results"]["report"].__setitem__("instances_checked", d["results"]["report"]["instances_checked"] - 1),
    ],
    ids=["extra-counterexample", "wrong-instances-checked"],
)
def test_checker_rejects_a_mutated_box_report(box_outcome, reference, mutate):
    cmd, outcome = box_outcome
    assert check.check_outcome(cmd, outcome, reference) is None
    assert check.check_outcome(cmd, _mutated(outcome, mutate), reference) is not None


def _add_stats(doc):
    doc["stats"] = {"layers": {"cases": {"seconds": 0.123}}}
    doc["results"]["report"]["stats"] = {"row_sum_s": 0.01}


def test_checker_accepts_extra_report_keys(box_outcome, reference):
    cmd, outcome = box_outcome
    assert check.check_outcome(cmd, _mutated(outcome, _add_stats), reference) is None


@pytest.fixture(scope="module")
def decompose_outcome(tmp_path_factory):
    lattice, pair, bound = "U+A1", (1, 3), 4
    transform = ([2, 0, 1], [1, -1, 1])
    doc = workloads.surface_doc(lattice, pair, transform)
    path = tmp_path_factory.mktemp("decompose") / "s.json"
    path.write_text(json.dumps(doc))
    cmd = {
        "argv": ["decompose", "--surface", str(path), "--degree-bound", str(bound)],
        "check": {
            "kind": "scan",
            "command": "decompose",
            "key": workloads.scan_key(lattice, pair, bound, "decompose"),
            "surface": doc,
            "transform": transform,
        },
    }
    return cmd, _main(cmd["argv"])


def _set_unknown(delta):
    def mutate(doc):
        n = check.unknown_count(doc["warnings"]) + delta
        doc["warnings"] = [f"{n} candidate classes had Unknown effectivity and were skipped"]
    return mutate


def _drop_decomposition(doc):
    res = doc["results"]
    keep = [rec for rec in res["decompositions"] if not rec["violates"]][1:]
    keep += [rec for rec in res["decompositions"] if rec["violates"]]
    res["decompositions"], res["count"] = keep, len(keep)


def test_checker_accepts_fewer_unknowns_and_extra_keys(decompose_outcome, reference):
    cmd, outcome = decompose_outcome
    assert outcome["rc"] == 10
    assert check.check_outcome(cmd, outcome, reference) is None
    better = _mutated(outcome, lambda d: (_set_unknown(-1)(d), d.__setitem__("stats", {"scan_s": 0.5})))
    assert check.check_outcome(cmd, better, reference) is None


@pytest.mark.parametrize(
    "mutate", [_set_unknown(1), _drop_decomposition], ids=["more-unknowns", "missing-decomposition"]
)
def test_checker_rejects_a_worse_scan(decompose_outcome, reference, mutate):
    cmd, outcome = decompose_outcome
    assert check.check_outcome(cmd, _mutated(outcome, mutate), reference) is not None


def test_checker_counts_an_escaped_exception(reference):
    cmd = {"argv": ["classify"], "check": {"kind": "input-error"}}
    assert check.check_outcome(cmd, {"rc": None, "out": "", "exc": "TypeError: x"}, reference) is not None


def test_every_malformed_family_exits_2(tmp_path, reference):
    out = workloads.DocWriter(str(tmp_path))
    for kind in workloads.MALFORMED_KINDS:
        rng = _FixedChoice(kind)
        command, doc, _ = workloads.malformed_document(rng)
        cmd = {"argv": workloads.document_argv(command, doc, out), "check": {"kind": "input-error"}}
        assert check.check_outcome(cmd, _main(cmd["argv"]), reference) is None, kind


class _FixedChoice:
    """Stands in for random.Random so malformed_document builds one chosen family."""

    def __init__(self, kind):
        self.kind = kind

    def choice(self, seq):
        return self.kind

    def randint(self, lo, hi):
        return lo


def _run_bench(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_size_runs_end_to_end(workload, trace):
    proc = _run_bench(
        ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace, "--size", "smoke"], ROOT
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run_bench(["--workload", "box-verify", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
