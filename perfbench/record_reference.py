"""Record reference.json: the program's answers over every input the generators can emit.

Usage (from the repository root): python3 perfbench/record_reference.py

The checker uses the table for verdicts it cannot recompute on its own: box
report layer counts, the decompositions a scan finds, the verdicts of
bn-check runs, and the number of Unknown candidates of every scan.  Only
those fields are stored.  Decompositions are stored in the canonical basis;
the checker maps seeded bases back before comparing.  Re-record only when a
change is meant to alter these answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import check  # noqa: E402
import workloads as wl  # noqa: E402


def _run(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


def record(directory):
    from k3bn import cli

    out = wl.DocWriter(directory)
    ref = {"box": {}, "scan": {}, "exit0": {}}
    for n, box, default in wl.box_space():
        cmd = wl.box_command(n, box, default, "ref")
        rc, doc = _run(cli, cmd["argv"])
        if rc != 0:
            raise SystemExit(f"verify-cases on {box} exited {rc}; the generator expects 0")
        report = doc["results"]["report"]
        ref["box"][wl.box_key(n, box)] = {
            "eps_classes_closed_form": report["eps_classes_closed_form"],
            "profiles_enumerated": report["profiles_enumerated"],
        }
    for lattice, ab, bound, command in wl.all_scan_plans():
        doc_in = wl.surface_doc(lattice, ab)
        rc, doc = _run(cli, [command, "--surface", out.path(doc_in), "--degree-bound", str(bound)])
        entry = {"exit": rc, "unknown": check.unknown_count(doc["warnings"])}
        if command == "bn-check":
            entry["verdict"] = doc["verdict"]
        else:
            entry["pairs"] = check.canonical_pairs(doc["results"]["decompositions"], None)
            entry["violations"] = len(doc["certificates"])
        ref["scan"][wl.scan_key(lattice, ab, bound, command)] = entry
    for gram, h, bound in wl.EXIT0_SURFACES:
        doc_in = {"name": "root-free", "gram": gram, "H": h, "roots": []}
        rc, doc = _run(cli, ["bn-check", "--surface", out.path(doc_in), "--degree-bound", str(bound)])
        if rc != 0:
            raise SystemExit(f"bn-check on {gram}, H = {h} exited {rc}; the generator expects 0")
        ref["exit0"][wl.exit0_key(gram, h, bound)] = {
            "exit": rc,
            "verdict": doc["verdict"],
            "unknown": check.unknown_count(doc["warnings"]),
        }
    return ref


def main():
    directory = os.path.join(HERE, ".work", "reference-inputs")
    ref = record(directory)
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in ref.values())} entries to {check.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
