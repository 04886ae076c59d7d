"""Record the golden CLI corpus, ``tests/fixtures/cli_corpus.json``.

Usage, from the repository root:

    PYTHONPATH=src python tests/record_cli_corpus.py [--spec SPEC.json ...]

The corpus pins what every command prints.  Each entry holds one command
line, the exit code of ``k3bn.cli.main`` and the SHA-256 of its stdout with
every ``elapsed_ms`` line (and the ``elapsed:`` line of ``--human``) taken
out, so that a failure names its command.  The documents a command reads are
stored inline under ``documents``, by the relative file name its argv uses;
the test writes them into an empty directory and runs each command there, so
file names in reports do not depend on where the test runs.  A document is
the file's text, ``{"repeat": [[chunk, count], ...]}`` for a long repetitive
text, or ``{"hex": ...}`` for bytes that are not UTF-8.  An entry may also
give ``stdin_hex``, the bytes read for ``--surface -``.

The hand-written groups are built below: the benchmark boxes and other
``verify-cases`` boxes, the 25 golden ``decompose`` documents (also through
``bn-check``), the refusals and input errors of ``tests/test_cli.py``, and
the paths no other group reaches: the window scan on a degenerate form and
one ``--human`` report of each command.
The ``workload:*`` groups hold the CLI commands of one seed-1 pass of each
benchmark workload, copied in once.  Without ``--spec`` they are kept as the
fixture has them; each ``--spec`` (a spec file as ``perfbench/run.py``
writes it, with its documents beside it) replaces its workload's group,
documents inlined.  Every entry is then run again and its exit code and hash
rewritten.  Re-recording changes test data: say what moved, and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "cli_corpus.json")
GOLDEN = os.path.join(HERE, "fixtures", "decompose_golden.json")

_ELAPSED = re.compile(r'^ *("elapsed_ms": |elapsed: )[^\n]*\n', re.M)

U_DOC = {"gram": [[0, 1], [1, 0]], "H": [1, 1]}
BOX_KEYS = ("r-max", "s-min", "s-max", "eps-max", "x-min", "x-max")
SEEDED_BOXES = [(r, -r, r, e, -10, xh) for r in (9, 10) for e in (10, 11) for xh in (30, 32)]


# ---------------------------------------------------------------------------
# running one entry


def document_bytes(doc) -> bytes:
    if isinstance(doc, str):
        return doc.encode("utf-8")
    if "hex" in doc:
        return bytes.fromhex(doc["hex"])
    return "".join(chunk * count for chunk, count in doc["repeat"]).encode("utf-8")


def write_documents(documents: dict, directory: str) -> None:
    for name, doc in documents.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(document_bytes(doc))


def run_entry(main, entry: dict) -> tuple[int, str]:
    """Exit code and stdout hash of one entry, run in the current directory."""
    buf = io.StringIO()
    stdin = SimpleNamespace(buffer=io.BytesIO(bytes.fromhex(entry.get("stdin_hex", ""))))
    with contextlib.redirect_stdout(buf), _swap_stdin(stdin):
        try:
            code = main(list(entry["argv"]))
        except SystemExit as exc:  # help, which argparse ends with an exit
            code = exc.code
    text = _ELAPSED.sub("", buf.getvalue())
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _swap_stdin(stdin):
    saved, sys.stdin = sys.stdin, stdin
    try:
        yield
    finally:
        sys.stdin = saved


# ---------------------------------------------------------------------------
# the hand-written groups


class _Docs:
    """Names each distinct document by its content hash, as the benchmark's writer does."""

    def __init__(self):
        self.documents: dict = {}

    def text(self, text: str) -> str:
        return self._add(text, text.encode("utf-8"))

    def json(self, payload) -> str:
        return self.text(json.dumps(payload))

    def raw(self, doc) -> str:
        return self._add(doc, document_bytes(doc))

    def _add(self, doc, data: bytes) -> str:
        name = hashlib.sha256(data).hexdigest()[:16] + ".json"
        self.documents[name] = doc
        return name


def _box_argv(n, box):
    argv = ["verify-cases", "--n", str(n)]
    for key, v in zip(BOX_KEYS, box):
        argv += [f"--{key}", str(v)]
    return argv


def box_entries():
    yield from (["verify-cases", "--n", str(n), "--default-box"] for n in (2, 3, 4))
    yield from (_box_argv(3, box) for box in SEEDED_BOXES)
    yield ["verify-cases", "--n", "3", "--eps-max", "60"]
    for eps_max in (400, 2000):
        yield _box_argv(2, (100, -100, 100, eps_max, -100, 3000))
    yield _box_argv(2, (3000, -3, 3, 300, -3, 3000))
    yield ["verify-cases", "--n", "3", "--r-max", "400", "--s-max", "3", "--eps-max", "300", "--x-max", "30000"]
    yield ["verify-cases", "--n", "2", "--r-max", "100", "--s-max", "101", "--s-min", "-5"]  # refused
    yield ["verify-cases", "--n", "4", "--eps-max", "1000000", "--r-max", "1000000"]  # never refused


def golden_entries(docs):
    with open(GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    for case in cases:
        name = docs.json(case["surface"])
        for command in ("decompose", "bn-check"):
            yield [command, "--surface", name, "--degree-bound", str(case["degree_bound"])]


def refusal_entries(docs):
    """The refusals and input errors that ``tests/test_cli.py`` runs, with their documents."""
    u = docs.json(U_DOC)
    yield {"argv": ["bn-check", "--surface", docs.text('{"gram": [[' + "2" * 5000 + ']], "H": [1]}')]}
    yield {"argv": ["bn-check", "--surface", docs.raw({"repeat": [["[", 100000], ["]", 100000]]})]}
    for roots in (False, 0, "", {}, None):
        yield {"argv": ["bn-check", "--surface", docs.json({**U_DOC, "roots": roots})]}
    yield {"argv": ["bn-check", "--surface", docs.json(
        {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "H": [1, 0, 0], "roots": [[1, 0, 0]]}
    )]}
    yield {"argv": ["bn-check", "--surface", docs.json({"gram": [[1]], "H": [1]})]}
    yield {"argv": ["classify", "--profile", docs.json({"sq": [3, 2, 0], "x": [[0, 1, 1], [2, 0, 1], [1, 1, 0]]})]}
    yield {"argv": ["profile-check", "--profile", docs.json({"entries": [[0, 1, 1], [1, 1, -1], [1, 1]]})]}
    for sq in ([-2] * 5, [0] * 3):
        yield {"argv": ["classify", "--profile", docs.json({"sq": sq, "x": [[0] * len(sq) for _ in sq]})]}
    reduce_surface = docs.json({"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]], "H": [2, 2, 1]})
    yield {"argv": ["reduce-fixed", "--surface", reduce_surface, "--data", docs.json(
        {"parts": [[1, 0, 0], [0, 1, 0], [1, 1, 0]], "delta": [[0, 0, 1]]}
    )]}
    shape_surface = docs.json({"gram": [[0, 1, 0], [1, 0, 1], [0, 1, -2]], "H": [1, 1, 1]})
    for command, payload in [
        ("classify", {"sq": 5, "x": []}),
        ("classify", {"sq": [2, 2, 2], "x": [1, 2, 3]}),
        ("classify", {"sq": [2, 2], "x": [[0, 1], [1, 0]], "h0_at_least_2": 1}),
        ("classify", {"sq": [2, 2, 0], "x": [[0, 3, 3], [3, 0, 3], [3, 3, 0]], "h0_at_least_2": ["no"] * 3}),
        ("reduce-fixed", {"parts": [1], "delta": []}),
        ("reduce-fixed", {"parts": [[1, 0, 0]], "delta": [[0, 0, "1"]]}),
        ("profile-check", {"entries": [1, 2]}),
    ]:
        doc = docs.json(payload)
        if command == "reduce-fixed":
            yield {"argv": [command, "--surface", shape_surface, "--data", doc]}
        else:
            yield {"argv": [command, "--profile", doc]}
    for argv in [
        ["verify-cases", "--n", "2", "--workers", "1"],
        ["bn-check", "--surface", u, "--degree-bound", "abc"],
        ["verify-cases", "--n", "7"],
        ["decompose"],
        ["no-such-command"],
        [],
        ["bn-check", "--surface", u, "--workers", "2"],
        ["verify-cases", "--n", "2", "--r-max", "1000000"],
        ["verify-cases", "--n", "3", "--eps-max", "1000000"],
        ["verify-cases", "--n", "2", "--r-max", "200", "--s-max", "100"],
        ["triples", "--a-max", "100000001"],
        ["triples", "--a-max", "x"],
        ["bn-check", "--surface", "missing.json"],
    ]:
        yield {"argv": argv}
    n = 22
    yield {"argv": ["classify", "--profile", docs.json(
        {"sq": [-10] * n, "x": [[int(i != j) for j in range(n)] for i in range(n)]}
    )]}
    bad = docs.raw({"hex": b"\xff{}".hex()})
    for argv in [
        ["bn-check", "--surface", bad],
        ["decompose", "--surface", bad],
        ["classify", "--profile", bad],
        ["profile-check", "--profile", bad],
        ["reduce-fixed", "--surface", u, "--data", bad],
    ]:
        yield {"argv": argv}
    for stdin in (b"\xff{}", b'{"gram": [[0, 1], [1, 0]], "H": [1, 1], "name": "\xff"}'):
        yield {"argv": ["bn-check", "--surface", "-"], "stdin_hex": stdin.hex()}


def reach_entries(docs):
    """Lines that enter code no other group does: the window scan, and ``--human`` for every command."""
    degenerate = docs.json({"gram": [[0, 1, 0], [1, 0, 0], [0, 0, 0]], "H": [1, 2, 0]})
    for command in ("bn-check", "decompose"):
        yield [command, "--surface", degenerate, "--degree-bound", "4"]
    rooted = docs.json({"gram": [[0, 1, 0], [1, 0, 1], [0, 1, -2]], "H": [1, 1, 1]})
    yield ["--human", "bn-check", "--surface", degenerate, "--degree-bound", "4"]
    yield ["--human", "decompose", "--surface", rooted, "--degree-bound", "3"]
    yield ["--human", "classify", "--profile", docs.json({"sq": [8, 2, 0], "x": [[0, 3, 3], [3, 0, 3], [3, 3, 0]]})]
    yield ["--human", "classify", "--profile", docs.json({"sq": [0, 0, 0], "x": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]})]
    yield ["--human", "verify-cases", "--n", "3"]
    yield ["--human", "triples", "--a-max", "4"]
    yield ["--human", "reduce-fixed", "--surface", rooted, "--data", docs.json(
        {"parts": [[1, 0, 0], [0, 1, 0]], "delta": [[0, 0, 1]]}
    )]
    yield ["--human", "profile-check", "--profile", docs.json({"entries": [[1, 1, 0], [1, 1, 0]]})]


# ---------------------------------------------------------------------------
# the workload groups


def spec_entries(spec_path: str, docs: _Docs):
    """The CLI commands of a benchmark spec, each document inlined by its file name."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    directory = os.path.dirname(os.path.abspath(spec_path))
    entries = []
    for cmd in spec["commands"]:
        if "argv" not in cmd:  # a direct library call, not a command line
            continue
        argv = []
        for arg in cmd["argv"]:
            path = os.path.join(directory, os.path.basename(arg))
            if os.path.dirname(arg) and os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    arg = docs.text(fh.read())
            argv.append(arg)
        entries.append({"argv": argv})
    return f"workload:{spec['workload']}", entries


def build(specs: list[str]) -> dict:
    docs = _Docs()
    groups = {
        "boxes": [{"argv": argv} for argv in box_entries()],
        "golden": [{"argv": argv} for argv in golden_entries(docs)],
        "refusals": list(refusal_entries(docs)),
        "reach": [{"argv": argv} for argv in reach_entries(docs)],
    }
    old = {"documents": {}, "commands": []}
    if os.path.exists(FIXTURE):
        with open(FIXTURE, encoding="utf-8") as fh:
            old = json.load(fh)
    for entry in old["commands"]:
        if entry["group"].startswith("workload:"):
            for arg in entry["argv"]:
                if arg in old["documents"]:
                    docs.documents[arg] = old["documents"][arg]
            groups.setdefault(entry["group"], []).append({"argv": entry["argv"]})
    for spec in specs:
        group, entries = spec_entries(spec, docs)
        groups[group] = entries
    commands = [{"group": group, **entry} for group, entries in groups.items() for entry in entries]
    return {"documents": dict(sorted(docs.documents.items())), "commands": commands}


def record(corpus: dict) -> None:
    from k3bn.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(corpus["documents"], tmp)
        os.chdir(tmp)
        try:
            for entry in corpus["commands"]:
                entry["exit"], entry["sha256"] = run_entry(main, entry)
        finally:
            os.chdir(cwd)


def _dump(corpus: dict) -> str:
    """One line per document and per command, so that a diff names what moved."""
    docs = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in corpus["documents"].items())
    cmds = ",\n".join(f"  {json.dumps(c)}" for c in corpus["commands"])
    return '{\n"documents": {\n' + docs + '\n},\n"commands": [\n' + cmds + "\n]\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", action="append", default=[], help="a benchmark spec file to copy in")
    args = parser.parse_args(argv)
    corpus = build(args.spec)
    record(corpus)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write(_dump(corpus))
    print(f"{len(corpus['commands'])} commands, {len(corpus['documents'])} documents -> {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
