"""List the ``src/k3bn`` functions that no command of the golden CLI corpus enters.

Usage, from the repository root:

    PYTHONPATH=src python tests/reach_trace.py

Every command of ``tests/fixtures/cli_corpus.json`` runs in this one process
under ``sys.setprofile``, which sees each Python function call.  The
profiler starts before ``k3bn`` is imported, so calls made while a module
loads count too.  Each command's exit code and stdout hash are checked
against the recorded ones, and every function or method defined in
``src/k3bn`` that no command entered is printed as ``module.qualname``.
Nested functions are named by the path of their definitions, as
``_short_classes.walk``: the interpreter's qualname for it,
``_short_classes.<locals>.walk``, is read without ``<locals>.``.

Tier-1 does not collect this file.  A function it lists is library-only:
either a test uses it as a reference, or the library's callers do (the
benchmark calls ``k3bn.mukai`` directly), or nothing does.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "k3bn")


def defined(path: str) -> list[str]:
    """Every function and method of one module, named by the path of its definitions."""
    out = []

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    out.append(name)
                walk(child, name + ".")
            else:
                walk(child, prefix)

    with open(path, encoding="utf-8") as fh:
        walk(ast.parse(fh.read()), "")
    return out


def main() -> int:
    sys.path.insert(0, HERE)
    import record_cli_corpus as corpus

    with open(corpus.FIXTURE, encoding="utf-8") as fh:
        commands = json.load(fh)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    moved = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        corpus.write_documents(commands["documents"], tmp)
        os.chdir(tmp)
        sys.setprofile(profile)
        try:
            from k3bn.cli import main as cli_main

            for entry in commands["commands"]:
                if corpus.run_entry(cli_main, entry) != (entry["exit"], entry["sha256"]):
                    moved.append(entry["argv"])
        finally:
            sys.setprofile(None)
            os.chdir(cwd)

    reached = {
        (os.path.basename(code.co_filename)[:-3], code.co_qualname.replace("<locals>.", ""))
        for code in entered
        if os.path.dirname(os.path.abspath(code.co_filename)) == SRC
    }
    unreached = [
        f"{module}.{name}"
        for module in sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))
        for name in defined(os.path.join(SRC, module + ".py"))
        if (module, name) not in reached
    ]
    print("\n".join(unreached))
    print(f"{len(commands['commands'])} commands, {len(moved)} outputs moved; {len(unreached)} functions unreached")
    for argv in moved:
        print("moved:", argv)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
