"""Print what each module on the CLI's start path costs to compile.

Usage, from the repository root:

    python tests/start_cost.py [PACKAGE_DIR ...]

Each PACKAGE_DIR is a ``k3bn`` package directory (default ``src/k3bn``);
give two, such as a checkout of the parent commit and this one, to compare
them.  For each module that every command's start compiles (``__init__``,
``cli``, ``bn``, ``cases``, ``divisors``, ``lattice``, ``errors``) it prints
the code lines, that is the lines holding a token other than a comment that
are not part of a docstring, and the median of 41 in-process ``compile()``
calls of the module's source.  The calls are interleaved over every module
of every directory, so a drift of the machine's speed is shared by all.

Tier-1 does not collect this file.
"""

from __future__ import annotations

import ast
import io
import os
import statistics
import sys
import time
import tokenize

MODULES = ("__init__", "cli", "bn", "cases", "divisors", "lattice", "errors")
ROUNDS = 41
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines holding a token other than a comment, less those of docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    dirs = argv or [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "k3bn")]
    sources = {}
    for d in dirs:
        for module in MODULES:
            path = os.path.join(d, module + ".py")
            with open(path, encoding="utf-8") as fh:
                sources[d, module] = (path, fh.read())
    times = {key: [] for key in sources}
    for _ in range(ROUNDS):
        for key, (path, source) in sources.items():
            started = time.perf_counter()
            compile(source, path, "exec", dont_inherit=True)
            times[key].append(time.perf_counter() - started)
    for d in dirs:
        print(d)
        print(f"  {'module':<10} {'lines':>6} {'code lines':>11} {'compile ms':>11}")
        total = [0, 0, 0.0]
        for module in MODULES:
            source = sources[d, module][1]
            row = (source.count("\n"), code_lines(source), statistics.median(times[d, module]) * 1000)
            total = [a + b for a, b in zip(total, row)]
            print(f"  {module:<10} {row[0]:>6} {row[1]:>11} {row[2]:>11.2f}")
        print(f"  {'total':<10} {total[0]:>6} {total[1]:>11} {total[2]:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
