"""Print where ``bn._certificate_scan`` spends its time on the lattice-scan decompose inputs.

Usage, from the repository root:

    python tests/scan_stages.py [SRC_DIR ...]

Each SRC_DIR holds a ``k3bn`` package (default ``src`` of this checkout);
give two, such as a checkout of the parent commit and this one, to compare
them.  The inputs are the decompose entries of ``SCAN_PLAN`` in
``perfbench/workloads.py``, in the canonical basis, each at its degree bound.
For each input the scan is split into five stages:

- enumerate X: time in ``x_classes``;
- build S: time in ``_shape_classes`` less that;
- settle S: time in ``_shape_verdicts``, and in advancing the rows it
  yields where it is a generator, less the two above;
- count the rest: the rest of the call, that is ``_window_counts``, the
  verdicts of the classes outside S and the loop's own bookkeeping;
- record pairs: time in ``_record_pair`` (a checkout that takes the h^0
  floors and builds the classes before the call counts those under the
  rest).

The stages are timed by rebinding those functions in ``bn`` to timing
wrappers, which add a little to each.  Every round runs each SRC_DIR in a
fresh interpreter, in alternating order, and takes the median of REPEATS
warm calls per input; the table prints the median over ROUNDS rounds, in
milliseconds.

Tier-1 does not collect this file.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 11
REPEATS = 15
STAGES = ("enumerate X", "build S", "settle S", "count the rest", "record pairs", "total")

_CHILD = r"""
import json, statistics, sys, time, types
sys.path.insert(0, sys.argv[1])
from k3bn import bn
from k3bn.divisors import RootSet
from k3bn.lattice import DivClass, GramLattice, QuasiPolarization

clock = time.perf_counter
spent = dict.fromkeys(("x", "s", "v", "p"), 0.0)


def timed(key, fn):
    def wrapper(*args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            spent[key] += clock() - t0
    return wrapper


def timed_rows(rows):
    while True:
        t0 = clock()
        row = next(rows, None)
        spent["v"] += clock() - t0
        if row is None:
            return
        yield row


def timed_verdicts(fn):
    def wrapper(*args):
        t0 = clock()
        out = fn(*args)
        spent["v"] += clock() - t0
        return timed_rows(out) if isinstance(out, types.GeneratorType) else out
    return wrapper


bn.x_classes = timed("x", bn.x_classes)
bn._shape_classes = timed("s", bn._shape_classes)
bn._shape_verdicts = timed_verdicts(bn._shape_verdicts)
bn._record_pair = timed("p", bn._record_pair)
out = []
for gram, h, roots, bound in json.loads(sys.argv[2]):
    pol = QuasiPolarization(GramLattice(tuple(map(tuple, gram))), DivClass(tuple(h)))
    root_set = RootSet(pol, tuple(DivClass(tuple(r)) for r in roots))
    samples = []
    for _ in range(1 + int(sys.argv[3])):
        for key in spent:
            spent[key] = 0.0
        t0 = clock()
        bn._certificate_scan(pol, root_set, bound)
        total = clock() - t0
        x, s, v, p = spent["x"], spent["s"], spent["v"], spent["p"]
        samples.append((x, s - x, v - s, total - v - p, p, total))
    out.append([statistics.median(col) for col in zip(*samples[1:])])
print(json.dumps(out))
"""


def inputs() -> list[tuple[str, list]]:
    """(label, [gram, H, roots, degree bound]) for each decompose input of the lattice-scan plan."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    out = []
    for lattice, ab, bound, command in workloads.scan_space():
        if command == "decompose":
            doc = workloads.surface_doc(lattice, ab)
            label = f"{lattice} H=({ab[0]},{ab[1]}) b={bound}"
            out.append((label, [doc["gram"], doc["H"], doc["roots"], bound]))
    return out


def main(argv: list[str]) -> int:
    dirs = argv or [os.path.join(ROOT, "src")]
    cases = inputs()
    payload = json.dumps([case for _, case in cases])
    runs = {d: [] for d in dirs}
    for r in range(ROUNDS):
        for d in dirs if r % 2 == 0 else dirs[::-1]:
            child = [sys.executable, "-c", _CHILD, os.path.abspath(d), payload, str(REPEATS)]
            runs[d].append(json.loads(subprocess.run(child, capture_output=True, text=True, check=True).stdout))
    totals = {}
    for d in dirs:
        print(d)
        print(f"  {'input':<28}" + "".join(f"{name:>15}" for name in STAGES))
        table = [
            [1000 * statistics.median(run[i][k] for run in runs[d]) for k in range(len(STAGES))]
            for i in range(len(cases))
        ]
        for (label, _), row in zip(cases, table):
            print(f"  {label:<28}" + "".join(f"{x:>15.3f}" for x in row))
        totals[d] = [sum(col) for col in zip(*table)]
        print(f"  {'sum':<28}" + "".join(f"{x:>15.3f}" for x in totals[d]))
    if len(dirs) > 1:
        base = totals[dirs[0]]
        for d in dirs[1:]:
            change = (f"{100 * (x / b - 1):+.1f} %" if b else "-" for x, b in zip(totals[d], base))
            print(f"{d} against {dirs[0]}:")
            print(f"  {'sum':<28}" + "".join(f"{c:>15}" for c in change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
