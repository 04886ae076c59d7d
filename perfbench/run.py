"""k3bn benchmark: seeded workloads through k3bn.cli.main, checked and timed.

Usage, from the repository root:

    python3 perfbench/run.py --workload box-verify --seed 1 --seconds 20 --trace 0

Workloads: box-verify, lattice-scan, profile-stream (see perfbench/README.md).

--trace 0 measures the end-to-end metrics: set-up time, then passes of the
workload's command list, each in a fresh interpreter, as many as fit in
--seconds (at least one).  --trace 1 makes five passes (untraced, one
worker, traced, one worker, untraced) and reports the per-layer metrics,
the tracing overhead and the pool speed-up.  Earlier lines of stdout give the
run context and a table with sample counts; the last line is the result
object.  Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES_PER_PASS = 4
PASS_TIMEOUT_S = 170
# A timing is reported at the highest of these percentiles that leaves at
# least ten samples above it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(n):
    for p in PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            return p
    return None


def _commit(root):
    """HEAD of a git checkout, read from .git without running git; None elsewhere."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def measure_setup(root, samples):
    """Seconds each of ``samples`` fresh interpreters spends in ``import k3bn.cli``."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import k3bn.cli; print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
            timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip()))
    return out


def run_pass(root, spec_path, workers, traced=False):
    """One pass in a fresh interpreter; returns the dict passrun.py writes."""
    env = dict(os.environ, K3BN_WORKERS=str(workers))
    with tempfile.NamedTemporaryFile("r", suffix=".json", dir=os.path.dirname(spec_path)) as out:
        argv = [sys.executable, os.path.join(HERE, "passrun.py"), spec_path, out.name]
        if traced:
            argv.append("--trace")
        subprocess.run(argv, cwd=root, env=env, timeout=PASS_TIMEOUT_S, check=True)
        return json.load(out)


def _timing_row(name, unit, values):
    n = len(values)
    p = tail_percentile(n)
    tail = f"p{p:g} {percentile(values, p):.6g}" if p is not None else "no percentile with 10 samples beyond"
    return f"  {name:<16} median {statistics.median(values):.6g} {unit:<5} {tail}  (n={n})"


def end_to_end(root, spec_path, workers, seconds):
    """Passes that fit in ``seconds``, with set-up samples before each and after the last.

    Another pass starts only when one more, as long as the slowest so far,
    still ends within ``seconds``; there is always at least one.  Spreading
    the set-up samples over the run keeps a slow spell of the machine from
    landing on all of them.
    """
    measure_setup(root, 1)  # compiles the bytecode cache; not a sample
    passes, setup, rounds = [], [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started + max(rounds) <= seconds:
        t0 = time.perf_counter()
        setup += measure_setup(root, SETUP_SAMPLES_PER_PASS)
        passes.append(run_pass(root, spec_path, workers))
        rounds.append(time.perf_counter() - t0)
    setup += measure_setup(root, SETUP_SAMPLES_PER_PASS)
    return passes, setup


def main(argv=None):
    parser = argparse.ArgumentParser(description="k3bn benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'smoke' runs a tiny version of the workload, for tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "k3bn", "cli.py")) or not os.path.isfile(bench_path):
        print("perfbench: run from the repository root (src/k3bn and BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)

    workers = len(os.sched_getaffinity(0))
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{args.size}")
    spec = workloads.generate(args.workload, args.seed, workdir, args.size)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "cores": workers,
        "workers": workers,
        "python": platform.python_version(),
        "commit": _commit(root),
        "src_sha256": _src_digest(root),
        "commands_per_pass": len(spec["commands"]),
        "client": "one closed-loop client",
    }
    print(json.dumps({"context": context}))

    if args.trace:
        # untraced, one worker, traced, one worker, untraced: the order is
        # symmetric about the traced pass, so a steady drift of the machine's
        # speed cancels out of both comparisons
        plain = [run_pass(root, spec_path, workers)]
        single = [run_pass(root, spec_path, 1)]
        traced = run_pass(root, spec_path, workers, traced=True)
        single.append(run_pass(root, spec_path, 1))
        plain.append(run_pass(root, spec_path, workers))
        passes = plain + single + [traced]
        plain_wall = statistics.mean(p["wall_s"] for p in plain)
        single_wall = statistics.mean(p["wall_s"] for p in single)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - plain_wall
        values["parallel.speedup"] = single_wall / plain_wall
        declared = bench["per_layer"]
        print(f"pass wall: traced {traced['wall_s']:.4f} s, untraced {plain_wall:.4f} s (mean of 2), "
              f"one worker {single_wall:.4f} s (mean of 2)")
    else:
        passes, setup = end_to_end(root, spec_path, workers, args.seconds)
        walls = [p["wall_s"] for p in passes]
        lat = [x for p in passes for x in p["latencies_ms"]]
        cpus = [p["cpu_s"] for p in passes]
        rss = [p["rss_mb"] for p in passes]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
        }
        declared = bench["end_to_end"]
        print("end-to-end (median; tail percentile where 10 samples lie beyond it):")
        for row in (("setup_s", "s", setup), ("wall_s", "s", walls), ("cpu_s", "s", cpus),
                    ("peak_rss_mb", "MB", rss), ("call_ms", "ms", lat)):
            print(_timing_row(*row))
        # reported, not bounded: see README.md, "End-to-end metrics"
        print(f"  call_p50_ms      {statistics.median(lat):.6g} ms  call_p99_ms {percentile(lat, 99.0):.6g} ms"
              f"  (n={len(lat)})")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"  failed_ratio     {failed / attempted:.6g} ({failed} of {attempted} commands)")
    for p in passes:
        for line in p["failures"]:
            print(f"  FAILED {line}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
