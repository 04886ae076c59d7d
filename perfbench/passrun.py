"""One pass of a workload, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/passrun.py SPEC OUT [--trace]

Imports k3bn from ``src/`` of the current directory, sends the spec's
commands one after another to ``k3bn.cli.main`` with stdout captured (or
calls ``k3bn.mukai`` directly), checks each output right after it returns,
and writes the pass's measurements to OUT as JSON.  Only the command itself
is inside the timed region; checking is not.  With ``--trace`` the package is
instrumented first and the probe commands run after the timed ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import check  # noqa: E402  (perfbench/ is this script's directory, first on sys.path)


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _mukai_args(call, lattice, mukai):
    lat = lattice.GramLattice(tuple(tuple(row) for row in call["gram"]))
    vecs = [call["v"], call["w"]] if "w" in call else [call["v"]]
    return lat, [mukai.MukaiVector(r, lattice.DivClass(tuple(c1)), s) for r, c1, s in vecs]


def _run_one(cmd, cli, lattice, mukai):
    """Run one command; returns (outcome, seconds, cpu seconds)."""
    rc = exc = None
    buf = io.StringIO()
    c0, k0 = time.process_time(), _children_cpu()
    t0 = time.perf_counter()
    try:
        if "call" in cmd:
            call = cmd["call"]
            lat, vecs = _mukai_args(call, lattice, mukai)
            out = getattr(mukai, call["call"])(lat, *vecs)
        else:
            with contextlib.redirect_stdout(buf):
                try:
                    rc = cli.main(cmd["argv"])
                except SystemExit as e:  # argparse rejects the argv
                    rc = e.code
            out = buf.getvalue()
    except Exception as e:  # an exception escaping the program is a failed command
        exc = f"{type(e).__name__}: {e}"
        out = buf.getvalue()
    t1 = time.perf_counter()
    cpu = time.process_time() - c0 + _children_cpu() - k0
    return {"rc": rc, "out": out, "exc": exc}, t1 - t0, cpu


def main(argv):
    spec_path, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    reference = check.load_reference()

    import k3bn.cli as cli
    import k3bn.lattice as lattice
    import k3bn.mukai as mukai

    tracer = None
    if traced:
        import tracing

        tracer = tracing.install()

    latencies, failures = [], []
    wall = cpu = 0.0
    report_bytes = input_errors = uncaught = 0
    for cmd in spec["commands"]:
        if tracer is not None:
            tracer.new_command()
        outcome, seconds, cmd_cpu = _run_one(cmd, cli, lattice, mukai)
        wall += seconds
        cpu += cmd_cpu
        latencies.append(seconds * 1000.0)
        if "call" not in cmd:
            report_bytes += len(outcome["out"])
            input_errors += outcome["rc"] == 2
        uncaught += outcome["exc"] is not None
        reason = check.check_outcome(cmd, outcome, reference)
        if reason is not None:
            failures.append(f"#{cmd['id']} {cmd['family']}: {reason}")

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_ms": latencies,
        "attempted": len(spec["commands"]),
        "failed": len(failures),
        "failures": failures[:10],
    }
    if tracer is not None:
        for cmd in spec["probe"]:
            tracer.new_command()
            outcome, _, _ = _run_one(cmd, cli, lattice, mukai)
            report_bytes += len(outcome["out"])
            input_errors += outcome["rc"] == 2
            uncaught += outcome["exc"] is not None
        tracer.values["cli.report_bytes"] += report_bytes
        tracer.counts["cli.input_errors"] += input_errors
        tracer.counts["cli.uncaught"] += uncaught
        result["layers"] = tracing.layer_metrics(tracer)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["rss_mb"] = (self_rss + child_rss) / 1024.0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
