"""In-memory span tracing around k3bn's public functions, from outside the package.

``install()`` rebinds each instrumented function in every k3bn module that
holds a reference to it (``bn.effectivity_status`` as well as
``divisors.effectivity_status``), so calls made through any import path are
seen.  Each call records a span ``[name, parent, start, end]``; ``parent`` is
the index of the enclosing span or -1.  ``GramLattice.intersect`` and
``DivClass`` construction are counted, not spanned, because they run millions
of times.

``parallel.ordered_imap`` gets a wrapper that wraps the function it is given.
In a forked pool worker the wrapped function returns the spans and counts it
recorded along with its result, and the parent adopts them under the
``parallel.imap`` span, so work done in workers appears in the same tree.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from collections import Counter

_perf = time.perf_counter

# The tracer of this process.  A forked pool worker inherits it, which is how
# the wrapped slice function finds somewhere to record.
_active = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.values = Counter()  # summed quantities: seconds, bytes
        self.pid = os.getpid()
        self.seen = set()  # (H, class) pairs asked about in the current command

    def open(self, name):
        """Start a span under the current one; returns its index."""
        self.spans.append([name, self.stack[-1] if self.stack else -1, _perf(), 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = _perf()
        self.stack.pop()

    def adopt(self, spans, counts, values, parent):
        base = len(self.spans)
        for name, p, t0, t1 in spans:
            self.spans.append([name, base + p if p >= 0 else parent, t0, t1])
        self.counts.update(counts)
        self.values.update(values)

    def new_command(self):
        self.seen.clear()


def _spanned(tracer, name, fn, after=None):
    """Wrap fn in a span; ``name`` may be a function of (args, kwargs)."""

    def wrapper(*args, **kwargs):
        sp = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sp)
        if after is not None:
            after(out, args, kwargs)
        return out

    return wrapper


def _counted(tracer, name, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TracedItem:
    """Picklable wrapper for the function passed to ``parallel.ordered_imap``.

    Returns ``(result, spans, counts, values)``; the last three are None when
    the item ran in the tracing process itself, whose spans are already in place.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        tracer = _active
        if os.getpid() == tracer.pid:
            sp = tracer.open("parallel.item")
            try:
                return self.fn(item), None, None, None
            finally:
                tracer.close(sp)
        base = len(tracer.spans)
        saved_stack, tracer.stack = tracer.stack, []
        counts_before, values_before = tracer.counts.copy(), tracer.values.copy()
        sp = tracer.open("parallel.item")
        try:
            out = self.fn(item)
        finally:
            tracer.close(sp)
            tracer.stack = saved_stack
        spans = [[n, p - base if p >= base else -1, t0, t1] for n, p, t0, t1 in tracer.spans[base:]]
        del tracer.spans[base:]
        counts = tracer.counts - counts_before
        values = tracer.values - values_before
        tracer.counts.subtract(counts)  # in place: the hooks hold these objects
        tracer.values.subtract(values)
        return out, spans, counts, values


def _rusage_children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _traced_imap(tracer, original):
    def ordered_imap(fn, items, workers, *, big_enough=0):
        mats = list(items)
        tracer.counts["parallel.imap.calls"] += 1
        tracer.counts["parallel.items"] += len(mats)
        inner = original(TracedItem(fn), mats, workers, big_enough=big_enough)
        sp = tracer.open("parallel.imap")
        cpu0, child0 = time.process_time(), _rusage_children_cpu()
        pooled = False
        try:
            while True:
                try:
                    out, spans, counts, values = next(inner)
                except StopIteration:
                    break
                if spans is not None:
                    pooled = True
                    tracer.adopt(spans, counts, values, sp)
                tracer.counts["parallel.items_consumed"] += 1
                tracer.stack.pop()
                try:
                    yield out
                finally:
                    tracer.stack.append(sp)
        finally:
            inner.close()  # leaves the pool's with-block: workers are joined
            tracer.close(sp)
            tracer.counts["parallel.pool_starts"] += pooled
            tracer.values["parallel.cpu_s"] += (
                time.process_time() - cpu0 + _rusage_children_cpu() - child0
            )
            tracer.values["parallel.wall_s"] += tracer.spans[sp][3] - tracer.spans[sp][2]

    return ordered_imap


def install():
    """Instrument the imported k3bn package; returns the Tracer."""
    global _active
    from k3bn import bn, cases, cli, divisors, lattice, mukai, parallel
    from k3bn.divisors import Effectivity

    tracer = Tracer()
    _active = tracer

    def box_label(args, kwargs):
        n = args[0]
        box = args[1] if len(args) > 1 else kwargs.get("box")
        default = box is None or box == cases.default_box(n)
        return f"cases.check.n{n}" if default else "cases.check.seeded"

    counts, values = tracer.counts, tracer.values
    status_names = {
        Effectivity.EFFECTIVE: "divisors.effective",
        Effectivity.NOT_EFFECTIVE: "divisors.not_effective",
        Effectivity.UNKNOWN: "divisors.unknown",
    }

    def after_effectivity(verdict, args, kwargs):
        pol, d = args[0], args[1]
        counts[status_names[verdict.status]] += 1
        key = (pol.h.coords, d.coords)
        if key in tracer.seen:
            counts["divisors.effectivity.repeats"] += 1
        else:
            tracer.seen.add(key)

    def after_scan(scan, args, kwargs):
        counts["bn.candidates"] += scan.candidates_scanned
        counts["bn.unknown_candidates"] += scan.unknown_candidates

    def after_box(report, args, kwargs):
        counts["cases.eps_classes"] += report.eps_classes
        counts["cases.closed_form"] += report.eps_classes_closed_form
        counts["cases.profiles_enumerated"] += report.profiles_enumerated
        values["cases.instances"] += report.instances_checked

    wrappers = {
        cli.main: _spanned(tracer, "cli.main", cli.main),
        cli.run: _spanned(tracer, "cli.run", cli.run),
        cli.parse_surface_spec: _spanned(tracer, "cli.parse_surface", cli.parse_surface_spec),
        bn.scan_decompositions: _spanned(tracer, "bn.scan", bn.scan_decompositions, after_scan),
        bn.classify_multi_decomposition: _spanned(tracer, "bn.classify", bn.classify_multi_decomposition),
        divisors.effectivity_status: _spanned(
            tracer, "divisors.effectivity", divisors.effectivity_status, after_effectivity
        ),
        divisors.h0_lower_bound: _spanned(tracer, "divisors.h0", divisors.h0_lower_bound),
        divisors.reduce_fixed_components: _spanned(
            tracer, "divisors.reduce_fixed", divisors.reduce_fixed_components
        ),
        cases.exhaustive_case_check: _spanned(
            tracer, box_label, cases.exhaustive_case_check, after_box
        ),
        cases.profile_feasible: _spanned(tracer, "cases.profile_feasible", cases.profile_feasible),
        cases.enumerate_exceptional_triples: _spanned(
            tracer, "cases.triples", cases.enumerate_exceptional_triples
        ),
        mukai.mukai_pairing: _spanned(tracer, "mukai", mukai.mukai_pairing),
        mukai.simple_bound_holds: _spanned(tracer, "mukai", mukai.simple_bound_holds),
        parallel.ordered_imap: _traced_imap(tracer, parallel.ordered_imap),
    }
    by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
    for name, module in list(sys.modules.items()):
        if name != "k3bn" and not name.startswith("k3bn."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
    lattice.GramLattice.intersect = _counted(tracer, "lattice.intersect.calls", lattice.GramLattice.intersect)
    lattice.DivClass.__post_init__ = _counted(tracer, "lattice.divclass.new", lattice.DivClass.__post_init__)
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics from the span tree


def _self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, t0, t1) in enumerate(spans):
        covered, end = 0.0, t0
        for c0, c1 in sorted((max(spans[c][2], t0), min(spans[c][3], t1)) for c in children[i]):
            if c1 <= end:
                continue
            covered += c1 - max(c0, end)
            end = c1
        out.append(t1 - t0 - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Every per-layer metric the traced pass reports, keyed by name.

    Self time of a ``parallel.item`` span (the slice function's own work)
    counts towards the layer that called ``ordered_imap``; with a pool it is
    summed over workers.  Ratios with a zero base read 0.
    """
    spans = tracer.spans
    counts, values = tracer.counts, tracer.values
    own = _self_times(spans)
    total = Counter()
    self_s = Counter()
    calls = Counter()
    owner = []  # layer span that owns each span: parallel spans inherit their caller's
    in_scan = []
    in_run = []
    h0_in_scan = h0_reverify = 0
    reverify_s = 0.0
    for i, (name, parent, t0, t1) in enumerate(spans):
        up = owner[parent] if parent >= 0 else None
        owner.append(up if name.startswith("parallel.") else name)
        in_scan.append(name == "bn.scan" or (parent >= 0 and in_scan[parent]))
        in_run.append(name == "cli.run" or (parent >= 0 and in_run[parent]))
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name if name != "parallel.item" else (up or name)] += own[i]
        if name == "divisors.h0":
            if in_scan[i]:
                h0_in_scan += 1
            elif in_run[i]:
                h0_reverify += 1
                reverify_s += t1 - t0
    pairs = h0_in_scan // 2
    candidates = counts["bn.candidates"]
    eff_calls = calls["divisors.effectivity"]
    check_s = sum(total[f"cases.check.{k}"] for k in ("n2", "n3", "n4", "seeded"))
    return {
        "cli.calls": calls["cli.main"],
        "cli.run_s": total["cli.run"],
        "cli.overhead_s": total["cli.main"] - total["cli.run"],
        "cli.parse_surface_s": total["cli.parse_surface"],
        "cli.report_bytes": values["cli.report_bytes"],
        "cli.reverify_s": reverify_s,
        "cli.input_errors": counts["cli.input_errors"],
        "cli.uncaught": counts["cli.uncaught"],
        "bn.scan.calls": calls["bn.scan"],
        "bn.scan.self_s": self_s["bn.scan"],
        "bn.candidates": candidates,
        "bn.unknown_candidates": counts["bn.unknown_candidates"],
        "bn.pairs": pairs,
        "bn.pair_yield": _ratio(pairs, candidates),
        "bn.classify.calls": calls["bn.classify"],
        "bn.classify.s": total["bn.classify"],
        "divisors.effectivity.calls": eff_calls,
        "divisors.effectivity.s": total["divisors.effectivity"],
        "divisors.effective": counts["divisors.effective"],
        "divisors.not_effective": counts["divisors.not_effective"],
        "divisors.unknown": counts["divisors.unknown"],
        "divisors.unknown_ratio": _ratio(counts["divisors.unknown"], eff_calls),
        "divisors.effectivity.repeat_ratio": _ratio(counts["divisors.effectivity.repeats"], eff_calls),
        "divisors.h0.calls": calls["divisors.h0"],
        "divisors.h0.self_s": self_s["divisors.h0"],
        "divisors.reduce_fixed.s": total["divisors.reduce_fixed"],
        "lattice.intersect.calls": counts["lattice.intersect.calls"],
        "lattice.divclass.new": counts["lattice.divclass.new"],
        "lattice.intersect.per_candidate": _ratio(counts["lattice.intersect.calls"], candidates),
        "cases.check_s.n2": total["cases.check.n2"],
        "cases.check_s.n3": total["cases.check.n3"],
        "cases.check_s.n4": total["cases.check.n4"],
        "cases.check_s.seeded": total["cases.check.seeded"],
        "cases.eps_classes": counts["cases.eps_classes"],
        "cases.closed_form": counts["cases.closed_form"],
        "cases.closed_form_ratio": _ratio(counts["cases.closed_form"], counts["cases.eps_classes"]),
        "cases.profiles_enumerated": counts["cases.profiles_enumerated"],
        "cases.instances_per_s": _ratio(values["cases.instances"], check_s),
        "cases.profile_feasible.s": total["cases.profile_feasible"],
        "cases.triples.s": total["cases.triples"],
        "parallel.imap.calls": counts["parallel.imap.calls"],
        "parallel.imap.self_s": self_s["parallel.imap"],
        "parallel.pool_starts": counts["parallel.pool_starts"],
        "parallel.items": counts["parallel.items"],
        "parallel.items_consumed": counts["parallel.items_consumed"],
        "parallel.consumed_ratio": _ratio(counts["parallel.items_consumed"], counts["parallel.items"]),
        "parallel.cpu_per_wall": _ratio(values["parallel.cpu_s"], values["parallel.wall_s"]),
        "mukai.calls": calls["mukai"],
        "mukai.s": total["mukai"],
        "trace.spans": len(spans),
    }
