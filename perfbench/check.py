"""Output checker: recomputes every verdict it can with its own integer arithmetic.

Nothing here imports k3bn.  Certificates are re-verified from their stored
witness; box reports are checked against closed-form counts; classify,
profile-check, triples, reduce-fixed and Mukai results are recomputed from
their inputs.  Verdicts that cannot be recomputed without the search itself
("no violation found", the decompositions a scan finds, the layer counts of
a box report, the number of Unknown candidates) are compared with
``reference.json``, which ``record_reference.py`` records over the
generators' whole finite parameter space.
"""

from __future__ import annotations

import json
import os
import re
from math import gcd

from workloads import unapply_vec

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckFailed(Exception):
    """An output that does not match what the checker recomputed."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# lattice arithmetic


def dot(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _effective_by_rr(gram, h, d):
    return dot(gram, h, d) > 0 and dot(gram, d, d) >= -2


def _effective(gram, h, roots, d, coeff_bound=10):
    """Riemann-Roch, or d minus a bounded combination of roots is zero or RR-effective."""
    if any(d) and _effective_by_rr(gram, h, d):
        return True

    def rec(k, rem):
        if k == len(roots):
            return not any(rem) or _effective_by_rr(gram, h, rem)
        for c in range(coeff_bound + 1):
            if rec(k + 1, [a - c * r for a, r in zip(rem, roots[k])]):
                return True
        return False

    return bool(any(d)) and rec(0, list(d))


def h0_justified(gram, h, d):
    """Largest h^0 lower bound the class itself justifies: chi, or k + 1 on a pencil k P."""
    lb = max(dot(gram, d, d) // 2 + 2, 0)
    k = 0
    for c in d:
        k = gcd(k, abs(c))
    if k:
        p = [c // k for c in d]
        if dot(gram, p, p) == 0 and dot(gram, p, h) > 0:
            lb = max(lb, k + 1)
    return lb


def check_violation_certificate(surface, cert):
    """d1 + d2 = H, 0 < d1.H < H^2, both effective, max(chi, 0) <= lb <= justified, lb1 lb2 > g."""
    gram, h, roots = surface["gram"], surface["H"], surface.get("roots") or []
    d1, d2 = cert["d1"], cert["d2"]
    lb1, lb2, g = cert["lb1"], cert["lb2"], cert["genus"]
    _require([a + b for a, b in zip(d1, d2)] == list(h), f"d1 + d2 != H for {d1}, {d2}")
    h2 = dot(gram, h, h)
    _require(0 < dot(gram, d1, h) < h2, f"degree of d1 = {d1} outside (0, H^2)")
    _require(g == h2 // 2 + 1, f"genus {g} != H^2/2 + 1")
    for d, lb in ((d1, lb1), (d2, lb2)):
        _require(_effective(gram, h, roots, d), f"{d} is not certified effective")
        chi = dot(gram, d, d) // 2 + 2
        _require(max(chi, 0) <= lb <= h0_justified(gram, h, d), f"lb {lb} for {d} is not justified")
    _require(lb1 * lb2 > g, f"{lb1} * {lb2} <= genus {g}")


# ---------------------------------------------------------------------------
# per-kind checks
#
# Only the fields that carry a verdict are compared, and extra keys in a
# report are accepted, so per-layer stats or other new fields pass.  Counts
# that a better program may improve are checked one-sided against the
# reference: the number of Unknown candidates may fall but not rise, the
# recorded decompositions must not vanish and their lb may rise.

_UNKNOWN = re.compile(r"^(\d+) candidate classes had Unknown effectivity")


def unknown_count(warnings):
    """Unknown candidates a report declares in its warnings (0 when none)."""
    counts = [int(m.group(1)) for m in map(_UNKNOWN.match, warnings) if m]
    return sum(counts)


def _check_unknown(doc, expected):
    found = unknown_count(doc["warnings"])
    _require(found <= expected["unknown"], f"{found} Unknown candidates, the reference has {expected['unknown']}")


def _check_box(spec, rc, doc, ref):
    n, box = spec["n"], spec["box"]
    r_max, s_min, s_max, eps_max, x_min, x_max = box
    _require(rc == 0, f"exit {rc}, expected 0")
    rep = doc["results"]["report"]
    instances = (eps_max + 1) ** n * (x_max - x_min + 1) ** (n * (n - 1) // 2)
    _require(rep["n"] == n, "wrong n")
    _require(
        all(rep["box"][k] == v for k, v in zip(("r_max", "s_min", "s_max", "eps_max", "x_min", "x_max"), box)),
        "box echo differs from the requested box",
    )
    _require(rep["instances_checked"] == instances, f"instances_checked {rep['instances_checked']} != {instances}")
    _require(rep["eps_classes"] == (eps_max + 1) ** n, "eps_classes != (eps_max + 1)^n")
    _require(rep["counterexamples"] == [] and doc["certificates"] == [], "box counterexamples reported")
    _require(doc["verdict"] == f"0 counterexamples across {instances} decomposition profiles", "verdict")
    expected = ref["box"].get(spec["key"])
    _require(expected is not None, f"no reference for box {spec['key']}")
    closed, enumerated = rep["eps_classes_closed_form"], rep["profiles_enumerated"]
    _require(
        expected["eps_classes_closed_form"] <= closed <= rep["eps_classes"],
        f"{closed} eps-classes closed in closed form, the reference has {expected['eps_classes_closed_form']}",
    )
    _require(
        0 <= enumerated <= expected["profiles_enumerated"],
        f"{enumerated} profiles enumerated, the reference has {expected['profiles_enumerated']}",
    )


def canonical_pairs(records, transform):
    out = []
    for rec in records:
        d1, d2 = rec["d1"], rec["d2"]
        if transform is not None:
            d1, d2 = unapply_vec(transform, d1), unapply_vec(transform, d2)
        out.append(sorted([[d1, rec["lb1"]], [d2, rec["lb2"]]]))
    return sorted(out)


def _check_scan(spec, rc, doc, ref):
    expected = ref["scan"].get(spec["key"])
    _require(expected is not None, f"no reference for {spec['key']}")
    _require(rc == expected["exit"], f"exit {rc}, expected {expected['exit']}")
    surface = spec["surface"]
    gram, h = surface["gram"], surface["H"]
    h2 = dot(gram, h, h)
    g = h2 // 2 + 1
    for cert in doc["certificates"]:
        check_violation_certificate(surface, cert)
    _check_unknown(doc, expected)
    if spec["command"] == "bn-check":
        _require(doc["verdict"] == expected["verdict"], "verdict differs from the reference")
        _require(len(doc["certificates"]) == (1 if rc == 10 else 0), "certificate count")
        return
    records = doc["results"]["decompositions"]
    _require(doc["results"]["count"] == len(records), "count != number of decompositions")
    for rec in records:
        d1, d2 = rec["d1"], rec["d2"]
        _require([a + b for a, b in zip(d1, d2)] == list(h), f"d1 + d2 != H for {d1}, {d2}")
        _require(0 < dot(gram, d1, h) < h2, f"degree of d1 = {d1} outside (0, H^2)")
        for d, lb in ((d1, rec["lb1"]), (d2, rec["lb2"])):
            _require(lb >= max(dot(gram, d, d) // 2 + 2, 0), f"lb {lb} for {d} is below max(chi, 0)")
        _require(rec["violates"] == (rec["lb1"] * rec["lb2"] > g), "violates flag disagrees with lb1 lb2 > g")
    found = {(tuple(a[0]), tuple(b[0])): (a[1], b[1]) for a, b in canonical_pairs(records, spec["transform"])}
    for a, b in expected["pairs"]:
        lbs = found.get((tuple(a[0]), tuple(b[0])))
        _require(lbs is not None, f"decomposition {a[0]} + {b[0]} of the reference is missing")
        _require(lbs[0] >= a[1] and lbs[1] >= b[1], f"lb of {a[0]} + {b[0]} fell below the reference")
    _require(len(doc["certificates"]) >= expected["violations"], "fewer violations than the reference")


def _profile_genus(sq, x):
    n = len(sq)
    return (sum(sq) + 2 * sum(x[i][j] for i in range(n) for j in range(i + 1, n))) // 2 + 1


def _group_floor(sq, x, group):
    square = sum(sq[i] for i in group) + 2 * sum(
        x[a][b] for k, a in enumerate(group) for b in group[k + 1:]
    )
    return max(square // 2 + 2, 1)


def _splits(n):
    for mask in range(2 ** (n - 1) - 1):
        left = [0] + [k + 1 for k in range(n - 1) if mask >> k & 1]
        yield left, [i for i in range(n) if i not in left]


def expected_classification(sq):
    """('exceptional', label) or ('case', id) from the case list on sorted squares."""
    n = len(sq)
    t = sorted(sq, reverse=True)
    if n >= 5:
        return "case", "1"
    if n == 4:
        return ("exceptional", "n=4 all isotropic") if all(s == 0 for s in t) else ("case", "2")
    if t[2] >= 2:
        return "case", "3a"
    if t[1] == 0:
        return "exceptional", "n=3: D2^2 = D3^2 = 0"
    if t[1] == 2 and t[0] in (2, 4, 6):
        return "exceptional", "n=3: D1^2 in {2,4,6}, D2^2 = 2, D3^2 = 0"
    return "case", "3b" if t[1] == 2 else "3c"


def _check_classify(spec, rc, doc, ref):
    sq, x = spec["profile"]["sq"], spec["profile"]["x"]
    kind, value = expected_classification(sq)
    if kind == "exceptional":
        _require(rc == 20 and doc["results"].get("label") == value, f"expected exceptional {value!r}")
        return
    _require(rc == 10 and doc["results"].get("case_id") == value, f"expected case {value}")
    g = _profile_genus(sq, x)
    exists = any(_group_floor(sq, x, l) * _group_floor(sq, x, r) > g for l, r in _splits(len(sq)))
    _require(len(doc["certificates"]) == (1 if exists else 0), "certificate presence differs from brute force")
    for sk in doc["certificates"]:
        group, comp = sk["group"], sk["complement"]
        _require(sorted(group + comp) == list(range(len(sq))), "split is not a partition")
        _require(sk["genus"] == g, "sketch genus")
        _require(sk["lb1"] == _group_floor(sq, x, group) and sk["lb2"] == _group_floor(sq, x, comp), "sketch lb")
        _require(sk["lb1"] * sk["lb2"] > g, "sketch does not beat the genus")


def _check_profile(spec, rc, doc, ref):
    entries = spec["profile"]["entries"]
    r = [e[0] for e in entries]
    s = [e[1] for e in entries]
    eps = [e[2] for e in entries]
    n = len(entries)
    feasible = (
        all(r[i] * s[i] <= eps[i] + 1 for i in range(n))
        and all(r[i] <= sum(r[i + 1:]) for i in range(n - 1))
        and s[-1] >= 1
    )
    _require(rc == 0, f"exit {rc}")
    res = doc["results"]
    _require(
        (res["feasible"], res["sum_r"], res["sum_s"]) == (feasible, sum(r), sum(s)), "profile-check results"
    )
    _require(doc["verdict"] == ("feasible" if feasible else "infeasible"), "profile-check verdict")


def _dynkin(a1, a2, a3):
    return f"D{a1 + 3}" if (a2, a3) == (1, 1) else f"E{a1 + 4}"


def _check_triples(spec, rc, doc, ref):
    a_max = spec["a_max"]
    triples = [
        [a1, a2, a3]
        for a1 in range(1, a_max + 1)
        for a2 in range(1, a1 + 1)
        for a3 in range(1, a2 + 1)
        if a1 * a2 * a3 - a1 - a2 - a3 - 2 < 0
    ]
    _require(rc == 0, f"exit {rc}")
    _require(doc["results"]["triples"] == triples, "triples list differs from brute force")
    _require(
        doc["results"]["labeled"] == [{"triple": t, "dynkin": _dynkin(*t)} for t in triples],
        "Dynkin labels",
    )
    _require(doc["verdict"] == f"{len(triples)} exceptional triples", "triples verdict")


def _check_reduce(spec, rc, doc, ref):
    gram = spec["surface"]["gram"]
    work = [list(p) for p in spec["data"]["parts"]]
    remaining = [list(d) for d in spec["data"]["delta"]]
    while remaining:
        hit = next(
            ((i, j) for i, p in enumerate(work) for j, d in enumerate(remaining) if dot(gram, p, d) >= 1),
            None,
        )
        _require(hit is not None, "checker found no absorbing pair")
        i, j = hit
        work[i] = [a + b for a, b in zip(work[i], remaining.pop(j))]
    _require(rc == 0, f"exit {rc}")
    _require(doc["results"]["parts"] == work, "reduced parts differ from the greedy absorption")
    _require(doc["results"]["squares"] == [dot(gram, p, p) for p in work], "reduced squares")


def _check_violation(spec, rc, doc, ref):
    _require(rc == 10 and doc["verdict"] == "violation", f"exit {rc}, expected a violation")
    _require(len(doc["certificates"]) == 1, "expected one certificate")
    check_violation_certificate(spec["surface"], doc["certificates"][0])


def _check_reference(spec, rc, doc, ref):
    expected = ref["exit0"].get(spec["key"])
    _require(expected is not None, f"no reference for {spec['key']}")
    _require(rc == expected["exit"], f"exit {rc}, expected {expected['exit']}")
    _require(doc["verdict"] == expected["verdict"], "verdict differs from the reference")
    _require(doc["certificates"] == [], "certificates on a run without a violation")
    _check_unknown(doc, expected)


def _check_input_error(spec, rc, doc, ref):
    _require(rc == 2, f"exit {rc}, expected 2")
    _require(doc["verdict"] == "input error", "verdict is not 'input error'")
    _require(doc["warnings"] and all(isinstance(w, str) for w in doc["warnings"]), "no error message")


_CHECKS = {
    "box": _check_box,
    "scan": _check_scan,
    "classify": _check_classify,
    "profile": _check_profile,
    "triples": _check_triples,
    "reduce": _check_reduce,
    "violation": _check_violation,
    "reference": _check_reference,
    "input-error": _check_input_error,
}


def check_mukai(call, value):
    gram = call["gram"]
    rv, cv, sv = call["v"]
    if call["call"] == "mukai_pairing":
        rw, cw, sw = call["w"]
        _require(value == dot(gram, cv, cw) - rv * sw - rw * sv, "Mukai pairing")
    else:
        _require(value == (2 * rv * sv <= dot(gram, cv, cv) + 2), "simple-sheaf bound")


def check_outcome(cmd, outcome, ref):
    """Return None when the outcome is correct, else a one-line reason.

    ``outcome`` holds ``rc`` (exit code or None), ``out`` (captured stdout or
    the returned value of a direct call) and ``exc`` (repr of an exception
    that escaped, or None).
    """
    if outcome["exc"] is not None:
        return f"raised {outcome['exc']}"
    try:
        if "call" in cmd:
            check_mukai(cmd["call"], outcome["out"])
            return None
        try:
            doc = json.loads(outcome["out"])
        except ValueError:
            return "stdout is not JSON"
        _CHECKS[cmd["check"]["kind"]](cmd["check"], outcome["rc"], doc, ref)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return None
