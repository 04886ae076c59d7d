"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of (workload, seed, size): the same
arguments give the same command list and the same documents.  A command is
a dict with an ``argv`` for ``k3bn.cli.main`` (or a ``call`` for a direct
``k3bn.mukai`` call), a ``family`` used in reports, and a ``check`` entry
that tells the output checker what to verify.  Nothing here imports k3bn.

Seeded choices are drawn so that the cost of a pass hardly depends on the
seed: decompose inputs are re-presented in a seeded signed-permutation basis
(an isomorphic problem with the same candidate box), the seeded box comes
from a narrow family, fixed command sets run in seeded order, and the
command stream mixes thousands of short commands.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

WORKLOADS = ("box-verify", "lattice-scan", "profile-stream")
SIZES = ("full", "smoke")

# ---------------------------------------------------------------------------
# lattices (canonical bases) and their declared (-2)-curves

_U = ((0, 1), (1, 0))
_A1 = ((-2,),)
_A2 = ((-2, 1), (1, -2))
_M4 = ((-4,),)


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                gram[off + i][off + j] = v
        off += len(b)
    return [list(r) for r in gram]


def _unit(rank, i):
    return [1 if j == i else 0 for j in range(rank)]


LATTICES = {
    "U": (direct_sum(_U), []),
    "U+A1": (direct_sum(_U, _A1), [_unit(3, 2)]),
    "U+A1+A1": (direct_sum(_U, _A1, _A1), [_unit(4, 2), _unit(4, 3)]),
    "U+A2": (direct_sum(_U, _A2), [_unit(4, 2), _unit(4, 3)]),
    "U+A1+<-4>^2": (direct_sum(_U, _A1, _M4, _M4), [_unit(5, 2)]),
}

# Polarizations H = a e + b f for the two cheap lattices.
SMALL_AB = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (1, 5), (2, 5))

# (lattice, polarizations, degree bound, command): each entry takes a seeded
# polarization from its tuple.  Decompose inputs are presented in a seeded
# signed-permutation basis, which leaves the work unchanged.  bn-check inputs
# stay canonical, because a basis change moves the first violation in scan
# order and with it the cost of an early exit.
SCAN_PLAN = (
    ("U", SMALL_AB, 10, "decompose"),
    ("U", SMALL_AB, 10, "bn-check"),
    ("U+A1", SMALL_AB, 10, "decompose"),
    ("U+A1", SMALL_AB, 10, "bn-check"),
    ("U+A1+A1", ((1, 2),), 4, "decompose"),
    ("U+A1+A1", ((1, 2),), 4, "bn-check"),
    ("U+A2", ((1, 2),), 4, "decompose"),
    ("U+A2", ((1, 2),), 4, "bn-check"),
    ("U+A1+<-4>^2", ((1, 3),), 6, "bn-check"),
)
SMOKE_SCAN_PLAN = (
    ("U", SMALL_AB, 6, "decompose"),
    ("U", SMALL_AB, 6, "bn-check"),
    ("U+A1", SMALL_AB, 4, "decompose"),
    ("U+A1", SMALL_AB, 4, "bn-check"),
)


def scan_key(lattice, ab, bound, command):
    return f"{lattice}|{ab[0]},{ab[1]}|{bound}|{command}"


def scan_space(plan=SCAN_PLAN):
    """Every (lattice, (a, b), bound, command) the lattice-scan generator can emit."""
    for lattice, pairs, bound, command in plan:
        for pair in pairs:
            yield lattice, tuple(pair), bound, command


def random_transform(rng, rank):
    """A signed permutation (perm, signs): new coordinate i = signs[i] * old[perm[i]]."""
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    return perm, signs


def apply_vec(transform, v):
    perm, signs = transform
    return [signs[i] * v[perm[i]] for i in range(len(perm))]


def unapply_vec(transform, w):
    perm, signs = transform
    v = [0] * len(perm)
    for i, p in enumerate(perm):
        v[p] = signs[i] * w[i]
    return v


def apply_gram(transform, gram):
    perm, signs = transform
    n = len(perm)
    return [[signs[i] * signs[j] * gram[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def surface_doc(lattice, ab, transform=None):
    gram, roots = LATTICES[lattice]
    h = [ab[0], ab[1]] + [0] * (len(gram) - 2)
    if transform is not None:
        gram = apply_gram(transform, gram)
        h = apply_vec(transform, h)
        roots = [apply_vec(transform, r) for r in roots]
    return {"name": lattice, "gram": gram, "H": h, "roots": [list(r) for r in roots]}


# ---------------------------------------------------------------------------
# boxes: the default boxes for n = 2, 3, 4 and one non-default n = 3 box
# drawn per seed from a narrow family of equal-sized boxes.


BOX_KEYS = ("r_max", "s_min", "s_max", "eps_max", "x_min", "x_max")
DEFAULT_BOXES = {
    2: (12, -12, 12, 12, -12, 40),
    3: (8, -8, 8, 8, -8, 24),
    4: (8, -8, 8, 8, -8, 24),
}
SEEDED_BOXES = [
    (r, -r, r, e, -10, xh) for r in (9, 10) for e in (10, 11) for xh in (30, 32)
]


def box_key(n, box):
    return f"{n}|" + ",".join(str(v) for v in box)


def box_space():
    """Every (n, box, default?) the box-verify generator can emit."""
    for n in (2, 3, 4):
        yield n, DEFAULT_BOXES[n], True
    for box in SEEDED_BOXES:
        yield 3, box, False


def box_command(n, box, default, label):
    argv = ["verify-cases", "--n", str(n)]
    if default:
        argv.append("--default-box")
    else:
        for key, v in zip(BOX_KEYS, box):
            argv += [f"--{key.replace('_', '-')}", str(v)]
    return {
        "family": f"verify-cases/{label}",
        "argv": argv,
        "check": {"kind": "box", "n": n, "box": list(box), "key": box_key(n, box)},
    }


# ---------------------------------------------------------------------------
# profile-stream families

# Root-free rank-2 and rank-3 lattices on which bn-check finds no violation
# at the stated degree bound; their verdict is taken from the reference table.
EXIT0_SURFACES = [
    ([[2, 1], [1, -2]], [1, 0], 4),
    ([[2, 1], [1, -6]], [2, 1], 4),
    ([[2, 2], [2, -6]], [2, 1], 4),
    ([[2, 3], [3, -2]], [1, 1], 4),
    ([[2, 3], [3, -8]], [2, 1], 4),
    ([[4, 1], [1, -6]], [2, 1], 4),
    ([[4, 2], [2, -8]], [2, 1], 4),
    ([[4, 3], [3, -2]], [1, 1], 4),
    ([[2, 1, 0], [1, -2, 0], [0, 0, -2]], [1, 0, 0], 3),
    ([[2, 1, 0], [1, -4, 0], [0, 0, -4]], [1, 0, 0], 3),
    ([[4, 1, 0], [1, -2, 0], [0, 0, -2]], [1, 1, 0], 3),
    ([[4, 1, 0], [1, -2, 0], [0, 0, -2]], [1, 0, 1], 3),
    ([[4, 1, 0], [1, -4, 0], [0, 0, -6]], [1, 0, 0], 3),
]


def exit0_key(gram, h, bound):
    return json.dumps([gram, h, bound])


# The families of the profile-stream.  The mix is synthetic, not observed
# traffic: no usage data exists, so every family gets an equal share.
STREAM_FAMILIES = (
    "classify",
    "profile-check",
    "triples",
    "reduce-fixed",
    "bn-check-u",
    "bn-check-exit0",
    "mukai",
    "malformed",
)
STREAM_LENGTH = {"full": 3000, "smoke": 120}


def _classify_doc(rng):
    n = rng.randint(3, 8)
    lo = 0 if n <= 4 else -2
    sq = [2 * rng.randint(lo // 2, 4) for _ in range(n)]
    x = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x[i][j] = x[j][i] = rng.randint(0, 4)
    return {"sq": sq, "x": x}


def _profile_doc(rng):
    n = rng.randint(2, 4)
    return {"entries": [[rng.randint(1, 4), rng.randint(-2, 4), rng.randint(0, 6)] for _ in range(n)]}


def _reduce_docs(rng):
    """U + A1 with H = a e + b f, parts P1 = (x, y, c), P2 = H - P1 - c(-R), delta = c copies of -R."""
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    x, y = rng.randint(1, a - 1), rng.randint(1, b - 1)
    c = rng.randint(1, 3)
    while x * y < c * c - 1:
        c -= 1
    surface = surface_doc("U+A1", (a, b))
    data = {"parts": [[x, y, c], [a - x, b - y, 0]], "delta": [[0, 0, -1]] * c}
    return surface, data


def _mukai_call(rng):
    lattice = rng.choice(("U", "U+A1"))
    gram = LATTICES[lattice][0]
    rank = len(gram)

    def vec():
        return [rng.randint(-3, 3), [rng.randint(-4, 4) for _ in range(rank)], rng.randint(-3, 3)]

    if rng.random() < 0.5:
        return {"call": "mukai_pairing", "gram": gram, "v": vec(), "w": vec()}
    return {"call": "simple_bound_holds", "gram": gram, "v": vec()}


# Malformed documents.  Every family here exits 2 with a JSON error report at
# the commit the reference table was recorded from.
def malformed_document(rng):
    """(command, document, kind) for one malformed input."""
    good = surface_doc("U", (1, 2))
    kind = rng.choice(MALFORMED_KINDS)
    docs = {
        "not-json": ("bn-check", "{not json"),
        "not-object": ("bn-check", [1, 2]),
        "no-gram": ("bn-check", {k: v for k, v in good.items() if k != "gram"}),
        "odd-diagonal": ("bn-check", {**good, "gram": [[1, 1], [1, 0]]}),
        "asymmetric": ("bn-check", {**good, "gram": [[0, 1], [2, 0]]}),
        "h-length": ("decompose", {**good, "H": [1, 2, 3]}),
        "root-square": ("bn-check", {**good, "roots": [[1, 1]]}),
        "h-square": ("bn-check", {**good, "H": [1, -rng.randint(1, 5)]}),
        "classify-missing-x": ("classify", {"sq": [2, 2, 2]}),
        "classify-odd-square": ("classify", {"sq": [3, 2, 0], "x": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}),
        "classify-two-parts": ("classify", {"sq": [2, 2], "x": [[0, 1], [1, 0]]}),
        "profile-missing-entries": ("profile-check", {"rows": []}),
        "profile-zero-rank": ("profile-check", {"entries": [[0, 1, 1], [1, 1, 1]]}),
        "reduce-bad-sum": ("reduce-fixed", {"parts": [[1, 0, 0]], "delta": []}),
    }
    command, doc = docs[kind]
    return command, doc, kind


def document_argv(command, doc, out):
    """argv that hands one document to a command; reduce-fixed gets a valid surface."""
    if command in ("bn-check", "decompose"):
        return [command, "--surface", out.path(doc)]
    if command == "reduce-fixed":
        return [command, "--surface", out.path(surface_doc("U+A1", (2, 3))), "--data", out.path(doc)]
    return [command, "--profile", out.path(doc)]


MALFORMED_KINDS = (
    "not-json",
    "not-object",
    "no-gram",
    "odd-diagonal",
    "asymmetric",
    "h-length",
    "root-square",
    "h-square",
    "classify-missing-x",
    "classify-odd-square",
    "classify-two-parts",
    "profile-missing-entries",
    "profile-zero-rank",
    "reduce-bad-sum",
)

# Shapes that escape cli.main as a TypeError traceback at the seed commit.
# They run only in the traced pass of profile-stream and are counted in
# cli.uncaught there, so the defect stays visible without a failing
# operation in the timed workload.
KNOWN_TRACEBACKS = (
    ("classify", {"sq": 5, "x": []}),
    ("classify", {"sq": [2, 2, 2], "x": [1, 2, 3]}),
    ("reduce-fixed", {"parts": [1], "delta": []}),
)


# ---------------------------------------------------------------------------
# writing documents and building command lists


class DocWriter:
    """Writes each distinct document once, named by its content hash."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path(self, doc) -> str:
        text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
        name = hashlib.sha256(text.encode()).hexdigest()[:16] + ".json"
        path = os.path.join(self.directory, name)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return path


def _box_verify(rng, size, out):
    cmds = [
        box_command(2, DEFAULT_BOXES[2], True, "n2"),
        box_command(3, DEFAULT_BOXES[3], True, "n3"),
        box_command(3, rng.choice(SEEDED_BOXES), False, "seeded"),
    ]
    if size == "full":
        cmds.append(box_command(4, DEFAULT_BOXES[4], True, "n4"))
    rng.shuffle(cmds)
    return cmds


def _lattice_scan(rng, size, out):
    plan = SCAN_PLAN if size == "full" else SMOKE_SCAN_PLAN
    cmds = []
    for lattice, pairs, bound, command in plan:
        pair = rng.choice(pairs)
        transform = None
        if command == "decompose":
            transform = random_transform(rng, len(LATTICES[lattice][0]))
        doc = surface_doc(lattice, pair, transform)
        cmds.append({
            "family": f"{command}/{lattice}",
            "argv": [command, "--surface", out.path(doc), "--degree-bound", str(bound)],
            "check": {
                "kind": "scan",
                "command": command,
                "key": scan_key(lattice, pair, bound, command),
                "surface": doc,
                "transform": transform,
            },
        })
    rng.shuffle(cmds)
    return cmds


def _stream_command(rng, family, out):
    if family == "classify":
        doc = _classify_doc(rng)
        return {"argv": ["classify", "--profile", out.path(doc)], "check": {"kind": "classify", "profile": doc}}
    if family == "profile-check":
        doc = _profile_doc(rng)
        return {"argv": ["profile-check", "--profile", out.path(doc)], "check": {"kind": "profile", "profile": doc}}
    if family == "triples":
        a_max = rng.randint(1, 60)
        return {"argv": ["triples", "--a-max", str(a_max)], "check": {"kind": "triples", "a_max": a_max}}
    if family == "reduce-fixed":
        surface, data = _reduce_docs(rng)
        return {
            "argv": ["reduce-fixed", "--surface", out.path(surface), "--data", out.path(data)],
            "check": {"kind": "reduce", "surface": surface, "data": data},
        }
    if family == "bn-check-u":
        doc = surface_doc("U", (1, rng.randint(1, 12)))
        bound = rng.randint(3, 6)
        return {
            "argv": ["bn-check", "--surface", out.path(doc), "--degree-bound", str(bound)],
            "check": {"kind": "violation", "surface": doc},
        }
    if family == "bn-check-exit0":
        gram, h, bound = rng.choice(EXIT0_SURFACES)
        doc = {"name": "root-free", "gram": gram, "H": h, "roots": []}
        return {
            "argv": ["bn-check", "--surface", out.path(doc), "--degree-bound", str(bound)],
            "check": {"kind": "reference", "key": exit0_key(gram, h, bound)},
        }
    if family == "mukai":
        call = _mukai_call(rng)
        return {"call": call, "check": {"kind": "mukai"}}
    if family == "malformed":
        command, doc, kind = malformed_document(rng)
        return {"argv": document_argv(command, doc, out), "check": {"kind": "input-error", "malformed": kind}}
    raise ValueError(f"unknown family {family!r}")


def _profile_stream(rng, size, out):
    per_family = STREAM_LENGTH[size] // len(STREAM_FAMILIES)
    families = [family for family in STREAM_FAMILIES for _ in range(per_family)]
    rng.shuffle(families)
    cmds = []
    for family in families:
        cmd = _stream_command(rng, family, out)
        cmd["family"] = family
        cmds.append(cmd)
    return cmds


def known_traceback_commands(out):
    return [
        {"family": "known-traceback", "argv": document_argv(command, doc, out), "check": {"kind": "input-error"}}
        for command, doc in KNOWN_TRACEBACKS
    ]


_GENERATORS = {
    "box-verify": _box_verify,
    "lattice-scan": _lattice_scan,
    "profile-stream": _profile_stream,
}


def generate(workload: str, seed: int, directory: str, size: str = "full") -> dict:
    """Write the documents for one workload and return its spec.

    The spec holds the timed command list and, for profile-stream, the
    probe list of known traceback shapes that only the traced pass runs.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = DocWriter(directory)
    commands = _GENERATORS[workload](rng, size, out)
    for i, cmd in enumerate(commands):
        cmd["id"] = i
    probe = known_traceback_commands(out) if workload == "profile-stream" else []
    return {"workload": workload, "seed": seed, "size": size, "commands": commands, "probe": probe}


def all_scan_plans():
    return itertools.chain(scan_space(SCAN_PLAN), scan_space(SMOKE_SCAN_PLAN))
