"""The hand-written value and report classes behave as the dataclasses they replace.

Each class is checked against a reference built by ``dataclasses.make_dataclass``
from the field list the class was once declared with: the constructor's
arguments and defaults, equality and hashing over the compared fields only,
frozenness, repr, and pickling.
"""

import copy
import dataclasses
import inspect
import pickle
from collections import Counter

import pytest

from k3bn.bn import DecompositionScan, PairRecord, ViolationCertificate
from k3bn.cases import Box, BoxReport, FiltrationProfile
from k3bn.divisors import Effectivity, EffectivityVerdict, RootSet
from k3bn.errors import Frozen
from k3bn.lattice import DivClass, GramLattice, QuasiPolarization
from k3bn.mukai import MukaiVector
from k3bn.profiles import CertificateSketch, DecompositionProfile, ExceptionalProfile, NotBNGeneral
from box_reference import BoxCounterexample
from library_reference import IncompatiblePair, SameEllipticPencil, SumSquareAtLeastFour

MISSING = dataclasses.MISSING
DERIVED = {"init": False, "compare": False, "repr": False}
HIDDEN = {"compare": False, "repr": False}


def f(name, default=MISSING, *, factory=MISSING, **flags):
    return name, object, dataclasses.field(default=default, default_factory=factory, **flags)


# (frozen, fields) as the dataclass declared them
DECLARED = {
    DivClass: (True, [f("coords")]),
    GramLattice: (True, [f("gram")]),
    QuasiPolarization: (True, [f("lattice"), f("h"), f("h_covector", **DERIVED)]),
    RootSet: (
        True,
        [f("pol", **HIDDEN), f("roots", ())]
        + [f(name, **DERIVED) for name in ("covectors", "degrees", "products", "contracted")],
    ),
    EffectivityVerdict: (True, [f("status"), f("witness"), f("combination", None), f("rule", "")]),
    SameEllipticPencil: (True, [f("n1"), f("n2")]),
    SumSquareAtLeastFour: (True, [f("total_square")]),
    IncompatiblePair: (True, [f("reason")]),
    DecompositionProfile: (True, [f("sq"), f("x")]),
    ViolationCertificate: (True, [f(name) for name in ("d1", "d2", "lb1", "lb2", "genus")]),
    CertificateSketch: (
        True,
        [f(name) for name in ("lb1", "lb2", "genus", "split")]
        + [f("group", None), f("complement", None), f("detail", "")],
    ),
    PairRecord: (True, [f(name) for name in ("d1", "d2", "lb1", "lb2", "violates")]),
    DecompositionScan: (
        False,
        [
            f("violations", factory=list),
            f("pairs", factory=list),
            f("candidates_scanned", 0),
            f("verdicts", factory=Counter),
            f("window_classes", None),
            f("x_h", False),
        ],
    ),
    NotBNGeneral: (True, [f("case_id"), f("certificate"), f("note", None)]),
    ExceptionalProfile: (True, [f("label")]),
    FiltrationProfile: (True, [f("entries")]),
    Box: (True, [f(name) for name in ("r_max", "s_min", "s_max", "eps_max", "x_min", "x_max")]),
    BoxCounterexample: (True, [f(name) for name in ("eps", "upper_x", "r", "s", "genus")] + [f("note", "")]),
    BoxReport: (
        False,
        [
            f(name)
            for name in (
                "n", "box", "instances_checked", "counterexamples", "elapsed_ms", "eps_classes",
                "eps_classes_closed_form", "profiles_enumerated", "cross_checks", "stats",
            )
        ],
    ),
    MukaiVector: (True, [f("r"), f("c1"), f("s")]),
}


def _samples():
    """Keyword arguments of one valid instance of every class."""
    gram = ((0, 1, 0), (1, 0, 0), (0, 0, -2))
    lat = GramLattice(gram)
    h, e, r = DivClass((1, 2, 0)), DivClass((1, 0, 0)), DivClass((0, 0, 1))
    pol = QuasiPolarization(lat, h)
    roots = RootSet(pol, (r,))
    sketch = CertificateSketch(2, 2, 3, "{1} | {2}", (0,), (1,), "partial-sum h0 floors")
    box = Box(1, -1, 1, 0, 0, 1)
    return {
        DivClass: {"coords": (1, 2, 0)},
        GramLattice: {"gram": gram},
        QuasiPolarization: {"lattice": lat, "h": h},
        RootSet: {"pol": pol, "roots": (r,)},
        EffectivityVerdict: {
            "status": Effectivity.EFFECTIVE, "witness": "peeled", "combination": (1,), "rule": "peeling",
        },
        SameEllipticPencil: {"n1": 2, "n2": 3},
        SumSquareAtLeastFour: {"total_square": 8},
        IncompatiblePair: {"reason": "positive product"},
        DecompositionProfile: {"sq": (2, 0), "x": ((0, 1), (1, 0))},
        ViolationCertificate: {"d1": e, "d2": h - e, "lb1": 2, "lb2": 2, "genus": 3},
        CertificateSketch: {
            "lb1": 2, "lb2": 2, "genus": 3, "split": "{1} | {2}", "group": (0,), "complement": (1,), "detail": "d",
        },
        PairRecord: {"d1": e, "d2": h - e, "lb1": 2, "lb2": 2, "violates": True},
        DecompositionScan: {
            "violations": [], "pairs": [], "candidates_scanned": 4, "verdicts": Counter(a=1),
            "window_classes": 9, "x_h": True,
        },
        NotBNGeneral: {"case_id": "3a", "certificate": sketch, "note": "a note"},
        ExceptionalProfile: {"label": "n=4 all isotropic"},
        FiltrationProfile: {"entries": ((1, 1, 0), (1, 1, 0))},
        Box: {"r_max": 1, "s_min": -1, "s_max": 1, "eps_max": 0, "x_min": 0, "x_max": 1},
        BoxCounterexample: {"eps": (0, 0), "upper_x": (2,), "r": (1, 1), "s": (1, 1), "genus": 3, "note": "n"},
        BoxReport: {
            "n": 2, "box": box, "instances_checked": 10, "counterexamples": [], "elapsed_ms": 1.5, "eps_classes": 1,
            "eps_classes_closed_form": 1, "profiles_enumerated": 0, "cross_checks": ["c"], "stats": {"swept": 0},
        },
        MukaiVector: {"r": 1, "c1": e, "s": 1},
    }


SAMPLES = _samples()
CLASSES = list(DECLARED)
FROZEN = [cls for cls in CLASSES if DECLARED[cls][0]]
VALIDATED = [cls for cls in CLASSES if "__post_init__" in vars(cls)]


def _fields(cls):
    return [(name, fld) for name, _, fld in DECLARED[cls][1]]


def _reference(cls, obj):
    """The declared dataclass, holding the field values of ``obj``."""
    frozen, fields = DECLARED[cls]
    ref_cls = dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen)
    ref = ref_cls(**{name: getattr(obj, name) for name, fld in _fields(cls) if fld.init})
    for name, fld in _fields(cls):
        if not fld.init:
            object.__setattr__(ref, name, getattr(obj, name))
    return ref


def _build(cls):
    return cls(**SAMPLES[cls])


def test_every_class_is_declared_and_sampled():
    assert set(SAMPLES) == set(DECLARED)
    assert len(DECLARED) == 20
    assert set(Frozen.__subclasses__()) == set(FROZEN)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_takes_the_declared_arguments(cls):
    ref = dataclasses.make_dataclass(cls.__name__, DECLARED[cls][1])
    ours, theirs = inspect.signature(cls).parameters, inspect.signature(ref).parameters
    assert list(ours) == list(theirs)
    required = {}
    for name, fld in _fields(cls):
        if not fld.init:
            continue
        assert ours[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if fld.default_factory is not MISSING:
            assert ours[name].default is None
        else:
            assert ours[name].default == theirs[name].default
            if fld.default is MISSING:
                required[name] = SAMPLES[cls][name]
    # omitted arguments take the declared defaults, a fresh list or dict each time
    a, b = cls(**required), cls(**required)
    for name, fld in _fields(cls):
        if fld.default_factory is not MISSING:
            assert getattr(a, name) == fld.default_factory() and getattr(a, name) is not getattr(b, name)
        elif fld.init and fld.default is not MISSING:
            assert getattr(a, name) == fld.default
    # positional arguments bind in the declared order
    positional = [SAMPLES[cls][name] for name, fld in _fields(cls) if fld.init]
    assert cls(*positional) == _build(cls)
    for name, fld in _fields(cls):
        if not fld.init:
            with pytest.raises(TypeError):
                cls(**SAMPLES[cls], **{name: getattr(a, name)})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_reads_the_compared_fields_of_one_class(cls):
    obj, twin = _build(cls), _build(cls)
    assert obj == twin and obj is not twin and not obj != twin
    for name, fld in _fields(cls):
        other = _build(cls)
        object.__setattr__(other, name, object())
        if fld.compare:
            assert obj != other and other != obj
        else:
            assert obj == other
            if DECLARED[cls][0]:
                assert hash(obj) == hash(other)
    compared = tuple(getattr(obj, name) for name, fld in _fields(cls) if fld.compare)
    # the same values in another class, or in a tuple, are not equal
    assert obj != _reference(cls, obj) and obj != compared
    assert obj.__eq__(compared) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_compared_fields(cls):
    obj = _build(cls)
    if not DECLARED[cls][0]:
        assert cls.__hash__ is None and type(_reference(cls, obj)).__hash__ is None
        return
    compared = tuple(getattr(obj, name) for name, fld in _fields(cls) if fld.compare)
    assert hash(obj) == hash(compared) == hash(_reference(cls, obj))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozen_classes_refuse_assignment(cls):
    obj = _build(cls)
    for name, _ in _fields(cls):
        value = getattr(obj, name)
        if DECLARED[cls][0]:
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        else:
            setattr(obj, name, value)
    if DECLARED[cls][0]:
        with pytest.raises(AttributeError):
            obj.undeclared = 1


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_value_classes_print_as_the_dataclass_did(cls):
    obj = _build(cls)
    if cls is DivClass:  # its own repr, which the dataclass kept
        assert repr(obj) == "DivClass(1, 2, 0)"
    else:
        assert repr(obj) == repr(_reference(cls, obj))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_instances_survive_pickle_and_copy(cls):
    obj = _build(cls)
    pickled = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in (*pickled, copy.copy(obj), copy.deepcopy(obj)):
        assert type(back) is cls and back == obj
        assert {n: getattr(back, n) for n, _ in _fields(cls)} == {n: getattr(obj, n) for n, _ in _fields(cls)}


def test_a_pickled_polarization_keeps_its_cached_form():
    pol = _build(QuasiPolarization)
    form = pol.q_form
    assert pickle.loads(pickle.dumps(pol)).q_form == form


@pytest.mark.parametrize("cls", VALIDATED, ids=lambda c: c.__name__)
def test_post_init_runs_once_per_instance(cls, monkeypatch):
    calls = []
    check = cls.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    obj = _build(cls)
    assert len(calls) == 1 and calls[0] is obj


def test_divclass_arithmetic_builds_through_post_init(monkeypatch):
    built = []
    check = DivClass.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(DivClass, "__post_init__", counted)
    a, b = DivClass((1, 2)), DivClass((3, 4))
    for op in (lambda: a + b, lambda: a - b, lambda: -a, lambda: 3 * a, lambda: a * 3):
        del built[:]
        result = op()
        assert len(built) == 1 and built[0] is result
