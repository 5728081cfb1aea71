"""Records against dataclass-generated references.

Every record is a ``model._Record`` whose ``__init__`` is written by hand:
it checks its arguments, then fills each slot once. The references below
are frozen dataclasses with the same fields, a generated ``__init__`` and
the checks in ``__post_init__``, reading the fields back. Drawn arguments,
good and bad, must give equal values, equal ``_FieldError.problems``, or
the same exception, and the records must keep what the dataclass machinery
gives them (``replace``, ``==``, ``hash``, ``repr``, ``astuple``, pickle,
``copy``, frozen slots, ``__match_args__`` and the constructor's
signature) without importing ``dataclasses`` at start-up.
"""

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import child_env, make_camera_model
from riskforge.analysis import AnalysisResult, RatingTable, RpnRow, TraceChain, TraceHop, analyze, rating_table, trace
from riskforge.io import ParseError
from riskforge.model import (
    CONTROL_METHOD_CLASSES,
    FLOW_KINDS,
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Effect,
    FailureMode,
    Flow,
    Frequency,
    Function,
    MappingEdge,
    Meta,
    Requirement,
    _FieldError,
    _check,
    _choice,
    _held,
    _id,
    _integer,
    _optional_utf8,
    _record,
    _text,
    _utf8,
    _writable,
    is_valid_rank,
)
from riskforge.rating import BANDS, RankBand
from riskforge.reports import ArtifactBundle, FmeaDocument, FmeaRow, PriorityReport, PriorityRow, run_procedure
from riskforge.validation import Finding, ValidationReport

# The checks each record ran in ``__post_init__`` when its ``__init__`` was generated.


def _meta(self):
    _check(self, _utf8("product", self.product), _utf8("version", self.version))


def _requirement(self):
    _check(self, _id("id", self.id), _text("text", self.text))


def _flow(self):
    _check(self, _utf8("description", self.description), _choice("kind", self.kind, FLOW_KINDS, "flow kind"))


def _function(self):
    # With the rule the hand-written constructor added: each flow is a Flow.
    inputs, bad_inputs = _held("inputs", self.inputs, Flow)
    outputs, bad_outputs = _held("outputs", self.outputs, Flow)
    _check(self, _id("id", self.id), _text("verb", self.verb), _text("noun", self.noun), bad_inputs, bad_outputs)
    object.__setattr__(self, "inputs", inputs)
    object.__setattr__(self, "outputs", outputs)


def _component(self):
    # With the rule the hand-written constructor added: a concept is a string or None.
    _check(self, _id("id", self.id), _text("name", self.name), _optional_utf8("concept", self.concept))


def _mapping_edge(self):
    _check(self, _id(0, self.source), _id(1, self.target))


def _frequency(self):
    # ``_integer`` now holds the rule the hand-written constructor added: an integer Python writes.
    _check(self, _integer(0, self.numerator), _integer(1, self.denominator))
    if self.numerator < 1 or self.denominator < 1:
        _check(self, (None, "InvalidValue", "frequency integers must be positive"))


def _cause(self):
    # With the rules the hand-written constructor added: only a Frequency is a rate, and a rank
    # is an integer Python writes.
    not_rate = self.frequency is not None and not isinstance(self.frequency, Frequency)
    rate = ("frequency", "Type", "expected a frequency") if not_rate else None
    _check(self, _text("text", self.text), _writable("occurrence_rank", self.occurrence_rank), rate)


def _effect(self):
    # With the rule the hand-written constructor added: a severity class or rank holds no
    # integer Python cannot write.
    ratings = _writable("severity_class", self.severity_class), _writable("severity_rank", self.severity_rank)
    _check(self, _text("text", self.text), *ratings)


def _control_plan(self):
    # With the rules the hand-written constructor added: a method text is a string or None, and
    # a rank is an integer Python writes.
    method_class = _choice("method_class", self.method_class, CONTROL_METHOD_CLASSES, "control method class")
    text, rank = _optional_utf8("method_text", self.method_text), _writable("detection_rank", self.detection_rank)
    _check(self, method_class, text, rank)


def _failure_mode(self):
    # With the rule the hand-written constructor added: each held record is of its own class.
    causes, bad_causes = _held("causes", self.causes, Cause)
    effects, bad_effects = _held("effects", self.effects, Effect)
    ids = _id("id", self.id), _id("element", self.element)
    texts = _text("category", self.category), _text("description", self.description)
    plan = None if self.control is None else _record("control", self.control, ControlPlan)
    _check(self, *ids, *texts, bad_causes, bad_effects, plan)
    object.__setattr__(self, "causes", causes)
    object.__setattr__(self, "effects", effects)


def _design_model(self):
    # With the rule the hand-written constructor added: each field holds its own record class.
    names = ("requirements", "functions", "components", "rf", "fc", "failure_modes")
    classes = (Requirement, Function, Component, MappingEdge, MappingEdge, FailureMode)
    held = [_held(name, getattr(self, name), cls) for name, cls in zip(names, classes)]
    _check(self, _record("meta", self.meta, Meta), *(problem for _, problem in held))
    for name, (values, _) in zip(names, held):
        object.__setattr__(self, name, values)


def _rank_band(self):
    if not (is_valid_rank(self.lo) and is_valid_rank(self.hi) and self.lo <= self.hi):
        raise ValueError(f"invalid rank band {self.lo}..{self.hi}")


#: Every record, with its old ``__post_init__`` (None where it had none).
RECORDS = {
    Meta: _meta,
    Requirement: _requirement,
    Flow: _flow,
    Function: _function,
    Component: _component,
    MappingEdge: _mapping_edge,
    Frequency: _frequency,
    Cause: _cause,
    Effect: _effect,
    ControlPlan: _control_plan,
    FailureMode: _failure_mode,
    DesignModel: _design_model,
    RankBand: _rank_band,
    RpnRow: None,
    AnalysisResult: None,
    TraceHop: None,
    TraceChain: None,
    RatingTable: None,
    ParseError: None,
    Finding: None,
    ValidationReport: None,
    FmeaRow: None,
    FmeaDocument: None,
    PriorityRow: None,
    PriorityReport: None,
    ArtifactBundle: None,
}


def _reference(cls):
    """``cls`` as a plain dataclass: the same fields, a generated ``__init__`` and the old checks."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    namespace = {} if RECORDS[cls] is None else {"__post_init__": RECORDS[cls]}
    slots = "__slots__" in cls.__dict__
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True, slots=slots)


REFERENCES = {cls: _reference(cls) for cls in RECORDS}

_IDS = st.text("azAZ09_-", min_size=1, max_size=6)
_PROSE = st.text(min_size=1, max_size=6).filter(str.strip)
# Hypothesis leaves lone surrogates out of its text unless asked; these ask.
_TEXT = st.text(st.sampled_from("a Z_\n\t\xe9\u2028\ud800\udc80\udfff"), max_size=4)
_FREQUENCIES = st.builds(Frequency, st.integers(1, 10**6), st.integers(1, 10**6))
_TOKENS = ["", " ", "\n", "r 1", "r1\n", "café", "\ud800", "a\udc80", "Damaged", "SafetyIssue"]

#: Any value a library caller might pass.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(),
    _TEXT,
    st.sampled_from(_TOKENS),
    st.lists(st.integers(), max_size=2),
    _FREQUENCIES,
)

#: A good value per parameter name, where a rule checks it.
GOOD = {
    "product": _PROSE,
    "version": _PROSE,
    "id": _IDS,
    "element": _IDS,
    "source": _IDS,
    "target": _IDS,
    "text": _PROSE,
    "verb": _PROSE,
    "noun": _PROSE,
    "name": _PROSE,
    "category": _PROSE,
    "description": _PROSE,
    "kind": st.sampled_from(FLOW_KINDS),
    "method_class": st.sampled_from(CONTROL_METHOD_CLASSES),
    "numerator": st.integers(1, 10**9),
    "denominator": st.integers(1, 10**9),
    "frequency": st.none() | _FREQUENCIES,
    "lo": st.integers(1, 5),
    "hi": st.integers(5, 10),
    "inputs": st.lists(JUNK, max_size=2),
    "outputs": st.lists(JUNK, max_size=2),
    "causes": st.lists(JUNK, max_size=2),
    "effects": st.lists(JUNK, max_size=2),
}


def _outcome(cls, args, kwargs):
    try:
        value = cls(*args, **kwargs)
    except _FieldError as exc:
        return "problems", exc.problems
    except Exception as exc:  # noqa: BLE001 - the type and text are the outcome
        return "raised", type(exc), str(exc)
    try:
        hashed = hash(value)
    except TypeError as exc:
        hashed = str(exc)
    values = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return "value", values, repr(value), hashed, dataclasses.astuple(value), value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=14, deadline=None)
def test_constructor_matches_the_generated_one(cls, data):
    parameters = list(inspect.signature(cls).parameters.values())
    bad = data.draw(st.sets(st.sampled_from([p.name for p in parameters])), label="bad")
    arguments = {}
    for p in parameters:
        if p.default is not inspect.Parameter.empty and p.name not in bad and data.draw(st.booleans(), label="omit"):
            continue
        arguments[p.name] = data.draw(JUNK if p.name in bad else GOOD.get(p.name, JUNK), label=p.name)
    positional = data.draw(st.integers(0, len(arguments)), label="positional")
    args = list(arguments.values())[:positional]
    kwargs = dict(list(arguments.items())[positional:])

    got, want = _outcome(cls, args, kwargs), _outcome(REFERENCES[cls], args, kwargs)
    if got[0] != "value":
        assert got == want
        return
    assert got[:-1] == want[:-1]
    value = got[-1]
    again = dataclasses.replace(value)
    assert type(again) is cls and again == value
    assert [getattr(again, f.name) for f in dataclasses.fields(cls)] == got[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, parameters[0].name, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_dataclass_surface_is_unchanged(cls):
    reference = REFERENCES[cls]
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert cls.__match_args__ == reference.__match_args__
    signature = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert signature == [(p.name, p.kind, p.default) for p in inspect.signature(reference).parameters.values()]
    assert cls.__dict__.get("__slots__") == reference.__dict__.get("__slots__")
    # Its own docstring: without one, the decorator would build it from the signature at import.
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")


def _samples():
    """Up to three values of every record, from one run of the camera model and a few more."""
    model = make_camera_model()
    roots = [
        model,
        run_procedure(model),
        analyze(model),
        rating_table(model),
        trace(model, "fm_damage", "effects"),
        BANDS,
        Cause("rated", frequency=Frequency(1, 1000)),
        ParseError(1, 2, "Syntax", "unexpected end of input"),
    ]
    found = {cls: [] for cls in RECORDS}
    while roots:
        value = roots.pop()
        if type(value) in found:
            # Built again from its fields, so a DesignModel carries no index yet.
            found[type(value)].append(type(value)(*(getattr(value, name) for name in type(value).__match_args__)))
            roots.extend(getattr(value, name) for name in type(value).__match_args__)
        elif isinstance(value, (tuple, list)):
            roots.extend(value)
        elif isinstance(value, dict):
            roots.extend(value.values())
    assert all(found.values()), [cls.__name__ for cls, values in found.items() if not values]
    return [(cls, value) for cls, values in found.items() for value in values[:3]]


SAMPLES = _samples()
SAMPLE_IDS = [f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(SAMPLES)]


def _as_reference(value):
    return REFERENCES[type(value)](*(getattr(value, f.name) for f in dataclasses.fields(value)))


def _reduced(value, protocol):
    """What pickle and copy take from ``value``, with its class left out so that a record and
    its reference compare."""
    function, arguments, *rest = value.__reduce_ex__(protocol)
    return function, tuple("class" if argument is type(value) else argument for argument in arguments), *rest


def _match_positionally(cls, value, count):
    """The values a class pattern of ``count`` positional captures binds, or None if it fails."""
    names = ", ".join(f"v{i}" for i in range(count))
    scope = {"cls": cls, "value": value}
    exec(f"match value:\n    case cls({names}):\n        got = [{names}]\n    case _:\n        got = None", scope)
    return scope["got"]


@pytest.mark.parametrize("cls, value", SAMPLES, ids=SAMPLE_IDS)
def test_pickle_copy_and_match_as_the_generated_one(cls, value):
    reference = _as_reference(value)
    assert repr(value) == repr(reference)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert _reduced(value, protocol) == _reduced(reference, protocol)
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is cls and again == value and repr(again) == repr(value)
    shallow, deep = copy.copy(value), copy.deepcopy(value)
    assert type(shallow) is cls and shallow == value and shallow is not value
    assert all(getattr(shallow, name) is getattr(value, name) for name in cls.__match_args__)
    assert type(deep) is cls and deep == value and repr(deep) == repr(copy.deepcopy(reference))
    fields = [getattr(value, name) for name in cls.__match_args__]
    assert _match_positionally(cls, value, len(fields)) == fields
    assert _match_positionally(REFERENCES[cls], reference, len(fields)) == fields
    for record, example in ((cls, value), (REFERENCES[cls], reference)):
        with pytest.raises(TypeError, match=f"accepts {len(fields)} positional sub-patterns"):
            _match_positionally(record, example, len(fields) + 1)


@pytest.mark.parametrize("cls, value", SAMPLES, ids=SAMPLE_IDS)
def test_frozen_and_slotted_as_the_generated_one(cls, value):
    reference = _as_reference(value)
    # Another name too: a generated slotted __setattr__ raises TypeError for it (its super() names
    # the class from before the slots were added), a record the same FrozenInstanceError.
    for example, names in ((value, (cls.__match_args__[0], "other")), (reference, cls.__match_args__[:1])):
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(example, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(example, name)
    slotted = "__slots__" in cls.__dict__
    assert hasattr(value, "__dict__") is hasattr(reference, "__dict__") is not slotted
    if slotted:
        with pytest.raises(TypeError):
            weakref.ref(value)
    else:
        assert weakref.ref(value)() is value
    assert dataclasses.astuple(value) == dataclasses.astuple(reference)
    assert dataclasses.asdict(value) == dataclasses.asdict(reference)
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(value)] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(reference)
    ]


def test_a_record_inside_itself_shows_as_the_generated_repr_shows_it():
    shown = []
    for cls in (Finding, REFERENCES[Finding]):
        path = []
        finding = cls("error", "Code", "message", path)
        path.append(finding)
        shown.append(repr(finding))
    assert shown == ["Finding(severity='error', code='Code', message='message', path=[...])"] * 2


def _run(code):
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestStartUp:
    """What ``import riskforge.cli`` costs, checked without a clock."""

    def test_fractions_is_not_imported(self):
        assert _run("import sys, riskforge.cli; print('fractions' in sys.modules)") == "False\n"

    def test_no_record_has_a_generated_constructor(self):
        # A generated __init__ is compiled from a string: its code names no file of the package.
        out = _run(
            "import dataclasses, pathlib, sys, riskforge.cli\n"
            "print(pathlib.Path(sys.modules['riskforge'].__file__).resolve().parent)\n"
            "for name, module in sorted(sys.modules.items()):\n"
            "    if name == 'riskforge' or name.startswith('riskforge.'):\n"
            "        for value in vars(module).values():\n"
            "            if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == name:\n"
            "                print(value.__name__, value.__init__.__code__.co_filename)\n"
        )
        package, *lines = out.splitlines()
        found = dict(line.split(" ", 1) for line in lines)
        assert {cls.__name__ for cls in RECORDS} <= set(found)
        outside = {name: filename for name, filename in found.items() if not filename.startswith(package + "/")}
        assert outside == {}

    @pytest.mark.parametrize(
        "code",
        [
            "import riskforge.cli",
            "from riskforge.cli import main\nassert main(['rank', 'occurrence', '1/1000']) == 0",
        ],
        ids=["import", "rank"],
    )
    def test_dataclasses_and_its_imports_are_not_loaded(self, code):
        modules = ("dataclasses", "inspect", "ast", "dis")
        out = _run(f"import sys\n{code}\nprint(sorted(set({modules!r}) & set(sys.modules)))")
        assert out.splitlines()[-1] == "[]"
