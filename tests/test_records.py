"""Records against dataclass-generated references.

Every record is a ``model._Record`` whose ``__init__`` is written by hand:
it checks its arguments, then fills each slot once. The references below
are frozen dataclasses with the same fields, a generated ``__init__`` and
the checks in ``__post_init__``, reading the fields back. Drawn arguments,
good and bad, values at the edges of the constructors' accept tests among
them, and each argument off among sound ones, must give equal values, equal
``_FieldError.problems``, or the same exception, and the records must keep
what the dataclass machinery gives them (``replace``, ``==``, ``hash``,
``repr``, ``astuple``, pickle, ``copy``, frozen slots, ``__match_args__``
and the constructor's signature) without importing ``dataclasses`` at
start-up.
"""

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, settings
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


class _Str(str):
    pass


class _Int(int):
    pass


class _Frequency(Frequency):
    pass


#: The values at the edges of the constructors' accept tests, which the helpers must judge: the
#: subclasses, blank non-ASCII text and a control character that ``str.strip`` drops, integers
#: around the writable bound, and a bool where a rank goes.
_BLANKS = ["\u3000", "\xa0", "\x1c"]
_BIG = [2**1999 - 1, 2**1999, -(2**1999)]
EDGES = st.one_of(
    st.builds(_Str, _IDS | _PROSE | st.sampled_from(FLOW_KINDS + CONTROL_METHOD_CLASSES)),
    st.builds(_Int, st.integers(-3, 12)),
    st.sampled_from(_BLANKS + _BIG + [True]),
    st.builds(_Frequency, st.integers(1, 10**6), st.integers(1, 10**6)),
)

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
    EDGES,
)


def _held_of(records):
    """A list or a tuple of up to three ``records``, now and then with junk among them."""
    items = st.lists(records, max_size=3) | st.lists(records | JUNK, max_size=3)
    return items | items.map(tuple)


_FLOWS = st.builds(Flow, _PROSE, st.sampled_from(FLOW_KINDS))
_HELD_RECORDS = {
    "inputs": _FLOWS,
    "outputs": _FLOWS,
    "causes": st.builds(Cause, _PROSE, st.none() | st.integers(), st.none() | _FREQUENCIES),
    "effects": st.builds(Effect, _PROSE, st.sampled_from([None, "SafetyIssue", "café"]), st.none() | st.integers()),
    "requirements": st.builds(Requirement, _IDS, _PROSE),
    "functions": st.builds(Function, _IDS, _PROSE, _PROSE),
    "components": st.builds(Component, _IDS, _PROSE),
    "rf": st.builds(MappingEdge, _IDS, _IDS),
    "fc": st.builds(MappingEdge, _IDS, _IDS),
    "failure_modes": st.builds(FailureMode, _IDS, _IDS, _PROSE, _PROSE),
}

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
    "control": st.none() | st.builds(ControlPlan, st.sampled_from(CONTROL_METHOD_CLASSES)),
    "meta": st.builds(Meta, _PROSE, _PROSE),
    **{name: _held_of(records) for name, records in _HELD_RECORDS.items()},
}

_PROSE_NAMES = ["product", "version", "text", "verb", "noun", "name", "category", "description"]
_RANKS = ["occurrence_rank", "severity_rank", "detection_rank"]

#: One sound value per parameter name that a rule checks; each held tuple holds two records.
SOUND = {
    **dict.fromkeys(_PROSE_NAMES, "t"),
    **dict.fromkeys(["id", "element", "source", "target"], "r1"),
    "kind": "energy",
    "method_class": "DesignAnalysis",
    **dict.fromkeys(["numerator", "denominator", *_RANKS], 5),
    "lo": 1,
    "hi": 5,
    "frequency": Frequency(1, 10),
    "control": ControlPlan("DesignAnalysis"),
    "meta": Meta("p", "1"),
    "inputs": (Flow("d", "energy"),) * 2,
    "outputs": (Flow("d", "energy"),) * 2,
    "causes": (Cause("t", 5),) * 2,
    "effects": (Effect("t", "SafetyIssue", 5),) * 2,
    "requirements": (Requirement("r1", "t"),) * 2,
    "functions": (Function("f1", "v", "n"),) * 2,
    "components": (Component("c1", "n"),) * 2,
    "rf": (MappingEdge("r1", "f1"),) * 2,
    "fc": (MappingEdge("f1", "c1"),) * 2,
    "failure_modes": (FailureMode("m1", "c1", "Damaged", "d"),) * 2,
}
_STRINGS = [name for name, value in SOUND.items() if type(value) is str]
_INTEGERS = [name for name, value in SOUND.items() if type(value) is int]


class _Given:
    """``st.data()`` for an ``@example``: every parameter is passed by keyword, as ``values``
    or else ``SOUND`` holds it (None where neither does)."""

    def __init__(self, **values) -> None:
        self.values = values

    def draw(self, strategy, label):
        fixed = {"bad": set(), "omit": False, "positional": 0}
        return fixed[label] if label in fixed else self.values.get(label, SOUND.get(label))

    def __repr__(self) -> str:
        return f"_Given(**{self.values!r})"


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
@example(data=_Given())
@example(data=_Given(**{name: _Str(SOUND[name]) for name in _STRINGS}))
@example(data=_Given(**{name: _Int(SOUND[name]) for name in _INTEGERS}))
@example(data=_Given(**dict.fromkeys(_PROSE_NAMES, "\u3000")))
@example(data=_Given(**dict.fromkeys(_PROSE_NAMES, "\xa0")))
@example(data=_Given(**dict.fromkeys(_PROSE_NAMES, "\x1c")))
@example(data=_Given(**dict.fromkeys(_INTEGERS, 2**1999 - 1)))
@example(data=_Given(**dict.fromkeys(_INTEGERS, 2**1999)))
@example(data=_Given(**dict.fromkeys(_INTEGERS, -(2**1999))))
@example(data=_Given(**dict.fromkeys(_RANKS, True)))
@example(data=_Given(**{name: list(value) for name, value in SOUND.items() if type(value) is tuple}))
@example(data=_Given(frequency=_Frequency(1, 10)))
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


#: Values one argument takes among sound ones in ``test_one_argument_off_among_sound_ones``.
OFF = [
    *(None, True, False, 0, -1, 11, 2.5, [], (), [1], (1,)),
    *("", " ", "r 1", "r1\n", "-", "9a", "café", "é\t", "a\u2028b", "\ud800", "a\udc80", "energy", *_BLANKS),
    *("DesignAnalysis", _Str("r1"), _Str("energy"), _Str("DesignAnalysis"), _Int(5), *_BIG),
    *(Frequency(1, 10), _Frequency(1, 10), ControlPlan("DesignAnalysis"), Meta("p", "1")),
]


@pytest.mark.parametrize("cls", [cls for cls, checks in RECORDS.items() if checks], ids=lambda cls: cls.__name__)
def test_one_argument_off_among_sound_ones(cls):
    # Each argument in turn takes each value of OFF, and a held tuple also a list, one record,
    # and a record beside a value that is none.
    names = list(inspect.signature(cls).parameters)
    for name in names:
        held = SOUND.get(name) if type(SOUND.get(name)) is tuple else None
        variants = [] if held is None else [list(held), held[:1], (held[0], None), (None, held[0])]
        for value in OFF + variants:
            kwargs = {**{other: SOUND.get(other) for other in names}, name: value}
            got, want = _outcome(cls, (), kwargs), _outcome(REFERENCES[cls], (), kwargs)
            if got[0] == "value":
                got, want = got[:-1], want[:-1]  # without the records themselves, of two classes
            assert got == want, (name, value)


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


def _run(code, *flags):
    command = [sys.executable, *flags, "-c", code]
    done = subprocess.run(command, capture_output=True, text=True, env=child_env(), timeout=60)
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

    def test_typing_is_not_loaded_without_site(self):
        # Without -S, ``site`` may load ``typing`` itself (through a ``.pth`` file), which would hide an import of it.
        out = _run("import sys, riskforge.cli; print(sorted({'typing', 'dataclasses'} & set(sys.modules)))", "-S")
        assert out == "[]\n"
