"""Library paths on models built through the constructors from arbitrary values.

A library caller builds a model from any values it likes. Each value a
constructor takes must then carry the model through ``run_procedure``, every
artifact in every format, ``write_bundle`` and a round trip through the
model file; a value that could not must be refused where it enters, by the
constructor, or reported by validation or analysis. No other exception may
come out.
"""

import dataclasses
import tempfile
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_camera_model
from riskforge import (
    AnalysisError,
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
    ModelError,
    Requirement,
    ValidationFailed,
    parse_model,
    run_procedure,
    serialize_model,
    validate_model,
    write_bundle,
)
from riskforge.reports import FORMATS, emit_artifact


def _camera_with_a_frequency():
    """The camera model, with a frequency on one cause so that the property can reach its halves."""
    model = make_camera_model()
    fm = model.failure_modes[2]
    causes = (fm.causes[0], dataclasses.replace(fm.causes[1], frequency=Frequency(1, 200)))
    return dataclasses.replace(model, failure_modes=model.failure_modes[:2] + (dataclasses.replace(fm, causes=causes),))


BASE = _camera_with_a_frequency()


def _paths(value, path=()):
    """The path of every field and tuple item under ``value``, in the model's own terms."""
    found = []
    if dataclasses.is_dataclass(value):
        steps = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, tuple):
        steps = list(enumerate(value))
    else:
        return found
    for step, inner in steps:
        found += [path + (step,)] + _paths(inner, path + (step,))
    return found


PATHS = _paths(BASE)


def _replaced(value, path, new):
    """``value`` with ``new`` at ``path``, each record on the way rebuilt through its constructor;
    ``value`` itself where an earlier replacement took the path away."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        if not isinstance(value, tuple) or step >= len(value):
            return value
        return value[:step] + (_replaced(value[step], rest, new),) + value[step + 1 :]
    if not dataclasses.is_dataclass(value):
        return value
    return dataclasses.replace(value, **{step: _replaced(getattr(value, step), rest, new)})


class Build(NamedTuple):
    """A record to build inside the test, so that its constructor's refusal is an outcome, not a draw error."""

    cls: type
    args: tuple


def _built(value):
    if isinstance(value, Build):
        return value.cls(*map(_built, value.args))
    if isinstance(value, list):
        return [_built(item) for item in value]
    return value


RECORDS = (Meta, Requirement, Flow, Function, Component, MappingEdge, Frequency, Cause, Effect, ControlPlan)
TOKENS = ["", " ", "x", "r_photo", "f_exec", "c_cam", "Damaged", "SafetyIssue", "Invisible", "DesignAnalysis", "energy"]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    # 4,301 digits and more: past the default limit on integer-string conversion.
    st.integers(4300, 4302).map(lambda digits: 10**digits),
    st.floats(),
    # Hypothesis draws no surrogates (category Cs) unless asked.
    st.text(st.characters(categories=["Ll", "Zs", "Cc", "Cs"]), max_size=3),
    st.sampled_from(TOKENS),
)


def _records_of(inner):
    def build(cls):
        arity = len(dataclasses.fields(cls))
        return st.lists(inner, min_size=arity, max_size=arity).map(lambda args: Build(cls, tuple(args)))

    return st.sampled_from(RECORDS).flatmap(build)


VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=2) | _records_of(inner), max_leaves=4)
EDITS = st.lists(st.tuples(st.sampled_from(PATHS), VALUES), min_size=1, max_size=2)


def _edit(path, value):
    return {"edits": [(path, value)]}


@given(edits=EDITS, format=st.sampled_from(FORMATS))
@settings(max_examples=120, deadline=None)
# A concept or a method text that is no string.
@example(**_edit(("components", 0, "concept"), 5), format="csv")
@example(**_edit(("failure_modes", 2, "control", "method_text"), ["x"]), format="json")
# Held values that are not records of their class.
@example(**_edit(("failure_modes", 2, "causes"), [1]), format="csv")
@example(**_edit(("failure_modes", 2, "effects"), ["x"]), format="csv")
@example(**_edit(("failure_modes", 2, "control"), 3), format="csv")
@example(**_edit(("failure_modes", 2, "causes"), None), format="csv")
@example(**_edit(("requirements",), [1]), format="csv")
@example(**_edit(("rf",), [[1, 2]]), format="csv")
@example(**_edit(("functions", 0, "inputs"), [1]), format="csv")
# Integers Python will not write in decimal.
@example(**_edit(("failure_modes", 2, "causes", 1, "frequency", "denominator"), 10**5000), format="csv")
@example(**_edit(("failure_modes", 0, "effects", 0, "severity_rank"), 10**5000), format="csv")
def test_a_library_built_model_is_refused_reported_or_carried_through(edits, format):
    try:
        model = BASE
        for path, value in edits:
            model = _replaced(model, path, _built(value))
    except ValueError:
        return  # A constructor refused a value.
    assert type(model) is DesignModel
    try:
        bundle = run_procedure(model)
    except (ValidationFailed, AnalysisError, ModelError):
        return
    for name, artifact in bundle.documents():
        for each in FORMATS:
            emit_artifact(name, artifact, each)
    with tempfile.TemporaryDirectory() as out:
        assert len(write_bundle(bundle, out, format)) == 5
    assert parse_model(serialize_model(model)) == model


@pytest.mark.parametrize(
    "path, value, field, code",
    [
        (("components", 0, "concept"), 5, "concept", "Type"),
        (("failure_modes", 2, "control", "method_text"), ["x"], "method_text", "Type"),
        (("failure_modes", 2, "causes"), (1,), "causes", "Type"),
        (("failure_modes", 2, "causes"), None, "causes", "Type"),
        (("failure_modes", 2, "effects"), ("x",), "effects", "Type"),
        (("failure_modes", 2, "control"), 3, "control", "Type"),
        (("functions", 0, "inputs"), (1,), "inputs", "Type"),
        (("functions", 0, "outputs"), (Cause("x"),), "outputs", "Type"),
        (("meta",), None, "meta", "Type"),
        (("requirements",), (1,), "requirements", "Type"),
        (("functions",), (Requirement("r", "t"),), "functions", "Type"),
        (("components",), 7, "components", "Type"),
        (("rf",), ((1, 2),), "rf", "Type"),
        (("fc",), ("ab",), "fc", "Type"),
        (("failure_modes",), (Effect("e"),), "failure_modes", "Type"),
        (("failure_modes", 2, "causes", 1, "frequency", "denominator"), 10**5000, 1, "InvalidValue"),
        (("failure_modes", 2, "causes", 1, "frequency", "numerator"), -(10**5000), 0, "InvalidValue"),
        (("failure_modes", 2, "causes", 0, "occurrence_rank"), 10**5000, "occurrence_rank", "InvalidValue"),
        (("failure_modes", 0, "effects", 0, "severity_rank"), 10**5000, "severity_rank", "InvalidValue"),
        (("failure_modes", 2, "control", "detection_rank"), 10**5000, "detection_rank", "InvalidValue"),
    ],
    # str() of an integer past the limit raises, so it gets a name of its own.
    ids=lambda value: "10**5000" if isinstance(value, int) and value.bit_length() > 16000 else None,
)
def test_the_constructor_refuses_the_value_with_one_problem(path, value, field, code):
    with pytest.raises(ValueError) as refused:
        _replaced(BASE, path, value)
    assert [problem[:2] for problem in refused.value.problems] == [(field, code)]


def test_integers_python_writes_are_kept():
    # Long, but under the limit on integer-string conversion: the rank is a
    # validation finding, the frequency is a rate like any other.
    model = _replaced(BASE, ("failure_modes", 0, "effects", 0, "severity_rank"), 10**4000)
    assert [f.code for f in validate_model(model).errors] == ["RankOutOfRange"]
    model = _replaced(BASE, ("failure_modes", 2, "causes", 1, "frequency"), Frequency(10**4000, 10**4001))
    assert parse_model(serialize_model(model)) == model
