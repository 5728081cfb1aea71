"""File format: positioned parse errors and canonical, round-trip-stable output."""

import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_camera_model, permuted, random_model, with_random_prose
from riskforge import (
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Effect,
    FailureMode,
    Meta,
    ParseFailure,
    parse_model,
    serialize_model,
)
from riskforge.io import _offset, _parse_fast, _parse_positioned, _Reader, _SyntaxFailure

CAMERA_JSON = Path(__file__).resolve().parent.parent / "sample_models" / "camera.json"

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

MINIMAL = """\
{
  "meta": {"product": "widget", "version": "1"},
  "requirements": [{"id": "r1", "text": "do the thing"}],
  "functions": [{"id": "f1", "verb": "do", "noun": "thing"}],
  "components": [{"id": "c1", "name": "doer"}],
  "rf": [["r1", "f1"]],
  "fc": [["f1", "c1"]],
  "failure_modes": []
}
"""


def errors_of(text):
    with pytest.raises(ParseFailure) as excinfo:
        parse_model(text)
    return excinfo.value.errors


class TestParseSuccess:
    def test_minimal_connected_model(self):
        model = parse_model(MINIMAL)
        assert len(model.requirements) == len(model.functions) == len(model.components) == 1
        assert model.rf[0].source == "r1"
        assert model.failure_modes == ()

    def test_defaults_applied(self):
        model = parse_model(MINIMAL)
        assert model.functions[0].inputs == ()
        assert model.components[0].concept is None

    def test_full_document(self, camera_model):
        parsed = parse_model(serialize_model(camera_model))
        assert parsed == camera_model
        fm = parsed.failure_modes_by_id["fm_damage"]
        assert fm.control.detection_rank == 8
        assert fm.causes[0].occurrence_rank == 7


class TestSyntaxErrors:
    def test_malformed_document(self):
        errors = errors_of('{"meta": ')
        assert errors[0].code == "Syntax"

    def test_trailing_garbage(self):
        errors = errors_of(MINIMAL + "x")
        assert errors[0].code == "Syntax"
        assert errors[0].line == 10

    def test_position_of_bad_token(self):
        errors = errors_of('{\n  "meta": nope\n}')
        assert (errors[0].line, errors[0].column) == (2, 11)

    def test_duplicate_key(self):
        text = '{"meta": {"product": "a", "version": "1", "product": "b"}}'
        codes = [e.code for e in errors_of(text)]
        assert "DuplicateKey" in codes

    def test_empty_document(self):
        assert errors_of("")[0].code == "Syntax"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_non_ascii_digit(self, digit):
        lines = CAMERA_JSON.read_text(encoding="utf-8").split("\n")
        assert lines[59].endswith('"severity_rank": 6')
        lines[59] = lines[59][:-1] + digit
        text = "\n".join(lines)
        with pytest.raises(json.JSONDecodeError) as stdlib:
            json.loads(text)
        errors = errors_of(text)
        assert [(e.line, e.column, e.code) for e in errors] == [(60, 28, "Syntax")]
        assert (stdlib.value.lineno, stdlib.value.colno) == (60, 28)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"a": 1', "line 1, column 8: unterminated object"),
            ("[1", "line 1, column 3: unterminated array"),
            ("[1 2]", "line 1, column 4: expected ',' or ']' in array"),
            ('{"a" 1}', "line 1, column 6: expected ':' after object key"),
            ("{1: 2}", "line 1, column 2: expected an object key string"),
            ('{"a": 1 "b": 2}', "line 1, column 9: expected ',' or '}' in object"),
            ('[{"a": [1}]', "line 1, column 10: expected ',' or ']' in array"),
            ('{"a": [{}, {"b": 1]}', "line 1, column 19: expected ',' or '}' in object"),
            ('{"a": 1,}', "line 1, column 9: expected an object key string"),
            ("[1,]", "line 1, column 4: unexpected character ']'"),
        ],
    )
    def test_container_errors(self, text, expected):
        with pytest.raises(_SyntaxFailure) as excinfo:
            _Reader(text, []).parse_document()
        assert str(excinfo.value.error) == expected + " [Syntax]"

    def test_nesting_deeper_than_the_stack(self):
        errors = errors_of('{"meta": ' + "[" * 100_000)
        assert [(e.line, e.code, e.message) for e in errors] == [(1, "Syntax", "unexpected end of input")]

    @pytest.mark.parametrize("depth", [600, sys.getrecursionlimit() + 50])
    def test_deep_valid_nesting_gives_the_true_error(self, depth):
        # Valid JSON nested past where a recursive reader runs out of stack.
        text = CAMERA_JSON.read_text(encoding="utf-8").replace('"Smartphone"', "[" * depth + "]" * depth, 1)
        assert [str(e) for e in errors_of(text)] == ["line 3, column 16: meta.product: expected a string [Type]"]

    @pytest.mark.parametrize(
        "escape, column, half",
        # Column 45 is the backslash after '"text": "do '.
        [
            ("\\ud800", 45, "\\ud800"),
            ("\\uDFFF", 45, "\\uDFFF"),
            ("\\ud800\\u0041", 45, "\\ud800"),
            ("\\u0041\\udc00", 51, "\\udc00"),
        ],
    )
    def test_unpaired_surrogate_escape(self, escape, column, half):
        text = MINIMAL.replace("do the thing", f"do {escape} thing")
        assert [str(e) for e in errors_of(text)] == [
            f"line 3, column {column}: unpaired surrogate escape '{half}' [Syntax]"
        ]

    @pytest.mark.parametrize("half", ["\ud800", "\udc80"])
    def test_raw_surrogate_character(self, half):
        # A str decoded with errors="surrogateescape" can hold one; it has no
        # UTF-8 form, so the writers could not write it back.
        text = MINIMAL.replace("do the thing", f"do {half} thing")
        assert _parse_fast(text) is None
        assert [str(e) for e in errors_of(text)] == [
            f"line 3, column 45: unpaired surrogate character '\\u{ord(half):04x}' [Syntax]"
        ]

    def test_surrogate_pair_escape_is_one_character(self):
        model = parse_model(MINIMAL.replace("do the thing", "do \\ud83d\\ude00 thing"))
        assert model.requirements[0].text == "do \U0001f600 thing"

    def test_integer_past_the_conversion_limit(self):
        text = MINIMAL.replace('"version": "1"', '"version": ' + "9" * 5000)
        errors = errors_of(text)
        assert [(e.line, e.column, e.code) for e in errors] == [(2, 44, "Syntax")]


class TestSchemaErrors:
    def test_unknown_top_level_key(self):
        data = json.loads(MINIMAL)
        data["notes"] = []
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "UnknownKey" in codes

    def test_unknown_record_key(self):
        data = json.loads(MINIMAL)
        data["requirements"][0]["priority"] = 1
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "UnknownKey" in codes

    def test_missing_required_key(self):
        data = json.loads(MINIMAL)
        del data["requirements"][0]["text"]
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "MissingKey" in codes

    def test_wrong_type(self):
        data = json.loads(MINIMAL)
        data["requirements"][0]["text"] = 5
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "Type" in codes

    def test_float_rank_rejected(self):
        data = json.loads(MINIMAL)
        data["failure_modes"] = [
            {
                "id": "fm1",
                "element": "c1",
                "category": "Damaged",
                "description": "broken",
                "effects": [{"text": "bad", "severity_rank": 7.5}],
            }
        ]
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "Type" in codes

    def test_bad_id_charset(self):
        data = json.loads(MINIMAL)
        data["requirements"][0]["id"] = "r 1"
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "InvalidId" in codes

    def test_id_with_a_trailing_newline(self):
        text = MINIMAL.replace('"id": "c1"', '"id": "c1\\n"')
        assert [str(e) for e in errors_of(text)] == [
            "line 5, column 25: components[0].id: ids use letters, digits, '_' and '-' only, got 'c1\\n' [InvalidId]"
        ]

    def test_bad_flow_kind(self):
        data = json.loads(MINIMAL)
        data["functions"][0]["inputs"] = [{"description": "x", "kind": "data"}]
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "InvalidValue" in codes

    def test_bad_frequency_shape(self):
        data = json.loads(MINIMAL)
        data["failure_modes"] = [
            {
                "id": "fm1",
                "element": "c1",
                "category": "Damaged",
                "description": "broken",
                "causes": [{"text": "why", "frequency": [1, 0]}],
            }
        ]
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "InvalidValue" in codes

    def test_bad_control_class(self):
        data = json.loads(MINIMAL)
        data["failure_modes"] = [
            {
                "id": "fm1",
                "element": "c1",
                "category": "Damaged",
                "description": "broken",
                "control": {"method_class": "Inspection"},
            }
        ]
        codes = [e.code for e in errors_of(json.dumps(data))]
        assert "InvalidValue" in codes

    def test_multiple_errors_reported_together(self):
        data = json.loads(MINIMAL)
        data["requirements"][0]["id"] = "r 1"
        data["components"][0]["name"] = ""
        errors = errors_of(json.dumps(data))
        assert len(errors) >= 2

    def test_every_bad_field_of_one_record_is_reported(self):
        text = MINIMAL.replace('"id": "r1", "text": "do the thing"', '"id": "r 1", "text": "  "')
        assert [str(e) for e in errors_of(text)] == [
            "line 3, column 27: requirements[0].id: ids use letters, digits, '_' and '-' only, got 'r 1' [InvalidId]",
            "line 3, column 42: requirements[0].text: must not be empty [EmptyText]",
        ]

    def test_non_object_root(self):
        assert errors_of("[1, 2]")[0].code == "Type"


class TestReferenceErrors:
    def test_reversed_rf_edge(self):
        data = json.loads(MINIMAL)
        data["rf"] = [["f1", "r1"]]
        errors = errors_of(json.dumps(data))
        assert [e.code for e in errors] == ["EdgeDirection"]

    def test_dangling_edge(self):
        data = json.loads(MINIMAL)
        data["fc"] = [["f1", "c9"]]
        errors = errors_of(json.dumps(data))
        assert [e.code for e in errors] == ["DanglingReference"]

    def test_component_failure_mode_with_requirement_category(self):
        data = json.loads(MINIMAL)
        data["failure_modes"] = [
            {
                "id": "fm1",
                "element": "c1",
                "category": "Intermittence",
                "description": "cuts out",
            }
        ]
        text = json.dumps(data, indent=2)
        errors = errors_of(text)
        assert [e.code for e in errors] == ["CategoryDomainMismatch"]
        # The error points at the category value inside the failure mode.
        lines = text.split("\n")
        assert '"category"' in lines[errors[0].line - 1]

    def test_positions_lie_within_the_document(self):
        samples = [
            '{"meta": {"product": 1, "version": "1"}}',
            MINIMAL.replace('["r1", "f1"]', '["f1", "r1"]'),
            MINIMAL.replace('"rf": [["r1", "f1"]]', '"rf": [["r1", "f9"]]'),
        ]
        for text in samples:
            total_lines = text.count("\n") + 1
            for error in errors_of(text):
                assert 1 <= error.line <= total_lines
                line_text = text.split("\n")[error.line - 1]
                assert 1 <= error.column <= len(line_text) + 1

    def test_path_leaving_the_document_falls_back_to_its_longest_prefix(self):
        reader = _Reader(MINIMAL, [])
        root = reader.parse_document()
        record = _offset(root, ("requirements", 0))
        assert MINIMAL[record] == "{"
        assert _offset(root, ("requirements", 0, "priority", 2)) == record
        assert _offset(root, ("requirements", 0, "id", 0)) == _offset(root, ("requirements", 0, "id"))
        assert _offset(root, ("requirements", 7)) == _offset(root, ("requirements",))
        assert reader.location(_offset(root, ("notes", 0))) == (1, 1)


class TestSerialization:
    def test_round_trip_identity(self, camera_model, smartphone_model):
        for model in (camera_model, smartphone_model):
            assert parse_model(serialize_model(model)) == model

    def test_byte_determinism(self, camera_model):
        assert serialize_model(camera_model) == serialize_model(camera_model)

    def test_shape(self, camera_model):
        text = serialize_model(camera_model)
        assert text.endswith("\n")
        assert "\r" not in text
        data = json.loads(text)
        assert list(data) == [
            "meta",
            "requirements",
            "functions",
            "components",
            "rf",
            "fc",
            "failure_modes",
        ]
        assert list(data["failure_modes"][2]) == [
            "id",
            "element",
            "category",
            "description",
            "effects",
            "causes",
            "control",
        ]

    def test_unicode_round_trip(self):
        import dataclasses

        from riskforge import Component

        model = make_camera_model()
        model = dataclasses.replace(
            model,
            components=(Component("c_cam", "Kamera-Modul beschädigt", concept="Schutzschaltung"),),
        )
        text = serialize_model(model)
        assert "Kamera-Modul beschädigt" in text
        again = parse_model(text)
        assert again == model
        assert serialize_model(again) == text

    def test_random_model_round_trips(self):
        rng = random.Random(20260808)
        for _ in range(50):
            model = random_model(rng)
            text = serialize_model(model)
            assert parse_model(text) == model
            assert serialize_model(parse_model(text)) == text


class TestCanonicalWriter:
    """The schema-driven writer gives the stdlib encoder's text, byte for byte."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_stdlib_encoder(self, seed):
        rng = random.Random(seed)
        model = with_random_prose(random_model(rng, connected=rng.random() < 0.5), rng)
        for variant in (model, permuted(model, rng)):
            out = serialize_model(variant)
            assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
            assert parse_model(out) == variant

    def test_empty_model(self):
        out = serialize_model(DesignModel(meta=Meta(product="", version="")))
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
        assert '"failure_modes": []' in out

    def test_unchecked_scalars_keep_the_stdlib_form(self):
        # Library-built values the parser would reject, in slots the
        # constructors do not check.
        fm = FailureMode(
            "fm1",
            "c1",
            "Damaged",
            "broken",
            effects=(Effect("e", severity_class=False, severity_rank=True),),
            causes=(Cause("c", occurrence_rank=3.5),),
            control=ControlPlan("DesignAnalysis", method_text=1e100, detection_rank=-0.0),
        )
        model = DesignModel(meta=Meta("p", "1"), components=(Component("c1", "part", concept=True),), failure_modes=(fm,))
        out = serialize_model(model)
        for member in (
            '"concept": true',
            '"severity_class": false',
            '"severity_rank": true',
            '"occurrence_rank": 3.5',
            '"method_text": 1e+100',
            '"detection_rank": -0.0',
        ):
            assert member in out
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"

    def test_a_container_in_a_scalar_slot_is_a_type_error(self):
        model = DesignModel(meta=Meta("p", "1"), components=(Component("c1", "part", concept=["x"]),))
        with pytest.raises(TypeError):
            serialize_model(model)

    @pytest.mark.parametrize("shape, seed", [("bulk", 1), ("bulk", 2), ("bulk", 3), ("star", 1)])
    def test_bench_models_keep_their_bytes(self, shape, seed):
        # The generator writes every optional field in README key order,
        # through the stdlib encoder.
        data, _ = gen.bulk_model(seed, n=60) if shape == "bulk" else gen.star_model(seed, degree=200)
        text = gen.canonical(data)
        assert serialize_model(parse_model(text)) == text


# ---------------------------------------------------------------------------
# Differential properties: the stdlib fast path against the positional
# failure path, and the positional reader against the stdlib decoder.


def _nodes(data, out):
    """Every (container, key) pair in a JSON tree, in document order."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        out.append((data, key))
        if isinstance(value, (dict, list)):
            _nodes(value, out)
    return out


def _dicts(data):
    found = [data] if isinstance(data, dict) else []
    return found + [c[k] for c, k in _nodes(data, []) if isinstance(c[k], dict)]


def _redump(data, rng):
    return json.dumps(data, indent=rng.choice([None, 1, 2, 4]), ensure_ascii=rng.random() < 0.5)


def _duplicate_key(text, rng):
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines) if re.match(r'\s*"\w+": .*,$', line)]
    if not candidates:
        return text
    i = rng.choice(candidates)
    return "\n".join(lines[: i + 1] + lines[i:])


def _unknown_key(text, rng):
    data = json.loads(text)
    rng.choice(_dicts(data))[rng.choice(["notes", "id", "zz"])] = rng.choice([1, "x", None])
    return _redump(data, rng)


def _missing_key(text, rng):
    data = json.loads(text)
    target = rng.choice([d for d in _dicts(data) if d])
    del target[rng.choice(list(target))]
    return _redump(data, rng)


def _wrong_type(text, rng):
    data = json.loads(text)
    container, key = rng.choice(_nodes(data, []))
    container[key] = rng.choice([1, -3, 2.5, "x", "", [], {}, None, True, [1, 2, 3]])
    return _redump(data, rng)


def _truncate(text, rng):
    return text[: rng.randrange(len(text))]


def _non_finite(text, rng):
    numbers = list(re.finditer(r"-?\d+", text))
    if not numbers:
        return text.replace('"1"', "NaN", 1)
    match = rng.choice(numbers)
    return text[: match.start()] + rng.choice(["NaN", "Infinity", "-Infinity"]) + text[match.end() :]


def _non_ascii_digit(text, rng):
    digits = [m.start() for m in re.finditer(r"(?<=: )\d", text)] or [len(text) // 2]
    at = rng.choice(digits)
    return text[:at] + rng.choice("\u00b2\u0663\u0661\u06f5") + text[at + 1 :]


def _dangling_edge(text, rng):
    data = json.loads(text)
    edges = data["rf"] + data["fc"]
    if edges:
        rng.choice(edges)[rng.randrange(2)] = "nowhere"
    elif data["failure_modes"]:
        rng.choice(data["failure_modes"])["element"] = "nowhere"
    return _redump(data, rng)


def _bad_id(text, rng):
    data = json.loads(text)
    records = [r for key in ("requirements", "functions", "components", "failure_modes") for r in data[key]]
    if records:
        rng.choice(records)["id"] = rng.choice(["r 1", "", "caf\u00e9", "r1"])
    return _redump(data, rng)


MUTATIONS = (
    _duplicate_key,
    _unknown_key,
    _missing_key,
    _wrong_type,
    _truncate,
    _non_finite,
    _non_ascii_digit,
    _dangling_edge,
    _bad_id,
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseFailure as exc:
        return exc.errors


class TestFastPathMatchesFailurePath:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mutation=st.sampled_from((None,) + MUTATIONS),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_model_or_same_errors(self, seed, mutation):
        rng = random.Random(seed)
        text = serialize_model(random_model(rng))
        if mutation is not None:
            text = mutation(text, rng)
        positioned = _outcome(_parse_positioned, text)
        fast = _parse_fast(text)
        if fast is None:
            assert isinstance(positioned, tuple) and positioned
        else:
            assert positioned == fast
        assert _outcome(parse_model, text) == positioned
        if isinstance(positioned, tuple):
            lines = text.split("\n")
            for error in positioned:
                assert 1 <= error.line <= len(lines)
                assert 1 <= error.column <= len(lines[error.line - 1]) + 1


def _first_binding(pairs):
    obj = {}
    for key, value in pairs:
        obj.setdefault(key, value)
    return obj


def _reject(name):
    raise ValueError(name)


def _stdlib_read(text):
    try:
        return json.dumps(json.loads(text, object_pairs_hook=_first_binding, parse_constant=_reject))
    except ValueError:
        return None


def _reader_read(text):
    try:
        return json.dumps(_Reader(text, []).parse_document().value)
    except _SyntaxFailure:
        return None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=20,
)
JSONISH = ' \t\n\r{}[]",:.-+eE0123456789tfnulNaIy\\/u\u00b2\u0663\x01\x1f'


class TestReaderMatchesStdlib:
    @given(
        value=json_values,
        indent=st.sampled_from([None, 0, 2]),
        edits=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(JSONISH), st.integers(0, 2)), max_size=3),
    )
    @settings(max_examples=500, deadline=None)
    def test_accepts_the_same_texts_with_the_same_values(self, value, indent, edits):
        text = json.dumps(value, indent=indent, ensure_ascii=False)
        for at, ch, kind in edits:
            at %= len(text) + 1
            # Insert, replace or delete one character.
            text = text[:at] + (ch if kind < 2 else "") + text[at + (kind > 0) :]
        assert _reader_read(text) == _stdlib_read(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": 1, "a": 2}',
            "[NaN]",
            "[-Infinity]",
            "[1.5e400]",
            '["\\ud800\\u0041"]',
            '["a\\u0000b"]',
            '["a\x1fb"]',
            "\ufeff[]",
            "[01]",
            "[-]",
        ],
    )
    def test_edge_cases(self, text):
        assert _reader_read(text) == _stdlib_read(text)
