"""File format: positioned parse errors and canonical, round-trip-stable output."""

import copy
import hashlib
import json
import random
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_camera_model, permuted, random_model, with_random_prose
from riskforge import (
    ANALYSIS_READY,
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Effect,
    FailureMode,
    Meta,
    ParseFailure,
    Requirement,
    parse_model,
    serialize_model,
    validate_model,
)
from riskforge import io as rio
from riskforge import model as rmodel
from riskforge.io import _decode, _Locator, _model_from, _read, _Reader, _SyntaxFailure
from riskforge.model import ALL_CATEGORY_NAMES, CONTROL_METHOD_CLASSES, FLOW_KINDS
from riskforge.rating import ALL_SEVERITY_CLASS_NAMES

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

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[1.5.3]", "line 1, column 5: expected ',' or ']' in array"),
            ("[1e5e]", "line 1, column 5: expected ',' or ']' in array"),
            ("[1e5.0]", "line 1, column 5: expected ',' or ']' in array"),
            ("[1.]", "line 1, column 2: invalid number"),
            ("[-]", "line 1, column 2: invalid number"),
            ("[1.e5]", "line 1, column 2: invalid number"),
            ("[01]", "line 1, column 3: expected ',' or ']' in array"),
            ("[2.5E]", "line 1, column 2: invalid number"),
        ],
    )
    def test_malformed_numbers(self, text, expected):
        # A number ends where its grammar does; what follows is the array's to reject.
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        assert [str(e) for e in errors_of(text)] == [expected + " [Syntax]"]

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
        assert _decode(text)[1], "the stdlib decoder must not read it"
        assert [str(e) for e in errors_of(text)] == [
            f"line 3, column 45: unpaired surrogate character '\\u{ord(half):04x}' [Syntax]"
        ]

    @pytest.mark.parametrize(
        "before, after",
        [
            ('"widget"', '"wid\udc80get"'),
            ('"name": "doer"', '"name": "doer", "concept": "\udc80"'),
            ('"noun": "thing"', '"noun": "thing", "inputs": [{"description": "\udc80", "kind": "energy"}]'),
        ],
    )
    def test_raw_surrogate_is_reported_once(self, before, after):
        # The constructors reject the character too; the reader has already
        # reported it where it stands.
        errors = errors_of(MINIMAL.replace(before, after, 1))
        assert [(e.code, e.message) for e in errors] == [("Syntax", "unpaired surrogate character '\\udc80'")]

    def test_deep_unknown_value_before_a_later_bad_id(self):
        # The stdlib decoder gives up on the nesting; so does its scanner when
        # the unknown key's value is skipped to reach the requirements.
        depth = sys.getrecursionlimit() + 50
        notes = '{\n  "notes": ' + "[" * depth + "]" * depth + ',\n  "meta"'
        text = MINIMAL.replace('{\n  "meta"', notes, 1).replace('"id": "r1"', '"id": "r 1"')
        assert [str(e) for e in errors_of(text)] == [
            "line 2, column 3: unknown key 'notes' [UnknownKey]",
            "line 4, column 27: requirements[0].id: ids use letters, digits, '_' and '-' only, got 'r 1' [InvalidId]",
        ]

    def test_fault_in_the_first_binding_of_a_duplicated_key(self):
        text = MINIMAL.replace('"id": "r1", "text"', '"id": "r 1", "id": "r1", "text"')
        assert [str(e) for e in errors_of(text)] == [
            "line 3, column 27: requirements[0].id: ids use letters, digits, '_' and '-' only, got 'r 1' [InvalidId]",
            "line 3, column 34: duplicate key 'id' [DuplicateKey]",
        ]

    def test_unterminated_escape_sequence(self):
        text = CAMERA_JSON.read_text(encoding="utf-8")
        text = text[: text.index("Take photos")] + "Take \\"
        assert [str(e) for e in errors_of(text)] == ["line 9, column 22: unterminated escape sequence [Syntax]"]

    @pytest.mark.parametrize("number", ["-", "1.", "1e"], ids=["no-digit", "no-fraction-digit", "no-exponent-digit"])
    def test_invalid_number(self, number):
        lines = CAMERA_JSON.read_text(encoding="utf-8").split("\n")
        assert lines[59].endswith('"severity_rank": 6')
        lines[59] = lines[59][:-1] + number
        assert [str(e) for e in errors_of("\n".join(lines))] == ["line 60, column 28: invalid number [Syntax]"]

    def test_surrogate_pair_escape_is_one_character(self):
        model = parse_model(MINIMAL.replace("do the thing", "do \\ud83d\\ude00 thing"))
        assert model.requirements[0].text == "do \U0001f600 thing"

    def test_integer_past_the_conversion_limit(self):
        text = MINIMAL.replace('"version": "1"', '"version": ' + "9" * 5000)
        errors = errors_of(text)
        assert [(e.line, e.column, e.code) for e in errors] == [(2, 44, "Syntax")]


_REQUIREMENT = '"id": "r1", "text": "do the thing"'


class TestDuplicateKeys:
    """Each repeat reported at its own key, the same as the positional reader reports it."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param(
                MINIMAL.replace(_REQUIREMENT, '"id": "r1", "id": "r2", "id": "r3", "text": "do the thing"'),
                [
                    "line 3, column 33: duplicate key 'id' [DuplicateKey]",
                    "line 3, column 45: duplicate key 'id' [DuplicateKey]",
                ],
                id="three-times",
            ),
            pytest.param(
                MINIMAL.replace('"version": "1"},', '"version": "1"}, "meta": {"product": "a", "product": "b"},'),
                [
                    "line 2, column 50: duplicate key 'meta' [DuplicateKey]",
                    "line 2, column 75: duplicate key 'product' [DuplicateKey]",
                ],
                id="in-the-discarded-binding",
            ),
            pytest.param(
                MINIMAL.replace('{\n  "meta"', '{\n  "notes": {"a": 1, "a": 2},\n  "meta"'),
                [
                    "line 2, column 3: unknown key 'notes' [UnknownKey]",
                    "line 2, column 21: duplicate key 'a' [DuplicateKey]",
                ],
                id="in-an-unknown-value",
            ),
            pytest.param(
                MINIMAL.replace(
                    '"failure_modes": []',
                    '"failure_modes": [\n'
                    '    {"id": "fm1", "element": "c1", "category": "Damaged", "description": "cracked",\n'
                    '     "effects": [{"text": "no photo", "text": "dark"}], "description": "bent"}\n'
                    "  ]",
                ),
                [
                    "line 10, column 39: duplicate key 'text' [DuplicateKey]",
                    "line 10, column 57: duplicate key 'description' [DuplicateKey]",
                ],
                id="failure-mode-and-effect",
            ),
            pytest.param(
                MINIMAL.replace(_REQUIREMENT, _REQUIREMENT + ', "text": "again"').replace('"id": "c1"', '"id": "c 1"'),
                [
                    "line 3, column 57: duplicate key 'text' [DuplicateKey]",
                    "line 5, column 25: components[0].id: ids use letters, digits, '_' and '-' only, got 'c 1' [InvalidId]",
                ],
                id="with-an-invalid-id",
            ),
        ],
    )
    def test_each_repeat_at_its_key(self, text, expected):
        assert [str(e) for e in errors_of(text)] == expected
        assert _outcome(parse_model, text) == _outcome(_reader_route, text)


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
        assert [str(e) for e in errors_of("[1, 2]")] == ["line 1, column 1: expected an object [Type]"]

    def test_root_without_meta(self):
        text = MINIMAL.replace('"meta": {"product": "widget", "version": "1"},', "")
        assert [str(e) for e in errors_of(text)] == ["line 1, column 1: missing required key 'meta' [MissingKey]"]


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

    def test_every_failure_mode_category_is_located(self):
        data, _ = gen.bulk_model(5, n=200)
        for fm in data["failure_modes"]:
            fm["category"] = "Nonsense"
        text = gen.canonical(data)
        lines = text.split("\n")
        expected = [
            (number, line.index('"Nonsense"') + 1, "UnknownCategory")
            for number, line in enumerate(lines, start=1)
            if line.lstrip().startswith('"category": ')
        ]
        assert len(expected) == len(data["failure_modes"])
        assert [(e.line, e.column, e.code) for e in errors_of(text)] == expected

    def test_path_leaving_the_document_falls_back_to_its_longest_prefix(self):
        locator = _Locator(MINIMAL)
        record = locator.offset(("requirements", 0))
        assert MINIMAL[record] == "{"
        assert locator.offset(("requirements", 0, "priority", 2)) == record
        assert locator.offset(("requirements", 0, "id", 0)) == locator.offset(("requirements", 0, "id"))
        assert locator.offset(("requirements", 7)) == locator.offset(("requirements",))
        assert locator.offset(("notes", 0)) == 0  # line 1, column 1


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
        # constructors do not check: a rank's range and a severity class
        # are validation findings. (A concept and a method text are strings
        # or None; the constructors refuse anything else.)
        fm = FailureMode(
            "fm1",
            "c1",
            "Damaged",
            "broken",
            effects=(Effect("e", severity_class=False, severity_rank=True),),
            causes=(Cause("c", occurrence_rank=3.5),),
            control=ControlPlan("DesignAnalysis", detection_rank=-0.0),
        )
        model = DesignModel(meta=Meta("p", "1"), components=(Component("c1", "part"),), failure_modes=(fm,))
        out = serialize_model(model)
        for member in (
            '"severity_class": false',
            '"severity_rank": true',
            '"occurrence_rank": 3.5',
            '"detection_rank": -0.0',
        ):
            assert member in out
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
        with pytest.raises(ValueError, match="expected a string"):
            Component("c1", "part", concept=True)
        with pytest.raises(ValueError, match="expected a string"):
            ControlPlan("DesignAnalysis", method_text=1e100)

    def test_a_container_in_a_scalar_slot_is_a_type_error(self):
        fm = FailureMode("fm1", "c1", "Damaged", "broken", effects=(Effect("e", severity_class=["x"]),))
        model = DesignModel(meta=Meta("p", "1"), components=(Component("c1", "part"),), failure_modes=(fm,))
        with pytest.raises(TypeError):
            serialize_model(model)
        with pytest.raises(ValueError, match="expected a string"):
            Component("c1", "part", concept=["x"])

    # A top-level array is joined in chunks of at least ``_CHUNK`` pieces, cut
    # after an item. An edge writes two pieces, so rf and fc with out-degree 4
    # end a chunk exactly at ``edge_boundary`` elements per class; a
    # requirement or a component writes three, so those arrays end one exactly
    # at ``element_boundary``. The sizes on either side end just before and
    # just after a chunk boundary.
    edge_boundary, element_boundary = rio._CHUNK // (2 * gen.OUT_DEGREE), -(-rio._CHUNK // 3)

    @pytest.mark.parametrize(
        "shape, seed, size",
        [
            pytest.param(shape, seed, size, id=f"{shape}-{seed}")
            for shape, seed, size in (("bulk", 1, 60), ("bulk", 2, 60), ("bulk", 3, 60), ("star", 1, 200))
        ]
        + [
            pytest.param("bulk", 4, size, id=f"bulk-4-n{size}")
            for boundary in (edge_boundary, element_boundary)
            for size in (boundary - 1, boundary, boundary + 1)
        ],
    )
    def test_bench_models_keep_their_bytes(self, shape, seed, size):
        # The generator writes every optional field in README key order,
        # through the stdlib encoder.
        data, _ = gen.bulk_model(seed, n=size) if shape == "bulk" else gen.star_model(seed, degree=size)
        text = gen.canonical(data)
        assert serialize_model(parse_model(text)) == text


class TestBenchInvalidDocuments:
    """Each benchmark invalid document gives the error its generator recorded."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recorded_code_and_position(self, seed):
        _, _, docs = gen.invalid_documents(seed, n=30)
        assert {doc.kind for doc in docs} == set(gen.ERROR_KINDS)
        for doc in docs:
            if doc.exit_code == 2:
                assert [(e.line, e.column, e.code) for e in errors_of(doc.text)] == [(doc.line, doc.column, doc.code)]
            else:
                report = validate_model(parse_model(doc.text), ANALYSIS_READY)
                assert [(f.path_str, f.code) for f in report.errors] == [(doc.path, doc.code)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_duplicate_keys_need_no_positional_reader(self, seed, monkeypatch):
        def no_reader(*args):
            raise AssertionError("a duplicate key sent the document to the positional reader")

        monkeypatch.setattr("riskforge.io._Reader", no_reader)
        docs = [doc for doc in gen.invalid_documents(seed, n=30)[2] if doc.kind == "duplicate_key"]
        assert docs
        for doc in docs:
            assert [(e.line, e.column, e.code) for e in errors_of(doc.text)] == [(doc.line, doc.column, doc.code)]


def _mutants(text, count, seed):
    """``count`` single-character mutants of ``text``: a non-blank character replaced or deleted,
    or a character inserted before it."""
    rng = random.Random(seed)
    spots = [m.start() for m in re.finditer(r"\S", text)]
    for _ in range(count):
        at, ch = rng.choice(spots), rng.choice('"{}[],:019-_aZ \\\xe9\u3000\x1c')
        yield text[:at] + ("", ch, ch + text[at])[rng.randrange(3)] + text[at + 1 :]


def _parse_outcome(text):
    """The canonical text of the parsed model, or each parse error's line, column, code and message."""
    try:
        return serialize_model(parse_model(text))
    except ParseFailure as exc:
        return "\n".join(f"{e.line}:{e.column}:{e.code}:{e.message}" for e in exc.errors)


class TestParseOutcomeDigest:
    """Every outcome of parsing the bench's invalid documents and a few hundred mutants of a
    small bulk model, pinned as one digest: models, codes, messages and positions alike."""

    #: Taken before the model constructors ran an accept test ahead of their helpers.
    DIGEST = "206d36842390f9548d0448b2d0c45d4b358672db2dc159f6a5fc395aade96bd5"

    def test_outcomes_are_unchanged(self):
        texts = [doc.text for doc in gen.invalid_documents(1)[2]]
        texts += _mutants(gen.canonical(gen.bulk_model(101, n=12)[0]), 400, seed=101)
        digest = hashlib.sha256()
        for text in texts:
            digest.update(_parse_outcome(text).encode("utf-8", "surrogatepass") + b"\0")
        assert digest.hexdigest() == self.DIGEST


class TestAcceptPath:
    """A sound document builds every record through its constructor's accept test alone."""

    #: The model helpers that reject a value and word the problem.
    HELPERS = (
        "_id", "_text", "_utf8", "_choice", "_optional_utf8", "_writable", "_integer", "_record", "_held", "_check"
    )

    @pytest.mark.parametrize("seed", [None, 3, 4], ids=["camera", "bulk-3", "bulk-4"])
    def test_no_helper_runs(self, seed, monkeypatch):
        text = CAMERA_JSON.read_text(encoding="utf-8") if seed is None else gen.canonical(gen.bulk_model(seed, n=40)[0])
        calls = Counter()
        for name in self.HELPERS:

            def counted(*args, _call=getattr(rmodel, name), _name=name):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(rmodel, name, counted)
        # The bulk generator's prose holds non-ASCII words, which the accept test takes too.
        assert text.isascii() is (seed is None)
        parse_model(text)
        assert calls == Counter()
        with pytest.raises(ValueError):
            Requirement("r 1", "text")
        assert calls == Counter(_id=1, _text=1, _check=1)


# ---------------------------------------------------------------------------
# Differential properties: the stdlib decoder route against the positional
# reader route, the positional reader against the stdlib decoder, and the
# locator's offsets against the stdlib decoder.


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


def _shadowed_key(text, rng):
    """A member repeated before itself with another value, so its first binding differs."""
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines) if re.match(r'\s*"\w+": .*,$', line)]
    if not candidates:
        return text
    i = rng.choice(candidates)
    key = lines[i].split(":", 1)[0]
    value = rng.choice(["0", "null", "[]", "{}", '""'])
    return "\n".join(lines[:i] + [f"{key}: {value},"] + lines[i:])


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


def _reader_route(text):
    """``parse_model`` with the positional reader in place of the stdlib decoder."""
    return _model_from(text, *_read(text))[0]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseFailure as exc:
        return exc.errors


class TestFastPathMatchesFailurePath:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mutation=st.sampled_from((None, _shadowed_key) + MUTATIONS),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_model_or_same_errors(self, seed, mutation):
        rng = random.Random(seed)
        text = serialize_model(random_model(rng))
        if mutation is not None:
            text = mutation(text, rng)
        positioned = _outcome(_reader_route, text)
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
        return json.dumps(_Reader(text, []).parse_document())
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


def _paths(data, path=()):
    """Every (path, value) in a JSON tree, the root first."""
    yield path, data
    if isinstance(data, (dict, list)):
        for key, value in data.items() if isinstance(data, dict) else enumerate(data):
            yield from _paths(value, path + (key,))


class TestLocator:
    """The locator's offsets, read back with the stdlib decoder."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mutation=st.sampled_from((None, _shadowed_key) + MUTATIONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_offsets_name_the_first_binding_values(self, seed, mutation):
        rng = random.Random(seed)
        model = random_model(rng)
        text = serialize_model(with_random_prose(model, rng) if rng.random() < 0.5 else model)
        text = rng.choice(["", " ", "\n\t"]) + text
        if mutation is not None:
            text = mutation(text, rng)
        try:
            data = json.loads(text, object_pairs_hook=_first_binding, parse_constant=_reject)
        except ValueError:
            return  # Only text that parses as JSON has values to locate.
        decoder = json.JSONDecoder(object_pairs_hook=_first_binding)
        locator = _Locator(text)
        assert locator.offset(("zz_missing", 0)) == 0
        for path, value in _paths(data):
            at = locator.offset(path)
            assert decoder.raw_decode(text, at)[0] == value
            if isinstance(value, dict):
                keys = [locator.offset(path, key) for key in value]
                values = [locator.offset(path + (key,)) for key in value]
                for key, key_at in zip(value, keys):
                    assert text[key_at] == '"' and decoder.raw_decode(text, key_at)[0] == key
                members = [at] + [offset for pair in zip(keys, values) for offset in pair]
                assert members == sorted(set(members))
                missing = path + ("zz_missing", 1)
            elif isinstance(value, list):
                items = [locator.offset(path + (index,)) for index in range(len(value))]
                assert [at] + items == sorted(set([at] + items))
                missing = path + (len(value), "id")
            else:
                missing = path + (0,)
            assert locator.offset(missing) == (at if path else 0)
        # Reads resume part-way through a container: any order gives the same offsets.
        queries = []
        for path, value in _paths(data):
            queries.append((path, None))
            if isinstance(value, dict):
                queries += [(path, key) for key in value]
        in_document_order = {query: locator.offset(*query) for query in queries}
        rng.shuffle(queries)
        shuffled = _Locator(text)
        assert {query: shuffled.offset(*query) for query in queries} == in_document_order


class TestLocatorWork:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_skips_nothing_at_or_after_what_it_locates(self, seed, monkeypatch):
        """A container is read only up to the member a path needs: every value the locator
        skips ends at or before the offset it returns."""
        spans, offsets = [], []
        skip, offset = _Locator._skip, _Locator.offset

        def recording_skip(self, pos):
            end = skip(self, pos)
            spans.append((pos, end))
            return end

        def recording_offset(self, *args):
            offsets.append(offset(self, *args))
            return offsets[-1]

        monkeypatch.setattr(_Locator, "_skip", recording_skip)
        monkeypatch.setattr(_Locator, "offset", recording_offset)
        located = 0
        for doc in gen.invalid_documents(seed, n=30)[2]:
            spans.clear()
            offsets.clear()
            _outcome(parse_model, doc.text)
            if offsets:
                located += 1
                assert spans and all(end <= max(offsets) for _, end in spans), doc.kind
        assert located == 20  # every parse error but the syntax errors


def _reporting_route(text):
    """``parse_model`` with every item walked by the reporting code, none built inline."""

    def miss(*args):
        raise rio._Miss

    with mock.patch.multiple(rio, **{name: miss for name in vars(rio) if name.startswith("_sound_")}):
        return _outcome(parse_model, text)


class TestInlineWalkMatchesReportingWalk:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mutation=st.sampled_from((None, _shadowed_key) + MUTATIONS),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_model_or_same_errors(self, seed, mutation):
        rng = random.Random(seed)
        text = serialize_model(with_random_prose(random_model(rng), rng))
        if mutation is not None:
            text = mutation(text, rng)
        assert _outcome(parse_model, text) == _reporting_route(text)

    @pytest.mark.parametrize(
        "record",
        [
            '{"text": "t", "severity_class": null}',
            '{"text": "t", "severity_rank": true}',
            '{"text": "t", "severity_rank": 2.0}',
            '{"text": "t", "severity_rank": 3, "severity_rank": 3}',
            '{"severity_rank": 3}',
            '{"text": "t", "extra": 1}',
            '["t"]',
        ],
    )
    def test_each_shape_miss_of_a_nested_record(self, record):
        data = json.loads(CAMERA_JSON.read_text(encoding="utf-8"))
        data["failure_modes"][-1]["effects"].append("@@record@@")
        text = json.dumps(data, indent=2).replace('"@@record@@"', record)
        assert isinstance(_outcome(parse_model, text), tuple)
        assert _outcome(parse_model, text) == _reporting_route(text)

    def test_pairs_of_three_items(self):
        data = json.loads(CAMERA_JSON.read_text(encoding="utf-8"))
        data["rf"].append(data["rf"][0] + data["rf"][0][1:])
        next(fm for fm in data["failure_modes"] if fm.get("causes"))["causes"][0]["frequency"] = [1, 50, 3]
        text = json.dumps(data, indent=2)
        assert [e.code for e in errors_of(text)] == ["InvalidValue", "InvalidValue"]
        assert _outcome(parse_model, text) == _reporting_route(text)


# Each record's shape table, with an object of that shape holding every
# optional key in file order, and its inline builder (meta has none: the walk
# reads the one meta object through its table). The objects make a sound
# model together: the failure mode is on component c1, and each rank is in
# its band.
_FLOW_ITEM = {"description": "d", "kind": "energy"}
_EFFECT_ITEM = {"text": "t", "severity_class": "Invisible", "severity_rank": 1}
_CAUSE_ITEM = {"text": "t", "occurrence_rank": 8, "frequency": [1, 50]}
_CONTROL_ITEM = {"method_class": "DesignAnalysis", "method_text": "m", "detection_rank": 8}
FULL_ITEMS = {
    "_META": ({"product": "p", "version": "1"}, None),
    "_REQUIREMENT": ({"id": "r1", "text": "t"}, rio._sound_requirement),
    "_FLOW": (_FLOW_ITEM, rio._sound_flow),
    "_FUNCTION": (
        {"id": "f1", "verb": "v", "noun": "n", "inputs": [_FLOW_ITEM], "outputs": [_FLOW_ITEM]},
        rio._sound_function,
    ),
    "_COMPONENT": ({"id": "c1", "name": "n", "concept": "x"}, rio._sound_component),
    "_EFFECT": (_EFFECT_ITEM, rio._sound_effect),
    "_CAUSE": (_CAUSE_ITEM, rio._sound_cause),
    "_CONTROL": (_CONTROL_ITEM, rio._sound_control),
    "_FAILURE_MODE": (
        {
            "id": "fm1",
            "element": "c1",
            "category": "Damaged",
            "description": "d",
            "effects": [_EFFECT_ITEM],
            "causes": [_CAUSE_ITEM],
            "control": _CONTROL_ITEM,
        },
        lambda value: rio._sound_failure_mode({}, value),
    ),
}

#: Values of the wrong JSON type for a checked slot, by its read.
WRONG_TYPES = {rio._string: [None, 5, ["x"]], rio._integer: [None, "5", True, 2.0, [1]]}


def _walked(shape, value):
    """``_walk_record``'s record for ``value`` and the problems it filed, as (path, key, code)."""
    w = rio._Walker()
    record = rio._walk_record(w, value, ("x",), shape)
    return record, [(path, key, code) for path, key, code, _ in w.problems]


class TestShapeTables:
    """The hand-written builders and writers against each record's one shape table."""

    def test_every_table_is_pinned_in_file_order(self):
        tables = {name for name, value in vars(rio).items() if isinstance(value, rio._Shape)}
        assert tables == set(FULL_ITEMS)
        for name, (item, _) in FULL_ITEMS.items():
            assert list(item) == [key for key, _ in getattr(rio, name).keys], name

    @pytest.mark.parametrize("name", [name for name in FULL_ITEMS if FULL_ITEMS[name][1]])
    def test_builder_and_reporting_walk_build_equal_records(self, name):
        item, sound = FULL_ITEMS[name]
        record, problems = _walked(getattr(rio, name), copy.deepcopy(item))
        assert problems == [] and record is not None
        assert sound(copy.deepcopy(item)) == record

    @pytest.mark.parametrize("name", list(FULL_ITEMS))
    def test_each_typed_slot_and_an_unknown_key_miss_the_builder(self, name):
        item, sound = FULL_ITEMS[name]
        shape = getattr(rio, name)
        cases = [(key, wrong, "Type") for key, read in shape.keys for wrong in WRONG_TYPES.get(read, ())]
        cases.append(("notes", 1, "UnknownKey"))
        for key, wrong, code in cases:
            value = {**copy.deepcopy(item), key: wrong}
            if sound is not None:
                with pytest.raises(rio._Miss):
                    sound(copy.deepcopy(value))
            where = (("x",), key) if code == "UnknownKey" else (("x", key), None)
            assert _walked(shape, value)[1] == [(*where, code)], (key, wrong)

    def test_writers_follow_each_table(self):
        items = {name: item for name, (item, _) in FULL_ITEMS.items()}
        document = {
            "meta": items["_META"],
            "requirements": [items["_REQUIREMENT"]],
            "functions": [items["_FUNCTION"]],
            "components": [items["_COMPONENT"]],
            "rf": [["r1", "f1"]],
            "fc": [["f1", "c1"]],
            "failure_modes": [items["_FAILURE_MODE"]],
        }
        data = json.loads(serialize_model(parse_model(json.dumps(document))))
        assert data == document
        fm = data["failure_modes"][0]
        written = {
            "_META": data["meta"],
            "_REQUIREMENT": data["requirements"][0],
            "_FLOW": data["functions"][0]["inputs"][0],
            "_FUNCTION": data["functions"][0],
            "_COMPONENT": data["components"][0],
            "_EFFECT": fm["effects"][0],
            "_CAUSE": fm["causes"][0],
            "_CONTROL": fm["control"],
            "_FAILURE_MODE": fm,
        }
        assert set(written) == set(FULL_ITEMS)
        for name, record in written.items():
            assert list(record) == [key for key, _ in getattr(rio, name).keys], name


class TestThreadSafety:
    def test_threads_share_the_decoder(self):
        clean = CAMERA_JSON.read_text(encoding="utf-8")
        repeated = clean.replace('"id": "fm_photo",', '"id": "fm_photo",\n      "id": "fm_photo",', 1)
        assert repeated != clean
        texts = [clean, repeated]
        serial = [_outcome(parse_model, text) for text in texts]
        assert isinstance(serial[0], DesignModel) and [e.code for e in serial[1]] == ["DuplicateKey"]
        results: list[list] = [[] for _ in range(8)]
        deadline = time.monotonic() + 1.0

        def work(out):
            for i in range(200):
                if time.monotonic() > deadline:
                    break
                try:
                    out.append((i % 2, _outcome(parse_model, texts[i % 2])))
                except Exception as exc:  # Reported below, against the serial outcome.
                    out.append((i % 2, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(results)
        for out in results:
            for which, outcome in out:
                assert outcome == serial[which]

    def test_concurrent_parses_keep_their_own_ids(self):
        # Two models with the same ids: a table of ids shared across calls
        # would give one model's edges the other's id objects.
        texts = [gen.canonical(gen.bulk_model(seed, n=60)[0]) for seed in (1, 2)]
        serial = [parse_model(text) for text in texts]
        assert serial[0] != serial[1]
        results: list[list] = [[] for _ in range(4)]
        barrier = threading.Barrier(len(results))

        def work(which, out):
            barrier.wait()
            for _ in range(5):
                out.append(_outcome(parse_model, texts[which]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i % 2, out)) for i, out in enumerate(results)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i, out in enumerate(results):
            assert len(out) == 5
            for model in out:
                assert model == serial[i % 2]
                _assert_shared_strings(model)


def _assert_shared_strings(model):
    """Each reference is its element's own id object; each vocabulary token is the module's constant."""
    ids = {element.id: element.id for element in (*model.requirements, *model.functions, *model.components)}
    for edge in model.rf + model.fc:
        assert edge.source is ids[edge.source] and edge.target is ids[edge.target]
    vocabulary = {name: name for names in (ALL_CATEGORY_NAMES, ALL_SEVERITY_CLASS_NAMES) for name in names}
    vocabulary.update({name: name for name in CONTROL_METHOD_CLASSES + FLOW_KINDS})
    for fm in model.failure_modes:
        assert fm.element is ids[fm.element]
        assert fm.category is vocabulary[fm.category]
        assert all(e.severity_class is vocabulary[e.severity_class] for e in fm.effects if e.severity_class)
        assert fm.control is None or fm.control.method_class is vocabulary[fm.control.method_class]
    for function in model.functions:
        assert all(flow.kind is vocabulary[flow.kind] for flow in function.inputs + function.outputs)


@pytest.fixture(scope="module")
def bulk_text():
    return gen.canonical(gen.bulk_model(11, n=200)[0])


class TestMemory:
    """What a parsed model keeps and what serialization holds at its peak, from tracemalloc's counts."""

    def test_references_share_their_strings(self, bulk_text):
        _assert_shared_strings(parse_model(bulk_text))

    def test_parsed_model_is_smaller_than_its_text(self, bulk_text):
        parse_model(bulk_text)  # Anything a first parse leaves behind is not the model.
        tracemalloc.start()
        try:
            model = parse_model(bulk_text)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert isinstance(model, DesignModel)
        assert kept <= 0.95 * sys.getsizeof(bulk_text)

    def test_serialization_peak_stays_near_its_result(self, bulk_text):
        model = parse_model(bulk_text)
        serialize_model(model)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = serialize_model(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == bulk_text
        assert peak - start <= 1.8 * sys.getsizeof(out)
