"""Domain type construction rules and basic model lookups."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforge import (
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Domain,
    Effect,
    FailureMode,
    Flow,
    Frequency,
    Function,
    MappingEdge,
    Meta,
    Requirement,
    UnknownElement,
    UnknownFailureMode,
    allowed_categories,
    element_domain,
    element_text,
)
from riskforge.model import get_failure_mode


class TestAllowedCategories:
    def test_requirement_categories(self):
        assert allowed_categories(Domain.REQUIREMENT) == {
            "Absence",
            "Incompleteness",
            "Intermittence",
            "Incorrectness",
            "ImproperOccurrence",
        }

    def test_function_categories(self):
        assert allowed_categories(Domain.FUNCTION) == {
            "Malfunction",
            "Interference",
            "Decayed",
            "Incompleteness",
            "Incorrectness",
        }

    def test_component_categories(self):
        assert allowed_categories(Domain.COMPONENT) == {
            "Damaged",
            "LossOfEfficiency",
            "EMI",
            "NonCompatible",
        }

    def test_cardinalities_are_fixed(self):
        assert len(allowed_categories(Domain.REQUIREMENT)) == 5
        assert len(allowed_categories(Domain.FUNCTION)) == 5
        assert len(allowed_categories(Domain.COMPONENT)) == 4

    def test_accepts_plain_strings(self):
        assert allowed_categories("component") == allowed_categories(Domain.COMPONENT)


class TestElementDomain:
    def test_lookup_each_class(self, camera_model):
        assert element_domain(camera_model, "r_photo") is Domain.REQUIREMENT
        assert element_domain(camera_model, "f_exec") is Domain.FUNCTION
        assert element_domain(camera_model, "c_cam") is Domain.COMPONENT

    def test_unknown_id(self, camera_model):
        with pytest.raises(UnknownElement):
            element_domain(camera_model, "zz")

    def test_failure_mode_id_is_not_an_element(self, camera_model):
        with pytest.raises(UnknownElement):
            element_domain(camera_model, "fm_damage")

    def test_element_text(self, camera_model):
        assert element_text(camera_model, "r_photo") == "Take photos at any time"
        assert element_text(camera_model, "f_exec") == "execute camera module"
        assert element_text(camera_model, "c_cam") == "Camera module"

    def test_failure_mode_lookup(self, camera_model):
        assert get_failure_mode(camera_model, "fm_exec").element == "f_exec"
        with pytest.raises(UnknownFailureMode):
            get_failure_mode(camera_model, "nope")


class TestConstructionRules:
    def test_empty_requirement_text_rejected(self):
        with pytest.raises(ValueError):
            Requirement("r1", "   ")

    @pytest.mark.parametrize("bad_id", ["", "has space", "semi;colon", "a.b", None, 7, "r1\n"])
    def test_bad_id_tokens_rejected(self, bad_id):
        with pytest.raises(ValueError):
            Requirement(bad_id, "text")

    def test_id_tokens_accept_the_full_charset(self):
        Requirement("Req_01-a", "text")

    def test_blank_failure_mode_category_rejected(self):
        with pytest.raises(ValueError):
            FailureMode("fm1", "r1", "  ", "missing entirely")

    def test_every_bad_field_is_reported_in_one_value_error(self):
        with pytest.raises(ValueError) as excinfo:
            Requirement("r 1", "  ")
        assert [(field, code) for field, code, _ in excinfo.value.problems] == [
            ("id", "InvalidId"),
            ("text", "EmptyText"),
        ]
        assert str(excinfo.value) == (
            "Requirement['id']: ids use letters, digits, '_' and '-' only, got 'r 1';"
            " Requirement['text']: must not be empty"
        )

    def test_function_needs_verb_and_noun(self):
        with pytest.raises(ValueError):
            Function("f1", "", "noun")
        with pytest.raises(ValueError):
            Function("f1", "verb", " ")

    def test_flow_kind_is_closed(self):
        Flow("signal", "information")
        with pytest.raises(ValueError):
            Flow("signal", "data")

    def test_control_class_is_closed(self):
        ControlPlan("NoApparentMethod")
        with pytest.raises(ValueError):
            ControlPlan("Inspection")

    @pytest.mark.parametrize("numerator,denominator", [(0, 10), (1, 0), (-1, 5), (1, -5)])
    def test_frequency_must_be_positive(self, numerator, denominator):
        with pytest.raises(ValueError):
            Frequency(numerator, denominator)

    def test_frequency_is_exact(self):
        from fractions import Fraction

        assert Frequency(1, 1250).as_fraction() == Fraction(1, 1250)
        assert str(Frequency(3, 10)) == "3/10"

    def test_cause_and_effect_need_text(self):
        with pytest.raises(ValueError):
            Cause("")
        with pytest.raises(ValueError):
            Effect(" ")

    @pytest.mark.parametrize(
        "cls, args, field",
        [
            (Meta, ("p\udc80", "1"), "product"),
            (Meta, ("p", "\udc80"), "version"),
            (Requirement, ("r1", "x\udc80"), "text"),
            (Flow, ("signal \udc80", "information"), "description"),
            (Function, ("f1", "do", "th\udc80ng"), "noun"),
            (Component, ("c1", "part", "conc\udc80pt"), "concept"),
            (Cause, ("why \udc80",), "text"),
            (Effect, ("bad", "Safety\udc80"), "severity_class"),
            (ControlPlan, ("DesignAnalysis", "m\u00e9thode \udc80"), "method_text"),
            (FailureMode, ("fm1", "c1", "Damaged", "broken \udc80"), "description"),
        ],
    )
    def test_lone_surrogate_rejected(self, cls, args, field):
        # It has no UTF-8 form, so no model file or artifact could hold it.
        with pytest.raises(ValueError) as excinfo:
            cls(*args)
        assert excinfo.value.problems == [(field, "InvalidValue", "unpaired surrogate character '\\udc80'")]

    def test_surrogate_pair_and_non_ascii_text_accepted(self):
        assert Requirement("r1", "caf\u00e9 \U0001f600").text == "caf\u00e9 \U0001f600"
        assert Component("c1", "part", "\U0001f600").concept == "\U0001f600"

    def test_values_are_immutable(self, camera_model):
        with pytest.raises(dataclasses.FrozenInstanceError):
            camera_model.requirements[0].text = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            camera_model.meta = Meta("x", "y")

    def test_list_fields_normalize_to_tuples(self):
        model = DesignModel(
            meta=Meta("p", "v"),
            requirements=[Requirement("r1", "text")],
            functions=[],
            components=[],
            rf=[],
            fc=[],
            failure_modes=[
                FailureMode(
                    "fm1",
                    "r1",
                    "Absence",
                    "missing entirely",
                    causes=[Cause("why")],
                    effects=[Effect("ouch")],
                )
            ],
        )
        assert isinstance(model.requirements, tuple)
        assert isinstance(model.failure_modes[0].causes, tuple)

    def test_value_equality_covers_all_fields(self, camera_model):
        assert camera_model == make_again()
        assert camera_model != dataclasses.replace(camera_model, meta=Meta("other", "2"))


def make_again():
    from helpers import make_camera_model

    return make_camera_model()


class TestAdjacency:
    def test_edge_groupings(self, camera_model):
        assert camera_model.rf_sources == {"f_exec": ("r_photo",)}
        assert camera_model.rf_targets == {"r_photo": ("f_exec",)}
        assert camera_model.fc_sources == {"c_cam": ("f_exec",)}
        assert camera_model.fc_targets == {"f_exec": ("c_cam",)}

    def test_repeated_edges_group_once_in_first_seen_order(self, camera_model):
        edges = tuple(MappingEdge(s, t) for s, t in [("a", "x"), ("b", "x"), ("a", "x"), ("c", "x"), ("b", "x")])
        model = dataclasses.replace(camera_model, rf=edges)
        assert model.rf_sources == {"x": ("a", "b", "c")}
        assert model.rf_targets == {"a": ("x",), "b": ("x",), "c": ("x",)}

    @given(
        rf=st.lists(st.tuples(st.sampled_from("abcxy"), st.sampled_from("abcxy")), max_size=12),
        fc=st.lists(st.tuples(st.sampled_from("abcxy"), st.sampled_from("abcxy")), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_groupings_match_a_brute_force_grouping(self, rf, fc):
        # Ids need not name elements here: self-edges, repeats and either direction all group the same way.
        model = DesignModel(
            Meta("p", "1"), rf=tuple(MappingEdge(s, t) for s, t in rf), fc=tuple(MappingEdge(s, t) for s, t in fc)
        )

        def grouped(pairs):
            out = []
            for key, _ in pairs:
                if key not in [done for done, _ in out]:
                    values = []
                    for other, value in pairs:
                        if other == key and value not in values:
                            values.append(value)
                    out.append((key, tuple(values)))
            return out

        def flipped(pairs):
            return [(t, s) for s, t in pairs]

        assert list(model.rf_sources.items()) == grouped(flipped(rf))
        assert list(model.rf_targets.items()) == grouped(rf)
        assert list(model.fc_sources.items()) == grouped(flipped(fc))
        assert list(model.fc_targets.items()) == grouped(fc)

    def test_failure_modes_of(self, camera_model):
        assert [fm.id for fm in camera_model.failure_modes_of("c_cam")] == ["fm_damage"]
        assert camera_model.failure_modes_of("missing") == ()
