"""Domain type construction rules and basic model lookups."""

import dataclasses

import pytest

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

    @pytest.mark.parametrize("bad_id", ["", "has space", "semi;colon", "a.b", None, 7])
    def test_bad_id_tokens_rejected(self, bad_id):
        with pytest.raises(ValueError):
            Requirement(bad_id, "text")

    def test_id_tokens_accept_the_full_charset(self):
        Requirement("Req_01-a", "text")

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

    def test_failure_modes_of(self, camera_model):
        assert [fm.id for fm in camera_model.failure_modes_of("c_cam")] == ["fm_damage"]
        assert camera_model.failure_modes_of("missing") == ()
