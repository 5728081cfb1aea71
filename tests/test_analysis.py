"""Propagation, row assembly, tracing, and the enumeration oracle."""

import json

import pytest

from helpers import camera_cut_off_from_its_requirement
from riskforge import (
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Domain,
    Effect,
    FailureMode,
    Frequency,
    Function,
    MappingEdge,
    Meta,
    MissingDetection,
    MissingOccurrence,
    MissingSeverity,
    Requirement,
    UnknownFailureMode,
    analyze,
    assign_detection,
    backward_occurrence,
    forward_severity,
    oracle_propagate,
    parse_model,
    trace,
)
from riskforge.analysis import resolve_fm_detection, resolve_fm_occurrence, resolve_fm_severity


def model_of(requirements=(), functions=(), components=(), rf=(), fc=(), fms=()):
    return DesignModel(
        meta=Meta("t", "1"),
        requirements=tuple(Requirement(rid, f"requirement {rid}") for rid in requirements),
        functions=tuple(Function(fid, "do", f"duty {fid}") for fid in functions),
        components=tuple(Component(cid, f"part {cid}") for cid in components),
        rf=tuple(MappingEdge(s, t) for s, t in rf),
        fc=tuple(MappingEdge(s, t) for s, t in fc),
        failure_modes=tuple(fms),
    )


def sev_fm(fm_id, element, *ranks, classes=()):
    effects = tuple(Effect(f"effect {i}", severity_rank=r) for i, r in enumerate(ranks))
    effects += tuple(Effect(f"class effect {i}", severity_class=c) for i, c in enumerate(classes))
    category = {"r": "Absence", "f": "Malfunction", "c": "Damaged"}[element[0]]
    return FailureMode(fm_id, element, category, f"failure {fm_id}", effects=effects)


class TestFmSeverity:
    def test_max_of_given_ranks(self):
        model = model_of(requirements=["r1"], fms=[sev_fm("fm1", "r1", 7, 5)])
        assert resolve_fm_severity(model, model.failure_modes[0]) == 7

    def test_class_resolves_to_band_maximum(self):
        model = model_of(components=["c1"], fms=[sev_fm("fm1", "c1", classes=["SafetyIssue"])])
        assert resolve_fm_severity(model, model.failure_modes[0]) == 10

    def test_explicit_rank_wins_over_class(self):
        model = model_of(
            components=["c1"],
            fms=[
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    effects=(Effect("bad", severity_class="SafetyIssue", severity_rank=9),),
                )
            ],
        )
        assert resolve_fm_severity(model, model.failure_modes[0]) == 9

    def test_no_effects_raises(self):
        model = model_of(requirements=["r1"], fms=[sev_fm("fm1", "r1")])
        assert resolve_fm_severity(model, model.failure_modes[0]) is None
        with pytest.raises(MissingSeverity) as excinfo:
            analyze(model)
        assert excinfo.value.failure_mode_id == "fm1"
        assert str(excinfo.value) == (
            'requirement failure mode "fm1" has no effect with a severity rank or class'
        )


def occ_fm(fm_id, element, *, ranks=(), frequency=None):
    causes = tuple(Cause(f"cause {i}", occurrence_rank=r) for i, r in enumerate(ranks))
    if frequency is not None:
        causes += (Cause("frequency cause", frequency=Frequency(*frequency)),)
    return FailureMode(
        fm_id,
        element,
        "Damaged",
        f"failure {fm_id}",
        causes=causes,
        effects=(Effect("bad", severity_rank=5),),
        control=ControlPlan("RealLifeProductTest"),
    )


class TestFmOccurrence:
    def test_max_of_given_ranks(self):
        fm = occ_fm("fm1", "c1", ranks=(3, 6))
        assert resolve_fm_occurrence(fm) == 6

    def test_frequency_resolves_through_the_band(self):
        fm = occ_fm("fm1", "c1", frequency=(1, 10))
        assert resolve_fm_occurrence(fm) == 10

    def test_unrated_causes_raise(self):
        fm = FailureMode(
            "fm1", "c1", "Damaged", "broken",
            causes=(Cause("mystery"),),
            control=ControlPlan("RealLifeProductTest"),
        )
        assert resolve_fm_occurrence(fm) is None
        with pytest.raises(MissingOccurrence) as excinfo:
            analyze(model_of(components=["c1"], fms=[fm]))
        assert excinfo.value.failure_mode_id == "fm1"
        assert str(excinfo.value) == (
            'component failure mode "fm1" has no cause with an occurrence rank or frequency'
        )


class TestFmDetection:
    def test_explicit_rank(self):
        fm = occ_fm("fm1", "c1", ranks=(5,))
        assert resolve_fm_detection(fm) == 1

    def test_class_only_control(self):
        fm = FailureMode(
            "fm1", "c1", "Damaged", "broken", control=ControlPlan("DesignAnalysis")
        )
        assert resolve_fm_detection(fm) == 8

    def test_no_control_raises(self):
        fm = FailureMode(
            "fm1", "c1", "Damaged", "broken",
            causes=(Cause("why", occurrence_rank=5),),
            effects=(Effect("bad", severity_rank=5),),
        )
        assert resolve_fm_detection(fm) is None
        # Detection is checked on component leaves even when rows would
        # not propagate it.
        with pytest.raises(MissingDetection) as excinfo:
            analyze(model_of(components=["c1"], fms=[fm]), propagate_detection=False)
        assert excinfo.value.failure_mode_id == "fm1"
        assert str(excinfo.value) == 'component failure mode "fm1" has no control plan'


class TestForwardSeverity:
    def test_function_takes_the_max_of_its_requirements_and_itself(self):
        model = model_of(
            requirements=["r1", "r2"],
            functions=["f1"],
            rf=[("r1", "f1"), ("r2", "f1")],
            fms=[sev_fm("fm1", "r1", 8), sev_fm("fm2", "r2", 5), sev_fm("fm3", "f1", 6)],
        )
        smap = forward_severity(model)
        assert smap["f1"] == 8
        assert smap["r1"] == 8
        assert smap["r2"] == 5

    def test_single_requirement(self):
        model = model_of(requirements=["r1"], fms=[sev_fm("fm1", "r1", 4)])
        assert forward_severity(model) == {"r1": 4}

    def test_chain_carries_the_requirement_severity_down(self):
        leaf = FailureMode(
            "fm3", "c1", "Damaged", "failure fm3",
            causes=(Cause("why", occurrence_rank=1),),
            effects=(Effect("bad", severity_rank=3),),
            control=ControlPlan("RealLifeProductTest"),
        )
        model = model_of(
            requirements=["r1"],
            functions=["f1"],
            components=["c1"],
            rf=[("r1", "f1")],
            fc=[("f1", "c1")],
            fms=[sev_fm("fm1", "r1", 9), sev_fm("fm2", "f1", 2), leaf],
        )
        smap = forward_severity(model)
        assert smap["c1"] == 9
        oracle_smap, _, _ = oracle_propagate(model)
        assert smap == oracle_smap

    def test_unrated_requirement_mode_raises(self):
        model = model_of(requirements=["r1"], fms=[sev_fm("fm0", "r1")])
        with pytest.raises(MissingSeverity):
            forward_severity(model)

    def test_elements_without_contributors_are_excluded(self):
        model = model_of(requirements=["r1"], functions=["f1"], fms=[sev_fm("fm1", "r1", 5)])
        assert "f1" not in forward_severity(model)


class TestBackwardOccurrence:
    def test_function_takes_the_max_of_its_components(self):
        model = model_of(
            functions=["f1"],
            components=["c1", "c2"],
            fc=[("f1", "c1"), ("f1", "c2")],
            fms=[occ_fm("fm1", "c1", ranks=(7,)), occ_fm("fm2", "c2", ranks=(4,))],
        )
        omap = backward_occurrence(model)
        assert omap["f1"] == 7

    def test_single_component(self):
        model = model_of(components=["c1"], fms=[occ_fm("fm1", "c1", ranks=(3,))])
        assert backward_occurrence(model) == {"c1": 3}

    def test_requirement_spans_two_branches(self):
        model = model_of(
            requirements=["r1"],
            functions=["f1", "f2"],
            components=["c1", "c2"],
            rf=[("r1", "f1"), ("r1", "f2")],
            fc=[("f1", "c1"), ("f2", "c2")],
            fms=[occ_fm("fm1", "c1", ranks=(2,)), occ_fm("fm2", "c2", ranks=(9,))],
        )
        omap = backward_occurrence(model)
        assert omap["r1"] == 9
        _, oracle_omap, _ = oracle_propagate(model)
        assert omap == oracle_omap

    def test_authored_upper_level_occurrence_is_ignored(self):
        # A rated cause on a function failure mode never enters the map.
        fm = FailureMode(
            "fm_f", "f1", "Malfunction", "stuck",
            causes=(Cause("guess", occurrence_rank=9),),
        )
        model = model_of(
            functions=["f1"],
            components=["c1"],
            fc=[("f1", "c1")],
            fms=[fm, occ_fm("fm_c", "c1", ranks=(2,))],
        )
        assert backward_occurrence(model)["f1"] == 2

    def test_unrated_component_mode_raises(self):
        model = model_of(components=["c1"], fms=[sev_fm("fm1", "c1", 5)])
        with pytest.raises(MissingOccurrence):
            backward_occurrence(model)


def det_fm(fm_id, element, method_class, rank=None):
    return FailureMode(
        fm_id,
        element,
        "Damaged",
        f"failure {fm_id}",
        causes=(Cause("why", occurrence_rank=5),),
        effects=(Effect("bad", severity_rank=5),),
        control=ControlPlan(method_class, detection_rank=rank),
    )


class TestAssignDetection:
    def test_worst_detectability_governs(self):
        model = model_of(
            components=["c1"],
            fms=[
                det_fm("fm1", "c1", "DesignAnalysis"),
                det_fm("fm2", "c1", "PassFailOrReliabilityTest", rank=3),
            ],
        )
        assert assign_detection(model)["c1"] == 8

    def test_singleton(self):
        model = model_of(components=["c1"], fms=[det_fm("fm1", "c1", "RealLifeProductTest", rank=1)])
        assert assign_detection(model) == {"c1": 1}

    def test_function_takes_the_max_over_components(self):
        model = model_of(
            functions=["f1"],
            components=["c1", "c2"],
            fc=[("f1", "c1"), ("f1", "c2")],
            fms=[det_fm("fm1", "c1", "DesignAnalysis", rank=8), det_fm("fm2", "c2", "PassFailOrReliabilityTest", rank=2)],
        )
        dmap = assign_detection(model)
        assert dmap["f1"] == 8
        _, _, oracle_dmap = oracle_propagate(model)
        assert dmap == oracle_dmap

    def test_missing_control_raises(self):
        model = model_of(components=["c1"], fms=[sev_fm("fm1", "c1", 5)])
        with pytest.raises(MissingDetection):
            assign_detection(model)


class TestAnalyze:
    def test_camera_rows(self, camera_model):
        result = analyze(camera_model)
        by_id = {row.fm_id: row for row in result.rows}
        assert (by_id["fm_damage"].severity, by_id["fm_damage"].occurrence, by_id["fm_damage"].detection) == (8, 7, 8)
        assert by_id["fm_damage"].rpn == 448
        assert by_id["fm_damage"].rank_position == 1
        # The function row inherits severity from the requirement and
        # occurrence/detection from the component.
        assert (by_id["fm_exec"].severity, by_id["fm_exec"].occurrence, by_id["fm_exec"].detection) == (6, 7, 8)
        assert [row.fm_id for row in result.rows] == ["fm_damage", "fm_exec", "fm_photo"]

    def test_rpn_six_hundred_tie_break(self):
        model = model_of(
            components=["c1", "c2"],
            fms=[
                FailureMode(
                    "fm_low_s", "c1", "Damaged", "quiet but constant",
                    causes=(Cause("why", occurrence_rank=10),),
                    effects=(Effect("bad", severity_rank=6),),
                    control=ControlPlan("NoApparentMethod", detection_rank=10),
                ),
                FailureMode(
                    "fm_high_s", "c2", "Damaged", "rare but severe",
                    causes=(Cause("why", occurrence_rank=10),),
                    effects=(Effect("bad", severity_rank=10),),
                    control=ControlPlan("StandardDesignDocuments", detection_rank=6),
                ),
            ],
        )
        result = analyze(model)
        assert [row.rpn for row in result.rows] == [600, 600]
        assert [row.fm_id for row in result.rows] == ["fm_high_s", "fm_low_s"]
        assert (result.rows[0].severity, result.rows[0].occurrence, result.rows[0].detection) == (10, 10, 6)
        assert (result.rows[1].severity, result.rows[1].occurrence, result.rows[1].detection) == (6, 10, 10)
        assert result.rows[0].rank_position == 1
        assert result.rows[1].rank_position == 2

    def test_identical_triples_fall_back_to_ids(self):
        model = model_of(
            components=["c1", "c2"],
            fms=[
                occ_fm("fm_b", "c2", ranks=(5,)),
                occ_fm("fm_a", "c1", ranks=(5,)),
            ],
        )
        result = analyze(model)
        assert [row.fm_id for row in result.rows] == ["fm_a", "fm_b"]

    def test_singleton_row(self):
        model = model_of(
            components=["c1"],
            fms=[
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    causes=(Cause("why", occurrence_rank=7),),
                    effects=(Effect("bad", severity_rank=8),),
                    control=ControlPlan("DesignAnalysis", detection_rank=8),
                )
            ],
        )
        result = analyze(model)
        assert len(result.rows) == 1
        assert result.rows[0].rpn == 448
        assert result.rows[0].rank_position == 1

    def test_positions_are_dense(self, camera_model):
        result = analyze(camera_model)
        assert [row.rank_position for row in result.rows] == list(range(1, len(result.rows) + 1))

    def test_without_detection_propagation(self, camera_model):
        result = analyze(camera_model, propagate_detection=False)
        by_id = {row.fm_id: row for row in result.rows}
        assert by_id["fm_damage"].detection == 8
        assert by_id["fm_exec"].detection is None
        assert by_id["fm_exec"].rpn == 6 * 7
        assert by_id["fm_photo"].rpn == 6 * 7

    def test_own_control_plan_on_a_function_row(self):
        fm = FailureMode(
            "fm_f", "f1", "Malfunction", "stuck",
            effects=(Effect("bad", severity_rank=5),),
            control=ControlPlan("RealLifeProductTest", detection_rank=1),
        )
        model = model_of(
            functions=["f1"],
            components=["c1"],
            fc=[("f1", "c1")],
            fms=[fm, det_fm("fm_c", "c1", "NoApparentMethod", rank=10)],
        )
        result = analyze(model)
        by_id = {row.fm_id: row for row in result.rows}
        # The row keeps its own detection even though propagation says 10.
        assert by_id["fm_f"].detection == 1
        assert result.detection["f1"] == 10

    def test_unrated_leaves_raise_in_a_fixed_order(self):
        # Severity over requirements, then occurrence, then detection over
        # components; within one rating, elements in declaration order.
        bare = FailureMode("fm_c", "c1", "Damaged", "broken", effects=(Effect("bad", severity_rank=5),))
        fms = [sev_fm("fm_r1", "r1"), sev_fm("fm_r2", "r2"), sev_fm("fm_r2b", "r2"), bare]
        model = model_of(requirements=["r2", "r1"], components=["c1"], fms=fms)
        raised = []
        for candidate in (model, model_of(components=["c1"], fms=[bare])):
            for entry_point in (analyze, forward_severity, backward_occurrence, assign_detection):
                try:
                    entry_point(candidate)
                except (MissingSeverity, MissingOccurrence, MissingDetection) as exc:
                    raised.append((entry_point.__name__, type(exc).__name__, exc.failure_mode_id))
        assert raised == [
            ("analyze", "MissingSeverity", "fm_r2"),
            ("forward_severity", "MissingSeverity", "fm_r2"),
            ("backward_occurrence", "MissingOccurrence", "fm_c"),
            ("assign_detection", "MissingDetection", "fm_c"),
            ("analyze", "MissingOccurrence", "fm_c"),
            ("backward_occurrence", "MissingOccurrence", "fm_c"),
            ("assign_detection", "MissingDetection", "fm_c"),
        ]

    @pytest.mark.parametrize(
        "first, raised, message",
        [
            ("fm_photo", MissingOccurrence, 'failure mode "fm_photo" has no occurrence source'),
            ("fm_exec", MissingSeverity, 'failure mode "fm_exec" has no rated effect and no propagated severity'),
        ],
    )
    def test_a_row_without_a_source_raises(self, first, raised, message):
        # Every leaf is rated, so the table's leaf checks pass. Rows are rated in model order:
        # r_photo maps onto no function, so fm_photo has no occurrence, and f_exec receives no
        # severity, so fm_exec has none.
        data = json.loads(camera_cut_off_from_its_requirement())
        data["failure_modes"].sort(key=lambda fm: fm["id"] != first)
        with pytest.raises(raised) as excinfo:
            analyze(parse_model(json.dumps(data)))
        assert excinfo.value.failure_mode_id == first
        assert str(excinfo.value) == message


class TestTrace:
    def test_effects_from_the_component(self, camera_model):
        chain = trace(camera_model, "fm_damage", "effects")
        assert [(h.element_id, h.failure_mode_id, h.text) for h in chain.hops] == [
            ("c_cam", "fm_damage", "Camera module is damaged"),
            ("f_exec", "fm_exec", "Camera module cannot be executed"),
            ("r_photo", "fm_photo", "A user cannot take photos"),
        ]

    def test_causes_from_the_function(self, camera_model):
        chain = trace(camera_model, "fm_exec", "causes")
        assert [(h.element_id, h.text) for h in chain.hops] == [
            ("f_exec", "Camera module cannot be executed"),
            ("c_cam", "Camera module is damaged"),
        ]

    def test_effects_from_the_function(self, camera_model):
        chain = trace(camera_model, "fm_exec", "effects")
        assert chain.direction == "effects"
        assert [(h.element_id, h.failure_mode_id, h.text) for h in chain.hops] == [
            ("f_exec", "fm_exec", "Camera module cannot be executed"),
            ("r_photo", "fm_photo", "A user cannot take photos"),
        ]

    def test_effects_from_a_function_climb_one_level_in_id_order(self):
        model = model_of(
            requirements=["r_b", "r_a", "r_c"],
            functions=["f1"],
            components=["c1"],
            rf=[("r_b", "f1"), ("r_a", "f1")],
            fc=[("f1", "c1")],
            fms=[sev_fm("fm1", "f1", 5), sev_fm("fm_b", "r_b", 7), occ_fm("fm_c", "c1", ranks=(5,))],
        )
        chain = trace(model, "fm1", "effects")
        assert [(h.element_id, h.failure_mode_id, h.text) for h in chain.hops] == [
            ("f1", "fm1", "failure fm1"),
            ("r_a", None, "requirement r_a"),
            ("r_b", "fm_b", "failure fm_b"),
        ]

    def test_causes_from_the_component_is_a_single_hop(self, camera_model):
        chain = trace(camera_model, "fm_damage", "causes")
        assert chain.direction == "causes"
        assert [(h.element_id, h.failure_mode_id, h.text) for h in chain.hops] == [
            ("c_cam", "fm_damage", "Camera module is damaged"),
        ]

    def test_effects_from_a_requirement_is_a_single_hop(self, camera_model):
        chain = trace(camera_model, "fm_photo", "effects")
        assert len(chain.hops) == 1
        assert chain.hops[0].element_id == "r_photo"

    def test_causes_from_a_requirement_descends_two_levels(self, camera_model):
        chain = trace(camera_model, "fm_photo", "causes")
        assert [h.element_id for h in chain.hops] == ["r_photo", "f_exec", "c_cam"]

    def test_elements_without_failure_modes_still_appear(self):
        model = model_of(
            functions=["f1"],
            components=["c1"],
            fc=[("f1", "c1")],
            fms=[occ_fm("fm1", "c1", ranks=(5,))],
        )
        chain = trace(model, "fm1", "effects")
        assert [(h.element_id, h.failure_mode_id) for h in chain.hops] == [
            ("c1", "fm1"),
            ("f1", None),
        ]
        assert chain.hops[1].text == "do duty f1"

    def test_hops_follow_id_order(self):
        model = model_of(
            functions=["f_b", "f_a"],
            components=["c1"],
            fc=[("f_b", "c1"), ("f_a", "c1")],
            fms=[occ_fm("fm1", "c1", ranks=(5,))],
        )
        chain = trace(model, "fm1", "effects")
        assert [h.element_id for h in chain.hops] == ["c1", "f_a", "f_b"]

    def test_unknown_failure_mode(self, camera_model):
        with pytest.raises(UnknownFailureMode):
            trace(camera_model, "ghost", "effects")

    def test_direction_is_checked(self, camera_model):
        with pytest.raises(ValueError):
            trace(camera_model, "fm_damage", "sideways")


class TestOracle:
    def test_matches_on_the_camera_model(self, camera_model):
        assert oracle_propagate(camera_model) == (
            forward_severity(camera_model),
            backward_occurrence(camera_model),
            assign_detection(camera_model),
        )

    def test_empty_edges_keep_only_own_ratings(self):
        model = model_of(
            requirements=["r1"],
            components=["c1"],
            fms=[sev_fm("fm1", "r1", 5), occ_fm("fm2", "c1", ranks=(4,))],
        )
        smap, omap, dmap = oracle_propagate(model)
        assert smap == {"r1": 5, "c1": 5}
        assert omap == {"c1": 4}
        assert dmap == {"c1": 1}

    def test_matches_when_a_function_and_a_component_share_an_id(self):
        # Structurally invalid, but analyzable: occurrence and detection
        # still originate only at the component step.
        model = model_of(
            requirements=["r1"],
            functions=["f1", "x"],
            components=["x", "c2"],
            rf=[("r1", "f1"), ("r1", "x")],
            fc=[("f1", "x"), ("x", "c2")],
            fms=[sev_fm("fm1", "r1", 5), occ_fm("fm2", "x", ranks=(9,)), occ_fm("fm3", "c2", ranks=(2,))],
        )
        assert backward_occurrence(model)["x"] == 2
        assert oracle_propagate(model) == (
            forward_severity(model),
            backward_occurrence(model),
            assign_detection(model),
        )
