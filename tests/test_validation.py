"""Validator findings: structural soundness and analysis readiness."""

import dataclasses

import pytest

from riskforge import (
    ANALYSIS_READY,
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Effect,
    FailureMode,
    Frequency,
    Function,
    MappingEdge,
    Meta,
    Requirement,
    STRUCTURAL,
    validate_model,
)


def codes(report, severity=None):
    return [
        f.code for f in report.findings if severity is None or f.severity == severity
    ]


def replace_fm(model, fm_id, **changes):
    fms = tuple(
        dataclasses.replace(fm, **changes) if fm.id == fm_id else fm
        for fm in model.failure_modes
    )
    return dataclasses.replace(model, failure_modes=fms)


def small_model(**overrides):
    base = dict(
        meta=Meta("p", "v"),
        requirements=(Requirement("r1", "need one"),),
        functions=(Function("f1", "do", "thing"),),
        components=(Component("c1", "part one"),),
        rf=(MappingEdge("r1", "f1"),),
        fc=(MappingEdge("f1", "c1"),),
        failure_modes=(),
    )
    base.update(overrides)
    return DesignModel(**base)


class TestStructuralErrors:
    def test_clean_worked_models_have_no_errors(self, camera_model, smartphone_model):
        assert not validate_model(camera_model, STRUCTURAL).has_errors
        assert not validate_model(smartphone_model, STRUCTURAL).has_errors

    def test_category_from_another_domain(self, smartphone_model):
        swapped = replace_fm(smartphone_model, "fm_disp_none", category="Damaged")
        report = validate_model(swapped, STRUCTURAL)
        assert codes(report, "error") == ["CategoryDomainMismatch"]

    def test_unknown_category(self, smartphone_model):
        swapped = replace_fm(smartphone_model, "fm_disp_none", category="Explodes")
        report = validate_model(swapped, STRUCTURAL)
        assert codes(report, "error") == ["UnknownCategory"]

    def test_shared_category_names_are_fine_in_both_domains(self):
        model = small_model(
            failure_modes=(
                FailureMode("fm_r", "r1", "Incompleteness", "half met"),
                FailureMode("fm_f", "f1", "Incompleteness", "half executed"),
            )
        )
        assert not validate_model(model, STRUCTURAL).has_errors

    def test_dangling_failure_mode_element(self):
        model = small_model(
            failure_modes=(FailureMode("fm1", "ghost", "Damaged", "broken"),)
        )
        report = validate_model(model, STRUCTURAL)
        assert "DanglingReference" in codes(report, "error")

    def test_dangling_edge_endpoint(self):
        model = small_model(rf=(MappingEdge("r1", "f1"), MappingEdge("r1", "f9")))
        report = validate_model(model, STRUCTURAL)
        errors = [f for f in report.errors if f.code == "DanglingReference"]
        assert len(errors) == 1
        assert errors[0].path_str == "rf[1][1]"

    def test_reversed_edge_direction(self):
        model = small_model(rf=(MappingEdge("f1", "r1"),))
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["EdgeDirection"]

    def test_fc_edge_direction(self):
        model = small_model(fc=(MappingEdge("f1", "c1"), MappingEdge("c1", "f1")))
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["EdgeDirection"]

    def test_duplicate_edges(self):
        model = small_model(rf=(MappingEdge("r1", "f1"), MappingEdge("r1", "f1")))
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["DuplicateEdge"]

    def test_duplicate_ids_across_classes(self):
        model = small_model(components=(Component("c1", "part"), Component("r1", "clash")))
        report = validate_model(model, STRUCTURAL)
        assert "DuplicateId" in codes(report, "error")

    def test_duplicate_failure_mode_id(self):
        model = small_model(
            failure_modes=(
                FailureMode("fm1", "r1", "Absence", "gone"),
                FailureMode("fm1", "f1", "Malfunction", "stuck"),
            )
        )
        report = validate_model(model, STRUCTURAL)
        assert "DuplicateId" in codes(report, "error")

    @pytest.mark.parametrize("rank", [0, 11, -2])
    def test_rank_out_of_range(self, rank):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    causes=(Cause("why", occurrence_rank=rank),),
                ),
            )
        )
        report = validate_model(model, STRUCTURAL)
        assert "RankOutOfRange" in codes(report, "error")

    def test_occurrence_rank_outside_frequency_band(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    causes=(Cause("why", occurrence_rank=5, frequency=Frequency(1, 10)),),
                ),
            )
        )
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["RankBandMismatch"]
        assert report.errors[0].message == "occurrence rank 5 is outside band 9-10 for frequency 1/10"

    def test_occurrence_rank_inside_frequency_band(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    causes=(Cause("why", occurrence_rank=9, frequency=Frequency(1, 10)),),
                ),
            )
        )
        assert not validate_model(model, STRUCTURAL).has_errors

    def test_severity_rank_outside_class_band(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    effects=(Effect("bad", severity_class="SafetyIssue", severity_rank=5),),
                ),
            )
        )
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["RankBandMismatch"]
        assert report.errors[0].message == 'severity rank 5 is outside band 9-10 for class "SafetyIssue"'

    def test_severity_class_from_wrong_domain(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    effects=(Effect("bad", severity_class="ChooseCompetitor"),),
                ),
            )
        )
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["SeverityClassDomainMismatch"]

    def test_unknown_severity_class(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    effects=(Effect("bad", severity_class="Terrible"),),
                ),
            )
        )
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["UnknownSeverityClass"]

    def test_detection_rank_outside_control_band(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    control=ControlPlan("RealLifeProductTest", detection_rank=9),
                ),
            )
        )
        report = validate_model(model, STRUCTURAL)
        assert codes(report, "error") == ["RankBandMismatch"]
        assert report.errors[0].message == 'detection rank 9 is outside band 1 for control class "RealLifeProductTest"'


class TestWarnings:
    def test_orphan_function_and_component(self):
        model = small_model(rf=(), fc=())
        report = validate_model(model, STRUCTURAL)
        warning_codes = codes(report, "warning")
        assert "OrphanFunction" in warning_codes
        assert "OrphanComponent" in warning_codes
        assert not report.has_errors

    def test_zero_failure_modes_is_a_warning_not_an_error(self):
        report = validate_model(small_model(), STRUCTURAL)
        assert codes(report, "warning").count("ZeroFailureModes") == 3
        assert not report.has_errors

    def test_skipping_illogical_modes_raises_no_missing_category_finding(self, smartphone_model):
        # The internet requirement deliberately carries only three of the
        # five requirement modes; nothing should flag the absent ones.
        report = validate_model(smartphone_model, STRUCTURAL)
        assert not report.has_errors
        assert all("Incompleteness" not in f.message for f in report.findings)

    def test_empty_causes_and_effects_warn_at_upper_levels(self):
        model = small_model(
            failure_modes=(FailureMode("fm1", "r1", "Absence", "gone"),)
        )
        warning_codes = codes(validate_model(model, STRUCTURAL), "warning")
        assert "EmptyCauses" in warning_codes
        assert "EmptyEffects" in warning_codes

    def test_component_failure_mode_does_not_get_empty_warnings(self):
        model = small_model(
            failure_modes=(FailureMode("fm1", "c1", "Damaged", "broken"),)
        )
        warning_codes = codes(validate_model(model, STRUCTURAL), "warning")
        assert "EmptyCauses" not in warning_codes
        assert "EmptyEffects" not in warning_codes


def full_component_fm(**overrides):
    fields = dict(
        id="fm_c",
        element="c1",
        category="Damaged",
        description="broken",
        causes=(Cause("why", occurrence_rank=7),),
        effects=(Effect("bad", severity_rank=8),),
        control=ControlPlan("DesignAnalysis", detection_rank=8),
    )
    fields.update(overrides)
    return FailureMode(**fields)


class TestAnalysisReady:
    def test_complete_model_passes(self, camera_model):
        report = validate_model(camera_model, ANALYSIS_READY)
        assert not report.has_errors

    def test_component_fm_missing_severity(self):
        model = small_model(failure_modes=(full_component_fm(effects=()),))
        report = validate_model(model, ANALYSIS_READY)
        assert "MissingSeverityRating" in codes(report, "error")
        assert not validate_model(model, STRUCTURAL).has_errors

    def test_component_fm_with_only_unrated_effects(self):
        model = small_model(
            failure_modes=(full_component_fm(effects=(Effect("vague"),)),)
        )
        report = validate_model(model, ANALYSIS_READY)
        assert "MissingSeverityRating" in codes(report, "error")

    def test_component_fm_missing_occurrence(self):
        model = small_model(failure_modes=(full_component_fm(causes=()),))
        report = validate_model(model, ANALYSIS_READY)
        assert "MissingOccurrenceRating" in codes(report, "error")

    def test_component_fm_missing_control(self):
        model = small_model(failure_modes=(full_component_fm(control=None),))
        report = validate_model(model, ANALYSIS_READY)
        assert "MissingControlPlan" in codes(report, "error")

    def test_requirement_fm_missing_severity(self):
        model = small_model(
            failure_modes=(
                FailureMode("fm_r", "r1", "Absence", "gone"),
                full_component_fm(),
            )
        )
        report = validate_model(model, ANALYSIS_READY)
        assert "MissingSeverityRating" in codes(report, "error")

    def test_class_only_effect_counts_as_rated(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm_r", "r1", "Absence", "gone",
                    effects=(Effect("bad", severity_class="SafetyIssue"),),
                ),
                full_component_fm(),
            )
        )
        assert not validate_model(model, ANALYSIS_READY).has_errors

    def test_frequency_only_cause_counts_as_rated(self):
        model = small_model(
            failure_modes=(
                full_component_fm(causes=(Cause("why", frequency=Frequency(1, 200)),)),
            )
        )
        assert not validate_model(model, ANALYSIS_READY).has_errors

    def test_requirement_fm_with_no_occurrence_path(self):
        # The requirement maps to nothing, so backward reasoning can never
        # reach it; its failure mode row would have no occurrence.
        model = small_model(
            rf=(),
            failure_modes=(
                FailureMode(
                    "fm_r", "r1", "Absence", "gone",
                    effects=(Effect("bad", severity_rank=5),),
                ),
                full_component_fm(),
            ),
        )
        report = validate_model(model, ANALYSIS_READY)
        assert "NoOccurrenceSource" in codes(report, "error")
        assert "NoDetectionSource" in codes(report, "error")
        assert not validate_model(model, STRUCTURAL).has_errors

    def test_function_fm_with_no_severity_source(self):
        # No rated effects of its own and nothing rated upstream.
        model = small_model(
            rf=(),
            failure_modes=(
                FailureMode("fm_f", "f1", "Malfunction", "stuck"),
                full_component_fm(),
            ),
        )
        report = validate_model(model, ANALYSIS_READY)
        assert "NoSeveritySource" in codes(report, "error")

    def test_own_control_plan_excuses_missing_detection_path(self):
        model = small_model(
            rf=(),
            fc=(),
            components=(),
            failure_modes=(
                FailureMode(
                    "fm_f", "f1", "Malfunction", "stuck",
                    effects=(Effect("bad", severity_rank=5),),
                    control=ControlPlan("RealLifeProductTest"),
                ),
            ),
        )
        report = validate_model(model, ANALYSIS_READY)
        assert "NoDetectionSource" not in codes(report, "error")
        # Occurrence still has no source; that error remains.
        assert "NoOccurrenceSource" in codes(report, "error")


class TestReportShape:
    def test_deterministic_and_sorted(self, smartphone_model):
        model = dataclasses.replace(
            smartphone_model,
            rf=(),
            fc=(),
            failure_modes=smartphone_model.failure_modes
            + (FailureMode("fm_bad", "ghost", "Damaged", "broken"),),
        )
        first = validate_model(model, STRUCTURAL)
        second = validate_model(model, STRUCTURAL)
        assert first == second
        from riskforge.validation import _path_sort_key

        keys = [(_path_sort_key(f.path), f.code, f.message) for f in first.findings]
        assert keys == sorted(keys)

    def test_paths_point_into_the_model(self):
        model = small_model(
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    causes=(Cause("why", occurrence_rank=99),),
                ),
            )
        )
        report = validate_model(model, STRUCTURAL)
        finding = report.errors[0]
        assert finding.path_str == "failure_modes[0].causes[0].occurrence_rank"
        assert "99" in finding.message

    def test_strictness_argument_is_checked(self, camera_model):
        with pytest.raises(ValueError):
            validate_model(camera_model, "pedantic")

    def test_str_rendering(self, camera_model):
        model = replace_fm(camera_model, "fm_damage", category="Absence")
        report = validate_model(model, STRUCTURAL)
        text = str(report.errors[0])
        assert text.startswith("error: failure_modes[2].category:")
        assert "[CategoryDomainMismatch]" in text
