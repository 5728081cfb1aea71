"""Validator findings: structural soundness and analysis readiness."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FREQUENCY_POOL, make_camera_model, random_model
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
    ValidationFailed,
    analyze,
    detection_band,
    occurrence_band,
    parse_model,
    run_procedure,
    severity_band,
    validate_model,
)
from riskforge.analysis import rating_table
from riskforge.model import _FieldError
from riskforge.rating import ALL_SEVERITY_CLASS_NAMES, SEVERITY_CLASSES
from riskforge.validation import _check_edges, _complete, _structural_errors

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402


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


    def test_unhashable_severity_class_is_an_unknown_class(self, camera_model):
        # A library caller's Effect may hold any value; the parser only ever passes a string.
        fm = camera_model.failure_modes[0]
        effect = dataclasses.replace(fm.effects[0], severity_class=["SafetyIssue"])
        model = replace_fm(camera_model, fm.id, effects=(effect,) + fm.effects[1:])
        expected = (
            "UnknownSeverityClass",
            "\"['SafetyIssue']\" is not a severity class",
            "failure_modes[0].effects[0].severity_class",
        )
        for strictness in (STRUCTURAL, ANALYSIS_READY):
            report = validate_model(model, strictness)
            assert [(f.code, f.message, f.path_str) for f in report.errors] == [expected]
        with pytest.raises(ValidationFailed):
            run_procedure(model)


RANK_CODES = {"UnknownSeverityClass", "SeverityClassDomainMismatch", "RankOutOfRange", "RankBandMismatch"}

# (items, slot, the item's rank) for each slot a rated item has; a control plan is one item.
RATED_SLOTS = (
    ("effects", "severity_rank", "severity_rank"),
    ("effects", "severity_class", "severity_rank"),
    ("causes", "occurrence_rank", "occurrence_rank"),
    ("causes", "frequency", "occurrence_rank"),
    ("control", "detection_rank", "detection_rank"),
)

# Ranks in and out of every band, every domain's classes, frequencies in every band, and values
# only a library caller can pass.
SLOT_VALUES = st.one_of(
    st.integers(1, 10),
    st.sampled_from(sorted(ALL_SEVERITY_CLASS_NAMES)),
    st.sampled_from([Frequency(*pair) for pair in FREQUENCY_POOL]),
    st.sampled_from([0, 11, -1, True, 3.5, "x", [1], None, "Terrible", ["SafetyIssue"]]),
)


def _is_rank(value):
    return type(value) is int and 1 <= value <= 10


def _sound(item, domain):
    """Whether ``item`` should raise no rank finding, from the band tables alone."""
    if isinstance(item, Effect):
        name, rank = item.severity_class, item.severity_rank
        if name is not None and (not isinstance(name, str) or name not in SEVERITY_CLASSES[domain]):
            return False
        band = None if name is None else severity_band(domain, name)
    elif isinstance(item, Cause):
        frequency, rank = item.frequency, item.occurrence_rank
        band = None if frequency is None else occurrence_band(frequency)
    else:
        band, rank = detection_band(item.method_class), item.detection_rank
    return rank is None or (_is_rank(rank) and (band is None or rank in band))


class TestRankFindingsProperty:
    @given(seed=st.integers(0, 2**32 - 1), slot=st.sampled_from(RATED_SLOTS), value=SLOT_VALUES, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_replaced_slot_raises_rank_findings_only_there(self, seed, slot, value, data):
        items, field, rank_field = slot
        model = random_model(random.Random(seed), connected=True)
        holders = [
            (index, fm)
            for index, fm in enumerate(model.failure_modes)
            if (fm.control is not None if items == "control" else getattr(fm, items))
        ]
        index, fm = data.draw(st.sampled_from(holders))
        if items == "control":
            item = dataclasses.replace(fm.control, **{field: value})
            fm = dataclasses.replace(fm, control=item)
            where = ("failure_modes", index, "control")
        else:
            j = data.draw(st.integers(0, len(getattr(fm, items)) - 1))
            if field == "frequency" and value is not None and not isinstance(value, Frequency):
                # Only a Frequency is a rate: the constructor refuses anything else, so no finding is needed.
                with pytest.raises(_FieldError) as caught:
                    dataclasses.replace(getattr(fm, items)[j], **{field: value})
                assert caught.value.problems == [("frequency", "Type", "expected a frequency")]
                return
            item = dataclasses.replace(getattr(fm, items)[j], **{field: value})
            fm = dataclasses.replace(fm, **{items: getattr(fm, items)[:j] + (item,) + getattr(fm, items)[j + 1 :]})
            where = ("failure_modes", index, items, j)
        failure_modes = model.failure_modes[:index] + (fm,) + model.failure_modes[index + 1 :]
        model = dataclasses.replace(model, failure_modes=failure_modes)

        rating_table(model)
        sound = _sound(item, model.elements_by_id[fm.element][0])
        for strictness in (STRUCTURAL, ANALYSIS_READY):
            found = [f.path for f in validate_model(model, strictness).findings if f.code in RANK_CODES]
            assert set(found) <= {where + (field,), where + (rank_field,)}
            if sound:
                assert found == []


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


#: Element ids for the edge property: one requirement, two functions, one component, and an id that names nothing.
EDGE_ENDS = ("r1", "f1", "f2", "c1", "zz")
EDGE_KINDS = {"r1": "requirement", "f1": "function", "f2": "function", "c1": "component"}


def _edge_findings_by_brute_force(key, pairs, want):
    """What ``_check_edges`` files for one edge list, from the rules as the README states them."""
    found = []
    for index, (source, target) in enumerate(pairs):
        for position, end in enumerate((source, target)):
            if end not in EDGE_KINDS:
                message = f'edge references "{end}", which is not a design element'
                found.append(("DanglingReference", (key, index, position), message))
        if source in EDGE_KINDS and target in EDGE_KINDS and (EDGE_KINDS[source], EDGE_KINDS[target]) != want:
            message = f'{key} edges run {want[0]} to {want[1]}; got "{source}" to "{target}"'
            found.append(("EdgeDirection", (key, index), message))
        if (source, target) in pairs[:index]:
            found.append(("DuplicateEdge", (key, index), f'duplicate {key} edge "{source}" to "{target}"'))
    return found


class TestEdgeChecksProperty:
    @given(
        rf=st.lists(st.tuples(st.sampled_from(EDGE_ENDS), st.sampled_from(EDGE_ENDS)), max_size=10),
        fc=st.lists(st.tuples(st.sampled_from(EDGE_ENDS), st.sampled_from(EDGE_ENDS)), max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_findings_match_a_brute_force_check_in_filing_order(self, rf, fc):
        # Dangling ends, wrong directions, self-edges and repeats all come out of five ids.
        model = small_model(
            functions=(Function("f1", "do", "thing"), Function("f2", "do", "other")),
            rf=tuple(MappingEdge(s, t) for s, t in rf),
            fc=tuple(MappingEdge(s, t) for s, t in fc),
        )
        findings = []
        _check_edges(model, findings)
        expected = _edge_findings_by_brute_force("rf", rf, ("requirement", "function"))
        expected += _edge_findings_by_brute_force("fc", fc, ("function", "component"))
        assert [(f.code, f.path, f.message) for f in findings] == expected
        assert {f.severity for f in findings} <= {"error"}


def _change_a_failure_mode(model, rng, pick, change):
    """``model`` with the fields ``change(fm)`` gives replaced on a random failure mode for which ``pick`` holds."""
    indexes = [i for i, fm in enumerate(model.failure_modes) if pick(fm)]
    if not indexes:
        return model
    i = rng.choice(indexes)
    fm = dataclasses.replace(model.failure_modes[i], **change(model.failure_modes[i]))
    return dataclasses.replace(model, failure_modes=model.failure_modes[:i] + (fm,) + model.failure_modes[i + 1 :])


def _drop_a_control_plan(model, rng):
    return _change_a_failure_mode(model, rng, lambda fm: fm.control is not None, lambda fm: {"control": None})


def _drop_the_effects(model, rng):
    return _change_a_failure_mode(model, rng, lambda fm: fm.effects, lambda fm: {"effects": ()})


def _with_a_rank(model, rng, rank):
    """``model`` with ``rank`` on a random failure mode's control plan, or on its first effect or cause."""
    items = rng.choice(["effects", "causes", "control"])
    if items == "control":
        return _change_a_failure_mode(
            model,
            rng,
            lambda fm: fm.control is not None,
            lambda fm: {"control": dataclasses.replace(fm.control, detection_rank=rank)},
        )
    field = "severity_rank" if items == "effects" else "occurrence_rank"

    def change(fm):
        first, *rest = getattr(fm, items)
        return {items: (dataclasses.replace(first, **{field: rank}), *rest)}

    return _change_a_failure_mode(model, rng, lambda fm: getattr(fm, items), change)


def _rank_out_of_range_or_band(model, rng):
    return _with_a_rank(model, rng, rng.choice([0, 11, -2, rng.randint(1, 10)]))


def _rank_cleared(model, rng):
    # Valid where a class, frequency or method class gives a band; a missing rating where nothing does.
    return _with_a_rank(model, rng, None)


def _dangling_element(model, rng):
    key = rng.choice(["rf", "fc", "failure_modes"])
    if key == "failure_modes":
        return _change_a_failure_mode(model, rng, lambda fm: True, lambda fm: {"element": "nowhere"})
    edges = getattr(model, key)
    i = rng.randrange(len(edges))
    end = rng.choice(["source", "target"])
    edge = dataclasses.replace(edges[i], **{end: "nowhere"})
    return dataclasses.replace(model, **{key: edges[:i] + (edge,) + edges[i + 1 :]})


def _repeated_edge(model, rng):
    key = rng.choice(["rf", "fc"])
    edges = getattr(model, key)
    at = rng.randrange(len(edges) + 1)
    edges = edges[:at] + (rng.choice(edges),) + edges[at:]
    return dataclasses.replace(model, **{key: edges})


MODEL_MUTATIONS = (
    _drop_a_control_plan,
    _drop_the_effects,
    _rank_out_of_range_or_band,
    _rank_cleared,
    _dangling_element,
    _repeated_edge,
)


def _ranked(rows):
    return [(r.element_id, r.fm_id, r.severity, r.occurrence, r.detection, r.rpn, r.rank_position) for r in rows]


class TestRatingsHandedOn:
    """``run_procedure`` and ``validate_model`` rate each failure mode once, in the structural
    checks, and give those ratings to the rating table. The outcome must be the one the
    table gives when it reads the ratings itself."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([0, 5, 20, 40]),
        mutations=st.lists(st.sampled_from(MODEL_MUTATIONS), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_procedure_matches_validation_and_analysis(self, seed, size, mutations):
        rng = random.Random(seed)
        model = make_camera_model() if size == 0 else parse_model(gen.canonical(gen.bulk_model(seed, n=size)[0]))
        for mutate in mutations:
            model = mutate(model, rng)
        report = validate_model(model, ANALYSIS_READY)
        assert report == _complete(model, _structural_errors(model), ANALYSIS_READY)[0]
        try:
            bundle = run_procedure(model)
        except ValidationFailed as exc:
            assert report.has_errors
            assert exc.report == report
        else:
            assert not report.has_errors
            assert bundle.validation == report
            worksheets = bundle.requirement_fmea.rows + bundle.function_fmea.rows + bundle.component_fmea.rows
            assert _ranked(sorted(worksheets, key=lambda row: row.rank_position)) == _ranked(analyze(model).rows)
