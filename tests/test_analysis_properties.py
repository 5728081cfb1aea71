"""Property tests: oracle equivalence, monotonicity, dominance, permutation safety."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import permuted, random_model, with_random_extra_edge
from riskforge import (
    ANALYSIS_READY,
    analyze,
    assign_detection,
    backward_occurrence,
    emit_fmea_document,
    emit_priority_report,
    forward_severity,
    oracle_propagate,
    run_procedure,
    validate_model,
)
from riskforge.analysis import resolve_fm_occurrence, resolve_fm_severity

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def propagate(model):
    return (
        forward_severity(model),
        backward_occurrence(model),
        assign_detection(model),
    )


class TestOracleEquivalence:
    @given(seed=seeds)
    @settings(max_examples=250, deadline=None)
    def test_direct_propagation_matches_enumeration(self, seed):
        model = random_model(random.Random(seed))
        assert propagate(model) == oracle_propagate(model)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_connected_models_too(self, seed):
        model = random_model(random.Random(seed), connected=True)
        assert propagate(model) == oracle_propagate(model)


class TestEdgeMonotonicity:
    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_adding_an_edge_never_decreases_any_rank(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        grown = with_random_extra_edge(model, rng)
        if grown is None:
            return
        for before, after in zip(propagate(model), propagate(grown)):
            for element_id, rank in before.items():
                assert after[element_id] >= rank

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_severity_rises_and_occurrence_falls_along_the_mappings(self, seed):
        model = random_model(random.Random(seed))
        smap, omap, dmap = propagate(model)
        for edge in model.rf:
            if edge.source in smap and edge.target in smap:
                assert smap[edge.target] >= smap[edge.source]
            if edge.source in omap and edge.target in omap:
                assert omap[edge.source] >= omap[edge.target]
            if edge.source in dmap and edge.target in dmap:
                assert dmap[edge.source] >= dmap[edge.target]
        for edge in model.fc:
            if edge.source in smap and edge.target in smap:
                assert smap[edge.target] >= smap[edge.source]
            if edge.source in omap and edge.target in omap:
                assert omap[edge.source] >= omap[edge.target]

    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_local_dominance(self, seed):
        model = random_model(random.Random(seed))
        smap, omap, _ = propagate(model)
        for fm in model.failure_modes:
            severity = resolve_fm_severity(model, fm)
            if severity is not None and fm.element in smap:
                assert smap[fm.element] >= severity
        # At the roots of each direction the map equals the local maximum.
        for requirement in model.requirements:
            own = [
                resolve_fm_severity(model, fm)
                for fm in model.failure_modes_of(requirement.id)
            ]
            if own:
                assert smap[requirement.id] == max(own)
        for component in model.components:
            own = [
                resolve_fm_occurrence(fm)
                for fm in model.failure_modes_of(component.id)
            ]
            if own:
                assert omap[component.id] == max(own)


class TestAnalyzeInvariants:
    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_rows_multiply_out_and_positions_are_dense(self, seed):
        model = random_model(random.Random(seed), connected=True)
        result = analyze(model)
        assert len(result.rows) == len(model.failure_modes)
        for row in result.rows:
            assert row.rpn == row.severity * row.occurrence * row.detection
            assert 1 <= row.rpn <= 1000
        assert [row.rank_position for row in result.rows] == list(
            range(1, len(result.rows) + 1)
        )
        ordering = [
            (-row.rpn, -row.severity, -row.occurrence, -(row.detection or 0), row.element_id, row.fm_id)
            for row in result.rows
        ]
        assert ordering == sorted(ordering)


class TestReadinessGuarantee:
    @given(seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_models_that_pass_validation_never_raise(self, seed):
        # The whole point of the stricter validation level: if it reports
        # no errors, every analysis step must complete.
        model = random_model(random.Random(seed))
        report = validate_model(model, ANALYSIS_READY)
        if not report.has_errors:
            run_procedure(model)
            analyze(model)
            analyze(model, propagate_detection=False)
            propagate(model)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_connected_models_are_ready_by_construction(self, seed):
        model = random_model(random.Random(seed), connected=True)
        assert not validate_model(model, ANALYSIS_READY).has_errors


class TestPermutationSafety:
    @given(seed=seeds)
    @settings(max_examples=75, deadline=None)
    def test_declaration_order_changes_nothing(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, connected=True)
        shuffled = permuted(model, rng)

        assert propagate(model) == propagate(shuffled)
        assert analyze(model).rows == analyze(shuffled).rows

        original = run_procedure(model)
        again = run_procedure(shuffled)
        for (name, artifact), (_, other) in zip(original.documents(), again.documents()):
            if name.endswith("priority"):
                assert emit_priority_report(artifact) == emit_priority_report(other)
            else:
                assert emit_fmea_document(artifact) == emit_fmea_document(other)
