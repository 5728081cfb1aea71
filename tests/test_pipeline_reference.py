"""Differential test of the whole pipeline against the benchmark's reference.

``bench/reference.py`` recomputes the five json artifacts from a model's
plain data with its own rating bands, propagation, row fallback, sort key
and dense positions, and never imports riskforge. Every random
analysis-ready model is serialized, read back as plain data, and checked
row by row against what ``run_procedure`` emits.
"""

import json
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import permuted, random_model, with_random_extra_edge
from riskforge import ANALYSIS_READY, run_procedure, serialize_model, validate_model
from riskforge.reports import emit_artifact

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import reference  # noqa: E402


def json_artifacts(model) -> dict:
    bundle = run_procedure(model)
    return {name: json.loads(emit_artifact(name, artifact, "json")) for name, artifact in bundle.documents()}


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_artifacts_match_the_reference(seed):
    rng = random.Random(seed)
    model = random_model(rng, connected=True)
    for variant in (model, permuted(model, rng), with_random_extra_edge(model, rng)):
        if variant is None or validate_model(variant, ANALYSIS_READY).has_errors:
            continue
        data = json.loads(serialize_model(variant))
        assert reference.compare(reference.expected_artifacts(data), json_artifacts(variant)) == []
