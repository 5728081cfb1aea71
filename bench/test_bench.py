"""Self-tests of the benchmark's generator, reference and checks.

    python3 -m pytest bench/test_bench.py -q

They use small models, so they run in seconds. They are not part of the
repository's test suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from riskforge import ANALYSIS_READY, ParseFailure, parse_model, run_procedure, serialize_model, validate_model  # noqa: E402
from riskforge.reports import emit_artifact  # noqa: E402

SEEDS = (1, 2, 3, 17)


def small_models(seed: int):
    yield gen.bulk_model(seed, n=40)[0]
    yield gen.bulk_model(seed, n=12)[0]
    yield gen.star_model(seed, degree=64)[0]


def artifacts(text: str) -> dict:
    bundle = run_procedure(parse_model(text))
    return {name: json.loads(emit_artifact(name, artifact, "json")) for name, artifact in bundle.documents()}


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_is_deterministic_per_seed(seed):
    assert gen.canonical(gen.bulk_model(seed, n=30)[0]) == gen.canonical(gen.bulk_model(seed, n=30)[0])
    assert gen.canonical(gen.star_model(seed, degree=40)[0]) == gen.canonical(gen.star_model(seed, degree=40)[0])
    first, second = gen.invalid_documents(seed, n=30)[2], gen.invalid_documents(seed, n=30)[2]
    assert first == second
    assert gen.canonical(gen.bulk_model(seed, n=30)[0]) != gen.canonical(gen.bulk_model(seed + 1, n=30)[0])


def test_sizes_match_the_spec():
    data, spec = gen.bulk_model(5, n=100)
    assert (spec.requirements, spec.functions, spec.components, spec.failure_modes) == (100, 100, 100, 350)
    assert (spec.rf_edges, spec.fc_edges) == (400, 400)
    data, spec = gen.star_model(5, degree=400)
    assert (spec.requirements, spec.functions, spec.components, spec.fc_edges) == (1, 400, 16, 400)
    # Every component has in-degree degree / components.
    assert {c["id"]: sum(1 for _, t in data["fc"] if t == c["id"]) for c in data["components"]} == {
        c["id"]: 25 for c in data["components"]
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_models_are_canonical_and_analysis_ready(seed):
    for data in small_models(seed):
        text = gen.canonical(data)
        model = parse_model(text)
        assert serialize_model(model) == text
        assert not validate_model(model, ANALYSIS_READY).has_errors


def test_reference_agrees_on_camera_model():
    text = (ROOT / "sample_models" / "camera.json").read_text(encoding="utf-8")
    assert reference.compare(reference.expected_artifacts(json.loads(text)), artifacts(text)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_agrees_on_generated_models(seed):
    for data in small_models(seed):
        text = gen.canonical(data)
        assert reference.compare(reference.expected_artifacts(data), artifacts(text)) == []


def test_reference_notices_a_wrong_rank():
    data = gen.bulk_model(4, n=20)[0]
    actual = artifacts(gen.canonical(data))
    actual["fmea_component"]["rows"][0]["rank"] += 1
    assert reference.compare(reference.expected_artifacts(data), actual)


def test_occurrence_bands_follow_the_readme_table():
    assert [reference.occurrence_band_hi(1, d) for d in (20, 21, 125, 126, 1250, 5000, 10000, 1000000, 1000001)] == [
        10, 8, 8, 6, 6, 6, 4, 1, 1
    ]
    for band, frequencies in enumerate(gen.BAND_FREQUENCIES):
        for frequency in frequencies:
            assert reference.occurrence_band_hi(*frequency) == reference.BAND_HI[band]


@pytest.mark.parametrize("seed", SEEDS)
def test_injected_errors_match_riskforge(seed):
    _, _, docs = gen.invalid_documents(seed, n=30)
    assert sorted({doc.kind for doc in docs}) == sorted(gen.ERROR_KINDS)
    for doc in docs:
        if doc.exit_code == 2:
            with pytest.raises(ParseFailure) as failure:
                parse_model(doc.text)
            found = [(e.line, e.column, e.code) for e in failure.value.errors]
            assert found == [(doc.line, doc.column, doc.code)], doc.kind
        else:
            report = validate_model(parse_model(doc.text), ANALYSIS_READY)
            assert [(f.path_str, f.code) for f in report.errors] == [(doc.path, doc.code)], doc.kind


def test_line_column_counts_characters():
    text = 'ab\n"µé" x'
    assert gen.line_column(text, text.index("x")) == (2, 6)
    assert gen.line_column(text, 0) == (1, 1)


def test_cli_check_accepts_right_and_rejects_wrong_outcomes(tmp_path):
    _, _, docs = gen.invalid_documents(9, n=30)
    tr = worker.NullTracer()
    for index, doc in enumerate(docs[: len(gen.ERROR_KINDS)]):
        path = tmp_path / f"doc{index}.json"
        path.write_text(doc.text, encoding="utf-8")
        entry = {**{k: v for k, v in doc.__dict__.items() if k != "text"}, "file": str(path)}
        outcome = worker.invalid_job(entry, tr)
        assert worker.check_invalid(entry, outcome) is None, doc.kind
        moved = {**entry, "line": entry["line"] + 1, "path": entry["path"] + ".x"}
        assert worker.check_invalid(moved, outcome) is not None, doc.kind


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
