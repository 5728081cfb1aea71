"""Artifact assembly and byte-exact emission."""

import csv
import dataclasses
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import permuted, random_model, random_prose, with_random_prose
from riskforge import (
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Domain,
    Effect,
    FailureMode,
    Function,
    MappingEdge,
    Meta,
    Requirement,
    ValidationFailed,
    analyze,
    emit_fmea_document,
    emit_priority_report,
    parse_model,
    risk_consequence_report,
    run_procedure,
    write_bundle,
)
from riskforge.reports import (
    FMEA_CSV_HEADER,
    FORMATS,
    PRIORITY_CSV_HEADER,
    FmeaDocument,
    FmeaRow,
    PriorityReport,
    PriorityRow,
    build_fmea_document,
    emit_artifact,
)

CAMERA_JSON = Path(__file__).resolve().parent.parent / "sample_models" / "camera.json"

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402


class TestRiskConsequenceReport:
    def test_sort_and_dense_positions(self):
        model = DesignModel(
            meta=Meta("p", "v"),
            requirements=(
                Requirement("r1", "first"),
                Requirement("r2", "second"),
                Requirement("r3", "third"),
            ),
        )
        report = risk_consequence_report(model, {"r1": 9, "r2": 5, "r3": 9}, Domain.REQUIREMENT)
        assert [row.element_id for row in report.rows] == ["r1", "r3", "r2"]
        assert [row.position for row in report.rows] == [1, 2, 3]
        assert report.warnings == ()

    def test_single_function(self):
        model = DesignModel(
            meta=Meta("p", "v"), functions=(Function("f1", "do", "thing"),)
        )
        report = risk_consequence_report(model, {"f1": 7}, Domain.FUNCTION)
        assert len(report.rows) == 1
        assert report.rows[0].position == 1
        assert report.rows[0].severity == 7

    def test_unrated_elements_go_last_with_a_warning(self):
        model = DesignModel(
            meta=Meta("p", "v"),
            requirements=(Requirement("r1", "rated"), Requirement("r0", "unrated")),
        )
        report = risk_consequence_report(model, {"r1": 4}, Domain.REQUIREMENT)
        assert [row.element_id for row in report.rows] == ["r1", "r0"]
        assert report.rows[1].severity is None
        assert report.warnings == ('requirement "r0" has no severity rating',)

    def test_rows_never_increase_in_severity(self):
        rng = random.Random(7)
        for _ in range(20):
            model = random_model(rng, connected=True)
            bundle = run_procedure(model)
            for report in (bundle.requirement_priority, bundle.function_priority):
                rated = [row.severity for row in report.rows if row.severity is not None]
                assert rated == sorted(rated, reverse=True)


class TestCsvEmission:
    def test_camera_component_row(self, camera_model):
        bundle = run_procedure(camera_model)
        text = emit_fmea_document(bundle.component_fmea)
        lines = text.splitlines()
        assert lines[0] == (
            "element_id,element_text,fm_id,category,description,effects,"
            "severity,causes,occurrence,control,detection,rpn,rank"
        )
        assert len(lines) == 2
        assert lines[1].endswith(",448,1")
        assert text.endswith("\n")

    def test_comma_fields_are_quoted(self):
        model = DesignModel(
            meta=Meta("p", "v"),
            components=(Component("c1", "transceiver"),),
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "transceiver failed",
                    causes=(Cause("overvoltage", occurrence_rank=3),),
                    effects=(Effect("burned out, or discharged", severity_rank=8),),
                    control=ControlPlan("DesignAnalysis"),
                ),
            ),
        )
        text = emit_fmea_document(run_procedure(model).component_fmea)
        assert '"burned out, or discharged"' in text

    def test_quotes_are_doubled_and_round_trip(self):
        model = DesignModel(
            meta=Meta("p", "v"),
            components=(Component("c1", 'the "special" part'),),
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", 'fails, with "style"\nand a newline',
                    causes=(Cause("why", occurrence_rank=3),),
                    effects=(Effect("bad", severity_rank=8),),
                    control=ControlPlan("DesignAnalysis"),
                ),
            ),
        )
        text = emit_fmea_document(run_procedure(model).component_fmea)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(FMEA_CSV_HEADER)
        assert parsed[1][1] == 'the "special" part'
        assert parsed[1][4] == 'fails, with "style"\nand a newline'

    def test_empty_document_is_header_only(self, camera_model):
        result = analyze(camera_model)
        empty = build_fmea_document(camera_model, result, Domain.COMPONENT)
        empty = dataclasses.replace(empty, rows=())
        text = emit_fmea_document(empty)
        assert text == ",".join(FMEA_CSV_HEADER) + "\n"

    def test_priority_csv(self, camera_model):
        bundle = run_procedure(camera_model)
        text = emit_priority_report(bundle.requirement_priority)
        assert text == (
            "element_id,element_text,severity,priority\n"
            "r_photo,Take photos at any time,6,1\n"
        )


class TestOtherFormats:
    def test_markdown_table(self, camera_model):
        bundle = run_procedure(camera_model)
        text = emit_fmea_document(bundle.component_fmea, "md")
        lines = text.splitlines()
        assert lines[0].startswith("| element_id |")
        assert lines[1].startswith("|")
        assert "448" in lines[2]
        assert text.endswith("\n")

    def test_markdown_escapes_pipes(self):
        model = DesignModel(
            meta=Meta("p", "v"),
            components=(Component("c1", "part a|b"),),
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    causes=(Cause("why", occurrence_rank=3),),
                    effects=(Effect("bad", severity_rank=8),),
                    control=ControlPlan("DesignAnalysis"),
                ),
            ),
        )
        text = emit_fmea_document(run_procedure(model).component_fmea, "md")
        assert "part a\\|b" in text

    def test_json_structure(self, camera_model):
        bundle = run_procedure(camera_model)
        data = json.loads(emit_fmea_document(bundle.component_fmea, "json"))
        assert data["domain"] == "component"
        assert data["rows"][0]["rpn"] == 448
        assert data["rows"][0]["rank"] == 1
        priority = json.loads(emit_priority_report(bundle.function_priority, "json"))
        assert priority["rows"][0]["priority"] == 1

    def test_json_row_keys_follow_the_csv_header(self, camera_model):
        for name, artifact in run_procedure(camera_model).documents():
            header = next(csv.reader(io.StringIO(emit_artifact(name, artifact, "csv"))))
            rows = json.loads(emit_artifact(name, artifact, "json"))["rows"]
            assert rows, name
            assert all(list(row) == header for row in rows), name

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_json_matches_the_stdlib_encoder(self, seed):
        rng = random.Random(seed)
        model = with_random_prose(random_model(rng, connected=True), rng)
        stamp = random_prose(rng, nonempty=True)
        for variant in (model, permuted(model, rng)):
            for name, artifact in run_procedure(variant).documents():
                for out in (emit_artifact(name, artifact, "json"), emit_artifact(name, artifact, "json", stamp)):
                    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("stamp", [None, "generated \"here\" \\ \u2028 \U0001f600"])
    def test_json_of_a_domain_without_rows(self, stamp):
        for artifact in (FmeaDocument(Domain.FUNCTION, ()), PriorityReport(Domain.REQUIREMENT, ())):
            out = emit_artifact("empty", artifact, "json", stamp)
            assert '"rows": []' in out
            assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
            assert list(json.loads(out)) == (["provenance"] if stamp else []) + ["domain", "rows"]

    def test_unknown_format_rejected(self, camera_model):
        bundle = run_procedure(camera_model)
        with pytest.raises(ValueError):
            emit_fmea_document(bundle.component_fmea, "xlsx")

    def test_unknown_format_rejected_before_any_row_is_read(self, camera_model, tmp_path):
        expected = f"format must be one of {FORMATS}, got 'xml'"
        # A row with none of the row attributes: reading any cell of it raises AttributeError.
        unreadable = FmeaDocument(Domain.COMPONENT, (object(),))
        with pytest.raises(ValueError) as excinfo:
            emit_artifact("component_fmea", unreadable, "xml")
        assert str(excinfo.value) == expected
        with pytest.raises(ValueError) as excinfo:
            write_bundle(run_procedure(camera_model), tmp_path / "out", "xml")
        assert str(excinfo.value) == expected
        assert not (tmp_path / "out").exists()


# Library-built artifacts: any cell may hold any scalar. The text draws
# favour what the csv, md and json escapes act on.
CELL_TEXT = st.text(st.sampled_from(',"\r\n|\\ -aé€😀') | st.characters(blacklist_categories=("Cs",)), max_size=6)
CELLS = st.one_of(st.none(), CELL_TEXT, st.integers(), st.booleans(), st.floats())


def _artifacts(kind, row, width):
    rows = st.lists(st.lists(CELLS, min_size=width, max_size=width).map(lambda cells: row(*cells)), max_size=4)
    return st.builds(kind, st.sampled_from(Domain), rows.map(tuple))


ARTIFACTS = _artifacts(FmeaDocument, FmeaRow, 13) | _artifacts(PriorityReport, PriorityRow, 4)


class TestEmittersMatchPerCellReferences:
    """Each format against a reference that renders one cell at a time."""

    @given(artifact=ARTIFACTS, stamp=st.none() | CELL_TEXT)
    @settings(max_examples=60, deadline=None)
    def test_every_format(self, artifact, stamp):
        header = FMEA_CSV_HEADER if type(artifact) is FmeaDocument else PRIORITY_CSV_HEADER
        rows = [dataclasses.astuple(row) for row in artifact.rows]
        texts = [["-" if value is None else str(value) for value in row] for row in rows]

        buffer = io.StringIO()
        if stamp:
            buffer.write(f"# {stamp}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(texts)
        assert emit_artifact("any", artifact, "csv", stamp) == buffer.getvalue()

        lines = [f"<!-- {stamp} -->"] if stamp else []
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        for row in texts:
            lines.append("| " + " | ".join(cell.replace("|", "\\|").replace("\n", " ") for cell in row) + " |")
        assert emit_artifact("any", artifact, "md", stamp) == "\n".join(lines) + "\n"

        document = {"provenance": stamp} if stamp else {}
        document |= {"domain": artifact.domain.value, "rows": [dict(zip(header, row)) for row in rows]}
        assert emit_artifact("any", artifact, "json", stamp) == json.dumps(document, indent=2, ensure_ascii=False) + "\n"

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_a_container_cell_is_no_json_scalar(self, data):
        cells = [data.draw(CELLS) for _ in PRIORITY_CSV_HEADER]
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from([[], [1], {}, {"a": 1}, ()]))
        with pytest.raises(TypeError):
            emit_artifact("any", PriorityReport(Domain.FUNCTION, (PriorityRow(*cells),)), "json")


class TestRunProcedure:
    def test_camera_bundle_shape(self, camera_model):
        bundle = run_procedure(camera_model)
        assert len(bundle.requirement_priority.rows) == 1
        assert len(bundle.function_priority.rows) == 1
        assert len(bundle.component_fmea.rows) == 1
        assert len(bundle.function_fmea.rows) == 1
        assert len(bundle.requirement_fmea.rows) == 1

    def test_gate_rejects_incomplete_models(self):
        model = DesignModel(
            meta=Meta("p", "v"),
            components=(Component("c1", "part"),),
            failure_modes=(
                FailureMode(
                    "fm1", "c1", "Damaged", "broken",
                    causes=(Cause("why", occurrence_rank=3),),
                    effects=(Effect("bad", severity_rank=8),),
                ),
            ),
        )
        with pytest.raises(ValidationFailed) as excinfo:
            run_procedure(model)
        assert any(f.code == "MissingControlPlan" for f in excinfo.value.report.errors)

    def test_documents_partition_the_failure_modes(self):
        rng = random.Random(11)
        for _ in range(25):
            model = random_model(rng, connected=True)
            bundle = run_procedure(model)
            seen = [
                row.fm_id
                for document in (bundle.component_fmea, bundle.function_fmea, bundle.requirement_fmea)
                for row in document.rows
            ]
            assert sorted(seen) == sorted(fm.id for fm in model.failure_modes)
            assert len(seen) == len(set(seen))

    def test_documents_agree_with_analysis_rows(self, camera_model):
        bundle = run_procedure(camera_model)
        result = analyze(camera_model)
        by_id = {row.fm_id: row for row in result.rows}
        for document in (bundle.component_fmea, bundle.function_fmea, bundle.requirement_fmea):
            for row in document.rows:
                analysis_row = by_id[row.fm_id]
                assert (row.severity, row.occurrence, row.detection, row.rpn, row.rank_position) == (
                    analysis_row.severity,
                    analysis_row.occurrence,
                    analysis_row.detection,
                    analysis_row.rpn,
                    analysis_row.rank_position,
                )

    def test_document_order_follows_global_rank(self, camera_model):
        bundle = run_procedure(camera_model)
        assert bundle.function_fmea.rows[0].rank_position == 2
        assert bundle.requirement_fmea.rows[0].rank_position == 3

    def test_reemission_is_byte_identical(self, camera_model):
        bundle = run_procedure(camera_model)
        for fmt in ("csv", "md", "json"):
            first = emit_fmea_document(bundle.component_fmea, fmt)
            second = emit_fmea_document(bundle.component_fmea, fmt)
            assert first == second

    def test_without_detection_propagation(self, camera_model):
        bundle = run_procedure(camera_model, propagate_detection=False)
        text = emit_fmea_document(bundle.function_fmea)
        row = text.splitlines()[1]
        cells = next(csv.reader(io.StringIO(row)))
        assert cells[9] == "-"  # control
        assert cells[10] == "-"  # detection
        assert cells[11] == str(6 * 7)


class TestWriteBundle:
    def test_writes_five_files(self, camera_model, tmp_path):
        paths = write_bundle(run_procedure(camera_model), tmp_path, "csv")
        assert sorted(p.name for p in paths) == [
            "fmea_component.csv",
            "fmea_function.csv",
            "fmea_requirement.csv",
            "function_priority.csv",
            "requirement_priority.csv",
        ]
        for path in paths:
            assert path.read_bytes().endswith(b"\n")

    def test_format_extension(self, camera_model, tmp_path):
        paths = write_bundle(run_procedure(camera_model), tmp_path, "md")
        assert all(p.suffix == ".md" for p in paths)

    def test_stamp_header(self, camera_model, tmp_path):
        bundle = run_procedure(camera_model)
        (path, *_rest) = write_bundle(bundle, tmp_path, "csv", stamp="provenance line")
        assert path.read_text(encoding="utf-8").startswith("# provenance line\n")
        plain = write_bundle(bundle, tmp_path / "plain", "csv")
        assert not plain[0].read_text(encoding="utf-8").startswith("#")


# sha256 of every artifact of sample_models/camera.json: the five documents
# in each format, then the csv bundle without detection propagation.
CAMERA_DIGESTS = {
    (True, "csv", "requirement_priority"):
        "2b666d186d46c4b58eba3b23fad6ab34cfaeed541bc566102239d7a423c37a5e",
    (True, "csv", "function_priority"):
        "ce9ab713da2b12537a03e5f259400783e8b86d815bca3c2f6886d5dec63c3d9a",
    (True, "csv", "fmea_component"):
        "f586e7d3c2d97d4a6de669e665ae61048f5f1d1ff6140d7dd406726fc356b2f5",
    (True, "csv", "fmea_function"):
        "fbaa6eca2c123659c84af9ce1ee02ba833bd00aa1a275fce0a866d856af7c3bb",
    (True, "csv", "fmea_requirement"):
        "795d00a1a27d323814268fa972e66096f0f68c474c6814e727ffd743cc326ba8",
    (True, "md", "requirement_priority"):
        "4bed9dbe5aafdd1434a575673e38bd0de8802e0bfb7e8a064b16afc0a1068ccb",
    (True, "md", "function_priority"):
        "786f8faab37a4457ef35d63f88d68a3a78b8db566fcd50c254bfe889279f2ff3",
    (True, "md", "fmea_component"):
        "c0a094d6f167619ed03c812e4cb28574f76ad7145ff530acbcf362f31568fa14",
    (True, "md", "fmea_function"):
        "9b8aafcfd1678c39a01ae6c07fb807fdc5bc631a9cef61befea1850ba6578cc4",
    (True, "md", "fmea_requirement"):
        "ec44b7531f503847a575420775b111f4aa4021a4abc7c41fdf41e93c626508e6",
    (True, "json", "requirement_priority"):
        "803ed0886e9700d1870493355dd23c4528a459c230518b46c88150f03148c254",
    (True, "json", "function_priority"):
        "6a8d1ee8cdf5c2641e3b276cb7cce804df3fe78ecae5118ab9f601fda4d2e43f",
    (True, "json", "fmea_component"):
        "af5c244383a8f16168b95cb6d8baeed54e6763fc99677fd5a2f0eb88bc4b7f0a",
    (True, "json", "fmea_function"):
        "25ddb3b0c3854609101e402d483e3466a973026a469a0b13140791e52440991a",
    (True, "json", "fmea_requirement"):
        "b4283a1a282ed415792d0bcb7363e77f0c3a500dfe5f68b32105d9b2dbb58fc7",
    (False, "csv", "requirement_priority"):
        "2b666d186d46c4b58eba3b23fad6ab34cfaeed541bc566102239d7a423c37a5e",
    (False, "csv", "function_priority"):
        "ce9ab713da2b12537a03e5f259400783e8b86d815bca3c2f6886d5dec63c3d9a",
    (False, "csv", "fmea_component"):
        "f586e7d3c2d97d4a6de669e665ae61048f5f1d1ff6140d7dd406726fc356b2f5",
    (False, "csv", "fmea_function"):
        "e001e3cb2bafd4b16df3c3718a2c9136114682ebc61e447531d93c971da4f304",
    (False, "csv", "fmea_requirement"):
        "0bc625f6c6832da9f428eab2ae8d9719facb9850155bc503cc07f746ea8d292e",
}


# The same fifteen documents with the provenance stamp that
# `riskforge analyze --stamp` writes for camera.json.
CAMERA_STAMP = "generated by riskforge 0.1.0 | Smartphone 1.0"
CAMERA_STAMPED_DIGESTS = {
    ("csv", "requirement_priority"):
        "18c9e1673c6e93bf05c281b411dcc30a3e9b8232e8a45c00160f326467dca077",
    ("csv", "function_priority"):
        "2f81bd52e396f91654f9e162b818a7a3ac2993779f8b6c16197ad95a06e0cf49",
    ("csv", "fmea_component"):
        "7bd2e44b37447c152fc5e6eb0e796bf889effeaf79ba1a922e006c9694b77051",
    ("csv", "fmea_function"):
        "f41767b42831be0c186dc524903d8010337acaf682c236a9e137b2718e49d3b8",
    ("csv", "fmea_requirement"):
        "001939ff95898e6e45c93f4e2decdd0a614ed339ac8f2d8e37d002bd91ad7760",
    ("md", "requirement_priority"):
        "9af14c8912d3ad5f96b6fab9c6d2e7b4cef3d98e764b9e91528f51dedeef000f",
    ("md", "function_priority"):
        "6d632d7a9c135866acfeaea204877cbae3347ec2e9a6f180f2a43b1f5baff89b",
    ("md", "fmea_component"):
        "d8309141b9826d4bee95b1c4c6c2c9623005003977bfcec17451c411ceb98e3d",
    ("md", "fmea_function"):
        "8e10e3593f0708c3cfaedbaaaddd434be30d753c1ce30123973ea0864bc470e3",
    ("md", "fmea_requirement"):
        "2d2ea8ae45194def58e330496f767400e7d7e3c96e852ec3e4704cc8cb05e1b4",
    ("json", "requirement_priority"):
        "23c65334fc8357d5b197d57d9687c39f1debf8ac124d272325aa481db9dcaa35",
    ("json", "function_priority"):
        "cae765083abee6eaf16b87f29a21fc5550c56df3beb0d206d627bc1fb66280db",
    ("json", "fmea_component"):
        "205e971edf5873ab570eaa9b54ec22a6a71dce42514a2d4fbfb75aa8fb115fff",
    ("json", "fmea_function"):
        "9d340781ad91155b2b66383cc7cb7bdc5d99453d28a069c078249b1ece973752",
    ("json", "fmea_requirement"):
        "854cd068e2d5812edf098c52633321996985331766c3493b50e6f31f40acf92f",
}


# The first 16 hex digits of the sha256 of each artifact, in `documents()`
# order, of the bench's bulk model with seed 11 and 200 elements per class,
# whose odd words ("a, b", 'the "seal"', "in|out", "C:\\path", non-ASCII)
# pass through every csv, md and json escape. Keyed by (detection
# propagation, stamped, format); the stamp is CAMERA_STAMP.
GENERATED_DIGESTS = {
    (True, False, "csv"): ("b426073eec9f255e", "43f3598a2be5f50a", "a99fe55227781245", "9487e58c355859b1", "15c4c03283476583"),
    (True, False, "md"): ("bea8275e8b51991c", "9a349a6e1ade9e33", "80183b4a3f05d0dc", "69528d096f9c6509", "09cb15d6c7a86c86"),
    (True, False, "json"): ("1fa86c1b4d67cf65", "c30e1ddf50d71c90", "3ecdd128cb3e177b", "fab9670e003c01cc", "5c904ca0d3b8aee4"),
    (True, True, "csv"): ("7f59b7a185590038", "6d2765a4db098f4f", "00e7eca89a5469e7", "174282745f4ab67a", "ff86de2fe02f5e84"),
    (True, True, "md"): ("cbcba83ec0065f9a", "dad130019f8d0175", "9a7da30e3abbbe53", "40edecc0d87c38ef", "78e7c0485f4f24df"),
    (True, True, "json"): ("eaec20cf68f5e245", "13209e622f1622ce", "e7d3c3fac80588db", "4623b6f961f3906e", "dadf3d6968aed5d1"),
    (False, False, "csv"): ("b426073eec9f255e", "43f3598a2be5f50a", "ea9b8d0d5706f3d0", "4419c33ecf918e3c", "99e3fc3c1975e685"),
    (False, False, "md"): ("bea8275e8b51991c", "9a349a6e1ade9e33", "938891472780f0ab", "55d170d812af2fbc", "3572776046d0bb67"),
    (False, False, "json"): ("1fa86c1b4d67cf65", "c30e1ddf50d71c90", "89a4b98773cea321", "e63c1d362601a0ea", "ed5bdf244820a6ee"),
    (False, True, "csv"): ("7f59b7a185590038", "6d2765a4db098f4f", "14121971af925b6d", "062089b401f88c74", "fd6dadebe376d85c"),
    (False, True, "md"): ("cbcba83ec0065f9a", "dad130019f8d0175", "084a71022b87be52", "b5cc91fd111f5e5b", "c88bc0b2c82d0604"),
    (False, True, "json"): ("eaec20cf68f5e245", "13209e622f1622ce", "1972dc0881180c58", "3ba4d6262c2ffbbc", "ada15c2fb3329225"),
}


class TestGoldenBytes:
    def test_camera_artifacts_keep_their_bytes(self):
        model = parse_model(CAMERA_JSON.read_text(encoding="utf-8"))
        digests = {}
        for propagate in (True, False):
            bundle = run_procedure(model, propagate_detection=propagate)
            for fmt in ("csv", "md", "json") if propagate else ("csv",):
                for name, artifact in bundle.documents():
                    text = emit_artifact(name, artifact, fmt)
                    digests[propagate, fmt, name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digests == CAMERA_DIGESTS

    def test_stamped_camera_artifacts_keep_their_bytes(self):
        bundle = run_procedure(parse_model(CAMERA_JSON.read_text(encoding="utf-8")))
        digests = {
            (fmt, name): hashlib.sha256(emit_artifact(name, artifact, fmt, CAMERA_STAMP).encode("utf-8")).hexdigest()
            for fmt in ("csv", "md", "json")
            for name, artifact in bundle.documents()
        }
        assert digests == CAMERA_STAMPED_DIGESTS

    def test_generated_artifacts_keep_their_bytes(self):
        model = parse_model(gen.canonical(gen.bulk_model(11, n=200)[0]))
        digests = {}
        for propagate in (True, False):
            documents = run_procedure(model, propagate_detection=propagate).documents()
            for stamp in (None, CAMERA_STAMP):
                for fmt in FORMATS:
                    digests[propagate, stamp is not None, fmt] = tuple(
                        hashlib.sha256(emit_artifact(name, artifact, fmt, stamp).encode("utf-8")).hexdigest()[:16]
                        for name, artifact in documents
                    )
        assert digests == GENERATED_DIGESTS
