"""The five output artifacts of a full design-risk run.

A complete run produces two risk-consequence priority reports
(requirements and functions, ordered by propagated severity) and three
failure-mode worksheets, one per element domain, that together contain
every failure mode exactly once. Each artifact kind has one column
layout, and one emitter renders every kind in csv, md and json from it.
All emitters are pure and byte-deterministic: the same bundle always
renders to the same bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from pathlib import Path as FsPath

from .analysis import AnalysisResult, RpnRow, _prioritize
from .io import _array, _object, _scalar, _str
from .model import DesignModel, Domain, element_text
from .validation import ANALYSIS_READY, Finding, ValidationReport, _complete, _structural_errors

FMEA_CSV_HEADER = (
    "element_id",
    "element_text",
    "fm_id",
    "category",
    "description",
    "effects",
    "severity",
    "causes",
    "occurrence",
    "control",
    "detection",
    "rpn",
    "rank",
)

PRIORITY_CSV_HEADER = ("element_id", "element_text", "severity", "priority")

FORMATS = ("csv", "md", "json")


class ValidationFailed(Exception):
    """The model is not complete enough to analyze; carries the report."""

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        errors = report.errors
        super().__init__(
            f"validation failed with {len(errors)} error(s); first: {errors[0]}"
            if errors
            else "validation failed"
        )


@dataclass(frozen=True, slots=True)
class FmeaRow:
    """One worksheet line: the failure mode, its text columns, and ranks."""

    element_id: str
    element_text: str
    fm_id: str
    category: str
    description: str
    effects: str
    severity: int
    causes: str
    occurrence: int
    control: str
    detection: int | None
    rpn: int
    rank_position: int


@dataclass(frozen=True, slots=True)
class FmeaDocument:
    """The worksheet for one element domain, in overall priority order."""

    domain: Domain
    rows: tuple[FmeaRow, ...]


@dataclass(frozen=True, slots=True)
class PriorityRow:
    element_id: str
    element_text: str
    severity: int | None
    position: int


@dataclass(frozen=True, slots=True)
class PriorityReport:
    """Elements of one domain ordered by propagated severity.

    Elements the severity map does not cover are appended after the rated
    ones, with their absence noted in ``warnings``.
    """

    domain: Domain
    rows: tuple[PriorityRow, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ArtifactBundle:
    requirement_priority: PriorityReport
    function_priority: PriorityReport
    component_fmea: FmeaDocument
    function_fmea: FmeaDocument
    requirement_fmea: FmeaDocument
    validation: ValidationReport

    def documents(self) -> tuple[tuple[str, PriorityReport | FmeaDocument], ...]:
        return (
            ("requirement_priority", self.requirement_priority),
            ("function_priority", self.function_priority),
            ("fmea_component", self.component_fmea),
            ("fmea_function", self.function_fmea),
            ("fmea_requirement", self.requirement_fmea),
        )


def risk_consequence_report(
    model: DesignModel, severity: dict[str, int], domain: Domain
) -> PriorityReport:
    """Prioritize one domain's elements by severity, worst first.

    Ties keep element-id order so the report is total and reproducible.
    """
    domain = Domain(domain)
    elements = {
        Domain.REQUIREMENT: model.requirements,
        Domain.FUNCTION: model.functions,
        Domain.COMPONENT: model.components,
    }[domain]

    rated = sorted(
        (e for e in elements if e.id in severity),
        key=lambda e: (-severity[e.id], e.id),
    )
    unrated = sorted((e for e in elements if e.id not in severity), key=lambda e: e.id)

    rows = []
    for position, element in enumerate(rated + unrated, start=1):
        rows.append(
            PriorityRow(
                element_id=element.id,
                element_text=element_text(model, element.id),
                severity=severity.get(element.id),
                position=position,
            )
        )
    warnings = tuple(
        f'{domain.value} "{element.id}" has no severity rating' for element in unrated
    )
    return PriorityReport(domain=domain, rows=tuple(rows), warnings=warnings)


def build_fmea_document(model: DesignModel, result: AnalysisResult, domain: Domain) -> FmeaDocument:
    """Assemble one domain's worksheet from prioritized analysis rows."""
    domain = Domain(domain)
    rows = tuple(
        _fmea_row(model, row) for row in result.rows if row.domain is domain
    )
    return FmeaDocument(domain=domain, rows=rows)


def _fmea_row(model: DesignModel, row: RpnRow) -> FmeaRow:
    fm = model.failure_modes_by_id[row.fm_id]
    if fm.control is not None:
        control = fm.control.method_text or fm.control.method_class
    else:
        control = "-"
    return FmeaRow(
        element_id=row.element_id,
        element_text=element_text(model, row.element_id),
        fm_id=fm.id,
        category=fm.category,
        description=fm.description,
        effects="; ".join(effect.text for effect in fm.effects),
        severity=row.severity,
        causes="; ".join(cause.text for cause in fm.causes),
        occurrence=row.occurrence,
        control=control,
        detection=row.detection,
        rpn=row.rpn,
        rank_position=row.rank_position,
    )


def run_procedure(model: DesignModel, *, propagate_detection: bool = True) -> ArtifactBundle:
    """Run the full pipeline: validate, propagate, prioritize, document.

    Order of work, one pass each: the structural checks; the analysis-ready
    report, whose rating checks read the one rating table (own ratings,
    severity forward, occurrence and detection backward); prioritization
    from that same table; the two priority reports and three worksheets.
    Raises ValidationFailed when the model has validation errors.
    """
    return _run_procedure(model, _structural_errors(model), propagate_detection)


def _run_procedure(model: DesignModel, errors: list[Finding], propagate_detection: bool) -> ArtifactBundle:
    """``run_procedure`` after the structural checks, which found ``errors``."""
    report, table = _complete(model, errors, ANALYSIS_READY)
    if report.has_errors:
        raise ValidationFailed(report)

    result = _prioritize(model, table, propagate_detection)
    return ArtifactBundle(
        requirement_priority=risk_consequence_report(model, result.severity, Domain.REQUIREMENT),
        function_priority=risk_consequence_report(model, result.severity, Domain.FUNCTION),
        component_fmea=build_fmea_document(model, result, Domain.COMPONENT),
        function_fmea=build_fmea_document(model, result, Domain.FUNCTION),
        requirement_fmea=build_fmea_document(model, result, Domain.REQUIREMENT),
        validation=report,
    )


# ---------------------------------------------------------------------------
# Emission. CSV quoting follows RFC 4180 (fields with commas, quotes, or
# newlines are wrapped, embedded quotes doubled); json is written row by row
# with the model writer's helpers; every format ends with a trailing newline.

#: One layout per artifact kind: its header, whose names are also the json
#: row keys; the row attributes, which the row dataclasses declare in header
#: order; and each header name written once as a json member prefix.
_LAYOUTS = {
    kind: (header, attrgetter(*(field.name for field in fields(row))), tuple(_str(name) + ": " for name in header))
    for kind, header, row in (
        (FmeaDocument, FMEA_CSV_HEADER, FmeaRow), (PriorityReport, PRIORITY_CSV_HEADER, PriorityRow)
    )
}


def _md_escape(cell: str) -> str:
    return cell.replace("|", "\\|").replace("\n", " ")


def _emit(artifact: PriorityReport | FmeaDocument, format: str, stamp: str | None) -> str:
    """Render any artifact in any format from its kind's layout."""
    _check_format(format)
    header, values, keys = _LAYOUTS[type(artifact)]
    if format == "json":
        members = ['"provenance": ' + _scalar(stamp)] if stamp else []
        out = ["{\n  " + ",\n  ".join([*members, '"domain": ' + _str(artifact.domain.value), '"rows": '])]
        rows = [[key + _scalar(value) for key, value in zip(keys, values(row))] for row in artifact.rows]
        _array(out, rows, partial(_object, depth=2), 1)
        out.append("\n}\n")
        return "".join(out)
    cell_rows = [["-" if value is None else str(value) for value in values(row)] for row in artifact.rows]
    if format == "csv":
        buffer = io.StringIO()
        if stamp:
            buffer.write(f"# {stamp}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cell_rows)
        return buffer.getvalue()
    # md
    lines = []
    if stamp:
        lines.append(f"<!-- {stamp} -->")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for cells in cell_rows:
        lines.append("| " + " | ".join(_md_escape(c) for c in cells) + " |")
    return "\n".join(lines) + "\n"


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")


def emit_fmea_document(document: FmeaDocument, format: str = "csv", stamp: str | None = None) -> str:
    """Render one worksheet; identical documents give identical bytes."""
    return _emit(document, format, stamp)


def emit_priority_report(report: PriorityReport, format: str = "csv", stamp: str | None = None) -> str:
    """Render one priority report; identical reports give identical bytes."""
    return _emit(report, format, stamp)


def emit_artifact(name: str, artifact: PriorityReport | FmeaDocument, format: str, stamp: str | None = None) -> str:
    """Render one artifact of a bundle; ``name`` is its entry in ``documents()``."""
    return _emit(artifact, format, stamp)


def write_bundle(
    bundle: ArtifactBundle,
    out_dir: str | FsPath,
    format: str = "csv",
    stamp: str | None = None,
) -> list[FsPath]:
    """Write the five artifacts into a directory; returns the paths written."""
    _check_format(format)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[FsPath] = []
    for name, artifact in bundle.documents():
        path = out / f"{name}.{format}"
        path.write_bytes(emit_artifact(name, artifact, format, stamp).encode("utf-8"))
        written.append(path)
    return written
