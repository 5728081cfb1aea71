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
from operator import attrgetter
from pathlib import Path as FsPath

from .analysis import AnalysisResult, RpnRow, _prioritize
from .io import _scalar, _str
from .model import DesignModel, Domain, _Record, _slot_setters, element_text
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


class FmeaRow(_Record):
    """One worksheet line: the failure mode, its text columns, and ranks."""

    __slots__ = (
        "element_id", "element_text", "fm_id", "category", "description", "effects", "severity",
        "causes", "occurrence", "control", "detection", "rpn", "rank_position",
    )
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

    def __init__(
        self,
        element_id: str,
        element_text: str,
        fm_id: str,
        category: str,
        description: str,
        effects: str,
        severity: int,
        causes: str,
        occurrence: int,
        control: str,
        detection: int | None,
        rpn: int,
        rank_position: int,
    ) -> None:
        (set_element_id, set_element_text, set_fm_id, set_category, set_description, set_effects, set_severity,
         set_causes, set_occurrence, set_control, set_detection, set_rpn, set_rank) = _FMEA_ROW_SLOTS
        set_element_id(self, element_id)
        set_element_text(self, element_text)
        set_fm_id(self, fm_id)
        set_category(self, category)
        set_description(self, description)
        set_effects(self, effects)
        set_severity(self, severity)
        set_causes(self, causes)
        set_occurrence(self, occurrence)
        set_control(self, control)
        set_detection(self, detection)
        set_rpn(self, rpn)
        set_rank(self, rank_position)


_FMEA_ROW_SLOTS = _slot_setters(FmeaRow)


class FmeaDocument(_Record):
    """The worksheet for one element domain, in overall priority order."""

    __slots__ = ("domain", "rows")
    domain: Domain
    rows: tuple[FmeaRow, ...]

    def __init__(self, domain: Domain, rows: tuple[FmeaRow, ...]) -> None:
        set_domain, set_rows = _FMEA_DOCUMENT_SLOTS
        set_domain(self, domain)
        set_rows(self, rows)


_FMEA_DOCUMENT_SLOTS = _slot_setters(FmeaDocument)


class PriorityRow(_Record):
    """One element of a priority report: its text, its propagated severity
    (None when unrated) and its 1-based place in the report."""

    __slots__ = ("element_id", "element_text", "severity", "position")
    element_id: str
    element_text: str
    severity: int | None
    position: int

    def __init__(self, element_id: str, element_text: str, severity: int | None, position: int) -> None:
        set_element_id, set_element_text, set_severity, set_position = _PRIORITY_ROW_SLOTS
        set_element_id(self, element_id)
        set_element_text(self, element_text)
        set_severity(self, severity)
        set_position(self, position)


_PRIORITY_ROW_SLOTS = _slot_setters(PriorityRow)


class PriorityReport(_Record):
    """Elements of one domain ordered by propagated severity.

    Elements the severity map does not cover are appended after the rated
    ones, with their absence noted in ``warnings``.
    """

    __slots__ = ("domain", "rows", "warnings")
    domain: Domain
    rows: tuple[PriorityRow, ...]
    warnings: tuple[str, ...]

    def __init__(self, domain: Domain, rows: tuple[PriorityRow, ...], warnings: tuple[str, ...] = ()) -> None:
        set_domain, set_rows, set_warnings = _PRIORITY_REPORT_SLOTS
        set_domain(self, domain)
        set_rows(self, rows)
        set_warnings(self, warnings)


_PRIORITY_REPORT_SLOTS = _slot_setters(PriorityReport)


class ArtifactBundle(_Record):
    """The five artifacts of one run and the validation report they passed."""

    __slots__ = (
        "requirement_priority", "function_priority", "component_fmea", "function_fmea", "requirement_fmea", "validation"
    )
    requirement_priority: PriorityReport
    function_priority: PriorityReport
    component_fmea: FmeaDocument
    function_fmea: FmeaDocument
    requirement_fmea: FmeaDocument
    validation: ValidationReport

    def __init__(
        self,
        requirement_priority: PriorityReport,
        function_priority: PriorityReport,
        component_fmea: FmeaDocument,
        function_fmea: FmeaDocument,
        requirement_fmea: FmeaDocument,
        validation: ValidationReport,
    ) -> None:
        (set_requirement_priority, set_function_priority, set_component_fmea,
         set_function_fmea, set_requirement_fmea, set_validation) = _ARTIFACT_BUNDLE_SLOTS
        set_requirement_priority(self, requirement_priority)
        set_function_priority(self, function_priority)
        set_component_fmea(self, component_fmea)
        set_function_fmea(self, function_fmea)
        set_requirement_fmea(self, requirement_fmea)
        set_validation(self, validation)

    def documents(self) -> tuple[tuple[str, PriorityReport | FmeaDocument], ...]:
        return (
            ("requirement_priority", self.requirement_priority),
            ("function_priority", self.function_priority),
            ("fmea_component", self.component_fmea),
            ("fmea_function", self.function_fmea),
            ("fmea_requirement", self.requirement_fmea),
        )


_ARTIFACT_BUNDLE_SLOTS = _slot_setters(ArtifactBundle)

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
    return FmeaDocument(domain, _fmea_rows(model, [row for row in result.rows if row.domain is domain]))


def _worksheets(model: DesignModel, result: AnalysisResult) -> dict[Domain, FmeaDocument]:
    """``build_fmea_document`` for every domain, from one pass over the rows."""
    grouped: dict[Domain, list[RpnRow]] = {domain: [] for domain in Domain}
    for row in result.rows:
        grouped[row.domain].append(row)
    return {domain: FmeaDocument(domain, _fmea_rows(model, rows)) for domain, rows in grouped.items()}


_TEXT = attrgetter("text")


def _fmea_rows(model: DesignModel, rows: list[RpnRow]) -> tuple[FmeaRow, ...]:
    failure_modes = model.failure_modes_by_id
    out = []
    for row in rows:
        fm = failure_modes[row.fm_id]
        control = fm.control
        out.append(FmeaRow(
            row.element_id,
            element_text(model, row.element_id),
            fm.id,
            fm.category,
            fm.description,
            "; ".join(map(_TEXT, fm.effects)),
            row.severity,
            "; ".join(map(_TEXT, fm.causes)),
            row.occurrence,
            "-" if control is None else control.method_text or control.method_class,
            row.detection,
            row.rpn,
            row.rank_position,
        ))
    return tuple(out)


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
    worksheets = _worksheets(model, result)
    return ArtifactBundle(
        requirement_priority=risk_consequence_report(model, result.severity, Domain.REQUIREMENT),
        function_priority=risk_consequence_report(model, result.severity, Domain.FUNCTION),
        component_fmea=worksheets[Domain.COMPONENT],
        function_fmea=worksheets[Domain.FUNCTION],
        requirement_fmea=worksheets[Domain.REQUIREMENT],
        validation=report,
    )


# ---------------------------------------------------------------------------
# Emission. CSV quoting follows RFC 4180 (fields with commas, quotes, or
# newlines are wrapped, embedded quotes doubled); json is written row by row
# as ``json.dumps(..., indent=2, ensure_ascii=False)`` writes it; every
# format ends with a trailing newline. Each row is joined once in C; only a
# row whose joined text shows a cell needing quotes or escapes is redone
# cell by cell.

def _json_row(header: tuple[str, ...]) -> list[str | None]:
    """The text of a json row around its values, which go in the odd slots."""
    pieces: list[str | None] = []
    for opening, name in zip(["\n    {\n      "] + [",\n      "] * (len(header) - 1), header):
        pieces += [opening + _str(name) + ": ", None]
    return pieces + ["\n    }"]


#: One layout per artifact kind: its header, whose names are also the json
#: row keys; the row attributes, which the row records declare as slots in
#: header order; and the json row text around the values.
_LAYOUTS = {
    kind: (header, attrgetter(*row.__slots__), _json_row(header))
    for kind, header, row in (
        (FmeaDocument, FMEA_CSV_HEADER, FmeaRow), (PriorityReport, PRIORITY_CSV_HEADER, PriorityRow)
    )
}

#: A json cell's writer by its type; any other type goes through ``_scalar``.
_JSON_CELLS = {str: _str, int: int.__repr__, type(None): lambda value: "null"}


def _md_escape(cell: str) -> str:
    return cell.replace("|", "\\|").replace("\n", " ")


def _text_cells(values, rows):
    """Each row's cells, with "-" for no value; the writers ``str`` them."""
    for cells in map(values, rows):
        yield ["-" if value is None else value for value in cells] if None in cells else cells


def _emit(artifact: PriorityReport | FmeaDocument, format: str, stamp: str | None) -> str:
    """Render any artifact in any format from its kind's layout."""
    _check_format(format)
    header, values, json_row = _LAYOUTS[type(artifact)]
    if format == "json":
        members = ['"provenance": ' + _scalar(stamp)] if stamp else []
        head = "{\n  " + ",\n  ".join([*members, '"domain": ' + _str(artifact.domain.value), '"rows": ['])
        cell = _JSON_CELLS.get
        pieces = list(json_row)
        rows = []
        for cells in map(values, artifact.rows):
            # str.join sizes each row once; %-formatting grows and then
            # shrinks it, which left ~1 MB more heap behind a bulk job.
            pieces[1::2] = [cell(type(value), _scalar)(value) for value in cells]
            rows.append("".join(pieces))
        if not rows:
            return head + "]\n}\n"
        rows[0] = head + rows[0]
        rows[-1] += "\n  ]\n}\n"
        return ",".join(rows)
    separators = len(header) - 1
    if format == "csv":
        buffer = io.StringIO()
        if stamp:
            buffer.write(f"# {stamp}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for cells in _text_cells(values, artifact.rows):
            # With only the separators' commas and no quote or line break,
            # no cell needs quoting and the writer would write the line as
            # joined; a "\r" goes to the writer, as some Python versions
            # quote it.
            line = ",".join(map(str, cells))
            if line.count(",") == separators and '"' not in line and "\r" not in line and "\n" not in line:
                buffer.write(line + "\n")
            else:
                writer.writerow(map(str, cells))
        return buffer.getvalue()
    # md: the separators hold exactly len(header) - 1 pipes, so a row needs
    # escaping if and only if its joined text holds more, or a newline.
    lines = [f"<!-- {stamp} -->"] if stamp else []
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    head = "\n".join(lines) + "\n"
    rows = []
    for cells in _text_cells(values, artifact.rows):
        line = " | ".join(map(str, cells))
        if line.count("|") != separators or "\n" in line:
            line = " | ".join([_md_escape(str(cell)) for cell in cells])
        rows.append(line)
    if not rows:
        return head
    rows[0] = head + "| " + rows[0]
    rows[-1] += " |\n"
    return " |\n| ".join(rows)


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
