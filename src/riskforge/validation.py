"""Structural and analysis-ready validation of design models.

Findings are data, not exceptions: a report lists errors and warnings,
each anchored to a path into the model (the same paths the file format
uses, so parse-stage reporting can point at bytes). Two strictness levels
separate "the model is well-formed" from "the model is complete enough to
analyze"; models are usually authored incrementally, so missing ratings
are only errors at the second level. The rank checks (range, band, severity
class) are ``rating.own_ratings``'s findings, filed here under each failure
mode. The ratings that call returns go on to the rating table of the same
validation call, so the table does not read them again; a call that skips
the structural checks (the CLI, whose parse already ran them) lets the
table read them itself. Paths are built only for findings that are filed.
"""

from __future__ import annotations

from . import analysis as _analysis
from .analysis import _fm_domain
from .model import ALL_CATEGORY_NAMES, DesignModel, Domain, _Record, _slot_setters, allowed_categories
from .rating import Problem, own_ratings

STRUCTURAL = "structural"
ANALYSIS_READY = "analysis-ready"

ERROR = "error"
WARNING = "warning"

Path = tuple[str | int, ...]


class Finding(_Record):
    """One validation finding, anchored to a model path."""

    __slots__ = ("severity", "code", "message", "path")
    severity: str
    code: str
    message: str
    path: Path

    def __init__(self, severity: str, code: str, message: str, path: Path) -> None:
        set_severity, set_code, set_message, set_path = _FINDING_SLOTS
        set_severity(self, severity)
        set_code(self, code)
        set_message(self, message)
        set_path(self, path)

    @property
    def path_str(self) -> str:
        return render_path(self.path)

    def __str__(self) -> str:
        return f"{self.severity}: {self.path_str}: {self.message} [{self.code}]"


_FINDING_SLOTS = _slot_setters(Finding)


class ValidationReport(_Record):
    """All findings for one model, deterministically ordered."""

    __slots__ = ("strictness", "findings")
    strictness: str
    findings: tuple[Finding, ...]

    def __init__(self, strictness: str, findings: tuple[Finding, ...]) -> None:
        set_strictness, set_findings = _VALIDATION_REPORT_SLOTS
        set_strictness(self, strictness)
        set_findings(self, findings)

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def has_errors(self) -> bool:
        return any(f.severity == ERROR for f in self.findings)


_VALIDATION_REPORT_SLOTS = _slot_setters(ValidationReport)


def render_path(path: Path) -> str:
    parts: list[str] = []
    for segment in path:
        if isinstance(segment, int):
            parts.append(f"[{segment}]")
        else:
            parts.append(f".{segment}" if parts else segment)
    return "".join(parts)


def _path_sort_key(path: Path) -> tuple:
    # Indices sort numerically, keys lexically; the tag keeps the tuple
    # comparison homogeneous per position.
    return tuple(("i", s) if isinstance(s, int) else ("k", s) for s in path)


def validate_model(model: DesignModel, strictness: str = STRUCTURAL) -> ValidationReport:
    """Validate a model and return every finding, sorted by path then code.

    Structural checks cover identity and cross-reference soundness plus
    rank ranges and rank/band consistency. Analysis-ready additionally
    requires every failure mode to yield a severity, occurrence, and
    detection rank, either from its own ratings or through the mappings.
    """
    if strictness not in (STRUCTURAL, ANALYSIS_READY):
        raise ValueError(f"strictness must be {STRUCTURAL!r} or {ANALYSIS_READY!r}")
    ratings: list | None = [] if strictness == ANALYSIS_READY else None
    return _complete(model, _structural_errors(model, ratings), strictness, ratings)[0]


def _structural_errors(model: DesignModel, ratings: list | None = None) -> list[Finding]:
    """Identity, cross-reference and rank errors; a parsed model has none.

    With a list in ``ratings``, each failure mode's own (S, O, D), which the
    rank checks read, is appended to it in model order, for ``_complete``."""
    findings: list[Finding] = []
    _check_duplicate_ids(model, findings)
    _check_edges(model, findings)
    _check_failure_modes(model, findings, ratings)
    return findings


def _complete(
    model: DesignModel, findings: list[Finding], strictness: str, ratings: list | None = None
) -> tuple[ValidationReport, _analysis.RatingTable | None]:
    """Add warnings, and at the analysis-ready level the rating checks, to the structural
    ``findings``; return the sorted report and the rating table read (None if structural).

    ``ratings`` are the own ratings ``_structural_errors`` read for the same
    model, if it was run on it in this call; without them the table reads its own."""
    _check_warnings(model, findings)
    table = None
    if strictness == ANALYSIS_READY:
        table = _analysis._rating_table(model, ratings)
        _check_analysis_ready(model, table, findings)

    findings.sort(key=lambda f: (_path_sort_key(f.path), f.code, f.message))
    return ValidationReport(strictness=strictness, findings=tuple(findings)), table


def _error(findings: list[Finding], code: str, message: str, path: Path) -> None:
    findings.append(Finding(ERROR, code, message, path))


def _warn(findings: list[Finding], code: str, message: str, path: Path) -> None:
    findings.append(Finding(WARNING, code, message, path))


def _check_duplicate_ids(model: DesignModel, findings: list[Finding]) -> None:
    # One namespace for everything: element lookups and failure-mode
    # references must never be ambiguous.
    seen: dict[str, str] = {}
    groups = (
        ("requirements", model.requirements),
        ("functions", model.functions),
        ("components", model.components),
        ("failure_modes", model.failure_modes),
    )
    for key, items in groups:
        kind = key[:-1].replace("_", " ")
        for index, item in enumerate(items):
            if item.id in seen:
                _error(
                    findings,
                    "DuplicateId",
                    f'id "{item.id}" is already used by a {seen[item.id]}',
                    (key, index, "id"),
                )
            else:
                seen[item.id] = kind


def _check_edges(model: DesignModel, findings: list[Finding]) -> None:
    elements = model.elements_by_id
    specs = (
        ("rf", model.rf, Domain.REQUIREMENT, Domain.FUNCTION),
        ("fc", model.fc, Domain.FUNCTION, Domain.COMPONENT),
    )
    for key, edges, want_source, want_target in specs:
        # The targets met so far per source; a dict of str keys and None
        # values is never tracked by the collector.
        targets_of: dict[str, dict[str, None]] = {}
        for index, edge in enumerate(edges):
            source, target = edge.source, edge.target
            source_entry = elements.get(source)
            target_entry = elements.get(target)
            if source_entry is None:
                _dangling_edge(findings, source, (key, index, 0))
            if target_entry is None:
                _dangling_edge(findings, target, (key, index, 1))
            elif source_entry is not None and not (source_entry[0] is want_source and target_entry[0] is want_target):
                _error(
                    findings,
                    "EdgeDirection",
                    f"{key} edges run {want_source.value} to {want_target.value};"
                    f' got "{source}" to "{target}"',
                    (key, index),
                )
            targets = targets_of.get(source)
            if targets is None:
                targets_of[source] = {target: None}
            elif target in targets:
                _error(findings, "DuplicateEdge", f'duplicate {key} edge "{source}" to "{target}"', (key, index))
            else:
                targets[target] = None


def _dangling_edge(findings: list[Finding], endpoint: str, path: Path) -> None:
    _error(findings, "DanglingReference", f'edge references "{endpoint}", which is not a design element', path)


def _check_failure_modes(model: DesignModel, findings: list[Finding], ratings: list | None) -> None:
    problems: list[Problem] = []
    for index, fm in enumerate(model.failure_modes):
        domain = _fm_domain(model, fm)
        if domain is None:
            _error(
                findings,
                "DanglingReference",
                f'failure mode "{fm.id}" references "{fm.element}",'
                " which is not a design element",
                ("failure_modes", index, "element"),
            )

        if fm.category not in ALL_CATEGORY_NAMES:
            _error(
                findings,
                "UnknownCategory",
                f'"{fm.category}" is not a failure-mode category',
                ("failure_modes", index, "category"),
            )
        elif domain is not None and fm.category not in allowed_categories(domain):
            _error(
                findings,
                "CategoryDomainMismatch",
                f'category "{fm.category}" is not valid for {domain.value}'
                f' elements (failure mode "{fm.id}")',
                ("failure_modes", index, "category"),
            )

        own = own_ratings(domain, fm, problems)
        if ratings is not None:
            ratings.append(own)
        if problems:
            for subpath, code, message in problems:
                _error(findings, code, message, ("failure_modes", index) + subpath)
            problems.clear()


def _check_warnings(model: DesignModel, findings: list[Finding]) -> None:
    for index, function in enumerate(model.functions):
        if function.id not in model.rf_sources:
            _warn(
                findings,
                "OrphanFunction",
                f'function "{function.id}" is mapped to no requirement',
                ("functions", index),
            )
    for index, component in enumerate(model.components):
        if component.id not in model.fc_sources:
            _warn(
                findings,
                "OrphanComponent",
                f'component "{component.id}" is mapped to no function',
                ("components", index),
            )

    groups = (
        ("requirements", model.requirements),
        ("functions", model.functions),
        ("components", model.components),
    )
    for key, items in groups:
        for index, item in enumerate(items):
            if not model.failure_modes_of(item.id):
                _warn(
                    findings,
                    "ZeroFailureModes",
                    f'{key[:-1]} "{item.id}" has no failure modes'
                    " (allowed; illogical modes may be skipped)",
                    (key, index),
                )

    for index, fm in enumerate(model.failure_modes):
        domain = _fm_domain(model, fm)
        if domain in (Domain.REQUIREMENT, Domain.FUNCTION):
            if not fm.causes:
                _warn(
                    findings,
                    "EmptyCauses",
                    f'failure mode "{fm.id}" lists no causes',
                    ("failure_modes", index, "causes"),
                )
            if not fm.effects:
                _warn(
                    findings,
                    "EmptyEffects",
                    f'failure mode "{fm.id}" lists no effects',
                    ("failure_modes", index, "effects"),
                )


def _check_analysis_ready(model: DesignModel, table: _analysis.RatingTable, findings: list[Finding]) -> None:
    # Tolerant propagation: unrated failure modes simply contribute
    # nothing, so coverage holes show up as absent map entries.
    for index, (fm, (severity, occurrence, _)) in enumerate(zip(model.failure_modes, table.ratings)):
        domain = _fm_domain(model, fm)
        if domain is None:
            continue

        if domain in (Domain.COMPONENT, Domain.REQUIREMENT) and severity is None:
            _error(
                findings,
                "MissingSeverityRating",
                f'{domain.value} failure mode "{fm.id}" has no effect with a'
                " severity rank or severity class",
                ("failure_modes", index, "effects"),
            )
        elif severity is None and fm.element not in table.severity:
            _error(
                findings,
                "NoSeveritySource",
                f'failure mode "{fm.id}" has no rated effect and element'
                f' "{fm.element}" receives no severity through the mappings',
                ("failure_modes", index),
            )

        if domain is Domain.COMPONENT:
            if occurrence is None:
                _error(
                    findings,
                    "MissingOccurrenceRating",
                    f'component failure mode "{fm.id}" has no cause with an'
                    " occurrence rank or frequency",
                    ("failure_modes", index, "causes"),
                )
            if fm.control is None:
                _error(
                    findings,
                    "MissingControlPlan",
                    f'component failure mode "{fm.id}" has no control plan,'
                    " so no detection rank can be assigned",
                    ("failure_modes", index),
                )
        else:
            if fm.element not in table.occurrence:
                _error(
                    findings,
                    "NoOccurrenceSource",
                    f'failure mode "{fm.id}": element "{fm.element}" maps to no'
                    " component with occurrence-rated failure modes",
                    ("failure_modes", index),
                )
            if fm.control is None and fm.element not in table.detection:
                _error(
                    findings,
                    "NoDetectionSource",
                    f'failure mode "{fm.id}" has no control plan and element'
                    f' "{fm.element}" maps to no component with a detection rank',
                    ("failure_modes", index),
                )
