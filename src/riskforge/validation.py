"""Structural and analysis-ready validation of design models.

Findings are data, not exceptions: a report lists errors and warnings,
each anchored to a path into the model (the same paths the file format
uses, so parse-stage reporting can point at bytes). Two strictness levels
separate "the model is well-formed" from "the model is complete enough to
analyze"; models are usually authored incrementally, so missing ratings
are only errors at the second level.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis as _analysis
from .model import (
    ALL_CATEGORY_NAMES,
    DesignModel,
    Domain,
    allowed_categories,
    is_valid_rank,
)
from .rating import (
    ALL_SEVERITY_CLASS_NAMES,
    SEVERITY_CLASSES,
    RankBand,
    detection_band,
    occurrence_band,
    severity_band,
)

STRUCTURAL = "structural"
ANALYSIS_READY = "analysis-ready"

ERROR = "error"
WARNING = "warning"

Path = tuple[str | int, ...]


@dataclass(frozen=True, slots=True)
class Finding:
    """One validation finding, anchored to a model path."""

    severity: str
    code: str
    message: str
    path: Path

    @property
    def path_str(self) -> str:
        return render_path(self.path)

    def __str__(self) -> str:
        return f"{self.severity}: {self.path_str}: {self.message} [{self.code}]"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """All findings for one model, deterministically ordered."""

    strictness: str
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def has_errors(self) -> bool:
        return any(f.severity == ERROR for f in self.findings)


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

    findings: list[Finding] = []
    _check_duplicate_ids(model, findings)
    _check_edges(model, findings)
    _check_failure_modes(model, findings)
    _check_warnings(model, findings)
    if strictness == ANALYSIS_READY:
        _check_analysis_ready(model, findings)

    findings.sort(key=lambda f: (_path_sort_key(f.path), f.code, f.message))
    return ValidationReport(strictness=strictness, findings=tuple(findings))


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
    specs = (
        ("rf", model.rf, Domain.REQUIREMENT, Domain.FUNCTION),
        ("fc", model.fc, Domain.FUNCTION, Domain.COMPONENT),
    )
    for key, edges, want_source, want_target in specs:
        seen: set[tuple[str, str]] = set()
        for index, edge in enumerate(edges):
            endpoints = ((0, edge.source, want_source), (1, edge.target, want_target))
            direction_ok = True
            for position, endpoint, want in endpoints:
                entry = model.elements_by_id.get(endpoint)
                if entry is None:
                    direction_ok = False
                    _error(
                        findings,
                        "DanglingReference",
                        f'edge references "{endpoint}", which is not a design element',
                        (key, index, position),
                    )
                elif entry[0] is not want:
                    direction_ok = False
            if direction_ok is False and all(
                model.elements_by_id.get(e) is not None for _, e, _ in endpoints
            ):
                _error(
                    findings,
                    "EdgeDirection",
                    f"{key} edges run {want_source.value} to {want_target.value};"
                    f' got "{edge.source}" to "{edge.target}"',
                    (key, index),
                )
            pair = (edge.source, edge.target)
            if pair in seen:
                _error(
                    findings,
                    "DuplicateEdge",
                    f'duplicate {key} edge "{edge.source}" to "{edge.target}"',
                    (key, index),
                )
            seen.add(pair)


def _fm_domain(model: DesignModel, fm) -> Domain | None:
    entry = model.elements_by_id.get(fm.element)
    return entry[0] if entry is not None else None


def _check_failure_modes(model: DesignModel, findings: list[Finding]) -> None:
    for index, fm in enumerate(model.failure_modes):
        base: Path = ("failure_modes", index)
        domain = _fm_domain(model, fm)
        if domain is None:
            _error(
                findings,
                "DanglingReference",
                f'failure mode "{fm.id}" references "{fm.element}",'
                " which is not a design element",
                base + ("element",),
            )

        if fm.category not in ALL_CATEGORY_NAMES:
            _error(
                findings,
                "UnknownCategory",
                f'"{fm.category}" is not a failure-mode category',
                base + ("category",),
            )
        elif domain is not None and fm.category not in allowed_categories(domain):
            _error(
                findings,
                "CategoryDomainMismatch",
                f'category "{fm.category}" is not valid for {domain.value}'
                f' elements (failure mode "{fm.id}")',
                base + ("category",),
            )

        for j, cause in enumerate(fm.causes):
            if cause.occurrence_rank is not None:
                _check_rank(
                    findings,
                    "occurrence",
                    cause.occurrence_rank,
                    None if cause.frequency is None else occurrence_band(cause.frequency),
                    f"frequency {cause.frequency}",
                    base + ("causes", j, "occurrence_rank"),
                )

        for j, effect in enumerate(fm.effects):
            band = None
            if effect.severity_class is not None:
                class_path = base + ("effects", j, "severity_class")
                if effect.severity_class not in ALL_SEVERITY_CLASS_NAMES:
                    _error(
                        findings,
                        "UnknownSeverityClass",
                        f'"{effect.severity_class}" is not a severity class',
                        class_path,
                    )
                elif domain is not None:
                    if effect.severity_class not in SEVERITY_CLASSES[domain]:
                        _error(
                            findings,
                            "SeverityClassDomainMismatch",
                            f'severity class "{effect.severity_class}" is not valid'
                            f" for {domain.value} elements",
                            class_path,
                        )
                    else:
                        band = severity_band(domain, effect.severity_class)
            if effect.severity_rank is not None:
                _check_rank(
                    findings,
                    "severity",
                    effect.severity_rank,
                    band,
                    f'class "{effect.severity_class}"',
                    base + ("effects", j, "severity_rank"),
                )

        if fm.control is not None and fm.control.detection_rank is not None:
            _check_rank(
                findings,
                "detection",
                fm.control.detection_rank,
                detection_band(fm.control.method_class),
                f'control class "{fm.control.method_class}"',
                base + ("control", "detection_rank"),
            )


def _check_rank(
    findings: list[Finding], scale: str, rank: object, band: RankBand | None, basis: str, path: Path
) -> None:
    """Range-check a given rank, then check it against its band when it has one."""
    if not is_valid_rank(rank):
        _error(findings, "RankOutOfRange", f"rank must be an integer in 1..10, got {rank!r}", path)
    elif band is not None and rank not in band:
        _error(findings, "RankBandMismatch", f"{scale} rank {rank} is outside band {band} for {basis}", path)


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


def _check_analysis_ready(model: DesignModel, findings: list[Finding]) -> None:
    # Tolerant propagation: unrated failure modes simply contribute
    # nothing, so coverage holes show up as absent map entries.
    table = _analysis.rating_table(model)

    for index, (fm, (severity, occurrence, _)) in enumerate(zip(model.failure_modes, table.ratings)):
        base: Path = ("failure_modes", index)
        domain = _fm_domain(model, fm)
        if domain is None:
            continue

        if domain in (Domain.COMPONENT, Domain.REQUIREMENT) and severity is None:
            _error(
                findings,
                "MissingSeverityRating",
                f'{domain.value} failure mode "{fm.id}" has no effect with a'
                " severity rank or severity class",
                base + ("effects",),
            )
        elif severity is None and fm.element not in table.severity:
            _error(
                findings,
                "NoSeveritySource",
                f'failure mode "{fm.id}" has no rated effect and element'
                f' "{fm.element}" receives no severity through the mappings',
                base,
            )

        if domain is Domain.COMPONENT:
            if occurrence is None:
                _error(
                    findings,
                    "MissingOccurrenceRating",
                    f'component failure mode "{fm.id}" has no cause with an'
                    " occurrence rank or frequency",
                    base + ("causes",),
                )
            if fm.control is None:
                _error(
                    findings,
                    "MissingControlPlan",
                    f'component failure mode "{fm.id}" has no control plan,'
                    " so no detection rank can be assigned",
                    base,
                )
        else:
            if fm.element not in table.occurrence:
                _error(
                    findings,
                    "NoOccurrenceSource",
                    f'failure mode "{fm.id}": element "{fm.element}" maps to no'
                    " component with occurrence-rated failure modes",
                    base,
                )
            if fm.control is None and fm.element not in table.detection:
                _error(
                    findings,
                    "NoDetectionSource",
                    f'failure mode "{fm.id}" has no control plan and element'
                    f' "{fm.element}" maps to no component with a detection rank',
                    base,
                )
