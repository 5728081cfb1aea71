"""Severity, occurrence, and detection reasoning over a design model.

One engine rates a model. ``rating_table`` takes each failure mode's own
ratings from ``rating.own_ratings``, the one copy of the rank rules, which
validation checks through the same function. Within one validating call
(``run_procedure``, ``validate_model`` at the analysis-ready level) the
structural checks hand the ratings they read to the table, so each
failure mode is read once per call. ``_propagate_max`` then
carries severity forward (requirements to functions to components) and
occurrence and detection, which originate at components, backward along
the two mapping matrices, each as a running maximum.
Propagation is two strata in each direction, so cycles cannot arise, and
tolerant: the public entry points raise for the first unrated leaf of the
ratings they need.

``oracle_propagate`` recomputes all three maps by brute-force enumeration
of every requirement-function-component path, with no reuse of
intermediate element values. It exists so tests can check the direct
implementations against an independent route on small models.
"""

from __future__ import annotations

from .model import (
    DesignModel,
    Domain,
    FailureMode,
    _Record,
    _slot_setters,
    element_domain,
    element_text,
    get_failure_mode,
)
from .rating import own_ratings, rpn


class AnalysisError(Exception):
    """A failure mode could not be rated; carries the offending id."""

    def __init__(self, failure_mode_id: str, message: str) -> None:
        super().__init__(message)
        self.failure_mode_id = failure_mode_id


class MissingSeverity(AnalysisError):
    pass


class MissingOccurrence(AnalysisError):
    pass


class MissingDetection(AnalysisError):
    pass


class RpnRow(_Record):
    """One prioritized failure mode with its three ranks and RPN.

    The (severity, occurrence, detection) triple is kept alongside the
    product: distinct risk situations can share an RPN, and collapsing
    them would hide which one is on the table.
    """

    __slots__ = ("fm_id", "element_id", "domain", "severity", "occurrence", "detection", "rpn", "rank_position")
    fm_id: str
    element_id: str
    domain: Domain
    severity: int
    occurrence: int
    detection: int | None
    rpn: int
    rank_position: int

    def __init__(
        self,
        fm_id: str,
        element_id: str,
        domain: Domain,
        severity: int,
        occurrence: int,
        detection: int | None,
        rpn: int,
        rank_position: int,
    ) -> None:
        (set_fm_id, set_element_id, set_domain, set_severity,
         set_occurrence, set_detection, set_rpn, set_rank) = _RPN_ROW_SLOTS
        set_fm_id(self, fm_id)
        set_element_id(self, element_id)
        set_domain(self, domain)
        set_severity(self, severity)
        set_occurrence(self, occurrence)
        set_detection(self, detection)
        set_rpn(self, rpn)
        set_rank(self, rank_position)


_RPN_ROW_SLOTS = _slot_setters(RpnRow)


class AnalysisResult(_Record):
    """Propagated rank maps plus one prioritized row per failure mode."""

    __slots__ = ("severity", "occurrence", "detection", "rows")
    severity: dict[str, int]
    occurrence: dict[str, int]
    detection: dict[str, int]
    rows: tuple[RpnRow, ...]

    def __init__(
        self, severity: dict[str, int], occurrence: dict[str, int], detection: dict[str, int], rows: tuple[RpnRow, ...]
    ) -> None:
        set_severity, set_occurrence, set_detection, set_rows = _ANALYSIS_RESULT_SLOTS
        set_severity(self, severity)
        set_occurrence(self, occurrence)
        set_detection(self, detection)
        set_rows(self, rows)


_ANALYSIS_RESULT_SLOTS = _slot_setters(AnalysisResult)


class TraceHop(_Record):
    """One element on a trace, with one of its failure modes if it has any."""

    __slots__ = ("element_id", "failure_mode_id", "text")
    element_id: str
    failure_mode_id: str | None
    text: str

    def __init__(self, element_id: str, failure_mode_id: str | None, text: str) -> None:
        set_element_id, set_failure_mode_id, set_text = _TRACE_HOP_SLOTS
        set_element_id(self, element_id)
        set_failure_mode_id(self, failure_mode_id)
        set_text(self, text)


_TRACE_HOP_SLOTS = _slot_setters(TraceHop)


class TraceChain(_Record):
    """Single-hop adjacency walk from a failure mode, up toward effects
    or down toward causes. Hops for the same element stay adjacent;
    consecutive hops on different elements are joined by an rf or fc edge.
    """

    __slots__ = ("direction", "hops")
    direction: str
    hops: tuple[TraceHop, ...]

    def __init__(self, direction: str, hops: tuple[TraceHop, ...]) -> None:
        set_direction, set_hops = _TRACE_CHAIN_SLOTS
        set_direction(self, direction)
        set_hops(self, hops)


_TRACE_CHAIN_SLOTS = _slot_setters(TraceChain)


def resolve_fm_severity(model: DesignModel, fm: FailureMode) -> int | None:
    """Worst severity over the failure mode's rated effects, or None (``rating.own_ratings``)."""
    return own_ratings(_fm_domain(model, fm), fm, [])[0]


def resolve_fm_occurrence(fm: FailureMode) -> int | None:
    """Worst occurrence over the failure mode's rated causes, or None (``rating.own_ratings``)."""
    return own_ratings(None, fm, [])[1]


def resolve_fm_detection(fm: FailureMode) -> int | None:
    """Detection rank of the failure mode's control plan, or None (``rating.own_ratings``)."""
    return own_ratings(None, fm, [])[2]


def _fm_domain(model: DesignModel, fm: FailureMode) -> Domain | None:
    """The class of the failure mode's element, or None if it names none."""
    entry = model.elements_by_id.get(fm.element)
    return entry[0] if entry is not None else None


class RatingTable(_Record):
    """Own (severity, occurrence, detection) per failure mode, in model order,
    the three propagated maps, and per rating each element's first unrated
    failure mode (occurrence and detection on components only).

    Occurrence originates at components only: the own occurrence of a
    failure mode off a component is kept but never read, since its row
    takes the propagated value.
    """

    __slots__ = ("ratings", "severity", "occurrence", "detection", "unrated")
    ratings: tuple[tuple[int | None, int | None, int | None], ...]
    severity: dict[str, int]
    occurrence: dict[str, int]
    detection: dict[str, int]
    unrated: tuple[dict[str, str], dict[str, str], dict[str, str]]

    def __init__(
        self,
        ratings: tuple[tuple[int | None, int | None, int | None], ...],
        severity: dict[str, int],
        occurrence: dict[str, int],
        detection: dict[str, int],
        unrated: tuple[dict[str, str], dict[str, str], dict[str, str]],
    ) -> None:
        set_ratings, set_severity, set_occurrence, set_detection, set_unrated = _RATING_TABLE_SLOTS
        set_ratings(self, ratings)
        set_severity(self, severity)
        set_occurrence(self, occurrence)
        set_detection(self, detection)
        set_unrated(self, unrated)


_RATING_TABLE_SLOTS = _slot_setters(RatingTable)


def _propagate_max(seeds: tuple[dict[str, int], ...], steps) -> dict[str, int]:
    """Carry a maximum across the mappings, one element class per step.

    Each step is (elements, upstream) with its own seeds: an element takes
    the maximum of its seed and of the values already given to the ids
    ``upstream`` lists for it. Elements with neither are left out.
    """
    values: dict[str, int] = {}
    for own, (elements, upstream) in zip(seeds, steps):
        for element in elements:
            best = own.get(element.id)
            for source in upstream.get(element.id, ()):
                value = values.get(source)
                if value is not None and (best is None or value > best):
                    best = value
            if best is not None:
                values[element.id] = best
    return values


def rating_table(model: DesignModel) -> RatingTable:
    """Rate every failure mode once, then propagate tolerantly: unrated
    failure modes contribute nothing. Occurrence and detection originate at
    components only."""
    return _rating_table(model, None)


def _rating_table(model: DesignModel, ratings: list | None) -> RatingTable:
    """``rating_table`` from each failure mode's own ratings in model order,
    as ``own_ratings`` gives them; read here when ``ratings`` is None."""
    if ratings is None:
        elements = model.elements_by_id
        problems: list = []  # the structural stage reports these; unread here
        ratings = []
        for fm in model.failure_modes:
            entry = elements.get(fm.element)
            ratings.append(own_ratings(None if entry is None else entry[0], fm, problems))
    component_ids = {component.id for component in model.components}
    seeds: tuple[dict[str, int], ...] = ({}, {}, {})
    unrated: tuple[dict[str, str], ...] = ({}, {}, {})
    for fm, own in zip(model.failure_modes, ratings):
        for kind in (0, 1, 2) if fm.element in component_ids else (0,):
            if own[kind] is None:
                unrated[kind].setdefault(fm.element, fm.id)
            elif own[kind] > seeds[kind].get(fm.element, 0):
                seeds[kind][fm.element] = own[kind]

    forward = ((model.requirements, {}), (model.functions, model.rf_sources), (model.components, model.fc_sources))
    backward = ((model.components, {}), (model.functions, model.fc_targets), (model.requirements, model.rf_targets))
    own_severity, own_occurrence, own_detection = seeds
    return RatingTable(
        ratings=tuple(ratings),
        severity=_propagate_max((own_severity,) * 3, forward),
        occurrence=_propagate_max((own_occurrence, {}, {}), backward),
        detection=_propagate_max((own_detection, {}, {}), backward),
        unrated=unrated,
    )


# Per rating: the elements it must resolve on (the root of its direction),
# the error, and the message. Checked in this order, elements in model order.
_LEAF_CHECKS = (
    ("requirements", MissingSeverity, 'requirement failure mode "{}" has no effect with a severity rank or class'),
    ("components", MissingOccurrence, 'component failure mode "{}" has no cause with an occurrence rank or frequency'),
    ("components", MissingDetection, 'component failure mode "{}" has no control plan'),
)


def _checked_table(model: DesignModel, *kinds: int) -> RatingTable:
    """The rating table, once no leaf lacks a rating of ``kinds`` (0 S, 1 O, 2 D)."""
    table = rating_table(model)
    for kind in kinds:
        group, error, message = _LEAF_CHECKS[kind]
        for element in getattr(model, group):
            fm_id = table.unrated[kind].get(element.id)
            if fm_id is not None:
                raise error(fm_id, message.format(fm_id))
    return table


def forward_severity(model: DesignModel) -> dict[str, int]:
    """Severity of every element reachable by forward reasoning."""
    return _checked_table(model, 0).severity


def backward_occurrence(model: DesignModel) -> dict[str, int]:
    """Occurrence of every element reachable by backward reasoning."""
    return _checked_table(model, 1).occurrence


def assign_detection(model: DesignModel) -> dict[str, int]:
    """Detection of every element with a component-level detection source."""
    return _checked_table(model, 2).detection


def analyze(model: DesignModel, *, propagate_detection: bool = True) -> AnalysisResult:
    """Rate and prioritize every failure mode in the model.

    Each row takes its own ratings where the failure mode carries them and
    falls back to the owning element's propagated value otherwise;
    occurrence for requirement and function rows always comes from
    propagation. With ``propagate_detection`` off, rows without their own
    control plan get no detection rank and an RPN of severity times
    occurrence.

    Rows are sorted by RPN, then severity, occurrence, and detection, all
    descending, then element id and failure mode id; positions are dense
    from 1. The tail of the ordering exists purely to make it total.
    """
    return _prioritize(model, _checked_table(model, 0, 1, 2), propagate_detection)


def _prioritize(model: DesignModel, table: RatingTable, propagate_detection: bool) -> AnalysisResult:
    """``analyze`` on a rating table whose leaves are rated."""
    rows = []
    for fm, (severity, occurrence, detection) in zip(model.failure_modes, table.ratings):
        domain = element_domain(model, fm.element)

        if severity is None:
            severity = table.severity.get(fm.element)
        if severity is None:
            raise MissingSeverity(
                fm.id,
                f'failure mode "{fm.id}" has no rated effect and no propagated severity',
            )

        if domain is not Domain.COMPONENT:
            occurrence = table.occurrence.get(fm.element)
        if occurrence is None:
            raise MissingOccurrence(
                fm.id, f'failure mode "{fm.id}" has no occurrence source'
            )

        if detection is None and propagate_detection:
            detection = table.detection.get(fm.element)
            if detection is None:
                raise MissingDetection(
                    fm.id, f'failure mode "{fm.id}" has no detection source'
                )

        value = rpn(severity, occurrence, detection) if detection is not None else severity * occurrence
        rows.append(RpnRow(fm.id, fm.element, domain, severity, occurrence, detection, value, 0))

    rows.sort(key=_priority_key)
    # Positions go in once the order is known, before any caller sees a row.
    set_rank = _RPN_ROW_SLOTS[-1]
    for position, row in enumerate(rows, start=1):
        set_rank(row, position)
    return AnalysisResult(table.severity, table.occurrence, table.detection, tuple(rows))


def _priority_key(row: RpnRow) -> tuple:
    return (-row.rpn, -row.severity, -row.occurrence, -(row.detection or 0), row.element_id, row.fm_id)


def trace(model: DesignModel, fm_id: str, direction: str) -> TraceChain:
    """Walk one mapping hop at a time from a failure mode.

    ``effects`` climbs toward requirements, collecting at each element its
    failure-mode descriptions as candidate downstream effects; ``causes``
    descends toward components symmetrically. Elements at each level are
    visited in id order, and an element with no failure modes still gets a
    bare hop so the structural path stays visible.
    """
    if direction not in ("effects", "causes"):
        raise ValueError(f'direction must be "effects" or "causes", got {direction!r}')
    fm = get_failure_mode(model, fm_id)
    domain = element_domain(model, fm.element)

    if direction == "effects":
        if domain is Domain.COMPONENT:
            level_one = sorted(model.fc_sources.get(fm.element, ()))
            level_two = sorted(
                {rid for fid in level_one for rid in model.rf_sources.get(fid, ())}
            )
        elif domain is Domain.FUNCTION:
            level_one = sorted(model.rf_sources.get(fm.element, ()))
            level_two = []
        else:
            level_one, level_two = [], []
    else:
        if domain is Domain.REQUIREMENT:
            level_one = sorted(model.rf_targets.get(fm.element, ()))
            level_two = sorted(
                {cid for fid in level_one for cid in model.fc_targets.get(fid, ())}
            )
        elif domain is Domain.FUNCTION:
            level_one = sorted(model.fc_targets.get(fm.element, ()))
            level_two = []
        else:
            level_one, level_two = [], []

    hops = [TraceHop(fm.element, fm.id, fm.description)]
    for element_id in level_one + level_two:
        element_fms = sorted(model.failure_modes_of(element_id), key=lambda f: f.id)
        if element_fms:
            hops.extend(
                TraceHop(element_id, candidate.id, candidate.description)
                for candidate in element_fms
            )
        else:
            hops.append(TraceHop(element_id, None, element_text(model, element_id)))
    return TraceChain(direction=direction, hops=tuple(hops))


def oracle_propagate(model: DesignModel) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Recompute the three rank maps by exhaustive path enumeration.

    Every requirement-function-component path is expanded from the raw
    edge lists and leaf ratings are maxed directly, never reusing an
    intermediate element's value. Quadratic and proud of it; meant for
    checking the direct propagation on small models.
    """
    requirement_ids = {r.id for r in model.requirements}
    function_ids = {f.id for f in model.functions}
    component_ids = {c.id for c in model.components}
    fms_of: dict[str, list[FailureMode]] = {}
    for fm in model.failure_modes:
        fms_of.setdefault(fm.element, []).append(fm)

    rf_pairs = [
        (e.source, e.target)
        for e in model.rf
        if e.source in requirement_ids and e.target in function_ids
    ]
    fc_pairs = [
        (e.source, e.target)
        for e in model.fc
        if e.source in function_ids and e.target in component_ids
    ]

    def requirement_severities(rid: str) -> list[int]:
        values = []
        for fm in fms_of.get(rid, ()):
            value = resolve_fm_severity(model, fm)
            if value is None:
                raise MissingSeverity(
                    fm.id,
                    f'requirement failure mode "{fm.id}" has no effect'
                    " with a severity rank or class",
                )
            values.append(value)
        return values

    def rated_severities(eid: str) -> list[int]:
        return [
            value
            for fm in fms_of.get(eid, ())
            if (value := resolve_fm_severity(model, fm)) is not None
        ]

    smap: dict[str, int] = {}
    for requirement in model.requirements:
        values = requirement_severities(requirement.id)
        if values:
            smap[requirement.id] = max(values)
    for function in model.functions:
        values = rated_severities(function.id)
        for source, target in rf_pairs:
            if target == function.id:
                values += requirement_severities(source)
        if values:
            smap[function.id] = max(values)
    for component in model.components:
        values = rated_severities(component.id)
        for f_source, c_target in fc_pairs:
            if c_target != component.id:
                continue
            values += rated_severities(f_source)
            for r_source, f_target in rf_pairs:
                if f_target == f_source:
                    values += requirement_severities(r_source)
        if values:
            smap[component.id] = max(values)

    def component_leaf(cid: str, kind: str) -> list[int]:
        values = []
        for fm in fms_of.get(cid, ()):
            value = (
                resolve_fm_occurrence(fm) if kind == "occurrence" else resolve_fm_detection(fm)
            )
            if value is None:
                error = MissingOccurrence if kind == "occurrence" else MissingDetection
                raise error(
                    fm.id, f'component failure mode "{fm.id}" has no {kind} rating'
                )
            values.append(value)
        return values

    def backward(kind: str) -> dict[str, int]:
        emap: dict[str, int] = {}
        for component in model.components:
            values = component_leaf(component.id, kind)
            if values:
                emap[component.id] = max(values)
        for function in model.functions:
            values = []
            for f_source, c_target in fc_pairs:
                if f_source == function.id:
                    values += component_leaf(c_target, kind)
            if values:
                emap[function.id] = max(values)
        for requirement in model.requirements:
            values = []
            for r_source, f_target in rf_pairs:
                if r_source != requirement.id:
                    continue
                for f_source, c_target in fc_pairs:
                    if f_source == f_target:
                        values += component_leaf(c_target, kind)
            if values:
                emap[requirement.id] = max(values)
        return emap

    return smap, backward("occurrence"), backward("detection")
