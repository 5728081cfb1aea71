"""Rank bands, the rules that rate one failure mode, and the RPN formula.

Three 1..10 ranking scales share the same five bands (9-10, 7-8, 5-6, 2-4,
1). Occurrence bands are keyed by exact failure frequency, severity bands
by a per-domain consequence class, and detection bands by the class of
control method. Analysts may pick any rank inside a band; when only the
band is known, the band maximum is the conservative representative.

``own_ratings`` holds the only copy of the rules that turn a failure mode's
effects, causes and control plan into its own severity, occurrence and
detection, and of the findings those rules raise. Structural validation
files the findings; the rating table keeps the ratings.
"""

from __future__ import annotations

from .model import (
    CONTROL_METHOD_CLASSES,
    Domain,
    RANK_MAX,
    RANK_MIN,
    FailureMode,
    Frequency,
    _by_domain,
    _Record,
    _slot_setters,
    is_valid_rank,
)


class RankBand(_Record):
    """An inclusive range of ranks on the 1..10 scale."""

    __slots__ = ("lo", "hi")
    lo: int
    hi: int

    def __init__(self, lo: int, hi: int) -> None:
        if not (is_valid_rank(lo) and is_valid_rank(hi) and lo <= hi):
            raise ValueError(f"invalid rank band {lo}..{hi}")
        set_lo, set_hi = _RANK_BAND_SLOTS
        set_lo(self, lo)
        set_hi(self, hi)

    def __contains__(self, rank: object) -> bool:
        return is_valid_rank(rank) and self.lo <= rank <= self.hi

    def __str__(self) -> str:
        return str(self.lo) if self.lo == self.hi else f"{self.lo}-{self.hi}"


_RANK_BAND_SLOTS = _slot_setters(RankBand)

BAND_9_10 = RankBand(9, 10)
BAND_7_8 = RankBand(7, 8)
BAND_5_6 = RankBand(5, 6)
BAND_2_4 = RankBand(2, 4)
BAND_1 = RankBand(1, 1)

#: The five bands, worst row first, shared by all three scales.
BANDS = (BAND_9_10, BAND_7_8, BAND_5_6, BAND_2_4, BAND_1)

#: Severity class tokens per domain, in band order (worst first). The
#: condensed tokens stand for: a safety hazard; the strongest non-safety
#: consequence of that domain (buyers defect / the function is hard to
#: operate / the primary function is hit); a substantial but secondary
#: consequence (return to repair / below-standard performance / secondary
#: function hit); a tolerable or isolated defect (and for components a
#: non-functional one); and a consequence invisible to users.
SEVERITY_CLASSES: dict[Domain, tuple[str, ...]] = {
    Domain.REQUIREMENT: (
        "SafetyIssue",
        "ChooseCompetitor",
        "ReturnToFix",
        "Tolerate",
        "Invisible",
    ),
    Domain.FUNCTION: (
        "SafetyIssue",
        "DifficultToOperate",
        "UnderStandardPerformance",
        "IsolatedDefect",
        "Invisible",
    ),
    Domain.COMPONENT: (
        "SafetyIssue",
        "PrimaryFunctionEffect",
        "SecondaryFunctionEffect",
        "NonFunctionalEffect",
        "Invisible",
    ),
}

ALL_SEVERITY_CLASS_NAMES = frozenset(
    name for names in SEVERITY_CLASSES.values() for name in names
)

# Occurrence boundaries, each as one failure in so many opportunities. The
# scale's rows as usually written leave two gaps, (1/10000, 1/1250) and
# (1/1000000, 1/100000); a frequency in a gap maps to the higher adjacent
# band, because under-ranking occurrence is the costlier mistake. That
# widens the effective 5-6 band down to just above 1/10000 and the 2-4 band
# down to just above 1/1000000.
_PER_9_10 = 20
_PER_7_8 = 125
_PER_5_6_EXCLUSIVE = 10000
_PER_2_4_EXCLUSIVE = 1000000


def occurrence_band(frequency: Frequency | Fraction) -> RankBand:
    """Map a positive failure frequency to its occurrence band, exactly.

    Comparisons are exact rational comparisons; the function is total over
    positive rationals and monotone (a higher frequency never lands in a
    lower band).
    """
    if isinstance(frequency, Frequency):
        # Its constructor holds both integers positive.
        failures, opportunities = frequency.numerator, frequency.denominator
    else:
        from fractions import Fraction  # only this branch builds one

        value = Fraction(frequency)
        if value <= 0:
            raise ValueError(f"frequency must be positive, got {value}")
        failures, opportunities = value.numerator, value.denominator
    # failures/opportunities against 1/per is per * failures against
    # opportunities: exact in integers, with no Fraction built.
    if _PER_9_10 * failures >= opportunities:
        return BAND_9_10
    if _PER_7_8 * failures >= opportunities:
        return BAND_7_8
    if _PER_5_6_EXCLUSIVE * failures > opportunities:
        return BAND_5_6
    if _PER_2_4_EXCLUSIVE * failures > opportunities:
        return BAND_2_4
    return BAND_1


#: Severity class -> band, per domain.
_SEVERITY_BANDS = _by_domain({domain: dict(zip(names, BANDS)) for domain, names in SEVERITY_CLASSES.items()})
#: Control method class -> band.
_DETECTION_BANDS = dict(zip(CONTROL_METHOD_CLASSES, BANDS))


def severity_band(domain: Domain, class_name: str) -> RankBand:
    """Map a (domain, severity class) pair to its band."""
    try:
        bands = _SEVERITY_BANDS[domain]
    except (KeyError, TypeError):
        bands = _SEVERITY_BANDS[Domain(domain)]
    try:
        return bands[class_name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown severity class {class_name!r} for {Domain(domain).value}"
            f" elements; expected one of {SEVERITY_CLASSES[Domain(domain)]}"
        ) from None


def detection_band(method_class: str) -> RankBand:
    """Map a control method class to its detection band."""
    try:
        return _DETECTION_BANDS[method_class]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown control method class {method_class!r};"
            f" expected one of {CONTROL_METHOD_CLASSES}"
        ) from None


#: A finding on one failure mode: its path below the failure mode, its code and its message.
Problem = tuple[tuple[str | int, ...], str, str]


def own_ratings(
    domain: Domain | None, fm: FailureMode, problems: list[Problem]
) -> tuple[int | None, int | None, int | None]:
    """A failure mode's own (severity, occurrence, detection), read from its
    effects, causes and control plan; None where nothing is rated.

    Each is the maximum over the items rated on its scale. An item's valid
    rank wins; otherwise the band maximum of its severity class (in
    ``domain``, the owning element's, None when unknown), frequency or
    control method class stands in. A given rank outside 1..10 and an
    in-range rank outside its band are appended to ``problems``, as are a
    severity class that is no class at all or none of ``domain``'s. A
    problem's path is built only when the problem is appended, so an item
    without problems builds none. Occurrence is read from every failure mode's causes; only the caller
    knows whether it counts.
    """
    occurrence = None
    for j, cause in enumerate(fm.causes):
        # Its constructor holds the frequency a Frequency, so it always has a band.
        band = None if cause.frequency is None else occurrence_band(cause.frequency)
        rank = cause.occurrence_rank
        if rank is not None:
            mismatch = "occurrence rank {rank} is outside band {band} for frequency {item.frequency}"
            rank = _given_rank(problems, rank, band, mismatch, cause, "causes", j, "occurrence_rank")
        if rank is None and band is not None:
            rank = band.hi
        if rank is not None and (occurrence is None or rank > occurrence):
            occurrence = rank

    severity = None
    for j, effect in enumerate(fm.effects):
        band = None
        name = effect.severity_class
        if name is not None:
            if not isinstance(name, str) or name not in ALL_SEVERITY_CLASS_NAMES:
                message = f'"{name}" is not a severity class'
                problems.append((("effects", j, "severity_class"), "UnknownSeverityClass", message))
            elif domain is not None:
                band = _SEVERITY_BANDS[domain].get(name)
                if band is None:
                    message = f'severity class "{name}" is not valid for {domain.value} elements'
                    problems.append((("effects", j, "severity_class"), "SeverityClassDomainMismatch", message))
        rank = effect.severity_rank
        if rank is not None:
            mismatch = 'severity rank {rank} is outside band {band} for class "{item.severity_class}"'
            rank = _given_rank(problems, rank, band, mismatch, effect, "effects", j, "severity_rank")
        if rank is None and band is not None:
            rank = band.hi
        if rank is not None and (severity is None or rank > severity):
            severity = rank

    control = fm.control
    if control is None:
        return severity, occurrence, None
    band = _DETECTION_BANDS[control.method_class]
    detection = control.detection_rank
    if detection is not None:
        mismatch = 'detection rank {rank} is outside band {band} for control class "{item.method_class}"'
        detection = _given_rank(problems, detection, band, mismatch, control, "control", None, "detection_rank")
    return severity, occurrence, band.hi if detection is None else detection


def _given_rank(
    problems: list[Problem],
    rank: object,
    band: RankBand | None,
    mismatch: str,
    item,
    key: str,
    index: int | None,
    field: str,
) -> int | None:
    """``rank`` if it is valid, else None; a problem for a rank out of range or outside its band
    (``mismatch`` formatted with the rank, the band and the rated item), at the path
    ``(key, index, field)``, or ``(key, field)`` when ``index`` is None."""
    # A plain int in range is the common case, and needs no call.
    if not (type(rank) is int and RANK_MIN <= rank <= RANK_MAX) and not is_valid_rank(rank):
        message = f"rank must be an integer in 1..10, got {rank!r}"
        problems.append((_item_path(key, index, field), "RankOutOfRange", message))
        return None
    if band is not None and not band.lo <= rank <= band.hi:
        message = mismatch.format(rank=rank, band=band, item=item)
        problems.append((_item_path(key, index, field), "RankBandMismatch", message))
    return rank


def _item_path(key: str, index: int | None, field: str) -> tuple[str | int, ...]:
    return (key, field) if index is None else (key, index, field)


def rpn(severity: int, occurrence: int, detection: int) -> int:
    """Risk priority number: the product of the three ranks, in 1..1000."""
    if not (is_valid_rank(severity) and is_valid_rank(occurrence) and is_valid_rank(detection)):
        for name, value in (("severity", severity), ("occurrence", occurrence), ("detection", detection)):
            if not is_valid_rank(value):
                raise ValueError(f"{name} rank must be an integer in 1..10, got {value!r}")
    return severity * occurrence * detection
