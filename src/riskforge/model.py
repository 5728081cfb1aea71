"""Domain types for a requirements/functions/components design model.

A design is described by three element classes (requirements, functions,
components), two binary mappings between adjacent classes (rf: requirement
to function, fc: function to component), and a set of failure modes, each
owned by exactly one element. All types are immutable values; nothing here
mutates a model after construction.

Each constructor holds the only copy of its fields' value rules (id
charset, non-blank prose, closed vocabularies, positive frequencies) and
reports every bad field at once; the parser builds records through them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property


class Domain(str, Enum):
    """The three classes of design element."""

    REQUIREMENT = "requirement"
    FUNCTION = "function"
    COMPONENT = "component"


# Ids are analyst-chosen tokens, not positional indices, so that references
# stay stable when a model is edited: ASCII letters, digits, '_' and '-'.
# \Z, unlike $, does not match before a final newline.
ELEMENT_ID_RE = re.compile(r"[A-Za-z0-9_-]+\Z")

FLOW_KINDS = ("material", "energy", "information")

REQUIREMENT_CATEGORIES = (
    "Absence",
    "Incompleteness",
    "Intermittence",
    "Incorrectness",
    "ImproperOccurrence",
)

FUNCTION_CATEGORIES = (
    "Malfunction",
    "Interference",
    "Decayed",
    "Incompleteness",
    "Incorrectness",
)

COMPONENT_CATEGORIES = (
    "Damaged",
    "LossOfEfficiency",
    "EMI",
    "NonCompatible",
)

_CATEGORIES_BY_DOMAIN: dict[Domain, frozenset[str]] = {
    Domain.REQUIREMENT: frozenset(REQUIREMENT_CATEGORIES),
    Domain.FUNCTION: frozenset(FUNCTION_CATEGORIES),
    Domain.COMPONENT: frozenset(COMPONENT_CATEGORIES),
}

ALL_CATEGORY_NAMES = frozenset().union(*_CATEGORIES_BY_DOMAIN.values())

# Ordered worst-detectability-first; the rating module maps each class to
# its rank band by this position.
CONTROL_METHOD_CLASSES = (
    "NoApparentMethod",
    "DesignAnalysis",
    "StandardDesignDocuments",
    "PassFailOrReliabilityTest",
    "RealLifeProductTest",
)

RANK_MIN = 1
RANK_MAX = 10


class ModelError(Exception):
    """Base class for model lookup failures."""


class UnknownElement(ModelError):
    """Raised when an id does not name any requirement, function, or component."""


class UnknownFailureMode(ModelError):
    """Raised when an id does not name any failure mode in the model."""


def allowed_categories(domain: Domain) -> frozenset[str]:
    """Return the fixed failure-mode category names for one element domain."""
    return _CATEGORIES_BY_DOMAIN[Domain(domain)]


def is_valid_rank(value: object) -> bool:
    """True for an integer in the 1..10 ranking scale (bools excluded)."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and RANK_MIN <= value <= RANK_MAX
    )


class _FieldError(ValueError):
    """Every bad field of one value, as ``(field, code, detail)`` triples.

    ``field`` is the field's key in the model file (``0`` or ``1`` for a
    half of an edge or a frequency), or None for the whole value. The
    parser files each triple under the value's path as a parse error with
    that code and detail.
    """

    def __init__(self, owner: str, problems: list[tuple[str | int | None, str, str]]) -> None:
        self.problems = problems
        where = ((owner if field is None else f"{owner}[{field!r}]", detail) for field, _, detail in problems)
        super().__init__("; ".join(f"{at}: {detail}" for at, detail in where))


def _check(value: object, *problems: tuple | None) -> None:
    """Raise one _FieldError for ``value`` naming each problem that is not None."""
    if any(problems):
        raise _FieldError(type(value).__name__, [problem for problem in problems if problem])


def _string(field: str, value: object) -> tuple | None:
    return None if isinstance(value, str) else (field, "Type", "expected a string")


def _id(field: str | int, value: object) -> tuple | None:
    if isinstance(value, str) and ELEMENT_ID_RE.match(value):
        return None
    return _string(field, value) or (field, "InvalidId", f"ids use letters, digits, '_' and '-' only, got {value!r}")


def _text(field: str, value: object) -> tuple | None:
    """Prose: a string with at least one non-blank character."""
    if isinstance(value, str) and value.strip():
        return None
    return _string(field, value) or (field, "EmptyText", "must not be empty")


def _choice(field: str, value: object, allowed: tuple[str, ...], what: str) -> tuple | None:
    if isinstance(value, str) and value in allowed:
        return None
    return _string(field, value) or (field, "InvalidValue", f"{what} must be one of {', '.join(allowed)}")


def _integer(field: int, value: object) -> tuple | None:
    if isinstance(value, bool) or not isinstance(value, int):
        return field, "Type", "expected an integer"
    return None


@dataclass(frozen=True, slots=True)
class Meta:
    """Product name and model version carried alongside the design."""

    product: str
    version: str

    def __post_init__(self) -> None:
        _check(self, _string("product", self.product), _string("version", self.version))


@dataclass(frozen=True, slots=True)
class Requirement:
    """A customer-facing need the product is inspected against."""

    id: str
    text: str

    def __post_init__(self) -> None:
        _check(self, _id("id", self.id), _text("text", self.text))


@dataclass(frozen=True, slots=True)
class Flow:
    """A material, energy, or information stream into or out of a function."""

    description: str
    kind: str

    def __post_init__(self) -> None:
        _check(self, _string("description", self.description), _choice("kind", self.kind, FLOW_KINDS, "flow kind"))


@dataclass(frozen=True, slots=True)
class Function:
    """A design intent phrased as verb plus noun, with optional flows."""

    id: str
    verb: str
    noun: str
    inputs: tuple[Flow, ...] = ()
    outputs: tuple[Flow, ...] = ()

    def __post_init__(self) -> None:
        _check(self, _id("id", self.id), _text("verb", self.verb), _text("noun", self.noun))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    @property
    def text(self) -> str:
        return f"{self.verb} {self.noun}"


@dataclass(frozen=True, slots=True)
class Component:
    """A concrete solution concept chosen to achieve one or more functions."""

    id: str
    name: str
    concept: str | None = None

    def __post_init__(self) -> None:
        _check(self, _id("id", self.id), _text("name", self.name))


@dataclass(frozen=True, slots=True)
class MappingEdge:
    """One binary mapping entry; an edge present means the matrix cell is 1."""

    source: str
    target: str

    def __post_init__(self) -> None:
        _check(self, _id(0, self.source), _id(1, self.target))


@dataclass(frozen=True, slots=True)
class Frequency:
    """An exact failures-per-opportunities rate.

    Kept as an integer pair and compared as an exact rational; several band
    boundaries (1 in 1250, for example) are not representable in binary
    floating point.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        _check(self, _integer(0, self.numerator), _integer(1, self.denominator))
        if self.numerator < 1 or self.denominator < 1:
            _check(self, (None, "InvalidValue", "frequency integers must be positive"))

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True, slots=True)
class Cause:
    """A reason that can produce a failure mode, optionally rated for occurrence."""

    text: str
    occurrence_rank: int | None = None
    frequency: Frequency | None = None

    def __post_init__(self) -> None:
        _check(self, _text("text", self.text))


@dataclass(frozen=True, slots=True)
class Effect:
    """A negative impact of a failure mode, optionally rated for severity."""

    text: str
    severity_class: str | None = None
    severity_rank: int | None = None

    def __post_init__(self) -> None:
        _check(self, _text("text", self.text))


@dataclass(frozen=True, slots=True)
class ControlPlan:
    """How a failure cause is currently detected, optionally rated."""

    method_class: str
    method_text: str | None = None
    detection_rank: int | None = None

    def __post_init__(self) -> None:
        _check(self, _choice("method_class", self.method_class, CONTROL_METHOD_CLASSES, "control method class"))


@dataclass(frozen=True, slots=True)
class FailureMode:
    """One way an element fails, with its causes, effects, and control plan."""

    id: str
    element: str
    category: str
    description: str
    causes: tuple[Cause, ...] = ()
    effects: tuple[Effect, ...] = ()
    control: ControlPlan | None = None

    def __post_init__(self) -> None:
        ids = _id("id", self.id), _id("element", self.element)
        _check(self, *ids, _text("category", self.category), _text("description", self.description))
        object.__setattr__(self, "causes", tuple(self.causes))
        object.__setattr__(self, "effects", tuple(self.effects))


@dataclass(frozen=True, eq=True)
class DesignModel:
    """A complete design: elements, the two mappings, and all failure modes.

    Construction only normalizes list fields to tuples; cross-reference
    soundness (dangling ids, duplicate ids, edge direction, category fit)
    is the validation module's job so that problems surface as findings
    rather than exceptions.
    """

    meta: Meta
    requirements: tuple[Requirement, ...] = ()
    functions: tuple[Function, ...] = ()
    components: tuple[Component, ...] = ()
    rf: tuple[MappingEdge, ...] = ()
    fc: tuple[MappingEdge, ...] = ()
    failure_modes: tuple[FailureMode, ...] = ()

    def __post_init__(self) -> None:
        for name in ("requirements", "functions", "components", "rf", "fc", "failure_modes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # Lookup caches assume unique ids; on models with duplicates they keep
    # the first occurrence, which is what the validator reports against.

    @cached_property
    def elements_by_id(self) -> dict[str, tuple[Domain, Requirement | Function | Component]]:
        index: dict[str, tuple[Domain, Requirement | Function | Component]] = {}
        for domain, elements in (
            (Domain.REQUIREMENT, self.requirements),
            (Domain.FUNCTION, self.functions),
            (Domain.COMPONENT, self.components),
        ):
            for element in elements:
                index.setdefault(element.id, (domain, element))
        return index

    @cached_property
    def failure_modes_by_id(self) -> dict[str, FailureMode]:
        index: dict[str, FailureMode] = {}
        for fm in self.failure_modes:
            index.setdefault(fm.id, fm)
        return index

    @cached_property
    def failure_modes_by_element(self) -> dict[str, tuple[FailureMode, ...]]:
        grouped: dict[str, list[FailureMode]] = {}
        for fm in self.failure_modes:
            grouped.setdefault(fm.element, []).append(fm)
        return {element: tuple(fms) for element, fms in grouped.items()}

    @cached_property
    def rf_sources(self) -> dict[str, tuple[str, ...]]:
        """Requirement ids mapped onto each function, keyed by function id."""
        return _group_edges(self.rf, by_target=True)

    @cached_property
    def rf_targets(self) -> dict[str, tuple[str, ...]]:
        """Function ids each requirement maps onto, keyed by requirement id."""
        return _group_edges(self.rf, by_target=False)

    @cached_property
    def fc_sources(self) -> dict[str, tuple[str, ...]]:
        """Function ids mapped onto each component, keyed by component id."""
        return _group_edges(self.fc, by_target=True)

    @cached_property
    def fc_targets(self) -> dict[str, tuple[str, ...]]:
        """Component ids each function maps onto, keyed by function id."""
        return _group_edges(self.fc, by_target=False)

    def failure_modes_of(self, element_id: str) -> tuple[FailureMode, ...]:
        return self.failure_modes_by_element.get(element_id, ())


def _group_edges(edges: tuple[MappingEdge, ...], by_target: bool) -> dict[str, tuple[str, ...]]:
    grouped: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    for edge in edges:
        key, value = (edge.target, edge.source) if by_target else (edge.source, edge.target)
        if (key, value) not in seen:
            seen.add((key, value))
            grouped.setdefault(key, []).append(value)
    return {key: tuple(values) for key, values in grouped.items()}


def element_domain(model: DesignModel, element_id: str) -> Domain:
    """Return which element class an id belongs to.

    Raises UnknownElement if the id names no requirement, function, or
    component. Ambiguity cannot arise in a model that passes structural
    validation, which forbids duplicate ids across classes.
    """
    entry = model.elements_by_id.get(element_id)
    if entry is None:
        raise UnknownElement(f"no design element with id {element_id!r}")
    return entry[0]


def element_text(model: DesignModel, element_id: str) -> str:
    """Human-readable text of an element: prose, verb+noun phrase, or name."""
    entry = model.elements_by_id.get(element_id)
    if entry is None:
        raise UnknownElement(f"no design element with id {element_id!r}")
    domain, element = entry
    if domain is Domain.COMPONENT:
        return element.name
    return element.text


def get_failure_mode(model: DesignModel, fm_id: str) -> FailureMode:
    fm = model.failure_modes_by_id.get(fm_id)
    if fm is None:
        raise UnknownFailureMode(f"no failure mode with id {fm_id!r}")
    return fm
