"""Domain types for a requirements/functions/components design model.

A design is described by three element classes (requirements, functions,
components), two binary mappings between adjacent classes (rf: requirement
to function, fc: function to component), and a set of failure modes, each
owned by exactly one element. All types are immutable values; nothing here
mutates a model after construction.
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
# stay stable when a model is edited.
ELEMENT_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")

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


def _require_id(value: object, what: str) -> str:
    if not isinstance(value, str) or not ELEMENT_ID_RE.match(value):
        raise ValueError(
            f"{what} must be a non-empty token of letters, digits, '_' or '-',"
            f" got {value!r}"
        )
    return value


def _require_text(value: object, what: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"{what} must be non-empty prose, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Meta:
    """Product name and model version carried alongside the design."""

    product: str
    version: str

    def __post_init__(self) -> None:
        if not isinstance(self.product, str) or not isinstance(self.version, str):
            raise ValueError("meta product and version must be strings")


@dataclass(frozen=True, slots=True)
class Requirement:
    """A customer-facing need the product is inspected against."""

    id: str
    text: str

    def __post_init__(self) -> None:
        _require_id(self.id, "requirement id")
        _require_text(self.text, "requirement text")


@dataclass(frozen=True, slots=True)
class Flow:
    """A material, energy, or information stream into or out of a function."""

    description: str
    kind: str

    def __post_init__(self) -> None:
        if not isinstance(self.description, str):
            raise ValueError("flow description must be a string")
        if self.kind not in FLOW_KINDS:
            raise ValueError(
                f"flow kind must be one of {FLOW_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True, slots=True)
class Function:
    """A design intent phrased as verb plus noun, with optional flows."""

    id: str
    verb: str
    noun: str
    inputs: tuple[Flow, ...] = ()
    outputs: tuple[Flow, ...] = ()

    def __post_init__(self) -> None:
        _require_id(self.id, "function id")
        _require_text(self.verb, "function verb")
        _require_text(self.noun, "function noun")
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
        _require_id(self.id, "component id")
        _require_text(self.name, "component name")


@dataclass(frozen=True, slots=True)
class MappingEdge:
    """One binary mapping entry; an edge present means the matrix cell is 1."""

    source: str
    target: str

    def __post_init__(self) -> None:
        _require_id(self.source, "edge source")
        _require_id(self.target, "edge target")


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
        for name in ("numerator", "denominator"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"frequency {name} must be a positive integer")

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
        _require_text(self.text, "cause text")


@dataclass(frozen=True, slots=True)
class Effect:
    """A negative impact of a failure mode, optionally rated for severity."""

    text: str
    severity_class: str | None = None
    severity_rank: int | None = None

    def __post_init__(self) -> None:
        _require_text(self.text, "effect text")


@dataclass(frozen=True, slots=True)
class ControlPlan:
    """How a failure cause is currently detected, optionally rated."""

    method_class: str
    method_text: str | None = None
    detection_rank: int | None = None

    def __post_init__(self) -> None:
        if self.method_class not in CONTROL_METHOD_CLASSES:
            raise ValueError(
                f"control method class must be one of {CONTROL_METHOD_CLASSES},"
                f" got {self.method_class!r}"
            )


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
        _require_id(self.id, "failure mode id")
        _require_id(self.element, "failure mode element reference")
        if not isinstance(self.category, str) or not self.category:
            raise ValueError("failure mode category must be a non-empty token")
        _require_text(self.description, "failure mode description")
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
    if domain is Domain.FUNCTION:
        return element.text
    if domain is Domain.REQUIREMENT:
        return element.text
    return element.name


def get_failure_mode(model: DesignModel, fm_id: str) -> FailureMode:
    fm = model.failure_modes_by_id.get(fm_id)
    if fm is None:
        raise UnknownFailureMode(f"no failure mode with id {fm_id!r}")
    return fm
