"""Domain types for a requirements/functions/components design model.

A design is described by three element classes (requirements, functions,
components), two binary mappings between adjacent classes (rf: requirement
to function, fc: function to component), and a set of failure modes, each
owned by exactly one element. All types are immutable values; nothing here
mutates a model after construction.

Each constructor holds the only copy of its fields' value rules (id
charset, non-blank prose, closed vocabularies, positive frequencies, the
record class of each record it holds, integers Python can write) and
reports every bad field at once; the parser builds records through them.
A constructor first runs one accept test, a chain of C-level tests that
together imply every rule; it rejects nothing. Only arguments that fail it
run the per-field helpers, which are the only code that rejects a value
and words the problem.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from reprlib import recursive_repr


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


def _by_domain(table: dict[Domain, object]) -> dict[Domain | str, object]:
    """``table`` keyed by each domain and by its string value too: callers pass either, and an
    Enum member need not hash as its value does."""
    return {**table, **{domain.value: entry for domain, entry in table.items()}}


_CATEGORIES_BY_KEY = _by_domain(_CATEGORIES_BY_DOMAIN)

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
    try:
        return _CATEGORIES_BY_KEY[domain]
    except (KeyError, TypeError):
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


_SURROGATE = "unpaired surrogate character"


def _surrogate(field: str, value: object) -> tuple | None:
    """A str holding a lone surrogate, which has no UTF-8 form, so no model file or
    artifact could hold it; worded as the parser's reader words it. Anything else passes."""
    if not isinstance(value, str) or value.isascii():
        return None
    try:
        value.encode()
    except UnicodeEncodeError as exc:
        return field, "InvalidValue", f"{_SURROGATE} '\\u{ord(value[exc.start]):04x}'"
    return None


def _string(field: str, value: object) -> tuple | None:
    return None if isinstance(value, str) else (field, "Type", "expected a string")


def _utf8(field: str, value: object) -> tuple | None:
    """Any string that has a UTF-8 form."""
    return _string(field, value) or _surrogate(field, value)


def _id(field: str | int, value: object) -> tuple | None:
    if isinstance(value, str) and ELEMENT_ID_RE.match(value):
        return None
    return _string(field, value) or (field, "InvalidId", f"ids use letters, digits, '_' and '-' only, got {value!r}")


def _text(field: str, value: object) -> tuple | None:
    """Prose: a string with at least one non-blank character."""
    if isinstance(value, str) and value.strip():
        return None if value.isascii() else _surrogate(field, value)
    return _string(field, value) or (field, "EmptyText", "must not be empty")


def _choice(field: str, value: object, allowed: tuple[str, ...], what: str) -> tuple | None:
    if isinstance(value, str) and value in allowed:
        return None
    return _string(field, value) or (field, "InvalidValue", f"{what} must be one of {', '.join(allowed)}")


def _optional_utf8(field: str, value: object) -> tuple | None:
    """A string that has a UTF-8 form, or None for an absent one."""
    if value is None or type(value) is str and value.isascii():
        return None
    return _utf8(field, value)


#: An integer of fewer bits has fewer than 640 digits, the lowest limit
#: ``sys.set_int_max_str_digits`` takes, so Python always writes it.
_WRITABLE_BITS = 2000


def _integer(field: int, value: object) -> tuple | None:
    """An integer, bools excluded, that Python writes (see ``_writable``)."""
    if isinstance(value, bool) or not isinstance(value, int):
        return field, "Type", "expected an integer"
    return None if value.bit_length() < _WRITABLE_BITS else _writable(field, value)


def _writable(field: str | int, value: object) -> tuple | None:
    """A str with a lone surrogate, or an integer with more digits than Python writes
    (``sys.get_int_max_str_digits``) or a value holding one: no model file, artifact or
    finding could hold it. Worded as the parser's reader words it; anything else passes."""
    kind = type(value)
    if value is None or kind is str and value.isascii() or kind is int and value.bit_length() < _WRITABLE_BITS:
        return None
    if isinstance(value, str):
        return _surrogate(field, value)
    try:
        repr(value)
    except ValueError:
        return field, "InvalidValue", "integer has too many digits"
    return None


def _held(field: str, values: object, cls: type) -> tuple[object, tuple | None]:
    """``values`` as a tuple (as given if it is not iterable), and a problem unless it holds
    ``cls`` records only."""
    try:
        values = tuple(values)
    except TypeError:
        pass
    else:
        for value in values:
            if not isinstance(value, cls):
                break
        else:
            return values, None
    return values, (field, "Type", f"expected {cls.__name__} records")


def _record(field: str, value: object, cls: type) -> tuple | None:
    """A problem unless ``value`` is a ``cls`` record."""
    return None if isinstance(value, cls) else (field, "Type", f"expected a {cls.__name__}")


# Each constructor first runs one accept test: a chain of tests, each made in
# C, that together imply every rule of its fields. Only arguments that fail it
# reach the helpers above, which alone reject a value and word the problem, so
# a sound record costs no Python call. The chain never rejects: a sound value
# it does not take (a str or int subclass, a bool rank, an integer of
# ``_WRITABLE_BITS`` bits or more, a list where a tuple goes, a subclass record
# first in a tuple, text that is neither ASCII nor printable) is accepted by
# the helpers. An ASCII identifier is an id without a regex match; any other
# str is matched against ``ELEMENT_ID_RE``. A str that is ASCII or printable
# holds no surrogate, so it has a UTF-8 form. A held tuple tests its first
# record's exact class and maps ``isinstance`` over a longer one only: for one
# record, the map costs more than the helper.

#: An int ``v`` with ``-_WRITABLE < v < _WRITABLE`` has fewer than ``_WRITABLE_BITS`` bits.
_WRITABLE = 1 << (_WRITABLE_BITS - 1)
_is_id = ELEMENT_ID_RE.match
_FLOW_KINDS = frozenset(FLOW_KINDS)
_CONTROL_METHOD_CLASSES = frozenset(CONTROL_METHOD_CLASSES)


class _DataclassView:
    """A record class's ``__dataclass_fields__`` or ``__dataclass_params__``.

    On first read, ``dataclasses`` decorates a stand-in class with the
    record's annotations, defaults and options, and both of the stand-in's
    attributes are kept on the record class, where later reads find them.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: object, owner: type) -> object:
        record = next((cls for cls in owner.__mro__ if "_values" in cls.__dict__), None)
        if record is None:
            raise AttributeError(self.name)
        import dataclasses

        init = record.__init__
        names = init.__code__.co_varnames[1 : init.__code__.co_argcount]
        defaults = dict(zip(reversed(names), reversed(init.__defaults__ or ())))
        namespace = {**defaults, "__annotations__": record.__annotations__, "__module__": record.__module__}
        slots = "__slots__" in record.__dict__
        stand_in = dataclasses.dataclass(frozen=True, init=False, slots=slots)(type(record.__name__, (), namespace))
        record.__dataclass_fields__ = stand_in.__dataclass_fields__
        record.__dataclass_params__ = stand_in.__dataclass_params__
        return getattr(record, self.name)


class _Record:
    """Base of every record: a frozen value compared, hashed and shown by its fields.

    A record lists its fields as annotations in its own body, in order, and
    a slotted record declares the same names as ``__slots__``; its own
    ``__init__`` fills them. The methods below behave as those that
    ``@dataclass(frozen=True)`` generates, written once instead of per
    class, so no record needs the ``dataclasses`` module at import. The
    dataclass protocol still holds: ``dataclasses.fields``, ``replace``,
    ``astuple`` and ``is_dataclass`` read ``__dataclass_fields__``, which
    ``dataclasses`` builds on its first read.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        if not names:
            return  # a subclass that adds no fields keeps its parent's
        if len(names) < 2 or cls.__dict__.get("__slots__", names) != names:
            raise TypeError(f"{cls.__name__} needs two or more fields, and __slots__ naming them in order")
        cls.__match_args__ = names
        # The field values as one tuple, as the generated methods build it; attrgetter gives a
        # tuple only for two or more names. It reads each field by name, so a comparison costs
        # more than generated code does (no run of the pipeline compares records).
        cls._values = attrgetter(*names)
        if "__slots__" in cls.__dict__:
            # What a frozen slotted dataclass adds so that pickle and copy can restore it.
            cls.__getstate__ = _getstate
            cls.__setstate__ = _setstate

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    @recursive_repr()  # "..." inside itself, as the generated repr shows it
    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _getstate(self: _Record) -> list:
    return list(self._values(self))


def _setstate(self: _Record, state: list) -> None:
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field slot of a slotted record, in field order.

    A record's own ``__init__`` checks its arguments, then fills each slot
    once through these: they write past the frozen ``__setattr__`` with no
    lookup by name, and no constructor is generated at import.
    """
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Meta(_Record):
    """Product name and model version carried alongside the design."""

    __slots__ = ("product", "version")
    product: str
    version: str

    def __init__(self, product: str, version: str) -> None:
        if not (
            type(product) is str
            and (product.isascii() or product.isprintable())
            and type(version) is str
            and (version.isascii() or version.isprintable())
        ):
            _check(self, _utf8("product", product), _utf8("version", version))
        set_product, set_version = _META_SLOTS
        set_product(self, product)
        set_version(self, version)


_META_SLOTS = _slot_setters(Meta)


class Requirement(_Record):
    """A customer-facing need the product is inspected against."""

    __slots__ = ("id", "text")
    id: str
    text: str

    def __init__(self, id: str, text: str) -> None:
        if not (
            type(id) is str
            and (id.isascii() and id.isidentifier() or _is_id(id))
            and type(text) is str
            and text.strip()
            and (text.isascii() or text.isprintable())
        ):
            _check(self, _id("id", id), _text("text", text))
        set_id, set_text = _REQUIREMENT_SLOTS
        set_id(self, id)
        set_text(self, text)


_REQUIREMENT_SLOTS = _slot_setters(Requirement)


class Flow(_Record):
    """A material, energy, or information stream into or out of a function."""

    __slots__ = ("description", "kind")
    description: str
    kind: str

    def __init__(self, description: str, kind: str) -> None:
        if not (
            type(description) is str
            and (description.isascii() or description.isprintable())
            and type(kind) is str
            and kind in _FLOW_KINDS
        ):
            _check(self, _utf8("description", description), _choice("kind", kind, FLOW_KINDS, "flow kind"))
        set_description, set_kind = _FLOW_SLOTS
        set_description(self, description)
        set_kind(self, kind)


_FLOW_SLOTS = _slot_setters(Flow)


class Function(_Record):
    """A design intent phrased as verb plus noun, with optional flows."""

    __slots__ = ("id", "verb", "noun", "inputs", "outputs")
    id: str
    verb: str
    noun: str
    inputs: tuple[Flow, ...]
    outputs: tuple[Flow, ...]

    def __init__(
        self, id: str, verb: str, noun: str, inputs: tuple[Flow, ...] = (), outputs: tuple[Flow, ...] = ()
    ) -> None:
        if not (
            type(id) is str
            and (id.isascii() and id.isidentifier() or _is_id(id))
            and type(verb) is str
            and verb.strip()
            and (verb.isascii() or verb.isprintable())
            and type(noun) is str
            and noun.strip()
            and (noun.isascii() or noun.isprintable())
            and type(inputs) is tuple
            and (
                not inputs
                or type(inputs[0]) is Flow
                and (len(inputs) == 1 or all(map(isinstance, inputs, repeat(Flow))))
            )
            and type(outputs) is tuple
            and (
                not outputs
                or type(outputs[0]) is Flow
                and (len(outputs) == 1 or all(map(isinstance, outputs, repeat(Flow))))
            )
        ):
            inputs, bad_inputs = _held("inputs", inputs, Flow)
            outputs, bad_outputs = _held("outputs", outputs, Flow)
            _check(self, _id("id", id), _text("verb", verb), _text("noun", noun), bad_inputs, bad_outputs)
        set_id, set_verb, set_noun, set_inputs, set_outputs = _FUNCTION_SLOTS
        set_id(self, id)
        set_verb(self, verb)
        set_noun(self, noun)
        set_inputs(self, inputs)
        set_outputs(self, outputs)

    @property
    def text(self) -> str:
        return f"{self.verb} {self.noun}"


_FUNCTION_SLOTS = _slot_setters(Function)


class Component(_Record):
    """A concrete solution concept chosen to achieve one or more functions."""

    __slots__ = ("id", "name", "concept")
    id: str
    name: str
    concept: str | None

    def __init__(self, id: str, name: str, concept: str | None = None) -> None:
        if not (
            type(id) is str
            and (id.isascii() and id.isidentifier() or _is_id(id))
            and type(name) is str
            and name.strip()
            and (name.isascii() or name.isprintable())
            and (concept is None or type(concept) is str and (concept.isascii() or concept.isprintable()))
        ):
            _check(self, _id("id", id), _text("name", name), _optional_utf8("concept", concept))
        set_id, set_name, set_concept = _COMPONENT_SLOTS
        set_id(self, id)
        set_name(self, name)
        set_concept(self, concept)


_COMPONENT_SLOTS = _slot_setters(Component)


class MappingEdge(_Record):
    """One binary mapping entry; an edge present means the matrix cell is 1."""

    __slots__ = ("source", "target")
    source: str
    target: str

    def __init__(self, source: str, target: str) -> None:
        if not (
            type(source) is str
            and type(target) is str
            and (source.isascii() and source.isidentifier() or _is_id(source))
            and (target.isascii() and target.isidentifier() or _is_id(target))
        ):
            _check(self, _id(0, source), _id(1, target))
        set_source, set_target = _MAPPING_EDGE_SLOTS
        set_source(self, source)
        set_target(self, target)


_MAPPING_EDGE_SLOTS = _slot_setters(MappingEdge)


class Frequency(_Record):
    """An exact failures-per-opportunities rate.

    Kept as an integer pair and compared as an exact rational; several band
    boundaries (1 in 1250, for example) are not representable in binary
    floating point.
    """

    __slots__ = ("numerator", "denominator")
    numerator: int
    denominator: int

    def __init__(self, numerator: int, denominator: int) -> None:
        if not (
            type(numerator) is int
            and type(denominator) is int
            and 0 < numerator < _WRITABLE
            and 0 < denominator < _WRITABLE
        ):
            _check(self, _integer(0, numerator), _integer(1, denominator))
            if numerator < 1 or denominator < 1:
                _check(self, (None, "InvalidValue", "frequency integers must be positive"))
        set_numerator, set_denominator = _FREQUENCY_SLOTS
        set_numerator(self, numerator)
        set_denominator(self, denominator)

    def as_fraction(self) -> Fraction:
        # Imported here: parse, validation and analysis compare frequencies in integers.
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


_FREQUENCY_SLOTS = _slot_setters(Frequency)


class Cause(_Record):
    """A reason that can produce a failure mode, optionally rated for occurrence."""

    __slots__ = ("text", "occurrence_rank", "frequency")
    text: str
    occurrence_rank: int | None
    frequency: Frequency | None

    def __init__(self, text: str, occurrence_rank: int | None = None, frequency: Frequency | None = None) -> None:
        if not (
            type(text) is str
            and text.strip()
            and (text.isascii() or text.isprintable())
            and (occurrence_rank is None or type(occurrence_rank) is int and -_WRITABLE < occurrence_rank < _WRITABLE)
            and (frequency is None or type(frequency) is Frequency)
        ):
            # Only a Frequency is rated as a rate: a float, a bool or a Fraction would be too, silently.
            not_rate = frequency is not None and not isinstance(frequency, Frequency)
            rate = ("frequency", "Type", "expected a frequency") if not_rate else None
            _check(self, _text("text", text), _writable("occurrence_rank", occurrence_rank), rate)
        set_text, set_occurrence_rank, set_frequency = _CAUSE_SLOTS
        set_text(self, text)
        set_occurrence_rank(self, occurrence_rank)
        set_frequency(self, frequency)


_CAUSE_SLOTS = _slot_setters(Cause)


class Effect(_Record):
    """A negative impact of a failure mode, optionally rated for severity."""

    __slots__ = ("text", "severity_class", "severity_rank")
    text: str
    severity_class: str | None
    severity_rank: int | None

    def __init__(self, text: str, severity_class: str | None = None, severity_rank: int | None = None) -> None:
        if not (
            type(text) is str
            and text.strip()
            and (text.isascii() or text.isprintable())
            and (
                severity_class is None
                or type(severity_class) is str
                and (severity_class.isascii() or severity_class.isprintable())
            )
            and (severity_rank is None or type(severity_rank) is int and -_WRITABLE < severity_rank < _WRITABLE)
        ):
            ratings = _writable("severity_class", severity_class), _writable("severity_rank", severity_rank)
            _check(self, _text("text", text), *ratings)
        set_text, set_severity_class, set_severity_rank = _EFFECT_SLOTS
        set_text(self, text)
        set_severity_class(self, severity_class)
        set_severity_rank(self, severity_rank)


_EFFECT_SLOTS = _slot_setters(Effect)


class ControlPlan(_Record):
    """How a failure cause is currently detected, optionally rated."""

    __slots__ = ("method_class", "method_text", "detection_rank")
    method_class: str
    method_text: str | None
    detection_rank: int | None

    def __init__(self, method_class: str, method_text: str | None = None, detection_rank: int | None = None) -> None:
        if not (
            type(method_class) is str
            and method_class in _CONTROL_METHOD_CLASSES
            and (
                method_text is None
                or type(method_text) is str
                and (method_text.isascii() or method_text.isprintable())
            )
            and (detection_rank is None or type(detection_rank) is int and -_WRITABLE < detection_rank < _WRITABLE)
        ):
            choice = _choice("method_class", method_class, CONTROL_METHOD_CLASSES, "control method class")
            text, rank = _optional_utf8("method_text", method_text), _writable("detection_rank", detection_rank)
            _check(self, choice, text, rank)
        set_method_class, set_method_text, set_detection_rank = _CONTROL_PLAN_SLOTS
        set_method_class(self, method_class)
        set_method_text(self, method_text)
        set_detection_rank(self, detection_rank)


_CONTROL_PLAN_SLOTS = _slot_setters(ControlPlan)


class FailureMode(_Record):
    """One way an element fails, with its causes, effects, and control plan."""

    __slots__ = ("id", "element", "category", "description", "causes", "effects", "control")
    id: str
    element: str
    category: str
    description: str
    causes: tuple[Cause, ...]
    effects: tuple[Effect, ...]
    control: ControlPlan | None

    def __init__(
        self,
        id: str,
        element: str,
        category: str,
        description: str,
        causes: tuple[Cause, ...] = (),
        effects: tuple[Effect, ...] = (),
        control: ControlPlan | None = None,
    ) -> None:
        if not (
            type(id) is str
            and type(element) is str
            and (id.isascii() and id.isidentifier() or _is_id(id))
            and (element.isascii() and element.isidentifier() or _is_id(element))
            and type(category) is str
            and category.strip()
            and (category.isascii() or category.isprintable())
            and type(description) is str
            and description.strip()
            and (description.isascii() or description.isprintable())
            and type(causes) is tuple
            and (
                not causes
                or type(causes[0]) is Cause
                and (len(causes) == 1 or all(map(isinstance, causes, repeat(Cause))))
            )
            and type(effects) is tuple
            and (
                not effects
                or type(effects[0]) is Effect
                and (len(effects) == 1 or all(map(isinstance, effects, repeat(Effect))))
            )
            and (control is None or type(control) is ControlPlan)
        ):
            causes, bad_causes = _held("causes", causes, Cause)
            effects, bad_effects = _held("effects", effects, Effect)
            ids = _id("id", id), _id("element", element)
            texts = _text("category", category), _text("description", description)
            plan = None if control is None else _record("control", control, ControlPlan)
            _check(self, *ids, *texts, bad_causes, bad_effects, plan)
        set_id, set_element, set_category, set_description, set_causes, set_effects, set_control = _FAILURE_MODE_SLOTS
        set_id(self, id)
        set_element(self, element)
        set_category(self, category)
        set_description(self, description)
        set_causes(self, causes)
        set_effects(self, effects)
        set_control(self, control)


_FAILURE_MODE_SLOTS = _slot_setters(FailureMode)


class DesignModel(_Record):
    """A complete design: elements, the two mappings, and all failure modes.

    Construction normalizes list fields to tuples and checks that each
    field holds its own record class; cross-reference soundness (dangling
    ids, duplicate ids, edge direction, category fit) is the validation
    module's job so that problems surface as findings rather than
    exceptions.
    """

    meta: Meta
    requirements: tuple[Requirement, ...]
    functions: tuple[Function, ...]
    components: tuple[Component, ...]
    rf: tuple[MappingEdge, ...]
    fc: tuple[MappingEdge, ...]
    failure_modes: tuple[FailureMode, ...]

    def __init__(
        self,
        meta: Meta,
        requirements: tuple[Requirement, ...] = (),
        functions: tuple[Function, ...] = (),
        components: tuple[Component, ...] = (),
        rf: tuple[MappingEdge, ...] = (),
        fc: tuple[MappingEdge, ...] = (),
        failure_modes: tuple[FailureMode, ...] = (),
    ) -> None:
        if not (
            type(meta) is Meta
            and type(requirements) is tuple
            and all(map(isinstance, requirements, repeat(Requirement)))
            and type(functions) is tuple
            and all(map(isinstance, functions, repeat(Function)))
            and type(components) is tuple
            and all(map(isinstance, components, repeat(Component)))
            and type(rf) is tuple
            and all(map(isinstance, rf, repeat(MappingEdge)))
            and type(fc) is tuple
            and all(map(isinstance, fc, repeat(MappingEdge)))
            and type(failure_modes) is tuple
            and all(map(isinstance, failure_modes, repeat(FailureMode)))
        ):
            requirements, bad_requirements = _held("requirements", requirements, Requirement)
            functions, bad_functions = _held("functions", functions, Function)
            components, bad_components = _held("components", components, Component)
            rf, bad_rf = _held("rf", rf, MappingEdge)
            fc, bad_fc = _held("fc", fc, MappingEdge)
            failure_modes, bad_failure_modes = _held("failure_modes", failure_modes, FailureMode)
            elements = bad_requirements, bad_functions, bad_components
            _check(self, _record("meta", meta, Meta), *elements, bad_rf, bad_fc, bad_failure_modes)
        # No slots (the indexes below live in __dict__), so no slot setters either.
        object.__setattr__(self, "meta", meta)
        object.__setattr__(self, "requirements", requirements)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "rf", rf)
        object.__setattr__(self, "fc", fc)
        object.__setattr__(self, "failure_modes", failure_modes)

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
    # A dict of values per key drops repeated edges and keeps first-seen
    # order; one of str keys and None values is never tracked by the collector.
    grouped: dict[str, dict[str, None]] = {}
    for edge in edges:
        if by_target:
            key, value = edge.target, edge.source
        else:
            key, value = edge.source, edge.target
        values = grouped.get(key)
        if values is None:
            grouped[key] = {value: None}
        else:
            values[value] = None
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
