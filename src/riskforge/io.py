"""The canonical model file format.

One JSON document per model, with a closed schema: unknown keys are
rejected so that a typo in a hand-authored file cannot silently drop
data. Parsing reports every problem it can find at once, each with a
1-based line and column into the input; structural validation runs as
part of parsing, so a file that parses always yields a structurally
sound model.

Parsing takes one of two paths through a single schema walker. The
stdlib decoder reads the document, the walker builds the model and
structural validation checks it; a sound document gets no position
computed at all. A document that fails any of those steps, or holds a
surrogate, escaped or raw, is read again by a position-tracking reader,
which reports syntax errors and duplicate keys itself, and walked again;
each problem, kept as a model path, is then resolved against the
reader's tree to a line and column.

The walker checks the document's shape: objects and their keys, arrays,
pairs, and the types of the few slots the model leaves unchecked. Every
value rule (id charset, non-blank prose, flow kinds, control classes,
positive frequencies) is the model constructors'; the walker builds each
record through its constructor and reports what that rejects.

Serialization writes what ``json.dumps(data, indent=2, ensure_ascii=False)``
gives for the model's plain form (fixed key order, LF endings, trailing
newline; frequencies as two-integer arrays, exact where binary floats are
not), one writer per schema shape, and ``parse_model(serialize_model(m))``
reproduces ``m`` exactly.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from json.encoder import encode_basestring as _str

from .model import (
    Cause,
    Component,
    ControlPlan,
    DesignModel,
    Effect,
    FailureMode,
    Flow,
    Frequency,
    Function,
    MappingEdge,
    Meta,
    Requirement,
    _FieldError,
)
from .validation import Path, _structural_errors, render_path


@dataclass(frozen=True, slots=True)
class ParseError:
    """One problem in a model document, located by line and column."""

    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message} [{self.code}]"


class ParseFailure(Exception):
    """Raised by parse_model; carries every ParseError found."""

    def __init__(self, errors: list[ParseError]) -> None:
        self.errors = tuple(sorted(errors, key=lambda e: (e.line, e.column, e.code, e.message)))
        summary = "; ".join(str(e) for e in self.errors[:3])
        if len(self.errors) > 3:
            summary += f"; and {len(self.errors) - 3} more"
        super().__init__(f"{len(self.errors)} parse error(s): {summary}")


def parse_model(text: str) -> DesignModel:
    """Parse a model document; raise ParseFailure listing every problem.

    Structural validation runs on the parsed model and its errors are
    reported as parse errors at the position of the offending value, so a
    successful parse guarantees a structurally valid model.
    """
    model = _parse_fast(text)
    return model if model is not None else _parse_positioned(text)


# ---------------------------------------------------------------------------
# Fast path: the stdlib decoder, no positions.


class _DuplicateKey(ValueError):
    pass


def _unique_object(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        # The positional reader reports where; no need to read further.
        raise _DuplicateKey
    return obj


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


# One decoder for every call, as json.loads keeps one for its defaults: a
# decoder built per call leaves memory behind.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_object, parse_constant=_reject_constant)


def _parse_fast(text: str) -> DesignModel | None:
    """The model, or None when the document has any problem at all or holds a surrogate."""
    if _SURROGATE_ESCAPE.search(text):
        return None
    try:
        text.encode()
        data = _DECODER.decode(text)
    except (ValueError, RecursionError):
        # A raw surrogate (no UTF-8 form), malformed JSON, NaN or Infinity,
        # a duplicate key, an integer too long to convert, or nesting deeper
        # than the interpreter's stack.
        return None
    model = _walk_model(_Walker(), data)
    if model is None or _structural_errors(model):
        return None
    return model


# ---------------------------------------------------------------------------
# Failure path: read again with positions, walk again, locate each problem.


def _parse_positioned(text: str) -> DesignModel:
    """Parse with the position-tracking reader; every error carries its line and column."""
    errors: list[ParseError] = []
    reader = _Reader(text, errors)
    try:
        root = reader.parse_document()
    except _SyntaxFailure as exc:
        raise ParseFailure(errors + [exc.error]) from None

    walker = _Walker()
    model = _walk_model(walker, root.value)
    for path, key, code, message in walker.problems:
        errors.append(ParseError(*reader.location(_offset(root, path, key)), code, message))
    if not errors and model is not None:
        for finding in _structural_errors(model):
            errors.append(ParseError(*reader.location(_offset(root, finding.path)), finding.code, finding.message))
    if errors or model is None:
        raise ParseFailure(errors)
    return model


def _offset(root: _Node, path: Path, key: str | None = None) -> int:
    """Where the value at ``path`` starts in the text, or ``key`` in that object.

    A path that leaves the document falls back to its longest prefix that
    names a value, and to the start of the text when not even its first
    step does.
    """
    node = root
    for depth, segment in enumerate(path):
        children = node.children
        if isinstance(segment, int):
            found = isinstance(children, list) and 0 <= segment < len(children)
        else:
            found = isinstance(children, dict) and segment in children
        if not found:
            return node.pos if depth else 0
        node = children[segment]
    return node.pos if key is None else node.key_offsets[key]


# ---------------------------------------------------------------------------
# Position-tracking JSON reader. The stdlib decoder does not expose node
# positions; this reader keeps them, next to the same plain values.


class _Node:
    """A value in plain form, the offset where it starts, and its children's nodes."""

    __slots__ = ("value", "pos", "children", "key_offsets")

    def __init__(self, value, pos, children=None, key_offsets=None):
        self.value = value
        self.pos = pos
        self.children = children
        self.key_offsets = key_offsets


class _SyntaxFailure(Exception):
    def __init__(self, error: ParseError) -> None:
        self.error = error
        super().__init__(str(error))


_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
_WHITESPACE = re.compile(r"[ \t\n\r]*")
# A run of string characters that need no attention: not a quote, a
# backslash, a control character or a raw surrogate.
_PLAIN_RUN = re.compile(r'[^"\\\x00-\x1f\ud800-\udfff]*')
# An escaped surrogate: only this reader tells a pair from a lone half.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _is_digit(ch: str) -> bool:
    # JSON digits are ASCII only; str.isdigit() also accepts "²" and "٣".
    return "0" <= ch <= "9"


class _Reader:
    def __init__(self, text: str, errors: list[ParseError]) -> None:
        self.text = text
        self.pos = 0
        self.errors = errors
        self.line_starts = [0] + [match.end() for match in re.finditer("\n", text)]

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = bisect_right(self.line_starts, pos)
        return line, pos - self.line_starts[line - 1] + 1

    def fail(self, message: str, pos: int | None = None) -> None:
        line, col = self.location(pos)
        raise _SyntaxFailure(ParseError(line, col, "Syntax", message))

    def skip_ws(self) -> None:
        self.pos = _WHITESPACE.match(self.text, self.pos).end()

    def parse_document(self) -> _Node:
        self.skip_ws()
        node = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected content after the end of the document")
        return node

    def parse_value(self) -> _Node:
        """Read one value. Open arrays and objects wait on an explicit stack,
        so nesting depth is bounded by memory, not by the interpreter's stack."""
        text = self.text
        # Each open container, with the key node its next value binds to
        # (None for arrays).
        stack: list[tuple[_Node, _Node | None]] = []
        while True:
            if self.pos >= len(text):
                self.fail("unexpected end of input")
            ch = text[self.pos]
            if ch in "{[":
                if ch == "{":
                    node = _Node({}, self.pos, {}, {})
                else:
                    node = _Node([], self.pos, [])
                self.pos += 1
                self.skip_ws()
                if self.pos >= len(text) or text[self.pos] != ("}" if ch == "{" else "]"):
                    stack.append((node, self._parse_key() if ch == "{" else None))
                    continue
                self.pos += 1
            else:
                node = self._parse_scalar(ch)
            # A value is complete: bind it, then close every container that
            # ends right after it.
            while stack:
                container, key_node = stack[-1]
                is_object = key_node is not None
                if is_object:
                    self._bind(container, key_node, node)
                else:
                    container.value.append(node.value)
                    container.children.append(node)
                self.skip_ws()
                if self.pos >= len(text):
                    self.fail("unterminated object" if is_object else "unterminated array")
                ch = text[self.pos]
                if ch == ",":
                    self.pos += 1
                    if is_object:
                        stack[-1] = (container, self._parse_key())
                    else:
                        self.skip_ws()
                    break
                if ch == ("}" if is_object else "]"):
                    self.pos += 1
                    stack.pop()
                    node = container
                    continue
                self.fail("expected ',' or '}' in object" if is_object else "expected ',' or ']' in array")
            if not stack:
                return node

    def _parse_scalar(self, ch: str) -> _Node:
        if ch == '"':
            return self.parse_string()
        if ch == "-" or _is_digit(ch):
            return self.parse_number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.pos):
                node = _Node(value, self.pos)
                self.pos += len(literal)
                return node
        self.fail(f"unexpected character {ch!r}")

    def _parse_key(self) -> _Node:
        """An object key and its colon, up to the start of its value."""
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            self.fail("expected an object key string")
        key_node = self.parse_string()
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ":":
            self.fail("expected ':' after object key")
        self.pos += 1
        self.skip_ws()
        return key_node

    def _bind(self, container: _Node, key_node: _Node, child: _Node) -> None:
        key = key_node.value
        if key in container.children:
            # Recoverable: keep the first binding, report the repeat.
            self.errors.append(ParseError(*self.location(key_node.pos), "DuplicateKey", f"duplicate key {key!r}"))
        else:
            container.value[key] = child.value
            container.children[key] = child
            container.key_offsets[key] = key_node.pos

    def parse_string(self) -> _Node:
        text = self.text
        start = self.pos
        self.pos += 1
        pieces: list[str] = []
        while True:
            end = _PLAIN_RUN.match(text, self.pos).end()
            pieces.append(text[self.pos : end])
            self.pos = end
            if end >= len(text):
                self.fail("unterminated string", start)
            ch = text[end]
            if ch == '"':
                self.pos += 1
                return _Node("".join(pieces), start)
            if "\ud800" <= ch <= "\udfff":
                # Recoverable, like a lone surrogate escape: no UTF-8 form.
                message = f"unpaired surrogate character '\\u{ord(ch):04x}'"
                self.errors.append(ParseError(*self.location(end), "Syntax", message))
                pieces.append(ch)
                self.pos += 1
                continue
            if ch != "\\":
                self.fail("unescaped control character in string")
            pieces.append(self._parse_escape())

    def _parse_escape(self) -> str:
        start = self.pos
        self.pos += 1
        if self.pos >= len(self.text):
            self.fail("unterminated escape sequence")
        ch = self.text[self.pos]
        if ch in _ESCAPES:
            self.pos += 1
            return _ESCAPES[ch]
        if ch == "u":
            code = self._parse_hex4()
            if 0xD800 <= code <= 0xDBFF and self.text.startswith("\\u", self.pos):
                save = self.pos
                self.pos += 1
                low = self._parse_hex4()
                if 0xDC00 <= low <= 0xDFFF:
                    return chr(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                self.pos = save
            if 0xD800 <= code <= 0xDFFF:
                # Recoverable: the string reads as the stdlib reads it.
                message = f"unpaired surrogate escape '{self.text[start : self.pos]}'"
                self.errors.append(ParseError(*self.location(start), "Syntax", message))
            return chr(code)
        self.fail(f"invalid escape sequence '\\{ch}'")

    def _parse_hex4(self) -> int:
        self.pos += 1
        digits = self.text[self.pos : self.pos + 4]
        if len(digits) != 4 or any(c not in "0123456789abcdefABCDEF" for c in digits):
            self.fail("invalid unicode escape")
        self.pos += 4
        return int(digits, 16)

    def parse_number(self) -> _Node:
        start = self.pos
        text = self.text
        if self.pos < len(text) and text[self.pos] == "-":
            self.pos += 1
        if self.pos >= len(text) or not _is_digit(text[self.pos]):
            self.fail("invalid number", start)
        if text[self.pos] == "0":
            self.pos += 1
        else:
            while self.pos < len(text) and _is_digit(text[self.pos]):
                self.pos += 1
        is_float = False
        if self.pos < len(text) and text[self.pos] == ".":
            is_float = True
            self.pos += 1
            if self.pos >= len(text) or not _is_digit(text[self.pos]):
                self.fail("invalid number", start)
            while self.pos < len(text) and _is_digit(text[self.pos]):
                self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            is_float = True
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos >= len(text) or not _is_digit(text[self.pos]):
                self.fail("invalid number", start)
            while self.pos < len(text) and _is_digit(text[self.pos]):
                self.pos += 1
        raw = text[start : self.pos]
        if is_float:
            return _Node(float(raw), start)
        try:
            return _Node(int(raw), start)
        except ValueError:
            # Past the interpreter's integer-string conversion limit,
            # which the stdlib decoder rejects too.
            self.fail("integer has too many digits", start)


# ---------------------------------------------------------------------------
# Schema walk over plain JSON values: closed schema, every problem
# collected. A problem is kept as the model path of the value at fault,
# plus the key when the key itself is at fault; only the failure path
# turns paths into positions.


def _schema(required: tuple[str, ...], optional: tuple[str, ...] = ()) -> tuple[tuple[str, ...], frozenset[str]]:
    return required, frozenset(required + optional)


_TOP = _schema(("meta", "requirements", "functions", "components", "rf", "fc", "failure_modes"))
_META = _schema(("product", "version"))
_REQUIREMENT = _schema(("id", "text"))
_FLOW = _schema(("description", "kind"))
_FUNCTION = _schema(("id", "verb", "noun"), ("inputs", "outputs"))
_COMPONENT = _schema(("id", "name"), ("concept",))
_EFFECT = _schema(("text",), ("severity_class", "severity_rank"))
_CAUSE = _schema(("text",), ("occurrence_rank", "frequency"))
_CONTROL = _schema(("method_class",), ("method_text", "detection_rank"))
_FAILURE_MODE = _schema(("id", "element", "category", "description"), ("effects", "causes", "control"))


class _Walker:
    """Checks the document's shape and builds each record through its constructor.

    Besides shape, it checks only the types of ``concept``,
    ``severity_class``, ``method_text`` and the ranks, which no
    constructor checks. A scalar's own path is built only when it has a
    problem.
    """

    def __init__(self) -> None:
        self.problems: list[tuple[Path, str | None, str, str]] = []

    def fail(self, path: Path, code: str, detail: str, key: str | None = None) -> None:
        self.problems.append((path, key, code, f"{render_path(path)}: {detail}"))

    def obj(self, value: object, path: Path, schema: tuple[tuple[str, ...], frozenset[str]]) -> dict | None:
        if not isinstance(value, dict):
            self.fail(path, "Type", "expected an object")
            return None
        required, allowed = schema
        if not allowed.issuperset(value):
            for key in value:
                if key not in allowed:
                    self.fail(path, "UnknownKey", f"unknown key {key!r}", key)
        ok = True
        for key in required:
            if key not in value:
                self.fail(path, "MissingKey", f"missing required key {key!r}")
                ok = False
        return value if ok else None

    def array(self, value: object, path: Path) -> list | None:
        if not isinstance(value, list):
            self.fail(path, "Type", "expected an array")
            return None
        return value

    def string(self, container, key: str, path: Path) -> str | None:
        value = container[key]
        if not isinstance(value, str):
            self.fail(path + (key,), "Type", "expected a string")
            return None
        return value

    def integer(self, container, key: str, path: Path) -> int | None:
        value = container[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(path + (key,), "Type", "expected an integer")
            return None
        return value

    def build(self, cls, path: Path, *values):
        """``cls(*values)``, or None after filing each problem the constructor reports."""
        try:
            return cls(*values)
        except _FieldError as exc:
            for field, code, detail in exc.problems:
                self.fail(path if field is None else path + (field,), code, detail)
            return None


def _walk_model(w: _Walker, data: object) -> DesignModel | None:
    top = w.obj(data, (), _TOP)
    if top is None:
        return None

    meta = _walk_meta(w, top["meta"], ("meta",))
    requirements = _walk_list(w, top, "requirements", (), _walk_requirement)
    functions = _walk_list(w, top, "functions", (), _walk_function)
    components = _walk_list(w, top, "components", (), _walk_component)
    rf = _walk_list(w, top, "rf", (), _walk_edge)
    fc = _walk_list(w, top, "fc", (), _walk_edge)
    failure_modes = _walk_list(w, top, "failure_modes", (), _walk_failure_mode)

    if w.problems or meta is None:
        return None
    return DesignModel(meta, requirements, functions, components, rf, fc, failure_modes)


def _walk_list(w: _Walker, container: dict, key: str, path: Path, walk_item) -> list:
    path = path + (key,)
    values = w.array(container[key], path)
    if values is None:
        return []
    items = []
    for index, value in enumerate(values):
        item = walk_item(w, value, path + (index,))
        if item is not None:
            items.append(item)
    return items


def _walk_meta(w: _Walker, value: object, path: Path) -> Meta | None:
    fields = w.obj(value, path, _META)
    if fields is None:
        return None
    return w.build(Meta, path, fields["product"], fields["version"])


def _walk_requirement(w: _Walker, value: object, path: Path) -> Requirement | None:
    fields = w.obj(value, path, _REQUIREMENT)
    if fields is None:
        return None
    return w.build(Requirement, path, fields["id"], fields["text"])


def _walk_flow(w: _Walker, value: object, path: Path) -> Flow | None:
    fields = w.obj(value, path, _FLOW)
    if fields is None:
        return None
    return w.build(Flow, path, fields["description"], fields["kind"])


def _walk_function(w: _Walker, value: object, path: Path) -> Function | None:
    fields = w.obj(value, path, _FUNCTION)
    if fields is None:
        return None
    inputs = _walk_list(w, fields, "inputs", path, _walk_flow) if "inputs" in fields else ()
    outputs = _walk_list(w, fields, "outputs", path, _walk_flow) if "outputs" in fields else ()
    return w.build(Function, path, fields["id"], fields["verb"], fields["noun"], inputs, outputs)


def _walk_component(w: _Walker, value: object, path: Path) -> Component | None:
    fields = w.obj(value, path, _COMPONENT)
    if fields is None:
        return None
    concept = w.string(fields, "concept", path) if "concept" in fields else None
    return w.build(Component, path, fields["id"], fields["name"], concept)


def _walk_edge(w: _Walker, value: object, path: Path) -> MappingEdge | None:
    return _walk_pair(w, value, path, MappingEdge, "an edge is a [source_id, target_id] pair")


def _walk_pair(w: _Walker, value: object, path: Path, cls, shape: str):
    """``cls`` built from a two-item array; ``shape`` says what the pair is."""
    pair = w.array(value, path)
    if pair is None:
        return None
    if len(pair) != 2:
        w.fail(path, "InvalidValue", shape)
        return None
    return w.build(cls, path, *pair)


def _walk_effect(w: _Walker, value: object, path: Path) -> Effect | None:
    fields = w.obj(value, path, _EFFECT)
    if fields is None:
        return None
    severity_class = w.string(fields, "severity_class", path) if "severity_class" in fields else None
    severity_rank = w.integer(fields, "severity_rank", path) if "severity_rank" in fields else None
    return w.build(Effect, path, fields["text"], severity_class, severity_rank)


def _walk_cause(w: _Walker, value: object, path: Path) -> Cause | None:
    fields = w.obj(value, path, _CAUSE)
    if fields is None:
        return None
    occurrence_rank = w.integer(fields, "occurrence_rank", path) if "occurrence_rank" in fields else None
    frequency = None
    if "frequency" in fields:
        shape = "a frequency is a [failures, opportunities] pair"
        frequency = _walk_pair(w, fields["frequency"], path + ("frequency",), Frequency, shape)
    return w.build(Cause, path, fields["text"], occurrence_rank, frequency)


def _walk_control(w: _Walker, value: object, path: Path) -> ControlPlan | None:
    fields = w.obj(value, path, _CONTROL)
    if fields is None:
        return None
    method_text = w.string(fields, "method_text", path) if "method_text" in fields else None
    detection_rank = w.integer(fields, "detection_rank", path) if "detection_rank" in fields else None
    return w.build(ControlPlan, path, fields["method_class"], method_text, detection_rank)


def _walk_failure_mode(w: _Walker, value: object, path: Path) -> FailureMode | None:
    fields = w.obj(value, path, _FAILURE_MODE)
    if fields is None:
        return None
    effects = _walk_list(w, fields, "effects", path, _walk_effect) if "effects" in fields else ()
    causes = _walk_list(w, fields, "causes", path, _walk_cause) if "causes" in fields else ()
    control = _walk_control(w, fields["control"], path + ("control",)) if "control" in fields else None
    head = fields["id"], fields["element"], fields["category"], fields["description"]
    return w.build(FailureMode, path, *head, causes, effects, control)


# ---------------------------------------------------------------------------
# Canonical serialization: one writer per shape, each at its fixed depth. The
# writers append short pieces to one list, joined once, so that a document
# builds no container string only to copy it into its parent and drop it.

#: A newline and the indent of each depth the canonical form reaches.
_INDENT = tuple("\n" + "  " * depth for depth in range(7))


def _array(out: list[str], items: tuple | list, write, depth: int) -> None:
    """Append an array at ``depth`` whose items ``write(out, item)`` appends one level deeper."""
    separator = "[" + _INDENT[depth + 1]
    for item in items:
        out.append(separator)
        write(out, item)
        separator = "," + _INDENT[depth + 1]
    out.append(_INDENT[depth] + "]" if items else "[]")


def _object(out: list[str], members: list[str], depth: int, arrays: tuple = (), last: str | None = None) -> None:
    """Append an object at ``depth``: members, each non-empty ``(key, items, write)`` array, then ``last``."""
    inner = _INDENT[depth + 1]
    out.append("{" + inner + ("," + inner).join(members))
    for key, items, write in arrays:
        if items:
            out.append(f",{inner}{key}: ")
            _array(out, items, write, depth + 1)
    out.append((f",{inner}{last}" if last else "") + _INDENT[depth] + "}")


def _scalar(value: object) -> str:
    """A str, int or None as ``json.dumps`` writes it, and a bool or float put in an unchecked slot."""
    if isinstance(value, str):
        return _str(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, float)):
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a {type(value).__name__} is not a JSON scalar")


def serialize_model(model: DesignModel) -> str:
    """Render a model in canonical form; identical models give identical bytes."""
    out = ['{\n  "meta": ']
    _object(out, ['"product": ' + _str(model.meta.product), '"version": ' + _str(model.meta.version)], 1)
    writers = (("requirements", _requirement), ("functions", _function), ("components", _component))
    for key, write in writers + (("rf", _edge), ("fc", _edge), ("failure_modes", _failure_mode)):
        out.append(f',\n  "{key}": ')
        _array(out, getattr(model, key), write, 1)
    out.append("\n}\n")
    return "".join(out)


def _requirement(out: list[str], requirement: Requirement) -> None:
    _object(out, ['"id": ' + _str(requirement.id), '"text": ' + _str(requirement.text)], 2)


def _edge(out: list[str], edge: MappingEdge) -> None:
    out.append(f"[\n      {_str(edge.source)},\n      {_str(edge.target)}\n    ]")


def _function(out: list[str], function: Function) -> None:
    members = ['"id": ' + _str(function.id), '"verb": ' + _str(function.verb), '"noun": ' + _str(function.noun)]
    _object(out, members, 2, (('"inputs"', function.inputs, _flow), ('"outputs"', function.outputs, _flow)))


def _flow(out: list[str], flow: Flow) -> None:
    _object(out, ['"description": ' + _str(flow.description), '"kind": ' + _str(flow.kind)], 4)


def _component(out: list[str], component: Component) -> None:
    members = ['"id": ' + _str(component.id), '"name": ' + _str(component.name)]
    if component.concept is not None:
        members.append('"concept": ' + _scalar(component.concept))
    _object(out, members, 2)


def _failure_mode(out: list[str], fm: FailureMode) -> None:
    members = ['"id": ' + _str(fm.id), '"element": ' + _str(fm.element)]
    members += ['"category": ' + _str(fm.category), '"description": ' + _str(fm.description)]
    control = '"control": ' + _control(fm.control) if fm.control is not None else None
    _object(out, members, 2, (('"effects"', fm.effects, _effect), ('"causes"', fm.causes, _cause)), control)


def _effect(out: list[str], effect: Effect) -> None:
    members = ['"text": ' + _str(effect.text)]
    if effect.severity_class is not None:
        members.append('"severity_class": ' + _scalar(effect.severity_class))
    if effect.severity_rank is not None:
        members.append('"severity_rank": ' + _scalar(effect.severity_rank))
    _object(out, members, 4)


def _cause(out: list[str], cause: Cause) -> None:
    members = ['"text": ' + _str(cause.text)]
    if cause.occurrence_rank is not None:
        members.append('"occurrence_rank": ' + _scalar(cause.occurrence_rank))
    if cause.frequency is not None:
        numerator, denominator = _scalar(cause.frequency.numerator), _scalar(cause.frequency.denominator)
        members.append(f'"frequency": [\n            {numerator},\n            {denominator}\n          ]')
    _object(out, members, 4)


def _control(control: ControlPlan) -> str:
    members = ['"method_class": ' + _str(control.method_class)]
    if control.method_text is not None:
        members.append('"method_text": ' + _scalar(control.method_text))
    if control.detection_rank is not None:
        members.append('"detection_rank": ' + _scalar(control.detection_rank))
    return "{" + _INDENT[4] + ("," + _INDENT[4]).join(members) + _INDENT[3] + "}"
