"""The canonical model file format.

One JSON document per model, with a closed schema: unknown keys are
rejected so that a typo in a hand-authored file cannot silently drop
data. Parsing reports every problem it can find at once, each with a
1-based line and column into the input; structural validation runs as
part of parsing, so a file that parses always yields a structurally
sound model.

Parsing decodes once, walks once, and locates only on failure. The
stdlib decoder reads the document, keeping each key's first binding and
marking each object whose keys repeat. A document it rejects (malformed,
``NaN``, an over-long integer, nesting past the interpreter's stack) or
that holds a surrogate, escaped or raw, is read instead by a
position-tracking reader, which reports syntax errors, and duplicate
keys and surrogates recoverably, and also keeps each key's first
binding. One schema walker builds the model from those values and
structural validation checks it; a sound document gets no position
computed at all. Each problem, a repeated key too, is kept as a model
path, and only then turned into a line and column by reading, from the
text, the containers on the problem paths and nothing else, each only up
to the member a path needs, so nothing past the last problem is read.

The walker checks the document's shape: objects and their keys, arrays,
pairs, and the JSON type of each optional string or integer slot. Every
value rule (id charset, non-blank prose, flow kinds, control classes,
positive frequencies, writable integers) is the model constructors'; the
walker builds each record through its constructor and reports what that
rejects. Each record's shape is written once, as a table of its keys. A
sound record takes an inline path, its keys tested against its table and
its constructor called directly; only a record that misses is walked
again, by one reporting walk over the tables that builds the model path
of each problem. The inline path shares id and vocabulary strings, and
the walk drops each decoded item once its record is built.

The structural checks return their findings with each failure mode's own
(S, O, D), read once; ``_parse`` returns the model paired with those
ratings, which the CLI passes on to validation and analysis, and
``parse_model`` keeps the model alone.

Serialization writes what ``json.dumps(data, indent=2, ensure_ascii=False)``
gives for the model's plain form (fixed key order, LF endings, trailing
newline; frequencies as two-integer arrays, exact where binary floats are
not), one writer per schema shape, and ``parse_model(serialize_model(m))``
reproduces ``m`` exactly.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from functools import partial
from json.decoder import scanstring
from json.encoder import encode_basestring as _str
from operator import itemgetter

from .model import (
    ALL_CATEGORY_NAMES,
    CONTROL_METHOD_CLASSES,
    FLOW_KINDS,
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
    _SURROGATE,
    _Record,
    _slot_setters,
)
from .rating import ALL_SEVERITY_CLASS_NAMES
from .validation import Path, _structural_errors, render_path


class ParseError(_Record):
    """One problem in a model document, located by line and column."""

    __slots__ = ("line", "column", "code", "message")
    line: int
    column: int
    code: str
    message: str

    def __init__(self, line: int, column: int, code: str, message: str) -> None:
        set_line, set_column, set_code, set_message = _PARSE_ERROR_SLOTS
        set_line(self, line)
        set_column(self, column)
        set_code(self, code)
        set_message(self, message)

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message} [{self.code}]"


_PARSE_ERROR_SLOTS = _slot_setters(ParseError)


class ParseFailure(Exception):
    """Raised by parse_model; carries every ParseError found."""

    def __init__(self, errors: list[ParseError]) -> None:
        self.errors = tuple(sorted(errors, key=lambda e: (e.line, e.column, e.code, e.message)))
        summary = "; ".join(str(e) for e in self.errors[:3])
        if len(self.errors) > 3:
            summary += f"; and {len(self.errors) - 3} more"
        super().__init__(f"{len(self.errors)} parse error(s): {summary}")


#: A problem found before its line and column are known: text offset, code, message.
_Located = tuple[int, str, str]


def parse_model(text: str) -> DesignModel:
    """Parse a model document; raise ParseFailure listing every problem.

    Structural validation runs on the parsed model and its errors are
    reported as parse errors at the position of the offending value, so a
    successful parse guarantees a structurally valid model.
    """
    return _parse(text)[0]


def _parse(text: str) -> tuple[DesignModel, list]:
    """``parse_model``'s model, and the own (S, O, D) of each of its failure modes in model
    order, as its structural checks read them: what ``validation._complete`` takes."""
    return _model_from(text, *_decode(text))


def _model_from(text: str, data: object, errors: list[_Located], repeats: int = 0) -> tuple[DesignModel, list]:
    """Walk the decoded ``data`` once; locate every problem in ``text`` only if there is one.

    ``repeats`` is the number of repeated keys the decoder met. A repeat
    the walk does not meet lies in a value it never enters; only the
    positional reader reports that one. Returns the model and the own
    ratings its structural checks read.
    """
    walker = _Walker()
    model = _walk_model(walker, data)
    if len(walker.repeats) != repeats:
        return _model_from(text, *_read(text))
    problems = walker.problems
    if model is not None and not errors and not repeats:
        structural, ratings = _structural_errors(model)
        problems = [(finding.path, None, finding.code, finding.message) for finding in structural]
        if not problems:
            return model, ratings
    locator = _Locator(text)
    for path, key, nth in walker.repeats:
        errors.append((locator.offset(path, key, nth), "DuplicateKey", f"duplicate key {key!r}"))
    errors += [(locator.offset(path, key), code, message) for path, key, code, message in problems]
    raise ParseFailure(_positioned(text, errors))


def _positioned(text: str, located: list[_Located]) -> list[ParseError]:
    """Each problem with its line and column, counted in one pass over the text."""
    errors = []
    line, counted = 1, 0
    for pos, code, message in sorted(located, key=itemgetter(0)):
        line += text.count("\n", counted, pos)
        counted = pos
        errors.append(ParseError(line, pos - text.rfind("\n", 0, pos), code, message))
    return errors


# ---------------------------------------------------------------------------
# Decoding: the stdlib decoder, or the positional reader on what it rejects.


class _DuplicateKey(ValueError):
    pass


def _unique_object(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        # Decoded again by _first_bindings; no need to read further.
        raise _DuplicateKey
    return obj


class _Repeats(dict):
    """An object whose keys repeat: each key's first binding, and ``repeated``, the key of each later occurrence."""

    __slots__ = ("repeated",)


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


# One decoder for every call, as json.loads keeps one for its defaults: a
# decoder built per call leaves memory behind.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_object, parse_constant=_reject_constant)


def _decode(text: str) -> tuple[object, list[_Located], int]:
    """The document's values, the problems the reader recovered from when it had to read them,
    and the number of repeated keys the decoder met."""
    if not _SURROGATE_ESCAPE.search(text):
        try:
            text.encode()
            return _DECODER.decode(text), [], 0
        except _DuplicateKey:
            try:
                return _first_bindings(text)
            except (ValueError, RecursionError):
                pass
        except (ValueError, RecursionError):
            # A raw surrogate (no UTF-8 form), malformed JSON, NaN or Infinity,
            # an integer too long to convert, or nesting deeper than the
            # interpreter's stack.
            pass
    return (*_read(text), 0)


def _first_bindings(text: str) -> tuple[object, list[_Located], int]:
    """The stdlib decoder's values for a text with a repeated key: first binding of each key,
    each object with a repeat a ``_Repeats``, and the number of repeats in the whole text."""
    count = 0

    def first_binding(pairs: list[tuple[str, object]]) -> dict:
        nonlocal count
        obj = dict(pairs)
        if len(obj) == len(pairs):
            return obj
        obj = _Repeats()
        obj.repeated = []
        for key, value in pairs:
            if key in obj:
                obj.repeated.append(key)
            else:
                obj[key] = value
        count += len(obj.repeated)
        return obj

    # A decoder of its own, built only for a text with a repeat, so that the
    # count belongs to this call alone.
    data = json.JSONDecoder(object_pairs_hook=first_binding, parse_constant=_reject_constant).decode(text)
    return data, [], count


def _read(text: str) -> tuple[object, list[_Located]]:
    """The positional reader's values, first binding of each key; ParseFailure on a syntax error."""
    errors: list[_Located] = []
    try:
        return _Reader(text, errors).parse_document(), errors
    except _SyntaxFailure as exc:
        raise ParseFailure(_positioned(text, errors) + [exc.error]) from None


# ---------------------------------------------------------------------------
# Locating: from model paths back to text offsets.

#: The stdlib scanner without hooks: it reads past a value whatever keys or constants it holds.
_SCAN = json.JSONDecoder().scan_once


class _Locator:
    """Where the values and keys that model paths name start in a text.

    The text is one that the stdlib decoder or the positional reader
    accepted. Only the containers on the paths asked for are read, and
    each only up to the member a path needs: each member key with the
    stdlib ``scanstring``, each earlier member value skipped with the
    stdlib scanner. A read stops at that member and a later path resumes
    it there, so a container is read at most once however many paths pass
    through it, and nothing after the last member asked for is read.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        # Container offset -> [members, resume]. The members read so far:
        # {key: (value offset, key offset, later key offsets...)} for the
        # first binding of each key and the occurrences that repeat it,
        # [value offset] for an array, None for a scalar. ``resume`` is
        # where the read goes on: the value of the last member read, not yet
        # skipped, or the first member when none is; None at the end.
        self.reads: dict[int, list] = {}

    def offset(self, path: Path, key: str | None = None, nth: int = 0) -> int:
        """Where the value at ``path`` starts, or the ``nth`` repeat of ``key`` in that object
        (0: the key of its first binding).

        A path that leaves the document falls back to its longest prefix
        that names a value, and to the start of the text when not even its
        first step does.
        """
        pos = _WHITESPACE.match(self.text).end()
        for depth, segment in enumerate(path):
            found = self._member(pos, segment)
            if found is None:
                return pos if depth else 0
            pos = found
        return pos if key is None else self._member(pos, key, 1 + nth)

    def _member(self, pos: int, segment: str | int, slot: int = 0) -> int | None:
        """Offset ``slot`` of member ``segment`` of the container at ``pos`` (see ``reads``),
        read no further than that member; None if the container has no such member."""
        read = self.reads.get(pos)
        if read is None:
            read = self.reads[pos] = self._open(pos)
        members = read[0]
        if isinstance(segment, int):
            if not isinstance(members, list) or segment < 0:
                return None
            while len(members) <= segment and read[1] is not None:
                self._read_member(read)
            return members[segment] if segment < len(members) else None
        if not isinstance(members, dict):
            return None
        while (segment not in members or len(members[segment]) <= slot) and read[1] is not None:
            self._read_member(read)
        offsets = members.get(segment, ())
        return offsets[slot] if slot < len(offsets) else None

    def _open(self, pos: int) -> list:
        """A read of the container at ``pos`` that has read no member yet."""
        text = self.text
        opener = text[pos]
        if opener not in "{[":
            return [None, None]
        first = _WHITESPACE.match(text, pos + 1).end()
        return [{} if opener == "{" else [], None if text[first] in "}]" else first]

    def _read_member(self, read: list) -> None:
        """Skip the value of the last member read, then read the next member's key and value offset."""
        text = self.text
        members, pos = read
        if members:
            pos = _WHITESPACE.match(text, self._skip(pos)).end()
            if text[pos] != ",":
                read[1] = None
                return
            pos = _WHITESPACE.match(text, pos + 1).end()
        if isinstance(members, dict):
            key, end = scanstring(text, pos + 1)
            value_pos = _WHITESPACE.match(text, _WHITESPACE.match(text, end).end() + 1).end()
            members[key] = members[key] + (pos,) if key in members else (value_pos, pos)
            pos = value_pos
        else:
            members.append(pos)
        read[1] = pos

    def _skip(self, pos: int) -> int:
        """The offset just past the value that starts at ``pos``."""
        try:
            return _SCAN(self.text, pos)[1]
        except RecursionError:
            # Nested past the interpreter's stack: the reader keeps its own.
            reader = _Reader(self.text, [])
            reader.pos = pos
            reader.parse_value()
            return reader.pos


# ---------------------------------------------------------------------------
# Position-tracking JSON reader, for text the stdlib decoder rejects and for
# a repeated key the walk does not meet: it reports where a syntax error is,
# and reads on past duplicate keys and surrogates to report them all.


class _SyntaxFailure(Exception):
    def __init__(self, error: ParseError) -> None:
        self.error = error
        super().__init__(str(error))


_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
_WHITESPACE = re.compile(r"[ \t\n\r]*")
# A run of string characters that need no attention: not a quote, a
# backslash, a control character or a raw surrogate. Compiled by each
# reader, not at import: the surrogate range compiles to a 64K charmap,
# and only text the stdlib decoder rejects is read here.
_PLAIN_RUN = r'[^"\\\x00-\x1f\ud800-\udfff]*'
# An escaped surrogate: only the reader tells a pair from a lone half.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _is_digit(ch: str) -> bool:
    # JSON digits are ASCII only; str.isdigit() also accepts "²" and "٣".
    return "0" <= ch <= "9"


class _Reader:
    """Reads plain values; appends each recoverable problem to ``errors``."""

    def __init__(self, text: str, errors: list[_Located]) -> None:
        self.text = text
        self.pos = 0
        self.errors = errors
        self.plain_run = re.compile(_PLAIN_RUN).match

    def fail(self, message: str, pos: int | None = None) -> None:
        raise _SyntaxFailure(_positioned(self.text, [(self.pos if pos is None else pos, "Syntax", message)])[0])

    def skip_ws(self) -> None:
        self.pos = _WHITESPACE.match(self.text, self.pos).end()

    def parse_document(self) -> object:
        self.skip_ws()
        value = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected content after the end of the document")
        return value

    def parse_value(self) -> object:
        """Read one value. Open arrays and objects wait on an explicit stack,
        so nesting depth is bounded by memory, not by the interpreter's stack."""
        text = self.text
        # Each open container, with the key its next value binds to and that
        # key's offset (None and 0 for arrays).
        stack: list[tuple[dict | list, str | None, int]] = []
        while True:
            if self.pos >= len(text):
                self.fail("unexpected end of input")
            ch = text[self.pos]
            if ch in "{[":
                value: object = {} if ch == "{" else []
                self.pos += 1
                self.skip_ws()
                if self.pos >= len(text) or text[self.pos] != ("}" if ch == "{" else "]"):
                    stack.append((value, *self._parse_key()) if ch == "{" else (value, None, 0))
                    continue
                self.pos += 1
            else:
                value = self._parse_scalar(ch)
            # A value is complete: bind it, then close every container that
            # ends right after it.
            while stack:
                container, key, key_pos = stack[-1]
                is_object = key is not None
                if not is_object:
                    container.append(value)
                elif key in container:
                    # Recoverable: keep the first binding, report the repeat.
                    self.errors.append((key_pos, "DuplicateKey", f"duplicate key {key!r}"))
                else:
                    container[key] = value
                self.skip_ws()
                if self.pos >= len(text):
                    self.fail("unterminated object" if is_object else "unterminated array")
                ch = text[self.pos]
                if ch == ",":
                    self.pos += 1
                    if is_object:
                        stack[-1] = (container, *self._parse_key())
                    else:
                        self.skip_ws()
                    break
                if ch == ("}" if is_object else "]"):
                    self.pos += 1
                    stack.pop()
                    value = container
                    continue
                self.fail("expected ',' or '}' in object" if is_object else "expected ',' or ']' in array")
            if not stack:
                return value

    def _parse_scalar(self, ch: str) -> object:
        if ch == '"':
            return self.parse_string()
        if ch == "-" or _is_digit(ch):
            return self.parse_number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.pos):
                self.pos += len(literal)
                return value
        self.fail(f"unexpected character {ch!r}")

    def _parse_key(self) -> tuple[str, int]:
        """An object key, its offset, and its colon, up to the start of its value."""
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            self.fail("expected an object key string")
        key_pos = self.pos
        key = self.parse_string()
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ":":
            self.fail("expected ':' after object key")
        self.pos += 1
        self.skip_ws()
        return key, key_pos

    def parse_string(self) -> str:
        text = self.text
        start = self.pos
        self.pos += 1
        pieces: list[str] = []
        while True:
            end = self.plain_run(text, self.pos).end()
            pieces.append(text[self.pos : end])
            self.pos = end
            if end >= len(text):
                self.fail("unterminated string", start)
            ch = text[end]
            if ch == '"':
                self.pos += 1
                return "".join(pieces)
            if "\ud800" <= ch <= "\udfff":
                # Recoverable, like a lone surrogate escape: no UTF-8 form.
                self.errors.append((end, "Syntax", f"{_SURROGATE} '\\u{ord(ch):04x}'"))
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
                self.errors.append((start, "Syntax", f"unpaired surrogate escape '{self.text[start : self.pos]}'"))
            return chr(code)
        self.fail(f"invalid escape sequence '\\{ch}'")

    def _parse_hex4(self) -> int:
        self.pos += 1
        digits = self.text[self.pos : self.pos + 4]
        if len(digits) != 4 or any(c not in "0123456789abcdefABCDEF" for c in digits):
            self.fail("invalid unicode escape")
        self.pos += 4
        return int(digits, 16)

    def parse_number(self) -> int | float:
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
            return float(raw)
        try:
            return int(raw)
        except ValueError:
            # Past the interpreter's integer-string conversion limit,
            # which the stdlib decoder rejects too.
            self.fail("integer has too many digits", start)


# ---------------------------------------------------------------------------
# Schema walk over plain JSON values: closed schema, every problem
# collected. A problem is kept as the model path of the value at fault,
# plus the key when the key itself is at fault; only the failure path
# turns paths into positions.

_TOP = ("meta", "requirements", "functions", "components", "rf", "fc", "failure_modes")


class _Walker:
    """Checks the document's shape and builds each record through its constructor.

    The happy path is inline: each array item is handed to a ``_sound_*``
    builder, which tests the item's shape with ``type(...) is dict`` (so
    an object with a repeated key misses), one test that its keys are its
    shape table's and a type test per optional slot, then calls the
    constructors directly, nested records included. It makes no walker
    call and builds no path. Only an item that misses, lacks a required
    key, or that a constructor rejects, is walked again, nested arrays
    included, by ``_walk_record``, which files each problem under its path.

    Besides shape, the walk checks only the JSON type of the optional
    string and integer slots (``concept``, ``severity_class``,
    ``method_text``, the ranks): the file has no ``null`` there, which a
    constructor takes for an absent slot, and rank ranges and severity
    classes are validation findings, not constructor rules.
    """

    def __init__(self) -> None:
        self.problems: list[tuple[Path, str | None, str, str]] = []
        # (object path, key, nth repeat) for each repeated key of each object met.
        self.repeats: list[tuple[Path, str, int]] = []

    def fail(self, path: Path, code: str, detail: str, key: str | None = None) -> None:
        self.problems.append((path, key, code, f"{render_path(path)}: {detail}" if path else detail))

    def obj(self, value: object, path: Path, required: tuple[str, ...], allowed: frozenset[str]) -> dict | None:
        """``value`` if it is an object with every ``required`` key, else None; each problem filed."""
        if not isinstance(value, dict):
            self.fail(path, "Type", "expected an object")
            return None
        if type(value) is _Repeats:
            nth = dict.fromkeys(value.repeated, 0)
            for key in value.repeated:
                nth[key] += 1
                self.repeats.append((path, key, nth[key]))
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

    def build(self, cls, path: Path, *values, **keywords):
        """``cls(*values, **keywords)``, or None after filing each problem the constructor reports.

        A lone surrogate is left out: only the reader lets one through, and
        it has reported it already at its character.
        """
        try:
            return cls(*values, **keywords)
        except _FieldError as exc:
            for field, code, detail in exc.problems:
                if not detail.startswith(_SURROGATE):
                    self.fail(path if field is None else path + (field,), code, detail)
            return None


def _walk_list(w: _Walker, values: object, path: Path, walk_item, sound=None) -> tuple:
    """Each item of the array ``values``, built by ``sound`` if sound, else by ``walk_item``.

    Each decoded item is dropped from the array once taken, so that it is
    freed as soon as its record is built; a failed parse locates its
    problems from the text, not from these values.
    """
    values = w.array(values, path)
    if values is None:
        return ()
    items = []
    for index, value in enumerate(values):
        values[index] = None
        if sound is not None:
            try:
                items.append(sound(value))
                continue
            except (_Miss, KeyError, TypeError, _FieldError):
                pass
        item = walk_item(w, value, path + (index,))
        if item is not None:
            items.append(item)
    return tuple(items)


def _walk_pair(w: _Walker, value: object, path: Path, cls, what: str):
    """``cls`` built from a two-item array; ``what`` says what the pair is."""
    pair = w.array(value, path)
    if pair is None:
        return None
    if len(pair) != 2:
        w.fail(path, "InvalidValue", what)
        return None
    return w.build(cls, path, *pair)


def _walk_scalar(w: _Walker, value: object, path: Path, kind: type, what: str):
    """``value`` if it is a ``kind`` (a bool is no integer), else None after filing a Type problem."""
    if isinstance(value, bool) or not isinstance(value, kind):
        w.fail(path, "Type", f"expected {what}")
        return None
    return value


def _walk_record(w: _Walker, value: object, path: Path, shape: _Shape):
    """The record ``shape`` describes, built from ``value``; None after filing each problem."""
    fields = w.obj(value, path, tuple(key for key, read in shape.keys if read is _GIVEN), shape.allowed)
    if fields is None:
        return None
    arguments = {}
    for key, read in shape.keys:
        if read is _GIVEN:
            arguments[key] = fields[key]
        elif key in fields:
            arguments[key] = read(w, fields[key], path + (key,))
    return w.build(shape.cls, path, **arguments)


# A shape table lists a record's keys in file order, each with how the
# reporting walk reads its value: ``read(w, value, path)``. A required key
# (a bare name in ``_shape``) is ``_GIVEN`` to the constructor as it is,
# which holds its rules. An optional key's read is ``_string`` or
# ``_integer``, which check its JSON type, a shape for a nested record,
# ``_records`` for an array of records, or a ``_walk_pair``. Values go to
# the constructor by keyword, named as the file names its keys.


class _Shape(namedtuple("_Shape", ("cls", "keys", "allowed"))):
    """One record's file shape: its constructor, each ``(key, read)`` in file order, and its keys."""

    __slots__ = ()

    def __call__(self, w: _Walker, value: object, path: Path):
        return _walk_record(w, value, path, self)


def _shape(cls: type, *keys: str | tuple[str, object]) -> _Shape:
    keys = tuple((key, _GIVEN) if type(key) is str else key for key in keys)
    return _Shape(cls, keys, frozenset(key for key, _ in keys))


def _records(shape: _Shape):
    return partial(_walk_list, walk_item=shape)


_GIVEN = None
_string = partial(_walk_scalar, kind=str, what="a string")
_integer = partial(_walk_scalar, kind=int, what="an integer")

_META = _shape(Meta, "product", "version")
_REQUIREMENT = _shape(Requirement, "id", "text")
_FLOW = _shape(Flow, "description", "kind")
_FUNCTION = _shape(Function, "id", "verb", "noun", ("inputs", _records(_FLOW)), ("outputs", _records(_FLOW)))
_COMPONENT = _shape(Component, "id", "name", ("concept", _string))
_EFFECT = _shape(Effect, "text", ("severity_class", _string), ("severity_rank", _integer))
_FREQUENCY = partial(_walk_pair, cls=Frequency, what="a frequency is a [failures, opportunities] pair")
_CAUSE = _shape(Cause, "text", ("occurrence_rank", _integer), ("frequency", _FREQUENCY))
_CONTROL = _shape(ControlPlan, "method_class", ("method_text", _string), ("detection_rank", _integer))
_FAILURE_MODE = _shape(
    FailureMode,
    "id",
    "element",
    "category",
    "description",
    ("effects", _records(_EFFECT)),
    ("causes", _records(_CAUSE)),
    ("control", _CONTROL),
)
_EDGE = partial(_walk_pair, cls=MappingEdge, what="an edge is a [source_id, target_id] pair")


def _walk_model(w: _Walker, data: object) -> DesignModel | None:
    top = w.obj(data, (), _TOP, frozenset(_TOP))
    if top is None:
        return None

    meta = _walk_record(w, top["meta"], ("meta",), _META)
    requirements = _walk_list(w, top["requirements"], ("requirements",), _REQUIREMENT, _sound_requirement)
    functions = _walk_list(w, top["functions"], ("functions",), _FUNCTION, _sound_function)
    components = _walk_list(w, top["components"], ("components",), _COMPONENT, _sound_component)
    # Each element's own id object, for the references walked after the elements.
    ids = {element.id: element.id for elements in (requirements, functions, components) for element in elements}
    rf = _walk_list(w, top["rf"], ("rf",), _EDGE, partial(_sound_edge, ids))
    fc = _walk_list(w, top["fc"], ("fc",), _EDGE, partial(_sound_edge, ids))
    sound_failure_mode = partial(_sound_failure_mode, ids)
    failure_modes = _walk_list(w, top["failure_modes"], ("failure_modes",), _FAILURE_MODE, sound_failure_mode)

    if w.problems or meta is None:
        return None
    return DesignModel(meta, requirements, functions, components, rf, fc, failure_modes)


# The inline happy path. Each ``_sound_*`` builds one value through its
# constructor when the value has its slot's sound shape, and raises _Miss
# when it has not; a required key that is missing raises KeyError where it
# is read. A type test reads an absent optional slot as its default:
# ``type(value.get(key, "")) is str`` holds when the key is absent or a
# string, and ``type(...) is int`` also rules out bools.
#
# A reference (an edge endpoint, a failure mode's element) is given the
# object of the element id it names, from a table that one walk builds, and
# a closed-vocabulary value the module's constant, so that a model holds one
# string per distinct id or token, not one per occurrence: ``table.get(value,
# value)``, which raises TypeError for a decoded array or object, so that the
# reporting walk reads that item again. The constructor still checks every
# value.

#: Each closed-vocabulary token, mapped to the constant the rules hold.
_VOCABULARY = {
    name: name
    for names in (ALL_CATEGORY_NAMES, ALL_SEVERITY_CLASS_NAMES, CONTROL_METHOD_CLASSES, FLOW_KINDS)
    for name in names
}


class _Miss(Exception):
    """A value not of its slot's sound shape: the reporting walk reads it again."""


def _sound_all(sound, values: object) -> tuple:
    if type(values) is not list:
        raise _Miss
    return tuple(map(sound, values))


def _sound_pair(cls, pair: object):
    if type(pair) is not list or len(pair) != 2:
        raise _Miss
    return cls(pair[0], pair[1])


def _sound_edge(ids: dict[str, str], pair: object) -> MappingEdge:
    if type(pair) is not list or len(pair) != 2:
        raise _Miss
    source, target = pair
    return MappingEdge(ids.get(source, source), ids.get(target, target))


def _sound_requirement(value: object) -> Requirement:
    if type(value) is not dict or not _REQUIREMENT.allowed.issuperset(value):
        raise _Miss
    return Requirement(value["id"], value["text"])


def _sound_flow(value: object) -> Flow:
    if type(value) is not dict or not _FLOW.allowed.issuperset(value):
        raise _Miss
    kind = value["kind"]
    return Flow(value["description"], _VOCABULARY.get(kind, kind))


def _sound_function(value: object) -> Function:
    if type(value) is not dict or not _FUNCTION.allowed.issuperset(value):
        raise _Miss
    inputs = _sound_all(_sound_flow, value["inputs"]) if "inputs" in value else ()
    outputs = _sound_all(_sound_flow, value["outputs"]) if "outputs" in value else ()
    return Function(value["id"], value["verb"], value["noun"], inputs, outputs)


def _sound_component(value: object) -> Component:
    if type(value) is not dict or not _COMPONENT.allowed.issuperset(value):
        raise _Miss
    if type(value.get("concept", "")) is not str:
        raise _Miss
    return Component(value["id"], value["name"], value.get("concept"))


def _sound_effect(value: object) -> Effect:
    if type(value) is not dict or not _EFFECT.allowed.issuperset(value):
        raise _Miss
    if type(value.get("severity_class", "")) is not str or type(value.get("severity_rank", 0)) is not int:
        raise _Miss
    severity_class = value.get("severity_class")
    return Effect(value["text"], _VOCABULARY.get(severity_class, severity_class), value.get("severity_rank"))


def _sound_cause(value: object) -> Cause:
    if type(value) is not dict or not _CAUSE.allowed.issuperset(value):
        raise _Miss
    if type(value.get("occurrence_rank", 0)) is not int:
        raise _Miss
    frequency = _sound_pair(Frequency, value["frequency"]) if "frequency" in value else None
    return Cause(value["text"], value.get("occurrence_rank"), frequency)


def _sound_control(value: object) -> ControlPlan:
    if type(value) is not dict or not _CONTROL.allowed.issuperset(value):
        raise _Miss
    if type(value.get("method_text", "")) is not str or type(value.get("detection_rank", 0)) is not int:
        raise _Miss
    method_class = value["method_class"]
    method_class = _VOCABULARY.get(method_class, method_class)
    return ControlPlan(method_class, value.get("method_text"), value.get("detection_rank"))


def _sound_failure_mode(ids: dict[str, str], value: object) -> FailureMode:
    if type(value) is not dict or not _FAILURE_MODE.allowed.issuperset(value):
        raise _Miss
    effects = _sound_all(_sound_effect, value["effects"]) if "effects" in value else ()
    causes = _sound_all(_sound_cause, value["causes"]) if "causes" in value else ()
    control = _sound_control(value["control"]) if "control" in value else None
    element, category = value["element"], value["category"]
    element, category = ids.get(element, element), _VOCABULARY.get(category, category)
    return FailureMode(value["id"], element, category, value["description"], causes, effects, control)


# ---------------------------------------------------------------------------
# Canonical serialization: one writer per shape, each at its fixed depth. The
# writers append short pieces to one list, so that a document builds no
# container string only to copy it into its parent and drop it. A top-level
# array joins each run of about ``_CHUNK`` pieces into one string as it goes,
# so the list holds a few large strings rather than every small piece until
# the final join.

#: A newline and the indent of each depth the canonical form reaches.
_INDENT = tuple("\n" + "  " * depth for depth in range(7))

#: The pieces a top-level array gathers before joining them into one chunk.
_CHUNK = 64


def _array(out: list[str], items: tuple | list, write, depth: int) -> None:
    """Append an array at ``depth`` whose items ``write(out, item)`` appends one level deeper."""
    separator = "[" + _INDENT[depth + 1]
    start = len(out)
    for item in items:
        out.append(separator)
        write(out, item)
        separator = "," + _INDENT[depth + 1]
        if depth == 1 and len(out) - start >= _CHUNK:
            out[start:] = ["".join(out[start:])]
            start += 1
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
        members.append('"concept": ' + _str(component.concept))
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
        members.append('"method_text": ' + _str(control.method_text))
    if control.detection_rank is not None:
        members.append('"detection_rank": ' + _scalar(control.detection_rank))
    return "{" + _INDENT[4] + ("," + _INDENT[4]).join(members) + _INDENT[3] + "}"
