"""In-memory XES event log model: typed attributes, XML parse/serialize,
and conversion of binary sensor series into day-grouped event logs.

The model follows the XES meta-model: a log holds traces, a trace holds an
ordered sequence of events, and log/trace/event all carry typed attributes.
Keys of the standard extensions are normalized to the conventional prefixed
lowercase forms ("concept:name", "time:timestamp", "lifecycle:transition",
"org:resource", "org:role", "org:group"). The high-level activity of an
event, when known, is stored under the plain string key "label".

``serialize_xes`` writes the document directly as lines of text. Its bytes
are those ElementTree's writer gives for the same tree after
``ET.indent(tree, space="  ")``, plus a trailing newline: the same XML
declaration and attribute order, ``" />"`` for empty elements,
ElementTree's attribute escapes and UTF-8 with character references for
what UTF-8 cannot encode. The ElementTree writer is kept as a test oracle
(``tests/oracles.serialize_xes_reference``), and a property test holds the
two byte-identical.

``parse_xes`` reads the document in one streaming pass of expat: its
start and end handlers keep a stack of the open elements and build each
attribute, event, trace and the log as its element closes, so no element
tree is built. While a ``<trace>`` is open and nothing below it is but an
``<event>`` and one childless attribute of it, expat calls a second pair
of handlers instead, which open and close the trace's events and read
their childless attributes without a stack frame or role dispatch of
their own; a trace attribute and a nested, listed or unplaced child hand
their subtree back to the general pair, so both pairs skip alike and
raise the first fault in document order. A timestamp already in
``format_timestamp``'s form goes straight to ``datetime.fromisoformat``,
whose UTC datetime at whole milliseconds is the date value as it is. A
childless attribute other than a date is read once per distinct (tag,
key, value) within one parse and its frozen ``AttributeValue`` shared,
which pays because logs draw their values from small alphabets. A list's
items, held in its ``<values>`` element, become its children. The plain
ElementTree walk ``tests/oracles.parse_xes_reference`` is the reference it
is tested against.

Every check of the model runs once, where a value enters it: in the
public constructors of ``AttributeValue``, ``Event``, ``Trace`` and
``EventLog``, and in ``parse_xes``, which runs the same checks with the
same texts as each attribute, event and trace closes, and builds the
event and trace without running them again. ``abstraction.annotate``,
``strip_labels`` and ``collapse`` only recombine checked parts, and build
their events and traces the same way (``_event``, ``_trace``): annotate
adds a string label to each event and keeps each trace's events in order;
strip_labels removes a key; collapse gives each event string name and
lifecycle values and a stamp of its trace, first and last of each run in
order. The model is treated as immutable once built, so an ``Event`` or
``Trace`` changed in place afterwards is not checked again.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import IO
from xml.parsers import expat

from .errors import EventabsError, read_text

__all__ = [
    "CONCEPT_NAME",
    "TIME_TIMESTAMP",
    "LIFECYCLE_TRANSITION",
    "ORG_RESOURCE",
    "ORG_ROLE",
    "ORG_GROUP",
    "LABEL",
    "AttributeValue",
    "SharedStrings",
    "Event",
    "Trace",
    "EventLog",
    "XesError",
    "XesParseError",
    "XesValueError",
    "SensorSeriesError",
    "parse_xes",
    "serialize_xes",
    "parse_timestamp",
    "format_timestamp",
    "sensor_series_to_log",
    "read_sensor_csv",
]

CONCEPT_NAME = "concept:name"
TIME_TIMESTAMP = "time:timestamp"
LIFECYCLE_TRANSITION = "lifecycle:transition"
ORG_RESOURCE = "org:resource"
ORG_ROLE = "org:role"
ORG_GROUP = "org:group"
LABEL = "label"

# Canonical spellings for standard-extension keys; anything else is verbatim.
_CANONICAL_KEYS = {
    "concept:name": CONCEPT_NAME,
    "concept:instance": "concept:instance",
    "time:timestamp": TIME_TIMESTAMP,
    "lifecycle:transition": LIFECYCLE_TRANSITION,
    "lifecycle:model": "lifecycle:model",
    "org:resource": ORG_RESOURCE,
    "org:role": ORG_ROLE,
    "org:group": ORG_GROUP,
    "organizational:resource": ORG_RESOURCE,
    "organizational:role": ORG_ROLE,
    "organizational:group": ORG_GROUP,
    "semantic:modelreference": "semantic:modelReference",
}

# name -> (prefix, uri) for the extension declarations we emit.
_STANDARD_EXTENSIONS = {
    "Concept": ("concept", "http://www.xes-standard.org/concept.xesext"),
    "Time": ("time", "http://www.xes-standard.org/time.xesext"),
    "Lifecycle": ("lifecycle", "http://www.xes-standard.org/lifecycle.xesext"),
    "Organizational": ("org", "http://www.xes-standard.org/org.xesext"),
    "Semantic": ("semantic", "http://www.xes-standard.org/semantic.xesext"),
}


class XesError(EventabsError):
    """Base class for event log model errors."""


class XesParseError(XesError):
    """Malformed XES XML input."""


class XesValueError(XesError):
    """An attribute value violates its declared or required type."""


class SensorSeriesError(XesError):
    """A sensor change-point series violates the alternation contract."""


def canonical_key(key: str) -> str:
    """Normalize standard-extension attribute keys; leave other keys alone."""
    return _CANONICAL_KEYS.get(key.lower(), key)


_FRACTION_RE = re.compile(r"\.(\d+)")


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into a UTC datetime at millisecond precision.

    Accepts a trailing ``Z``, any offset, and any number of fractional
    digits; naive timestamps are taken as UTC.
    """
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    s = _FRACTION_RE.sub(lambda m: "." + m.group(1)[:6].ljust(6, "0"), s, count=1)
    try:
        dt = datetime.fromisoformat(s)
    except ValueError as exc:
        raise XesValueError(f"unparseable timestamp {text!r}") from exc
    return _to_utc_ms(dt)


def format_timestamp(dt: datetime) -> str:
    return _to_utc_ms(dt).isoformat(timespec="milliseconds")


_UTC = timezone.utc


def _to_utc_ms(dt: datetime) -> datetime:
    if dt.tzinfo is _UTC and not dt.microsecond % 1000:
        return dt
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=(dt.microsecond // 1000) * 1000)


# The Python type of each attribute kind's value.
_KIND_TYPES = {"string": str, "date": datetime, "int": int, "float": float, "boolean": bool}


@dataclass(frozen=True)
class AttributeValue:
    """A typed XES attribute value.

    Exactly one of five kinds: "string", "date", "int", "float", "boolean".
    Dates are UTC datetimes at millisecond precision. Nested child
    attributes are preserved verbatim but never interpreted.
    """

    kind: str
    value: str | datetime | int | float | bool
    children: tuple[tuple[str, "AttributeValue"], ...] = ()

    def __post_init__(self) -> None:
        v = self.value
        # a UTC datetime at whole milliseconds is a date in normal form already
        if (
            type(v) is datetime and v.tzinfo is _UTC and not v.microsecond % 1000
            and self.kind == "date"
        ):
            return
        expected = _KIND_TYPES.get(self.kind)
        if expected is None:
            raise XesValueError(f"unknown attribute kind {self.kind!r}")
        # a bool is an int to isinstance, but only the boolean kind holds one
        if not isinstance(v, expected) or (isinstance(v, bool) and expected is not bool):
            raise XesValueError(f"value {v!r} does not match kind {self.kind!r}")
        if self.kind == "date":
            object.__setattr__(self, "value", _to_utc_ms(v))  # type: ignore[arg-type]

    @staticmethod
    def string(v: str) -> "AttributeValue":
        return AttributeValue("string", v)

    @staticmethod
    def date(v: datetime) -> "AttributeValue":
        return AttributeValue("date", v)

    @staticmethod
    def integer(v: int) -> "AttributeValue":
        return AttributeValue("int", int(v))

    @staticmethod
    def real(v: float) -> "AttributeValue":
        return AttributeValue("float", float(v))

    @staticmethod
    def boolean(v: bool) -> "AttributeValue":
        return AttributeValue("boolean", bool(v))


class SharedStrings(dict):
    """One string :class:`AttributeValue` per distinct text; the value is
    frozen, so every event may hold the same one."""

    def __missing__(self, text: str) -> AttributeValue:
        value = self[text] = AttributeValue.string(text)
        return value


_TYPED_EVENT_KEYS = {
    CONCEPT_NAME: "string",
    TIME_TIMESTAMP: "date",
    LIFECYCLE_TRANSITION: "string",
    ORG_RESOURCE: "string",
    ORG_ROLE: "string",
    ORG_GROUP: "string",
    LABEL: "string",
}


def _check_event(attributes: dict[str, AttributeValue]) -> None:
    """Event's check: each standard key holds a value of its kind."""
    for key, av in attributes.items():
        kind = _TYPED_EVENT_KEYS.get(key)
        if kind is not None and av.kind != kind:
            raise XesValueError(f"attribute {key!r} must be of kind {kind!r}, got {av.kind!r}")


def _check_trace(attributes: dict[str, AttributeValue], events: list["Event"]) -> None:
    """Trace's check: a case identifier, and timestamps that do not
    decrease over the events that carry one."""
    if CONCEPT_NAME not in attributes:
        raise XesValueError("trace is missing the concept:name case identifier")
    last: datetime | None = None
    for i, event in enumerate(events):
        stamp = event.attributes.get(TIME_TIMESTAMP)
        if stamp is None:
            continue
        if last is not None and stamp.value < last:
            raise XesValueError(
                f"trace {attributes[CONCEPT_NAME].value!r}: event {i} timestamp decreases"
            )
        last = stamp.value  # type: ignore[assignment]


@dataclass
class Event:
    """A single event: a map from attribute key to typed value.

    Treated as immutable once inside a log.
    """

    attributes: dict[str, AttributeValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_event(self.attributes)

    def _text(self, key: str) -> str | None:
        av = self.attributes.get(key)
        return av.value if av is not None and av.kind == "string" else None  # type: ignore[return-value]

    @property
    def name(self) -> str | None:
        return self._text(CONCEPT_NAME)

    @property
    def timestamp(self) -> datetime | None:
        av = self.attributes.get(TIME_TIMESTAMP)
        return av.value if av is not None else None  # type: ignore[return-value]

    @property
    def lifecycle(self) -> str | None:
        return self._text(LIFECYCLE_TRANSITION)

    @property
    def label(self) -> str | None:
        return self._text(LABEL)

    def org(self, which: str) -> str | None:
        return self._text(f"org:{which}")


@dataclass
class Trace:
    """One case: trace attributes plus an ordered event sequence.

    ``concept:name`` is required as the case identifier, and events that
    carry timestamps must appear in non-decreasing timestamp order.
    """

    attributes: dict[str, AttributeValue] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_trace(self.attributes, self.events)

    @property
    def case_id(self) -> str:
        return self.attributes[CONCEPT_NAME].value  # type: ignore[return-value]


@dataclass
class EventLog:
    """An XES event log: attributes, declared extensions, global attribute
    declarations, classifiers, and traces.

    Immutable after construction by convention; safe to share read-only.
    """

    attributes: dict[str, AttributeValue] = field(default_factory=dict)
    extensions: set[str] = field(default_factory=set)
    classifiers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    global_trace_attributes: dict[str, AttributeValue] = field(default_factory=dict)
    global_event_attributes: dict[str, AttributeValue] = field(default_factory=dict)
    traces: list[Trace] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, keys in self.classifiers.items():
            for key in keys:
                if key not in self.global_event_attributes:
                    raise XesValueError(
                        f"classifier {name!r} references key {key!r} "
                        "not declared global for events"
                    )

    def event_count(self) -> int:
        return sum(len(t.events) for t in self.traces)


# --- Unchecked construction -------------------------------------------------
#
# The checks of the model run once, where a value enters it: in the public
# constructors, and in parse_xes for a document. parse_xes, once it has run
# them, and code that only recombines parts that passed them build events
# and traces here; each call site states why what it hands over passes the
# check skipped.

_new, _set = object.__new__, object.__setattr__


def _event(attributes: dict[str, AttributeValue]) -> Event:
    """The event of ``attributes``, which must pass :func:`_check_event`."""
    event = _new(Event)
    event.attributes = attributes
    return event


def _trace(attributes: dict[str, AttributeValue], events: list[Event]) -> Trace:
    """The trace of ``attributes`` and ``events``, which must pass
    :func:`_check_trace`."""
    trace = _new(Trace)
    trace.attributes = attributes
    trace.events = events
    return trace


# --- XML parsing ------------------------------------------------------------

_ATTR_TAGS = {"string", "date", "int", "float", "boolean", "id", "list", "container"}

# The form format_timestamp writes; datetime.fromisoformat reads it exactly
# as parse_timestamp would.
_CANONICAL_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}\+00:00"
)


def _canonical_date(raw: str) -> AttributeValue | None:
    """``raw`` read as a date if it is in ``format_timestamp``'s form, else
    None. None also for a field out of range, whose error ``parse_timestamp``
    words. ``datetime.fromisoformat`` reads that form as a UTC datetime at
    whole milliseconds, the normal form ``AttributeValue`` keeps as it is,
    so the value is built without that check."""
    if _CANONICAL_TIMESTAMP.fullmatch(raw):
        try:
            stamp = datetime.fromisoformat(raw)
        except ValueError:
            return None
        # set as the dataclass's __init__ sets them: written through
        # __dict__, each value would hold a dict of its own
        value = _new(AttributeValue)
        _set(value, "kind", "date")
        _set(value, "value", stamp)
        _set(value, "children", ())
        return value
    return None


def _read_attribute(
    tag: str, raw_key: str, raw: str, children: tuple[tuple[str, AttributeValue], ...]
) -> tuple[str, AttributeValue]:
    key = canonical_key(raw_key)
    try:
        if tag == "string" or tag == "id":
            value = AttributeValue("string", raw, children)
        elif tag == "date":
            value = AttributeValue("date", parse_timestamp(raw), children)
        elif tag == "int":
            value = AttributeValue("int", int(raw), children)
        elif tag == "float":
            value = AttributeValue("float", float(raw), children)
        elif tag == "boolean":
            value = AttributeValue("boolean", raw.strip().lower() == "true", children)
        else:
            # list/container: no own value; children are kept verbatim.
            value = AttributeValue("string", "", children)
    except (ValueError, XesValueError) as exc:
        raise XesValueError(f"attribute {key!r}: {exc}") from exc
    return key, value


def _split_classifier_keys(spec: str) -> tuple[str, ...]:
    # Keys are whitespace-separated; see _join_classifier_keys for quoting.
    return tuple(
        canonical_key(m[1] if m[2] is None else m[2])
        for m in re.finditer(r"'([^']*)'|(\S+)", spec)
    )


def _join_classifier_keys(name: str, keys: tuple[str, ...]) -> str:
    """A classifier's keys, whitespace-separated. A key that is empty, holds
    whitespace or starts with a quote is single-quoted, so it cannot hold a
    quote: such a key raises :class:`XesValueError`."""
    parts = []
    for key in keys:
        if key and key[0] != "'" and not re.search(r"\s", key):
            parts.append(key)
        elif "'" in key:
            raise XesValueError(f"classifier {name!r}: key {key!r} cannot be written")
        else:
            parts.append(f"'{key}'")
    return " ".join(parts)


# Roles of the open elements of a parse. An element the XES grammar does
# not place where it stands is skipped with its whole subtree.
_SKIP, _LOG, _GLOBAL, _TRACE, _EVENT, _ATTRIBUTE, _VALUES = range(7)
_SKIPPED = (_SKIP, None, None)
# Attribute tags the trace-level handlers read themselves when they stand
# in an event and have no children: those with a value of their own.
_LEAF_TAGS = _ATTR_TAGS - {"list", "container"}
# Roles of the elements whose children the trace-level handlers read.
_TRACE_LEVEL = (_TRACE, _EVENT)


def parse_xes(source: bytes | str | Path | IO[bytes]) -> EventLog:
    """Parse an XES document into an :class:`EventLog`.

    ``source`` may be raw bytes, a filesystem path, or a binary file
    object. Unknown attribute keys are retained verbatim; standard
    extension keys are normalized to their canonical lowercase form.
    The document is read in one pass, so of several faults the first in
    document order is raised: a bad value before malformed XML raises
    :class:`XesValueError`, and a root other than ``<log>`` is refused
    before anything after its start tag is read. The message of an error
    in a file read from a path starts with that path.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            try:
                return parse_xes(stream)
            except XesError as exc:
                raise type(exc)(f"{source}: {exc}") from exc
    # (tag, raw key, raw value) -> (key, value) of a childless non-date attribute
    shared: dict[tuple[str, str, str], tuple[str, AttributeValue]] = {}
    # raw key -> key of a childless date attribute of an event
    date_keys: dict[str, str] = {}
    extensions: set[str] = set()
    classifiers: dict[str, tuple[str, ...]] = {}
    scopes: dict[str, dict[str, AttributeValue]] = {"trace": {}, "event": {}}
    traces: list[Trace] = []
    logs: list[EventLog] = []
    # One (role, pairs, extra) per open element: pairs gathers the (key, value)
    # of its attribute children in document order, into the list's own for a
    # <values>; extra is an attribute's (tag, raw key, raw value), the events
    # of a trace or of an event's trace, or a global's target.
    stack: list[tuple] = []
    # While a <trace> is open and nothing below it is but an <event> and one
    # childless attribute of it, the trace-level handlers run: the open
    # event's pairs or None, and the (tag, raw key, raw value) of its open
    # attribute child or None.
    event_pairs: list[tuple[str, AttributeValue]] | None = None
    leaf: tuple[str, str, str] | None = None

    def start(name: str, attrib: dict[str, str]) -> None:
        tag = name.rpartition("}")[2]
        if not stack:
            if tag != "log":
                raise XesParseError(f"expected <log> root element, got <{tag}>")
            stack.append((_LOG, [], None))
            return
        role, pairs, extra = stack[-1]
        if role == _SKIP:
            frame = _SKIPPED
        elif tag in _ATTR_TAGS:
            frame = (_ATTRIBUTE, [], (tag, attrib.get("key", ""), attrib.get("value", "")))
        elif role == _LOG and tag == "trace":
            stack.append((_TRACE, [], []))
            parser.StartElementHandler, parser.EndElementHandler = trace_start, trace_end
            return
        elif role == _LOG and tag == "global":
            frame = (_GLOBAL, [], scopes["trace" if attrib.get("scope") == "trace" else "event"])
        elif role == _ATTRIBUTE and tag == "values" and extra[0] == "list":
            frame = (_VALUES, pairs, None)
        else:
            if role == _LOG and tag == "extension":
                extensions.add(attrib.get("name", ""))
            elif role == _LOG and tag == "classifier":
                keys = _split_classifier_keys(attrib.get("keys", ""))
                classifiers[attrib.get("name", "")] = keys
            frame = _SKIPPED
        stack.append(frame)

    def end(name: str) -> None:
        role, pairs, extra = stack.pop()
        if role == _ATTRIBUTE:
            if pairs or extra[0] == "date":
                pair = _read_attribute(*extra, tuple(pairs))
            else:
                pair = shared.get(extra)
                if pair is None:
                    pair = shared[extra] = _read_attribute(*extra, ())
            parent = stack[-1]
            parent[1].append(pair)
            if parent[0] in _TRACE_LEVEL:
                parser.StartElementHandler, parser.EndElementHandler = trace_start, trace_end
        elif role == _SKIP:
            if stack[-1][0] in _TRACE_LEVEL:
                parser.StartElementHandler, parser.EndElementHandler = trace_start, trace_end
        elif role == _TRACE:
            attributes = dict(pairs)
            _check_trace(attributes, extra)
            traces.append(_trace(attributes, extra))
        elif role == _GLOBAL:
            extra.update(pairs)
        elif role == _LOG:
            logs.append(EventLog(
                dict(pairs), extensions, classifiers, scopes["trace"], scopes["event"], traces
            ))

    def trace_start(name: str, attrib: dict[str, str]) -> None:
        nonlocal event_pairs, leaf
        tag = name.rpartition("}")[2]
        if leaf is None:
            if event_pairs is None:
                if tag == "event":
                    event_pairs = []
                    stack.append((_EVENT, event_pairs, stack[-1][2]))
                    return
            elif tag in _LEAF_TAGS:
                leaf = (tag, attrib.get("key", ""), attrib.get("value", ""))
                return
        else:
            stack.append((_ATTRIBUTE, [], leaf))
            leaf = None
        # a trace attribute, a child of the open attribute, a list, a
        # container or an element the grammar does not place here: its
        # subtree is read by start/end
        parser.StartElementHandler, parser.EndElementHandler = start, end
        start(name, attrib)

    def trace_end(name: str) -> None:
        nonlocal event_pairs, leaf
        if leaf is not None:
            attribute, leaf = leaf, None
            if attribute[0] != "date":
                pair = shared.get(attribute)
                if pair is None:
                    pair = shared[attribute] = _read_attribute(*attribute, ())
            else:
                value = _canonical_date(attribute[2])
                if value is None:
                    pair = _read_attribute(*attribute, ())
                else:
                    key = date_keys.get(attribute[1])
                    if key is None:
                        key = date_keys[attribute[1]] = canonical_key(attribute[1])
                    pair = (key, value)
            event_pairs.append(pair)  # type: ignore[union-attr]
        elif event_pairs is not None:  # the </event>
            attributes = dict(event_pairs)
            _check_event(attributes)
            stack.pop()[2].append(_event(attributes))
            event_pairs = None
        else:  # the </trace>
            parser.StartElementHandler, parser.EndElementHandler = start, end
            end(name)

    declared: list[str | None] = []
    parser = expat.ParserCreate(namespace_separator="}")
    parser.XmlDeclHandler = lambda version, encoding, standalone: declared.append(encoding)
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.ParseFile(io.BytesIO(source) if isinstance(source, bytes) else source)
    except expat.ExpatError as exc:
        raise XesParseError(
            f"malformed XML at line {exc.lineno}, column {exc.offset}: {exc}"
        ) from exc
    except (LookupError, ValueError) as exc:
        # expat looks up a declared encoding it does not know itself after
        # the declaration and before the root element; raised anywhere
        # else, the error is a fault of this module, not of the document
        if stack or logs or not declared:
            raise
        raise XesParseError(f"cannot read the declared encoding {declared[0]!r}: {exc}") from exc
    return logs[0]


# --- XML serialization ------------------------------------------------------

_XML_DECLARATION = "<?xml version='1.0' encoding='utf-8'?>"

# ElementTree's attribute-value escapes (xml.etree.ElementTree._escape_attrib)
_ATTRIBUTE_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})


def _escape(text: str) -> str:
    return text.translate(_ATTRIBUTE_ESCAPES)


def _raw_value(av: AttributeValue) -> str:
    """The text of the ``value`` XML attribute, escaped. Only strings can
    hold a character that needs escaping."""
    if av.kind == "string":
        return _escape(av.value)  # type: ignore[arg-type]
    if av.kind == "date":
        return format_timestamp(av.value)  # type: ignore[arg-type]
    if av.kind == "boolean":
        return "true" if av.value else "false"
    return repr(av.value) if av.kind == "float" else str(av.value)


def _attribute_lines(
    lines: list[str], pad: str, key: str, av: AttributeValue, rendered: dict
) -> None:
    """Append the lines of one attribute element at indent ``pad``.
    ``rendered`` caches, within one call, the line of a childless
    attribute by its value, and the head of a date line by its key. Floats
    are not cached, because 0.0 == -0.0 but their reprs differ."""
    kind = av.kind
    if av.children:
        lines.append(f'{pad}<{kind} key="{_escape(key)}" value="{_raw_value(av)}">')
        for child_key, child_value in av.children:
            _attribute_lines(lines, pad + "  ", child_key, child_value, rendered)
        lines.append(f"{pad}</{kind}>")
    elif kind == "date":
        head = rendered.get((pad, key))
        if head is None:
            head = rendered[(pad, key)] = f'{pad}<date key="{_escape(key)}" value="'
        lines.append(f"{head}{format_timestamp(av.value)}\" />")  # type: ignore[arg-type]
    elif kind == "float":
        lines.append(f'{pad}<float key="{_escape(key)}" value="{av.value!r}" />')
    else:
        memo = (pad, key, kind, av.value)
        line = rendered.get(memo)
        if line is None:
            line = rendered[memo] = (
                f'{pad}<{kind} key="{_escape(key)}" value="{_raw_value(av)}" />'
            )
        lines.append(line)


def serialize_xes(log: EventLog) -> bytes:
    """Serialize an :class:`EventLog` to XES XML bytes.

    Output is deterministic for a fixed log and reparses to an equal log.
    The bytes are those ElementTree writes for the same element tree after
    ``ET.indent(tree, space="  ")``, plus a trailing newline.
    """
    rendered: dict = {}
    body: list[str] = []
    for name in sorted(log.extensions):
        prefix, uri = _STANDARD_EXTENSIONS.get(
            name, (name.lower(), f"http://www.xes-standard.org/{name.lower()}.xesext")
        )
        body.append(
            f'  <extension name="{_escape(name)}" prefix="{_escape(prefix)}" '
            f'uri="{_escape(uri)}" />'
        )
    for scope, attrs in (
        ("trace", log.global_trace_attributes),
        ("event", log.global_event_attributes),
    ):
        if attrs:
            body.append(f'  <global scope="{scope}">')
            for key, av in attrs.items():
                _attribute_lines(body, "    ", key, av, rendered)
            body.append("  </global>")
    for name, keys in log.classifiers.items():
        joined = _join_classifier_keys(name, keys)
        body.append(f'  <classifier name="{_escape(name)}" keys="{_escape(joined)}" />')
    for key, av in log.attributes.items():
        _attribute_lines(body, "  ", key, av, rendered)
    for trace in log.traces:
        if not trace.attributes and not trace.events:
            body.append("  <trace />")
            continue
        body.append("  <trace>")
        for key, av in trace.attributes.items():
            _attribute_lines(body, "    ", key, av, rendered)
        for event in trace.events:
            if not event.attributes:
                body.append("    <event />")
                continue
            body.append("    <event>")
            for key, av in event.attributes.items():
                _attribute_lines(body, "      ", key, av, rendered)
            body.append("    </event>")
        body.append("  </trace>")
    root = '<log xes.version="1.0" xes.features=""'
    if body:
        lines = [_XML_DECLARATION, root + ">", *body, "</log>", ""]
    else:
        lines = [_XML_DECLARATION, root + " />", ""]
    return "\n".join(lines).encode("utf-8", "xmlcharrefreplace")


# --- Sensor change-point conversion ----------------------------------------

MIDNIGHT = time(0, 0, 0)


def sensor_series_to_log(
    series: dict[str, list[tuple[datetime, int]]],
    day_boundary: time = MIDNIGHT,
    diagnostics: list[str] | None = None,
) -> EventLog:
    """Convert per-sensor binary change-point series into an event log.

    Each change point becomes one event: ``concept:name`` is the sensor
    name, lifecycle is "start" for a 0-to-1 change and "complete" for a
    1-to-0 change. Events are grouped into one trace per calendar day,
    where a day runs from ``day_boundary`` to the next ``day_boundary``.
    A sensor left on at the end of a day produces no synthetic complete;
    the trace is flagged in ``diagnostics`` instead. Raises
    :class:`SensorSeriesError` for a value other than 0 or 1, and for a
    series that does not alternate or whose timestamps decrease.
    """
    boundary = timedelta(
        hours=day_boundary.hour,
        minutes=day_boundary.minute,
        seconds=day_boundary.second,
    )
    stamped: list[tuple[datetime, str, int]] = []
    for sensor in sorted(series):
        points = series[sensor]
        for i, (ts, value) in enumerate(points):
            if value not in (0, 1):
                raise SensorSeriesError(
                    f"sensor {sensor!r}: value at index {i} is {value!r}, expected 0 or 1"
                )
            if i > 0 and points[i - 1][1] == value:
                raise SensorSeriesError(
                    f"sensor {sensor!r}: series does not alternate at index {i}"
                )
            stamp = _to_utc_ms(ts)
            if i > 0 and stamp < stamped[-1][0]:
                raise SensorSeriesError(
                    f"sensor {sensor!r}: timestamp at index {i} is before the one at index {i - 1}"
                )
            stamped.append((stamp, sensor, value))

    by_day: dict[date, list[tuple[datetime, str, int]]] = {}
    for ts, sensor, value in sorted(stamped, key=lambda rec: (rec[0], rec[1])):
        by_day.setdefault((ts - boundary).date(), []).append((ts, sensor, value))

    traces = []
    for day in sorted(by_day):
        events = []
        open_sensors: dict[str, int] = {}
        for ts, sensor, value in by_day[day]:
            transition = "start" if value == 1 else "complete"
            events.append(Event({
                CONCEPT_NAME: AttributeValue.string(sensor),
                TIME_TIMESTAMP: AttributeValue.date(ts),
                LIFECYCLE_TRANSITION: AttributeValue.string(transition),
            }))
            open_sensors[sensor] = value
        traces.append(Trace(
            {CONCEPT_NAME: AttributeValue.string(day.isoformat())}, events
        ))
        if diagnostics is not None:
            for sensor, value in sorted(open_sensors.items()):
                if value == 1:
                    diagnostics.append(
                        f"trace {day.isoformat()}: sensor {sensor!r} has a "
                        "dangling start at day end (no synthetic complete emitted)"
                    )

    return EventLog(
        attributes={CONCEPT_NAME: AttributeValue.string("sensor change points")},
        extensions={"Concept", "Time", "Lifecycle"},
        classifiers={"Activity": (CONCEPT_NAME,)},
        global_trace_attributes={CONCEPT_NAME: AttributeValue.string("")},
        global_event_attributes={
            CONCEPT_NAME: AttributeValue.string(""),
            TIME_TIMESTAMP: AttributeValue.date(
                datetime(1970, 1, 1, tzinfo=timezone.utc)
            ),
            LIFECYCLE_TRANSITION: AttributeValue.string(""),
        },
        traces=traces,
    )


def read_sensor_csv(source: str | Path | IO[str]) -> dict[str, list[tuple[datetime, int]]]:
    """Read a sensor series CSV with columns sensor,timestamp,value.

    Rows may arrive in any order; each sensor's series is sorted by
    timestamp before alternation is checked downstream. A file that is not
    UTF-8 or not CSV, and a row that lacks a column or holds a bad
    timestamp or value, raise :class:`SensorSeriesError`.
    """
    if isinstance(source, (str, Path)):
        source = io.StringIO(read_text(source, SensorSeriesError), newline="")
    series: dict[str, list[tuple[datetime, int]]] = {}
    # a short row's missing columns read as empty, which no value parses from
    reader = csv.DictReader(source, restval="")
    required = {"sensor", "timestamp", "value"}
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SensorSeriesError(
                "CSV header must declare columns sensor,timestamp,value"
            )
        for row_number, row in enumerate(reader, start=2):
            try:
                ts = parse_timestamp(row["timestamp"])
                value = int(row["value"])
            except (XesValueError, ValueError) as exc:
                raise SensorSeriesError(f"CSV row {row_number}: {exc}") from exc
            series.setdefault(row["sensor"], []).append((ts, value))
    except csv.Error as exc:
        raise SensorSeriesError(f"unreadable CSV: {exc}") from exc
    for sensor in series:
        series[sensor].sort(key=lambda pair: pair[0])
    return series
