"""In-memory XES event log model: typed attributes, XML parse/serialize,
and conversion of binary sensor series into day-grouped event logs.

The model follows the XES meta-model: a log holds traces, a trace holds an
ordered sequence of events, and log/trace/event all carry typed attributes.
Keys of the standard extensions are normalized to the conventional prefixed
lowercase forms ("concept:name", "time:timestamp", "lifecycle:transition",
"org:resource", "org:role", "org:group"). The high-level activity of an
event, when known, is stored under the plain string key "label".
"""

from __future__ import annotations

import csv
import io
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import IO

__all__ = [
    "CONCEPT_NAME",
    "TIME_TIMESTAMP",
    "LIFECYCLE_TRANSITION",
    "ORG_RESOURCE",
    "ORG_ROLE",
    "ORG_GROUP",
    "LABEL",
    "AttributeValue",
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


class XesError(Exception):
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


def _to_utc_ms(dt: datetime) -> datetime:
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


_TYPED_EVENT_KEYS = {
    CONCEPT_NAME: "string",
    TIME_TIMESTAMP: "date",
    LIFECYCLE_TRANSITION: "string",
    ORG_RESOURCE: "string",
    ORG_ROLE: "string",
    ORG_GROUP: "string",
    LABEL: "string",
}


@dataclass
class Event:
    """A single event: a map from attribute key to typed value.

    Treated as immutable once inside a log.
    """

    attributes: dict[str, AttributeValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, kind in _TYPED_EVENT_KEYS.items():
            av = self.attributes.get(key)
            if av is not None and av.kind != kind:
                raise XesValueError(
                    f"attribute {key!r} must be of kind {kind!r}, got {av.kind!r}"
                )

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
        if CONCEPT_NAME not in self.attributes:
            raise XesValueError("trace is missing the concept:name case identifier")
        last: datetime | None = None
        for i, ev in enumerate(self.events):
            ts = ev.timestamp
            if ts is None:
                continue
            if last is not None and ts < last:
                raise XesValueError(
                    f"trace {self.case_id!r}: event {i} timestamp decreases"
                )
            last = ts

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


# --- XML parsing ------------------------------------------------------------

_ATTR_TAGS = {"string", "date", "int", "float", "boolean", "id", "list", "container"}


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_attribute(el: ET.Element) -> tuple[str, AttributeValue]:
    tag = _local(el.tag)
    key = canonical_key(el.attrib.get("key", ""))
    raw = el.attrib.get("value", "")
    children = tuple(
        _parse_attribute(child)
        for child in el
        if _local(child.tag) in _ATTR_TAGS
    )
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
    # Keys are whitespace-separated; keys containing spaces are single-quoted.
    keys = []
    for match in re.finditer(r"'([^']*)'|(\S+)", spec):
        keys.append(canonical_key(match.group(1) or match.group(2)))
    return tuple(keys)


def parse_xes(source: bytes | str | Path | IO[bytes]) -> EventLog:
    """Parse an XES document into an :class:`EventLog`.

    ``source`` may be raw bytes, a filesystem path, or a binary file
    object. Unknown attribute keys are retained verbatim; standard
    extension keys are normalized to their canonical lowercase form.
    """
    if isinstance(source, bytes):
        stream: IO[bytes] = io.BytesIO(source)
    elif isinstance(source, (str, Path)):
        stream = open(source, "rb")
    else:
        stream = source
    try:
        try:
            root = ET.parse(stream).getroot()
        except ET.ParseError as exc:
            line, col = exc.position
            raise XesParseError(
                f"malformed XML at line {line}, column {col}: {exc.msg}"
            ) from exc
    finally:
        if isinstance(source, (str, Path)):
            stream.close()

    if _local(root.tag) != "log":
        raise XesParseError(f"expected <log> root element, got <{_local(root.tag)}>")

    attributes: dict[str, AttributeValue] = {}
    extensions: set[str] = set()
    classifiers: dict[str, tuple[str, ...]] = {}
    global_trace: dict[str, AttributeValue] = {}
    global_event: dict[str, AttributeValue] = {}
    traces: list[Trace] = []

    for el in root:
        tag = _local(el.tag)
        if tag == "extension":
            extensions.add(el.attrib.get("name", ""))
        elif tag == "global":
            scope = el.attrib.get("scope", "event")
            target = global_trace if scope == "trace" else global_event
            for child in el:
                if _local(child.tag) in _ATTR_TAGS:
                    key, value = _parse_attribute(child)
                    target[key] = value
        elif tag == "classifier":
            name = el.attrib.get("name", "")
            classifiers[name] = _split_classifier_keys(el.attrib.get("keys", ""))
        elif tag == "trace":
            traces.append(_parse_trace(el))
        elif tag in _ATTR_TAGS:
            key, value = _parse_attribute(el)
            attributes[key] = value

    return EventLog(
        attributes=attributes,
        extensions=extensions,
        classifiers=classifiers,
        global_trace_attributes=global_trace,
        global_event_attributes=global_event,
        traces=traces,
    )


def _parse_trace(el: ET.Element) -> Trace:
    attributes: dict[str, AttributeValue] = {}
    events: list[Event] = []
    for child in el:
        tag = _local(child.tag)
        if tag == "event":
            ev_attrs: dict[str, AttributeValue] = {}
            for attr_el in child:
                if _local(attr_el.tag) in _ATTR_TAGS:
                    key, value = _parse_attribute(attr_el)
                    ev_attrs[key] = value
            events.append(Event(ev_attrs))
        elif tag in _ATTR_TAGS:
            key, value = _parse_attribute(child)
            attributes[key] = value
    return Trace(attributes, events)


# --- XML serialization ------------------------------------------------------


def _attribute_element(key: str, av: AttributeValue) -> ET.Element:
    if av.kind == "date":
        raw = format_timestamp(av.value)  # type: ignore[arg-type]
    elif av.kind == "boolean":
        raw = "true" if av.value else "false"
    else:
        raw = repr(av.value) if av.kind == "float" else str(av.value)
    el = ET.Element(av.kind, {"key": key, "value": raw})
    for child_key, child_value in av.children:
        el.append(_attribute_element(child_key, child_value))
    return el


def serialize_xes(log: EventLog) -> bytes:
    """Serialize an :class:`EventLog` to XES XML bytes.

    Output is deterministic for a fixed log and reparses to an equal log.
    """
    root = ET.Element("log", {"xes.version": "1.0", "xes.features": ""})
    for name in sorted(log.extensions):
        prefix, uri = _STANDARD_EXTENSIONS.get(
            name, (name.lower(), f"http://www.xes-standard.org/{name.lower()}.xesext")
        )
        ET.SubElement(root, "extension", {"name": name, "prefix": prefix, "uri": uri})
    for scope, attrs in (
        ("trace", log.global_trace_attributes),
        ("event", log.global_event_attributes),
    ):
        if attrs:
            g = ET.SubElement(root, "global", {"scope": scope})
            for key, av in attrs.items():
                g.append(_attribute_element(key, av))
    for name, keys in log.classifiers.items():
        quoted = " ".join(f"'{k}'" if " " in k else k for k in keys)
        ET.SubElement(root, "classifier", {"name": name, "keys": quoted})
    for key, av in log.attributes.items():
        root.append(_attribute_element(key, av))
    for trace in log.traces:
        tr = ET.SubElement(root, "trace")
        for key, av in trace.attributes.items():
            tr.append(_attribute_element(key, av))
        for event in trace.events:
            ev = ET.SubElement(tr, "event")
            for key, av in event.attributes.items():
                ev.append(_attribute_element(key, av))
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    buf = io.BytesIO()
    tree.write(buf, encoding="utf-8", xml_declaration=True)
    buf.write(b"\n")
    return buf.getvalue()


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
    the trace is flagged in ``diagnostics`` instead.
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
            stamped.append((_to_utc_ms(ts), sensor, value))

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
    timestamp before alternation is checked downstream.
    """
    if isinstance(source, (str, Path)):
        fh: IO[str] = open(source, newline="")
        close = True
    else:
        fh, close = source, False
    series: dict[str, list[tuple[datetime, int]]] = {}
    try:
        reader = csv.DictReader(fh)
        required = {"sensor", "timestamp", "value"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise SensorSeriesError(
                "CSV header must declare columns sensor,timestamp,value"
            )
        for row_number, row in enumerate(reader, start=2):
            try:
                ts = parse_timestamp(row["timestamp"])
                value = int(row["value"])
            except (XesValueError, TypeError, ValueError) as exc:
                raise SensorSeriesError(f"CSV row {row_number}: {exc}") from exc
            series.setdefault(row["sensor"], []).append((ts, value))
    finally:
        if close:
            fh.close()
    for sensor in series:
        series[sensor].sort(key=lambda pair: pair[0])
    return series
