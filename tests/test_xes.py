"""Event log model: typed attributes, parse/serialize round trips, and
sensor change-point conversion."""

import io
import math
import tracemalloc
from datetime import datetime, time, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import parse_xes_reference, serialize_xes_reference, to_utc_ms_reference

from eventabs import petri, xes
from eventabs.xes import (
    CONCEPT_NAME,
    LABEL,
    LIFECYCLE_TRANSITION,
    TIME_TIMESTAMP,
    AttributeValue,
    Event,
    EventLog,
    SensorSeriesError,
    Trace,
    XesParseError,
    XesValueError,
    _to_utc_ms,
    parse_timestamp,
    parse_xes,
    read_sensor_csv,
    sensor_series_to_log,
    serialize_xes,
)

UTC = timezone.utc


def ts(text: str) -> datetime:
    return parse_timestamp(text)


SIMPLE_DOC = b"""<?xml version='1.0' encoding='utf-8'?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <global scope="event">
    <string key="concept:name" value=""/>
  </global>
  <classifier name="Activity" keys="concept:name"/>
  <trace>
    <string key="concept:name" value="case_1"/>
    <event><string key="Concept:name" value="A"/></event>
    <event><string key="concept:name" value="B"/></event>
    <event><string key="concept:name" value="C"/></event>
  </trace>
</log>
"""


class TestParse:
    def test_structural_echo(self):
        log = parse_xes(SIMPLE_DOC)
        assert len(log.traces) == 1
        assert len(log.traces[0].events) == 3
        assert log.traces[0].events[0].name == "A"  # capitalized key normalized
        assert log.extensions == {"Concept"}
        assert log.classifiers == {"Activity": (CONCEPT_NAME,)}

    def test_lifecycle_absent_is_fine_and_reported_later(self):
        log = parse_xes(SIMPLE_DOC)
        assert all(
            ev.lifecycle is None for tr in log.traces for ev in tr.events
        )
        # catalog construction is where the absence surfaces
        from eventabs.features import build_catalog

        annotated = EventLog(
            classifiers=log.classifiers,
            global_event_attributes=log.global_event_attributes,
            traces=[
                Trace(
                    dict(tr.attributes),
                    [
                        Event({**ev.attributes, LABEL: AttributeValue.string("H")})
                        for ev in tr.events
                    ],
                )
                for tr in log.traces
            ],
        )
        notes = build_catalog(annotated).notes
        assert any("lifecycle extension absent" in n for n in notes)

    def test_malformed_xml_reports_position(self):
        with pytest.raises(XesParseError, match=r"line \d+, column \d+"):
            parse_xes(b"<log><trace></log>")

    def test_bad_timestamp_names_key(self):
        doc = (
            b"<log><trace><string key='concept:name' value='c'/>"
            b"<event><date key='time:timestamp' value='not-a-date'/></event>"
            b"</trace></log>"
        )
        with pytest.raises(XesValueError, match="time:timestamp"):
            parse_xes(doc)

    def test_typed_values(self):
        doc = (
            b"<log><trace><string key='concept:name' value='c'/>"
            b"<event>"
            b"<string key='concept:name' value='A'/>"
            b"<int key='n' value='3'/>"
            b"<float key='x' value='1.5'/>"
            b"<boolean key='ok' value='true'/>"
            b"<date key='time:timestamp' value='2015-11-03T08:45:23.000+00:00'/>"
            b"</event></trace></log>"
        )
        ev = parse_xes(doc).traces[0].events[0]
        assert ev.attributes["n"].value == 3
        assert ev.attributes["x"].value == 1.5
        assert ev.attributes["ok"].value is True
        assert ev.timestamp == datetime(2015, 11, 3, 8, 45, 23, tzinfo=UTC)

    def test_unknown_keys_retained(self):
        doc = (
            b"<log><trace><string key='concept:name' value='c'/>"
            b"<event><string key='custom:thing' value='v'/></event>"
            b"</trace></log>"
        )
        log = parse_xes(doc)
        assert log.traces[0].events[0].attributes["custom:thing"].value == "v"
        assert serialize_xes(log)  # and survives serialization

    def test_nested_attributes_preserved_not_interpreted(self):
        doc = (
            b"<log><trace><string key='concept:name' value='c'/>"
            b"<event><string key='outer' value='v'>"
            b"<int key='inner' value='7'/></string></event>"
            b"</trace></log>"
        )
        log = parse_xes(doc)
        outer = log.traces[0].events[0].attributes["outer"]
        assert outer.children == (("inner", AttributeValue.integer(7)),)
        assert parse_xes(serialize_xes(log)) == log

    def test_list_items_survive(self):
        doc = (
            b"<log><trace><string key='concept:name' value='c'/>"
            b"<event><list key='l'><values>"
            b"<string key='a' value='1'/><string key='b' value='2'/>"
            b"</values></list></event>"
            b"</trace></log>"
        )
        log = parse_xes(doc)
        items = (("a", AttributeValue.string("1")), ("b", AttributeValue.string("2")))
        assert log.traces[0].events[0].attributes["l"] == AttributeValue("string", "", items)
        assert parse_xes(serialize_xes(log)) == log


class TestTimestamps:
    @pytest.mark.parametrize(
        "text",
        [
            "2015-11-03T08:45:23.000+00:00",
            "2015-11-03T09:45:23.000+01:00",
            "2015-11-03T08:45:23Z",
            "2015-11-03T08:45:23.0004+00:00",
        ],
    )
    def test_parse_variants(self, text):
        assert ts(text) == datetime(2015, 11, 3, 8, 45, 23, tzinfo=UTC)

    def test_roundtrip_identical_instant(self):
        moments = [
            datetime(2015, 11, 3, 8, 45, 23, 999000, tzinfo=UTC),
            datetime(1999, 12, 31, 23, 59, 59, tzinfo=UTC),
        ]
        for m in moments:
            av = AttributeValue.date(m)
            assert parse_timestamp(av.value.isoformat()) == m

    def test_zone_offsets_convert_to_utc(self):
        av = AttributeValue.date(
            datetime(2015, 11, 3, 9, 45, tzinfo=timezone(timedelta(hours=1)))
        )
        assert av.value == datetime(2015, 11, 3, 8, 45, tzinfo=UTC)


class TestModelInvariants:
    def test_attribute_value_kind_mismatch(self):
        with pytest.raises(XesValueError):
            AttributeValue("int", "not an int")

    @pytest.mark.parametrize("kind, value", [
        ("int", True), ("float", 1), ("boolean", 1), ("string", 1.0),
        ("date", "2015-11-03"), ("float", False),
    ])
    def test_attribute_value_rejects_other_types(self, kind, value):
        # a bool is not an int, and no kind converts its value
        with pytest.raises(XesValueError, match="does not match"):
            AttributeValue(kind, value)

    def test_attribute_value_accepts_each_kind(self):
        for kind, value in [("int", 3), ("float", 0.5), ("boolean", False),
                            ("string", "x"), ("date", datetime(2015, 11, 3, tzinfo=UTC))]:
            assert AttributeValue(kind, value).value == value
        with pytest.raises(XesValueError, match="unknown attribute kind"):
            AttributeValue("list", [])

    def test_event_typed_key_invariant(self):
        with pytest.raises(XesValueError, match="concept:name"):
            Event({CONCEPT_NAME: AttributeValue.integer(3)})

    def test_trace_requires_case_id(self):
        with pytest.raises(XesValueError, match="concept:name"):
            Trace({}, [])

    def test_trace_rejects_decreasing_timestamps(self):
        e1 = Event({TIME_TIMESTAMP: AttributeValue.date(ts("2015-11-03T09:00:00Z"))})
        e2 = Event({TIME_TIMESTAMP: AttributeValue.date(ts("2015-11-03T08:00:00Z"))})
        with pytest.raises(XesValueError, match="decreases"):
            Trace({CONCEPT_NAME: AttributeValue.string("c")}, [e1, e2])

    def test_classifier_must_reference_global_event_keys(self):
        with pytest.raises(XesValueError, match="classifier"):
            EventLog(classifiers={"Activity": (CONCEPT_NAME,)})


def _classified(*keys: str) -> EventLog:
    return EventLog(
        classifiers={"C": keys},
        global_event_attributes={k: AttributeValue.string("") for k in keys},
    )


def _carriable(key: str) -> bool:
    """Whether the classifier keys syntax can carry ``key``: a key that must
    be quoted (empty, holding whitespace or starting with a quote) cannot
    hold a quote."""
    return "'" not in key or (key[0] != "'" and not any(c.isspace() for c in key))


class TestClassifierKeys:
    def test_empty_quoted_key_parses(self):
        log = parse_xes(
            b"<log><global scope='event'><string key='' value=''/>"
            b"<string key='concept:name' value=''/></global>"
            b"<classifier name='C' keys=\"'' concept:name\"/></log>"
        )
        assert log.classifiers == {"C": ("", CONCEPT_NAME)}

    @pytest.mark.parametrize("keys", [
        ("",), ("a\tb",), ("a\nb", "c\rd"), ("a'b", "c d"), ("a'", "", "b"),
    ])
    def test_keys_round_trip(self, keys):
        assert all(_carriable(k) for k in keys)
        assert parse_xes(serialize_xes(_classified(*keys))).classifiers == {"C": keys}

    @pytest.mark.parametrize("key", ["a' b", "'", "'a", "a\t'"])
    def test_uncarriable_key_is_refused_at_write_time(self, key):
        assert not _carriable(key)
        with pytest.raises(XesValueError, match="cannot be written"):
            serialize_xes(_classified(key))


class TestSerialize:
    def test_empty_log(self):
        log = EventLog()
        data = serialize_xes(log)
        assert b"<log" in data
        assert parse_xes(data) == log

    def test_label_attribute_serializes_as_string(self):
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("c")},
            [Event({LABEL: AttributeValue.string("Eating")})],
        )
        data = serialize_xes(EventLog(traces=[trace]))
        assert b'key="label"' in data
        assert b"Eating" in data

    def test_serialization_is_deterministic(self):
        log = petri.generate_annotated_log(petri.medicine_eating_process(), 4, seed=3)
        assert serialize_xes(log) == serialize_xes(log)

    def test_roundtrip_generated_log(self):
        log = petri.generate_annotated_log(petri.medicine_eating_process(), 10, seed=11)
        assert parse_xes(serialize_xes(log)) == log

    def test_event_order_stable_under_serialization(self):
        log = petri.generate_annotated_log(petri.medicine_eating_process(), 3, seed=5)
        reparsed = parse_xes(serialize_xes(log))
        for t1, t2 in zip(log.traces, reparsed.traces):
            assert [e.name for e in t1.events] == [e.name for e in t2.events]


def annotated_household_trace() -> Trace:
    """An eight-event annotated household trace covering a morning and an
    evening routine."""
    rows = [
        ("2015-11-03T08:45:23Z", "Medicine cabinet", "Taking medicine"),
        ("2015-11-03T08:46:11Z", "Dishes & cups cabinet", "Taking medicine"),
        ("2015-11-03T08:46:45Z", "Water", "Taking medicine"),
        ("2015-11-03T08:47:59Z", "Dishes & cups cabinet", "Eating"),
        ("2015-11-03T08:48:29Z", "Dishwasher", "Eating"),
        ("2015-11-03T17:10:58Z", "Dishes & cups cabinet", "Taking medicine"),
        ("2015-11-03T17:11:09Z", "Medicine cabinet", "Taking medicine"),
        ("2015-11-03T17:11:18Z", "Water", "Taking medicine"),
    ]
    return Trace(
        {CONCEPT_NAME: AttributeValue.string("1")},
        [
            Event({
                TIME_TIMESTAMP: AttributeValue.date(ts(when)),
                CONCEPT_NAME: AttributeValue.string(name),
                LABEL: AttributeValue.string(label),
            })
            for when, name, label in rows
        ],
    )


def test_annotated_household_trace_roundtrip():
    log = EventLog(traces=[annotated_household_trace()])
    reparsed = parse_xes(serialize_xes(log))
    assert reparsed == log
    assert len(reparsed.traces[0].events) == 8


class TestSensorConversion:
    def test_single_toggle_pair(self):
        series = {
            "door": [
                (ts("2015-11-03T08:00:00Z"), 1),
                (ts("2015-11-03T08:05:00Z"), 0),
            ]
        }
        log = sensor_series_to_log(series)
        assert len(log.traces) == 1
        events = log.traces[0].events
        assert [e.lifecycle for e in events] == ["start", "complete"]
        assert events[0].name == "door"

    def test_midnight_boundary_splits_traces(self):
        series = {
            "door": [
                (ts("2015-11-03T23:59:00Z"), 1),
                (ts("2015-11-04T00:01:00Z"), 0),
            ]
        }
        log = sensor_series_to_log(series, day_boundary=time(0, 0))
        assert len(log.traces) == 2
        assert [len(t.events) for t in log.traces] == [1, 1]

    def test_custom_day_boundary_keeps_late_night_together(self):
        series = {
            "door": [
                (ts("2015-11-03T23:59:00Z"), 1),
                (ts("2015-11-04T00:01:00Z"), 0),
            ]
        }
        log = sensor_series_to_log(series, day_boundary=time(4, 0))
        assert len(log.traces) == 1

    def test_non_alternating_series_rejected(self):
        series = {
            "door": [
                (ts("2015-11-03T08:00:00Z"), 1),
                (ts("2015-11-03T08:05:00Z"), 1),
            ]
        }
        with pytest.raises(SensorSeriesError, match="door.*index 1"):
            sensor_series_to_log(series)

    def test_series_going_back_in_time_rejected(self):
        # alternating in list order, but sorted it would read start, start,
        # complete
        series = {
            "door": [
                (ts("2015-11-03T08:01:00Z"), 1),
                (ts("2015-11-03T08:03:00Z"), 0),
                (ts("2015-11-03T08:02:00Z"), 1),
            ]
        }
        with pytest.raises(SensorSeriesError, match="door.*index 2 is before"):
            sensor_series_to_log(series)

    def test_dangling_start_flagged(self):
        series = {"door": [(ts("2015-11-03T08:00:00Z"), 1)]}
        diagnostics: list[str] = []
        log = sensor_series_to_log(series, diagnostics=diagnostics)
        assert log.event_count() == 1
        assert any("dangling start" in d for d in diagnostics)

    def test_counts_match_brute_force_grouping(self):
        # 3 sensors, 2 days, 10 change points
        raw = [
            ("a", "2015-11-03T06:00:00Z", 1),
            ("a", "2015-11-03T06:30:00Z", 0),
            ("b", "2015-11-03T07:00:00Z", 1),
            ("b", "2015-11-03T07:10:00Z", 0),
            ("c", "2015-11-03T23:00:00Z", 1),
            ("c", "2015-11-04T01:00:00Z", 0),
            ("a", "2015-11-04T06:00:00Z", 1),
            ("a", "2015-11-04T06:30:00Z", 0),
            ("b", "2015-11-04T09:00:00Z", 1),
            ("b", "2015-11-04T09:10:00Z", 0),
        ]
        series: dict[str, list[tuple[datetime, int]]] = {}
        for sensor, when, value in raw:
            series.setdefault(sensor, []).append((ts(when), value))
        log = sensor_series_to_log(series)

        by_day: dict[str, int] = {}
        for _, when, _ in raw:
            by_day[when[:10]] = by_day.get(when[:10], 0) + 1
        assert log.event_count() == len(raw)
        assert len(log.traces) == len(by_day)
        assert {t.case_id: len(t.events) for t in log.traces} == by_day

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["s1", "s2", "s3"]),
                st.integers(min_value=0, max_value=3 * 86_400 - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_event_count_equals_change_points(self, raw):
        base = datetime(2015, 11, 3, tzinfo=UTC)
        per_sensor: dict[str, list[int]] = {}
        for sensor, offset in raw:
            per_sensor.setdefault(sensor, []).append(offset)
        series = {}
        total = 0
        for sensor, offsets in per_sensor.items():
            offsets = sorted(set(offsets))
            series[sensor] = [
                (base + timedelta(seconds=o), i % 2 == 0 and 1 or 0)
                for i, o in enumerate(offsets)
            ]
            total += len(offsets)
        log = sensor_series_to_log(series)
        assert log.event_count() == total


def test_read_sensor_csv(tmp_path):
    path = tmp_path / "sensors.csv"
    path.write_text(
        "sensor,timestamp,value\n"
        "door,2015-11-03T08:00:00Z,1\n"
        "door,2015-11-03T08:05:00Z,0\n"
    )
    series = read_sensor_csv(path)
    assert list(series) == ["door"]
    assert series["door"][0][1] == 1


def test_read_sensor_csv_reports_row(tmp_path):
    path = tmp_path / "sensors.csv"
    path.write_text(
        "sensor,timestamp,value\n"
        "door,2015-11-03T08:00:00Z,1\n"
        "door,bogus,0\n"
    )
    with pytest.raises(SensorSeriesError, match="row 3"):
        read_sensor_csv(path)


@pytest.mark.parametrize("text, message", [
    ("sensor,timestamp,value\ndoor,2015-11-03T08:00:00Z\n", "CSV row 2"),
    ('sensor,timestamp,value\n"door,2015-11-03T08:00:00Z,1\n', "row 2: unparseable timestamp"),
    ('sensor,timestamp,value\n"' + "a" * 200_000 + '",2015-11-03T08:00:00Z,1\n',
     "unreadable CSV: field larger than field limit"),
], ids=["short row", "open quote", "long field"])
def test_read_sensor_csv_refuses_a_row_it_cannot_read(tmp_path, text, message):
    path = tmp_path / "sensors.csv"
    path.write_text(text)
    with pytest.raises(SensorSeriesError, match=message):
        read_sensor_csv(path)


# --- the writer and the parser against their oracles ------------------------

# Characters ElementTree escapes in attribute values, the quote it leaves
# and non-ASCII text; none of them spells a typed event key.
_AWKWARD_CHARS = list("&<>\"'\r\n\t ab:") + ["\u00e9", "\u20ac", "\U0001f600"]
_OFFSETS = st.builds(
    timezone,
    st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                  max_value=timedelta(hours=23, minutes=59)),
)
_MOMENTS = st.datetimes(
    min_value=datetime(1900, 1, 2), max_value=datetime(2100, 1, 1),
    timezones=st.one_of(st.none(), st.just(UTC), _OFFSETS),
)


@st.composite
def awkward_logs(draw, readable: bool = False) -> EventLog:
    """Logs of every attribute kind, nested, under awkward keys and values.
    Unless ``readable``, text may hold a lone surrogate (written as a
    character reference no XML parser reads back) and classifiers may name
    any global key, including keys the quoted-key syntax cannot carry
    (which the writer refuses); readable logs name every global key it
    can carry."""
    text = st.text(
        alphabet=st.sampled_from(_AWKWARD_CHARS + ([] if readable else ["\ud800"])),
        max_size=6,
    )
    scalars = st.one_of(
        text.map(AttributeValue.string),
        _MOMENTS.map(AttributeValue.date),
        st.integers().map(AttributeValue.integer),
        st.floats().map(AttributeValue.real),
        st.booleans().map(AttributeValue.boolean),
    )
    values = st.recursive(
        scalars,
        lambda inner: st.builds(
            lambda av, children: AttributeValue(av.kind, av.value, tuple(children)),
            scalars,
            st.lists(st.tuples(text, inner), max_size=3),
        ),
        max_leaves=6,
    )
    attributes = st.dictionaries(text, values, max_size=3)
    traces = [
        Trace(
            {CONCEPT_NAME: AttributeValue.string(draw(text)), **draw(attributes)},
            [Event(attrs) for attrs in draw(st.lists(attributes, max_size=3))],
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    global_event = draw(attributes)
    plain_keys = draw(st.sets(st.sampled_from([CONCEPT_NAME, "my key", "\u00e9 \u20ac"])))
    global_event.update((key, AttributeValue.string("")) for key in plain_keys)
    keys = sorted(k for k in global_event if _carriable(k) or not readable)
    classifiers = {
        draw(text): tuple(draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(0, 2)) if keys else 0)
    }
    extensions = draw(st.sets(
        st.one_of(st.sampled_from(["Concept", "Time", "Lifecycle", "Organizational",
                                   "Semantic", "Custom"]), text),
        max_size=3,
    ))
    return EventLog(
        attributes=draw(attributes),
        extensions=extensions,
        classifiers=classifiers,
        global_trace_attributes=draw(attributes),
        global_event_attributes=global_event,
        traces=traces,
    )


def _edge_logs() -> list[EventLog]:
    case = {CONCEPT_NAME: AttributeValue.string("c")}
    return [
        EventLog(),
        EventLog(traces=[Trace(dict(case), [])]),
        EventLog(traces=[Trace(dict(case), [
            Event(), Event({"k": AttributeValue.real(0.0)}), Event({"k": AttributeValue.real(-0.0)}),
        ])]),
        EventLog(
            extensions={"Concept", "Weird & <Ext>"},
            classifiers={"By both": ("concept:name", "my key")},
            global_trace_attributes={CONCEPT_NAME: AttributeValue.string("")},
            global_event_attributes={
                CONCEPT_NAME: AttributeValue.string(""),
                "my key": AttributeValue.real(-0.0),
            },
            attributes={"zero": AttributeValue.real(0.0), "neg": AttributeValue.real(-0.0),
                        "nan": AttributeValue.real(math.nan)},
        ),
    ]


def _household_log() -> EventLog:
    return petri.generate_annotated_log(petri.medicine_eating_process(), 12, seed=11)


def _sensor_log() -> EventLog:
    base = datetime(2015, 11, 3, 6, tzinfo=UTC)
    series = {
        sensor: [(base + timedelta(minutes=37 * i + 11 * j), i % 2) for i in range(1, 80)]
        for j, sensor in enumerate(["door", "fridge", "kettle & tap"])
    }
    return sensor_series_to_log(series)


class TestWriterOracle:
    @given(awkward_logs())
    @settings(max_examples=120, deadline=None)
    def test_bytes_match_elementtree(self, log):
        if all(_carriable(k) for keys in log.classifiers.values() for k in keys):
            assert serialize_xes(log) == serialize_xes_reference(log)
        else:
            with pytest.raises(XesValueError, match="cannot be written"):
                serialize_xes(log)

    @pytest.mark.parametrize("log", _edge_logs(), ids=["empty", "no-events", "bare-event", "header"])
    def test_edge_logs(self, log):
        assert serialize_xes(log) == serialize_xes_reference(log)

    def test_generated_and_converted_logs(self):
        for log in (_household_log(), _sensor_log()):
            assert serialize_xes(log) == serialize_xes_reference(log)


def _facts(av: AttributeValue):
    """Everything an attribute value holds, down to the type and the
    tzinfo object; floats by repr, so NaN and -0.0 compare."""
    value = av.value
    tz = value.tzinfo if isinstance(value, datetime) else None
    return (av.kind, type(value), repr(value), id(tz) if tz is not None else None,
            tuple((k, _facts(c)) for k, c in av.children))


def _log_facts(log: EventLog):
    def block(attrs):
        return [(k, _facts(v)) for k, v in attrs.items()]

    return (
        sorted(log.extensions), log.classifiers, block(log.attributes),
        block(log.global_trace_attributes), block(log.global_event_attributes),
        [(block(t.attributes), [block(e.attributes) for e in t.events]) for t in log.traces],
    )


@st.composite
def timestamp_texts(draw) -> str:
    moment = draw(st.datetimes(min_value=datetime(1900, 1, 2), max_value=datetime(2100, 1, 1)))
    text = moment.strftime("%Y-%m-%dT%H:%M:%S")
    digits = draw(st.sampled_from([0, 1, 3, 6, 9]))
    if digits:
        text += "." + f"{moment.microsecond:06d}{draw(st.integers(0, 999)):03d}"[:digits]
    return text + draw(st.sampled_from(["", "Z", "+00:00", "+01:00", "-05:30", "+14:00"]))


def _document(stamps: list[str], namespace: bool = False) -> bytes:
    """Two copies of one trace whose events repeat values, ``n`` under two
    tags, around the given timestamps."""
    events = "".join(
        f"<event><string key='concept:name' value='{'AB'[i % 2]}'/>"
        f"<{'int' if i % 2 else 'string'} key='n' value='{i % 3}'/>"
        f"<boolean key='ok' value='true'/>"
        f"<date key='seen' value='{stamp}'/></event>"
        for i, stamp in enumerate(stamps)
    )
    xmlns = " xmlns='http://www.xes-standard.org/'" if namespace else ""
    return (
        f"<log{xmlns}><global scope='event'><string key='concept:name' value=''/></global>"
        f"<classifier name='A' keys='concept:name'/>"
        f"<trace><string key='concept:name' value='c'/>{events}</trace>"
        f"<trace><string key='concept:name' value='c'/>{events}</trace></log>"
    ).encode()


_STAMP = "2015-11-03T08:45:23.000+00:00"
_NAME = "<string key='concept:name' value='A'/>"
_STAMPED = f"<date key='time:timestamp' value='{_STAMP}'/>"
_CAPITALIZED = f"<date key='Time:Timestamp' value='{_STAMP}'/>"
_NESTED = "<string key='org:resource' value='r'><int key='meta' value='1'/></string>"
_NESTED_DATE = f"<date key='seen' value='{_STAMP}'><date key='meta' value='{_STAMP}'/></date>"
_LIST = (f"<list key='l'><values><string key='x' value='1'/><date key='d' value='{_STAMP}'/>"
         "</values></list>")
_CONTAINER = "<container key='c'><float key='f' value='0.5'/></container>"
_UNPLACED = "<unknown><string key='ghost' value='g'/></unknown>"
_UNPLACED_EVENT = "<event><string key='ghost' value='g'/></event>"
_OUT_OF_RANGE = "<date key='when' value='2015-02-30T08:45:23.000+00:00'/>"
_ZULU = "<date key='zulu' value='2015-11-03T08:45:23.123Z'/>"
_OFFSET = "<date key='offset' value='2015-11-03T09:45:23.1+01:00'/>"
_NANOS = "<date key='nanos' value='2015-11-03T08:45:23.123456789-05:30'/>"
# children of an <event>: childless attributes, which the event-level
# handlers read, and each case they hand to the general handlers
_EVENT_CHILDREN = [
    _NAME, _STAMPED, _CAPITALIZED, "<int key='n' value='3'/>", "<boolean key='ok' value='true'/>",
    _NESTED, _NESTED_DATE, _LIST, _CONTAINER, _UNPLACED, _UNPLACED_EVENT,
    _OUT_OF_RANGE, _ZULU, _OFFSET, _NANOS,
]


def _event_document(children: list[str], namespace: bool) -> bytes:
    """One trace of two events that hold ``children``, in order and reversed,
    with a trace attribute after them."""
    xmlns = " xmlns='http://www.xes-standard.org/'" if namespace else ""
    return (
        f"<log{xmlns}><trace><string key='concept:name' value='c'/>"
        f"<event>{''.join(children)}</event><event>{''.join(reversed(children))}</event>"
        f"<string key='after' value='events'/></trace></log>"
    ).encode()


def _outcome(parse, data: bytes):
    """What ``parse`` makes of ``data``: the log's facts, or the type and
    text of the error it raises."""
    try:
        return _log_facts(parse(data))
    except (XesParseError, XesValueError) as exc:
        return type(exc), str(exc)


class TestParserOracle:
    @given(st.lists(st.sampled_from(_EVENT_CHILDREN), max_size=6), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example([_NAME, _CAPITALIZED], False)
    @example([_NESTED, _NAME, _STAMPED], False)
    @example([_NESTED_DATE, _STAMPED, _NESTED], True)
    @example([_LIST, _NAME, _STAMPED], False)
    @example([_CONTAINER, _LIST], True)
    @example([_UNPLACED, _NAME, _UNPLACED_EVENT, _STAMPED], False)
    @example([_NAME, _OUT_OF_RANGE, _STAMPED], False)
    @example([_ZULU, _NAME, _OFFSET, _NANOS, _STAMPED], True)
    def test_event_level_handlers_and_their_fallbacks(self, children, namespace):
        data = _event_document(children, namespace)
        assert _outcome(parse_xes, data) == _outcome(parse_xes_reference, data)

    @given(st.lists(timestamp_texts(), max_size=8), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(["2015-11-03T08:45:23.000+00:00", "2015-11-03T08:45:23.123Z",
              "2015-11-03T08:45:23", "2015-11-03T09:45:23.1+01:00",
              "2015-11-03T08:45:23.123456789-05:30"], True)
    def test_timestamps_and_repeated_values(self, stamps, namespace):
        data = _document(stamps, namespace)
        assert _log_facts(parse_xes(data)) == _log_facts(parse_xes_reference(data))

    @given(awkward_logs(readable=True))
    @settings(max_examples=100, deadline=None)
    def test_serialized_logs(self, log):
        data = serialize_xes(log)
        assert _log_facts(parse_xes(data)) == _log_facts(parse_xes_reference(data))
        assert parse_xes(data).classifiers == log.classifiers

    def test_generated_and_converted_logs(self):
        for log in (_household_log(), _sensor_log()):
            data = serialize_xes(log)
            assert _log_facts(parse_xes(data)) == _log_facts(parse_xes_reference(data))

    def test_namespaced_list(self):
        data = (
            b"<log xmlns='http://www.xes-standard.org/'><trace>"
            b"<string key='concept:name' value='c'/><event><list key='l'><values>"
            b"<date key='d' value='2015-11-03T08:45:23.000+00:00'/><int key='i' value='4'/>"
            b"</values></list></event></trace></log>"
        )
        parsed = parse_xes(data)
        assert len(parsed.traces[0].events[0].attributes["l"].children) == 2
        assert _log_facts(parsed) == _log_facts(parse_xes_reference(data))

    @pytest.mark.parametrize("data", [
        b"<log><trace></log>",
        b"<log>\n<trace><event></trace></log>",
        b"",
        b"<log><trace><string key='concept:name' value='c'/>"
        b"<event><date key='time:timestamp' value='not-a-date'/></event></trace></log>",
        b"<log><trace><string key='concept:name' value='c'/>"
        b"<event><date key='when' value='2015-13-03T08:45:23.000+00:00'/></event></trace></log>",
        b"<log><trace><string key='concept:name' value='c'/>"
        b"<event><int key='n' value='x'/></event></trace></log>",
        b"<trace/>",
    ])
    def test_error_messages(self, data):
        with pytest.raises((XesParseError, XesValueError)) as ours:
            parse_xes(data)
        with pytest.raises((XesParseError, XesValueError)) as theirs:
            parse_xes_reference(data)
        assert (type(ours.value), str(ours.value)) == (type(theirs.value), str(theirs.value))

    @given(st.datetimes(
        min_value=datetime(1900, 1, 2), max_value=datetime(2100, 1, 1),
        timezones=st.one_of(st.none(), st.just(UTC), st.just(timezone(timedelta(0))), _OFFSETS),
    ))
    @settings(max_examples=300, deadline=None)
    @example(datetime(2015, 11, 3, 8, 45, 23, 999999, tzinfo=UTC))
    @example(datetime(2015, 11, 3, 8, 45, 23, 1000, tzinfo=UTC))
    @example(datetime(2015, 11, 3, 8, 45, 23, 123000))
    @example(datetime(2015, 11, 3, 8, 45, 23, 123000, tzinfo=timezone(timedelta(0))))
    @example(datetime(2015, 11, 3, 9, 45, 23, 123999, tzinfo=timezone(timedelta(hours=1))))
    def test_to_utc_ms_matches_normalization(self, moment):
        # and so does a date AttributeValue, whose constructor takes a UTC
        # moment at whole milliseconds as it is
        theirs = to_utc_ms_reference(moment)
        for ours in (_to_utc_ms(moment), AttributeValue("date", moment).value):
            assert ours == theirs
            assert ours.tzinfo is theirs.tzinfo is UTC
            assert ours.microsecond == theirs.microsecond


# children of an <event> for the model's checks, which parse_xes runs as
# each event and trace closes: standard keys of the right kind and of the
# wrong one (through the event-level handlers, the canonical date path and
# the general handlers), a bad value, and timestamps in both orders
_EARLIER = "<date key='time:timestamp' value='2015-11-03T08:45:22.999+00:00'/>"
_CHECKED_CHILDREN = [
    _NAME,
    "<int key='concept:name' value='3'/>",
    f"<date key='label' value='{_STAMP}'/>",
    "<string key='lifecycle:transition' value='start'/>",
    "<boolean key='Org:Resource' value='true'/>",
    "<string key='time:timestamp' value='x'/>",
    "<string key='org:role' value='r'><int key='meta' value='1'/></string>",
    "<float key='org:group' value='1.5'><int key='meta' value='1'/></float>",
    "<int key='n' value='x'/>",
    _STAMPED,
    _CAPITALIZED,
    _EARLIER,
    "<date key='time:timestamp' value='2015-11-03T09:45:23.5+01:00'/>",
]


class TestParserChecks:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.lists(st.sampled_from(_CHECKED_CHILDREN), max_size=4), max_size=4),
            ),
            max_size=3,
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    @example([(True, [[_NAME, "<int key='concept:name' value='3'/>"]])], False)
    @example([(True, [["<int key='concept:name' value='3'/>", _NAME]])], False)
    @example([(True, [[f"<date key='label' value='{_STAMP}'/>"]])], True)
    @example([(True, [[_STAMPED], [_EARLIER]])], False)
    @example([(True, [[_STAMPED], [_NAME], [_CAPITALIZED]])], False)
    @example([(False, [[_STAMPED], ["<int key='n' value='x'/>"]])], False)
    @example([(True, [[_STAMPED], ["<int key='concept:name' value='3'/>"]]),
              (True, [["<int key='n' value='x'/>"]])], False)
    def test_event_kinds_timestamp_order_and_the_first_fault(self, traces, namespace):
        """Each event's standard keys and each trace's case identifier and
        timestamp order are checked as its element closes, with the texts
        and in the order the checking constructors give them."""
        xmlns = " xmlns='http://www.xes-standard.org/'" if namespace else ""
        body = "".join(
            "<trace>" + ("<string key='concept:name' value='c'/>" if named else "")
            + "".join(f"<event>{''.join(children)}</event>" for children in events)
            + "</trace>"
            for named, events in traces
        )
        data = f"<log{xmlns}>{body}</log>".encode()
        assert _outcome(parse_xes, data) == _outcome(parse_xes_reference, data)


# Attribute tags that stand inside an element the XES grammar does not place
# there: every one of them, at every level, must be skipped.
_GHOSTS = "<string key='ghost' value='g'/><int key='ghost:n' value='1'/>"
_UNPLACED_DOC = (
    "<log{xmlns}>"
    "<unknown>{g}<trace><string key='concept:name' value='ghost trace'/></trace></unknown>"
    "<extension name='Concept'>{g}</extension>"
    "<global scope='event'><string key='concept:name' value=''/><unknown>{g}</unknown></global>"
    "<classifier name='A' keys='concept:name'>{g}</classifier>"
    "<string key='log:name' value='l'><unknown>{g}</unknown></string>"
    "<trace><string key='concept:name' value='c'/><unknown>{g}<event>{g}</event></unknown>"
    "<global scope='trace'>{g}</global>"
    "<event><string key='concept:name' value='A'/><unknown>{g}</unknown><trace>{g}</trace>"
    "<list key='l'><values><int key='i' value='4'/><unknown>{g}</unknown>"
    "<values>{g}</values></values><string key='s' value='x'/></list>"
    "<string key='plain' value='p'><values>{g}</values></string>"
    "</event></trace></log>"
)


class TestStreamingParse:
    def test_peak_memory_near_the_returned_log(self):
        """No element tree: the parse's peak stays near the size of the log
        it returns (1.03 here; an ElementTree build and walk reads 5.6)."""
        data = serialize_xes(
            petri.generate_annotated_log(petri.medicine_eating_process(), 150, seed=3)
        )
        parse_xes(SIMPLE_DOC)  # first-call caches stay out of the reading
        tracemalloc.start()
        try:
            log = parse_xes(data)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.event_count() > 1000
        assert peak <= 1.25 * size, (size, peak)

    def test_a_bad_value_before_malformed_xml_is_reported(self):
        data = (
            b"<log><trace><string key='concept:name' value='c'/>"
            b"<event><int key='n' value='x'/></event></trace></wrong></log>"
        )
        with pytest.raises(XesValueError, match="attribute 'n'"):
            parse_xes(data)
        with pytest.raises(XesParseError, match="mismatched tag"):
            parse_xes_reference(data)  # a tree is built before any value is read

    def test_a_wrong_root_before_malformed_xml_is_reported(self):
        data = b"<trace><event></trace>"
        with pytest.raises(XesParseError, match=r"^expected <log> root element, got <trace>$"):
            parse_xes(data)
        with pytest.raises(XesParseError, match="mismatched tag"):
            parse_xes_reference(data)

    @pytest.mark.parametrize(
        "encoding, reason",
        [("bogus", "unknown encoding"), ("utf-32", "multi-byte"), ("rot13", "not a text encoding")],
    )
    def test_an_unreadable_declared_encoding_is_a_parse_error(self, encoding, reason):
        data = f"<?xml version='1.0' encoding='{encoding}'?><log/>".encode()
        with pytest.raises(XesParseError, match=f"declared encoding '{encoding}': .*{reason}"):
            parse_xes(data)

    def test_a_single_byte_declared_encoding_is_read(self):
        data = "<?xml version='1.0' encoding='cp1252'?><log><string key='k' value='\u20ac'/></log>"
        assert parse_xes(data.encode("cp1252")).attributes["k"].value == "\u20ac"

    def test_a_lookup_error_inside_the_document_is_not_read_as_an_encoding(self, monkeypatch):
        # raised while an element is open, it is a fault of the reader
        def broken(*args):
            raise KeyError("reader fault")

        monkeypatch.setattr(xes, "_read_attribute", broken)
        with pytest.raises(KeyError, match="reader fault"):
            parse_xes(SIMPLE_DOC)

    @pytest.mark.parametrize("xmlns", ["", " xmlns='http://www.xes-standard.org/'"])
    def test_unplaced_attribute_tags_are_skipped_at_every_level(self, xmlns):
        data = _UNPLACED_DOC.format(xmlns=xmlns, g=_GHOSTS).encode()
        log = parse_xes(data)
        assert _log_facts(log) == _log_facts(parse_xes_reference(data))
        assert "ghost" not in repr(_log_facts(log))
        assert log.extensions == {"Concept"} and log.classifiers == {"A": (CONCEPT_NAME,)}
        assert list(log.attributes) == ["log:name"] and not log.global_trace_attributes
        (trace,) = log.traces
        (event,) = trace.events
        assert list(event.attributes) == [CONCEPT_NAME, "l", "plain"]
        assert [key for key, _ in event.attributes["l"].children] == ["i", "s"]
        assert event.attributes["plain"].children == ()

    def test_paths_bytes_and_streams_parse_alike(self, tmp_path):
        data = serialize_xes(_household_log())
        path = tmp_path / "log.xes"
        path.write_bytes(data)
        expected = _log_facts(parse_xes(data))
        assert _log_facts(parse_xes(path)) == expected
        assert _log_facts(parse_xes(str(path))) == expected
        assert _log_facts(parse_xes(io.BytesIO(data))) == expected
        with open(path, "rb") as stream:
            assert _log_facts(parse_xes(stream)) == expected
