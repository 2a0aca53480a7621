"""Event log model: typed attributes, parse/serialize round trips, and
sensor change-point conversion."""

from datetime import datetime, time, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventabs import petri
from eventabs.xes import (
    CONCEPT_NAME,
    LABEL,
    TIME_TIMESTAMP,
    AttributeValue,
    Event,
    EventLog,
    SensorSeriesError,
    Trace,
    XesParseError,
    XesValueError,
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
        notes: list[str] = []
        build_catalog(annotated, diagnostics=notes)
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
