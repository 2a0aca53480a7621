"""Pipeline surface: fit, annotate, collapse, and model persistence."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventabs.abstraction import (
    AbstractionConfig,
    ModelIOError,
    annotate,
    collapse,
    fit,
    load_model,
    save_model,
    strip_labels,
)
from eventabs.features import CatalogConfig
from eventabs.owlqn import OwlqnConfig
from eventabs.petri import generate_annotated_log, medicine_eating_process
from eventabs.xes import (
    CONCEPT_NAME,
    LABEL,
    LIFECYCLE_TRANSITION,
    TIME_TIMESTAMP,
    AttributeValue,
    Event,
    EventLog,
    Trace,
    parse_timestamp,
    serialize_xes,
)

from factories import make_event, make_log, sequence_trace
from test_features import _EVENTS, _random_log
from test_xes import annotated_household_trace

SMALL_CONFIG = AbstractionConfig(
    catalog=CatalogConfig(ngram_sizes=(1, 2), time_views=("day",), gmm_max_components=2)
)


def synthetic_log(n: int, seed: int) -> EventLog:
    return generate_annotated_log(medicine_eating_process(), n, seed=seed)


class TestFit:
    def test_alphabet_from_household_log(self):
        model = fit(synthetic_log(50, seed=2), SMALL_CONFIG)
        assert model.labels == ("Eating", "Taking medicine")

    def test_single_label_log_predicts_it_everywhere(self):
        log = make_log([
            sequence_trace([("A", "Only"), ("B", "Only"), ("A", "Only")]),
            sequence_trace([("B", "Only"), ("B", "Only")]),
        ])
        model = fit(log, SMALL_CONFIG)
        result = annotate(model, strip_labels(log))
        assert {ev.label for tr in result.traces for ev in tr.events} == {"Only"}

    def test_fit_refuses_a_second_l1_coefficient(self):
        config = AbstractionConfig(
            catalog=SMALL_CONFIG.catalog, optimizer=OwlqnConfig(l1_coefficient=0.5)
        )
        with pytest.raises(ValueError, match="l1_coefficient"):
            fit(synthetic_log(5, seed=4), config)

    def test_fit_deterministic(self):
        log = synthetic_log(10, seed=4)
        a = fit(log, SMALL_CONFIG)
        b = fit(log, SMALL_CONFIG)
        assert np.array_equal(a.weights, b.weights)


class TestAnnotate:
    def test_every_event_gains_a_label_and_nothing_else_changes(self):
        log = synthetic_log(20, seed=5)
        model = fit(log, SMALL_CONFIG)
        bare = strip_labels(log)
        result = annotate(model, bare)
        assert len(result.traces) == len(bare.traces)
        for before, after in zip(bare.traces, result.traces):
            assert len(before.events) == len(after.events)
            for ev_before, ev_after in zip(before.events, after.events):
                assert ev_after.label in model.labels
                untouched = {k: v for k, v in ev_after.attributes.items() if k != LABEL}
                assert untouched == ev_before.attributes

    def test_empty_trace_unchanged(self):
        log = synthetic_log(5, seed=6)
        model = fit(log, SMALL_CONFIG)
        empty = EventLog(traces=[Trace({CONCEPT_NAME: AttributeValue.string("e")}, [])])
        result = annotate(model, empty)
        assert len(result.traces) == 1
        assert result.traces[0].events == []

    def test_idempotent(self):
        log = synthetic_log(15, seed=7)
        model = fit(log, SMALL_CONFIG)
        once = annotate(model, strip_labels(log))
        twice = annotate(model, once)
        assert twice == once

    def test_missing_family_attributes_degrade_with_diagnostics(self):
        log = synthetic_log(10, seed=8)
        model = fit(log, SMALL_CONFIG)
        no_time = make_log([[make_event("MC"), make_event("W")]])
        diagnostics: list[str] = []
        result = annotate(model, no_time, diagnostics)
        assert result.event_count() == 2
        assert diagnostics


def expected_household_high_level() -> Trace:
    rows = [
        ("2015-11-03T08:45:23Z", "Taking medicine", "start"),
        ("2015-11-03T08:46:45Z", "Taking medicine", "complete"),
        ("2015-11-03T08:47:59Z", "Eating", "start"),
        ("2015-11-03T08:48:29Z", "Eating", "complete"),
        ("2015-11-03T17:10:58Z", "Taking medicine", "start"),
        ("2015-11-03T17:11:18Z", "Taking medicine", "complete"),
    ]
    return Trace(
        {CONCEPT_NAME: AttributeValue.string("1")},
        [
            Event({
                CONCEPT_NAME: AttributeValue.string(name),
                TIME_TIMESTAMP: AttributeValue.date(parse_timestamp(when)),
                LIFECYCLE_TRANSITION: AttributeValue.string(transition),
            })
            for when, name, transition in rows
        ],
    )


class TestCollapse:
    def test_household_collapse_matches_expected(self):
        log = EventLog(traces=[annotated_household_trace()])
        result = collapse(log)
        expected = expected_household_high_level()
        assert len(result.traces[0].events) == 6
        got = [
            (ev.name, ev.lifecycle, ev.timestamp)
            for ev in result.traces[0].events
        ]
        want = [(ev.name, ev.lifecycle, ev.timestamp) for ev in expected.events]
        assert got == want

    def test_household_collapse_byte_identical(self):
        result = collapse(EventLog(traces=[annotated_household_trace()]))
        expected_log = EventLog(
            extensions={"Concept", "Time", "Lifecycle"},
            classifiers={"Activity": (CONCEPT_NAME,)},
            global_event_attributes=result.global_event_attributes,
            traces=[expected_household_high_level()],
        )
        assert serialize_xes(result) == serialize_xes(expected_log)

    def test_single_event_run_shares_timestamp(self):
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("t")},
            sequence_trace([("A", "X")]),
        )
        result = collapse(EventLog(traces=[trace]))
        events = result.traces[0].events
        assert len(events) == 2
        assert events[0].timestamp == events[1].timestamp
        assert [e.lifecycle for e in events] == ["start", "complete"]

    def test_alternating_labels_no_merging(self):
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("t")},
            sequence_trace([("a", "A"), ("b", "B"), ("c", "A"), ("d", "B")]),
        )
        result = collapse(EventLog(traces=[trace]))
        events = result.traces[0].events
        assert len(events) == 8
        assert [e.name for e in events] == ["A", "A", "B", "B", "A", "A", "B", "B"]

    def test_output_length_is_twice_run_count(self):
        log = synthetic_log(10, seed=9)
        result = collapse(log)
        for original, high in zip(log.traces, result.traces):
            labels = [ev.label for ev in original.events]
            runs = 1 + sum(1 for a, b in zip(labels, labels[1:]) if a != b)
            assert len(high.events) == 2 * runs

    def test_run_label_subsequence_preserved(self):
        log = synthetic_log(10, seed=10)
        result = collapse(log)
        for original, high in zip(log.traces, result.traces):
            labels = [ev.label for ev in original.events]
            runs = [labels[0]] + [b for a, b in zip(labels, labels[1:]) if a != b]
            starts = [ev.name for ev in high.events if ev.lifecycle == "start"]
            assert starts == runs

    def test_missing_label_rejected(self):
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("t")},
            [make_event("A", None, ts=None)],
        )
        with pytest.raises(ValueError, match="event 0.*label|label.*event 0"):
            collapse(EventLog(traces=[trace]))

    def test_missing_timestamp_rejected(self):
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("t")},
            [make_event("A", "X", ts=None)],
        )
        with pytest.raises(ValueError, match="timestamp"):
            collapse(EventLog(traces=[trace]))

    def test_alphabet_survives_roundtrip_through_pipeline(self):
        log = synthetic_log(30, seed=11)
        model = fit(log, SMALL_CONFIG)
        predicted = collapse(annotate(model, strip_labels(log)))
        truth = collapse(log)
        names = lambda l: {ev.name for tr in l.traces for ev in tr.events}
        assert names(predicted) == names(truth)


class TestPersistence:
    def test_roundtrip_identical_predictions(self, tmp_path):
        log = synthetic_log(20, seed=12)
        model = fit(log, SMALL_CONFIG)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = strip_labels(synthetic_log(8, seed=99))
        assert annotate(loaded, probe) == annotate(model, probe)

    def test_save_deterministic(self):
        log = synthetic_log(6, seed=13)
        model = fit(log, SMALL_CONFIG)
        a, b = io.StringIO(), io.StringIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()

    def test_truncated_file_rejected(self, tmp_path):
        log = synthetic_log(5, seed=14)
        model = fit(log, SMALL_CONFIG)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelIOError, match="corrupt"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        log = synthetic_log(5, seed=15)
        model = fit(log, SMALL_CONFIG)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelIOError, match="version"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ModelIOError, match="recognizable"):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelIOError):
            load_model(tmp_path / "absent.json")


# n-grams of size 1, no time views, one mixture component, a few OWL-QN
# iterations: the properties below hold for any weights, so a short fit is
# enough and keeps each example at a few milliseconds.
PROPERTY_CONFIG = AbstractionConfig(
    catalog=CatalogConfig(ngram_sizes=(1,), time_views=(), gmm_max_components=1),
    optimizer=OwlqnConfig(max_iterations=5),
)


class TestPipelineProperties:
    """fit, annotate and save/load on random logs whose events drop the
    concept name, timestamp, lifecycle step or resource at random."""

    @given(st.lists(st.lists(_EVENTS, min_size=1, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_annotate_keeps_the_log_and_a_reloaded_model_decodes_alike(self, rows):
        log = _random_log(rows)
        model = fit(log, PROPERTY_CONFIG)
        unlabeled = strip_labels(log)
        annotated = annotate(model, unlabeled)

        def unlabeled_attributes(event):
            return {k: v for k, v in event.attributes.items() if k != LABEL}

        assert len(annotated.traces) == len(log.traces)
        for original, trace in zip(log.traces, annotated.traces):
            assert trace.attributes == original.attributes
            assert len(trace.events) == len(original.events)
            for before, after in zip(original.events, trace.events):
                assert after.label in model.labels
                assert unlabeled_attributes(after) == unlabeled_attributes(before)

        buffer = io.StringIO()
        save_model(model, buffer)
        reloaded = load_model(io.StringIO(buffer.getvalue()))
        assert annotate(reloaded, unlabeled) == annotated
