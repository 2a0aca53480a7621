"""Pipeline surface: fit, annotate, collapse, and model persistence."""

import functools
import io
import json
import random
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eventabs import abstraction, features, stats
from eventabs.abstraction import (
    AbstractionConfig,
    ModelIOError,
    annotate,
    collapse,
    fit,
    fit_folds,
    load_model,
    prune,
    save_model,
    strip_labels,
)
from eventabs.crf import CrfModel, TrainingBatch, fit_group, viterbi_decode_many
from eventabs.features import (
    CatalogConfig, InternedLog, build_catalog, fold_catalogs, observation_matrix,
)
from eventabs.owlqn import OwlqnConfig
from eventabs.petri import (
    enabled_transitions, fire, generate_annotated_log, medicine_eating_process,
)
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
    parse_xes,
    serialize_xes,
)

from factories import BASE, make_event, make_log, sequence_trace
from test_features import _EVENTS, _PAIRED_EVENTS, _random_log
from test_petri import random_nets
from test_xes import (
    _household_log, _log_facts, _sensor_log, annotated_household_trace, awkward_logs,
)

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

    @pytest.mark.parametrize("c", [-0.1, float("nan"), float("inf")])
    def test_l1_coefficient_not_finite_and_non_negative_refused(self, c):
        with pytest.raises(ValueError, match="non-negative and finite"):
            AbstractionConfig(l1_coefficient=c)

    def test_fit_deterministic(self):
        log = synthetic_log(10, seed=4)
        a = fit(log, SMALL_CONFIG)
        b = fit(log, SMALL_CONFIG)
        assert np.array_equal(a.weights, b.weights)


class TestFitFolds:
    @pytest.mark.parametrize(
        "folds, problem",
        [([[-1]], r"fold 0 is \[-1\], not trace indices"),
         ([[10]], r"fold 0 is \[10\], not trace indices"),
         ([[2], [9, 9]], r"fold 1 is \[9, 9\], which names a trace twice"),
         ([[1.0]], r"fold 0 is \[1.0\], not trace indices"),
         ([[3], [True]], r"fold 1 is \[True\], not trace indices")],
        ids=["minus-one", "past-the-end", "repeated", "float", "bool"],
    )
    def test_bad_trace_indices_are_refused(self, folds, problem):
        # read as numpy indices, [-1] would train without trace 9 yet yield
        # none of its rows, [9, 9] would yield its rows twice, and [True]
        # would fail deep in the catalog build. fold_catalogs checks the
        # folds for fit_folds and for its direct callers alike
        log = InternedLog(synthetic_log(10, seed=3).traces)
        with pytest.raises(ValueError, match=problem):
            next(fit_folds(log, folds, SMALL_CONFIG))
        with pytest.raises(ValueError, match=problem):
            next(fold_catalogs(log, folds, SMALL_CONFIG.catalog))

    def test_start_is_asked_once_per_group_after_its_batch(self, monkeypatch):
        # a cross-validation builds each share's catalogs and first batch
        # while the start model is still being fitted; asking for it before
        # a group's batch exists would make that work wait on the fit
        order = []

        def recording(*args):
            batch = TrainingBatch(*args)
            order.append("batch")
            return batch

        def start():
            order.append("start")

        monkeypatch.setattr(abstraction, "TrainingBatch", recording)
        log = InternedLog(synthetic_log(5, seed=3).traces)
        # two leave-one-out folds fit the budget and three do not: groups of
        # 2, 2 and 1 folds
        monkeypatch.setattr(features, "FOLD_GROUP_ROWS", 2 * (log.n_events - int(log.lengths.min())))
        config = AbstractionConfig(
            catalog=SMALL_CONFIG.catalog, optimizer=OwlqnConfig(max_iterations=5)
        )
        assert len(list(fit_folds(log, [[t] for t in range(5)], config, start))) == 5
        assert order == ["batch", "start"] * 3

    def test_a_loocv_share_is_one_em_run_and_one_batch(self, monkeypatch):
        # with two jobs, a leave-one-out CV of 40 household traces (448
        # events, the size of the loocv-household benchmark) hands each
        # worker 20 folds. Their 8,740 training rows fit the budget, so the
        # share fits its mixtures in one packed EM run and its CRFs in one
        # lockstep batch
        log = InternedLog(synthetic_log(40, seed=7).traces)
        share = [[t] for t in range(20)]
        assert sum(log.n_events - int(log.lengths[t]) for t in range(20)) == 8740
        em_runs, batches = [], []
        em_loop, fit_batch = stats._em_loop, abstraction.fit_group

        def recording_em(*args):
            em_runs.append(1)
            return em_loop(*args)

        def recording_fit(batch, *args):
            batches.append(len(batch.problems))
            return fit_batch(batch, *args)

        monkeypatch.setattr(stats, "_em_loop", recording_em)
        monkeypatch.setattr(abstraction, "fit_group", recording_fit)
        config = AbstractionConfig(
            catalog=CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3),
            optimizer=OwlqnConfig(max_iterations=5),
        )
        assert len(list(fit_folds(log, share, config))) == 20
        assert em_runs == [1]
        assert batches == [20]

    def test_lockstep_groups_fit_each_fold_as_alone(self, monkeypatch):
        # trace 2 holds the only events of "Napping", so its fold has one
        # label fewer; the 20 leave-one-out folds then train in groups cut by
        # the training-row budget, here lowered so that it binds after 12
        # folds, and split by the label count
        pairs = [[(ev.name, ev.label) for ev in tr.events] for tr in synthetic_log(19, seed=5).traces]
        pairs.insert(2, [("MC", "Napping"), ("W", "Napping"), ("D", "Napping")])
        log = InternedLog(make_log([sequence_trace(p) for p in pairs]).traces)
        folds = [[t] for t in range(log.n_traces)]
        rows = [log.n_events - int(log.lengths[t]) for t in range(log.n_traces)]
        monkeypatch.setattr(features, "FOLD_GROUP_ROWS", sum(rows[:12]))
        budgeted: list[list[int]] = []
        for t, fold_rows in enumerate(rows):
            if not budgeted or sum(rows[u] for u in budgeted[-1]) + fold_rows > sum(rows[:12]):
                budgeted.append([])
            budgeted[-1].append(t)
        expected = [
            len(part) for group in budgeted
            for part in ([t for t in group if t < 2], [t for t in group if t == 2],
                         [t for t in group if t > 2])
            if part
        ]
        config = AbstractionConfig(
            catalog=SMALL_CONFIG.catalog, optimizer=OwlqnConfig(max_iterations=40)
        )
        group_sizes = []

        def recording(batch, *args):
            group_sizes.append(len(batch.problems))
            return fit_group(batch, *args)

        start, _ = next(fit_folds(log, [()], config))
        for initial in (None, start):
            group_sizes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(abstraction, "fit_group", recording)
                together = list(fit_folds(log, folds, config, lambda: initial))
            assert group_sizes == expected
            for fold, (model, held) in zip(folds, together, strict=True):
                [(alone, alone_held)] = fit_folds(log, [fold], config, lambda: initial)
                assert model.labels == alone.labels
                assert model.weights.tobytes() == alone.weights.tobytes()
                assert model.training == alone.training
                assert [rows.tobytes() for rows in held] == [rows.tobytes() for rows in alone_held]


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

    def test_a_far_mixture_mean_annotates_without_a_warning(self):
        # pytest.ini turns a RuntimeWarning into an error: the far component
        # scores -inf, its limit, and its mixture's mass comes from the others
        log = synthetic_log(30, seed=1)
        buffer = io.StringIO()
        save_model(fit(log, SMALL_CONFIG), buffer)
        payload = json.loads(buffer.getvalue())
        gmm = next(iter(payload["catalog"]["time_models"]["day"]["gmms"].values()))
        gmm["means"][0] = 1e308
        far = load_model(io.StringIO(json.dumps(payload)))
        assert annotate(far, strip_labels(log)).event_count() == log.event_count()

    def test_missing_family_attributes_degrade_with_diagnostics(self):
        log = synthetic_log(10, seed=8)
        model = fit(log, SMALL_CONFIG)
        no_time = make_log([[make_event("MC"), make_event("W")]])
        diagnostics: list[str] = []
        result = annotate(model, no_time, diagnostics)
        assert result.event_count() == 2
        assert diagnostics


# every family a random log can carry: n-grams, a time view, lifecycle durations
PRUNE_CATALOG = CatalogConfig(ngram_sizes=(1, 2), time_views=("day",), gmm_max_components=2)


def _sparse_model(catalog, seed: int, zero_fraction: float = 0.6) -> CrfModel:
    """A model of the catalog with random weights, most observation weights
    zero, as L1 leaves them."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=catalog.n_features)
    f_obs = catalog.n_observation_features
    weights[:f_obs][rng.random(f_obs) < zero_fraction] = 0.0
    return CrfModel(catalog, weights)


def _model_without(catalog, family: str) -> CrfModel:
    """A model of the catalog with every weight one, except a zero for
    each feature of the family."""
    return CrfModel(catalog, np.asarray(
        [float(d.family != family) for d in catalog.observation_features]
        + [1.0] * catalog.n_transition_features
    ))


def _whole_model_labels(model: CrfModel, log: EventLog) -> list[list[str]]:
    """Viterbi over every feature of the model's catalog, nothing pruned."""
    interned = InternedLog(log.traces)
    return viterbi_decode_many(
        model, interned.per_trace(observation_matrix(model.catalog, interned))
    )


def _labels(log: EventLog) -> list[list[str]]:
    return [[ev.label for ev in trace.events] for trace in log.traces]


class TestPrunedDecode:
    """annotate decodes through the features L1 kept (prune), exactly as
    the whole model would."""

    @given(
        st.lists(st.lists(_PAIRED_EVENTS, min_size=1, max_size=6), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_annotate_equals_the_whole_model_decode(self, rows, seed):
        log = _random_log(rows)
        model = _sparse_model(build_catalog(log, PRUNE_CATALOG), seed)
        unlabeled = strip_labels(log)
        assert _labels(annotate(model, unlabeled)) == _whole_model_labels(model, unlabeled)
        pruned = prune(model)
        w_obs, transitions = model.catalog.split(model.weights)
        assert pruned.catalog.observation_features == tuple(
            d for d, w in zip(model.catalog.observation_features, w_obs) if w != 0
        )
        assert np.array_equal(pruned.catalog.split(pruned.weights)[1], transitions)

    def test_a_model_without_observation_weights_still_annotates(self):
        log = synthetic_log(10, seed=17)
        catalog = build_catalog(log, PRUNE_CATALOG)
        model = _sparse_model(catalog, seed=3, zero_fraction=1.0)
        assert prune(model).catalog.n_observation_features == 0
        unlabeled = strip_labels(log)
        assert _labels(annotate(model, unlabeled)) == _whole_model_labels(model, unlabeled)

    def test_zero_org_weights_drop_the_org_tables(self):
        log = make_log([
            [make_event("A", "X", org={"resource": "r1"}), make_event("B", "Y", org={"resource": "r2"})],
            [make_event("B", "Y", org={"resource": "r2"}), make_event("A", "X")],
        ])
        catalog = build_catalog(log, PRUNE_CATALOG)
        assert catalog.org_tables
        model = _model_without(catalog, "org_ngram")
        pruned = prune(model).catalog
        assert pruned.org_tables == {}
        assert pruned.concept_tables.keys() == catalog.concept_tables.keys()
        assert {d.family for d in pruned.observation_features} == {"bias", "concept_ngram"}
        unlabeled = strip_labels(log)
        assert _labels(annotate(model, unlabeled)) == _whole_model_labels(model, unlabeled)

    def test_an_untimed_event_is_noted_when_no_time_view_weight_survives(self):
        catalog = build_catalog(synthetic_log(10, seed=18), PRUNE_CATALOG)
        model = _model_without(catalog, "time_view")
        assert catalog.time_models and not prune(model).catalog.time_models
        diagnostics: list[str] = []
        annotate(model, make_log([[make_event("MC"), make_event("W")]]), diagnostics)
        assert diagnostics == [
            f"trace 'case_0' event {i}: no timestamp, neutral time_view values used"
            for i in range(2)
        ]


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


class TestStripLabels:
    def test_classifiers_lose_the_label_key(self):
        # a valid log whose classifiers name the label key, whose global
        # declaration strip_labels removes: the key leaves each classifier,
        # and a classifier of the label key alone goes
        log = replace(synthetic_log(3, seed=8), classifiers={
            "Activity": (CONCEPT_NAME,), "Both": (CONCEPT_NAME, LABEL), "High": (LABEL,),
        })
        assert parse_xes(serialize_xes(log)) == log
        bare = strip_labels(log)
        assert bare.classifiers == {"Activity": (CONCEPT_NAME,), "Both": (CONCEPT_NAME,)}
        assert LABEL not in bare.global_event_attributes
        assert not any(LABEL in event.attributes for trace in bare.traces for event in trace.events)
        assert parse_xes(serialize_xes(bare)) == bare


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


# Edits of a stored catalog that each break one sub-model's own checks.
def _scale_a_mixture_weight(catalog: dict) -> None:
    next(iter(catalog["time_models"]["day"]["gmms"].values()))["weights"][0] *= 1.5


def _negate_a_variance(catalog: dict) -> None:
    next(iter(catalog["time_models"]["day"]["gmms"].values()))["variances"][0] = -1.0


def _put_a_number_for_the_tables(catalog: dict) -> None:
    catalog["concept_tables"] = 2.0


def _put_a_string_for_an_alpha(catalog: dict) -> None:
    catalog["concept_tables"]["1"]["alpha"] = "x"


def _put_a_list_for_a_mixture_mean(catalog: dict) -> None:
    next(iter(catalog["time_models"]["day"]["gmms"].values()))["means"][0] = [1.0]


def _put_a_dict_for_a_bank_label(catalog: dict) -> None:
    catalog["time_models"]["day"]["labels"][0] = {"a": 1}


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_scale_a_mixture_weight, "mixture weights must sum to 1"),
            (_negate_a_variance, "variance below floor"),
            (_put_a_number_for_the_tables, "AttributeError"),
            (_put_a_string_for_an_alpha, "could not convert string to float: 'x'"),
            (_put_a_list_for_a_mixture_mean, "TypeError"),
            (_put_a_dict_for_a_bank_label, "not the catalog's"),
        ],
        ids=lambda value: value.__name__.strip("_") if callable(value) else None,
    )
    def test_a_malformed_sub_model_is_a_model_io_error(self, edit, message):
        model = fit(synthetic_log(8, seed=16), SMALL_CONFIG)
        buffer = io.StringIO()
        save_model(model, buffer)
        payload = json.loads(buffer.getvalue())
        edit(payload["catalog"])
        with pytest.raises(ModelIOError, match=f"malformed model payload.*{message}"):
            load_model(io.StringIO(json.dumps(payload)))

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


def _annotate_keeps_the_log_and_a_reloaded_model_decodes_alike(log: EventLog) -> None:
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


def _net_run(net, rng: random.Random, steps: int) -> list[str]:
    """The visible labels of a random run of ``net`` from its initial
    marking, which stops at a final marking with chance one half, as the
    generator's playouts do; where a playout would fail, at a deadlock or
    after ``steps`` firings, the run ends instead."""
    marking, emitted = net.initial_marking, []
    for _ in range(steps):
        enabled = sorted(enabled_transitions(net, marking))
        if not enabled or (marking in net.final_markings and rng.random() < 0.5):
            break
        transition = rng.choice(enabled)
        marking = fire(net, marking, transition)
        label = net.label_of(transition)
        if label is not None:
            emitted.append(label)
    return emitted


@st.composite
def net_logs(draw) -> EventLog:
    """Annotated logs played out of random nets (``test_petri.random_nets``,
    with tau transitions, self-loops and deadlocks): each trace is a run of
    one net whose labels a and b each expand into a run of a net of their
    own, at random gaps of up to ten minutes."""
    high = draw(random_nets())
    low = {"a": draw(random_nets()), "b": draw(random_nets())}
    rng = random.Random(draw(st.integers(0, 2**16)))
    traces, clock = [], BASE
    for _ in range(draw(st.integers(1, 4))):
        events = []
        for label in _net_run(high, rng, 8):
            for name in _net_run(low[label], rng, 8):
                clock += timedelta(seconds=rng.randrange(1, 600))
                events.append(make_event(name, label, clock))
        traces.append(events)
    assume(any(traces))
    return make_log(traces)


class TestPipelineProperties:
    """fit, annotate and save/load on random logs whose events drop the
    concept name, timestamp, lifecycle step or resource at random, and on
    logs played out of random nets."""

    @given(st.lists(st.lists(_EVENTS, min_size=1, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_annotate_keeps_the_log_and_a_reloaded_model_decodes_alike(self, rows):
        _annotate_keeps_the_log_and_a_reloaded_model_decodes_alike(_random_log(rows))

    @given(net_logs())
    @settings(max_examples=60, deadline=None)
    def test_the_same_on_logs_played_out_of_random_nets(self, log):
        _annotate_keeps_the_log_and_a_reloaded_model_decodes_alike(log)


def _rebuilt(log: EventLog) -> EventLog:
    """``log`` built anew through the public constructors, which check
    every value, event and trace, and the log."""

    def value(av: AttributeValue) -> AttributeValue:
        return AttributeValue(av.kind, av.value, tuple((k, value(c)) for k, c in av.children))

    def block(attributes: dict) -> dict:
        return {key: value(av) for key, av in attributes.items()}

    return EventLog(
        block(log.attributes), set(log.extensions), dict(log.classifiers),
        block(log.global_trace_attributes), block(log.global_event_attributes),
        [
            Trace(block(trace.attributes), [Event(block(e.attributes)) for e in trace.events])
            for trace in log.traces
        ],
    )


_MINUTE = timedelta(minutes=1)


def _stamped(log: EventLog) -> EventLog:
    """``log`` with every event stamped a minute after the one before it."""
    return replace(log, traces=[
        Trace(trace.attributes, [
            Event({**event.attributes, TIME_TIMESTAMP: AttributeValue.date(BASE + i * _MINUTE)})
            for i, event in enumerate(trace.events)
        ])
        for trace in log.traces
    ])


@functools.cache
def _property_model() -> CrfModel:
    return fit(synthetic_log(12, seed=11), PROPERTY_CONFIG)


class TestCheckOnce:
    """annotate, strip_labels, collapse and parse_xes build their events and
    traces without running the model's checks again. What each returns
    equals, down to the type and tzinfo of every value, the log the checking
    constructors build of the same parts, so the checks would refuse none
    of it."""

    @given(awkward_logs(readable=True))
    @settings(max_examples=80, deadline=None)
    @example(_household_log())
    @example(_sensor_log())
    @example(synthetic_log(4, seed=3))
    def test_derived_logs_equal_their_checked_rebuilds(self, log):
        model = _property_model()
        annotated = annotate(model, log)
        for derived in (
            annotated,
            strip_labels(log),
            strip_labels(annotated),
            collapse(annotate(model, _stamped(log))),
            parse_xes(serialize_xes(log)),
            parse_xes(serialize_xes(annotated)),
        ):
            rebuilt = _rebuilt(derived)
            assert rebuilt == derived
            assert _log_facts(rebuilt) == _log_facts(derived)
