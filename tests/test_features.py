"""Catalog construction, observation evaluation, the interned log's time
views and lifecycle pairing."""

import calendar
import io
import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventabs.abstraction import ModelIOError, load_model, save_model
from eventabs.crf import CrfModel
from eventabs.errors import InputError
from eventabs.features import (
    BOT,
    MISSING,
    TIME_VIEWS,
    CatalogConfig,
    FeatureCatalog,
    InternedLog,
    LabelGmmBank,
    TrainingError,
    build_catalog,
    evaluate_observations,
    fold_catalogs,
    observation_matrix,
)
from eventabs.stats import MultinoulliTable, gmm_log_density
from eventabs.xes import (
    CONCEPT_NAME, LABEL, LIFECYCLE_TRANSITION, TIME_TIMESTAMP, AttributeValue, Event, Trace,
)

from factories import BASE, make_event, make_log, sequence_trace
from oracles import (
    contexts_reference,
    evaluate_observations_reference,
    lifecycle_durations_reference,
    multinoulli_fit_reference,
    view_coordinate,
)


def families(catalog: FeatureCatalog) -> set[str]:
    return {d.family for d in catalog.observation_features}


class TestAvailability:
    def test_concept_only_log(self):
        log = make_log([
            sequence_trace([("A", "X"), ("B", "Y")], with_time=False),
        ])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,)))
        assert families(catalog) == {"bias", "concept_ngram"}
        expected = {("bias", l) for l in ("X", "Y")} | {
            ("concept_ngram", l) for l in ("X", "Y")
        }
        assert {(d.family, d.label) for d in catalog.observation_features} == expected
        assert catalog.n_transition_features == 3 * 2

    def test_concept_and_time_log(self):
        log = make_log([sequence_trace([("A", "X"), ("B", "Y"), ("A", "X")])])
        catalog = build_catalog(log)
        assert families(catalog) == {"bias", "concept_ngram", "time_view"}
        assert any("org" in note for note in catalog.notes)

    def test_sensor_shaped_log_gets_all_three_families(self):
        events = [
            make_event("door", "X", BASE, "start"),
            make_event("door", "X", BASE + timedelta(seconds=30), "complete"),
            make_event("tap", "Y", BASE + timedelta(seconds=60), "start"),
            make_event("tap", "Y", BASE + timedelta(seconds=90), "complete"),
        ]
        catalog = build_catalog(make_log([events]))
        assert families(catalog) == {
            "bias", "concept_ngram", "time_view", "lifecycle_duration"
        }

    def test_org_family_included_when_attribute_present(self):
        events = [
            make_event("A", "X", BASE, org={"resource": "alice"}),
            make_event("B", "Y", BASE + timedelta(seconds=5), org={"resource": "bob"}),
        ]
        catalog = build_catalog(make_log([events]), CatalogConfig(ngram_sizes=(1,)))
        assert "org_ngram" in families(catalog)

    def test_mixture_fit_warnings_reach_the_notes(self):
        # label X always occurs at 08:00, so its day-view mixture is fitted
        # on constant samples and its variance is clamped
        log = make_log([
            sequence_trace([("A", "X"), ("B", "Y")], start=BASE + timedelta(days=d),
                           gap_seconds=600 + 60 * d)
            for d in range(6)
        ])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,), time_views=("day",)))
        warning = "time_view day, label X: variance clamped to floor"
        assert catalog.notes.count(warning) == 1

    def test_ngram_tables_skip_contexts_ending_in_missing(self):
        # org:resource is absent on some events; their contexts end in
        # MISSING, evaluate to the neutral row, and are not counted
        resources = [["alice", None, "bob"], [None, "bob", "alice", None], ["bob"]]
        log = make_log([
            [
                make_event(f"A{i % 2}", f"X{i % 3}", BASE + timedelta(seconds=60 * i),
                           org=None if r is None else {"resource": r})
                for i, r in enumerate(trace)
            ]
            for trace in resources
        ])
        config = CatalogConfig(ngram_sizes=(1, 2, 3), time_views=())
        catalog = build_catalog(log, config)
        tables = list(catalog.concept_tables.values()) + list(catalog.org_tables.values())
        assert catalog.org_tables
        assert not [ctx for t in tables for ctx in t.contexts if ctx[-1] == MISSING]

        def counting_missing(n: int):
            observations = []
            for trace in log.traces:
                symbols = [BOT] * (n - 1) + [ev.org("resource") or MISSING for ev in trace.events]
                observations += [
                    (tuple(symbols[t : t + n]), ev.label) for t, ev in enumerate(trace.events)
                ]
            return MultinoulliTable.from_dict(
                multinoulli_fit_reference(observations, config.smoothing_alpha, catalog.labels)
            )

        counted = replace(catalog, org_tables={
            (n, "resource"): counting_missing(n) for n in config.ngram_sizes
        })
        assert any(ctx[-1] == MISSING for t in counted.org_tables.values() for ctx in t.contexts)
        for trace in log.traces:
            assert np.array_equal(
                evaluate_observations(catalog, trace), evaluate_observations(counted, trace)
            )

    def test_unannotated_event_rejected(self):
        log = make_log([[make_event("A", "X", BASE), make_event("B", None, BASE)]])
        with pytest.raises(TrainingError, match="event 1"):
            build_catalog(log)

    def test_empty_log_rejected(self):
        with pytest.raises(TrainingError):
            build_catalog(make_log([]))


class TestEvaluate:
    def test_deterministic_unigram_value(self):
        log = make_log([
            sequence_trace(
                [("MC", "Taking medicine")] * 3 + [("D", "Eating")],
                with_time=False,
            )
        ])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,), smoothing_alpha=0.0))
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("t")},
            [make_event("MC"), make_event("D"), make_event("MC")],
        )
        matrix = evaluate_observations(catalog, trace)
        col = next(
            k for k, d in enumerate(catalog.observation_features)
            if d.family == "concept_ngram" and d.label == "Taking medicine"
        )
        assert matrix[0, col] == 1.0
        assert matrix[2, col] == 1.0
        assert matrix[1, col] == 0.0

    def test_begin_of_trace_padding(self):
        # with n=2 the first event's context is (BOT, first concept)
        log = make_log([[make_event("A", "X"), make_event("A", "Y")]])
        catalog = build_catalog(
            log, CatalogConfig(ngram_sizes=(2,), smoothing_alpha=0.0)
        )
        table = catalog.concept_tables[2]
        assert table.distributions([(BOT, "A"), ("A", "A")]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("t")},
            [make_event("A"), make_event("A")],
        )
        matrix = evaluate_observations(catalog, trace)
        col_x = next(
            k for k, d in enumerate(catalog.observation_features)
            if d.family == "concept_ngram" and d.label == "X"
        )
        assert matrix[0, col_x] == 1.0  # (BOT, A) context
        assert matrix[1, col_x] == 0.0  # (A, A) context

    def test_missing_timestamp_gives_neutral_time_values(self):
        log = make_log([sequence_trace([("A", "X"), ("B", "Y")])])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,)))
        trace = Trace(
            {CONCEPT_NAME: AttributeValue.string("t")},
            [make_event("A")],  # no timestamp
        )
        diagnostics: list[str] = []
        matrix = evaluate_observations(catalog, trace, diagnostics)
        time_cols = [
            k for k, d in enumerate(catalog.observation_features)
            if d.family == "time_view"
        ]
        assert np.allclose(matrix[0, time_cols], 0.5)
        assert any("no timestamp" in d for d in diagnostics)

    def test_time_view_values_sum_to_one_over_labels(self):
        log = make_log([
            sequence_trace([("A", "X"), ("B", "Y"), ("A", "Z"), ("B", "X")]),
            sequence_trace([("A", "Y"), ("B", "Z")], start=BASE + timedelta(days=1)),
        ])
        catalog = build_catalog(log)
        trace = log.traces[0]
        matrix = evaluate_observations(catalog, trace)
        for view in catalog.config.time_views:
            cols = [
                k for k, d in enumerate(catalog.observation_features)
                if d.family == "time_view" and d.view == view
            ]
            sums = matrix[:, cols].sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9)

    def test_concept_values_in_unit_interval_and_sum_to_one(self):
        log = make_log([
            sequence_trace([("A", "X"), ("B", "Y"), ("A", "Y")], with_time=False)
        ])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1, 2)))
        matrix = evaluate_observations(catalog, log.traces[0])
        for n in (1, 2):
            cols = [
                k for k, d in enumerate(catalog.observation_features)
                if d.family == "concept_ngram" and d.n == n
            ]
            block = matrix[:, cols]
            assert np.all(block >= 0.0) and np.all(block <= 1.0)
            assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)

    def test_org_ngram_values_and_partial_presence(self):
        # resource present on most training events; an event without it
        # evaluates to the neutral value while others use the table
        events = [
            make_event("A", "X", org={"resource": "alice"}),
            make_event("B", "Y", org={"resource": "bob"}),
            make_event("A", "X", org={"resource": "alice"}),
            make_event("B", "Y"),
        ]
        log = make_log([events])
        catalog = build_catalog(
            log, CatalogConfig(ngram_sizes=(1,), smoothing_alpha=0.0)
        )
        col = next(
            k for k, d in enumerate(catalog.observation_features)
            if d.family == "org_ngram" and d.org == "resource" and d.label == "X"
        )
        probe = Trace(
            {CONCEPT_NAME: AttributeValue.string("p")},
            [
                make_event("A", org={"resource": "alice"}),
                make_event("A"),  # no org attribute: neutral
            ],
        )
        matrix = evaluate_observations(catalog, probe)
        assert matrix[0, col] == 1.0
        assert matrix[1, col] == 0.5

    def test_evaluation_is_pure(self):
        log = make_log([sequence_trace([("A", "X"), ("B", "Y"), ("A", "X")])])
        catalog = build_catalog(log)
        first = evaluate_observations(catalog, log.traces[0])
        second = evaluate_observations(catalog, log.traces[0])
        assert np.array_equal(first, second)

    def test_family_independence_under_attribute_removal(self):
        log = make_log([
            sequence_trace([("A", "X"), ("B", "Y"), ("A", "X"), ("B", "X")]),
        ])
        full = build_catalog(log)
        stripped_events = [
            [
                make_event(ev.name, ev.label)  # drop timestamps
                for ev in trace.events
            ]
            for trace in log.traces
        ]
        stripped_log = make_log(stripped_events)
        reduced = build_catalog(stripped_log)

        probe = Trace(
            {CONCEPT_NAME: AttributeValue.string("probe")},
            [make_event("A"), make_event("B")],
        )
        full_matrix = evaluate_observations(full, probe)
        reduced_matrix = evaluate_observations(reduced, probe)
        for family in ("bias", "concept_ngram"):
            full_cols = [
                (d.label, d.n) for d in full.observation_features if d.family == family
            ]
            for (label, n) in full_cols:
                kf = next(
                    k for k, d in enumerate(full.observation_features)
                    if d.family == family and d.label == label and d.n == n
                )
                kr = next(
                    k for k, d in enumerate(reduced.observation_features)
                    if d.family == family and d.label == label and d.n == n
                )
                assert np.array_equal(full_matrix[:, kf], reduced_matrix[:, kr])


class TestLifecyclePairing:
    def trace(self, steps: list[tuple[str, str]]) -> Trace:
        events = [
            make_event(name, "X", BASE + timedelta(seconds=10 * i), lifecycle)
            for i, (name, lifecycle) in enumerate(steps)
        ]
        return Trace({CONCEPT_NAME: AttributeValue.string("t")}, events)

    @staticmethod
    def pairs(trace: Trace) -> list[int | None]:
        """Per event, the event it is paired with by InternedLog.durations
        under the trace's own step set (events are 10 s apart)."""
        log = InternedLog([trace])
        ends, _, _, seconds = log.durations(log.steps)
        found: list[int | None] = [None] * log.n_events
        for end, s in zip(ends.tolist(), seconds.tolist()):
            found[end] = end - round(s / 10)
        return found

    def test_fifo_double_start_complete(self):
        trace = self.trace([
            ("A", "start"), ("A", "start"), ("A", "complete"), ("A", "complete")
        ])
        assert self.pairs(trace) == [None, None, 0, 1]

    def test_complete_without_start_unmatched(self):
        trace = self.trace([("A", "complete")])
        assert self.pairs(trace) == [None]

    def test_interleaved_activities_matched_per_activity(self):
        trace = self.trace([
            ("A", "start"), ("B", "start"), ("A", "complete"), ("B", "complete")
        ])
        assert self.pairs(trace) == [None, None, 0, 1]

    def test_chain_restricted_to_observed_steps(self):
        trace = self.trace([
            ("A", "schedule"), ("A", "start"), ("A", "complete")
        ])
        assert self.pairs(trace) == [None, 0, 1]

    def test_case_insensitive_steps(self):
        trace = self.trace([("A", "Start"), ("A", "Complete")])
        assert self.pairs(trace) == [None, 0]

    def test_duration_features_sum_to_one(self):
        rows = []
        for i in range(6):
            rows.append(("A", "start"))
            rows.append(("A", "complete"))
        events = []
        t = BASE
        for i, (name, lifecycle) in enumerate(rows):
            label = "X" if i % 4 < 2 else "Y"
            t = t + timedelta(seconds=5 + (i % 3))
            events.append(make_event(name, label, t, lifecycle))
        log = make_log([events])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,)))
        cols = [
            k for k, d in enumerate(catalog.observation_features)
            if d.family == "lifecycle_duration"
        ]
        assert cols, "expected duration features on a lifecycle+time log"
        matrix = evaluate_observations(catalog, log.traces[0])
        sums = matrix[:, cols].sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_prediction_pairs_by_the_training_step_chain(self):
        # In training, complete follows resume in the step chain, so the
        # complete of a start/complete trace stays unmatched. A probe's
        # complete must not pair with its suspend, which would score it
        # with the (C, suspend) bank fitted on resume events.
        def trace_events(rows, k):
            return [
                make_event("C", label, BASE + timedelta(seconds=(10 + k) * i), step)
                for i, (step, label) in enumerate(rows)
            ]

        traces = []
        for k in range(4):
            traces.append(trace_events([("start", "X"), ("suspend", "X"), ("resume", "Y")], k))
            traces.append(trace_events([("start", "X"), ("complete", "X")], k))
        catalog = build_catalog(make_log(traces), CatalogConfig(ngram_sizes=(1,)))
        assert set(catalog.duration_models) == {("C", "start"), ("C", "suspend")}
        probe = self.trace([("C", "start"), ("C", "suspend"), ("C", "complete")])
        stored = json.loads(json.dumps(catalog.to_dict()))
        for reloaded in (catalog, FeatureCatalog.from_dict(stored)):
            assert reloaded.lifecycle_steps == ("complete", "resume", "start", "suspend")
            matrix = evaluate_observations(reloaded, probe)
            cols = [
                k for k, d in enumerate(reloaded.observation_features)
                if d.family == "lifecycle_duration"
            ]
            assert len(cols) == 4
            assert np.array_equal(matrix[2, cols], np.full(4, 0.5))

    def test_model_files_without_the_step_set_do_not_load(self):
        # the training step set is the only pairing rule, so a model file
        # whose catalog lacks it is refused rather than paired another way
        events = []
        for i in range(6):
            start = BASE + timedelta(minutes=10 * i)
            label = "X" if i % 2 else "Y"
            events.append(make_event("A", label, start, "start"))
            events.append(make_event("A", label, start + timedelta(seconds=5 + 3 * i), "complete"))
        catalog = build_catalog(make_log([events]), CatalogConfig(ngram_sizes=(1,)))
        assert catalog.duration_models
        buffer = io.StringIO()
        save_model(CrfModel(catalog, np.zeros(catalog.n_features)), buffer)
        data = json.loads(buffer.getvalue())
        assert data["catalog"]["lifecycle_steps"] == ["complete", "start"]
        load_model(io.StringIO(json.dumps(data)))
        del data["catalog"]["lifecycle_steps"]
        with pytest.raises(ModelIOError, match="lifecycle_steps"):
            load_model(io.StringIO(json.dumps(data)))


class TestStoredTables:
    """An n-gram table in a model file holds counts: non-negative integers
    over the table's own labels. Anything else would load as rows that are
    not distributions, so it is refused."""

    @staticmethod
    def model_data() -> dict:
        log = make_log([sequence_trace([("A", "X"), ("B", "Y"), ("A", "X")])])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,), time_views=()))
        buffer = io.StringIO()
        save_model(CrfModel(catalog, np.zeros(catalog.n_features)), buffer)
        data = json.loads(buffer.getvalue())
        load_model(io.StringIO(json.dumps(data)))
        return data

    def refused(self, count: dict, match: str) -> None:
        data = self.model_data()
        table = data["catalog"]["concept_tables"]["1"]
        assert table["counts"][0] == [["A"], {"X": 2}]
        table["counts"][0][1] = count
        with pytest.raises(ModelIOError, match=match):
            load_model(io.StringIO(json.dumps(data)))

    def test_label_outside_the_table_is_refused(self):
        self.refused({"X": 2, "Q": 1}, "'Q' is not in")

    def test_negative_count_is_refused(self):
        self.refused({"X": 2, "Y": -1}, "-1 is not a non-negative integer")

    def test_non_integer_count_is_refused(self):
        for count in (1.5, 2.0, "2", True):
            self.refused({"X": count}, "is not a non-negative integer")

    def test_count_beyond_int64_is_refused(self):
        self.refused({"X": 2**63}, "too large")

    def test_context_listed_twice_is_refused(self):
        data = self.model_data()
        counts = data["catalog"]["concept_tables"]["1"]["counts"]
        counts.append([["A"], {"Y": 1}])
        with pytest.raises(ModelIOError, match="not distinct and of length 1"):
            load_model(io.StringIO(json.dumps(data)))

    def test_context_of_another_arity_is_refused(self):
        data = self.model_data()
        data["catalog"]["concept_tables"]["1"]["counts"][0][0] = ["B", "A"]
        with pytest.raises(ModelIOError, match="not distinct and of length 1"):
            load_model(io.StringIO(json.dumps(data)))


class TestStoredBanks:
    """Every feature of a model file reads a table or bank that the file
    holds; a file without one is refused at load, not when annotating."""

    @staticmethod
    def refused(family: str, key: str) -> None:
        log = make_log([sequence_trace([("A", "X"), ("B", "Y"), ("A", "X")])])
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1, 2), time_views=("day",)))
        buffer = io.StringIO()
        save_model(CrfModel(catalog, np.zeros(catalog.n_features)), buffer)
        data = json.loads(buffer.getvalue())
        load_model(io.StringIO(json.dumps(data)))
        del data["catalog"][family][key]
        with pytest.raises(ModelIOError, match="has no table or bank"):
            load_model(io.StringIO(json.dumps(data)))

    def test_missing_time_bank_is_refused(self):
        self.refused("time_models", "day")

    def test_missing_concept_table_is_refused(self):
        self.refused("concept_tables", "2")


# A random event: concept name, label, seconds since the previous event,
# lifecycle step and resource; None drops the attribute (for the gap, the
# timestamp).
_EVENTS = st.tuples(
    st.sampled_from(["A", "B", None]),
    st.sampled_from(["X", "Y", "Z"]),
    st.one_of(st.none(), st.integers(1, 20_000)),
    st.sampled_from(["start", "complete", None]),
    st.sampled_from(["r1", "r2", None]),
)


def _random_log(rows):
    traces, elapsed = [], 0
    for trace_rows in rows:
        events = []
        for name, label, gap, step, resource in trace_rows:
            elapsed += gap or 0
            ts = BASE + timedelta(seconds=elapsed) if gap is not None else None
            org = {"resource": resource} if resource is not None else None
            events.append(make_event(name, label, ts, step, org))
        traces.append(events)
    return make_log(traces)


class TestFamilyBlocks:
    @given(st.lists(st.lists(_EVENTS, min_size=1, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_every_family_instance_is_a_label_distribution(self, rows):
        log = _random_log(rows)
        catalog = build_catalog(
            log,
            CatalogConfig(ngram_sizes=(1, 2), time_views=("day", "week"), gmm_max_components=2),
        )
        instances: dict[tuple, list[int]] = {}
        for k, d in enumerate(catalog.observation_features):
            instances.setdefault(d.instance, []).append(k)
        # the attributes each family reads at an event; where one is
        # missing, the family's row is the neutral 1/|labels|
        reads = {
            "concept_ngram": (CONCEPT_NAME,),
            "time_view": (TIME_TIMESTAMP,),
            "lifecycle_duration": (TIME_TIMESTAMP, CONCEPT_NAME, LIFECYCLE_TRANSITION),
        }
        for trace in log.traces:
            matrix = evaluate_observations(catalog, trace)
            for instance, cols in instances.items():
                block = matrix[:, cols]
                assert len(cols) == catalog.n_labels
                if instance[0] == "bias":
                    assert np.all(block == 1.0)
                else:
                    assert np.all((block >= 0.0) & (block <= 1.0))
                    assert np.allclose(block.sum(axis=1), 1.0, rtol=0, atol=1e-12)
                    keys = reads.get(instance[0], (f"org:{instance[2]}",))
                    lacking = [
                        not all(key in e.attributes for key in keys) for e in trace.events
                    ]
                    assert np.all(block[lacking] == 1.0 / catalog.n_labels), instance

        for bank in [*catalog.time_models.values(), *catalog.duration_models.values()]:
            xs = np.array([
                m + s * np.sqrt(v)
                for g in bank.gmms.values()
                for m, v in zip(g.means, g.variances)
                for s in (0.0, 1.0)
            ])
            joint = np.stack([
                np.exp(bank.log_priors[l]) * np.exp(gmm_log_density(bank.gmms[l], xs))
                if l in bank.gmms else np.zeros(len(xs))
                for l in bank.labels
            ], axis=1)
            bayes = joint / joint.sum(axis=1, keepdims=True)
            assert np.allclose(bank.responsibilities(xs), bayes, rtol=1e-9, atol=1e-12)

    def test_bank_without_mixtures_gives_uniform_rows(self):
        bank = LabelGmmBank(labels=("X", "Y", "Z"), gmms={}, log_priors={})
        rows = bank.responsibilities([0.0, 3.5, -1e9])
        assert np.array_equal(rows, np.full((3, 3), 1.0 / 3))


# Events for the fold oracle: as _EVENTS, weighted so that timed
# start/complete pairs of one activity, and so duration banks, are common.
_PAIRED_EVENTS = st.tuples(
    st.sampled_from(["A", "B", "A", "B", None]),
    st.sampled_from(["X", "Y"]),
    st.one_of(st.integers(1, 20_000), st.integers(1, 600), st.none()),
    st.sampled_from(["start", "complete", "start", "complete", None]),
    st.sampled_from(["r1", "r2", None]),
)


def _log_with_rare_trace(rows, rare_rows, position):
    """A random log plus one trace, inserted at ``position``, that carries
    the only instance of label U, of an org:role attribute and of the
    lifecycle step resume, so holding it out changes the alphabet, the
    family set and the pairing chain."""
    rare, elapsed, last = [], 0, len(rare_rows) - 1
    for i, (name, label, gap, step, resource) in enumerate(rare_rows):
        elapsed += gap or 0
        org = {"resource": resource} if resource is not None else {}
        if i == last:
            org["role"] = "boss"
        rare.append(make_event(
            name,
            "U" if i == 0 else label,
            BASE + timedelta(seconds=elapsed) if gap is not None else None,
            "resume" if i == min(1, last) else step,
            org,
        ))
    traces = [t.events for t in _random_log(rows).traces]
    traces.insert(min(position, len(traces)), rare)
    return make_log(traces)


class TestFoldCatalogs:
    """Every fold's catalog, built from the interned whole log by count
    subtraction and packed EM, equals build_catalog on the log less the
    fold; its observation matrix equals the per-trace oracle, bit for bit."""

    CONFIG = CatalogConfig(ngram_sizes=(1, 2), time_views=("day", "week"), gmm_max_components=2)

    @given(
        st.lists(st.lists(_PAIRED_EVENTS, min_size=1, max_size=6), min_size=1, max_size=4),
        st.lists(_PAIRED_EVENTS, min_size=1, max_size=4),
        st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_fold_catalogs_equal_build_catalog_of_the_rest(self, rows, rare_rows, position):
        log = _log_with_rare_trace(rows, rare_rows, position)
        n = len(log.traces)
        folds = [[i] for i in range(n)] + [list(range(0, n, 2)), list(range(1, n, 2))]
        interned = InternedLog(log.traces)
        rare_held = False
        for fold, catalog in zip(folds, fold_catalogs(interned, folds, self.CONFIG)):
            rest = replace(log, traces=[t for i, t in enumerate(log.traces) if i not in fold])
            expected = build_catalog(rest, self.CONFIG)
            assert catalog == expected
            assert json.dumps(catalog.to_dict()) == json.dumps(expected.to_dict())
            matrix = observation_matrix(catalog, interned)
            for rows_of, trace in zip(interned.per_trace(matrix), log.traces):
                assert np.array_equal(rows_of, evaluate_observations_reference(catalog, trace))
            rare_held |= "U" not in catalog.labels
        assert rare_held

    def test_weights_from_matches_features_and_label_pairs_by_name(self):
        # holding out the rare trace drops label U and the org:role family,
        # so each direction of the mapping meets features the other lacks
        log = _log_with_rare_trace(
            [[("A", "X", 5, "start", "r1"), ("B", "Y", 60, "complete", None)],
             [("B", "Y", 8, "start", "r2"), ("A", "X", 90, "complete", "r1")]],
            [("A", "Y", 30, "start", None), ("B", "X", 9, "complete", "r1")],
            1,
        )
        interned = InternedLog(log.traces)
        whole, fold = fold_catalogs(interned, [[], [1]], self.CONFIG)
        assert "U" not in fold.labels and fold.n_features < whole.n_features

        def by_name(catalog, weights):
            w_obs, trans = catalog.split(weights)
            rows = catalog.labels + (None,)
            return {
                **dict(zip(catalog.observation_features, w_obs)),
                **{(rows[i], catalog.labels[j]): trans[i, j] for i, j in np.ndindex(trans.shape)},
            }

        rng = np.random.default_rng(5)
        for source, target in ((whole, fold), (fold, whole), (fold, fold)):
            weights = rng.normal(size=source.n_features)
            known = by_name(source, weights)
            mapped = by_name(target, target.weights_from(source, weights))
            assert mapped == {key: known.get(key, 0.0) for key in mapped}
        weights = rng.normal(size=fold.n_features)
        assert np.array_equal(fold.weights_from(fold, weights), weights)

    def test_evaluate_observations_equals_the_oracle(self):
        log = _log_with_rare_trace(
            [[("A", "X", 5, "start", "r1"), ("B", "Y", None, "complete", None),
              ("A", "X", 70, "complete", "r2")]],
            [("A", "Y", 30, "start", None), ("A", "X", 9, "complete", "r1")],
            0,
        )
        catalog = build_catalog(log, self.CONFIG)
        assert {d.family for d in catalog.observation_features} == {
            "bias", "concept_ngram", "org_ngram", "time_view", "lifecycle_duration"
        }
        for trace in log.traces:
            diagnostics: list[str] = []
            expected_diagnostics: list[str] = []
            assert np.array_equal(
                evaluate_observations(catalog, trace, diagnostics),
                evaluate_observations_reference(catalog, trace, expected_diagnostics),
            )
            assert diagnostics == expected_diagnostics


class TestViewCoordinate:
    @staticmethod
    def at(view: str) -> float:
        return InternedLog(make_log([[make_event("A", "X", BASE)]]).traces).coordinates(view)[0]

    def test_day_seconds(self):
        assert self.at("day") == 8 * 3600

    def test_week_offset(self):
        # 2015-11-03 is a Tuesday
        assert self.at("week") == 86_400 + 8 * 3600

    def test_month_fraction_in_unit_interval(self):
        x = self.at("month")
        assert 0.0 <= x < 1.0
        assert x == pytest.approx((2 * 86_400 + 8 * 3600) / (30 * 86_400))

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError):
            self.at("fortnight")


def _utc(*fields: int) -> datetime:
    return datetime(*fields, tzinfo=timezone.utc)


# Timestamps from year 1 to 9999, biased towards the edges of the month
# arithmetic: a month's first instant and 1 ms either side, and Feb 29.
_TIMESTAMPS = st.one_of(
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999_999),
                 timezones=st.just(timezone.utc)),
    st.datetimes(datetime(1900, 1, 1), datetime(1970, 1, 2), timezones=st.just(timezone.utc)),
    st.builds(lambda y, m, ms: _utc(y, m, 1) + timedelta(milliseconds=ms),
              st.integers(2, 9999), st.integers(1, 12), st.sampled_from((-1, 0, 1))),
    st.builds(lambda y, ms: _utc(y, 2, 29) + timedelta(milliseconds=ms),
              st.integers(1, 2499).map(lambda k: 4 * k).filter(calendar.isleap),
              st.integers(0, 86_399_999)),
)

# A random lifecycle event for _random_log: a name or none; any step of the
# chain in mixed case, a step outside it, or none; a gap in milliseconds.
_LIFECYCLE_EVENTS = st.tuples(
    st.sampled_from(["A", "B", None]),
    st.just("X"),
    st.one_of(st.none(), st.integers(0, 20_000_000).map(lambda ms: ms / 1000)),
    st.sampled_from([
        "schedule", "assign", "start", "Start", "suspend", "resume", "complete",
        "COMPLETE", "ate_abort", None,
    ]),
    st.none(),
)


# Events for the n-gram context oracle: a name from the edges of a vocabulary
# of 5,100 values, or none (MISSING), and a resource or none.
_WIDE_NAMES = [f"v{i:05d}" for i in range(5_100)]
_WIDE_TRACE = [make_event(name, "X") for name in _WIDE_NAMES]
_WINDOW_EVENTS = st.tuples(
    st.one_of(st.none(), st.sampled_from(_WIDE_NAMES[:3] + _WIDE_NAMES[-3:])),
    st.sampled_from(["r1", "r2", None]),
)


_COLUMN_KEYS = (
    CONCEPT_NAME, LABEL, TIME_TIMESTAMP, LIFECYCLE_TRANSITION,
    "org:resource", "org:role", "org:group",
)
# concept name, label, seconds since the previous timestamp, lifecycle step
# and org values; None drops the attribute from the event
_COLUMN_EVENTS = st.tuples(
    st.sampled_from(["A", "B", BOT, None]),
    st.sampled_from(["X", "Y", None]),
    st.one_of(st.none(), st.integers(0, 10**6)),
    st.sampled_from(["start", "Complete", None]),
    st.fixed_dictionaries({
        "resource": st.sampled_from(["r1", "r2", MISSING, None]),
        "role": st.sampled_from(["x", None]),
        "group": st.sampled_from(["g", None]),
    }),
)


def _columns_per_key(traces) -> dict:
    """InternedLog's columns as one pass over every event per key, the
    form before absent keys were skipped."""
    attributes = [ev.attributes for t in traces for ev in t.events]
    starts = np.cumsum([0] + [len(t.events) for t in traces])

    def column(key: str) -> list:
        return [av.value if (av := a.get(key)) is not None else None for a in attributes]

    def intern(values: list) -> tuple[tuple, np.ndarray]:
        vocabulary = tuple(sorted(set(values) - {None}))
        index = {v: i for i, v in enumerate(vocabulary)}
        return vocabulary, np.asarray([index.get(v, -1) for v in values], dtype=np.intp)

    stamps = column(TIME_TIMESTAMP)
    out = {
        "labels": intern(column(LABEL)),
        "steps": intern([
            s.lower() if s is not None else None for s in column(LIFECYCLE_TRANSITION)
        ]),
        "timed": np.asarray([ts is not None for ts in stamps], dtype=bool),
        "times": np.asarray([
            (ts - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(milliseconds=1)
            if ts is not None else 0 for ts in stamps
        ], dtype=np.int64),
    }
    for key in (CONCEPT_NAME, "org:resource", "org:role", "org:group"):
        values = column(key)
        if BOT in values or MISSING in values:
            event = next(i for i, v in enumerate(values) if v in (BOT, MISSING))
            t = int(np.searchsorted(starts, event, side="right")) - 1
            raise InputError(
                f"trace {traces[t].case_id!r} event {event - int(starts[t])} has {key} "
                f"{values[event]!r}, a value reserved for n-gram contexts"
            )
        out[key] = intern([MISSING if v is None else v for v in values])
    return out


class TestInternedColumns:
    """InternedLog computes time-view coordinates and lifecycle pairs on its
    columns; the oracles compute them per datetime and per trace."""

    @given(st.lists(st.one_of(st.none(), _TIMESTAMPS), max_size=12))
    @example([_utc(1, 1, 1), _utc(1969, 12, 31, 23, 59, 59) + timedelta(milliseconds=999),
              _utc(2000, 2, 29, 12), _utc(2100, 3, 1) - timedelta(milliseconds=1),
              _utc(9999, 12, 31, 23, 59, 59) + timedelta(milliseconds=999), None])
    @settings(max_examples=200, deadline=None)
    def test_coordinates_equal_the_oracle_bitwise(self, stamps):
        events = [make_event("A", "X", ts) for ts in stamps]
        log = InternedLog(make_log([[ev] for ev in events]).traces)
        for view in TIME_VIEWS:
            expected = np.asarray([
                np.nan if ev.timestamp is None else view_coordinate(view, ev.timestamp)
                for ev in events
            ], dtype=float)
            assert log.coordinates(view).tobytes() == expected.tobytes()

    @given(
        st.lists(st.lists(_LIFECYCLE_EVENTS, max_size=10), max_size=4),
        st.one_of(st.none(), st.sets(st.sampled_from(
            ["schedule", "Assign", "start", "suspend", "RESUME", "complete", "ate_abort"]
        ))),
    )
    @settings(max_examples=200, deadline=None)
    def test_durations_equal_the_oracle(self, rows, steps):
        log = _random_log(rows)
        interned = InternedLog(log.traces)
        steps = interned.steps if steps is None else steps
        ends, keys, key_ids, seconds = interned.durations(steps)
        expected = lifecycle_durations_reference(log.traces, steps)
        assert keys == tuple(sorted({key for _, key, _ in expected}))
        found = zip(ends.tolist(), [keys[k] for k in key_ids.tolist()], seconds.tolist())
        assert list(found) == expected


    @given(
        st.lists(st.lists(_WINDOW_EVENTS, max_size=7), min_size=1, max_size=5),
        st.one_of(st.none(), st.integers(0, 5)),
        st.integers(1, 6),
        st.sampled_from([CONCEPT_NAME, "org:resource"]),
    )
    @example([[(None, None)], [("v05099", "r1")]], 0, 6, CONCEPT_NAME)
    @settings(max_examples=100, deadline=None)
    def test_contexts_equal_the_row_wise_oracle(self, rows, wide_at, n, key):
        traces = [
            [make_event(name, "X", org=None if resource is None else {"resource": resource})
             for name, resource in trace_rows]
            for trace_rows in rows
        ]
        if wide_at is not None:  # a vocabulary of over 5,000 values
            traces.insert(min(wide_at, len(traces)), _WIDE_TRACE)
        log = InternedLog(make_log(traces).traces)
        contexts, ids, live = log.contexts(key, n)
        expected_contexts, expected_ids, expected_live = contexts_reference(
            *log.symbols[key], log.lengths.tolist(), n
        )
        assert contexts == expected_contexts
        assert ids.tolist() == expected_ids.tolist()
        assert live.tolist() == expected_live.tolist()


    @given(
        st.lists(st.lists(_COLUMN_EVENTS, max_size=5), max_size=4),
        st.sets(st.sampled_from(_COLUMN_KEYS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_a_pass_per_key(self, rows, dropped):
        # dropped keys are held by no event, so their columns are constant
        traces, elapsed = [], 0
        for trace_rows in rows:
            events = []
            for name, label, gap, step, org in trace_rows:
                elapsed += gap or 0
                ts = BASE + timedelta(seconds=elapsed) if gap is not None else None
                org = {k: v for k, v in org.items() if v is not None}
                attributes = make_event(name, label, ts, step, org).attributes
                events.append(Event({k: v for k, v in attributes.items() if k not in dropped}))
            traces.append(events)
        log = make_log(traces)
        try:
            expected = _columns_per_key(log.traces)
        except InputError as refused:
            with pytest.raises(InputError) as raised:
                InternedLog(log.traces)
            assert str(raised.value) == str(refused)
            return
        interned = InternedLog(log.traces)
        got = {
            "labels": (interned.labels, interned.label_ids),
            "steps": (interned.steps, interned.step_ids),
            "timed": interned.timed, "times": interned.times, **interned.symbols,
        }
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            if isinstance(value, tuple):
                assert got[key][0] == value[0], key
                value, got[key] = value[1], got[key][1]
            assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes(), key

    @pytest.mark.parametrize("symbol", [BOT, MISSING])
    @pytest.mark.parametrize("key", [CONCEPT_NAME, "org:resource"])
    def test_a_value_equal_to_a_reserved_symbol_is_refused(self, key, symbol):
        # as a name, BOT would share an n-gram context with the padding
        # before a trace's first event, and MISSING with an absent value
        name, org = (symbol, None) if key == CONCEPT_NAME else ("A", {"resource": symbol})
        log = make_log([[make_event("A", "X")], [make_event("B", "Y"), make_event(name, "X", org=org)]])
        with pytest.raises(InputError, match=f"trace 'case_1' event 1 has {key} '{symbol}'"):
            InternedLog(log.traces)


class TestCatalogConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("smoothing_alpha", float("nan"), "smoothing alpha"),
        ("smoothing_alpha", float("inf"), "smoothing alpha"),
        ("smoothing_alpha", -0.5, "smoothing alpha"),
        ("gmm_max_components", 2.5, "gmm_max_components"),
        ("gmm_max_components", True, "gmm_max_components"),
        ("gmm_max_components", 0, "gmm_max_components"),
        ("ngram_sizes", (2.5,), "n-gram sizes"),
        ("ngram_sizes", (1, True), "n-gram sizes"),
        ("ngram_sizes", (0,), "n-gram sizes"),
    ])
    def test_bad_numbers_are_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            CatalogConfig(**{field: value})
