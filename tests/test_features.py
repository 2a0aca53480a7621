"""Catalog construction, observation evaluation, and lifecycle pairing."""

import io
import json
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventabs.abstraction import ModelIOError, load_model, save_model
from eventabs.crf import CrfModel
from eventabs.features import (
    BOT,
    MISSING,
    CatalogConfig,
    FeatureCatalog,
    InternedLog,
    LabelGmmBank,
    TrainingError,
    build_catalog,
    evaluate_observations,
    fold_catalogs,
    observation_matrix,
    pair_lifecycle_steps,
    view_coordinate,
)
from eventabs.stats import gmm_density, multinoulli_fit
from eventabs.xes import Trace, AttributeValue, CONCEPT_NAME

from factories import BASE, make_event, make_log, sequence_trace
from oracles import evaluate_observations_reference


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
        diagnostics: list[str] = []
        catalog = build_catalog(
            log, CatalogConfig(ngram_sizes=(1,), time_views=("day",)), diagnostics
        )
        warning = "time_view day, label X: variance clamped to floor"
        assert catalog.notes.count(warning) == 1
        assert warning in diagnostics

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
        assert not [ctx for t in tables for ctx in t.counts if ctx[-1] == MISSING]

        def counting_missing(n: int):
            observations = []
            for trace in log.traces:
                symbols = [BOT] * (n - 1) + [ev.org("resource") or MISSING for ev in trace.events]
                observations += [
                    (tuple(symbols[t : t + n]), ev.label) for t, ev in enumerate(trace.events)
                ]
            return multinoulli_fit(observations, config.smoothing_alpha, catalog.labels)

        counted = replace(catalog, org_tables={
            (n, "resource"): counting_missing(n) for n in config.ngram_sizes
        })
        assert any(ctx[-1] == MISSING for t in counted.org_tables.values() for ctx in t.counts)
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
        assert table.probability((BOT, "A"), "X") == 1.0
        assert table.probability(("A", "A"), "Y") == 1.0
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

    def test_fifo_double_start_complete(self):
        trace = self.trace([
            ("A", "start"), ("A", "start"), ("A", "complete"), ("A", "complete")
        ])
        assert pair_lifecycle_steps(trace) == [None, None, 0, 1]

    def test_complete_without_start_unmatched(self):
        trace = self.trace([("A", "complete")])
        assert pair_lifecycle_steps(trace) == [None]

    def test_interleaved_activities_matched_per_activity(self):
        trace = self.trace([
            ("A", "start"), ("B", "start"), ("A", "complete"), ("B", "complete")
        ])
        assert pair_lifecycle_steps(trace) == [None, None, 0, 1]

    def test_chain_restricted_to_observed_steps(self):
        trace = self.trace([
            ("A", "schedule"), ("A", "start"), ("A", "complete")
        ])
        assert pair_lifecycle_steps(trace) == [None, 0, 1]

    def test_case_insensitive_steps(self):
        trace = self.trace([("A", "Start"), ("A", "Complete")])
        assert pair_lifecycle_steps(trace) == [None, 0]

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

        for bank in [*catalog.time_models.values(), *catalog.duration_models.values()]:
            xs = np.array([
                m + s * np.sqrt(v)
                for g in bank.gmms.values()
                for m, v in zip(g.means, g.variances)
                for s in (0.0, 1.0)
            ])
            joint = np.stack([
                np.exp(bank.log_priors[l]) * gmm_density(bank.gmms[l], xs)
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
    def test_day_seconds(self):
        assert view_coordinate("day", BASE) == 8 * 3600

    def test_week_offset(self):
        # 2015-11-03 is a Tuesday
        assert view_coordinate("week", BASE) == 86_400 + 8 * 3600

    def test_month_fraction_in_unit_interval(self):
        x = view_coordinate("month", BASE)
        assert 0.0 <= x < 1.0
        assert x == pytest.approx((2 * 86_400 + 8 * 3600) / (30 * 86_400))

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError):
            view_coordinate("fortnight", BASE)
