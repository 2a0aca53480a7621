"""Levenshtein similarity, cross-validation drivers, confusion matrices."""

import json
import multiprocessing
import random
import signal
import time
import tracemalloc
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventabs.abstraction import AbstractionConfig, annotate, fit, fit_folds, strip_labels
from eventabs import evaluation, features
from eventabs.crf import fit_group, nll_and_gradients, viterbi_decode_many
from eventabs.evaluation import (
    AbstractionReport,
    ConfusionMatrix,
    EvalConfig,
    collapse_runs,
    confusion_restricted,
    k_fold,
    leave_one_trace_out,
    levenshtein_distance,
    levenshtein_similarity,
)
from eventabs.features import (
    CatalogConfig, InternedLog, build_catalog, fold_catalogs, observation_matrix,
)
from eventabs.owlqn import OptimizationError, OwlqnConfig
from eventabs.petri import generate_annotated_log, medicine_eating_process
from eventabs.xes import CONCEPT_NAME, AttributeValue, Event, TIME_TIMESTAMP, Trace

from factories import BASE, fold_batch_of, make_log, sequence_trace
from oracles import l1_lbfgsb_reference, levenshtein_distance_reference, recursive_edit_distance

FAST = EvalConfig(
    abstraction=AbstractionConfig(
        catalog=CatalogConfig(ngram_sizes=(1,), time_views=(), gmm_max_components=1),
        optimizer=OwlqnConfig(max_iterations=40),
    )
)

SYMBOLS = st.lists(st.sampled_from("abcd"), max_size=8).map(tuple)

# two sequences of up to 200 symbols over one alphabet of 1 to 6 symbols
LONG_PAIRS = st.integers(1, 6).flatmap(
    lambda k: st.tuples(*[st.lists(st.sampled_from("abcdef"[:k]), max_size=200)] * 2)
)


def _cycle(symbols, n: int) -> tuple:
    return tuple(symbols[i % len(symbols)] for i in range(n))


# the bit-vector kernel's pattern is the shorter sequence: lengths at and
# around one and two 64-bit words on either side
WORD_BOUNDARY_PAIRS = [
    (_cycle("abcab", n), _cycle("bacd", m))
    for n in (63, 64, 65, 128, 129)
    for m in (1, 64, 65)
]
EDGE_PAIRS = [
    ((), _cycle("abc", 70)),
    (_cycle("abc", 70), ()),
    (_cycle("abcabd", 90), _cycle("abcabd", 90)),  # identical
    (_cycle("ab", 80), _cycle("cde", 75)),  # disjoint alphabets
    (("a",) * 70, ("a",) * 3),  # one-symbol alphabet
    (_cycle("abcz", 70), _cycle("abc", 30)),  # "z" only in the longer one
    (_cycle([1, 2, 3, 1, 2], 75), _cycle([2, 1, 3], 60)),
    (_cycle([(0, 1), (1, 0)], 80), _cycle([(1, 0), (0, 1), (0, 0)], 66)),
]


def with_examples(pairs):
    def decorate(test):
        for pair in pairs:
            test = example(pair)(test)
        return test

    return decorate


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein_similarity(["A", "B"], ["A", "B"]) == 1.0

    def test_fully_different(self):
        assert levenshtein_similarity(["A", "B", "C"], ["X", "Y", "Z"]) == 0.0

    def test_kitten_sitting(self):
        assert levenshtein_distance(tuple("kitten"), tuple("sitting")) == 3
        assert levenshtein_similarity(tuple("kitten"), tuple("sitting")) == pytest.approx(
            1 - 3 / 7
        )

    def test_both_empty(self):
        assert levenshtein_similarity([], []) == 1.0

    def test_one_empty(self):
        assert levenshtein_similarity([], ["A", "B"]) == 0.0

    @given(SYMBOLS, SYMBOLS)
    @settings(max_examples=100, deadline=None)
    def test_matches_recursive_oracle(self, a, b):
        assert levenshtein_distance(a, b) == recursive_edit_distance(a, b)

    @given(LONG_PAIRS)
    @with_examples(WORD_BOUNDARY_PAIRS + EDGE_PAIRS)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_dp(self, pair):
        a, b = pair
        reference = levenshtein_distance_reference(a, b)
        assert levenshtein_distance(a, b) == reference
        longest = max(len(a), len(b))
        expected = 1 - reference / longest if longest else 1.0
        assert levenshtein_similarity(a, b) == expected

    def test_long_pair_matches_the_reference_dp(self):
        rng = random.Random(14)
        a = [rng.choice("ABCDEFG") for _ in range(600)]
        b = [rng.choice("ABCDEFG") if rng.random() < 0.3 else symbol for symbol in a]
        del b[100:140]
        reference = levenshtein_distance_reference(a, b)
        assert 40 < reference < 300
        assert levenshtein_distance(a, b) == reference

    @given(SYMBOLS, SYMBOLS)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein_similarity(a, b) == levenshtein_similarity(b, a)

    @given(SYMBOLS, SYMBOLS)
    @settings(max_examples=60, deadline=None)
    def test_identity_of_indiscernibles(self, a, b):
        sim = levenshtein_similarity(a, b)
        if a == b:
            assert sim == 1.0
        else:
            assert sim < 1.0

    @given(SYMBOLS, SYMBOLS, SYMBOLS)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = [str(x) for x in rng.integers(0, 4, rng.integers(0, 9))]
            b = [str(x) for x in rng.integers(0, 4, rng.integers(0, 9))]
            assert 0.0 <= levenshtein_similarity(a, b) <= 1.0


def learnable_log(n_traces: int = 6):
    rows = [("MC", "Taking medicine"), ("W", "Taking medicine"), ("D", "Eating")]
    return make_log([sequence_trace(rows, with_time=False) for _ in range(n_traces)])


class TestLeaveOneTraceOut:
    def test_perfectly_learnable_log_scores_one(self):
        report = leave_one_trace_out(learnable_log(), FAST)
        assert report.mean_similarity == 1.0
        assert np.trace(report.confusion.counts) == report.confusion.total

    def test_two_traces_two_folds(self):
        report = leave_one_trace_out(learnable_log(2), FAST)
        assert len(report.per_trace) == 2

    def test_single_trace_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            leave_one_trace_out(learnable_log(1), FAST)

    def test_mean_equals_recomputation(self):
        report = leave_one_trace_out(learnable_log(5), FAST)
        values = [sim for _, sim in report.per_trace]
        assert report.mean_similarity == pytest.approx(
            sum(values) / len(values), abs=1e-12
        )

    def test_parallel_folds_identical_report(self):
        log = learnable_log(4)
        sequential = leave_one_trace_out(log, FAST)
        parallel = leave_one_trace_out(
            log,
            EvalConfig(
                abstraction=FAST.abstraction,
                similarity_on=FAST.similarity_on,
                n_jobs=2,
            ),
        )
        assert parallel.per_trace == sequential.per_trace
        assert np.array_equal(parallel.confusion.counts, sequential.confusion.counts)


class TestKFold:
    def test_fold_sizes_near_equal(self):
        report = k_fold(learnable_log(7), k=3, seed=1, config=FAST)
        assert len(report.per_trace) == 7

    def test_k_equal_to_traces_matches_loocv_structure(self):
        log = learnable_log(4)
        loocv = leave_one_trace_out(log, FAST)
        kf = k_fold(log, k=4, seed=0, config=FAST)
        assert sorted(kf.per_trace) == sorted(loocv.per_trace)

    def test_union_of_test_folds_is_all_traces(self):
        report = k_fold(learnable_log(9), k=4, seed=3, config=FAST)
        cases = [case for case, _ in report.per_trace]
        assert sorted(cases) == sorted(t.case_id for t in learnable_log(9).traces)
        assert len(set(cases)) == len(cases)

    def test_k_exceeding_traces_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            k_fold(learnable_log(3), k=5, seed=0, config=FAST)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            k_fold(learnable_log(3), k=1, seed=0, config=FAST)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_k_not_an_integer_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            k_fold(learnable_log(3), k=k, seed=0, config=FAST)

    def test_reproducible_for_fixed_seed(self):
        a = k_fold(learnable_log(8), k=3, seed=11, config=FAST)
        b = k_fold(learnable_log(8), k=3, seed=11, config=FAST)
        assert a.per_trace == b.per_trace
        assert np.array_equal(a.confusion.counts, b.confusion.counts)

    @given(st.integers(2, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(2, n), st.integers(0, 2**32 - 1))
    ))
    @settings(max_examples=15, deadline=None)
    def test_folds_partition_the_traces(self, case):
        n, k, seed = case
        log = learnable_log(n)
        report = k_fold(log, k=k, seed=seed, config=FAST)
        held_out = [record.held_out for record in report.folds]
        assert len(held_out) == k
        assert sorted(t for fold in held_out for t in fold) == list(range(n))
        sizes = [len(fold) for fold in held_out]
        assert max(sizes) - min(sizes) <= 1
        assert [case for case, _ in report.per_trace] == [t.case_id for t in log.traces]


def mixed_log(n_traces: int = 7):
    """Traces whose labels the fast model cannot all get right."""
    rng = np.random.default_rng(5)
    names = ("MC", "W", "D", "X")
    labels = ("Taking medicine", "Taking medicine", "Eating", "Eating")
    traces = []
    for _ in range(n_traces):
        picks = rng.integers(0, 4, int(rng.integers(2, 8)))
        rows = [(names[p], labels[p] if rng.random() < 0.8 else labels[3 - p]) for p in picks]
        traces.append(sequence_trace(rows))
    return make_log(traces)


class TestFoldPredictions:
    """Each fold's predictions are those of the public pipeline: fit on the
    other traces, then annotate the fold with its labels stripped."""

    def assert_folds_match_pipeline(self, log, folds, report):
        offsets = np.cumsum([0] + [len(t.events) for t in log.traces])
        predicted = [
            [r.predicted_label for r in report.records[a:b]]
            for a, b in zip(offsets, offsets[1:])
        ]
        for fold in folds:
            rest = [t for i, t in enumerate(log.traces) if i not in fold]
            model = fit(replace(log, traces=rest), FAST.abstraction)
            held_out = strip_labels(replace(log, traces=[log.traces[i] for i in fold]))
            expected = [[ev.label for ev in t.events] for t in annotate(model, held_out).traces]
            assert [predicted[i] for i in fold] == expected

    def test_leave_one_trace_out(self):
        log = mixed_log()
        report = leave_one_trace_out(log, FAST)
        assert report.mean_similarity < 1.0  # not trivially perfect
        folds = [[i] for i in range(len(log.traces))]
        self.assert_folds_match_pipeline(log, folds, report)

    def test_k_fold(self):
        log = mixed_log()
        report = k_fold(log, k=3, seed=4, config=FAST)
        indices = list(range(len(log.traces)))
        random.Random(4).shuffle(indices)
        folds = [[int(i) for i in part] for part in np.array_split(indices, 3)]
        self.assert_folds_match_pipeline(log, folds, report)


class TestParallelReport:
    """n_jobs cuts the folds into shares that run in worker processes; the
    whole report, records and diagnostics included, must not change."""

    CONFIG = EvalConfig(
        abstraction=AbstractionConfig(
            catalog=CatalogConfig(ngram_sizes=(1, 2), time_views=("day",), gmm_max_components=2),
            optimizer=OwlqnConfig(max_iterations=40),
        )
    )

    def log_with_untimed_event(self):
        log = mixed_log(7)
        trace = log.traces[3]
        events = list(trace.events)
        events[1] = Event({k: v for k, v in events[1].attributes.items() if k != TIME_TIMESTAMP})
        traces = list(log.traces)
        traces[3] = Trace(dict(trace.attributes), events)
        return replace(log, traces=traces)

    @pytest.mark.parametrize("cv", ["loocv", "k_fold"])
    def test_n_jobs_gives_an_identical_report(self, cv):
        log = self.log_with_untimed_event()

        def run(n_jobs):
            config = replace(self.CONFIG, n_jobs=n_jobs)
            if cv == "loocv":
                return leave_one_trace_out(log, config)
            return k_fold(log, k=3, seed=2, config=config)

        sequential, parallel = run(1), run(2)
        assert parallel.per_trace == sequential.per_trace
        assert parallel.records == sequential.records
        assert parallel.diagnostics == sequential.diagnostics
        assert parallel.folds == sequential.folds
        assert np.array_equal(parallel.confusion.counts, sequential.confusion.counts)
        held_out = [t for record in sequential.folds for t in record.held_out]
        assert sorted(held_out) == list(range(len(log.traces)))
        if cv == "loocv":
            assert held_out == list(range(len(log.traces)))
        untimed = f"trace {log.traces[3].case_id!r} event 1: no timestamp"
        assert sum(d.startswith(untimed) for d in sequential.diagnostics) == 1

    @pytest.mark.parametrize("n_jobs", [0, 1.5, True, "2"])
    def test_worker_count_must_be_a_positive_integer(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs must be a positive integer"):
            EvalConfig(n_jobs=n_jobs)


class TestStartChannel:
    """With several shares, the workers build their catalogs while the
    parent fits the whole log and sends them its model. A failure on
    either side raises what the serial run raises, at once, and leaves no
    worker behind."""

    def run(self, n_jobs):
        def hung(signum, frame):
            raise TimeoutError("the cross-validation hangs")

        config = replace(TestParallelReport.CONFIG, n_jobs=n_jobs)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        started = time.monotonic()
        try:
            with pytest.raises(OptimizationError, match="mocked") as raised:
                leave_one_trace_out(mixed_log(7), config)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []
        return raised.value, time.monotonic() - started

    def test_a_failing_whole_log_fit_raises_in_the_parent(self, monkeypatch):
        fit_folds = evaluation.fit_folds

        def failing(log, folds, *args):
            if folds == [()]:  # the whole-log fit
                raise OptimizationError("mocked whole-log failure")
            return fit_folds(log, folds, *args)

        monkeypatch.setattr(evaluation, "fit_folds", failing)
        serial, _ = self.run(1)
        parallel, seconds = self.run(2)
        assert str(parallel) == str(serial)
        assert seconds < 1.0

    def test_a_fold_failing_in_a_worker_while_the_parent_fits(self, monkeypatch):
        fit_folds = evaluation.fit_folds

        def patched(log, folds, config, start=lambda: None):
            if folds == [()]:  # the whole-log fit, slow
                time.sleep(0.3)
                model, rows = next(fit_folds(log, folds, config))
                # larger than a pipe's buffer: the parent's write of a copy
                # that no share reads would never return
                catalog = replace(model.catalog, notes=model.catalog.notes + ("x" * 2**20,))
                yield replace(model, catalog=catalog), rows
            elif folds[0] == [0]:  # the first share fails before it needs the start
                raise OptimizationError("mocked fold failure")
            else:
                yield from fit_folds(log, folds, config, start)

        monkeypatch.setattr(evaluation, "fit_folds", patched)
        serial, _ = self.run(1)
        parallel, seconds = self.run(2)
        assert str(parallel) == str(serial)
        assert seconds < 1.0


def partly_single_label_log(n_traces: int = 10):
    """Traces at distinct times of day; those at positions 0, 3, 6, ...
    carry "Eating" only and those at 1, 4, 7, ... "Taking medicine" only."""
    rng = np.random.default_rng(3)
    labels = ("Eating", "Taking medicine")
    traces = []
    for i in range(n_traces):
        picks = rng.integers(0, 2, int(rng.integers(3, 6)))
        if i % 3 < 2:
            picks[:] = i % 3
        rows = [("DW"[p], labels[p]) for p in picks]
        traces.append(sequence_trace(
            rows, start=BASE + timedelta(minutes=53 * i), gap_seconds=60.0 + i
        ))
    return make_log(traces)


class TestWholeLogMixtures:
    """A fold whose held-out traces carry no event of a label draws that
    label's whole-log mixture samples, with the whole log's seed; the log
    keeps the selection and no later fold refits it."""

    CONFIG = EvalConfig(
        abstraction=AbstractionConfig(
            catalog=CatalogConfig(ngram_sizes=(1,), time_views=("day",), gmm_max_components=2),
            optimizer=OwlqnConfig(max_iterations=40),
        )
    )

    @staticmethod
    def single_label_traces(log) -> int:
        return sum(len({ev.label for ev in t.events}) == 1 for t in log.traces)

    def count_sets(self, monkeypatch) -> list[int]:
        counts: list[int] = []
        select = features.gmm_select_bic_many

        def counting(sample_sets, k_max, seeds):
            counts.append(len(sample_sets))
            return select(sample_sets, k_max, seeds)

        monkeypatch.setattr(features, "gmm_select_bic_many", counting)
        return counts

    def test_a_loocv_fits_each_whole_log_set_once(self, monkeypatch):
        log = partly_single_label_log()
        n, single = len(log.traces), self.single_label_traces(log)
        assert 0 < single < n
        counts = self.count_sets(monkeypatch)
        leave_one_trace_out(log, self.CONFIG)
        # two labels with day-view samples in the whole log and in every
        # fold; a single-label fold draws the other label's whole-log set
        assert sum(counts) == 2 * (n + 1) - single

    def test_fold_catalogs_equal_build_catalog_and_the_memo_holds_whole_sets(
        self, monkeypatch
    ):
        log = partly_single_label_log()
        n, single = len(log.traces), self.single_label_traces(log)
        config = self.CONFIG.abstraction.catalog
        folds = [[i] for i in range(n)]
        expected = [
            build_catalog(replace(log, traces=log.traces[:i] + log.traces[i + 1:]), config)
            for i in range(n)
        ]
        interned = InternedLog(log.traces)
        counts = self.count_sets(monkeypatch)
        handed = []
        for _ in range(2):
            for catalog, other in zip(fold_catalogs(interned, folds, config), expected):
                assert catalog == other
                assert json.dumps(catalog.to_dict()) == json.dumps(other.to_dict())
                assert repr(catalog.time_models) == repr(other.time_models)
            handed.append(sum(counts) - sum(handed))
        # each distinct set once: the two whole-log sets, then only the
        # sets the held-out traces drop rows of
        assert handed == [2 * n - single + 2, 2 * n - single]
        whole = build_catalog(log, config).time_models["day"].gmms
        day = interned.coordinates("day")
        whole_sets = {
            day[interned.label_ids == j].tobytes(): whole[label]
            for j, label in enumerate(interned.labels)
        }
        memo = {key: gmm for key, gmm in interned._memo.items() if key[0] == "gmm"}
        assert len(memo) == 2
        for (_, samples, _, _), gmm in memo.items():
            assert whole_sets[samples] == gmm


class TestWarmStart:
    """Every fold starts OWL-QN from the whole-log fit. A warm fold must
    still reach its own objective's optimum, and decode as a fit from zero
    weights on the same batch does."""

    # the criterion-7 configuration (tests/test_acceptance.py)
    CONFIG = AbstractionConfig(
        catalog=CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3),
        l1_coefficient=0.1,
        optimizer=OwlqnConfig(max_iterations=60, tolerance=1e-5),
    )

    def test_warm_folds_reach_the_fold_optimum_and_decode_as_cold_ones(self):
        log = generate_annotated_log(medicine_eating_process(), 20, seed=501)
        interned = InternedLog(log.traces)
        start, _ = next(fit_folds(interned, [()], self.CONFIG))
        folds = [[t] for t in random.Random(3).sample(range(interned.n_traces), 4)]
        c = self.CONFIG.l1_coefficient
        warm_iterations = cold_iterations = 0
        for fold, (warm, held) in zip(
            folds, fit_folds(interned, folds, self.CONFIG, lambda: start)
        ):
            catalog = warm.catalog
            matrix = observation_matrix(catalog, interned)
            batch = fold_batch_of(interned, [fold], [catalog], [matrix])
            whole = interned.per_trace(matrix)
            assert len(held) == len(fold)
            assert all(np.array_equal(rows, whole[t]) for rows, t in zip(held, fold))
            [cold] = fit_group(batch, c, self.CONFIG.optimizer)
            _, optimum = l1_lbfgsb_reference(
                lambda w: nll_and_gradients([w], batch)[0], catalog.n_features, c
            )
            assert abs(warm.training.objective - optimum) <= 5e-4 * optimum
            assert viterbi_decode_many(warm, held) == viterbi_decode_many(cold, held)
            warm_iterations += warm.training.iterations
            cold_iterations += cold.training.iterations
        assert warm_iterations < cold_iterations


class TestMemory:
    def test_loocv_peak_grows_linearly_with_traces(self):
        # the doubled log repeats every trace under a new case id, so it has
        # exactly twice the events. Holding every fold's observation matrix,
        # or every fold's mixture samples, at once grows the peak about
        # threefold here (measured 2.95 and 3.09; this design 1.85).
        # Single-component mixtures keep EM's share of the peak small
        log = generate_annotated_log(medicine_eating_process(), 20, seed=11)
        copies = [
            Trace({CONCEPT_NAME: AttributeValue.string(f"{t.case_id}-copy")}, t.events)
            for t in log.traces
        ]
        config = EvalConfig(
            abstraction=AbstractionConfig(
                catalog=CatalogConfig(
                    ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=1
                ),
                optimizer=OwlqnConfig(max_iterations=3),
            )
        )
        leave_one_trace_out(replace(log, traces=log.traces[:3]), config)  # warm-up
        peaks = []
        for traces in (log.traces, log.traces + copies):
            tracemalloc.start()
            try:
                leave_one_trace_out(replace(log, traces=traces), config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.5 * peaks[0]

    def test_loocv_peak_grows_linearly_with_three_components(self):
        # EM's packed buffer holds 1 + 2 + 3 entries per sample row at
        # k_max 3, so this checks that the EM row budget of fold_catalogs
        # still keeps the peak linear in the log. Measured ratio 1.89 (2.77
        # and 5.25 MB), and 1.98 with the budget lifted, at this log size
        log = generate_annotated_log(medicine_eating_process(), 20, seed=11)
        copies = [
            Trace({CONCEPT_NAME: AttributeValue.string(f"{t.case_id}-copy")}, t.events)
            for t in log.traces
        ]
        config = EvalConfig(
            abstraction=AbstractionConfig(
                catalog=CatalogConfig(
                    ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3
                ),
                optimizer=OwlqnConfig(max_iterations=3),
            )
        )
        leave_one_trace_out(replace(log, traces=log.traces[:3]), config)  # warm-up
        peaks = []
        for traces in (log.traces, log.traces + copies):
            tracemalloc.start()
            try:
                leave_one_trace_out(replace(log, traces=traces), config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.5 * peaks[0]

    def test_loocv_peak_grows_linearly_without_mixtures(self):
        # without time views there are no mixtures, so the EM budget of
        # fold_catalogs bounds nothing: only the lockstep group size keeps
        # every fold's observation matrix from being held at once. Measured
        # ratios: 1.99 with groups of 16 folds, 3.76 with every fold in one
        # group
        log = generate_annotated_log(medicine_eating_process(), 20, seed=11)
        copies = [
            Trace({CONCEPT_NAME: AttributeValue.string(f"{t.case_id}-copy")}, t.events)
            for t in log.traces
        ]
        config = EvalConfig(
            abstraction=AbstractionConfig(
                catalog=CatalogConfig(ngram_sizes=(1, 2, 3), time_views=()),
                optimizer=OwlqnConfig(max_iterations=3),
            )
        )
        leave_one_trace_out(replace(log, traces=log.traces[:3]), config)  # warm-up
        peaks = []
        for traces in (log.traces, log.traces + copies):
            tracemalloc.start()
            try:
                leave_one_trace_out(replace(log, traces=traces), config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.5 * peaks[0]


    def test_loocv_catalogs_peak_is_held_by_the_em_row_budget(self):
        # at 20 traces EM is not at a LOOCV's peak, so the cases above
        # cannot see the budget. At 40 traces, all LOOCV catalogs peak at
        # 10.0-10.4 times one build_catalog (seeds 1-3), and at 21.4-22.4
        # times with the budget lifted, every fold's samples in one EM run
        log = generate_annotated_log(medicine_eating_process(), 40, seed=1)
        config = CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3)
        folds = [[t] for t in range(len(log.traces))]
        build_catalog(log, config)  # warm-up
        peaks = []
        for build in (
            lambda: build_catalog(log, config),
            lambda: list(fold_catalogs(InternedLog(log.traces), folds, config)),
        ):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 15 * peaks[0]

    def test_k_fold_peak_is_held_by_the_fold_group_budget(self):
        # 200 household traces (2,809 events): each of 10 folds trains on
        # about 2,500 rows, so the training-row budget cuts the folds into
        # groups of four. The CV then peaks at 2.1 times one fit (seeds 1-3:
        # 2.08-2.09); with lockstep groups of up to 16 folds, whatever the
        # log's size, it peaked at 5.56-5.62 times
        log = generate_annotated_log(medicine_eating_process(), 200, seed=1)
        config = AbstractionConfig(
            catalog=CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3),
            optimizer=OwlqnConfig(max_iterations=3),
        )
        fit(log, config)  # warm-up
        peaks = []
        for run in (
            lambda: fit(log, config),
            lambda: k_fold(log, 10, 1, EvalConfig(abstraction=config)),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 3 * peaks[0]


class TestSimilarityModes:
    def test_runs_mode_collapses_before_scoring(self):
        assert collapse_runs(["A", "A", "B", "B", "A"]) == ["A", "B", "A"]
        report = leave_one_trace_out(
            learnable_log(4),
            EvalConfig(abstraction=FAST.abstraction, similarity_on="runs"),
        )
        assert report.similarity_on == "runs"
        assert report.mean_similarity == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="events.*runs|runs.*events"):
            EvalConfig(similarity_on="chunks")


class TestConfusion:
    def make_report(self, records) -> AbstractionReport:
        from eventabs.evaluation import EventRecord

        labels = tuple(sorted({r[1] for r in records} | {r[2] for r in records}))
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for _, t, p in records:
            counts[labels.index(t), labels.index(p)] += 1
        return AbstractionReport(
            per_trace=[("case_0", 1.0)],
            mean_similarity=1.0,
            confusion=ConfusionMatrix(labels, counts),
            precision={},
            recall={},
            records=[EventRecord(*r) for r in records],
        )

    def test_perfect_predictor_diagonal(self):
        report = self.make_report([
            ("Drum Spin Start", "Developing", "Developing"),
            ("Drum Spin Start", "Developing", "Developing"),
            ("Drum Spin Stop", "Writing", "Writing"),
        ])
        matrix = confusion_restricted(
            report, {"Drum Spin Start", "Drum Spin Stop"}, {"Developing", "Writing"}
        )
        assert matrix.count("Developing", "Developing") == 2
        assert matrix.count("Writing", "Writing") == 1
        assert matrix.counts.sum() == np.trace(matrix.counts)

    def test_restriction_to_absent_names_is_zero(self):
        report = self.make_report([("A", "X", "X")])
        matrix = confusion_restricted(report, {"absent"}, {"X"})
        assert matrix.total == 0

    def test_restriction_filters_by_concept_name(self):
        report = self.make_report([
            ("keep", "X", "Y"),
            ("drop", "X", "X"),
        ])
        matrix = confusion_restricted(report, {"keep"}, {"X", "Y"})
        assert matrix.count("X", "Y") == 1
        assert matrix.total == 1

    def test_precision_recall(self):
        matrix = ConfusionMatrix(
            ("A", "B"), np.array([[8, 2], [1, 9]], dtype=np.int64)
        )
        assert matrix.precision()["A"] == pytest.approx(8 / 9)
        assert matrix.recall()["A"] == pytest.approx(8 / 10)
        assert matrix.total == 20

    def test_report_json_roundtrip_fields(self):
        report = self.make_report([("A", "X", "X")])
        data = report.to_dict()
        assert set(data) >= {
            "mean_similarity", "per_trace", "confusion", "precision", "recall"
        }
        assert report.to_json()
        assert "confusion" in report.to_json()
