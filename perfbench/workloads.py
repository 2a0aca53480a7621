"""The three benchmark workloads, each a closed loop with one caller.

A workload has a ``setup`` (its seeded inputs, timed as ``setup_s``), an
untraced ``op`` that the measurement loop repeats, and a ``traced`` pass
that replays the same work as direct calls into each layer's public
functions, with a span around every call (see README.md).
"""

from __future__ import annotations

import gc
import hashlib
import io
import math
import os
import random
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

from eventabs import (
    AbstractionConfig,
    CatalogConfig,
    EvalConfig,
    EventLog,
    annotate,
    build_catalog,
    collapse,
    fit,
    leave_one_trace_out,
    levenshtein_similarity,
    load_model,
    parse_xes,
    save_model,
    serialize_xes,
    strip_labels,
)
from eventabs import crf
from eventabs.evaluation import collapse_runs
from eventabs.features import evaluate_observations
from eventabs.owlqn import OwlqnConfig
from eventabs.xes import LABEL, Trace, sensor_series_to_log

import inputs
from hostspeed import HostProbe
from tracer import Tracer

# Criterion-7 configuration of tests/test_acceptance.py (EXPERIMENT_CONFIG).
OPTIMIZER = OwlqnConfig(max_iterations=60, tolerance=1e-5)
HOUSEHOLD_CONFIG = AbstractionConfig(
    catalog=CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3),
    l1_coefficient=0.1,
    optimizer=OPTIMIZER,
)
# Default catalog (all three time views, k_max 5), same optimizer cap.
SENSOR_CONFIG = AbstractionConfig(l1_coefficient=0.1, optimizer=OPTIMIZER)

# Pinned criterion-7 bounds, source tests/test_acceptance.py
# (PINNED_MEAN_SIMILARITY, PINNED_ALTERNATION_FRACTION), checked on the
# medians of a loocv-household run.
PINNED_MEAN_SIMILARITY = 0.98
PINNED_ALTERNATION_FRACTION = 0.995
# Criterion 7 (a) and the unpinned floor of 7 (b), checked per operation.
ALTERNATION_FLOOR = 0.90

FAMILIES = ("bias", "concept_ngram", "org_ngram", "time_view", "lifecycle_duration")
TRACED_FOLDS = 8
LOOCV_FIT_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    loocv_traces: int = 40
    bulk_traces: int = 150
    sensor_train_days: int = 6
    sensor_test_days: int = 3


class Outcome:
    """Operations and output checks attempted and failed, plus the
    per-operation samples of each end-to-end metric."""

    def __init__(self, host: HostProbe | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.host = host

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def record(self, **values: float) -> None:
        for name, value in values.items():
            self.samples.setdefault(name, []).append(float(value))

    def timed(self, function, *args):
        """Time of one call, after a full garbage collection so that a
        collection owed by earlier work does not land inside the timing;
        scaled to the nominal host speed when the run has a host probe."""
        gc.collect()
        start = time.perf_counter()
        result = function(*args)
        duration = time.perf_counter() - start
        if self.host is not None:
            duration = self.host.scaled(duration)
        return duration, result


def _span(tracer: Tracer | None, name: str, **counts: float):
    return nullcontext() if tracer is None else tracer.span(name, **counts)


def labels_of(log: EventLog) -> list[list[str]]:
    return [[ev.label for ev in trace.events] for trace in log.traces]


def mean_similarity(truth: list[list[str]], predicted: list[list[str]]) -> float:
    return statistics.fmean(levenshtein_similarity(t, p) for t, p in zip(truth, predicted))


def alternation_fraction(predicted: list[list[str]]) -> float:
    """Criterion 7 (b): collapsed runs alternate, starting and ending with
    "Taking medicine"."""
    ok = 0
    for labels in predicted:
        runs = collapse_runs(labels)
        ok += bool(runs) and runs[0] == runs[-1] == inputs.TAKING_MEDICINE and all(
            a != b for a, b in zip(runs, runs[1:])
        ) and set(runs) <= {inputs.TAKING_MEDICINE, inputs.EATING}
    return ok / len(predicted)


def baseline_similarities(log: EventLog) -> tuple[float, float]:
    """Leave-one-trace-out means of the majority-label and the per-name
    lookup baselines, as in tests/test_acceptance.py."""
    truth = labels_of(log)
    names = [[ev.name for ev in trace.events] for trace in log.traces]
    all_labels = Counter(l for seq in truth for l in seq)
    all_pairs = Counter((n, l) for ns, ls in zip(names, truth) for n, l in zip(ns, ls))
    majority_sims, lookup_sims = [], []
    for ns, ls in zip(names, truth):
        label_counts = all_labels - Counter(ls)
        pair_counts = all_pairs - Counter(zip(ns, ls))
        overall = max(sorted(label_counts), key=label_counts.__getitem__)
        per_name: dict[str, Counter] = {}
        for (n, l), c in pair_counts.items():
            per_name.setdefault(n, Counter())[l] = c
        lookup = [
            max(sorted(per_name[n]), key=per_name[n].__getitem__) if n in per_name else overall
            for n in ns
        ]
        majority_sims.append(levenshtein_similarity(ls, [overall] * len(ls)))
        lookup_sims.append(levenshtein_similarity(ls, lookup))
    return statistics.fmean(majority_sims), statistics.fmean(lookup_sims)


# --- the annotate path shared by all workloads ---------------------------------


@dataclass
class Inputs:
    train: EventLog             # annotated training log
    test_bytes: bytes           # unannotated log handed to the annotate path, as XES
    truth: list[list[str]]      # ground-truth labels of the test log
    config: AbstractionConfig
    all_families: bool = False  # the catalog must hold all five families

    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.test_bytes)
        digest.update(serialize_xes(self.train))
        return digest.hexdigest()


def annotate_path(model, test_bytes: bytes, tracer: Tracer | None = None):
    """parse_xes -> annotate -> collapse -> serialize_xes."""
    with _span(tracer, "xes.parse", bytes=len(test_bytes)):
        unlabeled = parse_xes(test_bytes)
    with _span(tracer, "abstraction.annotate", events=unlabeled.event_count()):
        annotated = annotate(model, unlabeled)
    with _span(tracer, "abstraction.collapse"):
        high = collapse(annotated)
    with _span(tracer, "xes.serialize") as span:
        out = serialize_xes(high)
    if span is not None:
        span.counts["bytes"] = len(out)
    return unlabeled, annotated, high


def check_annotation(outcome: Outcome, unlabeled: EventLog, annotated: EventLog, high: EventLog) -> None:
    keeps = len(unlabeled.traces) == len(annotated.traces) and all(
        a.attributes == b.attributes
        and len(a.events) == len(b.events)
        and all(
            LABEL in eb.attributes
            and {k: v for k, v in eb.attributes.items() if k != LABEL} == ea.attributes
            for ea, eb in zip(a.events, b.events)
        )
        for a, b in zip(unlabeled.traces, annotated.traces)
    )
    outcome.check(keeps, "annotate keeps trace and event counts and all non-label attributes")
    two_per_run = all(
        len(h.events) == 2 * len(collapse_runs([ev.label for ev in a.events]))
        for a, h in zip(annotated.traces, high.traces)
    )
    outcome.check(two_per_run, "collapse emits two events per predicted run")


def check_reload(outcome: Outcome, model, unlabeled: EventLog, predicted: list[list[str]]) -> None:
    buffer = io.StringIO()
    save_model(model, buffer)
    reloaded = load_model(io.StringIO(buffer.getvalue()))
    again = labels_of(annotate(reloaded, unlabeled))
    outcome.check(again == predicted, "load_model(save_model(m)) decodes identically")


def subseed(seed: int, index: int, purpose: str) -> int:
    """A generator seed for one purpose of operation ``index`` of a run."""
    return random.Random(f"{purpose}:{seed}:{index}").randrange(2**31)


def fit_annotate_op(inp: Inputs, outcome: Outcome, first: bool) -> None:
    """Train, run the annotate path, score: the operation of the
    household-bulk and sensor-long workloads. ``cv_s`` is the whole
    train-and-score validation."""
    fit_s, model = outcome.timed(fit, inp.train, inp.config)
    annotate_s, (unlabeled, annotated, high) = outcome.timed(annotate_path, model, inp.test_bytes)
    predicted = labels_of(annotated)
    score_s, similarity = outcome.timed(mean_similarity, inp.truth, predicted)
    outcome.attempted += 2  # the fit and the annotate call
    outcome.record(
        cv_s=fit_s + annotate_s + score_s, fit_s=fit_s, annotate_s=annotate_s,
        mean_similarity=similarity,
    )
    check_annotation(outcome, unlabeled, annotated, high)
    if inp.all_families:
        check_families(outcome, model.catalog)
    if first:
        check_reload(outcome, model, unlabeled, predicted)


def check_families(outcome: Outcome, catalog) -> None:
    families = {d.family for d in catalog.observation_features}
    outcome.check(set(FAMILIES) <= families, f"catalog has all five families, got {sorted(families)}")


# --- loocv-household -----------------------------------------------------------


def loocv_setup(seed: int, index: int, sizes: Sizes, tracer: Tracer | None = None) -> Inputs:
    with _span(tracer, "petri.generate") as span:
        reference = inputs.household_reference(sizes.loocv_traces)
        log = inputs.household_log(reference, subseed(seed, index, "loocv"))
    if span is not None:
        span.counts["events"] = log.event_count()
    with _span(tracer, "xes.serialize"):
        test_bytes = serialize_xes(strip_labels(log))
    return Inputs(train=log, test_bytes=test_bytes, truth=labels_of(log), config=HOUSEHOLD_CONFIG)


def loocv_config() -> EvalConfig:
    return EvalConfig(abstraction=HOUSEHOLD_CONFIG, n_jobs=min(2, os.cpu_count() or 1))


def loocv_op(inp: Inputs, outcome: Outcome, first: bool) -> None:
    """leave_one_trace_out (``cv_s``), then LOOCV_FIT_REPEATS of its folds
    from outside: a fit on the log less one trace, and the annotate path on
    the whole log without its labels. A fit takes a few tenths of a second
    and its cost swings with the objective evaluations OWL-QN makes, which
    differ from fold to fold as much as from log to log, so three folds of
    each log give the run's medians three times the inputs."""
    log = inp.train
    cv_s, report = outcome.timed(leave_one_trace_out, log, loocv_config())
    outcome.record(cv_s=cv_s, mean_similarity=report.mean_similarity)
    for j in range(LOOCV_FIT_REPEATS):
        held_out = j * len(log.traces) // LOOCV_FIT_REPEATS
        fit_s, model = outcome.timed(fit, inputs.without_trace(log, held_out), inp.config)
        annotate_s, (unlabeled, annotated, high) = outcome.timed(annotate_path, model, inp.test_bytes)
        outcome.record(fit_s=fit_s, annotate_s=annotate_s)
    outcome.attempted += len(log.traces) + 2 * LOOCV_FIT_REPEATS  # folds, fits, annotate calls

    offsets = [0]
    for trace in log.traces:
        offsets.append(offsets[-1] + len(trace.events))
    predicted = [
        [r.predicted_label for r in report.records[a:b]] for a, b in zip(offsets, offsets[1:])
    ]
    alternation = alternation_fraction(predicted)
    majority, lookup = baseline_similarities(log)
    outcome.check(len(report.records) == offsets[-1], "report covers every event")
    outcome.check(report.mean_similarity > max(majority, lookup),
                  f"criterion 7(a): {report.mean_similarity:.4f} beats baselines "
                  f"{majority:.4f}/{lookup:.4f}")
    outcome.check(alternation >= ALTERNATION_FLOOR, f"criterion 7(b): alternation {alternation:.4f}")
    check_annotation(outcome, unlabeled, annotated, high)
    if first:
        check_reload(outcome, model, unlabeled, labels_of(annotated))
    outcome.record(alternation_fraction=alternation)


def check_pinned_bounds(outcome: Outcome) -> None:
    """The pinned criterion-7 bounds, on the run's medians: a single
    40-trace log falls below 0.98 now and then (3 of 69 operations on
    seeds 101-110), the median over a run's operations does not."""
    similarity = statistics.median(outcome.samples["mean_similarity"])
    alternation = statistics.median(outcome.samples["alternation_fraction"])
    outcome.check(similarity >= PINNED_MEAN_SIMILARITY,
                  f"pinned criterion 7: median similarity {similarity:.4f}")
    outcome.check(alternation >= PINNED_ALTERNATION_FRACTION,
                  f"pinned criterion 7: median alternation {alternation:.4f}")


# --- household-bulk ------------------------------------------------------------


def bulk_setup(seed: int, index: int, sizes: Sizes, tracer: Tracer | None = None) -> Inputs:
    with _span(tracer, "petri.generate") as span:
        reference = inputs.household_reference(sizes.bulk_traces)
        train = inputs.household_log(reference, subseed(seed, index, "bulk-train"))
        test = inputs.household_log(reference, subseed(seed, index, "bulk-test"))
    if span is not None:
        span.counts["events"] = train.event_count() + test.event_count()
    with _span(tracer, "xes.serialize"):
        test_bytes = serialize_xes(strip_labels(test))
    return Inputs(train=train, test_bytes=test_bytes, truth=labels_of(test), config=HOUSEHOLD_CONFIG)


# --- sensor-long ---------------------------------------------------------------


def sensor_setup(seed: int, index: int, sizes: Sizes, tracer: Tracer | None = None) -> Inputs:
    n_train, n_test = sizes.sensor_train_days, sizes.sensor_test_days
    logs = []
    # training days run Wednesday to Monday, so they hold both weekend days
    for first_day, n_days, purpose in ((2, n_train, "sensor-train"),
                                       (2 + n_train, n_test, "sensor-test")):
        day_seed = subseed(seed, index, purpose)
        lengths = inputs.day_lengths(n_days, day_seed)
        series, truth = inputs.sensor_days(first_day, lengths, day_seed)
        with _span(tracer, "xes.sensor_convert", events=sum(lengths)):
            raw = sensor_series_to_log(series)
        logs.append(inputs.label_sensor_log(raw, truth))
    train, test = logs
    with _span(tracer, "xes.serialize"):
        test_bytes = serialize_xes(strip_labels(test))
    return Inputs(train=train, test_bytes=test_bytes, truth=labels_of(test),
                  config=SENSOR_CONFIG, all_families=True)


# --- traced pass -----------------------------------------------------------------


def _traced_train(tracer: Tracer, train: EventLog, config: AbstractionConfig, state: dict):
    """abstraction.fit replayed as its two public calls."""
    hooks: list[float] = []
    with tracer.span("features.build_catalog"):
        catalog = build_catalog(train, config.catalog)
    with tracer.span("crf.train", events=train.event_count()):
        model = crf.train(train, catalog, l1_coefficient=config.l1_coefficient,
                          optimizer_config=config.optimizer,
                          objective_hook=lambda _: hooks.append(time.perf_counter()))
    state["intervals"] += [b - a for a, b in zip(hooks, hooks[1:])]
    state["results"].append(model.training)
    state["train_inputs"].append((train, catalog))
    return model


def _traced_extras(tracer: Tracer, model, unlabeled: EventLog, state: dict) -> list[list[str]]:
    """Work the traced pass adds outside the mirrored operation: feature
    evaluation of each training set (so crf self time is train minus it)
    and per-trace Viterbi split from feature evaluation."""
    for train, catalog in state.pop("train_inputs"):
        with tracer.span("extra.crf.training_pairs", events=train.event_count()):
            crf.training_pairs(train, catalog)
    state["train_inputs"] = []
    decoded = []
    for trace in unlabeled.traces:
        with tracer.span("extra.features.evaluate_observations", events=len(trace.events)):
            observations = evaluate_observations(model.catalog, trace)
        with tracer.span("extra.crf.viterbi_decode", events=len(trace.events)):
            decoded.append(crf.viterbi_decode(model, observations))
    return decoded


def _peak_train_alloc_mb(train: EventLog, catalog, config: AbstractionConfig) -> float:
    tracemalloc.start()
    try:
        crf.train(train, catalog, l1_coefficient=config.l1_coefficient,
                  optimizer_config=config.optimizer)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced(workload: str, seed: int, sizes: Sizes, outcome: Outcome) -> tuple[dict, Tracer]:
    tracer = Tracer()
    setup = SETUPS[workload]
    inp = setup(seed, 0, sizes, tracer)
    state: dict = {"intervals": [], "results": [], "train_inputs": []}
    log = inp.train
    folds: list[int] = []
    if workload == "loocv-household":
        folds = sorted(random.Random(seed).sample(range(len(log.traces)), min(TRACED_FOLDS, len(log.traces))))

    # the mirrored operation, traced
    fold_predictions = []
    with tracer.span("op") as op:
        for i in folds:
            with tracer.span("evaluation.fold", fold=i):
                fold_train = inputs.without_trace(log, i)
                model = _traced_train(tracer, fold_train, inp.config, state)
                held_out = inputs.with_traces(log, [log.traces[i]])
                with tracer.span("abstraction.strip_labels"):
                    probe = strip_labels(held_out)
                with tracer.span("abstraction.annotate", events=len(log.traces[i].events)):
                    predicted = labels_of(annotate(model, probe))
                with tracer.span("evaluation.score"):
                    levenshtein_similarity(inp.truth[i], predicted[0])
            fold_predictions.append(predicted[0])
            _traced_extras(tracer, model, probe, state)
        with tracer.span("abstraction.fit", events=log.event_count()):
            model = _traced_train(tracer, log, inp.config, state)
        unlabeled, annotated, high = annotate_path(model, inp.test_bytes, tracer)
        predicted = labels_of(annotated)
        with tracer.span("evaluation.score"):
            similarity = mean_similarity(inp.truth, predicted)
    traced_s = op.duration
    train_catalog = state["train_inputs"][-1][1]
    decoded = _traced_extras(tracer, model, unlabeled, state)
    outcome.check(decoded == predicted, "per-trace Viterbi equals annotate")
    buffer = io.StringIO()
    with tracer.span("abstraction.save_model"):
        save_model(model, buffer)
    with tracer.span("abstraction.load_model"):
        reloaded = load_model(io.StringIO(buffer.getvalue()))
    outcome.check(labels_of(annotate(reloaded, unlabeled)) == predicted,
                  "load_model(save_model(m)) decodes identically")
    check_annotation(outcome, unlabeled, annotated, high)
    if inp.all_families:
        check_families(outcome, model.catalog)

    # the same operation untraced, for the overhead and the prediction check
    start = time.perf_counter()
    untraced_folds = []
    for i in folds:
        fold_model = fit(inputs.without_trace(log, i), inp.config)
        probe = strip_labels(inputs.with_traces(log, [log.traces[i]]))
        untraced_folds.append(labels_of(annotate(fold_model, probe))[0])
        levenshtein_similarity(inp.truth[i], untraced_folds[-1])
    untraced_model = fit(log, inp.config)
    _, untraced_annotated, _ = annotate_path(untraced_model, inp.test_bytes)
    mean_similarity(inp.truth, labels_of(untraced_annotated))
    untraced_s = time.perf_counter() - start
    outcome.check(untraced_folds == fold_predictions and labels_of(untraced_annotated) == predicted,
                  "traced predictions equal untraced predictions")
    outcome.attempted += 2 * (len(folds) + 1)

    peak_mb = _peak_train_alloc_mb(log, train_catalog, inp.config)
    metrics = layer_metrics(tracer, state, model.catalog, peak_mb)
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics["trace.mean_similarity"] = similarity
    return metrics, tracer


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, state: dict, catalog, peak_mb: float) -> dict[str, float]:
    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in tracer.named(name))

    results = state["results"]
    iterations = sum(r.iterations for r in results)
    evaluations = sum(r.evaluations for r in results)
    banks = list(catalog.time_models.values()) + list(catalog.duration_models.values())
    tables = list(catalog.concept_tables.values()) + list(catalog.org_tables.values())
    folds = [s.duration for s in tracer.named("evaluation.fold")]
    train_s = tracer.total("crf.train")
    pairs_s = tracer.total("extra.crf.training_pairs")
    return {
        "petri.generate_s": tracer.total("petri.generate"),
        "petri.events": count("petri.generate", "events"),
        "xes.parse_s": tracer.total("xes.parse"),
        "xes.serialize_s": tracer.total("xes.serialize"),
        "xes.bytes": count("xes.parse", "bytes") + count("xes.serialize", "bytes"),
        "xes.sensor_convert_s": tracer.total("xes.sensor_convert"),
        "stats.gmm_banks": len(banks),
        "stats.gmm_components": sum(g.n_components for b in banks for g in b.gmms.values()),
        "stats.multinoulli_contexts": sum(len(t.counts) for t in tables),
        "features.build_catalog_s": tracer.total("features.build_catalog"),
        "features.build_catalog_calls": len(tracer.named("features.build_catalog")),
        "features.evaluate_s": pairs_s + tracer.total("extra.features.evaluate_observations"),
        "features.evaluated_events": count("extra.crf.training_pairs", "events")
        + count("extra.features.evaluate_observations", "events"),
        "features.observation_features": catalog.n_observation_features,
        "crf.train_s": train_s,
        "crf.train_self_s": train_s - pairs_s,
        "crf.objective_interval_s_p50": statistics.median(state["intervals"]),
        "crf.train_peak_alloc_mb": peak_mb,
        "crf.viterbi_s": tracer.total("extra.crf.viterbi_decode"),
        "crf.decoded_events": count("extra.crf.viterbi_decode", "events"),
        "owlqn.iterations": iterations,
        "owlqn.evaluations": evaluations,
        "owlqn.evals_per_iteration": evaluations / iterations,
        "owlqn.converged_fraction": sum(r.converged for r in results) / len(results),
        "owlqn.nonzero": statistics.median(r.nonzero for r in results),
        "abstraction.fit_s": tracer.total("abstraction.fit"),
        "abstraction.annotate_s": tracer.total("abstraction.annotate"),
        "abstraction.collapse_s": tracer.total("abstraction.collapse"),
        "abstraction.save_model_s": tracer.total("abstraction.save_model"),
        "abstraction.load_model_s": tracer.total("abstraction.load_model"),
        "evaluation.folds": len(folds),
        "evaluation.fold_s_p50": _percentile(folds, 0.5),
        "evaluation.fold_s_p95": _percentile(folds, 0.95),
        "evaluation.score_s": tracer.total("evaluation.score"),
    }


SETUPS = {
    "loocv-household": loocv_setup,
    "household-bulk": bulk_setup,
    "sensor-long": sensor_setup,
}
OPS = {
    "loocv-household": loocv_op,
    "household-bulk": fit_annotate_op,
    "sensor-long": fit_annotate_op,
}
RUN_CHECKS = {"loocv-household": check_pinned_bounds}
