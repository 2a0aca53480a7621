"""The end-to-end pipeline: train on annotated traces, predict label
attributes on unannotated traces, and collapse label runs into a
high-level start/complete log. Also owns model persistence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .crf import CrfModel, TrainingBatch, fit_group, viterbi_decode_many
from .errors import EventabsError, InputError, read_text
from .features import (
    CatalogConfig,
    FeatureCatalog,
    InternedLog,
    fold_catalogs,
    fold_groups,
    neutral_time_notes,
    observation_matrix,
)
from .owlqn import OptimizationError, OwlqnConfig
from .stats import EstimationError
from .xes import (
    CONCEPT_NAME,
    LABEL,
    LIFECYCLE_TRANSITION,
    TIME_TIMESTAMP,
    AttributeValue,
    Event,
    EventLog,
    SharedStrings,
    Trace,
)

__all__ = [
    "AbstractionConfig",
    "ModelIOError",
    "fit",
    "fit_folds",
    "annotate",
    "prune",
    "collapse",
    "strip_labels",
    "save_model",
    "load_model",
    "MODEL_FORMAT",
    "MODEL_VERSION",
]

MODEL_FORMAT = "eventabs-crf-model"
MODEL_VERSION = 1


class ModelIOError(EventabsError):
    """A model file is missing, corrupt, or of an unsupported version."""


@dataclass(frozen=True)
class AbstractionConfig:
    catalog: CatalogConfig = CatalogConfig()
    l1_coefficient: float = 0.1
    optimizer: OwlqnConfig = OwlqnConfig()

    def __post_init__(self) -> None:
        if not 0 <= self.l1_coefficient < np.inf:
            raise InputError("l1_coefficient must be non-negative and finite")


def fit_folds(
    log: InternedLog,
    folds: Iterable[Iterable[int]],
    config: AbstractionConfig = AbstractionConfig(),
    start: Callable[[], CrfModel | None] = lambda: None,
) -> Iterator[tuple[CrfModel, list[np.ndarray]]]:
    """Per fold, in fold order, the model fitted on the log less the fold's
    traces, with the fold's held-out observation rows under its catalog,
    one (events, F_obs) array per held-out trace in fold order, which the
    fold's traces are decoded from. The folds are checked and cut into
    groups by their training rows (:func:`fold_groups`). A group's
    catalogs are built together (:func:`fold_catalogs`, one packed EM
    run), and its folds are trained in lockstep on one batch over the
    whole log (:class:`TrainingBatch`, :func:`fit_group`), split where the
    label alphabet size changes: one problem per fold, whose trace mask
    leaves out the fold's traces, so one forward-backward pass serves an
    objective evaluation of every fold of the batch. A batch's whole-log
    observation matrices are built one at a time and dropped once the
    batch has gathered the fold's training rows, so a batch holds one copy
    of each fold's rows. A fold's model does not depend on the folds
    trained beside it.

    Each fit starts from the weights of the model ``start()`` returns,
    mapped into the fold catalog's layout
    (:meth:`FeatureCatalog.weights_from`), or from zero where it returns
    None. ``start`` is called once per lockstep batch, after the batch's
    catalogs and the batch are built, which do not read it, so a caller
    may hand in a provider that waits for a model fitted elsewhere. A
    fold whose start point is non-finite raises
    :class:`OptimizationError` when its turn to be yielded comes."""
    for group in fold_groups(log, folds):
        catalogs = fold_catalogs(log, group, config.catalog)
        for _, lockstep in groupby(zip(group, catalogs), key=lambda pair: pair[1].n_labels):
            yield from _fit_lockstep(log, list(lockstep), config, start)


def _fit_lockstep(
    log: InternedLog,
    group: list[tuple[list[int], FeatureCatalog]],
    config: AbstractionConfig,
    start: Callable[[], CrfModel | None],
) -> Iterator[tuple[CrfModel, list[np.ndarray]]]:
    held: list[list[np.ndarray]] = []

    def problems() -> Iterator[tuple[FeatureCatalog, np.ndarray, np.ndarray, np.ndarray]]:
        # one whole-log matrix at a time: the batch gathers the fold's
        # training rows from it, and decoding needs only its held-out rows
        for fold, catalog in group:
            matrix = observation_matrix(catalog, log)
            held.append([matrix[log.offsets[t]:log.offsets[t + 1]].copy() for t in fold])
            kept = np.ones(log.n_traces, dtype=bool)
            kept[fold] = False
            # held-out labels may be missing or outside the fold's alphabet
            labels = np.zeros(log.n_events, dtype=np.intp)
            events = np.flatnonzero(np.repeat(kept, log.lengths))
            labels[events] = log.label_indices(catalog.labels, events)
            yield catalog, matrix, labels, kept

    batch = TrainingBatch(log.lengths, problems())
    warm = start()
    initials = [
        None if warm is None else catalog.weights_from(warm.catalog, warm.weights)
        for _, catalog in group
    ]
    models = fit_group(batch, config.l1_coefficient, config.optimizer, initials)
    del batch  # its buffers and packed rows are not held while the models are used
    for model, rows in zip(models, held):
        if isinstance(model, OptimizationError):
            raise model
        yield model, rows


def fit(
    annotated: EventLog,
    config: AbstractionConfig = AbstractionConfig(),
) -> CrfModel:
    """Build the feature catalog on the annotated log and train the CRF:
    the one-fold case of :func:`fit_folds`, holding nothing out. Skipped
    families and sub-model warnings are in ``model.catalog.notes``."""
    return next(fit_folds(InternedLog(annotated.traces), [()], config))[0]


def prune(model: CrfModel) -> CrfModel:
    """The model restricted to the observation features with a nonzero
    weight, and the tables and banks they read
    (:meth:`FeatureCatalog.restrict`), with the whole transition block. The
    weights are laid out anew (:meth:`FeatureCatalog.weights_from`); a
    dropped feature adds zero to every emission, so the pruned model scores
    every labeling as ``model`` does."""
    catalog = model.catalog
    w_obs, _ = catalog.split(model.weights)
    pruned = catalog.restrict(
        d for d, w in zip(catalog.observation_features, w_obs.tolist()) if w != 0.0
    )
    return CrfModel(
        pruned, pruned.weights_from(catalog, model.weights), model.l1_coefficient, model.training
    )


def annotate(
    model: CrfModel,
    unannotated: EventLog,
    diagnostics: list[str] | None = None,
) -> EventLog:
    """Attach a decoded label attribute to every event.

    All other attributes are untouched; trace and event counts are
    preserved. Events lacking attributes a feature family needs are scored
    with neutral feature values (recorded in ``diagnostics``, under the
    whole catalog). Decoding evaluates only the features that L1 left a
    nonzero weight (:func:`prune`).
    """
    log = InternedLog(unannotated.traces)
    if diagnostics is not None:
        diagnostics.extend(neutral_time_notes(model.catalog, log, range(log.n_traces)))
    model = prune(model)
    decoded = viterbi_decode_many(
        model, log.per_trace(observation_matrix(model.catalog, log))
    )
    values = SharedStrings()
    traces = [
        Trace(trace.attributes, [
            Event({**event.attributes, LABEL: values[label]})
            for event, label in zip(trace.events, labels)
        ])
        for trace, labels in zip(unannotated.traces, decoded)
    ]
    global_event = dict(unannotated.global_event_attributes)
    global_event.setdefault(LABEL, AttributeValue.string(""))
    return EventLog(
        unannotated.attributes, unannotated.extensions, unannotated.classifiers,
        unannotated.global_trace_attributes, global_event, traces,
    )


def strip_labels(log: EventLog) -> EventLog:
    """Remove the label attribute from every event."""
    traces = []
    for trace in log.traces:
        events = []
        for event in trace.events:
            attributes = dict(event.attributes)
            attributes.pop(LABEL, None)
            events.append(Event(attributes))
        traces.append(Trace(trace.attributes, events))
    global_event = {k: v for k, v in log.global_event_attributes.items() if k != LABEL}
    return EventLog(
        log.attributes, log.extensions, log.classifiers,
        log.global_trace_attributes, global_event, traces,
    )


def collapse(annotated: EventLog) -> EventLog:
    """Collapse each maximal run of equal label values into two events.

    The run's label becomes the ``concept:name`` of a "start" event at the
    run's first timestamp and a "complete" event at its last timestamp.
    Runs never merge across trace boundaries. Every input event must carry
    both a label and a timestamp; an event without one raises
    :class:`InputError`.
    """
    values = SharedStrings()
    start, complete = values["start"], values["complete"]
    traces = []
    for trace in annotated.traces:
        events: list[Event] = []
        text = name = last = None
        for i, event in enumerate(trace.events):
            label = event.attributes.get(LABEL)
            stamp = event.attributes.get(TIME_TIMESTAMP)
            if label is None:
                raise InputError(
                    f"cannot collapse: trace {trace.case_id!r} event {i} has no label attribute"
                )
            if stamp is None:
                raise InputError(
                    f"cannot collapse: trace {trace.case_id!r} event {i} has no timestamp"
                )
            if label.value != text:
                if events:  # the run before this one ends at the previous event
                    events.append(Event({
                        CONCEPT_NAME: name, TIME_TIMESTAMP: last, LIFECYCLE_TRANSITION: complete,
                    }))
                text = label.value
                name = values[text]
                events.append(Event({
                    CONCEPT_NAME: name, TIME_TIMESTAMP: stamp, LIFECYCLE_TRANSITION: start,
                }))
            last = stamp
        if events:
            events.append(Event({
                CONCEPT_NAME: name, TIME_TIMESTAMP: last, LIFECYCLE_TRANSITION: complete,
            }))
        traces.append(Trace(trace.attributes, events))
    return EventLog(
        annotated.attributes,
        {"Concept", "Time", "Lifecycle"},
        {"Activity": (CONCEPT_NAME,)},
        annotated.global_trace_attributes,
        {
            CONCEPT_NAME: AttributeValue.string(""),
            TIME_TIMESTAMP: AttributeValue.date(
                datetime(1970, 1, 1, tzinfo=timezone.utc)
            ),
            LIFECYCLE_TRANSITION: AttributeValue.string(""),
        },
        traces,
    )


def _model_payload(model: CrfModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "l1_coefficient": model.l1_coefficient,
        "weights": [float(w) for w in model.weights],
        "catalog": model.catalog.to_dict(),
    }


def save_model(model: CrfModel, sink: str | Path | IO[str]) -> None:
    """Write a model to JSON. Deterministic for a fixed model; reloading
    reproduces bit-identical predictions."""
    text = json.dumps(_model_payload(model), sort_keys=True, separators=(",", ":"))
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text)
    else:
        sink.write(text)


def load_model(source: str | Path | IO[str]) -> CrfModel:
    """Load a model written by :func:`save_model`.

    Raises :class:`ModelIOError` on corruption or version mismatch, and
    when a part of the payload, or a table or mixture in it, fails its own
    checks; a failed load never yields a partial model.
    """
    if isinstance(source, (str, Path)):
        try:
            text = read_text(source, ModelIOError)
        except OSError as exc:
            raise ModelIOError(f"cannot read model file: {exc}") from exc
    else:
        text = source.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelIOError(f"corrupt model file: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ModelIOError("not a recognizable model file")
    if data.get("version") != MODEL_VERSION:
        raise ModelIOError(
            f"unsupported model version {data.get('version')!r}, "
            f"expected {MODEL_VERSION}"
        )
    try:
        catalog = FeatureCatalog.from_dict(data["catalog"])
        weights = np.asarray(data["weights"], dtype=float)
        model = CrfModel(
            catalog=catalog,
            weights=weights,
            l1_coefficient=data["l1_coefficient"],
        )
    except (
        KeyError, TypeError, ValueError, OverflowError, AttributeError, EstimationError
    ) as exc:
        # a part of the wrong shape or type, or a sub-model that fails its
        # own checks, such as mixture weights that do not sum to 1
        raise ModelIOError(f"malformed model payload ({type(exc).__name__}): {exc}") from exc
    return model
