"""Compact builders for annotated logs and training batches used across
the test modules."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from eventabs.crf import TrainingBatch
from eventabs.xes import (
    CONCEPT_NAME,
    LABEL,
    LIFECYCLE_TRANSITION,
    TIME_TIMESTAMP,
    AttributeValue,
    Event,
    EventLog,
    Trace,
)

BASE = datetime(2015, 11, 3, 8, 0, 0, tzinfo=timezone.utc)


def make_event(
    name: str | None = None,
    label: str | None = None,
    ts: datetime | None = None,
    lifecycle: str | None = None,
    org: dict[str, str] | None = None,
) -> Event:
    attrs = {}
    if name is not None:
        attrs[CONCEPT_NAME] = AttributeValue.string(name)
    if ts is not None:
        attrs[TIME_TIMESTAMP] = AttributeValue.date(ts)
    if lifecycle is not None:
        attrs[LIFECYCLE_TRANSITION] = AttributeValue.string(lifecycle)
    if label is not None:
        attrs[LABEL] = AttributeValue.string(label)
    for key, value in (org or {}).items():
        attrs[f"org:{key}"] = AttributeValue.string(value)
    return Event(attrs)


def make_log(traces: list[list[Event]], case_prefix: str = "case") -> EventLog:
    return EventLog(traces=[
        Trace({CONCEPT_NAME: AttributeValue.string(f"{case_prefix}_{i}")}, events)
        for i, events in enumerate(traces)
    ])


def sequence_trace(
    pairs: list[tuple[str, str]],
    start: datetime = BASE,
    gap_seconds: float = 60.0,
    with_time: bool = True,
) -> list[Event]:
    """Events from (concept, label) pairs with evenly spaced timestamps."""
    events = []
    for i, (name, label) in enumerate(pairs):
        ts = start + timedelta(seconds=i * gap_seconds) if with_time else None
        events.append(make_event(name=name, label=label, ts=ts))
    return events


def training_batch_of(catalog, pairs) -> TrainingBatch:
    """The training batch of (observations, label indices) pairs, one pair
    per sequence, in order."""
    observations, labels = zip(*pairs)
    return TrainingBatch(
        [len(y) for y in labels],
        [(catalog, np.concatenate(observations), np.concatenate(labels),
          np.ones(len(labels), dtype=bool))],
    )


def fold_batch_of(log, folds, catalogs, observations) -> TrainingBatch:
    """The cross-validation batch over one packing of an interned, annotated
    log: one problem per fold, training on the log less the fold's traces
    under ``catalogs[b]``, whose whole-log observation matrix is the b-th
    of ``observations``."""
    problems = []
    for fold, catalog, matrix in zip(folds, catalogs, observations):
        kept = np.ones(log.n_traces, dtype=bool)
        kept[list(fold)] = False
        labels = np.zeros(log.n_events, dtype=np.intp)
        events = np.flatnonzero(np.repeat(kept, log.lengths))
        labels[events] = log.label_indices(catalog.labels, events)
        problems.append((catalog, matrix, labels, kept))
    return TrainingBatch(log.lengths, problems)
