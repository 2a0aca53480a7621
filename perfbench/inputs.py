"""Seeded inputs for the benchmark workloads.

Every input is a pure function of its seed. Two properties of the inputs
set most of the cost of a fit: the number of events and the longest trace,
which fixes the padded batch shape. Both would swing by tens of percent
from seed to seed if traces were drawn freely, so the household logs are
*length-matched*: every seed yields traces with the lengths of the
reference log of ``tests/test_acceptance.py`` (household process, seed 7),
and the seed only decides which playouts fill those lengths. The sensor
days take their lengths from a fixed list that the seed permutes.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from eventabs import (
    AttributeValue,
    Event,
    EventLog,
    Trace,
    generate_annotated_log,
    medicine_eating_process,
    sensor_series_to_log,
)
from eventabs.xes import CONCEPT_NAME, LABEL, ORG_RESOURCE

REFERENCE_SEED = 7  # the criterion-7 log of tests/test_acceptance.py
TAKING_MEDICINE = "Taking medicine"
EATING = "Eating"
_POOL_FACTOR = 2


def household_reference(n_traces: int) -> EventLog:
    """The first ``n_traces`` traces of the criterion-7 reference log."""
    return generate_annotated_log(medicine_eating_process(), n_traces, seed=REFERENCE_SEED)


def _run_end_lengths(trace: Trace) -> list[int]:
    """Lengths of the prefixes that end a "Taking medicine" run. Each such
    prefix is itself a complete playout of the household net, which may
    stop after any "Taking medicine"."""
    labels = [ev.label for ev in trace.events]
    return [
        i + 1
        for i, label in enumerate(labels)
        if label == TAKING_MEDICINE and (i + 1 == len(labels) or labels[i + 1] != label)
    ]


def household_log(reference: EventLog, seed: int) -> EventLog:
    """A household log from ``seed`` with the trace lengths of ``reference``.

    Each length is filled by the next unused playout of exactly that
    length in a seeded pool twice the log's size. Failing that, a longer
    playout is cut after a "Taking medicine" run that ends at that length.
    The few lengths left over (the longest, rarest ones) keep the
    reference trace itself, so the longest trace, and with it the padded
    batch shape, is the same for every seed.
    """
    pool = generate_annotated_log(
        medicine_eating_process(), _POOL_FACTOR * len(reference.traces), seed=seed
    )
    by_length: dict[int, deque[Trace]] = defaultdict(deque)
    for trace in pool.traces:
        by_length[len(trace.events)].append(trace)
    traces = []
    for i, ref in enumerate(reference.traces):
        events = _take(by_length, len(ref.events)) or ref.events
        traces.append(Trace({CONCEPT_NAME: AttributeValue.string(f"case_{i + 1}")}, events))
    return with_traces(pool, traces)


def _take(by_length: dict[int, deque[Trace]], length: int) -> list[Event] | None:
    if by_length[length]:
        return by_length[length].popleft().events
    for longer in sorted(k for k in by_length if k > length and by_length[k]):
        for trace in by_length[longer]:
            if length in _run_end_lengths(trace):
                by_length[longer].remove(trace)
                return trace.events[:length]
    return None


def with_traces(header: EventLog, traces: list[Trace]) -> EventLog:
    return EventLog(
        attributes=dict(header.attributes),
        extensions=set(header.extensions),
        classifiers=dict(header.classifiers),
        global_trace_attributes=dict(header.global_trace_attributes),
        global_event_attributes=dict(header.global_event_attributes),
        traces=traces,
    )


def without_trace(log: EventLog, index: int) -> EventLog:
    return with_traces(log, log.traces[:index] + log.traces[index + 1:])


# --- sensor days -------------------------------------------------------------


@dataclass(frozen=True)
class Activity:
    """A high-level activity: the sensors it touches (with weights), the
    mean on-time of each, and who tends to perform it."""

    sensors: tuple[tuple[str, float, float], ...]  # (sensor, weight, mean seconds on)
    residents: tuple[tuple[str, float], ...]


_KITCHEN = (("kitchen_motion", 3.0, 40.0), ("fridge_door", 2.0, 25.0), ("cupboard", 2.0, 15.0))
ACTIVITIES = {
    "Sleeping": Activity(
        (("bed_pressure", 4.0, 900.0), ("bedroom_light", 1.0, 120.0), ("toilet_flush", 0.5, 8.0)),
        (("alice", 1.0), ("bob", 1.0)),
    ),
    "Grooming": Activity(
        (("bathroom_motion", 3.0, 60.0), ("tap", 3.0, 30.0), ("toilet_flush", 1.0, 8.0),
         ("bathroom_light", 1.0, 300.0)),
        (("alice", 2.0), ("bob", 1.0)),
    ),
    "Breakfast": Activity(
        _KITCHEN + (("kettle", 2.0, 180.0), ("toaster", 1.5, 150.0)),
        (("alice", 1.0), ("bob", 2.0)),
    ),
    "Working": Activity(
        (("desk_lamp", 1.0, 1800.0), ("office_motion", 3.0, 90.0), ("chair_pressure", 3.0, 1200.0)),
        (("alice", 3.0), ("bob", 1.0)),
    ),
    "Lunch": Activity(
        _KITCHEN + (("microwave", 2.0, 120.0), ("kettle", 1.0, 180.0)),
        (("alice", 1.0), ("bob", 1.0)),
    ),
    "Relaxing": Activity(
        (("sofa_pressure", 3.0, 1500.0), ("tv", 2.0, 2400.0), ("living_light", 1.0, 600.0),
         ("kitchen_motion", 0.5, 40.0)),
        (("alice", 1.0), ("bob", 2.0)),
    ),
    "Dinner": Activity(
        _KITCHEN + (("stove", 2.0, 900.0), ("dishwasher", 1.0, 60.0)),
        (("alice", 2.0), ("bob", 1.0)),
    ),
}

# (activity, start hour, end hour, share of the day's activations). Each
# window edge is jittered; a window never starts before the previous one
# ends, so one sensor's on-intervals never overlap.
WEEKDAY_PLAN = (
    ("Sleeping", 0.2, 6.5, 0.06), ("Grooming", 7.0, 7.6, 0.12),
    ("Breakfast", 8.0, 8.6, 0.12), ("Working", 9.3, 12.2, 0.14),
    ("Lunch", 12.9, 13.6, 0.1), ("Working", 14.3, 17.4, 0.14),
    ("Dinner", 18.2, 19.3, 0.14), ("Relaxing", 20.0, 21.8, 0.1),
    ("Grooming", 22.4, 22.9, 0.04), ("Sleeping", 23.5, 23.95, 0.04),
)
WEEKEND_PLAN = (
    ("Sleeping", 0.2, 8.0, 0.08), ("Grooming", 8.7, 9.4, 0.12),
    ("Breakfast", 10.0, 11.0, 0.16), ("Relaxing", 11.8, 13.0, 0.12),
    ("Lunch", 13.7, 14.5, 0.12), ("Relaxing", 15.2, 18.0, 0.14),
    ("Dinner", 18.8, 20.0, 0.16), ("Grooming", 22.3, 22.9, 0.06),
    ("Sleeping", 23.5, 23.95, 0.04),
)
SENSOR_EPOCH = datetime(2016, 2, 29, tzinfo=timezone.utc)  # a Monday
_JITTER_HOURS = 0.25
_GAP_SECONDS = 60.0
_LAST_START, _LAST_END = 23.8 * 3600.0, 23.98 * 3600.0  # every day ends before midnight


def day_lengths(n_days: int, seed: int, shortest: int = 160, longest: int = 300) -> list[int]:
    """Even event counts spread over [shortest, longest], in seeded order."""
    step = (longest - shortest) / max(n_days - 1, 1)
    lengths = [2 * round((shortest + i * step) / 2) for i in range(n_days)]
    random.Random(seed).shuffle(lengths)
    return lengths


def _choose(rng: random.Random, options):
    return rng.choices([o[0] for o in options], weights=[o[1] for o in options])[0]


def _allocate(total: int, plan) -> list[int]:
    """Split ``total`` activations over the plan entries by share, at
    least one each, with the rounding remainder going to the first ones."""
    counts = [max(1, math.floor(total * share)) for *_, share in plan]
    i = 0
    while sum(counts) < total:
        counts[i % len(counts)] += 1
        i += 1
    while sum(counts) > total:
        j = max(range(len(counts)), key=lambda k: counts[k])
        counts[j] -= 1
    return counts


def sensor_days(
    first_day: int, lengths: list[int], seed: int
) -> tuple[dict[str, list[tuple[datetime, int]]], dict[tuple[datetime, str], tuple[str, str]]]:
    """Sensor change points for consecutive days with the given event
    counts, plus the hidden truth: (timestamp, sensor) -> (activity,
    resident) for every change point.

    Timestamps are whole milliseconds, because the converter truncates to
    milliseconds and the truth is looked up by (timestamp, sensor).
    """
    rng = random.Random(seed)
    series: dict[str, list[tuple[datetime, int]]] = defaultdict(list)
    truth: dict[tuple[datetime, str], tuple[str, str]] = {}
    for offset, n_events in enumerate(lengths):
        day = SENSOR_EPOCH + timedelta(days=first_day + offset)
        plan = WEEKEND_PLAN if day.weekday() >= 5 else WEEKDAY_PLAN
        previous_end = 0.0
        for (name, h0, h1, _), n_uses in zip(plan, _allocate(n_events // 2, plan)):
            activity = ACTIVITIES[name]
            resident = _choose(rng, activity.residents)
            lo = min(_LAST_START, max(previous_end + _GAP_SECONDS,
                                      (h0 + rng.uniform(-_JITTER_HOURS, _JITTER_HOURS)) * 3600.0))
            hi = min(_LAST_END, max(lo + 300.0,
                                    (h1 + rng.uniform(-_JITTER_HOURS, _JITTER_HOURS)) * 3600.0))
            previous_end = hi
            slot = (hi - lo) / n_uses
            for k in range(n_uses):
                sensor = _choose(rng, [(s, w) for s, w, _ in activity.sensors])
                mean_on = next(m for s, _, m in activity.sensors if s == sensor)
                start_s = lo + k * slot + rng.uniform(0.0, 0.3) * slot
                on_s = min(rng.lognormvariate(math.log(mean_on), 0.4), 0.6 * slot)
                start = day + timedelta(milliseconds=round(start_s * 1000))
                end = start + timedelta(milliseconds=max(1, round(on_s * 1000)))
                series[sensor] += [(start, 1), (end, 0)]
                truth[(start, sensor)] = truth[(end, sensor)] = (name, resident)
    return dict(series), truth


def label_sensor_log(log: EventLog, truth: dict[tuple[datetime, str], tuple[str, str]]) -> EventLog:
    """Attach ``label`` and ``org:resource`` from the hidden schedule."""
    traces = []
    for trace in log.traces:
        events = []
        for ev in trace.events:
            label, resident = truth[(ev.timestamp, ev.name)]
            attributes = dict(ev.attributes)
            attributes[LABEL] = AttributeValue.string(label)
            attributes[ORG_RESOURCE] = AttributeValue.string(resident)
            events.append(Event(attributes))
        traces.append(Trace(dict(trace.attributes), events))
    labeled = with_traces(log, traces)
    labeled.global_event_attributes[LABEL] = AttributeValue.string("")
    labeled.global_event_attributes[ORG_RESOURCE] = AttributeValue.string("")
    return labeled
