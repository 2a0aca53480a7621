"""Feature catalog construction and evaluation.

A catalog turns whichever standard extensions a log possesses into
real-valued observation features, each attached to one candidate label:

* ``bias(l)``: constant 1, realizing a per-label intercept.
* ``concept_ngram(n, l)``: multinoulli probability of label ``l`` given the
  last ``n`` low-level concept names.
* ``org_ngram(n, o, l)``: the same over ``org:resource``/``role``/``group``.
* ``time_view(v, l)``: responsibility of label ``l`` at the event's elapsed
  time within the day, the week, or the month, under per-label mixtures.
* ``lifecycle_duration(c, l)``: responsibility of ``l`` given the elapsed
  time since the FIFO-matched previous lifecycle step ``c`` of the same
  activity, in the step chain of the training log (the catalog's
  ``lifecycle_steps``, so a trace pairs the same way at prediction time).

A log is read once, into an :class:`InternedLog`: trace offsets, label
ids, symbol ids per string attribute, n-gram context ids, time-view
coordinates and lifecycle durations, as columns over its events. Catalogs
and observation matrices are computed from those columns. The catalogs of
many cross-validation folds of one log are built together
(:func:`fold_catalogs`): each fold's tables are the whole log's counts
less the held-out traces', and the mixtures of many folds are fitted in
one packed EM run. :func:`build_catalog` is the one-fold case.

Each family instance is evaluated as one (events x labels) block over the
whole interned log; feature columns are gathered from these blocks by
label. Except for the constant bias block, every block row is a
distribution over labels: missing data degrades to the neutral row
1/|labels|, never to zero. The catalog owns the whole weight layout: the
observation features, then the label-transition indicator block, and the
split of a weight vector into the two.

With two labels E and T, every non-bias block row satisfies p(T) = 1 -
p(E). Moving a family's weights by +a on E and -a on T therefore adds
a * p(E) to both labels' scores and a further -a to T's; the opposite move
on a second family takes the -a back, and what is left shifts both labels
equally at every position. So p(y|x), and with it the likelihood, does not
change: a two-label objective has flat directions and no unique optimal
weights, only unique predictions. ``bias`` rows are ones, not
distributions, and take no part in this gauge.
"""

from __future__ import annotations

import calendar
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .stats import (
    Gmm,
    MultinoulliTable,
    gmm_log_density,
    gmm_select_bic_many,
)
from .xes import CONCEPT_NAME, Event, EventLog, Trace

__all__ = [
    "BOT",
    "MISSING",
    "TIME_VIEWS",
    "TrainingError",
    "CatalogConfig",
    "FeatureDef",
    "LabelGmmBank",
    "FeatureCatalog",
    "InternedLog",
    "fold_catalogs",
    "build_catalog",
    "observation_matrix",
    "neutral_time_notes",
    "evaluate_observations",
    "pair_lifecycle_steps",
    "view_coordinate",
]

BOT = "__BOT__"          # begin-of-trace padding symbol for n-gram contexts
MISSING = "__MISSING__"  # placeholder for an absent attribute inside a context

TIME_VIEWS = ("day", "week", "month")

ORG_KINDS = ("resource", "role", "group")

# Linear order of the standard transactional lifecycle; the predecessor of a
# step is the nearest earlier step actually observed in the log.
_LIFECYCLE_CHAIN = ("schedule", "assign", "start", "suspend", "resume", "complete")


class TrainingError(Exception):
    """The training input violates the annotation contract."""


@dataclass(frozen=True)
class CatalogConfig:
    ngram_sizes: tuple[int, ...] = (1, 2, 3)
    time_views: tuple[str, ...] = TIME_VIEWS
    smoothing_alpha: float = 1.0
    gmm_max_components: int = 5
    gmm_seed: int = 0

    def __post_init__(self) -> None:
        if any(n < 1 for n in self.ngram_sizes):
            raise ValueError("n-gram sizes must be at least 1")
        unknown = set(self.time_views) - set(TIME_VIEWS)
        if unknown:
            raise ValueError(f"unknown time views: {sorted(unknown)}")
        if self.smoothing_alpha < 0:
            raise ValueError("smoothing alpha must be non-negative")
        if self.gmm_max_components < 1:
            raise ValueError("gmm_max_components must be at least 1")

    def to_dict(self) -> dict:
        return {
            "ngram_sizes": list(self.ngram_sizes),
            "time_views": list(self.time_views),
            "smoothing_alpha": self.smoothing_alpha,
            "gmm_max_components": self.gmm_max_components,
            "gmm_seed": self.gmm_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CatalogConfig":
        return cls(
            ngram_sizes=tuple(data["ngram_sizes"]),
            time_views=tuple(data["time_views"]),
            smoothing_alpha=data["smoothing_alpha"],
            gmm_max_components=data["gmm_max_components"],
            gmm_seed=data["gmm_seed"],
        )


@dataclass(frozen=True)
class FeatureDef:
    """One observation feature: a family instance attached to a label."""

    family: str       # bias | concept_ngram | org_ngram | time_view | lifecycle_duration
    label: str
    n: int = 0
    org: str = ""
    view: str = ""
    step: str = ""

    @property
    def instance(self) -> tuple[str, int, str, str, str]:
        """The family instance this feature reads one label column of."""
        return (self.family, self.n, self.org, self.view, self.step)

    def to_dict(self) -> dict:
        return {
            "family": self.family, "label": self.label, "n": self.n,
            "org": self.org, "view": self.view, "step": self.step,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureDef":
        return cls(**data)


@dataclass(frozen=True)
class LabelGmmBank:
    """Per-label mixtures over one scalar quantity, with empirical priors.

    ``responsibilities(xs)`` returns, per value, the posterior over labels,
    proportional to prior times mixture density; labels without a fitted
    mixture get zero mass, and rows where nothing carries mass are uniform.
    """

    labels: tuple[str, ...]
    gmms: Mapping[str, Gmm]
    log_priors: Mapping[str, float]

    def responsibilities(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        scores = np.full((len(xs), len(self.labels)), -np.inf)
        for i, label in enumerate(self.labels):
            gmm = self.gmms.get(label)
            if gmm is not None:
                scores[:, i] = self.log_priors[label] + gmm_log_density(gmm, xs)
        top = scores.max(axis=1, keepdims=True)
        live = np.isfinite(top[:, 0])
        weights = np.exp(scores - np.where(live[:, None], top, 0.0))
        weights[~live] = 1.0
        return weights / weights.sum(axis=1, keepdims=True)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "gmms": {l: g.to_dict() for l, g in sorted(self.gmms.items())},
            "log_priors": {l: p for l, p in sorted(self.log_priors.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabelGmmBank":
        return cls(
            labels=tuple(data["labels"]),
            gmms={l: Gmm.from_dict(g) for l, g in data["gmms"].items()},
            log_priors=dict(data["log_priors"]),
        )


@dataclass
class FeatureCatalog:
    """The indexed feature set, its fitted sub-models, and the weight layout.

    Feature indices are dense and stable: observation features first (in
    definition order), then the (|labels|+1) x |labels| label-transition
    block, previous label varying slowest with the begin-of-sequence row
    last. Identical between training and prediction by construction.

    ``lifecycle_steps`` is the lifecycle step set of the training log. It
    fixes the step chain that pairs lifecycle durations, at training and at
    prediction time alike; a stored catalog without it does not load.
    """

    labels: tuple[str, ...]
    observation_features: tuple[FeatureDef, ...]
    config: CatalogConfig
    concept_tables: dict[int, MultinoulliTable] = field(default_factory=dict)
    org_tables: dict[tuple[int, str], MultinoulliTable] = field(default_factory=dict)
    time_models: dict[str, LabelGmmBank] = field(default_factory=dict)
    duration_models: dict[tuple[str, str], LabelGmmBank] = field(default_factory=dict)
    lifecycle_steps: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in alphabet")
        self.label_index = {l: i for i, l in enumerate(self.labels)}
        bad = [d for d in self.observation_features if d.label not in self.label_index]
        if bad:
            raise ValueError(f"feature attached to unknown label: {bad[0]}")
        # label index of each observation feature's weight column
        self.observation_labels = np.asarray(
            [self.label_index[d.label] for d in self.observation_features],
            dtype=np.intp,
        )

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_observation_features(self) -> int:
        return len(self.observation_features)

    @property
    def n_transition_features(self) -> int:
        return (self.n_labels + 1) * self.n_labels

    @property
    def n_features(self) -> int:
        return self.n_observation_features + self.n_transition_features

    def split(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a flat weight vector into the observation weights and the
        (L+1, L) transition matrix (begin-of-sequence row last)."""
        if weights.shape != (self.n_features,):
            raise ValueError(
                f"weight vector length {weights.shape} does not match "
                f"catalog size {self.n_features}"
            )
        f_obs = self.n_observation_features
        return weights[:f_obs], weights[f_obs:].reshape(self.n_labels + 1, self.n_labels)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "config": self.config.to_dict(),
            "observation_features": [d.to_dict() for d in self.observation_features],
            "concept_tables": {str(n): t.to_dict() for n, t in sorted(self.concept_tables.items())},
            "org_tables": [
                [list(key), table.to_dict()]
                for key, table in sorted(self.org_tables.items())
            ],
            "time_models": {v: b.to_dict() for v, b in sorted(self.time_models.items())},
            "duration_models": [
                [list(key), bank.to_dict()]
                for key, bank in sorted(self.duration_models.items())
            ],
            "lifecycle_steps": self.lifecycle_steps,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureCatalog":
        return cls(
            labels=tuple(data["labels"]),
            observation_features=tuple(
                FeatureDef.from_dict(d) for d in data["observation_features"]
            ),
            config=CatalogConfig.from_dict(data["config"]),
            concept_tables={
                int(n): MultinoulliTable.from_dict(t)
                for n, t in data["concept_tables"].items()
            },
            org_tables={
                (int(key[0]), key[1]): MultinoulliTable.from_dict(t)
                for key, t in data["org_tables"]
            },
            time_models={
                v: LabelGmmBank.from_dict(b) for v, b in data["time_models"].items()
            },
            duration_models={
                (key[0], key[1]): LabelGmmBank.from_dict(b)
                for key, b in data["duration_models"]
            },
            lifecycle_steps=tuple(data["lifecycle_steps"]),
            notes=tuple(data["notes"]),
        )


# --- time coordinates --------------------------------------------------------

_SECONDS_PER_DAY = 86_400.0


def view_coordinate(view: str, ts: datetime) -> float:
    """Elapsed position of a UTC timestamp within the day, week, or month.

    Day and week are measured in seconds (periods 86400 and 604800);
    month is the elapsed fraction of the calendar month in [0, 1).
    """
    ts = ts.astimezone(timezone.utc)
    day_seconds = (
        ts.hour * 3600.0 + ts.minute * 60.0 + ts.second + ts.microsecond / 1e6
    )
    if view == "day":
        return day_seconds
    if view == "week":
        return ts.weekday() * _SECONDS_PER_DAY + day_seconds
    if view == "month":
        days_in_month = calendar.monthrange(ts.year, ts.month)[1]
        elapsed = (ts.day - 1) * _SECONDS_PER_DAY + day_seconds
        return elapsed / (days_in_month * _SECONDS_PER_DAY)
    raise ValueError(f"unknown time view {view!r}")


# --- lifecycle pairing -------------------------------------------------------


def _lifecycle_step(event: Event) -> str | None:
    step = event.lifecycle
    return step.lower() if step is not None else None


def pair_lifecycle_steps(
    trace: Trace, observed_steps: Iterable[str] | None = None
) -> list[int | None]:
    """Match each event to the event of its predecessor lifecycle step.

    Steps are matched FIFO per activity name: the i-th occurrence of a step
    consumes the i-th unconsumed occurrence of its predecessor step, so the
    first complete belongs to the first start. The predecessor of a step is
    the nearest earlier step of the standard transactional order that is
    actually observed (``observed_steps`` defaults to the steps in the
    trace). Returns, per event index, the matched predecessor's index or
    ``None``.
    """
    if observed_steps is None:
        observed = {
            s for ev in trace.events if (s := _lifecycle_step(ev)) is not None
        }
    else:
        observed = {s.lower() for s in observed_steps}
    predecessor: dict[str, str] = {}
    seen_earlier: list[str] = []
    for step in _LIFECYCLE_CHAIN:
        if seen_earlier and step in observed:
            predecessor[step] = seen_earlier[-1]
        if step in observed:
            seen_earlier.append(step)

    queues: dict[tuple[str, str], deque[int]] = {}
    matches: list[int | None] = []
    for i, event in enumerate(trace.events):
        step = _lifecycle_step(event)
        activity = event.name
        match: int | None = None
        if step is not None and activity is not None:
            pred = predecessor.get(step)
            if pred is not None:
                queue = queues.get((activity, pred))
                if queue:
                    match = queue.popleft()
            queues.setdefault((activity, step), deque()).append(i)
        matches.append(match)
    return matches


# --- the interned log ----------------------------------------------------------


def _symbol(event: Event, key: str) -> str:
    av = event.attributes.get(key)
    if av is None or av.kind != "string":
        return MISSING
    return av.value  # type: ignore[return-value]


def _intern(values: list) -> tuple[tuple, np.ndarray]:
    """The sorted vocabulary of the values other than None, and each
    value's index in it (-1 for None)."""
    vocabulary = tuple(sorted({v for v in values if v is not None}))
    index = {v: i for i, v in enumerate(vocabulary)}
    index[None] = -1
    return vocabulary, np.fromiter((index[v] for v in values), dtype=np.intp, count=len(values))


def _lifecycle_durations(
    trace: Trace, steps: Iterable[str]
) -> list[tuple[int, tuple[str, str], float]]:
    """Matched lifecycle durations as (event index, (activity, predecessor
    step), seconds since the matched predecessor), pairing by the chain of
    ``steps``; pairs lacking a timestamp are left out."""
    events = trace.events
    return [
        (i, (events[i].name, _lifecycle_step(events[j])),
         (events[i].timestamp - events[j].timestamp).total_seconds())
        for i, j in enumerate(pair_lifecycle_steps(trace, steps))
        if j is not None and None not in (events[i].timestamp, events[j].timestamp)
    ]  # type: ignore[misc]


_STRING_KEYS = (CONCEPT_NAME,) + tuple(f"org:{o}" for o in ORG_KINDS)


class InternedLog:
    """A columnar view of a list of traces, built once and shared by every
    catalog fit and feature evaluation on them.

    Events are numbered in log order; trace ``t`` holds events
    ``offsets[t]:offsets[t + 1]``. Labels and lower-cased lifecycle steps
    are interned into sorted vocabularies (id -1 where an event has none),
    and so is each string attribute the n-gram families read (MISSING
    where an event lacks it). The columns that depend on a parameter,
    n-gram contexts and their label counts per attribute and n, time-view
    coordinates per view and lifecycle durations per step chain, are
    computed on first use and kept.
    """

    def __init__(self, traces: Sequence[Trace]):
        self.traces = list(traces)
        self.lengths = np.asarray([len(t.events) for t in self.traces], dtype=np.intp)
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)]).astype(np.intp)
        events = [ev for t in self.traces for ev in t.events]
        self.labels, self.label_ids = _intern([ev.label for ev in events])
        self.steps, self.step_ids = _intern([_lifecycle_step(ev) for ev in events])
        self.timestamps = [ev.timestamp for ev in events]
        self.timed = np.asarray([ts is not None for ts in self.timestamps], dtype=bool)
        self.symbols = {
            key: _intern([_symbol(ev, key) for ev in events]) for key in _STRING_KEYS
        }
        self._memo: dict = {}

    @property
    def n_traces(self) -> int:
        return len(self.traces)

    @property
    def n_events(self) -> int:
        return int(self.offsets[-1])

    def events(self, traces: Iterable[int]) -> np.ndarray:
        """The event numbers of the given traces, trace by trace."""
        spans = [np.arange(self.offsets[t], self.offsets[t + 1]) for t in traces]
        return np.concatenate(spans) if spans else np.empty(0, dtype=np.intp)

    def per_trace(self, rows: np.ndarray) -> list[np.ndarray]:
        """An array over all events split into one slice per trace."""
        bounds = self.offsets.tolist()
        return [rows[a:b] for a, b in zip(bounds, bounds[1:])]

    def describe(self, event: int) -> str:
        t = int(np.searchsorted(self.offsets, event, side="right")) - 1
        return f"trace {self.traces[t].case_id!r} event {event - int(self.offsets[t])}"

    def label_indices(
        self, alphabet: Sequence[str], events: np.ndarray | None = None
    ) -> np.ndarray:
        """The index in ``alphabet`` of the label of each event (default:
        all); raises on the first event without a label or with one
        outside the alphabet."""
        if events is None:
            events = np.arange(self.n_events)
        index = {l: i for i, l in enumerate(alphabet)}
        lookup = np.asarray([index.get(l, -1) for l in self.labels] + [-1], dtype=np.intp)
        out = lookup[self.label_ids[events]]
        bad = np.flatnonzero(out < 0)
        if len(bad):
            event = int(events[bad[0]])
            label = self.label_ids[event]
            if label < 0:
                raise TrainingError(f"{self.describe(event)} has no label attribute")
            raise ValueError(
                f"label {self.labels[label]!r} is outside the model alphabet {tuple(alphabet)}"
            )
        return out

    def present(self, key: str) -> np.ndarray:
        """Which events carry the string attribute ``key``."""
        vocabulary, ids = self.symbols[key]
        if MISSING not in vocabulary:
            return np.ones(len(ids), dtype=bool)
        return ids != vocabulary.index(MISSING)

    def contexts(self, key: str, n: int) -> tuple[list[tuple[str, ...]], np.ndarray, np.ndarray]:
        """The n-gram contexts of attribute ``key``: the distinct contexts,
        each event's context id, and whether each context ends in a value
        (contexts ending in MISSING are neither counted nor looked up). The
        context at an event is the last ``n`` values of the attribute, BOT
        before the trace start."""
        memo = ("contexts", key, n)
        if memo not in self._memo:
            vocabulary, ids = self.symbols[key]
            position = np.arange(self.n_events) - np.repeat(self.offsets[:-1], self.lengths)
            window = np.full((self.n_events, n), len(vocabulary), dtype=np.intp)  # BOT
            for lag in range(n):
                reach = np.flatnonzero(position >= lag)
                window[reach, n - 1 - lag] = ids[reach - lag]
            distinct, inverse = np.unique(window, axis=0, return_inverse=True)
            names = vocabulary + (BOT,)
            contexts = [tuple(names[i] for i in row) for row in distinct.tolist()]
            live = np.asarray([c[-1] != MISSING for c in contexts], dtype=bool)
            self._memo[memo] = (contexts, inverse.reshape(-1), live)
        return self._memo[memo]

    def context_counts(self, key: str, n: int, events: np.ndarray | None = None) -> np.ndarray:
        """(contexts, labels) counts of the labeled events with a live
        context, over the given events (default: all, computed once)."""
        if events is None:
            memo = ("context_counts", key, n)
            if memo not in self._memo:
                self._memo[memo] = self.context_counts(key, n, np.arange(self.n_events))
            return self._memo[memo]
        contexts, ids, live = self.contexts(key, n)
        context, label = ids[events], self.label_ids[events]
        keep = live[context] & (label >= 0)
        L = len(self.labels)
        cells = np.bincount(context[keep] * L + label[keep], minlength=len(contexts) * L)
        return cells.reshape(len(contexts), L)

    def coordinates(self, view: str) -> np.ndarray:
        """Each event's coordinate in a time view (:func:`view_coordinate`),
        NaN where it has no timestamp."""
        memo = ("coordinates", view)
        if memo not in self._memo:
            out = np.full(self.n_events, np.nan)
            out[self.timed] = [
                view_coordinate(view, ts) for ts in self.timestamps if ts is not None
            ]
            self._memo[memo] = out
        return self._memo[memo]

    def durations(
        self, steps: Iterable[str]
    ) -> tuple[np.ndarray, tuple[tuple[str, str], ...], np.ndarray, np.ndarray]:
        """Matched lifecycle durations, pairing by the step chain of
        ``steps`` (:func:`pair_lifecycle_steps`): the events they end at, in
        log order, the sorted distinct (activity, predecessor step) bank
        keys, each duration's key id, and its seconds. Pairs lacking a
        timestamp are left out."""
        observed = {s.lower() for s in steps}
        chain = tuple(s for s in _LIFECYCLE_CHAIN if s in observed)
        memo = ("durations", chain)
        if memo not in self._memo:
            found = [
                (int(self.offsets[t]) + i, key, seconds)
                for t, trace in enumerate(self.traces)
                for i, key, seconds in _lifecycle_durations(trace, chain)
            ]
            keys, key_ids = _intern([key for _, key, _ in found])
            self._memo[memo] = (
                np.asarray([e for e, _, _ in found], dtype=np.intp), keys, key_ids,
                np.asarray([s for _, _, s in found], dtype=float),
            )
        return self._memo[memo]


# --- catalog construction ----------------------------------------------------

# Packed EM runs hold at most this many sample rows per event of the log, so
# fitting the mixtures of many folds together keeps memory linear in the log.
_EM_ROWS_PER_EVENT = 16


@dataclass
class _FoldPlan:
    """A fold's catalog before its mixtures are fitted. ``banks`` holds the
    (name, per-label samples, seed) of every mixture bank, time views
    first; ``notes`` come before the mixture warnings, ``tail`` after."""

    labels: tuple[str, ...]
    defs: list[FeatureDef]
    concept_tables: dict[int, MultinoulliTable]
    org_tables: dict[tuple[int, str], MultinoulliTable]
    views: tuple[str, ...]
    duration_keys: list[tuple[str, str]]
    banks: list[tuple[str, dict[str, np.ndarray], int]]
    lifecycle_steps: tuple[str, ...]
    notes: list[str]
    tail: list[str]

    @property
    def rows(self) -> int:
        return sum(len(xs) for _, samples, _ in self.banks for xs in samples.values())


def _plan_fold(log: InternedLog, fold: Iterable[int], config: CatalogConfig) -> _FoldPlan:
    held = np.zeros(log.n_traces, dtype=bool)
    held[list(fold)] = True
    held_events = log.events(np.flatnonzero(held))
    training = ~np.repeat(held, log.lengths)
    offenders = [
        log.describe(e) for e in np.flatnonzero(training & (log.label_ids < 0))[:11].tolist()
    ]
    if offenders:
        raise TrainingError(
            "events without a label attribute: " + ", ".join(offenders[:10])
            + ("..." if len(offenders) > 10 else "")
        )
    if not training.any():
        raise TrainingError("no annotated events in the training log")

    label_of = log.label_ids
    label_ids = np.flatnonzero(np.bincount(label_of[training], minlength=len(log.labels)))
    labels = tuple(log.labels[j] for j in label_ids)
    steps = log.step_ids[training]
    step_ids = np.flatnonzero(np.bincount(steps[steps >= 0], minlength=len(log.steps)))
    lifecycle_steps = tuple(log.steps[s] for s in step_ids)
    has_concept = bool(log.present(CONCEPT_NAME)[training].any())
    has_time = bool(log.timed[training].any())
    notes: list[str] = []

    defs: list[FeatureDef] = [FeatureDef("bias", l) for l in labels]
    concept_tables: dict[int, MultinoulliTable] = {}
    org_tables: dict[tuple[int, str], MultinoulliTable] = {}

    def ngram_table(key: str, n: int) -> MultinoulliTable:
        # the whole log's counts less the held-out traces', exact in integers
        counts = log.context_counts(key, n) - log.context_counts(key, n, held_events)
        return MultinoulliTable.from_counts(
            n, log.contexts(key, n)[0], counts[:, label_ids], labels, config.smoothing_alpha
        )

    ngram_sizes = sorted(set(config.ngram_sizes))
    if has_concept:
        for n in ngram_sizes:
            concept_tables[n] = ngram_table(CONCEPT_NAME, n)
            defs.extend(FeatureDef("concept_ngram", l, n=n) for l in labels)
    else:
        notes.append("concept extension absent: concept_ngram features skipped")

    for o in ORG_KINDS:
        if log.present(f"org:{o}")[training].any():
            for n in ngram_sizes:
                org_tables[(n, o)] = ngram_table(f"org:{o}", n)
                defs.extend(FeatureDef("org_ngram", l, n=n, org=o) for l in labels)
        else:
            notes.append(f"org:{o} extension absent: org_ngram features skipped")

    def per_label(values: np.ndarray, owners: np.ndarray, rows: np.ndarray) -> dict[str, np.ndarray]:
        return {l: values[rows & (owners == j)] for l, j in zip(labels, label_ids)}

    banks: list[tuple[str, dict[str, np.ndarray], int]] = []
    views = config.time_views if has_time else ()
    for view in views:
        banks.append((
            f"time_view {view}",
            per_label(log.coordinates(view), label_of, training & log.timed),
            config.gmm_seed + 7919 * TIME_VIEWS.index(view),
        ))
        defs.extend(FeatureDef("time_view", l, view=view) for l in labels)
    if not has_time:
        notes.append("time extension absent: time_view features skipped")

    duration_keys: list[tuple[str, str]] = []
    if lifecycle_steps and has_time and has_concept:
        ends, keys, key_ids, seconds = log.durations(lifecycle_steps)
        kept = training[ends]
        present = np.bincount(key_ids[kept], minlength=len(keys))
        for offset, k in enumerate(np.flatnonzero(present).tolist()):
            duration_keys.append(keys[k])
            banks.append((
                f"lifecycle_duration {keys[k][0]} after {keys[k][1]}",
                per_label(seconds, label_of[ends], kept & (key_ids == k)),
                config.gmm_seed + 104_729 + 1009 * offset,
            ))
    for step in sorted({step for _, step in duration_keys}):
        defs.extend(FeatureDef("lifecycle_duration", l, step=step) for l in labels)

    tail: list[str] = []
    if not lifecycle_steps:
        tail.append("lifecycle extension absent: lifecycle_duration features skipped")
    elif has_time and has_concept and not duration_keys:
        tail.append(
            "lifecycle extension present but no step pairs matched: "
            "lifecycle_duration features skipped"
        )
    return _FoldPlan(
        labels, defs, concept_tables, org_tables, views, duration_keys, banks,
        lifecycle_steps, notes, tail,
    )


def _bank(
    samples: dict[str, np.ndarray],
    labels: tuple[str, ...],
    gmms: dict[str, Gmm],
    name: str,
    notes: list[str],
) -> LabelGmmBank:
    """Assemble one bank from its fitted mixtures, one per label with
    samples, and note the mixtures' warnings."""
    total = sum(len(v) for v in samples.values())
    for label, gmm in gmms.items():
        notes.extend(f"{name}, label {label}: {w}" for w in gmm.warnings)
    return LabelGmmBank(
        labels=labels,
        gmms=gmms,
        log_priors={
            label: float(np.log(len(samples[label]) / total)) for label in gmms
        },
    )


def _fit_plans(plans: list[_FoldPlan], config: CatalogConfig) -> list[FeatureCatalog]:
    """The catalogs of the plans, with all their mixtures fitted in one
    packed EM run."""
    # (plan, bank, label, samples, seed) of every mixture
    label_sets = [
        (p, b, label, samples[label], seed + 1000 * offset)
        for p, plan in enumerate(plans)
        for b, (_, samples, seed) in enumerate(plan.banks)
        for offset, label in enumerate(sorted(samples))
        if len(samples[label])
    ]
    gmms = gmm_select_bic_many(
        [xs for *_, xs, _ in label_sets], config.gmm_max_components,
        [seed for *_, seed in label_sets],
    )
    bank_gmms: list[list[dict[str, Gmm]]] = [[{} for _ in plan.banks] for plan in plans]
    for (p, b, label, _, _), gmm in zip(label_sets, gmms):
        bank_gmms[p][b][label] = gmm
    catalogs = []
    for plan, fitted_gmms in zip(plans, bank_gmms):
        notes = list(plan.notes)
        fitted = [
            _bank(samples, plan.labels, gmms_of, name, notes)
            for (name, samples, _), gmms_of in zip(plan.banks, fitted_gmms)
        ]
        catalogs.append(FeatureCatalog(
            labels=plan.labels,
            observation_features=tuple(plan.defs),
            config=config,
            concept_tables=plan.concept_tables,
            org_tables=plan.org_tables,
            time_models=dict(zip(plan.views, fitted)),
            duration_models=dict(zip(plan.duration_keys, fitted[len(plan.views):])),
            lifecycle_steps=plan.lifecycle_steps,
            notes=tuple(notes + plan.tail),
        ))
    return catalogs


def fold_catalogs(
    log: InternedLog,
    folds: Iterable[Iterable[int]],
    config: CatalogConfig = CatalogConfig(),
) -> Iterator[FeatureCatalog]:
    """The catalog of every fold, fitted on the log less the fold's traces:
    each equals :func:`build_catalog` on that smaller log. Yields them in
    fold order.

    Multinoulli tables are the whole log's context counts less those of
    the held-out traces, which is exact in integers; the label alphabet,
    family presence and the lifecycle step set are recounted per fold. The
    mixtures of consecutive folds are fitted together, in packed EM runs
    (:func:`gmm_select_bic_many`) of at most ``_EM_ROWS_PER_EVENT`` sample
    rows per event of the log, with each fold's own seeds.
    """
    budget = _EM_ROWS_PER_EVENT * max(log.n_events, 1)
    group: list[_FoldPlan] = []
    for fold in folds:
        plan = _plan_fold(log, fold, config)
        if group and sum(p.rows for p in group) + plan.rows > budget:
            yield from _fit_plans(group, config)
            group = []
        group.append(plan)
    yield from _fit_plans(group, config)


def build_catalog(
    training: EventLog,
    config: CatalogConfig = CatalogConfig(),
    diagnostics: list[str] | None = None,
) -> FeatureCatalog:
    """Fit the feature catalog on a fully annotated log: the one-fold case
    of :func:`fold_catalogs`, holding nothing out.

    Only families whose required attributes occur in the log are included;
    skipped families and mixture-fit warnings are recorded in the catalog
    notes. Raises :class:`TrainingError` when any event lacks the label
    attribute.
    """
    catalog = next(fold_catalogs(InternedLog(training.traces), [()], config))
    if diagnostics is not None:
        diagnostics.extend(catalog.notes)
    return catalog


# --- evaluation ---------------------------------------------------------------


def observation_matrix(catalog: FeatureCatalog, log: InternedLog) -> np.ndarray:
    """Evaluate every catalog observation feature at every event of an
    interned log: a float array of shape (events, observation features),
    in log order.

    Each family instance yields one (events, labels) block: ones for bias,
    otherwise rows that are distributions over the catalog labels, with
    the neutral row 1/|labels| where the family's data is missing. A
    feature's column is the column of its label in its instance's block.
    An n-gram table's rows are computed once per distinct context and
    gathered; each mixture bank scores all its events in one call. An
    event's row depends only on its own trace. Pure.
    """
    E, L = log.n_events, catalog.n_labels
    slots: dict[tuple[str, int, str, str, str], int] = {}
    columns = [
        slots.setdefault(d.instance, len(slots)) * L + li
        for d, li in zip(catalog.observation_features, catalog.observation_labels)
    ]
    blocks = np.full((E, len(slots), L), 1.0 / L)
    for (family, n, org, view, step), block in zip(slots, blocks.transpose(1, 0, 2)):
        if family == "bias":
            block[:] = 1.0
        elif family in ("concept_ngram", "org_ngram"):
            if family == "concept_ngram":
                key, table = CONCEPT_NAME, catalog.concept_tables[n]
            else:
                key, table = f"org:{org}", catalog.org_tables[(n, org)]
            contexts, ids, live = log.contexts(key, n)
            rows = np.full((len(contexts), L), 1.0 / L)
            rows[live] = table.distributions([c for c, ok in zip(contexts, live) if ok])
            block[:] = rows[ids]
        elif family == "time_view":
            xs = log.coordinates(view)[log.timed]
            block[log.timed] = catalog.time_models[view].responsibilities(xs)
        else:  # lifecycle_duration, paired by the training log's step chain
            ends, keys, key_ids, seconds = log.durations(catalog.lifecycle_steps)
            for k, bank_key in enumerate(keys):
                bank = catalog.duration_models.get(bank_key)
                if bank is not None and bank_key[1] == step:
                    block[ends[key_ids == k]] = bank.responsibilities(seconds[key_ids == k])
    return blocks.reshape(E, len(slots) * L)[:, columns]


def neutral_time_notes(
    catalog: FeatureCatalog, log: InternedLog, traces: Iterable[int]
) -> list[str]:
    """Diagnostics for the events of the given traces that have no
    timestamp, and so neutral time_view values under this catalog."""
    if not catalog.time_models:
        return []
    events = log.events(traces)
    return [
        f"{log.describe(e)}: no timestamp, neutral time_view values used"
        for e in events[~log.timed[events]].tolist()
    ]


def evaluate_observations(
    catalog: FeatureCatalog,
    trace: Trace,
    diagnostics: list[str] | None = None,
) -> np.ndarray:
    """The observation matrix of one trace (:func:`observation_matrix`),
    of shape (len(trace.events), number of observation features); events
    without a timestamp are noted in ``diagnostics``."""
    log = InternedLog([trace])
    if diagnostics is not None:
        diagnostics.extend(neutral_time_notes(catalog, log, [0]))
    return observation_matrix(catalog, log)
