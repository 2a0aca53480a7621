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
  activity.

Each family instance is evaluated once per trace as a (positions x labels)
block; feature columns are gathered from these blocks by label. Except for
the constant bias block, every block row is a distribution over labels:
missing data degrades to the neutral row 1/|labels|, never to zero. The
catalog owns the whole weight layout: the observation features, then the
label-transition indicator block, and the split of a weight vector into
the two.
"""

from __future__ import annotations

import calendar
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from .stats import (
    Gmm,
    MultinoulliTable,
    gmm_log_density,
    gmm_select_bic_many,
    multinoulli_fit,
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
    "build_catalog",
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

    ``lifecycle_steps`` is the lifecycle step set of the training log, which
    fixes the step chain used for duration pairing; ``None`` (model files
    that predate it) pairs by the steps of the duration banks plus those of
    the evaluated trace.
    """

    labels: tuple[str, ...]
    observation_features: tuple[FeatureDef, ...]
    config: CatalogConfig
    concept_tables: dict[int, MultinoulliTable] = field(default_factory=dict)
    org_tables: dict[tuple[int, str], MultinoulliTable] = field(default_factory=dict)
    time_models: dict[str, LabelGmmBank] = field(default_factory=dict)
    duration_models: dict[tuple[str, str], LabelGmmBank] = field(default_factory=dict)
    lifecycle_steps: tuple[str, ...] | None = None
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
            lifecycle_steps=(
                None if data.get("lifecycle_steps") is None
                else tuple(data["lifecycle_steps"])
            ),
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


# --- per-family extraction: shared by catalog construction and evaluation ------


def _symbol(event: Event, key: str) -> str:
    av = event.attributes.get(key)
    if av is None or av.kind != "string":
        return MISSING
    return av.value  # type: ignore[return-value]


def _ngram_contexts(trace: Trace, key: str, n: int) -> list[tuple[str, ...]]:
    """The n-gram context ending at each event: the last ``n`` values of the
    string attribute ``key``, BOT before the trace start and MISSING where
    the attribute is absent."""
    padded = [BOT] * (n - 1) + [_symbol(ev, key) for ev in trace.events]
    return [tuple(padded[t : t + n]) for t in range(len(trace.events))]


def _view_coordinates(trace: Trace, view: str) -> tuple[list[int], list[float]]:
    """Indices of the timestamped events and their coordinates in ``view``."""
    indices = [i for i, ev in enumerate(trace.events) if ev.timestamp is not None]
    return indices, [view_coordinate(view, trace.events[i].timestamp) for i in indices]


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


# --- catalog construction ----------------------------------------------------


def _bank(
    samples: dict[str, list[float]],
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


def build_catalog(
    training: EventLog,
    config: CatalogConfig = CatalogConfig(),
    diagnostics: list[str] | None = None,
) -> FeatureCatalog:
    """Fit the feature catalog on a fully annotated log.

    Only families whose required attributes occur in the log are included;
    skipped families and mixture-fit warnings are recorded in the catalog
    notes. Raises :class:`TrainingError` when any event lacks the label
    attribute.
    """
    offenders = [
        f"trace {trace.case_id!r} event {i}"
        for trace in training.traces
        for i, ev in enumerate(trace.events)
        if ev.label is None
    ]
    if offenders:
        raise TrainingError(
            "events without a label attribute: " + ", ".join(offenders[:10])
            + ("..." if len(offenders) > 10 else "")
        )
    events = [ev for trace in training.traces for ev in trace.events]
    if not events:
        raise TrainingError("no annotated events in the training log")

    labels = tuple(sorted({ev.label for ev in events}))  # type: ignore[arg-type]
    notes: list[str] = []

    has_concept = any(ev.name is not None for ev in events)
    has_time = any(ev.timestamp is not None for ev in events)
    has_org = {
        o: any(ev.org(o) is not None for ev in events) for o in ORG_KINDS
    }
    lifecycle_steps = tuple(sorted({
        s for ev in events if (s := _lifecycle_step(ev)) is not None
    }))

    defs: list[FeatureDef] = [FeatureDef("bias", l) for l in labels]
    concept_tables: dict[int, MultinoulliTable] = {}
    org_tables: dict[tuple[int, str], MultinoulliTable] = {}

    def ngram_table(key: str, n: int) -> MultinoulliTable:
        # contexts ending in MISSING are never looked up (evaluation gives
        # those positions the neutral row); the family's presence check
        # guarantees at least one observation
        observations = [
            (context, ev.label)
            for trace in training.traces
            for context, ev in zip(_ngram_contexts(trace, key, n), trace.events)
            if context[-1] != MISSING
        ]
        return multinoulli_fit(observations, config.smoothing_alpha, labels)  # type: ignore[arg-type]

    ngram_sizes = sorted(set(config.ngram_sizes))
    if has_concept:
        for n in ngram_sizes:
            concept_tables[n] = ngram_table(CONCEPT_NAME, n)
            defs.extend(FeatureDef("concept_ngram", l, n=n) for l in labels)
    else:
        notes.append("concept extension absent: concept_ngram features skipped")

    for o in ORG_KINDS:
        if has_org[o]:
            for n in ngram_sizes:
                org_tables[(n, o)] = ngram_table(f"org:{o}", n)
                defs.extend(FeatureDef("org_ngram", l, n=n, org=o) for l in labels)
        else:
            notes.append(f"org:{o} extension absent: org_ngram features skipped")

    # (name, per-label samples, seed) of every mixture bank; all their
    # mixtures are fitted in one packed EM run below
    banks: list[tuple[str, dict[str, list[float]], int]] = []
    views = config.time_views if has_time else ()
    for view in views:
        samples: dict[str, list[float]] = {l: [] for l in labels}
        for trace in training.traces:
            for i, x in zip(*_view_coordinates(trace, view)):
                samples[trace.events[i].label].append(x)  # type: ignore[index]
        banks.append((
            f"time_view {view}", samples,
            config.gmm_seed + 7919 * TIME_VIEWS.index(view),
        ))
        defs.extend(FeatureDef("time_view", l, view=view) for l in labels)
    if not has_time:
        notes.append("time extension absent: time_view features skipped")

    duration_samples: dict[tuple[str, str], dict[str, list[float]]] = {}
    if lifecycle_steps and has_time and has_concept:
        for trace in training.traces:
            for i, key, seconds in _lifecycle_durations(trace, lifecycle_steps):
                duration_samples.setdefault(key, {l: [] for l in labels})[
                    trace.events[i].label  # type: ignore[index]
                ].append(seconds)
    duration_keys = sorted(duration_samples)
    for offset, key in enumerate(duration_keys):
        banks.append((
            f"lifecycle_duration {key[0]} after {key[1]}", duration_samples[key],
            config.gmm_seed + 104_729 + 1009 * offset,
        ))
    for step in sorted({step for _, step in duration_keys}):
        defs.extend(FeatureDef("lifecycle_duration", l, step=step) for l in labels)

    # (bank index, label, samples, seed) of every mixture, fitted together
    label_sets = [
        (b, label, samples[label], seed + 1000 * offset)
        for b, (_, samples, seed) in enumerate(banks)
        for offset, label in enumerate(sorted(samples))
        if samples[label]
    ]
    gmms = gmm_select_bic_many(
        [xs for _, _, xs, _ in label_sets], config.gmm_max_components,
        [seed for _, _, _, seed in label_sets],
    )
    bank_gmms: list[dict[str, Gmm]] = [{} for _ in banks]
    for (b, label, _, _), gmm in zip(label_sets, gmms):
        bank_gmms[b][label] = gmm
    fitted = [
        _bank(samples, labels, bank_gmms[b], name, notes)
        for b, (name, samples, _) in enumerate(banks)
    ]
    time_models = dict(zip(views, fitted))
    duration_models = dict(zip(duration_keys, fitted[len(views):]))

    if not lifecycle_steps:
        notes.append("lifecycle extension absent: lifecycle_duration features skipped")
    elif has_time and has_concept and not duration_models:
        notes.append(
            "lifecycle extension present but no step pairs matched: "
            "lifecycle_duration features skipped"
        )

    if diagnostics is not None:
        diagnostics.extend(notes)

    return FeatureCatalog(
        labels=labels,
        observation_features=tuple(defs),
        config=config,
        concept_tables=concept_tables,
        org_tables=org_tables,
        time_models=time_models,
        duration_models=duration_models,
        lifecycle_steps=lifecycle_steps,
        notes=tuple(notes),
    )


# --- evaluation ---------------------------------------------------------------


def evaluate_observations(
    catalog: FeatureCatalog,
    trace: Trace,
    diagnostics: list[str] | None = None,
) -> np.ndarray:
    """Evaluate every catalog observation feature at every trace position.

    Each family instance yields one (positions, labels) block: ones for
    bias, otherwise rows that are distributions over the catalog labels,
    with the neutral row 1/|labels| where the family's data is missing. A
    feature's column is the column of its label in its instance's block.
    Returns a float array of shape (len(trace.events), number of
    observation features). Pure: repeated calls agree exactly.
    """
    events = trace.events
    T, L = len(events), catalog.n_labels
    if catalog.time_models and diagnostics is not None:
        diagnostics.extend(
            f"trace {trace.case_id!r} event {t}: no timestamp, "
            "neutral time_view values used"
            for t, ev in enumerate(events)
            if ev.timestamp is None
        )
    durations: dict[tuple[str, str], tuple[list[int], list[float]]] = {}
    if catalog.duration_models:
        steps = catalog.lifecycle_steps
        if steps is None:
            steps = {s for _, s in catalog.duration_models} | {
                s for ev in events if (s := _lifecycle_step(ev)) is not None
            }
        for i, bank_key, seconds in _lifecycle_durations(trace, steps):
            if bank_key in catalog.duration_models:
                indices, xs = durations.setdefault(bank_key, ([], []))
                indices.append(i)
                xs.append(seconds)

    slots: dict[tuple[str, int, str, str, str], int] = {}
    columns = [
        slots.setdefault(d.instance, len(slots)) * L + li
        for d, li in zip(catalog.observation_features, catalog.observation_labels)
    ]
    blocks = np.full((T, len(slots), L), 1.0 / L)
    for (family, n, org, view, step), block in zip(slots, blocks.transpose(1, 0, 2)):
        if family == "bias":
            block[:] = 1.0
        elif family in ("concept_ngram", "org_ngram"):
            if family == "concept_ngram":
                key, table = CONCEPT_NAME, catalog.concept_tables[n]
            else:
                key, table = f"org:{org}", catalog.org_tables[(n, org)]
            rows: dict[tuple[str, ...], list[float]] = {}
            for t, context in enumerate(_ngram_contexts(trace, key, n)):
                if context[-1] != MISSING:
                    if context not in rows:
                        rows[context] = list(table.distribution(context).values())
                    block[t] = rows[context]
        elif family == "time_view":
            indices, xs = _view_coordinates(trace, view)
            block[indices] = catalog.time_models[view].responsibilities(xs)
        else:  # lifecycle_duration
            for bank_key, (indices, xs) in durations.items():
                if bank_key[1] == step:
                    bank = catalog.duration_models[bank_key]
                    block[indices] = bank.responsibilities(xs)
    return blocks.reshape(T, len(slots) * L)[:, columns]


def label_indices(catalog: FeatureCatalog, trace: Trace) -> np.ndarray:
    """Label index sequence of an annotated trace; raises on missing or
    out-of-alphabet labels."""
    out = np.empty(len(trace.events), dtype=np.intp)
    for i, ev in enumerate(trace.events):
        label = ev.label
        if label is None:
            raise TrainingError(
                f"trace {trace.case_id!r} event {i} has no label attribute"
            )
        li = catalog.label_index.get(label)
        if li is None:
            raise ValueError(
                f"label {label!r} is outside the model alphabet {catalog.labels}"
            )
        out[i] = li
    return out
