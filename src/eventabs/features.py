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
  time since the matched previous lifecycle step ``c`` of the same
  activity (:meth:`InternedLog.durations`), in the step chain of the
  training log (the catalog's ``lifecycle_steps``, so a trace pairs the
  same way at prediction time).

A log is read once, into an :class:`InternedLog`, the only reader of
events: label, step and symbol ids and UTC milliseconds, then n-gram
contexts, time-view coordinates and lifecycle durations, as columns over
its events. Catalogs and observation matrices come from those columns.
The catalogs of many cross-validation folds of one log are built together
(:func:`fold_catalogs`): each fold's tables are the whole log's counts
less the held-out traces', and the mixtures of many folds are fitted in
one packed EM run. :func:`build_catalog` is the one-fold case.

Each family instance is evaluated as one (events x labels) block over the
whole interned log; feature columns are gathered from these blocks by
label. Only the instances a catalog's features read are evaluated, so a
catalog restricted to the features L1 kept
(:meth:`FeatureCatalog.restrict`, as ``abstraction.prune`` does for
annotation) skips the tables and mixture banks of the dropped ones.
Except for the constant bias block, every block row is a distribution
over labels: missing data degrades to the neutral row 1/|labels|, never
to zero. The catalog owns the whole weight layout: the observation
features, then the label-transition indicator block, and the split of a
weight vector into the two.

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

from collections import deque
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EventabsError, InputError
from .stats import (
    Gmm,
    MultinoulliTable,
    gmm_log_density,
    gmm_select_bic_many,
)
from .xes import CONCEPT_NAME, LABEL, LIFECYCLE_TRANSITION, TIME_TIMESTAMP, EventLog, Trace

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
    "fold_groups",
    "build_catalog",
    "observation_matrix",
    "neutral_time_notes",
    "evaluate_observations",
]

BOT = "__BOT__"          # begin-of-trace padding symbol for n-gram contexts
MISSING = "__MISSING__"  # placeholder for an absent attribute inside a context

TIME_VIEWS = ("day", "week", "month")

ORG_KINDS = ("resource", "role", "group")

# Linear order of the standard transactional lifecycle.
_LIFECYCLE_CHAIN = ("schedule", "assign", "start", "suspend", "resume", "complete")


class TrainingError(EventabsError):
    """The training input violates the annotation contract."""


@dataclass(frozen=True)
class CatalogConfig:
    ngram_sizes: tuple[int, ...] = (1, 2, 3)
    time_views: tuple[str, ...] = TIME_VIEWS
    smoothing_alpha: float = 1.0
    gmm_max_components: int = 5
    gmm_seed: int = 0

    def __post_init__(self) -> None:
        # isinstance counts a bool as an int; True is no size or count
        if any(not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in self.ngram_sizes):
            raise InputError(f"n-gram sizes must be positive integers, got {self.ngram_sizes!r}")
        unknown = set(self.time_views) - set(TIME_VIEWS)
        if unknown:
            raise InputError(f"unknown time views: {sorted(unknown)}")
        if not 0 <= self.smoothing_alpha < np.inf:
            raise InputError(
                f"smoothing alpha must be non-negative and finite, got {self.smoothing_alpha!r}"
            )
        k = self.gmm_max_components
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InputError(f"gmm_max_components must be a positive integer, got {k!r}")

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
        return cls(**{**data, "n": int(data.get("n", 0))})


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
        """The bank written by :meth:`to_dict`. Raises ``ValueError`` for a
        mixture without a finite log prior."""
        gmms = {l: Gmm.from_dict(g) for l, g in data["gmms"].items()}
        log_priors = {l: float(p) for l, p in data["log_priors"].items()}
        if not all(np.isfinite(log_priors.get(l, np.nan)) for l in gmms):
            raise ValueError("a mixture lacks a finite log prior")
        return cls(labels=tuple(data["labels"]), gmms=gmms, log_priors=log_priors)


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
        for part in (
            *self.concept_tables.values(), *self.org_tables.values(),
            *self.time_models.values(), *self.duration_models.values(),
        ):
            if part.labels != self.labels:
                raise ValueError(f"a table or bank is over labels {part.labels}, not the catalog's")
        ngrams = [*self.concept_tables.items(), *((n, t) for (n, _), t in self.org_tables.items())]
        if any(table.arity != n for n, table in ngrams):
            raise ValueError("an n-gram table's arity is not its n")
        steps = {step for _, step in self.duration_models}
        for d in self.observation_features:
            if d.label not in self.label_index:
                raise ValueError(f"feature attached to unknown label: {d}")
            if not {
                "bias": True,
                "concept_ngram": d.n in self.concept_tables,
                "org_ngram": (d.n, d.org) in self.org_tables,
                "time_view": d.view in self.time_models,
                "lifecycle_duration": d.step in steps,
            }.get(d.family, False):
                raise ValueError(f"feature {d} has no table or bank in the catalog")
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

    def weights_from(self, source: "FeatureCatalog", weights: np.ndarray) -> np.ndarray:
        """``source``'s weight vector laid out in this catalog: observation
        weights matched by :class:`FeatureDef`, transition weights by
        (previous, current) label with the begin-of-sequence row matched to
        itself, and zero where ``source`` lacks the feature."""
        w_obs, trans = source.split(weights)
        position = {d: k for k, d in enumerate(source.observation_features)}
        missing = len(w_obs)  # index of an appended zero
        gather = [position.get(d, missing) for d in self.observation_features]
        L = source.n_labels
        # the source block with a zero row and column appended for missing labels
        padded = np.zeros((L + 2, L + 1))
        padded[: L + 1, :L] = trans
        columns = [source.label_index.get(l, L) for l in self.labels]
        rows = [source.label_index.get(l, L + 1) for l in self.labels] + [L]
        return np.concatenate([
            np.append(w_obs, 0.0)[gather], padded[np.ix_(rows, columns)].ravel()
        ])

    def restrict(self, features: Iterable[FeatureDef]) -> "FeatureCatalog":
        """This catalog with only the given observation features, in their
        order here, and only the tables and banks they read: a duration
        bank is kept when its step is the step of a kept
        ``lifecycle_duration`` feature. Labels, lifecycle steps, config
        and notes are kept, so every kept column evaluates as here."""
        wanted = set(features)
        kept = tuple(d for d in self.observation_features if d in wanted)
        ngrams = {d.n for d in kept if d.family == "concept_ngram"}
        orgs = {(d.n, d.org) for d in kept if d.family == "org_ngram"}
        views = {d.view for d in kept if d.family == "time_view"}
        steps = {d.step for d in kept if d.family == "lifecycle_duration"}
        return replace(
            self,
            observation_features=kept,
            concept_tables={n: t for n, t in self.concept_tables.items() if n in ngrams},
            org_tables={k: t for k, t in self.org_tables.items() if k in orgs},
            time_models={v: b for v, b in self.time_models.items() if v in views},
            duration_models={k: b for k, b in self.duration_models.items() if k[1] in steps},
        )

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


# --- the interned log ----------------------------------------------------------


def _intern(values: list) -> tuple[tuple, np.ndarray]:
    """The sorted vocabulary of the values other than None, and each
    value's index in it (-1 for None)."""
    vocabulary = tuple(sorted(set(values) - {None}))
    index = {v: i for i, v in enumerate(vocabulary)}
    index[None] = -1
    return vocabulary, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


_STRING_KEYS = (CONCEPT_NAME,) + tuple(f"org:{o}" for o in ORG_KINDS)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MILLISECOND = timedelta(milliseconds=1)
_SECONDS_PER_DAY = 86_400.0


class InternedLog:
    """A columnar view of a list of traces, built once and shared by every
    catalog fit and feature evaluation on them.

    Events are numbered in log order; trace ``t`` holds events
    ``offsets[t]:offsets[t + 1]``. Labels and lower-cased lifecycle steps
    are interned into sorted vocabularies (id -1 where an event has none),
    and so is each string attribute the n-gram families read (MISSING
    where an event lacks it). A value equal to BOT or MISSING raises
    :class:`InputError`, as it would be taken for padding or for a missing
    value.
    Timestamps are int64 UTC milliseconds, valid where ``timed``. Columns
    that depend on a parameter (n-gram contexts and their label counts per
    attribute and n, time-view coordinates per view, lifecycle durations
    per step chain) are computed on first use and kept, and so are the
    mixtures :func:`fold_catalogs` selects on whole-log sample sets.
    """

    def __init__(self, traces: Sequence[Trace]):
        self.case_ids = [t.case_id for t in traces]
        self.lengths = np.asarray([len(t.events) for t in traces], dtype=np.intp)
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)]).astype(np.intp)
        attributes = [ev.attributes for t in traces for ev in t.events]
        n = len(attributes)
        # each event's attributes are read once per key some event holds; a
        # key no event holds gives a constant column
        present = set().union(*attributes)

        def column(key: str) -> list:
            # an Event checks the kind of each key read here, so a value
            # present is a string (a datetime for the timestamp)
            return [av.value if (av := a.get(key)) is not None else None for a in attributes]

        def interned(key: str, lower: bool = False) -> tuple[tuple, np.ndarray]:
            if key not in present:
                return (), np.full(n, -1, dtype=np.intp)
            values = column(key)
            return _intern([v.lower() if v is not None else None for v in values] if lower else values)

        self.labels, self.label_ids = interned(LABEL)
        self.steps, self.step_ids = interned(LIFECYCLE_TRANSITION, lower=True)
        if TIME_TIMESTAMP in present:
            stamps = column(TIME_TIMESTAMP)
            self.timed = np.asarray([ts is not None for ts in stamps], dtype=bool)
            self.times = np.asarray(
                [(ts - _EPOCH) // _MILLISECOND if ts is not None else 0 for ts in stamps],
                dtype=np.int64,
            )
        else:
            self.timed, self.times = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
        self.symbols = {}
        for key in _STRING_KEYS:
            if key not in present:
                self.symbols[key] = ((MISSING,) if n else (), np.zeros(n, dtype=np.intp))
                continue
            values = column(key)
            if BOT in values or MISSING in values:
                event = next(i for i, v in enumerate(values) if v in (BOT, MISSING))
                raise InputError(
                    f"{self.describe(event)} has {key} {values[event]!r}, "
                    "a value reserved for n-gram contexts"
                )
            self.symbols[key] = _intern([MISSING if v is None else v for v in values])
        self._memo: dict = {}

    @property
    def n_traces(self) -> int:
        return len(self.case_ids)

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
        return f"trace {self.case_ids[t]!r} event {event - int(self.offsets[t])}"

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
        in lexicographic order of their vocabulary ids (BOT last), each
        event's context id, and whether each context ends in a value
        (contexts ending in MISSING are neither counted nor looked up). The
        context at an event is the last ``n`` values of the attribute, BOT
        before the trace start. Windows are told apart by integer keys, one
        1-D sort per context position."""
        memo = ("contexts", key, n)
        if memo not in self._memo:
            vocabulary, ids = self.symbols[key]
            base = len(vocabulary) + 1  # values and BOT
            position = np.arange(self.n_events) - np.repeat(self.offsets[:-1], self.lengths)
            window = np.full((self.n_events, n), len(vocabulary), dtype=np.intp)  # BOT
            for lag in range(n):
                reach = np.flatnonzero(position >= lag)
                window[reach, n - 1 - lag] = ids[reach - lag]
            # each event's rank among the distinct windows, in lexicographic
            # order: extended by one column at a time and re-ranked, so a key
            # stays below events * base whatever n is
            rank = np.zeros(self.n_events, dtype=np.intp)
            for values in window.T:
                keys, rank = np.unique(rank * base + values, return_inverse=True)
            distinct = np.empty((len(keys), n), dtype=np.intp)
            distinct[rank] = window  # the windows of one rank are equal
            names = vocabulary + (BOT,)
            contexts = [tuple(names[i] for i in row) for row in distinct.tolist()]
            live = np.asarray([c[-1] != MISSING for c in contexts], dtype=bool)
            self._memo[memo] = (contexts, rank, live)
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
        """Each event's elapsed position within the UTC day, week
        (Monday-based) or month, NaN where it has no timestamp. Day and
        week are measured in seconds (periods 86400 and 604800); month is
        the elapsed fraction of the calendar month, in [0, 1)."""
        if view not in TIME_VIEWS:
            raise ValueError(f"unknown time view {view!r}")
        memo = ("coordinates", view)
        if memo not in self._memo:
            days, ms = np.divmod(self.times, 86_400_000)
            x = (ms // 1000).astype(float) + (ms % 1000 * 1000) / 1e6
            if view == "week":  # 1970-01-01 was a Thursday
                x = ((days + 3) % 7) * _SECONDS_PER_DAY + x
            elif view == "month":
                dates = days.astype("datetime64[D]")
                months = dates.astype("datetime64[M]")
                length = (months + 1 - months.astype(dates.dtype)).astype(np.int64)
                elapsed = (dates - months).astype(np.int64) * _SECONDS_PER_DAY + x
                x = elapsed / (length * _SECONDS_PER_DAY)
            self._memo[memo] = np.where(self.timed, x, np.nan)
        return self._memo[memo]

    def durations(
        self, steps: Iterable[str]
    ) -> tuple[np.ndarray, tuple[tuple[str, str], ...], np.ndarray, np.ndarray]:
        """Matched lifecycle durations: the events they end at, in log
        order, the sorted distinct (activity, predecessor step) bank keys,
        each duration's key id, and its seconds. A step's predecessor is the
        nearest earlier step of the transactional order in ``steps``
        (case-insensitive). Within a trace, steps pair FIFO per activity
        name: the i-th occurrence of a step consumes the i-th unconsumed
        occurrence of its predecessor. An event without an activity name
        never pairs; a pair lacking a timestamp is consumed, then left out."""
        observed = {s.lower() for s in steps}
        chain = tuple(s for s in _LIFECYCLE_CHAIN if s in observed)
        memo = ("durations", chain)
        if memo not in self._memo:
            index = {s: i for i, s in enumerate(self.steps)}
            before = dict(zip(chain[1:], chain))
            # each step id's predecessor step id, -1 where it has none in this log
            predecessor = [index.get(before.get(s), -1) for s in self.steps]
            names, name_ids = self.symbols[CONCEPT_NAME]
            live = np.flatnonzero((self.step_ids >= 0) & self.present(CONCEPT_NAME))
            trace_ids = np.repeat(np.arange(self.n_traces), self.lengths)
            columns = (live, trace_ids[live], name_ids[live], self.step_ids[live])
            queues: dict[tuple[int, int, int], deque[int]] = {}
            pairs = []  # (start, end) events
            for e, t, a, s in zip(*(c.tolist() for c in columns)):
                queue = queues.get((t, a, predecessor[s]))
                if queue:
                    pairs.append((queue.popleft(), e))
                queues.setdefault((t, a, s), deque()).append(e)
            pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
            starts, ends = pairs[self.timed[pairs].all(axis=1)].T
            keys, key_ids = _intern([
                (names[a], self.steps[s])
                for a, s in zip(name_ids[ends].tolist(), self.step_ids[starts].tolist())
            ])
            seconds = (self.times[ends] - self.times[starts]) / 1000.0
            self._memo[memo] = (ends, keys, key_ids, seconds)
        return self._memo[memo]


# --- catalog construction ----------------------------------------------------

# Consecutive folds are fitted together up to this many training rows (the
# events outside a fold, summed over the group's folds): their mixtures in
# one packed EM run (:func:`fold_catalogs`), their CRFs in one lockstep
# batch (``abstraction.fit_folds``). A fold has at most one sample row per
# training row and mixture bank, and a batch a few (rows, labels) buffers per
# fold, so a group's memory stays bounded however large the log; a fold
# above the budget is a group alone. A 20-fold share of a 40-trace household
# LOOCV holds 8,740 training rows, one group. At 20,000 a serial LOOCV of
# that log would fit all 40 folds' mixtures in one EM run, whose peak is
# about twice that of two runs.
FOLD_GROUP_ROWS = 10_000


# a mixture bank: its name, the per-label samples, the seed, and the labels
# whose samples the held-out traces add nothing to
_Bank = tuple[str, dict[str, np.ndarray], int, set[str]]
# a fold's banks, and the function that builds its catalog from their
# fitted mixtures, one label -> mixture dict per bank (:func:`_plan_fold`)
_Plan = tuple[list[_Bank], Callable[[list[dict[str, Gmm]]], FeatureCatalog]]


def _plan_fold(log: InternedLog, fold: list[int], config: CatalogConfig) -> _Plan:
    """A fold's catalog before its mixtures are fitted: its mixture banks,
    time views first, and the function that builds the catalog. The
    catalog's notes are the plan's, then the mixture warnings in bank
    order, then the lifecycle notes."""
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

    banks: list[_Bank] = []

    def add_bank(
        name: str, seed: int, values: np.ndarray, owners: np.ndarray, rows: np.ndarray,
        kept: np.ndarray,
    ) -> None:
        # each label's samples are its rows that are kept; it is whole when
        # the held-out traces drop none of its rows
        samples, whole = {}, set()
        for l, j in zip(labels, label_ids):
            mine = rows & (owners == j)
            samples[l] = values[mine & kept]
            if len(samples[l]) == np.count_nonzero(mine):
                whole.add(l)
        banks.append((name, samples, seed, whole))

    views = config.time_views if has_time else ()
    for view in views:
        add_bank(
            f"time_view {view}", config.gmm_seed + 7919 * TIME_VIEWS.index(view),
            log.coordinates(view), label_of, log.timed, training,
        )
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
            add_bank(
                f"lifecycle_duration {keys[k][0]} after {keys[k][1]}",
                config.gmm_seed + 104_729 + 1009 * offset,
                seconds, label_of[ends], key_ids == k, kept,
            )
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

    def catalog(gmms: list[dict[str, Gmm]]) -> FeatureCatalog:
        warned = list(notes)
        fitted = [
            _bank(samples, labels, gmms_of, name, warned)
            for (name, samples, *_), gmms_of in zip(banks, gmms)
        ]
        return FeatureCatalog(
            labels=labels,
            observation_features=tuple(defs),
            config=config,
            concept_tables=concept_tables,
            org_tables=org_tables,
            time_models=dict(zip(views, fitted)),
            duration_models=dict(zip(duration_keys, fitted[len(views):])),
            lifecycle_steps=lifecycle_steps,
            notes=tuple(warned + tail),
        )

    return banks, catalog


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


def _fit_plans(
    log: InternedLog, plans: list[_Plan], config: CatalogConfig
) -> list[FeatureCatalog]:
    """The catalogs of the plans, with all their mixtures fitted in one
    packed EM run. A selection is a function of the samples, the seed and
    ``k_max``: each distinct one is fitted once, and the log keeps those of
    whole sets (no held-out rows dropped, so O(events) samples), which the
    folds that draw them again reuse."""
    # (plan, bank, label, samples, seed, whole) of every mixture
    label_sets = [
        (p, b, label, samples[label], seed + 1000 * offset, label in whole)
        for p, (banks, _) in enumerate(plans)
        for b, (_, samples, seed, whole) in enumerate(banks)
        for offset, label in enumerate(sorted(samples))
        if len(samples[label])
    ]
    memo = log._memo
    keys = [
        ("gmm", xs.tobytes(), seed, config.gmm_max_components) for *_, xs, seed, _ in label_sets
    ]
    misses = {
        key: (xs, seed)
        for key, (*_, xs, seed, _) in zip(keys, label_sets)
        if key not in memo
    }
    selected = dict(zip(misses, gmm_select_bic_many(
        [xs for xs, _ in misses.values()], config.gmm_max_components,
        [seed for _, seed in misses.values()],
    )))
    bank_gmms: list[list[dict[str, Gmm]]] = [[{} for _ in banks] for banks, _ in plans]
    for key, (p, b, label, _, _, whole) in zip(keys, label_sets):
        gmm = selected[key] if key in selected else memo[key]
        if whole:
            memo[key] = gmm
        bank_gmms[p][b][label] = gmm
    return [catalog(gmms) for (_, catalog), gmms in zip(plans, bank_gmms)]


def fold_catalogs(
    log: InternedLog,
    folds: Iterable[Iterable[int]],
    config: CatalogConfig = CatalogConfig(),
) -> Iterator[FeatureCatalog]:
    """The catalog of every fold, fitted on the log less the fold's traces:
    each equals :func:`build_catalog` on that smaller log. Yields them in
    fold order. Raises the ``ValueError`` of :func:`fold_groups` for a
    fold that is not trace indices.

    Multinoulli tables are the whole log's context counts less those of
    the held-out traces, which is exact in integers; the label alphabet,
    family presence and the lifecycle step set are recounted per fold. The
    mixtures of each group of :func:`fold_groups` are fitted together, in
    one packed EM run (:func:`gmm_select_bic_many`), with each fold's own
    seeds. A sample set that the held-out traces add nothing to is the
    whole log's: its selection is kept on ``log`` and fitted once per log.
    """
    for group in fold_groups(log, folds):
        yield from _fit_plans(log, [_plan_fold(log, fold, config) for fold in group], config)


def fold_groups(log: InternedLog, folds: Iterable[Iterable[int]]) -> list[list[list[int]]]:
    """The folds, in order, cut into groups of consecutive folds that
    together train on at most ``FOLD_GROUP_ROWS`` rows, a fold's rows being
    the events outside it; a fold above the budget is a group alone. Raises
    ``ValueError`` when a fold names a trace outside ``[0, n_traces)``,
    names one trace twice, or holds anything but ints (a bool is no trace
    index)."""
    folds = [list(fold) for fold in folds]
    for b, fold in enumerate(folds):
        if not all(
            isinstance(t, (int, np.integer)) and not isinstance(t, bool) and 0 <= t < log.n_traces
            for t in fold
        ):
            raise ValueError(f"fold {b} is {fold}, not trace indices in [0, {log.n_traces})")
        if len(set(fold)) != len(fold):
            raise ValueError(f"fold {b} is {fold}, which names a trace twice")
    groups: list[list[list[int]]] = []
    rows = 0
    for fold in folds:
        fold_rows = log.n_events - int(log.lengths[fold].sum())
        if not groups or rows + fold_rows > FOLD_GROUP_ROWS:
            groups.append([])
            rows = 0
        groups[-1].append(fold)
        rows += fold_rows
    return groups


def build_catalog(
    training: EventLog,
    config: CatalogConfig = CatalogConfig(),
) -> FeatureCatalog:
    """Fit the feature catalog on a fully annotated log: the one-fold case
    of :func:`fold_catalogs`, holding nothing out.

    Only families whose required attributes occur in the log are included;
    skipped families and mixture-fit warnings are recorded in the catalog
    notes. Raises :class:`TrainingError` when any event lacks the label
    attribute.
    """
    return next(fold_catalogs(InternedLog(training.traces), [()], config))


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
