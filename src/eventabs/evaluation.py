"""Evaluation of predicted high-level annotations: Levenshtein similarity,
leave-one-trace-out and k-fold cross-validation drivers, and confusion
matrices over low-level events.

The edit distance behind the similarity is computed bit-parallel (Myers'
algorithm in Hyyrö's form, :func:`levenshtein_distance`): exact, with a
dozen integer operations per symbol of the longer sequence and per 64
symbols of the shorter one, so scoring stays cheap next to training even
on long day-traces.

A cross-validation reads the log once, into an :class:`InternedLog`, and
fits the whole log once. The folds are cut into ``n_jobs`` contiguous
shares, and each share into groups of consecutive folds that train on at
most ``features.FOLD_GROUP_ROWS`` rows together (:func:`fold_groups`). A
group's catalogs are built together (count subtraction plus one packed
EM run, see :func:`fold_catalogs`) and its folds trained in lockstep,
where one forward-backward pass evaluates a pending point of every fold
of the group (:func:`fit_folds`); then each fold's held-out traces are
decoded. A 20-fold share of a 40-trace leave-one-trace-out is one group.
With more than one share, the workers fork before the whole-log fit:
they build catalogs and batches, which do not read the whole-log model,
while the parent fits it. Each share hands :func:`fit_folds` a ``start``
provider that reads the model from a pipe, which its first lockstep
group calls once its batch is built. Every fold's OWL-QN run starts from
the whole-log weights, mapped into the fold catalog's layout
(:meth:`FeatureCatalog.weights_from`). A fold's training set differs
from the whole log only by its held-out traces, so the fit takes far
fewer iterations than one from zero weights. The start leaks nothing of
the held-out labels into their predictions: each fold still minimizes
its own objective, which never reads them, to the same stop test. A warm
fit can end at other weights than one from zero only within that
tolerance or along flat directions of the objective; the structural ones
(the two-label gauge of the ``features`` docstring, a constant added to
the label-to-label transitions) change no p(y|x) on any trace.
``tests/test_eval.py`` checks sampled warm folds' composite objectives
against an independent optimizer, and their decodes against fits from
zero. No fold starts from another fold's result, and a fold's fit does
not depend on the folds trained beside it, so results are merged in fold
order and the report does not depend on ``n_jobs``. The report records
each fold's optimizer run (:class:`FoldRecord`).
"""

from __future__ import annotations

import functools
import json
import random
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from .abstraction import AbstractionConfig, fit_folds
from .crf import CrfModel, viterbi_decode_many
from .errors import InputError
from .features import InternedLog, neutral_time_notes
from .xes import EventLog

__all__ = [
    "levenshtein_distance",
    "levenshtein_similarity",
    "collapse_runs",
    "ConfusionMatrix",
    "EventRecord",
    "FoldRecord",
    "AbstractionReport",
    "EvalConfig",
    "leave_one_trace_out",
    "k_fold",
    "confusion_restricted",
]


def levenshtein_distance(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Unit-cost edit distance between two symbol sequences.

    Myers' bit-vector algorithm (Myers, "A fast bit-vector algorithm for
    approximate string matching based on dynamic programming", JACM 1999),
    in Hyyrö's form for global edit distance (Hyyrö, "A bit-vector
    algorithm for computing Levenshtein and Damerau edit distances", Nordic
    J. Computing 2003). The shorter sequence is the pattern: one match mask
    per distinct symbol, and the current DP column held as two m-bit
    integers, ``pv`` and ``mv``, the positions where the column steps up or
    down by one. Each symbol of the longer sequence advances the whole
    column with a dozen integer operations, and the distance is tracked
    along the last row: O(|a|·⌈|b|/64⌉) word operations for |a| ≥ |b|.

    Symbols compare as dict keys: by hash, then identity or ``==``.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    match: dict[Hashable, int] = {}
    for i, symbol in enumerate(b):
        match[symbol] = match.get(symbol, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for symbol in a:
        eq = match.get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # the top row steps up by one per symbol: D[0][j] = j
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_similarity(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """1 - edit_distance(a, b) / max(|a|, |b|); 1 for two empty sequences.

    0 means completely different sequences, 1 identical ones.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def collapse_runs(labels: Sequence[str]) -> list[str]:
    """Collapse consecutive repeats: the per-run label sequence."""
    out: list[str] = []
    for label in labels:
        if not out or out[-1] != label:
            out.append(label)
    return out


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix indexed by (true label, predicted label)."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.labels)
        if self.counts.shape != (n, n):
            raise ValueError("confusion matrix shape does not match labels")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def count(self, true_label: str, predicted_label: str) -> int:
        i = self.labels.index(true_label)
        j = self.labels.index(predicted_label)
        return int(self.counts[i, j])

    def precision(self) -> dict[str, float]:
        column_sums = self.counts.sum(axis=0)
        return {
            l: float(self.counts[i, i] / column_sums[i]) if column_sums[i] else 0.0
            for i, l in enumerate(self.labels)
        }

    def recall(self) -> dict[str, float]:
        row_sums = self.counts.sum(axis=1)
        return {
            l: float(self.counts[i, i] / row_sums[i]) if row_sums[i] else 0.0
            for i, l in enumerate(self.labels)
        }

    def to_text(self) -> str:
        width = max([len(l) for l in self.labels] + [8]) + 2
        header = " " * width + "".join(f"{l:>{width}}" for l in self.labels)
        rows = [header]
        for i, l in enumerate(self.labels):
            cells = "".join(f"{int(c):>{width}}" for c in self.counts[i])
            rows.append(f"{l:>{width}}" + cells)
        return "\n".join(rows)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "counts": [[int(c) for c in row] for row in self.counts],
        }


@dataclass(frozen=True)
class EventRecord:
    """One evaluated event: its low-level name, ground truth, prediction."""

    concept_name: str | None
    true_label: str
    predicted_label: str


@dataclass(frozen=True)
class FoldRecord:
    """One fold's optimizer run: the held-out trace indices, the stop test
    that ended OWL-QN, its iteration and evaluation counts, and the
    composite objective (NLL + L1) it reached."""

    held_out: tuple[int, ...]
    stop: str
    iterations: int
    evaluations: int
    objective: float


@dataclass
class AbstractionReport:
    """Cross-validation outcome: per-trace similarities, their mean, the
    event-level confusion matrix, per-label precision/recall, and one
    optimizer record per fold, in fold order."""

    per_trace: list[tuple[str, float]]
    mean_similarity: float
    confusion: ConfusionMatrix
    precision: dict[str, float]
    recall: dict[str, float]
    records: list[EventRecord] = field(default_factory=list, repr=False)
    diagnostics: list[str] = field(default_factory=list)
    similarity_on: str = "events"
    folds: list[FoldRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "similarity_on": self.similarity_on,
            "mean_similarity": self.mean_similarity,
            "per_trace": [
                {"case": case, "similarity": sim} for case, sim in self.per_trace
            ],
            "confusion": self.confusion.to_dict(),
            "precision": self.precision,
            "recall": self.recall,
            "diagnostics": self.diagnostics,
            "folds": [asdict(record) for record in self.folds],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"mean Levenshtein similarity ({self.similarity_on}): "
            f"{self.mean_similarity:.4f} over {len(self.per_trace)} traces",
        ]
        if self.folds:
            stops = Counter(record.stop for record in self.folds)
            lines.append(
                f"optimizer over {len(self.folds)} folds: "
                + ", ".join(f"{stop} {n}" for stop, n in sorted(stops.items()))
                + f"; median {statistics.median(r.iterations for r in self.folds):g} iterations"
            )
        lines += [
            "",
            "confusion matrix (rows: truth, columns: prediction):",
            self.confusion.to_text(),
            "",
        ]
        for label in self.confusion.labels:
            lines.append(
                f"{label}: precision {self.precision[label]:.4f}, "
                f"recall {self.recall[label]:.4f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class EvalConfig:
    abstraction: AbstractionConfig = AbstractionConfig()
    similarity_on: str = "events"  # "events" or "runs"
    # worker processes, each fitting a contiguous share of the folds while
    # the parent fits the whole log; the report does not depend on it
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.similarity_on not in ("events", "runs"):
            raise InputError("similarity_on must be 'events' or 'runs'")
        # isinstance counts a bool as an int; True is no worker count
        n_jobs = self.n_jobs
        if not isinstance(n_jobs, int) or isinstance(n_jobs, bool) or n_jobs < 1:
            raise InputError(f"n_jobs must be a positive integer, got {n_jobs!r}")


_FoldOutcome = tuple[list[list[str]], list[str], FoldRecord]


def _run_share(
    log: InternedLog,
    folds: list[list[int]],
    config: EvalConfig,
    start: Callable[[], CrfModel],
) -> list[_FoldOutcome]:
    """Per fold: fit on the rest from the model ``start`` gives, then
    decode the fold's traces (features never read labels); the decodes,
    the fold's diagnostics and its optimizer record."""
    outcomes = []
    fitted = fit_folds(log, folds, config.abstraction, start)
    for fold, (model, held_out) in zip(folds, fitted):
        decoded = viterbi_decode_many(model, held_out)
        run = model.training
        outcomes.append((
            decoded,
            list(model.catalog.notes) + neutral_time_notes(model.catalog, log, fold),
            FoldRecord(tuple(fold), run.stop, run.iterations, run.evaluations, run.objective),
        ))
    return outcomes


_WORKER_STATE: dict = {}


def _share_worker_init(log: InternedLog, config: EvalConfig, channel) -> None:
    _WORKER_STATE.update(log=log, config=config, channel=channel)


def _share_worker(folds: list[list[int]]) -> list[_FoldOutcome]:
    """One share, whose start model the parent sends on the channel once
    it has fitted the whole log."""
    start = functools.cache(_WORKER_STATE["channel"].get)
    try:
        return _run_share(_WORKER_STATE["log"], folds, _WORKER_STATE["config"], start)
    finally:
        # a share takes its copy even when it fails before it needs one,
        # so the parent never waits to write a copy that no share reads
        start()


def _evaluate_folds(
    log: EventLog,
    folds: list[list[int]],
    config: EvalConfig,
) -> AbstractionReport:
    """Cross-validate over ``folds``. With several shares, the workers fork
    right after interning and build their catalogs and batches while this
    process fits the whole log; each share then reads the start model from
    a pipe when its first lockstep group needs initial weights."""
    interned = InternedLog(log.traces)
    unlabeled = np.flatnonzero(interned.label_ids < 0)
    if len(unlabeled):
        raise InputError(f"{interned.describe(int(unlabeled[0]))} has no ground-truth label")
    names = np.asarray(interned.labels, dtype=object)
    truth = [names[ids].tolist() for ids in interned.per_trace(interned.label_ids)]

    shares = [
        [folds[i] for i in share]
        for share in np.array_split(np.arange(len(folds)), min(config.n_jobs, len(folds)))
    ]
    if len(shares) > 1:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        channel = context.SimpleQueue()
        try:
            with context.Pool(
                len(shares), initializer=_share_worker_init, initargs=(interned, config, channel)
            ) as pool:
                pending = pool.map_async(_share_worker, shares, chunksize=1)
                start, _ = next(fit_folds(interned, [()], config.abstraction))
                for _ in shares:
                    channel.put(start)
                outcomes = pending.get()
        finally:
            channel.close()
    else:
        start, _ = next(fit_folds(interned, [()], config.abstraction))
        outcomes = [_run_share(interned, folds, config, lambda: start)]

    diagnostics: list[str] = []
    predicted: dict[int, list[str]] = {}
    fold_records: list[FoldRecord] = []
    for fold, (decoded, fold_diagnostics, record) in zip(
        folds, [outcome for share in outcomes for outcome in share]
    ):
        predicted.update(zip(fold, decoded))
        diagnostics.extend(fold_diagnostics)
        fold_records.append(record)

    all_labels = tuple(sorted(
        {l for seq in truth for l in seq}
        | {l for seq in predicted.values() for l in seq}
    ))
    index = {l: i for i, l in enumerate(all_labels)}
    counts = np.zeros((len(all_labels), len(all_labels)), dtype=np.int64)
    records: list[EventRecord] = []
    per_trace: list[tuple[str, float]] = []

    for i, trace in enumerate(log.traces):
        true_seq, pred_seq = truth[i], predicted[i]
        for ev, t, p in zip(trace.events, true_seq, pred_seq):
            counts[index[t], index[p]] += 1
            records.append(EventRecord(ev.name, t, p))
        if config.similarity_on == "runs":
            sim = levenshtein_similarity(collapse_runs(true_seq), collapse_runs(pred_seq))
        else:
            sim = levenshtein_similarity(true_seq, pred_seq)
        per_trace.append((trace.case_id, sim))

    confusion = ConfusionMatrix(all_labels, counts)
    similarities = [sim for _, sim in per_trace]
    return AbstractionReport(
        per_trace=per_trace,
        mean_similarity=float(sum(similarities) / len(similarities)),
        confusion=confusion,
        precision=confusion.precision(),
        recall=confusion.recall(),
        records=records,
        diagnostics=diagnostics,
        similarity_on=config.similarity_on,
        folds=fold_records,
    )


def leave_one_trace_out(log: EventLog, config: EvalConfig = EvalConfig()) -> AbstractionReport:
    """For each trace: train on all others, predict it with labels
    stripped, and score against the ground truth."""
    if len(log.traces) < 2:
        raise InputError("leave-one-trace-out needs at least 2 annotated traces")
    folds = [[i] for i in range(len(log.traces))]
    return _evaluate_folds(log, folds, config)


def k_fold(
    log: EventLog, k: int, seed: int, config: EvalConfig = EvalConfig()
) -> AbstractionReport:
    """Shuffle traces deterministically into k near-equal folds; per fold,
    train on the rest and predict the fold."""
    n = len(log.traces)
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise InputError(f"k must be an integer at least 2, got {k!r}")
    if k > n:
        raise InputError(f"k={k} exceeds the number of traces ({n})")
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    folds = [[int(i) for i in part] for part in np.array_split(indices, k)]
    return _evaluate_folds(log, folds, config)


def confusion_restricted(
    report: AbstractionReport,
    low_level_names: set[str],
    true_labels: set[str],
) -> ConfusionMatrix:
    """Confusion matrix over the report's events whose low-level concept
    name is in ``low_level_names``, restricted to rows and columns in
    ``true_labels``. An empty selection yields an all-zero matrix."""
    labels = tuple(sorted(true_labels))
    index = {l: i for i, l in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for record in report.records:
        if record.concept_name not in low_level_names:
            continue
        i = index.get(record.true_label)
        j = index.get(record.predicted_label)
        if i is not None and j is not None:
            counts[i, j] += 1
    return ConfusionMatrix(labels, counts)
