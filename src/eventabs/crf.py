"""Linear-chain conditional random field over catalog features.

The conditional distribution is ``p(y|x) = exp(sum_t sum_k lambda_k
f_k(t, y_{t-1}, y_t, x)) / Z(x)``. Observation features contribute
``value * 1[y_t = label]`` emission scores; transition indicator features
``1[y_{t-1} = l', y_t = l]`` carry the Markov dependency, with a
distinguished begin-of-sequence row so transitions are defined at t = 1.
The feature catalog owns the weight layout (which label each observation
weight scores, and where the transition block starts); this module only
asks it to split a weight vector. Training and decoding share one packing
of traces into time-major rows (``_pack``): training runs a scaled
forward pass over it per objective evaluation and the backward pass only
where the optimizer asks for a gradient, Viterbi one log-space max-plus
pass for any number of traces. A :class:`TrainingBatch`
is the one training input of the objective (:func:`nll_and_gradients`),
and its constructor the one place that packs and checks training input:
one or more problems over one packing, each a catalog, its observations
and labels over every trace of the packing, and a mask of the traces it
trains on, with problem-major (B, rows, L) buffers, so one pass
evaluates every problem at once. The folds of a cross-validation are
such a group over the whole log; a single fit (:func:`train`) is the one
problem whose mask is all true. :func:`fit_group`,
the one training driver, trains a batch's problems in lockstep
(:func:`~eventabs.owlqn.minimize_lockstep`) and drops finished problems
by taking a subset of the batch. A batch owns the pass's work buffers
and its per-step views into them, allocated once and overwritten by
every evaluation, so one batch must not be evaluated concurrently.
``log_partition``, ``posterior_marginals`` and ``sequence_log_prob`` stay
per-trace in log space: they must stay finite where the weights put more
than about 700 nats between paths, and there the scaled pass returns
``+inf``.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EventabsError
from .features import FeatureCatalog, InternedLog, observation_matrix
from .owlqn import Evaluation, OptimizationError, OwlqnConfig, OwlqnResult, minimize_lockstep
from .xes import EventLog

# relative score difference below which two labelings tie in Viterbi
TIE_TOLERANCE = 1e-9
# the smallest normal float: a scale factor below it ends the scaled pass
_TINY = np.finfo(float).tiny
# the zero that fills the emission-weight entries no weight scores
_ZERO = np.zeros(1)

__all__ = [
    "CrfModel",
    "log_partition",
    "sequence_log_prob",
    "posterior_marginals",
    "viterbi_decode",
    "viterbi_decode_many",
    "nll_and_gradients",
    "TrainingBatch",
    "fit_group",
    "training_pairs",
    "train",
]


def _slots(catalog: FeatureCatalog) -> np.ndarray:
    """The flat position of each observation weight in the (F_obs, L)
    emission matrix: its own row, its label's column."""
    return np.arange(catalog.n_observation_features) * catalog.n_labels + catalog.observation_labels


def _emission_weights(catalog: FeatureCatalog, w_obs: np.ndarray) -> np.ndarray:
    """(F_obs, L) matrix placing each observation weight in its label's
    column, so emissions are ``observations @ matrix``."""
    w_matrix = np.zeros((len(w_obs), catalog.n_labels))
    w_matrix.reshape(-1)[_slots(catalog)] = w_obs
    return w_matrix


def _forward(emissions: np.ndarray, trans: np.ndarray) -> np.ndarray:
    T, L = emissions.shape
    alpha = np.empty((T, L))
    alpha[0] = trans[L] + emissions[0]
    core = trans[:L]
    for t in range(1, T):
        alpha[t] = emissions[t] + np.logaddexp.reduce(
            alpha[t - 1][:, None] + core, axis=0
        )
    return alpha


def _backward(emissions: np.ndarray, trans: np.ndarray) -> np.ndarray:
    T, L = emissions.shape
    beta = np.zeros((T, L))
    core = trans[:L]
    for t in range(T - 2, -1, -1):
        beta[t] = np.logaddexp.reduce(
            core + (emissions[t + 1] + beta[t + 1])[None, :], axis=1
        )
    return beta


def _log_partition_forward(emissions: np.ndarray, trans: np.ndarray) -> float:
    if len(emissions) == 0:
        return 0.0
    return float(np.logaddexp.reduce(_forward(emissions, trans)[-1]))


@dataclass(eq=False)
class CrfModel:
    """A trained linear-chain CRF: the label alphabet lives in the catalog,
    and one weight per catalog feature."""

    catalog: FeatureCatalog
    weights: np.ndarray
    l1_coefficient: float = 0.0
    training: OwlqnResult | None = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.catalog.split(self.weights)  # checks the length against the layout
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.catalog.labels

    @property
    def nonzero_weight_count(self) -> int:
        return int(np.count_nonzero(self.weights))

    def potentials(self, observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w_obs, trans = self.catalog.split(self.weights)
        observations = np.asarray(observations, dtype=float)
        return observations @ _emission_weights(self.catalog, w_obs), trans


def log_partition(model: CrfModel, observations: np.ndarray) -> float:
    """log Z(x) by the forward recursion in log space."""
    emissions, trans = model.potentials(observations)
    return _log_partition_forward(emissions, trans)


def sequence_log_prob(
    model: CrfModel, observations: np.ndarray, labels: Sequence[str]
) -> float:
    """log p(y|x) of a labeling: the weighted feature score minus log Z."""
    if len(observations) != len(labels):
        raise ValueError("observation and label sequences differ in length")
    try:
        y = np.asarray([model.catalog.label_index[l] for l in labels], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(
            f"label {exc.args[0]!r} is outside the model alphabet {model.labels}"
        ) from exc
    emissions, trans = model.potentials(observations)
    return _sequence_score(emissions, trans, y) - _log_partition_forward(emissions, trans)


def _sequence_score(emissions: np.ndarray, trans: np.ndarray, y: np.ndarray) -> float:
    T, L = emissions.shape
    if T == 0:
        return 0.0
    return float(
        trans[L, y[0]] + trans[y[:-1], y[1:]].sum() + emissions[np.arange(T), y].sum()
    )


def posterior_marginals(
    model: CrfModel, observations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position label marginals (T, L) and per-edge pair marginals
    (T-1, L, L), each normalized to 1."""
    emissions, trans = model.potentials(observations)
    T, L = emissions.shape
    if T == 0:
        return np.zeros((0, L)), np.zeros((0, L, L))
    alpha = _forward(emissions, trans)
    beta = _backward(emissions, trans)
    log_z = float(np.logaddexp.reduce(alpha[-1]))
    node = np.exp(alpha + beta - log_z)
    edge = np.exp(
        alpha[:-1, :, None]
        + trans[None, :L, :]
        + (emissions[1:] + beta[1:])[:, None, :]
        - log_z
    )
    return node, edge


def _pack(lengths: Sequence[int]) -> tuple[int, np.ndarray, np.ndarray]:
    """Time-major packing of sequences: the ``n`` non-empty ones, stably
    sorted longest first, so those reaching position t are a prefix and
    position t of the i-th is row ``offsets[t] + i``. Each step's rows are
    one contiguous slice, as in a packed sequence. ``rows`` holds every
    event's row, sequence by sequence in input order, so a concatenation
    of the sequences lands in the packed layout by one scatter."""
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")[: np.count_nonzero(lengths)]
    live = lengths[order]
    # active[t]: how many sequences reach position t
    active = len(order) - np.cumsum(np.bincount(live))[:-1]
    offsets = np.concatenate([[0], np.cumsum(active)]).astype(np.intp)
    rank = np.zeros(len(lengths), dtype=np.intp)
    rank[order] = np.arange(len(order))
    position = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return len(order), offsets, offsets[position] + np.repeat(rank, lengths)


def viterbi_decode_many(model: CrfModel, observations: Sequence[np.ndarray]) -> list[list[str]]:
    """The maximum-score labeling of every sequence, in input order; among
    ties, the lexicographically smallest in label-alphabet order. Scores
    within ``TIE_TOLERANCE * max(1, |best|)`` of a sequence's best score
    tie, so labelings that tie in exact arithmetic do so whatever the
    rounding (weights moved along a null direction, such as a constant added
    to the label-to-label transitions, decode the same). One max-plus
    backward and one forward pass over the packed rows (:func:`_pack`), a
    contiguous slice per step; the forward pass keeps, per sequence, the
    slack its chosen prefix leaves under the best score, and takes the
    smallest label whose best completion stays within it. Emissions are one
    product per sequence, as in :meth:`CrfModel.potentials`, so a sequence
    decodes the same whatever it is batched with. Raises
    :class:`EventabsError` naming the first sequence whose best score is
    not finite, as when the weights are so large that the scores
    overflow."""
    lengths = [len(obs) for obs in observations]
    n, offsets, rows = _pack(lengths)
    if n == 0:
        return [[] for _ in observations]
    w_obs, trans = model.catalog.split(model.weights)
    core = trans[:-1]
    w_matrix = _emission_weights(model.catalog, w_obs)
    emissions = np.empty((len(rows), len(core)))
    # delta[r, l]: best score of the rest of row r's sequence given label l
    # at row r; ahead = emissions + delta, the best score from row r on,
    # filled in place once a step's delta is final
    delta = np.zeros_like(emissions)
    ahead = emissions
    offsets = offsets.tolist()
    # scores that overflow give a best score that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        emissions[rows] = np.concatenate([
            np.asarray(obs, dtype=float) @ w_matrix for obs in observations if len(obs)
        ])
        for t in range(len(offsets) - 2, 0, -1):
            s, e, ps = offsets[t], offsets[t + 1], offsets[t - 1]
            ahead[s:e] += delta[s:e]
            delta[ps:ps + e - s] = np.maximum.reduce(core + ahead[s:e][:, None, :], axis=2)
        ahead[:n] += delta[:n]
        total = trans[-1] + ahead[:n]
        best = total.max(axis=1)
    overflow = np.flatnonzero(~np.isfinite(best))
    if len(overflow):
        sequence = int(np.argsort(-np.asarray(lengths), kind="stable")[overflow].min())
        raise EventabsError(
            f"sequence {sequence} has no labeling with a finite score: the model's scores overflow"
        )
    # need[i]: the least score the rest of sequence i must reach for its
    # labeling to stay within the tie tolerance of the best score
    need = (best - TIE_TOLERANCE * np.maximum(1.0, np.abs(best)))[:, None]
    path = np.empty(len(rows), dtype=np.intp)
    starts = np.arange(n) * len(core)  # flat index of each sequence's row in a step
    for t in range(len(offsets) - 1):
        s, e = offsets[t], offsets[t + 1]
        m = e - s
        if t:
            ps = offsets[t - 1]
            total = core[path[ps:ps + m]] + ahead[s:e]
        choice = (total >= need[:m]).argmax(axis=1)
        path[s:e] = choice
        # keep the slack total - need >= 0 and measure need from delta: the
        # chosen label's delta is the next step's maximum total bit for bit
        # (same summation order), so some label always stays within
        chosen = starts[:m] + choice
        need[:m, 0] = delta[s:e].ravel()[chosen] - (total.ravel()[chosen] - need[:m, 0])
    names = np.asarray(model.labels, dtype=object)[path[rows]].tolist()
    ends = np.cumsum(lengths).tolist()
    return [names[end - length:end] for length, end in zip(lengths, ends)]


def viterbi_decode(model: CrfModel, observations: np.ndarray) -> list[str]:
    """The maximum-score labeling of one sequence (see
    :func:`viterbi_decode_many`)."""
    return viterbi_decode_many(model, [observations])[0]


# --- training ----------------------------------------------------------------


@dataclass(eq=False)
class _Problem:
    """One objective of a :class:`TrainingBatch`: a catalog and the packed
    rows it trains on. ``obs`` (rows, F_obs) covers those rows only, in
    packed order, and ``observed`` holds their feature counts. ``keep``
    lists the rows, ``n`` is how many of them are at step 0, ``after``
    lists the others and ``prev`` the row of the same trace's previous
    position for each of those. ``slots`` are the catalog's :func:`_slots`."""

    catalog: FeatureCatalog
    slots: np.ndarray
    obs: np.ndarray
    observed: np.ndarray
    keep: np.ndarray
    n: int
    after: np.ndarray
    prev: np.ndarray


def _problem(
    catalog: FeatureCatalog,
    obs: np.ndarray,
    labels: np.ndarray,
    keep: np.ndarray,
    n: int,
    prev: np.ndarray,
) -> _Problem:
    """The problem training on the packed rows ``keep`` (increasing) of a
    packing with ``n`` rows at step 0 and previous rows ``prev``, given the
    observations and label indices of those rows in packed order."""
    L = catalog.n_labels
    own_n = int(np.searchsorted(keep, n))
    after = keep[own_n:]
    own_prev = prev[after - n]
    prev_labels = labels[np.searchsorted(keep, own_prev)]
    observed_trans = np.zeros((L + 1, L))
    np.add.at(observed_trans, (prev_labels, labels[own_n:]), 1.0)
    np.add.at(observed_trans[L], labels[:own_n], 1.0)
    slots = _slots(catalog)
    observed = np.concatenate([
        _observation_counts(obs, np.eye(L)[labels], slots), observed_trans.ravel(),
    ])
    return _Problem(catalog, slots, obs, observed, keep, own_n, after, own_prev)


def _previous_rows(n: int, offsets: np.ndarray) -> np.ndarray:
    """The row of the same trace's previous position, for each row past
    step 0 of a packing."""
    active = np.diff(offsets)
    return np.arange(n, offsets[-1]) - np.repeat(active[:-1], active[1:])


class TrainingBatch:
    """Training problems over one time-major packing of sequences
    (:func:`_pack`), precomputed once so repeated objective evaluations
    only touch weight-dependent quantities.

    The constructor is the one place that packs and checks training input.
    It takes the lengths of every sequence of the packing and the
    problems, read one at a time: each is ``(catalog, observations,
    labels, kept)``, where ``observations`` (events, F_obs) and ``labels``
    (label indices) cover every event of the packing, sequence by sequence
    in input order, and ``kept`` holds one bool per sequence, true for the
    sequences the problem trains on. The rows and labels of the other
    sequences are never read. It raises ``ValueError``, naming the
    problem, when the observations are not one row of F_obs per event,
    ``kept`` not one bool per sequence, or the labels not one integer per
    event with the kept ones in ``[0, n_labels)``; and when a length is
    negative, there is no problem, or the problems' label alphabet sizes
    differ.
    Position t of the i-th longest non-empty sequence is row ``offsets[t]
    + i``, so memory is O(events), with no padding. A problem keeps a
    packed copy of its own rows only, gathered from ``observations`` in
    one step, and its observed feature counts as one vector over its whole
    weight layout, so its objective is ``sum log Z - w . observed`` and
    its gradient ``expected - observed``. The rows of sequences a problem
    does not train on are carried through the pass, which keeps every
    sequence's rows apart, but never summed. :meth:`subset` keeps some of
    the problems, on buffers of its own: a finished fold of a lockstep
    group is dropped by it.

    The group of a cross-validation has one problem per fold, each with
    its own catalog, over one packing of the whole log, and masks out the
    fold's traces; a single fit is the one problem whose mask is all true.

    The batch also owns the work buffers of :func:`nll_and_gradients`: one
    (rows, L) matrix per problem, problem-major as (B, rows, L) for B > 1,
    and the views of every step's rows into them, so an evaluation
    allocates little. Each step is then one stacked ``np.matmul`` and a few
    ufunc calls for all B problems; every problem's slice gets the same BLAS
    call and the same arithmetic as it would alone, so a problem's results
    do not depend on the problems beside it. A batch of one problem has
    2-D buffers and steps with ``ndarray.dot``, which costs less per call
    than ``np.matmul``; each step's product is bound to its rows once per
    batch. Evaluations overwrite each other's intermediates: one
    batch must not be evaluated concurrently.

    The objective's front and tail are laid out once per batch too: a
    gather map from every problem's weights, end to end, to one stacked
    (sum F_obs, L) emission-weight matrix and the (B, L+1, L) transition
    blocks, one buffer that every problem's count products write into,
    and the map that gathers each problem's expected counts from it in
    weight order. Every batch, a subset too, allocates and lays out
    buffers of its own; a packing with no rows gets empty ones.
    """

    def __init__(
        self,
        lengths: Sequence[int],
        problems: Iterable[tuple[FeatureCatalog, np.ndarray, np.ndarray, np.ndarray]],
    ):
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.ndim != 1 or (lengths < 0).any():
            raise ValueError("lengths must be a sequence of non-negative integers")
        self.n, self.offsets, rows = _pack(lengths)
        self.prev = _previous_rows(self.n, self.offsets)
        # each packed row's input row, and the trace that row belongs to
        source = np.empty_like(rows)
        source[rows] = np.arange(len(rows))
        traces = np.repeat(np.arange(len(lengths)), lengths)[source]
        events = len(rows)
        built = []
        for b, (catalog, observations, labels, kept) in enumerate(problems):
            L = catalog.n_labels
            expected_shape = (events, catalog.n_observation_features)
            if np.shape(observations) != expected_shape:
                raise ValueError(
                    f"problem {b}: observations have shape {np.shape(observations)}, "
                    f"expected {expected_shape}"
                )
            kept = np.asarray(kept)
            if kept.shape != lengths.shape or kept.dtype != bool:
                raise ValueError(f"problem {b}: kept must be {len(lengths)} bools, one per trace")
            labels = np.asarray(labels)
            if labels.shape != (events,) or labels.dtype.kind not in "iu":
                raise ValueError(f"problem {b}: labels must be {events} integers")
            keep = np.flatnonzero(kept[traces])
            own = labels[source[keep]]
            if len(own) and not (0 <= own.min() and own.max() < L):
                raise ValueError(f"problem {b}: labels of kept traces must be in [0, {L})")
            built.append(_problem(
                catalog, np.asarray(observations, dtype=float)[source[keep]], own, keep,
                self.n, self.prev,
            ))
        self._setup(built)

    def subset(self, problems: Sequence[int]) -> "TrainingBatch":
        """A batch of the given problems, distinct and in that order, on
        the same packing, laid out anew with work buffers of its own, so
        evaluating it leaves this batch's buffers as they were. Raises
        ``ValueError`` for no problems, a repeated one, or an index outside
        ``[0, B)``."""
        problems = list(problems)
        for i in problems:
            if not 0 <= i < len(self.problems):
                raise ValueError(f"problem {i} is outside [0, {len(self.problems)})")
        if len(set(problems)) != len(problems):
            raise ValueError(f"the problems of a subset must be distinct, got {problems}")
        batch = copy.copy(self)
        batch._setup([self.problems[i] for i in problems])
        return batch

    def _setup(self, problems: list[_Problem]) -> None:
        """Lay ``problems`` out on the batch's packing: allocate their work
        buffers, and build their gathers, the objective's front and tail,
        and the step views."""
        if not problems:
            raise ValueError("a batch needs at least one problem")
        L = problems[0].catalog.n_labels
        if any(problem.catalog.n_labels != L for problem in problems):
            raise ValueError("the problems of a batch must share one label alphabet size")
        self.problems = problems
        # the token of the last evaluation, whose gradient phase may still
        # run on the buffers
        self.evaluated = None
        offsets = self.offsets
        B, R = len(problems), int(offsets[-1])
        only = B == 1
        # p holds the shifted emission potentials (1 on rows no problem
        # trains on), scale the forward scale factors as a column; a beta
        # row at the last position of its trace is never written, so it
        # stays 1, in every problem's slice
        shape = (R, L) if only else (B, R, L)
        self.p, self.alpha, self.q, self.beta = (
            np.ones(shape), np.empty(shape), np.empty(shape), np.ones(shape),
        )
        self.scale = np.empty(shape[:-1] + (1,))
        # the (B * rows, ...) views the gathers read
        self.p_rows, self.alpha_rows, self.q_rows = (
            a.reshape(-1, L) for a in (self.p, self.alpha, self.q)
        )
        self.scale_rows = self.scale.reshape(-1, 1)

        # what each problem sums: its rows (kept), and its rows past step 0
        # (after) with their previous rows; gathered from all problems at
        # once into one buffer each, problem after problem
        kept = [len(pr.keep) for pr in problems]
        after = [len(pr.after) for pr in problems]
        f_obs = [pr.catalog.n_observation_features for pr in problems]
        base = np.arange(B) * R
        self.prev_rows = _spread([pr.prev for pr in problems], base, after)
        self.keep = _spread([pr.keep for pr in problems], base, kept)
        self.after = _spread([pr.after for pr in problems], base, after)
        K, A = len(self.keep), len(self.after)
        # the gathered rows: each problem's own (emissions, posteriors, scale
        # factors, row maxima, their logs), and its rows past step 0 with
        # their previous rows (forward vectors, backward terms)
        self.emit, self.node = np.empty((K, L)), np.empty((K, L))
        self.scale_kept, self.row_max, self.log_scale = np.empty((3, K, 1))
        self.alpha_prev, self.q_after = np.empty((A, L)), np.empty((A, L))
        # the scatter of emissions into p, by element: assigning whole
        # rows by index costs a call per row
        elements, first = np.empty((K, L), dtype=np.intp), self.keep * L
        for l in range(L):
            np.add(first, l, out=elements[:, l])
        self.keep_elements = elements.reshape(-1)
        # column views: a ufunc call per label column runs one inner loop
        # over all rows, where broadcasting a (rows, 1) column over (rows, L)
        # runs one per row
        self.emit_columns = [self.emit[:, l] for l in range(L)]
        self.p_columns = [self.p_rows[:, l] for l in range(L)]
        self.q_columns = [self.q_rows[:, l] for l in range(L)]
        kept = np.cumsum([0] + kept).tolist()
        after = np.cumsum([0] + after).tolist()
        # where each problem's scale factors start, up to the last problem
        # with rows: reduceat needs starts inside the array, and the result
        # of an empty segment (a problem without rows) is not read
        last = max((b for b in range(B) if kept[b] < kept[b + 1]), default=-1)
        self.scale_starts = np.asarray(kept[:last + 1], dtype=np.intp)
        self.step0 = np.asarray([pr.n for pr in problems], dtype=float)
        self.later = np.asarray([len(pr.obs) - pr.n for pr in problems], dtype=float)

        # the front and tail in array form. Every problem's weights, end to
        # end and then a zero, fill the stacked (sum F_obs, L) emission
        # weights and the (B, L+1, L) transition blocks by one gather
        # (weight_source). The tail holds the (sum F_obs, L) products of the
        # observations with the posteriors, the (B, L, L) pair counts and the
        # (B, L) step-0 counts; tail_index gathers every problem's expected
        # counts from it, in weight order
        features = np.cumsum([0] + [pr.catalog.n_features for pr in problems])
        obs_rows = np.cumsum([0] + f_obs)
        O = int(obs_rows[-1])
        self.feature_starts = features[:-1]
        self.feature_bounds = list(zip(features.tolist(), features[1:].tolist()))
        self.observed = np.concatenate([pr.observed for pr in problems])
        # each weight's position in the weights: observation weights, and
        # each problem's transition block as a row
        obs_at = np.arange(O) + np.repeat(features[:-1] - obs_rows[:-1], f_obs)
        trans_at = (features[:-1] + f_obs)[:, None] + np.arange((L + 1) * L)
        # each observation weight's entry in the stacked (sum F_obs, L) layout
        slots = _spread([pr.slots for pr in problems], obs_rows[:-1] * L, f_obs)
        self.weight_source = np.full(O * L + trans_at.size, features[-1])
        self.weight_source[slots] = obs_at
        self.weight_source[O * L:] = trans_at.ravel()
        pairs_at, step0_at = O * L, O * L + B * L * L
        self.tail_index = np.empty(int(features[-1]), dtype=np.intp)
        self.tail_index[obs_at] = slots
        self.tail_index[trans_at[:, :L * L]] = pairs_at + np.arange(B * L * L).reshape(B, -1)
        self.tail_index[trans_at[:, L * L:]] = step0_at + np.arange(B * L).reshape(B, -1)
        self.layout = np.empty(len(self.weight_source))
        w_matrices = self.layout[:O * L].reshape(O, L)
        self.trans = self.layout[O * L:].reshape(B, L + 1, L)
        self.tail = np.empty(step0_at + B * L)
        counts = self.tail[:pairs_at].reshape(O, L)
        self.pair_counts = self.tail[pairs_at:step0_at].reshape(B, L, L)
        step0_counts = self.tail[step0_at:].reshape(B, L)
        obs_rows = obs_rows.tolist()
        self.w_matrices = [w_matrices[o0:o1] for o0, o1 in zip(obs_rows, obs_rows[1:])]
        self.views = [
            (pr, *(a[k0:k1] for a in (self.emit, self.node, self.log_scale, self.row_max)),
             self.alpha_prev[a0:a1], self.q_after[a0:a1], counts[o0:o1], self.pair_counts[b],
             step0_counts[b])
            for b, (pr, k0, k1, a0, a1, o0, o1) in enumerate(
                zip(problems, kept, kept[1:], after, after[1:], obs_rows, obs_rows[1:])
            )
        ]

        # per step: this step's rows and the first rows of the previous step,
        # those whose traces go on (none at step 0), in the order the passes
        # use them; the previous step's view serves when every trace goes on
        bounds = offsets.tolist()
        steps = list(zip(bounds, bounds[1:]))
        alphas = [self.alpha[..., s:e, :] for s, e in steps]
        betas = [self.beta[..., s:e, :] for s, e in steps]

        def head(views: list[np.ndarray], t: int, m: int) -> np.ndarray:
            return views[t] if views[t].shape[-2] == m else views[t][..., :m, :]

        def product(a: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
            """``a`` times a matrix, into an output: one problem's steps
            call ``a.dot``, the same BLAS call as ``np.dot`` without its
            Python-level dispatch"""
            return a.dot if only else functools.partial(np.matmul, a)

        # with two labels a row's sum is one addition, the same bits in any
        # order, so it and the division run per column: a call each over
        # all the step's rows, where add.reduce and a broadcast (rows, 1)
        # divisor run an inner loop per row
        self.forward_steps = [
            (product(head(alphas, t - 1, e - s)) if t else None, alphas[t],
             self.p[..., s:e, :], self.scale[..., s:e, :],
             (alphas[t][..., 0], alphas[t][..., 1], self.scale[..., s:e, 0]) if L == 2 else None)
            for t, (s, e) in enumerate(steps)
        ]
        self.backward_steps = [
            (self.q[..., s:e, :], betas[t], product(self.q[..., s:e, :]), head(betas, t - 1, e - s))
            for t, (s, e) in enumerate(steps) if t
        ][::-1]


def _spread(arrays: list[np.ndarray], bases: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The arrays end to end, each plus its base; ``sizes`` are their
    lengths."""
    return np.concatenate(arrays) + np.repeat(bases, sizes)


def _observation_counts(obs: np.ndarray, per_label: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Each observation feature's values summed over the rows, every row
    weighted by its (rows, L) entry for the feature's label (``slots``, see
    :func:`_slots`). The full (F_obs, L) product is several times faster
    than gathering one column per feature."""
    return (obs.T @ per_label).reshape(-1)[slots]


def nll_and_gradients(
    weights: Sequence[np.ndarray], batch: TrainingBatch
) -> list[tuple[float, np.ndarray]]:
    """Per problem of the batch, at its weight vector: the negative
    conditional log-likelihood and its gradient, expected minus observed
    feature counts. This is the smooth part of the training objective (the
    L1 penalty lives in the optimizer). Computed by one scaled
    forward-backward pass (Rabiner 1989) over the packed rows for all
    problems, in the batch's work buffers; the returned gradients are
    disjoint slices of one array made fresh by each call.

    The pass runs in two phases over the same buffers, and this function
    is the two composed. The value phase (:func:`_value_phase`) runs the
    front and the forward pass and sums the values; the gradient phase
    runs the backward pass and the count products. Training runs the value
    phase at every point and the gradient phase only where the optimizer
    asks for a gradient (:func:`fit_group`).

    Potentials are exponentiated once, shifted by their maxima, and every
    row's forward vector is normalized by its scale factor ``c``, so log Z
    is the sum of the logs of the factors plus the shifts; the backward
    pass reuses the factors. A factor below the smallest normal float (or
    an overflow) means the weights put about 700 nats between paths; that
    problem's value is then ``+inf`` and its gradient NaN, which the
    optimizer backtracks from. The value phase catches the factors, the
    gradient phase a non-finite expected count. Only the problem's own
    rows are checked and summed, each as it would be in a batch of that
    problem alone.

    Per problem, only its emission product, its two count products, its
    three sums and its ``w . observed`` run alone; the rest is array work
    over all problems (gathers, the minima and finiteness per problem by
    ``reduceat``, one subtraction for all gradients), elementwise or exact
    in any order, so each problem's bits do not depend on the others.
    """
    values, gradients = _value_phase(weights, batch)
    return [
        (value if np.isfinite(g).all() else np.inf, g) for value, g in zip(values, gradients())
    ]


def _value_phase(
    weights: Sequence[np.ndarray], batch: TrainingBatch
) -> tuple[list[float], Callable[[], list[np.ndarray]]]:
    """The value phase of :func:`nll_and_gradients`: per problem, its
    value wherever that is finite, ``+inf`` where a scale factor is below
    the smallest normal float; and the gradient phase as a zero-argument
    callable returning every problem's gradient. The callable runs the
    phase on its first call only, and raises ``RuntimeError`` once the
    batch has evaluated other weights. Front, forward pass, log sums and
    the scale-factor check run here; the gradient phase
    (:func:`_backward_gradients`) goes on from the buffers they leave."""
    problems = batch.problems
    if len(weights) != len(problems):
        raise ValueError(f"{len(weights)} weight vectors for {len(problems)} problems")
    weights = [np.asarray(w, dtype=float) for w in weights]
    for w, problem in zip(weights, problems):
        if w.shape != (problem.catalog.n_features,):
            raise ValueError(
                f"weight vector length {w.shape} does not match "
                f"catalog size {problem.catalog.n_features}"
            )
    token = batch.evaluated = object()
    L, n = problems[0].catalog.n_labels, batch.n
    np.take(np.concatenate(weights + [_ZERO]), batch.weight_source, out=batch.layout)
    trans = batch.trans
    core_max = trans[:, :L].max(axis=(1, 2))
    bos_max = trans[:, L].max(axis=1)
    for (problem, emit, *_), w_matrix in zip(batch.views, batch.w_matrices):
        np.matmul(problem.obs, w_matrix, out=emit)

    with np.errstate(all="ignore"):  # a degenerate pass is caught below
        e_core = np.exp(trans[:, :L] - core_max[:, None, None])
        bos = np.exp(trans[:, L:] - bos_max[:, None, None])
        step_core, bos = (e_core[0], bos[0]) if len(problems) == 1 else (e_core, bos)
        # each row's maximum (exact in any order) subtracted column by column
        maxima, columns = batch.row_max[:, 0], batch.emit_columns
        np.maximum(columns[0], columns[-1], out=maxima)
        for column in columns[1:-1]:
            np.maximum(maxima, column, out=maxima)
        for column in columns:
            np.subtract(column, maxima, out=column)
        np.exp(batch.emit, out=batch.emit)
        batch.p.reshape(-1)[batch.keep_elements] = batch.emit.reshape(-1)
        np.multiply(bos, batch.p[..., :n, :], out=batch.alpha[..., :n, :])
        # the ufuncs take their outputs by position: keywords cost more per call
        add, multiply, divide, add_reduce = np.add, np.multiply, np.divide, np.add.reduce
        for times_prev, cur, p_cur, scale_cur, pair in batch.forward_steps:
            if times_prev is not None:
                times_prev(step_core, cur)
                multiply(cur, p_cur, cur)
            if pair is None:
                add_reduce(cur, -1, None, scale_cur, True)
                divide(cur, scale_cur, cur)
            else:
                first, second, total = pair
                add(first, second, total)
                divide(first, total, first)
                divide(second, total, second)

        np.take(batch.scale_rows, batch.keep, axis=0, out=batch.scale_kept)
        np.log(batch.scale_kept, out=batch.log_scale)
        sums = [log_scale.sum() + row_max.sum() for _, _, _, log_scale, row_max, *_ in batch.views]
        dots = [w @ problem.observed for w, problem in zip(weights, problems)]
        if len(batch.scale_starts):
            scale_min = np.minimum.reduceat(batch.scale_kept[:, 0], batch.scale_starts)
        totals = (
            np.asarray(sums) + batch.step0 * bos_max + batch.later * core_max - np.asarray(dots)
        )
    # a problem without rows has value 0 and is past no scale factor
    valid = [problem.n > 0 and scale_min[b] >= _TINY for b, problem in enumerate(problems)]
    values = [
        float(total) if ok else 0.0 if problem.n == 0 else np.inf
        for problem, total, ok in zip(problems, totals, valid)
    ]
    phase = functools.cache(lambda: _backward_gradients(batch, e_core, valid))

    def gradients() -> list[np.ndarray]:
        if batch.evaluated is not token:
            raise RuntimeError("the batch has evaluated other weights since these values")
        return phase()

    return values, gradients


def _backward_gradients(
    batch: TrainingBatch, e_core: np.ndarray, valid: list[bool]
) -> list[np.ndarray]:
    """The gradient phase, run on the buffers the value phase left: the
    backward pass, the count products and the gradients, NaN for a problem
    whose scale factors (``valid``) or expected counts fail."""
    problems = batch.problems
    step_core_t = np.swapaxes(e_core[0] if len(problems) == 1 else e_core, -1, -2)
    multiply = np.multiply
    with np.errstate(all="ignore"):
        # q: each row's potentials over its scale factor, times beta past step 0
        for p_column, q_column in zip(batch.p_columns, batch.q_columns):
            np.divide(p_column, batch.scale_rows[:, 0], out=q_column)
        for q_cur, beta_cur, times_q, beta_prev in batch.backward_steps:
            multiply(q_cur, beta_cur, q_cur)
            times_q(step_core_t, beta_prev)
        np.take(batch.alpha_rows, batch.prev_rows, axis=0, out=batch.alpha_prev)
        np.take(batch.q_rows, batch.after, axis=0, out=batch.q_after)
        np.multiply(batch.alpha, batch.beta, out=batch.q)
        np.take(batch.q_rows, batch.keep, axis=0, out=batch.node)
        for (problem, _, node, _, _, alpha_prev, q_after, counts, pair_counts,
             step0_counts) in batch.views:
            np.matmul(problem.obs.T, node, out=counts)
            np.matmul(alpha_prev.T, q_after, out=pair_counts)
            node[:problem.n].sum(axis=0, out=step0_counts)
        np.multiply(e_core, batch.pair_counts, out=batch.pair_counts)
        expected = batch.tail[batch.tail_index]
        finite = np.logical_and.reduceat(np.isfinite(expected), batch.feature_starts)
        gradients = expected - batch.observed

    results = []
    for b, (problem, (f0, f1)) in enumerate(zip(problems, batch.feature_bounds)):
        if problem.n == 0:
            results.append(np.zeros(f1 - f0))
        elif not (valid[b] and finite[b]):
            results.append(np.full(f1 - f0, np.nan))
        else:
            results.append(gradients[f0:f1])
    return results


def training_pairs(
    log: EventLog, catalog: FeatureCatalog
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (observations, label indices) of every annotated trace of a log."""
    interned = InternedLog(log.traces)
    observations = observation_matrix(catalog, interned)
    labels = interned.label_indices(catalog.labels)
    return list(zip(interned.per_trace(observations), interned.per_trace(labels)))


def _spent_round() -> list[np.ndarray]:
    raise RuntimeError("the round of these values is over")


def fit_group(
    batch: TrainingBatch,
    l1_coefficient: float = 0.1,
    optimizer_config: OwlqnConfig | None = None,
    initials: Sequence[np.ndarray | None] | None = None,
    objective_hook: Callable[[float], None] | None = None,
) -> list[CrfModel | OptimizationError]:
    """Fit every problem of a batch in lockstep (:func:`minimize_lockstep`):
    each round, the value phase of :func:`nll_and_gradients` evaluates the
    pending point of every problem still running, and its gradient phase
    runs once, for all of them, only if some problem's run asks for a
    gradient (at its start point, or at a trial whose value passes the
    line search's Armijo test). Once a problem finishes, the rounds run
    on a subset of the batch without it (:meth:`TrainingBatch.subset`).
    Each problem starts from ``initials[b]`` (in its catalog's layout;
    default zero; one entry per problem, else ``ValueError``).
    ``objective_hook``, if given, is called with every value the value
    phase returns, including trial values whose gradients are never
    computed, so a value whose gradient would prove non-finite reaches it
    as the finite value.
    Per problem: the model fitted on that problem alone, or the
    :class:`OptimizationError` of its start point."""
    current, live = batch, list(range(len(batch.problems)))
    # the last round's gradient phase, in the list its providers read. Each
    # run holds its last provider into the next round, and the phase holds
    # the batch it ran on, so the phase is dropped as the next round starts:
    # a spent subset is freed before the next one is laid out
    last_round: list[Callable[[], list[np.ndarray]]] = [_spent_round]

    def objective(problems: list[int], points: list[np.ndarray]) -> list[Evaluation]:
        nonlocal current, live, last_round
        last_round[0] = _spent_round
        if problems != live:
            current = None
            current, live = batch.subset(problems), problems
        values, gradients = _value_phase(points, current)
        this_round = last_round = [gradients]
        if objective_hook is not None:
            for value in values:
                objective_hook(value)
        return [(value, lambda b=b: this_round[0]()[b]) for b, value in enumerate(values)]

    outcomes = minimize_lockstep(
        objective, [problem.catalog.n_features for problem in batch.problems],
        optimizer_config or OwlqnConfig(), initials, l1_coefficient,
    )
    return [
        outcome if isinstance(outcome, OptimizationError) else CrfModel(
            catalog=problem.catalog, weights=outcome[0], l1_coefficient=l1_coefficient,
            training=outcome[1],
        )
        for problem, outcome in zip(batch.problems, outcomes)
    ]


def train(
    annotated: EventLog,
    catalog: FeatureCatalog,
    l1_coefficient: float = 0.1,
    optimizer_config: OwlqnConfig | None = None,
    objective_hook: Callable[[float], None] | None = None,
) -> CrfModel:
    """Fit CRF weights on an annotated log by minimizing NLL + C *
    ||lambda||_1 with OWL-QN from zero, C = ``l1_coefficient``:
    :func:`fit_group` on the batch of one problem that trains on every
    trace. ``objective_hook``, if given, is called with every
    objective value. Raises the :class:`OptimizationError` of a
    non-finite start point. Deterministic: identical inputs produce
    identical weight vectors."""
    log = InternedLog(annotated.traces)
    batch = TrainingBatch(log.lengths, [(
        catalog, observation_matrix(catalog, log), log.label_indices(catalog.labels),
        np.ones(log.n_traces, dtype=bool),
    )])
    [model] = fit_group(batch, l1_coefficient, optimizer_config, None, objective_hook)
    if isinstance(model, OptimizationError):
        raise model
    return model
