"""Linear-chain conditional random field over catalog features.

The conditional distribution is ``p(y|x) = exp(sum_t sum_k lambda_k
f_k(t, y_{t-1}, y_t, x)) / Z(x)``. Observation features contribute
``value * 1[y_t = label]`` emission scores; transition indicator features
``1[y_{t-1} = l', y_t = l]`` carry the Markov dependency, with a
distinguished begin-of-sequence row so transitions are defined at t = 1.
The feature catalog owns the weight layout (which label each observation
weight scores, and where the transition block starts); this module only
asks it to split a weight vector. Training and decoding share one packing
of traces into time-major rows (``_pack``): training runs one scaled
forward-backward pass over it per objective evaluation, Viterbi one
log-space max-plus pass for any number of traces. A :class:`TrainingBatch`,
built from concatenated observation rows, label indices and sequence
lengths, is the one training input of the objective (``nll_and_gradient``).
It also owns the pass's work buffers and its per-step views into them,
allocated once and overwritten by every evaluation, so one batch must not
be evaluated concurrently.
``log_partition``, ``posterior_marginals`` and ``sequence_log_prob`` stay
per-trace in log space: they must stay finite where the weights put more
than about 700 nats between paths, and there the scaled pass returns
``+inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .features import FeatureCatalog, InternedLog, observation_matrix
from .owlqn import OwlqnConfig, OwlqnResult, minimize
from .xes import EventLog

# relative score difference below which two labelings tie in Viterbi
TIE_TOLERANCE = 1e-9

__all__ = [
    "CrfModel",
    "log_partition",
    "sequence_log_prob",
    "posterior_marginals",
    "viterbi_decode",
    "viterbi_decode_many",
    "nll_and_gradient",
    "TrainingBatch",
    "training_batch",
    "fit_batch",
    "training_pairs",
    "train",
]


def _emission_weights(catalog: FeatureCatalog, w_obs: np.ndarray) -> np.ndarray:
    """(F_obs, L) matrix placing each observation weight in its label's
    column, so emissions are ``observations @ matrix``."""
    w_matrix = np.zeros((len(w_obs), catalog.n_labels))
    w_matrix[np.arange(len(w_obs)), catalog.observation_labels] = w_obs
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
    decodes the same whatever it is batched with."""
    lengths = [len(obs) for obs in observations]
    n, offsets, rows = _pack(lengths)
    if n == 0:
        return [[] for _ in observations]
    w_obs, trans = model.catalog.split(model.weights)
    core = trans[:-1]
    w_matrix = _emission_weights(model.catalog, w_obs)
    emissions = np.empty((len(rows), len(core)))
    emissions[rows] = np.concatenate([
        np.asarray(obs, dtype=float) @ w_matrix for obs in observations if len(obs)
    ])
    # delta[r, l]: best score of the rest of row r's sequence given label l
    # at row r; ahead = emissions + delta, the best score from row r on,
    # filled in place once a step's delta is final
    delta = np.zeros_like(emissions)
    ahead = emissions
    offsets = offsets.tolist()
    for t in range(len(offsets) - 2, 0, -1):
        s, e, ps = offsets[t], offsets[t + 1], offsets[t - 1]
        ahead[s:e] += delta[s:e]
        delta[ps:ps + e - s] = np.maximum.reduce(core + ahead[s:e][:, None, :], axis=2)
    ahead[:n] += delta[:n]
    total = trans[-1] + ahead[:n]
    best = total.max(axis=1)
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


class TrainingBatch:
    """Training sequences packed time-major (:func:`_pack`), precomputed once
    so repeated objective evaluations only touch weight-dependent
    quantities.

    Built from the sequences' (events, F_obs) observation rows and label
    indices, concatenated sequence after sequence, and their lengths; raises
    ``ValueError`` when the observations are not (sum of lengths, F_obs),
    the labels not one integer in ``[0, n_labels)`` per event, or a length
    negative. Position t of the i-th longest non-empty sequence is row
    ``offsets[t] + i``, so memory is O(events), with no padding. The
    observed feature counts are one vector over the whole weight layout,
    so the objective is ``sum log Z - w . observed`` and its gradient
    ``expected - observed``.

    The batch also owns the work buffers of :func:`nll_and_gradient`, one
    row per event each, and the views of every step's rows into them, so
    an evaluation allocates neither. Evaluations therefore overwrite each
    other's intermediates: one batch must not be evaluated concurrently.
    """

    def __init__(
        self,
        catalog: FeatureCatalog,
        observations: np.ndarray,
        labels: np.ndarray,
        lengths: Sequence[int],
    ):
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.ndim != 1 or (lengths < 0).any():
            raise ValueError("lengths must be a sequence of non-negative integers")
        L, events = catalog.n_labels, int(lengths.sum())
        expected_shape = (events, catalog.n_observation_features)
        if np.shape(observations) != expected_shape:
            raise ValueError(
                f"observations have shape {np.shape(observations)}, expected {expected_shape}"
            )
        labels = np.asarray(labels)
        if labels.shape != (events,) or (events and not (
            labels.dtype.kind in "iu" and 0 <= labels.min() and labels.max() < L
        )):
            raise ValueError(f"labels must be {events} integers in [0, {L})")
        self.catalog = catalog
        self.n, self.offsets, rows = _pack(lengths)
        if self.n == 0:
            return
        self.obs = np.empty((len(rows), catalog.n_observation_features))
        self.obs[rows] = observations
        packed = np.empty(len(rows), dtype=np.intp)
        packed[rows] = labels
        # the row of the same trace's previous position, for each row past step 0
        active = np.diff(self.offsets)
        self.prev = np.arange(self.n, len(rows)) - np.repeat(active[:-1], active[1:])
        observed_trans = np.zeros((L + 1, L))
        np.add.at(observed_trans, (packed[self.prev], packed[self.n:]), 1.0)
        np.add.at(observed_trans[L], packed[:self.n], 1.0)
        self.observed = np.concatenate([
            _observation_counts(self.obs, np.eye(L)[packed], catalog),
            observed_trans.ravel(),
        ])

        # work buffers: p holds the shifted emission potentials, scale the
        # forward scale factors as a column; a beta row at the last position
        # of its trace is never written, so it stays 1
        self.p = np.empty((len(rows), L))
        self.alpha = np.empty_like(self.p)
        self.q = np.empty_like(self.p)
        self.beta = np.ones_like(self.p)
        self.scale = np.empty((len(rows), 1))
        # per step: this step's rows and the first rows of the previous step,
        # those whose traces go on (none at step 0), in the order the passes
        # use them; the previous step's view serves when every trace goes on
        bounds = self.offsets.tolist()
        steps = list(zip(bounds, bounds[1:]))
        alphas = [self.alpha[s:e] for s, e in steps]
        betas = [self.beta[s:e] for s, e in steps]

        def head(views: list[np.ndarray], t: int, m: int) -> np.ndarray:
            return views[t] if len(views[t]) == m else views[t][:m]

        self.forward_steps = [
            (head(alphas, t - 1, e - s) if t else None, alphas[t], self.p[s:e], self.scale[s:e])
            for t, (s, e) in enumerate(steps)
        ]
        self.backward_steps = [
            (self.q[s:e], betas[t], head(betas, t - 1, e - s))
            for t, (s, e) in enumerate(steps) if t
        ][::-1]


def _observation_counts(
    obs: np.ndarray, per_label: np.ndarray, catalog: FeatureCatalog
) -> np.ndarray:
    """Each observation feature's values summed over the rows, every row
    weighted by its (rows, L) entry for the feature's label. The full
    (F_obs, L) product is several times faster than gathering one column
    per feature."""
    counts = obs.T @ per_label
    return counts[np.arange(len(counts)), catalog.observation_labels]


def nll_and_gradient(weights: np.ndarray, batch: TrainingBatch) -> tuple[float, np.ndarray]:
    """Negative conditional log-likelihood of the batch and its gradient,
    expected minus observed feature counts: the smooth part of the training
    objective (the L1 penalty lives in the optimizer). Computed by scaled
    forward-backward (Rabiner 1989) over the packed rows, in the batch's
    work buffers; the returned gradient is a fresh array.

    Potentials are exponentiated once, shifted by their maxima, and every
    row's forward vector is normalized by its scale factor ``c``, so log Z
    is the sum of the logs of the factors plus the shifts; the backward
    pass reuses the factors. A factor below the smallest normal float (or
    an overflow) means the weights put about 700 nats between paths; the
    value is then ``+inf`` and the gradient NaN, which the optimizer
    backtracks from.
    """
    catalog = batch.catalog
    if batch.n == 0:
        return 0.0, np.zeros(catalog.n_features)
    L, n = catalog.n_labels, batch.n
    p, alpha, q, beta, scale = batch.p, batch.alpha, batch.q, batch.beta, batch.scale
    weights = np.asarray(weights, dtype=float)
    w_obs, trans = catalog.split(weights)
    core_max, bos_max = trans[:L].max(), trans[L].max()
    np.matmul(batch.obs, _emission_weights(catalog, w_obs), out=p)
    row_max = p.max(axis=1, keepdims=True)

    with np.errstate(all="ignore"):  # a degenerate pass is caught below
        e_core = np.exp(trans[:L] - core_max)
        np.subtract(p, row_max, out=p)
        np.exp(p, out=p)
        np.multiply(np.exp(trans[L] - bos_max), p[:n], out=alpha[:n])
        for prev, cur, p_cur, scale_cur in batch.forward_steps:
            if prev is not None:
                np.dot(prev, e_core, out=cur)
                np.multiply(cur, p_cur, out=cur)
            np.add.reduce(cur, axis=1, out=scale_cur, keepdims=True)
            np.divide(cur, scale_cur, out=cur)

        # q: each row's potentials over its scale factor, times beta past step 0
        np.divide(p, scale, out=q)
        e_core_t = e_core.T
        for q_cur, beta_cur, beta_prev in batch.backward_steps:
            np.multiply(q_cur, beta_cur, out=q_cur)
            np.dot(q_cur, e_core_t, out=beta_prev)
        node = np.multiply(alpha, beta, out=p)  # the potentials are spent
        expected = np.concatenate([
            _observation_counts(batch.obs, node, catalog),
            (e_core * (alpha[batch.prev].T @ q[n:])).ravel(),
            node[:n].sum(axis=0),
        ])
    if not (scale.min() >= np.finfo(float).tiny and np.all(np.isfinite(expected))):
        return np.inf, np.full(catalog.n_features, np.nan)
    log_z = np.log(scale).sum() + row_max.sum() + n * bos_max + (len(p) - n) * core_max
    return float(log_z - weights @ batch.observed), expected - batch.observed


def training_batch(
    log: InternedLog,
    catalog: FeatureCatalog,
    observations: np.ndarray | None = None,
    traces: Sequence[int] | None = None,
) -> TrainingBatch:
    """The packed batch of the given traces of an interned, annotated log
    (default: all). ``observations`` is the catalog's observation matrix
    over the whole log, evaluated here when not given."""
    if observations is None:
        observations = observation_matrix(catalog, log)
    if traces is None:
        return TrainingBatch(
            catalog, observations, log.label_indices(catalog.labels), log.lengths
        )
    events = log.events(traces)
    return TrainingBatch(
        catalog, observations[events], log.label_indices(catalog.labels, events),
        log.lengths[list(traces)],
    )


def training_pairs(
    log: EventLog, catalog: FeatureCatalog
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (observations, label indices) of every annotated trace of a log."""
    interned = InternedLog(log.traces)
    observations = observation_matrix(catalog, interned)
    labels = interned.label_indices(catalog.labels)
    return list(zip(interned.per_trace(observations), interned.per_trace(labels)))


def fit_batch(
    batch: TrainingBatch,
    l1_coefficient: float = 0.1,
    optimizer_config: OwlqnConfig | None = None,
    objective_hook: Callable[[float], None] | None = None,
    initial: np.ndarray | None = None,
) -> CrfModel:
    """Fit CRF weights on a packed batch by minimizing NLL + C * ||lambda||_1
    with OWL-QN, C = ``l1_coefficient``, from ``initial`` (in the batch
    catalog's layout; default zero). Deterministic: identical inputs
    produce identical weight vectors."""
    catalog = batch.catalog

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = nll_and_gradient(w, batch)
        if objective_hook is not None:
            objective_hook(value)
        return value, grad

    weights, result = minimize(
        objective, catalog.n_features, optimizer_config or OwlqnConfig(), initial, l1_coefficient
    )
    return CrfModel(
        catalog=catalog,
        weights=weights,
        l1_coefficient=l1_coefficient,
        training=result,
    )


def train(
    annotated: EventLog,
    catalog: FeatureCatalog,
    l1_coefficient: float = 0.1,
    optimizer_config: OwlqnConfig | None = None,
    objective_hook: Callable[[float], None] | None = None,
) -> CrfModel:
    """Fit CRF weights on an annotated log (:func:`fit_batch` on its
    :func:`training_batch`)."""
    return fit_batch(
        training_batch(InternedLog(annotated.traces), catalog),
        l1_coefficient, optimizer_config, objective_hook,
    )
