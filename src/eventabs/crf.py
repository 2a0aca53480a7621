"""Linear-chain conditional random field over catalog features.

The conditional distribution is ``p(y|x) = exp(sum_t sum_k lambda_k
f_k(t, y_{t-1}, y_t, x)) / Z(x)``. Observation features contribute
``value * 1[y_t = label]`` emission scores; transition indicator features
``1[y_{t-1} = l', y_t = l]`` carry the Markov dependency, with a
distinguished begin-of-sequence row so transitions are defined at t = 1.
The feature catalog owns the weight layout (which label each observation
weight scores, and where the transition block starts); this module only
asks it to split a weight vector. All inference runs in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .features import FeatureCatalog, evaluate_observations, label_indices
from .owlqn import OwlqnConfig, OwlqnResult, minimize
from .xes import EventLog

__all__ = [
    "LabeledPair",
    "CrfModel",
    "log_partition",
    "sequence_log_prob",
    "posterior_marginals",
    "viterbi_decode",
    "nll_and_gradient",
    "train",
]


@dataclass(frozen=True)
class LabeledPair:
    """An observation matrix with its aligned label index sequence."""

    observations: np.ndarray  # (T, F_obs)
    labels: np.ndarray        # (T,) int

    def __post_init__(self) -> None:
        if len(self.observations) != len(self.labels):
            raise ValueError("observation and label sequences differ in length")


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


def _log_partition_backward(emissions: np.ndarray, trans: np.ndarray) -> float:
    if len(emissions) == 0:
        return 0.0
    L = emissions.shape[1]
    beta = _backward(emissions, trans)
    return float(np.logaddexp.reduce(trans[L] + emissions[0] + beta[0]))


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
    score = trans[L, y[0]] + emissions[0, y[0]]
    for t in range(1, T):
        score += trans[y[t - 1], y[t]] + emissions[t, y[t]]
    return float(score)


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


def viterbi_decode(model: CrfModel, observations: np.ndarray) -> list[str]:
    """The maximum-score labeling; among ties, the sequence that is
    lexicographically smallest in label-alphabet order."""
    emissions, trans = model.potentials(observations)
    T, L = emissions.shape
    if T == 0:
        return []
    core = trans[:L]
    # delta[t, i]: best achievable score of positions t+1..T-1 given y_t = i.
    delta = np.zeros((T, L))
    for t in range(T - 2, -1, -1):
        delta[t] = np.maximum.reduce(
            core + (emissions[t + 1] + delta[t + 1])[None, :], axis=1
        )
    first = trans[L] + emissions[0] + delta[0]
    path = [int(np.argmax(first))]
    for t in range(1, T):
        scores = core[path[-1]] + emissions[t] + delta[t]
        path.append(int(np.argmax(scores)))
    return [model.labels[i] for i in path]


# --- training ----------------------------------------------------------------


class TrainingBatch:
    """Training pairs padded into flat arrays, precomputed once so repeated
    objective evaluations only touch weight-dependent quantities.

    Pairs are stably sorted by length, longest first, so the recursions can
    run on shrinking active prefixes instead of masking every step. The
    aggregated value and gradient are order-independent sums over pairs.
    """

    def __init__(self, pairs: Sequence[LabeledPair], catalog: FeatureCatalog):
        self.catalog = catalog
        live = [p for p in pairs if len(p.labels) > 0]
        order = np.argsort([-len(p.labels) for p in live], kind="stable")
        live = [live[i] for i in order]
        self.n = len(live)
        if self.n == 0:
            return
        f_obs = catalog.n_observation_features
        L = catalog.n_labels
        self.lengths = np.asarray([len(p.labels) for p in live])
        t_max = int(self.lengths.max())
        self.t_max = t_max
        # active[t]: how many (length-sorted) traces extend beyond position t
        self.active = np.count_nonzero(
            self.lengths[:, None] > np.arange(t_max)[None, :], axis=0
        )
        self.obs = np.zeros((self.n, t_max, f_obs))
        self.labels = np.zeros((self.n, t_max), dtype=np.intp)
        self.mask = np.zeros((self.n, t_max), dtype=bool)
        for i, p in enumerate(live):
            t = len(p.labels)
            self.obs[i, :t] = p.observations
            self.labels[i, :t] = p.labels
            self.mask[i, :t] = True
        self.obs_flat = self.obs.reshape(self.n * t_max, f_obs)
        mask_f = self.mask.astype(float)
        picked = np.zeros((self.n, t_max, L))
        np.put_along_axis(picked, self.labels[:, :, None], mask_f[:, :, None], axis=2)
        self.observed_label_onehot = picked
        self.first_labels = self.labels[:, 0]
        self.edge_mask = self.mask[:, 1:]
        prev, cur = self.labels[:, :-1], self.labels[:, 1:]
        self.prev, self.cur = prev, cur
        observed_core = np.zeros((L, L))
        np.add.at(observed_core, (prev[self.edge_mask], cur[self.edge_mask]), 1.0)
        self.observed_core = observed_core
        self.observed_bos = np.bincount(self.first_labels, minlength=L).astype(float)


def _lse_rows(scores: np.ndarray) -> np.ndarray:
    """log-sum-exp over the second-to-last axis of (..., L, L) scores."""
    if scores.shape[-2] == 2:
        return np.logaddexp(scores[..., 0, :], scores[..., 1, :])
    return np.logaddexp.reduce(scores, axis=-2)


def _lse_cols(scores: np.ndarray) -> np.ndarray:
    """log-sum-exp over the last axis."""
    if scores.shape[-1] == 2:
        return np.logaddexp(scores[..., 0], scores[..., 1])
    return np.logaddexp.reduce(scores, axis=-1)


def _batch_nll_and_gradient(
    weights: np.ndarray, batch: TrainingBatch
) -> tuple[float, np.ndarray]:
    catalog = batch.catalog
    if batch.n == 0:
        return 0.0, np.zeros(catalog.n_features)
    L = catalog.n_labels
    n, t_max = batch.n, batch.t_max
    w_obs, trans = catalog.split(np.asarray(weights, dtype=float))
    core = trans[:L]

    emissions = (batch.obs_flat @ _emission_weights(catalog, w_obs)).reshape(n, t_max, L)

    mask, labels, lengths, active = batch.mask, batch.labels, batch.lengths, batch.active
    alpha = np.full((n, t_max, L), -np.inf)
    alpha[:, 0] = trans[L] + emissions[:, 0]
    for t in range(1, t_max):
        m = active[t]
        alpha[:m, t] = emissions[:m, t] + _lse_rows(
            alpha[:m, t - 1, :, None] + core
        )
    log_z = _lse_cols(alpha[np.arange(n), lengths - 1])

    beta = np.zeros((n, t_max, L))
    for t in range(t_max - 2, -1, -1):
        m = active[t + 1]
        beta[:m, t] = _lse_cols(
            core + (emissions[:m, t + 1] + beta[:m, t + 1])[:, None, :]
        )

    node = np.exp(alpha + beta - log_z[:, None, None]) * mask[:, :, None]

    observed_emission = (
        np.take_along_axis(emissions, labels[:, :, None], axis=2)[:, :, 0] * mask
    )
    observed_trans_score = trans[L][batch.first_labels].sum()
    observed_trans_score += (core[batch.prev, batch.cur] * batch.edge_mask).sum()
    value = float(log_z.sum() - observed_emission.sum() - observed_trans_score)

    # observation gradient: expected minus observed counts via one matmul
    f_obs = catalog.n_observation_features
    grad = np.empty(catalog.n_features)
    diff = node - batch.observed_label_onehot
    counts = batch.obs_flat.T @ diff.reshape(-1, L)  # (F_obs, L)
    grad[:f_obs] = counts[np.arange(f_obs), catalog.observation_labels]

    # transition gradient: expected edge counts from pair marginals
    edge = np.exp(
        alpha[:, :-1, :, None]
        + core[None, None]
        + (emissions[:, 1:] + beta[:, 1:])[:, :, None, :]
        - log_z[:, None, None, None]
    ) * batch.edge_mask[:, :, None, None]
    expected_core = edge.sum(axis=(0, 1))
    expected_bos = node[:, 0].sum(axis=0)
    grad[f_obs:] = np.concatenate([
        (expected_core - batch.observed_core).ravel(),
        expected_bos - batch.observed_bos,
    ])
    return value, grad


def nll_and_gradient(
    weights: np.ndarray,
    pairs: Sequence[LabeledPair],
    catalog: FeatureCatalog,
) -> tuple[float, np.ndarray]:
    """Negative conditional log-likelihood of the pairs and its gradient:
    expected minus observed feature counts. This is the smooth part of the
    training objective; the L1 penalty lives in the optimizer.
    """
    if not pairs:
        raise ValueError("need at least one training pair")
    return _batch_nll_and_gradient(weights, TrainingBatch(pairs, catalog))


def training_pairs(log: EventLog, catalog: FeatureCatalog) -> list[LabeledPair]:
    """Evaluate the catalog on every annotated trace of a log."""
    return [
        LabeledPair(evaluate_observations(catalog, trace), label_indices(catalog, trace))
        for trace in log.traces
    ]


def train(
    annotated: EventLog,
    catalog: FeatureCatalog,
    l1_coefficient: float = 0.1,
    optimizer_config: OwlqnConfig | None = None,
    objective_hook: Callable[[float], None] | None = None,
) -> CrfModel:
    """Fit CRF weights by minimizing NLL + C * ||lambda||_1 with OWL-QN.

    Deterministic: identical inputs produce identical weight vectors.
    """
    batch = TrainingBatch(training_pairs(annotated, catalog), catalog)
    base = optimizer_config or OwlqnConfig()
    config = replace(base, l1_coefficient=l1_coefficient)

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _batch_nll_and_gradient(w, batch)
        if objective_hook is not None:
            objective_hook(value)
        return value, grad

    weights, result = minimize(objective, catalog.n_features, config)
    return CrfModel(
        catalog=catalog,
        weights=weights,
        l1_coefficient=l1_coefficient,
        training=result,
    )
