"""Statistical estimators behind the feature layer: smoothed multinoulli
tables, each a (contexts, labels) count matrix smoothed as whole arrays;
univariate Gaussian mixtures fitted by EM; and BIC-based selection of the
mixture size.

All EM runs go through one packed kernel. It groups the fits by component
count k, concatenates each group's samples into one row array with a
contiguous segment per fit, and runs every iteration as whole-array
operations over the group, with per-fit sums by ``np.add.reduceat`` over
the segment starts. Fits that converge drop out and their rows are
compacted away. Each fit keeps its own seed, floor, stopping rule and
warnings, and its result does not depend on the fits packed with it, so
``gmm_select_bic_many`` over many sample sets equals ``gmm_select_bic`` on
each. ``gmm_fit_em`` and ``gmm_select_bic`` run the same kernel on one set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EventabsError

__all__ = [
    "EstimationError",
    "MultinoulliTable",
    "Gmm",
    "gmm_fit_em",
    "gmm_select_bic",
    "gmm_select_bic_many",
    "gmm_log_density",
]

_LOG_2PI = math.log(2.0 * math.pi)
# every EM fit stops after at most this many iterations, or once an
# iteration gains at most EM_TOLERANCE * (1 + |log L|)
EM_MAX_ITERATIONS = 200
EM_TOLERANCE = 1e-8


class EstimationError(EventabsError):
    """An estimator received data it cannot be fitted on."""


@dataclass(frozen=True, eq=False)
class MultinoulliTable:
    """Per-context categorical distributions over a label alphabet, with
    additive smoothing, held as a count matrix: row i of ``counts`` holds
    the label counts of the observed context ``contexts[i]``, one column
    per label.

    The probability of label l given a context is ``(count(ctx, l) +
    alpha) / (count(ctx) + alpha * |labels|)``; contexts never observed,
    or with a zero denominator, fall back to the uniform distribution.
    Tables are equal when they hold the same counts, in any row order.
    """

    arity: int
    labels: tuple[str, ...]
    alpha: float
    contexts: tuple[tuple[str, ...], ...]
    counts: np.ndarray  # (contexts, labels) int

    @cached_property
    def _row(self) -> dict[tuple[str, ...], int]:
        return {context: i for i, context in enumerate(self.contexts)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultinoulliTable) and self.to_dict() == other.to_dict()

    def distributions(self, contexts: Sequence[tuple[str, ...]]) -> np.ndarray:
        """The smoothed label distribution of every context, as the rows of
        a (contexts, labels) array, with one lookup per context."""
        L = len(self.labels)
        if any(len(c) != self.arity for c in contexts):
            raise ValueError(f"context arity does not match table arity {self.arity}")
        rows = np.asarray([self._row.get(c, -1) for c in contexts], dtype=np.intp)
        seen = np.flatnonzero(rows >= 0)
        counts = self.counts[rows[seen]]
        denom = counts.sum(axis=1) + self.alpha * L
        use = denom != 0.0
        out = np.full((len(contexts), L), 1.0 / L)
        out[seen[use]] = (counts[use] + self.alpha) / denom[use, None]
        return out

    @classmethod
    def from_counts(
        cls,
        arity: int,
        contexts: Sequence[tuple[str, ...]],
        counts: np.ndarray,
        labels: tuple[str, ...],
        alpha: float,
    ) -> "MultinoulliTable":
        """The table of a (contexts, labels) integer count matrix over a
        sorted label alphabet; contexts without counts are left out, as
        never observed."""
        observed = np.flatnonzero(counts.any(axis=1))
        contexts = tuple(contexts[i] for i in observed.tolist())
        return cls(arity, labels, float(alpha), contexts, counts[observed])

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "labels": list(self.labels),
            "alpha": self.alpha,
            "counts": [
                [list(ctx), {l: c for l, c in sorted(zip(self.labels, row)) if c}]
                for ctx, row in sorted(zip(self.contexts, self.counts.tolist()))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MultinoulliTable":
        """The table written by :meth:`to_dict`. Raises ``ValueError`` for a
        count that is not a non-negative integer or that names a label
        outside the table's labels, for a context listed twice or of a
        length other than the arity, and for an alpha that is negative or
        not finite."""
        arity, alpha = int(data["arity"]), float(data["alpha"])
        if not 0 <= alpha < math.inf:
            raise ValueError(f"alpha {alpha!r} is not non-negative and finite")
        labels = tuple(data["labels"])
        column = {l: j for j, l in enumerate(labels)}
        counts = np.zeros((len(data["counts"]), len(labels)), dtype=np.int64)
        for row, (ctx, per_label) in zip(counts, data["counts"]):
            for label, c in dict(per_label).items():
                if label not in column:
                    raise ValueError(f"context {ctx}: label {label!r} is not in {labels}")
                if type(c) is not int or c < 0:
                    raise ValueError(f"context {ctx}: count {c!r} is not a non-negative integer")
                row[column[label]] = c
        contexts = tuple(tuple(ctx) for ctx, _ in data["counts"])
        if len(set(contexts)) < len(contexts) or {len(c) for c in contexts} - {arity}:
            raise ValueError(f"contexts are not distinct and of length {arity}")
        return cls(arity, labels, alpha, contexts, counts)


@dataclass(frozen=True)
class Gmm:
    """A univariate Gaussian mixture: positive weights summing to one,
    component means, and floored variances.
    """

    weights: tuple[float, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    variance_floor: float
    log_likelihood: float = math.nan
    ll_trajectory: tuple[float, ...] = ()
    bic: float = math.nan
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        k = len(self.weights)
        if k == 0 or len(self.means) != k or len(self.variances) != k:
            raise EstimationError("mixture parameter lengths disagree")
        # written so that a NaN fails each test
        if not all(w > 0 for w in self.weights):
            raise EstimationError("mixture weights must be positive")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise EstimationError("mixture weights must sum to 1")
        if not all(math.isfinite(m) for m in self.means):
            raise EstimationError("mixture means must be finite")
        if not 0 < self.variance_floor < math.inf:
            raise EstimationError("variance floor must be positive and finite")
        if not all(self.variance_floor * (1 - 1e-12) <= v < math.inf for v in self.variances):
            raise EstimationError("variance below floor or infinite")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "means": list(self.means),
            "variances": list(self.variances),
            "variance_floor": self.variance_floor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Gmm":
        return cls(
            weights=tuple(float(w) for w in data["weights"]),
            means=tuple(float(m) for m in data["means"]),
            variances=tuple(float(v) for v in data["variances"]),
            variance_floor=float(data["variance_floor"]),
        )


def _component_log_pdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * (_LOG_2PI + math.log(var) + (x - mean) ** 2 / var)


def gmm_log_density(model: Gmm, x: float | np.ndarray) -> float | np.ndarray:
    """Log of the mixture density at ``x`` (scalar or array). A component
    so far from ``x`` that the squared distance overflows, as from a mean
    near the float range, scores -inf, its limit, and so does the mixture
    where every component does."""
    xs = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        scores = np.stack([
            math.log(w) + _component_log_pdf(xs, m, v)
            for w, m, v in zip(model.weights, model.means, model.variances)
        ])
        top = scores.max(axis=0)
        shift = np.where(top > -np.inf, top, 0.0)
        out = top + np.log(np.exp(scores - shift).sum(axis=0))
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def _kmeanspp_centers(xs: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [xs[rng.integers(len(xs))]]
    for _ in range(1, k):
        d2 = np.min((xs[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0.0:
            centers.append(xs[rng.integers(len(xs))])
        else:
            centers.append(xs[rng.choice(len(xs), p=d2 / total)])
    return np.asarray(centers, dtype=float)


def _finite_samples(samples: Sequence[float]) -> np.ndarray:
    xs = np.asarray(list(samples), dtype=float)
    if not np.all(np.isfinite(xs)):
        raise EstimationError("samples must be finite")
    return xs


def _em_group(
    sample_sets: list[np.ndarray],
    k: int,
    seeds: list[int],
) -> list[Gmm]:
    """EM for fits that share the component count ``k``, packed.

    The samples of all fits form one row array with one contiguous segment
    per fit. Each iteration runs one E-step over the (k, rows) scores,
    whose exponentials give both the log-likelihood and the
    responsibilities, and sums per fit with ``np.add.reduceat`` over the
    segment starts. Every operation is elementwise or reduces within one
    segment, so a fit's result does not depend on the fits packed with it.
    A fit that meets its tolerance drops out and its rows are compacted
    away.

    The rows' squared distances to their means are computed once per
    iteration: the M-step's, for the means it has just set, are the next
    E-step's. The E-step scores, shifts and exponentiates in that one
    (k, rows) array, and the M-step divides it into responsibilities in
    place.
    """
    n_fits = len(sample_sets)
    floor_of = np.empty(n_fits)
    # parameters are (k, fits) and row arrays (k, rows), all C-contiguous:
    # reductions over the components then combine whole rows
    means = np.empty((k, n_fits))
    variances = np.empty((k, n_fits))
    for f, (xs, seed) in enumerate(zip(sample_sets, seeds)):
        sample_var = float(np.var(xs))
        floor_of[f] = max(1e-6 * sample_var, 1e-9)
        # a seed is any integer; numpy's generators take non-negative ones
        means[:, f] = _kmeanspp_centers(xs, k, np.random.default_rng(seed % 2**64))
        variances[:, f] = max(sample_var, floor_of[f])
    weights = np.full((k, n_fits), 1.0 / k)

    trajectories: list[list[float]] = [[] for _ in range(n_fits)]
    warnings: list[dict[str, None]] = [{} for _ in range(n_fits)]
    final: list[tuple[np.ndarray, ...]] = [()] * n_fits

    # the live fits: their indices, floors, rows and segment layout
    ids = np.arange(n_fits)
    floors = floor_of
    lengths = np.asarray([len(xs) for xs in sample_sets])
    xs = np.concatenate(sample_sets)
    ll_prev = np.full(n_fits, -math.inf)

    def warn(flags: np.ndarray, message: str) -> None:
        for f in ids[flags]:
            warnings[f].setdefault(message)

    # each row's squared distance to its fit's means: the initial means'
    # here, then each M-step's for the next E-step
    sq = xs - np.repeat(means, lengths, axis=1)
    sq **= 2
    starts = np.cumsum(lengths) - lengths
    for it in range(EM_MAX_ITERATIONS + 1):
        scores = np.multiply(sq, np.repeat(-0.5 / variances, lengths, axis=1), out=sq)
        scores += np.repeat(
            np.log(weights) - 0.5 * (_LOG_2PI + np.log(variances)), lengths, axis=1
        )
        top = scores.max(axis=0)
        expd = np.exp(np.subtract(scores, top, out=scores), out=scores)
        total = expd.sum(axis=0)
        ll = np.add.reduceat(top + np.log(total), starts)
        for f, value in zip(ids.tolist(), ll.tolist()):
            trajectories[f].append(value)
        if it == EM_MAX_ITERATIONS:  # this E-step only scored the final parameters
            stop = np.ones(len(ids), dtype=bool)
            warn(stop, "EM stopped at the iteration cap")
        else:
            stop = (ll - ll_prev <= EM_TOLERANCE * (1.0 + np.abs(ll))) & (it > 0)
            # a converged fit keeps its parameters, so this log-likelihood
            # is also its final one
            for f, value in zip(ids[stop].tolist(), ll[stop].tolist()):
                trajectories[f].append(value)
        if stop.any():
            for local in np.flatnonzero(stop):
                final[ids[local]] = (
                    weights[:, local], means[:, local], variances[:, local]
                )
            keep = ~stop
            if not keep.any():
                break
            rows = np.repeat(keep, lengths)
            ids, floors, lengths, ll = ids[keep], floors[keep], lengths[keep], ll[keep]
            # np.compress keeps the (k, ·) arrays C-contiguous, unlike [:, mask]
            weights, means, variances = (
                np.compress(keep, a, axis=1) for a in (weights, means, variances)
            )
            xs, expd, total = xs[rows], np.compress(rows, expd, axis=1), total[rows]
            starts = np.cumsum(lengths) - lengths
        ll_prev = ll

        resp = np.divide(expd, total, out=expd)
        mass = np.add.reduceat(resp, starts, axis=1)
        degenerate = mass < 1e-12
        if degenerate.any():
            warn(degenerate.any(axis=0), "degenerate cluster: responsibility mass vanished")
            mass = np.where(degenerate, 1e-12, mass)
        weights = np.maximum(mass / mass.sum(axis=0), 1e-300)
        weights = weights / weights.sum(axis=0)
        means = np.where(
            degenerate, means, np.add.reduceat(resp * xs, starts, axis=1) / mass
        )
        sq = xs - np.repeat(means, lengths, axis=1)
        sq **= 2
        new_var = np.add.reduceat(resp * sq, starts, axis=1) / mass
        warn((new_var < floors).any(axis=0), "variance clamped to floor")
        variances = np.maximum(new_var, floors)

    return [
        Gmm(
            weights=tuple(w.tolist()),
            means=tuple(m.tolist()),
            variances=tuple(v.tolist()),
            variance_floor=float(floor),
            log_likelihood=trajectory[-1],
            ll_trajectory=tuple(trajectory),
            warnings=tuple(warned),
        )
        for floor, (w, m, v), trajectory, warned in zip(
            floor_of, final, trajectories, warnings
        )
    ]


def _em_fits(
    sample_sets: list[np.ndarray], ks: list[int], seeds: list[int]
) -> list[Gmm]:
    """Fit one mixture per (samples, k, seed) by EM, with the fits of each
    component count packed into one :func:`_em_group` run, so no component
    is padded. The callers validate the inputs."""
    fits: list[Gmm] = [None] * len(ks)  # type: ignore[list-item]
    for k in sorted(set(ks)):
        members = [i for i, k_i in enumerate(ks) if k_i == k]
        group = _em_group(
            [sample_sets[i] for i in members], k, [seeds[i] for i in members]
        )
        for i, fit in zip(members, group):
            fits[i] = fit
    return fits


def gmm_fit_em(samples: Sequence[float], k: int, seed: int = 0) -> Gmm:
    """Fit a k-component univariate mixture by EM.

    Initialization is k-means++-style seeding of the means with uniform
    weights and the global variance; deterministic for a fixed seed. The
    per-iteration log-likelihood trajectory is recorded and non-decreasing.
    EM stops once an iteration gains at most ``EM_TOLERANCE * (1 + |log
    L|)``, or after ``EM_MAX_ITERATIONS`` iterations, which is recorded as
    a warning.
    Variances are clamped to a floor of 1e-6 of the sample variance
    (absolute floor 1e-9); clamping is recorded as a warning.
    """
    if k < 1:
        raise EstimationError("k must be at least 1")
    xs = _finite_samples(samples)
    if k > len(xs):
        raise EstimationError(f"cannot fit {k} components on {len(xs)} samples")
    return _em_fits([xs], [k], [seed])[0]


def gmm_select_bic_many(
    sample_sets: Sequence[Sequence[float]],
    k_max: int,
    seeds: Sequence[int],
) -> list[Gmm]:
    """:func:`gmm_select_bic` of every sample set with its seed, with the
    candidate mixtures of all sets fitted in one packed EM run. Each
    result equals ``gmm_select_bic(samples, k_max, seed)`` exactly."""
    if k_max < 1:
        raise EstimationError("k_max must be at least 1")
    if len(sample_sets) != len(seeds):
        raise ValueError("one seed per sample set is required")
    arrays = [_finite_samples(samples) for samples in sample_sets]
    if any(len(xs) == 0 for xs in arrays):
        raise EstimationError("cannot select a mixture on no samples")
    candidates = [
        (xs, k, seed + k)
        for xs, seed in zip(arrays, seeds)
        for k in range(1, min(k_max, len(xs)) + 1)
    ]
    fits = iter(_em_fits(
        [xs for xs, _, _ in candidates], [k for _, k, _ in candidates],
        [seed for _, _, seed in candidates],
    ))
    selected: list[Gmm] = []
    for xs in arrays:
        best: Gmm | None = None
        for k in range(1, min(k_max, len(xs)) + 1):
            fit = next(fits)
            bic = -2.0 * fit.log_likelihood + (3 * k - 1) * math.log(len(xs))
            if best is None or bic < best.bic:
                best = replace(fit, bic=bic)
        selected.append(best)  # type: ignore[arg-type]
    return selected


def gmm_select_bic(samples: Sequence[float], k_max: int, seed: int = 0) -> Gmm:
    """Fit mixtures with 1..min(k_max, n) components and return the one
    minimizing BIC = -2 log L + p ln n with p = 3k - 1 free parameters.

    Ties keep the smaller k.
    """
    return gmm_select_bic_many([samples], k_max, [seed])[0]
