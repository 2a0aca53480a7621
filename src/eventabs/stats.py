"""Statistical estimators behind the feature layer: smoothed multinoulli
tables, each a (contexts, labels) count matrix smoothed as whole arrays;
univariate Gaussian mixtures fitted by EM; and BIC-based selection of the
mixture size.

All EM runs go through one packed loop (``_em_loop``) over every fit of a
call, whatever its component count k: ``gmm_select_bic_many`` fits all its
BIC candidates in one run. The fits lie in one component-major buffer
(``_layout``) that each iteration works on whole, with one ``repeat`` per
spread parameter and one ``np.add.reduceat`` per segment sum; fits that
stop ride along masked until enough of them can be gathered away. Each fit
keeps its own seed, floor, stopping rule and warnings, and its result does
not depend on the fits packed with it, so ``gmm_select_bic_many`` over many
sample sets equals ``gmm_select_bic`` on each. ``gmm_fit_em`` and
``gmm_select_bic`` run the same loop on one set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
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
    # each sample's squared distance to its nearest center so far, kept as
    # a running minimum: a minimum is exact, so this equals the minimum
    # over all the centers
    d2 = np.full(len(xs), math.inf)
    for _ in range(1, k):
        np.minimum(d2, (xs - centers[-1]) ** 2, out=d2)
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


def _layout(
    k_of: np.ndarray, lengths: np.ndarray, xs: np.ndarray
) -> tuple[list[tuple[slice, slice, np.ndarray]], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The packing of fits with component counts ``k_of``, in descending
    order, whose samples ``xs`` lie back to back. Slab j holds component
    j's entry for each row of the fits with more than j components, a
    prefix of the fits and of the rows. Returns each slab's entries,
    parameters and samples (a prefix view of ``xs``); each parameter's fit
    and sample count; each parameter's first entry; and each fit's first
    row."""
    ends = np.cumsum(lengths)
    fits = [int(np.count_nonzero(k_of > j)) for j in range(int(k_of[0]))]
    rows = [int(ends[n - 1]) for n in fits]
    slabs = [
        (slice(e, e + r), slice(p, p + n), xs[:r])
        for e, p, r, n in zip(accumulate(rows, initial=0), accumulate(fits, initial=0), rows, fits)
    ]
    fit_of = np.concatenate([np.arange(n) for n in fits])
    sizes = lengths[fit_of]
    return slabs, fit_of, sizes, np.cumsum(sizes) - sizes, ends - lengths


def _across(ufunc: np.ufunc, slabs: list[np.ndarray]) -> np.ndarray:
    """``ufunc`` reduced over ragged slabs, slab by slab in order: slab j
    covers a prefix of the first slab's places."""
    out = slabs[0].copy()
    for slab in slabs[1:]:
        head = out[:len(slab)]
        ufunc(head, slab, out=head)
    return out


def _em_fits(
    sample_sets: list[np.ndarray], ks: list[int], seeds: list[int]
) -> list[Gmm]:
    """Fit one mixture per (samples, k, seed) by EM, all fits in one packed
    loop (:func:`_em_loop`). The loop keeps each E-step's log-likelihoods
    as arrays, and the trajectories are made from them once its buffer is
    freed. The callers validate the inputs."""
    n_fits = len(ks)
    if not n_fits:
        return []
    floors = np.empty(n_fits)
    variances = np.empty(n_fits)
    means = []
    for i, (xs, k, seed) in enumerate(zip(sample_sets, ks, seeds)):
        sample_var = float(np.var(xs))
        floors[i] = max(1e-6 * sample_var, 1e-9)
        variances[i] = max(sample_var, floors[i])
        # a seed is any integer; numpy's generators take non-negative ones
        means.append(_kmeanspp_centers(xs, k, np.random.default_rng(seed % 2**64)).tolist())
    final, warnings, history, last_step, converged = _em_loop(
        sample_sets, ks, means, variances, floors
    )
    # a fit's trajectory: its column of each packing's log-likelihoods,
    # up to its last E-step, and that value again if it converged
    trajectories: list[list[float] | None] = [[] for _ in range(n_fits)]
    first = 0
    for packed, lls in history:
        steps = np.stack(lls)
        lls.clear()
        for f, i in enumerate(packed.tolist()):
            trajectories[i] += steps[:last_step[i] + 1 - first, f].tolist()
        first += len(steps)
    fits = []
    for i, done in enumerate(converged.tolist()):
        trajectory = trajectories[i]
        trajectories[i] = None  # its list goes as its tuple is made
        w, m, v = final[i]
        fits.append(Gmm(
            weights=tuple(w.tolist()),
            means=tuple(m.tolist()),
            variances=tuple(v.tolist()),
            variance_floor=float(floors[i]),
            log_likelihood=trajectory[-1],
            ll_trajectory=tuple(trajectory + trajectory[-1:] if done else trajectory),
            warnings=tuple(warnings[i]),
        ))
    return fits


def _em_loop(
    sample_sets: list[np.ndarray], ks: list[int], centers: list[list[float]],
    start_variance: np.ndarray, floor_of: np.ndarray,
) -> tuple[list, list, list, np.ndarray, np.ndarray]:
    """EM from the given means, variances and floors for every fit at once.
    Returns each fit's final (weights, means, variances) and warnings; the
    log-likelihoods of every E-step, as one (fit indices, per-step arrays)
    pair per packing; and each fit's last E-step and whether it converged.

    The fits lie as :func:`_layout` packs them, and the per-(component,
    fit) weights, means, variances and floors in the same order, one per
    segment of the buffer. A parameter is spread over the whole buffer by
    one ``repeat``; rows' maxima and sums and fits' sums run over the
    components slab by slab in component order (as ``np.bincount`` would,
    at about 5 us a call); segment sums are one ``np.add.reduceat``. Every
    operation is elementwise or reduces within one fit, in the order the
    fit run alone takes, so a fit's result does not depend on the fits
    packed with it.

    At the start of an iteration the buffer holds each entry's squared
    distance to its mean (the M-step's, for the means it has just set,
    serve the next E-step); the E-step turns it into responsibilities in
    place. Beside it EM holds at most one buffer-sized temporary at a time
    (a spread, the r·x products or the new squared distances) and reads the
    samples through each slab's prefix view: a per-entry copy of the
    samples cost sensor-long 1.0-1.25 MB of peak RSS.

    A fit that meets its tolerance stops and its result is recorded. It
    then rides along masked, adding nothing to trajectories, warnings or
    results, until the stopped fits hold an eighth as many buffer entries
    as the live fits; then one boolean gather keeps the live segments,
    already in the new layout. Compacting at every stop copied the whole
    buffer about a hundred times per sensor-long catalog and was no
    faster, and waiting for a quarter or a half left more stopped rows
    riding than the copies cost.
    """
    n_fits = len(ks)
    # the packed fits: their indices, component counts, sample counts,
    # liveness and log-likelihoods at the previous iteration
    ids = np.asarray(sorted(range(n_fits), key=lambda i: -ks[i]))
    k_of = np.asarray(ks)[ids]
    lengths = np.asarray([len(sample_sets[i]) for i in ids.tolist()])
    live = np.ones(n_fits, dtype=bool)
    ll_prev = np.full(n_fits, -math.inf)

    xs = np.concatenate([sample_sets[i] for i in ids.tolist()])
    slabs, fit_of, sizes, segments, starts = _layout(k_of, lengths, xs)
    means = np.asarray([centers[i][j] for j in range(len(slabs)) for i in ids[k_of > j].tolist()])
    variances = start_variance[ids][fit_of]
    weights = 1.0 / k_of[fit_of]
    floors = floor_of[ids][fit_of]

    warnings: list[dict[str, None]] = [{} for _ in range(n_fits)]
    final: list[tuple[np.ndarray, ...]] = [()] * n_fits
    history: list[tuple[np.ndarray, list[np.ndarray]]] = [(ids, [])]
    last_step = np.zeros(n_fits, dtype=np.intp)
    converged = np.zeros(n_fits, dtype=bool)

    def per_fit(values: np.ndarray) -> np.ndarray:
        # each fit's sum over its components, in component order
        return _across(np.add, [values[params] for _, params, _ in slabs])

    def warn(flags: np.ndarray, message: str) -> None:
        for f in ids[flags & live]:
            warnings[f].setdefault(message)

    def squared_distances(means: np.ndarray) -> np.ndarray:
        sq = means.repeat(sizes)
        for part, _, x in slabs:
            np.subtract(x, sq[part], out=sq[part])
        return np.square(sq, out=sq)

    entries = squared_distances(means)
    for it in range(EM_MAX_ITERATIONS + 1):
        scale = -0.5 / variances
        shift = np.log(weights) - 0.5 * (_LOG_2PI + np.log(variances))
        entries *= scale.repeat(sizes)
        entries += shift.repeat(sizes)
        # the rows' maximum and sum over the components, in component order
        views = [entries[part] for part, _, _ in slabs]
        top = _across(np.maximum, views)
        for view in views:
            view -= top[:len(view)]
        np.exp(entries, out=entries)
        total = _across(np.add, views)
        for view in views:
            view /= total[:len(view)]
        # each row's log-likelihood, in place of its maximum
        top += np.log(total, out=total)
        ll = np.add.reduceat(top, starts)
        del views, top, total  # the M-step's temporaries take their place
        history[-1][1].append(ll)
        if it == EM_MAX_ITERATIONS:  # this E-step only scored the final parameters
            stop = live.copy()
            warn(stop, "EM stopped at the iteration cap")
        else:
            # the first E-step's gain over -inf is never within the tolerance
            stop = (ll - ll_prev <= EM_TOLERANCE * (1.0 + np.abs(ll))) & live
        if np.count_nonzero(stop):
            last_step[ids[stop]] = it
            # a converged fit keeps its parameters, so this log-likelihood
            # is also its final one
            converged[ids[stop]] = it < EM_MAX_ITERATIONS
            for f in np.flatnonzero(stop).tolist():
                own = np.flatnonzero(fit_of == f)
                final[ids[f]] = (weights[own], means[own], variances[own])
            live &= ~stop
            if not np.count_nonzero(live):
                break
            size = k_of * lengths
            if 8 * size[~live].sum() >= size[live].sum():
                kept = live[fit_of]
                entries = entries[np.repeat(kept, sizes)]
                xs = xs[np.repeat(live, lengths)]
                means, variances, weights, floors = (
                    a[kept] for a in (means, variances, weights, floors)
                )
                ids, k_of, lengths, ll = ids[live], k_of[live], lengths[live], ll[live]
                slabs, fit_of, sizes, segments, starts = _layout(k_of, lengths, xs)
                live = np.ones(len(ids), dtype=bool)
                history.append((ids, []))
        ll_prev = ll

        mass = np.add.reduceat(entries, segments)
        product = np.empty(len(entries))
        for part, _, x in slabs:
            np.multiply(entries[part], x, out=product[part])
        sums = np.add.reduceat(product, segments)
        del product
        degenerate = mass < 1e-12
        if np.count_nonzero(degenerate):
            warn(per_fit(degenerate), "degenerate cluster: responsibility mass vanished")
            mass = np.where(degenerate, 1e-12, mass)
            means = np.where(degenerate, means, sums / mass)
        else:
            means = sums / mass
        weights = np.maximum(mass / per_fit(mass)[fit_of], 1e-300)
        weights = weights / per_fit(weights)[fit_of]
        # the squared distances to the new means, which the next E-step
        # scores, once they have weighted the variance sums
        sq = squared_distances(means)
        entries *= sq
        new_var = np.add.reduceat(entries, segments) / mass
        entries = sq
        clamped = new_var < floors
        if np.count_nonzero(clamped):
            warn(per_fit(clamped), "variance clamped to floor")
        variances = np.maximum(new_var, floors)

    return final, warnings, history, last_step, converged


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
