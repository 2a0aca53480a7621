"""Independent oracles shared by the test modules. Everything here is
deliberately brute-force and stays off the library's own code paths: from
``eventabs.features`` only the ``BOT`` and ``MISSING`` symbols are used.
Lifecycle pairing and time-view coordinates are computed here per trace
and per datetime, from the events themselves."""

from __future__ import annotations

import calendar
import io
import itertools
import math
import re
import xml.etree.ElementTree as ET
from collections import deque
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from eventabs.features import BOT, MISSING
from eventabs.petri import MAX_PLAYOUT_STEPS, LabeledPetriNet, Marking, PlayoutError
from eventabs.stats import EstimationError, Gmm
from eventabs.xes import (
    _STANDARD_EXTENSIONS,
    CONCEPT_NAME,
    AttributeValue,
    Event,
    EventLog,
    Trace,
    XesParseError,
    XesValueError,
    canonical_key,
)


def enumerate_sequence_scores(
    obs: np.ndarray,
    weights: np.ndarray,
    obs_label_idx: list[int],
    n_labels: int,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Score every label sequence directly from the weighted-feature-sum
    definition: observation features fire when the current label matches
    their target, transition indicators fire on (previous, current) pairs
    with the begin-of-sequence row last."""
    T, F = obs.shape
    bos = n_labels

    def transition_weight(prev: int, cur: int) -> float:
        return weights[F + prev * n_labels + cur]

    sequences = list(itertools.product(range(n_labels), repeat=T))
    scores = np.empty(len(sequences))
    for s_i, seq in enumerate(sequences):
        total = 0.0
        prev = bos
        for t, y in enumerate(seq):
            for k in range(F):
                if obs_label_idx[k] == y:
                    total += weights[k] * obs[t, k]
            total += transition_weight(prev, y)
            prev = y
        scores[s_i] = total
    return sequences, scores


def log_sum_exp(values: np.ndarray) -> float:
    top = values.max()
    return float(top + np.log(np.exp(values - top).sum()))


def argmax_lexicographic(
    sequences: list[tuple[int, ...]], scores: np.ndarray
) -> tuple[int, ...]:
    """First strict maximum in lexicographic sequence order."""
    best_i = 0
    for i in range(1, len(sequences)):
        if scores[i] > scores[best_i]:
            best_i = i
    return sequences[best_i]


def viterbi_per_position(emissions: np.ndarray, trans: np.ndarray) -> list[int]:
    """One trace's Viterbi path by a loop over its positions: a max-plus
    backward pass, then the first (lowest-index) maximum at each step."""
    T, L = emissions.shape
    if T == 0:
        return []
    core = trans[:L]
    delta = np.zeros((T, L))
    for t in range(T - 2, -1, -1):
        delta[t] = np.maximum.reduce(core + (emissions[t + 1] + delta[t + 1])[None, :], axis=1)
    path = [int(np.argmax(trans[L] + emissions[0] + delta[0]))]
    for t in range(1, T):
        path.append(int(np.argmax(core[path[-1]] + emissions[t] + delta[t])))
    return path


def recursive_edit_distance(a: tuple, b: tuple) -> int:
    """Memoized textbook recurrence, independent of the two-row DP."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(go(i - 1, j - 1) + cost, go(i - 1, j) + 1, go(i, j - 1) + 1)

    return go(len(a), len(b))


def levenshtein_distance_reference(a, b) -> int:
    """Unit-cost edit distance by the two-row DP, one Python cell at a
    time; the reference for the library's bit-vector kernel."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, sym_a in enumerate(a, start=1):
        current = [i]
        for j, sym_b in enumerate(b, start=1):
            cost = 0 if sym_a == sym_b else 1
            current.append(min(
                previous[j - 1] + cost,  # substitution / match
                previous[j] + 1,         # deletion
                current[j - 1] + 1,      # insertion
            ))
        previous = current
    return previous[-1]


def _is_enabled(net: LabeledPetriNet, marking: Marking, t: str) -> bool:
    return all(marking.count(p) >= 1 for p in net.preset(t))


def _fire(net: LabeledPetriNet, marking: Marking, t: str) -> Marking:
    counts = dict(marking.items())
    for p in net.preset(t):
        counts[p] -= 1
    for p in net.postset(t):
        counts[p] = counts.get(p, 0) + 1
    return Marking({k: v for k, v in counts.items() if v > 0})


def playout_reference(net: LabeledPetriNet, rng, stop_probability: float) -> list[str]:
    """One playout of the token game on :class:`Marking` objects, drawing
    from ``rng`` in the generator's order: at a final marking one
    ``rng.random()`` (none if nothing is enabled), then one
    ``rng.randrange`` over the enabled transitions sorted by name."""
    marking = net.initial_marking
    emitted: list[str] = []
    for _ in range(MAX_PLAYOUT_STEPS):
        enabled = sorted(t for t in net.transitions if _is_enabled(net, marking, t))
        if marking in net.final_markings:
            if not enabled or rng.random() < stop_probability:
                return emitted
        elif not enabled:
            raise PlayoutError(f"deadlock in non-final marking {marking}")
        transition = enabled[rng.randrange(len(enabled))]
        marking = _fire(net, marking, transition)
        label = net.label_of(transition)
        if label is not None:
            emitted.append(label)
    raise PlayoutError(f"playout did not end within {MAX_PLAYOUT_STEPS} steps")


def is_valid_run(net: LabeledPetriNet, labels: list[str]) -> bool:
    """Whether a visible-label sequence is a firing sequence of the net
    that ends in a final marking, via exhaustive search with tau moves."""

    seen: set[tuple[Marking, int]] = set()

    def search(marking: Marking, pos: int) -> bool:
        if (marking, pos) in seen:
            return False
        seen.add((marking, pos))
        if pos == len(labels) and marking in net.final_markings:
            return True
        for t in sorted(net.transitions):
            if not _is_enabled(net, marking, t):
                continue
            label = net.label_of(t)
            if label is None:
                if search(_fire(net, marking, t), pos):
                    return True
            elif pos < len(labels) and label == labels[pos]:
                if search(_fire(net, marking, t), pos + 1):
                    return True
        return False

    return search(net.initial_marking, 0)


def em_fit_reference(
    samples, k: int, seed: int = 0, max_iters: int = 200, tol: float = 1e-8
) -> Gmm:
    """EM for one univariate mixture, one fit at a time: k-means++ seeding
    from ``default_rng(seed)``, uniform weights and the sample variance,
    floor ``max(1e-6 var, 1e-9)``, stop once an iteration gains at most
    ``tol * (1 + |ll|)`` or after ``max_iters`` iterations, and a final
    E-step whose log-likelihood ends the trajectory."""
    xs = np.asarray(list(samples), dtype=float)
    n = len(xs)
    assert 1 <= k <= n and np.all(np.isfinite(xs))
    sample_var = float(np.var(xs))
    floor = max(1e-6 * sample_var, 1e-9)
    rng = np.random.default_rng(seed)

    centers = [xs[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min((xs[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        if d2.sum() <= 0.0:
            centers.append(xs[rng.integers(n)])
        else:
            centers.append(xs[rng.choice(n, p=d2 / d2.sum())])
    means = np.asarray(centers, dtype=float)
    variances = np.full(k, max(sample_var, floor))
    weights = np.full(k, 1.0 / k)

    warnings: list[str] = []
    trajectory: list[float] = []

    # EM amplifies rounding where a component's weight collapses: a last
    # bit at iteration 3 grows to 1e-9 relative in a weight or variance by
    # iteration 40. So the arithmetic is that of the packed kernel, one
    # contiguous row array per component: a score is the squared distance
    # times -1 / (2 var) plus one term per component, a responsibility is
    # an exponential over the sum of all (not exp(score - log norm)), sums
    # over the components run in component order, and a sum over the rows
    # is np.add.reduceat's, which adds the first row to the sum of the
    # others (np.sum groups the rows otherwise)
    def rows_sum(values: np.ndarray) -> float:
        return np.add.reduceat(values, [0])[0]

    def e_step() -> tuple[list[np.ndarray], float]:
        terms = np.log(weights) - 0.5 * (math.log(2.0 * math.pi) + np.log(variances))
        scores = [(xs - means[j]) ** 2 * (-0.5 / variances[j]) + terms[j] for j in range(k)]
        top = np.maximum.reduce(scores)
        expd = [np.exp(score - top) for score in scores]
        total = sum(expd)
        return [e / total for e in expd], float(rows_sum(top + np.log(total)))

    ll_prev = -math.inf
    for _ in range(max_iters):
        resp, ll = e_step()
        trajectory.append(ll)
        if ll - ll_prev <= tol * (1.0 + abs(ll)) and len(trajectory) > 1:
            break
        ll_prev = ll
        mass = np.array([rows_sum(r) for r in resp])
        degenerate = mass < 1e-12
        if degenerate.any():
            warnings.append("degenerate cluster: responsibility mass vanished")
            mass = np.where(degenerate, 1e-12, mass)
        weights = np.maximum(mass / sum(mass), 1e-300)
        weights = weights / sum(weights)
        means = np.where(degenerate, means, np.array([rows_sum(r * xs) for r in resp]) / mass)
        new_var = np.array([rows_sum(r * (xs - m) ** 2) for r, m in zip(resp, means)]) / mass
        if np.any(new_var < floor):
            warnings.append("variance clamped to floor")
        variances = np.maximum(new_var, floor)
    else:
        warnings.append("EM stopped at the iteration cap")

    _, ll_final = e_step()
    trajectory.append(ll_final)
    return Gmm(
        weights=tuple(float(w) for w in weights),
        means=tuple(float(m) for m in means),
        variances=tuple(float(v) for v in variances),
        variance_floor=floor,
        log_likelihood=ll_final,
        ll_trajectory=tuple(trajectory),
        warnings=tuple(dict.fromkeys(warnings)),
    )


def bic_select_reference(samples, k_max: int, seed: int = 0) -> Gmm:
    """The mixture of 1..min(k_max, n) components, fitted by
    :func:`em_fit_reference` with seed ``seed + k``, of least BIC
    ``-2 ll + (3k - 1) ln n``; ties keep the smaller k."""
    n = len(samples)
    fits = [em_fit_reference(samples, k, seed + k) for k in range(1, min(k_max, n) + 1)]
    bics = [-2.0 * g.log_likelihood + (3 * g.n_components - 1) * math.log(n) for g in fits]
    best = min(range(len(fits)), key=lambda i: (bics[i], i))
    return fits[best]


def l1_lbfgsb_reference(objective, dim: int, c: float) -> tuple[np.ndarray, float]:
    """Minimize ``objective``'s smooth part plus ``c * |w|_1`` with SciPy's
    L-BFGS-B on the split form w = p - q with p, q >= 0, where the penalty
    ``c * sum(p + q)`` is linear and the problem is smooth and
    bound-constrained. Returns w and its composite objective."""

    def split(z: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = objective(z[:dim] - z[dim:])
        grad = np.asarray(grad, dtype=float)
        return value + c * float(z.sum()), np.concatenate([grad + c, c - grad])

    found = scipy_minimize(
        split, np.zeros(2 * dim), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * dim),
        options={"maxiter": 20000, "maxfun": 50000, "maxcor": 20,
                 "ftol": 1e-15, "gtol": 1e-10},
    )
    w = found.x[:dim] - found.x[dim:]
    return w, float(objective(w)[0] + c * np.abs(w).sum())


# --- the objective and OWL-QN, one problem and one call at a time -------------
#
# These keep the arithmetic of the CRF objective and of OWL-QN as it was
# before their per-problem work went to array form, so the array forms can
# be checked against them bit for bit.

_TINY = np.finfo(float).tiny


def nll_and_gradient_reference(weights, problem, n: int, offsets) -> tuple[float, np.ndarray]:
    """The value and gradient of one problem of a ``TrainingBatch`` (one of
    its ``problems``: catalog, packed observations, observed counts, its
    rows ``keep``, ``after`` and ``prev``, and ``n``, its rows at step 0),
    on the batch's packing of ``n`` sequences with step ``offsets``: a
    scaled forward-backward pass of its own, with the BLAS calls a batch of
    this one problem makes, then the problem's counts, checks and value one
    by one."""
    catalog = problem.catalog
    L, f_obs = catalog.n_labels, catalog.n_observation_features
    weights = np.asarray(weights, dtype=float)
    w_obs, trans = weights[:f_obs], weights[f_obs:].reshape(L + 1, L)
    if n == 0:
        return 0.0, np.zeros(len(weights))
    slots = np.arange(f_obs) * L + catalog.observation_labels
    w_matrix = np.zeros((f_obs, L))
    w_matrix.reshape(-1)[slots] = w_obs
    emit = problem.obs @ w_matrix
    core_max, bos_max = trans[:L].max(), trans[L].max()
    rows = int(offsets[-1])
    bounds = [int(b) for b in offsets]
    with np.errstate(all="ignore"):
        e_core = np.exp(trans[:L] - core_max)
        bos = np.exp(trans[L:] - bos_max)
        row_max = emit.max(axis=1, keepdims=True)
        p = np.ones((rows, L))
        p[problem.keep] = np.exp(emit - row_max)
        alpha, scale, beta = np.empty((rows, L)), np.empty((rows, 1)), np.ones((rows, L))
        alpha[:n] = bos * p[:n]
        for t, (s, e) in enumerate(zip(bounds, bounds[1:])):
            if t:
                ps = bounds[t - 1]
                np.dot(alpha[ps:ps + e - s], e_core, out=alpha[s:e])
                alpha[s:e] *= p[s:e]
            scale[s:e] = alpha[s:e].sum(axis=1, keepdims=True)
            alpha[s:e] /= scale[s:e]
        q = p / scale
        for t in range(len(bounds) - 2, 0, -1):
            s, e, ps = bounds[t], bounds[t + 1], bounds[t - 1]
            q[s:e] *= beta[s:e]
            np.dot(q[s:e], e_core.T, out=beta[ps:ps + e - s])
        alpha_prev, q_after = alpha[problem.prev], q[problem.after]
        node = (alpha * beta)[problem.keep]
        scale_kept = scale[problem.keep]
        expected = np.concatenate([
            (problem.obs.T @ node).reshape(-1)[slots],
            (e_core * (alpha_prev.T @ q_after)).ravel(),
            node[:problem.n].sum(axis=0),
        ])
        if problem.n == 0:
            return 0.0, np.zeros(len(weights))
        if not (scale_kept.min() >= _TINY and np.isfinite(expected).all()):
            return np.inf, np.full(len(weights), np.nan)
        log_z = (
            np.log(scale_kept).sum() + row_max.sum() + problem.n * bos_max
            + (len(node) - problem.n) * core_max
        )
        return float(log_z - weights @ problem.observed), expected - problem.observed


def pseudo_gradient_reference(x: np.ndarray, grad: np.ndarray, c: float) -> np.ndarray:
    """OWL-QN's pseudo-gradient by cases: ``grad + c`` where x > 0,
    ``grad - c`` where x < 0; at zero the one-sided derivative that is
    negative to the right or positive to the left, else 0."""
    pg = np.where(x > 0, grad + c, np.where(x < 0, grad - c, 0.0))
    at_zero = x == 0
    right = grad + c
    left = grad - c
    pg = np.where(at_zero & (right < 0), right, pg)
    pg = np.where(at_zero & (left > 0), left, pg)
    return pg


def two_loop_direction_reference(
    pg: np.ndarray, pairs, free: np.ndarray, curvature_floor: float = 1e-10
) -> np.ndarray:
    """The L-BFGS two-loop direction ``-H pg`` from the ``(s, y)`` pairs
    (oldest first), each restricted to the ``free`` coordinates at the
    call; a pair whose restricted ``s . y`` is at most the floor is
    skipped."""
    restricted = []
    for s, y in pairs:
        s, y = s * free, y * free
        sy = float(s @ y)
        if sy > curvature_floor:
            restricted.append((s, y, 1.0 / sy))
    d = -pg
    if not restricted:
        return d
    alphas = []
    for s, y, rho in reversed(restricted):
        a = rho * float(s @ d)
        alphas.append(a)
        d -= a * y
    s_last, y_last, _ = restricted[-1]
    d *= float(s_last @ y_last) / float(y_last @ y_last)
    for (s, y, rho), a in zip(restricted, reversed(alphas)):
        b = rho * float(y @ d)
        d += (a - b) * s
    return d


def owlqn_reference(
    objective, dim: int, max_iterations: int = 500, tolerance: float = 1e-7,
    initial=None, c: float = 0.0, free_sets: list | None = None,
) -> tuple[np.ndarray, float, int, int, str]:
    """One OWL-QN run as a plain loop, restricting every stored pair anew at
    each iteration (:func:`two_loop_direction_reference`), with the
    constants of ``eventabs.owlqn``. Returns the point, the composite,
    the iterations, the evaluations and the stop reason; the free set of
    every direction is appended to ``free_sets`` when given. Raises
    ``ValueError`` at a non-finite start."""
    gradient_tolerance, sufficient_decrease, backtrack, trials = 1e-12, 1e-4, 0.5, 50
    curvature_floor, memory = 1e-10, 10
    x = np.zeros(dim) if initial is None else np.asarray(initial, dtype=float).copy()

    def composite_of(point):
        value, grad = objective(point)
        grad = np.asarray(grad, dtype=float)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            return None
        return grad, value + c * float(np.abs(point).sum())

    evaluations = 1
    start = composite_of(x)
    if start is None:
        raise ValueError("non-finite start")
    g, composite = start
    recent = deque([composite], maxlen=6)
    pairs = deque(maxlen=memory)
    stop, iterations = "iteration_cap", 0
    for iterations in range(1, max_iterations + 1):
        pg = pseudo_gradient_reference(x, g, c)
        if np.max(np.abs(pg)) <= gradient_tolerance * max(1.0, float(np.max(np.abs(x)))):
            stop = "stationary"
            break
        free = (x != 0) | (pg != 0) if c > 0 else np.ones(dim, dtype=bool)
        if free_sets is not None:
            free_sets.append(free)
        d = two_loop_direction_reference(pg, pairs, free, curvature_floor)
        if c > 0:
            d = np.where((x != 0) | (d * -pg > 0), d, 0.0)
            orthant = np.where(x != 0, np.sign(x), np.sign(-pg))
        if float(pg @ d) >= 0:
            d = -pg
        step = 1.0 if pairs else min(1.0, 1.0 / float(np.linalg.norm(d)))
        accepted = False
        for _ in range(trials):
            x_new = x + step * d
            if c > 0:
                x_new = np.where(x_new * orthant > 0, x_new, 0.0)
            evaluations += 1
            trial = composite_of(x_new)
            if trial is not None:
                g_new, composite_new = trial
                gain = float(pg @ (x_new - x))
                if composite_new <= composite + sufficient_decrease * gain and gain < 0:
                    accepted = True
                    break
            step *= backtrack
        if not accepted:
            stop = "line_search_failed"
            break
        s, y = x_new - x, g_new - g
        if float(s @ y) > curvature_floor:
            pairs.append((s, y))
        x, g, composite = x_new, g_new, composite_new
        recent.append(composite)
        if len(recent) == recent.maxlen:
            scale = max(abs(composite), 1e-12)
            if (recent[0] - composite) / (5.0 * scale) < tolerance:
                stop = "stalled"
                break
    return x, composite, iterations, evaluations, stop


# --- multinoulli tables as dicts ---------------------------------------------


def multinoulli_fit_reference(observations, alpha: float, labels=None) -> dict:
    """A smoothed multinoulli table counted from (context, label) pairs, in
    the dict form of ``MultinoulliTable.to_dict``: per observed context,
    the count of each label seen with it. The alphabet defaults to the
    labels seen; pass ``labels`` to smooth over a larger one."""
    if alpha < 0:
        raise EstimationError("smoothing alpha must be non-negative")
    counts: dict = {}
    arity = None
    for context, label in observations:
        context = tuple(context)
        if arity is None:
            arity = len(context)
        elif len(context) != arity:
            raise EstimationError(f"mixed context arities: {arity} and {len(context)}")
        per_label = counts.setdefault(context, {})
        per_label[label] = per_label.get(label, 0) + 1
    if arity is None:
        raise EstimationError("cannot fit a multinoulli table on no observations")
    seen = {label for per_label in counts.values() for label in per_label}
    alphabet = sorted(labels) if labels is not None else sorted(seen)
    if not seen <= set(alphabet):
        raise EstimationError("observed labels outside the declared alphabet")
    return {
        "arity": arity,
        "labels": alphabet,
        "alpha": float(alpha),
        "counts": [[list(ctx), dict(sorted(c.items()))] for ctx, c in sorted(counts.items())],
    }


def multinoulli_rows_reference(table: dict, contexts) -> list[list[float]]:
    """The smoothed label distribution of each context under a table in its
    dict form, label by label: (count(ctx, l) + alpha) / (count(ctx) +
    alpha * |labels|), uniform for a context never observed or with a zero
    denominator."""
    labels, alpha = table["labels"], table["alpha"]
    counts = {tuple(ctx): per_label for ctx, per_label in table["counts"]}
    rows = []
    for context in contexts:
        per_label = counts.get(tuple(context))
        denom = 0.0 if per_label is None else sum(per_label.values()) + alpha * len(labels)
        if denom == 0.0:
            rows.append([1.0 / len(labels)] * len(labels))
        else:
            rows.append([(per_label.get(l, 0) + alpha) / denom for l in labels])
    return rows


# --- lifecycle pairing and time views, per trace and per datetime ------------

# Linear order of the standard transactional lifecycle.
_LIFECYCLE_CHAIN = ("schedule", "assign", "start", "suspend", "resume", "complete")


def view_coordinate(view: str, ts: datetime) -> float:
    """Elapsed position of a UTC timestamp within the day, week, or month,
    from its calendar fields: seconds for day and week (Monday-based),
    the elapsed fraction of the calendar month for month."""
    ts = ts.astimezone(timezone.utc)
    day_seconds = ts.hour * 3600.0 + ts.minute * 60.0 + ts.second + ts.microsecond / 1e6
    if view == "day":
        return day_seconds
    if view == "week":
        return ts.weekday() * 86_400.0 + day_seconds
    if view == "month":
        days_in_month = calendar.monthrange(ts.year, ts.month)[1]
        elapsed = (ts.day - 1) * 86_400.0 + day_seconds
        return elapsed / (days_in_month * 86_400.0)
    raise ValueError(f"unknown time view {view!r}")


def _step(event: Event) -> str | None:
    return event.lifecycle.lower() if event.lifecycle is not None else None


def pair_lifecycle_steps(trace: Trace, observed_steps) -> list[int | None]:
    """Per event of one trace, the index of the event of its predecessor
    lifecycle step that it consumes, or None: FIFO per activity name, the
    predecessor being the nearest earlier step of the transactional order
    in ``observed_steps``, case-insensitive. Events without a name or a
    step neither consume nor wait."""
    observed = {s.lower() for s in observed_steps}
    chain = [s for s in _LIFECYCLE_CHAIN if s in observed]
    predecessor = dict(zip(chain[1:], chain))
    queues: dict = {}
    matches: list[int | None] = []
    for i, event in enumerate(trace.events):
        step, activity, match = _step(event), event.name, None
        if step is not None and activity is not None:
            queue = queues.get((activity, predecessor.get(step)))
            if queue:
                match = queue.popleft()
            queues.setdefault((activity, step), deque()).append(i)
        matches.append(match)
    return matches


def lifecycle_durations_reference(traces, steps) -> list[tuple[int, tuple[str, str], float]]:
    """(log-order event number, (activity, predecessor step), seconds) of
    every pair :func:`pair_lifecycle_steps` matches under ``steps`` in
    which both events have a timestamp."""
    found, offset = [], 0
    for trace in traces:
        events = trace.events
        for i, j in enumerate(pair_lifecycle_steps(trace, steps)):
            if j is not None and None not in (events[i].timestamp, events[j].timestamp):
                seconds = (events[i].timestamp - events[j].timestamp).total_seconds()
                found.append((offset + i, (events[i].name, _step(events[j])), seconds))
        offset += len(events)
    return found


def contexts_reference(vocabulary, ids, lengths, n: int):
    """The n-gram contexts of one interned attribute column (``ids`` into
    ``vocabulary``, traces of the given lengths in order), as
    ``InternedLog.contexts`` returns them: each event's window of the last
    ``n`` ids, BOT (id ``len(vocabulary)``) before the trace start, built
    trace by trace; the distinct windows by a row-wise ``np.unique``, so in
    lexicographic order; each event's window index; and whether each
    context ends in a value rather than MISSING."""
    bot, windows, start = len(vocabulary), [], 0
    for length in lengths:
        for i in range(length):
            windows.append([ids[start + i - lag] if i >= lag else bot for lag in reversed(range(n))])
        start += length
    distinct, inverse = np.unique(
        np.asarray(windows, dtype=np.intp).reshape(-1, n), axis=0, return_inverse=True
    )
    names = tuple(vocabulary) + (BOT,)
    contexts = [tuple(names[i] for i in row) for row in distinct.tolist()]
    return contexts, inverse.reshape(-1), np.asarray([c[-1] != MISSING for c in contexts], dtype=bool)


def evaluate_observations_reference(catalog, trace, diagnostics=None) -> np.ndarray:
    """One trace's observation matrix, evaluated on its own: n-gram
    contexts re-derived from its events, each table row by the smoothing
    formula from the table's stored dict form (``to_dict``, so not its
    in-memory layout), lifecycle durations by
    :func:`lifecycle_durations_reference` and view coordinates by
    :func:`view_coordinate`, and one ``responsibilities`` call per bank
    and trace. The neutral row 1/|labels| stands where a family's data is
    missing; bias is 1."""
    events = trace.events
    T, L = len(events), catalog.n_labels

    def symbol(ev, key):
        av = ev.attributes.get(key)
        return av.value if av is not None and av.kind == "string" else MISSING

    if catalog.time_models and diagnostics is not None:
        diagnostics.extend(
            f"trace {trace.case_id!r} event {t}: no timestamp, "
            "neutral time_view values used"
            for t, ev in enumerate(events)
            if ev.timestamp is None
        )
    durations: dict = {}
    if catalog.duration_models:
        for i, bank_key, seconds in lifecycle_durations_reference(
            [trace], catalog.lifecycle_steps
        ):
            if bank_key in catalog.duration_models:
                indices, xs = durations.setdefault(bank_key, ([], []))
                indices.append(i)
                xs.append(seconds)

    slots: dict = {}
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
            padded = [BOT] * (n - 1) + [symbol(ev, key) for ev in events]
            contexts = [tuple(padded[t : t + n]) for t in range(T)]
            live = [t for t in range(T) if contexts[t][-1] != MISSING]
            rows = multinoulli_rows_reference(table.to_dict(), [contexts[t] for t in live])
            for t, row in zip(live, rows):
                block[t] = row
        elif family == "time_view":
            indices = [t for t, ev in enumerate(events) if ev.timestamp is not None]
            xs = [view_coordinate(view, events[t].timestamp) for t in indices]
            block[indices] = catalog.time_models[view].responsibilities(xs)
        else:  # lifecycle_duration
            for bank_key, (indices, xs) in durations.items():
                if bank_key[1] == step:
                    block[indices] = catalog.duration_models[bank_key].responsibilities(xs)
    return blocks.reshape(T, len(slots) * L)[:, columns]


# --- XES: the ElementTree writer and the plain parse walk -----------------


def to_utc_ms_reference(dt: datetime) -> datetime:
    """A datetime as UTC, truncated to the millisecond; naive is UTC."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=(dt.microsecond // 1000) * 1000)


def _timestamp_reference(text: str) -> datetime:
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    s = re.sub(r"\.(\d+)", lambda m: "." + m.group(1)[:6].ljust(6, "0"), s, count=1)
    try:
        dt = datetime.fromisoformat(s)
    except ValueError as exc:
        raise XesValueError(f"unparseable timestamp {text!r}") from exc
    return to_utc_ms_reference(dt)


def _attribute_element_reference(key: str, av) -> ET.Element:
    if av.kind == "date":
        raw = to_utc_ms_reference(av.value).isoformat(timespec="milliseconds")
    elif av.kind == "boolean":
        raw = "true" if av.value else "false"
    else:
        raw = repr(av.value) if av.kind == "float" else str(av.value)
    el = ET.Element(av.kind, {"key": key, "value": raw})
    for child_key, child_value in av.children:
        el.append(_attribute_element_reference(child_key, child_value))
    return el


def serialize_xes_reference(log: EventLog) -> bytes:
    """The log as an ElementTree, indented by ``ET.indent`` and written by
    ElementTree's own writer, with a trailing newline."""
    root = ET.Element("log", {"xes.version": "1.0", "xes.features": ""})
    for name in sorted(log.extensions):
        prefix, uri = _STANDARD_EXTENSIONS.get(
            name, (name.lower(), f"http://www.xes-standard.org/{name.lower()}.xesext")
        )
        ET.SubElement(root, "extension", {"name": name, "prefix": prefix, "uri": uri})
    for scope, attrs in (
        ("trace", log.global_trace_attributes),
        ("event", log.global_event_attributes),
    ):
        if attrs:
            g = ET.SubElement(root, "global", {"scope": scope})
            for key, av in attrs.items():
                g.append(_attribute_element_reference(key, av))
    for name, keys in log.classifiers.items():
        quoted = " ".join(
            f"'{k}'" if not k or k[0] == "'" or any(c.isspace() for c in k) else k
            for k in keys
        )
        ET.SubElement(root, "classifier", {"name": name, "keys": quoted})
    for key, av in log.attributes.items():
        root.append(_attribute_element_reference(key, av))
    for trace in log.traces:
        tr = ET.SubElement(root, "trace")
        for key, av in trace.attributes.items():
            tr.append(_attribute_element_reference(key, av))
        for event in trace.events:
            ev = ET.SubElement(tr, "event")
            for key, av in event.attributes.items():
                ev.append(_attribute_element_reference(key, av))
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    buf = io.BytesIO()
    tree.write(buf, encoding="utf-8", xml_declaration=True)
    buf.write(b"\n")
    return buf.getvalue()


_ATTR_TAGS = {"string", "date", "int", "float", "boolean", "id", "list", "container"}


def _local_reference(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _attribute_reference(el: ET.Element) -> tuple[str, AttributeValue]:
    tag = _local_reference(el.tag)
    key = canonical_key(el.attrib.get("key", ""))
    raw = el.attrib.get("value", "")
    nested = []
    for child in el:
        child_tag = _local_reference(child.tag)
        if child_tag in _ATTR_TAGS:
            nested.append(child)
        elif child_tag == "values" and tag == "list":
            nested += [item for item in child if _local_reference(item.tag) in _ATTR_TAGS]
    children = tuple(_attribute_reference(child) for child in nested)
    try:
        if tag == "string" or tag == "id":
            value = AttributeValue("string", raw, children)
        elif tag == "date":
            value = AttributeValue("date", _timestamp_reference(raw), children)
        elif tag == "int":
            value = AttributeValue("int", int(raw), children)
        elif tag == "float":
            value = AttributeValue("float", float(raw), children)
        elif tag == "boolean":
            value = AttributeValue("boolean", raw.strip().lower() == "true", children)
        else:
            value = AttributeValue("string", "", children)
    except (ValueError, XesValueError) as exc:
        raise XesValueError(f"attribute {key!r}: {exc}") from exc
    return key, value


def _attributes_reference(el: ET.Element) -> dict:
    return dict(
        _attribute_reference(child)
        for child in el
        if _local_reference(child.tag) in _ATTR_TAGS
    )


def parse_xes_reference(data: bytes) -> EventLog:
    """Parse XES bytes by a plain walk over ``ET.parse``'s tree: every
    attribute element read on its own, every timestamp through the general
    ISO-8601 path. A list's items are those in its ``<values>`` element."""
    try:
        root = ET.parse(io.BytesIO(data)).getroot()
    except ET.ParseError as exc:
        line, col = exc.position
        raise XesParseError(f"malformed XML at line {line}, column {col}: {exc.msg}") from exc
    if _local_reference(root.tag) != "log":
        raise XesParseError(
            f"expected <log> root element, got <{_local_reference(root.tag)}>"
        )
    parts: dict = {
        "attributes": {}, "extensions": set(), "classifiers": {},
        "global_trace_attributes": {}, "global_event_attributes": {}, "traces": [],
    }
    for el in root:
        tag = _local_reference(el.tag)
        if tag == "extension":
            parts["extensions"].add(el.attrib.get("name", ""))
        elif tag == "global":
            scope = el.attrib.get("scope", "event")
            target = "global_trace_attributes" if scope == "trace" else "global_event_attributes"
            parts[target].update(_attributes_reference(el))
        elif tag == "classifier":
            parts["classifiers"][el.attrib.get("name", "")] = tuple(
                canonical_key(m.group(1) if m.group(2) is None else m.group(2))
                for m in re.finditer(r"'([^']*)'|(\S+)", el.attrib.get("keys", ""))
            )
        elif tag == "trace":
            events = [
                Event(_attributes_reference(child))
                for child in el if _local_reference(child.tag) == "event"
            ]
            parts["traces"].append(Trace(_attributes_reference(el), events))
        elif tag in _ATTR_TAGS:
            key, value = _attribute_reference(el)
            parts["attributes"][key] = value
    return EventLog(**parts)
