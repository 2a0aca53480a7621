"""Orthant-Wise Limited-memory Quasi-Newton minimization of
``smooth_loss(x) + C * ||x||_1``. ``C`` is an argument of :func:`minimize`;
:class:`OwlqnConfig` holds only the iteration cap, a positive ``int``, and
the tolerance, positive and finite; other values raise ``ValueError``.

With ``C == 0`` the method is plain L-BFGS with a backtracking Armijo line
search. With ``C > 0`` the subgradient at zero coordinates is resolved by
the pseudo-gradient, and every line-search point is constrained to the
orthant picked at the start of the iteration, so coordinates crossing zero
land exactly on it. Three rules shape the direction:

- At zero coordinates the quasi-Newton direction keeps only the components
  whose sign agrees with the steepest-descent pseudo-gradient's. At nonzero
  coordinates it is kept whole: the orthant constraint already stops sign
  crossings there, and zeroing those components would throw away the
  curvature correction.
- A zero coordinate whose pseudo-gradient is zero stays at zero for the
  iteration, so the L-BFGS curvature pairs are restricted to the other
  coordinates. The step then follows the curvature of the free block, not
  the free block of the inverse Hessian, which differ wherever held
  coordinates are correlated with free ones.
- A direction that is not a descent direction for the pseudo-gradient
  falls back to steepest descent (Gong & Ye, ICML 2015).

Accepted steps strictly lower the composite objective. A run ends for one
of four reasons, recorded as ``OwlqnResult.stop``: ``"stationary"`` (the
pseudo-gradient vanishes), ``"stalled"`` (the composite fell by less than
``tolerance`` relative per iteration over the last five iterations),
``"iteration_cap"`` or ``"line_search_failed"``. ``converged`` counts the
first two.

The method is written once, as a generator (``_iterate``): it yields
each point it needs evaluated and receives the point's value and a
zero-argument gradient provider, which it calls only at the start point
and at line-search trials whose value passes the Armijo test. A trial that
passes but whose gradient is not finite is rejected, so iterates and
counts are those of an optimizer given every gradient. One driver,
:func:`minimize_lockstep`, advances several runs: each round it collects
the one pending point of every live run and evaluates them all with a
single call, so a caller that can evaluate many problems in one pass (the
CRF's folds of a cross-validation) pays for one pass per round, and for
one gradient pass only in rounds where some run asks. :func:`minimize` is
that driver on one problem. A run's points and results do not depend on
the runs beside it, so each problem's outcome equals :func:`minimize` on
it alone, bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import EventabsError, InputError

__all__ = [
    "OwlqnConfig",
    "OwlqnResult",
    "OptimizationError",
    "minimize",
    "minimize_lockstep",
]

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]
# a point's value and the provider of its gradient
Evaluation = tuple[float, Callable[[], np.ndarray]]
# the objective of several problems: their indices and pending points in,
# one evaluation per point out
GroupObjective = Callable[[list[int], list[np.ndarray]], list[Evaluation]]
Run = Generator[np.ndarray, Evaluation, tuple[np.ndarray, "OwlqnResult"]]


class OptimizationError(EventabsError):
    """The objective produced a non-finite value or gradient at the start
    point."""


# stationarity threshold on the pseudo-gradient, relative to max(1, |x|_max)
GRADIENT_TOLERANCE = 1e-12
# Armijo line search: required fraction of the predicted decrease, step
# shrink factor per rejected trial, and trials before the search fails
SUFFICIENT_DECREASE = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_LINE_SEARCH_TRIALS = 50
# least s.y for a curvature pair to enter the L-BFGS update
CURVATURE_FLOOR = 1e-10
# curvature pairs the L-BFGS update keeps
MEMORY = 10


@dataclass(frozen=True)
class OwlqnConfig:
    max_iterations: int = 500
    tolerance: float = 1e-7

    def __post_init__(self) -> None:
        # isinstance counts a bool as an int; True is no iteration cap
        cap = self.max_iterations
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            raise InputError(f"max_iterations must be a positive integer, got {cap!r}")
        if not 0 < self.tolerance < np.inf:
            raise InputError(f"tolerance must be positive and finite, got {self.tolerance!r}")


@dataclass
class OwlqnResult:
    objective: float
    iterations: int
    nonzero: int
    evaluations: int
    stop: str  # "stationary", "stalled", "iteration_cap" or "line_search_failed"

    @property
    def converged(self) -> bool:
        return self.stop in ("stationary", "stalled")

    @property
    def line_search_failed(self) -> bool:
        return self.stop == "line_search_failed"


def _pseudo_gradient(sign: np.ndarray, grad: np.ndarray, c: float) -> np.ndarray:
    """The pseudo-gradient at a point whose coordinates have signs
    ``sign`` (``np.sign(x)``): ``grad + c`` where x > 0 and ``grad - c``
    where x < 0; at zero, ``grad + c`` where that is negative, ``grad - c``
    where that is positive, else 0. Two selections: the left value where x
    < 0 or (x == 0 and left > 0), else the right value where x > 0 or (x ==
    0 and right < 0), else 0."""
    right = grad + c
    left = grad - c
    return np.where(sign < (left > 0), left, np.where((right < 0) > -sign, right, 0.0))


def _restrict(
    s: np.ndarray, y: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """A stored pair restricted to the ``free`` coordinates, and its
    curvature ``s . y`` there."""
    s, y = s * free, y * free
    return s, y, float(s @ y)


def _two_loop_direction(
    pg: np.ndarray, restricted: Sequence[tuple[np.ndarray, np.ndarray, float]]
) -> np.ndarray:
    """The L-BFGS direction ``-H pg``, with ``H`` built from the stored
    pairs restricted to the free coordinates (:func:`_restrict`, oldest
    first), so that it approximates the inverse of the Hessian's free block
    rather than the free block of the inverse Hessian. A pair without
    positive curvature on the free coordinates is skipped."""
    usable = [(s, y, sy, 1.0 / sy) for s, y, sy in restricted if sy > CURVATURE_FLOOR]
    d = -pg
    if not usable:
        return d
    alphas = []
    for s, y, _, rho in reversed(usable):
        a = rho * float(s @ d)
        alphas.append(a)
        d -= a * y
    _, y_last, sy_last, _ = usable[-1]
    d *= sy_last / float(y_last @ y_last)
    for (s, y, _, rho), a in zip(usable, reversed(alphas)):
        b = rho * float(y @ d)
        d += (a - b) * s
    return d


def _iterate(
    dim: int,
    config: OwlqnConfig = OwlqnConfig(),
    initial: np.ndarray | None = None,
    l1_coefficient: float = 0.0,
) -> Run:
    """One OWL-QN run as a generator: yields every point to evaluate, is
    sent the point's smooth loss value and a provider of its gradient, and
    returns the weight vector and run diagnostics (see :func:`minimize`).
    The provider is called at the start point if its value is finite, and
    at a trial only if its value passes the Armijo test."""
    if l1_coefficient < 0:
        raise ValueError("l1_coefficient must be non-negative")
    c = l1_coefficient
    x = np.zeros(dim) if initial is None else np.asarray(initial, dtype=float).copy()
    if x.shape != (dim,):
        raise ValueError(f"initial point has shape {x.shape}, expected ({dim},)")

    evaluations = 1
    value, gradient = yield x
    g = np.asarray(gradient(), dtype=float) if math.isfinite(value) else None
    if g is None or not np.isfinite(g).all():
        raise OptimizationError(
            f"non-finite objective or gradient at the start point with "
            f"|x|_max={np.max(np.abs(x)):.3e}"
        )
    composite = value + c * float(np.abs(x).sum())
    # composites of the last six iterates, for the relative-decrease window
    recent: deque[float] = deque([composite], maxlen=6)
    pairs: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=MEMORY)
    # the pairs restricted to the free set of the last direction, whose
    # bytes are ``free_key``: rebuilt when the free set changes, extended
    # as pairs are stored
    restricted: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
    free = np.ones(dim, dtype=bool)
    free_key = None

    stop = "iteration_cap"
    iterations = 0

    for iterations in range(1, config.max_iterations + 1):
        sign = np.sign(x)
        pg = _pseudo_gradient(sign, g, c)
        # stationarity: no orthant direction can decrease the composite
        if np.abs(pg).max() <= GRADIENT_TOLERANCE * max(1.0, float(np.abs(x).max())):
            stop = "stationary"
            break
        neg = -pg
        if c > 0:
            # a zero coordinate where pg is zero stays at zero this
            # iteration, so the curvature model leaves it out
            nonzero = sign != 0
            free = nonzero | (pg != 0)
        if free.tobytes() != free_key:
            restricted = deque((_restrict(s, y, free) for s, y in pairs), maxlen=MEMORY)
            free_key = free.tobytes()
        d = _two_loop_direction(pg, restricted)
        if c > 0:
            # a zero coordinate may leave zero only along -pg
            d = np.where(nonzero | (d * neg > 0), d, 0.0)
            orthant = np.where(nonzero, sign, np.sign(neg))
        if float(pg @ d) >= 0:
            d = neg

        step = 1.0 if pairs else min(1.0, 1.0 / float(np.linalg.norm(d)))
        accepted = False
        for _ in range(MAX_LINE_SEARCH_TRIALS):
            x_new = x + step * d
            if c > 0:
                x_new = np.where(x_new * orthant > 0, x_new, 0.0)
            evaluations += 1
            value, gradient = yield x_new
            if math.isfinite(value):
                composite_new = value + c * float(np.abs(x_new).sum())
                s = x_new - x
                gain = float(pg @ s)
                # the value test first: a rejected trial's gradient is never asked for
                if composite_new <= composite + SUFFICIENT_DECREASE * gain and gain < 0:
                    g_new = np.asarray(gradient(), dtype=float)
                    if np.isfinite(g_new).all():
                        accepted = True
                        break
            step *= BACKTRACK_FACTOR
        if not accepted:
            stop = "line_search_failed"
            break

        y = g_new - g
        if float(s @ y) > CURVATURE_FLOOR:
            pairs.append((s, y))
            restricted.append(_restrict(s, y, free))

        x, g, composite = x_new, g_new, composite_new
        recent.append(composite)
        if len(recent) == recent.maxlen:
            scale = max(abs(composite), 1e-12)
            if (recent[0] - composite) / (5.0 * scale) < config.tolerance:
                stop = "stalled"
                break

    result = OwlqnResult(
        objective=composite,
        iterations=iterations,
        nonzero=int(np.count_nonzero(x)),
        evaluations=evaluations,
        stop=stop,
    )
    return x, result


def minimize(
    objective: Objective,
    dim: int,
    config: OwlqnConfig = OwlqnConfig(),
    initial: np.ndarray | None = None,
    l1_coefficient: float = 0.0,
) -> tuple[np.ndarray, OwlqnResult]:
    """Minimize ``objective``'s smooth part plus ``l1_coefficient *
    ||x||_1``, starting from ``initial`` (default zero): a
    :func:`minimize_lockstep` run of this one problem.

    ``objective(x)`` must return the smooth loss value and its gradient;
    the run reads the gradient only at the start point and at trials whose
    value passes the Armijo test. Returns the weight vector and run
    diagnostics; fully deterministic. Raises :class:`OptimizationError` if the value or
    gradient at the start point is non-finite. A line-search trial with a
    non-finite value or gradient counts as an evaluation and is rejected,
    so the step backtracks; a failed line search ends the run at the last
    accepted iterate with ``stop == "line_search_failed"``.
    """

    def evaluate(_, points: list[np.ndarray]) -> list[Evaluation]:
        value, gradient = objective(points[0])
        return [(value, lambda: gradient)]

    [outcome] = minimize_lockstep(evaluate, [dim], config, [initial], l1_coefficient)
    if isinstance(outcome, OptimizationError):
        raise outcome
    return outcome


def minimize_lockstep(
    objective: GroupObjective,
    dims: Sequence[int],
    config: OwlqnConfig = OwlqnConfig(),
    initials: Sequence[np.ndarray | None] | None = None,
    l1_coefficient: float = 0.0,
) -> list[tuple[np.ndarray, OwlqnResult] | OptimizationError]:
    """Minimize one problem per entry of ``dims`` (from ``initials``, one
    entry per problem, default zero each) in lockstep rounds. Each round
    calls ``objective(problems, points)`` once, with the indices of the
    problems still running, in increasing order, and the point each needs
    evaluated; it must return, in the same order, each point's value and a
    zero-argument provider of its gradient. A run calls its provider, at
    most once, before the next round, and only at its start point and at a
    trial whose value passes the Armijo test, so an objective can defer its
    gradient work until some problem of the round asks. A finished problem
    is not passed again.

    Returns, per problem, what :func:`minimize` would on that problem
    alone: the weight vector and diagnostics, equal bit for bit, or the
    :class:`OptimizationError` it would raise, in which case the other
    problems run on. Raises ``ValueError`` if ``initials`` does not hold
    one entry per problem.
    """
    if initials is not None and len(initials) != len(dims):
        raise ValueError(f"{len(initials)} initial points for {len(dims)} problems")
    runs = [
        _iterate(dim, config, None if initials is None else initials[i], l1_coefficient)
        for i, dim in enumerate(dims)
    ]
    outcomes: list = [None] * len(runs)
    pending: dict[int, np.ndarray] = {}

    def advance(i: int, evaluated: Evaluation | None) -> None:
        try:
            pending[i] = runs[i].send(evaluated)
        except StopIteration as done:
            outcomes[i] = done.value
        except OptimizationError as error:
            outcomes[i] = error

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        live = sorted(pending)
        results = objective(live, [pending.pop(i) for i in live])
        for i, result in zip(live, results):
            advance(i, result)
    return outcomes
