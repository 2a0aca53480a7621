"""Orthant-Wise Limited-memory Quasi-Newton minimization of
``smooth_loss(x) + C * ||x||_1``.

With ``C == 0`` the method is plain L-BFGS with a backtracking Armijo line
search. With ``C > 0`` the subgradient at zero coordinates is resolved by
the pseudo-gradient, quasi-Newton directions are projected onto the
steepest-descent pseudo-gradient's sign pattern, and every line-search
point is constrained to the orthant picked at the start of the iteration,
so coordinates crossing zero land exactly on it. The composite objective
never increases across accepted steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OwlqnConfig", "OwlqnResult", "OptimizationError", "minimize"]

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


class OptimizationError(Exception):
    """The objective produced a non-finite value or gradient at the start
    point."""


# stationarity threshold on the pseudo-gradient, relative to max(1, |x|_max)
GRADIENT_TOLERANCE = 1e-12
# Armijo line search: required fraction of the predicted decrease, step
# shrink factor per rejected trial, and trials before the search fails
SUFFICIENT_DECREASE = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_LINE_SEARCH_TRIALS = 50


@dataclass(frozen=True)
class OwlqnConfig:
    memory: int = 10
    l1_coefficient: float = 0.0
    max_iterations: int = 500
    tolerance: float = 1e-7

    def __post_init__(self) -> None:
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if self.l1_coefficient < 0:
            raise ValueError("l1_coefficient must be non-negative")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class OwlqnResult:
    objective: float
    iterations: int
    converged: bool
    line_search_failed: bool
    nonzero: int
    evaluations: int


def _pseudo_gradient(x: np.ndarray, grad: np.ndarray, c: float) -> np.ndarray:
    pg = np.where(x > 0, grad + c, np.where(x < 0, grad - c, 0.0))
    at_zero = x == 0
    right = grad + c
    left = grad - c
    pg = np.where(at_zero & (right < 0), right, pg)
    pg = np.where(at_zero & (left > 0), left, pg)
    return pg


def _two_loop_direction(
    pg: np.ndarray,
    s_hist: deque[np.ndarray],
    y_hist: deque[np.ndarray],
    rho_hist: deque[float],
) -> np.ndarray:
    d = -pg.copy()
    if not s_hist:
        return d
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ d)
        alphas.append(a)
        d -= a * y
    s_last, y_last = s_hist[-1], y_hist[-1]
    d *= float(s_last @ y_last) / float(y_last @ y_last)
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(y @ d)
        d += (a - b) * s
    return d


def minimize(
    objective: Objective,
    dim: int,
    config: OwlqnConfig = OwlqnConfig(),
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, OwlqnResult]:
    """Minimize ``objective``'s smooth part plus the configured L1 penalty.

    ``objective(x)`` must return the smooth loss value and its gradient.
    Returns the weight vector and run diagnostics; fully deterministic.
    Raises :class:`OptimizationError` if the value or gradient at the start
    point is non-finite. A line-search trial with a non-finite value or
    gradient counts as an evaluation and is rejected, so the step
    backtracks; a failed line search terminates with the best iterate and
    a diagnostic flag.
    """
    c = config.l1_coefficient
    x = np.zeros(dim) if initial is None else np.asarray(initial, dtype=float).copy()
    if x.shape != (dim,):
        raise ValueError(f"initial point has shape {x.shape}, expected ({dim},)")

    evaluations = 0

    def evaluate(point: np.ndarray) -> tuple[float, np.ndarray, float] | None:
        """Value, gradient and composite, or None where any is non-finite."""
        nonlocal evaluations
        evaluations += 1
        value, grad = objective(point)
        grad = np.asarray(grad, dtype=float)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            return None
        return value, grad, value + c * float(np.abs(point).sum())

    start = evaluate(x)
    if start is None:
        raise OptimizationError(
            f"non-finite objective or gradient at the start point with "
            f"|x|_max={np.max(np.abs(x)):.3e}"
        )
    f, g, composite = start
    best_x, best_composite = x.copy(), composite
    history = [composite]
    s_hist: deque[np.ndarray] = deque(maxlen=config.memory)
    y_hist: deque[np.ndarray] = deque(maxlen=config.memory)
    rho_hist: deque[float] = deque(maxlen=config.memory)

    converged = False
    line_search_failed = False
    iterations = 0

    for iterations in range(1, config.max_iterations + 1):
        pg = _pseudo_gradient(x, g, c)
        # stationarity: no orthant direction can decrease the composite
        if np.max(np.abs(pg)) <= GRADIENT_TOLERANCE * max(
            1.0, float(np.max(np.abs(x)))
        ):
            converged = True
            break
        d = _two_loop_direction(pg, s_hist, y_hist, rho_hist)
        if c > 0:
            d = np.where(d * -pg > 0, d, 0.0)
            if not np.any(d):
                converged = True
                break
            orthant = np.where(x != 0, np.sign(x), np.sign(-pg))

        step = 1.0 if s_hist else min(1.0, 1.0 / float(np.linalg.norm(d)))
        accepted = False
        for _ in range(MAX_LINE_SEARCH_TRIALS):
            x_new = x + step * d
            if c > 0:
                x_new = np.where(x_new * orthant > 0, x_new, 0.0)
            trial = evaluate(x_new)
            if trial is not None:
                f_new, g_new, composite_new = trial
                gain = float(pg @ (x_new - x))
                if composite_new <= composite + SUFFICIENT_DECREASE * gain and gain < 0:
                    accepted = True
                    break
            step *= BACKTRACK_FACTOR
        if not accepted:
            line_search_failed = True
            break

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10:
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)

        x, f, g, composite = x_new, f_new, g_new, composite_new
        history.append(composite)
        if composite < best_composite:
            best_x, best_composite = x.copy(), composite

        if len(history) > 5:
            window = history[-6:]
            scale = max(abs(window[-1]), 1e-12)
            if (window[0] - window[-1]) / (5.0 * scale) < config.tolerance:
                converged = True
                break

    result = OwlqnResult(
        objective=best_composite,
        iterations=iterations,
        converged=converged,
        line_search_failed=line_search_failed,
        nonzero=int(np.count_nonzero(best_x)),
        evaluations=evaluations,
    )
    return best_x, result
