"""Optimizer checks against closed-form solutions and SciPy's L-BFGS-B."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventabs.owlqn import (
    OptimizationError,
    OwlqnConfig,
    _pseudo_gradient,
    _restrict,
    _two_loop_direction,
    minimize,
    minimize_lockstep,
)

from oracles import (
    l1_lbfgsb_reference,
    owlqn_reference,
    pseudo_gradient_reference,
    two_loop_direction_reference,
)


def soft_threshold(b: np.ndarray, c: float) -> np.ndarray:
    return np.sign(b) * np.maximum(np.abs(b) - c, 0.0)


def shifted_quadratic(b: np.ndarray):
    def objective(x: np.ndarray):
        d = x - b
        return 0.5 * float(d @ d), d
    return objective


def spd_quadratic(a: np.ndarray, b: np.ndarray):
    def objective(x: np.ndarray):
        return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b
    return objective


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(0, 1, (dim, dim))
    return m @ m.T + dim * np.eye(dim)


def ill_conditioned_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random rotation of eigenvalues log-spaced from 1e-2 to 10."""
    q, _ = np.linalg.qr(rng.normal(0, 1, (dim, dim)))
    return (q * np.logspace(-2, 1, dim)) @ q.T


class TestSoftThreshold:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(5, 40))
        b = rng.normal(0, 2, dim)
        c = float(rng.uniform(0.05, 1.5))
        x, result = minimize(
            shifted_quadratic(b), dim, l1_coefficient=c
        )
        assert np.abs(x - soft_threshold(b, c)).max() < 1e-6
        assert result.converged

    def test_dominating_penalty_returns_exact_zero(self):
        b = np.array([0.5, -1.0, 2.0])
        x, result = minimize(
            shifted_quadratic(b), 3, l1_coefficient=100.0
        )
        assert np.array_equal(x, np.zeros(3))
        assert result.nonzero == 0

    def test_zero_count_monotone_in_penalty(self):
        rng = np.random.default_rng(11)
        b = rng.normal(0, 1, 40)
        previous_zeros = -1
        for c in [0.01, 0.1, 0.3, 0.6, 1.0, 2.0]:
            x, _ = minimize(shifted_quadratic(b), 40, l1_coefficient=c)
            zeros = int(np.sum(x == 0.0))
            assert zeros >= previous_zeros
            assert zeros == int(np.sum(np.abs(b) <= c))
            previous_zeros = zeros


class TestUnpenalized:
    @pytest.mark.parametrize("seed", range(5))
    def test_spd_quadratic_matches_direct_solve(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 6))
        a = random_spd(rng, dim)
        b = rng.normal(0, 1, dim)
        x, result = minimize(spd_quadratic(a, b), dim, OwlqnConfig())
        assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-6

    def test_reduces_objective_from_initial(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 8)
        b = rng.normal(0, 1, 8)
        x0 = rng.normal(0, 3, 8)
        objective = spd_quadratic(a, b)
        x, result = minimize(objective, 8, OwlqnConfig(), initial=x0)
        assert result.objective <= objective(x0)[0]


class TestContracts:
    def test_composite_objective_never_exceeds_initial(self):
        rng = np.random.default_rng(21)
        b = rng.normal(0, 2, 25)
        c = 0.4
        objective = shifted_quadratic(b)
        x0 = rng.normal(0, 2, 25)
        x, result = minimize(
            objective, 25, initial=x0, l1_coefficient=c
        )
        initial_composite = objective(x0)[0] + c * np.abs(x0).sum()
        assert result.objective <= initial_composite + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        b = rng.normal(0, 1, 30)
        x1, _ = minimize(shifted_quadratic(b), 30, l1_coefficient=0.2)
        x2, _ = minimize(shifted_quadratic(b), 30, l1_coefficient=0.2)
        assert np.array_equal(x1, x2)

    def test_non_finite_objective_raises(self):
        def bad(x):
            return float("nan"), np.zeros(3)

        with pytest.raises(OptimizationError, match="non-finite"):
            minimize(bad, 3, OwlqnConfig())

    def test_non_finite_gradient_raises(self):
        def bad(x):
            g = np.zeros(3)
            g[0] = np.inf
            return 0.0, g

        with pytest.raises(OptimizationError):
            minimize(bad, 3, OwlqnConfig())

    def test_non_finite_trial_backtracks(self):
        # the first step has unit length (the gradient at 0 is longer than 1)
        # and lands outside the ball where the objective is finite
        b = np.array([0.2, -0.1, 0.2])  # |b| = 0.3, so the start is inside
        calls, rejected = [], []

        def walled(x):
            calls.append(1)
            d = x - b
            if float(d @ d) > 0.5**2:
                rejected.append(1)
                return float("inf"), np.full(3, np.nan)
            return 5.0 * float(d @ d), 10.0 * d

        x, result = minimize(walled, 3, OwlqnConfig())
        assert rejected
        assert result.evaluations == len(calls)
        assert not result.line_search_failed
        assert np.allclose(x, b, atol=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            minimize(shifted_quadratic(np.zeros(2)), 2, l1_coefficient=-1.0)
        with pytest.raises(ValueError):
            OwlqnConfig(tolerance=0.0)

    @pytest.mark.parametrize("cap", [-5, 0, 2.5, True, "500"])
    def test_iteration_cap_must_be_a_positive_integer(self, cap):
        with pytest.raises(ValueError, match="max_iterations must be a positive integer"):
            OwlqnConfig(max_iterations=cap)

    @pytest.mark.parametrize("tolerance", [-1e-7, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            OwlqnConfig(tolerance=tolerance)

    def test_iteration_cap_respected(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 30)
        b = rng.normal(0, 1, 30)
        _, result = minimize(
            spd_quadratic(a, b), 30, OwlqnConfig(max_iterations=3)
        )
        assert result.iterations <= 3


class TestStop:
    def test_stationary(self):
        # the penalty dominates the gradient at 0, so pg vanishes at once
        _, result = minimize(
            shifted_quadratic(np.array([0.5, -1.0])), 2, l1_coefficient=100.0
        )
        assert result.stop == "stationary"
        assert result.converged and not result.line_search_failed
        assert (result.iterations, result.evaluations) == (1, 1)

    def test_stalled(self):
        rng = np.random.default_rng(41)
        a = ill_conditioned_spd(rng, 10)
        _, result = minimize(spd_quadratic(a, rng.normal(0, 1, 10)), 10, OwlqnConfig())
        assert result.stop == "stalled"
        assert result.converged and not result.line_search_failed
        assert result.iterations < OwlqnConfig().max_iterations

    def test_iteration_cap(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 30)
        _, result = minimize(
            spd_quadratic(a, rng.normal(0, 1, 30)), 30, OwlqnConfig(max_iterations=3)
        )
        assert result.stop == "iteration_cap"
        assert not result.converged and not result.line_search_failed
        assert result.iterations == 3

    def test_line_search_failed(self):
        b = np.array([1.0, -2.0, 0.5])

        def wrong_sign(x):
            d = x - b
            return 0.5 * float(d @ d), -d

        x, result = minimize(wrong_sign, 3, l1_coefficient=0.1)
        assert result.stop == "line_search_failed"
        assert result.line_search_failed and not result.converged
        assert np.array_equal(x, np.zeros(3))
        assert result.evaluations == 51  # the start point and 50 trials


class TestFixedOrthant:
    @pytest.mark.parametrize("seed", range(4))
    def test_l1_needs_no_more_iterations_than_without_it(self, seed):
        # x* has no zero coordinate and the fit starts in its orthant; there
        # the L1 term is linear, so OWL-QN should take L-BFGS's steps
        rng = np.random.default_rng(500 + seed)
        dim, c = 10, 0.5
        a = ill_conditioned_spd(rng, dim)
        x_star = rng.choice([-1.0, 1.0], dim) * rng.uniform(1, 2, dim)
        signs = np.sign(x_star)
        x, penalized = minimize(
            spd_quadratic(a, a @ x_star + c * signs), dim,
            OwlqnConfig(tolerance=1e-10), initial=signs, l1_coefficient=c,
        )
        _, smooth = minimize(
            spd_quadratic(a, a @ x_star), dim, OwlqnConfig(tolerance=1e-10), initial=signs
        )
        assert np.array_equal(np.sign(x), signs)
        assert penalized.iterations <= smooth.iterations + 3
        assert np.abs(x - x_star).max() < 1e-3


class TestAgainstLbfgsb:
    def test_reference_matches_closed_form(self):
        rng = np.random.default_rng(299)
        b = rng.normal(0, 2, 20)
        c = 0.7
        w, composite = l1_lbfgsb_reference(shifted_quadratic(b), 20, c)
        expected = soft_threshold(b, c)
        assert np.abs(w - expected).max() < 1e-6
        assert composite == pytest.approx(
            shifted_quadratic(b)(expected)[0] + c * np.abs(expected).sum(), rel=1e-10
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_quadratic_composite_matches_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        dim = int(rng.integers(5, 30))
        m = rng.normal(0, 1, (dim, dim))
        objective = spd_quadratic(m @ m.T + 0.1 * np.eye(dim), rng.normal(0, 3, dim))
        c = float(rng.uniform(0.1, 2.0))
        _, result = minimize(objective, dim, l1_coefficient=c)
        _, reference = l1_lbfgsb_reference(objective, dim, c)
        assert result.objective <= reference + 1e-6 * max(1.0, abs(reference))


class TestHeldAtZero:
    @pytest.mark.parametrize("seed", range(5))
    def test_needs_no_more_iterations_than_lbfgs_on_the_free_block(self, seed):
        # the last six coordinates are near-copies of the first six and stay
        # at zero with |gradient| < C/2 from a start near x*; OWL-QN should
        # step with the curvature of the free block alone, as L-BFGS on that
        # block does, not with the free block of the inverse Hessian
        rng = np.random.default_rng(600 + seed)
        n_free, c = 6, 1.0
        base = rng.normal(0, 1, (40, n_free))
        features = np.hstack([base, base + 0.1 * rng.normal(0, 1, (40, n_free))])
        a = features.T @ features / 40 + 1e-2 * np.eye(2 * n_free)
        x_star = np.zeros(2 * n_free)
        x_star[:n_free] = rng.choice([-1.0, 1.0], n_free) * rng.uniform(1, 2, n_free)
        signs = np.sign(x_star[:n_free])
        grad_star = np.concatenate([-c * signs, rng.uniform(-0.25, 0.25, n_free) * c])
        b = a @ x_star - grad_star
        delta = rng.normal(0, 1, n_free)
        delta *= 0.25 * c / np.abs(a[n_free:, :n_free] @ delta).max()
        start = np.concatenate([x_star[:n_free] + delta, np.zeros(n_free)])
        x, penalized = minimize(
            spd_quadratic(a, b), 2 * n_free,
            OwlqnConfig(tolerance=1e-10), initial=start, l1_coefficient=c,
        )
        _, free_block = minimize(
            spd_quadratic(a[:n_free, :n_free], b[:n_free] - c * signs), n_free,
            OwlqnConfig(tolerance=1e-10), initial=start[:n_free],
        )
        assert penalized.iterations <= free_block.iterations + 1
        assert np.abs(x - x_star).max() < 1e-6


class TestLockstep:
    """minimize_lockstep evaluates the pending points of all running
    problems with one call per round; every problem's outcome must equal
    minimize on it alone, bit for bit."""

    C = 0.05

    @staticmethod
    def walled(rejected: list):
        # finite only inside a ball around b, so the first unit step of the
        # line search lands on +inf and backtracks
        b = np.array([0.2, -0.1, 0.2])

        def objective(x):
            d = x - b
            if float(d @ d) > 0.5**2:
                rejected.append(1)
                return float("inf"), np.full(3, np.nan)
            return 5.0 * float(d @ d), 10.0 * d
        return objective

    def problems(self, rejected: list):
        """(objective, dim, initial) of six L1 quadratics."""
        rng = np.random.default_rng(71)

        def broken(x):
            return float("nan"), np.zeros(4)

        return [
            (spd_quadratic(random_spd(rng, 8), rng.normal(0, 1, 8)), 8, None),
            (spd_quadratic(ill_conditioned_spd(rng, 10), rng.normal(0, 1, 10)), 10, None),
            (self.walled(rejected), 3, None),
            (broken, 4, None),  # non-finite at the start point
            (shifted_quadratic(np.array([0.01, -0.02])), 2, None),  # stationary at once
            (shifted_quadratic(rng.normal(0, 2, 6)), 6, rng.normal(0, 2, 6)),
        ]

    def test_each_problem_matches_minimize_alone(self):
        rejected: list = []
        problems = self.problems(rejected)
        rounds: list[list[int]] = []

        def objective(indices, points):
            rounds.append(list(indices))
            evaluated = [problems[i][0](x) for i, x in zip(indices, points)]
            return [(value, lambda g=g: g) for value, g in evaluated]

        config = OwlqnConfig()
        outcomes = minimize_lockstep(
            objective, [dim for _, dim, _ in problems], config,
            [initial for *_, initial in problems], self.C,
        )
        assert rejected
        evaluations = []
        for (f, dim, initial), outcome in zip(problems, outcomes):
            try:
                x, result = minimize(f, dim, config, initial, self.C)
            except OptimizationError as error:
                assert isinstance(outcome, OptimizationError)
                assert str(outcome) == str(error)
                evaluations.append(1)
                continue
            lockstep_x, lockstep_result = outcome
            assert lockstep_x.tobytes() == x.tobytes()
            assert np.float64(lockstep_result.objective).tobytes() == np.float64(
                result.objective
            ).tobytes()
            assert (lockstep_result.iterations, lockstep_result.evaluations, lockstep_result.stop,
                    lockstep_result.nonzero) == (
                result.iterations, result.evaluations, result.stop, result.nonzero
            )
            evaluations.append(result.evaluations)
        # one evaluation per round while a problem runs, none after it ends
        assert [sum(i in r for r in rounds) for i in range(len(problems))] == evaluations
        assert len(rounds) == max(evaluations)
        assert all(r == sorted(r) for r in rounds)
        assert len(set(evaluations)) >= 4  # the problems stop in different rounds
        assert isinstance(outcomes[3], OptimizationError)

    def test_no_problems(self):
        assert minimize_lockstep(lambda indices, points: [], [], OwlqnConfig()) == []

    @pytest.mark.parametrize("initials", [[None], [None, None, None]])
    def test_initials_must_be_one_per_problem(self, initials):
        with pytest.raises(ValueError, match="initial points for 2 problems"):
            minimize_lockstep(lambda indices, points: [], [2, 3], OwlqnConfig(), initials)

    @staticmethod
    def nan_band():
        # a smooth quadratic whose gradient is NaN where 0.6 < x[0] < 0.8:
        # the first trial from zero, of unit length along (1, 1) for C up
        # to 0.5, lands there and passes the value test
        b = np.array([2.0, 2.0])

        def objective(x):
            d = x - b
            return 0.5 * float(d @ d), np.full(2, np.nan) if 0.6 < x[0] < 0.8 else d
        return objective

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        c=st.sampled_from([0.0, 0.05, 0.5]),
    )
    @example(seeds=[7, 15], c=0.05)
    @example(seeds=[1], c=0.0)
    def test_lazy_providers_equal_eager_minimize(self, seeds, c):
        """Runs asked for gradients through providers give the bits of
        eager minimize, and ask only at the start point and at trials whose
        value passes the Armijo test: each asked gradient either is not
        finite, and its trial is rejected, or its point is the next
        iterate, so a run asks once plus once per accepted step plus once
        per non-finite gradient, and ends at the last finite point asked."""
        problems = [l1_quadratic_run(seed)[:3] for seed in seeds]
        problems += [(self.walled([]), 3, None), (self.nan_band(), 2, None)]
        asked: list[list[tuple[np.ndarray, bool]]] = [[] for _ in problems]

        def objective(indices, points):
            evaluated = []
            for i, x in zip(indices, points):
                value, gradient = problems[i][0](x)

                def provider(i=i, x=x, gradient=gradient):
                    asked[i].append((x.copy(), bool(np.isfinite(gradient).all())))
                    return gradient
                evaluated.append((value, provider))
            return evaluated

        config = OwlqnConfig(max_iterations=60)
        outcomes = minimize_lockstep(
            objective, [dim for _, dim, _ in problems], config,
            [initial for *_, initial in problems], c,
        )
        for (f, dim, initial), outcome, calls in zip(problems, outcomes, asked):
            x, result = minimize(f, dim, config, initial, c)
            lazy_x, lazy = outcome
            assert lazy_x.tobytes() == x.tobytes()
            assert np.float64(lazy.objective).tobytes() == np.float64(result.objective).tobytes()
            assert (lazy.iterations, lazy.evaluations, lazy.stop, lazy.nonzero) == (
                result.iterations, result.evaluations, result.stop, result.nonzero
            )
            # a run stops before its iteration's step unless it stalled or hit the cap
            accepted = result.iterations - (result.stop in ("stationary", "line_search_failed"))
            failed = sum(not finite for _, finite in calls)
            assert len(calls) == 1 + accepted + failed <= result.evaluations
            assert [point for point, finite in calls if finite][-1].tobytes() == x.tobytes()
        # the wall and the band reject trials: one on value, one on its gradient
        assert len(asked[-2]) < outcomes[-2][1].evaluations
        assert sum(not finite for _, finite in asked[-1]) >= 1


def l1_quadratic_run(seed: int):
    """(objective, dim, initial, C) of a random L1-penalized quadratic whose
    start has nonzero coordinates that the minimum holds at zero, so
    coordinates reach and leave zero along the run."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 13))
    a = ill_conditioned_spd(rng, dim) if seed % 2 else random_spd(rng, dim) / dim
    c = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
    initial = rng.normal(0, 1, dim) if rng.random() < 0.7 else None
    return spd_quadratic(a, rng.normal(0, 1, dim)), dim, initial, c


class TestAgainstReference:
    """The pseudo-gradient, the stored pairs restricted once per free set,
    and whole runs give the bits of the per-call references in
    ``oracles``, which restrict every pair anew at every iteration."""

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 12),
        c=st.sampled_from([0.0, 0.05, 1.0]) | st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=6, c=0.0, seed=0)
    @example(dim=6, c=1.0, seed=1)
    def test_pseudo_gradient(self, dim, c, seed):
        rng = np.random.default_rng(seed)
        # about half the coordinates at zero (some of them -0.0), and
        # gradients exactly +C, -C and 0 among random ones
        x = np.where(rng.random(dim) < 0.5, rng.normal(0, 1, dim), 0.0)
        x[rng.random(dim) < 0.1] = -0.0
        kind = rng.integers(0, 4, dim)
        grad = np.select(
            [kind == 0, kind == 1, kind == 2], [np.full(dim, c), np.full(dim, -c), np.zeros(dim)],
            rng.normal(0, c + 1.0, dim),
        )
        assert _pseudo_gradient(np.sign(x), grad, c).tobytes() == (
            pseudo_gradient_reference(x, grad, c).tobytes()
        )

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 12),
        n_pairs=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_loop_direction(self, dim, n_pairs, seed):
        rng = np.random.default_rng(seed)
        # some pairs have no positive curvature, on all or on the free
        # coordinates, and are skipped
        pairs = [(rng.normal(0, 1, dim), rng.normal(0.5, 1, dim)) for _ in range(n_pairs)]
        free = rng.random(dim) < 0.7
        pg = rng.normal(0, 1, dim) * free
        direction = _two_loop_direction(pg, [_restrict(s, y, free) for s, y in pairs])
        assert direction.tobytes() == two_loop_direction_reference(pg, pairs, free).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=7)
    @example(seed=15)
    def test_runs(self, seed):
        objective, dim, initial, c = l1_quadratic_run(seed)
        x, result = minimize(objective, dim, OwlqnConfig(max_iterations=60), initial, c)
        reference = owlqn_reference(objective, dim, 60, OwlqnConfig().tolerance, initial, c)
        assert x.tobytes() == reference[0].tobytes()
        assert np.float64(result.objective).tobytes() == np.float64(reference[1]).tobytes()
        assert (result.iterations, result.evaluations, result.stop) == reference[2:]

    @pytest.mark.parametrize("seed", [1, 4, 7, 13, 15])
    def test_runs_whose_free_set_changes(self, seed):
        # the free set changes between iterations on these runs, so the
        # restricted pairs are rebuilt mid-run
        objective, dim, initial, c = l1_quadratic_run(seed)
        free_sets: list[np.ndarray] = []
        reference = owlqn_reference(objective, dim, 60, OwlqnConfig().tolerance, initial, c, free_sets)
        assert sum(not np.array_equal(a, b) for a, b in zip(free_sets, free_sets[1:])) >= 2
        x, result = minimize(objective, dim, OwlqnConfig(max_iterations=60), initial, c)
        assert x.tobytes() == reference[0].tobytes()
        assert (result.iterations, result.evaluations, result.stop) == reference[2:]
