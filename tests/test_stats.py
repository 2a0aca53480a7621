"""Multinoulli estimation, EM mixtures, and BIC selection."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from eventabs import stats
from eventabs.stats import (
    EstimationError,
    Gmm,
    MultinoulliTable,
    _em_fits,
    gmm_fit_em,
    gmm_log_density,
    gmm_select_bic,
    gmm_select_bic_many,
)

from oracles import (
    bic_select_reference,
    em_fit_reference,
    multinoulli_fit_reference,
    multinoulli_rows_reference,
)



def counted(observations, alpha, labels=None) -> MultinoulliTable:
    """``from_counts`` on the count matrix of (context, label) pairs."""
    labels = tuple(sorted(labels or {label for _, label in observations}))
    contexts = sorted({ctx for ctx, _ in observations})
    counts = np.zeros((len(contexts), len(labels)), dtype=np.int64)
    for ctx, label in observations:
        counts[contexts.index(ctx), labels.index(label)] += 1
    return MultinoulliTable.from_counts(len(contexts[0]), contexts, counts, labels, alpha)


def dist(table: MultinoulliTable, context) -> dict[str, float]:
    return dict(zip(table.labels, table.distributions([context])[0].tolist()))


class TestMultinoulli:
    def test_hand_count(self):
        table = counted([(("A",), "X")] * 3 + [(("A",), "Y")], alpha=0.0)
        assert dist(table, ("A",)) == {"X": pytest.approx(0.75), "Y": pytest.approx(0.25)}

    def test_single_observation_gets_probability_one(self):
        table = counted([(("A", "B"), "X")], alpha=0.0)
        assert dist(table, ("A", "B"))["X"] == 1.0

    def test_large_alpha_approaches_uniform(self):
        table = counted([(("A",), "X")] * 50 + [(("A",), "Y")], alpha=1e9)
        assert list(dist(table, ("A",)).values()) == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_unseen_context_uniform(self):
        table = counted([(("A",), "X")], alpha=1.0, labels=["X", "Y"])
        assert dist(table, ("zzz",))["X"] == pytest.approx(0.5)

    def test_probabilities_sum_to_one_per_context(self):
        table = counted(
            [(("A",), "X"), (("A",), "Y"), (("B",), "Y")], alpha=0.7, labels=["X", "Y", "Z"],
        )
        rows = table.distributions([("A",), ("B",), ("unseen",)])
        assert rows.sum(axis=1) == pytest.approx([1.0] * 3, abs=1e-12)

    def test_distribution_hand_values(self):
        table = counted(
            [(("A",), "X"), (("A",), "Y"), (("A",), "X"), (("B",), "Z")], alpha=0.3,
        )
        # a context stored with no counts has denominator 0 at alpha 0
        bare = MultinoulliTable(
            arity=1, labels=("X", "Y"), alpha=0.0,
            contexts=(("A",), ("E",)), counts=np.array([[2, 0], [0, 0]]),
        )
        cases = [
            (table, ("A",), [2.3 / 3.9, 1.3 / 3.9, 0.3 / 3.9]),
            (table, ("unseen",), [1 / 3] * 3),
            (bare, ("A",), [1.0, 0.0]),
            (bare, ("E",), [0.5, 0.5]),
        ]
        for t, ctx, expected in cases:
            assert list(dist(t, ctx).values()) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError, match="arity"):
            table.distributions([("A",), ("A", "B")])

    def test_empty_observations_rejected(self):
        with pytest.raises(EstimationError):
            multinoulli_fit_reference([], alpha=1.0)

    def test_mixed_arity_rejected(self):
        with pytest.raises(EstimationError, match="arit"):
            multinoulli_fit_reference([(("A",), "X"), (("A", "B"), "X")], alpha=0.0)
        with pytest.raises(ValueError, match="arit"):
            counted([(("A",), "X")], alpha=0.0).distributions([("A", "B")])

    @given(st.permutations(
        [(("A",), "X"), (("A",), "Y"), (("B",), "X"), (("A",), "X"), (("C",), "Y")]
    ))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, observations):
        reference = counted(
            [(("A",), "X"), (("A",), "Y"), (("B",), "X"), (("A",), "X"), (("C",), "Y")],
            alpha=0.5,
        )
        permuted = counted(observations, alpha=0.5)
        contexts = [("A",), ("B",), ("C",)]
        assert np.array_equal(permuted.distributions(contexts), reference.distributions(contexts))

    def test_roundtrip_dict(self):
        table = counted([(("A",), "X"), (("B",), "Y")], alpha=1.0)
        again = MultinoulliTable.from_dict(table.to_dict())
        assert again == table
        assert dist(again, ("A",)) == dist(table, ("A",))

    @given(
        st.lists(st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC"),
                           st.sampled_from("XYZ")), min_size=1, max_size=30),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_matrix_table_equals_the_fitted_table(self, rows, alpha):
        labels = ("X", "Y", "Z")
        observations = [((a, b), label) for a, b, label in rows]
        fitted = multinoulli_fit_reference(observations, alpha, labels)
        contexts = sorted({ctx for ctx, _ in observations} | {("C", "A"), ("Q", "Q")})
        counts = np.zeros((len(contexts), len(labels)), dtype=np.int64)
        for ctx, label in observations:
            counts[contexts.index(ctx), labels.index(label)] += 1
        table = MultinoulliTable.from_counts(2, contexts, counts, labels, alpha)
        assert table.to_dict() == fitted
        # every row by the smoothing formula, uniform for unseen contexts
        assert table.distributions(contexts).tolist() == multinoulli_rows_reference(
            fitted, contexts
        )

    @given(
        st.integers(1, 3).flatmap(lambda k: st.tuples(
            st.just("XYZ"[:k]),
            st.lists(st.tuples(st.sampled_from("AB"), st.sampled_from("XYZ"[:k])), max_size=12),
        )),
        st.lists(st.sampled_from("ABCD"), max_size=3),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_distributions_equal_the_dict_reference(self, drawn, stored_empty, alpha):
        # from_counts drops all-zero rows; a stored table may hold them
        labels, rows = drawn
        observations = [((a,), label) for a, label in rows]
        queries = [(c,) for c in "ABCDE"]
        counts = np.zeros((4, len(labels)), dtype=np.int64)
        for (a,), label in observations:
            counts["ABCD".index(a), labels.index(label)] += 1
        table = MultinoulliTable.from_counts(1, queries[:4], counts, tuple(labels), alpha)
        stored = table.to_dict()
        stored["counts"] = sorted(stored["counts"] + [
            [[c], {}] for c in sorted(set(stored_empty) - {a for (a,), _ in observations})
        ])
        if observations:
            assert table.to_dict() == multinoulli_fit_reference(observations, alpha, labels)
        for t, data in ((table, table.to_dict()), (MultinoulliTable.from_dict(stored), stored)):
            assert t.distributions(queries).tolist() == multinoulli_rows_reference(data, queries)
            assert MultinoulliTable.from_dict(data).to_dict() == data


class TestGmmFit:
    def test_constant_samples_degenerate(self):
        g = gmm_fit_em([4.2] * 20, k=1, seed=0)
        assert g.means[0] == pytest.approx(4.2)
        assert g.variances[0] == g.variance_floor
        assert "variance clamped to floor" in g.warnings

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(1)
        xs = np.concatenate([rng.normal(0, 1, 100), rng.normal(100, 1, 100)])
        g = gmm_fit_em(xs, k=2, seed=0)
        lo, hi = sorted(g.means)
        assert abs(lo - xs[:100].mean()) < 1.0
        assert abs(hi - xs[100:].mean()) < 1.0

    def test_k1_matches_sample_moments(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(5, 3, 400)
        g = gmm_fit_em(xs, k=1, seed=0)
        assert g.means[0] == pytest.approx(float(xs.mean()), abs=1e-9)
        assert g.variances[0] == pytest.approx(float(xs.var()), abs=1e-9)

    def test_loglik_nondecreasing_across_iterations(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            xs = np.concatenate([
                rng.normal(0, 1, 60), rng.normal(8, 2, 60), rng.normal(-5, 0.5, 30)
            ])
            g = gmm_fit_em(xs, k=3, seed=seed)
            diffs = np.diff(np.asarray(g.ll_trajectory))
            assert np.all(diffs >= -1e-9), diffs.min()

    def test_k_exceeding_samples_rejected(self):
        with pytest.raises(EstimationError):
            gmm_fit_em([1.0, 2.0], k=3, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(0, 1, 100)
        a = gmm_fit_em(xs, k=2, seed=7)
        b = gmm_fit_em(xs, k=2, seed=7)
        assert a.means == b.means and a.weights == b.weights

    def test_iteration_cap_is_a_warning(self, monkeypatch):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.normal(0, 1, 50), rng.normal(6, 1, 50)])
        with monkeypatch.context() as patch:
            patch.setattr(stats, "EM_MAX_ITERATIONS", 2)
            capped = gmm_fit_em(xs, k=2, seed=0)
        assert "EM stopped at the iteration cap" in capped.warnings
        assert len(capped.ll_trajectory) == 3
        converged = gmm_fit_em(xs, k=1, seed=0)
        assert len(converged.ll_trajectory) < 200
        assert converged.warnings == ()

    def test_weight_invariant(self):
        rng = np.random.default_rng(5)
        g = gmm_fit_em(rng.normal(0, 1, 100), k=3, seed=0)
        assert abs(sum(g.weights) - 1.0) <= 1e-12
        assert all(w > 0 for w in g.weights)


class TestGmmSelect:
    def test_single_gaussian_prefers_k1(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            xs = rng.normal(0, 1, 500)
            if gmm_select_bic(xs, k_max=3, seed=seed).n_components == 1:
                hits += 1
        assert hits >= 18

    def test_two_component_mixture_prefers_k2(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            xs = np.concatenate([rng.normal(0, 1, 250), rng.normal(50, 1, 250)])
            if gmm_select_bic(xs, k_max=4, seed=seed).n_components == 2:
                hits += 1
        assert hits >= 18

    def test_single_sample_forces_k1(self):
        g = gmm_select_bic([3.0], k_max=5, seed=0)
        assert g.n_components == 1

    def test_selected_bic_minimal_among_candidates(self):
        rng = np.random.default_rng(6)
        xs = np.concatenate([rng.normal(0, 1, 150), rng.normal(10, 1, 150)])
        selected = gmm_select_bic(xs, k_max=4, seed=3)
        for k in range(1, 5):
            fit = gmm_fit_em(xs, k, seed=3 + k)
            bic = -2.0 * fit.log_likelihood + (3 * k - 1) * math.log(len(xs))
            assert selected.bic <= bic + 1e-9


class TestDensity:
    def test_standard_normal_peak(self):
        g = Gmm(weights=(1.0,), means=(0.0,), variances=(1.0,), variance_floor=1e-9)
        assert np.exp(gmm_log_density(g, 0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_symmetric_mixture_symmetric_density(self):
        g = Gmm(
            weights=(0.5, 0.5), means=(-2.0, 2.0), variances=(1.5, 1.5),
            variance_floor=1e-9,
        )
        for x in [0.3, 1.0, 2.5, 4.0]:
            assert np.exp(gmm_log_density(g, x)) == pytest.approx(np.exp(gmm_log_density(g, -x)), rel=1e-12)

    def test_density_integrates_to_one(self):
        g = Gmm(
            weights=(0.3, 0.7), means=(-1.0, 4.0), variances=(0.5, 2.0),
            variance_floor=1e-9,
        )
        sigma = math.sqrt(max(g.variances))
        lo = min(g.means) - 50 * sigma
        hi = max(g.means) + 50 * sigma
        total, _ = integrate.quad(lambda x: np.exp(gmm_log_density(g, x)), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_a_far_component_scores_its_limit_without_a_warning(self):
        # pytest.ini turns a RuntimeWarning into an error
        near = Gmm(weights=(1.0,), means=(0.0,), variances=(1.0,), variance_floor=1e-9)
        far = Gmm(weights=(1.0,), means=(1e308,), variances=(1.0,), variance_floor=1e-9)
        both = Gmm(
            weights=(0.5, 0.5), means=(1e308, 0.0), variances=(1.0, 1.0), variance_floor=1e-9
        )
        xs = np.array([-1e308, -1.0, 0.0, 2.5])
        assert np.array_equal(gmm_log_density(both, xs), np.log(0.5) + gmm_log_density(near, xs))
        assert np.array_equal(gmm_log_density(far, xs), np.full(4, -np.inf))
        assert gmm_log_density(far, 0.0) == -np.inf

    def test_invariants_enforced(self):
        with pytest.raises(EstimationError):
            Gmm(weights=(0.5, 0.6), means=(0, 1), variances=(1, 1), variance_floor=0)
        with pytest.raises(EstimationError):
            Gmm(weights=(1.0,), means=(0.0,), variances=(1e-12,), variance_floor=1e-9)


# --- the packed EM kernel against the one-fit-at-a-time reference -----------

_values = st.floats(-1e4, 1e4, allow_nan=False, allow_subnormal=False)


@st.composite
def sample_sets(draw) -> list[float]:
    kind = draw(st.sampled_from(["any", "constant", "single", "separated"]))
    if kind == "constant":  # every fit clamps its variance
        return [draw(_values)] * draw(st.integers(2, 20))
    if kind == "single":
        return [draw(_values)]
    if kind == "separated":
        jitter = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40))
        low, half = draw(_values), len(jitter) // 2
        return [low + j for j in jitter[:half]] + [low + 1e5 + j for j in jitter[half:]]
    return draw(st.lists(_values, min_size=1, max_size=40))


@st.composite
def em_fits(draw) -> tuple[list[float], int, int]:
    xs = draw(sample_sets())
    # the largest k is drawn on its own: on sets of up to 5 samples it is n
    k = draw(st.one_of(st.integers(1, min(5, len(xs))), st.just(min(5, len(xs)))))
    return xs, k, draw(st.integers(0, 10_000))


def _close(a, b, scale: float = 0.0) -> bool:
    return all(
        abs(x - y) <= 1e-9 * max(abs(x), abs(y), scale) for x, y in zip(a, b, strict=True)
    )


def _bits(g: Gmm) -> tuple:
    """Every number of a fit as its exact bits, with its warnings."""
    numbers = (*g.weights, *g.means, *g.variances, g.variance_floor, g.log_likelihood,
               *g.ll_trajectory, g.bic)
    return tuple(float(v).hex() for v in numbers), len(g.weights), g.warnings


def assert_matches_reference(got: Gmm, ref: Gmm, xs: list[float]) -> None:
    assert len(got.ll_trajectory) == len(ref.ll_trajectory)
    assert got.warnings == ref.warnings
    assert got.variance_floor == ref.variance_floor
    assert _close(got.weights, ref.weights)
    # a mean is a weighted average of the samples, so its rounding error
    # scales with their magnitude
    assert _close(got.means, ref.means, scale=max(abs(x) for x in xs))
    assert _close(got.variances, ref.variances)
    assert _close(got.ll_trajectory, ref.ll_trajectory, scale=1.0)


class TestPackedEm:
    @given(st.lists(em_fits(), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    # inputs where a component's weight collapses, so EM amplifies a last
    # bit of rounding to about 1e-9 in a weight or variance by the end
    @example([([0.0, -120.0, -9178.0, -34.75, -0.328125], 5, 0)])
    @example([([0.0, 2.0, 3280.0, 9872.0, -6359.0], 5, 0)])
    @example([([0.0, 1.0, 3279.0, 9875.0, -6388.0], 5, 0)])
    def test_packed_fits_match_the_reference(self, fits):
        got = _em_fits(
            [np.asarray(xs, dtype=float) for xs, _, _ in fits],
            [k for _, k, _ in fits], [seed for _, _, seed in fits],
        )
        for g, (xs, k, seed) in zip(got, fits, strict=True):
            assert_matches_reference(g, em_fit_reference(xs, k, seed), xs)

    @given(st.lists(sample_sets(), min_size=1, max_size=5), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_bic_choice_matches_the_reference(self, sets, k_max):
        seeds = [17 * i for i in range(len(sets))]
        selected = gmm_select_bic_many(sets, k_max, seeds)
        for got, xs, seed in zip(selected, sets, seeds, strict=True):
            ref = bic_select_reference(xs, k_max, seed)
            assert got.n_components == ref.n_components
            assert_matches_reference(got, ref, xs)

    @given(
        st.lists(em_fits(), min_size=1, max_size=8),
        st.lists(st.floats(-1e4, 1e4, allow_nan=False), max_size=3),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    # k = 1 fits, a single sample, constant samples (a degenerate cluster,
    # whose variance is clamped to the floor) and a k = 5 fit on five
    # samples, which clamps too, and with the cap at 2 hits the cap
    @example([([3.0, 1.0, 2.0], 1, 4), ([2.0], 1, 9), ([7.5] * 6, 3, 1),
              ([0.0, 1.0, 2.0, 3.0, 1e5], 5, 2)], [0.0], False)
    @example([([3.0, 1.0, 2.0], 1, 4), ([7.5] * 6, 3, 1),
              ([0.0, 1.0, 2.0, 3.0, 1e5], 5, 2)], [], True)
    def test_a_fit_packed_with_others_equals_it_alone(self, fits, constant, capped):
        """Mixed component counts in any order: each packed fit's result,
        trajectory and warnings are those of the fit run alone, bit for
        bit. ``capped`` lowers the iteration cap to 2, so fits stop there."""
        if constant:  # a set of repeated values
            fits = fits + [([constant[0]] * len(constant) * 3, len(constant), 11)]
        cap = 2 if capped else stats.EM_MAX_ITERATIONS
        with mock.patch.object(stats, "EM_MAX_ITERATIONS", cap):
            packed = _em_fits(
                [np.asarray(xs, dtype=float) for xs, _, _ in fits],
                [k for _, k, _ in fits], [seed for _, _, seed in fits],
            )
            alone = [gmm_fit_em(xs, k, seed=seed) for xs, k, seed in fits]
        for got, expected in zip(packed, alone, strict=True):
            assert _bits(got) == _bits(expected)
            if capped:
                assert len(got.ll_trajectory) <= 3

    def test_selected_mixtures_equal_their_sets_alone(self):
        rng = np.random.default_rng(11)
        sets = [
            rng.normal(0, 1, 40),
            np.concatenate([rng.normal(0, 1, 30), rng.normal(50, 2, 30)]),
            np.full(7, 3.5),
            rng.exponential(100.0, 90),
            np.array([2.0]),
        ]
        seeds = [3, 1000, 2000, 3000, 4000]
        packed = gmm_select_bic_many(sets, 5, seeds)
        for got, xs, seed in zip(packed, sets, seeds, strict=True):
            assert _bits(got) == _bits(gmm_select_bic(xs, 5, seed=seed))

    def test_seeding_equals_the_minimum_over_all_centers(self):
        # the kernel keeps a running minimum of the squared distances; the
        # reference recomputes it against every center
        rng = np.random.default_rng(12)
        for n, k in [(1, 1), (5, 5), (40, 3), (200, 5)]:
            xs = np.round(rng.exponential(30.0, n))
            for seed in range(5):
                centers = stats._kmeanspp_centers(xs, k, np.random.default_rng(seed))
                expected = em_fit_reference(xs, k, seed, max_iters=0).means
                assert centers.tolist() == list(expected)

    def test_invalid_sets_rejected(self):
        with pytest.raises(EstimationError, match="no samples"):
            gmm_select_bic_many([[1.0, 2.0], []], 3, [0, 1])
        with pytest.raises(EstimationError, match="finite"):
            gmm_select_bic_many([[1.0, math.nan]], 3, [0])
        with pytest.raises(EstimationError, match="k_max"):
            gmm_select_bic_many([[1.0]], 0, [0])
        with pytest.raises(ValueError, match="seed"):
            gmm_select_bic_many([[1.0]], 2, [0, 1])
        assert gmm_select_bic_many([], 3, []) == []
