"""Inference against exhaustive enumeration, gradients against finite
differences, and training behavior."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventabs import crf
from eventabs.features import (
    CatalogConfig,
    FeatureCatalog,
    FeatureDef,
    InternedLog,
    build_catalog,
)
from eventabs.owlqn import OptimizationError, OwlqnConfig, minimize

from factories import fold_batch_of, make_event, make_log, sequence_trace, training_batch_of
from oracles import (
    argmax_lexicographic,
    enumerate_sequence_scores,
    l1_lbfgsb_reference,
    log_sum_exp,
    nll_and_gradient_reference,
    viterbi_per_position,
)

LABEL_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")


def random_model(
    rng: np.random.Generator, n_labels: int, n_obs_features: int
) -> crf.CrfModel:
    labels = LABEL_POOL[:n_labels]
    defs = tuple(
        FeatureDef("bias", labels[int(rng.integers(n_labels))])
        for _ in range(n_obs_features)
    )
    catalog = FeatureCatalog(
        labels=labels, observation_features=defs, config=CatalogConfig()
    )
    weights = rng.normal(0.0, 1.5, catalog.n_features)
    return crf.CrfModel(catalog, weights)


def oracle_inputs(model: crf.CrfModel, obs: np.ndarray):
    idx = [model.catalog.label_index[d.label] for d in model.catalog.observation_features]
    return enumerate_sequence_scores(
        obs, model.weights, idx, model.catalog.n_labels
    )


class TestLogPartition:
    def test_zero_weights_uniform(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 3, 4)
        model.weights[:] = 0.0
        for T in (1, 2, 5):
            obs = rng.normal(0, 1, (T, 4))
            assert crf.log_partition(model, obs) == pytest.approx(
                T * np.log(3), rel=1e-12
            )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            L = int(rng.integers(2, 5))
            T = int(rng.integers(1, 7))
            F = int(rng.integers(1, 7))
            model = random_model(rng, L, F)
            obs = rng.normal(0, 1, (T, F))
            _, scores = oracle_inputs(model, obs)
            expected = log_sum_exp(scores)
            assert crf.log_partition(model, obs) == pytest.approx(expected, rel=1e-9)

    def test_single_position_is_logsumexp(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 4, 3)
        obs = rng.normal(0, 1, (1, 3))
        emissions, trans = model.potentials(obs)
        scores = trans[4] + emissions[0]
        assert crf.log_partition(model, obs) == pytest.approx(
            log_sum_exp(scores), rel=1e-12
        )

    def test_forward_equals_backward(self):
        from eventabs.crf import _backward, _log_partition_forward

        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_model(rng, 3, 5)
            obs = rng.normal(0, 1, (int(rng.integers(1, 9)), 5))
            emissions, trans = model.potentials(obs)
            forward = _log_partition_forward(emissions, trans)
            beta = _backward(emissions, trans)
            backward = np.logaddexp.reduce(trans[-1] + emissions[0] + beta[0])
            assert forward == pytest.approx(backward, rel=1e-9)


class TestSequenceLogProb:
    def test_zero_weights(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 4)
        model.weights[:] = 0.0
        obs = rng.normal(0, 1, (4, 4))
        lp = crf.sequence_log_prob(model, obs, ["alpha", "beta", "gamma", "alpha"])
        assert lp == pytest.approx(-4 * np.log(3), rel=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        import itertools

        for _ in range(5):
            L = int(rng.integers(2, 5))
            T = int(rng.integers(1, 6))
            model = random_model(rng, L, 4)
            obs = rng.normal(0, 1, (T, 4))
            labels = model.labels
            total = sum(
                np.exp(crf.sequence_log_prob(model, obs, list(seq)))
                for seq in itertools.product(labels, repeat=T)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_constant_shift_at_one_position_cancels_in_z(self):
        # shifting every label's potential at one position shifts every
        # sequence score equally, so p(y|x) is unchanged
        from eventabs.crf import _log_partition_forward, _sequence_score

        rng = np.random.default_rng(6)
        model = random_model(rng, 3, 4)
        obs = rng.normal(0, 1, (5, 4))
        emissions, trans = model.potentials(obs)
        y = np.array([0, 2, 1, 1, 0])
        base = _sequence_score(emissions, trans, y) - _log_partition_forward(
            emissions, trans
        )
        shifted = emissions.copy()
        shifted[2, :] += 3.7
        moved = _sequence_score(shifted, trans, y) - _log_partition_forward(
            shifted, trans
        )
        assert moved == pytest.approx(base, rel=1e-12)

    def test_unknown_label_rejected(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 2, 3)
        obs = rng.normal(0, 1, (2, 3))
        with pytest.raises(ValueError, match="outside the model alphabet"):
            crf.sequence_log_prob(model, obs, ["alpha", "nope"])

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 2, 3)
        obs = rng.normal(0, 1, (2, 3))
        with pytest.raises(ValueError, match="length"):
            crf.sequence_log_prob(model, obs, ["alpha"])


class TestMarginals:
    def test_zero_weights_uniform(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 4, 3)
        model.weights[:] = 0.0
        obs = rng.normal(0, 1, (5, 3))
        node, edge = crf.posterior_marginals(model, obs)
        assert np.allclose(node, 0.25)
        assert np.allclose(edge, 1 / 16)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            L = int(rng.integers(2, 5))
            T = int(rng.integers(2, 7))
            model = random_model(rng, L, 5)
            obs = rng.normal(0, 1, (T, 5))
            sequences, scores = oracle_inputs(model, obs)
            log_z = log_sum_exp(scores)
            probs = np.exp(scores - log_z)
            node_oracle = np.zeros((T, L))
            edge_oracle = np.zeros((T - 1, L, L))
            for seq, p in zip(sequences, probs):
                for t, y in enumerate(seq):
                    node_oracle[t, y] += p
                    if t:
                        edge_oracle[t - 1, seq[t - 1], y] += p
            node, edge = crf.posterior_marginals(model, obs)
            assert np.allclose(node, node_oracle, atol=1e-9)
            assert np.allclose(edge, edge_oracle, atol=1e-9)

    def test_marginals_normalize_and_marginalize(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, 4)
        obs = rng.normal(0, 1, (6, 4))
        node, edge = crf.posterior_marginals(model, obs)
        assert np.allclose(node.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(edge.sum(axis=(1, 2)), 1.0, atol=1e-9)
        assert np.allclose(edge.sum(axis=1), node[1:], atol=1e-9)
        assert np.allclose(edge.sum(axis=2), node[:-1], atol=1e-9)


class TestViterbi:
    def test_matches_enumeration_with_tiebreak(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            L = int(rng.integers(2, 5))
            T = int(rng.integers(1, 7))
            model = random_model(rng, L, 4)
            obs = rng.normal(0, 1, (T, 4))
            sequences, scores = oracle_inputs(model, obs)
            expected = argmax_lexicographic(sequences, scores)
            decoded = crf.viterbi_decode(model, obs)
            assert tuple(model.catalog.label_index[l] for l in decoded) == expected

    def test_zero_weights_all_first_label(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 3, 4)
        model.weights[:] = 0.0
        obs = rng.normal(0, 1, (5, 4))
        assert crf.viterbi_decode(model, obs) == ["alpha"] * 5

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, 3, 4)
        obs = rng.normal(0, 1, (6, 4))
        before = crf.viterbi_decode(model, obs)
        scaled = crf.CrfModel(model.catalog, model.weights * 3.5)
        assert crf.viterbi_decode(scaled, obs) == before

    def test_decode_score_dominates_observed(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, 3, 4)
        obs = rng.normal(0, 1, (6, 4))
        decoded = crf.viterbi_decode(model, obs)
        observed = [model.labels[int(i)] for i in rng.integers(0, 3, 6)]
        assert crf.sequence_log_prob(model, obs, decoded) >= crf.sequence_log_prob(
            model, obs, observed
        )


def test_log_space_stability_long_sequence_large_weights():
    rng = np.random.default_rng(99)
    model = random_model(rng, 2, 3)
    model.weights[:] = np.where(model.weights > 0, 1e3, -1e3)
    obs = rng.uniform(0, 1, (10_000, 3))
    log_z = crf.log_partition(model, obs)
    assert np.isfinite(log_z)
    node, edge = crf.posterior_marginals(model, obs)
    assert np.all(np.isfinite(node)) and np.all(np.isfinite(edge))
    decoded = crf.viterbi_decode(model, obs)
    assert len(decoded) == 10_000


class TestGradient:
    def finite_difference(self, weights, batch, eps=1e-6):
        grad = np.zeros_like(weights)
        for i in range(len(weights)):
            plus, minus = weights.copy(), weights.copy()
            plus[i] += eps
            minus[i] -= eps
            grad[i] = (
                crf.nll_and_gradients([plus], batch)[0][0]
                - crf.nll_and_gradients([minus], batch)[0][0]
            ) / (2 * eps)
        return grad

    def test_matches_central_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            L = int(rng.integers(2, 4))
            F = int(rng.integers(1, 6))
            model = random_model(rng, L, F)
            layout = model.catalog
            assert layout.n_features <= 50
            pairs = []
            for _ in range(int(rng.integers(1, 4))):
                T = int(rng.integers(1, 6))
                pairs.append((
                    rng.normal(0, 1, (T, F)),
                    rng.integers(0, L, T).astype(np.intp),
                ))
            weights = rng.normal(0, 1, layout.n_features)
            batch = training_batch_of(layout, pairs)
            _, analytic = crf.nll_and_gradients([weights], batch)[0]
            numeric = self.finite_difference(weights, batch)
            scale = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-5

    def test_value_at_zero_weights(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 3, 4)
        layout = model.catalog
        pairs = [
            (rng.normal(0, 1, (4, 4)), np.array([0, 1, 2, 0])),
            (rng.normal(0, 1, (2, 4)), np.array([2, 2])),
        ]
        value, _ = crf.nll_and_gradients(
            [np.zeros(layout.n_features)], training_batch_of(layout, pairs)
        )[0]
        assert value == pytest.approx((4 + 2) * np.log(3), rel=1e-12)

    def test_duplicating_pairs_doubles(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, 2, 3)
        layout = model.catalog
        pairs = [
            (rng.normal(0, 1, (3, 3)), np.array([0, 1, 1])),
            (rng.normal(0, 1, (5, 3)), np.array([1, 0, 0, 1, 0])),
        ]
        weights = rng.normal(0, 1, layout.n_features)
        v1, g1 = crf.nll_and_gradients([weights], training_batch_of(layout, pairs))[0]
        v2, g2 = crf.nll_and_gradients([weights], training_batch_of(layout, pairs + pairs))[0]
        assert v2 == pytest.approx(2 * v1, rel=1e-12)
        assert np.allclose(g2, 2 * g1, rtol=1e-12, atol=1e-12)

    def test_batched_equals_sequential_sum(self):
        rng = np.random.default_rng(19)
        model = random_model(rng, 3, 5)
        layout = model.catalog
        pairs = []
        for _ in range(7):
            T = int(rng.integers(1, 8))
            pairs.append((
                rng.normal(0, 1, (T, 5)), rng.integers(0, 3, T).astype(np.intp)
            ))
        weights = rng.normal(0, 1, layout.n_features)
        batched_v, batched_g = crf.nll_and_gradients([weights], training_batch_of(layout, pairs))[0]
        seq_v = 0.0
        seq_g = np.zeros(layout.n_features)
        for pair in pairs:
            v, g = crf.nll_and_gradients([weights], training_batch_of(layout, [pair]))[0]
            seq_v += v
            seq_g += g
        assert batched_v == pytest.approx(seq_v, rel=1e-9)
        assert np.allclose(batched_g, seq_g, rtol=1e-9, atol=1e-9)


SKEWED_LENGTHS = (300, 1, 2, 1, 3, 5, 1, 8, 13, 2, 40, 1, 120, 4)


def random_pairs(rng, lengths, n_features, n_labels):
    return [
        (rng.normal(0, 1, (T, n_features)), rng.integers(0, n_labels, T).astype(np.intp))
        for T in lengths
    ]


def two_label_catalog() -> FeatureCatalog:
    return FeatureCatalog(
        labels=("alpha", "beta"),
        observation_features=(FeatureDef("bias", "beta"),),
        config=CatalogConfig(),
    )


class TestPackedObjective:
    @pytest.mark.parametrize("n_labels", [2, 7])
    def test_equals_per_trace_log_space(self, n_labels):
        rng = np.random.default_rng(40 + n_labels)
        catalog = random_model(rng, n_labels, 6).catalog
        model = crf.CrfModel(catalog, rng.normal(0.0, 20.0, catalog.n_features))
        pairs = random_pairs(rng, SKEWED_LENGTHS, 6, n_labels)
        value, grad = crf.nll_and_gradients([model.weights], training_batch_of(catalog, pairs))[0]
        expected = -sum(
            crf.sequence_log_prob(model, obs, [model.labels[i] for i in y]) for obs, y in pairs
        )
        assert value == pytest.approx(expected, rel=1e-12)
        # expected minus observed counts from the log-space marginals
        L, f_obs = catalog.n_labels, catalog.n_observation_features
        counts = np.zeros(catalog.n_features)
        trans = counts[f_obs:].reshape(L + 1, L)
        for obs, y in pairs:
            node, edge = crf.posterior_marginals(model, obs)
            onehot = np.eye(L)[y]
            diff = node - onehot
            counts[:f_obs] += np.einsum("tf,tf->f", obs, diff[:, catalog.observation_labels])
            trans[:L] += edge.sum(axis=0)
            np.add.at(trans, (y[:-1], y[1:]), -1.0)
            trans[L] += diff[0]
        assert np.allclose(grad, counts, rtol=1e-9, atol=1e-9)

    def test_underflow_returns_plus_inf_without_warning(self):
        # the +-1e3-weight case of test_log_space_stability_long_sequence_large_weights
        rng = np.random.default_rng(99)
        model = random_model(rng, 2, 3)
        model.weights[:] = np.where(model.weights > 0, 1e3, -1e3)
        obs = rng.uniform(0, 1, (10_000, 3))
        batch = crf.TrainingBatch(
            [10_000], [(model.catalog, obs, rng.integers(0, 2, 10_000).astype(np.intp), [True])]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = crf.nll_and_gradients([model.weights], batch)[0]
        assert value == np.inf

    def test_subnormal_scale_factor_returns_plus_inf(self):
        # after the max shifts, each label's begin-of-sequence factor times its
        # emission factor is exp(-720), so the one scale factor is
        # 2 * exp(-720): nonzero, but below the normal float range
        catalog = two_label_catalog()
        weights = np.zeros(catalog.n_features)
        weights[0] = 720.0  # emission of beta
        weights[-2] = 720.0  # begin-of-sequence -> alpha
        batch = crf.TrainingBatch([1], [(catalog, np.ones((1, 1)), np.array([0]), [True])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = crf.nll_and_gradients([weights], batch)[0]
        assert value == np.inf

    def test_batch_holds_one_row_per_event(self):
        rng = np.random.default_rng(41)
        catalog = random_model(rng, 3, 4).catalog
        lengths = (0, 77, 3, 0, 12, 1, 5, 30, 2, 77)
        pairs = random_pairs(rng, lengths, 4, 3)
        batch = training_batch_of(catalog, pairs)
        live = sorted((obs for obs, y in pairs if len(y)), key=lambda obs: -len(obs))
        assert batch.n == len(live) == 8
        [problem] = batch.problems
        assert problem.obs.shape == (sum(lengths), 4)
        # position t of the i-th longest trace sits at row offsets[t] + i
        for i, obs in enumerate(live):
            rows = batch.offsets[: len(obs)] + i
            assert np.array_equal(problem.obs[rows], obs)
        # nothing the batch holds grows with traces x longest trace
        padded = len(live) * max(lengths) * 4
        held = [
            v for v in [*vars(batch).values(), *vars(problem).values()]
            if isinstance(v, np.ndarray)
        ]
        assert max(v.size for v in held) == problem.obs.size < padded / 2


class TestBatchValidation:
    """A 2-label catalog with one observation feature, over a packing of
    traces of lengths 3 and 2: a problem training on the first trace,
    alone (problem 0) or as problem 1 of a group after a sound problem on
    both. A faulty problem is refused by name, and so are a batch of no
    problems and a subset index outside the batch."""

    def batch(self, observations=None, labels=None, kept=None, lengths=(3, 2)):
        return crf.TrainingBatch(lengths, [self.problem(observations, labels, kept)])

    def group(self, observations=None, labels=None, kept=None):
        sound = (two_label_catalog(), np.ones((5, 1)), np.array([0, 1, 1, 0, 1]), [True, True])
        return crf.TrainingBatch((3, 2), [sound, self.problem(observations, labels, kept)])

    @staticmethod
    def problem(observations, labels, kept):
        return (
            two_label_catalog(),
            np.ones((5, 1)) if observations is None else observations,
            np.array([0, 1, 1, 0, 1]) if labels is None else labels,
            np.array([True, False]) if kept is None else kept,
        )

    def test_well_formed_input_is_accepted(self):
        assert self.batch().n == 2
        group = self.group()
        assert group.n == len(group.problems) == 2
        # trace 0 holds rows 0, 2 and 4 of the (3, 2) packing
        assert group.problems[1].keep.tolist() == [0, 2, 4]

    def test_rows_of_traces_not_kept_are_never_read(self):
        rng = np.random.default_rng(8)
        observations = rng.normal(0, 1, (5, 1))
        junk = observations.copy()
        junk[3:] = np.nan  # the rows of trace 1
        weights = rng.normal(0, 1, two_label_catalog().n_features)
        clean = crf.nll_and_gradients([weights], self.batch(observations))[0]
        dirty = crf.nll_and_gradients(
            [weights], self.batch(junk, labels=np.array([0, 1, 1, -1, 7]))
        )[0]
        assert TestBufferReuse.bits(dirty) == TestBufferReuse.bits(clean)

    @pytest.mark.parametrize(
        "observations", [np.ones((1, 1)), np.ones((5, 2)), np.ones(5), np.ones((6, 1)),
                         np.ones((3, 1))],
        ids=["one-row", "two-features", "1-d", "extra-row", "kept-rows-only"],
    )
    def test_observations_not_one_row_per_event_are_refused(self, observations):
        with pytest.raises(ValueError, match="problem 0: observations"):
            self.batch(observations=observations)
        with pytest.raises(ValueError, match="problem 1: observations"):
            self.group(observations=observations)

    @pytest.mark.parametrize(
        "labels",
        [np.array([0, -1, 1, 0, 1]), np.array([0, 2, 1, 0, 1]), np.array([1]),
         np.array([0, 1, 1, 0, 1, 0]), np.array([0.0, 1.0, 1.0, 0.0, 1.0]),
         np.array([[0, 1, 1, 0, 1]]), np.array([0, 1, 1])],
        ids=["minus-one", "n-labels", "one-label", "extra-label", "float", "2-d",
             "kept-labels-only"],
    )
    def test_labels_not_one_index_per_event_are_refused(self, labels):
        with pytest.raises(ValueError, match="problem 0: labels"):
            self.batch(labels=labels)
        with pytest.raises(ValueError, match="problem 1: labels"):
            self.group(labels=labels)

    @pytest.mark.parametrize(
        "kept",
        [[0], [1, 0], [True], [True, False, True], [[True, False]], [1.0, 0.0]],
        ids=["indices", "ints", "one-short", "one-extra", "2-d", "float"],
    )
    def test_kept_not_one_bool_per_trace_is_refused(self, kept):
        with pytest.raises(ValueError, match="problem 0: kept"):
            self.batch(kept=kept)
        with pytest.raises(ValueError, match="problem 1: kept"):
            self.group(kept=kept)

    def test_negative_length_is_refused(self):
        with pytest.raises(ValueError, match="lengths"):
            self.batch(lengths=(4, -1))

    @pytest.mark.parametrize("lengths", [[2], [0]], ids=["rows", "no-rows"])
    def test_a_batch_of_no_problems_is_refused(self, lengths):
        with pytest.raises(ValueError, match="at least one problem"):
            crf.TrainingBatch(lengths, [])
        with pytest.raises(ValueError, match="at least one problem"):
            self.group().subset([])

    @pytest.mark.parametrize(
        "problems, outside",
        [([1], 1), ([-1], -1), ([0, -1], -1), ([2, 0], 2)],
        ids=["past-one", "negative", "negative-alias", "past-two"],
    )
    def test_subset_indices_outside_the_batch_are_refused(self, problems, outside):
        batch = self.batch() if problems == [1] else self.group()
        with pytest.raises(ValueError, match=rf"problem {outside} is outside \[0, "):
            batch.subset(problems)


LENGTHS = st.one_of(
    st.lists(st.integers(0, 6), min_size=1, max_size=5),
    st.tuples(st.integers(0, 6), st.integers(1, 5)).map(lambda c: [c[0]] * c[1]),
    st.lists(st.integers(0, 1), min_size=1, max_size=5),  # at most a single step
)


class TestBufferReuse:
    """A batch's work buffers carry nothing from one evaluation to the next:
    every result equals a fresh batch's, bit for bit, including after an
    evaluation that returns ``+inf``."""

    @staticmethod
    def bits(result):
        value, grad = result
        return np.float64(value).tobytes() + grad.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n_labels=st.integers(2, 4),
        lengths_a=LENGTHS,
        lengths_b=LENGTHS,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_labels=2, lengths_a=[0, 1, 0], lengths_b=[3, 3, 3], seed=0)
    @example(n_labels=3, lengths_a=[1], lengths_b=[0], seed=1)
    def test_results_equal_a_fresh_batch(self, n_labels, lengths_a, lengths_b, seed):
        rng = np.random.default_rng(seed)
        catalog = random_model(rng, n_labels, 3).catalog
        inputs = []
        for lengths in (lengths_a, lengths_b):
            obs = rng.normal(0, 1, (sum(lengths), 3))
            obs[:, 0] = 1.0  # a constant column, as the bias family's
            inputs.append((obs, rng.integers(0, n_labels, sum(lengths)), lengths))
        w1, w2 = rng.normal(0, 1.5, (2, catalog.n_features))
        # the subnormal scale-factor case: after the max shifts, begin row
        # times emission is exp(-720) for the two labels and 0 for the others
        subnormal = np.zeros(catalog.n_features)
        first = catalog.observation_labels[0]
        subnormal[0] = 720.0
        subnormal[catalog.n_features - n_labels + (first + 1) % n_labels] = 720.0
        sequence = [w1, np.where(w1 > 0, 1e3, -1e3), subnormal, w2, w1]

        def fresh_batch(obs, y, lengths):
            return crf.TrainingBatch(lengths, [(catalog, obs, y, np.ones(len(lengths), dtype=bool))])

        batches = [fresh_batch(*args) for args in inputs]
        infinite = 0
        for weights in sequence:
            for batch, (obs, y, lengths) in zip(batches, inputs):
                result = crf.nll_and_gradients([weights], batch)[0]
                fresh = crf.nll_and_gradients([weights], fresh_batch(obs, y, lengths))[0]
                assert self.bits(result) == self.bits(fresh)
                held = [v for v in vars(batch).values() if isinstance(v, np.ndarray)]
                assert not any(np.shares_memory(result[1], v) for v in held)
                infinite += result[0] == np.inf
        if sum(lengths_a) and sum(lengths_b):
            assert infinite >= 2  # the subnormal case on both batches


def subnormal_weights(catalog: FeatureCatalog) -> np.ndarray:
    """Weights whose first scale factor is 2 * exp(-720), below the normal
    float range, on observations with a constant first column: after the
    max shifts, begin row times emission is exp(-720) for two labels and 0
    for the others."""
    weights = np.zeros(catalog.n_features)
    first = catalog.observation_labels[0]
    weights[0] = 720.0
    weights[catalog.n_features - catalog.n_labels + (first + 1) % catalog.n_labels] = 720.0
    return weights


FOLD_KINDS = st.sampled_from(["one", "longest", "all_but_one", "several", "infinite"])


def fold_group_case(n_labels: int, lengths: list[int], kinds: list[str], seed: int):
    """A random fold group over a log of traces of the given ``lengths``:
    one fold per entry of ``kinds`` (see ``FOLD_KINDS``), each with its own
    catalog of bias features, whole-log observations with a constant first
    column, and weights, subnormal for an "infinite" fold. Returns the
    interned log, the folds, catalogs, observations and weights."""
    rng = np.random.default_rng(seed)
    labels = LABEL_POOL[:n_labels]
    log = InternedLog(make_log([
        [make_event(name="a", label=labels[rng.integers(n_labels)]) for _ in range(T)]
        for T in lengths
    ]).traces)
    n_traces = len(lengths)
    folds, catalogs, observations, weights = [], [], [], []
    for kind in kinds:
        if kind == "longest":
            fold = [int(np.argmax(lengths))]
        elif kind == "all_but_one":
            kept = int(rng.integers(n_traces))
            fold = [t for t in range(n_traces) if t != kept]
        elif kind == "several":  # a k-fold-style share of the traces
            size = int(rng.integers(2, n_traces)) if n_traces > 2 else 1
            fold = sorted(rng.choice(n_traces, size, replace=False).tolist())
        else:
            fold = [int(rng.integers(n_traces))]
        catalog = FeatureCatalog(
            labels=labels,
            observation_features=tuple(
                FeatureDef("bias", labels[rng.integers(n_labels)])
                for _ in range(int(rng.integers(1, 5)))
            ),
            config=CatalogConfig(),
        )
        matrix = rng.normal(0, 1, (log.n_events, catalog.n_observation_features))
        matrix[:, 0] = 1.0
        folds.append(fold)
        catalogs.append(catalog)
        observations.append(matrix)
        weights.append(
            subnormal_weights(catalog) if kind == "infinite"
            else rng.normal(0, 1.5, catalog.n_features)
        )

    return log, folds, catalogs, observations, weights


class TestFoldGroups:
    """A group batch (one packing of the whole log, one problem per fold)
    gives every fold the bits that fold gets alone, whatever the group
    holds and after the group is compacted; and the value and gradient of
    the fold's own batch, bit for bit unless the fold's own packing has a
    one-row step where the whole log's has more rows (BLAS computes a
    one-row product by another routine)."""

    bits = staticmethod(TestBufferReuse.bits)

    @settings(max_examples=60, deadline=None)
    @given(
        n_labels=st.integers(2, 4),
        lengths=st.lists(st.integers(0, 7), min_size=2, max_size=7),
        kinds=st.lists(FOLD_KINDS, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_labels=2, lengths=[3, 7, 5, 6], kinds=["longest", "one", "infinite"], seed=0)
    @example(n_labels=4, lengths=[7, 2, 6, 0, 6], kinds=["longest", "all_but_one"], seed=1)
    @example(n_labels=3, lengths=[4, 4, 1, 6, 3, 5], kinds=["several"] * 3, seed=2)
    @example(n_labels=2, lengths=[2, 5], kinds=["infinite", "one", "several"], seed=3)
    @example(n_labels=4, lengths=[0, 0], kinds=["one", "infinite"], seed=4)
    def test_a_fold_gets_the_same_bits_in_any_group(self, n_labels, lengths, kinds, seed):
        log, folds, catalogs, observations, weights = fold_group_case(n_labels, lengths, kinds, seed)
        n_traces = len(lengths)
        group = fold_batch_of(log, folds, catalogs, observations)
        results = crf.nll_and_gradients(weights, group)
        together = [self.bits(r) for r in results]
        for b in range(len(folds)):
            alone = fold_batch_of(log, folds[b:b + 1], catalogs[b:b + 1], observations[b:b + 1])
            assert self.bits(crf.nll_and_gradients([weights[b]], alone)[0]) == together[b]

        # compacted: every other fold, evaluated after a pass at other weights
        kept = list(range(len(folds)))[1::2] or [0]
        compacted = group.subset(kept)
        crf.nll_and_gradients([0.5 * weights[b] for b in kept], compacted)
        again = crf.nll_and_gradients([weights[b] for b in kept], compacted)
        assert [self.bits(r) for r in again] == [together[b] for b in kept]
        assert [self.bits(r) for r in crf.nll_and_gradients(weights, group)] == together

        whole_log_steps = np.diff(group.offsets)
        for b, (fold, kind, (group_value, group_grad)) in enumerate(zip(folds, kinds, results)):
            rest = [t for t in range(n_traces) if t not in fold]
            events = log.events(rest)
            own = crf.TrainingBatch(log.lengths[rest], [(
                catalogs[b], observations[b][events],
                log.label_indices(catalogs[b].labels, events), np.ones(len(rest), dtype=bool),
            )])
            value, grad = crf.nll_and_gradients([weights[b]], own)[0]
            if kind == "infinite" and own.n:
                assert group_value == np.inf
            own_steps = np.diff(own.offsets)
            if not np.any((own_steps == 1) & (whole_log_steps[:len(own_steps)] > 1)):
                assert self.bits((value, grad)) == together[b]
            elif value == np.inf:
                assert group_value == np.inf
            else:
                assert abs(group_value - value) <= 1e-12 * max(1.0, abs(value))
                assert np.abs(group_grad - grad).max() <= 1e-12 * max(1.0, np.abs(grad).max())

    def test_a_group_fits_each_fold_as_alone(self):
        rng = np.random.default_rng(5)
        log = InternedLog(make_log([
            [make_event(name="a", label=("alpha", "beta")[rng.integers(2)]) for _ in range(T)]
            for T in (5, 3, 6, 4, 2)
        ]).traces)
        folds = [[0], [1, 2], [3], [4]]
        catalogs = [
            FeatureCatalog(
                labels=("alpha", "beta"),
                observation_features=tuple(
                    FeatureDef("bias", ("alpha", "beta")[i % 2]) for i in range(k)
                ),
                config=CatalogConfig(),
            )
            for k in (1, 3, 2, 2)
        ]
        observations = []
        for catalog in catalogs:
            matrix = rng.normal(0, 1, (log.n_events, catalog.n_observation_features))
            matrix[:, 0] = 1.0
            observations.append(matrix)
        # the third fold starts where its objective is +inf
        initials = [None, rng.normal(0, 0.5, catalogs[1].n_features),
                    subnormal_weights(catalogs[2]), None]
        config = OwlqnConfig(max_iterations=40)
        group = fold_batch_of(log, folds, catalogs, observations)
        values = []
        outcomes = crf.fit_group(group, 0.05, config, initials, values.append)

        assert isinstance(outcomes[2], OptimizationError)
        [failed] = crf.fit_group(group.subset([2]), 0.05, config, [initials[2]])
        assert isinstance(failed, OptimizationError)
        for b in (0, 1, 3):
            alone_values = []
            [alone] = crf.fit_group(
                group.subset([b]), 0.05, config, [initials[b]], alone_values.append
            )
            assert len(alone_values) == alone.training.evaluations
            assert outcomes[b].catalog is catalogs[b]
            assert outcomes[b].weights.tobytes() == alone.weights.tobytes()
            assert outcomes[b].training == alone.training
        # the folds stop in different rounds, so the group was compacted
        assert len({outcomes[b].training.evaluations for b in (0, 1, 3)}) > 1
        # every value of every pass reaches the hook: one start value for
        # the fold that failed, every evaluation of the others
        assert len(values) == 1 + sum(outcomes[b].training.evaluations for b in (0, 1, 3))

    def test_a_group_is_not_one_objective(self):
        log = InternedLog(make_log([[make_event(name="a", label="alpha")]] * 2).traces)
        catalog = two_label_catalog()
        group = fold_batch_of(log, [[0], [1]], [catalog] * 2, [np.ones((2, 1))] * 2)
        with pytest.raises(ValueError, match="problems"):
            crf.nll_and_gradients([np.zeros(catalog.n_features)], group)

    def test_folds_must_share_a_label_count(self):
        log = InternedLog(make_log([[make_event(name="a", label="alpha")]] * 2).traces)
        three = FeatureCatalog(
            labels=("alpha", "beta", "gamma"),
            observation_features=(FeatureDef("bias", "beta"),),
            config=CatalogConfig(),
        )
        with pytest.raises(ValueError, match="label"):
            fold_batch_of(log, [[0], [1]], [two_label_catalog(), three], [np.ones((2, 1))] * 2)


def random_fold_group(n_labels, lengths, kinds, seed):
    """The group batch of :func:`fold_group_case` and its weights."""
    log, folds, catalogs, observations, weights = fold_group_case(n_labels, lengths, kinds, seed)
    return fold_batch_of(log, folds, catalogs, observations), weights


class TestPhases:
    """The value phase gives the values of ``nll_and_gradients`` wherever
    they are finite, and the gradient phase, whichever problems ask for it,
    their gradients, bit for bit, on a group and on a compacted group after
    a pass at other weights; a subset has buffers of its own, so evaluating
    it leaves the group's pending gradients as they were; a fit runs the
    gradient phase only where the optimizer asks."""

    bits = staticmethod(TestBufferReuse.bits)

    @staticmethod
    def check(batch, weights, asking):
        eager = crf.nll_and_gradients(weights, batch)
        values, gradients = crf._value_phase(weights, batch)
        for value, (eager_value, _) in zip(values, eager):
            if np.isfinite(eager_value):
                assert np.float64(value).tobytes() == np.float64(eager_value).tobytes()
            elif value == np.inf:
                assert eager_value == np.inf
        for b in asking:
            assert gradients()[b].tobytes() == eager[b][1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n_labels=st.integers(2, 4),
        lengths=st.lists(st.integers(0, 7), min_size=2, max_size=7),
        kinds=st.lists(FOLD_KINDS, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_labels=2, lengths=[3, 7, 5, 6], kinds=["longest", "one", "infinite"], seed=0)
    @example(n_labels=3, lengths=[0, 0], kinds=["one", "several"], seed=1)
    def test_phases_give_the_eager_bits(self, n_labels, lengths, kinds, seed):
        group, weights = random_fold_group(n_labels, lengths, kinds, seed)
        rng = np.random.default_rng(seed)
        B = len(weights)
        asking = rng.choice(B, int(rng.integers(0, B + 1)), replace=False).tolist()
        self.check(group, weights, asking)
        kept = sorted(rng.choice(B, int(rng.integers(1, B + 1)), replace=False).tolist())
        compacted = group.subset(kept)
        points = [weights[b] for b in kept]
        crf._value_phase([0.5 * w for w in points], compacted)
        self.check(compacted, points, rng.permutation(len(kept)).tolist())

    @settings(max_examples=60, deadline=None)
    @given(
        n_labels=st.integers(2, 4),
        lengths=st.lists(st.integers(0, 7), min_size=2, max_size=7),
        kinds=st.lists(FOLD_KINDS, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_labels=2, lengths=[3, 7, 5, 6], kinds=["longest", "one", "infinite"], seed=0)
    @example(n_labels=3, lengths=[0, 0], kinds=["infinite", "one"], seed=1)
    def test_a_subset_leaves_the_group_pending_gradients(self, n_labels, lengths, kinds, seed):
        group, weights = random_fold_group(n_labels, lengths, kinds, seed)
        rng = np.random.default_rng(seed)
        eager = [g.tobytes() for _, g in crf.nll_and_gradients(weights, group)]
        _, gradients = crf._value_phase(weights, group)
        B = len(weights)
        kept = sorted(rng.choice(B, int(rng.integers(1, B + 1)), replace=False).tolist())
        subset = group.subset(kept)
        _, subset_gradients = crf._value_phase([0.5 * weights[b] for b in kept], subset)
        subset_gradients()
        assert [g.tobytes() for g in gradients()] == eager
        # the packing (offsets, prev) is shared and never written
        own = [
            v for k, v in vars(subset).items()
            if isinstance(v, np.ndarray) and k not in ("offsets", "prev")
        ]
        held = [v for v in vars(group).values() if isinstance(v, np.ndarray)]
        assert not any(np.shares_memory(a, b) for a in own for b in held)

    def test_a_stale_gradient_phase_raises(self):
        group, weights = random_fold_group(3, [4, 2, 5], ["one", "several"], 3)
        values, gradients = crf._value_phase(weights, group)
        first = gradients()
        assert gradients() is first  # the phase runs once
        crf._value_phase([2.0 * w for w in weights], group)
        with pytest.raises(RuntimeError, match="other weights"):
            gradients()
        _, fresh = crf._value_phase(weights, group)
        assert [g.tobytes() for g in fresh()] == [g.tobytes() for g in first]

    def test_a_round_of_a_fit_releases_the_last_rounds_batch(self, monkeypatch):
        # the objective fit_group hands the optimizer, driven by hand: once
        # the next round starts, the last round's providers hold nothing,
        # so a spent subset is freed before the next one is laid out, and a
        # provider called late raises
        group, weights = random_fold_group(3, [4, 2, 5], ["one", "several", "longest"], 3)
        objectives, subsets = [], []
        take = crf.TrainingBatch.subset

        def recorded(batch, problems):
            subset = take(batch, problems)
            subsets.append(weakref.ref(subset))
            return subset

        def driven(objective, dims, *rest):
            objectives.append(objective)
            return [OptimizationError("not run")] * len(dims)

        monkeypatch.setattr(crf.TrainingBatch, "subset", recorded)
        monkeypatch.setattr(crf, "minimize_lockstep", driven)
        crf.fit_group(group, 0.1)
        (objective,) = objectives
        eager = crf.nll_and_gradients(weights, group)
        [(_, first)] = objective([0, 2], [weights[0], weights[2]])[:1]
        assert first().tobytes() == eager[0][1].tobytes()
        [(_, second)] = objective([2], [weights[2]])
        assert subsets[0]() is None and subsets[1]() is not None
        with pytest.raises(RuntimeError, match="round of these values is over"):
            first()
        assert second().tobytes() == eager[2][1].tobytes()

    def test_a_fit_runs_the_gradient_phase_only_where_asked(self, monkeypatch):
        # a 150-trace household fit with the criterion-7 catalog and optimizer
        from eventabs.petri import generate_annotated_log, medicine_eating_process

        log = generate_annotated_log(medicine_eating_process(), 150, seed=11)
        catalog = build_catalog(
            log, CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3)
        )
        phase, finite = crf._backward_gradients, []

        def counted(*args):
            gradients = phase(*args)
            finite.append(all(np.isfinite(g).all() for g in gradients))
            return gradients

        monkeypatch.setattr(crf, "_backward_gradients", counted)
        values: list[float] = []
        model = crf.train(
            log, catalog, 0.1, OwlqnConfig(max_iterations=60, tolerance=1e-5), values.append
        )
        result = model.training
        accepted = result.iterations - (result.stop in ("stationary", "line_search_failed"))
        assert len(values) == result.evaluations
        # the start point, each accepted trial and each trial whose value
        # passed but whose gradient is not finite
        assert len(finite) == 1 + accepted + finite.count(False) < result.evaluations

    def test_fit_group_needs_one_initial_per_problem(self):
        group, _ = random_fold_group(2, [3, 4, 2], ["one", "one"], 5)
        with pytest.raises(ValueError, match="initial points for 2 problems"):
            crf.fit_group(group, 0.1, OwlqnConfig(max_iterations=3), [None])


class TestObjectiveAgainstReference:
    """The objective's front and tail in array form give every problem of
    a group the bits of the per-problem reference, which evaluates it alone
    on the same packing, counts and checks one by one
    (``oracles.nll_and_gradient_reference``); also after the group is
    compacted."""

    bits = staticmethod(TestBufferReuse.bits)

    @settings(max_examples=60, deadline=None)
    @given(
        n_labels=st.integers(2, 4),
        lengths=st.lists(st.integers(0, 7), min_size=2, max_size=7),
        kinds=st.lists(FOLD_KINDS, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_labels=2, lengths=[3, 7, 5, 6], kinds=["longest", "one", "infinite"], seed=0)
    @example(n_labels=4, lengths=[7, 2, 6, 0, 6], kinds=["longest", "all_but_one"], seed=1)
    @example(n_labels=3, lengths=[0, 4, 0], kinds=["all_but_one", "several", "infinite"], seed=2)
    @example(n_labels=2, lengths=[0, 0], kinds=["infinite", "one", "several"], seed=3)
    def test_every_problem_gets_the_reference_bits(self, n_labels, lengths, kinds, seed):
        group, weights = random_fold_group(n_labels, lengths, kinds, seed)

        def reference(batch, points):
            return [
                self.bits(nll_and_gradient_reference(w, problem, batch.n, batch.offsets))
                for w, problem in zip(points, batch.problems)
            ]

        results = crf.nll_and_gradients(weights, group)
        assert [self.bits(r) for r in results] == reference(group, weights)
        kept = list(range(len(weights)))[1::2] or [0]
        compacted = group.subset(kept)
        points = [weights[b] for b in kept]
        crf.nll_and_gradients([0.5 * w for w in points], compacted)
        assert [self.bits(r) for r in crf.nll_and_gradients(points, compacted)] == reference(
            compacted, points
        )


# 7 labels and 20 bias features, for the memory tests
LONG_TRACE_CATALOG = FeatureCatalog(
    labels=LABEL_POOL,
    observation_features=tuple(FeatureDef("bias", LABEL_POOL[i % 7]) for i in range(20)),
    config=CatalogConfig(),
)


class TestMemory:
    def test_training_peak_grows_linearly_with_one_long_trace(self):
        # one trace of N events has N steps, so the batch's per-step views
        # (about 0.8 kB a step) weigh as much as its rows. Measured peaks of
        # building the batch plus three OWL-QN iterations (7 labels, 20
        # features): 2.67 MB at N = 2000 and 5.03 MB at N = 4000, a ratio of
        # 1.88; anything padded or quadratic in the trace length shows as
        # about 4
        rng = np.random.default_rng(23)

        def peak(n_events: int) -> int:
            obs = rng.normal(0, 1, (n_events, 20))
            labels_of_events = rng.integers(0, 7, n_events)
            tracemalloc.start()
            try:
                batch = crf.TrainingBatch(
                    [n_events], [(LONG_TRACE_CATALOG, obs, labels_of_events, [True])]
                )
                crf.fit_group(batch, 0.1, OwlqnConfig(max_iterations=3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # warm-up
        short, long = peak(2000), peak(4000)
        assert long <= 2.4 * short

    def test_decoding_peak_grows_linearly_with_one_long_trace(self):
        # decoding keeps a few rows per event (emissions, delta, the
        # labels). Measured peaks of decoding one trace of N events (7
        # labels, 20 features): 0.37 MB at N = 2000 and 0.74 MB at N = 4000,
        # a ratio of 1.99; anything quadratic in the trace length shows as
        # about 4
        rng = np.random.default_rng(29)
        model = crf.CrfModel(LONG_TRACE_CATALOG, rng.normal(0, 1, LONG_TRACE_CATALOG.n_features))

        def peak(n_events: int) -> int:
            obs = rng.normal(0, 1, (n_events, 20))
            tracemalloc.start()
            try:
                crf.viterbi_decode_many(model, [obs])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # warm-up
        short, long = peak(2000), peak(4000)
        assert long <= 2.4 * short


class TestViterbiMany:
    @pytest.mark.parametrize("n_labels", [2, 7])
    @pytest.mark.parametrize("sigma", [20.0, 0.0])
    def test_equals_lone_decodes_in_input_order(self, n_labels, sigma):
        rng = np.random.default_rng(60 + n_labels)
        catalog = random_model(rng, n_labels, 6).catalog
        model = crf.CrfModel(catalog, rng.normal(0.0, sigma, catalog.n_features))
        lengths = (0,) + SKEWED_LENGTHS[:7] + (0,) + SKEWED_LENGTHS[7:] + (0,)
        observations = [rng.normal(0, 1, (T, 6)) for T in lengths]
        decoded = crf.viterbi_decode_many(model, observations)
        assert decoded == [crf.viterbi_decode(model, obs) for obs in observations]
        assert decoded == [
            [model.labels[y] for y in viterbi_per_position(*model.potentials(obs))]
            for obs in observations
        ]
        assert [len(labels) for labels in decoded] == list(lengths)
        if sigma == 0.0:
            assert all(set(labels) <= {"alpha"} for labels in decoded)

    def test_no_traces(self):
        model = random_model(np.random.default_rng(62), 3, 4)
        assert crf.viterbi_decode_many(model, []) == []
        assert crf.viterbi_decode_many(model, [np.zeros((0, 4))] * 2) == [[], []]

    @pytest.mark.parametrize("ties", [False, True])
    def test_short_traces_together_match_enumeration(self, ties):
        # with small integer weights and 0/1 observations, equal-score
        # labelings are common, so the lexicographic tie rule is exercised
        rng = np.random.default_rng(63 + ties)
        for _ in range(10):
            L = int(rng.integers(2, 5))
            model = random_model(rng, L, 4)
            if ties:
                model.weights[:] = rng.integers(-1, 2, model.catalog.n_features)
            lengths = rng.integers(0, 7, 6)
            observations = [
                rng.integers(0, 2, (T, 4)).astype(float) if ties else rng.normal(0, 1, (T, 4))
                for T in lengths
            ]
            decoded = crf.viterbi_decode_many(model, observations)
            assert len(decoded) == len(observations)
            for obs, labels in zip(observations, decoded):
                if len(obs) == 0:
                    assert labels == []
                    continue
                sequences, scores = oracle_inputs(model, obs)
                expected = argmax_lexicographic(sequences, scores)
                assert tuple(model.catalog.label_index[l] for l in labels) == expected

    @pytest.mark.parametrize("shift", [0.0548, 1.0 / 3.0, -0.7, 12.345])
    @pytest.mark.parametrize("with_begin_row", [True, False])
    def test_transition_shift_keeps_tied_decodes(self, shift, with_begin_row):
        # a constant on the whole transition block adds shift * T to every
        # labeling of a length-T trace, and one on the label-to-label rows
        # alone shift * (T - 1): the integer ties of the test above stay
        # ties in exact arithmetic, though not bit for bit
        rng = np.random.default_rng(64)
        for _ in range(10):
            L = int(rng.integers(2, 5))
            model = random_model(rng, L, 4)
            model.weights[:] = rng.integers(-1, 2, model.catalog.n_features)
            observations = [
                rng.integers(0, 2, (T, 4)).astype(float) for T in rng.integers(0, 7, 6)
            ]
            shifted = model.weights.copy()
            end = model.catalog.n_features if with_begin_row else -model.catalog.n_labels
            shifted[model.catalog.n_observation_features:end] += shift
            assert crf.viterbi_decode_many(
                crf.CrfModel(model.catalog, shifted), observations
            ) == crf.viterbi_decode_many(model, observations)


class TestTraining:
    def separable_log(self):
        rows = [("MC", "Taking medicine"), ("W", "Taking medicine"), ("D", "Eating")]
        return make_log([
            sequence_trace(rows, with_time=False),
            sequence_trace(rows[::-1], with_time=False),
            sequence_trace(rows + rows, with_time=False),
        ])

    def test_separable_data_reaches_perfect_training_accuracy(self):
        log = self.separable_log()
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,)))
        model = crf.train(log, catalog, l1_coefficient=0.1)
        from eventabs.features import evaluate_observations

        for trace in log.traces:
            decoded = crf.viterbi_decode(model, evaluate_observations(catalog, trace))
            assert decoded == [ev.label for ev in trace.events]

    def test_huge_penalty_zeroes_weights_and_uniform_tiebreak(self):
        log = self.separable_log()
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,)))
        model = crf.train(log, catalog, l1_coefficient=1e6)
        assert model.nonzero_weight_count == 0
        from eventabs.features import evaluate_observations

        decoded = crf.viterbi_decode(
            model, evaluate_observations(catalog, log.traces[0])
        )
        assert decoded == ["Eating"] * 3  # first label in sorted alphabet

    def test_training_deterministic(self):
        log = self.separable_log()
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,)))
        a = crf.train(log, catalog, l1_coefficient=0.05)
        b = crf.train(log, catalog, l1_coefficient=0.05)
        assert np.array_equal(a.weights, b.weights)

    def test_weight_vector_length_checked(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, 2, 3)
        with pytest.raises(ValueError, match="catalog size"):
            crf.CrfModel(model.catalog, np.zeros(model.catalog.n_features + 1))

    def test_sparsity_increases_with_penalty(self):
        from eventabs.petri import generate_annotated_log, medicine_eating_process

        log = generate_annotated_log(medicine_eating_process(), 20, seed=3)
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1, 2), time_views=("day",)))
        relaxed = crf.train(log, catalog, l1_coefficient=0.01)
        strict = crf.train(log, catalog, l1_coefficient=100.0)
        assert strict.nonzero_weight_count < relaxed.nonzero_weight_count


class TestTwoLabelGauge:
    """With two labels every non-bias block row has p(T) = 1 - p(E), so
    moving +a/-a on one family's (E, T) weights and -a/+a on another's
    shifts both labels' scores by the same amount at every position:
    p(y|x) does not change, and the optimum of the objective is not a point
    (see the ``features`` module docstring)."""

    @pytest.fixture(scope="class")
    def setup(self):
        from eventabs.petri import generate_annotated_log, medicine_eating_process

        log = generate_annotated_log(medicine_eating_process(), 60, seed=7)
        catalog = build_catalog(
            log, CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3)
        )
        assert catalog.n_labels == 2
        pairs = crf.training_pairs(log, catalog)
        weights = np.random.default_rng(7).normal(0.0, 1.0, catalog.n_features)
        return catalog, training_batch_of(catalog, pairs), [obs for obs, _ in pairs], weights

    @staticmethod
    def moved(catalog, weights, first, second, a):
        """The weights with +a/-a on ``first``'s (E, T) pair and -a/+a on
        ``second``'s; a family is named by (family, n, view)."""
        out = weights.copy()
        E, T = catalog.labels
        for (family, n, view), sign in ((first, a), (second, -a)):
            for label, signed in ((E, sign), (T, -sign)):
                [k] = [
                    k for k, d in enumerate(catalog.observation_features)
                    if (d.family, d.n, d.view, d.label) == (family, n, view, label)
                ]
                out[k] += signed
        return out

    @staticmethod
    def decodes(catalog, weights, observations):
        return crf.viterbi_decode_many(crf.CrfModel(catalog, weights), observations)

    @pytest.mark.parametrize("first, second", [
        (("concept_ngram", 1, ""), ("concept_ngram", 2, "")),
        (("concept_ngram", 3, ""), ("time_view", 0, "day")),
    ])
    @pytest.mark.parametrize("a", [0.1, 1.0, 5.0])
    def test_opposite_moves_on_two_families_are_flat(self, setup, first, second, a):
        catalog, batch, observations, weights = setup
        shifted = self.moved(catalog, weights, first, second, a)
        base, _ = crf.nll_and_gradients([weights], batch)[0]
        value, _ = crf.nll_and_gradients([shifted], batch)[0]
        assert abs(value - base) <= 1e-11 * abs(base)
        assert (self.decodes(catalog, shifted, observations)
                == self.decodes(catalog, weights, observations))

    def test_a_bias_move_is_not_flat(self, setup):
        # bias is constant 1 in both columns, not a distribution over labels
        catalog, batch, _, weights = setup
        shifted = self.moved(catalog, weights, ("bias", 0, ""), ("concept_ngram", 1, ""), 1.0)
        base, _ = crf.nll_and_gradients([weights], batch)[0]
        value, _ = crf.nll_and_gradients([shifted], batch)[0]
        assert abs(value - base) > 1.0


class TestOptimumAgainstLbfgsb:
    """OWL-QN's composite NLL + C * |w|_1 at return against SciPy's
    L-BFGS-B on the split form (``l1_lbfgsb_reference``)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_small_random_crf(self, seed):
        # labels drawn position by position from a random model's node
        # marginals, so the data carry signal for the fit to find
        rng = np.random.default_rng(700 + seed)
        n_labels, n_obs = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        model = random_model(rng, n_labels, n_obs)
        pairs = []
        for T in rng.integers(1, 12, size=20):
            obs = rng.normal(0, 1, (T, n_obs))
            node, _ = crf.posterior_marginals(model, obs)
            labels = [rng.choice(n_labels, p=p / p.sum()) for p in node]
            pairs.append((obs, np.array(labels, dtype=np.intp)))
        c = float(rng.uniform(0.05, 1.0))
        batch = training_batch_of(model.catalog, pairs)

        def objective(w):
            return crf.nll_and_gradients([w], batch)[0]

        n = model.catalog.n_features
        _, result = minimize(objective, n, l1_coefficient=c)
        _, reference = l1_lbfgsb_reference(objective, n, c)
        assert result.objective <= reference * (1 + 1e-6)

    def test_reference_fit(self):
        # the household log of the acceptance tests, its catalog, C = 0.1
        # and the default optimizer config
        from eventabs.petri import generate_annotated_log, medicine_eating_process

        log = generate_annotated_log(medicine_eating_process(), 200, seed=7)
        catalog = build_catalog(
            log, CatalogConfig(ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3)
        )
        trained = crf.train(log, catalog, l1_coefficient=0.1)
        batch = training_batch_of(catalog, crf.training_pairs(log, catalog))
        _, reference = l1_lbfgsb_reference(
            lambda w: crf.nll_and_gradients([w], batch)[0], catalog.n_features, 0.1
        )
        assert trained.training.objective <= reference * (1 + 2e-5)
