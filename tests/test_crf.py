"""Inference against exhaustive enumeration, gradients against finite
differences, and training behavior."""

import warnings

import numpy as np
import pytest

from eventabs import crf
from eventabs.features import CatalogConfig, FeatureCatalog, FeatureDef, build_catalog
from eventabs.owlqn import OwlqnConfig, minimize

from factories import make_log, sequence_trace
from oracles import (
    argmax_lexicographic,
    enumerate_sequence_scores,
    l1_lbfgsb_reference,
    log_sum_exp,
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
        from eventabs.crf import _log_partition_backward, _log_partition_forward

        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_model(rng, 3, 5)
            obs = rng.normal(0, 1, (int(rng.integers(1, 9)), 5))
            emissions, trans = model.potentials(obs)
            forward = _log_partition_forward(emissions, trans)
            backward = _log_partition_backward(emissions, trans)
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
    def finite_difference(self, weights, pairs, layout, eps=1e-6):
        grad = np.zeros_like(weights)
        for i in range(len(weights)):
            plus, minus = weights.copy(), weights.copy()
            plus[i] += eps
            minus[i] -= eps
            grad[i] = (
                crf.nll_and_gradient(plus, pairs, layout)[0]
                - crf.nll_and_gradient(minus, pairs, layout)[0]
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
                pairs.append(crf.LabeledPair(
                    rng.normal(0, 1, (T, F)),
                    rng.integers(0, L, T).astype(np.intp),
                ))
            weights = rng.normal(0, 1, layout.n_features)
            _, analytic = crf.nll_and_gradient(weights, pairs, layout)
            numeric = self.finite_difference(weights, pairs, layout)
            scale = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-5

    def test_value_at_zero_weights(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 3, 4)
        layout = model.catalog
        pairs = [
            crf.LabeledPair(rng.normal(0, 1, (4, 4)), np.array([0, 1, 2, 0])),
            crf.LabeledPair(rng.normal(0, 1, (2, 4)), np.array([2, 2])),
        ]
        value, _ = crf.nll_and_gradient(np.zeros(layout.n_features), pairs, layout)
        assert value == pytest.approx((4 + 2) * np.log(3), rel=1e-12)

    def test_duplicating_pairs_doubles(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, 2, 3)
        layout = model.catalog
        pairs = [
            crf.LabeledPair(rng.normal(0, 1, (3, 3)), np.array([0, 1, 1])),
            crf.LabeledPair(rng.normal(0, 1, (5, 3)), np.array([1, 0, 0, 1, 0])),
        ]
        weights = rng.normal(0, 1, layout.n_features)
        v1, g1 = crf.nll_and_gradient(weights, pairs, layout)
        v2, g2 = crf.nll_and_gradient(weights, pairs + pairs, layout)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)
        assert np.allclose(g2, 2 * g1, rtol=1e-12, atol=1e-12)

    def test_batched_equals_sequential_sum(self):
        rng = np.random.default_rng(19)
        model = random_model(rng, 3, 5)
        layout = model.catalog
        pairs = []
        for _ in range(7):
            T = int(rng.integers(1, 8))
            pairs.append(crf.LabeledPair(
                rng.normal(0, 1, (T, 5)), rng.integers(0, 3, T).astype(np.intp)
            ))
        weights = rng.normal(0, 1, layout.n_features)
        batched_v, batched_g = crf.nll_and_gradient(weights, pairs, layout)
        seq_v = 0.0
        seq_g = np.zeros(layout.n_features)
        for pair in pairs:
            v, g = crf.nll_and_gradient(weights, [pair], layout)
            seq_v += v
            seq_g += g
        assert batched_v == pytest.approx(seq_v, rel=1e-9)
        assert np.allclose(batched_g, seq_g, rtol=1e-9, atol=1e-9)


SKEWED_LENGTHS = (300, 1, 2, 1, 3, 5, 1, 8, 13, 2, 40, 1, 120, 4)


def random_pairs(rng, lengths, n_features, n_labels):
    return [
        crf.LabeledPair(
            rng.normal(0, 1, (T, n_features)), rng.integers(0, n_labels, T).astype(np.intp)
        )
        for T in lengths
    ]


class TestPackedObjective:
    @pytest.mark.parametrize("n_labels", [2, 7])
    def test_equals_per_trace_log_space(self, n_labels):
        rng = np.random.default_rng(40 + n_labels)
        catalog = random_model(rng, n_labels, 6).catalog
        model = crf.CrfModel(catalog, rng.normal(0.0, 20.0, catalog.n_features))
        pairs = random_pairs(rng, SKEWED_LENGTHS, 6, n_labels)
        value, grad = crf.nll_and_gradient(model.weights, pairs, catalog)
        expected = -sum(
            crf.sequence_log_prob(model, p.observations, [model.labels[i] for i in p.labels])
            for p in pairs
        )
        assert value == pytest.approx(expected, rel=1e-12)
        # expected minus observed counts from the log-space marginals
        L, f_obs = catalog.n_labels, catalog.n_observation_features
        counts = np.zeros(catalog.n_features)
        trans = counts[f_obs:].reshape(L + 1, L)
        for p in pairs:
            node, edge = crf.posterior_marginals(model, p.observations)
            onehot = np.eye(L)[p.labels]
            diff = node - onehot
            counts[:f_obs] += np.einsum(
                "tf,tf->f", p.observations, diff[:, catalog.observation_labels]
            )
            trans[:L] += edge.sum(axis=0)
            np.add.at(trans, (p.labels[:-1], p.labels[1:]), -1.0)
            trans[L] += diff[0]
        assert np.allclose(grad, counts, rtol=1e-9, atol=1e-9)

    def test_underflow_returns_plus_inf_without_warning(self):
        # the +-1e3-weight case of test_log_space_stability_long_sequence_large_weights
        rng = np.random.default_rng(99)
        model = random_model(rng, 2, 3)
        model.weights[:] = np.where(model.weights > 0, 1e3, -1e3)
        obs = rng.uniform(0, 1, (10_000, 3))
        pair = crf.LabeledPair(obs, rng.integers(0, 2, 10_000).astype(np.intp))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = crf.nll_and_gradient(model.weights, [pair], model.catalog)
        assert value == np.inf

    def test_subnormal_scale_factor_returns_plus_inf(self):
        # after the max shifts, each label's begin-of-sequence factor times its
        # emission factor is exp(-720), so the one scale factor is
        # 2 * exp(-720): nonzero, but below the normal float range
        catalog = FeatureCatalog(
            labels=("alpha", "beta"),
            observation_features=(FeatureDef("bias", "beta"),),
            config=CatalogConfig(),
        )
        weights = np.zeros(catalog.n_features)
        weights[0] = 720.0  # emission of beta
        weights[-2] = 720.0  # begin-of-sequence -> alpha
        pair = crf.LabeledPair(np.ones((1, 1)), np.array([0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = crf.nll_and_gradient(weights, [pair], catalog)
        assert value == np.inf

    def test_batch_holds_one_row_per_event(self):
        rng = np.random.default_rng(41)
        catalog = random_model(rng, 3, 4).catalog
        lengths = (0, 77, 3, 0, 12, 1, 5, 30, 2, 77)
        pairs = random_pairs(rng, lengths, 4, 3)
        batch = crf.TrainingBatch(
            catalog,
            np.concatenate([p.observations for p in pairs]),
            np.concatenate([p.labels for p in pairs]),
            lengths,
        )
        live = sorted((p for p in pairs if len(p.labels)), key=lambda p: -len(p.labels))
        assert batch.n == len(live) == 8
        assert batch.obs.shape == (sum(lengths), 4)
        # position t of the i-th longest trace sits at row offsets[t] + i
        for i, p in enumerate(live):
            rows = batch.offsets[: len(p.labels)] + i
            assert np.array_equal(batch.obs[rows], p.observations)
        # nothing the batch holds grows with traces x longest trace
        padded = len(live) * max(lengths) * 4
        held = [v for v in vars(batch).values() if isinstance(v, np.ndarray)]
        assert max(v.size for v in held) == batch.obs.size < padded / 2


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

    def test_conflicting_optimizer_coefficient_is_refused(self):
        # the L1 coefficient is set by the l1_coefficient argument; an
        # optimizer config that names a different one must not be ignored
        log = self.separable_log()
        catalog = build_catalog(log, CatalogConfig(ngram_sizes=(1,)))
        with pytest.raises(ValueError, match="l1_coefficient"):
            crf.train(log, catalog, l1_coefficient=0.1,
                      optimizer_config=OwlqnConfig(l1_coefficient=0.5))
        agreeing = crf.train(log, catalog, l1_coefficient=0.5,
                             optimizer_config=OwlqnConfig(l1_coefficient=0.5))
        unset = crf.train(log, catalog, l1_coefficient=0.5, optimizer_config=OwlqnConfig())
        assert np.array_equal(agreeing.weights, unset.weights)

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
        return catalog, pairs, weights

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
    def decodes(catalog, weights, pairs):
        model = crf.CrfModel(catalog, weights)
        return crf.viterbi_decode_many(model, [p.observations for p in pairs])

    @pytest.mark.parametrize("first, second", [
        (("concept_ngram", 1, ""), ("concept_ngram", 2, "")),
        (("concept_ngram", 3, ""), ("time_view", 0, "day")),
    ])
    @pytest.mark.parametrize("a", [0.1, 1.0, 5.0])
    def test_opposite_moves_on_two_families_are_flat(self, setup, first, second, a):
        catalog, pairs, weights = setup
        shifted = self.moved(catalog, weights, first, second, a)
        base, _ = crf.nll_and_gradient(weights, pairs, catalog)
        value, _ = crf.nll_and_gradient(shifted, pairs, catalog)
        assert abs(value - base) <= 1e-11 * abs(base)
        assert self.decodes(catalog, shifted, pairs) == self.decodes(catalog, weights, pairs)

    def test_a_bias_move_is_not_flat(self, setup):
        # bias is constant 1 in both columns, not a distribution over labels
        catalog, pairs, weights = setup
        shifted = self.moved(catalog, weights, ("bias", 0, ""), ("concept_ngram", 1, ""), 1.0)
        base, _ = crf.nll_and_gradient(weights, pairs, catalog)
        value, _ = crf.nll_and_gradient(shifted, pairs, catalog)
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
            pairs.append(crf.LabeledPair(obs, np.array(labels, dtype=np.intp)))
        c = float(rng.uniform(0.05, 1.0))

        def objective(w):
            return crf.nll_and_gradient(w, pairs, model.catalog)

        n = model.catalog.n_features
        _, result = minimize(objective, n, OwlqnConfig(l1_coefficient=c))
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
        pairs = crf.training_pairs(log, catalog)
        _, reference = l1_lbfgsb_reference(
            lambda w: crf.nll_and_gradient(w, pairs, catalog), catalog.n_features, 0.1
        )
        assert trained.training.objective <= reference * (1 + 2e-5)
