"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import os
import time

import numpy as np
import pytest

from eventabs import crf
from eventabs.abstraction import (
    AbstractionConfig,
    annotate,
    collapse,
    load_model,
    save_model,
    strip_labels,
)
from eventabs.evaluation import (
    EvalConfig,
    collapse_runs,
    leave_one_trace_out,
    levenshtein_distance,
    levenshtein_similarity,
)
from eventabs.features import CatalogConfig, FeatureCatalog, FeatureDef, build_catalog
from eventabs.owlqn import OwlqnConfig, minimize
from eventabs.petri import generate_annotated_log, medicine_eating_process
from eventabs.stats import gmm_fit_em, gmm_select_bic
from eventabs.xes import EventLog, parse_xes, serialize_xes

from factories import training_batch_of
from oracles import (
    argmax_lexicographic,
    enumerate_sequence_scores,
    log_sum_exp,
)
from test_abstraction import expected_household_high_level
from test_xes import annotated_household_trace

LABEL_POOL = ("alpha", "beta", "gamma", "delta")

# Synthetic experiment settings: the catalog keeps the concept and time
# families the household log possesses, trimmed to the runtime budget
# (ngrams 1-3, day view, k_max 3, 60 optimizer iterations, C = 0.1).
EXPERIMENT_CONFIG = EvalConfig(
    abstraction=AbstractionConfig(
        catalog=CatalogConfig(
            ngram_sizes=(1, 2, 3), time_views=("day",), gmm_max_components=3
        ),
        l1_coefficient=0.1,
        optimizer=OwlqnConfig(max_iterations=60, tolerance=1e-5),
    ),
    n_jobs=min(2, os.cpu_count() or 1),
)

# Values achieved on the seeded reference run, pinned as regression bounds
# (alternation bound sits one trace below the achieved 200/200 to absorb
# float-library variance).
PINNED_MEAN_SIMILARITY = 0.98
PINNED_ALTERNATION_FRACTION = 0.995


def report_pass(number: int, title: str, started: float) -> None:
    print(f"\nACCEPTANCE {number} ({title}): PASS in {time.monotonic() - started:.1f}s")


def random_model(rng, n_labels, n_obs_features):
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


@pytest.fixture(scope="module")
def synthetic_log() -> EventLog:
    return generate_annotated_log(medicine_eating_process(), 200, seed=7)


def test_criterion_1_inference_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n_labels = int(rng.integers(2, 5))
        T = int(rng.integers(1, 7))
        F = int(rng.integers(1, 7))
        model = random_model(rng, n_labels, F)
        obs = rng.normal(0, 1, (T, F))
        idx = [model.catalog.label_index[d.label] for d in model.catalog.observation_features]
        sequences, scores = enumerate_sequence_scores(
            obs, model.weights, idx, n_labels
        )
        log_z_oracle = log_sum_exp(scores)

        assert crf.log_partition(model, obs) == pytest.approx(log_z_oracle, rel=1e-9)

        probe = sequences[int(rng.integers(len(sequences)))]
        log_prob = crf.sequence_log_prob(
            model, obs, [model.labels[i] for i in probe]
        )
        oracle_log_prob = scores[sequences.index(probe)] - log_z_oracle
        assert log_prob == pytest.approx(oracle_log_prob, rel=1e-9, abs=1e-12)

        probs = np.exp(scores - log_z_oracle)
        node_oracle = np.zeros((T, n_labels))
        edge_oracle = np.zeros((max(T - 1, 0), n_labels, n_labels))
        for seq, p in zip(sequences, probs):
            for t, y in enumerate(seq):
                node_oracle[t, y] += p
                if t:
                    edge_oracle[t - 1, seq[t - 1], y] += p
        node, edge = crf.posterior_marginals(model, obs)
        assert np.allclose(node, node_oracle, rtol=1e-9, atol=1e-9)
        assert np.allclose(edge, edge_oracle, rtol=1e-9, atol=1e-9)

        decoded = crf.viterbi_decode(model, obs)
        expected = argmax_lexicographic(sequences, scores)
        assert tuple(model.catalog.label_index[l] for l in decoded) == expected

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report_pass(1, "inference oracle equivalence", started)


def test_criterion_2_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(4096)
    for _ in range(20):
        n_labels = int(rng.integers(2, 4))
        F = int(rng.integers(1, 8))
        model = random_model(rng, n_labels, F)
        layout = model.catalog
        assert layout.n_features <= 50
        pairs = []
        for _ in range(int(rng.integers(1, 4))):
            T = int(rng.integers(1, 6))
            pairs.append((
                rng.normal(0, 1, (T, F)),
                rng.integers(0, n_labels, T).astype(np.intp),
            ))
        batch = training_batch_of(layout, pairs)
        weights = rng.normal(0, 1, layout.n_features)
        _, analytic = crf.nll_and_gradients([weights], batch)[0]
        eps = 1e-6
        numeric = np.zeros_like(weights)
        for i in range(len(weights)):
            plus, minus = weights.copy(), weights.copy()
            plus[i] += eps
            minus[i] -= eps
            numeric[i] = (
                crf.nll_and_gradients([plus], batch)[0][0]
                - crf.nll_and_gradients([minus], batch)[0][0]
            ) / (2 * eps)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report_pass(2, "gradient matches central differences", started)


def test_criterion_3_optimizer_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(77)
    for _ in range(10):
        dim = int(rng.integers(5, 40))
        b = rng.normal(0, 2, dim)
        c = float(rng.uniform(0.05, 1.5))

        def objective(x, b=b):
            d = x - b
            return 0.5 * float(d @ d), d

        x, _ = minimize(objective, dim, l1_coefficient=c)
        expected = np.sign(b) * np.maximum(np.abs(b) - c, 0.0)
        assert np.abs(x - expected).max() < 1e-6

    for _ in range(5):
        dim = int(rng.integers(2, 6))
        m = rng.normal(0, 1, (dim, dim))
        a = m @ m.T + dim * np.eye(dim)
        b = rng.normal(0, 1, dim)

        def objective(x, a=a, b=b):
            return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

        x, _ = minimize(objective, dim, OwlqnConfig())
        assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-6

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report_pass(3, "OWL-QN closed-form equivalence", started)


def test_criterion_4_sparsity_behavior(synthetic_log):
    started = time.monotonic()
    catalog = build_catalog(synthetic_log, EXPERIMENT_CONFIG.abstraction.catalog)
    relaxed = crf.train(
        synthetic_log, catalog, l1_coefficient=0.01,
        optimizer_config=EXPERIMENT_CONFIG.abstraction.optimizer,
    )
    strict = crf.train(
        synthetic_log, catalog, l1_coefficient=100.0,
        optimizer_config=EXPERIMENT_CONFIG.abstraction.optimizer,
    )
    assert strict.nonzero_weight_count < relaxed.nonzero_weight_count
    report_pass(4, "nonzero weights shrink with stronger L1", started)


def test_criterion_5_statistical_estimators():
    started = time.monotonic()

    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        xs = np.concatenate([
            rng.normal(0, 1, 80), rng.normal(6, 2, 80), rng.normal(-4, 0.5, 40)
        ])
        fit = gmm_fit_em(xs, k=3, seed=seed)
        diffs = np.diff(np.asarray(fit.ll_trajectory))
        assert np.all(diffs >= -1e-9)

    single_hits = 0
    double_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        xs1 = rng.normal(0, 1, 500)
        if gmm_select_bic(xs1, k_max=3, seed=seed).n_components == 1:
            single_hits += 1
        xs2 = np.concatenate([rng.normal(0, 1, 250), rng.normal(50, 1, 250)])
        if gmm_select_bic(xs2, k_max=4, seed=seed).n_components == 2:
            double_hits += 1
    assert single_hits >= 18
    assert double_hits >= 18

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report_pass(5, "EM monotone, BIC selects true k", started)


def test_criterion_6_collapse_fidelity():
    started = time.monotonic()
    result = collapse(EventLog(traces=[annotated_household_trace()]))
    assert len(result.traces[0].events) == 6
    expected_log = EventLog(
        extensions={"Concept", "Time", "Lifecycle"},
        classifiers={"Activity": ("concept:name",)},
        global_event_attributes=result.global_event_attributes,
        traces=[expected_household_high_level()],
    )
    assert serialize_xes(result) == serialize_xes(expected_log)
    report_pass(6, "exact collapse of the annotated household trace", started)


def majority_of(counts: dict[str, int]) -> str:
    return max(sorted(counts), key=lambda label: counts[label])


def baseline_similarities(log: EventLog) -> tuple[float, float]:
    """Leave-one-trace-out means for the majority-label and the
    per-concept-name lookup baselines."""
    truth = [[ev.label for ev in tr.events] for tr in log.traces]
    names = [[ev.name for ev in tr.events] for tr in log.traces]
    majority_sims, lookup_sims = [], []
    for i in range(len(log.traces)):
        label_counts: dict[str, int] = {}
        per_name: dict[str, dict[str, int]] = {}
        for j in range(len(log.traces)):
            if j == i:
                continue
            for name, label in zip(names[j], truth[j]):
                label_counts[label] = label_counts.get(label, 0) + 1
                bucket = per_name.setdefault(name, {})
                bucket[label] = bucket.get(label, 0) + 1
        overall = majority_of(label_counts)
        majority_pred = [overall] * len(truth[i])
        lookup_pred = [
            majority_of(per_name[n]) if n in per_name else overall
            for n in names[i]
        ]
        majority_sims.append(levenshtein_similarity(truth[i], majority_pred))
        lookup_sims.append(levenshtein_similarity(truth[i], lookup_pred))
    return float(np.mean(majority_sims)), float(np.mean(lookup_sims))


def test_criterion_7_end_to_end_synthetic_experiment(synthetic_log):
    started = time.monotonic()
    report = leave_one_trace_out(synthetic_log, EXPERIMENT_CONFIG)
    majority_mean, lookup_mean = baseline_similarities(synthetic_log)

    # (a) the CRF strictly beats both baselines; the shared DCC event type
    # makes the lookup baseline imperfect by construction
    assert report.mean_similarity > majority_mean
    assert report.mean_similarity > lookup_mean
    assert lookup_mean < 1.0
    assert report.mean_similarity >= PINNED_MEAN_SIMILARITY

    # (b) collapsed predicted run labels alternate per the generator's
    # high-level structure (start and end on "Taking medicine")
    lengths = [len(tr.events) for tr in synthetic_log.traces]
    offsets = np.cumsum([0] + lengths)
    alternating = 0
    for i in range(len(lengths)):
        predicted = [
            r.predicted_label for r in report.records[offsets[i]:offsets[i + 1]]
        ]
        runs = collapse_runs(predicted)
        ok = (
            runs[0] == "Taking medicine"
            and runs[-1] == "Taking medicine"
            and all(a != b for a, b in zip(runs, runs[1:]))
            and set(runs) <= {"Taking medicine", "Eating"}
        )
        alternating += ok
    fraction = alternating / len(lengths)
    assert fraction >= 0.90
    assert fraction >= PINNED_ALTERNATION_FRACTION

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(
        f"\n  crf={report.mean_similarity:.4f} majority={majority_mean:.4f} "
        f"lookup={lookup_mean:.4f} alternating={fraction:.4f}"
    )
    report_pass(7, "synthetic experiment beats both baselines", started)


def test_criterion_8_levenshtein_metric():
    started = time.monotonic()
    assert levenshtein_similarity(tuple("kitten"), tuple("sitting")) == pytest.approx(
        1 - 3 / 7
    )
    rng = np.random.default_rng(8)
    alphabet = np.array(["a", "b", "c", "d"])
    def sample():
        return tuple(alphabet[rng.integers(0, 4, rng.integers(0, 9))])
    for _ in range(200):
        a, b = sample(), sample()
        assert levenshtein_similarity(a, b) == levenshtein_similarity(b, a)
        assert (levenshtein_similarity(a, b) == 1.0) == (a == b)
    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report_pass(8, "Levenshtein similarity metric properties", started)


def test_criterion_9_round_trips(tmp_path, synthetic_log):
    started = time.monotonic()
    corpus = generate_annotated_log(medicine_eating_process(), 30, seed=13)
    assert parse_xes(serialize_xes(corpus)) == corpus

    from eventabs.abstraction import fit

    model = fit(corpus, EXPERIMENT_CONFIG.abstraction)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    probe = strip_labels(generate_annotated_log(medicine_eating_process(), 10, seed=21))
    direct = annotate(model, probe)
    reloaded = annotate(loaded, probe)
    assert serialize_xes(direct) == serialize_xes(reloaded)
    assert parse_xes(serialize_xes(direct)) == direct
    report_pass(9, "XES and model round trips are prediction-identical", started)
