"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

wl = run._import_package()
import hostspeed  # noqa: E402  (loads numpy, so after run)

TINY = wl.Sizes(loocv_traces=6, bulk_traces=8, sensor_train_days=2, sensor_test_days=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == list(run.LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_once_with_its_unit(workload):
    with contextlib.redirect_stdout(io.StringIO()):
        metrics, outcome = run.measure(wl, workload, seed=1, seconds=0.01, sizes=TINY)
    assert list(metrics) == [name for name, _, _ in run.END_TO_END]
    for name, unit, _ in run.END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0
    assert outcome.attempted > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_emits_every_layer_metric(workload):
    outcome = wl.Outcome()
    metrics, tracer = wl.traced(workload, 1, TINY, outcome)
    assert set(metrics) == {name for name, _, _ in run.LAYER_METRICS}
    assert outcome.failed == 0
    assert metrics["trace.overhead"] > 0


def test_fold_spans_contain_their_child_spans():
    _, tracer = wl.traced("loocv-household", 1, TINY, wl.Outcome())
    folds = tracer.named("evaluation.fold")
    assert len(folds) == min(wl.TRACED_FOLDS, TINY.loocv_traces)
    for fold in folds:
        children = tracer.children(fold)
        names = [c.name for c in children]
        for expected in ("features.build_catalog", "crf.train", "abstraction.annotate"):
            assert names.count(expected) == 1
        for child in children:
            assert fold.start <= child.start <= child.end <= fold.end
            assert child.root == fold.root
        assert tracer.self_time(fold) >= 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_reproduces_the_same_input_bytes(workload):
    setup = wl.SETUPS[workload]
    first = setup(5, 0, TINY)
    assert first.fingerprint() == setup(5, 0, TINY).fingerprint()
    assert first.fingerprint() != setup(6, 0, TINY).fingerprint()
    assert first.fingerprint() != setup(5, 1, TINY).fingerprint()


def test_household_logs_match_the_reference_lengths():
    reference = wl.inputs.household_reference(30)
    for seed in (1, 2):
        log = wl.inputs.household_log(reference, seed)
        assert [len(t.events) for t in log.traces] == [len(t.events) for t in reference.traces]
        runs = [wl.collapse_runs(labels) for labels in wl.labels_of(log)]
        assert all(r[0] == r[-1] == wl.inputs.TAKING_MEDICINE for r in runs)


def test_sensor_days_vary_in_length_and_label_every_event():
    inp = wl.sensor_setup(3, 0, wl.Sizes(sensor_train_days=5))
    lengths = [len(t.events) for t in inp.train.traces]
    assert lengths == wl.inputs.day_lengths(5, wl.subseed(3, 0, "sensor-train"))
    assert len(set(lengths)) == 5
    assert all(ev.label and ev.org("resource") for t in inp.train.traces for ev in t.events)


def test_host_probe_scales_each_call_by_the_burst_after_it():
    probe = wl.HostProbe()
    assert probe.scaled(0.0) == 0.0
    assert probe.calls == hostspeed.MIN_CALLS
    calls, seconds = probe.calls, probe.seconds
    scaled = probe.scaled(0.2)
    burst_calls, burst_s = probe.calls - calls, probe.seconds - seconds
    assert burst_calls >= hostspeed.MIN_CALLS and burst_s >= hostspeed.SHARE * 0.2
    assert scaled == pytest.approx(0.2 * hostspeed.NOMINAL_S * burst_calls / burst_s)
