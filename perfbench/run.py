"""Benchmark command for eventabs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, one fresh process each

Run from the repository root. The package is imported from ./src. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads: the LOOCV
# fold pool already runs one worker per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("loocv-household", "household-bulk", "sensor-long")
# (name, unit, better) of the end-to-end metrics printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cv_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("annotate_s", "s", "lower"),
    ("mean_similarity", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better) of the per-layer metrics printed with --trace 1. A
# layer that a workload does not run reports 0 there (petri on sensor-long,
# xes.sensor_convert on the household workloads, evaluation folds outside
# loocv-household).
LAYER_METRICS = (
    ("petri.generate_s", "s", "lower"),
    ("petri.events", "count", "lower"),
    ("xes.parse_s", "s", "lower"),
    ("xes.serialize_s", "s", "lower"),
    ("xes.bytes", "bytes", "lower"),
    ("xes.sensor_convert_s", "s", "lower"),
    ("stats.gmm_banks", "count", "lower"),
    ("stats.gmm_components", "count", "lower"),
    ("stats.multinoulli_contexts", "count", "lower"),
    ("features.build_catalog_s", "s", "lower"),
    ("features.build_catalog_calls", "count", "lower"),
    ("features.evaluate_s", "s", "lower"),
    ("features.evaluated_events", "count", "lower"),
    ("features.observation_features", "count", "lower"),
    ("crf.train_s", "s", "lower"),
    ("crf.train_self_s", "s", "lower"),
    ("crf.objective_interval_s_p50", "s", "lower"),
    ("crf.train_peak_alloc_mb", "MB", "lower"),
    ("crf.viterbi_s", "s", "lower"),
    ("crf.decoded_events", "count", "lower"),
    ("owlqn.iterations", "count", "lower"),
    ("owlqn.evaluations", "count", "lower"),
    ("owlqn.evals_per_iteration", "ratio", "lower"),
    ("owlqn.converged_fraction", "ratio", "higher"),
    ("owlqn.nonzero", "count", "lower"),
    ("abstraction.fit_s", "s", "lower"),
    ("abstraction.annotate_s", "s", "lower"),
    ("abstraction.collapse_s", "s", "lower"),
    ("abstraction.save_model_s", "s", "lower"),
    ("abstraction.load_model_s", "s", "lower"),
    ("evaluation.folds", "count", "lower"),
    ("evaluation.fold_s_p50", "s", "lower"),
    ("evaluation.fold_s_p95", "s", "lower"),
    ("evaluation.score_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.mean_similarity", "ratio", "higher"),
)


def _import_package():
    if not (ROOT / "src" / "eventabs" / "__init__.py").is_file():
        sys.exit(f"eventabs sources not found under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    return workloads


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    """Peak RSS of the largest process of the run's tree: this process or
    any child it has waited for (the LOOCV fold workers). Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(wl, workload: str, seed: int, seconds: float, sizes) -> tuple[dict | None, object]:
    """Repeat set-up and operation until ``seconds`` would be exceeded.
    Returns no metrics when the first operation raised.

    Operation i runs on inputs drawn from (seed, i), so the medians average
    over inputs as well as over timing noise: the optimizer's evaluation
    count varies by about 17% from one log to the next.

    Times are reported at a nominal host speed: every set-up and timed
    call is followed by a burst of a fixed reference computation, and its
    wall time is scaled by the speed that burst shows (hostspeed.py).
    """
    outcome = wl.Outcome(wl.HostProbe())
    setup, op = wl.SETUPS[workload], wl.OPS[workload]
    setup_times: list[float] = []
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        index = len(durations)
        start = time.perf_counter()
        inp = setup(seed, index, sizes)
        setup_times.append(outcome.host.scaled(time.perf_counter() - start))
        if index == 0:
            again = setup(seed, index, sizes)
            outcome.check(inp.fingerprint() == again.fingerprint(),
                          "the same seed reproduces the same inputs")
        try:
            op(inp, outcome, index == 0)
        except Exception:  # a failed operation ends the run and is reported
            traceback.print_exc()
            outcome.attempted += 1
            outcome.failed += 1
            break
        durations.append(time.perf_counter() - start)
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            break
    if not durations:
        return None, outcome
    if workload in wl.RUN_CHECKS:
        wl.RUN_CHECKS[workload](outcome)
    samples = dict(outcome.samples, setup_s=setup_times)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = peak_rss_mb()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(f"{workload} seed {seed}: {len(durations)} operations; mean host scale "
          f"{outcome.host.mean_scale():.4g} over {outcome.host.calls} reference calls")
    print("  per-operation samples, times scaled to the nominal host:")
    for name, v in sorted(samples.items()):
        print(f"  {name}: n {len(v)}, median {statistics.median(v):.5g}, "
              f"min {min(v):.5g}, max {max(v):.5g}")
    return metrics, outcome


def run_one(args) -> int:
    wl = _import_package()
    sizes = wl.Sizes()
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    if args.trace:
        outcome = wl.Outcome()
        per_layer, tracer = wl.traced(args.workload, args.seed, sizes, outcome)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {name: {"value": float(per_layer[name]), "unit": units[name]} for name in units}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.to_json()))
        print(f"{args.workload} traced: {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}; overhead {per_layer['trace.overhead']:.3f}x")
    else:
        metrics, outcome = measure(wl, args.workload, args.seed, args.seconds, sizes)
        if metrics is None:
            return 1
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(f"failed_fraction {outcome.failed / outcome.attempted:.4g} "
          f"({outcome.failed} of {outcome.attempted})")
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak RSS covers one run."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__)), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            print(f"$ {' '.join(command[1:])}", flush=True)
            status |= subprocess.run(command, check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
