"""How fast the host runs, from a fixed reference computation.

The machines the benchmark runs on share their cores with other tenants,
and their throughput drifts by tens of percent over tens of seconds: the
median fit time of one 25-second run was 0.56 s and of the next 0.92 s,
on logs of the same size and shape. So each timed call is followed by a
short burst of a fixed computation, and the benchmark reports the call's
time scaled to a nominal host speed:

    scaled = wall time * NOMINAL_S / (mean wall time of one reference call in the burst)

The reference mixes what the package spends its time on: small numpy
array operations, a forward pass over a padded batch, and interpreted
Python over dicts and strings. It belongs to the benchmark, so a change
to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# About the mean time of one reference call on the 2-vCPU x86-64 machine
# the first numbers come from. Only the ratio to it matters.
NOMINAL_S = 0.005
# Reference time spent after each timed call, as a share of that call,
# and the fewest calls that judge the host's speed for it.
SHARE = 0.1
MIN_CALLS = 3
_WARMUP_CALLS = 20

_rng = np.random.default_rng(0)
_TRANSITIONS = _rng.standard_normal((8, 8))
_PROJECTION = _rng.standard_normal((64, 8))
_BATCH = _rng.standard_normal((150, 20, 4))  # padded batch: traces x positions x labels
_BATCH_TRANSITIONS = _rng.standard_normal((4, 4))


def _lattice() -> float:
    """Small-array numpy, as in the optimizer and per-trace decoding."""
    alpha = np.zeros(8)
    for _ in range(100):
        scores = alpha[:, None] + _TRANSITIONS
        top = scores.max(axis=0)
        alpha = top + np.log(np.exp(scores - top).sum(axis=0)) - 2.0
        alpha = alpha + 1e-3 * (_PROJECTION @ alpha)[:8]
    return float(alpha.sum())


def _forward() -> float:
    """A forward pass over a padded batch, as in the CRF objective."""
    alpha = _BATCH[:, 0, :].copy()
    for t in range(1, _BATCH.shape[1]):
        scores = alpha[:, :, None] + _BATCH_TRANSITIONS[None]
        top = scores.max(axis=1)
        alpha = top + np.log(np.exp(scores - top[:, None, :]).sum(axis=1)) + _BATCH[:, t, :]
    return float(alpha.sum())


def _interpreted() -> float:
    """Interpreted Python over dicts, strings and tuples, as in feature
    evaluation and XES handling."""
    counts: dict[str, int] = {}
    pairs = []
    for i in range(1500):
        key = f"ev{i % 131}"
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i * 0.5))
    pairs.sort(key=lambda pair: (pair[0], -pair[1]))
    return float(len(pairs) + len(counts))


def reference() -> float:
    """The fixed computation: three parts of about 2 ms each on an
    unloaded host. Each part alone tracked the package's fit time less
    closely than their sum did."""
    return _lattice() + _forward() + _interpreted()


class HostProbe:
    """The reference bursts of one run."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        for _ in range(_WARMUP_CALLS):
            reference()

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` at the nominal host speed, judged by a burst of
        reference calls run right after it: SHARE of ``wall_s``, and at
        least MIN_CALLS calls."""
        start = time.perf_counter()
        calls = 0
        while True:
            reference()
            calls += 1
            elapsed = time.perf_counter() - start
            if calls >= MIN_CALLS and elapsed >= SHARE * wall_s:
                break
        self.calls += calls
        self.seconds += elapsed
        return wall_s * NOMINAL_S * calls / elapsed

    def mean_scale(self) -> float:
        """NOMINAL_S over the mean reference call of the run so far."""
        return NOMINAL_S * self.calls / self.seconds
