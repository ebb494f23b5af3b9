"""Host speed, sampled while the benchmark measures.

On a shared host the speed of this process drifts by a third or more,
over seconds and over minutes, in CPU time as much as in wall time:
neighbours contend for the cores, caches and memory it runs on, and
nothing inside the process can stop that. So the benchmark measures the
host's speed alongside the workload and reports times on a reference
host.

probe() is fixed work of about 2 ms: small matrix-vector products, small
symmetric eigenproblems, rank-one updates of a tableau-sized array, small
QR, solve and SVD calls, sorting and a little pure-Python bookkeeping, the
mix the workloads run. It calls no code of the library, so no change to
the library can move it. While a pass runs, Sampler times one probe every PERIOD_S of wall time from a
timer signal. A probe that took d seconds says the host ran at speed
ref_s / d at that moment, where ref_s is the probe's time on the
reference host (reference.json). A pass that spent `own` seconds on its
own work, outside the probes, at a mean speed `v` over its samples took
own * v seconds of the reference host. Set-up is rated the same way by a
burst of probes right after it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025   # one probe per 25 ms of wall time, under a tenth of it
BURST = 30         # probes in a row that rate the host after set-up ...
BURST_WARMUP = 5   # ... after this many untimed ones

_rng = np.random.default_rng(12345)
_MAT = _rng.standard_normal((20, 14))
_TABLEAU = _rng.standard_normal((34, 62))
_BLOCKS = [_rng.standard_normal((6, 4)) for _ in range(8)]
_WIDE = _rng.standard_normal((12, 10))
_SQUARE = _rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
_RHS = _rng.standard_normal(10)


def probe(rounds: int = 4) -> float:
    """The fixed work whose time rates the host; returns a checksum."""
    acc = 0.0
    for _ in range(rounds):
        v = np.ones(_MAT.shape[1])
        for _ in range(12):
            v = _MAT.T @ (_MAT @ v)
            v = v / float(np.abs(v).max())
        for block in _BLOCKS:
            acc += float(np.linalg.eigvalsh(block.T @ block)[-1])
        t = _TABLEAU.copy()
        for r in range(4):
            col = int(np.argmin(t[0]))
            t -= 1e-3 * np.outer(t[:, col], t[r + 1])
        counts = {}
        for j in range(60):
            counts[j] = (j * 7) % 11
        acc += sum(sorted(counts.values())) + float(v[0]) + float(t[0, 0])
        # a wider spread of numpy and LAPACK entry points: the workloads'
        # code is broad, and a narrow probe slows less than they do
        q, _ = np.linalg.qr(_WIDE)
        x = np.linalg.solve(_SQUARE, _RHS)
        s = np.linalg.svd(_WIDE, compute_uv=False)
        z = np.sort(np.abs(np.concatenate([x, s])))
        acc += float(np.linalg.norm(np.where(z > 0.5, z, 0.0))) + float(np.cumsum(z)[-1])
        acc += float(np.einsum("ij,ij->", q, q)) + float(np.unique(np.round(z, 1)).size)
    return acc


def _timed_probe() -> float:
    enabled = gc.isenabled()
    gc.disable()  # a collection of the workload's garbage is not the probe's time
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst_speed(burst_ref_s: float) -> float:
    """The host's speed from BURST probes in a row: burst_ref_s over
    their median time. Probes in a row run with warm caches, faster than
    probes between a workload's calls, so they have their own reference
    time."""
    for _ in range(BURST_WARMUP):
        probe()
    return burst_ref_s / statistics.median(_timed_probe() for _ in range(BURST))


class Sampler:
    """Times one probe every PERIOD_S of wall time between start() and
    stop(), from SIGALRM. samples holds (start, duration) per probe, in
    time.perf_counter() seconds."""

    def __init__(self, ref_s: float):
        self.ref_s = ref_s
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _timed_probe()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a run shorter than PERIOD_S
            t0 = time.perf_counter()
            self.samples.append((t0, _timed_probe()))

    def normalize(self, start: float, wall: float) -> tuple[float, float, int]:
        """(reference seconds, mean speed, probe count) of an interval of
        `wall` seconds from `start` that the probes interrupted. With no
        probe inside the interval, the speed over the whole run is used."""
        inside = [d for t, d in self.samples if start <= t < start + wall]
        rated = inside or [d for _, d in self.samples]
        speed = statistics.fmean(self.ref_s / d for d in rated)
        return (wall - sum(inside)) * speed, speed, len(inside)
