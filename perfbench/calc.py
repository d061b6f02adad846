"""The benchmark's own arithmetic, kept free of I/O so it can be tested.

Everything that turns raw timestamps into a reported number lives here:
percentiles and the tail rule, fastest and median repeats and closed-loop
rates,
open-loop lateness and due-time latency,
the backlog test and the ``max_rps`` ladder, per-frame time accounting
(engine phases + unattributed + runner overhead = frame wall), failure
accounting, and the quartile spread the stability check uses.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]


def p50(values) -> float:
    """The nearest-rank median, so a tail that falls back to p50 equals it."""
    return percentile(values, 50)


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> int:
    """The highest whole percentile with at least ``min_beyond`` samples above it.

    With nearest-rank percentiles, ``n - ceil(p * n / 100)`` samples lie
    beyond the p-th percentile, so the rule gives
    ``p = floor(100 * (n - min_beyond) / n)``. Fewer than
    ``2 * min_beyond`` samples cannot support any tail above the median,
    so the result never drops below 50 (the tail then is the median).
    """
    if n < 1:
        raise ValueError("tail of no samples")
    if n <= min_beyond:
        return 50
    return max(50, math.floor(100.0 * (n - min_beyond) / n))


def tail(values, min_beyond: int = TAIL_MIN_BEYOND):
    """``(value, percentile, n)`` of the tail rule over ``values``."""
    pct = tail_percentile(len(values), min_beyond)
    return percentile(values, pct), pct, len(values)


def min_per_frame(repeats):
    """Each frame's smallest value over repeated passes of the same frames.

    Other tenants of a shared host only ever slow a frame down, and on
    a small cloud host they do so by 10-30% for seconds at a time. The
    fastest of a few passes is the program's own cost for that frame;
    what still varies between frames is their content.
    """
    if not repeats or len({len(r) for r in repeats}) != 1:
        raise ValueError("need passes of equal length")
    return [min(values) for values in zip(*repeats)]


def median_per_frame(repeats):
    """Each frame's median over repeated passes of the same frames.

    Where a run repeats a frame many times, a brief lull of the host's
    other tenants can make one repeat much faster than the rest; the
    median ignores a lull as it ignores a slow spell.
    """
    if not repeats or len({len(r) for r in repeats}) != 1:
        raise ValueError("need passes of equal length")
    return [statistics.median(values) for values in zip(*repeats)]


def closed_loop_rate(windows) -> float:
    """Completions per second of a closed loop, one request at a time.

    ``windows`` holds the request times of each repeated window, which
    replays the same requests in the same order. The rate is the
    requests every window reached over the sum of their median times
    (``median_per_frame``).
    """
    n = min(map(len, windows))
    if n == 0:
        raise ValueError("a window with no requests")
    return n / sum(median_per_frame([w[:n] for w in windows]))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


# ----------------------------------------------------------------------
# Open-loop arithmetic
# ----------------------------------------------------------------------
def due_times(rate_hz: float, duration_s: float, phase_s: float = 0.0,
              min_count: int = 0):
    """Due offsets of a fixed camera schedule: ``phase + k / rate`` below
    ``duration``, extended past it to at least ``min_count`` frames."""
    if rate_hz <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be > 0")
    period = 1.0 / rate_hz
    count = max(math.ceil((duration_s - phase_s) / period), min_count)
    return [phase_s + k * period for k in range(max(count, 0))]


def lateness_ms(due_s: float, sent_s: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent_s - due_s) * 1000.0


def due_latency_ms(due_s: float, done_s: float) -> float:
    """Latency timed from when the request was due, not when it was sent.

    A stall then also charges the wait it imposes on requests queued
    behind it (no coordinated omission).
    """
    return (done_s - due_s) * 1000.0


def backlog_grows(late_ms, tolerance_ms: float) -> bool:
    """Whether generator lateness trends up across the window.

    Compares the median lateness of the last third of the requests with
    that of the first third; a rise of more than ``tolerance_ms`` means
    the system fell behind the schedule and the queue is growing.
    """
    n = len(late_ms)
    if n < 3:
        return False
    third = n // 3
    first = statistics.median(late_ms[:third])
    last = statistics.median(late_ms[-third:])
    return last - first > tolerance_ms


def rung_passes(rung: dict, limit_ms: float) -> bool:
    """A ladder rung passes when nothing failed, the tail meets the limit
    and the backlog did not grow."""
    return (
        rung["failed"] == 0
        and rung["tail_ms"] <= limit_ms
        and not rung["backlog_grows"]
    )


def max_rps(rungs, limit_ms: float):
    """The highest passing rung of a fixed-rate ladder.

    ``rungs`` are dicts with ``rate``, ``achieved_rps``, ``tail_ms``,
    ``failed`` and ``backlog_grows``. Returns ``(achieved_rps, rate)``
    of the highest-rate rung that passes, or ``(0.0, None)`` when none
    does. The achieved completion rate is reported rather than the
    nominal one so the value carries its measurement.
    """
    best = None
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if rung_passes(rung, limit_ms):
            best = rung
    if best is None:
        return 0.0, None
    return best["achieved_rps"], best["rate"]


# ----------------------------------------------------------------------
# Time accounting
# ----------------------------------------------------------------------
def frame_accounting(wall_s: float, elapsed_s, timings) -> dict:
    """Split a run's wall time into per-frame layer shares, in ms/frame.

    ``wall_s`` is the runner's wall time over the frames; ``elapsed_s``
    the per-frame time inside the worker (``FrameRecord.elapsed_s``);
    ``timings`` the per-frame phase dicts (``SegmentationResult.timings``).
    By construction ``sum(phases) + unattributed + overhead == frame``:
    ``unattributed`` is worker time outside the phases and ``overhead``
    is runner time outside the worker.
    """
    n = len(elapsed_s)
    if n == 0 or n != len(timings):
        raise ValueError("need one timing dict per frame")
    phases = {}
    for t in timings:
        for name, secs in t.items():
            phases[name] = phases.get(name, 0.0) + secs
    phase_sum = sum(phases.values())
    worker = sum(elapsed_s)
    return {
        "frame_ms": wall_s / n * 1000.0,
        "phases_ms": {k: v / n * 1000.0 for k, v in phases.items()},
        "unattributed_ms": (worker - phase_sum) / n * 1000.0,
        "overhead_ms": (wall_s - worker) / n * 1000.0,
    }


def accounting_residual_ms(acct: dict) -> float:
    """frame − (phases + unattributed + overhead); zero up to rounding."""
    return acct["frame_ms"] - (
        sum(acct["phases_ms"].values())
        + acct["unattributed_ms"]
        + acct["overhead_ms"]
    )


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class Outcomes:
    """Attempted/failed counts with a reason per failure.

    A frame or request counts as failed when it errored, was refused,
    timed out, was degraded, or failed the output check; each attempt
    counts once however many of those apply.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def add(self, reasons=()) -> None:
        """Count one attempt; it failed when ``reasons`` is not empty."""
        reasons = [r for r in reasons if r]
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
