"""Shared machinery: paths, environment stamp, set-up timing, memory,
frame stamping, output checks, quality, spans and the kernel table.

Everything here calls the program only through its public modules
(``repro.core``, ``repro.kernels``, ``repro.color``, ``repro.metrics``,
``repro.parallel``); nothing reaches into the program's internals.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes: kernel build cache and traces.
WORK = ROOT / ".bench_build" / "perfbench"
KERNEL_CACHE = WORK / "kernels"

def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources and cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env.pop("REPRO_KERNEL_THREADS", None)
    return env


def prepare_process() -> None:
    """Point this interpreter at the checkout's sources and kernel cache."""
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ.update(
        {k: v for k, v in child_env().items() if k.startswith("REPRO_")}
    )
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    os.environ.pop("REPRO_KERNEL_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cores() -> int:
    return len(os.sched_getaffinity(0))


def warm_kernel_cache() -> dict:
    """Load the native kernels, building them if the cache is cold."""
    was_warm = any(KERNEL_CACHE.glob("repro_native_*.so"))
    from repro.kernels import native

    start = time.perf_counter()
    available = native.is_available()
    return {
        "native_available": available,
        "native_cache_warm": was_warm,
        "native_load_s": time.perf_counter() - start,
    }


def environment(backend: str, n_threads, cache: dict) -> dict:
    """The stamp every result carries."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": cores(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "n_threads": n_threads,
        **cache,
    }


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def time_ready_child(argv, timeout_s: float = 120.0) -> float:
    """Seconds from spawning a fresh interpreter until it prints ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = None
        for line in proc.stdout:
            if line.startswith("ready"):
                ready = time.perf_counter() - start
                break
        proc.stdout.read()
        code = proc.wait(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None or code != 0:
        raise RuntimeError(f"set-up child {argv} failed (exit {code})")
    return ready


# ----------------------------------------------------------------------
# Memory: resident-set high-water mark via /proc
# ----------------------------------------------------------------------
def _status_kb(pid, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def rss_kb(pid="self") -> int:
    return _status_kb(pid, "VmRSS")


def peak_kb(pid="self") -> int:
    return _status_kb(pid, "VmHWM")


def reset_peak(pid="self") -> None:
    """Reset the kernel's resident high-water mark to the current RSS.

    Where the kernel refuses, the mark keeps its process-lifetime value
    and peaks read against it are upper bounds.
    """
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


class StampedFrames:
    """Hands frames to the runner and records when each one is pulled.

    ``ParallelRunner`` pulls a stream's next frame only after the
    previous one was collected, so in a serial run the gap between two
    pulls is one frame's full wall time through the runner. At every
    pull the resident high-water mark is read and reset, giving each
    frame's peak memory above its own starting level.
    """

    def __init__(self, frames):
        self.frames = frames
        self.stamps = []
        self.peaks_mb = []
        self._rss0 = None

    def _mark(self) -> None:
        if self._rss0 is not None:
            self.peaks_mb.append((peak_kb() - self._rss0) / 1024.0)
        reset_peak()
        self._rss0 = rss_kb()
        self.stamps.append(time.perf_counter())

    def all(self):
        """One stream over every frame (video)."""
        for frame in self.frames:
            self._mark()
            yield frame

    def finish(self) -> None:
        self._mark()

    def intervals_s(self):
        """Per-frame wall times: the gaps between consecutive pulls."""
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


# ----------------------------------------------------------------------
# Output checks and quality
# ----------------------------------------------------------------------
def digest(labels) -> str:
    """SHA-256 of a label map as a little-endian int32 raster."""
    import numpy as np

    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype="<i4").tobytes()
    ).hexdigest()


def quality(labels, gt_labels) -> tuple:
    """(corrected USE, boundary recall) of one label map."""
    from repro.metrics import boundary_recall, corrected_undersegmentation_error

    return (
        corrected_undersegmentation_error(labels, gt_labels),
        boundary_recall(labels, gt_labels),
    )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanLog:
    """Benchmark-side spans, kept in memory and written out at the end.

    Each span has a name, start, end, parent and a ``group`` id shared by
    every span of one frame or request.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)

    def add(self, name, start, end, parent=None, group=None, **attrs) -> int:
        span_id = next(self._ids)
        self.spans.append({
            "name": name, "id": span_id, "parent": parent, "group": group,
            "start": start, "end": end, "attrs": attrs,
        })
        return span_id

    @contextmanager
    def span(self, name, parent=None, **attrs):
        """Context manager recording a span around its body; yields its id."""
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append({
                "name": name, "id": span_id, "parent": parent,
                "group": None, "start": start, "end": time.perf_counter(),
                "attrs": attrs,
            })

    def add_frames(self, stamped: StampedFrames, parent, prefix: str) -> None:
        for i, (a, b) in enumerate(zip(stamped.stamps, stamped.stamps[1:])):
            self.add("frame", a, b, parent=parent, group=f"{prefix}f{i}")

    def write(self, path: Path, engine_events=()) -> None:
        """Write every span, closing those still open (the root), then
        ``engine_events``, one JSON object per line."""
        now = time.perf_counter()
        for span in self.spans:
            if span["end"] is None:
                span["end"] = now
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps({"ev": "bench_span", **span}) + "\n")
            for event in engine_events:
                fh.write(json.dumps(event, default=repr) + "\n")


def worker_counter(record, name: str) -> float:
    """A counter's value in one frame's collected worker trace."""
    return sum(
        ev.get("value", 0) for ev in record.trace_events
        if ev.get("ev") == "counter" and ev.get("name") == name
    )


# ----------------------------------------------------------------------
# Per-layer probes: color, frame memory, the kernel table
# ----------------------------------------------------------------------
def timed_median(fn, reps: int) -> float:
    """Median seconds of ``reps`` calls of ``fn`` (after one warm call)."""
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def color_probe(frames, reps: int) -> dict:
    """Direct float color conversion (``rgb_to_lab``) of the workload's
    frames, per frame."""
    from repro.color import rgb_to_lab

    secs = statistics.median(
        timed_median(lambda img=img: rgb_to_lab(img), reps) for img in frames
    )
    h, w = frames[0].shape[:2]
    return {
        "color.frame_ms": (secs * 1000.0, "ms"),
        "color.ns_per_px": (secs * 1e9 / (h * w), "ns"),
    }


def frame_peak_mb(frames, params) -> float:
    """tracemalloc peak around one frame (warm when two frames are given)."""
    import tracemalloc

    from repro.core import StreamSegmenter

    segmenter = StreamSegmenter(params, strict_shape=True)
    for frame in frames[:-1]:
        segmenter.process(frame)
    tracemalloc.start()
    try:
        segmenter.process(frames[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _merge_inputs(labels, min_size):
    """The ``merge_small`` kernel's inputs for one pre-connectivity map.

    Mirrors the documented kernel contract: component sizes, a CSR
    adjacency with shared-border lengths, and the small components in
    increasing size order. This copies the construction inside
    ``repro.core.connectivity``, which exposes no builder for it; keep
    the two in step.
    """
    import numpy as np

    from repro.core import connected_components

    comps, n_comps = connected_components(labels, backend="native")
    flat = comps.ravel()
    sizes = np.bincount(flat, minlength=n_comps).astype(np.int64)
    horiz = comps[:, 1:] != comps[:, :-1]
    vert = comps[1:, :] != comps[:-1, :]
    pairs = np.concatenate([
        np.stack([comps[:, 1:][horiz], comps[:, :-1][horiz]], axis=1),
        np.stack([comps[1:, :][vert], comps[:-1, :][vert]], axis=1),
    ])
    both = np.concatenate([pairs, pairs[:, ::-1]])
    fused = both[:, 0].astype(np.int64) * n_comps + both[:, 1]
    fused, border = np.unique(fused, return_counts=True)
    src, dst = fused // n_comps, fused % n_comps
    order = np.argsort(src, kind="stable")
    src, dst, border = src[order], dst[order], border[order].astype(np.int64)
    starts = np.searchsorted(src, np.arange(n_comps))
    ends = np.searchsorted(src, np.arange(n_comps) + 1)
    by_size = np.argsort(sizes, kind="stable")
    small = by_size[sizes[by_size] < min_size]
    return sizes, starts, ends, dst, border, min_size, small


def kernel_table(rgb, params, reps: int) -> dict:
    """ns/pixel of each kernel on one of the workload's own frames.

    Returns ``{metric: (value, unit)}``.

    Calls ``get_backend("native-mt").<kernel>`` directly at one thread
    and at every visible core. The inputs come from a real segmentation
    of ``rgb`` with the workload's params: its converged centers, its
    first pixel subset and its pre-connectivity label map.
    """
    import numpy as np

    from repro.color import HwColorConverter, LabEncoding, rgb_to_lab
    from repro.core import (
        candidate_map, grid_geometry, make_schedule, run_segmentation,
        spatial_weight, tile_map,
    )
    from repro.core.assignment import PixelArrays
    from repro.kernels import get_backend

    mt = get_backend("native-mt")
    h, w = rgb.shape[:2]
    raw = run_segmentation(rgb, params.with_(enforce_connectivity=False))
    grid_h, grid_w, _, _ = grid_geometry((h, w), params.n_superpixels)
    n_clusters = grid_h * grid_w
    s = float(np.sqrt(h * w / n_clusters))
    weight = spatial_weight(params.compactness, s)
    # Both workloads run the float datapath; ``lab_from_codes`` is timed
    # with the hardware converter's 8-bit encoding.
    converter = HwColorConverter(encoding=LabEncoding(8))
    pixels = PixelArrays(rgb_to_lab(rgb), tile_map((h, w), grid_h, grid_w))
    cands = candidate_map(grid_h, grid_w)
    idx = make_schedule(
        (h, w), params.subsample_ratio, params.subset_strategy, params.seed
    ).subset(0)
    chosen = mt.ppa_assign(pixels, idx, cands, raw.centers, weight,
                           compactness=params.compactness, grid_s=s)
    min_size = max(1, int(params.min_size_factor * s * s))
    merge_args = _merge_inputs(raw.labels, min_size)
    labels_pre = np.ascontiguousarray(raw.labels, dtype=np.int32)

    calls = {
        "ppa_assign": (len(idx), lambda t: mt.ppa_assign(
            pixels, idx, cands, raw.centers, weight,
            compactness=params.compactness, grid_s=s, n_threads=t)),
        "sigma_accumulate": (len(idx), lambda t: mt.sigma_accumulate(
            chosen, n_clusters, w, idx=idx, n_threads=t,
            lab_flat=pixels.lab_flat)),
        "lab_from_codes": (h * w, lambda t: mt.lab_from_codes(
            converter, rgb, n_threads=t)),
        "connected_components": (h * w, lambda t: mt.connected_components(
            labels_pre, n_threads=t)),
        # No threaded form exists: the walk is sequential by contract.
        "merge_small": (h * w, lambda t: mt.merge_small(*merge_args)),
    }
    out = {}
    n_cores = cores()
    for name, (n_px, call) in calls.items():
        one = timed_median(lambda: call(1), reps) * 1e9 / n_px
        many = timed_median(lambda: call(n_cores), reps) * 1e9 / n_px
        out[f"kernels.{name}.ns_per_px_1t"] = (one, "ns")
        out[f"kernels.{name}.ns_per_px_nt"] = (many, "ns")
        out[f"kernels.{name}.scaling"] = (one / many, "x")
    # Bytes the PPA kernel streams per assigned pixel: its subset index,
    # the pixel's color row, coordinate and tile entries, and the label
    # it writes. Arrays a later layout drops simply stop counting.
    color = pixels.lab_flat
    per_px = [idx.itemsize, chosen.itemsize, color.itemsize * color.shape[1]]
    for attr in ("x_flat", "y_flat", "tile_flat"):
        arr = getattr(pixels, attr, None)
        if arr is not None:
            per_px.append(arr.itemsize)
    out["kernels.ppa_assign.bytes_per_px"] = (float(sum(per_px)), "B")
    return out
