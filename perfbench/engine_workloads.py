"""``video_1080p``: a warm-started video stream through ParallelRunner.

It renders its frames before the clock starts, runs one untimed
warm-up, then repeats passes over the same frames until ``--seconds`` of
timed frames have accumulated. A pass is one ``run_streams`` call over
one warm-started stream whose cold first frame is left out of the clock.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import calc
import harness
import inputs

#: A run makes at least this many timed passes (each frame's time is its
#: fastest pass, see ``calc.min_per_frame``) and keeps going until
#: ``--seconds`` of timed frames, up to ``MAX_PASSES``.
MIN_PASSES = 3
MAX_PASSES = 40
SETUP_SPAWNS = 7


@dataclass(frozen=True)
class Spec:
    name: str
    pool: int
    #: Leading frames of each pass outside the clock (the cold frame).
    timed_from: int
    #: Frames replayed on the ``vectorized`` backend at 1 thread.
    check_prefix: int
    probe_reps: int


VIDEO = Spec("video_1080p", inputs.VIDEO_POOL, 1, 1, 3)
SPECS = {VIDEO.name: VIDEO}


def _render(spec: Spec, seed: int, n: int):
    """The first ``n`` frames and a ground-truth getter, made from ``seed``.

    A prefix renders exactly as in the full set: scenes and frames
    depend on the seed and their index only.
    """
    (child,) = inputs.child_seeds(seed, 1)
    seq = inputs.video_sequence(child, n, inputs.VIDEO_SHAPE)
    frames = [f.image for f in seq]
    return frames, lambda i: seq[i].gt_labels


class Pass:
    """One timed pass: stamps, records and the timed-frame slice."""

    def __init__(self, spec, runner, frames):
        self.stamped = harness.StampedFrames(frames)
        batch = runner.run_streams([self.stamped.all()])
        self.stamped.finish()
        self.records = batch.records
        t0 = spec.timed_from
        self.timed = self.records[t0:]
        self.intervals_s = self.stamped.intervals_s()[t0:]
        self.wall_s = self.stamped.stamps[-1] - self.stamped.stamps[t0]
        self.peaks_mb = self.stamped.peaks_mb[t0:]
        self.digests = [
            harness.digest(r.result.labels) if r.ok else None
            for r in self.records
        ]

    def accounting(self) -> dict:
        return calc.frame_accounting(
            self.wall_s,
            [r.elapsed_s for r in self.timed],
            [r.result.timings for r in self.timed],
        )


def _frame_reasons(record, digest, expected) -> list:
    reasons = []
    if not record.ok:
        reasons.append(f"error:{record.error_type}")
    if record.demoted_from:
        reasons.append("demoted")
    if expected is not None and digest != expected:
        reasons.append("mismatch_repeat")
    return reasons


def reference_digests(spec: Spec, seed: int) -> list:
    """Label digests of the workload's prefix on ``vectorized`` at 1 thread."""
    from repro.parallel import ParallelRunner

    ref = ParallelRunner(
        inputs.PARAMS[spec.name]().with_(kernel_backend="vectorized", n_threads=1),
        n_workers=1,
    )
    prefix, _ = _render(spec, seed, spec.check_prefix)
    batch = ref.run_streams([prefix])
    return [harness.digest(r.result.labels) if r.ok else None
            for r in batch.records]


def _reference_check(spec, seed, first: Pass, outcomes) -> int:
    """Compare the first pass with ``reference.py``; count mismatches.

    The reference runs in its own interpreter: the vectorized backend's
    large temporaries would otherwise shift this process's allocator
    thresholds between timed passes and with them the resident peaks.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/reference.py", spec.name, str(seed)],
        cwd=harness.ROOT, env=harness.child_env(), capture_output=True,
        text=True, timeout=170, check=True,
    )
    mismatches = 0
    for i, ref in enumerate(json.loads(proc.stdout)):
        ok = ref is not None and ref == first.digests[i]
        mismatches += not ok
        outcomes.add([] if ok else ["mismatch_reference"])
    return mismatches


def _quality(first: Pass, gt):
    use, br = [], []
    for i, record in enumerate(first.records):
        if record.ok:
            u, b = harness.quality(record.result.labels, gt(i))
            use.append(u)
            br.append(b)
    return statistics.fmean(use), statistics.fmean(br)


def run(spec: Spec, seed: int, seconds: float, trace: bool) -> dict:
    from repro.parallel import ParallelRunner

    spans = harness.SpanLog()
    params = inputs.PARAMS[spec.name]()
    cache = harness.warm_kernel_cache()
    root = spans.add("bench", time.perf_counter(), None, workload=spec.name)

    with spans.span("data.ingest", parent=root):
        start = time.perf_counter()
        frames, gt = _render(spec, seed, spec.pool)
        ingest_s = time.perf_counter() - start

    runner = ParallelRunner(params, n_workers=1)
    backend = runner.params.kernel_backend
    with spans.span("warmup", parent=root):
        runner.run_streams([harness.StampedFrames(frames[:2]).all()])

    passes = []
    setup_samples = []
    outcomes = calc.Outcomes()

    def timed_pass(run_with, **attrs):
        with spans.span("pass", parent=root, **attrs) as pid:
            p = Pass(spec, run_with, frames)
        spans.add_frames(p.stamped, pid, f"p{len(passes)}")
        return p

    def reference_check():
        with spans.span("check.reference", parent=root):
            return _reference_check(spec, seed, passes[0], outcomes)

    traced = []
    if trace:
        from repro.obs import MemorySink, Tracer

        tracer = Tracer(MemorySink())
        traced_runner = ParallelRunner(
            params, n_workers=1, tracer=tracer, collect_worker_traces=True
        )
        # Alternate untraced and traced passes so the tracing overhead is
        # not confused with the host drifting between two passes.
        for _ in range(2):
            passes.append(timed_pass(runner, traced=False))
            traced.append(timed_pass(traced_runner, traced=True))
        tracer.close()
        mismatches = reference_check()
    else:
        # The output check and the set-up probes run between the timed
        # passes, so the passes sample the host seconds apart and a
        # frame's fastest pass rarely falls inside one of its slow spells;
        # the probes, spread the same way, do not all share one either.
        def setup_probes(n):
            with spans.span("setup", parent=root):
                for _ in range(n):
                    setup_samples.append(harness.time_ready_child(
                        ["perfbench/ready.py", spec.name]
                    ))

        passes.append(timed_pass(runner))
        setup_probes(SETUP_SPAWNS // 2)
        mismatches = reference_check()
        passes.append(timed_pass(runner))
        setup_probes(SETUP_SPAWNS - SETUP_SPAWNS // 2)
        while (
            len(passes) < MIN_PASSES or sum(p.wall_s for p in passes) < seconds
        ) and len(passes) < MAX_PASSES:
            passes.append(timed_pass(runner))

    # ---- output checks and quality (outside the clock) ----------------
    first = passes[0]
    for p in passes + traced:
        for i, record in enumerate(p.records):
            if i < spec.timed_from:
                continue
            outcomes.add(_frame_reasons(
                record, p.digests[i], None if p is first else first.digests[i]
            ))
    with spans.span("quality", parent=root):
        use, br = _quality(first, gt)

    n_threads = next((r.n_threads for r in first.records if r.ok), None) or 1
    info = {
        "workload": spec.name,
        "seed": seed,
        "env": harness.environment(backend, n_threads, cache),
        "passes": len(passes),
        "frames_per_pass": len(first.timed),
        "reference_prefix": spec.check_prefix,
        "reference_mismatches": mismatches,
        "failure_reasons": dict(outcomes.reasons),
        "failed_frac": outcomes.failed_frac,
    }

    if not trace:
        per_frame = calc.min_per_frame([p.intervals_s for p in passes])
        fps = len(per_frame) / sum(per_frame)
        lat_ms = [x * 1000.0 for x in per_frame]
        # The tail takes every timed sample of every pass, so a frame that
        # is slow only now and then is not hidden by its faster repeats.
        tail_ms, tail_pct, n = calc.tail(
            [x * 1000.0 for p in passes for x in p.intervals_s])
        info.update(tail_pct=tail_pct, latency_samples=n)
        metrics = {
            "fps": (fps, "1/s"),
            "frame_ms_p50": (calc.p50(lat_ms), "ms"),
            "frame_ms_tail": (tail_ms, "ms"),
            # A closed loop's completion rate is the highest rate it sustains.
            "max_rps": (fps, "1/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            # The heaviest frame, each frame at its median pass: freed
            # memory the allocator still holds moves a single pass's
            # figure either way.
            "mem_peak_mb": (max(
                statistics.median(peaks)
                for peaks in zip(*(p.peaks_mb for p in passes))
            ), "MB"),
            "use_corrected": (use, "frac"),
            "boundary_recall": (br, "frac"),
        }
        info["setup_samples_s"] = setup_samples
        return {"metrics": metrics, "outcomes": outcomes, "info": info}

    # ---- traced run: per-layer metrics -------------------------------
    untraced = first
    acct = untraced.accounting()
    info["accounting_residual_ms"] = calc.accounting_residual_ms(acct)
    timed_traced = traced[0].timed
    resolved = sum(harness.worker_counter(r, "connectivity.tiles_resolved")
                   for r in timed_traced)
    total = sum(harness.worker_counter(r, "connectivity.tiles_total")
                for r in timed_traced)
    assigned = sum(harness.worker_counter(r, "engine.pixels_assigned")
                   for r in timed_traced)

    with spans.span("probe.color", parent=root):
        color = harness.color_probe(frames[:3], spec.probe_reps)
    with spans.span("probe.frame_memory", parent=root):
        frame_mb = harness.frame_peak_mb(frames[:2], params)
    with spans.span("probe.kernels", parent=root):
        kernels = harness.kernel_table(frames[1], params, spec.probe_reps)

    phases = acct["phases_ms"]
    n_timed = len(untraced.timed)
    metrics = {
        "data.ingest_s": (ingest_s, "s"),
        **color,
        "core.frame_ms": (acct["frame_ms"], "ms"),
        "core.color_conversion.frame_ms": (phases["color_conversion"], "ms"),
        "core.initialization.frame_ms": (phases["initialization"], "ms"),
        "core.distance_min.frame_ms": (phases["distance_min"], "ms"),
        "core.center_update.frame_ms": (phases["center_update"], "ms"),
        "core.connectivity.frame_ms": (phases["connectivity"], "ms"),
        "core.unattributed.frame_ms": (acct["unattributed_ms"], "ms"),
        "core.frame_peak_mb": (frame_mb, "MB"),
        "core.pixels_assigned": (assigned / len(timed_traced), "count"),
        "core.connectivity.tiles_resolved_frac": (
            resolved / total if total else 0.0, "frac"),
        "core.sweeps_per_frame": (
            statistics.fmean(r.result.iterations for r in untraced.timed),
            "count"),
        "parallel.overhead.frame_ms": (acct["overhead_ms"], "ms"),
        **kernels,
        "kernels.demotions": (
            sum(bool(r.demoted_from) for p in passes + traced
                for r in p.records), "count"),
        **not_served(),
        # Each frame's fastest traced over its fastest untraced pass.
        "obs.trace_overhead_frac": (statistics.median([
            t / u for t, u in zip(
                calc.min_per_frame([p.intervals_s for p in traced]),
                calc.min_per_frame([p.intervals_s for p in passes]),
            )
        ]) - 1.0, "frac"),
    }
    info["frames_accounted"] = n_timed
    path = harness.WORK / "traces" / f"{spec.name}-seed{seed}.jsonl"
    spans.write(path, tracer.sink.events)
    info["trace_file"] = str(path.relative_to(harness.ROOT))
    return {"metrics": metrics, "outcomes": outcomes, "info": info}


def not_served() -> dict:
    """Serve-layer metrics on the workload that has no serve layer: zero."""
    return {
        "serve.overhead_ms": (0.0, "ms"),
        "serve.client_ms": (0.0, "ms"),
        "serve.late_ms": (0.0, "ms"),
        "serve.shed": (0.0, "count"),
        "serve.degraded": (0.0, "count"),
    }
