"""``serve_vga_streams``: ``repro serve`` driven over HTTP.

The server runs in its own process with the thread executor and default
admission and degradation. Two client connections, one per stream, post
consecutive VGA frames (``image_b64`` with ``return_labels``) to
``/v1/streams/{id}/frames``. In closed-loop windows the streams post
back to back, taking turns; that completion rate is the server's
capacity. In open-loop windows they post on a fixed camera schedule at
each rate of ``LADDER``, fixed shares of the measured capacity. Every
window starts fresh streams, so each one sends the same frame sequence
from a cold start. Latency is timed from each frame's due time; the
generator's lateness is recorded separately. After the clock, every
response's labels are compared with an in-process ``StreamSegmenter``
replay of the same frames.
"""

from __future__ import annotations

import base64
import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time

import calc
import harness
import inputs

#: Every window starts fresh streams and sends each one the same frames:
#: ``STREAM_WARMUP`` frames back to back, then a fixed number of timed
#: frames, ``--seconds`` x a per-window frames-per-second figure. Fixed
#: counts keep the frames a run measures the same whatever the host's
#: speed, and every repeat of a window replays the same requests, whose
#: median repeat is taken.
#:
#: Closed-loop windows: the streams post back to back, taking turns, one
#: request outstanding at a time (the server runs one frame at a time, by
#: default one executor worker); their completion rate is the capacity
#: (see ``calc.closed_loop_rate``).
CLOSED_FRAMES_PER_S = 1.75
#: The fixed-rate ladder: (aggregate rate as a share of the measured
#: capacity, timed frames per stream per second of ``--seconds``). The
#: shares leave room for the host's swings within a run, so the ladder
#: gives the same answer from run to run. The middle rate is the
#: reported operating point.
LADDER = ((0.25, 0.375), (0.4, 1.0), (0.55, 0.75))
MID = 1
#: Windows in run order: a ladder rung's index, or ``None`` for a
#: closed-loop window. The first three closed-loop windows set the
#: ladder's rates; ``fps`` takes every one. The middle rate's windows
#: alternate with the other rungs and the closed-loop repeats, so each
#: sort of repeat samples the host at moments apart and a request's
#: median repeat is not set by one of the host's slow spells or lulls. The
#: traced run measures the middle rate only.
SCHEDULE = (None, None, None, MID, 0, MID, None, 2, MID)
TRACED_SCHEDULE = (None, None, None, MID, MID, MID)
#: Set-up probes besides the server's own start, one after each of the
#: last windows but the final one, so they do not all share one of the
#: host's slow spells.
SETUP_PROBES = 6
#: ``max_rps`` counts a rung only if its tail latency meets this limit...
TAIL_LIMIT_MS = 500.0
#: ...and the generator's lateness did not rise by more than this.
BACKLOG_TOLERANCE_MS = 50.0
N_STREAMS = 2
#: The frames each window sends first, back to back, before its clock
#: starts: the cold start and the first warm frames (8-10 sweeps, against
#: 2-6 later). They are checked but left out of every timing, which then
#: describes the warm stream.
STREAM_WARMUP = 3
WARMUP_FRAMES = 4
#: Lead time between arming a window and its first due frame.
LEAD_S = 0.05


class Server:
    """One ``repro serve`` process, ready when ``/readyz`` answers 200."""

    def __init__(self, extra_args=()):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             *inputs.SERVE_ARGS, *extra_args],
            cwd=harness.ROOT, env=harness.child_env(),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            deadline = start + 60.0
            while self.get("/readyz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro serve never became ready")
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except ConnectionError:
            return None, b""
        finally:
            conn.close()

    def delete(self, path) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("DELETE", path)
            conn.getresponse().read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


def _timed_frames(seconds: float, per_s: float) -> int:
    """Timed frames per stream in a window: ``seconds * per_s``, at least 3."""
    return max(3, round(seconds * per_s))


def _render(seed: int, n: int):
    """Per-stream VGA frames (``n`` each), request bodies, and ground-truth getters."""
    streams = []
    for child in inputs.child_seeds(seed, N_STREAMS):
        seq = inputs.video_sequence(child, n, inputs.VGA_SHAPE)
        frames = [f.image for f in seq]
        bodies = [
            json.dumps({
                "image_b64": base64.b64encode(f.tobytes()).decode("ascii"),
                "height": f.shape[0], "width": f.shape[1],
                "return_labels": True,
            }).encode()
            for f in frames
        ]
        streams.append((frames, bodies, lambda i, seq=seq: seq[i].gt_labels))
    return streams


def _post(conn, path, body):
    """One request on a keep-alive connection: ``(status, body)``."""
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (ConnectionError, http.client.HTTPException, OSError) as exc:
        conn.close()
        return None, repr(exc).encode()


def _sleep_until(target) -> None:
    wait = target - time.perf_counter()
    if wait > 0:
        time.sleep(wait)


def _client(conn, path, bodies, first, dues, t0, out):
    """Post ``bodies[first:]`` in order at ``t0 + due``; never early, late if behind."""
    for j, due in enumerate(dues):
        target = t0 + due
        _sleep_until(target)
        sent = time.perf_counter()
        status, data = _post(conn, path, bodies[first + j])
        out.append((first + j, target, sent, time.perf_counter(), status, data))


def _closed(conns, paths, bodies, first, stop, outs):
    """Post the streams' frames ``first`` to ``stop - 1`` back to back, taking turns.

    One request is outstanding at a time, each due when it is sent, the
    moment the previous one completed.
    """
    for k in range(first, stop):
        for s, conn in enumerate(conns):
            sent = time.perf_counter()
            status, data = _post(conn, paths[s], bodies[s][k])
            outs[s].append((k, sent, sent, time.perf_counter(), status, data))


def _parse(status, data) -> dict:
    """A response's label digest, server time, backend and failure reasons."""
    if status != 200:
        return {"digest": None, "elapsed_ms": None, "backend": None,
                "reasons": [f"status:{status}"]}
    import numpy as np

    payload = json.loads(data)
    labels = np.frombuffer(
        base64.b64decode(payload["labels_b64"]), dtype="<i4"
    ).reshape(payload["labels_shape"])
    return {
        "digest": harness.digest(labels),
        "elapsed_ms": payload["elapsed_ms"],
        "backend": payload["kernel_backend"],
        "reasons": [flag for flag in ("degraded", "demoted_from")
                    if payload.get(flag)],
    }


def _window(server, tag, rate, frames, streams, spans, root):
    """Run one window on fresh streams; returns per-request rows and its start.

    ``rate`` is the aggregate fixed rate, or ``None`` for a closed loop.
    Each stream keeps one connection and is sent ``STREAM_WARMUP`` frames
    back to back, then ``frames`` timed ones.
    """
    outs = [[] for _ in streams]
    paths = [f"/v1/streams/{tag}s{s}/frames" for s in range(len(streams))]
    bodies = [b for _, b, _ in streams]
    stop = STREAM_WARMUP + frames
    conns = [http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
             for _ in streams]
    try:
        _closed(conns, paths, bodies, 0, STREAM_WARMUP, outs)
        t0 = time.perf_counter() + LEAD_S
        if rate is None:
            _sleep_until(t0)
            _closed(conns, paths, bodies, STREAM_WARMUP, stop, outs)
        else:
            per_stream = rate / N_STREAMS
            threads = [
                threading.Thread(target=_client, args=(
                    conn, paths[s], bodies[s], STREAM_WARMUP,
                    calc.due_times(per_stream, frames / per_stream,
                                   phase_s=s / rate, min_count=frames),
                    t0, outs[s]))
                for s, conn in enumerate(conns)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        for conn in conns:
            conn.close()
    rows = []
    for s, out in enumerate(outs):
        for k, due, sent, done, status, data in out:
            rows.append({
                "stream": s, "k": k, "due": due, "sent": sent, "done": done,
                "timed": k >= STREAM_WARMUP, **_parse(status, data),
            })
            group = f"{tag}s{s}k{k}"
            req = spans.add("request", due, done, parent=root, group=group,
                            rate=rate or "closed", status=status)
            spans.add("client.late", due, max(due, sent), parent=req, group=group)
            spans.add("client.exchange", sent, done, parent=req, group=group)
        server.delete(f"/v1/streams/{tag}s{s}")
    rows.sort(key=lambda r: r["due"])
    return rows, t0


def _timed(rows):
    return sorted((r for r in rows if r["timed"]),
                  key=lambda r: (r["k"], r["stream"]))


def _completion_rate(rows, t0) -> float:
    """Successful timed requests per second from the window's start to its last answer."""
    timed = [r for r in rows if r["timed"]]
    return sum(not r["reasons"] for r in timed) / (max(r["done"] for r in timed) - t0)


def _capacity(closed) -> float:
    """Closed-loop completions per second, each request at its median repeat.

    The closed-loop windows replay the same requests in the same order
    (see ``calc.closed_loop_rate``).
    """
    return calc.closed_loop_rate([
        [r["done"] - r["sent"] for r in _timed(rows)] for rows, _ in closed
    ])


def _summarize(rate, windows) -> dict:
    """One rung's figures over its windows.

    The median latency takes each request at its median repeat (windows
    replay the same frames on the same schedule, see
    ``calc.median_per_frame``); the tail takes every sample of every
    window, so a queueing spike is not hidden by a faster repeat.
    Failures count every request, the warm-up ones too.
    """
    by_key = [[calc.due_latency_ms(r["due"], r["done"]) for r in _timed(rows)]
              for rows, _ in windows]
    late = [[calc.lateness_ms(r["due"], r["sent"])
             for r in sorted(_timed(rows), key=lambda r: r["due"])]
            for rows, _ in windows]
    failed = sum(bool(r["reasons"]) for rows, _ in windows for r in rows)
    achieved = [_completion_rate(rows, t0) for rows, t0 in windows]
    tail_ms, tail_pct, n_tail = calc.tail([x for lat in by_key for x in lat])
    return {
        "rate": rate, "windows": len(windows),
        "requests": sum(len(rows) for rows, _ in windows), "failed": failed,
        "achieved_rps": statistics.median(achieved),
        "p50_ms": calc.p50(calc.median_per_frame(by_key)),
        "tail_ms": tail_ms, "tail_pct": tail_pct, "samples": n_tail,
        "late_ms_mean": statistics.fmean(x for w in late for x in w),
        "backlog_grows": any(
            calc.backlog_grows(w, BACKLOG_TOLERANCE_MS) for w in late),
    }


def _replay(streams, n_per_stream, params, tracer=None):
    """In-process StreamSegmenter over the served sequence of each stream."""
    from repro.core import StreamSegmenter

    out = []
    for s, (frames, _, _) in enumerate(streams):
        seg = StreamSegmenter(params, drift_limit=0.6, strict_shape=True)
        rows = []
        for k in range(n_per_stream[s]):
            start = time.perf_counter()
            result = seg.process(frames[k], tracer=tracer)
            rows.append((harness.digest(result.labels),
                         time.perf_counter() - start, result))
        out.append(rows)
    return out


def _scrape_counter(text: str, family: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def run(seed: int, seconds: float, trace: bool) -> dict:
    spans = harness.SpanLog()
    params = inputs.serve_params()
    cache = harness.warm_kernel_cache()
    root = spans.add("bench", time.perf_counter(), None, workload="serve")

    server = None
    try:
        with spans.span("setup", parent=root):
            extra = ()
            if trace:
                trace_path = harness.WORK / "traces" / f"serve-server-seed{seed}.jsonl"
                trace_path.parent.mkdir(parents=True, exist_ok=True)
                extra = ("--trace", str(trace_path))
            server = Server(extra)
        setup_samples = [server.setup_s]

        closed_frames = _timed_frames(seconds, CLOSED_FRAMES_PER_S)
        rung_frames = [_timed_frames(seconds, per_s) for _, per_s in LADDER]
        with spans.span("data.ingest", parent=root):
            start = time.perf_counter()
            streams = _render(
                seed, STREAM_WARMUP + max(closed_frames, *rung_frames))
            ingest_s = time.perf_counter() - start

        with spans.span("warmup", parent=root):
            warm = [[] for _ in streams]
            conns = [http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=120) for _ in streams]
            try:
                _closed(conns, [f"/v1/streams/warm{s}/frames"
                                for s in range(N_STREAMS)],
                        [b for _, b, _ in streams], 0, WARMUP_FRAMES, warm)
            finally:
                for conn in conns:
                    conn.close()
            for s in range(N_STREAMS):
                server.delete(f"/v1/streams/warm{s}")
            if any(st != 200 for w in warm for *_, st, _ in w):
                raise RuntimeError("warm-up requests failed")

        # The server's resident peak over every timed window, above its
        # level once set up and warm.
        pid = server.proc.pid
        harness.reset_peak(pid)
        base_kb = harness.rss_kb(pid)

        closed, rungs, rates = [], {}, None
        schedule = TRACED_SCHEDULE if trace else SCHEDULE
        for i, ri in enumerate(schedule):
            if ri is None:
                with spans.span("window", parent=root, rate="closed") as wid:
                    closed.append(_window(server, f"c{i}", None, closed_frames,
                                          streams, spans, wid))
            else:
                if rates is None:
                    rates = [share * _capacity(closed) for share, _ in LADDER]
                with spans.span("window", parent=root, rate=rates[ri]) as wid:
                    rungs.setdefault(ri, []).append(_window(
                        server, f"r{ri}w{i}", rates[ri], rung_frames[ri],
                        streams, spans, wid,
                    ))
            if not trace and 0 < len(schedule) - 1 - i <= SETUP_PROBES:
                with spans.span("setup", parent=root):
                    probe = Server()
                    setup_samples.append(probe.setup_s)
                    probe.stop()
        peak_mb = (harness.peak_kb(pid) - base_kb) / 1024.0
        metrics_text = server.get("/metrics")[1].decode()
    finally:
        if server is not None:
            server.stop()

    # ---- output checks (outside the clock) --------------------------
    served = [r for windows in [closed, *rungs.values()] for rows, _ in windows
              for r in rows] + [
        {"stream": s, "k": k, **_parse(status, data)}
        for s, w in enumerate(warm) for k, _, _, _, status, data in w]
    n_per_stream = [1 + max(r["k"] for r in served if r["stream"] == s)
                    for s in range(N_STREAMS)]
    with spans.span("check.replay", parent=root):
        replay = _replay(streams, n_per_stream, params)
    outcomes = calc.Outcomes()
    for r in served:
        if r["digest"] is not None and r["digest"] != replay[r["stream"]][r["k"]][0]:
            r["reasons"].append("mismatch_replay")
        outcomes.add(r["reasons"])
    with spans.span("check.reference", parent=root):
        ref = _replay(
            [(streams[0][0][:1], None, None)], [1],
            params.with_(kernel_backend="vectorized", n_threads=1),
        )[0]
        mismatches = 0
        for k, (dig, _, _) in enumerate(ref):
            ok = dig == replay[0][k][0]
            mismatches += not ok
            outcomes.add([] if ok else ["mismatch_reference"])
    with spans.span("quality", parent=root):
        q = [harness.quality(replay[s][k][2].labels, streams[s][2](k))
             for s in range(N_STREAMS)
             for k in range(n_per_stream[s])]

    # ---- per-rung figures --------------------------------------------
    backend = next((r["backend"] for r in served if r["backend"]), None)
    n_threads = params.n_threads
    summary = [_summarize(rates[ri], windows)
               for ri, windows in sorted(rungs.items())]
    mid = next(s for s in summary if s["rate"] == rates[MID])
    capacity = _capacity(closed)
    info = {
        "workload": "serve_vga_streams",
        "seed": seed,
        "env": harness.environment(backend, n_threads, cache),
        "capacity_rps": capacity,
        "rungs": summary,
        "tail_limit_ms": TAIL_LIMIT_MS,
        "tail_pct": mid["tail_pct"],
        "latency_samples": mid["samples"],
        "reference_prefix": 1,
        "reference_mismatches": mismatches,
        "failure_reasons": dict(outcomes.reasons),
        "failed_frac": outcomes.failed_frac,
        "setup_samples_s": setup_samples,
    }
    use = statistics.fmean(u for u, _ in q)
    br = statistics.fmean(b for _, b in q)

    if not trace:
        best, best_rate = calc.max_rps(summary, TAIL_LIMIT_MS)
        info["max_rps_rate"] = best_rate
        metrics = {
            "fps": (capacity, "1/s"),
            "frame_ms_p50": (mid["p50_ms"], "ms"),
            "frame_ms_tail": (mid["tail_ms"], "ms"),
            "max_rps": (best, "1/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "mem_peak_mb": (peak_mb, "MB"),
            "use_corrected": (use, "frac"),
            "boundary_recall": (br, "frac"),
        }
        return {"metrics": metrics, "outcomes": outcomes, "info": info}

    return _per_layer(seed, streams, params, rungs, replay, metrics_text,
                      ingest_s, outcomes, info, spans)


def _per_layer(seed, streams, params, rungs, replay, metrics_text, ingest_s,
               outcomes, info, spans):
    from repro.obs import MemorySink, Tracer

    root = spans.spans[0]["id"]
    rows = [r for window, _ in rungs[MID] for r in window]
    ok = [r for r in rows if r["elapsed_ms"] is not None]
    overhead = [r["elapsed_ms"] - replay[r["stream"]][r["k"]][1] * 1000.0
                for r in ok]
    client = [(r["done"] - r["sent"]) * 1000.0 - r["elapsed_ms"] for r in ok]
    late = [calc.lateness_ms(r["due"], r["sent"]) for r in rows if r["timed"]]

    # The engine layers, from the in-process replay of the frames the
    # first stream was served at the middle rate: untraced for the phase
    # accounting, then traced for counters.
    frames = streams[0][0]
    n = 1 + max(r["k"] for r in rows if r["stream"] == 0)
    with spans.span("replay.untraced", parent=root):
        start = time.perf_counter()
        plain = _replay([streams[0]], [n], params)[0]
        wall_plain = time.perf_counter() - start
    tracer = Tracer(MemorySink())
    with spans.span("replay.traced", parent=root):
        start = time.perf_counter()
        _replay([streams[0]], [n], params, tracer=tracer)
        wall_traced = time.perf_counter() - start
    tracer.close()
    snap = tracer.metrics.snapshot()["counters"]
    acct = calc.frame_accounting(
        wall_plain, [t for _, t, _ in plain], [r.timings for *_, r in plain]
    )
    info["accounting_residual_ms"] = calc.accounting_residual_ms(acct)
    phases = acct["phases_ms"]
    resolved = snap.get("connectivity.tiles_resolved", 0)
    total = snap.get("connectivity.tiles_total", 0)

    with spans.span("probe.color", parent=root):
        color = harness.color_probe(frames[:3], 5)
    with spans.span("probe.frame_memory", parent=root):
        frame_mb = harness.frame_peak_mb(frames[:2], params)
    with spans.span("probe.kernels", parent=root):
        kernels = harness.kernel_table(frames[1], params, 5)

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
        "core.pixels_assigned": (
            snap.get("engine.pixels_assigned", 0) / n, "count"),
        "core.connectivity.tiles_resolved_frac": (
            resolved / total if total else 0.0, "frac"),
        "core.sweeps_per_frame": (
            statistics.fmean(r.iterations for *_, r in plain), "count"),
        # The server runs frames through its executor, not the runner.
        "parallel.overhead.frame_ms": (0.0, "ms"),
        **kernels,
        "kernels.demotions": (_scrape_counter(
            metrics_text, "repro_serve_backend_demotions"), "count"),
        "serve.overhead_ms": (statistics.median(overhead), "ms"),
        "serve.client_ms": (statistics.median(client), "ms"),
        "serve.late_ms": (statistics.fmean(late), "ms"),
        "serve.shed": (_scrape_counter(metrics_text, "repro_serve_shed"), "count"),
        "serve.degraded": (
            _scrape_counter(metrics_text, "repro_serve_degraded"), "count"),
        "obs.trace_overhead_frac": (wall_traced / wall_plain - 1.0, "frac"),
    }
    path = harness.WORK / "traces" / f"serve_vga_streams-seed{seed}.jsonl"
    spans.write(path, tracer.sink.events)
    info["trace_file"] = str(path.relative_to(harness.ROOT))
    return {"metrics": metrics, "outcomes": outcomes, "info": info}
