"""Chaos suite: the repro.resilience hardened-execution layer.

Every recovery path in the runner is driven *deterministically* through
fault injection — crash, hang, slow, corrupt, broken submit — at fixed
seeds, and the core promise is checked throughout: frames that were not
faulted stay bit-identical to a fault-free serial run.

Multi-process tests keep frames tiny so pool startup, not segmentation,
dominates their cost.
"""

import time

import numpy as np
import pytest

from repro.core import SlicParams
from repro.errors import CheckpointError, ConfigurationError, ResilienceError
from repro.obs import MemorySink, Tracer
from repro.parallel import ParallelRunner, synthetic_batch, synthetic_streams
from repro.resilience import (
    CheckpointJournal,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NON_RETRYABLE_ERRORS,
    RetryPolicy,
    completed_prefixes,
    load_journal,
    record_from_json,
    record_to_json,
)

PARAMS = SlicParams(
    n_superpixels=40,
    max_iterations=4,
    subsample_ratio=0.5,
    convergence_threshold=0.3,
)


#: The runner pins the kernel backend into its params, so journal
#: fingerprints are taken over the *resolved* params, not PARAMS.
RESOLVED_PARAMS = ParallelRunner(PARAMS).params


def _tiny_batch(n=3, seed=2):
    return synthetic_batch(n, height=50, width=70, seed=seed)


def _tiny_streams(n_streams=2, n_frames=3, seed=1):
    return synthetic_streams(n_streams, n_frames, height=50, width=70, seed=seed)


def _assert_bit_identical(a, b):
    assert a.key == b.key
    assert a.ok and b.ok
    assert np.array_equal(a.result.labels, b.result.labels)
    assert np.array_equal(a.result.centers, b.result.centers)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_entries(self):
        plan = FaultPlan.parse("crash@1:0,hang@0:2~0.5,slow@2:1:-1")
        assert plan.entries[0] == FaultSpec("crash", 1, 0)
        assert plan.entries[1].duration == 0.5
        assert plan.entries[2].attempt == -1
        assert plan.lookup(1, 0, 0).kind == "crash"
        assert plan.lookup(1, 0, 1) is None  # attempt 0 only
        assert plan.lookup(2, 1, 7).kind == "slow"  # -1 = every attempt
        assert plan.lookup(0, 0, 0) is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(ResilienceError):
            FaultPlan.parse("explode@0:0")
        with pytest.raises(ResilienceError):
            FaultPlan.parse("crash@zero:0")

    def test_random_field_is_deterministic_and_seed_sensitive(self):
        plan = FaultPlan.parse("random", seed=7, rate=0.3)
        hits = {
            (s, f)
            for s in range(4)
            for f in range(20)
            if plan.lookup(s, f, 0) is not None
        }
        again = {
            (s, f)
            for s in range(4)
            for f in range(20)
            if plan.lookup(s, f, 0) is not None
        }
        assert hits == again
        assert 0 < len(hits) < 80  # ~24 expected; never all or nothing
        other = FaultPlan.parse("random", seed=8, rate=0.3)
        other_hits = {
            (s, f)
            for s in range(4)
            for f in range(20)
            if other.lookup(s, f, 0) is not None
        }
        assert hits != other_hits

    def test_random_faults_fire_on_first_attempt_only(self):
        plan = FaultPlan.parse("random", seed=7, rate=1.0)
        assert plan.lookup(0, 0, 0) is not None
        assert plan.lookup(0, 0, 1) is None

    def test_injector_skips_process_faults_in_process(self):
        tracer = Tracer(MemorySink())
        injector = FaultInjector(FaultPlan.parse("crash@0:0,error@0:1"), tracer)
        assert injector.fault_for(0, 0, 0, in_worker=False) is None
        assert injector.fault_for(0, 1, 0, in_worker=False).kind == "error"
        assert injector.skipped == 1
        assert injector.injected == 1

    def test_bad_rate_rejected(self):
        with pytest.raises(ResilienceError):
            FaultPlan(rate=1.5)


# ---------------------------------------------------------------------------
# Retry policy (pure logic)
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_disabled_by_default(self):
        assert not RetryPolicy().should_retry("WorkerCrash", 0, 0)

    def test_attempt_and_budget_bounds(self):
        p = RetryPolicy(retries=2, retry_budget=3)
        assert p.should_retry("WorkerCrash", 0, 0)
        assert p.should_retry("WorkerCrash", 1, 0)
        assert not p.should_retry("WorkerCrash", 2, 0)  # retries exhausted
        assert not p.should_retry("WorkerCrash", 0, 3)  # budget exhausted

    def test_deterministic_failures_never_retry(self):
        p = RetryPolicy(retries=5)
        for err in NON_RETRYABLE_ERRORS:
            assert not p.should_retry(err, 0, 0)
        assert p.should_retry("FrameTimeout", 0, 0)
        assert p.should_retry("InjectedFault", 0, 0)

    def test_exponential_backoff_with_cap(self):
        p = RetryPolicy(retries=9, backoff_s=0.1, backoff_factor=2.0,
                        max_backoff_s=0.5)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.4)
        assert p.delay(4) == pytest.approx(0.5)  # capped

    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(retries=-1)
        with pytest.raises(ResilienceError):
            RetryPolicy(backoff_factor=0.5)


# ---------------------------------------------------------------------------
# Retries in the runner (serial path: fast, no pool)
# ---------------------------------------------------------------------------
class TestRetries:
    def test_transient_fault_recovers_with_attempts_gt_one(self):
        frames = _tiny_batch(3)
        faulted = ParallelRunner(
            PARAMS, retry=2, faults=FaultPlan.parse("error@0:1")
        ).run_streams([frames])
        clean = ParallelRunner(PARAMS).run_streams([frames])
        assert faulted.n_ok == 3
        assert faulted.records[1].attempts == 2
        assert faulted.retries_used == 1
        assert faulted.n_recovered == 1
        for a, b in zip(faulted.records, clean.records):
            _assert_bit_identical(a, b)

    def test_persistent_fault_exhausts_retries_and_quarantines(self):
        res = ParallelRunner(
            PARAMS, retry=2, faults=FaultPlan.parse("error@0:1:-1")
        ).run_streams([_tiny_batch(3)])
        rec = res.records[1]
        assert not rec.ok
        assert rec.attempts == 3  # 1 try + 2 retries
        assert rec.quarantined
        assert res.n_quarantined == 1
        # The stream continued past the poison frame (cold restart).
        assert res.records[2].ok
        assert not res.records[2].warm_started

    def test_retry_budget_caps_batch_wide_retries(self):
        res = ParallelRunner(
            PARAMS,
            retry=RetryPolicy(retries=3, backoff_s=0.0, retry_budget=1),
            faults=FaultPlan.parse("error@0:0:-1,error@0:1:-1"),
        ).run_streams([_tiny_batch(3)])
        assert res.retries_used == 1
        assert res.n_failed == 2

    def test_corrupt_image_fault_is_image_error_not_retried(self):
        res = ParallelRunner(
            PARAMS, retry=3, faults=FaultPlan.parse("corrupt_image@0:0")
        ).run_streams([_tiny_batch(2)])
        rec = res.records[0]
        assert not rec.ok
        assert rec.error_type == "ImageError"
        assert rec.attempts == 1
        assert res.retries_used == 0

    def test_stream_blocked_while_retry_pending(self):
        # The faulted frame must resolve before its successor runs, so
        # the warm chain stays intact through a recovered retry.
        res = ParallelRunner(
            PARAMS,
            retry=RetryPolicy(retries=1, backoff_s=0.0),
            faults=FaultPlan.parse("error@0:1"),
        ).run_streams(_tiny_streams(1, 3))
        assert res.n_ok == 3
        assert [r.frame_index for r in res.records] == [0, 1, 2]
        assert res.records[2].warm_started


# ---------------------------------------------------------------------------
# Submission-time validation (parent-side ImageError records)
# ---------------------------------------------------------------------------
class TestSubmissionValidation:
    def test_nan_frame_rejected_in_parent(self):
        frames = _tiny_batch(2)
        bad = frames[0].astype(np.float64) / 255.0
        bad[0, 0, 0] = np.nan
        res = ParallelRunner(PARAMS).run_streams([[frames[0], bad, frames[1]]])
        rec = res.records[1]
        assert not rec.ok
        assert rec.error_type == "ImageError"
        assert "non-finite" in rec.error
        assert rec.worker_pid != 0  # produced by the parent, not a worker
        # The bad frame had a live warm chain behind it.
        assert rec.warm_started
        assert not res.records[2].warm_started  # chain broke

    def test_wrong_shape_rejected_in_parent(self):
        res = ParallelRunner(PARAMS).run_batch([np.zeros((10, 10))])
        assert res.records[0].error_type == "ImageError"

    def test_stream_error_record_reports_warm_state(self):
        # Satellite fix: a strict-shape StreamError on frame 1 must say
        # the stream *had* warm state when the plan failed.
        frames = _tiny_batch(2)
        small = frames[1][:40, :60]
        res = ParallelRunner(PARAMS, strict_shape=True).run_streams(
            [[frames[0], small]]
        )
        rec = res.records[1]
        assert rec.error_type == "StreamError"
        assert rec.warm_started


# ---------------------------------------------------------------------------
# Pool-level chaos (multi-process)
# ---------------------------------------------------------------------------
class TestPoolChaos:
    def test_injected_crash_recovers_and_matches_serial(self):
        streams_a = _tiny_streams(2, 2)
        streams_b = _tiny_streams(2, 2)
        faulted = ParallelRunner(
            PARAMS, n_workers=2, retry=2,
            faults=FaultPlan.parse("crash@0:0"),
        ).run_streams(streams_a)
        clean = ParallelRunner(PARAMS).run_streams(streams_b)
        assert faulted.n_ok == 4
        assert faulted.pool_restarts >= 1
        assert faulted.records[0].attempts > 1
        for a, b in zip(faulted.records, clean.records):
            _assert_bit_identical(a, b)

    def test_injected_submit_break_exercises_submit_branch(self):
        res = ParallelRunner(
            PARAMS, n_workers=2, retry=1,
            faults=FaultPlan.parse("submit_broken@0:0"),
        ).run_streams([[f] for f in _tiny_batch(2)])
        assert res.n_ok == 2
        assert res.pool_restarts == 1
        assert res.records[0].attempts == 2

    def test_unpicklable_result_becomes_record_and_recovers(self):
        res = ParallelRunner(
            PARAMS, n_workers=2, retry=1,
            faults=FaultPlan.parse("corrupt_result@0:0"),
        ).run_streams([[f] for f in _tiny_batch(2)])
        assert res.n_ok == 2
        assert res.records[0].attempts == 2

    def test_crash_without_retry_keeps_seed_behavior(self):
        # One stream: frame 1 is not in flight when frame 0's crash
        # breaks the pool, so the outcome is fully deterministic.
        res = ParallelRunner(
            PARAMS, n_workers=2, faults=FaultPlan.parse("crash@0:0")
        ).run_streams([_tiny_batch(2)])
        rec = res.records[0]
        assert not rec.ok
        assert rec.error_type == "WorkerCrash"
        assert not rec.quarantined
        assert res.n_ok == 1
        assert not res.records[1].warm_started  # chain broke

    def test_restart_exhaustion_falls_back_to_serial(self):
        # A persistent crash fault breaks the pool on every attempt; with
        # zero restarts allowed the runner flips to in-process execution,
        # where process-level faults are skipped — so the frame succeeds.
        res = ParallelRunner(
            PARAMS, n_workers=2, retry=3, max_pool_restarts=0,
            faults=FaultPlan.parse("crash@0:0:-1"),
        ).run_streams([[f] for f in _tiny_batch(2)])
        assert res.n_ok == 2
        assert res.pool_restarts == 1
        assert res.records[0].attempts > 1

    def test_deterministic_random_chaos_batch_completes(self):
        # The CI chaos smoke in miniature: a seeded random fault field
        # over a multi-stream batch; everything recovers or fails as
        # data, and the run is reproducible.
        plan = FaultPlan.parse("random", seed=42, rate=0.25)
        res = ParallelRunner(
            PARAMS, n_workers=2, frame_timeout=20.0,
            retry=RetryPolicy(retries=2, backoff_s=0.01),
            faults=plan,
        ).run_streams(_tiny_streams(3, 2, seed=4))
        assert res.n_frames == 6
        failed = [r for r in res.records if not r.ok]
        # Only deterministic faults (corrupt_image -> ImageError) may
        # remain failed; transient kinds must have been retried away.
        assert all(r.error_type == "ImageError" for r in failed)


# ---------------------------------------------------------------------------
# Watchdog (hang -> FrameTimeout)
# ---------------------------------------------------------------------------
class TestWatchdog:
    def test_hung_worker_becomes_frame_timeout_record(self):
        t0 = time.monotonic()
        res = ParallelRunner(
            PARAMS, n_workers=2, frame_timeout=4.0,
            faults=FaultPlan.parse("hang@0:0~60"),
        ).run_streams([[f] for f in _tiny_batch(2)])
        elapsed = time.monotonic() - t0
        rec = res.records[0]
        assert not rec.ok
        assert rec.error_type == "FrameTimeout"
        assert res.timeouts == 1
        assert res.records[1].ok  # the innocent frame was resubmitted
        assert elapsed < 30.0  # nowhere near the 60 s hang

    def test_timeout_then_retry_recovers(self):
        res = ParallelRunner(
            PARAMS, n_workers=2, frame_timeout=4.0,
            retry=RetryPolicy(retries=1, backoff_s=0.0),
            faults=FaultPlan.parse("hang@0:0~60"),
        ).run_streams([[f] for f in _tiny_batch(2)])
        assert res.n_ok == 2
        assert res.records[0].attempts == 2
        assert res.timeouts == 1

    def test_timeout_requires_positive_deadline(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(PARAMS, frame_timeout=0.0)


# ---------------------------------------------------------------------------
# Checkpoint journal + resume
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_record_json_roundtrip(self):
        res = ParallelRunner(PARAMS).run_batch(_tiny_batch(1))
        rec = res.records[0]
        back = record_from_json(record_to_json(rec), params=PARAMS)
        _assert_bit_identical(rec, back)
        assert back.elapsed_s == rec.elapsed_s
        assert back.kernel_backend == rec.kernel_backend

    def test_resume_is_bit_identical(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        frames = _tiny_batch(4, seed=5)
        full = ParallelRunner(PARAMS, checkpoint=journal).run_streams([frames])
        # Simulate a mid-run kill: keep header + first two records.
        lines = journal.read_text().splitlines(True)
        journal.write_text("".join(lines[:3]))
        resumed = ParallelRunner(PARAMS, checkpoint=journal).resume([frames])
        assert resumed.resumed_frames == 2
        assert resumed.n_frames == 4
        for a, b in zip(full.records, resumed.records):
            _assert_bit_identical(a, b)
        assert [r.warm_started for r in resumed.records] == [
            r.warm_started for r in full.records
        ]
        # The journal was re-completed: a second resume replays all 4.
        again = ParallelRunner(PARAMS, checkpoint=journal).resume([frames])
        assert again.resumed_frames == 4
        for a, b in zip(full.records, again.records):
            _assert_bit_identical(a, b)

    def test_resume_from_legacy_journal_with_tiles_resolved(self, tmp_path):
        # Journals written while connectivity kept a per-stream band
        # cache carry a "tiles_resolved" key in every result; they must
        # still load and resume bit-identically.
        import json

        journal = tmp_path / "journal.jsonl"
        frames = _tiny_batch(3, seed=5)
        full = ParallelRunner(PARAMS, checkpoint=journal).run_streams([frames])
        lines = journal.read_text().splitlines()
        legacy = [lines[0]]
        for line in lines[1:3]:
            payload = json.loads(line)
            payload["result"]["tiles_resolved"] = 17
            legacy.append(json.dumps(payload))
        journal.write_text("\n".join(legacy) + "\n")
        resumed = ParallelRunner(PARAMS, checkpoint=journal).resume([frames])
        assert resumed.resumed_frames == 2
        for a, b in zip(full.records, resumed.records):
            _assert_bit_identical(a, b)

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        frames = _tiny_batch(2)
        ParallelRunner(PARAMS, checkpoint=journal).run_streams([frames])
        text = journal.read_text()
        journal.write_text(text[: len(text) - 40])  # tear the last record
        records = load_journal(journal, RESOLVED_PARAMS)
        assert len(records) == 1

    def test_params_fingerprint_mismatch_refuses_resume(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        frames = _tiny_batch(1)
        ParallelRunner(PARAMS, checkpoint=journal).run_streams([frames])
        other = PARAMS.with_(compactness=PARAMS.compactness + 1)
        with pytest.raises(CheckpointError, match="different parameters"):
            ParallelRunner(other, checkpoint=journal).resume([frames])

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(CheckpointError):
            ParallelRunner(PARAMS).resume([_tiny_batch(1)])

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        ParallelRunner(PARAMS, checkpoint=journal).run_streams([_tiny_batch(2)])
        lines = journal.read_text().splitlines()
        lines[1] = lines[1][:20]  # corrupt a NON-final record
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_journal(journal, RESOLVED_PARAMS)

    def test_completed_prefixes_stop_at_gaps(self):
        mk = lambda s, f: record_from_json(
            {"stream_id": s, "frame_index": f, "ok": False}
        )
        prefixes = completed_prefixes(
            [mk(0, 0), mk(0, 2), mk(1, 0), mk(1, 1)]
        )
        assert [r.frame_index for r in prefixes[0]] == [0]
        assert [r.frame_index for r in prefixes[1]] == [0, 1]

    def test_failed_frames_replay_with_broken_chain(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        frames = _tiny_batch(3)
        bad = frames[1].astype(np.float64) / 255.0
        bad[0, 0, 0] = np.nan
        stream = [frames[0], bad, frames[2]]
        full = ParallelRunner(PARAMS, checkpoint=journal).run_streams([stream])
        lines = journal.read_text().splitlines(True)
        journal.write_text("".join(lines[:3]))  # header + ok + failed
        resumed = ParallelRunner(PARAMS, checkpoint=journal).resume([stream])
        assert resumed.resumed_frames == 2
        assert not resumed.records[1].ok
        # Frame 2 cold-started in both runs (the failure broke the chain).
        assert not resumed.records[2].warm_started
        _assert_bit_identical(full.records[2], resumed.records[2])


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
class TestResilienceTelemetry:
    def test_counters_emitted(self):
        tracer = Tracer(MemorySink())
        ParallelRunner(
            PARAMS, tracer=tracer,
            retry=RetryPolicy(retries=1, backoff_s=0.0),
            faults=FaultPlan.parse("error@0:1"),
        ).run_streams([_tiny_batch(3)])
        tracer.flush()
        counters = {
            e["name"]: e["value"]
            for e in tracer.sink.events
            if e["ev"] == "counter"
        }
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.retries"] == 1
        tracer.close()
