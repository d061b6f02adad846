"""Tests for the benchmark's own arithmetic (``calc.py``).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import statistics

import pytest

import calc


class TestTailRule:
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert calc.percentile(values, 50) == 50
        assert calc.percentile(values, 90) == 90
        assert calc.percentile(values, 100) == 100
        assert calc.percentile([7.0], 1) == 7.0

    def test_tail_leaves_ten_samples_beyond(self):
        for n in (20, 21, 37, 100, 1000, 5000):
            pct = calc.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > calc.percentile(values, pct) for v in values)
            assert beyond >= calc.TAIL_MIN_BEYOND
            if pct < 99:
                # One percentile higher would leave fewer than ten.
                higher = calc.percentile(values, pct + 1)
                assert sum(v > higher for v in values) < calc.TAIL_MIN_BEYOND

    def test_known_values(self):
        assert calc.tail_percentile(100) == 90
        assert calc.tail_percentile(1000) == 99
        assert calc.tail_percentile(60) == 83
        assert calc.tail_percentile(22) == 54

    def test_few_samples_fall_back_to_median(self):
        assert calc.tail_percentile(5) == 50
        assert calc.tail_percentile(15) == 50
        value, pct, n = calc.tail([3.0, 1.0, 2.0])
        assert (value, pct, n) == (2.0, 50, 3)
        # An even count: the tail is the same sample p50 reports.
        values = [4.0, 1.0, 3.0, 2.0]
        assert calc.tail(values)[0] == calc.p50(values) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            calc.tail([])
        with pytest.raises(ValueError):
            calc.percentile([1.0], 0)

    def test_min_per_frame(self):
        passes = [[0.5, 0.9, 0.3], [0.6, 0.7, 0.35], [0.55, 0.8, 0.29]]
        assert calc.min_per_frame(passes) == [0.5, 0.7, 0.29]
        with pytest.raises(ValueError):
            calc.min_per_frame([[0.5], [0.5, 0.6]])
        with pytest.raises(ValueError):
            calc.min_per_frame([])

    def test_median_per_frame(self):
        passes = [[0.5, 0.9, 0.3], [0.6, 0.7, 0.35], [0.55, 0.8, 0.1]]
        assert calc.median_per_frame(passes) == [0.55, 0.8, 0.3]
        with pytest.raises(ValueError):
            calc.median_per_frame([[0.5], [0.5, 0.6]])

    def test_closed_loop_rate(self):
        # Median times 0.2 + 0.3 over the two requests every window
        # reached: 2 requests in 0.5 s. The lull in the third window
        # (0.05 s) does not count.
        windows = [[0.1, 0.3, 0.5], [0.2, 0.4], [0.3, 0.05]]
        assert calc.closed_loop_rate(windows) == pytest.approx(2 / 0.5)
        with pytest.raises(ValueError):
            calc.closed_loop_rate([[0.1], []])

    def test_quartile_spread_matches_statistics(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.1, 9.9]
        q1, med, q3 = statistics.quantiles(values, n=4)
        assert calc.quartile_spread(values) == pytest.approx((q3 - q1) / med)


class TestOpenLoop:
    def test_due_times_follow_the_schedule(self):
        dues = calc.due_times(4.0, 1.0)
        assert dues == pytest.approx([0.0, 0.25, 0.5, 0.75])
        shifted = calc.due_times(2.0, 2.0, phase_s=0.25)
        assert shifted == pytest.approx([0.25, 0.75, 1.25, 1.75])
        # A slow rate still gets its minimum number of frames.
        assert calc.due_times(1.0, 1.5, min_count=3) == pytest.approx(
            [0.0, 1.0, 2.0])

    def test_due_times_validate(self):
        with pytest.raises(ValueError):
            calc.due_times(0.0, 1.0)

    def test_latency_counts_from_due_not_send(self):
        # Due at 1.0, sent late at 1.3 because the previous request
        # stalled, answered at 1.4: the user waited 400 ms, not 100 ms.
        assert calc.due_latency_ms(1.0, 1.4) == pytest.approx(400.0)
        assert calc.lateness_ms(1.0, 1.3) == pytest.approx(300.0)

    def test_early_send_is_not_negative_lateness(self):
        assert calc.lateness_ms(1.0, 0.999) == 0.0

    def test_backlog_rule(self):
        steady = [0.0, 2.0, 1.0, 0.5, 3.0, 1.0, 0.0, 2.0, 1.0]
        assert not calc.backlog_grows(steady, tolerance_ms=50.0)
        growing = [0.0, 5.0, 10.0, 40.0, 60.0, 90.0, 150.0, 200.0, 260.0]
        assert calc.backlog_grows(growing, tolerance_ms=50.0)
        # A single late burst in the middle is not a growing backlog.
        burst = [0.0, 1.0, 0.0, 300.0, 250.0, 1.0, 0.0, 1.0, 0.0]
        assert not calc.backlog_grows(burst, tolerance_ms=50.0)
        assert not calc.backlog_grows([500.0, 900.0], tolerance_ms=50.0)


def _rung(rate, tail_ms, failed=0, grows=False):
    return {"rate": rate, "achieved_rps": rate * 0.99, "tail_ms": tail_ms,
            "failed": failed, "backlog_grows": grows}


class TestMaxRps:
    def test_highest_passing_rung(self):
        rungs = [_rung(3, 100), _rung(6, 150), _rung(8, 400)]
        assert calc.max_rps(rungs, limit_ms=300) == (6 * 0.99, 6)

    def test_backlog_or_failure_disqualify(self):
        rungs = [_rung(3, 100), _rung(6, 150, grows=True), _rung(8, 200, failed=1)]
        assert calc.max_rps(rungs, limit_ms=300) == (3 * 0.99, 3)

    def test_order_of_rungs_does_not_matter(self):
        rungs = [_rung(8, 200), _rung(3, 100), _rung(6, 150)]
        assert calc.max_rps(rungs, limit_ms=300)[1] == 8

    def test_nothing_passes(self):
        assert calc.max_rps([_rung(3, 900)], limit_ms=300) == (0.0, None)


class TestAccounting:
    def test_layers_add_up_to_frame_wall(self):
        timings = [{"color": 0.1, "assign": 0.3}, {"color": 0.1, "assign": 0.2}]
        elapsed = [0.45, 0.35]
        acct = calc.frame_accounting(0.9, elapsed, timings)
        assert acct["frame_ms"] == pytest.approx(450.0)
        assert acct["phases_ms"] == pytest.approx({"color": 100.0, "assign": 250.0})
        assert acct["unattributed_ms"] == pytest.approx(50.0)
        assert acct["overhead_ms"] == pytest.approx(50.0)
        assert calc.accounting_residual_ms(acct) == pytest.approx(0.0, abs=1e-9)

    def test_accounting_needs_matching_lists(self):
        with pytest.raises(ValueError):
            calc.frame_accounting(1.0, [0.5], [])
        with pytest.raises(ValueError):
            calc.frame_accounting(1.0, [], [])


class TestOutcomes:
    def test_each_attempt_fails_once(self):
        out = calc.Outcomes()
        out.add([])
        out.add(["degraded", "mismatch_replay"])
        out.add(["status:429"])
        out.add([None])
        assert out.attempted == 4
        assert out.failed == 2
        assert out.failed_frac == pytest.approx(0.5)
        assert out.reasons == {"degraded": 1, "mismatch_replay": 1, "status:429": 1}

    def test_no_attempts(self):
        assert calc.Outcomes().failed_frac == 0.0
