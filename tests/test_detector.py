from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import cusum_oracle
from vmshield.detector import (
    DEFAULT_DRIFT,
    DEFAULT_THRESHOLD,
    CusumDetector,
    StatRow,
    TrafficInterval,
    bin_events,
    discrepancy,
    fill_gaps,
    process_trace,
    stat_rows_to_csv,
)
from vmshield.errors import UnsortedTrace
from vmshield.traffic import Trace


def _episode_starts(flags):
    return [f and not (i and flags[i - 1]) for i, f in enumerate(flags)]


def _observe(detector, interval_index, vm_id, syn, finrst):
    """One VM's interval as a one-VM batch, returned as its StatRow."""
    (d,), (y,), (alarm,) = (a.tolist() for a in detector.observe([vm_id], [syn], [finrst]))
    return StatRow(interval_index, vm_id, syn, finrst, d, y, alarm)


def test_discrepancy_basics():
    assert discrepancy(100, 100) == 0.0
    assert discrepancy(0, 0) == 0.0  # idle interval, not a division by zero
    assert discrepancy(106242, 3) == pytest.approx((106242 - 3) / 106245, abs=1e-12)
    assert discrepancy(0, 50) == -1.0
    assert discrepancy(50, 0) == 1.0


def test_discrepancy_bounded_seeded():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s = int(rng.integers(0, 10_000))
        f = int(rng.integers(0, 10_000))
        d = discrepancy(s, f)
        assert -1.0 <= d <= 1.0


def test_cusum_step_matches_recurrence_oracle():
    rng = np.random.default_rng(88)
    for _ in range(50):
        pairs = [
            (int(rng.integers(0, 500)), int(rng.integers(0, 500))) for _ in range(40)
        ]
        drift = float(rng.uniform(0.01, 0.3))
        threshold = drift + float(rng.uniform(0.1, 2.0))
        expected_y, expected_flags = cusum_oracle(pairs, drift, threshold)
        detector = CusumDetector(drift, threshold)
        rows = [_observe(detector, i, "vm", syn, finrst) for i, (syn, finrst) in enumerate(pairs)]
        assert [r.y for r in rows] == pytest.approx(expected_y, abs=1e-12)
        assert [r.alarm for r in rows] == _episode_starts(expected_flags)


def test_cusum_never_negative_and_never_resets():
    detector = CusumDetector(drift=0.08, threshold=1.43)
    assert _observe(detector, 0, "vm", 0, 1000).y == 0.0  # clamped at zero on all-FIN traffic
    # a sustained flood keeps the statistic above threshold: one episode, one alarm
    rows = [_observe(detector, i, "vm", 1000, 0) for i in range(1, 40)]
    assert all(a.y < b.y for a, b in zip(rows, rows[1:]))
    assert sum(r.alarm for r in rows) == 1


def test_detector_keeps_one_statistic_per_vm():
    # vm-b joins at interval 20 of an interleaved stream; it starts from
    # y = 0 however far vm-a's statistic has climbed by then
    rng = np.random.default_rng(21)
    pairs = {"vm-a": [(int(rng.integers(0, 900)), int(rng.integers(0, 300))) for _ in range(40)],
             "vm-b": [(int(rng.integers(0, 500)), int(rng.integers(0, 500))) for _ in range(20)]}
    detector = CusumDetector(drift=0.05, threshold=0.6)
    ys = {"vm-a": [], "vm-b": []}
    for i in range(40):
        ys["vm-a"].append(_observe(detector, i, "vm-a", *pairs["vm-a"][i]).y)
        if i >= 20:
            ys["vm-b"].append(_observe(detector, i, "vm-b", *pairs["vm-b"][i - 20]).y)
    for vm, vm_ys in ys.items():
        assert vm_ys == pytest.approx(cusum_oracle(pairs[vm], 0.05, 0.6)[0], abs=1e-12)
    assert ys["vm-a"][19] > 0.6


def test_cusum_state_requires_threshold_above_drift():
    with pytest.raises(ValueError, match="must exceed drift"):
        CusumDetector(0.5, 0.5)


def test_observe_needs_distinct_vms_and_finite_settings():
    detector = CusumDetector()
    with pytest.raises(ValueError, match="distinct vm_ids"):
        detector.observe(["a", "b", "a"], [1, 2, 3], [0, 0, 0])
    # a NaN drift used to clamp every y to 0, so detection was silently off
    for drift, threshold in ((float("nan"), 1.43), (0.08, float("nan")), (-math.inf, 1.43)):
        with pytest.raises(ValueError, match="must be finite"):
            CusumDetector(drift, threshold)


def test_published_two_interval_trace():
    trace = [
        TrafficInterval(0, "vm1", 106242, 3),
        TrafficInterval(1, "vm1", 107762, 3),
    ]
    report = process_trace(trace, drift=0.08, threshold=1.43)
    assert report.series["vm1"][0] == pytest.approx(0.9199, abs=1e-4)
    assert report.series["vm1"][1] == pytest.approx(1.8399, abs=1e-4)
    assert [(a.vm_id, a.interval_index) for a in report.alarms] == [("vm1", 1)]


def test_streaming_detector_interleaves_vms_and_flags_episode_starts():
    rng = np.random.default_rng(13)
    pairs = {vm: [(int(rng.integers(0, 900)), int(rng.integers(0, 300))) for _ in range(30)]
             for vm in ("a", "b")}
    detector = CusumDetector(drift=0.1, threshold=1.2)
    rows = {"a": [], "b": []}
    for i in range(30):  # feed the two VMs' intervals interleaved
        for vm in ("b", "a"):
            rows[vm].append(_observe(detector, i, vm, *pairs[vm][i]))
    for vm, vm_rows in rows.items():
        ys, flags = cusum_oracle(pairs[vm], 0.1, 1.2)
        assert [r.y for r in vm_rows] == pytest.approx(ys, abs=1e-12)
        starts = _episode_starts(flags)
        assert [r.alarm for r in vm_rows] == starts
        assert any(starts)
    with pytest.raises(ValueError, match="must exceed drift"):
        CusumDetector(drift=0.5, threshold=0.5)


def test_episode_collapsing_one_alarm_per_exceedance_run():
    # pump y above threshold, hold it, let it decay below, pump again
    up = [(1000, 0)] * 3        # +0.92 per interval
    hold = [(100, 100)] * 2     # -0.08 per interval, stays above
    down = [(0, 0)] * 40        # decays to 0
    again = [(1000, 0)] * 3
    pairs = up + hold + down + again
    trace = [TrafficInterval(i, "vm", s, f) for i, (s, f) in enumerate(pairs)]
    report = process_trace(trace)
    assert len(report.alarms) == 2
    assert report.alarms[0].interval_index == 1  # 0.92 then 1.84 crosses
    assert report.alarms[1].interval_index == len(up + hold + down) + 1
    flagged = [r.interval_index for r in report.rows if r.alarm]
    assert flagged == [a.interval_index for a in report.alarms]


def test_process_trace_tracks_vms_independently():
    trace = [
        TrafficInterval(0, "quiet", 100, 100),
        TrafficInterval(0, "loud", 5000, 3),
        TrafficInterval(1, "quiet", 100, 100),
        TrafficInterval(1, "loud", 5000, 3),
    ]
    report = process_trace(trace)
    assert report.series["quiet"] == [0.0, 0.0]
    assert all(a.vm_id == "loud" for a in report.alarms)
    assert [r.vm_id for r in report.rows] == ["loud", "loud", "quiet", "quiet"]


def test_process_trace_sorts_out_of_order_intervals():
    trace = [
        TrafficInterval(1, "vm", 100, 100),
        TrafficInterval(0, "vm", 1000, 0),
    ]
    report = process_trace(trace)
    assert report.series["vm"][0] == pytest.approx(0.92, abs=1e-9)


def test_bin_events_pairs_across_interval_boundary():
    events = [
        (1_000_000, "vm1", "SYN"),
        (14_000_000, "vm1", "FIN"),
    ]
    out = bin_events(Trace.from_events(events), interval_seconds=10)
    assert out == [
        TrafficInterval(0, "vm1", 1, 0),
        TrafficInterval(1, "vm1", 0, 1),
    ]


def test_bin_events_empty_trace_with_span():
    out = bin_events(Trace.from_events([]), interval_seconds=10, span_seconds=30, vm_ids=["vm1"])
    assert out == [
        TrafficInterval(0, "vm1", 0, 0),
        TrafficInterval(1, "vm1", 0, 0),
        TrafficInterval(2, "vm1", 0, 0),
    ]


def test_bin_events_zero_fills_quiet_intervals():
    events = [
        (500_000, "vm1", "SYN"),
        (45_000_000, "vm1", "RST"),
    ]
    out = bin_events(Trace.from_events(events), interval_seconds=10)
    assert [iv.interval_index for iv in out] == [0, 1, 2, 3, 4]
    assert out[0].syn == 1
    assert out[4].finrst == 1
    assert all(iv.syn == 0 and iv.finrst == 0 for iv in out[1:4])


def test_bin_events_ignores_non_handshake_packets():
    events = [
        (0, "vm1", "SYN"),
        (1, "vm1", "SYNACK"),
        (2, "vm1", "ACK"),
        (3, "vm1", "OTHER"),
        (4, "vm1", "RST"),
    ]
    out = bin_events(Trace.from_events(events), interval_seconds=10)
    assert out == [TrafficInterval(0, "vm1", 1, 1)]


def test_bin_events_span_drops_overflow():
    events = [(5_000_000, "vm1", "SYN"), (25_000_000, "vm1", "SYN")]
    out = bin_events(Trace.from_events(events), interval_seconds=10, span_seconds=20)
    assert [iv.syn for iv in out] == [1, 0]


def test_bin_events_unsorted_raises():
    events = [(10, "vm1", "SYN"), (5, "vm1", "SYN")]
    with pytest.raises(UnsortedTrace):
        bin_events(Trace.from_events(events), interval_seconds=10)


def test_bin_events_rejects_negative_timestamps():
    # these SYNs used to fall into interval -1 and vanish from the output
    events = [(-5_000_000, "vm1", "SYN"), (-4_000_000, "vm1", "SYN"), (1_000_000, "vm1", "FIN")]
    with pytest.raises(ValueError, match="negative timestamp"):
        bin_events(Trace.from_events(events), interval_seconds=10)


def test_bin_events_multiple_vms_share_the_grid():
    events = [
        (0, "a", "SYN"),
        (11_000_000, "b", "SYN"),
    ]
    out = bin_events(Trace.from_events(events), interval_seconds=10)
    assert [(iv.vm_id, iv.interval_index) for iv in out] == [
        ("a", 0), ("a", 1), ("b", 0), ("b", 1),
    ]


def test_fill_gaps_spans_from_interval_zero():
    out = fill_gaps([TrafficInterval(2, "b", 5, 1), TrafficInterval(0, "a", 3, 3)])
    assert [(iv.vm_id, iv.interval_index, iv.syn) for iv in out] == [
        ("a", 0, 3), ("a", 1, 0), ("a", 2, 0), ("b", 0, 0), ("b", 1, 0), ("b", 2, 5),
    ]
    with pytest.raises(ValueError, match="negative interval_index -3"):
        fill_gaps([TrafficInterval(-3, "v", 100, 0), TrafficInterval(0, "v", 100, 0)])


def test_stat_csv_format():
    trace = [
        TrafficInterval(0, "vm1", 106242, 3),
        TrafficInterval(1, "vm1", 107762, 3),
    ]
    report = process_trace(trace)
    text = stat_rows_to_csv(report.rows)
    lines = text.strip().split("\n")
    assert lines[0] == "interval,vm_id,syn,finrst,d,y,alarm"
    assert lines[1] == "0,vm1,106242,3,0.999944,0.919944,0"
    assert lines[2] == "1,vm1,107762,3,0.999944,1.839888,1"


def test_default_parameters():
    assert DEFAULT_DRIFT == 0.08
    assert DEFAULT_THRESHOLD == 1.43
    detector = CusumDetector()
    assert detector.drift == 0.08
    assert detector.threshold == 1.43
