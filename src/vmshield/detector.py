"""Per-VM SYN-flood detection from connection-symmetry statistics.

Healthy TCP traffic pairs every connection request (SYN) with a later
termination (FIN or RST), so over a sampling interval the two counts
roughly cancel.  The detector folds the normalized difference

    d_n = (S_n - F_n) / max(S_n + F_n, 1)

into the clamped cumulative statistic

    y_n = max(0, y_{n-1} + d_n - drift)

and raises an alarm for a VM while y exceeds the threshold.  Each VM is
tracked independently, which is what lets the hypervisor name the
attacking guest rather than just noticing that the host is under load.

One streaming detector, CusumDetector, holds every VM's y and its
in-episode flag; offline traces (process_trace) and the tick simulator
both feed it one interval at a time, so contiguous exceedances collapse
to one alarm the same way in both.

Defaults: drift 0.08, threshold 1.43, 10 s sampling interval.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import UnsortedTrace

DEFAULT_DRIFT = 0.08
DEFAULT_THRESHOLD = 1.43
DEFAULT_INTERVAL_SECONDS = 10.0
DEFAULT_THROTTLE_FACTOR = 0.1

POLICIES = ("log", "throttle", "suspend")

# pkt_type values accepted in raw event traces.  SYN counts toward S,
# FIN and RST toward F; a server's SYN+ACK reply is neither a new
# connection attempt nor a termination, so it is ignored, as are plain
# ACK and anything else.
PKT_TYPES = ("SYN", "SYNACK", "FIN", "RST", "ACK", "OTHER")
_SYN = [PKT_TYPES.index("SYN")]
_FINRST = [PKT_TYPES.index("FIN"), PKT_TYPES.index("RST")]


@dataclass(frozen=True)
class TrafficInterval:
    """Per-VM SYN and FIN|RST counts for one sampling interval."""

    interval_index: int
    vm_id: str
    syn: int
    finrst: int


@dataclass(frozen=True)
class Alarm:
    """The first interval of one VM's contiguous threshold exceedance."""

    vm_id: str
    interval_index: int
    y_value: float


@dataclass(frozen=True)
class StatRow:
    """One line of the per-interval statistic log."""

    interval_index: int
    vm_id: str
    syn: int
    finrst: int
    d: float
    y: float
    alarm: bool


@dataclass
class DetectionReport:
    """Alarms (one per contiguous exceedance episode) plus the full y series."""

    alarms: list[Alarm] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    rows: list[StatRow] = field(default_factory=list)


def discrepancy(syn: int, finrst: int) -> float:
    """Normalized SYN vs FIN|RST imbalance, in [-1, 1]; 0 for paired traffic."""
    return (syn - finrst) / max(syn + finrst, 1)


class CusumDetector:
    """Streaming per-VM detector: each VM's y plus its in-episode flag.

    observe() advances one VM by one interval and returns the statistic
    row; the row's ``alarm`` flag is set only on the first interval of
    a contiguous exceedance, so one long attack is one incident.
    """

    def __init__(self, drift: float = DEFAULT_DRIFT, threshold: float = DEFAULT_THRESHOLD):
        if threshold <= drift:
            raise ValueError(f"threshold {threshold} must exceed drift {drift}")
        self.drift = drift
        self.threshold = threshold
        self.y: dict[str, float] = {}
        self.exceeding: dict[str, bool] = {}

    def observe(self, interval_index: int, vm_id: str, syn: int, finrst: int) -> StatRow:
        d = discrepancy(syn, finrst)
        y = self.y[vm_id] = max(0.0, self.y.get(vm_id, 0.0) + d - self.drift)
        over = y > self.threshold
        episode_start = over and not self.exceeding.get(vm_id, False)
        self.exceeding[vm_id] = over
        return StatRow(interval_index, vm_id, syn, finrst, d, y, episode_start)


def process_trace(
    intervals: list[TrafficInterval],
    drift: float = DEFAULT_DRIFT,
    threshold: float = DEFAULT_THRESHOLD,
) -> DetectionReport:
    """Run the detector over every VM's intervals independently.

    Contiguous exceedances collapse to a single alarm at the first
    crossing.  Rows and series are ordered by (vm_id, interval_index).
    """
    detector = CusumDetector(drift, threshold)
    report = DetectionReport()
    for iv in sorted(intervals, key=lambda i: (i.vm_id, i.interval_index)):
        row = detector.observe(iv.interval_index, iv.vm_id, iv.syn, iv.finrst)
        if row.alarm:
            report.alarms.append(Alarm(iv.vm_id, iv.interval_index, row.y))
        report.series.setdefault(iv.vm_id, []).append(row.y)
        report.rows.append(row)
    return report


def bin_events(
    events,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    span_seconds: float | None = None,
    vm_ids=None,
) -> list[TrafficInterval]:
    """Bucket raw packet events into per-(vm, interval) counts.

    Every interval in the observed span is emitted for every VM, zeros
    included, so the detector's statistic advances each interval even
    when a VM goes quiet.  The span defaults to covering the last
    event; passing span_seconds pins the interval count (events at or
    beyond it are dropped).  vm_ids forces rows for VMs absent from the
    trace.

    Events are a traffic.Trace or (timestamp_us, vm_id, pkt_type)
    triples, ordered by non-negative timestamp; a backwards jump raises
    UnsortedTrace and a negative timestamp ValueError.
    """
    from .traffic import Trace  # traffic imports this module

    interval_us = round(interval_seconds * 1_000_000) if math.isfinite(interval_seconds) else 0
    if interval_us < 1:
        raise ValueError(f"interval_seconds must be finite and at least 1 microsecond, "
                         f"got {interval_seconds}")
    trace = events if isinstance(events, Trace) else Trace.from_events(events)
    t_us = trace.t_us

    # comparing with a leading 0 lets the one ordering test also catch negative times
    back = np.flatnonzero(t_us < np.concatenate(([0], t_us[:-1])))
    if back.size:
        i = back[0]
        if t_us[i] < 0:
            raise ValueError(f"negative timestamp {t_us[i]} us for vm "
                             f"{trace.vm_ids[trace.vm[i]]!r}")
        raise UnsortedTrace(f"timestamp {t_us[i]} after {t_us[i - 1]}")

    index = t_us // interval_us
    if span_seconds is not None:
        n = max(0, -(-round(span_seconds * 1_000_000) // interval_us))
    else:
        n = int(index[-1]) + 1 if len(index) else 0
    present = {trace.vm_ids[code] for code in np.unique(trace.vm).tolist()}
    vms = sorted(present.union(vm_ids or ()))
    row = {vm_id: r for r, vm_id in enumerate(vms)}
    keep = index < n
    cell = np.array([row.get(v, 0) for v in trace.vm_ids], dtype=np.int64)[trace.vm[keep]] * n
    cell += index[keep]
    kind = trace.kind[keep]
    syn = np.bincount(cell[np.isin(kind, _SYN)], minlength=len(vms) * n)
    finrst = np.bincount(cell[np.isin(kind, _FINRST)], minlength=len(vms) * n)
    return [TrafficInterval(idx, vm_id, s, f) for (vm_id, idx), s, f
            in zip(product(vms, range(n)), syn.tolist(), finrst.tolist())]


def fill_gaps(intervals: list[TrafficInterval]) -> list[TrafficInterval]:
    """intervals plus a zero row for every (vm, index) missing from the span.

    The span runs from interval 0 to the largest index, for every VM,
    as bin_events emits it, so a quiet interval left out of a pre-binned
    trace still decays its VM's y.  A negative index is a ValueError.
    """
    given = {(iv.vm_id, iv.interval_index): iv for iv in intervals}
    indices = [0, *(iv.interval_index for iv in intervals)]
    if min(indices) < 0:
        raise ValueError(f"negative interval_index {min(indices)}")
    span = range(max(indices) + 1)
    return [given.get((vm_id, idx)) or TrafficInterval(idx, vm_id, 0, 0)
            for vm_id in sorted({iv.vm_id for iv in intervals}) for idx in span]


def stat_rows_to_csv(rows: list[StatRow]) -> str:
    """Render the statistic log: interval,vm_id,syn,finrst,d,y,alarm."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["interval", "vm_id", "syn", "finrst", "d", "y", "alarm"])
    for r in rows:
        writer.writerow(
            [r.interval_index, r.vm_id, r.syn, r.finrst, f"{r.d:.6f}", f"{r.y:.6f}", int(r.alarm)]
        )
    return buf.getvalue()
