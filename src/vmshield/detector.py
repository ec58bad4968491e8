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
in-episode flag as arrays.  Its observe() advances a batch of distinct
VMs by one interval each: the tick simulator makes one call per tick,
and offline traces (process_trace) one call per row position, so
contiguous exceedances collapse to one alarm the same way in both.
The statistic log is columnar too: a StatLog holds blocks of arrays, one
per tick in the simulator and one for a whole trace, and renders
detector.csv in one formatting pass.

Defaults: drift 0.08, threshold 1.43, 10 s sampling interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, groupby, product

import numpy as np

from .errors import UnsortedTrace

DEFAULT_DRIFT = 0.08
DEFAULT_THRESHOLD = 1.43
DEFAULT_INTERVAL_SECONDS = 10.0
DEFAULT_THROTTLE_FACTOR = 0.1

POLICIES = ("log", "throttle", "suspend")

# Counts are int64 columns and stay below this, so that discrepancy's
# float64 division is exact, as Python's int / int is.
MAX_COUNT = 2**53

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


def discrepancy(syn, finrst):
    """Normalized SYN vs FIN|RST imbalance, in [-1, 1]; 0 for paired traffic.

    Takes counts or equal-length arrays of counts.
    """
    return (syn - finrst) / np.maximum(syn + finrst, 1)


class CusumDetector:
    """Streaming per-VM detector: each VM's y and in-episode flag, in arrays.

    A VM gets a slot, with y 0 and no episode, at its first observation.
    observe() advances one batch of distinct VMs by one interval each;
    the episode-start flag is set only on the first interval of a
    contiguous exceedance, so one long attack is one incident.
    """

    def __init__(self, drift: float = DEFAULT_DRIFT, threshold: float = DEFAULT_THRESHOLD):
        if not (math.isfinite(drift) and math.isfinite(threshold)):
            raise ValueError(f"drift {drift} and threshold {threshold} must be finite")
        if threshold <= drift:
            raise ValueError(f"threshold {threshold} must exceed drift {drift}")
        self.drift = drift
        self.threshold = threshold
        self.slot: dict[str, int] = {}
        self.y = np.zeros(0)
        self.exceeding = np.zeros(0, dtype=bool)

    def observe(self, vm_ids, syn, finrst):
        """One interval's (syn, finrst) counts for each VM of vm_ids.

        Returns the d, y and episode-start arrays, in vm_ids order.  A VM
        named twice in one batch is a ValueError.
        """
        if len(set(vm_ids)) != len(vm_ids):
            raise ValueError("observe needs distinct vm_ids in one batch")
        fresh = [vm_id for vm_id in vm_ids if vm_id not in self.slot]
        if fresh:
            self.slot.update(zip(fresh, range(len(self.slot), len(self.slot) + len(fresh))))
            self.y = np.concatenate([self.y, np.zeros(len(fresh))])
            self.exceeding = np.concatenate([self.exceeding, np.zeros(len(fresh), dtype=bool)])
        slots = np.fromiter(map(self.slot.__getitem__, vm_ids), np.intp, len(vm_ids))
        d = discrepancy(np.asarray(syn, dtype=np.int64), np.asarray(finrst, dtype=np.int64))
        y = np.maximum(0.0, self.y[slots] + d - self.drift)
        over = y > self.threshold
        start = over & ~self.exceeding[slots]
        self.y[slots] = y
        self.exceeding[slots] = over
        return d, y, start


_NO_ROWS = (np.empty(0, np.int64), [], np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0), np.empty(0), np.empty(0, bool))


class StatLog:
    """The statistic log as columns: one block of arrays per append.

    A block holds interval indices, vm ids, syn and finrst counts, d, y
    and alarm (episode-start) flags.  len counts rows, and iterating
    yields one StatRow per row, block by block.
    """

    def __init__(self):
        self.blocks: list[tuple] = []

    def append(self, interval_index, vm_ids, syn, finrst, d, y, alarm) -> None:
        """Add a block; interval_index is one index for the block or a column."""
        n = len(vm_ids)
        self.blocks.append((np.broadcast_to(np.asarray(interval_index, dtype=np.int64), (n,)),
                            list(vm_ids), np.asarray(syn, dtype=np.int64),
                            np.asarray(finrst, dtype=np.int64), np.asarray(d, dtype=float),
                            np.asarray(y, dtype=float), np.asarray(alarm, dtype=bool)))

    def __len__(self) -> int:
        return sum(len(block[1]) for block in self.blocks)

    def __iter__(self):
        for interval, vm_ids, syn, finrst, d, y, alarm in self.blocks:
            yield from map(StatRow, interval.tolist(), vm_ids, syn.tolist(), finrst.tolist(),
                           d.tolist(), y.tolist(), alarm.tolist())

    def columns(self) -> tuple:
        """Every block's columns joined: (interval, vm_ids, syn, finrst, d, y, alarm)."""
        blocks = [_NO_ROWS, *self.blocks]  # the empty block fixes the dtypes
        return (np.concatenate([b[0] for b in blocks]),
                list(chain.from_iterable(b[1] for b in blocks)),
                *(np.concatenate([b[k] for b in blocks]) for k in range(2, 7)))


@dataclass
class DetectionReport:
    """Alarms (one per contiguous exceedance episode), the y series and the statistic log."""

    alarms: list[Alarm] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    rows: StatLog = field(default_factory=StatLog)


def process_trace(
    intervals: list[TrafficInterval],
    drift: float = DEFAULT_DRIFT,
    threshold: float = DEFAULT_THRESHOLD,
) -> DetectionReport:
    """Run the detector over every VM's intervals independently.

    Contiguous exceedances collapse to a single alarm at the first
    crossing.  Rows and series are ordered by (vm_id, interval_index).
    VMs are independent, so batch j of the detector holds the j-th row
    of every VM that has one; a VM's duplicate rows stay in input order.
    The rows are one StatLog block; alarms and series hold Python ints
    and floats read off its columns.
    """
    detector = CusumDetector(drift, threshold)
    ordered = sorted(intervals, key=lambda iv: (iv.vm_id, iv.interval_index))
    vm_ids = [iv.vm_id for iv in ordered]
    index = np.array([iv.interval_index for iv in ordered], dtype=np.int64)
    syn = np.array([iv.syn for iv in ordered], dtype=np.int64)
    finrst = np.array([iv.finrst for iv in ordered], dtype=np.int64)
    runs = [(vm_id, len(list(run))) for vm_id, run in groupby(vm_ids)]
    lengths = np.array([n for _, n in runs], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    # each row's position within its VM's run; a stable sort groups batch j in vm_id order
    position = np.arange(len(vm_ids)) - np.repeat(starts, lengths)
    by_position = np.argsort(position, kind="stable")
    d, y = np.empty(len(vm_ids)), np.empty(len(vm_ids))
    alarm = np.empty(len(vm_ids), dtype=bool)
    for batch in np.split(by_position, np.cumsum(np.bincount(position))[:-1]):
        d[batch], y[batch], alarm[batch] = detector.observe(
            [vm_ids[k] for k in batch.tolist()], syn[batch], finrst[batch])
    rows = StatLog()
    rows.append(index, vm_ids, syn, finrst, d, y, alarm)
    indices, ys = index.tolist(), y.tolist()
    alarms = [Alarm(vm_ids[k], indices[k], ys[k]) for k in np.flatnonzero(alarm).tolist()]
    series = {vm_id: ys[k:k + n] for (vm_id, n), k in zip(runs, starts.tolist())}
    return DetectionReport(alarms, series, rows)


def bin_events(
    trace,
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

    trace is a traffic.Trace (hand-built events go through
    Trace.from_events), ordered by non-negative timestamp; a backwards
    jump raises UnsortedTrace and a negative timestamp ValueError.
    """
    interval_us = round(interval_seconds * 1_000_000) if math.isfinite(interval_seconds) else 0
    if interval_us < 1:
        raise ValueError(f"interval_seconds must be finite and at least 1 microsecond, "
                         f"got {interval_seconds}")
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


def _csv_field(value: str) -> str:
    """value as one field of a CSV row: quoted, quotes doubled, if it holds , " \\n or \\r.

    This is csv.writer's minimal quoting with a CRLF line terminator,
    so every field reads back through csv.reader whatever ends the line.
    """
    if any(c in value for c in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def stat_rows_to_csv(log: StatLog) -> str:
    """Render the statistic log: interval,vm_id,syn,finrst,d,y,alarm.

    The text equals csv.writer's row by row, with d and y to six
    decimal places.
    """
    interval, vm_ids, syn, finrst, d, y, alarm = log.columns()
    quoted = {vm_id: _csv_field(vm_id) for vm_id in set(vm_ids)}
    lines = map("%d,%s,%d,%d,%.6f,%.6f,%d\n".__mod__,
                zip(interval.tolist(), map(quoted.__getitem__, vm_ids), syn.tolist(),
                    finrst.tolist(), d.tolist(), y.tolist(), alarm.tolist()))
    return "interval,vm_id,syn,finrst,d,y,alarm\n" + "".join(lines)
