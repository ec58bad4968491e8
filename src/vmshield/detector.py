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

One streaming detector, CusumDetector, holds every VM's y and in-episode
flag in arrays by slot, the caller's number for the VM.  Its observe()
advances a batch of distinct slots by one interval each: the simulator
makes one call per tick and process_trace one per interval, so
contiguous exceedances collapse to one alarm the same way in both.
Offline counts are one dense grid, a Counts of VMs by intervals:
bin_events (one trace), bin_event_blocks (one trace in blocks, a grid
grown as they come), fill_gaps and traffic's binned generators return one.
fill_gaps checks binned rows, read from a file or built in Python alike,
so that each d stays in [-1, 1].
One function, _interval_to_us, makes every interval length whole
microseconds, so offline and simulated time share one grid, on which
fin_slot_pairs counts, exactly, the slots a simulated FIN can land in.
The statistic log is columnar too: a StatLog holds blocks of arrays, one
per tick in the simulator and one for a whole trace, with slots in place
of ids, and renders detector.csv by naming its columns to
resources._csv_lines, the byte kernel that also writes trace files.

Defaults: drift 0.08, threshold 1.43, 10 s sampling interval.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsortedTrace
from .resources import _csv_lines, is_int

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
_SYN, _FIN, _RST = (PKT_TYPES.index(p) for p in ("SYN", "FIN", "RST"))


@dataclass(frozen=True)
class TrafficInterval:
    """Per-VM SYN and FIN|RST counts for one sampling interval."""

    interval_index: int
    vm_id: str
    syn: int
    finrst: int


class Counts:
    """Per-interval (SYN, FIN|RST) counts as a dense grid of VMs by intervals.

    ``vm_ids`` is a sorted tuple, and ``syn`` and ``finrst`` are int64
    arrays of shape (len(vm_ids), intervals), intervals counted from 0.
    len counts cells, and iterating yields one TrafficInterval per cell
    in (vm_id, interval) order.
    """

    __slots__ = ("vm_ids", "syn", "finrst")

    def __init__(self, vm_ids, syn, finrst):
        self.vm_ids = tuple(vm_ids)
        self.syn = np.asarray(syn, dtype=np.int64)
        self.finrst = np.asarray(finrst, dtype=np.int64)

    def __len__(self) -> int:
        return self.syn.size

    def __iter__(self):
        for vm_id, syn, finrst in zip(self.vm_ids, self.syn.tolist(), self.finrst.tolist()):
            yield from map(TrafficInterval, range(len(syn)), [vm_id] * len(syn), syn, finrst)


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


def _interval_to_us(interval_seconds: float) -> int:
    """interval_seconds as whole microseconds; under 1 us or not finite is a ValueError."""
    interval_us = round(interval_seconds * 1_000_000) if math.isfinite(interval_seconds) else 0
    if interval_us < 1:
        raise ValueError(f"interval_seconds must be finite and at least 1 microsecond, "
                         f"got {interval_seconds}")
    return interval_us


def fin_slot_pairs(interval_us: int, lo_us: int, hi_us: int) -> list[int]:
    """By slot k, the pairs of an offset in [0, interval_us) and a FIN delay in [lo_us, hi_us]
    with (offset + delay) // interval_us == k, for every slot a FIN can reach."""
    def below(t):  # pairs with offset + delay < t: a second difference of triangular numbers
        return sum(s * max(m, 0) * (max(m, 0) - 1) // 2 for s, m in (
            (1, t - lo_us + 1), (-1, t - lo_us + 1 - interval_us), (-1, t - hi_us), (1, t - hi_us - interval_us)))
    slots = (interval_us - 1 + hi_us) // interval_us + 1
    return [below((k + 1) * interval_us) - below(k * interval_us) for k in range(slots)]


def discrepancy(syn, finrst):
    """Normalized SYN vs FIN|RST imbalance, in [-1, 1]; 0 for paired traffic.

    Takes counts or equal-length arrays of counts.
    """
    return (syn - finrst) / np.maximum(syn + finrst, 1)


class CusumDetector:
    """Streaming per-VM detector: each VM's y and in-episode flag, in arrays by slot.

    Slots are the caller's non-negative VM numbers; the arrays grow to the
    largest one, and a slot not yet observed reads y 0 and no episode.
    observe() advances one batch of distinct slots by one interval each;
    the episode-start flag is set only on the first interval of a
    contiguous exceedance, so one long attack is one incident.
    """

    def __init__(self, drift: float = DEFAULT_DRIFT, threshold: float = DEFAULT_THRESHOLD):
        for name, value in (("drift", drift), ("threshold", threshold)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if threshold <= drift:
            raise ValueError(f"threshold {threshold} must exceed drift {drift}")
        self.drift = drift
        self.threshold = threshold
        self.y = np.zeros(0)
        self.exceeding = np.zeros(0, dtype=bool)

    def observe(self, slots, syn, finrst):
        """One interval's (syn, finrst) counts for each VM slot of slots.

        Returns the d, y and episode-start arrays, in slots order.  A slot
        that is not a non-negative integer, or one named twice in one
        batch, is a ValueError.
        """
        slots = np.asarray(slots)
        if slots.size and (slots.dtype.kind not in "iu" or slots.min() < 0):
            raise ValueError(f"observe needs non-negative integer slots, got {slots.dtype} {slots.min()}")
        slots = slots.astype(np.intp, copy=False)
        named = np.bincount(slots)  # times each slot is named
        if named.size and named.max() > 1:
            raise ValueError("observe needs distinct slots in one batch")
        grow = named.size - self.y.size
        if grow > 0:
            self.y = np.concatenate([self.y, np.zeros(grow)])
            self.exceeding = np.concatenate([self.exceeding, np.zeros(grow, dtype=bool)])
        d = discrepancy(np.asarray(syn, dtype=np.int64), np.asarray(finrst, dtype=np.int64))
        y = np.maximum(0.0, self.y[slots] + d - self.drift)
        over = y > self.threshold
        start = over & ~self.exceeding[slots]
        self.y[slots] = y
        self.exceeding[slots] = over
        return d, y, start


class StatLog:
    """The statistic log as columns: one block of arrays per append.

    vm_ids, the id of each slot, is held by reference, so its owner may
    append ids later.  A block holds interval indices, slots, syn and
    finrst counts, d, y and alarm (episode-start) flags.  len counts rows,
    and iterating yields one StatRow per row, block by block.
    """

    def __init__(self, vm_ids=None):
        self.vm_ids = [] if vm_ids is None else vm_ids
        self.blocks: list[tuple] = []

    def append(self, interval_index, slots, syn, finrst, d, y, alarm) -> None:
        """Add a block; interval_index is one index for the block or a column."""
        slots = np.asarray(slots, dtype=np.intp)
        self.blocks.append((np.broadcast_to(np.asarray(interval_index, dtype=np.int64), slots.shape),
                            slots, np.asarray(syn, dtype=np.int64),
                            np.asarray(finrst, dtype=np.int64), np.asarray(d, dtype=float),
                            np.asarray(y, dtype=float), np.asarray(alarm, dtype=bool)))

    def __len__(self) -> int:
        return sum(len(block[1]) for block in self.blocks)

    def __iter__(self):
        for interval, slots, syn, finrst, d, y, alarm in self.blocks:
            yield from map(StatRow, interval.tolist(), map(self.vm_ids.__getitem__, slots.tolist()),
                           syn.tolist(), finrst.tolist(), d.tolist(), y.tolist(), alarm.tolist())


@dataclass
class DetectionReport:
    """Alarms (one per contiguous exceedance episode), the y series and the statistic log."""

    alarms: list[Alarm] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    rows: StatLog = field(default_factory=StatLog)


def process_trace(
    counts: Counts,
    drift: float = DEFAULT_DRIFT,
    threshold: float = DEFAULT_THRESHOLD,
) -> DetectionReport:
    """Run the detector over every VM's intervals independently.

    Contiguous exceedances collapse to a single alarm at the first
    crossing.  Each interval is one detector batch of every VM, as a
    tick is in the simulator.  Rows and series are ordered by (vm_id,
    interval_index); the rows are one StatLog block, and alarms and
    series hold Python ints and floats.  Hand-built TrafficInterval rows
    go through fill_gaps.
    """
    detector = CusumDetector(drift, threshold)
    vm_ids = counts.vm_ids
    n_vms, n = counts.syn.shape
    slots = np.arange(n_vms)  # a VM's slot is its row of counts
    d, y = np.empty((n_vms, n)), np.empty((n_vms, n))
    alarm = np.empty((n_vms, n), dtype=bool)
    for j in range(n):
        d[:, j], y[:, j], alarm[:, j] = detector.observe(slots, counts.syn[:, j], counts.finrst[:, j])
    rows = StatLog(vm_ids)
    rows.append(np.tile(np.arange(n), n_vms), np.repeat(slots, n),
                counts.syn.ravel(), counts.finrst.ravel(), d.ravel(), y.ravel(), alarm.ravel())
    ys = y.tolist()
    alarms = [Alarm(vm_ids[v], j, ys[v][j]) for v, j in np.argwhere(alarm).tolist()]
    return DetectionReport(alarms, dict(zip(vm_ids, ys)), rows)


def bin_events(
    trace,
    interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    n_intervals: int | None = None,
    vm_ids=None,
) -> Counts:
    """Bucket raw packet events into per-(vm, interval) counts.

    Every interval in the observed span is emitted for every VM, zeros
    included, so the detector's statistic advances each interval even
    when a VM goes quiet.  The span defaults to covering the last
    event; passing n_intervals pins the interval count (events at or
    beyond it are dropped).  vm_ids forces rows for VMs absent from the
    trace.

    trace is a traffic.Trace (hand-built events go through
    Trace.from_events), ordered by non-negative timestamp; a backwards
    jump raises UnsortedTrace, and a negative timestamp or a grid too
    large to allocate ValueError.  It is bin_event_blocks of one block.
    """
    return bin_event_blocks([trace], interval_seconds, n_intervals, vm_ids)


def bin_event_blocks(blocks, interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
                     n_intervals: int | None = None, vm_ids=None) -> Counts:
    """bin_events of one trace handed over as Traces in turn, each going on in time from the last.

    Each block's counts are added into one grid, grown as VMs and intervals come, so a trace read in blocks
    holds the grid and one block.  After a fault, a step back in time or a grid too large to allocate, the rest
    is still taken, so that an error in making a block comes first; then it is raised as bin_events raises it.
    """
    interval_us = _interval_to_us(interval_seconds)
    rows = {vm_id: r for r, vm_id in enumerate(dict.fromkeys(vm_ids or ()))}  # each VM's grid row
    n = n_intervals or 0
    grid = first = np.zeros((2, len(rows), n), dtype=np.int64)  # syn and finrst
    last, too_big = 0, None  # the last timestamp so far, and why counting stopped
    for trace in blocks:
        t_us = trace.t_us
        prev = np.concatenate(([last], t_us[:-1]))  # a leading 0 lets the one ordering test catch negative times
        if (back := np.flatnonzero(t_us < prev)).size:
            i = back[0]
            collections.deque(blocks, maxlen=0)  # the rest first: an error in making a block wins
            raise (ValueError(f"negative timestamp {t_us[i]} us for vm {trace.vm_ids[trace.vm[i]]!r}") if t_us[i] < 0
                   else UnsortedTrace(f"timestamp {t_us[i]} after {prev[i]}"))
        if not len(t_us):
            continue
        present, local = np.unique(trace.vm, return_inverse=True)
        row = np.array([rows.setdefault(trace.vm_ids[code], len(rows)) for code in present.tolist()], dtype=np.intp)
        index, last = t_us // interval_us, t_us[-1]
        n = n if n_intervals is not None else max(n, int(index[-1]) + 1)
        try:
            grid = grid if grid is None else _grown(grid, len(rows), n, last)
        except ValueError as exc:
            grid, too_big = None, str(exc)
        if grid is not None and (stop := np.searchsorted(index, n)):  # the events inside the grid, a prefix
            lo, span, kind = int(index[0]), int(index[stop - 1] - index[0]) + 1, trace.kind[:stop]
            cell = local.ravel()[:stop] * span + (index[:stop] - lo)
            for k, counted in enumerate((kind == _SYN, (kind == _FIN) | (kind == _RST))):
                grid[k, row, lo:lo + span] += np.bincount(cell[counted], minlength=len(row) * span).reshape(-1, span)
    if grid is None:
        _grown(first, len(rows), n, last)  # the whole trace's grid, as bin_events sizes it, names the fault
        raise ValueError(too_big)
    vms = sorted(rows)
    return Counts(vms, *grid[:, [rows[vm_id] for vm_id in vms], :n])


def _grown(grid, vms: int, n: int, last: int):
    """grid, or a zero-padded copy with vms rows and n intervals, an axis grown a quarter more so copies stay few."""
    if vms <= grid.shape[1] and n <= grid.shape[2]:
        return grid
    try:
        bigger = np.zeros((2, *(need + need // 4 if need > have else have
                                for need, have in zip((vms, n), grid.shape[1:]))), dtype=np.int64)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValueError(f"timestamp {last} us makes a {vms} x {n} grid too large to allocate: {exc}") from exc
    bigger[:, :grid.shape[1], :grid.shape[2]] = grid
    return bigger


def fill_gaps(rows) -> Counts:
    """The Counts grid of TrafficInterval rows, zero where a row is missing.

    The grid runs from interval 0 to the largest index, for every VM,
    as bin_events emits it, so a quiet interval left out of a pre-binned
    trace still decays its VM's y.  Each row is checked as it is taken
    from rows, so a reader handing rows over one at a time knows the
    failing one: an index or count that is not an int (a bool is not), a
    negative index, a count outside [0, MAX_COUNT) or a repeated
    (vm_id, interval_index) is a ValueError, as is, after the last row, a
    grid too large to allocate.
    """
    cells: dict[tuple[str, int], tuple[int, int]] = {}  # (vm_id, index) -> (syn, finrst)
    for iv in rows:
        for name in ("interval_index", "syn", "finrst"):
            if not is_int(getattr(iv, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(iv, name)!r}")
        if iv.interval_index < 0:
            raise ValueError(f"interval_index must be >= 0, got {iv.interval_index}")
        if not (0 <= iv.syn < MAX_COUNT and 0 <= iv.finrst < MAX_COUNT):
            raise ValueError(f"syn and finrst must be >= 0 and below {MAX_COUNT}")
        if (iv.vm_id, iv.interval_index) in cells:
            raise ValueError(f"duplicate row for vm {iv.vm_id!r} interval {iv.interval_index}")
        cells[iv.vm_id, iv.interval_index] = iv.syn, iv.finrst
    vm_ids = sorted({vm_id for vm_id, _ in cells})
    slot = {vm_id: v for v, vm_id in enumerate(vm_ids)}
    last = max((index for _, index in cells), default=-1)
    try:
        syn = np.zeros((len(vm_ids), last + 1), dtype=np.int64)
        finrst = np.zeros_like(syn)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"interval_index {last} makes a grid too large to allocate: {exc}") from exc
    for (vm_id, index), counts in cells.items():
        syn[slot[vm_id], index], finrst[slot[vm_id], index] = counts
    return Counts(vm_ids, syn, finrst)


def stat_rows_to_csv(log: StatLog, out=None) -> str | None:
    """Render the statistic log: interval,vm_id,syn,finrst,d,y,alarm; the text, or None once written to out.

    The text, by resources._csv_lines, equals csv.writer's row by row, with d and y as %.6f writes them.
    Given a text stream out, it goes there a chunk at a time, so only one chunk's text is held.
    """
    chunks = _csv_lines({"interval": "d", "vm_id": list(log.vm_ids), "syn": "d", "finrst": "d", "d": "f", "y": "f",
                         "alarm": "d"}, log.blocks)
    return "".join(chunks) if out is None else out.writelines(chunks)
