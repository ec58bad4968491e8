"""Deterministic synthetic TCP traffic: paired connections and SYN floods.

Event timestamps are integer microseconds so that merges, CSV output
and golden files are bit-stable across runs and platforms.  A normal
connection is one SYN followed 12-19 s later by exactly one FIN (90%)
or RST (10%); an attack emits bare SYNs that are never terminated.

Event traces are held as a Trace: one numpy column each for the
timestamps, the VM and the packet type.  The generators, merge_traces
and read_trace_csv return a Trace; iterating it yields PacketEvent
rows.  merge_traces, events_to_csv and detector.bin_events take only
Traces: hand-built (t_us, vm_id, pkt_type) triples go through
Trace.from_events.

The event trace file is written by resources._csv_lines from its column kinds (_event_lines), a window of
time at a time by write_trace.  A trace file is read once, in blocks: by a numpy byte kernel while they are
plain, LF or CRLF (_read_plain_events), then by csv.reader (_read_csv), the one path that reports errors;
both give the same Trace.  read_trace_counts bins the blocks as they come; a binned file reads into a
detector.Counts grid.  The row rules belong to the table builders, Trace.from_events and fill_gaps.

For long traces the per-interval (SYN, FIN|RST) counts can be produced
directly as a one-VM Counts with gen_normal_binned / gen_attack_binned;
these draw the same random variates as the event generators and
therefore agree with binning the materialized events exactly, at any
interval length: both cut time on detector's one microsecond grid.
"""

from __future__ import annotations

import collections
import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import PKT_TYPES, Counts, TrafficInterval, _interval_to_us, bin_event_blocks, fill_gaps
from .errors import ParseError, UnsortedTrace
from .resources import (CSV_CHUNK_ROWS, _csv_lines, is_int, is_number, is_text, json_int, json_number, json_object,
                        json_str)

DEFAULT_FIN_DELAY_RANGE = (12.0, 19.0)
RST_FRACTION = 0.1

TRACE_HEADER = ["timestamp_s", "vm_id", "pkt_type"]
BINNED_HEADER = ["interval_index", "vm_id", "syn", "finrst"]
_TRACE_HEADER_LINE = ",".join(TRACE_HEADER) + "\n"

# Timestamps are int64 microseconds; a trace must stay below this.
T_US_LIMIT = 2**63
_NEVER = T_US_LIMIT - 1  # no generated event comes this late (see TrafficSpec)

# read_trace_counts reads a trace file in blocks of this many bytes; on a plain
# 2.6 MB trace 64 KiB peaked 2 MB lower and 1 MiB 10 MB higher.
TRACE_BLOCK_BYTES = 1 << 18
# write_trace writes about this many events at a time, or at least this many of the
# shortest intervals: with 160 specs, 6 took about 1.2 times the CPU of one whole trace, 8 1.1.
WINDOW_EVENTS = 1 << 15
WINDOW_INTERVALS = 8

_KIND = {pkt_type: code for code, pkt_type in enumerate(PKT_TYPES)}


class PacketEvent(NamedTuple):
    t_us: int
    vm_id: str
    pkt_type: str


class Trace:
    """A packet event table held as three numpy columns.

    ``t_us`` holds int64 timestamps in microseconds, ``vm`` int32 codes
    into the sorted ``vm_ids`` tuple and ``kind`` int8 codes into
    detector.PKT_TYPES.  Iterating yields one PacketEvent per row, in
    table order.
    """

    __slots__ = ("t_us", "vm", "kind", "vm_ids")

    def __init__(self, t_us, vm, kind, vm_ids):
        self.t_us = np.asarray(t_us, dtype=np.int64)
        self.vm = np.asarray(vm, dtype=np.int32)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.vm_ids = tuple(vm_ids)

    def __len__(self) -> int:
        return len(self.t_us)

    def __iter__(self):
        return map(PacketEvent, self.t_us.tolist(),
                   map(self.vm_ids.__getitem__, self.vm.tolist()),
                   map(PKT_TYPES.__getitem__, self.kind.tolist()))

    @classmethod
    def from_events(cls, events) -> "Trace":
        """The table of (t_us, vm_id, pkt_type) triples, in their order.

        A pkt_type outside PKT_TYPES, a t_us that is not an integer within
        int64, or a vm_id that is not text (_check_vm_id) is a ValueError.
        """
        codes: dict[str, int] = {}
        t_us, vm, kind = [], [], []
        for t, vm_id, pkt_type in events:
            if pkt_type not in _KIND:
                raise ValueError(f"pkt_type {pkt_type!r} not in {PKT_TYPES}")
            if not isinstance(t, (int, np.integer)) or not -T_US_LIMIT <= t < T_US_LIMIT:
                raise ValueError(f"timestamp {t!r} is not an int64 count of microseconds")
            t_us.append(t)
            vm.append(codes.setdefault(vm_id, len(codes)))
            kind.append(_KIND[pkt_type])
        return _sorted_ids(t_us, vm, kind, list(map(_check_vm_id, codes)))


def _check_vm_id(vm_id):
    """vm_id, if it is text that a UTF-8 file can hold (resources.is_text); else a ValueError."""
    if not is_text(vm_id):
        raise ValueError(f"vm_id must be a {'UTF-8 ' * isinstance(vm_id, str)}string, got {vm_id!r}")
    return vm_id


def _sorted_ids(t_us, vm, kind, ids: list[str]) -> Trace:
    """A Trace whose vm codes, given in first-seen order of ids, index sorted(ids)."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[order] = np.arange(len(ids), dtype=np.int32)
    return Trace(t_us, rank[np.asarray(vm, dtype=np.intp)], kind, [ids[i] for i in order])


@dataclass(frozen=True)
class TrafficSpec:
    """One VM's traffic over the interval window [start, end)."""

    vm_id: str
    mode: str = "normal"
    base_rate: int = 100
    attack_multiplier: float = 1.0
    fin_delay_range: tuple[float, float] = DEFAULT_FIN_DELAY_RANGE
    start: int = 0
    end: int = 0
    seed: int = 0
    interval_seconds: float = 10.0

    def __post_init__(self):
        _check_vm_id(self.vm_id)
        if self.mode not in ("normal", "attack"):
            raise ValueError(f"mode must be 'normal' or 'attack', got {self.mode!r}")
        for name in ("base_rate", "start", "end", "seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("attack_multiplier", "interval_seconds"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.base_rate < 0:
            raise ValueError("base_rate must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1.0 <= self.attack_multiplier < math.inf:
            raise ValueError("attack_multiplier must be finite and >= 1")
        if not 0 <= self.start <= self.end:
            raise ValueError("need 0 <= start <= end")
        # _interval_us and _delay_bounds_us raise on an interval below one
        # whole microsecond and on delays outside 0 < low <= high < inf
        if self.end * _interval_us(self) + _delay_bounds_us(self.fin_delay_range)[1] >= T_US_LIMIT:
            raise ValueError("end * interval_seconds + fin_delay_range[1] must stay below "
                             f"{T_US_LIMIT} microseconds")

    @classmethod
    def from_json(cls, obj: dict, where: str = "") -> "TrafficSpec":
        """A spec from its JSON object; a bad field is a ParseError naming it."""
        fields = json_object(obj, where, _SPEC_KEYS, ("vm_id",), "traffic spec")
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}" if where else str(exc)) from exc


def read_delay_range(value, name: str) -> tuple[float, float]:
    """A [low, high] pair of JSON numbers, in seconds; else a ParseError naming name."""
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{name} must be a [low, high] array, got {value!r}")
    return json_number(value[0], f"{name}[0]"), json_number(value[1], f"{name}[1]")


def _delay_bounds_us(fin_delay_range) -> tuple[int, int]:
    """(low, high) FIN delays in whole microseconds, if two numbers with 0 < low <= high < inf; else a ValueError."""
    if not (isinstance(fin_delay_range, (tuple, list)) and len(fin_delay_range) == 2
            and all(map(is_number, fin_delay_range))):
        raise ValueError(f"fin_delay_range must be a (low, high) pair of numbers, got {fin_delay_range!r}")
    low, high = fin_delay_range
    if not 0 < low <= high < math.inf:
        raise ValueError(f"fin_delay_range must satisfy 0 < low <= high < inf: {fin_delay_range}")
    return round(low * 1_000_000), round(high * 1_000_000)


_SPEC_KEYS = {"vm_id": json_str, "mode": json_str, "base_rate": json_int, "attack_multiplier": json_number,
              "fin_delay_range": read_delay_range, "start": json_int, "end": json_int, "seed": json_int,
              "interval_seconds": json_number}


def _interval_us(spec: TrafficSpec) -> int:
    return _interval_to_us(spec.interval_seconds)


def _syns(spec: TrafficSpec) -> int:
    """SYNs per interval: base_rate connections, or base_rate * attack_multiplier bare SYNs."""
    return spec.base_rate if spec.mode == "normal" else round(spec.base_rate * spec.attack_multiplier)


def _normal_draws(spec: TrafficSpec):
    """Each interval's connection variates in turn: offsets, delays, rst flags.

    Drawn in a fixed order from the spec's seed so the event and binned
    generators stay in lockstep.  One integers call per interval draws
    the offsets and delays together, the same stream as one call each.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.base_rate
    lo, hi = _delay_bounds_us(spec.fin_delay_range)
    low, high = np.repeat([0, lo], n), np.repeat([_interval_us(spec) - 1, hi], n)
    for _ in range(spec.start, spec.end):
        draws = rng.integers(low, high, endpoint=True)
        yield draws[:n], draws[n:], rng.random(n) < RST_FRACTION


def _spec_windows(spec: TrafficSpec):
    """A generator of spec's events: sent a time, it returns those before it not yet returned.

    They come as (t_us, kind) columns in time order, ties in generation
    order (interval by interval, each connection's SYN before its end),
    then a time no later than any event left (_NEVER once none is).
    Attack offsets are drawn a block of intervals per call, the stream of
    one call per interval.
    """
    iv, k, n = _interval_us(spec), spec.start, _syns(spec)
    draws = _normal_draws(spec) if spec.mode == "normal" else np.random.default_rng(spec.seed)
    t_us, kind = np.empty(0, np.int64), np.empty(0, np.int8)
    end = yield
    while True:
        k1 = min(spec.end, max(k, -(-end // iv)))
        shape, starts = (k1 - k, n), np.arange(k, k1, dtype=np.int64)[:, None] * iv
        if spec.mode == "normal":
            offsets, delays, is_rst = np.empty(shape, np.int64), np.empty(shape, np.int64), np.empty(shape, bool)
            for row, drawn in zip(range(k1 - k), draws):
                offsets[row], delays[row], is_rst[row] = drawn
            new, new_kind = np.empty((*shape, 2), np.int64), np.full((*shape, 2), _KIND["SYN"], np.int8)
            np.add(starts, offsets, out=new[:, :, 0])
            np.add(new[:, :, 0], delays, out=new[:, :, 1])
            new_kind[:, :, 1] = np.where(is_rst, _KIND["RST"], _KIND["FIN"])
        else:
            new, new_kind = starts + draws.integers(0, iv, shape), np.full(shape, _KIND["SYN"], np.int8)
        k, t_us = k1, np.concatenate([t_us, new.ravel()])
        order = np.argsort(t_us, kind="stable")
        t_us, kind = t_us[order], np.concatenate([kind, new_kind.ravel()])[order]
        cut = np.searchsorted(t_us, min(end, _NEVER))
        left = min(int(t_us[cut]) if cut < len(t_us) else _NEVER, k * iv if k < spec.end else _NEVER)
        end = yield t_us[:cut], kind[:cut], left
        t_us, kind = t_us[cut:], kind[cut:]


def gen_normal(spec: TrafficSpec) -> Trace:
    """Paired traffic: base_rate connections per interval, each terminated.

    The output is one time-ordered stream; ties keep generation order
    (interval by interval, each connection's SYN before its end).
    """
    if spec.mode != "normal":
        raise ValueError("gen_normal needs a spec with mode='normal'")
    return generate(spec)


def gen_attack(spec: TrafficSpec) -> Trace:
    """Flood traffic: base_rate * attack_multiplier bare SYNs per interval."""
    if spec.mode != "attack":
        raise ValueError("gen_attack needs a spec with mode='attack'")
    return generate(spec)


def generate(spec: TrafficSpec) -> Trace:
    """gen_normal or gen_attack, by spec.mode: the spec's events as one window."""
    window = _spec_windows(spec)
    next(window)
    t_us, kind, _ = window.send(_NEVER)
    return Trace(t_us, np.zeros(len(t_us), np.int32), kind, [spec.vm_id] if len(t_us) else [])


def gen_normal_binned(spec: TrafficSpec, n_intervals: int) -> Counts:
    """Per-interval counts of gen_normal's output without materializing events.

    Exactly equals bin_events(gen_normal(spec), spec.interval_seconds,
    n_intervals, vm_ids=[spec.vm_id]).
    """
    if spec.mode != "normal":
        raise ValueError("gen_normal_binned needs a spec with mode='normal'")
    iv_us = _interval_us(spec)
    syn = np.zeros(n_intervals, dtype=np.int64)
    fin = np.zeros(n_intervals, dtype=np.int64)
    for k, (offsets, delays, _) in zip(range(spec.start, spec.end), _normal_draws(spec)):
        if k < n_intervals:
            syn[k] += spec.base_rate
        idx = (k * iv_us + offsets + delays) // iv_us
        fin += np.bincount(idx[idx < n_intervals], minlength=n_intervals)
    return Counts([spec.vm_id], syn[None], fin[None])


def gen_attack_binned(spec: TrafficSpec, n_intervals: int) -> Counts:
    """Per-interval counts of gen_attack's output (no terminations, by design)."""
    if spec.mode != "attack":
        raise ValueError("gen_attack_binned needs a spec with mode='attack'")
    syn = np.zeros((1, n_intervals), dtype=np.int64)
    syn[0, spec.start:spec.end] = _syns(spec)
    return Counts([spec.vm_id], syn, np.zeros_like(syn))


def write_trace(specs, out) -> int:
    """Write events_to_csv(merge_traces([generate(s) for s in specs])) to the text stream out; returns the event count.

    It is written a window of time at a time, each ending where no spec
    can add an earlier event (each drew every interval starting before
    it), starting at the earliest event left, as long as WINDOW_EVENTS
    events take at the specs' rates or, if longer, WINDOW_INTERVALS of the
    shortest intervals.  A window merges by time, vm_id, spec and
    generation order.
    """
    ivs = [_interval_us(spec) for spec in specs]
    per = [(1 + (spec.mode == "normal")) * _syns(spec) for spec in specs]  # events an interval
    rate = sum(events / iv for events, iv in zip(per, ivs))  # events a microsecond
    span = max(int(WINDOW_EVENTS / rate), WINDOW_INTERVALS * min(ivs)) if rate else T_US_LIMIT
    code = {vm_id: c for c, vm_id in enumerate(sorted({spec.vm_id for spec in specs}))}
    vm = np.array([code[spec.vm_id] for spec in specs], dtype=np.int32)
    windows = [_spec_windows(spec) for spec in specs]
    for window in windows:
        next(window)

    def merged(begin):
        while begin < _NEVER:
            t_us, kind, left = zip(*(window.send(begin + span) for window in windows))
            trace = _merge(np.concatenate(t_us), np.repeat(vm, list(map(len, t_us))), np.concatenate(kind), code)
            yield trace.t_us, trace.vm, trace.kind
            begin = min(left)
    out.writelines(_event_lines(code, merged(min((spec.start * iv for spec, iv in zip(specs, ivs)), default=_NEVER))))
    return sum(events * (spec.end - spec.start) for events, spec in zip(per, specs))


def merge_traces(traces) -> Trace:
    """Merge time-ordered Traces; ties break by (vm_id, input order)."""
    traces = list(traces)
    for i, trace in enumerate(traces):
        if (trace.t_us[1:] < trace.t_us[:-1]).any():
            raise UnsortedTrace(f"input stream {i} is not time-ordered")
    vm_ids = sorted(set().union(*(trace.vm_ids for trace in traces)))
    rank = {vm_id: code for code, vm_id in enumerate(vm_ids)}
    # the leading empty arrays fix the dtypes and allow zero streams
    t_us = np.concatenate([np.empty(0, np.int64), *(trace.t_us for trace in traces)])
    vm = np.concatenate([np.empty(0, np.int32), *(
        np.array([rank[v] for v in trace.vm_ids], dtype=np.int32)[trace.vm] for trace in traces)])
    kind = np.concatenate([np.empty(0, np.int8), *(trace.kind for trace in traces)])
    return _merge(t_us, vm, kind, vm_ids)


def _merge(t_us, vm, kind, vm_ids) -> Trace:
    """The Trace of the columns' rows in (t_us, vm) order, ties in row order: merge_traces' order."""
    order = np.lexsort((vm, t_us))
    return Trace(t_us[order], vm[order], kind[order], vm_ids)


def parse_timestamp(s: str) -> int:
    return round(float(s) * 1_000_000)


def events_to_csv(trace: Trace) -> str:
    """The event trace file: a header, then timestamp_s,vm_id,pkt_type rows.

    The text equals csv.writer's with timestamps as seconds.micros, and
    a vm_id holding a carriage return is quoted so that it reads back.
    """
    return "".join(_event_lines(trace.vm_ids, [(trace.t_us, trace.vm, trace.kind)]))


def _event_lines(vm_ids, blocks):
    """The event trace file of blocks of (t_us, vm, kind) columns, by resources._csv_lines."""
    return _csv_lines(dict(zip(TRACE_HEADER, ("t", list(vm_ids), list(PKT_TYPES)))), blocks)


def _read_plain_events(data: bytes) -> Trace | None:
    """The event trace in data (UTF-8) if it is a plain file, else None.

    A plain file, its CRLF line ends read as LF, starts with the event
    header line and holds no '"', lone '\\r' or NUL; each non-blank line
    has exactly two commas, a timestamp matching [0-9]{1,9}\\.[0-9]{6}
    and a pkt_type in PKT_TYPES.  csv.reader splits it at its line ends
    and commas alone, skipping blank lines.

    The stamps are built exactly from their digits and equal _event_row's
    round(float(ts) * 1e6): a plain stamp is below 10**15 < 2**51 us, so
    parsing it as a float and multiplying by 10**6 errs by a relative
    2**-52 or so, less than 0.5 in absolute terms, and rounds exactly.
    """
    if b"\r" in data:  # CRLF line ends, as csv.reader reads them; a lone CR is refused below
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"  # as csv.reader, end the last line at the end of the file
    if not data.startswith(_TRACE_HEADER_LINE.encode()) or any(
            c in data for c in (b'"', b"\r", b"\0")):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts, ends = ends[:-1] + 1, ends[1:]  # the header is the first line
    starts, ends = starts[ends > starts], ends[ends > starts]
    commas = np.flatnonzero(buf == ord(","))[2:]
    if len(commas) != 2 * len(starts):
        return None
    # Once line i's stamp runs from its start to commas[2i], that is its
    # first comma, so with 2n commas in all every line holds two.  Each
    # window below lies in buf, as lines start after the header, and its
    # bytes outside the line are masked out.
    first, second = commas.reshape(-1, 2).T
    width = first - starts
    stamp = sliding_window_view(buf, 16)[first - 16]  # 9 seconds digits, ".", 6 micro digits
    if not ((width >= 8) & (width <= 16) & (stamp[:, 9] == ord("."))).all():
        return None
    digit = (stamp - np.uint8(ord("0"))) * (np.arange(16) >= 16 - width[:, None])
    digit[:, 9] = 0
    if digit.max(initial=0) > 9:  # uint8: a byte below "0" wraps past 9
        return None
    t_us = np.zeros(len(starts), dtype=np.int64)
    for col in [*range(9), *range(10, 16)]:
        t_us *= 10
        t_us += digit[:, col]
    # each line's last 8 bytes as one uint64, to match ",pkt_type" at its end
    tail = sliding_window_view(buf, 8)[ends - 8].view("<u8").ravel()
    kind = np.full(len(starts), -1, dtype=np.int8)
    for code, pkt_type in enumerate(PKT_TYPES):
        field = b"," + pkt_type.encode()
        kind[tail >> np.uint64(64 - 8 * len(field)) == int.from_bytes(field, "little")] = code
    if (kind < 0).any():
        return None
    # group the ids by byte length; an id and its comma make a key of fixed width
    width = second - first
    vm, ids = np.empty(len(starts), dtype=np.int32), []
    for w in np.unique(width).tolist():
        lines = np.flatnonzero(width == w)
        if w <= 8:  # as one uint64 each, which np.unique sorts far faster than bytes
            keys = sliding_window_view(buf, 8)[second[lines] - 7].view("<u8").ravel()
            keys >>= np.uint64(64 - 8 * w)
        else:
            keys = sliding_window_view(buf, w)[first[lines] + 1].view(f"S{w}").ravel()
        unique, code = np.unique(keys, return_inverse=True)
        vm[lines] = len(ids) + code.ravel()
        ids += [key[:w - 1].tobytes().decode()
                for key in unique.view(np.uint8).reshape(len(unique), -1)]
    return _sorted_ids(t_us, vm, kind, ids)


def read_trace_counts(path: str, interval_seconds: float) -> Counts:
    """The Counts grid of the trace file at path, as detect reads it.

    It is read once, in blocks of TRACE_BLOCK_BYTES (_read_trace), and an event file's Traces are binned as they
    come (detector.bin_event_blocks).  A file that cannot be read, or is not UTF-8, is a ParseError naming path.
    """
    try:
        with open(path, "rb") as fh:
            kind, data = _read_trace(fh, TRACE_BLOCK_BYTES)
            return bin_event_blocks(data, interval_seconds) if kind == "events" else data
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_trace(fh, block_bytes: int):
    """The trace in the binary stream fh, read once: ('events', an iterator of Traces) or ('binned', Counts).

    fh is read in blocks of block_bytes (-1: the rest) of UTF-8, each run to the end of the line it cuts.  After
    the event header line, ending in LF or CRLF, _read_plain_events reads the blocks; the first that it refuses,
    and the rest, go to _read_csv, which counts the lines on, as do all the lines of any other file.
    """
    head = fh.readline()
    blocks = iter(lambda: fh.read(block_bytes) + fh.readline(), b"")
    if head.removesuffix(b"\n").removesuffix(b"\r") != ",".join(TRACE_HEADER).encode():
        return _read_csv(chain([head], blocks))

    def traces(line=0):  # line: the lines read after the header
        for block in blocks:
            block = head + block  # read as a file of its own, one copy held
            block.decode()  # a UnicodeDecodeError, if not UTF-8
            if (trace := _read_plain_events(block)) is None:
                yield from _read_csv(chain([block], blocks), line)[1]
                return
            line += block.count(b"\n") - 1
            yield trace
    return "events", traces()


def _event_row(row: list[str]) -> tuple[int, str, str]:
    """One event row's fields, its timestamp_s text in whole microseconds within [0, T_US_LIMIT)."""
    ts, vm_id, pkt_type = row
    t_us = parse_timestamp(ts)
    if t_us < 0:
        raise ValueError(f"timestamp_s must be >= 0, got {ts}")
    if t_us >= T_US_LIMIT:
        raise ValueError(f"timestamp_s must be below {T_US_LIMIT} microseconds, got {ts}")
    return t_us, vm_id, pkt_type


def read_trace_csv(text: str):
    """Parse a trace file; returns ('events', Trace) or ('binned', Counts).

    The two trace forms are told apart by their header row.  Rows may
    end in \\n, \\r\\n or \\r; a quoted field keeps its own line breaks.
    It is _read_trace of text as one block.  Its errors are ParseErrors
    naming the physical line (reader.line_num) where the bad row ends; a
    text that no UTF-8 file holds (a lone surrogate) is a UnicodeEncodeError.
    """
    kind, data = _read_trace(io.BytesIO(text.encode()), -1)
    if kind == "events":  # the kernel's one Trace, or the general reader's chunks
        traces = list(data)
        data = traces[0] if len(traces) == 1 else Trace.from_events(chain.from_iterable(traces))
    return kind, data


def _read_csv(blocks, line: int = 0):
    """_read_trace's result for blocks of whole lines, after line lines, by csv.reader, which reads any trace file.

    The readers only parse fields: the rows go to the owner of the row rules, fill_gaps or Trace.from_events
    (CSV_CHUNK_ROWS at a time), one at a time, so a row's error comes while reader.line_num is its line.  Here
    alone an error becomes a ParseError naming the line: a bad row's, csv.reader's own (an over-long field, a NUL
    before Python 3.11), or fill_gaps's grid too large, raised once every row is read, naming the last line of
    the largest interval_index.  The rest is read first: a line on that is not UTF-8 fails first, as read whole.
    """
    lines = (text for block in blocks for text in io.StringIO(block.decode(), newline=""))
    reader = csv.reader(lines)
    top = (0, 0)  # the largest interval_index read, and the last line holding it
    read_all = False

    def rows(parse):
        nonlocal read_all
        yield from (parse(row) for row in reader if row)
        read_all = True

    def binned_row(row: list[str]) -> TrafficInterval:
        nonlocal top
        idx, vm_id, syn, finrst = row
        iv = TrafficInterval(int(idx), vm_id, int(syn), int(finrst))
        top = max(top, (iv.interval_index, reader.line_num))
        return iv

    def fault(exc):
        if isinstance(exc, UnicodeDecodeError):
            raise exc  # a line that is not UTF-8: the caller names the file
        collections.deque(lines, maxlen=0)
        return ParseError(f"trace line {line + (top[1] if read_all else reader.line_num)}: {exc}")

    def traces(events):
        try:
            while trace := Trace.from_events(islice(events, CSV_CHUNK_ROWS)):
                yield trace
        except (ValueError, OverflowError, csv.Error) as exc:
            raise fault(exc) from exc

    try:
        header = next(reader, None)
        if header == TRACE_HEADER:
            return "events", traces(rows(_event_row))
        if header == BINNED_HEADER:
            return "binned", fill_gaps(rows(binned_row))
    except (ValueError, OverflowError, csv.Error) as exc:  # OverflowError: inf, -inf, 1e400
        raise fault(exc) from exc
    collections.deque(lines, maxlen=0)
    raise ParseError("empty trace file" if header is None else
                     f"unrecognized trace header {header!r}; expected {TRACE_HEADER} or {BINNED_HEADER}")
