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

For long traces the per-interval (SYN, FIN|RST) counts can be produced
directly with gen_normal_binned / gen_attack_binned; these draw the
same random variates as the event generators and therefore agree with
binning the materialized events exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice, repeat
from typing import NamedTuple

import numpy as np

from .detector import MAX_COUNT, PKT_TYPES, TrafficInterval, _csv_field
from .errors import ParseError, UnsortedTrace
from .resources import json_int, json_number

DEFAULT_FIN_DELAY_RANGE = (12.0, 19.0)
RST_FRACTION = 0.1

TRACE_HEADER = ["timestamp_s", "vm_id", "pkt_type"]
BINNED_HEADER = ["interval_index", "vm_id", "syn", "finrst"]

# Timestamps are int64 microseconds; a trace must stay below this.
T_US_LIMIT = 2**63

_KIND = {pkt_type: code for code, pkt_type in enumerate(PKT_TYPES)}
# Rows of an event trace parsed per batch: bounds read_trace_csv's memory.
_CHUNK_ROWS = 4096


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

        A pkt_type outside PKT_TYPES, or a t_us that is not an integer
        within int64, is a ValueError.
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
        return _sorted_ids(t_us, vm, kind, list(codes))


def _sorted_ids(t_us, vm, kind, ids: list[str]) -> Trace:
    """A Trace whose vm codes, given in first-seen order of ids, index sorted(ids)."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[order] = np.arange(len(ids), dtype=np.int32)
    return Trace(t_us, rank[np.asarray(vm, dtype=np.intp)], kind, [ids[i] for i in order])


def _single_vm(vm_id: str, t_us: np.ndarray, kind: np.ndarray) -> Trace:
    """One VM's events in time order; ties keep generation order."""
    order = np.argsort(t_us, kind="stable")
    return Trace(t_us[order], np.zeros(len(order), dtype=np.int32), kind[order],
                 [vm_id] if len(order) else [])


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
        if self.mode not in ("normal", "attack"):
            raise ValueError(f"mode must be 'normal' or 'attack', got {self.mode!r}")
        if self.base_rate < 0:
            raise ValueError("base_rate must be >= 0")
        if self.attack_multiplier < 1.0:
            raise ValueError("attack_multiplier must be >= 1")
        low, high = self.fin_delay_range
        if not 0 < low <= high < math.inf:
            raise ValueError(
                f"fin_delay_range must satisfy 0 < low <= high < inf: {self.fin_delay_range}")
        if not 0 <= self.start <= self.end:
            raise ValueError("need 0 <= start <= end")
        if not 0 < self.interval_seconds < math.inf or _interval_us(self) < 1:
            raise ValueError("interval_seconds must be finite and at least 1 microsecond, "
                             f"got {self.interval_seconds}")
        if self.end * _interval_us(self) + _delay_bounds_us(self)[1] >= T_US_LIMIT:
            raise ValueError("end * interval_seconds + fin_delay_range[1] must stay below "
                             f"{T_US_LIMIT} microseconds")

    @classmethod
    def from_json(cls, obj: dict) -> "TrafficSpec":
        """A spec from its JSON object; a field of the wrong JSON type is a ParseError naming it."""
        if not isinstance(obj, dict):
            raise ParseError(f"traffic spec must be a JSON object, got {obj!r}")
        fields = dict(obj)
        for key in ("vm_id", "mode"):
            if key in fields and not isinstance(fields[key], str):
                raise ParseError(f"{key} must be a JSON string, got {fields[key]!r}")
        for key in ("base_rate", "start", "end", "seed"):
            if key in fields:
                fields[key] = json_int(fields[key], key)
        for key in ("attack_multiplier", "interval_seconds"):
            if key in fields:
                fields[key] = _finite_number(fields[key], key)
        if "fin_delay_range" in fields:
            pair = fields["fin_delay_range"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"fin_delay_range must be a [low, high] array, got {pair!r}")
            fields["fin_delay_range"] = tuple(
                _finite_number(v, f"fin_delay_range[{k}]") for k, v in enumerate(pair))
        try:
            return cls(**fields)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad traffic spec: {exc}") from exc


def _finite_number(value, name: str) -> float:
    number = json_number(value, name)
    if not math.isfinite(number):
        raise ParseError(f"{name} must be finite, got {number}")
    return number


def _interval_us(spec: TrafficSpec) -> int:
    return round(spec.interval_seconds * 1_000_000)


def _delay_bounds_us(spec: TrafficSpec) -> tuple[int, int]:
    low, high = spec.fin_delay_range
    return round(low * 1_000_000), round(high * 1_000_000)


def _normal_draws(spec: TrafficSpec, rng):
    """The variates behind one interval's connections: offsets, delays, rst flags.

    Drawn in a fixed order so the event and binned generators stay in
    lockstep on the same seed.
    """
    iv_us = _interval_us(spec)
    lo, hi = _delay_bounds_us(spec)
    offsets = rng.integers(0, iv_us, spec.base_rate)
    delays = rng.integers(lo, hi, spec.base_rate, endpoint=True)
    is_rst = rng.random(spec.base_rate) < RST_FRACTION
    return offsets, delays, is_rst


def _interval_starts(spec: TrafficSpec) -> np.ndarray:
    """Each interval's first microsecond, as a column."""
    return np.arange(spec.start, spec.end, dtype=np.int64)[:, None] * _interval_us(spec)


def gen_normal(spec: TrafficSpec) -> Trace:
    """Paired traffic: base_rate connections per interval, each terminated.

    The output is one time-ordered stream; ties keep generation order
    (interval by interval, each connection's SYN before its end).
    """
    if spec.mode != "normal":
        raise ValueError("gen_normal needs a spec with mode='normal'")
    rng = np.random.default_rng(spec.seed)
    shape = (spec.end - spec.start, spec.base_rate)
    offsets = np.empty(shape, dtype=np.int64)
    delays = np.empty(shape, dtype=np.int64)
    is_rst = np.empty(shape, dtype=bool)
    for row in range(shape[0]):
        offsets[row], delays[row], is_rst[row] = _normal_draws(spec, rng)
    t_syn = _interval_starts(spec) + offsets
    t_us = np.stack([t_syn, t_syn + delays], axis=-1)
    kind = np.stack([np.full(shape, _KIND["SYN"]),
                     np.where(is_rst, _KIND["RST"], _KIND["FIN"])], axis=-1)
    return _single_vm(spec.vm_id, t_us.ravel(), kind.ravel())


def gen_attack(spec: TrafficSpec) -> Trace:
    """Flood traffic: base_rate * attack_multiplier bare SYNs per interval."""
    if spec.mode != "attack":
        raise ValueError("gen_attack needs a spec with mode='attack'")
    rng = np.random.default_rng(spec.seed)
    iv_us = _interval_us(spec)
    offsets = np.empty((spec.end - spec.start, round(spec.base_rate * spec.attack_multiplier)),
                       dtype=np.int64)
    for row in range(len(offsets)):
        offsets[row] = rng.integers(0, iv_us, offsets.shape[1])
    t_us = (_interval_starts(spec) + offsets).ravel()
    return _single_vm(spec.vm_id, t_us, np.full(len(t_us), _KIND["SYN"]))


def generate(spec: TrafficSpec) -> Trace:
    return gen_normal(spec) if spec.mode == "normal" else gen_attack(spec)


def gen_normal_binned(spec: TrafficSpec, n_intervals: int) -> list[TrafficInterval]:
    """Per-interval counts of gen_normal's output without materializing events.

    Exactly equals bin_events(gen_normal(spec), spec.interval_seconds,
    span_seconds=n_intervals * spec.interval_seconds, vm_ids=[spec.vm_id])
    when interval_seconds is a whole number of microseconds.
    """
    if spec.mode != "normal":
        raise ValueError("gen_normal_binned needs a spec with mode='normal'")
    rng = np.random.default_rng(spec.seed)
    iv_us = _interval_us(spec)
    syn = np.zeros(n_intervals, dtype=np.int64)
    fin = np.zeros(n_intervals, dtype=np.int64)
    for k in range(spec.start, spec.end):
        offsets, delays, _ = _normal_draws(spec, rng)
        if k < n_intervals:
            syn[k] += spec.base_rate
        idx = (k * iv_us + offsets + delays) // iv_us
        fin += np.bincount(idx[idx < n_intervals], minlength=n_intervals)
    return [
        TrafficInterval(i, spec.vm_id, int(syn[i]), int(fin[i])) for i in range(n_intervals)
    ]


def gen_attack_binned(spec: TrafficSpec, n_intervals: int) -> list[TrafficInterval]:
    """Per-interval counts of gen_attack's output (no terminations, by design)."""
    if spec.mode != "attack":
        raise ValueError("gen_attack_binned needs a spec with mode='attack'")
    n = round(spec.base_rate * spec.attack_multiplier)
    return [
        TrafficInterval(i, spec.vm_id, n if spec.start <= i < spec.end else 0, 0)
        for i in range(n_intervals)
    ]


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
    order = np.lexsort((vm, t_us))
    return Trace(t_us[order], vm[order], kind[order], vm_ids)


def parse_timestamp(s: str) -> int:
    return round(float(s) * 1_000_000)


def events_to_csv(trace: Trace) -> str:
    """The event trace file: a header, then timestamp_s,vm_id,pkt_type rows.

    The text equals csv.writer's with timestamps as seconds.micros, and
    a vm_id holding a carriage return is quoted so that it reads back.
    """
    seconds, micros = np.divmod(trace.t_us, 1_000_000)
    vm = np.array([_csv_field(v) for v in trace.vm_ids], dtype=object)[trace.vm]
    kind = np.array([_csv_field(p) for p in PKT_TYPES], dtype=object)[trace.kind]
    rows = map("%d.%06d,%s,%s\n".__mod__,
               zip(seconds.tolist(), micros.tolist(), vm.tolist(), kind.tolist()))
    return ",".join(TRACE_HEADER) + "\n" + "".join(rows)


def _event_row(row: list[str], lineno: int) -> tuple[int, str, str]:
    """One event row, parsed and checked; a bad field is a ParseError naming the line."""
    try:
        ts, vm_id, pkt_type = row
        t_us = parse_timestamp(ts)
    except (ValueError, OverflowError) as exc:  # OverflowError: inf, -inf, 1e400
        raise ParseError(f"trace line {lineno}: {exc}") from exc
    if t_us < 0:
        raise ParseError(f"trace line {lineno}: timestamp_s must be >= 0, got {ts}")
    if t_us >= T_US_LIMIT:
        raise ParseError(f"trace line {lineno}: timestamp_s must be below "
                         f"{T_US_LIMIT} microseconds, got {ts}")
    if pkt_type not in PKT_TYPES:
        raise ParseError(f"trace line {lineno}: pkt_type {pkt_type!r} not in {PKT_TYPES}")
    return t_us, vm_id, pkt_type


def _event_columns(rows: list[list[str]]):
    """(t_us, vm_ids, kind codes) of event rows, or None if any row fails _event_row."""
    if set(map(len, rows)) != {3}:
        return None
    stamps, vms, pkt_types = zip(*rows)
    try:
        t_us = np.rint(np.array(list(map(float, stamps))) * 1_000_000)
    except ValueError:
        return None
    kind = np.array(list(map(_KIND.get, pkt_types, repeat(-1))), dtype=np.int8)
    if not (((t_us >= 0) & (t_us < T_US_LIMIT)).all() and (kind >= 0).all()):
        return None
    return t_us.astype(np.int64), vms, kind


def _read_events(reader) -> Trace:
    """The event rows of a trace file, parsed a chunk of rows at a time.

    Each chunk is checked as columns.  A chunk that fails re-runs the
    per-row check (_event_row) so the first bad row is reported with
    its own message and line number.
    """
    codes: dict[str, int] = {}
    t_cols, vm_cols, kind_cols = [], [], []
    lineno = 2
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        rows = list(filter(None, chunk))
        columns = _event_columns(rows) if rows else None
        if rows and columns is None:
            for offset, row in enumerate(chunk):
                if row:
                    _event_row(row, lineno + offset)  # raises at the first bad row
        if columns is not None:
            t_us, vms, kind = columns
            for vm_id in dict.fromkeys(vms):  # first-seen order, distinct ids only
                codes.setdefault(vm_id, len(codes))
            t_cols.append(t_us)
            vm_cols.append(np.array(list(map(codes.__getitem__, vms)), dtype=np.int32))
            kind_cols.append(kind)
        lineno += len(chunk)
    return _sorted_ids(np.concatenate([np.empty(0, np.int64), *t_cols]),
                       np.concatenate([np.empty(0, np.int32), *vm_cols]),
                       np.concatenate([np.empty(0, np.int8), *kind_cols]), list(codes))


def _read_binned(reader) -> list[TrafficInterval]:
    intervals = []
    seen: set[tuple[str, int]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            idx, vm_id, syn, finrst = row
            iv = TrafficInterval(int(idx), vm_id, int(syn), int(finrst))
        except ValueError as exc:
            raise ParseError(f"trace line {lineno}: {exc}") from exc
        if iv.interval_index < 0:
            raise ParseError(f"trace line {lineno}: interval_index must be >= 0, got {idx}")
        if not (0 <= iv.syn < MAX_COUNT and 0 <= iv.finrst < MAX_COUNT):
            raise ParseError(f"trace line {lineno}: syn and finrst must be >= 0 "
                             f"and below {MAX_COUNT}")
        if (vm_id, iv.interval_index) in seen:
            raise ParseError(f"trace line {lineno}: duplicate row for vm {vm_id!r} "
                             f"interval {iv.interval_index}")
        seen.add((vm_id, iv.interval_index))
        intervals.append(iv)
    return intervals


def read_trace_csv(text: str):
    """Parse a trace file; returns ('events', Trace) or ('binned', [...]).

    The two trace forms are told apart by their header row.  Rows may
    end in \\n, \\r\\n or \\r; a quoted field keeps its own line breaks.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty trace file") from None
    if header == TRACE_HEADER:
        return "events", _read_events(reader)
    if header == BINNED_HEADER:
        return "binned", _read_binned(reader)
    raise ParseError(
        f"unrecognized trace header {header!r}; expected {TRACE_HEADER} or {BINNED_HEADER}"
    )
