"""Deterministic synthetic TCP traffic: paired connections and SYN floods.

Event timestamps are integer microseconds so that merges, CSV output
and golden files are bit-stable across runs and platforms.  A normal
connection is one SYN followed 12-19 s later by exactly one FIN (90%)
or RST (10%); an attack emits bare SYNs that are never terminated.

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
from typing import NamedTuple

import numpy as np

from .detector import PKT_TYPES, TrafficInterval
from .errors import ParseError, UnsortedTrace
from .resources import json_int, json_number

DEFAULT_FIN_DELAY_RANGE = (12.0, 19.0)
RST_FRACTION = 0.1

TRACE_HEADER = ["timestamp_s", "vm_id", "pkt_type"]
BINNED_HEADER = ["interval_index", "vm_id", "syn", "finrst"]


class PacketEvent(NamedTuple):
    t_us: int
    vm_id: str
    pkt_type: str


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
        if not 0 < low <= high:
            raise ValueError(f"fin_delay_range must satisfy 0 < low <= high: {self.fin_delay_range}")
        if not 0 <= self.start <= self.end:
            raise ValueError("need 0 <= start <= end")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0")

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


def gen_normal(spec: TrafficSpec) -> list[PacketEvent]:
    """Paired traffic: base_rate connections per interval, each terminated.

    The output is one time-ordered stream; ties keep generation order.
    """
    if spec.mode != "normal":
        raise ValueError("gen_normal needs a spec with mode='normal'")
    rng = np.random.default_rng(spec.seed)
    iv_us = _interval_us(spec)
    events: list[PacketEvent] = []
    for k in range(spec.start, spec.end):
        offsets, delays, is_rst = _normal_draws(spec, rng)
        base = k * iv_us
        for off, delay, rst in zip(offsets.tolist(), delays.tolist(), is_rst.tolist()):
            t_syn = base + off
            events.append(PacketEvent(t_syn, spec.vm_id, "SYN"))
            events.append(PacketEvent(t_syn + delay, spec.vm_id, "RST" if rst else "FIN"))
    events.sort(key=lambda e: e.t_us)
    return events


def gen_attack(spec: TrafficSpec) -> list[PacketEvent]:
    """Flood traffic: base_rate * attack_multiplier bare SYNs per interval."""
    if spec.mode != "attack":
        raise ValueError("gen_attack needs a spec with mode='attack'")
    rng = np.random.default_rng(spec.seed)
    iv_us = _interval_us(spec)
    n = round(spec.base_rate * spec.attack_multiplier)
    events: list[PacketEvent] = []
    for k in range(spec.start, spec.end):
        offsets = rng.integers(0, iv_us, n)
        base = k * iv_us
        events.extend(PacketEvent(base + off, spec.vm_id, "SYN") for off in sorted(offsets.tolist()))
    return events


def generate(spec: TrafficSpec) -> list[PacketEvent]:
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


def merge_traces(traces: list[list[PacketEvent]]) -> list[PacketEvent]:
    """Merge time-ordered streams; ties break by (vm_id, input order)."""
    for i, trace in enumerate(traces):
        for prev, cur in zip(trace, trace[1:]):
            if cur.t_us < prev.t_us:
                raise UnsortedTrace(f"input stream {i} is not time-ordered")
    merged: list[PacketEvent] = []
    for trace in traces:
        merged.extend(trace)
    merged.sort(key=lambda e: (e.t_us, e.vm_id))
    return merged


def format_timestamp(t_us: int) -> str:
    return f"{t_us // 1_000_000}.{t_us % 1_000_000:06d}"


def parse_timestamp(s: str) -> int:
    return round(float(s) * 1_000_000)


def events_to_csv(events: list[PacketEvent]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for e in events:
        writer.writerow([format_timestamp(e.t_us), e.vm_id, e.pkt_type])
    return buf.getvalue()


def read_trace_csv(text: str):
    """Parse a trace file; returns ('events', [...]) or ('binned', [...]).

    The two trace forms are told apart by their header row.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty trace file") from None
    if header == TRACE_HEADER:
        events = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ts, vm_id, pkt_type = row
                t_us = parse_timestamp(ts)
            except (ValueError, OverflowError) as exc:  # OverflowError: inf, -inf, 1e400
                raise ParseError(f"trace line {lineno}: {exc}") from exc
            if t_us < 0:
                raise ParseError(f"trace line {lineno}: timestamp_s must be >= 0, got {ts}")
            if pkt_type not in PKT_TYPES:
                raise ParseError(
                    f"trace line {lineno}: pkt_type {pkt_type!r} not in {PKT_TYPES}"
                )
            events.append(PacketEvent(t_us, vm_id, pkt_type))
        return "events", events
    if header == BINNED_HEADER:
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
            if iv.syn < 0 or iv.finrst < 0:
                raise ParseError(f"trace line {lineno}: syn and finrst must be >= 0")
            if (vm_id, iv.interval_index) in seen:
                raise ParseError(f"trace line {lineno}: duplicate row for vm {vm_id!r} "
                                 f"interval {iv.interval_index}")
            seen.add((vm_id, iv.interval_index))
            intervals.append(iv)
        return "binned", intervals
    raise ParseError(
        f"unrecognized trace header {header!r}; expected {TRACE_HEADER} or {BINNED_HEADER}"
    )
