from __future__ import annotations

import io
import json
import os
import re
import tracemalloc
from dataclasses import asdict
from unittest import mock

import pytest

from vmshield import traffic
from vmshield.cli import dispatch
from vmshield.detector import TrafficInterval, bin_event_blocks, bin_events
from vmshield.errors import ParseError, UnsortedTrace
from vmshield.traffic import (
    PacketEvent,
    Trace,
    TrafficSpec,
    events_to_csv,
    gen_attack,
    gen_attack_binned,
    gen_normal,
    gen_normal_binned,
    generate,
    merge_traces,
    parse_timestamp,
    read_trace_csv,
)


def _normal(**kw):
    base = dict(vm_id="vm1", mode="normal", base_rate=50, start=0, end=10, seed=7)
    base.update(kw)
    return TrafficSpec(**base)


def _attack(**kw):
    base = dict(vm_id="bad", mode="attack", base_rate=100, attack_multiplier=2.0,
                start=0, end=5, seed=3)
    base.update(kw)
    return TrafficSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(vm_id="v", mode="mixed")
    with pytest.raises(ValueError):
        TrafficSpec(vm_id="v", base_rate=-1)
    with pytest.raises(ValueError):
        TrafficSpec(vm_id="v", attack_multiplier=0.5)
    with pytest.raises(ValueError):
        TrafficSpec(vm_id="v", start=5, end=3)
    with pytest.raises(ValueError):
        TrafficSpec(vm_id="v", fin_delay_range=(0, 5))
    with pytest.raises(ValueError):
        TrafficSpec(vm_id="v", interval_seconds=0)
    # the last timestamp, 1e13 intervals of 10 s, does not fit in int64 microseconds
    with pytest.raises(ValueError, match="must stay below"):
        TrafficSpec(vm_id="v", end=10**13)


@pytest.mark.parametrize("fields, message", [
    ({"base_rate": 2**53}, "base_rate must be >= 0 and below 9007199254740992"),
    ({"mode": "attack", "base_rate": 2**52, "attack_multiplier": 2},
     "attack_multiplier 2.0 times base_rate 4503599627370496 must stay below 9007199254740992 SYNs an interval"),
    ({"mode": "attack", "attack_multiplier": 1e300},
     "attack_multiplier 1e+300 times base_rate 100 must stay below 9007199254740992 SYNs an interval"),
], ids=["normal", "flood-at-the-bound", "flood-far-past-it"])
def test_a_spec_bounds_its_syns_an_interval(fields, message):
    # detector.MAX_COUNT, as Scenario.validate bounds a flood's SYNs a tick; these used to build, and a
    # multiplier of 1e300 ended gen in numpy's "Maximum allowed dimension exceeded"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        TrafficSpec.from_json({"vm_id": "v", "end": 1, **fields})
    assert traffic._syns(TrafficSpec("v", base_rate=2**53 - 1)) == 2**53 - 1  # just below it builds
    assert traffic._syns(_attack(base_rate=2**52 - 1, attack_multiplier=2)) == 2**53 - 2


def test_spec_from_json_round_trip_and_errors():
    spec = TrafficSpec.from_json(
        {"vm_id": "v", "mode": "attack", "base_rate": 10, "attack_multiplier": 3,
         "start": 0, "end": 4, "seed": 9}
    )
    assert spec.attack_multiplier == 3
    assert spec.fin_delay_range == (12.0, 19.0)
    with pytest.raises(ParseError):
        TrafficSpec.from_json({"mode": "normal"})  # vm_id missing
    with pytest.raises(ParseError):
        TrafficSpec.from_json({"vm_id": "v", "mode": "normal", "bogus": 1})


@pytest.mark.parametrize("field,value", [
    ("base_rate", True), ("base_rate", 10.0), ("start", "0"), ("end", 2.5), ("seed", None),
    ("attack_multiplier", "3"), ("interval_seconds", False), ("fin_delay_range", ["12", 19]),
    ("fin_delay_range", [12, 10**400]), ("fin_delay_range", 15), ("vm_id", 7), ("mode", ["normal"]),
    ("attack_multiplier", float("inf")), ("interval_seconds", float("nan")),
    ("fin_delay_range", [12, float("inf")]),
])
def test_spec_from_json_rejects_wrong_json_types(field, value):
    obj = {"vm_id": "a", "mode": "normal", "base_rate": 4, "end": 2, field: value}
    with pytest.raises(ParseError, match=re.escape(field)):
        TrafficSpec.from_json(obj)


@pytest.mark.parametrize("field, value, message", [
    ("base_rate", 2.5, "base_rate must be an integer, got 2.5"),
    ("base_rate", True, "base_rate must be an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("start", 0.5, "start must be an integer, got 0.5"),
    ("end", 2.5, "end must be an integer, got 2.5"),
    ("attack_multiplier", "3", "attack_multiplier must be a number, got '3'"),
    ("attack_multiplier", True, "attack_multiplier must be a number, got True"),
    ("interval_seconds", "10", "interval_seconds must be a number, got '10'"),
    ("interval_seconds", True, "interval_seconds must be a number, got True"),
    ("fin_delay_range", ("12", 19), "fin_delay_range must be a (low, high) pair of numbers, got ('12', 19)"),
    ("fin_delay_range", [12, "19"], "fin_delay_range must be a (low, high) pair of numbers, got [12, '19']"),
    ("fin_delay_range", (12, 15, 19), "fin_delay_range must be a (low, high) pair of numbers, got (12, 15, 19)"),
    ("fin_delay_range", 15, "fin_delay_range must be a (low, high) pair of numbers, got 15"),
    ("vm_id", 5, "vm_id must be a string, got 5"),
    ("vm_id", "v\ud800", "vm_id must be a UTF-8 string, got 'v\\ud800'"),
], ids=["base_rate-float", "base_rate-bool", "seed-float", "start-float", "end-float", "multiplier-string",
        "multiplier-bool", "interval-string", "interval-bool", "delay-low-string", "delay-high-string",
        "delay-three", "delay-number", "vm_id-int", "vm_id-lone-surrogate"])
def test_a_spec_built_in_python_checks_its_field_types(field, value, message):
    # these used to end in numpy's or the stdlib's TypeError naming no field, or, for a
    # bool or an int vm_id, to build a spec (the trace of vm_id 5 could not be written)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrafficSpec(**{"vm_id": "v", "end": 3, field: value})


@pytest.mark.parametrize("obj", [[], "spec", None])
def test_spec_from_json_needs_an_object(obj):
    with pytest.raises(ParseError, match="JSON object"):
        TrafficSpec.from_json(obj)


def test_normal_traffic_is_fully_paired():
    spec = _normal()
    events = gen_normal(spec)
    syns = [e for e in events if e.pkt_type == "SYN"]
    ends = [e for e in events if e.pkt_type in ("FIN", "RST")]
    assert len(syns) == spec.base_rate * (spec.end - spec.start)
    assert len(ends) == len(syns)
    assert all(e.pkt_type in ("SYN", "FIN", "RST") for e in events)


def test_normal_traffic_rate_per_interval():
    spec = _normal(base_rate=30, end=20)
    events = gen_normal(spec)
    per_interval = {}
    for e in events:
        if e.pkt_type == "SYN":
            per_interval[e.t_us // 10_000_000] = per_interval.get(e.t_us // 10_000_000, 0) + 1
    assert per_interval == {k: 30 for k in range(20)}


def test_termination_delays_within_published_window():
    # reconstruct pairs by matching each termination to its SYN via counts:
    # with one connection per interval the pairing is unambiguous
    spec = _normal(base_rate=1, end=200, seed=11)
    events = gen_normal(spec)
    syn_t = [e.t_us for e in events if e.pkt_type == "SYN"]
    end_t = [e.t_us for e in events if e.pkt_type != "SYN"]
    for s, f in zip(sorted(syn_t), sorted(end_t)):
        delay = f - s
        assert 12_000_000 <= delay <= 19_000_000


def test_rst_fraction_close_to_ten_percent():
    events = gen_normal(_normal(base_rate=100, end=100, seed=2))
    rst = sum(1 for e in events if e.pkt_type == "RST")
    fin = sum(1 for e in events if e.pkt_type == "FIN")
    assert rst + fin == 10_000
    assert 0.07 < rst / 10_000 < 0.13


def test_traces_are_time_ordered_and_deterministic():
    a = list(gen_normal(_normal(seed=42)))
    b = list(gen_normal(_normal(seed=42)))
    c = list(gen_normal(_normal(seed=43)))
    assert a == b
    assert a != c
    assert all(x.t_us <= y.t_us for x, y in zip(a, a[1:]))


def test_attack_is_unterminated_and_scaled():
    spec = _attack()
    events = list(gen_attack(spec))
    assert len(events) == 5 * 200  # base 100 x multiplier 2 per interval
    assert all(e.pkt_type == "SYN" for e in events)
    assert all(x.t_us <= y.t_us for x, y in zip(events, events[1:]))


def test_generate_dispatches_on_mode():
    assert list(generate(_attack())) == list(gen_attack(_attack()))
    assert list(generate(_normal())) == list(gen_normal(_normal()))
    with pytest.raises(ValueError):
        gen_normal(_attack())
    with pytest.raises(ValueError):
        gen_attack(_normal())


def test_binned_normal_equals_binning_the_events():
    for seed in range(8):
        for rate in (1, 7, 40):
            spec = _normal(base_rate=rate, end=12, seed=seed)
            n_intervals = 15
            direct = gen_normal_binned(spec, n_intervals)
            via_events = bin_events(
                gen_normal(spec),
                interval_seconds=spec.interval_seconds,
                n_intervals=n_intervals,
                vm_ids=[spec.vm_id],
            )
            assert list(direct) == list(via_events), f"seed={seed} rate={rate}"


def test_binned_attack_equals_binning_the_events():
    spec = _attack(start=2, end=6)
    direct = gen_attack_binned(spec, 8)
    via_events = bin_events(
        gen_attack(spec), interval_seconds=10, n_intervals=8, vm_ids=["bad"]
    )
    assert list(direct) == list(via_events)
    assert list(direct)[0] == TrafficInterval(0, "bad", 0, 0)
    assert list(direct)[2].syn == 200


def test_binning_equals_binned_normal_at_a_fraction_of_a_microsecond():
    # 10 intervals of 0.1234564 s used to bin into 11: the span and the
    # interval were rounded to microseconds separately
    spec = _normal(interval_seconds=0.1234564)
    via_events = bin_events(gen_normal(spec), spec.interval_seconds, n_intervals=10,
                            vm_ids=[spec.vm_id])
    assert via_events.syn.shape == (1, 10)
    assert list(via_events) == list(gen_normal_binned(spec, 10))


def test_binned_counts_are_conserved():
    spec = _normal(base_rate=25, end=10, seed=5)
    rows = gen_normal_binned(spec, 13)  # 19s max delay fits in +2 intervals
    assert sum(r.syn for r in rows) == 250
    assert sum(r.finrst for r in rows) == 250


def test_merge_traces_orders_and_breaks_ties_by_vm():
    t1 = [PacketEvent(5, "b", "SYN"), PacketEvent(10, "b", "SYN")]
    t2 = [PacketEvent(5, "a", "SYN"), PacketEvent(10, "a", "FIN")]
    merged = merge_traces([Trace.from_events(t1), Trace.from_events(t2)])
    assert [(e.t_us, e.vm_id) for e in merged] == [(5, "a"), (5, "b"), (10, "a"), (10, "b")]


def test_merge_preserves_input_order_within_same_vm_and_time():
    t1 = [PacketEvent(5, "a", "SYN"), PacketEvent(5, "a", "FIN")]
    merged = merge_traces([Trace.from_events(t1)])
    assert [e.pkt_type for e in merged] == ["SYN", "FIN"]


def test_merge_rejects_unsorted_input():
    with pytest.raises(UnsortedTrace):
        merge_traces([Trace.from_events([PacketEvent(10, "a", "SYN"), PacketEvent(5, "a", "SYN")])])


def _stamps(text):
    return [line.split(",")[0] for line in text.splitlines()[1:]]


def test_timestamp_formatting_is_exact_microseconds():
    text = events_to_csv(Trace.from_events((t, "v", "SYN") for t in (0, 1, 1_000_001, 123_456_789)))
    assert _stamps(text) == ["0.000000", "0.000001", "1.000001", "123.456789"]
    stamps = (0, 1, 999_999, 1_000_000, 86_400_000_000, 123_456_789_012)
    text = events_to_csv(Trace.from_events((t, "v", "SYN") for t in stamps))
    for t, ts in zip(stamps, _stamps(text), strict=True):
        assert parse_timestamp(ts) == t


def test_event_csv_round_trip():
    events = gen_normal(_normal(base_rate=5, end=3))
    text = events_to_csv(events)
    assert text.startswith("timestamp_s,vm_id,pkt_type\n")
    kind, parsed = read_trace_csv(text)
    assert kind == "events"
    assert list(parsed) == list(events)


def test_binned_csv_detection():
    text = "interval_index,vm_id,syn,finrst\n0,vm1,100,99\n1,vm1,105,101\n"
    kind, rows = read_trace_csv(text)
    assert kind == "binned"
    assert list(rows) == [TrafficInterval(0, "vm1", 100, 99), TrafficInterval(1, "vm1", 105, 101)]


def test_read_trace_csv_errors():
    with pytest.raises(ParseError):
        read_trace_csv("")
    with pytest.raises(ParseError):
        read_trace_csv("time,vm\n1,2\n")
    with pytest.raises(ParseError):
        read_trace_csv("timestamp_s,vm_id,pkt_type\n1.0,vm1,JUNK\n")
    with pytest.raises(ParseError):
        read_trace_csv("timestamp_s,vm_id,pkt_type\nnot-a-number,vm1,SYN\n")
    with pytest.raises(ParseError):
        read_trace_csv("interval_index,vm_id,syn,finrst\nzero,vm1,1,1\n")
    with pytest.raises(ParseError, match="line 3: timestamp_s must be >= 0"):
        read_trace_csv("timestamp_s,vm_id,pkt_type\n0.5,vm1,SYN\n-0.000001,vm1,SYN\n")


@pytest.mark.parametrize("stamp", [1.5, "3"])
def test_events_from_python_need_int64_timestamps(stamp):
    with pytest.raises(ValueError, match=f"^timestamp {re.escape(repr(stamp))} is not an int64 count of microseconds$"):
        Trace.from_events([(0, "vm1", "SYN"), (stamp, "vm1", "FIN")])


def test_binned_generators_need_a_spec_of_their_mode():
    with pytest.raises(ValueError, match="^gen_normal_binned needs a spec with mode='normal'$"):
        gen_normal_binned(_attack(), 5)
    with pytest.raises(ValueError, match="^gen_attack_binned needs a spec with mode='attack'$"):
        gen_attack_binned(_normal(), 5)


def test_binned_trace_rejects_negative_counts():
    header = "interval_index,vm_id,syn,finrst\n"
    with pytest.raises(ParseError, match="line 3: syn and finrst must be >= 0"):
        read_trace_csv(header + "0,vm1,1,1\n1,vm1,-1,0\n")
    with pytest.raises(ParseError, match="line 2: syn and finrst must be >= 0"):
        read_trace_csv(header + "0,vm1,4,-2\n")


def test_binned_trace_rejects_negative_intervals():
    header = "interval_index,vm_id,syn,finrst\n"
    with pytest.raises(ParseError, match="line 2: interval_index must be >= 0, got -3"):
        read_trace_csv(header + "-3,v,100,0\n0,v,100,0\n")


def test_event_trace_rejects_timestamps_beyond_int64_microseconds():
    header = "timestamp_s,vm_id,pkt_type\n"
    with pytest.raises(ParseError, match="line 3: timestamp_s must be below"):
        read_trace_csv(header + "0.5,vm1,SYN\n1e300,vm1,FIN\n")
    # a timestamp just below 2**63 microseconds still parses
    _, trace = read_trace_csv(header + "9223372036854.774,vm1,FIN\n")
    assert list(trace) == [PacketEvent(2**63 - 2048, "vm1", "FIN")]


def test_event_trace_errors_name_the_row_in_a_later_chunk():
    # blank lines keep their row numbers, thousands of rows down the file
    rows = ["0.5,vm1,SYN"] * 5000 + [""] * 3 + ["1.0,vm1,SYN", "2.0,vm1,PING"]
    with pytest.raises(ParseError, match="line 5006: pkt_type 'PING' not in"):
        read_trace_csv("timestamp_s,vm_id,pkt_type\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("text", [
    'timestamp_s,vm_id,pkt_type\n1.0,"a\nb",SYN\n2.0,v,PING\n',
    'interval_index,vm_id,syn,finrst\n0,"a\nb",1,0\n1,v,x,0\n',
], ids=["events", "binned"])
def test_row_errors_name_the_physical_line(text):
    # a quoted newline makes the bad row the 4th line of the file but its 3rd record
    with pytest.raises(ParseError, match="^trace line 4: "):
        read_trace_csv(text)


def test_binned_trace_rejects_duplicate_intervals():
    # a repeated (vm, interval) row would advance that VM's statistic twice
    text = "interval_index,vm_id,syn,finrst\n0,vm1,9,0\n0,vm2,9,0\n1,vm1,9,0\n0,vm1,9,0\n"
    with pytest.raises(ParseError, match="line 5: duplicate row for vm 'vm1' interval 0"):
        read_trace_csv(text)


def test_empty_window_spec_generates_nothing():
    assert list(gen_normal(_normal(start=0, end=0))) == []
    assert list(gen_attack(_attack(start=3, end=3))) == []


# --- detect's block reader and gen's windows -------------------------------

HEADER = "timestamp_s,vm_id,pkt_type\n"


def _whole(path, interval=10.0):
    """The whole-file reader's grid of the trace file at path: read_trace_csv, then bin_events."""
    with open(path, encoding="utf-8", newline="") as fh:
        kind, data = read_trace_csv(fh.read())
    return bin_events(data, interval) if kind == "events" else data


def _grid(counts):
    return counts.vm_ids, counts.syn.tolist(), counts.finrst.tolist()


def _read_blocks(fh):
    """The Traces detect reads the event file in the binary stream fh as, a block at a time."""
    kind, traces = traffic._read_trace(fh, traffic.TRACE_BLOCK_BYTES)
    assert kind == "events"
    return traces


def _blocks(path):
    """The Traces _read_blocks cuts the file at path into."""
    with open(path, "rb") as fh:
        return list(_read_blocks(fh))


@pytest.fixture
def block_bytes(monkeypatch):
    """Blocks of 64 bytes, so a small file spans several."""
    monkeypatch.setattr(traffic, "TRACE_BLOCK_BYTES", 64)
    return 64


def _lines(stamps, vm="vm1", pkt="SYN"):
    return [f"{t // 10**6}.{t % 10**6:06d},{vm},{pkt}\n" for t in stamps]


def _first_block_lines(lines, size):
    """How many of lines the first block of size bytes holds: it runs to the end of the line it cuts."""
    total = 0
    for i, line in enumerate(lines):
        total += len(line)
        if total >= size:
            return i + 1
    return len(lines)


def test_a_block_runs_to_the_end_of_the_line_it_cuts(tmp_path, block_bytes):
    lines = _lines(range(0, 40_000_000, 1_000_000), pkt="FIN")
    path = tmp_path / "t.csv"
    path.write_text(HEADER + "".join(lines))
    assert len("".join(lines[:_first_block_lines(lines, block_bytes)])) > block_bytes  # the edge cuts a line
    blocks = _blocks(path)
    assert len(blocks) > 5
    assert [e for block in blocks for e in block] == list(read_trace_csv(path.read_text())[1])
    assert len(blocks[0]) == _first_block_lines(lines, block_bytes)
    assert _grid(traffic.read_trace_counts(str(path), 10.0)) == _grid(_whole(path))


def test_blank_lines_at_a_block_edge_are_skipped(tmp_path, block_bytes):
    lines = _lines(range(0, 30_000_000, 1_000_000))
    edge = _first_block_lines(lines, block_bytes)
    lines[edge - 1] += "\n\n"  # blank lines end the first block and start the second
    lines[edge] = "\n" + lines[edge]
    path = tmp_path / "t.csv"
    path.write_text(HEADER + "".join(lines))
    assert sum(map(len, _blocks(path))) == 30
    assert _grid(traffic.read_trace_counts(str(path), 10.0)) == _grid(_whole(path))


def test_an_unsorted_pair_across_a_block_edge_raises_the_whole_files_error(tmp_path, block_bytes, capsys):
    lines = _lines(range(0, 30_000_000, 1_000_000))
    edge = _first_block_lines(lines, block_bytes)
    lines[edge] = _lines([500_000])[0]  # the second block's first line goes back in time
    path = tmp_path / "t.csv"
    path.write_text(HEADER + "".join(lines))
    first, second = _blocks(path)[:2]
    assert first.t_us[-1] > second.t_us[0]
    expected = f"timestamp 500000 after {first.t_us[-1]}"
    with pytest.raises(UnsortedTrace, match=f"^{expected}$"):
        _whole(path)
    with open(path, "rb") as fh, pytest.raises(UnsortedTrace, match=f"^{expected}$"):
        bin_event_blocks(_read_blocks(fh), 10.0)
    assert dispatch(["detect", "--trace", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


class _CountedFile(io.FileIO):
    """A file opened for reading that counts the bytes read from it."""

    bytes_read = 0

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.bytes_read += n or 0
        return n


@pytest.mark.parametrize("old, new", [("vm1", '"vm,2"'), ("\n", "\r")], ids=["quoted-id", "lone-cr"])
def test_a_block_that_is_not_plain_hands_the_rest_of_the_file_to_the_general_reader(
        tmp_path, block_bytes, monkeypatch, old, new):
    lines = _lines(range(0, 30_000_000, 1_000_000))
    lines[20] = lines[20].replace(old, new)  # well after the first block
    path = tmp_path / "t.csv"
    path.write_bytes((HEADER + "".join(lines)).encode())
    opened, kernel_read, handed = [], [], []
    read_plain, read_csv = traffic._read_plain_events, traffic._read_csv

    def open_counted(file, mode):
        opened.append((file, mode, _CountedFile(file)))
        return io.BufferedReader(opened[-1][2])

    def kernel(data):
        kernel_read.append(read_plain(data))
        return kernel_read[-1]

    def general(blocks, line=0):
        handed.append((list(blocks), line))
        return read_csv(iter(handed[-1][0]), line)

    monkeypatch.setattr(traffic, "open", open_counted, raising=False)
    with mock.patch.object(traffic, "_read_plain_events", kernel), mock.patch.object(traffic, "_read_csv", general):
        counts = traffic.read_trace_counts(str(path), 10.0)
    assert _grid(counts) == _grid(_whole(path))
    assert counts.vm_ids == (("vm,2", "vm1") if new.startswith('"') else ("vm1",))
    [(file, mode, raw)] = opened  # opened once, and each byte read once
    assert (file, mode, raw.bytes_read) == (str(path), "rb", path.stat().st_size)
    # the kernel reads the blocks before line 20's; the general reader gets the header, then the rest from that
    # block on, and counts its lines on from the kernel's
    *plain, refused = kernel_read
    assert refused is None and len(plain) > 1 and None not in plain
    assert len(plain[0]) == _first_block_lines(lines, block_bytes)
    before = sum(map(len, plain))
    [(blocks, line)] = handed
    assert line == before <= 20 < before + blocks[0].count(b"\n") - 1
    assert b"".join(blocks) == (HEADER + "".join(lines[before:])).encode()


@pytest.mark.parametrize("size", [64, 1000, 1 << 18])
def test_a_crlf_trace_is_read_by_the_kernel_alone(tmp_path, monkeypatch, size):
    # blocks of any size, the header's line end CRLF too; the general reader is never called
    monkeypatch.setattr(traffic, "TRACE_BLOCK_BYTES", size)
    specs = [_normal(vm_id=f"vm-{i}", base_rate=20, end=8, seed=i) for i in range(3)] + [_attack(end=4)]
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        traffic.write_trace(specs, fh)
    plain = traffic.read_trace_counts(str(path), 10.0)
    lf = path.read_text(encoding="utf-8")
    path.write_bytes(lf.replace("\n", "\r\n").encode())
    with mock.patch.object(traffic, "_read_csv", side_effect=AssertionError("general reader")):
        assert _grid(traffic.read_trace_counts(str(path), 10.0)) == _grid(plain)
        kind, trace = read_trace_csv(lf.replace("\n", "\r\n"))
    assert kind == "events" and list(trace) == list(read_trace_csv(lf)[1])


def test_trace_ids_must_be_text():
    # a lone surrogate, which no UTF-8 trace file can hold, is refused where any table is built, with
    # TrafficSpec's message, and where a text is read; an id that is not a str is refused before ids are sorted
    with pytest.raises(ValueError, match=r"^vm_id must be a UTF-8 string, got 'v\\ud800'$"):
        Trace.from_events([(0, "v\ud800", "SYN")])
    with pytest.raises(ValueError, match=r"^vm_id must be a UTF-8 string, got 'v\\ud800'$"):
        events_to_csv(Trace([0], [0], [0], ["v\ud800"]))
    with pytest.raises(ValueError, match=r"^vm_id must be a string, got 5$"):
        Trace.from_events([(0, "a", "SYN"), (1, 5, "SYN")])
    with pytest.raises(UnicodeEncodeError):
        read_trace_csv(HEADER + "0.000000,v\ud800,SYN\n")


@pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["invalid-byte", "encoded-surrogate"])
def test_a_block_that_is_not_utf8_fails_as_the_whole_file_does(tmp_path, block_bytes, capsys, bad):
    lines = [line.encode() for line in _lines(range(0, 30_000_000, 1_000_000))]
    lines[20] = lines[20].replace(b"vm1", b"vm" + bad)  # well after the first block
    path = tmp_path / "t.csv"
    path.write_bytes(HEADER.encode() + b"".join(lines))
    with open(path, "rb") as fh, pytest.raises(UnicodeDecodeError):
        list(_read_blocks(fh))
    assert dispatch(["detect", "--trace", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte")


def test_a_grid_too_large_across_blocks_names_the_last_timestamp(tmp_path, monkeypatch, capsys):
    # 600 VMs by 10**15 one-microsecond intervals is more than numpy can size, so nothing is allocated
    monkeypatch.setattr(traffic, "TRACE_BLOCK_BYTES", 512)
    path = tmp_path / "far.csv"
    path.write_text(HEADER + "".join(f"0.{v:06d},v{v},SYN\n" for v in range(600)) + "999999999.999999,v0,FIN\n")
    assert len(_blocks(path)) > 20
    expected = "timestamp 999999999999999 us makes a 600 x 1000000000000000 grid too large to allocate: "
    tracemalloc.start()
    try:
        with open(path, "rb") as fh, pytest.raises(ValueError, match=f"^{expected}"):
            bin_event_blocks(_read_blocks(fh), 1e-6)
        assert dispatch(["detect", "--trace", str(path), "--interval", "1e-6"], out=io.StringIO()) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith(f"error: {expected}")
    assert peak < 16 << 20


def _grid_or_error(read):
    """read()'s grid, or the type and text of what it raised."""
    try:
        return _grid(read())
    except (ParseError, UnsortedTrace, ValueError) as exc:
        return type(exc), str(exc)


def _peak(fn, *args):
    """fn(*args)'s tracemalloc peak, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_detect_holds_the_grid_and_a_few_blocks_not_the_trace(tmp_path, monkeypatch):
    monkeypatch.setattr(traffic, "TRACE_BLOCK_BYTES", 1 << 16)
    specs = [_normal(vm_id=f"vm-{i:02d}", base_rate=25, end=150, seed=i) for i in range(40)]
    path, stats = tmp_path / "trace.csv", str(tmp_path / "stats.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        traffic.write_trace(specs, fh)
    assert path.stat().st_size > 64 * traffic.TRACE_BLOCK_BYTES
    argv = ["detect", "--trace", str(path), "--stats", stats]
    assert dispatch(argv, out=io.StringIO()) == 0  # the first call imports and caches what it needs
    counts = traffic.read_trace_counts(str(path), 10.0)
    assert _grid(counts) == _grid(_whole(path))
    bound = 24 * traffic.TRACE_BLOCK_BYTES + 24 * (counts.syn.nbytes + counts.finrst.nbytes)
    peak = _peak(dispatch, argv, io.StringIO())
    assert peak < bound, (peak, bound)
    assert _peak(_whole, path) > 3 * bound  # reading the file whole holds it several times over


@pytest.mark.parametrize("form", ["crlf", "quoted-id", "unsorted"])
def test_detect_holds_the_grid_and_a_few_blocks_of_a_trace_the_kernel_refuses(tmp_path, monkeypatch, capsys, form):
    # the general reader's blocks, from the start or from the second block on, and a fault in the first block
    monkeypatch.setattr(traffic, "TRACE_BLOCK_BYTES", 1 << 16)
    specs = [_normal(vm_id=f"vm-{i:02d}", base_rate=25, end=60, seed=i) for i in range(40)]
    path, stats = tmp_path / "trace.csv", str(tmp_path / "stats.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        traffic.write_trace(specs, fh)
    assert path.stat().st_size > 32 * traffic.TRACE_BLOCK_BYTES
    plain = traffic.read_trace_counts(str(path), 10.0)
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    if form == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif form == "quoted-id":
        edge = data.index(b"\n", 2 * traffic.TRACE_BLOCK_BYTES) + 1  # a line in the third block
        data = data[:edge] + data[edge:].replace(b",vm-00,", b',"vm,00",', 1)
    else:
        assert lines[1].split(b",")[0] < lines[2].split(b",")[0]
        lines[1], lines[2] = lines[2], lines[1]  # the first two events, now out of order
        data = b"".join(lines)
    path.write_bytes(data)
    argv = ["detect", "--trace", str(path), "--stats", stats]
    code = 2 if form == "unsorted" else 0
    assert dispatch(argv, out=io.StringIO()) == code  # the first call imports and caches what it needs
    assert _grid_or_error(lambda: traffic.read_trace_counts(str(path), 10.0)) == _grid_or_error(lambda: _whole(path))
    bound = 24 * traffic.TRACE_BLOCK_BYTES + 24 * (plain.syn.nbytes + plain.finrst.nbytes)
    capsys.readouterr()
    peak = _peak(dispatch, argv, io.StringIO())
    assert peak < bound, (peak, bound)
    assert capsys.readouterr().err.startswith("error: timestamp " if code else "")


@pytest.mark.parametrize("draw_connections", [1, 5, traffic.DRAW_CONNECTIONS])
@pytest.mark.parametrize("events, intervals", [(1 << 15, 6), (64, 1), (1, 1)])
def test_gen_writes_windows_with_the_bytes_of_the_whole_trace(tmp_path, monkeypatch, events, intervals,
                                                              draw_connections):
    # blocks of one interval, blocks that windows cut inside, and one block for each spec's span
    monkeypatch.setattr(traffic, "WINDOW_EVENTS", events)
    monkeypatch.setattr(traffic, "WINDOW_INTERVALS", intervals)
    monkeypatch.setattr(traffic, "DRAW_CONNECTIONS", draw_connections)
    specs = [_normal(vm_id="b", end=12, base_rate=3, interval_seconds=4.0, fin_delay_range=(0.5, 9.0)),
             _attack(vm_id="a", start=2, end=9, base_rate=2, attack_multiplier=2.5),
             _normal(vm_id="a", start=5, end=30, base_rate=2, seed=1),
             _normal(vm_id="a", start=5, end=30, base_rate=2, seed=1),  # the same events: ties across specs
             _normal(vm_id="c", start=10**6, end=10**6 + 2, base_rate=1)]  # far past a quiet stretch
    expected = events_to_csv(merge_traces([generate(s) for s in specs]))
    out = io.StringIO()
    assert traffic.write_trace(specs, out) == expected.count("\n") - 1
    assert out.getvalue() == expected
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps({"specs": [{**asdict(s), "fin_delay_range": list(s.fin_delay_range)}
                                               for s in specs]}))
    stdout = io.StringIO()
    assert dispatch(["gen", "--spec", str(spec_file), "--out", "-"], out=stdout) == 0
    assert dispatch(["gen", "--spec", str(spec_file), "--out", str(tmp_path / "t.csv")], out=io.StringIO()) == 0
    assert stdout.getvalue() == (tmp_path / "t.csv").read_text() == expected


def test_gen_holds_a_window_and_a_block_per_spec_not_the_trace(monkeypatch):
    # a window's events, with their merge and CSV text, and per spec the drawn connections not yet
    # in a window: at most one block, two int64 columns and a bool one (17 bytes a connection), and
    # their copy as a window takes its rows.  Neither grows with the span; the bound leaves room.
    monkeypatch.setattr(traffic, "WINDOW_EVENTS", 1 << 12)
    monkeypatch.setattr(traffic, "WINDOW_INTERVALS", 1)
    monkeypatch.setattr(traffic, "DRAW_CONNECTIONS", 1 << 8)
    specs = [_normal(vm_id=f"vm-{i:02d}", base_rate=25, end=400, seed=i) for i in range(40)]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        traffic.write_trace(specs[:1], sink)  # the first call imports and caches what it needs
        peak = _peak(traffic.write_trace, specs, sink)
    bound = 256 * traffic.WINDOW_EVENTS + 64 * traffic.DRAW_CONNECTIONS * len(specs)
    assert peak < bound, (peak, bound)
    assert _peak(lambda: merge_traces([generate(spec) for spec in specs])) > 16 * bound
