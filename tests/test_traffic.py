from __future__ import annotations

import re

import pytest

from vmshield.detector import TrafficInterval, bin_events
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
                span_seconds=n_intervals * spec.interval_seconds,
                vm_ids=[spec.vm_id],
            )
            assert direct == via_events, f"seed={seed} rate={rate}"


def test_binned_attack_equals_binning_the_events():
    spec = _attack(start=2, end=6)
    direct = gen_attack_binned(spec, 8)
    via_events = bin_events(
        gen_attack(spec), interval_seconds=10, span_seconds=80, vm_ids=["bad"]
    )
    assert direct == via_events
    assert direct[0] == TrafficInterval(0, "bad", 0, 0)
    assert direct[2].syn == 200


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
    assert rows == [TrafficInterval(0, "vm1", 100, 99), TrafficInterval(1, "vm1", 105, 101)]


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
    # blank lines keep their row numbers; the bad row is past the first parse chunk
    rows = ["0.5,vm1,SYN"] * 5000 + [""] * 3 + ["1.0,vm1,SYN", "2.0,vm1,PING"]
    with pytest.raises(ParseError, match="line 5006: pkt_type 'PING' not in"):
        read_trace_csv("timestamp_s,vm_id,pkt_type\n" + "\n".join(rows) + "\n")


def test_binned_trace_rejects_duplicate_intervals():
    # a repeated (vm, interval) row would advance that VM's statistic twice
    text = "interval_index,vm_id,syn,finrst\n0,vm1,9,0\n0,vm2,9,0\n1,vm1,9,0\n0,vm1,9,0\n"
    with pytest.raises(ParseError, match="line 5: duplicate row for vm 'vm1' interval 0"):
        read_trace_csv(text)


def test_empty_window_spec_generates_nothing():
    assert list(gen_normal(_normal(start=0, end=0))) == []
    assert list(gen_attack(_attack(start=3, end=3))) == []
