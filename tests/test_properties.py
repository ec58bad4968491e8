"""Property tests.

A scenario or cluster with one field or container replaced by an
arbitrary JSON value either parses or fails as a usage error, never
with another exception.  simulate is deliberately not run on the
mutated inputs: a fuzzed duration or count can be arbitrarily large.

Binning gen_normal's events gives exactly gen_normal_binned's counts
for random traffic specs.

The columnar trace functions equal the one-row-at-a-time oracles of
conftest on random events: CSV text, parsed rows, ParseError messages,
merge order and interval counts.

The batched detector equals the CUSUM recurrence oracle on random
multi-VM batches, the columnar statistic log equals csv.writer row by
row, and placement without a vector per candidate equals the
ResourceVector oracle, ties with the threshold included.
"""

from __future__ import annotations

import copy
import io
import json
import os
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    bin_events_oracle,
    cusum_oracle,
    events_to_csv_oracle,
    merge_oracle,
    place_oracle,
    read_events_oracle,
    stat_rows_to_csv_oracle,
)
from vmshield import traffic  # noqa: E402
from vmshield.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, dispatch  # noqa: E402
from vmshield.detector import (  # noqa: E402
    PKT_TYPES,
    CusumDetector,
    StatLog,
    StatRow,
    TrafficInterval,
    bin_events,
    process_trace,
    stat_rows_to_csv,
)
from vmshield.errors import ParseError, UnsortedTrace, ValidationError  # noqa: E402
from vmshield.resources import ResourceVector, WeightVector  # noqa: E402
from vmshield.scheduler import ServerState, filter_candidates, place  # noqa: E402
from vmshield.simulator import Scenario  # noqa: E402
from vmshield.traffic import (  # noqa: E402
    TrafficSpec,
    events_to_csv,
    gen_normal,
    gen_normal_binned,
    merge_traces,
    read_trace_csv,
)

SCENARIO = {
    "servers": [
        {"id": "s1", "usage": {"cpu": 5, "mem": 5, "bw": 5},
         "threshold": {"cpu": 90, "mem": 90, "bw": 90}, "power": "active", "vms": []},
        {"id": "s2", "power": "asleep"},
    ],
    "vm_classes": {
        "cpu-intensive": {"cpu": 30, "mem": 5, "bw": 5},
        "mem-intensive": {"cpu": 5, "mem": 30, "bw": 5},
    },
    "events": [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
        {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 3.0},
        {"tick": 2, "op": "attack_stop", "vm": "vm-001"},
        {"tick": 3, "op": "vm_shutdown", "vm": "vm-002"},
        {"tick": 3, "op": "vm_revoke", "vm": "vm-001"},
    ],
    "detector": {"drift": 0.08, "threshold": 1.43, "interval_seconds": 10,
                 "policy": "throttle", "throttle_factor": 0.5},
    "low_watermark": {"cpu": 20, "mem": 20, "bw": 20},
    "base_rate": 10,
    "fin_delay_range": [12, 19],
    "duration": 5,
    "seed": 3,
    "wake_on_reject": False,
}

CLUSTER = {
    "servers": [
        {"id": "a", "usage": {"cpu": 40, "mem": 20, "bw": 10},
         "threshold": {"cpu": 80, "mem": 80, "bw": 80}, "power": "active", "vms": ["v1"]},
        {"id": "b", "power": "asleep", "vms": []},
        {"id": "c"},
    ],
    "vms": [
        {"id": "v1", "class": "cpu-intensive", "observed": {"cpu": 30, "mem": 5, "bw": 5}},
        {"id": "v2", "class": "mem-intensive"},
    ],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=8,
)

# One value of each JSON type, plus the edge values parsers most often mishandle.
SAMPLES = [None, True, 0, -1, 10**30, 1.5, float("nan"), float("inf"), float("-inf"),
           "", "x", [], [1], ["x"], {}, {"a": 1}]

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)

EXITS = (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE)


def _paths(obj, prefix=()):
    """Every key/index path below obj: each field and each container."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _mutations(doc):
    return st.tuples(st.sampled_from(sorted(_paths(doc), key=repr)), JSON_VALUES).map(
        lambda pv: _replaced(doc, *pv))


def _every_replacement(doc):
    for path in _paths(doc):
        for value in SAMPLES:
            yield _replaced(doc, path, value)


def _check_scenario(doc):
    try:
        Scenario.from_json(doc)
    except (ParseError, ValidationError):
        pass


def _place(tmp, cluster):
    paths = {}
    for name, obj in (("cluster", cluster), ("demand", {"cpu": 10, "mem": 10, "bw": 10})):
        paths[name] = os.path.join(tmp, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return dispatch(["place", "--strict", "--cluster", paths["cluster"],
                     "--demand", paths["demand"]], out=io.StringIO())


def test_base_documents_are_valid():
    Scenario.from_json(SCENARIO)
    with tempfile.TemporaryDirectory() as tmp:
        assert _place(tmp, CLUSTER) == EXIT_OK


def test_every_field_replaced_by_each_json_type():
    for doc in _every_replacement(SCENARIO):
        try:
            _check_scenario(doc)
        except Exception as exc:
            pytest.fail(f"scenario {doc!r} raised {exc!r}")
    with tempfile.TemporaryDirectory() as tmp:
        for doc in _every_replacement(CLUSTER):
            assert _place(tmp, doc) in EXITS, doc


@SETTINGS
@given(_mutations(SCENARIO))
def test_mutated_scenario_parses_or_raises_a_usage_error(doc):
    _check_scenario(doc)


@settings(SETTINGS, max_examples=150)
@given(_mutations(CLUSTER))
def test_mutated_cluster_never_escapes_dispatch(doc):
    with tempfile.TemporaryDirectory() as tmp:
        assert _place(tmp, doc) in EXITS


# gen_normal_binned's equality with binning the events holds for an
# interval that is a whole number of microseconds; the delays may be any
# positive float, since both generators round them the same way.
DELAYS = st.floats(min_value=1e-3, max_value=40.0)


@settings(SETTINGS, max_examples=200)
@given(
    base_rate=st.integers(0, 50),
    start=st.integers(0, 12),
    length=st.integers(0, 12),
    delays=st.tuples(DELAYS, DELAYS).map(sorted),
    interval_us=st.integers(1, 20_000_000),
    n=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_binned_normal_traffic_equals_binning_its_events(
        base_rate, start, length, delays, interval_us, n, seed):
    spec = TrafficSpec("vm", base_rate=base_rate, fin_delay_range=tuple(delays), start=start,
                       end=start + length, seed=seed, interval_seconds=interval_us / 1e6)
    via_events = bin_events(gen_normal(spec), spec.interval_seconds,
                            span_seconds=n * spec.interval_seconds, vm_ids=[spec.vm_id])
    assert via_events == gen_normal_binned(spec, n)


# VM ids with the characters CSV must quote, and the empty id.
VM_ID = st.text(st.sampled_from('ab,"\n\r é'), max_size=4)
STAMP = st.integers(0, 2**53)
EVENT = st.tuples(STAMP, VM_ID, st.sampled_from(PKT_TYPES))
SORTED_EVENTS = st.lists(EVENT, max_size=30).map(sorted)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ParseError, UnsortedTrace, ValueError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(st.lists(st.tuples(st.integers(-2**53, 2**53), VM_ID,
                          st.sampled_from(PKT_TYPES)), max_size=30))
def test_events_to_csv_equals_the_row_oracle(events):
    assert events_to_csv(traffic.Trace.from_events(events)) == events_to_csv_oracle(events)


@SETTINGS
@given(st.lists(EVENT, max_size=30), st.integers(1, 5))
def test_read_trace_csv_round_trips_the_oracle_text(events, chunk_rows):
    text = events_to_csv_oracle(events)
    with mock.patch.object(traffic, "_CHUNK_ROWS", chunk_rows):
        kind, trace = read_trace_csv(text)
    assert kind == "events"
    assert list(trace) == read_events_oracle(text)
    # below 2**48 us (about 9 years) a timestamp's decimal text is exact
    if all(t < 2**48 for t, _, _ in events):
        assert list(trace) == events


@SETTINGS
@given(st.lists(SORTED_EVENTS | st.lists(EVENT, max_size=5), max_size=4))
def test_merge_traces_equals_the_sort_oracle(streams):
    expected = _outcome(merge_oracle, streams)
    got = _outcome(merge_traces, [traffic.Trace.from_events(s) for s in streams])
    assert (list(got) if isinstance(got, traffic.Trace) else got) == expected


@SETTINGS
@given(st.lists(st.tuples(st.integers(-2**53, 2**53), VM_ID, st.sampled_from(PKT_TYPES)),
                max_size=30).map(sorted) | SORTED_EVENTS | st.lists(EVENT, max_size=8),
       st.integers(1, 2**53), st.none() | st.integers(0, 40),
       st.none() | st.lists(VM_ID, max_size=3))
def test_bin_events_equals_the_per_event_oracle(events, interval_us, span, vm_ids):
    # keep the interval count small: at most 40 past the last timestamp
    interval_us = max(interval_us, max((t for t, _, _ in events), default=0) // 40 + 1)
    interval_seconds = interval_us / 1e6
    span_seconds = None if span is None else span * interval_seconds
    expected = _outcome(bin_events_oracle, events, interval_seconds, span_seconds, vm_ids)
    trace = traffic.Trace.from_events(events)
    assert _outcome(bin_events, trace, interval_seconds, span_seconds, vm_ids) == expected


# One bad field or row; the blank row is valid and only shifts line numbers.
BAD_STAMPS = ["nan", "inf", "-inf", "1e300", "-0.000001", "abc", "", "1_0",
              "9223372036854.775808", "9223372036854.774"]
BAD_PKT_TYPES = ["JUNK", "syn", "", "SYN "]


def _bad_row(kind, stamp, pkt_type):
    return {"stamp": f"{stamp},v,SYN", "pkt": f"1.0,v,{pkt_type}", "short": "1.0,v",
            "long": "1.0,v,SYN,x", "blank": ""}[kind]


@SETTINGS
@given(st.lists(EVENT, min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 12), st.sampled_from(["stamp", "pkt", "short", "long",
                                                                 "blank"]),
                          st.sampled_from(BAD_STAMPS), st.sampled_from(BAD_PKT_TYPES)),
                min_size=1, max_size=2),
       st.integers(1, 5))
def test_corrupted_line_raises_the_oracle_error(events, corruptions, chunk_rows):
    lines = events_to_csv_oracle(events).splitlines(keepends=True)
    for position, *bad in corruptions:
        lines.insert(1 + min(position, len(lines) - 1), _bad_row(*bad) + "\n")
    text = "".join(lines)
    with mock.patch.object(traffic, "_CHUNK_ROWS", chunk_rows):
        got = _outcome(read_trace_csv, text)
    expected = _outcome(read_events_oracle, text)
    assert (list(got[1]) if got[0] == "events" else got) == expected


# ------------------------------------------------------ batched detector

COUNT = st.integers(0, 2000)
# one interval's batch: distinct VMs, each with its (syn, finrst) counts
BATCH = st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), st.tuples(COUNT, COUNT),
                        max_size=5)
DRIFT = st.floats(0.0, 0.5)


def _per_vm_oracle(pairs_by_vm, drift, threshold):
    """Each VM's (d, y, episode start) rows from the scalar recurrence oracle."""
    out = {}
    for vm, pairs in pairs_by_vm.items():
        ys, flags = cusum_oracle(pairs, drift, threshold)
        starts = [f and not (i and flags[i - 1]) for i, f in enumerate(flags)]
        out[vm] = [((s - f) / max(s + f, 1), y, start)
                   for (s, f), y, start in zip(pairs, ys, starts)]
    return out


@SETTINGS
@given(st.lists(BATCH, max_size=25), DRIFT, st.floats(0.01, 3.0))
def test_batched_observe_equals_the_recurrence_oracle(batches, drift, gap):
    # VMs join late, batches hold one VM or none, and VM order varies
    threshold = drift + gap
    detector = CusumDetector(drift, threshold)
    got, pairs_by_vm = {}, {}
    for batch in batches:
        vm_ids = list(batch)
        d, y, start = detector.observe(vm_ids, [batch[v][0] for v in vm_ids],
                                       [batch[v][1] for v in vm_ids])
        assert len(d) == len(y) == len(start) == len(vm_ids)
        for vm, row in zip(vm_ids, zip(d.tolist(), y.tolist(), start.tolist())):
            got.setdefault(vm, []).append(row)
            pairs_by_vm.setdefault(vm, []).append(batch[vm])
    # bit for bit: no tolerance
    assert got == _per_vm_oracle(pairs_by_vm, drift, threshold)


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["x", "y", "z"]), COUNT, COUNT),
                max_size=40), DRIFT, st.floats(0.01, 3.0))
def test_process_trace_with_duplicate_rows_equals_the_oracle(rows, drift, gap):
    threshold = drift + gap
    intervals = [TrafficInterval(*row) for row in rows]
    report = process_trace(intervals, drift, threshold)
    # (vm, interval) order; a duplicate row keeps its input order
    ordered = sorted(intervals, key=lambda iv: (iv.vm_id, iv.interval_index))
    pairs_by_vm = {}
    for iv in ordered:
        pairs_by_vm.setdefault(iv.vm_id, []).append((iv.syn, iv.finrst))
    expected = _per_vm_oracle(pairs_by_vm, drift, threshold)
    position = {vm: iter(rows) for vm, rows in expected.items()}
    expected_rows = [StatRow(iv.interval_index, iv.vm_id, iv.syn, iv.finrst,
                             *next(position[iv.vm_id])) for iv in ordered]
    assert list(report.rows) == expected_rows
    assert report.series == {vm: [y for _, y, _ in rows] for vm, rows in expected.items()}
    assert [(a.vm_id, a.interval_index, a.y_value) for a in report.alarms] == [
        (r.vm_id, r.interval_index, r.y) for r in expected_rows if r.alarm]


STAT_ROW = st.builds(StatRow, st.integers(0, 10**6), VM_ID, st.integers(0, 2**53 - 1),
                     st.integers(0, 2**53 - 1), st.floats(allow_nan=False),
                     st.floats(allow_nan=False), st.booleans())


@SETTINGS
@given(st.lists(STAT_ROW, max_size=30), st.lists(st.integers(0, 30), max_size=4))
def test_stat_rows_to_csv_equals_the_row_oracle(rows, cuts):
    expected = stat_rows_to_csv_oracle(rows)
    # the rows as a StatLog of several blocks
    log = StatLog()
    bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        block = rows[lo:hi]
        log.append([r.interval_index for r in block], [r.vm_id for r in block],
                   [r.syn for r in block], [r.finrst for r in block], [r.d for r in block],
                   [r.y for r in block], [r.alarm for r in block])
    assert len(log) == len(rows)
    assert list(log) == rows
    assert stat_rows_to_csv(log) == expected


# ------------------------------------------------------------- placement

# Components on a coarse grid, so that usage + demand often equals a
# threshold component exactly.
COMPONENT = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 10.0, 20.5, 33.3, 50.0])
VECTOR = st.builds(ResourceVector, COMPONENT, COMPONENT, COMPONENT)


@st.composite
def _placement(draw):
    demand = draw(VECTOR)
    servers = []
    for i in range(draw(st.integers(0, 6))):
        usage = draw(VECTOR)
        # each threshold component: exactly usage + demand (a tie, which
        # fails), just above it, far above it, or below it
        threshold = ResourceVector(*(
            total + draw(st.sampled_from([0.0, 0.0, 0.1, 10.0, -0.1]))
            for total in (usage + demand).as_tuple()))
        servers.append(ServerState(draw(st.sampled_from(["s0", "s1", "s2", "s3", "s4", "s5"]))
                                   + str(i), usage, threshold,
                                   draw(st.sampled_from(["active", "active", "asleep"]))))
    weights = draw(st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25), (0.2, 0.7, 0.1),
                                    (1.0, 0.0, 0.0)]))
    return demand, WeightVector(*weights), servers


@SETTINGS
@given(_placement())
def test_place_and_filter_candidates_equal_the_vector_oracle(case):
    demand, weights, servers = case
    candidates, scores, chosen = place_oracle(demand, weights.as_tuple(), servers)
    assert filter_candidates(demand, servers) == candidates
    decision = place(demand, weights, servers)
    assert decision.scores == scores
    assert list(decision.scores) == candidates
    assert decision.chosen == chosen
