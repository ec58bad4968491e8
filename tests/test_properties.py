"""Property tests.

A scenario or cluster with one field or container replaced by an
arbitrary JSON value either parses or fails as a usage error, never
with another exception.  simulate is deliberately not run on the
mutated inputs: a fuzzed duration or count can be arbitrarily large.

Binning gen_normal's events gives exactly gen_normal_binned's counts
for random traffic specs.

The columnar trace functions equal the one-row-at-a-time oracles of
conftest on random events: CSV text, parsed rows, ParseError messages,
merge order and interval counts.  The generators equal an oracle that
draws each interval's variates in separate calls, and read_trace_csv's
plain-file kernel reads edited plain files as its csv.reader path does.
Binning a trace in blocks equals binning it whole, detect reads edited
plain files in blocks of any size as it reads them whole, and gen's
windows of any size write the bytes of the whole merged trace.

The batched detector equals the CUSUM recurrence oracle on random
multi-VM batches and on zero-filled grids of binned rows, detect prints
the same output for an event trace as for its binned counts, the
columnar CSV reports equal csv.writer row by row, also with every float
row written by the % fallback, and placement
without a vector per candidate equals the ResourceVector oracle, ties with the threshold included.

On random small scenarios every active server-tick's usage is its
overhead plus its hosted VMs' observed usage, added in sorted-id order,
exactly, and renaming the servers by a map that keeps id order renames
them in all six reports and changes nothing else.  The closed-form FIN-slot pair counts equal an enumeration of
every (offset, delay) pair, and on random scenarios of one roomy server
under the log policy detector.csv and alarms.json equal conftest's
plain-Python restatement of phases 1 and 3, multinomial calls included.
The restart estimate from a record's running usage sum equals
mean_usage of its samples bit for bit, and json_text equals
json.dumps(indent=2, sort_keys=True) on random documents.

principal_eigenvector's power iteration on Python floats equals the
numpy power iteration of conftest on random profile matrices (zero
components included) and Saaty-scale judgments: weights within 1e-12,
lambda_max within 1e-9, and NonConvergence one iteration short.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    CYCLIC,
    bin_events_oracle,
    csv_row_oracle,
    cusum_oracle,
    detector_reports_oracle,
    events_to_csv_oracle,
    exact_usage_oracle,
    fin_slot_oracle,
    format_timestamp,
    merge_oracle,
    place_oracle,
    power_iteration_oracle,
    read_events_oracle,
    stat_rows_to_csv_oracle,
    traffic_oracle,
    utilization_csv_oracle,
)
from test_golden import SMALL as GOLDEN_SMALL  # noqa: E402
from vmshield import ahp, traffic  # noqa: E402
from vmshield.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, dispatch  # noqa: E402
from vmshield.detector import (  # noqa: E402
    PKT_TYPES,
    Counts,
    CusumDetector,
    StatLog,
    StatRow,
    TrafficInterval,
    bin_event_blocks,
    bin_events,
    fill_gaps,
    fin_slot_pairs,
    process_trace,
    stat_rows_to_csv,
)
from vmshield.errors import NonConvergence, ParseError, UnsortedTrace, ValidationError  # noqa: E402
from vmshield.resources import CSV_CHUNK_ROWS, ResourceVector, WeightVector, _six_places, json_text  # noqa: E402
from vmshield.scheduler import (ServerState, ServerTable, VmRecord, estimate_demand_restart,  # noqa: E402
                               mean_usage, place)
from vmshield.simulator import REPORT_FILES, Scenario, SimReport, UtilizationLog, emit_reports, run  # noqa: E402
from vmshield.traffic import (  # noqa: E402
    TrafficSpec,
    events_to_csv,
    gen_normal,
    gen_normal_binned,
    generate,
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


# One valid document per input file the CLI reads, and every key an
# object in any of them takes (README, "File formats").
INPUTS = {
    "scenario": SCENARIO,
    "cluster": CLUSTER,
    "demand": {"cpu": 10, "mem": 10, "bw": 10},
    "weights": {"w_cpu": 0.2, "w_mem": 0.6, "w_bw": 0.2},
    "spec": {"vm_id": "v", "mode": "attack", "base_rate": 5, "attack_multiplier": 2.0,
             "fin_delay_range": [12, 19], "start": 0, "end": 2, "seed": 1, "interval_seconds": 10},
    "specs": {"specs": [{"vm_id": "v", "end": 2}]},
    "ahp": {"profile": {"cpu": 20, "mem": 60, "bw": 20}},
    "config": {"format": "json", "seed": 1, "verbosity": 0},
}
KNOWN_KEYS = {
    "servers", "vm_classes", "events", "detector", "low_watermark", "base_rate",
    "fin_delay_range", "duration", "seed", "wake_on_reject", "id", "usage", "threshold",
    "power", "vms", "cpu", "mem", "bw", "tick", "op", "class", "count", "vm", "multiplier",
    "drift", "interval_seconds", "policy", "throttle_factor", "observed", "w_cpu", "w_mem",
    "w_bw", "vm_id", "mode", "attack_multiplier", "start", "end", "specs", "profile", "matrix",
    "format", "verbosity",
}


def _commands(files, outdir):
    """The command line that reads each input, by input name."""
    place = ["place", "--cluster", files["cluster"], "--demand", files["demand"],
             "--weights", files["weights"]]
    return {
        "scenario": ["simulate", "--scenario", files["scenario"], "--out", outdir],
        "cluster": place, "demand": place, "weights": place,
        "spec": ["gen", "--spec", files["spec"], "--out", "-"],
        "specs": ["gen", "--spec", files["specs"], "--out", "-"],
        "ahp": ["ahp", "--input", files["ahp"]],
        "config": ["--config", files["config"], "ahp", "--input", files["ahp"]],
    }


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _where(path):
    """The name errors give the object at path, e.g. servers[0].usage."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name


# every object with a key table: all but vm_classes, whose keys are class names
OBJECT_SITES = [(name, path) for name, doc in INPUTS.items() for path in [(), *_paths(doc)]
                if isinstance(_at(doc, path), dict) and path != ("vm_classes",)]


@SETTINGS
@given(st.sampled_from(OBJECT_SITES), st.text(min_size=1, max_size=12).filter(
    lambda key: key not in KNOWN_KEYS))
def test_an_unknown_key_in_any_input_object_is_a_parse_error_naming_it(site, key):
    name, path = site
    doc = copy.deepcopy(INPUTS[name])
    _at(doc, path)[key] = 0
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for input_name, obj in {**INPUTS, name: doc}.items():
            files[input_name] = os.path.join(tmp, input_name + ".json")
            with open(files[input_name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        with contextlib.redirect_stderr(err):
            code = dispatch(_commands(files, os.path.join(tmp, "out"))[name], out=io.StringIO())
    assert code == EXIT_USAGE
    assert err.getvalue().startswith(f"error: {files[name]}: {_where(path)}")
    assert f"unknown keys {[key]!r}" in err.getvalue()


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
    interval=st.floats(1e-6, 20.0),
    n=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_binned_normal_traffic_equals_binning_its_events(
        base_rate, start, length, delays, interval, n, seed):
    spec = TrafficSpec("vm", base_rate=base_rate, fin_delay_range=tuple(delays), start=start,
                       end=start + length, seed=seed, interval_seconds=interval)
    via_events = bin_events(gen_normal(spec), spec.interval_seconds, n_intervals=n,
                            vm_ids=[spec.vm_id])
    assert list(via_events) == list(gen_normal_binned(spec, n))


# Intervals and delay spans above 2**32 us (about 4,295 s) draw through
# numpy's 64-bit bounded path, the others through its 32-bit one.
WIDE_US = st.integers(1, 20_000_000) | st.integers(2**32 - 2, 5_000_000_000)


@SETTINGS
@given(
    mode=st.sampled_from(["normal", "attack"]),
    base_rate=st.integers(0, 12),
    multiplier=st.floats(1.0, 4.0),
    start=st.integers(0, 5),
    length=st.integers(0, 6),
    delays=st.tuples(WIDE_US, WIDE_US | st.just(0)),
    interval_us=WIDE_US,
    n=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_generators_equal_the_per_interval_draw_oracle(
        mode, base_rate, multiplier, start, length, delays, interval_us, n, seed):
    low, extra = delays
    spec = TrafficSpec("vm", mode=mode, base_rate=base_rate, attack_multiplier=multiplier,
                       fin_delay_range=(low / 1e6, (low + extra) / 1e6), start=start,
                       end=start + length, seed=seed, interval_seconds=interval_us / 1e6)
    events = traffic_oracle(spec)
    assert list(generate(spec)) == events
    if mode == "normal":
        counts = [[0, 0] for _ in range(n)]
        for t_us, _, pkt_type in events:
            if t_us // interval_us < n:
                counts[t_us // interval_us][pkt_type != "SYN"] += 1
        assert list(gen_normal_binned(spec, n)) == [
            TrafficInterval(i, "vm", syn, finrst) for i, (syn, finrst) in enumerate(counts)]


# VM ids with the characters CSV must quote, and the empty id.
VM_ID = st.text(st.sampled_from('ab,"\n\r é'), max_size=4)
STAMP = st.integers(0, 2**53)
EVENT = st.tuples(STAMP, VM_ID, st.sampled_from(PKT_TYPES))
SORTED_EVENTS = st.lists(EVENT, max_size=30).map(sorted)
# Ids and stamps that read_trace_csv's plain-file kernel parses: no
# quoting, up to 24 bytes, and stamps below 10**15 us (nine seconds
# digits).  READ_EVENT mixes them with the general reader's.
PLAIN_ID = st.text(st.sampled_from("ab-é0"), max_size=12)
PLAIN_STAMP = st.integers(0, 10**15 - 1)
PLAIN_EVENT = st.tuples(PLAIN_STAMP, PLAIN_ID, st.sampled_from(PKT_TYPES))
READ_EVENT = st.tuples(PLAIN_STAMP | st.integers(10**15 - 2, 10**15 + 1) | STAMP,
                       PLAIN_ID | VM_ID, st.sampled_from(PKT_TYPES))
# line numbers before which a blank line goes in, and whether the last line ends in "\n"
BLANKS = st.tuples(st.lists(st.integers(1, 31), max_size=3), st.booleans())


def _trace_text(events, blanks):
    """The oracle's trace file, with blank lines put in and its last "\n" dropped if asked."""
    positions, last_newline = blanks
    lines = [csv_row_oracle(["timestamp_s", "vm_id", "pkt_type"]),
             *(csv_row_oracle([format_timestamp(t_us), *rest]) for t_us, *rest in events)]
    for position in sorted(positions, reverse=True):
        lines.insert(min(position, len(lines)), "\n")
    text = "".join(lines)
    return text if last_newline else text[:-1]


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ParseError, UnsortedTrace, ValueError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(st.lists(st.tuples(st.integers(-2**53, 2**53), VM_ID | PLAIN_ID,
                          st.sampled_from(PKT_TYPES)), max_size=30))
def test_events_to_csv_equals_the_row_oracle(events):
    assert events_to_csv(traffic.Trace.from_events(events)) == events_to_csv_oracle(events)


@SETTINGS
@given(st.lists(READ_EVENT, max_size=30), BLANKS)
def test_read_trace_csv_round_trips_the_oracle_text(events, blanks):
    text = _trace_text(events, blanks)
    kind, trace = read_trace_csv(text)
    assert kind == "events"
    assert list(trace) == read_events_oracle(text)
    # below 2**48 us (about 9 years) a timestamp's decimal text is exact
    if all(t < 2**48 for t, _, _ in events):
        assert list(trace) == events


@SETTINGS
@given(st.lists(PLAIN_EVENT, max_size=30), BLANKS)
def test_plain_trace_never_reaches_the_general_reader(events, blanks):
    text = _trace_text(events, blanks)
    with mock.patch.object(traffic, "_read_csv", side_effect=AssertionError("general reader")):
        kind, trace = read_trace_csv(text)
    # below 10**15 us the plain kernel's exact digits equal the oracle's float parse
    assert list(trace) == read_events_oracle(text) == events
    assert trace.vm_ids == tuple(sorted({vm_id for _, vm_id, _ in events}))


# Edits of a plain file, each putting characters in at a line and column
# and maybe cutting the one there: some keep it plain, others send it to
# the general reader or make it invalid.
EDIT = st.tuples(st.integers(0, 40), st.integers(0, 40), st.booleans(), st.sampled_from(
    ["", "0", "9", ".", ",", "a", "é", "-", " ", ":", "/", '"', "\0", "\r", "\n", "ACK"]))


def _read(text):
    """read_trace_csv's rows and ids, or the type and text of what it raised."""
    try:
        _, trace = read_trace_csv(text)
    except ParseError as exc:
        return type(exc), str(exc)
    return list(trace), trace.vm_ids


@SETTINGS
@given(st.lists(PLAIN_EVENT, min_size=1, max_size=8), st.lists(EDIT, max_size=2))
# the row "1.000000,a,SYN" with its dot made a digit, or a "\r" or NUL put before its id
@example([(10**6, "a", "SYN")], [(1, 1, True, "0")])
@example([(10**6, "a", "SYN")], [(1, 9, False, "\r")])
@example([(10**6, "a", "SYN")], [(1, 9, False, "\0")])
def test_plain_kernel_reads_as_the_general_reader(events, edits):
    lines = events_to_csv_oracle(events).splitlines(keepends=True)
    for row, column, cut, chars in edits:
        row %= len(lines)
        column %= len(lines[row])
        lines[row] = lines[row][:column] + chars + lines[row][column + cut:]
    text = "".join(lines)
    with mock.patch.object(traffic, "_read_plain_events", return_value=None):
        expected = _read(text)
    assert _read(text) == expected


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
    expected = _outcome(bin_events_oracle, events, interval_seconds, span, vm_ids)
    got = _outcome(bin_events, traffic.Trace.from_events(events), interval_seconds, span, vm_ids)
    assert (list(got) if isinstance(got, Counts) else got) == expected


@SETTINGS
@given(st.lists(st.tuples(st.integers(-3, 2**40), VM_ID, st.sampled_from(PKT_TYPES)), max_size=30).map(sorted)
       | st.lists(EVENT, max_size=8), st.lists(st.integers(0, 30), max_size=4),
       st.none() | st.integers(0, 40), st.none() | st.lists(VM_ID, max_size=3))
def test_binning_a_trace_in_blocks_equals_binning_it_whole(events, cuts, span, vm_ids):
    interval_seconds = (max((t for t, _, _ in events), default=0) // 40 + 1) / 1e6  # at most 41 intervals
    blocks = [traffic.Trace.from_events(events[lo:hi])
              for lo, hi in zip([0, *sorted(cuts)], [*sorted(cuts), len(events)])]
    expected = _outcome(bin_events, traffic.Trace.from_events(events), interval_seconds, span, vm_ids)
    got = _outcome(bin_event_blocks, blocks, interval_seconds, span, vm_ids)
    if isinstance(expected, Counts):
        assert (got.vm_ids, got.syn.tolist(), got.finrst.tolist()) == (
            expected.vm_ids, expected.syn.tolist(), expected.finrst.tolist())
    else:
        assert got == expected


# Edits that keep every stamp at or below its value (no digit goes in, none
# comes out), so that no grid outgrows the stamps drawn.
SMALL_EDIT = st.tuples(st.integers(0, 40), st.integers(0, 40), st.just(False), st.sampled_from(
    ["", ".", ",", "a", "é", "-", " ", ":", "/", '"', "\0", "\r", "\n", "\r\n", "ACK", "\n\n"]))


def _grid_or_error(read, *args):
    got = _outcome(read, *args)
    return (got.vm_ids, got.syn.tolist(), got.finrst.tolist()) if isinstance(got, Counts) else got


def _read_whole(path, interval):
    with open(path, encoding="utf-8", newline="") as fh:
        kind, data = read_trace_csv(fh.read())
    return bin_events(data, interval) if kind == "events" else data


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 10**8), PLAIN_ID, st.sampled_from(PKT_TYPES)), min_size=1, max_size=12)
       .map(sorted) | st.lists(st.tuples(st.integers(0, 10**8), PLAIN_ID, st.sampled_from(PKT_TYPES)), max_size=6),
       st.lists(SMALL_EDIT, max_size=2), st.integers(1, 96), st.sampled_from([0.25, 1.0, 10.0]))
@example([(10**6, "a", "SYN"), (2 * 10**6, "a", "FIN")], [(2, 0, False, "\r\n")], 8, 1.0)
@example([(10**6, "a", "SYN"), (5 * 10**5, "a", "FIN")], [], 8, 0.25)
def test_detect_reads_a_file_in_blocks_as_it_reads_it_whole(events, edits, block, interval):
    lines = events_to_csv_oracle(events).splitlines(keepends=True)
    for row, column, cut, chars in edits:
        row %= len(lines)
        column %= len(lines[row])
        lines[row] = lines[row][:column] + chars + lines[row][column + cut:]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traffic, "TRACE_BLOCK_BYTES", block):
        path = os.path.join(tmp, "trace.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
        expected = _grid_or_error(_read_whole, path, interval)
        assert _grid_or_error(traffic.read_trace_counts, path, interval) == expected


def _rows(*stamps_and_types):
    return [f"{t // 10**6}.{t % 10**6:06d},a,{pkt}\n" for t, pkt in stamps_and_types]


@pytest.mark.parametrize("rows, block, interval, expected", [
    # a quoted newline that ends the third one-line block, then a bad pkt_type: lines count on across the switch
    ([*_rows((1, "SYN"), (2, "SYN")), '0.000003,"x\n', 'y",SYN\n', *_rows((4, "SYN"), (5, "PING"))], 8, 1.0,
     (ParseError, "trace line 7: pkt_type 'PING' not in")),
    # an unsorted pair in the first two-line block, then a bad row in the fourth: the row's error comes first
    (_rows((2, "SYN"), (1, "SYN"), *((t, "SYN") for t in range(3, 8)), (8, "PING")), 20, 1.0,
     (ParseError, "trace line 9: pkt_type 'PING' not in")),
    # a grid too large in the general reader's first chunk, then an unsorted pair in its second
    (["0.000001,a,SYN\n", *["9000000000000.000002,a,SYN\n"] * CSV_CHUNK_ROWS, "0.000003,a,SYN\n"], 8, 1e-6,
     (UnsortedTrace, "timestamp 3 after 9000000000000000000")),
], ids=["quoted-newline-then-bad-row", "unsorted-then-bad-row", "too-large-then-unsorted"])
def test_a_fault_in_a_block_raises_as_the_whole_file_does(tmp_path, rows, block, interval, expected):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp_s,vm_id,pkt_type\n" + "".join(rows), encoding="utf-8", newline="")
    with mock.patch.object(traffic, "TRACE_BLOCK_BYTES", block):
        got = _grid_or_error(traffic.read_trace_counts, path, interval)
    assert got == _grid_or_error(_read_whole, path, interval)
    assert got[0] is expected[0] and got[1].startswith(expected[1]), got


SPEC = st.builds(
    TrafficSpec, vm_id=st.sampled_from(["a", "b", "c,d"]), mode=st.sampled_from(["normal", "attack"]),
    base_rate=st.integers(0, 4), attack_multiplier=st.sampled_from([1.0, 1.5, 2.5]),
    fin_delay_range=st.sampled_from([(12.0, 19.0), (1e-6, 3e-6), (0.2, 0.4), (1.0, 30.0)]),
    start=st.integers(0, 6), end=st.integers(0, 6).map(lambda k: k + 6), seed=st.integers(0, 2),
    interval_seconds=st.sampled_from([1e-6, 0.5, 3.0, 10.0]))


@SETTINGS
@given(st.lists(SPEC, min_size=1, max_size=5), st.sampled_from([1, 8, 1 << 15]), st.sampled_from([1, 2, 6]))
def test_gen_writes_the_whole_traces_bytes_a_window_at_a_time(specs, window_events, window_intervals):
    # mixed intervals and starts, FINs due inside their SYN's window or many windows on, floods,
    # and same-microsecond ties across specs (two specs alike, or one-microsecond intervals)
    expected = events_to_csv(merge_traces([generate(s) for s in specs]))
    out = io.StringIO()
    with mock.patch.object(traffic, "WINDOW_EVENTS", window_events), \
            mock.patch.object(traffic, "WINDOW_INTERVALS", window_intervals):
        assert traffic.write_trace(specs, out) == expected.count("\n") - 1
    assert out.getvalue() == expected


# One bad field or row; the blank row is valid and only shifts line numbers.
BAD_STAMPS = ["nan", "inf", "-inf", "1e300", "-0.000001", "abc", "", "1_0",
              "9223372036854.775808", "9223372036854.774"]
BAD_PKT_TYPES = ["JUNK", "syn", "", "SYN "]


def _bad_row(kind, stamp, pkt_type):
    return {"stamp": f"{stamp},v,SYN", "pkt": f"1.0,v,{pkt_type}", "short": "1.0,v",
            "long": "1.0,v,SYN,x", "blank": ""}[kind]


@SETTINGS
@given(st.lists(READ_EVENT, min_size=1, max_size=12),
       st.lists(st.tuples(st.integers(0, 12), st.sampled_from(["stamp", "pkt", "short", "long",
                                                                 "blank"]),
                          st.sampled_from(BAD_STAMPS), st.sampled_from(BAD_PKT_TYPES)),
                min_size=1, max_size=2))
def test_corrupted_line_raises_the_oracle_error(events, corruptions):
    lines = events_to_csv_oracle(events).splitlines(keepends=True)
    for position, *bad in corruptions:
        lines.insert(1 + min(position, len(lines) - 1), _bad_row(*bad) + "\n")
    text = "".join(lines)
    got = _outcome(read_trace_csv, text)
    expected = _outcome(read_events_oracle, text)
    assert (list(got[1]) if got[0] == "events" else got) == expected


# ------------------------------------------------------ batched detector

COUNT = st.integers(0, 2000)
# one interval's batch: distinct VMs, each with its (syn, finrst) counts
BATCH = st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), st.tuples(COUNT, COUNT),
                        max_size=5)
# each VM's detector slot: sparse, and in another order than the names
SLOT = {"a": 3, "b": 0, "c": 9, "d": 1, "e": 4}
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
        d, y, start = detector.observe([SLOT[v] for v in vm_ids], [batch[v][0] for v in vm_ids],
                                       [batch[v][1] for v in vm_ids])
        assert len(d) == len(y) == len(start) == len(vm_ids)
        for vm, row in zip(vm_ids, zip(d.tolist(), y.tolist(), start.tolist())):
            got.setdefault(vm, []).append(row)
            pairs_by_vm.setdefault(vm, []).append(batch[vm])
    # bit for bit: no tolerance
    assert got == _per_vm_oracle(pairs_by_vm, drift, threshold)


@SETTINGS
@given(st.dictionaries(st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(0, 6)),
                       st.tuples(COUNT, COUNT), max_size=21),
       st.none() | st.tuples(st.integers(0, 20), COUNT, COUNT), DRIFT, st.floats(0.01, 3.0))
def test_process_trace_with_duplicate_rows_equals_the_oracle(cells, repeat, drift, gap):
    # rows in any order; a repeat of one row's (vm, interval) is an error
    threshold = drift + gap
    rows = [TrafficInterval(idx, vm, *pair) for (vm, idx), pair in cells.items()]
    if repeat is not None and rows:
        k, *pair = repeat
        rows.append(TrafficInterval(rows[k % len(rows)].interval_index,
                                    rows[k % len(rows)].vm_id, *pair))
        with pytest.raises(ValueError, match="duplicate row for vm"):
            fill_gaps(rows)
        return
    report = process_trace(fill_gaps(rows), drift, threshold)
    # the zero-filled grid: every VM from interval 0 to the largest index
    span = range(max((idx for _, idx in cells), default=-1) + 1)
    grid = {vm: [cells.get((vm, idx), (0, 0)) for idx in span]
            for vm in sorted({vm for vm, _ in cells})}
    expected = _per_vm_oracle(grid, drift, threshold)
    expected_rows = [StatRow(idx, vm, *grid[vm][idx], *expected[vm][idx])
                     for vm in grid for idx in span]
    assert list(report.rows) == expected_rows
    assert report.series == {vm: [y for _, y, _ in vm_rows] for vm, vm_rows in expected.items()}
    assert [(a.vm_id, a.interval_index, a.y_value) for a in report.alarms] == [
        (r.vm_id, r.interval_index, r.y) for r in expected_rows if r.alarm]


def _detect(tmp, name, text):
    """detect's stdout and --stats bytes on the trace file text."""
    trace, stats = os.path.join(tmp, name), os.path.join(tmp, name + ".stats")
    with open(trace, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    out = io.StringIO()
    assert dispatch(["detect", "--trace", trace, "--stats", stats], out=out) == EXIT_OK
    with open(stats, "rb") as fh:
        return out.getvalue(), fh.read()


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 200_000_000), VM_ID, st.sampled_from(PKT_TYPES)),
                max_size=30).map(sorted), st.booleans())
def test_detect_reads_events_and_their_binned_counts_alike(events, drop_zeros):
    # the binned file may leave out zero rows, except each VM's last, which keeps its VM
    # and the span
    trace = traffic.Trace.from_events(events)
    counts = bin_events(trace)
    last = counts.syn.shape[1] - 1
    binned = "".join(csv_row_oracle([iv.interval_index, iv.vm_id, iv.syn, iv.finrst])
                     for iv in counts if not drop_zeros or iv.syn or iv.finrst
                     or iv.interval_index == last)
    with tempfile.TemporaryDirectory() as tmp:
        assert (_detect(tmp, "events.csv", events_to_csv(trace))
                == _detect(tmp, "binned.csv", "interval_index,vm_id,syn,finrst\n" + binned))


STAT_ROW = st.builds(StatRow, st.integers(0, 10**6), VM_ID, st.integers(0, 2**53 - 1),
                     st.integers(0, 2**53 - 1), st.floats(allow_nan=False),
                     st.floats(allow_nan=False), st.booleans())


# Floats at the edges of the %.6f byte kernel: exact ties (to even); values next to
# a half millionth, where 2.5e-6 and 1.0000015 scale to exactly 2.5 and 1000001.5
# though they lie above and below the half; values that print as -0.000000; one the
# kernel leaves to %; and infinities.
EDGE_FLOATS = [0.0078125, 0.0234375, 1.0000005, math.nextafter(5e-7, 0), math.nextafter(5e-7, 1),
               2.5e-6, 1.0000015, -1e-9, -0.0, 1e15, math.inf, -math.inf]


@SETTINGS
@given(st.lists(STAT_ROW, max_size=30), st.lists(st.integers(0, 30), max_size=4))
@example([StatRow(i, "v", 2**53 - 1, 0, x, 0.25, True) for i, x in enumerate(EDGE_FLOATS)], [4])
@example([StatRow(i, "w,1", 0, 2**53 - 1, -0.5, x, False) for i, x in enumerate(EDGE_FLOATS)], [])
@example([StatRow(0, "v", 1, 2, 0.5, 0.5, False), StatRow(1, "v", 3, 4, 1e15, 0.5, True),
          StatRow(2, "v", 5, 6, 0.5, 0.5, False)], [])
def test_stat_rows_to_csv_equals_the_row_oracle(rows, cuts):
    expected = stat_rows_to_csv_oracle(rows)
    # the rows as a StatLog of several blocks, its id table growing as blocks name new ids
    vm_ids = []
    log = StatLog(vm_ids)
    slot = {}
    bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        block = rows[lo:hi]
        for r in block:
            if r.vm_id not in slot:
                slot[r.vm_id] = len(vm_ids)
                vm_ids.append(r.vm_id)
        log.append([r.interval_index for r in block], [slot[r.vm_id] for r in block],
                   [r.syn for r in block], [r.finrst for r in block], [r.d for r in block],
                   [r.y for r in block], [r.alarm for r in block])
    assert len(log) == len(rows)
    assert list(log) == rows
    assert stat_rows_to_csv(log) == expected


def test_stat_rows_to_csv_of_more_than_two_chunks_equals_the_row_oracle():
    # 10,000 rows in four blocks, whose ends need not meet the byte kernel's chunks,
    # with rows it leaves to % in each chunk, the last chunk's last row among them
    rng = np.random.default_rng(23)
    n = 10_000
    assert n > 2 * CSV_CHUNK_ROWS
    interval, slots = rng.integers(0, 2000, n), rng.integers(0, 6, n)
    syn, finrst = rng.integers(0, 300, n), rng.integers(0, 300, n)
    d = (syn - finrst) / np.maximum(syn + finrst, 1)  # small denominators give exact ties
    y = np.cumsum(rng.exponential(0.5, n)) % 40
    edges = np.append(rng.choice(n, 40, replace=False), n - 1)
    d[edges[::2]] = rng.choice(EDGE_FLOATS, len(edges[::2]))
    y[edges[1::2]] = rng.choice(EDGE_FLOATS, len(edges[1::2]))
    syn[rng.choice(n, 5)] = 2**53 - 1
    alarm = rng.random(n) < 0.01
    log = StatLog(["vm-1", "db,primary", 'q"x', "\ud800", "é", "vm-10"])
    for block in np.split(np.arange(n), [3000, 4096, 8191]):
        log.append(interval[block], slots[block], syn[block], finrst[block], d[block], y[block], alarm[block])
    assert stat_rows_to_csv(log) == stat_rows_to_csv_oracle(list(log))


# ------------------------------------------------------------- placement

# Components on a coarse grid, so that usage + demand often equals a
# threshold component exactly.
COMPONENT = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 10.0, 20.5, 33.3, 50.0])
VECTOR = st.builds(ResourceVector, COMPONENT, COMPONENT, COMPONENT)


# threshold component offsets from usage + demand: a tie (which fails), just above, far above, below
OFFSETS = (0.0, 0.0, 0.1, 10.0, -0.1)


# counts, the kernel leaving negative ones to %, and floats: mostly ones it writes, then
# EDGE_FLOATS, magnitudes about 10**9, from which on it leaves a float to %, and any float
ANY_COUNT = st.integers(0, 300) | st.integers(-2**53 + 1, 2**53 - 1) | st.sampled_from([-1, 2**53 - 1])
ANY_FLOAT = (st.floats(0, 100) | st.floats(-1e6, 1e6) | st.integers(-5, 5).map(lambda k: k / 8)
             | st.sampled_from(EDGE_FLOATS + [1e9, -1e9, math.nextafter(1e9, 0)]) | st.floats(allow_nan=False))


@st.composite
def _stat_log(draw):
    """A StatLog of up to 40 rows in random blocks, and its rows."""
    vm_ids = draw(st.lists(VM_ID, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.builds(StatRow, st.integers(-3, 10**6), st.sampled_from(vm_ids), ANY_COUNT, ANY_COUNT,
                                   ANY_FLOAT, ANY_FLOAT, st.booleans()), max_size=40))
    log = StatLog(vm_ids)
    bounds = sorted({0, len(rows), *draw(st.lists(st.integers(0, len(rows)), max_size=6))})
    for lo, hi in zip(bounds, bounds[1:]):
        log.append(*zip(*[(r.interval_index, vm_ids.index(r.vm_id), r.syn, r.finrst, r.d, r.y, r.alarm)
                          for r in rows[lo:hi]]))
    return log, rows


@st.composite
def _utilization_log(draw):
    """A UtilizationLog of up to 8 ticks of up to 4 servers, and its rows."""
    server_ids = tuple(sorted(draw(st.lists(VM_ID, min_size=1, max_size=4, unique=True))))
    log, rows = UtilizationLog(server_ids), []
    for tick in sorted(draw(st.lists(st.integers(0, 10**6), max_size=8))):
        usage = [draw(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)) for _ in server_ids]
        active = draw(st.lists(st.booleans(), min_size=len(server_ids), max_size=len(server_ids)))
        hosted = draw(st.lists(st.integers(-1, 2) | st.integers(0, 10**6), min_size=len(server_ids),
                               max_size=len(server_ids)))
        log.add(tick, np.array(usage).reshape(-1, 3), np.array(active), np.array(hosted, dtype=np.int64))
        rows += [(tick, sid, *u, "active" if on else "asleep", n)
                 for sid, u, on, n in zip(server_ids, usage, active, hosted)]
    return log, rows


def _no_exact_places(x):
    """resources._six_places, claiming no value exact, so that every row with a float is written by %."""
    fields, exact = _six_places(x)
    return fields, np.zeros_like(exact)


@settings(SETTINGS, max_examples=100)
@given(_stat_log(), _utilization_log(), st.integers(1, 9), st.booleans())
@example((StatLog(["v"]), []), (UtilizationLog(("s",)), []), 1, False)
def test_csv_reports_written_a_chunk_at_a_time_equal_their_row_oracles(stat, utilization, chunk, every_row_by_percent):
    # chunks of 1-9 rows, so blocks straddle chunk edges as 2,048-row chunks do in long runs
    (stat_log, stat_rows), (utilization_log, utilization_rows) = stat, utilization
    assert list(stat_log) == stat_rows
    assert list(utilization_log) == utilization_rows
    places = _no_exact_places if every_row_by_percent else _six_places
    with mock.patch("vmshield.resources.CSV_CHUNK_ROWS", chunk), mock.patch("vmshield.resources._six_places", places), \
            tempfile.TemporaryDirectory() as out:
        emit_reports(SimReport(utilization=utilization_log, stat_rows=stat_log), out)
        text = stat_rows_to_csv(stat_log)
        for name, expected in (("detector.csv", stat_rows_to_csv_oracle(stat_rows)),
                               ("utilization.csv", utilization_csv_oracle(utilization_rows))):
            with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
                assert fh.read() == expected, name
    assert text == stat_rows_to_csv_oracle(stat_rows)


@st.composite
def _placement(draw):
    """demand, weights, servers and the servers' rejects: each with one threshold component at
    usage + demand + an offset that leaves it <= 0, which no drawn threshold is."""
    demand = draw(VECTOR)
    servers, rejects = [], []
    for i in range(draw(st.integers(0, 6))):
        usage = draw(VECTOR)
        totals = (usage + demand).as_tuple()
        threshold = ResourceVector(*(total + draw(st.sampled_from([o for o in OFFSETS if total + o > 0]))
                                     for total in totals))
        server = ServerState(draw(st.sampled_from(["s0", "s1", "s2", "s3", "s4", "s5"])) + str(i), usage,
                             threshold, draw(st.sampled_from(["active", "active", "asleep"])))
        servers.append(server)
        rejects += [replace(server, threshold=threshold._replace(**{name: total + o}))
                    for name, total in zip(ResourceVector._fields, totals) for o in set(OFFSETS) if total + o <= 0]
    weights = draw(st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25), (0.2, 0.7, 0.1),
                                    (1.0, 0.0, 0.0)]))
    return demand, WeightVector(*weights), servers, rejects


@SETTINGS
@given(_placement())
def test_place_and_filter_candidates_equal_the_vector_oracle(case):
    demand, weights, servers, rejects = case
    candidates, scores, chosen = place_oracle(demand, weights.as_tuple(), servers)
    decision = place(demand, weights, ServerTable.from_servers(servers))
    assert decision.scores == scores
    assert list(decision.scores) == sorted(candidates)  # the table holds servers in id order
    assert decision.chosen == chosen
    for server in rejects:
        with pytest.raises(ValidationError, match=f"^server {server.id}: threshold components must be > 0"):
            ServerTable.from_servers([server])


THRESHOLD = st.sampled_from([10.0, 20.6, 50.0, 100.0])


@st.composite
def _tied_table(draw):
    """demand, weights and up to 10 servers, any power, whose usage comes from at most three
    vectors, so that scores often tie; ids in an order that is not id order."""
    usages = draw(st.lists(VECTOR, min_size=1, max_size=3))
    ids = draw(st.permutations(["a", "b", "s1", "s10", "s2", "s3", "z", "A", "\u00e9", "s20"]))
    servers = [ServerState(sid, draw(st.sampled_from(usages)),
                           draw(st.builds(ResourceVector, THRESHOLD, THRESHOLD, THRESHOLD)),
                           draw(st.sampled_from(["active", "active", "asleep"])))
               for sid in ids[:draw(st.integers(0, len(ids)))]]
    weights = draw(st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25), (0.2, 0.7, 0.1), (1.0, 0.0, 0.0)]))
    return draw(VECTOR), WeightVector(*weights), servers


@SETTINGS
@given(_tied_table())
def test_place_picks_the_least_two_scores_of_the_vector_oracle(case):
    demand, weights, servers = case
    candidates, scores, chosen = place_oracle(demand, weights.as_tuple(), servers)
    ranked = sorted((score, sid) for sid, score in scores.items())  # least (score, id) first
    decision = place(demand, weights, ServerTable.from_servers(servers))
    assert (decision.chosen, decision.score) == ((chosen, ranked[0][0]) if ranked else (None, None))
    assert decision.runner_up == (ranked[1][::-1] if len(ranked) > 1 else None)
    assert len(decision.rows) == len(candidates)
    assert decision.scores == scores
    assert list(decision.scores) == sorted(candidates)


@st.composite
def _small_scenario(draw):
    """A valid scenario of up to 4 servers and 8 ticks: requests, shutdowns,
    revocations and attacks at random ticks, any policy, maybe a watermark."""
    vec = lambda lo, hi: st.fixed_dictionaries(  # noqa: E731
        {key: st.floats(lo, hi) for key in ("cpu", "mem", "bw")})
    servers = [{"id": f"s{i}", "usage": draw(vec(0, 10)), "threshold": draw(vec(20, 100)),
                "power": draw(st.sampled_from(["active", "active", "asleep"]))}
               for i in range(draw(st.integers(1, 4)))]
    duration = draw(st.integers(1, 8))
    events, created, revoked = [], 0, set()
    for tick in range(duration):
        for op in draw(st.lists(st.sampled_from(["vm_request", "vm_request", "vm_shutdown",
                                                 "vm_revoke", "attack_start", "attack_stop"]),
                                max_size=3)):
            if op == "vm_request":
                count = draw(st.integers(1, 4))
                events.append({"tick": tick, "op": op, "count": count,
                               "class": draw(st.sampled_from(["cpu-intensive", "memory-intensive"]))})
                created += count
                continue
            vm = f"vm-{draw(st.integers(1, max(created, 1))):03d}"
            if not created or vm in revoked:
                continue
            events.append({"tick": tick, "op": op, "vm": vm})
            if op == "attack_start":
                events[-1]["multiplier"] = draw(st.floats(1, 5))
            if op == "vm_revoke":
                revoked.add(vm)
    return Scenario.from_json({
        "servers": servers,
        "vm_classes": {"cpu-intensive": draw(vec(0, 30)), "memory-intensive": draw(vec(0, 30))},
        "events": events,
        "detector": {"policy": draw(st.sampled_from(["log", "throttle", "suspend"]))},
        "low_watermark": draw(st.none() | vec(5, 60)),
        "base_rate": draw(st.integers(0, 40)),
        "duration": duration,
        "seed": draw(st.integers(0, 2**16)),
    })


@settings(SETTINGS, max_examples=150)
@given(_small_scenario())
def test_usage_is_overhead_plus_hosted_vms_exactly(scenario):
    exact_usage_oracle(scenario, run(scenario))


def _scaled(scenario, factor):
    """scenario with every resource vector times factor: server usage and thresholds, class demands and
    the low watermark."""
    return replace(scenario, servers=[replace(s, usage=s.usage.scaled(factor), threshold=s.threshold.scaled(factor))
                                      for s in scenario.servers],
                   vm_classes={name: vec.scaled(factor) for name, vec in scenario.vm_classes.items()},
                   low_watermark=scenario.low_watermark and scenario.low_watermark.scaled(factor))


def _decisions(report):
    """Every decision of a run, without the scores and demands that scale with the resources."""
    placements = [{**{k: v for k, v in p.items() if k not in ("demand", "score")},
                   "runner_up": p["runner_up"] and p["runner_up"]["server"]} for p in report.placements]
    migrations = [{k: m[k] for k in ("tick", "seq", "kind", "vm", "from", "to")} for m in report.migrations]
    return placements, migrations, report.power_events, report.alarms, report.summary["counters"]


@settings(SETTINGS, max_examples=60)
@given(_small_scenario() | st.just(Scenario.from_json(GOLDEN_SMALL)), st.sampled_from([2.0, 0.5, 0.25]))
@example(Scenario.from_json(GOLDEN_SMALL), 0.25)
def test_a_power_of_two_times_every_resource_vector_scales_usage_and_keeps_every_decision(scenario, factor):
    # a power-of-two factor scales each product, sum and comparison of resources exactly,
    # barring overflow and subnormals, so an absolute constant that reaches a decision or a
    # usage value (a fixed margin or an additive jitter) breaks it
    assume(all(c == 0 or 2**-900 < c < 2**900 for vec in (
        *(v for s in scenario.servers for v in (s.usage, s.threshold)), *scenario.vm_classes.values(),
        scenario.low_watermark or ()) for c in vec))
    report, scaled = run(scenario), run(_scaled(scenario, factor))
    assert _decisions(scaled) == _decisions(report)
    assert list(scaled.utilization) == [(tick, sid, cpu * factor, mem * factor, bw * factor, power, vms)
                                        for tick, sid, cpu, mem, bw, power, vms in report.utilization]
    assert list(scaled.vm_samples) == [(tick, vm, observed.scaled(factor), host)
                                       for tick, vm, observed, host in report.vm_samples]


def _renamed(scenario):
    """scenario with its server ids mapped in id order, and the map: each id becomes 'r,"', which needs CSV
    quoting, then a rank code that shortens as the id rises, then the id, so an id's length says nothing."""
    ids = sorted(server.id for server in scenario.servers)
    names = {sid: 'r,"' + "a" * (len(ids) - 1 - rank) + "b" + sid for rank, sid in enumerate(ids)}
    return replace(scenario, servers=[replace(server, id=names[server.id]) for server in scenario.servers]), names


def _parsed_reports(scenario):
    """The six report files of a run of scenario, CSV rows by csv.reader and JSON documents by json."""
    with tempfile.TemporaryDirectory() as out:
        parsed = {}
        for path in emit_reports(run(scenario), out):
            with open(path, encoding="utf-8", newline="") as fh:
                parsed[os.path.basename(path)] = list(csv.reader(fh)) if path.endswith(".csv") else json.load(fh)
    return parsed


def _mapped(value, names):
    """value, a parsed report, with every string (and key) that names names' key replaced by its value."""
    if isinstance(value, list):
        return [_mapped(item, names) for item in value]
    if isinstance(value, dict):
        return {names.get(key, key): _mapped(item, names) for key, item in value.items()}
    return names.get(value, value) if isinstance(value, str) else value


@settings(SETTINGS, max_examples=60)
@given(_small_scenario() | st.just(Scenario.from_json(GOLDEN_SMALL)), st.booleans())
@example(Scenario.from_json(GOLDEN_SMALL), False)
def test_renaming_the_servers_in_id_order_renames_them_in_every_report(scenario, twins):
    # the reports depend on server ids only through their order: no tie-break, set order or
    # CSV field may read an id's text, length or hash.  Drawn usages seldom tie, so with twins
    # every server takes the first one's usage and threshold, and every placement score ties
    if twins:
        first = scenario.servers[0]
        scenario = replace(scenario, servers=[replace(server, usage=first.usage, threshold=first.threshold)
                                              for server in scenario.servers])
    renamed, names = _renamed(scenario)
    reports = _parsed_reports(scenario)
    assert set(reports) == set(REPORT_FILES)
    assert _parsed_reports(renamed) == _mapped(reports, names)


@settings(SETTINGS, max_examples=500)
@given(interval_us=st.integers(1, 30), lo_us=st.integers(1, 60), width=st.integers(0, 60))
@example(interval_us=10, lo_us=12, width=7)
@example(interval_us=1, lo_us=1, width=0)
@example(interval_us=7, lo_us=7, width=0)
@example(interval_us=30, lo_us=1, width=59)
def test_fin_slot_pairs_count_every_pair_exactly(interval_us, lo_us, width):
    assert fin_slot_pairs(interval_us, lo_us, lo_us + width) == fin_slot_oracle(interval_us, lo_us, lo_us + width)


def test_the_default_fin_slot_chances_are_0_045_and_055():
    pairs = fin_slot_pairs(10_000_000, 12_000_000, 19_000_000)
    assert [n / sum(pairs) for n in pairs] == [0.0, 0.45, 0.55]


def _roomy_scenario(events, duration, interval_us=10, delays_us=(12, 19), base_rate=100, seed=0):
    """A scenario JSON whose VMs all fit on its one server, with policy log and intervals in microseconds."""
    return {
        "servers": [{"id": "s1", "usage": {"cpu": 1, "mem": 1, "bw": 1},
                     "threshold": {"cpu": 1e9, "mem": 1e9, "bw": 1e9}}],
        "vm_classes": {"cpu-intensive": {"cpu": 3, "mem": 1, "bw": 1}},
        "events": events,
        "detector": {"drift": 0.08, "threshold": 1.43, "interval_seconds": interval_us / 1e6, "policy": "log"},
        "base_rate": base_rate,
        "fin_delay_range": [v / 1e6 for v in delays_us],
        "duration": duration,
        "seed": seed,
    }


@st.composite
def _roomy_scenarios(draw):
    """Random requests, shutdowns, revocations and attacks on one roomy server."""
    duration = draw(st.integers(1, 25))
    events, created, revoked = [], 0, set()
    for tick in range(duration):
        for op in draw(st.lists(st.sampled_from(["vm_request", "vm_request", "vm_shutdown", "vm_revoke",
                                                 "attack_start", "attack_start", "attack_stop"]), max_size=3)):
            if op == "vm_request":
                count = draw(st.integers(1, 4))
                events.append({"tick": tick, "op": op, "class": "cpu-intensive", "count": count})
                created += count
                continue
            vm = f"vm-{draw(st.integers(1, max(created, 1))):03d}"
            if not created or vm in revoked:
                continue
            events.append({"tick": tick, "op": op, "vm": vm})
            if op == "attack_start":
                # at an odd base_rate, 1.5 and 2.5 put the extra SYNs half way, to be rounded to even
                events[-1]["multiplier"] = draw(st.floats(1, 5) | st.sampled_from([1.5, 2.5, 3.0]))
            if op == "vm_revoke":
                revoked.add(vm)
    lo = draw(st.integers(1, 40))
    return _roomy_scenario(events, duration, interval_us=draw(st.integers(1, 20)),
                           delays_us=(lo, lo + draw(st.integers(0, 30))),
                           base_rate=draw(st.integers(0, 60) | st.sampled_from([1001, 2**40])),
                           seed=draw(st.integers(0, 2**16)))


@settings(SETTINGS, max_examples=150)
@given(_roomy_scenarios())
@example(_roomy_scenario([{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
                          {"tick": 3, "op": "attack_start", "vm": "vm-002", "multiplier": 3.0},
                          {"tick": 9, "op": "attack_stop", "vm": "vm-002"},
                          {"tick": 12, "op": "vm_shutdown", "vm": "vm-001"}], 20))
@example(_roomy_scenario([{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 1002},
                          {"tick": 1, "op": "attack_start", "vm": "vm-1001", "multiplier": 4.0},
                          {"tick": 2, "op": "vm_shutdown", "vm": "vm-100"}], 4, base_rate=20))
def test_detector_reports_equal_the_plain_python_restatement(scenario):
    report = run(Scenario.from_json(scenario))
    csv_text, alarms_text = detector_reports_oracle(scenario)
    assert _first_difference(stat_rows_to_csv(report.stat_rows), csv_text) is None
    assert _first_difference(json_text(report.alarms), alarms_text) is None


def _first_difference(got, want):
    """None if the texts are equal, else (line number, got's line, want's line) of the first difference."""
    for number, (line, expected) in enumerate(zip_longest(got.splitlines(), want.splitlines()), 1):
        if line != expected:
            return number, line, expected
    return None


SAMPLE = st.builds(ResourceVector, *[st.floats(0, 1e6) | st.sampled_from([0.0, 1e-300, 0.1, 1e15])] * 3)


@SETTINGS
@given(st.lists(SAMPLE, min_size=1, max_size=40))
def test_restart_estimate_is_the_mean_of_the_samples_bit_for_bit(samples):
    record = VmRecord.from_samples("v", "cpu-intensive", samples)
    estimate = estimate_demand_restart(record, {}, {})
    assert [c.hex() for c in estimate] == [c.hex() for c in mean_usage(samples)]


JSON_KEY = st.text(max_size=4) | st.integers(-3, 3) | st.floats() | st.booleans() | st.none()
JSON_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200) | st.floats()
               | st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\n\u2028'),
                         max_size=8))
JSON_DOC = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(JSON_KEY, inner, max_size=3),
    max_leaves=20,
)


def _text_or_error(fn, doc):
    try:
        return fn(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(SETTINGS, max_examples=500)
@given(JSON_DOC)
@example({"b": [1, {"c": None}], "a": {}, "d": [[]], "e": {"x": float("nan"), "y": -float("inf")}})
@example({1: [1], "a": 2})
@example({1: [1], 2: {}})
@example({1.5: 1, True: 2, None: 3})
def test_json_text_equals_indented_json_dumps(doc):
    expected = _text_or_error(lambda d: json.dumps(d, indent=2, sort_keys=True) + "\n", doc)
    assert _text_or_error(json_text, doc) == expected


SAATY_SCALE = [1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2, 1, 2, 3, 4, 5, 6, 7, 8, 9]
PROFILE_PART = st.just(0.0) | st.floats(1e-6, 1e6)
PROFILE_MATRICES = st.tuples(PROFILE_PART, PROFILE_PART, PROFILE_PART).map(
    lambda u: ahp.matrix_from_profile(ResourceVector(*u)))


@st.composite
def _saaty_matrices(draw):
    """A reciprocal matrix of judgments on Saaty's 1-9 scale."""
    ab, ac, bc = (draw(st.sampled_from(SAATY_SCALE)) for _ in range(3))
    return [[1, ab, ac], [1 / ab, 1, bc], [1 / ac, 1 / bc, 1]]


@settings(SETTINGS, max_examples=300)
@given(PROFILE_MATRICES | _saaty_matrices())
@example(ahp.matrix_from_profile(ResourceVector(0.0, 0.0, 0.0)))
@example(ahp.matrix_from_profile(ResourceVector(0.0, 5.0, 0.0)))
@example(CYCLIC)
def test_principal_eigenvector_equals_the_numpy_power_iteration(m):
    weights, lambda_max, iterations = power_iteration_oracle(m)
    w, lam = ahp.principal_eigenvector(m)
    assert np.max(np.abs(np.array(w.as_tuple()) - weights)) <= 1e-12
    assert abs(lam - lambda_max) <= 1e-9
    assert ahp.principal_eigenvector(m, max_iter=iterations) == (w, lam)
    if iterations > 1:  # one iteration short, both stop with the same iterate
        last, _, _ = power_iteration_oracle(m, max_iter=iterations - 1)
        with pytest.raises(NonConvergence) as exc:
            ahp.principal_eigenvector(m, max_iter=iterations - 1)
        assert exc.value.iterations == iterations - 1
        assert np.max(np.abs(exc.value.last_iterate - last)) <= 1e-12
