import csv
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import cusum_oracle, exact_usage_oracle, stat_rows_to_csv_oracle, utilization_csv_oracle
from vmshield import scheduler as sched
from vmshield.errors import ParseError, ValidationError
from vmshield.resources import CSV_CHUNK_ROWS, ResourceVector
from vmshield.scheduler import ServerState, VmRecord, mean_usage
from vmshield.simulator import (
    REPORT_FILES,
    DetectorConfig,
    Scenario,
    ScenarioEvent,
    _Sim,
    _Vms,
    emit_reports,
    load_scenario,
    run,
)


def _scn(**over):
    base = {
        "servers": [
            {"id": "s1", "threshold": {"cpu": 300, "mem": 300, "bw": 300},
             "usage": {"cpu": 5, "mem": 5, "bw": 5}},
            {"id": "s2", "threshold": {"cpu": 300, "mem": 300, "bw": 300},
             "usage": {"cpu": 4, "mem": 4, "bw": 4}},
        ],
        "vm_classes": {"cpu-intensive": {"cpu": 30, "mem": 5, "bw": 5}},
        "events": [{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2}],
        "duration": 5,
        "seed": 9,
    }
    base.update(over)
    return base


def _check_conservation(scenario, report):
    """Active server usage must equal its configured overhead plus the
    observed usage of exactly the VMs it hosts, every tick."""
    overhead = {s.id: s.usage for s in scenario.servers}
    by_tick = {}
    for t, vm, obs, host in report.vm_samples:
        by_tick.setdefault(t, []).append((vm, obs, host))
    for t_row, sid, cpu, mem, bw, power, nv in report.utilization:
        if t_row == 0:
            continue
        samples = by_tick.get(t_row - 1, [])
        if power == "asleep":
            assert (cpu, mem, bw) == (0.0, 0.0, 0.0)
            assert nv == 0
            continue
        exp = overhead[sid]
        hosted = sorted((vm, obs) for vm, obs, host in samples if host == sid)
        for _, obs in hosted:
            exp = exp + obs
        assert cpu == pytest.approx(exp.cpu, abs=1e-9)
        assert mem == pytest.approx(exp.mem, abs=1e-9)
        assert bw == pytest.approx(exp.bw, abs=1e-9)
        assert nv == len(hosted)
    # a VM counted by two servers at once would break this tally
    for t in by_tick:
        placed = [vm for vm, _, host in by_tick[t] if host is not None]
        assert len(placed) == len(set(placed))
        total_nv = sum(r[6] for r in report.utilization if r[0] == t + 1)
        assert total_nv == len(placed)


# ---------------------------------------------------------------- parsing


def test_minimal_scenario_parses():
    scn = Scenario.from_json(_scn())
    assert scn.duration == 5
    assert [s.id for s in scn.servers] == ["s1", "s2"]
    assert scn.events[0].vm_class == "cpu-intensive"
    assert scn.detector == DetectorConfig()


def test_scenario_rejects_unknown_fields():
    with pytest.raises(ParseError, match=r"^scenario: unknown keys \['extra'\]"):
        Scenario.from_json(_scn(extra=1))


def test_scenario_rejects_bad_values():
    with pytest.raises(ValidationError, match="duplicate server id"):
        Scenario.from_json(_scn(servers=[{"id": "s1"}, {"id": "s1"}]))
    with pytest.raises(ValidationError, match="outside"):
        Scenario.from_json(_scn(events=[{"tick": 5, "op": "vm_request", "class": "cpu-intensive"}]))
    with pytest.raises(ValidationError, match="count"):
        Scenario.from_json(_scn(events=[{"tick": 0, "op": "vm_request",
                                         "class": "cpu-intensive", "count": 0}]))
    with pytest.raises(ValidationError):
        Scenario.from_json(_scn(duration=-1, events=[]))
    with pytest.raises(ValidationError):
        Scenario.from_json(_scn(seed=-1))
    with pytest.raises(ParseError, match="op must be one of"):
        Scenario.from_json(_scn(events=[{"tick": 0, "op": "vm_explode", "vm": "vm-001"}]))
    with pytest.raises(ParseError):
        Scenario.from_json(_scn(events=[{"tick": 0, "op": "vm_request"}]))  # class missing
    with pytest.raises(ValidationError, match="server s1: power must be 'active' or 'asleep', got 'off'"):
        Scenario.from_json(_scn(servers=[{"id": "s1", "power": "off"}]))
    with pytest.raises(ValidationError):
        Scenario.from_json(_scn(fin_delay_range=[0, 5]))
    with pytest.raises(ParseError, match="unknown hotspot class"):
        Scenario.from_json(_scn(vm_classes={"webby": {"cpu": 1, "mem": 1, "bw": 1}}))


def test_a_class_given_twice_through_its_alias_is_rejected():
    classes = {"mem-intensive": {"cpu": 1, "mem": 9, "bw": 1}, "memory-intensive": {"cpu": 1, "mem": 8, "bw": 1}}
    with pytest.raises(ParseError, match=r"^vm_classes\.memory-intensive: class 'memory-intensive' is given twice$"):
        Scenario.from_json(_scn(vm_classes=classes))


def test_wake_on_reject_must_be_a_json_bool():
    assert Scenario.from_json(_scn(wake_on_reject=False)).wake_on_reject is False
    assert Scenario.from_json(_scn()).wake_on_reject is True
    for bad in ("false", 0, 1, None):
        with pytest.raises(ParseError, match="wake_on_reject"):
            Scenario.from_json(_scn(wake_on_reject=bad))


def test_scenario_event_reference_checks():
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
        {"tick": 1, "op": "attack_start", "vm": "vm-002", "multiplier": 2.0},
    ]
    scn = Scenario.from_json(_scn(events=events))
    assert scn.events[1].multiplier == 2.0

    bad = events[:1] + [{"tick": 1, "op": "vm_shutdown", "vm": "vm-007"}]
    with pytest.raises(ValidationError, match="unknown vm"):
        Scenario.from_json(_scn(events=bad))

    bad = events[:1] + [
        {"tick": 1, "op": "vm_revoke", "vm": "vm-001"},
        {"tick": 2, "op": "vm_shutdown", "vm": "vm-001"},
    ]
    with pytest.raises(ValidationError, match="revoked"):
        Scenario.from_json(_scn(events=bad))

    bad = events[:1] + [{"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 0.5}]
    with pytest.raises(ValidationError, match="multiplier"):
        Scenario.from_json(_scn(events=bad))


_REQUEST = {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2}


@pytest.mark.parametrize("events, named", [
    ([_REQUEST, {"tick": 9, "op": "vm_shutdown", "vm": "vm-001"}], r"events\[1\]: event tick 9 outside \[0, 5\)"),
    ([_REQUEST, {"tick": 1, "op": "vm_request", "class": "memory-intensive"}],
     r"events\[1\]: vm_request class 'memory-intensive' has no entry"),
    ([_REQUEST, {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 1e300}],
     r"events\[1\]: attack multiplier"),
    # the walk in tick order meets events[2] before events[0]
    ([{"tick": 3, "op": "vm_shutdown", "vm": "vm-002"}, _REQUEST, {"tick": 1, "op": "vm_shutdown", "vm": "vm-007"}],
     r"events\[2\]: event at tick 1 references unknown vm 'vm-007'"),
    ([{"tick": 3, "op": "vm_shutdown", "vm": "vm-001"}, _REQUEST, {"tick": 2, "op": "vm_revoke", "vm": "vm-001"}],
     r"events\[0\]: event at tick 3 references revoked vm 'vm-001'"),
], ids=["tick-range", "unknown-class", "attack-multiplier", "unknown-vm", "revoked-vm"])
def test_errors_across_events_name_the_event_by_its_place_in_the_list(events, named):
    with pytest.raises(ValidationError, match=f"^{named}"):
        Scenario.from_json(_scn(events=events))


def test_detector_config_validation():
    with pytest.raises(ValidationError, match="policy"):
        DetectorConfig.from_json({"policy": "reboot"})
    with pytest.raises(ValidationError, match="exceed drift"):
        DetectorConfig.from_json({"drift": 0.5, "threshold": 0.2})
    with pytest.raises(ValidationError):
        DetectorConfig.from_json({"throttle_factor": 1.5})
    with pytest.raises(ParseError):
        DetectorConfig.from_json({"drift": "fast"})
    with pytest.raises(ParseError, match="detector.drift must be a JSON number"):
        DetectorConfig.from_json({"drift": "0.1"})
    cfg = DetectorConfig.from_json({"drift": 0.1, "threshold": 2})
    assert cfg.drift == 0.1 and cfg.threshold == 2.0


@pytest.mark.parametrize("field", ["drift", "threshold", "interval_seconds", "throttle_factor"])
def test_detector_config_rejects_non_finite_values(field):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match=f"detector {field} must be finite"):
            DetectorConfig.from_json({field: value})
        with pytest.raises(ValidationError, match=f"detector {field} must be finite"):
            Scenario.from_json(json.loads(json.dumps(_scn(detector={field: value}))))


def test_detector_config_must_be_an_object():
    with pytest.raises(ParseError, match="detector must be a JSON object"):
        Scenario.from_json(_scn(detector=[]))


def _py_scn(*events, **over):
    """A scenario built in Python: one server, one class, one VM requested at tick 0, then events."""
    fields = {"servers": [ServerState("a")], "vm_classes": {"cpu-intensive": ResourceVector(30, 5, 5)},
              "events": [ScenarioEvent(0, "vm_request", "cpu-intensive"), *events], "duration": 3}
    return Scenario(**{**fields, **over})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, named", [
    (lambda: _py_scn(detector=DetectorConfig(policy="bogus")), "detector policy"),
    (lambda: _py_scn(detector=DetectorConfig(throttle_factor=5.0)), "detector throttle_factor"),
    (lambda: _py_scn(detector=DetectorConfig(throttle_factor=NAN)), "detector throttle_factor"),
    (lambda: _py_scn(servers=[ServerState("a", vms={"vm-009"})]), r"servers\[0\].vms"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_reboot", vm="vm-001")), "event op"),
    (lambda: _py_scn(ScenarioEvent(1, "attack_stop", vm="vm-001", multiplier=7.0)), "no multiplier"),
    (lambda: _py_scn(ScenarioEvent(1, "attack_start", vm="vm-001", multiplier=NAN)), "multiplier must"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_shutdown")), "needs a vm"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_request", "cpu-intensive", vm="vm-001")), "takes no vm"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_request")), "needs a class"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_revoke", "cpu-intensive", vm="vm-001")), "takes no class"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_shutdown", count=3, vm="vm-001")), "takes no count"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_request", "cpu-intensive", count=0)), "count must be finite and >= 1"),
    (lambda: _py_scn(servers=[ServerState("a", threshold=ResourceVector(80, NAN, 80))]), "threshold"),
    (lambda: _py_scn(servers=[ServerState("a", threshold=ResourceVector(80, 80, INF))]), "threshold"),
    (lambda: _py_scn(servers=[ServerState("a", usage=ResourceVector(NAN, 0, 0))]), "usage"),
    (lambda: _py_scn(servers=[ServerState("a", usage=ResourceVector(0, -1, 0))]), "usage"),
    (lambda: _py_scn(servers=[ServerState("a", power="on")]), "^server a: power must be 'active' or 'asleep'"),
    (lambda: _py_scn(vm_classes={"cpu-intensive": ResourceVector(NAN, 5, 5)}), "vm_classes.cpu-intensive components"),
    (lambda: _py_scn(vm_classes={"cpu-intensive": ResourceVector(30, -5, 5)}), "vm_classes.cpu-intensive components"),
    (lambda: _py_scn(low_watermark=ResourceVector(20, 20, INF)), "low_watermark components"),
    # these used to build, then end in a bare TypeError, numpy's reshape or broadcast error, or run
    (lambda: _py_scn(vm_classes={"cpu-intensive": ("x", 1, 1)}),
     r"^vm_classes.cpu-intensive must be three numbers, got \('x', 1, 1\)$"),
    (lambda: _py_scn(vm_classes={"cpu-intensive": (1, 1)}), r"^vm_classes.cpu-intensive must be three numbers"),
    (lambda: _py_scn(low_watermark=(1, 2)), r"^low_watermark must be three numbers, got \(1, 2\)$"),
    (lambda: _py_scn(low_watermark=ResourceVector(True, 0, 0)),
     r"^low_watermark must be three numbers, got ResourceVector\(cpu=True, mem=0, bw=0\)$"),
    (lambda: replace(_py_scn(), seed=-1), "seed"),
    (lambda: _py_scn(vm_classes={"webby": ResourceVector(3, 3, 3)},
                     events=[ScenarioEvent(0, "vm_request", "webby")]), "unknown hotspot class 'webby'"),
    # the file reader maps the alias; a Python-built scenario names the class itself
    (lambda: _py_scn(vm_classes={"mem-intensive": ResourceVector(3, 3, 3)},
                     events=[ScenarioEvent(0, "vm_request", "mem-intensive")]),
     "unknown hotspot class 'mem-intensive'"),
    (lambda: _py_scn(ScenarioEvent(0.5, "vm_request", "cpu-intensive")), "vm_request tick must be an integer"),
    (lambda: _py_scn(ScenarioEvent(1, "vm_request", "cpu-intensive", count=2.5)),
     "vm_request count must be an integer"),
    (lambda: _py_scn(duration=2.5), "duration must be an integer"),
    (lambda: _py_scn(seed=1.5), "seed must be an integer"),
    (lambda: _py_scn(base_rate=2.5), "base_rate must be an integer"),
    (lambda: _py_scn(base_rate=True), "base_rate must be an integer"),
    (lambda: _py_scn(fin_delay_range=("12", 19)), r"^fin_delay_range must be a \(low, high\) pair of numbers"),
], ids=["policy", "throttle-5", "throttle-nan", "server-vms", "op", "attack_stop-multiplier",
        "attack_start-multiplier-nan", "shutdown-no-vm", "request-vm", "request-no-class", "revoke-class",
        "shutdown-count", "request-count-0", "threshold-nan", "threshold-inf", "usage-nan", "usage-negative",
        "power-on", "class-nan", "class-negative", "watermark-inf", "class-string", "class-two", "watermark-two",
        "watermark-bool", "seed-replace", "class-unknown", "class-alias",
        "tick-float", "count-float", "duration-float", "seed-float", "base_rate-float", "base_rate-bool",
        "delay-string"])
def test_a_scenario_built_in_python_is_checked_as_its_file_would_be(build, named):
    _py_scn()  # the base scenario is valid
    with pytest.raises(ValidationError, match=named):
        build()


@pytest.mark.parametrize("field, value, named", [
    ("wake_on_reject", "no", r"^wake_on_reject must be a bool, got 'no'$"),
    ("wake_on_reject", 1, r"^wake_on_reject must be a bool, got 1$"),
    ("detector", None, r"^detector must be a DetectorConfig, got None$"),
    ("detector", {"drift": 0.1}, r"^detector must be a DetectorConfig, got \{'drift': 0.1\}$"),
])
def test_wake_on_reject_and_detector_are_checked_in_python(field, value, named):
    # a truthy string used to wake servers on a rejection, and None to end the run in AttributeError
    with pytest.raises(ValidationError, match=named):
        _py_scn(**{field: value})
    with pytest.raises(ValidationError, match=named):
        replace(_py_scn(), **{field: value})


def test_class_vectors_and_a_watermark_built_in_python_run_as_resource_vectors(tmp_path):
    # the run reads each class vector once; a tuple used to end in AttributeError
    def scenario(vector):
        return Scenario(servers=[ServerState(sid, threshold=ResourceVector(90, 90, 90)) for sid in "abc"],
                        vm_classes={"cpu-intensive": vector(30.0, 5, 5), "memory-intensive": vector(4, 20.5, 2)},
                        events=[ScenarioEvent(0, "vm_request", "cpu-intensive", count=2),
                                ScenarioEvent(0, "vm_request", "memory-intensive", count=3),
                                ScenarioEvent(3, "vm_shutdown", vm="vm-002")],
                        low_watermark=vector(40, 40, 40), duration=6, seed=3)

    texts = {}
    for name, vector in [("resource-vector", ResourceVector), ("tuple", lambda *c: c), ("list", lambda *c: list(c)),
                         ("array", lambda *c: np.array(c))]:
        report = run(scenario(vector))
        assert report.summary["counters"]["sleeps"] > 0  # consolidation read the watermark and the classes
        texts[name] = [Path(path).read_bytes() for path in emit_reports(report, str(tmp_path / name))]
    assert texts["tuple"] == texts["list"] == texts["array"] == texts["resource-vector"]
    # an int component writes as the float a file reads it as
    assert json.loads(texts["tuple"][1])[0]["demand"] == {"cpu": 30.0, "mem": 5.0, "bw": 5.0}
    assert b'"cpu": 30.0' in texts["tuple"][1]


@pytest.mark.parametrize("fields, named", [
    ({"duration": 5.9}, "duration must be a JSON integer"),
    ({"duration": True}, "duration must be a JSON integer"),
    ({"seed": "9"}, "seed must be a JSON integer"),
    ({"base_rate": "100"}, "base_rate must be a JSON integer"),
    ({"base_rate": 100.0}, "base_rate must be a JSON integer"),
    ({"events": [{"tick": 0.5, "op": "vm_request", "class": "cpu-intensive"}]},
     "events[0].tick must be a JSON integer"),
    ({"events": [{"tick": False, "op": "vm_request", "class": "cpu-intensive"}]},
     "events[0].tick must be a JSON integer"),
    ({"events": [{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": "2"}]},
     "events[0].count must be a JSON integer"),
    ({"events": [{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2.0}]},
     "events[0].count must be a JSON integer"),
    ({"events": [{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
                 {"tick": 1, "op": "vm_shutdown", "vm": 1}]},
     "events[1].vm must be a JSON string"),
    ({"low_watermark": {"cpu": 20, "mem": 20, "bw": 20, "gpu": 9}},
     "low_watermark: resource vector: unknown keys ['gpu']"),
    ({"low_watermark": [20, 20, 20]}, "low_watermark: resource vector must be a JSON object"),
    ({"vm_classes": {"cpu-intensive": {"cpu": 30, "mem": 5, "bw": 5, "gpu": 1}}},
     "vm_classes.cpu-intensive: resource vector: unknown keys ['gpu']"),
    ({"low_watermark": {"cpu": "20", "mem": "20", "bw": "20"}},
     "low_watermark: cpu must be a JSON number, got '20'"),
    ({"low_watermark": {"cpu": 20, "mem": 10**400, "bw": 20}},
     "low_watermark: mem is too large for a float"),
    ({"detector": {"drift": "0.1"}}, "detector.drift must be a JSON number, got '0.1'"),
    ({"detector": {"throttle_factor": True}}, "detector.throttle_factor must be a JSON number"),
    ({"events": [{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
                 {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": "3"}]},
     "events[1].multiplier must be a JSON number, got '3'"),
    ({"fin_delay_range": ["12", 19]}, "fin_delay_range[0] must be a JSON number"),
    ({"fin_delay_range": [12, True]}, "fin_delay_range[1] must be a JSON number"),
])
def test_scenario_rejects_values_it_used_to_coerce(fields, named):
    with pytest.raises(ParseError) as info:
        Scenario.from_json(_scn(**fields))
    assert named in str(info.value)


def test_attack_multiplier_and_fin_delays_must_be_finite():
    request = {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2}
    for multiplier in (float("nan"), float("inf")):
        attack = {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": multiplier}
        with pytest.raises(ValidationError, match="multiplier must be finite"):
            Scenario.from_json(_scn(events=[request, attack]))
    for delays in ([12, float("inf")], [float("nan"), 19]):
        with pytest.raises(ValidationError, match="fin_delay_range"):
            Scenario.from_json(_scn(fin_delay_range=delays))


def test_load_scenario_names_the_file_on_scenario_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_scn(servers=5)))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: servers must be a JSON array$"):
        load_scenario(str(path))
    path.write_text(json.dumps(_scn(servers=[{"id": "s1"}, {"id": "s1"}])))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: duplicate server id"):
        load_scenario(str(path))


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "servers": [}\n}\n')
    with pytest.raises(ParseError, match="line 2"):
        load_scenario(str(path))
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(_scn()))
    assert load_scenario(str(good)).seed == 9


# ---------------------------------------------------------------- running


def test_zero_duration_emits_snapshot_only():
    report = run(Scenario.from_json(_scn(duration=0, events=[])))
    assert [(r[0], r[1]) for r in report.utilization] == [(0, "s1"), (0, "s2")]
    assert report.utilization[0][2:] == (5.0, 5.0, 5.0, "active", 0)
    assert report.placements == []
    assert list(report.stat_rows) == []
    assert report.alarms == []
    assert all(v == 0 for v in report.summary["counters"].values())


def test_basic_run_places_and_logs():
    scn = Scenario.from_json(_scn())
    report = run(scn)
    assert [p["vm"] for p in report.placements] == ["vm-001", "vm-002"]
    assert all(p["chosen"] in ("s1", "s2") for p in report.placements)
    assert report.summary["counters"]["placements"] == 2
    assert report.summary["counters"]["rejections"] == 0
    # one utilization row per server per tick, plus the initial snapshot
    assert len(report.utilization) == 2 * (scn.duration + 1)
    # both VMs emit a detector row every tick
    assert len(report.stat_rows) == 2 * scn.duration
    _check_conservation(scn, report)


def test_per_vm_traffic_rate_matches_base_rate():
    scn = Scenario.from_json(_scn(base_rate=40))
    report = run(scn)
    assert all(r.syn == 40 for r in report.stat_rows)


def test_reports_are_json_serializable():
    report = run(Scenario.from_json(_scn()))
    json.dumps(report.placements)
    json.dumps(report.migrations)
    json.dumps(report.alarms)
    json.dumps(report.summary)


def test_determinism_and_seed_sensitivity(tmp_path):
    spec = _scn(duration=8)
    a = emit_reports(run(Scenario.from_json(spec)), str(tmp_path / "a"))
    b = emit_reports(run(Scenario.from_json(spec)), str(tmp_path / "b"))
    for pa, pb in zip(a, b):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()
    c = emit_reports(run(Scenario.from_json(_scn(duration=8, seed=10))), str(tmp_path / "c"))
    assert Path(a[0]).read_bytes() != Path(c[0]).read_bytes()


def test_utilization_csv_reads_back_server_ids_with_commas_quotes_and_carriage_returns(tmp_path):
    ids = ["p,1", 'p"2\r']
    scenario = Scenario.from_json(_scn(servers=[{"id": sid} for sid in ids]))
    emit_reports(run(scenario), str(tmp_path))
    with open(tmp_path / "utilization.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {7}
    assert [row[1] for row in rows[1:]] == sorted(ids) * (scenario.duration + 1)


def test_detector_csv_across_chunks_equals_the_row_oracle(tmp_path):
    # 60 VMs for 101 ticks, one flooding under throttle: 6,060 rows, so the byte
    # kernel writes detector.csv in more than one chunk
    servers = [{"id": f"s{i}", "threshold": {"cpu": 300, "mem": 300, "bw": 300}} for i in range(8)]
    events = [{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 60},
              {"tick": 10, "op": "attack_start", "vm": "vm-007", "multiplier": 4.0}]
    report = run(Scenario.from_json(_scn(servers=servers, events=events, duration=101, base_rate=20,
                                         detector={"policy": "throttle"})))
    assert len(report.stat_rows) == 6060 > CSV_CHUNK_ROWS
    assert {(a["vm"], a["action"]) for a in report.alarms} >= {("vm-007", "throttle")}
    emit_reports(report, str(tmp_path))
    assert (tmp_path / "detector.csv").read_bytes() == stat_rows_to_csv_oracle(list(report.stat_rows)).encode()


def test_utilization_csv_across_chunks_equals_the_row_oracle(tmp_path):
    # the demo's three servers for 1,000 ticks, one of them asleep for most: 3,003 rows,
    # so utilization.csv is written in two chunks
    report = run(load_scenario(str(DEMO)))
    rows = list(report.utilization)
    assert len(rows) == len(report.utilization) > CSV_CHUNK_ROWS
    assert {row[5] for row in rows} == {"active", "asleep"}
    emit_reports(report, str(tmp_path))
    assert (tmp_path / "utilization.csv").read_bytes() == utilization_csv_oracle(rows).encode()


def test_utilization_rows_read_and_set_by_index_as_a_list_would():
    report = run(Scenario.from_json(_scn(duration=3)))
    log, rows = report.utilization, list(report.utilization)
    assert [log[i] for i in range(-len(rows), len(rows))] == rows + rows
    log[3] = rows[3][:2] + (1.5, -0.0, 1e9, "asleep", 7)
    log[-1] = rows[-1][:6] + (4,)
    assert list(log) == rows[:3] + [rows[3][:2] + (1.5, -0.0, 1e9, "asleep", 7)] + rows[4:-1] + [rows[-1][:6] + (4,)]
    for bad in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            log[bad]
    with pytest.raises(ValueError, match="not"):
        log[0] = (9,) + rows[0][1:]


def test_emit_reports_writes_all_files_and_is_rerunnable(tmp_path):
    report = run(Scenario.from_json(_scn(duration=0, events=[])))
    outdir = tmp_path / "out"
    paths = emit_reports(report, str(outdir))
    assert [p.rsplit("/", 1)[1] for p in paths] == list(REPORT_FILES)
    first = {p: Path(p).read_bytes() for p in paths}
    emit_reports(report, str(outdir))
    for p, blob in first.items():
        assert Path(p).read_bytes() == blob
    util = first[paths[0]].decode()
    assert util.splitlines()[0] == "tick,server,cpu,mem,bw,power,vms"
    assert len(util.splitlines()) == 3


# ------------------------------------------------------------- lifecycle


def test_shutdown_frees_host_and_stops_traffic():
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 2, "op": "vm_shutdown", "vm": "vm-001"},
    ]
    scn = Scenario.from_json(_scn(events=events, duration=6))
    report = run(scn)
    assert [r.interval_index for r in report.stat_rows] == [0, 1]
    final = report.summary["final"]["vms"]["vm-001"]
    assert final == {"class": "cpu-intensive", "state": "stopped", "host": None}
    assert report.summary["counters"]["shutdowns"] == 1
    # the host row drops back to pure overhead after the shutdown tick
    last = [r for r in report.utilization if r[0] == 6]
    assert all(r[6] == 0 for r in last)
    _check_conservation(scn, report)


def test_revoke_removes_record():
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 1, "op": "vm_revoke", "vm": "vm-001"},
    ]
    report = run(Scenario.from_json(_scn(events=events, duration=3)))
    assert report.summary["counters"]["revocations"] == 1
    assert report.summary["final"]["vms"]["vm-001"]["state"] == "revoked"
    # revoked VMs emit no further samples
    assert all(t == 0 for t, *_ in report.vm_samples)


def test_events_against_missing_vms_are_ignored():
    # construct directly: from_json would reject the dangling reference
    scn = Scenario.from_json(_scn(duration=2, events=[]))
    scn.events = [ScenarioEvent(tick=0, op="vm_shutdown", vm="vm-404"),
                  ScenarioEvent(tick=1, op="attack_start", vm="vm-404", multiplier=2.0)]
    report = run(scn)
    assert report.summary["counters"]["ignored_events"] == 2
    assert report.summary["counters"]["shutdowns"] == 0


def test_a_second_shutdown_of_a_stopped_vm_is_ignored():
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 1, "op": "vm_shutdown", "vm": "vm-001"},
        {"tick": 2, "op": "vm_shutdown", "vm": "vm-001"},
    ]
    report = run(Scenario.from_json(_scn(events=events, duration=4)))
    counters = report.summary["counters"]
    assert counters["shutdowns"] == 1
    assert counters["ignored_events"] == 1
    assert report.summary["final"]["vms"]["vm-001"]["state"] == "stopped"


def test_events_naming_a_rejected_vm_are_ignored():
    # vm-001 is a valid reference (it was requested) but no server takes it
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 2.0},
        {"tick": 1, "op": "attack_stop", "vm": "vm-001"},
        {"tick": 2, "op": "vm_shutdown", "vm": "vm-001"},
        {"tick": 3, "op": "vm_revoke", "vm": "vm-001"},
    ]
    servers = [{"id": "s1", "threshold": {"cpu": 10, "mem": 10, "bw": 10},
                "usage": {"cpu": 5, "mem": 5, "bw": 5}}]
    report = run(Scenario.from_json(_scn(servers=servers, events=events, duration=4)))
    counters = report.summary["counters"]
    assert counters["rejections"] == 1
    assert counters["ignored_events"] == 4
    assert counters["shutdowns"] == counters["revocations"] == 0
    assert report.summary["final"]["vms"] == {}


# ------------------------------------------------------- flood responses


def _attack_scenario(policy, **detector_over):
    detector = {"policy": policy}
    detector.update(detector_over)
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 3.0},
    ]
    return Scenario.from_json(
        _scn(events=events, duration=12, seed=5, detector=detector)
    )


def test_suspend_policy_detaches_vm_and_zeroes_traffic():
    scn = _attack_scenario("suspend")
    report = run(scn)
    assert len(report.alarms) == 1
    alarm = report.alarms[0]
    assert alarm["vm"] == "vm-001"
    assert alarm["action"] == "suspend"
    assert alarm["detail"] == "detached from network"
    assert alarm["tick"] <= 3
    after = [r for r in report.stat_rows if r.interval_index > alarm["tick"]]
    assert after, "suspension must not end the detector series"
    assert all(r.syn == 0 and r.finrst == 0 for r in after)
    # score decays once the VM goes quiet
    ys = [r.y for r in after]
    assert all(a >= b for a, b in zip(ys, ys[1:]))
    assert all(host is None for t, vm, _, host in report.vm_samples if t > alarm["tick"])
    assert report.summary["final"]["vms"]["vm-001"] == {
        "class": "cpu-intensive", "state": "suspended", "host": None,
    }
    assert report.summary["counters"]["suspensions"] == 1
    flagged = [r.interval_index for r in report.stat_rows if r.alarm]
    assert flagged == [alarm["tick"]]
    _check_conservation(scn, report)


def test_a_suspended_vm_can_be_revoked():
    scn = _attack_scenario("suspend")
    scn.events.append(ScenarioEvent(tick=8, op="vm_revoke", vm="vm-001"))
    scn.validate()
    sim = _Sim(scn)
    report = sim.run()
    assert report.alarms[0]["tick"] < 8
    assert report.summary["counters"]["suspensions"] == 1
    assert report.summary["counters"]["revocations"] == 1
    assert report.summary["final"]["vms"]["vm-001"] == {
        "class": "cpu-intensive", "state": "revoked", "host": None,
    }
    assert "vm-001" not in _Vms(sim)
    assert not sim.cols["fin_due"][sim.row["vm-001"]].any()
    _check_conservation(scn, report)


def _lifecycle_scenario():
    """Under the log policy: an attack, a shutdown, a revocation and a request no server can take."""
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 3},
        {"tick": 0, "op": "vm_request", "class": "memory-intensive", "count": 2},
        {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 3.0},
        {"tick": 1, "op": "vm_request", "class": "bandwidth-intensive"},
        {"tick": 2, "op": "vm_shutdown", "vm": "vm-002"},
        {"tick": 3, "op": "vm_revoke", "vm": "vm-004"},
        {"tick": 4, "op": "vm_request", "class": "memory-intensive"},
    ]
    vm_classes = {"cpu-intensive": {"cpu": 30, "mem": 5, "bw": 5}, "memory-intensive": {"cpu": 5, "mem": 30, "bw": 5},
                  "bandwidth-intensive": {"cpu": 5, "mem": 5, "bw": 400}}
    return Scenario.from_json(_scn(events=events, vm_classes=vm_classes, duration=7, detector={"policy": "log"}))


@pytest.mark.parametrize("make, states, rejections", [
    (_lifecycle_scenario, {"running", "stopped", "revoked"}, 1),
    (lambda: _attack_scenario("suspend"), {"suspended"}, 0),
], ids=["lifecycle", "suspend"])
def test_the_scheduler_view_reads_the_runs_own_samples(make, states, rejections):
    sim = _Sim(make())
    report = sim.run()
    vms = _Vms(sim)
    final = report.summary["final"]["vms"]
    assert {vm["state"] for vm in final.values()} == states
    assert report.summary["counters"]["rejections"] == rejections
    placed = [p["vm"] for p in report.placements if p["chosen"] is not None]
    live = [vm for vm in placed if final[vm]["state"] != "revoked"]
    assert (list(vms), len(vms)) == (live, len(live))
    suspended_at = {a["vm"]: a["tick"] for a in report.alarms if a["action"] == "suspend"}
    history = {}
    for tick, vm, observed, host in report.vm_samples:
        history.setdefault(vm, []).append((tick, observed, host))
    for vm in live:
        # a VM is sampled in phase 2 of each tick it runs: those it ends with a host,
        # and the tick whose phase 3 suspends it
        ran = [obs for tick, obs, host in history[vm] if host is not None or tick == suspended_at.get(vm)]
        assert vms[vm] == VmRecord.from_samples(vm, final[vm]["class"], ran, observed=history[vm][-1][1])
    gone = [p["vm"] for p in report.placements if p["vm"] not in live] + ["vm-404"]
    for vm in gone:
        assert vm not in vms
        with pytest.raises(KeyError):
            vms[vm]


def test_throttle_policy_scales_traffic_down():
    report = run(_attack_scenario("throttle", throttle_factor=0.4))
    assert len(report.alarms) == 1
    alarm_tick = report.alarms[0]["tick"]
    assert report.alarms[0]["action"] == "throttle"
    assert report.alarms[0]["detail"] == "traffic scaled to 0.4"
    after = [r for r in report.stat_rows if r.interval_index > alarm_tick]
    # paired 100 x 0.4 plus attack extras 100 x (3 - 1) x 0.4
    assert all(r.syn == 120 for r in after)
    assert report.summary["final"]["vms"]["vm-001"]["state"] == "running"
    assert report.summary["final"]["vms"]["vm-001"]["host"] is not None
    assert report.summary["counters"]["suspensions"] == 0


def test_log_policy_and_attack_stop():
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 3.0},
        {"tick": 6, "op": "attack_stop", "vm": "vm-001"},
    ]
    scn = Scenario.from_json(_scn(events=events, duration=12, seed=5,
                                  detector={"policy": "log"}))
    report = run(scn)
    assert len(report.alarms) == 1
    assert report.alarms[0]["action"] == "log"
    assert report.alarms[0]["detail"] == "recorded"
    during = [r.syn for r in report.stat_rows if 1 <= r.interval_index < 6]
    assert all(s == 300 for s in during)
    after = [r.syn for r in report.stat_rows if r.interval_index >= 6]
    assert all(s == 100 for s in after)
    assert report.summary["final"]["vms"]["vm-001"]["state"] == "running"


# --------------------------------------------------- placement decisions


def test_rejection_wakes_a_sleeping_server():
    spec = _scn(
        servers=[
            {"id": "s1", "threshold": {"cpu": 10, "mem": 10, "bw": 10},
             "usage": {"cpu": 5, "mem": 5, "bw": 5}},
            {"id": "s2", "threshold": {"cpu": 80, "mem": 80, "bw": 80},
             "usage": {"cpu": 2, "mem": 2, "bw": 2}, "power": "asleep"},
        ],
        vm_classes={"memory-intensive": {"cpu": 8, "mem": 8, "bw": 8}},
        events=[{"tick": 0, "op": "vm_request", "class": "memory-intensive"}],
        duration=2,
    )
    report = run(Scenario.from_json(spec))
    entry = report.placements[0]
    assert entry["woke"] == "s2"
    assert entry["chosen"] == "s2"
    assert report.summary["counters"]["wakes"] == 1
    assert report.summary["counters"]["rejections"] == 0
    wakes = [e for e in report.power_events if e["event"] == "wake"]
    assert [w["server"] for w in wakes] == ["s2"]

    spec["wake_on_reject"] = False
    report = run(Scenario.from_json(spec))
    entry = report.placements[0]
    assert entry["woke"] is None
    assert entry["chosen"] is None
    assert entry["reason"] == "no feasible server"
    assert report.summary["counters"]["rejections"] == 1
    assert report.summary["final"]["vms"] == {}


# Two ticks of two VMs, then at tick 2 a move whose first reader is the
# placement of vm-003: a shutdown frees part of s2, or a rejection wakes s2.
_SAME_TICK_MOVES = {
    "shutdown": ({}, [{"tick": 2, "op": "vm_shutdown", "vm": "vm-001"}]),
    "wake": ({"s1": {"threshold": {"cpu": 80, "mem": 300, "bw": 300}}, "s2": {"power": "asleep"}}, []),
}


@pytest.mark.parametrize("move", sorted(_SAME_TICK_MOVES))
def test_placement_scores_the_usage_left_by_a_same_tick_move(tmp_path, move):
    servers, events = _SAME_TICK_MOVES[move]
    base = _scn()
    spec = _scn(
        servers=[{**s, **servers.get(s["id"], {})} for s in base["servers"]],
        events=[{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2}, *events,
                {"tick": 2, "op": "vm_request", "class": "cpu-intensive"}],
    )
    scn = Scenario.from_json(spec)
    report = run(scn)
    emit_reports(report, str(tmp_path))
    entry = json.loads((tmp_path / "placements.json").read_text())[-1]
    assert (entry["tick"], entry["vm"], entry["woke"]) == (2, "vm-003", "s2" if move == "wake" else None)
    # at that moment a server hosts what it hosted after tick 1, less the VM just shut down
    gone = {"vm-001"} if move == "shutdown" else set()
    hosted = {s.id: [] for s in scn.servers}
    for tick, vm, observed, host in report.vm_samples:
        if tick == 1 and host is not None and vm not in gone:
            hosted[host].append(observed)
    assert sum(map(len, hosted.values())) == 2 - len(gone)
    weights = entry["weights"]
    expected = {}
    for s in scn.servers:
        usage = s.usage
        for observed in hosted[s.id]:
            usage = usage + observed
        if usage.cpu + entry["demand"]["cpu"] < s.threshold.cpu:  # the feasible servers
            expected[s.id] = (weights["w_cpu"] * usage.cpu + weights["w_mem"] * usage.mem
                              + weights["w_bw"] * usage.bw)
    # s1 has room after the shutdown only; the entry's pick and runner-up carry every feasible score
    assert len(expected) == (2 if move == "shutdown" else 1)
    ranked = sorted(expected, key=lambda sid: (expected[sid], sid))
    assert (entry["chosen"], entry["feasible"]) == (ranked[0], len(expected)) and ranked[0] == "s2"
    assert entry["score"] == pytest.approx(expected["s2"], abs=2e-6)
    assert entry["runner_up"] == ({"server": ranked[1], "score": pytest.approx(expected[ranked[1]], abs=2e-6)}
                                  if len(ranked) > 1 else None)


# (server id, usage in every component, cpu threshold) a server, and the first entry's
# (chosen, score, runner_up, feasible) for one cpu-intensive request (cpu 30)
_PICKS = {
    # s3 and s10 tie behind s2, and the tie goes to the least id: "s10" < "s2" < "s3"
    "runner-up-tie": ([("s3", 5, 300), ("s2", 1, 300), ("s10", 5, 300)], ("s2", 1.0, {"server": "s10", "score": 5.0}, 3)),
    "one-feasible": ([("s1", 5, 300), ("s2", 1, 20)], ("s1", 5.0, None, 1)),
    "rejected": ([("s1", 5, 20), ("s2", 1, 20)], (None, None, None, 0)),
}


@pytest.mark.parametrize("case", sorted(_PICKS))
def test_a_placement_entry_names_its_pick_the_runner_up_and_the_feasible_count(tmp_path, case):
    servers, expected = _PICKS[case]
    spec = _scn(servers=[{"id": sid, "threshold": {"cpu": cpu, "mem": 300, "bw": 300},
                          "usage": {"cpu": u, "mem": u, "bw": u}} for sid, u, cpu in servers],
                events=[{"tick": 0, "op": "vm_request", "class": "cpu-intensive"}])
    emit_reports(run(Scenario.from_json(spec)), str(tmp_path))
    [entry] = json.loads((tmp_path / "placements.json").read_text())
    assert (entry["chosen"], entry["score"], entry["runner_up"], entry["feasible"]) == expected
    assert sorted(entry) == ["chosen", "class", "demand", "feasible", "reason", "runner_up", "score", "seq", "tick",
                             "vm", "weights", "woke"]


def test_overload_triggers_one_migration():
    # two 30-cpu VMs against a 66-cpu threshold: sampling jitter pushes the
    # host over the line within a few ticks, and s2 (woken for the third VM)
    # is the only migration target
    spec = _scn(
        servers=[
            {"id": "s1", "threshold": {"cpu": 66, "mem": 300, "bw": 300},
             "usage": {"cpu": 5, "mem": 5, "bw": 5}},
            {"id": "s2", "threshold": {"cpu": 300, "mem": 300, "bw": 300},
             "usage": {"cpu": 2, "mem": 2, "bw": 2}, "power": "asleep"},
        ],
        vm_classes={
            "cpu-intensive": {"cpu": 30, "mem": 5, "bw": 5},
            "bandwidth-intensive": {"cpu": 2, "mem": 1, "bw": 1},
        },
        events=[
            {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
            {"tick": 0, "op": "vm_request", "class": "bandwidth-intensive"},
        ],
        duration=40,
        seed=11,
    )
    scn = Scenario.from_json(spec)
    report = run(scn)
    overload = [m for m in report.migrations if m["kind"] == "overload"]
    assert len(overload) >= 1
    move = overload[0]
    assert move["from"] == "s1"
    assert move["to"] == "s2"
    assert move["vm"] in ("vm-001", "vm-002")
    assert move["target_score"] < move["source_post_score"]
    assert report.summary["counters"]["migrations_overload"] == len(overload)
    _check_conservation(scn, report)


def test_consolidation_drains_and_sleeps():
    spec = _scn(low_watermark={"cpu": 50, "mem": 50, "bw": 50}, duration=10)
    scn = Scenario.from_json(spec)
    report = run(scn)
    sleeps = [e for e in report.power_events if e["event"] == "sleep"]
    assert len(sleeps) == 1
    consolidations = [m for m in report.migrations if m["kind"] == "consolidate"]
    assert len(consolidations) == 1
    assert consolidations[0]["from"] == sleeps[0]["server"]
    servers = report.summary["final"]["servers"]
    slept = servers[sleeps[0]["server"]]
    assert slept["power"] == "asleep"
    assert slept["vms"] == 0
    other = next(s for sid, s in servers.items() if sid != sleeps[0]["server"])
    assert other["vms"] == 2
    assert report.summary["counters"]["sleeps"] == 1
    assert report.summary["counters"]["migrations_consolidate"] == 1
    _check_conservation(scn, report)


# ------------------------------------------------ detection theory and FINs


def _one_vm(events, duration, seed, **over):
    return Scenario.from_json(_scn(
        events=[{"tick": 0, "op": "vm_request", "class": "cpu-intensive"}] + events,
        duration=duration, seed=seed, **over,
    ))


DELAY_THEORY = [(1.5, 12), (2.0, 6), (3.0, 4), (4.0, 3)]


def _theory(multiplier, predicted):
    # Under a flood of multiplier m the paired FINs still arrive, so each
    # attacked interval adds d = (m - 1) / (m + 1) to y less the drift a,
    # and the first alarm needs ceil(h / (d - a)) attacked intervals
    # (Wang, Zhang & Shin, INFOCOM 2002).
    drift, threshold = DetectorConfig().drift, DetectorConfig().threshold
    assert predicted == math.ceil(threshold / ((multiplier - 1) / (multiplier + 1) - drift))
    return drift, threshold


@pytest.mark.parametrize("multiplier,predicted", DELAY_THEORY)
def test_detection_delay_is_exactly_cusum_theory_when_every_fin_lands_one_interval_on(multiplier, predicted):
    # A 10 s FIN delay puts every FIN of a tick's connections in the next
    # tick, so each attacked interval's d is exactly (m - 1) / (m + 1).
    _theory(multiplier, predicted)
    for seed in range(20):
        scn = _one_vm([{"tick": 30, "op": "attack_start", "vm": "vm-001", "multiplier": multiplier}],
                      duration=30 + predicted + 2, seed=seed, fin_delay_range=[10, 10])
        alarms = [a["tick"] for a in run(scn).alarms]
        assert alarms and alarms[0] - 30 + 1 == predicted, f"seed {seed}: alarms {alarms}"


@pytest.mark.parametrize("multiplier,predicted", DELAY_THEORY)
def test_detection_delay_matches_cusum_theory(multiplier, predicted):
    # With FIN delays of 12-19 s a tick's FINs come one or two ticks on, so
    # the FINs of k attacked ticks sum to k ticks' connections plus the
    # difference of two ticks' one-tick-on counts (the sum telescopes): y
    # strays from the theory's line by about one interval's d, and the
    # first alarm comes within one tick of theory.  It comes where the
    # recurrence over the VM's logged counts first exceeds h.
    drift, threshold = _theory(multiplier, predicted)
    for seed in range(20):
        scn = _one_vm([{"tick": 30, "op": "attack_start", "vm": "vm-001",
                        "multiplier": multiplier}], duration=30 + predicted + 2, seed=seed)
        report = run(scn)
        alarms = [a["tick"] for a in report.alarms]
        assert alarms, f"seed {seed}: no alarm"
        _, over = cusum_oracle([(r.syn, r.finrst) for r in report.stat_rows if r.vm_id == "vm-001"],
                               drift, threshold)
        assert alarms[0] == over.index(True), f"seed {seed}"
        delay = alarms[0] - 30 + 1
        assert predicted - 1 <= delay <= predicted + 1, f"seed {seed}: delay {delay}"


def test_fin_ring_conserves_connections():
    # vm-002 is shut down at tick 7 and vm-003 starts at tick 3; both send
    # 50 paired connections a tick.  vm-001 floods and is throttled to 20,
    # so a FIN credited to the wrong row shows as a drift in another
    # VM's balance.  A FIN lands 12-19 s after its SYN, 1 or 2 intervals
    # on, so each tick ends with this tick's 50 connections and at most
    # fin_slots - 1 ticks' worth in flight.
    events = [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
        {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 3.0},
        {"tick": 3, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 7, "op": "vm_shutdown", "vm": "vm-002"},
    ]
    scn = Scenario.from_json(_scn(events=events, duration=20, base_rate=50, seed=3,
                                  detector={"policy": "throttle", "throttle_factor": 0.4}))
    sim = _Sim(scn)
    assert sim.fin_slots == 3
    for tick in range(scn.duration):
        sim.step(tick)
        if tick == 7:
            assert not sim.cols["fin_due"][sim.row["vm-002"]].any()
    rows = list(sim.report.stat_rows)
    assert (rows[-2].vm_id, rows[-2].syn) == ("vm-001", 20 + 40)
    for vm, ticks in (("vm-002", range(7)), ("vm-003", range(3, scn.duration))):
        in_flight = 0
        vm_rows = [r for r in rows if r.vm_id == vm]
        assert [r.interval_index for r in vm_rows] == list(ticks)
        for r in vm_rows:
            assert r.syn == 50
            in_flight += r.syn - r.finrst
            assert 50 <= in_flight <= 50 * (sim.fin_slots - 1), (vm, r.interval_index)


def test_usage_is_exact_past_vm_999():
    # 1,100 VMs: from vm-1000 on, sorted-id order (vm-1000 < vm-101) is no
    # longer placement order, and each server must still add its VMs'
    # observed usage in sorted-id order, to the last bit.
    servers = [{"id": f"s{i:02d}", "threshold": {"cpu": 95, "mem": 95, "bw": 95},
                "usage": {"cpu": 1 + i % 3, "mem": 2, "bw": 1}} for i in range(30)]
    scn = Scenario.from_json(_scn(
        servers=servers, duration=3, base_rate=2,
        vm_classes={"cpu-intensive": {"cpu": 1.7, "mem": 0.9, "bw": 0.6}},
        events=[{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 1100}]))
    report = run(scn)
    assert report.summary["counters"]["placements"] == 1100
    assert exact_usage_oracle(scn, report) == 30 * 3


def test_first_start_demand_averages_the_class_in_placement_order_past_vm_999(monkeypatch):
    # A request's demand is mean_usage over the observed usage of its class's placed,
    # unrevoked VMs in placement order, stopped and suspended ones included; from
    # vm-1000 on, sorted-id order is another order, and another float.
    servers = [{"id": f"s{i:02d}", "threshold": {"cpu": 58, "mem": 58, "bw": 58},
                "usage": {"cpu": 1 + i % 3, "mem": 2, "bw": 1}} for i in range(30)]
    classes = ("cpu-intensive", "memory-intensive")
    events = [{"tick": tick, "op": "vm_request", "class": cls, "count": count}
              for tick, count in ((0, 500), (1, 100), *((t, 1) for t in range(2, 8))) for cls in classes]
    # each tick's requests come before its lifecycle events
    events += [{"tick": 1, "op": "attack_start", "vm": "vm-1150", "multiplier": 3.0},
               {"tick": 2, "op": "vm_shutdown", "vm": "vm-005"},
               {"tick": 3, "op": "vm_revoke", "vm": "vm-1120"}]
    scn = Scenario.from_json(_scn(
        servers=servers, duration=8, seed=4, wake_on_reject=False, detector={"policy": "suspend"}, events=events,
        vm_classes={"cpu-intensive": {"cpu": 1.7, "mem": 0.9, "bw": 0.6},
                    "memory-intensive": {"cpu": 0.8, "mem": 1.9, "bw": 0.5}}))
    sim = _Sim(scn)
    demands = {}  # by the index of the VM requested
    place = sched.place

    def spy(demand, weights, servers):
        # a request's placement is the first place call after the request counts its VM
        demands.setdefault(sim.next_vm, demand)
        return place(demand, weights, servers)

    monkeypatch.setattr(sched, "place", spy)
    report = sim.run()
    requests = report.placements
    counters = report.summary["counters"]
    assert counters["placements"] > 1000
    # a same-class request follows each rejection, shutdown, suspension and revocation
    last = {cls: max(p["tick"] for p in requests if p["class"] == cls) for cls in classes}
    [alarm] = report.alarms
    assert counters["suspensions"] == 1 and alarm["tick"] < last["memory-intensive"]
    assert counters["shutdowns"] == counters["revocations"] == 1
    assert any(p["chosen"] is None and p["tick"] < last[p["class"]] for p in requests)
    index = {p["vm"]: k for k, p in enumerate(requests, 1)}
    revoked_at = {ev.vm: ev.tick for ev in scn.events if ev.op == "vm_revoke"}
    observed = {(tick, vm): obs for tick, vm, obs, _ in report.vm_samples}
    tick_of = {p["vm"]: p["tick"] for p in requests}
    other_order = 0
    for k, request in enumerate(requests, 1):
        tick = request["tick"]
        peers = [p["vm"] for p in requests[:k - 1] if p["chosen"] is not None and p["class"] == request["class"]
                 and revoked_at.get(p["vm"], math.inf) >= tick]
        # a VM placed earlier in this tick is not sampled yet: it reads its own demand
        usage = [demands[index[vm]] if tick_of[vm] == tick else observed[tick - 1, vm] for vm in peers]
        expect = mean_usage(usage) if usage else scn.vm_classes[request["class"]]
        assert demands[k] == expect, request["vm"]
        other_order += bool(usage) and mean_usage([u for _, u in sorted(zip(peers, usage))]) != expect
    assert other_order


def _fleet(duration):
    """20 servers and 120 VMs for duration ticks."""
    servers = [{"id": f"s{i:02d}", "threshold": {"cpu": 95, "mem": 95, "bw": 95}} for i in range(20)]
    return Scenario.from_json(_scn(
        servers=servers, duration=duration, seed=1,
        vm_classes={"cpu-intensive": {"cpu": 4, "mem": 2, "bw": 1}},
        events=[{"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 120}]))


def _usage_peak(duration):
    """tracemalloc's peak while simulating _fleet(duration)."""
    scn = _fleet(duration)
    tracemalloc.start()
    try:
        run(scn)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _emission_peak(duration, outdir):
    """tracemalloc's peak while emit_reports writes a finished run of _fleet(duration): the
    run's own heap is not traced, so this is what emission adds above it."""
    report = run(_fleet(duration))
    tracemalloc.start()
    try:
        emit_reports(report, str(outdir))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emission_memory_does_not_grow_with_the_run(tmp_path):
    # 1,000 ticks hold four times the report rows of 250 (120,000 detector rows and
    # 20,020 utilization rows); both CSVs go to their files a chunk at a time
    short, long = _emission_peak(250, tmp_path), _emission_peak(1000, tmp_path)
    assert long <= short + 64 * 1024, (short, long)


def test_a_sample_appended_to_the_log_iterates_as_the_runs_own():
    report = run(_py_scn(duration=2))
    log = report.vm_samples
    samples = list(log)
    log.append(samples[0])
    log.append((7, "vm-001", ResourceVector(1.5, 2.0, 0.25), None))
    assert list(log) == [*samples, samples[0], (7, "vm-001", (1.5, 2.0, 0.25), None)]
    assert all(type(block[1]) is np.ndarray for block in log.blocks)  # one block form
    with pytest.raises(ValueError):
        log.append((7, "vm-999", ResourceVector(1, 1, 1), None))


def test_memory_per_vm_tick_stays_small():
    # what a run keeps per VM-tick: the statistic log, the utilization rows
    # and the vm_samples columns
    growth = (_usage_peak(500) - _usage_peak(250)) / (250 * 120)
    assert growth <= 200, f"{growth:.0f} bytes per VM-tick"


DEMO = Path(__file__).parent.parent / "demos" / "small_datacenter.json"


def _demo_peak(base_rate):
    """tracemalloc's peak while simulating the demo's first five ticks at base_rate."""
    demo = load_scenario(str(DEMO))
    scn = replace(demo, events=[ev for ev in demo.events if ev.tick < 5], duration=5, base_rate=base_rate)
    tracemalloc.start()
    try:
        run(scn)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_ticks_traffic_costs_the_same_memory_at_any_base_rate():
    # up to 20 VMs send 10**6 connections a tick: the FIN-slot split is one
    # (VMs, slots) array, not an array per connection
    _demo_peak(100)  # the first run also fills import-time caches
    assert _demo_peak(10**6) <= _demo_peak(100) + 16 * 1024
