import json
import math
import re
from pathlib import Path

import pytest

from vmshield.errors import ParseError, ValidationError
from vmshield.resources import ResourceVector
from vmshield.simulator import (
    REPORT_FILES,
    DetectorConfig,
    Scenario,
    ScenarioEvent,
    _Sim,
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
    with pytest.raises(ParseError, match="unknown scenario fields"):
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
    with pytest.raises(ParseError):
        Scenario.from_json(_scn(servers=[{"id": "s1", "power": "off"}]))
    with pytest.raises(ValidationError):
        Scenario.from_json(_scn(fin_delay_range=[0, 5]))
    with pytest.raises(ParseError, match="unknown hotspot class"):
        Scenario.from_json(_scn(vm_classes={"webby": {"cpu": 1, "mem": 1, "bw": 1}}))


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


def test_detector_config_validation():
    with pytest.raises(ValidationError, match="policy"):
        DetectorConfig.from_json({"policy": "reboot"})
    with pytest.raises(ValidationError, match="exceed drift"):
        DetectorConfig.from_json({"drift": 0.5, "threshold": 0.2})
    with pytest.raises(ValidationError):
        DetectorConfig.from_json({"throttle_factor": 1.5})
    with pytest.raises(ParseError):
        DetectorConfig.from_json({"drift": "fast"})
    with pytest.raises(ParseError, match="detector drift must be a JSON number"):
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
    ({"detector": {"drift": "0.1"}}, "detector drift must be a JSON number, got '0.1'"),
    ({"detector": {"throttle_factor": True}}, "detector throttle_factor must be a JSON number"),
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


@pytest.mark.parametrize("multiplier,predicted", [(1.5, 12), (2.0, 6), (3.0, 4), (4.0, 3)])
def test_detection_delay_matches_cusum_theory(multiplier, predicted):
    # Under a flood of multiplier m the paired FINs still arrive, so each
    # attacked interval adds d = (m - 1) / (m + 1) to y less the drift a,
    # and the first alarm needs ceil(h / (d - a)) attacked intervals
    # (Wang, Zhang & Shin, INFOCOM 2002).
    drift, threshold = DetectorConfig().drift, DetectorConfig().threshold
    assert predicted == math.ceil(threshold / ((multiplier - 1) / (multiplier + 1) - drift))
    for seed in range(20):
        scn = _one_vm([{"tick": 30, "op": "attack_start", "vm": "vm-001",
                        "multiplier": multiplier}], duration=30 + predicted + 2, seed=seed)
        alarms = [a["tick"] for a in run(scn).alarms]
        assert alarms, f"seed {seed}: no alarm"
        delay = alarms[0] - 30 + 1
        assert predicted <= delay <= predicted + 1, f"seed {seed}: delay {delay}"


def test_fin_ring_conserves_connections():
    # vm-002 is shut down at tick 7 and vm-003 starts at tick 3; both send
    # 50 paired connections a tick.  vm-001 floods and is throttled to 20,
    # so a FIN credited to the wrong ring row shows as a drift in another
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
            assert not sim.fin_ring[sim.vms["vm-002"].fin_row].any()
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
