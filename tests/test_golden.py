"""Golden report digests: the six report files are pinned byte for byte.

A change that claims only speed must leave every report byte unchanged,
so these digests may only be updated by a change that alters simulated
behaviour on purpose (and says so).  The offline trace pipeline is
pinned the same way: the trace `gen` writes, and the statistic log and
JSON that `detect` writes for it and for a pre-binned trace.
"""

import hashlib
import io
import json
import os

import pytest

from vmshield.cli import EXIT_OK, dispatch
from vmshield.simulator import REPORT_FILES, Scenario, emit_reports, load_scenario, run

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "small_datacenter.json")

DEMO_DIGESTS = {
    "utilization.csv": "735bffc2c933c066895b9198692f545d47fe66837fc7698bc838563af0887652",
    "placements.json": "102a7cf5607207e625574c1ebd1d7a6474f1e71c3076a27da7b7aa8c7e147ae8",
    "migrations.json": "c0dea3f197daf006db33c88287fe64a969ebcdcced73b823c4e25b341c91b55f",
    "detector.csv": "681294382a08af7569143b81527900a219e97f6e634fdd917d5613e60ff26d1a",
    "alarms.json": "74ce7ac83f81caa530fb97a460cb0ac29d490578a79f8502fe399cb1905f9807",
    "summary.json": "03fbb156c4ae642387056c8be42f33c3158626ebff35587ff88ff1bdd9c60095",
}

# Two servers, one asleep.  The third VM does not fit next to the two
# 30-cpu VMs, so it wakes "b"; sampling jitter then pushes "a" over its
# 66-cpu threshold and one overload migration follows.  vm-003 floods
# from tick 2 to 10, and after the shutdown and revocation the emptied
# servers drain below the watermark and sleep.
SMALL = {
    "servers": [
        {"id": "a", "threshold": {"cpu": 66, "mem": 300, "bw": 300},
         "usage": {"cpu": 5, "mem": 5, "bw": 5}},
        {"id": "b", "threshold": {"cpu": 300, "mem": 300, "bw": 300},
         "usage": {"cpu": 2, "mem": 2, "bw": 2}, "power": "asleep"},
    ],
    "vm_classes": {"cpu-intensive": {"cpu": 30, "mem": 5, "bw": 5},
                   "bandwidth-intensive": {"cpu": 2, "mem": 1, "bw": 20}},
    "events": [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 2},
        {"tick": 0, "op": "vm_request", "class": "bandwidth-intensive"},
        {"tick": 2, "op": "attack_start", "vm": "vm-003", "multiplier": 3.0},
        {"tick": 10, "op": "attack_stop", "vm": "vm-003"},
        {"tick": 14, "op": "vm_shutdown", "vm": "vm-001"},
        {"tick": 15, "op": "vm_revoke", "vm": "vm-002"},
    ],
    "low_watermark": {"cpu": 12, "mem": 12, "bw": 12},
    "base_rate": 30,
    "duration": 30,
    "seed": 11,
}

SMALL_DIGESTS = {
    "log": {
        "utilization.csv": "ce7d83093d50bd24ec0e294bf9bcb62eb44e5ba6c8214c1a1320b4c506aac031",
        "placements.json": "34c9fb419b3e858f280c768d9b021a53ec5e14081f8ae35ca4d9ff0143b424c3",
        "migrations.json": "f30adfce404ceaeff57fcd84ab10d4a576398aa0d67c28689e640c0e6d929833",
        "detector.csv": "8da854457c5667547efe36af2e5ee5cc2aba1da9b9b72ca5745bb5729b299bb7",
        "alarms.json": "1bf5ac14a2ee3423d2bb918d18b6c2728162bf7605363031f56e60ea52304e50",
        "summary.json": "fb20d2a979e9970cfa4836f4fe79d6bc9e18235e6585d33356b5d0427fbb6eda",
    },
    "throttle": {
        "utilization.csv": "ce7d83093d50bd24ec0e294bf9bcb62eb44e5ba6c8214c1a1320b4c506aac031",
        "placements.json": "34c9fb419b3e858f280c768d9b021a53ec5e14081f8ae35ca4d9ff0143b424c3",
        "migrations.json": "f30adfce404ceaeff57fcd84ab10d4a576398aa0d67c28689e640c0e6d929833",
        "detector.csv": "aac2a991214671e184f17fbe29d7b0950b8851036c6a45831ae4a14e7e60bc18",
        "alarms.json": "a37c8001eb4be47954115624a81768d776a2e7c3c6d011e6906716b75f7ed1a3",
        "summary.json": "61ce1c29670cf55f0a3ac0768202c5a7ea4c41766effe7f8be86d3a70a03faf5",
    },
    "suspend": {
        "utilization.csv": "5cffbf3928ccb0d23198666acf0b17e2668d5033809bf3afb6d6e7e578efb1d9",
        "placements.json": "34c9fb419b3e858f280c768d9b021a53ec5e14081f8ae35ca4d9ff0143b424c3",
        "migrations.json": "f30adfce404ceaeff57fcd84ab10d4a576398aa0d67c28689e640c0e6d929833",
        "detector.csv": "6891a3d223b9c79efa226b26cf43beeb5900a31387bc1d4a602e029fe98e1a20",
        "alarms.json": "061c20de2fe709130640da8bfb7c2d6594e3c581a7a30d2b56746c4cfad0bcaf",
        "summary.json": "9ff56dbe5704a4853773d5bbfdf194504c1f8cdd1590b1f98911789e6645de64",
    },
}


# Six servers and 41 VMs under suspend.  Floods on vm-005, vm-009 and
# vm-020 overlap; vm-007 and vm-011 are attacked and then shut down and
# revoked before their alarms can fire; vm-041 is requested mid-run.
# Suspended VMs stay in the detector's batch with no traffic, and the
# shutdowns leave servers that drain below the watermark.
MID = {
    "servers": [
        {"id": f"m{i}", "threshold": {"cpu": 80, "mem": 80, "bw": 80},
         "usage": {"cpu": 2 + i, "mem": 3, "bw": 1 + i / 2}}
        for i in range(6)
    ],
    "vm_classes": {"cpu-intensive": {"cpu": 9, "mem": 3, "bw": 2},
                   "memory-intensive": {"cpu": 3, "mem": 10, "bw": 2},
                   "bandwidth-intensive": {"cpu": 2, "mem": 3, "bw": 8}},
    "events": [
        {"tick": 0, "op": "vm_request", "class": "cpu-intensive", "count": 8},
        {"tick": 0, "op": "vm_request", "class": "memory-intensive", "count": 7},
        {"tick": 0, "op": "vm_request", "class": "bandwidth-intensive", "count": 5},
        {"tick": 1, "op": "vm_request", "class": "bandwidth-intensive", "count": 6},
        {"tick": 1, "op": "vm_request", "class": "cpu-intensive", "count": 7},
        {"tick": 1, "op": "vm_request", "class": "memory-intensive", "count": 7},
        {"tick": 4, "op": "attack_start", "vm": "vm-005", "multiplier": 3.0},
        {"tick": 6, "op": "attack_start", "vm": "vm-009", "multiplier": 2.5},
        {"tick": 8, "op": "attack_start", "vm": "vm-020", "multiplier": 4.0},
        {"tick": 10, "op": "attack_start", "vm": "vm-007", "multiplier": 3.0},
        {"tick": 10, "op": "attack_start", "vm": "vm-011", "multiplier": 2.0},
        {"tick": 11, "op": "vm_shutdown", "vm": "vm-007"},
        {"tick": 12, "op": "vm_revoke", "vm": "vm-011"},
        {"tick": 12, "op": "vm_request", "class": "cpu-intensive"},
        {"tick": 14, "op": "attack_stop", "vm": "vm-005"},
        {"tick": 16, "op": "vm_shutdown", "vm": "vm-001"},
        {"tick": 16, "op": "vm_shutdown", "vm": "vm-002"},
        {"tick": 16, "op": "vm_shutdown", "vm": "vm-003"},
        {"tick": 17, "op": "vm_revoke", "vm": "vm-004"},
        {"tick": 17, "op": "vm_shutdown", "vm": "vm-006"},
        {"tick": 20, "op": "attack_stop", "vm": "vm-009"},
    ],
    "detector": {"policy": "suspend"},
    "low_watermark": {"cpu": 30, "mem": 30, "bw": 30},
    "base_rate": 50,
    "duration": 30,
    "seed": 23,
}


def _digests(report, outdir):
    emit_reports(report, str(outdir))
    out = {}
    for name in REPORT_FILES:
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_demo_reports_are_byte_identical(tmp_path):
    assert _digests(run(load_scenario(DEMO)), tmp_path) == DEMO_DIGESTS


@pytest.mark.parametrize("policy", ["log", "throttle", "suspend"])
def test_small_scenario_reports_are_byte_identical(policy, tmp_path):
    report = run(Scenario.from_json({**SMALL, "detector": {"policy": policy}}))
    counters = report.summary["counters"]
    # the scenario must keep exercising every decision it was built for
    assert counters["wakes"] == 1
    assert counters["migrations_overload"] == 1
    assert counters["sleeps"] >= 1
    assert counters["alarms"] >= 1
    assert counters["suspensions"] == (1 if policy == "suspend" else 0)
    assert _digests(report, tmp_path) == SMALL_DIGESTS[policy]


MID_DIGESTS = {
    "utilization.csv": "844f61357cdf2baf35927d9f4a55923245d9ba8d7384fda60bddaa7c7d7417a8",
    "placements.json": "a9343370ed739746f567303e0fb7f7259dd510a47e30baea901f124018c3f16a",
    "migrations.json": "5194a25ebc2905ccbac3b9266cb63ea01130729783bfd6faa8d2cbc0f311dbc6",
    "detector.csv": "cede3b2a48f1e0b6b714a9031caa5abf9d36ff97015098274975d9c608ac7fe8",
    "alarms.json": "783b4fa118e80148cb7a2e1b8444c68e845054211aac4e02e9e1d61db97471d9",
    "summary.json": "2e10c5953d37388c715e8f030b5011acdffde44c51cbaae84bef086f500edf9f",
}


def test_mid_scenario_reports_are_byte_identical(tmp_path):
    report = run(Scenario.from_json(MID))
    counters = report.summary["counters"]
    final = report.summary["final"]["vms"]
    # three floods suspend their VMs; the two attacked VMs leave before an alarm
    assert [a["vm"] for a in report.alarms] == ["vm-005", "vm-009", "vm-020"]
    assert counters["suspensions"] == 3
    assert final["vm-007"]["state"] == "stopped"
    assert final["vm-011"]["state"] == "revoked"
    assert final["vm-041"]["state"] == "running"
    assert counters["migrations_consolidate"] >= 1
    assert counters["sleeps"] >= 1
    assert _digests(report, tmp_path) == MID_DIGESTS


# Normal and flood specs over three VMs, one of whose ids needs CSV
# quoting; "web" floods from interval 4 to 9 and the others stay paired.
TRACE_SPECS = {"specs": [
    {"vm_id": "web", "mode": "normal", "base_rate": 40, "start": 0, "end": 14, "seed": 3},
    {"vm_id": 'db,"primary"', "mode": "normal", "base_rate": 25, "start": 2, "end": 12, "seed": 4},
    {"vm_id": "cache", "mode": "normal", "base_rate": 7, "start": 0, "end": 16, "seed": 5,
     "fin_delay_range": [3.5, 9.25], "interval_seconds": 2.5},
    {"vm_id": "web", "mode": "attack", "base_rate": 40, "attack_multiplier": 2.5,
     "start": 4, "end": 9, "seed": 6},
]}

TRACE_DIGESTS = {
    "trace.csv": "f800514359ea919b10ec2ef2700b518eb188ee19e1746cfb872a12a75e640800",
    "stats.csv": "3a75d5d901ef29c3e8ded5fa7d8301fcc50b70aea79686f3c6a857a32203fa7e",
    "detect.json": "f99aef57f34e01c96f1e9a654e8de12b27f37b53f42c3d106cc4b945d66c93e5",
}


def test_trace_pipeline_outputs_are_byte_identical(tmp_path):
    spec = tmp_path / "specs.json"
    spec.write_text(json.dumps(TRACE_SPECS))
    trace, stats = tmp_path / "trace.csv", tmp_path / "stats.csv"
    assert dispatch(["gen", "--spec", str(spec), "--out", str(trace)], out=io.StringIO()) == EXIT_OK
    out = io.StringIO()
    assert dispatch(["detect", "--trace", str(trace), "--stats", str(stats)], out=out) == EXIT_OK
    # the pipeline must keep exercising a quoted id and an alarm
    assert 'db,""primary""' in trace.read_text()
    assert "web" in [a["vm_id"] for a in json.loads(out.getvalue())["alarms"]]
    digests = {"trace.csv": hashlib.sha256(trace.read_bytes()).hexdigest(),
               "stats.csv": hashlib.sha256(stats.read_bytes()).hexdigest(),
               "detect.json": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    assert digests == TRACE_DIGESTS


# A pre-binned trace for the same command.  "web" runs 12 intervals with
# index 6 left out, which fill_gaps zero-fills, and floods from 4 to 8;
# "db,primary" (a quoted id) stops after interval 5, so fill_gaps pads it
# to web's span.  The rows are not in (vm_id, interval_index) order.
BINNED_TRACE = (
    "interval_index,vm_id,syn,finrst\n"
    + "".join(f"{i},web,{s},{f}\n" for i, s, f in [
        (0, 40, 3), (1, 41, 37), (2, 38, 44), (3, 40, 39), (4, 140, 41), (5, 150, 38),
        (7, 160, 12), (8, 120, 9), (9, 42, 35), (10, 39, 41), (11, 40, 40)])
    + "".join(f'{i},"db,primary",{s},{f}\n' for i, s, f in [
        (3, 25, 24), (0, 25, 0), (1, 24, 20), (2, 26, 27), (4, 25, 26), (5, 0, 22)])
)

BINNED_DIGESTS = {
    "stats.csv": "356695d7e50233fc71580c3fa3bda10f02c50937b7ebfef74c6c1318c6c214ca",
    "detect.json": "8d9139a6a9a59d49dd473e3c96dd0a8fdd79e951ec5c2c7267aecdcdb53a5501",
}


def test_binned_detect_outputs_are_byte_identical(tmp_path):
    trace, stats = tmp_path / "binned.csv", tmp_path / "stats.csv"
    trace.write_text(BINNED_TRACE)
    out = io.StringIO()
    assert dispatch(["detect", "--trace", str(trace), "--stats", str(stats)], out=out) == EXIT_OK
    result = json.loads(out.getvalue())
    # the trace must keep exercising the filled gap, the padded VM and an alarm
    assert sorted(result["series"]) == ["db,primary", "web"]
    assert all(len(ys) == 12 for ys in result["series"].values())
    assert "6,web,0,0," in stats.read_text()
    assert "web" in [a["vm_id"] for a in result["alarms"]]
    digests = {"stats.csv": hashlib.sha256(stats.read_bytes()).hexdigest(),
               "detect.json": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    assert digests == BINNED_DIGESTS
