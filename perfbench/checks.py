"""Correctness checks and decision metrics, derived without vmshield.

Every check re-derives a property from the report files (or from the
``SimReport`` captured after timing) and the generator's ground truth,
using only the standard library.  A check returns a list of problems;
an empty list is a pass.  Each check run counts as one attempted
operation in the benchmark result and each failing one as one failure.
"""

from __future__ import annotations

import csv
import io
import json
import os

from gen import DRIFT, THRESHOLD, Scenario

TOL = 1e-9
# Report CSVs print d and y with 6 decimals, so a recomputed value may
# differ from the printed one by half a unit in the last place.
PRINT_TOL = 0.5e-6 + TOL
MAX_PROBLEMS = 5


def _problems(found: list[str]) -> list[str]:
    return found[:MAX_PROBLEMS] + ([f"... {len(found) - MAX_PROBLEMS} more"]
                                   if len(found) > MAX_PROBLEMS else [])


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def read_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- detector statistic ----------------------------------------------------


def cusum_rows(rows: list[dict]) -> list[str]:
    """Recompute d, y and the episode-start flag of a statistic log from syn/finrst.

    y_n = max(0, y_{n-1} + d_n - drift) with d_n = (S - F) / max(S + F, 1),
    per VM in interval order from y = 0; a row starts an alarm episode when
    y exceeds the threshold and the VM's previous row did not.
    """
    found = []
    per_vm: dict[str, list[dict]] = {}
    for row in rows:
        per_vm.setdefault(row["vm_id"], []).append(row)
    for vm, vm_rows in per_vm.items():
        y, exceeding, last = 0.0, False, None
        for row in sorted(vm_rows, key=lambda r: int(r["interval"])):
            idx = int(row["interval"])
            if last is not None and idx != last + 1:
                found.append(f"{vm}: interval {idx} follows {last}")
            last = idx
            syn, fin = int(row["syn"]), int(row["finrst"])
            d = (syn - fin) / max(syn + fin, 1)
            y = max(0.0, y + d - DRIFT)
            start = y > THRESHOLD and not exceeding
            exceeding = y > THRESHOLD
            if abs(float(row["d"]) - d) > PRINT_TOL or abs(float(row["y"]) - y) > PRINT_TOL:
                found.append(f"{vm}@{idx}: d,y = {row['d']},{row['y']}, recomputed {d:.9f},{y:.9f}")
            if bool(int(row["alarm"])) != start:
                found.append(f"{vm}@{idx}: alarm flag {row['alarm']}, recomputed {int(start)}")
    return _problems(found)


def episodes(rows: list[dict]) -> list[tuple[str, int]]:
    return sorted((r["vm_id"], int(r["interval"])) for r in rows if r["alarm"] == "1")


def attack_outcomes(alarm_starts: list[tuple[str, int]], rows: list[dict],
                    attacks: list[tuple[str, int, int]]):
    """false_alarms and the per-attack detection latencies.

    An alarm episode is false when it starts outside every attack window
    of its VM.  An attack's latency is the ticks from its start to the
    first interval inside the window whose statistic exceeds the
    threshold; a missed attack counts its whole window length.
    """
    windows: dict[str, list[tuple[int, int]]] = {}
    for vm, start, stop in attacks:
        windows.setdefault(vm, []).append((start, stop))
    false_alarms = sum(
        1 for vm, t in alarm_starts
        if not any(start <= t < stop for start, stop in windows.get(vm, ()))
    )
    above = {(r["vm_id"], int(r["interval"])) for r in rows if float(r["y"]) > THRESHOLD}
    latencies = []
    for vm, start, stop in attacks:
        hit = next((t for t in range(start, stop) if (vm, t) in above), None)
        latencies.append(stop - start if hit is None else hit - start)
    return false_alarms, latencies


def attacked_vms_present(rows: list[dict], attacks: list[tuple[str, int, int]]) -> list[str]:
    """Every attack window is covered by statistic rows of its VM."""
    seen = {(r["vm_id"], int(r["interval"])) for r in rows}
    found = [f"{vm}: no statistic row in attack window [{start}, {stop})"
             for vm, start, stop in attacks
             if not all((vm, t) in seen for t in range(start, stop))]
    return _problems(found)


# --- simulator reports -----------------------------------------------------


class SimFiles:
    """The six report files of one simulated scenario, parsed."""

    def __init__(self, outdir: str):
        self.detector = read_csv(read_file(os.path.join(outdir, "detector.csv")))
        self.utilization = read_csv(read_file(os.path.join(outdir, "utilization.csv")))
        self.alarms = json.loads(read_file(os.path.join(outdir, "alarms.json")))
        self.placements = json.loads(read_file(os.path.join(outdir, "placements.json")))
        self.migrations = json.loads(read_file(os.path.join(outdir, "migrations.json")))
        self.summary = json.loads(read_file(os.path.join(outdir, "summary.json")))


def conservation(report, truth: Scenario) -> list[str]:
    """Each active server-tick's usage is its overhead plus its hosted VMs' observed usage.

    ``report`` is the SimReport captured from ``simulator.run``: its
    utilization tuples (tick, server, cpu, mem, bw, power, vms) at the
    end of tick t-1 are compared against the (tick, vm, observed, host)
    samples taken at tick t-1.  No VM may be hosted twice.  Asleep
    servers are left to ``asleep_servers_empty``.
    """
    found = []
    hosted: dict[tuple[int, str], list] = {}
    for tick, vm, observed, host in report.vm_samples:
        if host is not None:
            hosted.setdefault((tick, host), []).append((vm, observed))
    per_tick_vms: dict[int, list[str]] = {}
    for (tick, _), members in hosted.items():
        per_tick_vms.setdefault(tick, []).extend(vm for vm, _ in members)
    for tick, vms in per_tick_vms.items():
        if len(vms) != len(set(vms)):
            found.append(f"tick {tick}: a VM is hosted twice")
    for tick, sid, cpu, mem, bw, power, nvms in report.utilization:
        if tick == 0 or power == "asleep":
            continue
        members = sorted(hosted.get((tick - 1, sid), []), key=lambda m: m[0])
        expect = list(truth.overhead[sid])
        for _, obs in members:
            expect[0] += obs.cpu
            expect[1] += obs.mem
            expect[2] += obs.bw
        if nvms != len(members) or any(abs(a - b) > TOL for a, b in zip((cpu, mem, bw), expect)):
            found.append(f"tick {tick}: {sid} reads {cpu},{mem},{bw} ({nvms} VMs), "
                         f"expected {expect} ({len(members)} VMs)")
    return _problems(found)


def asleep_servers_empty(report) -> list[str]:
    """An asleep server reads zero usage and hosts no VM, in the captured SimReport."""
    hosts = {(tick, host) for tick, _, _, host in report.vm_samples if host is not None}
    found = [f"tick {tick}: asleep {sid} reads {cpu},{mem},{bw} with {nvms} VMs"
             for tick, sid, cpu, mem, bw, power, nvms in report.utilization
             if power == "asleep"
             and ((cpu, mem, bw) != (0.0, 0.0, 0.0) or nvms or (tick - 1, sid) in hosts)]
    return _problems(found)


def suspended_silent(files: SimFiles, report) -> list[str]:
    """After a suspend action a VM sends nothing (detector.csv) and is hosted nowhere (SimReport)."""
    found = []
    suspended = {a["vm"]: a["tick"] for a in files.alarms if a["action"] == "suspend"}
    for r in files.detector:
        t = suspended.get(r["vm_id"])
        if t is not None and int(r["interval"]) > t and (r["syn"] != "0" or r["finrst"] != "0"):
            found.append(f"{r['vm_id']} suspended at {t} sends {r['syn']}/{r['finrst']} "
                         f"at {r['interval']}")
    for tick, vm, _, host in report.vm_samples:
        t = suspended.get(vm)
        if t is not None and tick >= t and host is not None:
            found.append(f"{vm} suspended at {t} hosted on {host} at {tick}")
    return _problems(found)


def alarm_log_matches(files: SimFiles) -> list[str]:
    """alarms.json holds exactly the episode starts flagged in detector.csv."""
    logged = sorted((a["vm"], a["tick"]) for a in files.alarms)
    flagged = episodes(files.detector)
    if logged != flagged:
        return [f"alarms.json has {len(logged)} episodes, detector.csv flags {len(flagged)}"]
    return []


def counters_match(files: SimFiles) -> list[str]:
    """summary.json counters agree with the decision logs."""
    c = files.summary["counters"]
    found = []
    moves = c["migrations_overload"] + c["migrations_consolidate"]
    if moves != len(files.migrations):
        found.append(f"counters give {moves} migrations, migrations.json lists {len(files.migrations)}")
    rejected = sum(1 for p in files.placements if p["chosen"] is None)
    if rejected != c["rejections"]:
        found.append(f"counters give {c['rejections']} rejections, placements.json {rejected}")
    if c["alarms"] != len(files.alarms):
        found.append(f"counters give {c['alarms']} alarms, alarms.json {len(files.alarms)}")
    return found


def sim_outcomes(files: SimFiles, truth: Scenario) -> dict:
    """The deterministic decision metrics of one simulated scenario."""
    active = overload = 0
    for r in files.utilization:
        if r["tick"] == "0" or r["power"] != "active":
            continue
        active += 1
        limit = truth.threshold[r["server"]]
        if any(float(r[k]) >= lim for k, lim in zip(("cpu", "mem", "bw"), limit)):
            overload += 1
    starts = [(a["vm"], a["tick"]) for a in files.alarms]
    false_alarms, latencies = attack_outcomes(starts, files.detector, truth.attacks)
    return {
        "active_server_ticks": active,
        "overload_server_ticks": overload,
        "migrations": len(files.migrations),
        "rejections": sum(1 for p in files.placements if p["chosen"] is None),
        "false_alarms": false_alarms,
        "latencies": latencies,
        "vm_ticks": len(files.detector),
        "packets": sum(int(r["syn"]) + int(r["finrst"]) for r in files.detector),
    }


def check_simulation(files: SimFiles, truth: Scenario) -> dict[str, list[str]]:
    return {
        "cusum_recompute": cusum_rows(files.detector),
        "alarm_log": alarm_log_matches(files),
        "counters": counters_match(files),
        "attack_windows": attacked_vms_present(files.detector, truth.attacks),
    }


# --- offline trace pipeline -------------------------------------------------


def check_trace(specs: list[dict], trace_csv: str, stats_rows: list[dict], detect_out: dict,
                truth: Scenario) -> dict[str, list[str]]:
    """gen's trace carries every spec's packets; detect's outputs agree with a recomputation."""
    syn: dict[str, int] = {}
    fin: dict[str, int] = {}
    for r in stats_rows:
        syn[r["vm_id"]] = syn.get(r["vm_id"], 0) + int(r["syn"])
        fin[r["vm_id"]] = fin.get(r["vm_id"], 0) + int(r["finrst"])
    want_syn: dict[str, int] = {}
    want_fin: dict[str, int] = {}
    for s in specs:
        n = s["end"] - s["start"]
        if s["mode"] == "normal":
            want_syn[s["vm_id"]] = want_syn.get(s["vm_id"], 0) + s["base_rate"] * n
            want_fin[s["vm_id"]] = want_fin.get(s["vm_id"], 0) + s["base_rate"] * n
        else:
            per = round(s["base_rate"] * s["attack_multiplier"])
            want_syn[s["vm_id"]] = want_syn.get(s["vm_id"], 0) + per * n
    packets = [f"{vm}: {syn.get(vm, 0)} SYN / {fin.get(vm, 0)} FIN|RST, spec gives "
               f"{want_syn[vm]} / {want_fin.get(vm, 0)}"
               for vm in sorted(want_syn)
               if (syn.get(vm, 0), fin.get(vm, 0)) != (want_syn[vm], want_fin.get(vm, 0))]
    events = trace_csv.count("\n") - 1
    if events != sum(want_syn.values()) + sum(want_fin.values()):
        packets.append(f"trace.csv has {events} events, specs give "
                       f"{sum(want_syn.values()) + sum(want_fin.values())}")

    output = []
    logged = sorted((a["vm_id"], a["interval_index"]) for a in detect_out["alarms"])
    if logged != episodes(stats_rows):
        output.append(f"detect JSON lists {len(logged)} alarms, stats.csv flags "
                      f"{len(episodes(stats_rows))}")
    for r in stats_rows:
        series = detect_out["series"].get(r["vm_id"], [])
        idx = int(r["interval"])
        if idx >= len(series) or abs(series[idx] - float(r["y"])) > 1e-6 + TOL:
            output.append(f"{r['vm_id']}@{idx}: JSON series disagrees with stats.csv y {r['y']}")
            break
    return {
        "cusum_recompute": cusum_rows(stats_rows),
        "trace_packets": _problems(packets),
        "detect_output": output,
        "attack_windows": attacked_vms_present(stats_rows, truth.attacks),
    }


def trace_outcomes(stats_rows: list[dict], trace_csv: str, truth: Scenario) -> dict:
    false_alarms, latencies = attack_outcomes(episodes(stats_rows), stats_rows, truth.attacks)
    return {
        "false_alarms": false_alarms,
        "latencies": latencies,
        "vm_ticks": len(stats_rows),
        "packets": trace_csv.count("\n") - 1,
    }
