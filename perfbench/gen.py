"""Seeded input generators for the three benchmark workloads.

Nothing here imports vmshield: the program under test only ever sees the
JSON files these functions return.  Every draw comes from one
``random.Random(seed)``, so a seed maps to byte-identical inputs.

Each generator returns a ``Workload``: the input files, the ``vmshield``
command lines that consume them, and the ground truth the checks need
(attack windows, server overheads and thresholds, detector settings).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

CLASSES = ("cpu-intensive", "memory-intensive", "bandwidth-intensive")

# Defaults of vmshield.detector, restated so the checks stay independent.
DRIFT = 0.08
THRESHOLD = 1.43


@dataclass
class Scenario:
    """Ground truth of one generated scenario or trace."""

    name: str
    overhead: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    threshold: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    # (vm id, first attacked tick, first tick after the attack)
    attacks: list[tuple[str, int, int]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    kind: str  # "simulate" or "trace"
    files: dict[str, object]  # input files, written to <workdir>/in/
    scenarios: list[Scenario]
    shape: dict

    def commands(self, workdir: str) -> list[list[str]]:
        """The vmshield argument lists that run this workload in workdir."""
        p = lambda name: os.path.join(workdir, name)  # noqa: E731
        if self.kind == "simulate":
            return [["simulate", "--scenario",
                     *(p(os.path.join("in", s.name + ".json")) for s in self.scenarios),
                     "--out", p("out")]]
        return [
            ["gen", "--spec", p(os.path.join("in", "specs.json")), "--out", p("trace.csv")],
            ["detect", "--trace", p("trace.csv"), "--stats", p("stats.csv")],
        ]

    def report_dir(self, workdir: str, scenario: Scenario) -> str:
        """Where simulate writes one scenario's six report files."""
        out = os.path.join(workdir, "out")
        return os.path.join(out, scenario.name) if len(self.scenarios) > 1 else out


def _vec(cpu: float, mem: float, bw: float) -> dict:
    return {"cpu": cpu, "mem": mem, "bw": bw}


def _classes(rng: random.Random, major: tuple[float, float], minor: tuple[float, float]) -> dict:
    """One demand vector per hotspot class: a major component plus two minor ones."""
    out = {}
    for i, name in enumerate(CLASSES):
        comps = [round(rng.uniform(*minor), 2) for _ in range(3)]
        comps[i] = round(rng.uniform(*major), 2)
        out[name] = _vec(*comps)
    return out


def _servers(rng: random.Random, n: int, threshold: float, overhead: tuple[float, float],
             truth: Scenario) -> list[dict]:
    servers = []
    for i in range(n):
        sid = f"s{i:03d}"
        usage = tuple(round(rng.uniform(*overhead), 2) for _ in range(3))
        truth.overhead[sid] = usage
        truth.threshold[sid] = (threshold, threshold, threshold)
        servers.append({"id": sid, "threshold": _vec(threshold, threshold, threshold),
                        "usage": _vec(*usage)})
    return servers


def _vm(index: int) -> str:
    """The id vmshield's simulator gives the index-th requested VM (1-based)."""
    return f"vm-{index:03d}"


def fleet_steady(seed: int) -> Workload:
    """60 servers, 400 VMs placed over ticks 0-3, then a 75-tick steady run.

    Thresholds sit far above any reachable load and there is no low
    watermark, so neither overload migration nor consolidation can
    fire.  Eight timed SYN floods run under the throttle policy.
    """
    rng = random.Random(seed)
    n_servers, n_vms, duration, n_attacks = 60, 400, 75, 8
    truth = Scenario("fleet")
    servers = _servers(rng, n_servers, 95.0, (2.0, 6.0), truth)
    events: list[dict] = []
    for i in range(n_vms):
        events.append({"tick": i * 4 // n_vms, "op": "vm_request", "class": rng.choice(CLASSES)})
    for index in sorted(rng.sample(range(1, n_vms + 1), n_attacks)):
        start = rng.randint(10, 45)
        stop = start + rng.randint(10, 25)
        vm = _vm(index)
        truth.attacks.append((vm, start, stop))
        events.append({"tick": start, "op": "attack_start", "vm": vm,
                       "multiplier": round(rng.uniform(2.0, 4.0), 2)})
        events.append({"tick": stop, "op": "attack_stop", "vm": vm})
    events.sort(key=lambda e: e["tick"])
    scenario = {
        "servers": servers,
        "vm_classes": _classes(rng, (6.0, 9.0), (1.5, 4.0)),
        "events": events,
        "detector": {"policy": "throttle"},
        "base_rate": 100,
        "duration": duration,
        "seed": rng.randrange(2**31),
    }
    shape = {"servers": n_servers, "vms": n_vms, "ticks": duration, "attacks": n_attacks,
             "policy": "throttle", "base_rate": 100, "consolidation": False}
    return Workload("fleet_steady", "simulate", {"fleet.json": scenario}, [truth], shape)


def _churn_scenario(rng: random.Random, name: str, n_servers: int, duration: int,
                    period: int) -> tuple[dict, Scenario]:
    """VM population follows 50 + 30 sin(...) through requests and shutdowns every tick."""
    truth = Scenario(name)
    servers = _servers(rng, n_servers, 80.0, (2.0, 5.0), truth)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    events: list[dict] = []
    live: list[str] = []
    requested = 0
    for tick in range(duration):
        target = round(50 + 30 * math.sin(2.0 * math.pi * tick / period + phase))
        turnover = rng.randint(1, 2) if live else 0
        n_stop = min(len(live), turnover + max(0, len(live) - target))
        for _ in range(n_stop):
            vm = live.pop(rng.randrange(len(live)))
            events.append({"tick": tick, "op": "vm_shutdown", "vm": vm})
        for _ in range(max(0, target - len(live))):
            requested += 1
            live.append(_vm(requested))
            events.append({"tick": tick, "op": "vm_request", "class": rng.choice(CLASSES)})
    scenario = {
        "servers": servers,
        "vm_classes": _classes(rng, (14.0, 20.0), (3.0, 7.0)),
        "events": events,
        "detector": {"policy": "suspend"},
        "low_watermark": _vec(45.0, 45.0, 45.0),
        "base_rate": 20,
        "duration": duration,
        "seed": rng.randrange(2**31),
    }
    return scenario, truth


def churn_consolidate(seed: int) -> Workload:
    """Two 64-server scenarios with churning VMs, suspend policy and consolidation on."""
    rng = random.Random(seed)
    n_servers, duration, period = 64, 60, 60
    files, truths = {}, []
    for name in ("churn_a", "churn_b"):
        scenario, truth = _churn_scenario(rng, name, n_servers, duration, period)
        files[name + ".json"] = scenario
        truths.append(truth)
    shape = {"scenarios": 2, "servers": n_servers, "ticks": duration, "vms_live": [20, 80],
             "period": period, "policy": "suspend", "base_rate": 20, "low_watermark": 45.0}
    return Workload("churn_consolidate", "simulate", files, truths, shape)


def trace_pipeline(seed: int) -> Workload:
    """`gen` from 40 normal specs plus 4 flood specs, then `detect --stats` on the trace."""
    rng = random.Random(seed)
    n_vms, base_rate, intervals, n_floods = 40, 25, 60, 4
    truth = Scenario("trace")
    specs = []
    vms = [f"vm-{i:02d}" for i in range(n_vms)]
    for vm in vms:
        specs.append({"vm_id": vm, "mode": "normal", "base_rate": base_rate,
                      "start": 0, "end": intervals, "seed": rng.randrange(2**31)})
    for vm in sorted(rng.sample(vms, n_floods)):
        start = rng.randint(10, 35)
        stop = start + rng.randint(10, 20)
        truth.attacks.append((vm, start, stop))
        specs.append({"vm_id": vm, "mode": "attack", "base_rate": base_rate,
                      "attack_multiplier": round(rng.uniform(2.0, 4.0), 2),
                      "start": start, "end": stop, "seed": rng.randrange(2**31)})
    shape = {"normal_vms": n_vms, "floods": n_floods, "intervals": intervals,
             "base_rate": base_rate}
    return Workload("trace_pipeline", "trace", {"specs.json": {"specs": specs}}, [truth], shape)


WORKLOADS = {
    "fleet_steady": fleet_steady,
    "churn_consolidate": churn_consolidate,
    "trace_pipeline": trace_pipeline,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
