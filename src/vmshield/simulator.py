"""Deterministic tick-driven datacenter simulation.

One tick spans one detector sampling interval (10 s of simulated time
by default).  Each tick applies, in fixed order:

1. scenario events: VM requests placed through the scheduler (with an
   optional wake-and-retry on rejection), shutdowns, revocations, and
   attack toggles;
2. usage sampling: one (running VMs x 3) block of +/-10% uniform
   jitter, drawn in sorted-VM order, scales each running VM's class
   demand vector; server usage is recomputed as overhead plus the
   hosted sum;
3. traffic and detection: the run's traffic generator draws every
   running VM's connection offsets and FIN delays in two calls, in
   sorted-VM order, and one bincount adds each VM's FINs to its row of
   pending-FIN columns (column k holds the FINs due k ticks from now);
   the live VMs' column 0 and their SYN counts (0 for a suspended VM)
   go to the run's CUSUM detector in one batched call, its rows join
   the columnar statistic log, and the columns shift left by one.  The
   response policy then acts, in sorted-VM order, on each VM whose
   alarm episode starts this tick;
4. one migration pass off the hottest overloaded server, if any plan
   qualifies;
5. a consolidation pass draining under-watermark servers to sleep;
6. log emission.

Everything random comes from two generators per run, seeded by
(scenario seed, stream index): stream 0 draws the usage jitter and
stream 1 the traffic.  Every iteration runs in sorted order, so a
scenario and seed map to byte-identical reports.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import detector as det
from . import scheduler as sched
from .ahp import HotspotProfile, derive_weights
from .errors import ParseError, ValidationError
from .resources import (ZERO, ResourceVector, json_bool, json_int, json_list, json_number, json_object,
                        json_str, read_json_file, weighted_score, write_text_file)
from .scheduler import ServerState, VmRecord, read_class
from .traffic import DEFAULT_FIN_DELAY_RANGE, _delay_bounds_us, read_delay_range

RUNNING = "running"
STOPPED = "stopped"
SUSPENDED = "suspended"
REVOKED = "revoked"
# the counter _Sim._set_state bumps on entering each state, and the event op that enters it
_STATE_COUNTER = {STOPPED: "shutdowns", REVOKED: "revocations", SUSPENDED: "suspensions"}
_OP_STATE = {"vm_shutdown": STOPPED, "vm_revoke": REVOKED}

REPORT_FILES = (
    "utilization.csv",
    "placements.json",
    "migrations.json",
    "detector.csv",
    "alarms.json",
    "summary.json",
)


_DETECTOR_KEYS = {"drift": json_number, "threshold": json_number, "interval_seconds": json_number,
                  "policy": json_str, "throttle_factor": json_number}


@dataclass(frozen=True)
class DetectorConfig:
    drift: float = det.DEFAULT_DRIFT
    threshold: float = det.DEFAULT_THRESHOLD
    interval_seconds: float = det.DEFAULT_INTERVAL_SECONDS
    policy: str = "log"
    throttle_factor: float = det.DEFAULT_THROTTLE_FACTOR

    @classmethod
    def from_json(cls, obj: dict, where: str = "detector") -> "DetectorConfig":
        cfg = cls(**json_object(obj, where, _DETECTOR_KEYS))
        for key in ("drift", "threshold", "interval_seconds", "throttle_factor"):
            if not math.isfinite(getattr(cfg, key)):
                raise ValidationError(f"detector {key} must be finite, got {getattr(cfg, key)}")
        if cfg.policy not in det.POLICIES:
            raise ValidationError(
                f"detector policy must be one of {det.POLICIES}, got {cfg.policy!r}"
            )
        try:
            det.CusumDetector(cfg.drift, cfg.threshold)
            det._interval_to_us(cfg.interval_seconds)
        except ValueError as exc:
            raise ValidationError(f"detector {exc}") from exc
        if not 0 <= cfg.throttle_factor <= 1:
            raise ValidationError("throttle_factor must lie in [0, 1]")
        return cfg


@dataclass(frozen=True)
class ScenarioEvent:
    tick: int
    op: str
    vm_class: str | None = None
    count: int = 1
    vm: str | None = None
    multiplier: float = 1.0


_VM_EVENT = {"tick": json_int, "op": json_str, "vm": json_str}

# op -> (key readers, required keys) of an event with that op
_EVENT_KEYS = {
    "vm_request": ({"tick": json_int, "op": json_str, "class": read_class, "count": json_int},
                   ("tick", "op", "class")),
    "vm_shutdown": (_VM_EVENT, tuple(_VM_EVENT)),
    "vm_revoke": (_VM_EVENT, tuple(_VM_EVENT)),
    "attack_start": ({**_VM_EVENT, "multiplier": json_number}, (*_VM_EVENT, "multiplier")),
    "attack_stop": (_VM_EVENT, tuple(_VM_EVENT)),
}
EVENT_OPS = tuple(_EVENT_KEYS)


def _read_event(obj, where: str) -> ScenarioEvent:
    """One event object, read against the key table of its op."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a JSON object")
    op = obj.get("op")
    if op not in EVENT_OPS:
        raise ParseError(f"{where}.op must be one of {EVENT_OPS}, got {op!r}")
    fields = json_object(obj, where, *_EVENT_KEYS[op])
    if "class" in fields:
        fields["vm_class"] = fields.pop("class")
    return ScenarioEvent(**fields)


def _read_vm_classes(value, name: str) -> dict[str, ResourceVector]:
    """The class -> demand vector object; keys are hotspot class names, each given once."""
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be a JSON object")
    vm_classes = {}
    for key, vec in value.items():
        where = f"{name}.{key}"
        canon = read_class(key, where)
        if canon in vm_classes:
            raise ParseError(f"{where}: class {canon!r} is given twice")
        vm_classes[canon] = ResourceVector.from_json(vec, where)
    return vm_classes


def _read_scenario_servers(value, name: str) -> list[ServerState]:
    servers = json_list(value, name, ServerState.from_json)
    for i, s in enumerate(servers):
        if s.vms:
            raise ParseError(f"{name}[{i}].vms: scenario servers start empty; "
                             "VMs come only from vm_request events")
    return servers


_SCENARIO_KEYS = {
    "servers": _read_scenario_servers,
    "vm_classes": _read_vm_classes,
    "events": lambda value, name: json_list(value, name, _read_event),
    "detector": DetectorConfig.from_json,
    "low_watermark": lambda value, name: None if value is None else ResourceVector.from_json(value, name),
    "base_rate": json_int, "fin_delay_range": read_delay_range, "duration": json_int, "seed": json_int,
    "wake_on_reject": json_bool,
}


@dataclass
class Scenario:
    """A validated simulation input: initial cluster, classes, events, knobs."""

    servers: list[ServerState]
    vm_classes: dict[str, ResourceVector] = field(default_factory=dict)
    events: list[ScenarioEvent] = field(default_factory=list)
    detector: DetectorConfig = DetectorConfig()
    low_watermark: ResourceVector | None = None
    base_rate: int = 100
    fin_delay_range: tuple[float, float] = DEFAULT_FIN_DELAY_RANGE
    duration: int = 0
    seed: int = 0
    wake_on_reject: bool = True

    @classmethod
    def from_json(cls, obj: dict) -> "Scenario":
        scenario = cls(**json_object(obj, "", _SCENARIO_KEYS, ("servers",), "scenario"))
        scenario.validate()
        return scenario

    def validate(self) -> None:
        if self.duration < 0:
            raise ValidationError("duration must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.base_rate < 0:
            raise ValidationError("base_rate must be >= 0")
        try:
            _delay_bounds_us(self.fin_delay_range)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if not self.servers:
            raise ValidationError("scenario needs at least one server")
        sched.validate_servers(self.servers)
        for ev in self.events:
            if not 0 <= ev.tick < self.duration:
                raise ValidationError(
                    f"event tick {ev.tick} outside [0, {self.duration})"
                )
            if ev.op == "vm_request":
                if ev.vm_class not in self.vm_classes:
                    raise ValidationError(
                        f"vm_request class {ev.vm_class!r} has no entry in vm_classes"
                    )
                if ev.count < 1:
                    raise ValidationError("vm_request count must be >= 1")
            if ev.op == "attack_start" and not 1.0 <= ev.multiplier < math.inf:
                raise ValidationError(f"attack multiplier must be finite and >= 1, got {ev.multiplier}")
            if ev.op == "attack_start" and not self.base_rate * ev.multiplier < det.MAX_COUNT:
                raise ValidationError(f"attack multiplier {ev.multiplier} times base_rate "
                                      f"{self.base_rate} must stay below {det.MAX_COUNT} SYNs a tick")
        # Walk events in execution order so every reference names a VM id
        # that has been requested by then and not yet revoked.  Ids are
        # matched by index, so a huge count costs nothing here.
        created = 0
        revoked: set[str] = set()
        for ev in sorted(self.events, key=lambda e: e.tick):
            if ev.op == "vm_request":
                created += ev.count
                continue
            if not 1 <= _vm_index(ev.vm) <= created:
                raise ValidationError(
                    f"event at tick {ev.tick} references unknown vm {ev.vm!r}"
                )
            if ev.vm in revoked:
                raise ValidationError(
                    f"event at tick {ev.tick} references revoked vm {ev.vm!r}"
                )
            if ev.op == "vm_revoke":
                revoked.add(ev.vm)


def _vm_name(index: int) -> str:
    return f"vm-{index:03d}"


def _vm_index(name: str) -> int:
    """The index _vm_name turns into name, or 0 if it never does."""
    match = re.fullmatch(r"vm-([0-9]+)", name)
    return int(match[1]) if match and _vm_name(int(match[1])) == name else 0


def load_scenario(path: str) -> Scenario:
    """The scenario in the JSON file at path; every error starts with path."""
    return read_json_file(path, Scenario.from_json)


@dataclass
class SimVm(VmRecord):
    """Runtime state of one VM: its scheduler record plus traffic state."""

    fin_row: int = 0  # this VM's row of _Sim.fin_due
    state: str = RUNNING
    traffic_scale: float = 1.0
    attack_multiplier: float = 1.0


@dataclass
class SimReport:
    """Every decision and metric of one run, in emission order."""

    utilization: list[tuple] = field(default_factory=list)
    placements: list[dict] = field(default_factory=list)
    migrations: list[dict] = field(default_factory=list)
    power_events: list[dict] = field(default_factory=list)
    stat_rows: det.StatLog = field(default_factory=det.StatLog)
    alarms: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # in-memory only: per-tick (tick, vm, observed, host) samples for invariant checks
    vm_samples: list[tuple] = field(default_factory=list)


class _Sim:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.servers: dict[str, ServerState] = {  # in id order, for every pass
            s.id: ServerState(s.id, threshold=s.threshold, power=s.power)
            for s in sorted(scenario.servers, key=lambda s: s.id)
        }
        self.overhead = {s.id: s.usage for s in scenario.servers}
        self.records: dict[str, VmRecord] = {}  # the scheduler's view: vms less the revoked ones
        self.vms: dict[str, SimVm] = {}
        for sid in self.servers:
            self._recompute_usage(sid)
        self.jitter_rng = np.random.default_rng([scenario.seed, 0])
        self.traffic_rng = np.random.default_rng([scenario.seed, 1])
        self.detector = det.CusumDetector(scenario.detector.drift, scenario.detector.threshold)
        self.events_at: dict[int, list[ScenarioEvent]] = {}
        for ev in scenario.events:
            self.events_at.setdefault(ev.tick, []).append(ev)
        self.next_vm = 0
        self.seq = 0
        self.report = SimReport()
        self.counters = {
            "placements": 0,
            "rejections": 0,
            "migrations_overload": 0,
            "migrations_consolidate": 0,
            "alarms": 0,
            "sleeps": 0,
            "wakes": 0,
            "shutdowns": 0,
            "revocations": 0,
            "suspensions": 0,
            "ignored_events": 0,
        }
        self.iv_us = iv_us = det._interval_to_us(scenario.detector.interval_seconds)
        self.fin_lo_us, self.fin_hi_us = _delay_bounds_us(scenario.fin_delay_range)
        # FIN slots a connection can land in: this tick's plus the ones ahead
        self.fin_slots = (iv_us - 1 + self.fin_hi_us) // iv_us + 1
        # FINs due per VM row, k ticks from now in column k; grown as VMs are placed
        self.fin_due = np.zeros((0, self.fin_slots), dtype=np.int64)

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _server_list(self) -> list[ServerState]:
        return list(self.servers.values())

    def _recompute_usage(self, sid: str) -> None:
        """The one writer of server usage, bar placement's provisional add."""
        server = self.servers[sid]
        if not server.active:
            server.usage = ZERO
            return
        cpu, mem, bw = self.overhead[sid].as_tuple()
        for vid in sorted(server.vms):
            observed = self.records[vid].observed
            cpu, mem, bw = cpu + observed.cpu, mem + observed.mem, bw + observed.bw
        server.usage = ResourceVector(cpu, mem, bw)

    def _rehost(self, vm: SimVm, target: str | None) -> None:
        """Move vm from its host, if any, to target (None: to no server)."""
        source = vm.host
        if source is not None:
            self.servers[source].vms.discard(vm.id)
        if target is not None:
            self.servers[target].vms.add(vm.id)
        vm.host = target
        for sid in (source, target):
            if sid is not None:
                self._recompute_usage(sid)

    def _set_state(self, vm: SimVm, state: str) -> None:
        """Stop, revoke or suspend vm: it leaves its host and its pending FINs are dropped."""
        self._rehost(vm, None)
        self.fin_due[vm.fin_row] = 0
        vm.state = state
        self.counters[_STATE_COUNTER[state]] += 1
        if state == REVOKED:
            self.records.pop(vm.id)

    def _power_event(self, tick: int, sid: str, event: str) -> None:
        """Log a server's "wake" or "sleep", its power already set."""
        self._recompute_usage(sid)
        self.counters[f"{event}s"] += 1
        self.report.power_events.append(
            {"tick": tick, "seq": self._next_seq(), "server": sid, "event": event}
        )

    # phase 1 -----------------------------------------------------------

    def _apply_events(self, tick: int) -> None:
        for ev in self.events_at.get(tick, ()):
            if ev.op == "vm_request":
                for _ in range(ev.count):
                    self._request_vm(tick, ev.vm_class)
                continue
            vm = self._event_vm(ev.vm)
            if vm is None:
                continue
            if ev.op in _OP_STATE:
                self._set_state(vm, _OP_STATE[ev.op])
            else:  # attack_start, or attack_stop with its default multiplier of 1
                vm.attack_multiplier = ev.multiplier

    def _event_vm(self, vm_id: str) -> SimVm | None:
        """The VM an event names; None, counted as ignored, if it was rejected or revoked."""
        vm = self.vms.get(vm_id)
        if vm is None or vm.state == REVOKED:
            self.counters["ignored_events"] += 1
            return None
        return vm

    def _request_vm(self, tick: int, vm_class: str) -> None:
        self.next_vm += 1
        vm_id = _vm_name(self.next_vm)
        demand = sched.estimate_demand_first_start(vm_class, self.records, self.sc.vm_classes)
        weights = derive_weights(HotspotProfile(demand))
        decision = sched.place(demand, weights, self._server_list())
        woken = None
        if decision.rejected and self.sc.wake_on_reject:
            woken = sched.wake_server(self._server_list())
            if woken is not None:
                self._power_event(tick, woken, "wake")
                decision = sched.place(demand, weights, self._server_list())
        entry = {
            "tick": tick,
            "seq": self._next_seq(),
            "vm": vm_id,
            "class": vm_class,
            "demand": _round_rv(demand),
            "weights": _round_map(weights.to_json()),
            "scores": {sid: round(v, 6) for sid, v in sorted(decision.scores.items())},
            "chosen": decision.chosen,
            "reason": decision.reason,
            "woke": woken,
        }
        self.report.placements.append(entry)
        if decision.rejected:
            self.counters["rejections"] += 1
            return
        host = self.servers[decision.chosen]
        host.vms.add(vm_id)
        host.usage = host.usage + demand
        row = len(self.vms)
        if row == len(self.fin_due):
            self.fin_due = np.vstack([self.fin_due, np.zeros((row + 8, self.fin_slots), np.int64)])
        vm = SimVm(vm_id, vm_class, observed=demand, host=decision.chosen, fin_row=row)
        self.records[vm_id] = self.vms[vm_id] = vm
        self.counters["placements"] += 1

    # phase 2 -----------------------------------------------------------

    def _sample_usage(self) -> None:
        running = [vm for vm in map(self.vms.get, sorted(self.vms)) if vm.state == RUNNING]
        base = np.array([self.sc.vm_classes[vm.hotspot_class].as_tuple()
                         for vm in running]).reshape(-1, 3)
        jitter = self.jitter_rng.uniform(-0.1, 0.1, base.shape)
        for vm, (cpu, mem, bw) in zip(running, (base * (1.0 + jitter)).tolist()):
            observed = ResourceVector(cpu, mem, bw)
            vm.observed = observed
            vm.history.append(observed)
        for sid in self.servers:
            self._recompute_usage(sid)

    # phase 3 -----------------------------------------------------------

    def _traffic_and_detect(self, tick: int) -> None:
        rate = self.sc.base_rate
        vm_ids = [vm_id for vm_id in sorted(self.vms)
                  if self.vms[vm_id].state in (RUNNING, SUSPENDED)]
        live = list(map(self.vms.__getitem__, vm_ids))
        # a suspended VM stays in the detector's batch but sends nothing
        scale = np.array([vm.traffic_scale if vm.state == RUNNING else 0.0 for vm in live])
        multiplier = np.array([vm.attack_multiplier for vm in live])
        # np.rint rounds half to even, as round() does
        n_pair = np.rint(rate * scale).astype(np.int64)
        syn = n_pair + np.rint(rate * (multiplier - 1.0) * scale).astype(np.int64)
        # every sending VM's paired connections in two draws, in sorted-VM order
        total = int(n_pair.sum())
        offsets = self.traffic_rng.integers(0, self.iv_us, total)
        delays = self.traffic_rng.integers(self.fin_lo_us, self.fin_hi_us, total, endpoint=True)
        slots = (np.repeat(np.arange(len(live)) * self.fin_slots, n_pair)
                 + (offsets + delays) // self.iv_us)
        fins = np.bincount(slots, minlength=len(live) * self.fin_slots).reshape(-1, self.fin_slots)
        # fins[:, k] is due k ticks from now, as is column k of fin_due
        rows = [vm.fin_row for vm in live]
        self.fin_due[rows] += fins
        finrst = self.fin_due[rows, 0]
        self.fin_due[:, :-1] = self.fin_due[:, 1:]
        self.fin_due[:, -1] = 0
        d, y, alarm = self.detector.observe(vm_ids, syn, finrst)
        self.report.stat_rows.append(tick, vm_ids, syn, finrst, d, y, alarm)
        policy = self.sc.detector.policy
        for k in np.flatnonzero(alarm).tolist():
            vm = live[k]
            self.counters["alarms"] += 1
            if policy == "throttle":
                vm.traffic_scale = self.sc.detector.throttle_factor
                detail = f"traffic scaled to {vm.traffic_scale}"
            elif policy == "suspend":
                self._set_state(vm, SUSPENDED)
                detail = "detached from network"
            else:
                detail = "recorded"
            self.report.alarms.append({
                "tick": tick, "seq": self._next_seq(), "vm": vm.id, "y": round(float(y[k]), 6),
                "action": policy, "detail": detail,
            })

    # phase 4 -----------------------------------------------------------

    def _migrate(self, tick: int) -> None:
        plan = sched.plan_migration(self._server_list(), self.records)
        if plan is None:
            return
        self._rehost(self.vms[plan.victim], plan.target)
        self.counters["migrations_overload"] += 1
        self.report.migrations.append(_migration_entry(tick, self._next_seq(), plan))

    # phase 5 -----------------------------------------------------------

    def _consolidate(self, tick: int) -> None:
        if self.sc.low_watermark is None:
            return
        plans, sleeps = sched.consolidate(
            self._server_list(), self.records, self.sc.low_watermark, self.sc.vm_classes
        )
        for plan in plans:
            self._rehost(self.vms[plan.victim], plan.target)
            self.counters["migrations_consolidate"] += 1
            self.report.migrations.append(_migration_entry(tick, self._next_seq(), plan))
        for sid in sleeps:
            server = self.servers[sid]
            if server.vms:
                raise AssertionError(f"cannot sleep {sid}: still hosts {sorted(server.vms)}")
            server.power = sched.ASLEEP
            self._power_event(tick, sid, "sleep")

    # phase 6 -----------------------------------------------------------

    def _emit_logs(self, completed_ticks: int, sample_tick: int | None) -> None:
        for sid, s in self.servers.items():
            self.report.utilization.append(
                (completed_ticks, sid, s.usage.cpu, s.usage.mem, s.usage.bw, s.power, len(s.vms))
            )
        if sample_tick is not None:
            for vm_id in sorted(self.vms):
                vm = self.vms[vm_id]
                if vm.state in (RUNNING, SUSPENDED, STOPPED):
                    self.report.vm_samples.append(
                        (sample_tick, vm_id, vm.observed, vm.host)
                    )

    # driver ------------------------------------------------------------

    def step(self, tick: int) -> None:
        self._apply_events(tick)
        self._sample_usage()
        self._traffic_and_detect(tick)
        self._migrate(tick)
        self._consolidate(tick)
        self._emit_logs(tick + 1, tick)

    def run(self) -> SimReport:
        self._emit_logs(0, None)
        for tick in range(self.sc.duration):
            self.step(tick)
        self.report.summary = self._summary()
        return self.report

    def _summary(self) -> dict:
        states = {}
        for vm_id in sorted(self.vms):
            vm = self.vms[vm_id]
            states[vm_id] = {
                "class": vm.hotspot_class,
                "state": vm.state,
                "host": vm.host,
            }
        servers = {}
        for sid, s in self.servers.items():
            servers[sid] = {
                "power": s.power,
                "vms": len(s.vms),
                "usage": _round_rv(s.usage),
                "score_uniform": round(weighted_score(sched.UNIFORM_WEIGHTS, s.usage), 6),
            }
        return {
            "duration": self.sc.duration,
            "seed": self.sc.seed,
            "base_rate": self.sc.base_rate,
            "detector": asdict(self.sc.detector),
            "counters": dict(sorted(self.counters.items())),
            "power_events": self.report.power_events,
            "final": {"servers": servers, "vms": states},
        }


def _round_rv(v: ResourceVector) -> dict:
    return {"cpu": round(v.cpu, 6), "mem": round(v.mem, 6), "bw": round(v.bw, 6)}


def _round_map(obj: dict) -> dict:
    return {k: round(v, 9) for k, v in obj.items()}


def _migration_entry(tick: int, seq: int, plan: sched.MigrationPlan) -> dict:
    return {
        "tick": tick,
        "seq": seq,
        "kind": plan.kind,
        "vm": plan.victim,
        "from": plan.source,
        "to": plan.target,
        "source_post_score": round(plan.source_post_score, 6),
        "target_score": round(plan.target_score, 6),
    }


def run(scenario: Scenario) -> SimReport:
    """Fold the tick step over [0, duration); pure in (scenario, seed)."""
    return _Sim(scenario).run()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_reports(report: SimReport, outdir: str) -> list[str]:
    """Write the six report files; returns their paths.

    CSV files are comma-separated with a header row and LF endings;
    floats use 6 decimal places.  Identical reports produce identical
    bytes, so reruns into the same directory are no-ops content-wise.
    """
    os.makedirs(outdir, exist_ok=True)
    util_lines = ["tick,server,cpu,mem,bw,power,vms"]
    for tick, sid, cpu, mem, bw, power, nvms in report.utilization:
        util_lines.append(f"{tick},{sid},{cpu:.6f},{mem:.6f},{bw:.6f},{power},{nvms}")
    files = {
        "utilization.csv": "\n".join(util_lines) + "\n",
        "placements.json": _json_text(report.placements),
        "migrations.json": _json_text(report.migrations),
        "detector.csv": det.stat_rows_to_csv(report.stat_rows),
        "alarms.json": _json_text(report.alarms),
        "summary.json": _json_text(report.summary),
    }
    paths = []
    for name, text in files.items():
        path = os.path.join(outdir, name)
        write_text_file(path, text, "report")
        paths.append(path)
    return paths
