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
   a FIN ring (one column per interval a FIN can land in, tick t in
   column t % fin_slots); the live VMs' column of this tick and their
   SYN counts (0 for a suspended VM) go to the run's CUSUM detector in
   one batched call, its rows join the columnar statistic log, and the
   response policy acts, in sorted-VM order, on each VM whose alarm
   episode starts this tick;
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
from dataclasses import dataclass, field

import numpy as np

from . import detector as det
from . import scheduler as sched
from .ahp import HotspotProfile, derive_weights
from .errors import ParseError, ValidationError
from .resources import ZERO, ResourceVector, json_int, json_number, weighted_score
from .scheduler import ServerState, VmRecord, normalize_class
from .traffic import DEFAULT_FIN_DELAY_RANGE

EVENT_OPS = ("vm_request", "vm_shutdown", "vm_revoke", "attack_start", "attack_stop")

RUNNING = "running"
STOPPED = "stopped"
SUSPENDED = "suspended"
REVOKED = "revoked"

REPORT_FILES = (
    "utilization.csv",
    "placements.json",
    "migrations.json",
    "detector.csv",
    "alarms.json",
    "summary.json",
)


_DETECTOR_NUMBERS = ("drift", "threshold", "interval_seconds", "throttle_factor")


@dataclass(frozen=True)
class DetectorConfig:
    drift: float = det.DEFAULT_DRIFT
    threshold: float = det.DEFAULT_THRESHOLD
    interval_seconds: float = det.DEFAULT_INTERVAL_SECONDS
    policy: str = "log"
    throttle_factor: float = det.DEFAULT_THROTTLE_FACTOR

    @classmethod
    def from_json(cls, obj: dict) -> "DetectorConfig":
        if not isinstance(obj, dict):
            raise ParseError("detector must be a JSON object")
        try:
            fields = dict(obj)
            for key in _DETECTOR_NUMBERS:
                if key in fields:
                    fields[key] = json_number(fields[key], f"detector {key}")
            cfg = cls(**fields)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad detector config: {exc}") from exc
        for key in _DETECTOR_NUMBERS:
            if not math.isfinite(getattr(cfg, key)):
                raise ValidationError(f"detector {key} must be finite, got {getattr(cfg, key)}")
        if cfg.policy not in det.POLICIES:
            raise ValidationError(
                f"detector policy must be one of {det.POLICIES}, got {cfg.policy!r}"
            )
        if cfg.threshold <= cfg.drift:
            raise ValidationError(
                f"detector threshold {cfg.threshold} must exceed drift {cfg.drift}"
            )
        if round(cfg.interval_seconds * 1_000_000) < 1:
            raise ValidationError("detector interval_seconds must be at least 1 microsecond, "
                                  f"got {cfg.interval_seconds}")
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


@dataclass
class Scenario:
    """A validated simulation input: initial cluster, classes, events, knobs."""

    servers: list[ServerState]
    vm_classes: dict[str, ResourceVector]
    events: list[ScenarioEvent]
    detector: DetectorConfig = DetectorConfig()
    low_watermark: ResourceVector | None = None
    base_rate: int = 100
    fin_delay_range: tuple[float, float] = DEFAULT_FIN_DELAY_RANGE
    duration: int = 0
    seed: int = 0
    wake_on_reject: bool = True

    @classmethod
    def from_json(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict):
            raise ParseError("scenario must be a JSON object")
        known = {
            "servers", "vm_classes", "events", "detector", "low_watermark",
            "base_rate", "fin_delay_range", "duration", "seed", "wake_on_reject",
        }
        unknown = set(obj) - known
        if unknown:
            raise ParseError(f"unknown scenario fields: {sorted(unknown)}")
        if "servers" not in obj:
            raise ParseError("scenario missing required field 'servers'")
        duration = json_int(obj.get("duration", 0), "duration")
        seed = json_int(obj.get("seed", 0), "seed")
        base_rate = json_int(obj.get("base_rate", 100), "base_rate")
        wake = obj.get("wake_on_reject", True)
        if not isinstance(wake, bool):
            raise ParseError(f"wake_on_reject must be a JSON bool, got {wake!r}")

        servers = sched.servers_from_json(obj["servers"])
        for i, s in enumerate(servers):
            if s.vms:
                raise ParseError(f"servers[{i}].vms: scenario servers start empty; "
                                 "VMs come only from vm_request events")

        raw_classes = obj.get("vm_classes", {})
        if not isinstance(raw_classes, dict):
            raise ParseError("vm_classes must be a JSON object")
        vm_classes = {}
        for name, vec in raw_classes.items():
            try:
                canon = normalize_class(name)
                vector = ResourceVector.from_json(vec)
            except (ParseError, ValueError) as exc:
                raise ParseError(f"vm_classes.{name}: {exc}") from exc
            if canon in vm_classes:
                raise ParseError(f"vm_classes.{name}: class {canon!r} is given twice")
            vm_classes[canon] = vector

        raw_events = obj.get("events", [])
        if not isinstance(raw_events, list):
            raise ParseError("events must be a JSON array")
        events = []
        for i, e in enumerate(raw_events):
            if not isinstance(e, dict) or "tick" not in e or "op" not in e:
                raise ParseError(f"events[{i}]: needs integer tick and op")
            tick = json_int(e["tick"], f"events[{i}].tick")
            op = e["op"]
            if op not in EVENT_OPS:
                raise ParseError(f"events[{i}]: op must be one of {EVENT_OPS}, got {op!r}")
            kwargs = {"tick": tick, "op": op}
            try:
                if op == "vm_request":
                    kwargs["vm_class"] = normalize_class(e["class"])
                    kwargs["count"] = json_int(e.get("count", 1), f"events[{i}].count")
                else:
                    if not isinstance(e["vm"], str):
                        raise ParseError(f"events[{i}].vm must be a JSON string, got {e['vm']!r}")
                    kwargs["vm"] = e["vm"]
                if op == "attack_start":
                    kwargs["multiplier"] = json_number(e["multiplier"], f"events[{i}].multiplier")
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"events[{i}]: {exc}") from exc
            events.append(ScenarioEvent(**kwargs))

        detector_cfg = DetectorConfig.from_json(obj.get("detector", {}))
        low = obj.get("low_watermark")
        try:
            low_watermark = None if low is None else ResourceVector.from_json(low)
        except ParseError as exc:
            raise ParseError(f"low_watermark: {exc}") from exc
        fin_range = obj.get("fin_delay_range", list(DEFAULT_FIN_DELAY_RANGE))
        if not isinstance(fin_range, list) or len(fin_range) != 2:
            raise ParseError(f"fin_delay_range must be a [low, high] array: {fin_range!r}")
        fin_low, fin_high = (json_number(v, f"fin_delay_range[{k}]") for k, v in enumerate(fin_range))

        scenario = cls(
            servers=servers,
            vm_classes=vm_classes,
            events=events,
            detector=detector_cfg,
            low_watermark=low_watermark,
            base_rate=base_rate,
            fin_delay_range=(fin_low, fin_high),
            duration=duration,
            seed=seed,
            wake_on_reject=wake,
        )
        scenario.validate()
        return scenario

    def validate(self) -> None:
        if self.duration < 0:
            raise ValidationError("duration must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.base_rate < 0:
            raise ValidationError("base_rate must be >= 0")
        if not 0 < self.fin_delay_range[0] <= self.fin_delay_range[1] < math.inf:
            raise ValidationError(
                f"fin_delay_range must satisfy 0 < low <= high < inf: {self.fin_delay_range}"
            )
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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return Scenario.from_json(obj)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


@dataclass
class SimVm:
    """Runtime state of one VM: scheduler record plus traffic state."""

    record: VmRecord
    fin_row: int  # this VM's row of _Sim.fin_ring
    state: str = RUNNING
    traffic_scale: float = 1.0
    attack_multiplier: float = 1.0

    @property
    def id(self) -> str:
        return self.record.id


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
        self.servers: dict[str, ServerState] = {
            s.id: ServerState(
                s.id,
                usage=s.usage if s.power == sched.ACTIVE else ZERO,
                threshold=s.threshold,
                power=s.power,
            )
            for s in scenario.servers
        }
        self.overhead = {s.id: s.usage for s in scenario.servers}
        self.records: dict[str, VmRecord] = {}
        self.vms: dict[str, SimVm] = {}
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
        iv_us = round(scenario.detector.interval_seconds * 1_000_000)
        self.iv_us = iv_us
        self.fin_lo_us = round(scenario.fin_delay_range[0] * 1_000_000)
        self.fin_hi_us = round(scenario.fin_delay_range[1] * 1_000_000)
        # FIN slots a connection can land in: this tick's plus the ones ahead
        self.fin_slots = (iv_us - 1 + self.fin_hi_us) // iv_us + 1
        # FINs due per VM row, tick t in column t % fin_slots; grown as VMs are placed
        self.fin_ring = np.zeros((0, self.fin_slots), dtype=np.int64)

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _server_list(self) -> list[ServerState]:
        return [self.servers[sid] for sid in sorted(self.servers)]

    def _recompute_usage(self, sid: str) -> None:
        server = self.servers[sid]
        if not server.active:
            server.usage = ZERO
            return
        cpu, mem, bw = self.overhead[sid].as_tuple()
        for vid in sorted(server.vms):
            observed = self.records[vid].observed
            cpu, mem, bw = cpu + observed.cpu, mem + observed.mem, bw + observed.bw
        server.usage = ResourceVector(cpu, mem, bw)

    def _detach(self, vm: SimVm) -> None:
        host = vm.record.host
        if host is not None:
            self.servers[host].vms.discard(vm.id)
            vm.record.host = None
            self._recompute_usage(host)
        self.fin_ring[vm.fin_row] = 0

    def _wake(self, tick: int) -> str | None:
        woken = sched.wake_server(self._server_list())
        if woken is not None:
            self.servers[woken].usage = self.overhead[woken]
            self.counters["wakes"] += 1
            self.report.power_events.append(
                {"tick": tick, "seq": self._next_seq(), "server": woken, "event": "wake"}
            )
        return woken

    # phase 1 -----------------------------------------------------------

    def _apply_events(self, tick: int) -> None:
        for ev in self.events_at.get(tick, ()):
            if ev.op == "vm_request":
                for _ in range(ev.count):
                    self._request_vm(tick, ev.vm_class)
            elif ev.op == "vm_shutdown":
                self._lifecycle(tick, ev.vm, STOPPED)
            elif ev.op == "vm_revoke":
                self._lifecycle(tick, ev.vm, REVOKED)
            elif ev.op == "attack_start":
                self._set_attack(ev.vm, ev.multiplier)
            elif ev.op == "attack_stop":
                self._set_attack(ev.vm, 1.0)

    def _request_vm(self, tick: int, vm_class: str) -> None:
        self.next_vm += 1
        vm_id = _vm_name(self.next_vm)
        demand = sched.estimate_demand_first_start(vm_class, self.records, self.sc.vm_classes)
        weights = derive_weights(HotspotProfile(demand))
        decision = sched.place(demand, weights, self._server_list())
        woken = None
        if decision.rejected and self.sc.wake_on_reject:
            woken = self._wake(tick)
            if woken is not None:
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
        record = VmRecord(vm_id, vm_class, observed=demand, host=decision.chosen)
        self.records[vm_id] = record
        row = len(self.vms)
        if row == len(self.fin_ring):
            self.fin_ring = np.vstack([self.fin_ring, np.zeros((row + 8, self.fin_slots), np.int64)])
        self.vms[vm_id] = SimVm(record=record, fin_row=row)
        self.counters["placements"] += 1

    def _lifecycle(self, tick: int, vm_id: str, new_state: str) -> None:
        vm = self.vms.get(vm_id)
        if vm is None or vm.state == REVOKED:
            self.counters["ignored_events"] += 1
            return
        self._detach(vm)
        vm.state = new_state
        if new_state == REVOKED:
            self.records.pop(vm_id, None)
            self.counters["revocations"] += 1
        else:
            self.counters["shutdowns"] += 1

    def _set_attack(self, vm_id: str, multiplier: float) -> None:
        vm = self.vms.get(vm_id)
        if vm is None or vm.state == REVOKED:
            self.counters["ignored_events"] += 1
            return
        vm.attack_multiplier = multiplier

    # phase 2 -----------------------------------------------------------

    def _sample_usage(self) -> None:
        running = [vm for vm in map(self.vms.get, sorted(self.vms)) if vm.state == RUNNING]
        base = np.array([self.sc.vm_classes[vm.record.hotspot_class].as_tuple()
                         for vm in running]).reshape(-1, 3)
        jitter = self.jitter_rng.uniform(-0.1, 0.1, base.shape)
        for vm, (cpu, mem, bw) in zip(running, (base * (1.0 + jitter)).tolist()):
            observed = ResourceVector(cpu, mem, bw)
            vm.record.observed = observed
            vm.record.history.append(observed)
        for sid in sorted(self.servers):
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
        # fins[:, k] is due at tick + k, which the ring keeps in column (tick + k) % fin_slots
        now = tick % self.fin_slots
        rows = [vm.fin_row for vm in live]
        self.fin_ring[rows] += np.roll(fins, now, axis=1)
        finrst = self.fin_ring[rows, now]
        self.fin_ring[:, now] = 0
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
                self._detach(vm)
                vm.state = SUSPENDED
                self.counters["suspensions"] += 1
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
        self._move_vm(plan.victim, plan.source, plan.target)
        self.counters["migrations_overload"] += 1
        self.report.migrations.append(_migration_entry(tick, self._next_seq(), plan))

    def _move_vm(self, vm_id: str, source: str, target: str) -> None:
        self.servers[source].vms.discard(vm_id)
        self.servers[target].vms.add(vm_id)
        self.records[vm_id].host = target
        self._recompute_usage(source)
        self._recompute_usage(target)

    # phase 5 -----------------------------------------------------------

    def _consolidate(self, tick: int) -> None:
        if self.sc.low_watermark is None:
            return
        plans, sleeps = sched.consolidate(
            self._server_list(), self.records, self.sc.low_watermark, self.sc.vm_classes
        )
        for plan in plans:
            self._move_vm(plan.victim, plan.source, plan.target)
            self.counters["migrations_consolidate"] += 1
            self.report.migrations.append(_migration_entry(tick, self._next_seq(), plan))
        for sid in sleeps:
            server = self.servers[sid]
            if server.vms:
                raise AssertionError(f"cannot sleep {sid}: still hosts {sorted(server.vms)}")
            server.power = sched.ASLEEP
            server.usage = ZERO
            self.counters["sleeps"] += 1
            self.report.power_events.append(
                {"tick": tick, "seq": self._next_seq(), "server": sid, "event": "sleep"}
            )

    # phase 6 -----------------------------------------------------------

    def _emit_logs(self, completed_ticks: int, sample_tick: int | None) -> None:
        for sid in sorted(self.servers):
            s = self.servers[sid]
            self.report.utilization.append(
                (completed_ticks, sid, s.usage.cpu, s.usage.mem, s.usage.bw, s.power, len(s.vms))
            )
        if sample_tick is not None:
            for vm_id in sorted(self.vms):
                vm = self.vms[vm_id]
                if vm.state in (RUNNING, SUSPENDED, STOPPED):
                    self.report.vm_samples.append(
                        (sample_tick, vm_id, vm.record.observed, vm.record.host)
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
                "class": vm.record.hotspot_class,
                "state": vm.state,
                "host": vm.record.host,
            }
        servers = {}
        for sid in sorted(self.servers):
            s = self.servers[sid]
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
            "detector": {
                "drift": self.sc.detector.drift,
                "threshold": self.sc.detector.threshold,
                "interval_seconds": self.sc.detector.interval_seconds,
                "policy": self.sc.detector.policy,
                "throttle_factor": self.sc.detector.throttle_factor,
            },
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
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"writing report {path}: {exc}") from exc
        paths.append(path)
    return paths
