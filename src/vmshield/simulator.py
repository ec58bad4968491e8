"""Deterministic tick-driven datacenter simulation.

One tick spans one detector sampling interval (10 s of simulated time
by default).  Each tick applies, in fixed order:

1. scenario events: VM requests placed through the scheduler (with an
   optional wake-and-retry on rejection), shutdowns, revocations, and
   attack toggles;
2. usage sampling: one (running VMs x 3) block of +/-10% uniform
   jitter, drawn in sorted-VM order, scales each running VM's class
   demand vector; the block lands in the observed-usage column and is
   added to the usage-sum column, and every server's usage is its
   overhead plus its hosted VMs' observed usage, added in sorted-VM
   order by one np.add.at;
3. traffic and detection: each live VM's traffic scale, attack
   multiplier and state come from the columns.  A connection's FIN
   lands (offset + delay) // interval slots on, its offset uniform over
   the interval and its delay over fin_delay_range in whole microseconds;
   detector.fin_slot_pairs gives each slot's exact chance once a run.
   The run's traffic generator splits every live VM's paired connections
   by slot in one multinomial call, in sorted-VM order, so a tick costs
   the same at any base_rate, and each VM's split is added to its row
   of the pending-FIN column (entry k holds the FINs due k ticks from
   now); the live VMs' entry 0 and their SYN counts (0 for
   a suspended VM) go to the run's CUSUM detector in one batched call,
   its rows join the columnar statistic log, and the entries shift left
   by one.  The response policy then acts, in sorted-VM order, on each
   VM whose alarm episode starts this tick;
4. one migration pass off the hottest overloaded server, if any plan
   qualifies;
5. a consolidation pass draining under-watermark servers to sleep;
6. log emission: one block of columns (usage, active flags, hosted
   counts) a tick to the utilization log, a row per server, and one
   (rows, observed usage, host) a tick to vm_samples.

Inside a run a VM is its row of _Sim.cols, which holds its state and is
its detector slot.  Rows follow placement order, and the rows in sorted-id
order (vm-1000 sorts before vm-101) are kept as VMs are placed.  Ids are
looked up only where an event or a plan names a VM (_Sim.row) and where a
report is written.  The scheduler reads VMs through _Vms, a read-only mapping
that builds a VmRecord from the VM's row on each lookup.  A server is its
row of the run's scheduler.ServerTable, the one home of its usage, power
and hosted ids; _Sim._table, the way in of every read, first recomputes
the rows that a move or power event marked in the stale mask.  A new VM's
demand is its class's running usage sum over its count, the mean_usage of
the class's placed, unrevoked VMs in placement order to the bit.

Everything random comes from two generators per run, seeded by
(scenario seed, stream index): stream 0 draws the usage jitter and
stream 1 the traffic.  Every iteration runs in sorted order, so a
scenario and seed map to byte-identical reports.
"""

from __future__ import annotations

import bisect
import math
import os
import re
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from . import detector as det
from . import scheduler as sched
from .ahp import derive_weights
from .errors import ParseError, ValidationError
from .resources import (ZERO, ResourceVector, _csv_lines, check_vector, is_int, json_bool, json_int, json_list,
                        json_number, json_object, json_str, json_text, read_json_file, weighted_score,
                        write_text_file)
from .scheduler import ACTIVE, ASLEEP, ServerState, ServerTable, VmRecord, read_class
from .traffic import DEFAULT_FIN_DELAY_RANGE, _delay_bounds_us, read_delay_range

RUNNING = "running"
STOPPED = "stopped"
SUSPENDED = "suspended"
REVOKED = "revoked"
# a VM's code in the state column is its state's index here: phase 3 observes
# every code up to SUSPENDED's and phase 6 samples every code below REVOKED's
_STATES = (RUNNING, SUSPENDED, STOPPED, REVOKED)
# the counter _Sim._set_state bumps on entering each state, and the event op that enters it
_STATE_COUNTER = {STOPPED: "shutdowns", REVOKED: "revocations", SUSPENDED: "suspensions"}
_OP_STATE = {"vm_shutdown": STOPPED, "vm_revoke": REVOKED}

_POWER = (ASLEEP, ACTIVE)  # a server's power by its active flag

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

    def __post_init__(self):
        if self.policy not in det.POLICIES:
            raise ValidationError(f"detector policy must be one of {det.POLICIES}, got {self.policy!r}")
        try:
            det.CusumDetector(self.drift, self.threshold)
            det._interval_to_us(self.interval_seconds)
        except ValueError as exc:
            raise ValidationError(f"detector {exc}") from exc
        if not 0 <= self.throttle_factor <= 1:
            raise ValidationError(f"detector throttle_factor must be finite and lie in [0, 1], got {self.throttle_factor}")

    @classmethod
    def from_json(cls, obj: dict, where: str = "detector") -> "DetectorConfig":
        return cls(**json_object(obj, where, _DETECTOR_KEYS))


@dataclass(frozen=True)
class ScenarioEvent:
    tick: int
    op: str
    vm_class: str | None = None
    count: int = 1
    vm: str | None = None
    multiplier: float = 1.0

    def __post_init__(self):  # the fields of the op's _EVENT_KEYS table, vm and class iff required
        if self.op not in EVENT_OPS:
            raise ValidationError(f"event op must be one of {EVENT_OPS}, got {self.op!r}")
        readers, required = _EVENT_KEYS[self.op]
        for key, value in (("tick", self.tick), ("count", self.count)):
            if not is_int(value):
                raise ValidationError(f"{self.op} {key} must be an integer, got {value!r}")
        for key, value in (("vm", self.vm), ("class", self.vm_class)):
            if (value is None) == (key in required):
                raise ValidationError(f"{self.op} event {'needs a' if value is None else 'takes no'} {key}")
        for key, value in (("count", self.count), ("multiplier", self.multiplier)):  # each defaults to 1
            if value != 1 and key not in readers:
                raise ValidationError(f"{self.op} event takes no {key}, got {value}")
            if not 1 <= value < math.inf:
                raise ValidationError(f"{self.op} {key} must be finite and >= 1, got {value}")


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
    try:
        return ScenarioEvent(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


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


_SCENARIO_KEYS = {
    "servers": lambda value, name: json_list(value, name, ServerState.from_json),
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
        return cls(**json_object(obj, "", _SCENARIO_KEYS, ("servers",), "scenario"))

    def validate(self) -> None:
        """The checks across fields, which construction runs; call it again after changing a list."""
        for name in ("duration", "seed", "base_rate"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValidationError(f"{name} must be >= 0")
        try:
            _delay_bounds_us(self.fin_delay_range)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if not isinstance(self.wake_on_reject, bool):
            raise ValidationError(f"wake_on_reject must be a bool, got {self.wake_on_reject!r}")
        if not isinstance(self.detector, DetectorConfig):
            raise ValidationError(f"detector must be a DetectorConfig, got {self.detector!r}")
        if not self.servers:
            raise ValidationError("scenario needs at least one server")
        ServerTable.from_servers(self.servers)  # the server rules; the run builds its own table
        for i, s in enumerate(self.servers):
            if s.vms:
                raise ValidationError(f"servers[{i}].vms: scenario servers start empty; "
                                      "VMs come only from vm_request events")
        for name in self.vm_classes:  # a file's aliases are read as the canonical names
            if name not in sched.HOTSPOT_CLASSES:
                raise ValidationError(f"vm_classes: unknown hotspot class {name!r}; "
                                      f"expected one of {sched.HOTSPOT_CLASSES}")
        for name, vec in self.vm_classes.items():
            check_vector(vec, f"vm_classes.{name}")
        if self.low_watermark is not None:
            check_vector(self.low_watermark, "low_watermark")
        for i, ev in enumerate(self.events):
            if not 0 <= ev.tick < self.duration:
                raise ValidationError(f"events[{i}]: event tick {ev.tick} outside [0, {self.duration})")
            if ev.op == "vm_request" and ev.vm_class not in self.vm_classes:
                raise ValidationError(f"events[{i}]: vm_request class {ev.vm_class!r} has no entry in vm_classes")
            if ev.op == "attack_start" and not self.base_rate * ev.multiplier < det.MAX_COUNT:
                raise ValidationError(f"events[{i}]: attack multiplier {ev.multiplier} times base_rate "
                                      f"{self.base_rate} must stay below {det.MAX_COUNT} SYNs a tick")
        # Walk events in execution order so every reference names a VM id
        # that has been requested by then and not yet revoked.  Ids are
        # matched by index, so a huge count costs nothing here.
        created = 0
        revoked: set[str] = set()
        for i, ev in sorted(enumerate(self.events), key=lambda item: item[1].tick):
            if ev.op == "vm_request":
                created += ev.count
                continue
            if not 1 <= _vm_index(ev.vm) <= created:
                raise ValidationError(f"events[{i}]: event at tick {ev.tick} references unknown vm {ev.vm!r}")
            if ev.vm in revoked:
                raise ValidationError(f"events[{i}]: event at tick {ev.tick} references revoked vm {ev.vm!r}")
            if ev.op == "vm_revoke":
                revoked.add(ev.vm)

    __post_init__ = validate


def _vm_name(index: int) -> str:
    return f"vm-{index:03d}"


def _vm_index(name: str) -> int:
    """The index _vm_name turns into name, or 0 if it never does."""
    match = re.fullmatch(r"vm-([0-9]+)", name)
    return int(match[1]) if match and _vm_name(int(match[1])) == name else 0


def load_scenario(path: str) -> Scenario:
    """The scenario in the JSON file at path; every error starts with path."""
    return read_json_file(path, Scenario.from_json)


class SampleLog:
    """SimReport.vm_samples as columns: one block of rows a tick.

    A block holds a tick, the sampled VMs' rows in sorted-id order, their
    observed usage and their host indices (-1: no host).  Iterating yields
    one (tick, vm_id, observed, host) tuple per sample, block by block,
    observed a ResourceVector and host a server id or None; append adds
    one such tuple as a one-row block, its VM and host looked up by id.
    """

    def __init__(self, vm_ids: list[str] | None = None, server_ids: tuple[str, ...] = ()):
        self.vm_ids = [] if vm_ids is None else vm_ids  # by row; the run only appends to it
        self.server_ids = server_ids
        self.blocks: list = []

    def add(self, tick: int, rows: np.ndarray, observed: np.ndarray, hosts: np.ndarray) -> None:
        self.blocks.append((tick, rows, observed, hosts))

    def append(self, sample: tuple) -> None:
        tick, vm_id, observed, host = sample
        self.add(tick, np.array([self.vm_ids.index(vm_id)]), np.array([observed], dtype=float),
                 np.array([-1 if host is None else self.server_ids.index(host)]))

    def __iter__(self):
        for tick, rows, observed, hosts in self.blocks:
            for row, obs, host in zip(rows.tolist(), observed.tolist(), hosts.tolist()):
                yield (tick, self.vm_ids[row], ResourceVector._make(obs),
                       self.server_ids[host] if host >= 0 else None)


class UtilizationLog:
    """SimReport.utilization as columns: one block a tick of the tick, server indices, usage (zero while
    asleep), active flags and hosted-VM counts, a row per server in table order.  It reads as a list of
    (tick, server, cpu, mem, bw, power, vms) tuples; a tuple set at an index sets usage, power and count."""

    def __init__(self, server_ids: tuple[str, ...] = ()):
        self.server_ids = server_ids
        self.rows = np.arange(len(server_ids))  # every block's server column
        self.blocks: list = []

    def add(self, tick: int, usage: np.ndarray, active: np.ndarray, hosted: np.ndarray) -> None:
        self.blocks.append((np.broadcast_to(np.int64(tick), self.rows.shape), self.rows, usage, active, hosted))

    def __len__(self) -> int:
        return len(self.blocks) * len(self.server_ids)

    def __iter__(self):
        for tick, _, usage, active, hosted in self.blocks:
            yield from zip(tick.tolist(), self.server_ids, *usage.T.tolist(), map(_POWER.__getitem__, active.tolist()),
                           hosted.tolist())

    def __getitem__(self, i: int) -> tuple:
        block, k = divmod(range(len(self))[i], len(self.server_ids))
        tick, _, usage, active, hosted = self.blocks[block]
        return (int(tick[k]), self.server_ids[k], *usage[k].tolist(), _POWER[bool(active[k])], int(hosted[k]))

    def __setitem__(self, i: int, row: tuple) -> None:
        if tuple(row[:2]) != self[i][:2]:
            raise ValueError(f"row {i} is {self[i][:2]}, not {tuple(row[:2])}")
        block, k = divmod(range(len(self))[i], len(self.server_ids))
        usage, active, hosted = self.blocks[block][2:]
        usage[k], active[k], hosted[k] = row[2:5], row[5] == ACTIVE, row[6]


@dataclass
class SimReport:
    """Every decision and metric of one run, in emission order."""

    utilization: UtilizationLog = field(default_factory=UtilizationLog)
    placements: list[dict] = field(default_factory=list)
    migrations: list[dict] = field(default_factory=list)
    power_events: list[dict] = field(default_factory=list)
    stat_rows: det.StatLog = field(default_factory=det.StatLog)
    alarms: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # in-memory only: per-tick (tick, vm, observed, host) samples for invariant checks
    vm_samples: SampleLog = field(default_factory=SampleLog)


class _Vms(Mapping):
    """A run's placed, unrevoked VMs in placement order, each lookup a VmRecord built from the VM's row.

    Make one per scheduler call: a _Sim that kept one would be a reference cycle, left to the garbage collector."""

    def __init__(self, sim: "_Sim"):
        self.sim = sim

    def __getitem__(self, vm_id: str) -> VmRecord:
        cols = self.sim.cols
        row = self.sim.row.get(vm_id)
        if row is None or cols["state"][row] == _STATES.index(REVOKED):
            raise KeyError(vm_id)
        return VmRecord(vm_id, self.sim.class_names[cols["class_index"][row]],
                        ResourceVector._make(cols["observed"][row].tolist()),
                        ResourceVector._make(cols["usage_sum"][row].tolist()), int(cols["samples"][row]))

    def __iter__(self):
        return map(self.sim.vm_ids.__getitem__, self.sim._placed().tolist())

    def __len__(self) -> int:
        return len(self.sim._placed())


class _Sim:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.table = ServerTable.from_servers(scenario.servers)  # every server fact, by server index
        self.overhead = self.table.usage.copy()
        self.stale = np.ones(len(self.table.ids), dtype=bool)  # rows _table recomputes before they are read
        self.row: dict[str, int] = {}  # a placed VM's row of cols, by id
        self.vm_classes = {name: ResourceVector._make(map(float, vec)) for name, vec in scenario.vm_classes.items()}
        self.class_names = tuple(self.vm_classes)
        self.class_index = {name: i for i, name in enumerate(self.class_names)}
        self.class_demand = np.array(list(self.vm_classes.values())).reshape(-1, 3)
        # by class: its placed, unrevoked VMs' observed usage summed in placement order, and their
        # count; None when phase 2 or a revocation has changed them, until the next request
        self.class_sums: list[tuple[ResourceVector, int]] | None = None
        self.jitter_rng = np.random.default_rng([scenario.seed, 0])
        self.traffic_rng = np.random.default_rng([scenario.seed, 1])
        self.detector = det.CusumDetector(scenario.detector.drift, scenario.detector.threshold)
        self.events_at: dict[int, list[ScenarioEvent]] = {}
        for ev in scenario.events:
            self.events_at.setdefault(ev.tick, []).append(ev)
        self.next_vm = 0
        self.seq = 0
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
        # by FIN slot, this tick's and the ones ahead: the chance a connection's FIN lands there,
        # its pairs over all pairs (Python ints divided give correctly rounded floats)
        pairs = det.fin_slot_pairs(det._interval_to_us(scenario.detector.interval_seconds),
                                   *_delay_bounds_us(scenario.fin_delay_range))
        total = sum(pairs)
        self.fin_p = [n / total for n in pairs]
        self.fin_slots = len(pairs)
        # The per-VM columns, one row per placed VM in placement order, grown
        # as VMs are placed.  state holds an index into _STATES and host one
        # into servers (-1: none); fin_due[k] counts the FINs due k ticks
        # from now.  Rows past len(vm_ids) are spare zeros.
        self.cols = np.zeros(0, [("observed", float, 3), ("usage_sum", float, 3), ("samples", np.int64),
                                 ("host", np.int64), ("state", np.int8), ("class_index", np.int64),
                                 ("traffic_scale", float), ("attack_multiplier", float),
                                 ("fin_due", np.int64, (self.fin_slots,))])
        self.vm_ids: list[str] = []  # by row
        self.rows_by_id: list[int] = []  # rows in sorted-id order
        self.order: np.ndarray | None = None  # rows_by_id as an array, made on first use
        self.report = SimReport(utilization=UtilizationLog(self.table.ids), stat_rows=det.StatLog(self.vm_ids),
                                vm_samples=SampleLog(self.vm_ids, self.table.ids))

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _table(self) -> ServerTable:
        """The server table, its stale rows first brought up to date; every server read goes here."""
        if np.count_nonzero(self.stale):
            self._recompute_usage(self.stale)
        return self.table

    def _order(self) -> np.ndarray:
        """The placed VMs' rows in sorted-id order."""
        if self.order is None:
            self.order = np.array(self.rows_by_id, dtype=np.int64)
        return self.order

    def _placed(self) -> np.ndarray:
        """The rows of the placed VMs less the revoked ones, in placement order (spare rows read as RUNNING)."""
        return np.flatnonzero(self.cols["state"][:len(self.vm_ids)] != _STATES.index(REVOKED))

    def _sum_classes(self) -> list[tuple[ResourceVector, int]]:
        """Each class's usage sum and count, from the placed, unrevoked VMs' rows: cumsum adds row
        after row, as mean_usage does from 0.0 (+ 0.0 turns a sum of -0.0s into its 0.0)."""
        rows = self._placed()
        classes = self.cols["class_index"][rows]
        observed = self.cols["observed"][rows]
        peers = [observed[classes == c] for c in range(len(self.class_names))]
        return [(ResourceVector._make((mine.cumsum(axis=0)[-1] + 0.0).tolist()) if len(mine) else ZERO, len(mine))
                for mine in peers]

    def _recompute_usage(self, picked: np.ndarray) -> None:
        """The one writer of server usage, bar placement's provisional add.

        Each row picked marks leaves the stale mask and reads its overhead plus its hosted
        VMs' observed usage, added in sorted-id order; a sleeping one reads 0.
        """
        order = self._order()
        hosts = self.cols["host"][order]
        rows = order[np.append(picked, False)[hosts]]  # the last entry stands for host -1
        usage = self.overhead.copy()
        # np.add.at adds row after row, so each server sums its VMs in sorted-id order
        np.add.at(usage, self.cols["host"][rows], self.cols["observed"][rows])
        table = self.table
        table.usage[picked] = np.where(table.active[picked, None], usage[picked], 0.0)
        self.stale &= ~picked

    def _state(self, row: int) -> str:
        return _STATES[self.cols["state"][row]]

    def _host(self, row: int) -> str | None:
        host = int(self.cols["host"][row])
        return self.table.ids[host] if host >= 0 else None

    def _rehost(self, row: int, target: str | None) -> None:
        """Move the VM of row from its host, if any, to target (None: to no server)."""
        source = int(self.cols["host"][row])
        host = -1 if target is None else self.table.row(target)
        if source >= 0:
            self.table.vms[source].discard(self.vm_ids[row])
            self.stale[source] = True
        if host >= 0:
            self.table.vms[host].add(self.vm_ids[row])
            self.stale[host] = True
        self.cols["host"][row] = host

    def _set_state(self, row: int, state: str) -> None:
        """Stop, revoke or suspend the VM of row: it leaves its host and its pending FINs are dropped."""
        self._rehost(row, None)
        self.cols["fin_due"][row] = 0
        self.cols["state"][row] = _STATES.index(state)
        self.counters[_STATE_COUNTER[state]] += 1
        if state == REVOKED:  # it leaves its class's peers
            self.class_sums = None

    def _power_event(self, tick: int, sid: str, event: str) -> None:
        """The one writer of server power: wake or sleep sid as event says, and log it."""
        row = self.table.row(sid)
        self.table.active[row] = event == "wake"
        self.stale[row] = True
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
            row = self._event_row(ev)
            if row is None:
                continue
            if ev.op in _OP_STATE:
                self._set_state(row, _OP_STATE[ev.op])
            else:  # attack_start, or attack_stop with its default multiplier of 1
                self.cols["attack_multiplier"][row] = ev.multiplier

    def _event_row(self, ev: ScenarioEvent) -> int | None:
        """The row of the VM an event names; None, counted as ignored, if the VM was
        rejected or revoked, or if the event would put it in the state it is already in."""
        row = self.row.get(ev.vm)
        if row is None or self._state(row) in (REVOKED, _OP_STATE.get(ev.op)):
            self.counters["ignored_events"] += 1
            return None
        return row

    def _request_vm(self, tick: int, vm_class: str) -> None:
        self.next_vm += 1
        vm_id = _vm_name(self.next_vm)
        if self.class_sums is None:
            self.class_sums = self._sum_classes()
        c = self.class_index[vm_class]
        total, n = self.class_sums[c]
        demand = total.scaled(1.0 / n) if n else self.vm_classes[vm_class]
        weights = derive_weights(demand)
        decision = sched.place(demand, weights, self._table())
        woken = None
        if decision.rejected and self.sc.wake_on_reject:
            woken = sched.wake_server(self._table())
            if woken is not None:
                self._power_event(tick, woken, "wake")
                decision = sched.place(demand, weights, self._table())
        entry = {
            "tick": tick,
            "seq": self._next_seq(),
            "vm": vm_id,
            "class": vm_class,
            "demand": _round_rv(demand),
            "weights": _round_map(weights.to_json()),
            "score": None if decision.rejected else round(decision.score, 6),
            "runner_up": decision.runner_up and {"server": decision.runner_up[0],
                                                 "score": round(decision.runner_up[1], 6)},
            "feasible": len(decision.rows),
            "chosen": decision.chosen,
            "reason": decision.reason,
            "woke": woken,
        }
        self.report.placements.append(entry)
        if decision.rejected:
            self.counters["rejections"] += 1
            return
        host = self.table.row(decision.chosen)
        self.table.vms[host].add(vm_id)
        self.table.usage[host] += demand
        self.class_sums[c] = total + demand, n + 1
        row = len(self.vm_ids)
        if row == len(self.cols):
            self.cols = np.concatenate([self.cols, np.zeros(row + 8, self.cols.dtype)])
        # the new row's zeros are no usage samples, state RUNNING and no pending FINs
        new = self.cols[row:row + 1]
        new["observed"] = demand
        new["host"] = host
        new["class_index"] = c
        new["traffic_scale"] = new["attack_multiplier"] = 1.0
        self.vm_ids.append(vm_id)
        self.rows_by_id.insert(bisect.bisect(self.rows_by_id, vm_id, key=self.vm_ids.__getitem__), row)
        self.order = None
        self.row[vm_id] = row
        self.counters["placements"] += 1

    # phase 2 -----------------------------------------------------------

    def _sample_usage(self) -> None:
        cols = self.cols
        order = self._order()
        rows = order[cols["state"][order] == _STATES.index(RUNNING)]
        base = self.class_demand[cols["class_index"][rows]]
        jitter = self.jitter_rng.uniform(-0.1, 0.1, base.shape)
        observed = base * (1.0 + jitter)
        cols["observed"][rows] = observed
        cols["usage_sum"][rows] += observed
        cols["samples"][rows] += 1
        self._recompute_usage(np.ones_like(self.stale))
        self.class_sums = None

    # phase 3 -----------------------------------------------------------

    def _traffic_and_detect(self, tick: int) -> None:
        rate = self.sc.base_rate
        cols = self.cols
        order = self._order()
        live = order[cols["state"][order] <= _STATES.index(SUSPENDED)]  # rows, the detector's slots
        # a suspended VM stays in the detector's batch but sends nothing
        scale = np.where(cols["state"][live] == _STATES.index(RUNNING), cols["traffic_scale"][live], 0.0)
        multiplier = cols["attack_multiplier"][live]
        # np.rint rounds half to even, as round() does
        n_pair = np.rint(rate * scale).astype(np.int64)
        syn = n_pair + np.rint(rate * (multiplier - 1.0) * scale).astype(np.int64)
        # every live VM's paired connections split by FIN slot, in one draw in sorted-VM order;
        # fins[:, k] is due k ticks from now, as is column k of fin_due
        fins = self.traffic_rng.multinomial(n_pair, self.fin_p)
        fin_due = cols["fin_due"]
        fin_due[live] += fins
        finrst = fin_due[live, 0]
        fin_due[:, :-1] = fin_due[:, 1:]
        fin_due[:, -1] = 0
        d, y, alarm = self.detector.observe(live, syn, finrst)
        self.report.stat_rows.append(tick, live, syn, finrst, d, y, alarm)
        policy = self.sc.detector.policy
        for k in np.flatnonzero(alarm).tolist():
            row = int(live[k])
            self.counters["alarms"] += 1
            if policy == "throttle":
                cols["traffic_scale"][row] = self.sc.detector.throttle_factor
                detail = f"traffic scaled to {self.sc.detector.throttle_factor}"
            elif policy == "suspend":
                self._set_state(row, SUSPENDED)
                detail = "detached from network"
            else:
                detail = "recorded"
            self.report.alarms.append({
                "tick": tick, "seq": self._next_seq(), "vm": self.vm_ids[row], "y": round(float(y[k]), 6),
                "action": policy, "detail": detail,
            })

    # phase 4 -----------------------------------------------------------

    def _migrate(self, tick: int) -> None:
        plan = sched.plan_migration(self._table(), _Vms(self))
        if plan is None:
            return
        self._rehost(self.row[plan.victim], plan.target)
        self.counters["migrations_overload"] += 1
        self.report.migrations.append(_migration_entry(tick, self._next_seq(), plan))

    # phase 5 -----------------------------------------------------------

    def _consolidate(self, tick: int) -> None:
        if self.sc.low_watermark is None:
            return
        plans, sleeps = sched.consolidate(self._table(), _Vms(self), self.sc.low_watermark, self.vm_classes)
        for plan in plans:
            self._rehost(self.row[plan.victim], plan.target)
            self.counters["migrations_consolidate"] += 1
            self.report.migrations.append(_migration_entry(tick, self._next_seq(), plan))
        for sid in sleeps:
            hosted = self.table.vms[self.table.row(sid)]
            if hosted:
                raise AssertionError(f"cannot sleep {sid}: still hosts {sorted(hosted)}")
            self._power_event(tick, sid, "sleep")

    # phase 6 -----------------------------------------------------------

    def _emit_logs(self, completed_ticks: int, sample_tick: int | None) -> None:
        table = self._table()
        self.report.utilization.add(completed_ticks, np.where(table.active[:, None], table.usage, 0.0),
                                    table.active.copy(), np.fromiter(map(len, table.vms), np.int64, len(table.vms)))
        if sample_tick is not None:
            order = self._order()
            rows = order[self.cols["state"][order] != _STATES.index(REVOKED)]
            self.report.vm_samples.add(sample_tick, rows, self.cols["observed"][rows], self.cols["host"][rows])

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
        states = {self.vm_ids[row]: {"class": self.class_names[self.cols["class_index"][row]],
                                     "state": self._state(row), "host": self._host(row)}
                  for row in self.rows_by_id}
        table = self._table()
        servers = {}
        for sid, active, hosted, usage in zip(table.ids, table.active.tolist(), table.vms, table.usage.tolist()):
            usage = ResourceVector._make(usage)
            servers[sid] = {"power": ACTIVE if active else ASLEEP, "vms": len(hosted), "usage": _round_rv(usage),
                            "score_uniform": round(weighted_score(sched.UNIFORM_WEIGHTS, usage), 6)}
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


def emit_reports(report: SimReport, outdir: str) -> list[str]:
    """Write the six report files; returns their paths.

    CSV files are comma-separated with a header row and LF endings;
    floats are exactly %.6f's text.  Both CSVs go from their column blocks
    to the file a chunk at a time, each written by resources._csv_lines
    from the file's column kinds, so emission holds one chunk's text, not a
    whole report's.  Identical reports produce identical bytes, so
    reruns into the same directory are no-ops content-wise.
    """
    os.makedirs(outdir, exist_ok=True)
    files = {
        "utilization.csv": lambda fh: fh.writelines(_utilization_csv(report.utilization)),
        "placements.json": json_text(report.placements),
        "migrations.json": json_text(report.migrations),
        "detector.csv": lambda fh: det.stat_rows_to_csv(report.stat_rows, fh),
        "alarms.json": json_text(report.alarms),
        "summary.json": json_text(report.summary),
    }
    paths = []
    for name, text in files.items():
        path = os.path.join(outdir, name)
        write_text_file(path, text, "report")
        paths.append(path)
    return paths


def _utilization_csv(log: UtilizationLog):
    """utilization.csv's text, a chunk at a time."""
    return _csv_lines({"tick": "d", "server": list(log.server_ids), "cpu": "f", "mem": "f", "bw": "f",
                       "power": list(_POWER), "vms": "d"},
                      ((tick, server, *usage.T, active, hosted) for tick, server, usage, active, hosted in log.blocks))
