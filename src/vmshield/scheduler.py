"""Placement, overload migration, and low-load consolidation decisions.

Every decision reads a ServerTable, a cluster's servers in id order
(``ServerTable.from_servers`` builds one from parsed ``ServerState``s).
All operations here are pure: they return decision values
(``PlacementDecision``, ``MigrationPlan``, sleep lists, the server to
wake) that the caller applies, and none of them writes its inputs.
Server JSON, in cluster and scenario files alike, is parsed here only
(``ServerState.from_json``, which only reads), and every server rule
lives in ``ServerTable.from_servers``, so a list built in Python is
checked as its file would be.

Decision rules, in brief, each an array expression over the table's
rows with the float adds and compares of the scalar rule:

* A candidate server is feasible for a demand vector iff it is active
  and usage + demand is strictly below its threshold, componentwise.
* Candidates are scored by the weighted sum of their *current* usage;
  the incoming demand enters feasibility only.  The minimum score wins,
  ties broken by smallest server id.
* A server is overloaded as soon as any usage component reaches its
  threshold component, the exact complement of the strict feasibility
  test.
* Overload migration sizes the migrant as the average hosted VM, scores
  the source after hypothetically removing that average, and moves the
  VM closest to the average onto the cheapest feasible target, but only
  if that target scores strictly below the source's post-move score.
"""

from __future__ import annotations

import bisect
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import ahp
from .errors import EmptyServer, ParseError, ValidationError
from .resources import (
    UNIFORM_WEIGHTS,
    ZERO,
    ResourceVector,
    WeightVector,
    check_vector,
    is_text,
    json_list,
    json_object,
    json_str,
    weighted_score,
)

HOTSPOT_CLASSES = ("cpu-intensive", "memory-intensive", "bandwidth-intensive")

# Older cluster files abbreviate the memory class.
_CLASS_ALIASES = {"mem-intensive": "memory-intensive"}

ACTIVE = "active"
ASLEEP = "asleep"

NO_FEASIBLE_SERVER = "no feasible server"


def normalize_class(name: str) -> str:
    name = _CLASS_ALIASES.get(name, name)
    if name not in HOTSPOT_CLASSES:
        raise ValueError(f"unknown hotspot class {name!r}; expected one of {HOTSPOT_CLASSES}")
    return name


def read_class(value, name: str) -> str:
    """The hotspot class a JSON string names (see normalize_class); else a ParseError naming name."""
    try:
        return normalize_class(json_str(value, name))
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from exc


@dataclass
class ServerState:
    """A physical server as given (ServerTable.from_servers checks a list): usage, threshold, power, VM ids."""

    id: str
    usage: ResourceVector = ZERO
    threshold: ResourceVector = ResourceVector(80.0, 80.0, 80.0)
    power: str = ACTIVE
    vms: Collection[str] = field(default_factory=set)

    @classmethod
    def from_json(cls, obj, where: str = "server") -> "ServerState":
        """Parse one server entry; errors name the field as ``where.<key>``.

        Only the string ``id`` is required: the other _SERVER_KEYS take the
        dataclass defaults (``vms`` lists the vm ids as written).  Unknown
        keys are rejected; the rest is read, never checked.
        """
        return cls(**json_object(obj, where, _SERVER_KEYS, ("id",)))


_SERVER_KEYS = {"id": json_str, "usage": ResourceVector.from_json, "threshold": ResourceVector.from_json,
                "power": json_str, "vms": lambda value, name: json_list(value, name, json_str)}


class ServerTable:
    """A cluster's servers, a row each in id order: (n, 3) float arrays of usage and threshold,
    an active mask (False: asleep) and the hosted-id sets.  The scheduler never writes a
    table it is given; a simulation writes its own table's rows as its state changes.
    A plain class: a dataclass would add about half a millisecond to every import."""

    def __init__(self, ids: tuple[str, ...], usage: np.ndarray, threshold: np.ndarray, active: np.ndarray,
                 vms: list[set[str]]):
        self.ids, self.usage, self.threshold, self.active, self.vms = ids, usage, threshold, active, vms

    @classmethod
    def from_servers(cls, servers: list[ServerState]) -> "ServerTable":
        """The table of servers, sorted by id; their usage, power and vms are copied.

        The one check of a server list: ids non-empty unique UTF-8 strings, power 'active' or 'asleep', threshold
        and usage vectors by check_vector, > 0 and >= 0, vms a collection of id strings, none hosted twice.  A
        ValidationError names a non-string id's list index, else the server of the first fault in id order."""
        for i, s in enumerate(servers):
            if not is_text(s.id):
                raise ValidationError(f"servers[{i}]: id must be a {'UTF-8 ' * isinstance(s.id, str)}string, "
                                      f"got {s.id!r}")
        by_id = sorted(servers, key=lambda s: s.id)
        host: dict[str, str] = {}
        for i, s in enumerate(by_id):
            if not s.id:
                raise ValidationError("server id must be non-empty")
            if i and s.id == by_id[i - 1].id:
                raise ValidationError(f"duplicate server id {s.id!r}")
            if s.power not in (ACTIVE, ASLEEP):
                raise ValidationError(f"server {s.id}: power must be {ACTIVE!r} or {ASLEEP!r}, got {s.power!r}")
            check_vector(s.threshold, f"server {s.id}: threshold", positive=True)
            check_vector(s.usage, f"server {s.id}: usage")
            if isinstance(s.vms, str) or not (isinstance(s.vms, Collection) and all(isinstance(v, str) for v in s.vms)):
                raise ValidationError(f"server {s.id}: vms must be a collection of vm id strings, got {s.vms!r}")
            for vid in sorted(s.vms):
                if vid in host:
                    raise ValidationError(f"server {s.id}: hosts vm {vid!r} twice" if host[vid] == s.id
                                          else f"vm {vid!r} hosted by both {host[vid]} and {s.id}")
                host[vid] = s.id
        return cls(tuple(s.id for s in by_id), np.array([s.usage for s in by_id], dtype=float).reshape(-1, 3),
                   np.array([s.threshold for s in by_id], dtype=float).reshape(-1, 3),
                   np.array([s.power == ACTIVE for s in by_id], dtype=bool), [set(s.vms) for s in by_id])

    def row(self, sid: str) -> int:
        """The row of server id sid, which must be one of ids."""
        return bisect.bisect_left(self.ids, sid)

    def without(self, row: int) -> "ServerTable":
        """This table with the server of row asleep; it shares every array but the active mask."""
        active = self.active.copy()
        active[row] = False
        return ServerTable(self.ids, self.usage, self.threshold, active, self.vms)


@dataclass(frozen=True)
class VmRecord:
    """A VM's identity, hotspot class, observed usage and usage samples.

    usage_sum adds up the VM's usage samples in order, starting from 0.0,
    and samples counts them, so their mean is mean_usage of the samples
    bit for bit (see from_samples).  Frozen: a simulation's records are throwaway copies of its columns.
    """

    id: str
    hotspot_class: str
    observed: ResourceVector = ZERO
    usage_sum: ResourceVector = ZERO
    samples: int = 0

    @classmethod
    def from_samples(cls, id: str, hotspot_class: str, samples: list[ResourceVector],
                     **fields) -> "VmRecord":
        """A record whose usage sum and sample count are those of samples, in order."""
        total = ZERO
        for sample in samples:
            total = total + sample
        return cls(id, hotspot_class, usage_sum=total, samples=len(samples), **fields)


@dataclass(eq=False)
class PlacementDecision:
    """Outcome of one placement pass: the feasible rows of the table whose ids are ids, in id order,
    their float64 row_scores, the pick (chosen and its score, the least (score, id)) and runner_up,
    the next (id, score): None with fewer than two feasible servers.  == is identity, as it holds arrays."""

    demand_estimate: ResourceVector
    weights: WeightVector
    ids: tuple[str, ...]
    rows: np.ndarray
    row_scores: np.ndarray
    chosen: str | None = None
    score: float | None = None
    runner_up: tuple[str, float] | None = None
    reason: str | None = None

    @property
    def rejected(self) -> bool:
        return self.chosen is None

    @property
    def scores(self) -> dict[str, float]:
        """The feasible ids, in id order, mapped to their scores; built on each read."""
        return dict(zip(map(self.ids.__getitem__, self.rows.tolist()), self.row_scores.tolist()))


@dataclass
class MigrationPlan:
    """One VM move.  kind is 'overload' (score-driven) or 'consolidate' (drain)."""

    source: str
    victim: str
    target: str
    source_post_score: float
    target_score: float
    kind: str = "overload"


def mean_usage(vectors: list) -> ResourceVector:
    """Componentwise mean of (cpu, mem, bw) triples, summed left to right from 0.0 as repeated + would."""
    cpu = mem = bw = 0.0
    for c, m, b in vectors:
        cpu += c
        mem += m
        bw += b
    inv = 1.0 / len(vectors)
    return ResourceVector(cpu * inv, mem * inv, bw * inv)


def estimate_demand_first_start(peers: list, default: ResourceVector) -> ResourceVector:
    """Expected demand of a brand-new VM: mean_usage of peers, the observed (cpu, mem, bw)
    of its class's VMs in the order they are summed; with none, its class default."""
    return mean_usage(peers) if peers else default


def estimate_demand_restart(vm: VmRecord, vms: Mapping[str, VmRecord],
                            class_defaults: dict[str, ResourceVector]) -> ResourceVector:
    """Expected demand of a restarting VM: the mean of its own usage samples.

    usage_sum scaled by 1 / samples, which is mean_usage of the samples bit for
    bit.  A VM with no samples yet is estimated like a first start, from the
    other VMs of its class in vms: it is not its own peer.
    """
    if not vm.samples:
        peers = [r.observed for vid, r in vms.items() if r.hotspot_class == vm.hotspot_class and vid != vm.id]
        return estimate_demand_first_start(peers, class_defaults[vm.hotspot_class])
    return vm.usage_sum.scaled(1.0 / vm.samples)


def _weighted(weights: WeightVector, usage: np.ndarray) -> np.ndarray:
    """weighted_score of every row of an (n, 3) usage array, with its float products and adds."""
    wc, wm, wb = weights.as_tuple()
    return wc * usage[:, 0] + wm * usage[:, 1] + wb * usage[:, 2]


def place(vm_demand: ResourceVector, weights: WeightVector, table: ServerTable) -> PlacementDecision:
    """Score feasible servers by weighted_score of their current usage; pick the least, then the runner-up.

    Each is a first-occurrence argmin over the scores in id order, so a tie goes to the least id.
    Rejection ("no feasible server") is a value, not an error; callers may wake a sleeping server and retry."""
    fits = table.usage + np.asarray(vm_demand) < table.threshold  # by column: cheaper than all(axis=1)
    rows = (table.active & fits[:, 0] & fits[:, 1] & fits[:, 2]).nonzero()[0]
    score = _weighted(weights, table.usage[rows])
    if not len(rows):
        return PlacementDecision(vm_demand, weights, table.ids, rows, score, reason=NO_FEASIBLE_SERVER)
    first = int(score.argmin())
    runner_up = None
    if len(rows) > 1:
        second = int(np.concatenate((score[:first], score[first + 1:])).argmin())  # among the others
        second += second >= first
        runner_up = table.ids[rows[second]], float(score[second])
    return PlacementDecision(vm_demand, weights, table.ids, rows, score, table.ids[rows[first]], float(score[first]),
                             runner_up)


def detect_overload(table: ServerTable) -> np.ndarray:
    """By row: any usage component at or above its threshold component."""
    return (table.usage >= table.threshold).any(axis=1)


def avg_vm_usage(hosted: Collection[str], vms: Mapping[str, VmRecord]) -> ResourceVector:
    """Mean observed usage over a server's hosted VM ids (the migrant estimate)."""
    if not hosted:
        raise EmptyServer("the server hosts no VMs")
    return mean_usage([vms[vid].observed for vid in sorted(hosted)])


def _dist2(a: ResourceVector, b: ResourceVector) -> float:
    return (a.cpu - b.cpu) ** 2 + (a.mem - b.mem) ** 2 + (a.bw - b.bw) ** 2


def select_victim(hosted: Collection[str], m3: ResourceVector, vms: Mapping[str, VmRecord]) -> str:
    """Hosted VM id whose observed usage is nearest (Euclidean) to the average m3."""
    if not hosted:
        raise EmptyServer("the server hosts no VMs")
    return min(sorted(hosted), key=lambda vid: (_dist2(vms[vid].observed, m3), vid))


def plan_migration(table: ServerTable, vms: Mapping[str, VmRecord]) -> MigrationPlan | None:
    """One rebalancing move off the hottest overloaded server, or None.

    The hottest server has the greatest uniform score, ties to the least
    id.  The migrant demand estimate m3 is the source's average hosted
    VM; weights derive from m3's own demand profile.  The source's
    post-move score is weighted(usage - m3); the cheapest feasible
    other server wins iff its score is strictly below that.  Returns
    None when nothing is overloaded, the overloaded server is empty, or
    no candidate qualifies.
    """
    hot = (table.active & detect_overload(table)).nonzero()[0]
    if not len(hot):
        return None
    row = int(hot[_weighted(UNIFORM_WEIGHTS, table.usage[hot]).argmax()])  # the first greatest in id order
    hosted = table.vms[row]
    if not hosted:
        return None
    records = {vid: vms[vid] for vid in hosted}  # each VM read once
    m3 = avg_vm_usage(hosted, records)
    weights = ahp.derive_weights(m3)
    source_post_score = weighted_score(weights, ResourceVector._make(table.usage[row].tolist()) - m3)
    target = place(m3, weights, table.without(row))
    if target.rejected or not target.score < source_post_score:
        return None
    victim = select_victim(hosted, m3, records)
    return MigrationPlan(table.ids[row], victim, target.chosen, source_post_score, target.score)


def consolidate(table: ServerTable, vms: Mapping[str, VmRecord], low_watermark: ResourceVector,
                class_defaults: dict[str, ResourceVector]) -> tuple[list[MigrationPlan], list[str]]:
    """Drain under-utilized servers onto the rest and put them to sleep.

    Repeatedly looks for an active server whose usage sits strictly
    below the watermark and whose every hosted VM fits (by its restart
    estimate) somewhere else; the least-loaded such server (by uniform
    score, then id) is drained first.  Draining is all-or-nothing per
    server, so a server is never slept while it still hosts a VM.
    Returns the planned moves plus the ids to sleep; the caller applies
    both.  A trial drain is the table without the source and with a copy
    of its usage, where each placed VM adds its estimate to its target's
    row; one that places every VM becomes the call's table, hosted-id
    sets replaced, never changed.  The input table is never written.
    """
    sizing: dict[str, tuple[ResourceVector, WeightVector, ResourceVector]] = {}
    plans: list[MigrationPlan] = []
    sleeps: list[str] = []

    def size(vid: str) -> tuple[ResourceVector, WeightVector, ResourceVector]:
        # Records and class defaults are fixed for the whole call, so each VM is read once.
        if vid not in sizing:
            vm = vms[vid]
            estimate = estimate_demand_restart(vm, vms, class_defaults)
            sizing[vid] = estimate, ahp.derive_weights(estimate), vm.observed
        return sizing[vid]

    while True:
        low = table.usage < np.asarray(low_watermark)
        drainable = (table.active & low[:, 0] & low[:, 1] & low[:, 2]).nonzero()[0]
        # least uniform score, then least id, which is least row: a stable sort of rows in id order
        for row in drainable[_weighted(UNIFORM_WEIGHTS, table.usage[drainable]).argsort(kind="stable")].tolist():
            source, usage = table.ids[row], ResourceVector._make(table.usage[row].tolist())
            trial = table.without(row)
            trial.usage = trial.usage.copy()
            trial_plans = []
            for vid in sorted(table.vms[row]):
                estimate, weights, observed = size(vid)
                decision = place(estimate, weights, trial)
                if decision.rejected:
                    break
                trial.usage[trial.row(decision.chosen)] += estimate
                trial_plans.append(MigrationPlan(source, vid, decision.chosen, weighted_score(weights, usage - observed),
                                                 decision.score, "consolidate"))
            else:
                break  # every VM of source found a place
        else:
            return plans, sleeps
        trial.vms = list(trial.vms)
        trial.vms[row] = set()
        for plan in trial_plans:
            target = trial.row(plan.target)
            trial.vms[target] = trial.vms[target] | {plan.victim}
        table = trial  # the source stays inactive: asleep
        plans.extend(trial_plans)
        sleeps.append(source)


def wake_server(table: ServerTable) -> str | None:
    """The smallest-id sleeping server, for the caller to wake; None when all are awake."""
    asleep = (~table.active).nonzero()[0]
    return table.ids[asleep[0]] if len(asleep) else None
