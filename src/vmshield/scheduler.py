"""Placement, overload migration, and low-load consolidation decisions.

All operations here are pure: they read cluster snapshots and return
decision values (``PlacementDecision``, ``MigrationPlan``, sleep lists,
the server to wake) that the simulation harness applies, and none of
them mutates its inputs.
Server JSON, in cluster and scenario files alike, is parsed and
validated here only (``ServerState.from_json``, ``validate_servers``).

Decision rules, in brief:

* A candidate server is feasible for a demand vector iff
  usage + demand is strictly below its threshold, componentwise.
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

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from . import ahp
from .errors import EmptyServer, ParseError, ValidationError
from .resources import (
    UNIFORM_WEIGHTS,
    ZERO,
    ResourceVector,
    WeightVector,
    json_list,
    json_object,
    json_str,
    rv_strictly_less,
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
    """A physical server: usage, per-server threshold, power state, hosted VMs."""

    id: str
    usage: ResourceVector = ZERO
    threshold: ResourceVector = ResourceVector(80.0, 80.0, 80.0)
    power: str = ACTIVE
    vms: set[str] = field(default_factory=set)

    @property
    def active(self) -> bool:
        return self.power == ACTIVE

    @classmethod
    def from_json(cls, obj, where: str = "server") -> "ServerState":
        """Parse one server entry; errors name the field as ``where.<key>``.

        Only the string ``id`` is required: the other _SERVER_KEYS take the
        dataclass defaults (``vms`` is an array of vm ids).  Unknown keys
        are rejected.
        """
        return cls(**json_object(obj, where, _SERVER_KEYS, ("id",)))


def _power(value, name: str) -> str:
    if value not in (ACTIVE, ASLEEP):
        raise ParseError(f"{name} must be {ACTIVE!r} or {ASLEEP!r}")
    return value


def _vm_ids(value, name: str) -> set[str]:
    vms = json_list(value, name, json_str)
    if len(set(vms)) != len(vms):
        raise ParseError(f"{name} names a vm twice")
    return set(vms)


_SERVER_KEYS = {"id": json_str, "usage": ResourceVector.from_json,
                "threshold": ResourceVector.from_json, "power": _power, "vms": _vm_ids}


def validate_servers(servers: list[ServerState]) -> None:
    """Server ids are non-empty and unique; threshold components are finite and > 0, usage ones finite and >= 0."""
    seen = set()
    for s in servers:
        if not s.id:
            raise ValidationError("server id must be non-empty")
        if s.id in seen:
            raise ValidationError(f"duplicate server id {s.id!r}")
        seen.add(s.id)
        if not all(0 < c < math.inf for c in s.threshold):
            raise ValidationError(f"server {s.id}: threshold components must be > 0 and finite, got {s.threshold}")
        if not all(0 <= c < math.inf for c in s.usage):
            raise ValidationError(f"server {s.id}: usage components must be >= 0 and finite, got {s.usage}")


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


@dataclass
class PlacementDecision:
    """Outcome of one placement pass: the scored candidate set and the pick."""

    demand_estimate: ResourceVector
    weights: WeightVector
    scores: dict[str, float]
    chosen: str | None
    reason: str | None = None

    @property
    def rejected(self) -> bool:
        return self.chosen is None


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
    bit.  A VM with no samples yet is estimated like a first start, from vms.
    """
    if not vm.samples:
        peers = [r.observed for r in vms.values() if r.hotspot_class == vm.hotspot_class]
        return estimate_demand_first_start(peers, class_defaults[vm.hotspot_class])
    return vm.usage_sum.scaled(1.0 / vm.samples)


def _feasible(demand: ResourceVector, servers: list[ServerState]) -> list[ServerState]:
    """Active servers where usage + demand stays strictly below the threshold.

    The same float sums and comparisons as
    rv_strictly_less(s.usage + demand, s.threshold), without a vector
    per candidate.
    """
    cpu, mem, bw = demand.cpu, demand.mem, demand.bw
    return [s for s in servers
            if s.power == ACTIVE
            and (u := s.usage).cpu + cpu < (t := s.threshold).cpu
            and u.mem + mem < t.mem and u.bw + bw < t.bw]


def place(
    vm_demand: ResourceVector,
    weights: WeightVector,
    servers: list[ServerState],
) -> PlacementDecision:
    """Score feasible servers on current usage and pick the minimum.

    Rejection ("no feasible server") is a value, not an error; callers
    may wake a sleeping server and retry.  Scores are weighted_score's
    dot product, from the float components.
    """
    wc, wm, wb = weights.as_tuple()
    scores = {s.id: wc * (u := s.usage).cpu + wm * u.mem + wb * u.bw
              for s in _feasible(vm_demand, servers)}
    if not scores:
        return PlacementDecision(vm_demand, weights, scores, None, NO_FEASIBLE_SERVER)
    _, chosen = min(zip(scores.values(), scores))  # least score, then least id
    return PlacementDecision(vm_demand, weights, scores, chosen)


def detect_overload(server: ServerState) -> bool:
    """Any usage component at or above its threshold component."""
    return (
        server.usage.cpu >= server.threshold.cpu
        or server.usage.mem >= server.threshold.mem
        or server.usage.bw >= server.threshold.bw
    )


def avg_vm_usage(server: ServerState, vms: Mapping[str, VmRecord]) -> ResourceVector:
    """Mean observed usage over the server's hosted VMs (the migrant estimate)."""
    if not server.vms:
        raise EmptyServer(f"server {server.id} hosts no VMs")
    hosted = [vms[vid].observed for vid in sorted(server.vms)]
    return mean_usage(hosted)


def _dist2(a: ResourceVector, b: ResourceVector) -> float:
    return (a.cpu - b.cpu) ** 2 + (a.mem - b.mem) ** 2 + (a.bw - b.bw) ** 2


def select_victim(server: ServerState, m3: ResourceVector, vms: Mapping[str, VmRecord]) -> str:
    """Hosted VM whose observed usage is nearest (Euclidean) to the average m3."""
    if not server.vms:
        raise EmptyServer(f"server {server.id} hosts no VMs")
    return min(sorted(server.vms), key=lambda vid: (_dist2(vms[vid].observed, m3), vid))


def plan_migration(
    servers: list[ServerState], vms: Mapping[str, VmRecord]
) -> MigrationPlan | None:
    """One rebalancing move off the hottest overloaded server, or None.

    The migrant demand estimate m3 is the source's average hosted VM;
    weights derive from m3's own demand profile.  The source's
    post-move score is weighted(usage - m3); the cheapest feasible
    other server wins iff its score is strictly below that.  Returns
    None when nothing is overloaded, the overloaded server is empty, or
    no candidate qualifies.
    """
    overloaded = [s for s in servers if s.active and detect_overload(s)]
    if not overloaded:
        return None
    source = min(overloaded, key=lambda s: (-weighted_score(UNIFORM_WEIGHTS, s.usage), s.id))
    if not source.vms:
        return None
    hosted = {vid: vms[vid] for vid in source.vms}  # each VM read once
    m3 = avg_vm_usage(source, hosted)
    weights = ahp.derive_weights(ahp.HotspotProfile(m3))
    source_post_score = weighted_score(weights, source.usage - m3)
    target = place(m3, weights, [s for s in servers if s.id != source.id])
    if target.rejected or not target.scores[target.chosen] < source_post_score:
        return None
    victim = select_victim(source, m3, hosted)
    return MigrationPlan(source.id, victim, target.chosen, source_post_score,
                         target.scores[target.chosen])


def consolidate(
    servers: list[ServerState],
    vms: Mapping[str, VmRecord],
    low_watermark: ResourceVector,
    class_defaults: dict[str, ResourceVector],
) -> tuple[list[MigrationPlan], list[str]]:
    """Drain under-utilized servers onto the rest and put them to sleep.

    Repeatedly looks for an active server whose usage sits strictly
    below the watermark and whose every hosted VM fits (by its restart
    estimate) somewhere else; the least-loaded such server is drained
    first.  Draining is all-or-nothing per server, so a server is never
    slept while it still hosts a VM.  Returns the planned moves plus
    the ids to sleep; the caller applies both.  Planning replaces servers
    and never mutates them: a trial drain maps each other server's id to
    its state and replaces a target's entry with a new ``ServerState``
    for each VM it places there.  A trial that places every VM of the
    source becomes the call's state, with the source an empty, sleeping
    server; the input objects themselves are never written.
    """
    work = {s.id: s for s in servers}
    sizing: dict[str, tuple[ResourceVector, WeightVector, ResourceVector]] = {}
    plans: list[MigrationPlan] = []
    sleeps: list[str] = []

    def size(vid: str) -> tuple[ResourceVector, WeightVector, ResourceVector]:
        # Records and class defaults are fixed for the whole call, so each VM is read once.
        if vid not in sizing:
            vm = vms[vid]
            estimate = estimate_demand_restart(vm, vms, class_defaults)
            sizing[vid] = estimate, ahp.derive_weights(ahp.HotspotProfile(estimate)), vm.observed
        return sizing[vid]

    while True:
        drainable = sorted(
            (
                s
                for s in work.values()
                if s.active and rv_strictly_less(s.usage, low_watermark)
            ),
            key=lambda s: (weighted_score(UNIFORM_WEIGHTS, s.usage), s.id),
        )
        for source in drainable:
            trial = {sid: s for sid, s in work.items() if sid != source.id}
            trial_plans = []
            for vid in sorted(source.vms):
                estimate, weights, observed = size(vid)
                decision = place(estimate, weights, list(trial.values()))
                if decision.rejected:
                    break
                t = trial[decision.chosen]
                trial[t.id] = ServerState(t.id, t.usage + estimate, t.threshold, t.power, t.vms | {vid})
                trial_plans.append(
                    MigrationPlan(
                        source=source.id,
                        victim=vid,
                        target=decision.chosen,
                        source_post_score=weighted_score(weights, source.usage - observed),
                        target_score=decision.scores[decision.chosen],
                        kind="consolidate",
                    )
                )
            else:
                break  # every VM of source found a place
        else:
            return plans, sleeps
        work.update(trial)
        work[source.id] = ServerState(source.id, ZERO, source.threshold, ASLEEP)
        plans.extend(trial_plans)
        sleeps.append(source.id)


def wake_server(servers: list[ServerState]) -> str | None:
    """The smallest-id sleeping server, for the caller to wake; None when all are awake."""
    return min((s.id for s in servers if s.power == ASLEEP), default=None)
