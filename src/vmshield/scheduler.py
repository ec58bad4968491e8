"""Placement, overload migration, and low-load consolidation decisions.

All operations here are pure: they read cluster snapshots and return
decision values (``PlacementDecision``, ``MigrationPlan``, sleep lists)
that the simulation harness applies.  Planning (``place``,
``plan_migration``, ``consolidate``) never mutates its inputs.  The one
exception is ``wake_server``, which flips the chosen server's power
state in place.
Server JSON, in cluster and scenario files alike, is parsed and
validated here only (``servers_from_json``, ``validate_servers``).

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

from dataclasses import dataclass, field

from . import ahp
from .errors import EmptyServer, ParseError, ValidationError
from .resources import (
    UNIFORM_WEIGHTS,
    ZERO,
    ResourceVector,
    WeightVector,
    rv_strictly_less,
    weighted_score,
)

HOTSPOT_CLASSES = ("cpu-intensive", "memory-intensive", "bandwidth-intensive")

# Older cluster files abbreviate the memory class.
_CLASS_ALIASES = {"mem-intensive": "memory-intensive"}

ACTIVE = "active"
ASLEEP = "asleep"

SERVER_KEYS = ("id", "usage", "threshold", "power", "vms")

NO_FEASIBLE_SERVER = "no feasible server"


def normalize_class(name: str) -> str:
    name = _CLASS_ALIASES.get(name, name)
    if name not in HOTSPOT_CLASSES:
        raise ValueError(f"unknown hotspot class {name!r}; expected one of {HOTSPOT_CLASSES}")
    return name


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

        Only the string ``id`` is required: the other SERVER_KEYS take the
        dataclass defaults (``vms`` is an array of vm ids).  Unknown keys
        are rejected.
        """
        if not isinstance(obj, dict):
            raise ParseError(f"{where} must be a JSON object")
        unknown = set(obj) - set(SERVER_KEYS)
        if unknown:
            raise ParseError(f"{where}: unknown keys {sorted(unknown)}; expected {SERVER_KEYS}")
        if not isinstance(obj.get("id"), str):
            raise ParseError(f"{where}.id must be a JSON string")
        vectors = {}
        for key in ("usage", "threshold"):
            if key in obj:
                try:
                    vectors[key] = ResourceVector.from_json(obj[key])
                except ParseError as exc:
                    raise ParseError(f"{where}.{key}: {exc}") from exc
        power = obj.get("power", ACTIVE)
        if power not in (ACTIVE, ASLEEP):
            raise ParseError(f"{where}.power must be {ACTIVE!r} or {ASLEEP!r}")
        vms = obj.get("vms", [])
        if not isinstance(vms, list) or not all(isinstance(v, str) for v in vms):
            raise ParseError(f"{where}.vms must be an array of vm id strings")
        if len(set(vms)) != len(vms):
            raise ParseError(f"{where}.vms names a vm twice")
        return cls(obj["id"], power=power, vms=set(vms), **vectors)


def servers_from_json(raw) -> list[ServerState]:
    """Parse a ``servers`` array entry by entry (see ServerState.from_json)."""
    if not isinstance(raw, list):
        raise ParseError("servers must be a JSON array")
    return [ServerState.from_json(s, f"servers[{i}]") for i, s in enumerate(raw)]


def validate_servers(servers: list[ServerState]) -> None:
    """Server ids are non-empty and unique; threshold components are > 0."""
    seen = set()
    for s in servers:
        if not s.id:
            raise ValidationError("server id must be non-empty")
        if s.id in seen:
            raise ValidationError(f"duplicate server id {s.id!r}")
        seen.add(s.id)
        if min(s.threshold.as_tuple()) <= 0:
            raise ValidationError(f"server {s.id}: threshold components must be > 0")


@dataclass
class VmRecord:
    """A VM's identity, hotspot class, usage history and current placement."""

    id: str
    hotspot_class: str
    observed: ResourceVector = ZERO
    history: list[ResourceVector] = field(default_factory=list)
    host: str | None = None


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


def mean_usage(vectors: list[ResourceVector]) -> ResourceVector:
    """Componentwise mean, summed left to right from 0.0 as repeated + would."""
    cpu = mem = bw = 0.0
    for v in vectors:
        cpu += v.cpu
        mem += v.mem
        bw += v.bw
    inv = 1.0 / len(vectors)
    return ResourceVector(cpu * inv, mem * inv, bw * inv)


def estimate_demand_first_start(
    hotspot_class: str,
    records: dict[str, VmRecord],
    class_defaults: dict[str, ResourceVector],
) -> ResourceVector:
    """Expected demand of a brand-new VM: mean observed usage of its class.

    Falls back to the configured class default when no VM of that class
    has ever been seen.
    """
    hotspot_class = normalize_class(hotspot_class)
    peers = [r.observed for r in records.values() if r.hotspot_class == hotspot_class]
    if not peers:
        return class_defaults[hotspot_class]
    return mean_usage(peers)


def estimate_demand_restart(
    vm: VmRecord,
    records: dict[str, VmRecord],
    class_defaults: dict[str, ResourceVector],
) -> ResourceVector:
    """Expected demand of a restarting VM: mean of its own history.

    A VM with no history yet is estimated like a first start.
    """
    if not vm.history:
        return estimate_demand_first_start(vm.hotspot_class, records, class_defaults)
    return mean_usage(vm.history)


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


def filter_candidates(demand: ResourceVector, servers: list[ServerState]) -> list[str]:
    """Active servers that can absorb the demand, in input order."""
    return [s.id for s in _feasible(demand, servers)]


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


def avg_vm_usage(server: ServerState, vms: dict[str, VmRecord]) -> ResourceVector:
    """Mean observed usage over the server's hosted VMs (the migrant estimate)."""
    if not server.vms:
        raise EmptyServer(f"server {server.id} hosts no VMs")
    hosted = [vms[vid].observed for vid in sorted(server.vms)]
    return mean_usage(hosted)


def _dist2(a: ResourceVector, b: ResourceVector) -> float:
    return (a.cpu - b.cpu) ** 2 + (a.mem - b.mem) ** 2 + (a.bw - b.bw) ** 2


def select_victim(server: ServerState, m3: ResourceVector, vms: dict[str, VmRecord]) -> str:
    """Hosted VM whose observed usage is nearest (Euclidean) to the average m3."""
    if not server.vms:
        raise EmptyServer(f"server {server.id} hosts no VMs")
    return min(sorted(server.vms), key=lambda vid: (_dist2(vms[vid].observed, m3), vid))


def plan_migration(
    servers: list[ServerState], vms: dict[str, VmRecord]
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
    m3 = avg_vm_usage(source, vms)
    weights = ahp.derive_weights(ahp.HotspotProfile(m3))
    source_post_score = weighted_score(weights, source.usage - m3)
    others = [s for s in servers if s.id != source.id]
    scored = sorted((weighted_score(weights, s.usage), s.id) for s in _feasible(m3, others))
    if not scored:
        return None
    best_score, best_id = scored[0]
    if not best_score < source_post_score:
        return None
    victim = select_victim(source, m3, vms)
    return MigrationPlan(source.id, victim, best_id, source_post_score, best_score)


def consolidate(
    servers: list[ServerState],
    vms: dict[str, VmRecord],
    low_watermark: ResourceVector,
    class_defaults: dict[str, ResourceVector],
) -> tuple[list[MigrationPlan], list[str]]:
    """Drain under-utilized servers onto the rest and put them to sleep.

    Repeatedly looks for an active server whose usage sits strictly
    below the watermark and whose every hosted VM fits (by its restart
    estimate) somewhere else; the least-loaded such server is drained
    first.  Draining is all-or-nothing per server, so a server is never
    slept while it still hosts a VM.  Returns the planned moves plus
    the ids to sleep; the caller applies both.  Planning never mutates
    its inputs: it works on shallow server copies (own ``vms`` sets, the
    frozen vectors shared), and a trial drain only records the usage of
    the targets it has loaded and its moves, committed when every VM of
    the source found a place.
    """
    work = {s.id: ServerState(s.id, s.usage, s.threshold, s.power, set(s.vms)) for s in servers}
    sizing: dict[str, tuple[ResourceVector, WeightVector]] = {}
    plans: list[MigrationPlan] = []
    sleeps: list[str] = []

    def size(vid: str) -> tuple[ResourceVector, WeightVector]:
        # Records and class defaults are fixed for the whole call.
        if vid not in sizing:
            estimate = estimate_demand_restart(vms[vid], vms, class_defaults)
            sizing[vid] = estimate, ahp.derive_weights(ahp.HotspotProfile(estimate))
        return sizing[vid]

    def trial_drain(source: ServerState) -> tuple[dict[str, ResourceVector], list[MigrationPlan]] | None:
        loaded: dict[str, ResourceVector] = {}
        trial_plans = []
        for vid in sorted(source.vms):
            estimate, weights = size(vid)
            others = [
                ServerState(s.id, loaded[s.id], s.threshold, s.power) if s.id in loaded else s
                for s in work.values()
                if s.id != source.id
            ]
            decision = place(estimate, weights, others)
            if decision.rejected:
                return None
            loaded[decision.chosen] = loaded.get(decision.chosen, work[decision.chosen].usage) + estimate
            trial_plans.append(
                MigrationPlan(
                    source=source.id,
                    victim=vid,
                    target=decision.chosen,
                    source_post_score=weighted_score(weights, source.usage - vms[vid].observed),
                    target_score=decision.scores[decision.chosen],
                    kind="consolidate",
                )
            )
        return loaded, trial_plans

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
            trial = trial_drain(source)
            if trial is not None:
                break
        else:
            return plans, sleeps
        loaded, trial_plans = trial
        for sid, usage in loaded.items():
            work[sid].usage = usage
        for plan in trial_plans:
            work[plan.target].vms.add(plan.victim)
        source.vms.clear()
        source.usage = ZERO
        source.power = ASLEEP
        plans.extend(trial_plans)
        sleeps.append(source.id)


def wake_server(servers: list[ServerState]) -> str | None:
    """Mark the smallest-id sleeping server active; None when all are awake."""
    asleep = sorted(s.id for s in servers if s.power == ASLEEP)
    if not asleep:
        return None
    target = next(s for s in servers if s.id == asleep[0])
    target.power = ACTIVE
    return target.id
