"""
Relieving an overloaded server, then consolidating idle ones
============================================================

Two sides of the same scoring machinery: when a server crosses its
threshold, one VM is migrated off it; when servers idle below a low
watermark, they are drained entirely and put to sleep.
"""

from vmshield import (
    ResourceVector,
    ServerState,
    ServerTable,
    VmRecord,
    consolidate,
    detect_overload,
    plan_migration,
)

# p1 has drifted past its 85-cpu ceiling; p2 runs light
servers = ServerTable.from_servers([
    ServerState("p1", usage=ResourceVector(90, 60, 60), threshold=ResourceVector(85, 200, 200),
                vms={"v1", "v2", "v3"}),
    ServerState("p2", usage=ResourceVector(20, 20, 20), threshold=ResourceVector(200, 200, 200)),
])
vms = {
    "v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(30, 20, 20)),
    "v2": VmRecord("v2", "cpu-intensive", observed=ResourceVector(35, 15, 15)),
    "v3": VmRecord("v3", "memory-intensive", observed=ResourceVector(15, 20, 20)),
}

print("overloaded:", [sid for sid, hot in zip(servers.ids, detect_overload(servers)) if hot])
plan = plan_migration(servers, vms)
print(f"plan: move {plan.victim} from {plan.source} to {plan.target}")
print(f"      relieved-source score {plan.source_post_score:.3f} "
      f"vs target score {plan.target_score:.3f}")

# consolidation: two lightly loaded servers, everything fits on one
servers = ServerTable.from_servers([
    ServerState("p1", usage=ResourceVector(30, 25, 25), threshold=ResourceVector(100, 100, 100),
                vms={"v1"}),
    ServerState("p2", usage=ResourceVector(28, 24, 24), threshold=ResourceVector(100, 100, 100),
                vms={"v2"}),
])
# restart estimates use each VM's own usage samples
vms = {
    "v1": VmRecord.from_samples("v1", "cpu-intensive", [ResourceVector(25, 20, 20)],
                                observed=ResourceVector(25, 20, 20)),
    "v2": VmRecord.from_samples("v2", "cpu-intensive", [ResourceVector(24, 20, 20)],
                                observed=ResourceVector(24, 20, 20)),
}

low_watermark = ResourceVector(40, 40, 40)
plans, sleeps = consolidate(servers, vms, low_watermark, class_defaults={})
for p in plans:
    print(f"\nconsolidate: move {p.victim} from {p.source} to {p.target}")
print("servers put to sleep:", sleeps)
