"""
Scoring servers for a new VM
============================
"""

from vmshield import ResourceVector, ServerState, ServerTable, WeightVector, place

# three servers with identical capacity ceilings but different load
servers = ServerTable.from_servers([
    ServerState("A", usage=ResourceVector(70.4, 40, 60), threshold=ResourceVector(100, 100, 100)),
    ServerState("B", usage=ResourceVector(50.61, 30, 40), threshold=ResourceVector(100, 100, 100)),
    ServerState("C", usage=ResourceVector(71.44, 30, 50), threshold=ResourceVector(100, 100, 100)),
])

# the incoming VM is memory-heavy, so memory dominates the weights
demand = ResourceVector(cpu=4, mem=12, bw=4)
weights = WeightVector(0.2, 0.6, 0.2)

decision = place(demand, weights, servers)
for sid in sorted(decision.scores):
    marker = "  <- chosen" if sid == decision.chosen else ""
    print(f"server {sid}: score {decision.scores[sid]:8.3f}{marker}")

# feasibility is strict: usage + demand must stay below the threshold
# on every component, otherwise the server is not even scored
oversized = ResourceVector(cpu=40, mem=75, bw=40)
rejected = place(oversized, weights, servers)
print(f"\noversized demand: chosen={rejected.chosen!r}, reason={rejected.reason!r}")
