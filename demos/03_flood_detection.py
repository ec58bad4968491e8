"""
Catching a SYN flood with the per-VM CUSUM detector
===================================================

Normal TCP traffic pairs every SYN with a later FIN or RST, so the
normalized SYN/termination discrepancy hovers around zero.  A flood
breaks the pairing; the detector accumulates the excess and alarms
once the cumulative score crosses its threshold.
"""

from vmshield import TrafficSpec, bin_events, generate, merge_traces, process_trace

# one web VM: steady paired traffic for 60 intervals, with an
# unterminated SYN flood at 3x the base rate during intervals 20-40
normal = TrafficSpec(vm_id="web", mode="normal", base_rate=100, start=0, end=60, seed=7)
attack = TrafficSpec(vm_id="web", mode="attack", base_rate=100, attack_multiplier=3.0,
                     start=20, end=40, seed=8)

trace = merge_traces([generate(normal), generate(attack)])
print(f"generated {len(trace)} packets")

# fold the packet trace into per-interval (SYN, FIN|RST) counts and run
# the detector with its published defaults (drift 0.08, threshold 1.43)
counts = bin_events(trace, interval_seconds=10.0)
report = process_trace(counts)

for alarm in report.alarms:
    print(f"alarm: vm={alarm.vm_id} interval={alarm.interval_index} y={alarm.y_value:.3f}")

# a crude chart of the cumulative score around the attack window
print("\ninterval  y")
for i, y in enumerate(report.series["web"]):
    if 15 <= i < 50 and i % 2 == 0:
        bar = "#" * min(int(y * 10), 60)
        print(f"{i:8d}  {y:6.3f} {bar}")
