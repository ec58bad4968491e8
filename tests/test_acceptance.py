"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass; any failure shows the offending numbers in the assert."""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import cusum_oracle, migration_oracle, random_cluster

from vmshield.ahp import consistency_ratio, derive_weights, principal_eigenvector
from vmshield.detector import TrafficInterval, process_trace
from vmshield.errors import InconsistentMatrix
from vmshield.resources import ResourceVector, WeightVector
from vmshield.scheduler import ServerState, avg_vm_usage, place, plan_migration
from vmshield.simulator import emit_reports, load_scenario, run
from vmshield.traffic import TrafficSpec, gen_normal_binned

SCENARIO_PATH = os.path.join(os.path.dirname(__file__), "..", "demos", "small_datacenter.json")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Two complete runs of the committed thousand-tick scenario."""
    started = time.perf_counter()
    report_a = run(load_scenario(SCENARIO_PATH))
    report_b = run(load_scenario(SCENARIO_PATH))
    elapsed = time.perf_counter() - started
    blobs = []
    for tag, report in (("a", report_a), ("b", report_b)):
        outdir = tmp_path_factory.mktemp("e2e_" + tag)
        paths = emit_reports(report, str(outdir))
        blobs.append({os.path.basename(p): Path(p).read_bytes() for p in paths})
    return {
        "scenario": load_scenario(SCENARIO_PATH),
        "report": report_a,
        "files_a": blobs[0],
        "files_b": blobs[1],
        "elapsed": elapsed,
    }


def test_criterion_1_detector_reproduces_published_trace():
    trace = [TrafficInterval(0, "vm1", 106242, 3), TrafficInterval(1, "vm1", 107762, 3)]
    started = time.perf_counter()
    report = process_trace(trace, drift=0.08, threshold=1.43)
    elapsed = time.perf_counter() - started
    ys = report.series["vm1"]
    assert ys[0] == pytest.approx(0.9199, abs=0.01)
    assert ys[1] == pytest.approx(1.8399, abs=0.01)
    assert [(a.vm_id, a.interval_index) for a in report.alarms] == [("vm1", 1)]
    assert elapsed < 1.0
    print(f"criterion 1 PASS: y={ [round(y, 4) for y in ys] }, alarm at interval 1, "
          f"{elapsed * 1000:.1f} ms")


def test_criterion_2_placement_reproduces_published_scores():
    weights = WeightVector(0.2, 0.6, 0.2)
    servers = [
        ServerState("A", usage=ResourceVector(70.4, 40, 60), threshold=ResourceVector(100, 100, 100)),
        ServerState("B", usage=ResourceVector(50.61, 30, 40), threshold=ResourceVector(100, 100, 100)),
        ServerState("C", usage=ResourceVector(71.44, 30, 50), threshold=ResourceVector(100, 100, 100)),
    ]
    decision = place(ResourceVector(4, 12, 4), weights, servers)
    assert decision.scores["A"] == pytest.approx(50.08, abs=1e-9)
    assert decision.scores["B"] == pytest.approx(36.122, abs=1e-9)
    assert decision.scores["C"] == pytest.approx(42.288, abs=1e-9)
    assert decision.chosen == "B"
    print("criterion 2 PASS: scores (50.08, 36.122, 42.288) within 1e-9, B selected")


def test_criterion_3_weight_recovery_and_inconsistency_rejection():
    worst = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 1.0, 3)
        w = w / w.sum()
        matrix = np.outer(w, 1.0 / w)
        recovered, lambda_max = principal_eigenvector(matrix)
        assert consistency_ratio(lambda_max) < 1e-9
        worst = max(worst, max(abs(a - b) for a, b in zip(recovered.as_tuple(), w)))
        assert worst <= 1e-6
    cyclic = [[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]
    with pytest.raises(InconsistentMatrix):
        derive_weights(cyclic, cr_limit=0.1)
    print(f"criterion 3 PASS: 1000 recoveries, worst error {worst:.2e}; "
          "cyclic matrix rejected at cr_limit 0.1")


def test_criterion_4_no_false_alarms_on_paired_traffic():
    n = 10_000
    peaks = {}
    for rate, seed in ((10, 1), (100, 2), (10_000, 3)):
        spec = TrafficSpec(vm_id="vm", mode="normal", base_rate=rate,
                           start=0, end=n, seed=seed)
        report = process_trace(gen_normal_binned(spec, n))
        assert report.alarms == [], f"false alarm at base_rate {rate}"
        peaks[rate] = max(report.series["vm"])
    balanced = [TrafficInterval(i, "vm", 100, 100) for i in range(n)]
    report = process_trace(balanced)
    assert report.alarms == []
    assert all(y == 0.0 for y in report.series["vm"])
    print(f"criterion 4 PASS: 0 alarms over {n} intervals at rates 10/100/10000 "
          f"(peak y {max(peaks.values()):.3f}); balanced input keeps y == 0")


def test_criterion_5_detection_latency_bounds():
    drift, threshold = 0.08, 1.43
    baseline = [TrafficInterval(i, "vm", 100, 100) for i in range(20)]
    surge = [TrafficInterval(20 + i, "vm", 150, 100) for i in range(20)]
    report = process_trace(baseline + surge, drift=drift, threshold=threshold)
    assert len(report.alarms) == 1
    latency = report.alarms[0].interval_index - 20 + 1
    assert latency <= 12
    # the oracle recurrence predicts the same crossing interval
    pairs = [(150, 100)] * 20
    ys, _ = cusum_oracle(pairs, drift, threshold)
    predicted = next(i for i, y in enumerate(ys) if y > threshold) + 1
    assert latency == predicted

    flood = [TrafficInterval(i, "vm", 1000, 0) for i in range(5)]
    report = process_trace(flood, drift=drift, threshold=threshold)
    assert report.alarms and report.alarms[0].interval_index + 1 <= 2
    print(f"criterion 5 PASS: +50% surge alarms after {latency} intervals (<= 12, "
          f"oracle agrees); pure flood alarms after "
          f"{report.alarms[0].interval_index + 1} intervals (<= 2)")


def test_criterion_6_migration_matches_bruteforce_oracle():
    plans = 0
    for seed in range(500):
        servers, vms = random_cluster(seed)
        expected = migration_oracle(servers, vms)
        plan = plan_migration(servers, vms)
        if expected is None:
            assert plan is None, f"seed {seed}: unexpected plan {plan}"
            continue
        assert plan is not None, f"seed {seed}: expected {expected}"
        src, victim, target, source_post, target_score = expected
        assert (plan.source, plan.victim, plan.target) == (src, victim, target), f"seed {seed}"
        assert plan.source_post_score == pytest.approx(source_post, abs=1e-9)
        assert plan.target_score == pytest.approx(target_score, abs=1e-9)
        # every emitted plan improves on the relieved source and keeps the
        # target feasible for the migrant estimate (its mean hosted usage)
        assert plan.target_score < plan.source_post_score
        src_server = next(s for s in servers if s.id == plan.source)
        estimate = avg_vm_usage(src_server, vms)
        tgt = next(s for s in servers if s.id == plan.target)
        projected = tgt.usage + estimate
        assert all(p < t for p, t in zip(projected.as_tuple(), tgt.threshold.as_tuple()))
        plans += 1
    assert plans > 0
    print(f"criterion 6 PASS: 500 clusters match the brute-force oracle "
          f"({plans} with a migration, {500 - plans} without)")


def test_criterion_7_end_to_end_determinism(e2e):
    assert sorted(e2e["files_a"]) == sorted(e2e["files_b"])
    for name, blob in e2e["files_a"].items():
        assert e2e["files_b"][name] == blob, f"{name} differs between identical runs"
    assert e2e["elapsed"] < 10.0
    counters = e2e["report"].summary["counters"]
    assert counters["placements"] == 20
    assert counters["alarms"] >= 1
    print(f"criterion 7 PASS: two 1000-tick runs byte-identical across "
          f"{len(e2e['files_a'])} report files in {e2e['elapsed']:.2f} s")


def test_criterion_8_conservation_and_lifecycle_invariants(e2e):
    scenario, report = e2e["scenario"], e2e["report"]
    overhead = {s.id: s.usage for s in scenario.servers}
    by_tick = {}
    for t, vm, obs, host in report.vm_samples:
        by_tick.setdefault(t, []).append((vm, obs, host))

    checked = 0
    for t_row, sid, cpu, mem, bw, power, nv in report.utilization:
        if power == "asleep":
            assert (cpu, mem, bw) == (0.0, 0.0, 0.0)
            assert nv == 0, f"asleep server {sid} hosts {nv} VMs at tick {t_row}"
            continue
        if t_row == 0:
            continue
        samples = by_tick.get(t_row - 1, [])
        expected = overhead[sid]
        hosted = sorted((vm, obs) for vm, obs, host in samples if host == sid)
        for _, obs in hosted:
            expected = expected + obs
        assert cpu == pytest.approx(expected.cpu, abs=1e-9)
        assert mem == pytest.approx(expected.mem, abs=1e-9)
        assert bw == pytest.approx(expected.bw, abs=1e-9)
        assert nv == len(hosted)
        checked += 1

    for t in by_tick:
        placed = [vm for vm, _, host in by_tick[t] if host is not None]
        assert len(placed) == len(set(placed)), f"double-hosted VM at tick {t}"
        total = sum(r[6] for r in report.utilization if r[0] == t + 1)
        assert total == len(placed)

    suspended = [a for a in report.alarms if a["action"] == "suspend"]
    assert suspended
    for alarm in suspended:
        after = [r for r in report.stat_rows
                 if r.vm_id == alarm["vm"] and r.interval_index > alarm["tick"]]
        assert after
        assert all(r.syn == 0 and r.finrst == 0 for r in after)
    print(f"criterion 8 PASS: conservation within 1e-9 on {checked} server-ticks, "
          f"no double-hosting, {len(suspended)} suspended VM(s) silent, "
          "asleep servers empty")
