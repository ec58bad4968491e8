from __future__ import annotations

import copy
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import consolidate_oracle, migration_oracle, random_cluster
from vmshield.ahp import derive_weights
from vmshield.errors import EmptyServer, ValidationError
from vmshield.resources import UNIFORM_WEIGHTS, ZERO, ResourceVector, WeightVector, weighted_score
from vmshield.scheduler import (
    ServerState,
    ServerTable,
    VmRecord,
    avg_vm_usage,
    consolidate,
    detect_overload,
    estimate_demand_first_start,
    estimate_demand_restart,
    normalize_class,
    place,
    plan_migration,
    select_victim,
    wake_server,
)

CLASS_DEFAULTS = {
    "cpu-intensive": ResourceVector(40, 15, 10),
    "memory-intensive": ResourceVector(15, 40, 10),
    "bandwidth-intensive": ResourceVector(10, 15, 40),
}


def _server(sid, usage, threshold=(80, 80, 80), power="active", vms=()):
    return ServerState(
        sid,
        usage=ResourceVector(*usage),
        threshold=ResourceVector(*threshold),
        power=power,
        vms=set(vms),
    )


def _table_state(table):
    """Everything a ServerTable holds, as plain values that compare with ==."""
    return (table.ids, table.usage.tolist(), table.threshold.tolist(), table.active.tolist(),
            [set(vms) for vms in table.vms])


def test_normalize_class_aliases_and_rejects():
    assert normalize_class("mem-intensive") == "memory-intensive"
    assert normalize_class("cpu-intensive") == "cpu-intensive"
    with pytest.raises(ValueError):
        normalize_class("gpu-intensive")


def test_first_start_estimate_without_peers_uses_class_default():
    d = estimate_demand_first_start([], CLASS_DEFAULTS["cpu-intensive"])
    assert d == CLASS_DEFAULTS["cpu-intensive"]


def test_first_start_estimate_averages_class_peers():
    # peers come as observed-usage triples, ResourceVectors or plain lists alike
    peers = [ResourceVector(30, 10, 10), [50.0, 20.0, 10.0]]
    d = estimate_demand_first_start(peers, CLASS_DEFAULTS["cpu-intensive"])
    assert d == ResourceVector(40, 15, 10)


def test_restart_estimate_prefers_own_history():
    vm = VmRecord.from_samples(
        "a",
        "cpu-intensive",
        [ResourceVector(10, 10, 10), ResourceVector(30, 20, 10)],
    )
    d = estimate_demand_restart(vm, {}, CLASS_DEFAULTS)
    assert d == ResourceVector(20, 15, 10)
    bare = VmRecord("b", "bandwidth-intensive")
    assert estimate_demand_restart(bare, {}, CLASS_DEFAULTS) == CLASS_DEFAULTS["bandwidth-intensive"]


def test_a_restarting_vm_is_not_its_own_peer():
    # a VM with no samples is sized by the other VMs of its class: one alone in
    # its class falls back to the class default, not to its own zero observed usage
    vm = VmRecord("v1", "cpu-intensive")
    assert estimate_demand_restart(vm, {"v1": vm}, CLASS_DEFAULTS) == CLASS_DEFAULTS["cpu-intensive"]
    peer = VmRecord("v2", "cpu-intensive", ResourceVector(8, 4, 2))
    assert estimate_demand_restart(vm, {"v1": vm, "v2": peer}, CLASS_DEFAULTS) == ResourceVector(8, 4, 2)


def test_feasibility_is_strict():
    demand = ResourceVector(10, 10, 10)
    servers = [
        _server("eq", (70, 60, 60)),   # cpu lands exactly on 80
        _server("ok", (69.9, 60, 60)),
        _server("hot", (75, 75, 75)),
    ]
    assert list(place(demand, UNIFORM_WEIGHTS, ServerTable.from_servers(servers)).scores) == ["ok"]


def test_filter_skips_sleeping_servers():
    servers = [_server("a", (0, 0, 0), power="asleep"), _server("b", (0, 0, 0))]
    assert list(place(ResourceVector(1, 1, 1), UNIFORM_WEIGHTS, ServerTable.from_servers(servers)).scores) == ["b"]


def test_place_reproduces_published_example():
    w = WeightVector(0.2, 0.6, 0.2)
    servers = [
        _server("A", (70.4, 40, 60), threshold=(100, 100, 100)),
        _server("B", (50.61, 30, 40), threshold=(100, 100, 100)),
        _server("C", (71.44, 30, 50), threshold=(100, 100, 100)),
    ]
    decision = place(ResourceVector(4, 12, 4), w, ServerTable.from_servers(servers))
    assert decision.scores["A"] == pytest.approx(50.08, abs=1e-9)
    assert decision.scores["B"] == pytest.approx(36.122, abs=1e-9)
    assert decision.scores["C"] == pytest.approx(42.288, abs=1e-9)
    assert decision.chosen == "B"
    assert not decision.rejected


def test_place_ties_break_to_smaller_id():
    servers = [_server("b", (10, 10, 10)), _server("a", (10, 10, 10))]
    decision = place(ResourceVector(1, 1, 1), UNIFORM_WEIGHTS, ServerTable.from_servers(servers))
    assert decision.chosen == "a"


def test_place_scores_current_usage_not_projected():
    # the demand influences feasibility only; scores rank current load
    w = UNIFORM_WEIGHTS
    servers = [_server("a", (30, 30, 30)), _server("b", (29, 29, 29))]
    decision = place(ResourceVector(45, 45, 45), w, ServerTable.from_servers(servers))
    assert decision.scores["a"] == pytest.approx(30.0)
    assert decision.chosen == "b"


def test_place_rejection_is_a_value():
    servers = [_server("a", (79, 79, 79)), _server("b", (50, 50, 50), power="asleep")]
    decision = place(ResourceVector(5, 5, 5), UNIFORM_WEIGHTS, ServerTable.from_servers(servers))
    assert decision.rejected
    assert decision.chosen is None
    assert decision.reason == "no feasible server"
    assert decision.scores == {}


def test_place_does_not_mutate_servers():
    table = ServerTable.from_servers([_server("a", (10, 10, 10), vms=("v1",))])
    before = _table_state(table)
    place(ResourceVector(5, 5, 5), UNIFORM_WEIGHTS, table)
    assert _table_state(table) == before


def test_overload_is_complement_of_strict_feasibility():
    rng = np.random.default_rng(99)
    for _ in range(500):
        usage = ResourceVector(*(float(x) for x in rng.uniform(0, 100, 3)))
        threshold = ResourceVector(*(float(x) for x in rng.uniform(1, 100, 3)))
        s = ServerState("x", usage=usage, threshold=threshold)
        strictly_below = all(u < t for u, t in zip(usage, threshold))
        assert detect_overload(ServerTable.from_servers([s]))[0] == (not strictly_below)


def test_overload_on_exact_threshold():
    table = ServerTable.from_servers([_server("a", (80, 0, 0)), _server("b", (79.999, 79.999, 79.999))])
    assert detect_overload(table).tolist() == [True, False]


def test_avg_vm_usage_and_empty_server():
    vms = {
        "v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(30, 20, 10)),
        "v2": VmRecord("v2", "cpu-intensive", observed=ResourceVector(40, 30, 20)),
        "v3": VmRecord("v3", "cpu-intensive", observed=ResourceVector(20, 10, 30)),
    }
    s = _server("p1", (90, 60, 60), vms=("v1", "v2", "v3"))
    assert avg_vm_usage(s.vms, vms) == ResourceVector(30, 20, 20)
    with pytest.raises(EmptyServer):
        avg_vm_usage(_server("p2", (0, 0, 0)).vms, vms)


def test_select_victim_nearest_to_average():
    vms = {
        "v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(30, 20, 10)),
        "v2": VmRecord("v2", "cpu-intensive", observed=ResourceVector(40, 30, 20)),
        "v3": VmRecord("v3", "cpu-intensive", observed=ResourceVector(20, 10, 30)),
    }
    s = _server("p1", (90, 60, 60), vms=vms.keys())
    m3 = avg_vm_usage(s.vms, vms)
    # distances to (30,20,20): v1 -> 10, v2 -> sqrt(200), v3 -> sqrt(300)
    assert select_victim(s.vms, m3, vms) == "v1"


def test_select_victim_tie_breaks_by_id():
    vms = {
        "v2": VmRecord("v2", "cpu-intensive", observed=ResourceVector(10, 10, 12)),
        "v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(10, 10, 8)),
    }
    s = _server("p1", (90, 90, 90), vms=("v1", "v2"))
    assert select_victim(s.vms, ResourceVector(10, 10, 10), vms) == "v1"


def test_plan_migration_worked_example():
    vms = {
        "v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(30, 20, 10)),
        "v2": VmRecord("v2", "cpu-intensive", observed=ResourceVector(40, 30, 20)),
        "v3": VmRecord("v3", "cpu-intensive", observed=ResourceVector(20, 10, 30)),
    }
    servers = [
        _server("P1", (90, 60, 60), vms=("v1", "v2", "v3")),  # cpu over 80
        _server("P2", (20, 20, 20)),
        _server("P3", (60, 70, 50)),  # mem would land on 90: infeasible
    ]
    plan = plan_migration(ServerTable.from_servers(servers), vms)
    assert plan is not None
    assert (plan.source, plan.victim, plan.target) == ("P1", "v1", "P2")
    # m3 = (30,20,20), shares (3/7, 2/7, 2/7):
    # post score = (3*60 + 2*40 + 2*40) / 7, target score = 20
    assert plan.source_post_score == pytest.approx(340 / 7, abs=1e-9)
    assert plan.target_score == pytest.approx(20.0, abs=1e-9)
    assert plan.kind == "overload"


def test_plan_migration_none_when_balanced():
    servers = [_server("a", (40, 40, 40)), _server("b", (50, 50, 50))]
    assert plan_migration(ServerTable.from_servers(servers), {}) is None


def test_plan_migration_none_when_no_target_improves():
    vms = {"v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(50, 50, 50))}
    servers = [
        _server("a", (85, 60, 60), vms=("v1",)),
        _server("b", (84, 60, 60)),  # feasible would be 134 cpu: no
    ]
    assert plan_migration(ServerTable.from_servers(servers), vms) is None


def test_plan_migration_empty_overloaded_server_is_skipped():
    servers = [_server("a", (90, 90, 90)), _server("b", (10, 10, 10))]
    assert plan_migration(ServerTable.from_servers(servers), {}) is None


def test_plan_migration_picks_hottest_source():
    vms = {
        "v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(10, 10, 10)),
        "v2": VmRecord("v2", "cpu-intensive", observed=ResourceVector(10, 10, 10)),
    }
    servers = [
        _server("a", (85, 40, 40), vms=("v1",)),
        _server("b", (95, 70, 70), vms=("v2",)),  # higher uniform score
        _server("c", (10, 10, 10)),
    ]
    plan = plan_migration(ServerTable.from_servers(servers), vms)
    assert plan is not None
    assert plan.source == "b"
    assert plan.target == "c"


def test_plan_migration_matches_bruteforce_oracle_seeded():
    for seed in range(150):
        servers, vms = random_cluster(seed)
        expected = migration_oracle(servers, vms)
        plan = plan_migration(ServerTable.from_servers(servers), vms)
        if expected is None:
            assert plan is None, f"seed {seed}: library planned, oracle declined"
        else:
            assert plan is not None, f"seed {seed}: oracle planned, library declined"
            got = (plan.source, plan.victim, plan.target)
            assert got == expected[:3], f"seed {seed}: {got} != {expected[:3]}"
            assert plan.source_post_score == pytest.approx(expected[3], rel=1e-9)
            assert plan.target_score == pytest.approx(expected[4], rel=1e-9)
            assert plan.target_score < plan.source_post_score


def test_consolidate_drains_and_sleeps_idle_server():
    vms = {
        "v1": VmRecord.from_samples(
            "v1",
            "cpu-intensive",
            [ResourceVector(10, 5, 5)],
            observed=ResourceVector(10, 5, 5),
        ),
    }
    servers = [
        _server("a", (40, 40, 40)),
        _server("b", (12, 7, 7), vms=("v1",)),
    ]
    plans, sleeps = consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert sleeps == ["b"]
    assert len(plans) == 1
    assert (plans[0].victim, plans[0].source, plans[0].target) == ("v1", "b", "a")
    assert plans[0].kind == "consolidate"
    # pure planning: the input cluster is untouched
    assert servers[1].power == "active"
    assert servers[1].vms == {"v1"}


def test_plain_tuples_serve_as_class_defaults():
    # a VM with no samples and no class peers is sized by its class default, whose weights
    # derive_weights used to refuse for a tuple: "pairwise matrix must be 3x3, got shape (3,)"
    tuples = {name: tuple(vec) for name, vec in CLASS_DEFAULTS.items()}
    fresh = VmRecord("v9", "cpu-intensive")
    estimate = estimate_demand_restart(fresh, {}, tuples)
    assert estimate == (40, 15, 10)
    assert derive_weights(estimate).as_tuple() == derive_weights(CLASS_DEFAULTS["cpu-intensive"]).as_tuple()
    # v1 is alone in its class, so consolidate sizes it by the default too: (40, 15, 10) fits on a
    vms = {"v1": VmRecord("v1", "cpu-intensive", observed=ResourceVector(10, 5, 5))}
    servers = [_server("a", (30, 30, 30)), _server("b", (12, 7, 7), vms=("v1",))]
    expected = consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), tuples) == expected
    assert expected[1] == ["b"] and [(p.victim, p.target) for p in expected[0]] == [("v1", "a")]


def test_consolidate_is_all_or_nothing():
    vms = {
        "v1": VmRecord.from_samples("v1", "cpu-intensive", [ResourceVector(5, 5, 5)],
                                    observed=ResourceVector(5, 5, 5)),
        "v2": VmRecord.from_samples("v2", "cpu-intensive", [ResourceVector(70, 70, 70)],
                                    observed=ResourceVector(5, 5, 5)),  # won't fit anywhere
    }
    servers = [
        _server("a", (50, 50, 50)),
        _server("b", (10, 10, 10), vms=("v1", "v2")),
    ]
    plans, sleeps = consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert plans == []
    assert sleeps == []


def test_consolidate_empty_idle_server_sleeps_without_moves():
    servers = [_server("a", (40, 40, 40)), _server("b", (3, 3, 3))]
    plans, sleeps = consolidate(ServerTable.from_servers(servers), {}, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert plans == []
    assert sleeps == ["b"]


def test_consolidate_drains_least_loaded_first():
    vms = {
        "v1": VmRecord.from_samples("v1", "cpu-intensive", [ResourceVector(15, 15, 15)],
                                    observed=ResourceVector(15, 15, 15)),
        "v2": VmRecord.from_samples("v2", "cpu-intensive", [ResourceVector(5, 5, 5)],
                                    observed=ResourceVector(5, 5, 5)),
    }
    servers = [
        _server("a", (15, 15, 15), vms=("v1",)),
        _server("b", (5, 5, 5), vms=("v2",)),
        # c has room for one small VM only
        _server("c", (73, 73, 73)),
    ]
    plans, sleeps = consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    # lighter server drains first onto a, which then sits exactly at the
    # watermark and stops being drainable
    assert sleeps == ["b"]
    assert [(p.victim, p.target) for p in plans] == [("v2", "a")]


def test_consolidate_can_cascade():
    vms = {
        "v1": VmRecord.from_samples("v1", "cpu-intensive", [ResourceVector(4, 4, 4)],
                                    observed=ResourceVector(4, 4, 4)),
        "v2": VmRecord.from_samples("v2", "cpu-intensive", [ResourceVector(6, 6, 6)],
                                    observed=ResourceVector(6, 6, 6)),
    }
    servers = [
        _server("a", (4, 4, 4), vms=("v1",)),
        _server("b", (6, 6, 6), vms=("v2",)),
        _server("c", (40, 40, 40)),
    ]
    plans, sleeps = consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    # a drains onto b first (b scores lower than c), then b itself drains
    assert sleeps == ["a", "b"]
    assert [(p.victim, p.source, p.target) for p in plans] == [
        ("v1", "a", "b"),
        ("v1", "b", "c"),
        ("v2", "b", "c"),
    ]


def _consolidation_case(seed):
    """random_cluster with VMs shrunk to a quarter of their observed usage,
    random classes and usage samples, and a random low watermark.

    Returns the samples of each VM too, for the oracle to average itself."""
    servers, vms = random_cluster(seed)
    rng = np.random.default_rng(10_000 + seed)
    classes = sorted(CLASS_DEFAULTS)
    host = {vid: s for s in servers for vid in s.vms}
    samples = {}
    for vid, record in vms.items():
        hotspot_class = classes[int(rng.integers(0, 3))]
        observed = record.observed
        if vid in host:
            shrink = observed.scaled(0.75)
            host[vid].usage = host[vid].usage - shrink
            observed = observed - shrink
        samples[vid] = []
        if rng.random() < 0.8:
            samples[vid] = [ResourceVector(*(float(x) for x in rng.uniform(0, 15, 3)))
                            for _ in range(int(rng.integers(1, 5)))]
        vms[vid] = VmRecord.from_samples(vid, hotspot_class, samples[vid], observed=observed)
    low = ResourceVector(*(float(x) for x in rng.uniform(5, 90, 3)))
    return servers, vms, low, samples


def test_consolidate_matches_deepcopy_oracle_and_never_mutates_inputs():
    drained_clusters = moves = 0
    for seed in range(300):
        servers, vms, low, samples = _consolidation_case(seed)
        table = ServerTable.from_servers(servers)
        table_before = _table_state(table)
        vms_before = copy.deepcopy(vms)
        expected_moves, expected_sleeps = consolidate_oracle(servers, vms, samples, low, CLASS_DEFAULTS)
        plans, sleeps = consolidate(table, vms, low, CLASS_DEFAULTS)

        assert sleeps == expected_sleeps, f"seed {seed}"
        got = [(p.source, p.victim, p.target) for p in plans]
        assert got == [m[:3] for m in expected_moves], f"seed {seed}"
        for plan, move in zip(plans, expected_moves):
            assert plan.kind == "consolidate"
            assert plan.source_post_score == pytest.approx(move[3], rel=1e-9, abs=1e-9)
            assert plan.target_score == pytest.approx(move[4], rel=1e-9, abs=1e-9)

        # applying the plans leaves every slept server empty
        hosted = {s.id: set(s.vms) for s in servers}
        for plan in plans:
            hosted[plan.source].remove(plan.victim)
            hosted[plan.target].add(plan.victim)
        assert all(not hosted[sid] for sid in sleeps), f"seed {seed}"

        # planning never mutates its inputs
        assert _table_state(table) == table_before, f"seed {seed}"
        assert vms == vms_before, f"seed {seed}"
        drained_clusters += bool(sleeps)
        moves += len(plans)
    # the random watermarks exercise both outcomes, and drains move VMs
    assert 100 < drained_clusters < 250 and moves > 300, (drained_clusters, moves)


class _CountingVms(Mapping):
    """A read-only id -> VmRecord map that counts the lookups of each id."""

    def __init__(self, records):
        self.records = records
        self.reads = Counter()

    def __getitem__(self, vid):
        self.reads[vid] += 1
        return self.records[vid]

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def _sampled(vid, sample, observed):
    # one sample each, so no restart estimate falls back to walking every VM
    return VmRecord.from_samples(vid, "cpu-intensive", [ResourceVector(*sample)],
                                 observed=ResourceVector(*observed))


def test_planning_reads_each_vm_once_per_call():
    vms = _CountingVms({vid: _sampled(vid, obs, obs) for vid, obs in
                        (("v1", (20, 10, 10)), ("v2", (30, 10, 10)), ("v3", (35, 10, 10)))})
    servers = [_server("a", (85, 30, 30), vms=("v1", "v2", "v3")), _server("b", (10, 10, 10))]
    plan = plan_migration(ServerTable.from_servers(servers), vms)
    assert (plan.source, plan.victim, plan.target) == ("a", "v2", "b")
    assert vms.reads == {"v1": 1, "v2": 1, "v3": 1}

    # a fails to drain (v2 fits nowhere) after placing v1; b then drains onto
    # a; a fails again, and v1 has been placed in both of a's trials
    vms = _CountingVms({"v1": _sampled("v1", (3, 3, 3), (3, 3, 3)),
                        "v2": _sampled("v2", (75, 75, 75), (1, 1, 1)),
                        "v3": _sampled("v3", (6, 6, 6), (6, 6, 6))})
    servers = [_server("a", (3, 3, 3), vms=("v1", "v2")), _server("b", (6, 6, 6), vms=("v3",)),
               _server("c", (40, 40, 40))]
    plans, sleeps = consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert sleeps == ["b"]
    assert [(p.victim, p.source, p.target) for p in plans] == [("v3", "b", "a")]
    assert vms.reads == {"v1": 1, "v2": 1, "v3": 1}

    # test_consolidate_can_cascade's cluster: v1 moves twice, but is read once
    vms = _CountingVms({"v1": _sampled("v1", (4, 4, 4), (4, 4, 4)),
                        "v2": _sampled("v2", (6, 6, 6), (6, 6, 6))})
    servers = [_server("a", (4, 4, 4), vms=("v1",)), _server("b", (6, 6, 6), vms=("v2",)),
               _server("c", (40, 40, 40))]
    plans, sleeps = consolidate(ServerTable.from_servers(servers), vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert sleeps == ["a", "b"] and len(plans) == 3
    assert vms.reads == {"v1": 1, "v2": 1}


def test_wake_server_picks_smallest_sleeping_id():
    servers = [
        _server("c", (0, 0, 0), power="asleep"),
        _server("a", (10, 10, 10)),
        _server("b", (0, 0, 0), power="asleep"),
    ]
    assert wake_server(ServerTable.from_servers(servers)) == "b"
    servers[2].power = "active"  # the caller wakes it
    assert wake_server(ServerTable.from_servers(servers)) == "c"
    servers[0].power = "active"
    assert wake_server(ServerTable.from_servers(servers)) is None


def test_wake_server_leaves_every_server_as_it_was():
    servers = [_server("c", (0, 0, 0), power="asleep"), _server("a", (10, 10, 10)),
               _server("b", (0, 0, 0), power="asleep")]
    table = ServerTable.from_servers(servers)
    before = _table_state(table)
    assert wake_server(table) == "b"
    assert _table_state(table) == before


def test_uniform_score_used_for_source_ranking():
    # sanity: uniform weights rank by mean usage
    hot = ResourceVector(90, 10, 10)
    warm = ResourceVector(40, 40, 40)
    assert weighted_score(UNIFORM_WEIGHTS, warm) > weighted_score(UNIFORM_WEIGHTS, hot)


def test_zero_usage_cluster_places_on_smallest_id():
    servers = [_server(sid, (0, 0, 0)) for sid in ("s2", "s1", "s3")]
    decision = place(ResourceVector(10, 10, 10), UNIFORM_WEIGHTS, ServerTable.from_servers(servers))
    assert decision.chosen == "s1"
    assert decision.demand_estimate == ResourceVector(10, 10, 10)
    assert decision.weights == UNIFORM_WEIGHTS


def test_avg_usage_equals_zero_vector_edge():
    vms = {"v1": VmRecord("v1", "cpu-intensive", observed=ZERO)}
    s = _server("a", (90, 90, 90), vms=("v1",))
    assert avg_vm_usage(s.vms, vms) == ZERO


def test_the_table_holds_servers_in_id_order_and_copies_them():
    servers = [_server("b", (1, 2, 3), vms=("v2",)), _server("a", (4, 5, 6), (90, 90, 90), "asleep", ("v1",))]
    table = ServerTable.from_servers(servers)
    assert _table_state(table) == (("a", "b"), [[4, 5, 6], [1, 2, 3]], [[90, 90, 90], [80, 80, 80]],
                                   [False, True], [{"v1"}, {"v2"}])
    assert table.row("b") == 1
    table.vms[0].add("v3")
    assert servers[1].vms == {"v1"}


NAN = float("nan")


@pytest.mark.parametrize("servers, message", [
    ([_server("", (0, 0, 0))], "^server id must be non-empty$"),
    ([_server("a", (0, 0, 0)), _server("b", (0, 0, 0)), _server("a", (1, 1, 1))], "^duplicate server id 'a'$"),
    ([_server("a", (0, 0, 0), power="on")], "^server a: power must be 'active' or 'asleep', got 'on'$"),
    ([_server("a", (0, 0, 0), (80, NAN, 80))], "^server a: threshold components must be > 0 and finite"),
    ([_server("a", (0, 0, 0), (80, 0, 80))], "^server a: threshold components must be > 0 and finite"),
    ([_server("a", (-50, 0, 0))], "^server a: usage components must be >= 0 and finite"),
    ([_server("a", (0, 0, float("inf")))], "^server a: usage components must be >= 0 and finite"),
    ([ServerState("a", vms=["v2", "v1", "v2"])], "^server a: hosts vm 'v2' twice$"),
    # hosted ids are walked sorted, so the message names v1 whatever order a set iterates in
    ([_server("b", (0, 0, 0), vms=("v2", "v1")), _server("a", (0, 0, 0), vms=("v1", "v2"))],
     "^vm 'v1' hosted by both a and b$"),
    # these used to build a table, or to end in numpy's or sorted's error naming no server
    ([ServerState(5), ServerState(7)], r"^servers\[0\]: id must be a string, got 5$"),
    ([ServerState("a"), ServerState(7)], r"^servers\[1\]: id must be a string, got 7$"),
    ([ServerState("a"), ServerState("b\udfff")], r"^servers\[1\]: id must be a UTF-8 string, got 'b\\udfff'$"),
    ([ServerState("a", vms="v1")], "^server a: vms must be a collection of vm id strings, got 'v1'$"),
    ([ServerState("a", vms=["v1", 2])], r"^server a: vms must be a collection of vm id strings, got \['v1', 2\]$"),
    ([ServerState("a", usage=(1, 2))], r"^server a: usage must be three numbers, got \(1, 2\)$"),
    ([ServerState("a", threshold=(80, "80", 80))], r"^server a: threshold must be three numbers, got \(80, '80', 80\)$"),
    ([ServerState("a", usage=(True, 0, 0))], r"^server a: usage must be three numbers, got \(True, 0, 0\)$"),
], ids=["empty-id", "duplicate-id", "power-on", "threshold-nan", "threshold-0", "usage-negative", "usage-inf",
        "vm-twice-on-one", "vm-on-two", "int-ids", "int-id-after-str", "surrogate-id", "vms-string", "vms-int",
        "usage-two", "threshold-string", "usage-bool"])
def test_the_table_checks_every_server_list_it_is_built_from(servers, message):
    # these used to build a table: a NaN threshold left no feasible server, usage -50
    # scored -16.67, power "on" ran asleep and a VM on two servers could be migrated
    with pytest.raises(ValidationError, match=message):
        ServerTable.from_servers(servers)


def test_an_asleep_server_is_never_a_candidate_a_source_or_drained():
    vms = {"v1": _sampled("v1", (5, 5, 5), (5, 5, 5))}
    # the asleep server is the emptiest, overloaded and under the watermark, and hosts v1
    table = ServerTable.from_servers([_server("a", (90, 90, 90), (50, 50, 50), "asleep", ("v1",)),
                                      _server("b", (30, 30, 30)), _server("c", (10, 10, 10))])
    decision = place(ResourceVector(1, 1, 1), UNIFORM_WEIGHTS, table)
    assert (list(decision.scores), decision.chosen) == (["b", "c"], "c")
    assert plan_migration(table, vms) is None
    plans, sleeps = consolidate(table, vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert (plans, sleeps) == ([], ["c"])
    assert wake_server(table) == "a"


def test_a_score_tie_goes_to_the_least_id_in_any_input_order():
    servers = [_server(sid, (10, 20, 30)) for sid in ("s3", "s10", "s2")]
    decision = place(ResourceVector(1, 1, 1), WeightVector(0.2, 0.5, 0.3), ServerTable.from_servers(servers))
    assert len(set(decision.scores.values())) == 1
    assert decision.chosen == "s10"
    # the hottest of two equally hot overloaded servers is the least id too
    vms = {vid: _sampled(vid, (5, 5, 5), (5, 5, 5)) for vid in ("v1", "v2")}
    servers = [_server("q", (85, 10, 10), vms=("v2",)), _server("p", (85, 10, 10), vms=("v1",)),
               _server("z", (0, 0, 0))]
    plan = plan_migration(ServerTable.from_servers(servers), vms)
    assert (plan.source, plan.victim, plan.target) == ("p", "v1", "z")


def test_usage_exactly_at_threshold_is_infeasible_and_overloaded():
    demand = ResourceVector(0.5, 0.25, 0.125)
    servers = [_server("at", (79.5, 10, 10)), _server("over", (80, 10, 10), (80, 90, 90)),
               _server("below", (10, 79.75 - 1e-12, 10))]
    table = ServerTable.from_servers(servers)
    # usage + demand lands exactly on the threshold for "at", just below it for "below"
    assert list(place(demand, UNIFORM_WEIGHTS, table).scores) == ["below"]
    assert detect_overload(table).tolist() == [False, False, True]


def test_consolidate_leaves_its_input_table_as_it_was():
    vms = {"v1": _sampled("v1", (4, 4, 4), (4, 4, 4)), "v2": _sampled("v2", (6, 6, 6), (6, 6, 6))}
    # test_consolidate_can_cascade's cluster: two drains, three moves
    table = ServerTable.from_servers([_server("a", (4, 4, 4), vms=("v1",)), _server("b", (6, 6, 6), vms=("v2",)),
                                      _server("c", (40, 40, 40))])
    vms_sets = list(table.vms)
    before = _table_state(table)
    plans, sleeps = consolidate(table, vms, ResourceVector(20, 20, 20), CLASS_DEFAULTS)
    assert sleeps == ["a", "b"] and len(plans) == 3
    assert _table_state(table) == before
    assert all(now is then for now, then in zip(table.vms, vms_sets))
