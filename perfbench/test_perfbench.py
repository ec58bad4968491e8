"""Tests of the benchmark itself: generators, tracer and checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import copy
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

import vmshield  # noqa: E402
from vmshield import ahp, cli, scheduler, simulator  # noqa: E402


# --- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    a, b, c = gen.make(name, 7), gen.make(name, 7), gen.make(name, 8)
    dump = lambda w: json.dumps(w.files, sort_keys=True)  # noqa: E731
    assert dump(a) == dump(b)
    assert a.scenarios == b.scenarios
    assert dump(a) != dump(c)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generated_inputs_parse(name):
    workload = gen.make(name, 3)
    for fname, obj in workload.files.items():
        if workload.kind == "simulate":
            simulator.Scenario.from_json(obj)
        else:
            for spec in obj["specs"]:
                vmshield.TrafficSpec.from_json(spec)


@pytest.mark.parametrize("module", ["gen.py", "checks.py", "run.py"])
def test_generators_and_checks_do_not_import_vmshield(module):
    with open(os.path.join(HERE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.split(".")[0] == "vmshield" for name in imported)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_worker_setup_reads_the_written_inputs(name, tmp_path):
    workload = gen.make(name, 3)
    run.write_inputs(workload, str(tmp_path))
    assert sorted(os.listdir(tmp_path / "in")) == sorted(workload.files)
    assert worker.setup(str(tmp_path)) > 0
    inputs = [a for argv in workload.commands(str(tmp_path)) for a in argv if a.endswith(".json")]
    assert len(inputs) == len(workload.files) and all(os.path.isfile(a) for a in inputs)


def test_normalised_time_follows_the_reference():
    samples = worker.reference_samples()
    assert len(samples) == worker.REF_SAMPLES and all(t > 0 for t in samples)
    fast = {"ref_samples": [0.01, 0.011, 0.012]}
    slow = {"ref_samples": [0.02, 0.022, 0.024]}
    assert run.normalised(1.0, fast) == pytest.approx(run.normalised(2.0, slow))
    assert run.normalised(run.NOMINAL_REF_S, {"ref_samples": [run.NOMINAL_REF_S]}) == \
        pytest.approx(run.NOMINAL_REF_S)


# --- tracer -------------------------------------------------------------------


def _module_attrs():
    return {(name, key): value for name, mod in sys.modules.items()
            if mod is not None and (name == "vmshield" or name.startswith("vmshield."))
            for key, value in vars(mod).items()}


def test_tracer_patches_every_alias_and_restores_them():
    before = _module_attrs()
    original = ahp.derive_weights
    t = tracer.Tracer()
    with t:
        names = t.install()
        assert "ahp.derive_weights" in names and "resources.weighted_score" not in names
        for alias in (ahp.derive_weights, simulator.derive_weights, cli.derive_weights,
                      scheduler.ahp.derive_weights, vmshield.derive_weights):
            assert alias is not original and alias.__wrapped__ is original
        ahp.derive_weights(ahp.HotspotProfile(vmshield.ResourceVector(1.0, 2.0, 3.0)))
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s[0] for s in t.spans]
    assert names[0] == "ahp.derive_weights"
    assert {"ahp.matrix_from_profile", "ahp.principal_eigenvector"} <= set(names)
    assert all(s[3] == 0 for s in t.spans[1:] if s[0] != "ahp.validate_pairwise_matrix")


def test_self_time_on_synthetic_nested_call():
    ticks = iter([0, 10, 30, 40, 45, 100])
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()
        return "done"

    outer = t.wrap("m.outer", body, tag=len)
    assert outer() == "done"
    assert t.spans == [("m.outer", 0, 100, -1, 4), ("m.inner", 10, 30, 0, None),
                       ("m.inner", 40, 45, 0, None)]
    assert tracer.self_times(t.spans) == [75, 20, 5]
    s = tracer.Summary(t.spans)
    assert s.calls == {"m.outer": 1, "m.inner": 2}
    assert s.busy["m.outer"] == pytest.approx(100e-9)
    assert s.busy["m.inner"] == pytest.approx(25e-9)
    assert s.layer_self("m") == pytest.approx(100e-9)


def test_tracer_records_a_span_when_the_call_raises():
    ticks = iter([0, 7])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("m.boom", boom)()
    assert t.spans == [("m.boom", 0, 7, -1, None)]
    assert t._stack == []


def test_busy_counts_recursive_spans_once():
    spans = [("m.f", 0, 100, -1, None), ("m.f", 10, 60, 0, None)]
    s = tracer.Summary(spans)
    assert s.busy["m.f"] == pytest.approx(100e-9)
    assert s.self_s["m.f"] == pytest.approx(100e-9)


# --- checks -------------------------------------------------------------------

SMALL = {
    "servers": [{"id": f"s{i}", "threshold": {"cpu": 80, "mem": 80, "bw": 80},
                 "usage": {"cpu": 3 + i, "mem": 2, "bw": 4}} for i in range(4)],
    "vm_classes": {"cpu-intensive": {"cpu": 20, "mem": 6, "bw": 4},
                   "memory-intensive": {"cpu": 6, "mem": 20, "bw": 5},
                   "bandwidth-intensive": {"cpu": 5, "mem": 6, "bw": 18}},
    "events": [{"tick": t % 3, "op": "vm_request", "class": c}
               for t, c in enumerate(["cpu-intensive", "memory-intensive",
                                      "bandwidth-intensive"] * 3)]
    + [{"tick": 10, "op": "attack_start", "vm": "vm-002", "multiplier": 3.0},
       {"tick": 20, "op": "attack_stop", "vm": "vm-002"},
       {"tick": 25, "op": "vm_shutdown", "vm": "vm-004"}],
    "detector": {"policy": "suspend"},
    "low_watermark": {"cpu": 45, "mem": 45, "bw": 45},
    "base_rate": 20,
    "duration": 40,
    "seed": 5,
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("small"))
    path = os.path.join(workdir, "small.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(SMALL, fh)
    truth = gen.Scenario("small", attacks=[("vm-002", 10, 20)])
    for s in SMALL["servers"]:
        u = s["usage"]
        truth.overhead[s["id"]] = (u["cpu"], u["mem"], u["bw"])
        truth.threshold[s["id"]] = (80.0, 80.0, 80.0)
    captured = []
    original = simulator.run
    simulator.run = lambda sc: captured.append(original(sc)) or captured[-1]
    try:
        assert cli.dispatch(["simulate", "--scenario", path, "--out", workdir],
                            out=io.StringIO()) == 0
    finally:
        simulator.run = original
    return checks.SimFiles(workdir), captured[0], truth, workdir


def test_clean_run_passes_every_check(small_run):
    files, report, truth, _ = small_run
    assert all(not p for p in checks.check_simulation(files, truth).values())
    assert checks.conservation(report, truth) == []
    assert checks.asleep_servers_empty(report) == []
    assert checks.suspended_silent(files, report) == []
    # the fixture exercises the paths the checks guard
    assert any(a["action"] == "suspend" for a in files.alarms)
    assert any(r["power"] == "asleep" for r in files.utilization)


def _corrupt(files, **changes):
    bad = copy.deepcopy(files)
    for attr, fn in changes.items():
        fn(getattr(bad, attr))
    return bad


def _first(rows, pred):
    return next(r for r in rows if pred(r))


def test_cusum_check_rejects_a_wrong_statistic(small_run):
    files, _, _, _ = small_run
    bad = _corrupt(files, detector=lambda rows: rows[5].update(y=f"{float(rows[5]['y']) + 1e-4:.6f}"))
    assert checks.cusum_rows(bad.detector)
    bad = _corrupt(files, detector=lambda rows: rows[5].update(syn=str(int(rows[5]["syn"]) + 7)))
    assert checks.cusum_rows(bad.detector)
    bad = _corrupt(files, detector=lambda rows: _first(rows, lambda r: r["alarm"] == "1")
                   .update(alarm="0"))
    assert checks.cusum_rows(bad.detector)


def test_alarm_log_and_counter_checks_reject_mismatches(small_run):
    files, _, _, _ = small_run
    assert checks.alarm_log_matches(_corrupt(files, alarms=lambda a: a.pop()))
    assert checks.counters_match(_corrupt(files, migrations=lambda m: m.append(dict(m[0]))))
    assert checks.counters_match(_corrupt(files, placements=lambda p: p[0].update(chosen=None)))


def test_asleep_check_rejects_a_populated_sleeping_server(small_run):
    _, report, _, _ = small_run
    i = next(i for i, row in enumerate(report.utilization) if row[0] > 0 and row[5] == "asleep")
    tick, sid = report.utilization[i][:2]
    bad = copy.deepcopy(report)
    bad.utilization[i] = bad.utilization[i][:6] + (1,)
    assert checks.asleep_servers_empty(bad)
    bad = copy.deepcopy(report)
    t, vm, obs, _ = next(s for s in bad.vm_samples if s[0] == tick - 1 and s[3] is not None)
    bad.vm_samples.append((t, vm, obs, sid))
    assert checks.asleep_servers_empty(bad)


def test_suspension_check_rejects_traffic_or_hosting_after_suspend(small_run):
    files, report, _, _ = small_run
    vm, tick = next((a["vm"], a["tick"]) for a in files.alarms if a["action"] == "suspend")
    bad = _corrupt(files, detector=lambda rows: _first(
        rows, lambda r: r["vm_id"] == vm and int(r["interval"]) > tick).update(syn="3"))
    assert checks.suspended_silent(bad, report)
    hosted = copy.deepcopy(report)
    t, _, obs, host = next(s for s in hosted.vm_samples if s[3] is not None)
    hosted.vm_samples.append((tick + 1, vm, obs, host))
    assert checks.suspended_silent(files, hosted)


def test_conservation_check_rejects_a_drifted_server(small_run):
    _, report, truth, _ = small_run
    bad = copy.deepcopy(report)
    i = next(i for i, row in enumerate(bad.utilization) if row[0] > 0 and row[5] == "active")
    row = list(bad.utilization[i])
    row[2] += 1e-6
    bad.utilization[i] = tuple(row)
    assert checks.conservation(bad, truth)
    bad = copy.deepcopy(report)
    t, vm, obs, host = next(s for s in bad.vm_samples if s[3] is not None)
    other = next(sid for sid in truth.overhead if sid != host)
    bad.vm_samples.append((t, vm, obs, other))
    assert checks.conservation(bad, truth)


def test_attack_outcomes_and_window_check():
    rows = [{"vm_id": "a", "interval": str(i), "y": y} for i, y in
            enumerate(["0", "0.5", "1.5", "2.0", "0.1", "1.6"])]
    false_alarms, latencies = checks.attack_outcomes([("a", 2), ("a", 5)], rows, [("a", 1, 4)])
    assert (false_alarms, latencies) == (1, [1])
    _, latencies = checks.attack_outcomes([], rows, [("a", 3, 5)])
    assert latencies == [0]
    assert checks.attack_outcomes([], rows[:2], [("a", 0, 2)])[1] == [2]
    assert checks.attacked_vms_present(rows, [("a", 4, 8)])
    assert not checks.attacked_vms_present(rows, [("a", 4, 6)])


def test_trace_checks_reject_a_dropped_event_and_a_wrong_alarm(tmp_path):
    workload = gen.trace_pipeline(4)
    specs = workload.files["specs.json"]["specs"]
    # shrink the trace so the test stays fast; the checks read specs as given
    specs = [dict(s, end=min(s["end"], s["start"] + 20)) for s in specs[:3]] + \
        [dict(specs[-1], start=5, end=15, vm_id=specs[0]["vm_id"])]
    truth = gen.Scenario("trace", attacks=[(specs[0]["vm_id"], 5, 15)])
    spec_path, trace, stats = (str(tmp_path / f) for f in ("specs.json", "trace.csv", "stats.csv"))
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"specs": specs}, fh)
    assert cli.dispatch(["gen", "--spec", spec_path, "--out", trace]) == 0
    out = io.StringIO()
    assert cli.dispatch(["detect", "--trace", trace, "--stats", stats], out=out) == 0
    trace_csv = checks.read_file(trace)
    rows = checks.read_csv(checks.read_file(stats))
    detect_out = json.loads(out.getvalue())
    assert detect_out["alarms"]
    assert all(not p for p in checks.check_trace(specs, trace_csv, rows, detect_out, truth).values())

    dropped = trace_csv.replace(trace_csv.splitlines()[-1] + "\n", "")
    assert checks.check_trace(specs, dropped, rows, detect_out, truth)["trace_packets"]
    wrong = dict(detect_out, alarms=detect_out["alarms"][1:])
    assert checks.check_trace(specs, trace_csv, rows, wrong, truth)["detect_output"]
    fewer_syn = copy.deepcopy(rows)
    fewer_syn[0]["syn"] = str(int(fewer_syn[0]["syn"]) - 1)
    assert checks.check_trace(specs, trace_csv, fewer_syn, detect_out, truth)["trace_packets"]


def test_traced_run_writes_the_same_reports(small_run, tmp_path):
    _, _, _, workdir = small_run
    path = os.path.join(workdir, "small.json")
    t = tracer.Tracer()
    with t:
        t.install(tags=worker.TAGS)
        assert cli.dispatch(["simulate", "--scenario", path, "--out", str(tmp_path)],
                            out=io.StringIO()) == 0
    for name in simulator.REPORT_FILES:
        with open(os.path.join(workdir, name), "rb") as a, open(tmp_path / name, "rb") as b:
            assert a.read() == b.read(), name
    layers = worker.layer_metrics(t.spans)
    assert layers["simulator.run.busy_s"] > 0
    assert layers["scheduler.consolidate.calls"] == 40
    assert layers["traffic.calls"] == 0


# --- BENCHMARK.json and predictions.json ---------------------------------------


def test_every_layer_metric_has_a_prediction():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(predictions) == {m["name"] for m in spec["per_layer"]}
    for name, p in predictions.items():
        moved = set()
        for move in p["moves"]:
            metric, workload = move.split("@")
            assert metric in end_to_end and workload in workloads, (name, move)
            moved.add(workload)
        assert set(p["no_move"]) == workloads - moved, name
    assert workloads == set(gen.WORKLOADS)
