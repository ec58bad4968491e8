"""One measured repeat of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR MODE RESULT

MODE is ``setup``, ``run``, ``check`` or ``trace``.  ``setup`` times
``import vmshield`` plus parsing and validating the input files in
``WORKDIR/in``, then exits.  ``run`` does the same and then times the
workload's commands through ``vmshield.cli.dispatch``, reads the peak
RSS, and digests every output file.  ``check`` is ``run`` plus the
checks that need the in-memory ``SimReport``.  ``trace`` is ``run`` with
the outside-in tracer installed and reports per-layer spans instead.
Every mode also times the reference task (``reference_samples``) after
set-up, that is right before the commands, and the modes that run the
commands time it again right after them.  The result is written as JSON to RESULT.

The caller generates the input files into ``WORKDIR/in`` beforehand.
Only ``os``, ``sys`` and ``time``, which the interpreter has loaded at
start-up, are imported before ``setup_s`` starts, so every module the
program needs is part of its set-up time.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def setup(workdir: str) -> float:
    """CPU seconds to import vmshield's CLI and parse and validate the input files."""
    start = time.process_time()
    import json

    from vmshield import cli, simulator, traffic  # noqa: F401

    inputs = os.path.join(workdir, "in")
    for name in sorted(os.listdir(inputs)):
        path = os.path.join(inputs, name)
        if name == "specs.json":
            with open(path, encoding="utf-8") as fh:
                for spec in json.load(fh)["specs"]:
                    traffic.TrafficSpec.from_json(spec)
        else:
            simulator.load_scenario(path)
    return time.process_time() - start


# The reference task: a fixed interpreter-bound loop over a small dict.
# It shares no code with vmshield, so no change to the program moves it,
# but it slows down with the host: on a shared machine the speed of one
# vCPU swings by up to a factor of two over tens of seconds.
REF_KEYS = 5000
REF_LOOKUPS = 200_000
REF_SAMPLES = 5


def reference_samples() -> list[float]:
    """REF_SAMPLES timings, in CPU seconds, of REF_LOOKUPS dict lookups."""
    table = {f"k{i}": i for i in range(REF_KEYS)}
    names = list(table)
    keys = [names[i * 7919 % REF_KEYS] for i in range(REF_LOOKUPS)]
    samples = []
    for _ in range(REF_SAMPLES):
        start = time.process_time()
        total = 0
        for key in keys:
            total += table[key]
        samples.append(time.process_time() - start)
    return samples


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS, in MB."""
    import resource

    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def sha256(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_files(workload, workdir: str) -> list[str]:
    if workload.kind == "simulate":
        from vmshield.simulator import REPORT_FILES

        paths = [os.path.join(workload.report_dir(workdir, s), f)
                 for s in workload.scenarios for f in REPORT_FILES]
        return paths + [os.path.join(workdir, "simulate.json")]
    return [os.path.join(workdir, f) for f in ("trace.csv", "stats.csv", "detect.json")]


def run_commands(workload, workdir: str, result: dict) -> None:
    """Time every command of the workload through cli.dispatch: wall and CPU seconds."""
    import io

    from vmshield import cli

    wall, cpu = 0.0, time.process_time()
    for argv in workload.commands(workdir):
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.dispatch(argv, out=out)
        wall += time.perf_counter() - start
        result["attempted"] += 1
        if code != 0:
            result["failed"] += 1
            result["problems"].append(f"vmshield {argv[0]} exited {code}")
        with open(os.path.join(workdir, argv[0] + ".json"), "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    result["cpu_s"] = time.process_time() - cpu
    result["host_s"] = wall


TAGS = {
    "scheduler.place": lambda d: d.chosen is None,
    "scheduler.plan_migration": lambda plan: plan is not None,
    "scheduler.consolidate": lambda r: (len(r[0]), len(r[1])),
    "simulator.emit_reports": lambda paths: sum(os.path.getsize(p) for p in paths),
    "detector.bin_events": len,
    "traffic.generate": len,
}


def layer_metrics(spans: list) -> dict:
    """The per-layer metrics of one traced repeat (see BENCHMARK.json per_layer)."""
    import tracer

    s = tracer.Summary(spans)
    m: dict[str, float] = {"cli.dispatch.busy_s": s.busy["cli.dispatch"]}
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = s.layer_self(layer)
        m[f"{layer}.calls"] = s.layer_calls(layer)

    loads = [sp for sp in spans if sp[0] == "simulator.load_scenario"]
    runs = [sp for sp in spans if sp[0] == "simulator.run"]
    m["simulator.load_scenario.busy_s"] = s.busy["simulator.load_scenario"]
    m["simulator.run.busy_s"] = s.busy["simulator.run"]
    m["simulator.run.self_s"] = s.self_s["simulator.run"]
    # A scenario is ready once loaded; it waits until its run starts.
    m["simulator.run.wait_s"] = sum((run[1] - load[2]) / 1e9 for load, run in zip(loads, runs))
    m["simulator.emit_reports.busy_s"] = s.busy["simulator.emit_reports"]
    m["simulator.report_bytes"] = sum(tag for _, tag in s.tags("simulator.emit_reports") if tag)

    c = "scheduler.consolidate"
    consolidations = [tag for _, tag in s.tags(c) if tag]
    consolidate_ids = {i for i, _ in s.tags(c)}
    trial_rejects = sum(1 for i, rejected in s.tags("scheduler.place")
                        if rejected and any(a in consolidate_ids for a in tracer.ancestors(spans, i)))
    m.update({
        f"{c}.calls": s.calls[c], f"{c}.busy_s": s.busy[c], f"{c}.self_s": s.self_s[c],
        f"{c}.p50_us": s.percentile_us(c, 50), f"{c}.p99_us": s.percentile_us(c, 99),
        f"{c}.moves": sum(moves for moves, _ in consolidations),
        f"{c}.sleeps": sum(sleeps for _, sleeps in consolidations),
        f"{c}.trial_rejects": trial_rejects,
    })
    sleeps = m[f"{c}.sleeps"]
    m[f"{c}.useful_ratio"] = sleeps / (sleeps + trial_rejects) if sleeps + trial_rejects else 0.0
    p = "scheduler.place"
    m.update({f"{p}.calls": s.calls[p], f"{p}.busy_s": s.busy[p],
              f"{p}.rejected": sum(1 for _, rejected in s.tags(p) if rejected)})
    pm = "scheduler.plan_migration"
    plans = sum(1 for _, planned in s.tags(pm) if planned)
    m.update({f"{pm}.calls": s.calls[pm], f"{pm}.busy_s": s.busy[pm], f"{pm}.plans": plans,
              f"{pm}.useful_ratio": plans / s.calls[pm] if s.calls[pm] else 0.0})
    for name in ("scheduler.estimate_demand_first_start", "scheduler.estimate_demand_restart",
                 "ahp.derive_weights", "ahp.principal_eigenvector", "detector.cusum_step"):
        m[f"{name}.calls"] = s.calls[name]
        m[f"{name}.busy_s"] = s.busy[name]
    m["scheduler.wake_server.calls"] = s.calls["scheduler.wake_server"]
    m["detector.respond.calls"] = s.calls["detector.respond"]
    for name in ("detector.bin_events", "detector.process_trace", "detector.stat_rows_to_csv",
                 "traffic.generate", "traffic.merge_traces", "traffic.events_to_csv",
                 "traffic.read_trace_csv"):
        m[f"{name}.busy_s"] = s.busy[name]
    m["detector.bin_events.rows"] = sum(tag for _, tag in s.tags("detector.bin_events") if tag)
    m["traffic.events"] = sum(tag for _, tag in s.tags("traffic.generate") if tag)

    run_busy = m["simulator.run.busy_s"]
    m["share.scheduler_ahp_self_of_run"] = (
        (m["scheduler.self_s"] + m["ahp.self_s"]) / run_busy if run_busy else 0.0)
    m["share.run_core_of_run"] = (
        (m["simulator.run.self_s"] + m["detector.cusum_step.busy_s"]) / run_busy
        if run_busy else 0.0)
    return m


def measure(name: str, seed: int, workdir: str, mode: str, result: dict) -> None:
    """Run the workload's commands in ``mode`` and add what it measures to result."""
    sys.path.insert(0, HERE)
    import checks
    import gen
    import tracer
    from vmshield import simulator

    workload = gen.make(name, seed)
    captured = []
    if mode == "trace":
        with tracer.Tracer() as spans_tracer:
            spans_tracer.install(tags=TAGS)
            run_commands(workload, workdir, result)
    else:
        original = simulator.run
        if mode == "check" and workload.kind == "simulate":
            # keep each SimReport for the checks that run after timing
            simulator.run = lambda sc: captured.append(original(sc)) or captured[-1]
        try:
            run_commands(workload, workdir, result)
        finally:
            simulator.run = original
    result["peak_rss_mb"] = peak_rss_mb()
    result["ref_samples"] += reference_samples()
    result["digests"] = {os.path.relpath(p, workdir): sha256(p)
                         for p in output_files(workload, workdir)}
    if mode == "trace":
        spans_tracer.write_spans(os.path.join(workdir, "spans.csv"))
        result["layers"] = layer_metrics(spans_tracer.spans)
        result["spans"] = len(spans_tracer.spans)
    for report, truth in zip(captured, workload.scenarios):
        files = checks.SimFiles(workload.report_dir(workdir, truth))
        for check, problems in (("conservation", checks.conservation(report, truth)),
                                ("asleep_empty", checks.asleep_servers_empty(report)),
                                ("suspended_silent", checks.suspended_silent(files, report))):
            result["attempted"] += 1
            if problems:
                result["failed"] += 1
                result["problems"] += [f"{truth.name}: {check}: {p}" for p in problems]


def main(argv: list[str]) -> int:
    name, seed, workdir, mode, result_path = argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = {"attempted": 1, "failed": 0, "problems": []}
    try:
        result["setup_s"] = setup(workdir)
        result["numpy"] = sys.modules["numpy"].__version__
        result["ref_samples"] = reference_samples()
        if mode != "setup":
            measure(name, int(seed), workdir, mode, result)
    except Exception:  # a crash of the program under test is a failed operation
        import traceback

        result["failed"] += 1
        result["problems"].append(traceback.format_exc())
    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
