"""vmshield benchmark: seeded workloads timed through the CLI, outputs checked.

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run from the repository root.  The benchmark generates the workload's
inputs from the seed into ``perfbench/.work/<workload>/in/``, then starts a
fresh interpreter (``worker.py``) for every repeat, so each repeat pays
its own import and parse (``setup_s``) and has its own peak RSS.  Host
time is the CPU time the worker spends in the repeat's
``vmshield.cli.dispatch`` calls, with tracing off; repeats continue until
``--seconds`` of them have run (at least three), and the reported figures
are medians over repeats.

Host seconds are CPU seconds scaled to a fixed host speed.  On a shared
virtual machine the hypervisor takes the vCPU away for bursts of up to
seconds (wall time, not CPU time), and one vCPU's speed also switches
between two levels about a factor of two apart for tens of seconds at a
time (CPU time too).  Every worker therefore times a fixed reference task
(``worker.reference_samples``) next to its set-up and its commands; each
CPU time is divided by the median reference time of its own worker and
multiplied by ``NOMINAL_REF_S``.  The raw wall times are printed as well.

``--trace 1`` adds one repeat under the outside-in tracer and reports the
per-layer metrics instead of the end-to-end ones.

Every run checks its outputs (see checks.py).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
metric names and units being those listed in ``BENCHMARK.json``.
The lines before it print every metric by name with its unit, and the
informational fields (report digests, ``src/`` line count, versions, CPUs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

# The reference task's median CPU time on this benchmark's 2-vCPU host at
# full speed: it fixes the scale of the normalised host seconds.
NOMINAL_REF_S = 0.009
MIN_REPEATS = 3
MAX_REPEATS = 60
SETUP_PROBES = 5
# Every worker must end this long after the run starts, so the run ends
# well within three minutes even if the program under test hangs.
DEADLINE_S = 160
# Environment of every worker: single-threaded numeric libraries.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The decision metrics printed per workload; "-" where the workload has
# no servers (trace_pipeline) or no attacks (churn_consolidate).
DECISIONS = ("active_server_ticks", "overload_server_ticks", "migrations", "rejections",
             "false_alarms", "detect_latency_ticks")
NOT_APPLICABLE = {
    "trace_pipeline": {"active_server_ticks", "overload_server_ticks", "migrations", "rejections"},
    "churn_consolidate": {"detect_latency_ticks"},
}


# What the traced run should show if each workload loads the layer it was
# chosen for.  Printed, not gated: a later change may legitimately move
# load between layers (for instance by sharing one traffic model).
LAYER_EXPECTATIONS = {
    "fleet_steady": [("share.run_core_of_run", ">=", 0.7), ("scheduler.consolidate.calls", "==", 0),
                     ("traffic.calls", "==", 0)],
    "churn_consolidate": [("share.scheduler_ahp_self_of_run", ">=", 0.4), ("traffic.calls", "==", 0)],
    "trace_pipeline": [("simulator.calls", "==", 0), ("scheduler.calls", "==", 0)],
}


class Run:
    """Counts attempted and failed operations and keeps the failures' messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]

    def absorb(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker(workload: str, seed: int, workdir: str, mode: str, deadline: float) -> dict:
    """Run worker.py once; a crash, a timeout or a missing result is one failed operation."""
    result_path = os.path.join(workdir, f"worker-{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), workdir, mode,
           result_path]
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        proc = subprocess.run(cmd, env={**os.environ, **WORKER_ENV}, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": [f"worker {mode} timed out"]}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"attempted": 1, "failed": 1, "problems": [
            f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(workload: gen.Workload, workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "in"))
    for name, obj in workload.files.items():
        with open(os.path.join(workdir, "in", name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)


def outcomes(workload: gen.Workload, workdir: str, run: Run) -> dict:
    """Check the output files of the last repeat and derive the decision metrics."""
    totals = {k: 0 for k in ("active_server_ticks", "overload_server_ticks", "migrations",
                             "rejections", "false_alarms", "vm_ticks", "packets")}
    latencies: list[int] = []
    if workload.kind == "simulate":
        for truth in workload.scenarios:
            files = checks.SimFiles(workload.report_dir(workdir, truth))
            for name, problems in checks.check_simulation(files, truth).items():
                run.check(f"{truth.name}: {name}", problems)
            found = checks.sim_outcomes(files, truth)
            latencies += found.pop("latencies")
            for key, value in found.items():
                totals[key] += value
    else:
        truth = workload.scenarios[0]
        trace_csv = checks.read_file(os.path.join(workdir, "trace.csv"))
        stats = checks.read_csv(checks.read_file(os.path.join(workdir, "stats.csv")))
        detect_out = json.loads(checks.read_file(os.path.join(workdir, "detect.json")))
        for name, problems in checks.check_trace(workload.files["specs.json"]["specs"],
                                                 trace_csv, stats, detect_out, truth).items():
            run.check(name, problems)
        found = checks.trace_outcomes(stats, trace_csv, truth)
        latencies += found.pop("latencies")
        totals.update(found)
    # 0 when the workload has no attacks
    totals["detect_latency_ticks"] = statistics.median(latencies) if latencies else 0
    return totals


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def normalised(seconds: float, result: dict) -> float:
    """CPU seconds scaled to the host speed at which the reference task takes NOMINAL_REF_S."""
    return seconds / statistics.median(result["ref_samples"]) * NOMINAL_REF_S


def spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict, list[str]]:
    """One benchmark run of one workload: returns the tally, all metrics and report lines."""
    workload = gen.make(name, seed)
    workdir = os.path.join(HERE, ".work", name)
    write_inputs(workload, workdir)
    run = Run()
    deadline = time.monotonic() + DEADLINE_S

    run.absorb(worker(name, seed, workdir, "setup", deadline))  # fills the bytecode cache
    probes = []
    for _ in range(SETUP_PROBES):
        probe = worker(name, seed, workdir, "setup", deadline)
        run.absorb(probe)
        if "ref_samples" in probe:
            probes.append(probe)

    repeats = []
    started = time.monotonic()
    while len(repeats) < MAX_REPEATS:
        result = worker(name, seed, workdir, "run" if repeats else "check", deadline)
        run.absorb(result)
        if "host_s" not in result:
            break
        repeats.append(result)
        # start another repeat only if it should end within the time budget
        elapsed = time.monotonic() - started
        if len(repeats) >= MIN_REPEATS and elapsed * (len(repeats) + 1) / len(repeats) > seconds:
            break
    traced = None
    if trace and repeats:
        traced = worker(name, seed, workdir, "trace", deadline)
        run.absorb(traced)

    digests = [r["digests"] for r in repeats + ([traced] if traced and "digests" in traced else [])]
    run.check("digests identical across repeats",
              [] if all(d == digests[0] for d in digests) else
              [f"{len({json.dumps(d, sort_keys=True) for d in digests})} distinct digest sets"])
    if not repeats or (trace and "layers" not in traced):
        return run, {}, []
    try:
        found = outcomes(workload, workdir, run)
    except (OSError, ValueError, KeyError) as exc:
        run.check("report files readable", [repr(exc)])
        return run, {}, []
    hosts = [r["host_s"] for r in repeats]
    setups = [r["setup_s"] for r in probes + repeats]
    refs = [statistics.median(r["ref_samples"]) for r in probes + repeats]
    host = statistics.median(normalised(r["cpu_s"], r) for r in repeats)
    metrics = {
        "vm_ticks_per_s": found["vm_ticks"] / host,
        "packets_per_s": found["packets"] / host,
        "setup_s": statistics.median(normalised(r["setup_s"], r) for r in probes + repeats),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        **{k: found[k] for k in DECISIONS},
    }
    if trace:
        metrics.update(traced["layers"])
        metrics["trace.throughput_ratio"] = host / normalised(traced["cpu_s"], traced)

    lines = [
        f"workload {name} seed {seed}: {json.dumps(workload.shape, sort_keys=True)}",
        f"  vm_ticks_per_s        {metrics['vm_ticks_per_s']:.1f} 1/s  "
        f"({found['vm_ticks']} VM-ticks; {found['vm_ticks'] / statistics.median(hosts):.1f} "
        f"per wall second; wall time {spread(hosts)})",
        f"  packets_per_s         {metrics['packets_per_s']:.1f} 1/s  ({found['packets']} packets)",
        f"  setup_s               {metrics['setup_s']:.4f} s  (raw CPU time {spread(setups)})",
        f"  peak_rss_mb           {metrics['peak_rss_mb']:.1f} MB  "
        f"({spread([r['peak_rss_mb'] for r in repeats])})",
        f"  ops_failed            {run.failed} count  (of {run.attempted} ops_attempted)",
    ]
    for key in DECISIONS:
        value = "-" if key in NOT_APPLICABLE.get(name, ()) else f"{metrics[key]:g}"
        unit = "ticks" if key == "detect_latency_ticks" else "count"
        lines.append(f"  {key:<21} {value} {unit}")
    info = {
        "report_sha256": repeats[0]["digests"],
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": repeats[0].get("numpy"),
        "nproc": os.cpu_count(),
        "repeats": len(repeats),
        "host_s": hosts,
        "cpu_s": [r["cpu_s"] for r in repeats],
        "reference_s": refs,
    }
    if trace:
        info["spans"] = traced["spans"]
        lines.append(f"  trace.throughput_ratio {metrics['trace.throughput_ratio']:.3f} ratio  "
                     f"(traced repeat against the untraced median)")
        for key, op, want in LAYER_EXPECTATIONS[name]:
            met = metrics[key] >= want if op == ">=" else metrics[key] == want
            lines.append(f"  layer {'ok  ' if met else 'MISS'}  {key} = {metrics[key]:.4g} "
                         f"(expected {op} {want:g})")
    lines.append("info " + json.dumps(info, sort_keys=True))
    return run, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vmshield benchmark")
    ap.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vmshield", "__init__.py")):
        print(f"error: no vmshield sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    total, reported = Run(), {}
    for name in names:
        run, metrics, lines = measure(name, args.seed, args.seconds, bool(args.trace))
        for line in lines:
            print(line)
        for problem in run.problems:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        total.attempted += run.attempted
        total.failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        if metrics:
            for m in wanted:
                reported[prefix + m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
