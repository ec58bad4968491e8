"""Command line entry point: ahp, place, detect, gen, simulate.

Conventions shared by every subcommand:

* machine-readable results go to stdout, diagnostics and logs to
  stderr, so output can be piped;
* exit 0 on success, 1 on a domain error (inconsistent judgment
  matrix, no feasible server under --strict, ...), 2 on a usage,
  parse, or validation error;
* global options may come from flags, VMSHIELD_* environment
  variables, or a JSON config file, in that precedence order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import dataclass, replace

from . import detector as det
from . import scheduler as sched
from . import simulator, traffic
from .ahp import DEFAULT_CR_LIMIT, DEFAULT_MAX_ITER, DEFAULT_TOL, HotspotProfile, _consistent_weights, derive_weights
from .errors import ParseError, UnsortedTrace, ValidationError, VmShieldError
from .resources import ResourceVector, WeightVector

log = logging.getLogger("vmshield")

FORMATS = ("json", "csv", "table")

ENV_PREFIX = "VMSHIELD_"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

CLUSTER_VM_KEYS = ("id", "class", "observed")


@dataclass(frozen=True)
class GlobalConfig:
    """Cross-command options; every field has a default."""

    format: str = "json"
    seed: int | None = None
    verbosity: int = 0


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    unknown = set(obj) - {"format", "seed", "verbosity"}
    if unknown:
        raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")
    return obj


def resolve_config(args: argparse.Namespace, env: dict | None = None) -> GlobalConfig:
    """Flags > environment > config file > defaults."""
    env = os.environ if env is None else env
    cfg = GlobalConfig()

    config_path = args.config or env.get(ENV_PREFIX + "CONFIG")
    if config_path:
        file_obj = _load_config_file(config_path)
        cfg = replace(cfg, **file_obj)

    def env_get(name):
        return env.get(ENV_PREFIX + name)

    if env_get("FORMAT") is not None:
        cfg = replace(cfg, format=env_get("FORMAT"))
    if env_get("SEED") is not None:
        try:
            cfg = replace(cfg, seed=int(env_get("SEED")))
        except ValueError as exc:
            raise ParseError(f"{ENV_PREFIX}SEED must be an integer: {exc}") from exc
    if env_get("VERBOSITY") is not None:
        try:
            cfg = replace(cfg, verbosity=int(env_get("VERBOSITY")))
        except ValueError as exc:
            raise ParseError(f"{ENV_PREFIX}VERBOSITY must be an integer: {exc}") from exc

    if args.format is not None:
        cfg = replace(cfg, format=args.format)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.verbose:
        cfg = replace(cfg, verbosity=args.verbose)
    if args.quiet:
        cfg = replace(cfg, verbosity=-1)

    if cfg.format not in FORMATS:
        raise ParseError(f"output format must be one of {FORMATS}, got {cfg.format!r}")
    if not isinstance(cfg.seed, (int, type(None))) or isinstance(cfg.seed, bool):
        raise ParseError("config seed must be an integer")
    if not isinstance(cfg.verbosity, int) or isinstance(cfg.verbosity, bool):
        raise ParseError("config verbosity must be an integer")
    return cfg


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity < 0:
        level = logging.ERROR
    elif verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s", force=True)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(payload, rows: list[dict], fmt: str, out) -> None:
    """payload is the full JSON object; rows its tabular projection."""
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow(list(row.values()))
        return
    if not rows:
        out.write("(no rows)\n")
        return
    headers = list(rows[0].keys())
    cells = [[str(v) for v in row.values()] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for r in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


# ahp -----------------------------------------------------------------


def _cmd_ahp(args, cfg: GlobalConfig, out) -> int:
    obj = _read_json(args.input)
    if not isinstance(obj, dict) or ("profile" in obj) == ("matrix" in obj):
        raise ParseError(f"{args.input}: expected exactly one of 'profile' or 'matrix'")
    source = HotspotProfile(ResourceVector.from_json(obj["profile"])) if "profile" in obj else obj["matrix"]
    weights, lambda_max, cr = _consistent_weights(source, args.tol, args.cr_limit, args.max_iter)
    payload = {"weights": weights.to_json(), "lambda_max": lambda_max, "cr": cr}
    rows = [{**weights.to_json(), "lambda_max": f"{lambda_max:.9f}", "cr": f"{cr:.3e}"}]
    _emit(payload, rows, cfg.format, out)
    return EXIT_OK


# place ---------------------------------------------------------------


def _load_cluster(path: str) -> tuple[list[sched.ServerState], dict[str, sched.VmRecord]]:
    obj = _read_json(path)
    if not isinstance(obj, dict) or "servers" not in obj:
        raise ParseError(f"{path}: cluster JSON needs a 'servers' array")
    servers = sched.servers_from_json(obj["servers"])
    sched.validate_servers(servers)
    raw_vms = obj.get("vms", [])
    if not isinstance(raw_vms, list):
        raise ParseError(f"{path}: vms must be a JSON array")
    vms: dict[str, sched.VmRecord] = {}
    for i, v in enumerate(raw_vms):
        where = f"{path}: vms[{i}]"
        if not isinstance(v, dict):
            raise ParseError(f"{where} must be a JSON object")
        unknown = set(v) - set(CLUSTER_VM_KEYS)
        if unknown:
            raise ParseError(f"{where}: unknown keys {sorted(unknown)}; expected {CLUSTER_VM_KEYS}")
        vm_id = v.get("id")
        if not isinstance(vm_id, str):
            raise ParseError(f"{where}.id must be a JSON string")
        try:
            klass = sched.normalize_class(v.get("class"))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}.class: {exc}") from exc
        try:
            observed = ResourceVector.from_json(v.get("observed", {"cpu": 0, "mem": 0, "bw": 0}))
        except ParseError as exc:
            raise ParseError(f"{where}.observed: {exc}") from exc
        if vm_id in vms:
            raise ValidationError(f"duplicate vm id {vm_id!r}")
        vms[vm_id] = sched.VmRecord(vm_id, klass, observed=observed)
    for server in servers:
        for vm_id in sorted(server.vms):
            if vm_id not in vms:
                raise ValidationError(f"server {server.id} hosts unknown vm {vm_id!r}")
            if vms[vm_id].host is not None:
                raise ValidationError(f"vm {vm_id!r} hosted by both {vms[vm_id].host} and {server.id}")
            vms[vm_id].host = server.id
    return servers, vms


def _cmd_place(args, cfg: GlobalConfig, out) -> int:
    servers, _vms = _load_cluster(args.cluster)
    demand = ResourceVector.from_json(_read_json(args.demand))
    if args.weights:
        weights = WeightVector.from_json(_read_json(args.weights))
    else:
        weights = derive_weights(HotspotProfile(demand))
    decision = sched.place(demand, weights, servers)
    payload = {
        "demand": demand.to_json(),
        "weights": weights.to_json(),
        "scores": {k: v for k, v in sorted(decision.scores.items())},
        "chosen": decision.chosen,
        "reason": decision.reason,
    }
    rows = [
        {
            "server": sid,
            "score": f"{score:.6f}",
            "chosen": "*" if sid == decision.chosen else "",
        }
        for sid, score in sorted(decision.scores.items())
    ]
    _emit(payload, rows, cfg.format, out)
    if decision.rejected:
        log.warning("no feasible server for demand %s", demand.as_tuple())
        if args.strict:
            print("error: no feasible server", file=sys.stderr)
            return EXIT_DOMAIN
    return EXIT_OK


# detect ----------------------------------------------------------------


def _cmd_detect(args, cfg: GlobalConfig, out) -> int:
    try:
        # untranslated line ends, so a "\r" inside a quoted vm_id survives
        with open(args.trace, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.trace}: {exc}") from exc
    kind, data = traffic.read_trace_csv(text)
    if kind == "events":
        intervals = det.bin_events(data, interval_seconds=args.interval)
    else:
        intervals = det.fill_gaps(data)
    report = det.process_trace(intervals, drift=args.drift, threshold=args.threshold)
    payload = {
        "alarms": [
            {
                "vm_id": a.vm_id,
                "interval_index": a.interval_index,
                "y_value": round(a.y_value, 6),
                "action_taken": args.policy,
            }
            for a in report.alarms
        ],
        "series": {vm: [round(y, 6) for y in ys] for vm, ys in report.series.items()},
    }
    rows = [
        {
            "vm_id": a.vm_id,
            "interval": a.interval_index,
            "y": f"{a.y_value:.6f}",
            "action": args.policy,
        }
        for a in report.alarms
    ]
    _emit(payload, rows, cfg.format, out)
    if args.stats:
        try:
            with open(args.stats, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(det.stat_rows_to_csv(report.rows))
        except OSError as exc:
            raise OSError(f"writing statistic log {args.stats}: {exc}") from exc
        log.info("wrote statistic log %s (%d rows)", args.stats, len(report.rows))
    return EXIT_OK


# gen -------------------------------------------------------------------


def _cmd_gen(args, cfg: GlobalConfig, out) -> int:
    obj = _read_json(args.spec)
    raw_specs = obj["specs"] if isinstance(obj, dict) and "specs" in obj else [obj]
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ParseError(f"{args.spec}: expected a spec object or a non-empty 'specs' array")
    specs = [traffic.TrafficSpec.from_json(s) for s in raw_specs]
    if cfg.seed is not None:
        specs = [replace(s, seed=cfg.seed) for s in specs]
    merged = traffic.merge_traces([traffic.generate(s) for s in specs])
    text = traffic.events_to_csv(merged)
    if args.out == "-":
        out.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"writing trace {args.out}: {exc}") from exc
    log.info("generated %d events from %d spec(s)", len(merged), len(specs))
    return EXIT_OK


# simulate ----------------------------------------------------------------


def _cmd_simulate(args, cfg: GlobalConfig, out) -> int:
    seed = args.seed_override if args.seed_override is not None else cfg.seed
    scenarios = {}
    for path in args.scenario:
        scenario = simulator.load_scenario(path)
        if seed is not None:
            scenario.seed = seed
            scenario.validate()
        name = os.path.splitext(os.path.basename(path))[0]
        if name in scenarios:
            raise ValidationError(f"scenario basename {name!r} repeats; outputs would collide")
        scenarios[name] = (path, scenario)

    multi = len(scenarios) > 1
    summaries = {}
    for name, (path, scenario) in scenarios.items():
        outdir = os.path.join(args.out, name) if multi else args.out
        report = simulator.run(scenario)
        simulator.emit_reports(report, outdir)
        log.info("simulated %s -> %s", path, outdir)
        summaries[name] = report.summary

    if multi:
        payload = summaries
        counter_rows = [
            {"scenario": name, **summary["counters"]} for name, summary in sorted(summaries.items())
        ]
    else:
        (payload,) = summaries.values()
        counter_rows = [{"counter": k, "value": v} for k, v in payload["counters"].items()]
    _emit(payload, counter_rows, cfg.format, out)
    return EXIT_OK


# parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmshield",
        description="Weighted VM placement, migration balancing, and SYN-flood detection.",
        epilog=(
            "Global options also read VMSHIELD_FORMAT, VMSHIELD_SEED, "
            "VMSHIELD_VERBOSITY, and VMSHIELD_CONFIG (a JSON file); "
            "flags beat environment beats config file beats defaults."
        ),
    )
    parser.add_argument("--config", default=None, help="JSON config file (default: $VMSHIELD_CONFIG)")
    parser.add_argument("--format", default=None, choices=FORMATS, help="output format (default: json)")
    parser.add_argument("--seed", type=int, default=None, help="seed override for gen/simulate (default: none)")
    parser.add_argument("-v", "--verbose", action="count", default=0, help="more diagnostics on stderr (repeatable)")
    parser.add_argument("-q", "--quiet", action="store_true", help="errors only on stderr")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ahp", help="derive priority weights from a profile or pairwise matrix")
    p.add_argument("--input", required=True, help="JSON file with {'profile': {...}} or {'matrix': [[...]]}")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=f"eigenvector tolerance (default: {DEFAULT_TOL})")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help=f"iteration cap (default: {DEFAULT_MAX_ITER})")
    p.add_argument("--cr-limit", type=float, default=DEFAULT_CR_LIMIT, help=f"consistency ratio limit (default: {DEFAULT_CR_LIMIT})")
    p.set_defaults(func=_cmd_ahp)

    p = sub.add_parser("place", help="pick the best feasible server for a demand vector")
    p.add_argument("--cluster", required=True, help="cluster JSON (servers + vms)")
    p.add_argument("--demand", required=True, help="demand vector JSON")
    p.add_argument("--weights", default=None, help="weight vector JSON (default: derived from demand)")
    p.add_argument("--strict", action="store_true", help="exit 1 when no server is feasible (default: exit 0)")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("detect", help="run the SYN-flood detector over a trace")
    p.add_argument("--trace", required=True, help="trace CSV, raw events or pre-binned")
    p.add_argument("--interval", type=float, default=det.DEFAULT_INTERVAL_SECONDS, help=f"sampling interval seconds (default: {det.DEFAULT_INTERVAL_SECONDS})")
    p.add_argument("--drift", type=float, default=det.DEFAULT_DRIFT, help=f"drift allowance a (default: {det.DEFAULT_DRIFT})")
    p.add_argument("--threshold", type=float, default=det.DEFAULT_THRESHOLD, help=f"alarm threshold h (default: {det.DEFAULT_THRESHOLD})")
    p.add_argument("--policy", choices=det.POLICIES, default="log", help="response recorded on alarms (default: log)")
    p.add_argument("--stats", default=None, help="also write the per-interval statistic CSV here (default: off)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("gen", help="generate a synthetic packet trace")
    p.add_argument("--spec", required=True, help="traffic spec JSON (object or {'specs': [...]})")
    p.add_argument("--out", required=True, help="output trace CSV path, or - for stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("simulate", help="run scenario(s) and write report files")
    p.add_argument("--scenario", required=True, nargs="+", help="scenario JSON file(s)")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--seed", dest="seed_override", type=int, default=None,
                   help="override the scenario seed (default: as in the file)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def dispatch(argv: list[str] | None = None, out=None) -> int:
    """Parse argv, run the subcommand, and map errors to exit codes."""
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = resolve_config(args)
        _setup_logging(cfg.verbosity)
        return args.func(args, cfg, out)
    except (ParseError, ValidationError, UnsortedTrace) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VmShieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
