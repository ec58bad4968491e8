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
import logging
import os
import sys
from dataclasses import dataclass, replace

from . import detector as det
from . import scheduler as sched
from . import simulator, traffic
from .ahp import (DEFAULT_CR_LIMIT, DEFAULT_MAX_ITER, DEFAULT_TOL, _consistent_weights, derive_weights,
                  validate_pairwise_matrix)
from .errors import ParseError, UnsortedTrace, ValidationError, VmShieldError
from .resources import (ResourceVector, WeightVector, _csv_field, check_vector, json_int, json_list, json_object,
                        json_str, json_text, read_json_file, write_text_file)

log = logging.getLogger("vmshield")

FORMATS = ("json", "csv", "table")

ENV_PREFIX = "VMSHIELD_"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

@dataclass(frozen=True)
class GlobalConfig:
    """Cross-command options; every field has a default."""

    format: str = "json"
    seed: int | None = None
    verbosity: int = 0


_CONFIG_KEYS = {"format": json_str, "seed": json_int, "verbosity": json_int}
_ENV_KEYS = (("format", str), ("seed", int), ("verbosity", int))  # read from VMSHIELD_<NAME>


def resolve_config(args: argparse.Namespace, env: dict | None = None) -> GlobalConfig:
    """Flags > environment > config file > defaults."""
    env = os.environ if env is None else env
    cfg = GlobalConfig()

    config_path = args.config or env.get(ENV_PREFIX + "CONFIG")
    if config_path:
        cfg = replace(cfg, **read_json_file(
            config_path, lambda obj: json_object(obj, "", _CONFIG_KEYS, what="config")))

    for name, parse in _ENV_KEYS:
        value = env.get(ENV_PREFIX + name.upper())
        if value is not None:
            try:
                cfg = replace(cfg, **{name: parse(value)})
            except ValueError as exc:  # only int raises
                raise ParseError(f"{ENV_PREFIX}{name.upper()} must be an integer: {exc}") from exc

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


def _emit(payload, rows: list[dict], fmt: str, out) -> None:
    """payload is the full JSON object; rows its tabular projection."""
    if fmt == "json":
        out.write(json_text(payload))
        return
    if fmt == "csv":
        if rows:
            lines = [rows[0].keys(), *(row.values() for row in rows)]
            out.write("".join(",".join(_csv_field(str(v)) for v in line) + "\n" for line in lines))
        return
    if not rows:
        out.write("(no rows)\n")
        return
    headers = list(rows[0].keys())
    # an unprintable character (a line feed, say) shows escaped, as in repr, so a row keeps to one line
    cells = [[c if c.isprintable() else repr(c)[1:-1] for c in map(str, row.values())] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for r in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


# ahp -----------------------------------------------------------------


def _read_vector(value, name: str) -> ResourceVector:
    return check_vector(ResourceVector.from_json(value, name), name)


def _read_matrix(value, name: str):
    try:
        return validate_pairwise_matrix(value)
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from exc


_AHP_KEYS = {
    "profile": _read_vector,
    "matrix": _read_matrix,
}


def _read_ahp_input(obj):
    """The profile or the matrix of an ahp --input object, which holds exactly one of them."""
    fields = json_object(obj, "", _AHP_KEYS, what="ahp input")
    if len(fields) != 1:
        raise ParseError("expected exactly one of 'profile' or 'matrix'")
    return next(iter(fields.values()))


def _cmd_ahp(args, cfg: GlobalConfig, out) -> int:
    source = read_json_file(args.input, _read_ahp_input)
    weights, lambda_max, cr = _consistent_weights(source, args.tol, args.cr_limit, args.max_iter)
    payload = {"weights": weights.to_json(), "lambda_max": lambda_max, "cr": cr}
    rows = [{**weights.to_json(), "lambda_max": f"{lambda_max:.9f}", "cr": f"{cr:.3e}"}]
    _emit(payload, rows, cfg.format, out)
    return EXIT_OK


# place ---------------------------------------------------------------


_CLUSTER_VM_KEYS = {"id": json_str, "class": sched.read_class, "observed": _read_vector}


def _read_cluster_vm(obj, where: str) -> sched.VmRecord:
    fields = json_object(obj, where, _CLUSTER_VM_KEYS, ("id", "class"))
    fields["hotspot_class"] = fields.pop("class")
    return sched.VmRecord(**fields)


_CLUSTER_KEYS = {
    "servers": lambda value, name: json_list(value, name, sched.ServerState.from_json),
    "vms": lambda value, name: json_list(value, name, _read_cluster_vm),
}


def _read_cluster(obj) -> tuple[sched.ServerTable, dict[str, sched.VmRecord]]:
    """The server table and the id -> VM map of a cluster object; every hosted id names one VM."""
    fields = json_object(obj, "", _CLUSTER_KEYS, ("servers",), "cluster")
    table = sched.ServerTable.from_servers(fields["servers"])
    vms: dict[str, sched.VmRecord] = {}
    for i, vm in enumerate(fields.get("vms", [])):
        if vm.id in vms:
            raise ValidationError(f"vms[{i}]: duplicate vm id {vm.id!r}")
        vms[vm.id] = vm
    for sid, hosted in zip(table.ids, table.vms):
        for vm_id in sorted(hosted):
            if vm_id not in vms:
                raise ValidationError(f"server {sid} hosts unknown vm {vm_id!r}")
    return table, vms


def _cmd_place(args, cfg: GlobalConfig, out) -> int:
    table, _vms = read_json_file(args.cluster, _read_cluster)
    demand = read_json_file(args.demand, lambda obj: _read_vector(obj, "demand"))
    if args.weights:
        weights = read_json_file(args.weights, WeightVector.from_json)
    else:
        weights = derive_weights(demand)
    decision = sched.place(demand, weights, table)
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
    try:  # for binned traces too, which never use it, and before the trace is read
        det._interval_to_us(args.interval)
    except ValueError as exc:
        raise ValueError(f"--interval: {exc}") from None
    counts = traffic.read_trace_counts(args.trace, args.interval)
    report = det.process_trace(counts, drift=args.drift, threshold=args.threshold)
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
        write_text_file(args.stats, lambda fh: det.stat_rows_to_csv(report.rows, fh), "statistic log")
        log.info("wrote statistic log %s (%d rows)", args.stats, len(report.rows))
    return EXIT_OK


# gen -------------------------------------------------------------------


_SPECS_KEYS = {"specs": lambda value, name: json_list(value, name, traffic.TrafficSpec.from_json)}


def _read_specs(obj) -> list[traffic.TrafficSpec]:
    """A spec object as a one-spec list, or the non-empty specs array of {"specs": [...]}."""
    if not (isinstance(obj, dict) and "specs" in obj):
        return [traffic.TrafficSpec.from_json(obj)]
    specs = json_object(obj, "", _SPECS_KEYS, what="spec file")["specs"]
    if not specs:
        raise ParseError("specs must be a non-empty JSON array")
    return specs


def _cmd_gen(args, cfg: GlobalConfig, out) -> int:
    specs = read_json_file(args.spec, _read_specs)
    if cfg.seed is not None:
        specs = [replace(s, seed=cfg.seed) for s in specs]
    if args.out == "-":
        events = traffic.write_trace(specs, out)
    else:
        events = write_text_file(args.out, lambda fh: traffic.write_trace(specs, fh), "trace")
    log.info("generated %d events from %d spec(s)", events, len(specs))
    return EXIT_OK


# simulate ----------------------------------------------------------------


def _cmd_simulate(args, cfg: GlobalConfig, out) -> int:
    scenarios = {}
    for path in args.scenario:
        scenario = simulator.load_scenario(path)
        if cfg.seed is not None:
            scenario = replace(scenario, seed=cfg.seed)
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
    # the same destination as the global --seed, which it beats when both are given
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="override the scenario seed (default: the global --seed, else as in the file)")
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
    except (ParseError, ValidationError, UnsortedTrace, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VmShieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
