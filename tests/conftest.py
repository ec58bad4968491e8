"""Shared test helpers: independent decision oracles and cluster generators.

The oracles re-derive the decision rules from scratch (plain arithmetic,
no package imports beyond the data types under test) so library results
can be checked against a second implementation rather than themselves.
The trace oracles work one packet event, one CSV row at a time.
"""

from __future__ import annotations

import copy
import csv
import io
import json
from collections import Counter

import numpy as np
import pytest

from vmshield.detector import PKT_TYPES, StatRow, TrafficInterval
from vmshield.errors import ParseError, UnsortedTrace
from vmshield.resources import ResourceVector
from vmshield.scheduler import ServerState, VmRecord


def cusum_oracle(pairs, drift, threshold, y0=0.0):
    """Direct recurrence arithmetic over (syn, finrst) pairs.

    Returns (y_series, exceed_flags).  Intentionally written without the
    detector module: the whole point is an independent derivation.
    """
    ys, flags = [], []
    y = y0
    for syn, finrst in pairs:
        d = (syn - finrst) / max(syn + finrst, 1)
        y = max(0.0, y + d - drift)
        ys.append(y)
        flags.append(y > threshold)
    return ys, flags


# the classic fully inconsistent cyclic judgment: a >> b >> c >> a
CYCLIC = [[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]


def power_iteration_oracle(m, tol=1e-10, max_iter=10_000):
    """Power iteration in numpy array arithmetic, from the uniform start.

    Returns (weights, lambda_max, iterations) once successive iterates
    agree within tol in max-norm, or (last iterate, None, max_iter) if
    they never do.
    """
    a = np.asarray(m, dtype=float)
    w = np.full(3, 1.0 / 3.0)
    for k in range(1, max_iter + 1):
        v = a @ w
        w_next = v / v.sum()
        if np.max(np.abs(w_next - w)) < tol:
            return w_next, float(np.mean((a @ w_next) / w_next)), k
        w = w_next
    return w, None, max_iter


def format_timestamp(t_us):
    return f"{t_us // 1_000_000}.{t_us % 1_000_000:06d}"


def csv_row_oracle(fields):
    """One CSV line as csv.writer writes it, quoting a "\\r" as well as a "\\n", ended by LF.

    csv.writer quotes a field holding any character of its line
    terminator, so a CRLF terminator makes it quote both.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def events_to_csv_oracle(events):
    """The event trace file written by csv.writer, one row per event."""
    return "".join([csv_row_oracle(["timestamp_s", "vm_id", "pkt_type"]),
                    *(csv_row_oracle([format_timestamp(t_us), vm_id, pkt_type])
                      for t_us, vm_id, pkt_type in events)])


def stat_rows_to_csv_oracle(rows):
    """The statistic log written by csv.writer, one row per StatRow."""
    return "".join([csv_row_oracle(["interval", "vm_id", "syn", "finrst", "d", "y", "alarm"]),
                    *(csv_row_oracle([r.interval_index, r.vm_id, r.syn, r.finrst,
                                      f"{r.d:.6f}", f"{r.y:.6f}", int(r.alarm)])
                      for r in rows)])


def utilization_csv_oracle(rows):
    """utilization.csv written a row at a time, as emit_reports once wrote it with an f-string per
    (tick, server, cpu, mem, bw, power, vms) row: csv.writer's fields, the usage as %.6f."""
    return "".join([csv_row_oracle(["tick", "server", "cpu", "mem", "bw", "power", "vms"]),
                    *(csv_row_oracle([tick, sid, f"{cpu:.6f}", f"{mem:.6f}", f"{bw:.6f}", power, nvms])
                      for tick, sid, cpu, mem, bw, power, nvms in rows)])


def place_oracle(demand, weights, servers):
    """(candidate ids, scores, chosen id or None) of one placement, on ResourceVectors.

    A candidate is an active server whose usage + demand, added as
    vectors, stays strictly below its threshold in every component; the
    least (score, id) wins.
    """
    candidates, scores = [], {}
    for s in servers:
        after = s.usage + demand
        if (s.power == "active" and after.cpu < s.threshold.cpu
                and after.mem < s.threshold.mem and after.bw < s.threshold.bw):
            candidates.append(s.id)
            scores[s.id] = _score(weights, s.usage)
    chosen = min(((score, sid) for sid, score in scores.items()), default=(None, None))[1]
    return candidates, scores, chosen


def read_events_oracle(text):
    """(t_us, vm_id, pkt_type) triples of an event trace file, checked row by row.

    The first bad row raises the ParseError read_trace_csv must raise,
    naming the physical line the row ends on.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    assert next(reader) == ["timestamp_s", "vm_id", "pkt_type"]
    events = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        try:
            ts, vm_id, pkt_type = row
            t_us = round(float(ts) * 1_000_000)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"trace line {lineno}: {exc}") from exc
        if t_us < 0:
            raise ParseError(f"trace line {lineno}: timestamp_s must be >= 0, got {ts}")
        if t_us >= 2**63:
            raise ParseError(f"trace line {lineno}: timestamp_s must be below "
                             f"{2**63} microseconds, got {ts}")
        if pkt_type not in PKT_TYPES:
            raise ParseError(f"trace line {lineno}: pkt_type {pkt_type!r} not in {PKT_TYPES}")
        events.append((t_us, vm_id, pkt_type))
    return events


def traffic_oracle(spec, draw_connections):
    """(t_us, vm_id, pkt_type) events of one TrafficSpec, from its default_rng(seed).

    An attack spec makes one integers call per interval for its SYN
    offsets.  A normal spec draws its connections in blocks of
    max(1, draw_connections // base_rate) intervals from its start, the
    last block what is left: one integers call of the block's
    (intervals, base_rate) shape for the SYN offsets, one for the FIN|RST
    delays and one random call for the RST flags (10% RST).  The events
    are then stably sorted by time.
    """
    rng = np.random.default_rng(spec.seed)
    interval_us = round(spec.interval_seconds * 1_000_000)
    low, high = (round(v * 1_000_000) for v in spec.fin_delay_range)
    events = []
    if spec.mode == "attack":
        for k in range(spec.start, spec.end):
            n = round(spec.base_rate * spec.attack_multiplier)
            events += [(k * interval_us + offset, spec.vm_id, "SYN")
                       for offset in rng.integers(0, interval_us, n).tolist()]
        return sorted(events, key=lambda e: e[0])
    rows = max(1, draw_connections // max(spec.base_rate, 1))
    for first in range(spec.start, spec.end, rows):
        shape = (min(rows, spec.end - first), spec.base_rate)
        offsets = rng.integers(0, interval_us, shape).tolist()
        delays = rng.integers(low, high, shape, endpoint=True).tolist()
        is_rst = (rng.random(shape) < 0.1).tolist()
        for k, interval in enumerate(zip(offsets, delays, is_rst), first):
            for offset, delay, rst in zip(*interval):
                t_syn = k * interval_us + offset
                events += [(t_syn, spec.vm_id, "SYN"),
                           (t_syn + delay, spec.vm_id, "RST" if rst else "FIN")]
    return sorted(events, key=lambda e: e[0])


def fin_slot_oracle(interval_us, lo_us, hi_us):
    """By slot k, how many (offset, delay) pairs, offset in [0, interval_us) and delay in
    [lo_us, hi_us], land their FIN in slot (offset + delay) // interval_us == k: every pair counted."""
    counts = Counter((offset + delay) // interval_us
                     for offset in range(interval_us) for delay in range(lo_us, hi_us + 1))
    return [counts[k] for k in range(max(counts) + 1)]


def detector_reports_oracle(scenario):
    """(detector.csv, alarms.json) of a scenario JSON whose VMs all fit on its one server, policy log.

    Restated tick by tick from the simulator docstring.  Phase 1 names
    requested VMs vm-001, vm-002, ... and gives each placement a seq;
    shutdowns and revocations end a VM's traffic, and attacks set its
    multiplier.  Phase 3 takes the running VMs in sorted-id order: each
    sends base_rate paired connections and base_rate * (multiplier - 1)
    more SYNs, rounded half to even.  One multinomial call from
    default_rng([seed, 1]) splits every VM's paired connections by FIN
    slot, with fin_slot_oracle's pairs over all pairs as the chances.  A
    VM's split joins its ring of pending FINs, whose slot 0 is this
    tick's finrst, and the ring shifts one slot.  d and y follow
    cusum_oracle from the VM's first tick, and an alarm (with the next
    seq) is the first tick of each run of exceedances.
    """
    rate, seed, det = scenario["base_rate"], scenario["seed"], scenario["detector"]
    pairs = fin_slot_oracle(round(det["interval_seconds"] * 1_000_000),
                            *(round(v * 1_000_000) for v in scenario["fin_delay_range"]))
    chances = [n / sum(pairs) for n in pairs]
    rng = np.random.default_rng([seed, 1])
    vms, rows, alarms, seq = {}, [], [], 0
    for tick in range(scenario["duration"]):
        for ev in (ev for ev in scenario["events"] if ev["tick"] == tick):
            if ev["op"] == "vm_request":
                for _ in range(ev.get("count", 1)):
                    seq += 1
                    vms[f"vm-{len(vms) + 1:03d}"] = {"running": True, "multiplier": 1.0,
                                                    "ring": [0] * len(pairs), "y": 0.0, "over": False}
            elif ev["op"] in ("vm_shutdown", "vm_revoke"):
                vms[ev["vm"]]["running"] = False
            else:
                vms[ev["vm"]]["multiplier"] = ev.get("multiplier", 1.0)
        live = sorted(vm_id for vm_id, vm in vms.items() if vm["running"])
        fins = rng.multinomial(np.array([rate] * len(live), dtype=np.int64), chances).tolist()
        for vm_id, split in zip(live, fins):
            vm = vms[vm_id]
            ring = [due + new for due, new in zip(vm["ring"], split)]
            syn, finrst = rate + round(rate * (vm["multiplier"] - 1.0)), ring[0]
            vm["ring"] = ring[1:] + [0]
            (y,), (over,) = cusum_oracle([(syn, finrst)], det["drift"], det["threshold"], vm["y"])
            alarm = over and not vm["over"]
            vm["y"], vm["over"] = y, over
            rows.append(StatRow(tick, vm_id, syn, finrst, (syn - finrst) / max(syn + finrst, 1), y, alarm))
            if alarm:
                seq += 1
                alarms.append({"tick": tick, "seq": seq, "vm": vm_id, "y": round(y, 6),
                               "action": "log", "detail": "recorded"})
    return stat_rows_to_csv_oracle(rows), json.dumps(alarms, indent=2, sort_keys=True) + "\n"


def merge_oracle(streams):
    """Concatenate the streams, then a stable sort on (t_us, vm_id)."""
    for i, stream in enumerate(streams):
        if any(b[0] < a[0] for a, b in zip(stream, stream[1:])):
            raise UnsortedTrace(f"input stream {i} is not time-ordered")
    return sorted((e for stream in streams for e in stream), key=lambda e: (e[0], e[1]))


def bin_events_oracle(events, interval_seconds, n_intervals=None, vm_ids=None):
    """Per-(vm, interval) SYN and FIN|RST counts, one event at a time."""
    interval_us = round(interval_seconds * 1_000_000)
    counts = {}
    vms = set(vm_ids or ())
    last_t, max_index, limit = 0, -1, None
    if n_intervals is not None:
        limit = n_intervals
        max_index = limit - 1
    for t_us, vm_id, pkt_type in events:
        if t_us < last_t:
            if t_us < 0:
                raise ValueError(f"negative timestamp {t_us} us for vm {vm_id!r}")
            raise UnsortedTrace(f"timestamp {t_us} after {last_t}")
        last_t = t_us
        idx = t_us // interval_us
        vms.add(vm_id)
        if limit is not None and idx >= limit:
            continue
        max_index = max(max_index, idx)
        column = {"SYN": 0, "FIN": 1, "RST": 1}.get(pkt_type)
        if column is not None:
            counts.setdefault((vm_id, idx), [0, 0])[column] += 1
    return [TrafficInterval(idx, vm_id, *counts.get((vm_id, idx), (0, 0)))
            for vm_id in sorted(vms) for idx in range(max_index + 1)]


def _score(w, u):
    return w[0] * u.cpu + w[1] * u.mem + w[2] * u.bw


def _mean_sorted(vectors):
    total = ResourceVector(0.0, 0.0, 0.0)
    for v in vectors:
        total = ResourceVector(total.cpu + v.cpu, total.mem + v.mem, total.bw + v.bw)
    inv = 1.0 / len(vectors)
    return ResourceVector(total.cpu * inv, total.mem * inv, total.bw * inv)


def migration_oracle(servers, vms):
    """Brute-force re-derivation of the single-move rebalancing rule.

    Enumerates every (victim, target) pair and applies the decision
    rules literally: hottest overloaded source by uniform score, mean
    hosted usage as the migrant estimate, share weights, strict
    feasibility, minimum target score, strict improvement requirement.
    Returns (source_id, victim_id, target_id, source_post, target_score)
    or None.
    """
    third = 1.0 / 3.0
    uniform = (third, third, third)
    overloaded = [
        s
        for s in servers
        if s.power == "active"
        and (
            s.usage.cpu >= s.threshold.cpu
            or s.usage.mem >= s.threshold.mem
            or s.usage.bw >= s.threshold.bw
        )
    ]
    if not overloaded:
        return None
    source = min(overloaded, key=lambda s: (-_score(uniform, s.usage), s.id))
    if not source.vms:
        return None
    hosted = [vms[vid].observed for vid in sorted(source.vms)]
    m3 = _mean_sorted(hosted)
    total = m3.cpu + m3.mem + m3.bw
    if total > 0:
        w = (m3.cpu / total, m3.mem / total, m3.bw / total)
    else:
        w = uniform
    source_post = _score(
        w,
        ResourceVector(
            source.usage.cpu - m3.cpu, source.usage.mem - m3.mem, source.usage.bw - m3.bw
        ),
    )
    best = None
    for s in servers:
        if s.id == source.id or s.power != "active":
            continue
        after = ResourceVector(s.usage.cpu + m3.cpu, s.usage.mem + m3.mem, s.usage.bw + m3.bw)
        if not (
            after.cpu < s.threshold.cpu
            and after.mem < s.threshold.mem
            and after.bw < s.threshold.bw
        ):
            continue
        key = (_score(w, s.usage), s.id)
        if best is None or key < best:
            best = key
    if best is None or not best[0] < source_post:
        return None
    victim = None
    for vid in sorted(source.vms):
        v = vms[vid].observed
        d2 = (v.cpu - m3.cpu) ** 2 + (v.mem - m3.mem) ** 2 + (v.bw - m3.bw) ** 2
        if victim is None or (d2, vid) < victim:
            victim = (d2, vid)
    return source.id, victim[1], best[1], source_post, best[0]


def _share_weights(demand):
    """Demand shares as priority weights; uniform for a zero demand."""
    total = demand.cpu + demand.mem + demand.bw
    if total <= 0:
        return (1.0 / 3.0,) * 3
    return (demand.cpu / total, demand.mem / total, demand.bw / total)


def consolidate_oracle(servers, vms, samples, low_watermark, class_defaults):
    """Watermark consolidation re-derived on whole-cluster copies.

    Each pass ranks the active servers strictly below the watermark by
    uniform score, then id, and trial-drains them in that order on a deep
    copy of the cluster: every hosted VM, in id order, is sized as the
    mean of its samples[vid] list (or, with none, the mean observed usage of
    the other VMs of its class, else the class default) and goes to the strictly feasible
    other active server of least share-weighted score.  The first drain
    that places every VM is kept and its source slept; a pass that keeps
    none ends the call.  Returns (moves, sleeps), each move a tuple
    (source, victim, target, source_post_score, target_score).
    """
    uniform = (1.0 / 3.0,) * 3
    work = {s.id: copy.deepcopy(s) for s in servers}
    moves, sleeps = [], []
    while True:
        drainable = sorted(
            (
                s
                for s in work.values()
                if s.power == "active"
                and s.usage.cpu < low_watermark.cpu
                and s.usage.mem < low_watermark.mem
                and s.usage.bw < low_watermark.bw
            ),
            key=lambda s: (_score(uniform, s.usage), s.id),
        )
        drained = None
        for source in drainable:
            trial = copy.deepcopy(work)
            trial_moves = []
            for vid in sorted(source.vms):
                record = vms[vid]
                if samples[vid]:
                    estimate = _mean_sorted(samples[vid])
                else:
                    peers = [r.observed for other, r in vms.items()
                             if r.hotspot_class == record.hotspot_class and other != vid]
                    estimate = _mean_sorted(peers) if peers else class_defaults[record.hotspot_class]
                w = _share_weights(estimate)
                best = None
                for s in trial.values():
                    if s.id == source.id or s.power != "active":
                        continue
                    if not (
                        s.usage.cpu + estimate.cpu < s.threshold.cpu
                        and s.usage.mem + estimate.mem < s.threshold.mem
                        and s.usage.bw + estimate.bw < s.threshold.bw
                    ):
                        continue
                    key = (_score(w, s.usage), s.id)
                    if best is None or key < best:
                        best = key
                if best is None:
                    trial_moves = None
                    break
                target = trial[best[1]]
                target.usage = ResourceVector(
                    target.usage.cpu + estimate.cpu,
                    target.usage.mem + estimate.mem,
                    target.usage.bw + estimate.bw,
                )
                target.vms.add(vid)
                trial[source.id].vms.discard(vid)
                post = ResourceVector(
                    source.usage.cpu - record.observed.cpu,
                    source.usage.mem - record.observed.mem,
                    source.usage.bw - record.observed.bw,
                )
                trial_moves.append((source.id, vid, best[1], _score(w, post), best[0]))
            if trial_moves is not None:
                work = trial
                work[source.id].usage = ResourceVector(0.0, 0.0, 0.0)
                work[source.id].power = "asleep"
                moves.extend(trial_moves)
                sleeps.append(source.id)
                drained = source.id
                break
        if drained is None:
            return moves, sleeps


def exact_usage_oracle(scenario, report):
    """Check every active server-tick's usage exactly; return how many were checked.

    A server's usage at the end of tick t is its overhead plus the observed
    usage of the VMs it hosts in the vm_samples of tick t, folded in
    sorted-id order, compared with ==.  Past vm-999 sorted-id order is not
    placement order (vm-1000 sorts before vm-101), and a different fold
    order changes the unrounded sums in their last bits.
    """
    overhead = {s.id: s.usage for s in scenario.servers}
    hosted = {}
    for tick, vm, observed, host in report.vm_samples:
        if host is not None:
            hosted.setdefault((tick, host), []).append((vm, observed))
    checked = 0
    for tick, sid, cpu, mem, bw, power, nvms in report.utilization:
        if tick == 0 or power == "asleep":
            continue
        members = sorted(hosted.get((tick - 1, sid), []), key=lambda m: m[0])
        expect = overhead[sid]
        for _, observed in members:
            expect = ResourceVector(expect.cpu + observed.cpu, expect.mem + observed.mem,
                                    expect.bw + observed.bw)
        assert (cpu, mem, bw) == expect.as_tuple(), (tick, sid)
        assert nvms == len(members), (tick, sid)
        checked += 1
    return checked


def random_cluster(seed):
    """A small random cluster; roughly half the draws contain an overload."""
    rng = np.random.default_rng(seed)
    n_servers = int(rng.integers(1, 6))
    n_vms = int(rng.integers(0, 13))
    servers = []
    for i in range(n_servers):
        power = "asleep" if rng.random() < 0.15 and n_servers > 1 else "active"
        threshold = ResourceVector(*(float(x) for x in rng.uniform(60, 100, 3)))
        overhead = ResourceVector(*(float(x) for x in rng.uniform(0, 10, 3)))
        servers.append(ServerState(f"p{i + 1}", usage=overhead, threshold=threshold, power=power))
    active = [s for s in servers if s.power == "active"]
    vms = {}
    for j in range(n_vms):
        vid = f"v{j + 1:02d}"
        observed = ResourceVector(*(float(x) for x in rng.uniform(0, 40, 3)))
        host = active[int(rng.integers(0, len(active)))] if active else None
        record = VmRecord(vid, "cpu-intensive", observed=observed)
        vms[vid] = record
        if host is not None:
            host.vms.add(vid)
            host.usage = ResourceVector(
                host.usage.cpu + observed.cpu,
                host.usage.mem + observed.mem,
                host.usage.bw + observed.bw,
            )
    if active and rng.random() < 0.5:
        # force an overload on one hosted server so the interesting branch runs
        hosted = [s for s in active if s.vms]
        if hosted:
            s = hosted[int(rng.integers(0, len(hosted)))]
            comp = int(rng.integers(0, 3))
            u = s.usage.as_tuple()[comp]
            t = list(s.threshold.as_tuple())
            t[comp] = max(1e-9, u * float(rng.uniform(0.5, 1.0)))
            s.threshold = ResourceVector(*t)
    return servers, vms


@pytest.fixture
def make_cluster():
    return random_cluster
