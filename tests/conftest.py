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

import numpy as np
import pytest

from vmshield.detector import PKT_TYPES, TrafficInterval
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

    The first bad row raises the ParseError read_trace_csv must raise.
    """
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == ["timestamp_s", "vm_id", "pkt_type"]
    events = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
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


def merge_oracle(streams):
    """Concatenate the streams, then a stable sort on (t_us, vm_id)."""
    for i, stream in enumerate(streams):
        if any(b[0] < a[0] for a, b in zip(stream, stream[1:])):
            raise UnsortedTrace(f"input stream {i} is not time-ordered")
    return sorted((e for stream in streams for e in stream), key=lambda e: (e[0], e[1]))


def bin_events_oracle(events, interval_seconds, span_seconds=None, vm_ids=None):
    """Per-(vm, interval) SYN and FIN|RST counts, one event at a time."""
    interval_us = round(interval_seconds * 1_000_000)
    counts = {}
    vms = set(vm_ids or ())
    last_t, max_index, limit = 0, -1, None
    if span_seconds is not None:
        limit = max(0, -(-round(span_seconds * 1_000_000) // interval_us))
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


def consolidate_oracle(servers, vms, low_watermark, class_defaults):
    """Watermark consolidation re-derived on whole-cluster copies.

    Each pass ranks the active servers strictly below the watermark by
    uniform score, then id, and trial-drains them in that order on a deep
    copy of the cluster: every hosted VM, in id order, is sized as the
    mean of its history (or, without history, the mean observed usage of
    its class, else the class default) and goes to the strictly feasible
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
                if record.history:
                    estimate = _mean_sorted(record.history)
                else:
                    peers = [r.observed for r in vms.values()
                             if r.hotspot_class == record.hotspot_class]
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
        record = VmRecord(vid, "cpu-intensive", observed=observed, host=host.id if host else None)
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
