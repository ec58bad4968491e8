"""Canary for numpy's random streams, pinned by sha256.

Report bytes rest on the streams of np.random.Generator, which numpy does
not promise to keep across releases (only the bit generators are).  Each
case here makes, straight on numpy, the calls one part of the program
makes, in its shapes and from the same default_rng seeding (PCG64 through
SeedSequence).  A numpy that changes a stream fails the case that names
it, before tests/test_golden.py fails with no named cause.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

INTERVAL_US = 10_000_000  # the default 10 s interval
FIN_DELAY_US = (12_000_000, 19_000_000)  # the default fin_delay_range


def _simulator_jitter():
    # phase 2: one (running VMs, 3) block of +/-10% jitter a tick, stream 0 of the scenario seed
    rng = np.random.default_rng([7, 0])
    return [rng.uniform(-0.1, 0.1, (vms, 3)) for vms in (0, 1, 5, 400, 3)]


def _simulator_traffic():
    # phase 3: one multinomial a tick splits every live VM's paired connections
    # by FIN slot, stream 1; the default interval and fin_delay_range give the
    # chances (0, 0.45, 0.55), and other delays give more slots
    rng = np.random.default_rng([7, 1])
    draws = []
    for n_pair in ([], [100], [100] * 400, [0, 2**40, 37], [3, 0]):
        draws.append(rng.multinomial(np.array(n_pair, dtype=np.int64), [0.0, 0.45, 0.55]))
    draws.append(rng.multinomial(np.array([20, 2**40]), [0.0, 0.1, 0.4, 0.5]))
    return draws


def _gen_normal():
    # traffic._normal_draws: a block of intervals at a time, its offsets, then its delays, then its RST
    # flags, each (intervals, base_rate).  60 intervals at base_rate 25 come in blocks of
    # DRAW_CONNECTIONS // 25 = 10 intervals; at a base_rate of DRAW_CONNECTIONS or more a block is one interval
    draws = []
    for seed, shapes in ((3, [(10, 25)] * 6), (4, [(1, 256)] * 2 + [(1, 2000)] * 2)):
        rng = np.random.default_rng(seed)
        for shape in shapes:
            draws += [rng.integers(0, INTERVAL_US, shape), rng.integers(*FIN_DELAY_US, shape, endpoint=True),
                      rng.random(shape)]
    return draws


def _gen_attack():
    # traffic.gen_attack: every interval's SYN offsets in one (intervals, SYNs a interval) call
    return [np.random.default_rng(5).integers(0, INTERVAL_US, (6, 75))]


STREAMS = {
    "simulator-jitter": (_simulator_jitter, "770fe2d87d998397169c6d6e162802cf98e6fbbb8d0f431844e251fdc7ac8920"),
    "simulator-traffic": (_simulator_traffic, "5084db27f2b01a5e21e5fbba46fae024285d3f2ce63079486814577efab042a2"),
    "gen-normal": (_gen_normal, "b0444ac8c52bf956ecb06764377930c2b7ddfb872e3d21ed120eef21afa02193"),
    "gen-attack": (_gen_attack, "831456041e198a3d2acf1dadf6b9fbd9588c4b74c79e3c769439c045b85b8d02"),
}


def _digest(arrays) -> str:
    """sha256 over each array's shape and little-endian bytes, floats as float64 and ints as int64."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_numpy_random_stream_is_the_one_the_reports_were_pinned_with(name):
    draw, pinned = STREAMS[name]
    assert _digest(draw()) == pinned, f"numpy's {name} stream changed: report bytes will change"


@pytest.mark.parametrize("rows", [(6,), (1,) * 6, (2, 3, 1), (0, 4, 0, 2)])
@pytest.mark.parametrize("high", [INTERVAL_US, 7, 2**32 + 5])
def test_attack_offsets_drawn_a_block_of_intervals_at_a_time_equal_one_call(rows, high):
    # gen writes a window at a time, so an attack draws each window's intervals in one call;
    # the buffered half of a 32-bit draw carries over between calls, so the stream is unchanged
    whole = np.random.default_rng(5).integers(0, high, (6, 75))
    rng = np.random.default_rng(5)
    assert np.array_equal(np.concatenate([rng.integers(0, high, (k, 75)) for k in rows]), whole)
