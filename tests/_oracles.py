"""Independent reference implementations used to pin expected values.

These stay deliberately naive: full pairwise difference matrices and
per-idler masked sums, no sorting tricks shared with the production path.
"""
from __future__ import annotations

import struct

import numpy as np

TICKS = 10**15


def brute_pair_counts(ta, tb, delays_s, tauc_s):
    """O(n^2) windowed pair counts via explicit difference matrices.

    Each block of the full difference matrix is formed once; only entries
    within max|tau| + tau_c of zero can fall in any window, so every window
    is tested on that short vector.
    """
    grid = np.rint(np.asarray(delays_s) * TICKS).astype(np.int64)
    tc = int(round(tauc_s * TICKS))
    reach = int(np.max(np.abs(grid), initial=0)) + tc
    out = np.zeros(grid.size, dtype=np.int64)
    chunk = 2000
    for start in range(0, len(ta), chunk):
        d = ta[start : start + chunk, None] - tb[None, :]
        d = d[np.abs(d) <= reach]
        for k, tau in enumerate(grid):
            out[k] += int(np.sum(np.abs(d - tau) <= tc))
    return out


def brute_triple_counts(ti, ts1, ts2, delays_s, tauc_s):
    """Per-idler brute triple counts: gate occupancy times window occupancy."""
    grid = np.rint(np.asarray(delays_s) * TICKS).astype(np.int64)
    tc = int(round(tauc_s * TICKS))
    out = np.zeros(grid.size, dtype=np.int64)
    for t in ti:
        n1 = int(np.sum(np.abs(ts1 - t) <= tc))
        if n1 == 0:
            continue
        shifted = ts2 - t
        for k, tau in enumerate(grid):
            out[k] += n1 * int(np.sum(np.abs(shifted - tau) <= tc))
    return out


def numeric_smear(curve_delays, curve_values, kernel_values, step):
    """Riemann-sum convolution by explicit per-point summation (valid region)."""
    m = (len(kernel_values) - 1) // 2
    n_out = len(curve_values) - 2 * m
    rev = kernel_values[::-1]
    out = np.array(
        [np.sum(curve_values[j : j + 2 * m + 1] * rev) * step for j in range(n_out)]
    )
    return curve_delays[m : len(curve_delays) - m], out


def surface_csv_body(t1, t2, values):
    """Surface CSV body (no header) built with one f-string per cell."""
    lines = []
    for i, a in enumerate(t1):
        for j, b in enumerate(t2):
            lines.append(f"{float(a)!r},{float(b)!r},{float(values[i, j])!r}")
    return "\n".join(lines) + "\n"


def raw_evt(*channels, magic=b"SPDCEVT1"):
    """``.evt`` bytes for (channel id, duration, ticks) triples, written
    field by field from the format description with no validation."""
    out = [magic, struct.pack("<I", len(channels))]
    for channel_id, duration, ticks in channels:
        out.append(struct.pack("<BQQ", channel_id, len(ticks), duration))
        out.append(np.asarray(ticks, dtype="<u8").tobytes())
    return b"".join(out)
