"""Output checks, exact work counts and digests for the benchmark.

Every check returns a list of failure messages; an empty list is a pass.
The ``.evt`` reader, the brute-force counters and the difference counts
here are written independently of ``spdclab``'s own ``evtfile`` and
``correlate`` code, so they keep holding when those layers change.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct

import numpy as np

TICKS = 10**15
CHANNEL_NAMES = ("idler", "signal1", "signal2")
#: z-score limit for statistical checks; wide enough that tens of bins over
#: hundreds of runs do not trip it by chance (two-sided p ~ 6e-7 per bin)
Z_LIMIT = 5.0
PREFIX_EVENTS = 10_000


# ---------------------------------------------------------------------------
# Readers and digests.
# ---------------------------------------------------------------------------


def read_evt(path) -> tuple[dict[str, np.ndarray], int]:
    """Channel timestamps (int64 ticks) and the duration of an .evt file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != b"SPDCEVT1":
        raise ValueError(f"{path}: bad magic")
    (n_channels,) = struct.unpack_from("<I", data, 8)
    offset, streams, duration = 12, {}, None
    for _ in range(n_channels):
        cid, count, duration = struct.unpack_from("<BQQ", data, offset)
        offset += 17
        streams[CHANNEL_NAMES[cid]] = np.frombuffer(
            data, dtype="<u8", count=count, offset=offset
        ).astype(np.int64)
        offset += 8 * count
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return streams, duration


def read_estimator(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delay, value and stderr columns of an estimator product CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh
                if not line.startswith(("#", "delay_s"))]
    a = np.array(rows, dtype=float)
    return a[:, 0], a[:, 1], a[:, 2]


def product_body(path) -> bytes:
    """File bytes with the leading ``#`` provenance lines removed."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = 0
    while data.startswith(b"#", start):
        start = data.index(b"\n", start) + 1
    return data[start:]


def digests(outdirs) -> dict[str, str]:
    """sha256 of every product body (CSV header lines stripped, .evt whole)."""
    out = {}
    for outdir in outdirs:
        for name in sorted(os.listdir(outdir)):
            path = os.path.join(outdir, name)
            if name.endswith(".evt"):
                with open(path, "rb") as fh:
                    body = fh.read()
            else:
                body = product_body(path)
            out[f"{os.path.basename(outdir)}/{name}"] = hashlib.sha256(body).hexdigest()
    return out


# ---------------------------------------------------------------------------
# Counting work and brute-force oracles.
# ---------------------------------------------------------------------------


def _in_range(ta, tb, lo, hi):
    """Number of (a, b) with lo <= a - b <= hi: two searchsorted calls."""
    return int(np.sum(np.searchsorted(tb, ta - lo, side="right")
                      - np.searchsorted(tb, ta - hi, side="left")))


def correlate_work(streams, grid, tc) -> dict[str, float]:
    """In-range differences of the three counting passes and the gated share.

    The passes are signal1-idler, signal2-idler and gated idler-signal2;
    a difference is in range when it lies within tc of some grid delay.
    """
    ti, t1, t2 = streams["idler"], streams["signal1"], streams["signal2"]
    lo, hi = int(grid.min()) - tc, int(grid.max()) + tc
    n1 = (np.searchsorted(t1, ti + tc, side="right")
          - np.searchsorted(t1, ti - tc, side="left"))
    gated = ti[n1 > 0]
    diffs = (_in_range(t1, ti, lo, hi) + _in_range(t2, ti, lo, hi)
             + _in_range(t2, gated, lo, hi))
    return {"correlate.diffs": diffs,
            "correlate.gated_frac": gated.size / max(ti.size, 1)}


def _brute_diffs(ta, tb, lo, hi, weights=None, rows=500):
    """Every a - b in [lo, hi] from explicit difference matrices."""
    diffs, wts = [], []
    for start in range(0, ta.size, rows):
        d = ta[start:start + rows, None] - tb[None, :]
        keep = (d >= lo) & (d <= hi)
        diffs.append(d[keep])
        if weights is not None:
            wts.append(np.broadcast_to(weights[start:start + rows, None], d.shape)[keep])
    return np.concatenate(diffs), (np.concatenate(wts) if weights is not None else None)


def brute_counts(ti, t1, t2, grid, tc):
    """Pair (signal1-idler, signal2-idler) and triple counts per grid delay."""
    lo, hi = int(grid.min()) - tc, int(grid.max()) + tc
    out = {}
    for key, ts in (("pairs_s1", t1), ("pairs_s2", t2)):
        d, _ = _brute_diffs(ts, ti, lo, hi)
        out[key] = np.array([np.count_nonzero(np.abs(d - g) <= tc) for g in grid])
    n1 = np.zeros(ti.size, dtype=np.int64)
    for start in range(0, ti.size, 500):
        d = t1[None, :] - ti[start:start + 500, None]
        n1[start:start + 500] = np.count_nonzero(np.abs(d) <= tc, axis=1)
    d, w = _brute_diffs(ti, t2, -hi, -lo, weights=n1)
    out["triples"] = np.array([int(np.sum(w[np.abs(-d - g) <= tc])) for g in grid])
    return out


def prefix_check(spdclab, streams, duration, grid_s, tauc_s) -> list[str]:
    """The library counters against brute force on a 10 k-idler prefix."""
    tc = int(round(tauc_s * TICKS))
    grid = np.rint(grid_s * TICKS).astype(np.int64)
    ti = streams["idler"][:PREFIX_EVENTS]
    cut = ti[-1]
    t1 = streams["signal1"][streams["signal1"] <= cut]
    t2 = streams["signal2"][streams["signal2"] <= cut]
    es = spdclab.EventStream
    pi, p1, p2 = (es(n, t, duration) for n, t in
                  (("idler", ti), ("signal1", t1), ("signal2", t2)))
    got = {
        "pairs_s1": spdclab.pair_histogram(p1, pi, grid_s, tauc_s).counts,
        "pairs_s2": spdclab.pair_histogram(p2, pi, grid_s, tauc_s).counts,
        "triples": spdclab.triple_histogram(pi, p1, p2, grid_s, tauc_s).counts,
    }
    want = brute_counts(ti, t1, t2, grid, tc)
    return [f"prefix {k}: counts differ from brute force"
            for k in want if not np.array_equal(got[k], want[k])]


# ---------------------------------------------------------------------------
# Physics checks on the products.
# ---------------------------------------------------------------------------


def _z(value, expected, stderr):
    return (value - expected) / stderr


def check_mc_narrow(count_dir, X) -> list[str]:
    """Poisson source: heralding plateau, conditioned dip and flat tails."""
    fails = []
    d, g2, e2 = read_estimator(os.path.join(count_dir, "g2bar_si.csv"))
    dc, gc, ec = read_estimator(os.path.join(count_dir, "gbar2_c.csv"))
    c = int(np.argmin(np.abs(d)))
    if not abs(_z(g2[c], 1 + X, e2[c])) <= Z_LIMIT:
        fails.append(f"g2bar_si(0) = {g2[c]:.5f} +/- {e2[c]:.5f}, expected {1 + X}")
    short = (1 + 2 * X) / (1 + X) ** 2
    c = int(np.argmin(np.abs(dc)))
    if not abs(gc[c] - short) / short <= 0.05:
        fails.append(f"gbar2_c(0) = {gc[c]:.5f}, expected {short:.5f} within 5%")
    for name, dd, v, e in (("g2bar_si", d, g2, e2), ("gbar2_c", dc, gc, ec)):
        far = np.abs(dd) >= 13e-9
        z = np.max(np.abs(_z(v[far], 1.0, e[far])))
        if not z <= Z_LIMIT:
            fails.append(f"{name} at |tau| >= 13 ns: max |z| = {z:.2f} from 1")
    return fails


def check_mc_wide(count_dir, X, mu, analytic) -> list[str]:
    """Thermal source: plateau with the cell-model bias, full conditioned curve."""
    fails = []
    d, g2, e2 = read_estimator(os.path.join(count_dir, "g2bar_si.csv"))
    c = int(np.argmin(np.abs(d)))
    # the cell model biases the plateau upward by X*mu at leading order
    if not (1 + X - Z_LIMIT * e2[c] <= g2[c] <= 1 + X + X * mu + Z_LIMIT * e2[c]):
        fails.append(f"g2bar_si(0) = {g2[c]:.5f} +/- {e2[c]:.5f}, expected "
                     f"{1 + X} up to {1 + X + X * mu}")
    dc, gc, ec = read_estimator(os.path.join(count_dir, "gbar2_c.csv"))
    z = np.max(np.abs(_z(gc, analytic(dc), ec)))
    if not z <= Z_LIMIT:
        fails.append(f"gbar2_c vs gbar2c_analytic: max |z| = {z:.2f}")
    return fails


def check_surface(body: bytes, cells, bin_s, r3, ratio_expected) -> list[str]:
    """Row count, far corner at R^3 and the centre-to-ridge excess ratio."""
    lines = body.split(b"\n")[1:-1]  # column header, trailing newline
    if len(lines) != cells:
        return [f"surface CSV has {len(lines)} rows, expected {cells} cells"]
    n = math.isqrt(cells)
    c = n // 2

    def value(i, j):
        return float(lines[i * n + j].split(b",")[2])

    fails = []
    for i, j in ((n - 1, 0), (0, n - 1)):
        if not abs(value(i, j) / r3 - 1) <= 1e-6:
            fails.append(f"corner ({i}, {j}) = {value(i, j) / r3:.9f} R^3")
    ridge = value(c, c + int(round(15e-9 / bin_s))) - r3
    ratio = (value(c, c) - r3) / ridge
    if not abs(ratio / ratio_expected - 1) <= 0.01:
        fails.append(f"centre/ridge excess {ratio:.5f}, expected "
                     f"{ratio_expected:.5f} within 1%")
    return fails
