"""Independent reference implementations used to pin expected values.

These stay deliberately naive: full pairwise difference matrices and
per-idler masked sums, no sorting tricks shared with the production path.
"""
from __future__ import annotations

import math
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
    """Per-idler brute triple counts: gate occupancy times window occupancy.

    Only signal2 differences within max|tau| + tau_c of an idler can fall in
    any window, so each gated idler's differences are cut to that reach
    once and every window is tested on the short vector.
    """
    grid = np.rint(np.asarray(delays_s) * TICKS).astype(np.int64)
    tc = int(round(tauc_s * TICKS))
    reach = int(np.max(np.abs(grid), initial=0)) + tc
    out = np.zeros(grid.size, dtype=np.int64)
    for t in ti:
        n1 = int(np.sum(np.abs(ts1 - t) <= tc))
        if n1 == 0:
            continue
        shifted = ts2 - t
        shifted = shifted[np.abs(shifted) <= reach]
        for k, tau in enumerate(grid):
            out[k] += n1 * int(np.sum(np.abs(shifted - tau) <= tc))
    return out


def at(curve, *point, field="values"):
    """``curve.<field>`` at a grid point: one delay on a curve's ``delays``
    or (t1, t2) on a surface's axis; ``GridError`` when it is off the grid."""
    from spdclab.smearing import _grid_index

    axes = (curve.axis,) * 2 if hasattr(curve, "axis") else (curve.delays,)
    index = tuple(_grid_index(grid, x) for grid, x in zip(axes, point, strict=True))
    return float(getattr(curve, field)[index])


def kernel_value(kernel, tau):
    """The analytic (un-sampled) response trapezoid of ``kernel`` at ``tau``:
    flat at 1 / (2a) over |tau| <= a - b, falling linearly to zero at a + b,
    a and b the larger and the smaller of tau_c and tau_d."""
    tau = np.asarray(tau, dtype=float)
    a = max(kernel.coincidence_halfwidth, kernel.jitter)
    b = min(kernel.coincidence_halfwidth, kernel.jitter)
    u = np.abs(tau)
    flat = 1.0 / (2.0 * a)
    if b == 0.0:
        out = np.where(u <= a, flat, 0.0)
    else:
        ramp = (a + b - u) / (4.0 * a * b)
        out = np.where(u <= a - b, flat, np.where(u <= a + b, ramp, 0.0))
    return out if out.ndim else float(out)


def exact_kernel_samples(kernel):
    """``kernel.samples`` in exact rationals: the response's running integral
    F, with 4 tau_c tau_d F(x) = G(x + a + b) - G(x + a - b) - G(x - a + b)
    + G(x - a - b), G(y) = max(y, 0)^2 / 2 (the clipped ramp of one box at
    tau_d = 0), differenced over each cell [t - h/2, t + h/2] of the float
    grid points t and renormalized to unit area, every step a ``Fraction``."""
    from fractions import Fraction

    a, b, h = (Fraction(v) for v in (kernel.coincidence_halfwidth, kernel.jitter,
                                      kernel.sample_step))

    def running(x):
        if b == 0:
            return min(max((x + a) / (2 * a), Fraction(0)), Fraction(1))
        g = lambda y: y * y / 2 if y > 0 else Fraction(0)  # noqa: E731
        return (g(x + a + b) - g(x + a - b) - g(x - a + b) + g(x - a - b)) / (4 * a * b)

    cells = [running(Fraction(t) + h / 2) - running(Fraction(t) - h / 2)
             for t in kernel.delays().tolist()]
    area = sum(cells) * h
    return [c / area for c in cells]


def numeric_smear(curve_delays, curve_values, kernel_values, step):
    """Riemann-sum convolution by explicit per-point summation (valid region)."""
    m = (len(kernel_values) - 1) // 2
    n_out = len(curve_values) - 2 * m
    rev = kernel_values[::-1]
    out = np.array(
        [np.sum(curve_values[j : j + 2 * m + 1] * rev) * step for j in range(n_out)]
    )
    return curve_delays[m : len(curve_delays) - m], out


def table_csv_body(*columns):
    """Table CSV body (no header) built row by row, one f-string per field:
    the columns broadcast to one shape and read in C order, a ``str`` field
    as is, an integer as ``int`` and any other field as a Python float."""
    def field(v):
        if isinstance(v, str):
            return v
        return f"{int(v)}" if isinstance(v, (int, np.integer)) else f"{float(v)!r}"

    cols = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    return "".join(",".join(field(col[idx]) for col in cols) + "\n"
                   for idx in np.ndindex(cols[0].shape))


def raw_evt(*channels, magic=b"SPDCEVT1"):
    """``.evt`` bytes for (channel id, duration, ticks) triples, written
    field by field from the format description with no validation."""
    out = [magic, struct.pack("<I", len(channels))]
    for channel_id, duration, ticks in channels:
        out.append(struct.pack("<BQQ", channel_id, len(ticks), duration))
        out.append(np.asarray(ticks, dtype="<u8").tobytes())
    return b"".join(out)


def triple_rate(params, t1, t2, ti):
    """The triple rate P(t1, t2, ti) written out at one point, from its
    profiles alone: R(tau) = R rho(tau) with rho the box indicator of
    |tau| <= dt/2 or the triangle (1 - |tau|/dt)+, and C(tau)^2 = R(tau)/dt.
    A thermal source gives 2 C1 C2 R12 + R [R^2 + R12^2 + C1^2 + C2^2], a
    Poisson source R [R^2 + C1^2 + C2^2]."""
    r, dt = params.pair_rate, params.coherence_time

    def auto(tau):
        if params.shape == "box":
            return r if abs(tau) <= dt / 2 else 0.0
        return r * max(0.0, 1.0 - abs(tau) / dt)

    c1_sq, c2_sq, r12 = auto(t1 - ti) / dt, auto(t2 - ti) / dt, auto(t1 - t2)
    if params.statistics == "poisson":
        return r * (r**2 + c1_sq + c2_sq)
    return 2.0 * math.sqrt(c1_sq * c2_sq) * r12 + r * (r**2 + r12**2 + c1_sq + c2_sq)


def cross_sq_cumulative(params, tau):
    """Running integral of C(u)^2 from -inf to tau, written out per shape:
    density R/dt on |u| <= dt/2 (box) or (R/dt)(1 - |u|/dt) on |u| <= dt
    (triangle); totals R at +inf."""
    tau = np.asarray(tau, dtype=float)
    r, dt = params.pair_rate, params.coherence_time
    if params.shape == "box":
        return (r / dt) * (np.clip(tau, -dt / 2, dt / 2) + dt / 2)
    u = np.clip(tau, -dt, dt)
    neg = (r / dt) * np.square(u + dt) / (2 * dt)
    pos = r / 2 + (r / dt) * (u - np.square(u) / (2 * dt))
    return np.where(u <= 0, neg, pos)


def auto_antider2(params, tau, power):
    """Second antiderivative P of R(u)^power with P(0) = P'(0) = 0, written
    out per shape: even, and linear beyond the support s (dt/2 for the box,
    dt for the triangle, where R^power = R^power (1 - |u|/s)^power)."""
    u = np.abs(np.asarray(tau, dtype=float))
    dt = params.coherence_time
    s = dt / 2 if params.shape == "box" else dt
    v, outer = np.minimum(u, s), np.clip(u - s, 0.0, None)
    if params.shape == "box":
        out = np.square(v) / 2 + outer * s
    else:
        k1, k2 = power + 1, power + 2
        out = (s / k1) * (v + (s / k2) * ((1.0 - v / s) ** k2 - 1.0)) + outer * (s / k1)
    return params.pair_rate**power * out


def dense_p_ssi(params, grid, step):
    """Thermal triple rate P(t1-ti, t2-ti) as cell averages of width ``step``
    on the full square of ``grid``, one matrix expression over every cell: the
    constant, the two signal-idler ridges and the signal-signal diagonal from
    the closed-form antiderivatives above, the central term from the
    library's block."""
    from spdclab import smearing
    from spdclab.curves import CorrelationSurface

    r = params.pair_rate
    c2 = smearing._cell_average(lambda t: cross_sq_cumulative(params, t), grid, step)
    diff = grid[:, None] - grid[None, :]
    q2 = lambda t: auto_antider2(params, t, 2)  # noqa: E731
    auto_sq_cells = (q2(diff + step) - 2.0 * q2(diff) + q2(diff - step)) / step**2
    ccr = np.zeros((grid.size, grid.size))
    row0, col0, block = smearing._ccr_block(params, grid, step, np.ones(1),
                                            np.arange(grid.size))
    ccr[row0 : row0 + block.shape[0], col0 : col0 + block.shape[1]] = block
    values = r**3 + r * (c2[:, None] + c2[None, :]) + r * auto_sq_cells + ccr
    return CorrelationSurface(grid, values)


def hexagon_cell_areas(a, b, step, half):
    """Area of each grid cell [a -+ step/2] x [b -+ step/2] inside the
    hexagon |a|, |b|, |a - b| <= half: the cell clipped to the square
    |a|, |b| <= half, less its corners beyond a - b = half and b - a = half,
    each the four-corner sum of G(x) = max(x, 0)^2 / 2."""
    a0 = np.clip(np.asarray(a)[:, None] - step / 2, -half, half)
    a1 = np.clip(np.asarray(a)[:, None] + step / 2, -half, half)
    b0 = np.clip(np.asarray(b)[None, :] - step / 2, -half, half)
    b1 = np.clip(np.asarray(b)[None, :] + step / 2, -half, half)

    def beyond(x0, x1, y0, y1):  # area of x - y > half in [x0, x1] x [y0, y1]
        g = lambda x, y: np.maximum(x - y - half, 0.0) ** 2 / 2  # noqa: E731
        return g(x1, y0) - g(x0, y0) - g(x1, y1) + g(x0, y1)

    return (a1 - a0) * (b1 - b0) - beyond(a0, a1, b0, b1) - beyond(b0, b1, a0, a1)


def dense_smear_surface(surface, kernel):
    """Separable two-pass smearing of a sampled surface: one ``np.convolve``
    per column, then one per row (valid region)."""
    from spdclab import CorrelationSurface, GridError

    step = surface.axis[1] - surface.axis[0]
    if abs(step - kernel.sample_step) > 1e-9 * kernel.sample_step:
        raise GridError(f"grid step {step:g} differs from the kernel "
                        f"grid {kernel.sample_step:g}")
    k = kernel.samples
    m = kernel.half_len
    n = surface.axis.size
    cols = np.empty((n - 2 * m, n))
    for j in range(n):
        cols[:, j] = np.convolve(surface.values[:, j], k, mode="valid")
    out = np.empty((n - 2 * m, n - 2 * m))
    for i in range(cols.shape[0]):
        out[i, :] = np.convolve(cols[i, :], k, mode="valid")
    out *= step * step
    return CorrelationSurface(surface.axis[m:n - m], out)
