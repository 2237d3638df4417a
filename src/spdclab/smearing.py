"""Detector-response smearing: window kernels and convolutions.

A software coincidence window of half-width tau_c combined with detector
timing jitter tau_d acts on ideal correlation functions as a moving average:
the unit-area trapezoid box(tau_c) * box(tau_d), flat at p = 1 / (2 max(tau_c,
tau_d)) over |tau| < |tau_c - tau_d| and zero beyond tau_c + tau_d.  The
excess of the smeared signal-idler coherence plateau is X = p / R, i.e.
X = 1/(2 R tau_c) whenever tau_c > tau_d.  The kernel is built, like every
peak shape of ``model.SHAPE_TABLE``, in ``model``'s one even
piecewise-polynomial algebra (``_Spline``): no response is written by hand.

Sampling is area-preserving everywhere: kernels and model curves are stored
as cell averages (differences of exact antiderivatives), so discrete
convolution conserves peak integrals exactly even when a correlation peak is
much narrower than the grid step.  They are sampled on the kernel's
``sample_step``, its ``grid_step`` cut finely enough to resolve the kernel,
so a product's delays may lie on any coarser grid.  C(t)^2 is smeared once,
in ``_smeared_rows``: the ridges of ``smear_surface`` and both curves of
``smear_curves`` (the smeared g2_si, and the conditioned coherence that
divides by it) read it, so they agree bit for bit; and both functions sample
on one grid rule (``_delay_grid``).  Each asks ``_smeared_rows`` for only
the cells it writes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import model
from .curves import CorrelationCurve, CorrelationSurface
from .params import (MAX_CONVOLVE_WORK, MAX_SURFACE_CELLS, GridError, SourceParams,
                     delay_array, guard, symmetric_grid)

__all__ = [
    "ResponseKernel",
    "PlateauPrediction",
    "build_kernel",
    "smear_curves",
    "smear_surface",
    "predict_plateaus",
    "gbar2c_analytic",
]

_STEP_TOL = 1e-9


@dataclass(frozen=True)
class ResponseKernel:
    """Unit-area response of window half-width tau_c and jitter tau_d for
    products on a grid of ``grid_step``.  The fields are its only inputs, so
    kernels built alike compare equal and hash alike.  ``sample_step`` is
    ``grid_step`` cut into the fewest equal parts that resolve the
    transitions, each at most a twentieth of the smaller time scale (of tau_c
    when tau_d = 0); ``samples`` (computed on first use) are the cell
    averages on that step of box(tau_c) * box(tau_d), or of box(tau_c) at
    tau_d = 0, formed up to the centre and mirrored, then renormalized to
    unit discrete area, so convolving a constant curve reproduces it exactly.
    Every construction raises ``GridError`` unless tau_c > 0, tau_d >= 0
    and ``grid_step`` > 0."""

    coincidence_halfwidth: float
    jitter: float
    grid_step: float

    def __post_init__(self) -> None:
        tau_c, tau_d, step = self.coincidence_halfwidth, self.jitter, self.grid_step
        if not tau_c > 0:
            raise GridError("coincidence half-width must be > 0")
        if not tau_d >= 0:
            raise GridError("jitter must be >= 0")
        if not step > 0:
            raise GridError(f"grid_step must be > 0, got {step:g}")

    @property
    def plateau_height(self) -> float:
        return 1.0 / (2.0 * max(self.coincidence_halfwidth, self.jitter))

    @property
    def sample_step(self) -> float:
        tau_c, tau_d, step = self.coincidence_halfwidth, self.jitter, self.grid_step
        scale = min(tau_c, tau_d) if tau_d > 0 else tau_c
        return step / float(np.ceil(20 * step / scale / (1 + _STEP_TOL)))

    @cached_property
    def samples(self) -> np.ndarray:
        h = self.sample_step
        # inf, with no numpy warning, for a step of 0 or one the quotient overflows
        n = np.ceil(self.support_halfwidth / h + 0.5) if h > 0 else np.inf
        grid = symmetric_grid(n, h)[: int(n) + 1]  # its guard before any other work
        response = model._Spline.box(self.coincidence_halfwidth)
        if self.jitter > 0:
            response = response.conv(model._Spline.box(self.jitter))
        # the cells up to the centre, mirrored, so none reads F(x) as T - F(-x)
        half = _cell_average(response.integral(), grid, h)
        samples = np.concatenate([half, half[-2::-1]])
        samples /= samples.sum() * h
        return samples

    @property
    def support_halfwidth(self) -> float:
        return self.coincidence_halfwidth + self.jitter

    @property
    def half_len(self) -> int:
        return (self.samples.size - 1) // 2

    def delays(self) -> np.ndarray:
        return symmetric_grid(self.half_len, self.sample_step)


def build_kernel(tau_c: float, tau_d: float, grid_step: float) -> ResponseKernel:
    """The checked ``ResponseKernel(tau_c, tau_d, grid_step)``."""
    return ResponseKernel(tau_c, tau_d, grid_step)


def smear_surface(
    params: SourceParams, kernel: ResponseKernel, max_delay: float
) -> CorrelationSurface:
    """Triple-coincidence rate P(t1-ti, t2-ti) smeared by the square window,
    on both axes over every point of the kernel's ``grid_step`` lattice
    within ``max_delay``.

    The rate is stored as cell averages on the grid of ``_delay_grid``, the
    one grid rule of every smeared product.  It holds the constant R^3, the
    two signal-idler ridges R C(t)^2 and the signal-signal diagonal
    R R(t1 - t2)^2 as exact differences of their antiderivatives, the narrow
    central term C C R from subcell integrals, each times its
    ``model.TRIPLE_TERMS`` coefficient for ``params.statistics``.  That
    surface is convolved with the kernel along both axes, the square 2D
    averaging window, and evaluated only on the ``grid_step`` lattice: every
    j-th row and column of the valid region about 0, j the sample steps per
    ``grid_step``.  The axis is ``symmetric_grid`` of ``grid_step``: for a
    span of whole steps, the ``window.delays()`` of that step and span bit
    for bit.  A surface of more than ``MAX_SURFACE_CELLS`` written cells
    raises ``GuardError`` before any of them exists.

    Each term is smeared on its own: the constant and the ridges with 1D
    convolutions, the diagonal by lag, and only the small central block in
    2D.  Outside the reach of the ridges and the diagonal every cell is the
    constant R^3 (sum k h)^2, bit for bit.
    """
    m = kernel.half_len  # the kernel's own grid guard first
    grid = _delay_grid(kernel, max_delay)
    j, half = round(kernel.grid_step / kernel.sample_step), (grid.size - 1) // 2 - m
    guard("surface cells", (2 * (half // j) + 1) ** 2, MAX_SURFACE_CELLS)
    keep = slice(half % j, None, j)
    axis = symmetric_grid(half // j, kernel.grid_step)
    return CorrelationSurface(axis, _smeared_rows(params, kernel, grid, keep, keep)[0])


def _smeared_rows(
    params: SourceParams, kernel: ResponseKernel, grid: np.ndarray, rows: slice,
    cols: slice | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The cells ``rows`` x ``cols`` (t1 and t2, ascending slices or an index
    array for ``cols``, on the valid region of ``grid``) of the smeared
    triple rate, and the cell averages of C(t)^2 on ``grid`` smeared once by
    the kernel, on the valid region.

    Memory is O(n) plus the cells asked for and their central block rows.
    """
    h, k, m, n = kernel.sample_step, kernel.samples, kernel.half_len, grid.size
    r, terms = params.pair_rate, model.TRIPLE_TERMS[params.statistics]
    s = k.sum() * h
    n_out = n - 2 * m

    # ridges R C(t)^2, one axis each: the kernel along that axis, s across
    c2 = _cell_average(lambda t: model.cross_sq_cumulative(params, t), grid, h)
    c2_sm = _convolve(c2, k, "valid") * h
    ridge = terms["ridges"] * r * s * c2_sm
    values = np.add.outer(terms["constant"] * r**3 * s**2 + ridge[rows], ridge[cols])

    # diagonal R R(t1 - t2)^2: cell averages by lag, which are exactly zero
    # where the second antiderivative is linear, smeared by the kernel's
    # autocorrelation; row i, column j of the (view) result reads lag i - j
    lags = np.arange(1 - n, n) * h
    q2 = lambda t: model.auto_antider2(params, t, 2)  # noqa: E731
    a = (q2(lags + h) - 2.0 * q2(lags) + q2(lags - h)) / h**2
    a[np.abs(lags) >= model.support(params) + h] = 0.0
    g = terms["diagonal"] * r * _convolve(a, _convolve(k, k) * h**2, "valid")
    values += sliding_window_view(g[::-1], n_out)[::-1][rows, cols]

    # central term: its block rows weighted by the kernel along t1 onto the
    # rows asked for, then convolved in full along t2; full column v lands on
    # output column v + col0 - 2m
    top, col0, block = _ccr_block(params, grid, h, k, np.arange(n_out)[rows])
    centre = _convolve(block, k) * h**2
    v = np.arange(n_out)[cols] - col0 + 2 * m
    inside = (v >= 0) & (v < centre.shape[1])
    values[top : top + len(centre), inside] += centre[:, v[inside]]
    return values, c2_sm


def _convolve(a: np.ndarray, v: np.ndarray, mode: str = "full") -> np.ndarray:
    """``np.convolve`` of ``a``, or of each row of a 2D ``a``, with ``v``;
    ``GuardError`` before any work when a.size * v.size, a bound on the
    multiply-adds, exceeds ``MAX_CONVOLVE_WORK``."""
    guard("convolution multiply-adds", a.size * v.size, MAX_CONVOLVE_WORK)
    if a.ndim == 1:
        return np.convolve(a, v, mode)
    return np.array([np.convolve(row, v, mode) for row in a])


@dataclass(frozen=True)
class PlateauPrediction:
    """Closed-form window-averaged levels implied by X = p / R."""

    X: float
    g2si_plateau: float
    nssi_short: float
    nssi_long: float
    gbar2c_short: float


def predict_plateaus(params: SourceParams, kernel: ResponseKernel) -> PlateauPrediction:
    """Predict the smeared plateau levels of the ridges alone from the kernel
    height: the levels of a Poisson source, whose smeared curves meet them.

    X = p/R gives: smeared g2_si plateau 1 + X; triple rate R^3 (1 + 2X) at
    short delays (both averaging ridges contribute) and R^3 (1 + X) at long
    delays (one ridge); conditioned estimate (1 + 2X) / (1 + X)^2 at short
    delays.  A thermal source's diagonal and central terms lift its curve
    above them at short delays: on the desk scenario ``gbar2c_short`` is
    11/36 = 0.30556, the thermal ``gbar2_c`` at 0 0.32897 (box) and 0.33132
    (triangle).
    """
    x = kernel.plateau_height / params.pair_rate
    r3 = params.pair_rate**3
    return PlateauPrediction(
        X=x,
        g2si_plateau=1.0 + x,
        nssi_short=r3 * (1.0 + 2.0 * x),
        nssi_long=r3 * (1.0 + x),
        gbar2c_short=(1.0 + 2.0 * x) / (1.0 + x) ** 2,
    )


# ---------------------------------------------------------------------------
# Area-preserving samplers for model curves and surfaces.
# ---------------------------------------------------------------------------


def _delay_grid(kernel: ResponseKernel, delays) -> np.ndarray:
    """The kernel's sample grid over max |delay| + the kernel support + one
    step, from which the valid convolution still covers every delay
    (``delays`` a non-empty array or one delay)."""
    max_tau = float(np.max(np.abs(delays)))
    h = kernel.sample_step
    return symmetric_grid(np.ceil((max_tau + kernel.support_halfwidth + h) / h), h)


def _grid_index(grid: np.ndarray, x):
    """Index of the point of the ascending ``grid`` at ``x``, an int for a
    scalar and an int array for an array of queries; raises ``GridError``
    when a query is further than 1e-6 of the grid spacing from every point."""
    q = np.asarray(x, dtype=float)
    i = np.searchsorted(grid, q).clip(0, grid.size - 1)
    # the nearest point is the one at or after the query or the one before
    # it; a tie goes to the lower index
    before = (i - 1).clip(0)
    i = np.where(np.abs(grid[before] - q) <= np.abs(grid[i] - q), before, i)
    spacing = np.min(np.diff(grid)) if grid.size > 1 else 0.0
    off = ~(np.abs(grid[i] - q) <= 1e-6 * spacing)
    if np.any(off):
        raise GridError(f"{q[off][0]} is not a point of the grid "
                        f"[{grid[0]}, {grid[-1]}]")
    return int(i) if i.ndim == 0 else i


def _cell_average(cumulative, grid: np.ndarray, step: float) -> np.ndarray:
    return (cumulative(grid + step / 2) - cumulative(grid - step / 2)) / step


def _ccr_block(
    params: SourceParams, grid: np.ndarray, step: float, k: np.ndarray, rows: np.ndarray
) -> tuple[int, int, np.ndarray]:
    """Cell averages of the genuine triple term C(a) C(b) R(a-b) times its
    ``model.TRIPLE_TERMS`` coefficient (2 thermal, 0 Poisson), weighted by
    the kernel samples ``k`` along a onto the ascending output rows ``rows``.

    The term lives on |a|, |b| <= s, s the peak support, so only the cells
    touching that square form the block.  Each cell is clipped to the support
    and cut into m subcells, no wider than dt/400 up to m = 16; C is taken at
    their centres and R(a-b) is integrated exactly over each pair of subcells
    by mixed second differences of its second antiderivative, summed by parts
    over the steps of C at the (m + 1)^2 pairs of edges.  On the box, where C
    is constant on the support, every cell is exact.  Output row r, centred
    on grid index r + k.size // 2, reads block rows i = r .. r + k.size - 1
    with weight k[r + k.size - 1 - i], so only the block rows that some row
    of ``rows`` reads are built, and none for a zero coefficient
    (``k = np.ones(1)`` keeps the block itself); a zero weight adds nothing.
    Returns the position in ``rows`` of the first row within reach of the
    block, the index on ``grid`` of the first column and the weighted rows
    from there on to the last row within reach (the block zero outside it),
    built row by row.  Rows x cells x (m + 1)^2 past ``MAX_CONVOLVE_WORK``
    raise ``GuardError`` before any row is formed.
    """
    s = model.support(params)
    idx = np.nonzero(np.abs(grid) <= s + step)[0]
    reach = k.size - 1
    # block row idx[i] is read by the rows r with idx[i] - reach <= r <= idx[i]
    built = np.flatnonzero(np.searchsorted(rows, idx + 1)
                           > np.searchsorted(rows, idx - reach))
    m = int(np.clip(np.ceil(400 * min(step, 2 * s) / params.coherence_time), 1, 16))
    guard("central block work", built.size * idx.size * (m + 1) ** 2, MAX_CONVOLVE_WORK)
    lo, hi = np.split(np.clip(grid[idx, None] + [-step / 2, step / 2], -s, s), 2, 1)
    edges = lo + (hi - lo) * (np.arange(m + 1) / m)
    cross = model.cross_correlation(params, (edges[:, 1:] + edges[:, :-1]) / 2)
    # steps of C across the edges, C zero off the clipped cell and on an empty one
    steps = np.diff(cross * (hi > lo), prepend=0.0, append=0.0)
    central = model.TRIPLE_TERMS[params.statistics]["central"]
    w = k * (-central / step**2)
    lags = np.flatnonzero(w)  # one run: a kernel's support is one interval
    top, bottom = np.searchsorted(rows, [idx[0] - reach, idx[-1] + 1])
    out = np.zeros((bottom - top, idx.size))
    for i in built if lags.size else ():
        p1 = model.auto_antider2(params, edges[i, :, None, None] - edges, 1)
        # cells farther apart than s + step are exact zeros, not rounding residue
        row = np.einsum("p,pvq,vq->v", steps[i], p1, steps)
        row *= np.abs(grid[idx] - grid[idx[i]]) < s + step
        # the rows rows[r0 .. r1 - 1] read this row at non-zero weights w[r - d]
        d = idx[i] - reach
        r0, r1 = np.searchsorted(rows, [d + lags[0], d + lags[-1] + 1])
        out[r0 - top : r1 - top] += w[rows[r0:r1] - d, None] * row
    return int(top), int(idx[0]), out


# ---------------------------------------------------------------------------
# Window-averaged delay curves.
# ---------------------------------------------------------------------------


def smear_curves(
    params: SourceParams, kernel: ResponseKernel, delays
) -> tuple[CorrelationCurve, CorrelationCurve]:
    """Window-averaged g2_si and conditioned coherence gbar2_c at ``delays``.

    g2_si is s + (K * C^2)(tau) / R^2, s the kernel's discrete area, so
    every value beyond the peak's reach is s bit for bit.  gbar2_c is the
    t1 = 0 row of the smeared triple rate, built by the code that builds
    ``smear_surface``, over R^3 and that g2_si at 0 and at tau (from the same
    ridge); it runs from (1+2X)/(1+X)^2 at short delays to 1 beyond twice
    the window support.  ``delays`` may come in any number and order, each
    a point of the kernel's sample grid (``GridError`` otherwise, as for an
    empty set); no n^2 array is formed.
    """
    delays = delay_array(delays)
    m = kernel.half_len
    grid = _delay_grid(kernel, delays)
    i0 = (grid.size - 1) // 2 - m  # t1 = 0 on the output axis
    idx = _grid_index(grid[m : grid.size - m], delays)
    row, c2_sm = _smeared_rows(params, kernel, grid, slice(i0, i0 + 1), idx)
    g2 = kernel.samples.sum() * kernel.sample_step + c2_sm / params.pair_rate**2
    gbar = row[0] / params.pair_rate**3 / (g2[i0] * g2[idx])
    return CorrelationCurve(delays, g2[idx]), CorrelationCurve(delays, gbar)


def gbar2c_analytic(
    params: SourceParams, kernel: ResponseKernel, tau_grid
) -> CorrelationCurve:
    """Window-averaged conditioned coherence: the gbar2_c of
    ``smear_curves``."""
    return smear_curves(params, kernel, tau_grid)[1]
