"""Detector-response smearing: trapezoid window kernels and convolutions.

A software coincidence window of half-width tau_c combined with detector
timing jitter tau_d acts on ideal correlation functions as a moving average.
The combined response is modeled as the unit-area trapezoid obtained by
convolving two normalized boxes of full widths 2*tau_c and 2*tau_d: flat at

    p = 1 / (2 * max(tau_c, tau_d))

over |tau| < |tau_c - tau_d|, with linear transitions reaching zero at
|tau| = tau_c + tau_d.  The excess of the smeared signal-idler coherence
plateau is X = p / R, i.e. X = 1/(2 R tau_c) whenever tau_c > tau_d.

Sampling is area-preserving everywhere: kernels and model curves are stored
as cell averages (differences of exact antiderivatives), so discrete
convolution conserves peak integrals exactly even when a correlation peak is
much narrower than the grid step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .curves import (
    UNIT_DIMENSIONLESS,
    UNIT_PER_S,
    UNIT_PER_S3,
    CorrelationCurve,
    CorrelationSurface,
    _grid_index,
)
from .params import GridError, GuardError, SourceParams

__all__ = [
    "ResponseKernel",
    "PlateauPrediction",
    "build_kernel",
    "smear_curve",
    "smear_surface",
    "predict_plateaus",
    "gbar2c_analytic",
    "sample_g2_si",
    "sample_p_ssi",
]

#: refuse to allocate smeared surfaces beyond this cell count
MAX_SURFACE_CELLS = 10**8

_STEP_TOL = 1e-9

#: rows of the triple surface sampled per block in ``sample_p_ssi``
_SURFACE_ROW_BLOCK = 64


@dataclass(frozen=True)
class ResponseKernel:
    """Sampled unit-area response of window half-width tau_c and jitter tau_d."""

    coincidence_halfwidth: float
    jitter: float
    grid_step: float
    samples: np.ndarray
    plateau_height: float

    @property
    def support_halfwidth(self) -> float:
        return self.coincidence_halfwidth + self.jitter

    @property
    def half_len(self) -> int:
        return (self.samples.size - 1) // 2

    def delays(self) -> np.ndarray:
        n = self.half_len
        return np.arange(-n, n + 1) * self.grid_step

    def value(self, tau):
        """Analytic (un-sampled) trapezoid value at ``tau``."""
        tau = np.asarray(tau, dtype=float)
        a = max(self.coincidence_halfwidth, self.jitter)
        b = min(self.coincidence_halfwidth, self.jitter)
        u = np.abs(tau)
        flat = 1.0 / (2.0 * a)
        if b == 0.0:
            out = np.where(u <= a, flat, 0.0)
        else:
            ramp = (a + b - u) / (4.0 * a * b)
            out = np.where(u <= a - b, flat, np.where(u <= a + b, ramp, 0.0))
        return out if out.ndim else float(out)

    def cumulative(self, tau):
        """Analytic integral of the trapezoid from -inf to ``tau``."""
        tau = np.asarray(tau, dtype=float)
        a = max(self.coincidence_halfwidth, self.jitter)
        b = min(self.coincidence_halfwidth, self.jitter)
        u = np.abs(tau)
        if b == 0.0:
            upper = np.clip(0.5 + u / (2 * a), 0.5, 1.0)
        else:
            flat = 0.5 + u / (2 * a)
            ramp = 1.0 - np.square(a + b - u) / (8 * a * b)
            upper = np.where(u <= a - b, flat, np.where(u <= a + b, ramp, 1.0))
        out = np.where(tau >= 0, upper, 1.0 - upper)
        return out if out.ndim else float(out)


def build_kernel(tau_c: float, tau_d: float, grid_step: float) -> ResponseKernel:
    """Sample the response trapezoid on a symmetric grid of ``grid_step``.

    The grid must resolve the transition regions: ``grid_step`` may not
    exceed a twentieth of the smaller time scale (of tau_c when tau_d = 0).
    Samples are cell averages and are renormalized to unit discrete area,
    so convolving a constant curve reproduces it exactly.
    """
    if not tau_c > 0:
        raise GridError("coincidence half-width must be > 0")
    if tau_d < 0:
        raise GridError("jitter must be >= 0")
    scale = min(tau_c, tau_d) if tau_d > 0 else tau_c
    if grid_step > scale / 20 * (1 + _STEP_TOL):
        raise GridError(
            f"grid_step {grid_step:g} too coarse for response scales "
            f"(need <= {scale / 20:g})"
        )
    a = max(tau_c, tau_d)
    b = min(tau_c, tau_d)
    n = int(np.ceil((a + b) / grid_step + 0.5))
    grid = np.arange(-n, n + 1) * grid_step
    kernel = ResponseKernel(
        coincidence_halfwidth=tau_c,
        jitter=tau_d,
        grid_step=grid_step,
        samples=np.empty(0),
        plateau_height=1.0 / (2.0 * a),
    )
    cdf = kernel.cumulative(grid + grid_step / 2) - kernel.cumulative(
        grid - grid_step / 2
    )
    samples = cdf / grid_step
    samples /= samples.sum() * grid_step
    object.__setattr__(kernel, "samples", samples)
    return kernel


def _check_step(step: float, kernel: ResponseKernel) -> None:
    if abs(step - kernel.grid_step) > _STEP_TOL * kernel.grid_step:
        raise GridError(
            f"grid step {step:g} differs from the kernel grid {kernel.grid_step:g}"
        )


def smear_curve(curve: CorrelationCurve, kernel: ResponseKernel) -> CorrelationCurve:
    """Discrete convolution of a sampled curve with the response kernel.

    The curve must share the kernel's grid step (``GridError`` otherwise).
    Returns the valid central region only: the output grid is the input grid
    trimmed by the kernel half-support on each side, so the input span must
    exceed twice the kernel support.
    """
    _check_step(curve.step, kernel)
    k = kernel.samples
    if curve.values.size <= k.size:
        raise GridError("curve span must exceed the kernel support")
    values = np.convolve(curve.values, k, mode="valid") * curve.step
    m = kernel.half_len
    return CorrelationCurve(curve.delays[m : curve.delays.size - m], values, curve.unit)


def smear_surface(
    surface: CorrelationSurface, kernel: ResponseKernel
) -> CorrelationSurface:
    """Separable two-pass smearing of a surface with the same 1D kernel.

    Models the square two-dimensional averaging window (area (2 tau_c)^2
    with transition regions 2 tau_d) acting on the triple-coincidence rate.
    """
    _check_step(surface.step, kernel)
    k = kernel.samples
    m = kernel.half_len
    n1, n2 = surface.values.shape
    if min(n1, n2) <= k.size:
        raise GridError("surface span must exceed the kernel support")
    if surface.values.size > MAX_SURFACE_CELLS:
        raise GuardError(
            f"surface has {surface.values.size} cells, guard is {MAX_SURFACE_CELLS}"
        )
    step = surface.step
    out0 = np.empty((n1 - 2 * m, n2))
    for j in range(n2):
        out0[:, j] = np.convolve(surface.values[:, j], k, mode="valid")
    out = np.empty((n1 - 2 * m, n2 - 2 * m))
    for i in range(out0.shape[0]):
        out[i, :] = np.convolve(out0[i, :], k, mode="valid")
    out *= step * step
    return CorrelationSurface(
        surface.t1[m : n1 - m], surface.t2[m : n2 - m], out, surface.unit
    )


@dataclass(frozen=True)
class PlateauPrediction:
    """Closed-form window-averaged levels implied by X = p / R."""

    X: float
    g2si_plateau: float
    nssi_short: float
    nssi_long: float
    gbar2c_short: float


def predict_plateaus(params: SourceParams, kernel: ResponseKernel) -> PlateauPrediction:
    """Predict the smeared plateau levels from the kernel height alone.

    X = p/R gives: smeared g2_si plateau 1 + X; triple rate R^3 (1 + 2X) at
    short delays (both averaging ridges contribute) and R^3 (1 + X) at long
    delays (one ridge); conditioned estimate (1 + 2X) / (1 + X)^2 at short
    delays.
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


def _symmetric_grid(grid_step: float, half_span: float) -> np.ndarray:
    if grid_step <= 0:
        raise GridError("grid_step must be > 0")
    n = int(np.ceil(half_span / grid_step))
    if n < 1:
        raise GridError("half_span must cover at least one grid step")
    return np.arange(-n, n + 1) * grid_step


def _cell_average(cumulative, grid: np.ndarray, step: float) -> np.ndarray:
    return (cumulative(grid + step / 2) - cumulative(grid - step / 2)) / step


def sample_g2_si(
    params: SourceParams, grid_step: float, half_span: float
) -> CorrelationCurve:
    """Sample g2_si on a symmetric grid, conserving its excess integral.

    Cell averaging keeps the integral of (g2_si - 1) at exactly 1/R on any
    grid; a peak narrower than one cell collapses to a single-cell impulse
    of the same weight, which is all a much wider response window can see.
    """
    grid = _symmetric_grid(grid_step, half_span)
    excess = _cell_average(
        lambda t: model.cross_sq_cumulative(params, t), grid, grid_step
    )
    values = 1.0 + excess / params.pair_rate**2
    return CorrelationCurve(grid, values, UNIT_DIMENSIONLESS)


def _ccr_cell_averages(
    params: SourceParams, grid: np.ndarray, step: float
) -> np.ndarray:
    """Cell averages of the genuine triple term 2 C(a) C(b) R(a-b).

    The term lives on the tiny square |a|, |b| <= dt around the origin, so
    only the few cells touching it are subsampled; everything else is zero.
    """
    dt = params.coherence_time
    support = dt if params.shape == "triangle" else dt / 2
    m = max(8, int(np.ceil(16 * step / dt)))
    offs = ((np.arange(m) + 0.5) / m - 0.5) * step
    out = np.zeros((grid.size, grid.size))
    idx = np.nonzero(np.abs(grid) <= support + step)[0]
    cross = [model.cross_correlation(params, grid[i] + offs) for i in idx]
    for i, ca in zip(idx, cross):
        if not np.any(ca):
            continue
        for j, cb in zip(idx, cross):
            r12 = model.auto_correlation(
                params, (grid[i] + offs)[:, None] - (grid[j] + offs)[None, :]
            )
            out[i, j] = 2.0 * np.mean(ca[:, None] * cb[None, :] * r12)
    return out


def sample_p_ssi(
    params: SourceParams, grid_step: float, half_span: float
) -> CorrelationSurface:
    """Sample the triple-coincidence rate P(t1-ti, t2-ti) on a square grid.

    The two signal-idler ridges and the diagonal signal-signal ridge are
    stored as exact cell averages (so their integrals survive coarse grids);
    the narrow central product term is subsampled.
    """
    grid = _symmetric_grid(grid_step, half_span)
    if grid.size * grid.size > MAX_SURFACE_CELLS:
        raise GuardError(
            f"requested surface would have {grid.size**2} cells, "
            f"guard is {MAX_SURFACE_CELLS}"
        )
    r = params.pair_rate
    c2 = _cell_average(
        lambda t: model.cross_sq_cumulative(params, t), grid, grid_step
    )
    q2 = lambda t: model.auto_sq_antider2(params, t)  # noqa: E731
    values = _ccr_cell_averages(params, grid, grid_step)
    # a block of rows at a time keeps the temporaries cache-sized; each cell
    # goes through the same operations in the same order as a full matrix
    for start in range(0, grid.size, _SURFACE_ROW_BLOCK):
        rows = slice(start, start + _SURFACE_ROW_BLOCK)
        diff = grid[rows, None] - grid[None, :]
        auto_sq_cells = (
            q2(diff + grid_step) - 2.0 * q2(diff) + q2(diff - grid_step)
        ) / grid_step**2
        values[rows] = (
            r**3
            + r * (c2[rows, None] + c2[None, :])
            + r * auto_sq_cells
            + values[rows]
        )
    return CorrelationSurface(grid, grid, values, UNIT_PER_S3)


# ---------------------------------------------------------------------------
# Analytic window-averaged conditioned coherence.
# ---------------------------------------------------------------------------


def gbar2c_analytic(
    params: SourceParams, kernel: ResponseKernel, tau_grid
) -> CorrelationCurve:
    """Window-averaged conditioned coherence built from 1D convolutions.

    The smeared triple rate along the measured slice decomposes into the two
    signal-idler ridge responses (the smeared g2_si excess at 0 and at tau),
    the diagonal signal-signal ridge convolved with the kernel
    autocorrelation, and the small subsampled central term.  Dividing by the
    smeared g2_si factors per the ratio estimator gives the full curve,
    which runs from (1+2X)/(1+X)^2 at short delays to 1 beyond twice the
    window support.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    h = kernel.grid_step
    k = kernel.samples
    r = params.pair_rate
    dt = params.coherence_time
    max_tau = float(np.max(np.abs(tau_grid))) if tau_grid.size else 0.0
    half_span = max_tau + 2 * kernel.support_halfwidth + 2 * dt + 4 * h
    grid = _symmetric_grid(h, half_span)
    half_len = (grid.size - 1) // 2

    # smeared g2_si excess e(tau) on the internal grid
    excess = _cell_average(
        lambda t: model.cross_sq_cumulative(params, t), grid, h
    ) / r**2
    e = np.convolve(excess, k, mode="same") * h

    # diagonal ridge: cell weights of (R(u)/R)^2 convolved with the kernel
    # autocorrelation density
    w_diag = (
        model.auto_sq_cumulative(params, grid + h / 2)
        - model.auto_sq_cumulative(params, grid - h / 2)
    ) / r**2
    rho = np.convolve(k, k) * h
    d = np.convolve(w_diag, rho, mode="same")

    # central term: fine inner integral against the analytic kernel, then
    # cell weights convolved with the kernel
    fine = _symmetric_grid(dt / 256, dt + h)
    fstep = dt / 256
    c_fine = model.cross_correlation(params, fine)
    a_fine = model.auto_correlation(params, fine)
    inner = np.convolve(c_fine * kernel.value(fine), a_fine, mode="same") * fstep
    m_fine = c_fine * inner * (2.0 / r**3)
    cells = np.rint(fine / h).astype(int) + half_len
    w_cc = np.zeros(grid.size)
    np.add.at(w_cc, cells, m_fine * fstep)
    c_term = np.convolve(w_cc, k, mode="same")

    e0 = e[half_len]
    idx = _grid_index(grid, tau_grid)
    numerator = 1.0 + e0 + e[idx] + d[idx] + c_term[idx]
    values = numerator / ((1.0 + e0) * (1.0 + e[idx]))
    return CorrelationCurve(tau_grid, values, UNIT_DIMENSIONLESS)
