"""Unit-tagged containers for sampled curves, surfaces and count histograms."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import GridError

#: unit tags used on sampled data; rates are 1/s, amplitudes 1/s,
#: triple rates 1/s^3
UNIT_DIMENSIONLESS = "dimensionless"
UNIT_PER_S = "per_s"
UNIT_PER_S3 = "per_s3"

_REL_STEP_TOL = 1e-9


def _check_uniform(delays: np.ndarray) -> float:
    if delays.ndim != 1 or delays.size < 2:
        raise GridError("grid needs at least two points")
    steps = np.diff(delays)
    if np.any(steps <= 0):
        raise GridError("grid must be strictly increasing")
    step = float(steps[0])
    if np.any(np.abs(steps - step) > _REL_STEP_TOL * max(step, 1e-300)):
        raise GridError("grid must be uniform")
    return step


def _grid_index(grid: np.ndarray, x):
    """Index of the point of ``grid`` at ``x``, an int for a scalar and an
    int array for an array of queries; raises ``GridError`` when a query is
    further than 1e-6 of the grid spacing from every point."""
    q = np.asarray(x, dtype=float)
    order = np.argsort(grid, kind="stable")
    ascending = grid[order]
    i = np.searchsorted(ascending, q).clip(0, grid.size - 1)
    # the nearest point is the one at or after the query or the one before
    # it; a tie goes to the lower index
    before = (i - 1).clip(0)
    i = np.where(np.abs(ascending[before] - q) <= np.abs(ascending[i] - q),
                 before, i)
    spacing = np.min(np.diff(ascending)) if grid.size > 1 else 0.0
    off = ~(np.abs(ascending[i] - q) <= 1e-6 * spacing)
    if np.any(off):
        raise GridError(f"{q[off][0]} is not a point of the grid "
                        f"[{grid[0]}, {grid[-1]}]")
    i = order[i]
    return int(i) if i.ndim == 0 else i


@dataclass
class CorrelationCurve:
    """A sampled one-dimensional delay curve on a uniform grid."""

    delays: np.ndarray
    values: np.ndarray
    unit: str = UNIT_DIMENSIONLESS

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.delays.shape:
            raise GridError("values and delays must have matching shapes")
        _check_uniform(self.delays)
        if not np.all(np.isfinite(self.values)):
            raise GridError("curve values must be finite")

    @property
    def step(self) -> float:
        return float(self.delays[1] - self.delays[0])

    def value_at(self, delay: float) -> float:
        """Value at a grid point; raises if ``delay`` is off-grid."""
        return float(self.values[_grid_index(self.delays, delay)])


@dataclass
class CorrelationSurface:
    """A sampled two-dimensional correlation surface on a square uniform grid.

    Axes are the two detection delays relative to the conditioning event.
    """

    t1: np.ndarray
    t2: np.ndarray
    values: np.ndarray
    unit: str = UNIT_PER_S3

    def __post_init__(self) -> None:
        self.t1 = np.asarray(self.t1, dtype=float)
        self.t2 = np.asarray(self.t2, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        s1 = _check_uniform(self.t1)
        s2 = _check_uniform(self.t2)
        if abs(s1 - s2) > _REL_STEP_TOL * s1:
            raise GridError("surface axes must share one grid step")
        if self.values.shape != (self.t1.size, self.t2.size):
            raise GridError("values shape must be (len(t1), len(t2))")

    @property
    def step(self) -> float:
        return float(self.t1[1] - self.t1[0])

    def value_at(self, a: float, b: float) -> float:
        """Value at a grid point; raises if ``(a, b)`` is off-grid."""
        return float(self.values[_grid_index(self.t1, a), _grid_index(self.t2, b)])


@dataclass
class Histogram:
    """Raw coincidence counts per delay bin plus the metadata to rate them."""

    delays: np.ndarray
    counts: np.ndarray
    duration: float
    coincidence_halfwidth: float

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != self.delays.shape:
            raise GridError("counts and delays must have matching shapes")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def rates(self) -> np.ndarray:
        """Counts per second of observation time."""
        return self.counts / self.duration


@dataclass
class EstimatorCurve:
    """Normalized correlation estimate with Poisson-propagated errors."""

    delays: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    unit: str = UNIT_DIMENSIONLESS

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not (self.values.shape == self.delays.shape == self.stderr.shape):
            raise GridError("delays, values and stderr must have equal shapes")

    def value_at(self, delay: float) -> float:
        """Value at a grid point; raises if ``delay`` is off-grid."""
        return float(self.values[_grid_index(self.delays, delay)])

    def stderr_at(self, delay: float) -> float:
        """Standard error at a grid point; raises if ``delay`` is off-grid."""
        return float(self.stderr[_grid_index(self.delays, delay)])
