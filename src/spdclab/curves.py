"""Containers for sampled curves, surfaces and count histograms: each holds
its arrays and checks them on construction; none looks a delay up."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import GridError


@dataclass
class CorrelationCurve:
    """A sampled one-dimensional delay curve: ``values[i]`` at ``delays[i]``,
    the delays in any number and order."""

    delays: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.delays.shape:
            raise GridError("values and delays must have matching shapes")
        if not np.all(np.isfinite(self.values)):
            raise GridError("curve values must be finite")


@dataclass
class CorrelationSurface:
    """A sampled two-dimensional correlation surface on a square grid.

    Both detection delays t1 and t2, relative to the conditioning event, run
    over the one ``axis``; ``values[i, j]`` is the surface at
    (``axis[i]``, ``axis[j]``).
    """

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.axis = np.asarray(self.axis, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.axis.size,) * 2:
            raise GridError("values shape must be (len(axis), len(axis))")


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
        if not self.duration > 0:
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

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not (self.values.shape == self.delays.shape == self.stderr.shape):
            raise GridError("delays, values and stderr must have equal shapes")
