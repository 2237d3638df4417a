"""Domain parameters, exceptions and unit conventions.

All times are seconds, all rates are events per second unless a name says
otherwise.  Event timestamps use integer femtosecond ticks (see
:data:`TICKS_PER_SECOND`), which resolve sub-picosecond coherence times;
a signed 64-bit tick covers runs shorter than 2**63 fs, about 9.2e3 s.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

TICKS_PER_SECOND = 10**15

Shape = Literal["box", "triangle"]
SHAPES = ("box", "triangle")

Statistics = Literal["thermal", "poisson"]
MODELS = ("thermal", "poisson")

#: mean pair number per coherence cell above which the low-gain model
#: becomes questionable
MU_WARN_THRESHOLD = 0.1

#: refuse to build a delay grid of more points than this (80 MB of float64)
MAX_GRID_POINTS = 10**7

#: refuse runs expected to hold more pairs than this; ``simulate`` peaks at
#: about 43 bytes per pair (856 MB at 2e7 pairs), so 4.3 GB at the limit
MAX_PAIRS = 10**8

#: pair rates R whose cube R^3, the triple-rate scale, is a normal float
MIN_PAIR_RATE, MAX_PAIR_RATE = 2.9e-103, 5.6e102

#: refuse to allocate smeared surfaces beyond this cell count
MAX_SURFACE_CELLS = 10**8

#: refuse a smearing convolution beyond this many multiply-adds
MAX_CONVOLVE_WORK = 10**10

#: refuse a count expected to bin more signal-idler differences than this;
#: a whole count bins 3.6e7 (1e-4 s span of 1 ns bins) to 6e7 (a 101-delay
#: grid) differences per second on a 2-core Xeon VM, so 3 to 5 minutes there
MAX_COUNT_DIFFERENCES = 10**10

#: refuse a counter bin table beyond this many bytes, four times the table
#: of a 1e-4 s span of 1 ns bins; a lookup took about 4 ns per difference
#: at a 4 kB table, 6 ns at 4.9 MB and 9 ns at 24 MB on the same VM
MAX_BIN_TABLE_BYTES = 10**8


class SpdcLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpdcLabError, ValueError):
    """Invalid parameter or scenario configuration (CLI exit code 2)."""


class GridError(SpdcLabError, ValueError):
    """Incompatible or under-resolved sampling grids."""


class GuardError(SpdcLabError, RuntimeError):
    """Numerical guard tripped, e.g. model regime or memory limits (CLI exit code 3)."""


class ModelValidityWarning(UserWarning):
    """Parameters are formally valid but outside the trusted low-gain regime."""


@dataclass(frozen=True)
class SourceParams:
    """Pair source model: rate, coherence time, peak shape and statistics.

    ``pair_rate`` is the pair-generation rate R (the zero-delay value of the
    beam autocorrelation), ``coherence_time`` is the inverse bandwidth; their
    product ``mu = R * dt`` is the mean number of pairs per coherence cell
    and must stay well below one for the closed-form correlation model to
    apply.  ``statistics`` (thermal or Poisson) picks the triple rate's
    terms in ``model`` and the event generator of ``simulate``.
    """

    pair_rate: float
    coherence_time: float
    shape: Shape = "box"
    statistics: Statistics = "thermal"

    def __post_init__(self) -> None:
        if not MIN_PAIR_RATE <= self.pair_rate <= MAX_PAIR_RATE:
            raise ConfigError(f"pair_rate {self.pair_rate} outside [{MIN_PAIR_RATE:g}, "
                              f"{MAX_PAIR_RATE:g}], where R^3 is a normal float")
        if not self.coherence_time > 0:
            raise ConfigError(f"coherence_time must be > 0, got {self.coherence_time}")
        if self.shape not in SHAPES:
            raise ConfigError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.statistics not in MODELS:
            raise ConfigError(f"statistics (run.model) must be one of {MODELS}, "
                              f"got {self.statistics!r}")
        if self.mu >= MU_WARN_THRESHOLD:
            warnings.warn(
                f"mean pairs per coherence cell mu = {self.mu:.3g} >= "
                f"{MU_WARN_THRESHOLD}; low-gain model results are unreliable",
                ModelValidityWarning,
                stacklevel=3,
            )

    @property
    def mu(self) -> float:
        """Mean pairs per coherence cell, R * dt."""
        return self.pair_rate * self.coherence_time


@dataclass(frozen=True)
class DetectorChain:
    """Detection geometry: heralding idler detector plus a split signal arm.

    The signal beam is divided by a splitter onto two detectors (signal1,
    signal2) so that signal-signal coincidences can be recorded without
    detector dead-time artifacts.  ``jitter_width`` is the full width of the
    per-detector uniform timing error.
    """

    idler_efficiency: float = 1.0
    signal_efficiency: float = 1.0
    splitter_ratio: float = 0.5
    jitter_width: float = 0.0

    def __post_init__(self) -> None:
        for name in ("idler_efficiency", "signal_efficiency", "splitter_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if not self.jitter_width >= 0:
            raise ConfigError(f"jitter_width must be >= 0, got {self.jitter_width}")


@dataclass(frozen=True)
class AnalysisWindow:
    """Coincidence analysis settings: window half-width and delay grid."""

    coincidence_halfwidth: float
    bin_width: float
    span: float

    def __post_init__(self) -> None:
        if not self.coincidence_halfwidth > 0:
            raise ConfigError("coincidence_halfwidth must be > 0")
        if not self.bin_width > 0:
            raise ConfigError("bin_width must be > 0")
        if not self.span >= self.bin_width:
            raise ConfigError(f"span must be at least one bin_width, got {self.span}")

    def delays(self):
        """Symmetric uniform delay grid covering [-span, span]."""
        return symmetric_grid(np.rint(self.span / self.bin_width), self.bin_width)


def guard(what: str, amount: float, limit: float) -> None:
    """The check of every resource budget, made before the resource is spent:
    ``GuardError`` unless ``amount <= limit``, which a NaN amount fails."""
    if not amount <= limit:
        raise GuardError(f"{what} would be {amount:.3g}, guard is {limit:.3g}")


def delay_array(delays) -> np.ndarray:
    """``delays`` as floats; ``GridError`` for an empty delay set."""
    if np.size(delays) == 0:
        raise GridError("the delay grid holds no delay")
    return np.asarray(delays, dtype=float)


def symmetric_grid(n: float, step: float) -> np.ndarray:
    """The grid ``arange(-n, n + 1) * step`` of a whole number ``n``.

    ``n`` may be the float that ``ceil`` or ``rint`` of a span ratio gives,
    infinite included: a grid of more than ``MAX_GRID_POINTS`` points raises
    ``GuardError`` before anything is allocated.
    """
    guard("delay grid points", 2 * n + 1, MAX_GRID_POINTS)
    n = int(n)
    return np.arange(-n, n + 1) * step


def seconds_to_ticks(t):
    """Round seconds to integer femtosecond ticks: an ``int`` for a scalar,
    an int64 array for an array (halves round to even in both)."""
    if np.ndim(t):
        return np.rint(np.asarray(t, dtype=float) * TICKS_PER_SECOND).astype(np.int64)
    return int(round(t * TICKS_PER_SECOND))


def duration_to_ticks(duration: float) -> int:
    """Ticks of a run duration; ``ConfigError`` unless they fit an int64."""
    # a float below 2**63 rounds to at most 2**63 - 1024, so it fits
    if not 0 <= duration * TICKS_PER_SECOND < 2.0**63:
        raise ConfigError(
            f"run duration must lie in [0, {2**63 / TICKS_PER_SECOND:.6g}) s "
            f"so its femtosecond ticks fit an int64, got {duration!r}"
        )
    return seconds_to_ticks(duration)
