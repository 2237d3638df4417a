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

#: mean pair number per coherence cell above which the low-gain model
#: becomes questionable
MU_WARN_THRESHOLD = 0.1


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
    """Pair source model: generation rate, coherence time and peak shape.

    ``pair_rate`` is the pair-generation rate R (the zero-delay value of the
    beam autocorrelation), ``coherence_time`` is the inverse bandwidth; their
    product ``mu = R * dt`` is the mean number of pairs per coherence cell
    and must stay well below one for the closed-form correlation model to
    apply.
    """

    pair_rate: float
    coherence_time: float
    shape: Shape = "box"

    def __post_init__(self) -> None:
        if not self.pair_rate > 0:
            raise ConfigError(f"pair_rate must be > 0, got {self.pair_rate}")
        if not self.coherence_time > 0:
            raise ConfigError(
                f"coherence_time must be > 0, got {self.coherence_time}"
            )
        if self.shape not in SHAPES:
            raise ConfigError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.mu >= MU_WARN_THRESHOLD:
            warnings.warn(
                f"mean pairs per coherence cell mu = {self.mu:.3g} >= "
                f"{MU_WARN_THRESHOLD}; low-gain model results are unreliable",
                ModelValidityWarning,
                stacklevel=2,
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
        if self.jitter_width < 0:
            raise ConfigError(
                f"jitter_width must be >= 0, got {self.jitter_width}"
            )


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
        if self.span < self.bin_width:
            raise ConfigError("span must be at least one bin_width")

    def delays(self):
        """Symmetric uniform delay grid covering [-span, span]."""
        n = int(round(self.span / self.bin_width))
        return np.arange(-n, n + 1) * self.bin_width


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
