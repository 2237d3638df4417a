"""Stochastic pair generation and detection-chain simulation.

The source is modeled as a coherence-cell point process: the time axis is
divided into cells of one coherence time, each cell emits a number of
signal/idler pairs drawn from the chosen counting statistics, and every
pair gets one uniform emission time inside its cell (signal and idler
share it; detector jitter separates them later).

Thermal (Bose-Einstein) cell counts reproduce bunched one-arm statistics,
Poisson counts give the unbunched reference.  A classical field sampler
cannot serve here because the heralding peak C(0)^2/R^2 = 1/(R dt) is far
above the classical bound; the cell process reproduces every
window-integrated observable of the closed-form model to leading order in
mu = R dt.

Generation is deterministic in (params, duration, seed): each random
decision draws from its own counter-derived substream, so switching one
channel on or off never perturbs the others.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import (
    MAX_PAIRS,
    TICKS_PER_SECOND,
    DetectorChain,
    GuardError,
    SourceParams,
    duration_to_ticks,
    guard,
    seconds_to_ticks,
)

__all__ = [
    "PairList",
    "EventStream",
    "CHANNELS",
    "gen_thermal_cells",
    "gen_poisson_pairs",
    "apply_detector_chain",
]

CHANNELS = ("idler", "signal1", "signal2")

# fixed substream indices; order is part of the reproducibility contract
_SUB_PAIRGEN = 0
_SUB_IDLER_KEEP = 1
_SUB_SIGNAL_KEEP = 2
_SUB_ROUTE = 3
# channel k of CHANNELS jitters from substream _SUB_JITTER + k
_SUB_JITTER = 4


def _substream(seed: int, index: int) -> np.random.Generator:
    """The generator of child ``index`` of ``SeedSequence(seed).spawn``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@dataclass(frozen=True)
class PairList:
    """Sorted emission times of signal/idler pairs in seconds."""

    times: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if np.any(self.times[1:] < self.times[:-1]):
            raise ValueError("pair times must be sorted")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class EventStream:
    """Strictly sorted integer-tick timestamps of one detector channel.

    ``timestamps`` is a read-only array that owns its memory (any other
    input is copied), so no caller can write into it and the order checked
    here holds for every consumer.  ``duration`` lies in [0, 2**63) ticks.
    """

    channel: str
    timestamps: np.ndarray
    duration: int

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if not 0 <= self.duration < 2**63:
            raise ValueError(f"duration must lie within [0, 2**63) ticks, "
                             f"got {self.duration}")
        ts = np.asarray(self.timestamps, dtype=np.int64)
        if ts.flags.writeable or not ts.flags.owndata:
            ts = ts.copy()
            ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        if ts.size:
            if np.any(ts[1:] <= ts[:-1]):
                raise ValueError("timestamps must be strictly increasing")
            if ts[0] < 0 or ts[-1] > self.duration:
                raise ValueError("timestamps must lie within [0, duration]")

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def duration_s(self) -> float:
        return self.duration / TICKS_PER_SECOND


def _pairs_from_cell_draws(
    occupied: np.ndarray, counts: np.ndarray, dt: float, duration: float,
    rng: np.random.Generator,
) -> PairList:
    cells = np.repeat(occupied, counts)
    times = (cells + rng.random(cells.size)) * dt
    return PairList(np.sort(times[times < duration]), duration)


def gen_thermal_cells(
    params: SourceParams, duration: float, seed: int
) -> PairList:
    """Draw pair emissions with Bose-Einstein cell statistics.

    Per cell the pair number n follows P(n) = mu^n / (1+mu)^(n+1) with
    mu = R dt, giving super-Poissonian variance mu (1 + mu).  Occupied
    cells are located by geometric gap sampling so that runtime scales with
    the number of pairs, not the number of cells.
    """
    mu = params.mu
    if mu >= 1.0:
        raise GuardError(
            f"thermal cell model requires mu = R*dt < 1, got {mu:.3g}"
        )
    if duration < 0:
        raise ValueError("duration must be >= 0")
    guard("mean pairs of the run", params.pair_rate * duration, MAX_PAIRS)
    dt = params.coherence_time
    n_cells = int(np.ceil(duration / dt))
    rng = _substream(seed, _SUB_PAIRGEN)
    if n_cells == 0:
        return PairList(np.empty(0), duration)
    p_occupied = mu / (1.0 + mu)
    # occupied-cell indices via cumulative geometric gaps
    chunks: list[np.ndarray] = []
    position = -1
    while position < n_cells - 1:
        remaining = n_cells - 1 - position
        expect = max(64, int(remaining * p_occupied * 1.2) + 16)
        gaps = rng.geometric(p_occupied, size=expect)
        idx = position + np.cumsum(gaps)
        chunks.append(idx)
        position = int(idx[-1])
    occupied = np.concatenate(chunks)
    occupied = occupied[occupied < n_cells]
    # cell counts conditioned on occupancy are geometric with p = 1/(1+mu)
    counts = rng.geometric(1.0 / (1.0 + mu), size=occupied.size)
    return _pairs_from_cell_draws(occupied, counts, dt, duration, rng)


def gen_poisson_pairs(
    params: SourceParams, duration: float, seed: int
) -> PairList:
    """Draw pair emissions with Poisson cell statistics.

    Poisson counts per cell with uniform times inside each cell are exactly
    a homogeneous Poisson process of rate R, so the total count is drawn
    once and times are placed uniformly.  This is the unbunched null model
    against which thermal cell statistics are contrasted.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    guard("mean pairs of the run", params.pair_rate * duration, MAX_PAIRS)
    rng = _substream(seed, _SUB_PAIRGEN)
    if duration == 0:
        return PairList(np.empty(0), duration)
    total = rng.poisson(params.pair_rate * duration)
    return PairList(np.sort(rng.random(total) * duration), duration)


def _to_stream(
    channel: str,
    times: np.ndarray,
    jitter_width: float,
    duration: float,
    rng: np.random.Generator,
) -> EventStream:
    dur_ticks = duration_to_ticks(duration)
    if jitter_width > 0 and times.size:
        times = times + rng.uniform(-jitter_width / 2, jitter_width / 2, times.size)
    # clipping in seconds rounds to the same ticks as clipping the ticks, and
    # keeps jitter past the run end from overflowing the int64 conversion
    ticks = seconds_to_ticks(np.clip(times, 0.0, duration))
    # same-tick events merge into one: np.unique by sort + adjacent mask,
    # which avoids np.unique's much slower hash path for integers; the ticks
    # are sorted but within one jitter width, and the stable sort (timsort
    # for int64) runs on such input several times faster than the default
    # introsort, with the same output for integers
    ticks = np.sort(ticks, kind="stable")
    first = np.ones(ticks.size, dtype=bool)
    first[1:] = ticks[1:] != ticks[:-1]
    ticks = ticks[first]
    # the stream takes this fresh array over instead of copying it
    ticks.flags.writeable = False
    return EventStream(channel, ticks, dur_ticks)


def apply_detector_chain(
    pairs: PairList, chain: DetectorChain, seed: int
) -> tuple[EventStream, EventStream, EventStream]:
    """Thin, route and jitter pair emissions into three detector streams.

    Idler photons survive with the idler efficiency; signal photons survive
    with the signal efficiency and are routed to signal1 with the splitter
    ratio, otherwise to signal2.  Every kept event is displaced by an
    independent uniform jitter of the chain's full width, quantized to
    femtosecond ticks, clamped to the run interval and deduplicated.
    """
    n = len(pairs)
    keep_i = _substream(seed, _SUB_IDLER_KEEP).random(n) < chain.idler_efficiency
    keep_s = _substream(seed, _SUB_SIGNAL_KEEP).random(n) < chain.signal_efficiency
    to_s1 = _substream(seed, _SUB_ROUTE).random(n) < chain.splitter_ratio
    # a signal mask is formed only when its channel is built: forming both up
    # front raised the simulate child's peak RSS by ~5 MB at 1 M pairs
    masks = (lambda: keep_i, lambda: keep_s & to_s1, lambda: keep_s & ~to_s1)
    return tuple(
        _to_stream(channel, pairs.times[mask()], chain.jitter_width,
                   pairs.duration, _substream(seed, _SUB_JITTER + k))
        for k, (channel, mask) in enumerate(zip(CHANNELS, masks))
    )
