"""Coincidence counting on sorted timestamp streams and ratio estimators.

Counting conventions:

* a pair (t_a, t_b) falls in the delay-tau window when
  |t_a - t_b - tau| <= tau_c in integer ticks; the window measure is
  2 tau_c and exact boundary ticks count as inside.
* every partner inside a window is counted, not just the first, which is
  what makes windowed counts proportional to correlation-function
  integrals.
* a triple (t_i, t_s1, t_s2) counts at delay tau when
  |t_s1 - t_i| <= tau_c and |t_s2 - t_i - tau| <= tau_c.

Every counter runs one edge-binned kernel (the arbitrary-bin method of
Laurence et al., Opt. Lett. 31, 829 (2006)): per chunk of reference events
a merge of the chunk's window limits into the partner stream (one stable
sort of two sorted runs) finds every difference that can land in a window,
and each difference is binned between the sorted, distinct window edges (at
most 2 x n_delays); a window count is a difference of cumulative bin
totals.  A difference finds its bin by table lookup, not binary search: the
edge range is cut into power-of-two cells, about 16-32 per edge, a table
gives the last edge at or below each cell start, and a few compare-and-step
rounds pass the edges inside the cell.  The kernel takes one weight row per
output histogram and bins each difference once for all of them, and it can
count, per partner event, the differences that fall in one extra window.

``coincidence_histograms`` makes the two passes that ``count`` needs.  The
signal1-idler pass also yields each idler's signal1 gate occupancy from the
differences it forms; the idler-signal2 pass then counts the signal2-idler
pairs (unit weight) and the triples (the idler's gate occupancy) at once.
``triple_histogram`` is the triple part of that call.  Memory is set by the
chunk, not by the run.  Counting a stream in consecutive chunks gives
bit-identical results, which is the sharding contract for parallel or
out-of-core operation.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curves import Histogram, EstimatorCurve
from .events import EventStream
from .params import seconds_to_ticks

__all__ = [
    "RateEstimate",
    "singles_rate",
    "pair_histogram",
    "triple_histogram",
    "coincidence_histograms",
    "estimate_g2bar_si",
    "estimate_gbar2_c",
]


#: reference events per counting chunk
CHUNK_SIZE = 1 << 16


class RateEstimate(NamedTuple):
    value: float
    stderr: float


def singles_rate(stream: EventStream) -> RateEstimate:
    """Singles rate of one channel with its Poisson standard error."""
    if stream.duration <= 0:
        raise ValueError("stream duration must be positive")
    t = stream.duration_s
    n = len(stream)
    return RateEstimate(n / t, np.sqrt(n) / t)


def _ragged_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate arange(start, stop) for every pair, vectorized."""
    lens = stops - starts
    keep = lens > 0
    starts, lens = starts[keep], lens[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lens)
    steps = np.ones(int(ends[-1]), dtype=np.int64)
    steps[0] = starts[0]
    steps[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(steps)


def _window_bounds(delays: np.ndarray, tauc: float) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive lower and exclusive upper tick bounds of every centred window."""
    grid, tc = seconds_to_ticks(delays), seconds_to_ticks(tauc)
    return grid - tc, grid + tc + 1


def _edge_binner(edges: np.ndarray):
    """Return ``bins(d)``, the last index b with ``edges[b] <= d`` for every d
    in ``[edges[0], edges[-1]]``: ``np.searchsorted(edges, d, "right") - 1``
    by table lookup.

    The range is cut into cells of 2**shift ticks, about 16-32 per edge;
    ``table[c]`` is the last edge at or below the start of cell c.  A
    difference looks its cell up and then steps past the edges inside the
    cell that lie at or below it, at most ``extra`` of them.  Repeated edges
    need no care: each step compares with the following edge.
    """
    lo, hi = int(edges[0]), int(edges[-1])
    # floor(log2((hi - lo) / (16 m))) in exact integer arithmetic
    shift = max(0, ((hi - lo) // (16 * edges.size)).bit_length() - 1)
    starts = lo + (np.arange(((hi - lo) >> shift) + 1, dtype=np.int64) << shift)
    table = np.searchsorted(edges, starts, side="right") - 1
    last = np.searchsorted(edges, starts + ((1 << shift) - 1), side="right") - 1
    extra = int(np.max(last - table))
    following = np.append(edges[1:], np.iinfo(np.int64).max)

    def bins(d: np.ndarray) -> np.ndarray:
        b = table[(d - lo) >> shift]
        for _ in range(extra):
            b += d >= following[b]
        return b

    return bins


def _ranks(tb: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.searchsorted(tb, q, "right")`` for a sorted ``q``, by one merge.

    A stable argsort of the slice of ``tb`` that ``q`` spans followed by
    ``q`` merges two sorted runs in linear time; each query lands after the
    ``tb`` values equal to it and after the queries before it.
    """
    if q.size == 0:
        return np.zeros(0, dtype=np.int64)
    first = int(np.searchsorted(tb, q[0], side="right"))
    span = tb[first : np.searchsorted(tb, q[-1], side="right")]
    order = np.argsort(np.concatenate((span, q)), kind="stable")
    return np.flatnonzero(order >= span.size) + (first - np.arange(q.size))


def _edge_binned_counts(
    ta: np.ndarray,
    tb: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    chunk_size: int,
    weights: tuple = (None,),
    occupancy: tuple | None = None,
) -> np.ndarray:
    """Per weight row r and window k, the weighted count of ta_i - tb_j in
    [lows[k], highs[k]).

    Each row of ``weights`` is ``None`` (unit weight) or one integer weight
    per event of ``ta``; the differences and their bins are formed once and
    shared by every row.  ``occupancy=(low, high, out)`` also adds to
    ``out[j]`` the number of ``ta`` events with ta_i - tb_j in [low, high),
    a range that must lie inside the windows' span.  Each reference event
    of ``ta`` is owned by exactly one chunk and the bin totals are exact
    integers, so chunked and unchunked counts agree exactly.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    # a repeated edge would only add stepping rounds to the binner
    edges = np.unique(np.concatenate((lows, highs)))
    lo, hi = int(edges[0]), int(edges[-1])
    bin_of = _edge_binner(edges)
    # bin b holds the differences d with edges[b] <= d < edges[b + 1]
    totals = np.zeros((len(weights), edges.size - 1), dtype=np.int64)
    for start in range(0, ta.size, chunk_size):
        chunk = ta[start : start + chunk_size]
        # partners tb_j with lo <= chunk - tb_j < hi, that is, with
        # chunk - hi < tb_j <= chunk - lo
        j0 = _ranks(tb, chunk - hi)
        j1 = _ranks(tb, chunk - lo)
        counts = j1 - j0
        partners = _ragged_ranges(j0, j1)
        d = np.repeat(chunk, counts)
        d -= tb[partners]
        if occupancy is not None:
            low, high, out = occupancy
            first, stop = int(j0[0]), int(j1[-1])
            hit = partners[(d >= low) & (d < high)] - first
            out[first:stop] += np.bincount(hit, minlength=stop - first)
        # every difference-sized array is dropped as soon as it is used, so
        # none of them stays alive into the next step or the next chunk
        del partners
        bins = bin_of(d)
        del d
        for row, weight in zip(totals, weights):
            if weight is None:
                row += np.bincount(bins, minlength=row.size)
            else:
                w = np.repeat(weight[start : start + chunk_size], counts)
                # integer weights sum exactly in float64 below 2**53 per chunk
                row += np.bincount(bins, w, minlength=row.size).astype(np.int64)
                del w
        del bins
    cumulative = np.concatenate((np.zeros((len(weights), 1), np.int64),
                                 np.cumsum(totals, axis=1)), axis=1)
    return (
        cumulative[:, np.searchsorted(edges, highs)]
        - cumulative[:, np.searchsorted(edges, lows)]
    )


def _common_duration(*streams: EventStream) -> float:
    durations = {s.duration for s in streams}
    if len(durations) != 1:
        raise ValueError("streams must share one observation duration")
    return streams[0].duration_s


def pair_histogram(
    a: EventStream,
    b: EventStream,
    delays,
    tauc: float,
    *,
    chunk_size: int = CHUNK_SIZE,
) -> Histogram:
    """Count pairs with t_a - t_b in the window around every grid delay.

    ``chunk_size`` reference events of ``a`` are counted at a time.
    """
    if tauc <= 0:
        raise ValueError("tauc must be positive")
    duration = _common_duration(a, b)
    delays = np.asarray(delays, dtype=float)
    lows, highs = _window_bounds(delays, tauc)
    (counts,) = _edge_binned_counts(a.timestamps, b.timestamps, lows, highs,
                                    chunk_size)
    return Histogram(delays, counts, duration, tauc)


def triple_histogram(
    i: EventStream,
    s1: EventStream,
    s2: EventStream,
    delays,
    tauc: float,
    *,
    chunk_size: int = CHUNK_SIZE,
) -> Histogram:
    """Count (idler, signal1, signal2) triples per grid delay: the triples
    of ``coincidence_histograms``.

    Each idler contributes (partners in the signal1 gate) times (partners in
    the delay-tau signal2 window).
    """
    return coincidence_histograms(i, s1, s2, delays, tauc, chunk_size=chunk_size)[2]


def coincidence_histograms(
    i: EventStream,
    s1: EventStream,
    s2: EventStream,
    delays,
    tauc: float,
    *,
    chunk_size: int = CHUNK_SIZE,
) -> tuple[Histogram, Histogram, Histogram]:
    """Signal1-idler pairs, ``pair_histogram(s1, i, ...)``, signal2-idler
    pairs, ``pair_histogram(s2, i, ...)``, and (idler, signal1, signal2)
    triples from two passes.

    The signal1 pass also counts each idler's signal1 gate occupancy from
    the differences it forms anyway; the gate window is counted with the
    grid's windows and its count dropped, so the grid need not hold 0.  The
    idler pass bins the idler-signal2 differences once for the pairs and
    for the triples, each weighted by its idler's occupancy.  ``chunk_size``
    reference events are counted at a time.
    """
    if tauc <= 0:
        raise ValueError("tauc must be positive")
    duration = _common_duration(i, s1, s2)
    delays = np.asarray(delays, dtype=float)
    lows, highs = _window_bounds(delays, tauc)
    tc = seconds_to_ticks(tauc)
    n1 = np.zeros(len(i), dtype=np.int64)
    pairs_s1 = _edge_binned_counts(
        s1.timestamps, i.timestamps, np.append(lows, -tc), np.append(highs, tc + 1),
        chunk_size, occupancy=(-tc, tc + 1, n1))[0, :-1]
    # idlers are the chunked reference so each one carries its gate weight;
    # ts2 - ti in [low, high) is ti - ts2 in [1 - high, 1 - low)
    pairs_s2, triples = _edge_binned_counts(i.timestamps, s2.timestamps, 1 - highs,
                                            1 - lows, chunk_size, (None, n1))
    return tuple(Histogram(delays, counts, duration, tauc)
                 for counts in (pairs_s1, pairs_s2, triples))


def estimate_g2bar_si(
    pairs: Histogram, a_rate: RateEstimate | float, b_rate: RateEstimate | float
) -> EstimatorCurve:
    """Normalize a pair histogram to the accidental level.

    value(tau) = pair_rate(tau) / (a_rate * b_rate * 2 tau_c); uncorrelated
    streams give 1.  Errors are Poisson on the pair counts and on the
    singles counts, combined in quadrature.
    """
    ra = a_rate.value if isinstance(a_rate, RateEstimate) else float(a_rate)
    rb = b_rate.value if isinstance(b_rate, RateEstimate) else float(b_rate)
    if ra <= 0 or rb <= 0:
        raise ValueError("singles rates must be positive")
    t = pairs.duration
    denom = ra * rb * 2.0 * pairs.coincidence_halfwidth
    values = pairs.rates / denom
    n = pairs.counts.astype(float)
    rel = np.sqrt(
        np.divide(1.0, n, out=np.zeros_like(n), where=n > 0)
        + 1.0 / (ra * t)
        + 1.0 / (rb * t)
    )
    return EstimatorCurve(pairs.delays, values, values * rel)


def estimate_gbar2_c(
    triples: Histogram,
    pairs0: float,
    pairs: Histogram,
    idler_rate: RateEstimate | float,
) -> EstimatorCurve:
    """Efficiency-independent conditioned-coherence estimator.

    value(tau) = triple_rate(tau) * idler_rate / (pairs0 * pair_rate(tau))
    where ``pairs0`` is the heralding pair rate at zero delay (signal1 gate)
    and ``pairs`` the signal2-idler histogram of the same run.  Substituting
    the measured idler singles rate for the unknown source rate cancels
    every detection efficiency in expectation.  Bins with an empty
    denominator are flagged as NaN.
    """
    ri = idler_rate.value if isinstance(idler_rate, RateEstimate) else float(idler_rate)
    if ri <= 0 or pairs0 <= 0:
        raise ValueError("idler rate and zero-delay pair rate must be positive")
    if triples.counts.shape != pairs.counts.shape:
        raise ValueError("triple and pair histograms must share one grid")
    t = triples.duration
    n3 = triples.counts.astype(float)
    n2 = pairs.counts.astype(float)
    good = n2 > 0
    values = np.full(n3.shape, np.nan)
    stderr = np.full(n3.shape, np.nan)
    values[good] = triples.rates[good] * ri / (pairs0 * pairs.rates[good])
    rel_good = np.sqrt(
        np.divide(1.0, n3[good], out=np.zeros_like(n3[good]), where=n3[good] > 0)
        + 1.0 / n2[good]
        + 1.0 / (ri * t)
        + 1.0 / (pairs0 * t)
    )
    stderr[good] = values[good] * rel_good
    return EstimatorCurve(triples.delays, values, stderr)
