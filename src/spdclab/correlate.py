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
Laurence et al., Opt. Lett. 31, 829 (2006)): per block of reference events
a merge of the block's window limits into the partner stream (one stable
sort of two sorted runs) finds the partners that can land in a window, and
the block is cut into chunks by their differences.  Each difference is
binned between the sorted, distinct window edges (at most 2 x n_delays); a
window count is a difference of cumulative bin totals.  A difference finds
its bin by table lookup, not binary search: the edge range is cut into
power-of-two cells, at most 16 per edge, a table gives the last edge at or
below each cell start, and only a difference in a cell that holds an edge
takes a few compare-and-step rounds past the edges inside it.  The kernel
takes one weight row per output histogram, one weight per partner event,
and bins each difference once for all rows; it can also count, per partner
event, the differences in one extra window.

``coincidence_histograms`` makes both passes ``count`` needs, signal - idler
on one window set; the idlers, their partner, carry the gate occupancy that
weights the triples.  ``triple_histogram`` is the triple part of that call.

Memory: a block holds at most ``CHUNK_SIZE`` reference events and a chunk
at most ``CHUNK_SIZE`` differences (or one reference event with all of its
partners), whatever the rate and the span.  The bin table and the totals
grow with the delay grid, within ``MAX_BIN_TABLE_BYTES``; the three
channels and the int64 gate occupancy (one per idler) grow with the run
length.  Before either pass runs, a count expected to bin more than
``MAX_COUNT_DIFFERENCES`` differences is refused.  Counting a stream in
consecutive chunks gives bit-identical results, which is the sharding
contract for parallel or out-of-core operation.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curves import Histogram, EstimatorCurve
from .events import EventStream
from .params import (
    MAX_BIN_TABLE_BYTES,
    MAX_COUNT_DIFFERENCES,
    TICKS_PER_SECOND,
    ConfigError,
    delay_array,
    guard,
    seconds_to_ticks,
)

__all__ = [
    "RateEstimate",
    "singles_rate",
    "pair_histogram",
    "triple_histogram",
    "coincidence_histograms",
    "estimate_g2bar_si",
    "estimate_gbar2_c",
]


#: reference events per counting block, and differences per counting chunk
CHUNK_SIZE = 1 << 14


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


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``values`` and, in its shape, the index
    of each element among them: ``np.unique(values, return_inverse=True)``
    by one sort, an adjacent-inequality mask and a binary search."""
    keys = np.sort(values, axis=None)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    return keys, np.searchsorted(keys, values)


def _window_bounds(delays: np.ndarray, tauc: float) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive lower and exclusive upper tick bounds of every centred window.

    ``ConfigError`` unless max|delay| + tauc stays below 2**62 ticks, which
    leaves room in an int64 for every bound and for the differences
    between them.
    """
    if tauc <= 0:
        raise ValueError("tauc must be positive")
    reach = float(np.max(np.abs(delays), initial=0.0)) + tauc
    if not reach * TICKS_PER_SECOND < 2.0**62:
        raise ConfigError(
            f"window reach max|delay| + tau_c = {reach:g} s exceeds "
            f"{2**62 / TICKS_PER_SECOND:.6g} s of int64 femtosecond ticks"
        )
    grid, tc = seconds_to_ticks(delays), seconds_to_ticks(tauc)
    return grid - tc, grid + tc + 1


def _edge_binner(edges: np.ndarray):
    """Return ``bins(d)``, the last index b with ``edges[b] <= d`` for every d
    in ``[edges[0], edges[-1]]``: ``np.searchsorted(edges, d, "right") - 1``
    by table lookup.

    The range is cut into cells of 2**shift ticks, at most 16 per edge and
    more than 8 unless a cell is one tick.  ``table[c]`` is the last edge k
    at or below the start of cell c, or ~k = -k - 1 when an edge lies inside
    the cell past its start (at most one cell in 8), in the narrowest signed
    dtype that holds it.  A difference looks its cell up, and only one in a
    cell marked negative then steps past the edges inside it that lie at or
    below it, at most ``extra`` of them.  Repeated edges need no care: each
    step compares with the following edge.  ``GuardError`` when the table
    would exceed ``MAX_BIN_TABLE_BYTES``, before it is allocated.
    """
    lo, hi = int(edges[0]), int(edges[-1])
    # the least shift that leaves at most 16 cells per edge, in exact
    # integer arithmetic
    shift = ((hi - lo) // (16 * edges.size)).bit_length()
    cells = ((hi - lo) >> shift) + 1
    dtype = np.min_scalar_type(-edges.size)
    guard("edge binning table bytes", cells * dtype.itemsize, MAX_BIN_TABLE_BYTES)
    mask = (1 << shift) - 1
    offsets = edges - lo
    # the cell of every edge past its cell's start; ``extra`` is the most
    # such edges one cell holds
    inner = offsets[(offsets & mask) != 0] >> shift
    extra = int(np.max(np.searchsorted(inner, inner, "right")
                       - np.searchsorted(inner, inner, "left"), initial=0))
    # edge k is the last one at or below the start of every cell from the
    # first whose start reaches it to the first whose start reaches edge k + 1
    offsets += mask
    offsets >>= shift
    table = np.repeat(np.arange(edges.size, dtype=dtype), np.diff(offsets, append=cells))
    table[inner] = ~table[inner]
    following = np.append(edges[1:], np.iinfo(np.int64).max)

    def bins(d: np.ndarray) -> np.ndarray:
        c = d - lo
        c >>= shift
        b = table[c]
        at = np.flatnonzero(b < 0)
        if at.size:
            ds, bs = d[at], ~b[at].astype(np.intp)
            for _ in range(extra):
                bs += ds >= following[bs]
            b[at] = bs
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
    weights: tuple = (None,),
    occupancy: tuple | None = None,
) -> np.ndarray:
    """Per weight row r and window k, the weighted count of ta_i - tb_j in
    [lows[k], highs[k]).

    Each row of ``weights`` is ``None`` (unit weight) or one integer weight
    per event of ``tb``: ta_i - tb_j adds weight[j], and the differences and
    their bins are shared by every row.  ``occupancy=(low, high, out)`` also
    adds to ``out[j]`` the number of ``ta`` events with ta_i - tb_j in
    [low, high), a range that must lie inside the windows' span.

    ``ta`` is taken in blocks of at most ``CHUNK_SIZE`` events, whose
    partner ranges are found at once, and a block is cut where its running
    partner count passes ``CHUNK_SIZE``: a chunk forms at most that many
    differences, or holds one event.  Each event of ``ta`` is owned by one
    chunk and the totals are int64 sums, so chunking changes no count.
    """
    edges, at = _distinct(np.concatenate((lows, highs)))
    lo, hi, top = int(edges[0]), int(edges[-1]), int(np.iinfo(np.int64).max)
    bin_of = _edge_binner(edges)
    # bin b holds the differences d with edges[b] <= d < edges[b + 1]
    totals = np.zeros((len(weights), edges.size - 1), dtype=np.int64)
    for start in range(0, ta.size, CHUNK_SIZE):
        block = ta[start : start + CHUNK_SIZE]
        # partners tb_j with lo <= block - tb_j < hi, that is, with
        # block - hi < tb_j <= block - lo; a difference past the int64
        # maximum saturates there, which ranks after every timestamp
        j0, j1 = (_ranks(tb, np.minimum(block, top + min(bound, 0)) - bound)
                  for bound in (hi, lo))
        counts = j1 - j0
        ends = np.cumsum(counts)
        # the block's k-th difference (k from 0) pairs the event r that
        # forms it with the partner k + j1[r] - ends[r]
        offset = j1 - ends
        r0 = 0
        while r0 < block.size:
            k0 = int(ends[r0 - 1]) if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, k0 + CHUNK_SIZE, "right")))
            partners = np.repeat(offset[r0:r1], counts[r0:r1])
            partners += np.arange(k0, k0 + partners.size)
            d = np.repeat(block[r0:r1], counts[r0:r1])
            d -= tb[partners]
            if occupancy is not None:
                low, high, out = occupancy
                first, stop = int(j0[r0]), int(j1[r1 - 1])
                # low <= d < high, by one unsigned compare
                hit = partners[(d - low).view(np.uint64) < high - low] - first
                out[first:stop] += np.bincount(hit, minlength=stop - first)
            bins = bin_of(d)
            for row, weight in zip(totals, weights):
                np.add.at(row, bins, 1 if weight is None else weight[partners])
            r0 = r1
    del bin_of  # the table is freed before the totals are summed
    cumulative = np.concatenate((np.zeros((len(weights), 1), np.int64),
                                 np.cumsum(totals, axis=1)), axis=1)
    return cumulative[:, at[lows.size:]] - cumulative[:, at[: lows.size]]


def _common_duration(*streams: EventStream) -> float:
    durations = {s.duration for s in streams}
    if len(durations) != 1:
        raise ValueError("streams must share one observation duration")
    return streams[0].duration_s


def _guard_differences(n_pairs: int, lows: np.ndarray, highs: np.ndarray,
                       duration: int) -> None:
    """``GuardError`` when a count is expected to bin more than
    ``MAX_COUNT_DIFFERENCES`` differences: each of ``n_pairs``
    reference-partner event pairs of a ``duration``-tick run lies inside
    the windows' span with the chance span / duration (at most 1) that
    independent uniform events have."""
    span = int(np.max(highs)) - int(np.min(lows))
    guard("expected coincidence differences",
          n_pairs * min(1.0, span / max(duration, 1)), MAX_COUNT_DIFFERENCES)


def pair_histogram(
    a: EventStream,
    b: EventStream,
    delays,
    tauc: float,
) -> Histogram:
    """Count pairs with t_a - t_b in the window around every grid delay."""
    delays = delay_array(delays)
    lows, highs = _window_bounds(delays, tauc)
    duration = _common_duration(a, b)
    _guard_differences(len(a) * len(b), lows, highs, a.duration)
    (counts,) = _edge_binned_counts(a.timestamps, b.timestamps, lows, highs)
    return Histogram(delays, counts, duration, tauc)


def triple_histogram(
    i: EventStream,
    s1: EventStream,
    s2: EventStream,
    delays,
    tauc: float,
) -> Histogram:
    """Count (idler, signal1, signal2) triples per grid delay: the triples
    of ``coincidence_histograms``.

    Each idler contributes (partners in the signal1 gate) times (partners in
    the delay-tau signal2 window).
    """
    return coincidence_histograms(i, s1, s2, delays, tauc)[2]


def coincidence_histograms(
    i: EventStream,
    s1: EventStream,
    s2: EventStream,
    delays,
    tauc: float,
) -> tuple[Histogram, Histogram, Histogram, int]:
    """Signal1-idler pairs, ``pair_histogram(s1, i, ...)``, signal2-idler
    pairs, ``pair_histogram(s2, i, ...)``, (idler, signal1, signal2) triples
    and the heralding count, the signal1-idler pairs in the zero-delay gate,
    from two passes.

    Both passes bin signal - idler on the grid's windows.  The signal1 pass
    adds the gate window, so the grid need not hold 0, and counts each
    idler's gate occupancy from the differences it forms anyway.  The
    signal2 pass bins once for the pairs and for the triples, each
    difference weighted by its idler's occupancy.
    """
    delays = delay_array(delays)
    # the signal1 gate is the window at delay 0, appended as the last one
    lows, highs = _window_bounds(np.append(delays, 0.0), tauc)
    duration = _common_duration(i, s1, s2)
    # both passes at once: the signal2 pass bins these windows less the gate
    _guard_differences((len(s1) + len(s2)) * len(i), lows, highs, i.duration)
    n1 = np.zeros(len(i), dtype=np.int64)
    (row,) = _edge_binned_counts(s1.timestamps, i.timestamps, lows, highs,
                                 occupancy=(lows[-1], highs[-1], n1))
    pairs_s1, heralds = row[:-1], int(row[-1])
    pairs_s2, triples = _edge_binned_counts(s2.timestamps, i.timestamps, lows[:-1],
                                            highs[:-1], (None, n1))
    return (*(Histogram(delays, counts, duration, tauc)
              for counts in (pairs_s1, pairs_s2, triples)), heralds)


def estimate_g2bar_si(
    pairs: Histogram, a_rate: RateEstimate, b_rate: RateEstimate
) -> EstimatorCurve:
    """Normalize a pair histogram to the accidental level.

    value(tau) = pair_rate(tau) / (a_rate * b_rate * 2 tau_c); uncorrelated
    streams give 1.  Errors are Poisson on the pair counts and on the
    singles counts, combined in quadrature.
    """
    ra, rb = a_rate.value, b_rate.value
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
    idler_rate: RateEstimate,
) -> EstimatorCurve:
    """Efficiency-independent conditioned-coherence estimator.

    value(tau) = triple_rate(tau) * idler_rate / (pairs0 * pair_rate(tau))
    where ``pairs0`` is the heralding pair rate at zero delay (signal1 gate)
    and ``pairs`` the signal2-idler histogram of the same run.  Substituting
    the measured idler singles rate for the unknown source rate cancels
    every detection efficiency in expectation.  Bins with an empty
    denominator are flagged as NaN.
    """
    ri = idler_rate.value
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
