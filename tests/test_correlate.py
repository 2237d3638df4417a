import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spdclab import (
    AnalysisWindow,
    ConfigError,
    CorrelationSurface,
    DetectorChain,
    EstimatorCurve,
    EventStream,
    GridError,
    GuardError,
    RateEstimate,
    SourceParams,
    apply_detector_chain,
    coincidence_histograms,
    estimate_g2bar_si,
    estimate_gbar2_c,
    gen_poisson_pairs,
    pair_histogram,
    singles_rate,
    triple_histogram,
)
from spdclab import correlate
from spdclab.correlate import (
    CHUNK_SIZE,
    MAX_COUNT_DIFFERENCES,
    _distinct,
    _edge_binned_counts,
    _edge_binner,
    _ranks,
    _window_bounds,
)
from spdclab.smearing import _grid_index

from _oracles import at, brute_pair_counts, brute_triple_counts


def stream(channel, seconds, duration=1e-3):
    ticks = np.rint(np.asarray(seconds) * 1e15).astype(np.int64)
    return EventStream(channel, np.sort(ticks), int(round(duration * 1e15)))


@contextlib.contextmanager
def chunk_size(size):
    """Count in blocks of ``size`` reference events and chunks of ``size``
    differences inside the context."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlate, "CHUNK_SIZE", size)
        yield


def poisson_stream(channel, rate, duration, seed):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * duration)
    ticks = np.unique(rng.integers(0, int(duration * 1e15), n))
    return EventStream(channel, ticks, int(duration * 1e15))


class TestSinglesRate:
    def test_definition(self):
        s = poisson_stream("idler", 1e7, 1e-3, 1)
        est = singles_rate(s)
        assert est.value == pytest.approx(len(s) / 1e-3, rel=1e-12)
        assert est.stderr == pytest.approx(np.sqrt(len(s)) / 1e-3, rel=1e-12)

    def test_empty_stream(self):
        s = EventStream("idler", np.empty(0, np.int64), 10**12)
        assert singles_rate(s).value == 0.0

    def test_simulated_idler_rate(self):
        src = SourceParams(2e7, 1e-9)
        pairs = gen_poisson_pairs(src, 2e-3, seed=3)
        idler, _, _ = apply_detector_chain(pairs, DetectorChain(), seed=3)
        est = singles_rate(idler)
        assert abs(est.value - 2e7) < 3.5 * np.sqrt(2e7 / 2e-3)


class TestPairHistogram:
    def test_hand_example(self):
        a = stream("signal1", [7e-9])
        b = stream("idler", [5e-9])
        h = pair_histogram(a, b, np.array([0.0, 2e-9]), 1e-9)
        assert list(h.counts) == [0, 1]

    def test_boundary_tick_counts_as_inside(self):
        a = stream("signal1", [6e-9])
        b = stream("idler", [5e-9])
        h = pair_histogram(a, b, np.array([0.0]), 1e-9)
        assert h.counts[0] == 1

    def test_accidental_level(self):
        # independent 1e6/s streams: each bin near r1 r2 2 tau_c T
        duration = 1.0
        a = poisson_stream("signal1", 1e6, duration, 21)
        b = poisson_stream("idler", 1e6, duration, 22)
        delays = np.arange(-5, 6) * 100e-9
        h = pair_histogram(a, b, delays, 5e-9)
        expected = 1e12 * 2 * 5e-9 * duration
        assert np.all(np.abs(h.counts - expected) < 5 * np.sqrt(expected))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(30)
        for seed in range(4):
            a = poisson_stream("signal1", 2e6, 5e-4, 100 + seed)
            b = poisson_stream("idler", 2e6, 5e-4, 200 + seed)
            delays = np.arange(-4, 5) * 40e-9
            tauc = rng.choice([5e-9, 17e-9, 50e-9])
            h = pair_histogram(a, b, delays, tauc)
            ref = brute_pair_counts(a.timestamps, b.timestamps, delays, tauc)
            assert np.array_equal(h.counts, ref)

    def test_sharded_counts_identical(self):
        a = poisson_stream("signal1", 5e6, 1e-3, 31)
        b = poisson_stream("idler", 5e6, 1e-3, 32)
        delays = np.arange(-10, 11) * 20e-9
        base = pair_histogram(a, b, delays, 10e-9)
        for chunk in (1, 17, 1000, 10**7):
            with chunk_size(chunk):
                h = pair_histogram(a, b, delays, 10e-9)
            assert np.array_equal(h.counts, base.counts)

    def test_rejects_unsorted(self):
        # the counters trust EventStream's order check, so no unsorted
        # stream may be built or made by writing into a sorted one
        a = poisson_stream("signal1", 1e6, 1e-4, 33)
        with pytest.raises(ValueError, match="strictly increasing"):
            EventStream("signal1", a.timestamps[::-1], a.duration)
        with pytest.raises(ValueError, match="read-only"):
            a.timestamps[:2] = a.timestamps[:2][::-1]
        ticks = a.timestamps.copy()
        b = EventStream("signal1", ticks, a.duration)
        ticks[0] = ticks[1]  # the caller's array is not frozen ...
        assert np.array_equal(b.timestamps, a.timestamps)  # ... nor aliased
        ticks[:] = a.timestamps
        frozen = ticks.view()
        frozen.flags.writeable = False
        c = EventStream("signal1", frozen, a.duration)
        ticks[0] = ticks[1]  # ... nor through a read-only view of it
        assert np.array_equal(c.timestamps, a.timestamps)

    def test_rejects_mismatched_duration(self):
        a = poisson_stream("signal1", 1e6, 1e-4, 35)
        b = poisson_stream("idler", 1e6, 2e-4, 36)
        with pytest.raises(ValueError):
            pair_histogram(a, b, np.array([0.0]), 1e-9)

    def test_rejects_delay_beyond_tick_range(self):
        a = poisson_stream("signal1", 1e6, 1e-4, 39)
        b = poisson_stream("idler", 1e6, 1e-4, 40)
        # 1e4 s is 1e19 fs, past the largest int64
        with pytest.raises(ConfigError, match="int64"):
            pair_histogram(a, b, np.array([-1e4, 0.0, 1e4]), 1e-9)


class TestTripleHistogram:
    def test_hand_example(self):
        i = stream("idler", [100e-9])
        s1 = stream("signal1", [100.5e-9])
        s2 = stream("signal2", [130e-9])
        h = triple_histogram(i, s1, s2, np.array([0.0, 30e-9]), 1e-9)
        assert list(h.counts) == [0, 1]

    def test_accidental_triple_level(self):
        duration = 0.5
        r = 1e6
        i = poisson_stream("idler", r, duration, 41)
        s1 = poisson_stream("signal1", r, duration, 42)
        s2 = poisson_stream("signal2", r, duration, 43)
        tauc = 50e-9
        delays = np.arange(3, 7) * 300e-9  # far from zero delay
        h = triple_histogram(i, s1, s2, delays, tauc)
        expected = r**3 * (2 * tauc) ** 2 * duration
        assert np.all(np.abs(h.counts - expected) < 5 * np.sqrt(expected))

    def test_matches_brute_force(self):
        for seed in range(3):
            i = poisson_stream("idler", 2e6, 3e-4, 50 + seed)
            s1 = poisson_stream("signal1", 2e6, 3e-4, 60 + seed)
            s2 = poisson_stream("signal2", 2e6, 3e-4, 70 + seed)
            delays = np.arange(-3, 4) * 60e-9
            h = triple_histogram(i, s1, s2, delays, 25e-9)
            ref = brute_triple_counts(
                i.timestamps, s1.timestamps, s2.timestamps, delays, 25e-9
            )
            assert np.array_equal(h.counts, ref)

    def test_sharded_counts_identical(self):
        i = poisson_stream("idler", 3e6, 1e-3, 80)
        s1 = poisson_stream("signal1", 3e6, 1e-3, 81)
        s2 = poisson_stream("signal2", 3e6, 1e-3, 82)
        delays = np.arange(-5, 6) * 50e-9
        base = triple_histogram(i, s1, s2, delays, 20e-9)
        for chunk in (1, 23, 4096):
            with chunk_size(chunk):
                h = triple_histogram(i, s1, s2, delays, 20e-9)
            assert np.array_equal(h.counts, base.counts)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_heralds_match_brute_gate_count(seed):
    # the heralds are the signal1-idler pairs in the zero-delay gate, counted
    # with a grid that does not hold 0
    pairs = gen_poisson_pairs(SourceParams(2e7, 1e-9), 1e-4, seed)
    idler, s1, s2 = apply_detector_chain(pairs, DetectorChain(jitter_width=1e-9), seed)
    heralds = coincidence_histograms(idler, s1, s2, np.array([-1e-9, 1e-9]), 5e-9)[3]
    assert heralds > 0
    assert heralds == brute_pair_counts(s1.timestamps, idler.timestamps, [0.0], 5e-9)[0]


def test_empty_delay_grid_refused_before_counting(monkeypatch):
    i, s1, s2 = (stream(c, [5e-9]) for c in ("idler", "signal1", "signal2"))

    def no_counting(*args, **kwargs):
        raise AssertionError("counted an empty grid")

    monkeypatch.setattr(correlate, "_edge_binned_counts", no_counting)
    with pytest.raises(GridError, match="no delay"):
        pair_histogram(s1, i, [], 1e-9)
    with pytest.raises(GridError, match="no delay"):
        coincidence_histograms(i, s1, s2, [], 1e-9)
    with pytest.raises(GridError, match="no delay"):
        triple_histogram(i, s1, s2, np.array([]), 1e-9)


def test_counts_near_the_int64_tick_limit():
    # a timestamp near 2**63 ticks minus a window bound near -4e18 ticks is
    # past the int64 maximum: both passes must count as the oracles do
    duration = 9 * 10**18
    ti = np.array([5 * 10**18 - 10, duration - 5], dtype=np.int64)
    t1 = np.arange(duration - 10, duration + 1, dtype=np.int64)
    t2 = np.array([duration - 13], dtype=np.int64)
    i, s1, s2 = (EventStream(c, t, duration) for c, t in
                 (("idler", ti), ("signal1", t1), ("signal2", t2)))
    delays, tauc = np.array([-4e3, 0.0, 4e3]), 1e-14
    pairs = brute_pair_counts(t1, ti, delays, tauc)
    assert list(pairs) == [0, 11, 11]
    assert np.array_equal(pair_histogram(s1, i, delays, tauc).counts, pairs)
    pairs_s1, pairs_s2, triples, heralds = coincidence_histograms(i, s1, s2, delays, tauc)
    assert np.array_equal(pairs_s1.counts, pairs)
    assert np.array_equal(pairs_s2.counts, brute_pair_counts(t2, ti, delays, tauc))
    assert np.array_equal(triples.counts, brute_triple_counts(ti, t1, t2, delays, tauc))
    assert heralds == brute_pair_counts(t1, ti, [0.0], tauc)[0] == 11


# Property tests on tick-level streams: a few dozen events over a run of at
# most 120 ticks, so window edges, run edges and empty streams all occur.
_PROPERTY = settings(max_examples=40, deadline=None)
_CHUNKS = st.sampled_from([1, 2, 7, "above", "default"])


def _tick_stream(channel, ticks, duration):
    return EventStream(channel, np.array(sorted(ticks), dtype=np.int64), duration)


def _chunked(chunk, n_reference):
    """Count with the chunk of a ``_CHUNKS`` draw: a size, one past the
    ``n_reference`` reference events, or the default."""
    if chunk == "default":
        return chunk_size(CHUNK_SIZE)
    return chunk_size(n_reference + 1 if chunk == "above" else chunk)


def _edge_hits(anchor, grid, tc, duration):
    """Ticks at and next to every window edge of ``grid`` around ``anchor``."""
    offsets = (-tc - 1, -tc, -1, 0, tc, tc + 1, 2 * tc - 1, 2 * tc)
    return {
        anchor + g + o for g in grid for o in offsets
        if 0 <= anchor + g + o <= duration
    }


@st.composite
def _counting_case(draw, n_streams):
    duration = draw(st.integers(1, 120))
    tc = draw(st.integers(1, 12))
    events = st.sets(st.integers(0, duration), max_size=25)
    streams = [draw(events) for _ in range(n_streams)]
    span = duration + 2 * tc
    grid = draw(st.lists(st.integers(-span, span), min_size=1, max_size=6))
    if streams[0] and draw(st.booleans()):
        # partners of the first reference event exactly on, and next to,
        # every window edge (delay 0 is the triple's signal1 gate), plus
        # events at both run edges
        hits = _edge_hits(min(streams[0]), [0, *grid], tc, duration)
        for partners in streams[1:]:
            partners |= hits | {0, duration}
    return streams, grid, tc, duration


def _seconds(grid, tc):
    return np.array(grid, dtype=np.int64) * 1e-15, tc * 1e-15


class TestCountingProperties:
    @_PROPERTY
    @given(case=_counting_case(2), chunk=_CHUNKS)
    @example(case=([set(), set()], [0], 1, 10), chunk=1)
    @example(case=([{0, 10}, set()], [0], 1, 10), chunk=2)
    @example(case=([{0, 4, 10}, {0, 3, 10}], [-10, 0, 1, 10], 1, 10),
             chunk="above")
    def test_pair_matches_oracle(self, case, chunk):
        (tb, ta), grid, tc, duration = case
        a = _tick_stream("signal1", ta, duration)
        b = _tick_stream("idler", tb, duration)
        delays, tauc = _seconds(grid, tc)
        with _chunked(chunk, len(a)):
            h = pair_histogram(a, b, delays, tauc)
        ref = brute_pair_counts(a.timestamps, b.timestamps, delays, tauc)
        assert np.array_equal(h.counts, ref)

    @_PROPERTY
    @given(case=_counting_case(3), chunk=_CHUNKS)
    @example(case=([set(), set(), set()], [0], 1, 10), chunk=1)
    @example(case=([{0, 10}, {0, 1, 10}, set()], [0, 5], 1, 10), chunk=7)
    @example(case=([{0, 5, 10}, {0, 4, 10}, {0, 6, 9, 10}], [-5, 0, 5], 1, 10),
             chunk="default")
    def test_triple_matches_oracle(self, case, chunk):
        (ti, ts1, ts2), grid, tc, duration = case
        i = _tick_stream("idler", ti, duration)
        s1 = _tick_stream("signal1", ts1, duration)
        s2 = _tick_stream("signal2", ts2, duration)
        delays, tauc = _seconds(grid, tc)
        with _chunked(chunk, max(len(s1), len(s2))):
            h = triple_histogram(i, s1, s2, delays, tauc)
        ref = brute_triple_counts(i.timestamps, s1.timestamps, s2.timestamps,
                                  delays, tauc)
        assert np.array_equal(h.counts, ref)

    @_PROPERTY
    @given(case=_counting_case(3), chunk=_CHUNKS)
    @example(case=([set(), set(), set()], [0], 1, 10), chunk=1)
    @example(case=([{5}, set(), {5}], [0], 1, 10), chunk="default")
    @example(case=([{0, 5, 10}, {0, 4, 10}, {0, 6, 9, 10}], [-5, 0, 5], 1, 10),
             chunk=2)
    # no delay 0, and the signal1 gate [-2, 2] lies outside the windows' span
    @example(case=([{10, 20}, {9, 11, 20, 30}, {55, 60, 61, 70}], [40, 50], 2, 80),
             chunk=1)
    def test_signal2_matches_oracles(self, case, chunk):
        (ti, ts1, ts2), grid, tc, duration = case
        i = _tick_stream("idler", ti, duration)
        s1 = _tick_stream("signal1", ts1, duration)
        s2 = _tick_stream("signal2", ts2, duration)
        delays, tauc = _seconds(grid, tc)
        with _chunked(chunk, max(len(s1), len(s2))):
            pairs_s1, pairs_s2, triples, heralds = coincidence_histograms(
                i, s1, s2, delays, tauc)
        assert heralds == brute_pair_counts(s1.timestamps, i.timestamps, [0.0], tauc)[0]
        assert np.array_equal(
            pairs_s1.counts,
            brute_pair_counts(s1.timestamps, i.timestamps, delays, tauc))
        assert np.array_equal(
            pairs_s2.counts,
            brute_pair_counts(s2.timestamps, i.timestamps, delays, tauc))
        assert np.array_equal(
            triples.counts,
            brute_triple_counts(i.timestamps, s1.timestamps, s2.timestamps,
                                delays, tauc))

    @_PROPERTY
    @given(case=_counting_case(2), chunk=_CHUNKS, data=st.data())
    def test_occupancy_matches_per_partner_count(self, case, chunk, data):
        (tb, ta), grid, tc, _ = case
        ta = np.array(sorted(ta), dtype=np.int64)
        tb = np.array(sorted(tb), dtype=np.int64)
        lows, highs = _window_bounds(*_seconds(grid, tc))
        low = data.draw(st.integers(int(lows.min()), int(highs.max())))
        high = data.draw(st.integers(low, int(highs.max())))
        out = np.zeros(tb.size, dtype=np.int64)
        with _chunked(chunk, ta.size):
            (counts,) = _edge_binned_counts(ta, tb, lows, highs,
                                            occupancy=(low, high, out))
        d = ta[None, :] - tb[:, None]
        assert np.array_equal(out, np.sum((d >= low) & (d < high), axis=1))
        assert np.array_equal(counts, brute_pair_counts(ta, tb, *_seconds(grid, tc)))

    @_PROPERTY
    @given(case=_counting_case(2), chunk=_CHUNKS)
    @example(case=([{0, 5, 10}, {4}], [-5, 0, 5], 1, 10), chunk=1)
    @example(case=([{3}, {0, 2, 3, 4, 9}], [-1, 0, 1], 1, 10), chunk="above")
    def test_weights_index_the_partner_stream(self, case, chunk):
        (tb, ta), grid, tc, _ = case
        assume(len(ta) != len(tb))
        ta = np.array(sorted(ta), dtype=np.int64)
        tb = np.array(sorted(tb), dtype=np.int64)
        # a distinct weight per partner event, so a misindexed one shows
        w = np.arange(1, tb.size + 1, dtype=np.int64) ** 2
        lows, highs = _window_bounds(*_seconds(grid, tc))
        with _chunked(chunk, ta.size):
            unit, weighted = _edge_binned_counts(ta, tb, lows, highs, (None, w))
        d = (ta[None, :] - tb[:, None])[..., None]
        inside = (d >= lows) & (d < highs)
        assert np.array_equal(unit, inside.sum(axis=(0, 1)))
        assert np.array_equal(weighted, (w[:, None, None] * inside).sum(axis=(0, 1)))


class TestDifferenceChunks:
    """A chunk holds at most ``CHUNK_SIZE`` differences, or one reference
    event with all of its partners.  The streams are ticks over a 6e5-tick
    run: about 22 partners per reference event inside the windows' span in
    both passes, and one signal1 event and the signal2 events around it
    inside bursts that give them about 80."""

    GRID, TC = np.arange(-4, 5) * 500, 250

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(17)
        duration = 600_000

        def ticks(n, *burst):
            return np.unique(np.concatenate((rng.integers(0, duration, n), *burst)))

        burst = np.arange(300_000 - 120, 300_000 + 120, 4)
        i = EventStream("idler", ticks(3000, burst), duration)
        s1 = EventStream("signal1", ticks(300, [300_001]), duration)
        s2 = EventStream("signal2", ticks(3000, burst + 1), duration)
        delays, tauc = _seconds(self.GRID, self.TC)
        expected = (
            brute_pair_counts(s1.timestamps, i.timestamps, delays, tauc),
            brute_pair_counts(s2.timestamps, i.timestamps, delays, tauc),
            brute_triple_counts(i.timestamps, s1.timestamps, s2.timestamps,
                                delays, tauc),
            brute_pair_counts(s1.timestamps, i.timestamps, [0.0], tauc)[0],
        )
        # partners per reference event inside the windows' span, in the
        # signal1 pass and in the signal2 pass
        lo, hi = self.GRID[0] - self.TC, self.GRID[-1] + self.TC
        partners = [np.sum((d >= lo) & (d <= hi), axis=1) for d in (
            s1.timestamps[:, None] - i.timestamps[None, :],
            s2.timestamps[:, None] - i.timestamps[None, :])]
        return (i, s1, s2), expected, partners

    @pytest.mark.parametrize("chunk", [1, 5, 21, 64, 1000, CHUNK_SIZE])
    def test_counts_match_oracles_in_bounded_chunks(self, case, chunk, monkeypatch):
        streams, expected, partners = case
        sizes = []
        binner = correlate._edge_binner

        def recording_binner(edges):
            bins = binner(edges)

            def record(d):
                sizes.append(d.size)
                return bins(d)
            return record

        monkeypatch.setattr(correlate, "_edge_binner", recording_binner)
        with chunk_size(chunk):
            *histograms, heralds = coincidence_histograms(
                *streams, *_seconds(self.GRID, self.TC))
        for h, ref in zip(histograms, expected):
            assert np.array_equal(h.counts, ref)
        assert heralds == expected[3]
        # every difference is binned once, in chunks of at most ``chunk``
        # differences or of one reference event
        most = max(int(p.max()) for p in partners)
        assert sum(sizes) == sum(int(p.sum()) for p in partners)
        assert max(sizes) == most if chunk < most else max(sizes) <= chunk


def test_wide_span_count_memory_is_bounded():
    # A 2e-5 s span of 1 ns windows (80,002 distinct edges) over 1e-3 s of
    # the desk source: each signal1 event has about 800 idler partners.
    # The counter holds a bin table of 1.2e6 cells at 4 bytes, some ten
    # arrays as long as the edges (windows, edges, totals) and a few
    # CHUNK_SIZE-long arrays per chunk: 11 MB measured.  A chunk of
    # CHUNK_SIZE reference events would form the 8e6 differences of all 1e4
    # signal1 events at once, 64 MB per int64 array (225 MB measured).
    pairs = gen_poisson_pairs(SourceParams(2e7, 1e-9), 1e-3, 7)
    idler, s1, s2 = apply_detector_chain(pairs, DetectorChain(jitter_width=1e-9), 7)
    delays = AnalysisWindow(5e-9, 1e-9, 2e-5).delays()
    tracemalloc.start()
    try:
        coincidence_histograms(idler, s1, s2, delays, 5e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


class TestCountGuards:
    def test_expected_differences(self):
        # every event pair lies inside a span wider than the run, so
        # (1e5 + 1) x 1e5 events are expected to form just over 1e10
        # differences
        duration = 10**9
        a = EventStream("signal1", np.arange(10**5 + 1) * 10**4, duration)
        b = EventStream("idler", np.arange(10**5) * 10**4, duration)
        delays = np.array([0.0])
        with pytest.raises(GuardError, match="expected coincidence differences"):
            pair_histogram(a, b, delays, 2e-6)
        assert len(a) * len(b) > MAX_COUNT_DIFFERENCES

    def test_bin_table(self):
        # 2e6 edges 1000 ticks apart: 3.1e7 cells of 4 bytes
        edges = np.arange(2 * 10**6, dtype=np.int64) * 1000
        with pytest.raises(GuardError, match="edge binning table bytes"):
            _edge_binner(edges)
        # the table for a tenth of them fits
        assert _edge_binner(edges[: 2 * 10**5])(edges[:3]).tolist() == [0, 1, 2]


_SORTED_TICKS = st.lists(st.integers(-50, 50), max_size=40).map(sorted)


@settings(max_examples=200, deadline=None)
@given(tb=_SORTED_TICKS, q=_SORTED_TICKS)
@example(tb=[], q=[])
@example(tb=[], q=[1, 2])
@example(tb=[1, 2], q=[])
@example(tb=[1, 1, 1, 4, 4, 9], q=[0, 1, 1, 4, 5, 9, 9, 10])
@example(tb=[3, 5, 5, 7], q=[-9, -2, 0])
@example(tb=[3, 5, 5, 7], q=[7, 8, 20, 20])
def test_ranks_match_searchsorted(tb, q):
    tb, q = np.array(tb, dtype=np.int64), np.array(q, dtype=np.int64)
    assert np.array_equal(_ranks(tb, q), np.searchsorted(tb, q, side="right"))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(-5, 5), max_size=30), rows=st.integers(1, 3))
@example(values=[], rows=1)
@example(values=[], rows=3)
def test_distinct_matches_np_unique(values, rows):
    values = np.array(values[: len(values) // rows * rows], dtype=np.int64)
    values = values.reshape(rows, -1)
    keys, index = _distinct(values)
    ref_keys, ref_index = np.unique(values, return_inverse=True)
    assert np.array_equal(keys, ref_keys)
    assert np.array_equal(index, ref_index.reshape(values.shape))


# (delays, tauc) in seconds whose window edges stress the binning table
_EDGE_SETS = {
    # tau_c = bin/2: a high edge one tick past the next window's low edge
    "half_bin_ticks": (np.arange(-10, 11) * 2e-15, 1e-15),
    "half_bin": (np.arange(-10, 11) * 1e-9, 0.5e-9),
    "mc_narrow": (np.arange(-25, 26) * 1e-9, 5e-9),
    "mc_wide": (np.arange(-50, 51) * 1e-8, 5e-8),
    "repeated": (np.array([0, 0, 3, 3, 3, -7]) * 1e-9, 2e-9),
    "single": (np.array([0.0]), 5e-9),
    # 5 ticks between the outer edges, below 16 per edge: one-tick cells
    "shift_zero": (np.array([0, 1, 2]) * 1e-15, 1e-15),
    "span_1e9": (np.linspace(-5e-7, 5e-7, 5), 1e-12),
    # forty edges inside one cell of a 1e9-tick range
    "clustered": (np.append(np.arange(20) * 1e-15, 1e-6), 1e-15),
}


@pytest.mark.parametrize("name", sorted(_EDGE_SETS))
@pytest.mark.parametrize("mirrored", [False, True])
def test_table_binning_matches_searchsorted(name, mirrored):
    lows, highs = _window_bounds(*_EDGE_SETS[name])
    if mirrored:  # the windows reflected about half a tick: [1 - high, 1 - low)
        lows, highs = 1 - highs, 1 - lows
    edges = np.sort(np.concatenate((lows, highs)))
    lo, hi = edges[0], edges[-1]
    d = np.concatenate((edges - 1, edges, edges + 1,
                        np.random.default_rng(7).integers(lo, hi + 1, 1000)))
    d = d[(d >= lo) & (d <= hi)]
    before = d.copy()
    bins = _edge_binner(edges)(d)
    assert np.array_equal(bins, np.searchsorted(edges, d, side="right") - 1)
    assert np.array_equal(d, before)


@st.composite
def _edge_runs(draw):
    """Sorted edges in runs one tick apart, a run starting on the last edge
    of the one before (a repeated edge) or up to 1e9 ticks after it, so one
    cell of the table holds several edges."""
    edge = draw(st.integers(-10**12, 10**12))
    edges = []
    for run, gap in draw(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10**9)),
                                  min_size=1, max_size=10)):
        edges.extend(range(edge, edge + run))
        edge += run - 1 + gap
    return np.array(edges, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(edges=_edge_runs(), picks=st.lists(st.integers(0, 2**62), max_size=30))
@example(edges=np.array([0, 1, 2, 3, 4, 10**6]), picks=[])
@example(edges=np.array([5, 5, 6, 6, 6, 7, 10**9, 10**9 + 1]), picks=[])
@example(edges=np.array([-3, -2]), picks=[0, 1])
@example(edges=np.array([7]), picks=[0])
def test_edge_binner_matches_searchsorted(edges, picks):
    lo, hi = int(edges[0]), int(edges[-1])
    d = np.concatenate((edges - 1, edges, edges + 1,
                        lo + np.array(picks, dtype=np.int64) % (hi - lo + 1)))
    d = d[(d >= lo) & (d <= hi)]
    before = d.copy()
    bins = _edge_binner(edges)(d)
    assert np.array_equal(bins, np.searchsorted(edges, d, side="right") - 1)
    assert np.array_equal(d, before)


class TestEstimators:
    def test_lookup_off_grid_raises(self):
        delays = np.arange(-20, 21) * 1e-9
        assert _grid_index(delays, 20e-9) == 40 and _grid_index(delays, -20e-9) == 0
        assert type(_grid_index(delays, 0.0)) is int
        for delay in (1.0, 0.5e-9, 21e-9):
            with pytest.raises(GridError, match="not a point of the grid"):
                _grid_index(delays, delay)
        est = EstimatorCurve(delays, np.arange(41.0), np.ones(41))
        assert at(est, 20e-9) == 40.0
        assert at(est, -20e-9, field="stderr") == 1.0
        surface = CorrelationSurface(delays, np.arange(41.0**2).reshape(41, 41))
        assert at(surface, 20e-9, -20e-9) == 40 * 41
        with pytest.raises(GridError):
            at(surface, 0.0, 0.5e-9)

    def test_lookup_array_matches_nearest_point(self):
        grid = np.arange(-400, 401) * 5e-11
        queries = grid[::-7] * (1 + 1e-9)
        want = [int(np.argmin(np.abs(grid - x))) for x in queries]
        assert _grid_index(grid, queries).tolist() == want
        assert _grid_index(grid, queries[:0]).size == 0
        with pytest.raises(GridError):
            _grid_index(grid, np.append(queries, 1.23e-11))

    def test_accidentals_normalize_to_one(self):
        duration = 1.0
        a = poisson_stream("signal1", 1e6, duration, 90)
        b = poisson_stream("idler", 1e6, duration, 91)
        delays = np.arange(-5, 6) * 100e-9
        h = pair_histogram(a, b, delays, 20e-9)
        est = estimate_g2bar_si(h, singles_rate(a), singles_rate(b))
        z = (est.values - 1.0) / est.stderr
        assert np.all(np.abs(z) < 4)

    def test_desk_plateau(self):
        src = SourceParams(2e7, 1e-9)
        chain = DetectorChain(jitter_width=1e-9)
        pairs = gen_poisson_pairs(src, 0.05, seed=92)
        idler, s1, s2 = apply_detector_chain(pairs, chain, seed=92)
        delays = np.arange(-12, 13) * 1e-9
        h = pair_histogram(s1, idler, delays, 5e-9)
        est = estimate_g2bar_si(h, singles_rate(s1), singles_rate(idler))
        plateau = at(est, 0.0)
        assert abs(plateau - 6.0) < 3 * at(est, 0.0, field="stderr")
        far = at(est, 12e-9)
        assert abs(far - 1.0) < 3 * at(est, 12e-9, field="stderr")

    def test_gbar2c_long_delay_unity_and_flagging(self):
        src = SourceParams(2e7, 1e-9)
        chain = DetectorChain(jitter_width=1e-9)
        pairs = gen_poisson_pairs(src, 0.05, seed=93)
        idler, s1, s2 = apply_detector_chain(pairs, chain, seed=93)
        delays = np.arange(-20, 21) * 1e-9
        tauc = 5e-9
        tri = triple_histogram(idler, s1, s2, delays, tauc)
        pair2 = pair_histogram(s2, idler, delays, tauc)
        zero = pair_histogram(s1, idler, np.array([0.0]), tauc)
        est = estimate_gbar2_c(
            tri, float(zero.rates[0]), pair2, singles_rate(idler)
        )
        short = at(est, 0.0)
        assert short == pytest.approx(11.0 / 36.0, rel=0.05)
        far = at(est, 20e-9)
        assert abs(far - 1.0) < 4 * at(est, 20e-9, field="stderr")

    def test_efficiency_invariance(self):
        src = SourceParams(2e7, 1e-9)
        duration = 0.05
        values = {}
        for eta in (1.0, 0.5):
            chain = DetectorChain(
                idler_efficiency=eta, signal_efficiency=eta, jitter_width=1e-9
            )
            pairs = gen_poisson_pairs(src, duration, seed=94)
            idler, s1, s2 = apply_detector_chain(pairs, chain, seed=94)
            delays = np.array([0.0])
            h = pair_histogram(s1, idler, delays, 5e-9)
            est = estimate_g2bar_si(h, singles_rate(s1), singles_rate(idler))
            values[eta] = (est.values[0], est.stderr[0])
        v1, e1 = values[1.0]
        v2, e2 = values[0.5]
        assert abs(v1 - v2) < 3 * np.hypot(e1, e2)

    def test_zero_rate_rejected(self):
        h = pair_histogram(
            poisson_stream("signal1", 1e6, 1e-4, 95),
            poisson_stream("idler", 1e6, 1e-4, 96),
            np.array([0.0]),
            1e-9,
        )
        with pytest.raises(ValueError):
            estimate_g2bar_si(h, RateEstimate(0.0, 0.0), RateEstimate(1e6, 1e3))

    def test_empty_denominator_bins_flagged(self):
        i = stream("idler", [100e-9])
        s1 = stream("signal1", [100e-9])
        s2 = stream("signal2", [500e-9])
        delays = np.array([0.0, 400e-9])
        tri = triple_histogram(i, s1, s2, delays, 1e-9)
        pair2 = pair_histogram(s2, i, delays, 1e-9)
        est = estimate_gbar2_c(tri, 1e3, pair2, RateEstimate(1e3, 30.0))
        assert np.isnan(est.values[0])  # no signal2 partner at zero delay
        assert np.isfinite(est.values[1])
