import numpy as np
import pytest

from spdclab import (
    DetectorChain,
    GuardError,
    SourceParams,
    apply_detector_chain,
    gen_poisson_pairs,
    gen_thermal_cells,
    pair_histogram,
    singles_rate,
    estimate_g2bar_si,
)
from spdclab.events import _to_stream

DESK = SourceParams(2e7, 1e-9)


def cell_counts(pairs, duration, dt):
    n_cells = int(np.ceil(duration / dt))
    cells = np.floor_divide(pairs.times, dt).astype(np.int64)
    return np.bincount(cells, minlength=n_cells)


class TestThermalCells:
    def test_bose_einstein_pmf(self):
        # mu = 0.02: P(0), P(1), P(2) from the closed-form pmf
        duration = 2e-3  # 2e6 cells
        pairs = gen_thermal_cells(DESK, duration, seed=5)
        counts = cell_counts(pairs, duration, DESK.coherence_time)
        n = counts.size
        expected = {
            0: 0.9803921568627451,
            1: 0.019223375624759707,
            2: 0.00037692893381881774,
        }
        for k, pk in expected.items():
            observed = np.sum(counts == k) / n
            sigma = np.sqrt(pk * (1 - pk) / n)
            assert abs(observed - pk) < 4 * sigma, (k, observed, pk)

    def test_super_poissonian_variance(self):
        duration = 2e-3
        pairs = gen_thermal_cells(DESK, duration, seed=6)
        counts = cell_counts(pairs, duration, DESK.coherence_time)
        ratio = counts.var() / counts.mean()
        # BE variance / mean = 1 + mu
        sigma = np.sqrt(2.0 / counts.size) * (1 + DESK.mu)
        assert abs(ratio - (1 + DESK.mu)) < 5 * sigma

    def test_empirical_rate(self):
        duration = 5e-3
        pairs = gen_thermal_cells(DESK, duration, seed=7)
        rate = len(pairs) / duration
        sigma = np.sqrt(DESK.pair_rate * (1 + DESK.mu) / duration)
        assert abs(rate - DESK.pair_rate) < 4 * sigma

    def test_zero_duration_empty(self):
        for gen in (gen_thermal_cells, gen_poisson_pairs):
            pairs = gen(DESK, 0.0, seed=1)
            assert len(pairs) == 0 and pairs.duration == 0.0

    def test_mu_guard(self):
        with pytest.warns(Warning):
            bright = SourceParams(2e9, 1e-9)  # mu = 2
        with pytest.raises(GuardError):
            gen_thermal_cells(bright, 1e-6, seed=1)

    def test_deterministic(self):
        a = gen_thermal_cells(DESK, 1e-4, seed=42)
        b = gen_thermal_cells(DESK, 1e-4, seed=42)
        assert np.array_equal(a.times, b.times)
        c = gen_thermal_cells(DESK, 1e-4, seed=43)
        assert not np.array_equal(a.times, c.times)

    def test_times_inside_cells(self):
        pairs = gen_thermal_cells(DESK, 1e-4, seed=3)
        cells = np.floor_divide(pairs.times, DESK.coherence_time)
        assert np.all(np.diff(pairs.times) >= 0)
        assert np.all(cells < np.ceil(1e-4 / DESK.coherence_time))
        assert np.all(pairs.times < 1e-4)
        assert np.all(pairs.times >= 0)


class TestPoissonPairs:
    def test_poissonian_variance(self):
        duration = 2e-3
        pairs = gen_poisson_pairs(DESK, duration, seed=8)
        counts = cell_counts(pairs, duration, DESK.coherence_time)
        ratio = counts.var() / counts.mean()
        sigma = np.sqrt(2.0 / counts.size)
        assert abs(ratio - 1.0) < 5 * sigma

    def test_empirical_rate(self):
        duration = 5e-3
        pairs = gen_poisson_pairs(DESK, duration, seed=9)
        rate = len(pairs) / duration
        sigma = np.sqrt(DESK.pair_rate / duration)
        assert abs(rate - DESK.pair_rate) < 3 * sigma

    def test_pmf_ratio_vs_thermal(self):
        # P(2)/P(1) separates the two counting models: mu/2 vs mu/(1+mu)
        duration = 4e-3
        mu = DESK.mu
        pois = cell_counts(
            gen_poisson_pairs(DESK, duration, 10), duration, DESK.coherence_time
        )
        ther = cell_counts(
            gen_thermal_cells(DESK, duration, 10), duration, DESK.coherence_time
        )
        ratio_p = np.sum(pois == 2) / np.sum(pois == 1)
        ratio_t = np.sum(ther == 2) / np.sum(ther == 1)
        assert ratio_p == pytest.approx(mu / 2, rel=0.25)
        assert ratio_t == pytest.approx(mu / (1 + mu), rel=0.25)
        assert ratio_t > ratio_p

    def test_deterministic(self):
        a = gen_poisson_pairs(DESK, 1e-4, seed=42)
        b = gen_poisson_pairs(DESK, 1e-4, seed=42)
        assert np.array_equal(a.times, b.times)


class TestDetectorChain:
    def test_identity_chain(self):
        pairs = gen_poisson_pairs(DESK, 1e-4, seed=11)
        idler, s1, s2 = apply_detector_chain(
            pairs, DetectorChain(splitter_ratio=1.0), seed=11
        )
        expected = np.unique(np.rint(pairs.times * 1e15).astype(np.int64))
        assert np.array_equal(s1.timestamps, expected)
        assert np.array_equal(idler.timestamps, expected)
        assert len(s2) == 0

    def test_binomial_thinning(self):
        pairs = gen_poisson_pairs(DESK, 1e-4, seed=12)
        n = len(pairs)
        for seed in range(20, 30):
            idler, _, _ = apply_detector_chain(
                pairs, DetectorChain(idler_efficiency=0.5), seed=seed
            )
            assert abs(len(idler) - n / 2) < 3.5 * np.sqrt(n) / 2

    def test_desk_signal_count_thinned_thermal(self):
        # R = 2e7/s, eta = 1, 50/50 split: signal1 expectation R T / 2 with
        # thinned-thermal variance; checked across 10 seeds
        duration = 0.05
        expected = DESK.pair_rate * duration / 2
        for seed in range(40, 50):
            pairs = gen_thermal_cells(DESK, duration, seed=seed)
            _, s1, _ = apply_detector_chain(pairs, DetectorChain(), seed=seed)
            var = expected * (1 + DESK.mu / 2)  # p^2 var_N + p(1-p) E[N]
            assert abs(len(s1) - expected) < 4 * np.sqrt(var)

    def test_splitting_merge_recovers_signal_stream(self):
        pairs = gen_thermal_cells(DESK, 1e-4, seed=13)
        chain = DetectorChain(signal_efficiency=0.8)
        _, s1, s2 = apply_detector_chain(pairs, chain, seed=13)
        all_chain = DetectorChain(signal_efficiency=0.8, splitter_ratio=1.0)
        _, s_all, _ = apply_detector_chain(pairs, all_chain, seed=13)
        merged = np.union1d(s1.timestamps, s2.timestamps)
        assert np.array_equal(merged, s_all.timestamps)

    def test_channel_substreams_independent(self):
        pairs = gen_poisson_pairs(DESK, 1e-4, seed=14)
        _, s1_a, s2_a = apply_detector_chain(
            pairs, DetectorChain(idler_efficiency=1.0), seed=14
        )
        _, s1_b, s2_b = apply_detector_chain(
            pairs, DetectorChain(idler_efficiency=0.0), seed=14
        )
        assert np.array_equal(s1_a.timestamps, s1_b.timestamps)
        assert np.array_equal(s2_a.timestamps, s2_b.timestamps)

    def test_jitter_moves_events_within_bounds(self):
        pairs = gen_poisson_pairs(DESK, 1e-4, seed=15)
        chain = DetectorChain(jitter_width=1e-9)
        idler, s1, s2 = apply_detector_chain(pairs, chain, seed=15)
        for stream in (idler, s1, s2):
            assert np.all(stream.timestamps >= 0)
            assert np.all(stream.timestamps <= stream.duration)
        # jittered idler differs from the unjittered one
        idler0, _, _ = apply_detector_chain(pairs, DetectorChain(), seed=15)
        assert not np.array_equal(idler.timestamps, idler0.timestamps)


class TestToStream:
    @pytest.mark.parametrize("jitter", [0.0, 4e-12])
    def test_dedup_matches_np_unique(self, jitter):
        # a 1000-tick run: repeated emission times collide on one tick, and
        # times (or jitter) beyond both run edges pile up on tick 0 and 1000
        duration = 1e-12
        rng = np.random.default_rng(19)
        times = np.repeat(rng.uniform(-0.5, 1.5, 300) * duration,
                          rng.integers(1, 4, 300))
        stream = _to_stream("idler", times, jitter, duration,
                            np.random.default_rng(20))
        if jitter:
            times = times + np.random.default_rng(20).uniform(
                -jitter / 2, jitter / 2, times.size)
        ticks = np.clip(np.rint(times * 1e15).astype(np.int64), 0, 1000)
        expected = np.unique(ticks)
        assert np.array_equal(stream.timestamps, expected)
        assert expected[0] == 0 and expected[-1] == 1000
        assert np.sum(ticks == 0) > 1 and np.sum(ticks == 1000) > 1
        assert expected.size < np.unique(times).size

    def test_empty(self):
        stream = _to_stream("idler", np.empty(0), 1e-9, 1e-12,
                            np.random.default_rng(21))
        assert len(stream) == 0 and stream.duration == 1000


class TestStatisticalSignatures:
    def test_empirical_si_excess_integral(self):
        # the signal-idler excess integral measures (1 + mu) / R for the
        # bunched cell model
        duration = 0.02
        pairs = gen_thermal_cells(DESK, duration, seed=16)
        idler, s1, s2 = apply_detector_chain(pairs, DetectorChain(), seed=16)
        bin_w = 0.25e-9
        delays = np.arange(-16, 17) * 2 * bin_w
        hist = pair_histogram(s1, idler, delays, bin_w)
        ri, r1 = singles_rate(idler), singles_rate(s1)
        est = estimate_g2bar_si(hist, r1, ri)
        integral = np.sum(est.values - 1) * 2 * bin_w
        err = np.sqrt(np.sum(est.stderr**2)) * 2 * bin_w
        expected = (1 + DESK.mu) / DESK.pair_rate
        assert abs(integral - expected) < 3 * err

    def test_fine_grained_bunching_separates_models(self):
        duration = 0.25
        w = DESK.coherence_time / 40  # bin width dt/20
        results = {}
        for name, gen, seed in (
            ("thermal", gen_thermal_cells, 17),
            ("poisson", gen_poisson_pairs, 18),
        ):
            pairs = gen(DESK, duration, seed)
            _, s1, s2 = apply_detector_chain(pairs, DetectorChain(), seed=seed)
            hist = pair_histogram(s1, s2, np.array([0.0]), w)
            est = estimate_g2bar_si(hist, singles_rate(s1), singles_rate(s2))
            results[name] = (est.values[0], est.stderr[0])
        g_t, e_t = results["thermal"]
        g_p, e_p = results["poisson"]
        assert abs(g_t - 2.0) / 2.0 < 0.05
        assert abs(g_p - 1.0) < 0.05
        assert (g_t - g_p) / np.hypot(e_t, e_p) > 10
