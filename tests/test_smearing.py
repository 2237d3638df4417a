import functools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdclab import (
    AnalysisWindow,
    GridError,
    GuardError,
    ResponseKernel,
    SourceParams,
    build_kernel,
    gbar2c_analytic,
    predict_plateaus,
    smear_curves,
    smear_surface,
)
from spdclab import model, smearing

from _oracles import (at, cross_sq_cumulative, dense_p_ssi, dense_smear_surface,
                      exact_kernel_samples, hexagon_cell_areas, kernel_value,
                      numeric_smear)


class TestBuildKernel:
    def test_zero_jitter_box(self):
        k = build_kernel(1.5e-9, 0.0, 5e-11)
        assert k.plateau_height == pytest.approx(1 / 3e-9, rel=1e-14)
        assert kernel_value(k, 1.4e-9) == k.plateau_height
        assert kernel_value(k, 1.6e-9) == 0.0
        assert k.samples.sum() * k.grid_step == pytest.approx(1.0, abs=1e-13)

    def test_trapezoid_geometry(self):
        # tau_c = 1.5 ns with 0.35 ns jitter: flat inside 1.15 ns, dead
        # beyond 1.85 ns
        k = build_kernel(1.5e-9, 0.35e-9, 1e-11)
        p = k.plateau_height
        assert kernel_value(k, 1.14e-9) == p
        assert kernel_value(k, 1.5e-9) == pytest.approx(p / 2, rel=1e-12)
        assert kernel_value(k, 1.86e-9) == 0.0
        mid = (kernel_value(k, 1.2e-9) + kernel_value(k, 1.8e-9))
        assert mid == pytest.approx(p, rel=1e-9)

    def test_plateau_height_and_area(self):
        k = build_kernel(5e-9, 1e-9, 2e-11)
        assert k.plateau_height == pytest.approx(1e8, rel=1e-14)
        # oracle: numeric quadrature of the analytic shape
        fine = np.linspace(-7e-9, 7e-9, 200001)
        assert np.trapezoid(kernel_value(k, fine), fine) == pytest.approx(1.0, rel=1e-9)
        assert k.samples.sum() * k.grid_step == pytest.approx(1.0, abs=1e-12)

    def test_jitter_dominated_reports_max_value(self):
        k = build_kernel(1e-9, 3e-9, 4e-11)
        assert k.plateau_height == pytest.approx(1 / 6e-9, rel=1e-14)
        assert np.max(k.samples) == pytest.approx(k.plateau_height, rel=1e-9)
        assert k.samples.sum() * k.grid_step == pytest.approx(1.0, abs=1e-12)

    def test_kernels_built_alike_compare_and_hash_alike(self):
        a, b = build_kernel(5e-9, 1e-9, 5e-11), build_kernel(5e-9, 1e-9, 5e-11)
        assert a == b and hash(a) == hash(b)
        assert a.samples is not b.samples
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a != build_kernel(5e-9, 1e-9, 2.5e-11)
        assert len({a, b, build_kernel(5e-9, 0.0, 5e-11)}) == 2

    def test_coarse_grid_cut_into_sample_steps(self):
        # grid_step in the fewest equal parts no coarser than a twentieth of
        # the smaller time scale, of tau_c at tau_d = 0
        for args, parts in (((1.5e-9, 0.35e-9, 0.35e-9 / 10), 2),
                            ((1.5e-9, 0.0, 1e-10), 2),
                            ((1.5e-9, 0.0, 7.5e-11), 1),  # exactly tau_c / 20
                            ((5e-9, 1e-9, 1e-9), 20),
                            ((5e-9, 1e-9, 1e-6), 20_000)):
            k = build_kernel(*args)
            assert k.sample_step == k.grid_step / parts
        # the desk kernel on the 1 ns count grid samples on the desk step
        assert build_kernel(5e-9, 1e-9, 1e-9).samples.tobytes() == (
            build_kernel(5e-9, 1e-9, 5e-11).samples.tobytes())
        for step in (-5e-11, 0.0, np.nan):
            with pytest.raises(GridError, match="grid_step"):
                build_kernel(1.5e-9, 0.35e-9, step)

    @pytest.mark.parametrize("args, message", [
        ((0.0, 1e-9, 5e-11), "coincidence half-width must be > 0"),
        ((5e-9, -1e-9, 5e-11), "jitter must be >= 0"),
        ((5e-9, 1e-9, 0.0), "grid_step must be > 0, got 0"),
    ], ids=["no_window", "negative_jitter", "zero_step"])
    def test_every_kernel_checked(self, args, message):
        # however a kernel is built, the same inputs are refused alike
        for build in (build_kernel, ResponseKernel):
            with pytest.raises(GridError, match=re.escape(message)):
                build(*args)

    @pytest.mark.parametrize("args, bound", [
        ((5e-9, 1e-9, 5e-11), 2.35e-12),
        ((5e-9, 0.0, 5e-11), 2.26e-14),
        ((1e-9, 5e-9, 5e-11), 2.35e-12),
        ((2e-9, 2e-9, 5e-11), 9.08e-13),
        ((5e-9, 5e-11, 2.5e-12), 3.26e-11),
    ], ids=["desk", "no_jitter", "jitter_dominated", "equal_scales", "narrow_jitter"])
    def test_samples_match_exact_rationals(self, args, bound):
        # bound: the worst relative error, rounded up, of the hand-written
        # trapezoid cumulative that the piecewise-polynomial response
        # replaced; the mirrored cells read 1.2e-14 to 1.5e-12 here
        k = build_kernel(*args)
        exact = exact_kernel_samples(k)
        worst = max(abs(Fraction(v) - e) / e
                    for v, e in zip(k.samples.tolist(), exact) if e)
        assert worst <= bound


@functools.cache
def _desk_curves(shape, statistics):
    """``smear_curves`` of the desk kernel on the whole desk delay grid."""
    return smear_curves(SourceParams(2e7, 1e-9, shape, statistics),
                        build_kernel(5e-9, 1e-9, 5e-11),
                        AnalysisWindow(5e-9, 5e-11, 2e-8).delays())


def _raw_g2_si(p, step, half_n):
    """g2_si as cell averages of 1 + C^2/R^2 on arange(-half_n, half_n + 1) * step."""
    grid = np.arange(-half_n, half_n + 1) * step
    c2 = smearing._cell_average(lambda t: cross_sq_cumulative(p, t), grid, step)
    return grid, 1.0 + c2 / p.pair_rate**2


class TestSmearCurve:
    def test_plateau_zero_jitter_low_mu(self):
        # R = 43 MHz, mu = 1.4e-5, tau_c = 1.5 ns: plateau 1 + 1/(2 R tau_c)
        p = SourceParams(4.3e7, 1.4e-5 / 4.3e7)
        k = build_kernel(1.5e-9, 0.0, 5e-11)
        curve = smear_curves(p, k, np.arange(-49, 50) * 5e-11)[0]
        x = 7.751937984496124
        inside = np.abs(curve.delays) <= 1.4e-9
        assert np.allclose(curve.values[inside], 1 + x, rtol=1e-9)
        outside = np.abs(curve.delays) >= 1.6e-9
        assert np.allclose(curve.values[outside], 1.0, rtol=1e-9)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_far_values_equal_kernel_area(self, shape):
        # beyond the peak's reach the smeared C^2 is exactly zero, so every
        # value is the kernel's discrete area s, bit for bit
        p = SourceParams(2e7, 1e-9, shape)
        k = build_kernel(5e-9, 1e-9, 5e-11)
        curve = smear_curves(p, k, np.arange(-400, 401) * 5e-11)[0]
        s = k.samples.sum() * k.grid_step
        reach = model.support(p) + k.support_halfwidth + k.grid_step
        far = np.abs(curve.delays) > reach
        assert np.count_nonzero(far) > curve.values.size // 2
        assert np.all(curve.values[far].view(np.int64) == np.float64(s).view(np.int64))

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_plateau_shape_blind(self, shape):
        p = SourceParams(2e7, 1e-9, shape)
        k = build_kernel(1e-7, 2.5e-8, 5e-10)
        curve = smear_curves(p, k, np.arange(-389, 390) * 5e-10)[0]
        x = k.plateau_height / p.pair_rate
        inside = np.abs(curve.delays) <= 7e-8
        assert np.allclose(curve.values[inside], 1 + x, rtol=1e-10)

    def test_shape_difference_small_everywhere(self):
        pb = SourceParams(2e7, 1e-9, "box")
        pt = SourceParams(2e7, 1e-9, "triangle")
        k = build_kernel(1e-7, 2.5e-8, 5e-10)
        delays = np.arange(-389, 390) * 5e-10
        cb = smear_curves(pb, k, delays)[0]
        ct = smear_curves(pt, k, delays)[0]
        assert np.max(np.abs(cb.values - ct.values) / cb.values) < 1e-3

    def test_excess_integral_conserved(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(1e-7, 2.5e-8, 5e-10)
        _, raw = _raw_g2_si(p, 5e-10, 640)
        out = smear_curves(p, k, np.arange(-389, 390) * 5e-10)[0]
        target = 1.0 / p.pair_rate
        raw_excess = np.sum(raw - 1) * 5e-10
        out_excess = np.sum(out.values - 1) * (out.delays[1] - out.delays[0])
        assert raw_excess == pytest.approx(target, rel=1e-12)
        assert out_excess == pytest.approx(target, rel=1e-6)

    def test_matches_naive_convolution(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 4e-11)
        grid, raw = _raw_g2_si(p, 4e-11, 350)
        d_ref, v_ref = numeric_smear(grid, raw, k.samples, 4e-11)
        out = smear_curves(p, k, d_ref)[0]
        assert np.array_equal(out.delays, d_ref)
        assert np.allclose(out.values, v_ref, rtol=1e-12, atol=0)

    def test_off_grid_delays_rejected(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 5e-11)
        with pytest.raises(GridError, match="not a point of the grid"):
            smear_curves(p, k, np.array([0.0, 1.23e-11]))

    @pytest.mark.parametrize("smear", [smear_curves, gbar2c_analytic])
    def test_empty_delay_set_refused(self, smear):
        # the refusal of the counter's empty grid, from the same helper
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 5e-11)
        for delays in ([], np.array([])):
            with pytest.raises(GridError, match="the delay grid holds no delay"):
                smear(p, k, delays)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_coarse_grid_reads_the_fine_curves(self, shape):
        # the desk kernel on the 1 ns count grid: each curve's 41 values are
        # the 50 ps run's at the same delays, matched by the grid-point rule
        # (k * 1e-9 and 20k * 5e-11 differ in the last bit at some delays)
        p = SourceParams(2e7, 1e-9, shape, "thermal")
        coarse = AnalysisWindow(5e-9, 1e-9, 2e-8).delays()
        fine = AnalysisWindow(5e-9, 5e-11, 2e-8).delays()
        got = smear_curves(p, build_kernel(5e-9, 1e-9, 1e-9), coarse)
        ref = smear_curves(p, build_kernel(5e-9, 1e-9, 5e-11), fine)
        i = smearing._grid_index(fine, coarse)
        for g, r in zip(got, ref):
            assert g.delays.tobytes() == coarse.tobytes()
            assert g.values.tobytes() == r.values[i].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(0, 800), min_size=1, max_size=12, unique=True),
           shape=st.sampled_from(["box", "triangle"]),
           statistics=st.sampled_from(["thermal", "poisson"]))
    @example(picks=[400], shape="box", statistics="thermal")  # delay 0 alone
    @example(picks=[400, 402, 500], shape="box", statistics="thermal")
    def test_any_delay_set_reads_the_full_grid(self, picks, shape, statistics):
        # one delay, a non-uniform set or an unsorted one: each value is the
        # full desk grid's at that delay, bit for bit
        p = SourceParams(2e7, 1e-9, shape, statistics)
        k = build_kernel(5e-9, 1e-9, 5e-11)
        full = AnalysisWindow(5e-9, 5e-11, 2e-8).delays()
        ref = _desk_curves(shape, statistics)
        got = smear_curves(p, k, full[picks])
        for g, r in zip(got, ref):
            assert g.delays.tobytes() == full[picks].tobytes()
            assert g.values.tobytes() == r.values[picks].tobytes()

    def test_rejects_finer_curve(self):
        # smear_surface samples on the kernel grid itself; the dense oracle
        # it is checked against refuses a surface on another grid
        p = SourceParams(2e7, 1e-9)
        with pytest.raises(GridError, match="kernel grid"):
            dense_smear_surface(dense_p_ssi(p, np.arange(-120, 121) * 2.5e-11, 2.5e-11),
                                build_kernel(1e-9, 0.0, 5e-11))


class TestPredictPlateaus:
    def test_large_x_values(self):
        p = SourceParams(4.3e7, 1.4e-5 / 4.3e7)
        k = build_kernel(1.5e-9, 0.1e-9, 5e-12)
        pred = predict_plateaus(p, k)
        assert pred.X == pytest.approx(7.751937984496124, rel=1e-12)
        assert pred.g2si_plateau == pytest.approx(8.751937984496124, rel=1e-12)
        assert pred.gbar2c_short == pytest.approx(0.21546537417202177, rel=1e-12)
        # large-X approximation 4 R tau_c is in the right ballpark
        assert pred.gbar2c_short == pytest.approx(0.258, rel=0.2)

    def test_desk_values(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 2e-11)
        pred = predict_plateaus(p, k)
        assert pred.X == pytest.approx(5.0, rel=1e-12)
        assert pred.g2si_plateau == pytest.approx(6.0, rel=1e-12)
        assert pred.nssi_short == pytest.approx(11 * 8e21, rel=1e-12)
        assert pred.nssi_long == pytest.approx(6 * 8e21, rel=1e-12)
        assert pred.gbar2c_short == pytest.approx(11.0 / 36.0, rel=1e-12)

    def test_vanishing_rate_limit(self):
        p = SourceParams(1e3, 1e-12)
        k = build_kernel(5e-9, 0.0, 2e-10)
        pred = predict_plateaus(p, k)
        assert pred.X == pytest.approx(1e5, rel=1e-12)
        assert pred.gbar2c_short == pytest.approx(2.0 / pred.X, rel=1e-4)
        assert pred.gbar2c_short < 1e-4


class TestSmearSurface:
    def test_three_level_structure(self):
        # moderate scale separation for a quick check of floor / ridge /
        # center levels
        mu = 1e-6
        rate = 1e6
        p = SourceParams(rate, mu / rate)
        dt = p.coherence_time
        tauc, taud = 100 * dt, 25 * dt
        step = dt
        k = build_kernel(tauc, taud, step)
        sm = smear_surface(p, k, 264 * dt)
        r3 = rate**3
        x = k.plateau_height / rate
        far = at(sm, 255 * dt, -255 * dt)
        ridge = at(sm, 0.0, 255 * dt)
        center = at(sm, 0.0, 0.0)
        assert far == pytest.approx(r3, rel=1e-6)
        assert ridge == pytest.approx(r3 * (1 + x), rel=1e-6)
        # center sits at R^3 (1 + 2X) up to the documented O(dt/tau_c)
        # ridge-junction correction
        assert center == pytest.approx(r3 * (1 + 2 * x), rel=5 * dt / tauc)
        excess_ratio = (center - r3) / (ridge - r3)
        assert abs(excess_ratio - 2.0) <= 5 * dt / tauc

    def test_symmetric_output(self):
        p = SourceParams(1e6, 1e-9)
        dt = p.coherence_time
        k = build_kernel(20 * dt, 4 * dt, dt / 5)
        sm = smear_surface(p, k, 35.7 * dt)
        assert np.allclose(sm.values, sm.values.T, rtol=1e-12)

    def test_memory_guard_before_allocation(self):
        import tracemalloc

        p = SourceParams(1e6, 1e-9)
        k = build_kernel(1e-9, 0.0, 5e-11)
        # 11,957 written rows and columns: 1.43e8 cells, 1.14 GB of float64
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="cells"):
                smear_surface(p, k, 5978 * 5e-11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_central_block_memory_bounded_at_short_coherence(self):
        import tracemalloc

        # dt = 0.5 ps on the desk grid: the peak lies inside the centre cell,
        # and its neighbours, clipped to the support, are empty
        p = SourceParams(2e7, 5e-13)
        grid = np.arange(-521, 522) * 5e-11
        tracemalloc.start()
        try:
            block = smearing._ccr_block(p, grid, 5e-11, np.ones(1),
                                        np.arange(grid.size))[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 10**6
        assert block.shape == (3, 3)
        # all of the term's weight sits in the centre cell
        assert block[1, 1] > 0 and np.count_nonzero(block) == 1

    def test_central_block_guard_at_long_coherence(self):
        import tracemalloc

        # dt = 10 us on the desk grid over a 20 us span: 2e5 block cells of
        # one subcell each, so the 2e4 rows within 0.5 us of zero would read
        # the antiderivative 1.6e10 times (a low rate keeps mu = R dt small)
        p = SourceParams(1e3, 1e-5)
        grid = np.arange(-400_000, 400_001) * 5e-11
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="central block work"):
                smearing._ccr_block(p, grid, 5e-11, np.ones(1),
                                    np.arange(400_000 - 10_000, 400_000 + 10_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 10**6

    @pytest.mark.parametrize("dt", [5e-12, 1e-10, 1e-9, 3.3e-9])
    def test_box_block_mass_exact(self, dt):
        # 2 (R/dt) R over the hexagon |a|, |b|, |a - b| <= dt/2 of area
        # 3 dt^2 / 4, on the desk grid whatever dt is
        p = SourceParams(2e7, dt)
        step = 5e-11
        block = smearing._ccr_block(p, np.arange(-521, 522) * step, step, np.ones(1),
                                   np.arange(1043))[-1]
        mass = block.sum() * step**2
        assert mass == pytest.approx(1.5 * p.pair_rate**2 * dt, rel=1e-12)

    @pytest.mark.parametrize("dt", [1e-9, 1e-8])
    def test_box_block_matches_hexagon_oracle(self, dt):
        p = SourceParams(1e6, dt)
        step = 5e-11
        grid = np.arange(-521, 522) * step
        row0, col0, block = smearing._ccr_block(p, grid, step, np.ones(1),
                                                np.arange(grid.size))
        rows = grid[row0 : row0 + block.shape[0]]
        cols = grid[col0 : col0 + block.shape[1]]
        area = hexagon_cell_areas(rows, cols, step, dt / 2)
        expected = 2 * p.pair_rate**2 / dt * area / step**2
        assert np.max(np.abs(block - expected)) <= 1e-11 * np.max(expected)

    def test_triangle_block_mass(self):
        # 2 (R/dt) R dt^2 J with J the integral of
        # sqrt((1 - |x|)(1 - |y|)) (1 - |x - y|)+ over the unit square
        from scipy.integrate import quad

        def inner(x):
            def f(y):
                return np.sqrt((1 - abs(x)) * (1 - abs(y))) * (1 - abs(x - y))

            lo, hi = max(-1.0, x - 1), min(1.0, x + 1)
            cuts = sorted({lo, hi, *(c for c in (0.0, x) if lo < c < hi)})
            return sum(quad(f, a, b, epsabs=0, epsrel=1e-13)[0]
                       for a, b in zip(cuts, cuts[1:]))

        j = sum(quad(inner, a, b, epsabs=0, epsrel=1e-12)[0]
                for a, b in ((-1, 0), (0, 1)))
        assert j == pytest.approx(0.8654498469497874, rel=1e-10)
        p = SourceParams(2e7, 1e-9, "triangle")
        step = 5e-11
        block = smearing._ccr_block(p, np.arange(-521, 522) * step, step, np.ones(1),
                                   np.arange(1043))[-1]
        mass = block.sum() * step**2
        assert mass == pytest.approx(2 * j * p.pair_rate**2 * 1e-9, rel=1e-5)

    @pytest.mark.parametrize("dt, step", [(1e-9, 5e-11), (1e-9, 2e-10), (3e-10, 1e-10)])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_triangle_block_matches_quadrature(self, dt, step):
        # every cell average of 2 C(a) C(b) R(a - b) against nested quad, split
        # at a = 0, b = 0, a = b, |a - b| = dt and |a|, |b| = dt, where the
        # integrand has a kink or a square-root edge.  Measured: the worst
        # cells are 2.7e-5, 5.7e-5 and 8.5e-5 of the block maximum off, the
        # subcell midpoint rule for C; the quadrature agrees with itself at
        # ten times tighter tolerances to 1e-15 (its warnings are spurious)
        from scipy.integrate import quad

        p = SourceParams(2e7, dt, "triangle")
        r = p.pair_rate

        def f(b, a):
            ua, ub, ud = 1 - abs(a) / dt, 1 - abs(b) / dt, 1 - abs(a - b) / dt
            return 2 * r * r / dt * (ua * ub) ** 0.5 * ud if min(ua, ub, ud) > 0 else 0.0

        for a, b in ((0.2 * dt, -0.5 * dt), (-0.9 * dt, -0.3 * dt), (0.1 * dt, 0.7 * dt)):
            assert f(b, a) == pytest.approx(
                2 * model.cross_correlation(p, a) * model.cross_correlation(p, b)
                * model.auto_correlation(p, a - b), rel=1e-14)

        def integral(g, lo, hi, cuts, **kwargs):
            edges = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
            return sum(quad(g, x, y, epsabs=0, **kwargs)[0]
                       for x, y in zip(edges, edges[1:]))

        def cell(a, b):
            b0, b1 = b - step / 2, b + step / 2

            def inner(x):
                return integral(f, b0, b1, (0.0, x, x - dt, x + dt, -dt, dt),
                                args=(x,), epsrel=1e-12)

            # the inner integral kinks where a cut on b crosses the cell's edges
            cuts = (0.0, -dt, dt, *(e + o for e in (b0, b1) for o in (-dt, 0.0, dt)))
            return integral(inner, a - step / 2, a + step / 2, cuts, epsrel=1e-11) / step**2

        grid = np.arange(-40, 41) * step
        row0, col0, block = smearing._ccr_block(p, grid, step, np.ones(1),
                                                np.arange(grid.size))
        rows = grid[row0 : row0 + block.shape[0]]
        cols = grid[col0 : col0 + block.shape[1]]
        assert rows[0] < -dt and cols[-1] > dt
        ref = np.array([[cell(a, b) for b in cols] for a in rows])
        assert np.max(np.abs(block - ref)) <= 1e-4 * np.max(ref)

    def test_surface_within_kernel_support(self):
        # at max_delay = 0 the sample grid is the kernel's 243 points and
        # the surface its one valid cell, the wider surface's centre
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 5e-11)  # 243 samples
        sm = smear_surface(p, k, 0.0)
        assert sm.axis.tolist() == [0.0]
        assert sm.values[0, 0] == at(smear_surface(p, k, 1e-9), 0.0, 0.0)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    @pytest.mark.parametrize("statistics", ["thermal", "poisson"])
    def test_coarse_grid_keeps_the_fine_surface(self, shape, statistics):
        # the desk kernel on a 1 ns grid samples on 50 ps and keeps every
        # twentieth row and column: the 1 ns window grid bit for bit, and the
        # 50 ps surface's values at those delays bit for bit
        p = SourceParams(2e7, 1e-9, shape, statistics)
        coarse = smear_surface(p, build_kernel(5e-9, 1e-9, 1e-9), 2e-8)
        fine = smear_surface(p, build_kernel(5e-9, 1e-9, 5e-11), 2e-8)
        assert coarse.axis.tobytes() == (
            AnalysisWindow(5e-9, 1e-9, 2e-8).delays().tobytes())
        i = smearing._grid_index(fine.axis, coarse.axis)
        assert coarse.values.tobytes() == fine.values[np.ix_(i, i)].tobytes()

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    @pytest.mark.parametrize("statistics", ["thermal", "poisson"])
    def test_coarse_wide_surface_builds_only_its_cells(self, shape, statistics):
        # a 3e-7 s span of 1 ns cells: 601^2 written cells on a sample grid of
        # 12,243 points (1.5e8 cells), so only the kept rows and columns may
        # be built; the cells within the desk span are the 50 ps surface's
        import tracemalloc

        p = SourceParams(2e7, 1e-9, shape, statistics)
        k = build_kernel(5e-9, 1e-9, 1e-9)
        k.samples
        tracemalloc.start()
        try:
            coarse = smear_surface(p, k, 3e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 10**6
        assert coarse.values.shape == (601, 601)
        assert coarse.axis.tobytes() == (
            AnalysisWindow(5e-9, 1e-9, 3e-7).delays().tobytes())
        fine = smear_surface(p, build_kernel(5e-9, 1e-9, 5e-11), 2e-8)
        near = np.flatnonzero(np.abs(coarse.axis) <= 2e-8)
        i = smearing._grid_index(fine.axis, coarse.axis[near])
        assert near.size == 41
        assert (coarse.values[np.ix_(near, near)].tobytes()
                == fine.values[np.ix_(i, i)].tobytes())

    @pytest.mark.parametrize("shape, tauc, taud, step, half_span", [
        ("box", 5e-9, 1e-9, 5e-11, 2.605e-8),  # README desk: 1043^2 cells
        *[(shape, *case) for shape in ("box", "triangle") for case in (
            (5e-9, 1e-9, 5e-11, 1.2e-8),
            (5e-9, 0.0, 1e-10, 1.2e-8),
            (4e-8, 2e-8, 1e-9, 1.2e-7),  # step = dt
            (4e-8, 0.0, 2e-9, 1.5e-7),  # step > dt
        )],
    ])
    def test_matches_dense_oracle(self, shape, tauc, taud, step, half_span):
        # half_span is the sampled reach: max_delay + kernel support + one step
        p = SourceParams(2e7, 1e-9, shape)
        k = build_kernel(tauc, taud, step)
        max_delay = half_span - k.support_halfwidth - step
        sm = smear_surface(p, k, max_delay)
        assert sm.axis[-1] + step / 2 > max_delay  # every grid point within it
        ref = dense_smear_surface(dense_p_ssi(p, smearing._delay_grid(k, max_delay), step), k)
        assert np.array_equal(sm.axis, ref.axis)
        assert np.max(np.abs(sm.values - ref.values) / np.abs(ref.values)) <= 1e-12

    @pytest.mark.parametrize("shape, mass", [("box", 1.0), ("triangle", 2 / 3)])
    def test_thermal_excess_rows_hold_the_diagonal_mass(self, shape, mass):
        # beyond the central block's reach (7.1 ns) with the whole diagonal on
        # the axis (to 17 ns), thermal - Poisson is the smeared diagonal
        # R R(t1 - t2)^2 alone: each row sums to s^2 R^3 dt for the box and
        # s^2 2 R^3 dt / 3 for the triangle, s the kernel's discrete area;
        # measured within 9e-16 (box) and 7.4e-15 (triangle) relative
        k = build_kernel(5e-9, 1e-9, 5e-11)
        thermal, poisson = (smear_surface(SourceParams(2e7, 1e-9, shape, statistics), k,
                                          3e-8) for statistics in ("thermal", "poisson"))
        assert np.array_equal(thermal.axis, poisson.axis)
        rows = (np.abs(thermal.axis) >= 8e-9) & (np.abs(thermal.axis) <= 1.6e-8)
        sums = (thermal.values[rows] - poisson.values[rows]).sum(axis=1) * k.grid_step
        s = k.samples.sum() * k.grid_step
        expected = s**2 * 2e7**3 * 1e-9 * mass
        assert np.max(np.abs(sums / expected - 1)) <= 1e-13

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_far_cells_equal_far_corner(self, shape):
        p = SourceParams(2e7, 1e-9, shape)
        k = build_kernel(5e-9, 1e-9, 5e-11)
        sm = smear_surface(p, k, 1.895e-8)
        a = sm.axis[:, None]
        b = sm.axis[None, :]
        # the ridges reach the peak support plus the kernel support from
        # their axis, the diagonal that plus twice the kernel support
        reach = 2 * p.coherence_time + k.support_halfwidth
        far = ((np.abs(a) > reach) & (np.abs(b) > reach)
               & (np.abs(a - b) > reach + k.support_halfwidth))
        assert np.count_nonzero(far) > sm.values.size // 10
        corner = sm.values[-1, 0]
        assert far[-1, 0]
        assert np.all(sm.values[far].view(np.int64) == corner.view(np.int64))


class TestGbar2cAnalytic:
    def test_against_2d_slice_oracle_desk(self):
        p = SourceParams(2e7, 1e-9)
        step = 5e-11
        k = build_kernel(5e-9, 1e-9, step)
        taus = np.arange(-240, 241) * step  # out to 12 ns
        curve = gbar2c_analytic(p, k, taus)

        # oracle: the t1 = 0 row of the smeared surface over R^3 and the
        # smeared g2_si at 0 and at tau
        sm = smear_surface(p, k, 1.395e-8)
        g2_delays, g2_sm = numeric_smear(*_raw_g2_si(p, step, 400), k.samples, step)
        row = sm.values[np.argmin(np.abs(sm.axis))]
        oracle = np.array([
            row[np.argmin(np.abs(sm.axis - tau))] / p.pair_rate**3
            / (g2_sm[np.argmin(np.abs(g2_delays))]
               * g2_sm[np.argmin(np.abs(g2_delays - tau))])
            for tau in taus
        ])
        assert np.max(np.abs(curve.values - oracle) / oracle) <= 1e-12

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_poisson_zero_delay_is_the_plateau_prediction(self, shape):
        # a Poisson source has no diagonal and no central term, so the desk
        # curve sits at (1 + 2X) / (1 + X)^2 = 11/36 at zero delay; measured
        # within 7.3e-16 relative for both shapes
        k = build_kernel(5e-9, 1e-9, 5e-11)
        p = SourceParams(2e7, 1e-9, shape, "poisson")
        value = at(gbar2c_analytic(p, k, np.array([0.0, 5e-11])), 0.0)
        short = predict_plateaus(p, k).gbar2c_short
        assert short == pytest.approx(11 / 36, rel=1e-12)
        assert value == pytest.approx(short, rel=1e-14)
        # the thermal curve keeps the diagonal and central terms above it
        thermal = SourceParams(2e7, 1e-9, shape)
        assert at(gbar2c_analytic(thermal, k, np.array([0.0, 5e-11])), 0.0) == (
            pytest.approx({"box": 0.3289705295410159,
                           "triangle": 0.3313157690313966}[shape], rel=1e-12))

    def test_box_zero_delay_matches_quadrature(self):
        # desk box on the desk's 50 ps kernel step; both box supports (|t| <= dt/2)
        # lie inside the kernel's flat top |t| <= 4 ns, so
        # gbar2c(0) = (1 + 2X + D + 3 p^2 dt / (2R)) / (1 + X)^2 with
        # D the integral of (K * K)(u) over |u| <= dt/2
        from scipy.integrate import quad

        p = SourceParams(2e7, 1e-9)
        dt = p.coherence_time
        step = 5e-11
        k = build_kernel(5e-9, 1e-9, step)
        breaks = [-6e-9, -4e-9, 4e-9, 6e-9]

        def window(t):  # integral of K(t + u) over |u| <= dt/2
            return quad(lambda u: kernel_value(k, u), t - dt / 2, t + dt / 2,
                        points=[b for b in breaks if abs(b - t) < dt / 2])[0]

        d = quad(lambda t: kernel_value(k, t) * window(t), -6.5e-9, 6.5e-9,
                 points=[b + o for b in breaks for o in (-dt / 2, 0, dt / 2)],
                 limit=200)[0]
        x = k.plateau_height / p.pair_rate
        exact = ((1 + 2 * x + d + 3 * k.plateau_height**2 * dt / (2 * p.pair_rate))
                 / (1 + x) ** 2)
        curve = gbar2c_analytic(p, k, np.array([0.0, step]))
        assert at(curve, 0.0) == pytest.approx(exact, rel=1e-6)

    def test_extremes_match_predictions_when_scales_separate(self):
        mu = 1e-6
        rate = 1e6
        p = SourceParams(rate, mu / rate)
        dt = p.coherence_time
        k = build_kernel(1000 * dt, 100 * dt, 5 * dt)
        pred = predict_plateaus(p, k)
        taus = np.arange(-5, 6) * 500 * dt
        curve = gbar2c_analytic(p, k, taus)
        assert at(curve, 0.0) == pytest.approx(pred.gbar2c_short, rel=2e-3)
        assert at(curve, 2500 * dt) == pytest.approx(1.0, rel=1e-9)

    def test_transition_region_monotone_between_levels(self):
        p = SourceParams(2e7, 1e-9)
        step = 2.5e-10
        k = build_kernel(5e-9, 0.0, step)
        taus = np.arange(0, 81) * step  # 0 .. 20 ns
        curve = gbar2c_analytic(p, k, taus)
        pred = predict_plateaus(p, k)
        v_edge = at(curve, 5e-9)
        assert pred.gbar2c_short < v_edge < 1.0

    def test_off_grid_delays_rejected(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 5e-11)
        with pytest.raises(GridError):
            gbar2c_analytic(p, k, np.array([1.23e-11]))


class TestSamplers:
    @pytest.mark.parametrize("shape", ["box", "triangle"])
    @pytest.mark.parametrize("step_frac", [0.011, 0.4, 3.7, 50.0])
    def test_g2si_excess_integral_any_grid(self, shape, step_frac):
        p = SourceParams(2e7, 1e-9, shape)
        step = step_frac * p.coherence_time
        half_n = np.ceil(max(40 * step, 4 * p.coherence_time) / step)
        grid = np.arange(-half_n, half_n + 1) * step
        c2 = smearing._cell_average(lambda t: cross_sq_cumulative(p, t), grid, step)
        total = np.sum(c2) * step / p.pair_rate**2
        assert total == pytest.approx(1 / p.pair_rate, rel=1e-12)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_g2ss_excess_integral(self, shape):
        p = SourceParams(2e7, 1e-9, shape)
        # Q is even and linear beyond the support, so the integral of R^2
        # over |u| <= L is 2 Q'(L) = 2 (Q(L + s) - Q(L)) / s
        big, s = 5e-9, 1e-9
        q2 = model.auto_antider2(p, big + s, 2) - model.auto_antider2(p, big, 2)
        total = 2 * q2 / s / p.pair_rate**2
        expected = p.coherence_time if shape == "box" else 2 * p.coherence_time / 3
        assert total == pytest.approx(expected, rel=1e-12)

    def test_p_ssi_surface_matches_pointwise_on_fine_grid(self):
        from spdclab.model import p_ssi

        p = SourceParams(2e7, 1e-9)
        dt = p.coherence_time
        surf = dense_p_ssi(p, np.arange(-500, 501) * (dt / 200), dt / 200)
        a = surf.axis[:, None]
        b = surf.axis[None, :]
        exact = p_ssi(p, a, b, 0.0)
        # cell averages converge to point values except on measure-zero edges
        interior = (
            (np.abs(np.abs(a) - dt / 2) > dt / 100)
            & (np.abs(np.abs(b) - dt / 2) > dt / 100)
            & (np.abs(np.abs(a - b) - dt / 2) > dt / 100)
        )
        rel = np.abs(surf.values - exact) / exact
        assert np.max(rel[interior]) < 2e-2
