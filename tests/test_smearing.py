import numpy as np
import pytest

from spdclab import (
    GridError,
    SourceParams,
    build_kernel,
    gbar2c_analytic,
    predict_plateaus,
    sample_g2_si,
    sample_p_ssi,
    smear_curve,
    smear_surface,
)
from spdclab import model, smearing
from spdclab.curves import CorrelationCurve

from _oracles import numeric_smear


class TestBuildKernel:
    def test_zero_jitter_box(self):
        k = build_kernel(1.5e-9, 0.0, 5e-11)
        assert k.plateau_height == pytest.approx(1 / 3e-9, rel=1e-14)
        assert k.value(1.4e-9) == k.plateau_height
        assert k.value(1.6e-9) == 0.0
        assert k.samples.sum() * k.grid_step == pytest.approx(1.0, abs=1e-13)

    def test_trapezoid_geometry(self):
        # tau_c = 1.5 ns with 0.35 ns jitter: flat inside 1.15 ns, dead
        # beyond 1.85 ns
        k = build_kernel(1.5e-9, 0.35e-9, 1e-11)
        p = k.plateau_height
        assert k.value(1.14e-9) == p
        assert k.value(1.5e-9) == pytest.approx(p / 2, rel=1e-12)
        assert k.value(1.86e-9) == 0.0
        mid = (k.value(1.2e-9) + k.value(1.8e-9))
        assert mid == pytest.approx(p, rel=1e-9)

    def test_plateau_height_and_area(self):
        k = build_kernel(5e-9, 1e-9, 2e-11)
        assert k.plateau_height == pytest.approx(1e8, rel=1e-14)
        # oracle: numeric quadrature of the analytic shape
        fine = np.linspace(-7e-9, 7e-9, 200001)
        assert np.trapezoid(k.value(fine), fine) == pytest.approx(1.0, rel=1e-9)
        assert k.samples.sum() * k.grid_step == pytest.approx(1.0, abs=1e-12)

    def test_jitter_dominated_reports_max_value(self):
        k = build_kernel(1e-9, 3e-9, 4e-11)
        assert k.plateau_height == pytest.approx(1 / 6e-9, rel=1e-14)
        assert np.max(k.samples) == pytest.approx(k.plateau_height, rel=1e-9)
        assert k.samples.sum() * k.grid_step == pytest.approx(1.0, abs=1e-12)

    def test_rejects_coarse_grid(self):
        with pytest.raises(GridError):
            build_kernel(1.5e-9, 0.35e-9, 0.35e-9 / 10)
        with pytest.raises(GridError):
            build_kernel(1.5e-9, 0.0, 1e-10)
        build_kernel(1.5e-9, 0.0, 7.5e-11)  # exactly tau_c / 20 is fine


class TestSmearCurve:
    def test_plateau_zero_jitter_low_mu(self):
        # R = 43 MHz, mu = 1.4e-5, tau_c = 1.5 ns: plateau 1 + 1/(2 R tau_c)
        p = SourceParams(4.3e7, 1.4e-5 / 4.3e7)
        k = build_kernel(1.5e-9, 0.0, 5e-11)
        curve = smear_curve(sample_g2_si(p, 5e-11, 4e-9), k)
        x = 7.751937984496124
        inside = np.abs(curve.delays) <= 1.4e-9
        assert np.allclose(curve.values[inside], 1 + x, rtol=1e-9)
        outside = np.abs(curve.delays) >= 1.6e-9
        assert np.allclose(curve.values[outside], 1.0, rtol=1e-9)

    def test_constant_curve_unchanged(self):
        k = build_kernel(2e-9, 0.5e-9, 2e-11)
        grid = np.arange(-400, 401) * 2e-11
        flat = CorrelationCurve(grid, np.ones(grid.size))
        out = smear_curve(flat, k)
        assert np.allclose(out.values, 1.0, rtol=1e-13)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_plateau_shape_blind(self, shape):
        p = SourceParams(2e7, 1e-9, shape)
        k = build_kernel(1e-7, 2.5e-8, 5e-10)
        curve = smear_curve(sample_g2_si(p, 5e-10, 3.2e-7), k)
        x = k.plateau_height / p.pair_rate
        inside = np.abs(curve.delays) <= 7e-8
        assert np.allclose(curve.values[inside], 1 + x, rtol=1e-10)

    def test_shape_difference_small_everywhere(self):
        pb = SourceParams(2e7, 1e-9, "box")
        pt = SourceParams(2e7, 1e-9, "triangle")
        k = build_kernel(1e-7, 2.5e-8, 5e-10)
        cb = smear_curve(sample_g2_si(pb, 5e-10, 3.2e-7), k)
        ct = smear_curve(sample_g2_si(pt, 5e-10, 3.2e-7), k)
        assert np.max(np.abs(cb.values - ct.values) / cb.values) < 1e-3

    def test_excess_integral_conserved(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(1e-7, 2.5e-8, 5e-10)
        raw = sample_g2_si(p, 5e-10, 3.2e-7)
        out = smear_curve(raw, k)
        target = 1.0 / p.pair_rate
        raw_excess = np.sum(raw.values - 1) * raw.step
        out_excess = np.sum(out.values - 1) * out.step
        assert raw_excess == pytest.approx(target, rel=1e-12)
        assert out_excess == pytest.approx(target, rel=1e-6)

    def test_matches_naive_convolution(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 4e-11)
        curve = sample_g2_si(p, 4e-11, 1.4e-8)
        out = smear_curve(curve, k)
        d_ref, v_ref = numeric_smear(curve.delays, curve.values, k.samples,
                                     curve.step)
        assert np.array_equal(out.delays, d_ref)
        assert np.allclose(out.values, v_ref, rtol=1e-12, atol=0)

    def test_rejects_finer_curve(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 5e-11)
        with pytest.raises(GridError, match="kernel grid"):
            smear_curve(sample_g2_si(p, 2.5e-11, 2e-8), k)
        with pytest.raises(GridError, match="kernel grid"):
            smear_surface(sample_p_ssi(p, 2.5e-11, 3e-9), build_kernel(1e-9, 0.0, 5e-11))

    def test_rejects_coarser_curve(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 2e-11)
        with pytest.raises(GridError):
            smear_curve(sample_g2_si(p, 4e-11, 2e-8), k)

    def test_rejects_short_curve(self):
        p = SourceParams(2e7, 1e-9)
        k = build_kernel(5e-9, 1e-9, 2e-11)
        with pytest.raises(GridError):
            smear_curve(sample_g2_si(p, 2e-11, 5e-9), k)


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
        sm = smear_surface(sample_p_ssi(p, step, 390 * dt), k)
        r3 = rate**3
        x = k.plateau_height / rate
        far = sm.value_at(255 * dt, -255 * dt)
        ridge = sm.value_at(0.0, 255 * dt)
        center = sm.value_at(0.0, 0.0)
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
        sm = smear_surface(sample_p_ssi(p, dt / 5, 60 * dt), k)
        assert np.allclose(sm.values, sm.values.T, rtol=1e-12)

    def test_memory_guard(self):
        from spdclab import GuardError

        p = SourceParams(1e6, 1e-9)
        with pytest.raises(GuardError):
            sample_p_ssi(p, 1e-12, 1e-5)


class TestGbar2cAnalytic:
    def test_against_2d_slice_oracle_desk(self):
        p = SourceParams(2e7, 1e-9)
        step = 5e-11
        k = build_kernel(5e-9, 1e-9, step)
        taus = np.arange(-240, 241) * step  # out to 12 ns
        curve = gbar2c_analytic(p, k, taus)

        surface = sample_p_ssi(p, step, 2.0e-8)
        sm = smear_surface(surface, k)
        i0 = np.argmin(np.abs(sm.t1))
        slice_vals = sm.values[i0, :]
        g2_sm = smear_curve(sample_g2_si(p, step, 2.0e-8), k)
        # oracle: ratio built from the smeared surface slice
        r3 = p.pair_rate**3
        e0 = g2_sm.value_at(0.0)
        oracle = {}
        for tau in (0.0, 2e-9, 5e-9, 7e-9, 9e-9, 12e-9):
            j = np.argmin(np.abs(sm.t2 - tau))
            jt = np.argmin(np.abs(g2_sm.delays - tau))
            oracle[tau] = slice_vals[j] / r3 / (e0 * g2_sm.values[jt])
        for tau, expected in oracle.items():
            assert curve.value_at(tau) == pytest.approx(expected, rel=5e-4), tau

    def test_extremes_match_predictions_when_scales_separate(self):
        mu = 1e-6
        rate = 1e6
        p = SourceParams(rate, mu / rate)
        dt = p.coherence_time
        k = build_kernel(1000 * dt, 100 * dt, 5 * dt)
        pred = predict_plateaus(p, k)
        taus = np.arange(-5, 6) * 500 * dt
        curve = gbar2c_analytic(p, k, taus)
        assert curve.value_at(0.0) == pytest.approx(pred.gbar2c_short, rel=2e-3)
        assert curve.value_at(2500 * dt) == pytest.approx(1.0, rel=1e-9)

    def test_transition_region_monotone_between_levels(self):
        p = SourceParams(2e7, 1e-9)
        step = 2.5e-10
        k = build_kernel(5e-9, 0.0, step)
        taus = np.arange(0, 81) * step  # 0 .. 20 ns
        curve = gbar2c_analytic(p, k, taus)
        pred = predict_plateaus(p, k)
        v_edge = curve.value_at(5e-9)
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
        curve = sample_g2_si(p, step, max(40 * step, 4 * p.coherence_time))
        total = np.sum(curve.values - 1) * step
        assert total == pytest.approx(1 / p.pair_rate, rel=1e-12)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_g2ss_excess_integral(self, shape):
        p = SourceParams(2e7, 1e-9, shape)
        total = (model.auto_sq_cumulative(p, 5e-9)
                 - model.auto_sq_cumulative(p, -5e-9)) / p.pair_rate**2
        expected = p.coherence_time if shape == "box" else 2 * p.coherence_time / 3
        assert total == pytest.approx(expected, rel=1e-12)

    def test_p_ssi_surface_matches_pointwise_on_fine_grid(self):
        from spdclab.model import p_ssi

        p = SourceParams(2e7, 1e-9)
        dt = p.coherence_time
        surf = sample_p_ssi(p, dt / 200, 2.5 * dt)
        a = surf.t1[:, None]
        b = surf.t2[None, :]
        exact = p_ssi(p, a, b, 0.0)
        # cell averages converge to point values except on measure-zero edges
        interior = (
            (np.abs(np.abs(a) - dt / 2) > dt / 100)
            & (np.abs(np.abs(b) - dt / 2) > dt / 100)
            & (np.abs(np.abs(a - b) - dt / 2) > dt / 100)
        )
        rel = np.abs(surf.values - exact) / exact
        assert np.max(rel[interior]) < 2e-2

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_p_ssi_row_blocks_match_full_matrix(self, shape):
        p = SourceParams(2e7, 1e-9, shape)
        step, half_span = p.coherence_time / 20, 5 * p.coherence_time
        surf = sample_p_ssi(p, step, half_span)
        # the full-matrix formula, one expression over every cell
        grid = surf.t1
        assert grid.size > smearing._SURFACE_ROW_BLOCK
        assert grid.size % smearing._SURFACE_ROW_BLOCK
        r = p.pair_rate
        c2 = smearing._cell_average(
            lambda t: model.cross_sq_cumulative(p, t), grid, step)
        diff = grid[:, None] - grid[None, :]
        q2 = lambda t: model.auto_sq_antider2(p, t)  # noqa: E731
        auto_sq_cells = (q2(diff + step) - 2.0 * q2(diff) + q2(diff - step)) / step**2
        full = (
            r**3
            + r * (c2[:, None] + c2[None, :])
            + r * auto_sq_cells
            + smearing._ccr_cell_averages(p, grid, step)
        )
        assert np.array_equal(surf.values.view(np.int64), full.view(np.int64))
