import numpy as np
import pytest
from scipy.integrate import quad

from spdclab import SourceParams, limit_ratios
from spdclab.model import (
    auto_correlation,
    auto_sq_cumulative,
    cross_correlation,
    cross_sq_cumulative,
    g2_c,
    g2_si,
    g2_ss_unconditional,
    p_ssi,
    p_ssi_diag,
)


def params_mu(mu, rate=2e7, shape="box"):
    return SourceParams(rate, mu / rate, shape)


class TestCorrelationPair:
    def test_auto_zero_is_pair_rate(self):
        # R = 43 MHz, mu = 1.4e-5
        p = params_mu(1.4e-5, rate=4.3e7)
        assert auto_correlation(p, 0.0) == pytest.approx(4.3e7, rel=1e-15)

    def test_cross_outside_support(self):
        p = params_mu(1.4e-5, rate=4.3e7)
        assert cross_correlation(p, p.coherence_time) == 0.0

    def test_cross_zero_forced_by_peak_normalization(self):
        # C(0)^2 / R^2 = 1/(R dt)  =>  C(0) = sqrt(R / dt)
        p = SourceParams(2e7, 1e-9)
        expected = np.sqrt(2e7 / 1e-9)
        assert cross_correlation(p, 0.0) == pytest.approx(expected, rel=1e-15)
        assert cross_correlation(p, 0.0) == pytest.approx(1.4142135623730952e8, rel=1e-12)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_even_functions(self, shape):
        p = SourceParams(1e7, 2e-9, shape)
        taus = np.linspace(-3e-9, 3e-9, 101)
        assert np.allclose(auto_correlation(p, taus), auto_correlation(p, -taus))
        assert np.allclose(cross_correlation(p, taus), cross_correlation(p, -taus))

    def test_box_support(self):
        p = SourceParams(1e7, 2e-9, "box")
        dt = p.coherence_time
        assert auto_correlation(p, 0.49 * dt) == p.pair_rate
        assert auto_correlation(p, 0.51 * dt) == 0.0
        assert cross_correlation(p, 0.5 * dt) > 0.0

    def test_triangle_preserves_peak_height_and_area(self):
        p = SourceParams(1e7, 2e-9, "triangle")
        assert cross_correlation(p, 0.0) ** 2 == pytest.approx(
            p.pair_rate / p.coherence_time, rel=1e-14
        )
        total, _ = quad(
            lambda t: cross_correlation(p, t) ** 2,
            -p.coherence_time,
            p.coherence_time,
            points=[0.0],
        )
        assert total == pytest.approx(p.pair_rate, rel=1e-10)


class TestG2Si:
    def test_peak_value(self):
        p = params_mu(1.4e-5)
        assert g2_si(p, 0.0) == pytest.approx(1 + 1 / 1.4e-5, rel=1e-15)
        assert g2_si(p, 0.0) == pytest.approx(71429.57142857143, rel=1e-12)

    def test_unity_far_away(self):
        p = params_mu(1.4e-5)
        assert g2_si(p, 10 * p.coherence_time) == 1.0

    def test_mu_002(self):
        assert g2_si(params_mu(0.02), 0.0) == pytest.approx(51.0, rel=1e-14)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_at_least_one_and_dead_beyond_dt(self, shape):
        p = SourceParams(3e6, 5e-10, shape)
        taus = np.linspace(-4 * p.coherence_time, 4 * p.coherence_time, 401)
        vals = g2_si(p, taus)
        assert np.all(vals >= 1.0)
        outside = np.abs(taus) >= p.coherence_time
        assert np.all(vals[outside] == 1.0)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_excess_integral_quadrature(self, shape):
        # integral of (g2_si - 1) over all delays is exactly 1/R
        p = SourceParams(2e7, 1e-9, shape)
        dt = p.coherence_time
        value, _ = quad(
            lambda t: g2_si(p, t) - 1.0,
            -2 * dt,
            2 * dt,
            points=[-dt / 2, 0.0, dt / 2, -dt, dt],
            limit=200,
        )
        assert value == pytest.approx(1.0 / p.pair_rate, rel=1e-9)


class TestG2Ss:
    def test_thermal_at_zero(self):
        assert g2_ss_unconditional(params_mu(0.02), 0.0) == 2.0

    def test_box_outside(self):
        p = SourceParams(1e7, 1e-9, "box")
        assert g2_ss_unconditional(p, p.coherence_time) == 1.0

    def test_triangle_half_dt(self):
        p = SourceParams(1e7, 1e-9, "triangle")
        assert g2_ss_unconditional(p, 0.5e-9) == pytest.approx(1.25, rel=1e-14)


class TestPssi:
    def test_accidental_floor_far_apart(self):
        p = params_mu(0.02)
        r3 = p.pair_rate**3
        dt = p.coherence_time
        assert p_ssi(p, 0.0, 1e4 * dt, -1e4 * dt) == pytest.approx(r3, rel=1e-15)

    def test_heralding_ridge_level(self):
        p = params_mu(0.02)
        r3 = p.pair_rate**3
        dt = p.coherence_time
        value = p_ssi(p, 0.0, 1e4 * dt, 0.0)
        assert value == pytest.approx(r3 * g2_si(p, 0.0), rel=1e-14)

    def test_center_value_mu_002(self):
        p = params_mu(0.02)
        assert p_ssi(p, 0.0, 0.0, 0.0) == pytest.approx(
            202.0 * p.pair_rate**3, rel=1e-12
        )

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_symmetry_stationarity_floor(self, shape):
        p = SourceParams(5e6, 2e-9, shape)
        rng = np.random.default_rng(11)
        t1, t2, ti, shift = rng.uniform(-5e-9, 5e-9, size=(4, 300))
        a = p_ssi(p, t1, t2, ti)
        assert np.array_equal(a, p_ssi(p, t2, t1, ti))
        assert np.allclose(
            a, p_ssi(p, t1 + shift, t2 + shift, ti + shift), rtol=1e-12
        )
        assert np.all(a >= p.pair_rate**3 * (1 - 1e-15))


class TestPssiDiag:
    def test_large_delay_asymptote(self):
        p = params_mu(0.02)
        expected = p.pair_rate**3 * (1 + 1 / 0.02)
        assert p_ssi_diag(p, 100 * p.coherence_time) == pytest.approx(
            expected, rel=1e-14
        )

    def test_peak_to_asymptote_ratio(self):
        p = params_mu(0.02)
        ratio = p_ssi_diag(p, 0.0) / p_ssi_diag(p, 1e3 * p.coherence_time)
        assert ratio == pytest.approx(202.0 / 51.0, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-5, 1e-3, 0.02, 0.1])
    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_peak_bound_four(self, mu, shape):
        p = SourceParams(2e7, mu / 2e7, shape)
        taus = np.linspace(-2 * p.coherence_time, 2 * p.coherence_time, 2001)
        far = p_ssi_diag(p, 1e3 * p.coherence_time)
        assert np.max(p_ssi_diag(p, taus)) / far <= 4.0 + 1e-12


class TestG2C:
    def test_unity_when_second_signal_is_late(self):
        p = params_mu(0.02)
        dt = p.coherence_time
        for t1 in (0.0, 0.2 * dt, 3 * dt):
            assert g2_c(p, t1, 1e4 * dt, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_well_depth_low_mu(self):
        p = params_mu(1.4e-5)
        value = g2_c(p, 0.0, 0.0, 0.0)
        # exact 2 a (a+2) / (a+1)^2 with a = mu; approximately 4 mu
        assert value == pytest.approx(5.599882402195162e-05, rel=1e-12)
        assert 1e-5 < value < 1e-4

    def test_well_depth_mu_002(self):
        p = params_mu(0.02)
        a = 0.02
        assert g2_c(p, 0.0, 0.0, 0.0) == pytest.approx(
            2 * a * (a + 2) / (a + 1) ** 2, rel=1e-12
        )
        assert g2_c(p, 0.0, 0.0, 0.0) == pytest.approx(0.0776624375240292, rel=1e-12)


class TestLimitRatios:
    def test_values_mu_002(self):
        p = params_mu(0.02)
        herald, thermal = limit_ratios(p, 0.0)
        assert herald == pytest.approx(51.0, rel=1e-12)
        assert thermal == pytest.approx(2.0, rel=1e-12)

    def test_dead_far_out(self):
        p = params_mu(0.02)
        herald, thermal = limit_ratios(p, 10 * p.coherence_time)
        assert herald == 1.0
        assert thermal == 1.0

    def test_low_mu_regime(self):
        p = params_mu(1.4e-5)
        herald, thermal = limit_ratios(p, 0.0)
        assert herald == pytest.approx(1 + 1 / 1.4e-5, rel=1e-12)
        assert thermal == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_reproduces_g2_functions_on_grid(self, shape):
        p = SourceParams(8e6, 1.5e-9, shape)
        taus = np.linspace(-3 * p.coherence_time, 3 * p.coherence_time, 100)
        herald, thermal = limit_ratios(p, taus)
        assert np.allclose(herald, g2_si(p, taus), rtol=1e-12, atol=0)
        assert np.allclose(
            thermal, g2_ss_unconditional(p, taus), rtol=1e-12, atol=0
        )


class TestCumulatives:
    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_cross_sq_cumulative_matches_quadrature(self, shape):
        p = SourceParams(7e6, 1.3e-9, shape)
        dt = p.coherence_time
        for tau in (-0.9 * dt, -0.3 * dt, 0.0, 0.2 * dt, 0.6 * dt, 2 * dt):
            num, _ = quad(
                lambda t: cross_correlation(p, t) ** 2, -2 * dt, tau,
                points=[x for x in (-dt, -dt / 2, 0, dt / 2, dt) if x < tau],
                limit=200,
            )
            assert cross_sq_cumulative(p, tau) == pytest.approx(
                num, rel=1e-9, abs=1e-9 * p.pair_rate
            )

    @pytest.mark.parametrize("shape", ["box", "triangle"])
    def test_auto_sq_cumulative_matches_quadrature(self, shape):
        p = SourceParams(7e6, 1.3e-9, shape)
        dt = p.coherence_time
        for tau in (-1.5 * dt, -0.4 * dt, 0.0, 0.3 * dt, 0.8 * dt, 3 * dt):
            num, _ = quad(
                lambda t: auto_correlation(p, t) ** 2, -2 * dt, tau,
                points=[x for x in (-dt, -dt / 2, 0, dt / 2, dt) if x < tau],
                limit=200,
            )
            assert auto_sq_cumulative(p, tau) == pytest.approx(
                num, rel=1e-9, abs=1e-9 * p.pair_rate**2 * dt
            )
