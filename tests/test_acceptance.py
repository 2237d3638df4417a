"""Acceptance suite: one test per release criterion, with pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines including measured values and runtimes.
"""
import time

import numpy as np
import pytest

from spdclab import (
    DetectorChain,
    SourceParams,
    apply_detector_chain,
    build_kernel,
    estimate_g2bar_si,
    gen_poisson_pairs,
    gen_thermal_cells,
    pair_histogram,
    sample_g2_si,
    sample_p_ssi,
    singles_rate,
    smear_curve,
    smear_surface,
    triple_histogram,
)
from spdclab.model import g2_c, g2_si
from spdclab.runner import _count_streams

from _oracles import brute_pair_counts, brute_triple_counts


def report(num, name, detail):
    print(f"\ncriterion {num} ({name}): PASS  [{detail}]")


def mc_run(source, chain, duration, seed, model, delays, tauc):
    gen = gen_thermal_cells if model == "thermal" else gen_poisson_pairs
    pairs = gen(source, duration, seed)
    idler, s1, s2 = apply_detector_chain(pairs, chain, seed)
    _, _, g2bar, gbar2c = _count_streams(idler, s1, s2, delays, tauc)
    return g2bar, gbar2c


def test_criterion_1_analytic_exactness():
    start = time.perf_counter()
    mu = 1.4e-5
    p = SourceParams(4.3e7, mu / 4.3e7)
    peak = g2_si(p, 0.0)
    assert peak == pytest.approx(1.0 + 1.0 / mu, rel=1e-14)
    well = g2_c(p, 0.0, 0.0, 0.0)
    exact = 2 * mu * (mu + 2) / (mu + 1) ** 2
    assert well == pytest.approx(exact, rel=1e-12)
    assert 1e-5 < well < 1e-4  # the conditioned well is of order 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "analytic exactness",
           f"g2_si(0)={peak:.6g}, g2_c(0)={well:.3g}, {elapsed:.3f}s")


def test_criterion_2_smearing_plateau():
    start = time.perf_counter()
    rate, mu = 4.3e7, 1.4e-5
    p = SourceParams(rate, mu / rate)
    tauc, taud = 1.5e-9, 0.35e-9
    step = 5e-12
    kernel = build_kernel(tauc, taud, step)
    curve = smear_curve(sample_g2_si(p, step, 4e-9), kernel)
    x = 1.0 / (2 * rate * tauc)
    assert x == pytest.approx(7.751937984496124, rel=1e-12)
    inside = np.abs(curve.delays) <= tauc - taud - 2 * step
    rel_err = np.abs(curve.values[inside] - (1 + x)) / (1 + x)
    assert np.max(rel_err) < 1e-6
    outside = np.abs(curve.delays) >= tauc + taud + 2 * step
    assert np.max(np.abs(curve.values[outside] - 1.0)) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, "smearing plateaus",
           f"plateau=1+{x:.6g} rel_err<{np.max(rel_err):.2g}, {elapsed:.2f}s")


def test_criterion_3_excess_integral_conservation():
    rate, dt = 2e7, 1e-9
    tauc, taud, step = 100 * dt, 25 * dt, dt / 2
    kernel = build_kernel(tauc, taud, step)
    smeared = {}
    for shape in ("box", "triangle"):
        p = SourceParams(rate, dt, shape)
        curve = smear_curve(sample_g2_si(p, step, 330 * dt), kernel)
        integral = np.sum(curve.values - 1.0) * curve.step
        assert integral == pytest.approx(1.0 / rate, rel=1e-6), shape
        smeared[shape] = curve.values
    diff = np.max(
        np.abs(smeared["box"] - smeared["triangle"]) / smeared["box"]
    )
    assert diff < 1e-3
    report(3, "excess-integral conservation",
           f"integral=1/R for both shapes, max shape diff {diff:.2g}")


def test_criterion_4_surface_ridge_structure():
    start = time.perf_counter()
    rate, mu = 4.3e7, 1.4e-5
    p = SourceParams(rate, mu / rate)
    dt = p.coherence_time
    tauc, taud = 100 * dt, 20 * dt
    step = dt / 3
    kernel = build_kernel(tauc, taud, step)
    surface = smear_surface(sample_p_ssi(p, step, 380 * dt), kernel)
    r3 = rate**3
    center = surface.value_at(0.0, 0.0) - r3
    ridge = surface.value_at(0.0, 250 * dt) - r3
    far = surface.value_at(250 * dt, -250 * dt)
    ratio = center / ridge
    assert abs(ratio - 2.0) <= 0.01
    assert far == pytest.approx(r3, rel=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, "2D ridge structure",
           f"center/ridge={ratio:.4f}, far=R^3*(1{far / r3 - 1:+.1e}), "
           f"{elapsed:.1f}s")


def test_criterion_5_end_to_end_monte_carlo():
    start = time.perf_counter()
    source = SourceParams(2e7, 1e-9)
    chain = DetectorChain(jitter_width=1e-9)
    tauc = 5e-9
    delays = np.arange(-25, 26) * 1e-9
    g2bar, gbar2c = mc_run(source, chain, 1.0, 2024, "poisson", delays, tauc)

    plateau = g2bar.value_at(0.0)
    sigma = g2bar.stderr_at(0.0)
    assert sigma / plateau < 0.01
    assert abs(plateau - 6.0) < 3 * sigma

    short = gbar2c.value_at(0.0)
    assert abs(short - 11.0 / 36.0) / (11.0 / 36.0) < 0.05

    long_bins = np.abs(gbar2c.delays) >= 13e-9
    z_long = (gbar2c.values[long_bins] - 1.0) / gbar2c.stderr[long_bins]
    assert np.max(np.abs(z_long)) < 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, "end-to-end Monte Carlo",
           f"g2bar_si(0)={plateau:.4f}+/-{sigma:.4f}, "
           f"gbar2c(0)={short:.4f} (11/36={11 / 36:.4f}), "
           f"max|z_long|={np.max(np.abs(z_long)):.2f}, {elapsed:.0f}s")


def test_criterion_6_thesis_reproduction():
    # coarse windows: thermal and Poisson sources are indistinguishable in
    # the conditioned estimator
    source = SourceParams(1e6, 1e-9)
    chain = DetectorChain()
    tauc = 100e-9  # 100 coherence times
    delays = np.arange(-25, 26) * 10e-9
    _, c_thermal = mc_run(source, chain, 1.0, 7001, "thermal", delays, tauc)
    _, c_poisson = mc_run(source, chain, 1.0, 7002, "poisson", delays, tauc)
    assert delays.size >= 50
    z = (c_thermal.values - c_poisson.values) / np.hypot(
        c_thermal.stderr, c_poisson.stderr
    )
    max_z = np.max(np.abs(z))
    assert max_z < 3.0

    # fine windows: the one-arm bunching separates the models
    fine_src = SourceParams(2e7, 1e-9)
    dt = fine_src.coherence_time
    estimates = {}
    for model, seed in (("thermal", 7101), ("poisson", 7102)):
        gen = gen_thermal_cells if model == "thermal" else gen_poisson_pairs
        pairs = gen(fine_src, 1.0, seed)
        _, s1, s2 = apply_detector_chain(pairs, chain, seed)
        r1, r2 = singles_rate(s1), singles_rate(s2)
        stated = estimate_g2bar_si(
            pair_histogram(s1, s2, np.array([0.0]), dt / 2), r1, r2
        )
        fine = estimate_g2bar_si(
            pair_histogram(s1, s2, np.array([0.0]), dt / 40), r1, r2
        )
        estimates[model] = (stated, fine)
    th_stated, th_fine = estimates["thermal"]
    po_stated, po_fine = estimates["poisson"]
    # separation holds already at the tau_c = dt/2 analysis window
    sep_stated = (th_stated.values[0] - po_stated.values[0]) / np.hypot(
        th_stated.stderr[0], po_stated.stderr[0]
    )
    assert sep_stated > 10.0
    # the bunching levels 2.0 vs 1.0 resolve at cell-scale bins
    assert abs(th_fine.values[0] - 2.0) / 2.0 < 0.05
    assert abs(po_fine.values[0] - 1.0) < 0.05
    sep_fine = (th_fine.values[0] - po_fine.values[0]) / np.hypot(
        th_fine.stderr[0], po_fine.stderr[0]
    )
    assert sep_fine > 10.0
    report(6, "thesis reproduction",
           f"coarse max|z|={max_z:.2f} over {delays.size} bins; "
           f"fine g2_ss(0): thermal={th_fine.values[0]:.3f}, "
           f"poisson={po_fine.values[0]:.3f}, separation {sep_fine:.0f} sigma "
           f"({sep_stated:.0f} sigma at tau_c=dt/2)")


def test_criterion_7_efficiency_invariance():
    source = SourceParams(2e7, 1e-9)
    tauc = 5e-9
    delays = np.arange(-20, 21) * 1e-9
    curves = {}
    for eta in (1.0, 0.5):
        chain = DetectorChain(
            idler_efficiency=eta, signal_efficiency=eta, jitter_width=1e-9
        )
        curves[eta] = mc_run(source, chain, 0.4, 777, "poisson", delays, tauc)
    for idx, label in ((0, "g2bar_si"), (1, "gbar2c")):
        full, half = curves[1.0][idx], curves[0.5][idx]
        for tau in (0.0, 15e-9):
            delta = abs(full.value_at(tau) - half.value_at(tau))
            sigma = np.hypot(full.stderr_at(tau), half.stderr_at(tau))
            assert delta < 3 * sigma, (label, tau)
    report(7, "efficiency invariance",
           "halving both efficiencies moves g2bar_si and gbar2c by < 3 sigma")


def test_criterion_8_counting_oracle():
    source = SourceParams(1e6, 1e-9)
    chain = DetectorChain(jitter_width=2e-9)
    delays = np.arange(-5, 6) * 120e-9
    tauc = 50e-9
    checked = 0
    for seed in range(9000, 9010):
        pairs = gen_poisson_pairs(source, 0.02, seed)
        idler, s1, s2 = apply_detector_chain(pairs, chain, seed)
        ti = idler.timestamps[:10_000]
        t1 = s1.timestamps[:10_000]
        t2 = s2.timestamps[:10_000]
        dur = idler.duration
        from spdclab import EventStream

        pre_i = EventStream("idler", ti, dur)
        pre_1 = EventStream("signal1", t1, dur)
        pre_2 = EventStream("signal2", t2, dur)
        ph = pair_histogram(pre_1, pre_i, delays, tauc)
        assert np.array_equal(ph.counts, brute_pair_counts(t1, ti, delays, tauc))
        th = triple_histogram(pre_i, pre_1, pre_2, delays, tauc)
        assert np.array_equal(
            th.counts, brute_triple_counts(ti, t1, t2, delays, tauc)
        )
        for chunk in (997, 4096):
            assert np.array_equal(
                pair_histogram(pre_1, pre_i, delays, tauc, chunk_size=chunk).counts,
                ph.counts,
            )
            assert np.array_equal(
                triple_histogram(pre_i, pre_1, pre_2, delays, tauc,
                                 chunk_size=chunk).counts,
                th.counts,
            )
        checked += 1
    assert checked == 10
    report(8, "counting oracle",
           "pair/triple counters match brute force exactly on 10 seeds; "
           "sharded counting bit-identical")
