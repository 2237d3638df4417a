"""Closed-form correlation and coherence functions of the pair source.

The low-gain source model is fully described by two real, even functions:
the beam autocorrelation R(tau), with R(0) = pair rate R, and the
signal-idler cross-correlation amplitude C(tau).  Both are supported on a
delay range set by the coherence time dt and normalized so that

    C(0)^2 / R^2 = 1 / (R * dt)

which makes the signal-idler coherence peak g2_si(0) = 1 + 1/(R*dt).

Two peak shapes are provided:

``box``
    R(tau) = R for |tau| <= dt/2, else 0, and C^2 constant on the same
    support.  This is the canonical model; every piecewise expression below
    follows from it by direct substitution.

``triangle``
    R(tau) decays linearly to zero at |tau| = dt and C^2(tau) decays
    linearly to zero at |tau| = dt, with C^2(0) and the excess integral
    of g2_si preserved.  Used to demonstrate that window-averaged
    observables depend only on peak integrals, not on peak shapes.

All functions accept scalars or numpy arrays for the time arguments and
broadcast in the usual way.
"""
from __future__ import annotations

import numpy as np

from .params import SourceParams

__all__ = [
    "auto_correlation",
    "cross_correlation",
    "g2_si",
    "g2_ss_unconditional",
    "p_ssi",
    "p_ssi_diag",
    "g2_c",
    "limit_ratios",
    "cross_sq_cumulative",
    "auto_sq_cumulative",
    "auto_sq_antider2",
]

#: multiple of the coherence time treated as "infinitely" large when
#: evaluating limit identities with finite offsets
FAR_FACTOR = 1e3


def auto_correlation(params: SourceParams, tau):
    """Beam autocorrelation R(tau); R(0) equals the pair rate."""
    tau = np.asarray(tau, dtype=float)
    r, dt = params.pair_rate, params.coherence_time
    if params.shape == "box":
        out = np.where(np.abs(tau) <= dt / 2, r, 0.0)
    else:
        out = r * np.clip(1.0 - np.abs(tau) / dt, 0.0, None)
    return out if out.ndim else float(out)


def cross_correlation(params: SourceParams, tau):
    """Signal-idler cross-correlation amplitude C(tau).

    C(0) = sqrt(R / dt) for both shapes; the box keeps C constant over
    |tau| <= dt/2 while the triangle lets C^2 decay linearly to zero at
    |tau| = dt.
    """
    tau = np.asarray(tau, dtype=float)
    r, dt = params.pair_rate, params.coherence_time
    c0_sq = r / dt
    if params.shape == "box":
        out = np.where(np.abs(tau) <= dt / 2, np.sqrt(c0_sq), 0.0)
    else:
        out = np.sqrt(c0_sq * np.clip(1.0 - np.abs(tau) / dt, 0.0, None))
    return out if out.ndim else float(out)


def g2_si(params: SourceParams, tau):
    """Signal-idler second-order coherence, 1 + C(tau)^2 / R^2.

    For the box shape this is 1 + 1/(R*dt) inside |tau| <= dt/2 and exactly
    1 outside.
    """
    c = cross_correlation(params, tau)
    return 1.0 + np.square(c) / params.pair_rate**2


def g2_ss_unconditional(params: SourceParams, tau):
    """Unconditioned signal-signal coherence, 1 + (R(tau)/R)^2.

    Equals 2 at zero delay (thermal beam statistics) and 1 once the
    autocorrelation has died out.
    """
    a = auto_correlation(params, tau)
    return 1.0 + np.square(a) / params.pair_rate**2


def p_ssi(params: SourceParams, t1, t2, ti):
    """Three-fold detection rate for signals at t1, t2 and an idler at ti.

    P(t1, t2, ti) = 2 C(t1-ti) C(t2-ti) R(t1-t2)
                    + R [ R^2 + R(t1-t2)^2 + C(t1-ti)^2 + C(t2-ti)^2 ]

    Symmetric under t1 <-> t2, invariant under a common time shift, and
    bounded below by the accidental floor R^3.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    ti = np.asarray(ti, dtype=float)
    r = params.pair_rate
    c1 = cross_correlation(params, t1 - ti)
    c2 = cross_correlation(params, t2 - ti)
    a12 = auto_correlation(params, t1 - t2)
    # the symmetric pair is grouped so the result is bit-identical under
    # t1 <-> t2
    out = 2.0 * c1 * c2 * a12 + r * (
        r**2 + np.square(a12) + (np.square(c1) + np.square(c2))
    )
    return out if out.ndim else float(out)


def p_ssi_diag(params: SourceParams, tau):
    """Triple rate for the measured slice t1 = ti, t2 = ti + tau.

    Stationarity makes the choice of ti irrelevant.  The slice is peaked
    inside |tau| < dt and settles to R^3 * g2_si(0) at large delay; the
    peak never exceeds four times that asymptote.
    """
    tau = np.asarray(tau, dtype=float)
    return p_ssi(params, 0.0, tau, 0.0)


def g2_c(params: SourceParams, t1, t2, ti):
    """Signal-signal coherence conditioned on an idler detection at ti.

    Defined as P(t1, t2, ti) / (R^3 g2_si(t1-ti) g2_si(t2-ti)).  It tends
    to 1 when either signal time moves far away regardless of the other
    delay, and is O(R*dt) deep in the conditioned well t1 = t2 = ti.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    ti = np.asarray(ti, dtype=float)
    r3 = params.pair_rate**3
    denom = r3 * g2_si(params, t1 - ti) * g2_si(params, t2 - ti)
    out = p_ssi(params, t1, t2, ti) / denom
    return out if out.ndim else float(out)


def _far_offset(params: SourceParams, tau: np.ndarray) -> np.ndarray:
    """Offset large enough to kill every correlation at delays ``tau``."""
    dt = params.coherence_time
    far = FAR_FACTOR * dt + 2.0 * np.abs(tau)
    # every correlation support is within |u| <= dt; keep a wide margin
    assert np.all(far - np.abs(tau) > 2 * dt)
    return far


def limit_ratios(params: SourceParams, tau):
    """Two ratio identities of the triple rate evaluated with far offsets.

    Returns ``(heralding_ratio, thermal_ratio)`` where

    * ``heralding_ratio`` = P(ti+tau, far | ti) / P(-far, far | ti),
      which reduces to g2_si(tau), and
    * ``thermal_ratio`` = P(t1, t1+tau | ti=-far) / P(t1, far | ti=-far),
      which reduces to the thermal 1 + (R(tau)/R)^2.

    "far" means offsets of at least 1e3 coherence times, asserted to exceed
    every correlation support.
    """
    tau = np.asarray(tau, dtype=float)
    far = _far_offset(params, tau)
    herald = np.asarray(p_ssi(params, tau, far, 0.0)) / p_ssi(params, -far, far, 0.0)
    thermal = np.asarray(p_ssi(params, 0.0, tau, -far)) / p_ssi(params, 0.0, far, -far)
    if tau.ndim:
        return herald, thermal
    return float(herald), float(thermal)


# ---------------------------------------------------------------------------
# Exact antiderivatives used by the area-preserving grid samplers.
# ---------------------------------------------------------------------------


def cross_sq_cumulative(params: SourceParams, tau):
    """Running integral of C(u)^2 from -inf to tau; totals R at +inf."""
    tau = np.asarray(tau, dtype=float)
    r, dt = params.pair_rate, params.coherence_time
    if params.shape == "box":
        # density r/dt on [-dt/2, dt/2]
        out = (r / dt) * (np.clip(tau, -dt / 2, dt / 2) + dt / 2)
    else:
        # density (r/dt) * (1 - |u|/dt) on [-dt, dt]
        u = np.clip(tau, -dt, dt)
        neg = (r / dt) * np.square(u + dt) / (2 * dt)
        pos = r / 2 + (r / dt) * (u - np.square(u) / (2 * dt))
        out = np.where(u <= 0, neg, pos)
    return out if out.ndim else float(out)


def auto_sq_cumulative(params: SourceParams, tau):
    """Running integral of R(u)^2 from -inf to tau."""
    tau = np.asarray(tau, dtype=float)
    r, dt = params.pair_rate, params.coherence_time
    if params.shape == "box":
        out = r**2 * (np.clip(tau, -dt / 2, dt / 2) + dt / 2)
    else:
        # R(u)^2 = r^2 (1 - |u|/dt)^2 on [-dt, dt]; odd-symmetric primitive
        u = np.clip(tau, -dt, dt)
        from_zero = (dt / 3) * (1.0 - (1.0 - np.abs(u) / dt) ** 3)
        out = r**2 * (dt / 3 + np.sign(u) * from_zero)
    return out if out.ndim else float(out)


def auto_sq_antider2(params: SourceParams, tau):
    """Second antiderivative Q(tau) of R(u)^2 with Q(0) = Q'(0) = 0.

    Even by construction.  Second central differences of Q give exact cell
    averages of R(t1-t2)^2 over square grid cells, which keeps the discrete
    integral of the diagonal correlation ridge exact on any grid.
    """
    tau = np.asarray(tau, dtype=float)
    r, dt = params.pair_rate, params.coherence_time
    u = np.abs(tau)
    if params.shape == "box":
        inner = np.square(np.minimum(u, dt / 2)) / 2
        outer = np.clip(u - dt / 2, 0.0, None) * (dt / 2)
        out = r**2 * (inner + outer)
    else:
        v = np.minimum(u, dt)
        inner = (dt / 3) * (v + (dt / 4) * ((1.0 - v / dt) ** 4 - 1.0))
        outer = np.clip(u - dt, 0.0, None) * (dt / 3)
        out = r**2 * (inner + outer)
    return out if out.ndim else float(out)
