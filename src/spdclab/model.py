"""Closed-form correlation and coherence functions of the pair source.

The low-gain source model is fully described by two real, even functions:
the beam autocorrelation R(tau), with R(0) = pair rate R, and the
signal-idler cross-correlation amplitude C(tau).  Both are supported on a
delay range set by the coherence time dt and normalized so that

    C(0)^2 / R^2 = 1 / (R * dt)

which makes the signal-idler coherence peak g2_si(0) = 1 + 1/(R*dt).
Both shapes below share one profile rho(tau) = R(tau)/R and tie C to R by

    C(tau)^2 = R(tau) / dt

so a shape is decided once, by its profile, its support and its exact
antiderivatives.

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

The triple rate's terms carry one coefficient each per source statistics,
declared once in :data:`TRIPLE_TERMS` and read by ``p_ssi``,
``g2_ss_unconditional`` and the smearing layer.

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
    "auto_antider2",
]

#: coefficient of each term of the triple rate P(a, b), a = t1 - ti and
#: b = t2 - ti, per ``SourceParams.statistics``: the constant R^3, the ridges
#: R [C(a)^2 + C(b)^2], the diagonal R R(a - b)^2 and the central
#: C(a) C(b) R(a - b); a Poisson source has no diagonal and no central term
TRIPLE_TERMS = {
    "thermal": {"constant": 1.0, "ridges": 1.0, "diagonal": 1.0, "central": 2.0},
    "poisson": {"constant": 1.0, "ridges": 1.0, "diagonal": 0.0, "central": 0.0},
}

#: multiple of the coherence time treated as "infinitely" large when
#: evaluating limit identities with finite offsets
FAR_FACTOR = 1e3


def support(params: SourceParams) -> float:
    """Half-width beyond which C and R vanish: dt/2 for the box, dt for
    the triangle."""
    dt = params.coherence_time
    return dt / 2 if params.shape == "box" else dt


def _profile(params: SourceParams, tau) -> np.ndarray:
    """The peak profile rho(tau) = R(tau)/R: the indicator of |tau| <= dt/2
    for the box, (1 - |tau|/dt) clipped at zero for the triangle.

    Always a new ndarray, 0-d for a scalar, so that callers scale it in
    place and form no second array of its size.
    """
    tau = np.asarray(tau, dtype=float)
    dt = params.coherence_time
    if params.shape == "box":
        return np.where(np.abs(tau) <= dt / 2, 1.0, 0.0)
    return np.asarray(np.clip(1.0 - np.abs(tau) / dt, 0.0, None))


def auto_correlation(params: SourceParams, tau):
    """Beam autocorrelation R(tau) = R rho(tau); R(0) equals the pair rate."""
    out = _profile(params, tau)
    out *= params.pair_rate
    return out if out.ndim else float(out)


def cross_correlation(params: SourceParams, tau):
    """Signal-idler cross-correlation amplitude C(tau) = sqrt(R(tau) / dt).

    C(0) = sqrt(R / dt) for both shapes; the box keeps C constant over
    |tau| <= dt/2 while the triangle lets C^2 decay linearly to zero at
    |tau| = dt.
    """
    out = _profile(params, tau)
    out *= params.pair_rate / params.coherence_time
    np.sqrt(out, out=out)
    return out if out.ndim else float(out)


def g2_si(params: SourceParams, tau):
    """Signal-idler second-order coherence, 1 + C(tau)^2 / R^2.

    For the box shape this is 1 + 1/(R*dt) inside |tau| <= dt/2 and exactly
    1 outside.
    """
    out = 1.0 + np.square(cross_correlation(params, tau)) / params.pair_rate**2
    return out if out.ndim else float(out)


def g2_ss_unconditional(params: SourceParams, tau):
    """Unconditioned signal-signal coherence, 1 + d (R(tau)/R)^2.

    d is the diagonal's ``TRIPLE_TERMS`` coefficient: a thermal source gives
    2 at zero delay and 1 once the autocorrelation has died out, a Poisson
    source 1 at every delay.
    """
    bunching = np.square(auto_correlation(params, tau)) / params.pair_rate**2
    out = 1.0 + TRIPLE_TERMS[params.statistics]["diagonal"] * bunching
    return out if out.ndim else float(out)


def p_ssi(params: SourceParams, t1, t2, ti):
    """Three-fold detection rate for signals at t1, t2 and an idler at ti.

    P(t1, t2, ti) = 2 C(t1-ti) C(t2-ti) R(t1-t2)
                    + R [ R^2 + R(t1-t2)^2 + C(t1-ti)^2 + C(t2-ti)^2 ]

    for a thermal source; each term carries its ``TRIPLE_TERMS`` coefficient,
    so a Poisson source keeps R [ R^2 + C(t1-ti)^2 + C(t2-ti)^2 ].  Symmetric
    under t1 <-> t2, invariant under a common time shift, and bounded below
    by the accidental floor R^3.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    ti = np.asarray(ti, dtype=float)
    r, terms = params.pair_rate, TRIPLE_TERMS[params.statistics]
    c1 = cross_correlation(params, t1 - ti)
    c2 = cross_correlation(params, t2 - ti)
    a12 = auto_correlation(params, t1 - t2)
    # the symmetric pair is grouped so the result is bit-identical under
    # t1 <-> t2
    out = terms["central"] * c1 * c2 * a12 + r * (
        terms["constant"] * r**2 + terms["diagonal"] * np.square(a12)
        + terms["ridges"] * (np.square(c1) + np.square(c2))
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
    out = np.asarray(p_ssi(params, t1, t2, ti) / denom)
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
      which reduces to ``g2_ss_unconditional(tau)``.

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


def auto_antider2(params: SourceParams, tau, power):
    """Second antiderivative P(tau) of R(u)^power with P(0) = P'(0) = 0.

    Even, and linear beyond the support.  Mixed second differences of P are
    exact integrals of R(t1-t2)^power over rectangles, so the diagonal ridge
    (power 2) and the central triple term (power 1) keep exact integrals.
    """
    u = np.abs(np.asarray(tau, dtype=float))
    s = support(params)
    v, outer = np.minimum(u, s), np.clip(u - s, 0.0, None)
    if params.shape == "box":
        out = np.square(v) / 2 + outer * s
    else:
        k1, k2 = power + 1, power + 2
        out = (s / k1) * (v + (s / k2) * ((1.0 - v / s) ** k2 - 1.0)) + outer * (s / k1)
    out = params.pair_rate**power * out
    return out if out.ndim else float(out)
