"""Closed-form correlation and coherence functions of the pair source.

The low-gain source model is fully described by two real, even functions:
the beam autocorrelation R(tau) = R rho(tau / dt), R the pair rate and dt
the coherence time, and the signal-idler cross-correlation amplitude C(tau),
tied to it by C(tau)^2 = R(tau) / dt.  So C(0)^2 / R^2 = 1 / (R dt), and
the signal-idler coherence peaks at g2_si(0) = 1 + 1/(R dt).

A peak shape is stated once, in :data:`SHAPE_TABLE`: its profile rho and
rho^2 as even piecewise polynomials in units of dt (``_Spline``, one algebra
of boxes, their convolutions and their antiderivatives), from which the
profile, its support and the exact antiderivatives of the grid samplers are
all read.  ``box`` (rho = 1 on |tau| <= dt/2) is the canonical model;
``triangle`` (rho falls linearly to zero at |tau| = dt, keeping C^2(0) and
the excess integral of g2_si) shows that window-averaged observables depend
only on peak integrals, not on peak shapes.

The triple rate's terms carry one coefficient each per source statistics,
declared once in :data:`TRIPLE_TERMS` and read by ``p_ssi``,
``g2_ss_unconditional`` and the smearing layer.

All functions accept scalars or numpy arrays for the time arguments and
broadcast in the usual way.
"""
from __future__ import annotations

import functools
import math

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


class _Spline:
    """An even piecewise polynomial f(x), the sum of c (x - s)_+^n / n! over
    its terms (c, s, n), zero beyond its outer knots, x in units of its own
    scale; after ``integral`` its antiderivative F from -inf, after two its
    second antiderivative P with P(0) = P'(0) = 0.  Boxes, their convolutions
    and the peak profiles form one set, closed under ``conv`` and
    ``integral``: Schoenberg's B-spline construction.

    A call evaluates at -|x|, in the local coordinate of the piece holding it,
    and mirrors: f(x) = f(-|x|), F(x) = T - F(-x) for x > 0 and P(x) =
    Q(-|x|) + T |x| / 2 - Q(0), T the total of f and Q its second
    antiderivative from -inf.  So truncated powers are never summed off the
    support, where they cancel catastrophically.
    """

    def __init__(self, terms, lift: int = 0):
        self.terms, self.lift = tuple(terms), lift
        left = sorted({s for _, s, _ in self.terms if s < 0})
        self.knots = np.array(left[:1] + left)  # a zero piece left of the support
        # row k: each piece's Taylor coefficient of u^k, u = x - its knot
        self.coef = np.zeros((max(n for *_, n in self.terms) + lift + 1, len(self.knots)))
        for piece, a in enumerate(left, 1):
            for c, s, n in self.terms:
                for k in range(n + lift + 1) if s <= a else ():
                    j = n + lift - k
                    self.coef[k, piece] += c * (a - s)**j / math.factorial(j) / math.factorial(k)
        # F(0) = T / 2 and Q(0), from the left half's terms
        self.half, self.q0 = (sum(c * (-s) ** (n + j) / math.factorial(n + j)
                                  for c, s, n in self.terms if s < 0) for j in (1, 2))

    @staticmethod
    def box(w: float) -> _Spline:
        """The unit-area box on |x| <= w."""
        return _Spline([(0.5 / w, -w, 0), (-0.5 / w, w, 0)])

    def conv(self, other: _Spline) -> _Spline:
        """f convolved with ``other``, term by term: (x - a)_+^m / m! with
        (x - b)_+^n / n! gives (x - a - b)_+^(m+n+1) / (m+n+1)!."""
        return _Spline([(c * d, s + t, m + n + 1)
                        for c, s, m in self.terms for d, t, n in other.terms])

    @functools.lru_cache(maxsize=32)  # the table's antiderivatives, built once
    def integral(self) -> _Spline:
        return _Spline(self.terms, self.lift + 1)

    def __call__(self, x) -> np.ndarray:
        """f, F or P at ``x``: always a new ndarray, 0-d for a scalar."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        # -|x|, clamped at twice the outer knot: far points, inf too, read the zero piece
        v = np.maximum(-ax, 2 * self.knots[0])
        i = sum(v >= s for s in self.knots[1:])  # the last knot at or left of v
        u, out = v - self.knots[i], self.coef[-1].take(i)
        for c in self.coef[-2::-1]:
            out *= u
            out += c.take(i)
        if self.lift == 1:
            out = np.where(x > 0, 2 * self.half - out, out)
        elif self.lift == 2:
            out = out + self.half * ax - self.q0
        return np.asarray(out)


_BOX = _Spline.box(0.5)

#: each shape's profile rho = R(tau)/R and its square, keyed by the power, in
#: units of dt: the box indicator of |x| <= 1/2, its own square, and the
#: triangle (x+1)_+ - 2 x_+ + (x-1)_+ = box * box, whose square is
#: (x+1)_+^2 - (x-1)_+^2 - 4 x_+
SHAPE_TABLE = {
    "box": {1: _BOX, 2: _BOX},
    "triangle": {1: _BOX.conv(_BOX),
                 2: _Spline([(2.0, -1.0, 2), (-4.0, 0.0, 1), (-2.0, 1.0, 2)])},
}


def support(params: SourceParams) -> float:
    """Half-width beyond which C and R vanish: dt/2 for the box, dt for the triangle."""
    return -SHAPE_TABLE[params.shape][1].knots[0] * params.coherence_time


def _profile(params: SourceParams, tau) -> np.ndarray:
    """The peak profile rho(tau) = R(tau)/R of ``SHAPE_TABLE``: the indicator
    of |tau| <= dt/2 for the box, (1 - |tau|/dt) clipped at zero for the
    triangle.  Always a new ndarray, 0-d for a scalar, so that callers scale
    it in place and form no second array of its size."""
    return SHAPE_TABLE[params.shape][1](np.divide(tau, params.coherence_time))


def cross_sq_cumulative(params: SourceParams, tau):
    """Running integral of C(u)^2 = R rho(u/dt) / dt from -inf to tau, the
    first antiderivative R F(tau/dt) of the profile; totals R at +inf."""
    antider = SHAPE_TABLE[params.shape][1].integral()
    out = params.pair_rate * antider(np.divide(tau, params.coherence_time))
    return out if out.ndim else float(out)


def auto_antider2(params: SourceParams, tau, power):
    """Second antiderivative P(tau) of R(u)^power, power 1 or 2, with P(0) =
    P'(0) = 0: R^power dt^2 times that of rho^power at tau/dt.  Even, and
    linear beyond the support.  Mixed second differences of P are exact
    integrals of R(t1-t2)^power over rectangles, so the diagonal ridge
    (power 2) and the central triple term (power 1) keep exact integrals."""
    dt = params.coherence_time
    antider = SHAPE_TABLE[params.shape][power].integral().integral()
    out = params.pair_rate**power * dt**2 * antider(np.divide(tau, dt))
    return out if out.ndim else float(out)


def auto_correlation(params: SourceParams, tau):
    """Beam autocorrelation R(tau) = R rho(tau); R(0) equals the pair rate."""
    out = _profile(params, tau)
    out *= params.pair_rate
    return out if out.ndim else float(out)


def cross_correlation(params: SourceParams, tau):
    """Signal-idler cross-correlation amplitude C(tau) = sqrt(R(tau) / dt),
    sqrt(R / dt) at zero delay for every shape."""
    out = _profile(params, tau)
    out *= params.pair_rate / params.coherence_time
    np.sqrt(out, out=out)
    return out if out.ndim else float(out)


def g2_si(params: SourceParams, tau):
    """Signal-idler second-order coherence, 1 + C(tau)^2 / R^2: on the box,
    1 + 1/(R*dt) inside |tau| <= dt/2 and exactly 1 outside."""
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
    t1, t2, ti = (np.asarray(t, dtype=float) for t in (t1, t2, ti))
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
    return p_ssi(params, 0.0, tau, 0.0)


def g2_c(params: SourceParams, t1, t2, ti):
    """Signal-signal coherence conditioned on an idler detection at ti.

    Defined as P(t1, t2, ti) / (R^3 g2_si(t1-ti) g2_si(t2-ti)).  It tends
    to 1 when either signal time moves far away regardless of the other
    delay, and is O(R*dt) deep in the conditioned well t1 = t2 = ti.
    """
    t1, t2, ti = (np.asarray(t, dtype=float) for t in (t1, t2, ti))
    r3 = params.pair_rate**3
    denom = r3 * g2_si(params, t1 - ti) * g2_si(params, t2 - ti)
    out = np.asarray(p_ssi(params, t1, t2, ti) / denom)
    return out if out.ndim else float(out)


def limit_ratios(params: SourceParams, tau):
    """Two ratio identities of the triple rate evaluated with far offsets.

    Returns ``(heralding_ratio, thermal_ratio)`` where

    * ``heralding_ratio`` = P(ti+tau, far | ti) / P(-far, far | ti),
      which reduces to g2_si(tau), and
    * ``thermal_ratio`` = P(t1, t1+tau | ti=-far) / P(t1, far | ti=-far),
      which reduces to ``g2_ss_unconditional(tau)``.

    "far" means offsets of ``FAR_FACTOR`` coherence times beyond |tau|, so
    every signal-idler and signal-signal lag there exceeds every support.
    """
    tau = np.asarray(tau, dtype=float)
    far = FAR_FACTOR * params.coherence_time + 2.0 * np.abs(tau)
    herald = np.asarray(p_ssi(params, tau, far, 0.0)) / p_ssi(params, -far, far, 0.0)
    thermal = np.asarray(p_ssi(params, 0.0, tau, -far)) / p_ssi(params, 0.0, far, -far)
    if tau.ndim:
        return herald, thermal
    return float(herald), float(thermal)
