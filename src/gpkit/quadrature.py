"""Adaptive Gauss–Kronrod quadrature and complex log Γ for the ε oracle.

:func:`quad` is QUADPACK's globally adaptive rule QAG with the 21-point
Gauss–Kronrod pair (Piessens, de Doncker-Kapenga, Überhuber and Kahaner,
*QUADPACK*, 1983): the panel with the largest error estimate is bisected
until the summed estimate meets the tolerance or the panel count reaches
``limit``.  Each panel's estimate is QUADPACK's qk21 estimate.  Break
``points`` give the initial partition, as in QUADPACK's QAGP (scipy's
``points=``) but with QAG's plain bisection and no extrapolation: a caller
that knows where the rule would bisect anyway starts there, and no
integrand call is spent on a parent panel that is thrown away.  Values may
be complex; magnitudes are moduli, so one pass integrates a complex
integrand.

:func:`loggamma` is log Γ(z) for complex z, by upward recurrence to
Re z ≥ 16 and the Stirling series there.  Its imaginary part is fixed only
modulo 2π: the oracle exponentiates differences of it.

Only the ε oracle imports this module, on first use.
"""

from __future__ import annotations

import cmath
import heapq
import math
from operator import mul

__all__ = ["loggamma", "quad"]

# The 21-point Kronrod abscissae on [-1, 1], descending.  The ten Gauss
# abscissae are the odd positions 1, 3, ..., 19.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720,
    -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784,
    -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874,
    -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493,
    -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452,
    -0.995657163025808080735527280689003,
)
# Kronrod weights at _XGK.
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068,
    0.142775938577060080797094273138717,
    0.134709217311473325928054001771707,
    0.123491976262065851077958109831074,
    0.109387158802297641899210590325805,
    0.093125454583697605535065465083366,
    0.075039674810919952767043140916190,
    0.054755896574351996031381300244580,
    0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
)
# Gauss weights at _XGK[1::2].
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
    0.295524224714752870173892994651338,
    0.269266719309996355091226921569469,
    0.219086362515982043995534934228163,
    0.149451349150580593145776339657697,
    0.066671344308688137593568809893332,
)

_EPMACH = 2.0**-52  # QUADPACK's d1mach(4)
_UFLOW = 2.0**-1022  # d1mach(1)


def _qk21(f, a: float, b: float):
    """The K21 value of ∫_a^b f and QUADPACK's qk21 error estimate.

    The raw estimate |K21 − G10| is scaled by the integrand's spread about
    its mean (``resasc``) as (200·raw/resasc)^{3/2}·resasc, and never set
    below 50 machine epsilons of ∫|f| (``resabs``).
    """
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fv = [f(centr + hlgth * x) for x in _XGK]
    resk = sum(map(mul, _WGK, fv))
    resg = sum(map(mul, _WG, fv[1::2]))
    mean = 0.5 * resk
    dh = abs(hlgth)
    resabs = dh * sum(map(mul, _WGK, map(abs, fv)))
    resasc = dh * sum(map(mul, _WGK, [abs(v - mean) for v in fv]))
    err = abs((resk - resg) * hlgth)
    if resasc and err:
        err = resasc * min(1.0, (200 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50 * _EPMACH):
        err = max(50 * _EPMACH * resabs, err)
    return resk * hlgth, err


def quad(f, a: float, b: float, *, points=(), epsabs: float, epsrel: float,
         limit: int):
    """(value, error estimate) of ∫_a^b f by globally adaptive G10/K21.

    The rule starts from the panels of the partition a < p₁ < … < b given
    by the break ``points`` (QUADPACK's QAGP initial partition, without its
    extrapolation); with no points that is the one panel [a, b].  It stops
    when the summed estimate is at most max(epsabs, epsrel·|value|), when
    ``limit`` panels are in use, or when the worst panel can no longer be
    bisected in floating point.  The estimate is returned either way; the
    caller decides whether it is good enough.

    Raises :class:`ValueError` unless a, the points and b are finite and
    strictly increasing, and unless the partition has at most ``limit``
    panels.
    """
    edges = (a, *points, b)
    if not (all(map(math.isfinite, edges))
            and all(lo < hi for lo, hi in zip(edges, edges[1:]))):
        raise ValueError(f"quad needs finite, increasing a, points, b: {edges!r}")
    if len(edges) - 1 > limit:
        raise ValueError(f"{len(edges) - 1} initial panels exceed limit={limit}")
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        v, e = _qk21(f, lo, hi)
        panels.append((-e, lo, hi, v))
    heapq.heapify(panels)
    total, errsum = sum(p[3] for p in panels), sum(-p[0] for p in panels)
    while errsum > max(epsabs, epsrel * abs(total)) and len(panels) < limit:
        neg_err, lo, hi, v = panels[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        v1, e1 = _qk21(f, lo, mid)
        v2, e2 = _qk21(f, mid, hi)
        heapq.heapreplace(panels, (-e1, lo, mid, v1))
        heapq.heappush(panels, (-e2, mid, hi, v2))
        total += v1 + v2 - v
        errsum += e1 + e2 + neg_err
    # the running sums drift; the panels are exact
    return sum(p[3] for p in panels), sum(-p[0] for p in panels)


# B_{2n} / (2n(2n−1)) for n = 1..9: the Stirling series coefficients.
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188,
)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def loggamma(z: complex) -> complex:
    """log Γ(z) modulo 2πi, for complex z off the poles 0, −1, −2, ...

    For Re z < 16, Γ(z) = Γ(z + n) / (z(z+1)···(z+n−1)) with n the least
    shift to Re ≥ 16.  There |z| ≥ 16, and the Stirling series through
    B_18 z^{-17} has a remainder below |B_20|/(380·16^19) ≈ 1e-24 relative
    to its first term.
    """
    z = complex(z)
    shift = max(0, math.ceil(16 - z.real))
    prod = 1
    for j in range(shift):
        prod *= z + j
    w = z + shift
    inv, inv2 = 1 / w, 1 / (w * w)
    series, power = 0j, inv
    for c in _STIRLING:
        series += c * power
        power *= inv2
    return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + series - cmath.log(prod)
