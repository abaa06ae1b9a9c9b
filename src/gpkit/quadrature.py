"""Adaptive Gauss–Kronrod quadrature and complex log Γ for the ε oracle.

:func:`quad` is QUADPACK's globally adaptive rule QAG with the 21-point
Gauss–Kronrod pair (Piessens, de Doncker-Kapenga, Überhuber and Kahaner,
*QUADPACK*, 1983): the panel with the largest error estimate is bisected
until the summed estimate meets the tolerance or the panel count reaches
``limit``.  Each panel's estimate is QUADPACK's qk21 estimate.  The
integrand is called once per panel: it takes the panel's 21 Kronrod
abscissae, in the order of ``_XGK``, and returns their 21 values, so a
caller's integrand is one list comprehension and not 21 Python calls.  Break
``points`` give the initial partition, as in QUADPACK's QAGP (scipy's
``points=``) but with QAG's plain bisection and no extrapolation: a caller
that knows where the rule would bisect anyway starts there, and no
integrand call is spent on a parent panel that is thrown away.  Values may
be complex; magnitudes are moduli, so one pass integrates a complex
integrand.

The oracle's three integrands are built here, in that convention:
:func:`fourier_integrand` (f(x)·kernel(w·x), with f's values on a panel
shared by every frequency w), :func:`mellin_integrand` (g(e^u)·e^{su})
and :func:`power_gaussian` (r^c·e^{−τr²}).  They live here and not in
:mod:`gpkit.epsilon` because every χ process imports that module for its
exact table and compiles it, and none integrates.

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

__all__ = [
    "fourier_integrand",
    "loggamma",
    "mellin_integrand",
    "power_gaussian",
    "quad",
]

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
    """The K21 value of ∫_a^b f and QUADPACK's qk21 error estimate, from
    one call of f on the 21 abscissae.

    The raw estimate |K21 − G10| is scaled by the integrand's spread about
    its mean (``resasc``) as (200·raw/resasc)^{3/2}·resasc, and never set
    below 50 machine epsilons of ∫|f| (``resabs``).
    """
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fv = f([centr + hlgth * x for x in _XGK])
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

    ``f`` maps the list of a panel's 21 Kronrod abscissae to the list of
    its values there, one call per panel.

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


# Per function f, the panels that a fourier_integrand of f has been called
# on: each panel's first abscissa → (its 21 abscissae, f's values there).
_F_VALUES: dict = {}


def fourier_integrand(f, kernel, w: float):
    """The integrand x ↦ f(x)·kernel(w·x) of a Fourier-type integral, in
    :func:`quad`'s convention.

    f's values on a panel do not depend on w, so rules at many frequencies
    that integrate the same panels evaluate f once per panel: ``_F_VALUES``
    keeps, per f, each panel's abscissae and f's values there, keyed by the
    first abscissa, and a hit must match all 21 abscissae.  Entries are
    added, never dropped, so the memo holds one entry per distinct panel
    that an integrand of f has been called on in the process; a caller
    bounds it by starting every rule from break points on one dyadic grid,
    as the ε oracle's Fourier parts do (:func:`gpkit.epsilon._fourier_part`
    states that bound).
    """
    memo = _F_VALUES.setdefault(f, {})

    def integrand(xs: list[float]) -> list[float]:
        hit = memo.get(xs[0])
        if hit is None or hit[0] != xs:
            hit = memo[xs[0]] = xs, [f(x) for x in xs]
        return [v * kernel(w * x) for v, x in zip(hit[1], xs)]

    return integrand


def mellin_integrand(g, s: complex):
    """The integrand u ↦ g(e^u)·e^{su} of a Mellin integral ∫₀^∞ g(x) x^s d^×x
    after the substitution x = e^u, in :func:`quad`'s convention; ``g``
    maps a list of x to the list of g(x) as well."""
    exp, cexp = math.exp, cmath.exp

    def integrand(us: list[float]) -> list[complex]:
        return [gx * cexp(s * u) for gx, u in zip(g(list(map(exp, us))), us)]

    return integrand


def power_gaussian(c: complex, tau: float):
    """The integrand r ↦ r^c·e^{−τr²} for r > 0, in :func:`quad`'s
    convention, as the one exponential e^{c·log r − τr²}: it stays in the
    float range wherever the value does, where r^c alone may not."""
    log, cexp = math.log, cmath.exp

    def integrand(rs: list[float]) -> list[complex]:
        return [cexp(c * log(r) - tau * r * r) for r in rs]

    return integrand


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
