"""Test oracle for :func:`gpkit.quadrature.quad`: the scalar G10/K21 rule.

This is the adaptive rule as it read when its integrand took one abscissa
per call, 21 calls per panel: QUADPACK's qk21 panel and estimate, and QAG's
bisection of the worst panel from the initial partition that ``points``
gives.  The library's rule calls its integrand once per panel on all 21
abscissae; on the same integrand and partition the two must agree in value,
error estimate and the panels they integrate.

The module name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import heapq
import math
from operator import mul

from gpkit.quadrature import _WG, _WGK, _XGK

_EPMACH = 2.0**-52  # QUADPACK's d1mach(4)
_UFLOW = 2.0**-1022  # d1mach(1)


def scalar_qk21(f, a: float, b: float):
    """The K21 value of ∫_a^b f and QUADPACK's qk21 error estimate, from 21
    calls of the scalar integrand f."""
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


def scalar_quad(f, a: float, b: float, *, points=(), epsabs: float,
                epsrel: float, limit: int):
    """(value, error estimate, panels integrated) of ∫_a^b f by QAG from the
    partition a < p₁ < … < b, for a scalar integrand f.

    The panel count includes every parent panel that was bisected.
    """
    edges = (a, *points, b)
    assert all(map(math.isfinite, edges))
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    assert len(edges) - 1 <= limit
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        v, e = scalar_qk21(f, lo, hi)
        panels.append((-e, lo, hi, v))
    count = len(panels)
    heapq.heapify(panels)
    total, errsum = sum(p[3] for p in panels), sum(-p[0] for p in panels)
    while errsum > max(epsabs, epsrel * abs(total)) and len(panels) < limit:
        neg_err, lo, hi, v = panels[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        v1, e1 = scalar_qk21(f, lo, mid)
        v2, e2 = scalar_qk21(f, mid, hi)
        count += 2
        heapq.heapreplace(panels, (-e1, lo, mid, v1))
        heapq.heappush(panels, (-e2, mid, hi, v2))
        total += v1 + v2 - v
        errsum += e1 + e2 + neg_err
    return sum(p[3] for p in panels), sum(-p[0] for p in panels), count
