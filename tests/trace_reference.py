"""Floating-point test oracles: character traces and complex eigenvalues.

The library works in exact arithmetic only.  These two numeric views of its
objects check it from outside: :func:`trace` gives the character of a
W_ℝ-representation at a Weil-group element, so the tensor rules of
:mod:`gpkit.weilrep` can be checked against the pointwise product of
characters; :func:`eigenvalue_tokens` and :func:`token_to_complex` list and
evaluate the exact eigenvalues of a class datum of :mod:`gpkit.conjclass`.

The module name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from gpkit.conjclass import KappaDatum, factor_eigenvalues
from gpkit.weilrep import CharRep, WeilRep


@dataclass(frozen=True)
class WeilElement:
    """A point of W_ℝ = ℂ^× ∪ j·ℂ^×: the value ``z`` with an optional j in front."""

    z: complex
    flip: bool = False

    def __post_init__(self) -> None:
        if self.z == 0:
            raise ValueError("z must be a nonzero complex number")


def trace(x, g: WeilElement) -> complex:
    """Character value of an irreducible or a WeilRep at a Weil-group element.

    Char(a,t) factors through w ↦ (sgn w)·|w|: at z it takes (z z̄)^{it}, at j·z
    the sign contributes (−1)^a.  Disc(k,t) has trace 2cos(kθ)(z z̄)^{it} on
    ℂ^× and vanishes off the identity component.
    """
    if isinstance(x, WeilRep):
        return sum(m * trace(rho, g) for rho, m in x)
    norm = (g.z * g.z.conjugate()).real  # z z̄ > 0
    twist = cmath.exp(1j * float(x.t) * math.log(norm))
    if isinstance(x, CharRep):
        return ((-1) ** x.a if g.flip else 1) * twist
    if g.flip:
        return 0j
    theta = cmath.phase(g.z)
    return 2 * math.cos(x.k * theta) * twist


def eigenvalue_tokens(kappa: KappaDatum) -> list:
    """The exact eigenvalue tokens of every factor of ``kappa``, in order."""
    return [tok for f in kappa for tok in factor_eigenvalues(f)]


def token_to_complex(tok) -> complex:
    """The complex number an exact eigenvalue token stands for."""
    if tok[0] == "c":
        return complex(tok[1], tok[2])
    return cmath.exp(1j * math.pi * float(tok[1]))
