"""Archimedean local factors at the center of the functional equation.

Convention lock
---------------
Additive character ψ(x) = e^{2πix} on ℝ with its self-dual Haar measure, and
ψ_ℂ = ψ∘Tr on ℂ with self-dual measure 2·dx·dy.  Multiplicative Haar measures
are dx/|x| and 2 dx dy/|z|²_ℂ.  Under these conventions the sign character has
root number i, and more generally

    ε(1/2, sgn^a·|·|^{it}, ψ) = i^a          (independent of t)
    ε(1/2, D_k ⊗ |·|^{it}, ψ) = i^{k+1}      (independent of t)

The table is stored as exact exponents mod 4 (:class:`FourthRoot`).  It was
certified — before being relied on — by :func:`eps_numeric_oracle`, which knows
nothing of the table: it evaluates the local γ-factor at s = 1/2 by numerical
quadrature of Tate/Godement–Jacquet zeta integrals against Gaussian test
functions, on ℝ for characters and on ℂ (through induction in stages, with
λ(ℂ/ℝ, ψ) itself computed numerically as ε(1/2, sgn, ψ), its error charged
to every D_k call) for the D_k.  Everything is evaluated at s = 1/2 only.

On ℝ the Mellin integral of f̂ against sgn^a reads f̂(y) + (−1)^a f̂(−y) at
nodes y > 0.  The test functions are real, so f̂(−y) = conj f̂(y) and that is
2·Re f̂(y) for a = 0 and 2i·Im f̂(y) for a = 1: only that part is integrated,
as one integral of f_a(x)·(cos, sin)(2πxy).  That integrand is even (f_a and
its kernel both have parity a), so the rule runs over the half line x ≥ 0
and the result is doubled.  The twist t enters the Mellin kernel |x|^{it}
and never f̂, so each node's part depends on (a, y) alone and is computed
once per process, for every twist.  On the ℂ side the radial Fourier
transform is Weber's closed form (Gradshteyn–Ryzhik 6.631.4), which is real
and positive and so adds no phase of its own; with it the radial integral of
f̂ is the complex conjugate of the radial integral of f, so only the latter
is integrated.  At s = 1/2 the dual's L-factor is the conjugate of ρ's,
L(1/2, ρ^∨) = conj L(1/2, ρ), so the L-ratio is exp(2i·Im log L(1/2, ρ)):
one log Γ per call, which stays in the float range for large k.

Every integral is one call of ``integrate.quad``, the adaptive Gauss–Kronrod
rule of :mod:`gpkit.quadrature`, which integrates complex integrands
directly and calls each integrand once per panel, on its 21 abscissae.  The
character path's two rules start from fixed break points: the Mellin window
at the seven midpoints that the rule's own first bisections reach toward
the cut-off of f(e^u) near u ≈ 0 (``_U_POINTS``), and the Fourier window of
the node y on the grid of [0, 3] with step 1.5/2^j, j ≥ 0 least with at most
two periods of the kernel per panel, and at 3 (:func:`_fourier_part`).
So a small twist's Mellin rule bisects no panel, and the Fourier rules
bisect few: on the benchmark's seed-1 input the 336 of them start from
1,392 panels and make 132 bisections (447 from (1.5, 3)).  The D_k radial
rule starts from its whole window.  The quadrature module is imported on
first use, by the oracle; the exact table does not need it, so importing
this module leaves it unloaded.
"""

from __future__ import annotations

import cmath
import math
from functools import cache, lru_cache
from itertools import accumulate, repeat

from .quadspace import _Value
from .weilrep import CharRep, DiscRep, IrredRep, WeilRep

__all__ = [
    "FourthRoot",
    "NotSymplectic",
    "QuadratureFailure",
    "eps_half",
    "eps_numeric_oracle",
]


@cache
def _quadrature():
    """The module :mod:`gpkit.quadrature`, imported on first use and bound
    once per process: the oracle's integrands and log Γ come from it, and
    it is the default ``integrate``.

    Only the ε oracle integrates, so importing this module does not load
    :mod:`gpkit.quadrature`.
    """
    from . import quadrature

    return quadrature


def _integrate():
    """The quadrature module, :func:`_quadrature`, kept as the module global
    ``integrate``, through which every integral runs.

    A global that is already set (for instance a wrapper put in its place)
    is returned as it is, never replaced.
    """
    mod = globals().get("integrate")
    if mod is None:
        mod = globals()["integrate"] = _quadrature()
    return mod


def __getattr__(name: str):
    # PEP 562: ``integrate`` resolves on first attribute access.
    if name == "integrate":
        return _integrate()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotSymplectic(ValueError):
    """ε came out imaginary: the input was not of symplectic type."""


class QuadratureFailure(ArithmeticError):
    """Adaptive integration did not reach the requested accuracy."""


class FourthRoot(_Value):
    """An exact fourth root of unity i^e, stored as the exponent e mod 4."""

    _fields = ("e",)

    def __init__(self, e: int) -> None:
        self.__dict__["e"] = e % 4

    @property
    def is_real(self) -> bool:
        return self.e % 2 == 0

    def as_sign(self) -> int:
        """This root as ±1; raises :class:`NotSymplectic` when imaginary."""
        if not self.is_real:
            raise NotSymplectic(f"i^{self.e} is not a sign")
        return 1 if self.e == 0 else -1

    @property
    def value(self) -> complex:
        return (1, 1j, -1, -1j)[self.e]

    def __str__(self) -> str:
        return ("1", "i", "-1", "-i")[self.e]


def _base_exponent(rho: IrredRep) -> int:
    # Certified by eps_numeric_oracle under the ψ convention of the module doc.
    if isinstance(rho, CharRep):
        return rho.a
    return (rho.k + 1) % 4


def eps_half(A: WeilRep | IrredRep) -> FourthRoot:
    """ε(1/2, A, ψ) as an exact fourth root; multiplicative over direct sums."""
    if isinstance(A, (CharRep, DiscRep)):
        return FourthRoot(_base_exponent(A))
    return FourthRoot(sum(m * _base_exponent(rho) for rho, m in A))


def _log_l_factor(rho: IrredRep) -> complex:
    """log L(1/2, ρ) of the local L-factor at the center,

        Char(a,t) ↦ π^{-w} Γ(w),        w = (1/2 + a + it)/2;
        Disc(k,t) ↦ 2(2π)^{-w} Γ(w),     w = (1 + k)/2 + it,

    through log Γ: it stays in the float range where Γ itself overflows
    (from Γ(172) on).  Re w ≥ 1/4, so w is never a pole of Γ."""
    loggamma = _quadrature().loggamma
    if isinstance(rho, CharRep):
        w = complex((1 + 2 * rho.a) / 4, float(rho.t / 2))
        return loggamma(w) - w * math.log(math.pi)
    w = complex((1 + rho.k) / 2, float(rho.t))
    return math.log(2) + loggamma(w) - w * math.log(2 * math.pi)


def _l_ratio(rho: IrredRep) -> complex:
    """L(1/2, ρ) / L(1/2, ρ^∨) = exp(2i·Im log L(1/2, ρ)).

    The dual ρ^∨ is ρ with the twist t negated, and L(1/2, ρ^∨) =
    conj L(1/2, ρ): its Γ argument is the conjugate one, and Γ(w̄) = conj Γ(w).
    """
    return cmath.exp(2j * _log_l_factor(rho).imag)


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(limit=250, epsabs=1e-11, epsrel=1e-11)
# The radial integral's error is charged relative to its modulus, so its rule
# stops at the relative tolerance alone: an absolute floor would stop early
# wherever a twist makes the integral small by cancellation.
_RADIAL_OPTS = dict(_QUAD_OPTS, epsabs=0.0)

# Finite integration windows.  Every integrand below carries a factor
# e^{-πx²} (real side) or e^{-2πr²} (complex side), so the discarded tail is
# of order e^{-π·36} ≈ 1e-49 — twenty orders of magnitude below the oracle
# tolerance.
_X_CUT = 6.0       # x cut of the even e^{-πx²}-weighted integrands on [0, _X_CUT]
_U_LO, _U_HI = -90.0, 1.7   # x = e^u window for Mellin integrals (e^{1.7} ≈ 5.5)
_R_CUT = 4.0       # least radial cut of the r^k e^{-2πr²} integrand

# The Mellin rule's initial partition.  Its integrand g(e^u)·e^{(1/2±it)u}
# is small and smooth far left and cut off by g(e^u) near u ≈ 0, so the
# rule's first seven bisections of [_U_LO, _U_HI] each halve the panel next
# to _U_HI; the break points are those midpoints, computed as the rule
# computes them.
_U_POINTS = tuple(
    accumulate(range(7), lambda u, _: 0.5 * (u + _U_HI), initial=_U_LO)
)[1:]


class _Quadrature:
    """One oracle call's integrator, ``integrate.quad`` bound once per call
    through :func:`_integrate`, and the error budget that every integral of
    the call draws on."""

    def __init__(self, tol: float) -> None:
        self.quad = _integrate().quad
        self.tol = tol
        self.spent = 0.0

    def add(self, err: float) -> None:
        self.spent += err
        if not self.spent <= self.tol:  # a NaN estimate fails too
            raise QuadratureFailure(
                f"accumulated quadrature error {self.spent:.2e} exceeds {self.tol:.2e}"
            )


def _gauss(x: float) -> float:
    return math.exp(-math.pi * x * x)


def _x_gauss(x: float) -> float:
    return x * math.exp(-math.pi * x * x)


# The real Gaussian test function of parity a, indexed by a: it is matched to
# the parity of sgn^a, so neither zeta integral vanishes.
_TEST_FUNCTIONS = (_gauss, _x_gauss)


@cache
def _fourier_part(a: int, y: float) -> tuple[float, float]:
    """The part of f̂_a(y) that the Mellin integral reads, and its error.

    f̂(y) = ∫ f(x) ψ(xy) dx with ψ(x) = e^{2πix}, for the test function f_a.
    The part is Re f̂_a(y) = ∫ f_a(x) cos(2πxy) dx for a = 0 and
    Im f̂_a(y) = ∫ f_a(x) sin(2πxy) dx for a = 1, one integral either way,
    at the node y > 0.

    The integral runs over [0, _X_CUT] only, and its value and its error
    estimate are doubled.  This is exact: f_a(−x) = (−1)^a f_a(x), and the
    kernel w_a = (cos, sin)[a] of 2πxy has the same parity, w_a(−x) =
    (−1)^a w_a(x).  So g = f_a·w_a has g(−x) = (−1)^{2a} g(x) = g(x), and
    ∫_{−X}^{X} g = ∫_0^X g + ∫_0^X g(−x) dx = 2 ∫_0^X g.  The doubled error
    estimate bounds the doubled integral's error.

    The part depends on (a, y) alone, so it is memoised for the process.
    The Mellin nodes are the Kronrod nodes of the 8 panels of the fixed
    partition ``_U_POINTS`` and of their bisections: a rule that bisects
    nothing reads the same 8 × 21 = 168 nodes per parity for every twist,
    and each panel a rule bisects adds the 42 nodes of its halves, at most
    ``limit`` panels per rule.  That bounds the memo.

    The rule's break points follow the node: the grid of [0, 3] with step
    h = 1.5/2^j, j ≥ 0 least with h·y ≤ 2, so that no panel holds more than
    two periods of the kernel, and then 3; past 3, e^{-πx²} is below 1e-12
    and [3, _X_CUT] is one panel.  For y ≤ 4/3 the points are (1.5, 3).
    Every panel the rule integrates is then a dyadic piece of [0, 3] or of
    [3, _X_CUT], whatever y is, so f_a's 21 values on a panel are shared by
    every node, through the memo of
    :func:`gpkit.quadrature.fourier_integrand`.  Its entries for f_a are
    the distinct panels of the process's Fourier rules: the grid panels
    with h ≥ 0.1875, the step of the largest node e^{_U_HI} ≈ 5.5, which
    are 30, then [3, _X_CUT], and the halves of the panels a rule bisects,
    at most ``limit`` per rule.
    The integral runs through :func:`_integrate`, so a wrapper put in place
    of ``integrate`` sees it.
    """
    h = 1.5
    while h * y > 2:
        h /= 2
    integrand = _quadrature().fourier_integrand(
        _TEST_FUNCTIONS[a], (math.cos, math.sin)[a], 2 * math.pi * y
    )
    half, err = _integrate().quad(
        integrand, 0.0, _X_CUT, points=tuple(accumulate(repeat(h, round(3 / h)))),
        **_QUAD_OPTS,
    )
    return 2 * half, 2 * err


def _mellin_real(g, t: float, q: _Quadrature) -> complex:
    """∫₀^∞ g(x) x^{1/2+it} d^×x via the substitution x = e^u.

    With g(x) = φ(x) + (−1)^a φ(−x) this is the zeta integral
    ∫_{ℝ^×} φ(x) sgn(x)^a |x|^{1/2+it} d^×x.  ``g`` maps a list of x to the
    list of g(x), as the rule's integrands do.
    """
    integrand = _quadrature().mellin_integrand(g, 0.5 + 1j * t)
    val, err = q.quad(integrand, _U_LO, _U_HI, points=_U_POINTS, **_QUAD_OPTS)
    q.add(err)
    return val


def _eps_oracle_char(rho: CharRep, q: _Quadrature) -> complex:
    """ε(1/2, sgn^a|·|^{it}, ψ) = γ(1/2) · L(1/2, χ) / L(1/2, χ^{-1}).

    γ(1/2) = Z(f̂, χ^{-1}, 1/2) / Z(f, χ, 1/2) for the test function f = f_a
    of parity a (Tate's local functional equation), and each zeta integral
    is a Mellin integral over x > 0 of φ(x) + (−1)^a φ(−x), for φ = f or f̂.

    Only one part of f̂ is integrated.  f is real, so f̂(−y) = conj f̂(y)
    and f̂(y) + (−1)^a f̂(−y) is 2·Re f̂(y) for a = 0 and 2i·Im f̂(y) for
    a = 1: one integral (cos or sin kernel) per node y of the Mellin rule,
    :func:`_fourier_part`.  The twist t never enters f̂: it sits in the
    Mellin kernel x^{1/2−it} alone, so a node's part depends on (a, y)
    only and is computed once per process, and every twist's Mellin rule
    subdivides the same u window from the same Gauss–Kronrod nodes.  The
    error budget does not depend on what an earlier call computed: each
    call charges 2·err, the error of what its integrand reads, for every
    node it reads (a node read twice would be charged twice, which only
    overcharges).

    By the same parity, φ(x) + (−1)^a φ(−x) is 2·f(x) for φ = f, and it is
    evaluated that way: f(−x) is (−1)^a f(x) bit for bit, since negating x
    changes only signs, which round symmetrically.
    """
    a, t = rho.a, float(rho.t)
    f = _TEST_FUNCTIONS[a]
    fold = (2, 2j)[a]

    def fhat_fold(ys: list[float]) -> list[complex]:
        out = []
        for y in ys:
            part, err = _fourier_part(a, y)
            q.add(2 * err)
            out.append(fold * part)
        return out

    z_top = _mellin_real(fhat_fold, -t, q)                      # Z(f̂, χ^{-1}, 1/2)
    z_bot = _mellin_real(lambda xs: [2 * f(x) for x in xs], t, q)  # Z(f, χ, 1/2)
    return z_top / z_bot * _l_ratio(rho)


@lru_cache(maxsize=1)
def _lambda_factor() -> tuple[complex, float]:
    """λ(ℂ/ℝ, ψ) = ε(1/2, sgn, ψ), computed numerically, and the error its
    integrals charge.

    It is computed once per process, under no budget of its own: every
    D_k call charges that error to its own budget instead.
    """
    q = _Quadrature(math.inf)
    return _eps_oracle_char(CharRep(1), q), q.spent


def _eps_oracle_disc(rho: DiscRep, q: _Quadrature) -> complex:
    """ε(1/2, D_k ⊗ |·|^{it}, ψ) = λ(ℂ/ℝ,ψ) · ε(1/2, χ_{k,t}, ψ_ℂ).

    The ℂ^×-side zeta integrals use f(z) = z̄^k e^{-2π|z|²}.  The angular
    integral in the ψ_ℂ-Fourier transform of f is carried out with the Bessel
    identity ∫₀^{2π} e^{i(x cos θ − kθ)} dθ = 2π i^k J_k(x), which leaves the
    Hankel integral G in closed form (Weber; Gradshteyn–Ryzhik 6.631.4):

        Z(f, χ, 1/2)         = 4π ∫ r^{k+2it} e^{-2πr²} dr      = 4π I
        Z(f̂, χ^{-1}, 1/2)   = 16π² i^k ∫ G(ρ) ρ^{-2it} dρ,
        G(ρ)                 = ∫₀^∞ r^{k+1} e^{-2πr²} J_k(4πrρ) dr
                             = ρ^k e^{-2πρ²} / (4π).

    So G(ρ)ρ^{-2it} = conj(ρ^{k+2it} e^{-2πρ²}) / (4π), Z(f̂)/Z(f) =
    i^k·conj(I)/I, and the one radial integral I is all that is integrated.
    G is real and positive, so it carries no phase: the i^k is the angular
    identity's and the remaining i is λ(ℂ/ℝ, ψ), computed numerically; the
    error of λ's integrals is charged to this call's budget too.

    The integrand r^{k+2it} e^{-2πr²} peaks at r = √(k/4π) with width
    ≈ 0.2, so the window runs three units past the peak (it is ``_R_CUT``
    for k ≤ 12).  I grows like Γ((k+1)/2)/(2π)^{k/2} and only conj(I)/I
    counts, so its error estimate is charged relative to its modulus, twice,
    once for I and once for conj(I): since |ε| = 1, that bounds the error of
    ε.  The integrand is one exponential, e^{(k+2it)·log r − 2πr²}, and the
    L-ratio is exp(2i·Im log L), so nothing overflows before the integral
    does: D_k is certified up to k = 520, and from k = 521 on, where
    e^{k·log r − 2πr²} leaves the float range at its peak, the oracle raises
    :class:`QuadratureFailure`.
    """
    k, t = rho.k, float(rho.t)
    r_cut = max(_R_CUT, math.sqrt(k / (4 * math.pi)) + 3)

    integrand = _quadrature().power_gaussian(k + 2j * t, 2 * math.pi)
    try:
        val, err = q.quad(integrand, 0.0, r_cut, **_RADIAL_OPTS)
    except OverflowError as exc:
        raise QuadratureFailure(f"D_{k} leaves the float range: {exc}") from exc
    if not (cmath.isfinite(val) and val):
        raise QuadratureFailure(f"radial integral came out {val}")
    q.add(2 * err / abs(val))
    lam, lam_err = _lambda_factor()
    q.add(lam_err)
    gamma = (1, 1j, -1, -1j)[k % 4] * (val.conjugate() / val)
    return lam * gamma * _l_ratio(rho)


def eps_numeric_oracle(rho: IrredRep, tol: float = 1e-6) -> complex:
    """ε(1/2, ρ, ψ) by numerical quadrature of the local functional equation.

    Independent of the exact table in :func:`eps_half`; used to certify it.
    Raises :class:`QuadratureFailure` if the integrators cannot promise the
    requested tolerance.  A tolerance that is a bool (:class:`TypeError`),
    NaN or not positive (:class:`ValueError`) is refused before any
    quadrature runs.
    """
    if isinstance(tol, bool):
        raise TypeError(f"tol must be a number, not a bool: {tol!r}")
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol!r}")
    q = _Quadrature(tol / 10)
    if isinstance(rho, CharRep):
        return _eps_oracle_char(rho, q)
    if isinstance(rho, DiscRep):
        return _eps_oracle_disc(rho, q)
    raise TypeError(f"not an irreducible representation: {rho!r}")
