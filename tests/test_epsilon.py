import cmath
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from gpkit.epsilon import (
    FourthRoot,
    NotSymplectic,
    QuadratureFailure,
    _eps_oracle_char,
    _eps_oracle_disc,
    _fourier_part,
    _lambda_factor,
    _mellin_real,
    _Quadrature,
    _TEST_FUNCTIONS,
    _X_CUT,
    eps_half,
    eps_numeric_oracle,
)
from gpkit.weilrep import CharRep, DiscRep, WeilRep


def D(k, t=0):
    return DiscRep(k, Fraction(t))


def C(a, t=0):
    return CharRep(a, Fraction(t))


class TestFourthRoot:
    def test_values(self):
        assert [str(FourthRoot(e)) for e in range(4)] == ["1", "i", "-1", "-i"]
        assert FourthRoot(1).value == 1j
        assert FourthRoot(6).e == 2

    def test_multiplication(self):
        # i^a · i^b = i^{a+b}: a product is the root of the summed exponents
        assert FourthRoot(FourthRoot(3).e + FourthRoot(3).e).e == 2
        assert FourthRoot(FourthRoot(1).e + FourthRoot(1).e).value == -1

    def test_as_sign(self):
        assert FourthRoot(2).as_sign() == -1
        assert FourthRoot(0).as_sign() == 1
        with pytest.raises(NotSymplectic):
            FourthRoot(1).as_sign()


@pytest.mark.parametrize(
    "rho,exponent",
    [
        (C(0), 0),
        (C(1), 1),
        (C(0, Fraction(1, 2)), 0),
        (C(1, Fraction(-5, 3)), 1),
        (D(1), 2),
        (D(2), 3),
        (D(3), 0),
        (D(4), 1),
        (D(1, Fraction(7, 2)), 2),
    ],
)
def test_eps_half_exponents(rho, exponent):
    """ε(1/2, ·) = i^a for characters, i^{k+1} for discrete pieces,
    independent of the unitary twist."""
    assert eps_half(rho).e == exponent


def test_eps_half_additive():
    assert eps_half(WeilRep([D(1), D(3)])).e == 2
    assert eps_half(WeilRep([(D(2), 2)])).e == 2
    assert eps_half(WeilRep()).e == 0


def l_factor(rho) -> complex:
    """Test reference for L(1/2, sgn^a|·|^{it}) = π^{-w} Γ(w),
    w = (1/2 + a + it)/2, from scipy's complex log Γ."""
    from scipy.special import loggamma

    w = complex((0.5 + rho.a) / 2, float(rho.t) / 2)
    return cmath.exp(complex(loggamma(w)) - w * math.log(math.pi))


class TestLFactor:
    def test_disc_value(self):
        # 2(2π)^{-(1/2+k/2)} Γ(1/2+k/2) at k = 1, which is 4·I with Euler's
        # integral I = ∫₀^∞ r e^{-2πr²} dr: the identity that makes the
        # oracle's D_k value λ·i^k
        from gpkit.quadrature import quad

        val, err = quad(lambda rs: [r * math.exp(-2 * math.pi * r * r) for r in rs],
                        0.0, 4.0, epsabs=0.0, epsrel=1e-13, limit=250)
        assert err < 1e-13
        assert 4 * val == pytest.approx(1 / math.pi, abs=1e-12)


@pytest.mark.parametrize("a", (0, 1))
@pytest.mark.parametrize("t", (0, Fraction(1, 3), Fraction(-5, 2), 17))
def test_gaussian_zeta_integral_is_the_l_factor(a, t):
    # Tate's computation, the lemma of _eps_oracle_char's proof: the zeta
    # integral of the Gaussian f_a against sgn^a|·|^{it} at s = 1/2, the
    # oracle's bottom integral, is L(1/2, χ), within the error it charges.
    # And the rule at −t is the rule at t conjugated, bit for bit, so
    # conj Z(f, χ, 1/2) is the oracle's Z(f, χ^{-1}, 1/2).
    f = _TEST_FUNCTIONS[a]

    def g(xs):
        return [2 * f(x) for x in xs]

    q = _Quadrature(math.inf)
    z = _mellin_real(g, float(t), q)
    assert abs(z - l_factor(C(a, t))) <= q.spent
    assert _mellin_real(g, float(-t), _Quadrature(math.inf)) == z.conjugate()


# sgn^a|·|^{it} for a ∈ {0, 1}, t ∈ {0, ±1/3, 1/2, 1}, and D_k ⊗ |·|^{it}
# for k = 1..30, t ∈ {0, -1/4}; C(0), C(1), D(1) come first, as rho0..rho2.
ORACLE_FAMILY = [C(0), C(1), D(1)]
ORACLE_FAMILY += [
    rho
    for rho in [C(a, t) for a in (0, 1)
                for t in (0, Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2), 1)]
    + [D(k, t) for k in range(1, 31) for t in (0, Fraction(-1, 4))]
    if rho not in ORACLE_FAMILY
]


def stated_accuracy(rho) -> float:
    """The README's measured bound on the oracle's distance to the exact
    root number of ``rho``, at tolerance 1e-6."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    bounds = {
        " ".join(family.split()): float(bound)
        for bound, family in re.findall(
            r"below\s+`([^`]+)`\s+for\s+(the\s+characters|every\s+`D_k`)",
            readme.read_text(),
        )
    }
    family = "the characters" if isinstance(rho, CharRep) else "every `D_k`"
    assert bounds[family] <= 1e-6
    return bounds[family]


@pytest.mark.parametrize("rho", ORACLE_FAMILY)
def test_oracle_matches_table_fast_cases(rho):
    # within the accuracy the README states, not only the tolerance
    got = eps_numeric_oracle(rho, tol=1e-6)
    assert abs(got - eps_half(rho).value) < stated_accuracy(rho)


@pytest.mark.parametrize(
    "rho",
    [D(k, t) for k in (60, 100, 200, 300, 400, 500, 520)
     for t in (0, Fraction(-1, 4), Fraction(1, 3))],
)
def test_oracle_certifies_large_k(rho):
    # the oracle reads λ·i^k for every k, so a large k costs nothing and
    # lies within the one bound the README states for every D_k
    got = eps_numeric_oracle(rho, tol=1e-6)
    assert abs(got - eps_half(rho).value) < stated_accuracy(rho)


@pytest.mark.parametrize(
    "rho",
    [C(a, Fraction(sign * n, 2)) for a in (0, 1) for sign in (1, -1)
     for n in range(36, 51)],
)
def test_oracle_certifies_twists_from_18_to_25(rho):
    # 18 ≤ |t| ≤ 25 in steps of 1/2, both parities and both signs: the
    # bottom integral, conjugated, is the dual's, so top and bottom share
    # the kernel x^{1/2−it} and their errors cancel in the ratio.  The
    # worst distance here is 2.2e-8, under the 1e-6 tolerance by far.
    assert abs(eps_numeric_oracle(rho, tol=1e-6) - 1j**rho.a) < 1e-7


def _recording(q: _Quadrature) -> list:
    """Record every (value, error) pair ``q`` integrates."""
    seen, quad = [], q.quad

    def recorded(*args, **kwargs):
        val, err = quad(*args, **kwargs)
        seen.append((val, err))
        return val, err

    q.quad = recorded
    return seen


def is_fourier(call) -> bool:
    """Whether a ``quad_log`` entry integrates a Fourier part."""
    return call[1:3] == (0.0, _X_CUT)


def test_character_path_charges_absolute_errors(quad_log):
    # With the memo cold every node the integrand reads is integrated once
    # here, over the half line, and is charged four times that integral's
    # error: the part is twice the half-line integral, and the integrand
    # reads 2·part.
    q = _Quadrature(1e-7)
    _eps_oracle_char(C(1, Fraction(1, 3)), q)
    fourier = sum(call[4] for call in quad_log if is_fourier(call))
    mellin = sum(call[4] for call in quad_log if not is_fourier(call))
    assert fourier > 0 and mellin > 0
    assert q.spent == pytest.approx(4 * fourier + mellin, rel=1e-9)


def test_character_path_charge_does_not_depend_on_the_memo(quad_log):
    # t = 3 from a cold memo, from one warmed by t = 1/3 (whose Mellin rule
    # reads part of t = 3's nodes) and from one warmed by t = 3 itself.
    computed, spent = [], []
    for warm_up in (None, Fraction(1, 3), 3):
        _fourier_part.cache_clear()
        if warm_up is not None:
            _eps_oracle_char(C(1, warm_up), _Quadrature(1e-7))
        before = len(quad_log)
        q = _Quadrature(1e-7)
        _eps_oracle_char(C(1, 3), q)
        computed.append(sum(map(is_fourier, quad_log[before:])))
        spent.append(q.spent)
    assert computed[0] > computed[1] > computed[2] == 0
    assert spent[0] == spent[1] == spent[2]


@pytest.mark.parametrize(
    "rho",
    [D(9, 1), D(14, 3), D(17, Fraction(5, 2)), D(20, 10), D(5, 10)]
    + [D(k, t) for k in (1, 5, 20, 60, 521, 600, 1000)
       for t in (0, 12, 20, 30, 40, 60, 100)],
)
def test_twisted_disc_is_certified(rho):
    # every k and every twist: a value is returned, and it is i^{k+1} up to
    # the error of λ.  When the oracle integrated the radial Γ integral too
    # it refused these past |t| ≈ 12, where that integral cancels below the
    # rule's rounding floor, and from k = 521 on, where its integrand leaves
    # the float range.
    got = eps_numeric_oracle(rho, tol=1e-6)
    assert abs(got - 1j ** ((rho.k + 1) % 4)) < 1e-12


def test_disc_path_charges_the_error_of_lambda():
    # λ(ℂ/ℝ, ψ) is ε(1/2, sgn, ψ), the integrals of C(1) itself, and it is
    # all a D_k integrates: D_3 makes no integral of its own and charges
    # exactly λ's error.  So a budget below λ's charge is too small for C(1)
    # and for every D_k (the oracle's budget is tol/10, here half of λ's
    # charge), and one just above it certifies D_3.
    lambda_err = _lambda_factor()[1]
    assert lambda_err > 0
    q = _Quadrature(math.inf)
    seen = _recording(q)
    _eps_oracle_disc(D(3), q)
    assert seen == [] and q.spent == lambda_err
    for rho in (C(1), D(3)):
        with pytest.raises(QuadratureFailure):
            eps_numeric_oracle(rho, tol=5 * lambda_err)
    eps_numeric_oracle(D(3), tol=11 * lambda_err)


def test_small_twists_start_from_the_whole_mellin_partition():
    # The benchmark's twists ±1/3, ±1/4, ±1/5 for both parities, and λ
    # (sgn at t = 0), from a cold memo: no Mellin rule bisects a panel of
    # its initial partition, so the memo holds the 21 Kronrod nodes of each
    # of the 8 initial panels per parity, and no node of a parent panel.
    _fourier_part.cache_clear()
    _lambda_factor.cache_clear()
    for a in (0, 1):
        for t in (Fraction(sign, d) for d in (3, 4, 5) for sign in (1, -1)):
            eps_numeric_oracle(C(a, t), tol=1e-6)
    _lambda_factor()
    assert _fourier_part.cache_info().currsize == 2 * 8 * 21


def _hankel_numeric(k: int, rho: float) -> float:
    """G(ρ) = ∫₀^4 r^{k+1} e^{-2πr²} J_k(4πrρ) dr by adaptive quadrature."""
    from scipy.integrate import quad
    from scipy.special import jv

    val, _err = quad(
        lambda r: r ** (k + 1) * math.exp(-2 * math.pi * r * r)
        * jv(k, 4 * math.pi * r * rho),
        0.0,
        4.0,
        limit=250,
        epsabs=1e-11,
        epsrel=1e-11,
    )
    return val


@pytest.mark.parametrize("k", [1, 60, 520])
@pytest.mark.parametrize("t", [0.0, -0.25])
def test_radial_integral_is_eulers_gamma(k, t):
    # Euler's integral, the last lemma of _eps_oracle_disc's proof: with
    # w = (k+1)/2 + it, I = ∫₀^∞ r^{k+2it} e^{-2πr²} dr = ½(2π)^{-w} Γ(w),
    # which is L(1/2, D_k ⊗ |·|^{it})/4.  The integrand is one exponential,
    # so it stays in the float range up to k = 520, where I nears the
    # largest float; it peaks at √(k/4π) with width ≈ 0.2, so the window
    # runs three units past the peak.
    from scipy.special import loggamma

    from gpkit.quadrature import quad

    c = k + 2j * t

    def integrand(rs):
        return [cmath.exp(c * math.log(r) - 2 * math.pi * r * r) for r in rs]

    cut = max(4.0, math.sqrt(k / (4 * math.pi)) + 3)
    val, err = quad(integrand, 0.0, cut, limit=250, epsabs=0.0, epsrel=1e-11)
    w = complex((k + 1) / 2, t)
    log_ref = -math.log(2) - w * math.log(2 * math.pi) + complex(loggamma(w))
    assert abs(cmath.exp(cmath.log(val) - log_ref) - 1) < err / abs(val) + 1e-12


@pytest.mark.parametrize("k", range(1, 31))
def test_hankel_closed_form(k):
    # Weber (Gradshteyn–Ryzhik 6.631.4), the G of _eps_oracle_disc:
    # ∫ r^{k+1} e^{-2πr²} J_k(4πrρ) dr = ρ^k e^{-2πρ²} / (4π).  The error
    # is measured against the largest |G| on the grid (its peak is at
    # ρ² = k/(4π)): near ρ = 4 G falls to 1e-44, far below what quadrature
    # of an integrand of size ~0.1 that cancels down to it can resolve.
    grid = [j / 5 for j in range(1, 21)] + [0.01, 0.37, 2.9]
    numeric = [_hankel_numeric(k, rho) for rho in grid]
    scale = max(map(abs, numeric))
    for rho, val in zip(grid, numeric):
        closed = rho**k * math.exp(-2 * math.pi * rho * rho) / (4 * math.pi)
        assert abs(val - closed) <= 1e-9 * scale, rho


def fourier_reference(f, y: float) -> tuple[complex, float]:
    """Test oracle for :func:`_fourier_part`: the whole f̂(y) = ∫ f(x)
    e^{2πixy} dx of a real f over the whole line [−6, 6], both its cos and
    its sin part integrated at y itself, whatever the sign of y; and the sum
    of the two error estimates.

    The kernel is part of the integrand, not a QAWO weight: near y = 0 the
    whole-line QAWO sin integral of x·e^{-πx²} cancels down to 2.3e-11 off
    the closed form at y ≈ 2.9e-11, while its error estimate reads 8.2e-12.
    """
    from scipy.integrate import quad

    w = 2 * math.pi * y
    (re, re_err), (im, im_err) = (
        quad(lambda x: f(x) * kernel(w * x), -6.0, 6.0, limit=250,
             epsabs=1e-11, epsrel=1e-11)
        for kernel in (math.cos, math.sin)
    )
    return complex(re, im), re_err + im_err


def reconstructed(a: int, y: float) -> complex:
    """f̂_a(y) from the one part :func:`_fourier_part` integrates at |y|:
    f_a has parity a, so f̂_a is real and even for a = 0, imaginary and odd
    for a = 1."""
    part, _err = _fourier_part(a, abs(y))
    return part if a == 0 else 1j * (1 if y > 0 else -1) * part


@pytest.mark.parametrize(
    "y", [sign * v for v in (0.01, 0.5, 1.0, 3.0, 5.5) for sign in (1, -1)]
)
def test_fourier_transform_of_the_test_functions(y):
    # ψ(x) = e^{2πix}: the Gaussian is self-dual and x·e^{-πx²} ↦ i·y·e^{-πy²}.
    # 5.5 ≈ e^{1.7} is the largest |y| the Mellin window reaches.
    gauss = math.exp(-math.pi * y * y)
    for a, exact in ((0, gauss), (1, 1j * y * gauss)):
        assert abs(reconstructed(a, y) - exact) < 1e-10
        assert _fourier_part(a, abs(y))[1] > 0


def test_fourier_part_matches_the_two_part_transform(monkeypatch):
    # Every node the ORACLE_FAMILY characters read, both signs, both
    # parities: against the closed forms of
    # test_fourier_transform_of_the_test_functions, and against the
    # whole-line two-part transform within the sum of the two sides' own
    # error estimates.  The largest distance to the closed forms measured
    # here is 5.3e-16; scipy's whole-line QAWO rule reads 2.3e-11 (see
    # fourier_reference).
    import gpkit.epsilon as eps

    nodes = set()

    def recorded(a, y):
        nodes.add(y)
        return _fourier_part(a, y)

    monkeypatch.setattr(eps, "_fourier_part", recorded)
    for rho in ORACLE_FAMILY:
        if isinstance(rho, CharRep):
            eps_numeric_oracle(rho, tol=1e-6)
    assert len(nodes) > 100
    for a, f in enumerate(_TEST_FUNCTIONS):
        for y in nodes:
            part_err = _fourier_part(a, y)[1]
            for signed in (y, -y):
                gauss = math.exp(-math.pi * signed * signed)
                exact = (gauss, 1j * signed * gauss)[a]
                got = reconstructed(a, signed)
                assert abs(got - exact) < 1e-14, (a, signed)
                ref, ref_err = fourier_reference(f, signed)
                assert abs(got - ref) <= part_err + ref_err, (a, signed)


def test_oracle_rejects_unknown():
    with pytest.raises(TypeError):
        eps_numeric_oracle(WeilRep([C(0)]))  # oracle works constituent-wise


def test_oracle_refuses_a_bad_tolerance_before_any_quadrature(monkeypatch):
    # True once ran at tolerance 1, and 0, -1.0 and NaN ran the integrals
    # only to blame them (QuadratureFailure) for the input
    import gpkit.epsilon as eps

    class NoQuadrature:
        def __getattr__(self, attr):
            raise AssertionError(f"quadrature ran: integrate.{attr}")

    monkeypatch.setattr(eps, "integrate", NoQuadrature(), raising=False)
    bad = [(True, TypeError), (False, TypeError), (0, ValueError),
           (0.0, ValueError), (-1.0, ValueError), (math.nan, ValueError)]
    for tol, error in bad:
        for rho in (C(0), D(1)):
            with pytest.raises(error, match="tol must be"):
                eps_numeric_oracle(rho, tol=tol)


def test_counting_wrapper_in_place_of_integrate(monkeypatch):
    # A stand-in for gpkit.quadrature that counts quad calls, set the way the
    # traced benchmark sets it: every integral of the oracle must go through
    # it, and the oracle must never put the real module back.  With λ and
    # the Fourier memo warm, a character makes its two zeta integrals and a
    # D_k none; from a cold memo the Fourier parts go through it too.
    import gpkit.epsilon as eps

    real = eps.integrate
    calls = []

    class Counted:
        def quad(self, *args, **kwargs):
            calls.append(1)
            return real.quad(*args, **kwargs)

        def __getattr__(self, attr):
            return getattr(real, attr)

    for rho in (C(0), D(1)):
        eps_numeric_oracle(rho, tol=1e-6)
    wrapper = Counted()
    monkeypatch.setattr(eps, "integrate", wrapper)
    for rho, integrals in ((C(0), 2), (D(1), 0)):
        before = len(calls)
        eps_numeric_oracle(rho, tol=1e-6)
        assert len(calls) - before == integrals
        assert eps.integrate is wrapper
    _fourier_part.cache_clear()
    eps_numeric_oracle(C(0), tol=1e-6)
    assert len(calls) - 2 > 2
    assert eps.integrate is wrapper
