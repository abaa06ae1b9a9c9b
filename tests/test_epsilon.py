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
    _l_ratio,
    _log_l_factor,
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
    """Test reference for :func:`_log_l_factor`: the local L-factor
    L(1/2, ρ) itself, as exp of its logarithm.  Raises ``OverflowError``
    where L leaves the float range; the oracle never needs L alone, only
    its phase."""
    return cmath.exp(_log_l_factor(rho))


class TestLFactor:
    def test_char_values(self):
        # π^{-(1/2+a)/2} Γ((1/2+a)/2) at a = 0 and a = 1
        assert l_factor(C(0)) == pytest.approx(
            math.pi ** -0.25 * math.gamma(0.25), abs=1e-12)
        assert l_factor(C(1)) == pytest.approx(
            math.pi ** -0.75 * math.gamma(0.75), abs=1e-12)

    def test_disc_value(self):
        # 2(2π)^{-(1/2+k/2)} Γ(1/2+k/2) at k = 1
        assert l_factor(D(1)) == pytest.approx(1 / math.pi, abs=1e-12)

    def test_twist_conjugate_symmetry(self):
        # L(1/2, ρ^∨) = conj L(1/2, ρ): the identity _l_ratio rests on
        for rho, dual in ((C(0, Fraction(1, 3)), C(0, Fraction(-1, 3))),
                          (C(1, Fraction(5, 2)), C(1, Fraction(-5, 2))),
                          (D(7, Fraction(-1, 4)), D(7, Fraction(1, 4)))):
            a, b = l_factor(rho), l_factor(dual)
            assert a == pytest.approx(b.conjugate(), rel=1e-12)
            assert a.imag != 0
            assert _l_ratio(rho) == pytest.approx(a / b, rel=1e-12)

    def test_log_stays_finite_past_the_float_range(self):
        # L(1/2, D_600) ≈ e^{860}, past the largest float (≈ e^{709.8}):
        # its log is finite
        val = _log_l_factor(D(600))
        assert cmath.isfinite(val)
        assert val.real > 709.8


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
            r"below\s+`([^`]+)`\s+for\s+(the\s+characters|`D_k`\s+with\s+`[^`]+`)",
            readme.read_text(),
        )
    }
    if isinstance(rho, CharRep):
        family = "the characters"
    elif rho.k <= 30:
        family = "`D_k` with `k ≤ 30`"
    else:
        assert 60 <= rho.k <= 520
        family = "`D_k` with `60 ≤ k ≤ 520`"
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
    # r^k e^{-2πr²} peaks at √(k/4π), past a fixed window of 4 from k ≈ 200
    # on, and the radial integral grows like Γ((k+1)/2)/(2π)^{k/2}: the
    # window must follow the peak and the error budget must be relative.
    # r^k and Γ(k/2 + 1/2) leave the float range from k ≈ 340 on, so the
    # integrand is one exponential and the L-ratio is exp(2i·Im log L); at
    # k = 520 the integral reaches 1/13 of the largest float.
    got = eps_numeric_oracle(rho, tol=1e-6)
    assert abs(got - eps_half(rho).value) < stated_accuracy(rho)


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


def test_disc_path_charges_errors_relative_to_each_integral():
    # one radial integral, one complex quad: the radial integral of f̂ is
    # its conjugate, so its relative error is charged twice; then the error
    # of λ(ℂ/ℝ, ψ), whose integrals ran once for the process
    q = _Quadrature(1e-7)
    seen, charges, add = _recording(q), [], q.add
    q.add = lambda err: charges.append(err) or add(err)
    _eps_oracle_disc(D(60, Fraction(-1, 4)), q)
    (val, err), = seen
    lambda_err = _lambda_factor()[1]
    assert lambda_err > 0
    assert charges == [2 * err / abs(val), lambda_err]
    assert abs(val) > 2  # so the relative charge is below the absolute one


@pytest.mark.parametrize(
    "rho",
    [D(9, 1), D(14, 3), D(17, Fraction(5, 2)), D(20, 10), D(5, 10)],
)
def test_twisted_disc_is_certified(rho):
    # a twist makes the radial integral small by cancellation; its rule
    # stops at the relative tolerance alone, so these are certified where
    # an absolute floor of 1e-11 stopped early and overran the budget
    got = eps_numeric_oracle(rho, tol=1e-6)
    assert abs(got - eps_half(rho).value) < 1e-10


def test_disc_path_charges_the_error_of_lambda():
    # λ(ℂ/ℝ, ψ) is ε(1/2, sgn, ψ), the integrals of C(1) itself: a budget
    # below λ's own charge is too small for C(1) and for every D_k, whose ε
    # carries λ.  The oracle's budget is tol/10, here half of λ's charge,
    # and D_3's own radial integral fits in it.
    lambda_err = _lambda_factor()[1]
    tol = 5 * lambda_err
    q = _Quadrature(math.inf)
    seen = _recording(q)
    _eps_oracle_disc(D(3), q)
    (val, err), = seen
    assert 2 * err / abs(val) < tol / 10
    for rho in (C(1), D(3)):
        with pytest.raises(QuadratureFailure):
            eps_numeric_oracle(rho, tol=tol)


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
    # the Fourier memo warm, each call is its two zeta integrals; from a
    # cold memo the Fourier parts go through it too.
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
    for rho, integrals in ((C(0), 2), (D(1), 1)):
        before = len(calls)
        eps_numeric_oracle(rho, tol=1e-6)
        assert len(calls) - before == integrals
        assert eps.integrate is wrapper
    _fourier_part.cache_clear()
    eps_numeric_oracle(C(0), tol=1e-6)
    assert len(calls) - 3 > 2
    assert eps.integrate is wrapper
