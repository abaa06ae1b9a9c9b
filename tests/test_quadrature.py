"""gpkit.quadrature on its own: the G10/K21 rule, the adaptive integrator
against scipy's QUADPACK on each integrand family of the ε oracle, and
complex log Γ.  scipy is a test-only reference here."""

import ast
import cmath
import inspect
import math
import warnings
from fractions import Fraction

import pytest

import gpkit.epsilon as eps
from gpkit.epsilon import (
    _QUAD_OPTS,
    _RADIAL_OPTS,
    _U_HI,
    _U_LO,
    _U_POINTS,
    _X_CUT,
    _X_POINTS,
    _eps_oracle_char,
    _eps_oracle_disc,
    _fourier_part,
    _Quadrature,
)
from gpkit.quadrature import _WG, _WGK, _XGK, loggamma, quad
from gpkit.weilrep import CharRep, DiscRep


def test_rule_constants_are_quadpacks():
    # the abscissae and both weight sets, read from the literals of scipy's
    # own 21-point Gauss–Kronrod rule
    from scipy.integrate import _quad_vec

    tree = ast.parse(inspect.getsource(_quad_vec._quadrature_gk21))
    literals = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
    }
    assert literals == {"x": _XGK, "w": _WG, "v": _WGK}


def test_kronrod_and_gauss_degrees_of_exactness():
    # K21 integrates x^j exactly over [-1, 1] for j ≤ 31 and G10, on the odd
    # positions of the abscissae, for j ≤ 19; neither one degree further
    assert math.fsum(_WGK) == pytest.approx(2, abs=1e-15)
    assert math.fsum(_WG) == pytest.approx(2, abs=1e-15)
    gauss_nodes = _XGK[1::2]
    for j in range(34):
        exact = 2 / (j + 1) if j % 2 == 0 else 0.0
        kronrod = math.fsum(w * x**j for w, x in zip(_WGK, _XGK))
        gauss = math.fsum(w * x**j for w, x in zip(_WG, gauss_nodes))
        assert (abs(kronrod - exact) < 1e-15) is (j <= 31 or j % 2 == 1), j
        assert (abs(gauss - exact) < 1e-15) is (j <= 19 or j % 2 == 1), j


def scipy_quad(f, a: float, b: float, points, opts) -> tuple[complex, float]:
    """∫_a^b f by scipy's QUADPACK at the oracle's options ``opts``, from the
    same break ``points``, the real and the imaginary part apart, and the sum
    of the two error estimates."""
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as qp

    opts = dict(opts, points=points or None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=IntegrationWarning)
        re, re_err = qp(lambda x: f(x).real, a, b, **opts)
        im, im_err = qp(lambda x: f(x).imag, a, b, **opts)
    return complex(re, im), re_err + im_err


def assert_agree_with_scipy(calls, opts=_QUAD_OPTS) -> None:
    assert calls
    for f, a, b, val, err, points in calls:
        ref, ref_err = scipy_quad(f, a, b, points, opts)
        assert abs(val - ref) <= err + ref_err, (a, b, points, val, ref)


@pytest.mark.parametrize("a", [0, 1])
def test_quad_matches_scipy_on_the_fourier_parts(quad_log, a):
    for y in (1e-6, 0.01, 0.1, 0.37, 1.0, 2.0, 3.3, 4.5, 5.5):
        _fourier_part(a, y)
    assert {call[1:3] + call[5:] for call in quad_log} == {(0.0, _X_CUT, _X_POINTS)}
    assert_agree_with_scipy(quad_log)


@pytest.mark.parametrize("a,t", [(0, 0.0), (1, 1 / 3), (0, -3.0)])
def test_quad_matches_scipy_on_the_mellin_integrands(quad_log, a, t):
    # both zeta integrals of sgn^a|·|^{it}; the Fourier parts that the f̂
    # integrand reads are memoised, so scipy's nodes reuse or extend them
    _eps_oracle_char(CharRep(a, Fraction(t)), _Quadrature(1e-6))
    mellin = [c for c in quad_log if (c[1], c[2]) == (_U_LO, _U_HI)]
    assert len(mellin) == 2
    assert {c[5] for c in mellin} == {_U_POINTS}
    assert_agree_with_scipy(mellin)


def test_quad_matches_scipy_from_break_points():
    # a kink at each break point: |x − 1/3| and |x − 2| are smooth on every
    # initial panel, and the complex factor is integrated in one pass
    def f(x):
        return (abs(x - 1 / 3) + abs(x - 2)) * cmath.exp((1j - 0.5) * x)

    points = (1 / 3, 2.0)
    val, err = quad(f, 0.0, 5.0, points=points, **_QUAD_OPTS)
    assert_agree_with_scipy([(f, 0.0, 5.0, val, err, points)])


@pytest.mark.parametrize("k", [1, 60, 520])
@pytest.mark.parametrize("t", [0.0, -0.25])
def test_quad_matches_scipy_on_the_radial_integrands(quad_log, k, t):
    eps._lambda_factor()  # λ's own integrals are not the family here
    quad_log.clear()
    _eps_oracle_disc(DiscRep(k, Fraction(t)), _Quadrature(1e-6))
    assert len(quad_log) == 1
    assert_agree_with_scipy(quad_log, _RADIAL_OPTS)


@pytest.mark.parametrize("epsabs,limit", [(1e-3, 5), (1e-6, 250), (1e-11, 5),
                                          (_QUAD_OPTS["epsabs"], _QUAD_OPTS["limit"])])
def test_error_estimate_bounds_the_true_error(epsabs, limit):
    # ∫₀^X e^{-πx²} cos(2πxy) dx = e^{-πy²}/2 up to a tail below e^{-πX²}
    # ≈ 1e-49, for y past the oracle's largest node (≈ 5.5)
    for j in range(161):
        y = j / 20
        w = 2 * math.pi * y
        val, err = quad(lambda x: math.exp(-math.pi * x * x) * math.cos(w * x),
                        0.0, _X_CUT, epsabs=epsabs, epsrel=epsabs, limit=limit)
        assert abs(val - math.exp(-math.pi * y * y) / 2) <= err, y


def test_quad_integrates_a_complex_integrand_in_one_pass():
    calls = []

    def f(x):
        calls.append(x)
        return cmath.exp(1j * x)

    val, err = quad(f, 0.0, 1.0, **_QUAD_OPTS)
    assert abs(val - (cmath.exp(1j) - 1) / 1j) <= err < 1e-13
    assert len(calls) == 21  # one panel, one evaluation per node


def counted_kink():
    """|x − 0.3|·e^{−x}, which QAG bisects toward its kink, and the list of
    its arguments."""
    calls = []

    def f(x):
        calls.append(x)
        return abs(x - 0.3) * math.exp(-x)

    return f, calls


def test_break_points_at_qags_own_midpoints_skip_the_parent_panels():
    # QAG bisects [0, 4] at 2 and then [0, 2] at 1; starting from those
    # panels gives the same leaves without the 21 calls of each parent
    f, calls = counted_kink()
    val, err = quad(f, 0.0, 4.0, **_QUAD_OPTS)
    for points in ((2.0,), (1.0, 2.0)):
        g, g_calls = counted_kink()
        got = quad(g, 0.0, 4.0, points=points, **_QUAD_OPTS)
        assert got == (pytest.approx(val, rel=1e-14), pytest.approx(err, rel=1e-12))
        assert len(g_calls) == len(calls) - 21 * len(points)


@pytest.mark.parametrize(
    "a,b,points",
    [
        (6.0, 0.0, ()),            # reversed
        (1.0, 1.0, ()),            # equal
        (0.0, math.inf, ()),       # infinite
        (-math.inf, 0.0, ()),
        (math.nan, 1.0, ()),       # NaN
        (0.0, 1.0, (math.nan,)),
        (0.0, 3.0, (2.0, 1.0)),    # an unsorted point
        (0.0, 3.0, (1.0, 1.0)),    # a repeated point
        (0.0, 3.0, (4.0,)),        # a point outside the bounds
        (0.0, 3.0, (0.0,)),        # a point on a bound
    ],
)
def test_quad_refuses_edges_that_are_not_finite_and_increasing(a, b, points):
    f, calls = counted_kink()
    with pytest.raises(ValueError, match="increasing"):
        quad(f, a, b, points=points, **_QUAD_OPTS)
    assert not calls


def test_quad_refuses_more_panels_than_its_limit():
    f, _ = counted_kink()
    opts = dict(_QUAD_OPTS, limit=4)
    assert quad(f, 0.0, 4.0, points=(1.0, 2.0, 3.0), **opts)[1] > 0
    with pytest.raises(ValueError, match="limit"):
        quad(f, 0.0, 5.0, points=(1.0, 2.0, 3.0, 4.0), **opts)


def mod_2pi_i(d: complex) -> complex:
    return complex(d.real, math.remainder(d.imag, 2 * math.pi))


def test_loggamma_matches_scipy_modulo_2_pi_i():
    # relative to max(1, |log Γ|): log Γ vanishes at 1 and 2
    from scipy.special import loggamma as reference

    reals = [Fraction(1, 4), Fraction(3, 4)] + [
        Fraction(1, 2) + Fraction(k, 2) for k in range(521)
    ]
    imags = [0.0, 1 / 8, 1 / 3, 1.0, 7.3, 25.0, 60.5, 100.0]
    for re in reals:
        for im in imags + [-v for v in imags[1:]]:
            z = complex(float(re), im)
            ref = complex(reference(z))
            d = mod_2pi_i(loggamma(z) - ref)
            assert abs(d) <= 1e-12 * max(1.0, abs(ref)), z


def test_loggamma_matches_lgamma_on_the_real_axis():
    # log|Γ(x)| is the real part; Γ(x) > 0 for x > 0, so there the imaginary
    # part is 0 modulo 2π
    for x in [j / 16 for j in range(1, 400)] + [97.5, 260.75, 700.0]:
        d = mod_2pi_i(loggamma(x) - math.lgamma(x))
        assert abs(d) <= 1e-12 * max(1.0, math.lgamma(x)), x
    for x in (-0.5, -1.25, -7.5, -12.1):
        got = loggamma(x).real
        assert abs(got - math.lgamma(x)) <= 1e-12 * max(1.0, abs(math.lgamma(x)))
