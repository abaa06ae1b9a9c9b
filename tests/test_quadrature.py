"""gpkit.quadrature on its own: the G10/K21 rule, the adaptive integrator
against scipy's QUADPACK and against the scalar rule of
``tests/quad_reference.py`` on each integrand family of the ε oracle, the
Fourier rules' initial partitions, and complex log Γ.  scipy is a test-only
reference here."""

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
    _eps_oracle_char,
    _eps_oracle_disc,
    _fourier_part,
    _lambda_factor,
    _Quadrature,
)
from gpkit import quadrature
from gpkit.quadrature import _WG, _WGK, _XGK, fourier_integrand, loggamma, quad
from gpkit.weilrep import CharRep, DiscRep
from quad_reference import scalar_quad

# The twists of the benchmark's eps-oracle input.
BENCHMARK_TWISTS = tuple(Fraction(sign, d) for d in (3, 4, 5) for sign in (1, -1))
# Fourier nodes off the Mellin rules' own, up to the largest, e^{_U_HI} ≈ 5.5.
FOURIER_NODES = (1e-6, 0.01, 0.1, 0.37, 1.0, 2.0, 3.3, 4.5, 5.5)


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


def scalar(f):
    """The scalar integrand x ↦ f(x) of an integrand f in quad's convention."""
    return lambda x: f([x])[0]


def node_grid(y: float) -> tuple[float, ...]:
    """The Fourier rule's break points at the node y, as the oracle's
    documentation states them: the multiples of h = 1.5/2^j in (0, 3], for
    the least j ≥ 0 with h·y ≤ 2."""
    j = 0
    while 1.5 / 2**j * y > 2:
        j += 1
    h = 1.5 / 2**j
    return tuple(h * m for m in range(1, 2 ** (j + 1) + 1))


def scipy_quad(f, a: float, b: float, points, opts) -> tuple[complex, float]:
    """∫_a^b f by scipy's QUADPACK at the oracle's options ``opts``, from the
    same break ``points``, the real and the imaginary part apart, and the sum
    of the two error estimates."""
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as qp

    opts = dict(opts, points=points or None)
    g = scalar(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=IntegrationWarning)
        re, re_err = qp(lambda x: g(x).real, a, b, **opts)
        im, im_err = qp(lambda x: g(x).imag, a, b, **opts)
    return complex(re, im), re_err + im_err


def assert_agree_with_scipy(calls, opts=_QUAD_OPTS) -> None:
    assert calls
    for f, a, b, val, err, points in calls:
        ref, ref_err = scipy_quad(f, a, b, points, opts)
        assert abs(val - ref) <= err + ref_err, (a, b, points, val, ref)


@pytest.mark.parametrize("a", [0, 1])
def test_quad_matches_scipy_on_the_fourier_parts(quad_log, a):
    for y in FOURIER_NODES:
        _fourier_part(a, y)
    assert [call[1:3] + call[5:] for call in quad_log] == [
        (0.0, _X_CUT, node_grid(y)) for y in FOURIER_NODES
    ]
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
    def f(xs):
        return [(abs(x - 1 / 3) + abs(x - 2)) * cmath.exp((1j - 0.5) * x) for x in xs]

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


def within_ulps(x: complex, y: complex, n: int = 4) -> bool:
    """Whether x and y agree within n ulps, the real and imaginary parts
    apart."""
    return all(
        abs(u - v) <= n * math.ulp(max(abs(u), abs(v)))
        for u, v in ((x.real, y.real), (x.imag, y.imag))
    )


def batched_panels(f, a: float, b: float, points, opts) -> int:
    """The panels quad integrates for ∫_a^b f from ``points``: its calls,
    each of which must pass 21 abscissae."""
    calls = []

    def counted(xs):
        calls.append(len(xs))
        return f(xs)

    quad(counted, a, b, points=points, **opts)
    assert set(calls) == {21}
    return len(calls)


def assert_matches_scalar_rule(calls, opts=_QUAD_OPTS) -> None:
    """Each logged quad call against the scalar rule of quad_reference from
    the same partition: value and error estimate within 4 ulps, and the
    same panels integrated."""
    assert calls
    for f, a, b, val, err, points in calls:
        ref, ref_err, ref_panels = scalar_quad(scalar(f), a, b, points=points, **opts)
        assert within_ulps(val, ref) and within_ulps(err, ref_err), (a, b, points)
        assert batched_panels(f, a, b, points, opts) == ref_panels, (a, b, points)


def benchmark_rules(quad_log, monkeypatch):
    """The oracle's rules on the benchmark's twists, both parities, and on
    λ(ℂ/ℝ, ψ), from cold memos: a list of ((a, y), log entry) for each
    Fourier part, and the log entries of the Mellin rules."""
    nodes, real = {}, eps._fourier_part

    def recorded(a, y):
        nodes.setdefault((a, y), len(nodes))
        return real(a, y)

    monkeypatch.setattr(eps, "_fourier_part", recorded)
    _lambda_factor.cache_clear()
    for a in (0, 1):
        for t in BENCHMARK_TWISTS:
            _eps_oracle_char(CharRep(a, t), _Quadrature(math.inf))
    _lambda_factor()
    fourier = [c for c in quad_log if c[1:3] == (0.0, _X_CUT)]
    mellin = [c for c in quad_log if c[1:3] == (_U_LO, _U_HI)]
    assert len(fourier) == len(nodes) and len(mellin) == 2 * (2 * 6 + 1)
    return list(zip(nodes, fourier)), mellin


def test_batched_rule_matches_the_scalar_rule_on_the_benchmarks_rules(
        quad_log, monkeypatch):
    # every Fourier part the benchmark's characters and λ read, and both
    # Mellin integrands of each
    fourier, mellin = benchmark_rules(quad_log, monkeypatch)
    assert_matches_scalar_rule([call for _, call in fourier])
    assert {call[5] for call in mellin} == {_U_POINTS}
    assert_matches_scalar_rule(mellin)


@pytest.mark.parametrize("a", [0, 1])
def test_batched_rule_matches_the_scalar_rule_on_the_fourier_nodes(quad_log, a):
    for y in FOURIER_NODES:
        _fourier_part(a, y)
    assert_matches_scalar_rule(quad_log)


@pytest.mark.parametrize("k", [1, 60, 520])
@pytest.mark.parametrize("t", [0.0, -0.25])
def test_batched_rule_matches_the_scalar_rule_on_the_radial_integrands(
        quad_log, k, t):
    eps._lambda_factor()
    quad_log.clear()
    _eps_oracle_disc(DiscRep(k, Fraction(t)), _Quadrature(1e-6))
    assert_matches_scalar_rule(quad_log, _RADIAL_OPTS)


def test_fourier_rules_start_from_the_nodes_grid(quad_log, monkeypatch):
    # Each Fourier rule of the benchmark's twists and of λ starts from its
    # node's grid, which is (1.5, 3) up to y = 4/3; and none integrates more
    # panels than the scalar rule does from (1.5, 3) for every node.
    # The 336 rules start from 1,392 panels and make 132 bisections of 264
    # panels, as README and gpkit.epsilon state; from (1.5, 3), 447.
    fourier, _ = benchmark_rules(quad_log, monkeypatch)
    ys = [y for (_, y), _ in fourier]
    assert min(ys) <= 4 / 3 < max(ys)
    start = total = parents = 0
    for (a, y), (f, lo, hi, _, _, points) in fourier:
        assert points == node_grid(y), (a, y)
        if y <= 4 / 3:
            assert points == (1.5, 3.0), (a, y)
        whole = scalar_quad(scalar(f), lo, hi, points=(1.5, 3.0), **_QUAD_OPTS)[2]
        panels = batched_panels(f, lo, hi, points, _QUAD_OPTS)
        assert panels <= whole, (a, y)
        start, total, parents = start + len(points) + 1, total + panels, parents + whole
    assert (len(fourier), start, total) == (336, 1392, 1392 + 2 * 132)
    assert parents == 336 * 3 + 2 * 447


@pytest.mark.parametrize("epsabs,limit", [(1e-3, 5), (1e-6, 250), (1e-11, 5),
                                          (_QUAD_OPTS["epsabs"], _QUAD_OPTS["limit"])])
def test_error_estimate_bounds_the_true_error(epsabs, limit):
    # ∫₀^X e^{-πx²} cos(2πxy) dx = e^{-πy²}/2 up to a tail below e^{-πX²}
    # ≈ 1e-49, for y past the oracle's largest node (≈ 5.5)
    for j in range(161):
        y = j / 20
        w = 2 * math.pi * y
        val, err = quad(
            lambda xs: [math.exp(-math.pi * x * x) * math.cos(w * x) for x in xs],
            0.0, _X_CUT, epsabs=epsabs, epsrel=epsabs, limit=limit,
        )
        assert abs(val - math.exp(-math.pi * y * y) / 2) <= err, y


def test_quad_integrates_a_complex_integrand_in_one_pass():
    calls = []

    def f(xs):
        calls.append(xs)
        return [cmath.exp(1j * x) for x in xs]

    val, err = quad(f, 0.0, 1.0, **_QUAD_OPTS)
    assert abs(val - (cmath.exp(1j) - 1) / 1j) <= err < 1e-13
    # one panel, one call, on its 21 abscissae in the order of _XGK
    assert calls == [[0.5 + 0.5 * x for x in _XGK]]


def test_fourier_integrand_reads_its_memo_only_on_a_full_match():
    # f's values are kept per panel, keyed by the first abscissa; a list
    # with the same first abscissa and another one after it is a different
    # panel, and f is evaluated there afresh
    seen = []

    def f(x):
        seen.append(x)
        return x * x

    g = fourier_integrand(f, math.cos, 3.0)
    xs = [0.5 + 0.5 * x for x in _XGK]
    other = [xs[0]] + [0.25 + 0.25 * x for x in _XGK[1:]]
    for abscissae in (xs, xs, other, xs):
        assert g(list(abscissae)) == [x * x * math.cos(3.0 * x) for x in abscissae]
    assert seen == xs + other + xs  # the repeat of xs read the memo
    assert list(quadrature._F_VALUES.pop(f)) == [xs[0]]


def counted_kink():
    """|x − 0.3|·e^{−x}, which QAG bisects toward its kink, and the list of
    the abscissae it was called on."""
    calls = []

    def f(xs):
        calls.extend(xs)
        return [abs(x - 0.3) * math.exp(-x) for x in xs]

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
