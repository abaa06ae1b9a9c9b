import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gpkit.weilrep import (
    CharRep,
    DiscRep,
    SelfDualType,
    WeilRep,
    dual,
    irred_dim,
    irred_from_json,
    irred_to_json,
    self_dual_type,
    tensor,
    weilrep_from_json,
    weilrep_to_json,
)
from trace_reference import WeilElement, trace

twists = st.fractions(min_value=-3, max_value=3).map(lambda t: Fraction(t))
chars = st.builds(CharRep, st.integers(0, 1), twists)
discs = st.builds(DiscRep, st.integers(1, 6), twists)
irreds = st.one_of(chars, discs)


def D(k, t=0):
    return DiscRep(k, Fraction(t))


def C(a, t=0):
    return CharRep(a, Fraction(t))


def test_constructor_validation():
    with pytest.raises(ValueError):
        CharRep(2, Fraction(0))
    with pytest.raises(ValueError):
        DiscRep(0, Fraction(0))  # D_0 is not irreducible here
    with pytest.raises(TypeError):
        CharRep(0, 0.25)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CharRep(True),
        lambda: CharRep(1.0),
        lambda: DiscRep(True),
        lambda: DiscRep(3.0),
        lambda: CharRep(0, True),
        lambda: DiscRep(2, False),
        lambda: WeilRep([(D(1), 1.5)]),
        lambda: WeilRep([(D(1), True)]),
        lambda: WeilRep([(D(1), "2")]),
        lambda: WeilRep({C(0): 2.0}),
    ],
    ids=["CharRep(True)", "CharRep(1.0)", "DiscRep(True)", "DiscRep(3.0)",
         "CharRep twist True", "DiscRep twist False",
         "mult 1.5", "mult True", "mult '2'", "mapping mult 2.0"],
)
def test_constructors_refuse_non_int_values(build):
    # an exact integer or an error, never a silent int() of a float or bool
    with pytest.raises((TypeError, ValueError)):
        build()


def test_entries_must_be_irreducibles_of_positive_multiplicity():
    with pytest.raises(ValueError, match="multiplicities must be >= 1"):
        WeilRep([(DiscRep(1), 0)])
    with pytest.raises(TypeError, match="not an irreducible"):
        WeilRep([("D1", 1)])


def test_a_mapping_is_refused():
    # iterating a mapping reads its keys, which would drop the multiplicities
    with pytest.raises(TypeError, match="not a mapping"):
        WeilRep({C(0): 2})


def test_irred_dim():
    assert irred_dim(C(0)) == 1
    assert irred_dim(D(4)) == 2


@given(irreds)
def test_dual_involution(rho):
    assert dual(dual(rho)) == rho


@pytest.mark.parametrize(
    "rho,kind",
    [
        (C(0), SelfDualType.ORTHOGONAL),
        (C(1), SelfDualType.ORTHOGONAL),
        (C(0, Fraction(1, 2)), SelfDualType.NOT_SELF_DUAL),
        (D(1), SelfDualType.SYMPLECTIC),
        (D(2), SelfDualType.ORTHOGONAL),
        (D(3, Fraction(1, 3)), SelfDualType.NOT_SELF_DUAL),
    ],
)
def test_self_dual_type(rho, kind):
    assert self_dual_type(rho) is kind


def test_weilrep_canonicalization():
    r1 = WeilRep([D(3), C(0), D(1), C(0)])
    r2 = WeilRep([(C(0), 2), D(1), D(3)])
    assert r1 == r2
    assert hash(r1) == hash(r2)
    assert r1.mult(C(0)) == 2
    assert r1.dim == 6


def test_weilrep_add_and_zero():
    z = WeilRep()
    assert not z and z.dim == 0
    # a direct sum is the multiset of both summands' pairs
    r = WeilRep([*WeilRep([D(1)]), *WeilRep([D(1), C(1)])])
    assert r.mult(D(1)) == 2
    assert r.mult(C(1)) == 1


def test_tensor_worked_examples():
    assert tensor(WeilRep([D(1)]), WeilRep([D(1)])) == WeilRep([D(2), C(0), C(1)])
    assert tensor(WeilRep([C(1)]), WeilRep([D(3)])) == WeilRep([D(3)])
    assert tensor(WeilRep([D(1)]), WeilRep([D(3)])) == WeilRep([D(4), D(2)])
    assert tensor(WeilRep([C(1, Fraction(1, 2))]), WeilRep([C(1, Fraction(1, 2))])) == WeilRep(
        [C(0, Fraction(1))]
    )


def test_tensor_char_disc_twist_addition():
    got = tensor(WeilRep([C(1, Fraction(1, 3))]), WeilRep([D(2, Fraction(1, 6))]))
    assert got == WeilRep([D(2, Fraction(1, 2))])


@given(irreds, irreds)
def test_tensor_dim_multiplicative_irreds(a, b):
    assert tensor(WeilRep([a]), WeilRep([b])).dim == irred_dim(a) * irred_dim(b)


@given(
    st.lists(irreds, min_size=0, max_size=3),
    st.lists(irreds, min_size=0, max_size=3),
)
def test_tensor_bilinear_dim(xs, ys):
    A, B = WeilRep(xs), WeilRep(ys)
    assert tensor(A, B).dim == A.dim * B.dim


@given(irreds)
def test_tensor_with_trivial_character(rho):
    assert tensor(WeilRep([C(0)]), WeilRep([rho])) == WeilRep([rho])


def _rel_close(x, y, tol=1e-9):
    return abs(x - y) <= tol * (1 + abs(x) + abs(y))


SAMPLES = [
    WeilElement(cmath.exp(0.3 + 1.1j), False),
    WeilElement(cmath.exp(-0.2 + 2.4j), False),
    WeilElement(1.7 + 0.0j, False),
    WeilElement(cmath.exp(0.5 - 0.9j), True),
    WeilElement(0.4 + 0.8j, True),
]


def test_trace_values():
    g = WeilElement(cmath.rect(2.0, 0.7), False)
    assert _rel_close(trace(WeilRep([C(0)]), g), 1.0)
    # D_k off the flip coset: 2 cos(kθ) |z|^{2it}
    got = trace(WeilRep([D(3)]), g)
    assert _rel_close(got, 2 * math.cos(3 * 0.7))
    gj = WeilElement(1.0 + 0.0j, True)
    assert _rel_close(trace(WeilRep([D(3)]), gj), 0.0)
    assert _rel_close(trace(WeilRep([C(1)]), gj), -1.0)


def test_trace_twist():
    t = Fraction(1, 2)
    g = WeilElement(2.0 + 0.0j, False)
    # (z z̄)^{it} with z z̄ = 4
    expect = cmath.exp(1j * float(t) * math.log(4.0))
    assert _rel_close(trace(WeilRep([C(0, t)]), g), expect)


@given(irreds, irreds)
def test_trace_multiplicative_on_tensor(a, b):
    A, B = WeilRep([a]), WeilRep([b])
    T = tensor(A, B)
    for g in SAMPLES:
        assert _rel_close(trace(T, g), trace(A, g) * trace(B, g), 1e-9)


def test_random_tensor_character_identity():
    """The decomposition rules are exactly the ones characters force."""
    rng = random.Random(7)
    pool = [C(0), C(1), C(0, Fraction(1, 2)), D(1), D(2), D(3, Fraction(-1, 2))]
    for _ in range(50):
        A = WeilRep(rng.sample(pool, rng.randint(1, 3)))
        B = WeilRep(rng.sample(pool, rng.randint(1, 3)))
        T = tensor(A, B)
        assert T.dim == A.dim * B.dim
        for g in SAMPLES:
            assert _rel_close(trace(T, g), trace(A, g) * trace(B, g))


@given(st.lists(irreds, max_size=4))
def test_dual_distributes(xs):
    r = WeilRep(xs)
    assert WeilRep((dual(rho), m) for rho, m in r) == WeilRep(dual(x) for x in xs)


def test_json_round_trips():
    rho = D(5, Fraction(-2, 3))
    assert irred_from_json(json.loads(json.dumps(irred_to_json(rho)))) == rho
    r = WeilRep([(C(1), 2), D(2, Fraction(1, 4))])
    blob = json.dumps(weilrep_to_json(r))
    assert weilrep_from_json(json.loads(blob)) == r


def test_weilrep_iter_and_constituents():
    r = WeilRep([(D(1), 2), C(0)])
    assert {rho for rho, _ in r} == {D(1), C(0)}
    assert dict(iter(r)) == {D(1): 2, C(0): 1}
