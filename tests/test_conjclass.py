import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gpkit import conjclass
from gpkit.conjclass import (
    BadParity,
    CFieldFactor,
    CSplitFactor,
    KappaDatum,
    MismatchedSignVector,
    RSplitFactor,
    XiRegResult,
    _C_sweep,
    _coset_report,
    _embeds_with_qs_complement,
    _forms_with_sign,
    _predicted,
    _regular_kappa,
    factor_eigenvalues,
    factor_signature,
    fiber_cases,
    iota,
    is_in_Xi_dVdW,
    is_in_Xi_reg_V,
    is_regular,
    kappa_shapes,
    make_regular_kappa,
    union_cases,
    verify_fiber_lemma,
    verify_fiber_union,
    verify_union_prop,
)
from gpkit.quadspace import (
    NotAdmissible,
    QuadSpace,
    _signature_is_quasi_split,
    is_quasi_split,
    pure_inner_forms,
)
from trace_reference import eigenvalue_tokens, token_to_complex


def _signs(kappa):
    """The definite-plane signs c of ``kappa``, in factor order."""
    return tuple(f.c for f in kappa if isinstance(f, CFieldFactor))


def F(n, d=1):
    return Fraction(n, d)


def cf(n, d, c=1):
    return CFieldFactor(F(n, d), c)


class TestFactors:
    def test_validation(self):
        with pytest.raises(ValueError):
            CFieldFactor(F(1, 3), c=2)
        with pytest.raises(ValueError):
            RSplitFactor(F(0))
        with pytest.raises(ValueError):
            CSplitFactor((F(0), F(0)))

    def test_angle_normalized_mod_two(self):
        assert CFieldFactor(F(7, 3)).angle == F(1, 3)
        assert CFieldFactor(F(-1, 3)).angle == F(5, 3)

    def test_signatures(self):
        assert factor_signature(cf(1, 3, +1)) == (2, 0)
        assert factor_signature(cf(1, 3, -1)) == (0, 2)
        assert factor_signature(RSplitFactor(F(2))) == (1, 1)
        assert factor_signature(CSplitFactor((F(2), F(1)))) == (2, 2)

    def test_eigenvalues_exact(self):
        assert factor_eigenvalues(cf(1, 2)) == (
            ("c", F(0), F(1)),
            ("c", F(0), F(-1)),
        )
        toks = factor_eigenvalues(cf(1, 3))
        assert toks == (("cis", F(1, 3)), ("cis", F(5, 3)))
        assert factor_eigenvalues(RSplitFactor(F(2))) == (
            ("c", F(2), F(0)),
            ("c", F(1, 2), F(0)),
        )

    def test_csplit_eigenvalue_quadruple(self):
        toks = factor_eigenvalues(CSplitFactor((F(2), F(1))))
        vals = sorted(
            (token_to_complex(t).real, token_to_complex(t).imag) for t in toks
        )
        assert (2.0, 1.0) in vals and (0.4, -0.2) in vals
        assert len(set(vals)) == 4

    @pytest.mark.parametrize(
        "build",
        [lambda: RSplitFactor(True), lambda: CFieldFactor(True)],
        ids=["RSplitFactor(True)", "CFieldFactor(True)"],
    )
    def test_bool_values_are_not_rationals(self, build):
        # a bool is refused like a float, not read as the int it equals
        with pytest.raises(TypeError):
            build()

    def test_token_to_complex_cis(self):
        z = token_to_complex(("cis", F(1, 3)))
        assert abs(z - complex(0.5, 3**0.5 / 2)) < 1e-12


class TestRegularity:
    @pytest.mark.parametrize(
        "factors,expected",
        [
            ([cf(1, 3)], True),
            ([CFieldFactor(F(0))], False),
            ([CFieldFactor(F(1))], False),
            ([RSplitFactor(F(1))], False),
            ([RSplitFactor(F(-1))], False),
            ([CSplitFactor((F(2), F(0)))], False),
            ([CSplitFactor((F(3, 5), F(4, 5)))], False),  # |w| = 1
            ([cf(1, 3), cf(5, 3)], False),  # angles a and 2-a coincide
            ([cf(1, 3, +1), cf(1, 3, -1)], False),
            ([RSplitFactor(F(2)), RSplitFactor(F(1, 2))], False),
            ([cf(1, 3), cf(2, 3), RSplitFactor(F(2))], True),
            ([], True),
        ],
    )
    def test_cases(self, factors, expected):
        assert is_regular(KappaDatum(factors)) is expected

    def test_duality_with_eigenvalue_tokens(self):
        """Regularity ⟺ the exact eigenvalue multiset has no repeats and no ±1."""
        rng = random.Random(20260814)
        one = ("c", F(1), F(0))
        minus_one = ("c", F(-1), F(0))
        for _ in range(300):
            kappa = _random_kappa(rng)
            toks = eigenvalue_tokens(kappa)
            oracle = len(set(toks)) == len(toks) and one not in toks and minus_one not in toks
            assert is_regular(kappa) is oracle, kappa


def _random_kappa(rng):
    n = rng.randint(0, 4)
    factors = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            angle = F(rng.randrange(0, 12), rng.choice([1, 2, 3, 4, 5, 6]))
            factors.append(CFieldFactor(angle, rng.choice([1, -1])))
        elif kind == 1:
            t = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
            factors.append(RSplitFactor(t))
        else:
            re = F(rng.randrange(-3, 4), rng.choice([1, 2, 5]))
            im = F(rng.randrange(-3, 4), rng.choice([1, 2, 5]))
            if re == 0 and im == 0:
                re = F(3, 5)
                im = F(4, 5)
            factors.append(CSplitFactor((re, im)))
    return KappaDatum(factors)


class TestKappaDatum:
    def test_signature_and_counts(self):
        kappa = KappaDatum([cf(1, 5, 1), cf(2, 5, -1), RSplitFactor(F(2)),
                            CSplitFactor((F(2), F(1)))])
        assert kappa.signature == (2 + 0 + 1 + 2, 0 + 2 + 1 + 2)
        assert kappa.dim == 10
        assert kappa.n_elliptic == 2
        assert kappa.sum_c == 0
        assert math.prod(_signs(kappa)) == -1

    def test_with_signs(self):
        kappa = make_regular_kappa(2, 1)
        flipped = kappa.with_signs([-1, 1])
        assert flipped.sum_c == 0
        assert _signs(flipped) == (-1, 1)
        with pytest.raises(MismatchedSignVector):
            kappa.with_signs([1])

    def test_parity_identity(self):
        """Πc = (−1)^{(|I*| − Σc)/2} on every sign pattern."""
        kappa = make_regular_kappa(3)
        from itertools import product as iproduct
        for signs in iproduct((1, -1), repeat=3):
            kc = kappa.with_signs(signs)
            assert math.prod(_signs(kc)) == (-1) ** ((kc.n_elliptic - kc.sum_c) // 2)


class TestIota:
    def test_worked(self):
        kappa = KappaDatum([cf(1, 3)])
        assert iota(QuadSpace(2, 1), kappa) == -1
        assert iota(QuadSpace(1, 2), kappa) == 1

    def test_even_dimension_rejected(self):
        with pytest.raises(BadParity):
            iota(QuadSpace(1, 1), KappaDatum([]))


class TestXiMembership:
    def test_odd_space_worked(self):
        kappa = KappaDatum([cf(1, 3)])
        res = is_in_Xi_reg_V(kappa, QuadSpace(2, 1))
        assert res.member and res.line == QuadSpace(0, 1)
        assert not is_in_Xi_reg_V(kappa.with_signs([-1]), QuadSpace(2, 1)).member

    def test_even_space_worked(self):
        kappa = KappaDatum([cf(1, 3)])
        assert is_in_Xi_reg_V(kappa, QuadSpace(2, 0)).member
        assert not is_in_Xi_reg_V(kappa, QuadSpace(1, 1)).member
        assert not is_in_Xi_reg_V(kappa.with_signs([-1]), QuadSpace(1, 1)).member

    def test_signature_must_fill(self):
        kappa = KappaDatum([cf(1, 3)])
        assert not is_in_Xi_reg_V(kappa, QuadSpace(2, 2)).member

    def test_xi_dims(self):
        two = KappaDatum([cf(1, 5), cf(2, 5)])
        assert is_in_Xi_dVdW(two, 5, 4)
        assert not is_in_Xi_dVdW(KappaDatum([RSplitFactor(F(2))]), 5, 4)
        assert not is_in_Xi_dVdW(make_regular_kappa(3), 5, 4)
        assert not is_in_Xi_dVdW(KappaDatum([CFieldFactor(F(0))]), 5, 4)


class TestCorrespondenceSet:
    # C_{V,W} membership read off the swept set of verify_fiber_lemma: the
    # sign vectors c with κ_c in C_{V,W}
    def test_odd_w_embedding(self):
        kappa = KappaDatum([cf(1, 3)])
        W, V = QuadSpace(2, 1), QuadSpace(3, 3)
        assert verify_fiber_lemma(kappa, W, V).lhs == ((1,),)

    def test_requires_admissible(self):
        with pytest.raises(NotAdmissible):
            verify_fiber_lemma(KappaDatum([]), QuadSpace(1, 1), QuadSpace(2, 2))

    def test_even_w_condition_lives_in_v(self):
        kappa = KappaDatum([cf(1, 3)])
        W, V = QuadSpace(1, 1), QuadSpace(2, 1)
        # (2,0) ⊂ (2,1) with quasi-split complement (0,1); (0,2) does not fit
        assert verify_fiber_lemma(kappa, W, V).lhs == ((1,),)


class TestVerifiers:
    def test_union_odd_worked(self):
        kappa = KappaDatum([cf(1, 3)])
        for e0, expect in ((1, ((1,),)), (-1, ((-1,),))):
            rep = verify_union_prop(kappa, QuadSpace(2, 1), e0)
            assert rep.passed and rep.lhs == expect

    def test_union_even_needs_line(self):
        kappa = KappaDatum([cf(1, 3)])
        with pytest.raises(BadParity):
            verify_union_prop(kappa, QuadSpace(2, 0), 1)
        with pytest.raises(BadParity):
            verify_union_prop(kappa, QuadSpace(2, 1), 1, D=QuadSpace(1, 0))

    def test_union_even_worked(self):
        kappa = KappaDatum([cf(1, 3)])
        rep = verify_union_prop(kappa, QuadSpace(2, 0), 1, D=QuadSpace(0, 1))
        assert rep.passed and rep.lhs == ((1,),)
        rep = verify_union_prop(kappa, QuadSpace(2, 0), -1, D=QuadSpace(1, 0))
        assert rep.passed and rep.lhs == ((1,),)

    def test_union_imaginary_epsilon_is_empty(self):
        kappa = KappaDatum([cf(1, 3), RSplitFactor(F(2))])
        rep = verify_union_prop(kappa, QuadSpace(4, 0), 1, D=QuadSpace(0, 1))
        assert rep.passed
        assert rep.details["epsilon"] == "imaginary"
        assert rep.lhs == () and rep.rhs == ()

    def test_union_dimension_precondition(self):
        with pytest.raises(ValueError):
            verify_union_prop(KappaDatum([cf(1, 3)]), QuadSpace(4, 1), 1)

    def test_union_degenerate_empty_kappa(self):
        rep = verify_union_prop(KappaDatum([]), QuadSpace(1, 0), 1)
        assert rep.passed
        assert rep.details["degenerate"] == "no definite planes"

    def test_fiber_worked(self):
        kappa = KappaDatum([cf(1, 3)])
        rep = verify_fiber_lemma(kappa, QuadSpace(2, 1), QuadSpace(3, 3))
        assert rep.passed and rep.lhs == ((1,),)
        assert rep.details["target_sum"] == 1

    def test_fiber_union_both_parities(self):
        kappa = KappaDatum([cf(1, 3)])
        for e0 in (1, -1):
            assert verify_fiber_union(kappa, QuadSpace(2, 1), QuadSpace(3, 3), e0).passed
            assert verify_fiber_union(kappa, QuadSpace(1, 1), QuadSpace(2, 1), e0).passed

    @pytest.mark.parametrize("e0", [True, 1.0, -1.0, 0])
    def test_e0_must_be_an_int_sign(self, e0):
        # True, 1.0 and -1.0 equal ±1 but are not signs
        kappa = KappaDatum([cf(1, 3)])
        with pytest.raises(ValueError, match="e0"):
            verify_union_prop(kappa, QuadSpace(2, 1), e0)
        with pytest.raises(ValueError, match="e0"):
            verify_fiber_union(kappa, QuadSpace(2, 1), QuadSpace(3, 3), e0)

    def test_fiber_requires_elliptic(self):
        with pytest.raises(ValueError):
            verify_fiber_lemma(
                KappaDatum([RSplitFactor(F(2))]), QuadSpace(2, 1), QuadSpace(3, 3)
            )

    def test_small_exhaustive_sweep(self):
        assert all(r.passed for r in _union_reports(6))


def test_make_regular_kappa_is_regular():
    assert is_regular(make_regular_kappa(4, 2, 2))
    assert make_regular_kappa(0).dim == 0


def test_kappa_shapes_cover_dimension():
    shapes = kappa_shapes(6)
    assert all(k.dim == 6 for k in shapes)
    # (3,0,0), (2,1,0), (1,2,0), (0,3,0), (1,0,1), (0,1,1)
    assert len(shapes) == 6
    # exactly one of them is purely elliptic: (3,0,0)
    assert sum(2 * k.n_elliptic == k.dim for k in shapes) == 1


# entry points that read a per-process cache keyed on ints, each with an
# argument that equals a cached int without being one, and that int
EXACT_INT_CALLS = [
    ("quadspace._space", (1.0, 2), (1, 2)),
    ("quadspace._space", (True, 2), (1, 2)),
    ("conjclass.union_cases", (3, 1.0, (1,)), (3, 1, (1,))),
    ("conjclass.union_cases", (3.0, 1, (1,)), (3, 1, (1,))),
    ("conjclass.fiber_cases", (3, 1.0), (3, 1)),
    ("conjclass.fiber_cases", (3, True), (3, 1)),
    ("conjclass.kappa_shapes", (True,), (1,)),
    ("conjclass.kappa_shapes", (4.0,), (4,)),
    ("lparam.enumerate_reduced", (QuadSpace(2, 0), 3.0), (QuadSpace(2, 0), 3)),
    ("lparam.enumerate_reduced", (QuadSpace(2, 0), True), (QuadSpace(2, 0), 1)),
    ("lparam.reduced_gp_pairs", (2, 5, True), (2, 5, 1)),
]


def test_caches_keyed_on_ints_refuse_other_numbers_warm_and_cold():
    # a fresh interpreter calls each entry point with the wrong number first
    # (cold), then with the int it equals, then with the wrong number again
    # (warm): it raises TypeError both times, and the int call returns.  A
    # generator (reduced_gp_pairs) is run to its end
    script = f"""
import json
from gpkit import conjclass, lparam, quadspace
from gpkit.quadspace import QuadSpace
calls = {EXACT_INT_CALLS!r}
modules = {{"quadspace": quadspace, "conjclass": conjclass, "lparam": lparam}}

def outcome(name, args):
    module, attr = name.split(".")
    try:
        out = getattr(modules[module], attr)(*args)
        if hasattr(out, "__next__"):
            list(out)
    except TypeError:
        return "TypeError"
    return "returned"

cold = [outcome(name, bad) for name, bad, good in calls]
ints = [outcome(name, good) for name, bad, good in calls]
warm = [outcome(name, bad) for name, bad, good in calls]
print(json.dumps([cold, ints, warm]))
"""
    src = str(Path(conjclass.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    cold, ints, warm = json.loads(proc.stdout)
    n = len(EXACT_INT_CALLS)
    assert cold == warm == ["TypeError"] * n
    assert ints == ["returned"] * n


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
def test_shape_counts_round_trip(nc, nr, ns):
    kappa = make_regular_kappa(nc, nr, ns)
    counts = tuple(
        sum(isinstance(f, kind) for f in kappa)
        for kind in (CFieldFactor, RSplitFactor, CSplitFactor)
    )
    assert kappa.n_elliptic == nc and counts == (nc, nr, ns)
    assert kappa.dim == 2 * (nc + nr) + 4 * ns
    assert (kappa.sum_c, _signs(kappa)) == (nc, (1,) * nc)


def _fresh(kappa, signs):
    """``kappa`` with its definite-plane signs replaced, every factor built
    anew through its constructor."""
    it = iter(signs)
    out = []
    for f in kappa:
        if isinstance(f, CFieldFactor):
            out.append(CFieldFactor(f.angle, next(it)))
        elif isinstance(f, RSplitFactor):
            out.append(RSplitFactor(f.t))
        else:
            out.append(CSplitFactor(f.w))
    return KappaDatum(out)


def _reference_invariants(kappa):
    """(dim, signature, n_elliptic, sum_c, Πc) from factor_signature."""
    sigs = [factor_signature(f) for f in kappa]
    p, q = sum(s[0] for s in sigs), sum(s[1] for s in sigs)
    plus, minus = sigs.count((2, 0)), sigs.count((0, 2))
    return p + q, (p, q), plus + minus, plus - minus, (-1) ** minus


def _reference_is_regular(kappa):
    """The regularity test on uncached eigenvalues: no degenerate factor and
    pairwise distinct eigenvalue sets."""
    for f in kappa:
        if isinstance(f, CFieldFactor):
            if f.angle in (0, 1):
                return False
        elif isinstance(f, RSplitFactor):
            if f.t in (1, -1):
                return False
        else:
            re, im = f.w
            if im == 0 or re * re + im * im == 1:
                return False
    classes = [frozenset(factor_eigenvalues(f)) for f in kappa]
    return len(classes) == len(set(classes))


def _shape_family():
    """Every shape of kappa_shapes(d), d <= 13, and make_regular_kappa(n),
    n <= 6."""
    return [k for d in range(14) for k in kappa_shapes(d)] + [
        make_regular_kappa(n) for n in range(7)
    ]


def _reference_regular_kappa(nc, nr, ns):
    """make_regular_kappa(nc, nr, ns) built anew from its docstring."""
    return KappaDatum(
        [CFieldFactor(F(2 * j + 1, 2 * nc + 1)) for j in range(nc)]
        + [RSplitFactor(F(j + 2)) for j in range(nr)]
        + [CSplitFactor((F(j + 2), F(1))) for j in range(ns)]
    )


def _reference_shapes(d):
    """Every (nc, nr, ns) with 2nc + 2nr + 4ns = d, ns then nr ascending."""
    return [
        _reference_regular_kappa((d - 4 * ns - 2 * nr) // 2, nr, ns)
        for ns in range(d // 4 + 1)
        for nr in range((d - 4 * ns) // 2 + 1)
        if d % 2 == 0
    ]


def _invariants(kappa):
    """(dim, signature, n_elliptic, sum_c, Πc) as the datum stores them."""
    return (kappa.dim, kappa.signature, kappa.n_elliptic, kappa.sum_c,
            math.prod(_signs(kappa)))


def test_with_signs_matches_fresh_construction_on_families():
    """Every shape of kappa_shapes(d), d <= 13, and make_regular_kappa(n),
    n <= 6, each also with its first factor repeated and with a degenerate
    factor added (two non-regular data), under every sign vector: with_signs
    equals, hashes and prints like fresh factors, its invariants match
    factor_signature, and is_regular matches the uncached reference.  On the
    shapes, the entry (c, κ_c) of ``signed`` is with_signs(c), in
    sign-vector order, and building it changes neither the datum's
    equality nor its hash or repr.  Then, warm as after a sweep, each shape
    list and regular datum is one cached object equal to the data its
    docstring describes, built anew."""
    shapes = _shape_family()
    degenerate = [cf(1, 1), RSplitFactor(F(-1)), CSplitFactor((F(3, 5), F(4, 5)))]
    family = shapes + [KappaDatum(k.factors + k.factors[:1]) for k in shapes if len(k)]
    family += [
        KappaDatum(k.factors + (degenerate[i % 3],)) for i, k in enumerate(shapes)
    ]
    cases = regular = entries = 0
    for i, kappa in enumerate(family):
        vectors = list(product((1, -1), repeat=kappa.n_elliptic))
        if i < len(shapes):
            bare = KappaDatum(kappa.factors)
            key = (hash(bare), repr(bare))
            signed = kappa.signed
            assert kappa.signed is signed and isinstance(signed, tuple)
            assert [c for c, _ in signed] == vectors
            assert kappa == bare and (hash(kappa), repr(kappa)) == key
            entries += len(signed)
        for j, signs in enumerate(vectors):
            kc, fresh = kappa.with_signs(signs), _fresh(kappa, signs)
            assert kc == fresh and hash(kc) == hash(fresh)
            assert repr(kc) == repr(fresh)
            assert repr(kc.factors) == repr(fresh.factors)
            for f, g in zip(kc, fresh):
                assert f == g and hash(f) == hash(g)
            assert (
                _invariants(kc) == _reference_invariants(kc)
                == _reference_invariants(fresh)
            )
            assert is_regular(kc) is _reference_is_regular(kc)
            assert is_regular(fresh) is is_regular(kc)
            if i < len(shapes):
                entry = signed[j][1]
                assert entry == kc and hash(entry) == hash(kc)
                assert repr(entry) == repr(kc)
                assert _invariants(entry) == _reference_invariants(fresh)
                assert _signs(entry) == signs
            cases += 1
            regular += is_regular(kc)
    assert (cases, regular, entries) == (1_829, 443, 443)
    for d in range(14):
        built = kappa_shapes(d)
        assert isinstance(built, tuple) and kappa_shapes(d) is built
        ref = _reference_shapes(d)
        assert built == tuple(ref)
        assert [repr(k) for k in built] == [repr(k) for k in ref]
        assert [hash(k) for k in built] == [hash(k) for k in ref]
    for n in range(7):
        kappa = make_regular_kappa(n)
        assert make_regular_kappa(n) is kappa
        assert kappa == _reference_regular_kappa(n, 0, 0)
        assert repr(kappa) == repr(_reference_regular_kappa(n, 0, 0))


def test_with_sign_shares_the_regularity_data():
    kappa = make_regular_kappa(3, 1, 1)
    down = kappa.with_signs((-1, -1, -1))
    for f, g in zip(kappa.factors[:3], down.factors):
        # a flipped factor is a new object that shares what c does not touch
        assert g == CFieldFactor(f.angle, -1) and g is not f
        assert g.angle is f.angle and g._regularity is f._regularity
        assert "_twin" not in vars(g)  # no memo links the two
        # flipping back gives a factor equal to the original
        assert g.with_sign(1) == f and g.with_sign(-1) is g
    assert kappa.with_signs((1, 1, 1)).factors[0] is kappa.factors[0]
    assert down.factors[3] is kappa.factors[3]  # split factors are shared
    with pytest.raises(ValueError):
        kappa.with_signs((2, 1, 1))
    with pytest.raises(ValueError):
        kappa.factors[0].with_sign(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CFieldFactor(Fraction(1, 3), True),
        lambda: CFieldFactor(Fraction(1, 3), 1.0),
        lambda: CFieldFactor(Fraction(1, 3), -1).with_sign(True),
        lambda: CFieldFactor(Fraction(1, 3), -1).with_sign(1.0),
        lambda: CFieldFactor(Fraction(1, 3), 1).with_sign(True),
        lambda: CFieldFactor(Fraction(1, 3), 1).with_sign(1.0),
        lambda: CFieldFactor(Fraction(1, 3), -1).with_sign(-1.0),
        lambda: make_regular_kappa(2).with_signs([True, 1]),
        lambda: make_regular_kappa(True),
        lambda: make_regular_kappa(1, False),
        lambda: make_regular_kappa(2.0),
        lambda: make_regular_kappa(-1),
        lambda: make_regular_kappa(1, 0, -2),
    ],
    ids=["c True", "c 1.0", "with_sign(True)", "with_sign(1.0)",
         "same sign with_sign(True)", "same sign with_sign(1.0)",
         "same sign with_sign(-1.0)", "with_signs([True, 1])",
         "n_cfield True", "n_rsplit False", "n_cfield 2.0", "n_cfield -1",
         "n_csplit -2"],
)
def test_bools_and_negative_counts_are_refused(build):
    # True == 1 passed as a plane sign or a block count, and a negative count
    # gave an empty datum; a refusal leaves no datum in the shape cache
    make_regular_kappa(1)
    make_regular_kappa(2)
    cached = _regular_kappa.cache_info().currsize
    with pytest.raises(ValueError):
        build()
    assert _regular_kappa.cache_info().currsize == cached


def test_make_regular_kappa_spellings_share_one_datum():
    # one datum, and one copy of its signed data, per block-count triple:
    # the fiber sweep's make_regular_kappa(n) is kappa_shapes' (n, 0, 0)
    for nc, nr, ns in ((2, 0, 0), (1, 1, 0), (0, 0, 1)):
        spellings = [
            make_regular_kappa(nc, nr, ns),
            make_regular_kappa(n_cfield=nc, n_rsplit=nr, n_csplit=ns),
            make_regular_kappa(nc, n_csplit=ns, n_rsplit=nr),
        ]
        if not nr and not ns:
            spellings += [make_regular_kappa(nc), make_regular_kappa(n_cfield=nc)]
        assert all(kappa is spellings[0] for kappa in spellings)
        shapes = kappa_shapes(2 * nc + 2 * nr + 4 * ns)
        assert any(kappa is spellings[0] for kappa in shapes)


def test_xi_reg_matches_direct_formula_on_union_sweep():
    """On every (κ_c, V_α) of the union sweep with d <= 9 (every pure inner
    form, so both e0): κ_c lies in Ξ_reg(V_α) iff its signature, plus in odd
    dimension the line of sign 𝔦, is that of V_α; the line is returned."""
    lines = {1: QuadSpace(1, 0), -1: QuadSpace(0, 1)}
    seen = {}
    for d in range(1, 10):
        for p in range(d + 1):
            for kappa in kappa_shapes(d - 1 if d % 2 else d):
                for _, kc in kappa.signed:
                    for Va in pure_inner_forms(QuadSpace(p, d - p)):
                        line = None
                        kp, kq = kc.signature
                        if d % 2:
                            i = (-1) ** ((1 - Va.delta) // 2 + kc.n_elliptic)
                            line = lines[i]
                            kp, kq = kp + line.p, kq + line.q
                        member = (kp, kq) == (Va.p, Va.q)
                        res = is_in_Xi_reg_V(kc, Va)
                        assert isinstance(res, XiRegResult)
                        assert res.member is member
                        assert res.line == (line if member else None)
                        assert res == XiRegResult(member, res.line)
                        key = (member, res.line)
                        seen[key] = seen.get(key, 0) + 1
    assert seen == {
        (False, None): 3_992,
        (True, None): 276,
        (True, QuadSpace(1, 0)): 298,
        (True, QuadSpace(0, 1)): 298,
    }


def _reference_is_quasi_split(V):
    """The quasi-split rule as written on a QuadSpace."""
    if V.dim % 2:
        return abs(V.delta) <= 1
    return V.delta in (-2, 0, 2)


def test_signature_quasi_split_rule_matches_the_space_rule():
    count = 0
    for dim in range(25):
        for p in range(dim + 1):
            V = QuadSpace(p, dim - p)
            expected = _reference_is_quasi_split(V)
            assert _signature_is_quasi_split(p, dim - p) is expected
            assert is_quasi_split(V) is expected
            count += expected
    assert count == 61


def test_embedding_with_quasi_split_complement_matches_the_space_rule():
    """On every shape of dimension <= 8 under every sign vector, in every
    space of dimension <= 12: κ fits with a quasi-split complement."""
    fits = 0
    for d in range(9):
        for kappa in kappa_shapes(d):
            for _, kc in kappa.signed:
                p, q = kc.signature
                for dim in range(13):
                    for sp in range(dim + 1):
                        space = QuadSpace(sp, dim - sp)
                        expected = (
                            p <= space.p
                            and q <= space.q
                            and _reference_is_quasi_split(
                                QuadSpace(space.p - p, space.q - q)
                            )
                        )
                        assert _embeds_with_qs_complement(kc, space) is expected
                        fits += expected
    assert fits > 0


def _union_reports(max_dim):
    """Every ``verify union`` check with dim V ≤ ``max_dim``, in sweep order."""
    for d in range(1, max_dim + 1):
        for p in range(d + 1):
            for kappa, V, e0, D in union_cases(d, p, (1, -1)):
                yield verify_union_prop(kappa, V, e0, D=D)


def _fiber_reports(max_dv):
    """Every ``verify fibers`` check with dim V ≤ ``max_dv``, in sweep order."""
    for dv in range(1, max_dv + 1):
        for pv in range(dv + 1):
            for kappa, W, V in fiber_cases(dv, pv):
                yield verify_fiber_lemma(kappa, W, V)
                for e0 in (1, -1):
                    yield verify_fiber_union(kappa, W, V, e0)


# sha256 of the reports below, pinned from the earlier verifiers that each
# wrote their own sweep: a change to any verdict, sign set or details entry
# changes it.
REPORT_DIGEST = (
    "d5915807a649f0342cf41e477310af21f909fa866e08eb73e7af040d567a4a82"
)


def test_report_digest_is_pinned():
    reports = [*_union_reports(11), *_fiber_reports(10)]
    lines = [
        json.dumps([r.kind, r.passed, r.lhs, r.rhs, r.details], sort_keys=True)
        for r in reports
    ]
    assert len(lines) == 4066
    assert all(r.passed for r in reports)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REPORT_DIGEST


# sha256 of every ``verify fibers`` report with dim V ≤ 12, the benchmark's
# bound, computed as above from the per-(form, c) C_{V,W} predicate that
# ``_reference_in_C`` keeps.
FIBER_REPORT_DIGEST_12 = (
    "efb46fe7c7d4bff99afd184a55957ace7ecc230dcadb0a25bcad3e82cb55e03d"
)


def test_fiber_report_digest_at_the_benchmark_bound_is_pinned():
    reports = list(_fiber_reports(12))
    lines = [
        json.dumps([r.kind, r.passed, r.lhs, r.rhs, r.details], sort_keys=True)
        for r in reports
    ]
    assert len(lines) == 4368
    assert all(r.passed for r in reports)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FIBER_REPORT_DIGEST_12


def test_predicted_sets_match_the_direct_comprehension():
    """For every n ≤ 8 and every v: the cached coset {c : Πc = v} and slice
    {c : Σc = v} equal the comprehension over the sign hypercube, as a
    frozenset and as the tuple sorted descending, and a repeat call returns
    the same objects.  Values off the hypercube give empty sets."""
    for n in range(9):
        cube = list(product((1, -1), repeat=n))
        for kind, rule, values in (
            ("coset", math.prod, (1, -1)),
            ("slice", sum, range(-n - 2, n + 3)),
        ):
            for v in values:
                direct = {c for c in cube if rule(c) == v}
                got_set, got_tuple = _predicted(n, kind, v)
                assert isinstance(got_set, frozenset) and got_set == direct
                assert got_tuple == tuple(sorted(direct, reverse=True))
                again = _predicted(n, kind, v)
                assert again[0] is got_set and again[1] is got_tuple


def test_coset_report_matches_the_direct_coset_for_every_exponent():
    """The predicted side of a coset check on n ≤ 8 signs, for each e0 and
    each exponent N mod 4: {c : Πc = e0·i^N} when i^N is real, empty when it
    is imaginary."""
    for n in range(9):
        cube = list(product((1, -1), repeat=n))
        for e0 in (1, -1):
            for N in range(-4, 8):
                eps = {0: 1, 1: None, 2: -1, 3: None}[N % 4]
                direct = (
                    set() if eps is None
                    else {c for c in cube if math.prod(c) == e0 * eps}
                )
                rhs = tuple(sorted(direct, reverse=True))
                report = _coset_report("union", set(direct), n, e0, N)
                assert report.passed and report.rhs == rhs
                assert report.lhs is report.rhs  # a pass shares the tuple
                assert report.details["epsilon"] == (
                    "imaginary" if eps is None else eps
                )
                if eps is None:
                    assert report.rhs == ()
                wrong = set(cube) - direct
                report = _coset_report("union", wrong, n, e0, N)
                assert report.passed is (wrong == direct)
                assert report.lhs == tuple(sorted(wrong, reverse=True))


@pytest.mark.parametrize("verdict", [False, True])
def test_a_broken_union_predicate_fails_with_the_swept_set(monkeypatch, verdict):
    # Ξ-membership forced to one verdict: the report fails, and its lhs is
    # the set the sweep found, not the predicted tuple a pass would share
    kappa = make_regular_kappa(2, 1)
    V = QuadSpace(4, 3)
    good = verify_union_prop(kappa, V, 1)
    assert good.passed and good.lhs is good.rhs and good.rhs
    forced = conjclass._MEMBER if verdict else conjclass._NOT_MEMBER
    monkeypatch.setattr(conjclass, "is_in_Xi_reg_V", lambda kc, Va: forced)
    bad = verify_union_prop(kappa, V, 1)
    swept = tuple(product((1, -1), repeat=2)) if verdict else ()
    assert not bad.passed and not bad
    assert bad.lhs == swept and bad.lhs is not bad.rhs
    assert bad.rhs == good.rhs


@pytest.mark.parametrize("verdict", [False, True])
def test_a_broken_fiber_predicate_fails_with_the_swept_set(monkeypatch, verdict):
    kappa = make_regular_kappa(2)
    W, V = QuadSpace(3, 2), QuadSpace(5, 3)
    good = [verify_fiber_lemma(kappa, W, V)] + [
        verify_fiber_union(kappa, W, V, e0) for e0 in (1, -1)
    ]
    assert all(r.passed and r.lhs is r.rhs for r in good)
    monkeypatch.setattr(
        conjclass, "_embeds_with_qs_complement", lambda kc, X: verdict
    )
    bad = [verify_fiber_lemma(kappa, W, V)] + [
        verify_fiber_union(kappa, W, V, e0) for e0 in (1, -1)
    ]
    swept = tuple(product((1, -1), repeat=2)) if verdict else ()
    for g, b in zip(good, bad):
        assert b.lhs == swept and b.rhs == g.rhs
        assert b.passed is (g.rhs == swept)
        if not b.passed:
            assert b.lhs is not b.rhs
    assert not all(bad)


def _kappa_family():
    """Shapes, sign flips, a non-elliptic and a non-regular datum."""
    family = list(_shape_family())
    family += [k.with_signs((-1,) * k.n_elliptic) for k in family]
    family += [KappaDatum([RSplitFactor(F(2))]), KappaDatum([cf(1, 1), cf(1, 1)])]
    return family


def test_kappa_stored_invariants_leave_eq_hash_repr_and_pickle_alone():
    """The stored invariants are not fields: equality, hash and repr see the
    factors only, and a pickle round trip (as for ``--jobs`` workers) gives
    an equal datum with the same invariants, with or without its signed
    data built.  The stored regularity flag matches the uncached reference,
    also on a datum that is irregular from its second factor on, whose
    later factors still count toward the other invariants."""
    # the first two factors collide and the last one is elliptic: a loop
    # that stopped at the first irregularity would miss the last plane
    clash = KappaDatum([RSplitFactor(F(2)), RSplitFactor(F(2)), cf(1, 3, -1)])
    assert (clash.dim, clash.signature, clash.n_elliptic, clash.sum_c) == (
        6, (2, 4), 1, -1
    )
    assert clash._regular is False and clash._all_elliptic is False
    for kappa in _kappa_family() + [clash]:
        fresh = KappaDatum(kappa.factors)
        assert kappa == fresh and hash(kappa) == hash((kappa.factors,))
        assert repr(kappa) == f"KappaDatum(factors={kappa.factors!r})"
        sig = _reference_invariants(kappa)[:4]
        assert (kappa.dim, kappa.signature, kappa.n_elliptic, kappa.sum_c) == sig
        assert kappa._all_elliptic is (kappa.n_elliptic == len(kappa))
        assert kappa._regular is _reference_is_regular(kappa)
        assert is_regular(kappa) is kappa._regular
        kappa.signed  # one side with its signed data built, one without
        for obj in (fresh, kappa):
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(obj, protocol))
                assert back == obj and hash(back) == hash(obj)
                assert repr(back) == repr(obj)
                assert (
                    back.dim, back.signature, back.n_elliptic, back.sum_c,
                    back._all_elliptic, back._regular,
                ) == (
                    obj.dim, obj.signature, obj.n_elliptic, obj.sum_c,
                    obj._all_elliptic, obj._regular,
                )
    assert KappaDatum([RSplitFactor(F(2))])._all_elliptic is False
    assert KappaDatum([])._all_elliptic is True


def _reference_in_C(kc, d_V, d_W, X):
    """C_{V,W} membership of one κ_c for the pair with odd member X, asked
    afresh per (X, c): elliptic, regular and small, and embedded in X with
    quasi-split complement."""
    return is_in_Xi_dVdW(kc, d_V, d_W) and _embeds_with_qs_complement(kc, X)


def _reference_C_sweep(kappa, d_V, d_W, members):
    return {
        c for X in members for c, kc in kappa.signed
        if _reference_in_C(kc, d_V, d_W, X)
    }


def test_C_sweep_matches_the_reference_on_every_fiber_check():
    """Every check of ``verify fibers`` with dim V ≤ 12: the lemma's one odd
    member, and the forms of each e0 that ``verify_fiber_union`` sweeps, in
    its odd-W branch (forms W_α) and its even-W branch (forms V_α)."""
    branches = {0: 0, 1: 0}
    for dv in range(1, 13):
        for pv in range(dv + 1):
            for kappa, W, V in fiber_cases(dv, pv):
                X = W if W.dim % 2 else V
                branches[W.dim % 2] += 1
                for members in ((X,), *(_forms_with_sign(X, e0) for e0 in (1, -1))):
                    assert _C_sweep(kappa, V.dim, W.dim, members) == (
                        _reference_C_sweep(kappa, V.dim, W.dim, members)
                    )
    assert branches == {0: 672, 1: 784}


def test_C_sweep_matches_the_reference_off_the_verifiers_domain():
    """Data the verifiers never sweep, since ``_fiber_pair`` admits only
    elliptic regular small classes: non-elliptic, irregular and sign-flipped
    data, under bounds min(d_V, d_W) that make 2|I| too large and bounds
    that just fit, against every space of three dimensions at once, so that
    one signature fits some members and not others."""
    small = {True: 0, False: 0}
    found = 0
    for kappa in _kappa_family():
        n, d = kappa.n_elliptic, kappa.dim
        members = [
            QuadSpace(p, dx - p) for dx in (d, d + 1, d + 2) for p in range(dx + 1)
        ]
        for m in sorted({0, max(2 * n - 1, 0), 2 * n}):
            for d_V, d_W in ((m, m + 3), (m + 3, m)):
                small[2 * n <= m] += 1
                expected = _reference_C_sweep(kappa, d_V, d_W, members)
                assert _C_sweep(kappa, d_V, d_W, members) == expected
                found += len(expected)
    assert small[True] and small[False] and found
