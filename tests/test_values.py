"""Value semantics of the frozen value classes of gpkit.

Each class names its fields once and builds its instances in its own
constructor; equality, hashing, order, the repr (``WeilRep`` keeps its own)
and immutability come from one base in ``gpkit.quadspace``.  The reprs are pinned byte for byte: they
reach the failure records of the CLI (``repr(kappa.factors)``) and the
digest of ``tests/test_conjclass.py``.
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest

from gpkit.conjclass import (
    CFieldFactor,
    CheckReport,
    CSplitFactor,
    KappaDatum,
    RSplitFactor,
    XiRegResult,
    is_in_Xi_reg_V,
    make_regular_kappa,
    verify_union_prop,
)
from gpkit.epsilon import FourthRoot
from gpkit.lparam import (
    Classification,
    ComponentGroup,
    DichotomyReport,
    GPPair,
    LParameter,
    _REPORTS,
    classify,
    make_gp_pair,
    validate,
)
from gpkit.quadspace import AdmissiblePair, QuadSpace, is_admissible_pair
from gpkit.weilrep import CharRep, DiscRep, WeilRep


def _phi(V, *pieces):
    return validate(WeilRep(pieces), V)


def _gp(dw, dv):
    W, V = QuadSpace(dw, 0), QuadSpace(dw + 1, dv - dw - 1)
    return make_gp_pair(
        _phi(W, *[DiscRep(k) for k in range(2, dw + 1, 2)]),
        _phi(V, *[DiscRep(k) for k in range(1, dv, 2)]),
    )


# per class: two unequal instances, the first below the second for the
# classes with an order, and the repr of each, pinned byte for byte
SAMPLES = {
    QuadSpace: (
        lambda: (QuadSpace(2, 1), QuadSpace(3, 0)),
        "QuadSpace(2, 1)",
        "QuadSpace(3, 0)",
    ),
    AdmissiblePair: (
        lambda: (is_admissible_pair(QuadSpace(2, 0), QuadSpace(3, 0)),
                 AdmissiblePair(W=QuadSpace(1, 1), V=QuadSpace(2, 3),
                                r=1, d_sign=-1)),
        "AdmissiblePair(W=QuadSpace(2, 0), V=QuadSpace(3, 0), r=0, d_sign=1)",
        "AdmissiblePair(W=QuadSpace(1, 1), V=QuadSpace(2, 3), r=1, d_sign=-1)",
    ),
    CharRep: (
        lambda: (CharRep(0), CharRep(a=1, t="-1/2")),
        "CharRep(a=0, t=Fraction(0, 1))",
        "CharRep(a=1, t=Fraction(-1, 2))",
    ),
    DiscRep: (
        lambda: (DiscRep(3), DiscRep(3, Fraction(2, 6))),
        "DiscRep(k=3, t=Fraction(0, 1))",
        "DiscRep(k=3, t=Fraction(1, 3))",
    ),
    FourthRoot: (
        lambda: (FourthRoot(5), FourthRoot(e=2)),
        "FourthRoot(e=1)",
        "FourthRoot(e=2)",
    ),
    CFieldFactor: (
        lambda: (CFieldFactor("1/3", -1), CFieldFactor(angle=Fraction(7, 3))),
        "CFieldFactor(angle=Fraction(1, 3), c=-1)",
        "CFieldFactor(angle=Fraction(1, 3), c=1)",
    ),
    RSplitFactor: (
        lambda: (RSplitFactor("-1/3"), RSplitFactor(t=2)),
        "RSplitFactor(t=Fraction(-1, 3))",
        "RSplitFactor(t=Fraction(2, 1))",
    ),
    CSplitFactor: (
        lambda: (CSplitFactor((0, "1/2")), CSplitFactor(w=(2, 1))),
        "CSplitFactor(w=(Fraction(0, 1), Fraction(1, 2)))",
        "CSplitFactor(w=(Fraction(2, 1), Fraction(1, 1)))",
    ),
    KappaDatum: (
        lambda: (make_regular_kappa(1, 1, 1), KappaDatum()),
        "KappaDatum(factors=(CFieldFactor(angle=Fraction(1, 3), c=1), "
        "RSplitFactor(t=Fraction(2, 1)), "
        "CSplitFactor(w=(Fraction(2, 1), Fraction(1, 1)))))",
        "KappaDatum(factors=())",
    ),
    XiRegResult: (
        lambda: (is_in_Xi_reg_V(make_regular_kappa(1), QuadSpace(2, 1)),
                 XiRegResult(member=False)),
        "XiRegResult(member=True, line=QuadSpace(0, 1))",
        "XiRegResult(member=False, line=None)",
    ),
    CheckReport: (
        lambda: (verify_union_prop(make_regular_kappa(1), QuadSpace(2, 1), 1),
                 CheckReport("fiber", False, (), ((1,),))),
        "CheckReport(kind='union', passed=True, lhs=((1,),), rhs=((1,),), "
        "details={'exponent': 0, 'epsilon': 1, 'selected_forms': [(2, 1)], "
        "'n_elliptic': 1})",
        "CheckReport(kind='fiber', passed=False, lhs=(), rhs=((1,),), "
        "details={})",
    ),
    LParameter: (
        lambda: (_phi(QuadSpace(3, 2), DiscRep(1), DiscRep(3)),
                 LParameter(rep=WeilRep([CharRep(0), CharRep(1)]),
                            target=QuadSpace(1, 1))),
        "LParameter(rep=WeilRep[DiscRep(k=1, t=Fraction(0, 1)) + "
        "DiscRep(k=3, t=Fraction(0, 1))], target=QuadSpace(3, 2))",
        "LParameter(rep=WeilRep[CharRep(a=0, t=Fraction(0, 1)) + "
        "CharRep(a=1, t=Fraction(0, 1))], target=QuadSpace(1, 1))",
    ),
    ComponentGroup: (
        lambda: (_phi(QuadSpace(3, 2), DiscRep(1), DiscRep(3)).group,
                 ComponentGroup(basis=())),
        "ComponentGroup(basis=(DiscRep(k=1, t=Fraction(0, 1)), "
        "DiscRep(k=3, t=Fraction(0, 1))))",
        "ComponentGroup(basis=())",
    ),
    Classification: (
        lambda: (classify(_phi(QuadSpace(3, 2), DiscRep(1), DiscRep(3))),
                 Classification(frozenset(), "B", False)),
        "Classification(flags=frozenset({'E'}), canonical='E', "
        "explicit_condition=True)",
        "Classification(flags=frozenset(), canonical='B', "
        "explicit_condition=False)",
    ),
    GPPair: (
        lambda: (_gp(2, 5), _gp(0, 1)),
        "GPPair(phiW=LParameter(rep=WeilRep[DiscRep(k=2, t=Fraction(0, 1))], "
        "target=QuadSpace(2, 0)), phiV=LParameter(rep=WeilRep[DiscRep(k=1, "
        "t=Fraction(0, 1)) + DiscRep(k=3, t=Fraction(0, 1))], "
        "target=QuadSpace(3, 2)), pair=AdmissiblePair(W=QuadSpace(2, 0), "
        "V=QuadSpace(3, 2), r=1, d_sign=-1))",
        "GPPair(phiW=LParameter(rep=WeilRep(), target=QuadSpace(0, 0)), "
        "phiV=LParameter(rep=WeilRep(), target=QuadSpace(1, 0)), "
        "pair=AdmissiblePair(W=QuadSpace(0, 0), V=QuadSpace(1, 0), r=0, "
        "d_sign=1))",
    ),
    WeilRep: (
        lambda: (WeilRep([DiscRep(1), (CharRep(0), 2)]), WeilRep()),
        "WeilRep[2*CharRep(a=0, t=Fraction(0, 1)) + DiscRep(k=1, t=Fraction(0, 1))]",
        "WeilRep()",
    ),
    DichotomyReport: (
        lambda: (_REPORTS[0], DichotomyReport(False, -1, 1, 1)),
        "DichotomyReport(ok=True, chi=1, factor_wplus_vminus=1, "
        "factor_wminus_vplus=1)",
        "DichotomyReport(ok=False, chi=-1, factor_wplus_vminus=1, "
        "factor_wminus_vplus=1)",
    ),
}
ORDERED = {QuadSpace, CharRep, DiscRep, CFieldFactor, RSplitFactor, CSplitFactor}
# the values each class computes on first request and keeps
CACHED = {
    LParameter: ("group", "reduced"),
    ComponentGroup: ("masks", "even_dims", "_planes_by_slot", "generators"),
    KappaDatum: ("signed",),
}
HASHABLE = set(SAMPLES) - {CheckReport}  # its details are a dict


def _pair(cls):
    a, b = SAMPLES[cls][0]()
    assert type(a) is cls and type(b) is cls
    return a, b


def _values(obj):
    return tuple(getattr(obj, name) for name in type(obj)._fields)


def _rebuilt(obj):
    # the same value built again through the constructor, by keyword; a
    # WeilRep takes its summands as its one argument
    if type(obj) is WeilRep:
        return WeilRep(obj._summands)
    return type(obj)(**{name: getattr(obj, name) for name in type(obj)._fields})


def test_every_value_class_is_sampled():
    assert len(SAMPLES) == 17 and ORDERED <= set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_repr_is_the_pinned_field_repr(cls):
    a, b = _pair(cls)
    assert (repr(a), repr(b)) == SAMPLES[cls][1:]


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    a, b = _pair(cls)
    again = _rebuilt(a)
    assert again is not a and again == a and not again != a
    assert a != b and not a == b
    assert a != _values(a)
    if cls in HASHABLE:
        assert hash(again) == hash(a) == hash(_values(a))
        assert len({a, again, b}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_order_within_one_class_only(cls):
    a, b = _pair(cls)
    other = FourthRoot(0) if cls is not FourthRoot else QuadSpace(0, 0)
    if cls in ORDERED:
        assert a < b and a <= b and b > a and b >= a and a <= _rebuilt(a)
        assert not (b < a or a > b or b <= a or a >= b)
        assert sorted([b, a]) == [a, b]
    else:
        with pytest.raises(TypeError):
            a < b
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(a, other)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise_naming_the_field(cls):
    a, _ = _pair(cls)
    before = dict(vars(a))
    for name in cls._fields + ("dim", "anything"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    assert vars(a) == before


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
def test_copies_keep_value_repr_and_stored_data(cls):
    # pickle at every protocol (as for --jobs workers), copy and deepcopy:
    # each keeps eq, hash and repr, and the stored invariants and cached
    # values travel in the instance dict
    a, _ = _pair(cls)
    for name in CACHED.get(cls, ()):
        getattr(a, name)
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies:
        assert type(back) is cls and back == a and repr(back) == repr(a)
        assert vars(back) == vars(a)
        if cls in HASHABLE:
            assert hash(back) == hash(a)


@pytest.mark.parametrize("cls", CACHED, ids=lambda c: c.__name__)
def test_each_cached_value_fills_once(cls):
    a, b = _pair(cls)
    for obj in (a, b):
        for name in CACHED[cls]:
            first = getattr(obj, name)
            assert vars(obj)[name] is first
            assert getattr(obj, name) is first
