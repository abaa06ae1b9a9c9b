import json
import pickle

import pytest
from hypothesis import given, strategies as st

from gpkit import quadspace
from gpkit.quadspace import (
    AdmissiblePair,
    NotAdmissible,
    QuadSpace,
    admissible_pair,
    discriminant,
    is_admissible_pair,
    is_quasi_split,
    kottwitz_sign,
    pure_inner_forms,
    quasi_split_form,
    quasi_split_forms,
    relevant_pairs,
    space_from_json,
    space_to_json,
)

spaces = st.builds(
    QuadSpace, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)
)


def test_basic_invariants():
    V = QuadSpace(3, 2)
    assert V.dim == 5
    assert V.delta == 1
    assert V.orthogonal_sum(QuadSpace(1, 0)) == QuadSpace(4, 2)


def test_stored_invariants_leave_eq_hash_order_repr_and_pickle_alone():
    # dim and delta are set at construction and are not fields: equality,
    # hashing, order and the repr see (p, q) only, and a pickle round trip
    # (as for --jobs workers) keeps them
    spaces = [QuadSpace(p, d - p) for d in range(9) for p in range(d + 1)]
    assert QuadSpace._fields == ("p", "q")
    assert sorted(spaces, reverse=True) == sorted(
        spaces, key=lambda V: (V.p, V.q), reverse=True
    )
    for V in spaces:
        assert (V.dim, V.delta) == (V.p + V.q, V.p - V.q)
        assert V == QuadSpace(V.p, V.q) and hash(V) == hash((V.p, V.q))
        assert repr(V) == f"QuadSpace({V.p}, {V.q})"
        assert vars(V) == {"p": V.p, "q": V.q, "dim": V.dim, "delta": V.delta}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(V, protocol))
            assert back == V and hash(back) == hash(V) and repr(back) == repr(V)
            assert (back.dim, back.delta) == (V.dim, V.delta)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        QuadSpace(2, 1).dim = 4


def test_negative_signature_rejected():
    with pytest.raises(ValueError):
        QuadSpace(-1, 2)
    with pytest.raises(ValueError):
        QuadSpace(0, -3)


@pytest.mark.parametrize(
    "p,q", [(True, False), (1, True), (1.0, 0), (2, 1.5), ("1", 0)]
)
def test_non_integer_signature_rejected(p, q):
    with pytest.raises(TypeError):
        QuadSpace(p, q)


@pytest.mark.parametrize(
    "p,q,expected",
    [(0, 0, 1), (1, 1, 1), (3, 0, -1), (2, 0, -1), (2, 2, 1), (5, 0, 1)],
)
def test_discriminant_values(p, q, expected):
    assert discriminant(QuadSpace(p, q)) == expected


@given(spaces)
def test_discriminant_is_sign(V):
    assert discriminant(V) in (1, -1)


@given(spaces)
def test_discriminant_constant_on_inner_class(V):
    d = discriminant(V)
    assert all(discriminant(U) == d for U in pure_inner_forms(V))


@pytest.mark.parametrize(
    "p,q,forms",
    [
        (3, 1, [(3, 1), (1, 3)]),
        (2, 1, [(2, 1), (0, 3)]),
        (1, 0, [(1, 0)]),
        (2, 2, [(4, 0), (2, 2), (0, 4)]),
    ],
)
def test_pure_inner_forms(p, q, forms):
    got = [(U.p, U.q) for U in pure_inner_forms(QuadSpace(p, q))]
    assert got == forms


def test_pure_inner_forms_are_cached_per_space():
    # from a cold cache: each space's tuple equals the list built from the
    # definition (same dimension, same p parity, p descending), and a repeat
    # call returns the same object
    pure_inner_forms.cache_clear()
    for d in range(25):
        for p in range(d + 1):
            V = QuadSpace(p, d - p)
            fresh = [QuadSpace(pp, d - pp) for pp in range(d, -1, -1)
                     if (pp - p) % 2 == 0]
            forms = pure_inner_forms(V)
            assert isinstance(forms, tuple) and list(forms) == fresh
            assert pure_inner_forms(V) is forms


def test_admissible_pairs_match_the_definition():
    # for every (W, V) with dims <= 12: the result equals the pair found from
    # the definition V = W + D + Z (D a line of sign d_sign, Z split of
    # dimension 2r), or None when there is none
    spaces = [QuadSpace(p, d - p) for d in range(13) for p in range(d + 1)]
    for W in spaces:
        for V in spaces:
            fresh = [
                AdmissiblePair(W, V, r, d_sign)
                for r in range(7)
                for d_sign in (1, -1)
                if V == QuadSpace(W.p + r + (d_sign > 0), W.q + r + (d_sign < 0))
            ]
            pair = is_admissible_pair(W, V)
            assert len(fresh) <= 1
            assert pair == (fresh[0] if fresh else None), (W, V)


@given(spaces)
def test_pure_inner_forms_partition(V):
    """Same dimension, p-parity preserved, p strictly descending, V included."""
    forms = pure_inner_forms(V)
    assert V in forms
    assert all(U.dim == V.dim and (U.p - V.p) % 2 == 0 for U in forms)
    ps = [U.p for U in forms]
    assert ps == sorted(ps, reverse=True)


@pytest.mark.parametrize(
    "p,q,expected",
    [((2), 1, True), (3, 1, True), (4, 0, False), (1, 0, True), (0, 3, False)],
)
def test_is_quasi_split(p, q, expected):
    assert is_quasi_split(QuadSpace(p, q)) is expected


def test_quasi_split_form_values():
    assert quasi_split_form(QuadSpace(3, 0)) == QuadSpace(1, 2)
    assert quasi_split_form(QuadSpace(4, 0)) == QuadSpace(2, 2)
    assert quasi_split_form(QuadSpace(2, 2)) == QuadSpace(2, 2)


def test_quasi_split_forms_doubled_class():
    # a dim-4 class with discriminant forcing |Δ| = 2 has two quasi-split forms
    assert quasi_split_forms(QuadSpace(3, 1)) == [QuadSpace(3, 1), QuadSpace(1, 3)]
    assert quasi_split_form(QuadSpace(3, 1)) == QuadSpace(3, 1)


def test_quasi_split_form_rejects_extra_forms(monkeypatch):
    # The uniqueness invariant is an explicit raise, so it also holds under -O.
    monkeypatch.setattr(
        quadspace, "quasi_split_forms", lambda V: [QuadSpace(2, 1), QuadSpace(1, 2)]
    )
    with pytest.raises(AssertionError, match="expected one"):
        quasi_split_form(QuadSpace(2, 1))


@given(spaces)
def test_quasi_split_form_is_quasi_split_inner_form(V):
    U = quasi_split_form(V)
    assert is_quasi_split(U)
    assert U in pure_inner_forms(V)


@pytest.mark.parametrize(
    "p,q,expected", [(2, 2, 1), (3, 0, -1), (2, 1, 1), (7, 0, 1), (0, 3, -1)]
)
def test_kottwitz_sign_values(p, q, expected):
    assert kottwitz_sign(QuadSpace(p, q)) == expected


@given(spaces)
def test_kottwitz_sign_from_compact_dimensions(V):
    """Independent recomputation from dim K = p(p-1)/2 + q(q-1)/2."""

    def compact_dim(U):
        return U.p * (U.p - 1) // 2 + U.q * (U.q - 1) // 2

    diff = compact_dim(quasi_split_form(V)) - compact_dim(V)
    assert diff % 2 == 0
    assert kottwitz_sign(V) == (-1) ** (diff // 2)


@given(spaces)
def test_kottwitz_trivial_on_quasi_split(V):
    if is_quasi_split(V):
        assert kottwitz_sign(V) == 1


class TestAdmissiblePairs:
    def test_worked_examples(self):
        pair = is_admissible_pair(QuadSpace(1, 0), QuadSpace(2, 2))
        assert (pair.r, pair.d_sign) == (1, -1)
        assert pair.line == QuadSpace(0, 1)
        pair = is_admissible_pair(QuadSpace(1, 1), QuadSpace(2, 1))
        assert (pair.r, pair.d_sign) == (0, 1)
        assert pair.line == QuadSpace(1, 0)

    def test_rejections(self):
        assert is_admissible_pair(QuadSpace(1, 1), QuadSpace(2, 2)) is None
        assert is_admissible_pair(QuadSpace(2, 1), QuadSpace(1, 1)) is None
        assert is_admissible_pair(QuadSpace(3, 0), QuadSpace(2, 5)) is None

    def test_w_perp_reconstructs_v(self):
        pair = is_admissible_pair(QuadSpace(2, 0), QuadSpace(3, 2))
        assert pair.W.orthogonal_sum(pair.w_perp) == pair.V

    def test_decomposition_shape(self):
        # V ≅ W ⊥ D ⊥ (split of even dimension)
        pair = is_admissible_pair(QuadSpace(2, 0), QuadSpace(4, 3))
        perp = pair.w_perp
        rest = QuadSpace(perp.p - pair.line.p, perp.q - pair.line.q)
        assert rest == QuadSpace(pair.r, pair.r)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AdmissiblePair(QuadSpace(1, 1), QuadSpace(2, 2), r=0, d_sign=1)
        # the gap 2r + 1 is right, but no negative line fills (1, 0) to (2, 0)
        with pytest.raises(ValueError, match="not W ⟂ D ⟂ Z shaped"):
            AdmissiblePair(QuadSpace(1, 0), QuadSpace(2, 0), 0, -1)

    @pytest.mark.parametrize(
        "W,V,r,d_sign",
        [
            ((1, 0), (2, 2), True, -1),
            ((1, 0), (2, 2), 1.0, -1),
            ((1, 1), (2, 1), False, 1),
            ((1, 1), (2, 1), 0, True),
            ((1, 1), (2, 1), 0, 1.0),
        ],
    )
    def test_fields_are_exact_ints(self, W, V, r, d_sign):
        # each of these once passed as the int it equals
        W, V = QuadSpace(*W), QuadSpace(*V)
        assert is_admissible_pair(W, V) == AdmissiblePair(W, V, int(r), int(d_sign))
        with pytest.raises(ValueError):
            AdmissiblePair(W, V, r, d_sign)


def test_relevant_pairs_worked():
    got = relevant_pairs(QuadSpace(2, 0), QuadSpace(3, 2))
    assert [((W.p, W.q), (V.p, V.q)) for W, V in got] == [
        ((2, 0), (3, 2)),
        ((0, 2), (1, 4)),
    ]
    got = relevant_pairs(QuadSpace(0, 0), QuadSpace(1, 0))
    assert [((W.p, W.q), (V.p, V.q)) for W, V in got] == [((0, 0), (1, 0))]


def test_relevant_pairs_requires_admissible():
    with pytest.raises(NotAdmissible):
        relevant_pairs(QuadSpace(1, 1), QuadSpace(2, 2))


def test_admissible_pair_checks_once(count_calls):
    calls = count_calls(quadspace, "is_admissible_pair")
    W, V = QuadSpace(2, 0), QuadSpace(3, 2)
    assert admissible_pair(W, V) == is_admissible_pair(W, V)
    assert calls == {"is_admissible_pair": 1}
    with pytest.raises(NotAdmissible) as err:
        admissible_pair(QuadSpace(1, 1), QuadSpace(2, 2))
    assert str(err.value) == (
        "(QuadSpace(1, 1), QuadSpace(2, 2)) is not an admissible pair"
    )
    assert calls == {"is_admissible_pair": 2}


def _same_space(got, p, q):
    """``got`` equals a fresh QuadSpace(p, q) in eq, hash, repr and stored
    invariants."""
    fresh = QuadSpace(p, q)
    assert type(got) is QuadSpace
    assert got == fresh and hash(got) == hash(fresh)
    assert repr(got) == repr(fresh)
    assert (got.dim, got.delta) == (fresh.dim, fresh.delta)


def test_orthogonal_sum_shares_one_space_per_signature():
    # every pair of spaces whose sum has dimension <= 24: the sum is the
    # space of the summed signature, and a repeat call, also on equal but
    # distinct operands, returns the same object
    for d in range(25):
        for d1 in range(d + 1):
            for p1 in range(d1 + 1):
                for p2 in range(d - d1 + 1):
                    A, B = QuadSpace(p1, d1 - p1), QuadSpace(p2, d - d1 - p2)
                    got = A.orthogonal_sum(B)
                    _same_space(got, A.p + B.p, A.q + B.q)
                    assert A.orthogonal_sum(B) is got
                    assert QuadSpace(A.p, A.q).orthogonal_sum(
                        QuadSpace(B.p, B.q)
                    ) is got


def test_admissible_pair_line_and_complement_are_shared():
    # every admissible pair with dim V <= 12, from is_admissible_pair and
    # built afresh: the line and the complement W^perp are the spaces of
    # their signatures, and repeat calls return the same objects
    spaces = [QuadSpace(p, d - p) for d in range(13) for p in range(d + 1)]
    pairs = 0
    for W in spaces:
        for V in spaces:
            pair = is_admissible_pair(W, V)
            if pair is None:
                continue
            pairs += 1
            fresh = AdmissiblePair(W, V, pair.r, pair.d_sign)
            line, perp = pair.line, pair.w_perp
            _same_space(line, *((1, 0) if pair.d_sign > 0 else (0, 1)))
            _same_space(perp, V.p - W.p, V.q - W.q)
            assert pair.line is line and fresh.line is line
            assert pair.w_perp is perp and fresh.w_perp is perp
    assert pairs == 406


def test_quasi_split_forms_match_the_definition():
    # every space with p + q <= 64 against the definition: the members of
    # the pure inner class that pass is_quasi_split, in class order, each
    # the shared space of its signature
    for d in range(65):
        for p in range(d + 1):
            V = QuadSpace(p, d - p)
            oracle = [W for W in pure_inner_forms(V) if is_quasi_split(W)]
            got = quasi_split_forms(V)
            assert type(got) is list and got == oracle, V
            for W in got:
                assert W is quadspace._space(W.p, W.q), (V, W)
            assert quasi_split_form(V) is got[0], V


@given(spaces.filter(lambda V: V.dim >= 1))
def test_relevant_pairs_all_admissible(V):
    W = QuadSpace(max(V.p - 1, 0), max(V.q - (0 if V.p >= 1 else 1), 0))
    if is_admissible_pair(W, V) is None:
        return
    for Wa, Va in relevant_pairs(W, V):
        pair = is_admissible_pair(Wa, Va)
        assert pair is not None
        assert pair.w_perp == QuadSpace(V.p - W.p, V.q - W.q)


def test_json_round_trip():
    V = QuadSpace(4, 1)
    blob = json.dumps(space_to_json(V))
    assert space_from_json(json.loads(blob)) == V
