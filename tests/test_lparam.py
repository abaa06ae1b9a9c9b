import json
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from gp_reference import (
    dichotomy_identity_check,
    eigenspace_split,
    endoscopic_split,
    gp_character,
)
from gpkit import lparam
from gpkit.epsilon import eps_half
from gpkit.lparam import (
    Ambient,
    CentralElement,
    ConstituentType,
    DimMismatch,
    GPCharacterTable,
    InvalidParameter,
    NotReduced,
    OddHalfExponent,
    OddSpMultiplicity,
    UnpairedGLType,
    ambient_of,
    classify,
    component_group,
    constituent_type,
    enumerate_reduced,
    gp_pair_from_json,
    is_reduced,
    make_gp_pair,
    param_from_json,
    param_to_json,
    validate,
)
from gpkit.quadspace import NotAdmissible, QuadSpace
from gpkit.weilrep import CharRep, DiscRep, WeilRep, tensor


def D(k, t=0):
    return DiscRep(k, Fraction(t))


def C(a, t=0):
    return CharRep(a, Fraction(t))


ONE, SGN = C(0), C(1)


def test_ambient_by_parity():
    assert ambient_of(QuadSpace(2, 1)) is Ambient.SYMPLECTIC
    assert ambient_of(QuadSpace(2, 2)) is Ambient.ORTHOGONAL


@pytest.mark.parametrize(
    "rho,ambient,expected",
    [
        (D(1), Ambient.SYMPLECTIC, ConstituentType.O),
        (D(2), Ambient.SYMPLECTIC, ConstituentType.SP),
        (ONE, Ambient.SYMPLECTIC, ConstituentType.SP),
        (D(1), Ambient.ORTHOGONAL, ConstituentType.SP),
        (D(2), Ambient.ORTHOGONAL, ConstituentType.O),
        (SGN, Ambient.ORTHOGONAL, ConstituentType.O),
        (C(0, Fraction(1, 2)), Ambient.SYMPLECTIC, ConstituentType.GL),
        (D(3, Fraction(1, 2)), Ambient.ORTHOGONAL, ConstituentType.GL),
    ],
)
def test_constituent_type(rho, ambient, expected):
    assert constituent_type(rho, ambient) is expected


class TestValidate:
    def test_accepts_worked_examples(self):
        phi = validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))
        assert phi.ambient is Ambient.SYMPLECTIC
        assert is_reduced(phi)
        assert validate(WeilRep([]), QuadSpace(1, 0)).rep.dim == 0

    def test_sp_multiplicity_wins_over_dimension(self):
        # D_2 is Sp-type in the symplectic ambient *and* has the wrong total
        # dimension; the typing violation names the error, both are listed.
        with pytest.raises(OddSpMultiplicity) as exc:
            validate(WeilRep([D(2)]), QuadSpace(3, 2))
        assert len(exc.value.violations) == 2

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            validate(WeilRep([D(1)]), QuadSpace(3, 2))

    def test_unpaired_gl(self):
        with pytest.raises(UnpairedGLType):
            validate(WeilRep([C(0, Fraction(1, 2)), C(0)]), QuadSpace(1, 1))

    def test_gl_dual_pairs_accepted(self):
        rep = WeilRep([C(0, Fraction(1, 2)), C(0, Fraction(-1, 2))])
        phi = validate(rep, QuadSpace(1, 1))
        assert not is_reduced(phi)

    def test_even_sp_multiplicity_accepted(self):
        phi = validate(WeilRep([(D(2), 2)]), QuadSpace(3, 2))
        assert constituent_type(D(2), phi.ambient) is ConstituentType.SP


class TestComponentGroup:
    def test_unconstrained(self):
        grp = component_group(validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2)))
        assert grp.size == 4 and not grp.constraint
        assert grp.masks() == (0b00, 0b01, 0b10, 0b11)

    def test_constrained_by_odd_dimension(self):
        grp = component_group(
            validate(WeilRep([ONE, SGN, D(2)]), QuadSpace(2, 2))
        )
        assert grp.constraint and grp.size == 4
        one, sgn = grp.basis.index(ONE), grp.basis.index(SGN)
        for m in grp.masks():
            signs = grp.signs_of(m)
            assert signs[one] * signs[sgn] == 1  # the odd slots multiply to +1

    def test_so2(self):
        grp = component_group(validate(WeilRep([ONE, SGN]), QuadSpace(1, 1)))
        assert grp.size == 2

    def test_element_rejects_constraint_violation(self):
        grp = component_group(
            validate(WeilRep([ONE, SGN, D(2)]), QuadSpace(2, 2))
        )
        with pytest.raises(ValueError, match="constraint"):
            grp.mask_of((1, -1, 1))

    @pytest.mark.parametrize(
        "signs", [(1,), (1, 1, 1), (1, 0), (1, 2), (-1, "-1")]
    )
    def test_mask_of_rejects_malformed_signs(self, signs):
        grp = component_group(validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2)))
        with pytest.raises(ValueError, match="one per basis constituent"):
            grp.mask_of(signs)

    def test_component_element_algebra(self):
        grp = component_group(validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2)))
        assert grp.mask_of((1, -1)) == 0b10  # bit 1: sign -1 on D(3)
        assert grp.signs_of(0b10) == (1, -1)
        # the product of two elements is the XOR of their masks
        assert grp.mask_of((-1, -1)) == 0b11
        assert grp.signs_of(0b10 ^ 0b11) == (-1, 1)

    def test_signs_and_masks_round_trip_on_family(self):
        # every ±1 assignment of every group of the criterion-5 family: the
        # admitted ones round-trip through their mask, the rest are refused
        groups = {id(g): g for gp in _criterion5_pairs()
                  for g in (gp.phiW.group, gp.phiV.group)}
        for grp in groups.values():
            admitted = []
            for signs in product((1, -1), repeat=len(grp.basis)):
                try:
                    m = grp.mask_of(signs)
                except ValueError:
                    continue
                assert grp.signs_of(m) == signs
                admitted.append(m)
            assert sorted(admitted) == list(grp.masks())
        assert len(groups) > 1


class TestClassify:
    def test_worked_examples(self):
        assert classify(validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))).canonical == "E"
        assert classify(validate(WeilRep([D(1)]), QuadSpace(2, 1))).canonical == "B"
        assert classify(validate(WeilRep([(D(1), 2)]), QuadSpace(3, 2))).canonical == "P"

    def test_flag_overlap_priority(self):
        # dim ≤ 3 with a degenerate constituent: both flags, P canonical
        res = classify(validate(WeilRep([(ONE, 2)]), QuadSpace(2, 1)))
        assert res.flags == frozenset({"B", "P"})
        assert res.canonical == "P"

    def test_explicit_condition_on_reduced(self):
        res = classify(validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2)))
        assert res.explicit_condition is True
        res = classify(validate(WeilRep([D(1)]), QuadSpace(2, 1)))
        assert res.explicit_condition is False

    def test_explicit_condition_diverges_off_reduced_domain(self):
        # 2·D₁ on SO(5): the group-level condition holds although the
        # trichotomy lands in (P) — the equivalence is a theorem only for
        # multiplicity-free parameters.
        res = classify(validate(WeilRep([(D(1), 2)]), QuadSpace(3, 2)))
        assert res.canonical == "P"
        assert res.explicit_condition is True


class TestEigenspaceSplit:
    def test_split(self):
        phi = validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))
        grp = component_group(phi)
        plus, minus = eigenspace_split(phi, grp.mask_of((-1, 1)))
        assert minus == WeilRep([D(1)]) and plus == WeilRep([D(3)])

    def test_requires_reduced(self):
        phi = validate(WeilRep([(D(1), 2)]), QuadSpace(3, 2))
        with pytest.raises(NotReduced):
            eigenspace_split(phi, 0b1)

    def test_rejects_foreign_element(self):
        phi = validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))
        # the basis has two slots, so bit 2 and negative masks are foreign
        for mask in (0b100, -1):
            with pytest.raises(ValueError, match="outside"):
                eigenspace_split(phi, mask)


def so23_pair():
    phiW = validate(WeilRep([D(2)]), QuadSpace(1, 1))
    phiV = validate(WeilRep([D(1)]), QuadSpace(2, 1))
    return make_gp_pair(phiW, phiV)


def so45_pair():
    phiW = validate(WeilRep([D(2), D(4)]), QuadSpace(2, 2))
    phiV = validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))
    return make_gp_pair(phiW, phiV)


class TestGPCharacter:
    def test_so2_so3_worked_value(self):
        gp = so23_pair()
        assert gp_character(gp, 0b0, 0b1) == -1

    def test_so4_so5_worked_value(self):
        gp = so45_pair()
        assert gp_character(gp, 0b00, 0b01) == 1

    def test_identity_maps_to_one(self):
        gp = so45_pair()
        tab = GPCharacterTable(gp)
        assert tab.chi(0, 0) == 1

    def test_table_matches_direct_evaluation(self):
        gp = so45_pair()
        tab = GPCharacterTable(gp)
        for (x, y), val in tab.chi_table().items():
            assert gp_character(gp, x, y) == val

    def test_table_matches_direct_path_on_family(self):
        # Every reduced pair with target dims <= 8 and k <= 9, on the sweep's
        # representative spaces: the mask-indexed table against the WeilRep
        # path of gp_reference (eigenspace splits, tensor products,
        # symplectic root numbers).
        n_chi = n_dichotomy = 0
        for dv in range(1, 9):
            for dw in range(dv - 1, -1, -2):
                a = (dv - dw + 1) // 2
                W, V = QuadSpace(dw, 0), QuadSpace(dw + a, dv - dw - a)
                for phiW in enumerate_reduced(W, 9):
                    for phiV in enumerate_reduced(V, 9):
                        gp = make_gp_pair(phiW, phiV)
                        tab = GPCharacterTable(gp)
                        full = (1 << len(tab.groupV.basis)) - 1
                        for x, y in product(
                            tab.groupW.masks(), tab.groupV.masks()
                        ):
                            n_chi += 1
                            if y in (0, full):
                                assert tab.chi(x, y) == gp_character(gp, x, y)
                                continue
                            direct = dichotomy_identity_check(gp, x, y)
                            n_dichotomy += 1
                            assert tab.dichotomy(x, y) == direct, (gp, x, y)
                            assert tab.chi(x, y) == direct.chi
        assert (n_chi, n_dichotomy) == (27_641, 21_330)

    def test_non_symplectic_block_raises(self):
        # s_W = -1 on the trivial character alone lies outside the constrained
        # group: its (-1)-eigenspace is odd-dimensional, so no block it
        # selects is symplectic and reading one must raise, not return a sign.
        phiW = validate(WeilRep([ONE, SGN, D(2)]), QuadSpace(2, 2))
        phiV = validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))
        tab = GPCharacterTable(make_gp_pair(phiW, phiV))
        x = 1 << tab.groupW.basis.index(ONE)
        for read in (tab.chi, tab.dichotomy):
            with pytest.raises(OddHalfExponent):
                read(x, 0b01)

    def test_masks_outside_the_bases_are_refused(self):
        tab = GPCharacterTable(so45_pair())
        # both bases have two slots: masks run over 0..3
        for x, y in ((-1, 0b01), (1 << 2, 0b01), (0, -1), (0, 1 << 2)):
            for read in (tab.chi, tab.dichotomy):
                with pytest.raises(ValueError, match="outside"):
                    read(x, y)

    def test_multiplicative(self):
        gp = so45_pair()
        tab = GPCharacterTable(gp)
        table = tab.chi_table()
        for ((x1, y1), v1), ((x2, y2), v2) in product(table.items(), repeat=2):
            assert table[(x1 ^ x2, y1 ^ y2)] == v1 * v2

    def test_mask_tables_consistent(self):
        gp = so45_pair()
        tab = GPCharacterTable(gp)
        masksW, masksV, valW, valV = tab.mask_tables()
        for mw in masksW:
            for mv in masksV:
                assert tab.chi(mw, mv) == valW[mw] * valV[mv]

    def test_character_only_depends_on_parameters(self):
        phiW = validate(WeilRep([D(2)]), QuadSpace(0, 2))
        phiV = validate(WeilRep([D(1)]), QuadSpace(1, 2))
        gp = make_gp_pair(phiW, phiV)
        assert gp_character(gp, 0b0, 0b1) == -1


class TestGPPairConstruction:
    def test_needs_opposite_parities(self):
        phi1 = validate(WeilRep([D(1)]), QuadSpace(2, 1))
        phi2 = validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))
        with pytest.raises(InvalidParameter):
            make_gp_pair(phi1, phi2)

    def test_needs_admissible_targets(self):
        phiW = validate(WeilRep([D(2)]), QuadSpace(2, 0))
        phiV = validate(WeilRep([D(1)]), QuadSpace(0, 3))
        with pytest.raises(NotAdmissible):
            make_gp_pair(phiW, phiV)


class TestEndoscopy:
    def test_central_elements_rejected(self):
        gp = so45_pair()
        tab = GPCharacterTable(gp)
        for y in (0b00, 0b11):
            with pytest.raises(CentralElement):
                endoscopic_split(gp, 0b00, y)
            with pytest.raises(CentralElement):
                tab.dichotomy(0b00, y)

    def test_split_dimensions(self):
        gp = so45_pair()
        split = endoscopic_split(gp, 0b01, 0b01)
        assert split.v_minus.rep == WeilRep([D(1)])
        assert split.v_minus.target_dim == 3  # 2 + 1 for the odd target
        assert split.w_minus.target_dim == 2
        for a, b in split.cross_pairs:
            assert (a.target_dim - b.target_dim) % 2 == 1

    def test_dichotomy_worked(self):
        gp = so45_pair()
        rep = dichotomy_identity_check(gp, 0b00, 0b01)
        assert rep.ok and rep.chi == 1
        assert rep.breakdown()["product"] == rep.chi

    def test_dichotomy_agrees_with_table(self):
        gp = so45_pair()
        tab = GPCharacterTable(gp)
        assert tab.dichotomy(0b11, 0b10).ok
        assert dichotomy_identity_check(gp, 0b11, 0b10).ok


def _sweep_pairs(max_dim, max_k):
    # the pairs of `verify dichotomy --max-dim max_dim --max-k max_k`, built
    # as the sweep builds them: each parameter is enumerated once per
    # dimension pair and shared by every pair it enters
    for dv in range(1, max_dim + 1):
        for dw in range(dv - 1, -1, -2):
            a = (dv - dw + 1) // 2
            W, V = QuadSpace(dw, 0), QuadSpace(dw + a, dv - dw - a)
            paramsV = enumerate_reduced(V, max_k)
            for phiW in enumerate_reduced(W, max_k):
                for phiV in paramsV:
                    yield make_gp_pair(phiW, phiV)


def _criterion5_pairs():
    # acceptance criterion 5's family: target dims <= 10, k <= 9
    return _sweep_pairs(10, 9)


# the families of acceptance criterion 5 and of the chi-narrow benchmark
# workload (`verify dichotomy --max-dim 5 --max-k 25`), with their pair counts
SWEEP_FAMILIES = {"criterion-5": (10, 9, 992), "chi-narrow": (5, 25, 8_464)}


class TestPairExponentMemo:
    def test_entries_match_direct_tensor_on_family(self):
        lparam._pair_exponent.cache_clear()
        pairs = set()
        for gp in _criterion5_pairs():
            GPCharacterTable(gp)
            pairs.update(
                product(
                    component_group(gp.phiW).basis,
                    component_group(gp.phiV).basis,
                )
            )
        assert lparam._pair_exponent.cache_info().currsize == len(pairs)
        for sig, rho in pairs:
            direct = eps_half(tensor(WeilRep([sig]), WeilRep([rho]))).e
            assert lparam._pair_exponent(sig, rho) == direct, (sig, rho)

    def test_cold_and_warm_tables_agree_on_family(self):
        for gp in _criterion5_pairs():
            lparam._pair_exponent.cache_clear()
            cold = GPCharacterTable(gp)
            warm = GPCharacterTable(gp)
            info = lparam._pair_exponent.cache_info()
            assert info.hits == info.misses  # the warm build missed nothing
            assert warm._F == cold._F
            assert warm.mask_tables() == cold.mask_tables()


def _cold_copy(phi):
    # a parameter validated afresh from its JSON, sharing no object with phi
    return param_from_json(json.loads(json.dumps(param_to_json(phi))))


def _span(gens):
    span = {0}
    for g in gens:
        span |= {s ^ g for s in span}
    return span


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
class TestPerParameterCaches:
    def test_warm_and_cold_parameters_give_the_same_table(self, family):
        max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
        n = 0
        for gp in _sweep_pairs(max_dim, max_k):
            warm = GPCharacterTable(gp)
            cold_gp = make_gp_pair(_cold_copy(gp.phiW), _cold_copy(gp.phiV))
            assert "group" not in vars(cold_gp.phiW)  # nothing cached yet
            cold = GPCharacterTable(cold_gp)
            assert warm._F == cold._F, gp
            assert warm.mask_tables() == cold.mask_tables(), gp
            n += 1
        assert n == n_pairs

    def test_cached_group_data_match_a_fresh_computation(self, family):
        max_dim, max_k, _ = SWEEP_FAMILIES[family]
        seen = set()
        for gp in _sweep_pairs(max_dim, max_k):
            for phi in (gp.phiW, gp.phiV):
                if id(phi) in seen:
                    continue
                seen.add(id(phi))
                grp = phi.group
                assert grp == component_group(phi)
                assert phi.reduced == is_reduced(phi)
                dims = [2 if isinstance(rho, DiscRep) else 1 for rho in grp.basis]
                subsets = range(1 << len(dims))
                sums = [sum(d for i, d in enumerate(dims) if m >> i & 1)
                        for m in subsets]
                assert grp.dim_sums == tuple(sums)
                # the elements: an even number of odd-dimensional -1 slots
                want = [m for m in subsets
                        if sum(d % 2 for i, d in enumerate(dims) if m >> i & 1) % 2 == 0]
                assert grp.masks() == tuple(want)
                assert len(grp.generators) == grp.rank
                assert _span(grp.generators) == set(want)
        assert seen

    def test_cached_masks_are_immutable_and_shared(self, family):
        max_dim, max_k, _ = SWEEP_FAMILIES[family]
        for gp in _sweep_pairs(max_dim, max_k):
            tab = GPCharacterTable(gp)
            assert tab.groupW is gp.phiW.group and tab.groupV is gp.phiV.group
            masksW, masksV, _, _ = tab.mask_tables()
            assert masksW is tab.groupW.masks() and masksV is tab.groupV.masks()
            for grp in (tab.groupW, tab.groupV):
                for data in (grp.masks(), grp.dim_sums, grp.generators):
                    assert type(data) is tuple
                for name in ("dim_sums", "generators"):
                    with pytest.raises(FrozenInstanceError):
                        setattr(grp, name, ())
            for phi in (gp.phiW, gp.phiV):
                for name in ("group", "reduced"):
                    with pytest.raises(FrozenInstanceError):
                        setattr(phi, name, None)


_twists = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def _twist_spellings(t):
    # one twist written three ways: as given, unreduced, and as a string
    return [t, Fraction(t.numerator * 2, t.denominator * 2), str(t)]


@given(
    kind=st.sampled_from([CharRep, DiscRep]),
    index=st.integers(0, 7),
    t=_twists,
)
def test_equal_irreducibles_hash_equal(kind, index, t):
    first = index % 2 if kind is CharRep else index + 1
    reps = [kind(first, spelled) for spelled in _twist_spellings(t)]
    reps += [pickle.loads(pickle.dumps(rho)) for rho in reps]
    for rho in reps:
        assert rho == reps[0] and hash(rho) == hash(reps[0])
        # the hash the field-wise dataclass hash would give
        assert hash(rho) == hash((first, t))
    other = kind(first, t + 1)
    assert other != reps[0]
    assert {rho: 1 for rho in reps}.keys() == {reps[0]}


def test_enumerate_reduced_counts():
    assert len(enumerate_reduced(QuadSpace(3, 2), 9)) == 10
    assert len(enumerate_reduced(QuadSpace(1, 0), 9)) == 1
    for phi in enumerate_reduced(QuadSpace(2, 2), 9):
        assert is_reduced(phi)


def test_param_json_round_trip():
    phi = validate(WeilRep([D(1), D(3)]), QuadSpace(3, 2))
    blob = json.dumps(param_to_json(phi))
    phi2 = param_from_json(json.loads(blob))
    assert phi2.rep == phi.rep and phi2.target == phi.target


def test_gp_pair_from_json():
    gp = so23_pair()
    obj = {
        "phiW": param_to_json(gp.phiW),
        "phiV": param_to_json(gp.phiV),
    }
    gp2 = gp_pair_from_json(json.loads(json.dumps(obj)))
    assert gp2.pair == gp.pair
