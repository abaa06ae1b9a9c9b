import copy
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from gp_reference import (
    _subset_sums,
    all_pairs_multiplicative,
    dichotomy_by_bits,
    dichotomy_identity_check,
    eigenspace_split,
    endoscopic_split,
    enumerate_reduced_by_scan,
    factor_rows,
    gp_character,
    reference_factor_table,
    sweep_pairs,
)
from gpkit import cli, lparam, quadspace
from gpkit.epsilon import eps_half
from gpkit.lparam import (
    Ambient,
    CentralElement,
    ConstituentType,
    DichotomyReport,
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
from gpkit.weilrep import CharRep, DiscRep, WeilRep, irred_dim, tensor


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
        assert grp.masks == (0b00, 0b01, 0b10, 0b11)

    def test_constrained_by_odd_dimension(self):
        grp = component_group(
            validate(WeilRep([ONE, SGN, D(2)]), QuadSpace(2, 2))
        )
        assert grp.constraint and grp.size == 4
        one, sgn = grp.basis.index(ONE), grp.basis.index(SGN)
        for m in grp.masks:
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
        "signs",
        [(1,), (1, 1, 1), (1, 0), (1, 2), (-1, "-1"),
         (True, 1), (1.0, -1), (-1.0, -1.0)],
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
            assert sorted(admitted) == list(grp.masks)
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
        for gp in sweep_pairs(8, 9):
            tab = GPCharacterTable(gp)
            full = (1 << len(tab.groupV.basis)) - 1
            for x, y in product(tab.groupW.masks, tab.groupV.masks):
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

    def test_chi_factors_into_one_sided_values(self):
        # chi(x, y) = chi(x, 0) * chi(0, y): the W side and the V side are
        # the two rows verify() checks
        tab = GPCharacterTable(so45_pair())
        for x, y in product(tab.groupW.masks, tab.groupV.masks):
            assert tab.chi(x, y) == tab.chi(x, 0) * tab.chi(0, y)

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


def _dichotomy_error(tab, x, y):
    # the rule dichotomy() keeps for its errors: the range check of
    # _check_masks first, then the central elements y = 0 and y = fullV
    fullW, fullV = tab._content.fullW, tab._content.fullV
    if not (0 <= x <= fullW and 0 <= y <= fullV):
        return ValueError, "masks have bits outside the component-group bases"
    if y in (0, fullV):
        return CentralElement, "s_V lies in {identity, all-(-1)}"
    return None


def _precedence_tables():
    # the first pair of each basis-size shape up to dims 6, k <= 7: empty,
    # one-slot and larger bases on either side
    shapes = {}
    for gp in sweep_pairs(6, 7):
        shape = (len(gp.phiW.group.basis), len(gp.phiV.group.basis))
        shapes.setdefault(shape, gp)
    return [GPCharacterTable(gp) for gp in shapes.values()]


def test_dichotomy_errors_keep_their_precedence():
    tables = _precedence_tables()
    assert len(tables) >= 8
    seen = dict.fromkeys(
        (ValueError, CentralElement, OddHalfExponent, DichotomyReport), 0
    )
    for tab in tables:
        elements = set(product(tab.groupW.masks, tab.groupV.masks))
        for x in range(-1, tab._content.fullW + 2):
            for y in range(-1, tab._content.fullV + 2):
                want = _dichotomy_error(tab, x, y)
                try:
                    got = tab.dichotomy(x, y)
                except ValueError as exc:
                    assert (type(exc), str(exc)) == want, (tab.gp, x, y)
                    seen[type(exc)] += 1
                    continue
                except OddHalfExponent:
                    # in range and not central, but not an element either
                    assert want is None and (x, y) not in elements
                    seen[OddHalfExponent] += 1
                    continue
                assert want is None, (tab.gp, x, y)
                if (x, y) in elements:
                    assert got == dichotomy_identity_check(tab.gp, x, y)
                seen[DichotomyReport] += 1
    assert all(seen.values()), seen


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


def _criterion5_pairs():
    # acceptance criterion 5's family: target dims <= 10, k <= 9
    return sweep_pairs(10, 9)


# the families of acceptance criterion 5 and of the chi-narrow benchmark
# workload (`verify dichotomy --max-dim 5 --max-k 25`), with their pair counts
SWEEP_FAMILIES = {"criterion-5": (10, 9, 992), "chi-narrow": (5, 25, 8_464)}

# the families over which the report rows are compared with the bit
# formula: the two sweep families and `--max-dim 8 --max-k 11`
ROW_FAMILIES = dict(SWEEP_FAMILIES, **{"8/11": (8, 11, 2_394)})


def _outcome(read, *args):
    # a read's report, or the type and message of the error it raises
    try:
        return read(*args)
    except (ValueError, OddHalfExponent) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", ROW_FAMILIES)
def test_report_rows_match_the_bit_formula(family):
    # dichotomy() reads byte y of its content's report row x; the oracle
    # reads the four entries off the bit rows on each call.  Every x of the
    # W-masks, elements or not, and y from -1 to fullV + 1: the reports, the
    # entries that are not +-1 and the range and central errors
    max_dim, max_k, n_pairs = ROW_FAMILIES[family]
    seen, n = Counter(), 0
    for gp in sweep_pairs(max_dim, max_k):
        tab = GPCharacterTable(gp)
        rows = _rows(tab)
        fullW, fullV = tab._content.fullW, tab._content.fullV
        for x in range(fullW + 1):
            for y in range(-1, fullV + 2):
                want = _outcome(dichotomy_by_bits, tab, rows, x, y)
                assert _outcome(tab.dichotomy, x, y) == want, (gp, x, y)
                seen[want[0] if isinstance(want, tuple) else DichotomyReport] += 1
        n += 1
    assert n == n_pairs
    assert set(seen) == {DichotomyReport, ValueError, CentralElement,
                         OddHalfExponent}, seen


def test_report_rows_match_the_bit_formula_on_random_rows():
    # contents that no pair has: random bit rows, so that each of the four
    # entries an identity reads is -1, +1 or not +-1 in every combination.
    # dichotomy() reads the table only through its content record, built
    # here with groups of nW and nV even-dimensional slots
    rng = random.Random(23)
    tab = copy.copy(GPCharacterTable(so45_pair()))
    seen = Counter()
    for _ in range(400):
        nW, nV = rng.randrange(4), rng.randrange(1, 4)
        groupW, groupV = (
            lparam.ComponentGroup(tuple(DiscRep(k) for k in range(1, n + 1)))
            for n in (nW, nV)
        )
        width = 1 << nV
        defined = tuple(rng.getrandbits(width) for _ in range(1 << nW))
        minus = tuple(d & rng.getrandbits(width) for d in defined)
        tab._content = lparam._TableContent(defined, minus, groupW, groupV)
        for x in range(1 << nW):
            for y in range(-1, width + 1):
                want = _outcome(dichotomy_by_bits, tab, (defined, minus), x, y)
                assert _outcome(tab.dichotomy, x, y) == want, (defined, x, y)
                seen[want[0] if isinstance(want, tuple) else want] += 1
    # the eight reports and the three errors
    assert len(seen) == 8 + 3, seen


def _rows(tab):
    # the factor table's two bit rows per W-mask, rebuilt from its groups:
    # the content record keeps only what is read off them
    return factor_rows(tab.groupW, tab.groupV)


def _with_rows(tables):
    # each table with its bit rows, as _compare_verify_with_reference takes it
    return ((tab, _rows(tab)) for tab in tables)


def _built(tab):
    # everything the table's content record holds
    c = tab._content
    return c.fullW, c.fullV, c.colD, c.colM, c.rowD, c.rowM, c.verdict, c.reports


def _entries(tab):
    # the bit rows read back as integer entries F[x][y] in {1, -1, 0}
    width = 1 << len(tab.groupV.basis)
    return tuple(
        tuple(
            (-1 if minus >> y & 1 else 1) if defined >> y & 1 else 0
            for y in range(width)
        )
        for defined, minus in zip(*_rows(tab))
    )


def _assert_rows_match_reference(tab, ref):
    defined, minus = _rows(tab)
    assert len(defined) == len(ref) == 1 << len(tab.groupW.basis)
    for d, m in zip(defined, minus):
        assert d >> len(ref[0]) == 0  # no bit beyond the last V-mask
        assert m & ~d == 0  # a -1 entry is a defined entry
    assert _entries(tab) == ref


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_bit_rows_match_the_integer_table(family):
    # every entry, the 0 (non-symplectic) ones included
    max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
    n = 0
    for gp in sweep_pairs(max_dim, max_k):
        _assert_rows_match_reference(
            GPCharacterTable(gp), reference_factor_table(gp)
        )
        n += 1
    assert n == n_pairs


def _synthetic_exponent(sig, rho):
    # odd and negative exponents, -5..5, which no reduced pair has (every
    # reduced e_ij is even): they reach the mod-4 carry and the zeros of
    # odd block sums
    i = sig.k if isinstance(sig, DiscRep) else sig.a
    j = rho.k if isinstance(rho, DiscRep) else rho.a
    return (7 * i - 3 * j) % 11 - 5


@pytest.fixture
def synthetic_exponents(monkeypatch):
    monkeypatch.setattr(lparam, "_pair_exponent", _synthetic_exponent)
    lparam._slot_planes.cache_clear()
    yield _synthetic_exponent
    lparam._slot_planes.cache_clear()  # drop the synthetic planes


def test_bit_rows_match_the_integer_table_on_synthetic_exponents(
    synthetic_exponents,
):
    seen, zeros = set(), 0
    for gp in _criterion5_pairs():
        tab = GPCharacterTable(gp)
        ref = reference_factor_table(gp, synthetic_exponents)
        _assert_rows_match_reference(tab, ref)
        seen.update(
            synthetic_exponents(sig, rho)
            for sig, rho in product(tab.groupW.basis, tab.groupV.basis)
        )
        # entries of symplectic dimensions that are 0 by an odd block sum
        dimW, dimV = (
            _subset_sums([irred_dim(rho) for rho in grp.basis])
            for grp in (tab.groupW, tab.groupV)
        )
        zeros += sum(
            ref[x][y] == 0
            for x in range(len(dimW)) if dimW[x] % 2 == 0
            for y in range(len(dimV)) if dimV[y] % 2 == 0
        )
    assert seen == set(range(-5, 6)) and zeros


def test_reads_follow_the_integer_table_on_synthetic_exponents(
    synthetic_exponents,
):
    # chi and dichotomy on every mask pair: the value read off the
    # reference table, or OddHalfExponent when an entry they read is 0
    raised = read = 0
    for gp in _criterion5_pairs():
        tab = GPCharacterTable(gp)
        F = reference_factor_table(gp, synthetic_exponents)
        fullW, fullV = len(F) - 1, len(F[0]) - 1
        for x, y in product(range(fullW + 1), range(fullV + 1)):
            chi = F[x][fullV] * F[fullW][y]
            factors = (F[fullW ^ x][y], F[x][fullV ^ y])
            reads = [(tab.chi, chi, chi)]
            if y not in (0, fullV):
                want = DichotomyReport(
                    factors[0] * factors[1] == chi, chi, *factors
                )
                reads.append((tab.dichotomy, want, chi * factors[0] * factors[1]))
            for method, want, defined in reads:
                if defined:
                    assert method(x, y) == want, (gp, x, y)
                    read += 1
                else:
                    with pytest.raises(OddHalfExponent):
                        method(x, y)
                    raised += 1
    assert read and raised


def _verify_by_reference(tab, rows):
    # verify() recomputed: the all-pairs oracle over chi_table() and a
    # per-element loop of the bit formula on the rows over every x and
    # non-central y
    table = tab.chi_table()
    full = (1 << len(tab.groupV.basis)) - 1
    loop = [
        (x, y, dichotomy_by_bits(tab, rows, x, y))
        for y in tab.groupV.masks if y not in (0, full)
        for x in tab.groupW.masks
    ]
    failures = [case for case in loop if not case[2].ok]
    return len(table) ** 2 + len(loop), all_pairs_multiplicative(table), failures


def _compare_verify_with_reference(tables):
    # over (table, its bit rows): how many tables raised, were not
    # characters, had failing identities
    seen = {"tables": 0, "raised": 0, "not a character": 0, "failures": 0}
    for tab, rows in tables:
        seen["tables"] += 1
        try:
            want = _verify_by_reference(tab, rows)
        except OddHalfExponent:
            with pytest.raises(OddHalfExponent):
                tab.verify()
            seen["raised"] += 1
            continue
        assert tab.verify() == want, tab.gp
        seen["not a character"] += not want[1]
        seen["failures"] += bool(want[2])
    return seen


def _flipped(tab, rng):
    # a copy of the table with one defined entry F[x][y] negated: in column
    # fullV or row fullW (the rows of the character check) or anywhere, and
    # the flipped rows.  The copy gets a content record of its own, built
    # from the flipped rows, so its factors, verdicts and report rows are
    # built from them too
    d, minus = _rows(tab)
    fullW, fullV = tab._content.fullW, tab._content.fullV
    where = rng.randrange(3)
    if where == 0:
        x, y = rng.choice(tab.groupW.masks), fullV
    else:
        rows = [x for x in range(fullW + 1) if d[x]]
        x = fullW if where == 1 else rng.choice(rows)
        y = rng.choice([y for y in range(fullV + 1) if d[x] >> y & 1])
    flipped = copy.copy(tab)
    minus = list(minus)
    minus[x] ^= 1 << y
    rows = d, tuple(minus)
    flipped._content = lparam._TableContent(*rows, tab.groupW, tab.groupV)
    return flipped, rows


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_verify_matches_the_all_pairs_oracle_and_a_dichotomy_loop(family):
    max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
    tables = map(GPCharacterTable, sweep_pairs(max_dim, max_k))
    seen = _compare_verify_with_reference(_with_rows(tables))
    assert seen == {"tables": n_pairs, "raised": 0, "not a character": 0,
                    "failures": 0}


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_verify_matches_the_reference_on_flipped_entries(family):
    # one entry of each table negated, so that the three checks are compared
    # where they can disagree: on non-characters and failing identities
    max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
    rng = random.Random(max_dim * 100 + max_k)
    tables = (_flipped(GPCharacterTable(gp), rng)
              for gp in sweep_pairs(max_dim, max_k))
    seen = _compare_verify_with_reference(tables)
    assert seen["tables"] == n_pairs and not seen["raised"]
    assert seen["not a character"] and seen["failures"]


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_verify_matches_the_reference_on_synthetic_exponents(
    family, synthetic_exponents
):
    # odd block sums leave entries undefined: verify() raises exactly where
    # chi_table() or the dichotomy loop does
    max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
    tables = map(GPCharacterTable, sweep_pairs(max_dim, max_k))
    seen = _compare_verify_with_reference(_with_rows(tables))
    assert seen["tables"] == n_pairs and seen["raised"]


def _rows_by_loop(gp):
    # a table's (_defined, _minus) built on its own by the mod-4 adder loop,
    # as each table once built them: the reference for the row memo
    groupW, groupV = gp.phiW.group, gp.phiV.group
    planes = [lparam._slot_planes(sig, groupV.basis) for sig in groupW.basis]
    lo, hi = [0], [0]
    for x in range(1, 1 << len(planes)):
        low = x & -x
        a0, a1 = lo[x ^ low], hi[x ^ low]
        b0, b1 = planes[low.bit_length() - 1]
        lo.append(a0 ^ b0)
        hi.append(a1 ^ b1 ^ (a0 & b0))
    evenW, evenV = groupW.even_dims, groupV.even_dims
    defined = [evenV & ~odd if evenW >> x & 1 else 0 for x, odd in enumerate(lo)]
    return tuple(defined), tuple(ok & two for ok, two in zip(defined, hi))


def _content(gp):
    # what a table's content record is keyed on: the W-slot planes, both
    # groups' even_dims and the size of the V-basis
    groupW, groupV = gp.phiW.group, gp.phiV.group
    planes = tuple(lparam._slot_planes(sig, groupV.basis) for sig in groupW.basis)
    return planes, groupW.even_dims, groupV.even_dims, len(groupV.basis)


def _sweep_units(max_dim, max_k):
    # the pairs of sweep_pairs(max_dim, max_k), one list per (dw, dv) unit
    for dv in range(1, max_dim + 1):
        for dw in range(dv - 1, -1, -2):
            yield list(lparam.reduced_gp_pairs(dw, dv, max_k))


# distinct table contents over the whole family, and in its largest unit
DISTINCT_CONTENTS = {"criterion-5": (383, 50), "chi-narrow": (39, 18)}


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_tables_share_rows_by_content(family):
    # each unit's tables built twice: with the memo cold (as the family left
    # it) and warm (every content already built). Every table's rows equal
    # its own loop-built rows, every verify() the reference, and the tables
    # of one content share one content record
    max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
    distinct, largest = DISTINCT_CONTENTS[family]
    contents, n, biggest = set(), 0, 0
    for pairs in _sweep_units(max_dim, max_k):
        assert not lparam._CONTENTS  # emptied when the unit started
        shared = {}
        for warm in (False, True):
            before = len(lparam._CONTENTS)
            tables = [GPCharacterTable(gp) for gp in pairs]
            after = len(lparam._CONTENTS)
            for gp, tab in zip(pairs, tables):
                assert _rows(tab) == _rows_by_loop(gp), gp
                first = shared.setdefault(_content(gp), tab._content)
                assert first is tab._content
            assert _compare_verify_with_reference(_with_rows(tables)) == {
                "tables": len(pairs), "raised": 0, "not a character": 0,
                "failures": 0,
            }
            # one record per content on the cold pass, none on the warm one
            assert after - before == (0 if warm else len(shared))
        contents.update(shared)
        biggest = max(biggest, len(shared))
        n += len(pairs)
    assert n == n_pairs
    assert (len(contents), biggest) == (distinct, largest)


# the content records built by a sweep, summed over its units: one per
# distinct content of each unit
UNIT_CONTENTS = {"criterion-5": 395, "chi-narrow": 43}


def test_memos_hold_one_unit_after_a_sweep(capsys, monkeypatch):
    # `verify dichotomy` (run in this process) builds each content record
    # once per distinct content of each unit, and the one content memo,
    # emptied when a unit starts, then holds at most the contents of the
    # largest unit.  Every record is built whole: its verdict and a report
    # row for every x, the rows whose F[x][fullV] is not +-1 one object
    built = []
    init = lparam._TableContent.__init__

    def counted(content, *args):
        init(content, *args)
        built.append((content, factor_rows(*args[2:])))

    monkeypatch.setattr(lparam._TableContent, "__init__", counted)
    for family, (max_dim, max_k, _) in SWEEP_FAMILIES.items():
        per_unit = sum(len({_content(gp) for gp in pairs})
                       for pairs in _sweep_units(max_dim, max_k))
        assert per_unit == UNIT_CONTENTS[family]
        built.clear()
        assert cli.run(["--json", "verify", "dichotomy",
                        "--max-dim", str(max_dim), "--max-k", str(max_k),
                        "--jobs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "PASS"
        assert len(built) == per_unit, family
        largest = DISTINCT_CONTENTS[family][1]
        assert 0 < len(lparam._CONTENTS) <= largest
        assert ({id(c) for c in lparam._CONTENTS.values()}
                <= {id(c) for c, _ in built})
        shared = 0
        for content, (rows, _) in built:
            defined, is_character, ys, checked = content.verdict
            assert defined and is_character and checked > 0
            assert len(content.reports) == content.fullW + 1
            undefined = [row for x, row in enumerate(content.reports)
                         if not rows[x] >> content.fullV & 1]
            assert all(row is undefined[0] for row in undefined)
            assert set(undefined[:1]) <= {bytes([lparam._UNDEFINED])
                                           * (content.fullV + 1)}
            shared += len(undefined) > 1
        assert shared, family


def test_reduced_gp_pairs_share_the_v_parameters():
    # W = (2, 0), V = (4, 1): phiW outer, phiV inner, each V parameter one
    # object in every pair it enters
    paramsW = enumerate_reduced(QuadSpace(2, 0), 9)
    paramsV = enumerate_reduced(QuadSpace(4, 1), 9)
    pairs = list(lparam.reduced_gp_pairs(2, 5, 9))
    assert [(gp.phiW.rep, gp.phiV.rep) for gp in pairs] == [
        (w.rep, v.rep) for w in paramsW for v in paramsV
    ]
    assert all(gp.pair.W == QuadSpace(2, 0) and gp.pair.V == QuadSpace(4, 1)
               for gp in pairs)
    byV = {}
    for gp in pairs:
        assert byV.setdefault(gp.phiV.rep, gp.phiV) is gp.phiV
    assert len(paramsW) > 1 and len(byV) == len(paramsV) > 1


def test_reduced_gp_pairs_validate_no_parameter(monkeypatch):
    # the enumerated parameters are valid by construction (the proof in
    # enumerate_reduced's docstring), so one sweep unit validates none;
    # the scan of test_enumerate_reduced_lists_the_scan_in_order validates
    # every subset, which is the differential check of that proof
    calls = []
    checked = lparam.validate

    def counted(rep, V):
        calls.append(V)
        return checked(rep, V)

    monkeypatch.setattr(lparam, "validate", counted)
    pairs = list(lparam.reduced_gp_pairs(2, 5, 9))
    assert len(pairs) > 1 and calls == []


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_reduced_gp_pairs_equal_the_checked_constructor(family):
    # the pairs share one admissibility check per (dw, dv), and each equals
    # the pair make_gp_pair checks on its own: same W, V, r and d_sign
    max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
    n = 0
    for gp in sweep_pairs(max_dim, max_k):
        assert gp == make_gp_pair(gp.phiW, gp.phiV), gp
        n += 1
    assert n == n_pairs


# one admissibility check per (dw, dv) unit of the χ sweep
ADMISSIBILITY_CHECKS = {"criterion-5": 30, "chi-narrow": 9}


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_sweep_checks_admissibility_once_per_unit(family, monkeypatch):
    # is_admissible_pair wrapped in every module that holds it, and
    # make_gp_pair where the sweep would look it up, as the traced benchmark
    # wraps them
    max_dim, max_k, _ = SWEEP_FAMILIES[family]
    calls = {"is_admissible_pair": 0, "make_gp_pair": 0}
    for name, home in (("is_admissible_pair", quadspace),
                       ("make_gp_pair", lparam)):
        target = getattr(home, name)

        def counted(*args, _name=name, _fn=target, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (cli, lparam, quadspace):
            if getattr(mod, name, None) is target:
                monkeypatch.setattr(mod, name, counted)
    args = cli._build_parser().parse_args(
        ["verify", "dichotomy", "--max-dim", str(max_dim), "--max-k", str(max_k)]
    )
    cases = cli._sweep_cases(args)
    results = [cli._dichotomy_unit(case) for case in cases]
    assert not any(r["counterexamples"] for r in results)
    assert len(cases) == ADMISSIBILITY_CHECKS[family]
    assert calls == {"is_admissible_pair": len(cases), "make_gp_pair": 0}


@pytest.mark.parametrize("dw, dv", [(2, 4), (3, 3), (1, 5), (0, 2)])
def test_reduced_gp_pairs_refuse_an_even_dimension_gap(dw, dv):
    with pytest.raises(InvalidParameter, match="one even and one odd"):
        next(lparam.reduced_gp_pairs(dw, dv, 9))


def _scanned_spaces():
    # every space of dimension <= 14 with max_k <= 13, and one space per
    # dimension (p = q or q + 1) with the large pools of max_k 25 and 31:
    # the enumeration reads V only through its dimension, so the signature
    # is covered by the small pools and the order by the large ones
    for d in range(15):
        for p in range(d + 1):
            for max_k in range(1, 14):
                yield QuadSpace(p, d - p), max_k
        for max_k in (25, 31):
            yield QuadSpace((d + 1) // 2, d // 2), max_k


def test_enumerate_reduced_lists_the_scan_in_order():
    n = 0
    for V, max_k in _scanned_spaces():
        listed = enumerate_reduced(V, max_k)
        assert listed == enumerate_reduced_by_scan(V, max_k), (V, max_k)
        assert all(phi.target is V for phi in listed)
        n += len(listed)
    assert n == 57_638


class TestPairExponentMemo:
    def test_entries_match_direct_tensor_on_family(self):
        lparam._pair_exponent.cache_clear()
        lparam._slot_planes.cache_clear()
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
            lparam._slot_planes.cache_clear()
            memo = gp.phiV.group._planes_by_slot
            memo.clear()
            cold = GPCharacterTable(gp)
            # the cold build leaves each W-slot's planes in the V group
            assert list(memo) == list(gp.phiW.group.basis)
            left = dict(memo)
            exponents = lparam._pair_exponent.cache_info()
            planes = lparam._slot_planes.cache_info()
            warm = GPCharacterTable(gp)
            # the warm build computes no new exponent and builds or looks up
            # no plane in the process memo: it reads the cold build's planes
            # through the V group
            assert lparam._pair_exponent.cache_info() == exponents
            assert lparam._slot_planes.cache_info() == planes
            assert memo.keys() == left.keys()
            assert all(memo[sig] is left[sig] for sig in left)
            assert _built(warm) == _built(cold)
            assert warm.verify() == cold.verify()


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
        for gp in sweep_pairs(max_dim, max_k):
            warm = GPCharacterTable(gp)
            cold_gp = make_gp_pair(_cold_copy(gp.phiW), _cold_copy(gp.phiV))
            assert "group" not in vars(cold_gp.phiW)  # nothing cached yet
            cold = GPCharacterTable(cold_gp)
            assert _built(warm) == _built(cold), gp
            assert warm.verify() == cold.verify(), gp
            n += 1
        assert n == n_pairs

    def test_cached_group_data_match_a_fresh_computation(self, family):
        max_dim, max_k, _ = SWEEP_FAMILIES[family]
        seen = set()
        for gp in sweep_pairs(max_dim, max_k):
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
                assert grp.even_dims == sum(
                    1 << m for m, d in enumerate(sums) if d % 2 == 0
                )
                assert grp.constraint == any(d % 2 for d in dims)
                # the elements: an even number of odd-dimensional -1 slots
                want = [m for m in subsets
                        if sum(d % 2 for i, d in enumerate(dims) if m >> i & 1) % 2 == 0]
                assert grp.masks == tuple(want)
                assert len(grp.generators) == grp.rank
                assert _span(grp.generators) == set(want)
        assert seen

    def test_cached_masks_are_immutable_and_shared(self, family):
        max_dim, max_k, _ = SWEEP_FAMILIES[family]
        for gp in sweep_pairs(max_dim, max_k):
            tab = GPCharacterTable(gp)
            assert tab.groupW is gp.phiW.group and tab.groupV is gp.phiV.group
            for grp in (tab.groupW, tab.groupV):
                for data in (grp.masks, grp.generators):
                    assert type(data) is tuple
                for name in ("masks", "even_dims", "generators"):
                    with pytest.raises(AttributeError,
                                       match="cannot assign to field"):
                        setattr(grp, name, ())
            for phi in (gp.phiW, gp.phiV):
                for name in ("group", "reduced"):
                    with pytest.raises(AttributeError,
                                       match="cannot assign to field"):
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
        # the hash of the field tuple
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
