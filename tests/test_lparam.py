import json
import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from gp_reference import (
    ReferenceTable,
    dichotomy_identity_check,
    eigenspace_split,
    endoscopic_split,
    enumerate_reduced_by_scan,
    factor_rows,
    gp_character,
    odd_exponent,
    reference_factor_table,
    sweep_pairs,
    sweep_units,
)
from gpkit import cli, lparam, quadspace
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
from gpkit.weilrep import CharRep, DiscRep, WeilRep


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

    def test_non_reduced_pair_is_refused(self):
        # D_2 twice on the W side: a valid parameter, but not reduced
        phiW = validate(WeilRep([(D(2), 2)]), QuadSpace(4, 0))
        phiV = validate(WeilRep([D(1), D(3)]), QuadSpace(5, 0))
        with pytest.raises(NotReduced, match="need reduced parameters"):
            GPCharacterTable(make_gp_pair(phiW, phiV))

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

# the families over which the table's reads are compared with the
# reference's: the two sweep families and `--max-dim 8 --max-k 11`
FAMILIES = dict(SWEEP_FAMILIES, **{"8/11": (8, 11, 2_394)})

# the reports dichotomy can give (the four ok ones on a true table) and the
# errors it raises
REPORTS = {DichotomyReport(f1 * f2 == chi, chi, f1, f2)
           for f1, f2, chi in product((1, -1), repeat=3)}
OK_REPORTS = {r for r in REPORTS if r.ok}
ERRORS = {ValueError, CentralElement, OddHalfExponent}


def _outcome(read, *args):
    # ("ok", what the read returns), or the type and message of its error
    try:
        return "ok", read(*args)
    except (ValueError, OddHalfExponent) as exc:
        return type(exc), str(exc)


def _grid(read, xs, ys):
    # the outcomes of read on every (x, y); the errors are caught inline, as
    # the family walks make about a million reads
    out = []
    for x in xs:
        for y in ys:
            try:
                out.append(("ok", read(x, y)))
            except (ValueError, OddHalfExponent) as exc:
                out.append((type(exc), str(exc)))
    return out


def _fulls(table):
    return ((1 << len(table.groupW.basis)) - 1,
            (1 << len(table.groupV.basis)) - 1)


# the reads compared, each a function of a table or of its reference:
def _chi(table):
    # chi on every mask pair, elements or not
    fullW, fullV = _fulls(table)
    return _grid(table.chi, range(fullW + 1), range(fullV + 1))


def _dichotomy(table):
    # dichotomy on every x and y from -1 to full + 1: the reports, and the
    # errors with their precedence (a mask out of range, then a central y,
    # then an entry that is not +-1); it reads every entry of the table
    fullW, fullV = _fulls(table)
    return _grid(table.dichotomy, range(-1, fullW + 2), range(-1, fullV + 2))


def _verify(table):
    return [_outcome(table.verify)]


def _entries(table):
    # chi and dichotomy: every entry of the factor table, as the public
    # reads give it
    return _chi(table) + _dichotomy(table)


def _reference(reads):
    # want(gp, rows): the reads of ReferenceTable(gp, rows).  The reference
    # is a function of the rows, fullV and the groups' elements, so each
    # distinct input is read once per call of _reference
    memo = {}

    def want(gp, rows):
        groupW, groupV = gp.phiW.group, gp.phiV.group
        key = rows, len(groupV.basis), groupW.masks, groupV.masks
        if key not in memo:
            memo[key] = reads(ReferenceTable(gp, rows))
        return memo[key]
    return want


def _walk(family, rows_of, reads):
    # on every pair of the family, the table's reads equal the reference's
    # on the rows that rows_of gives (a fixture of conftest.py: unmutated or
    # a seam); returns (pair, the reference's reads).  Every pair is
    # enumerated before any table is built, so that the tables of the whole
    # family share one content memo, across sweep units too
    max_dim, max_k, n_pairs = FAMILIES[family]
    pairs = list(sweep_pairs(max_dim, max_k))
    assert len(pairs) == n_pairs
    want = _reference(reads)
    walk = [(gp, want(gp, rows_of(gp))) for gp in pairs]
    for gp, outcomes in walk:
        assert reads(GPCharacterTable(gp)) == outcomes, gp
    return walk


def _kinds(walk):
    # the values returned and the types of error raised in a walk's reads
    distinct = {id(outcomes): outcomes for _, outcomes in walk}.values()
    return {value if tag == "ok" else tag
            for outcomes in distinct for tag, value in outcomes}


def _verdicts(walk):
    # the kinds of verdict of verify in a walk of _verify
    kinds = set()
    for _, [(tag, verdict)] in walk:
        if tag != "ok":
            kinds.add("raised")
            continue
        _, is_character, failures = verdict
        broken = set() if is_character else {"not a character"}
        kinds |= (broken | ({"failures"} if failures else set())) or {"passed"}
    return kinds


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_bit_rows_match_the_integer_table(family, unmutated):
    # chi reads the table's bit rows; the reference reads those of the
    # integer table, its 0 (non-symplectic) entries included
    walk = _walk(family, unmutated, _chi)
    assert _kinds(walk) == {1, -1, OddHalfExponent}


def test_bit_rows_match_the_integer_table_on_synthetic_exponents(exponent_seam):
    # odd and negative exponents, every one of -5..5 on the family's slot
    # pairs: the mod-4 carries, and entries of symplectic dimensions that
    # are 0 by an odd block sum
    walk = _walk("criterion-5", exponent_seam, _chi)
    assert _kinds(walk) == {1, -1, OddHalfExponent}
    seen, zeros = set(), 0
    for gp, _ in walk:
        basisW, basisV = gp.phiW.group.basis, gp.phiV.group.basis
        seen.update(odd_exponent(sig, rho) for sig in basisW for rho in basisV)
        plain = reference_factor_table(gp)
        odd = reference_factor_table(gp, odd_exponent)
        zeros += sum(f == 0 != p for row, prow in zip(odd, plain)
                     for f, p in zip(row, prow))
    assert seen == set(range(-5, 6)) and zeros


def test_reads_follow_the_integer_table_on_synthetic_exponents(exponent_seam):
    # dichotomy: the report read off the reference table, or OddHalfExponent
    # where an entry it reads is 0
    walk = _walk("criterion-5", exponent_seam, _dichotomy)
    assert _kinds(walk) == OK_REPORTS | ERRORS


@pytest.mark.parametrize("family", FAMILIES)
def test_report_rows_match_the_bit_formula(family, unmutated):
    # dichotomy's reports against the four entries the reference reads off
    # the rows on each call
    assert _kinds(_walk(family, unmutated, _dichotomy)) == OK_REPORTS | ERRORS


def test_report_rows_match_the_bit_formula_on_random_rows(row_seam):
    # flipped rows, so that the four entries an identity reads are +1 and
    # -1 in every combination: the eight reports and the three errors, and
    # chi read off the flipped factors
    walk = _walk("criterion-5", row_seam, _entries)
    assert _kinds(walk) == REPORTS | ERRORS | {1, -1}


def test_dichotomy_errors_keep_their_precedence(unmutated):
    # the first pair of each basis-size shape up to dims 6, k <= 7 (empty,
    # one-slot and larger bases on either side), read by dichotomy on every
    # x and y from -1 to full + 1: the errors where several apply come in
    # the reference's order
    shapes = {}
    for gp in sweep_pairs(6, 7):
        shapes.setdefault((len(gp.phiW.group.basis), len(gp.phiV.group.basis)), gp)
    assert len(shapes) >= 8
    want = _reference(_dichotomy)
    walk = [(gp, want(gp, unmutated(gp))) for gp in shapes.values()]
    for gp, outcomes in walk:
        assert _dichotomy(GPCharacterTable(gp)) == outcomes, gp
    assert _kinds(walk) >= ERRORS


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_matches_the_all_pairs_oracle_and_a_dichotomy_loop(family, unmutated):
    # the reference's verify: all_pairs_multiplicative on chi over the
    # elements and a loop of the identity over every x and non-central y
    assert _verdicts(_walk(family, unmutated, _verify)) == {"passed"}


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_matches_the_reference_on_flipped_entries(family, row_seam):
    # where the checks can disagree: non-characters and failing identities
    # (the sweep's records of them: test_cli's
    # test_broken_identity_gives_failure_records)
    walk = _walk(family, row_seam, _verify)
    assert _verdicts(walk) == {"passed", "not a character", "failures"}


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_matches_the_reference_on_synthetic_exponents(family, exponent_seam):
    # undefined entries: verify raises exactly where the reference does
    assert _verdicts(_walk(family, exponent_seam, _verify)) == {"passed", "raised"}


# the content records built by a sweep, summed over its units (one per
# distinct content of each unit), and those of its largest and of its last
# unit, which the content memo holds after the sweep
RECORDS_BUILT = {"criterion-5": (395, 50, 5), "chi-narrow": (43, 18, 18)}


def _reads(table):
    return _entries(table) + _verify(table)


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_sweep_units_read_as_the_reference_cold_and_warm(family, factor_rows_calls):
    # each unit walked as `verify dichotomy` walks it, from the content memo
    # that listing the unit emptied.  Each pair's table is built cold, from
    # its parameters read afresh from their JSON, once per parameter and
    # unit, and reads as the reference on the rows of the exponents of the
    # tensor products taken directly; the enumerated pair's table, built
    # warm, takes a record built before and verifies alike.  Both read
    # their parameters' groups, whose data are immutable tuples.  The cold
    # tables build one content record per distinct content of the unit
    max_dim, max_k, n_pairs = SWEEP_FAMILIES[family]
    want = _reference(_reads)
    per_unit, n = [], 0
    for pairs in sweep_units(max_dim, max_k):
        assert not lparam._CONTENTS
        before, copies = len(factor_rows_calls), {}
        for gp in pairs:
            new = [phi for phi in (gp.phiW, gp.phiV) if phi not in copies]
            copies.update((phi, _cold_copy(phi)) for phi in new)
            cold = make_gp_pair(copies[gp.phiW], copies[gp.phiV])
            table = GPCharacterTable(cold)
            outcomes = want(gp, factor_rows(gp))
            assert _reads(table) == outcomes, gp
            built = len(factor_rows_calls)
            warm = GPCharacterTable(gp)
            assert _verify(warm) == outcomes[-1:], gp
            assert len(factor_rows_calls) == built
            for tab, pair in ((table, cold), (warm, gp)):
                assert tab.groupW is pair.phiW.group and tab.groupV is pair.phiV.group
            for phi in new:
                _assert_frozen(phi)
                _assert_frozen(copies[phi])
        per_unit.append(len(factor_rows_calls) - before)
        n += len(pairs)
    assert n == n_pairs
    assert (sum(per_unit), max(per_unit)) == RECORDS_BUILT[family][:2]


def _cold_copy(phi):
    # a parameter validated afresh from its JSON, sharing no object with phi
    # and holding no group yet
    copy = param_from_json(json.loads(json.dumps(param_to_json(phi))))
    assert "group" not in vars(copy)
    return copy


def _assert_frozen(phi):
    # the group's cached data are tuples, and no cached field of the group
    # or the parameter can be assigned
    grp = phi.group
    assert type(grp.masks) is tuple and type(grp.generators) is tuple
    for obj, names in ((grp, ("masks", "even_dims", "generators")),
                       (phi, ("group", "reduced"))):
        for name in names:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(obj, name, None)


def test_memos_hold_one_unit_after_a_sweep(factor_rows_calls, capsys):
    # `verify dichotomy`, run in this process, builds one content record
    # per distinct content of each unit; the one memo, of these records, is
    # emptied when a unit starts, so after the sweep it holds the last
    # unit's records.  In a record the rows of every x with F[x][fullV] not
    # +-1 are one object
    memo = lparam._CONTENTS
    for family, (max_dim, max_k, _) in SWEEP_FAMILIES.items():
        factor_rows_calls.clear()
        assert cli.run(["--json", "verify", "dichotomy", "--max-dim",
                        str(max_dim), "--max-k", str(max_k), "--jobs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "PASS"
        total, _, last = RECORDS_BUILT[family]
        assert (len(factor_rows_calls), len(memo)) == (total, last), family
    assert any(len(set(map(id, c.reports))) < len(c.reports) for c in memo.values())
    next(lparam.reduced_gp_pairs(0, 1, 25))
    assert not memo


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


def test_reduced_gp_pairs_validate_no_parameter(count_calls):
    # the enumerated parameters are valid by construction (the proof in
    # enumerate_reduced's docstring), so one sweep unit validates none;
    # the scan of test_enumerate_reduced_lists_the_scan_in_order validates
    # every subset, which is the differential check of that proof
    calls = count_calls(lparam, "validate")
    pairs = list(lparam.reduced_gp_pairs(2, 5, 9))
    assert len(pairs) > 1 and calls == {"validate": 0}


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
def test_sweep_checks_admissibility_once_per_unit(family, count_calls, capsys):
    # is_admissible_pair and make_gp_pair wrapped in every module that holds
    # them, as the traced benchmark wraps them
    max_dim, max_k, _ = SWEEP_FAMILIES[family]
    count_calls(quadspace, "is_admissible_pair")
    calls = count_calls(lparam, "make_gp_pair")
    assert cli.run(["--json", "verify", "dichotomy", "--max-dim", str(max_dim),
                    "--max-k", str(max_k)]) == 0
    assert json.loads(capsys.readouterr().out)["counterexamples"] == []
    assert calls == {"is_admissible_pair": ADMISSIBILITY_CHECKS[family],
                     "make_gp_pair": 0}


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


def _listed_spaces():
    # the listing test's spaces, then one space per dimension up to 64 at
    # the least bound whose pools fill it and the next: the listing reads V
    # only through its dimension
    yield from _scanned_spaces()
    for d in range(15, 65):
        for max_k in (d, d + 1):
            yield QuadSpace((d + 1) // 2, d // 2), max_k


def test_enumerated_parameters_come_with_their_reducedness_and_group(cold):
    # enumerate_reduced sets both cached fields of every parameter it lists,
    # and they equal what is_reduced and component_group compute; each group
    # is the memo's one group of its basis
    cold()
    n, bases = 0, set()
    for V, max_k in _listed_spaces():
        for phi in enumerate_reduced(V, max_k):
            assert vars(phi)["reduced"] is True and is_reduced(phi), phi
            group = vars(phi)["group"]
            assert group == component_group(phi), phi
            assert lparam._GROUPS[group.basis] is group
            bases.add(group.basis)
            n += 1
    assert n == 57_638 + 2_050
    assert len(lparam._GROUPS) == len(bases)


def test_one_basis_is_one_group_across_units_and_calls(cold):
    # the V parameters of every unit with dim V = 5, listed again on
    # another space of that dimension and at a larger bound, all read one
    # group per basis; so do the W parameters of the units (2, 5), (2, 7)
    cold()
    groups = {}

    def same(phi):
        assert groups.setdefault(phi.rep, phi.group) is phi.group, phi

    for dw, dv in ((0, 5), (2, 5), (4, 5), (2, 7)):
        for gp in lparam.reduced_gp_pairs(dw, dv, 9):
            same(gp.phiW)
            same(gp.phiV)
    for V, max_k in ((QuadSpace(3, 2), 9), (QuadSpace(5, 0), 9),
                     (QuadSpace(4, 1), 11)):
        listed = enumerate_reduced(V, max_k)
        assert sum(phi.rep in groups for phi in listed) >= 10
        for phi in listed:
            same(phi)
    assert len(lparam._GROUPS) == len(groups)


def test_pair_exponents_follow_the_closed_form():
    # the closed form of the pair exponents: with k odd and l even,
    # e(D_k, D_l) = 2 max(k, l) + 2 and e(D_k, chi) = k + 1 (mod 4), since
    # D_k x D_l = D_{k+l} + D_{|k-l|}, D_k x chi = D_k and eps(D_m) = i^{m+1};
    # in both orders, over the pools of max_k 199
    n = 0
    for sig in lparam._reduced_pool(True, 199):
        for rho in lparam._reduced_pool(False, 199):
            k = sig.k
            want = k + 1 if isinstance(rho, CharRep) else 2 * max(k, rho.k) + 2
            for pair in ((sig, rho), (rho, sig)):
                assert (lparam._pair_exponent(*pair) - want) % 4 == 0, pair
            n += 1
    assert n == 10_100


def test_generators_are_the_greedy_basis():
    # every basis of length <= 10, by its odd-dimensional slots (a character
    # on each set bit of `odd`, D_1 elsewhere), against the greedy basis:
    # each mask in ascending order unless the earlier ones already span it
    for n in range(11):
        for odd in range(1 << n):
            grp = lparam.ComponentGroup(
                tuple(C(0, i) if odd >> i & 1 else D(1, i) for i in range(n)))
            span, greedy = {0}, []
            for m in grp.masks:
                if m not in span:
                    greedy.append(m)
                    span |= {s ^ m for s in span}
            assert grp.generators == tuple(greedy), (n, odd)


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
class TestPerParameterCaches:
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
        assert seen


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


def test_enumerate_reduced_refuses_a_negative_bound():
    # an empty pool once gave the parameters of max_k = 0
    for V in (QuadSpace(0, 0), QuadSpace(1, 0), QuadSpace(2, 1)):
        with pytest.raises(ValueError, match="max_k must be non-negative"):
            enumerate_reduced(V, -1)
        enumerate_reduced(V, 0)


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
