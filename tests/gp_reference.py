"""Direct evaluation of χ_φ and the dichotomy identity: the test oracle.

This follows the Gross–Prasad definition step by step (Gross–Prasad, Canad.
J. Math. 44 (1992)): split each parameter into the ±1 eigenspaces of the
component element, form the tensor products of the pieces with the partner
parameter, and read the symplectic root numbers off the exact ε table.  The
library's :class:`gpkit.lparam.GPCharacterTable` evaluates the same values
from one mask-indexed factor table; the tests compare the two paths over
whole families of pairs.  :func:`reference_factor_table` is that table's
earlier integer form, one ±1/0 entry per mask pair, kept to check the
library's bit rows entry by entry; :func:`factor_rows` rebuilds those bit
rows, which a table's content record does not keep;
:func:`dichotomy_by_bits` reads one identity off them, as
:meth:`GPCharacterTable.dichotomy` did per call before it read the report
rows of the table's content; and
:func:`all_pairs_multiplicative` is
the quadratic check that :meth:`GPCharacterTable.verify` certifies at
generator cost.  :func:`enumerate_reduced_by_scan` is the parameter
enumeration by a scan of every subset of the pool, which
:func:`gpkit.lparam.enumerate_reduced` replaces with a direct listing.

The module name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from gpkit.epsilon import eps_half
from gpkit.lparam import (
    CentralElement,
    DichotomyReport,
    GPPair,
    LParameter,
    NotReduced,
    OddHalfExponent,
    _factor_rows,
    _reduced_pool,
    _slot_planes,
    component_group,
    is_reduced,
    reduced_gp_pairs,
    validate,
)
from gpkit.quadspace import InvariantViolation, QuadSpace
from gpkit.weilrep import IrredRep, WeilRep, irred_dim, tensor


@cache
def direct_exponent(sig: IrredRep, rho: IrredRep) -> int:
    """The exponent e of ε(σ ⊗ ρ) = i^e, from the tensor product directly."""
    return eps_half(tensor(WeilRep([sig]), WeilRep([rho]))).e


def _subset_sums(values) -> list[int]:
    """``out[m]`` = Σ values[i] over the set bits i of m."""
    out = [0]
    for i, v in enumerate(values):
        out += [s + v for s in out]
    return out


def reference_factor_table(gp: GPPair, exponent=direct_exponent):
    """The factor table F[x][y] of :class:`gpkit.lparam.GPCharacterTable` as
    integers, one per pair of W-mask x and V-mask y (every subset, not only
    the group elements): 0 on a non-symplectic block (dim σ_x or dim ρ_y odd,
    or the block sum E(x, y) of the exponents ``exponent(σ_i, ρ_j)`` odd),
    and otherwise (−1)^{E(x, y)/2}.

    The block sums are built row by row, E(x, ·) = E(x ⊕ low, ·) + the
    subset sums of slot low's exponent row, with low the lowest set bit of x.
    """
    basisW = component_group(gp.phiW).basis
    basisV = component_group(gp.phiV).basis
    dimW = _subset_sums([irred_dim(sig) for sig in basisW])
    dimV = _subset_sums([irred_dim(rho) for rho in basisV])
    rows = [_subset_sums([exponent(sig, rho) for rho in basisV])
            for sig in basisW]
    block = [[0] * len(dimV)]
    for x in range(1, len(dimW)):
        low = x & -x
        prev, row = block[x ^ low], rows[low.bit_length() - 1]
        block.append([p + r for p, r in zip(prev, row)])
    return tuple(
        tuple(
            0 if dimW[x] % 2 or b % 2 or e % 2 else 1 - (e & 2)
            for b, e in zip(dimV, block[x])
        )
        for x in range(len(dimW))
    )


def factor_rows(groupW, groupV) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(``defined``, ``minus``): the bit rows of the factor table of the
    tables with component groups ``groupW`` and ``groupV``, rebuilt by
    :func:`gpkit.lparam._factor_rows` from the W-slot planes, as the first
    table of a content builds them for its content record."""
    planes = tuple(_slot_planes(sig, groupV.basis) for sig in groupW.basis)
    return _factor_rows(planes, groupW.even_dims, groupV.even_dims)


def dichotomy_by_bits(tab, rows, x: int, y: int) -> DichotomyReport:
    """The report of ``tab.dichotomy(x, y)``, read bit by bit off ``rows``,
    the bit rows (``defined``, ``minus``) that the table's content was built
    from (:func:`factor_rows`): the four entries F[xc][y], F[x][fullV ⊕ y],
    F[x][fullV] and F[fullW][y], xc = fullW ⊕ x, with the same errors in the
    same order (range, then central element, then an entry that is not
    ±1)."""
    d, m = rows
    fullW, fullV = tab._content.fullW, tab._content.fullV
    if not (0 <= x <= fullW and 0 <= y <= fullV):
        raise ValueError("masks have bits outside the component-group bases")
    if y in (0, fullV):
        raise CentralElement("s_V lies in {identity, all-(-1)}")
    xc, yc = fullW ^ x, fullV ^ y
    if not d[xc] >> y & d[x] >> yc & d[x] >> fullV & d[fullW] >> y & 1:
        raise OddHalfExponent("non-symplectic tensor block in χ")
    f1 = -1 if m[xc] >> y & 1 else 1
    f2 = -1 if m[x] >> yc & 1 else 1
    chi = -1 if (m[x] >> fullV ^ m[fullW] >> y) & 1 else 1
    return DichotomyReport(f1 * f2 == chi, chi, f1, f2)


def enumerate_reduced_by_scan(V: QuadSpace, max_k: int) -> list[LParameter]:
    """The reduced parameters of :func:`gpkit.lparam.enumerate_reduced`, by
    a scan: every subset of the pool with at most ``want`` pieces, in the
    order of ``combinations``, kept when its dimension is ``want``."""
    pool = _reduced_pool(bool(V.dim % 2), max_k)
    want = V.dim - 1 if V.dim % 2 else V.dim
    out = []
    # every constituent has dimension ≥ 1, so no subset larger than ``want``
    for r in range(min(len(pool), want) + 1):
        for sub in combinations(pool, r):
            if sum(irred_dim(x) for x in sub) == want:
                out.append(validate(WeilRep(sub), V))
    return out


def sweep_pairs(max_dim: int, max_k: int):
    """The pairs of ``verify dichotomy --max-dim max_dim --max-k max_k``:
    :func:`gpkit.lparam.reduced_gp_pairs` of every dimension pair
    dw < dv ≤ max_dim with dv − dw odd."""
    for dv in range(1, max_dim + 1):
        for dw in range(dv - 1, -1, -2):
            yield from reduced_gp_pairs(dw, dv, max_k)


def all_pairs_multiplicative(table: dict) -> bool:
    """Whether a χ table keyed by mask pairs (x, y), as
    :meth:`GPCharacterTable.chi_table` gives it, is ±1-valued with
    χ(s·t) = χ(s)·χ(t) for every pair of elements s, t: all
    |𝒮_W × 𝒮_V|² product identities, one by one."""
    return all(v in (1, -1) for v in table.values()) and all(
        table[(x1 ^ x2, y1 ^ y2)] == v1 * v2
        for (x1, y1), v1 in table.items()
        for (x2, y2), v2 in table.items()
    )


def eps_symplectic(A: WeilRep | IrredRep) -> int:
    """ε(1/2, A, ψ) asserted real, returned as ±1 (symplectic-type inputs)."""
    return eps_half(A).as_sign()


@cache
def eigenspace_split(phi: LParameter, mask: int) -> tuple[WeilRep, WeilRep]:
    """(plus, minus) eigenspace on M of the component element with minus-set
    ``mask``; reduced parameters only.  Memoised: the family tests split
    each (parameter, mask) many times."""
    if not is_reduced(phi):
        raise NotReduced(f"{phi.rep!r} has non-O-type or repeated constituents")
    grp = component_group(phi)
    if not 0 <= mask < 1 << len(grp.basis):
        raise ValueError("mask has bits outside the component-group basis")
    signed = list(zip(grp.basis, grp.signs_of(mask)))
    plus = WeilRep(rho for rho, sign in signed if sign == 1)
    minus = WeilRep(rho for rho, sign in signed if sign == -1)
    # the constraint Π ε_i = 1 over odd-dimensional i: det s = 1
    if minus.dim % 2:
        raise ValueError("component element violates the group constraint")
    if mask not in grp.masks:
        raise InvariantViolation("an element of even eigenspace dimension is "
                                 "missing from the group's masks")
    return plus, minus


def _det_minus_id_power(space_dim: int, half_of: int) -> int:
    """det(−Id)^{half_of/2} on a ``space_dim``-dimensional piece, as ±1."""
    if half_of % 2:
        raise OddHalfExponent(f"exponent {half_of}/2 is not an integer")
    return -1 if (space_dim * (half_of // 2)) % 2 else 1


@cache
def _chi_one_side(minus: WeilRep, other: WeilRep) -> int:
    """det(−Id_{minus})^{dim other/2} · det(−Id_{other})^{dim minus/2} · ε(minus ⊗ other)."""
    pref = _det_minus_id_power(minus.dim, other.dim)
    pref *= _det_minus_id_power(other.dim, minus.dim)
    return pref * eps_symplectic(tensor(minus, other))


def gp_character(gp: GPPair, x: int, y: int) -> int:
    """χ_φ(s_W, s_V) = χ^V_{φ_W}(s_W) · χ^W_{φ_V}(s_V), exactly ±1, where x
    and y are the minus-set masks of s_W and s_V.

    Each one-sided factor pairs the (−1)-eigenspace of one parameter against
    the full partner representation through the symplectic root number.
    """
    _, minusW = eigenspace_split(gp.phiW, x)
    _, minusV = eigenspace_split(gp.phiV, y)
    return _chi_one_side(minusW, gp.phiV.rep) * _chi_one_side(minusV, gp.phiW.rep)


@dataclass(frozen=True)
class SubParameter:
    """One eigenspace half of a split parameter, with its target dimension."""

    rep: WeilRep
    target_dim: int


@dataclass(frozen=True)
class EndoscopicSplit:
    w_plus: SubParameter
    w_minus: SubParameter
    v_plus: SubParameter
    v_minus: SubParameter

    @property
    def cross_pairs(self) -> tuple[tuple[SubParameter, SubParameter], ...]:
        return ((self.w_plus, self.v_minus), (self.w_minus, self.v_plus))


def endoscopic_split(gp: GPPair, x: int, y: int) -> EndoscopicSplit:
    """Split both parameters by the ±1 eigenspaces of s = (s_W, s_V), given
    by the minus-set masks x and y.

    ``s_V`` must avoid the central subgroup {identity, all −1}; otherwise the
    would-be endoscopic group is the group itself and :class:`CentralElement`
    is raised.  Target dimensions follow dim V_± = dim M_{V±} (+1 in the odd
    case); the two cross pairings always end up with odd dimension gaps, which
    is re-checked.
    """
    if y in (0, (1 << len(component_group(gp.phiV).basis)) - 1):
        raise CentralElement("s_V lies in {identity, all-(-1)}")
    plusW, minusW = eigenspace_split(gp.phiW, x)
    plusV, minusV = eigenspace_split(gp.phiV, y)

    addV = 1 if gp.phiV.target.dim % 2 else 0
    addW = 1 if gp.phiW.target.dim % 2 else 0
    split = EndoscopicSplit(
        w_plus=SubParameter(plusW, plusW.dim + addW),
        w_minus=SubParameter(minusW, minusW.dim + addW),
        v_plus=SubParameter(plusV, plusV.dim + addV),
        v_minus=SubParameter(minusV, minusV.dim + addV),
    )
    for sub in (split.v_plus, split.v_minus):
        if not sub.target_dim < gp.phiV.target.dim:
            raise InvariantViolation("endoscopic halves must be proper")
    for a, b in split.cross_pairs:
        if (a.target_dim - b.target_dim) % 2 == 0:
            raise InvariantViolation("cross pairings must have odd dimension gaps")
    return split


def dichotomy_identity_check(gp: GPPair, x: int, y: int) -> DichotomyReport:
    """Verify χ_{φ_{W+}×φ_{V−}}(1,−1) · χ_{φ_{W−}×φ_{V+}}(1,−1) = χ_φ(s).

    The left factors are the distinguished characters of the two endoscopic
    cross pairs, evaluated at the element that is trivial on the W half and
    all −1 on the V half.
    """
    split = endoscopic_split(gp, x, y)
    factor1 = _chi_one_side(split.v_minus.rep, split.w_plus.rep)
    factor2 = _chi_one_side(split.v_plus.rep, split.w_minus.rep)
    chi = gp_character(gp, x, y)
    return DichotomyReport(factor1 * factor2 == chi, chi, factor1, factor2)
