"""Direct evaluation of χ_φ and the dichotomy identity: the test oracle.

This follows the Gross–Prasad definition step by step (Gross–Prasad, Canad.
J. Math. 44 (1992)): split each parameter into the ±1 eigenspaces of the
component element, form the tensor products of the pieces with the partner
parameter, and read the symplectic root numbers off the exact ε table.  The
library's :class:`gpkit.lparam.GPCharacterTable` evaluates the same values
from one mask-indexed factor table; the tests compare the two paths over
whole families of pairs.

The module name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

from dataclasses import dataclass

from gpkit.epsilon import eps_half
from gpkit.lparam import (
    CentralElement,
    DichotomyReport,
    GPPair,
    LParameter,
    NotReduced,
    OddHalfExponent,
    component_group,
    is_reduced,
)
from gpkit.quadspace import InvariantViolation
from gpkit.weilrep import IrredRep, WeilRep, tensor


def eps_symplectic(A: WeilRep | IrredRep) -> int:
    """ε(1/2, A, ψ) asserted real, returned as ±1 (symplectic-type inputs)."""
    return eps_half(A).as_sign()


def eigenspace_split(phi: LParameter, mask: int) -> tuple[WeilRep, WeilRep]:
    """(plus, minus) eigenspace on M of the component element with minus-set
    ``mask``; reduced parameters only."""
    if not is_reduced(phi):
        raise NotReduced(f"{phi.rep!r} has non-O-type or repeated constituents")
    grp = component_group(phi)
    if not 0 <= mask < 1 << len(grp.basis):
        raise ValueError("mask has bits outside the component-group basis")
    if not grp._admits(mask):
        raise ValueError("component element violates the group constraint")
    signed = list(zip(grp.basis, grp.signs_of(mask)))
    plus = WeilRep(rho for rho, sign in signed if sign == 1)
    minus = WeilRep(rho for rho, sign in signed if sign == -1)
    if grp.constraint and minus.dim % 2:
        raise InvariantViolation("constrained eigenspaces must have even dimension")
    return plus, minus


def _det_minus_id_power(space_dim: int, half_of: int) -> int:
    """det(−Id)^{half_of/2} on a ``space_dim``-dimensional piece, as ±1."""
    if half_of % 2:
        raise OddHalfExponent(f"exponent {half_of}/2 is not an integer")
    return -1 if (space_dim * (half_of // 2)) % 2 else 1


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
