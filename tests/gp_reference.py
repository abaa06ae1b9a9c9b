"""Test oracles of gpkit's χ sweep, independent of the code they check.

* The Gross–Prasad definition, step by step (Gross–Prasad, Canad. J. Math.
  44 (1992)): :func:`gp_character` and :func:`dichotomy_identity_check`
  split each parameter into the ±1 eigenspaces of the component element,
  form the tensor products of the pieces with the partner parameter, and
  read the symplectic root numbers off the exact ε table.
* The bilinear model: :func:`reference_factor_table` is the factor table
  F[x][y] of :class:`gpkit.lparam.GPCharacterTable` as integers, one ±1/0
  entry per mask pair, summed from the exponents of the irreducible pairs
  (:func:`direct_exponent`, or any exponent function given, such as the
  synthetic :func:`odd_exponent`).
  :func:`factor_rows` turns it into two bit rows per W-mask, and
  :class:`ReferenceTable` reads ``chi``, ``dichotomy`` and ``verify`` off
  such rows, with the same errors in the same order; :func:`sweep_records`
  formats its verdicts as the failure records of ``verify dichotomy``.  The
  rows it reads may carry a deliberate breach, so that it is also the
  oracle of a library given the same breach.
* :func:`all_pairs_multiplicative` is the quadratic check, one product
  identity at a time, that ``verify`` certifies at generator cost.
* :func:`enumerate_reduced_by_scan` lists the reduced parameters by a scan
  of every subset of the pool, which :func:`gpkit.lparam.enumerate_reduced`
  replaces with a direct listing.

The module name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations

from gpkit.epsilon import eps_half
from gpkit.lparam import (
    CentralElement,
    DichotomyReport,
    GPPair,
    LParameter,
    NotReduced,
    OddHalfExponent,
    _reduced_pool,
    component_group,
    is_reduced,
    reduced_gp_pairs,
    validate,
)
from gpkit.quadspace import InvariantViolation, QuadSpace
from gpkit.weilrep import DiscRep, IrredRep, WeilRep, irred_dim, tensor


@cache
def direct_exponent(sig: IrredRep, rho: IrredRep) -> int:
    """The exponent e of ε(σ ⊗ ρ) = i^e, from the tensor product directly."""
    return eps_half(tensor(WeilRep([sig]), WeilRep([rho]))).e


def odd_exponent(sig: IrredRep, rho: IrredRep) -> int:
    """Synthetic exponents, odd and negative ones among them (−5…5), which no
    reduced pair has (every reduced exponent is even): in place of
    :func:`direct_exponent` they reach the mod-4 carries and the entries of
    the factor table that are not ±1."""
    i = sig.k if isinstance(sig, DiscRep) else sig.a
    j = rho.k if isinstance(rho, DiscRep) else rho.a
    return (7 * i - 3 * j) % 11 - 5


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
    basisW, basisV = gp.phiW.group.basis, gp.phiV.group.basis
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


def factor_rows(gp: GPPair, exponent=direct_exponent):
    """(``defined``, ``minus``): :func:`reference_factor_table` as two bit
    rows per W-mask x, bit y of ``defined[x]`` set when F[x][y] is ±1 and
    bit y of ``minus[x]`` when F[x][y] = −1."""
    table = reference_factor_table(gp, exponent)
    return (
        tuple(sum(1 << y for y, f in enumerate(row) if f) for row in table),
        tuple(sum(1 << y for y, f in enumerate(row) if f < 0) for row in table),
    )


class ReferenceTable:
    """``chi``, ``dichotomy`` and ``verify`` of one pair, read off the bit
    rows ``rows`` = (``defined``, ``minus``) of :func:`factor_rows`, with
    the errors of :class:`gpkit.lparam.GPCharacterTable` in the same order.
    fullW and fullV, the masks of the whole W- and V-bases, come from the
    lengths of the pair's component-group bases."""

    def __init__(self, gp: GPPair, rows) -> None:
        self.defined, self.minus = rows
        self.groupW, self.groupV = gp.phiW.group, gp.phiV.group
        self.fullW = (1 << len(self.groupW.basis)) - 1
        self.fullV = (1 << len(self.groupV.basis)) - 1

    def _check_range(self, x: int, y: int) -> None:
        if not (0 <= x <= self.fullW and 0 <= y <= self.fullV):
            raise ValueError("masks have bits outside the component-group bases")

    def chi(self, x: int, y: int) -> int:
        """χ(x, y) = F[x][fullV]·F[fullW][y]; :class:`OddHalfExponent` when
        a factor is not ±1."""
        self._check_range(x, y)
        d, m, fullW, fullV = self.defined, self.minus, self.fullW, self.fullV
        if not d[x] >> fullV & d[fullW] >> y & 1:
            raise OddHalfExponent("non-symplectic tensor block in χ")
        return -1 if (m[x] >> fullV ^ m[fullW] >> y) & 1 else 1

    def dichotomy(self, x: int, y: int) -> DichotomyReport:
        """The identity at (x, y): the factors F[xc][y] and F[x][fullV ⊕ y],
        xc = fullW ⊕ x, against χ(x, y).  The errors come in this order: a
        mask out of range, a central y (0 or fullV), then an entry of the
        four that is not ±1."""
        self._check_range(x, y)
        d, m, fullW, fullV = self.defined, self.minus, self.fullW, self.fullV
        if y in (0, fullV):
            raise CentralElement("s_V lies in {identity, all-(-1)}")
        xc, yc = fullW ^ x, fullV ^ y
        if not d[xc] >> y & d[x] >> yc & 1:
            raise OddHalfExponent("non-symplectic tensor block in χ")
        chi = self.chi(x, y)
        f1 = -1 if m[xc] >> y & 1 else 1
        f2 = -1 if m[x] >> yc & 1 else 1
        return DichotomyReport(f1 * f2 == chi, chi, f1, f2)

    def verify(self) -> tuple[int, bool, list]:
        """``(checked, is_character, failures)``:
        :func:`all_pairs_multiplicative` on χ over the elements, and
        ``(x, y, report)`` for each failed identity over every x and
        non-central y, y outer; ``checked`` counts both."""
        masksW, masksV = self.groupW.masks, self.groupV.masks
        table = {(x, y): self.chi(x, y) for x in masksW for y in masksV}
        loop = [
            (x, y, self.dichotomy(x, y))
            for y in masksV if y not in (0, self.fullV)
            for x in masksW
        ]
        failures = [case for case in loop if not case[2].ok]
        return len(table) ** 2 + len(loop), all_pairs_multiplicative(table), failures


def sweep_records(verdicts) -> list[dict]:
    """The failure records of ``verify dichotomy`` from ``(pair, verdict)``
    items, a verdict as ``verify`` gives it: one record for a pair whose χ
    is not a character and one per failed identity, with s_W and s_V as ±1
    lists, one entry per basis slot, sorted as the report sorts them."""
    def signs(mask, phi):
        return [-1 if mask >> i & 1 else 1 for i in range(len(phi.group.basis))]

    records = []
    for gp, (_, is_character, failures) in verdicts:
        pair = {"phiW": repr(gp.phiW.rep), "phiV": repr(gp.phiV.rep)}
        if not is_character:
            records.append({"case": {"kind": "chi-multiplicativity", **pair}})
        records += [
            {
                "case": {"kind": "dichotomy", **pair,
                         "sW": signs(x, gp.phiW), "sV": signs(y, gp.phiV)},
                "breakdown": report.breakdown(),
            }
            for x, y, report in failures
        ]
    return sorted(records, key=lambda ce: json.dumps(ce, sort_keys=True))


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


def sweep_units(max_dim: int, max_k: int):
    """The units of ``verify dichotomy --max-dim max_dim --max-k max_k``, one
    list of :func:`gpkit.lparam.reduced_gp_pairs` per dimension pair
    dw < dv ≤ max_dim with dv − dw odd, dv ascending and dw descending.  A
    unit is listed whole before it is yielded, so listing it has emptied the
    tables' content memo, as the start of a unit of the sweep does."""
    for dv in range(1, max_dim + 1):
        for dw in range(dv - 1, -1, -2):
            yield list(reduced_gp_pairs(dw, dv, max_k))


def sweep_pairs(max_dim: int, max_k: int):
    """The pairs of :func:`sweep_units`, unit after unit."""
    return chain.from_iterable(sweep_units(max_dim, max_k))


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
