"""Tempered L-parameters of real special orthogonal groups.

A parameter for SO(V) is recorded through the composite with the standard
representation: a self-dual ``WeilRep`` M_V of dimension dim V − 1 (dim V odd,
symplectic ambient) or dim V (dim V even, orthogonal ambient).  Relative to
the ambient pairing sign the irreducible constituents are

* O-type:  self-dual with the same pairing sign as the ambient space — these
  index the component group;
* Sp-type: self-dual with the opposite sign — forced to even multiplicity;
* GL-type: not self-dual — forced to come in dual pairs of equal multiplicity.

On top of the validation sit the component group 𝒮_φ, the (B)/(P)/(E)
classification, and the distinguished character χ_φ of a Gross–Prasad pair
with the endoscopic dichotomy identity it satisfies, both read from one
mask-indexed factor table (:class:`GPCharacterTable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

from .epsilon import eps_half
from .quadspace import (
    AdmissiblePair,
    InvariantViolation,
    NotAdmissible,
    QuadSpace,
    is_admissible_pair,
    json_object,
    space_from_json,
    space_to_json,
)
from .weilrep import (
    CharRep,
    DiscRep,
    IrredRep,
    SelfDualType,
    WeilRep,
    dual,
    irred_dim,
    self_dual_type,
    tensor,
    weilrep_from_json,
    weilrep_to_json,
)

__all__ = [
    "Ambient",
    "ConstituentType",
    "InvalidParameter",
    "DimMismatch",
    "OddSpMultiplicity",
    "UnpairedGLType",
    "NotReduced",
    "OddHalfExponent",
    "CentralElement",
    "LParameter",
    "ComponentGroup",
    "GPPair",
    "GPCharacterTable",
    "validate",
    "enumerate_reduced",
    "ambient_of",
    "constituent_type",
    "component_group",
    "classify",
    "Classification",
    "is_reduced",
    "DichotomyReport",
    "make_gp_pair",
    "param_to_json",
    "param_from_json",
    "gp_pair_from_json",
]


class Ambient(Enum):
    SYMPLECTIC = "symplectic"   # dim V odd,  M_V symplectically self-dual
    ORTHOGONAL = "orthogonal"   # dim V even, M_V orthogonally self-dual


class ConstituentType(Enum):
    O = "O"
    SP = "Sp"
    GL = "GL"


class InvalidParameter(ValueError):
    """The WeilRep is not a parameter for the target space.

    ``violations`` lists every broken invariant, not just the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DimMismatch(InvalidParameter):
    pass


class OddSpMultiplicity(InvalidParameter):
    pass


class UnpairedGLType(InvalidParameter):
    pass


class NotReduced(ValueError):
    """Operation defined only for multiplicity-free all-O-type parameters."""


class OddHalfExponent(ArithmeticError):
    """A det(−Id)^{dim/2} exponent came out non-integral (invariant breach)."""


class CentralElement(ValueError):
    """The component element lies in the image of the center."""


def ambient_of(V: QuadSpace) -> Ambient:
    return Ambient.SYMPLECTIC if V.dim % 2 else Ambient.ORTHOGONAL


def constituent_type(rho: IrredRep, ambient: Ambient) -> ConstituentType:
    """O/Sp/GL relative to the ambient pairing sign."""
    sd = self_dual_type(rho)
    if sd is SelfDualType.NOT_SELF_DUAL:
        return ConstituentType.GL
    matches = (sd is SelfDualType.SYMPLECTIC) == (ambient is Ambient.SYMPLECTIC)
    return ConstituentType.O if matches else ConstituentType.SP


@dataclass(frozen=True)
class LParameter:
    rep: WeilRep
    ambient: Ambient
    target: QuadSpace

    def o_type_constituents(self) -> list[IrredRep]:
        return [
            rho
            for rho, _ in self.rep
            if constituent_type(rho, self.ambient) is ConstituentType.O
        ]

    @cached_property
    def group(self) -> "ComponentGroup":
        """:func:`component_group` of this parameter, built once."""
        return component_group(self)

    @cached_property
    def reduced(self) -> bool:
        """:func:`is_reduced` of this parameter, computed once."""
        return is_reduced(self)


def validate(rep: WeilRep, V: QuadSpace) -> LParameter:
    """Check ``rep`` against the target space, reporting every violation."""
    ambient = ambient_of(V)
    expected = V.dim - 1 if V.dim % 2 else V.dim

    dim_violations: list[str] = []
    sp_violations: list[str] = []
    gl_violations: list[str] = []

    if rep.dim != expected:
        dim_violations.append(
            f"dim M = {rep.dim}, but SO({V.p},{V.q}) needs dimension {expected}"
        )
    for rho, m in rep:
        ctype = constituent_type(rho, ambient)
        if ctype is ConstituentType.SP and m % 2:
            sp_violations.append(
                f"Sp-type constituent {rho!r} has odd multiplicity {m}"
            )
        elif ctype is ConstituentType.GL and rep.mult(dual(rho)) != m:
            gl_violations.append(
                f"GL-type constituent {rho!r} (mult {m}) is not matched by its "
                f"dual (mult {rep.mult(dual(rho))})"
            )

    everything = sp_violations + gl_violations + dim_violations
    if sp_violations:
        raise OddSpMultiplicity(everything)
    if gl_violations:
        raise UnpairedGLType(everything)
    if dim_violations:
        raise DimMismatch(everything)
    return LParameter(rep, ambient, V)


@dataclass(frozen=True)
class ComponentGroup:
    """𝒮_φ ≤ {±1}^{I_O}, cut out by Π ε_i = 1 over odd-dimensional i if any.

    An element is its minus-set bitmask over ``basis`` (bit i set ⟺ sign
    −1 on slot i); :meth:`mask_of` and :meth:`signs_of` convert from and to
    ±1 signs.  The mask data every Gross–Prasad pair of the parameter reads
    — the element masks, the dimension subset sums and a generating set — are
    tuples computed on first use and kept.
    """

    basis: tuple[IrredRep, ...]
    constraint: bool

    @property
    def rank(self) -> int:
        r = len(self.basis)
        return r - 1 if self.constraint else r

    @property
    def size(self) -> int:
        return 2 ** self.rank

    @cached_property
    def _odd_mask(self) -> int:
        return sum(
            1 << i for i, rho in enumerate(self.basis) if irred_dim(rho) % 2
        )

    def _admits(self, mask: int) -> bool:
        """True iff the minus-set ``mask`` has an even number of odd slots."""
        return (mask & self._odd_mask).bit_count() % 2 == 0

    def masks(self) -> tuple[int, ...]:
        """Minus-set bitmasks of every element of 𝒮_φ, in ascending order."""
        return self._masks

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        return tuple(m for m in range(1 << len(self.basis)) if self._admits(m))

    @cached_property
    def dim_sums(self) -> tuple[int, ...]:
        """``dim_sums[m]`` = dim of the sum of the basis slots set in ``m``,
        for every subset m of the basis (not only the elements of 𝒮_φ)."""
        return tuple(_subset_sums([irred_dim(rho) for rho in self.basis]))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set of :meth:`masks` under XOR, each mask taken in
        ascending order unless the earlier ones already span it."""
        span, gens = {0}, []
        for m in self.masks():
            if m not in span:
                gens.append(m)
                span |= {s ^ m for s in span}
        return tuple(gens)

    def mask_of(self, signs) -> int:
        """The minus-set mask of the element with ±1 ``signs`` on the basis:
        bit i set ⟺ sign −1 on basis slot i."""
        signs = tuple(signs)
        if len(signs) != len(self.basis) or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be ±1, one per basis constituent")
        mask = sum(1 << i for i, s in enumerate(signs) if s == -1)
        if not self._admits(mask):
            raise ValueError("signs violate the odd-dimension product constraint")
        return mask

    def signs_of(self, mask: int) -> tuple[int, ...]:
        """The ±1 signs on the basis of the minus-set ``mask``."""
        return tuple(-1 if mask >> i & 1 else 1 for i in range(len(self.basis)))


def component_group(phi: LParameter) -> ComponentGroup:
    basis = tuple(phi.o_type_constituents())
    constraint = any(irred_dim(rho) % 2 for rho in basis)
    return ComponentGroup(basis, constraint)


def is_reduced(phi: LParameter) -> bool:
    """True iff every constituent is O-type with multiplicity one."""
    return all(
        constituent_type(rho, phi.ambient) is ConstituentType.O and m == 1
        for rho, m in phi.rep
    )


@dataclass(frozen=True)
class Classification:
    flags: frozenset[str]
    canonical: str
    explicit_condition: bool


def classify(phi: LParameter) -> Classification:
    """The (B)/(P)/(E) trichotomy flags, with P > B > E as canonical priority.

    * P: some constituent is GL-type, or Sp-type, or an O-type of multiplicity
      at least two — the parameter factors through a proper Levi/endoscopic
      degeneration.
    * B: dim V ≤ 3 (base cases).
    * E: neither, the genuinely new case.

    The explicit group-level condition S_φ ⊄ Z(Ŝ)·S°_φ — here: some element of
    𝒮_φ outside {1, image of −Id} — is also computed; on reduced parameters
    with dim M_V > 2 it provably coincides with ¬B ∧ ¬P, and that agreement is
    re-asserted at runtime on that domain.
    """
    degenerate = any(
        constituent_type(rho, phi.ambient) is not ConstituentType.O or m > 1
        for rho, m in phi.rep
    )
    flags = set()
    if degenerate:
        flags.add("P")
    if phi.target.dim <= 3:
        flags.add("B")
    if not flags:
        flags.add("E")

    grp = phi.group
    # image of −Id: ε_i = (−1)^{m_i}, i.e. bit i set when m_i is odd
    center = sum(
        1 << i for i, rho in enumerate(grp.basis) if phi.rep.mult(rho) % 2
    )
    condition = any(m not in (0, center) for m in grp.masks())

    if phi.reduced and phi.rep.dim > 2:
        if condition != ("E" in flags):
            raise InvariantViolation(
                f"explicit component-group condition disagrees with the "
                f"trichotomy on a reduced parameter: {phi!r}"
            )

    canonical = "P" if "P" in flags else ("B" if "B" in flags else "E")
    return Classification(frozenset(flags), canonical, condition)


@dataclass(frozen=True)
class GPPair:
    phiW: LParameter
    phiV: LParameter
    pair: AdmissiblePair


def make_gp_pair(phiW: LParameter, phiV: LParameter) -> GPPair:
    if phiW.ambient is phiV.ambient:
        raise InvalidParameter(
            ["a Gross–Prasad pair needs one even and one odd target space"]
        )
    pair = is_admissible_pair(phiW.target, phiV.target)
    if pair is None:
        raise NotAdmissible(
            f"({phiW.target}, {phiV.target}) is not an admissible pair"
        )
    return GPPair(phiW, phiV, pair)


def _subset_sums(values) -> list[int]:
    """``out[m]`` = Σ values[i] over the set bits i of m, built by lowest set bit."""
    out = [0]
    for m in range(1, 1 << len(values)):
        low = m & -m
        out.append(out[m ^ low] + values[low.bit_length() - 1])
    return out


class GPCharacterTable:
    """Precomputed χ factor table of one Gross–Prasad pair.

    ε is additive over direct sums and the tensor product is bilinear, so
    every value of χ_φ — and both factors of the dichotomy identity — is a
    one-sided factor of a sub-pair σ_x × ρ_y, where x and y are minus-set
    bitmasks of the W- and V-bases (bit i set ⟺ sign −1 on slot i):

        F[x][y] = det(−Id_{σ_x})^{dim ρ_y/2} · det(−Id_{ρ_y})^{dim σ_x/2}
                  · ε(σ_x ⊗ ρ_y).

    Building the exponent matrix ε(σ_i ⊗ ρ_j) costs one small tensor
    decomposition per distinct irreducible pair (:func:`_pair_exponent`
    memoises it across tables); the block sums over all mask pairs and the
    dimension sums are then built incrementally by lowest set bit, so every
    evaluation is a lookup in F:

        χ(x, y) = F[x][fullV] · F[fullW][y],
        dichotomy factors F[fullW ^ x][y] and F[x][fullV ^ y].

    F is a ±1 value only on symplectic blocks (both dimensions even, even
    exponent sum); there the det(−Id) prefactors are (−1)^{a·b/2} = 1 for
    even a, so F is the root number i^e.  Every other entry is stored as 0,
    and reading one raises :class:`OddHalfExponent`.

    What depends on one side only is built once per parameter and shared by
    every table of a sweep that pairs it: the reducedness test and the
    component group (:attr:`LParameter.reduced`, :attr:`LParameter.group`),
    and the group's element masks, dimension subset sums and generating set.
    Per pair remain the exponent-matrix lookups, the block sums and F.
    """

    def __init__(self, gp: GPPair):
        if not (gp.phiW.reduced and gp.phiV.reduced):
            raise NotReduced("character tables need reduced parameters")
        self.gp = gp
        self.groupW = gp.phiW.group
        self.groupV = gp.phiV.group
        exp = [
            [_pair_exponent(sig, rho) for rho in self.groupV.basis]
            for sig in self.groupW.basis
        ]
        dimW, dimV = self.groupW.dim_sums, self.groupV.dim_sums
        rows = [_subset_sums(row) for row in exp]
        block = [[0] * len(dimV)]
        for x in range(1, len(dimW)):
            low = x & -x
            prev, row = block[x ^ low], rows[low.bit_length() - 1]
            block.append([p + r for p, r in zip(prev, row)])
        self._F = tuple(
            tuple(
                0 if dimW[x] % 2 or b % 2 or e % 2 else 1 - (e & 2)
                for b, e in zip(dimV, block[x])
            )
            for x in range(len(dimW))
        )
        self._fullW = len(dimW) - 1
        self._fullV = len(dimV) - 1

    def mask_tables(self):
        """(masksW, masksV, valueW, valueV): χ(s) = valueW[mW] · valueV[mV].

        Masks run over the constraint-respecting elements of each component
        group; the two value maps are the one-sided χ factors.
        """
        masksW, masksV = self.groupW.masks(), self.groupV.masks()
        F = self._F
        valW = {x: _symplectic(F[x][self._fullV]) for x in masksW}
        valV = {y: _symplectic(F[self._fullW][y]) for y in masksV}
        return masksW, masksV, valW, valV

    def _check_masks(self, x: int, y: int) -> None:
        if not (0 <= x <= self._fullW and 0 <= y <= self._fullV):
            raise ValueError("masks have bits outside the component-group bases")

    def chi(self, x: int, y: int) -> int:
        """χ_φ at the element with minus-set masks x (of 𝒮_W) and y (of 𝒮_V)."""
        self._check_masks(x, y)
        return _symplectic(self._F[x][self._fullV] * self._F[self._fullW][y])

    def chi_table(self) -> dict:
        """χ_φ on every element, keyed by the mask pair (x, y)."""
        return {
            (x, y): self.chi(x, y)
            for x in self.groupW.masks()
            for y in self.groupV.masks()
        }

    def dichotomy(self, x: int, y: int) -> "DichotomyReport":
        """The dichotomy identity at the element with masks (x, y)."""
        self._check_masks(x, y)
        F, fullW, fullV = self._F, self._fullW, self._fullV
        if y in (0, fullV):
            raise CentralElement("s_V lies in {identity, all-(-1)}")
        factor1 = _symplectic(F[fullW ^ x][y])
        factor2 = _symplectic(F[x][fullV ^ y])
        chi = _symplectic(F[x][fullV] * F[fullW][y])
        return DichotomyReport(factor1 * factor2 == chi, chi, factor1, factor2)


@cache
def _pair_exponent(sig: IrredRep, rho: IrredRep) -> int:
    """The exponent e of ε(σ ⊗ ρ) = i^e, memoised on the irreducible pair."""
    return eps_half(tensor(WeilRep([sig]), WeilRep([rho]))).e


def _symplectic(value: int) -> int:
    """A ±1 read from a factor table; 0 marks a non-symplectic block."""
    if not value:
        raise OddHalfExponent("non-symplectic tensor block in χ")
    return value


@dataclass(frozen=True)
class DichotomyReport:
    ok: bool
    chi: int
    factor_wplus_vminus: int
    factor_wminus_vplus: int

    def breakdown(self) -> dict:
        return {
            "chi": self.chi,
            "factor_wplus_vminus": self.factor_wplus_vminus,
            "factor_wminus_vplus": self.factor_wminus_vplus,
            "product": self.factor_wplus_vminus * self.factor_wminus_vplus,
            "ok": self.ok,
        }


@cache
def _reduced_pool(symplectic: bool, max_k: int) -> tuple[IrredRep, ...]:
    """The O-type irreducibles with k ≤ max_k of one ambient, one object each.

    Every enumeration with the same bounds builds its parameters from these
    same objects, so the memo lookups of :func:`_pair_exponent` find their
    keys by identity instead of comparing twists.
    """
    if symplectic:
        return tuple(DiscRep(k) for k in range(1, max_k + 1, 2))
    return (CharRep(0), CharRep(1)) + tuple(
        DiscRep(k) for k in range(2, max_k + 1, 2)
    )


def enumerate_reduced(V: QuadSpace, max_k: int) -> list[LParameter]:
    """All reduced parameters for SO(V) with discrete pieces D_k, k ≤ max_k.

    Reduced means multiplicity-free and all O-type: distinct D_odd in the
    symplectic ambient, and 1/sgn/distinct D_even in the orthogonal ambient,
    filling the required dimension exactly.
    """
    from itertools import combinations

    pool = _reduced_pool(bool(V.dim % 2), max_k)
    want = V.dim - 1 if V.dim % 2 else V.dim
    out = []
    # every constituent has dimension ≥ 1, so no subset larger than ``want``
    for r in range(min(len(pool), want) + 1):
        for sub in combinations(pool, r):
            if sum(irred_dim(x) for x in sub) == want:
                out.append(validate(WeilRep(sub), V))
    return out


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def param_to_json(phi: LParameter) -> dict:
    return {"V": space_to_json(phi.target), "rep": weilrep_to_json(phi.rep)}


def param_from_json(obj: dict) -> LParameter:
    json_object(obj, "parameter", ("V", "rep"))
    return validate(weilrep_from_json(obj["rep"]), space_from_json(obj["V"]))


def gp_pair_from_json(obj: dict) -> GPPair:
    json_object(obj, "pair", ("phiW", "phiV"))
    return make_gp_pair(param_from_json(obj["phiW"]), param_from_json(obj["phiV"]))
