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

from enum import Enum
from functools import cache, cached_property, lru_cache
from itertools import combinations, product

from .epsilon import eps_half
from .quadspace import (
    AdmissiblePair,
    InvariantViolation,
    QuadSpace,
    _Value,
    _is_sign,
    admissible_pair,
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
    "reduced_gp_pairs",
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


class OddHalfExponent(InvariantViolation):
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


class LParameter(_Value):
    _fields = ("rep", "target")

    def __init__(self, rep: WeilRep, target: QuadSpace) -> None:
        self.__dict__.update(rep=rep, target=target)

    @property
    def ambient(self) -> Ambient:
        """:func:`ambient_of` the target space."""
        return ambient_of(self.target)

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
    return LParameter(rep, V)


class ComponentGroup(_Value):
    """𝒮_φ ≤ {±1}^{I_O}, cut out by Π ε_i = 1 over odd-dimensional i if any.

    An element is its minus-set bitmask over ``basis`` (bit i set ⟺ sign
    −1 on slot i); :meth:`mask_of` and :meth:`signs_of` convert from and to
    ±1 signs.  The constraint says that an element's −1-eigenspace has even
    dimension, so the elements are the even-dimensional subsets of the basis.
    The mask data every Gross–Prasad pair of the parameter reads are
    computed on first use and kept; the parameters that
    :func:`enumerate_reduced` lists share one group per basis.
    """

    _fields = ("basis",)

    def __init__(self, basis: tuple[IrredRep, ...]) -> None:
        self.__dict__["basis"] = basis

    @property
    def _odd_mask(self) -> int:
        return sum(1 << i for i, rho in enumerate(self.basis) if irred_dim(rho) % 2)

    @property
    def constraint(self) -> bool:
        """True iff some basis slot is odd-dimensional, so Π ε_i = 1 binds."""
        return self._odd_mask != 0

    @property
    def rank(self) -> int:
        r = len(self.basis)
        return r - 1 if self.constraint else r

    @property
    def size(self) -> int:
        return 2 ** self.rank

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Minus-set bitmasks of every element of 𝒮_φ, in ascending order."""
        odd = self._odd_mask
        return tuple(
            m for m in range(1 << len(self.basis)) if (m & odd).bit_count() % 2 == 0
        )

    @cached_property
    def even_dims(self) -> int:
        """:attr:`masks` as one bitmask: bit m set ⟺ the subset m of the
        basis has even dimension ⟺ m is an element."""
        return sum(1 << m for m in self.masks)

    @cached_property
    def _planes_by_slot(self) -> dict[IrredRep, tuple[int, int]]:
        """The :func:`_slot_planes` of each W-slot irreducible over this
        group's basis, filled by the tables that read them."""
        return {}

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A basis of :attr:`masks` under XOR, in ascending order: the
        singleton {i} of each even-dimensional slot i, and the pair {o0, o}
        of each odd-dimensional slot o above the lowest one, o0.

        Proof.  Each lies in the group: {i} has even dimension, and {o0, o}
        holds two odd-dimensional slots.  Each has its highest bit at its
        own slot (i, or o > o0), so they are independent, and listed by slot
        they ascend.  Every slot but o0 gives one, so there are
        len(basis) − 1 of them when an odd slot exists and len(basis)
        otherwise, which is the rank; independent elements as many as the
        rank of the 𝔽₂-space 𝒮_φ span it.  ∎

        Each generator is also the least element whose highest bit is its
        slot (an element headed by o holds another odd slot, so one ≥ o0,
        and no element is headed by o0), so the tuple is a function of
        :attr:`masks` alone: the greedy basis that takes each mask in
        ascending order unless the earlier ones span it."""
        odd = self._odd_mask
        low = odd & -odd
        return tuple(
            (low if odd >> i & 1 else 0) | 1 << i
            for i in range(len(self.basis))
            if 1 << i != low
        )

    def mask_of(self, signs) -> int:
        """The minus-set mask of the element with ±1 ``signs`` on the basis:
        bit i set ⟺ sign −1 on basis slot i."""
        signs = tuple(signs)
        if len(signs) != len(self.basis) or not all(map(_is_sign, signs)):
            raise ValueError(
                f"signs must be +1 or -1, one per basis constituent ({len(self.basis)})"
            )
        mask = sum(1 << i for i, s in enumerate(signs) if s == -1)
        if not self.even_dims >> mask & 1:
            raise ValueError("signs violate the odd-dimension product constraint")
        return mask

    def signs_of(self, mask: int) -> tuple[int, ...]:
        """The ±1 signs on the basis of the minus-set ``mask``."""
        return tuple(-1 if mask >> i & 1 else 1 for i in range(len(self.basis)))


def component_group(phi: LParameter) -> ComponentGroup:
    basis = tuple(
        rho
        for rho, _ in phi.rep
        if constituent_type(rho, phi.ambient) is ConstituentType.O
    )
    return ComponentGroup(basis)


def is_reduced(phi: LParameter) -> bool:
    """True iff every constituent is O-type with multiplicity one."""
    return all(
        constituent_type(rho, phi.ambient) is ConstituentType.O and m == 1
        for rho, m in phi.rep
    )


class Classification(_Value):
    _fields = ("flags", "canonical", "explicit_condition")

    def __init__(self, flags: frozenset[str], canonical: str,
                 explicit_condition: bool) -> None:
        self.__dict__.update(flags=flags, canonical=canonical,
                             explicit_condition=explicit_condition)


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
    flags = set()
    if not phi.reduced:
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
    condition = any(m not in (0, center) for m in grp.masks)

    if phi.reduced and phi.rep.dim > 2:
        if condition != ("E" in flags):
            raise InvariantViolation(
                f"explicit component-group condition disagrees with the "
                f"trichotomy on a reduced parameter: {phi!r}"
            )

    canonical = "P" if "P" in flags else ("B" if "B" in flags else "E")
    return Classification(frozenset(flags), canonical, condition)


class GPPair(_Value):
    _fields = ("phiW", "phiV", "pair")

    def __init__(self, phiW: LParameter, phiV: LParameter,
                 pair: AdmissiblePair) -> None:
        self.__dict__.update(phiW=phiW, phiV=phiV, pair=pair)


def make_gp_pair(phiW: LParameter, phiV: LParameter) -> GPPair:
    return GPPair(phiW, phiV, _gp_spaces(phiW.target, phiV.target))


def _gp_spaces(W: QuadSpace, V: QuadSpace) -> AdmissiblePair:
    """The admissible pair of the target spaces of a Gross–Prasad pair:
    :class:`InvalidParameter` unless one is even and one odd, then
    :func:`admissible_pair`."""
    if ambient_of(W) is ambient_of(V):
        raise InvalidParameter(
            ["a Gross–Prasad pair needs one even and one odd target space"]
        )
    return admissible_pair(W, V)


class GPCharacterTable:
    """Precomputed χ factor table of one Gross–Prasad pair.

    ε is additive over direct sums and the tensor product is bilinear, so
    every value of χ_φ — and both factors of the dichotomy identity — is a
    one-sided factor of a sub-pair σ_x × ρ_y, where x and y are minus-set
    bitmasks of the W- and V-bases (bit i set ⟺ sign −1 on slot i):

        F[x][y] = det(−Id_{σ_x})^{dim ρ_y/2} · det(−Id_{ρ_y})^{dim σ_x/2}
                  · ε(σ_x ⊗ ρ_y).

    Building the exponent matrix e_ij of ε(σ_i ⊗ ρ_j) = i^{e_ij} costs one
    small tensor decomposition per distinct irreducible pair
    (:func:`_pair_exponent` memoises it across tables), and every evaluation
    is then a read of F:

        χ(x, y) = F[x][fullV] · F[fullW][y],
        dichotomy factors F[fullW ^ x][y] and F[x][fullV ^ y].

    F is ±1 only on symplectic blocks: dim σ_x and dim ρ_y even and the block
    sum E(x, y) = Σ_{i∈x, j∈y} e_ij even.  There the det(−Id) prefactors are
    (−1)^{a·b/2} = 1 for even a, so F is the root number i^E = (−1)^{E/2}.
    Reading any other entry raises :class:`OddHalfExponent`.

    F is stored as two bit rows per W-mask x, bit y of each row standing for
    the entry F[x][y]:

        ``defined[x]``: the y where F[x][y] is ±1, i.e. dim σ_x even,
                        dim ρ_y even and E(x, y) even;
        ``minus[x]``:   the y where F[x][y] = −1, i.e. E(x, y) ≡ 2 (mod 4).

    Both come from E(x, ·) mod 4, held as two bit planes (bit 0 and bit 1 of
    E(x, y) at bit y).  Row x is row x ⊕ low plus the plane of slot
    low = lowest set bit of x (:func:`_slot_planes`, kept per W-slot
    irreducible in the V group, their one home), added with the bitwise
    mod-4 adder

        lo = a₀ ⊕ b₀,   hi = a₁ ⊕ b₁ ⊕ (a₀ ∧ b₀).

    Proof.  For a = a₀ + 2a₁ and b = b₀ + 2b₁ with bits a_k, b_k,
    a₀ + b₀ = (a₀ ⊕ b₀) + 2(a₀ ∧ b₀), so a + b = (a₀ ⊕ b₀) +
    2(a₁ + b₁ + a₀ ∧ b₀); and 2c mod 4 depends only on c mod 2 =
    a₁ ⊕ b₁ ⊕ (a₀ ∧ b₀).  No bit position carries into another, so the
    integer XOR and AND add all 2^|basis_V| entries of a row at once.  ∎

    A row build is thus O(2^|basis_W|) big-integer operations, and it reads
    nothing but the W-slot planes, the two groups' ``even_dims`` and
    |basis_V|.  The methods of the table read the groups only through their
    element masks, which ``even_dims`` fixes, so everything they read lives
    in one content record (:class:`_TableContent`), built from the bit
    rows: χ's two factors, the verdicts of :meth:`verify`'s preamble and
    the report rows that :meth:`dichotomy` reads, one byte per element.
    The first table with a key (the W-slot planes, both ``even_dims`` and
    |basis_V|) builds the record whole, and every later table with that key
    shares it (chi-narrow's 8,464 pairs have 39 distinct contents).  The memo
    ``_CONTENTS`` holds one sweep unit's contents: these almost never repeat
    across units (at ``--max-dim 10 --max-k 9``, 395 distinct contents
    summed over the units, 383 over the whole sweep).  Each pair still gets
    its own table.  What depends on one side only is built once per basis
    and shared by every table that reads it, across the units of a sweep:
    :func:`enumerate_reduced` lists each parameter with its reducedness
    and its component group set (:attr:`LParameter.reduced`,
    :attr:`LParameter.group`), the group of each basis one object for the
    process, and that group keeps its element masks, their bitmask, its
    generating set and, as a V group, the slot planes of each W-slot
    irreducible (:attr:`ComponentGroup._planes_by_slot`, the one memo of
    the planes).  At ``--max-dim 10 --max-k 9`` the 992 tables read 62
    groups.  A parameter built otherwise (from JSON, say) computes both
    fields on first use, with a group of its own.
    """

    def __init__(self, gp: GPPair):
        if not (gp.phiW.reduced and gp.phiV.reduced):
            raise NotReduced("character tables need reduced parameters")
        self.gp = gp
        groupW = self.groupW = gp.phiW.group
        groupV = self.groupV = gp.phiV.group
        basisV, memo = groupV.basis, groupV._planes_by_slot
        planes = tuple([
            memo.get(sig) or memo.setdefault(sig, _slot_planes(sig, basisV))
            for sig in groupW.basis
        ])
        evenW, evenV = groupW.even_dims, groupV.even_dims
        key = (planes, evenW, evenV, len(basisV))
        content = _CONTENTS.get(key)
        if content is None:
            content = _CONTENTS[key] = _TableContent(
                *_factor_rows(planes, evenW, evenV), groupW, groupV
            )
        self._content = content

    def verify(self) -> tuple[int, bool, list]:
        """``(checked, is_character, failures)``: both χ-sweep checks.

        ``is_character`` is :func:`_is_multiplicative` on the bit rows of
        valW[x] = F[x][fullV] and valV[y] = F[fullW][y]; ``failures`` holds
        ``(x, y, report)`` for each failed :meth:`dichotomy` over every x and
        non-central y.  ``checked`` counts the |𝒮_W × 𝒮_V|² product
        identities certified plus the dichotomy identities evaluated.  The
        first three are read off the content record
        (:attr:`_TableContent.verdict`); every identity is still one
        :meth:`dichotomy` call.
        """
        defined, is_character, ys, checked = self._content.verdict
        if not defined:
            raise OddHalfExponent("non-symplectic tensor block in χ")
        masksW = self.groupW.masks
        failures = []
        dichotomy = self.dichotomy
        for y in ys:
            for x in masksW:
                report = dichotomy(x, y)
                if not report.ok:
                    failures.append((x, y, report))
        return checked, is_character, failures

    def _check_masks(self, x: int, y: int) -> None:
        content = self._content
        if not (0 <= x <= content.fullW and 0 <= y <= content.fullV):
            raise ValueError("masks have bits outside the component-group bases")

    def chi(self, x: int, y: int) -> int:
        """χ_φ at the element with minus-set masks x (of 𝒮_W) and y (of 𝒮_V)."""
        self._check_masks(x, y)
        c = self._content
        if not c.colD >> x & c.rowD >> y & 1:
            raise OddHalfExponent("non-symplectic tensor block in χ")
        return -1 if (c.colM >> x ^ c.rowM >> y) & 1 else 1

    def chi_table(self) -> dict:
        """χ_φ on every element, keyed by the mask pair (x, y)."""
        return {
            (x, y): self.chi(x, y)
            for x in self.groupW.masks
            for y in self.groupV.masks
        }

    def dichotomy(self, x: int, y: int) -> "DichotomyReport":
        """The dichotomy identity at the element with masks (x, y): byte y
        of the content's report row x (:attr:`_TableContent.reports`)."""
        content = self._content
        if not (0 <= x <= content.fullW and 0 < y < content.fullV):
            # the range error comes before the central one
            self._check_masks(x, y)
            raise CentralElement("s_V lies in {identity, all-(-1)}")
        index = content.reports[x][y]
        if index == _UNDEFINED:
            raise OddHalfExponent("non-symplectic tensor block in χ")
        return _REPORTS[index]


# The byte of a report row whose identity reads a non-±1 entry; the other
# bytes index _REPORTS.
_UNDEFINED = 8


class _TableContent:
    """What every :class:`GPCharacterTable` of one content reads, built
    whole from the bit rows ``defined``/``minus`` of F and the groups of
    the first table of the content; no field changes afterwards.  The bit
    rows themselves are not kept: nothing reads them once the fields below
    are built.

    * ``fullW``, ``fullV``: the masks of the whole W- and V-bases.
    * χ's two factors as bit rows: bit x of ``colD``/``colM`` is set when
      F[x][fullV] is ±1, resp. −1 (column fullV, over every W-mask x), and
      ``rowD``/``rowM`` are row fullW.  So χ(x, y) = F[x][fullV]·F[fullW][y]
      is ±1 iff bit x of ``colD`` and bit y of ``rowD`` are set, and −1 iff
      bit x of ``colM`` and bit y of ``rowM`` differ.
    * ``verdict`` = (defined, is_character, ys, checked): whether both
      factors are ±1 on the elements, the :func:`_is_multiplicative` verdict
      on ``colM`` and ``rowM`` (False when not defined), the non-central
      V-masks (the set bits of ``evenV`` other than 0 and ``fullV``,
      ascending) and the count of
      :meth:`GPCharacterTable.verify`.  Each is a function of the content:
      the groups are read only through their ``masks`` and ``generators``,
      which are fixed by their ``even_dims`` (see
      :func:`_is_multiplicative`).
    * ``reports``: one report row per W-mask x, read by
      :meth:`GPCharacterTable.dichotomy`.

    Report row x has one byte per V-mask y: the index into ``_REPORTS`` of
    the report at (x, y), or ``_UNDEFINED``.  With xc = fullW ⊕ x the
    identity at (x, y) reads four entries,

        F[xc][y],  F[x][fullV ⊕ y],  F[x][fullV],  F[fullW][y],

    and its report has index bit 2 set when F[xc][y] = −1, bit 1 when
    F[x][fullV ⊕ y] = −1 and bit 0 when χ(x, y) = F[x][fullV]·F[fullW][y]
    = −1; it is undefined when one of the four is not ±1.  A row whose
    F[x][fullV] is not ±1 is thus all ``_UNDEFINED``, and every such row of
    the record is one shared ``bytes`` object.

    Proof that row x is the same for every table of the content, and what
    the per-element formula gives.  The four entries are bits of the rows
    xc and x of ``defined`` and ``minus`` at y and fullV ⊕ y, and of the
    two factors at x and y.  These rows, the factors and fullW, fullV are
    fixed by the content's key, so every table of the content reads the
    same four entries at (x, y), and the byte holds the index the formula
    computes from them.  Row x is built in one pass of big-integer
    operations over every y at once: bits y of row xc and of the row
    factor, the constant bit x of the column factor, and bit fullV ⊕ y =
    fullV − y of row x, which is digit y of row x's binary string of
    2^|basis_V| digits read from the most significant end.  ∎

    Each bit row of F is written as that binary string once, and the
    string is read in both byte orders: as a big-endian integer its byte y
    is bit y of the row (what report row fullW ⊕ r reads of row r), and as
    a little-endian one bit fullV − y (what report row r reads).  Only the
    rows x and fullW ⊕ x of an x with F[x][fullV] = ±1 are written, and an
    all-zero row is not written at all.

    Building every row up front costs next to nothing over building only
    the rows read.  A sweep reads every report row of an element x whenever
    the V group has a non-central element, and a row with F[x][fullV] not
    ±1 is the shared one, so the rows built and never read are those of the
    few records with no non-central y: the rows read number 103 / 2,256 /
    10,955 at ``--max-dim 5 --max-k 25`` / ``10 9`` / ``12 11``, the rows
    with F[x][fullV] = ±1 115 / 2,268 / 10,967.
    """

    __slots__ = ("fullW", "fullV", "colD", "colM", "rowD", "rowM", "verdict",
                 "reports")

    def __init__(self, defined: tuple[int, ...], minus: tuple[int, ...],
                 groupW: ComponentGroup, groupV: ComponentGroup):
        fullW, fullV = len(defined) - 1, (1 << len(groupV.basis)) - 1
        colD = sum((d >> fullV & 1) << x for x, d in enumerate(defined))
        colM = sum((m >> fullV & 1) << x for x, m in enumerate(minus))
        rowD, rowM = defined[fullW], minus[fullW]
        self.fullW, self.fullV = fullW, fullV
        self.colD, self.colM, self.rowD, self.rowM = colD, colM, rowD, rowM

        evenV, nW = groupV.even_dims, len(groupW.masks)
        chi_defined = not (groupW.even_dims & ~colD or evenV & ~rowD)
        ys = tuple([y for y in range(1, fullV) if evenV >> y & 1])
        self.verdict = (
            chi_defined,
            chi_defined and _is_multiplicative(groupW, groupV, colM, rowM),
            ys,
            (nW * len(groupV.masks)) ** 2 + len(ys) * nW,
        )

        width = fullV + 1
        ones = int.from_bytes(b"\1" * width, "little")
        digits = f"0{width}b"

        def spread(row: int) -> tuple[int, int]:
            # (byte y is bit y of row, byte y is bit fullV − y of row): the
            # digits '0'/'1' are the bytes 0x30/0x31, written once and read
            # in both byte orders
            if not row:
                return 0, 0
            text = format(row, digits).encode()
            return (int.from_bytes(text, "big") & ones,
                    int.from_bytes(text, "little") & ones)

        xs = [x for x in range(fullW + 1) if colD >> x & 1]  # F[x][fullV] is ±1
        written = {*xs, *[fullW ^ x for x in xs]}
        spreadD = {r: spread(defined[r]) for r in written}
        spreadM = {r: spread(minus[r]) for r in written}
        factorD, factorM = spread(rowD)[0], spread(rowM)[0]
        reports = [bytes([_UNDEFINED]) * width] * (fullW + 1)
        for x in xs:
            xc = fullW ^ x
            ok = spreadD[xc][0] & factorD & spreadD[x][1]
            index = spreadM[xc][0] << 2 | spreadM[x][1] << 1
            index |= factorM ^ ones if colM >> x & 1 else factorM  # χ
            # each byte is at most 7 and the masks 0 or 7, so nothing carries
            index = (index & ok * 7) | (ones ^ ok) * _UNDEFINED
            reports[x] = index.to_bytes(width, "little")
        self.reports = tuple(reports)


# The content records of one sweep unit, keyed on what the bit rows are
# built from; reduced_gp_pairs empties it when a family starts.
_CONTENTS: dict[tuple, _TableContent] = {}


@cache
def _pair_exponent(sig: IrredRep, rho: IrredRep) -> int:
    """The exponent e of ε(σ ⊗ ρ) = i^e, memoised on the irreducible pair."""
    return eps_half(tensor(WeilRep([sig]), WeilRep([rho]))).e


def _slot_planes(sig: IrredRep, basisV: tuple[IrredRep, ...]) -> tuple[int, int]:
    """(lo, hi): bit y of each is bit 0, resp. bit 1, of the exponent row sum
    Σ_{j∈y} e(σ, ρ_j) mod 4, for every subset y of ``basisV``.

    Built by doubling: the subsets holding slot j are those without it, shifted
    up by 2^j, plus the constant e(σ, ρ_j), added with the bitwise mod-4 adder
    of :class:`GPCharacterTable` (a constant's planes are all ones or all
    zeros).  A table keeps the planes it builds in the V group's
    :attr:`~ComponentGroup._planes_by_slot`, keyed on σ alone, their only
    memo.
    """
    lo = hi = 0
    for j, rho in enumerate(basisV):
        e, width = _pair_exponent(sig, rho), 1 << j
        ones = (1 << width) - 1
        e0, e1 = ones if e & 1 else 0, ones if e & 2 else 0
        lo, hi = lo | (lo ^ e0) << width, hi | (hi ^ e1 ^ (lo & e0)) << width
    return lo, hi


def _factor_rows(
    planes: tuple[tuple[int, int], ...], evenW: int, evenV: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(``defined``, ``minus``) of the tables whose W-slots have the
    :func:`_slot_planes` ``planes`` (in basis order) and whose groups have
    the :attr:`~ComponentGroup.even_dims` ``evenW`` and ``evenV``: the rows
    of E(x, ·) mod 4, built by the mod-4 adder of
    :class:`GPCharacterTable`, then cut to the symplectic entries.  Tuples,
    so no table can change another's.
    """
    lo, hi = [0], [0]
    for x in range(1, 1 << len(planes)):
        low = x & -x
        a0, a1 = lo[x ^ low], hi[x ^ low]
        b0, b1 = planes[low.bit_length() - 1]
        lo.append(a0 ^ b0)
        hi.append(a1 ^ b1 ^ (a0 & b0))
    defined = [evenV & ~odd if evenW >> x & 1 else 0 for x, odd in enumerate(lo)]
    return tuple(defined), tuple([ok & two for ok, two in zip(defined, hi)])


def _is_homomorphism(group, row: int) -> bool:
    """Whether f(x) = bit 0 ⊕ bit x of ``row`` is a homomorphism from
    ``group.masks`` (XOR) to ℤ/2: f(x ⊕ g) = f(x) ⊕ f(g) for every x and
    every g in the group's generating set.

    Bit 0 cancels on the left, so for one g the check is bit x ⊕ g ⊕ bit x
    = f(g) at every element x, and it is decided for every x at once: the
    row ``moved``, whose bit x is bit x ⊕ g of ``row``, is XORed with
    ``row`` and cut to the elements (:attr:`~ComponentGroup.even_dims`),
    which must give all of them when f(g) = 1 and none when f(g) = 0.
    ``moved`` swaps, for each set bit 2^i of g, the bits at x and x + 2^i
    for every x < 2^|basis| with bit i clear (the set bits of ``low``); the
    swaps commute and compose to x ↦ x ⊕ g, and every element is below
    2^|basis|.  So the verdict is the one of the check at each x, at
    O(rank) big-integer operations on rows of 2^|basis| bits.
    """
    even = group.even_dims
    span = (1 << (1 << len(group.basis))) - 1  # every x < 2^|basis|
    for g in group.generators:
        moved, bits = row, g
        while bits:
            w = bits & -bits  # 2^i for a set bit i of g
            bits ^= w
            # the x with bit i clear: runs of w ones every 2w bits
            low = span // ((1 << 2 * w) - 1) * ((1 << w) - 1)
            moved = (moved & low) << w | (moved >> w) & low
        if (moved ^ row) & even != (even if (row >> g ^ row) & 1 else 0):
            return False
    return True


def _is_multiplicative(groupW, groupV, rowW: int, rowV: int) -> bool:
    """Whether χ(x, y) = valW[x]·valV[y] is a character of 𝒮_W × 𝒮_V, where
    valW[x] = (−1)^{bit x of rowW} and valV[y] = (−1)^{bit y of rowV}.

    The groups' masks are groups under XOR.  Criterion: χ is multiplicative
    iff χ(0, 0) = 1 and the normalised factors w(x) = valW[0]·valW[x] and
    u(y) = valV[0]·valV[y] are homomorphisms; and a map f with f(0) = 1 is a
    homomorphism iff f(x ⊕ g) = f(x)·f(g) for every x and every g in a
    generating set.

    Proof.  Put a = valW[0], b = valV[0], so a² = b² = 1.  If χ is
    multiplicative, χ(0, 0) = χ(0, 0)² = 1, i.e. ab = 1, hence
    χ(x, y) = ab·w(x)·u(y) = w(x)·u(y); w(x) = χ(x, 0) and u(y) = χ(0, y)
    are restrictions of χ to the subgroups 𝒮_W × 0 and 0 × 𝒮_V, so they are
    homomorphisms.  Conversely, if ab = 1 and w, u are homomorphisms, then
    χ = w·u is one on the product.  For the generating set: write
    h = g_1 ⊕ … ⊕ g_k; induction on k gives f(x ⊕ h) = f(x)·f(g_1)⋯f(g_k)
    for every x, and x = 0 gives f(h) = f(g_1)⋯f(g_k), so
    f(x ⊕ h) = f(x)·f(h).  ∎

    This certifies the |𝒮_W × 𝒮_V|² product identities of the all-pairs
    check at O(rank_W + rank_V) big-integer operations.

    The verdict is a function of (groupW.even_dims, groupV.even_dims, rowW,
    rowV), so :class:`_TableContent` keeps it once per content.
    Proof: :func:`_is_homomorphism` gives the verdict of the check at each
    element x of ``masks`` and each generator; ``masks`` are the set bits
    of ``even_dims``, and ``generators`` is a function of ``masks`` alone
    (see :attr:`ComponentGroup.generators`).  ∎
    """
    return (
        not (rowW ^ rowV) & 1  # χ(0, 0) = 1
        and _is_homomorphism(groupW, rowW)
        and _is_homomorphism(groupV, rowV)
    )


class DichotomyReport(_Value):
    _fields = ("ok", "chi", "factor_wplus_vminus", "factor_wminus_vplus")

    def __init__(self, ok: bool, chi: int, factor_wplus_vminus: int,
                 factor_wminus_vplus: int) -> None:
        self.__dict__.update(ok=ok, chi=chi,
                             factor_wplus_vminus=factor_wplus_vminus,
                             factor_wminus_vplus=factor_wminus_vplus)

    def breakdown(self) -> dict:
        return {
            "chi": self.chi,
            "factor_wplus_vminus": self.factor_wplus_vminus,
            "factor_wminus_vplus": self.factor_wminus_vplus,
            "product": self.factor_wplus_vminus * self.factor_wminus_vplus,
            "ok": self.ok,
        }


# The eight possible reports, shared by every table: index bits 2, 1 and 0
# are set when factor_wplus_vminus, factor_wminus_vplus and χ are −1.
_REPORTS = tuple(
    DichotomyReport(f1 * f2 == chi, chi, f1, f2)
    for f1 in (1, -1)
    for f2 in (1, -1)
    for chi in (1, -1)
)


@lru_cache(maxsize=None, typed=True)
def _reduced_pool(symplectic: bool, max_k: int) -> tuple[IrredRep, ...]:
    """The O-type irreducibles with k ≤ max_k of one ambient, one object each.

    Every enumeration with the same bounds builds its parameters from these
    same objects, so the memo lookups of :func:`_pair_exponent` find their
    keys by identity instead of comparing twists.  ``max_k`` must be an
    exact non-negative int; the key holds the types too, so a bool or a
    float equal to a cached int misses the cache and is refused, warm or
    cold.
    """
    if type(max_k) is not int:
        raise TypeError("max_k must be an integer")
    if max_k < 0:
        raise ValueError(f"max_k must be non-negative, got {max_k}")
    if symplectic:
        return tuple(DiscRep(k) for k in range(1, max_k + 1, 2))
    return (CharRep(0), CharRep(1)) + tuple(
        DiscRep(k) for k in range(2, max_k + 1, 2)
    )


def enumerate_reduced(V: QuadSpace, max_k: int) -> list[LParameter]:
    """All reduced parameters for SO(V) with discrete pieces D_k, k ≤ max_k.

    Reduced means multiplicity-free and all O-type: distinct D_odd in the
    symplectic ambient, and 1/sgn/distinct D_even in the orthogonal ambient,
    filling the required dimension ``want`` exactly.

    The parameters are the subsets of :func:`_reduced_pool` of dimension
    ``want``, listed by size r and, within one size, in the order of
    ``combinations(pool, r)``; each is built directly, with no scan, and
    with its :attr:`~LParameter.reduced` and :attr:`~LParameter.group`
    already set.

    Proof.  A subset of r pieces holding c characters (dimension 1) and
    r − c discs (dimension 2) has dimension c + 2(r − c), so it has dimension
    ``want`` iff c = 2r − want; hence want/2 ≤ r ≤ want, and, as the pool
    holds two characters in the orthogonal ambient and none in the
    symplectic one, r ≤ (want + that count)/2: the other sizes list nothing
    and are not visited.  The characters lead
    the pool, so the index tuple of such a subset is its c character indices
    followed by its r − c disc indices.  For fixed r all these tuples have the
    same c, and they compare lexicographically by the character part first,
    so ``combinations(pool, r)`` meets them in the order of
    ``product(combinations(chars, c), combinations(discs, r − c))``, which is
    empty exactly when the pool holds fewer than c characters or r − c
    discs.  ∎

    Each parameter is built directly, not through :func:`validate`, which
    could raise none of its three errors here: every piece of the pool is
    O-type for the ambient of ``V`` (D_odd is symplectic, 1, sgn and D_even
    are orthogonal; :func:`~gpkit.weilrep.self_dual_type`), so there is no
    Sp-type piece (:class:`OddSpMultiplicity`) and no GL-type piece
    (:class:`UnpairedGLType`); the pieces of a subset are distinct, so the
    parameter is multiplicity-free; and its dimension is ``want`` by the
    proof above (:class:`DimMismatch`).  ``validate`` stays the check of
    parameters read from JSON, and the scan oracle
    ``tests/gp_reference.enumerate_reduced_by_scan`` validates every subset.

    The same facts fix the two cached fields.  Every piece is O-type with
    multiplicity one, so :func:`is_reduced` holds.  The pool is listed in
    the canonical order of a ``WeilRep`` (characters by a, then discs by
    k, all untwisted), so the pieces cs + ds of a subset, in pool order, are
    the constituents of its ``WeilRep`` in order, every one O-type: they
    are the basis that :func:`component_group` reads.  The group is taken
    from ``_GROUPS``, one :class:`ComponentGroup` per basis for the
    process, so its masks, generators and V-side slot planes are built
    once per basis, whatever the space, the sweep unit or the call that
    lists it.  The memo holds one group per distinct basis enumerated (62
    for every unit of ``verify dichotomy --max-dim 10 --max-k 9``).
    """
    pool = _reduced_pool(bool(V.dim % 2), max_k)
    want = V.dim - 1 if V.dim % 2 else V.dim
    nchars = 0 if V.dim % 2 else 2
    chars, discs = pool[:nchars], pool[nchars:]
    groups, params = _GROUPS, []
    for r in range((want + 1) // 2, min(want, (want + nchars) // 2) + 1):
        for cs, ds in product(
            combinations(chars, 2 * r - want), combinations(discs, want - r)
        ):
            basis = cs + ds
            phi = LParameter(WeilRep(basis), V)
            phi.__dict__.update(
                reduced=True,
                group=groups.get(basis)
                or groups.setdefault(basis, ComponentGroup(basis)),
            )
            params.append(phi)
    return params


# The component group of each basis that enumerate_reduced lists, kept for
# the process: one entry per distinct basis enumerated.
_GROUPS: dict[tuple[IrredRep, ...], ComponentGroup] = {}


def reduced_gp_pairs(dw: int, dv: int, max_k: int):
    """The reduced pairs (pieces D_k, k ≤ max_k) that the χ sweep checks for
    dim W = dw, dim V = dv, dv − dw odd, on one representative admissible
    pair of spaces W = (dw, 0), V = (dw + a, dv − dw − a), a = ⌈(dv − dw)/2⌉:
    phiW outer, phiV inner, V's parameters enumerated once and shared.

    The two spaces are checked once, by the check :func:`make_gp_pair`
    makes per pair, and every pair shares that one :class:`AdmissiblePair`.
    Starting the family empties the memo of the tables' content records
    (``_CONTENTS``), so that it holds one unit's contents.
    """
    a = (dv - dw + 1) // 2
    W, V = QuadSpace(dw, 0), QuadSpace(dw + a, dv - dw - a)
    pair = _gp_spaces(W, V)
    _CONTENTS.clear()
    paramsV = enumerate_reduced(V, max_k)
    for phiW in enumerate_reduced(W, max_k):
        for phiV in paramsV:
            yield GPPair(phiW, phiV, pair)


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
