"""Semisimple class data in real special orthogonal groups.

A class datum κ is a list of factors, each describing an elliptic or split
piece of a semisimple element together with the quadratic plane(s) it acts
on:

* ``CFieldFactor(angle, c)`` — a rotation by angle·π on a definite plane of
  sign ``c`` (eigenvalues e^{±i·angle·π});
* ``RSplitFactor(t)`` — a real split pair (t, 1/t) on a hyperbolic plane;
* ``CSplitFactor(w)`` — a complex split quadruple (w, w̄, 1/w, 1/w̄) on a
  (2,2)-block, ``w`` a nonzero rational point off the real axis or not.

Construction is permissive: degenerate values (angle 0, |t| = 1, real or
unit-circle ``w``) are representable, and :func:`is_regular` decides whether
the class is regular semisimple.  Eigenvalues are tracked exactly: either a
rational point of the unit circle or a symbolic ``("cis", a)`` token — by
Niven's theorem the two kinds never collide, so token comparison is sound.

On top of the raw data sit the membership predicates for the incidence sets
used in the multiplicity and theta correspondences (Ξ-sets, the correspondence
set C_{V,W}) and exhaustive verifiers for the union and fiber statements that
drive the sign dichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Union

from .quadspace import (
    NotAdmissible,
    QuadSpace,
    is_admissible_pair,
    is_quasi_split,
    kottwitz_sign,
    pure_inner_forms,
    quasi_split_form,
)

__all__ = [
    "CFieldFactor",
    "RSplitFactor",
    "CSplitFactor",
    "FactorDatum",
    "KappaDatum",
    "MismatchedSignVector",
    "BadParity",
    "factor_signature",
    "factor_eigenvalues",
    "token_to_complex",
    "is_regular",
    "iota",
    "is_in_Xi_reg_V",
    "XiRegResult",
    "is_in_Xi_dVdW",
    "is_in_C_VW",
    "verify_union_prop",
    "verify_fiber_lemma",
    "verify_fiber_union",
    "CheckReport",
    "make_regular_kappa",
    "kappa_shapes",
]


class MismatchedSignVector(ValueError):
    """Sign vector length differs from the number of elliptic factors."""


class BadParity(ValueError):
    """A line datum was supplied/omitted against the parity of the space."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True, order=True)
class CFieldFactor:
    """Rotation by ``angle``·π on a definite plane of sign ``c``.

    The factor of opposite sign is built once, on first request, by
    :meth:`with_sign`; the two share the angle and the regularity data, which
    do not depend on ``c``.
    """

    angle: Fraction
    c: int = 1

    def __post_init__(self):
        a = _frac(self.angle) % 2
        object.__setattr__(self, "angle", a)
        if self.c not in (1, -1):
            raise ValueError("plane sign c must be +1 or -1")
        object.__setattr__(self, "_regularity", (a in (0, 1), _iso_class(self)))
        object.__setattr__(self, "_twin", None)

    def with_sign(self, c: int) -> "CFieldFactor":
        """This rotation on a plane of sign ``c``."""
        if c == self.c:
            return self
        if c != -self.c:
            raise ValueError("plane sign c must be +1 or -1")
        twin = self._twin
        if twin is None:
            twin = object.__new__(CFieldFactor)
            twin.__dict__.update(self.__dict__, c=c, _twin=self)
            object.__setattr__(self, "_twin", twin)
        return twin


@dataclass(frozen=True, order=True)
class RSplitFactor:
    """Real split eigenvalue pair (t, 1/t) on a hyperbolic plane."""

    t: Fraction

    def __post_init__(self):
        t = _frac(self.t)
        if t == 0:
            raise ValueError("split eigenvalue t must be nonzero")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_regularity", (t in (1, -1), _iso_class(self)))


@dataclass(frozen=True, order=True)
class CSplitFactor:
    """Complex split eigenvalue quadruple (w, w̄, 1/w, 1/w̄) on a (2,2)-block."""

    w: tuple[Fraction, Fraction]

    def __post_init__(self):
        re, im = self.w
        re, im = _frac(re), _frac(im)
        if re == 0 and im == 0:
            raise ValueError("complex split eigenvalue w must be nonzero")
        object.__setattr__(self, "w", (re, im))
        degenerate = im == 0 or re * re + im * im == 1
        object.__setattr__(self, "_regularity", (degenerate, _iso_class(self)))


FactorDatum = Union[CFieldFactor, RSplitFactor, CSplitFactor]


def factor_signature(f: FactorDatum) -> tuple[int, int]:
    """Signature of the quadratic block the factor acts on."""
    if isinstance(f, CFieldFactor):
        return (2, 0) if f.c == 1 else (0, 2)
    if isinstance(f, RSplitFactor):
        return (1, 1)
    return (2, 2)


# Exact eigenvalue tokens.  A rational point of the unit circle is stored as
# ("c", re, im); a genuinely transcendental-coordinate rotation stays symbolic
# as ("cis", a) meaning e^{i·a·π}.  Niven: cos(aπ) and sin(aπ) are both
# rational only for a ∈ {0, 1/2, 1, 3/2}, so the two encodings never overlap.

_HALF_TURNS = {
    Fraction(0): (Fraction(1), Fraction(0)),
    Fraction(1, 2): (Fraction(0), Fraction(1)),
    Fraction(1): (Fraction(-1), Fraction(0)),
    Fraction(3, 2): (Fraction(0), Fraction(-1)),
}


def _cis_token(a: Fraction):
    a = a % 2
    if a in _HALF_TURNS:
        re, im = _HALF_TURNS[a]
        return ("c", re, im)
    return ("cis", a)


def factor_eigenvalues(f: FactorDatum) -> tuple:
    if isinstance(f, CFieldFactor):
        return (_cis_token(f.angle), _cis_token(-f.angle))
    if isinstance(f, RSplitFactor):
        return (("c", f.t, Fraction(0)), ("c", 1 / f.t, Fraction(0)))
    re, im = f.w
    n = re * re + im * im
    return (
        ("c", re, im),
        ("c", re, -im),
        ("c", re / n, -im / n),
        ("c", re / n, im / n),
    )


def token_to_complex(tok) -> complex:
    import cmath
    import math

    if tok[0] == "c":
        return complex(tok[1], tok[2])
    return cmath.exp(1j * math.pi * float(tok[1]))


@dataclass(frozen=True)
class KappaDatum:
    """A class datum: its factors, with the signature, the number of definite
    planes and their sign sum computed once at construction."""

    factors: tuple[FactorDatum, ...]

    def __init__(self, factors: Iterable[FactorDatum] = ()):
        factors = tuple(factors)
        p = q = n = sum_c = 0
        for f in factors:
            fp, fq = factor_signature(f)
            p += fp
            q += fq
            if isinstance(f, CFieldFactor):
                n += 1
                sum_c += f.c
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_invariants", (p, q, n, sum_c))

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    @property
    def dim(self) -> int:
        p, q, _, _ = self._invariants
        return p + q

    @property
    def signature(self) -> tuple[int, int]:
        return self._invariants[:2]

    def cfield_factors(self) -> tuple[CFieldFactor, ...]:
        return tuple(f for f in self.factors if isinstance(f, CFieldFactor))

    @property
    def n_elliptic(self) -> int:
        """|I*|: the number of definite (elliptic) planes."""
        return self._invariants[2]

    @property
    def sum_c(self) -> int:
        return self._invariants[3]

    @property
    def prod_c(self) -> int:
        # (n − Σc)/2 of the n signs are −1
        _, _, n, sum_c = self._invariants
        return -1 if (n - sum_c) // 2 % 2 else 1

    def with_signs(self, signs: Iterable[int]) -> "KappaDatum":
        """Replace the definite-plane signs, preserving everything else."""
        signs = tuple(signs)
        if len(signs) != self.n_elliptic:
            raise MismatchedSignVector(
                f"{len(signs)} signs for {self.n_elliptic} definite planes"
            )
        it = iter(signs)
        return KappaDatum(
            f.with_sign(next(it)) if isinstance(f, CFieldFactor) else f
            for f in self.factors
        )

    def eigenvalue_tokens(self) -> list:
        toks = []
        for f in self.factors:
            toks.extend(factor_eigenvalues(f))
        return toks


def _iso_class(f: FactorDatum) -> frozenset:
    """Invariant separating factors with distinct eigenvalue sets."""
    return frozenset(factor_eigenvalues(f))


def is_regular(kappa: KappaDatum) -> bool:
    """Regular semisimple: distinct eigenvalues within and across factors,
    and no eigenvalue ±1 (which would enlarge the centralizer).

    Reads each factor's regularity data (degenerate flag, eigenvalue set),
    computed once when the factor was built.
    """
    classes = set()
    for f in kappa.factors:
        degenerate, cls = f._regularity
        if degenerate or cls in classes:
            return False
        classes.add(cls)
    return True


def iota(V: QuadSpace, kappa: KappaDatum) -> int:
    """Sign of the fixed line a class with ``n_elliptic`` definite planes
    leaves in an odd-dimensional space: (−1)^{(1−Δ_V)/2 + |I*|}."""
    if V.dim % 2 == 0:
        raise BadParity("the fixed-line sign is defined for odd dimension only")
    return -1 if ((1 - V.delta) // 2 + kappa.n_elliptic) % 2 else 1


@dataclass(frozen=True)
class XiRegResult:
    member: bool
    line: Optional[QuadSpace] = None


def is_in_Xi_reg_V(kappa: KappaDatum, V: QuadSpace) -> XiRegResult:
    """Does κ occur as a (regular) class of SO(V)?

    Equivalently: the signature of κ fills V exactly — in odd dimension up to
    one leftover line whose sign is forced to 𝔦_{V,κ}; that line is returned.
    """
    if V.dim % 2 == 0:
        member = kappa.dim == V.dim and 2 * kappa.sum_c == V.delta
        return XiRegResult(member)
    i = iota(V, kappa)
    member = kappa.dim == V.dim - 1 and 2 * kappa.sum_c == V.delta - i
    line = QuadSpace(1, 0) if i == 1 else QuadSpace(0, 1)
    return XiRegResult(member, line if member else None)


def is_in_Xi_dVdW(kappa: KappaDatum, d_V: int, d_W: int) -> bool:
    """Elliptic regular classes small enough to occur on both sides."""
    if kappa.n_elliptic != len(kappa):
        return False
    return is_regular(kappa) and 2 * len(kappa) <= min(d_V, d_W)


def _embeds_with_qs_complement(kappa: KappaDatum, space: QuadSpace) -> bool:
    p, q = kappa.signature
    if p > space.p or q > space.q:
        return False
    return is_quasi_split(QuadSpace(space.p - p, space.q - q))


def is_in_C_VW(kappa: KappaDatum, W: QuadSpace, V: QuadSpace) -> bool:
    """Membership in the correspondence set C_{V,W} of the admissible pair.

    The constraint sits on the odd-dimensional member: the class must embed
    there with quasi-split complement.  For odd W that is a condition inside
    W; for even W the pair has odd V and the condition lives inside V.
    """
    if is_admissible_pair(W, V) is None:
        raise NotAdmissible(f"({W}, {V}) is not an admissible pair")
    if not is_in_Xi_dVdW(kappa, V.dim, W.dim):
        return False
    side = W if W.dim % 2 else V
    return _embeds_with_qs_complement(kappa, side)


# ---------------------------------------------------------------------------
# Exhaustive verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    kind: str
    passed: bool
    lhs: tuple
    rhs: tuple
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def _sign_vectors(n: int):
    return product((1, -1), repeat=n)


def _signed_data(kappa: KappaDatum) -> list:
    """Each sign vector c with the class datum carrying those signs."""
    return [(c, kappa.with_signs(c)) for c in _sign_vectors(kappa.n_elliptic)]


def _sorted_sets(vectors) -> tuple:
    return tuple(sorted(vectors, reverse=True))


def _fourth_root_sign(n: int) -> Optional[int]:
    """i^n as ±1, or None when imaginary."""
    n %= 4
    if n == 0:
        return 1
    if n == 2:
        return -1
    return None


def verify_union_prop(
    kappa: KappaDatum,
    V: QuadSpace,
    e0: int,
    D: Optional[QuadSpace] = None,
) -> CheckReport:
    """Check that the Ξ-membership sign vectors over the pure inner forms with
    a prescribed invariant match a single product-of-signs coset.

    Odd dim V: forms V_α are selected by Kottwitz sign e(V_α) = e0 and no line
    datum is accepted.  Even dim V: a line D of signature (1,0) or (0,1) must
    be supplied and the selector is e(SO(V_α ⊥ D)) = e0.  The predicted side
    is {c : Πc = e0·ε}; when the exact fourth root ε comes out imaginary the
    predicted set is empty.

    The class datum must have the matching total dimension (its definite-plane
    signs are swept, everything else is fixed).
    """
    if e0 not in (1, -1):
        raise ValueError("e0 must be +1 or -1")
    odd = V.dim % 2 == 1
    if odd and D is not None:
        raise BadParity("no line datum is accepted in odd dimension")
    if not odd:
        if D is None or D.dim != 1:
            raise BadParity("even dimension needs a line datum of dimension 1")
    expected_dim = V.dim - 1 if odd else V.dim
    if kappa.dim != expected_dim:
        raise ValueError(
            f"class of dimension {kappa.dim} cannot fill SO({V.p},{V.q})"
        )

    n = kappa.n_elliptic
    signed = _signed_data(kappa)
    lhs = set()
    selected = []
    for Va in pure_inner_forms(V):
        if kottwitz_sign(Va if odd else Va.orthogonal_sum(D)) != e0:
            continue
        selected.append((Va.p, Va.q))
        for c, kc in signed:
            if is_in_Xi_reg_V(kc, Va).member:
                lhs.add(c)
    if odd:
        N = (
            -quasi_split_form(V).p
            + n
            + (V.dim + iota(V, kappa)) // 2
        )
    else:
        sig_d = 1 if D.p == 1 else -1
        N = (
            n
            + (V.dim + 1 + sig_d) // 2
            - quasi_split_form(V.orthogonal_sum(D)).p
        )

    eps = _fourth_root_sign(N)
    if eps is None:
        rhs = set()
    else:
        rhs = {c for c in _sign_vectors(n) if _prod(c) == e0 * eps}

    details = {
        "exponent": N % 4,
        "epsilon": eps if eps is not None else "imaginary",
        "selected_forms": selected,
        "n_elliptic": n,
    }
    if n == 0:
        details["degenerate"] = "no definite planes"
    return CheckReport(
        "union", lhs == rhs, _sorted_sets(lhs), _sorted_sets(rhs), details
    )


def _prod(signs) -> int:
    out = 1
    for s in signs:
        out *= s
    return out


def verify_fiber_lemma(
    kappa: KappaDatum, W: QuadSpace, V: QuadSpace
) -> CheckReport:
    """Check that the C_{V,W}-fiber over an elliptic class is the predicted
    fixed-sum slice {c : Σc = (Δ − 𝔦)/2} of the sign hypercube, the invariants
    taken on the odd-dimensional member of the pair."""
    pair = is_admissible_pair(W, V)
    if pair is None:
        raise NotAdmissible(f"({W}, {V}) is not an admissible pair")
    if not is_in_Xi_dVdW(kappa, V.dim, W.dim):
        raise ValueError("the class must be elliptic regular with 2|I| ≤ min dims")

    n = kappa.n_elliptic
    fiber = {c for c, kc in _signed_data(kappa) if is_in_C_VW(kc, W, V)}
    if W.dim % 2:
        target = (W.delta - iota(W, kappa)) // 2
    else:
        target = (V.delta - iota(V, kappa)) // 2
    predicted = {c for c in _sign_vectors(n) if sum(c) == target}

    details = {"target_sum": target, "n_elliptic": n}
    if n == 0:
        details["degenerate"] = "no definite planes"
    return CheckReport(
        "fiber",
        fiber == predicted,
        _sorted_sets(fiber),
        _sorted_sets(predicted),
        details,
    )


def verify_fiber_union(
    kappa: KappaDatum, W: QuadSpace, V: QuadSpace, e0: int
) -> CheckReport:
    """Check that the union of C-fibers across the relevant family of pairs
    with a prescribed invariant is the coset {c : Πc = e0·ε}.

    Odd dim W: the family is (W_α, W_α ⊥ W^⊥) over pure inner forms W_α with
    Kottwitz sign e0.  Even dim W: the family varies the odd member instead —
    pure inner forms V_α of V with Kottwitz sign e0, the membership condition
    living entirely on the V_α side.
    """
    if e0 not in (1, -1):
        raise ValueError("e0 must be +1 or -1")
    pair = is_admissible_pair(W, V)
    if pair is None:
        raise NotAdmissible(f"({W}, {V}) is not an admissible pair")
    if not is_in_Xi_dVdW(kappa, V.dim, W.dim):
        raise ValueError("the class must be elliptic regular with 2|I| ≤ min dims")

    n = kappa.n_elliptic
    signed = _signed_data(kappa)
    lhs = set()
    selected = []
    if W.dim % 2:
        perp = QuadSpace(V.p - W.p, V.q - W.q)
        for Wa in pure_inner_forms(W):
            if kottwitz_sign(Wa) != e0:
                continue
            Va = Wa.orthogonal_sum(perp)
            selected.append(((Wa.p, Wa.q), (Va.p, Va.q)))
            for c, kc in signed:
                if is_in_C_VW(kc, Wa, Va):
                    lhs.add(c)
        N = (
            -quasi_split_form(W).p
            + n
            + (W.dim + iota(W, kappa)) // 2
        )
    else:
        D = pair.line
        sig_d = pair.d_sign
        for Va in pure_inner_forms(V):
            if kottwitz_sign(Va) != e0:
                continue
            selected.append((Va.p, Va.q))
            for c, kc in signed:
                if is_in_Xi_dVdW(kc, V.dim, W.dim) and _embeds_with_qs_complement(
                    kc, Va
                ):
                    lhs.add(c)
        N = (
            n
            - (V.delta - iota(V, kappa)) // 2
            + (W.dim + 1 + W.delta + sig_d) // 2
            - quasi_split_form(W.orthogonal_sum(D)).p
        )

    eps = _fourth_root_sign(N)
    if eps is None:
        rhs = set()
    else:
        rhs = {c for c in _sign_vectors(n) if _prod(c) == e0 * eps}

    details = {
        "exponent": N % 4,
        "epsilon": eps if eps is not None else "imaginary",
        "selected": selected,
        "n_elliptic": n,
    }
    if n == 0:
        details["degenerate"] = "no definite planes"
    return CheckReport(
        "fiber-union", lhs == rhs, _sorted_sets(lhs), _sorted_sets(rhs), details
    )


# ---------------------------------------------------------------------------
# Shape sweeps
# ---------------------------------------------------------------------------

def make_regular_kappa(
    n_cfield: int, n_rsplit: int = 0, n_csplit: int = 0
) -> KappaDatum:
    """A representative regular class with the requested block counts.

    Angles are distinct points of (0, 1), split eigenvalues distinct integers
    ≥ 2, complex ones distinct non-real points off the unit circle; all
    definite-plane signs start at +1.
    """
    facs: list[FactorDatum] = []
    denom = 2 * n_cfield + 1
    for j in range(n_cfield):
        facs.append(CFieldFactor(Fraction(2 * j + 1, denom), 1))
    for j in range(n_rsplit):
        facs.append(RSplitFactor(Fraction(j + 2)))
    for j in range(n_csplit):
        facs.append(CSplitFactor((Fraction(j + 2), Fraction(1))))
    return KappaDatum(facs)


def kappa_shapes(total_dim: int):
    """All block-count triples (n_cfield, n_rsplit, n_csplit) of a given total
    dimension, as concrete representative class data."""
    out = []
    for ns in range(total_dim // 4 + 1):
        rest = total_dim - 4 * ns
        for nr in range(rest // 2 + 1):
            nc = (rest - 2 * nr) // 2
            if 2 * nc + 2 * nr + 4 * ns != total_dim:
                continue
            out.append(make_regular_kappa(nc, nr, ns))
    return out
