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
drive the sign dichotomy; :func:`union_cases` and :func:`fiber_cases` list
the checks of each sweep unit.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, lru_cache
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Union

from .quadspace import (
    AdmissiblePair,
    QuadSpace,
    _Ordered,
    _Value,
    _as_fraction,
    _is_sign,
    _signature_is_quasi_split,
    _space,
    admissible_pair,
    is_admissible_pair,
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
    "is_regular",
    "iota",
    "is_in_Xi_reg_V",
    "XiRegResult",
    "is_in_Xi_dVdW",
    "verify_union_prop",
    "verify_fiber_lemma",
    "verify_fiber_union",
    "CheckReport",
    "make_regular_kappa",
    "kappa_shapes",
    "union_cases",
    "fiber_cases",
]


class MismatchedSignVector(ValueError):
    """Sign vector length differs from the number of elliptic factors."""


class BadParity(ValueError):
    """A line datum was supplied/omitted against the parity of the space."""


class CFieldFactor(_Ordered, _Value):
    """Rotation by ``angle``·π on a definite plane of sign ``c``.

    :meth:`with_sign` builds the factor of opposite sign without running the
    constructor again; the two share the angle and the regularity data, which
    do not depend on ``c``.
    """

    _fields = ("angle", "c")

    def __init__(self, angle: Fraction | int | str, c: int = 1) -> None:
        a = _as_fraction(angle) % 2
        if not _is_sign(c):
            raise ValueError("plane sign c must be +1 or -1")
        self.__dict__.update(angle=a, c=c)
        self.__dict__["_regularity"] = (a in (0, 1), _iso_class(self))

    def with_sign(self, c: int) -> "CFieldFactor":
        """This rotation on a plane of sign ``c``."""
        if not _is_sign(c):
            raise ValueError("plane sign c must be +1 or -1")
        if c == self.c:
            return self
        flipped = object.__new__(CFieldFactor)
        flipped.__dict__.update(self.__dict__, c=c)
        return flipped


class RSplitFactor(_Ordered, _Value):
    """Real split eigenvalue pair (t, 1/t) on a hyperbolic plane."""

    _fields = ("t",)

    def __init__(self, t: Fraction | int | str) -> None:
        t = _as_fraction(t)
        if t == 0:
            raise ValueError("split eigenvalue t must be nonzero")
        self.__dict__["t"] = t
        self.__dict__["_regularity"] = (t in (1, -1), _iso_class(self))


class CSplitFactor(_Ordered, _Value):
    """Complex split eigenvalue quadruple (w, w̄, 1/w, 1/w̄) on a (2,2)-block."""

    _fields = ("w",)

    def __init__(self, w: tuple[Fraction, Fraction]) -> None:
        re, im = w
        re, im = _as_fraction(re), _as_fraction(im)
        if re == 0 and im == 0:
            raise ValueError("complex split eigenvalue w must be nonzero")
        self.__dict__["w"] = (re, im)
        degenerate = im == 0 or re * re + im * im == 1
        self.__dict__["_regularity"] = (degenerate, _iso_class(self))


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


class KappaDatum(_Value):
    """A class datum: its factors, and the datum under every sign vector
    (:attr:`signed`), built once, on first request.

    ``dim``, ``signature``, ``n_elliptic`` (the number of definite planes),
    ``sum_c`` (their sign sum), whether every factor is elliptic and whether
    the class is regular (:func:`is_regular`) are stored invariants: computed
    once at construction, never part of equality, hashing or the repr, which
    see ``factors`` only.

    Regularity is a function of ``factors`` alone: it reads each factor's
    regularity data (degenerate flag, eigenvalue set), which the factor's
    constructor derives from its own frozen fields, and ``factors`` is a
    tuple of frozen factors that no method rebinds.  So the flag computed
    here stays right for the datum's whole life, and it stays right on every
    copy: :meth:`with_signs` builds through ``__init__``, from factors whose
    ``with_sign`` shares the regularity data (it does not depend on the
    sign), and a pickle round trip or a copy restores the stored attributes
    with ``__dict__``, without running the constructor.
    """

    _fields = ("factors",)

    def __init__(self, factors: Iterable[FactorDatum] = ()):
        factors = tuple(factors)
        p = q = n = sum_c = 0
        regular = True
        classes = set()
        for f in factors:  # no early exit: every invariant needs every factor
            fp, fq = factor_signature(f)
            p += fp
            q += fq
            if isinstance(f, CFieldFactor):
                n += 1
                sum_c += f.c
            degenerate, cls = f._regularity
            if degenerate or cls in classes:
                regular = False
            classes.add(cls)
        self.__dict__.update(
            factors=factors,
            dim=p + q,
            signature=(p, q),
            n_elliptic=n,
            sum_c=sum_c,
            _all_elliptic=n == len(factors),
            _regular=regular,
        )

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

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

    @cached_property
    def signed(self) -> tuple[tuple[tuple[int, ...], "KappaDatum"], ...]:
        """(c, κ_c) for every sign vector c of the definite planes, in
        :func:`_sign_vectors` order, κ_c = ``self.with_signs(c)``."""
        return tuple(
            (c, self.with_signs(c)) for c in _sign_vectors(self.n_elliptic)
        )


def _iso_class(f: FactorDatum) -> frozenset:
    """Invariant separating factors with distinct eigenvalue sets."""
    return frozenset(factor_eigenvalues(f))


def is_regular(kappa: KappaDatum) -> bool:
    """Regular semisimple: distinct eigenvalues within and across factors,
    and no eigenvalue ±1 (which would enlarge the centralizer).

    The flag is stored on the datum when it is built (see
    :class:`KappaDatum`): no degenerate factor, and pairwise distinct
    eigenvalue sets across the factors.
    """
    return kappa._regular


def iota(V: QuadSpace, kappa: KappaDatum) -> int:
    """Sign of the fixed line a class with ``n_elliptic`` definite planes
    leaves in an odd-dimensional space: (−1)^{(1−Δ_V)/2 + |I*|}."""
    if V.dim % 2 == 0:
        raise BadParity("the fixed-line sign is defined for odd dimension only")
    return -1 if ((1 - V.delta) // 2 + kappa.n_elliptic) % 2 else 1


class XiRegResult(_Value):
    _fields = ("member", "line")

    def __init__(self, member: bool, line: Optional[QuadSpace] = None) -> None:
        self.__dict__.update(member=member, line=line)


# The four possible results, shared by every call.
_NOT_MEMBER = XiRegResult(False)
_MEMBER = XiRegResult(True)
_MEMBER_WITH_LINE = {
    1: XiRegResult(True, QuadSpace(1, 0)),
    -1: XiRegResult(True, QuadSpace(0, 1)),
}


def is_in_Xi_reg_V(kappa: KappaDatum, V: QuadSpace) -> XiRegResult:
    """Does κ occur as a (regular) class of SO(V)?

    Equivalently: the signature of κ fills V exactly — in odd dimension up to
    one leftover line whose sign is forced to 𝔦_{V,κ}; that line is returned.
    """
    d, delta = V.dim, V.delta
    if d % 2 == 0:
        member = kappa.dim == d and 2 * kappa.sum_c == delta
        return _MEMBER if member else _NOT_MEMBER
    i = iota(V, kappa)
    if kappa.dim == d - 1 and 2 * kappa.sum_c == delta - i:
        return _MEMBER_WITH_LINE[i]
    return _NOT_MEMBER


def is_in_Xi_dVdW(kappa: KappaDatum, d_V: int, d_W: int) -> bool:
    """Elliptic regular classes small enough to occur on both sides."""
    if not kappa._all_elliptic:
        return False
    return is_regular(kappa) and 2 * kappa.n_elliptic <= min(d_V, d_W)


def _embeds_with_qs_complement(kappa: KappaDatum, space: QuadSpace) -> bool:
    p, q = kappa.signature
    if p > space.p or q > space.q:
        return False
    return _signature_is_quasi_split(space.p - p, space.q - q)


# ---------------------------------------------------------------------------
# Exhaustive verifiers
# ---------------------------------------------------------------------------

class CheckReport(_Value):
    _fields = ("kind", "passed", "lhs", "rhs", "details")

    def __init__(self, kind: str, passed: bool, lhs: tuple, rhs: tuple,
                 details: Optional[dict] = None) -> None:
        self.__dict__.update(kind=kind, passed=passed, lhs=lhs, rhs=rhs,
                             details={} if details is None else details)

    def __bool__(self):
        return self.passed


def _sign_vectors(n: int):
    """The sign vectors of length n, in descending tuple order."""
    return product((1, -1), repeat=n)


# The sweeps below take each κ_c from ``kappa.signed``, built once per datum,
# with forms in the outer loop and sign vectors in the inner one, so the
# predicates whose calls are counted (``is_in_Xi_reg_V``, ``is_regular``) see
# the same calls in the same order whatever they return.


def _C_sweep(kappa: KappaDatum, d_V: int, d_W: int, odd_members) -> set:
    """The sign vectors c with κ_c in C_{V_α,W_α} for some pair of a family
    of pairs of dimensions (d_V, d_W), each given by its odd member X_α.

    κ_c lies in C_{V,W} when it is elliptic, regular and small
    (2|I| ≤ min(d_V, d_W)), and embeds in the odd member X with quasi-split
    complement.  The constraint sits on the odd member: for odd W it is a
    condition inside W, for even W the pair has odd V and it lives inside
    V.  The admissibility of the pairs is not checked here: each verifier
    makes that check once, before its sweep.

    Only the embedding depends on both X and c, and on c only through the
    signature of κ_c.  ``kappa.with_signs(c)`` rebuilds κ_c from κ's
    factors, changing only the sign of each definite plane.  So κ_c has κ's
    ``n_elliptic``, hence ``small`` is one value per call; it has κ's
    factor types, hence ``_all_elliptic`` is κ's; and each factor's
    ``with_sign`` shares its ``_regularity`` data, hence ``is_regular(κ_c)``
    is ``is_regular(κ)``.  The embedding reads ``κ_c.signature`` and X
    alone, so it is decided once per (X, signature), in a memo that starts
    empty for each X; on a miss it is looked up as a module global, so a
    test can replace it.  ``is_regular`` is still asked once per (X, c),
    after the elliptic test: its call count is a pinned benchmark identity.
    """
    signed = kappa.signed
    small = 2 * kappa.n_elliptic <= min(d_V, d_W)
    lhs = set()
    for X in odd_members:
        embeds = {}
        for c, kc in signed:
            if kc._all_elliptic and is_regular(kc) and small:
                sig = kc.signature
                fits = embeds.get(sig)
                if fits is None:
                    fits = embeds[sig] = _embeds_with_qs_complement(kc, X)
                if fits:
                    lhs.add(c)
    return lhs


def _forms_with_sign(X: QuadSpace, e0: int, D: Optional[QuadSpace] = None):
    """The pure inner forms X_α of X with e(X_α ⊥ D) = e0 (e(X_α) without D)."""
    return [
        Xa
        for Xa in pure_inner_forms(X)
        if kottwitz_sign(Xa if D is None else Xa.orthogonal_sum(D)) == e0
    ]


def _odd_side_exponent(X: QuadSpace, kappa: KappaDatum) -> int:
    """The exponent of ε for the odd-dimensional member X of the check:
    −p(X_qs) + |I*| + (dim X + 𝔦_{X,κ})/2."""
    return (
        -quasi_split_form(X).p
        + kappa.n_elliptic
        + (X.dim + iota(X, kappa)) // 2
    )


@cache
def _predicted(n: int, kind: str, v: int) -> tuple[frozenset, tuple]:
    """The predicted side of a check on n definite planes: the coset
    {c : Πc = v} (``kind`` "coset") or the slice {c : Σc = v} ("slice"), as
    a frozenset and as a tuple sorted descending; built once per (n, kind, v)
    and shared by every report."""
    rule = math.prod if kind == "coset" else sum
    signs = tuple(c for c in _sign_vectors(n) if rule(c) == v)
    return frozenset(signs), signs


# The predicted side when ε is imaginary, and the real values of ε = i^N.
_NO_SIGNS = (frozenset(), ())
_REAL_EPSILON = {0: 1, 2: -1}


def _report(kind: str, lhs: set, predicted, n: int, details: dict) -> CheckReport:
    """Compare the swept set ``lhs`` with the ``predicted`` (set, tuple).  A
    passing report shares the predicted tuple for both sides; only a failing
    one sorts ``lhs``."""
    rhs_set, rhs = predicted
    passed = lhs == rhs_set
    details["n_elliptic"] = n
    if n == 0:
        details["degenerate"] = "no definite planes"
    return CheckReport(
        kind,
        passed,
        rhs if passed else tuple(sorted(lhs, reverse=True)),
        rhs,
        details,
    )


def _coset_report(kind, lhs, n, e0, N, **selected) -> CheckReport:
    """Compare ``lhs`` with the coset {c : Πc = e0·ε} of n signs, ε = i^N;
    the coset is empty when ε is imaginary.  ``selected`` names the forms
    swept."""
    eps = _REAL_EPSILON.get(N % 4)
    predicted = _NO_SIGNS if eps is None else _predicted(n, "coset", e0 * eps)
    details = {
        "exponent": N % 4,
        "epsilon": eps if eps is not None else "imaginary",
        **selected,
    }
    return _report(kind, lhs, predicted, n, details)


def _fiber_pair(kappa: KappaDatum, W: QuadSpace, V: QuadSpace) -> AdmissiblePair:
    """The admissible pair (W, V), with κ checked to be elliptic regular and
    small enough for both sides."""
    pair = admissible_pair(W, V)
    if not is_in_Xi_dVdW(kappa, V.dim, W.dim):
        raise ValueError("the class must be elliptic regular with 2|I| ≤ min dims")
    return pair


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
    if not _is_sign(e0):
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

    forms = _forms_with_sign(V, e0, D)
    signed = kappa.signed
    lhs = {c for Va in forms for c, kc in signed if is_in_Xi_reg_V(kc, Va).member}
    if odd:
        N = _odd_side_exponent(V, kappa)
    else:
        N = (
            kappa.n_elliptic
            + (V.dim + 1 + D.delta) // 2
            - quasi_split_form(V.orthogonal_sum(D)).p
        )
    return _coset_report(
        "union",
        lhs,
        kappa.n_elliptic,
        e0,
        N,
        selected_forms=[(Va.p, Va.q) for Va in forms],
    )


def verify_fiber_lemma(
    kappa: KappaDatum, W: QuadSpace, V: QuadSpace
) -> CheckReport:
    """Check that the C_{V,W}-fiber over an elliptic class is the predicted
    fixed-sum slice {c : Σc = (Δ − 𝔦)/2} of the sign hypercube, the invariants
    taken on the odd-dimensional member of the pair."""
    _fiber_pair(kappa, W, V)
    X = W if W.dim % 2 else V
    fiber = _C_sweep(kappa, V.dim, W.dim, (X,))
    target = (X.delta - iota(X, kappa)) // 2
    n = kappa.n_elliptic
    return _report(
        "fiber", fiber, _predicted(n, "slice", target), n, {"target_sum": target}
    )


def verify_fiber_union(
    kappa: KappaDatum, W: QuadSpace, V: QuadSpace, e0: int
) -> CheckReport:
    """Check that the union of C-fibers across the relevant family of pairs
    with a prescribed invariant is the coset {c : Πc = e0·ε}.

    Odd dim W: the family is (W_α, W_α ⊥ W^⊥) over pure inner forms W_α with
    Kottwitz sign e0.  Even dim W: the family varies the odd member instead —
    pure inner forms V_α of V with Kottwitz sign e0, the membership condition
    living entirely on the V_α side.  Either way the pairs keep the
    dimensions of (W, V) and differ only in their odd member.
    """
    if not _is_sign(e0):
        raise ValueError("e0 must be +1 or -1")
    pair = _fiber_pair(kappa, W, V)
    if W.dim % 2:
        # each W_α ⟂ W^⟂ has the complement of (W, V): admissible by construction
        forms = _forms_with_sign(W, e0)
        perp = pair.w_perp
        N = _odd_side_exponent(W, kappa)
        selected = [
            ((Wa.p, Wa.q), (Wa.p + perp.p, Wa.q + perp.q)) for Wa in forms
        ]
    else:
        forms = _forms_with_sign(V, e0)
        N = (
            kappa.n_elliptic
            - (V.delta - iota(V, kappa)) // 2
            + (W.dim + 1 + W.delta + pair.d_sign) // 2
            - quasi_split_form(W.orthogonal_sum(pair.line)).p
        )
        selected = [(Va.p, Va.q) for Va in forms]
    lhs = _C_sweep(kappa, V.dim, W.dim, forms)
    return _coset_report(
        "fiber-union", lhs, kappa.n_elliptic, e0, N, selected=selected
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
    definite-plane signs start at +1.  Built once per block-count triple,
    however the counts are spelled, so the sweeps share each datum and its
    :attr:`~KappaDatum.signed` data.
    """
    if any(type(n) is not int or n < 0 for n in (n_cfield, n_rsplit, n_csplit)):
        raise ValueError("block counts must be non-negative integers")
    return _regular_kappa(n_cfield, n_rsplit, n_csplit)


@cache
def _regular_kappa(n_cfield: int, n_rsplit: int, n_csplit: int) -> KappaDatum:
    """:func:`make_regular_kappa` on checked counts, cached per triple."""
    facs: list[FactorDatum] = []
    denom = 2 * n_cfield + 1
    for j in range(n_cfield):
        facs.append(CFieldFactor(Fraction(2 * j + 1, denom), 1))
    for j in range(n_rsplit):
        facs.append(RSplitFactor(Fraction(j + 2)))
    for j in range(n_csplit):
        facs.append(CSplitFactor((Fraction(j + 2), Fraction(1))))
    return KappaDatum(facs)


@lru_cache(maxsize=None, typed=True)
def kappa_shapes(total_dim: int) -> tuple[KappaDatum, ...]:
    """All block-count triples (n_cfield, n_rsplit, n_csplit) of a given total
    dimension, as concrete representative class data; built once per
    dimension.  ``total_dim`` must be an exact int: the key holds the type
    too, so a bool or a float is refused, also when the int it equals is
    cached."""
    if type(total_dim) is not int:
        raise TypeError("the total dimension must be an integer")
    out = []
    for ns in range(total_dim // 4 + 1):
        rest = total_dim - 4 * ns
        for nr in range(rest // 2 + 1):
            nc = (rest - 2 * nr) // 2
            if 2 * nc + 2 * nr + 4 * ns != total_dim:
                continue
            out.append(make_regular_kappa(nc, nr, ns))
    return tuple(out)


def union_cases(
    d: int, p: int, e0s: tuple[int, ...]
) -> list[tuple[KappaDatum, QuadSpace, int, Optional[QuadSpace]]]:
    """The checks of one ``verify union`` unit: every (κ, V, e0, D), each
    run as ``verify_union_prop(κ, V, e0, D=D)``, with κ over
    :func:`kappa_shapes`, then e0 over ``e0s``, then D.

    V is the space (p, d − p).  Every κ has dimension d − d mod 2, so it
    fills V up to the fixed line of odd dimension.  D is ``None`` in odd
    dimension, and in even dimension the line (1, 0), then (0, 1).
    :func:`verify_union_prop` still checks these facts, being a public
    entry point.
    """
    V = _space(p, d - p)
    lines = [None] if d % 2 else [_space(1, 0), _space(0, 1)]
    return [
        (kappa, V, e0, D)
        for kappa in kappa_shapes(d - d % 2)
        for e0 in e0s
        for D in lines
    ]


def fiber_cases(
    dv: int, pv: int
) -> list[tuple[KappaDatum, QuadSpace, QuadSpace]]:
    """The checks of one ``verify fibers`` unit: every (κ, W, V), each run
    as :func:`verify_fiber_lemma` and as :func:`verify_fiber_union` at
    e0 = +1 then −1, with W by dim W ascending, then p_W ascending, and
    κ = ``make_regular_kappa(n)`` by n ascending.

    V is the space (pv, dv − pv).  W runs over every space of dimension
    below dv and is kept when (W, V) is admissible
    (:func:`~gpkit.quadspace.is_admissible_pair`).  κ is elliptic regular
    with 2n ≤ dim W < dim V, so it fits on both sides.  Both verifiers
    still check these facts, being public entry points.
    """
    V = _space(pv, dv - pv)
    # one class datum per n ≤ dim W / 2 ≤ (dv − 1) / 2, shared by every W
    kappas = [make_regular_kappa(n) for n in range((dv + 1) // 2)]
    cases = []
    for dw in range(dv):
        for pw in range(dw + 1):
            W = _space(pw, dw - pw)
            if is_admissible_pair(W, V) is not None:
                cases += [(kappa, W, V) for kappa in kappas[: dw // 2 + 1]]
    return cases
