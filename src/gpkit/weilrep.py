"""Formal algebra of tempered representations of the real Weil group.

An irreducible is either a unitary character of ℝ^× pulled back through the
abelianization, ``Char(a, t)`` = sgn^a·|·|^{it}, or the two-dimensional induced
representation ``Disc(k, t)`` = D_k ⊗ |·|^{it} with k ≥ 1.  Twists t live in
``fractions.Fraction`` so that equality (hence canonical forms, duals, tensor
bookkeeping) is exact.  Each irreducible hashes its fields once, when it is
built, since ``Fraction.__hash__`` runs in Python and irreducibles key the
memo tables of the χ sweep.

A ``WeilRep`` is a finite multiset of irreducibles.  The tensor rules are the
classical ones:

    Char(a,s) ⊗ Char(b,t) = Char(a+b mod 2, s+t)
    Char(a,s) ⊗ Disc(k,t) = Disc(k, s+t)
    Disc(k,s) ⊗ Disc(l,t) = Disc(k+l, s+t) ⊕ Disc(|k−l|, s+t)      (k ≠ l)
    Disc(k,s) ⊗ Disc(k,t) = Disc(2k, s+t) ⊕ Char(0,s+t) ⊕ Char(1,s+t)

and are cross-checked numerically by the character traces of the test
oracle ``tests/trace_reference.py``.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterable, Union

from .quadspace import (
    _Ordered,
    _Value,
    _as_fraction,
    int_field,
    json_object,
    rational_field,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CharRep",
    "DiscRep",
    "IrredRep",
    "SelfDualType",
    "WeilRep",
    "dual",
    "self_dual_type",
    "irred_dim",
    "tensor",
    "irred_to_json",
    "irred_from_json",
    "weilrep_to_json",
    "weilrep_from_json",
]


class CharRep(_Ordered, _Value):
    """The character sgn^a · |·|^{it} of W_ℝ (one-dimensional)."""

    _fields = ("a", "t")

    def __init__(self, a: int, t: Fraction | int | str = 0) -> None:
        if type(a) is not int or a not in (0, 1):
            raise ValueError("sign exponent a must be 0 or 1")
        t = _as_fraction(t)
        self.__dict__.update(a=a, t=t, _hash=hash((a, t)))

    def __hash__(self) -> int:
        return self._hash


class DiscRep(_Ordered, _Value):
    """The discrete-series parameter D_k ⊗ |·|^{it} (two-dimensional), k ≥ 1.

    D_0 is reducible (it is Char(0) ⊕ Char(1)) and is rejected here.
    """

    _fields = ("k", "t")

    def __init__(self, k: int, t: Fraction | int | str = 0) -> None:
        if type(k) is not int or k < 1:
            raise ValueError("D_k requires an integer k >= 1; D_0 is reducible "
                             "and must be entered as Char(0,t) + Char(1,t)")
        t = _as_fraction(t)
        self.__dict__.update(k=k, t=t, _hash=hash((k, t)))

    def __hash__(self) -> int:
        return self._hash


IrredRep = Union[CharRep, DiscRep]


def _sort_key(rho: IrredRep):
    if isinstance(rho, CharRep):
        return (0, rho.a, rho.t)
    return (1, rho.k, rho.t)


class SelfDualType(Enum):
    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"
    NOT_SELF_DUAL = "not-self-dual"


def irred_dim(rho: IrredRep) -> int:
    return 1 if isinstance(rho, CharRep) else 2


def dual(rho: IrredRep) -> IrredRep:
    """Contragredient: negate the unitary twist."""
    if isinstance(rho, CharRep):
        return CharRep(rho.a, -rho.t)
    return DiscRep(rho.k, -rho.t)


def self_dual_type(rho: IrredRep) -> SelfDualType:
    """Sign of the invariant pairing of a self-dual irreducible.

    Characters carry a symmetric pairing.  For D_k the invariant bilinear form
    is symmetric exactly when k is even: the form on the induced model is
    scaled by (−1)^k under the non-trivial Weil element.
    """
    if rho.t != 0:
        return SelfDualType.NOT_SELF_DUAL
    if isinstance(rho, CharRep):
        return SelfDualType.ORTHOGONAL
    return SelfDualType.ORTHOGONAL if rho.k % 2 == 0 else SelfDualType.SYMPLECTIC


class WeilRep(_Value):
    """A finite multiset of irreducible W_ℝ-representations, kept canonical."""

    _fields = ("_summands",)

    def __init__(self, items: Iterable = ()) -> None:
        if isinstance(items, Mapping):  # iterating it would read only its keys
            raise TypeError("a WeilRep takes (irreducible, mult) pairs, not a mapping")
        acc: dict[IrredRep, int] = {}
        for item in items:
            if isinstance(item, (CharRep, DiscRep)):
                rho, mult = item, 1
            else:
                rho, mult = item
                if type(mult) is not int:
                    raise TypeError(f"multiplicity must be an integer, got {mult!r}")
            if not isinstance(rho, (CharRep, DiscRep)):
                raise TypeError(f"not an irreducible: {rho!r}")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            acc[rho] = acc.get(rho, 0) + mult
        self.__dict__["_summands"] = tuple(
            sorted(acc.items(), key=lambda kv: _sort_key(kv[0]))
        )

    def mult(self, rho: IrredRep) -> int:
        for sigma, m in self._summands:
            if sigma == rho:
                return m
        return 0

    @property
    def dim(self) -> int:
        return sum(m * irred_dim(rho) for rho, m in self._summands)

    def __iter__(self):
        return iter(self._summands)

    def __len__(self) -> int:
        return len(self._summands)

    def __bool__(self) -> bool:
        return bool(self._summands)

    def __repr__(self) -> str:
        if not self._summands:
            return "WeilRep()"
        parts = []
        for rho, m in self._summands:
            head = f"{m}*" if m > 1 else ""
            parts.append(head + repr(rho))
        return "WeilRep[" + " + ".join(parts) + "]"


def _tensor_irred(rho: IrredRep, sigma: IrredRep) -> list[IrredRep]:
    s = rho.t + sigma.t
    if isinstance(rho, CharRep) and isinstance(sigma, CharRep):
        return [CharRep((rho.a + sigma.a) % 2, s)]
    if isinstance(rho, CharRep):
        return [DiscRep(sigma.k, s)]
    if isinstance(sigma, CharRep):
        return [DiscRep(rho.k, s)]
    if rho.k != sigma.k:
        return [DiscRep(rho.k + sigma.k, s), DiscRep(abs(rho.k - sigma.k), s)]
    return [DiscRep(2 * rho.k, s), CharRep(0, s), CharRep(1, s)]


def tensor(A: WeilRep, B: WeilRep) -> WeilRep:
    """Tensor product, extended bilinearly over the direct sums."""
    pieces: list[tuple[IrredRep, int]] = []
    for rho, m in A:
        for sigma, n in B:
            for tau in _tensor_irred(rho, sigma):
                pieces.append((tau, m * n))
    return WeilRep(pieces)


def irred_to_json(rho: IrredRep) -> dict:
    if isinstance(rho, CharRep):
        return {"kind": "char", "a": rho.a, "t": str(rho.t)}
    return {"kind": "disc", "k": rho.k, "t": str(rho.t)}


def irred_from_json(obj: dict) -> IrredRep:
    if not isinstance(obj, dict) or obj.get("kind") not in ("char", "disc"):
        raise ValueError(
            f"expected a rep object of kind 'char' or 'disc', got {obj!r}"
        )
    if obj["kind"] == "char":
        json_object(obj, "char rep", ("kind", "a", "t"))
        return CharRep(int_field(obj, "a"), rational_field(obj, "t"))
    json_object(obj, "disc rep", ("kind", "k", "t"))
    return DiscRep(int_field(obj, "k"), rational_field(obj, "t"))


def weilrep_to_json(A: WeilRep) -> list:
    return [{"rep": irred_to_json(rho), "mult": m} for rho, m in A]


def weilrep_from_json(arr) -> WeilRep:
    if not isinstance(arr, list):
        raise ValueError("a WeilRep is encoded as a list of {rep, mult} entries")
    out = []
    for entry in arr:
        json_object(entry, "WeilRep entry", ("rep",), ("mult",))
        out.append((irred_from_json(entry["rep"]), int_field(entry, "mult", 1)))
    return WeilRep(out)
