"""Signature arithmetic for non-degenerate quadratic spaces over the reals.

Everything in this module is signature-level: over the reals a non-degenerate
quadratic space is determined up to isomorphism by its positive and negative
indices (p, q), so no Gram matrices are ever materialized.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "InvariantViolation",
    "NotAdmissible",
    "QuadSpace",
    "AdmissiblePair",
    "discriminant",
    "pure_inner_forms",
    "is_quasi_split",
    "quasi_split_form",
    "quasi_split_forms",
    "kottwitz_sign",
    "is_admissible_pair",
    "admissible_pair",
    "relevant_pairs",
    "space_to_json",
    "space_from_json",
    "json_object",
    "int_field",
    "rational_field",
]


class InvariantViolation(AssertionError):
    """An internal invariant failed: a bug in gpkit, not a counterexample."""


class NotAdmissible(ValueError):
    """The pair (W, V) does not decompose as V = W ⟂ D ⟂ Z."""


class _Value:
    """Base of gpkit's frozen value classes.

    A subclass names its fields once, in order, as ``_fields``, and sets
    them, with any stored invariant, in its own ``__init__`` through the
    instance ``__dict__``.  The base gives the rest of a frozen value:
    equality within one class and a hash, both on the tuple of the fields;
    the repr ``Name(field=value, ...)``; and an ``AttributeError`` on every
    assignment or deletion.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` works on them, and they pickle and copy
    with it at every protocol their field values allow.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the tuple of the fields; attrgetter of one name gives the bare value
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda obj: (get(obj),)
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values(self))
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Ordered:
    """Order on the field tuple, for a :class:`_Value` subclass that lists it
    first among its bases.  Two instances of different classes do not
    compare: the operators return ``NotImplemented``, so ``<`` raises
    ``TypeError``."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) < other._values(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) <= other._values(other)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) > other._values(other)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) >= other._values(other)
        return NotImplemented


class QuadSpace(_Ordered, _Value):
    """A real quadratic space with positive index ``p`` and negative index ``q``.

    ``dim`` = p + q and the signature defect ``delta`` = p − q are stored
    invariants: computed once at construction, never part of equality,
    hashing, order or the repr, which see ``p`` and ``q`` only.
    """

    _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        # exact ints: bools and floats are refused, not truncated
        if type(p) is not int or type(q) is not int:
            raise TypeError("signature entries must be integers")
        if p < 0 or q < 0:
            raise ValueError(f"negative signature entry in ({p}, {q})")
        self.__dict__.update(p=p, q=q, dim=p + q, delta=p - q)

    def orthogonal_sum(self, other: "QuadSpace") -> "QuadSpace":
        return _space(self.p + other.p, self.q + other.q)

    def __repr__(self) -> str:
        return f"QuadSpace({self.p}, {self.q})"


@lru_cache(maxsize=None, typed=True)
def _space(p: int, q: int) -> QuadSpace:
    """``QuadSpace(p, q)``, memoised on the two ints, so a sum or a
    complement costs one dict lookup, and ``pure_inner_forms``'s cache
    finds the space by identity.  The key holds the types too, so a bool or
    a float equal to a cached int misses the cache and meets the
    constructor's exact-int check, warm or cold."""
    return QuadSpace(p, q)


def _is_sign(v) -> bool:
    """True only for the int +1 or −1: bools, floats and other numbers equal
    to ±1 are not signs."""
    return type(v) is int and v in (1, -1)


def discriminant(V: QuadSpace) -> int:
    """Sign of the discriminant, (−1)^⌊dim/2⌋ · (−1)^q."""
    return -1 if (V.dim // 2 + V.q) % 2 else 1


@cache
def pure_inner_forms(V: QuadSpace) -> tuple[QuadSpace, ...]:
    """All signatures with the same dimension and discriminant as ``V``.

    Same-discriminant at fixed dimension is the congruence p' ≡ p (mod 2).
    Returned with p descending; ``V`` itself is always a member.  The tuple
    is built once per space and shared by every later call.
    """
    d = V.dim
    top = d if (d - V.p) % 2 == 0 else d - 1
    return tuple(QuadSpace(pp, d - pp) for pp in range(top, -1, -2))


def is_quasi_split(V: QuadSpace) -> bool:
    """True iff SO(V) is quasi-split: |Δ| ≤ 1 (odd dim) or Δ ∈ {0, ±2} (even dim)."""
    return _signature_is_quasi_split(V.p, V.q)


def _signature_is_quasi_split(p: int, q: int) -> bool:
    """:func:`is_quasi_split` on the signature (p, q), with no space built."""
    if (p + q) % 2:
        return abs(p - q) <= 1
    return p - q in (-2, 0, 2)


def quasi_split_forms(V: QuadSpace) -> list[QuadSpace]:
    """Quasi-split members of the pure inner class of ``V``, p descending.

    There is exactly one except in even dimension with Δ ≡ 2 (mod 4), where the
    class contains both (m+1, m−1) and (m−1, m+1).  Each member is the shared
    :func:`_space` of its signature.

    Proof of the closed form.  Write d = dim V and m = ⌊d/2⌋.  The class of
    ``V`` holds exactly the (p', d − p') with p' ≡ V.p (mod 2), 0 ≤ p' ≤ d
    (:func:`pure_inner_forms`), and Δ' = 2p' − d.  For odd d, |Δ'| ≤ 1 allows
    p' ∈ {m, m + 1}, and exactly one of these two has the parity of V.p.  For
    even d, Δ' ∈ {0, ±2} allows p' ∈ {m, m ± 1}: that is p' = m alone when
    V.p ≡ m, and otherwise both m + 1 and m − 1, which is the case
    Δ ≡ 2 (mod 4); there m ≥ 1, since d = 0 forces V.p = 0 = m.  So the first
    member has p = m + (V.p − m) mod 2, and its mirror (d − p, p) follows
    exactly when 2p − d = 2.  ∎
    """
    d = V.dim
    m = d // 2
    p = m + (V.p - m) % 2
    if 2 * p - d == 2:
        return [_space(p, d - p), _space(d - p, p)]
    return [_space(p, d - p)]


def quasi_split_form(V: QuadSpace) -> QuadSpace:
    """The quasi-split pure inner form of ``V``; ties broken toward p ≥ q."""
    forms = quasi_split_forms(V)
    if (V.dim % 2 or V.delta % 4 == 0) and len(forms) != 1:
        raise InvariantViolation(
            f"{len(forms)} quasi-split forms in the class of {V}, expected one"
        )
    return forms[0]


def kottwitz_sign(V: QuadSpace) -> int:
    """Kottwitz sign e(SO(V)): +1 for even dim, (−1)^{((p−q)²−1)/8} for odd."""
    if V.dim % 2 == 0:
        return 1
    return -1 if ((V.delta ** 2 - 1) // 8) % 2 else 1


class AdmissiblePair(_Value):
    """W ⟂ D ⟂ Z = V with D an anisotropic line and Z split of dimension 2r."""

    _fields = ("W", "V", "r", "d_sign")

    def __init__(self, W: QuadSpace, V: QuadSpace, r: int, d_sign: int) -> None:
        if not _is_sign(d_sign):
            raise ValueError("d_sign must be ±1")
        if type(r) is not int or r < 0:
            raise ValueError("r must be a non-negative integer")
        gap = V.dim - W.dim
        if gap != 2 * r + 1:
            raise ValueError("dim V − dim W must equal 2r + 1")
        if (
            V.p != W.p + r + (1 if d_sign > 0 else 0)
            or V.q != W.q + r + (1 if d_sign < 0 else 0)
        ):
            raise ValueError(f"({W}, {V}) is not W ⟂ D ⟂ Z shaped")
        self.__dict__.update(W=W, V=V, r=r, d_sign=d_sign)

    @property
    def line(self) -> QuadSpace:
        """The anisotropic line D."""
        return _space(1, 0) if self.d_sign > 0 else _space(0, 1)

    @property
    def w_perp(self) -> QuadSpace:
        """Orthogonal complement of W in V, namely D ⟂ Z."""
        return _space(self.V.p - self.W.p, self.V.q - self.W.q)


def is_admissible_pair(W: QuadSpace, V: QuadSpace) -> AdmissiblePair | None:
    """Decompose V = W ⟂ D ⟂ Z if possible, returning the (r, d_sign) datum:
    a new, validated pair on every call."""
    a, b = V.p - W.p, V.q - W.q
    if a < 0 or b < 0 or abs(a - b) != 1:
        return None
    return AdmissiblePair(W, V, min(a, b), 1 if a > b else -1)


def admissible_pair(W: QuadSpace, V: QuadSpace) -> AdmissiblePair:
    """The decomposition V = W ⟂ D ⟂ Z of :func:`is_admissible_pair`;
    :class:`NotAdmissible` if there is none."""
    pair = is_admissible_pair(W, V)
    if pair is None:
        raise NotAdmissible(f"({W}, {V}) is not an admissible pair")
    return pair


def relevant_pairs(W: QuadSpace, V: QuadSpace) -> list[tuple[QuadSpace, QuadSpace]]:
    """The pairs (W_α, V_α = W_α ⟂ W^⟂) over pure inner forms W_α of W."""
    perp = admissible_pair(W, V).w_perp
    return [(Wa, Wa.orthogonal_sum(perp)) for Wa in pure_inner_forms(W)]


def space_to_json(V: QuadSpace) -> dict:
    return {"p": V.p, "q": V.q}


def space_from_json(obj: dict) -> QuadSpace:
    json_object(obj, "space", ("p", "q"))
    return QuadSpace(int_field(obj, "p"), int_field(obj, "q"))


def json_object(obj, what: str, required, optional=()) -> dict:
    """``obj`` checked to be a JSON object holding every key of ``required``
    and no key outside ``required`` and ``optional``."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a {what} object, got {obj!r}")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in {what} object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"missing key(s) {missing} in {what} object")
    return obj


def int_field(obj: dict, key: str, default: int | None = None) -> int:
    """``obj[key]`` as an exact integer: bools, floats and strings are refused."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def rational_field(obj: dict, key: str) -> Fraction:
    """``obj[key]`` as an exact rational: a JSON integer or an ``"n"`` /
    ``"p/q"`` string.  Bools, floats and decimal strings are refused."""
    from fractions import Fraction  # at first use: not every command needs it

    value = obj[key]
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(
        f"{key!r} must be an integer or a 'p/q' string, got {value!r}"
    )


def _as_fraction(x) -> Fraction:
    """``x`` as an exact rational: a Fraction, an int or a rational string.
    A bool is refused like a float, not read as the int it equals."""
    from fractions import Fraction  # at first use, as in rational_field

    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")
