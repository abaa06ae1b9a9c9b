"""gpkit: exact verification toolkit for real orthogonal Gross–Prasad pairs.

Submodules
----------
quadspace   signatures, discriminants, pure inner forms, Kottwitz signs
weilrep     tempered W_ℝ-representations and their tensor algebra
epsilon     local L- and ε-factors at s = 1/2, exact table + numeric oracle
lparam      L-parameters, component groups, the distinguished character χ_φ
conjclass   κ-data, sign vectors, and the union/fiber set identities
cli         JSON-reporting command-line front end
"""

__version__ = "0.1.0"

from .quadspace import QuadSpace  # noqa: F401

_WEILREP_NAMES = ("CharRep", "DiscRep", "WeilRep")


def __getattr__(name: str):
    # PEP 562: the weilrep re-exports import gpkit.weilrep on first access,
    # so processes that never touch a representation do not load it.
    if name in _WEILREP_NAMES:
        from . import weilrep

        return getattr(weilrep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
