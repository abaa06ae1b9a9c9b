"""Command-line front end.

One-shot subcommands (``classify``, ``component-group``, ``chi``, ``epsilon``,
``dichotomy``, ``enumerate-pureinner``) read JSON input files and print a JSON
result.  ``verify`` runs an exhaustive sweep and prints a report object
``{command, status, cases_checked, counterexamples, timing_ms}``.

Exit codes: 0 success/PASS, 1 a sweep found a counterexample, 2 input or
usage error (including a sweep whose bounds leave no case to check), 3 an
internal invariant failed (a bug, not a counterexample).  All output is exact
integers and sign strings; only the ε oracle produces floats, labelled with
its tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .conjclass import (
    kappa_shapes,
    make_regular_kappa,
    verify_fiber_lemma,
    verify_fiber_union,
    verify_union_prop,
)
from .epsilon import eps_half, eps_numeric_oracle
from .lparam import (
    CentralElement,
    GPCharacterTable,
    classify,
    component_group,
    enumerate_reduced,
    gp_pair_from_json,
    make_gp_pair,
    param_from_json,
)
from .quadspace import (
    InvariantViolation,
    QuadSpace,
    is_admissible_pair,
    is_quasi_split,
    json_object,
    kottwitz_sign,
    pure_inner_forms,
)
from .weilrep import weilrep_from_json


def _emit(obj, compact: bool) -> None:
    if compact:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


_INT = re.compile(r"-?[0-9]+")


def _parse_int(text: str) -> int:
    """A command-line integer: ASCII ``-?[0-9]+`` only, so no ``_``
    separators, ``+`` signs, blanks or non-ASCII digits, which ``int()``
    would accept."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_space(text: str) -> QuadSpace:
    """The ``P,Q`` argument: two integers, each read by :func:`_parse_int`."""
    fields = text.split(",")
    if len(fields) != 2:
        raise SystemExit2(f"space: expected P,Q, got {text!r}")
    try:
        return QuadSpace(*map(_parse_int, fields))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise SystemExit2(f"space: {exc}")


def _parse_bits(text: str, rank: int, flag: str):
    mapping = {"0": 1, "+": 1, "1": -1, "-": -1}
    try:
        signs = tuple(mapping[ch] for ch in text)
    except KeyError:
        raise SystemExit2(f"{flag}: expected a string over 0/1 (or +/-)")
    if len(signs) != rank:
        raise SystemExit2(
            f"{flag}: got {len(signs)} signs for a rank-{rank} component group"
        )
    return signs


class SystemExit2(Exception):
    """Input error: reported as JSON and mapped to exit code 2."""


# ---------------------------------------------------------------------------
# One-shot subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    phi = param_from_json(_load_json(args.file))
    res = classify(phi)
    _emit(
        {
            "type": res.canonical,
            "flags": sorted(res.flags),
            "explicit_condition": res.explicit_condition,
        },
        args.json,
    )
    return 0


def _cmd_component_group(args) -> int:
    phi = param_from_json(_load_json(args.file))
    grp = component_group(phi)
    _emit(
        {
            "basis": [repr(rho) for rho in grp.basis],
            "constraint": grp.constraint,
            "size": grp.size,
            # product order of the sign tuples: ++, +-, -+, --
            "elements": [
                "".join("+" if s == 1 else "-" for s in signs)
                for signs in sorted(map(grp.signs_of, grp.masks()), reverse=True)
            ],
        },
        args.json,
    )
    return 0


def _chi_inputs(args):
    gp = gp_pair_from_json(_load_json(args.file))
    tab = GPCharacterTable(gp)
    x = tab.groupW.mask_of(_parse_bits(args.sW, len(tab.groupW.basis), "--sW"))
    y = tab.groupV.mask_of(_parse_bits(args.sV, len(tab.groupV.basis), "--sV"))
    return tab, x, y


def _cmd_chi(args) -> int:
    tab, x, y = _chi_inputs(args)
    _emit({"chi": tab.chi(x, y)}, args.json)
    return 0


def _cmd_dichotomy(args) -> int:
    tab, x, y = _chi_inputs(args)
    try:
        rep = tab.dichotomy(x, y)
    except CentralElement as exc:
        raise SystemExit2(f"--sV: {exc}")
    _emit(rep.breakdown(), args.json)
    return 0


def _cmd_epsilon(args) -> int:
    obj = _load_json(args.file)
    if not isinstance(obj, dict):
        rho = weilrep_from_json(obj)
    elif "V" in obj:
        # a parameter object: its rep is validated against the space
        rho = param_from_json(obj).rep
    else:
        json_object(obj, "parameter", ("rep",), ("V",))
        rho = weilrep_from_json(obj["rep"])
    root = eps_half(rho)
    out = {
        "epsilon": str(root),
        "exponent": root.e,
        "is_real": root.is_real,
    }
    if args.oracle:
        tol = 1e-6
        checks = []
        for rep, _m in rho:
            val = eps_numeric_oracle(rep, tol=tol)
            exact = eps_half(rep).value
            checks.append(
                {
                    "constituent": repr(rep),
                    "value": [val.real, val.imag],
                    "distance": abs(val - exact),
                    "tol": tol,
                }
            )
        # a constituent off its exact root number is a counterexample to the
        # table, so it fails the command like a sweep's counterexample
        missed = [c["constituent"] for c in checks if not c["distance"] < tol]
        out["oracle"] = checks
        out["status"] = "FAIL" if missed else "PASS"
        out["counterexamples"] = missed
    _emit(out, args.json)
    return 1 if out.get("counterexamples") else 0


def _cmd_enumerate_pureinner(args) -> int:
    V = _parse_space(args.space)
    _emit(
        {
            "space": {"p": V.p, "q": V.q},
            "forms": [
                {
                    "p": U.p,
                    "q": U.q,
                    "kottwitz_sign": kottwitz_sign(U),
                    "quasi_split": is_quasi_split(U),
                }
                for U in pure_inner_forms(V)
            ],
        },
        args.json,
    )
    return 0


# ---------------------------------------------------------------------------
# Verification sweeps (coarse-grained parallel units, canonical ordering)
# ---------------------------------------------------------------------------

def _failure(report, **case) -> dict:
    """The counterexample record of a failed check on ``case``."""
    return {
        "case": case,
        "lhs": [list(c) for c in report.lhs],
        "rhs": [list(c) for c in report.rhs],
    }


def _union_unit(case) -> dict:
    d, p, e0s = case
    V = QuadSpace(p, d - p)
    checked = 0
    bad = []
    target = d - 1 if d % 2 else d
    lines = [None] if d % 2 else [QuadSpace(1, 0), QuadSpace(0, 1)]
    for kappa in kappa_shapes(target):
        for e0 in e0s:
            for D in lines:
                r = verify_union_prop(kappa, V, e0, D=D)
                checked += 1
                if not r.passed:
                    bad.append(_failure(
                        r,
                        V=[p, d - p],
                        e0=e0,
                        D=None if D is None else [D.p, D.q],
                        shape=repr(kappa.factors),
                    ))
    return {"key": [d, p], "checked": checked, "counterexamples": bad}


def _fiber_unit(case) -> dict:
    dv, pv = case
    V = QuadSpace(pv, dv - pv)
    checked = 0
    bad = []
    # one class datum per n ≤ dim W / 2 ≤ (dv − 1) / 2, shared by every W
    kappas = [make_regular_kappa(n) for n in range((dv + 1) // 2)]
    for dw in range(dv):
        for pw in range(dw + 1):
            W = QuadSpace(pw, dw - pw)
            if is_admissible_pair(W, V) is None:
                continue
            for n, kappa in enumerate(kappas[: dw // 2 + 1]):
                reports = [("fiber", None, verify_fiber_lemma(kappa, W, V))]
                for e0 in (1, -1):
                    reports.append(
                        ("fiber-union", e0, verify_fiber_union(kappa, W, V, e0))
                    )
                for kind, e0, r in reports:
                    checked += 1
                    if not r.passed:
                        bad.append(_failure(
                            r,
                            kind=kind,
                            W=[pw, dw - pw],
                            V=[pv, dv - pv],
                            n_elliptic=n,
                            e0=e0,
                        ))
    return {"key": [dv, pv], "checked": checked, "counterexamples": bad}


def _is_homomorphism(group, val) -> bool:
    """Whether x ↦ val[0]·val[x] is a homomorphism from ``group.masks()``
    (XOR) to ±1.

    Checked as f(x ⊕ g) = f(x)·f(g) for every x and every g in the group's
    generating set, at O(|masks|·rank) cost.
    """
    base, masks = val[0], group.masks()
    return all(
        base * val[x ^ g] == val[x] * val[g]
        for g in group.generators
        for x in masks
    )


def _is_multiplicative(groupW, groupV, valW, valV) -> bool:
    """Whether χ(x, y) = valW[x]·valV[y] is a character of 𝒮_W × 𝒮_V.

    The groups' masks are groups under XOR and the values are ±1.  Criterion:
    χ is multiplicative iff χ(0, 0) = 1 and the normalised factors
    w(x) = valW[0]·valW[x] and u(y) = valV[0]·valV[y] are homomorphisms;
    and a map f with f(0) = 1 is a homomorphism iff f(x ⊕ g) = f(x)·f(g)
    for every x and every g in a generating set.

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
    check at O((|𝒮_W| + |𝒮_V|)·rank) cost.
    """
    return (
        valW[0] * valV[0] == 1
        and _is_homomorphism(groupW, valW)
        and _is_homomorphism(groupV, valV)
    )


def _dichotomy_unit(case) -> dict:
    dw, dv, max_k = case
    a = (dv - dw + 1) // 2
    W = QuadSpace(dw, 0)
    V = QuadSpace(dw + a, dv - dw - a)
    checked = 0
    bad = []
    paramsV = enumerate_reduced(V, max_k)
    for phiW in enumerate_reduced(W, max_k):
        for phiV in paramsV:
            tab = GPCharacterTable(make_gp_pair(phiW, phiV))
            masksW, masksV, valW, valV = tab.mask_tables()
            # the product identities certified, as the all-pairs check counts
            checked += (len(masksW) * len(masksV)) ** 2
            if not _is_multiplicative(tab.groupW, tab.groupV, valW, valV):
                bad.append(
                    {
                        "case": {
                            "kind": "chi-multiplicativity",
                            "phiW": repr(phiW.rep),
                            "phiV": repr(phiV.rep),
                        }
                    }
                )
            full = (1 << len(tab.groupV.basis)) - 1
            for y in masksV:
                if y == 0 or y == full:
                    continue
                for x in masksW:
                    rep = tab.dichotomy(x, y)
                    checked += 1
                    if not rep.ok:
                        bad.append(
                            {
                                "case": {
                                    "kind": "dichotomy",
                                    "phiW": repr(phiW.rep),
                                    "phiV": repr(phiV.rep),
                                    "sW": list(tab.groupW.signs_of(x)),
                                    "sV": list(tab.groupV.signs_of(y)),
                                },
                                "breakdown": rep.breakdown(),
                            }
                        )
    return {"key": [dw, dv], "checked": checked, "counterexamples": bad}


_SWEEPS = {
    "union": _union_unit,
    "fibers": _fiber_unit,
    "dichotomy": _dichotomy_unit,
}


def _sweep_cases(args):
    if args.what == "union":
        e0s = (1, -1) if args.e0 is None else (args.e0,)
        return [
            (d, p, e0s)
            for d in range(1, args.max_dim + 1)
            for p in range(d + 1)
        ]
    if args.what == "fibers":
        return [(dv, pv) for dv in range(1, args.max_dv + 1)
                for pv in range(dv + 1)]
    return [
        (dw, dv, args.max_k)
        for dv in range(1, args.max_dim + 1)
        for dw in range(dv)
        if (dv - dw) % 2
    ]


def _worker_count(jobs: int) -> int:
    """The number of worker processes for ``--jobs``: at least 1 (else an
    input error) and at most the CPUs this process may run on."""
    if jobs < 1:
        raise SystemExit2(f"--jobs: expected a positive integer, got {jobs}")
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)


def _cmd_verify(args) -> int:
    t0 = time.monotonic()
    unit = _SWEEPS[args.what]
    cases = _sweep_cases(args)
    jobs = _worker_count(args.jobs)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(unit, cases))
    else:
        results = [unit(c) for c in cases]
    results.sort(key=lambda r: r["key"])

    checked = sum(r["checked"] for r in results)
    if not checked:
        raise SystemExit2(f"verify {args.what}: the bounds leave no case to check")
    bad = [ce for r in results for ce in r["counterexamples"]]
    bad.sort(key=lambda ce: json.dumps(ce, sort_keys=True))
    _emit(
        {
            "command": f"verify {args.what}",
            "status": "FAIL" if bad else "PASS",
            "cases_checked": checked,
            "counterexamples": bad,
            "timing_ms": int((time.monotonic() - t0) * 1000),
        },
        args.json,
    )
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gpkit",
        description="Exact verification tools for special orthogonal "
        "branching characters and root numbers.",
    )
    top.add_argument("--json", action="store_true",
                     help="compact single-line JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trichotomy type of a parameter")
    p.add_argument("file", help="parameter JSON file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("component-group", help="component group of a parameter")
    p.add_argument("file", help="parameter JSON file")
    p.set_defaults(fn=_cmd_component_group)

    p = sub.add_parser("chi", help="distinguished character value")
    p.add_argument("file", help="pair JSON file with phiW/phiV")
    p.add_argument("--sW", required=True,
                   help="signs on the W component basis (0/+ = +1, 1/- = -1)")
    p.add_argument("--sV", required=True, help="signs on the V component basis")
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("epsilon", help="root number of a representation")
    p.add_argument("file", help="representation JSON file")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check each constituent numerically")
    p.set_defaults(fn=_cmd_epsilon)

    p = sub.add_parser("dichotomy", help="endoscopic character identity at s")
    p.add_argument("file", help="pair JSON file with phiW/phiV")
    p.add_argument("--sW", required=True)
    p.add_argument("--sV", required=True)
    p.set_defaults(fn=_cmd_dichotomy)

    p = sub.add_parser("enumerate-pureinner",
                       help="pure inner forms with invariants")
    p.add_argument("space", help="signature as P,Q")
    p.set_defaults(fn=_cmd_enumerate_pureinner)

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    p.add_argument("what", choices=("union", "fibers", "dichotomy"))
    p.add_argument("--max-dim", type=_parse_int, default=8,
                   help="largest space dimension (union/dichotomy sweeps)")
    p.add_argument("--max-dv", type=_parse_int, default=8,
                   help="largest dim V (fiber sweeps)")
    p.add_argument("--max-k", type=_parse_int, default=9,
                   help="largest discrete piece D_k (dichotomy sweep)")
    p.add_argument("--e0", type=_parse_int, choices=(1, -1), default=None,
                   help="restrict the union sweep to one Kottwitz sign")
    p.add_argument("--jobs", type=_parse_int, default=1,
                   help="worker processes, at most the usable CPUs "
                   "(default: 1)")
    p.set_defaults(fn=_cmd_verify)
    return top


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        _emit({"error": str(exc)}, getattr(args, "json", True))
        return 2
    except InvariantViolation as exc:
        _emit({"error": f"InvariantViolation: {exc}"},
              getattr(args, "json", True))
        return 3
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            ArithmeticError) as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"},
              getattr(args, "json", True))
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
