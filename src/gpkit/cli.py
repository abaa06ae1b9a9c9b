"""Command-line front end.

One-shot subcommands (``classify``, ``component-group``, ``chi``, ``epsilon``,
``dichotomy``, ``enumerate-pureinner``) read JSON input files and give a JSON
result.  ``verify`` runs an exhaustive sweep and gives a report object
``{command, status, cases_checked, counterexamples, timing_ms}``.

Each handler (``_cmd_*``) returns its result; :func:`run` alone prints it,
or the error a handler raised, and sets the exit code: 0 success/PASS, 1 a
result with a non-empty ``counterexamples`` (a sweep's, or an ``epsilon
--oracle`` miss), 2 input or usage error (including a sweep whose bounds
leave no case to check, and an ``epsilon --oracle`` run with no constituent
to check), 3 an internal invariant failed (a bug, not a counterexample).
All output is exact integers and sign strings; only the ε oracle produces
floats, labelled with its tolerance.

Start-up: at module level this file imports only the standard library and
``quadspace``.  Each handler and sweep unit imports the layer it runs when it
is called (``conjclass``, ``lparam``, ``epsilon``, ``weilrep``), and the
process pool is imported only for ``--jobs`` > 1, so a command loads no code
it does not run.  The names are read from the layer module at call time, so
a wrapper put on a layer's name is seen by every call.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .quadspace import (
    InvariantViolation,
    QuadSpace,
    is_quasi_split,
    kottwitz_sign,
    pure_inner_forms,
)


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


def _parse_element(text: str, group, flag: str) -> int:
    """The minus-set mask of the element of ``group`` with the sign string
    ``text``; :meth:`~gpkit.lparam.ComponentGroup.mask_of` checks the signs,
    and every error names ``flag``."""
    mapping = {"0": 1, "+": 1, "1": -1, "-": -1}
    try:
        return group.mask_of(mapping[ch] for ch in text)
    except KeyError:
        raise SystemExit2(f"{flag}: expected a string over 0/1 (or +/-)")
    except ValueError as exc:
        raise SystemExit2(f"{flag}: {exc}")


class SystemExit2(Exception):
    """Input error: reported as JSON and mapped to exit code 2."""


# ---------------------------------------------------------------------------
# One-shot subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> dict:
    from .lparam import classify, param_from_json

    phi = param_from_json(_load_json(args.file))
    res = classify(phi)
    return {
        "type": res.canonical,
        "flags": sorted(res.flags),
        "explicit_condition": res.explicit_condition,
    }


def _cmd_component_group(args) -> dict:
    from .lparam import component_group, param_from_json

    phi = param_from_json(_load_json(args.file))
    grp = component_group(phi)
    return {
        "basis": [repr(rho) for rho in grp.basis],
        "constraint": grp.constraint,
        "size": grp.size,
        # product order of the sign tuples: ++, +-, -+, --
        "elements": [
            "".join("+" if s == 1 else "-" for s in signs)
            for signs in sorted(map(grp.signs_of, grp.masks), reverse=True)
        ],
    }


def _chi_inputs(args):
    from .lparam import GPCharacterTable, gp_pair_from_json

    gp = gp_pair_from_json(_load_json(args.file))
    tab = GPCharacterTable(gp)
    x = _parse_element(args.sW, tab.groupW, "--sW")
    y = _parse_element(args.sV, tab.groupV, "--sV")
    return tab, x, y


def _cmd_chi(args) -> dict:
    tab, x, y = _chi_inputs(args)
    return {"chi": tab.chi(x, y)}


def _cmd_dichotomy(args) -> dict:
    from .lparam import CentralElement

    tab, x, y = _chi_inputs(args)
    try:
        return tab.dichotomy(x, y).breakdown()
    except CentralElement as exc:
        raise SystemExit2(f"--sV: {exc}")


def _cmd_epsilon(args) -> dict:
    from .epsilon import eps_half, eps_numeric_oracle
    from .weilrep import weilrep_from_json

    obj = _load_json(args.file)
    if isinstance(obj, dict):
        # a parameter object: its rep is validated against the space
        from .lparam import param_from_json

        rho = param_from_json(obj).rep
    else:
        rho = weilrep_from_json(obj)
    root = eps_half(rho)
    out = {
        "epsilon": str(root),
        "exponent": root.e,
        "is_real": root.is_real,
    }
    if args.oracle:
        if not rho:
            # no constituent: a PASS would certify nothing, as an empty sweep
            raise SystemExit2("epsilon --oracle: the representation has no "
                              "constituent to check")
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
    return out


def _cmd_enumerate_pureinner(args) -> dict:
    V = _parse_space(args.space)
    return {
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
    }


# ---------------------------------------------------------------------------
# Verification sweeps (coarse-grained parallel units)
# ---------------------------------------------------------------------------

def _failure(report, **case) -> dict:
    """The counterexample record of a failed check on ``case``."""
    return {
        "case": case,
        "lhs": [list(c) for c in report.lhs],
        "rhs": [list(c) for c in report.rhs],
    }


def _union_unit(case) -> tuple[int, list]:
    from .conjclass import union_cases, verify_union_prop

    cases = union_cases(*case)
    bad = []
    for kappa, V, e0, D in cases:
        r = verify_union_prop(kappa, V, e0, D=D)
        if not r.passed:
            bad.append(_failure(
                r,
                V=[V.p, V.q],
                e0=e0,
                D=None if D is None else [D.p, D.q],
                shape=repr(kappa.factors),
            ))
    return len(cases), bad


def _fiber_unit(case) -> tuple[int, list]:
    from .conjclass import fiber_cases, verify_fiber_lemma, verify_fiber_union

    cases = fiber_cases(*case)
    bad = []
    for kappa, W, V in cases:
        reports = [("fiber", None, verify_fiber_lemma(kappa, W, V))]
        for e0 in (1, -1):
            reports.append(
                ("fiber-union", e0, verify_fiber_union(kappa, W, V, e0))
            )
        for kind, e0, r in reports:
            if not r.passed:
                bad.append(_failure(
                    r,
                    kind=kind,
                    W=[W.p, W.q],
                    V=[V.p, V.q],
                    n_elliptic=kappa.n_elliptic,
                    e0=e0,
                ))
    return 3 * len(cases), bad


def _dichotomy_unit(case) -> tuple[int, list]:
    from .lparam import GPCharacterTable, reduced_gp_pairs

    checked = 0
    bad = []
    for gp in reduced_gp_pairs(*case):
        tab = GPCharacterTable(gp)
        n, is_character, failures = tab.verify()
        checked += n
        if is_character and not failures:
            continue
        pair = {"phiW": repr(gp.phiW.rep), "phiV": repr(gp.phiV.rep)}
        if not is_character:
            bad.append({"case": {"kind": "chi-multiplicativity", **pair}})
        for x, y, report in failures:
            signs = {"sW": list(tab.groupW.signs_of(x)),
                     "sV": list(tab.groupV.signs_of(y))}
            bad.append({"case": {"kind": "dichotomy", **pair, **signs},
                        "breakdown": report.breakdown()})
    return checked, bad


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


def _cmd_verify(args) -> dict:
    t0 = time.monotonic()
    unit = _SWEEPS[args.what]
    cases = _sweep_cases(args)
    jobs = _worker_count(args.jobs)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(unit, cases))
    else:
        results = [unit(c) for c in cases]

    checked = sum(n for n, _ in results)
    if not checked:
        raise SystemExit2(f"verify {args.what}: the bounds leave no case to check")
    # sorted by their JSON, so the report is the same for any --jobs
    bad = sorted((ce for _, records in results for ce in records),
                 key=lambda ce: json.dumps(ce, sort_keys=True))
    return {
        "command": f"verify {args.what}",
        "status": "FAIL" if bad else "PASS",
        "cases_checked": checked,
        "counterexamples": bad,
        "timing_ms": int((time.monotonic() - t0) * 1000),
    }


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _SweepParser(argparse.ArgumentParser):
    """The parser of one ``verify`` sweep.  It refuses an argument it does
    not take itself, so the usage line printed is the sweep's own, listing
    the flags it does take, and not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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
    # argparse reads a word that starts with "-" as an option unless it looks
    # like a negative number, and "-1,0" does not: read every "-<digit>..."
    # as the positional, so that _parse_space reports a negative entry.
    p._negative_number_matcher = re.compile(r"-[0-9]")
    p.add_argument("space", help="signature as P,Q")
    p.set_defaults(fn=_cmd_enumerate_pureinner)

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    # each sweep takes only the bounds it reads, so a foreign flag is a
    # usage error rather than a silently ignored bound
    sweeps = p.add_subparsers(
        dest="what", required=True, parser_class=_SweepParser
    )
    union = sweeps.add_parser("union", help="union over pure inner forms")
    fibers = sweeps.add_parser("fibers", help="fiber lemma and fiber union")
    dichotomy = sweeps.add_parser(
        "dichotomy", help="chi is a character; the epsilon dichotomy identity")
    for q in (union, dichotomy):
        q.add_argument("--max-dim", type=_parse_int, default=8,
                       help="largest space dimension")
    fibers.add_argument("--max-dv", type=_parse_int, default=8,
                        help="largest dim V")
    dichotomy.add_argument("--max-k", type=_parse_int, default=9,
                           help="largest discrete piece D_k")
    union.add_argument("--e0", type=_parse_int, choices=(1, -1), default=None,
                       help="restrict the sweep to one Kottwitz sign")
    for q in (union, fibers, dichotomy):
        q.add_argument("--jobs", type=_parse_int, default=1,
                       help="worker processes, at most the usable CPUs "
                       "(default: 1)")
        q.set_defaults(fn=_cmd_verify)
    return top


def run(argv=None) -> int:
    """Run one command: print its result, or its error, as JSON and return
    the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        out = args.fn(args)
    except SystemExit2 as exc:
        out, code = {"error": str(exc)}, 2
    except InvariantViolation as exc:
        # named by its class, which may be a subclass (OddHalfExponent)
        out, code = {"error": f"{type(exc).__name__}: {exc}"}, 3
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            ArithmeticError) as exc:
        out, code = {"error": f"{type(exc).__name__}: {exc}"}, 2
    else:
        code = 1 if out.get("counterexamples") else 0
    _emit(out, args.json)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
