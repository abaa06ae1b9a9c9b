"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Every check is exact (integer/rational arithmetic) except where a tolerance
is pinned explicitly: the numeric ε-factor oracle (absolute 1e-6) and the
sampled character identity (relative 1e-9).  Each criterion also carries a
wall-clock budget, asserted together with the property.

Run as ``pytest tests/test_acceptance.py -v``; the verdict lines are written
straight to the terminal, bypassing capture.
"""

import cmath
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from gpkit.conjclass import (
    CFieldFactor,
    CSplitFactor,
    KappaDatum,
    RSplitFactor,
    is_regular,
    kappa_shapes,
    make_regular_kappa,
    verify_fiber_lemma,
    verify_fiber_union,
    verify_union_prop,
)
from gpkit.epsilon import eps_half, eps_numeric_oracle
from gpkit.lparam import (
    GPCharacterTable,
    InvalidParameter,
    classify,
    enumerate_reduced,
    make_gp_pair,
    validate,
)
from gpkit.quadspace import (
    QuadSpace,
    is_admissible_pair,
    kottwitz_sign,
    pure_inner_forms,
    quasi_split_form,
)
from gpkit.weilrep import (
    CharRep,
    DiscRep,
    WeilElement,
    WeilRep,
    irred_dim,
    tensor,
    trace,
)


def _verdict(capsys, num, label, ok, elapsed, budget, detail):
    ok = bool(ok)
    in_time = elapsed < budget
    status = "PASS" if ok and in_time else "FAIL"
    line = (
        f"[{status}] criterion {num:02d} ({label}): {detail} "
        f"[{elapsed:.2f}s / budget {budget:.0f}s]"
    )
    with capsys.disabled():
        print(line)
    assert ok, line
    assert in_time, f"time budget exceeded: {line}"


# ---------------------------------------------------------------------------
# 1-2: quadratic space invariants
# ---------------------------------------------------------------------------

def test_criterion_01_kottwitz_sign_table(capsys):
    """kottwitz_sign matches the closed form and the maximal-compact oracle."""
    t0 = time.monotonic()
    bad = []
    cases = 0
    for d in range(1, 13):
        for p in range(d + 1):
            V = QuadSpace(p, d - p)
            e = kottwitz_sign(V)
            closed = 1 if d % 2 == 0 else (-1) ** ((V.delta**2 - 1) // 8)
            # Independent oracle: e = (-1)^{(dim K_qs - dim K)/2} with
            # dim K = p(p-1)/2 + q(q-1)/2 for SO(p,q).
            qs = quasi_split_form(V)
            dim_k = p * (p - 1) // 2 + (d - p) * (d - p - 1) // 2
            dim_k_qs = qs.p * (qs.p - 1) // 2 + qs.q * (qs.q - 1) // 2
            oracle = (-1) ** ((dim_k_qs - dim_k) // 2)
            cases += 1
            if not (e == closed == oracle):
                bad.append((p, d - p, e, closed, oracle))
    spots_ok = (
        kottwitz_sign(QuadSpace(2, 2)) == 1
        and kottwitz_sign(QuadSpace(3, 0)) == -1
    )
    _verdict(
        capsys, 1, "Kottwitz sign table",
        not bad and spots_ok, time.monotonic() - t0, 1.0,
        f"{cases} signatures with p+q<=12, spot values e(2,2)=+1, e(3,0)=-1",
    )


def test_criterion_02_pure_inner_congruence(capsys):
    """e agrees across two pure inner forms iff p = p' mod 4 (line-augmented
    in even dimension)."""
    t0 = time.monotonic()
    lines = (QuadSpace(1, 0), QuadSpace(0, 1))
    bad = []
    cases = 0
    for d in range(1, 13):
        for parity in (0, 1):
            if parity > d:
                continue
            forms = pure_inner_forms(QuadSpace(parity, d - parity))
            for V, U in combinations(forms, 2):
                congruent = (V.p - U.p) % 4 == 0
                if d % 2:
                    cases += 1
                    if (kottwitz_sign(V) == kottwitz_sign(U)) != congruent:
                        bad.append((V, U, None))
                else:
                    for D in lines:
                        cases += 1
                        same = kottwitz_sign(V.orthogonal_sum(D)) == kottwitz_sign(
                            U.orthogonal_sum(D)
                        )
                        if same != congruent:
                            bad.append((V, U, D))
    _verdict(
        capsys, 2, "pure-inner-form congruence",
        not bad, time.monotonic() - t0, 1.0,
        f"{cases} form pairs across all inner classes of dim<=12",
    )


# ---------------------------------------------------------------------------
# 3-4: representation algebra against numerics
# ---------------------------------------------------------------------------

def test_criterion_03_epsilon_oracle(capsys):
    """The quadrature oracle reproduces the exact root numbers to 1e-6."""
    t0 = time.monotonic()
    reps = [CharRep(a, t) for a in (0, 1) for t in (Fraction(0), Fraction(1, 2))]
    reps += [DiscRep(k, Fraction(0)) for k in range(1, 7)]
    worst = 0.0
    for rho in reps:
        delta = abs(eps_numeric_oracle(rho, tol=1e-6) - eps_half(rho).value)
        worst = max(worst, delta)
    _verdict(
        capsys, 3, "numeric epsilon oracle",
        worst < 1e-6, time.monotonic() - t0, 30.0,
        f"{len(reps)} root numbers, worst |exact - quadrature| = {worst:.2e}",
    )


def _random_rep(rng):
    items, dim = [], 0
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            rho = CharRep(
                rng.randint(0, 1), Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
            )
        else:
            rho = DiscRep(
                rng.randint(1, 5), Fraction(rng.randint(-1, 1), rng.choice((1, 2)))
            )
        m = rng.randint(1, 2)
        if dim + m * irred_dim(rho) > 8:
            continue
        items.append((rho, m))
        dim += m * irred_dim(rho)
    return WeilRep(items) if items else WeilRep([(CharRep(0, 0), 1)])


def _sample_points():
    pts = []
    for idx in range(20):
        r = 0.4 + 0.37 * (idx % 5)
        theta = 2 * math.pi * idx / 7.3
        pts.append(WeilElement(cmath.rect(r, theta), flip=idx % 3 == 0))
    return pts


def test_criterion_04_tensor_algebra(capsys):
    """dim(A x B) = dim A * dim B and traces multiply pointwise."""
    t0 = time.monotonic()
    rng = random.Random(0x6B17)
    pts = _sample_points()
    bad = 0
    for _ in range(500):
        A, B = _random_rep(rng), _random_rep(rng)
        T = tensor(A, B)
        if T.dim != A.dim * B.dim:
            bad += 1
            continue
        for g in pts:
            want = trace(A, g) * trace(B, g)
            if abs(trace(T, g) - want) > 1e-9 * (1 + abs(want)):
                bad += 1
                break
    _verdict(
        capsys, 4, "tensor character identity",
        bad == 0, time.monotonic() - t0, 10.0,
        "500 random pairs of dim<=8, 20-point trace identity at rel 1e-9",
    )


# ---------------------------------------------------------------------------
# 5-6: the distinguished character and the dichotomy identity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def character_sweep():
    """One pass over every reduced pair with constituents {1, sgn, D_k<=9}
    and target dims <= 10, shared by criteria 5 and 6.

    The character depends only on the two representations (and the target
    dimensions), not on the signatures chosen within an inner class, so each
    dimension pair is swept once on a representative admissible pair of
    spaces; the independence itself is asserted below on a split/definite
    form comparison.
    """
    t0 = time.monotonic()
    rep_pairs = 0
    mult_checked = dich_checked = 0
    mult_bad = []
    dich_bad = []
    for dv in range(1, 11):
        for dw in range(dv):
            if (dv - dw) % 2 == 0:
                continue
            a = (dv - dw + 1) // 2
            W = QuadSpace(dw, 0)
            V = QuadSpace(dw + a, dv - dw - a)
            for phiW in enumerate_reduced(W, 9):
                for phiV in enumerate_reduced(V, 9):
                    tab = GPCharacterTable(make_gp_pair(phiW, phiV))
                    masksW, masksV, valW, valV = tab.mask_tables()
                    rep_pairs += 1
                    table = {
                        (x, y): valW[x] * valV[y] for x in masksW for y in masksV
                    }
                    ok = all(v in (1, -1) for v in table.values()) and all(
                        table[(x1 ^ x2, y1 ^ y2)] == v1 * v2
                        for (x1, y1), v1 in table.items()
                        for (x2, y2), v2 in table.items()
                    )
                    mult_checked += len(table) ** 2
                    if not ok:
                        mult_bad.append((phiW.rep, phiV.rep))
                    full = (1 << len(tab.groupV.basis)) - 1
                    for y in masksV:
                        if y in (0, full):
                            continue
                        for x in masksW:
                            dich_checked += 1
                            if not tab.dichotomy(x, y).ok:
                                dich_bad.append((phiW.rep, phiV.rep, x, y))

    # Form-independence spot check justifying the representative spaces:
    # the same reps on two different admissible pairs of the same dimensions.
    phiW1 = validate(WeilRep([DiscRep(2, 0)]), QuadSpace(1, 1))
    phiW2 = validate(WeilRep([DiscRep(2, 0)]), QuadSpace(0, 2))
    phiV1 = validate(WeilRep([DiscRep(1, 0)]), QuadSpace(2, 1))
    phiV2 = validate(WeilRep([DiscRep(1, 0)]), QuadSpace(1, 2))
    t1 = GPCharacterTable(make_gp_pair(phiW1, phiV1)).chi_table()
    t2 = GPCharacterTable(make_gp_pair(phiW2, phiV2)).chi_table()
    form_independent = t1 == t2

    return SimpleNamespace(
        elapsed=time.monotonic() - t0,
        rep_pairs=rep_pairs,
        mult_checked=mult_checked,
        dich_checked=dich_checked,
        mult_bad=mult_bad,
        dich_bad=dich_bad,
        form_independent=form_independent,
    )


def test_criterion_05_chi_is_character(capsys, character_sweep):
    s = character_sweep
    ok = (
        not s.mult_bad
        and s.form_independent
        and s.rep_pairs == 992
        and s.mult_checked > 6_000_000
    )
    _verdict(
        capsys, 5, "chi multiplicativity",
        ok, s.elapsed, 60.0,
        f"{s.rep_pairs} reduced pairs (targets<=10, k<=9), "
        f"{s.mult_checked} products of component elements",
    )


def test_criterion_06_epsilon_dichotomy(capsys, character_sweep):
    s = character_sweep
    ok = not s.dich_bad and s.dich_checked > 40_000
    _verdict(
        capsys, 6, "epsilon dichotomy identity",
        ok, s.elapsed, 60.0,
        f"{s.dich_checked} legal (pair, s) choices over the criterion-5 family",
    )


# ---------------------------------------------------------------------------
# 7: trichotomy
# ---------------------------------------------------------------------------

def _orthogonal_irred(rho):
    return isinstance(rho, CharRep) or rho.k % 2 == 0


def test_criterion_07_classification_trichotomy(capsys):
    """Flags from classify match an independent structural re-derivation;
    the explicit component-group condition matches not-B-and-not-P on the
    reduced parameters of dimension > 2 where the theorem states it."""
    t0 = time.monotonic()
    half = Fraction(1, 2)
    self_dual = [CharRep(0, 0), CharRep(1, 0)] + [DiscRep(k, 0) for k in range(1, 6)]
    gl_pairs = [(CharRep(a, half), CharRep(a, -half)) for a in (0, 1)]
    gl_pairs += [(DiscRep(k, half), DiscRep(k, -half)) for k in range(1, 6)]

    def mult_vectors(atoms, unit):
        out = []
        for ms in product(range(3), repeat=len(atoms)):
            d = sum(m * u for m, u in zip(ms, unit))
            if d <= 10:
                out.append((ms, d))
        return out

    sd = mult_vectors(self_dual, [irred_dim(r) for r in self_dual])
    gl = mult_vectors(gl_pairs, [2 * irred_dim(p[0]) for p in gl_pairs])

    n_valid = n_explicit = 0
    seen = set()
    bad = []
    for ms, d1 in sd:
        for gs, d2 in gl:
            dim_m = d1 + d2
            if dim_m > 10 or dim_m == 0:
                continue
            items = [(r, m) for r, m in zip(self_dual, ms) if m]
            for m, (r1, r2) in zip(gs, gl_pairs):
                if m:
                    items += [(r1, m), (r2, m)]
            rep = WeilRep(items)
            for dim_v in (dim_m + 1, dim_m):
                p = (dim_v + 1) // 2
                try:
                    phi = validate(rep, QuadSpace(p, dim_v - p))
                except InvalidParameter:
                    continue
                res = classify(phi)
                n_valid += 1
                seen.add(res.canonical)
                odd = dim_v % 2 == 1
                degenerate = any(
                    (_orthogonal_irred(r) if odd else not _orthogonal_irred(r))
                    or r.t != 0
                    or m >= 2
                    for r, m in rep
                )
                expect = {"P"} if degenerate else set()
                if dim_v <= 3:
                    expect.add("B")
                if not expect:
                    expect.add("E")
                if res.flags != frozenset(expect):
                    bad.append((rep, dim_v, res.flags, expect))
                    continue
                want_canonical = (
                    "P" if "P" in expect else ("B" if "B" in expect else "E")
                )
                if res.canonical != want_canonical:
                    bad.append((rep, dim_v, res.canonical, want_canonical))
                if not degenerate and dim_m > 2:
                    n_explicit += 1
                    if res.explicit_condition != ("E" in expect):
                        bad.append((rep, dim_v, "explicit", res.explicit_condition))
    ok = not bad and n_valid == 2448 and n_explicit == 8 and seen == {"B", "P", "E"}
    _verdict(
        capsys, 7, "classification trichotomy",
        ok, time.monotonic() - t0, 10.0,
        f"{n_valid} valid parameters (dim<=10), {n_explicit} explicit "
        f"component-group checks, all three types populated",
    )


# ---------------------------------------------------------------------------
# 8-10: conjugacy class statements
# ---------------------------------------------------------------------------

def test_criterion_08_union_over_pure_inner_forms(capsys):
    t0 = time.monotonic()
    cases = 0
    bad = []
    for d in range(1, 10):
        odd = d % 2 == 1
        lines = (None,) if odd else (QuadSpace(1, 0), QuadSpace(0, 1))
        shapes = kappa_shapes(d - 1 if odd else d)
        for p in range(d + 1):
            V = QuadSpace(p, d - p)
            for kappa in shapes:
                for e0 in (1, -1):
                    for D in lines:
                        cases += 1
                        rep = verify_union_prop(kappa, V, e0, D=D)
                        if not rep.passed:
                            bad.append((V, e0, D, rep))
    ok = not bad and cases == 940
    _verdict(
        capsys, 8, "union over pure inner forms",
        ok, time.monotonic() - t0, 60.0,
        f"{cases} (space, shape, e0, line) checks, odd dim<=9 / even dim<=8",
    )


def test_criterion_09_fiber_lemmas(capsys):
    t0 = time.monotonic()
    n_fiber = n_union = 0
    bad = []
    for dv in range(1, 10):
        for pv in range(dv + 1):
            V = QuadSpace(pv, dv - pv)
            for dw in range(dv):
                for pw in range(dw + 1):
                    W = QuadSpace(pw, dw - pw)
                    if is_admissible_pair(W, V) is None:
                        continue
                    for n in range(min(dv, dw) // 2 + 1):
                        kappa = make_regular_kappa(n)
                        r = verify_fiber_lemma(kappa, W, V)
                        n_fiber += 1
                        if not r.passed:
                            bad.append(("fiber", W, V, n))
                        for e0 in (1, -1):
                            r = verify_fiber_union(kappa, W, V, e0)
                            n_union += 1
                            if not r.passed:
                                bad.append(("fiber-union", W, V, n, e0))
    ok = not bad and n_fiber == 550 and n_union == 1100
    _verdict(
        capsys, 9, "fiber lemma and fiber union",
        ok, time.monotonic() - t0, 60.0,
        f"{n_fiber} fiber + {n_union} fiber-union checks, "
        f"all admissible pairs with dim V<=9, every elliptic size",
    )


def _random_kappa(rng):
    factors = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            angle = Fraction(rng.randrange(0, 12), rng.choice((1, 2, 3, 4, 5, 6)))
            factors.append(CFieldFactor(angle, rng.choice((1, -1))))
        elif kind == 1:
            t = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            factors.append(RSplitFactor(t))
        else:
            re = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 5)))
            im = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 5)))
            if re == 0 and im == 0:
                re, im = Fraction(3, 5), Fraction(4, 5)
            factors.append(CSplitFactor((re, im)))
    return KappaDatum(factors)


def test_criterion_10_regularity_duality(capsys):
    """is_regular iff the exact eigenvalue multiset has no repeats and no +-1."""
    t0 = time.monotonic()
    rng = random.Random(0x52E6)
    one = ("c", Fraction(1), Fraction(0))
    minus_one = ("c", Fraction(-1), Fraction(0))
    bad = 0
    for _ in range(1000):
        kappa = _random_kappa(rng)
        toks = kappa.eigenvalue_tokens()
        oracle = (
            len(set(toks)) == len(toks)
            and one not in toks
            and minus_one not in toks
        )
        if is_regular(kappa) is not oracle:
            bad += 1
    _verdict(
        capsys, 10, "regularity/eigenvalue duality",
        bad == 0, time.monotonic() - t0, 5.0,
        "1000 random class data, exact token-multiset oracle",
    )
