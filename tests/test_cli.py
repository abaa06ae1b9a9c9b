"""End-to-end tests of the command-line front end, run in-process."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gp_reference import (
    ReferenceTable,
    all_pairs_multiplicative,
    factor_rows,
    sweep_pairs,
    sweep_records,
)
import gpkit
from gpkit import cli, conjclass, epsilon, lparam, quadspace
from gpkit.cli import run
from gpkit.lparam import (
    GPCharacterTable,
    gp_pair_from_json,
    param_from_json,
    param_to_json,
    validate,
)
from gpkit.quadspace import QuadSpace, space_from_json, space_to_json
from gpkit.weilrep import (
    CharRep,
    DiscRep,
    WeilRep,
    dual,
    irred_from_json,
    irred_to_json,
    weilrep_from_json,
    weilrep_to_json,
)


PARAM_B = {
    "V": {"p": 1, "q": 1},
    "rep": [{"rep": {"kind": "disc", "k": 2, "t": "0"}, "mult": 1}],
}

PARAM_SO21 = {
    "V": {"p": 2, "q": 1},
    "rep": [{"rep": {"kind": "disc", "k": 1, "t": "0"}, "mult": 1}],
}

PAIR_SO23 = {"phiW": PARAM_B, "phiV": PARAM_SO21}

# 1 + sgn on (2, 0) and 1 + sgn + D_2 on (2, 2): both bases hold odd-dimensional
# slots, so each group has rank one less than its basis length
_ONE_SGN = [
    {"rep": {"kind": "char", "a": 0, "t": "0"}, "mult": 1},
    {"rep": {"kind": "char", "a": 1, "t": "0"}, "mult": 1},
]
PARAM_SO20_CONSTRAINED = {"V": {"p": 2, "q": 0}, "rep": _ONE_SGN}
PARAM_SO22_CONSTRAINED = {
    "V": {"p": 2, "q": 2},
    "rep": _ONE_SGN + [{"rep": {"kind": "disc", "k": 2, "t": "0"}, "mult": 1}],
}

PAIR_SO45 = {
    "phiW": {
        "V": {"p": 2, "q": 2},
        "rep": [
            {"rep": {"kind": "disc", "k": 2, "t": "0"}, "mult": 1},
            {"rep": {"kind": "disc", "k": 4, "t": "0"}, "mult": 1},
        ],
    },
    "phiV": {
        "V": {"p": 3, "q": 2},
        "rep": [
            {"rep": {"kind": "disc", "k": 1, "t": "0"}, "mult": 1},
            {"rep": {"kind": "disc", "k": 3, "t": "0"}, "mult": 1},
        ],
    },
}


@pytest.fixture
def jfile(tmp_path):
    def write(obj, name="in.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run_json(capsys, argv):
    rc = run(["--json"] + argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def _fresh_python(*args):
    """``python *args`` in a fresh interpreter that imports this gpkit."""
    src = str(Path(gpkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


# the modules whose loading the start-up test tracks: the process pool, the
# layers that `cli` imports on demand, the oracle's quadrature, scipy (which
# no command may load), and the standard modules that cost start-up time
# (`dataclasses` with `inspect`) or that only commands reading rationals
# need (`fractions`)
POOL_MODULES = {"concurrent.futures", "multiprocessing"}
STDLIB_MODULES = {"dataclasses", "fractions", "inspect"}
WATCHED_MODULES = POOL_MODULES | STDLIB_MODULES | {
    "gpkit.conjclass",
    "gpkit.epsilon",
    "gpkit.lparam",
    "gpkit.quadrature",
    "gpkit.weilrep",
    "scipy",
}


class TestOneShots:
    def test_classify(self, jfile, capsys):
        rc, out = run_json(capsys, ["classify", jfile(PARAM_B)])
        assert rc == 0
        assert out["type"] == "B"

    def test_component_group(self, jfile, capsys):
        rc, out = run_json(capsys, ["component-group", jfile(PAIR_SO45["phiV"])])
        assert rc == 0
        assert out["size"] == 4
        assert out["constraint"] is False
        assert out["elements"] == ["++", "+-", "-+", "--"]
        assert len(out["basis"]) == 2

    def test_chi(self, jfile, capsys):
        rc, out = run_json(
            capsys, ["chi", jfile(PAIR_SO23), "--sW", "0", "--sV", "1"]
        )
        assert rc == 0 and out == {"chi": -1}

    def test_chi_accepts_plus_minus_bits(self, jfile, capsys):
        rc, out = run_json(
            capsys, ["chi", jfile(PAIR_SO23), "--sW", "+", "--sV", "-"]
        )
        assert rc == 0 and out == {"chi": -1}

    def test_epsilon(self, jfile, capsys):
        rep = [{"rep": {"kind": "disc", "k": 1, "t": "0"}, "mult": 1}]
        rc, out = run_json(capsys, ["epsilon", jfile(rep)])
        assert rc == 0
        assert out == {"epsilon": "-1", "exponent": 2, "is_real": True}

    def test_epsilon_oracle(self, jfile, capsys):
        rep = [{"rep": {"kind": "char", "a": 0, "t": "0"}, "mult": 1}]
        rc, out = run_json(capsys, ["epsilon", jfile(rep), "--oracle"])
        assert rc == 0
        (check,) = out["oracle"]
        assert check["distance"] < check["tol"] == 1e-6
        assert out["status"] == "PASS" and out["counterexamples"] == []

    def test_epsilon_oracle_disagreement_is_a_counterexample(
        self, jfile, capsys, monkeypatch
    ):
        # An oracle that lands on −ε for every constituent: the command
        # must fail with exit 1 and name each constituent it missed.
        monkeypatch.setattr(
            epsilon,
            "eps_numeric_oracle",
            lambda rho, tol: -epsilon.eps_half(rho).value,
        )
        rep = [
            {"rep": {"kind": "char", "a": 1, "t": "0"}, "mult": 1},
            {"rep": {"kind": "disc", "k": 2, "t": "1/3"}, "mult": 1},
        ]
        rc, out = run_json(capsys, ["epsilon", jfile(rep), "--oracle"])
        assert rc == 1
        assert out["status"] == "FAIL"
        names = [repr(CharRep(1, 0)), repr(DiscRep(2, Fraction(1, 3)))]
        assert out["counterexamples"] == names
        assert [c["constituent"] for c in out["oracle"]] == names
        assert all(c["distance"] == pytest.approx(2.0) for c in out["oracle"])

    def test_epsilon_oracle_quadrature_failure_is_an_input_error(
        self, jfile, capsys
    ):
        # At t = 150 both zeta integrals of sgn^0 shrink like e^{-π|t|/4},
        # and the error estimates of its rules overrun the budget (1.5e-4
        # charged against 1e-7): the oracle refuses, it does not return a
        # value.
        rep = [{"rep": {"kind": "char", "a": 0, "t": "150"}, "mult": 1}]
        rc, out = run_json(capsys, ["epsilon", jfile(rep), "--oracle"])
        assert rc == 2
        assert out["error"].startswith("QuadratureFailure: ")

    @pytest.mark.parametrize(
        "obj", [[], {"V": {"p": 1, "q": 0}, "rep": []}], ids=["rep", "param"]
    )
    def test_epsilon_oracle_with_no_constituent_is_an_input_error(
        self, jfile, capsys, obj
    ):
        # an oracle run that checks nothing is no PASS, as an empty sweep is
        # none; without --oracle the empty representation has ε = 1
        rc, out = run_json(capsys, ["epsilon", jfile(obj)])
        assert rc == 0
        assert out == {"epsilon": "1", "exponent": 0, "is_real": True}
        rc, out = run_json(capsys, ["epsilon", jfile(obj), "--oracle"])
        assert rc == 2
        assert out == {
            "error": "epsilon --oracle: the representation has no "
            "constituent to check"
        }

    def test_quadrature_is_loaded_only_by_the_oracle(self, jfile):
        # A fresh interpreter per command: `import gpkit.cli` loads no layer
        # (not even gpkit.weilrep, which the package re-exports lazily), no
        # process pool and no `fractions`, each command loads only the
        # layers it runs, no command loads `dataclasses`, `inspect` or
        # scipy, and only the oracle loads gpkit.quadrature.  Unknown
        # attributes of gpkit.epsilon still raise without loading it.
        lp, eps, wr = "gpkit.lparam", "gpkit.epsilon", "gpkit.weilrep"
        cc, fr = "gpkit.conjclass", "fractions"
        for argv, loaded in (
            (None, set()),
            (["enumerate-pureinner", "1,0"], set()),
            (["verify", "union", "--max-dim", "4", "--jobs", "1"], {cc, fr}),
            (["verify", "fibers", "--max-dv", "5", "--jobs", "1"], {cc, fr}),
            (["verify", "dichotomy", "--max-dim", "5", "--max-k", "5"],
             {lp, eps, wr, fr}),
            (["classify", jfile(PARAM_SO21)], {lp, eps, wr, fr}),
            (["epsilon", jfile(PARAM_SO21)], {lp, eps, wr, fr}),
            # a bare representation is not validated against a space
            (["epsilon", jfile(PARAM_SO21["rep"], "rep.json")],
             {eps, wr, fr}),
            (["epsilon", jfile(PARAM_SO21), "--oracle"],
             {lp, eps, wr, fr, "gpkit.quadrature"}),
        ):
            script = f"""
import json, sys
import gpkit.cli
argv = {argv!r}
if argv is not None:
    assert gpkit.cli.run(["--json"] + argv) == 0, argv
if "gpkit.epsilon" in sys.modules and "gpkit.quadrature" not in sys.modules:
    try:
        getattr(sys.modules["gpkit.epsilon"], "nope")
    except AttributeError:
        pass
    else:
        raise AssertionError("gpkit.epsilon.nope resolved")
print(json.dumps([m for m in {sorted(WATCHED_MODULES)!r} if m in sys.modules]))
"""
            proc = _fresh_python("-c", script)
            assert proc.returncode == 0, (argv, proc.stderr)
            found = set(json.loads(proc.stdout.splitlines()[-1]))
            assert found == loaded, argv

    def test_oracle_runs_without_scipy(self, jfile):
        # scipy made unimportable: the oracle needs nothing outside the
        # standard library and still certifies a twisted character and a
        # twisted D_k
        rep = [{"rep": {"kind": "char", "a": 1, "t": "1/3"}, "mult": 1},
               {"rep": {"kind": "disc", "k": 3, "t": "-1/4"}, "mult": 1}]
        script = f"""
import sys
sys.modules["scipy"] = None
import gpkit.cli
sys.exit(gpkit.cli.run(["--json", "epsilon", {jfile(rep, "rep.json")!r}, "--oracle"]))
"""
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["status"] == "PASS"
        assert len(out["oracle"]) == 2

    def test_no_gpkit_module_loads_dataclasses(self):
        # every module of the package imported in a fresh interpreter: the
        # value classes need neither module, and none needs scipy
        script = """
import json, sys
import gpkit.cli, gpkit.conjclass, gpkit.epsilon, gpkit.lparam
import gpkit.quadrature, gpkit.quadspace, gpkit.weilrep
print(json.dumps([m for m in ("dataclasses", "inspect", "scipy")
                  if m in sys.modules]))
"""
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_dichotomy(self, jfile, capsys):
        rc, out = run_json(
            capsys, ["dichotomy", jfile(PAIR_SO45), "--sW", "00", "--sV", "01"]
        )
        assert rc == 0
        assert out == {
            "chi": -1,
            "factor_wplus_vminus": -1,
            "factor_wminus_vplus": 1,
            "product": -1,
            "ok": True,
        }

    def test_dichotomy_rejects_central_element(self, jfile, capsys):
        rc, out = run_json(
            capsys, ["dichotomy", jfile(PAIR_SO45), "--sW", "00", "--sV", "00"]
        )
        assert rc == 2
        assert "--sV" in out["error"]

    def test_enumerate_pureinner(self, capsys):
        rc, out = run_json(capsys, ["enumerate-pureinner", "2,1"])
        assert rc == 0
        assert out["space"] == {"p": 2, "q": 1}
        assert out["forms"] == [
            {"p": 2, "q": 1, "kottwitz_sign": 1, "quasi_split": True},
            {"p": 0, "q": 3, "kottwitz_sign": -1, "quasi_split": False},
        ]


# the sweep that reads each integer flag of `verify`
SWEEP_OF_FLAG = {
    "--max-dim": "union",
    "--max-dv": "fibers",
    "--max-k": "dichotomy",
    "--jobs": "fibers",
    "--e0": "union",
}

class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "union", "--max-dim", "4"],
            ["verify", "fibers", "--max-dv", "5"],
            ["verify", "dichotomy", "--max-dim", "4", "--max-k", "2"],
        ],
    )
    def test_small_sweeps_pass(self, capsys, argv):
        rc, out = run_json(capsys, argv)
        assert rc == 0
        assert out["status"] == "PASS"
        assert out["counterexamples"] == []
        assert out["cases_checked"] > 0
        assert isinstance(out["timing_ms"], int)
        assert out["command"] == f"verify {argv[1]}"

    def test_union_single_e0(self, capsys):
        rc, out = run_json(capsys, ["verify", "union", "--max-dim", "3", "--e0", "-1"])
        assert rc == 0 and out["status"] == "PASS"

    def test_parallel_jobs_from_a_fresh_interpreter(self, capsys):
        # the README promise: identical output for any job count, timing
        # aside.  The parent process and the pool workers start from
        # nothing, so a unit that misses one of its own imports fails here
        for argv in (
            ["verify", "union", "--max-dim", "4"],
            ["verify", "fibers", "--max-dv", "5"],
            ["verify", "dichotomy", "--max-dim", "6", "--max-k", "7"],
            # the pool workers build their row and verdict memos from nothing
            ["verify", "dichotomy", "--max-dim", "5", "--max-k", "25"],
        ):
            proc = _fresh_python("-m", "gpkit.cli", "--json", *argv,
                                 "--jobs", "2")
            assert proc.returncode == 0, proc.stderr
            parallel = json.loads(proc.stdout)
            rc, serial = run_json(capsys, argv + ["--jobs", "1"])
            assert rc == 0 and serial["status"] == "PASS"
            del parallel["timing_ms"], serial["timing_ms"]
            assert parallel == serial, argv

    def test_optimized_interpreter_gives_same_report(self, capsys):
        # Invariants are explicit raises, so `python -O` changes nothing.
        for argv in (
            ["verify", "dichotomy", "--max-dim", "6", "--max-k", "7"],
            ["verify", "union", "--max-dim", "7"],
            ["verify", "fibers", "--max-dv", "7"],
        ):
            proc = _fresh_python("-O", "-m", "gpkit.cli", "--json", *argv)
            assert proc.returncode == 0, proc.stderr
            optimized = json.loads(proc.stdout)
            rc, normal = run_json(capsys, argv)
            assert rc == 0 and normal["cases_checked"] > 0
            del optimized["timing_ms"], normal["timing_ms"]
            assert optimized == normal, argv

    def test_table_errors_raise_under_optimized_interpreter(self):
        # the factor table's range, central-element and non-symplectic
        # checks are explicit raises, so `python -O` keeps all three
        script = """
from fractions import Fraction
from gpkit.lparam import (CentralElement, GPCharacterTable, OddHalfExponent,
                          make_gp_pair, validate)
from gpkit.quadspace import QuadSpace
from gpkit.weilrep import CharRep, DiscRep, WeilRep
ONE, SGN = CharRep(0, Fraction(0)), CharRep(1, Fraction(0))
phiW = validate(WeilRep([ONE, SGN, DiscRep(2, Fraction(0))]), QuadSpace(2, 2))
phiV = validate(WeilRep([DiscRep(1, Fraction(0)), DiscRep(3, Fraction(0))]),
                QuadSpace(3, 2))
tab = GPCharacterTable(make_gp_pair(phiW, phiV))
x = 1 << tab.groupW.basis.index(ONE)
for read, args, error in (
    (tab.chi, (x, 0b01), OddHalfExponent),
    (tab.dichotomy, (x, 0b01), OddHalfExponent),
    (tab.dichotomy, (0, 0b00), CentralElement),
    (tab.dichotomy, (0, 0b11), CentralElement),
    (tab.chi, (0, 1 << 2), ValueError),
    (tab.dichotomy, (-1, 0b01), ValueError),
):
    try:
        read(*args)
    except error:
        continue
    raise SystemExit(f"{read.__name__}{args} did not raise {error.__name__}")
print("ok")
"""
        proc = _fresh_python("-O", "-c", script)
        assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr

    @pytest.mark.parametrize("jobs", ["0", "-1", "-8"])
    def test_nonpositive_jobs_is_an_input_error(self, capsys, jobs):
        rc, out = run_json(capsys, ["verify", "union", "--max-dim", "3",
                                    "--jobs", jobs])
        assert rc == 2
        assert "--jobs" in out["error"] and "status" not in out

    def test_jobs_clamped_to_usable_cpus(self, monkeypatch):
        # through the helper only: no pool is started here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert [cli._worker_count(j) for j in (1, 2, 3, 10**6)] == [1, 2, 2, 2]
        # with no sched_getaffinity: os.cpu_count(), or 1 when it is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [cli._worker_count(j) for j in (1, 2, 3, 10**6)] == [1, 2, 3, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert [cli._worker_count(j) for j in (1, 10**6)] == [1, 1]

    @pytest.mark.parametrize(
        "argv,case_keys",
        [
            (["verify", "union", "--max-dim", "3"], {"V", "e0", "D", "shape"}),
            (
                ["verify", "fibers", "--max-dv", "3"],
                {"kind", "W", "V", "n_elliptic", "e0"},
            ),
            (
                ["verify", "dichotomy", "--max-dim", "5", "--max-k", "5"],
                {"kind", "phiW", "phiV", "sW", "sV"},
            ),
        ],
        ids=["union", "fibers", "dichotomy"],
    )
    def test_broken_identity_gives_failure_records(
        self, capsys, monkeypatch, request, argv, case_keys
    ):
        if argv[1] == "dichotomy":
            # entries of the factor table negated (the row seam of
            # conftest.py): some tables are no characters and some
            # identities fail, as the reference finds under the same breach
            rows_of = request.getfixturevalue("row_seam")
            verdicts = [(gp, ReferenceTable(gp, rows_of(gp)).verify())
                        for gp in sweep_pairs(5, 5)]
        else:
            # every form gets Kottwitz sign +1, so the e0 = -1 side selects
            # nothing and its predicted coset is missed
            monkeypatch.setattr(conjclass, "kottwitz_sign", lambda V: 1)
        rc, out = run_json(capsys, argv)
        assert rc == 1 and out["status"] == "FAIL"
        assert out["counterexamples"]
        if argv[1] == "dichotomy":
            for ce in out["counterexamples"]:
                if ce["case"]["kind"] == "dichotomy":
                    assert set(ce) == {"case", "breakdown"}
                    assert set(ce["case"]) == case_keys
                else:
                    assert set(ce) == {"case"}
                    assert ce["case"]["kind"] == "chi-multiplicativity"
            kinds = {ce["case"]["kind"] for ce in out["counterexamples"]}
            assert kinds == {"chi-multiplicativity", "dichotomy"}
            assert out["counterexamples"] == sweep_records(verdicts)
            assert out["cases_checked"] == sum(v[0] for _, v in verdicts)
            return
        for ce in out["counterexamples"]:
            assert set(ce) == {"case", "lhs", "rhs"}
            assert set(ce["case"]) == case_keys
            for side in (ce["lhs"], ce["rhs"]):
                assert isinstance(side, list)
                assert all(
                    isinstance(c, list) and set(c) <= {1, -1} for c in side
                )
            assert ce["lhs"] != ce["rhs"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "union", "--max-dim", "-3"],
            ["verify", "fibers", "--max-dv", "0"],
            ["verify", "dichotomy", "--max-dim", "0"],
        ],
    )
    def test_empty_sweep_is_an_input_error(self, capsys, argv):
        # a sweep that checks nothing must not read as PASS
        rc, out = run_json(capsys, argv)
        assert rc == 2
        assert "no case" in out["error"] and "status" not in out

    def test_invariant_violation_in_sweep_exits_three(self, capsys, monkeypatch):
        # two quasi-split forms in an odd-dimensional class cannot happen
        monkeypatch.setattr(
            quadspace, "quasi_split_forms", lambda V: [V, V]
        )
        rc, out = run_json(capsys, ["verify", "union", "--max-dim", "3"])
        assert rc == 3
        assert out["error"].startswith("InvariantViolation:")

    def test_odd_half_exponent_in_sweep_exits_three(self, capsys, exponent_seam):
        # odd exponents (the exponent seam of conftest.py) make
        # non-symplectic blocks, which no CLI input can reach: the table's
        # invariant breach, not an input error
        rc, out = run_json(
            capsys, ["verify", "dichotomy", "--max-dim", "4", "--max-k", "3"]
        )
        assert rc == 3
        assert out == {
            "error": "OddHalfExponent: non-symplectic tensor block in χ"
        }

    def test_odd_half_exponent_in_sweep_exits_three_under_optimized_interpreter(
        self,
    ):
        # the same breach under `python -O`: the table's checks are explicit
        # raises, so the sweep still exits 3 with the same error
        script = """
from gpkit import cli, lparam
lparam._pair_exponent = lambda sig, rho: 1
rc = cli.run(["--json", "verify", "dichotomy", "--max-dim", "4",
              "--max-k", "3", "--jobs", "1"])
print(rc)
"""
        proc = _fresh_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stderr
        out, rc = proc.stdout.splitlines()
        assert rc == "3"
        assert json.loads(out) == {
            "error": "OddHalfExponent: non-symplectic tensor block in χ"
        }

    def test_invariant_violation_in_classify_exits_three(
        self, jfile, capsys, monkeypatch
    ):
        # hide every non-central element: the explicit condition then
        # disagrees with the trichotomy on a reduced (E) parameter
        monkeypatch.setattr(
            lparam.ComponentGroup, "masks", property(lambda self: (0,))
        )
        param = {"V": {"p": 3, "q": 2}, "rep": PAIR_SO45["phiV"]["rep"]}
        rc, out = run_json(capsys, ["classify", jfile(param)])
        assert rc == 3
        assert out["error"].startswith("InvariantViolation:")


class TestErrorsAndFormat:
    def test_missing_file(self, capsys):
        rc, out = run_json(capsys, ["classify", "/no/such/file.json"])
        assert rc == 2 and "error" in out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, out = run_json(capsys, ["classify", str(path)])
        assert rc == 2 and "error" in out

    def test_bad_sign_characters(self, jfile, capsys):
        rc, out = run_json(
            capsys, ["chi", jfile(PAIR_SO23), "--sW", "x", "--sV", "0"]
        )
        assert rc == 2 and "--sW" in out["error"]

    def test_wrong_sign_count(self, jfile, capsys):
        rc, out = run_json(
            capsys, ["chi", jfile(PAIR_SO23), "--sW", "00", "--sV", "0"]
        )
        assert rc == 2
        assert out == {
            "error": "--sW: signs must be +1 or -1, one per basis constituent (1)"
        }

    @pytest.mark.parametrize(
        "command,sW,sV,error",
        [
            # 1 + sgn on (2, 0): two basis slots, a group of rank 1
            ("chi", "0", "0",
             "--sW: signs must be +1 or -1, one per basis constituent (2)"),
            ("chi", "01", "0",
             "--sW: signs violate the odd-dimension product constraint"),
            ("dichotomy", "10", "1",
             "--sW: signs violate the odd-dimension product constraint"),
            ("chi", "11", "00",
             "--sV: signs must be +1 or -1, one per basis constituent (1)"),
        ],
        ids=["W count", "W constraint", "W constraint, dichotomy", "V count"],
    )
    def test_sign_errors_on_a_constrained_basis(
        self, jfile, capsys, command, sW, sV, error
    ):
        # the count names the basis length, not the rank, and a constraint
        # violation names its flag like every other sign-string error
        pair = {"phiW": PARAM_SO20_CONSTRAINED, "phiV": PARAM_SO21}
        rc, out = run_json(capsys, [command, jfile(pair), "--sW", sW, "--sV", sV])
        assert rc == 2
        assert out == {"error": error}

    def test_constraint_violation_on_the_v_side(self, jfile, capsys):
        pair = {"phiW": PARAM_SO21, "phiV": PARAM_SO22_CONSTRAINED}
        rc, out = run_json(
            capsys, ["chi", jfile(pair), "--sW", "0", "--sV", "100"]
        )
        assert rc == 2
        assert out == {
            "error": "--sV: signs violate the odd-dimension product constraint"
        }

    @pytest.mark.parametrize("argv", [["-1,0"], ["--", "-1,0"]], ids=repr)
    def test_negative_space_entry_is_a_space_error(self, capsys, argv):
        # argparse once read a bare -1,0 as an unknown option (usage error)
        rc, out = run_json(capsys, ["enumerate-pureinner", *argv])
        assert rc == 2
        assert out == {"error": "space: negative signature entry in (-1, 0)"}

    def test_bad_space_string(self, capsys):
        rc, out = run_json(capsys, ["enumerate-pureinner", "5"])
        assert rc == 2 and "error" in out

    @pytest.mark.parametrize(
        "text",
        ["1_0,0", "\u0661,0", "1,0,0", "+1,0", " 1,0", "1,0\n", "1.0,0",
         "0x1,0", "1,", ",", "-1,0"],
        ids=repr,
    )
    def test_space_integers_are_strict(self, capsys, text):
        # int() read 1_0 as 10 and the Arabic-Indic digit one as 1
        rc, out = run_json(capsys, ["enumerate-pureinner", "--", text])
        assert rc == 2
        assert out["error"].startswith("space: ")

    @pytest.mark.parametrize("flag", ["--max-dim", "--max-dv", "--max-k",
                                      "--jobs", "--e0"])
    @pytest.mark.parametrize(
        "value", ["0_1", "\u0661", "+1", " 1", "1 ", "1.0"], ids=repr
    )
    def test_integer_flags_are_strict(self, capsys, flag, value):
        # each of these once read as 1 through int(); each flag goes to a
        # sweep that reads it
        with pytest.raises(SystemExit) as exc:
            run(["--json", "verify", SWEEP_OF_FLAG[flag], flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer" in capsys.readouterr().err

    def test_integer_flags_take_plain_integers(self, capsys):
        for argv in (
            ["union", "--max-dim", "3", "--e0", "-1", "--jobs", "1"],
            ["fibers", "--max-dv", "03", "--jobs", "01"],
            ["dichotomy", "--max-dim", "3", "--max-k", "007"],
        ):
            rc, out = run_json(capsys, ["verify", *argv])
            assert rc == 0 and out["status"] == "PASS", argv
        # -0 reads as the integer 0, whose sweep is empty
        rc, out = run_json(capsys, ["verify", "fibers", "--max-dv", "-0"])
        assert rc == 2 and "no case" in out["error"]

    @pytest.mark.parametrize("max_k", ["-1", "-5"])
    def test_negative_max_k_is_refused(self, capsys, max_k):
        # the k range was empty, so a negative bound once checked the five
        # cases of --max-k 0 and printed PASS
        rc, out = run_json(capsys, ["verify", "dichotomy", "--max-dim", "3",
                                    "--max-k", max_k])
        assert rc == 2
        assert out == {
            "error": f"ValueError: max_k must be non-negative, got {max_k}"
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["fibers", "--max-dim", "20"],
            ["fibers", "--max-k", "3"],
            ["fibers", "--e0", "-1"],
            ["union", "--max-dv", "3"],
            ["union", "--max-k", "3"],
            ["dichotomy", "--max-dv", "3"],
            ["dichotomy", "--e0", "1"],
        ],
        ids=" ".join,
    )
    def test_a_sweep_refuses_another_sweeps_bounds(self, capsys, argv):
        # a bound the sweep does not read once passed silently, so
        # `verify fibers --max-dim 20` printed PASS on the default bounds
        with pytest.raises(SystemExit) as exc:
            run(["--json", "verify", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    @pytest.mark.parametrize(
        "argv,usage",
        [
            pytest.param(
                ["fibers", "--max-dim", "20"],
                "usage: gpkit verify fibers [-h] [--max-dv MAX_DV] [--jobs JOBS]",
                id="fibers --max-dim 20",
            ),
            pytest.param(
                ["dichotomy", "--max-dv", "3"],
                "usage: gpkit verify dichotomy [-h] [--max-dim MAX_DIM] "
                "[--max-k MAX_K] [--jobs JOBS]",
                id="dichotomy --max-dv 3",
            ),
        ],
    )
    def test_a_foreign_flag_shows_the_sweeps_own_usage(self, capsys, argv, usage):
        # the top-level usage line (`gpkit [-h] [--json] {classify,...}`)
        # named none of the flags the sweep does take
        with pytest.raises(SystemExit) as exc:
            run(["--json", "verify", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert " ".join(err.split()).startswith(usage)
        assert f"gpkit verify {argv[0]}: error: unrecognized arguments: " in err
        assert "{classify," not in err

    @pytest.mark.parametrize(
        "path,value",
        [
            (("V", "p"), 2.7),
            (("V", "q"), True),
            (("V", "p"), "2"),
            (("rep", 0, "rep", "k"), 1.9),
            (("rep", 0, "rep", "k"), 1.0),
            (("rep", 0, "mult"), True),
        ],
    )
    def test_integer_fields_are_strict(self, jfile, capsys, path, value):
        # no silent int() truncation: each of these once decoded to SO(2,1)/D_1
        param = json.loads(json.dumps(PARAM_SO21))
        *parents, key = path
        node = param
        for step in parents:
            node = node[step]
        node[key] = value
        rc, out = run_json(capsys, ["classify", jfile(param)])
        assert rc == 2
        assert repr(key) in out["error"]

    @pytest.mark.parametrize(
        "path,value",
        [
            (("rep", 0), {"rep": 5, "mult": 1}),
            (("rep", 0), {"rep": [2], "mult": 1}),
            (("rep", 0), 5),
            (("rep", 0), [{"kind": "disc", "k": 1, "t": "0"}, 1]),
            (("rep",), {"kind": "disc", "k": 1, "t": "0"}),
            ((), [PARAM_SO21]),
        ],
    )
    def test_non_object_entries_are_input_errors(
        self, jfile, capsys, path, value
    ):
        # a non-dict rep or entry once ended in an AttributeError, exit 1
        rc, out = run_json(capsys, ["classify", jfile(_edit(PARAM_SO21, path,
                                                            value))])
        assert rc == 2
        assert "object" in out["error"] or "list" in out["error"]

    @pytest.mark.parametrize(
        "value",
        [0.1, 0.5, True, False, "0.1", "1e3", "1/0", "x", "", None, [1]],
        ids=repr,
    )
    def test_twists_are_strict(self, jfile, capsys, value):
        # a float twist was read through its decimal repr, 0.1 as 1/10
        param = _edit(PARAM_SO21, ("rep", 0, "rep", "t"), value)
        rc, out = run_json(capsys, ["classify", jfile(param)])
        assert rc == 2
        assert "'t'" in out["error"]

    @pytest.mark.parametrize("value", [0, "0", "-0/3", "+0"], ids=repr)
    def test_twist_accepts_integers_and_fractions(self, jfile, capsys, value):
        param = _edit(PARAM_SO21, ("rep", 0, "rep", "t"), value)
        rc, out = run_json(capsys, ["component-group", jfile(param)])
        assert rc == 0 and out["size"] == 2

    @pytest.mark.parametrize(
        "path",
        [
            ("rep", 0, "rep"),
            ("rep", 0),
            (),
            ("V",),
        ],
    )
    def test_unknown_keys_are_refused(self, jfile, capsys, path):
        param = _edit(PARAM_SO21, path + ("junk",), 1)
        rc, out = run_json(capsys, ["classify", jfile(param)])
        assert rc == 2
        assert "unknown key(s) ['junk']" in out["error"]

    @pytest.mark.parametrize("path", [(), ("phiW",), ("phiV", "rep", 0)])
    def test_unknown_keys_in_pair_files_are_refused(self, jfile, capsys, path):
        pair = _edit(PAIR_SO23, path + ("junk",), 1)
        rc, out = run_json(
            capsys, ["chi", jfile(pair), "--sW", "0", "--sV", "1"]
        )
        assert rc == 2
        assert "unknown key(s) ['junk']" in out["error"]

    def test_epsilon_takes_a_parameter_object_and_nothing_else(
        self, jfile, capsys
    ):
        rc, out = run_json(capsys, ["epsilon", jfile(PARAM_SO21)])
        assert rc == 0
        assert out == {"epsilon": "-1", "exponent": 2, "is_real": True}
        rc, out = run_json(
            capsys, ["epsilon", jfile(dict(PARAM_SO21, junk=1))]
        )
        assert rc == 2 and "unknown key(s) ['junk']" in out["error"]
        # a JSON object is always a parameter object, so it needs its V
        rc, out = run_json(capsys, ["epsilon", jfile({"rep": PARAM_SO21["rep"]})])
        assert rc == 2
        assert out["error"] == "ValueError: missing key(s) ['V'] in parameter object"

    @pytest.mark.parametrize(
        "space,message",
        [
            ("nonsense", "expected a space object"),
            ({"p": 2.7, "junk": 1}, "unknown key(s) ['junk']"),
            ({"p": 2.7, "q": 1}, "'p' must be an integer"),
            ({"p": 2}, "missing key(s) ['q']"),
        ],
        ids=["not-an-object", "unknown-key", "float-field", "missing-key"],
    )
    def test_epsilon_decodes_the_space(self, jfile, capsys, space, message):
        rc, out = run_json(capsys, ["epsilon", jfile(dict(PARAM_SO21, V=space))])
        assert rc == 2 and message in out["error"]

    def test_epsilon_validates_the_parameter(self, jfile, capsys):
        # D_1 is Sp-type against SO(5,5), so the rep is no parameter there.
        bad = dict(PARAM_SO21, V={"p": 5, "q": 5})
        rc, out = run_json(capsys, ["epsilon", jfile(bad)])
        assert rc == 2 and out["error"].startswith("OddSpMultiplicity: ")

    def test_missing_key_is_named(self, jfile, capsys):
        param = json.loads(json.dumps(PARAM_SO21))
        del param["rep"][0]["rep"]["t"]
        rc, out = run_json(capsys, ["classify", jfile(param)])
        assert rc == 2 and "missing key(s) ['t']" in out["error"]

    def test_invalid_parameter_dim(self, jfile, capsys):
        bad = {
            "V": {"p": 3, "q": 2},
            "rep": [{"rep": {"kind": "disc", "k": 2, "t": "0"}, "mult": 1}],
        }
        rc, out = run_json(capsys, ["classify", jfile(bad)])
        assert rc == 2 and "error" in out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bogus"])
        assert exc.value.code == 2

    def test_default_output_is_indented(self, jfile, capsys):
        rc = run(["classify", jfile(PARAM_B)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("\n") > 1
        assert json.loads(out)["type"] == "B"

    def test_compact_output_is_single_line(self, jfile, capsys):
        rc = run(["--json", "classify", jfile(PARAM_B)])
        out = capsys.readouterr().out
        assert rc == 0 and out.count("\n") == 1


def _edit(obj, path, value):
    """A deep copy of ``obj`` with the node at ``path`` set to ``value``."""
    obj = json.loads(json.dumps(obj))
    if not path:
        return value
    *parents, key = path
    node = obj
    for step in parents:
        node = node[step]
    node[key] = value
    return obj


_twists = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_irreds = st.one_of(
    st.builds(CharRep, st.integers(0, 1), _twists),
    st.builds(DiscRep, st.integers(1, 12), _twists),
)


@st.composite
def _params(draw):
    """Valid parameters: GL-type pairs X + dual(X) and self-dual pieces
    twice over, on a target space of matching dimension (any parity)."""
    items = []
    for rho in draw(st.lists(_irreds, max_size=4)):
        items += [rho, dual(rho)]
    rep = WeilRep(items)
    dim = rep.dim + draw(st.integers(0, 1))
    p = draw(st.integers(0, dim))
    return validate(rep, QuadSpace(p, dim - p))


@given(
    st.builds(QuadSpace, st.integers(0, 9), st.integers(0, 9)),
    st.lists(st.tuples(_irreds, st.integers(1, 3)), max_size=5),
    _params(),
)
def test_json_round_trips_are_the_identity(V, items, phi):
    def through_json(obj):
        return json.loads(json.dumps(obj))

    assert space_from_json(through_json(space_to_json(V))) == V
    for rho, _ in items:
        assert irred_from_json(through_json(irred_to_json(rho))) == rho
    A = WeilRep(items)
    assert weilrep_from_json(through_json(weilrep_to_json(A))) == A
    phi2 = param_from_json(through_json(param_to_json(phi)))
    assert (phi2.rep, phi2.target) == (phi.rep, phi.target)


def _value_rows(tab):
    # the one-sided chi factors as bit rows (bit set for -1): valW[x] =
    # F[x][fullV] at bit x and valV[y] = F[fullW][y] at bit y
    _, minus = factor_rows(tab.gp)
    fullV = (1 << len(tab.groupV.basis)) - 1
    rowW = sum((minus[x] >> fullV & 1) << x for x in tab.groupW.masks)
    return rowW, minus[-1]


def _table_of_rows(tab, rowW, rowV):
    # chi(x, y) = valW[x] * valV[y], keyed as chi_table() keys it
    return {
        (x, y): -1 if (rowW >> x ^ rowV >> y) & 1 else 1
        for x in tab.groupW.masks
        for y in tab.groupV.masks
    }


def test_generator_criterion_matches_all_pairs_check_under_mutation():
    """Every table of the criterion-5 family (targets <= 10, k <= 9) with
    |S_W x S_V| <= 64 entries, and every flip of the valW or the valV row
    at one element, or at both elements of a coset {m, m ^ g} of the
    group's first generator g.

    Both checks accept the true tables.  A flip at the identity breaks
    chi(1, 1) = 1.  Any other flip multiplies the factor by -1 on the
    flipped set, which leaves a homomorphism only when that set is the
    complement of a subgroup of index 2; for these sets, exactly when the
    set is half the group.  Both checks must reject exactly the other
    flips; a check of g alone accepts every coset flip.
    """
    tables = rejected = 0
    for gp in sweep_pairs(10, 9):
        tab = GPCharacterTable(gp)
        masksW, masksV = tab.groupW.masks, tab.groupV.masks
        if len(masksW) * len(masksV) > 64:
            continue
        tables += 1
        groups = tab.groupW, tab.groupV
        rows = _value_rows(tab)
        assert _table_of_rows(tab, *rows) == tab.chi_table()
        assert lparam._is_multiplicative(*groups, *rows)
        assert all_pairs_multiplicative(tab.chi_table())
        for side, grp in enumerate(groups):
            flips = [{m} for m in grp.masks]
            flips += [{m, m ^ g} for g in grp.generators[:1]
                      for m in grp.masks if m < m ^ g]
            for flip in flips:
                flipped = list(rows)
                flipped[side] ^= sum(1 << m for m in flip)
                fast = lparam._is_multiplicative(*groups, *flipped)
                slow = all_pairs_multiplicative(_table_of_rows(tab, *flipped))
                still_character = 0 not in flip and 2 * len(flip) == len(grp.masks)
                assert fast == slow == still_character, (gp, side, flip)
                rejected += not fast
    assert (tables, rejected) == (842, 14_161)


# The exact-count identities of the benchmark's χ workloads, per sweep:
# (table builds, dichotomy calls, cases_checked).
BENCHMARK_IDENTITIES = {
    "chi-narrow": (5, 25, 8_464, 57_096, 1_749_697),
    "chi-wide": (10, 9, 992, 42_430, 6_608_055),
}


@pytest.mark.parametrize("workload", BENCHMARK_IDENTITIES)
def test_sweep_pins_the_benchmark_call_counts(workload, count_calls, capsys):
    # one table per pair and one dichotomy call per non-central element: the
    # counts the traced benchmark asserts, counted by wrapping the class the
    # same way, so a change that moves one fails here first
    max_dim, max_k, tables, dichotomies, cases = BENCHMARK_IDENTITIES[workload]
    calls = count_calls(GPCharacterTable, "__init__", "dichotomy")
    rc, out = run_json(capsys, ["verify", "dichotomy", "--max-dim",
                                str(max_dim), "--max-k", str(max_k)])
    assert (rc, out["cases_checked"], out["counterexamples"]) == (0, cases, [])
    assert calls == {"__init__": tables, "dichotomy": dichotomies}


# The exact-count identities of the benchmark's conjclass workload, `verify
# union --max-dim 13` then `verify fibers --max-dv 12`: calls of each traced
# conjclass and quadspace name, and cases_checked per sweep.
CONJCLASS_CALLS = {
    "verify_union_prop": 3_036,
    "verify_fiber_lemma": 1_456,
    "verify_fiber_union": 2_912,
    "is_regular": 50_524,
    "is_in_Xi_reg_V": 67_234,
    "kottwitz_sign": 30_404,
    "pure_inner_forms": 5_948,
    "is_admissible_pair": 8_099,
}
CONJCLASS_CASES = {"union": 3_036, "fibers": 4_368}


def test_conjclass_sweeps_pin_the_benchmark_call_counts(count_calls, capsys):
    # each name wrapped in every module that holds it, as the traced
    # benchmark does: every counted name runs on every (form, sign vector),
    # so a change that memoises one of their verdicts or skips a call fails
    # here first.  The embedding test of C_{V,W} is not counted: it runs
    # once per (form, signature), and its memo is checked by the
    # differential tests of tests/test_conjclass.py and the report digests
    for name in CONJCLASS_CALLS:
        calls = count_calls(quadspace if name in vars(quadspace) else conjclass, name)
    cases = {}
    for what, flag, bound in (("union", "--max-dim", 13),
                              ("fibers", "--max-dv", 12)):
        rc, out = run_json(capsys, ["verify", what, flag, str(bound)])
        assert (rc, out["counterexamples"]) == (0, [])
        cases[what] = out["cases_checked"]
    assert cases == CONJCLASS_CASES
    assert calls == CONJCLASS_CALLS


_KEYS = ("p", "q", "V", "rep", "mult", "kind", "a", "k", "t", "phiW", "phiV")
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats()
    | st.sampled_from(["char", "disc", "0", "1/2", "-1/3", "1/0", "2.5"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner,
                      max_size=5),
    max_leaves=24,
)


@pytest.mark.parametrize(
    "decode",
    [space_from_json, irred_from_json, weilrep_from_json, param_from_json,
     gp_pair_from_json],
)
@settings(deadline=None)
@given(value=_json_values)
def test_decoders_raise_only_input_errors(decode, value):
    # the exception types run() reports as an input error (exit 2)
    try:
        decode(value)
    except (ValueError, TypeError, KeyError, ArithmeticError):
        pass
