"""End-to-end tests of the command-line front end, run in-process."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gpkit
from gpkit import cli, conjclass, lparam, quadspace
from gpkit.cli import run
from gpkit.lparam import (
    GPCharacterTable,
    enumerate_reduced,
    gp_pair_from_json,
    make_gp_pair,
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
            cli, "eps_numeric_oracle", lambda rho, tol: -cli.eps_half(rho).value
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
        # For D_400 the radial window runs to √(400/4π) + 3 ≈ 8.6, past the
        # peak of r^400 e^{-2πr²}, and r^400 alone leaves the float range
        # there (as does Γ(200.5) in the L-factor): the oracle refuses, it
        # does not return a value.
        rep = [{"rep": {"kind": "disc", "k": 400, "t": "0"}, "mult": 1}]
        rc, out = run_json(capsys, ["epsilon", jfile(rep), "--oracle"])
        assert rc == 2
        assert out["error"].startswith("QuadratureFailure: ")

    def test_scipy_is_loaded_only_by_the_oracle(self, jfile):
        # A fresh interpreter: the sweeps and one-shots must not import
        # scipy; the oracle does, and unknown module attributes still raise.
        script = f"""
import sys
import gpkit.cli, gpkit.epsilon
from gpkit.cli import run
assert "scipy" not in sys.modules
for argv in (
    ["enumerate-pureinner", "1,0"],
    ["verify", "union", "--max-dim", "4"],
    ["verify", "dichotomy", "--max-dim", "5", "--max-k", "5"],
):
    assert run(["--json"] + argv) == 0, argv
assert "scipy" not in sys.modules
try:
    getattr(gpkit.epsilon, "nope")
except AttributeError:
    pass
else:
    raise AssertionError("gpkit.epsilon.nope resolved")
assert run(["--json", "epsilon", {jfile(PARAM_SO21)!r}, "--oracle"]) == 0
assert "scipy" in sys.modules
"""
        src = str(Path(gpkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

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


# the report every dichotomy call gives in the broken-identity test
BROKEN_REPORT = lparam.DichotomyReport(False, 1, 1, -1)


def _broken_dichotomy_records(max_dim, max_k):
    """The counterexamples of `verify dichotomy` when every multiplicativity
    check and every dichotomy identity fails, in report order: one record
    per pair, and one per (s_W, non-central s_V) with s_W and s_V as ±1
    lists, one entry per basis slot."""
    def signs(mask, group):
        return [-1 if mask >> i & 1 else 1 for i in range(len(group.basis))]

    records = []
    for dv in range(1, max_dim + 1):
        for dw in range(dv - 1, -1, -2):
            a = (dv - dw + 1) // 2
            W, V = QuadSpace(dw, 0), QuadSpace(dw + a, dv - dw - a)
            for phiW in enumerate_reduced(W, max_k):
                for phiV in enumerate_reduced(V, max_k):
                    pair = {"phiW": repr(phiW.rep), "phiV": repr(phiV.rep)}
                    records.append(
                        {"case": {"kind": "chi-multiplicativity", **pair}}
                    )
                    gW, gV = phiW.group, phiV.group
                    central = (0, (1 << len(gV.basis)) - 1)
                    records += [
                        {
                            "case": {
                                "kind": "dichotomy",
                                **pair,
                                "sW": signs(x, gW),
                                "sV": signs(y, gV),
                            },
                            "breakdown": BROKEN_REPORT.breakdown(),
                        }
                        for y in gV.masks() if y not in central
                        for x in gW.masks()
                    ]
    return sorted(records, key=lambda ce: json.dumps(ce, sort_keys=True))


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

    def test_parallel_jobs(self, capsys):
        # the README promise: identical output for any job count, timing aside
        for argv in (
            ["verify", "union", "--max-dim", "4"],
            ["verify", "fibers", "--max-dv", "5"],
            ["verify", "dichotomy", "--max-dim", "6", "--max-k", "7"],
        ):
            reports = []
            for jobs in ("1", "2"):
                rc, out = run_json(capsys, argv + ["--jobs", jobs])
                assert rc == 0 and out["status"] == "PASS"
                del out["timing_ms"]
                reports.append(out)
            assert reports[0] == reports[1]

    def test_optimized_interpreter_gives_same_report(self, capsys):
        # Invariants are explicit raises, so `python -O` changes nothing.
        src = str(Path(gpkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        for argv in (
            ["verify", "dichotomy", "--max-dim", "6", "--max-k", "7"],
            ["verify", "union", "--max-dim", "7"],
            ["verify", "fibers", "--max-dv", "7"],
        ):
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "gpkit.cli", "--json"] + argv,
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            optimized = json.loads(proc.stdout)
            rc, normal = run_json(capsys, argv)
            assert rc == 0 and normal["cases_checked"] > 0
            del optimized["timing_ms"], normal["timing_ms"]
            assert optimized == normal, argv

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

    def test_counterexample_exits_one(self, capsys, monkeypatch):
        fake = {"case": {"V": [1, 0]}, "lhs": [], "rhs": [[1]]}

        def broken_unit(case):
            return {"key": list(case[:2]), "checked": 1, "counterexamples": [fake]}

        monkeypatch.setitem(cli._SWEEPS, "union", broken_unit)
        rc, out = run_json(capsys, ["verify", "union", "--max-dim", "1"])
        assert rc == 1
        assert out["status"] == "FAIL"
        assert fake in out["counterexamples"]

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
        self, capsys, monkeypatch, argv, case_keys
    ):
        if argv[1] == "dichotomy":
            # every multiplicativity check and every identity fails
            monkeypatch.setattr(cli, "_is_multiplicative", lambda *a: False)
            monkeypatch.setattr(
                GPCharacterTable, "dichotomy", lambda self, *s: BROKEN_REPORT
            )
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
            assert out["counterexamples"] == _broken_dichotomy_records(5, 5)
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

    def test_invariant_violation_in_classify_exits_three(
        self, jfile, capsys, monkeypatch
    ):
        # hide every non-central element: the explicit condition then
        # disagrees with the trichotomy on a reduced (E) parameter
        monkeypatch.setattr(lparam.ComponentGroup, "masks", lambda self: [0])
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
        assert rc == 2 and "rank-1" in out["error"]

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
        # each of these once read as 1 through int()
        with pytest.raises(SystemExit) as exc:
            run(["--json", "verify", "union", "--max-dim", "2", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer" in capsys.readouterr().err

    def test_integer_flags_take_plain_integers(self, capsys):
        rc, out = run_json(capsys, ["verify", "union", "--max-dim", "3",
                                    "--max-dv", "-0", "--max-k", "007",
                                    "--e0", "-1", "--jobs", "1"])
        assert rc == 0 and out["status"] == "PASS"

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
        assert rc == 0 and out["exponent"] == 2
        rc, out = run_json(
            capsys, ["epsilon", jfile(dict(PARAM_SO21, junk=1))]
        )
        assert rc == 2 and "unknown key(s) ['junk']" in out["error"]

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
        rc, out = run_json(capsys, ["epsilon", jfile(PARAM_SO21)])
        assert rc == 0
        assert out == {"epsilon": "-1", "exponent": 2, "is_real": True}

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


def _all_pairs_multiplicative(masksW, masksV, valW, valV):
    """The quadratic oracle of acceptance criterion 5: every product identity."""
    table = {(x, y): valW[x] * valV[y] for x in masksW for y in masksV}
    return all(v in (1, -1) for v in table.values()) and all(
        table[(x1 ^ x2, y1 ^ y2)] == v1 * v2
        for ((x1, y1), v1), ((x2, y2), v2) in product(table.items(), repeat=2)
    )


def test_generator_criterion_matches_all_pairs_check_under_mutation():
    """Every table of the criterion-5 family (targets <= 10, k <= 9) with
    |S_W x S_V| <= 64 entries, and every single flip of one valW or valV value.

    Both checks accept the true tables.  A flip at the identity breaks
    chi(1, 1) = 1, and a flip at x != 0 leaves a homomorphism only when the
    factor's group has order 2 (it swaps that group's two characters), so
    both checks must reject exactly the other flips.
    """
    tables = rejected = 0
    for dv in range(1, 11):
        for dw in range(dv - 1, -1, -2):
            a = (dv - dw + 1) // 2
            W, V = QuadSpace(dw, 0), QuadSpace(dw + a, dv - dw - a)
            for phiW in enumerate_reduced(W, 9):
                for phiV in enumerate_reduced(V, 9):
                    tab = GPCharacterTable(make_gp_pair(phiW, phiV))
                    masksW, masksV, valW, valV = tab.mask_tables()
                    if len(masksW) * len(masksV) > 64:
                        continue
                    tables += 1
                    groups = tab.groupW, tab.groupV
                    assert cli._is_multiplicative(*groups, valW, valV)
                    assert _all_pairs_multiplicative(masksW, masksV, valW, valV)
                    for side, (masks, val) in enumerate(
                        ((masksW, valW), (masksV, valV))
                    ):
                        for m in masks:
                            flipped = dict(val)
                            flipped[m] = -val[m]
                            vals = (flipped, valV) if side == 0 else (valW, flipped)
                            fast = cli._is_multiplicative(*groups, *vals)
                            slow = _all_pairs_multiplicative(masksW, masksV, *vals)
                            still_character = m != 0 and len(masks) == 2
                            assert fast == slow == still_character, (tab.gp, side, m)
                            rejected += not fast
    assert (tables, rejected) == (842, 9_770)


# The exact-count identities of the benchmark's χ workloads, per sweep:
# (table builds, dichotomy calls, cases_checked).
BENCHMARK_IDENTITIES = {
    "chi-narrow": (5, 25, 8_464, 57_096, 1_749_697),
    "chi-wide": (10, 9, 992, 42_430, 6_608_055),
}


@pytest.mark.parametrize("workload", BENCHMARK_IDENTITIES)
def test_sweep_pins_the_benchmark_call_counts(workload, monkeypatch):
    # one table per pair and one dichotomy call per non-central element: the
    # counts the traced benchmark asserts, counted by wrapping the class the
    # same way, so a change that moves one fails here first
    max_dim, max_k, tables, dichotomies, cases = BENCHMARK_IDENTITIES[workload]
    calls = {"__init__": 0, "dichotomy": 0}
    for name in calls:
        method = vars(GPCharacterTable)[name]

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(GPCharacterTable, name, counted)
    args = cli._build_parser().parse_args(
        ["verify", "dichotomy", "--max-dim", str(max_dim), "--max-k", str(max_k)]
    )
    results = [cli._dichotomy_unit(case) for case in cli._sweep_cases(args)]
    assert sum(r["checked"] for r in results) == cases
    assert not any(r["counterexamples"] for r in results)
    assert calls == {"__init__": tables, "dichotomy": dichotomies}


# The exact-count identities of the benchmark's conjclass workload, `verify
# union --max-dim 13` then `verify fibers --max-dv 12`: calls of each traced
# conjclass name, and cases_checked per sweep.
CONJCLASS_CALLS = {
    "verify_union_prop": 3_036,
    "verify_fiber_lemma": 1_456,
    "verify_fiber_union": 2_912,
    "is_regular": 50_524,
    "is_in_Xi_reg_V": 67_234,
}
CONJCLASS_CASES = {"union": 3_036, "fibers": 4_368}


def test_conjclass_sweeps_pin_the_benchmark_call_counts(monkeypatch):
    # each name wrapped in every module that holds it, as the traced
    # benchmark does: every predicate runs on every (form, sign vector), so
    # a change that memoises a verdict or skips a call fails here first
    calls = dict.fromkeys(CONJCLASS_CALLS, 0)
    for name in calls:
        target = getattr(conjclass, name)

        def counted(*args, _name=name, _fn=target, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (cli, conjclass):
            if getattr(mod, name, None) is target:
                monkeypatch.setattr(mod, name, counted)
    cases = {}
    for what, flag, bound, unit in (
        ("union", "--max-dim", 13, cli._union_unit),
        ("fibers", "--max-dv", 12, cli._fiber_unit),
    ):
        args = cli._build_parser().parse_args(["verify", what, flag, str(bound)])
        results = [unit(case) for case in cli._sweep_cases(args)]
        assert not any(r["counterexamples"] for r in results)
        cases[what] = sum(r["checked"] for r in results)
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
