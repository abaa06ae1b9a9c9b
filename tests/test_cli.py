"""End-to-end tests of the command-line front end, run in-process."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import gpkit
from gpkit import cli, lparam, quadspace
from gpkit.cli import run
from gpkit.lparam import GPCharacterTable, enumerate_reduced, make_gp_pair
from gpkit.quadspace import QuadSpace


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
        argv = ["--json", "verify", "dichotomy", "--max-dim", "6", "--max-k", "7"]
        src = str(Path(gpkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gpkit.cli"] + argv,
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        optimized = json.loads(proc.stdout)
        rc, normal = run_json(capsys, argv[1:])
        assert rc == 0 and normal["cases_checked"] > 0
        del optimized["timing_ms"], normal["timing_ms"]
        assert optimized == normal

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
                    assert cli._is_multiplicative(masksW, masksV, valW, valV)
                    assert _all_pairs_multiplicative(masksW, masksV, valW, valV)
                    for side, (masks, val) in enumerate(
                        ((masksW, valW), (masksV, valV))
                    ):
                        for m in masks:
                            flipped = dict(val)
                            flipped[m] = -val[m]
                            vals = (flipped, valV) if side == 0 else (valW, flipped)
                            fast = cli._is_multiplicative(masksW, masksV, *vals)
                            slow = _all_pairs_multiplicative(masksW, masksV, *vals)
                            still_character = m != 0 and len(masks) == 2
                            assert fast == slow == still_character, (tab.gp, side, m)
                            rejected += not fast
    assert (tables, rejected) == (842, 9_770)
