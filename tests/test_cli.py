import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import conekit
from conekit.cli import encode, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCN = os.path.join(ROOT, "scenarios")
FUTURE = {"family": "future", "spatial_dim": 1}


def run_cli(args):
    return main(args)


class TestRun:
    def test_minkowski_p2_all_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run_cli(["run", os.path.join(SCN, "minkowski_p2.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert all(t["status"] == "pass" for t in report["tasks"])

    def test_p1_counterexample_fails_with_witness(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run_cli(["run", os.path.join(SCN, "p1_counterexample.json"), "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        (task,) = report["tasks"]
        assert task["status"] == "fail"
        assert task["witness"]["v"] == ["1/1", "1/1"]
        assert task["witness"]["w"] == ["1/1", "-1/1"]
        assert task["metrics"]["residual"] == "-4/1"

    def test_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "malformed.json"
        bad.write_text("{not json")
        assert run_cli(["run", str(bad)]) == 2

    def test_missing_schema_exits_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"tasks": []}))
        assert run_cli(["run", str(f)]) == 2

    def test_unknown_task_kind_exits_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"schema": "conekit/1", "tasks": [{"kind": "nope"}]}))
        assert run_cli(["run", str(f)]) == 2

    def test_malformed_scalar_exits_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        cone = {"family": "future", "spatial_dim": 1}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [{"kind": "extend", "x": ["1", "x"]}]}))
        assert run_cli(["run", str(f)]) == 2
        assert "cannot parse scalar 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, field",
        [
            ({"kind": "extend"}, "x"),
            ({"kind": "membership"}, "x"),
            ({"kind": "polarizability_check", "w": ["1", "0"]}, "v"),
            ({"kind": "polarizability_check", "v": ["1", "0"]}, "w"),
            ({"kind": "signature"}, "basis"),
        ],
        ids=["extend", "membership", "polarizability-v", "polarizability-w", "signature"],
    )
    def test_missing_task_field_exits_2(self, task, field, tmp_path, capsys):
        f = tmp_path / "s.json"
        cone = {"family": "future", "spatial_dim": 1}
        norm = {"family": "p", "p": 2, "spatial_dim": 1}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "norm": norm, "tasks": [task]}))
        assert run_cli(["run", str(f)]) == 2
        assert f"error: task missing field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, message",
        [
            ({"kind": "span", "seed": "x"}, "cannot parse seed 'x'"),
            ({"kind": "span", "trials": "abc"}, "cannot parse trials 'abc'"),
            ({"kind": "extend", "x": [0, 1], "expect": 1, "tol": "abc"}, "cannot parse tol 'abc'"),
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "orthant", "dim": []}}, "cannot parse dim []"),
        ],
        ids=["seed", "trials", "tol", "dim"],
    )
    def test_non_numeric_field_exits_2(self, task, message, tmp_path, capsys):
        f = tmp_path / "s.json"
        cone = {"family": "future", "spatial_dim": 1}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [task]}))
        assert run_cli(["run", str(f)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_json_decimal_membership_passes(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        cone = {"family": "pcone", "p": 2, "spatial_dim": 1}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [{"kind": "membership", "x": [1.5, 0]}]}))
        assert run_cli(["run", str(f)]) == 0
        assert "membership: pass" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "task, message",
        [
            ({"kind": "membership", "x": [math.inf, 0]}, "cannot parse scalar inf"),
            ({"kind": "membership", "x": [1, math.nan]}, "cannot parse scalar nan"),
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "pcone", "p": math.inf, "spatial_dim": 1}}, "cannot parse scalar inf"),
            ({"kind": "extend", "x": [0, 1], "cone": FUTURE, "expect": math.nan}, "cannot parse scalar nan"),
            ({"kind": "extend", "x": [0, 1], "cone": FUTURE, "expect": 1, "tol": math.inf}, "cannot parse tol inf"),
        ],
        ids=["x-inf", "x-nan", "p-inf", "expect-nan", "tol-inf"],
    )
    def test_non_finite_number_exits_2(self, task, message, tmp_path, capsys):
        # Python's json reads and writes NaN and Infinity
        f = tmp_path / "s.json"
        cone = {"family": "pcone", "p": 2, "spatial_dim": 1}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [task]}))
        assert run_cli(["run", str(f)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, message",
        [
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "pcone", "p": 2, "spatial_dim": 1.9}}, "cannot parse spatial_dim 1.9"),
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "orthant", "dim": True}}, "cannot parse dim True"),
            ({"kind": "wick", "trials": 2.5}, "cannot parse trials 2.5"),
            ({"kind": "wick", "trials": -5}, "trials must be >= 0, got -5"),
            ({"kind": "wick", "trials": 2, "seed": True}, "cannot parse seed True"),
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "pcone", "p": 2, "spatial_dim": -1}}, "spatial_dim must be >= 0, got -1"),
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "future", "spatial_dim": -2}}, "spatial_dim must be >= 0, got -2"),
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "orthant", "dim": 0}}, "dim must be >= 1, got 0"),
            ({"kind": "membership", "x": [1, 0], "cone": {"family": "orthant", "dim": -2}}, "dim must be >= 1, got -2"),
            (
                {"kind": "polarizability_check", "v": [1, 0], "w": [1, 0], "norm": {"family": "p", "p": 2, "spatial_dim": -1}},
                "spatial_dim must be >= 0, got -1",
            ),
        ],
        ids=[
            "spatial_dim-fraction",
            "dim-bool",
            "trials-fraction",
            "trials-negative",
            "seed-bool",
            "pcone-spatial_dim-negative",
            "future-spatial_dim-negative",
            "orthant-dim-zero",
            "orthant-dim-negative",
            "p-norm-spatial_dim-negative",
        ],
    )
    def test_bad_integer_field_exits_2(self, task, message, tmp_path, capsys):
        # an integer field is never truncated: 1.9 is not 1, true is not 1
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"schema": "conekit/1", "tasks": [task]}))
        assert run_cli(["run", str(f)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_integral_float_field_accepted(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        cone = {"family": "pcone", "p": 2, "spatial_dim": 1.0}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [{"kind": "membership", "x": [1, 0]}]}))
        assert run_cli(["run", str(f)]) == 0

    def test_basis_not_a_list_exits_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        norm = {"family": "p", "p": 2, "spatial_dim": 1}
        f.write_text(json.dumps({"schema": "conekit/1", "norm": norm, "tasks": [{"kind": "signature", "basis": 5}]}))
        assert run_cli(["run", str(f)]) == 2
        assert "error: expected a list of coordinate lists, got 5" in capsys.readouterr().err

    def test_task_not_an_object_exits_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"schema": "conekit/1", "tasks": ["wick"]}))
        assert run_cli(["run", str(f)]) == 2
        assert "error: scenario needs a list of task objects" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p, x, inside",
        [("inf", [1, 5], False), ("inf", [5, -5], True), ("3/2", [2, 1], True), (3, [1, 1], True), (1, [1, 2], False)],
    )
    def test_pcone_p_parsed(self, p, x, inside, tmp_path, capsys):
        f = tmp_path / "s.json"
        cone = {"family": "pcone", "p": p, "spatial_dim": 1}
        task = {"kind": "membership", "x": x, "expect": inside}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [task]}))
        out = tmp_path / "rep.json"
        assert run_cli(["run", str(f), "--out", str(out)]) == 0
        (task,) = json.loads(out.read_text())["tasks"]
        assert task["metrics"]["contains"] is inside

    @pytest.mark.parametrize("x, inside", [([3, 2, 2], None), ([5, 2, 2], True), ([2, 2, 1], False)])
    def test_pcone_huge_p_returns(self, x, inside, tmp_path, capsys):
        """p = 1e300 never builds x0^p: the bracket max |x_i| <= |x|_p <=
        sum |x_i| decides, and the band between them is a task error."""
        f = tmp_path / "s.json"
        cone = {"family": "pcone", "p": "1e300", "spatial_dim": 2}
        task = {"kind": "membership", "x": x, "expect": bool(inside)}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [task]}))
        out = tmp_path / "rep.json"
        t0 = time.perf_counter()
        assert run_cli(["run", str(f), "--out", str(out)]) == (1 if inside is None else 0)
        assert time.perf_counter() - t0 < 5
        (task,) = json.loads(out.read_text())["tasks"]
        if inside is None:
            assert task["status"] == "error" and "MAX_EXACT_P" in task["metrics"]["error"]
        else:
            assert task["metrics"]["contains"] is inside

    def test_norm_float_overflow_is_a_task_error(self, tmp_path, capsys):
        """5^p overflows a float for p = 1e300: the task reports an error."""
        f = tmp_path / "s.json"
        norm = {"family": "p", "p": "1e300", "spatial_dim": 2}
        task = {"kind": "polarizability_check", "v": ["5", "1", "1"], "w": ["5", "1", "1"]}
        f.write_text(json.dumps({"schema": "conekit/1", "norm": norm, "tasks": [task]}))
        out = tmp_path / "rep.json"
        assert run_cli(["run", str(f), "--out", str(out)]) == 1
        (task,) = json.loads(out.read_text())["tasks"]
        assert task["status"] == "error" and "float range" in task["metrics"]["error"]

    def test_norm_square_overflow_is_a_task_error(self, tmp_path, capsys):
        """Each norm is near 10^200, finite, but its square is not: the
        residual would be nan, so the task reports an error, not a fail."""
        f = tmp_path / "s.json"
        norm = {"family": "p", "p": "3/2", "spatial_dim": 1}
        task = {"kind": "polarizability_check", "v": ["1e200", "1"], "w": ["1e200", "1"]}
        f.write_text(json.dumps({"schema": "conekit/1", "norm": norm, "tasks": [task]}))
        out = tmp_path / "rep.json"
        assert run_cli(["run", str(f), "--out", str(out)]) == 1
        (task,) = json.loads(out.read_text())["tasks"]
        assert task["status"] == "error" and "float range" in task["metrics"]["error"]

    @pytest.mark.parametrize(
        "p, message",
        [
            ("abc", "cannot parse scalar 'abc'"),
            ([2], "cannot parse scalar [2]"),
            (0, "pcone needs p >= 1, got 0"),
            ("-1", "pcone needs p >= 1, got '-1'"),
            ("1/2", "pcone needs p >= 1, got '1/2'"),
        ],
    )
    def test_pcone_bad_p_exits_2(self, p, message, tmp_path, capsys):
        f = tmp_path / "s.json"
        cone = {"family": "pcone", "p": p, "spatial_dim": 1}
        f.write_text(json.dumps({"schema": "conekit/1", "cone": cone, "tasks": [{"kind": "membership", "x": [1, 0]}]}))
        assert run_cli(["run", str(f)]) == 2
        assert f"error: {message}" in capsys.readouterr().err


    def test_p_norm_inf_below_one(self, tmp_path, capsys):
        # every vector here has x0 < 1 and lies inside the p = inf cone
        f = tmp_path / "s.json"
        norm = {"family": "p", "p": "inf", "spatial_dim": 1}
        task = {"kind": "polarizability_check", "v": ["1/2", "1/4"], "w": ["1/3", "0"]}
        f.write_text(json.dumps({"schema": "conekit/1", "norm": norm, "tasks": [task]}))
        out = tmp_path / "rep.json"
        assert run_cli(["run", str(f), "--out", str(out)]) == 0
        (task,) = json.loads(out.read_text())["tasks"]
        assert task["status"] == "pass"
        assert abs(task["metrics"]["residual"]) <= 1e-12

    @pytest.mark.parametrize(
        "p, message",
        [
            ("abc", "cannot parse scalar 'abc'"),
            (0, "p norm needs p >= 1, got 0"),
            ("-2", "p norm needs p >= 1, got '-2'"),
            ("1/2", "p norm needs p >= 1, got '1/2'"),
        ],
    )
    def test_p_norm_bad_p_exits_2(self, p, message, tmp_path, capsys):
        f = tmp_path / "s.json"
        norm = {"family": "p", "p": p, "spatial_dim": 1}
        task = {"kind": "polarizability_check", "v": [2, 1], "w": [1, 0]}
        f.write_text(json.dumps({"schema": "conekit/1", "norm": norm, "tasks": [task]}))
        assert run_cli(["run", str(f)]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def strip_times(report):
    for t in report["tasks"]:
        t.pop("wall_time_ms", None)
    return report


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        scenario = os.path.join(SCN, "minkowski_p2.json")
        assert run_cli(["run", scenario, "--out", str(a), "--seed", "42"]) == 0
        assert run_cli(["run", scenario, "--out", str(b), "--seed", "42"]) == 0
        ra = strip_times(json.loads(a.read_text()))
        rb = strip_times(json.loads(b.read_text()))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "s.json"
        f.write_text(
            json.dumps(
                {
                    "schema": "conekit/1",
                    "name": "seeded",
                    "tasks": [{"kind": "span", "trials": 20, "seed": 1}],
                }
            )
        )
        monkeypatch.setenv("CONEKIT_SEED", "7")
        assert run_cli(["run", str(f)]) == 0

    @pytest.mark.parametrize("command", [["run", os.path.join(SCN, "p1_counterexample.json")], ["proptest"]])
    def test_env_seed_empty_is_unset(self, command, tmp_path, capsys, monkeypatch):
        args = command + ["--out", str(tmp_path / "r.json")]
        if command[0] == "proptest":
            args += ["--suite", "span", "--trials", "5"]
        want = run_cli(args)
        unset = json.loads((tmp_path / "r.json").read_text())
        monkeypatch.setenv("CONEKIT_SEED", "")
        assert run_cli(args) == want
        empty = json.loads((tmp_path / "r.json").read_text())
        assert strip_times(empty) == strip_times(unset)

    @pytest.mark.parametrize("command", [["run", os.path.join(SCN, "minkowski_p2.json")], ["proptest"]])
    def test_env_seed_not_an_integer_exits_2(self, command, capsys, monkeypatch):
        monkeypatch.setenv("CONEKIT_SEED", "seven")
        assert run_cli(command) == 2
        assert "CONEKIT_SEED" in capsys.readouterr().err

    def test_env_seed_overridden_by_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("CONEKIT_SEED", "seven")
        assert run_cli(["proptest", "--suite", "span", "--trials", "5", "--seed", "3"]) == 0

    def test_proptest_negative_trials_exits_2(self, capsys):
        assert run_cli(["proptest", "--suite", "wick", "--trials", "-5"]) == 2
        assert "error: trials must be >= 0, got -5" in capsys.readouterr().err

    def test_run_and_proptest_encode_suites_alike(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"schema": "conekit/1", "tasks": [{"kind": "order", "trials": 15}]}))
        run_out, prop_out = tmp_path / "run.json", tmp_path / "prop.json"
        assert run_cli(["run", str(f), "--seed", "5", "--out", str(run_out)]) == 0
        args = ["proptest", "--suite", "order", "--trials", "15", "--seed", "5", "--out", str(prop_out)]
        assert run_cli(args) == 0
        (run_task,) = json.loads(run_out.read_text())["tasks"]
        (prop_task,) = json.loads(prop_out.read_text())["tasks"]
        for key in ("name", "status", "metrics", "witness"):
            assert run_task[key] == prop_task[key]


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


class TestGolden:
    """``conekit run --seed 42`` on each shipped scenario, byte for byte.

    The fixtures are the reports with ``wall_time_ms`` removed, written as
    the CLI writes them: ``conekit run scenarios/<name>.json --seed 42
    --out <file>``, then each task's ``wall_time_ms`` dropped.  Any change
    in an exact answer fails here.
    """

    @pytest.mark.parametrize("name, code", [("minkowski_p2", 0), ("p1_counterexample", 1)])
    def test_report_matches_fixture(self, name, code, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run_cli(["run", os.path.join(SCN, f"{name}.json"), "--seed", "42", "--out", str(out)]) == code
        got = json.dumps(strip_times(json.loads(out.read_text())), indent=2, sort_keys=True) + "\n"
        with open(os.path.join(FIXTURES, f"run_seed42_{name}.json")) as fh:
            assert got == fh.read()


class TestProptest:
    def test_single_suite(self, capsys):
        assert run_cli(["proptest", "--suite", "span", "--trials", "20"]) == 0
        assert "span: pass" in capsys.readouterr().out


class TestGram:
    def test_gram_output(self, capsys):
        code = run_cli(["gram", "--spatial-dim", "1", "--basis", '[["1","0"],["1","1"]]'])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gram"] == [["1/1", "1/1"], ["1/1", "0/1"]]
        assert out["standard"] == [["1/1", "0/1"], ["0/1", "-1/1"]]
        assert out["signature"]["kind"] == "lorentzian"

    def test_json_decimals_are_exact(self, capsys):
        outs = []
        for basis in ("[[1.5, 0.5],[1,1]]", '[["3/2","1/2"],["1","1"]]'):
            assert run_cli(["gram", "--spatial-dim", "1", "--basis", basis]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("basis", ["[[NaN, 0],[1,1]]", "[[1, Infinity],[1,1]]", "[[1, 0],[-Infinity,1]]"])
    def test_non_finite_basis_exits_2(self, basis, capsys):
        assert run_cli(["gram", "--spatial-dim", "1", "--basis", basis]) == 2
        assert "error: cannot parse scalar" in capsys.readouterr().err

    @pytest.mark.parametrize("big", ["1e10000000", "-1e-10000000"])
    def test_huge_exponent_exits_2(self, big, capsys):
        # Fraction would expand the exponent in full, for seconds
        basis = json.dumps([[big, "0"], ["1", "1"]])
        assert run_cli(["gram", "--spatial-dim", "1", "--basis", basis]) == 2
        assert f"error: cannot parse scalar {big!r}" in capsys.readouterr().err

    def test_basis_not_a_list_exits_2(self, capsys):
        assert run_cli(["gram", "--spatial-dim", "1", "--basis", "5"]) == 2
        assert "error: expected a list of coordinate lists, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p, message",
        [
            ("0", "--p needs p >= 1, got '0'"),
            ("-1", "--p needs p >= 1, got '-1'"),
            ("abc", "cannot parse scalar 'abc'"),
            ("1/2", "--p needs p >= 1, got '1/2'"),
        ],
    )
    def test_bad_p_exits_2(self, p, message, capsys):
        assert run_cli(["gram", "--p", p, "--spatial-dim", "1", "--basis", '[["1","0"],["1","1"]]']) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_negative_spatial_dim_exits_2(self, capsys):
        assert run_cli(["gram", "--spatial-dim", "-1", "--basis", '[["1","0"],["1","1"]]']) == 2
        assert "error: --spatial-dim must be >= 0, got -1" in capsys.readouterr().err

    def test_float_backend_large_entries(self, capsys):
        basis = '[["3000","1000","300.3"],["2000","1000","0"],["5000","2000","3000"]]'
        code = run_cli(["gram", "--spatial-dim", "2", "--basis", basis])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["signature"] == {"kind": "lorentzian", "plus": 1, "minus": 2, "zero": 0}
        gram = out["gram"]
        assert all(gram[i][j] == gram[j][i] for i in range(3) for j in range(3))


class TestMalformedJson:
    @pytest.mark.parametrize(
        "args",
        [
            ["extend", "--cone", '{"family":"future","spatial_dim":1', "--x", "[0, 1]"],
            ["extend", "--cone", '{"family":"future","spatial_dim":1}', "--x", "[0, 1"],
            ["gram", "--spatial-dim", "1", "--basis", '[["1","0"],["1","1"]'],
        ],
        ids=["extend-cone", "extend-x", "gram-basis"],
    )
    def test_argument_exits_2(self, args, capsys):
        assert run_cli(args) == 2
        assert "error: malformed JSON in --" in capsys.readouterr().err

    def test_report_file_exits_2(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        rep.write_text('{"tasks": [')
        assert run_cli(["report", str(rep)]) == 2
        assert "error: cannot load report" in capsys.readouterr().err


class TestExtend:
    def test_extend_value(self, capsys):
        code = run_cli(
            ["extend", "--cone", '{"family":"future","spatial_dim":1}', "--x", "[0, 1]"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - 2**0.5) < 1e-3

    @pytest.mark.parametrize("t", ['["1","0"]', '["2","0"]'])
    def test_extend_non_unit_t(self, t, capsys):
        cone = '{"family":"future","spatial_dim":1,"t":%s}' % t
        assert run_cli(["extend", "--cone", cone, "--x", "[0, 1]", "--base-norm", "l1", "--oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 2.0
        assert out["oracle"] == pytest.approx(2.0, abs=1e-5)

    def test_zero_cone_l2(self, capsys):
        cone = '{"family":"polyhedral","generators":[["0","0"]]}'
        assert run_cli(["extend", "--cone", cone, "--x", "[0, 0]", "--base-norm", "l2"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_malformed_scalar_exits_2(self, capsys):
        code = run_cli(["extend", "--cone", '{"family":"future","spatial_dim":1}', "--x", '["abc", 1]'])
        assert code == 2
        assert "cannot parse scalar 'abc'" in capsys.readouterr().err

    def test_non_numeric_spatial_dim_exits_2(self, capsys):
        assert run_cli(["extend", "--cone", '{"family":"future","spatial_dim":"x"}', "--x", "[0, 1]"]) == 2
        assert "error: cannot parse spatial_dim 'x'" in capsys.readouterr().err

    def test_fraction_string_in_float_target(self, capsys):
        outs = []
        for x in ('["1/2", 0.5]', "[0.5, 0.5]"):
            assert run_cli(["extend", "--cone", '{"family":"future","spatial_dim":1}', "--x", x]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("x", ["[NaN, 1]", "[0, Infinity]", "[-Infinity, 0]"])
    def test_non_finite_target_exits_2(self, x, capsys):
        assert run_cli(["extend", "--cone", '{"family":"future","spatial_dim":1}', "--x", x]) == 2
        assert "error: cannot parse scalar" in capsys.readouterr().err

    @pytest.mark.parametrize("x, norm", [("[1]", "l1"), ("[1]", "l2"), ("[1, 2, 3]", "linf")])
    def test_target_dimension_mismatch_exits_1(self, x, norm, capsys):
        cone = '{"family":"polyhedral","generators":[[1,0],[0,1]]}'
        assert run_cli(["extend", "--cone", cone, "--x", x, "--base-norm", norm, "--oracle"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestEncode:
    @pytest.mark.parametrize("value", [1.5, np.float64(1.5)], ids=["float", "np.float64"])
    def test_floats_pass_through(self, value):
        assert encode(value) == 1.5 and json.dumps(encode(value)) == "1.5"


class TestReportCsv:
    def test_csv(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        run_cli(["run", os.path.join(SCN, "p1_counterexample.json"), "--out", str(rep)])
        capsys.readouterr()
        assert run_cli(["report", str(rep)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "task,status,metric,wall_time_ms"
        assert lines[1].startswith("polarizability-p1,fail")

    def test_task_without_status_exits_2(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        rep.write_text(json.dumps({"tasks": [{"name": "a", "wall_time_ms": 1.0}]}))
        assert run_cli(["report", str(rep)]) == 2
        assert "error: task missing field 'status'" in capsys.readouterr().err

    def test_task_not_an_object_exits_2(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        rep.write_text(json.dumps({"tasks": ["a"]}))
        assert run_cli(["report", str(rep)]) == 2
        assert "error: report needs a list of task objects" in capsys.readouterr().err


class TestOptions:
    @pytest.mark.parametrize(
        "args",
        [
            ["extend", "--cone", '{"family":"future","spatial_dim":1}', "--x", "[0, 1]"]
            + ["--backend", "float"],
            ["report", "r.json", "--csv"],
            ["gram", "--spatial-dim", "1", "--basis", "[]", "--seed", "1"],
            ["proptest", "--tol", "0.1"],
            ["gram", "--spatial-dim", "1", "--basis", "[]", "--backend", "float"],
        ],
    )
    def test_unread_options_exit_2(self, args, capsys):
        # each subcommand accepts only the options it reads
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2


class TestConsoleScript:
    def test_module_invocation(self):
        # the child imports the same conekit, installed or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(conekit.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "conekit.cli", "proptest", "--suite", "span", "--trials", "5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
