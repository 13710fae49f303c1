import csv
import json
import math
import os
import shutil
import stat
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from gztower import cli
from gztower.tower import new_tower, tower_from_json, tower_to_json

from conftest import jordan_tower, plain_tower, theta_tower

REPORT_SCHEMA = {
    "type": "object",
    "required": ["tool", "version", "command", "seed", "rng", "tolerance", "input", "checks"],
    "properties": {
        "tool": {"const": "gztower"},
        "version": {"type": "string"},
        "command": {"const": "check"},
        "seed": {"type": "integer"},
        "rng": {
            "type": "object",
            "required": ["algorithm"],
            "properties": {"algorithm": {"type": "string"}},
        },
        "tolerance": {
            "type": "object",
            "required": ["rel", "abs"],
            "properties": {"rel": {"type": "number"}, "abs": {"type": "number"}},
        },
        "input": {"type": "string"},
        "suite": {"type": "array", "items": {"type": "string"}},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "property", "passed", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "property": {"type": "string"},
                    "passed": {"enum": ["true", "false", "indeterminate"]},
                    "details": {"type": "object"},
                },
            },
        },
    },
}


def write_tower(path, tower):
    path.write_text(tower_to_json(tower) + "\n", encoding="utf-8")


class TestGen:
    def test_gen_produces_valid_sreg_tower(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = cli.main(["gen", "--depth", "4", "--seed", "7", "-o", str(out)])
        assert code == 0
        T = tower_from_json(out.read_text())
        assert T.depth == 4
        from gztower.regularity import sreg_report

        assert sreg_report(T).verdict == "true"
        assert "sreg=true" in capsys.readouterr().out

    def test_gen_depth_one(self, tmp_path):
        out = tmp_path / "t1.json"
        assert cli.main(["gen", "--depth", "1", "--seed", "1", "-o", str(out)]) == 0
        assert tower_from_json(out.read_text()).depth == 1

    def test_gen_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["gen", "--depth", "5", "--seed", "42", "-o", str(a)])
        cli.main(["gen", "--depth", "5", "--seed", "42", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_usage_error(self):
        assert cli.main(["gen", "--depth", "4"]) == cli.EXIT_USAGE

    def test_gen_failure_exit_code(self, tmp_path, capsys):
        # A relative tolerance above 1 makes every extension candidate fail
        # the spectrum test, exhausting the retry budget.
        code = cli.main(
            [
                "gen",
                "--depth",
                "3",
                "--seed",
                "0",
                "--tol-rel",
                "2.0",
                "-o",
                str(tmp_path / "t.json"),
            ]
        )
        assert code == cli.EXIT_GENERATION
        assert "generation failed" in capsys.readouterr().err


class TestCheck:
    def test_full_suite_on_theta_tower(self, tmp_path, capsys):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(4, 400))
        report_file = tmp_path / "report.json"
        code = cli.main(["check", str(tower_file), "-o", str(report_file)])
        assert code == 0
        report = json.loads(report_file.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert [c["passed"] for c in report["checks"]] == ["true"] * 7

    def test_lagrangian_on_identity_tower_is_indeterminate(self, tmp_path):
        tower_file = tmp_path / "id.json"
        write_tower(tower_file, new_tower(np.eye(3, dtype=complex)))
        out = tmp_path / "r.json"
        code = cli.main(
            ["check", str(tower_file), "--suite", "lagrangian", "-o", str(out)]
        )
        assert code == cli.EXIT_INDETERMINATE
        report = json.loads(out.read_text())
        assert report["checks"][0]["passed"] == "indeterminate"
        assert "not applicable" in report["checks"][0]["details"]["verdict"]

    def test_anchor_on_identity_tower_is_indeterminate(self, tmp_path):
        # Not strongly regular, so the anchor check has nothing to test.
        tower_file = tmp_path / "id.json"
        write_tower(tower_file, new_tower(np.eye(3, dtype=complex)))
        out = tmp_path / "r.json"
        code = cli.main(["check", str(tower_file), "--suite", "anchor", "-o", str(out)])
        assert code == cli.EXIT_INDETERMINATE
        check = json.loads(out.read_text())["checks"][0]
        assert check["passed"] == "indeterminate"
        assert check["details"]["joint_kernels_trivial"] is None
        assert "not strongly regular" in check["details"]["note"]

    def test_identity_tower_sreg_check_fails(self, tmp_path):
        tower_file = tmp_path / "id.json"
        write_tower(tower_file, new_tower(np.eye(3, dtype=complex)))
        code = cli.main(["check", str(tower_file), "--suite", "sreg"])
        assert code == cli.EXIT_FAIL

    def test_corrupt_json_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"depth": 3, "top": [[[1')
        assert cli.main(["check", str(bad)]) == cli.EXIT_DATA

    def test_missing_file_is_data_error(self, tmp_path):
        assert cli.main(["check", str(tmp_path / "nope.json")]) == cli.EXIT_DATA

    def test_unknown_suite_is_usage_error(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(2, 401))
        assert cli.main(["check", str(tower_file), "--suite", "bogus"]) == cli.EXIT_USAGE

    def test_suite_is_parsed_before_the_tower_is_read(self, tmp_path, capsys):
        # A bad suite is a usage error even when the tower file is missing too.
        argv = ["check", str(tmp_path / "nope.json"), "--suite", "bogus"]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: unknown check 'bogus'")

    @pytest.mark.parametrize("suite", ["", ",", " , "])
    def test_empty_suite_is_usage_error(self, suite, tmp_path, capsys, monkeypatch):
        # A suite that names no member would check nothing and pass.
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an empty suite")

        monkeypatch.setattr(cli, "_load_tower", refuse)
        out = tmp_path / "r.json"
        argv = ["check", str(tmp_path / "t.json"), "--suite", suite, "-o", str(out)]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: empty suite") and "Traceback" not in err
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["check", "--frobnicate"]) == cli.EXIT_USAGE

    def test_conserve_on_large_scale_tower_is_true(self, tmp_path):
        # Raw-speed deep flows of this scale are conditioned past double
        # precision; at unit speed every conjugator is within e^4.
        from gztower.tower import random_theta_tower

        tower_file = tmp_path / "big.json"
        write_tower(tower_file, random_theta_tower(6, 1, 1.2))
        out = tmp_path / "r.json"
        code = cli.main(["check", str(tower_file), "--suite", "conserve", "-o", str(out)])
        assert code == cli.EXIT_PASS
        details = json.loads(out.read_text())["checks"][0]["details"]
        assert details["conditioning_floor"] < 1.3e-14
        assert details["max_relative_drift"] <= cli.DRIFT_RTOL
        assert "note" not in details

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_conserve_on_overflowing_tower_is_indeterminate(self, tmp_path):
        # Every unit-speed flow of level 1 scales the largest double by
        # |exp(-t c)| > 1 at one sign of t, whatever the seed.
        tower_file = tmp_path / "huge.json"
        write_tower(tower_file, new_tower([[0.0, np.finfo(float).max], [0.0, 0.0]]))
        out = tmp_path / "r.json"
        for seed in ("0", "1", "2", "201"):
            argv = ["check", str(tower_file), "--suite", "conserve", "--seed", seed]
            code = cli.main([*argv, "-o", str(out)])
            assert code == cli.EXIT_INDETERMINATE
            check = json.loads(out.read_text())["checks"][0]
            assert check["passed"] == "indeterminate"
            assert "overflowed" in check["details"]["note"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_conserve_on_overflowing_flowed_traces_is_indeterminate(self, tmp_path):
        # Every trace of the tower is finite, but X_3^2 holds 1.7e306 * 100:
        # a level-1 flow that scales 1.7e306 up by more than 1.06 leaves a
        # finite top whose tr(X_3^3) overflows, under an overflowing bound.
        tower_file = tmp_path / "edge.json"
        write_tower(tower_file, new_tower([[50, 1.7e306, 0], [1e-306, 50, 0], [0, 0, 1]]))
        out = tmp_path / "r.json"
        for seed in ("0", "1", "2", "201"):
            argv = ["check", str(tower_file), "--suite", "conserve", "--seed", seed]
            assert cli.main([*argv, "-o", str(out)]) == cli.EXIT_INDETERMINATE
            check = json.loads(out.read_text())["checks"][0]
            assert check["details"]["max_relative_drift"] is None
            assert "overflowed" in check["details"]["note"]

    # X_3^2 holds 1e320: every power pass overflows on this tower.
    OVERFLOWING_POWERS = [[1, 0, 0], [0, 2, 1e160], [0, 1e160, 3]]

    def test_conserve_on_overflowing_powers_is_indeterminate(self, tmp_path):
        # The configured filter turns any RuntimeWarning into an error here.
        tower_file = tmp_path / "pow.json"
        write_tower(tower_file, new_tower(self.OVERFLOWING_POWERS))
        out = tmp_path / "r.json"
        code = cli.main(["check", str(tower_file), "--suite", "conserve", "-o", str(out)])
        assert code == cli.EXIT_INDETERMINATE
        check = json.loads(out.read_text())["checks"][0]
        assert check["passed"] == "indeterminate"
        assert "traces overflow" in check["details"]["note"]

    def test_consistent_on_overflowing_powers_fails_without_traceback(self, tmp_path, capsys):
        # The pairs of level 3 have bounds past the double range: they are not
        # compared, so the check does not pass and does not fail either.
        tower_file = tmp_path / "pow.json"
        write_tower(tower_file, new_tower(self.OVERFLOWING_POWERS))
        out = tmp_path / "r.json"
        code = cli.main(["check", str(tower_file), "--suite", "consistent", "-o", str(out)])
        assert code == cli.EXIT_INDETERMINATE
        check = json.loads(out.read_text())["checks"][0]
        assert check["passed"] == "indeterminate"
        assert "15 of 21 pairs" in check["details"]["note"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite,code",
        [
            ("sreg", cli.EXIT_FAIL),
            ("lagrangian", cli.EXIT_INDETERMINATE),
            ("anchor", cli.EXIT_INDETERMINATE),
        ],
    )
    def test_regularity_members_on_overflowing_powers(self, tmp_path, capsys, suite, code):
        # The gradient family holds the overflowed X_3^2 and has no numerical
        # rank, so criterion 1 reads false; the tower is not strongly regular
        # by the other two criteria (X_2 = diag(1, 2) commutes with E_11).
        tower_file = tmp_path / "pow.json"
        write_tower(tower_file, new_tower(self.OVERFLOWING_POWERS))
        out = tmp_path / "r.json"
        assert cli.main(["check", str(tower_file), "--suite", suite, "-o", str(out)]) == code
        assert capsys.readouterr().err == ""
        check = json.loads(out.read_text())["checks"][0]
        if suite == "sreg":
            assert check["details"]["by_differentials"] == "false"
            assert check["details"]["verdict"] == "false"
            assert check["details"]["margins"][0] is None
        else:
            assert check["passed"] == "indeterminate"

    def test_reports_on_overflowing_powers_are_strict_json(self, tmp_path):
        # JSON has no NaN or infinity token (RFC 8259): a non-finite
        # diagnostic is written as null, and the verdicts stay as they were.
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        tower_file = tmp_path / "pow.json"
        write_tower(tower_file, new_tower(self.OVERFLOWING_POWERS))
        # `gz orbit` writes no report on this tower: it exits 3 (TestOrbit).
        check_out = tmp_path / "check.json"
        assert cli.main(["check", str(tower_file), "-o", str(check_out)]) == cli.EXIT_FAIL
        report = json.loads(check_out.read_text(), parse_constant=refuse)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["commute"]["passed"] == checks["consistent"]["passed"] == "indeterminate"
        # The ratios are over the pairs compared, those of levels 1 and 2.
        assert checks["commute"]["details"]["max_bracket_ratio"] == 0.0
        assert checks["consistent"]["details"]["max_mismatch_ratio"] == 0.0

    def test_commute_on_overflowing_powers_fails_without_warnings(self, tmp_path, capsys):
        # The configured filter turns any RuntimeWarning into an error here.
        tower_file = tmp_path / "pow.json"
        write_tower(tower_file, new_tower(self.OVERFLOWING_POWERS))
        out = tmp_path / "r.json"
        code = cli.main(["check", str(tower_file), "--suite", "commute", "-o", str(out)])
        assert code == cli.EXIT_INDETERMINATE
        assert capsys.readouterr().err == ""
        check = json.loads(out.read_text())["checks"][0]
        assert check["passed"] == "indeterminate"
        assert "12 of 15 pairs" in check["details"]["note"]

    def test_scaled_sreg_tower_reads_indeterminate(self, tmp_path, capsys):
        # Strongly regular, so every identity holds, but every pair bound
        # overflows at 1e160: commute and consistent compare no pair.
        tower_file = tmp_path / "scaled.json"
        write_tower(tower_file, new_tower(1e160 * theta_tower(4, 72).top))
        out = tmp_path / "r.json"
        assert cli.main(["check", str(tower_file), "-o", str(out)]) == cli.EXIT_INDETERMINATE
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["commute"]["passed"] == checks["consistent"]["passed"] == "indeterminate"
        assert "45 of 45 pairs" in checks["commute"]["details"]["note"]
        assert "55 of 55 pairs" in checks["consistent"]["details"]["note"]

    def test_members_run_serially_on_this_thread(self, tmp_path, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("gz check built a thread pool")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(4, 400))
        assert cli.main(["check", str(tower_file), "-o", str(tmp_path / "r.json")]) == 0

    def test_full_suite_report_is_the_members_in_suite_order(self, tmp_path):
        T = theta_tower(4, 400)
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, T)
        out = tmp_path / "r.json"
        assert cli.main(["check", str(tower_file), "--seed", "3", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["suite"] == list(cli.CHECKS)
        serial = [check(T, cli.Tolerance(), 3).to_json_dict() for check in cli.CHECKS.values()]
        assert report["checks"] == json.loads(json.dumps(serial))

    def test_report_deterministic(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 402))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cli.main(["check", str(tower_file), "--seed", "5", "-o", str(r1)])
        cli.main(["check", str(tower_file), "--seed", "5", "-o", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()


class TestSeedPrecedence:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GZ_SEED", "123")
        out_env = tmp_path / "env.json"
        cli.main(["gen", "--depth", "3", "-o", str(out_env)])
        monkeypatch.delenv("GZ_SEED")
        out_flag = tmp_path / "flag.json"
        cli.main(["gen", "--depth", "3", "--seed", "123", "-o", str(out_flag)])
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GZ_SEED", "1")
        out = tmp_path / "t.json"
        cli.main(["gen", "--depth", "3", "--seed", "9", "-o", str(out)])
        monkeypatch.delenv("GZ_SEED")
        ref = tmp_path / "ref.json"
        cli.main(["gen", "--depth", "3", "--seed", "9", "-o", str(ref)])
        assert out.read_bytes() == ref.read_bytes()

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GZ_SEED", "not-a-number")
        assert cli.main(["gen", "--depth", "2", "-o", str(tmp_path / "x.json")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["gen", "check", "orbit", "flow"])
    def test_negative_env_seed_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        # PCG64 takes no negative seed; the variable is refused before any work.
        def refuse(*args, **kwargs):
            raise AssertionError("work started on a negative GZ_SEED")

        monkeypatch.setattr(cli, "random_theta_tower", refuse)
        monkeypatch.setattr(cli, "_load_tower", refuse)
        monkeypatch.setenv("GZ_SEED", "-5")
        argv = ["gen", "--depth", "3"] if command == "gen" else [command, str(tmp_path / "t.json")]
        if command == "flow":
            argv += ["--i", "1", "--j", "1"]
        assert cli.main(argv + ["-o", str(tmp_path / "x.json")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: GZ_SEED: '-5' is not a nonnegative integer\n"


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--depth", "0"],
            # Above matcore.MAX_DIM: rejected before generation, not after it.
            ["gen", "--depth", "300"],
            ["gen", "--depth", "2", "--scale", "-1"],
            ["gen", "--depth", "2", "--tol-rel", "-1"],
            ["check", "t.json", "--tol-rel", "-1"],
            ["flow", "t.json", "--i", "2", "--j", "1", "--tol-abs", "-1"],
            ["flow", "t.json", "--i", "2", "--j", "1", "--drift-tol", "-1"],
            ["orbit", "t.json", "--tol-rel", "nan"],
            ["orbit", "t.json", "--samples", "-2"],
            ["gen", "--depth", "3", "--seed", "-1"],
            ["check", "t.json", "--seed", "-2"],
            ["orbit", "t.json", "--seed", "-2"],
            ["flow", "t.json", "--i", "2", "--j", "1", "--seed", "-2"],
            ["orbit", "t.json", "--param-scale", "nan"],
            ["orbit", "t.json", "--param-scale", "inf"],
            ["orbit", "t.json", "--param-scale=-inf"],
            ["flow", "t.json", "--i", "2", "--j", "1", "--t-grid=0,nan"],
            ["flow", "t.json", "--i", "2", "--j", "1", "--t-grid=inf"],
            ["flow", "t.json", "--i", "2", "--j", "1", "--t-grid=-1,-inf,1"],
        ],
        ids=[
            "depth-0", "depth-300", "scale", "gen-tol", "check-tol", "flow-tol", "drift-tol",
            "orbit-tol", "samples", "gen-seed", "check-seed", "orbit-seed", "flow-seed",
            "param-scale-nan", "param-scale-inf", "param-scale-neg-inf",
            "t-grid-nan", "t-grid-inf", "t-grid-neg-inf",
        ],
    )
    def test_rejected_before_any_work(self, argv, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an out-of-range flag")

        monkeypatch.setattr(cli, "random_theta_tower", refuse)
        monkeypatch.setattr(cli, "_load_tower", refuse)
        argv = [str(tmp_path / a) if a == "t.json" else a for a in argv]
        out = ["-o", str(tmp_path / "out.json")]
        assert cli.main(argv + out) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,text,need",
        [
            ("--t-grid", "1,x", "a comma-separated list of finite numbers"),
            ("--seed", "x", "a nonnegative integer"),
            ("--seed", "-1", "a nonnegative integer"),
        ],
        ids=["t-grid-text", "seed-text", "seed-negative"],
    )
    def test_unparsable_and_out_of_range_read_alike(self, flag, text, need, tmp_path, capsys):
        argv = ["flow", str(tmp_path / "t.json"), "--i", "2", "--j", "1", f"{flag}={text}"]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: argument {flag}: {text!r} is not {need}\n"


class TestOutputFiles:
    def test_outputs_get_the_mode_open_gives(self, tmp_path):
        old = os.umask(0o022)
        try:
            tower_file, report = tmp_path / "t.json", tmp_path / "r.json"
            assert cli.main(["gen", "--depth", "2", "--seed", "1", "-o", str(tower_file)]) == 0
            assert cli.main(["check", str(tower_file), "--suite", "sreg", "-o", str(report)]) == 0
            with open(tmp_path / "plain.json", "w"):
                pass
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)
        assert mode == 0o644
        assert [stat.S_IMODE(p.stat().st_mode) for p in (tower_file, report)] == [mode, mode]

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["gen", "--depth", "3", "-o", "missing/x.json"], "--out/-o"),
            (["check", "t.json", "-o", "missing/r.json"], "--out/-o"),
            (["flow", "t.json", "--i", "1", "--j", "1", "-o", "missing/f.json"], "--out/-o"),
            (
                ["flow", "t.json", "--i", "1", "--j", "1", "--emit-plot-data", "missing/p.csv"],
                "--emit-plot-data",
            ),
            (["orbit", "t.json", "-o", "missing/o.json"], "--out/-o"),
            (["check", "t.json", "-o", "."], "--out/-o"),
            (["gen", "--depth", "3", "-o", ""], "--out/-o"),
        ],
        ids=["gen", "check", "flow", "plot-data", "orbit", "directory", "empty"],
    )
    def test_unwritable_output_is_usage_error(self, argv, flag, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an unwritable output path")

        monkeypatch.setattr(cli, "random_theta_tower", refuse)
        monkeypatch.setattr(cli, "_load_tower", refuse)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == cli.EXIT_USAGE
        path = argv[argv.index(flag.split("/")[-1]) + 1]
        assert capsys.readouterr().err == (
            f"usage error: argument {flag}: {path!r} is not a file path in an existing directory\n"
        )


class TestFlow:
    def test_zero_grid_has_zero_drift(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 403))
        out = tmp_path / "flow.json"
        code = cli.main(
            ["flow", str(tower_file), "--i", "1", "--j", "1", "--t-grid", "0", "-o", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert max(report["max_relative_drift"].values()) == 0.0

    def test_report_is_one_line(self, tmp_path):
        # Indentation would be about half of a long grid's report bytes.
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 403))
        out = tmp_path / "flow.json"
        argv = ["flow", str(tower_file), "--i", "2", "--j", "1", "--t-grid=-1,0,1", "-o", str(out)]
        assert cli.main(argv) == 0
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert len(json.loads(text)["values"]) == 3

    def test_default_grid_conserves(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(4, 404, 0.4))
        code = cli.main(["flow", str(tower_file), "--i", "2", "--j", "2", "-o", str(tmp_path / "f.json")])
        assert code == 0

    def test_casimir_flow_constant(self, tmp_path):
        # Flowing a top-level observable leaves every function constant.
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 405, 0.4))
        out = tmp_path / "flow.json"
        code = cli.main(
            ["flow", str(tower_file), "--i", "3", "--j", "2", "-o", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert max(report["max_relative_drift"].values()) <= 1e-8

    def test_csv_output_parses(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 406, 0.4))
        out = tmp_path / "flow.csv"
        code = cli.main(
            [
                "flow",
                str(tower_file),
                "--i",
                "1",
                "--j",
                "1",
                "--format",
                "csv",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "t"
        assert len(rows[0]) == 1 + 6  # t column plus six observables at depth 3
        # complex cells render as re+imi with enough digits to round-trip
        assert rows[1][1].endswith("i")

    def test_plot_data_emitted(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(2, 407, 0.4))
        plot = tmp_path / "plot.csv"
        code = cli.main(
            [
                "flow",
                str(tower_file),
                "--i",
                "1",
                "--j",
                "1",
                "-o",
                str(tmp_path / "f.json"),
                "--emit-plot-data",
                str(plot),
            ]
        )
        assert code == 0 and plot.exists()

    def test_huge_finite_time_is_indeterminate(self, tmp_path, capsys):
        # A finite time is a valid flag; its flow is what double precision cannot take.
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 403))
        argv = ["flow", str(tower_file), "--i", "2", "--j", "1", "--t-grid=1e300"]
        assert cli.main(argv + ["-o", str(tmp_path / "f.json")]) == cli.EXIT_INDETERMINATE
        err = capsys.readouterr().err
        assert err.startswith("flow not computable in double precision")
        assert "Traceback" not in err

    def test_overflowing_flow_is_indeterminate(self, tmp_path, capsys):
        tower_file = tmp_path / "huge.json"
        write_tower(tower_file, new_tower([[0.0, 1e300], [0.0, 0.0]]))
        argv = ["flow", str(tower_file), "--i", "1", "--j", "1", "--t-grid=-20"]
        assert cli.main(argv + ["-o", str(tmp_path / "f.json")]) == cli.EXIT_INDETERMINATE
        assert "not computable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "top,index,grid,message",
        [
            (
                [[0.0, 1e300], [0.0, 0.0]],
                ("1", "1"),
                "0,1,-20,2",
                "conjugated matrix overflowed; reduce parameters or scale",
            ),
            (
                [[0.5, 0.25], [0.25, 0.5]],
                ("1", "1"),
                "0,800,1,-20",
                "conjugator is numerically singular; the exponential factors are too "
                "ill-conditioned at this scale",
            ),
            (
                [[400.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                ("2", "2"),
                "0,-1,1",
                "matrix exponential overflowed the representable range",
            ),
        ],
        ids=["conjugate-overflow", "singular-conjugator", "expm-overflow"],
    )
    def test_first_failing_time_sets_the_message(self, tmp_path, capsys, top, index, grid, message):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, new_tower(top))
        argv = ["flow", str(tower_file), "--i", index[0], "--j", index[1], f"--t-grid={grid}"]
        assert cli.main(argv + ["-o", str(tmp_path / "f.json")]) == cli.EXIT_INDETERMINATE
        captured = capsys.readouterr()
        assert captured.err == f"flow not computable in double precision: {message}\n"
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize(
        "options",
        [["--format", "json"], ["--format", "csv"], ["--emit-plot-data", "plot.csv"]],
        ids=["json", "csv", "plot-data"],
    )
    def test_overflowing_traces_are_indeterminate(self, tmp_path, capsys, options):
        # X_3^2 holds 1e320, so the base and flowed traces leave the double
        # range; no report with NaN or infinity tokens is written.  The
        # configured filter turns any RuntimeWarning into an error here.
        tower_file = tmp_path / "pow.json"
        write_tower(tower_file, new_tower(TestCheck.OVERFLOWING_POWERS))
        argv = ["flow", str(tower_file), "--i", "2", "--j", "1", "-o", str(tmp_path / "f.out")]
        options = [str(tmp_path / o) if o.endswith(".csv") else o for o in options]
        assert cli.main(argv + options) == cli.EXIT_INDETERMINATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "flow not computable in double precision: "
            "the observables overflow the representable range\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pow.json"]

    def test_bad_index_usage_error(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(2, 408))
        assert (
            cli.main(["flow", str(tower_file), "--i", "1", "--j", "2"]) == cli.EXIT_USAGE
        )


class TestOrbit:
    def test_overflowing_powers_exit_without_traceback(self, tmp_path, capsys):
        # The tower's own traces overflow under an infinite power bound: the
        # drift is not computable, as in `gz flow`, so no report is written.
        tower_file = tmp_path / "pow.json"
        write_tower(tower_file, new_tower(TestCheck.OVERFLOWING_POWERS))
        out = tmp_path / "orbit.json"
        code = cli.main(["orbit", str(tower_file), "--seed", "0", "-o", str(out)])
        assert code == cli.EXIT_INDETERMINATE
        err = capsys.readouterr().err
        assert "overflow" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_action_factors_exit_without_warnings(self, tmp_path, capsys):
        # At --param-scale 500 the product of the action's exponentials
        # overflows; the configured filter turns a RuntimeWarning into an error.
        tower_file = tmp_path / "t8.json"
        assert cli.main(["gen", "--depth", "8", "--seed", "1", "--scale", "0.3",
                         "-o", str(tower_file)]) == 0
        capsys.readouterr()
        code = cli.main(["orbit", str(tower_file), "--param-scale", "500", "--samples", "1"])
        assert code == cli.EXIT_INDETERMINATE
        err = capsys.readouterr().err
        assert "action factors overflowed" in err and "Traceback" not in err

    def test_random_params_on_sreg_tower(self, tmp_path):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(4, 409))
        out = tmp_path / "orbit.json"
        code = cli.main(
            ["orbit", str(tower_file), "--seed", "3", "--permute-factors", "-o", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["observable_invariance_ok"] is True
        assert report["lagrangian"]["verdict"] == "true"
        assert report["permuted_application_gap"] <= 1e-8

    def test_zero_params_file_identity(self, tmp_path):
        from gztower.action import params_to_json, zero_params

        T = theta_tower(3, 410)
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, T)
        params_file = tmp_path / "p.json"
        params_file.write_text(params_to_json(zero_params(3)), encoding="utf-8")
        out = tmp_path / "orbit.json"
        code = cli.main(
            ["orbit", str(tower_file), "--params", str(params_file), "-o", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["max_observable_drift"] == 0.0

    def test_non_sreg_tower_indeterminate(self, tmp_path):
        tower_file = tmp_path / "id.json"
        write_tower(tower_file, new_tower(np.eye(3, dtype=complex)))
        code = cli.main(["orbit", str(tower_file), "--seed", "0"])
        assert code == cli.EXIT_INDETERMINATE


class TestNonFiniteResiduals:
    """A NaN residual must turn a passing check into a non-pass."""

    @pytest.fixture
    def nan_traces(self, monkeypatch):
        from gztower.gz import PowerTable

        original = PowerTable.traces

        def with_nan(table):
            out = original(table)
            out[-1] = np.nan
            return out

        monkeypatch.setattr(PowerTable, "traces", with_nan)

    @pytest.fixture
    def nan_flowed_trace(self, monkeypatch):
        # The base traces come from PowerTable.traces; only flowed stacks
        # reach the name the check module imported.
        original = cli.stack_traces

        def with_nan(tops):
            out = original(tops)
            if len(out):
                out[0, -1] = np.nan
            return out

        monkeypatch.setattr(cli, "stack_traces", with_nan)

    @pytest.fixture
    def nan_brackets(self, monkeypatch):
        from gztower.gz import PowerTable

        original = PowerTable.bracket_matrix

        def with_nan(table):
            # The table's own bracket matrix is read-only.
            out = original(table).copy()
            out[2, 5] = out[5, 2] = np.nan
            return out

        monkeypatch.setattr(PowerTable, "bracket_matrix", with_nan)

    def _check(self, tmp_path, suite):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(4, 400))
        out = tmp_path / "r.json"
        code = cli.main(["check", str(tower_file), "--suite", suite, "-o", str(out)])
        return code, {c["name"]: c["passed"] for c in json.loads(out.read_text())["checks"]}

    def test_checks_pass_without_injection(self, tmp_path):
        code, verdicts = self._check(tmp_path, "commute,consistent,conserve")
        assert code == cli.EXIT_PASS
        assert set(verdicts.values()) == {"true"}

    def test_nan_bracket_fails_commute_and_consistent(self, tmp_path, nan_brackets):
        code, verdicts = self._check(tmp_path, "commute,consistent")
        assert code == cli.EXIT_FAIL
        assert verdicts == {"commute": "false", "consistent": "false"}

    def test_nan_residual_fails_match(self, tmp_path, monkeypatch):
        original = cli.match_residual
        calls = []

        def nan_once(*args):
            calls.append(args)
            return np.nan if len(calls) == 1 else original(*args)

        monkeypatch.setattr(cli, "match_residual", nan_once)
        code, verdicts = self._check(tmp_path, "match")
        assert code == cli.EXIT_FAIL
        assert verdicts == {"match": "false"}
        assert len(calls) == cli.MATCH_DRAWS

    def test_nan_trace_does_not_pass_conserve(self, tmp_path, nan_traces):
        code, verdicts = self._check(tmp_path, "conserve")
        assert code != cli.EXIT_PASS
        assert verdicts["conserve"] in ("false", "indeterminate")

    def test_nan_trace_fails_flow(self, tmp_path, nan_traces):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 403))
        out = tmp_path / "flow.json"
        code = cli.main(["flow", str(tower_file), "--i", "2", "--j", "1", "-o", str(out)])
        assert code == cli.EXIT_FAIL
        assert json.loads(out.read_text())["passed"] is False

    def test_nan_flowed_trace_does_not_pass_conserve(self, tmp_path, nan_flowed_trace):
        code, verdicts = self._check(tmp_path, "conserve")
        assert code != cli.EXIT_PASS
        assert verdicts["conserve"] in ("false", "indeterminate")

    def test_nan_flowed_trace_fails_flow(self, tmp_path, nan_flowed_trace):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(3, 403))
        out = tmp_path / "flow.json"
        code = cli.main(["flow", str(tower_file), "--i", "2", "--j", "1", "-o", str(out)])
        assert code == cli.EXIT_FAIL
        assert json.loads(out.read_text())["passed"] is False

    def test_nan_trace_fails_orbit_invariance(self, tmp_path, nan_traces):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(4, 409))
        out = tmp_path / "orbit.json"
        code = cli.main(["orbit", str(tower_file), "--seed", "3", "-o", str(out)])
        assert code == cli.EXIT_FAIL
        assert json.loads(out.read_text())["observable_invariance_ok"] is False


def conserve_per_level(T, tol, seed):
    """The conserve member with each level's seeded unit-norm generator P_i
    flowed in a stack of its own and its tops read by a trace pass of their
    own.  The oracle of the one-stack member; it draws the weights itself."""
    from gztower.action import flow_stack
    from gztower.gz import power_table, stack_traces

    def result(passed, details):
        return cli.CheckResult(
            name="conserve", property="flow-conservation", passed=passed, details=details
        )

    N = T.depth
    if N < 2:
        return result("true", {"note": "no flow directions at depth 1"})
    table = power_table(T)
    base = table.traces()
    grid = {
        "t_grid": list(cli.DEFAULT_T_GRID),
        "time_unit": cli.CONSERVE_TIME_UNIT,
        "drift_rtol": cli.DRIFT_RTOL,
        "corner_rtol": cli.CORNER_RTOL,
    }
    if not np.all(np.isfinite(base)):
        return result(
            "indeterminate",
            {
                **grid,
                "note": "the tower's own traces overflow double precision, so there is "
                "nothing to conserve; regenerate the tower at a smaller scale",
            },
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(4,))))
    failed, drifts, corners = False, [], []
    for i, Gi in enumerate(table.gradients[:-1], 1):
        c = rng.standard_normal(i) + 1j * rng.standard_normal(i)
        with np.errstate(over="ignore", invalid="ignore"):
            P = np.tensordot(c, Gi, axes=1)
            if np.isfinite(P).all():
                P = P / np.linalg.norm(P, 2)
        tops, errors = flow_stack(table.top, [P], cli._FLOWED_TIMES)
        ok = np.array([e is None for e in errors])
        tops = tops[ok]
        traces = stack_traces(tops)
        failed = failed or not ok.all() or cli._traces_overflow(tops, traces)
        with np.errstate(over="ignore", invalid="ignore"):
            drifts.append(np.max(np.abs(traces - base) / (1.0 + np.abs(base)), initial=0.0))
        Xi = T.level(i)
        corners.append(
            float(np.abs(tops[:, :i, :i] - Xi).max(initial=0.0)) / (1.0 + float(np.abs(Xi).max()))
        )
    worst_drift = float(np.max(drifts))
    worst_corner = float(np.max(corners))
    details = {
        "max_relative_drift": cli.report_number(worst_drift),
        "max_corner_residual": cli.report_number(worst_corner),
        **grid,
        "conditioning_floor": float(np.finfo(float).eps * math.exp(4.0)),
    }
    if failed:
        passed = "indeterminate"
        details["note"] = (
            "a flow overflowed double precision or its conjugator was singular; "
            "regenerate the tower at a smaller scale"
        )
    else:
        passed = "true" if worst_drift <= cli.DRIFT_RTOL and worst_corner <= cli.CORNER_RTOL else "false"
    return result(passed, details)


def conserve_every_generator(T):
    """Conserve's verdict when every generator j X_i^(j-1) of every level
    i < N flows on its own at unit speed, one time at a time."""
    from gztower.action import flow_stack
    from gztower.gz import power_table, stack_traces

    table = power_table(T)
    base = table.traces()
    if not np.all(np.isfinite(base)):
        return "indeterminate"
    failed, drifts, corners = False, [0.0], [0.0]
    for i, Gi in enumerate(table.gradients[:-1], 1):
        Xi = T.level(i)
        for G in Gi:
            if not np.linalg.norm(G, 2) > 0:
                continue
            for t in cli._FLOWED_TIMES:
                tops, errors = flow_stack(table.top, [G / np.linalg.norm(G, 2)], [t])
                if errors[0] is not None:
                    failed = True
                    continue
                traces = stack_traces(tops)
                failed = failed or cli._traces_overflow(tops, traces)
                drifts.append(np.max(np.abs(traces - base) / (1.0 + np.abs(base))))
                corners.append(
                    float(np.abs(tops[0, :i, :i] - Xi).max()) / (1.0 + float(np.abs(Xi).max()))
                )
    if failed:
        return "indeterminate"
    ok = np.max(drifts) <= cli.DRIFT_RTOL and np.max(corners) <= cli.CORNER_RTOL
    return "true" if ok else "false"


def _overflowing_flows(d):
    """Finite traces, but an entry at the largest double: every unit-speed
    flow of level 1 scales it by |exp(-t c)| > 1 at one sign of t, for any
    weight c off the imaginary axis."""
    top = plain_tower(d, 330 + d, 0.01).top.copy()
    top[0, -1] = np.finfo(float).max
    return new_tower(top)


class TestConserveOracle:
    """Flowing every level's seeded generator in one stack reports exactly
    what flowing each level's generator in a stack of its own reports, and
    reaches the verdict that flowing every generator on its own reaches."""

    KINDS = {
        "theta": lambda d: theta_tower(d, 300 + d, 0.4),
        "plain": lambda d: plain_tower(d, 310 + d),
        "jordan": jordan_tower,
        "identity": lambda d: new_tower(np.eye(d)),
        # The traces themselves overflow: nothing to conserve.
        "overflowing-powers": lambda d: new_tower(1e160 * theta_tower(d, 320 + d, 0.4).top),
        # Finite traces, but conjugates that overflow.
        "overflowing-flows": _overflowing_flows,
    }
    SEEDS = (0, 1, 201)

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("depth", range(2, 9))
    def test_details_equal_the_oracle_bit_for_bit(self, kind, depth):
        T = self.KINDS[kind](depth)
        tol = cli.Tolerance()
        for seed in self.SEEDS:
            ours = cli.CHECKS["conserve"](T, tol, seed).to_json_dict()
            oracle = conserve_per_level(T, tol, seed).to_json_dict()
            # repr of a float is exact, so equal dumps are equal bits.
            assert json.dumps(ours, sort_keys=True) == json.dumps(oracle, sort_keys=True)

    @pytest.mark.parametrize("kind", ["theta", "plain", "jordan", "identity"])
    @pytest.mark.parametrize("depth", range(2, 9))
    def test_one_flow_per_level_gives_every_generators_verdict(self, kind, depth):
        T = self.KINDS[kind](depth)
        expected = conserve_every_generator(T)
        for seed in self.SEEDS:
            assert cli.CHECKS["conserve"](T, cli.Tolerance(), seed).passed == expected

    def test_kinds_reach_every_verdict(self):
        for seed in self.SEEDS:
            verdicts = {
                kind: cli.CHECKS["conserve"](make(6), cli.Tolerance(), seed).passed
                for kind, make in self.KINDS.items()
            }
            assert verdicts["theta"] == "true"
            assert verdicts["overflowing-powers"] == "indeterminate"
            assert verdicts["overflowing-flows"] == "indeterminate"

    # Level 1 is left out: every 1 x 1 generator commutes with X_1.
    @pytest.mark.parametrize("level,j", [(2, 1), (3, 2), (5, 5)])
    def test_one_perturbed_generator_fails(self, level, j, monkeypatch):
        from gztower.gz import PowerTable, power_table

        T = theta_tower(6, 306, 0.4)
        table = power_table(T)
        assert cli.CHECKS["conserve"](T, cli.Tolerance(), 0).passed == "true"
        # A generator off z(X_i) flows the corner X_i and the traces above it.
        rng = np.random.Generator(np.random.PCG64(7))
        gradients = [G.copy() for G in table.gradients]
        gradients[level - 1][j - 1] += 1e-6 * (
            rng.standard_normal((level, level)) + 1j * rng.standard_normal((level, level))
        )
        perturbed = PowerTable(top=table.top, gradients=tuple(gradients))
        monkeypatch.setattr(cli, "power_table", lambda _: perturbed)
        result = cli.CHECKS["conserve"](T, cli.Tolerance(), 0)
        assert result.passed == "false"
        details = result.details
        assert details["max_relative_drift"] > details["drift_rtol"]
        assert details["max_corner_residual"] > details["corner_rtol"]

    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_benchmark_towers_conserve(self, seed):
        # random_theta_tower(16, s, 0.3) is the check-d16 input of seed s.
        T = theta_tower(16, seed, 0.3)
        first = cli.CHECKS["conserve"](T, cli.Tolerance(), 0)
        assert first.passed == "true"
        again = cli.CHECKS["conserve"](T, cli.Tolerance(), 0)
        assert json.dumps(first.details) == json.dumps(again.details)


class TestCheckCost:
    """Conserve flows every level in one stack with one trace pass; consistent
    pairs by level, not by pair; lagrangian builds one power table; the suite
    computes one strong-regularity report, one power table and one bracket
    matrix; orbit builds one power table and one bracket matrix; the suite and
    orbit each build one Arnoldi basis per level above the first."""

    DEPTH = 6

    @pytest.fixture
    def tower(self):
        return theta_tower(self.DEPTH, 411, 0.4)

    @pytest.fixture
    def counts(self, tower, monkeypatch):
        # Depends on ``tower``, so building the input is not counted.
        import gztower.action
        import gztower.symplectic
        from gztower.tower import Tower

        counts = {"power_table": 0, "Tower": 0, "expm": 0, "stack_traces": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(cli, "power_table", counting("power_table", cli.power_table))
        monkeypatch.setattr(
            gztower.symplectic,
            "power_table",
            counting("power_table", gztower.symplectic.power_table),
        )
        monkeypatch.setattr(cli, "stack_traces", counting("stack_traces", cli.stack_traces))
        monkeypatch.setattr(Tower, "__post_init__", counting("Tower", Tower.__post_init__))
        monkeypatch.setattr(
            gztower.action, "mat_exp_stack", counting("expm", gztower.action.mat_exp_stack)
        )
        return counts

    def test_conserve(self, tower, counts, monkeypatch):
        import gztower.action

        slices = []
        counted = gztower.action.mat_exp_stack

        def recording(M):
            slices.append(len(M))
            return counted(M)

        monkeypatch.setattr(gztower.action, "mat_exp_stack", recording)
        assert cli.CHECKS["conserve"](tower, cli.Tolerance(), 0).passed == "true"
        # One stacked expm and one trace pass for the whole member: each
        # level i < N flows its one generator at the six nonzero times.
        assert counts == {"power_table": 1, "Tower": 0, "expm": 1, "stack_traces": 1}
        assert slices == [6 * (self.DEPTH - 1)]

    def test_consistent(self, tower, counts):
        assert cli.CHECKS["consistent"](tower, cli.Tolerance(), 0).passed == "true"
        assert counts == {
            "power_table": 1,
            "Tower": 0,
            "expm": 0,
            "stack_traces": 0,
        }

    def test_lagrangian(self, tower, counts):
        # The ranks come from the strong-regularity report; the pairings read
        # the generators off one power table.
        assert cli.CHECKS["lagrangian"](tower, cli.Tolerance(), 0).passed == "true"
        assert counts == {
            "power_table": 1,
            "Tower": 0,
            "expm": 0,
            "stack_traces": 0,
        }

    def test_sreg_report_builds_one_power_table(self, tower, monkeypatch):
        # Criteria 1 and 3 read their generators off the same table.
        import gztower.regularity

        tables = []
        original = gztower.regularity.power_table

        def counting(T):
            tables.append(T)
            return original(T)

        monkeypatch.setattr(gztower.regularity, "power_table", counting)
        assert gztower.regularity.sreg_report(tower, cli.Tolerance()).verdict == "true"
        assert tables == [tower]

    @pytest.fixture
    def builds(self, monkeypatch):
        # Every table is built through PowerTable.__init__; count every
        # binding a member could run the bracket GEMM through.
        from gztower import gz, matcore, symplectic

        builds = {"tables": 0, "brackets": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                builds[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(gz.PowerTable, "__init__", counting("tables", gz.PowerTable.__init__))
        bracket = counting("brackets", matcore.bracket_matrix)
        for module in (matcore, gz, symplectic):
            monkeypatch.setattr(module, "bracket_matrix", bracket, raising=False)
        return builds

    def test_full_suite_builds_one_table_and_one_bracket(self, tower, tmp_path, builds):
        # commute, consistent and lagrangian all read the table's one GEMM.
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, tower)
        code = cli.main(["check", str(tower_file), "-o", str(tmp_path / "r.json")])
        assert code == cli.EXIT_PASS
        assert builds == {"tables": 1, "brackets": 1}

    def test_orbit_builds_one_table(self, tower, tmp_path, builds):
        # The acted towers' traces come from one stacked pass, not a table
        # each; the Lagrangian pairings are the table's bracket GEMM.
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, tower)
        code = cli.main(["orbit", str(tower_file), "--samples", "6", "--seed", "0"])
        assert code == cli.EXIT_PASS
        assert builds == {"tables": 1, "brackets": 1}

    @pytest.fixture
    def reports(self, monkeypatch):
        # Criterion 2 runs once per computed report and builds one Arnoldi
        # basis per level above the first; count every binding a member
        # could reach krylov_basis through.
        from gztower import matcore, regularity, symplectic

        reports = {"computed": 0, "krylov_basis": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                reports[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            regularity, "_centralizers_split", counting("computed", regularity._centralizers_split)
        )
        krylov = counting("krylov_basis", matcore.krylov_basis)
        for module in (matcore, regularity, symplectic):
            monkeypatch.setattr(module, "krylov_basis", krylov, raising=False)
        return reports

    def test_full_suite_computes_one_sreg_report(self, tower, tmp_path, reports):
        # sreg, lagrangian and anchor all read the tower's one report.
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, tower)
        code = cli.main(["check", str(tower_file), "-o", str(tmp_path / "r.json")])
        assert code == cli.EXIT_PASS
        assert reports == {"computed": 1, "krylov_basis": self.DEPTH - 1}

    @pytest.mark.parametrize("command", ["check", "orbit"])
    def test_depth_16_builds_one_arnoldi_basis_per_level(self, command, tmp_path, reports):
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(16, 201, 0.2))
        argv = [command, str(tower_file), "-o", str(tmp_path / "r.json")]
        code = cli.main(argv + (["--samples", "1"] if command == "orbit" else []))
        assert code in (cli.EXIT_PASS, cli.EXIT_INDETERMINATE)
        assert reports == {"computed": 1, "krylov_basis": 15}


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gztower.cli", "gen", "--depth", "2", "--seed", "0", "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_installed_gz_script(self, tmp_path):
        gz = shutil.which("gz")
        if gz is None:
            pytest.skip("console script not on PATH")
        out = tmp_path / "t.json"
        proc = subprocess.run(
            [gz, "gen", "--depth", "2", "--seed", "0", "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_module_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gztower.cli", "gen"], capture_output=True, text=True
        )
        assert proc.returncode == cli.EXIT_USAGE

    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is imported only by the Schur/trsyl fallback of the Sylvester
        # test, which the eigenvalue bound makes unnecessary on a generated
        # tower; every other kernel runs on numpy alone.
        tower_file = tmp_path / "t.json"
        write_tower(tower_file, theta_tower(6, 409))
        script = (
            "import json, sys\n"
            "from gztower import cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "tower, work = sys.argv[1], sys.argv[2]\n"
            "runs = {'import': [None, scipy_modules()]}\n"
            "for argv in (\n"
            "    ['check', tower, '-o', work + '/check.json'],\n"
            "    ['gen', '--depth', '8', '--seed', '1', '-o', work + '/gen.json'],\n"
            "    ['orbit', tower, '--seed', '3', '-o', work + '/orbit.json'],\n"
            "    ['flow', tower, '--i', '4', '--j', '3', '-o', work + '/flow.json'],\n"
            "):\n"
            "    runs[argv[0]] = [cli.main(argv), scipy_modules()]\n"
            "print(json.dumps(runs))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tower_file), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout.splitlines()[-1])
        assert list(runs) == ["import", "check", "gen", "orbit", "flow"]
        assert [code for code, _ in list(runs.values())[1:]] == [cli.EXIT_PASS] * 4
        assert all(modules == [] for _, modules in runs.values())
