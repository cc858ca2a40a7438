"""Tests for the command-line front end."""

import csv
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import hvlab.cli
from hvlab import spin_one
from hvlab.cli import ReportRow, build_parser, main

FAST = ["--samples", "20000", "--seed", "42"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_oracle_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-check", *FAST])
        assert code == 0
        assert "pass" in out
        assert "FAIL" not in out

    def test_sgn_averages_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["sgn-averages", *FAST, "--n", "2"])
        assert code == 0
        assert "sgn-mean" in out
        assert "sgn-product-mean" in out

    def test_spin_half_modified(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spin-half", *FAST, "--beta", "0.3,-0.4,0.8", "--state", "0.6,0.8"]
        )
        assert code == 0
        assert "spin-half-mean" in out

    def test_spin_half_original(self, capsys):
        code, out, _ = run_cli(capsys, ["spin-half", *FAST, "--beta", "0,0,1", "--original"])
        assert code == 0
        assert "spin-half-original-mean" in out

    def test_spin_half_epsilon_input(self, capsys):
        code, _, _ = run_cli(
            capsys, ["spin-half", *FAST, "--beta", "1,0,0", "--epsilon", "0.3,0.2,-0.4"]
        )
        assert code == 0

    def test_homogeneity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["homogeneity", *FAST, "--alpha", "1.5", "--beta", "0,0,1", "--epsilon", "0,0,0.5"],
        )
        assert code == 0
        assert "homogeneity-mean-plus" in out
        assert "homogeneity-recombined" in out

    def test_spin_one_explicit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spin-one", *FAST, "--case", "III", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"],
        )
        assert code == 0
        assert "spin-one-second-moment" in out

    def test_spin_one_operator_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spin-one", *FAST, "--beta", "0,0,1", "--state", "0.6,0,0.8", "--basis", "angular-momentum"],
        )
        assert code == 0
        assert "spin-one-mean" in out

    def test_ks_dispersion_point(self, capsys):
        code, out, _ = run_cli(capsys, ["ks-dispersion", *FAST, "--probs", "0.2,0.5,0.3"])
        assert code == 0
        assert "ks-dispersion" in out

    def test_ks_dispersion_near_maximum(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ks-dispersion", *FAST, "--probs", "0.3333,0.3333,0.3334", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        value = next(row["analytic"] for row in rows if row["experiment"] == "ks-dispersion")
        assert value == pytest.approx(2.0, abs=1e-3)

    def test_ks_epsilon_with_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ks-epsilon", *FAST, "--eps", "0.05", "--probs", "0.25,0.5,0.25", "--sweep"]
        )
        assert code == 0
        assert "ks-epsilon-slope" in out


class TestInfeasibleReporting:
    def test_case_i_rejection_message_and_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spin-one", *FAST, "--case", "I", "--lambdas", "0,1,-1", "--probs", "0,0.5,0.5"]
        )
        assert code == 0
        assert "infeasible: square root becomes imaginary" in out

    def test_case_ii_rejection(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spin-one", *FAST, "--case", "II", "--lambdas", "0,1,-1", "--probs", "0,0.5,0.5"]
        )
        assert code == 0
        assert "infeasible" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["spin-one", "--case", "I", "--lambdas", "0,1,-1", "--probs", "0,0.5,0.5"],
            ["spin-one", "--case", "I", "--beta", "0,0,1", "--state", "1,1,1"],
        ],
        ids=["explicit", "operator"],
    )
    def test_only_main_prints_the_note(self, capsys, argv):
        # the subcommand raises; main turns the rejection into the note
        with pytest.raises(spin_one.InfeasibleCaseError):
            hvlab.cli.run_spin_one(build_parser().parse_args([*argv, *FAST]))
        code, out, err = run_cli(capsys, [*argv, *FAST])
        assert (code, out, err) == (0, "infeasible: square root becomes imaginary\n", "")


class TestUsageErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_bad_probabilities_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["ks-dispersion", *FAST, "--probs", "0.2,0.2,0.2"])
        assert code == 2
        assert "sum to 1" in err

    def test_probabilities_renormalised_within_tolerance(self, capsys):
        code, _, _ = run_cli(capsys, ["ks-dispersion", *FAST, "--probs", "0.2000004,0.5,0.3"])
        assert code == 0

    def test_missing_mode_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["ks-dispersion", *FAST])
        assert code == 2
        assert "error" in err

    def test_operator_mode_without_beta_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["spin-one", *FAST, "--state", "1,0,0"])
        assert code == 2
        assert err == "error: operator mode needs --beta and --state\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["spin-one", "--lambdas", "0,1,-1", "--probs", "nan,0.5,0.5"],
            ["spin-one", "--lambdas", "0,inf,-1", "--probs", "0.25,0.5,0.25"],
            ["spin-one", "--beta", "0,0,1", "--state", "nan,0,1"],
            ["spin-half", "--beta", "nan,0,1"],
            ["spin-half", "--beta", "1,0,0", "--epsilon", "0,inf,0"],
            ["homogeneity", "--alpha", "nan", "--beta", "0,0,1"],
            ["ks-dispersion", "--probs", "0.2,nan,0.3"],
            ["ks-epsilon", "--eps", "inf", "--probs", "0.25,0.5,0.25"],
        ],
    )
    def test_non_finite_input_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, [*argv, *FAST])
        assert code == 2
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ks-epsilon", "--eps", "0.05", "--probs", "1.5,-0.5,0"], "probabilities must lie in"),
            (["spin-one", "--lambdas", "0,1,-1", "--probs", "1.5,-0.5,0"], "probabilities must lie in"),
            (["ks-dispersion", "--probs", "1.5,-0.5,0"], "probabilities must lie in"),
            (["ks-epsilon", "--eps", "0", "--probs", "0.25,0.5,0.25"], "eps must be positive"),
            (["ks-epsilon", "--eps", "-1", "--probs", "0.25,0.5,0.25"], "eps must be positive"),
            (["spin-half", "--beta", "0,0,0"], "direction must be nonzero"),
            (["homogeneity", "--beta", "0,0,0"], "direction must be nonzero"),
            (["spin-one", "--basis", "pauli", "--beta", "0,0,1", "--state", "1,0"], "3-dimensional"),
            (["spin-one", "--basis", "pauli", "--beta", "0,0,1", "--state", "1,0,0"], "3x3 observable"),
            (["spin-one", "--basis", "angular-momentum", "--beta", "0,0", "--state", "1,0,0"], "expected 8 or 3 coefficients"),
            (["spin-one", "--basis", "angular-momentum", "--beta", "0,0,1", "--state", "1,0"], "3-dimensional"),
        ],
    )
    def test_input_the_library_rejects_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, [*argv, *FAST])
        assert code == 2
        assert err.startswith("error: ")
        assert message in err
        assert out == ""

    def test_invalid_samples_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["oracle-check", "--samples", "0"])
        assert code == 2

    def test_bloch_vector_too_long_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["spin-half", *FAST, "--beta", "0,0,1", "--epsilon", "1,1,1"])
        assert code == 2

    @pytest.mark.parametrize("state", [["--state", "0,1"], ["--epsilon", "0,0,-1"]])
    def test_original_rule_takes_no_state_exit_2(self, capsys, state):
        code, out, err = run_cli(capsys, ["spin-half", *FAST, "--beta", "0,0,1", "--original", *state])
        assert code == 2
        assert "--original" in err
        assert out == ""

    @pytest.mark.parametrize("command", [["spin-half"], ["homogeneity", "--alpha", "1.5"]])
    def test_state_and_epsilon_together_exit_2(self, capsys, command):
        code, out, err = run_cli(capsys, [*command, *FAST, "--beta", "0,0,1", "--state", "0,1", "--epsilon", "0,0,1"])
        assert code == 2
        assert "--state and --epsilon" in err
        assert out == ""


class TestFailureExitCode:
    def test_impossible_tolerance_fails_with_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sgn-averages", *FAST, "--tolerance-sigma", "1e-12"],
        )
        assert code == 1
        assert "FAIL" in out


class TestDeterminismAndFormats:
    def test_verify_all_byte_identical(self, capsys):
        argv = ["verify-all", "--samples", "20000", "--seed", "7"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_verify_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--samples", "200000", "--seed", "42"])
        assert code == 0
        assert "FAIL" not in out

    def test_different_seeds_change_mc_output(self, capsys):
        _, first, _ = run_cli(capsys, ["sgn-averages", *FAST])
        _, second, _ = run_cli(capsys, ["sgn-averages", "--samples", "20000", "--seed", "43"])
        assert first != second

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ks-dispersion", *FAST, "--probs", "0.2,0.5,0.3", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for row in rows:
            assert set(row) == {"experiment", "params", "analytic", "mc", "stderr", "oracle", "pass"}
            assert row["pass"] in ("true", "false")
            float(row["analytic"])
            if row["oracle"]:
                float(row["oracle"])

    def test_csv_floats_round_trip_exactly(self, capsys):
        argv = ["spin-one", *FAST, "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"]
        code, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
        assert code == 0
        parsed = list(csv.DictReader(io.StringIO(out)))
        code, out_json, _ = run_cli(capsys, [*argv, "--format", "json"])
        reference = json.loads(out_json)
        for csv_row, json_row in zip(parsed, reference):
            assert float(csv_row["analytic"]) == json_row["analytic"]
            if csv_row["mc"]:
                assert float(csv_row["mc"]) == json_row["mc"]
                assert float(csv_row["stderr"]) == json_row["stderr"]
            if csv_row["oracle"]:
                assert float(csv_row["oracle"]) == json_row["oracle"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spin-half", *FAST, "--beta", "0.3,-0.4,0.8", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert all(row["pass"] is True for row in rows)
        assert {"experiment", "params", "analytic", "mc", "stderr", "oracle", "pass"} == set(rows[0])

    def test_scan_emits_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ks-dispersion", *FAST, "--scan", "--grid-step", "0.1", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        scan_rows = [row for row in rows if row["experiment"] == "ks-scan"]
        # 66 grid points for step 0.1 plus the appended centroid
        assert len(scan_rows) == 67
        assert rows[-1]["experiment"] == "ks-scan-max"
        assert float(rows[-1]["analytic"]) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"],
        ["ks-epsilon", "--eps", "0.05", "--probs", "0.25,0.5,0.25"],
    ],
    ids=["spin-one", "ks-epsilon"],
)
def test_two_sign_function_rows_make_one_monte_carlo_pass(capsys, monkeypatch, argv):
    calls = []
    real = hvlab.cli.mc_mean_pair

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hvlab.cli, "mc_mean_pair", counted)
    code, out, _ = run_cli(capsys, [*argv, *FAST])
    assert code == 0
    (second,) = [line for line in out.splitlines() if line.startswith(f"{argv[0]}-second-moment")]
    assert len(second.split()) == 7  # the second-moment row has mc and stderr cells
    assert len(calls) == 1


VERIFY_ALL_NAMES = [
    "basis-orthogonality",
    "basis-orthogonality",
    "basis-traceless",
    "basis-traceless",
    "basis-traceless",
    "structure-f",
    "structure-f",
    "structure-d",
    "structure-f",
    "basis-combination",
    "squares-identity",
    "squares-identity",
    "simultaneous-eigenbasis",
    "eigen-reconstruction",
    "born-vs-trace",
    "direction-spectrum",
    *["sgn-mean"] * 6,
    "spin-half-mean",
    "spin-half-variance",
    "spin-half-original-mean",
    "homogeneity-recombined",
    "spin-one-mean",
    "spin-one-second-moment",
    "spin-one-operator-mean",
    "spin-one-operator-variance",
    "ks-average",
    *["ks-second-moment"] * 3,
    "ks-epsilon-mean",
    "ks-epsilon-variance",
]


def run_json(capsys, argv):
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    return code, json.loads(out)


class TestVerifyAllComposition:
    def test_row_sequence(self, capsys):
        _, rows = run_json(capsys, ["verify-all", *FAST])
        assert len(VERIFY_ALL_NAMES) == 36
        assert [row["experiment"] for row in rows] == VERIFY_ALL_NAMES

    def test_monte_carlo_passes(self, capsys, monkeypatch):
        calls = {"mc_mean": 0, "mc_mean_pair": 0}
        for name in calls:
            real = getattr(hvlab.cli, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(hvlab.cli, name, counted)
        code, _, _ = run_cli(capsys, ["verify-all", *FAST])
        assert code == 0
        assert calls == {"mc_mean": 7, "mc_mean_pair": 1}

    @pytest.mark.parametrize(
        "builder, argv",
        [
            ("_spin_one_rows", ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"]),
            ("_operator_rows", ["spin-one", "--beta", "0,0,1", "--state", "0.6,0,0.8"]),
            ("_homogeneity_rows", ["homogeneity", "--alpha", "1.5", "--beta", "0,0,1"]),
        ],
    )
    def test_subcommand_and_verify_all_share_one_builder(self, capsys, monkeypatch, builder, argv):
        calls = []
        real = getattr(hvlab.cli, builder)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hvlab.cli, builder, counted)
        for command in (argv, ["verify-all"]):
            calls.clear()
            code, _, _ = run_cli(capsys, [*command, *FAST])
            assert code == 0
            assert len(calls) == 1

    def test_spin_one_rows_match_the_subcommand(self, capsys):
        _, battery = run_json(capsys, ["verify-all", *FAST])
        _, single = run_json(
            capsys, ["spin-one", *FAST, "--case", "III", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"]
        )
        for name in ("spin-one-mean", "spin-one-second-moment"):
            (left,) = [row for row in battery if row["experiment"] == name]
            (right,) = [row for row in single if row["experiment"] == name]
            assert (left["analytic"], left["oracle"]) == (right["analytic"], right["oracle"])


class TestLargeOffsets:
    def test_spin_one_variance_is_centred(self, capsys):
        _, rows = run_json(capsys, ["spin-one", *FAST, "--lambdas", "1e8,100000001,99999999", "--probs", "0.25,0.5,0.25"])
        (row,) = [row for row in rows if row["experiment"] == "spin-one-variance"]
        assert row["analytic"] == pytest.approx(0.6875, abs=1e-9)
        assert row["oracle"] == pytest.approx(0.6875, abs=1e-9)

    def test_large_outcomes_report_rows(self, capsys):
        code, rows = run_json(
            capsys, ["spin-one", *FAST, "--lambdas", "1e8,100000001.3,99999999.7", "--probs", "0.25,0.5,0.25"]
        )
        assert code == 0
        assert [row["experiment"] for row in rows] == ["spin-one-mean", "spin-one-second-moment", "spin-one-variance"]


class TestSmallVariances:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--original"], "spin-half-original-variance"),
            (["--state", "1,0"], "spin-half-variance"),
            (["--epsilon", "0,0,1"], "spin-half-variance"),
        ],
    )
    def test_variance_near_an_eigen_direction(self, capsys, argv, name):
        # |b|^2 - (b.e)^2 cancels to 0 at b = (1e-4, 0, 1e4); the truth is b_x^2
        code, rows = run_json(capsys, ["spin-half", *FAST, "--beta", "1e-4,0,1e4", *argv])
        assert code == 0
        (row,) = [row for row in rows if row["experiment"] == name]
        assert row["analytic"] == pytest.approx(1e-8, rel=1e-12)
        assert row["oracle"] == pytest.approx(1e-8, rel=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check"],
        ["sgn-averages"],
        ["spin-half", "--beta", "0,0,1", "--original"],
        ["homogeneity", "--beta", "0,0,1"],
        ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"],
        ["ks-dispersion", "--scan", "--grid-step", "0.5"],
        ["ks-epsilon", "--eps", "0.05", "--probs", "0.25,0.5,0.25", "--sweep"],
        ["verify-all"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_subcommand_returns_report_rows(argv):
    args = build_parser().parse_args([*argv, *FAST])
    rows = getattr(hvlab.cli, "run_" + argv[0].replace("-", "_"))(args)
    assert isinstance(rows, list) and rows
    assert all(isinstance(row, ReportRow) for row in rows)


def readme_commands() -> list[list[str]]:
    """The argv lists of the README "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("hvlab ")]


def test_readme_lists_every_example():
    assert len(readme_commands()) == 11


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv))
def test_readme_example_passes(capsys, argv):
    code, out, _ = run_cli(capsys, [*argv, "--samples", "20000"])
    assert code == 0
    assert out


class TestOracleBound:
    def test_absolute_at_unit_scale(self):
        assert ReportRow("x", "", 0.5, oracle=0.5 + 0.9e-9).passed(4.0)
        assert not ReportRow("x", "", 0.5, oracle=0.5 + 1.1e-9).passed(4.0)
        assert not ReportRow("x", "", -1.0, oracle=-1.0 - 1.1e-9).passed(4.0)

    def test_relative_above_unit_scale(self):
        # one ulp of 1e8 is 1.49e-8, above the absolute 1e-9
        assert ReportRow("x", "", 1e8, oracle=np.nextafter(1e8, 2e8)).passed(4.0)
        assert not ReportRow("x", "", 1e8, oracle=1e8 + 0.2).passed(4.0)
