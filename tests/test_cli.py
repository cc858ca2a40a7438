"""Tests for the command-line front end."""

import csv
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hvlab.cli
import hvlab.oracle
from hvlab import spin_half, spin_one
from hvlab.cli import ReportRow, build_parser, main
from hvlab.distributions import MC_BLOCK_SIZE, MC_CHUNK, PowerLawDistribution, _count_cells, mc_mean
from hvlab.oracle import PAULI, QuantumState, bloch_vector, build_basis

FAST = ["--samples", "20000", "--seed", "42"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_status(capsys, argv) -> tuple[int, str]:
    """The exit status and stdout of ``argv``, whether ``main`` returns
    the status or argparse exits with it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


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
            (["spin-one", "--lambdas", "1e100,2e100,3e100", "--probs", "0.2,0.5,0.3"], "exceed the float range"),
            (["spin-one", "--beta", "1e154,0,0", "--state", "1,0,0"], "operator norm exceeds the float range"),
            (["spin-one", "--beta", "1e160,0,0", "--state", "1,0,0"], "operator norm exceeds the float range"),
        ],
    )
    def test_input_the_library_rejects_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, [*argv, *FAST])
        assert code == 2
        assert err.startswith("error: ")
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv", [["homogeneity", "--alpha", "1e308", "--beta", "1e308,0,0"], ["homogeneity", "--beta", "1e200,0,1e200"]]
    )
    def test_split_cells_beyond_the_float_range_exit_2(self, capsys, argv):
        # these once ended in an OverflowError traceback from the cells of the split;
        # numpy's norm of the direction overflows on the way, which it only warns about
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, out, err = run_cli(capsys, [*argv, *FAST])
        assert (code, out, err) == (2, "", "error: the outcome moments exceed the float range\n")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["spin-half", "--beta", "0.3,-0.4,0.8", "--n", "3"],
            ["homogeneity", "--alpha", "1.5", "--beta", "0,0,1", "--n", "2"],
            ["ks-epsilon", "--eps", "0.05", "--probs", "0.25,0.5,0.25", "--n", "3"],
            ["ks-dispersion", "--probs", "0.2,0.5,0.3", "--n", "1"],
            ["oracle-check", "--n", "1"],
            ["verify-all", "--n", "3"],
            ["verify-all", "--grid-step", "0.3"],
            ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25", "--grid-step", "0.1"],
            ["ks-dispersion", "--scan", "--probs", "0.2,0.5,0.3"],
            ["ks-dispersion", "--probs", "0.2,0.5,0.3", "--grid-step", "0.05"],
        ],
    )
    def test_a_flag_the_run_would_ignore_exit_2(self, capsys, argv):
        assert exit_status(capsys, [*argv, *FAST]) == (2, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sgn-averages", "--n", "-1"], "--n must be nonnegative"),
            # the index is checked before the case I rule can be found infeasible
            (["spin-one", "--case", "I", "--n", "-1", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"],
             "--n must be nonnegative"),
            (["spin-one", "--n", "-1", "--beta", "0,0,1", "--state", "1,0,0"], "--n must be nonnegative"),
            (["ks-dispersion", "--probs", "0.2,0.5,0.3", "--grid-step", "0.9"], "--grid-step"),
            (["ks-dispersion", "--scan", "--grid-step", "0.9"], "step must lie in (0, 0.5]"),
            (["ks-dispersion", "--scan", "--grid-step", "0"], "step must lie in (0, 0.5]"),
            (["ks-dispersion", "--scan", "--grid-step", "nan"], "step must lie in (0, 0.5]"),
        ],
    )
    def test_index_or_grid_step_out_of_range_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, [*argv, *FAST])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_spin_one_takes_n(self, capsys):
        code, out, _ = run_cli(capsys, ["spin-one", *FAST, "--n", "2", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"])
        assert code == 0
        assert "spin-one-variance" in out

    def test_scan_step_defaults_to_one_hundredth(self, capsys):
        code, out, _ = run_cli(capsys, ["ks-dispersion", "--scan", "--format", "csv"])
        assert code == 0
        assert out == run_cli(capsys, ["ks-dispersion", "--scan", "--grid-step", "0.01", "--format", "csv"])[1]
        assert out.count("\nks-scan,") == 5152


class TestFailureExitCode:
    def test_impossible_tolerance_fails_with_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sgn-averages", *FAST, "--tolerance-sigma", "1e-12"],
        )
        assert code == 1
        assert "FAIL" in out


class TestOracleCheckRows:
    def test_basis_combination_catches_a_wrong_gell_mann_matrix(self, capsys, monkeypatch):
        # the row compares against Sx, Sy, Sz written out, so a sign error
        # in lambda_6 reaches it through the angular-momentum set
        gell_mann = hvlab.oracle._gell_mann_matrices

        def negated_lambda_6():
            ops = gell_mann()
            ops[5] *= -1.0
            return ops

        monkeypatch.setattr(hvlab.oracle, "_gell_mann_matrices", negated_lambda_6)
        code, rows = run_json(capsys, ["oracle-check", *FAST])
        assert code == 1
        (row,) = [row for row in rows if row["experiment"] == "basis-combination"]
        assert row["analytic"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert row["pass"] is False


class TestStreamedHomogeneity:
    DIRECTION = np.array([0.3, -0.1, 1.6])
    STATE = QuantumState.from_pure([0.6, 0.8])
    SEED = 7

    def rows(self, offset: float, samples: int) -> dict[str, ReportRow]:
        rows = hvlab.cli._homogeneity_rows(
            offset, self.DIRECTION, self.STATE, build_basis(PAULI), "", samples, self.SEED
        )
        return {row.experiment: row for row in rows}

    def test_peak_memory_does_not_grow_with_samples(self):
        peaks = []
        for samples in (1_000_000, 4_000_000):
            self.rows(1.5, samples)
            tracemalloc.start()
            try:
                self.rows(1.5, samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the block engine's bound: it keeps counts, so one chunk's draws and temporaries
        assert peaks[0] < MC_BLOCK_SIZE * 8
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize(
        "samples", [1, 2, MC_CHUNK - 1, MC_CHUNK + 1, MC_BLOCK_SIZE - 1, MC_BLOCK_SIZE + 1, 1_000_000]
    )
    def test_counts_match_one_whole_draw(self, samples):
        offset = 1.5
        bloch = bloch_vector(self.STATE, build_basis(PAULI))
        split = spin_half.homogeneity_split(offset, self.DIRECTION, bloch)
        # the block engine's stream: each block drawn whole from its own generator
        hidden = np.concatenate([
            PowerLawDistribution(0).sample(min(MC_BLOCK_SIZE, samples - start), np.random.default_rng([self.SEED, 0, index]))
            for index, start in enumerate(range(0, samples, MC_BLOCK_SIZE))
        ])
        outcomes = offset + spin_half.bell_outcome_modified(self.DIRECTION, bloch, hidden)
        upper = hidden >= split.split_point
        expected = {}
        for value, side in zip(outcomes.tolist(), upper.tolist()):
            expected[value, side] = expected.get((value, side), 0) + 1
        counts = hvlab.cli._split_counts(offset, self.DIRECTION, bloch, split.split_point, samples, self.SEED)
        assert counts == expected

        rows = self.rows(offset, samples)
        whole = rows["homogeneity-whole"]
        assert whole.mc == pytest.approx(outcomes.mean(), rel=1e-12)
        stderr = outcomes.std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0
        assert whole.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        for name, part in (("homogeneity-mean-plus", upper), ("homogeneity-mean-minus", ~upper)):
            if part.any():
                assert rows[name].mc == outcomes[part][0]
                assert rows[name].stderr == 0.0
            else:
                assert (rows[name].mc, rows[name].stderr) == (None, None)

    def test_whole_matches_the_block_engine(self):
        offset, samples = 1.5, 2 * MC_BLOCK_SIZE + 5
        bloch = bloch_vector(self.STATE, build_basis(PAULI))
        counts = mc_mean(
            lambda xs: offset + spin_half.bell_outcome_modified(self.DIRECTION, bloch, xs),
            PowerLawDistribution(0), samples, self.SEED, offset + np.array([-1.0, 1.0]) * np.linalg.norm(self.DIRECTION),
        )
        mean, stderr = _count_cells(counts)
        whole = self.rows(offset, samples)["homogeneity-whole"]
        assert whole.mc == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert whole.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    def test_a_third_outcome_value_raises(self, monkeypatch):
        real = spin_half.bell_outcome_modified
        monkeypatch.setattr(spin_half, "bell_outcome_modified", lambda b, e, xs: real(b, e, xs) * (1.0 + (xs > 0.4)))
        bloch = bloch_vector(self.STATE, build_basis(PAULI))
        with pytest.raises(RuntimeError):
            hvlab.cli._split_counts(1.5, self.DIRECTION, bloch, 0.0, 1000, self.SEED)

    def test_whole_stderr_is_centred(self):
        far, near = self.rows(1e8, 100_000), self.rows(0.0, 100_000)
        assert far["homogeneity-whole"].stderr == pytest.approx(near["homogeneity-whole"].stderr, rel=1e-6)

    def test_a_wrong_split_fails_its_rows(self, capsys, monkeypatch):
        real = spin_half.homogeneity_split

        def shifted(*args):
            split = real(*args)
            return dataclasses.replace(split, split_point=split.split_point + 0.01)

        monkeypatch.setattr(spin_half, "homogeneity_split", shifted)
        code, rows = run_json(capsys, ["homogeneity", *FAST, "--alpha", "1.5", "--beta", "0,0,1", "--epsilon", "0,0,0.5"])
        assert code == 1
        failed = {row["experiment"] for row in rows if not row["pass"]}
        assert failed & {"homogeneity-mean-plus", "homogeneity-mean-minus"}


@pytest.mark.xfail(
    strict=True,
    reason="an outcome of probability far below 1/samples is never drawn, so the "
    "sample stderr is about 0 and the exact mean fails the band",
)
@pytest.mark.parametrize(
    "argv",
    [
        ["spin-half", "--beta", "1e-4,0,1", "--state", "1,0"],
        ["spin-one", "--beta", "1e-4,0,1", "--state", "0,1,0"],
        ["ks-epsilon", "--eps", "0.05", "--probs", "0.99999999,0.000000005,0.000000005"],
    ],
    ids=lambda argv: argv[0],
)
def test_correct_model_passes_with_a_rare_outcome(capsys, argv):
    code, out, _ = run_cli(capsys, [*argv, *FAST])
    assert code == 0, out


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


def test_a_reader_closing_the_pipe_early_gets_no_traceback():
    # `hvlab ks-dispersion --scan --format csv | head -2` once ended in a
    # BrokenPipeError traceback and exit 1; the scan is larger than a pipe buffer
    src = str(Path(hvlab.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "hvlab.cli", "ks-dispersion", "--scan", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"experiment,params,analytic,mc,stderr,oracle,pass\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


class TestOracleBound:
    def test_absolute_at_unit_scale(self):
        assert ReportRow("x", "", 0.5, oracle=0.5 + 0.9e-9).passed(4.0)
        assert not ReportRow("x", "", 0.5, oracle=0.5 + 1.1e-9).passed(4.0)
        assert not ReportRow("x", "", -1.0, oracle=-1.0 - 1.1e-9).passed(4.0)

    def test_relative_above_unit_scale(self):
        # one ulp of 1e8 is 1.49e-8, above the absolute 1e-9
        assert ReportRow("x", "", 1e8, oracle=np.nextafter(1e8, 2e8)).passed(4.0)
        assert not ReportRow("x", "", 1e8, oracle=1e8 + 0.2).passed(4.0)
