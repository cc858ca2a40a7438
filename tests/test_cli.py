"""Tests for the command-line front end."""

import csv
import dataclasses
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hvlab.cli
import hvlab.oracle
from hvlab import spin_half, spin_one
from hvlab.cli import ReportRow, build_parser, main
from hvlab.distributions import PowerLawDistribution, _count_cells, _lattice_cells, mc_mean
from hvlab.oracle import (
    ANGULAR_MOMENTUM,
    GELL_MANN,
    PAULI,
    QuantumState,
    bloch_vector,
    born_distribution,
    build_basis,
    expectation,
    linear_observable,
    random_pure_state,
    spectral_decompose,
)

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
            # rows with stderr 0 would get the band inf * 0 = nan and fail
            ["sgn-averages", "--tolerance-sigma", "inf"],
            ["sgn-averages", "--tolerance-sigma", "nan"],
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
            (["spin-one", "--basis", "gell-mann", "--beta", "0,0,1", "--state", "1,0"], "3-dimensional"),
            (["spin-one", "--basis", "gell-mann", "--beta", "0,0,1", "--state", "1,0,0"], "expected 8 coefficients"),
            (["spin-one", "--basis", "angular-momentum", "--beta", "0,0", "--state", "1,0,0"], "expected 8 or 3 coefficients"),
            (["spin-one", "--basis", "angular-momentum", "--beta", "0,0,1", "--state", "1,0"], "3-dimensional"),
            (["spin-one", "--basis", "angular-momentum", "--beta", "1e160,0,0", "--state", "1,0,0"], "operator norm exceeds the float range"),
            (["spin-one", "--beta", "1e154,0,0", "--state", "1,0,0"], "operator norm exceeds the float range"),
            (["spin-one", "--beta", "1e160,0,0", "--state", "1,0,0"], "operator norm exceeds the float range"),
            # the square of the observable overflows: rejected with no numpy warning
            (["spin-half", "--beta", "1e200,0,1e200"], "operator has non-finite entries"),
        ],
    )
    def test_input_the_library_rejects_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, [*argv, *FAST])
        assert code == 2
        assert err.startswith("error: ")
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["homogeneity", "--alpha", "1e308", "--beta", "1e308,0,0"]])
    def test_split_cells_beyond_the_float_range_exit_2(self, capsys, argv):
        # the offset meets only the counted values, as Python floats: the float-range
        # error alone, with no numpy overflow warning before it
        code, out, err = run_cli(capsys, [*argv, *FAST])
        assert (code, out, err) == (2, "", "error: the outcome moments exceed the float range\n")

    def test_moments_beyond_the_float_range_exit_2(self, capsys):
        # the squared spectrum overflows: the float-range error alone, no numpy warning before it
        argv = ["spin-one", "--lambdas", "1e160,2e160,3e160", "--probs", "0.2,0.5,0.3", *FAST]
        assert run_cli(capsys, argv) == (2, "", "error: the outcome moments exceed the float range\n")

    def test_invalid_samples_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["oracle-check", "--samples", "0"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-check"],
            ["sgn-averages"],
            ["spin-half", "--beta", "0,0,1"],
            ["homogeneity", "--beta", "0,0,1"],
            ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"],
            ["ks-dispersion", "--probs", "0.2,0.5,0.3"],
            ["ks-epsilon", "--eps", "0.05", "--probs", "0.25,0.5,0.25"],
            ["verify-all"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_exit_2(self, capsys, argv):
        # one rule for every subcommand, whether its seed reaches the engine or numpy
        code, out, err = run_cli(capsys, [*argv, "--samples", "20000", "--seed", "-5"])
        assert code == 2
        assert err == "error: --seed must be nonnegative\n"
        assert out == ""

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
            # explicit mode takes none of operator mode's flags, the default basis included
            ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25", "--beta", "0,0,1", "--state", "1,0,0"],
            ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25", "--basis", "gell-mann"],
            ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25", "--basis", "angular-momentum"],
            ["spin-one", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25", "--state", "1,0,0"],
        ],
    )
    def test_a_flag_the_run_would_ignore_exit_2(self, capsys, argv):
        assert exit_status(capsys, [*argv, *FAST]) == (2, "")

    def test_spin_one_takes_no_two_by_two_basis(self, capsys):
        # the three-outcome rule needs a 3x3 observable, which no Pauli combination is
        assert exit_status(capsys, ["spin-one", "--basis", "pauli", "--beta", "0,0,1", "--state", "1,0,0", *FAST]) == (2, "")

    def test_operator_mode_defaults_to_the_angular_momentum_basis(self, capsys):
        code, out, _ = run_cli(capsys, ["spin-one", *FAST, "--beta", "0,0,1", "--state", "0.6,0,0.8"])
        assert code == 0
        assert "case=III;basis=angular-momentum;beta=0,0,1" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sgn-averages", "--n", "-1"], "--n must be nonnegative"),
            # the quadrature rule's companion matrix holds (n+1)^2 floats: 71.1 PiB here
            (["sgn-averages", "--n", "100000000"], "n up to 4096"),
            # the index is checked before the case I rule can be found infeasible
            (["spin-one", "--case", "I", "--n", "-1", "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"],
             "--n must be nonnegative"),
            (["spin-one", "--n", "-1", "--beta", "0,0,1", "--state", "1,0,0"], "--n must be nonnegative"),
            (["ks-dispersion", "--probs", "0.2,0.5,0.3", "--grid-step", "0.9"], "--grid-step"),
            (["ks-dispersion", "--scan", "--grid-step", "0.9"], "step must lie in (0, 0.5]"),
            (["ks-dispersion", "--scan", "--grid-step", "0"], "step must lie in (0, 0.5]"),
            (["ks-dispersion", "--scan", "--grid-step", "nan"], "step must lie in (0, 0.5]"),
            # subnormal: 1 / step is inf, so the step count would be int(inf)
            (["ks-dispersion", "--scan", "--grid-step", "5e-324"], "step 5e-324 is too small"),
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


#: What --swap changes: (case, --probs, effect)
SWAP_EFFECTS = [
    *[(case, "0.2,0.5,0.3", "none") for case in ("III", "IV", "V", "VI")],
    *[(case, "0.5,0.25,0.25", "mean-negated") for case in spin_one.CASE_IDS],
    ("I", "0.6,0.1,0.3", "other-root"),
    ("II", "0.6,0.1,0.3", "other-root"),
]


@pytest.mark.parametrize("case, probs, effect", SWAP_EFFECTS)
def test_what_swap_changes(capsys, case, probs, effect):
    # in cases III-VI --swap negates one sign target and interchanges the two
    # outcomes its sign function separates, so each draw keeps its outcome,
    # except at target 0 (a tie), where sign(0) = +1 both ways
    argv = ["spin-one", *FAST, "--case", case, "--lambdas", "0,1,-1", "--probs", probs]
    (code, plain), (swap_code, swapped) = run_json(capsys, argv), run_json(capsys, [*argv, "--swap"])
    assert code == swap_code == 0
    # the params cell says which rule was judged; every other cell is compared below
    assert {row.pop("params")[-7:] for row in plain} == {";swap=0"}
    assert {row.pop("params")[-7:] for row in swapped} == {";swap=1"}
    if effect == "none":
        assert plain == swapped
    elif effect == "mean-negated":
        assert plain[0]["experiment"] == "spin-one-mean" and plain[0]["mc"] != 0.0
        assert swapped[0] == {**plain[0], "mc": -plain[0]["mc"]}
        assert swapped[1:] == plain[1:]
    else:
        assert [row["mc"] for row in swapped] != [row["mc"] for row in plain]
        assert [row["analytic"] for row in swapped] == pytest.approx([row["analytic"] for row in plain], abs=1e-12)


@pytest.mark.parametrize(
    "flags, suffix", [([], ";n=0;swap=0"), (["--n", "2"], ";n=2;swap=0"), (["--n", "3", "--swap"], ";n=3;swap=1")]
)
@pytest.mark.parametrize(
    "mode", [["--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"], ["--beta", "0,0,1", "--state", "0.6,0,0.8"]]
)
def test_spin_one_params_name_the_index_and_the_swap(capsys, mode, flags, suffix):
    code, rows = run_json(capsys, ["spin-one", *FAST, *mode, *flags])
    assert code == 0
    assert [row["params"][-len(suffix):] for row in rows] == [suffix] * 3


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

    # none of them is a seed of a golden record
    @pytest.mark.parametrize(
        "seed",
        [*range(14), 101, 999, 31337, 2**31 - 1, 2**32, 2**32 + 1, 2**53, 2**63, 2**64 - 1, 2**64, 2**64 + 1],
    )
    def test_stacked_trials_give_the_per_trial_cells(self, seed):
        args = build_parser().parse_args(["oracle-check", "--seed", str(seed)])
        trials = [row for row in hvlab.cli.run_oracle_check(args) if row.experiment in PER_TRIAL_ROWS]
        assert [(row.experiment, row.params, row.analytic.hex()) for row in trials] == per_trial_rows(seed)


PER_TRIAL_ROWS = ("eigen-reconstruction", "born-vs-trace", "direction-spectrum")


def per_trial_rows(seed: int) -> list[tuple[str, str, str]]:
    """oracle-check's random-trial cells, each trial's observable built by its
    own linear_observable call and each trial set decomposed on its own: four
    decompositions in all, the stream read in the same order."""
    rng = np.random.default_rng(seed)
    pauli, gm, ang = (build_basis(kind) for kind in (PAULI, GELL_MANN, ANGULAR_MOMENTUM))
    recon = 0.0
    for basis in (pauli, gm):
        hs = np.stack([linear_observable(rng.normal(size=basis.size), basis) for _ in range(20)])
        vals, vecs = spectral_decompose(hs)
        rebuilt = (vecs * vals[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        recon = max(recon, float(np.max(np.abs(rebuilt - hs))))
    hs, states = zip(*[(linear_observable(rng.normal(size=8), gm), random_pure_state(3, rng)) for _ in range(20)])
    dists = born_distribution(np.stack(hs), states)
    born_dev = max(abs(dist.mean - expectation(h, state)) for dist, h, state in zip(dists, hs, states))
    betas = [rng.normal(size=3) for _ in range(200)]
    vals, _ = spectral_decompose(np.stack([linear_observable(beta, ang) for beta in betas]))
    spec_dev = float(np.max(np.abs(vals - np.outer(np.linalg.norm(betas, axis=1), [1.0, 0.0, -1.0]))))
    return [
        ("eigen-reconstruction", "trials=40", recon.hex()),
        ("born-vs-trace", "trials=20", born_dev.hex()),
        ("direction-spectrum", "trials=200", spec_dev.hex()),
    ]


class TestStreamedHomogeneity:
    DIRECTION = np.array([0.3, -0.1, 1.6])
    STATE = QuantumState.from_pure([0.6, 0.8])
    SEED = 7

    def rows(self, offset: float, samples: int) -> dict[str, ReportRow]:
        rows = hvlab.cli._homogeneity_rows(
            offset, self.DIRECTION, self.STATE, build_basis(PAULI), "", samples, self.SEED
        )
        return {row.experiment: row for row in rows}

    @pytest.mark.parametrize("samples", [1, 2, 1_000_000])
    def test_counts_match_one_whole_draw(self, samples):
        offset = 1.5
        bloch = bloch_vector(self.STATE, build_basis(PAULI))
        split = spin_half.homogeneity_split(offset, self.DIRECTION, bloch)
        cut = spin_half.modified_sign_function(self.DIRECTION, bloch).cut
        outcome = functools.partial(spin_half.bell_outcome_modified, self.DIRECTION, bloch)
        # one whole draw of the sampler, and the integers k of its uniforms k * 2**-53:
        # the lattice cells of the rule over its cut and of the side over the split
        # give each draw's outcome and side from its integer alone
        hidden = PowerLawDistribution(0).sample(samples, np.random.default_rng(self.SEED))
        ks = (np.random.default_rng(self.SEED).bit_generator.random_raw(samples) >> np.uint64(11)).astype(np.int64)
        for rule, cuts in ((outcome, (cut,)), (lambda xs: 1.0 * (xs >= split.split_point), (split.split_point,))):
            values, value_of_cell, (widths,) = _lattice_cells(rule, (PowerLawDistribution(0),), (cuts,))
            cell = np.searchsorted(np.cumsum(widths[:-1]), ks, side="right")
            np.testing.assert_array_equal(np.take(values, np.take(value_of_cell, cell)), rule(hidden))

        # the counts drawn over those cells: one outcome on each side, all samples in all
        lower, upper = hvlab.cli._split_counts(offset, self.DIRECTION, bloch, split.split_point, samples, self.SEED)
        assert sum(count for _, count in lower + upper) == samples
        rows = self.rows(offset, samples)
        assert (rows["homogeneity-whole"].mc, rows["homogeneity-whole"].stderr) == _count_cells(lower + upper)
        sides = (("homogeneity-mean-plus", upper, split.mean_plus), ("homogeneity-mean-minus", lower, split.mean_minus))
        for name, side, mean in sides:
            drawn = [value for value, count in side if count]
            if drawn:
                (value,) = drawn
                assert value == pytest.approx(mean, abs=1e-12)
                assert (rows[name].mc, rows[name].stderr) == (value, 0.0)
            else:
                assert (rows[name].mc, rows[name].stderr) == (None, None)

    def test_whole_cells_match_mc_mean_of_the_outcome_rule(self):
        # the outcome rule itself, counted over the cells of the split pass
        offset, samples = 1.5, 1_000_000
        bloch = bloch_vector(self.STATE, build_basis(PAULI))
        split = spin_half.homogeneity_split(offset, self.DIRECTION, bloch)
        counts = mc_mean(
            lambda xs: offset + spin_half.bell_outcome_modified(self.DIRECTION, bloch, xs),
            PowerLawDistribution(0), samples, self.SEED,
            (spin_half.modified_sign_function(self.DIRECTION, bloch).cut, split.split_point),
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


@pytest.mark.parametrize("samples", [1_000_000, 2**62])
@pytest.mark.parametrize(
    "rows",
    [
        functools.partial(TestStreamedHomogeneity().rows, 1.5),
        functools.partial(hvlab.cli._spin_one_rows, (0.0, 1.0, -1.0), (0.3, 0.5, 0.2), "", seed=5),
        functools.partial(hvlab.cli._ks_rows, (0.2, 0.5, 0.3), "", seed=5),
    ],
    ids=["homogeneity", "case-iii-pair", "ks-sum"],
)
def test_mc_peak_memory_does_not_depend_on_the_sample_count(rows, samples):
    # the engine makes no draw: the lattice points that check one cut's threshold
    # and the counts are all it holds, at a million samples as at 2^62
    rows(samples)
    # a full collection empties the float, tuple and list freelists, so each
    # traced run allocates alike whatever tests ran before it
    gc.collect()
    tracemalloc.start()
    try:
        rows(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 17


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

    def test_second_moment_stderr_within_the_float_range_passes(self, capsys):
        # the squared outcomes' variance over n exceeds the float range, its root does not
        code, rows = run_json(capsys, ["spin-one", *FAST, "--lambdas", "1e100,2e100,3e100", "--probs", "0.2,0.5,0.3"])
        assert code == 0
        assert [row["pass"] for row in rows] == [True, True, True]

    def test_direction_beyond_the_root_of_the_float_range(self, capsys):
        # |b| = 1.414e200 fits in a float although b.b does not: no overflow
        # warning, and the outcome table is -|b| and +|b|, not -inf and +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rows = run_json(capsys, ["homogeneity", *FAST, "--beta", "1e200,0,1e200"])
        magnitude = math.hypot(1e200, 0.0, 1e200)
        assert spin_half.outcome_table([1e200, 0.0, 1e200]) == (-magnitude, magnitude)
        assert code == 0
        cells = {row["experiment"]: (row["analytic"], row["mc"]) for row in rows}
        assert cells["homogeneity-mean-plus"] == (magnitude, magnitude)
        assert cells["homogeneity-mean-minus"] == (-magnitude, -magnitude)

    def test_an_offset_that_swamps_both_outcomes(self, capsys):
        # offset -+ |b| round to one value, so both outcomes count toward it
        argv = ["homogeneity", "--alpha", "1e20", "--beta", "0,0,1", "--epsilon", "0,0,0.5", "--samples", "20000"]
        assert run_cli(capsys, argv) == (0, """\
experiment              params                  analytic  mc     stderr  oracle  pass
homogeneity-mean-plus   alpha=1e+20;beta=0,0,1  1e+20     1e+20  0               pass
homogeneity-mean-minus  alpha=1e+20;beta=0,0,1  1e+20     1e+20  0               pass
homogeneity-whole       alpha=1e+20;beta=0,0,1  1e+20     1e+20  0       1e+20   pass
homogeneity-recombined  alpha=1e+20;beta=0,0,1  1e+20                    1e+20   pass
""", "")
        # split at 0, above the rule's cut -1/4, both outcomes fall below the split
        below, above = hvlab.cli._split_counts(1e20, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.5]), 0.0, 20000, 42)
        assert [value for value, _ in below] == [1e20] * 2
        assert [value for value, _ in above] == [1e20]
        assert all(sum(count for _, count in side) for side in (below, above))
        assert sum(count for _, count in below + above) == 20000


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

    @pytest.mark.parametrize("argv", [["spin-one", "--state", "1,0,0"], ["spin-half"]], ids=lambda argv: argv[0])
    def test_tiny_observables_pass(self, capsys, argv):
        # the squares of 1e-200 underflow; |b| and the eigensolver scale by a power of two first
        code, rows = run_json(capsys, [*argv, *FAST, "--beta", "1e-200,0,1e-200"])
        assert code == 0
        (row,) = [row for row in rows if row["experiment"] == f"{argv[0]}-mean"]
        assert row["analytic"] == pytest.approx(1e-200, rel=1e-12, abs=0.0)
        assert row["oracle"] == pytest.approx(1e-200, rel=1e-12, abs=0.0)
        assert row["stderr"] > 0.0

    @pytest.mark.parametrize("command, zeros", [("spin-one", ",0,0"), ("spin-half", ",0")])
    def test_a_tiny_state_is_the_unit_state(self, capsys, command, zeros):
        # the squared amplitudes of 1e-200 underflow; the norm scales by a power of two first
        argv = [command, *FAST, "--beta", "0,0,1", "--state"]
        tiny = run_cli(capsys, [*argv, "1e-200" + zeros])
        assert tiny == run_cli(capsys, [*argv, "1" + zeros])
        assert tiny[0] == 0


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
    rows = list(getattr(hvlab.cli, "run_" + argv[0].replace("-", "_"))(args))
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


def cli_process_env() -> dict[str, str]:
    """The environment of a fresh ``python -m hvlab.cli`` on these sources."""
    src = str(Path(hvlab.cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_a_reader_closing_the_pipe_early_gets_no_traceback():
    # `hvlab ks-dispersion --scan --format csv | head -2` once ended in a
    # BrokenPipeError traceback and exit 1; the scan is larger than a pipe buffer
    argv = [sys.executable, "-m", "hvlab.cli", "ks-dispersion", "--scan", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_process_env()) as proc:
        assert proc.stdout.readline() == b"experiment,params,analytic,mc,stderr,oracle,pass\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


class Discard(io.TextIOBase):
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text: str) -> int:
        return len(text)


class BreakingPipe(Discard):
    """A stdout whose reader goes away after its first write."""

    def __init__(self, fd: int) -> None:
        self.fd, self.writes = fd, 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError
        return len(text)

    def fileno(self) -> int:
        return self.fd


def verdicts(fmt: str, out: str) -> list[bool]:
    """The printed verdict of every row."""
    if fmt == "json":
        return [row["pass"] for row in json.loads(out)]
    if fmt == "csv":
        return [row["pass"] == "true" for row in csv.DictReader(io.StringIO(out))]
    return [line.split()[-1] == "pass" for line in out.splitlines()[1:]]


@pytest.fixture
def judgements(monkeypatch) -> list[str]:
    """The experiment of every `ReportRow.passed` call, in call order."""
    calls = []
    passed = ReportRow.passed

    def counted(row, tolerance_sigma):
        calls.append(row.experiment)
        return passed(row, tolerance_sigma)

    monkeypatch.setattr(ReportRow, "passed", counted)
    return calls


class Recording(Discard):
    """A stdout that keeps each write."""

    def __init__(self) -> None:
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def scan_peak(monkeypatch, stream) -> int:
    """The tracemalloc peak of the default-step CSV scan written to ``stream``."""
    argv = ["ks-dispersion", "--scan", "--format", "csv"]
    monkeypatch.setattr(sys, "stdout", Discard())
    main(argv)
    monkeypatch.setattr(sys, "stdout", stream)
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: what the default-step scan holds while its rows are written: the table, and
#: CPython's csv record buffer, 32,768 UCS-4 characters (_csv.c's MEM_INCR on 3.10 and 3.11)
SCAN_FLOOR = hvlab.ks.dispersion_scan(0.01).nbytes + 4 * 32_768
#: a batch (at least io.DEFAULT_BUFFER_SIZE characters, its pieces and their join), the
#: scan's build temporaries beyond that floor and the interpreter's own small objects
SCAN_ALLOWANCE = 64_000


class TestStreamedRows:
    SCAN = ["ks-dispersion", "--scan", "--grid-step", "0.1"]

    def test_scan_peak_memory_is_the_table(self, monkeypatch):
        # rows are written as they are built and the table is built in place, so the
        # peak is the floor and the allowance: 0.33 MB, where every row held at once
        # is about 0.95 MB and a table built with a copy per step about 0.58 MB
        assert scan_peak(monkeypatch, Discard()) < SCAN_FLOOR + SCAN_ALLOWANCE

    def test_captured_scan_peak_is_the_table_and_the_text(self, monkeypatch):
        # the captured CSV is about 283,000 one-byte characters in some 35 strings;
        # kept one string per row it took about twice that (0.88 MB in all)
        stream = io.StringIO()
        peak = scan_peak(monkeypatch, stream)
        assert peak < SCAN_FLOOR + len(stream.getvalue()) + SCAN_ALLOWANCE

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("table", "d79ffd76d8864afafbcaa22ce566b3b8b26a6528f22003e1b52cee9444179010"),
            ("csv", "e3bb11741b4cb348fa82a09df77459afcd6a21af447c7c642984073b659362c6"),
            ("json", "fc1d02f18e2598e13c2279caa22865f134d4211c513a76540ef78838b6799a60"),
        ],
    )
    def test_rows_are_written_in_batches(self, monkeypatch, fmt, digest):
        # every write but the last carries a whole buffer's worth; the text is the scan's
        stream = Recording()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["ks-dispersion", "--scan", "--format", fmt]) == 0
        assert len(stream.writes) > 10
        assert min(map(len, stream.writes[:-1])) >= io.DEFAULT_BUFFER_SIZE
        assert hashlib.sha256("".join(stream.writes).encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "argv, code",
        [(SCAN, 0), (["sgn-averages", *FAST], 0), (["sgn-averages", *FAST, "--tolerance-sigma", "1e-9"], 1)],
        ids=["scan", "sgn-averages", "sgn-averages-failing"],
    )
    def test_each_row_is_judged_once(self, capsys, judgements, fmt, argv, code):
        status, out, _ = run_cli(capsys, [*argv, "--format", fmt])
        printed = verdicts(fmt, out)
        assert len(judgements) == len(printed)
        assert status == code == (0 if all(printed) else 1)

    @pytest.mark.parametrize("failing, code", [(None, 0), ("ks-scan-max", 1)])
    def test_a_broken_pipe_still_judges_every_row(self, monkeypatch, failing, code):
        # the pipe breaks at the second write, before the last row is built: the
        # default-step scan is some 35 batches, where a step-0.1 scan fits in one
        passed = ReportRow.passed
        monkeypatch.setattr(ReportRow, "passed", lambda row, tol: row.experiment != failing and passed(row, tol))
        fd = os.open(os.devnull, os.O_WRONLY)
        try:
            stream = BreakingPipe(fd)
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["ks-dispersion", "--scan", "--format", "csv"]) == code
            assert stream.writes == 2
        finally:
            os.close(fd)

    def test_scan_rows_can_be_read_again(self):
        rows = hvlab.cli.run_ks_dispersion(build_parser().parse_args(self.SCAN))
        first = list(rows)
        assert len(rows) == len(first) == 69
        assert list(rows) == first
        assert [row.experiment for row in first[-2:]] == ["ks-scan-min", "ks-scan-max"]

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 65])
    def test_scan_blocks_give_each_row_its_own_params(self, count):
        # the params are formatted a block of rows at a time: a block's last row, a
        # partial block and a block's first row must each come out as one row alone
        table = hvlab.ks.dispersion_scan(0.01)[:count]
        rows = list(hvlab.cli._ScanRows(table, 0.01))
        alone = [("ks-scan", f"p1={p1:.6g};p2={p2:.6g};p3={p3:.6g}", value) for p1, p2, p3, value in table.tolist()]
        assert [(row.experiment, row.params, row.analytic) for row in rows[:-2]] == alone
        assert [(row.experiment, row.analytic) for row in rows[-2:]] == [
            ("ks-scan-min", table[:, 3].min()),
            ("ks-scan-max", table[:, 3].max()),
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "step, count", [(0.5, None), (1 / 3, None), (0.13, None), (0.013, None), *((0.01, n) for n in (1, 31, 32, 33, 65))]
    )
    def test_scan_blocks_print_what_the_per_row_writer_prints(self, fmt, step, count):
        # a scan's table rows are rendered a block at a time from one row template; a
        # list of the same rows goes row by row through the writer of every other command
        # (a cut table's min and max rows fail, as its extremes are not 0 and 2)
        rows = hvlab.cli._ScanRows(hvlab.ks.dispersion_scan(step)[:count], step)
        args = build_parser().parse_args(["ks-dispersion", "--scan", "--format", fmt])
        blocks, alone = io.StringIO(), io.StringIO()
        assert hvlab.cli.emit_rows(rows, args, blocks) is hvlab.cli.emit_rows(list(rows), args, alone) is (count is None)
        assert blocks.getvalue() == alone.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_scan_rows_printed_verdict_is_its_judgement(self, capsys, monkeypatch, fmt):
        # the 33rd table row, the first of the second block, is the only one judged to fail
        scan_calls, passed = itertools.count(1), ReportRow.passed
        monkeypatch.setattr(
            ReportRow, "passed", lambda row, tol: (row.experiment != "ks-scan" or next(scan_calls) != 33) and passed(row, tol)
        )
        code, out, _ = run_cli(capsys, [*self.SCAN, "--format", fmt])
        assert code == 1
        assert [k for k, ok in enumerate(verdicts(fmt, out)) if not ok] == [32]

    @pytest.mark.parametrize("argv", [["verify-all", *FAST], SCAN], ids=["verify-all", "scan"])
    def test_json_is_json_dumps(self, capsys, argv):
        _, out, _ = run_cli(capsys, [*argv, "--format", "json"])
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_json_cells_are_json_dumps(self):
        # values no command prints today: each spliced cell must still be json.dumps's
        rows = [
            ReportRow("odd \"name\"\n", "p=\u00e9\u2192", math.nan, math.inf, -math.inf, 2),
            ReportRow("numpy", "", np.float64(0.1), np.float64(-0.0), 1e-310, 1e300),
        ]
        args = build_parser().parse_args(["oracle-check", "--format", "json"])
        stream = io.StringIO()
        assert not hvlab.cli.emit_rows(rows, args, stream)
        payload = [
            dict(zip(hvlab.cli._CSV_COLUMNS, (r.experiment, r.params, r.analytic, r.mc, r.stderr, r.oracle, r.passed(4.0))))
            for r in rows
        ]
        assert stream.getvalue() == json.dumps(payload, indent=2) + "\n"
        stream = io.StringIO()
        assert hvlab.cli.emit_rows([], args, stream)
        assert stream.getvalue() == json.dumps([], indent=2) + "\n"


class TestOracleBound:
    def test_absolute_at_unit_scale(self):
        assert ReportRow("x", "", 0.5, oracle=0.5 + 0.9e-9).passed(4.0)
        assert not ReportRow("x", "", 0.5, oracle=0.5 + 1.1e-9).passed(4.0)
        assert not ReportRow("x", "", -1.0, oracle=-1.0 - 1.1e-9).passed(4.0)

    def test_relative_above_unit_scale(self):
        # one ulp of 1e8 is 1.49e-8, above the absolute 1e-9
        assert ReportRow("x", "", 1e8, oracle=np.nextafter(1e8, 2e8)).passed(4.0)
        assert not ReportRow("x", "", 1e8, oracle=1e8 + 0.2).passed(4.0)


class TestOneParserPerProcess:
    def test_main_leaves_no_cyclic_garbage(self, capsys):
        # a parser built per call leaves its cyclic objects to the collector
        argv = ["spin-one", *FAST, "--lambdas", "0,1,-1", "--probs", "0.25,0.5,0.25"]
        main(argv)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                main(argv)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_call_sees_nothing_of_the_calls_before(self, capsys):
        # in case I, --swap changes the printed numbers
        case_i = ["spin-one", *FAST, "--case", "I", "--lambdas", "0,1,-1", "--probs", "0.6,0.1,0.3"]
        sequence = [[*case_i, "--swap"], ["spin-one", *FAST, "--case", "VII"], ["ks-dispersion", *FAST, "--scan"], case_i]
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "hvlab.cli", *argv], capture_output=True, text=True, env=cli_process_env(), timeout=120
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0 and "case=I;" in out
