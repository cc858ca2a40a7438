"""Command-line front end: run each experiment, sweep parameters, and
emit machine-readable reports.

Every subcommand produces a stream of report rows (analytic value,
Monte Carlo estimate with standard error, and an exact reference value
where one applies) in text-table, CSV or JSON form.  Output is
deterministic for a fixed seed.  Exit status is 0 when every row
passes, 1 on verification failures, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ks, spin_half, spin_one
from .distributions import (
    Moments,
    PowerLawDistribution,
    SignFunctionSpec,
    _count_cells,
    mc_mean,
    mc_mean_pair,
    sign_mean_analytic,
    sign_mean_quadrature,
    sign_product_mean_analytic,
    sign_product_mean_quadrature,
)
from .oracle import (
    ANGULAR_MOMENTUM,
    BASIS_KINDS,
    GELL_MANN,
    PAULI,
    OperatorBasis,
    QuantumState,
    bloch_vector,
    born_distribution,
    build_basis,
    expectation,
    linear_observable,
    random_pure_state,
    simultaneous_eigenbasis,
    spectral_decompose,
    variance,
    verify_ks_identity,
)

ORACLE_TOL = 1e-9

_CSV_COLUMNS = ("experiment", "params", "analytic", "mc", "stderr", "oracle", "pass")


class CliError(Exception):
    """A usage-level problem with the provided arguments."""


@dataclass
class ReportRow:
    experiment: str
    params: str
    analytic: float
    mc: float | None = None
    stderr: float | None = None
    oracle: float | None = None

    def passed(self, tolerance_sigma: float) -> bool:
        ok = True
        if self.oracle is not None:
            # relative above 1: the analytic and exact routes round apart
            # in proportion to the magnitude of the value
            ok = ok and abs(self.analytic - self.oracle) < ORACLE_TOL * max(1.0, abs(self.oracle))
        if self.mc is not None:
            # the roundoff floor covers deterministic estimates (stderr 0)
            band = tolerance_sigma * (self.stderr or 0.0) + 1e-12 * max(1.0, abs(self.analytic))
            ok = ok and abs(self.mc - self.analytic) <= band
        return bool(ok)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_rows(rows: list[ReportRow], args: argparse.Namespace, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    tol = args.tolerance_sigma
    if args.format == "json":
        payload = [
            dict(zip(_CSV_COLUMNS, (row.experiment, row.params, row.analytic, row.mc, row.stderr, row.oracle, row.passed(tol))))
            for row in rows
        ]
        stream.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            numbers = [_fmt(value) for value in (row.analytic, row.mc, row.stderr, row.oracle)]
            writer.writerow([row.experiment, row.params, *numbers, "true" if row.passed(tol) else "false"])
    else:
        cells = [_CSV_COLUMNS] + [
            (
                row.experiment,
                row.params,
                f"{row.analytic:.10g}",
                "" if row.mc is None else f"{row.mc:.10g}",
                "" if row.stderr is None else f"{row.stderr:.3g}",
                "" if row.oracle is None else f"{row.oracle:.10g}",
                "pass" if row.passed(tol) else "FAIL",
            )
            for row in rows
        ]
        widths = [max(len(line[k]) for line in cells) for k in range(len(_CSV_COLUMNS))]
        for line in cells:
            stream.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")


def _parse_floats(text: str, count: int | None = None, flag: str = "") -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise CliError(f"could not parse {flag or 'list'}: {exc}") from None
    if count is not None and len(vals) != count:
        raise CliError(f"{flag or 'list'} needs {count} comma-separated values")
    if not np.all(np.isfinite(vals)):
        raise CliError(f"{flag or 'list'} values must be finite")
    return vals


def _parse_probs(text: str, flag: str = "--probs") -> tuple[float, float, float]:
    vals = _parse_floats(text, 3, flag)
    total = sum(vals)
    if abs(total - 1.0) > 1e-6:
        raise CliError(f"{flag} must sum to 1 (got {total})")
    return tuple(v / total for v in vals)


def _parse_state(text: str) -> QuantumState:
    try:
        amps = np.array([complex(tok) for tok in text.split(",")], dtype=complex)
    except ValueError as exc:
        raise CliError(f"could not parse --state: {exc}") from None
    if amps.shape[0] not in (2, 3):
        raise CliError("--state needs 2 or 3 comma-separated amplitudes")
    if not np.all(np.isfinite(amps)):
        raise CliError("--state amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise CliError("--state must be a nonzero vector")
    return QuantumState.from_pure(amps / norm)


def _row_seed(args: argparse.Namespace, index: int) -> int:
    return args.seed + 104_729 * (index + 1)


# ---------------------------------------------------------------------------
# row builders: every experiment's rows are built here and nowhere else.
# The subcommands parse their flags into a builder's arguments; verify-all
# calls the same builders with fixed inputs and selects rows from them.
# Builders whose seed is optional make no Monte Carlo pass when it is None:
# their outcome counts are empty, and so are the mc and stderr cells.


def _spin_half_outcomes(direction: np.ndarray) -> tuple[float, float]:
    """-|b| and +|b|, the outcome table of both spin-half rules, with |b| as the rules compute it."""
    mag = float(np.linalg.norm(direction))
    return -mag, mag


def _select(rows: list[ReportRow], *names: str) -> list[ReportRow]:
    return [row for row in rows if row.experiment in names]


def _sgn_mean_row(n: int, xi: float, samples: int, seed: int) -> ReportRow:
    spec = SignFunctionSpec(xi, n=n)
    counts = mc_mean(spec.evaluate, spec.distribution, samples, seed, (-1.0, 1.0))
    return ReportRow("sgn-mean", f"n={n};xi={xi}", sign_mean_analytic(spec), *_count_cells(counts), sign_mean_quadrature(spec))


def _sgn_product_row(n: int, b1: float, b2: float, samples: int, seed: int) -> ReportRow:
    s1 = SignFunctionSpec(b1, n=n, include_sign_prefactor=True)
    s2 = SignFunctionSpec(b2, n=n, include_sign_prefactor=True)
    counts = mc_mean(lambda xs: s1.evaluate(xs) * s2.evaluate(xs), s1.distribution, samples, seed, (-1.0, 1.0))
    analytic, quadrature = sign_product_mean_analytic(s1, s2), sign_product_mean_quadrature(s1, s2)
    return ReportRow("sgn-product-mean", f"n={n};xi1={b1};xi2={b2}", analytic, *_count_cells(counts), quadrature)


def _moment_rows(kind: str, params: str, stats: Moments, oracle: Moments, counts: list[tuple[float, int]]) -> list[ReportRow]:
    """The mean, second-moment and variance rows of a model's moments
    against their reference, the first two with the cells of the outcome
    counts and of their squares."""
    squares = [(value * value, count) for value, count in counts]
    return [
        ReportRow(f"{kind}-mean", params, stats.mean, *_count_cells(counts), oracle.mean),
        ReportRow(f"{kind}-second-moment", params, stats.second_moment, *_count_cells(squares), oracle.second_moment),
        ReportRow(f"{kind}-variance", params, stats.variance, oracle=oracle.variance),
    ]


def _operator_moments(matrix: np.ndarray, state: QuantumState) -> Moments:
    """Moments of an observable in a state, the variance centred."""
    return Moments(expectation(matrix, state), expectation(matrix @ matrix, state), variance(matrix, state))


def _spin_half_rows(
    direction: np.ndarray, state: QuantumState, pauli: OperatorBasis, params: str, samples: int, seed: int
) -> list[ReportRow]:
    """Modified Bell model: mean and second moment from one pass, variance."""
    bloch = bloch_vector(state, pauli)
    stats = spin_half.hv_statistics(direction, bloch)
    outcome = functools.partial(spin_half.bell_outcome_modified, direction, bloch)
    counts = mc_mean(outcome, PowerLawDistribution(0), samples, seed, _spin_half_outcomes(direction))
    oracle = _operator_moments(linear_observable(direction, pauli), state)
    return _moment_rows("spin-half", params, stats, oracle, counts)


def _spin_half_original_rows(
    direction: np.ndarray, pauli: OperatorBasis, params: str, samples: int = 0, seed: int | None = None
) -> list[ReportRow]:
    """Bell's original model, whose quantum reference is the spin-up state."""
    oracle = _operator_moments(linear_observable(direction, pauli), QuantumState.from_pure([1.0, 0.0]))
    mean = spin_half.bell_original_mean_analytic(direction)
    # |b|^2 - b_z^2 without the cancellation: the outcomes are +-|b|, the mean is +-|b_z|
    spread = float(direction[0] ** 2 + direction[1] ** 2)
    counts = []
    if seed is not None:
        outcome = functools.partial(spin_half.bell_outcome_original, direction)
        counts = mc_mean(outcome, PowerLawDistribution(0), samples, seed, _spin_half_outcomes(direction))
    return [
        ReportRow("spin-half-original-mean", params, mean, *_count_cells(counts), oracle.mean),
        ReportRow("spin-half-original-variance", params, spread, oracle=oracle.variance),
    ]


def _split_counts(
    offset: float, direction: np.ndarray, bloch: np.ndarray, split_point: float, samples: int, seed: int
) -> dict[tuple[float, bool], int]:
    """How many of ``samples`` seeded draws of offset + b.S take each
    (outcome value, upper side) pair, counted by ``mc_mean`` as the four
    values of one table, so the hidden values are those ``mc_mean`` of the
    rule itself draws."""
    minus, plus = _spin_half_outcomes(direction)
    low, high = offset + minus, offset + plus

    def cell(hidden):
        outcomes = offset + spin_half.bell_outcome_modified(direction, bloch, hidden)
        is_high = outcomes == high
        if not np.all(is_high | (outcomes == low)):
            raise RuntimeError("the outcome rule took a value other than offset -+ |b|")
        return 2 * is_high + (hidden >= split_point)

    cells = mc_mean(cell, PowerLawDistribution(0), samples, seed, range(4))
    # when high == low every draw is high, so the low cells are empty
    keys = ((low, False), (low, True), (high, False), (high, True))
    return {key: count for key, (_, count) in zip(keys, cells) if count}


def _homogeneity_rows(
    offset: float, direction: np.ndarray, state: QuantumState, pauli: OperatorBasis, params: str,
    samples: int = 0, seed: int | None = None,
) -> list[ReportRow]:
    """Means of offset + b.S either side of the outcome threshold, overall and recombined; with a
    seed, mc cells from the counts of each (outcome value, side) pair of one pass."""
    bloch = bloch_vector(state, pauli)
    split = spin_half.homogeneity_split(offset, direction, bloch)
    counts = {} if seed is None else _split_counts(offset, direction, bloch, split.split_point, samples, seed)
    upper = [(value, count) for (value, side), count in counts.items() if side]
    lower = [(value, count) for (value, side), count in counts.items() if not side]
    recombined = split.weight_plus * split.mean_plus + split.weight_minus * split.mean_minus
    whole_oracle = offset + expectation(linear_observable(direction, pauli), state)
    return [
        ReportRow("homogeneity-mean-plus", params, split.mean_plus, *_count_cells(upper)),
        ReportRow("homogeneity-mean-minus", params, split.mean_minus, *_count_cells(lower)),
        ReportRow("homogeneity-whole", params, split.whole, *_count_cells(upper + lower), whole_oracle),
        ReportRow("homogeneity-recombined", params, recombined, oracle=split.whole),
    ]


def _formula_rows(
    kind: str, formula: spin_one.OutcomeFormula, params: str, stats: Moments, oracle: Moments, samples: int, seed: int | None
) -> list[ReportRow]:
    """Moment rows of a two-sign-function rule; with a seed, mc cells from one two-variable pass."""
    counts = [] if seed is None else mc_mean_pair(formula.evaluate, *formula.hidden_distributions, samples, seed, formula._table)
    return _moment_rows(kind, params, stats, oracle, counts)


def _spin_one_rows(
    values: tuple[float, float, float], probs: tuple[float, float, float], params: str, samples: int = 0,
    seed: int | None = None, case_id: str = "III", n: int = 0, swap: bool = False,
) -> list[ReportRow]:
    """A case's rule for an explicit spectrum against the spectrum's own moments."""
    formula = spin_one.build_formula(case_id, spin_one.SpectralTriple(values, probs), n=n, swap=swap)
    oracle = Moments.of(values, probs)
    return _formula_rows("spin-one", formula, params, spin_one.hv_statistics(formula), oracle, samples, seed)


def _operator_rows(
    kind: str, coeffs: np.ndarray, basis: OperatorBasis, state: QuantumState, params: str,
    samples: int = 0, seed: int | None = None, case_id: str = "III", n: int = 0, swap: bool = False,
) -> list[ReportRow]:
    """A case's rule for an observable, its outcome probabilities the Born
    weights in the state, against the observable's quantum moments."""
    formula = spin_one.beable_from_operator(coeffs, basis, state, case_id=case_id, n=n, swap=swap)
    oracle = _operator_moments(linear_observable(coeffs, basis), state)
    return _formula_rows(kind, formula, params, spin_one.hv_statistics(formula), oracle, samples, seed)


def _ks_rows(probs: tuple[float, float, float], params: str, samples: int = 0, seed: int | None = None) -> list[ReportRow]:
    """Average, second moment (both from one pass) and dispersion of the
    constraint sum.  The reference second moment is taken term by term:
    2 from the squared outcomes plus twice the three pairwise cross terms."""
    model = ks.KsModel(probs)
    counts = [] if seed is None else mc_mean(
        lambda xs: sum(ks.ks_square_outcomes(model, xs)), ks.SHARED_HIDDEN, samples, seed, (0.0, 1.0, 2.0, 3.0)
    )
    squares = [(value * value, count) for value, count in counts]
    p1, p2, p3 = model.probabilities
    route = 2.0 + 2.0 * (ks.ks_cross_term(p1, p2) + ks.ks_cross_term(p1, p3) + ks.ks_cross_term(p2, p3))
    return [
        ReportRow("ks-average", params, ks.ks_average(model), *_count_cells(counts), 2.0),
        ReportRow("ks-second-moment", params, ks.ks_second_moment(model), *_count_cells(squares), route),
        ReportRow("ks-dispersion", params, ks.ks_dispersion(model), oracle=route - 4.0),
    ]


def _ks_scan_rows(step: float) -> list[ReportRow]:
    """Dispersion over the simplex grid, then its minimum and maximum."""
    table = ks.dispersion_scan(step)
    rows = [ReportRow("ks-scan", f"p1={p1:.6g};p2={p2:.6g};p3={p3:.6g}", float(value)) for p1, p2, p3, value in table]
    values = table[:, 3]
    rows.append(ReportRow("ks-scan-min", f"step={step}", float(values.min()), oracle=0.0))
    rows.append(ReportRow("ks-scan-max", f"step={step}", float(values.max()), oracle=2.0))
    return rows


def _ks_epsilon_rows(
    eps: float, probs: tuple[float, float, float], params: str, samples: int = 0, seed: int | None = None
) -> list[ReportRow]:
    """Closed-form moments of the deformed constraint against its outcome
    table, the mean and second moment also from its two-sign-function rule."""
    model = ks.DeformedKsModel(eps, probs)
    oracle = Moments.of(ks.deformed_outcomes(model), model.probabilities)
    return _formula_rows("ks-epsilon", ks.deformed_formula(model), params, ks.deformed_statistics(model), oracle, samples, seed)


def _ks_epsilon_sweep_rows(probs: tuple[float, float, float], label: str) -> list[ReportRow]:
    """Variance of the deformed constraint for eps from 1e-4 to 0.1, and its log-log slope 2."""
    eps_grid = np.logspace(-4, -1, 13)
    rows, variances = [], []
    for eps in eps_grid:
        swept = ks.DeformedKsModel(float(eps), probs)
        variances.append(ks.deformed_statistics(swept).variance)
        oracle = Moments.of(ks.deformed_outcomes(swept), probs).variance
        rows.append(ReportRow("ks-epsilon-sweep", f"eps={eps:.6g};probs={label}", variances[-1], oracle=oracle))
    slope = float(np.polyfit(np.log(eps_grid), np.log(variances), 1)[0])
    rows.append(ReportRow("ks-epsilon-slope", f"probs={label}", slope, oracle=2.0))
    return rows


def _oracle_check_rows(seed: int) -> list[ReportRow]:
    """Self-checks of the quantum reference on fixed and seeded random inputs."""
    rng = np.random.default_rng(seed)
    rows: list[ReportRow] = []
    bases = {kind: build_basis(kind) for kind in BASIS_KINDS}

    for kind in (PAULI, GELL_MANN):
        basis = bases[kind]
        gram = np.einsum("aij,bji->ab", basis.operators, basis.operators).real
        dev = float(np.max(np.abs(gram - 2.0 * np.eye(basis.size))))
        rows.append(ReportRow("basis-orthogonality", f"kind={kind}", dev, oracle=0.0))
    for kind in BASIS_KINDS:
        basis = bases[kind]
        dev = float(np.max(np.abs(np.trace(basis.operators, axis1=1, axis2=2))))
        rows.append(ReportRow("basis-traceless", f"kind={kind}", dev, oracle=0.0))

    gm, ang = bases[GELL_MANN], bases[ANGULAR_MOMENTUM]
    levi = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        levi[i, j, k] = 1.0
        levi[j, i, k] = -1.0
    for name, params, value, exact in (
        ("structure-f", "kind=gell-mann;i=1;j=2;k=3", gm.f[0, 1, 2], 1.0),
        ("structure-f", "kind=gell-mann;i=4;j=5;k=8", gm.f[3, 4, 7], np.sqrt(3) / 2),
        ("structure-d", "kind=gell-mann;i=1;j=1;k=8", gm.d[0, 0, 7], 1 / np.sqrt(3)),
        ("structure-f", "kind=pauli;test=levi-civita", np.max(np.abs(bases[PAULI].f - levi)), 0.0),
    ):
        rows.append(ReportRow(name, params, float(value), oracle=float(exact)))

    # Sx, Sy, Sz written out in the Sz basis, independent of the Gell-Mann
    # combinations that build the angular-momentum set
    r = 1 / np.sqrt(2.0)
    spin = np.array(
        [
            [[0, r, 0], [r, 0, r], [0, r, 0]],
            [[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]],
            [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
        ],
        dtype=complex,
    )
    combo_dev = float(np.max(np.abs(ang.operators[:3] - spin)))
    rows.append(ReportRow("basis-combination", "angular-from-gell-mann", combo_dev, oracle=0.0))
    for kind, exact in ((ANGULAR_MOMENTUM, 0.0), (GELL_MANN, float(np.sqrt(6.0)))):
        rows.append(ReportRow("squares-identity", f"kind={kind}", verify_ks_identity(bases[kind]).residual, oracle=exact))

    worst = 0.0
    for row in simultaneous_eigenbasis():
        for op, val in zip(ang.operators[:3], row.squares):
            sq = op @ op
            worst = max(worst, float(np.max(np.abs(sq @ row.vector - val * row.vector))))
    rows.append(ReportRow("simultaneous-eigenbasis", "rows=3", worst, oracle=0.0))

    recon = 0.0
    for basis in (bases[PAULI], gm):
        for _ in range(20):
            h = linear_observable(rng.normal(size=basis.size), basis)
            vals, vecs = spectral_decompose(h)
            rebuilt = (vecs * vals) @ vecs.conj().T
            recon = max(recon, float(np.max(np.abs(rebuilt - h))))
    rows.append(ReportRow("eigen-reconstruction", "trials=40", recon, oracle=0.0))

    born_dev = 0.0
    for _ in range(20):
        h = linear_observable(rng.normal(size=8), gm)
        state = random_pure_state(3, rng)
        dist = born_distribution(h, state)
        born_dev = max(born_dev, abs(dist.mean - expectation(h, state)))
    rows.append(ReportRow("born-vs-trace", "trials=20", born_dev, oracle=0.0))

    spec_dev = 0.0
    for _ in range(200):
        beta = rng.normal(size=3)
        mag = float(np.linalg.norm(beta))
        vals, _ = spectral_decompose(linear_observable(beta, ang))
        spec_dev = max(spec_dev, float(np.max(np.abs(vals - np.array([mag, 0.0, -mag])))))
    rows.append(ReportRow("direction-spectrum", "trials=200", spec_dev, oracle=0.0))
    return rows


# ---------------------------------------------------------------------------
# subcommands: each parses its flags and calls builders


def run_oracle_check(args: argparse.Namespace) -> list[ReportRow]:
    return _oracle_check_rows(args.seed)


def run_sgn_averages(args: argparse.Namespace) -> list[ReportRow]:
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    rows = [_sgn_mean_row(args.n, round(-1.0 + 0.1 * k, 10), args.samples, _row_seed(args, k)) for k in range(21)]
    pairs = ((0.8, 0.3), (0.8, -0.3), (0.5, 0.5), (-0.6, -0.9))
    rows += [_sgn_product_row(args.n, b1, b2, args.samples, _row_seed(args, 100 + idx)) for idx, (b1, b2) in enumerate(pairs)]
    return rows


def _spin_half_inputs(args) -> tuple[np.ndarray, QuantumState, OperatorBasis]:
    direction = np.array(_parse_floats(args.beta, 3, "--beta"))
    pauli = build_basis(PAULI)
    if args.state is not None and args.epsilon is not None:
        raise CliError("--state and --epsilon each give the state; pass one of them")
    if args.state is not None:
        state = _parse_state(args.state)
        if state.dim != 2:
            raise CliError("--state must be 2-dimensional here")
    elif args.epsilon is not None:
        bloch = np.array(_parse_floats(args.epsilon, 3, "--epsilon"))
        if np.linalg.norm(bloch) > 1.0 + 1e-10:
            raise CliError("--epsilon must have length at most 1")
        rho = 0.5 * (np.eye(2, dtype=complex) + np.einsum("k,kij->ij", bloch, pauli.operators))
        state = QuantumState.from_density(rho)
    else:
        state = QuantumState.from_pure([1.0, 0.0])
    return direction, state, pauli


def run_spin_half(args: argparse.Namespace) -> list[ReportRow]:
    if args.original and (args.state is not None or args.epsilon is not None):
        raise CliError("--original models the state (1, 0) only; it takes no --state or --epsilon")
    direction, state, pauli = _spin_half_inputs(args)
    params = f"beta={args.beta}"
    if args.original:
        return _spin_half_original_rows(direction, pauli, params, args.samples, _row_seed(args, 0))
    return _spin_half_rows(direction, state, pauli, params, args.samples, _row_seed(args, 1))


def run_homogeneity(args: argparse.Namespace) -> list[ReportRow]:
    direction, state, pauli = _spin_half_inputs(args)
    params = f"alpha={args.alpha};beta={args.beta}"
    return _homogeneity_rows(args.alpha, direction, state, pauli, params, args.samples, args.seed)


def run_spin_one(args: argparse.Namespace) -> list[ReportRow]:
    if args.n < 0:  # before the case can be found infeasible
        raise CliError("--n must be nonnegative")
    rule = dict(case_id=args.case, n=args.n, swap=args.swap)
    if args.lambdas is not None or args.probs is not None:
        if args.lambdas is None or args.probs is None:
            raise CliError("explicit mode needs both --lambdas and --probs")
        values, probs = tuple(_parse_floats(args.lambdas, 3, "--lambdas")), _parse_probs(args.probs)
        params = f"case={args.case};lambdas={args.lambdas};probs={args.probs}"
        return _spin_one_rows(values, probs, params, args.samples, _row_seed(args, 3), **rule)
    if args.beta is None or args.state is None:
        raise CliError("operator mode needs --beta and --state")
    basis = build_basis(args.basis)
    coeffs = np.array(_parse_floats(args.beta, None, "--beta"))
    state = _parse_state(args.state)
    if state.dim != 3:
        raise CliError("--state must be 3-dimensional here")
    params = f"case={args.case};basis={args.basis};beta={args.beta}"
    return _operator_rows("spin-one", coeffs, basis, state, params, args.samples, _row_seed(args, 3), **rule)


def run_ks_dispersion(args: argparse.Namespace) -> list[ReportRow]:
    if args.scan:
        return _ks_scan_rows(0.01 if args.grid_step is None else args.grid_step)
    if args.probs is None:
        raise CliError("ks-dispersion needs --probs or --scan")
    if args.grid_step is not None:
        raise CliError("--grid-step applies to --scan only")
    return _ks_rows(_parse_probs(args.probs), f"probs={args.probs}", args.samples, _row_seed(args, 5))


def run_ks_epsilon(args: argparse.Namespace) -> list[ReportRow]:
    probs = _parse_probs(args.probs)
    rows = _ks_epsilon_rows(args.eps, probs, f"eps={args.eps};probs={args.probs}", args.samples, _row_seed(args, 7))
    return rows + (_ks_epsilon_sweep_rows(probs, args.probs) if args.sweep else [])


def run_verify_all(args: argparse.Namespace) -> list[ReportRow]:
    rows = _oracle_check_rows(args.seed)
    for n in (0, 3):
        for idx, xi in enumerate((-0.7, 0.0, 0.7)):
            rows.append(_sgn_mean_row(n, xi, args.samples, _row_seed(args, 200 + 10 * n + idx)))

    rng = np.random.default_rng(args.seed)
    state2, state3, coeffs = random_pure_state(2, rng), random_pure_state(3, rng), rng.normal(size=8)
    pauli = build_basis(PAULI)
    direction, params = np.array([0.3, -0.4, 0.8]), "beta=0.3,-0.4,0.8"
    half = _spin_half_rows(direction, state2, pauli, params, args.samples, _row_seed(args, 300))
    rows += _select(half, "spin-half-mean", "spin-half-variance")
    rows += _select(_spin_half_original_rows(direction, pauli, params), "spin-half-original-mean")
    rows += _select(_homogeneity_rows(1.5, direction, state2, pauli, f"alpha=1.5;{params}"), "homogeneity-recombined")

    params = "case=III;lambdas=0,1,-1;probs=0.25,0.5,0.25"
    one = _spin_one_rows((0.0, 1.0, -1.0), (0.25, 0.5, 0.25), params, args.samples, _row_seed(args, 301))
    rows += _select(one, "spin-one-mean", "spin-one-second-moment")
    operator = _operator_rows("spin-one-operator", coeffs, build_basis(GELL_MANN), state3, "basis=gell-mann")
    rows += _select(operator, "spin-one-operator-mean", "spin-one-operator-variance")

    rows += _select(_ks_rows(ks.ks_model_from_state(state3).probabilities, "probs=from-state"), "ks-average")
    for probs in ((0.2, 0.5, 0.3), (0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3)):
        params = f"probs={probs[0]:.6g},{probs[1]:.6g},{probs[2]:.6g}"
        rows += _select(_ks_rows(probs, params), "ks-second-moment")
    rows += _select(_ks_epsilon_rows(0.05, (0.25, 0.5, 0.25), "eps=0.05"), "ks-epsilon-mean", "ks-epsilon-variance")
    return rows


_DISPATCH = {
    "oracle-check": run_oracle_check,
    "sgn-averages": run_sgn_averages,
    "spin-half": run_spin_half,
    "homogeneity": run_homogeneity,
    "spin-one": run_spin_one,
    "ks-dispersion": run_ks_dispersion,
    "ks-epsilon": run_ks_epsilon,
    "verify-all": run_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hvlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--samples", type=int, default=1_000_000)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--tolerance-sigma", type=float, default=4.0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("oracle-check", parents=[common])
    p = sub.add_parser("sgn-averages", parents=[common])
    p.add_argument("--n", type=int, default=0, help="power-law distribution index")

    for name in ("spin-half", "homogeneity"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--beta", required=True, help="three comma-separated components")
        p.add_argument("--state", help="pure-state amplitudes, complex allowed")
        p.add_argument("--epsilon", help="Bloch vector, three comma-separated reals")
        if name == "spin-half":
            p.add_argument("--original", action="store_true")
        else:
            p.add_argument("--alpha", type=float, default=0.0)

    p = sub.add_parser("spin-one", parents=[common])
    p.add_argument("--n", type=int, default=0, help="power-law distribution index")
    p.add_argument("--case", default="III", choices=spin_one.CASE_IDS)
    p.add_argument("--swap", action="store_true")
    p.add_argument("--lambdas", help="three outcome values, repeated one first")
    p.add_argument("--probs", help="three probabilities")
    p.add_argument("--beta", help="basis coefficients for operator mode")
    p.add_argument("--state", help="pure-state amplitudes for operator mode")
    p.add_argument("--basis", default=ANGULAR_MOMENTUM, choices=BASIS_KINDS)

    p = sub.add_parser("ks-dispersion", parents=[common])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--probs", help="three zero-outcome probabilities")
    mode.add_argument("--scan", action="store_true")
    p.add_argument("--grid-step", type=float, help="simplex grid step of --scan (default 0.01)")

    p = sub.add_parser("ks-epsilon", parents=[common])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--probs", required=True, help="p_plus,p_zero,p_minus")
    p.add_argument("--sweep", action="store_true")

    sub.add_parser("verify-all", parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.samples < 1:
            raise CliError("--samples must be at least 1")
        if not args.tolerance_sigma > 0.0:
            raise CliError("--tolerance-sigma must be positive")
        rows = _DISPATCH[args.command](args)
    except spin_one.InfeasibleCaseError as exc:  # a finding, not a usage error; also a ValueError
        print(f"infeasible: {exc.reason}")
        return 0
    except (CliError, ValueError) as exc:
        # the library rejects out-of-range input with ValueError; the CLI
        # does not repeat its checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if rows:
            emit_rows(rows, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): send what is left, and the
        # flush at exit, to devnull rather than fail on them
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(row.passed(args.tolerance_sigma) for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
